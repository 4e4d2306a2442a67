"""Closed-form qubit machinery.

In dimension two every generalized skew information factorizes into a purely
state-dependent bracket ``1 - 2 m_nu(l1, l2)`` times the variance of the
operator in either eigenvector of the state.  That single fact powers the
cross-order ratios, the tightened bounds and the three-direction equalities
in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import OperatorSet, pure_variance_bound
from .equalities import EqualityReport
from .errors import DegenerateDenominator, DimensionMismatch, DomainError, NotOrthonormal
from .linalg import (
    DEFAULT_TOL, DensityOperator, Tolerances, _operators, _trace, as_operator, density,
    density_stack, rowwise,
)
from .moments import _mean_gaps, fisher_information, gen_skew, variance

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "BlochState",
    "bloch_vector",
    "direction_op",
    "qubit_bracket",
    "qubit_gen_skew_closed",
    "order_ratio",
    "fisher_wy_ratio",
    "scaled_skew_sum",
    "skew_variance_mix_check",
    "fisher_variance_direction_bound",
    "orthogonal_triple_skew_equality",
    "mixed_triple_equalities",
    "direction_variance_fisher_identity",
    "direction_variance_skew_identity",
    "triple_purity_identity",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = np.array([PAULI_X, PAULI_Y, PAULI_Z])

_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class BlochState:
    """Qubit state parametrized by its Bloch vector."""

    r: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.r, dtype=float).ravel()
        if v.size != 3:
            raise DimensionMismatch("Bloch vector must have three components")
        if np.linalg.norm(v) > 1 + DEFAULT_TOL.tol_psd:
            raise DomainError(f"Bloch vector norm {np.linalg.norm(v):.6f} exceeds 1")
        object.__setattr__(self, "r", v)

    def to_density(self, tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
        M = (np.eye(2, dtype=complex) + sum(c * P for c, P in zip(self.r, _PAULI))) / 2
        return density(M, tol)


@rowwise
def bloch_vector(rows, rho: DensityOperator) -> np.ndarray:
    """Bloch vector of a qubit state."""
    _check_qubit(rho)
    return _trace(rho.matrix[:, None] @ _PAULI).real


def _directions(n) -> np.ndarray:
    """A direction as 3 floats, or a (N, 3) stack of one per state."""
    v = np.asarray(n, dtype=float)
    v = v.ravel() if v.size == 3 else v
    if v.shape[-1] != 3:
        raise DimensionMismatch("direction must have three components")
    return v


def direction_op(n) -> np.ndarray:
    """Spin operator (1/2) n . sigma along a unit direction, or the (N, 2, 2)
    stack of a (N, 3) stack of directions."""
    v = _directions(n)
    norm = np.linalg.norm(v, axis=-1)
    bad = np.abs(norm - 1) > _ORTHO_TOL
    if np.any(bad):
        raise NotOrthonormal(f"direction norm {norm[bad][0]:.12f} != 1")
    return sum(v[..., k, None, None] * P for k, P in enumerate(_PAULI)) / 2


def _check_qubit(rho: DensityOperator):
    if rho.dim != 2:
        raise DimensionMismatch("qubit operations need a 2-dimensional state")


@rowwise
def qubit_bracket(rows, rho: DensityOperator, order, tol: Tolerances = DEFAULT_TOL):
    """State factor 1 - 2 m_nu(l1, l2) as l1 + l2 - 2 m_nu = 2 G_12, the gap of
    :func:`~skewbound.moments.gen_skew`, formed with no subtraction; 1 on pure
    states, where G_12 = (l1 + l2)/2.  A stack takes one order for all states
    or an array of one per state."""
    _check_qubit(rho)
    return 2.0 * _mean_gaps(rho.eigenvalues, order, tol.tol_psd)[:, 0, 1]


def _strictly_mixed_bracket(rows, rho, order, tol):
    """Bracket for operations whose derivation assumes a mixed state."""
    _check_qubit(rho)
    rows.reject(np.min(rho.eigenvalues, axis=-1) <= tol.tol_psd, DegenerateDenominator,
                "pure state: the bracket degenerates (analytic limit gives skew = variance)")
    b = qubit_bracket.core(rows, rho, order, tol)
    rows.reject(b < tol.tol_residual, DegenerateDenominator,
                "maximally mixed state: bracket vanishes (0/0)")
    return b


@rowwise
def qubit_gen_skew_closed(rows, sigma, rho: DensityOperator, order, tol: Tolerances = DEFAULT_TOL):
    """Closed-form generalized skew: bracket times eigenvector variance.

    Uses the smaller-eigenvalue eigenvector; the value is provably identical
    for either one, which the test suite asserts.
    """
    _check_qubit(rho)
    sigma = _operators(sigma, 2)
    v = rho.eigenvectors[:, :, 0]
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    eigstates = density_stack(v[:, :, None] * v[:, None, :].conj(), tol)
    bracket = qubit_bracket.core(rows, rho, order, tol)
    return bracket * variance.core(rows, sigma, eigstates, tol)


@rowwise
def order_ratio(rows, rho: DensityOperator, order, order_prime, tol: Tolerances = DEFAULT_TOL):
    """Exact ratio I^nu / I^nu' of two skew orders of the same operator."""
    return _strictly_mixed_bracket(rows, rho, order, tol) / _strictly_mixed_bracket(
        rows, rho, order_prime, tol
    )


@rowwise
def fisher_wy_ratio(rows, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL):
    """Fisher over symmetric-skew ratio 4(1-4 l1 l2)/(1-2 sqrt(l1 l2))."""
    return 4.0 * _gamma(rows, rho, 0.0, tol)


def _gamma(rows, rho, order, tol):
    """(1 - 4 l1 l2) / bracket_nu; converts order-nu skew to Fisher scale."""
    b = _strictly_mixed_bracket(rows, rho, order, tol)
    l1, l2 = rho.eigenvalues.T
    return (1.0 - 4.0 * l1 * l2) / b


@rowwise
def scaled_skew_sum(rows, ops_with_orders, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL):
    """Sum of bracket-normalized skews; equals the eigenvector variance sum.

    Each term I^nu_k(sigma_k) / [1 - 2 m_nu_k] removes the state dependence,
    so the total is lower-bounded by any pure-state variance floor.
    """
    _check_qubit(rho)
    total = 0.0
    for sigma, order in ops_with_orders:
        sigma = _operators(sigma, 2)
        b = _strictly_mixed_bracket(rows, rho, order, tol)
        total += gen_skew.core(rows, sigma, rho, order, tol) / b
    return total


def skew_variance_mix_check(
    skew_ops,
    var_ops,
    rho: DensityOperator,
    lower_bound: Optional[float] = None,
    tol: Tolerances = DEFAULT_TOL,
):
    """Mixed skew/variance sum against a pure-state floor.

    Returns (lhs, bound): lhs adds the bracket-normalized skews and the raw
    variances; bound defaults to the pure-state variance floor of the
    combined operator list, and callers may pass a tighter analytic value
    (e.g. the two-direction Fisher bound).
    """
    _check_qubit(rho)
    lhs = scaled_skew_sum(skew_ops, rho, tol)
    combined = [as_operator(sigma, dim=2) for sigma, _ in skew_ops]
    for om in var_ops:
        om = as_operator(om, dim=2)
        lhs += variance(om, rho, tol)
        combined.append(om)
    if lower_bound is None:
        lower_bound = pure_variance_bound(OperatorSet(tuple(combined)))
    return lhs, lower_bound


def fisher_variance_direction_bound(a, b, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL):
    """Two-direction Fisher/variance trade-off with its analytic floor.

    Returns (lhs, bound) with lhs = F(sigma_a)/4 + <d sigma_b>^2 and
    bound = (1 - |a.b|)/4, which is the exact pure-state minimum for the
    pair and tightens the scan-based floor for two directions.
    """
    _check_qubit(rho)
    sa, sb = direction_op(a), direction_op(b)
    lhs = fisher_information(sa, rho, tol) / 4 + variance(sb, rho, tol)
    dot = float(np.dot(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))
    return lhs, 0.25 * (1.0 - abs(dot))


def _require_orthonormal_triple(n1, n2, n3):
    ns = [_directions(n) for n in (n1, n2, n3)]
    for i, u in enumerate(ns):
        if np.any(np.abs(np.linalg.norm(u, axis=-1) - 1) > _ORTHO_TOL):
            raise NotOrthonormal(f"direction {i} is not unit length")
    for i in range(3):
        for j in range(i + 1, 3):
            if np.any(np.abs(np.sum(ns[i] * ns[j], axis=-1)) > _ORTHO_TOL):
                raise NotOrthonormal(f"directions {i} and {j} are not orthogonal")
    return ns


def _flat_report(lhs, rhs) -> EqualityReport:
    zero = np.zeros_like(lhs)
    return EqualityReport(
        lhs=lhs,
        rhs=rhs + zero,
        residual=lhs - rhs,
        commutator_term=zero,
        correction_term=zero,
        sign_choice=np.ones_like(lhs, dtype=int),
    )


@rowwise
def orthogonal_triple_skew_equality(
    rows, n1, n2, n3, rho: DensityOperator, orders: Sequence, tol: Tolerances = DEFAULT_TOL
) -> EqualityReport:
    """Bracket-normalized skews along an orthonormal triple sum to 1/2.

    A stack takes directions and orders shared by all states or given one
    per state, as (N, 3) and (N,) arrays.
    """
    ns = _require_orthonormal_triple(n1, n2, n3)
    if len(orders) != 3:
        raise DomainError("need three mean orders")
    lhs = scaled_skew_sum.core(
        rows, [(direction_op(n), order) for n, order in zip(ns, orders)], rho, tol
    )
    return _flat_report(lhs, 0.5)


@rowwise
def mixed_triple_equalities(
    rows, n1, n2, n3, rho: DensityOperator, orders: Sequence, tol: Tolerances = DEFAULT_TOL
):
    """Two equalities mixing Fisher-scaled skews and variances on a triple.

    First report: Gamma_nu1 I^nu1(s_n1) + <d s_n2>^2 + <d s_n3>^2 = 1/2.
    Second: Gamma_nu1 I^nu1(s_n1) + Gamma_nu2 I^nu2(s_n2) + <d s_n3>^2
    = Tr(rho^2)/2.  The underlying per-direction identity is exposed as
    :func:`direction_variance_skew_identity`.
    """
    ns = _require_orthonormal_triple(n1, n2, n3)
    if len(orders) < 2:
        raise DomainError("need at least two mean orders")
    s1, s2, s3 = (direction_op(n) for n in ns)
    g1 = _gamma(rows, rho, orders[0], tol) * gen_skew.core(rows, s1, rho, orders[0], tol)
    g2 = _gamma(rows, rho, orders[1], tol) * gen_skew.core(rows, s2, rho, orders[1], tol)
    v2 = variance.core(rows, s2, rho, tol)
    v3 = variance.core(rows, s3, rho, tol)
    first = _flat_report(g1 + v2 + v3, 0.5)
    second = _flat_report(g1 + g2 + v3, 0.5 * rho.purity())
    return first, second


@rowwise
def direction_variance_fisher_identity(
    rows, n, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL
) -> EqualityReport:
    """<d s_n>^2 = F(s_n)/4 + (1 - Tr rho^2)/2 for any direction."""
    _check_qubit(rho)
    sn = direction_op(n)
    lhs = variance.core(rows, sn, rho, tol)
    rhs = fisher_information.core(rows, sn, rho, tol) / 4 + 0.5 * (1.0 - rho.purity())
    return _flat_report(lhs, rhs)


@rowwise
def direction_variance_skew_identity(
    rows, n, rho: DensityOperator, order, tol: Tolerances = DEFAULT_TOL
) -> EqualityReport:
    """<d s_n>^2 = Gamma_nu I^nu(s_n) + (1 - Tr rho^2)/2."""
    _check_qubit(rho)
    sn = direction_op(n)
    lhs = variance.core(rows, sn, rho, tol)
    rhs = (_gamma(rows, rho, order, tol) * gen_skew.core(rows, sn, rho, order, tol)
           + 0.5 * (1.0 - rho.purity()))
    return _flat_report(lhs, rhs)


@rowwise
def triple_purity_identity(rows, n1, n2, n3, rho: DensityOperator) -> EqualityReport:
    """Tr rho^2 = (1 + sum_i (n_i . r)^2)/2 over an orthonormal triple."""
    ns = _require_orthonormal_triple(n1, n2, n3)
    r = bloch_vector.core(rows, rho)
    rhs = 0.5 * (1.0 + sum(np.sum(n * r, axis=-1) ** 2 for n in ns))
    return _flat_report(rho.purity(), rhs)
