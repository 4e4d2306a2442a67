"""Uncertainty equalities with explicit commutator terms.

Every operation evaluates both sides of an identity and returns an
:class:`EqualityReport`; a residual within ``tol_residual`` certifies the
identity on the given inputs.  The sign branch is always chosen so the
commutator term is nonnegative (ties resolved to +1).  The sign applies to
the *total* of the two commutator averages; mixed-sign components are not
split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, ZeroDeviation, ZeroSkew
from .linalg import (
    DEFAULT_TOL, DensityOperator, Tolerances, as_operator, matrix_power, require_hermitian,
)
from .moments import std_dev, variance, wyd_skew

__all__ = [
    "EqualityReport",
    "sum_equality",
    "product_equality",
    "product_equality_nontrivial",
    "three_observable_sum_equality",
    "three_observable_product_equality",
    "skew_product_equality",
    "skew_product_correction_identity",
    "deviation_skew_chain",
    "intelligent_state_check",
]


@dataclass(frozen=True)
class EqualityReport:
    """Both sides of an uncertainty equality plus its structural terms."""

    lhs: float
    rhs: float
    residual: float
    commutator_term: float
    correction_term: float
    sign_choice: int

    @property
    def verified(self) -> bool:
        return abs(self.residual) <= DEFAULT_TOL.tol_residual


def _expect(X: np.ndarray, rho: np.ndarray) -> complex:
    return np.trace(X @ rho)


def _commutator_average(A: np.ndarray, B: np.ndarray, rho: np.ndarray) -> float:
    """<i([A^dag, B] + [A, B^dag])>_rho; real for any inputs."""
    C = (A.conj().T @ B - B @ A.conj().T) + (A @ B.conj().T - B.conj().T @ A)
    return (1j * np.trace(C @ rho)).real


def _pick_sign(raw: float, tol: Tolerances) -> int:
    if abs(raw) < tol.tol_residual:
        return +1
    return +1 if raw > 0 else -1


def _centered(X: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return X - _expect(X, rho) * np.eye(X.shape[0])


def _report(lhs, commutator_term, correction_term, sign) -> EqualityReport:
    rhs = commutator_term + correction_term
    return EqualityReport(
        lhs=lhs,
        rhs=rhs,
        residual=lhs - rhs,
        commutator_term=commutator_term,
        correction_term=correction_term,
        sign_choice=sign,
    )


def sum_equality(A, B, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL) -> EqualityReport:
    """<dA>^2 + <dB>^2 decomposed into commutator and quadratic remainder.

    Holds for arbitrary operators and arbitrary mixed states.  Dropping the
    (nonnegative) correction term yields the derived inequality.
    """
    A, B = as_operator(A), as_operator(B, dim=np.asarray(A).shape[0])
    r = rho.matrix
    lhs = variance(A, rho, tol) + variance(B, rho, tol)
    raw = _commutator_average(A, B, r)
    sign = _pick_sign(raw, tol)
    cterm = sign * 0.5 * raw
    M = _centered(A - sign * 1j * B, r)
    N = _centered(A + sign * 1j * B, r)
    corr = 0.5 * (np.trace(M.conj().T @ M @ r) + np.trace(N @ N.conj().T @ r)).real
    return _report(lhs, cterm, corr, sign)


def product_equality(A, B, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL) -> EqualityReport:
    """<dA><dB> as a commutator quotient over normalized operators.

    Requires both deviations nonzero; raises DegenerateDenominator when the
    quadratic form eats the whole denominator (e.g. maximally mixed states),
    where the relation carries no content.
    """
    A, B = as_operator(A), as_operator(B, dim=np.asarray(A).shape[0])
    r = rho.matrix
    sA, sB = std_dev(A, rho, tol), std_dev(B, rho, tol)
    if sA <= tol.tol_residual or sB <= tol.tol_residual:
        raise ZeroDeviation("product equality needs nonzero deviations")
    raw = _commutator_average(A, B, r)
    sign = _pick_sign(raw, tol)
    num = sign * 0.25 * raw
    R = _centered(A / sA - sign * 1j * B / sB, r)
    S = _centered(A / sA + sign * 1j * B / sB, r)
    den = 1 - 0.25 * (np.trace(R.conj().T @ R @ r) + np.trace(S @ S.conj().T @ r)).real
    if abs(den) < tol.tol_residual:
        raise DegenerateDenominator(f"denominator {den:.3e} within tolerance of 0")
    lhs = sA * sB
    rhs = num / den
    return EqualityReport(
        lhs=lhs,
        rhs=rhs,
        residual=lhs - rhs,
        commutator_term=num,
        correction_term=den,
        sign_choice=sign,
    )


def product_equality_nontrivial(
    A, B, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL
) -> EqualityReport:
    """Additive form of the product equality; stays useful at zero commutator.

    Obtained by rescaling A and B with each other's deviation, which turns the
    quotient into commutator term + quadratic remainder.
    """
    A, B = as_operator(A), as_operator(B, dim=np.asarray(A).shape[0])
    r = rho.matrix
    sA, sB = std_dev(A, rho, tol), std_dev(B, rho, tol)
    if sA <= tol.tol_residual or sB <= tol.tol_residual:
        raise ZeroDeviation("product equality needs nonzero deviations")
    raw = _commutator_average(A, B, r)
    sign = _pick_sign(raw, tol)
    cterm = sign * 0.25 * raw
    Am = A * math.sqrt(sB / sA)
    Bm = B * math.sqrt(sA / sB)
    M = _centered(Am - sign * 1j * Bm, r)
    N = _centered(Am + sign * 1j * Bm, r)
    corr = 0.25 * (np.trace(M.conj().T @ M @ r) + np.trace(N @ N.conj().T @ r)).real
    return _report(sA * sB, cterm, corr, sign)


_PAIRS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _pair_data(Xs, rho, tol):
    """Per-pair commutator averages Y_ij and their chosen signs r_ij."""
    r = rho.matrix
    out = []
    for (i, j, k) in _PAIRS:
        Y = 0.5 * (1j * np.trace((Xs[i] @ Xs[j] - Xs[j] @ Xs[i]) @ r)).real
        out.append((i, j, k, Y, _pick_sign(Y, tol)))
    return out


def three_observable_sum_equality(
    X1, X2, X3, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL
) -> EqualityReport:
    """Sum of three variances split into pairwise commutators + remainder.

    The quadratic factors pair each centered observable with -i r times the
    next one; with that conjugate pairing the identity holds for either sign
    branch, and r_ij = sign(Y_ij) keeps the commutator bracket nonnegative.
    """
    Xs = [require_hermitian(X, tol) for X in (X1, X2, X3)]
    r = rho.matrix
    d = Xs[0].shape[0]
    lhs = sum(variance(X, rho, tol) for X in Xs)
    bracket = 0.0
    corr = 0.0
    for (i, j, _k, Y, rij) in _pair_data(Xs, rho, tol):
        bracket += rij * Y
        M = _centered(Xs[i], r) - 1j * rij * _centered(Xs[j], r)
        corr += 0.5 * np.trace(M.conj().T @ M @ r).real
    return _report(lhs, bracket, corr, +1)


def three_observable_product_equality(
    X1, X2, X3, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL
) -> EqualityReport:
    """Product of three standard deviations; same pairing as the sum form."""
    Xs = [require_hermitian(X, tol) for X in (X1, X2, X3)]
    r = rho.matrix
    sd = [std_dev(X, rho, tol) for X in Xs]
    if min(sd) <= tol.tol_residual:
        raise ZeroDeviation("three-observable product needs nonzero deviations")
    lhs = sd[0] * sd[1] * sd[2]
    bracket = 0.0
    corr = 0.0
    for (i, j, k, Y, rij) in _pair_data(Xs, rho, tol):
        bracket += rij * Y * sd[k]
        M = math.sqrt(sd[j] * sd[k] / sd[i]) * _centered(Xs[i], r) - 1j * rij * math.sqrt(
            sd[k] * sd[i] / sd[j]
        ) * _centered(Xs[j], r)
        corr += np.trace(M.conj().T @ M @ r).real / 6
    return _report(lhs, bracket / 3, corr, +1)


def _skew_parts(A, B, rho, s, tol):
    """Shared pieces of the skew-information product equality."""
    A, B = as_operator(A), as_operator(B, dim=np.asarray(A).shape[0])
    IA, IB = wyd_skew(A, rho, s, tol), wyd_skew(B, rho, s, tol)
    if IA <= tol.tol_residual or IB <= tol.tol_residual:
        raise ZeroSkew("skew product equality needs nonzero skew informations")
    rs = matrix_power(rho, s)
    r1s = matrix_power(rho, 1 - s)
    T = np.trace(
        ((A.conj().T @ B - B @ A.conj().T) + (A @ B.conj().T - B.conj().T @ A)) @ rs
    )
    if abs(s - 0.5) < 1e-14:
        E = 0.0 + 0.0j
    else:
        E = (
            np.trace(r1s @ B.conj().T @ rs @ A)
            + np.trace(r1s @ B @ rs @ A.conj().T)
            - np.trace(r1s @ A @ rs @ B.conj().T)
            - np.trace(r1s @ A.conj().T @ rs @ B)
        )
    sigma = rs - rho.matrix
    # sigma = rho^s - rho must be PSD for s in (0, 1)
    smin = float(np.linalg.eigvalsh((sigma + sigma.conj().T) / 2)[0])
    if smin < -tol.tol_psd:
        raise DegenerateDenominator(f"rho^s - rho not PSD (min eig {smin:.3e})")
    omega = (
        np.trace((A.conj().T @ A + A @ A.conj().T) @ sigma).real / (4 * IA)
        + np.trace((B.conj().T @ B + B @ B.conj().T) @ sigma).real / (4 * IB)
    )
    # The commutator/cross total enters as T - E; the cross terms of the
    # quadratic forms carry the opposite sign from the plain-trace ones.
    def cross(sign):
        return (sign * 0.25j * (T - E)).real

    sign = _pick_sign(cross(+1) * 4, tol)
    a, b = A / math.sqrt(IA), B / math.sqrt(IB)
    xi = (a + sign * 1j * b).conj().T @ rs @ (a + sign * 1j * b)
    eta = (a - sign * 1j * b) @ rs @ (a - sign * 1j * b).conj().T
    quad = np.trace((xi + eta) @ (np.eye(rho.dim) - r1s)).real
    return IA, IB, cross(sign), omega, quad, sign


def skew_product_equality(
    A, B, rho: DensityOperator, s: float, tol: Tolerances = DEFAULT_TOL
) -> EqualityReport:
    """sqrt(I^s(A) I^s(B)) as a commutator quotient on the rho^s geometry.

    At s = 1/2 the cross-exchange term vanishes identically and is
    short-circuited to exactly 0.
    """
    IA, IB, num, omega, quad, sign = _skew_parts(A, B, rho, s, tol)
    den = 1 + omega - 0.25 * quad
    if abs(den) < tol.tol_residual:
        raise DegenerateDenominator(f"denominator {den:.3e} within tolerance of 0")
    lhs = math.sqrt(IA * IB)
    rhs = num / den
    return EqualityReport(
        lhs=lhs,
        rhs=rhs,
        residual=lhs - rhs,
        commutator_term=num,
        correction_term=den,
        sign_choice=sign,
    )


def skew_product_correction_identity(
    A, B, rho: DensityOperator, s: float, tol: Tolerances = DEFAULT_TOL
) -> EqualityReport:
    """Independent residual check on the quadratic-form trace identity.

    Verifies (1/2) Tr[(xi + eta)(I - rho^(1-s))] against 2 + 2*Omega minus the
    commutator quotient, i.e. the raw identity the product equality is
    rearranged from.
    """
    IA, IB, num, omega, quad, sign = _skew_parts(A, B, rho, s, tol)
    lhs = 0.5 * quad
    rhs = 2 + 2 * omega - 2 * num / math.sqrt(IA * IB)
    return EqualityReport(
        lhs=lhs,
        rhs=rhs,
        residual=lhs - rhs,
        commutator_term=num,
        correction_term=omega,
        sign_choice=sign,
    )


def deviation_skew_chain(A, B, rho: DensityOperator, s: float, tol: Tolerances = DEFAULT_TOL):
    """Ordered chain: <dA><dB> >= sqrt(I(A)I(B)) >= commutator bound.

    Hermitian operators only; the bound is the Hermitian specialization of
    the skew product equality at the given s, so the second inequality is an
    equality up to round-off.
    """
    A = require_hermitian(A, tol)
    B = require_hermitian(B, tol)
    vv = std_dev(A, rho, tol) * std_dev(B, rho, tol)
    IA = wyd_skew(A, rho, 0.5, tol)
    IB = wyd_skew(B, rho, 0.5, tol)
    if IA <= tol.tol_residual or IB <= tol.tol_residual:
        raise ZeroSkew("chain needs nonzero skew informations")
    ss = math.sqrt(IA * IB)
    bound = skew_product_equality(A, B, rho, s, tol).rhs
    return vv, ss, bound


def intelligent_state_check(
    A, B, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Whether rho saturates the sum equality's correction term at zero.

    Checks sqrt(rho) M^dag |phi_i> = 0 = sqrt(rho) N |phi_i> over the
    computational basis under the chosen sign branch.  Informational only.
    """
    A, B = as_operator(A), as_operator(B, dim=np.asarray(A).shape[0])
    r = rho.matrix
    sign = _pick_sign(_commutator_average(A, B, r), tol)
    M = _centered(A - sign * 1j * B, r)
    N = _centered(A + sign * 1j * B, r)
    sq = matrix_power(rho, 0.5)
    lim = math.sqrt(tol.tol_residual)
    return bool(
        np.all(np.linalg.norm(sq @ M.conj().T, axis=0) < lim)
        and np.all(np.linalg.norm(sq @ N, axis=0) < lim)
    )
