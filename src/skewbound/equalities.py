"""Uncertainty equalities with explicit commutator terms.

Every operation evaluates both sides of an identity and returns an
:class:`EqualityReport`; a residual within ``tol_residual`` certifies the
identity on the given inputs.  The sign branch is always chosen so the
commutator term is nonnegative (ties resolved to +1).  The sign applies to
the *total* of the two commutator averages; mixed-sign components are not
split.

Each identity is computed once.  The product forms are the sum forms at
rescaled operators: ``product_equality_nontrivial`` is half the sum equality
at sqrt(<dB>/<dA>) A and sqrt(<dA>/<dB>) B, ``product_equality`` is the sum
equality at A/<dA> and B/<dB> rearranged into a quotient, and
``three_observable_product_equality`` is a third of the three-observable sum
at X_i sqrt(<dX1><dX2><dX3>)/<dX_i>.  Their signs are picked from the
unscaled operators.  The quotient forms (``product_equality``,
``skew_product_equality``) report rhs = num/den but take the residual on the
undivided identity, lhs*den - num.  The skew product equality is a set of
sums over rho's eigenbasis weighted by lambda^s and lambda^(1-s), the form
``moments`` evaluates the skew informations in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDenominator, ZeroDeviation, ZeroSkew
from .linalg import (
    DEFAULT_TOL, DensityOperator, Tolerances, _dagger, _operators, _power, _trace,
    matrix_power, require_hermitian, rowwise,
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


def _commutator_average(A: np.ndarray, B: np.ndarray, rho: np.ndarray):
    """<i([A^dag, B] + [A, B^dag])>_rho; real for any inputs."""
    Ah, Bh = _dagger(A), _dagger(B)
    C = (Ah @ B - B @ Ah) + (A @ Bh - Bh @ A)
    return (1j * _trace(C @ rho)).real


def _pick_sign(raw, tol: Tolerances):
    """+1 where raw > 0 or |raw| < tol_residual (a tie), else -1."""
    return np.where((raw > 0) | (np.abs(raw) < tol.tol_residual), 1, -1)


def _centered(X: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return X - _trace(X @ rho)[..., None, None] * np.eye(X.shape[-1])


def _report(lhs, commutator_term, correction_term, sign, rhs=None) -> EqualityReport:
    """rhs defaults to commutator_term + correction_term."""
    if rhs is None:
        rhs = commutator_term + correction_term
    return EqualityReport(lhs, rhs, lhs - rhs, commutator_term, correction_term, sign)


def _quotient_report(rows, lhs, num, den, sign, tol: Tolerances) -> EqualityReport:
    """lhs = num/den, reported with rhs = num/den and the residual of the
    undivided identity, lhs*den - num: num/den carries the rounding of num
    and den times 1/|den|, which near a small denominator exceeds
    tol_residual although the identity holds."""
    rows.reject(np.abs(den) < tol.tol_residual, DegenerateDenominator,
                "denominator {:.3e} within tolerance of 0", den)
    return EqualityReport(lhs, num / den, lhs * den - num, num, den, sign)


class _SumParts(NamedTuple):
    commutator: np.ndarray
    correction: np.ndarray
    M: np.ndarray
    N: np.ndarray


def _sum_parts(A: np.ndarray, B: np.ndarray, r: np.ndarray, sign) -> _SumParts:
    """Commutator term and quadratic remainder of <dA>^2 + <dB>^2 on the
    caller's sign branch, with the centered factors M = A - sign*i*B and
    N = A + sign*i*B.  The sign is the caller's so that rescaled operators
    keep the branch of the unscaled ones."""
    iB = B * (sign * 1j)[..., None, None]
    M = _centered(A - iB, r)
    N = _centered(A + iB, r)
    corr = 0.5 * (_trace(_dagger(M) @ M @ r) + _trace(N @ _dagger(N) @ r)).real
    return _SumParts(sign * 0.5 * _commutator_average(A, B, r), corr, M, N)


def _operator_pair(A, B, rho):
    return _operators(A, rho.dim), _operators(B, rho.dim)


def _deviations(rows, Xs, rho, tol: Tolerances) -> list:
    sd = [std_dev.core(rows, X, rho, tol) for X in Xs]
    rows.reject(np.min(sd, axis=0) <= tol.tol_residual, ZeroDeviation,
                "product equalities need nonzero deviations")
    return sd


@rowwise
def sum_equality(rows, A, B, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL) -> EqualityReport:
    """<dA>^2 + <dB>^2 decomposed into commutator and quadratic remainder.

    Holds for arbitrary operators and arbitrary mixed states.  Dropping the
    (nonnegative) correction term yields the derived inequality.
    """
    A, B = _operator_pair(A, B, rho)
    r = rho.matrix
    lhs = variance.core(rows, A, rho, tol) + variance.core(rows, B, rho, tol)
    sign = _pick_sign(_commutator_average(A, B, r), tol)
    q = _sum_parts(A, B, r, sign)
    return _report(lhs, q.commutator, q.correction, sign)


@rowwise
def product_equality(
    rows, A, B, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL
) -> EqualityReport:
    """<dA><dB> as a commutator quotient over normalized operators.

    The sum equality at (A/<dA>, B/<dB>), whose left side is 2: its
    commutator term times <dA><dB>/2 over 1 - correction/2.  Requires both
    deviations nonzero; raises DegenerateDenominator when the quadratic form
    eats the whole denominator (e.g. maximally mixed states), where the
    relation carries no content.
    """
    A, B = _operator_pair(A, B, rho)
    r = rho.matrix
    sA, sB = _deviations(rows, (A, B), rho, tol)
    sign = _pick_sign(_commutator_average(A, B, r), tol)
    q = _sum_parts(A / sA[..., None, None], B / sB[..., None, None], r, sign)
    return _quotient_report(
        rows, sA * sB, q.commutator * sA * sB / 2, 1 - q.correction / 2, sign, tol)


@rowwise
def product_equality_nontrivial(
    rows, A, B, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL
) -> EqualityReport:
    """Additive form of the product equality; stays useful at zero commutator.

    Half the sum equality at sqrt(<dB>/<dA>) A and sqrt(<dA>/<dB>) B, whose
    left side is 2<dA><dB>: commutator term + quadratic remainder.
    """
    A, B = _operator_pair(A, B, rho)
    r = rho.matrix
    sA, sB = _deviations(rows, (A, B), rho, tol)
    sign = _pick_sign(_commutator_average(A, B, r), tol)
    q = _sum_parts(A * np.sqrt(sB / sA)[..., None, None], B * np.sqrt(sA / sB)[..., None, None],
                   r, sign)
    return _report(sA * sB, q.commutator / 2, q.correction / 2, sign)


_PAIRS = ((0, 1), (1, 2), (2, 0))


def _pair_commutator(X: np.ndarray, Y: np.ndarray, r: np.ndarray):
    """Y_ij = (1/2)<i[X_i, X_j]>_rho of two Hermitian observables."""
    return 0.5 * (1j * _trace((X @ Y - Y @ X) @ r)).real


def _pair_signs(Xs, r, tol) -> list:
    """r_ij = sign(Y_ij) per cyclic pair, ties resolved to +1."""
    return [_pick_sign(_pair_commutator(Xs[i], Xs[j], r), tol) for i, j in _PAIRS]


def _three_parts(Xs, r, signs):
    """Pairwise commutator bracket and quadratic remainder of the
    three-variance sum on the caller's sign branches."""
    bracket = 0.0
    corr = 0.0
    for (i, j), rij in zip(_PAIRS, signs):
        bracket += rij * _pair_commutator(Xs[i], Xs[j], r)
        M = _centered(Xs[i], r) - _centered(Xs[j], r) * (1j * rij)[..., None, None]
        corr += 0.5 * _trace(_dagger(M) @ M @ r).real
    return bracket, corr


@rowwise
def three_observable_sum_equality(
    rows, X1, X2, X3, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL
) -> EqualityReport:
    """Sum of three variances split into pairwise commutators + remainder.

    The quadratic factors pair each centered observable with -i r times the
    next one; with that conjugate pairing the identity holds for either sign
    branch, and r_ij = sign(Y_ij) keeps the commutator bracket nonnegative.
    """
    Xs = [_operators(X, rho.dim, tol) for X in (X1, X2, X3)]
    r = rho.matrix
    lhs = sum(variance.core(rows, X, rho, tol) for X in Xs)
    bracket, corr = _three_parts(Xs, r, _pair_signs(Xs, r, tol))
    return _report(lhs, bracket, corr, np.ones_like(lhs, dtype=int))


@rowwise
def three_observable_product_equality(
    rows, X1, X2, X3, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL
) -> EqualityReport:
    """Product of three standard deviations: a third of the sum form at
    X_i sqrt(<dX1><dX2><dX3>)/<dX_i>, whose variances all equal that product
    squared.  The signs are those of the unscaled observables."""
    Xs = [_operators(X, rho.dim, tol) for X in (X1, X2, X3)]
    r = rho.matrix
    sd = _deviations(rows, Xs, rho, tol)
    lhs = sd[0] * sd[1] * sd[2]
    root = np.sqrt(lhs)
    scaled = [X * (root / s)[..., None, None] for X, s in zip(Xs, sd)]
    bracket, corr = _three_parts(scaled, r, _pair_signs(Xs, r, tol))
    return _report(lhs, bracket / 3, corr / 3, np.ones_like(lhs, dtype=int))


def _skew_parts(rows, A, B, rho, s, tol):
    """Shared pieces of the skew product equality as sums over rho's
    eigenbasis, with A~ = V^H A V, B~ = V^H B V, p = lambda^s, q = lambda^(1-s).

    The commutator less the cross-exchange traces is
    2 sum_ij (p_j - p_i + p_i q_j - q_i p_j) Im(conj(B~_ij) A~_ij), whose cross
    weight is exactly 0 at s = 1/2, where p and q are equal.  Omega is
    sum_ij (p_i + p_j - l_i - l_j)|A~_ij|^2/4I(A) plus the same for B, and the
    quadratic term is sum_ij |X_ij|^2 p_i (1 - q_j) + |Y_ij|^2 (1 - q_i) p_j
    with X, Y = A~/sqrt(I(A)) +- sign i B~/sqrt(I(B)).
    """
    A, B = _operator_pair(A, B, rho)
    IA, IB = wyd_skew.core(rows, A, rho, s, tol), wyd_skew.core(rows, B, rho, s, tol)
    rows.reject((IA <= tol.tol_residual) | (IB <= tol.tol_residual), ZeroSkew,
                "skew product equality needs nonzero skew informations")
    lam, V = rho.eigenvalues, rho.eigenvectors
    p, q = _power(lam, s), _power(lam, 1 - np.asarray(s, dtype=float))
    pi, pj, qi, qj = p[..., :, None], p[..., None, :], q[..., :, None], q[..., None, :]
    li, lj = lam[..., :, None], lam[..., None, :]
    At, Bt = _dagger(V) @ A @ V, _dagger(V) @ B @ V
    ij = (-2, -1)
    raw = 2 * np.sum((pj - pi + pi * qj - qi * pj) * (Bt.conj() * At).imag, axis=ij)
    sign = _pick_sign(raw, tol)
    # Omega in the eigenbasis wyd_skew takes I(A) and I(B) in, so that its
    # rounding cancels against theirs in the identity's residual
    omega = sum(np.sum((pi + pj - li - lj) * np.abs(Xt) ** 2, axis=ij) / (4 * I)
                for Xt, I in ((At, IA), (Bt, IB)))
    a, b = At / np.sqrt(IA)[..., None, None], Bt / np.sqrt(IB)[..., None, None]
    ib = b * (sign * 1j)[..., None, None]
    quad = np.sum(np.abs(a + ib) ** 2 * pi * (1 - qj) + np.abs(a - ib) ** 2 * (1 - qi) * pj,
                  axis=ij)
    return IA, IB, sign * raw / 4, omega, quad, sign


@rowwise
def skew_product_equality(
    rows, A, B, rho: DensityOperator, s: float, tol: Tolerances = DEFAULT_TOL
) -> EqualityReport:
    """sqrt(I^s(A) I^s(B)) as a commutator quotient on the rho^s geometry.

    At s = 1/2 the cross-exchange term vanishes identically: its weight is
    exactly 0.  A stack takes one s for all states or one per state.
    """
    IA, IB, num, omega, quad, sign = _skew_parts(rows, A, B, rho, s, tol)
    return _quotient_report(rows, np.sqrt(IA * IB), num, 1 + omega - 0.25 * quad, sign, tol)


@rowwise
def skew_product_correction_identity(
    rows, A, B, rho: DensityOperator, s: float, tol: Tolerances = DEFAULT_TOL
) -> EqualityReport:
    """Independent residual check on the quadratic-form trace identity.

    Verifies (1/2) Tr[(xi + eta)(I - rho^(1-s))] against 2 + 2*Omega minus the
    commutator quotient, i.e. the raw identity the product equality is
    rearranged from.
    """
    IA, IB, num, omega, quad, sign = _skew_parts(rows, A, B, rho, s, tol)
    rhs = 2 + 2 * omega - 2 * num / np.sqrt(IA * IB)
    return _report(0.5 * quad, num, omega, sign, rhs=rhs)


def deviation_skew_chain(A, B, rho: DensityOperator, s: float, tol: Tolerances = DEFAULT_TOL):
    """Ordered chain: <dA><dB> >= sqrt(I(A)I(B)) >= commutator bound.

    Hermitian operators only; I is the s = 1/2 skew information and the bound
    is the right side of the skew product equality at the given s, which
    equals sqrt(I^s(A) I^s(B)) up to round-off.  The second inequality is
    I^s <= I^(1/2), so it is an equality only at s = 1/2.
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
    A, B = _operator_pair(A, B, rho)
    r = rho.matrix
    q = _sum_parts(A, B, r, _pick_sign(_commutator_average(A, B, r), tol))
    sq = matrix_power(rho, 0.5)
    lim = math.sqrt(tol.tol_residual)
    return bool(
        np.all(np.linalg.norm(sq @ q.M.conj().T, axis=0) < lim)
        and np.all(np.linalg.norm(sq @ q.N, axis=0) < lim)
    )
