"""Weak-value reconstruction of skew information.

The bilinear form <Phi~^s| H_A^2 |Phi~^(1-s)> expands over any product basis
|a_i a_j*> of the doubled space into weak values of H_A with pre-selections
Phi^s, Phi^(1-s) and post-selections |a_i a_j*>, weighted by the overlap
coefficients.  Summing the (complex) table reproduces the skew information
exactly, with vanishing total imaginary part.

With U the matrix of basis columns a_i, <a_i a_j*|vec(M)> = (U^H M U)[i, j],
so every table is one such product: the weights are U^H rho^s U and the
numerators <a_i a_j*|H_A|Phi~^s> are U^H [A, rho^s] U / sqrt(2).  The
subsystem check compares such a table with the single-system weak values of
all collapsed preselections at once, masked where an overlap vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, NotOrthonormal, OrthogonalSelection
from .linalg import (
    DEFAULT_TOL, DensityOperator, Tolerances, _dagger, _exponents, _operators,
    as_operator, matrix_power, rowwise,
)

__all__ = [
    "TOL_OVERLAP",
    "weak_value",
    "WeakValueTable",
    "ReconstructionResult",
    "reconstruct_skew",
    "SubsystemReport",
    "subsystem_weak_values",
]

TOL_OVERLAP = 1e-12


def weak_value(op, pre, post, tol_overlap: float = TOL_OVERLAP) -> complex:
    """<post|op|pre> / <post|pre>; complex in general."""
    A = as_operator(op)
    u = np.asarray(pre, dtype=complex).ravel()
    v = np.asarray(post, dtype=complex).ravel()
    if u.size != A.shape[0] or v.size != A.shape[0]:
        raise DimensionMismatch("pre/post dimensions do not match the operator")
    ov = np.vdot(v, u)
    if abs(ov) <= tol_overlap:
        raise OrthogonalSelection(f"|<post|pre>| = {abs(ov):.3e} below tolerance")
    return complex(np.vdot(v, A @ u) / ov)


@dataclass(frozen=True)
class WeakValueTable:
    """Per-postselection weak values and weights for both preselections.

    ``defined[i, j]`` is False where an overlap fell below tolerance; those
    summands were evaluated in the pre-cancellation form (the overlap factors
    cancel identically, so the singularity is removable) and the weak-value
    entries are left NaN rather than silently zeroed.
    """

    values_s: np.ndarray
    values_1ms: np.ndarray
    weights_s: np.ndarray
    weights_1ms: np.ndarray
    defined: np.ndarray


class ReconstructionResult(NamedTuple):
    value: float
    imag_residual: float
    table: WeakValueTable


def _check_basis(basis, d: int) -> np.ndarray:
    """The matrix U of basis columns, or the (N, d, d) stack of U for a
    basis of d vectors each given as a (N, d) stack of one per state."""
    if basis is None:
        return np.eye(d, dtype=complex)
    vectors = [np.asarray(b, dtype=complex) for b in basis]
    U = np.stack([v if v.ndim == 2 and v.shape[-1] == d else v.ravel() for v in vectors], -1)
    if U.shape[-2:] != (d, d):
        raise DomainError(f"need {d} basis vectors of dimension {d}")
    defect = np.max(np.abs(_dagger(U) @ U - np.eye(d)))
    if defect > 1e-9:
        raise NotOrthonormal(f"basis orthonormality defect {defect:.3e}")
    return U


@rowwise
def reconstruct_skew(
    rows,
    A,
    rho: DensityOperator,
    s: float,
    basis: Optional[Sequence] = None,
    tol: Tolerances = DEFAULT_TOL,
    tol_overlap: float = TOL_OVERLAP,
) -> ReconstructionResult:
    """Rebuild I^s_rho(A) from the weak-value table of H_A.

    ``basis`` gives the postselection basis of the first factor (defaults to
    computational); the second factor uses its entrywise conjugates.  The
    reconstruction matches the direct definition and the total imaginary part
    vanishes, both to working precision.  A stack takes the observable, s
    and the basis shared by all states or given one per state.
    """
    s = _exponents(s)
    A = _operators(A, rho.dim, tol)
    U = _check_basis(basis, rho.dim)
    P, Q = matrix_power(rho, s), matrix_power(rho, 1 - s)
    Uh = _dagger(U)
    weights_s, weights_1ms = Uh @ P @ U, Uh @ Q @ U
    # <a_i a_j*|H_A|Phi~^s> and likewise for 1-s
    T_s = Uh @ (A @ P - P @ A) @ U / math.sqrt(2)
    T_1ms = Uh @ (A @ Q - Q @ A) @ U / math.sqrt(2)
    # pre-cancellation form: the weights cancel the weak-value denominators,
    # so each summand is overlap-free
    total = np.sum(T_s.conj() * T_1ms, axis=(-2, -1))
    defined = (np.abs(weights_s) > tol_overlap) & (np.abs(weights_1ms) > tol_overlap)
    values_s = np.full_like(T_s, np.nan)
    values_1ms = np.full_like(T_1ms, np.nan)
    values_s[defined] = T_s[defined] / weights_s[defined]
    values_1ms[defined] = T_1ms[defined] / weights_1ms[defined]
    table = WeakValueTable(
        values_s=values_s,
        values_1ms=values_1ms,
        weights_s=weights_s,
        weights_1ms=weights_1ms,
        defined=defined,
    )
    return ReconstructionResult(value=total.real, imag_residual=np.abs(total.imag), table=table)


class SubsystemReport(NamedTuple):
    factorization_residual: float
    conjugation_residual: float
    entries_checked: int


@rowwise
def subsystem_weak_values(
    rows,
    A,
    rho: DensityOperator,
    s: float,
    basis: Optional[Sequence] = None,
    tol: Tolerances = DEFAULT_TOL,
    tol_overlap: float = TOL_OVERLAP,
) -> SubsystemReport:
    """Check that doubled-space weak values collapse to single-system ones.

    Measuring |a_j*> on the second factor collapses the preselection to the
    partial overlap phi^j = rho^s a_j; the weak value of A (x) I then equals
    the single-system weak value with that preselection, and the weak value
    of I (x) A^T equals the conjugate with indices swapped.  The single-system
    table is (U^H A Phi) / (U^H Phi) with Phi = rho^s U, a weak value being
    blind to the norm of its preselection.  Entries are checked where the
    overlap |<a_i a_j*|Phi~^s>| = |<a_i|phi^j>| exceeds ``tol_overlap``, and
    ``entries_checked`` counts them.  There phi^i and phi^j are nonzero too,
    as |<a_i|phi^j>| <= |phi^j| and the swapped overlap has the same modulus,
    and no selection is orthogonal even after normalizing: |phi^j| <= 1, so
    |<a_i|phi^j>| / |phi^j| > tol_overlap.  Returns the maximum entrywise
    residual of each identity.  A stack takes the observable, s and the
    basis shared by all states or given one per state.
    """
    s = _exponents(s)
    A = _operators(A, rho.dim, tol)
    U = _check_basis(basis, rho.dim)
    P = matrix_power(rho, s)  # Phi~^s = vec(P)
    Uh = _dagger(U)
    Phi = P @ U  # column j is the collapsed preselection phi^j
    ov = Uh @ Phi
    checked = np.abs(ov) > tol_overlap
    single = Uh @ A @ Phi / ov  # unchecked entries are masked below
    # <a_i a_j*|(A (x) I)|Phi~^s> and <a_i a_j*|(I (x) A^T)|Phi~^s> over
    # the overlap, since these operators map vec(P) to vec(A P) and vec(P A)
    res_f = np.abs(Uh @ (A @ P) @ U / ov - single)
    res_c = np.abs(Uh @ (P @ A) @ U / ov - _dagger(single))

    def worst(res):
        return np.max(np.where(checked, res, 0.0), axis=(-2, -1))

    return SubsystemReport(
        factorization_residual=worst(res_f),
        conjugation_residual=worst(res_c),
        entries_checked=np.count_nonzero(checked, axis=(-2, -1)),
    )
