"""Weak-value reconstruction of skew information.

The bilinear form <Phi~^s| H_A^2 |Phi~^(1-s)> expands over any product basis
|a_i a_j*> of the doubled space into weak values of H_A with pre-selections
Phi^s, Phi^(1-s) and post-selections |a_i a_j*>, weighted by the overlap
coefficients.  Summing the (complex) table reproduces the skew information
exactly, with vanishing total imaginary part.

With U the matrix of basis columns a_i, <a_i a_j*|vec(M)> = (U^H M U)[i, j],
so every table is one such product: the weights are U^H rho^s U and the
numerators <a_i a_j*|H_A|Phi~^s> are U^H [A, rho^s] U / sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, NotOrthonormal, OrthogonalSelection
from .linalg import (
    DEFAULT_TOL, DensityOperator, Tolerances, as_operator, matrix_power, require_hermitian,
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
    if basis is None:
        return np.eye(d, dtype=complex)
    U = np.column_stack([np.asarray(b, dtype=complex).ravel() for b in basis])
    if U.shape != (d, d):
        raise DomainError(f"need {d} basis vectors of dimension {d}")
    defect = np.max(np.abs(U.conj().T @ U - np.eye(d)))
    if defect > 1e-9:
        raise NotOrthonormal(f"basis orthonormality defect {defect:.3e}")
    return U


def reconstruct_skew(
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
    vanishes, both to working precision.
    """
    if not 0 < s < 1:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    A = require_hermitian(A, tol)
    U = _check_basis(basis, rho.dim)
    P, Q = matrix_power(rho, s), matrix_power(rho, 1 - s)
    Uh = U.conj().T
    weights_s, weights_1ms = Uh @ P @ U, Uh @ Q @ U
    # <a_i a_j*|H_A|Phi~^s> and likewise for 1-s
    T_s = Uh @ (A @ P - P @ A) @ U / math.sqrt(2)
    T_1ms = Uh @ (A @ Q - Q @ A) @ U / math.sqrt(2)
    # pre-cancellation form: the weights cancel the weak-value denominators,
    # so each summand is overlap-free
    total = np.sum(T_s.conj() * T_1ms)
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
    return ReconstructionResult(value=float(total.real), imag_residual=abs(total.imag), table=table)


class SubsystemReport(NamedTuple):
    factorization_residual: float
    conjugation_residual: float
    entries_checked: int


def subsystem_weak_values(
    A,
    rho: DensityOperator,
    s: float,
    basis: Optional[Sequence] = None,
    tol: Tolerances = DEFAULT_TOL,
    tol_overlap: float = TOL_OVERLAP,
) -> SubsystemReport:
    """Check that doubled-space weak values collapse to single-system ones.

    Measuring |a_j*> on the second factor collapses the preselection to the
    partial overlap phi^j; the weak value of A (x) I then equals the
    single-system weak value with that preselection, and the weak value of
    I (x) A^T equals the conjugate with indices swapped.  Returns the maximum
    entrywise residual of each identity.
    """
    if not 0 < s < 1:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    A = require_hermitian(A, tol)
    d = rho.dim
    U = _check_basis(basis, d)
    P = matrix_power(rho, s)  # Phi~^s = vec(P)
    Uh = U.conj().T
    ov = Uh @ P @ U
    # <a_i a_j*|(A (x) I)|Phi~^s> and <a_i a_j*|(I (x) A^T)|Phi~^s>, since
    # these operators map vec(P) to vec(A P) and vec(P A)
    num_f = Uh @ (A @ P) @ U
    num_c = Uh @ (P @ A) @ U
    res_f = 0.0
    res_c = 0.0
    checked = 0
    for i in range(d):
        for j in range(d):
            if abs(ov[i, j]) <= tol_overlap:
                continue
            # collapsed preselection: <a_j*| applied to the second factor
            phi_j = P @ U[:, j]
            nj = np.linalg.norm(phi_j)
            if nj <= tol_overlap:
                continue
            rhs_f = weak_value(A, phi_j / nj, U[:, i], tol_overlap)
            res_f = max(res_f, abs(num_f[i, j] / ov[i, j] - rhs_f))
            phi_i = P @ U[:, i]
            ni = np.linalg.norm(phi_i)
            if ni <= tol_overlap:
                continue
            rhs_c = np.conj(weak_value(A, phi_i / ni, U[:, j], tol_overlap))
            res_c = max(res_c, abs(num_c[i, j] / ov[i, j] - rhs_c))
            checked += 1
    return SubsystemReport(
        factorization_residual=res_f,
        conjugation_residual=res_c,
        entries_checked=checked,
    )
