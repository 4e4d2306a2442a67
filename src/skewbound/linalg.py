"""Dense complex linear algebra substrate.

Everything downstream works with plain ``numpy`` complex matrices; the only
wrapped type is :class:`DensityOperator`, which validates a state once and
caches its spectral decomposition.  Conventions used throughout the package:

* vectors on a doubled space ``H (x) H`` are row-major vec(X) = ``X.ravel()``
  of d x d matrices, so ``np.kron(u, v)`` is vec(``outer(u, v)``),
  ``(A (x) I) vec X = vec(A X)`` and ``(I (x) B) vec X = vec(X B^T)``;
* ``|psi*>`` means entrywise complex conjugation in the computational basis;
* eigenvalues are always returned ascending, eigenvector phases are fixed by
  making the largest-magnitude component real and positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    NotHermitian,
    StateValidationError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "DensityOperator",
    "as_operator",
    "hermitian_eigen",
    "density",
    "pure_state",
    "maximally_mixed",
    "matrix_power",
    "sqrt_trace",
    "partial_trace_second",
    "random_density",
    "random_operator",
    "random_hermitian",
    "haar_unitary",
    "random_pure_vector",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used by validation and residual checks.

    Defaults are comfortable for double-precision eigensolvers at the
    dimensions this package targets (d <= ~64).
    """

    tol_herm: float = 1e-10
    tol_trace: float = 1e-10
    tol_psd: float = 1e-10
    tol_recon: float = 1e-9
    tol_residual: float = 1e-8

    def __post_init__(self):
        for name in ("tol_herm", "tol_trace", "tol_psd", "tol_recon", "tol_residual"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative")


DEFAULT_TOL = Tolerances()


def as_operator(M, dim=None) -> np.ndarray:
    """Coerce ``M`` to a square complex matrix with finite entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise StateValidationError("matrix contains non-finite entries")
    if dim is not None and A.shape[0] != dim:
        raise DimensionMismatch(f"expected dim {dim}, got {A.shape[0]}")
    return A


def _fix_phases(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    V = V.copy()
    idx = np.argmax(np.abs(V), axis=0)
    for c, r in enumerate(idx):
        z = V[r, c]
        if abs(z) > 0:
            V[:, c] *= np.conj(z) / abs(z)
    return V


def require_hermitian(M, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """``M`` as a complex matrix; NotHermitian unless max|M - M^dag| is at
    most tol_herm * max(1, max|M|).  The limit is relative above unit scale
    because rounding leaves a defect proportional to the entries."""
    A = as_operator(M)
    defect = np.max(np.abs(A - A.conj().T))
    limit = tol.tol_herm * max(1.0, float(np.max(np.abs(A))))
    if defect > limit:
        raise NotHermitian(f"max|M - M^dag| = {defect:.3e} > {limit:.3e}")
    return A


def hermitian_eigen(M, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    orthonormal eigenvector columns, phase-fixed for reproducibility.  The
    basis inside a degenerate eigenspace is deterministic for a fixed input
    but otherwise arbitrary; callers must not rely on it.
    """
    A = require_hermitian(M, tol)
    A = (A + A.conj().T) / 2
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceFailure(str(exc)) from exc
    return w, _fix_phases(V)


@dataclass(frozen=True)
class DensityOperator:
    """Validated quantum state with cached spectral decomposition.

    ``eigenvalues`` are ascending and clamped to [0, 1]; entries at or below
    ``tol_psd`` are exactly 0, so fractional powers obey the 0**s = 0
    convention for free.  Treat all fields as immutable.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def power(self, s: float) -> np.ndarray:
        """See :func:`matrix_power`."""
        return matrix_power(self, s)

    def purity(self) -> float:
        return float(np.sum(self.eigenvalues**2))


def density(matrix, tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    """Validate a matrix as a density operator.

    Checks Hermiticity, unit trace, positivity (within ``tol_psd``) and that
    the cached spectral decomposition reconstructs the input.
    """
    A = as_operator(matrix)
    tr = np.trace(A)
    if abs(tr - 1) > tol.tol_trace:
        raise StateValidationError(f"|Tr rho - 1| = {abs(tr - 1):.3e} > {tol.tol_trace:.3e}")
    w, V = hermitian_eigen(A, tol)
    if w[0] < -tol.tol_psd:
        raise StateValidationError(f"negative eigenvalue {w[0]:.3e} below -{tol.tol_psd:.3e}")
    w = np.clip(w, 0.0, 1.0)
    w[w <= tol.tol_psd] = 0.0
    recon = (V * w) @ V.conj().T
    defect = np.max(np.abs(A - recon))
    if defect > tol.tol_recon:
        raise StateValidationError(f"reconstruction defect {defect:.3e} > {tol.tol_recon:.3e}")
    return DensityOperator(matrix=A, eigenvalues=w, eigenvectors=V)


def pure_state(vec, tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    """Density operator |psi><psi| of a (normalized on entry) state vector."""
    v = np.asarray(vec, dtype=complex).ravel()
    n = np.linalg.norm(v)
    if n == 0:
        raise StateValidationError("zero vector")
    v = v / n
    return density(np.outer(v, v.conj()), tol)


def maximally_mixed(dim: int) -> DensityOperator:
    return density(np.eye(dim, dtype=complex) / dim)


def matrix_power(rho: DensityOperator, s: float) -> np.ndarray:
    """Fractional power ``rho**s`` for 0 < s <= 1, with 0**s = 0.

    Returned as ``sum_i lambda_i**s |i><i|`` over the cached eigenbasis;
    Hermitian and PSD by construction.
    """
    if not 0 < s <= 1:
        raise DomainError(f"s must lie in (0, 1], got {s}")
    w = np.where(rho.eigenvalues > 0, rho.eigenvalues, 0.0) ** s
    V = rho.eigenvectors
    return (V * w) @ V.conj().T


def sqrt_trace(rho: DensityOperator) -> float:
    """Tr sqrt(rho) = sum_i sqrt(lambda_i)."""
    return float(np.sum(np.sqrt(rho.eigenvalues)))


def partial_trace_second(M, dims) -> np.ndarray:
    """Trace out the second factor of a matrix on a (dA*dB)-dim space."""
    dA, dB = dims
    A = as_operator(M)
    if A.shape[0] != dA * dB:
        raise DimensionMismatch(f"dim {A.shape[0]} != {dA}*{dB}")
    return np.einsum("pqrq->pr", A.reshape(dA, dB, dA, dB))


def _rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_density(dim: int, rank: int, seed) -> DensityOperator:
    """Hilbert-Schmidt-distributed state of given rank (Ginibre construction).

    Deterministic under a fixed integer seed; also accepts a Generator.
    """
    if not 1 <= rank <= dim:
        raise DomainError(f"rank must lie in [1, {dim}], got {rank}")
    rng = _rng(seed)
    G = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    M = G @ G.conj().T
    return density(M / np.trace(M).real)


def random_operator(dim: int, seed) -> np.ndarray:
    """Ginibre matrix; generic non-Hermitian test operator."""
    rng = _rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_hermitian(dim: int, seed) -> np.ndarray:
    M = random_operator(dim, seed)
    return (M + M.conj().T) / 2


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a Ginibre matrix."""
    rng = _rng(seed)
    Q, R = np.linalg.qr(random_operator(dim, rng))
    ph = np.diagonal(R).copy()
    ph = np.where(np.abs(ph) > 0, ph / np.abs(ph), 1.0)
    return Q * ph


def random_pure_vector(dim: int, seed) -> np.ndarray:
    rng = _rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)
