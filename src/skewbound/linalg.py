"""Dense complex linear algebra substrate.

Everything downstream works with plain ``numpy`` complex matrices; the only
wrapped type is :class:`DensityOperator`, which validates a state once and
caches its spectral decomposition.  Conventions used throughout the package:

* vectors on a doubled space ``H (x) H`` are row-major vec(X) = ``X.ravel()``
  of d x d matrices, so ``np.kron(u, v)`` is vec(``outer(u, v)``),
  ``(A (x) I) vec X = vec(A X)`` and ``(I (x) B) vec X = vec(X B^T)``;
* ``|psi*>`` means entrywise complex conjugation in the computational basis;
* eigenvalues are always returned ascending; eigenvector phases are LAPACK's
  and no result depends on them: consumers use projectors, ``V diag(w) V^H``
  or moduli of matrix elements in the eigenbasis;
* many states of one dimension may be validated together as a
  :class:`DensityStack`, whose arrays carry a leading axis of states; the
  state functions written on ``(..., d, d)`` arrays then give one value per
  state, computed slice by slice exactly as for a single state;
* a :func:`rowwise` function evaluates one case per state of a stack, with
  operators and parameters shared or given per state along the same axis;
  a single state runs as the stack of one.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
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
    "DensityStack",
    "as_operator",
    "hermitian_eigen",
    "density",
    "density_stack",
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
            if not getattr(self, name) >= 0:  # NaN fails every comparison
                raise DomainError(f"{name} must be nonnegative")


DEFAULT_TOL = Tolerances()


def as_operator(M, dim=None) -> np.ndarray:
    """Coerce ``M`` to a square complex matrix with finite entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    return _operators(A, dim)


def _operators(M, dim=None, tol=None) -> np.ndarray:
    """``M`` as a complex matrix or ``(..., d, d)`` stack with finite entries,
    each Hermitian as :func:`require_hermitian` checks it if ``tol`` is given."""
    A = np.asarray(M, dtype=complex)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise StateValidationError("matrix contains non-finite entries")
    if dim is not None and A.shape[-1] != dim:
        raise DimensionMismatch(f"expected dim {dim}, got {A.shape[-1]}")
    if tol is not None:
        _check_hermitian(A, tol)
    return A


def _dagger(A: np.ndarray) -> np.ndarray:
    """A^dag of a matrix, or of each matrix of a stack."""
    return A.conj().swapaxes(-1, -2)


def _trace(A: np.ndarray):
    """Tr A of a matrix, or of each matrix of a stack."""
    return np.trace(A, axis1=-2, axis2=-1)


def _check_hermitian(A: np.ndarray, tol: Tolerances) -> None:
    """NotHermitian unless every matrix M of the ``(..., d, d)`` stack ``A`` has
    max|M - M^dag| at most tol_herm * max(1, max|M|); the first failing matrix
    is reported.  The limit is relative above unit scale because rounding
    leaves a defect proportional to the entries."""
    defect = np.max(np.abs(A - A.conj().swapaxes(-1, -2)), axis=(-2, -1))
    limit = tol.tol_herm * np.maximum(1.0, np.max(np.abs(A), axis=(-2, -1)))
    bad = np.flatnonzero(defect > limit)
    if bad.size:
        i = bad[0]
        raise NotHermitian(f"max|M - M^dag| = {defect.flat[i]:.3e} > {limit.flat[i]:.3e}")


def require_hermitian(M, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """``M`` as a complex matrix; NotHermitian unless max|M - M^dag| is at
    most tol_herm * max(1, max|M|)."""
    A = as_operator(M)
    _check_hermitian(A, tol)
    return A


def _eigh(A: np.ndarray):
    """Stacked ``eigh`` of the Hermitian parts of a ``(..., d, d)`` stack."""
    try:
        return np.linalg.eigh((A + A.conj().swapaxes(-1, -2)) / 2)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceFailure(str(exc)) from exc


def hermitian_eigen(M, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    orthonormal eigenvector columns.  Column phases, and the basis inside a
    degenerate eigenspace, are deterministic for a fixed input but otherwise
    arbitrary; callers must not rely on them.
    """
    return _eigh(require_hermitian(M, tol))


@dataclass(frozen=True, eq=False)
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
        return self.matrix.shape[-1]

    def power(self, s: float) -> np.ndarray:
        """See :func:`matrix_power`."""
        return matrix_power(self, s)

    def purity(self) -> float:
        return float(np.sum(self.eigenvalues**2))


@dataclass(frozen=True, eq=False)
class DensityStack:
    """N validated states of one dimension, from :func:`density_stack`.

    The fields are those of :class:`DensityOperator` with a leading axis of
    length N.  :func:`matrix_power`, ``bounds.bound_wy``, ``bounds.bound_wyd``
    and the :func:`rowwise` functions accept a stack and return one result
    per state: the state functions of ``moments``, the identities of
    ``equalities`` (not the chain or the intelligent-state check), those of
    ``qubit`` that take one state, and ``weakvalue``'s reconstruction and
    subsystem check.  Iterating yields the single states.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def purity(self) -> np.ndarray:
        return np.sum(self.eigenvalues**2, axis=-1)

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __iter__(self):
        for M, w, V in zip(self.matrix, self.eigenvalues, self.eigenvectors):
            yield DensityOperator(matrix=M, eigenvalues=w, eigenvectors=V)


def _validated(A: np.ndarray, tol: Tolerances):
    """Eigenvalues and eigenvectors of a ``(N, d, d)`` stack of density matrices.

    Checks unit trace, Hermiticity, positivity (within ``tol_psd``) and that
    the decomposition reconstructs each input, with one stacked ``eigh``; a
    failed check reports the worst state's value.
    """
    err = np.max(np.abs(np.trace(A, axis1=-2, axis2=-1) - 1))
    if err > tol.tol_trace:
        raise StateValidationError(f"|Tr rho - 1| = {err:.3e} > {tol.tol_trace:.3e}")
    _check_hermitian(A, tol)
    w, V = _eigh(A)
    low = np.min(w[:, 0])
    if low < -tol.tol_psd:
        raise StateValidationError(f"negative eigenvalue {low:.3e} below -{tol.tol_psd:.3e}")
    w = np.clip(w, 0.0, 1.0)
    w[w <= tol.tol_psd] = 0.0
    defect = np.max(np.abs(A - (V * w[:, None, :]) @ V.conj().swapaxes(-1, -2)))
    if defect > tol.tol_recon:
        raise StateValidationError(f"reconstruction defect {defect:.3e} > {tol.tol_recon:.3e}")
    return w, V


def density(matrix, tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    """Validate a matrix as a density operator.

    Checks Hermiticity, unit trace, positivity (within ``tol_psd``) and that
    the cached spectral decomposition reconstructs the input: the one-state
    case of :func:`density_stack`.
    """
    A = as_operator(matrix)
    w, V = _validated(A[None], tol)
    return DensityOperator(matrix=A, eigenvalues=w[0], eigenvectors=V[0])


def density_stack(matrices, tol: Tolerances = DEFAULT_TOL) -> DensityStack:
    """Validate N same-size matrices as density operators with one stacked
    ``eigh``; each state passes the checks of :func:`density` and gets the
    decomposition it would get alone."""
    A = np.asarray(matrices, dtype=complex)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise StateValidationError("matrix contains non-finite entries")
    w, V = _validated(A, tol)
    return DensityStack(matrix=A, eigenvalues=w, eigenvectors=V)


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
    Hermitian and PSD by construction.  A :class:`DensityStack` gives the
    stack of powers, with one s for all or one per state.
    """
    w = _power(np.where(rho.eigenvalues > 0, rho.eigenvalues, 0.0), _exponents(s, closed=True))
    V = rho.eigenvectors
    return (V * w[..., None, :]) @ V.conj().swapaxes(-1, -2)


def _exponents(s, closed: bool = False):
    """s as a float array; DomainError unless each entry lies in (0, 1), or
    in (0, 1] if ``closed``, naming the first that does not."""
    s = np.asarray(s, dtype=float)
    bad = ~((0 < s) & ((s <= 1) if closed else (s < 1)))
    if bad.any():
        raise DomainError(f"s must lie in (0, 1{']' if closed else ')'}, got {s[bad][0]}")
    return s


def _power(w: np.ndarray, s) -> np.ndarray:
    """w ** s for a (..., d) stack of spectra and one s for all or per
    spectrum, each entry as numpy's power by a float s gives it (s = 1/2 is
    sqrt): the exponents are spread to w's shape, so that one power loop
    takes every entry and each spectrum gets the powers it gets alone."""
    e = np.zeros_like(w) + np.asarray(s)[..., None]
    return np.where(e == 0.5, np.sqrt(w), w ** e)


class _Rows:
    """The per-state outcome of a stacked evaluation: ``ok`` marks the states
    that passed every check so far, and ``first`` is (state, error) of the
    first failing state, with the error that state meets first alone."""

    def __init__(self, n: int):
        self.ok = np.ones(n, dtype=bool)
        self.first = None

    def reject(self, bad, error, message: str, value=None) -> None:
        """Fail the states where ``bad``; ``message`` formats the state's
        entry of ``value`` into its ``{}``, if given."""
        _one_case_per_state(bad, len(self.ok))
        new = np.flatnonzero(self.ok & bad)
        if new.size and (self.first is None or new[0] < self.first[0]):
            i = new[0]
            self.first = (i, error(message if value is None else message.format(value[i])))
        self.ok &= ~bad


def _one_case_per_state(x: np.ndarray, n: int) -> None:
    if len(x) != n:
        raise DimensionMismatch(f"{len(x)} cases for {n} states")


def _row0(x):
    """Row 0 of every array in a stacked result: a single state's result."""
    if isinstance(x, np.ndarray):
        _one_case_per_state(x, 1)
        return x[0]
    if dataclasses.is_dataclass(x):
        return dataclasses.replace(x, **{f.name: _row0(getattr(x, f.name))
                                          for f in dataclasses.fields(x)})
    if isinstance(x, tuple):
        return type(x)(*map(_row0, x)) if hasattr(x, "_fields") else tuple(map(_row0, x))
    return x


def rowwise(core):
    """The public function of a row core ``core(rows, ..., rho, ...)``, which
    evaluates each state of the DensityStack ``rho`` and records the states
    that fail a check in ``rows`` (a :class:`_Rows`).

    The public function takes the other arguments, runs a DensityOperator as
    the stack of one, and raises the first failing state's error (naming the
    state for a stack).  ``public.rows(...)`` returns ``(result, ok)`` for a
    stack without raising; ``public.core`` is the core.
    """
    sig = inspect.signature(core)
    at = list(sig.parameters).index("rho") - 1  # rho's position after rows

    def run(args, kwargs):
        positional = len(args) > at
        rho = args[at] if positional else kwargs["rho"]
        single = isinstance(rho, DensityOperator)
        if single:
            rho = DensityStack(rho.matrix[None], rho.eigenvalues[None], rho.eigenvectors[None])
            if positional:
                args = args[:at] + (rho,) + args[at + 1:]
            else:
                kwargs = {**kwargs, "rho": rho}
        rows = _Rows(len(rho))
        with np.errstate(divide="ignore", invalid="ignore"):  # on failing states
            return core(rows, *args, **kwargs), rows, single

    @functools.wraps(core)
    def public(*args, **kwargs):
        out, rows, single = run(args, kwargs)
        if rows.first is not None:
            i, error = rows.first
            raise error if single else type(error)(f"state {i}: {error}")
        return _row0(out) if single else out

    def stacked(*args, **kwargs):
        out, rows, _ = run(args, kwargs)
        return out, rows.ok

    public.rows, public.core = stacked, core
    public.__signature__ = sig.replace(parameters=list(sig.parameters.values())[1:])
    return public


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


def _ginibre(raw: np.ndarray) -> np.ndarray:
    """Complex Ginibre matrices of raw normals (..., 2, m, n): real parts first."""
    return raw[..., 0, :, :] + 1j * raw[..., 1, :, :]


def _hermitians(raw: np.ndarray) -> np.ndarray:
    """The Hermitian parts (M + M^dag)/2 of the Ginibre matrices of ``raw``."""
    M = _ginibre(raw)
    return (M + _dagger(M)) / 2


def _haar_unitaries(raw: np.ndarray) -> np.ndarray:
    """Haar unitaries of raw normals (..., 2, d, d): the phase-corrected Q
    factors of their Ginibre matrices, from one stacked QR."""
    Q, R = np.linalg.qr(_ginibre(raw))
    ph = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * np.where(np.abs(ph) > 0, ph / np.abs(ph), 1.0)[..., None, :]


def _ginibre_states(raws) -> np.ndarray:
    """(N, d, d) unvalidated Hilbert-Schmidt states G G^dag / Tr of the Ginibre
    matrices G of N raw draws (2, d, rank), any ranks; the states of one rank
    are built as one stack."""
    M = np.empty((len(raws),) + raws[0].shape[1:2] * 2, dtype=complex)
    for r in {raw.shape[-1] for raw in raws}:
        at = [i for i, raw in enumerate(raws) if raw.shape[-1] == r]
        G = _ginibre(np.array([raws[i] for i in at]))
        S = G @ _dagger(G)
        M[at] = S / _trace(S).real[..., None, None]
    return M


def random_density(dim: int, rank: int, seed) -> DensityOperator:
    """Hilbert-Schmidt-distributed state of given rank (Ginibre construction).

    Deterministic under a fixed integer seed; also accepts a Generator.
    """
    if not 1 <= rank <= dim:
        raise DomainError(f"rank must lie in [1, {dim}], got {rank}")
    return density(_ginibre_states([_rng(seed).normal(size=(2, dim, rank))])[0])


def random_operator(dim: int, seed) -> np.ndarray:
    """Ginibre matrix; generic non-Hermitian test operator."""
    return _ginibre(_rng(seed).normal(size=(2, dim, dim)))


def random_hermitian(dim: int, seed) -> np.ndarray:
    return _hermitians(_rng(seed).normal(size=(2, dim, dim)))


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a Ginibre matrix."""
    return _haar_unitaries(_rng(seed).normal(size=(2, dim, dim)))


def random_pure_vector(dim: int, seed) -> np.ndarray:
    v = _ginibre(_rng(seed).normal(size=(2, dim, 1)))[:, 0]
    return v / np.linalg.norm(v)
