"""Standard deviation, skew information and the power-mean family.

All operations accept arbitrary (not necessarily Hermitian) operators; the
symmetrized definitions below reduce to the textbook ones on Hermitian input.
Every skew is sum_ij G_ij |A~_ij|^2 with A~ = V^dag A V in rho's eigenbasis,
its gaps G_ij (the arithmetic mean of the pair's eigenvalues less the family's
weight) formed >= 0 with no subtraction.  The state functions are
``linalg.rowwise``: a DensityStack gives one value per state, for one
operator or a stack of one per state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NegativeRadicand
from .linalg import (
    DEFAULT_TOL, DensityOperator, Tolerances, _dagger, _exponents, _operators, _power, _trace,
    as_operator, rowwise,
)

__all__ = [
    "MeanOrder",
    "as_mean_order",
    "generalized_mean",
    "HermitianSplit",
    "hermitian_split",
    "std_dev",
    "variance",
    "wyd_skew",
    "gen_skew",
    "fisher_information",
]


@dataclass(frozen=True)
class MeanOrder:
    """Order nu of the two-point power mean m_nu.

    ``nu = 0.0`` denotes the geometric-mean limit and ``nu = -inf`` the
    minimum; finite orders must be strictly negative.
    """

    nu: float

    def __post_init__(self):
        if math.isnan(self.nu) or self.nu > 0:
            raise DomainError(f"mean order must be <= 0, got {self.nu}")

    @classmethod
    def finite(cls, nu: float) -> "MeanOrder":
        if not (nu < 0 and math.isfinite(nu)):
            raise DomainError(f"finite order must be strictly negative, got {nu}")
        return cls(float(nu))

    @property
    def is_zero(self) -> bool:
        return self.nu == 0.0

    @property
    def is_min(self) -> bool:
        return math.isinf(self.nu)


def as_mean_order(order) -> MeanOrder:
    """Coerce a float (0, negative, or -inf) or MeanOrder to MeanOrder."""
    if isinstance(order, MeanOrder):
        return order
    return MeanOrder(float(order))


# Below this |nu| the closed form cancels catastrophically; switch to the
# second-order expansion around the geometric mean.
_NU_SERIES_CUTOFF = 1e-6

# largest (k, N, d, d) complex product of one _skew_kernel block of operators:
# past it, the temporaries of K operators on a large stack outgrow the L2 cache,
# and whether malloc hands them out already mapped depends on earlier calls
_BLOCK_BYTES = 2**18


def generalized_mean(x: float, y: float, order) -> float:
    """Power mean m_nu(x, y) of two positive numbers with equal weights.

    m_0 = sqrt(xy), m_{-inf} = min(x, y), otherwise
    ((x**nu + y**nu)/2)**(1/nu).  Monotone nonincreasing as nu decreases.
    Callers must pre-filter zero eigenvalues; see :func:`gen_skew`.
    """
    if x <= 0 or y <= 0:
        raise DomainError("generalized_mean requires strictly positive arguments")
    return float(_mean_weights(np.array([x, y], dtype=float), order, 0.0)[0, 1])


@dataclass(frozen=True)
class HermitianSplit:
    """Decomposition A = a1 + sign*i*a2 into two Hermitian parts."""

    a1: np.ndarray
    a2: np.ndarray
    sign: int

    def reconstruct(self) -> np.ndarray:
        return self.a1 + self.sign * 1j * self.a2


def hermitian_split(A, sign: int = +1) -> HermitianSplit:
    """Split an arbitrary operator into Hermitian and anti-Hermitian parts."""
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    A = as_operator(A)
    a1 = (A + A.conj().T) / 2
    a2 = -sign * 0.5j * (A - A.conj().T)
    return HermitianSplit(a1=a1, a2=a2, sign=sign)


@rowwise
def variance(rows, A, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL):
    """Symmetrized variance Tr[rho (A^dag A + A A^dag)/2] - |Tr(A rho)|^2,
    clipped at 0; NegativeRadicand where it lies below -tol_residual."""
    A = _operators(A, rho.dim)
    r = rho.matrix
    v = 0.5 * _trace(_quad_factor(A) @ r).real - np.abs(_trace(A @ r)) ** 2
    rows.reject(v < -tol.tol_residual, NegativeRadicand,
                f"variance radicand {{:.3e}} < -{tol.tol_residual:.3e}", v)
    return np.maximum(v, 0.0)


@rowwise
def std_dev(rows, A, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL):
    """Standard deviation of an arbitrary operator; symmetric under A <-> A^dag."""
    return np.sqrt(variance.core(rows, A, rho, tol))


def _quad_factor(A: np.ndarray) -> np.ndarray:
    """A^dag A + A A^dag of a matrix or of each matrix of a stack."""
    Ah = _dagger(A)
    return Ah @ A + A @ Ah


def _skew_kernel(A, rho, G: np.ndarray) -> np.ndarray:
    """sum_ij G_ij |A~_ij|^2, with A~ = A in the eigenbasis of rho, for each
    state of the stack ``rho`` and its (N, d, d) gaps.

    ``A`` is one operator, one per state, or K operators as (K, 1, d, d),
    with gaps shared or (K, N, d, d); K operators give (K, N) values, each
    from the products and sums of its own evaluation.  The K operators go in
    blocks whose (k, N, d, d) products hold _BLOCK_BYTES, so a large stack's
    temporaries stay those of one operator.  :func:`wyd_skew` and
    :func:`gen_skew` differ only in the symmetric gaps G; for symmetric G,
    (1/2) sum_ij G_ij (|<i|A^dag|j>|^2 + |<i|A|j>|^2) = sum_ij G_ij |A~_ij|^2.
    """
    A = _operators(A, rho.dim)
    per = max(1, _BLOCK_BYTES // (16 * rho.matrix.size))
    if A.ndim < 4 or len(A) <= per:
        return _skew_values(A, rho, G)
    return np.concatenate([_skew_values(A[i:i + per], rho, G[i:i + per] if G.ndim == 4 else G)
                           for i in range(0, len(A), per)])


def _skew_values(A, rho, G: np.ndarray) -> np.ndarray:
    """The values of one block of :func:`_skew_kernel`."""
    V = rho.eigenvectors
    return (G * np.abs(_dagger(V) @ A @ V) ** 2).sum(axis=(-2, -1))


@rowwise
def _moment_table(rows, ops, rho: DensityOperator, s, orders, tol: Tolerances = DEFAULT_TOL):
    """std_dev, wyd_skew at s and gen_skew at each order of ``orders`` of each
    operator of ``ops``, (K, 2 + len(orders)) per state, with the bits and the
    first error of the separate calls, operator by operator; rho's gaps are
    shared, and each operator's |V^dag A V|^2 by its skews."""
    V, eigs, table, gaps = rho.eigenvectors, rho.eigenvalues, [], None
    for A in ops:
        A = _operators(A, rho.dim)
        sd = std_dev.core(rows, A, rho, tol)
        if rows.first is not None:  # the variance raises before s or an order is checked
            return None
        if gaps is None:
            gaps = [_wyd_gaps(eigs, _exponents(s)),
                    *(_mean_gaps(eigs, o, tol.tol_psd) for o in orders)]
        sandwich = np.abs(_dagger(V) @ A @ V) ** 2
        table.append(np.stack([sd, *((G * sandwich).sum(axis=(-2, -1)) for G in gaps)], axis=-1))
    return np.stack(table, axis=-2)


@rowwise
def wyd_skew(rows, A, rho: DensityOperator, s, tol: Tolerances = DEFAULT_TOL):
    """Skew information (1/2) Tr([rho^s, A]^dag [rho^(1-s), A]) for 0 < s < 1.

    s = 1/2 is the symmetric case (1/2)||[sqrt(rho), A]||_F^2.  Evaluated as
    the eigenbasis kernel with G_ij = |l_i^s - l_j^s| |l_i^(1-s) - l_j^(1-s)|/2,
    which is (l_i + l_j)/2 on pairs touching a zero eigenvalue (0**s = 0).
    A stack takes one s for all states or one per state.
    """
    return _skew_kernel(A, rho, _wyd_gaps(rho.eigenvalues, _exponents(s)))


def _wyd_gaps(eigs: np.ndarray, s) -> np.ndarray:
    """G_ij = |l_i^s - l_j^s| |l_i^(1-s) - l_j^(1-s)|/2 of :func:`wyd_skew` for
    a stack of spectra, with one checked s for all or one per spectrum."""
    p, q = _power(eigs, np.array([s, 1 - s]).reshape(2, -1))
    return np.abs(_pairs(p, np.subtract)) * np.abs(_pairs(q, np.subtract)) / 2


def _pairs(x: np.ndarray, op) -> np.ndarray:
    """op(x_i, x_j) over the last axis, for a vector or a stack of vectors."""
    return op(x[..., :, None], x[..., None, :])


def _logcosh(x: np.ndarray) -> np.ndarray:
    """log cosh x of x >= 0 as log1p(2 sinh(x/2)^2), with no cancellation
    near 0; past x = 700, where sinh^2 would overflow, it grows as x."""
    return np.log1p(2 * np.sinh(np.minimum(x, 700.0) / 2) ** 2) + np.maximum(x - 700.0, 0.0)


def _by_order(weigh):
    """``weigh(eigs, order, tol_psd)`` at one MeanOrder, taking ``order`` as a
    float or MeanOrder for all spectra of the stack ``eigs`` or as an array
    of one per spectrum; the spectra of each distinct order are weighed
    together."""
    def by_order(eigs: np.ndarray, order, tol_psd: float) -> np.ndarray:
        if isinstance(order, MeanOrder) or not np.ndim(order):
            return weigh(eigs, as_mean_order(order), tol_psd)
        nu = np.broadcast_to(np.asarray(order, dtype=float), eigs.shape[:-1])
        M = np.empty(eigs.shape + eigs.shape[-1:])
        for u in np.unique(nu):
            M[nu == u] = weigh(eigs[nu == u], as_mean_order(u), tol_psd)
        return M
    return by_order


@_by_order
def _mean_weights(eigs: np.ndarray, order: MeanOrder, tol_psd: float) -> np.ndarray:
    """Matrix m_nu(lambda_i, lambda_j); pairs touching the kernel weigh 0.

    The zero-eigenvalue rule is the continuous limit of the power mean with a
    vanishing argument and nonpositive exponent, consistent with 0**s = 0.
    A stack of spectra gives a stack of matrices.
    """
    pos = eigs > tol_psd
    x = np.where(pos, eigs, 1.0)  # placeholder 1 off the support, masked below
    if order.is_min:
        M = np.minimum(x[..., :, None], x[..., None, :])
    else:
        # log-domain formulas, on all pairs at once
        a = np.log(x)
        mid = (a[..., :, None] + a[..., None, :]) / 2
        diff = a[..., :, None] - a[..., None, :]
        if order.is_zero or abs(order.nu) < _NU_SERIES_CUTOFF:
            M = np.exp(mid + order.nu * diff**2 / 8)
        else:
            # exp((a+b)/2 + logcosh(nu*(a-b)/2)/nu), stable for very negative nu
            z = np.abs(order.nu * diff / 2)
            logcosh = z + np.log1p(np.exp(-2 * z)) - math.log(2)
            M = np.exp(mid + logcosh / order.nu)
    return np.where(_pairs(pos, np.logical_and), M, 0.0)


@_by_order
def _mean_gaps(eigs: np.ndarray, order: MeanOrder, tol_psd: float) -> np.ndarray:
    """G_ij = (l_i + l_j)/2 - m_nu(l_i, l_j) of :func:`gen_skew` as the sum of
    AM - GM = ((l_i - l_j)/(sqrt(l_i) + sqrt(l_j)))^2/2 and GM - m_nu =
    GM (1 - exp(-L)), L = log(GM/m_nu) = log cosh(|nu| D/2)/|nu| with
    D = |log(l_i/l_j)| (0 at nu = 0, D/2 at nu = -inf).  Pairs touching the
    kernel (see :func:`_mean_weights`) get (l_i + l_j)/2."""
    pos = eigs > tol_psd
    x = np.where(pos, eigs, 1.0)  # placeholder 1 off the support, masked below
    r = np.sqrt(x)
    diff = _pairs(x, np.subtract)
    G = (diff / _pairs(r, np.add)) ** 2 / 2
    if not order.is_zero:
        half_D = np.log1p(np.abs(diff) / _pairs(x, np.minimum)) / 2
        k = abs(order.nu)
        L = half_D if order.is_min else _logcosh(k * half_D) / k
        G += _pairs(r, np.multiply) * -np.expm1(-L)
    return np.where(_pairs(pos, np.logical_and), G, _pairs(eigs, np.add) / 2)


@rowwise
def gen_skew(rows, A, rho: DensityOperator, order, tol: Tolerances = DEFAULT_TOL):
    """Generalized skew information of an arbitrary operator.

    Interpolates the skew-information family through the power mean of
    eigenvalue pairs: the eigenbasis kernel of :func:`wyd_skew` with
    G_ij = (l_i + l_j)/2 - m_nu(l_i, l_j).  Order 0 gives the s = 1/2 gaps,
    so it reproduces ``wyd_skew(A, rho, 1/2)``, and order -1 gives a quarter
    of the Fisher information.  A stack takes one order for all states or an
    array of one per state.
    """
    return _skew_kernel(A, rho, _mean_gaps(rho.eigenvalues, order, tol.tol_psd))


@rowwise
def fisher_information(rows, A, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL):
    """Quantum Fisher information, 4x the order -1 generalized skew."""
    return 4.0 * gen_skew.core(rows, A, rho, MeanOrder.finite(-1.0), tol)
