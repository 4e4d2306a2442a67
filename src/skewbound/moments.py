"""Standard deviation, skew information and the power-mean family.

All operations accept arbitrary (not necessarily Hermitian) operators; the
symmetrized definitions below reduce to the textbook ones on Hermitian input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NegativeRadicand
from .linalg import DEFAULT_TOL, DensityOperator, Tolerances, as_operator

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
    def zero(cls) -> "MeanOrder":
        return cls(0.0)

    @classmethod
    def minus_infinity(cls) -> "MeanOrder":
        return cls(float("-inf"))

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


def generalized_mean(x: float, y: float, order) -> float:
    """Power mean m_nu(x, y) of two positive numbers with equal weights.

    m_0 = sqrt(xy), m_{-inf} = min(x, y), otherwise
    ((x**nu + y**nu)/2)**(1/nu).  Monotone nonincreasing as nu decreases.
    Callers must pre-filter zero eigenvalues; see :func:`gen_skew`.
    """
    if x <= 0 or y <= 0:
        raise DomainError("generalized_mean requires strictly positive arguments")
    order = as_mean_order(order)
    if order.is_min:
        return min(x, y)
    a, b = math.log(x), math.log(y)
    if order.is_zero or abs(order.nu) < _NU_SERIES_CUTOFF:
        return math.exp((a + b) / 2 + order.nu * (a - b) ** 2 / 8)
    # exp((a+b)/2 + logcosh(nu*(a-b)/2)/nu), stable for very negative nu
    z = order.nu * (a - b) / 2
    logcosh = abs(z) + math.log1p(math.exp(-2 * abs(z))) - math.log(2)
    return math.exp((a + b) / 2 + logcosh / order.nu)


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


def _check_dims(A: np.ndarray, rho: DensityOperator):
    if A.shape[0] != rho.dim:
        raise DimensionMismatch(f"operator dim {A.shape[0]} != state dim {rho.dim}")


def variance(A, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL) -> float:
    """Symmetrized variance Tr[rho (A^dag A + A A^dag)/2] - |Tr(A rho)|^2."""
    A = as_operator(A)
    _check_dims(A, rho)
    r = rho.matrix
    quad = 0.5 * np.trace((A.conj().T @ A + A @ A.conj().T) @ r).real
    mean = np.trace(A @ r)
    v = quad - abs(mean) ** 2
    if v < -tol.tol_residual:
        raise NegativeRadicand(f"variance radicand {v:.3e} < -{tol.tol_residual:.3e}")
    return max(v, 0.0)


def std_dev(A, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL) -> float:
    """Standard deviation of an arbitrary operator; symmetric under A <-> A^dag."""
    return math.sqrt(variance(A, rho, tol))


def _skew_kernel(A, rho: DensityOperator, W: np.ndarray, what: str, tol: Tolerances):
    """quad - sum_ij W_ij |A~_ij|^2, with quad = Tr[rho (A^dag A + A A^dag)/2]
    and A~ = A in the eigenbasis of rho.

    :func:`wyd_skew` and :func:`gen_skew` differ only in the symmetric
    eigenvalue weighting W; for symmetric W,
    (1/2) sum_ij W_ij (|<i|A^dag|j>|^2 + |<i|A|j>|^2) = sum_ij W_ij |A~_ij|^2.
    For a DensityStack and a (N, d, d) stack of weights it is one stacked
    evaluation with one value per state; a single state is the case N = 1
    without the leading axis, and each state's value is the one it gets alone.
    """
    A = as_operator(A)
    _check_dims(A, rho)
    AA = A.conj().T @ A + A @ A.conj().T
    quad = 0.5 * np.trace(AA @ rho.matrix, axis1=-2, axis2=-1).real
    V = rho.eigenvectors
    At = V.conj().swapaxes(-1, -2) @ A @ V
    weighted = W * np.abs(At) ** 2
    val = quad - np.sum(weighted.reshape(weighted.shape[:-2] + (-1,)), axis=-1)
    worst = np.min(val)
    if worst < -tol.tol_residual:
        raise NegativeRadicand(f"{what} {worst:.3e} < -{tol.tol_residual:.3e}")
    return np.maximum(val, 0.0)


def wyd_skew(A, rho: DensityOperator, s: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """Skew information (1/2) Tr([rho^s, A]^dag [rho^(1-s), A]) for 0 < s < 1.

    s = 1/2 is the symmetric case (1/2)||[sqrt(rho), A]||_F^2.  Evaluated as
    the eigenbasis kernel with W_ij = (l_i^s l_j^(1-s) + l_i^(1-s) l_j^s)/2,
    which is 0 on pairs touching a zero eigenvalue (0**s = 0).  A
    DensityStack gives an array of one skew information per state.
    """
    if not 0 < s < 1:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    p, q = rho.eigenvalues**s, rho.eigenvalues ** (1 - s)
    W = (_outer(p, q) + _outer(q, p)) / 2
    return _skew_kernel(A, rho, W, "skew information", tol)


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_i y_j over the last axis, for a vector or a stack of vectors."""
    return x[..., :, None] * y[..., None, :]


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
        # same log-domain formulas as generalized_mean, on all pairs at once
        a = np.log(x)
        mid = (a[..., :, None] + a[..., None, :]) / 2
        diff = a[..., :, None] - a[..., None, :]
        if order.is_zero or abs(order.nu) < _NU_SERIES_CUTOFF:
            M = np.exp(mid + order.nu * diff**2 / 8)
        else:
            z = np.abs(order.nu * diff / 2)
            logcosh = z + np.log1p(np.exp(-2 * z)) - math.log(2)
            M = np.exp(mid + logcosh / order.nu)
    return np.where(_outer(pos, pos), M, 0.0)


def gen_skew(A, rho: DensityOperator, order, tol: Tolerances = DEFAULT_TOL) -> float:
    """Generalized skew information of an arbitrary operator.

    Interpolates the skew-information family through the power mean of
    eigenvalue pairs: the eigenbasis kernel of :func:`wyd_skew` with
    W_ij = m_nu(l_i, l_j).  Order 0 gives the s = 1/2 weights, so it
    reproduces ``wyd_skew(A, rho, 1/2)``, and order -1 gives a quarter of the
    Fisher information.  A DensityStack gives one value per state.
    """
    order = as_mean_order(order)
    W = _mean_weights(rho.eigenvalues, order, tol.tol_psd)
    return _skew_kernel(A, rho, W, "generalized skew", tol)


def fisher_information(A, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL) -> float:
    """Quantum Fisher information, 4x the order -1 generalized skew."""
    return 4.0 * gen_skew(A, rho, MeanOrder.finite(-1.0), tol)
