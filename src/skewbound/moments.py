"""Standard deviation, skew information and the power-mean family.

All operations accept arbitrary (not necessarily Hermitian) operators; the
symmetrized definitions below reduce to the textbook ones on Hermitian input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NegativeRadicand
from .linalg import DEFAULT_TOL, DensityOperator, Tolerances, as_operator, matrix_power

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


def wyd_skew(A, rho: DensityOperator, s: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """Skew information (1/2) Tr([rho^s, A]^dag [rho^(1-s), A]) for 0 < s < 1.

    s = 1/2 is the symmetric case (1/2)||[sqrt(rho), A]||_F^2.
    """
    if not 0 < s < 1:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    A = as_operator(A)
    _check_dims(A, rho)
    rs = matrix_power(rho, s)
    r1s = matrix_power(rho, 1 - s)
    r = rho.matrix
    val = 0.5 * (
        np.trace((A.conj().T @ A + A @ A.conj().T) @ r)
        - np.trace(r1s @ A.conj().T @ rs @ A)
        - np.trace(rs @ A.conj().T @ r1s @ A)
    ).real
    if val < -tol.tol_residual:
        raise NegativeRadicand(f"skew information {val:.3e} < -{tol.tol_residual:.3e}")
    return max(val, 0.0)


def _mean_weights(eigs: np.ndarray, order: MeanOrder, tol_psd: float) -> np.ndarray:
    """Matrix m_nu(lambda_i, lambda_j); pairs touching the kernel weigh 0.

    The zero-eigenvalue rule is the continuous limit of the power mean with a
    vanishing argument and nonpositive exponent, consistent with 0**s = 0.
    """
    d = len(eigs)
    W = np.zeros((d, d))
    pos = eigs > tol_psd
    x = eigs[pos]
    if order.is_min:
        M = np.minimum.outer(x, x)
    else:
        # same log-domain formulas as generalized_mean, on all pairs at once
        a = np.log(x)
        mid = (a[:, None] + a[None, :]) / 2
        diff = a[:, None] - a[None, :]
        if order.is_zero or abs(order.nu) < _NU_SERIES_CUTOFF:
            M = np.exp(mid + order.nu * diff**2 / 8)
        else:
            z = np.abs(order.nu * diff / 2)
            logcosh = z + np.log1p(np.exp(-2 * z)) - math.log(2)
            M = np.exp(mid + logcosh / order.nu)
    W[np.ix_(pos, pos)] = M
    return W


def gen_skew(A, rho: DensityOperator, order, tol: Tolerances = DEFAULT_TOL) -> float:
    """Generalized skew information of an arbitrary operator.

    Interpolates the skew-information family through the power mean of
    eigenvalue pairs: order 0 reproduces ``wyd_skew(A, rho, 1/2)`` on
    Hermitian input and order -1 gives a quarter of the Fisher information.
    """
    order = as_mean_order(order)
    A = as_operator(A)
    _check_dims(A, rho)
    quad = 0.5 * np.trace((A.conj().T @ A + A @ A.conj().T) @ rho.matrix).real
    V = rho.eigenvectors
    At = V.conj().T @ A @ V
    W = _mean_weights(rho.eigenvalues, order, tol.tol_psd)
    # (1/2) sum_ij m_ij (|<i|A^dag|j>|^2 + |<i|A|j>|^2) = sum_ij m_ij |A_ij|^2
    term = float(np.sum(W * np.abs(At) ** 2))
    val = quad - term
    if val < -tol.tol_residual:
        raise NegativeRadicand(f"generalized skew {val:.3e} < -{tol.tol_residual:.3e}")
    return max(val, 0.0)


def fisher_information(A, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL) -> float:
    """Quantum Fisher information, 4x the order -1 generalized skew."""
    return 4.0 * gen_skew(A, rho, MeanOrder.finite(-1.0), tol)
