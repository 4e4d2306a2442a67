"""Kraus channels, their skew-information coherence, and channel bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, IncompleteChannel
from .linalg import DEFAULT_TOL, DensityOperator, Tolerances, as_operator
from .bounds import OperatorSet, SpectralBound, bound_wy
from .moments import wyd_skew

__all__ = [
    "KrausChannel",
    "luders_channel",
    "phase_damping",
    "amplitude_damping",
    "channel_skew",
    "pooled_set",
    "channel_bound",
]


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    kraus: tuple
    label: str = ""
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self):
        ops = tuple(as_operator(K) for K in self.kraus)
        if not ops:
            raise DomainError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for K in ops:
            if K.shape[0] != d:
                raise DimensionMismatch("Kraus operators must share one dimension")
            total += K.conj().T @ K
        defect = np.max(np.abs(total - np.eye(d)))
        if defect > self.tol.tol_herm:
            raise IncompleteChannel(f"sum K^dag K deviates from I by {defect:.3e}")
        object.__setattr__(self, "kraus", ops)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, rho: DensityOperator) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for K in self.kraus:
            out += K @ rho.matrix @ K.conj().T
        return out


def luders_channel(projectors, label: str = "luders") -> KrausChannel:
    """Channel of a projective measurement; projectors must resolve identity."""
    return KrausChannel(kraus=tuple(projectors), label=label)


def phase_damping(p: float) -> KrausChannel:
    """Qubit phase damping with damping probability p."""
    if not 0 <= p <= 1:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    K1 = np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex)
    K2 = np.array([[0, 0], [0, math.sqrt(p)]], dtype=complex)
    return KrausChannel(kraus=(K1, K2), label=f"phase_damping(p={p})")


def amplitude_damping(p: float) -> KrausChannel:
    """Qubit amplitude damping with decay probability p."""
    if not 0 <= p <= 1:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    K1 = np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex)
    K2 = np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex)
    return KrausChannel(kraus=(K1, K2), label=f"amplitude_damping(p={p})")


def channel_skew(ch: KrausChannel, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL) -> float:
    """Coherence of rho with respect to the channel: sum of Kraus skews."""
    if ch.dim != rho.dim:
        raise DimensionMismatch("channel and state dimensions differ")
    return sum(wyd_skew(K, rho, 0.5, tol) for K in ch.kraus)


def pooled_set(channels) -> OperatorSet:
    """The Kraus operators of all channels as one operator set.

    An empty pool and channels on different systems are rejected.
    """
    return OperatorSet(tuple(K for ch in channels for K in ch.kraus))


def channel_bound(channels, rho: DensityOperator) -> SpectralBound:
    """State-independent lower bound on the summed channel coherences.

    Runs the plain operator bound on the pooled Kraus operators; their
    spectral data are cached per operator content, so bounding many states
    decomposes the pool once.
    """
    return bound_wy(pooled_set(channels), rho)
