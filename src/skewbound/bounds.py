"""State-independent lower bounds from a bipartite spectral embedding.

The sum of skew informations of a collection of operators equals a bilinear
form of a PSD operator ``H_tot`` on the doubled space, evaluated between the
purification-like vectors ``|Phi~^s> = sum_i lambda_i^s |i>|i*> = vec(rho^s)``.
The spectrum of ``H_tot`` -- its smallest eigenvalue eps1 above the kernel and
the kernel projector -- depends only on the operators; each state's bound is
then eps1 times the weight of its embedding outside the kernel.

Doubled-space vectors are row-major vec(X) of d x d matrices X, so each
generator is a map on matrices.  Two doubling conventions appear:

* ``transpose`` pairing, ``(A (x) I - I (x) A^T)/sqrt(2)``, is
  X -> [A, X]/sqrt(2); it matches the conjugated vectors above and carries
  the skew-information identity;
* ``plain`` pairing, ``(A (x) I - I (x) A)/sqrt(2)``, is
  X -> (A X - X A^T)/sqrt(2); it matches the unconjugated doubling
  ``|psi>|psi>`` = vec(psi psi^T) and is valid for pure-state variance sums
  only.  It is the classical eigenvalue-minimization machinery and often
  gives different (sometimes better) pure-state floors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, NoFeasibleChiWarning
from .linalg import (
    DEFAULT_TOL,
    DensityOperator,
    Tolerances,
    as_operator,
    hermitian_eigen,
    matrix_power,
    random_density,
)
from .moments import (
    MeanOrder,
    as_mean_order,
    gen_skew,
    hermitian_split,
    wyd_skew,
)

__all__ = [
    "OperatorSet",
    "SpectralData",
    "EmbeddingVectors",
    "SpectralBound",
    "embedding",
    "h_tot",
    "bound_wy",
    "bound_wyd",
    "tighten_alpha_scan",
    "pure_variance_bound",
    "sample_states",
    "empirical_minimum",
    "separability_witness",
    "WitnessResult",
]

_ZERO_CUTOFF = 1e-14


@dataclass(frozen=True)
class SpectralData:
    """State-independent half of the spectral bound of one operator set.

    ``kernel`` holds orthonormal columns spanning every eigenvector of
    ``H_tot`` with eigenvalue at most ``w_0 + 1e-8 max(1, epsilonK)``; it
    always contains vec(I)/sqrt(d), and more for reducible sets.
    ``epsilon1`` is the smallest eigenvalue above that kernel (0 if none).
    """

    H: np.ndarray
    epsilon1: float
    epsilonK: float
    kernel: np.ndarray

    @property
    def kernel_dim(self) -> int:
        return self.kernel.shape[1]

    def kernel_weight(self, phi: np.ndarray) -> float:
        """||P_ker phi||^2 of a unit vector, capped at 1."""
        return min(float(np.sum(np.abs(self.kernel.conj().T @ phi) ** 2)), 1.0)


@dataclass(frozen=True)
class OperatorSet:
    """A collection of same-dimension operators with cached Hermitian splits
    and, once first asked for, cached spectral data of ``H_tot``."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(as_operator(A) for A in self.operators)
        if not ops:
            raise DomainError("operator set is empty")
        d = ops[0].shape[0]
        for A in ops:
            if A.shape[0] != d:
                raise DimensionMismatch("operators must share one dimension")
        comps = []
        for A in ops:
            sp = hermitian_split(A)
            for C in (sp.a1, sp.a2):
                if np.max(np.abs(C)) > _ZERO_CUTOFF:
                    comps.append(C)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "_components", tuple(comps))
        object.__setattr__(self, "_spectra", {})

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def components(self):
        """Nonzero Hermitian split parts of every operator."""
        return self._components

    def spectral(self, tol: Tolerances = DEFAULT_TOL) -> SpectralData:
        """Spectral data of ``H_tot``, built and diagonalized once per tolerances."""
        if tol not in self._spectra:
            H = h_tot(self, tol=tol)
            w, V = hermitian_eigen(H, tol)
            epsK = float(w[-1])
            in_kernel = w <= w[0] + 1e-8 * max(1.0, epsK)
            above = w[~in_kernel]
            self._spectra[tol] = SpectralData(
                H=H,
                epsilon1=float(above[0]) if above.size else 0.0,
                epsilonK=epsK,
                kernel=V[:, in_kernel],
            )
        return self._spectra[tol]


def _as_set(ops) -> OperatorSet:
    if isinstance(ops, OperatorSet):
        return ops
    return OperatorSet(tuple(ops))


@dataclass(frozen=True)
class EmbeddingVectors:
    """Unnormalized doubled-space vectors carrying the skew bilinear form."""

    phi_s: np.ndarray
    phi_1ms: np.ndarray
    norms: tuple  # (<phi_s|phi_s>, <phi_1ms|phi_1ms>) = (Tr rho^2s, Tr rho^(2-2s))


@dataclass(frozen=True)
class SpectralBound:
    """Result of a spectral lower bound on a sum of skew informations.

    ``interval`` is [0, epsilonK (1 - ||P_ker phi||^2)] at phi = vec(sqrt(rho)),
    which encloses the symmetric skew sum at this state.
    """

    epsilon1: float
    epsilonK: float
    bound: float
    kernel_dim: int
    interval: tuple


def embedding(rho: DensityOperator, s: float) -> EmbeddingVectors:
    """Row-major vec(rho^s) = sum_i lambda_i^s |i>|i*>, and vec(rho^(1-s))."""
    if not 0 < s < 1:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    w = rho.eigenvalues
    norms = (float(np.sum(w ** (2 * s))), float(np.sum(w ** (2 * (1 - s)))))
    return EmbeddingVectors(
        phi_s=matrix_power(rho, s).ravel(),
        phi_1ms=matrix_power(rho, 1 - s).ravel(),
        norms=norms,
    )


def h_tot(ops, pairing: str = "transpose", tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """PSD total operator: sum of squared generators of all split parts.

    With S = sum_C C^2 and C^p = C^T (transpose pairing) or C (plain), it is
    (S (x) I + I (x) S^p)/2 - sum_C C (x) C^p; on vec(X) the transpose form
    acts as X -> sum_C [C, [C, X]]/2.  ``tol`` is unused: the split parts
    are Hermitian by construction.
    """
    oset = _as_set(ops)
    d = oset.dim
    Cs = np.asarray(oset.components(), dtype=complex).reshape(-1, d, d)
    Cp = Cs.transpose(0, 2, 1) if pairing == "transpose" else Cs
    S = np.sum(Cs @ Cs, axis=0)
    # matmul rounds S[i, j] and S[j, i] differently; hermitian_eigen's
    # absolute check would reject that defect once entries reach ~1e6
    S = (S + S.conj().T) / 2
    Sp = S.T if pairing == "transpose" else S
    I = np.eye(d)
    H = (np.kron(S, I) + np.kron(I, Sp)) / 2
    H -= np.einsum("kij,kab->iajb", Cs, Cp).reshape(d * d, d * d)
    return H


def _spectral(ops, rho: DensityOperator, tol: Tolerances) -> SpectralData:
    oset = _as_set(ops)
    if oset.dim != rho.dim:
        raise DimensionMismatch("operator and state dimensions differ")
    return oset.spectral(tol)


def _unit(v: np.ndarray, norm2: float) -> np.ndarray:
    return v / math.sqrt(max(norm2, 1e-300))


def _half_weight(spec: SpectralData, rho: DensityOperator) -> float:
    """||P_ker phi||^2 at the unit vector phi = vec(sqrt(rho))."""
    emb = embedding(rho, 0.5)
    return spec.kernel_weight(_unit(emb.phi_s, emb.norms[0]))


def _result(spec: SpectralData, bound: float, ov2: float) -> SpectralBound:
    return SpectralBound(
        epsilon1=spec.epsilon1,
        epsilonK=spec.epsilonK,
        bound=max(bound, 0.0),
        kernel_dim=spec.kernel_dim,
        interval=(0.0, max(spec.epsilonK * (1.0 - ov2), 0.0)),
    )


def bound_wy(ops, rho: DensityOperator, tol: Tolerances = DEFAULT_TOL) -> SpectralBound:
    """Lower bound eps1 (1 - ||P_ker phi||^2) on sum_k I_rho(A_k) at s = 1/2.

    phi = vec(sqrt(rho)) is a unit vector with <phi|H_tot|phi> equal to the
    skew sum, and H_tot >= eps1 (1 - P_ker) because H_tot is PSD.  The bound
    therefore holds for every operator set, reducible ones included.  It
    also bounds every sum of generalized skews, whatever the mean orders,
    because each generalized skew dominates the symmetric skew information.
    """
    spec = _spectral(ops, rho, tol)
    ov2 = _half_weight(spec, rho)
    return _result(spec, spec.epsilon1 * (1.0 - ov2), ov2)


_CHI_OVERLAP_FLOOR = 1e-14


def _feasible_f(chi, ref1, ref2):
    """f(tau1, tau2) for one reference state, or None if infeasible.

    The minimal feasible tau_i is the Gram-Schmidt residual
    ||ref_i - <chi|ref_i> chi|| / |<chi|ref_i>| (= sqrt(1/|<chi|ref_i>|^2 - 1)
    for unit vectors, without its cancellation near overlap 1); f decreases
    in each argument on the feasible region, so the minimal pair maximizes f.
    """
    o1 = np.vdot(chi, ref1)
    o2 = np.vdot(chi, ref2)
    if abs(o1) ** 2 < _CHI_OVERLAP_FLOOR or abs(o2) ** 2 < _CHI_OVERLAP_FLOOR:
        return None
    t1 = float(np.linalg.norm(ref1 - o1 * chi)) / abs(o1)
    t2 = float(np.linalg.norm(ref2 - o2 * chi)) / abs(o2)
    if t1 * t2 >= 1.0:
        return None
    return (1.0 - t1 * t2) / ((1.0 + t1 * t1) * (1.0 + t2 * t2))


def bound_wyd(
    ops,
    rho: DensityOperator,
    s: float,
    chi_candidates: Optional[Sequence[np.ndarray]] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> SpectralBound:
    """Lower bound on sum_k I^s_rho(A_k) for s != 1/2.

    The bilinear form is no longer an expectation value, so the spectral
    bound is filtered through a reverse Cauchy-Schwarz factor built from
    reference states chi.  The default candidates each collapse one overlap
    to 1; callers may supply more, each a nonzero vector of d^2 entries
    (DimensionMismatch or DomainError otherwise).  If every candidate is
    infeasible the bound degrades to 0 with a warning.
    """
    if not 0 < s < 1:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    if abs(s - 0.5) < 1e-12:
        raise DomainError("s = 1/2 has an exact spectral bound; use bound_wy")
    spec = _spectral(ops, rho, tol)
    d = rho.dim
    emb = embedding(rho, s)
    theta = math.sqrt(emb.norms[0] * emb.norms[1])
    phis = _unit(emb.phi_s, emb.norms[0])
    phi1s = _unit(emb.phi_1ms, emb.norms[1])
    Hp1s = spec.H @ emb.phi_1ms
    Hps = spec.H @ emb.phi_s
    n1 = np.linalg.norm(Hp1s)
    n2 = np.linalg.norm(Hps)
    phiH1s = Hp1s / n1 if n1 > 1e-12 else None
    phiHs = Hps / n2 if n2 > 1e-12 else None
    mes = np.eye(d).ravel() / math.sqrt(d)
    candidates = [phis, phi1s, mes]
    if phiH1s is not None:
        candidates.append(phiH1s)
    if phiHs is not None:
        candidates.append(phiHs)
    if chi_candidates:
        for chi in chi_candidates:
            v = np.asarray(chi, dtype=complex).ravel()
            if v.size != d * d:
                raise DimensionMismatch(f"chi candidate has {v.size} entries, need {d * d}")
            n = np.linalg.norm(v)
            if n == 0:
                raise DomainError("chi candidate is the zero vector")
            candidates.append(v / n)

    def excited_factor(phi: np.ndarray) -> float:
        # ||H phi|| >= eps1 ||(1 - P_ker) phi|| for a unit vector phi
        return math.sqrt(1.0 - spec.kernel_weight(phi))

    best = None
    branches = []
    if phiH1s is not None:
        branches.append((phis, phiH1s, excited_factor(phi1s)))
    if phiHs is not None:
        branches.append((phi1s, phiHs, excited_factor(phis)))
    for chi in candidates:
        for ref1, ref2, fac in branches:
            f = _feasible_f(chi, ref1, ref2)
            if f is None:
                continue
            val = f * fac * theta * spec.epsilon1
            best = val if best is None else max(best, val)
    if best is None:
        warnings.warn(
            "no feasible reference state; reporting bound 0",
            NoFeasibleChiWarning,
            stacklevel=2,
        )
        best = 0.0
    return _result(spec, best, _half_weight(spec, rho))


def tighten_alpha_scan(
    ops,
    grid_points: int = 201,
    pairing: str = "transpose",
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Pure-state variance floor from shifted-operator ground eigenvalues.

    For each split component C and shift alpha in its eigenvalue range the
    operator ``H_tot + (C - alpha) (x) (C - alpha)^T`` (transpose pairing; the
    plain pairing drops the transpose) is PSD, and its ground eigenvalue
    bounds the pure-state variance sum on the slice <C> = alpha.  Minimizing
    over the grid and maximizing over components tightens the plain ground
    eigenvalue.  The grid is a documented approximation of the continuum
    minimum.  The transpose pairing reuses the set's cached ``H_tot`` and
    starts from 0, the ground eigenvalue it always has (vec(I) is in its
    kernel); the plain pairing builds its own ``H_tot`` and starts from its
    ground eigenvalue.
    """
    if grid_points < 2:
        raise DomainError("grid_points must be at least 2")
    if pairing not in ("transpose", "plain"):
        raise DomainError(f"unknown pairing {pairing!r}")
    oset = _as_set(ops)
    d = oset.dim
    if pairing == "transpose":
        H = oset.spectral(tol).H
        best = 0.0
    else:
        H = h_tot(oset, pairing=pairing, tol=tol)
        best = max(float(np.linalg.eigvalsh(H)[0]), 0.0)
    I = np.eye(d)
    for C in oset.components():
        evs = np.linalg.eigvalsh(C)
        lo, hi = float(evs[0]), float(evs[-1])
        if hi - lo < 1e-14:
            continue  # multiple of identity: zero variance always
        worst = None
        for alpha in np.linspace(lo, hi, grid_points):
            Ca = C - alpha * I
            pair = Ca.T if pairing == "transpose" else Ca
            g = float(np.linalg.eigvalsh(H + np.kron(Ca, pair))[0])
            worst = g if worst is None else min(worst, g)
        if worst is not None:
            best = max(best, worst)
    return best


def pure_variance_bound(ops, grid_points: int = 201, tol: Tolerances = DEFAULT_TOL) -> float:
    """State-independent floor of sum_k <dA_k>^2 over pure states.

    Uses the plain-pairing machinery (valid for the unconjugated doubling
    |psi>|psi>), whose scan is frequently tighter than the transpose form for
    pure-state variance sums.
    """
    return tighten_alpha_scan(ops, grid_points=grid_points, pairing="plain", tol=tol)


def _sum_value(ops, rho, s_or_order, tol):
    oset = _as_set(ops)
    if isinstance(s_or_order, (list, tuple)):
        orders = [as_mean_order(o) for o in s_or_order]
        if len(orders) != len(oset.operators):
            raise DomainError("need one mean order per operator")
        return sum(gen_skew(A, rho, o, tol) for A, o in zip(oset.operators, orders))
    if isinstance(s_or_order, MeanOrder):
        return sum(gen_skew(A, rho, s_or_order, tol) for A in oset.operators)
    s = float(s_or_order)
    if 0 < s < 1:
        return sum(wyd_skew(A, rho, s, tol) for A in oset.operators)
    return sum(gen_skew(A, rho, as_mean_order(s), tol) for A in oset.operators)


def sample_states(dim: int, samples: int, seed, ranks: Optional[Sequence[int]] = None):
    """Iterator over ``samples`` Hilbert-Schmidt states drawn from one stream.

    Each state's rank is drawn uniformly from ``ranks`` (default: 1..dim) and
    everything comes from ``np.random.default_rng(seed)`` in order, so a fixed
    seed gives the same states to every caller.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rank_pool = tuple(ranks) if ranks else tuple(range(1, dim + 1))
    for r in rank_pool:
        if not 1 <= r <= dim:
            raise DomainError(f"rank {r} outside [1, {dim}]")
    rng = np.random.default_rng(seed)
    return (
        random_density(dim, int(rank_pool[rng.integers(len(rank_pool))]), rng)
        for _ in range(samples)
    )


def empirical_minimum(
    ops,
    s_or_order,
    samples: int,
    seed,
    ranks: Optional[Sequence[int]] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Sampling oracle: min over random states of the relevant skew sum.

    ``s_or_order``: a float in (0, 1) selects the s-family, a nonpositive
    float or MeanOrder the generalized family, a list one order per operator.
    States come from :func:`sample_states`, so the result is deterministic
    for a fixed seed.
    """
    oset = _as_set(ops)
    return min(
        _sum_value(oset, rho, s_or_order, tol)
        for rho in sample_states(oset.dim, samples, seed, ranks)
    )


@dataclass(frozen=True)
class WitnessResult:
    lhs: float
    threshold: float
    violated: bool


def separability_witness(
    opsA,
    opsB,
    rho_AB: DensityOperator,
    grid_points: int = 201,
    tol: Tolerances = DEFAULT_TOL,
) -> WitnessResult:
    """Variance-sum entanglement witness on a bipartite state.

    Separable states obey lhs >= threshold where the threshold adds the
    pure-state variance floors of the two local operator sets; a violation
    certifies entanglement.
    """
    setA, setB = _as_set(opsA), _as_set(opsB)
    if len(setA.operators) != len(setB.operators):
        raise DimensionMismatch("need equally many operators on each side")
    dA, dB = setA.dim, setB.dim
    if rho_AB.dim != dA * dB:
        raise DimensionMismatch(f"state dim {rho_AB.dim} != {dA}*{dB}")
    from .moments import variance

    IA, IB = np.eye(dA), np.eye(dB)
    lhs = 0.0
    for A, B in zip(setA.operators, setB.operators):
        joint = np.kron(A, IB) + np.kron(IA, B)
        lhs += variance(joint, rho_AB, tol)
    threshold = pure_variance_bound(setA, grid_points, tol) + pure_variance_bound(
        setB, grid_points, tol
    )
    return WitnessResult(
        lhs=float(lhs),
        threshold=float(threshold),
        violated=bool(lhs < threshold - tol.tol_residual),
    )
