"""State-independent lower bounds from a bipartite spectral embedding.

The sum of skew informations of a collection of operators equals a bilinear
form of a PSD operator ``H_tot`` on the doubled space, evaluated between the
purification-like vectors ``|Phi~^s> = sum_i lambda_i^s |i>|i*> = vec(rho^s)``.
The spectrum of ``H_tot`` -- its smallest eigenvalue eps1 above the kernel and
the kernel projector -- depends only on the operators; each state's bound is
then eps1 times the weight of its embedding outside the kernel.

Every split component C is Hermitian, so ``H_tot`` maps Hermitian matrices to
Hermitian matrices: in the natural-layout orthonormal Hermitian basis (X_aa,
and sqrt(2) Re X_ab at (a, b), sqrt(2) Im X_ab at (b, a) for a < b) it is a
real symmetric d^2 x d^2 matrix with the same spectrum, built directly in real
arithmetic, one block of rows at a time, with no complex d^2 x d^2 array.  A
real eigensolve of it gives the spectral data of an irreducible set; vec(I)
is always in the kernel, so eigenvectors are computed only when the kernel
is larger.  When the components share invariant subspaces (found in O(K d^3)
from one generic element, as in Murota et al.'s *-algebra block
decomposition), ``H_tot`` splits into one small problem per pair of blocks,
and those are solved instead: a set of several blocks makes no d^2-sized
eigensolve.  A set of one block whose generic element M has ad_M commuting
with ``H_tot`` (spin triples, Pauli sets, orthonormal Lie-algebra bases, and
equal copies of these in a basis that mixes them) splits further, into one
small complex problem per eigenvalue ("weight") of ad_M, and no real form is
built.  Other equal copies of one block, in a mixing basis, are found as one
block and solved whole.

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

The spectral data and the alpha-scan floors depend on the operators alone,
so they are cached per operator content, process-wide, for the last 32
sets: every :class:`OperatorSet` whose operators have the same bytes shares
one record, however and wherever it was built.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, NoFeasibleChiWarning
from .linalg import (
    DEFAULT_TOL,
    DensityOperator,
    DensityStack,
    Tolerances,
    _ginibre_states,
    _powers,
    as_operator,
    density_stack,
    matrix_power,
    rowwise,
)
from .moments import (
    MeanOrder,
    _mean_gaps,
    _skew_kernel,
    _wyd_gaps,
    as_mean_order,
    hermitian_split,
    variance,
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
    "sample_stacks",
    "empirical_minimum",
    "separability_witness",
    "WitnessResult",
]

# Split components within this of c I, entrywise, are dropped: ad_{cI} = 0.
_ZERO_CUTOFF = 1e-14

# Most bytes of matrices handed to one stacked LAPACK call: the alpha scans'
# shifted operators and the sampling oracle's states go in chunks this size.
_STACK_BYTES = 16 * 2**20

# Most bytes of one (candidates, 2 branches, states, d^2) temporary of bound_wyd's
# one-pass test: the test runs over slices of a chunk's states this size.
_ROW_BYTES = 2**20

# Most entries each process-wide cache keeps (the operator-set records here,
# the parsed problem files of ``cli``); the least recently used goes first.
_CACHED_SETS = 32


@dataclass(frozen=True, eq=False)
class SpectralData:
    """State-independent half of the spectral bound of one operator set.

    ``kernel`` holds orthonormal columns, complex row-major vecs, spanning
    every eigenvector of ``H_tot`` with eigenvalue at most
    ``w_0 + 1e-8 max(1, epsilonK)``.  It always contains vec(I)/sqrt(d); when
    that is all of it, it is exactly that column and no eigenvector was
    computed.  Otherwise each invariant block contributes vec(P_a)/sqrt(d_a)
    for its projector P_a, and a block pair or weight class with more kernel
    than that adds the kernel eigenvectors of its own small problem, mapped
    back to d x d matrices.  ``epsilon1`` is the smallest eigenvalue above
    that kernel (0 if none), and ``epsilon1_multiplicity`` counts the
    eigenvalues within ``1e-8 max(1, epsilonK)`` of it (0 if none lies above
    the kernel).
    """

    epsilon1: float
    epsilonK: float
    kernel: np.ndarray
    epsilon1_multiplicity: int = 0

    def __post_init__(self):
        object.__setattr__(self, "_kernel_h", self.kernel.conj().T)  # conjugated once

    @property
    def kernel_dim(self) -> int:
        return self.kernel.shape[1]

    def kernel_weight(self, phi: np.ndarray):
        """||P_ker phi||^2 of a unit vector, or of each row of a stack of
        them, capped at 1."""
        overlaps = (self._kernel_h @ phi[..., None])[..., 0]
        return np.minimum((np.abs(overlaps) ** 2).sum(axis=-1), 1.0)


@dataclass(eq=False)
class _SetRecord:
    """State-independent results shared by every OperatorSet of one content: its
    components with S = sum_C C^2 and vec(I)/sqrt(d) (for :func:`bound_wyd`),
    spectral data and alpha-scan floors by (pairing, grid_points)."""

    components: Optional[np.ndarray] = None
    square_sum: Optional[np.ndarray] = None
    identity_row: Optional[np.ndarray] = None
    spectrum: Optional[SpectralData] = None
    scans: dict = field(default_factory=dict)


_records: "OrderedDict[bytes, _SetRecord]" = OrderedDict()


def _content_key(ops: tuple) -> bytes:
    """32-byte blake2b digest of (number of operators, d) and each operator's
    complex128 bytes; ``ops`` are C-contiguous complex matrices."""
    shape = np.array([len(ops), ops[0].shape[0]], dtype=np.int64)
    h = hashlib.blake2b(shape.tobytes(), digest_size=32)
    for A in ops:
        h.update(A)
    return h.digest()


def _most_recent(cache: OrderedDict, key, make):
    """``cache[key]``, made by ``make()`` if absent (nothing is stored if it raises), as
    the most recently used entry; past ``_CACHED_SETS`` the least recently used go."""
    value = cache.pop(key, None)
    if value is None:
        value = make()
    cache[key] = value
    while len(cache) > _CACHED_SETS:
        cache.popitem(last=False)
    return value


def _read_only(A: np.ndarray) -> np.ndarray:
    """``A`` as a C-contiguous array that cannot be written to: ``A`` itself if
    it is one that owns its memory (as a loaded problem's arrays are), else a copy."""
    if A.flags.c_contiguous and A.flags.owndata and not A.flags.writeable:
        return A
    A = np.array(A, order="C")
    A.flags.writeable = False
    return A


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Same-dimension operators and the split components of their ``H_tot``.

    The set holds read-only copies of the operators (a read-only array that
    owns its memory is kept as it is), so a caller who later writes to an
    array passed in changes nothing here.  Its
    :meth:`components`, stacked once, its spectral data and its alpha-scan
    floors are cached per operator content, process-wide, for the last 32 sets: the
    set is keyed by a blake2b digest of its operators, and every set of equal
    content, however and wherever built, shares one record.  No tolerance
    enters either result, so the key holds none.  Two sets are equal, and
    hash alike, when their keys are.  Nothing is set on a built set.
    """

    operators: tuple

    def __post_init__(self):
        ops = tuple(_read_only(as_operator(A)) for A in self.operators)
        if not ops:
            raise DomainError("operator set is empty")
        d = ops[0].shape[0]
        for A in ops:
            if A.shape[0] != d:
                raise DimensionMismatch("operators must share one dimension")
        key = _content_key(ops)
        record = _most_recent(_records, key, _SetRecord)
        if record.components is None:
            comps = []
            for A in ops:
                sp = hermitian_split(A)
                for C in (sp.a1, sp.a2):
                    C = C - np.trace(C).real / d * np.eye(d)  # ad_{C + cI} = ad_C
                    # "not <=" keeps a component that overflowed to NaN
                    if not np.max(np.abs(C)) <= _ZERO_CUTOFF:
                        comps.append(C)
            record.components = _read_only(np.array(comps, dtype=complex).reshape(-1, d, d))
            record.square_sum = _square_sum(record.components)
            record.identity_row = np.eye(d).ravel() / math.sqrt(d)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_record", record)

    def __eq__(self, other):
        if not isinstance(other, OperatorSet):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def components(self) -> np.ndarray:
        """The Hermitian split parts of every operator that are not multiples
        of I, in order, each less its trace part (Tr C/d) I, as one read-only
        (K, d, d) array of traceless matrices."""
        return self._record.components

    def spectral(self) -> SpectralData:
        """Spectral data of ``H_tot``, cached per operator content,
        process-wide, for the last 32 sets.

        ``H_tot`` is solved per pair of invariant blocks, a set of one
        block per weight class of ad_M when ad_M commutes with ``H_tot``
        and else as one real form (see :func:`_block_spectrum`); an ``eigh``
        runs only where the kernel is larger than the known one.  The kernel
        columns are read-only, as every set of this content shares them.
        """
        record = self._record
        if record.spectrum is None:
            w, kernel = _block_spectrum(self)
            kernel.flags.writeable = False
            above = w[w > w[0] + _spectral_tol(w)]
            record.spectrum = SpectralData(
                epsilon1=float(above[0]) if above.size else 0.0,
                epsilonK=float(w[-1]),
                kernel=kernel,
                epsilon1_multiplicity=(
                    int(np.count_nonzero(above <= above[0] + _spectral_tol(w)))
                    if above.size else 0),
            )
        return record.spectrum


def _spectral_tol(w: np.ndarray) -> float:
    """Width of the kernel and of eps1's cluster: 1e-8 max(1, epsilonK), w ascending."""
    return 1e-8 * max(1.0, float(w[-1]))


def _block_spectrum(oset: OperatorSet):
    """The eigenvalues of ``H_tot``, ascending, and its kernel columns (see
    :class:`SpectralData`), from independent pieces of ``H_tot``: each a
    matrix, whether its eigenvalues count twice (it and its adjoint), its
    known kernel column (or None), and the map of its eigenvectors to
    doubled-space columns.  The pieces are the weight classes of
    :func:`_weight_pieces` when it takes the set, and otherwise the blocks
    and block pairs of :func:`_pair_pieces`.
    """
    d, Cs = oset.dim, oset.components()
    V, B, blocks, mu = _invariant_blocks(Cs)
    pieces = (_weight_pieces(V, B, mu) if len(blocks) == 1 else None) or _pair_pieces(
        Cs, V, B, blocks)
    spectra = [np.linalg.eigvalsh(F) for F, _, _, _ in pieces]

    def union():
        return np.sort(np.concatenate([np.repeat(w, 2) if twice else w
                                       for w, (_, twice, _, _) in zip(spectra, pieces)]))

    # an eigh only where the kernel is more than the known one; its
    # eigenvalues replace eigvalsh's
    w = union()
    vectors = {}
    for i, (F, _, known, _) in enumerate(pieces):
        if np.count_nonzero(spectra[i] <= w[0] + _spectral_tol(w)) > (known is not None):
            spectra[i], vectors[i] = np.linalg.eigh(F)
    w = union()
    cut = w[0] + _spectral_tol(w)
    cols = []
    for i, (_, twice, known, lift) in enumerate(pieces):
        if i in vectors:
            X = lift(vectors[i][:, spectra[i] <= cut])
            cols.append(X)
            if twice:  # the adjoint of each column lies in the mirror piece
                cols.append(X.reshape(d, d, -1).conj().transpose(1, 0, 2).reshape(d * d, -1))
        elif known is not None:
            cols.append(known)
    return w, np.concatenate(cols, axis=1)


def _pair_pieces(Cs: np.ndarray, V: np.ndarray, B: np.ndarray, blocks) -> list:
    """Pieces of :func:`_block_spectrum` per block and block pair of the
    components Cs: a block (a, a) is the real form of its own components'
    ``H_tot``, of size d_a^2, with known kernel column vec(P_a)/sqrt(d_a),
    and a pair a < b the complex map Y -> (S_a Y + Y S_b)/2 - sum_C C_a Y C_b
    on d_a x d_b matrices (block a's left and block b's right terms), whose
    eigenvalues count twice (Y and Y^H)."""
    if len(blocks) == 1:  # no basis change: the real form of Cs themselves
        P = np.eye(len(V), dtype=complex).reshape(-1, 1) / math.sqrt(len(V))
        return [(_h_tot_form(Cs), False, P, _hermitian_vecs)]
    parts = [(P + P.conj().transpose(0, 2, 1)) / 2 for P in (B[:, i][:, :, i] for i in blocks)]
    terms = [_h_tot_terms(P) for P in parts]
    pieces = []
    for a, (La, _, w) in enumerate(terms):
        n = len(blocks[a])
        P = np.eye(n, dtype=complex).reshape(-1, 1) / math.sqrt(n)
        pieces.append((_h_tot_form(parts[a]), False, _lift(V, blocks, a, a, P),
                       lambda Y, a=a: _lift(V, blocks, a, a, _hermitian_vecs(Y))))
        for b in range(a + 1, len(blocks)):
            pieces.append((_kron_form(La, terms[b][1], w), True, None,
                           lambda Y, a=a, b=b: _lift(V, blocks, a, b, Y)))
    return pieces


# Relative levels of the weight-class check's fit residual and of its
# coefficients' symmetric part: rotated spin-j sets (d 12-28) read 1e-14
# and 5e-16, random Hermitian, Ginibre and Kraus sets about 1 and 0.2.
_WEIGHT_FIT = 1e-12

# Weights of ad_M closer than this, relative to max|mu|, share a class:
# merging costs time, and only splitting an eigenspace would be wrong.
_WEIGHT_MERGE = 1e-9


def _weight_pieces(V: np.ndarray, B: np.ndarray, mu: np.ndarray) -> Optional[list]:
    """Pieces of :func:`_block_spectrum` per weight class of ad_M, for
    M = V diag(mu) V^H the generic element, or None when ad_M is not shown
    to commute with ``H_tot`` or the classes would cost more than the real
    form's solve.

    The check fits [M, C_k] = sum_l A_kl C_l by least squares on the
    components' Gram matrix, in O(K^2 d^2): when the fit is exact and A is
    antisymmetric, [ad_M, sum_k ad_Ck^2] = sum_kl (A_kl + A_lk) ad_Cl ad_Ck
    vanishes, so each eigenspace W_w = span{V E_ab V^H : mu_a - mu_b = w} of
    ad_M is invariant.  A class w is the complex matrix
    <E_ce|H|E_ab> = sum_j w_j L_j[c, a] R_j[b, e] over its pairs, gathered
    from the terms of ``H_tot`` (:func:`_h_tot_terms`) of B_k = V^H C_k V.  A
    class w > 0 counts twice (X^H lies in W_-w), so w < 0 is not solved; the
    class of w = 0 holds vec(I)/sqrt(d), its known kernel column.
    """
    K, d = B.shape[:2]
    B = (B + B.conj().transpose(0, 2, 1)) / 2
    weight = mu[:, None] - mu
    flat, comm = B.reshape(K, d * d), (weight * B).reshape(K, d * d)
    G = (flat.conj() @ flat.T).real
    A = np.linalg.lstsq(G, (comm @ flat.conj().T).T, rcond=1e-10)[0].T
    if (np.abs(comm - A @ flat).max(initial=0.0) > _WEIGHT_FIT * np.abs(comm).max(initial=0.0)
            or np.abs(A + A.T).max(initial=0.0) > _WEIGHT_FIT * np.abs(A).max(initial=0.0)):
        return None
    omega = weight.ravel()
    order = np.argsort(omega, kind="stable")
    classes = np.split(order, np.flatnonzero(
        np.diff(omega[order]) > _WEIGHT_MERGE * np.abs(mu).max()) + 1)
    # the classes mirror about the one holding w = 0, so solve it and those above
    classes = [np.sort(c) for c in classes if omega[c].max() >= 0]
    if 4 * sum(len(c) ** 3 for c in classes) > d**6:
        return None  # complex solves dearer than the real form's, as at d = 1
    Ls, Rs, w = _h_tot_terms(B)

    def lift(c, Y):  # the class's coordinates are the entries c of Y's d x d matrix
        Z = np.zeros((d * d, Y.shape[1]), dtype=complex)
        Z[c] = Y
        return _lift(V, [np.arange(d)], 0, 0, Z)

    pieces = []
    for c in classes:
        a, b = np.divmod(c, d)
        ra, rb = a[:, None], b[:, None]
        F = sum(wj * L[ra, a] * R[b, rb] for wj, L, R in zip(w, Ls, Rs))
        zero = omega[c].min() <= 0
        known = np.eye(d, dtype=complex).reshape(-1, 1) / math.sqrt(d) if zero else None
        pieces.append((F, not zero, known, lambda Y, c=c: lift(c, Y)))
    return pieces


# Weights of the generic element sum_k r_k C_k: fixed, distinct and
# incommensurate (1 + the fractional part of k times the golden ratio).
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Link threshold, relative to max|C|.  Between invariant blocks the elements
# are rounding (median 1.3e-14 over 391 random reducible sets, d 6-32, in a
# random basis); near-equal eigenvalues of the generic element lifted 6 of
# them above 1e-12, and those blocks merged, which costs time, not accuracy.
_BLOCK_LINK = 1e-12


def _invariant_blocks(Cs: np.ndarray):
    """A unitary V, the components in its basis, V^H C V, index blocks of
    V's columns such that every component is block diagonal to within
    ``_BLOCK_LINK`` max|C|, and the eigenvalues mu of the generic element
    M = V diag(mu) V^H.

    V holds the eigenvectors of one fixed generic real combination of the
    components, the random-element step of Murota, Kanno, Kojima and Kojima
    (Japan J. Indust. Appl. Math. 27, 2010).  Two columns are linked when
    some component couples them, and the blocks are the connected
    components of the links: O(K d^3), nothing of size d^2.
    """
    K, d = Cs.shape[:2]
    r = 1.0 + (np.arange(1, K + 1) * _GOLDEN) % 1.0
    mu, V = np.linalg.eigh(np.tensordot(r, Cs, axes=1))
    B = V.conj().T @ Cs @ V
    link = np.any(np.abs(B) > _BLOCK_LINK * np.abs(Cs).max(initial=0.0), axis=0)
    reach = link | link.T | np.eye(d, dtype=bool)
    while True:
        grown = reach @ reach
        if np.array_equal(grown, reach):
            break
        reach = grown
    # a column starts its block when it is the block's smallest index
    starts = np.flatnonzero(reach.argmax(axis=1) == np.arange(d))
    return V, B, [np.flatnonzero(reach[i]) for i in starts], mu


def _lift(V: np.ndarray, blocks, a: int, b: int, Y: np.ndarray) -> np.ndarray:
    """vec(V_a Y V_b^H) for each column of Y, a row-major vec of a
    d_a x d_b matrix; V_a are the columns of V in block a."""
    Va, Vb = V[:, blocks[a]], V[:, blocks[b]]
    Ys = Y.T.reshape(-1, Va.shape[1], Vb.shape[1])
    return (Va @ Ys @ Vb.conj().T).reshape(len(Ys), -1).T


def _h_tot_terms(Cs: np.ndarray):
    """Terms (L_j, R_j, w_j) of H_tot as the map X -> sum_j w_j L_j X R_j
    on d x d matrices: sum_C [C, [C, X]]/2 = (S X + X S)/2 - sum_C C X C,
    S = sum_C C^2, so L = [C..., S, I], R = [C..., I, S], w = [-1..., 1/2, 1/2]."""
    K, d = Cs.shape[:2]
    S, I = _square_sum(Cs)[None], np.eye(d, dtype=complex)[None]
    return (np.concatenate([Cs, S, I]), np.concatenate([Cs, I, S]),
            np.array([-1.0] * K + [0.5, 0.5]))


def _sandwich_form(Ls: np.ndarray, Rs: np.ndarray, w) -> np.ndarray:
    """Real symmetric matrix of X -> sum_j w_j L_j X R_j, for terms whose sum
    maps Hermitian X to Hermitian matrices and is self-adjoint.

    The basis is the natural-layout orthonormal Hermitian basis: X has the
    row-major coordinates y_aa = X_aa and, for a < b, y_ab = sqrt(2) Re X_ab
    and y_ba = sqrt(2) Im X_ab.  With the map's tensor
    T[p, q, a, b] = sum_j w_j L_j[p, a] R_j[b, q], row (p, q) reads U = T
    (p <= q) or iT (p > q), and column (a, b) reads Re(U + U^T) (a <= b) or
    Im(U - U^T) (a > b), ^T over (a, b).  With L = P + iQ and R = P' + iQ',
    the block of rows p is one real rank-2J product, whose right factor
    carries the row's phase and scale, two axis transposes and np.where
    masks: O(d^3) temporaries, and no d^2 x d^2 array but the result.
    """
    J, d = Ls.shape[:2]
    w = np.asarray(w, dtype=float)[:, None, None]
    wP, wQ = w * Rs.real, w * Rs.imag
    left = np.concatenate([Ls.real, Ls.imag]).reshape(2 * J, d * d).T  # [(p, a), 2J]
    # right factors of Re T = sum w (PP' - QQ') and Im T = sum w (PQ' + QP')
    re, im = np.concatenate([wP, -wQ]), np.concatenate([wQ, wP])
    U, iU = np.stack([re, im], axis=1), np.stack([-im, re], axis=1)  # [2J, Re|Im, b, q]
    q = np.arange(d)
    upper, r2 = (q[:, None] <= q)[:, :, None], math.sqrt(2.0)  # a <= b
    R = np.empty((d * d, d * d))
    for p in range(d):
        # sqrt(2) row scale times the 1/sqrt(2) column scale, 1/sqrt(2) at q = p
        right = np.where(q >= p, U, iU) * np.where(q == p, 1 / r2, 1.0)
        T = (left[p * d:(p + 1) * d] @ right.reshape(2 * J, -1)).reshape(d, 2, d, d)
        u, v = T[:, 0], T[:, 1]  # Re U, Im U as [a, b, q]
        W = np.where(upper, u + u.transpose(1, 0, 2), v - v.transpose(1, 0, 2))
        W.reshape(d * d, d)[::d + 1] /= r2  # the (a, a) columns read T, not T + T^T
        R[p * d:(p + 1) * d].reshape(d, d, d)[...] = W.transpose(2, 0, 1)
    return R


def _h_tot_form(Cs: np.ndarray) -> np.ndarray:
    """Real form of H_tot of the components Cs."""
    return _sandwich_form(*_h_tot_terms(Cs))


def _kron_form(Ls: np.ndarray, Rs: np.ndarray, w) -> np.ndarray:
    """sum_j w_j L_j (x) R_j^T, the complex matrix of Y -> sum_j w_j L_j Y R_j
    on row-major vecs of m x n matrices Y, for m x m L_j and n x n R_j."""
    J, m, n = len(Ls), Ls.shape[1], Rs.shape[1]
    wL = np.asarray(w, dtype=float)[:, None, None] * Ls
    # one rank-J product of the vecs, [(i,j),(b,a)], regrouped to [(i,a),(j,b)]
    G = wL.reshape(J, m * m).T @ Rs.reshape(J, n * n)
    return G.reshape(m, m, n, n).transpose(0, 3, 1, 2).reshape(m * n, m * n)


def _hermitian_vecs(V: np.ndarray) -> np.ndarray:
    """Row-major vecs of the Hermitian matrices whose natural-layout
    coordinates (see :func:`_sandwich_form`) are the columns of the real V."""
    d, r2 = math.isqrt(V.shape[0]), math.sqrt(2.0)
    Y = V.reshape(d, d, -1)
    Yt, (p, q) = Y.transpose(1, 0, 2), np.indices((d, d, 1))[:2]
    # X_ab = (y_ab + i y_ba)/sqrt(2) for a < b, and X_ba its conjugate
    X = np.where(p < q, Y + 1j * Yt, np.where(p > q, Yt - 1j * Y, r2 * Y)) / r2
    return X.reshape(d * d, -1)


def _as_set(ops) -> OperatorSet:
    if isinstance(ops, OperatorSet):
        return ops
    return OperatorSet(tuple(ops))


@dataclass(frozen=True, eq=False)
class EmbeddingVectors:
    """Unnormalized doubled-space vectors carrying the skew bilinear form."""

    phi_s: np.ndarray
    phi_1ms: np.ndarray
    norms: tuple  # (<phi_s|phi_s>, <phi_1ms|phi_1ms>) = (Tr rho^2s, Tr rho^(2-2s))


@dataclass(frozen=True, eq=False)
class SpectralBound:
    """Result of a spectral lower bound on a sum of skew informations.

    ``interval`` is [0, epsilonK (1 - ||P_ker phi||^2)] at phi = vec(sqrt(rho)),
    which encloses the symmetric skew sum at this state.  ``feasible`` tells
    whether :func:`bound_wyd` found a feasible reference state (else its
    bound is 0); :func:`bound_wy` needs none.  For a DensityStack ``bound``,
    the upper end of ``interval`` and ``feasible`` hold one entry per state.
    """

    epsilon1: float
    epsilonK: float
    bound: float
    kernel_dim: int
    interval: tuple
    feasible: object = True


def _check_s(s: float) -> None:
    if not 0 < s < 1:
        raise DomainError(f"s must lie in (0, 1), got {s}")


def embedding(rho: DensityOperator, s: float) -> EmbeddingVectors:
    """Row-major vec(rho^s) = sum_i lambda_i^s |i>|i*>, and vec(rho^(1-s)); a
    DensityStack gives one row and one pair of norms per state."""
    _check_s(s)
    w = rho.eigenvalues
    norms = (np.sum(w ** (2 * s), axis=-1), np.sum(w ** (2 * (1 - s)), axis=-1))
    vecs = w.shape[:-1] + (-1,)
    return EmbeddingVectors(
        phi_s=matrix_power(rho, s).reshape(vecs),
        phi_1ms=matrix_power(rho, 1 - s).reshape(vecs),
        norms=norms,
    )


def _square_sum(Cs: np.ndarray) -> np.ndarray:
    """S = sum_C C^2 of a (K, d, d) stack."""
    S = np.sum(Cs @ Cs, axis=0)
    # matmul rounds S[i, j] and S[j, i] differently; symmetrize so that
    # H_tot is Hermitian to the last bit
    return (S + S.conj().T) / 2


def _apply_h_tot(oset: OperatorSet, X: np.ndarray) -> np.ndarray:
    """H_tot vec(X) = vec(sum_C [C, [C, X]]/2) = vec((S X + X S)/2 - sum_C C X C),
    applied to the d x d matrix X, or to each matrix of a stack, in O(K d^3)."""
    S = oset._record.square_sum
    HX = (S @ X + X @ S) / 2 - sum(C @ X @ C for C in oset.components())
    return HX.reshape(X.shape[:-2] + (-1,))


def h_tot(ops, pairing: str = "transpose") -> np.ndarray:
    """PSD total operator: sum of squared generators of all split parts.

    With S = sum_C C^2 and C^p = C^T (transpose pairing) or C (plain), it is
    (S (x) I + I (x) S^p)/2 - sum_C C (x) C^p; on vec(X) the transpose form
    acts as X -> sum_C [C, [C, X]]/2.
    """
    if pairing not in ("transpose", "plain"):
        raise DomainError(f"unknown pairing {pairing!r}")
    form = _kron_form if pairing == "transpose" else _plain_form
    return form(*_h_tot_terms(_as_set(ops).components()))


def _plain_form(Ls: np.ndarray, Rs: np.ndarray, w) -> np.ndarray:
    """sum_j w_j L_j (x) R_j, the plain pairing's matrix of the terms of
    X -> sum_j w_j L_j X R_j: their transpose-pairing form with each R_j^T."""
    return _kron_form(Ls, Rs.transpose(0, 2, 1), w)


def _spectral(ops, rho: DensityOperator) -> SpectralData:
    oset = _as_set(ops)
    if oset.dim != rho.dim:
        raise DimensionMismatch("operator and state dimensions differ")
    return oset.spectral()


def _unit(v: np.ndarray, norm2, out=None) -> np.ndarray:
    """v / sqrt(norm2) for a vector, or row by row for a stack."""
    return np.divide(v, np.sqrt(np.maximum(norm2, 1e-300))[..., None], out=out)


def _half_weight(spec: SpectralData, rho: DensityOperator):
    """||P_ker phi||^2 at the unit vector phi = vec(sqrt(rho)), one per state."""
    phi = matrix_power(rho, 0.5).reshape(rho.eigenvalues.shape[:-1] + (-1,))
    return spec.kernel_weight(_unit(phi, np.sum(rho.eigenvalues, axis=-1)))


def _result(spec: SpectralData, bound, ov2, feasible=True) -> SpectralBound:
    return SpectralBound(
        epsilon1=spec.epsilon1,
        epsilonK=spec.epsilonK,
        bound=np.maximum(bound, 0.0),
        kernel_dim=spec.kernel_dim,
        interval=(0.0, np.maximum(spec.epsilonK * (1.0 - ov2), 0.0)),
        feasible=feasible,
    )


def bound_wy(ops, rho: DensityOperator) -> SpectralBound:
    """Lower bound eps1 (1 - ||P_ker phi||^2) on sum_k I_rho(A_k) at s = 1/2.

    phi = vec(sqrt(rho)) is a unit vector with <phi|H_tot|phi> equal to the
    skew sum, and H_tot >= eps1 (1 - P_ker) because H_tot is PSD.  The bound
    therefore holds for every operator set, reducible ones included.  It
    also bounds every sum of generalized skews, whatever the mean orders,
    because each generalized skew dominates the symmetric skew information.
    A DensityStack gets all its bounds from one stacked evaluation, each
    equal to the state's own.
    """
    spec = _spectral(ops, rho)
    ov2 = _half_weight(spec, rho)
    return _result(spec, spec.epsilon1 * (1.0 - ov2), ov2)


_CHI_OVERLAP_FLOOR = 1e-14


def _dot(u: np.ndarray, v: np.ndarray):
    """sum_i u_i v_i of each pair of rows, one BLAS dot per row (<u|v> as
    np.vdot takes it is _dot(u.conj(), v))."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _norm(v: np.ndarray):
    """||v|| of each row, from the BLAS dots np.linalg.norm takes on one vector
    (of the real and of the imaginary parts, in one call)."""
    parts = v.view(float).reshape(v.shape + (2,)).swapaxes(-1, -2)
    sq = _dot(parts, parts)
    return np.sqrt(sq[..., 0] + sq[..., 1])


def _feasible_f(chi, refs):
    """(f(tau1, tau2), feasible) of each row's reference state chi against
    the pair (ref1, ref2) on the second-to-last axis of ``refs``, f = 0 where
    infeasible and f > 0 where feasible.

    The minimal feasible tau_i is the Gram-Schmidt residual
    ||ref_i - <chi|ref_i> chi|| / |<chi|ref_i>| (= sqrt(1/|<chi|ref_i>|^2 - 1)
    for unit vectors, without its cancellation near overlap 1); f decreases
    in each argument on the feasible region, so the minimal pair maximizes f.
    Both overlaps come from one call, and both residuals in one buffer.
    """
    o = _dot(chi.conj()[..., None, :], refs)
    a = np.abs(o)
    ok = a ** 2 >= _CHI_OVERLAP_FLOOR
    ok = ok[..., 0] & ok[..., 1]
    r = o[..., 0, None] * chi
    t1 = _norm(np.subtract(refs[..., 0, :], r, out=r)) / np.where(ok, a[..., 0], 1.0)  # no 0/0
    np.multiply(o[..., 1, None], chi, out=r)
    t2 = _norm(np.subtract(refs[..., 1, :], r, out=r)) / np.where(ok, a[..., 1], 1.0)
    tt = t1 * t2
    ok &= tt < 1.0
    return np.where(ok, (1.0 - tt) / ((1.0 + t1 * t1) * (1.0 + t2 * t2)), 0.0), ok


def _in_slices(f, n: int, per: int) -> tuple:
    """The arrays of f(i, i + per) for i in range(0, n, per), each joined
    along its last axis (no copy for one slice)."""
    parts = [f(i, i + per) for i in range(0, n, per)]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(x, axis=-1) for x in zip(*parts))


def _wyd_rows(oset: OperatorSet, spec: SpectralData, rho, s: float, extra: np.ndarray):
    """(bound, feasible, ||P_ker vec(sqrt(rho))||^2) of :func:`bound_wyd` at
    each state of the stack ``rho``."""
    n, d, w = len(rho), rho.dim, rho.eigenvalues
    # rho^(1/2), rho^s and rho^(1-s) from one stacked power, and their squared
    # norms Tr rho, Tr rho^2s and Tr rho^(2-2s)
    P = _powers(rho, np.array([[0.5], [s], [1 - s]]))
    norms = np.array([w.sum(axis=-1), (w ** (2 * s)).sum(axis=-1),
                      (w ** (2 * (1 - s))).sum(axis=-1)])
    # row 0 is the unit vec(sqrt(rho)); from row 1 on, the candidates chi,
    # written in place: ref1 of the two branches (the unit embeddings), ref2
    # of the two branches, vec(I)/sqrt(d) and the extra ones
    rows = np.empty((6 + len(extra), n, d * d), dtype=complex)
    chi = rows[1:]
    _unit(P.reshape(3, n, -1), norms, out=rows[:3])
    weights = spec.kernel_weight(rows[:3])
    # ref2 is H_tot phi_(1-s) or H_tot phi_s normalized, its factor
    # ||(1 - P_ker) phi|| of the other unit embedding, since ||H phi|| >= eps1
    # ||(1 - P_ker) phi|| for a unit vector phi; a vanishing H_tot phi gives
    # ref2 = 0, which no chi overlaps
    Hv = _apply_h_tot(oset, P[2:0:-1])
    Hn = _norm(Hv)
    np.divide(Hv, np.where(Hn > 1e-12, Hn, np.inf)[..., None], out=chi[2:4])
    fac = np.sqrt(1.0 - weights[2:0:-1])
    chi[4], chi[5:] = oset._record.identity_row, extra[:, None]
    # every candidate (axis 0) against both branches (axis 1) in one pass per
    # slice of states whose (candidates, 2, states, d^2) temporaries hold
    # _ROW_BYTES; refs[b, i] is the pair (ref1, ref2) of branch b at state i
    refs = chi[:4].reshape(2, 2, n, -1).transpose(1, 2, 0, 3)
    per = max(1, _ROW_BYTES // (32 * len(chi) * d * d))
    f, ok = _in_slices(lambda i, j: _feasible_f(chi[:, None, i:j], refs[:, i:j]), n, per)
    best = np.maximum(0.0, f * fac * np.sqrt(norms[1] * norms[2]) * spec.epsilon1)
    return best.reshape(-1, n).max(axis=0), ok.reshape(-1, n).any(axis=0), weights[0]


def bound_wyd(
    ops,
    rho: DensityOperator,
    s: float,
    chi_candidates: Optional[Sequence[np.ndarray]] = None,
) -> SpectralBound:
    """Lower bound on sum_k I^s_rho(A_k) for s != 1/2.

    The bilinear form is no longer an expectation value, so the spectral
    bound is filtered through a reverse Cauchy-Schwarz factor built from
    reference states chi.  The default candidates each collapse one overlap
    to 1; callers may supply more, each a nonzero vector of d^2 entries
    (DimensionMismatch or DomainError otherwise, before any solve).  A state
    for which every candidate is infeasible gets bound 0, with one warning
    per call.  H_tot vec(rho^s) and H_tot vec(rho^(1-s)) are applied as maps
    on d x d matrices, so only the set's spectral data are needed on the
    doubled space; S = sum_C C^2, vec(I)/sqrt(d) and the conjugated kernel
    are built once per set.  A DensityStack gets its bounds from a few
    stacked calls per chunk of states, each bound equal to the state's own.
    """
    _check_s(s)
    if abs(s - 0.5) < 1e-12:
        raise DomainError("s = 1/2 has an exact spectral bound; use bound_wy")
    oset = _as_set(ops)
    d = rho.dim
    extra = []
    for chi in chi_candidates or ():
        v = np.asarray(chi, dtype=complex).ravel()
        if v.size != d * d:
            raise DimensionMismatch(f"chi candidate has {v.size} entries, need {d * d}")
        n = np.linalg.norm(v)
        if n == 0:
            raise DomainError("chi candidate is the zero vector")
        extra.append(v / n)
    extra = np.array(extra, dtype=complex).reshape(-1, d * d)
    spec = _spectral(oset, rho)
    stack = rho if isinstance(rho, DensityStack) else DensityStack(
        rho.matrix[None], rho.eigenvalues[None], rho.eigenvectors[None])
    # chunks of n states whose candidate rows, one (n, d^2) array for each
    # of the 5 default and the extra candidates, hold _STACK_BYTES at most
    per = max(1, _STACK_BYTES // (16 * d * d * (5 + len(extra))))
    best, feasible, ov2 = _in_slices(lambda i, j: _wyd_rows(oset, spec, DensityStack(
        stack.matrix[i:j], stack.eigenvalues[i:j], stack.eigenvectors[i:j]), s, extra),
        len(stack), per)
    if not feasible.all():
        warnings.warn(
            "no feasible reference state for some state; reporting bound 0 there",
            NoFeasibleChiWarning,
            stacklevel=2,
        )
    if stack is not rho:
        best, feasible, ov2 = best[0], feasible[0], ov2[0]
    return _result(spec, best, ov2, feasible)


def tighten_alpha_scan(
    ops,
    grid_points: int = 201,
    pairing: str = "transpose",
) -> float:
    """Pure-state variance floor from shifted-operator ground eigenvalues.

    For each component C of the set and shift alpha in its eigenvalue range the
    operator ``H_tot + (C - alpha) (x) (C - alpha)^T`` (transpose pairing; the
    plain pairing drops the transpose) is PSD, and its ground eigenvalue
    bounds the pure-state variance sum on the slice <C> = alpha.  Minimizing
    over the grid and maximizing over components tightens the plain ground
    eigenvalue.  The grid is a documented approximation of the continuum
    minimum.

    The shifted operator is A - alpha B + alpha^2 I with A - H_tot the map
    X -> C X C and B the map X -> C X + X C, built once per component from
    their terms by the pairing's builder; the grid goes to stacked
    ``eigvalsh`` calls of at most ``_STACK_BYTES`` (16 MB) each.  The
    transpose pairing builds real forms (``H_tot``'s too) and starts from 0,
    the ground eigenvalue of ``H_tot`` (vec(I) is in its kernel).  The plain
    pairing does not preserve Hermiticity; it builds complex matrices, its
    own ``H_tot`` too, and starts from that one's ground eigenvalue.  Floors
    are cached per operator content, process-wide, for the last 32 sets, and
    per (pairing, grid_points).
    """
    if grid_points < 2:
        raise DomainError("grid_points must be at least 2")
    if pairing not in ("transpose", "plain"):
        raise DomainError(f"unknown pairing {pairing!r}")
    oset = _as_set(ops)
    scans = oset._record.scans
    key = (pairing, grid_points)
    if key in scans:
        return scans[key]
    if pairing == "transpose":
        H, best, form = _h_tot_form(oset.components()), 0.0, _sandwich_form
    else:
        H, form = h_tot(oset, pairing=pairing), _plain_form
        best = max(float(np.linalg.eigvalsh(H)[0]), 0.0)
    I = np.eye(oset.dim)
    for C in oset.components():
        evs = np.linalg.eigvalsh(C)
        lo, hi = float(evs[0]), float(evs[-1])
        A = form(C[None], C[None], [1.0])
        B = form(np.stack([C, I]), np.stack([I, C]), [1.0, 1.0])
        A += H
        best = max(best, _scan_floor(A, B, np.linspace(lo, hi, grid_points)))
        del A, B  # the next component's are not built beside them
    scans[key] = best
    return best


def _scan_floor(A: np.ndarray, B: np.ndarray, alphas: np.ndarray) -> float:
    """min over alphas of the ground eigenvalue of A - alpha B + alpha^2 I."""
    n = A.shape[0]
    diag = np.arange(n)
    per = max(1, _STACK_BYTES // A.nbytes)
    floor = math.inf
    for start in range(0, alphas.size, per):
        a = alphas[start:start + per, None, None]
        M = a * B
        np.subtract(A, M, out=M)
        M[:, diag, diag] += a[:, :, 0] ** 2
        floor = min(floor, float(np.linalg.eigvalsh(M)[:, 0].min()))
    return floor


def pure_variance_bound(ops, grid_points: int = 201) -> float:
    """State-independent floor of sum_k <dA_k>^2 over pure states.

    Uses the plain-pairing machinery (valid for the unconjugated doubling
    |psi>|psi>), whose scan is frequently tighter than the transpose form for
    pure-state variance sums.
    """
    return tighten_alpha_scan(ops, grid_points=grid_points, pairing="plain")


@rowwise
def _sum_value(rows, ops, rho, s_or_order, tol):
    """sum_k of each operator's skew: ``wyd_skew`` at a float s in (0, 1),
    ``gen_skew`` at any other float, a MeanOrder or a list of one order per
    operator.  One ``_skew_kernel`` call takes all K operators as a
    (K, 1, d, d) stack, with the bits of the K calls summed in order."""
    oset, eigs = _as_set(ops), rho.eigenvalues
    if isinstance(s_or_order, (list, tuple)):
        orders = [as_mean_order(o) for o in s_or_order]
        if len(orders) != len(oset.operators):
            raise DomainError("need one mean order per operator")
        G = np.stack([_mean_gaps(eigs, o, tol.tol_psd) for o in orders])
    elif isinstance(s_or_order, MeanOrder) or not 0 < float(s_or_order) < 1:
        G = _mean_gaps(eigs, as_mean_order(s_or_order), tol.tol_psd)
    else:
        G = _wyd_gaps(eigs, float(s_or_order))
    return sum(_skew_kernel(np.array(oset.operators)[:, None], rho, G))


def sample_stacks(dim: int, samples: int, seed, ranks: Optional[Sequence[int]] = None):
    """Iterator over DensityStacks holding ``samples`` Hilbert-Schmidt states
    drawn from one stream.

    Each state's rank is drawn uniformly from ``ranks`` (default: 1..dim),
    then its Ginibre matrix; everything comes from
    ``np.random.default_rng(seed)`` in that per-state order, so a fixed seed
    gives the same states to every caller.  A stack of at most ``_STACK_BYTES``
    (16 MB) of matrices is built one rank at a time and validated with one
    stacked ``eigh``, each state bit for bit as built and decomposed alone.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rank_pool = tuple(ranks) if ranks else tuple(range(1, dim + 1))
    for r in rank_pool:
        if not 1 <= r <= dim:
            raise DomainError(f"rank {r} outside [1, {dim}]")
    rng = np.random.default_rng(seed)
    per = max(1, _STACK_BYTES // (16 * dim * dim))

    def draw(n: int):
        return density_stack(_ginibre_states([
            rng.normal(size=(2, dim, int(rank_pool[rng.integers(len(rank_pool))])))
            for _ in range(n)
        ]))

    return (draw(min(per, samples - start)) for start in range(0, samples, per))


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
    States come from :func:`sample_stacks`, so the result is deterministic
    for a fixed seed; each stack's skew sums come from one stacked kernel
    evaluation of all operators, equal to the per-state values.
    """
    sums = _sampled_sums(ops, s_or_order, samples, seed, ranks, tol)
    return min(float(np.min(t)) for _, t in sums)


def _sampled_sums(ops, s_or_order, samples: int, seed, ranks=None, tol=DEFAULT_TOL):
    """(stack, skew sums) for each DensityStack of :func:`sample_stacks`, the
    sums those of :func:`empirical_minimum`: the one sampling oracle."""
    oset = _as_set(ops)
    for rhos in sample_stacks(oset.dim, samples, seed, ranks):
        yield rhos, _sum_value(oset, rhos, s_or_order, tol)


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
    pure-state variance floors of the two local operator sets, cached per
    operator content; a violation certifies entanglement.  ``tol`` enters
    the variances and the violation margin.
    """
    setA, setB = _as_set(opsA), _as_set(opsB)
    if len(setA.operators) != len(setB.operators):
        raise DimensionMismatch("need equally many operators on each side")
    dA, dB = setA.dim, setB.dim
    if rho_AB.dim != dA * dB:
        raise DimensionMismatch(f"state dim {rho_AB.dim} != {dA}*{dB}")
    IA, IB = np.eye(dA), np.eye(dB)
    lhs = 0.0
    for A, B in zip(setA.operators, setB.operators):
        joint = np.kron(A, IB) + np.kron(IA, B)
        lhs += variance(joint, rho_AB, tol)
    threshold = pure_variance_bound(setA, grid_points) + pure_variance_bound(setB, grid_points)
    return WitnessResult(
        lhs=float(lhs),
        threshold=float(threshold),
        violated=bool(lhs < threshold - tol.tol_residual),
    )
