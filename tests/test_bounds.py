import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbound import (
    DimensionMismatch,
    DomainError,
    OperatorSet,
    bound_wy,
    bound_wyd,
    density,
    density_stack,
    embedding,
    empirical_minimum,
    gen_skew,
    h_tot,
    hermitian_eigen,
    maximally_mixed,
    partial_trace_second,
    pure_state,
    pure_variance_bound,
    random_density,
    random_hermitian,
    random_operator,
    random_pure_vector,
    separability_witness,
    sqrt_trace,
    tighten_alpha_scan,
    Tolerances,
    variance,
    wyd_skew,
)
from conftest import SX, SZ, four_3x3_ops, four_qubit_ops, spin_ops
from skewbound import bounds, linalg, moments
from skewbound.bounds import _feasible_f
from skewbound.errors import NoFeasibleChiWarning
from skewbound.linalg import DensityStack

RHO37 = density(np.diag([0.3, 0.7]))


def _h_tot_kron(ops, pairing="transpose"):
    """Reference H_tot: the sum of squared kron generators (C (x) I - I (x) C^p)/sqrt(2)."""
    oset = OperatorSet(tuple(ops))
    d = oset.dim
    I = np.eye(d)
    H = np.zeros((d * d, d * d), dtype=complex)
    for C in oset.components():
        pair = C.T if pairing == "transpose" else C
        Hk = (np.kron(C, I) - np.kron(I, pair)) / math.sqrt(2)
        H += Hk @ Hk
    return H


class TestEmbedding:
    def test_pure_state(self):
        v = np.array([1, 1j]) / math.sqrt(2)
        emb = embedding(pure_state(v), 0.3)
        expect = np.kron(v, v.conj())
        # phase freedom: compare projectors
        got = np.outer(emb.phi_s, emb.phi_s.conj())
        np.testing.assert_allclose(got, np.outer(expect, expect.conj()), atol=1e-10)
        np.testing.assert_allclose(emb.phi_s, emb.phi_1ms, atol=1e-12)

    def test_maximally_mixed_half(self):
        emb = embedding(maximally_mixed(2), 0.5)
        assert emb.norms[0] == pytest.approx(1.0, abs=1e-12)
        # maximally entangled: reduced state of the vector is I/2
        red = partial_trace_second(np.outer(emb.phi_s, emb.phi_s.conj()), (2, 2))
        np.testing.assert_allclose(red, np.eye(2) / 2, atol=1e-12)

    def test_norms(self):
        emb = embedding(RHO37, 0.3)
        assert emb.norms[0] == pytest.approx(0.3**0.6 + 0.7**0.6, abs=1e-12)
        assert emb.norms[1] == pytest.approx(0.3**1.4 + 0.7**1.4, abs=1e-12)
        # cross overlap is Tr rho = 1
        assert np.vdot(emb.phi_s, emb.phi_1ms) == pytest.approx(1.0, abs=1e-12)

    def test_identity_carries_skew(self, rng):
        # <phi_s| H_A^dag H_A |phi_1ms> = I^s for arbitrary operators
        for _ in range(50):
            d = int(rng.integers(2, 5))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            A = random_operator(d, rng)
            s = float(rng.uniform(0.05, 0.95))
            emb = embedding(rho, s)
            I = np.eye(d)
            H = (np.kron(A, I) - np.kron(I, A.T)) / math.sqrt(2)
            got = (emb.phi_s.conj() @ (H.conj().T @ H) @ emb.phi_1ms).real
            assert abs(got - wyd_skew(A, rho, s)) < 1e-9


class TestHTot:
    def test_identity_maps_to_zero(self):
        np.testing.assert_allclose(h_tot([np.eye(3)]), np.zeros((9, 9)), atol=1e-14)

    def test_pauli_z_spectrum(self):
        evs = np.linalg.eigvalsh(h_tot([SZ]))
        np.testing.assert_allclose(evs, [0, 0, 2, 2], atol=1e-12)

    def test_kernel_contains_conjugate_pairs(self, rng):
        A = random_hermitian(4, rng)
        w, V = hermitian_eigen(A)
        H = h_tot([A])
        for i in range(4):
            vec = np.kron(V[:, i], V[:, i].conj())
            assert np.linalg.norm(H @ vec) < 1e-10

    def test_single_hermitian(self, rng):
        A = random_hermitian(3, rng)
        np.testing.assert_allclose(h_tot([A]), _h_tot_kron([A]), atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 6),
        n_ops=st.integers(1, 4),
        pairing=st.sampled_from(["transpose", "plain"]),
    )
    def test_matches_kron_reference(self, seed, d, n_ops, pairing):
        rng = np.random.default_rng(seed)
        ops = [random_operator(d, rng) for _ in range(n_ops)]
        np.testing.assert_allclose(
            h_tot(ops, pairing), _h_tot_kron(ops, pairing), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("pairing", ["transpose", "plain"])
    def test_exactly_hermitian_at_large_scale(self, rng, pairing):
        # entries ~1e7: H_tot is Hermitian to the last bit at any scale
        for make in (random_hermitian, random_operator):
            ops = [1e3 * make(6, rng) for _ in range(3)]
            H = h_tot(ops, pairing)
            np.testing.assert_array_equal(H, H.conj().T)
        rho = random_density(6, 6, rng)
        assert bound_wy(ops, rho).bound <= sum(wyd_skew(A, rho, 0.5) for A in ops)

    def test_kron_form_of_a_rectangular_pair(self, rng):
        # Y -> sum_j w_j L_j Y R_j on 2 x 3 matrices Y
        Ls = np.array([random_operator(2, rng) for _ in range(3)])
        Rs = np.array([random_operator(3, rng) for _ in range(3)])
        w = [-1.0, 0.5, 2.0]
        F = bounds._kron_form(Ls, Rs, w)
        want = sum(wj * np.kron(L, R.T) for wj, L, R in zip(w, Ls, Rs))
        np.testing.assert_allclose(F, want, rtol=0, atol=1e-13)
        Y = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        LYR = sum(wj * L @ Y @ R for wj, L, R in zip(w, Ls, Rs))
        np.testing.assert_allclose(F @ Y.ravel(), LYR.ravel(), rtol=0, atol=1e-13)

    def test_kron_form_of_the_plain_term_list(self, rng):
        oset = OperatorSet((random_operator(3, rng), random_hermitian(3, rng)))
        Cs, I = oset.components(), np.eye(3)
        Ls, Rs, w = bounds._h_tot_terms(Cs)
        S = bounds._square_sum(Cs)
        want = (np.kron(S, I) + np.kron(I, S)) / 2 - sum(np.kron(C, C) for C in Cs)
        F = bounds._kron_form(Ls, Rs.transpose(0, 2, 1), w)
        np.testing.assert_allclose(F, want, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(F, h_tot(oset, "plain"))

    def test_spin_sets_eigenvalues(self):
        for j in (0.5, 1):
            H = h_tot(spin_ops(j))
            evs = np.linalg.eigvalsh(H)
            assert abs(evs[0]) < 1e-10
            assert abs(evs[evs > 1e-8][0] - 1) < 1e-10

    def test_unknown_pairing_rejected(self):
        with pytest.raises(DomainError, match="pairing"):
            h_tot([SX], "transpos")

    def test_bilinear_form_is_skew_sum(self, rng):
        ops = OperatorSet(tuple(random_operator(3, rng) for _ in range(3)))
        H = h_tot(ops)
        for _ in range(10):
            rho = random_density(3, int(rng.integers(1, 4)), rng)
            s = float(rng.uniform(0.1, 0.9))
            emb = embedding(rho, s)
            got = (emb.phi_s.conj() @ H @ emb.phi_1ms).real
            want = sum(wyd_skew(A, rho, s) for A in ops.operators)
            assert abs(got - want) < 1e-9


class TestComponents:
    """A set keeps the split parts that define H_tot, stacked once into one
    read-only array; a multiple of I has ad_{cI} = 0 and is dropped."""

    def test_one_read_only_stack_in_split_order(self, rng):
        A, H = random_operator(3, rng), random_hermitian(3, rng)
        oset = OperatorSet((A, H + 2j * np.eye(3)))  # the latter's anti-Hermitian part is 2I
        Cs = oset.components()
        parts = [(A + A.conj().T) / 2, -0.5j * (A - A.conj().T), H]
        # each less its trace part: ad_{C + cI} = ad_C
        want = [C - np.trace(C).real / 3 * np.eye(3) for C in parts]
        assert Cs.shape == (3, 3, 3) and Cs.flags.c_contiguous and not Cs.flags.writeable
        np.testing.assert_allclose(np.trace(Cs, axis1=1, axis2=2), 0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(Cs, want, rtol=0, atol=1e-15)
        assert oset.components() is Cs

    @pytest.mark.parametrize("c", [1e3, 1e5, 1e7])
    def test_scalar_offset_keeps_epsilon1(self, c):
        # the components are traceless, so a large c I costs only the
        # rounding of H + c I itself
        ops = [random_hermitian(6, np.random.default_rng(seed)) for seed in (31, 32, 33)]
        want = OperatorSet(tuple(ops)).spectral()
        got = OperatorSet(tuple(H + c * np.eye(6) for H in ops)).spectral()
        assert abs(got.epsilon1 - want.epsilon1) <= 1e-9 * max(1.0, want.epsilonK)
        assert (got.kernel_dim, got.epsilon1_multiplicity) == (
            want.kernel_dim, want.epsilon1_multiplicity)

    def test_shifted_lie_closed_set_takes_weight_classes(self):
        assert _weight_path(OperatorSet(tuple(S + 3.0 * np.eye(3) for S in spin_ops(1))))

    @pytest.mark.parametrize("d", [1, 3])
    def test_scalar_set_has_zero_spectrum(self, d, rng):
        oset = OperatorSet((1.5 * np.eye(d),))
        assert oset.components().shape == (0, d, d)
        spec = oset.spectral()
        assert (spec.epsilon1, spec.epsilonK) == (0.0, 0.0)
        sb = bound_wy(oset, random_density(d, d, rng))
        assert (sb.bound, *sb.interval) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("d", [2, 5])
    def test_appended_identity_changes_nothing(self, d, rng):
        ops = [random_operator(d, rng), random_hermitian(d, rng)]
        plain, padded = OperatorSet(tuple(ops)), OperatorSet(tuple(ops + [2.5 * np.eye(d)]))
        assert padded != plain  # other content, its own record and solve
        assert padded.components().shape == plain.components().shape
        assert padded.components().tobytes() == plain.components().tobytes()
        a, b = plain.spectral(), padded.spectral()
        assert a is not b
        assert ((a.epsilon1, a.epsilonK, a.epsilon1_multiplicity)
                == (b.epsilon1, b.epsilonK, b.epsilon1_multiplicity))
        assert a.kernel.shape == b.kernel.shape and a.kernel.tobytes() == b.kernel.tobytes()


class TestBoundWY:
    def test_spin_half(self):
        sb = bound_wy(spin_ops(0.5), RHO37)
        assert sb.kernel_dim == 1
        assert sb.epsilon1 == pytest.approx(1.0, abs=1e-10)
        expect = 1 - sqrt_trace(RHO37) ** 2 / 2
        assert sb.bound == pytest.approx(expect, abs=1e-10)

    def test_spin_one(self):
        rho = density(np.diag([0.5, 0.3, 0.2]))
        sb = bound_wy(spin_ops(1), rho)
        assert sb.epsilon1 == pytest.approx(1.0, abs=1e-10)
        assert sb.bound == pytest.approx(1 - sqrt_trace(rho) ** 2 / 3, abs=1e-10)

    def test_four_3x3_pure(self):
        sb = bound_wy(four_3x3_ops(), pure_state([1, 0, 0]))
        assert sb.kernel_dim == 1
        assert sb.epsilon1 == pytest.approx(2.32339, abs=1e-4)
        assert sb.bound == pytest.approx(1.5489, abs=1e-3)

    def test_maximally_mixed_zero(self):
        sb = bound_wy(spin_ops(0.5), maximally_mixed(2))
        assert sb.bound == pytest.approx(0.0, abs=1e-10)
        total = sum(wyd_skew(S, maximally_mixed(2), 0.5) for S in spin_ops(0.5))
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_interval_and_validity(self, rng):
        ops = spin_ops(0.5)
        for _ in range(30):
            rho = random_density(2, int(rng.integers(1, 3)), rng)
            sb = bound_wy(ops, rho)
            total = sum(wyd_skew(S, rho, 0.5) for S in ops)
            assert sb.interval[0] <= sb.interval[1] + 1e-12
            assert total >= sb.bound - 1e-9
            assert sb.interval[0] - 1e-9 <= total <= sb.interval[1] + 1e-9

    def test_zero_ground_state_is_maximally_entangled(self):
        # vec(I) spans the kernel of an irreducible set, so the kernel vector
        # is maximally entangled: its reduction is I/d
        for ops in (spin_ops(0.5), spin_ops(1), four_3x3_ops()):
            spec = OperatorSet(ops).spectral()
            d = len(ops[0])
            assert spec.kernel_dim == 1
            mes = np.eye(d).ravel() / math.sqrt(d)
            assert np.linalg.norm(h_tot(ops) @ mes) < 1e-12
            assert spec.kernel_weight(mes) == pytest.approx(1.0, abs=1e-12)
            k = spec.kernel[:, 0]
            red = partial_trace_second(np.outer(k, k.conj()), (d, d))
            np.testing.assert_allclose(red, np.eye(d) / d, atol=1e-8)

    def test_projector_bound_saturates(self):
        # sqrt(rho) = cos(t) K + sin(t) E with K in the kernel and E a Hermitian
        # eps1-eigenvector has skew sum sin^2(t) eps1 = eps1 (1 - ||P_ker phi||^2)
        reducible = (np.kron(np.eye(2), SX), np.kron(np.eye(2), SZ))
        for ops in (spin_ops(0.5), four_3x3_ops(), reducible):
            oset = OperatorSet(ops)
            spec = oset.spectral()
            d = oset.dim
            in_kernel = np.diag(np.linspace(1.0, 2.0, d))
            K = sum(np.vdot(v.reshape(d, d), in_kernel) * v.reshape(d, d)
                    for v in spec.kernel.T)
            w, V = hermitian_eigen(h_tot(oset))
            M = V[:, int(np.argmin(np.abs(w - spec.epsilon1)))].reshape(d, d)
            E = M + M.conj().T
            if np.linalg.norm(E) < 1e-6:
                E = 1j * (M - M.conj().T)
            K, E = K / np.linalg.norm(K), E / np.linalg.norm(E)
            for t in (0.05, 0.1, 0.2):
                X = math.cos(t) * K + math.sin(t) * E
                rho = density(X @ X)
                sb = bound_wy(oset, rho)
                total = sum(wyd_skew(A, rho, 0.5) for A in oset.operators)
                assert total == pytest.approx(math.sin(t) ** 2 * spec.epsilon1, abs=1e-10)
                assert sb.bound == pytest.approx(total, abs=1e-10)

    def test_excited_family_saturation(self):
        # states built on span{ground, first excited} reach the fallback bound
        ops = spin_ops(0.5)
        H = h_tot(ops)
        w, V = hermitian_eigen(H)
        v0 = V[:, 0]
        # pick the excited eigenvector whose reshape is Hermitian after
        # combination; the conjugation symmetry keeps eigenspaces closed
        for theta in (0.2, 0.5, 0.7):
            for k in range(1, 4):
                phi = math.cos(theta) * v0 + math.sin(theta) * V[:, k]
                M = phi.reshape(2, 2)
                if np.max(np.abs(M - M.conj().T)) > 1e-10:
                    M = (M + M.conj().T) / 2
                    phi = M.reshape(-1)
                    n = np.linalg.norm(phi)
                    if n < 1e-12:
                        continue
                    phi /= n
                evs = np.linalg.eigvalsh(M)
                if evs[0] < 1e-12:
                    continue  # need a PSD reshape to be a sqrt(rho)
                red = partial_trace_second(np.outer(phi, phi.conj()), (2, 2))
                rho = density((red + red.conj().T) / 2 / np.trace(red).real)
                total = sum(wyd_skew(S, rho, 0.5) for S in ops)
                expect = 1.0 * (1 - sqrt_trace(rho) ** 2 / 2)
                assert total == pytest.approx(expect, abs=1e-8)

    def test_single_operator_kernel(self):
        # diagonal matrices commute with SZ: a two-dimensional kernel that
        # holds RHO37, reported as a field rather than a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sb = bound_wy([SZ], RHO37)
        assert sb.kernel_dim == 2
        assert sb.bound == pytest.approx(0.0, abs=1e-10)


def _block_diag(*blocks):
    d = sum(len(b) for b in blocks)
    A = np.zeros((d, d), dtype=complex)
    i = 0
    for b in blocks:
        A[i:i + len(b), i:i + len(b)] = b
        i += len(b)
    return A


def _reducible_case(seed: int, sizes, n_ops: int, kind: str):
    """Operators block-diagonal over ``sizes`` in a random basis, and a state.

    ``kind`` is "rank_deficient", "commuting" (block-aligned, a multiple of
    the identity on each block, so every skew vanishes) or "full_rank".
    """
    rng = np.random.default_rng(seed)
    d = sum(sizes)
    U = np.linalg.qr(random_operator(d, rng))[0]
    ops = [U @ _block_diag(*(random_hermitian(n, rng) for n in sizes)) @ U.conj().T
           for _ in range(n_ops)]
    if kind == "commuting":
        p = rng.dirichlet(np.ones(len(sizes)))
        rho = density(U @ np.diag(np.repeat(p / sizes, sizes)) @ U.conj().T)
    elif kind == "rank_deficient":
        rho = random_density(d, int(rng.integers(1, d)), rng)
    else:
        rho = random_density(d, d, rng)
    return OperatorSet(tuple(ops)), rho


class TestReducibleSets:
    def test_reproducer(self):
        # kernel = M_2 (x) I; a fallback that assumed ker H_tot = span{vec I}
        # reported 1.0 here
        ops = (np.kron(np.eye(2), SX), np.kron(np.eye(2), SZ))
        rho = density(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # rho's embedding lies in the kernel
            bounds = (bound_wy(ops, rho), bound_wyd(ops, rho, 0.3))
        for sb in bounds:
            assert sb.kernel_dim == 4
            assert sb.bound <= 1e-12
        for s in (0.3, 0.5):
            assert sum(wyd_skew(A, rho, s) for A in ops) == pytest.approx(0.0, abs=1e-12)

    def test_reducible_kernel_is_commutant(self):
        ops = (np.kron(np.eye(2), SX), np.kron(np.eye(2), SZ))
        spec = OperatorSet(ops).spectral()
        assert np.linalg.norm(h_tot(ops) @ np.eye(4).ravel()) < 1e-12
        # the commutant M_2 (x) I: every A (x) I lies in the kernel
        for A in (SX, SZ, np.array([[0, 1], [0, 0]])):
            v = np.kron(A, np.eye(2)).ravel()
            assert spec.kernel_weight(v / np.linalg.norm(v)) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 3), min_size=2, max_size=3),
        n_ops=st.integers(2, 3),
        kind=st.sampled_from(["rank_deficient", "commuting", "full_rank"]),
    )
    def test_bound_below_skew_sum(self, seed, sizes, n_ops, kind):
        oset, rho = _reducible_case(seed, sizes, n_ops, kind)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for s in (0.3, 0.5, 0.7):
                sb = bound_wy(oset, rho) if s == 0.5 else bound_wyd(oset, rho, s)
                total = sum(wyd_skew(A, rho, s) for A in oset.operators)
                assert sb.kernel_dim >= len(sizes)
                assert sb.bound <= total + 1e-8 * max(1.0, total)


@st.composite
def _operator_sets(draw):
    """Hermitian, Ginibre or block-diagonal (reducible) sets, d 2-8, 1-4 operators."""
    d = draw(st.integers(2, 8))
    n_ops = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["hermitian", "ginibre", "reducible"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "reducible":
        h = draw(st.integers(1, d - 1))
        return _reducible_case(seed, (h, d - h), n_ops, "full_rank")[0]
    rng = np.random.default_rng(seed)
    make = random_hermitian if kind == "hermitian" else random_operator
    return OperatorSet(tuple(make(d, rng) for _ in range(n_ops)))


class TestRealSpectrum:
    """The spectral data from the real form of H_tot match a complex eigh of
    H_tot itself.  A set of one invariant block sees one d x d eigh (the block
    finder) and one real eigvalsh of size d^2, plus one real eigh only when
    its kernel is larger than vec(I), unless it is solved per weight class; a
    set of several blocks solves each block pair alone and nothing of size
    d^2."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(oset=_operator_sets())
    def test_matches_complex_eigh(self, oset):
        w, V = np.linalg.eigh(h_tot(oset))
        in_kernel = w <= w[0] + 1e-8 * max(1.0, w[-1])
        atol = 1e-12 * max(1.0, w[-1])
        real = bounds._h_tot_form(oset.components())
        np.testing.assert_allclose(np.linalg.eigvalsh(real), w, rtol=0, atol=atol)
        spec = oset.spectral()
        above = w[~in_kernel]
        assert spec.epsilonK == pytest.approx(w[-1], rel=0, abs=atol)
        assert spec.epsilon1 == pytest.approx(above[0] if above.size else 0.0, rel=0, abs=atol)
        assert spec.kernel_dim == np.count_nonzero(in_kernel)
        # a projector moves by about rounding/gap (Davis-Kahan), so the 1e-10
        # budget holds while eps1 >= 1e-4 eps_K and widens with eps_K/eps1 below
        widen = 1e-4 * w[-1] / above[0] if above.size else 1.0
        Vk = V[:, in_kernel]
        np.testing.assert_allclose(spec.kernel @ spec.kernel.conj().T, Vk @ Vk.conj().T,
                                   rtol=0, atol=1e-10 * max(1.0, widen))

    @staticmethod
    def _count_eigensolves(monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
                calls.append((_name, np.shape(a)[-1], np.iscomplexobj(a)))
                return _solve(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @pytest.mark.parametrize("ops, solves", [
        # ad_M commutes with H_tot: one complex solve per weight w >= 0 of
        # ad_M, sizes 3, 2 and 1, and nothing of size d^2
        (spin_ops(1), [("eigh", 3, True), ("eigvalsh", 3, True), ("eigvalsh", 2, True),
                       ("eigvalsh", 1, True)]),
        (four_3x3_ops(), [("eigh", 3, True), ("eigvalsh", 9, False)]),
        # I_2 (x) sigma: blocks (0, 0) and (1, 1) are spin-1/2 sets, whose
        # kernel is their projector; the pair (0, 1) has the intertwiner in
        # its kernel, so it alone gets an eigh
        ((np.kron(np.eye(2), SX), np.kron(np.eye(2), SZ)),
         [("eigh", 4, True), ("eigvalsh", 4, False), ("eigvalsh", 4, True),
          ("eigvalsh", 4, False), ("eigh", 4, True)]),
        # a 3 + 2 block-diagonal set: blocks of 9 and 4 real dimensions and
        # one 6-dimensional complex pair, no kernel beyond the projectors
        ((_block_diag(spin_ops(1)[0], SX), _block_diag(spin_ops(1)[2], SZ)),
         [("eigh", 5, True), ("eigvalsh", 4, False), ("eigvalsh", 6, True),
          ("eigvalsh", 9, False)]),
    ])
    def test_eigensolves_on_doubled_space(self, monkeypatch, ops, solves):
        calls = self._count_eigensolves(monkeypatch)
        spec = OperatorSet(ops).spectral()
        assert calls == solves
        n = len(ops[0]) ** 2
        assert spec.kernel.shape == (n, spec.kernel_dim)


def _gell_mann():
    """The eight Gell-Mann matrices, a basis of su(3) orthogonal in the trace form."""
    ops = []
    for a in range(3):
        for b in range(a + 1, 3):
            for v in (1.0, 1j):
                X = np.zeros((3, 3), dtype=complex)
                X[a, b], X[b, a] = v, np.conj(v)
                ops.append(X)
    return ops + [np.diag([1.0, -1.0, 0.0]), np.diag([1.0, 1.0, -2.0]) / math.sqrt(3)]


# Lie-closed sets that take the weight-class path, and a near miss that must not
_LIE = ["spin-1/2", "spin-1", "spin-3/2", "gell-mann", "copies", "near"]


def _lie_ops(which: str, rng) -> list:
    """A set of _LIE in a Haar basis: a spin-j triple, Gell-Mann su(3), or
    I_2 (x) spin-1/2; "near" is a spin-1 triple whose first operator has a
    Hermitian perturbation of size 1e-9."""
    if which == "gell-mann":
        base = _gell_mann()
    elif which == "copies":
        base = [np.kron(np.eye(2), S) for S in spin_ops(0.5)]
    else:
        base = spin_ops({"spin-1/2": 0.5, "spin-1": 1, "spin-3/2": 1.5, "near": 1}[which])
    d = len(base[0])
    U = np.linalg.qr(random_operator(d, rng))[0]
    ops = [U @ A @ U.conj().T for A in base]
    if which == "near":
        ops[0] = ops[0] + 1e-9 * random_hermitian(d, rng)
    return ops


def _weight_path(oset: OperatorSet) -> bool:
    """Whether the set's spectrum is solved per weight class of ad_M."""
    V, B, blocks, mu = bounds._invariant_blocks(oset.components())
    return len(blocks) == 1 and bounds._weight_pieces(V, B, mu) is not None


@st.composite
def _block_sets(draw):
    """Sets whose H_tot splits into block pairs or weight classes, and near
    misses, d <= 16: 2-4 blocks of sizes 1-4 (Hermitian or Ginibre) in a
    random basis, equal copies I_m (x) A, one Hermitian operator with
    repeated eigenvalues, the block sets plus a coupling log-uniform in
    [1e-16, 1e-6], zero and scalar operators, and the Lie-closed sets of
    :func:`_lie_ops`."""
    kind = draw(st.sampled_from(["blocks", "copies", "single", "near", "trivial", "lie"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_ops = draw(st.integers(1, 3))
    if kind == "lie":
        ops = _lie_ops(draw(st.sampled_from(_LIE)), rng)
    elif kind == "copies":
        m, n = draw(st.integers(2, 3)), draw(st.integers(1, 3))
        ops = [np.kron(np.eye(m), random_operator(n, rng)) for _ in range(n_ops)]
    elif kind == "single":
        evs = rng.choice([-1.0, 0.5, 2.0], size=draw(st.integers(2, 8)))
        U = np.linalg.qr(random_operator(len(evs), rng))[0]
        ops = [U @ np.diag(evs) @ U.conj().T]
    elif kind == "trivial":
        d = draw(st.integers(1, 4))
        ops = [c * np.eye(d) for c in rng.choice([0.0, 0.0, 1.5, -2j], size=n_ops)]
    else:
        sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
        make = draw(st.sampled_from([random_hermitian, random_operator]))
        d = sum(sizes)
        U = np.linalg.qr(random_operator(d, rng))[0]
        ops = [U @ _block_diag(*(make(n, rng) for n in sizes)) @ U.conj().T
               for _ in range(n_ops)]
        if kind == "near":
            ops[0] = ops[0] + 10 ** draw(st.floats(-16, -6)) * random_operator(d, rng)
    return OperatorSet(tuple(ops)), rng


class TestBlockSpectrum:
    """Spectral data solved per block pair or weight class match a complex
    eigh of H_tot."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=_block_sets())
    def test_matches_complex_eigh(self, case):
        self._check(*case)

    @pytest.mark.parametrize("which", _LIE)
    def test_lie_sets_match_complex_eigh(self, which, rng):
        self._check(OperatorSet(tuple(_lie_ops(which, rng))), rng)

    @staticmethod
    def _check(oset, rng):
        w, V = np.linalg.eigh(h_tot(oset))
        in_kernel = w <= w[0] + 1e-8 * max(1.0, w[-1])
        atol = 1e-12 * max(1.0, w[-1])
        np.testing.assert_allclose(bounds._block_spectrum(oset)[0], w, rtol=0, atol=atol)
        spec = oset.spectral()
        above = w[~in_kernel]
        assert spec.epsilonK == pytest.approx(w[-1], rel=0, abs=atol)
        assert spec.epsilon1 == pytest.approx(above[0] if above.size else 0.0, rel=0, abs=atol)
        assert spec.kernel_dim == np.count_nonzero(in_kernel)
        assert spec.epsilon1_multiplicity == (
            np.count_nonzero(above <= above[0] + 1e-8 * max(1.0, w[-1])) if above.size else 0)
        widen = 1e-4 * w[-1] / above[0] if above.size else 1.0  # as in TestRealSpectrum
        Vk = V[:, in_kernel]
        np.testing.assert_allclose(spec.kernel @ spec.kernel.conj().T, Vk @ Vk.conj().T,
                                   rtol=0, atol=1e-10 * max(1.0, widen))
        d = oset.dim
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for s in (0.3, 0.5):
                sb = bound_wy(oset, rho) if s == 0.5 else bound_wyd(oset, rho, s)
                total = sum(wyd_skew(A, rho, s) for A in oset.operators)
                assert sb.bound <= total + 1e-8 * max(1.0, total)

    @pytest.mark.parametrize("j", [1, 2, 3.5])
    def test_spin_multiplicity(self, j):
        # H_tot of a spin-j set is half the Casimir on rank-L tensors:
        # 0, 1 (x3), 3 (x5), ...
        spec = OperatorSet(spin_ops(j)).spectral()
        assert spec.epsilon1 == pytest.approx(1.0, abs=1e-12)
        assert spec.epsilon1_multiplicity == 3

    def test_split_set_multiplicity_matches_full_spectrum(self):
        ops = tuple(_block_diag(A, B) for A, B in zip(spin_ops(1), spin_ops(0.5)))
        Cs = OperatorSet(ops).components()
        assert len(bounds._invariant_blocks(Cs)[2]) == 2
        spec = OperatorSet(ops).spectral()
        w = np.linalg.eigvalsh(h_tot(ops))
        above = w[w > w[0] + 1e-8 * max(1.0, w[-1])]
        assert spec.epsilon1 == pytest.approx(above[0], abs=1e-12)
        assert spec.epsilon1_multiplicity == np.count_nonzero(above <= above[0] + 1e-8 * w[-1])
        assert spec.kernel_dim == 2


@st.composite
def _near_lie_sets(draw):
    """The Lie-closed sets of :func:`_lie_ops`, d <= 6, times one common
    scale in [0.1, 10], unperturbed or with a Hermitian or Ginibre
    perturbation of their first operator log-uniform in [1e-16, 1e-8]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = _lie_ops(draw(st.sampled_from(_LIE[:-1])), rng)
    d = len(ops[0])
    size = draw(st.one_of(st.just(0.0), st.floats(-16, -8).map(lambda e: 10**e)))
    ops[0] = ops[0] + size * draw(st.sampled_from([random_hermitian, random_operator]))(d, rng)
    scale = draw(st.floats(0.1, 10))
    return OperatorSet(tuple(scale * A for A in ops))


class TestWeightClasses:
    """A set of one invariant block is solved per weight class of ad_M, M
    the block finder's generic element, exactly when its components' fit
    shows that ad_M commutes with H_tot."""

    @pytest.mark.parametrize("which", _LIE)
    def test_check_takes_lie_closed_sets(self, which, rng):
        assert _weight_path(OperatorSet(tuple(_lie_ops(which, rng)))) == (which != "near")

    @pytest.mark.parametrize("ops", [
        four_3x3_ops(),
        four_qubit_ops(),  # they span su(2), but are no invariant frame
        spin_ops(1)[:2],
        spin_ops(1) + spin_ops(1)[:1],  # a dependent component, weighted twice
        (spin_ops(1)[0], 2 * spin_ops(1)[1], spin_ops(1)[2]),
    ])
    def test_other_sets_keep_the_real_form(self, ops):
        assert not _weight_path(OperatorSet(tuple(ops)))

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(oset=_near_lie_sets())
    def test_check_is_sound(self, oset):
        # [H_tot, ad_M] is cubic in the operators and H_tot quadratic, so the
        # commutator is measured against ||H_tot|| ||ad_M||, ||ad_M|| = mu_d - mu_1
        if _weight_path(oset):
            V, _, _, mu = bounds._invariant_blocks(oset.components())
            d = oset.dim
            M = (V * mu) @ V.conj().T
            ad = np.kron(M, np.eye(d)) - np.kron(np.eye(d), M.T)
            H = h_tot(oset)
            assert (np.linalg.norm(H @ ad - ad @ H)
                    <= 1e-12 * np.linalg.norm(H) * (mu[-1] - mu[0]))


def _coords(X):
    """Natural-layout coordinates of a Hermitian X, row-major: X_aa, and for
    a < b sqrt(2) Re X_ab at (a, b) and sqrt(2) Im X_ab at (b, a)."""
    d = len(X)
    p, q = np.indices((d, d))
    r2 = math.sqrt(2.0)
    return np.where(p < q, r2 * X.real, np.where(p > q, -r2 * X.imag, X.real)).ravel()


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRealForm:
    """H_tot's real form and the transpose scan's shifted forms are built in
    real arithmetic, straight from the components, in the natural layout."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(oset=_operator_sets(), seed=st.integers(0, 2**32 - 1))
    def test_acts_on_coordinates_as_the_map(self, oset, seed):
        X = random_hermitian(oset.dim, np.random.default_rng(seed))
        y = _coords(X)
        np.testing.assert_allclose(bounds._hermitian_vecs(y[:, None])[:, 0], X.ravel(),
                                   rtol=0, atol=1e-15 * np.abs(X).max())

        def check(R, Y):
            atol = 1e-12 * max(1.0, np.linalg.norm(Y))
            np.testing.assert_allclose(R @ y, _coords(Y), rtol=0, atol=atol)
            np.testing.assert_allclose(R, R.T, rtol=0, atol=1e-12 * max(1.0, np.abs(R).max()))

        d, I = oset.dim, np.eye(oset.dim)
        check(bounds._h_tot_form(oset.components()), bounds._apply_h_tot(oset, X).reshape(d, d))
        # the alpha scan's A - H_tot and B, as tighten_alpha_scan builds them
        for C in oset.components():
            check(bounds._sandwich_form(C[None], C[None], [1.0]), C @ X @ C)
            check(bounds._sandwich_form(np.stack([C, I]), np.stack([I, C]), [1.0, 1.0]),
                  C @ X + X @ C)
        # terms with L != R: S, I and I, S
        S = bounds._square_sum(oset.components())
        check(bounds._sandwich_form(np.stack([S, I]), np.stack([I, S]), [0.5, 0.5]),
              (S @ X + X @ S) / 2)

    def test_no_complex_doubled_space_array(self, rng):
        d = 20
        real_bytes = 8 * d**4
        oset = OperatorSet((random_hermitian(d, rng), random_operator(d, rng)))
        # the real form plus O(d^3) temporaries; a complex d^2 x d^2 array
        # alone is twice the real form
        assert _traced_peak(oset.spectral) < 2 * real_bytes
        # the scan builds the real form for itself, then holds one
        # component's A and B at a time, one shifted matrix per stack and
        # eigvalsh's copy of it
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_STACK_BYTES", real_bytes)
            assert _traced_peak(lambda: tighten_alpha_scan(oset, 5)) < 6 * real_bytes


def _count_h_tot(monkeypatch):
    """Count builds of H_tot's real form, the only H_tot a set's spectrum and
    transpose scan use."""
    builds = []
    real = bounds._h_tot_form

    def counted(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, "_h_tot_form", counted)
    return builds


class TestSetCache:
    """Spectral data and alpha-scan floors belong to the operators' content:
    every set of equal content shares one record, for the last 32 sets."""

    def test_list_of_ops_builds_h_tot_once(self, monkeypatch, rng):
        builds = _count_h_tot(monkeypatch)
        ops = list(spin_ops(1))
        for _ in range(10):
            rho = random_density(3, 3, rng)
            assert bound_wy(ops, rho).bound == bound_wy(OperatorSet(tuple(ops)), rho).bound
        # a spin set's spectrum is solved per weight class, with no real form
        assert builds == []
        # the transpose scan builds the real form for itself, and the set
        # keeps nothing of it: no attribute is set after the set is built
        oset = OperatorSet(tuple(ops))
        before = dict(vars(oset))
        tighten_alpha_scan(oset, 21)
        assert builds == [1]
        assert oset.spectral().kernel.shape == (9, 1)
        assert vars(oset).keys() == before.keys()
        assert all(vars(oset)[k] is v for k, v in before.items())

    def test_caller_writes_do_not_reach_the_cache(self, rng):
        A, B = random_hermitian(3, rng), random_operator(3, rng)
        original = (A.copy(), B.copy())
        oset = OperatorSet((A, B))
        A[0, 1] += 1.0  # before anything is computed
        spec, floor = oset.spectral(), tighten_alpha_scan(oset, 21)
        B[2, 2] -= 2.0  # after
        again = OperatorSet(original)
        assert again == oset
        assert again.spectral() is spec
        assert tighten_alpha_scan(again, 21) == floor
        bounds._records.clear()
        fresh = OperatorSet(original)
        assert fresh.spectral() is not spec
        assert fresh.spectral().epsilon1 == spec.epsilon1
        np.testing.assert_array_equal(fresh.spectral().kernel, spec.kernel)
        assert tighten_alpha_scan(fresh, 21) == floor
        for M, want in zip(oset.operators, original):
            np.testing.assert_array_equal(M, want)
        with pytest.raises(ValueError):
            oset.operators[0][0, 0] = 0.0
        with pytest.raises(ValueError):
            oset.components()[0][0, 0] = 0.0
        with pytest.raises(ValueError):
            spec.kernel[0, 0] = 0.0

    def test_one_ulp_apart_shares_nothing(self, monkeypatch, rng):
        A = random_hermitian(3, rng)
        B = A.copy()
        B[0, 1] = np.nextafter(B[0, 1].real, np.inf) + 1j * B[0, 1].imag
        builds = _count_h_tot(monkeypatch)
        first, second = OperatorSet((A,)), OperatorSet((B,))
        assert first != second
        assert first._record is not second._record
        first.spectral()
        per_set = len(builds)
        second.spectral()
        # one Hermitian operator splits into one invariant block per
        # eigenvector, each with a real form of its own; the second set
        # builds all of its own
        assert per_set == 3
        assert len(builds) == 2 * per_set

    def test_equal_content_shares_one_split(self, monkeypatch, rng):
        splits = []

        def counted(A, *args, _split=bounds.hermitian_split):
            splits.append(A)
            return _split(A, *args)

        monkeypatch.setattr(bounds, "hermitian_split", counted)
        ops = (random_hermitian(4, rng), random_operator(4, rng))
        first, second = OperatorSet(ops), OperatorSet(tuple(A.copy() for A in ops))
        assert second.components() is first.components()
        assert len(splits) == len(ops)  # the second set split nothing
        kept = first.components().tobytes()
        bounds._records.clear()  # evicted: the next set splits afresh
        third = OperatorSet(ops)
        assert third.components() is not first.components()
        assert third.components().tobytes() == kept
        assert len(splits) == 2 * len(ops)

    def test_least_recently_built_set_is_evicted(self):
        cap = bounds._CACHED_SETS
        sets = [OperatorSet((np.diag([1.0, float(k)]),)) for k in range(cap)]
        assert len(bounds._records) == cap
        OperatorSet(sets[0].operators)  # set 0 is now the most recent
        OperatorSet((np.diag([1.0, float(cap)]),))  # one past the cap
        assert len(bounds._records) == cap
        assert sets[0]._key in bounds._records
        assert sets[1]._key not in bounds._records
        assert OperatorSet(sets[0].operators)._record is sets[0]._record
        assert OperatorSet(sets[1].operators)._record is not sets[1]._record

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(oset=_operator_sets(), seed=st.integers(0, 2**32 - 1))
    def test_cached_values_are_bit_identical(self, oset, seed):
        rho = random_density(oset.dim, oset.dim, seed)

        def values():
            ops = OperatorSet(oset.operators)
            wy = bound_wy(ops, rho)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                wyd = bound_wyd(ops, rho, 0.3)
            scans = (tighten_alpha_scan(ops, 11), tighten_alpha_scan(ops, 11, "plain"))
            return [(b.epsilon1, b.epsilonK, b.kernel_dim, float(b.bound), float(b.interval[1]))
                    for b in (wy, wyd)] + [scans]

        bounds._records.clear()
        computed = values()
        cached = values()
        bounds._records.clear()
        assert cached == computed == values()

    def test_operator_set_equality_is_by_content(self):
        I2 = np.eye(2)
        assert OperatorSet((I2, SZ)) == OperatorSet((I2, SZ))
        assert hash(OperatorSet((I2, SZ))) == hash(OperatorSet((I2, SZ)))
        assert len({OperatorSet((I2, SZ)), OperatorSet((I2, SZ)), OperatorSet((SZ, I2))}) == 2
        assert OperatorSet((I2, SZ)) != OperatorSet((SZ, I2))
        assert OperatorSet((I2, SZ)) != (I2, SZ)

    def test_spectral_data_equality_is_identity(self):
        spec = OperatorSet((SX, SZ)).spectral()
        other = bounds.SpectralData(spec.epsilon1, spec.epsilonK, spec.kernel.copy())
        assert spec == spec
        assert spec != other

    def test_results_for_a_stack_compare_by_identity(self, rng):
        stack = density_stack([random_density(2, 2, rng).matrix for _ in range(3)])
        a, b = bound_wy(spin_ops(0.5), stack), bound_wy(spin_ops(0.5), stack)
        assert a == a
        assert a != b
        e = embedding(stack, 0.3)
        assert e == e
        assert e != embedding(stack, 0.3)


class TestBoundWYD:
    def test_rejects_half(self):
        with pytest.raises(DomainError):
            bound_wyd(spin_ops(0.5), RHO37, 0.5)

    def test_validity_sweep(self, rng):
        ops = spin_ops(0.5)
        for _ in range(120):
            rho = random_density(2, int(rng.integers(1, 3)), rng)
            s = float(rng.choice([0.1, 0.25, 0.3, 0.7, 0.75, 0.9]))
            sb = bound_wyd(ops, rho, s)
            total = sum(wyd_skew(S, rho, s) for S in ops)
            assert sb.bound <= total + 1e-9

    def test_validity_spin1(self, rng):
        ops = spin_ops(1)
        for _ in range(60):
            rho = random_density(3, int(rng.integers(1, 4)), rng)
            s = float(rng.choice([0.25, 0.75]))
            sb = bound_wyd(ops, rho, s)
            total = sum(wyd_skew(S, rho, s) for S in ops)
            assert sb.bound <= total + 1e-9

    def test_nontrivial_on_generic_states(self):
        sb = bound_wyd(spin_ops(0.5), RHO37, 0.3)
        assert sb.bound > 1e-6

    def test_near_half_continuity(self):
        # s -> 1/2 should approach a bound no better than the exact one
        exact = bound_wy(spin_ops(0.5), RHO37).bound
        close = bound_wyd(spin_ops(0.5), RHO37, 0.499).bound
        assert close <= exact + 1e-6

    def test_custom_candidates(self, rng):
        chi = np.kron(np.array([1, 0]), np.array([1, 0]))
        sb = bound_wyd(spin_ops(0.5), RHO37, 0.3, chi_candidates=[chi])
        total = sum(wyd_skew(S, RHO37, 0.3) for S in spin_ops(0.5))
        assert sb.bound <= total + 1e-9

    def test_candidate_of_wrong_size_rejected(self):
        with pytest.raises(DimensionMismatch):
            bound_wyd(spin_ops(0.5), RHO37, 0.3, chi_candidates=[np.ones(3)])

    def test_zero_candidate_rejected(self):
        with pytest.raises(DomainError):
            bound_wyd(spin_ops(0.5), RHO37, 0.3, chi_candidates=[np.zeros(4)])

    def test_feasible_f_at_reference_has_no_cancellation(self, rng):
        # chi = ref1 gives tau1 = 0, so f = 1/(1 + tau2^2) = |<chi|ref2>|^2
        for _ in range(200):
            n = int(rng.integers(2, 7)) ** 2
            chi, ref2 = (random_pure_vector(n, rng) for _ in range(2))
            want = abs(np.vdot(chi, ref2)) ** 2
            f, ok = _feasible_f(chi, _pair(chi, ref2))
            assert ok
            assert f == pytest.approx(want, rel=1e-12)

    def test_candidates_checked_before_solve(self, monkeypatch):
        def no_solve(self):
            raise AssertionError("spectral data solved before the candidates were checked")

        monkeypatch.setattr(OperatorSet, "spectral", no_solve)
        with pytest.raises(DimensionMismatch):
            bound_wyd(spin_ops(0.5), RHO37, 0.3, chi_candidates=[np.ones(3)])
        with pytest.raises(DomainError):
            bound_wyd(spin_ops(0.5), RHO37, 0.3, chi_candidates=[np.zeros(4)])


def _pair(ref1, ref2):
    """The refs argument of _feasible_f: ref1 and ref2 on the second-to-last axis."""
    return np.stack([ref1, ref2], axis=-2)


def _feasible_f_one(chi, ref1, ref2):
    """Reference copy of the scalar feasibility rule: f for one reference
    state, or None if infeasible."""
    o1 = np.vdot(chi, ref1)
    o2 = np.vdot(chi, ref2)
    if abs(o1) ** 2 < 1e-14 or abs(o2) ** 2 < 1e-14:
        return None
    t1 = float(np.linalg.norm(ref1 - o1 * chi)) / abs(o1)
    t2 = float(np.linalg.norm(ref2 - o2 * chi)) / abs(o2)
    if t1 * t2 >= 1.0:
        return None
    return (1.0 - t1 * t2) / ((1.0 + t1 * t1) * (1.0 + t2 * t2))


def _bound_wyd_loop(oset, rho, s, chi_candidates=()):
    """Reference copy of the one-state bound_wyd: loops over branches and
    candidates with the scalar rule.  Returns (bound, upper end of the
    interval), bound 0 when no candidate is feasible."""
    spec = oset.spectral()
    d = rho.dim
    Cs = oset.components()
    S = bounds._square_sum(Cs)
    emb = embedding(rho, s)
    theta = math.sqrt(emb.norms[0] * emb.norms[1])
    phis = emb.phi_s / math.sqrt(emb.norms[0])
    phi1s = emb.phi_1ms / math.sqrt(emb.norms[1])
    branches = []
    for ref1, phi, v in ((phis, phi1s, emb.phi_1ms), (phi1s, phis, emb.phi_s)):
        X = v.reshape(d, d)
        Hv = ((S @ X + X @ S) / 2 - np.sum(Cs @ X @ Cs, axis=0)).ravel()
        n = np.linalg.norm(Hv)
        if n > 1e-12:
            branches.append((ref1, Hv / n, math.sqrt(1.0 - spec.kernel_weight(phi))))
    candidates = [phis, phi1s, np.eye(d).ravel() / math.sqrt(d)]
    candidates += [ref2 for _, ref2, _ in branches]
    candidates += [np.ravel(chi) / np.linalg.norm(chi) for chi in chi_candidates]
    best = None
    for chi in candidates:
        for ref1, ref2, fac in branches:
            f = _feasible_f_one(chi, ref1, ref2)
            if f is not None:
                val = f * fac * theta * spec.epsilon1
                best = val if best is None else max(best, val)
    half = embedding(rho, 0.5)
    ov2 = spec.kernel_weight(half.phi_s / math.sqrt(half.norms[0]))
    return (0.0 if best is None else best), max(spec.epsilonK * (1.0 - ov2), 0.0)


def _block_diagonal_set(d, rng):
    k = int(rng.integers(1, d))
    ops = []
    for _ in range(2):
        A = np.zeros((d, d), dtype=complex)
        A[:k, :k], A[k:, k:] = random_hermitian(k, rng), random_hermitian(d - k, rng)
        ops.append(A)
    return ops


class TestBoundWYDStack:
    """bound_wyd on a DensityStack: each state's value is the reference
    loop's to 1e-15 relative, and the stack's is each state's own."""

    SETS = {
        "hermitian": lambda d, rng: [random_hermitian(d, rng) for _ in range(3)],
        "ginibre": lambda d, rng: [random_operator(d, rng) for _ in range(2)],
        "block": _block_diagonal_set,
    }

    @pytest.mark.parametrize("kind", sorted(SETS))
    @pytest.mark.parametrize("extra", [False, True], ids=["default", "extra_chi"])
    def test_matches_loop(self, rng, kind, extra):
        for d in range(2, 7):
            for s in (0.15, 0.3, 0.7, 0.9):
                oset = OperatorSet(tuple(self.SETS[kind](d, rng)))
                states = [random_density(d, r, rng) for r in range(1, d + 1)]
                states.append(maximally_mixed(d))
                chis = [random_operator(d, rng).ravel()] if extra else []
                spec = oset.spectral()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", NoFeasibleChiWarning)
                    stack = bound_wyd(oset, density_stack([r.matrix for r in states]), s,
                                      chi_candidates=chis)
                    for i, rho in enumerate(states):
                        one = bound_wyd(oset, rho, s, chi_candidates=chis)
                        want, hi = _bound_wyd_loop(oset, rho, s, chis)
                        assert abs(one.bound - want) <= 1e-15 * abs(want)
                        assert (one.epsilon1, one.kernel_dim) == (spec.epsilon1, spec.kernel_dim)
                        assert one.interval == (0.0, hi)
                        # the stack gives each state its own values, bit for bit
                        assert stack.bound[i] == one.bound
                        assert stack.interval[1][i] == one.interval[1]

    def test_maximally_mixed_in_stack(self, rng):
        # I/d has no feasible reference state; one warning covers the stack,
        # and the generic states keep their positive bounds
        states = [maximally_mixed(3)] + [random_density(3, r, rng) for r in (1, 2, 3, 3)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sb = bound_wyd(spin_ops(1), density_stack([r.matrix for r in states]), 0.3)
        assert [w.category for w in caught] == [NoFeasibleChiWarning]
        assert sb.bound.shape == (5,)
        assert sb.bound[0] == 0.0
        assert np.all(sb.bound[1:] > 0)

    def test_chunks_change_no_bit_and_bound_the_rows(self, rng, monkeypatch):
        # a stack is evaluated in chunks whose candidate rows hold at most
        # _STACK_BYTES, and tested in slices of a chunk whose temporaries hold
        # _ROW_BYTES; its (N, d^2) rows once took ten times the stack's bytes
        ops = OperatorSet(tuple(random_hermitian(6, rng) for _ in range(3)))
        states = [maximally_mixed(6)] + [random_density(6, 1 + k % 6, rng) for k in range(399)]
        stack = density_stack([r.matrix for r in states])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            whole = bound_wyd(ops, stack, 0.3)
            monkeypatch.setattr(bounds, "_STACK_BYTES", 2**16)  # 19 chunks of 22 states
            monkeypatch.setattr(bounds, "_ROW_BYTES", 2**14)  # slices of 2 states
            peak = _traced_peak(lambda: bound_wyd(ops, stack, 0.3))
            chunked = bound_wyd(ops, stack, 0.3)
        assert [w.category for w in caught] == [NoFeasibleChiWarning] * 3  # one per call
        assert np.array_equal(whole.bound, chunked.bound)
        assert np.array_equal(whole.interval[1], chunked.interval[1])
        assert peak <= 4 * stack.matrix.nbytes


def _scan_loop(oset, grid_points, pairing):
    """The alpha scan one grid point at a time: the ground eigenvalue of
    H_tot + (C - alpha) (x) (C - alpha)^p from its own complex eigvalsh."""
    H = h_tot(oset, pairing=pairing)
    best = max(float(np.linalg.eigvalsh(H)[0]), 0.0)
    I = np.eye(oset.dim)
    for C in oset.components():
        evs = np.linalg.eigvalsh(C)
        if evs[-1] - evs[0] < 1e-14:
            continue
        worst = math.inf
        for alpha in np.linspace(evs[0], evs[-1], grid_points):
            Ca = C - alpha * I
            shift = np.kron(Ca, Ca.T if pairing == "transpose" else Ca)
            worst = min(worst, float(np.linalg.eigvalsh(H + shift)[0]))
        best = max(best, worst)
    return best


class TestAlphaScan:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        d=st.integers(2, 5),
        n_ops=st.integers(1, 3),
        kind=st.sampled_from(["hermitian", "ginibre"]),
        seed=st.integers(0, 2**32 - 1),
        pairing=st.sampled_from(["transpose", "plain"]),
        grid_points=st.integers(2, 40),
        per_stack=st.integers(1, 7),
    )
    def test_stacked_scan_matches_loop(self, d, n_ops, kind, seed, pairing, grid_points,
                                       per_stack):
        rng = np.random.default_rng(seed)
        make = random_hermitian if kind == "hermitian" else random_operator
        ops = [make(d, rng) for _ in range(n_ops)]
        want = _scan_loop(OperatorSet(tuple(ops)), grid_points, pairing)
        # stacks of per_stack real (or half as many complex) d^2 x d^2 matrices,
        # so the grid crosses stack boundaries
        # examples may repeat a set and grid with another per_stack: scan afresh
        bounds._records.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_STACK_BYTES", per_stack * d**4 * 8)
            got = tighten_alpha_scan(OperatorSet(tuple(ops)), grid_points, pairing)
        assert got == pytest.approx(want, rel=0, abs=1e-12 * max(1.0, abs(want)))

    def test_spin_half_transpose(self):
        assert tighten_alpha_scan(spin_ops(0.5)) == pytest.approx(0.25, abs=1e-10)

    def test_spin_half_plain_reaches_true_floor(self):
        assert pure_variance_bound(spin_ops(0.5)) == pytest.approx(0.5, abs=1e-10)

    def test_four_3x3_never_beats_excited_bound(self):
        scan = tighten_alpha_scan(four_3x3_ops())
        assert scan <= 1.5489 + 1e-6
        plain = pure_variance_bound(four_3x3_ops())
        assert plain == pytest.approx(1.399317, abs=1e-4)

    def test_single_commuting_operator(self):
        assert tighten_alpha_scan([SZ]) == pytest.approx(0.0, abs=1e-10)

    def test_validity_on_random_pure_states(self, rng):
        ops = OperatorSet(four_qubit_ops())
        for pairing_value in ("transpose", "plain"):
            floor = tighten_alpha_scan(ops, pairing=pairing_value)
            for _ in range(200):
                psi = random_density(2, 1, rng)
                total = sum(variance(A, psi) for A in ops.operators)
                assert total >= floor - 1e-8

    def test_floor_cached_per_set(self, monkeypatch):
        calls = []
        monkeypatch.setattr("skewbound.bounds.h_tot",
                            lambda *a, **k: calls.append(1) or h_tot(*a, **k))
        ops = OperatorSet(spin_ops(1))
        assert pure_variance_bound(ops, 21) == pure_variance_bound(ops, 21)
        # one scan per grid; a fresh set of equal content reuses it
        floor = pure_variance_bound(ops, 31)
        assert pure_variance_bound(spin_ops(1), 31) == floor
        assert len(calls) == 2
        # and it equals a scan made after the cache is cleared
        bounds._records.clear()
        assert pure_variance_bound(spin_ops(1), 31) == floor
        assert len(calls) == 3

    def test_grid_domain(self):
        with pytest.raises(DomainError):
            tighten_alpha_scan(spin_ops(0.5), grid_points=1)
        with pytest.raises(DomainError):
            tighten_alpha_scan(spin_ops(0.5), pairing="bogus")


class TestBoundGenSkew:
    def test_qubit_example_bound(self):
        ops = four_qubit_ops()
        sb = bound_wy(ops, RHO37)
        assert sb.kernel_dim == 1
        assert sb.bound == pytest.approx(0.1921, abs=1e-3)

    def test_same_epsilons_as_wy(self):
        # one bound serves every order list: mixed orders stay above it
        ops = spin_ops(0.5)
        a = bound_wy(ops, RHO37)
        b = bound_wy(OperatorSet(ops), RHO37)
        assert (a.epsilon1, a.kernel_dim, a.bound) == (b.epsilon1, b.kernel_dim, b.bound)
        orders = [-1.0, -2.0, float("-inf")]
        total = sum(gen_skew(A, RHO37, o) for A, o in zip(ops, orders))
        assert total >= a.bound - 1e-8

    def test_validity_all_orders(self, rng):
        ops = four_qubit_ops()
        for order in (0.0, -1.0, -2.0, float("-inf")):
            sb = bound_wy(ops, RHO37)
            total = sum(gen_skew(A, RHO37, order) for A in ops)
            assert total >= sb.bound - 1e-8

    def test_pure_state_coincides_with_wy(self, rng):
        # on a pure state every order gives the symmetric skew sum
        psi = random_density(2, 1, rng)
        ops = four_qubit_ops()
        a = bound_wy(ops, psi)
        wy = sum(wyd_skew(A, psi, 0.5) for A in ops)
        for order in (0.0, -1.0, float("-inf")):
            total = sum(gen_skew(A, psi, order) for A in ops)
            assert total == pytest.approx(wy, abs=1e-10)
            assert total >= a.bound - 1e-8


class TestEmpiricalMinimum:
    def test_spin_half_consistency(self):
        # the state-dependent bound vanishes only at maximal mixing, so the
        # sampled minimum is small but nonnegative
        got = empirical_minimum(spin_ops(0.5), 0.5, 800, seed=7)
        assert 0 <= got < 0.5

    def test_per_sample_bound(self, rng):
        ops = spin_ops(0.5)
        for _ in range(300):
            rho = random_density(2, int(rng.integers(1, 3)), rng)
            total = sum(wyd_skew(S, rho, 0.5) for S in ops)
            assert total >= 1 - sqrt_trace(rho) ** 2 / 2 - 1e-9

    def test_pure_restriction(self):
        ops = four_3x3_ops()
        got = empirical_minimum(ops, 0.5, 1500, seed=3, ranks=[1])
        assert got >= 1.5489 - 1e-6
        assert got > 1.3993

    def test_deterministic_single_stream(self):
        ops = spin_ops(0.5)
        a = empirical_minimum(ops, 0.5, 600, seed=11)
        b = empirical_minimum(ops, 0.5, 600, seed=11)
        by_hand = min(sum(wyd_skew(A, rho, 0.5) for A in ops)
                      for stack in bounds.sample_stacks(2, 600, 11) for rho in stack)
        assert a == b == by_hand

    @pytest.mark.parametrize("stack_bytes", [16 * 2 * 2 * 3, 16 * 2**20])
    def test_stacks_draw_states_one_by_one(self, monkeypatch, stack_bytes):
        # same stream and per-state order as drawing rank, then state, one at a
        # time; each state gets the decomposition density() gives it alone
        # (every rank of 1..d, the states of one rank built together)
        monkeypatch.setattr(bounds, "_STACK_BYTES", stack_bytes)
        for d in range(2, 9):
            stacks = list(bounds.sample_stacks(d, 10, 13))
            per = max(1, stack_bytes // (16 * d * d))  # 3 states at d = 2 in the small stacks
            assert [len(stack) for stack in stacks] == [min(per, 10 - i) for i in range(0, 10, per)]
            rng = np.random.default_rng(13)
            for rho in (rho for stack in stacks for rho in stack):
                alone = random_density(d, 1 + int(rng.integers(d)), rng)
                for field in ("matrix", "eigenvalues", "eigenvectors"):
                    assert getattr(rho, field).tobytes() == getattr(alone, field).tobytes()

    def test_stacked_values_match_single_states(self, monkeypatch):
        monkeypatch.setattr(bounds, "_STACK_BYTES", 16 * 3 * 3 * 7)
        ops = OperatorSet(four_3x3_ops())
        rhos = list(bounds.sample_stacks(3, 20, 2))
        singles = [rho for stack in rhos for rho in stack]
        for order in (0.3, -1.0, [0.0, -2.0, float("-inf"), -0.5]):
            stacked = np.concatenate([bounds._sum_value(ops, stack, order, Tolerances())
                                      for stack in rhos])
            alone = [bounds._sum_value(ops, rho, order, Tolerances()) for rho in singles]
            assert stacked.tolist() == alone
            assert empirical_minimum(ops, order, 20, 2) == min(alone)
        stacked = np.concatenate([bound_wy(ops, stack).bound for stack in rhos])
        assert stacked.tolist() == [bound_wy(ops, rho).bound for rho in singles]

    def test_order_families(self):
        ops = four_qubit_ops()
        a = empirical_minimum(ops, -1.0, 200, seed=5)
        b = empirical_minimum(ops, [0.0, -1.0, -2.0, float("-inf")], 200, seed=5)
        assert a >= 0 and b >= 0

    def test_commuting_set_min_is_zero(self):
        # the true infimum is 0 (diagonal states); sampling approaches it
        got = empirical_minimum([SZ], 0.5, 400, seed=9)
        assert got < 0.01


class TestStackedSums:
    """The oracle's skew sum of K operators comes from one ``_skew_kernel``
    call per stack, and equals the sum of the K per-operator calls bit for
    bit, their errors included."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []

        def counted(*args, _kernel=bounds._skew_kernel):
            calls.append(args[0].shape)
            return _kernel(*args)

        monkeypatch.setattr(bounds, "_skew_kernel", counted)
        return calls

    @staticmethod
    def _families(ops, tol):
        """(s_or_order, each operator's own call) of every family the sum takes."""
        orders = [0.0, -2.0, float("-inf")]
        return [
            (0.3, lambda A, rho, k: wyd_skew(A, rho, 0.3, tol)),
            (0.5, lambda A, rho, k: wyd_skew(A, rho, 0.5, tol)),
            (-1.0, lambda A, rho, k: gen_skew(A, rho, -1.0, tol)),
            (orders, lambda A, rho, k: gen_skew(A, rho, orders[k], tol)),
        ]

    @pytest.mark.parametrize("kind", ["hermitian", "ginibre"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 24])
    def test_matches_per_operator_sums(self, kernel_calls, kind, d):
        rng = np.random.default_rng(d)
        make = random_hermitian if kind == "hermitian" else random_operator
        ops = OperatorSet(tuple(make(d, rng) for _ in range(3)))
        tol = Tolerances()
        for n in (1, 20, 100):
            (stack,) = bounds.sample_stacks(d, n, seed=n)
            for family, alone in self._families(ops, tol):
                want = sum(alone(A, stack, k) for k, A in enumerate(ops.operators))
                kernel_calls.clear()
                got = bounds._sum_value(ops, stack, family, tol)
                assert kernel_calls == [(3, 1, d, d)]
                assert got.tobytes() == want.tobytes()
            rho = next(iter(stack))
            got = bounds._sum_value(ops, rho, 0.3, tol)
            assert got == sum(wyd_skew(A, rho, 0.3, tol) for A in ops.operators)

    def test_sums_form_no_quadratic_factor(self, monkeypatch):
        # a skew sum is a sum of eigenbasis terms: no A^dag A + A A^dag is
        # formed for it
        calls = []
        monkeypatch.setattr(moments, "_quad_factor", lambda A: calls.append(A.shape))
        rng = np.random.default_rng(3)
        ops = OperatorSet(tuple(random_operator(5, rng) for _ in range(3)))
        tol = Tolerances()
        for n in (1, 20):
            (stack,) = bounds.sample_stacks(5, n, seed=n)
            for family in (0.3, -1.0):
                got = bounds._sum_value(ops, stack, family, tol)
                want = sum((wyd_skew if family > 0 else gen_skew)(A, stack, family, tol)
                           for A in ops.operators)
                assert got.tobytes() == want.tobytes()
        assert calls == []

    @pytest.mark.parametrize("n, blocks", [(1, [3]), (4, [3]), (20, [1, 1, 1]), (5, [2, 1])])
    def test_operator_blocks_hold_block_bytes(self, monkeypatch, n, blocks):
        # the kernel takes the K operators in blocks whose (k, N, d, d)
        # products hold _BLOCK_BYTES (256 KiB: 28 states of one operator at
        # d = 24), each (operator, state) value the one of its own call
        sizes = []

        def spied(A, *args, _values=moments._skew_values):
            sizes.append(A.shape[:-2])
            return _values(A, *args)

        monkeypatch.setattr(moments, "_skew_values", spied)
        if n == 5:
            monkeypatch.setattr(moments, "_BLOCK_BYTES", 16 * 24 * 24 * 5 * 2)
        rng = np.random.default_rng(n)
        ops = OperatorSet(tuple(random_hermitian(24, rng) for _ in range(3)))
        (stack,) = bounds.sample_stacks(24, n, seed=n)
        tol = Tolerances()
        got = bounds._sum_value(ops, stack, 0.3, tol)
        assert sizes == [(k, 1) for k in blocks]
        want = sum(wyd_skew(A, stack, 0.3, tol) for A in ops.operators)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block_bytes", [moments._BLOCK_BYTES, 1])
    def test_states_that_disagree_with_their_spectra_fail_no_sum(self, monkeypatch, kernel_calls,
                                                                 block_bytes):
        # unvalidated states whose eigenvalues disagree with their matrices
        # (which failed the skew's radicand check while skews were a quadratic
        # term less a weighted sum): the sums read the spectra alone, so
        # every term is >= 0 and each sum is that of the per-operator calls,
        # whether the kernel takes the operators in one block or one by one
        monkeypatch.setattr(moments, "_BLOCK_BYTES", block_bytes)
        ops = OperatorSet((np.zeros((2, 2)), np.diag([1.0, 0.0]), np.array([[0, 1], [1, 0.0]])))
        M = np.array([np.eye(2) / 2] * 2, dtype=complex)
        stack = DensityStack(M, np.array([[0.5, 1.5], [1.5, 0.5]]), np.array([np.eye(2)] * 2))
        tol = Tolerances()
        for family, alone in self._families(ops, tol):
            for rho in (stack, *stack):
                want = sum(alone(A, rho, k) for k, A in enumerate(ops.operators))
                kernel_calls.clear()
                got = bounds._sum_value(ops, rho, family, tol)
                assert len(kernel_calls) == 1
                assert np.all(got >= 0)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 24])
    def test_one_state_draw(self, d):
        # sample_stacks(d, 1, seed) is the Hilbert-Schmidt state of its one
        # draw, built without grouping by rank, bit for bit as the grouped
        # construction of a mixed-rank stack builds it
        for seed in range(6):
            (stack,) = bounds.sample_stacks(d, 1, seed)
            rng = np.random.default_rng(seed)
            raw = rng.normal(size=(2, d, 1 + int(rng.integers(d))))
            G = linalg._ginibre(raw[None])  # the states of each rank, scattered into place
            S = G @ linalg._dagger(G)
            grouped = np.empty((1, d, d), dtype=complex)
            grouped[[0]] = S / linalg._trace(S).real[..., None, None]
            assert linalg._hilbert_schmidt(raw[None]).tobytes() == grouped.tobytes()
            alone = density_stack(grouped)
            for field in ("matrix", "eigenvalues", "eigenvectors"):
                assert getattr(stack, field).tobytes() == getattr(alone, field).tobytes()


class TestWitness:
    def _singlet(self):
        v = np.zeros(4, dtype=complex)
        v[1] = 1 / math.sqrt(2)
        v[2] = -1 / math.sqrt(2)
        return pure_state(v)

    def test_singlet_flagged(self):
        ops = spin_ops(0.5)
        res = separability_witness(ops, ops, self._singlet())
        assert res.threshold > 0.99
        assert res.lhs == pytest.approx(0.0, abs=1e-10)
        assert res.violated

    def test_maximally_mixed_not_flagged(self):
        ops = spin_ops(0.5)
        res = separability_witness(ops, ops, maximally_mixed(4))
        assert not res.violated

    def test_separable_mixtures_never_flagged(self, rng):
        ops = OperatorSet(spin_ops(0.5))  # one set: its threshold is computed once
        for _ in range(120):
            k = int(rng.integers(1, 4))
            ws = rng.dirichlet(np.ones(k))
            M = np.zeros((4, 4), dtype=complex)
            for w in ws:
                a = random_density(2, 1, rng)
                b = random_density(2, 1, rng)
                M += w * np.kron(a.matrix, b.matrix)
            res = separability_witness(ops, ops, density(M))
            assert not res.violated


class TestEdgeCases:
    def test_embedding_domain(self):
        from skewbound import DomainError, embedding

        for s in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                embedding(RHO37, s)

    def test_empty_operator_set(self):
        from skewbound import DomainError

        with pytest.raises(DomainError):
            OperatorSet(())

    def test_no_feasible_chi_warns(self):
        # maximally mixed state: the embedding sits in the kernel, so every
        # reference-state branch degenerates and the bound falls back to 0
        from skewbound import NoFeasibleChiWarning

        with pytest.warns(NoFeasibleChiWarning):
            sbnd = bound_wyd(spin_ops(0.5), maximally_mixed(2), 0.3)
        assert sbnd.bound == 0.0


class TestGoodnessInterval:
    def test_empirical_minimum_inside_interval(self, rng):
        # the sampled minimum sits between eps0 and the smallest per-state
        # interval ceiling, for each tested operator set
        for ops in (spin_ops(0.5), spin_ops(1), four_3x3_ops()):
            oset = OperatorSet(tuple(ops))
            d = oset.dim
            lo = None
            hi_min = math.inf
            emp = math.inf
            for _ in range(150):
                rho = random_density(d, int(rng.integers(1, d + 1)), rng)
                sbnd = bound_wy(oset, rho)
                lo = sbnd.interval[0]
                hi_min = min(hi_min, sbnd.interval[1])
                total = sum(wyd_skew(A, rho, 0.5) for A in oset.operators)
                emp = min(emp, total)
            assert lo - 1e-9 <= emp <= hi_min + 1e-9


class TestWYDSetPieces:
    def test_built_once_per_set(self, monkeypatch, rng):
        # S = sum C^2 and vec(I)/sqrt(d) come with the components, and the
        # kernel is conjugated once with the spectral data; bound_wyd builds
        # none of them and still matches the reference loop
        d = 5
        oset = OperatorSet(tuple(random_operator(d, rng) for _ in range(2)))
        record = oset._record
        assert record.square_sum.tobytes() == bounds._square_sum(oset.components()).tobytes()
        assert record.identity_row.tobytes() == (np.eye(d).ravel() / math.sqrt(d)).tobytes()
        spec = oset.spectral()
        assert spec._kernel_h.tobytes() == spec.kernel.conj().T.tobytes()
        states = [random_density(d, r, rng) for r in range(1, d + 1)]
        want = [_bound_wyd_loop(oset, rho, 0.3) for rho in states]
        monkeypatch.setattr(bounds, "_square_sum", lambda Cs: pytest.fail("S built again"))
        stack = bound_wyd(oset, density_stack([rho.matrix for rho in states]), 0.3)
        for rho, (bound, hi), got in zip(states, want, stack.bound):
            one = bound_wyd(oset, rho, 0.3)
            assert abs(one.bound - bound) <= 1e-15 * abs(bound)
            assert one.bound == got
            assert one.interval == (0.0, hi)


class TestReverseCauchySchwarz:
    def test_feasibility_rule(self, rng):
        d = 3
        ref1 = np.zeros(d * d, dtype=complex)
        ref1[0] = 1.0
        ref2 = np.zeros(d * d, dtype=complex)
        ref2[1] = 1.0
        # chi aligned with ref1: tau1 = 0, always feasible, f = 1/(1+tau2^2)
        f, ok = _feasible_f(ref1, _pair(ref1, ref1))
        assert ok
        assert f == pytest.approx(1.0, abs=1e-12)
        # chi nearly orthogonal to both references: tau1*tau2 >= 1, discarded
        near = np.zeros(d * d, dtype=complex)
        near[2] = 1.0
        near[0] = near[1] = 1e-3
        near /= np.linalg.norm(near)
        assert _feasible_f(near, _pair(ref1, ref2)) == (0.0, False)
        # exactly orthogonal: overlap floor triggers, discarded
        orth = np.zeros(d * d, dtype=complex)
        orth[2] = 1.0
        assert _feasible_f(orth, _pair(ref1, ref2)) == (0.0, False)
        # the rows of a stack get the same rule, row by row
        chis = np.stack([ref1, near, orth])
        f, ok = _feasible_f(chis, _pair(np.stack([ref1] * 3), np.stack([ref1, ref2, ref2])))
        assert ok.tolist() == [True, False, False]
        assert f[0] == pytest.approx(1.0, abs=1e-12)
        assert f[1:].tolist() == [0.0, 0.0]

    def test_validity_on_3x3_set(self, rng):
        ops = OperatorSet(four_3x3_ops())
        for _ in range(60):
            rho = random_density(3, int(rng.integers(1, 4)), rng)
            s = float(rng.choice([0.2, 0.35, 0.65, 0.8]))
            sbnd = bound_wyd(ops, rho, s)
            total = sum(wyd_skew(A, rho, s) for A in ops.operators)
            assert sbnd.bound <= total + 1e-9
