import math
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
    sample_states,
    separability_witness,
    sqrt_trace,
    tighten_alpha_scan,
    variance,
    wyd_skew,
)
from conftest import SX, SZ, four_3x3_ops, four_qubit_ops, spin_ops
from skewbound.bounds import _feasible_f

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

    def test_spin_sets_eigenvalues(self):
        for j in (0.5, 1):
            H = h_tot(spin_ops(j))
            evs = np.linalg.eigvalsh(H)
            assert abs(evs[0]) < 1e-10
            assert abs(evs[evs > 1e-8][0] - 1) < 1e-10

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
            assert np.linalg.norm(spec.H @ mes) < 1e-12
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
            w, V = hermitian_eigen(spec.H)
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


def _reducible_case(seed: int, sizes, n_ops: int, kind: str):
    """Operators block-diagonal over ``sizes`` in a random basis, and a state.

    ``kind`` is "rank_deficient", "commuting" (block-aligned, a multiple of
    the identity on each block, so every skew vanishes) or "full_rank".
    """
    rng = np.random.default_rng(seed)
    d = sum(sizes)
    U = np.linalg.qr(random_operator(d, rng))[0]
    ops = []
    for _ in range(n_ops):
        A = np.zeros((d, d), dtype=complex)
        i = 0
        for n in sizes:
            A[i:i + n, i:i + n] = random_hermitian(n, rng)
            i += n
        ops.append(U @ A @ U.conj().T)
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
        spec = OperatorSet((np.kron(np.eye(2), SX), np.kron(np.eye(2), SZ))).spectral()
        assert np.linalg.norm(spec.H @ np.eye(4).ravel()) < 1e-12
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
            assert _feasible_f(chi, chi, ref2) == pytest.approx(want, rel=1e-12)


class TestAlphaScan:
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
        # one scan per grid; each matches a fresh set's
        assert pure_variance_bound(ops, 31) == pure_variance_bound(spin_ops(1), 31)
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
                      for rho in sample_states(2, 600, 11))
        assert a == b == by_hand

    def test_order_families(self):
        ops = four_qubit_ops()
        a = empirical_minimum(ops, -1.0, 200, seed=5)
        b = empirical_minimum(ops, [0.0, -1.0, -2.0, float("-inf")], 200, seed=5)
        assert a >= 0 and b >= 0

    def test_commuting_set_min_is_zero(self):
        # the true infimum is 0 (diagonal states); sampling approaches it
        got = empirical_minimum([SZ], 0.5, 400, seed=9)
        assert got < 0.01


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


class TestReverseCauchySchwarz:
    def test_feasibility_rule(self, rng):
        from skewbound.bounds import _feasible_f

        d = 3
        ref1 = np.zeros(d * d, dtype=complex)
        ref1[0] = 1.0
        ref2 = np.zeros(d * d, dtype=complex)
        ref2[1] = 1.0
        # chi aligned with ref1: tau1 = 0, always feasible, f = 1/(1+tau2^2)
        assert _feasible_f(ref1, ref1, ref1) == pytest.approx(1.0, abs=1e-12)
        # chi nearly orthogonal to both references: tau1*tau2 >= 1, discarded
        chi = np.zeros(d * d, dtype=complex)
        chi[2] = 1.0
        chi[0] = chi[1] = 1e-3
        chi /= np.linalg.norm(chi)
        assert _feasible_f(chi, ref1, ref2) is None
        # exactly orthogonal: overlap floor triggers, discarded
        chi = np.zeros(d * d, dtype=complex)
        chi[2] = 1.0
        assert _feasible_f(chi, ref1, ref2) is None

    def test_validity_on_3x3_set(self, rng):
        ops = OperatorSet(four_3x3_ops())
        for _ in range(60):
            rho = random_density(3, int(rng.integers(1, 4)), rng)
            s = float(rng.choice([0.2, 0.35, 0.65, 0.8]))
            sbnd = bound_wyd(ops, rho, s)
            total = sum(wyd_skew(A, rho, s) for A in ops.operators)
            assert sbnd.bound <= total + 1e-9
