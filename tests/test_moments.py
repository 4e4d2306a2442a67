import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbound import (
    DensityOperator,
    DimensionMismatch,
    DomainError,
    MeanOrder,
    density,
    density_stack,
    fisher_information,
    gen_skew,
    generalized_mean,
    hermitian_split,
    maximally_mixed,
    pure_state,
    random_density,
    random_hermitian,
    random_operator,
    std_dev,
    variance,
    wyd_skew,
)
from skewbound.linalg import Tolerances
from conftest import SX, SY, SZ

RHO37 = density(np.diag([0.3, 0.7]))
KET0 = pure_state([1, 0])


class TestStdDev:
    def test_eigenstate(self):
        assert std_dev(SZ, KET0) == 0

    def test_pauli_x_on_ket0(self):
        assert abs(std_dev(SX, KET0) - 1) < 1e-12

    def test_non_hermitian(self):
        # A = |0><1|: A^dag A + A A^dag = I and <A> = 0 at I/2
        A = np.array([[0, 1], [0, 0]], dtype=complex)
        assert abs(std_dev(A, maximally_mixed(2)) - math.sqrt(0.5)) < 1e-12

    def test_dagger_symmetry(self, rng):
        rho = random_density(3, 2, rng)
        A = random_operator(3, rng)
        assert std_dev(A, rho) == pytest.approx(std_dev(A.conj().T, rho), abs=1e-12)


class TestWydSkew:
    def test_commuting_pair(self):
        for s in (0.1, 0.5, 0.9):
            assert wyd_skew(SZ, RHO37, s) < 1e-12

    def test_pure_state_equals_variance(self):
        assert abs(wyd_skew(SX, KET0, 0.5) - 1) < 1e-12

    def test_qubit_closed_form(self):
        expect = 1 - 2 * math.sqrt(0.21)
        assert abs(wyd_skew(SX, RHO37, 0.5) - expect) < 1e-12

    def test_s_domain(self):
        for s in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(DomainError):
                wyd_skew(SX, RHO37, s)

    def test_frobenius_form_at_half(self, rng):
        rho = random_density(4, 3, rng)
        A = random_operator(4, rng)
        sq = rho.power(0.5)
        comm = sq @ A - A @ sq
        expect = 0.5 * np.trace(comm.conj().T @ comm).real
        assert abs(wyd_skew(A, rho, 0.5) - expect) < 1e-10

    def test_hermitian_trace_form(self, rng):
        rho = random_density(4, 4, rng)
        A = random_hermitian(4, rng)
        for s in (0.25, 0.7):
            expect = (
                np.trace(A @ A @ rho.matrix)
                - np.trace(rho.power(1 - s) @ A @ rho.power(s) @ A)
            ).real
            assert abs(wyd_skew(A, rho, s) - expect) < 1e-10


def _ref_wyd_trace_form(A, rho, s):
    """(1/2)(Tr[rho (A^dag A + A A^dag)] - Tr[rho^(1-s) A^dag rho^s A]
    - Tr[rho^s A^dag rho^(1-s) A]) and the first trace halved."""
    rs, r1s = rho.power(s), rho.power(1 - s)
    quad = 0.5 * np.trace((A.conj().T @ A + A @ A.conj().T) @ rho.matrix).real
    cross = 0.5 * (np.trace(r1s @ A.conj().T @ rs @ A) + np.trace(rs @ A.conj().T @ r1s @ A)).real
    return quad - cross, quad


class TestWydSkewKernel:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 7),
        rank_frac=st.floats(0, 1),
        s=st.floats(0, 1, exclude_min=True, exclude_max=True),
        hermitian=st.booleans(),
    )
    def test_matches_trace_form(self, seed, d, rank_frac, s, hermitian):
        # the eigenbasis kernel against the trace form, to 1e-12 of the
        # quadratic term whose cross terms cancel in both
        rng = np.random.default_rng(seed)
        rho = random_density(d, 1 + round(rank_frac * (d - 1)), rng)
        A = (random_hermitian if hermitian else random_operator)(d, rng)
        expect, quad = _ref_wyd_trace_form(A, rho, s)
        assert abs(wyd_skew(A, rho, s) - max(expect, 0.0)) <= 1e-12 * quad

    def test_operator_of_other_dimension_rejected(self):
        for f in (lambda A: wyd_skew(A, RHO37, 0.3), lambda A: gen_skew(A, RHO37, -1.0)):
            with pytest.raises(DimensionMismatch):
                f(np.eye(3))

    def test_rho_by_keyword(self, rng):
        A = random_operator(3, rng)
        stack = density_stack([random_density(3, r, rng).matrix for r in (1, 2, 3)])
        for rho in (random_density(3, 2, rng), stack):
            assert np.array_equal(wyd_skew(A, rho=rho, s=0.3), wyd_skew(A, rho, 0.3))

    def test_one_case_per_state(self, rng):
        # a single state takes one operator and one s; a stack of them would
        # leave cases without a state
        ops = np.stack([random_operator(2, rng) for _ in range(3)])
        for f in (lambda: wyd_skew(ops, RHO37, 0.3), lambda: wyd_skew(ops[0], RHO37, [0.3, 0.7]),
                  lambda: variance(ops, RHO37)):
            with pytest.raises(DimensionMismatch):
                f()


class TestGeneralizedMean:
    def test_equal_arguments(self):
        for order in (0.0, -1.0, -2.5, float("-inf")):
            assert generalized_mean(0.4, 0.4, order) == pytest.approx(0.4, abs=1e-12)

    def test_zero_order_is_limit(self):
        m0 = generalized_mean(0.3, 0.7, 0.0)
        assert abs(m0 - math.sqrt(0.21)) < 1e-12
        m_small = generalized_mean(0.3, 0.7, MeanOrder.finite(-1e-8))
        assert abs(m0 - m_small) < 1e-8

    def test_min_order(self):
        assert generalized_mean(0.3, 0.7, float("-inf")) == 0.3

    def test_harmonic(self):
        assert generalized_mean(0.3, 0.7, -1.0) == pytest.approx(2 * 0.21 / 1.0, abs=1e-12)

    def test_monotone_in_order(self):
        vals = [generalized_mean(0.2, 0.9, nu) for nu in (0.0, -0.5, -1, -2, -8, float("-inf"))]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            generalized_mean(0.0, 0.5, -1.0)
        with pytest.raises(DomainError):
            MeanOrder(0.5)
        with pytest.raises(DomainError):
            MeanOrder.finite(0.0)

    def test_very_negative_order_stable(self):
        assert generalized_mean(0.3, 0.7, -1e6) == pytest.approx(0.3, rel=1e-6)


class TestMeanWeights:
    @pytest.mark.parametrize("nu", [0.0, -1e-7, -1.0, -50.0, float("-inf")])
    def test_matches_scalar_mean(self, nu):
        from skewbound.moments import _mean_weights

        tol_psd = 1e-10
        spectra = [
            np.array([0.0, 0.0, 0.2, 0.8]),
            np.array([0.0, 1e-10, 0.25, 0.25 * (1 + 1e-12), 0.5 - 1e-15, 0.5]),
            np.array([1e-9, 1e-9 * (1 + 1e-13), 0.3, 0.7 - 2e-9]),
            np.sort(np.random.default_rng(5).dirichlet(np.ones(7))),
        ]
        for eigs in spectra:
            W = _mean_weights(eigs, MeanOrder(nu), tol_psd)
            for i, x in enumerate(eigs):
                for j, y in enumerate(eigs):
                    if min(x, y) > tol_psd:
                        want = generalized_mean(x, y, nu)
                        assert abs(W[i, j] - want) <= 1e-14 * want
                    else:
                        assert W[i, j] == 0.0


class TestGenSkew:
    def test_zero_order_matches_wyd(self, rng):
        rho = random_density(4, 3, rng)
        A = random_hermitian(4, rng)
        assert abs(gen_skew(A, rho, 0.0) - wyd_skew(A, rho, 0.5)) < 1e-10

    def test_fisher_closed_form(self):
        # off-diagonal-only sum (l_i - l_j)^2/(l_i + l_j) |A_ij|^2 / 2
        got = gen_skew(SX, RHO37, -1.0)
        assert abs(got - 0.16) < 1e-12
        assert abs(fisher_information(SX, RHO37) - 0.64) < 1e-12

    def test_pure_state_all_orders(self, rng):
        psi = pure_state(np.array([1, 1j, -1]) / math.sqrt(3))
        A = random_hermitian(3, rng)
        v = variance(A, psi)
        for order in (0.0, -1.0, -3.0, float("-inf")):
            assert abs(gen_skew(A, psi, order) - v) < 1e-10

    def test_ordering_chain_s_family(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 5))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            A = random_operator(d, rng)
            s = float(rng.uniform(0.05, 0.95))
            i_s = wyd_skew(A, rho, s)
            i_half = wyd_skew(A, rho, 0.5)
            v = variance(A, rho)
            assert -1e-10 <= i_s <= i_half + 1e-8 <= v + 2e-8

    def test_ordering_chain_orders(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 5))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            A = random_hermitian(d, rng)
            vals = [gen_skew(A, rho, nu) for nu in (0.0, -1.0, -2.0, float("-inf"))]
            v = variance(A, rho)
            for a, b in zip(vals, vals[1:]):
                assert a <= b + 1e-8
            assert vals[-1] <= v + 1e-8


class TestHermitianSplit:
    def test_hermitian_input(self, rng):
        A = random_hermitian(3, rng)
        sp = hermitian_split(A)
        np.testing.assert_allclose(sp.a1, A, atol=1e-12)
        np.testing.assert_allclose(sp.a2, 0 * A, atol=1e-12)

    def test_raising_operator(self):
        A = np.array([[0, 1], [0, 0]], dtype=complex)
        for sign in (+1, -1):
            sp = hermitian_split(A, sign)
            np.testing.assert_allclose(sp.a1, SX / 2, atol=1e-14)
            np.testing.assert_allclose(sp.a2, sign * SY / 2, atol=1e-14)
            np.testing.assert_allclose(sp.reconstruct(), A, atol=1e-14)

    def test_antihermitian(self):
        A = 1j * SZ
        for sign in (+1, -1):
            sp = hermitian_split(A, sign)
            np.testing.assert_allclose(sp.a1, 0 * SZ, atol=1e-14)
            np.testing.assert_allclose(sp.a2, sign * SZ, atol=1e-14)
            np.testing.assert_allclose(sp.reconstruct(), A, atol=1e-14)

    def test_parts_hermitian(self, rng):
        A = random_operator(4, rng)
        sp = hermitian_split(A, -1)
        for P in (sp.a1, sp.a2):
            np.testing.assert_allclose(P, P.conj().T, atol=1e-12)
        np.testing.assert_allclose(sp.reconstruct(), A, atol=1e-12)


class TestStructuralProperties:
    def test_convexity(self, rng):
        # skew information never increases under classical mixing; the
        # generalized family is only convex on the operator-mean range
        # [-1, 0] (see test_convexity_fails_below_minus_one)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            k = int(rng.integers(2, 4))
            ws = rng.dirichlet(np.ones(k))
            parts = [random_density(d, int(rng.integers(1, d + 1)), rng) for _ in range(k)]
            mix = density(sum(w * p.matrix for w, p in zip(ws, parts)))
            A = random_operator(d, rng)
            s = float(rng.choice([0.25, 0.5, 0.75]))
            mixed = wyd_skew(A, mix, s)
            avg = sum(w * wyd_skew(A, p, s) for w, p in zip(ws, parts))
            assert mixed <= avg + 1e-8
            order = float(rng.choice([0.0, -0.5, -1.0]))
            mixed_g = gen_skew(A, mix, order)
            avg_g = sum(w * gen_skew(A, p, order) for w, p in zip(ws, parts))
            assert mixed_g <= avg_g + 1e-8

    def test_convexity_fails_below_minus_one(self):
        # documented counterexample: mixing Bloch vectors (+/-1/2, 1/2, 0)
        # increases the order -2 and order -inf skews of sigma_x, so the
        # convexity suite deliberately excludes orders below -1
        from skewbound import BlochState

        up = BlochState(np.array([0.5, 0.5, 0.0])).to_density()
        dn = BlochState(np.array([-0.5, 0.5, 0.0])).to_density()
        mix = density(0.5 * up.matrix + 0.5 * dn.matrix)
        for order, end, mid in ((-2.0, 0.295876, 0.329180), (float("-inf"), 0.353553, 0.5)):
            a, b = gen_skew(SX, up, order), gen_skew(SX, dn, order)
            m = gen_skew(SX, mix, order)
            assert a == pytest.approx(end, abs=1e-6)
            assert b == pytest.approx(end, abs=1e-6)
            assert m == pytest.approx(mid, abs=1e-6)
            assert m > (a + b) / 2 + 1e-3

    def test_additivity(self, rng):
        # local observables on a product state add exactly
        for dims in ((2, 2), (2, 3), (3, 3)):
            rA = random_density(dims[0], dims[0], rng)
            rB = random_density(dims[1], dims[1], rng)
            joint = density(np.kron(rA.matrix, rB.matrix))
            A = random_hermitian(dims[0], rng)
            B = random_hermitian(dims[1], rng)
            AB = np.kron(A, np.eye(dims[1])) + np.kron(np.eye(dims[0]), B)
            for s in (0.25, 0.5, 0.75):
                total = wyd_skew(AB, joint, s)
                parts = wyd_skew(A, rA, s) + wyd_skew(B, rB, s)
                assert abs(total - parts) < 1e-8
            for order in (0.0, -1.0, float("-inf")):
                total = gen_skew(AB, joint, order)
                parts = gen_skew(A, rA, order) + gen_skew(B, rB, order)
                assert abs(total - parts) < 1e-8

    def test_split_additivity(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 6))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            A = random_operator(d, rng)
            sp = hermitian_split(A, +1)
            s = float(rng.choice([0.25, 0.5, 0.75]))
            assert abs(
                wyd_skew(A, rho, s) - wyd_skew(sp.a1, rho, s) - wyd_skew(sp.a2, rho, s)
            ) < 1e-8
            assert abs(
                variance(A, rho) - variance(sp.a1, rho) - variance(sp.a2, rho)
            ) < 1e-8
            order = float(rng.choice([0.0, -1.0, -2.0, float("-inf")]))
            assert abs(
                gen_skew(A, rho, order)
                - gen_skew(sp.a1, rho, order)
                - gen_skew(sp.a2, rho, order)
            ) < 1e-8


class TestMomentTable:
    """``moments`` reports std_dev, wyd_skew and every gen_skew of each
    operator from one set of shared terms, each bit for bit as its own call
    gives it, and with its errors in the order of those calls."""

    ORDERS = [0.0, -1.0, -2.0, float("-inf")]

    @staticmethod
    def _alone(ops, rho, s, orders, tol):
        return [[std_dev(A, rho, tol), wyd_skew(A, rho, s, tol)] + [
            gen_skew(A, rho, o, tol) for o in orders] for A in ops]

    def test_matches_the_separate_calls(self):
        from skewbound.moments import _moment_table

        rng = np.random.default_rng(26)
        tol = Tolerances()
        for k in range(100):
            d = int(rng.integers(2, 33))
            ops = (random_operator(d, rng), random_hermitian(d, rng))[::1 if k % 2 else -1]
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            got = _moment_table(ops, rho, 0.3, self.ORDERS, tol)
            want = self._alone(ops, rho, 0.3, self.ORDERS, tol)
            assert got.tobytes() == np.array(want).tobytes()

    ZERO, P0 = np.zeros((2, 2)), np.diag([1.0, 0.0])

    @pytest.mark.parametrize("s, orders, state, ops, error", [
        # the variance fails before s is checked
        (1.5, [], "bad_var", (SZ,), "variance radicand"),
        # the skews before it fail no check
        (0.3, [1.0], "bad_skew", (P0,), "mean order must be <= 0"),
        (1.5, [0.0], "valid", (P0,), "s must lie in"),
        (0.3, [0.0, 2.0], "valid", (P0,), "mean order must be <= 0"),
        # the first operator's skews are checked before the second one's variance
        (1.5, [0.0], "bad_var", (ZERO, SZ), "s must lie in"),
        (0.3, [0.0], "bad_var", (ZERO, SZ), "variance radicand"),
    ])
    def test_first_error_is_that_of_the_separate_calls(self, s, orders, state, ops, error):
        # unvalidated states: a negative "eigenvalue" fails the variance of Z;
        # eigenvalues that disagree with the matrix fail no skew of diag(1, 0)
        from skewbound.moments import _moment_table

        tol = Tolerances()
        rho = {
            "bad_var": DensityOperator(np.diag([-1.0, 2.0]).astype(complex),
                                       np.array([0.0, 1.0]), np.eye(2, dtype=complex)),
            "bad_skew": DensityOperator(np.eye(2, dtype=complex) / 2,
                                        np.array([1.5, 0.5]), np.eye(2, dtype=complex)),
            "valid": RHO37,
        }[state]
        with pytest.raises(Exception) as want:
            self._alone(ops, rho, s, orders, tol)
        with pytest.raises(type(want.value)) as got:
            _moment_table(ops, rho, s, orders, tol)
        assert str(got.value) == str(want.value)
        assert error in str(got.value)

    def test_cli_forms_the_quadratic_factor_once_per_operator(self, monkeypatch, capsys):
        from skewbound import cli, moments

        calls = []
        real = moments._quad_factor
        monkeypatch.setattr(moments, "_quad_factor", lambda A: calls.append(1) or real(A))
        assert cli.main(["moments", "example4", "--nu", "0,-1,-2,-inf"]) == 0
        assert len(calls) == len(cli.load_problem("example4").operators)


class TestAccuracyNearMaximallyMixed:
    """Skews at rho = I/d + tH/d, down to t = 1e-7, agree within 1e-6 relative
    with a long-double evaluation on the same eigenpairs: each term of the
    eigenbasis sum is >= 0 and formed with no subtraction of nearby numbers,
    so nothing of size ||A||^2/d cancels down to the O(t^2) skew."""

    FAMILIES = [("wyd", 0.3), ("wyd", 0.5), ("gen", 0.0), ("gen", -1.0), ("gen", -2.0),
                ("gen", float("-inf"))]

    @staticmethod
    def _gaps(lam, family, x):
        """G_ij of the family in long double, each from a closed form whose
        only subtraction is of two eigenvalues or of their powers."""
        a, b = lam[:, None], lam[None, :]
        if family == "wyd":
            s = np.longdouble(x)
            return (a**s - b**s) * (a ** (1 - s) - b ** (1 - s)) / 2
        if x == 0:
            return (np.sqrt(a) - np.sqrt(b)) ** 2 / 2
        if x == -1:
            return (a - b) ** 2 / (2 * (a + b))
        if x == -2:
            r = np.sqrt(a * a + b * b)
            return (a - b) ** 2 * ((a + b) ** 2 + 2 * a * b) / (
                2 * r * ((a + b) * r + 2 * np.sqrt(np.longdouble(2)) * a * b))
        return np.abs(a - b) / 2

    @pytest.mark.parametrize("t", [1e-3, 1e-5, 1e-7])
    def test_relative_error_against_long_double(self, t):
        rng = np.random.default_rng(7)
        for d in (3, 6):
            H = random_hermitian(d, rng)
            H = (H - np.trace(H).real / d * np.eye(d)) / np.abs(np.linalg.eigvalsh(H)).max()
            rho = density((np.eye(d) + t * H) / d)
            lam = rho.eigenvalues.astype(np.longdouble)
            V = rho.eigenvectors.astype(np.clongdouble)
            for _ in range(5):
                A = random_operator(d, rng)
                At = np.abs(V.conj().T @ A.astype(np.clongdouble) @ V) ** 2
                for family, x in self.FAMILIES:
                    got = wyd_skew(A, rho, x) if family == "wyd" else gen_skew(A, rho, x)
                    want = float(np.sum(self._gaps(lam, family, x) * At))
                    assert abs(got - want) <= 1e-6 * want, (d, family, x, got, want)

    def test_states_that_disagree_with_their_spectra_give_skews_of_at_least_0(self):
        # unvalidated states whose eigenvalues are not those of their matrices
        # (skews read only the eigenpairs, so no such state can fail a check)
        rng = np.random.default_rng(11)
        states = [DensityOperator(np.eye(2, dtype=complex) / 2, np.array([1.5, 0.5]),
                                  np.eye(2, dtype=complex))]
        for d in (2, 3, 5):
            for _ in range(10):
                w = np.sort(rng.dirichlet(np.ones(d)) * rng.uniform(0.5, 2))
                V = random_density(d, d, rng).eigenvectors
                states.append(DensityOperator(random_density(d, d, rng).matrix, w, V))
        for rho in states:
            diagonal = [np.diag(np.eye(rho.dim)[k]) for k in range(rho.dim)]
            for A in (random_operator(rho.dim, rng), *diagonal):
                for s in (0.3, 0.5):
                    assert wyd_skew(A, rho, s) >= 0
                for order in (0.0, -1.0, -2.0, float("-inf")):
                    assert gen_skew(A, rho, order) >= 0
