import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from skewbound import (
    BlochState,
    DegenerateDenominator,
    NotOrthonormal,
    bloch_vector,
    density,
    direction_op,
    direction_variance_fisher_identity,
    direction_variance_skew_identity,
    fisher_variance_direction_bound,
    fisher_wy_ratio,
    gen_skew,
    maximally_mixed,
    mixed_triple_equalities,
    orthogonal_triple_skew_equality,
    pure_state,
    qubit_bracket,
    qubit_gen_skew_closed,
    random_operator,
    scaled_skew_sum,
    skew_variance_mix_check,
    triple_purity_identity,
    variance,
)
from conftest import SX, SZ, four_qubit_ops

RHO37 = density(np.diag([0.3, 0.7]))
XYZ = (np.eye(3)[0], np.eye(3)[1], np.eye(3)[2])
ORDERS = (0.0, -1.0, -2.0, float("-inf"))


def random_mixed_qubit(rng, lo=0.05, hi=0.45):
    lam = float(rng.uniform(lo, hi))
    from skewbound import haar_unitary

    U = haar_unitary(2, rng)
    return density(U @ np.diag([lam, 1 - lam]) @ U.conj().T)


def random_triple(rng):
    Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    return Q[:, 0], Q[:, 1], Q[:, 2]


class TestBloch:
    def test_round_trip(self, rng):
        r = np.array([0.2, -0.3, 0.4])
        rho = BlochState(r).to_density()
        np.testing.assert_allclose(bloch_vector(rho), r, atol=1e-12)

    def test_ball_boundary(self):
        BlochState(np.array([0, 0, 1.0])).to_density()
        with pytest.raises(Exception):
            BlochState(np.array([0, 0, 1.1]))

    def test_direction_variance(self, rng):
        # <d s_n>^2 = (1 - (n.r)^2)/4
        for _ in range(30):
            rho = random_mixed_qubit(rng, 0.0, 0.5)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            r = bloch_vector(rho)
            got = variance(direction_op(n), rho)
            assert got == pytest.approx((1 - float(n @ r) ** 2) / 4, abs=1e-10)


class TestClosedForm:
    def test_zero_order_value(self):
        got = qubit_gen_skew_closed(SX, RHO37, 0.0)
        assert got == pytest.approx(1 - 2 * math.sqrt(0.21), abs=1e-10)

    def test_min_order_value(self):
        got = qubit_gen_skew_closed(SX, RHO37, float("-inf"))
        # bracket (1 - 2*0.3) times unit eigenvector variance
        assert got == pytest.approx(0.4, abs=1e-10)

    @pytest.mark.parametrize("order", [0.0, -1.0, float("-inf")])
    @pytest.mark.parametrize("t", [1e-5, 1e-7])
    def test_bracket_near_the_maximally_mixed_state(self, t, order):
        # l1 + l2 - 2 m_nu on the stored eigenvalues, to 50 digits: 1 - 2 m_nu
        # would cancel all but about |log10 t^2| of its digits
        rho = density(np.diag([1 + t, 1 - t]) / 2)
        x, y = (Decimal(float(v)) for v in rho.eigenvalues)
        with localcontext() as ctx:
            ctx.prec = 50
            if order == 0.0:
                m = (x * y).sqrt()
            elif order == -1.0:
                m = 2 * x * y / (x + y)
            else:
                m = min(x, y)
            want = float(x + y - 2 * m)
        assert qubit_bracket(rho, order) == pytest.approx(want, rel=1e-12, abs=0)

    def test_pure_state_gives_variance(self, rng):
        psi = pure_state(np.array([1, 1j]) / math.sqrt(2))
        for order in ORDERS:
            sigma = random_operator(2, rng)
            assert qubit_gen_skew_closed(sigma, psi, order) == pytest.approx(
                variance(sigma, psi), abs=1e-10
            )

    def test_matches_general_definition(self, rng):
        for _ in range(60):
            rho = random_mixed_qubit(rng, 0.0, 0.5)
            sigma = random_operator(2, rng)
            order = float(rng.choice(ORDERS))
            closed = qubit_gen_skew_closed(sigma, rho, order)
            general = gen_skew(sigma, rho, order)
            assert closed == pytest.approx(general, abs=1e-10)

    def test_eigenvector_independence(self, rng):
        # both eigenvector variances agree for any 2x2 operator
        for _ in range(40):
            rho = random_mixed_qubit(rng)
            sigma = random_operator(2, rng)
            v1 = variance(sigma, pure_state(rho.eigenvectors[:, 0]))
            v2 = variance(sigma, pure_state(rho.eigenvectors[:, 1]))
            assert v1 == pytest.approx(v2, abs=1e-10)

    def test_fisher_wy_ratio(self):
        got = fisher_wy_ratio(RHO37)
        expect = 4 * (1 - 4 * 0.21) / (1 - 2 * math.sqrt(0.21))
        assert got == pytest.approx(expect, abs=1e-10)
        # consistency with the two generalized skews
        f = gen_skew(SX, RHO37, -1.0) * 4
        wy = gen_skew(SX, RHO37, 0.0)
        assert f / wy == pytest.approx(got, abs=1e-8)


class TestScaledSkewSum:
    def test_printed_example_bounds(self):
        # four-observable set, rho = diag(0.3, 0.7): per-order floors
        ops = four_qubit_ops()
        from skewbound import pure_variance_bound

        floor = pure_variance_bound(ops)
        for order, expect in ((0.0, 0.1834), (-1.0, 0.3515), (-2.0, 0.4835),
                              (float("-inf"), 0.8788)):
            from skewbound import qubit_bracket

            value = qubit_bracket(RHO37, order) * floor
            assert value == pytest.approx(expect, abs=1e-3)
            total = sum(gen_skew(A, RHO37, order) for A in ops)
            assert total >= value - 1e-8

    def test_lower_bounded_by_floor(self, rng):
        ops = four_qubit_ops()
        from skewbound import pure_variance_bound

        floor = pure_variance_bound(ops)
        for _ in range(30):
            rho = random_mixed_qubit(rng)
            orders = [float(rng.choice(ORDERS)) for _ in range(4)]
            got = scaled_skew_sum(list(zip(ops, orders)), rho)
            assert got >= floor - 1e-8

    def test_commuting_ops_zero(self):
        got = scaled_skew_sum([(SZ, 0.0), (SZ, -1.0)], RHO37)
        assert got == pytest.approx(0.0, abs=1e-10)

    def test_pure_state_rejected(self):
        with pytest.raises(DegenerateDenominator):
            scaled_skew_sum([(SX, 0.0)], pure_state([1, 0]))

    def test_maximally_mixed_rejected(self):
        with pytest.raises(DegenerateDenominator):
            scaled_skew_sum([(SX, 0.0)], maximally_mixed(2))


class TestMixCheck:
    def test_two_direction_fisher_bound(self, rng):
        for _ in range(40):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            rho = random_mixed_qubit(rng, 0.0, 0.5)
            lhs, bound = fisher_variance_direction_bound(a, b, rho)
            assert bound == pytest.approx((1 - abs(float(a @ b))) / 4, abs=1e-12)
            assert lhs >= bound - 1e-9

    def test_parallel_directions(self, rng):
        a = np.array([0, 0, 1.0])
        lhs, bound = fisher_variance_direction_bound(a, a, RHO37)
        assert bound == 0

    def test_orthogonal_saturation_probe(self):
        # maximally mixed state: Fisher term 0, variance term 1/4 = bound
        a = np.array([1.0, 0, 0])
        b = np.array([0, 0, 1.0])
        lhs, bound = fisher_variance_direction_bound(a, b, maximally_mixed(2))
        assert bound == pytest.approx(0.25, abs=1e-12)
        assert lhs == pytest.approx(0.25, abs=1e-10)

    def test_generic_mix_check(self, rng):
        for _ in range(25):
            rho = random_mixed_qubit(rng)
            skew_ops = [(direction_op(n), float(rng.choice(ORDERS)))
                        for n in random_triple(rng)[:2]]
            var_ops = [direction_op(random_triple(rng)[0])]
            lhs, bound = skew_variance_mix_check(skew_ops, var_ops, rho)
            assert lhs >= bound - 1e-8

    def test_explicit_bound_override(self, rng):
        a = np.array([1.0, 0, 0])
        b = np.array([0, 1.0, 0])
        rho = random_mixed_qubit(rng)
        lhs, bound = skew_variance_mix_check(
            [(direction_op(a), -1.0)], [direction_op(b)], rho,
            lower_bound=(1 - abs(float(a @ b))) / 4,
        )
        assert bound == pytest.approx(0.25, abs=1e-12)
        assert lhs >= bound - 1e-9


class TestTripleEqualities:
    def test_axes_with_mixed_orders(self):
        rep = orthogonal_triple_skew_equality(*XYZ, RHO37, (0.0, -1.0, float("-inf")))
        assert abs(rep.residual) < 1e-10
        assert rep.rhs == 0.5

    def test_all_fisher_orders(self, rng):
        for _ in range(20):
            rho = random_mixed_qubit(rng)
            rep = orthogonal_triple_skew_equality(*random_triple(rng), rho, (-1.0,) * 3)
            assert abs(rep.residual) < 1e-10

    def test_rotated_triples(self, rng):
        for _ in range(30):
            rho = random_mixed_qubit(rng)
            orders = [float(rng.choice(ORDERS)) for _ in range(3)]
            rep = orthogonal_triple_skew_equality(*random_triple(rng), rho, orders)
            assert abs(rep.residual) < 1e-10

    def test_rejects_non_orthonormal(self):
        n1 = np.array([1.0, 0, 0])
        n2 = np.array([1.0, 0, 0])
        n3 = np.array([0, 0, 1.0])
        with pytest.raises(NotOrthonormal):
            orthogonal_triple_skew_equality(n1, n2, n3, RHO37, (0.0,) * 3)

    def test_mixed_triple_reports(self, rng):
        for _ in range(30):
            rho = random_mixed_qubit(rng)
            orders = [float(rng.choice(ORDERS)) for _ in range(3)]
            first, second = mixed_triple_equalities(*random_triple(rng), rho, orders)
            assert abs(first.residual) < 1e-10
            assert first.rhs == 0.5
            assert abs(second.residual) < 1e-10
            assert second.rhs == pytest.approx(rho.purity() / 2, abs=1e-12)

    def test_identity_sweeps(self, rng):
        for _ in range(30):
            rho = random_mixed_qubit(rng)
            n1, n2, n3 = random_triple(rng)
            rep = direction_variance_fisher_identity(n1, rho)
            assert abs(rep.residual) < 1e-10
            rep = direction_variance_skew_identity(n2, rho, float(rng.choice(ORDERS)))
            assert abs(rep.residual) < 1e-10
            rep = triple_purity_identity(n1, n2, n3, rho)
            assert abs(rep.residual) < 1e-10

    def test_purity_identity_pure_state(self):
        rep = triple_purity_identity(*XYZ, pure_state([1, 1j]))
        assert abs(rep.residual) < 1e-10


class TestOrderRatio:
    def test_matches_skew_quotient(self, rng):
        from skewbound import order_ratio

        for _ in range(20):
            rho = random_mixed_qubit(rng)
            sigma = random_operator(2, rng)
            for o1, o2 in ((0.0, -1.0), (-2.0, float("-inf")), (-1.0, -3.0)):
                a = gen_skew(sigma, rho, o1)
                b = gen_skew(sigma, rho, o2)
                if b < 1e-12:
                    continue
                assert a / b == pytest.approx(order_ratio(rho, o1, o2), abs=1e-8)

    def test_degenerate_states_rejected(self):
        from skewbound import order_ratio

        with pytest.raises(DegenerateDenominator):
            order_ratio(pure_state([1, 0]), 0.0, -1.0)
        with pytest.raises(DegenerateDenominator):
            order_ratio(maximally_mixed(2), 0.0, -1.0)
