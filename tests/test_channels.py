import numpy as np
import pytest

from skewbound import (
    DimensionMismatch,
    IncompleteChannel,
    KrausChannel,
    OperatorSet,
    amplitude_damping,
    bound_wy,
    channel_bound,
    channel_skew,
    density,
    luders_channel,
    maximally_mixed,
    phase_damping,
    pooled_set,
    pure_state,
    random_density,
    sqrt_trace,
)
RHO37 = density(np.diag([0.3, 0.7]))


class TestKrausChannel:
    def test_completeness_enforced(self):
        with pytest.raises(IncompleteChannel):
            KrausChannel(kraus=(0.5 * np.eye(2),))

    def test_identity_channel(self):
        ch = KrausChannel(kraus=(np.eye(2),), label="id")
        rho = RHO37
        np.testing.assert_allclose(ch.apply(rho), rho.matrix, atol=1e-12)

    def test_damping_constructors(self):
        for p in (0.0, 0.3, 1.0):
            phase_damping(p)
            amplitude_damping(p)

    def test_luders(self):
        P0 = np.diag([1.0, 0.0]).astype(complex)
        P1 = np.diag([0.0, 1.0]).astype(complex)
        ch = luders_channel([P0, P1])
        out = ch.apply(pure_state([1, 1]))
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel(kraus=(np.eye(2), np.eye(3)))

    def test_equality_is_identity(self):
        ch = phase_damping(0.3)
        assert ch == ch
        assert phase_damping(0.3) != phase_damping(0.3)


class TestChannelSkew:
    def test_identity_channel_zero(self, rng):
        ch = KrausChannel(kraus=(np.eye(3),))
        rho = random_density(3, 2, rng)
        assert channel_skew(ch, rho) == pytest.approx(0.0, abs=1e-12)

    def test_plus_state_has_coherence(self):
        ch = phase_damping(0.5)
        plus = pure_state([1, 1])
        assert channel_skew(ch, plus) > 1e-3

    def test_maximally_mixed_zero(self):
        for ch in (phase_damping(0.3), amplitude_damping(0.7)):
            assert channel_skew(ch, maximally_mixed(2)) == pytest.approx(0.0, abs=1e-12)

    def test_incoherent_states_of_luders(self, rng):
        # diagonal states carry no coherence for the projective channel
        P0 = np.diag([1.0, 0.0]).astype(complex)
        P1 = np.diag([0.0, 1.0]).astype(complex)
        ch = luders_channel([P0, P1])
        for lam in (0.1, 0.5, 0.9):
            rho = density(np.diag([lam, 1 - lam]))
            assert channel_skew(ch, rho) == pytest.approx(0.0, abs=1e-12)
        coherent = pure_state([1, 1j])
        assert channel_skew(ch, coherent) > 1e-3


class TestChannelBound:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_damping_pair_eps1(self, p):
        sb = channel_bound([phase_damping(p), amplitude_damping(p)], RHO37)
        assert sb.kernel_dim == 1
        assert sb.epsilon1 == pytest.approx(p, abs=1e-10)
        expect = p * (1 - sqrt_trace(RHO37) ** 2 / 2)
        assert sb.bound == pytest.approx(expect, abs=1e-10)

    def test_identity_channel_degenerate(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sb = channel_bound([KrausChannel(kraus=(np.eye(2),))], RHO37)
        assert sb.bound == pytest.approx(0.0, abs=1e-12)

    def test_p_zero_bound_zero(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sb = channel_bound([phase_damping(0.0), amplitude_damping(0.0)], RHO37)
        assert sb.bound == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_oracle_validates_bound(self, p, rng):
        chs = [phase_damping(p), amplitude_damping(p)]
        for _ in range(150):
            rho = random_density(2, int(rng.integers(1, 3)), rng)
            total = sum(channel_skew(ch, rho) for ch in chs)
            ref = p * (1 - sqrt_trace(rho) ** 2 / 2)
            assert total >= ref - 1e-9

    def test_pooled_equivalence(self, rng):
        # one channel bound equals the plain operator-set bound of its Kraus list
        ch = amplitude_damping(0.4)
        rho = random_density(2, 2, rng)
        a = channel_bound([ch], rho)
        b = bound_wy(OperatorSet(ch.kraus), rho)
        c = bound_wy(pooled_set([ch]), rho)
        assert a.kernel_dim == b.kernel_dim == c.kernel_dim
        assert a.epsilon1 == b.epsilon1 == c.epsilon1
        assert a.bound == b.bound == c.bound

    def test_rejects_heterogeneous_dims(self):
        with pytest.raises(DimensionMismatch):
            channel_bound(
                [phase_damping(0.5), KrausChannel(kraus=(np.eye(3),))], RHO37
            )
