import numpy as np
import pytest

from skewbound import (
    DEFAULT_TOL,
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    NotHermitian,
    StateValidationError,
    density,
    density_stack,
    haar_unitary,
    hermitian_eigen,
    matrix_power,
    maximally_mixed,
    partial_trace_second,
    pure_state,
    random_density,
    random_hermitian,
    random_operator,
    SkewboundError,
    Tolerances,
)
from skewbound import linalg
from skewbound.linalg import require_hermitian
from conftest import SX


class TestHermitianEigen:
    def test_diagonal(self):
        w, V = hermitian_eigen(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(w, [1, 2])
        np.testing.assert_allclose(np.abs(V), np.eye(2), atol=1e-14)

    def test_pauli_x(self):
        w, V = hermitian_eigen(SX)
        np.testing.assert_allclose(w, [-1, 1])
        # columns (1,-1)/sqrt2 and (1,1)/sqrt2 up to phase
        for c, expect in enumerate(([1, -1], [1, 1])):
            v = V[:, c]
            e = np.array(expect) / np.sqrt(2)
            phase = v[np.argmax(np.abs(v))] / e[np.argmax(np.abs(v))]
            np.testing.assert_allclose(v, phase * e, atol=1e-14)

    def test_random_reconstruction(self, rng):
        H = random_hermitian(6, rng)
        w, V = hermitian_eigen(H)
        assert np.all(np.diff(w) >= 0)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(H @ V, V * w, atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("check", [hermitian_eigen, require_hermitian])
    @pytest.mark.parametrize("scale", [1e6, 1e7])
    def test_hermiticity_limit_is_relative(self, check, scale):
        # U diag(lam) U^dag with |lam| ~ scale is Hermitian up to rounding only
        rng = np.random.default_rng(0)
        U = haar_unitary(8, rng)
        M = U @ np.diag(scale * rng.normal(size=8)) @ U.conj().T
        assert np.max(np.abs(M - M.conj().T)) > DEFAULT_TOL.tol_herm
        check(M)
        M[0, 1] += 1e-6 * np.max(np.abs(M))
        with pytest.raises(NotHermitian):
            check(M)

    def test_convergence_failure_is_exported(self):
        assert issubclass(ConvergenceFailure, SkewboundError)

    def test_deterministic(self, rng):
        H = random_hermitian(5, rng)
        w1, V1 = hermitian_eigen(H)
        w2, V2 = hermitian_eigen(H.copy())
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(V1, V2)


class TestTolerances:
    FIELDS = ("tol_herm", "tol_trace", "tol_psd", "tol_recon", "tol_residual")

    @pytest.mark.parametrize("name", FIELDS)
    @pytest.mark.parametrize("value", [-1e-12, float("nan"), float("-inf")])
    def test_rejects_negative_and_nan(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be nonnegative"):
            Tolerances(**{name: value})

    @pytest.mark.parametrize("name", FIELDS)
    @pytest.mark.parametrize("value", [0.0, float("inf")])
    def test_accepts_zero_and_infinity(self, name, value):
        assert getattr(Tolerances(**{name: value}), name) == value


class TestDensity:
    def test_rejects_bad_trace(self):
        with pytest.raises(StateValidationError):
            density(np.diag([0.6, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(StateValidationError):
            density(np.diag([1.2, -0.2]))

    def test_rejects_non_hermitian(self):
        M = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(NotHermitian):
            density(M)

    def test_eigen_cache(self, rng):
        rho = random_density(4, 3, 7)
        assert abs(np.sum(rho.eigenvalues) - 1) < 1e-9
        assert np.all(rho.eigenvalues >= 0) and np.all(rho.eigenvalues <= 1)
        recon = (rho.eigenvectors * rho.eigenvalues) @ rho.eigenvectors.conj().T
        np.testing.assert_allclose(recon, rho.matrix, atol=1e-9)

    def test_equality_is_identity(self):
        rho = maximally_mixed(2)
        assert rho == rho
        assert maximally_mixed(2) != maximally_mixed(2)
        stack = density_stack([np.eye(2) / 2, np.diag([1.0, 0.0])])
        assert stack == stack
        assert stack != density_stack([np.eye(2) / 2, np.diag([1.0, 0.0])])


class TestMatrixPower:
    def test_identity_power(self):
        rho = density(np.diag([0.3, 0.7]))
        np.testing.assert_allclose(matrix_power(rho, 1.0), rho.matrix, atol=1e-12)

    def test_zero_convention(self):
        rho = density(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(matrix_power(rho, 0.5), np.diag([1.0, 0.0]), atol=1e-12)

    def test_scalar_roots(self):
        rho = density(np.diag([0.3, 0.7]))
        np.testing.assert_allclose(
            matrix_power(rho, 0.5), np.diag([np.sqrt(0.3), np.sqrt(0.7)]), atol=1e-12
        )

    def test_out_of_range(self):
        rho = maximally_mixed(2)
        for s in (0.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                matrix_power(rho, s)

    def test_support_product(self, rng):
        # rho^s rho^(1-s) = rho on the support
        rho = random_density(5, 3, 11)
        for s in (0.25, 0.5, 0.8):
            np.testing.assert_allclose(
                matrix_power(rho, s) @ matrix_power(rho, 1 - s), rho.matrix, atol=1e-9
            )


class TestPartialTrace:
    def test_product_state(self):
        rA = density(np.diag([0.2, 0.8]))
        rB = density(np.diag([0.5, 0.25, 0.25]))
        got = partial_trace_second(np.kron(rA.matrix, rB.matrix), (2, 3))
        np.testing.assert_allclose(got, rA.matrix, atol=1e-12)

    def test_maximally_entangled(self):
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        got = partial_trace_second(np.outer(phi, phi.conj()), (2, 2))
        np.testing.assert_allclose(got, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self, rng):
        G = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        M = G @ G.conj().T
        got = partial_trace_second(M, (2, 3))
        assert abs(np.trace(got) - np.trace(M)) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace_second(np.eye(5), (2, 3))


class TestRandomDensity:
    def test_pure_rank_one(self):
        rho = random_density(4, 1, 3)
        assert abs(rho.purity() - 1) < 1e-12

    def test_full_rank(self):
        rho = random_density(4, 4, 3)
        assert np.all(rho.eigenvalues > 0)

    def test_deterministic(self):
        a = random_density(3, 2, 42)
        b = random_density(3, 2, 42)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_bad_rank(self):
        with pytest.raises(DomainError):
            random_density(3, 0, 1)
        with pytest.raises(DomainError):
            random_density(3, 4, 1)


class TestKernelLemma:
    def test_psd_kernel_characterization(self, rng):
        # <psi|X^2|psi> = 0 iff X psi = 0, both directions
        d = 5
        G = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
        X = G @ G.conj().T  # PSD with 2-dim kernel
        w, V = np.linalg.eigh(X)
        kernel = V[:, w < 1e-10]
        psi = kernel @ (rng.normal(size=kernel.shape[1]) + 1j * rng.normal(size=kernel.shape[1]))
        psi /= np.linalg.norm(psi)
        scale = np.linalg.norm(X, 2)
        assert abs(np.vdot(psi, X @ X @ psi)) < (1e-8 * scale) ** 2
        assert np.linalg.norm(X @ psi) < 1e-8 * scale
        chi = V[:, -1]
        assert np.vdot(chi, X @ X @ chi).real > 1e-6
        assert np.linalg.norm(X @ chi) > 1e-3

    def test_pure_state_helpers(self):
        rho = pure_state([1, 1j])
        assert abs(rho.purity() - 1) < 1e-12
        assert rho.dim == 2


class TestLargeDim:
    def test_dim_64_reconstruction(self, rng):
        H = random_hermitian(64, rng)
        w, V = hermitian_eigen(H)
        recon = (V * w) @ V.conj().T
        assert np.max(np.abs(H - recon)) < 1e-10
        np.testing.assert_allclose(V.conj().T @ V, np.eye(64), atol=1e-10)


@pytest.mark.parametrize("d", range(1, 9))
def test_random_constructors_are_stacks_of_one(d):
    # each constructor builds the stack of one of the builder that the
    # sampler and the verify suites run on whole stacks: draw k of a stack,
    # built together, has the bytes of seed k's matrix built alone
    ranks = [1 + k % d for k in range(2 * d + 1)]  # every rank, mixed
    states = linalg._ginibre_states([np.random.default_rng(k).normal(size=(2, d, r))
                                    for k, r in enumerate(ranks)])
    for k, r in enumerate(ranks):
        assert random_density(d, r, k).matrix.tobytes() == states[k].tobytes()
    square = np.array([np.random.default_rng(k).normal(size=(2, d, d)) for k in range(5)])
    for build, alone in ((linalg._ginibre, random_operator), (linalg._hermitians, random_hermitian),
                         (linalg._haar_unitaries, haar_unitary)):
        stack = build(square)
        assert [alone(d, k).tobytes() for k in range(5)] == [M.tobytes() for M in stack]
