import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbound import (
    DimensionMismatch,
    NotHermitian,
    OrthogonalSelection,
    density,
    embedding,
    haar_unitary,
    matrix_power,
    pure_state,
    random_density,
    random_hermitian,
    reconstruct_skew,
    subsystem_weak_values,
    weak_value,
    wyd_skew,
)
from conftest import SX, SZ

RHO37 = density(np.diag([0.3, 0.7]))


def _reconstruct_kron(A, rho, s, U, tol_overlap=1e-12):
    """Reference table: one kron postselection |a_i a_j*> per entry."""
    d = rho.dim
    emb = embedding(rho, s)
    I = np.eye(d)
    H = (np.kron(A, I) - np.kron(I, A.T)) / math.sqrt(2)
    Hs, H1s = H @ emb.phi_s, H @ emb.phi_1ms
    values_s = np.full((d, d), np.nan, dtype=complex)
    values_1ms = np.full((d, d), np.nan, dtype=complex)
    weights_s = np.zeros((d, d), dtype=complex)
    weights_1ms = np.zeros((d, d), dtype=complex)
    defined = np.zeros((d, d), dtype=bool)
    total = 0.0 + 0.0j
    for i in range(d):
        for j in range(d):
            post = np.kron(U[:, i], U[:, j].conj())
            ws, w1s = np.vdot(post, emb.phi_s), np.vdot(post, emb.phi_1ms)
            weights_s[i, j], weights_1ms[i, j] = ws, w1s
            total += np.vdot(Hs, post) * np.vdot(post, H1s)
            if abs(ws) > tol_overlap and abs(w1s) > tol_overlap:
                defined[i, j] = True
                values_s[i, j] = np.vdot(post, Hs) / ws
                values_1ms[i, j] = np.vdot(post, H1s) / w1s
    return total.real, values_s, values_1ms, weights_s, weights_1ms, defined


class TestWeakValue:
    def test_eigenstate(self):
        v = np.array([1, 1]) / math.sqrt(2)
        assert weak_value(SX, v, v) == pytest.approx(1.0, abs=1e-12)

    def test_anomalous(self):
        plus = np.array([1, 1]) / math.sqrt(2)
        ket0 = np.array([1, 0])
        assert weak_value(SZ, plus, ket0) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_selection(self):
        with pytest.raises(OrthogonalSelection):
            weak_value(SX, np.array([1, 0]), np.array([0, 1]))

    def test_complex_in_general(self):
        pre = np.array([1, 1j]) / math.sqrt(2)
        post = np.array([1, 0.3]) / math.sqrt(1.09)
        wv = weak_value(SX, pre, post)
        assert abs(wv.imag) > 1e-3


class TestReconstruction:
    def test_qubit_reference_value(self):
        rec = reconstruct_skew(SX, RHO37, 0.5)
        assert rec.value == pytest.approx(1 - 2 * math.sqrt(0.21), abs=1e-10)
        assert rec.imag_residual < 1e-10

    def test_commuting_zero(self):
        rec = reconstruct_skew(SZ, RHO37, 0.5)
        assert rec.value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            reconstruct_skew(np.array([[0, 1], [0, 0]]), RHO37, 0.5)

    def test_rejects_operator_of_other_dimension(self):
        with pytest.raises(DimensionMismatch):
            reconstruct_skew(np.eye(3), RHO37, 0.5)

    def test_random_sweep_full_rank(self, rng):
        for _ in range(60):
            d = int(rng.integers(2, 5))
            rho = random_density(d, d, rng)
            A = random_hermitian(d, rng)
            s = float(rng.choice([0.3, 0.5, 0.7]))
            U = haar_unitary(d, rng)
            rec = reconstruct_skew(A, rho, s, basis=list(U.T))
            assert abs(rec.value - wyd_skew(A, rho, s)) < 1e-9
            assert rec.imag_residual < 1e-9

    def test_basis_independence(self, rng):
        rho = random_density(3, 3, rng)
        A = random_hermitian(3, rng)
        vals = []
        for _ in range(4):
            U = haar_unitary(3, rng)
            vals.append(reconstruct_skew(A, rho, 0.3, basis=list(U.T)).value)
        assert max(vals) - min(vals) < 1e-9

    def test_rank_deficient_states(self, rng):
        # pre-cancellation form covers zero overlaps from kernel directions
        for _ in range(20):
            d = int(rng.integers(2, 5))
            rho = random_density(d, max(1, d - 1), rng)
            A = random_hermitian(d, rng)
            s = float(rng.choice([0.3, 0.5, 0.7]))
            rec = reconstruct_skew(A, rho, s)  # computational basis
            assert abs(rec.value - wyd_skew(A, rho, s)) < 1e-9

    def test_table_marks_undefined_entries(self):
        # rank-1 diagonal state in computational basis: overlaps vanish
        rho = pure_state([1, 0])
        rec = reconstruct_skew(SX, rho, 0.5)
        assert not np.all(rec.table.defined)
        assert rec.value == pytest.approx(1.0, abs=1e-10)
        # undefined entries stay NaN, never silently zero
        undef = ~rec.table.defined
        assert np.all(np.isnan(rec.table.values_s[undef].real))

    def test_matches_kron_reference(self, rng):
        cases = [(SX, pure_state([1, 0]), 0.5, np.eye(2))]
        for _ in range(40):
            d = int(rng.integers(2, 6))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            U = haar_unitary(d, rng) if rng.random() < 0.5 else np.eye(d)
            cases.append((random_hermitian(d, rng), rho, float(rng.uniform(0.1, 0.9)), U))
        for A, rho, s, U in cases:
            rec = reconstruct_skew(A, rho, s, basis=list(U.T))
            value, v_s, v_1ms, w_s, w_1ms, defined = _reconstruct_kron(A, rho, s, U)
            t = rec.table
            assert rec.value == pytest.approx(value, abs=1e-12)
            np.testing.assert_array_equal(t.defined, defined)
            for got, want in ((t.values_s, v_s), (t.values_1ms, v_1ms),
                              (t.weights_s, w_s), (t.weights_1ms, w_1ms)):
                np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, equal_nan=True)

    def test_weights_are_unnormalized_overlaps(self):
        rec = reconstruct_skew(SX, RHO37, 0.5)
        # diagonal state, computational basis: weights are sqrt eigenvalues
        expect = np.diag([math.sqrt(0.3), math.sqrt(0.7)])
        np.testing.assert_allclose(rec.table.weights_s, expect, atol=1e-12)


class TestSubsystem:
    def test_product_preselection(self):
        # pure rho: collapsed preselections coincide for every postselection
        rho = pure_state(np.array([1, 1j]) / math.sqrt(2))
        rep = subsystem_weak_values(SX, rho, 0.5)
        assert rep.factorization_residual < 1e-9
        assert rep.conjugation_residual < 1e-9

    def test_rejects_operator_of_other_dimension(self):
        with pytest.raises(DimensionMismatch):
            subsystem_weak_values(np.eye(3), RHO37, 0.5)

    def test_qubit_diagonal(self):
        rep = subsystem_weak_values(SX, RHO37, 0.5)
        assert rep.entries_checked > 0
        assert rep.factorization_residual < 1e-9
        assert rep.conjugation_residual < 1e-9

    def test_random_three_dim(self, rng):
        for _ in range(25):
            rho = random_density(3, 3, rng)
            A = random_hermitian(3, rng)
            s = float(rng.choice([0.3, 0.5, 0.7]))
            U = haar_unitary(3, rng)
            rep = subsystem_weak_values(A, rho, s, basis=list(U.T))
            assert rep.factorization_residual < 1e-9
            assert rep.conjugation_residual < 1e-9


def _subsystem_loop(A, rho, s, U, tol_overlap=1e-12):
    """Reference: one scalar weak_value per entry, skipping vanishing
    overlaps and collapsed preselections."""
    d = rho.dim
    P = matrix_power(rho, s)
    Uh = U.conj().T
    ov = Uh @ P @ U
    num_f, num_c = Uh @ (A @ P) @ U, Uh @ (P @ A) @ U
    res_f = res_c = 0.0
    checked = 0
    for i in range(d):
        for j in range(d):
            if abs(ov[i, j]) <= tol_overlap:
                continue
            phi_j = P @ U[:, j]
            nj = np.linalg.norm(phi_j)
            if nj <= tol_overlap:
                continue
            rhs_f = weak_value(A, phi_j / nj, U[:, i], tol_overlap)
            res_f = max(res_f, abs(num_f[i, j] / ov[i, j] - rhs_f))
            phi_i = P @ U[:, i]
            ni = np.linalg.norm(phi_i)
            if ni <= tol_overlap:
                continue
            rhs_c = np.conj(weak_value(A, phi_i / ni, U[:, j], tol_overlap))
            res_c = max(res_c, abs(num_c[i, j] / ov[i, j] - rhs_c))
            checked += 1
    return res_f, res_c, checked


class TestSubsystemArrays:
    """The array form of subsystem_weak_values agrees with the per-entry loop."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        d=st.integers(2, 5),
        kind=st.sampled_from(["full", "rank_deficient", "diagonal"]),
        haar=st.booleans(),
        s=st.sampled_from([0.3, 0.5, 0.7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_loop(self, d, kind, haar, s, seed):
        rng = np.random.default_rng(seed)
        if kind == "diagonal":
            # zero eigenvalues on basis vectors: vanishing overlaps and collapses
            p = rng.random(d) * (rng.random(d) < 0.6)
            p[rng.integers(d)] += 1.0
            rho = density(np.diag(p / p.sum()))
        else:
            rho = random_density(d, d if kind == "full" else int(rng.integers(1, d)), rng)
        A = random_hermitian(d, rng)
        U = haar_unitary(d, rng) if haar else np.eye(d)
        rep = subsystem_weak_values(A, rho, s, basis=list(U.T))
        res_f, res_c, checked = _subsystem_loop(A, rho, s, U)
        assert rep.entries_checked == checked
        assert abs(rep.factorization_residual - res_f) <= 1e-10
        assert abs(rep.conjugation_residual - res_c) <= 1e-10
