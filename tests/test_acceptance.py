"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  Random sweeps use fixed seeds so the numbers are reproducible.
"""

import math
import time
import warnings
from collections import defaultdict

import numpy as np

import skewbound as sb
from skewbound import sweeps
from conftest import four_3x3_ops, four_qubit_ops, spin_ops

RHO37 = sb.density(np.diag([0.3, 0.7]))


def announce(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------- criterion 1


def test_criterion_1_four_operator_example():
    t0 = time.perf_counter()
    ops = sb.OperatorSet(four_3x3_ops())
    bound = sb.bound_wy(ops, sb.pure_state([1, 0, 0]))
    scan = sb.tighten_alpha_scan(ops)
    oracle = sb.empirical_minimum(ops, 0.5, 5000, seed=101, ranks=[1])
    elapsed = time.perf_counter() - t0
    ok = (
        bound.kernel_dim == 1
        and abs(bound.epsilon1 - 2.32339) <= 1e-4
        and abs(bound.bound - 1.5489) <= 1e-3
        and scan <= 1.5489 + 1e-6
        and oracle >= 1.5489 - 1e-6
        and oracle > 1.3993
        and elapsed < 10.0
    )
    announce(
        1, ok,
        f"kernel_dim={bound.kernel_dim} eps1={bound.epsilon1:.6f} "
        f"bound={bound.bound:.5f} scan={scan:.5f} oracle_min={oracle:.5f} "
        f"runtime={elapsed:.2f}s",
    )


# --------------------------------------------------------------- criterion 2


def test_criterion_2_spin_sets():
    t0 = time.perf_counter()
    results = {}
    for j, tol in ((0.5, 1e-8), (1, 1e-8), (1.5, 1e-6), (2, 1e-6)):
        H = sb.h_tot(spin_ops(j))
        w = np.linalg.eigvalsh(H)
        eps0 = w[0]
        eps1 = w[w > w[0] + 1e-9][0]
        results[j] = (eps0, eps1, abs(eps0) <= tol and abs(eps1 - 1) <= tol)
    elapsed = time.perf_counter() - t0
    ok = all(r[2] for r in results.values()) and elapsed < 30.0
    detail = " ".join(
        f"j={j}: eps0={r[0]:.2e} eps1={r[1]:.10f}" for j, r in results.items()
    )
    announce(2, ok, f"{detail} runtime={elapsed:.2f}s")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_damping_channels():
    ok = True
    details = []
    for p in (0.1, 0.5, 0.9):
        chs = [sb.phase_damping(p), sb.amplitude_damping(p)]
        sbnd = sb.channel_bound(chs, RHO37)
        eps1_ok = abs(sbnd.epsilon1 - p) <= 1e-8 and sbnd.kernel_dim == 1
        rng = np.random.default_rng(300 + int(10 * p))
        worst = math.inf
        for _ in range(2000):
            rho = sb.random_density(2, int(rng.integers(1, 3)), rng)
            total = sum(sb.channel_skew(ch, rho) for ch in chs)
            ref = p * (1 - sb.sqrt_trace(rho) ** 2 / 2)
            worst = min(worst, total - ref)
        oracle_ok = worst >= -1e-8
        ok = ok and eps1_ok and oracle_ok
        details.append(f"p={p}: eps1={sbnd.epsilon1:.10f} margin={worst:.2e}")
    announce(3, ok, " ".join(details))


# --------------------------------------------------------------- criterion 4


def test_criterion_4_qubit_order_family():
    ops = sb.OperatorSet(four_qubit_ops())
    sbnd = sb.bound_wy(ops, RHO37)  # every generalized skew dominates the symmetric one
    floor = sb.pure_variance_bound(ops)
    targets = {0.0: 0.1834, -1.0: 0.3515, -2.0: 0.4835, float("-inf"): 0.8788}
    ok = abs(sbnd.bound - 0.1921) <= 1e-3
    details = [f"spectral={sbnd.bound:.5f}"]
    for order, target in targets.items():
        scaled = sb.qubit_bracket(RHO37, order) * floor
        total = sum(sb.gen_skew(A, RHO37, order) for A in ops.operators)
        best = max(sbnd.bound, scaled)
        ok = ok and abs(scaled - target) <= 1e-3 and total >= best - 1e-8
        label = "-inf" if math.isinf(order) else f"{order:g}"
        details.append(f"nu={label}: {scaled:.5f} (sum={total:.5f})")
    announce(4, ok, " ".join(details))


# --------------------------------------------------------------- criterion 5


def test_criterion_5_equality_suites():
    # `verify`'s equalities and qubit cases, drawn in turns from one stream
    # and evaluated in stacks; tests/test_sweeps.py sees every check occur
    need = 1000
    rng = np.random.default_rng(500)
    cases = {"equalities": [], "qubit": []}
    found = defaultdict(list)  # check -> (round, residual) per instance
    while min(map(len, found.values()), default=0) < need and len(cases["qubit"]) < 20 * need:
        start = len(cases["qubit"])
        for _ in range(need):  # a round: one case of each suite
            for suite, drawn in cases.items():
                drawn.append(sweeps.SUITES[suite].draw(rng))
        for suite, drawn in cases.items():
            for check, at, res in sweeps.residuals(suite, drawn[start:]):
                found[check] += zip(start + at, res)
    # a loop over rounds stops at the first round where every check has `need`
    # instances; only its rounds count
    rounds = len(cases["qubit"])
    stop = max(sorted(r for r, _ in rows)[need - 1] if len(rows) >= need else rounds
               for rows in found.values())
    counts = {check: sum(r <= stop for r, _ in rows) for check, rows in found.items()}
    worst = {check: max(abs(x) for r, x in rows if r <= stop) for check, rows in found.items()}

    ok = min(counts.values()) >= need and max(worst.values()) < 1e-8
    worst_key = max(worst, key=worst.get)
    announce(
        5, ok,
        f"instances>={min(counts.values())} per suite, max residual "
        f"{worst[worst_key]:.2e} ({worst_key})",
    )


# --------------------------------------------------------------- criterion 6


def _draw_case(rng):
    d = int(rng.integers(2, 6))
    rho = sb.random_density(d, int(rng.integers(1, d + 1)), rng)
    s = float(rng.choice([0.25, 0.5, 0.75]))
    return d, rho, s


def test_criterion_6_structure_suites():
    rng = np.random.default_rng(600)
    n = 500
    worst = {}

    # ordering chains
    v = 0.0
    for _ in range(n):
        d, rho, s = _draw_case(rng)
        A = sb.random_operator(d, rng)
        i_s = sb.wyd_skew(A, rho, s)
        i_half = sb.wyd_skew(A, rho, 0.5)
        var = sb.variance(A, rho)
        v = max(v, -i_s, i_s - i_half, i_half - var)
        H = sb.random_hermitian(d, rng)
        vals = [sb.gen_skew(H, rho, nu) for nu in (0.0, -1.0, -2.0, float("-inf"))]
        for a, b in zip(vals, vals[1:]):
            v = max(v, a - b)
        v = max(v, vals[-1] - sb.variance(H, rho))
    worst["chains"] = v

    # convexity: s-family everywhere, order family on the operator-mean range
    v = 0.0
    for _ in range(n):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        ws = rng.dirichlet(np.ones(k))
        parts = [sb.random_density(d, int(rng.integers(1, d + 1)), rng) for _ in range(k)]
        mix = sb.density(sum(w * p.matrix for w, p in zip(ws, parts)))
        A = sb.random_operator(d, rng)
        s = float(rng.choice([0.25, 0.5, 0.75]))
        v = max(v, sb.wyd_skew(A, mix, s)
                - sum(w * sb.wyd_skew(A, p, s) for w, p in zip(ws, parts)))
        order = float(rng.choice([0.0, -0.5, -1.0]))
        v = max(v, sb.gen_skew(A, mix, order)
                - sum(w * sb.gen_skew(A, p, order) for w, p in zip(ws, parts)))
    worst["convexity"] = v

    # additivity on product states
    v = 0.0
    for _ in range(n):
        dA, dB = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        rA = sb.random_density(dA, int(rng.integers(1, dA + 1)), rng)
        rB = sb.random_density(dB, int(rng.integers(1, dB + 1)), rng)
        joint = sb.density(np.kron(rA.matrix, rB.matrix))
        A, B = sb.random_hermitian(dA, rng), sb.random_hermitian(dB, rng)
        AB = np.kron(A, np.eye(dB)) + np.kron(np.eye(dA), B)
        s = float(rng.choice([0.25, 0.5, 0.75]))
        v = max(v, abs(sb.wyd_skew(AB, joint, s)
                       - sb.wyd_skew(A, rA, s) - sb.wyd_skew(B, rB, s)))
        order = float(rng.choice([0.0, -1.0, -2.0, float("-inf")]))
        v = max(v, abs(sb.gen_skew(AB, joint, order)
                       - sb.gen_skew(A, rA, order) - sb.gen_skew(B, rB, order)))
    worst["additivity"] = v

    # hermitian splits
    v = 0.0
    for _ in range(n):
        d, rho, s = _draw_case(rng)
        A = sb.random_operator(d, rng)
        sp = sb.hermitian_split(A, +1 if rng.integers(2) else -1)
        v = max(v, abs(sb.wyd_skew(A, rho, s)
                       - sb.wyd_skew(sp.a1, rho, s) - sb.wyd_skew(sp.a2, rho, s)))
        v = max(v, abs(sb.variance(A, rho)
                       - sb.variance(sp.a1, rho) - sb.variance(sp.a2, rho)))
        order = float(rng.choice([0.0, -1.0, -2.0, float("-inf")]))
        v = max(v, abs(sb.gen_skew(A, rho, order)
                       - sb.gen_skew(sp.a1, rho, order) - sb.gen_skew(sp.a2, rho, order)))
    worst["splits"] = v

    # embedding identity
    v = 0.0
    for _ in range(n):
        d = int(rng.integers(2, 5))
        rho = sb.random_density(d, int(rng.integers(1, d + 1)), rng)
        A = sb.random_operator(d, rng)
        s = float(rng.uniform(0.05, 0.95))
        emb = sb.embedding(rho, s)
        I = np.eye(d)
        H = (np.kron(A, I) - np.kron(I, A.T)) / math.sqrt(2)
        got = (emb.phi_s.conj() @ (H.conj().T @ H) @ emb.phi_1ms).real
        v = max(v, abs(got - sb.wyd_skew(A, rho, s)))
    worst["embedding"] = v

    # kernel characterization: eps0 = 0 iff the generator kernels intersect;
    # without any common eigenstate the zero-ground vector is maximally
    # entangled (shared-eigenbasis pairs have product kernels instead)
    v = 0.0
    for trial in range(n):
        kind = trial % 3
        if kind == 2:
            # locally rotated spin set: eps0 = 0 with no common eigenstate
            j = 0.5 if trial % 2 else 1
            U = sb.haar_unitary(int(round(2 * j + 1)), rng)
            ops = [U @ S @ U.conj().T for S in spin_ops(j)]
        else:
            d0 = int(rng.integers(2, 4))
            A = sb.random_hermitian(d0, rng)
            if kind == 0:
                B = sb.random_hermitian(d0, rng)  # generically no shared eigenstate
            else:
                # same eigenbasis, different eigenvalues: every eigenvector shared
                _, V = sb.hermitian_eigen(A)
                B = (V * rng.normal(size=d0)) @ V.conj().T
                B = (B + B.conj().T) / 2
            ops = [A, B]
        H = sb.h_tot(ops)
        w2, V2 = sb.hermitian_eigen(H)
        eps0 = max(float(w2[0]), 0.0)
        d = ops[0].shape[0]
        I = np.eye(d)
        stacked = np.vstack([(np.kron(O, I) - np.kron(I, O.T)) / math.sqrt(2) for O in ops])
        smin = float(np.linalg.svd(stacked, compute_uv=False)[-1])
        kernels_meet = smin < 1e-8
        if kernels_meet != (eps0 < 1e-8):
            v = max(v, 1.0)
        if kind == 2:
            # unique kernel vector must have a flat Schmidt spectrum
            if eps0 >= 1e-8:
                v = max(v, 1.0)
            red = sb.partial_trace_second(np.outer(V2[:, 0], V2[:, 0].conj()), (d, d))
            v = max(v, float(np.max(np.abs(red - np.eye(d) / d))))
    worst["kernel"] = v

    ok = max(worst.values()) <= 1e-8
    detail = " ".join(f"{k}={val:.2e}" for k, val in worst.items())
    announce(6, ok, f"{n} instances per suite; worst violations: {detail}")


# --------------------------------------------------------------- criterion 7


def test_criterion_7_weak_value_reconstruction():
    rng = np.random.default_rng(700)
    cases = [sweeps.SUITES["weakvalue"].draw(rng) for _ in range(200)]
    worst = defaultdict(float)
    for check, _, res in sweeps.residuals("weakvalue", cases):
        worst[check] = max(worst[check], float(np.max(np.abs(res))))
    ok = max(worst.values()) < 1e-9
    announce(7, ok, " ".join(f"{check}={v:.2e}" for check, v in worst.items()))


# --------------------------------------------------------------- criterion 8


def test_criterion_8_entanglement_witness():
    ops = sb.OperatorSet(spin_ops(0.5))  # one set: its threshold is computed once
    singlet = sb.pure_state(np.array([0, 1, -1, 0]) / math.sqrt(2))
    res = sb.separability_witness(ops, ops, singlet)
    singlet_ok = res.violated and res.threshold > 1e-6
    rng = np.random.default_rng(800)
    false_positives = 0
    for _ in range(500):
        k = int(rng.integers(1, 4))
        ws = rng.dirichlet(np.ones(k))
        M = np.zeros((4, 4), dtype=complex)
        for w in ws:
            a = sb.random_density(2, 1, rng)
            b = sb.random_density(2, 1, rng)
            M += w * np.kron(a.matrix, b.matrix)
        if sb.separability_witness(ops, ops, sb.density(M)).violated:
            false_positives += 1
    ok = singlet_ok and false_positives == 0
    announce(
        8, ok,
        f"singlet: lhs={res.lhs:.2e} threshold={res.threshold:.3f} "
        f"violated={res.violated}; false positives {false_positives}/500",
    )


# ------------------------------------------------- asymmetric-s validity note


def test_asymmetric_s_bounds_validity_only():
    # no golden number exists for the s != 1/2 bounds; acceptance is
    # validity only: bound <= true sum on every sampled state
    rng = np.random.default_rng(900)
    worst = math.inf
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for j in (0.5, 1):
            ops = sb.OperatorSet(spin_ops(j))
            d = ops.dim
            for s in (0.25, 0.75):
                for _ in range(150):
                    rho = sb.random_density(d, int(rng.integers(1, d + 1)), rng)
                    sbnd = sb.bound_wyd(ops, rho, s)
                    total = sum(sb.wyd_skew(A, rho, s) for A in ops.operators)
                    worst = min(worst, total - sbnd.bound)
                    checked += 1
    ok = worst >= -1e-8
    announce("T4-validity", ok, f"{checked} sampled states, min margin {worst:.2e}")
