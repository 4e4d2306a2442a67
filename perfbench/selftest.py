"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the library's own test run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import gen  # noqa: E402
import harness  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (WORKLOADS, Context, Outcome, Task, check_bound,  # noqa: E402
                       reducible_defect)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    DECLARED = json.load(_fh)


def _generate(workload, seed, work):
    os.makedirs(work)
    ctx = Context(seed, work, os.path.join(SRC, "skewbound", "data"))
    for k in range(2):
        workload.cycle(ctx, k)
    return {name: open(os.path.join(work, name), "rb").read() for name in sorted(os.listdir(work))}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    wl = WORKLOADS[name]
    first = _generate(wl, 7, str(tmp_path / "a"))
    again = _generate(wl, 7, str(tmp_path / "b"))
    other = _generate(wl, 8, str(tmp_path / "c"))
    assert first and first == again
    assert first.keys() == other.keys()
    assert any(first[k] != other[k] for k in first)


def test_declared_names_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    per_layer = [m["name"] for m in DECLARED["per_layer"]]
    produced = list(Tracer().layer_metrics()) + ["trace.overhead_frac",
                                                 "checks.known_defect_failures"]
    assert per_layer == produced


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_printed_metric_is_declared(trace):
    proc = _run("--workload", "repeat", "--seed", "3", "--seconds", "0.5",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    printed = [ln.split(" = ")[0] for ln in lines[:-1] if " = " in ln]
    everything = {m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    assert set(printed) - everything == {"error_rate", "known_defect_failures"}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "spectral", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_checks_fail_a_bound_above_the_skew_sum():
    ops = gen.spin_ops(2)
    rho = np.diag([0.3, 0.7])
    total = gen.ref_skew_sum(ops, rho, 0.5)
    good = Outcome(code=0, report={"bound": total - 1e-3})
    bad = Outcome(code=0, report={"bound": total + 1e-3})
    check = check_bound(ops, rho, 0.5)
    assert check(good) is None and check(bad) is not None
    assert check(Outcome(code=4, report={"bound": 0.0})) is not None
    phase = harness.Phase()
    phase.evaluate([(Task("plain", check=check), bad)])
    assert (phase.checks["failed"], phase.checks["known_defects"]) == (1, 0)


def test_only_the_documented_defect_is_counted_apart():
    """The reproducer of the reducible-set defect: the skew sum is 0, so a
    positive bound is the known defect; every other failure counts as failed."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    ops = [np.kron(np.eye(2), P) for P in (sx, sz)]
    rho = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
    assert gen.ref_skew_sum(ops, rho, 0.5) == pytest.approx(0.0, abs=1e-12)
    check = check_bound(ops, rho, 0.5)
    task = Task("repro", check=check, known_defect=reducible_defect(ops, rho, 0.5))
    not_the_defect = [
        Outcome(error="RuntimeError: boom"),
        Outcome(code=4, report={"bound": 1.0}),
        Outcome(code=0, report=None),
        Outcome(code=0, report={"epsilon1": 1.0}),
        Outcome(code=0, report={"bound": float("nan")}),
    ]
    phase = harness.Phase()
    phase.evaluate([(task, Outcome(code=0, report={"bound": 1.0})), (task, Outcome(
        code=0, report={"bound": 0.0}))] + [(task, out) for out in not_the_defect])
    assert phase.checks["known_defects"] == 1
    assert phase.checks["failed"] == len(not_the_defect)
    assert phase.checks["attempted"] == 2 + len(not_the_defect)

    # a state with a positive skew sum: a bound above it is a plain failure
    rho = np.diag([0.3, 0.0, 0.7, 0.0])
    total = gen.ref_skew_sum(ops, rho, 0.5)
    task = Task("reducible", check=check_bound(ops, rho, 0.5),
                known_defect=reducible_defect(ops, rho, 0.5))
    phase = harness.Phase()
    phase.evaluate([(task, Outcome(code=0, report={"bound": total + 1.0}))])
    assert (phase.checks["failed"], phase.checks["known_defects"]) == (1, 0)


def test_reference_skew_matches_the_library():
    sb, _ = harness.import_library(SRC)
    rng = gen.rng_for(0, 9)
    for d, rank in ((3, 3), (4, 2)):
        A = gen.ginibre(d, rng)
        rho = gen.random_density(d, rank, rng)
        for s in (0.3, 0.5):
            assert gen.ref_skew(A, rho, s) == pytest.approx(
                sb.wyd_skew(A, sb.density(rho), s), abs=1e-10)


def test_tracer_nests_spans_and_restores_the_library():
    sb, cli = harness.import_library(SRC)
    from skewbound import bounds, linalg

    originals = (bounds.hermitian_eigen, linalg.hermitian_eigen, cli._DISPATCH["bound"],
                 np.linalg.eigh, bounds.warnings)
    tracer = Tracer()
    tracer.install()
    try:
        assert bounds.hermitian_eigen is linalg.hermitian_eigen is not originals[0]
        ops = sb.OperatorSet(tuple(0.5 * P for P in (sb.PAULI_X, sb.PAULI_Z)))
        rho = sb.density(np.diag([0.3, 0.7]))
        tracer.run_task(0, lambda: sb.bound_wy(ops, rho))
        tracer.run_task(1, lambda: sb.bound_wy(ops, rho))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tracer.run_task(2, lambda: sb.bound_wy(sb.OperatorSet((sb.PAULI_Z,)), rho))
        with pytest.raises(sb.DomainError):
            tracer.run_task(3, lambda: sb.bound_wyd(ops, rho, 1.5))
    finally:
        tracer.uninstall()
    assert (bounds.hermitian_eigen, linalg.hermitian_eigen, cli._DISPATCH["bound"],
            np.linalg.eigh, bounds.warnings) == originals

    by_id = {sp[0]: sp for sp in tracer.spans}
    for sid, parent, task, name, t0, t1 in tracer.spans:
        if parent is not None:
            p = by_id[parent]
            assert p[2] == task and p[4] <= t0 <= t1 <= p[5]
    stats = tracer.function_stats()
    assert all(ns >= 0 for _, ns in stats.values())
    m = tracer.layer_metrics()
    assert m["bounds.bound_wy.calls"] == 3
    assert m["bounds.h_tot.calls"] == 3
    assert m["bounds.h_tot_per_set"] == 1.5
    assert m["bounds.h_tot.bytes"] == 3 * 16 * 16
    assert m["linalg.hermitian_eigen.max_n"] == 4
    assert m["bounds.warnings"] == 1
    assert m["bounds.errors"] == 1
    assert m["numpy.eig.complex_vec.calls"] >= 3
