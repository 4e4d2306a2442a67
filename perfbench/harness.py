"""Closed-loop runner: set-up, warm-up, timed cycles, checks and statistics.

One client in one process issues the next task only when the previous one
has returned.  Only whole cycles are timed; the inputs of a cycle beyond the
set-up pool are generated between cycles, outside the timed intervals.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import gen
from workloads import Context, Outcome

SETUP_REPS = 11
MIN_TASKS = 110  # so that at least 10 latencies lie beyond p90


def purge_library() -> None:
    for name in [n for n in sys.modules if n.split(".")[0] == "skewbound"]:
        del sys.modules[name]


def import_library(src: str):
    purge_library()
    sb = importlib.import_module("skewbound")
    cli = importlib.import_module("skewbound.cli")
    if os.path.dirname(os.path.dirname(os.path.realpath(sb.__file__))) != os.path.realpath(src):
        raise ImportError(f"skewbound was imported from {sb.__file__}, not from {src}")
    return sb, cli


class Prepared:
    """The library and the tasks of one run, and the timings of its set-ups.

    The problem files of the workload's first ``pool_cycles`` cycles are
    generated and written first, off the clock.  A set-up then imports
    skewbound afresh, runs ``cli.load_problem`` on each of those files and
    builds the inputs of the library tasks; that is what ``setup_s`` times.
    The first set-up is the one the run uses.  The others are spread over
    the run by ``more_setup``, between timed cycles, so that their median
    does not hinge on how loaded the machine was during one second.
    """

    def __init__(self, workload, seed: int, src: str, work: str):
        self.src = src
        gen.clear_dir(work)
        self.ctx = Context(seed, work, os.path.join(src, "skewbound", "data"))
        self.pool = [workload.cycle(self.ctx, k) for k in range(workload.pool_cycles)]
        self.files = list(self.ctx.written.values())
        self.setup_times = []
        self.sb, self.cli, built = self._set_up()
        for task, call in built:
            task.call = call

    def _set_up(self):
        t0 = time.perf_counter()
        sb, cli = import_library(self.src)
        for path in self.files:
            cli.load_problem(path)
        built = [(task, task.build(sb)) for tasks in self.pool for task in tasks if task.build]
        self.setup_times.append(time.perf_counter() - t0)
        return sb, cli, built

    def more_setup(self) -> None:
        """One more timed set-up, whose modules and inputs are then dropped."""
        if len(self.setup_times) >= SETUP_REPS:
            return
        loaded = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "skewbound"}
        try:
            self._set_up()
        finally:
            purge_library()
            sys.modules.update(loaded)

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_times)

    def cycle(self, workload, k: int) -> list:
        if k < len(self.pool):
            return self.pool[k]
        tasks = workload.cycle(self.ctx, k)
        for task in tasks:
            task.bind(self.sb)
        return tasks


def execute(cli, task, tracer=None, task_id: int = 0):
    """Run one task; returns (seconds, Outcome).  The report is parsed after
    the clock stops."""
    out = Outcome()
    buf = io.StringIO()

    def body():
        if task.argv is not None:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                out.code = cli.main(list(task.argv))
        else:
            out.value = task.call()

    t0 = time.perf_counter()
    try:
        if tracer is None:
            body()
        else:
            tracer.run_task(task_id, body)
    except (Exception, SystemExit) as exc:
        out.error = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if task.argv is not None and not out.error:
        try:
            out.report = json.loads(buf.getvalue())
        except ValueError:
            out.report = None
    return dt, out


class Phase:
    """Per-task wall and CPU times and the check results of a run of cycles.

    Every figure uses every timed task: throughput and CPU per task are
    whole-run totals, and the latency quantiles are taken over all samples.
    """

    def __init__(self):
        self.cycles = []  # per cycle, (wall s, cpu s) of each task
        self.checks = {"attempted": 0, "failed": 0, "known_defects": 0, "messages": []}

    @property
    def n_tasks(self) -> int:
        return sum(len(c) for c in self.cycles)

    @property
    def wall_s(self) -> float:
        return sum(t[0] for c in self.cycles for t in c)

    @property
    def cpu_s(self) -> float:
        return sum(t[1] for c in self.cycles for t in c)

    @property
    def tasks_per_s(self) -> float:
        return self.n_tasks / self.wall_s

    @property
    def cpu_per_task_s(self) -> float:
        return self.cpu_s / self.n_tasks

    @property
    def latencies(self) -> list:
        return [t[0] for c in self.cycles for t in c]

    def run_cycle(self, cli, tasks, tracer=None) -> None:
        """Time one cycle's tasks, one after the other, then check them."""
        timings, results = [], []
        for task in tasks:
            c0 = time.process_time()
            dt, out = execute(cli, task, tracer, self.n_tasks + len(timings))
            timings.append((dt, time.process_time() - c0))
            results.append((task, out))
        self.cycles.append(timings)
        self.evaluate(results)

    def evaluate(self, results) -> None:
        """Run every task's check.  A failure that has the signature of a
        documented defect is counted apart; every other one counts as failed."""
        c = self.checks
        for task, out in results:
            c["attempted"] += 1
            try:
                err = task.check(out)
            except (KeyError, TypeError, AttributeError) as exc:  # a malformed report
                err = f"report without the checked fields: {type(exc).__name__}: {exc}"
            if err is None:
                continue
            if task.known_defect is not None and task.known_defect(out):
                c["known_defects"] += 1
            else:
                c["failed"] += 1
                c["messages"].append(f"{task.label}: {err}")


def run_cycles(prep: Prepared, workload, seconds: float, between=None) -> Phase:
    """Whole cycles until ``seconds`` of timed work and ``MIN_TASKS`` tasks
    are done.  Between cycles, off the clock, the next cycle's inputs are
    generated and ``between`` is called."""
    phase = Phase()
    k = 0
    while phase.wall_s < seconds or phase.n_tasks < MIN_TASKS:
        phase.run_cycle(prep.cli, prep.cycle(workload, k))
        if between:
            between()
        k += 1
    return phase


def run_paired(prep: Prepared, workload, n_cycles: int, tracer):
    """Each of ``n_cycles`` cycles twice, untraced and traced, in alternating
    order so that neither side always runs on warmer caches.  The tracer is
    installed only for the traced half.  Returns (untraced, traced)."""
    plain, traced = Phase(), Phase()
    for k in range(n_cycles):
        tasks = prep.cycle(workload, k)
        for with_tracer in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_tracer:
                plain.run_cycle(prep.cli, tasks)
                continue
            tracer.install()
            try:
                traced.run_cycle(prep.cli, tasks, tracer)
            finally:
                tracer.uninstall()
    return plain, traced


def warm_up(prep: Prepared, workload) -> None:
    """One untimed pass over the cheap tasks of a cycle no timed phase uses."""
    for task in prep.cycle(workload, 10**6):
        if task.warm:
            execute(prep.cli, task)


def latency_stats(latencies: list) -> dict:
    q = statistics.quantiles(latencies, n=10)
    return {"p50_ms": q[4] * 1e3, "p90_ms": q[8] * 1e3, "samples": len(latencies),
            "beyond_p90": sum(1 for x in latencies if x > q[8])}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit(root: str):
    """Commit of a git checkout, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(sb, root: str, seed: int, blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": _git_commit(root),
        "SKEWBOUND_TOL": os.environ.get("SKEWBOUND_TOL", "unset"),
        "tolerances": dataclasses.asdict(sb.Tolerances()),
    }
