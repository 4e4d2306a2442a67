"""Runtime tracing of skewbound's public functions, from outside the library.

``Tracer.install`` wraps every public function defined in the traced
modules and rebinds it wherever a skewbound module holds it: the module
itself, every module that imported it by name (``bounds.hermitian_eigen``),
the package namespace and module-level dicts such as the CLI dispatch
table.  Nested calls therefore become child spans.  numpy's eigensolvers
are wrapped as counters only, so LAPACK time stays in the caller's self
time.  Spans are kept in memory and written out by ``write``; self time is
a span's duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import json
import sys
import time
import warnings as _warnings
from collections import defaultdict

import numpy as np

MODULES = ("linalg", "moments", "equalities", "bounds", "channels", "qubit", "weakvalue", "cli")

# numpy.linalg functions, and whether each returns eigenvectors
EIGEN = {"eigh": True, "eig": True, "eigvalsh": False, "eigvals": False}


def _set_key(ops) -> str:
    """Identity of an operator set by content, for per-set counters."""
    h = hashlib.sha1()
    for A in getattr(ops, "operators", ops):
        h.update(np.ascontiguousarray(A, dtype=complex).tobytes())
    return h.hexdigest()


class _WarningsProxy:
    """Stands in for a module's ``warnings`` binding and counts ``warn``."""

    def __init__(self, counts: dict, key: str):
        self._counts = counts
        self._key = key

    def warn(self, *args, **kwargs):
        self._counts[self._key] += 1
        kwargs["stacklevel"] = kwargs.get("stacklevel", 1) + 1
        return _warnings.warn(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(_warnings, name)


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id, task id, name, t0 ns, t1 ns)
        self.counts = defaultdict(int)
        self.sets = defaultdict(set)
        self.hermitian_eigen_max_n = 0
        self._stack = []
        self._next = 0
        self._task = None
        self._restore = []
        self._seen_errors = set()

    # ---------------------------------------------------------- spans

    def _span(self, name: str, fn, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            # count an exception once, in the innermost traced function it leaves
            if id(exc) not in self._seen_errors:
                self._seen_errors.add(id(exc))
                self.counts[name.split(".")[0] + ".errors"] += 1
            raise
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self._task, name, t0, t1))

    def run_task(self, task_id: int, fn):
        self._task = task_id
        try:
            return self._span("task", fn, (), {})
        finally:
            self._task = None
            self._seen_errors.clear()

    def _wrap(self, name: str, fn):
        hook = {
            "bounds.h_tot": self._on_h_tot,
            "bounds.tighten_alpha_scan": self._on_alpha_scan,
            "linalg.hermitian_eigen": self._on_hermitian_eigen,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._span(name, fn, args, kwargs)
            if hook:
                hook(args, kwargs, result)
            return result

        return traced

    def _on_h_tot(self, args, kwargs, H):
        self.counts["bounds.h_tot.bytes"] += H.nbytes
        self.sets["h_tot"].add(_set_key(args[0] if args else kwargs["ops"]))

    def _on_alpha_scan(self, args, kwargs, _):
        self.sets["alpha_scan"].add(_set_key(args[0] if args else kwargs["ops"]))

    def _on_hermitian_eigen(self, args, kwargs, result):
        self.hermitian_eigen_max_n = max(self.hermitian_eigen_max_n, len(result[0]))

    def _wrap_eigen(self, fname: str, fn):
        kind = "vec" if EIGEN[fname] else "novec"

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if self._task is None:  # not a task's work, e.g. the benchmark's checks
                return fn(a, *args, **kwargs)
            arr = np.asarray(a)
            n = arr.shape[-1]
            batch = int(np.prod(arr.shape[:-2], dtype=np.int64))
            field = "complex" if np.iscomplexobj(arr) else "real"
            self.counts["numpy.eig.calls"] += 1
            self.counts[f"numpy.eig.{field}_{kind}.calls"] += 1
            self.counts[f"numpy.eig.{field}_{kind}.n3"] += batch * n**3
            return fn(a, *args, **kwargs)

        return counted

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        loaded = {name: mod for name, mod in sys.modules.items()
                  if name.split(".")[0] == "skewbound"}
        wrappers = {}
        for short in MODULES:
            mod = loaded[f"skewbound.{short}"]
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                obj = getattr(mod, n, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{n}", obj))
        for mod in loaded.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is wrappers[id(value)][0]:
                    self._patch(mod, attr, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers and item is wrappers[id(item)][0]:
                            self._patch_item(value, key, wrappers[id(item)][1])
                elif value is _warnings:
                    short = mod.__name__.rsplit(".", 1)[-1]
                    self._patch(mod, attr, _WarningsProxy(self.counts, f"{short}.warnings"))
        for fname in EIGEN:
            self._patch(np.linalg, fname, self._wrap_eigen(fname, getattr(np.linalg, fname)))

    def _patch(self, obj, attr, new):
        self._restore.append(lambda old=getattr(obj, attr): setattr(obj, attr, old))
        setattr(obj, attr, new)

    def _patch_item(self, d, key, new):
        self._restore.append(lambda old=d[key]: d.__setitem__(key, old))
        d[key] = new

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ---------------------------------------------------------- results

    def function_stats(self) -> dict:
        """{name: (calls, self ns)} over all spans."""
        child = defaultdict(int)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        stats = defaultdict(lambda: [0, 0])
        for sid, _, _, name, t0, t1 in self.spans:
            st = stats[name]
            st[0] += 1
            st[1] += t1 - t0 - child[sid]
        return stats

    def layer_metrics(self) -> dict:
        stats = self.function_stats()

        def calls(prefix):
            return sum(c for n, (c, _) in stats.items() if n.startswith(prefix))

        def self_ms(prefix):
            return sum(ns for n, (_, ns) in stats.items() if n.startswith(prefix)) / 1e6

        out = {}
        for fn in ("bounds.h_tot", "linalg.hermitian_eigen", "bounds.bound_wy", "bounds.bound_wyd",
                   "bounds.embedding", "channels.channel_bound", "linalg.density",
                   "linalg.random_density", "moments.wyd_skew", "moments.gen_skew",
                   "moments.variance", "channels.channel_skew", "bounds.empirical_minimum",
                   "bounds.tighten_alpha_scan", "bounds.pure_variance_bound",
                   "bounds.separability_witness", "weakvalue.reconstruct_skew",
                   "weakvalue.subsystem_weak_values", "cli.load_problem"):
            n, ns = stats.get(fn, (0, 0))
            out[f"{fn}.calls"] = n
            out[f"{fn}.self_ms"] = ns / 1e6
        for mod in ("equalities", "qubit"):
            out[f"{mod}.calls"] = calls(mod + ".")
        for mod in MODULES:
            out[f"{mod}.self_ms"] = self_ms(mod + ".")
            out[f"{mod}.errors"] = self.counts[f"{mod}.errors"]
        out["cli.cmd.self_ms"] = self_ms("cli.cmd_")
        out["cli.emit.self_ms"] = stats.get("cli.emit", (0, 0))[1] / 1e6
        out["bounds.h_tot.bytes"] = self.counts["bounds.h_tot.bytes"]
        out["linalg.hermitian_eigen.max_n"] = self.hermitian_eigen_max_n
        n_sets = len(self.sets["h_tot"])
        out["bounds.h_tot_per_set"] = out["bounds.h_tot.calls"] / n_sets if n_sets else 0.0
        n_sets = len(self.sets["alpha_scan"])
        out["bounds.alpha_scans_per_set"] = (
            out["bounds.tighten_alpha_scan.calls"] / n_sets if n_sets else 0.0)
        out["bounds.warnings"] = self.counts["bounds.warnings"]
        out["numpy.eig.calls"] = self.counts["numpy.eig.calls"]
        for field in ("complex", "real"):
            for kind in ("vec", "novec"):
                for what in ("calls", "n3"):
                    key = f"numpy.eig.{field}_{kind}.{what}"
                    out[key] = self.counts[key]
            out[f"numpy.eig.{field}_n3"] = (self.counts[f"numpy.eig.{field}_vec.n3"]
                                           + self.counts[f"numpy.eig.{field}_novec.n3"])
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, task, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "task": task,
                                     "name": name, "t0_ns": t0, "t1_ns": t1}) + "\n")
