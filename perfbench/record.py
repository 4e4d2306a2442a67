"""Record a trajectory point: ten seeds per workload and one traced run each.

Run from the repository root, with nothing else busy on the machine:

    python3 perfbench/record.py --out perfbench/trajectory/<commit>.json

For every workload in BENCHMARK.json it runs ``run.py --trace 0`` on seeds
1..10, then ``run.py --trace 1`` on seed 1, one process at a time, and
writes the median, quartiles and quartile spread (as a share of the median)
of each end-to-end metric, the per-layer metrics of the traced run, and the
environment of the last run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed tasks")
    path = os.path.join(ROOT, ".perfbench-out", f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        result["env"] = json.load(fh)["env"]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    point = {"run_seconds": bench["run_seconds"], "runs": RUNS, "workloads": {}}
    for wl in (w["name"] for w in bench["workloads"]):
        results = [_run(wl, seed, bench["run_seconds"], 0) for seed in range(1, RUNS + 1)]
        e2e = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            e2e[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / median, "values": values}
        traced = _run(wl, 1, bench["run_seconds"], 1)
        point["workloads"][wl] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": e2e,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        point["env"] = traced["env"]
        print(wl, {k: round(v["median"], 4) for k, v in e2e.items()}, flush=True)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
