"""The benchmark's workloads: the tasks of one cycle and how each is checked.

A workload is a fixed cycle of tasks that the closed loop repeats.  The mix
of kinds and sizes in a cycle is the same for every seed; the seed only
draws the matrices, states and oracle seeds.  Each run times whole cycles,
so every run sees the same mix and the percentiles fall where the mix puts
them.

A task is one in-process ``skewbound.cli.main(argv)`` call on a problem file
(stdout captured and parsed as JSON), or one public library call.  Checks
run between cycles, off the clock, and read only ``bound``, ``epsilon1``,
``oracle_*``, ``violated``, ``pass``, the residual fields of a report and
the values of a ``moments`` table; sums of skew informations are recomputed
here with plain numpy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import gen

# tol_residual of the library's default Tolerances; the bound checks allow
# that much relative slack.
TOL = 1e-8



@dataclass
class Task:
    """A CLI task has ``argv``; a library task has ``build``, which makes the
    library inputs from the imported package and returns the call to time."""

    label: str
    argv: Optional[list] = None
    build: Optional[Callable] = None
    check: Optional[Callable] = None
    known_defect: Optional[Callable] = None  # Outcome -> True on the documented failure
    warm: bool = True  # run in the untimed warm-up cycle
    call: Optional[Callable] = None

    def bind(self, sb) -> None:
        if self.build is not None:
            self.call = self.build(sb)


@dataclass
class Outcome:
    code: Optional[int] = None
    report: Optional[dict] = None
    value: object = None
    error: str = ""


class Context:
    """Where a run writes its problem files, and which it has written."""

    def __init__(self, seed: int, work: str, data_dir: str):
        self.seed = seed
        self.work = work
        self.data_dir = data_dir
        self.written: dict = {}

    def problem(self, name: str, **content) -> str:
        path = os.path.join(self.work, name + ".json")
        if name not in self.written:
            gen.write_problem(path, **content)
            self.written[name] = path
        return path

    def bundled(self, name: str):
        """Arrays of a bundled example, read without the library."""
        return gen.read_problem(os.path.join(self.data_dir, name + ".json"))


# ---------------------------------------------------------------- checks


def _cli_error(out: Outcome) -> Optional[str]:
    if out.error:
        return out.error
    if out.code != 0:
        return f"exit code {out.code}"
    if out.report is None:
        return "no JSON report on stdout"
    return None


def check_exit(out: Outcome) -> Optional[str]:
    return _cli_error(out)


def check_bound(ops, rho, s: float) -> Callable:
    """Exit 0 and bound <= sum of skews at the task's own state."""

    def check(out: Outcome) -> Optional[str]:
        err = _cli_error(out)
        if err:
            return err
        total = gen.ref_skew_sum(ops, rho, s)
        b = out.report["bound"]
        if not b <= total + TOL * max(1.0, total):
            return f"bound {b:.10g} exceeds the skew sum {total:.10g}"
        return None

    return check


def check_oracle(ops, rho, s: float) -> Callable:
    bound_ok = check_bound(ops, rho, s)

    def check(out: Outcome) -> Optional[str]:
        err = bound_ok(out)
        if err:
            return err
        margin = out.report["oracle_margin_min"]
        if margin < -TOL:
            return f"oracle_margin_min {margin:.3e} < -{TOL}"
        return None

    return check


def reducible_defect(ops, rho, s: float) -> Callable:
    """True only on the documented failure (ROADMAP item 1): on a reducible
    operator set the first-excited fallback assumes ker H_tot = span{vec I},
    so a block-aligned state that commutes with every operator, whose skew
    sum is 0, gets a positive bound.  A crash, a wrong exit code, a missing
    report or any other wrong bound does not match."""

    def matches(out: Outcome) -> bool:
        if _cli_error(out):
            return False
        b = out.report.get("bound")
        return (isinstance(b, (int, float)) and b > TOL
                and gen.ref_skew_sum(ops, rho, s) <= TOL)

    return matches


def check_golden(base: Callable, **golden) -> Callable:
    def check(out: Outcome) -> Optional[str]:
        err = base(out)
        if err:
            return err
        for key, want in golden.items():
            got = out.report[key]
            if isinstance(want, bool):
                if got is not want:
                    return f"{key} = {got}, expected {want}"
            elif abs(got - want) > 1e-8:
                return f"{key} = {got!r}, expected {want}"
        return None

    return check


def check_verify(out: Outcome) -> Optional[str]:
    err = _cli_error(out)
    if err:
        return err
    if out.report["pass"] is not True:
        return f"verify reported pass = {out.report['pass']}"
    return None


def check_weakvalue(out: Outcome) -> Optional[str]:
    err = _cli_error(out)
    if err:
        return err
    for name, row in out.report["operators"].items():
        for key in ("abs_error", "imag_residual"):
            if not row[key] <= TOL:
                return f"{name}: {key} {row[key]:.3e} > {TOL}"
    return None


def check_finite(out: Outcome) -> Optional[str]:
    err = _cli_error(out)
    if err:
        return err
    for name, row in out.report["operators"].items():
        for key, v in row.items():
            if not (math.isfinite(v) and v >= 0):
                return f"{name}: {key} = {v!r}"
    return None


def check_witness(expected: list) -> Callable:
    def check(out: Outcome) -> Optional[str]:
        if out.error:
            return out.error
        got = [r.violated for r in out.value]
        if got != expected:
            return f"violated flags {got}, expected {expected}"
        return None

    return check


def _cli(path: str, command: str, *flags) -> list:
    return [command, path, "--format", "json", *flags]


# ---------------------------------------------------------------- spectral

# (kind, d, command).  Most tasks, and most of the time, are d >= 24
# eigensolves: their speed drifts about half as much with the load on a
# shared host as that of small, Python-bound calls, so the quantiles are put
# there.  Sorted by cost, the median of a whole number of cycles falls well
# inside the fourteen d=24 tasks and p90 inside the three d=28 tasks, so
# neither quantile sits on the border between two sizes; the small sets,
# among them the reducible ones of the known defect, sort below the median
# and d=32 is the one slowest task.
SPECTRAL_CYCLE = [
    ("repro", 4, "bound"),
    ("reducible_commuting", 12, "bound"),
    ("spin", 12, "bound"),
    ("spin", 12, "bound_s"),
    ("herm", 12, "bound_s"),
    ("ginibre", 12, "bound"),
    ("kraus", 12, "channel"),
    ("reducible", 14, "bound"),
    ("herm", 16, "bound"),
    ("kraus", 20, "channel"),
    ("herm", 24, "bound"),
    ("herm", 24, "bound"),
    ("herm", 24, "bound"),
    ("herm", 24, "bound"),
    ("herm", 24, "bound_s"),
    ("spin", 24, "bound"),
    ("spin", 24, "bound_s"),
    ("ginibre", 24, "bound"),
    ("ginibre", 24, "bound_s"),
    ("kraus", 24, "channel"),
    ("kraus", 24, "channel"),
    ("herm4", 24, "bound"),
    ("reducible", 24, "bound"),
    ("reducible", 24, "bound_s"),
    ("herm", 28, "bound"),
    ("spin", 28, "bound"),
    ("ginibre", 28, "bound"),
    ("herm", 32, "bound"),
]


def _spectral_inputs(kind: str, d: int, rng, first: bool):
    """(operators, rho, channels) for one spectral set."""
    full = gen.random_density(d, d, rng)
    if kind == "repro":
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        U = np.eye(2) if first else gen.haar_unitary(2, rng)
        ops = [np.kron(np.eye(2), U @ P @ U.conj().T) for P in (sx, sz)]
        return ops, np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2), None
    if kind.startswith("reducible"):
        h = d // 2
        ops = [gen.block_diag(gen.random_hermitian(h, rng), gen.random_hermitian(d - h, rng))
               for _ in range(3)]
        if kind == "reducible_commuting":
            block = np.eye(h) / h
        else:
            block = gen.random_density(h, h, rng)
        return ops, gen.block_diag(block, np.zeros((d - h, d - h))), None
    if kind == "spin":
        return gen.conjugate(gen.spin_ops(d), gen.haar_unitary(d, rng)), full, None
    if kind in ("herm", "herm4"):
        return [gen.random_hermitian(d, rng) for _ in range(4 if kind == "herm4" else 3)], full, None
    if kind == "ginibre":
        return [gen.ginibre(d, rng) / math.sqrt(d) for _ in range(2)], full, None
    if kind == "kraus":
        return None, full, gen.random_kraus(d, 2, rng)
    raise ValueError(kind)


class Spectral:
    name = "spectral"
    pool_cycles = 2
    cycle_seconds = 11.0  # about one cycle; sizes the traced run

    def cycle(self, ctx: Context, k: int) -> list:
        tasks = []
        for i, (kind, d, command) in enumerate(SPECTRAL_CYCLE):
            rng = gen.rng_for(ctx.seed, 1, k, i)
            ops, rho, kraus = _spectral_inputs(kind, d, rng, first=(k == 0))
            name = f"spectral-c{k}-{i}-{kind}-d{d}"
            label = f"{command} {kind} d={d}"
            if kraus is not None:
                path = ctx.problem(name, rho=rho, channels={"random": kraus})
                tasks.append(Task(label, _cli(path, "channel-bound"),
                                  check=check_bound(kraus, rho, 0.5), warm=d <= 16))
                continue
            path = ctx.problem(name, rho=rho,
                               operators={f"A{j}": A for j, A in enumerate(ops)})
            s = 0.3 if command == "bound_s" else 0.5
            flags = ["--s", "0.3"] if command == "bound_s" else []
            tasks.append(Task(
                label, _cli(path, "bound", *flags), check=check_bound(ops, rho, s),
                known_defect=(reducible_defect(ops, rho, s)
                              if kind in ("repro", "reducible_commuting") else None),
                warm=d <= 16,
            ))
        return tasks


# ---------------------------------------------------------------- repeat

# Fixed sets of the repeat workload, made once per run from the seed and
# used by every cycle: (kind, d); a kind is an operator triple or pair, or a
# channel.
REPEAT_SETS = (("herm", 24), ("ginibre", 24), ("spin", 24), ("kraus", 24),
               ("herm", 28), ("spin", 28))

# (kind, d, command, s, oracle samples) on those sets.  At s = 0.5 the
# oracle only evaluates skews; at s = 0.3 each sample's check rebuilds the
# bound at that sample's state, which doubles the cost.  Sorted by cost, the
# eleven small-set tasks lie below the median, which falls inside the ten
# single d=24 bounds, and p90 falls inside the four d=28 bounds, so neither
# quantile sits on the border between two kinds of task.  The d=28 bounds
# and the rebuilds also give this workload the share of large eigensolves
# that keeps `spectral` steady on a shared host.
REPEAT_LARGE = [
    ("herm", 24, "bound", 0.5, 0), ("herm", 24, "bound", 0.3, 0),
    ("herm", 24, "bound", 0.5, 20), ("ginibre", 24, "bound", 0.5, 0),
    ("ginibre", 24, "bound", 0.3, 0), ("ginibre", 24, "bound", 0.5, 20),
    ("spin", 24, "bound", 0.5, 0), ("spin", 24, "bound", 0.5, 20),
    ("kraus", 24, "channel", 0.5, 0), ("kraus", 24, "channel", 0.5, 20),
    ("herm", 24, "bound", 0.3, 1), ("ginibre", 24, "bound", 0.3, 1),
    ("spin", 24, "bound", 0.3, 1),
    ("herm", 28, "bound", 0.5, 0), ("herm", 28, "bound", 0.5, 20),
    ("spin", 28, "bound", 0.3, 0), ("spin", 28, "bound", 0.5, 20),
]

# (bundled file, command, s) of the small-set oracle tasks, d = 2-3
REPEAT_ORACLE = [
    ("example1_spinhalf", "bound", 0.3),
    ("example1_spin1", "bound", 0.5),
    ("example3", "channel", 0.5),
]
ORACLE_SAMPLES = 100

# --seeds per verify suite
VERIFY_SEEDS = {"equalities": 20, "qubit": 40, "weakvalue": 28}


def _repeat_set(ctx: Context, kind: str, d: int):
    """(path, operators or Kraus operators, rho) of one fixed set."""
    rng = gen.rng_for(ctx.seed, 2, REPEAT_SETS.index((kind, d)))
    rho = gen.random_density(d, d, rng)
    name = f"repeat-{kind}-d{d}"
    if kind == "kraus":
        kraus = gen.random_kraus(d, 2, rng)
        return ctx.problem(name, rho=rho, channels={"random": kraus}), kraus, rho
    if kind == "herm":
        ops = [gen.random_hermitian(d, rng) for _ in range(3)]
    elif kind == "ginibre":
        ops = [gen.ginibre(d, rng) / math.sqrt(d) for _ in range(2)]
    else:
        ops = gen.conjugate(gen.spin_ops(d), gen.haar_unitary(d, rng))
    path = ctx.problem(name, rho=rho, operators={f"A{j}": A for j, A in enumerate(ops)})
    return path, ops, rho


def _oracle_task(ctx: Context, path: str, ops, rho, command: str, s: float,
                 samples: int, seed_key: tuple, label: str, warm: bool = True) -> Task:
    flags = []
    if samples:
        seed = int(gen.rng_for(ctx.seed, *seed_key).integers(2**31))
        flags = ["--oracle", str(samples), "--seed", str(seed)]
    if command == "channel":
        argv = _cli(path, "channel-bound", *flags)
    else:
        argv = _cli(path, "bound", "--s", str(s), *flags)
    check = check_oracle(ops, rho, s) if samples else check_bound(ops, rho, s)
    return Task(f"{argv[0]} {label}", argv, check=check, warm=warm)


def _small_oracle_tasks(ctx: Context, k: int) -> list:
    tasks = []
    for i, (name, command, s) in enumerate(REPEAT_ORACLE):
        rho, ops, chans = ctx.bundled(name)
        ops = list(ops.values()) or [K for ks in chans.values() for K in ks]
        task = _oracle_task(ctx, name, ops, rho, command, s, ORACLE_SAMPLES, (3, k, i),
                            f"{name} s={s} --oracle {ORACLE_SAMPLES}")
        if name == "example3":
            task.check = check_golden(task.check, epsilon1=0.5)
        tasks.append(task)
    return tasks


# ---------------------------------------------------------------- witness

WITNESS_STATES = 2  # states per batch; for 2x2 and 3x3 the first is the spin singlet


def _entangled_spin_state(dA: int, dB: int) -> np.ndarray:
    """State of least total spin for spins (dA-1)/2 and (dB-1)/2."""
    SA, SB = gen.spin_ops(dA), gen.spin_ops(dB)
    J = [np.kron(a, np.eye(dB)) + np.kron(np.eye(dA), b) for a, b in zip(SA, SB)]
    w, V = np.linalg.eigh(sum(Jk @ Jk for Jk in J))
    v = V[:, 0]
    return np.outer(v, v.conj())


def _separable_state(dA: int, dB: int, rng) -> np.ndarray:
    k = int(rng.integers(1, 4))
    M = np.zeros((dA * dB, dA * dB), dtype=complex)
    for w in rng.dirichlet(np.ones(k)):
        M += w * np.kron(gen.random_density(dA, 1, rng), gen.random_density(dB, 1, rng))
    return M


def _witness_task(ctx: Context, dA: int, dB: int, k: int, j: int) -> Task:
    """One witness batch; the states change with the cycle, the pair does not."""
    rng = gen.rng_for(ctx.seed, 4, k, j)
    states = [_separable_state(dA, dB, rng) for _ in range(WITNESS_STATES)]
    if dA == dB:  # no entangled state is checked for 2x3
        states[0] = _entangled_spin_state(dA, dB)
    expected = [dA == dB and i == 0 for i in range(len(states))]

    def build(sb):
        opsA = sb.OperatorSet(tuple(gen.spin_ops(dA)))
        opsB = sb.OperatorSet(tuple(gen.spin_ops(dB)))
        rhos = [sb.density(M) for M in states]
        return lambda: [sb.separability_witness(opsA, opsB, rho) for rho in rhos]

    return Task(f"separability_witness {dA}x{dB}", build=build, check=check_witness(expected))


def _scan_verify_tasks(ctx: Context, k: int) -> list:
    """The α-scan, witness and verify tasks: bundled sets with golden
    values, one witness batch whose states change with the cycle, the three
    verify suites and the weak-value and moments tables of larger states."""
    rho, ops, _ = ctx.bundled("example2")
    tasks = [
        Task("bound example2 --alpha-scan",
             _cli("example2", "bound", "--alpha-scan"),
             check=check_golden(check_bound(list(ops.values()), rho, 0.5),
                                epsilon1=2.323391113, bound=1.548927409)),
        Task("witness singlet_witness", _cli("singlet_witness", "witness"),
             check=check_golden(check_exit, violated=True)),
        _witness_task(ctx, 3, 3, k, 0),
    ]
    rng = gen.rng_for(ctx.seed, 5, 0)
    small = ctx.problem("verify-small", rho=gen.random_density(2, 2, rng),
                        operators={"A": gen.random_hermitian(2, rng)})
    tasks += [
        Task(f"verify --suite {suite}",
             _cli(small, "verify", "--suite", suite, "--seeds", str(seeds)),
             check=check_verify)
        for suite, seeds in VERIFY_SEEDS.items()
    ]
    rng = gen.rng_for(ctx.seed, 5, 1)
    path = ctx.problem("weakvalue-d24", rho=gen.random_density(24, 24, rng),
                       operators={f"A{i}": gen.random_hermitian(24, rng) for i in range(2)})
    tasks.append(Task("weakvalue d=24", _cli(path, "weakvalue", "--s", "0.3"),
                      check=check_weakvalue))
    rng = gen.rng_for(ctx.seed, 6, 0)
    path = ctx.problem("moments-d32", rho=gen.random_density(32, 32, rng),
                       operators={f"A{i}": gen.ginibre(32, rng) for i in range(3)})
    tasks.append(Task("moments d=32", _cli(path, "moments", "--nu", "0,-1,-2,-inf"),
                      check=check_finite))
    return tasks


class Repeat:
    """The same sets, cycle after cycle.

    Seventeen bounds on six fixed sets at d = 24 and 28, some with oracle
    samples, make most of the tasks and most of the time; eleven small-set
    tasks ride along: oracles on the bundled examples, the α-scan of
    ``example2``, the witnesses, the three verify suites, a weak-value and a
    moments table.  Only the oracle seeds and the witness states change
    from cycle to cycle, so any work that depends on the operator set alone
    is redone on the same input.
    """

    name = "repeat"
    pool_cycles = 1
    cycle_seconds = 11.0

    def cycle(self, ctx: Context, k: int) -> list:
        sets = {key: _repeat_set(ctx, *key) for key in REPEAT_SETS}
        tasks = _small_oracle_tasks(ctx, k) + _scan_verify_tasks(ctx, k)
        for i, (kind, d, command, s, samples) in enumerate(REPEAT_LARGE):
            path, ops, rho = sets[kind, d]
            label = f"{kind} d={d} s={s}" + (f" --oracle {samples}" if samples else "")
            # the plain bounds warm every set before timing
            tasks.append(_oracle_task(ctx, path, ops, rho, command, s, samples, (8, k, i),
                                      label, warm=samples == 0))
        return tasks


WORKLOADS = {w.name: w for w in (Spectral(), Repeat())}
