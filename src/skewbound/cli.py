"""Command-line front end.

Problem files are JSON objects whose fields are those of :class:`ProblemFile`,
:class:`Params` and :class:`~skewbound.linalg.Tolerances`; unknown fields are
rejected.  Matrices are row-major arrays-of-arrays whose entries are numbers
or [re, im] pairs; a qubit state may be given as ``{"bloch": [x, y, z]}``.

:func:`main` applies each given flag over its ``params`` field (``--s``,
``--nu`` and ``--seed``) before a ``cmd_*`` function runs, and heads the
fields that function returns with ``command`` and ``report_version``.  Exit
codes: 0 ok, 2 parse error, 3 validation error, 4 property/bound violation.
``SKEWBOUND_TOL`` overrides the residual tolerance.  Parsed problems are
cached per file content and tolerance override for the last 32 files, and
shared read-only.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import operator
import os
import sys
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import bounds, channels, linalg, moments, qubit, sweeps, weakvalue
from .errors import DimensionMismatch, DomainError, SkewboundError
from .linalg import DensityOperator, DensityStack, Tolerances

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_VIOLATION = 4

REPORT_VERSION = 2


class ParseError(Exception):
    pass


# ---------------------------------------------------------------- parsing


def _entry_to_complex(x, name, row, col) -> complex:
    try:
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            return complex(x)
        if isinstance(x, list) and len(x) == 2 and all(
            isinstance(t, (int, float)) and not isinstance(t, bool) for t in x
        ):
            return complex(x[0], x[1])
    except OverflowError as exc:  # an integer beyond the float range
        raise ParseError(
            f"matrix {name!r}: entry at row {row}, col {col} is too large for a float"
        ) from exc
    raise ParseError(
        f"matrix {name!r}: entry at row {row}, col {col} must be a number or [re, im], got {x!r}"
    )


def _regular_matrix(obj) -> Optional[np.ndarray]:
    """The complex matrix of a square array whose entries are all numbers or
    all [re, im] pairs, read by numpy from one flat list (nested lists read
    slower); None for anything else."""
    if not (type(obj) is list and obj
            and all(type(row) is list and len(row) == len(obj) for row in obj)):
        return None
    entries = list(itertools.chain.from_iterable(obj))
    kinds = set(map(type, entries))
    pairs = kinds == {list}
    if pairs:
        if set(map(len, entries)) != {2}:
            return None
        entries = list(itertools.chain.from_iterable(entries))
        kinds = set(map(type, entries))
    if not kinds <= {int, float}:  # bool is a type of its own
        return None
    try:
        M = np.array(entries, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    n = len(obj)
    # a matrix of its own memory, which an OperatorSet can keep without a copy
    return M.view(complex).reshape(n, n).copy() if pairs else M.reshape(n, n).astype(complex)


# A finite entry above this overflows A^dag A; no density matrix has one.
_LARGEST_ENTRY = math.sqrt(sys.float_info.max)


def _parse_matrix(obj, name) -> np.ndarray:
    M = _regular_matrix(obj)
    if M is None:
        M = _entrywise_matrix(obj, name)
    huge = np.argwhere(np.isfinite(M) & (np.abs(M) > _LARGEST_ENTRY))
    if huge.size:
        raise DomainError(f"matrix {name!r}: entry at row {huge[0, 0]}, col {huge[0, 1]} "
                          f"exceeds {_LARGEST_ENTRY:.4g} in magnitude")
    return M


def _entrywise_matrix(obj, name) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"matrix {name!r}: expected a nonempty array of rows")
    ncols = None
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise ParseError(f"matrix {name!r}: row {r} is not a nonempty array")
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise ParseError(
                f"matrix {name!r}: row {r} has {len(row)} columns, expected {ncols}"
            )
        rows.append([_entry_to_complex(x, name, r, c) for c, x in enumerate(row)])
    M = np.array(rows, dtype=complex)
    if M.shape[0] != M.shape[1]:
        raise ParseError(f"matrix {name!r}: shape {M.shape} is not square")
    return M


@dataclass
class Params:
    s: float = 0.5
    nu: list = field(default_factory=list)
    seed: int = 0
    dims: Optional[list] = None
    ops_a: Optional[list] = None
    ops_b: Optional[list] = None
    tolerances: Tolerances = field(default_factory=Tolerances)


@dataclass
class ProblemFile:
    version: int
    rho: Optional[DensityOperator]
    operators: dict
    channels: dict
    params: Params
    # pooled -> (operators, their OperatorSet), shared by every load of one parse
    _sets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def operator_set(self, pooled: bool = False) -> bounds.OperatorSet:
        """The operators, or all channels' Kraus operators if ``pooled``, as one
        set, made on first use and kept while they are the same arrays."""
        ops = (tuple(K for ch in self.channels.values() for K in ch.kraus) if pooled
               else tuple(self.operators.values()))
        kept = self._sets.get(pooled)
        if not (kept and len(kept[0]) == len(ops) and all(map(operator.is_, kept[0], ops))):
            kept = self._sets[pooled] = (ops, bounds.OperatorSet(ops))
        return kept[1]


def _parse_nu_value(x) -> float:
    if isinstance(x, str):
        s = x.strip().lower()
        if s in ("-inf", "inf", "-infinity", "minus_infinity"):
            return float("-inf")
        try:
            return float(s)
        except ValueError as exc:
            raise ParseError(f"bad nu value {x!r}") from exc
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return float(x)
    raise ParseError(f"bad nu value {x!r}")


def _number(x, field: str, kind=float):
    """``kind(x)``, or a ParseError naming the field; a boolean is no number,
    and a fraction no integer."""
    what = "an integer" if kind is int else "a number"
    try:
        if isinstance(x, bool) or (kind is int and isinstance(x, float) and not x.is_integer()):
            raise TypeError(f"not {what}")
        return kind(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{field} must be {what}, got {x!r}") from exc


def _check_fields(obj: dict, cls, what: str) -> None:
    """ParseError unless every key of ``obj`` is an init field of the dataclass ``cls``."""
    unknown = set(obj) - {f.name for f in fields(cls) if f.init}
    if unknown:
        raise ParseError(f"unknown {what} fields: {sorted(unknown)}")


def _parse_params(obj) -> Params:
    if not isinstance(obj, dict):
        raise ParseError("params must be an object")
    _check_fields(obj, Params, "params")
    p = Params()
    if "s" in obj:
        p.s = _number(obj["s"], "params.s")
    if "nu" in obj:
        if not isinstance(obj["nu"], list):
            raise ParseError("params.nu must be an array")
        p.nu = [_parse_nu_value(x) for x in obj["nu"]]
    if "seed" in obj:
        p.seed = _number(obj["seed"], "params.seed", int)
    if p.seed < 0:  # default_rng takes no negative seed
        raise ParseError(f"params.seed must be at least 0, got {p.seed}")
    if "dims" in obj:
        if not (isinstance(obj["dims"], list) and len(obj["dims"]) == 2):
            raise ParseError("params.dims must be [dA, dB]")
        p.dims = [_number(x, "params.dims", int) for x in obj["dims"]]
    for key in ("ops_a", "ops_b"):
        if key in obj:
            if not isinstance(obj[key], list):
                raise ParseError(f"params.{key} must be an array of operator names")
            setattr(p, key, [str(x) for x in obj[key]])
    if "tolerances" in obj:
        tobj = obj["tolerances"]
        if not isinstance(tobj, dict):
            raise ParseError("params.tolerances must be an object")
        _check_fields(tobj, Tolerances, "tolerance")
        p.tolerances = Tolerances(
            **{k: _number(v, f"params.tolerances.{k}") for k, v in tobj.items()}
        )
    return p


def _resolve_path(path: str) -> str:
    if os.path.exists(path):
        return path
    name = path if path.endswith(".json") else path + ".json"
    bundled = os.path.join(os.path.dirname(__file__), "data", os.path.basename(name))
    if os.path.exists(bundled):
        return bundled
    raise ParseError(f"file not found: {path}")


_problems = OrderedDict()  # (sha256 digest of the file's bytes, tol_override) -> ProblemFile


def load_problem(path: str, tol_override: Optional[float] = None) -> ProblemFile:
    """Parse and validate a problem file; ParseError vs SkewboundError
    distinguish malformed input from well-formed but invalid physics.

    The parse is cached by the sha256 digest of the file's bytes and the
    tolerance override; errors are not cached.  Every load of one parse
    shares its read-only arrays, state, channels and operator sets (built on
    first use, see :meth:`ProblemFile.operator_set`), and gets its own
    ProblemFile, dicts and Params, lists included."""
    real = _resolve_path(path)
    try:
        with open(real, "rb") as fh:
            data = fh.read()
    except OSError as exc:  # a directory, no permission
        raise ParseError(f"cannot read {path}: {exc}") from exc
    key = (hashlib.sha256(data).digest(), tol_override)
    parse = bounds._most_recent(_problems, key, lambda: _parse_problem(data, path, tol_override))
    p = parse.params
    pf = replace(parse, operators=dict(parse.operators), channels=dict(parse.channels),
                 params=replace(p, **{k: list(v) for k, v in vars(p).items()
                                      if isinstance(v, list)}))
    pf._sets = parse._sets
    return pf


def _parse_problem(data: bytes, path: str, tol_override: Optional[float]) -> ProblemFile:
    try:
        # as text-mode open reads it: a BOM or UTF-16 is bad JSON, CRLF counts as LF
        raw = json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except ValueError as exc:  # bad JSON, bad UTF-8, an integer of too many digits
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("top level must be an object")
    _check_fields(raw, ProblemFile, "top-level")
    version = raw.get("version", 1)
    if isinstance(version, bool) or version != 1:  # the only format there is
        raise ParseError(f"version must be 1, got {version!r}")
    params = _parse_params(raw.get("params", {}))
    if tol_override is not None:
        params.tolerances = replace(params.tolerances, tol_residual=tol_override)
    tol = params.tolerances
    rho = None
    if "rho" in raw:
        robj = raw["rho"]
        if isinstance(robj, dict):
            if set(robj) != {"bloch"}:
                raise ParseError("rho object form must be exactly {\"bloch\": [x, y, z]}")
            vec = robj["bloch"]
            if not (isinstance(vec, list) and len(vec) == 3):
                raise ParseError("bloch vector must have three components")
            bloch = [_number(x, "rho.bloch") for x in vec]
            rho = qubit.BlochState(np.array(bloch)).to_density(tol)
        else:
            rho = linalg.density(_parse_matrix(robj, "rho"), tol)
    operators = {}
    if "operators" in raw:
        if not isinstance(raw["operators"], dict):
            raise ParseError("operators must be an object of named matrices")
        for name, obj in raw["operators"].items():
            operators[name] = _parse_matrix(obj, name)
    chans = {}
    if "channels" in raw:
        if not isinstance(raw["channels"], dict):
            raise ParseError("channels must be an object of named Kraus lists")
        for name, obj in raw["channels"].items():
            if not isinstance(obj, list) or not obj:
                raise ParseError(f"channel {name!r} must be a nonempty array of matrices")
            kraus = tuple(
                _parse_matrix(K, f"{name}[{i}]") for i, K in enumerate(obj)
            )
            chans[name] = channels.KrausChannel(kraus=kraus, label=name, tol=tol)
    states = () if rho is None else (rho.matrix, rho.eigenvalues, rho.eigenvectors)
    for M in (*states, *operators.values(), *(K for ch in chans.values() for K in ch.kraus)):
        M.flags.writeable = False  # every load shares them
    return ProblemFile(
        version=1, rho=rho, operators=operators, channels=chans, params=params
    )


# ---------------------------------------------------------------- output


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _leaves(d, prefix=""):
    """(dotted key, value) of every field of a nested report, in print order."""
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            yield from _leaves(v, key + ".")
        else:
            yield key, v


def _flatten(d):
    for key, v in _leaves(d):
        if isinstance(v, (list, tuple)):
            yield key, "[" + ", ".join(_fmt(x) for x in v) + "]"
        else:
            yield key, _fmt(v)


def _non_finite(report: dict) -> Optional[str]:
    """The key of the first field of ``report`` that holds a NaN or an infinity."""
    for key, v in _leaves(report):
        for x in v if isinstance(v, (list, tuple)) else (v,):
            if isinstance(x, (float, np.floating)) and not math.isfinite(x):
                return key
    return None


def emit(report: dict, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, default=float), file=out)
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["key", "value"])
        for k, v in _flatten(report):
            w.writerow([k, v])
        out.write(buf.getvalue())
    else:
        for k, v in _flatten(report):
            print(f"{k} = {v}", file=out)


# ---------------------------------------------------------------- commands


def _need(cond, msg):
    if not cond:
        raise ParseError(msg)


def cmd_moments(pf: ProblemFile, args) -> tuple:
    _need(pf.rho is not None, "moments needs a rho")
    _need(pf.operators, "moments needs at least one operator")
    p = pf.params
    keys = ["std_dev", f"skew_s={_fmt(p.s)}"] + [
        "gen_skew_nu=-inf" if math.isinf(nu) else f"gen_skew_nu={_fmt(nu)}" for nu in p.nu]
    table = moments._moment_table(tuple(pf.operators.values()), pf.rho, p.s, p.nu, p.tolerances)
    return EXIT_OK, {"operators": {name: dict(zip(keys, row))
                                   for name, row in zip(pf.operators, table)}}


def _bound_report(sb: bounds.SpectralBound) -> dict:
    """The fields of row 0 of a stacked bound."""
    return {
        "epsilon1": sb.epsilon1,
        "epsilonK": sb.epsilonK,
        "bound": sb.bound[0],
        "kernel_dim": sb.kernel_dim,
        "interval": [sb.interval[0], sb.interval[1][0]],
    }


def _bound(ops: bounds.OperatorSet, rho, s: float) -> bounds.SpectralBound:
    """``bound_wy`` at s = 1/2, ``bound_wyd`` elsewhere, on one state or a DensityStack."""
    if abs(s - 0.5) < 1e-12:
        return bounds.bound_wy(ops, rho)
    return bounds.bound_wyd(ops, rho, s)


def _joined(rho: DensityOperator, rhos: Optional[DensityStack]) -> DensityStack:
    """The DensityStack of ``rho`` followed by the states of ``rhos``, if any."""
    parts = [(rho.matrix[None], rho.eigenvalues[None], rho.eigenvectors[None])]
    if rhos is not None:
        parts.append((rhos.matrix, rhos.eigenvalues, rhos.eigenvectors))
    return DensityStack(*map(np.concatenate, zip(*parts)))


def _run_oracle(ops: bounds.OperatorSet, rho, s: float, samples: int, seed,
                tol: Tolerances) -> tuple:
    """(exit code, the bound fields at ``rho``, the oracle fields).

    ``rho`` rides as row 0 of the first stack of ``bounds``' sampling oracle
    (alone without samples), so each stack takes one stacked ``_bound``, and
    only ``rho`` may warn that no reference state was feasible.  Over the
    stacks and skew sums of ``empirical_minimum``'s ``_sampled_sums``, the
    oracle records the smallest skew sum of ``ops`` at ``s`` and the smallest
    margin over each sample's bound; a negative margin is a build bug."""
    lowest = margin = math.inf
    stacks = bounds._sampled_sums(ops, s, samples, seed, tol=tol) if samples else [(None, None)]
    for k, (rhos, t) in enumerate(stacks):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sb = _bound(ops, _joined(rho, rhos) if k == 0 else rhos, s)
        if k == 0:
            fields = _bound_report(sb)
            if caught and not sb.feasible[0]:  # the bound's warning, shown for rho only
                warnings.warn(caught[0].message, stacklevel=2)
        if rhos is not None:  # the samples' bounds are the last rows
            lowest = min(lowest, float(np.min(t)))
            margin = min(margin, float(np.min(t - sb.bound[-len(rhos):])))
    oracle = {"oracle_min": lowest, "oracle_samples": samples, "oracle_margin_min": margin}
    if margin < -tol.tol_residual:
        return EXIT_VIOLATION, fields, {**oracle, "oracle_violation": True}
    return EXIT_OK, fields, oracle if samples else {}


def cmd_bound(pf: ProblemFile, args) -> tuple:
    _need(pf.rho is not None, "bound needs a rho")
    _need(pf.operators, "bound needs at least one operator")
    p = pf.params
    ops = pf.operator_set()
    linalg._exponents(p.s)  # bound_wyd's check of s, at s = 1/2 too, before any draw
    bounds._spectral(ops, pf.rho)
    scan = {}
    if args.alpha_scan:
        scan["alpha_scan"] = bounds.tighten_alpha_scan(ops)
        scan["alpha_scan_plain"] = bounds.pure_variance_bound(ops)
    code, fields, oracle = _run_oracle(ops, pf.rho, p.s, args.oracle, p.seed, p.tolerances)
    return code, {"s": p.s, **fields, **scan, **oracle}


def cmd_channel_bound(pf: ProblemFile, args) -> tuple:
    _need(pf.channels, "channel-bound needs at least one channel")
    _need(pf.rho is not None, "channel-bound needs a rho")
    p = pf.params
    kset = pf.operator_set(pooled=True)
    bounds._spectral(kset, pf.rho)  # the dimension check of the bound, before the skews
    skews = {ch.label or f"channel{i}": channels.channel_skew(ch, pf.rho, p.tolerances)
             for i, ch in enumerate(pf.channels.values())}
    code, fields, oracle = _run_oracle(kset, pf.rho, 0.5, args.oracle, p.seed, p.tolerances)
    return code, {**fields, "channel_skew": skews, "skew_sum": sum(skews.values()), **oracle}


def cmd_witness(pf: ProblemFile, args) -> tuple:
    _need(pf.rho is not None, "witness needs a bipartite rho")
    p = pf.params
    _need(p.ops_a and p.ops_b, "witness needs params.ops_a and params.ops_b")
    for name in (p.ops_a + p.ops_b):
        _need(name in pf.operators, f"witness references unknown operator {name!r}")
    setA = bounds.OperatorSet(tuple(pf.operators[n] for n in p.ops_a))
    setB = bounds.OperatorSet(tuple(pf.operators[n] for n in p.ops_b))
    if p.dims is not None and (p.dims != [setA.dim, setB.dim]
                               or p.dims[0] * p.dims[1] != pf.rho.dim):
        raise DimensionMismatch(
            f"params.dims {p.dims} do not fit a state of dim {pf.rho.dim} "
            f"with ops_a of dim {setA.dim} and ops_b of dim {setB.dim}")
    res = bounds.separability_witness(setA, setB, pf.rho, p.tolerances)
    return EXIT_OK, {"lhs": res.lhs, "threshold": res.threshold, "violated": res.violated}


def cmd_weakvalue(pf: ProblemFile, args) -> tuple:
    _need(pf.rho is not None, "weakvalue needs a rho")
    _need(pf.operators, "weakvalue needs at least one operator")
    p = pf.params
    tol = p.tolerances
    table = {}
    code = EXIT_OK
    for name, A in pf.operators.items():
        rec = weakvalue.reconstruct_skew(A, pf.rho, p.s, tol=tol)
        ref = moments.wyd_skew(A, pf.rho, p.s, tol)
        row = {
            "reconstructed": rec.value,
            "reference": ref,
            "abs_error": abs(rec.value - ref),
            "imag_residual": rec.imag_residual,
        }
        if row["abs_error"] > tol.tol_residual or rec.imag_residual > tol.tol_residual:
            row["violation"] = True
            code = EXIT_VIOLATION
        table[name] = row
    return code, {"s": p.s, "operators": table}


def cmd_verify(pf: ProblemFile, args) -> tuple:
    tol = pf.params.tolerances
    wanted = list(sweeps.SUITES) if args.suite == "all" else [args.suite]
    results = {name: sweeps.worst_residual(name, args.seeds, tol) for name in wanted}
    worsts = [r["max_residual"] for r in results.values()]
    worst_overall = None if None in worsts else max(worsts)  # None: a non-finite residual
    ok = worst_overall is not None and worst_overall < tol.tol_residual
    code = EXIT_OK if ok else EXIT_VIOLATION
    return code, {
        "seeds": args.seeds,
        "tol_residual": tol.tol_residual,
        "max_residual": worst_overall,
        "suites": results,
        "pass": code == EXIT_OK,
    }


# ---------------------------------------------------------------- main


def _nu_list(text: str) -> list:
    """argparse type of ``--nu``: comma-separated mean orders; a bad one exits 2."""
    try:
        return [_parse_nu_value(x) for x in text.split(",")]
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _count(least: int):
    """argparse type: an integer of at least ``least``; anything else exits 2."""
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return int(text)
    return integer


@functools.cache  # built once per process, on the first main call
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skewbound",
        description="Skew-information uncertainty quantities and spectral bounds.",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)
    flags = {  # main applies --s, --nu and --seed over their params fields
        "--oracle": dict(type=_count(0), default=0, metavar="N"),
        "--seed": dict(type=_count(0)),
        "--s": dict(type=float),
        "--nu": dict(type=_nu_list, metavar="LIST"),
        "--alpha-scan": dict(action="store_true"),
        "--suite": dict(choices=(*sweeps.SUITES, "all"), default="all"),
        "--seeds": dict(type=_count(1), default=50),
    }
    for command, about, names in (
        ("moments", "standard deviation and skew informations", ("--s", "--nu")),
        ("bound", "spectral lower bound for an operator set",
         ("--oracle", "--seed", "--s", "--alpha-scan")),
        ("channel-bound", "bound for pooled channel coherences", ("--oracle", "--seed")),
        ("witness", "variance-based entanglement witness", ()),
        ("weakvalue", "weak-value reconstruction of skew information", ("--s",)),
        ("verify", "run residual sweeps", ("--suite", "--seeds")),
    ):
        p = sub.add_parser(command, help=about, allow_abbrev=False)
        p.add_argument("file", help="problem file (path or bundled name)")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        for name in names:
            p.add_argument(name, **flags[name])
    return ap


_DISPATCH = {
    "moments": cmd_moments,
    "bound": cmd_bound,
    "channel-bound": cmd_channel_bound,
    "witness": cmd_witness,
    "weakvalue": cmd_weakvalue,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    tol_override = None
    env = os.environ.get("SKEWBOUND_TOL")
    if env:
        try:
            tol_override = float(env)
        except ValueError:
            print(f"error: bad SKEWBOUND_TOL {env!r}", file=sys.stderr)
            return EXIT_PARSE
    try:
        pf = load_problem(args.file, tol_override)
        p = pf.params
        for name in ("s", "nu", "seed"):  # a given flag overrides, 0 included
            if getattr(args, name, None) is not None:
                setattr(p, name, getattr(args, name))
        # an overflow shows as the non-finite report field checked below
        with np.errstate(over="ignore", invalid="ignore"):
            code, body = _DISPATCH[args.command](pf, args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SkewboundError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report = {"command": args.command, "report_version": REPORT_VERSION, **body}
    bad = _non_finite(report)
    if bad is not None:
        print(f"validation error: report field {bad} is not finite", file=sys.stderr)
        return EXIT_VALIDATION
    emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
