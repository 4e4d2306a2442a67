"""CLI reports against committed reference outputs, compared within a tolerance.

Each argv of ``CASES`` runs in process, on a bundled example or on a problem
file of ``tests/reference/`` (Hermitian, Ginibre, reducible with a c I offset
and Lie-closed sets at d 2-8, and a Hermitian set at d = 24, each with its
state, stored as matrices).  The exit code, the last line of stderr, the
warnings and the report's keys, integers, strings and booleans must equal
the references in ``tests/reference/outputs.json``; floats must agree within
``RTOL``, apart from the fields of ``ATOL``.

The oracle fields also depend on numpy's ``default_rng`` streams, which
numpy keeps stable across versions; they get the same tolerance, since a
changed stream would move them far past it and is worth seeing.

After a change that moves a report, regenerate the references with
``python tests/test_reference_outputs.py --write`` and list every moved
field, with its old and new value, in CHANGES.md.
"""

import csv
import io
import json
import math
import pathlib
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

HERE = pathlib.Path(__file__).parent / "reference"
OUTPUTS = HERE / "outputs.json"

# A float of the JSON report may differ from its reference by
# RTOL * |reference| + ATOL.get(field name, 0).
RTOL = 1e-12
ATOL = {
    # residuals are rounding noise of O(1) terms: they must stay at that
    # level, not keep their digits
    "max_residual": 1e-12,
    "abs_error": 1e-12,
    "imag_residual": 1e-12,
    # a sample's skew sum less its bound, both O(1): their rounding, not the
    # difference, sets the error
    "oracle_margin_min": 1e-12,
}
# Fields that name the worst of many rounding-level residuals: which one is
# worst is itself rounding noise.
UNCOMPARED = {"worst_case"}
# Text and CSV print floats to 10 significant digits, so a change far below
# RTOL can still move the last printed digit by one.
PRINTED_RTOL = 1e-9

FORMATS = ("text", "json", "csv")
SETS = ("hermitian_d4", "ginibre_d5", "reducible_d6", "lie_d5", "hermitian_d8")
README = (
    ("bound", "example2", "--alpha-scan"),
    ("channel-bound", "example3", "--oracle", "500"),
    ("moments", "example4", "--nu", "0,-1,-2,-inf"),
    ("witness", "singlet_witness"),
    ("weakvalue", "example1_spinhalf", "--s", "0.3"),
    ("verify", "example1_spinhalf", "--suite", "all", "--seeds", "100"),
)
CASES = [
    *([*argv, "--format", fmt] for argv in README for fmt in FORMATS),
    ["bound", "example1_spinhalf", "--format", "json"],
    ["bound", "example1_spinhalf", "--oracle", "5", "--format", "json"],
    ["bound", "example1_spin1", "--s", "0.3", "--oracle", "100", "--seed", "2", "--format", "json"],
    ["moments", "example1_spin1", "--s", "0.3", "--format", "json"],
    ["channel-bound", "example3", "--format", "json"],
    *(["verify", "example1_spinhalf", "--suite", suite, "--seeds", "20", "--format", "json"]
      for suite in ("equalities", "qubit", "weakvalue")),
    *(argv for name in SETS for argv in (
        ["moments", f"{name}.json", "--s", "0.3", "--nu", "0,-0.5,-1,-2,-inf", "--format", "json"],
        ["bound", f"{name}.json", "--oracle", "20", "--seed", "7", "--format", "json"],
        ["bound", f"{name}.json", "--s", "0.3", "--oracle", "20", "--seed", "7", "--format", "json"],
        ["bound", f"{name}.json", "--alpha-scan", "--grid", "41", "--format", "json"],
        ["weakvalue", f"{name}.json", "--s", "0.3", "--format", "json"],
    )),
    ["moments", "hermitian_d8.json", "--format", "text"],
    ["moments", "ginibre_d5.json", "--s", "0.7", "--nu", "-1", "--format", "csv"],
    ["bound", "ginibre_d5.json", "--s", "0.3", "--oracle", "20", "--format", "csv"],
    ["moments", "hermitian_d24.json", "--s", "0.3", "--nu", "0,-1,-inf", "--format", "json"],
    ["bound", "hermitian_d24.json", "--format", "json"],
    ["bound", "hermitian_d24.json", "--s", "0.3", "--oracle", "3", "--seed", "5", "--format", "json"],
    # errors: the exit code and the message are the output
    ["bound", "example1_spinhalf", "--s", "1.5", "--oracle", "5"],
    ["bound", "example1_spinhalf", "--oracle", "5", "--seed", "-1"],
    ["channel-bound", "example3", "--s", "3", "--oracle", "10"],
    ["moments", "example4", "--nu", "foo"],
    ["witness", "example2"],
    ["bound", "example3"],
]


def run(argv: list) -> dict:
    """Exit code, stdout, stderr and warnings of one in-process CLI call;
    a file name of ``tests/reference/`` is read from there."""
    from skewbound import cli

    path = HERE / argv[1]
    args = [argv[0], str(path) if path.exists() else argv[1], *argv[2:]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]}


def _report(result: dict):
    """The report of a run: the JSON object, or text and CSV as (key, value)
    pairs; None if nothing was printed."""
    argv, text = result["argv"], result["stdout"]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    if not text:
        return None
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        return [tuple(row) for row in csv.reader(io.StringIO(text))][1:]
    return [tuple(line.split(" = ", 1)) for line in text.splitlines()]


def _mismatches(got, want, path: str = "report"):
    """Where the JSON value ``got`` differs from ``want`` beyond the tolerances."""
    name = path.rsplit(".", 1)[-1].split("[")[0]
    if name in UNCOMPARED:
        return
    if isinstance(want, dict) and isinstance(got, dict) and list(got) == list(want):
        for k in want:
            yield from _mismatches(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _mismatches(g, w, f"{path}[{i}]")
    elif type(want) is float and type(got) is float:
        if not abs(got - want) <= RTOL * abs(want) + ATOL.get(name, 0.0):
            yield f"{path}: {got!r} != {want!r}"
    elif type(got) is not type(want) or got != want:
        yield f"{path}: {got!r} != {want!r}"


def _printed_mismatches(got: list, want: list):
    """Where the printed (key, value) pairs ``got`` differ from ``want``: the
    keys and every value that is not a number or a list of them must be
    equal, and numbers agree within PRINTED_RTOL."""
    if [k for k, _ in got] != [k for k, _ in want]:
        yield f"keys {[k for k, _ in got]} != {[k for k, _ in want]}"
        return
    for (key, g), (_, w) in zip(got, want):
        name = key.rsplit(".", 1)[-1]
        if g == w or name in UNCOMPARED:
            continue
        try:
            gs, ws = ([float(x) for x in v.strip("[]").split(", ")] for v in (g, w))
        except ValueError:
            gs, ws = [g], [w]
        if len(gs) != len(ws) or not all(
                isinstance(a, float) and math.isclose(a, b, rel_tol=PRINTED_RTOL,
                                                      abs_tol=ATOL.get(name, 0.0))
                for a, b in zip(gs, ws)):
            yield f"{key}: {g!r} != {w!r}"


def test_reports_match_the_references():
    refs = json.loads(OUTPUTS.read_text())
    assert [r["argv"] for r in refs] == CASES, "regenerate the references (see the module doc)"
    bad = []
    for want in refs:
        got, case = run(want["argv"]), []
        for key in ("exit", "stderr", "warnings"):
            g, w = got[key], want[key]
            if key == "stderr":  # above the error, argparse's usage wraps to the terminal
                g, w = g.splitlines()[-1:], w.splitlines()[-1:]
            if g != w:
                case.append(f"{key} {g!r} != {w!r}")
        g, w = _report(got), _report(want)
        if isinstance(w, dict) and isinstance(g, dict):
            case += _mismatches(g, w)
        elif isinstance(w, list) and isinstance(g, list):
            case += _printed_mismatches(g, w)
        elif g != w:
            case.append(f"report {g!r} != {w!r}")
        bad += [f"skewbound {' '.join(want['argv'])}: {m}" for m in case]
    assert not bad, "\n".join(bad)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_reference_outputs.py --write")
    sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "src"))
    OUTPUTS.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
