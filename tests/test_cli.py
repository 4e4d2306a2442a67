import json
import operator
import re
import shlex
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from skewbound import (
    DensityStack, bounds, cli, empirical_minimum, equalities, moments, sweeps, weakvalue,
    wyd_skew)
from skewbound.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    EXIT_VIOLATION,
    _fmt,
    load_problem,
    main,
)
from conftest import spin_ops
from test_sweeps import residuals


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


class TestLoadProblem:
    def test_bundled_lookup(self):
        pf = load_problem("example2")
        assert set(pf.operators) == {"A1", "A2", "A3", "A4"}
        assert pf.rho is not None

    def test_unknown_fields_rejected(self, tmp_path):
        from skewbound.cli import ParseError

        path = write_json(tmp_path, "bad.json", {"version": 1, "rho": [[1]], "extra": 1})
        with pytest.raises(ParseError):
            load_problem(path)

    def test_malformed_row_diagnostics(self, tmp_path):
        from skewbound.cli import ParseError

        path = write_json(
            tmp_path, "bad.json",
            {"version": 1, "rho": [[0.5, 0], [0, "x"]]},
        )
        with pytest.raises(ParseError, match=r"row 1, col 1"):
            load_problem(path)

    def test_ragged_matrix(self, tmp_path):
        from skewbound.cli import ParseError

        path = write_json(
            tmp_path, "bad.json",
            {"version": 1, "operators": {"A": [[0, 1], [1]]}},
        )
        with pytest.raises(ParseError, match="row 1 has 1 columns"):
            load_problem(path)

    @pytest.mark.parametrize("obj", [
        [[1, 2.5], [-3, 0.0]],
        [[[1, 2], [0.5, -1]], [[-0.0, 3], [2**60, 0.25]]],
        [[1, [0, 1]], [[0, -1], 2]],  # mixed entries take the entrywise path
        [[7]],
    ])
    def test_matrix_parse_matches_entrywise(self, obj):
        from skewbound.cli import _entry_to_complex, _parse_matrix

        want = np.array([[_entry_to_complex(x, "A", r, c) for c, x in enumerate(row)]
                         for r, row in enumerate(obj)], dtype=complex)
        got = _parse_matrix(obj, "A")
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("obj, message", [
        ([[True, 0], [0, 1]], r"row 0, col 0 must be a number or \[re, im\], got True"),
        ([[1, 0], [0, False]], r"row 1, col 1 .* got False"),
        ([[[1, True], [0, 0]], [[0, 0], [1, 0]]], r"row 0, col 0 .* got \[1, True\]"),
        ([[[1, 2, 3], [1, 2, 3]], [[1, 2, 3], [1, 2, 3]]], r"row 0, col 0 .* got \[1, 2, 3\]"),
        ([[[1, 2], [1]], [[1, 2], [1, 2]]], r"row 0, col 1 .* got \[1\]"),
        ([["1", 0], [0, 1]], r"row 0, col 0 .* got '1'"),
        ([[None, 0], [0, 1]], r"row 0, col 0 .* got None"),
        ([[1, 2], [3]], "row 1 has 1 columns, expected 2"),
        ([[1, 2]], r"shape \(1, 2\) is not square"),
        ([[[1, 0], [0, 0]]], r"shape \(1, 2\) is not square"),
        ([[]], "row 0 is not a nonempty array"),
        ([], "expected a nonempty array of rows"),
        ([[10**400, 0], [0, 1]], r"matrix 'A': entry at row 0, col 0 is too large for a float"),
        ([[[1, 0], [0, 0]], [[0, 0], [1, -10**400]]],
         r"matrix 'A': entry at row 1, col 1 is too large for a float"),
    ])
    def test_matrix_parse_errors_unchanged(self, obj, message):
        from skewbound.cli import ParseError, _parse_matrix

        with pytest.raises(ParseError, match=message):
            _parse_matrix(obj, "A")

    def test_bloch_form(self, tmp_path):
        path = write_json(tmp_path, "b.json", {"version": 1, "rho": {"bloch": [0, 0, 0.5]}})
        pf = load_problem(path)
        np.testing.assert_allclose(pf.rho.matrix, np.diag([0.75, 0.25]), atol=1e-12)


class TestExitCodes:
    def test_parse_error_is_2(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, _, err = run(capsys, "moments", str(p))
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_missing_file_is_2(self, capsys):
        code, _, err = run(capsys, "moments", "no_such_file.json")
        assert code == EXIT_PARSE

    def test_corrupted_rho_is_3(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "corrupt.json",
            {"version": 1, "rho": [[0.5, 0], [0, 0.6]],
             "operators": {"Z": [[1, 0], [0, -1]]}},
        )
        code, _, err = run(capsys, "verify", path, "--seeds", "1")
        assert code == EXIT_VALIDATION
        assert "validation error" in err

    def test_verify_tiny_tolerance_is_4(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEWBOUND_TOL", "1e-30")
        code, out, _ = run(capsys, "verify", "example1_spinhalf",
                           "--suite", "qubit", "--seeds", "3")
        assert code == EXIT_VIOLATION

    @pytest.mark.parametrize("argv", [
        ("verify", "example1_spinhalf", "--seeds", "0"),
        ("verify", "example1_spinhalf", "--seeds", "-4"),
        ("bound", "example2", "--oracle", "-3"),
        ("bound", "example1_spinhalf", "--oracle", "5", "--seed", "-1"),
        ("channel-bound", "example3", "--oracle", "5", "--seed", "-2"),
        ("channel-bound", "example3", "--oracle", "-1"),
    ], ids=" ".join)
    def test_bad_count_flag_is_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_PARSE
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("bound", "example2", "--alpha-scan", "--grid", "5"),
        ("witness", "singlet_witness", "--grid", "5"),
    ], ids=" ".join)
    def test_grid_flag_is_gone(self, capsys, argv):
        # the scans find their own shifts: there is no grid to set
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_PARSE
        assert "unrecognized arguments: --grid 5" in capsys.readouterr().err

    def test_grid_points_field_is_unknown(self, capsys, tmp_path):
        path = write_json(tmp_path, "grid.json", {
            "version": 1, "rho": [[0.5, 0], [0, 0.5]],
            "operators": {"Z": [[1, 0], [0, -1]]}, "params": {"grid_points": 201},
        })
        code, _, err = run(capsys, "bound", path, "--alpha-scan")
        assert code == EXIT_PARSE
        assert "unknown params fields: ['grid_points']" in err

    @pytest.mark.parametrize("bad", [
        ("verify", "example1_spinhalf", "--seeds", "0"),
        ("bound", "example2", "--oracle", "-1"),
    ], ids=" ".join)
    def test_parser_is_reused_across_calls(self, capsys, bad):
        good = ("bound", "example2", "--format", "json", "--oracle", "20", "--seed", "3")
        first = run(capsys, *good)
        with pytest.raises(SystemExit) as exc:
            main(list(bad))
        assert exc.value.code == EXIT_PARSE
        assert "must be at least" in capsys.readouterr().err
        assert run(capsys, *good) == first
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("argv", [
        ("bound", "example1_spinhalf", "--s", "0.3", "--oracle", "50"),
        ("verify", "example1_spinhalf", "--suite", "qubit", "--seeds", "3"),
    ], ids=" ".join)
    def test_nan_env_tolerance_is_3(self, capsys, monkeypatch, argv):
        # a NaN tolerance would pass every check: margin < -nan is False
        monkeypatch.setenv("SKEWBOUND_TOL", "nan")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "tol_residual must be nonnegative" in err

    def test_nan_file_tolerance_is_3(self, capsys, tmp_path):
        path = write_json(tmp_path, "nan.json", {
            "version": 1, "rho": [[0.5, 0], [0, 0.5]],
            "operators": {"Z": [[1, 0], [0, -1]]},
            "params": {"tolerances": {"tol_psd": float("nan")}},
        })
        assert "NaN" in Path(path).read_text()
        code, _, err = run(capsys, "moments", path)
        assert code == EXIT_VALIDATION
        assert "tol_psd must be nonnegative" in err

    def test_infinite_env_tolerance_is_allowed(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEWBOUND_TOL", "inf")
        code, out, _ = run(capsys, "bound", "example1_spinhalf", "--format", "json",
                           "--s", "0.3", "--oracle", "20")
        assert code == EXIT_OK
        assert json.loads(out)["oracle_samples"] == 20

    def test_bad_env_tolerance_is_2(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEWBOUND_TOL", "not-a-float")
        code, _, err = run(capsys, "moments", "example4")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("fields", [
        {"version": "x"},
        {"params": {"s": "half"}},
        {"params": {"seed": [1]}},
        {"params": {"dims": ["a", 2]}},
        {"params": {"tolerances": {"tol_herm": "tiny"}}},
        {"params": {"tolerances": {"tol_trace": None}}},
        {"params": {"tolerances": {"tol_psd": [1e-10]}}},
        {"params": {"tolerances": {"tol_recon": "x"}}},
        {"params": {"tolerances": {"tol_residual": {}}}},
        {"rho": {"bloch": [0, "y", 0]}},
    ], ids=lambda f: json.dumps(f))
    def test_malformed_number_is_2(self, capsys, tmp_path, fields):
        path = write_json(tmp_path, "bad.json", {
            "version": 1, "rho": [[0.5, 0], [0, 0.5]],
            "operators": {"Z": [[1, 0], [0, -1]]}, **fields,
        })
        code, _, err = run(capsys, "moments", path)
        assert code == EXIT_PARSE
        assert err.startswith("parse error: ")

    @pytest.mark.parametrize("params, err", [
        ({"seed": 1.7}, "params.seed must be an integer, got 1.7"),
        ({"seed": True}, "params.seed must be an integer, got True"),
        ({"dims": [True, 2.9]}, "params.dims must be an integer, got True"),
        ({"dims": [2, 2.9]}, "params.dims must be an integer, got 2.9"),
        ({"tolerances": {"tol_residual": True}},
         "params.tolerances.tol_residual must be a number, got True"),
    ], ids=["seed-fraction", "seed-bool", "dims-bool", "dims-fraction", "tolerance-bool"])
    def test_number_is_not_coerced(self, capsys, tmp_path, params, err):
        # a JSON boolean is no number, nor a fraction a seed or a dimension
        path = write_json(tmp_path, "coerced.json", {
            "version": 1, "rho": [[0.5, 0], [0, 0.5]], "operators": {"Z": [[1, 0], [0, -1]]},
            "params": params,
        })
        code, out, got = run(capsys, "bound", path, "--oracle", "5")
        assert (code, out, got) == (EXIT_PARSE, "", f"parse error: {err}\n")

    @pytest.mark.parametrize("argv", ["bound --oracle 5", "moments"])
    def test_negative_file_seed_is_2(self, capsys, tmp_path, argv):
        path = write_json(tmp_path, "seed.json", {
            "version": 1, "rho": [[0.5, 0], [0, 0.5]], "operators": {"Z": [[1, 0], [0, -1]]},
            "params": {"seed": -1},
        })
        command, *flags = argv.split()
        code, out, err = run(capsys, command, path, *flags)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "parse error: params.seed must be at least 0, got -1\n"

    @pytest.mark.parametrize("version", [2, 99, 0, -1, 1.5, "1", True, None])
    def test_unknown_version_is_2(self, capsys, tmp_path, version):
        path = write_json(tmp_path, "v.json", {
            "version": version, "rho": [[0.5, 0], [0, 0.5]], "operators": {"Z": [[1, 0], [0, -1]]},
        })
        code, out, err = run(capsys, "moments", path)
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"parse error: version must be 1, got {version!r}\n"

    @pytest.mark.parametrize("version", [1, 1.0, "absent"])
    def test_version_1_is_read(self, capsys, tmp_path, version):
        content = {"rho": [[0.5, 0], [0, 0.5]], "operators": {"Z": [[1, 0], [0, -1]]}}
        if version != "absent":
            content["version"] = version
        code, _, _ = run(capsys, "moments", write_json(tmp_path, "v.json", content))
        assert code == EXIT_OK
        assert load_problem(str(tmp_path / "v.json")).version == 1

    @pytest.mark.parametrize("value", ["foo", "0,foo", "1e", ""])
    def test_bad_nu_flag_is_2(self, capsys, value):
        # as a bad --seed: argparse's usage and one error line, exit 2
        with pytest.raises(SystemExit) as exc:
            main(["moments", "example4", "--nu", value])
        assert exc.value.code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("usage: skewbound moments")
        last = err.splitlines()[-1]
        assert last.startswith("skewbound moments: error: argument --nu: bad nu value ")


    @pytest.mark.parametrize("text, message", [
        (json.dumps([[10**400, 0], [0, 1]]), "entry at row 0, col 0 is too large"),
        (json.dumps([[1, [0, 10**400]], [[0, 0], 1]]), "entry at row 0, col 1 is too large"),
        # past Python's 4300-digit limit the JSON decoder itself refuses
        ("[[1" + "0" * 5000 + ", 0], [0, 1]]", "invalid JSON"),
    ], ids=["number", "pair", "digits"])
    def test_huge_integer_entry_is_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "huge.json"
        path.write_text('{"version": 1, "rho": [[0.5, 0], [0, 0.5]], "operators": {"A": '
                        + text + "}}")
        code, out, err = run(capsys, "moments", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("parse error: ") and message in err

    @pytest.mark.parametrize("command, field", [
        ("bound", "epsilonK"),
        ("moments", "operators.A.std_dev"),
    ])
    def test_non_finite_report_is_3(self, capsys, tmp_path, command, field):
        # every entry is below the load cap, but A^2 overflows, so the report
        # would hold an infinity or NaN
        path = write_json(tmp_path, "overflow.json", {
            "version": 1, "rho": [[0.5, 0], [0, 0.5]],
            "operators": {"A": [[1e154, 1e154], [1e154, 1e154]]},
        })
        with np.errstate(all="ignore"):
            code, out, err = run(capsys, command, path)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"validation error: report field {field} is not finite\n"

    @pytest.mark.parametrize("command", ["bound", "moments"])
    @pytest.mark.filterwarnings("error")  # no numpy warning is printed before the error
    def test_overflow_prints_one_line(self, capsys, tmp_path, command):
        path = write_json(tmp_path, "overflow.json", {
            "version": 1, "rho": [[0.5, 0], [0, 0.5]],
            "operators": {"A": [[1e154, 1e154], [1e154, 1e154]]},
        })
        code, out, err = run(capsys, command, path)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert len(err.splitlines()) == 1 and err.startswith("validation error: ")

    @pytest.mark.parametrize("command, rho, A, where", [
        ("moments", [[1e308, 0], [0, 1e308]], [[1e308, 0], [0, 1e308]], "'rho': entry at row 0, col 0"),
        ("bound", [[0.5, 0], [0, 0.5]], [[1e200, 1], [1, -1e200]], "'A': entry at row 0, col 0"),
        ("bound", [[0.5, 0], [0, 0.5]], [[0, 1], [1, [0, -2e154]]], "'A': entry at row 1, col 1"),
    ], ids=["moments-rho", "bound-A", "bound-pair"])
    @pytest.mark.filterwarnings("error")  # rejected before numpy can overflow and warn
    def test_huge_entry_is_3(self, capsys, tmp_path, command, rho, A, where):
        path = write_json(tmp_path, "huge.json", {"version": 1, "rho": rho, "operators": {"A": A}})
        code, out, err = run(capsys, command, path)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"validation error: matrix {where} exceeds 1.341e+154 in magnitude\n"

    def test_directory_is_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "bound", str(tmp_path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith(f"parse error: cannot read {tmp_path}: ")

    def test_oracle_violation_is_4(self, capsys, monkeypatch):
        # a bound raised above the skew sums fails on the first sample stack
        real = cli._bound

        def raised(ops, rho, s):
            sb = real(ops, rho, s)
            return replace(sb, bound=sb.bound + 1e3)

        monkeypatch.setattr(cli, "_bound", raised)
        code, out, _ = run(capsys, "bound", "example1_spin1", "--format", "json",
                           "--oracle", "25")
        assert code == EXIT_VIOLATION
        rep = json.loads(out)
        assert rep["oracle_violation"] is True
        assert rep["oracle_margin_min"] < -1e-8

    def test_weakvalue_violation_is_4(self, capsys, monkeypatch):
        real = weakvalue.reconstruct_skew

        def shifted(*args, **kwargs):
            rec = real(*args, **kwargs)
            return rec._replace(value=rec.value + 1e-6)

        monkeypatch.setattr(weakvalue, "reconstruct_skew", shifted)
        code, out, _ = run(capsys, "weakvalue", "example1_spinhalf", "--format", "json")
        assert code == EXIT_VIOLATION
        rows = json.loads(out)["operators"].values()
        assert rows and all(row["violation"] is True and row["abs_error"] > 1e-8
                            for row in rows)

    @pytest.mark.parametrize("argv", [
        ("channel-bound", "example3", "--s", "3", "--oracle", "10"),  # --s for --seed
        ("bound", "example2", "--alpha"),
        ("bound", "example2", "--ora", "5"),
        ("verify", "example1_spinhalf", "--seed", "5"),  # --seed for --seeds
        ("moments", "example4", "--form", "json"),
    ])
    def test_abbreviated_flag_is_2(self, capsys, argv):
        # a flag is given whole: argparse's prefix matching would take --s for
        # --seed where the command has no --s
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: {argv[2]}" in captured.err

    def test_samples_param_is_unknown(self, capsys, tmp_path):
        # the oracle sample count is the --oracle flag; a file cannot set it
        path = write_json(tmp_path, "samples.json", {
            "version": 1, "rho": [[0.5, 0], [0, 0.5]],
            "operators": {"Z": [[1, 0], [0, -1]]}, "params": {"samples": 5000},
        })
        code, _, err = run(capsys, "moments", path)
        assert code == EXIT_PARSE
        assert err.startswith("parse error: unknown params fields: ['samples']")

    def test_weakvalue_operator_of_other_dimension_is_3(self, capsys, tmp_path):
        path = write_json(tmp_path, "dims.json", {
            "version": 1, "rho": [[0.5, 0], [0, 0.5]],
            "operators": {"A": [[1, 0, 0], [0, 0, 0], [0, 0, -1]]},
        })
        code, _, err = run(capsys, "weakvalue", path)
        assert code == EXIT_VALIDATION
        assert err.startswith("validation error: ")


def _readme_commands():
    """(argv, expected) per ``skewbound ...`` line of the README's CLI block;
    expected maps each ``key = value`` of the trailing comment, outside
    parentheses, to its printed value."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI$.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    cases = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "skewbound", line
        expected = dict(re.findall(r"(\w+) = ([^,\s]+)", re.sub(r"\(.*?\)", "", comment)))
        cases.append(pytest.param(argv[1:], expected, id=" ".join(argv[1:3])))
    return cases


class TestReadmeCommands:
    @pytest.mark.parametrize("argv, expected", _readme_commands())
    def test_readme_command(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == EXIT_OK, err
        rep = json.loads(out)
        assert {key: _fmt(rep[key]) for key in expected} == expected

    @pytest.mark.parametrize("argv, expected", _readme_commands())
    def test_cached_load_gives_the_same_report(self, capsys, argv, expected):
        first = run(capsys, *argv, "--format", "json")
        assert len(cli._problems) == 1
        assert run(capsys, *argv, "--format", "json") == first


class TestProblemCache:
    RHO = [[0.25, 0], [0, 0.75]]

    @pytest.fixture
    def decodes(self, monkeypatch):
        """The list of texts ``json.loads`` has decoded in the test."""
        texts = []

        def counted(text, *args, _loads=json.loads, **kwargs):
            texts.append(text)
            return _loads(text, *args, **kwargs)

        monkeypatch.setattr(cli.json, "loads", counted)
        return texts

    def problem(self, tmp_path, name="p.json", rho=RHO):
        return write_json(tmp_path, name, {
            "version": 1, "rho": rho, "operators": {"A": [[0, 1], [1, 0]]},
            "params": {"nu": [-1.0]},
        })

    def test_second_load_decodes_nothing(self, tmp_path, decodes):
        path = self.problem(tmp_path)
        first, second = load_problem(path), load_problem(path)
        assert len(decodes) == 1
        assert first.rho.matrix.tobytes() == second.rho.matrix.tobytes()
        assert first.operators["A"].tobytes() == second.operators["A"].tobytes()
        assert first.params == second.params

    def test_same_bytes_under_another_path_hit(self, tmp_path, decodes):
        path = self.problem(tmp_path)
        other = tmp_path / "other.json"
        other.write_bytes(Path(path).read_bytes())
        load_problem(path)
        load_problem(str(other))
        assert len(decodes) == 1

    def test_rewritten_file_is_parsed_again(self, tmp_path, decodes):
        path = self.problem(tmp_path)
        size = Path(path).stat().st_size
        assert load_problem(path).rho.matrix[0, 0] == 0.25
        self.problem(tmp_path, rho=[[0.75, 0], [0, 0.25]])
        assert Path(path).stat().st_size == size
        assert load_problem(path).rho.matrix[0, 0] == 0.75
        assert len(decodes) == 2

    def test_tolerance_override_is_its_own_entry(self, capsys, monkeypatch, tmp_path, decodes):
        path = self.problem(tmp_path)
        assert load_problem(path).params.tolerances.tol_residual == 1e-8
        monkeypatch.setenv("SKEWBOUND_TOL", "1e-6")
        assert run(capsys, "moments", path)[0] == EXIT_OK
        assert len(decodes) == 2
        assert load_problem(path, 1e-6).params.tolerances.tol_residual == 1e-6
        assert load_problem(path).params.tolerances.tol_residual == 1e-8
        assert len(decodes) == 2

    def test_writes_to_a_result_change_no_later_load(self, tmp_path):
        # the arrays of a parse are shared and read-only; its dicts and params
        # are each load's own
        path = self.problem(tmp_path)
        for _ in range(2):  # the miss's result, then a hit's
            pf = load_problem(path)
            for M in (pf.rho.matrix, pf.rho.eigenvalues, pf.rho.eigenvectors,
                      pf.operators["A"]):
                with pytest.raises(ValueError, match="read-only"):
                    M.flat[0] = 9
            pf.operators["B"] = np.eye(2)
            pf.params.s = 0.1
            pf.params.nu.append(2.0)
        pf = load_problem(path)
        assert pf.rho.matrix[0, 0] == 0.25 and pf.rho.eigenvalues[0] == 0.25
        assert pf.operators["A"][0, 0] == 0 and set(pf.operators) == {"A"}
        assert (pf.params.s, pf.params.nu) == (0.5, [-1.0])

    def test_operator_set_keeps_the_parse_arrays(self, tmp_path):
        # a parse's matrices own their memory and are read-only, so its set
        # keeps them without a copy; a read-only view of writable memory is
        # still copied
        pairs = write_json(tmp_path, "pairs.json", {
            "rho": self.RHO, "operators": {"Y": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]}})
        for path in ("example2", self.problem(tmp_path), pairs):  # mixed, numbers, pairs
            pf = load_problem(path)
            assert all(map(operator.is_, pf.operator_set().operators, pf.operators.values()))
        A = np.eye(2, dtype=complex)
        view = A[:]
        view.flags.writeable = False
        ops = bounds.OperatorSet((view,))
        A[0, 0] = 9
        assert ops.operators[0][0, 0] == 1

    def test_kraus_operators_are_read_only(self):
        pf = load_problem("example3")
        for ch in pf.channels.values():
            assert not any(K.flags.writeable for K in ch.kraus)

    @pytest.mark.parametrize("command, pooled", [("bound", False), ("channel-bound", True)])
    def test_operator_set_built_on_first_use_and_shared(self, capsys, monkeypatch, command,
                                                        pooled):
        # no set at parse time (the load stays cheap); the first command builds
        # it, and every later load of the parse reuses that one set
        built = []
        real = bounds.OperatorSet.__post_init__
        monkeypatch.setattr(bounds.OperatorSet, "__post_init__",
                            lambda self: built.append(1) or real(self))
        name = "example2" if command == "bound" else "example3"
        first = load_problem(name)
        assert built == []
        for _ in range(2):
            assert run(capsys, command, name, "--oracle", "5")[0] == EXIT_OK
        assert built == [1]
        assert load_problem(name).operator_set(pooled) is first.operator_set(pooled)
        # a load whose operators are no longer those of the parse gets its own set
        pf = load_problem(name)
        if pooled:
            ch = next(iter(pf.channels.values()))
            pf.channels["copy"] = type(ch)(kraus=tuple(np.array(K) for K in ch.kraus))
        else:
            pf.operators["extra"] = np.eye(pf.rho.dim)
        ops = pf.operator_set(pooled)
        assert len(ops.operators) == len(first.operator_set(pooled).operators) + (
            len(ch.kraus) if pooled else 1)

    def test_parse_errors_are_not_cached(self, tmp_path, decodes):
        from skewbound.cli import ParseError

        path = write_json(tmp_path, "bad.json", {"version": 1, "extra": 1})
        for _ in range(2):
            with pytest.raises(ParseError, match="unknown top-level fields"):
                load_problem(path)
        assert len(decodes) == 2 and not cli._problems

    @pytest.mark.parametrize("encoding, message", [
        ("utf-8-sig", "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ("utf-16", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ])
    def test_bom_and_utf16_files_are_2(self, capsys, tmp_path, encoding, message):
        path = tmp_path / "encoded.json"
        path.write_text('{"version": 1, "rho": [[1]], "operators": {"A": [[1]]}}', encoding=encoding)
        for _ in range(2):
            code, out, err = run(capsys, "moments", str(path))
            assert (code, out) == (EXIT_PARSE, "")
            assert err == f"parse error: invalid JSON in {path}: {message}\n"

    def test_crlf_error_positions_are_unchanged(self, capsys, tmp_path):
        # text-mode reading turns CRLF into LF, so the char offset counts one per line
        path = tmp_path / "crlf.json"
        path.write_bytes(b'{"version": 1,\r\n "rho": [[1]],\r\n "operators": {"A": [[x]]}}')
        code, _, err = run(capsys, "moments", str(path))
        assert code == EXIT_PARSE
        assert err.endswith("Expecting value: line 3 column 23 (char 52)\n")


class TestGoldenReports:
    def _json_report(self, capsys, *argv):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == EXIT_OK, err
        return json.loads(out)

    def test_example2_bound(self, capsys):
        rep = self._json_report(capsys, "bound", "example2", "--alpha-scan")
        assert rep["epsilon1"] == pytest.approx(2.323391113, abs=1e-9)
        assert rep["bound"] == pytest.approx(1.548927409, abs=1e-9)
        assert rep["alpha_scan"] <= 1.5489 + 1e-6
        # the certified floors, below the continuum minima by less than 1e-11
        assert rep["alpha_scan"] == pytest.approx(1.2914769009, abs=1e-9)
        assert rep["alpha_scan_plain"] == pytest.approx(1.3993169584, abs=1e-9)

    def test_example1_files(self, capsys):
        rep = self._json_report(capsys, "bound", "example1_spinhalf")
        assert rep["epsilon1"] == pytest.approx(1.0, abs=1e-8)
        rep = self._json_report(capsys, "bound", "example1_spin1")
        assert rep["epsilon1"] == pytest.approx(1.0, abs=1e-8)

    def test_example3_channel_bound(self, capsys):
        rep = self._json_report(capsys, "channel-bound", "example3")
        assert rep["epsilon1"] == pytest.approx(0.5, abs=1e-10)

    def test_example4_moments(self, capsys):
        rep = self._json_report(capsys, "moments", "example4", "--nu", "0")
        vals = {name: row["gen_skew_nu=0"] for name, row in rep["operators"].items()}
        bracket = 1 - 2 * np.sqrt(0.21)
        # closed form: bracket times eigenvector variance (1.25, 0.5, 0.5, 0.5)
        assert vals["sigma1"] == pytest.approx(bracket * 1.25, abs=1e-9)
        for name in ("sigma2", "sigma3", "sigma4"):
            assert vals[name] == pytest.approx(bracket * 0.5, abs=1e-9)

    def test_singlet_witness(self, capsys):
        rep = self._json_report(capsys, "witness", "singlet_witness")
        assert rep["violated"] is True
        assert rep["threshold"] == pytest.approx(1.0, abs=1e-8)
        assert rep["lhs"] == pytest.approx(0.0, abs=1e-10)

    def test_witness_scans_a_shared_set_once(self, capsys, monkeypatch):
        # singlet_witness names Sx, Sy, Sz on both sides: one set, one plain scan
        pairings = []
        real = bounds.h_tot

        def counted(*args, **kwargs):
            pairings.append(kwargs.get("pairing", "transpose"))
            return real(*args, **kwargs)

        monkeypatch.setattr(bounds, "h_tot", counted)
        code, _, _ = run(capsys, "witness", "singlet_witness")
        assert code == EXIT_OK
        assert pairings == ["plain"]

    def test_weakvalue_roundtrip(self, capsys):
        rep = self._json_report(capsys, "weakvalue", "example1_spinhalf", "--s", "0.3")
        for row in rep["operators"].values():
            assert row["abs_error"] < 1e-9
            assert row["imag_residual"] < 1e-9

    def test_byte_stable_reports(self, capsys):
        a = run(capsys, "bound", "example2", "--format", "json",
                "--oracle", "50", "--seed", "3")
        b = run(capsys, "bound", "example2", "--format", "json",
                "--oracle", "50", "--seed", "3")
        assert a == b

    def test_oracle_consistency(self, capsys):
        code, out, _ = run(capsys, "bound", "example2", "--format", "json",
                           "--oracle", "300", "--seed", "1")
        assert code == EXIT_OK
        rep = json.loads(out)
        # per-sample margin against the state-dependent bound stays nonnegative
        assert rep["oracle_margin_min"] >= -1e-8

    @pytest.mark.parametrize("s", ["0.5", "0.3"])
    def test_oracle_min_is_empirical_minimum(self, capsys, s):
        # oracle_min and oracle_margin_min come from one stream of samples
        code, out, _ = run(capsys, "bound", "example1_spin1", "--format", "json",
                           "--s", s, "--oracle", "60", "--seed", "4")
        assert code == EXIT_OK
        rep = json.loads(out)
        pf = load_problem("example1_spin1")
        tol = pf.params.tolerances
        ops = bounds.OperatorSet(tuple(pf.operators.values()))
        assert rep["oracle_min"] == empirical_minimum(ops, float(s), 60, 4, tol=tol)
        margins = []
        for rho in (rho for stack in bounds.sample_stacks(3, 60, 4) for rho in stack):
            total = sum(wyd_skew(A, rho, float(s), tol) for A in ops.operators)
            sb = (bounds.bound_wy(ops, rho) if s == "0.5"
                  else bounds.bound_wyd(ops, rho, float(s)))
            margins.append(total - sb.bound)
        assert rep["oracle_margin_min"] == min(margins)

    def test_channel_oracle_min_is_empirical_minimum(self, capsys):
        code, out, _ = run(capsys, "channel-bound", "example3", "--format", "json",
                           "--oracle", "60", "--seed", "4")
        assert code == EXIT_OK
        pf = load_problem("example3")
        kraus = [K for ch in pf.channels.values() for K in ch.kraus]
        want = empirical_minimum(kraus, 0.5, 60, 4, tol=pf.params.tolerances)
        assert json.loads(out)["oracle_min"] == want

    @pytest.mark.parametrize("argv", [
        ("bound", "example1_spinhalf", "--s", "0.3", "--oracle", "25"),
        ("bound", "example2", "--oracle", "25"),
        ("channel-bound", "example3", "--oracle", "25"),
        ("bound", "example2", "--alpha-scan"),
    ])
    def test_oracle_builds_h_tot_once(self, capsys, monkeypatch, argv):
        calls = []
        for name in ("h_tot", "_h_tot_form"):  # the complex matrix, the real form
            def counted(*args, _name=name, _build=getattr(bounds, name), **kwargs):
                calls.append(_name)
                return _build(*args, **kwargs)

            monkeypatch.setattr(bounds, name, counted)
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_OK
        # the oracle reuses the spectrum's real form; the alpha scan builds
        # the real form again for the transpose pairing, and the plain
        # pairing's complex H_tot; a spin set is solved per weight class,
        # with no real form
        spin = argv[1] == "example1_spinhalf"
        assert calls == ([] if spin else ["_h_tot_form"]) + (
            ["_h_tot_form", "h_tot"] if "--alpha-scan" in argv else [])

    def test_oracle_one_bound_wyd_per_stack(self, capsys, monkeypatch):
        # one path for every s: the report's state rides as row 0 of the first
        # sample stack, and each stack gets one bound_wyd call, none per sample
        calls = []

        def counted(ops, rho, *args, _bound=bounds.bound_wyd, **kwargs):
            calls.append(len(rho) if isinstance(rho, DensityStack) else None)
            return _bound(ops, rho, *args, **kwargs)

        monkeypatch.setattr(bounds, "bound_wyd", counted)
        seed = load_problem("example1_spin1").params.seed
        for stack_bytes in (bounds._STACK_BYTES, 16 * 9 * 25):  # one stack, or 25 states each
            monkeypatch.setattr(bounds, "_STACK_BYTES", stack_bytes)
            calls.clear()
            code, _, _ = run(capsys, "bound", "example1_spin1", "--s", "0.3", "--oracle", "60")
            assert code == EXIT_OK
            sizes = [len(st) for st in bounds.sample_stacks(3, 60, seed)]
            assert calls == [sizes[0] + 1] + sizes[1:]
        calls.clear()
        assert run(capsys, "bound", "example1_spin1", "--s", "0.3")[0] == EXIT_OK
        assert calls == [1]

    ONE_PASS = [pytest.param(argv, n, id=f"{' '.join(argv)} --oracle {n}")
                for n in ("1", "20", "300")
                for argv in (("bound", "example2", "--s", "0.3"),
                             ("bound", "example1_spin1", "--s", "0.5"),
                             ("bound", "example4", "--s", "0.7"),
                             ("channel-bound", "example3"))]

    @pytest.mark.parametrize("argv, n", ONE_PASS)
    def test_reported_bound_is_that_without_oracle(self, capsys, monkeypatch, argv, n):
        # the report's state gets its bound in the first sample stack's one
        # bound evaluation, bit for bit the bound of the call without --oracle
        evaluations = []
        for name in ("_wyd_rows", "_half_weight"):  # bound_wyd's per chunk, bound_wy's
            monkeypatch.setattr(bounds, name, lambda *a, _f=getattr(bounds, name):
                                evaluations.append(1) or _f(*a))
        code, out, _ = run(capsys, *argv, "--format", "json", "--oracle", n, "--seed", "7")
        assert code == EXIT_OK
        assert len(evaluations) == 1
        alone = json.loads(run(capsys, *argv, "--format", "json")[1])
        with_oracle = json.loads(out)
        assert {k: with_oracle[k] for k in alone} == alone

    @pytest.mark.parametrize("argv, n", ONE_PASS)
    def test_oracle_fields_are_those_of_the_sampling_oracle(self, capsys, argv, n):
        # oracle_min and oracle_margin_min equal those of a direct loop over
        # bounds' sampling oracle and one stacked bound per stack
        code, out, _ = run(capsys, *argv, "--format", "json", "--oracle", n, "--seed", "7")
        assert code == EXIT_OK
        rep = json.loads(out)
        pf = load_problem(argv[1])
        s = float(argv[3]) if argv[0] == "bound" else 0.5
        ops = pf.operator_set(pooled=argv[0] == "channel-bound")
        lowest = margin = float("inf")
        for rhos, t in bounds._sampled_sums(ops, s, int(n), 7, tol=pf.params.tolerances):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sb = bounds.bound_wy(ops, rhos) if s == 0.5 else bounds.bound_wyd(ops, rhos, s)
            lowest = min(lowest, float(np.min(t)))
            margin = min(margin, float(np.min(t - sb.bound)))
        assert (rep["oracle_min"], rep["oracle_samples"], rep["oracle_margin_min"]) == (
            lowest, int(n), margin)

    @pytest.mark.parametrize("s", [1.5, float("nan")])
    def test_s_is_checked_before_any_sample(self, capsys, monkeypatch, tmp_path, s):
        # s = 1.5 or nan, as the flag or as params.s, fails as the bound's own
        # check, before the skew sums (whose mean order it would be), the alpha
        # scan and the draw (which fails here if reached)
        def draw(*args):
            raise AssertionError("drawn before s was checked")

        monkeypatch.setattr(bounds, "sample_stacks", draw)
        problem = json.loads(Path(cli._resolve_path("example1_spinhalf")).read_text())
        problem["params"] = {**problem.get("params", {}), "s": s}
        given = (("example1_spinhalf", "--s", str(s)), (write_json(tmp_path, "s.json", problem),))
        for head in given:
            for argv in (("--oracle", "5"), ("--oracle", "5", "--alpha-scan"), ()):
                code, out, err = run(capsys, "bound", *head, *argv)
                assert (code, out, err) == (
                    EXIT_VALIDATION, "", f"validation error: s must lie in (0, 1), got {s}\n")

    @pytest.mark.parametrize("oracle", [(), ("--oracle", "1"), ("--oracle", "30")])
    def test_warning_at_the_reported_state_only(self, capsys, monkeypatch, tmp_path, oracle):
        # I/d has no feasible reference state: its one warning is shown
        mixed = write_json(tmp_path, "mixed.json", {
            "rho": (np.eye(3) / 3).tolist(),
            "operators": {f"S{k}": [[[x.real, x.imag] for x in row] for row in M]
                          for k, M in enumerate(spin_ops(1))}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run(capsys, "bound", mixed, "--s", "0.3", "--format", "json", *oracle)
        assert code == EXIT_OK and json.loads(out)["bound"] == 0.0
        assert [w.category for w in caught] == [bounds.NoFeasibleChiWarning]
        # samples without a feasible reference state show none
        real = bounds.bound_wyd

        def samples_infeasible(ops, rho, s):
            sb = real(ops, rho, s)
            warnings.warn("some sample", bounds.NoFeasibleChiWarning)
            return replace(sb, feasible=sb.feasible & (np.arange(len(rho)) == 0))

        monkeypatch.setattr(bounds, "bound_wyd", samples_infeasible)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run(capsys, "bound", "example1_spin1", "--s", "0.3", *oracle)
        assert code == EXIT_OK and caught == []


    def test_oracle_nonhalf_s(self, capsys):
        code, out, _ = run(capsys, "bound", "example1_spinhalf", "--format", "json",
                           "--s", "0.3", "--oracle", "40", "--seed", "2")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["oracle_margin_min"] >= -1e-8


class TestFormats:
    @pytest.mark.parametrize("argv", [
        ("moments", "example4"),
        ("bound", "example2"),
        ("channel-bound", "example3"),
        ("witness", "singlet_witness"),
        ("weakvalue", "example1_spinhalf"),
        ("verify", "example1_spinhalf", "--suite", "qubit", "--seeds", "2"),
    ], ids=lambda argv: argv[0])
    def test_report_starts_with_command_and_version(self, capsys, argv):
        _, text, _ = run(capsys, *argv)
        assert text.splitlines()[:2] == [f"command = {argv[0]}", "report_version = 2"]
        _, rows, _ = run(capsys, *argv, "--format", "csv")
        assert rows.splitlines()[:3] == ["key,value", f"command,{argv[0]}", "report_version,2"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "bound", "example1_spinhalf", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("epsilon1,") for line in lines)

    def test_text(self, capsys):
        code, out, _ = run(capsys, "bound", "example1_spinhalf")
        assert code == EXIT_OK
        assert "epsilon1 = 1" in out

    def test_json_schema_stable(self, capsys):
        code, out, _ = run(capsys, "bound", "example1_spinhalf", "--format", "json")
        rep = json.loads(out)
        assert rep["report_version"] == 2
        assert set(rep) == {
            "command", "report_version", "s", "epsilon1",
            "epsilonK", "bound", "kernel_dim", "interval",
        }


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "example1_spinhalf",
                           "--suite", "all", "--seeds", "5", "--format", "json")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["pass"] is True
        assert set(rep["suites"]) == {"equalities", "qubit", "weakvalue"}
        assert rep["max_residual"] < 1e-8
        for suite, row in rep["suites"].items():
            assert row["max_residual"] == max(abs(r) for _, r in residuals(suite, 5))

    def test_non_finite_residual_fails(self, capsys, monkeypatch):
        rows = [("sum", np.array([0, 1]), np.array([1e-15, np.nan]))]
        monkeypatch.setattr(sweeps, "seed_residuals", lambda *args: iter(rows))
        code, out, _ = run(capsys, "verify", "example1_spinhalf", "--suite", "equalities",
                           "--seeds", "2", "--format", "json")
        assert code == EXIT_VIOLATION

        def constant(name):
            raise ValueError(f"{name} is not JSON")

        rep = json.loads(out, parse_constant=constant)
        assert rep["pass"] is False and rep["max_residual"] is None
        assert rep["suites"]["equalities"] == {"max_residual": None, "worst_case": "sum seed=1"}

    @pytest.mark.parametrize("suite, module, name, dim", [
        # equalities' skew informations are sums over the sandwiches it forms
        # itself, with the gaps of one call per identity
        pytest.param("equalities", equalities, "_wyd_gaps", lambda eigs, s: eigs.shape[-1],
                     id="equalities"),
        pytest.param("qubit", moments, "_skew_kernel", lambda A, rho, G: rho.dim, id="qubit"),
        pytest.param("weakvalue", moments, "_skew_kernel", lambda A, rho, G: rho.dim,
                     id="weakvalue"),
    ])
    def test_one_evaluation_per_dimension_group(self, capsys, monkeypatch, suite, module,
                                                name, dim):
        # the cases of one dimension share each skew evaluation: the count
        # follows the dimension groups, not the seeds
        calls = []

        def counted(*args, _real=getattr(module, name)):
            calls.append(dim(*args))
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
        offset, draw, build, _ = sweeps.SUITES[suite]
        per_group = []
        for seeds in (4, 40):
            calls.clear()
            code, _, _ = run(capsys, "verify", "example1_spinhalf", "--suite", suite,
                             "--seeds", str(seeds))
            assert code == EXIT_OK
            dims = {build(*zip(draw(np.random.default_rng(offset + k))))[0].shape[-1]
                    for k in range(seeds)}
            assert set(calls) == dims
            per_group.append(len(calls) / len(dims))
        assert per_group[0] == per_group[1] > 0


class TestCommandPreconditions:
    def test_moments_without_rho(self, capsys, tmp_path):
        path = write_json(tmp_path, "norho.json",
                          {"version": 1, "operators": {"Z": [[1, 0], [0, -1]]}})
        code, _, err = run(capsys, "moments", path)
        assert code == EXIT_PARSE

    def test_bound_without_operators(self, capsys, tmp_path):
        path = write_json(tmp_path, "noops.json",
                          {"version": 1, "rho": [[0.5, 0], [0, 0.5]]})
        code, _, err = run(capsys, "bound", path)
        assert code == EXIT_PARSE

    def test_witness_unknown_operator_name(self, capsys, tmp_path):
        path = write_json(tmp_path, "w.json", {
            "version": 1,
            "rho": [[0.25, 0, 0, 0], [0, 0.25, 0, 0],
                    [0, 0, 0.25, 0], [0, 0, 0, 0.25]],
            "operators": {"Sz": [[0.5, 0], [0, -0.5]]},
            "params": {"ops_a": ["Sz"], "ops_b": ["missing"]},
        })
        code, _, err = run(capsys, "witness", path)
        assert code == EXIT_PARSE
        assert "missing" in err

    @pytest.mark.parametrize("dims, code", [
        (None, EXIT_OK),
        ([2, 2], EXIT_OK),
        ([5, 7], EXIT_VALIDATION),  # neither the state nor the sides
        ([4, 1], EXIT_VALIDATION),  # the state's dimension, not the sides'
        ([2, 3], EXIT_VALIDATION),  # side A's dimension, not side B's or the state's
    ], ids=str)
    def test_witness_checks_dims(self, capsys, tmp_path, dims, code):
        obj = json.loads(Path(cli._resolve_path("singlet_witness")).read_text())
        obj["params"].pop("dims")
        if dims is not None:
            obj["params"]["dims"] = dims
        got, _, err = run(capsys, "witness", write_json(tmp_path, "w.json", obj))
        assert got == code
        assert ("params.dims" in err) == (code == EXIT_VALIDATION)

    def test_incomplete_channel_is_validation_error(self, capsys, tmp_path):
        path = write_json(tmp_path, "ch.json", {
            "version": 1,
            "rho": [[0.5, 0], [0, 0.5]],
            "channels": {"bad": [[[0.5, 0], [0, 0.5]]]},
        })
        code, _, err = run(capsys, "channel-bound", path)
        assert code == EXIT_VALIDATION


class TestFlagsOverFileParams:
    # every params field away from its default, so that no flag can pass for the file
    FILE = {
        "version": 1,
        "rho": {"bloch": [0.1, 0.0, 0.2]},
        "operators": {"X": [[0, 1], [1, 0]], "Z": [[1, 0], [0, -1]]},
        "channels": {"amp": [[[1, 0], [0, 0.8]], [[0, 0.6], [0, 0]]]},
        "params": {"s": 0.3, "nu": [0, -1], "seed": 5, "dims": [1, 2],
                   "ops_a": ["X"], "ops_b": ["Z"], "tolerances": {"tol_residual": 1e-7}},
    }

    def test_file_sets_every_param(self, tmp_path):
        params = load_problem(write_json(tmp_path, "full.json", self.FILE)).params
        assert all(getattr(params, f.name) != getattr(cli.Params(), f.name)
                   for f in fields(cli.Params))

    @pytest.mark.parametrize("argv, changed", [pytest.param(*case, id=case[0]) for case in (
        ("moments", {}),
        ("moments --s 0.7", {"s": 0.7}),
        ("moments --s 0", {"s": 0.0}),
        ("moments --nu 0,-inf", {"nu": [0.0, float("-inf")]}),
        ("bound", {}),
        ("bound --s 0.5", {"s": 0.5}),
        ("bound --seed 0", {"seed": 0}),
        ("bound --seed 7", {"seed": 7}),
        ("bound --s 0.2 --seed 0", {"s": 0.2, "seed": 0}),
        ("channel-bound", {}),
        ("channel-bound --seed 0", {"seed": 0}),
        ("witness", {}),
        ("weakvalue", {}),
        ("weakvalue --s 0.5", {"s": 0.5}),
        ("verify", {}),
    )])
    def test_command_sees_the_file_params_under_its_flags(self, capsys, monkeypatch, tmp_path,
                                                          argv, changed):
        path = write_json(tmp_path, "full.json", self.FILE)
        seen = []

        def command(pf, args):
            seen.append(pf.params)
            return EXIT_OK, {}

        name, *flags = argv.split()
        monkeypatch.setitem(cli._DISPATCH, name, command)
        code, _, err = run(capsys, name, path, *flags)
        assert code == EXIT_OK, err
        assert seen == [replace(load_problem(path).params, **changed)]

    def test_seed_zero_reaches_the_oracle(self, capsys, tmp_path):
        path = write_json(tmp_path, "full.json", self.FILE)
        absent, five, zero = (run(capsys, "bound", path, "--oracle", "20", *seed)
                              for seed in ((), ("--seed", "5"), ("--seed", "0")))
        assert absent == five != zero


class TestParserFuzz:
    def test_garbage_inputs_raise_parse_errors(self, tmp_path):
        from skewbound.cli import ParseError, load_problem

        cases = [
            [],                                   # top level not an object
            {"version": 1, "rho": 42},            # rho neither matrix nor bloch
            {"version": 1, "rho": {"bloch": [1, 2]}},
            {"version": 1, "rho": [[0.5, 0], [0, 0.5]], "operators": []},
            {"version": 1, "channels": {"c": "nope"}},
            {"version": 1, "params": {"nu": "0,-1"}},
            {"version": 1, "params": {"bogus": 1}},
            {"version": 1, "params": {"tolerances": {"tol_bogus": 1}}},
            {"version": 1, "operators": {"A": [[0, 1], [1, 0], [0, 0]]}},
        ]
        for k, obj in enumerate(cases):
            p = tmp_path / f"fuzz{k}.json"
            p.write_text(json.dumps(obj))
            with pytest.raises(ParseError):
                load_problem(str(p))
