import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from skewbound import (
    DensityStack, bounds, cli, empirical_minimum, moments, sweeps, weakvalue, wyd_skew)
from skewbound.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    EXIT_VIOLATION,
    _fmt,
    load_problem,
    main,
)
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
        ("channel-bound", "example3", "--oracle", "-1"),
        ("bound", "example2", "--alpha-scan", "--grid", "-5"),
        ("witness", "singlet_witness", "--grid", "-5"),
    ], ids=" ".join)
    def test_bad_count_flag_is_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_PARSE
        assert "must be at least" in capsys.readouterr().err

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
        {"params": {"grid_points": "many"}},
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
        path = self.problem(tmp_path)
        for _ in range(2):  # the miss's result, then a hit's
            pf = load_problem(path)
            pf.rho.matrix[0, 0] = pf.rho.eigenvalues[0] = 9
            pf.operators["A"][0, 0] = 9
            pf.operators["B"] = np.eye(2)
            pf.params.s = 0.1
            pf.params.nu.append(2.0)
        pf = load_problem(path)
        assert pf.rho.matrix[0, 0] == 0.25 and pf.rho.eigenvalues[0] == 0.25
        assert pf.operators["A"][0, 0] == 0 and set(pf.operators) == {"A"}
        assert (pf.params.s, pf.params.nu) == (0.5, [-1.0])

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
        assert rep["epsilon1"] == pytest.approx(2.32339, abs=1e-4)
        assert rep["bound"] == pytest.approx(1.5489, abs=1e-3)
        assert rep["alpha_scan"] <= 1.5489 + 1e-6

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
        for rho in bounds.sample_states(3, 60, 4):
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
        # one path for every s: the report's state and each sample stack get
        # one bound_wyd call each, none per sample
        calls = []

        def counted(ops, rho, *args, _bound=bounds.bound_wyd, **kwargs):
            calls.append(len(rho) if isinstance(rho, DensityStack) else None)
            return _bound(ops, rho, *args, **kwargs)

        monkeypatch.setattr(bounds, "bound_wyd", counted)
        code, _, _ = run(capsys, "bound", "example1_spin1", "--s", "0.3", "--oracle", "60")
        assert code == EXIT_OK
        seed = load_problem("example1_spin1").params.seed
        assert calls == [None] + [len(st) for st in bounds.sample_stacks(3, 60, seed)]

    def test_oracle_nonhalf_s(self, capsys):
        code, out, _ = run(capsys, "bound", "example1_spinhalf", "--format", "json",
                           "--s", "0.3", "--oracle", "40", "--seed", "2")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["oracle_margin_min"] >= -1e-8


class TestFormats:
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

    @pytest.mark.parametrize("suite", ["equalities", "qubit", "weakvalue"])
    def test_one_evaluation_per_dimension_group(self, capsys, monkeypatch, suite):
        # the cases of one dimension share each skew kernel call: the count
        # follows the dimension groups, not the seeds
        calls = []

        def counted(*args, _kernel=moments._skew_kernel):
            calls.append(args[2].dim)
            return _kernel(*args)

        monkeypatch.setattr(moments, "_skew_kernel", counted)
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

    def test_incomplete_channel_is_validation_error(self, capsys, tmp_path):
        path = write_json(tmp_path, "ch.json", {
            "version": 1,
            "rho": [[0.5, 0], [0, 0.5]],
            "channels": {"bad": [[[0.5, 0], [0, 0.5]]]},
        })
        code, _, err = run(capsys, "channel-bound", path)
        assert code == EXIT_VALIDATION


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
