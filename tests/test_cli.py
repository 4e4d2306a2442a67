import json

import numpy as np
import pytest

from skewbound import bounds, empirical_minimum, wyd_skew
from skewbound.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    EXIT_VIOLATION,
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

    def test_bad_env_tolerance_is_2(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEWBOUND_TOL", "not-a-float")
        code, _, err = run(capsys, "moments", "example4")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("fields", [
        {"version": "x"},
        {"params": {"s": "half"}},
        {"params": {"grid_points": "many"}},
        {"params": {"samples": None}},
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
            sb = (bounds.bound_wy(ops, rho, tol) if s == "0.5"
                  else bounds.bound_wyd(ops, rho, float(s), tol=tol))
            margins.append(total - sb.bound)
        assert rep["oracle_margin_min"] == min(margins)

    def test_channel_oracle_min_is_empirical_minimum(self, capsys):
        code, out, _ = run(capsys, "channel-bound", "example3", "--format", "json",
                           "--oracle", "60", "--seed", "4")
        assert code == EXIT_OK
        pf = load_problem("example3")
        kraus = [K for ch in pf.channels.values() for K in ch.kraus]
        want = empirical_minimum(kraus, 0.5, 60, 4, tol=pf.params.tolerances)
        assert json.loads(out)["oracle_min"] == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("argv", [
        ("bound", "example1_spinhalf", "--s", "0.3", "--oracle", "25"),
        ("bound", "example2", "--oracle", "25"),
        ("channel-bound", "example3", "--oracle", "25"),
        ("bound", "example2", "--alpha-scan"),
    ])
    def test_oracle_builds_h_tot_once(self, capsys, monkeypatch, argv):
        calls = []
        real = bounds.h_tot

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(bounds, "h_tot", counted)
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_OK
        # the alpha scan reuses the set's H_tot and adds only the plain pairing
        assert len(calls) == (2 if "--alpha-scan" in argv else 1)

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
