"""Command-line contract tests.

The CLI is exercised in process through main(argv); one subprocess run checks
the installed console script.  Format contracts (CSV header, JSON field set,
exit codes, determinism outside timing lines) are asserted byte for byte;
wall-clock values themselves are never asserted."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fem_errbal import cli, prediction
from fem_errbal.cli import (
    ConfigError,
    _parse_config_file,
    _parse_degrees,
    _parse_streak,
    _parse_variables,
    main,
)
from fem_errbal.error_analysis import host_dof_count
from fem_errbal.problem import CATALOG_NAMES

_JSON_FIELDS = [
    "problem",
    "fem",
    "p",
    "var",
    "N_c",
    "E_c",
    "alpha_T",
    "beta_T",
    "alpha_R",
    "beta_R",
    "N_opt_real",
    "N_opt_mesh",
    "E_min",
    "reachable",
    "status",
    "refinements_used",
]


class TestOptionParsing:
    def test_degree_specs(self):
        assert _parse_degrees("2") == (2,)
        assert _parse_degrees("1,3") == (1, 3)
        assert _parse_degrees("1..5") == (1, 2, 3, 4, 5)
        assert _parse_degrees("1,3..5") == (1, 3, 4, 5)
        assert _parse_degrees("2,2") == (2,)

    def test_degree_spec_errors(self):
        for bad in ("", "0", "a", "2..x", "21", "1..21", "25..30"):
            with pytest.raises(ConfigError):
                _parse_degrees(bad)

    @pytest.mark.parametrize("spec", ["2,5..1", "5..1"])
    def test_reversed_degree_range_is_refused(self, spec, tmp_path, capsys):
        # a reversed range is an error of its own, never an empty range that
        # the other tokens hide or that reads as an empty degree set
        code = main(["predict", "--problem", "bench-poisson", "--p", spec,
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: degree range '5..1' runs backwards\n"
        assert not list(tmp_path.iterdir())

    def test_variable_lists_are_canonically_ordered(self):
        assert _parse_variables("u,uxx") == ("u", "uxx")
        assert _parse_variables("uxx,ux,u") == ("u", "ux", "uxx")
        with pytest.raises(ConfigError, match="unknown variable"):
            _parse_variables("u,flux")

    def test_rise_streak_accepts_none(self):
        assert _parse_streak("none") is None
        assert _parse_streak("4") == 4
        with pytest.raises(ConfigError):
            _parse_streak("0")

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nproblem = bench-poisson\nn-max=500  # inline\n\n")
        assert _parse_config_file(str(path)) == {"problem": "bench-poisson", "n_max": "500"}
        path.write_text("just a line\n")
        with pytest.raises(ConfigError, match="expected key=value"):
            _parse_config_file(str(path))
        with pytest.raises(ConfigError, match="cannot read"):
            _parse_config_file(str(tmp_path / "absent.cfg"))


class TestSweep:
    def test_csv_format_and_minimum_summary(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "--problem", "bench-poisson", "--p", "2", "--var", "u",
                "--n-max", "2000", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "minimum E=" in out and "wrote 1 file(s)" in out
        raw = (tmp_path / "sweep_bench-poisson_standard_p2_u.csv").read_bytes()
        assert b"\r" not in raw  # LF line endings
        lines = raw.decode().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert any("estimator=exact" in ln for ln in meta)
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == "REF,N_h,E_h,rate"
        first = body[1].split(",")
        assert first[0] == "0" and float(first[1]) > 0

    def test_refined_estimator_used_without_closed_form(self, tmp_path):
        code = main(
            [
                "sweep", "--problem", "validation-helmholtz", "--fem", "mixed",
                "--p", "4", "--var", "u", "--n-max", "500", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        text = (tmp_path / "sweep_validation-helmholtz_mixed_p4_u.csv").read_text()
        assert "# estimator=refined" in text

    def test_cg_levels_without_free_unknowns_match_lu(self, tmp_path):
        # p=1 level 0 has no free unknown and level 1 has one; CG must not
        # trip over them and gives LU's rows bit for bit
        rows = {}
        for solver in ("lu", "cg"):
            out = tmp_path / solver
            code = main(
                [
                    "sweep", "--problem", "bench-poisson", "--p", "1", "--var", "u",
                    "--solver", solver, "--n-max", "1000", "--out-dir", str(out),
                ]
            )
            assert code == 0
            text = (out / "sweep_bench-poisson_standard_p1_u.csv").read_text()
            rows[solver] = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert rows["cg"][:3] == rows["lu"][:3]  # header, level 0, level 1

    def test_unknown_problem_lists_catalog(self, tmp_path, capsys):
        code = main(["sweep", "--problem", "no-such", "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        for name in CATALOG_NAMES:
            assert name in err

    def test_reruns_are_byte_identical(self, tmp_path):
        argv = [
            "sweep", "--problem", "bench-poisson", "--p", "2", "--var", "u",
            "--n-max", "2000", "--out-dir",
        ]
        assert main(argv + [str(tmp_path / "a")]) == 0
        assert main(argv + [str(tmp_path / "b")]) == 0
        name = "sweep_bench-poisson_standard_p2_u.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestPredict:
    def test_json_fields_and_table(self, tmp_path, capsys):
        code = main(
            [
                "predict", "--problem", "bench-poisson", "--p", "2", "--var", "u",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert "E_min" in capsys.readouterr().out
        payload = json.loads((tmp_path / "predict_bench-poisson_standard.json").read_text())
        assert len(payload) == 1
        entry = payload[0]
        assert list(entry.keys()) == _JSON_FIELDS
        assert entry["fem"] == "standard"
        assert entry["status"] == "converged"
        assert entry["reachable"] is None  # no --tol given
        assert entry["beta_T"] == 3.0 and entry["beta_R"] == 2.0
        assert entry["alpha_R"] == 2e-17
        assert 0 < entry["E_min"] < 1e-8

    def test_reachable_verdict_follows_tolerance(self, tmp_path):
        argv = [
            "predict", "--problem", "bench-poisson", "--p", "2", "--var", "u",
            "--json", str(tmp_path / "out.json"), "--tol",
        ]
        assert main(argv + ["1e-6"]) == 0
        assert json.loads((tmp_path / "out.json").read_text())[0]["reachable"] is True
        assert main(argv + ["1e-14"]) == 0
        assert json.loads((tmp_path / "out.json").read_text())[0]["reachable"] is False
        # the config key is the flag name
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol=1e-6\n")
        assert main(argv[:-1] + ["--config", str(cfg)]) == 0
        assert json.loads((tmp_path / "out.json").read_text())[0]["reachable"] is True

    def test_reachable_flag_without_model(self, tmp_path, capsys):
        # no model fit: the verdict compares the best observed error with --tol
        code = main(["predict", "--problem", "case5", "--coefficient", "1", "--p", "1",
                     "--var", "u", "--tol", "1e-9", "--json", str(tmp_path / "out.json")])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[2].split()
        assert row[2] == "round-off_before_asymptote" and row[-1] == "yes"
        entry = json.loads((tmp_path / "out.json").read_text())[0]
        assert entry["status"] == "round-off_before_asymptote"
        assert entry["reachable"] is True

    def test_product_expansion_skips_unavailable(self, tmp_path, capsys):
        code = main(
            [
                "predict", "--problem", "bench-poisson", "--p", "1..2",
                "--var", "u,uxx", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert "not defined for standard p=1" in capsys.readouterr().err
        payload = json.loads((tmp_path / "predict_bench-poisson_standard.json").read_text())
        assert [(e["p"], e["var"]) for e in payload] == [(1, "u"), (2, "u"), (2, "uxx")]

    def test_nothing_runnable_is_a_config_error(self, tmp_path, capsys):
        code = main(
            [
                "predict", "--problem", "bench-poisson", "--p", "1", "--var", "uxx",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "no runnable" in capsys.readouterr().err


class TestValidate:
    def test_report_layout(self, tmp_path, capsys):
        code = main(
            [
                "validate", "--problem", "bench-poisson", "--p", "2,3", "--var", "u",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "t_pred" in out and "saved" in out
        lines = (tmp_path / "validate_bench-poisson_standard.csv").read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "fem,p,var,status,E_min_pred,N_opt_mesh,E_min_bf,N_opt_bf"
        rows = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(rows) == 2
        timing = [ln for ln in lines if ln.startswith("# timing")]
        assert len(timing) == 2
        assert all("PRED+" in ln and "BF" in ln and "saved" in ln for ln in timing)

    def test_deterministic_outside_timing_lines(self, tmp_path):
        argv = [
            "validate", "--problem", "bench-poisson", "--p", "2", "--var", "u",
            "--out-dir",
        ]
        assert main(argv + [str(tmp_path / "a")]) == 0
        assert main(argv + [str(tmp_path / "b")]) == 0
        name = "validate_bench-poisson_standard.csv"

        def stable(path):
            return [ln for ln in path.read_text().splitlines() if not ln.startswith("# timing")]

        assert stable(tmp_path / "a" / name) == stable(tmp_path / "b" / name)

    def test_optimal_mesh_beyond_the_cap_is_not_solved(self, tmp_path, capsys, monkeypatch):
        levels = []
        original = prediction.solve_level

        def recording_solve_level(*args, **kwargs):
            levels.append(args[3])
            return original(*args, **kwargs)

        # prediction and brute force solve through the first, PRED+ through the second
        monkeypatch.setattr(prediction, "solve_level", recording_solve_level)
        monkeypatch.setattr(cli, "solve_level", recording_solve_level)
        code = main(["validate", "--problem", "bench-poisson", "--fem", "mixed", "--p", "1",
                     "--var", "u", "--n-max", "1000", "--out-dir", str(tmp_path)])
        assert code == 0
        # brute force stops on the first level that reaches the cap
        cap_level = next(level for level in range(40)
                         if host_dof_count("mixed", "u", 1, 1 << level, False) >= 1000)
        assert levels and max(levels) <= cap_level
        lines = (tmp_path / "validate_bench-poisson_mixed.csv").read_text().splitlines()
        (row,) = [ln for ln in lines if ln.startswith("mixed,")]
        assert int(row.split(",")[5]) > 1000  # the predicted N_opt_mesh
        (timing,) = [ln for ln in lines if ln.startswith("# timing")]
        assert " PRED+ nan " in timing and timing.endswith(" saved nan")
        (shown,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("  1 u ")]
        t_pred, t_plus, t_bf, saved = shown.split()[-4:]
        assert t_plus == saved == "nan" and t_pred.endswith("s") and t_bf.endswith("s")


class TestCalibrate:
    def test_solver_suite_files(self, tmp_path, capsys):
        code = main(
            [
                "calibrate", "--suite", "solver", "--var", "u", "--n-max", "4000",
                "--rise-streak", "3", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "configurations=3" in out
        assert "alpha_R_hat" in out  # the loose-tolerance run fits a floor
        for name in (
            "solver-lu_standard_2_u.csv",
            "solver-cg-1e-10_standard_2_u.csv",
            "solver-cg-1e-04_standard_2_u.csv",
        ):
            assert (tmp_path / name).exists()

    def test_magnitude_writes_one_file_per_coefficient(self, tmp_path):
        code = main(
            [
                "calibrate", "--suite", "magnitude", "--case", "1", "--scheme", "S",
                "--var", "u", "--n-max", "3000", "--rise-streak", "3",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("magnitude-case1-*.csv"))
        assert len(files) == 5
        assert all(name.endswith("-S_standard_2_u.csv") for name in files)

    def test_rise_streak_none_walks_to_the_cap(self, tmp_path):
        # the solver suite stops on a streak of 4 unless told 'none'
        last = {}
        for streak in ("none", "4"):
            out = tmp_path / streak
            code = main(
                [
                    "calibrate", "--suite", "solver", "--var", "u", "--tol-prm", "1e-4",
                    "--n-max", "20000", "--rise-streak", streak, "--out-dir", str(out),
                ]
            )
            assert code == 0
            text = (out / "solver-cg-1e-04_standard_2_u.csv").read_text()
            last[streak] = int(text.splitlines()[-1].split(",")[1])
        assert last["none"] >= 20000
        assert last["4"] < last["none"]

    def test_an_option_the_suite_does_not_read_is_exit_two(self, tmp_path, capsys):
        code = main(["calibrate", "--suite", "solver", "--fem", "mixed", "--scheme", "M2",
                     "--case", "3", "--var", "u", "--n-max", "300",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the solver suite does not read case, flavor (--fem), scheme\n")
        assert list(tmp_path.iterdir()) == []

    def test_suite_is_required_and_validated(self, tmp_path, capsys):
        assert main(["calibrate", "--out-dir", str(tmp_path)]) == 2
        assert "--suite is required" in capsys.readouterr().err
        assert main(["calibrate", "--suite", "weather", "--out-dir", str(tmp_path)]) == 2


class TestConfigFileMerge:
    def test_flags_override_file_entries(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=bench-poisson\ndegrees=2\nvariables=u\nn-max=1000\n")
        code = main(
            ["sweep", "--config", str(cfg), "--n-max", "500", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        body = [
            ln
            for ln in (tmp_path / "sweep_bench-poisson_standard_p2_u.csv")
            .read_text()
            .splitlines()
            if not ln.startswith("#")
        ]
        # the flag cap (500) wins over the file cap (1000)
        assert body[-1].split(",")[1] == "513"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        # config and subcommand are parser bookkeeping, not options
        for key in ("mesh_flavor", "config", "subcommand"):
            cfg.write_text(f"problem=bench-poisson\n{key}=exotic\n")
            assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
            assert f"unknown config key(s): {key}" in capsys.readouterr().err

    def test_validate_takes_no_tolerance(self, tmp_path, capsys):
        # validate prints no verdict, so it has no --tol to set, and the flag
        # is not taken as an abbreviation of --tol-prm
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--problem", "bench-poisson", "--tol", "1e-9",
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        for key in ("tol_var", "tol"):
            cfg.write_text(f"problem=bench-poisson\n{key}=1e-9\n")
            assert main(["validate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
            assert capsys.readouterr().err == f"error: unknown config key(s): {key}\n"

    def test_bad_file_value_is_checked_unless_a_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=bench-poisson\ndegrees=2\nvariables=u\nn_max=abc\n")
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: --n-max expects an integer, got 'abc'\n"
        # with the flag given, the file value is never converted
        code = main(
            ["sweep", "--config", str(cfg), "--n-max", "600", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "sweep_bench-poisson_standard_p2_u.csv").read_text().splitlines()
        # the 600 cap stops the sweep at the first level above it
        assert lines[-1].split(",")[1] == "1025"

    def test_calibrate_reads_its_own_keys(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite=solver\nvariables=u\nn_max=3000\nrise_streak=3\n")
        assert main(["calibrate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert "configurations=3" in capsys.readouterr().out
        for name in (
            "solver-lu_standard_2_u.csv",
            "solver-cg-1e-10_standard_2_u.csv",
            "solver-cg-1e-04_standard_2_u.csv",
        ):
            assert (tmp_path / name).exists()


class TestExitCodes:
    def test_numerical_failure_is_exit_three(self, tmp_path, capsys):
        code = main(
            [
                "predict", "--problem", "bench-poisson", "--p", "2", "--var", "u",
                "--n-max", "50", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_linalg_error_is_exit_three(self, tmp_path, capsys, monkeypatch):
        # np.linalg.LinAlgError subclasses ValueError, yet it is a numerical
        # failure, not a configuration error
        def failing_calibration(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(cli, "sensitivity_suite", failing_calibration)
        code = main(["calibrate", "--suite", "solver", "--out-dir", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: SVD did not converge in Linear Least Squares\n")

    @pytest.mark.parametrize("subcommand", ["sweep", "predict"])
    def test_cg_on_a_complex_problem_is_exit_two(self, tmp_path, capsys, subcommand):
        code = main([subcommand, "--problem", "bench-helmholtz", "--fem", "standard", "--p", "2",
                     "--solver", "cg", "--n-max", "20000", "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: CG needs a real system; use the lu solver for complex problems\n")

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["deploy"])
        assert exc.value.code == 2

    def test_missing_coefficient_is_exit_two(self, tmp_path, capsys):
        code = main(["sweep", "--problem", "case1", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "coefficient" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["sweep", "predict", "validate"])
    @pytest.mark.parametrize("coefficient, shown", [("nan", "nan"), ("inf", "inf"),
                                                    ("1e400", "inf"), ("-inf", "-inf")])
    def test_non_finite_coefficient_is_exit_two(self, tmp_path, capsys, monkeypatch,
                                                subcommand, coefficient, shown):
        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved before the coefficient was checked")

        monkeypatch.setattr(prediction, "solve_level", no_solve)
        code = main([subcommand, "--problem", "case1", f"--coefficient={coefficient}",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: case1 coefficient must be positive and finite, got {shown}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("subcommand", ["sweep", "predict", "validate"])
    @pytest.mark.parametrize("coefficient, shown", [("-inf", "-inf"), ("-1e400", "-inf"),
                                                    ("-nan", "nan")])
    def test_signed_coefficient_as_a_separate_argument_is_exit_two(
            self, tmp_path, capsys, monkeypatch, subcommand, coefficient, shown):
        # '--coefficient -inf' is not argparse's usage error: the value
        # reaches the coefficient check as it does in the '=' form
        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved before the coefficient was checked")

        monkeypatch.setattr(prediction, "solve_level", no_solve)
        code = main([subcommand, "--problem", "case1", "--coefficient", coefficient,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: case1 coefficient must be positive and finite, got {shown}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option, subcommand", [("--tol", "predict"), ("--tol-prm", "sweep"),
                                                    ("--tol-prm", "predict")])
    @pytest.mark.parametrize("value, shown", [("-inf", "-inf"), ("-1e400", "-inf"),
                                              ("-nan", "nan"), ("-1e-9", "-1e-09")])
    def test_signed_tolerance_as_a_separate_argument_is_exit_two(
            self, tmp_path, capsys, option, subcommand, value, shown):
        code = main([subcommand, "--problem", "bench-poisson", option, value,
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {option} must be positive and finite, got {shown}\n")
        assert list(tmp_path.iterdir()) == []

    def test_option_without_its_value_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--problem", "bench-poisson", "--tol", "--p", "2"])
        assert exc.value.code == 2
        assert "argument --tol: expected one argument" in capsys.readouterr().err

    def test_scheme_that_misfits_the_formulation_solves_nothing(self, tmp_path, capsys,
                                                                monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a level was solved before the scheme was checked")

        monkeypatch.setattr(prediction, "solve_level", no_solve)
        # no closed form: the frame norm would need a ladder of unscaled solves
        code = main(["sweep", "--problem", "validation-helmholtz", "--fem", "mixed",
                     "--scheme", "S", "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: scheme S applies to the standard formulation\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("subcommand", ["sweep", "predict", "validate", "calibrate"])
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_non_positive_cap_is_exit_two(self, tmp_path, capsys, subcommand, cap):
        problem = ["--suite", "solver"] if subcommand == "calibrate" else [
            "--problem", "bench-poisson"]
        code = main([subcommand, *problem, "--n-max", cap, "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --n-max must be positive, got {cap}\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_positive_cap_in_a_config_file_is_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=bench-poisson\nn_max=0\n")
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: --n-max must be positive, got 0\n"

    @pytest.mark.parametrize("subcommand", ["sweep", "predict", "validate"])
    @pytest.mark.parametrize("tol, shown", [("-1", "-1"), ("0", "0"), ("inf", "inf"),
                                            ("nan", "nan")])
    def test_bad_solver_tolerance_is_exit_two(self, tmp_path, capsys, subcommand, tol, shown):
        code = main([subcommand, "--problem", "bench-poisson", "--solver", "cg",
                     "--tol-prm", tol, "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --tol-prm must be positive and finite, got {shown}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tolerances", ["1e-10,-1", "0", "1e-4,nan", "inf,1e-4"])
    def test_bad_calibration_tolerance_is_exit_two(self, tmp_path, capsys, tolerances):
        code = main(["calibrate", "--suite", "solver", "--tol-prm", tolerances,
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error: --tol-prm must be positive and finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def _distribution_installed(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


class TestConsoleScript:
    # the console script exists only once the package is pip-installed; an
    # installed package with a missing or broken script still fails here
    @pytest.mark.skipif(
        not _distribution_installed("fem-errbal"),
        reason="fem-errbal is not pip-installed, so no console script was generated",
    )
    def test_entry_point_installed_and_runs(self):
        exe = shutil.which("fem-errbal")
        assert exe is not None
        proc = subprocess.run(
            [exe, "catalog"], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0
        for name in CATALOG_NAMES:
            assert name in proc.stdout

    def test_module_invocation(self):
        # the child imports the package this process imported, installed or not
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run(
            [sys.executable, "-m", "fem_errbal.cli", "catalog"],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0
        assert "bench-poisson" in proc.stdout
