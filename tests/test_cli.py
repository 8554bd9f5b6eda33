import errno
import gc
import inspect
import json
import os
import pickle
import re
import shlex
import signal
import stat
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_sharp import (BracketError, ConvergenceError, ProblemParams, SolverConfig, cli,
                            fitting, graded_mesh, green_q_norm_profile, leading_eigenpairs,
                            operators, predict_mu, synthetic_k5)
from nonlocal_sharp.cli import STUDY_COLUMNS, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(tmp_path, cases, **extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"cases": cases, "out_dir": str(tmp_path), **extra}))
    return str(path)


SMALL_CASE = {"backend": "synthetic", "s": 0.2, "gamma": 1.0, "p": 0.5,
              "n": 64, "beta_g": 3.0, "tol": 1e-8}

# uniform meshes too coarse for their fit window: fewer than 10 nodes are
# left, or the critical window stops short of delta = 1e-3
UNFILLABLE_FIT_WINDOWS = [
    {"backend": "synthetic", "s": 0.2, "gamma": 1.0, "p": 0.5, "n": 8, "beta_g": 1.0},
    {"backend": "synthetic", "s": 0.25, "gamma": 1.0, "p": 0.5, "n": 64, "beta_g": 1.0,
     "force_critical": True},
    {"backend": "synthetic", "s": 0.25, "gamma": 1.0, "p": 0.5, "n": 2000, "beta_g": 1.0,
     "force_critical": True},
]
UNFILLABLE_IDS = ["n8", "critical-n64", "critical-n2000"]
# fills its fit window, but no node lies in the Harnack ball |x - 1/2| <= 0.1
EMPTY_HARNACK_BALL = {"backend": "synthetic", "s": 0.2, "gamma": 1.0, "p": 0.5, "n": 40,
                      "beta_g": 11.0}
ROOT = Path(__file__).resolve().parent.parent


def record_solves(monkeypatch):
    """Route cli.picard_solve through a spy and return the list of its calls."""
    calls, solve = [], cli.picard_solve

    def spy(op, config):
        calls.append(config)
        return solve(op, config)
    monkeypatch.setattr(cli, "picard_solve", spy)
    return calls


def assemble_all_but_s_03(kernel, grid):
    """cli.assemble with no room for the s = 0.3 operator; at module level, so it pickles."""
    if kernel.params.s == 0.3:
        raise MemoryError("no room")
    return operators.assemble(kernel, grid)


GROUP_OUTCOMES, RUN = cli._group_outcomes, cli._run


def log_group_outcomes(path, task):
    """cli._group_outcomes, after appending the group's s to the file at path in one write."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        os.write(fd, f"{task[0].params.s!r}\n".encode())
    finally:
        os.close(fd)
    return GROUP_OUTCOMES(task)


def run_with_unpicklable_row(case, op):
    """cli._run, but the s = 0.3 row holds a lambda, which its worker cannot pickle."""
    row, sol = RUN(case, op)
    return ({**row, "f": lambda: None} if case.params.s == 0.3 else row), sol


def write_to_a_broken_pipe(fd, data):
    """os.write as if no process held the pipe's read end."""
    raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def spy_fork_map(monkeypatch):
    """Record each cli._fork_map call's (tasks, jobs), and the pid of each worker it forks."""
    calls, forks, fork_map, fork = [], [], cli._fork_map, os.fork

    def spy(fn, tasks, jobs):
        calls.append((tasks, jobs))
        return fork_map(fn, tasks, jobs)

    def fork_spy():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid
    monkeypatch.setattr(cli, "_fork_map", spy)
    monkeypatch.setattr(os, "fork", fork_spy)
    return calls, forks


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def study_rows(capsys, tmp_path, cases, *flags):
    """The data rows of study.csv for these cases."""
    assert main(["study", "--config", write_config(tmp_path, cases), *flags]) == 0
    capsys.readouterr()
    return (tmp_path / "study.csv").read_text().splitlines()[1:]


def solve_flags(case):
    flags = ["--backend", case["backend"]]
    for key in ("s", "gamma", "p", "n", "beta_g"):
        flags += ["--" + key.replace("_", "-"), str(case[key])]
    return flags + (["--force-critical"] if case.get("force_critical") else [])


class TestPredict:
    def test_scaling_dominated_json(self, capsys):
        code, out, _ = run(capsys, "predict", "--s", "0.2", "--gamma", "1", "--p", "0.5")
        assert code == 0
        data = json.loads(out)
        assert data["mu"] == 0.8
        assert data["sigma"] == 0.8
        assert data["regime"] == "scaling-dominated"
        assert data["case_label"] == "II.A.1"

    def test_keys_are_the_library_fields_without_none(self, capsys):
        # ExponentPrediction's log_exponent is None off the critical regime
        code, out, _ = run(capsys, "predict", "--s", "0.2", "--gamma", "1", "--p", "0.5")
        assert code == 0
        assert set(json.loads(out)) == {"mu", "sigma", "regime", "case_label", "nu_1",
                                        "nu_infinity"}

    def test_critical_includes_log_exponent(self, capsys):
        code, out, _ = run(capsys, "predict", "--s", "0.25", "--gamma", "1", "--p", "0.5")
        assert code == 0
        assert json.loads(out)["log_exponent"] == 2.0

    def test_invalid_s_exits_2(self, capsys):
        code, _, err = run(capsys, "predict", "--s", "1.2", "--gamma", "1", "--p", "0.5")
        assert code == 2
        assert "error" in err

    def test_missing_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "predict", "--s", "0.2")
        assert code == 2

    @pytest.mark.parametrize("p", ["0", "1", "1.5"])
    def test_p_outside_unit_interval_exits_2(self, capsys, p):
        code, _, err = run(capsys, "predict", "--s", "0.2", "--gamma", "1", "--p", p)
        assert code == 2
        assert err.startswith("error:")

    def test_p_equal_one_names_the_eigen_command(self, capsys):
        code, _, err = run(capsys, "predict", "--s", "0.2", "--gamma", "1", "--p", "1")
        assert code == 2
        assert "use the eigen command (leading_eigenpairs)" in err


class TestBq:
    def test_log_threshold(self, capsys):
        code, out, _ = run(capsys, "bq", "--s", "0.2", "--gamma", "1",
                           "--q", "0.625")
        assert code == 0
        data = json.loads(out)
        assert data["regime"] == "log"
        assert data["log_exponent"] == pytest.approx(1.6, rel=1e-12)

    def test_linear_regime_omits_log_exponent(self, capsys):
        code, out, _ = run(capsys, "bq", "--s", "0.2", "--gamma", "1", "--q", "0.5")
        assert code == 0
        data = json.loads(out)
        assert data["regime"] == "linear"
        assert "log_exponent" not in data

    def test_out_of_range_q_exits_2(self, capsys):
        code, _, _ = run(capsys, "bq", "--s", "0.2", "--gamma", "1", "--q", "3")
        assert code == 2

    def test_zero_dimension_exits_2(self, capsys):
        code, _, err = run(capsys, "bq", "--N", "0", "--s", "0.2", "--q", "0.5")
        assert code == 2
        assert "dimension N" in err


class TestVerifyKernel:
    def test_synthetic_report(self, capsys):
        # the assembled operator is sampled: the Gauss band lies above the envelope
        code, out, _ = run(capsys, "verify-kernel", "--s", "0.2", "--gamma", "1",
                           "--n-samples", "1000")
        assert code == 0
        data = json.loads(out)
        assert data["violations"] == 0
        assert data["c0_hat"] >= 1.0 - 1e-12
        assert data["c1_hat"] > 1.0

    @pytest.mark.parametrize("backend", ["synthetic", "spectral"])
    def test_bad_sample_count_exits_2_before_any_build(self, capsys, backend):
        with mock.patch.object(cli, "spectral_mt_operator") as spectral, \
                mock.patch.object(cli, "assemble") as assemble:
            code, _, err = run(capsys, "verify-kernel", "--backend", backend, "--s", "0.2",
                               "--n-samples", "50")
        assert code == 2
        assert "at least 100 sample pairs" in err
        assert spectral.call_count == assemble.call_count == 0

    def test_spectral_rejects_gamma_other_than_1(self, capsys):
        code, _, err = run(capsys, "verify-kernel", "--backend", "spectral", "--s", "0.2",
                           "--gamma", "0.5", "--n", "64", "--n-samples", "100")
        assert code == 2
        assert "gamma = 1" in err

    def test_spectral_report(self, capsys):
        code, out, _ = run(capsys, "verify-kernel", "--backend", "spectral", "--s", "0.2",
                           "--n", "64", "--n-samples", "200")
        assert code == 0
        assert {"violations", "c0_hat", "c1_hat"} <= set(json.loads(out))


class TestGreenNorm:
    def test_power_regime_slope(self, capsys):
        code, out, _ = run(capsys, "green-norm", "--s", "0.2", "--gamma", "1",
                           "--q", "1", "--n", "500")
        assert code == 0
        data = json.loads(out)
        assert data["regime"] == "power"
        assert data["predicted_slope"] == pytest.approx(0.4, rel=1e-12)
        assert data["slope"] == pytest.approx(0.4, abs=0.1)

    def test_reports_r2_of_the_library_regression(self, capsys):
        code, out, _ = run(capsys, "green-norm", "--s", "0.2", "--gamma", "1",
                           "--q", "1", "--n", "500")
        assert code == 0
        data = json.loads(out)
        assert "intercept" not in data
        assert 0.99 <= data["r2"] <= 1.0
        deltas, norms = green_q_norm_profile(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)),
                                             graded_mesh(500, 3.0), 1.0)
        x, y = np.log(deltas), np.log(norms)
        assert (data["slope"], data["r2"]) == fitting._least_squares(x, y)
        # the closed form and numpy's SVD line fit agree to rounding
        assert data["slope"] == pytest.approx(float(np.polyfit(x, y, 1)[0]), rel=1e-14)

    def test_log_threshold_slope(self, capsys):
        # q = N/(N - 2s + gamma): the factor (1 + |log delta|^{1/q}) is divided out
        code, out, _ = run(capsys, "green-norm", "--s", "0.2", "--gamma", "1",
                           "--q", "0.625")
        assert code == 0
        data = json.loads(out)
        assert data["regime"] == "log"
        assert data["predicted_slope"] == 1.0
        assert data["slope"] == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("n, beta", [("8", "3"), ("40", "1")])
    def test_empty_window_exits_2(self, capsys, n, beta):
        code, _, err = run(capsys, "green-norm", "--s", "0.2", "--q", "1",
                           "--n", n, "--beta-g", beta)
        assert code == 2
        assert err.startswith("error:")


class TestSolve:
    def test_outputs_and_determinism(self, capsys, tmp_path):
        args = ["solve", "--s", "0.2", "--gamma", "1", "--p", "0.5",
                "--n", "64", "--tol", "1e-8", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        sol = (tmp_path / "solution.csv").read_text()
        lines = sol.split("\n")
        assert lines[0] == "x,delta,u"
        assert len(lines) == 64 + 2 and lines[-1] == ""
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["mu_pred"] == 0.8
        assert abs(fit["mu_hat"] - 0.8) < 0.2
        assert 0 <= fit["bracket_gap"] <= 1e-8  # the certificate, at the --tol it was run to
        assert main(args) == 0
        capsys.readouterr()
        assert (tmp_path / "solution.csv").read_text() == sol

    def test_makes_its_mesh_twice_and_times_its_run(self, capsys, tmp_path, monkeypatch):
        # once to validate the case, once to run it; solution.csv is written on the second
        grids, mesh = [], cli.graded_mesh

        def spy(n, beta):
            grids.append(mesh(n, beta))
            return grids[-1]
        monkeypatch.setattr(cli, "graded_mesh", spy)
        code, _, _ = run(capsys, "solve", "--s", "0.2", "--p", "0.5", "--n", "64",
                         "--out-dir", str(tmp_path))
        assert code == 0
        assert len(grids) == 2
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert set(fit) == {*STUDY_COLUMNS, "bracket_gap", "wall_ms"}
        assert fit["wall_ms"] > 0
        assert 0 <= fit["bracket_gap"] <= 1e-10
        x = [float(line.split(",")[0])
             for line in (tmp_path / "solution.csv").read_text().splitlines()[1:]]
        assert x == grids[1].nodes.tolist()

    def test_bad_n_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "solve", "--s", "0.2", "--gamma", "1",
                         "--p", "0.5", "--n", "63", "--out-dir", str(tmp_path))
        assert code == 2

    def test_p_equal_one_names_the_eigen_command(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "--s", "0.2", "--p", "1", "--n", "64",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "use the eigen command (leading_eigenpairs)" in err

    def test_p_above_one_is_no_eigenvalue_problem(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "--s", "0.2", "--p", "1.5", "--n", "64",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "0 < p < 1" in err and "p = 1" not in err

    def test_too_strong_grading_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "--s", "0.2", "--gamma", "1", "--p", "0.5",
                           "--n", "4000", "--beta-g", "5", "--out-dir", str(tmp_path))
        assert code == 2
        assert "grading too strong for n" in err

    def test_spectral_ignores_grading_it_never_builds(self, capsys, tmp_path):
        # the spectral backend always runs on the uniform mesh, so --beta-g 5 is harmless
        code, _, _ = run(capsys, "solve", "--backend", "spectral", "--s", "0.2",
                         "--p", "0.5", "--n", "4000", "--beta-g", "5",
                         "--out-dir", str(tmp_path))
        assert code == 0
        assert json.loads((tmp_path / "fit.json").read_text())["n"] == 4000

    def test_bracket_error_exits_3(self, capsys, tmp_path, monkeypatch):
        def broken(op, config):
            raise BracketError("enclosures not nested")
        monkeypatch.setattr(cli, "picard_solve", broken)
        code, _, err = run(capsys, "solve", "--s", "0.2", "--gamma", "1", "--p", "0.5",
                           "--n", "64", "--out-dir", str(tmp_path))
        assert code == 3
        assert "not nested" in err
        diag = json.loads((tmp_path / "fit.json").read_text())
        assert "not nested" in diag["error"] and diag["residual"] is None

    def test_convergence_error_record_carries_its_residual(self, capsys, tmp_path,
                                                           monkeypatch):
        def stalled(op, config):
            raise ConvergenceError("did not converge", 0.5)
        monkeypatch.setattr(cli, "picard_solve", stalled)
        code, _, err = run(capsys, "solve", "--s", "0.2", "--gamma", "1", "--p", "0.5",
                           "--n", "64", "--out-dir", str(tmp_path))
        assert code == 3
        assert err == "error: ConvergenceError: did not converge\n"
        record = {"error": "ConvergenceError: did not converge", "residual": 0.5,
                  "s": 0.2, "gamma": 1.0, "p": 0.5, "backend": "synthetic", "n": 64}
        text = (tmp_path / "fit.json").read_text()
        assert text == json.dumps(record, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("case", UNFILLABLE_FIT_WINDOWS, ids=UNFILLABLE_IDS)
    def test_unfillable_fit_window_exits_2_before_solving(self, capsys, tmp_path,
                                                          monkeypatch, case):
        calls = record_solves(monkeypatch)
        code, _, err = run(capsys, "solve", *solve_flags(case), "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error:")
        assert calls == []
        assert not (tmp_path / "fit.json").exists()

    def test_empty_harnack_ball_exits_2_before_solving(self, capsys, tmp_path, monkeypatch):
        calls = record_solves(monkeypatch)
        code, _, err = run(capsys, "solve", *solve_flags(EMPTY_HARNACK_BALL),
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "interior ball" in err
        assert calls == []
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("error", [MemoryError, FloatingPointError])
    def test_run_time_error_writes_record_and_exits_3(self, capsys, tmp_path, monkeypatch,
                                                      error):
        def fail(kernel, grid):
            raise error("no room")
        monkeypatch.setattr(cli, "assemble", fail)
        code, _, err = run(capsys, "solve", "--s", "0.2", "--p", "0.5", "--n", "64",
                           "--out-dir", str(tmp_path))
        assert code == 3
        assert f"{error.__name__}: no room" in err
        diag = json.loads((tmp_path / "fit.json").read_text())
        assert diag["error"] == f"{error.__name__}: no room" and diag["residual"] is None


class TestGradingDefault:
    @pytest.mark.parametrize("argv", [
        ["solve", "--s", "0.2", "--p", "0.5", "--n", "64"],
        ["eigen", "--s", "0.2", "--n", "64"],
        ["green-norm", "--s", "0.2", "--q", "1"],
    ], ids=lambda argv: argv[0])
    def test_every_beta_g_flag_defaults_to_the_case_field(self, argv):
        assert cli.build_parser().parse_args(argv).beta_g == cli._CASE_FIELDS["beta_g"][1]

    @pytest.mark.parametrize("argv", [
        ["green-norm", "--s", "0.2", "--q", "1", "--beta-g", "nan"],
        ["eigen", "--backend", "synthetic", "--s", "0.2", "--n", "64", "--beta-g", "inf"],
    ], ids=["green-norm-nan", "eigen-inf"])
    def test_non_finite_grading_exits_2_naming_it(self, capsys, argv):
        # the mesh is checked before eigen creates its output directory
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "grading exponent" in err


class TestToleranceDefault:
    @pytest.mark.parametrize("argv", [
        ["solve", "--s", "0.2", "--p", "0.5", "--n", "64"],
        ["eigen", "--s", "0.2", "--n", "64"],
    ], ids=lambda argv: argv[0])
    def test_every_tol_flag_defaults_to_the_case_field(self, argv):
        assert cli.build_parser().parse_args(argv).tol == cli._CASE_FIELDS["tol"][1]

    def test_every_default_tolerance_is_the_solver_s_one_float(self):
        # a field of a named tuple read on its class is the field's descriptor, not its default
        defaults = (SolverConfig(p=0.5).tol, cli._CASE_FIELDS["tol"][1],
                    inspect.signature(leading_eigenpairs).parameters["tol"].default)
        assert [(type(tol), tol) for tol in defaults] == [(float, 1e-10)] * 3

    def test_eigen_without_tol_exits_0(self, capsys, tmp_path):
        code, _, err = run(capsys, "eigen", "--s", "0.3", "--n", "64", "--out-dir", str(tmp_path))
        assert code == 0, err


class TestEigen:
    def test_spectral_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eigen", "--s", "0.3", "--n", "200",
                           "--n-eigs", "2", "--out-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["n_pairs"] == 2
        lines = (tmp_path / "eigenpairs.csv").read_text().splitlines()
        assert lines[0] == "index,mu,lambda,residual"
        assert len(lines) == 3
        ratios = json.loads((tmp_path / "boundary_ratios.json").read_text())
        assert len(ratios) == 2
        # BoundaryRatio's fields; the inf ratio is kept, as null, past the first pair
        assert ratios[1] == {"index": 2, "sup_ratio": ratios[1]["sup_ratio"],
                             "inf_ratio": None}

    @pytest.mark.parametrize("error", [MemoryError, FloatingPointError])
    def test_run_time_error_exits_3(self, capsys, tmp_path, monkeypatch, error):
        def fail(kernel, grid):
            raise error("no room")
        monkeypatch.setattr(cli, "assemble", fail)
        code, _, err = run(capsys, "eigen", "--backend", "synthetic", "--s", "0.2",
                           "--n", "64", "--out-dir", str(tmp_path))
        assert code == 3
        assert f"{error.__name__}: no room" in err

    @pytest.mark.parametrize("flags", [["--n-eigs", "50"], ["--tol", "0"], ["--tol", "nan"],
                                       ["--tol", "inf"]],
                             ids=["n-eigs", "tol", "tol-nan", "tol-inf"])
    def test_bad_request_exits_2_before_building(self, capsys, tmp_path, monkeypatch, flags):
        calls = []
        monkeypatch.setattr(cli, "assemble", lambda kernel, grid: calls.append(grid))
        code, _, err = run(capsys, "eigen", "--backend", "synthetic", "--s", "0.2",
                           "--n", "4000", *flags, "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error:")
        assert calls == []

    def test_empty_ratio_window_exits_2_before_building(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "assemble", lambda kernel, grid: calls.append(grid))
        code, _, err = run(capsys, "eigen", "--backend", "synthetic", "--s", "0.2",
                           "--n", "8", "--out-dir", str(tmp_path))
        assert code == 2
        assert "in window" in err
        assert calls == []

    def test_synthetic_default_grades_the_mesh(self, capsys, tmp_path, monkeypatch):
        grids = []

        def spy(kernel, grid):
            grids.append(grid)
            return operators.assemble(kernel, grid)
        monkeypatch.setattr(cli, "assemble", spy)
        code, _, _ = run(capsys, "eigen", "--backend", "synthetic", "--s", "0.2",
                         "--n", "64", "--out-dir", str(tmp_path))
        assert code == 0
        [grid] = grids
        np.testing.assert_array_equal(grid.boundaries, graded_mesh(64, 3.0).boundaries)

    def test_unusable_out_dir_exits_2_before_building(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "assemble", lambda kernel, grid: calls.append(grid))
        (tmp_path / "file").write_text("")
        code, _, err = run(capsys, "eigen", "--backend", "synthetic", "--s", "0.2",
                           "--n", "400", "--out-dir", str(tmp_path / "file" / "sub"))
        assert code == 2
        assert err.startswith("error:")
        assert calls == []


def test_fits_call_no_lapack(capsys, tmp_path, monkeypatch):
    # every reported slope is the closed-form line fit: numpy's SVD solver is never reached
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK line fit called")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    critical = {**SMALL_CASE, "s": 0.25, "n": 128}  # mu = gamma: the log-corrected fit
    rows = study_rows(capsys, tmp_path, [SMALL_CASE, critical], "--jobs", "1")
    assert [row.split(",")[8] for row in rows] == ["scaling-dominated", "critical"]
    assert main(["solve", *solve_flags(SMALL_CASE), "--out-dir", str(tmp_path)]) == 0
    assert main(["green-norm", "--s", "0.2", "--gamma", "1", "--q", "1", "--n", "500"]) == 0


@pytest.mark.parametrize("command", ["solve", "study", "eigen"])
def test_spectral_n_not_a_multiple_of_4_exits_2_writing_nothing(capsys, tmp_path, monkeypatch,
                                                                 command):
    calls = []
    monkeypatch.setattr(cli, "spectral_mt_operator", lambda *args: calls.append(args))
    out = tmp_path / "out"
    flags = {"solve": ["--p", "0.5", "--out-dir", str(out)], "eigen": ["--out-dir", str(out)]}
    if command == "study":
        spectral = {"backend": "spectral", "s": 0.3, "gamma": 1.0, "p": 0.5}
        argv = ["--config", write_config(tmp_path, [{**spectral, "n": 1024},
                                                    {**spectral, "n": 1026}], out_dir=str(out))]
    else:
        argv = ["--backend", "spectral", "--s", "0.3", "--n", "1026", *flags[command]]
    code, stdout, err = run(capsys, command, *argv)
    assert code == 2 and stdout == ""
    assert "n a multiple of 4, got n = 1026" in err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("command, name", [
    ("solve", "fit.json"), ("solve", "solution.csv"), ("study", "study.csv"),
    ("study", "summary.json"), ("eigen", "eigenpairs.csv"), ("eigen", "boundary_ratios.json"),
])
def test_directory_at_an_output_path_exits_2_before_building(capsys, tmp_path, monkeypatch,
                                                             command, name):
    # no case is solved, and no eigenpair computed, only to find it cannot be written
    calls = []
    monkeypatch.setattr(cli, "assemble", lambda kernel, grid: calls.append(grid))
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    case = ["--s", "0.2", "--gamma", "1", "--n", "400"]
    argv = {"solve": ["--p", "0.5", *case], "eigen": case,
            "study": ["--config", write_config(tmp_path, [SMALL_CASE]), "--jobs", "1"]}
    code, stdout, err = run(capsys, command, *argv[command], "--out-dir", str(out))
    assert code == 2 and stdout == ""
    assert f"error: output path {out / name} exists and is not a regular file" in err
    assert calls == []
    assert [p.name for p in out.iterdir()] == [name] and (out / name).is_dir()


class TestStudy:
    def test_summary_and_rows(self, capsys, tmp_path):
        cfg = write_config(tmp_path, [SMALL_CASE])
        code, out, _ = run(capsys, "study", "--config", cfg)
        assert code == 0
        summary = json.loads(out)
        assert set(summary) == {"max_abs_err", "worst_case", "n_cases"}
        assert summary["n_cases"] == 1
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk == summary
        lines = (tmp_path / "study.csv").read_text().splitlines()
        assert lines[0] == ",".join(STUDY_COLUMNS)
        assert len(lines) == 2

    def test_header_is_the_study_columns(self, capsys, tmp_path):
        # a timing would break the byte-identical CSV, so the study writes none
        study_rows(capsys, tmp_path, [SMALL_CASE])
        header = (tmp_path / "study.csv").read_text().splitlines()[0].split(",")
        assert header == list(STUDY_COLUMNS)
        assert "wall_ms" not in header

    def test_mu_pred_matches_library_bit_for_bit(self, capsys, tmp_path):
        cfg = write_config(tmp_path, [SMALL_CASE])
        assert main(["study", "--config", cfg]) == 0
        capsys.readouterr()
        row = (tmp_path / "study.csv").read_text().splitlines()[1].split(",")
        mu_pred = float(row[STUDY_COLUMNS.index("mu_pred")])
        assert mu_pred == predict_mu(0.2, 1.0, 0.5).mu

    def test_duplicate_case_gives_identical_rows(self, capsys, tmp_path):
        cfg = write_config(tmp_path, [SMALL_CASE, dict(SMALL_CASE)])
        assert main(["study", "--config", cfg]) == 0
        capsys.readouterr()
        lines = (tmp_path / "study.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1] == lines[2]

    def test_empty_cases_exits_2(self, capsys, tmp_path):
        cfg = write_config(tmp_path, [])
        code, _, err = run(capsys, "study", "--config", cfg)
        assert code == 2
        assert "no cases" in err

    def test_malformed_case_exits_2_before_running(self, capsys, tmp_path):
        for bad in ({**SMALL_CASE, "s": 0.7},  # synthetic backend needs s < 1/2
                    {**SMALL_CASE, "backend": "spectral", "gamma": 0.5},  # spectral is gamma = 1
                    {**SMALL_CASE, "tol": 0},
                    {**SMALL_CASE, "beta": 1},  # unknown field
                    {**SMALL_CASE, "force_critical": "false"},
                    {**SMALL_CASE, "n": 64.9},
                    {**SMALL_CASE, "gamma": True},
                    {**SMALL_CASE, "p": 1.5},
                    {**SMALL_CASE, "tol": float("nan")},  # written as NaN, which json reads
                    {**SMALL_CASE, "backend": "fem"},
                    1):  # no JSON object
            cfg = write_config(tmp_path, [SMALL_CASE, bad])
            code, _, err = run(capsys, "study", "--config", cfg)
            assert code == 2
            assert "case 1" in err
            assert not (tmp_path / "study.csv").exists()

    @pytest.mark.parametrize("case", UNFILLABLE_FIT_WINDOWS, ids=UNFILLABLE_IDS)
    def test_unfillable_fit_window_exits_2_before_solving(self, capsys, tmp_path,
                                                          monkeypatch, case):
        calls = record_solves(monkeypatch)
        cfg = write_config(tmp_path, [SMALL_CASE, case])
        code, _, err = run(capsys, "study", "--config", cfg)
        assert code == 2
        assert "case 1" in err
        assert calls == []
        assert not (tmp_path / "study.csv").exists()

    def test_empty_harnack_ball_exits_2_before_solving(self, capsys, tmp_path, monkeypatch):
        calls = record_solves(monkeypatch)
        cfg = write_config(tmp_path, [SMALL_CASE, EMPTY_HARNACK_BALL])
        code, _, err = run(capsys, "study", "--config", cfg)
        assert code == 2
        assert "case 1" in err and "interior ball" in err
        assert calls == []
        assert not (tmp_path / "study.csv").exists()

    @pytest.mark.parametrize("config", [
        [1, 2],
        {"cases": 5},
        {"cases": [SMALL_CASE], "out_dir": 5},
        {"cases": [SMALL_CASE], "outdir": "elsewhere", "jobs": 4},
    ], ids=["array", "cases-not-a-list", "out-dir-not-a-string", "unknown-key"])
    def test_malformed_config_exits_2_before_running(self, capsys, tmp_path, monkeypatch,
                                                     config):
        calls = []
        monkeypatch.setattr(cli, "_run", calls.append)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, _, err = run(capsys, "study", "--config", str(path), "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error:")
        assert calls == []
        assert not (tmp_path / "study.csv").exists()

    def test_unusable_out_dir_exits_2_before_running(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_run", calls.append)
        cfg = write_config(tmp_path, [SMALL_CASE])
        (tmp_path / "file").write_text("")
        code, _, err = run(capsys, "study", "--config", cfg,
                           "--out-dir", str(tmp_path / "file" / "sub"))
        assert code == 2
        assert err.startswith("error:")
        assert calls == []

    def test_out_dir_flag_overrides_config(self, capsys, tmp_path):
        cfg = write_config(tmp_path, [SMALL_CASE])  # its out_dir is tmp_path
        flag_dir = tmp_path / "flag"
        assert run(capsys, "study", "--config", cfg, "--out-dir", str(flag_dir))[0] == 0
        assert (flag_dir / "study.csv").exists()
        assert (flag_dir / "summary.json").exists()
        assert not (tmp_path / "study.csv").exists()

    def test_missing_field_exits_2(self, capsys, tmp_path):
        bad = {k: v for k, v in SMALL_CASE.items() if k != "p"}
        cfg = write_config(tmp_path, [bad])
        assert run(capsys, "study", "--config", cfg)[0] == 2

    def test_bad_config_path_exits_2(self, capsys, tmp_path):
        assert run(capsys, "study", "--config", str(tmp_path / "nope.json"))[0] == 2

    def test_parallel_output_matches_serial(self, capsys, tmp_path):
        # a mixed-backend pool: the spectral case's operator key holds beta_g = None
        cases = [SMALL_CASE,
                 {**SMALL_CASE, "s": 0.3, "gamma": 0.5},
                 {**SMALL_CASE, "s": 0.15, "p": 0.25},
                 {**SMALL_CASE, "backend": "spectral", "n": 256}]
        cfg = write_config(tmp_path, cases)
        assert main(["study", "--config", cfg, "--jobs", "1"]) == 0
        capsys.readouterr()
        serial = (tmp_path / "study.csv").read_text()
        assert main(["study", "--config", cfg, "--jobs", "2"]) == 0
        capsys.readouterr()
        assert (tmp_path / "study.csv").read_text() == serial

    def test_pool_never_outnumbers_the_cases(self, capsys, tmp_path, monkeypatch):
        # the workers are all forked at the start, needed or not
        cfg = write_config(tmp_path, [SMALL_CASE, {**SMALL_CASE, "s": 0.3}])
        assert main(["study", "--config", cfg, "--jobs", "1"]) == 0
        serial = (tmp_path / "study.csv").read_text()
        calls, forks = spy_fork_map(monkeypatch)
        assert main(["study", "--config", cfg, "--jobs", "8"]) == 0
        capsys.readouterr()
        assert [jobs for _, jobs in calls] == [8]
        assert len(forks) == 2
        assert (tmp_path / "study.csv").read_text() == serial

    def test_cases_sharing_an_operator_build_it_once(self, capsys, tmp_path, monkeypatch):
        # the same operator as SMALL_CASE: p is no operator parameter
        cases = [SMALL_CASE, {**SMALL_CASE, "s": 0.3}, {**SMALL_CASE, "p": 0.25}]
        alone = [study_rows(capsys, tmp_path, [case])[0] for case in cases]
        grids, assemble = [], cli.assemble

        def spy(kernel, grid):
            grids.append(grid)
            return assemble(kernel, grid)
        monkeypatch.setattr(cli, "assemble", spy)
        assert study_rows(capsys, tmp_path, cases, "--jobs", "1") == alone
        assert len(grids) == 2

    def test_spectral_cases_share_an_operator_whatever_beta_g(self, capsys, tmp_path,
                                                              monkeypatch):
        spectral = {**SMALL_CASE, "backend": "spectral", "n": 1024, "beta_g": 1.0}
        calls, forks = spy_fork_map(monkeypatch)
        cases = [spectral, {**spectral, "p": 0.25, "beta_g": 2.0}]
        assert len(study_rows(capsys, tmp_path, cases, "--jobs", "8")) == 2
        assert calls == [] and forks == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_build_fails_its_whole_group(self, capsys, tmp_path, monkeypatch, jobs):
        cases = [SMALL_CASE, {**SMALL_CASE, "s": 0.3}, {**SMALL_CASE, "s": 0.15},
                 {**SMALL_CASE, "s": 0.3, "p": 0.25}]
        full = study_rows(capsys, tmp_path, cases)
        monkeypatch.setattr(cli, "assemble", assemble_all_but_s_03)
        code, out, err = run(capsys, "study", "--config", write_config(tmp_path, cases),
                             "--jobs", jobs)
        assert code == 3
        assert "case 1" in err and "case 3" in err
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == json.loads(out)
        assert summary["errors"] == [{"case": 1, "error": "MemoryError: no room"},
                                     {"case": 3, "error": "MemoryError: no room"}]
        assert (tmp_path / "study.csv").read_text().splitlines()[1:] == [full[0], full[2]]

    def test_fit_over_one_distinct_x_is_a_run_time_failure(self, capsys, tmp_path,
                                                            monkeypatch):
        # every window node is node 20, so the line fit has a single abscissa
        monkeypatch.setattr(fitting, "fit_window", lambda grid, critical: np.full(12, 20))
        code, out, err = run(capsys, "study", "--config", write_config(tmp_path, [SMALL_CASE]))
        assert code == 3
        assert json.loads(out)["errors"] == [{"case": 0, "error": "ValueError: line fit needs "
                                              "two distinct x values; every x is the same"}]
        assert "case 0" in err

    def test_largest_operators_go_first(self, capsys, tmp_path, monkeypatch):
        cases = [SMALL_CASE, {**SMALL_CASE, "s": 0.3, "n": 128},
                 {**SMALL_CASE, "p": 0.25}, {**SMALL_CASE, "s": 0.15, "n": 256},
                 {**SMALL_CASE, "s": 0.3}]
        ran, run_group = [], cli._group_outcomes

        def serial_spy(task):
            ran.append([case.n for case in task])
            return run_group(task)
        monkeypatch.setattr(cli, "_group_outcomes", serial_spy)
        serial = study_rows(capsys, tmp_path, cases, "--jobs", "1")
        assert ran == [[256], [128], [64, 64], [64]]
        monkeypatch.setattr(cli, "_group_outcomes", run_group)
        calls, _ = spy_fork_map(monkeypatch)
        assert study_rows(capsys, tmp_path, cases, "--jobs", "2") == serial
        # the workers take the tasks by index, in this order
        assert [[[case.n for case in task] for task in tasks] for tasks, _ in calls] == [
            [[256], [128], [64, 64], [64]]]

    def test_one_shared_operator_starts_no_pool(self, capsys, tmp_path, monkeypatch):
        calls, forks = spy_fork_map(monkeypatch)
        cases = [SMALL_CASE, {**SMALL_CASE, "p": 0.25}, {**SMALL_CASE, "p": 0.75}]
        assert len(study_rows(capsys, tmp_path, cases, "--jobs", "8")) == 3
        assert calls == [] and forks == []

    def test_more_jobs_than_cores_match_serial(self, capsys, tmp_path):
        cases = [SMALL_CASE, {**SMALL_CASE, "s": 0.3}, {**SMALL_CASE, "s": 0.15, "n": 128}]
        serial = study_rows(capsys, tmp_path, cases, "--jobs", "1")
        summary = (tmp_path / "summary.json").read_text()
        assert study_rows(capsys, tmp_path, cases, "--jobs", "3") == serial
        assert (tmp_path / "summary.json").read_text() == summary

    def test_dead_worker_exits_3_and_leaves_no_process(self, capsys, tmp_path, monkeypatch):
        cases = [SMALL_CASE, {**SMALL_CASE, "s": 0.3}, {**SMALL_CASE, "s": 0.15}]
        solve, fds = cli._run, open_fds()

        def die_on_one(case, op):  # the forked workers inherit the patch
            if case.params.s == 0.3:
                os.kill(os.getpid(), signal.SIGKILL)
            return solve(case, op)
        monkeypatch.setattr(cli, "_run", die_on_one)
        code, _, err = run(capsys, "study", "--config", write_config(tmp_path, cases),
                           "--jobs", "2")
        assert code == 3
        assert err.startswith("error: WorkerLost:")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds

    def test_worker_that_cannot_be_started_exits_3_and_leaks_no_pipe(self, capsys, tmp_path,
                                                                     monkeypatch):
        # a fork that fails after validation is a run-time failure, not a bad config
        cases = [SMALL_CASE, {**SMALL_CASE, "s": 0.3}]
        fds, forks, fork = open_fds(), [], os.fork

        def fork_once():
            if forks:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            forks.append(fork())
            return forks[-1]
        monkeypatch.setattr(os, "fork", fork_once)
        code, _, err = run(capsys, "study", "--config", write_config(tmp_path, cases),
                           "--jobs", "2")
        assert code == 3
        assert err.startswith("error: WorkerLost:")
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds

    def test_worker_outcomes_are_small_plain_values(self, capsys, tmp_path, monkeypatch):
        # a worker sends back each case's row and no solution vector
        spectral = {"backend": "spectral", "s": 0.3, "gamma": 1.0, "p": 0.5, "n": 4096}
        fork_map, outcomes = cli._fork_map, []

        def spy(fn, tasks, jobs):
            results = fork_map(fn, tasks, jobs)
            outcomes.extend(outcome for group in results for outcome in group)
            return results
        monkeypatch.setattr(cli, "_fork_map", spy)
        assert len(study_rows(capsys, tmp_path, [SMALL_CASE, spectral], "--jobs", "2")) == 2
        assert len(outcomes) == 2
        for row, failure in outcomes:
            assert failure is None
            assert {type(value) for value in row.values()} <= {int, float, str, type(None)}
        assert max(len(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
                   for outcome in outcomes) < 1024

    def test_other_worker_error_propagates(self, tmp_path, monkeypatch):
        cases = [SMALL_CASE, {**SMALL_CASE, "s": 0.3}, {**SMALL_CASE, "s": 0.15}]
        solve, fds = cli._run, open_fds()

        def bug_on_one(case, op):
            if case.params.s == 0.3:
                raise TypeError("a bug")
            return solve(case, op)
        monkeypatch.setattr(cli, "_run", bug_on_one)
        with pytest.raises(TypeError, match="a bug") as raised:
            main(["study", "--config", write_config(tmp_path, cases), "--jobs", "2"])
        assert "in bug_on_one" in str(raised.value.__cause__)  # the worker's traceback
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds

    def test_finished_study_leaves_no_process_or_pipe(self, capsys, tmp_path):
        fds = open_fds()
        cases = [SMALL_CASE, {**SMALL_CASE, "s": 0.3}, {**SMALL_CASE, "s": 0.15}]
        assert len(study_rows(capsys, tmp_path, cases, "--jobs", "2")) == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds

    def test_a_failure_kills_the_busy_workers(self, tmp_path, monkeypatch):
        # the sleeping worker would read the task pipe's end of file only after its 60 s task
        cases = [SMALL_CASE, {**SMALL_CASE, "s": 0.3}, {**SMALL_CASE, "s": 0.15}]
        solve = cli._run

        def stall_one_and_fail_one(case, op):
            if case.params.s == 0.15:
                time.sleep(60)
            if case.params.s == 0.3:
                raise TypeError("a bug")
            return solve(case, op)
        monkeypatch.setattr(cli, "_run", stall_one_and_fail_one)
        start = time.perf_counter()
        with pytest.raises(TypeError, match="a bug"):
            main(["study", "--config", write_config(tmp_path, cases), "--jobs", "3"])
        assert time.perf_counter() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_each_worker_holds_only_its_own_pipes(self, capsys, tmp_path, monkeypatch):
        # a pipe end a sibling kept open would hold back the end of file that stops a worker
        cases = [SMALL_CASE, {**SMALL_CASE, "s": 0.3}, {**SMALL_CASE, "s": 0.15}]
        solve, held = cli._run, []

        def count_fds(case, op):
            row, sol = solve(case, op)
            return {**row, "_fds": len(open_fds())}, sol
        monkeypatch.setattr(cli, "_run", count_fds)
        fork_map = cli._fork_map

        def spy(fn, tasks, jobs):
            results = fork_map(fn, tasks, jobs)
            held.extend(row["_fds"] for outcomes in results for row, _ in outcomes)
            return results
        monkeypatch.setattr(cli, "_fork_map", spy)
        assert len(study_rows(capsys, tmp_path, cases, "--jobs", "3")) == 3
        # the shared task pipe's read end and its own result pipe's write end, beside what the
        # study process held
        assert held == [len(open_fds()) + 2] * 3

    def test_workers_leave_the_parents_output_alone(self, tmp_path):
        # a worker that left by sys.exit would flush the parent's buffered "before" again
        code = ("import sys; from nonlocal_sharp import cli; print('before'); "
                "sys.exit(cli.main(['study', '--config', sys.argv[1], '--jobs', '2']))")
        cfg = write_config(tmp_path, [SMALL_CASE, {**SMALL_CASE, "s": 0.3}])
        out = subprocess.run([sys.executable, "-c", code, cfg], capture_output=True, text=True,
                             cwd=ROOT / "src")
        assert out.returncode == 0, out.stderr
        assert out.stdout.count("before") == 1
        assert out.stdout.count("n_cases") == 1

    @pytest.mark.parametrize("target, name, patch", [(cli, "_run", run_with_unpicklable_row),
                                                     (os, "write", write_to_a_broken_pipe)],
                             ids=["outcome-does-not-pickle", "no-worker-reads-the-tasks"])
    def test_lost_worker_exits_3_and_leaves_no_process(self, capsys, tmp_path, monkeypatch,
                                                       target, name, patch):
        # a worker that cannot pickle its outcomes exits 1; a broken task pipe is an OSError
        # that must not read as a config error (exit 2)
        cases = [SMALL_CASE, {**SMALL_CASE, "s": 0.3}, {**SMALL_CASE, "s": 0.15}]
        fds = open_fds()
        monkeypatch.setattr(target, name, patch)
        code, _, err = run(capsys, "study", "--config", write_config(tmp_path, cases),
                           "--jobs", "2")
        assert code == 3
        assert err.startswith("error: WorkerLost:")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds

    def test_each_group_runs_exactly_once(self, capsys, tmp_path, monkeypatch):
        # three workers take twelve groups from one task pipe: none is lost or taken twice
        s_values = [round(0.05 + 0.03 * k, 2) for k in range(12)]  # none is critical, s = 0.25
        cfg = write_config(tmp_path, [{**SMALL_CASE, "s": s} for s in s_values])
        assert main(["study", "--config", cfg, "--jobs", "1"]) == 0
        serial = (tmp_path / "study.csv").read_text()
        ran = tmp_path / "ran"
        monkeypatch.setattr(cli, "_group_outcomes", partial(log_group_outcomes, ran))
        assert main(["study", "--config", cfg, "--jobs", "3"]) == 0
        capsys.readouterr()
        assert sorted(float(line) for line in ran.read_text().splitlines()) == s_values
        assert (tmp_path / "study.csv").read_text() == serial

    def test_synthetic_case_never_builds_the_odd_block(self, monkeypatch):
        # every Picard iterate is mirror-even, so the solve reads the even block alone
        ops, solve = [], cli.picard_solve

        def spy(op, config):
            ops.append(op)
            return solve(op, config)
        monkeypatch.setattr(cli, "picard_solve", spy)
        assert cli.run_case(SMALL_CASE)["iterations"] > 0
        assert "odd" not in vars(ops[0])

    def test_invalid_jobs_exits_2(self, capsys, tmp_path):
        cfg = write_config(tmp_path, [SMALL_CASE])
        assert run(capsys, "study", "--config", cfg, "--jobs", "0")[0] == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_case_keeps_finished_rows(self, capsys, tmp_path, monkeypatch, jobs):
        cases = [SMALL_CASE, {**SMALL_CASE, "s": 0.3}, {**SMALL_CASE, "s": 0.15}]
        cfg = write_config(tmp_path, cases)
        assert main(["study", "--config", cfg]) == 0
        capsys.readouterr()
        full = (tmp_path / "study.csv").read_text().splitlines()
        solve = cli._run

        def fail_one(case, op):  # the forked workers inherit the patch
            if case.params.s == 0.3:
                raise ConvergenceError("did not converge", 1.0)
            return solve(case, op)
        monkeypatch.setattr(cli, "_run", fail_one)
        code, out, err = run(capsys, "study", "--config", cfg, "--jobs", jobs)
        assert code == 3
        assert "case 1" in err
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == json.loads(out)
        assert summary["errors"] == [{"case": 1, "error": "ConvergenceError: did not converge"}]
        assert summary["n_cases"] == 3
        assert (tmp_path / "study.csv").read_text().splitlines() == [full[0], full[1], full[3]]


class TestHeapFreeze:
    """A CLI process, main() with no argv, freezes its import heap; main(argv) does not."""

    def test_cli_process_freezes_its_import_heap(self):
        code = ("import gc, sys; from nonlocal_sharp import cli; "
                "sys.argv = ['nonlocal-sharp', 'predict', '--s', '0.2', '--p', '0.5']; "
                "assert cli.main() == 0; print(gc.get_freeze_count())")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, cwd=ROOT / "src")
        assert int(out.stdout.splitlines()[-1]) > 0

    def test_in_process_main_leaves_the_collector_alone(self, capsys):
        frozen = gc.get_freeze_count()
        assert run(capsys, "predict", "--s", "0.2", "--p", "0.5")[0] == 0
        assert gc.get_freeze_count() == frozen

    def test_module_entry_writes_the_bytes_in_process_main_writes(self, capsys, tmp_path):
        # two operators and two jobs: the cases run in workers forked from the frozen heap
        case = {"backend": "spectral", "s": 0.3, "gamma": 1.0, "p": 0.5, "n": 256}
        cfg = write_config(tmp_path, [case, {**case, "s": 0.6, "p": 0.4}])
        flags = ["study", "--config", cfg, "--jobs", "2", "--out-dir"]
        subprocess.run([sys.executable, "-m", "nonlocal_sharp.cli", *flags,
                        str(tmp_path / "module")], capture_output=True, check=True,
                       cwd=ROOT / "src")
        assert run(capsys, *flags, str(tmp_path / "main"))[0] == 0
        for name in ("study.csv", "summary.json"):
            assert ((tmp_path / "module" / name).read_bytes()
                    == (tmp_path / "main" / name).read_bytes())


class TestReadme:
    def test_study_columns_are_listed(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"`study.csv` has one row per finished case, with the columns(.*?)\.",
                           readme, re.S).group(1)
        assert re.findall(r"`(\w+)`", listed) == list(STUDY_COLUMNS)

    def test_command_line_examples_run(self, tmp_path, monkeypatch):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("nonlocal-sharp ")]
        assert len(commands) == 7
        (tmp_path / "configs").symlink_to(ROOT / "configs")  # the study example's config
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            if "--out-dir" in argv:
                argv[argv.index("--out-dir") + 1] = str(tmp_path / "out")
            assert main(argv[1:]) == 0, argv


class TestAtomicWrite:
    def test_failed_write_leaves_the_target_and_no_temporary(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            cli._atomic_write(str(target), "a lone surrogate \ud800 has no UTF-8")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_file_has_the_mode_open_gives(self, tmp_path, umask, mode):
        # mkstemp makes its file 0600 whatever the umask; the output must not keep that
        target = tmp_path / "out.csv"
        old = os.umask(umask)
        try:
            cli._atomic_write(str(target), "x\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == mode


class TestCaseFields:
    def test_documented_configs_parse(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        example = re.search(r"A study config is JSON:\n\n```json\n(.*?)```", readme, re.S)
        shipped = json.loads((ROOT / "configs" / "acceptance.json").read_text())
        for case in json.loads(example.group(1))["cases"] + shipped["cases"]:
            cli._parse_case(case)

    def test_parsed_case_pickles_as_plain_values(self):
        # a study task pickles its cases: no mesh or other array may ride along
        assert b"numpy" not in pickle.dumps(cli._parse_case({**SMALL_CASE, "n": 4000}))

    def test_readme_table_lists_the_fields(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(\w+)` \| (\w+) \| ([^|]+) \|", readme, re.M)
        documented = {name: (kind, default.strip()) for name, kind, default in rows}
        fields = {name: (kind, "required" if default is cli._REQUIRED
                         else json.dumps(default))
                  for name, (kind, default) in cli._CASE_FIELDS.items()}
        assert documented == fields


# values of another JSON type than a field's, and numbers out of its range
_WRONG_TYPES = st.sampled_from(["0.3", None, True, [0.3], {"value": 0.3}])
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])
_BAD_VALUES = {
    "backend": st.sampled_from(["fem", "", "Synthetic"]),
    "s": st.sampled_from([0.0, -0.2, 0.5, 1.0, 1.5]),  # the synthetic backend needs s < 1/2
    "gamma": st.sampled_from([0.0, -0.5, 1.5]),
    "p": st.sampled_from([0.0, 1.0, 1.5, -0.5]),
    "n": st.integers(-4, 256),  # odd, zero and negative n among them
    "beta_g": st.sampled_from([0.0, -1.0, 0.5, 12.0]),
    "tol": st.sampled_from([0.0, -1e-8, 1e-300]),
    "force_critical": st.sampled_from([0, 1, "true"]),
}


@st.composite
def malformed_configs(draw):
    """A study config with one to three cases, most of them broken in one or more fields."""
    cases = []
    for _ in range(draw(st.integers(1, 3))):
        case = {**SMALL_CASE, "backend": draw(st.sampled_from(["synthetic", "spectral"])),
                "n": draw(st.sampled_from([64, 128, 256]))}
        if case["backend"] == "spectral":
            case["beta_g"] = 1.0
        for name in draw(st.lists(st.sampled_from([*_BAD_VALUES, "unknown"]), max_size=3)):
            kind = draw(st.sampled_from(["range", "type", "non-finite", "missing"]))
            if name == "unknown":
                case["beta"] = 2.0
            elif kind == "missing":
                case.pop(name, None)
            elif kind == "type":
                case[name] = draw(_WRONG_TYPES)
            elif kind == "non-finite":
                case[name] = draw(_NON_FINITE)
            else:
                case[name] = draw(_BAD_VALUES[name])
        cases.append(case)
    return draw(st.sampled_from([{"cases": cases}, {"cases": cases, "out_dir": 5},
                                 {"cases": cases, "jobs": 2}, {"cases": cases[0]}, cases]))


class TestExitCodes:
    def test_config_too_deeply_nested_to_decode_exits_2(self, capsys, tmp_path):
        # json raises RecursionError, a RuntimeError, here; the strategy below never nests so deep
        path, out_dir = tmp_path / "config.json", tmp_path / "out"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, "study", "--config", str(path), "--out-dir", str(out_dir))
        assert code == 2
        assert "nested too deeply" in err
        assert not out_dir.exists()

    @settings(max_examples=60, deadline=None)
    @given(config=malformed_configs())
    def test_malformed_study_configs_exit_0_2_or_3(self, config):
        # an uncaught exception here is what a user sees as a traceback and exit 1
        with tempfile.TemporaryDirectory() as tmp:
            path, out_dir = Path(tmp) / "config.json", Path(tmp) / "out"
            path.write_text(json.dumps(config))  # NaN and Infinity, which json reads back
            code = main(["study", "--config", str(path), "--out-dir", str(out_dir)])
            assert code in (0, 2, 3)
            if code == 2:  # rejected before any work: no output directory
                assert not out_dir.exists()
