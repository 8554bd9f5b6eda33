import json
import re
from pathlib import Path

import pytest

from nonlocal_sharp import BracketError, ConvergenceError, cli, predict_mu
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
ROOT = Path(__file__).resolve().parent.parent


def record_solves(monkeypatch):
    """Route cli.picard_solve through a spy and return the list of its calls."""
    calls, solve = [], cli.picard_solve

    def spy(op, config):
        calls.append(config)
        return solve(op, config)
    monkeypatch.setattr(cli, "picard_solve", spy)
    return calls


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


class TestBq:
    def test_log_threshold(self, capsys):
        code, out, _ = run(capsys, "bq", "--s", "0.2", "--gamma", "1",
                           "--q", "0.625")
        assert code == 0
        data = json.loads(out)
        assert data["regime"] == "log"
        assert data["log_exponent"] == pytest.approx(1.6, rel=1e-12)

    def test_out_of_range_q_exits_2(self, capsys):
        code, _, _ = run(capsys, "bq", "--s", "0.2", "--gamma", "1", "--q", "3")
        assert code == 2

    def test_zero_dimension_exits_2(self, capsys):
        code, _, err = run(capsys, "bq", "--N", "0", "--s", "0.2", "--q", "0.5")
        assert code == 2
        assert "dimension N" in err


class TestVerifyKernel:
    def test_synthetic_report(self, capsys):
        code, out, _ = run(capsys, "verify-kernel", "--s", "0.2", "--gamma", "1",
                           "--n-samples", "1000")
        assert code == 0
        data = json.loads(out)
        assert data["violations"] == 0
        assert data["c1_hat"] == pytest.approx(1.0, abs=1e-12)

    def test_spectral_rejects_gamma_other_than_1(self, capsys):
        code, _, err = run(capsys, "verify-kernel", "--backend", "spectral", "--s", "0.2",
                           "--gamma", "0.5", "--n", "64", "--n-samples", "100")
        assert code == 2
        assert "gamma = 1" in err


class TestGreenNorm:
    def test_power_regime_slope(self, capsys):
        code, out, _ = run(capsys, "green-norm", "--s", "0.2", "--gamma", "1",
                           "--q", "1", "--n", "500")
        assert code == 0
        data = json.loads(out)
        assert data["regime"] == "power"
        assert data["predicted_slope"] == pytest.approx(0.4, rel=1e-12)
        assert data["slope"] == pytest.approx(0.4, abs=0.1)

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
        assert main(args) == 0
        capsys.readouterr()
        assert (tmp_path / "solution.csv").read_text() == sol

    def test_bad_n_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "solve", "--s", "0.2", "--gamma", "1",
                         "--p", "0.5", "--n", "63", "--out-dir", str(tmp_path))
        assert code == 2

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

    @pytest.mark.parametrize("case", UNFILLABLE_FIT_WINDOWS, ids=UNFILLABLE_IDS)
    def test_unfillable_fit_window_exits_2_before_solving(self, capsys, tmp_path,
                                                          monkeypatch, case):
        calls = record_solves(monkeypatch)
        code, _, err = run(capsys, "solve", *solve_flags(case), "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error:")
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

    def test_unusable_out_dir_exits_2_before_building(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "assemble", lambda kernel, grid: calls.append(grid))
        (tmp_path / "file").write_text("")
        code, _, err = run(capsys, "eigen", "--backend", "synthetic", "--s", "0.2",
                           "--n", "400", "--out-dir", str(tmp_path / "file" / "sub"))
        assert code == 2
        assert err.startswith("error:")
        assert calls == []


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
                    {**SMALL_CASE, "tol": float("nan")}):  # written as NaN, which json reads
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

    @pytest.mark.parametrize("config", [
        [1, 2],
        {"cases": 5},
        {"cases": [SMALL_CASE], "out_dir": 5},
    ], ids=["array", "cases-not-a-list", "out-dir-not-a-string"])
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
        cases = [SMALL_CASE,
                 {**SMALL_CASE, "s": 0.3, "gamma": 0.5},
                 {**SMALL_CASE, "s": 0.15, "p": 0.25}]
        cfg = write_config(tmp_path, cases)
        assert main(["study", "--config", cfg, "--jobs", "1"]) == 0
        capsys.readouterr()
        serial = (tmp_path / "study.csv").read_text()
        assert main(["study", "--config", cfg, "--jobs", "2"]) == 0
        capsys.readouterr()
        assert (tmp_path / "study.csv").read_text() == serial

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

        def fail_one(case):  # pool workers are forked and inherit the patch
            if case.params.s == 0.3:
                raise ConvergenceError("did not converge", 1.0)
            return solve(case)
        monkeypatch.setattr(cli, "_run", fail_one)
        code, out, err = run(capsys, "study", "--config", cfg, "--jobs", jobs)
        assert code == 3
        assert "case 1" in err
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == json.loads(out)
        assert summary["errors"] == [{"case": 1, "error": "ConvergenceError: did not converge"}]
        assert summary["n_cases"] == 3
        assert (tmp_path / "study.csv").read_text().splitlines() == [full[0], full[1], full[3]]


class TestCaseFields:
    def test_documented_configs_parse(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        example = re.search(r"A study config is JSON:\n\n```json\n(.*?)```", readme, re.S)
        shipped = json.loads((ROOT / "configs" / "acceptance.json").read_text())
        for case in json.loads(example.group(1))["cases"] + shipped["cases"]:
            cli._parse_case(case)

    def test_readme_table_lists_the_fields(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(\w+)` \| (\w+) \| ([^|]+) \|", readme, re.M)
        documented = {name: (kind, default.strip()) for name, kind, default in rows}
        fields = {name: (kind, "required" if default is cli._REQUIRED
                         else json.dumps(default))
                  for name, (kind, default) in cli._CASE_FIELDS.items()}
        assert documented == fields
