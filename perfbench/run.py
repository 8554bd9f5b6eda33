"""Benchmark entry point for nonlocal-sharp.

    python3 perfbench/run.py --workload acceptance --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing needs building.  Workloads are ``acceptance``,
``spectral-ladder``, ``p-sweep`` or ``all`` (each in turn).  Every process
runs with one BLAS/OpenMP thread.

``--trace 0`` times the workload as users run it, starting it again
until ``--seconds`` have passed, and reports end-to-end metrics: ``wall_s``
and ``peak_rss_mb`` (medians over the repeats) and ``setup_s`` (median
start-up time of ``nonlocal-sharp predict``, timed once before each repeat
and at least ``SETUP_RUNS`` times).  ``--trace 1`` runs the
workload once untraced, then replays its cases in this process, first
plainly and then with a span at every public call of the package, and
reports per-layer metrics.  ``--tiny`` shrinks every case to a size that
runs in seconds, for the smoke test.

Every run checks the program's outputs; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import (ACCEPTANCE_CONFIG, WORKLOADS, case_key, cases_of, dumps,
                       make_inputs)

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_ARGS = ["-m", "nonlocal_sharp.cli", "predict", "--s", "0.2", "--gamma", "1", "--p", "0.5"]
SETUP_RUNS = 5           # at least this many start-up samples per timed run
CHILD_TIMEOUT_S = 150
ACCEPTANCE_BAND = 0.03   # the shipped acceptance bound on max_abs_err
DRIFT_TOL = 1e-9         # allowed |mu_hat - mu_hat_ref|
MIB = 2 ** 20

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "grids.mesh_ms": "ms",
    "operators.assemble_s": "s",
    "operators.spectral_build_s": "s",
    "operators.operator_mb": "MB",
    "operators.build_rss_ratio": "ratio",
    "operators.apply_ms": "ms",
    "operators.apply_bytes_computed": "B",
    "operators.apply_calls": "count",
    "eigen.perron_s": "s",
    "solver.bracket_s": "s",
    "solver.iterate_s": "s",
    "solver.iterations": "count",
    "solver.residual": "rel",
    "solver.bracket_gap": "rel",
    "solver.harnack_ms": "ms",
    "fitting.fit_ms": "ms",
    "cli.case_s": "s",
    "cli.pool_efficiency": "ratio",
    "cli.import_s": "s",
    "cli.trace_overhead_s": "s",
}
# per-layer metrics summed from spans of this name; 0 means the layer is absent
SPAN_OF = {"grids.mesh_ms": "grids.graded_mesh",
           "operators.assemble_s": "operators.assemble",
           "operators.spectral_build_s": "operators.spectral_mt_operator",
           "eigen.perron_s": "eigen.leading_eigenpairs",
           "solver.bracket_s": "solver.auto_bracket",
           "solver.harnack_ms": "solver.harnack_report",
           "fitting.fit_ms": "fitting.fit_report"}


# ------------------------------------------------------------------ processes

def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def run_process(cmd: list[str], env: dict, cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run a child to its end: (exit code, wall seconds, peak RSS in MB).

    The peak RSS is the largest of the child and every descendant it
    waited for, such as pool workers.  On Linux it cannot read below this
    process's own peak RSS at the time of the spawn, so keep that small.  A child still running after
    CHILD_TIMEOUT_S is killed with its process group.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / MIB


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
    env.pop("NONLOCAL_SHARP_JOBS", None)  # would override --jobs
    return env


def environment() -> dict:
    """Machine, library and thread settings the figures depend on."""
    import numpy
    import scipy

    cpu_model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    llc_level, llc_size = 0, ""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError, ValueError):
            level = int((index / "level").read_text())
            if level >= llc_level:
                llc_level, llc_size = level, (index / "size").read_text().strip()

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "llc": f"L{llc_level} {llc_size}", "python": platform.python_version(),
            "numpy": numpy.__version__, "numpy_blas": blas(numpy),
            "scipy": scipy.__version__, "scipy_blas": blas(scipy),
            "threads": THREAD_ENV}


# ------------------------------------------------------------- output checks

def is_study(inputs: dict) -> bool:
    return "cases" in inputs


def workload_cmd(inputs: dict, run_dir: Path, rep_dir: Path) -> list[str]:
    if is_study(inputs):
        return [sys.executable, "-m", "nonlocal_sharp.cli", "study",
                "--config", str(run_dir / "config.json"), "--jobs", str(inputs["jobs"]),
                "--out-dir", str(rep_dir)]
    return [sys.executable, str(HERE / "psweep.py"), str(run_dir / "inputs.json"),
            str(rep_dir / "psweep.json")]


def read_rows(inputs: dict, rep_dir: Path) -> tuple[bytes, list[dict]]:
    """The raw result file of one workload process and its rows."""
    if is_study(inputs):
        raw = (rep_dir / "study.csv").read_bytes()
        rows = [{"mu_hat": float(r["mu_hat"]), "mu_pred": float(r["mu_pred"]),
                 "regime": r["regime"], "residual": float(r["residual"]),
                 "iterations": int(r["iterations"])}
                for r in csv.DictReader(raw.decode("utf-8").splitlines())]
        return raw, rows
    raw = (rep_dir / "psweep.json").read_bytes()
    return raw, json.loads(raw)["rows"]


def max_abs_err(rows: list[dict]) -> float:
    """max |mu_hat - mu_pred| over non-critical rows, as the study reports it."""
    pool = [r for r in rows if r["regime"] != "critical"] or rows
    return max(abs(r["mu_hat"] - r["mu_pred"]) for r in pool)


class Checks:
    """Per-case output checks; a case with any failed check counts as failed."""

    def __init__(self, inputs: dict, refs: dict | None):
        self.refs = refs
        self.cases = cases_of(inputs)
        self.attempted = 0
        self.failures: list[str] = []
        self.drift = 0.0

    def fail_all(self, reason: str) -> None:
        self.attempted += len(self.cases)
        self.failures += [f"case {i}: {reason}" for i in range(len(self.cases))]

    def rows(self, rows: list[dict], extra: dict[int, list[str]] | None = None) -> None:
        """Check one run's rows; ``extra`` adds failures found elsewhere."""
        self.attempted += len(self.cases)
        if len(rows) != len(self.cases):
            self.failures += [f"case {i}: {len(rows)} rows for {len(self.cases)} cases"
                              for i in range(len(self.cases))]
            return
        for i, (case, row) in enumerate(zip(self.cases, rows)):
            reasons = list((extra or {}).get(i, []))
            tol = float(case.get("tol", 1e-10))
            if not row["residual"] <= tol:
                reasons.append(f"residual {row['residual']!r} > tol {tol!r}")
            if self.refs is not None:
                ref = self.refs.get(case_key(case))
                if ref is None:
                    reasons.append("no reference mu_hat")
                else:
                    drift = abs(row["mu_hat"] - ref)
                    self.drift = max(self.drift, drift)
                    if not drift <= DRIFT_TOL:
                        reasons.append(f"mu_hat drift {drift!r} > {DRIFT_TOL}")
            if reasons:
                self.failures.append(f"case {i}: " + "; ".join(reasons))

    @property
    def failed(self) -> int:
        return len(self.failures)  # at most one entry per case and run


def run_workload(inputs, run_dir, env, root, checks, first_raw=None):
    """One untraced workload process with its output checks.

    Returns (wall seconds, peak RSS MB, raw result bytes, rows); rows is
    None when the process failed.
    """
    rep_dir = run_dir / "rep"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir()
    code, wall, rss = run_process(workload_cmd(inputs, run_dir, rep_dir), env, root,
                                  run_dir / "workload.log")
    if code != 0:
        checks.fail_all(f"exit code {code} (see workload.log)")
        return wall, rss, None, None
    raw, rows = read_rows(inputs, rep_dir)
    extra: dict[int, list[str]] = {}
    if first_raw is not None and raw != first_raw:
        for i in range(len(checks.cases)):
            extra.setdefault(i, []).append("result file differs from the first run")
    if inputs["workload"] == "acceptance" and not inputs["tiny"]:
        with open(rep_dir / "summary.json", encoding="utf-8") as fh:
            band_err = json.load(fh)["max_abs_err"]
        if not band_err <= ACCEPTANCE_BAND:
            worst = max((i for i, r in enumerate(rows) if r["regime"] != "critical"),
                        key=lambda i: abs(rows[i]["mu_hat"] - rows[i]["mu_pred"]))
            extra.setdefault(worst, []).append(
                f"summary max_abs_err {band_err!r} > band {ACCEPTANCE_BAND}")
    checks.rows(rows, extra)
    return wall, rss, raw, rows


# ------------------------------------------------------------------- timed run

def time_setup(env, root, log: Path) -> float:
    code, wall, _ = run_process([sys.executable, *SETUP_ARGS], env, root, log)
    if code != 0:
        raise RuntimeError(f"start-up probe exited {code}; see {log.name}")
    return wall


def timed(inputs, run_dir, env, root, seconds, checks) -> tuple[dict, dict]:
    # Start-up samples go between the workload runs, so that they see the
    # same stretch of machine speed, which drifts over seconds to minutes.
    setup, walls, rss, first_raw, rows = [], [], [], None, None
    start = time.perf_counter()
    while True:
        setup.append(time_setup(env, root, run_dir / "setup.log"))
        wall, peak, raw, rep_rows = run_workload(inputs, run_dir, env, root, checks, first_raw)
        walls.append(wall)
        rss.append(peak)
        if raw is not None:
            first_raw = first_raw or raw
            rows = rep_rows
        if time.perf_counter() - start >= seconds:
            break
    while len(setup) < SETUP_RUNS:
        setup.append(time_setup(env, root, run_dir / "setup.log"))
    metrics = {"wall_s": statistics.median(walls), "peak_rss_mb": statistics.median(rss),
               "setup_s": statistics.median(setup)}
    notes = {"wall_s": f"median of {len(walls)} runs", "peak_rss_mb": f"median of {len(rss)} runs",
             "setup_s": f"median of {len(setup)} runs"}
    details = {"walls_s": walls, "peak_rss_mb": rss, "setup_s": setup,
               "max_abs_err": max_abs_err(rows) if rows else None, "notes": notes}
    return metrics, details


# ------------------------------------------------------------------ traced run

def replay(inputs: dict, tracer=None) -> list[dict]:
    """Run the workload's cases in this process, one after another."""
    scope = tracer.case if tracer else (lambda case_id: contextlib.nullcontext())
    if not is_study(inputs):
        import psweep
        return psweep.run(inputs, scope)
    from nonlocal_sharp import cli

    rows = []
    for i, case in enumerate(inputs["cases"]):
        with scope(i):
            row = cli.run_case(case)
        rows.append({"mu_hat": row["mu_hat"], "mu_pred": row["mu_pred"],
                     "regime": row["regime"], "residual": row["residual"],
                     "iterations": row["iterations"],
                     "bracket_gap": row["_solution"].bracket_gap})
    return rows


def largest_case(inputs: dict) -> dict:
    return max(sorted(cases_of(inputs), key=case_key), key=lambda c: int(c["n"]))


def traced(inputs, run_dir, env, root, checks) -> tuple[dict, dict]:
    from tracing import Tracer

    untraced_wall, _, _, untraced_rows = run_workload(inputs, run_dir, env, root, checks)

    sys.path.insert(0, str(root / "src"))
    import nonlocal_sharp
    if Path(nonlocal_sharp.__file__).resolve().parent != (root / "src" / "nonlocal_sharp").resolve():
        raise RuntimeError(f"imported nonlocal_sharp from {nonlocal_sharp.__file__}")

    start = time.perf_counter()
    plain_rows = replay(inputs)
    plain_wall = time.perf_counter() - start
    tracer = Tracer()
    restore = tracer.install("nonlocal_sharp")
    try:
        start = time.perf_counter()
        rows = replay(inputs, tracer)
        traced_wall = time.perf_counter() - start
    finally:
        restore()
    tracer.write(run_dir / "spans.jsonl")

    # the traced exponents must equal the untraced process's output exactly
    extra: dict[int, list[str]] = {}
    for i, row in enumerate(rows):
        for label, other in (("untraced process", untraced_rows), ("plain replay", plain_rows)):
            if other is not None and (i >= len(other) or other[i]["mu_hat"] != row["mu_hat"]):
                extra.setdefault(i, []).append(f"traced mu_hat differs from the {label}")
    checks.rows(rows, extra)

    (run_dir / "probe_case.json").write_text(dumps(largest_case(inputs)), encoding="utf-8")
    code, _, _ = run_process([sys.executable, str(HERE / "probe.py"), str(run_dir / "probe_case.json"),
                              str(run_dir / "probe.json")], env, root, run_dir / "probe.log")
    if code != 0:
        raise RuntimeError(f"probe exited {code}; see probe.log")
    probe = json.loads((run_dir / "probe.json").read_text(encoding="utf-8"))

    metrics = {name: tracer.total_s(span) * (1e3 if name.endswith("_ms") else 1.0)
               for name, span in SPAN_OF.items()}
    case_s = tracer.total_s("case")
    metrics.update({
        "operators.operator_mb": probe["operator_bytes"] / MIB,
        "operators.build_rss_ratio": probe["build_rss_ratio"],
        "operators.apply_ms": probe["apply_ms"],
        "operators.apply_bytes_computed": probe["apply_bytes_computed"],
        "operators.apply_calls": tracer.count("operators.apply"),
        "solver.iterate_s": tracer.total_s("solver.picard_solve", minus_child="solver.auto_bracket"),
        "solver.iterations": sum(r["iterations"] for r in rows),
        "solver.residual": max(r["residual"] for r in rows),
        "solver.bracket_gap": max(r["bracket_gap"] for r in rows),
        "cli.case_s": case_s,
        "cli.pool_efficiency": case_s / (inputs["jobs"] * untraced_wall),
        "cli.import_s": probe["import_s"],
        "cli.trace_overhead_s": traced_wall - plain_wall,
    })
    metrics = {name: metrics[name] for name in PER_LAYER_UNITS}
    notes = {name: "absent: no calls in this workload"
             for name, span in SPAN_OF.items() if tracer.count(span) == 0}
    notes.update({
        "operators.apply_ms": f"median of {probe['apply_samples']} calls at n = {probe['n']}",
        "operators.apply_bytes_computed": "computed as 8 n^2, not measured",
        "operators.build_rss_ratio": f"fresh process, largest case (n = {probe['n']})",
        "cli.pool_efficiency": f"cli.case_s / ({inputs['jobs']} jobs x untraced wall "
                               f"{untraced_wall:.3f} s)",
        "cli.trace_overhead_s": f"traced {traced_wall:.3f} s - plain {plain_wall:.3f} s replay",
    })
    details = {"untraced_wall_s": untraced_wall, "plain_replay_s": plain_wall,
               "traced_replay_s": traced_wall, "spans": len(tracer.spans), "probe": probe,
               "max_abs_err": max_abs_err(rows), "notes": notes}
    return metrics, details


# ----------------------------------------------------------------------- main

def load_refs(tiny: bool) -> dict | None:
    """Reference exponents of the seed commit; tiny cases have none."""
    if tiny:
        return None
    path = HERE / "baseline.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get("mu_hat_ref", {})


def run_one(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, root: Path) -> bool:
    name = f"{workload}-seed{seed}-trace{int(trace)}" + ("-tiny" if tiny else "")
    run_dir = root / OUT_DIR / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = make_inputs(workload, seed, root, tiny)
    (run_dir / "inputs.json").write_text(dumps(inputs), encoding="utf-8")
    if is_study(inputs):
        (run_dir / "config.json").write_text(dumps({"cases": inputs["cases"]}), encoding="utf-8")

    env = child_env(root)
    checks = Checks(inputs, load_refs(tiny))
    if trace:
        metrics, details = traced(inputs, run_dir, env, root, checks)
        units = PER_LAYER_UNITS
    else:
        metrics, details = timed(inputs, run_dir, env, root, seconds, checks)
        units = END_TO_END_UNITS

    failed = checks.failed
    correct = failed == 0
    drift = "n/a (tiny cases have no reference)" if checks.refs is None else repr(checks.drift)
    mode = "traced replay" if trace else "timed, tracing off"
    print(f"# {workload} seed={seed} ({mode}); outputs in {OUT_DIR}/{name}")
    for metric, value in metrics.items():
        note = details["notes"].get(metric, "")
        print(f"  {metric:<32} {value!r:>24} {units[metric]:<6} {note}")
    print(f"  {'max_abs_err':<32} {details['max_abs_err']!r:>24} {'1':<6} "
          f"non-critical rows; band {ACCEPTANCE_BAND} gated on acceptance only")
    print(f"  {'mu_drift_max':<32} {drift:>24} {'1':<6} vs baseline.json, tol {DRIFT_TOL}")
    print(f"  {'failed_frac':<32} {failed / checks.attempted!r:>24} {'ratio':<6} "
          f"{failed} of {checks.attempted} cases")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    result = {"correct": correct, "attempted": checks.attempted, "failed": failed,
              "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
    # after the timed children: importing numpy here raises this process's peak
    # RSS, which a child started afterwards inherits as its ru_maxrss floor
    (run_dir / "env.json").write_text(dumps(environment()), encoding="utf-8")
    (run_dir / "result.json").write_text(dumps(dict(result, details=details,
                                                    failures=checks.failures)), encoding="utf-8")
    print(json.dumps(result), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every case to a smoke-test size")
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in (Path("src") / "nonlocal_sharp" / "cli.py", ACCEPTANCE_CONFIG)
               if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of a nonlocal-sharp checkout; missing "
              f"{', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is imported here
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = [run_one(w, args.seed, args.seconds, bool(args.trace), args.tiny, root) for w in workloads]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
