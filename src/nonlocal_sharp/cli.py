"""Command-line driver: predictions, solves, parameter studies, reports.

Exit codes: 0 success; 2 argument or configuration validation failure,
found before any solve (a case is validated by building its mesh and all
its run needs but the operator, fit and Harnack windows included); 3 run-time
failure of a valid case, one of `_RUN_ERRORS`: non-convergence or a broken
solver certificate (RuntimeError), memory, arithmetic, or a numerical check
(ValueError raised while running).  No failure path exits 1.
All file outputs are written atomically (temporary file + rename) with
deterministic formatting: floats at 17 significant digits, '.' decimal
separator, '\\n' line endings, JSON with stable key order.
A CLI process, `main()` with no argv, freezes its import heap at entry
(`gc.freeze`), so the collections at its exit and in its forked study
workers skip that heap; an in-process `main(argv)` leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import sys
import tempfile
import time
from functools import partial
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from .eigen import (check_eigen_request, eigenfunction_boundary_report, leading_eigenpairs,
                    ratio_window)
from .exponents import ExponentPrediction, ProblemParams, classify_bq, nu_case_machine, predict_mu
from .fitting import _least_squares, fit_report, fit_window
from .grids import graded_mesh
from .operators import (_check_samples, _check_spectral_grid, assemble, check_kernel_bounds,
                        green_q_norm_profile, spectral_mt_operator, synthetic_k5)
from .solver import (DEFAULT_TOL, ConvergenceError, SemilinearSolution, SolverConfig,
                     harnack_report, harnack_window, picard_solve)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# a case's identity: the fields that name it in every output
_CASE_KEYS = ("s", "gamma", "p", "backend", "n")
# the study.csv columns: every field of a case's run row but bracket_gap, in its order
STUDY_COLUMNS = (*_CASE_KEYS, "mu_pred", "mu_hat", "r2", "regime", "log_exp_pred",
                 "log_exp_hat", "ghp_ratio", "iterations", "residual")


def _fmt(x) -> str:
    """Deterministic float formatting at 17 significant digits; strings pass through."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    umask = os.umask(0)  # the umask is read by setting it: put it back at once
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp's 0600 -> the mode open() gives a new file
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)] + [",".join(_fmt(x) for x in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _without_none(out: dict) -> dict:
    return {k: v for k, v in out.items() if v is not None}


# ---------------------------------------------------------------- case running

_REQUIRED = object()
# name -> (JSON type, default); the README's table of case fields mirrors it
_CASE_FIELDS = {
    "backend": ("string", _REQUIRED),
    "s": ("number", _REQUIRED),
    "gamma": ("number", _REQUIRED),
    "p": ("number", _REQUIRED),
    "n": ("integer", _REQUIRED),
    "beta_g": ("number", 3.0),
    "tol": ("number", DEFAULT_TOL),
    "force_critical": ("boolean", False),
}
# the study config's top level, read by the same rules as a case
_CONFIG_FIELDS = {"cases": ("array", _REQUIRED), "out_dir": ("string", ".")}
_JSON_TYPES = {"string": str, "number": (int, float), "integer": int, "boolean": bool,
               "array": list}

# The run-time failures of a valid case, exit 3: non-convergence and broken
# certificates (RuntimeError), numerical checks such as the fit's positive
# values (ValueError), ArithmeticError and MemoryError.  Anything else is a bug.
_RUN_ERRORS = (RuntimeError, ValueError, ArithmeticError, MemoryError)


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _operator_plan(backend: str, params: ProblemParams, n: int, beta_g: float | None):
    """Check that a backend runs these parameters, and build its mesh.

    Returns (grid, build): build() makes the operator, the expensive step,
    which a caller defers until its other checks have passed.  The spectral
    backend has gamma = 1 by construction and runs on the uniform mesh, so
    it ignores beta_g, None in a case's key, with n a multiple of 4; the
    synthetic needs s < 1/2.
    """
    if backend == "spectral":
        if params.gamma != 1.0:
            raise ValueError("spectral backend has gamma = 1 by construction")
        grid = graded_mesh(n, 1.0)
        _check_spectral_grid(grid)
        return grid, partial(spectral_mt_operator, params.s, grid)
    if backend == "synthetic":
        kernel = synthetic_k5(params)
        grid = graded_mesh(n, beta_g)
        return grid, partial(assemble, kernel, grid)
    raise ValueError(f"unknown backend {backend!r}")


class _Case(NamedTuple):
    """A validated case as plain values, no mesh; the first four fix its operator."""

    backend: str
    params: ProblemParams
    n: int
    beta_g: float | None  # None on the spectral backend, which ignores it
    solver: SolverConfig
    prediction: ExponentPrediction
    operator = property(lambda case: case[:4])  # its operator's key: `_operator_plan`'s arguments


def _field(obj: dict, fields: dict, name: str, what: str):
    kind, default = fields[name]
    if name not in obj:
        if default is _REQUIRED:
            raise ValueError(f"{what} missing required field {name!r}")
        return default
    value = obj[name]
    # bool is an int in Python, but a JSON boolean is no number
    if not isinstance(value, _JSON_TYPES[kind]) or isinstance(value, bool) != (kind == "boolean"):
        raise ValueError(f"{what} field {name!r} must be a JSON {kind}, got {value!r}")
    if kind != "number":
        return value
    if not abs(value) <= sys.float_info.max:  # NaN, infinity, or an integer no double holds
        raise ValueError(f"{what} field {name!r} must be a finite number, got {value!r}")
    return float(value)


def _read_fields(obj, fields: dict, what: str) -> dict:
    """The fields of a JSON object, by a table of name -> (JSON type, default).

    Unknown fields, missing required ones and values of another JSON type
    are rejected with ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a {what} must be a JSON object")
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise ValueError(f"unknown {what} field {unknown[0]!r}; "
                         f"the fields are {', '.join(fields)}")
    return {name: _field(obj, fields, name, what) for name in fields}


def _parse_case(case) -> _Case:
    """Validate a case dict by building what its run needs, short of the operator.

    This is the one place a case's fields are read.  Unknown fields,
    missing required ones and values of another JSON type are rejected;
    then the library's own checks run as the parameters, mesh, backend,
    solver settings and prediction are built, and the fit and Harnack
    windows are taken on the mesh, so a case whose fit or Harnack report
    could not run fails before it solves.  The mesh is dropped: a run makes
    it again where it builds.  Raises ValueError.
    """
    f = _read_fields(case, _CASE_FIELDS, "case")
    params = ProblemParams(s=f["s"], gamma=f["gamma"])
    grid, _ = _operator_plan(f["backend"], params, f["n"], f["beta_g"])
    solver = SolverConfig(p=f["p"], tol=f["tol"])
    prediction = predict_mu(params.s, params.gamma, solver.p,
                            force_critical=f["force_critical"])
    fit_window(grid, prediction.regime == "critical")
    harnack_window(grid)
    # the spectral backend runs on the uniform mesh whatever beta_g says
    beta_g = f["beta_g"] if f["backend"] == "synthetic" else None
    return _Case(f["backend"], params, f["n"], beta_g, solver, prediction)


def _run(case: _Case, op) -> tuple[dict, SemilinearSolution]:
    """A case solved on its operator: its result row, of plain values only, and its solution."""
    sol = picard_solve(op, case.solver)
    pred = case.prediction
    rep = fit_report(sol.u, op.grid, pred)
    ghp = harnack_report(sol.u, op.grid, pred)
    return {
        "s": case.params.s, "gamma": case.params.gamma, "p": case.solver.p,
        "backend": case.backend, "n": case.n,
        "mu_pred": pred.mu, "mu_hat": rep.mu_hat, "r2": rep.r2,
        "regime": pred.regime,
        "log_exp_pred": pred.log_exponent, "log_exp_hat": rep.log_exp_hat,
        "ghp_ratio": ghp.global_ratio,
        "iterations": sol.iterations, "residual": sol.residual,
        "bracket_gap": sol.bracket_gap,
    }, sol


def run_case(case: dict) -> dict:
    """Solve one study case: its result row, and its solution under "_solution".

    The solution rides in the row only for perfbench/run.py's traced replay, which reads it.
    """
    case = _parse_case(case)
    _, build = _operator_plan(*case.operator)
    row, sol = _run(case, build())
    return {**row, "_solution": sol}


def _attempt(step: Callable) -> tuple:
    """(step(), None), or (None, failure) if it raised one of _RUN_ERRORS.

    The one place a run's errors are caught, for `solve`, the serial study
    loop and the forked workers alike.  The failure is {"error": text,
    "residual": r}, r the last residual of a ConvergenceError, else None:
    plain values, because a ConvergenceError does not survive unpickling.
    """
    try:
        return step(), None
    except _RUN_ERRORS as exc:
        residual = exc.residual if isinstance(exc, ConvergenceError) else None
        return None, {"error": _error_text(exc), "residual": residual}


def _group_outcomes(group: list[_Case]) -> list[tuple]:
    """The (row, failure) of each case of a group that shares one operator, in order.

    The mesh and operator are made here, once, from the group's operator
    key, and every case runs on them, each caught on its own, so one
    failing case keeps the rows of the others; a failed build fails every
    case with its text.  The solutions are dropped here, so a worker
    pickles and sends, and the study process holds, no solution vector.
    """
    _, build = _operator_plan(*group[0].operator)
    op, failure = _attempt(build)
    if failure is not None:
        return [(None, failure)] * len(group)
    return [_attempt(lambda: _run(case, op)[0]) for case in group]


class WorkerLost(RuntimeError):
    """A study worker could not be started, died, or exited with a status other than 0: exit 3."""


class _WorkerTraceback(Exception):
    """The traceback, as text, of an exception a study worker raised: its cause."""


def _fork_map(fn: Callable, tasks: list, jobs: int) -> list:
    """[fn(task) for task in tasks], run in min(jobs, len(tasks)) forked workers.

    The workers share one task pipe.  The parent writes every task index
    into it, in order, then closes it, and runs no task itself, so the
    study process never holds an operator; an idle worker reads the next
    index.  An index is 4 bytes, below PIPE_BUF, so each write is atomic
    and each read takes one whole index.  At end of file a worker sends
    (True, [(index, outcome), ...]) once through its own result pipe and
    leaves by os._exit, so no atexit handler or buffered output of the
    parent runs twice; a task that raised is sent at once, as (False,
    (exception, traceback text)), and re-raised here.  A worker that cannot
    be started (os.pipe or os.fork failed), dies, or exits with a status
    other than 0, as when its outcomes do not pickle, raises WorkerLost; so
    does a task index that no live worker is left to take.  On any
    exception every worker is killed and reaped.
    """
    import select
    import signal

    results = [None] * len(tasks)
    workers = {}  # result pipe's read end -> pid
    ends = []  # the task pipe's ends and a new result pipe's, while the parent holds them
    try:
        try:  # an OSError here is no validation error: the study has begun
            ends += os.pipe()
            for _ in range(min(jobs, len(tasks))):
                ends += os.pipe()
                pid = os.fork()
                task_r, task_w, result_r, result_w = ends
                if pid == 0:  # the worker: keep the shared task end and its own result end
                    code = 1
                    try:
                        for fd in (task_w, result_r, *workers):
                            os.close(fd)
                        sent = True, []
                        while index := os.read(task_r, 4):
                            i = int.from_bytes(index, "little")
                            try:
                                sent[1].append((i, fn(tasks[i])))
                            except Exception as exc:  # a bug: the parent raises it
                                import traceback

                                sent = False, (exc, traceback.format_exc())
                                break
                        with open(result_w, "wb") as outbox:
                            pickle.dump(sent, outbox, protocol=pickle.HIGHEST_PROTOCOL)
                        code = 0
                    finally:
                        os._exit(code)
                os.close(ends.pop())
                workers[ends.pop()] = pid
        except OSError as exc:
            raise WorkerLost(f"a study worker could not be started: {exc}") from exc
        os.close(ends.pop(0))  # now a write that no live worker can read fails
        try:
            for i in range(len(tasks)):
                os.write(ends[0], i.to_bytes(4, "little"))
        except BrokenPipeError as exc:
            raise WorkerLost("every study worker exited before the tasks ran out") from exc
        os.close(ends.pop())  # each worker reads the end of file once the tasks run out
        poll = select.poll()
        for fd in workers:
            poll.register(fd, select.POLLIN)
        while workers:
            for fd, _ in poll.poll():
                data = b"".join(iter(partial(os.read, fd, 1 << 16), b""))  # to end of file
                poll.unregister(fd)
                os.close(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(workers.pop(fd), 0)[1])
                if code != 0:  # below 0: the negated number of the signal that killed it
                    raise WorkerLost(f"a study worker died or sent no result (exit code {code})")
                ok, outcome = pickle.loads(data)
                if not ok:
                    exc, text = outcome
                    raise exc from _WorkerTraceback(text)
                for i, result in outcome:
                    results[i] = result
    except BaseException:
        for pid in workers.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in (*ends, *workers):
            os.close(fd)
        for pid in workers.values():
            os.waitpid(pid, 0)
    return results


# ----------------------------------------------------------------- subcommands

def cmd_predict(args) -> int:
    pred = predict_mu(args.s, args.gamma, args.p, force_critical=args.force_critical)
    case = nu_case_machine(args.s, args.gamma, 1.0 / args.p,
                           force_critical=args.force_critical)
    out = {**pred._asdict(), "case_label": case.label,
           "nu_1": case.nu_1, "nu_infinity": case.nu_infinity}
    sys.stdout.write(_json_text(_without_none(out)))
    return EXIT_OK


def cmd_solve(args) -> int:
    fields = {name: getattr(args, name) for name in _CASE_FIELDS}
    case = _parse_case(fields)
    os.makedirs(args.out_dir, exist_ok=True)
    fit_path = os.path.join(args.out_dir, "fit.json")
    csv_path = os.path.join(args.out_dir, "solution.csv")
    for path in (fit_path, csv_path):  # no work starts for an output that cannot be written
        if os.path.lexists(path) and not os.path.isfile(path):
            raise ValueError(f"output path {path} exists and is not a regular file")
    start = time.perf_counter()  # wall_ms: the mesh, build, solve, fit and Harnack report
    grid, build = _operator_plan(*case.operator)
    ran, failure = _attempt(lambda: _run(case, build()))
    if failure is not None:
        _atomic_write(fit_path, _json_text({**failure, **{k: fields[k] for k in _CASE_KEYS}}))
        print(f"error: {failure['error']}", file=sys.stderr)
        return EXIT_NUMERICAL
    row, sol = ran
    wall_ms = (time.perf_counter() - start) * 1e3
    _write_csv(csv_path, ("x", "delta", "u"), zip(grid.nodes, grid.delta, sol.u))
    _atomic_write(fit_path, _json_text({**row, "wall_ms": wall_ms}))
    return EXIT_OK


def cmd_study(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        try:
            config = _read_fields(json.load(fh), _CONFIG_FIELDS, "study config")
        except RecursionError as exc:  # a RuntimeError: exit 3 otherwise
            raise ValueError(f"study config nested too deeply: {exc}") from exc
    cases = config["cases"]
    if not cases:
        raise ValueError("study config contains no cases: 'cases' must be a non-empty list")
    out_dir = config["out_dir"] if args.out_dir is None else args.out_dir
    parsed = []
    for i, case in enumerate(cases):
        try:
            parsed.append(_parse_case(case))
        except ValueError as exc:
            raise ValueError(f"case {i}: {exc}") from exc

    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "study.csv")
    summary_path = os.path.join(out_dir, "summary.json")
    for path in (csv_path, summary_path):  # no work starts for an output that cannot be written
        if os.path.lexists(path) and not os.path.isfile(path):
            raise ValueError(f"output path {path} exists and is not a regular file")

    # One task per operator: its cases as parsed, plain values, so it sends no mesh.  The
    # largest n go out first, so none is left to run alone at the end; equal n keep order.
    # A single task, or --jobs 1, runs here; else forked workers run them all.
    groups = {}
    for i, case in enumerate(parsed):
        groups.setdefault(case.operator, []).append(i)
    order = sorted(groups.values(), key=lambda group: -parsed[group[0]].n)
    tasks = [[parsed[i] for i in group] for group in order]
    if args.jobs == 1 or len(tasks) == 1:
        results = map(_group_outcomes, tasks)
    else:
        results = _fork_map(_group_outcomes, tasks, args.jobs)
    # back to input order: the case indices are unique, so no outcome is compared
    outcomes = [outcome for _, outcome in sorted(zip(chain(*order), chain(*results)))]
    rows = [row for row, _ in outcomes if row is not None]
    errors = [{"case": i, "error": failure["error"]}
              for i, (_, failure) in enumerate(outcomes) if failure is not None]

    _write_csv(csv_path, STUDY_COLUMNS, ([r[name] for name in STUDY_COLUMNS] for r in rows))

    summary = {"n_cases": len(cases)}
    if rows:
        non_critical = [r for r in rows if r["regime"] != "critical"]
        pool_rows = non_critical or rows
        errs = [abs(r["mu_hat"] - r["mu_pred"]) for r in pool_rows]
        worst = int(np.argmax(errs))
        summary["max_abs_err"] = float(max(errs))
        summary["worst_case"] = {k: pool_rows[worst][k]
                                 for k in (*_CASE_KEYS, "mu_pred", "mu_hat")}
    if errors:
        summary["errors"] = errors
    _atomic_write(summary_path, _json_text(summary))
    sys.stdout.write(_json_text(summary))
    for err in errors:
        print(f"error: case {err['case']}: {err['error']}", file=sys.stderr)
    return EXIT_NUMERICAL if errors else EXIT_OK


def cmd_eigen(args) -> int:
    grid, build = _operator_plan(args.backend, ProblemParams(s=args.s, gamma=args.gamma),
                                 args.n, args.beta_g)
    check_eigen_request(grid.n, args.n_eigs, args.tol)
    ratio_window(grid)
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "eigenpairs.csv")
    ratios_path = os.path.join(args.out_dir, "boundary_ratios.json")
    for path in (csv_path, ratios_path):  # no work starts for an output that cannot be written
        if os.path.lexists(path) and not os.path.isfile(path):
            raise ValueError(f"output path {path} exists and is not a regular file")
    pairs = leading_eigenpairs(build(), n_eigs=args.n_eigs, tol=args.tol)
    ratios = eigenfunction_boundary_report(pairs, grid, args.gamma)
    _write_csv(csv_path, ("index", "mu", "lambda", "residual"),
               ((pair.index, pair.mu, 1.0 / pair.mu, pair.residual) for pair in pairs))
    _atomic_write(ratios_path, _json_text([r._asdict() for r in ratios]))
    sys.stdout.write(_json_text({"mu_1": pairs[0].mu, "n_pairs": len(pairs)}))
    return EXIT_OK


def cmd_bq(args) -> int:
    cls = classify_bq(args.N, args.s, args.gamma, args.q)
    sys.stdout.write(_json_text(_without_none(cls._asdict())))
    return EXIT_OK


def cmd_green_norm(args) -> int:
    params = ProblemParams(s=args.s, gamma=args.gamma)
    kernel = synthetic_k5(params)
    grid = graded_mesh(args.n, args.beta_g)
    deltas, norms = green_q_norm_profile(kernel, grid, args.q)
    cls = classify_bq(1, args.s, args.gamma, args.q)
    if cls.log_exponent is not None:
        # at the threshold, divide out the factor (1 + |log delta|^{1/q}) first
        norms = norms / (1.0 + np.abs(np.log(deltas)) ** cls.log_exponent)
    slope, r2 = _least_squares(np.log(deltas), np.log(norms))
    out = {"slope": slope, "r2": r2,
           "n_points": int(deltas.size), "regime": cls.regime,
           "predicted_slope": args.gamma * cls.phi_exponent}
    sys.stdout.write(_json_text(out))
    return EXIT_OK


def cmd_verify_kernel(args) -> int:
    _check_samples(args.n_samples)
    _, build = _operator_plan(args.backend, ProblemParams(s=args.s, gamma=args.gamma), args.n,
                              _CASE_FIELDS["beta_g"][1])
    report = check_kernel_bounds(build(), n_samples=args.n_samples, seed=args.seed)
    sys.stdout.write(_json_text(report._asdict()))
    return EXIT_OK


# ---------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonlocal-sharp",
        description="Semilinear nonlocal Dirichlet solver and boundary-exponent toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p, with_p=True):
        p.add_argument("--s", type=float, required=True)
        p.add_argument("--gamma", type=float, default=1.0)
        if with_p:
            p.add_argument("--p", type=float, required=True)

    sp = sub.add_parser("predict", help="closed-form exponent prediction as JSON")
    add_params(sp)
    sp.add_argument("--force-critical", action="store_true")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("solve", help="solve one case; write solution CSV + fit JSON")
    add_params(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--beta-g", type=float, default=_CASE_FIELDS["beta_g"][1])
    sp.add_argument("--tol", type=float, default=_CASE_FIELDS["tol"][1])
    sp.add_argument("--backend", choices=["synthetic", "spectral"], default="synthetic")
    sp.add_argument("--force-critical", action="store_true")
    sp.add_argument("--out-dir", default=".")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("study", help="run a JSON config of cases; write study CSV + summary")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out-dir", default=None)  # else the config's out_dir, else "."
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=cmd_study)

    sp = sub.add_parser("eigen", help="leading eigenpairs + boundary ratios")
    add_params(sp, with_p=False)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--beta-g", type=float, default=_CASE_FIELDS["beta_g"][1])
    sp.add_argument("--n-eigs", type=int, default=1)
    sp.add_argument("--tol", type=float, default=_CASE_FIELDS["tol"][1])
    sp.add_argument("--backend", choices=["synthetic", "spectral"], default="spectral")
    sp.add_argument("--out-dir", default=".")
    sp.set_defaults(func=cmd_eigen)

    sp = sub.add_parser("bq", help="classify the L^q Green-norm regime")
    add_params(sp, with_p=False)
    sp.add_argument("--N", type=int, default=1)
    sp.add_argument("--q", type=float, required=True)
    sp.set_defaults(func=cmd_bq)

    sp = sub.add_parser("green-norm", help="fit the q-norm boundary slope")
    add_params(sp, with_p=False)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--n", type=int, default=2000)
    sp.add_argument("--beta-g", type=float, default=_CASE_FIELDS["beta_g"][1])
    sp.set_defaults(func=cmd_green_norm)

    sp = sub.add_parser("verify-kernel", help="sampled two-sided kernel bound report")
    add_params(sp, with_p=False)
    sp.add_argument("--backend", choices=["synthetic", "spectral"], default="synthetic")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--n-samples", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify_kernel)

    return parser


def main(argv=None) -> int:
    if argv is None:  # a CLI process: its exit's and its workers' collections skip the imports
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize other codes
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    # solve and study catch their run-time ValueErrors; any other is an argument error
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _RUN_ERRORS as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
