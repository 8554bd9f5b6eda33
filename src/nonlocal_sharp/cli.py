"""Command-line driver: predictions, solves, parameter studies, reports.

Exit codes: 0 success; 2 argument or configuration validation failure,
found before any solve (a case is validated by building everything its run
needs but the operator, its fit window included); 3 run-time failure of a
valid case, one of `_RUN_ERRORS`: non-convergence or a broken solver
certificate (RuntimeError), memory, arithmetic, or a numerical check
(ValueError raised while running).  No failure path exits 1.
All file outputs are written atomically (temporary file + rename) with
deterministic formatting: floats at 17 significant digits, '.' decimal
separator, '\\n' line endings, JSON with stable key order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .eigen import check_eigen_request, eigenfunction_boundary_report, leading_eigenpairs
from .exponents import ExponentPrediction, classify_bq, nu_case_machine, predict_mu
from .fitting import fit_report, fit_window
from .grids import Grid, graded_mesh
from .kernels import ProblemParams, check_kernel_bounds, synthetic_k5
from .operators import assemble, green_q_norm_profile, spectral_mt_operator
from .solver import ConvergenceError, SolverConfig, harnack_report, picard_solve

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# the study.csv columns, each read from the run row of the same name
STUDY_COLUMNS = ("s", "gamma", "p", "backend", "n", "mu_pred", "mu_hat", "r2", "regime",
                 "log_exp_pred", "log_exp_hat", "ghp_ratio", "iterations", "residual",
                 "wall_ms")


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
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _prediction_json(s: float, gamma: float, p: float, force_critical: bool) -> dict:
    pred = predict_mu(s, gamma, p, force_critical=force_critical)
    case = nu_case_machine(s, gamma, 1.0 / p, force_critical=force_critical)
    out = {"mu": pred.mu, "sigma": pred.sigma, "regime": pred.regime,
           "case_label": case.label}
    if pred.log_exponent is not None:
        out["log_exponent"] = pred.log_exponent
    if case.nu_1 is not None:
        out["nu_1"] = case.nu_1
    if case.nu_infinity is not None:
        out["nu_infinity"] = case.nu_infinity
    return out


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
    "tol": ("number", 1e-10),
    "force_critical": ("boolean", False),
}
_JSON_TYPES = {"string": str, "number": (int, float), "integer": int, "boolean": bool}

# The run-time failures of a valid case, exit 3: non-convergence and broken
# certificates (RuntimeError), numerical checks such as the fit's positive
# values (ValueError), ArithmeticError and MemoryError.  Anything else is a bug.
_RUN_ERRORS = (RuntimeError, ValueError, ArithmeticError, MemoryError)


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _operator_plan(backend: str, params: ProblemParams, n: int, beta_g: float):
    """Check that a backend runs these parameters, and build its mesh.

    Returns (grid, build): build() makes the operator, the expensive step,
    which a caller defers until its other checks have passed.  The spectral
    backend has gamma = 1 by construction and runs on the uniform mesh, so
    it ignores beta_g; the synthetic one needs s < 1/2.
    """
    if backend == "spectral":
        if params.gamma != 1.0:
            raise ValueError("spectral backend has gamma = 1 by construction")
        grid = graded_mesh(n, 1.0)
        return grid, partial(spectral_mt_operator, params.s, grid)
    if backend == "synthetic":
        kernel = synthetic_k5(params)
        grid = graded_mesh(n, beta_g)
        return grid, partial(assemble, kernel, grid)
    raise ValueError(f"unknown backend {backend!r}")


class _Case(NamedTuple):
    """A validated case: everything its run needs except the operator."""

    backend: str
    params: ProblemParams
    grid: Grid
    build: Callable
    solver: SolverConfig
    prediction: ExponentPrediction


def _field(case: dict, name: str):
    kind, default = _CASE_FIELDS[name]
    if name not in case:
        if default is _REQUIRED:
            raise ValueError(f"case missing required field {name!r}")
        return default
    value = case[name]
    # bool is an int in Python, but a JSON boolean is no number
    if not isinstance(value, _JSON_TYPES[kind]) or isinstance(value, bool) != (kind == "boolean"):
        raise ValueError(f"case field {name!r} must be a JSON {kind}, got {value!r}")
    if kind != "number":
        return value
    if not abs(value) <= sys.float_info.max:  # NaN, infinity, or an integer no double holds
        raise ValueError(f"case field {name!r} must be a finite number, got {value!r}")
    return float(value)


def _parse_case(case) -> _Case:
    """Validate a case dict by building what its run needs, short of the operator.

    This is the one place a case's fields are read.  Unknown fields,
    missing required ones and values of another JSON type are rejected;
    then the library's own checks run as the parameters, mesh, backend,
    solver settings and prediction are built, and the fit window is taken
    on the mesh, so a case whose fit could not run fails before it solves.
    Raises ValueError.
    """
    if not isinstance(case, dict):
        raise ValueError("a case must be a JSON object")
    unknown = sorted(set(case) - set(_CASE_FIELDS))
    if unknown:
        raise ValueError(f"unknown case field {unknown[0]!r}; "
                         f"the fields are {', '.join(_CASE_FIELDS)}")
    f = {name: _field(case, name) for name in _CASE_FIELDS}
    params = ProblemParams(s=f["s"], gamma=f["gamma"])
    grid, build = _operator_plan(f["backend"], params, f["n"], f["beta_g"])
    solver = SolverConfig(p=f["p"], tol=f["tol"])
    prediction = predict_mu(params.s, params.gamma, solver.p,
                            force_critical=f["force_critical"])
    fit_window(grid, prediction.regime == "critical")
    return _Case(f["backend"], params, grid, build, solver, prediction)


def _run(case: _Case) -> dict:
    start = time.perf_counter()
    sol = picard_solve(case.build(), case.solver)
    pred = case.prediction
    rep = fit_report(sol.u, case.grid, pred)
    ghp = harnack_report(sol.u, case.grid, pred)
    wall_ms = (time.perf_counter() - start) * 1e3
    return {
        "s": case.params.s, "gamma": case.params.gamma, "p": case.solver.p,
        "backend": case.backend, "n": case.grid.n,
        "mu_pred": pred.mu, "mu_hat": rep.mu_hat, "r2": rep.r2,
        "regime": pred.regime,
        "log_exp_pred": pred.log_exponent, "log_exp_hat": rep.log_exp_hat,
        "ghp_ratio": ghp.global_ratio,
        "iterations": sol.iterations, "residual": sol.residual,
        "wall_ms": wall_ms,
        "_solution": sol,
    }


def run_case(case: dict) -> dict:
    """Solve one study case and return its result row as a dict."""
    return _run(_parse_case(case))


def _case_outcome(case: _Case) -> tuple[dict | None, str | None]:
    """(row, None) from a validated case's run, or (None, error) if it failed.

    Catching here keeps one failing case from discarding the rows of the
    others, in the serial loop and in pool workers alike.  The error comes
    back as a string: a ConvergenceError does not survive unpickling.
    """
    try:
        return _run(case), None
    except _RUN_ERRORS as exc:
        return None, _error_text(exc)


def _row_csv(row: dict) -> str:
    # The CSV contract is byte-identical output for identical configs, so the
    # wall_ms column carries a deterministic 0; measured timings go to JSON.
    fields = {**row, "wall_ms": "0"}
    return ",".join(_fmt(fields[name]) for name in STUDY_COLUMNS)


def _row_json(row: dict) -> dict:
    return {k: v for k, v in row.items() if not k.startswith("_")}


# ----------------------------------------------------------------- subcommands

def cmd_predict(args) -> int:
    out = _prediction_json(args.s, args.gamma, args.p, args.force_critical)
    sys.stdout.write(_json_text(out))
    return EXIT_OK


def cmd_solve(args) -> int:
    case = _parse_case({name: getattr(args, name) for name in _CASE_FIELDS})
    os.makedirs(args.out_dir, exist_ok=True)
    fit_path = os.path.join(args.out_dir, "fit.json")
    try:
        row = _run(case)
    except _RUN_ERRORS as exc:
        residual = exc.residual if isinstance(exc, ConvergenceError) else None
        diag = {"error": _error_text(exc), "residual": residual,
                "s": args.s, "gamma": args.gamma, "p": args.p,
                "backend": args.backend, "n": args.n}
        _atomic_write(fit_path, _json_text(diag))
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return EXIT_NUMERICAL
    lines = ["x,delta,u"]
    for x, d, u in zip(case.grid.nodes, case.grid.delta, row["_solution"].u):
        lines.append(f"{_fmt(x)},{_fmt(d)},{_fmt(u)}")
    _atomic_write(os.path.join(args.out_dir, "solution.csv"), "\n".join(lines) + "\n")
    _atomic_write(fit_path, _json_text(_row_json(row)))
    return EXIT_OK


def cmd_study(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("study config must be a JSON object")
    cases = config.get("cases")
    if not isinstance(cases, list) or not cases:
        raise ValueError("study config contains no cases: 'cases' must be a non-empty list")
    out_dir = config.get("out_dir", ".")
    if not isinstance(out_dir, str):
        raise ValueError("study config 'out_dir' must be a string")
    if args.out_dir is not None:
        out_dir = args.out_dir
    parsed = []
    for i, case in enumerate(cases):
        try:
            parsed.append(_parse_case(case))
        except ValueError as exc:
            raise ValueError(f"case {i}: {exc}") from exc

    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    os.makedirs(out_dir, exist_ok=True)

    if args.jobs == 1 or len(parsed) == 1:
        outcomes = [_case_outcome(case) for case in parsed]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_case_outcome, parsed))  # preserves input order
    rows = [row for row, _ in outcomes if row is not None]
    errors = [{"case": i, "error": err} for i, (_, err) in enumerate(outcomes)
              if err is not None]

    lines = [",".join(STUDY_COLUMNS)] + [_row_csv(r) for r in rows]
    _atomic_write(os.path.join(out_dir, "study.csv"), "\n".join(lines) + "\n")

    summary = {"n_cases": len(cases)}
    if rows:
        non_critical = [r for r in rows if r["regime"] != "critical"]
        pool_rows = non_critical or rows
        errs = [abs(r["mu_hat"] - r["mu_pred"]) for r in pool_rows]
        worst = int(np.argmax(errs))
        summary["max_abs_err"] = float(max(errs))
        summary["worst_case"] = {k: pool_rows[worst][k]
                                 for k in ("s", "gamma", "p", "backend", "n",
                                           "mu_pred", "mu_hat")}
    if errors:
        summary["errors"] = errors
    _atomic_write(os.path.join(out_dir, "summary.json"), _json_text(summary))
    sys.stdout.write(_json_text(summary))
    for err in errors:
        print(f"error: case {err['case']}: {err['error']}", file=sys.stderr)
    return EXIT_NUMERICAL if errors else EXIT_OK


def cmd_eigen(args) -> int:
    grid, build = _operator_plan(args.backend, ProblemParams(s=args.s, gamma=args.gamma),
                                 args.n, args.beta_g)
    check_eigen_request(grid.n, args.n_eigs, args.tol)
    os.makedirs(args.out_dir, exist_ok=True)
    pairs = leading_eigenpairs(build(), n_eigs=args.n_eigs, tol=args.tol)
    ratios = eigenfunction_boundary_report(pairs, grid, args.gamma)
    lines = ["index,mu,lambda,residual"]
    for pair in pairs:
        lines.append(f"{pair.index},{_fmt(pair.mu)},{_fmt(1.0 / pair.mu)},"
                     f"{_fmt(pair.residual)}")
    _atomic_write(os.path.join(args.out_dir, "eigenpairs.csv"), "\n".join(lines) + "\n")
    report = [{"index": r.index, "sup_ratio": r.sup_ratio, "inf_ratio": r.inf_ratio}
              for r in ratios]
    _atomic_write(os.path.join(args.out_dir, "boundary_ratios.json"), _json_text(report))
    sys.stdout.write(_json_text({"mu_1": pairs[0].mu, "n_pairs": len(pairs)}))
    return EXIT_OK


def cmd_bq(args) -> int:
    cls = classify_bq(args.N, args.s, args.gamma, args.q)
    out = {"regime": cls.regime, "phi_exponent": cls.phi_exponent,
           "q_low": cls.q_low, "q_high": cls.q_high}
    if cls.log_exponent is not None:
        out["log_exponent"] = cls.log_exponent
    sys.stdout.write(_json_text(out))
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
    slope, intercept = np.polyfit(np.log(deltas), np.log(norms), 1)
    out = {"slope": float(slope), "intercept": float(intercept),
           "n_points": int(deltas.size), "regime": cls.regime,
           "predicted_slope": args.gamma * cls.phi_exponent}
    sys.stdout.write(_json_text(out))
    return EXIT_OK


def cmd_verify_kernel(args) -> int:
    params = ProblemParams(s=args.s, gamma=args.gamma)
    if args.backend == "synthetic":
        target = synthetic_k5(params)
    else:
        _, build = _operator_plan("spectral", params, args.n, beta_g=1.0)
        target = build()
    report = check_kernel_bounds(target, n_samples=args.n_samples, seed=args.seed)
    out = {"c0_hat": report.c0_hat, "c1_hat": report.c1_hat,
           "violations": report.violations, "n_samples": report.n_samples}
    sys.stdout.write(_json_text(out))
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
    sp.add_argument("--beta-g", type=float, default=1.0)
    sp.add_argument("--n-eigs", type=int, default=1)
    sp.add_argument("--tol", type=float, default=1e-10)
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
    sp.add_argument("--beta-g", type=float, default=3.0)
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
