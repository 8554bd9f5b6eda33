"""The p-sweep library workload: one operator, several solves.

Builds one synthetic operator, then runs ``picard_solve``, ``fit_report``
and ``harnack_report`` at each p.  Run as a script it is the untraced
workload process:

    python3 perfbench/psweep.py INPUTS.json OUT.json

The traced run imports ``run`` and replays it in-process.  Library calls go
through the package namespace, so a tracer that patches the package sees
them.
"""

from __future__ import annotations

import contextlib
import json
import sys


def run(inputs: dict, case_scope=lambda case_id: contextlib.nullcontext()) -> list[dict]:
    """Solve every p of the sweep; one result row per p."""
    import nonlocal_sharp as ns

    spec = inputs["operator"]
    s, gamma = float(spec["s"]), float(spec["gamma"])
    with case_scope("operator"):
        grid = ns.graded_mesh(int(spec["n"]), float(spec["beta_g"]))
        op = ns.assemble(ns.synthetic_k5(ns.ProblemParams(s=s, gamma=gamma)), grid)
    rows = []
    for p in inputs["p_values"]:
        with case_scope(f"p={p!r}"):
            sol = ns.picard_solve(op, ns.SolverConfig(p=float(p), tol=float(spec["tol"])))
            pred = ns.predict_mu(s, gamma, float(p))
            fit = ns.fit_report(sol.u, op.grid, pred)
            ns.harnack_report(sol.u, op.grid, pred)
        rows.append({"p": float(p), "mu_pred": pred.mu, "mu_hat": fit.mu_hat,
                     "regime": pred.regime, "iterations": sol.iterations,
                     "residual": sol.residual, "bracket_gap": sol.bracket_gap})
    return rows


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        inputs = json.load(fh)
    rows = run(inputs)
    with open(argv[1], "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
