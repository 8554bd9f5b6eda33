"""Seeded, replayable inputs for the three benchmark workloads.

The program only ever sees what these functions generate from a seed:
the same seed gives byte-identical inputs, and the default seed gives the
shipped acceptance config unchanged.  Drawn parameters sit on fixed grids,
so every case any seed can produce has a recorded reference exponent in
``baseline.json`` (see ``baseline.py refs``).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("acceptance", "spectral-ladder", "p-sweep")
DEFAULT_SEED = 0
ACCEPTANCE_CONFIG = Path("configs") / "acceptance.json"
STUDY_JOBS = 2

# spectral-ladder: one case per size, p fixed per size, s drawn from
# (0.1, 0.9) on a 0.05 grid offset so that no draw sits on the critical
# line s = (1 - p) / 2 of its case.  The four draws are sorted so the
# largest s goes with the largest n: the Perron bracket's cost grows like
# 1/s, and on the n = 4096 case, which sets the wall time, a small s
# would let it rival the dense build the workload exists to measure.
LADDER_P = {1024: 0.7, 2048: 0.6, 3072: 0.5, 4096: 0.4}
LADDER_S = tuple(round(0.125 + 0.05 * k, 3) for k in range(16))

# p-sweep: one operator, one p drawn from each fifth of (0.15, 0.85) on a
# 0.02 grid, skipping values within 0.02 of the critical p = 1 - 2s = 0.6.
PSWEEP_OPERATOR = {"backend": "synthetic", "s": 0.2, "gamma": 1.0,
                   "n": 4000, "beta_g": 3, "tol": 1e-10}
PSWEEP_CRITICAL_P = 0.6
PSWEEP_FIFTHS = tuple(
    tuple(p for p in (round(lo + 0.02 * j, 2) for j in range(7))
          if abs(p - PSWEEP_CRITICAL_P) > 0.02 + 1e-12)
    for lo in (round(0.15 + 0.14 * k, 2) for k in range(5)))

# Sizes that keep every fit window populated while running in seconds.
TINY_N = {"synthetic": 128, "spectral": 256}


def make_inputs(workload: str, seed: int, root: Path, tiny: bool = False) -> dict:
    """The generated inputs of one workload run, as a JSON-ready dict."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "acceptance":
        with open(root / ACCEPTANCE_CONFIG, encoding="utf-8") as fh:
            cases = json.load(fh)["cases"]
        order = list(range(len(cases)))
        if seed != DEFAULT_SEED:
            rng.shuffle(order)
        inputs = {"cases": [cases[i] for i in order], "jobs": STUDY_JOBS}
    elif workload == "spectral-ladder":
        draws = sorted(rng.choice(LADDER_S) for _ in LADDER_P)
        inputs = {"cases": [{"backend": "spectral", "s": s, "gamma": 1.0, "p": p,
                             "n": n, "tol": 1e-10}
                            for s, (n, p) in zip(draws, LADDER_P.items())],
                  "jobs": STUDY_JOBS}
    elif workload == "p-sweep":
        inputs = {"operator": dict(PSWEEP_OPERATOR),
                  "p_values": [rng.choice(fifth) for fifth in PSWEEP_FIFTHS],
                  "jobs": 1}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if tiny:
        for case in inputs.get("cases", []):
            case["n"] = TINY_N[case["backend"]]
        if "operator" in inputs:
            inputs["operator"]["n"] = TINY_N["synthetic"]
    inputs.update(workload=workload, seed=seed, tiny=tiny)
    return inputs


def cases_of(inputs: dict) -> list[dict]:
    """The solved cases of a workload, in output order."""
    if "cases" in inputs:
        return inputs["cases"]
    return [dict(inputs["operator"], p=p) for p in inputs["p_values"]]


def case_key(case: dict) -> str:
    """Stable identifier of a case's numerical content."""
    return json.dumps([case["backend"], float(case["s"]), float(case["gamma"]),
                       float(case["p"]), int(case["n"]), float(case.get("beta_g", 3.0)),
                       bool(case.get("force_critical", False))])


def all_reference_cases(root: Path) -> dict[str, list[dict]]:
    """Every case any seed can generate, grouped by workload."""
    with open(root / ACCEPTANCE_CONFIG, encoding="utf-8") as fh:
        acceptance = json.load(fh)["cases"]
    ladder = [{"backend": "spectral", "s": s, "gamma": 1.0, "p": p, "n": n, "tol": 1e-10}
              for n, p in LADDER_P.items() for s in LADDER_S]
    psweep = [dict(PSWEEP_OPERATOR, p=p) for fifth in PSWEEP_FIFTHS for p in fifth]
    return {"acceptance": acceptance, "spectral-ladder": ladder, "p-sweep": psweep}


def dumps(obj) -> str:
    """Deterministic JSON text, so equal inputs are equal bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
