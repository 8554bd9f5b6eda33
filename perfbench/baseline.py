"""Record the benchmark baseline in ``perfbench/baseline.json``.

    python3 perfbench/baseline.py refs
    python3 perfbench/baseline.py spread --workload acceptance --seeds 1-10 --seconds 40

``refs`` solves every case any seed can generate and stores its exponent
as ``mu_hat_ref``, which ``mu_drift_max`` is measured against, together
with the machine and library settings.  Run it on the commit whose
exponents are the reference.

``spread`` runs ``run.py`` once per seed and stores, per end-to-end
metric, the values, their median and quartiles, and the spread
(q3 - q1) / median.  Run both from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, THREAD_ENV, environment, replay
from workloads import PSWEEP_OPERATOR, all_reference_cases, case_key, dumps

BASELINE = HERE / "baseline.json"


def load() -> dict:
    if BASELINE.is_file():
        return json.loads(BASELINE.read_text(encoding="utf-8"))
    return {}


def record_refs(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    refs = {}
    for workload, cases in all_reference_cases(root).items():
        if workload == "p-sweep":
            inputs = {"operator": dict(PSWEEP_OPERATOR), "p_values": [c["p"] for c in cases]}
        else:
            inputs = {"cases": cases}
        for case, row in zip(cases, replay(inputs)):
            refs[case_key(case)] = row["mu_hat"]
        print(f"{workload}: {len(cases)} reference cases", flush=True)
    n = PSWEEP_OPERATOR["n"]
    env = dict(environment(), apply_probe={
        "n": n, "operator_bytes": 8 * n * n,
        "note": "the dense operator is smaller than the LLC, so a matvec may be served "
                "from cache; bytes per matvec are computed (8 n^2), not measured"})
    data = load()
    data.update(env=env, mu_hat_ref=dict(sorted(refs.items())))
    BASELINE.write_text(dumps(data), encoding="utf-8")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_spread(root: Path, workload: str, seeds: list[int], seconds: int) -> None:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                              "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                             cwd=root, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: output checks failed\n{out.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
    summary = {"seeds": seeds, "seconds": seconds}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "values": vals}
        print(f"{workload} {name}: median {median:.4f} spread {(q3 - q1) / median:.4f}")
    data = load()
    data.setdefault("baseline", {})[workload] = summary
    BASELINE.write_text(dumps(data), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("refs")
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", default="1-10")
    sp.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args(argv)
    os.environ.update(THREAD_ENV)  # before numpy is imported here
    root = Path.cwd()
    if args.command == "refs":
        record_refs(root)
    else:
        record_spread(root, args.workload, parse_seeds(args.seeds), args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
