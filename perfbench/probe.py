"""Fresh-process probe of import cost, operator build memory and one matvec.

    python3 perfbench/probe.py CASE.json OUT.json

Times ``import nonlocal_sharp`` in this fresh interpreter, builds the
case's operator once, and records the rise of the process's peak RSS
(``VmHWM``) across the build relative to the operator's bytes.  ``VmHWM``
belongs to this program's own address space; ``ru_maxrss`` would carry
the peak of the process that started it.  Then it times
``APPLY_CALLS`` direct ``apply(op, v)`` calls and keeps their median.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

APPLY_CALLS = 21


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="utf-8") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        case = json.load(fh)
    start = time.perf_counter()
    import nonlocal_sharp as ns
    import_s = time.perf_counter() - start

    import numpy as np

    n = int(case["n"])
    rss_before_kb = peak_rss_kb()
    if case["backend"] == "spectral":
        op = ns.spectral_mt_operator(float(case["s"]), ns.graded_mesh(n, 1.0))
    else:
        params = ns.ProblemParams(s=float(case["s"]), gamma=float(case["gamma"]))
        op = ns.assemble(ns.synthetic_k5(params), ns.graded_mesh(n, float(case.get("beta_g", 3.0))))
    rss_rise_bytes = (peak_rss_kb() - rss_before_kb) * 1024
    # whatever arrays the operator stores, not only a dense matrix
    op_bytes = sum(a.nbytes for a in vars(op).values() if isinstance(a, np.ndarray))

    v = np.linspace(1.0, 2.0, n)
    ns.apply(op, v)  # first touch outside the timed calls
    times = []
    for _ in range(APPLY_CALLS):
        t0 = time.perf_counter()
        ns.apply(op, v)
        times.append(time.perf_counter() - t0)

    out = {"n": n, "import_s": import_s, "operator_bytes": op_bytes,
           "build_rss_ratio": rss_rise_bytes / op_bytes,
           "apply_ms": statistics.median(times) * 1e3, "apply_samples": APPLY_CALLS,
           "apply_bytes_computed": 8 * n * n}
    with open(argv[1], "w", encoding="utf-8") as fh:
        fh.write(json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
