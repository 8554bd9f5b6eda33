"""Tests of the benchmark itself: replayable inputs and a tiny smoke run.

The smoke runs go through ``run.py`` exactly as a benchmark run does, with
``--tiny`` shrinking every case to a size that solves in milliseconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import (PSWEEP_CRITICAL_P, PSWEEP_FIFTHS, WORKLOADS, all_reference_cases,
                       case_key, cases_of, dumps, make_inputs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert dumps(make_inputs(workload, 7, ROOT)) == dumps(make_inputs(workload, 7, ROOT))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seeds_give_different_inputs(workload):
    first = dumps(cases_of(make_inputs(workload, 1, ROOT)))
    assert first != dumps(cases_of(make_inputs(workload, 2, ROOT)))


def test_default_seed_reproduces_the_shipped_acceptance_config():
    shipped = json.loads((ROOT / "configs" / "acceptance.json").read_text(encoding="utf-8"))
    assert make_inputs("acceptance", 0, ROOT)["cases"] == shipped["cases"]


def test_acceptance_seeds_only_reorder_the_shipped_cases():
    shipped = sorted(map(case_key, make_inputs("acceptance", 0, ROOT)["cases"]))
    for seed in range(1, 6):
        assert sorted(map(case_key, make_inputs("acceptance", seed, ROOT)["cases"])) == shipped


def test_p_sweep_draws_one_p_per_fifth_away_from_the_critical_p():
    for seed in range(50):
        p_values = make_inputs("p-sweep", seed, ROOT)["p_values"]
        assert [p in fifth for p, fifth in zip(p_values, PSWEEP_FIFTHS)] == [True] * 5
        assert all(abs(p - PSWEEP_CRITICAL_P) > 0.02 for p in p_values)


def test_every_case_a_seed_can_draw_has_a_reference_exponent():
    refs = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))["mu_hat_ref"]
    possible = {case_key(c) for cases in all_reference_cases(ROOT).values() for c in cases}
    assert possible == set(refs)
    for seed in range(20):
        for workload in WORKLOADS:
            assert {case_key(c) for c in cases_of(make_inputs(workload, seed, ROOT))} <= possible


def _smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    out = _smoke(workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    *report, last = out.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    expected = {m["name"]: m["unit"] for m in _bench()["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    text = "\n".join(report)
    for name, unit in [*expected.items(), ("max_abs_err", "1"), ("mu_drift_max", "1"),
                       ("failed_frac", "ratio")]:
        assert re.search(rf"^\s+{re.escape(name)}\s+.*\s{re.escape(unit)}(\s|$)", text, re.M), name

    if trace:
        run_dir = ROOT / ".perfbench_out" / f"{workload}-seed1-trace1-tiny"
        spans = [json.loads(line) for line in
                 (run_dir / "spans.jsonl").read_text(encoding="utf-8").splitlines()]
        details = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))["details"]
        assert spans and all(span["self_s"] >= 0 for span in spans)
        assert sum(span["self_s"] for span in spans) <= details["traced_replay_s"]


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _smoke("acceptance", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
