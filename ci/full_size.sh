#!/bin/sh
# The full-size checks that tier-1 does not run, as CI runs them after it:
# the benchmark workloads against their baseline, byte identity across --jobs
# and across runs, the exit at n = 1026, the tiled synthetic blocks, eigen,
# and verify-kernel; on Python 3.12 and later, a report of fork warnings.
#
#     sh ci/full_size.sh [CLI [OUT_DIR]]
#
# CLI is the command that runs the command line, split into words (default
# nonlocal-sharp; from a source checkout, "python3 -m nonlocal_sharp.cli"
# with PYTHONPATH=src).  OUT_DIR receives every output (default: a new
# temporary directory).  Run it from anywhere; it exits non-zero at the first
# failed check, and prints "full-size checks passed" at the end.
set -eu

cli=${1:-nonlocal-sharp}
out=${2:-$(mktemp -d)}
mkdir -p "$out"
out=$(cd "$out" && pwd)
cd "$(dirname "$0")/.."
echo "full-size checks: CLI '$cli', outputs in $out"

# A numpy warning fails these runs, as it fails tier-1 (pyproject's filterwarnings): an
# overflow or an r = 0 reaching the envelope stops the check instead of printing a line.
# Only the fork report below sets its own filter.
export PYTHONWARNINGS=error::RuntimeWarning

# tier-1 runs the benchmark only as its --tiny smoke, which has no references: run each
# workload once at full size, which exits 1 on mu drift above 1e-9 against
# perfbench/baseline.json, on the 0.03 acceptance band, or on a residual above its tol;
# seed 1 reorders acceptance and draws other spectral-ladder s, so more references are checked
echo "== benchmark workloads match their baseline at full size"
python3 perfbench/run.py --workload all --seed 0 --seconds 0 --trace 0
python3 perfbench/run.py --workload all --seed 1 --seconds 0 --trace 0

# neither output may depend on how the cases are spread over workers; summary.json holds no timing
echo "== study.csv and summary.json are byte-identical across --jobs, solution.csv across runs"
# --jobs 3 is more workers than a 2-core runner has cores
for jobs in 1 2 3; do
    $cli study --config configs/acceptance.json --jobs $jobs --out-dir "$out/jobs$jobs"
done
for jobs in 2 3; do
    cmp "$out/jobs1/study.csv" "$out/jobs$jobs/study.csv"
    cmp "$out/jobs1/summary.json" "$out/jobs$jobs/summary.json"
done
# the same for a mixed-backend study at full size: three operators, so --jobs 2 runs
# them in two workers and --jobs 3 in three, and the spectral keys carry beta_g = None
echo '{"cases": [
  {"backend": "spectral", "s": 0.3, "gamma": 1.0, "p": 0.5, "n": 1024},
  {"backend": "spectral", "s": 0.6, "gamma": 1.0, "p": 0.4, "n": 2048},
  {"backend": "synthetic", "s": 0.2, "gamma": 1.0, "p": 0.5, "n": 2000}]}' > "$out/mixed.json"
# 40 operators, one tiny case each (s = 0.05, 0.06, ..., 0.45 without the critical 0.25),
# so each of the --jobs 2 workers takes about 20 indices from the shared task pipe
python3 -c 'import json; print(json.dumps({"cases": [
  {"backend": "synthetic", "s": round(0.05 + 0.01 * k, 2), "gamma": 1.0, "p": 0.5, "n": 64}
  for k in range(41) if k != 20]}))' > "$out/groups.json"
for study in mixed groups; do
    for jobs in 1 2 3; do
        $cli study --config "$out/$study.json" --jobs $jobs --out-dir "$out/$study$jobs"
    done
    for jobs in 2 3; do
        cmp "$out/${study}1/study.csv" "$out/$study$jobs/study.csv"
        cmp "$out/${study}1/summary.json" "$out/$study$jobs/summary.json"
    done
done
# solve writes solution.csv on the mesh it runs on, the same bytes on every run; the
# spectral even sector's DST-IV runs an n/4-point FFT, 16384 points at n = 65536
for run in 1 2; do
    $cli solve --s 0.2 --gamma 1 --p 0.5 --n 2000 --out-dir "$out/synthetic$run"
    $cli solve --backend spectral --s 0.3 --p 0.5 --n 1024 --out-dir "$out/spectral$run"
    $cli solve --backend spectral --s 0.3 --p 0.5 --n 65536 --out-dir "$out/spectral_large$run"
done
for case in synthetic spectral spectral_large; do
    cmp "$out/${case}1/solution.csv" "$out/${case}2/solution.csv"
done

# CPython 3.12+ warns when a process that runs several threads calls os.fork, as a study
# does to start its workers; show each stderr line that names fork, and never fail on one
if python3 -c 'import sys; sys.exit(sys.version_info < (3, 12))'; then
    echo "== fork warnings of a study on Python 3.12 and later (reported, never failing)"
    PYTHONWARNINGS=always::DeprecationWarning $cli study --config configs/acceptance.json \
        --jobs 2 --out-dir "$out/fork_warning" 2> "$out/fork_warning.err" || true
    grep fork "$out/fork_warning.err" || echo "no stderr line names fork"
fi

# the spectral backend runs n = 4q only: any other n exits 2 before it writes anything
echo "== spectral solve at n = 1026 exits 2 and writes no fit.json"
code=0
$cli solve --backend spectral --s 0.3 --p 0.5 --n 1026 --out-dir "$out/spectral_1026" || code=$?
test "$code" -eq 2
test ! -e "$out/spectral_1026/fit.json"

# the tiled synthetic blocks at full size: at n = 16000 most of each slab is a Chebyshev
# far field, and eigen with three pairs builds and applies the odd block's tiles too;
# gamma = 0.5 runs the envelope's r **= gamma branch, which gamma = 1 skips, and a power other
# than 1 in each far field's x^gamma and xi^gamma; each output is the same bytes on every run
echo "== tiled synthetic blocks at full size"
for run in 1 2; do
    $cli solve --s 0.2 --gamma 1 --p 0.5 --n 16000 --out-dir "$out/tiled$run"
    $cli solve --s 0.2 --gamma 0.5 --p 0.5 --n 16000 --out-dir "$out/tiled_half$run"
    $cli eigen --backend synthetic --s 0.2 --n 4000 --n-eigs 3 --out-dir "$out/eigen$run"
    $cli eigen --s 0.3 --n 4096 --n-eigs 3 --out-dir "$out/eigen_spectral$run"
done
for case in tiled tiled_half; do
    cmp "$out/${case}1/solution.csv" "$out/${case}2/solution.csv"
done
for case in eigen eigen_spectral; do
    cmp "$out/${case}1/eigenpairs.csv" "$out/${case}2/eigenpairs.csv"
    cmp "$out/${case}1/boundary_ratios.json" "$out/${case}2/boundary_ratios.json"
done

# the one command that reads operator entries and the correction band, never the stored
# blocks: sampled two-sided bounds at full size on both backends, the same bytes on every
# run, with no sample below the lower bound
echo "== sampled kernel bounds at full size"
for run in 1 2; do
    $cli verify-kernel --s 0.2 --gamma 1 --n 4000 > "$out/bounds$run.json"
    $cli verify-kernel --s 0.2 --gamma 0.5 --n 4000 > "$out/bounds_half$run.json"
    $cli verify-kernel --backend spectral --s 0.3 --n 4096 > "$out/bounds_spectral$run.json"
done
for case in bounds bounds_half bounds_spectral; do
    cmp "$out/${case}1.json" "$out/${case}2.json"
    grep -q '"violations": 0' "$out/${case}1.json"
done

echo "full-size checks passed"
