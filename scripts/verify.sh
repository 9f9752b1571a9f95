#!/usr/bin/env bash
# Repo verify flow: tier-1 tests (which include the resilience and insights
# suites), lint gate, the paper-figure regression gate, and the
# tuned-vs-untuned bandwidth artifact.
#
# Usage:  bash scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 test suite =="
python -m pytest -x -q --durations=20

echo "== lint gate (full repro package) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src/repro \
        tests/test_resilience_faults.py tests/test_resilience_manifest.py \
        tests/test_resilience_roundtrip.py tests/test_crash_consistency.py \
        tests/test_cli_errors.py tests/test_insights_resilience.py \
        tests/test_iostack.py tests/test_aio.py tests/test_scenarios.py
else
    echo "ruff not installed; lint gate skipped"
fi

bash scripts/guards.sh

echo "== repro figure smoke (a chart over three committed regress cells) =="
python -m repro figure fig10 --procs 4 --json BENCH_figure.current.json

echo "== scenario registry lint (parse, normalize, build) =="
python -m repro scenarios --check

echo "== examples (each must exit 0) =="
for f in examples/*.py; do
    echo "-- $f"
    python "$f" >/dev/null
done

echo "== param-file ingestion end-to-end (verbatim FOGGIE file, 8x downscale) =="
python -m repro analyze --param-file examples/scenarios/foggie_25Mpc_DM_256-L2.enzo \
    --downscale 8 --procs 4 --save-trace BENCH_foggie.trace.json >/dev/null
python -m repro insights BENCH_foggie.trace.json

# The two gates run many-rank cells; a lost engine baton fails by hanging,
# so each gets a wall limit (cold serial regress is ~2 min) instead of the
# CI job's six hours.
echo "== paper-figure regression gate (Figures 5-10 vs BENCH_figures.json) =="
timeout 1800 python -m repro regress --quiet --out BENCH_figures.current.json
# Tier-1's full-matrix test filled the cell cache a moment ago, so this stage
# should replay it ("52 cache hit(s), 0 miss(es)"); misses here mean the
# matrix is being computed twice per verify again.
python -m repro bench timings --top 1 | grep '^regress:'

echo "== weak-scaling gate (P=16..1024 vs BENCH_scale.json) =="
timeout 1800 python -m repro scale --quiet --out BENCH_scale.current.json

echo "== executor telemetry (10 slowest cells this run) =="
python -m repro bench timings --top 10

echo "== perfbench: the benchmark's own checks, then its correctness pass =="
python3 perfbench/selftest.py --smoke
python3 perfbench/run.py --check

echo "== crash-consistency acceptance scenario =="
python -m repro simulate --problem AMR16 --procs 4 --cycles 1 \
    --inject write:torn:run --retries 2

echo "== tuned-vs-untuned bandwidth artifact =="
python -m repro tune --problem AMR32 --procs 8 --strategy hdf4 \
    --out BENCH_insights.json

echo "== lustre stripe-retune artifact (striping_factor widening) =="
python -m repro tune --problem AMR32 --procs 8 --strategy mpi-io \
    --machine lustre --out BENCH_insights_lustre.json
echo "verify OK"
