#!/usr/bin/env bash
# Reproduce everything: tests, every paper figure/table and ablation with
# its findings asserted, examples.  Outputs land in test_output.txt,
# bench_output.txt and benchmarks/results/.
#
# Usage:  scripts/reproduce_all.sh [BENCH_SCALE]
#   BENCH_SCALE  dataset-size multiplier for the paper checks
#                (default 0.25; the paper's own scale is ~100)
set -euo pipefail
cd "$(dirname "$0")/.."

export REPRO_BENCH_SCALE="${1:-0.25}"

echo "== 1/3 unit/integration/property tests"
pytest tests/ 2>&1 | tee test_output.txt

echo "== 2/3 paper checks (scale=${REPRO_BENCH_SCALE})"
pytest benchmarks/bench_paper.py 2>&1 | tee bench_output.txt

echo "== 3/3 examples"
for example in examples/*.py; do
    echo "--- ${example}"
    python "${example}" > /dev/null
done

echo "All reproduction artifacts regenerated."
echo "  - test_output.txt / bench_output.txt"
echo "  - benchmarks/results/<experiment>.txt"
