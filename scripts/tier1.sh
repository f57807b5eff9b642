#!/usr/bin/env bash
# Tier-1 gate: the ROADMAP test command plus the benchmark regression
# check.  Extra arguments are passed through to pytest, so
# `scripts/tier1.sh -m prof` runs just the profiler tests first.
set -euo pipefail
cd "$(dirname "$0")/.."

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q "$@"

# gate on the recorded benchmark trajectory when one exists; a red gate
# prints the profile-diff attribution table (see benchmarks/record.py)
if [ -f BENCH_serve.json ]; then
    python benchmarks/record.py --check-regression BENCH_serve.json
fi
