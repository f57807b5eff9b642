#!/usr/bin/env bash
# Tier-1 gate: the ROADMAP test command plus the benchmark regression
# check.  Extra arguments are passed through to pytest, so
# `scripts/tier1.sh -m prof` runs just the profiler tests first.
set -euo pipefail
cd "$(dirname "$0")/.."

# the one-request-context seams stay closed: the in-progress registry,
# the request_id/shard_info plumbing and the Tensor-patching profiler
# hooks must not grow back under another layer
if grep -rnE '_in_progress|diag_owned|shard_info|set_profiler|warn_dual_profilers' src/repro; then
    echo "tier1: a deleted diagnostics seam reappeared (see above)" >&2
    exit 1
fi

# the served forward pass builds no autograd wrapper: no grad switch,
# Tensor construction or distance_to_all call in the plan backend, the
# executor or the runtime (they reach repro.nn only for the array
# namespace, repro.nn.arrays)
if grep -nE 'no_grad|Tensor\(|distance_to_all\(' \
        src/repro/plan/backend.py src/repro/plan/executor.py \
        src/repro/serve/runtime.py; then
    echo "tier1: the autograd wrapper is back on the answer path (see above)" >&2
    exit 1
fi

# the HaLk arithmetic is written once, over a namespace: the plan
# backend holds none of it, and the semantic average (the one arctan2)
# is called from one place under core/ and plan/ — a second operator
# body growing back fails here, before pytest starts
if grep -nE 'np\.(sin|cos|tanh|exp|arctan2|clip)\(|np\.pi| @ ' \
        src/repro/plan/backend.py; then
    echo "tier1: arithmetic is back in the plan backend (see above)" >&2
    exit 1
fi
if [ "$(grep -rl 'arctan2' src/repro/core src/repro/plan)" != src/repro/core/operators.py ] \
        || [ "$(grep -c 'arctan2(' src/repro/core/operators.py)" -ne 1 ]; then
    grep -rn 'arctan2' src/repro/core src/repro/plan || true
    echo "tier1: the semantic average is written more than once (see above)" >&2
    exit 1
fi

# the training tape scatters with bincount and assignment: np.add.at
# survives once in repro.nn (the advanced-index branch of
# Tensor.__getitem__, where a cell can be selected twice) and nowhere
# in repro.core
if [ "$(grep -rn 'np\.add\.at' src/repro/nn | wc -l)" -ne 1 ] \
        || grep -rn 'np\.add\.at' src/repro/core; then
    grep -rn 'np\.add\.at' src/repro/nn || true
    echo "tier1: np.add.at is back on the training tape (see above)" >&2
    exit 1
fi

# a request stays on its connection's thread from socket to batcher: no
# event loop, and so no cross-thread hop onto one, in the door or the
# runtime behind it
if grep -rnE 'asyncio|call_soon_threadsafe' src/repro/gateway src/repro/serve; then
    echo "tier1: an event loop is back on the request path (see above)" >&2
    exit 1
fi

# the ranking filter reads a float32 table somebody prepared once: the
# float64 -> float32 cast lives in ArcShardScorer.prepare and nowhere
# else in the kernel (a second one is a per-request cast growing back)
if [ "$(grep -c 'casting=' src/repro/dist/scorer.py)" -ne 1 ]; then
    grep -n 'casting=' src/repro/dist/scorer.py || true
    echo "tier1: the entity table is cast to float32 in more than one place (see above)" >&2
    exit 1
fi

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q "$@"

# gate on the recorded benchmark trajectory when one exists; a red gate
# prints the profile-diff attribution table (see benchmarks/record.py)
if [ -f BENCH_serve.json ]; then
    python benchmarks/record.py --check-regression BENCH_serve.json
fi
