#!/usr/bin/env bash
# Performance regression gate over the perfsuite artifact.
#
#   scripts/bench_gate.sh                      gate BENCH_perfsuite.json against
#                                              results/bench_baseline.json,
#                                              running `perfsuite --quick` first
#                                              if the candidate is missing
#   scripts/bench_gate.sh path/to/suite.json   gate an explicit artifact
#   scripts/bench_gate.sh --update-baseline    re-measure and refresh the
#                                              checked-in baseline
#
# Fails (non-zero exit) when any kernel's median wall time regressed by
# more than BENCH_GATE_THRESHOLD (default 0.25 = 25%) relative to the
# baseline, when the multi-client engine scenario is missing from the
# candidate, when its results are not bit-identical to the direct path,
# or when its speedup falls below the conservative 1.2x floor. The
# sharded (spmm-dist) scenario is gated the same way: it must be
# present, bit-identical to single-node execution, and show >= 1.5x
# critical-path speedup at 4 shards. The QoS storm scenario must keep
# interactive p99 completion latency under its ceiling, execute zero
# expired requests, never exceed the engine's page budget, and stay
# bit-identical to the direct path. The dynamic-graph streaming
# scenario must keep plan repair bit-identical to a fresh build
# (single-node and sharded). Wall times are machine-dependent: refresh
# the baseline with --update-baseline when moving to different
# hardware.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

BASELINE=results/bench_baseline.json
THRESHOLD=${BENCH_GATE_THRESHOLD:-0.25}
# Must match SCHEMA_VERSION in crates/bench/src/bin/perfsuite.rs.
EXPECTED_SCHEMA=4

# One clear line on a stale or foreign artifact instead of a parser
# error from deep inside the gate.
check_schema() {
  local file=$1 found
  found=$(grep -o '"schema_version": *[0-9]*' "$file" | head -1 | grep -o '[0-9]*$' || true)
  if [[ "${found:-}" != "$EXPECTED_SCHEMA" ]]; then
    echo "bench gate: $file has schema_version ${found:-<missing>}, expected $EXPECTED_SCHEMA (baseline stale? refresh with scripts/bench_gate.sh --update-baseline)" >&2
    exit 2
  fi
}

if [[ "${1:-}" == "--update-baseline" ]]; then
  cargo run --release -p spmm-bench --bin perfsuite -- --quick --out "$BASELINE"
  echo "baseline refreshed: $BASELINE"
  exit 0
fi

CANDIDATE=${1:-BENCH_perfsuite.json}
if [[ ! -f "$CANDIDATE" ]]; then
  echo "==> no $CANDIDATE yet; running perfsuite --quick"
  cargo run --release -p spmm-bench --bin perfsuite -- --quick --out "$CANDIDATE"
fi

check_schema "$BASELINE"
check_schema "$CANDIDATE"

cargo run --release -p spmm-bench --bin perfsuite -- \
  --gate "$BASELINE" "$CANDIDATE" --threshold "$THRESHOLD"
