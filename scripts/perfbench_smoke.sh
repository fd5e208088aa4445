#!/usr/bin/env bash
# Smoke-run the measured benchmark (`perfbench/`, its own workspace):
# build it with the command BENCHMARK.json declares, run each workload
# for one second untraced and traced, and fail unless every run's last
# line (its JSON result) reads `"correct": true` with `"failed": 0`.
# Last, fail if the build rewrote anything under perfbench/ — a workspace
# crate whose dependencies changed rewrites perfbench/Cargo.lock.
#
# Usage: scripts/perfbench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for workload in gcn-type2 cold-open-type1 serve-churn sharded-type2; do
    for trace in 0 1; do
        last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 1 --trace "$trace" | tail -n 1)
        echo "$workload --trace $trace: $last"
        if [[ "$last" != *'"correct": true'* || "$last" != *'"failed": 0,'* ]]; then
            echo "perfbench smoke: $workload --trace $trace did not pass" >&2
            exit 1
        fi
    done
done
git diff --exit-code perfbench/
