#!/usr/bin/env bash
# Offline gate: build, tests, formatting, lints, docs.
#
#   scripts/check.sh            full gate (build, test, fmt, clippy, doc)
#   scripts/check.sh --quick    build + test only (the fast inner loop)
#
# The workspace has no network dependencies — every external crate is an
# API-compatible path shim under shims/ — so this script must pass on a
# machine with no registry access. Run the full gate before every push.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

if [[ "$QUICK" == "1" ]]; then
  echo "Quick checks passed (build + test)."
  exit 0
fi

echo "==> planc smoke (compile + reload + execute one persisted plan per TC format, and a symmetric one)"
PLANC_DIR="$(mktemp -d)"
trap 'rm -rf "$PLANC_DIR"' EXIT
cargo run --release -q -p spmm-bench --bin planc -- --smoke "$PLANC_DIR"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "All checks passed."
