#!/bin/sh
# Everything CI would run for the perf ledger package (root CI is out of
# this package's reach): format, lints, tests, and the smoke run of all
# four workloads, untraced and traced. Run from anywhere.
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- run --smoke
cargo run --offline --release --quiet -- trace --smoke --workload serve_live
echo "benchmark/check.sh: ok"
