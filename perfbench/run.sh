#!/usr/bin/env bash
# Builds the release `nisqc` binary and the benchmark from source, then runs
# the benchmark with the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload paper_sweep --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --self-test
#
# Both builds share one target directory (`CARGO_TARGET_DIR`, default
# `.bench_build`), so the benchmark finds `nisqc` next to its own binary.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin nisqc >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
