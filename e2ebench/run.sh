#!/usr/bin/env bash
# Build mhxd, mhxr and the load generator from this checkout, then run one
# workload. Arguments pass through:
#   bash e2ebench/run.sh --workload wire-small --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin mhxd --bin mhxr >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/mhx-e2ebench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
