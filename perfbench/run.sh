#!/usr/bin/env bash
# Builds the `cspdb` binary and the benchmark from source, then runs the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --self-test
#
# Run it from the root of the repository. Build output goes to
# $CARGO_TARGET_DIR (default `.bench_build`); run artefacts (span JSONL,
# scratch data directories) go to `.bench_out`.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin cspdb >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --cspdb "$CARGO_TARGET_DIR/release/cspdb" "$@"
