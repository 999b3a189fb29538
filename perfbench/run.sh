#!/usr/bin/env bash
# Builds the release `htd` binary and the benchmark from source, then runs
# the benchmark with the given arguments (see perfbench/README.md).
# Run from the root of the repository.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p htd-cli
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
# The stage replays link the leaf crates' public functions; only the
# traced run needs them, so an end-to-end run survives a build failure.
if ! cargo build --release --offline --quiet --manifest-path perfbench/replay/Cargo.toml; then
    echo "perfbench: the stage replays did not build; traced runs will fail" >&2
fi
export PERFBENCH_HTD="$CARGO_TARGET_DIR/release/htd"
export PERFBENCH_REPLAY="$CARGO_TARGET_DIR/release/perfbench-replay"
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
