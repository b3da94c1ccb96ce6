#!/usr/bin/env bash
# Builds the benchmark from source (both binaries, offline, path dependencies only) and
# runs it with the arguments given.  Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload stream-cbcast-thr2 --seed 1 --seconds 10 --trace 0
#
# The result is one JSON object on the last line of standard output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr so that stdout carries only the benchmark's own report.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/vsbench" "$@"
