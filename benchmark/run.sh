#!/usr/bin/env bash
# Build the benchmark offline and run it; see benchmark/README.md.
#
#   benchmark/run.sh [--seed N]                      every workload, both passes
#   benchmark/run.sh [--seed N] --workload NAME      one workload, both passes
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
# Scratch registries go under std::env::temp_dir(); keep that inside the
# checkout. Each is removed by the run that made it.
export TMPDIR="$PWD/benchmark/tmp"
mkdir -p "$TMPDIR"
# Peak RSS must repeat from run to run. With glibc's defaults it does not:
# the mmap threshold adapts to the order of frees and every short-lived
# connection thread may get an arena of its own (serve_mix swung 5.4-7.3
# MiB). Pin both; the settings are the same on every commit.
export MALLOC_MMAP_THRESHOLD_=262144 MALLOC_ARENA_MAX=1

cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/fem2-benchmark" "$@"
