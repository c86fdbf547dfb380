#!/usr/bin/env bash
# The Kite benchmark, one command. Run it from the repository root:
#
#   benchmark/run.sh                                  every workload, untraced then traced
#   benchmark/run.sh --workload sim_typical           one workload, both ways
#   benchmark/run.sh --sets 2                         repeatability: two sets, PASS/FAIL per bound
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                     one measured run; the last stdout line is
#                                                     the JSON result BENCHMARK.json describes
#   benchmark/run.sh --emit-manifest                  print BENCHMARK.json from the metric table
#
# Builds `kite-node` from the repository (release, the root manifest and
# lockfile) and the harness from benchmark/ (its own workspace), then hands
# over to the harness. Build output goes to $CARGO_TARGET_DIR when set,
# else to benchmark/target.
set -euo pipefail

[ -f Cargo.toml ] && [ -d crates/net ] || {
    echo "benchmark/run.sh: run from the repository root (Cargo.toml and crates/ not found)" >&2
    exit 1
}

target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

# Two workspaces, two target directories: sharing one would make the two
# lockfiles fight over the fingerprints of the crates they both build.
CARGO_TARGET_DIR="$target/node" cargo build --release --offline -p kite-net --bin kite-node >&2
CARGO_TARGET_DIR="$target/harness" cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

export KITE_NODE_BIN="$target/node/release/kite-node"
KITE_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export KITE_BENCH_COMMIT

# exec: a signal sent to this command reaches the harness itself, and every
# daemon the harness started dies with it.
exec "$target/harness/release/kite-benchmark" "$@"
