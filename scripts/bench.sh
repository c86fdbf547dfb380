#!/usr/bin/env bash
# Tier-1-adjacent perf check: run the closed-loop throughput bin with fixed
# seeds. Before overwriting BENCH_micro.json, the bin diffs the fresh
# numbers against the committed file and prints a ±10% regression warning
# table (micro: lower is better; e2e mreqs: higher is better; per-run
# ae_bytes_per_op — the anti-entropy digest-plane cost the Merkle-range
# mode shrinks — lower is better) — regressions are flagged loudly instead
# of silently replaced.
#
# Usage: scripts/bench.sh [seed]   (default seed: 42)
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${1:-42}"

# Invariant gate: nothing perf-related is worth measuring if the no-alloc /
# event-loop contracts regressed. Prints the ratchet diff (new / fixed /
# grandfathered) and aborts on any new violation.
echo "== kite-lint (invariant pass, ratcheted) =="
scripts/lint.sh

echo "== closed-loop throughput (seed ${SEED}) + regression diff =="
# --transport all adds the threaded and tcp-loopback wall-clock rows;
# those are marked noisy in the JSON and excluded from the ±10% table
# (they measure the machine, not the protocol). That set includes the
# join-time row (tcp_join_bulk_sync_20k): wall-clock and sync bytes/key
# for a fresh learner to catch up a 20k-key store through anti-entropy
# alone after an add-learner config change. The hostile-workload
# rows (kite_skew_extreme: θ=1.2 Zipf, kite_flash_crowd: one key takes
# half of all writes cluster-wide) are deterministic sim rows and DO
# participate in the regression diff — they pin the §6.3 ack-coalescing
# win where it matters most.
cargo run --release -p kite-bench --bin throughput -- --out BENCH_micro.json --seed "${SEED}" --transport all

echo "== BENCH_micro.json =="
cat BENCH_micro.json
