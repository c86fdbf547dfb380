#!/usr/bin/env bash
# Loop the loss-injection test 4N times to flush out rare interleavings
# (the threaded_mutex_exact_under_message_loss hang showed up in ~2-5% of
# runs before the anti-entropy backstop landed). It runs on the in-process
# `kite_net::Cluster` — three nodes on loopback sockets over the production
# epoll fabric, 10 % of envelopes lost at each link's drop point — and
# prints the soak's pass count and wall time.
#
# Every run is under the in-process watchdog (`Cluster::watchdog`): a
# wedged run aborts with a per-worker protocol-state dump on stderr
# instead of hanging the loop, and the failing run's full output is
# preserved.
#
# Each iteration also runs the anti-entropy fault suites — the sweep
# convergence/equivalence tests (tests/antientropy.rs), the loss+crash run
# whose sweeps go flat under load and summarize in the wind-down
# (tests/merkle_faults.rs) and the WAL torn-write / corruption /
# kill-switch suite (tests/wal_faults.rs) — so sweep liveness, the
# per-sweep digest-plane choice and crash durability stay covered by the
# loop, not just by one-shot CI.
#
# The kite-net fabric fault tests ride along too: the stalled-reader
# backpressure test (crates/net/tests/backpressure.rs — bounded outbound
# rings must shed, never grow, and flow must resume on drain) and the
# shuffled/duplicated-completion pipelining property test
# (crates/net/tests/pipeline_props.rs). Both are timing-sensitive by
# nature (real sockets, kernel buffers), which is exactly why they belong
# in the soak loop.
#
# The dynamic-membership fault family soaks too: the in-process
# reconfiguration suite (tests/membership.rs — mid-reconfig quorum
# liveness, config changes riding per-key Paxos to every replica,
# learner-only anti-entropy convergence) and the over-TCP suite
# (crates/net/tests/membership_tcp.rs — rolling restarts under RC-checked
# load, node replacement by learner bulk-sync, a peer that boots late).
# Reconfiguration races a live workload by construction, so rare
# interleavings are the whole point of looping these.
#
# The observability plane soaks here as well: the mid-run scrape suite
# (crates/net/tests/scrape.rs — a flash-crowd cluster scraped while
# serving, concurrent + half-open scrape clients multiplexed on worker
# 0's epoll loop) and the kite-metrics sketch property tests
# (crates/metrics/tests/sketch_props.rs — HLL error bounds, histogram
# merge, quantile monotonicity under random streams).
#
# Before the loop, once: the paper-shape gate — the nine `kite-bench`
# figure bins in `quick` mode (virtual time, so their output is exact). A
# `[FAIL]` line fails the script unless it is on the known-failure list
# below, and a listed failure that no longer fails fails it too, so the
# list can only shrink (ROADMAP direction 8 (c)).
#
# Then, once: the property sweep — every property suite (the
# `kite_verify::check` runner's) at 20 fresh values of `KITE_CHECK_SEED`,
# which perturbs every property's seed. A failing property prints its
# shrunk case's one-line replay, and the script fails. The fault-schedule
# swarm (tests/chaos.rs) is one of them: its amnesia hunt, a known
# violation until ROADMAP direction 7's fix, must find (P) or (A) at every
# seed, and prints the case that found it and the case it shrank to. It
# prints the sweep's wall time.
#
# Then, once: the exactly-once-FAA soaks (tests/faa_sleeper.rs): 200
# seeds of "one session per node bumps one counter while node 4 sleeps
# three times" (~10 min), then 200 seeds of the same with every one of
# the 80 sessions bumping it — more sessions than a key's committed ring
# once kept. Deterministic per seed, so once is enough; each prints every
# failing seed, then its wall time in seconds.
#
# Usage: scripts/stress.sh [iterations] [test-filter]
#   iterations   default 50 (the loss soak runs 4 × iterations = 200)
#   test-filter  default threaded_mutex_exact_under_message_loss
#
#        scripts/stress.sh --census [runs]
#   The flake census (ROADMAP direction 13 (a)) instead of all of the above:
#   runs the bare tier-1 command `cargo test -q` `runs` times (default 50)
#   beside two busy-loop CPU hogs and prints, per test, how many runs it
#   failed and how many it skipped itself (a passing test that printed a
#   line ending in `skipped` measured nothing: it is counted, not passed).
#   A failing run's output is kept in target/census-fail-<run>.log.
#   `cargo test` stops at the first failing test binary, so a run counts
#   the failures of that binary only. The census reports; it never fails.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--census" ]; then
    RUNS="${2:-50}"
    echo "== building =="
    cargo build --release -q
    cargo test -q --no-run 2>/dev/null
    hogs=()
    for _ in 1 2; do
        (while :; do :; done) &
        hogs+=("$!")
    done
    trap 'kill "${hogs[@]}" 2>/dev/null || true' EXIT
    echo "== census: cargo test -q x${RUNS}, 2 CPU hogs =="
    tally="$(mktemp)"
    skips="$(mktemp)"
    failed_runs=0
    SECONDS=0
    for i in $(seq 1 "$RUNS"); do
        log="$(mktemp)"
        # `--show-output` prints each passing test's output under a
        # `---- <name> stdout ----` header in the `successes:` section, a
        # failing test's in `failures:`.
        rc=0
        cargo test -q -- --show-output >"$log" 2>&1 || rc=$?
        awk '/^successes:$/ {ok = 1; test = ""} /^failures:$/ {ok = 0}
            /^---- .* stdout ----$/ {test = $2}
            ok && test != "" && /skipped$/ {print test; test = ""}' "$log" >>"$skips"
        if [ "$rc" -eq 0 ]; then
            rm -f "$log"
            printf '.'
            continue
        fi
        failed_runs=$((failed_runs + 1))
        printf 'F'
        # A failing test's output is headed `---- <name> stdout ----` in
        # the `failures:` section; a binary that dies without one (an
        # abort, a signal) is named by its rerun hint.
        names="$(awk '/^successes:$/ {bad = 0} /^failures:$/ {bad = 1}
            bad && /^---- .* stdout ----$/ {print $2}' "$log")"
        if [ -z "$names" ]; then
            names="$(sed -n 's/^error: test failed, to rerun pass `\(.*\)`$/(binary died) \1/p' "$log")"
        fi
        echo "${names:-(unparsed failure)}" >>"$tally"
        mv "$log" "target/census-fail-${i}.log"
    done
    echo
    echo "census: ${RUNS} runs, ${failed_runs} failed, $(wc -l <"$skips") self-skips, ${SECONDS} s"
    if [ -s "$tally" ]; then
        echo "failures  test"
        sort "$tally" | uniq -c | sort -rn
    fi
    if [ -s "$skips" ]; then
        echo "skips  test (passed without measuring)"
        sort "$skips" | uniq -c | sort -rn
    fi
    rm -f "$tally" "$skips"
    exit 0
fi

N="${1:-50}"
FILTER="${2:-threaded_mutex_exact_under_message_loss}"

# Invariant gate: a soak is not worth its hour if the no-alloc / event-loop
# contracts regressed. Prints every violation and aborts on any.
echo "== kite-lint (invariant pass) =="
scripts/lint.sh

echo "== building test binaries =="
cargo test --release --test cluster_threaded --test antientropy --test merkle_faults --test wal_faults --test membership --test faa_sleeper --no-run
cargo test --release -p kite-net --test backpressure --test pipeline_props --test scrape --test membership_tcp --no-run
cargo test --release -p kite-metrics --test sketch_props --no-run
cargo build --release -p kite-bench --bins

# Every property suite, as `cargo test --release` arguments.
PROP_SUITES=(
    "--test properties"
    "--test chaos --test restart_amnesia"
    "-p kite-common --test props"
    "-p kite-kvs --test props"
    "-p kite-verify --test props"
    "-p kite-metrics --test sketch_props"
    "-p kite-net --test pipeline_props"
    "-p kite --test wire_props --test merkle_props --test inflight_props --test delinquency_props"
    "-p kite --lib wire::tests"
)
for suite in "${PROP_SUITES[@]}"; do
    # shellcheck disable=SC2086 # a suite is a list of cargo arguments
    cargo test -q --release $suite --no-run
done

run_logged() {
    # run_logged <iteration> <label> <cmd...>: run one test binary under a
    # timeout, preserving the full output of a failing iteration.
    local i="$1" label="$2"
    shift 2
    local log
    log="$(mktemp)"
    if timeout 120 "$@" >"$log" 2>&1; then
        rm -f "$log"
        printf '.'
        return 0
    fi
    local rc=$?
    local keep="target/stress-fail-${label}-${i}.log"
    mv "$log" "$keep"
    echo
    echo "iteration $i [$label] FAILED (rc=$rc, output preserved in $keep)"
    return 1
}

# Known shape-check failures, one `bin|check name` per line, each with the
# ROADMAP direction item that owns it.
KNOWN_FAILS=(
    "fig5_write_ratio|Kite(5%) ≥ ABD everywhere (relaxed ops run on ES)" # direction 8 (d)
)
SHAPE_BINS=(fig5_write_ratio fig6_sync_sweep fig7_write_only fig8_datastructures
    fig9_failure ablation_cas ablation_opts ablation_timeout ext_skew)

echo "== paper-shape checks, ${#SHAPE_BINS[@]} bins in quick mode =="
shape_fails=0
SECONDS=0
for bin in "${SHAPE_BINS[@]}"; do
    out="$(mktemp)"
    rc=0
    "target/release/$bin" quick >"$out" 2>/dev/null || rc=$?
    # A bin exits 1 after printing when a check FAILs; anything else is a crash.
    if [ "$rc" -ne 0 ] && [ "$rc" -ne 1 ]; then
        echo "$bin: exited $rc"
        shape_fails=$((shape_fails + 1))
    fi
    failed=0
    while IFS= read -r line; do
        failed=$((failed + 1))
        name="${line#\[FAIL\] }"
        name="${name%% — *}"
        known=0
        for k in "${KNOWN_FAILS[@]}"; do
            if [ "$k" = "$bin|$name" ]; then
                known=1
            fi
        done
        if [ "$known" -eq 1 ]; then
            echo "$bin: known failure: $name"
        else
            echo "$bin: NEW FAILURE: $line"
            shape_fails=$((shape_fails + 1))
        fi
    done < <(grep '^\[FAIL\]' "$out" || true)
    if [ "$rc" -eq 1 ] && [ "$failed" -eq 0 ]; then
        echo "$bin: exited 1 without a [FAIL] line"
        shape_fails=$((shape_fails + 1))
    fi
    for k in "${KNOWN_FAILS[@]}"; do
        if [ "${k%%|*}" = "$bin" ] && ! grep -qF "[FAIL] ${k#*|} — " "$out"; then
            echo "$bin: known failure now passes, remove it from KNOWN_FAILS: ${k#*|}"
            shape_fails=$((shape_fails + 1))
        fi
    done
    rm -f "$out"
done
echo "shape gate: ${#SHAPE_BINS[@]} bins in ${SECONDS} s, ${shape_fails} problem(s)"
if [ "$shape_fails" -gt 0 ]; then
    exit 1
fi

SWEEP=20
echo "== property sweep: ${#PROP_SUITES[@]} suites x ${SWEEP} fresh KITE_CHECK_SEED values =="
prop_fails=0
SECONDS=0
for _ in $(seq 1 "$SWEEP"); do
    seed="$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')"
    for suite in "${PROP_SUITES[@]}"; do
        out="$(mktemp)"
        # shellcheck disable=SC2086 # a suite is a list of cargo arguments
        if ! KITE_CHECK_SEED="$seed" cargo test -q --release $suite -- --show-output >"$out" 2>&1; then
            prop_fails=$((prop_fails + 1))
            echo "KITE_CHECK_SEED=$seed cargo test --release $suite: FAILED"
            grep -E '^(property failed at case|shrunk from|replay: )' "$out" || tail -n 20 "$out"
        fi
        # The amnesia hunt (a known violation) reports the case that found
        # it and the case it shrank to.
        grep -E '^hunt: ' "$out" | sed "s/^/KITE_CHECK_SEED=$seed /" || true
        rm -f "$out"
    done
done
echo "property sweep: ${SWEEP} seeds x ${#PROP_SUITES[@]} suites in ${SECONDS} s, ${prop_fails} failure(s)"
if [ "$prop_fails" -gt 0 ]; then
    exit 1
fi

echo "== exactly-once FAA with a sleeping proposer, seeds 1..=200 =="
SECONDS=0
cargo test -q --release --test faa_sleeper -- --ignored --exact faa_counter_is_exact_across_200_seeds
# The soak's wall time is the budget a wider seed swarm spends: print it.
echo "FAA soak: 200 seeds in ${SECONDS} s"

echo "== exactly-once FAA with every session adding, seeds 1..=200 =="
SECONDS=0
cargo test -q --release --test faa_sleeper -- --ignored --exact \
    faa_counter_is_exact_across_200_seeds_when_every_session_adds
echo "FAA soak, every session adding: 200 seeds in ${SECONDS} s"

LOSS_N=$((4 * N))
echo "== stressing '${FILTER}' x${LOSS_N} =="
fails=0
SECONDS=0
for i in $(seq 1 "$LOSS_N"); do
    run_logged "$i" loss cargo test -q --release --test cluster_threaded "$FILTER" \
        -- --test-threads=1 --nocapture || fails=$((fails + 1))
done
echo
echo "loss soak: $((LOSS_N - fails))/${LOSS_N} passed in ${SECONDS} s"

echo "== stressing the fault suites x${N} =="
for i in $(seq 1 "$N"); do
    run_logged "$i" ae cargo test -q --release --test antientropy \
        -- --test-threads=1 || fails=$((fails + 1))
    run_logged "$i" merkle cargo test -q --release --test merkle_faults \
        -- --test-threads=1 || fails=$((fails + 1))
    run_logged "$i" wal cargo test -q --release --test wal_faults \
        -- --test-threads=1 || fails=$((fails + 1))
    run_logged "$i" membership cargo test -q --release --test membership \
        -- --test-threads=1 || fails=$((fails + 1))
    run_logged "$i" membership-tcp cargo test -q --release -p kite-net --test membership_tcp \
        -- --test-threads=1 || fails=$((fails + 1))
    run_logged "$i" backpressure cargo test -q --release -p kite-net --test backpressure \
        -- --test-threads=1 || fails=$((fails + 1))
    run_logged "$i" pipeline cargo test -q --release -p kite-net --test pipeline_props \
        -- --test-threads=1 || fails=$((fails + 1))
    run_logged "$i" scrape cargo test -q --release -p kite-net --test scrape \
        -- --test-threads=1 || fails=$((fails + 1))
    run_logged "$i" sketch cargo test -q --release -p kite-metrics --test sketch_props \
        -- --test-threads=1 || fails=$((fails + 1))
done
echo
if [ "$fails" -gt 0 ]; then
    echo "!! $fails run(s) failed"
    exit 1
fi
echo "all $N iterations green"
