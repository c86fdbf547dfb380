#!/usr/bin/env bash
# End-to-end test of the real-network transport: a 3-process `kite-node`
# cluster on localhost, driven by `kite-client` remote sessions.
#
#   1. launch 3 kite-node processes (fixed localhost ports), each exactly
#      its main thread plus one event loop per worker (plus the WAL flusher
#      in the WAL phase), holding no more resident memory than its store's
#      slots (`store_slots` × 64 B) plus a fixed residue — both are checked
#      at every `ready on`; before any load, two scrapes a second apart must
#      show worker 0's loop (which accepts for the node) going round only
#      for its timers, and the WAL flusher asleep — idle threads make no
#      wakes;
#   2. run a mixed read/write/release/acquire/RMW workload across all
#      three and check it against the RC(Lin) axioms client-side;
#   3. open-loop latency probe: fixed-arrival-rate sessions against all
#      three nodes, p50/p99/p999 printed and sanity-bounded client-side
#      (a wedged fabric fails here in seconds instead of by timeout);
#      then a flash-crowd hot-key phase with mid-run scrapes: every node's
#      `--metrics-addr` endpoint must serve the key-value view while the
#      cluster is under a one-key write storm, and the scrape deltas must
#      show ack *messages* per op staying sub-linear in node count (the
#      §6.3 ack-coalescing invariant, measured from the live counters) and
#      the event loops going round per window of the pipelined storm, not
#      per op (loop passes per op < 0.4);
#   4. SIGSTOP one node (a stalled-but-alive peer, the backpressure case
#      a crash can't exercise): the majority must keep serving while the
#      survivors' outbound rings to the frozen node shed at their caps,
#      then SIGCONT and prove the frozen node heals via anti-entropy;
#   5. SIGKILL one node mid-deployment, prove the survivors keep serving
#      (release + workload against the majority), seed a sentinel;
#   6. restart the killed node on the same port and prove it reconnects
#      and anti-entropy (keepalive sweep) converges its store — a relaxed
#      read on the restarted node is local, so seeing the sentinel value
#      proves repair traffic flowed;
#   6b. node replacement: SIGKILL node 2 again and start a *fresh* one
#      (empty store) with `--join`: it commits the add-learner config
#      change through the seed, bulk-syncs as a non-voting learner (scrape
#      deltas prove the epoch install and the store refill), then
#      `kite-client reconfig` promotes it back to voter;
#   7. SIGTERM everything and assert every node exits 0 (clean shutdown
#      through the stop-flag path).
#
# After the iteration loop, one WAL recovery phase (heavier, so run once):
# the same SIGKILL-restart dance at a ≥100k-key config with a ~20k-key
# store, once with the write-ahead log on and once off. The restarted
# node's repair counter proves the durability claim — with the WAL, a
# restart replays the local tail and anti-entropy heals only the downtime
# delta; without it, the node comes back empty and the sweep re-replicates
# the world. A final graceful-restart check asserts SIGTERM's
# flush+snapshot leaves zero replay. With the WAL on, scrape deltas across
# the fill give each node's commit cadence: its fsyncs may not exceed one
# per group-commit window (the anti-entropy sweep interval), one per 64 KiB
# staged and two per snapshot rotation, plus two for the edges of the
# stretch; its commit duty cycle (Δwal_commit_busy_ns ÷ Δt) and records per
# fsync are printed beside it. Every `ready on` prints the node's peak
# resident memory (VmHWM) beside VmRSS, and the restarted node prints both
# again once it has caught up: whether a restart's memory is a peak or is
# kept.
#
# Usage: scripts/e2e_tcp.sh [iterations]   (default 1; loop it à la
#        scripts/stress.sh for CI soak runs)
set -euo pipefail
cd "$(dirname "$0")/.."

ITERS="${1:-1}"

echo "== building release binaries =="
cargo build --release -p kite-net --bins

NODE_BIN=target/release/kite-node
CLIENT_BIN=target/release/kite-client

# Port base randomized per run to dodge TIME_WAIT collisions across quick
# successive invocations; advanced per iteration inside the loop. Kept below
# the kernel's ephemeral range (32768+): the clients' own outbound sockets
# land there, and a listener cannot bind a port one of them holds.
PORT_BASE=$(( 20000 + (RANDOM % 12000) ))

declare -a PIDS=()

start_node() { # start_node <id> <logfile> [extra-args...]
    local id="$1" log="$2"
    shift 2
    "$NODE_BIN" --node "$id" "${NODE_ARGS[@]}" "$@" >"$log" 2>&1 &
    PIDS[$id]=$!
}

scrape_metric() { # scrape_metric <metrics-addr> <metric-name>
    "$CLIENT_BIN" scrape --servers "$1" | awk -v k="$2" '$1==k{print $2}'
}

# No wake without work, on idle nodes: the WAL flusher stays asleep, and
# worker 0's loop — which also holds the node's listeners — goes round only
# for its actor's own timer — the anti-entropy sweep (birth-time cool-down)
# or keepalive, at most <timers-per-s> — and for one sweep from each peer
# per timer (an idle node's sweep is a summary, sent to every peer), so
# <timers-per-s> × nodes, plus 50 passes of slack (this scrape is traffic
# too, accepted by that same loop). There is no timer beat left to account
# for: a loop polling at 1 kHz fails.
assert_idle_wakes() { # assert_idle_wakes <timers-per-s> <metrics-addr of every node>...
    local timers="$1" m k
    shift
    local -A before allow=([wal_flusher_wakes]=10 [loop_w0_passes]=$((timers * $# + 50)))
    for m in "$@"; do
        for k in "${!allow[@]}"; do
            before[$m.$k]="$(scrape_metric "$m" "$k")"   # no wal_* keys with the WAL off
        done
    done
    sleep 1
    for m in "$@"; do
        for k in "${!allow[@]}"; do
            local b="${before[$m.$k]:-0}" a
            a="$(scrape_metric "$m" "$k")"
            if [ "$(( ${a:-0} - b ))" -gt "${allow[$k]}" ]; then
                echo "!! idle node $m: $k advanced $b -> $a in 1 s (allowed ${allow[$k]})" >&2
                exit 1
            fi
        done
    done
}

# One socket per worker pair: with its links up and no client connected, a
# node holds its fabric and metrics listeners plus one link per worker of
# every other node — 2 + (nodes − 1) × workers sockets (4 here: 3 nodes, 1
# worker). A link still coming up gets two seconds.
assert_node_sockets() { # assert_node_sockets <workers>
    local want=$((2 + 2 * $1)) id pid n
    for id in 0 1 2; do
        pid="${PIDS[$id]}"
        for _ in $(seq 1 20); do
            n="$(find "/proc/$pid/fd" -lname 'socket:*' 2>/dev/null | wc -l)"
            [ "$n" -eq "$want" ] && break
            sleep 0.1
        done
        if [ "$n" -ne "$want" ]; then
            echo "!! node $id (pid $pid) holds $n sockets, expected $want" >&2
            exit 1
        fi
    done
}

# The WAL phase's group-commit window: its nodes' anti-entropy sweep
# interval, passed explicitly (it is also kite-node's default).
WAL_WINDOW_NS=5000000

wal_commit_sample() { # wal_commit_sample <metrics-addr> -> "now_ns busy_ns records fsyncs bytes snapshots"
    "$CLIENT_BIN" scrape --servers "$1" | awk -v now="$(date +%s%N)" '
        $1=="wal_commit_busy_ns"{b=$2} $1=="wal_records"{r=$2} $1=="wal_fsyncs"{f=$2}
        $1=="wal_appended_bytes"{n=$2} $1=="wal_snapshots"{s=$2}
        END{print now, b+0, r+0, f+0, n+0, s+0}'
}

# Group-commit cadence of one node between two samples. The flusher sleeps
# out a whole window before each commit unless 64 KiB staged cut it short,
# and a snapshot rotation adds two fsyncs (seal + snapshot); the edges of
# the stretch add at most two. A slow disk only lowers the count, so the
# bound checks the cadence, not the device. Duty cycle (the share of wall
# time in write+fdatasync) and records per fsync are printed, not bounded.
assert_commit_cadence() { # assert_commit_cadence <label> <sample-before> <sample-after>
    awk -v label="$1" -v a="$2" -v b="$3" -v w="$WAL_WINDOW_NS" 'BEGIN{
        split(a, x, " "); split(b, y, " ")
        dt = y[1]-x[1]; fs = y[4]-x[4]; bytes = y[5]-x[5]; snaps = y[6]-x[6]
        duty = (dt > 0) ? (y[2]-x[2])/dt : 0
        rpf = (fs > 0) ? (y[3]-x[3])/fs : 0
        bound = int(dt / w) + int(bytes / 65536) + 2 * snaps + 2
        printf("   %s: %d fsyncs in %.2f s (bound %d: %d B staged, %d snapshots), " \
               "commit duty %.3f, %.1f records/fsync (%d records)\n",
               label, fs, dt / 1e9, bound, bytes, snaps, duty, rpf, y[3]-x[3]) > "/dev/stderr"
        if (fs > bound) { print "!! " label ": " fs " fsyncs > " bound > "/dev/stderr"; exit 1 }
    }' || exit 1
}

# A node is its event loops: once ready, `kite-node` runs its main thread,
# one thread per worker and — with the WAL on — the flusher; nothing else
# (NODE_THREADS says how many that is for the current NODE_ARGS).
#
# A ready node's resident memory is its store's slot array — `store_slots`
# × 64 B, every slot written at start-up — plus a residue that does not
# grow with the key count: code, thread stacks, rings and buffers. On a
# 1-worker node the residue read 2.9–3.5 MB at every `ready on` below (4 096
# and 131 072 keys, WAL on or off), except on the node that restarts empty
# into the wal=off phase's re-replication: its peers' repair traffic is
# already arriving when the check reads it, and it read 8.2–8.6 MB in four
# runs. The bound is the largest residue measured plus 25 %.
RSS_MEASURED_KB=8556
RSS_RESIDUE_KB=$(( RSS_MEASURED_KB * 5 / 4 ))

# Resident and peak resident memory of a process, "<VmRSS> <VmHWM>" in kB.
vm_kb() { # vm_kb <pid>
    awk '$1 == "VmRSS:" {r=$2} $1 == "VmHWM:" {h=$2} END {print r, h}' "/proc/$1/status"
}

wait_ready() { # wait_ready <node-id> <logfile> <metrics-addr>
    local pid="${PIDS[$1]}" threads rss_kb hwm_kb store_kb
    for _ in $(seq 1 100); do
        if grep -q "ready on" "$2" 2>/dev/null; then
            threads="$(ls "/proc/$pid/task" | wc -l)"
            if [ "$threads" -ne "$NODE_THREADS" ]; then
                echo "!! node $1 (pid $pid) runs $threads threads, expected $NODE_THREADS" >&2
                exit 1
            fi
            read -r rss_kb hwm_kb < <(vm_kb "$pid")
            store_kb=$(( $(scrape_metric "$3" store_slots) * 64 / 1024 ))
            echo "   node $1 ready: VmRSS ${rss_kb} kB = store ${store_kb} kB + $((rss_kb - store_kb)) kB" \
                 "(bound: store + ${RSS_RESIDUE_KB} kB), VmHWM ${hwm_kb} kB"
            if [ "$rss_kb" -gt $(( store_kb + RSS_RESIDUE_KB )) ]; then
                echo "!! node $1 (pid $pid) holds ${rss_kb} kB, more than its ${store_kb} kB store" \
                     "+ ${RSS_RESIDUE_KB} kB" >&2
                exit 1
            fi
            return 0
        fi
        sleep 0.1
    done
    echo "node never became ready; log:"; cat "$2"; return 1
}

cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true   # reap them: no defunct kite-node outlives us
}
trap cleanup EXIT

for iter in $(seq 1 "$ITERS"); do
    P0="127.0.0.1:$((PORT_BASE))"
    P1="127.0.0.1:$((PORT_BASE + 1))"
    P2="127.0.0.1:$((PORT_BASE + 2))"
    PEERS="$P0,$P1,$P2"
    # Keepalive on: a replica restarted into an idle cluster must converge
    # at heal time (the anti_entropy_keepalive_ns deployment story).
    # Session slots are claim-once per process (like the in-process
    # cluster), so every phase below gets a slot no earlier phase used on
    # the same still-running node — 16 slots covers the whole iteration,
    # replacement phase (join session + reconfig CLI) included.
    # AE tuned up (2ms sweeps, 5ms idle keepalive, 512-slot chunks) so the
    # phase-5b learner bulk-sync of the full store fits the poll windows
    # below — idle-time sweeps run at the keepalive cadence.
    NODE_ARGS=(--peers "$PEERS" --workers 1 --sessions-per-worker 16 --keys 4096 --keepalive-ns 5000000
               --anti-entropy-interval-ns 2000000 --anti-entropy-chunk 512)
    NODE_THREADS=2   # main + 1 worker
    # Metrics endpoints on the next three ports (scraped in phase 2b).
    M0="127.0.0.1:$((PORT_BASE + 3))"
    M1="127.0.0.1:$((PORT_BASE + 4))"
    M2="127.0.0.1:$((PORT_BASE + 5))"
    echo "== iteration $iter/$ITERS (ports $PORT_BASE..$((PORT_BASE + 5))) =="
    LOGDIR="$(mktemp -d)"
    start_node 0 "$LOGDIR/n0.log" --metrics-addr "$M0"
    start_node 1 "$LOGDIR/n1.log" --metrics-addr "$M1"
    start_node 2 "$LOGDIR/n2.log" --metrics-addr "$M2"
    wait_ready 0 "$LOGDIR/n0.log" "$M0"
    wait_ready 1 "$LOGDIR/n1.log" "$M1"
    wait_ready 2 "$LOGDIR/n2.log" "$M2"
    # 5 ms keepalive: 200 sweeps/s per node.
    assert_idle_wakes 200 "$M0" "$M1" "$M2"
    assert_node_sockets 1

    echo "-- phase 1: mixed workload across all 3 nodes + RC(Lin) check"
    "$CLIENT_BIN" mixed --servers "$P0,$P1,$P2" --slot 0 --ops 25

    echo "-- phase 2: open-loop latency at a fixed arrival rate (p50/p99/p999)"
    # The sanity bounds live in the client binary.
    "$CLIENT_BIN" openloop --servers "$P0,$P1,$P2" --slot 5 --rate 1000 --secs 2

    echo "-- phase 2b: flash-crowd hot key + mid-run scrapes (§6.3 ack-coalescing invariant)"
    # Baseline counters from the live endpoints.
    acks0=0; done0=0; passes0=0
    for m in "$M0" "$M1" "$M2"; do
        acks0=$((acks0 + $(scrape_metric "$m" proto_acks_sent)))
        done0=$((done0 + $(scrape_metric "$m" proto_completed)))
        passes0=$((passes0 + $(scrape_metric "$m" loop_w0_passes)))
    done
    # One key takes half of every session's pipelined writes, from all
    # three nodes at once.
    "$CLIENT_BIN" hot --servers "$P0,$P1,$P2" --slot 9 --ops 1200 --key-base 2600 &
    HOT_PID=$!
    sleep 0.3
    # Mid-run: every node's endpoint must serve the full view while the
    # write storm is in flight.
    for n in 0 1 2; do
        mvar="M$n"
        nid="$(scrape_metric "${!mvar}" node_id)"
        [ "$nid" = "$n" ] || { echo "!! node $n scrape returned node_id '$nid'"; exit 1; }
        p99="$(scrape_metric "${!mvar}" op_write_latency_ns_p99)"
        [ -n "$p99" ] || { echo "!! node $n scrape missing write-latency histogram"; exit 1; }
    done
    wait "$HOT_PID" || { echo "!! hot phase failed"; exit 1; }
    acks1=0; done1=0; passes1=0
    for m in "$M0" "$M1" "$M2"; do
        acks1=$((acks1 + $(scrape_metric "$m" proto_acks_sent)))
        done1=$((done1 + $(scrape_metric "$m" proto_completed)))
        passes1=$((passes1 + $(scrape_metric "$m" loop_w0_passes)))
    done
    # 3 nodes → 2 acks/op if every ack were its own message. Coalescing
    # under the pipelined hot-key storm must keep ack *messages* per op
    # clearly sub-linear (< 1.5), or §6.3 regressed. The same deltas give
    # the event loops' passes per op: a pass starts every op its pipelined
    # client has submitted, so the storm costs passes per window (0.15–0.19
    # per op on a 2-core host), not one per two ops (0.64–0.71 when a pass
    # started two of a client's ops).
    awk -v a="$((acks1 - acks0))" -v c="$((done1 - done0))" -v p="$((passes1 - passes0))" 'BEGIN {
        if (c <= 0) { print "!! scrape deltas saw no completed ops"; exit 1 }
        apo = a / c
        printf "   ack-msgs/op under flash crowd: %.3f (linear would be 2.0)\n", apo
        if (apo >= 1.5) { print "!! ack coalescing regressed: " apo " >= 1.5"; exit 1 }
        ppo = p / c
        printf "   loop passes/op under flash crowd: %.3f\n", ppo
        if (ppo >= 0.4) { print "!! pipelined ops are paced per pass: " ppo " >= 0.4"; exit 1 }
    }'
    # The dump view serves the promoted watchdog text, and the distinct-keys
    # sketch is live (hot phase touched ~257 keys + earlier phases).
    "$CLIENT_BIN" scrape --servers "$M0" --view dump | grep -q "links of" \
        || { echo "!! dump view missing link table"; exit 1; }
    est="$(scrape_metric "$M0" store_distinct_keys_est)"
    [ "$est" -gt 0 ] || { echo "!! distinct-keys estimate is zero"; exit 1; }

    echo "-- phase 3: SIGSTOP node 1; survivors shed to the frozen peer, then it heals"
    kill -STOP "${PIDS[1]}"
    # Majority (nodes 0+2) serves releases and consensus while node 1's
    # inbound TCP stalls — the survivors' bounded rings to it fill and shed.
    "$CLIENT_BIN" put   --servers "$P0" --slot 2 --key 901 --val 6666
    "$CLIENT_BIN" mixed --servers "$P0,$P2" --slot 3 --ops 10 --key-base 3000
    kill -CONT "${PIDS[1]}"
    # A relaxed read on node 1 is local: seeing the sentinel written while
    # it was frozen proves the link recovered and repair traffic flowed.
    "$CLIENT_BIN" poll --servers "$P1" --slot 4 --key 901 --val 6666 --timeout-secs 30

    echo "-- phase 4: SIGKILL node 2; majority must keep serving"
    kill -9 "${PIDS[2]}"
    wait "${PIDS[2]}" 2>/dev/null || true
    "$CLIENT_BIN" put  --servers "$P0" --slot 6 --key 900 --val 7777
    # Fresh key range: phase 1's counters/locks keep their final values.
    "$CLIENT_BIN" mixed --servers "$P0,$P1" --slot 7 --ops 15 --key-base 1000

    echo "-- phase 5: restart node 2 on the same port; reconnect + anti-entropy catch-up"
    start_node 2 "$LOGDIR/n2-restart.log" --metrics-addr "$M2"
    wait_ready 2 "$LOGDIR/n2-restart.log" "$M2"
    # The sentinel was released while node 2 was dead; a *relaxed* read on
    # node 2 is local, so convergence proves the keepalive sweep repaired it.
    "$CLIENT_BIN" poll --servers "$P2" --slot 0 --key 900 --val 7777 --timeout-secs 30

    echo "-- phase 5b: replace node 2 — SIGKILL, rejoin as learner, bulk-sync, promote"
    # Fresh identity, empty store: the replacement knows nothing but the
    # seed's address. `--join` commits the add-learner config change
    # through node 0 BEFORE serving; convergence is then learner-sync only
    # (a learner receives no protocol rounds, so the sentinel below can
    # only arrive via anti-entropy).
    kill -9 "${PIDS[2]}"
    wait "${PIDS[2]}" 2>/dev/null || true
    epoch0="$(scrape_metric "$M0" membership_epoch)"
    # Baseline = value-bearing keys, not claimed slots: reads probing
    # fresh keys claim slots too, and those never transfer (anti-entropy
    # converges values) — `store_len` parity would be unreachable.
    len0="$(scrape_metric "$M0" store_vals)"
    "$CLIENT_BIN" put --servers "$P0" --slot 10 --key 902 --val 5555
    start_node 2 "$LOGDIR/n2-replace.log" --metrics-addr "$M2" --join "$P0" --join-slot 12
    wait_ready 2 "$LOGDIR/n2-replace.log" "$M2"
    grep -q "joined via" "$LOGDIR/n2-replace.log" \
        || { echo "!! replacement printed no join line"; cat "$LOGDIR/n2-replace.log"; exit 1; }
    # The join CAS bumped the membership epoch on the survivors…
    epoch1="$(scrape_metric "$M0" membership_epoch)"
    [ "$epoch1" -gt "$epoch0" ] \
        || { echo "!! join did not advance membership epoch ($epoch0 -> $epoch1)"; exit 1; }
    # …and the learner's own scrape must converge to the same epoch with
    # itself in the learner set (bit 2 = mask 4) — it learns the config it
    # is part of by syncing.
    for _ in $(seq 1 100); do
        [ "$(scrape_metric "$M2" membership_epoch)" = "$epoch1" ] && break
        sleep 0.1
    done
    [ "$(scrape_metric "$M2" membership_epoch)" = "$epoch1" ] \
        || { echo "!! learner never installed epoch $epoch1"; exit 1; }
    learners="$(scrape_metric "$M2" membership_learners)"
    [ "$((learners & 4))" -ne 0 ] \
        || { echo "!! learner mask $learners missing node 2"; exit 1; }
    # Bulk-sync: the sentinel released while slot 2 was dark appears via
    # repair traffic alone, and the store refills to the survivors' size.
    "$CLIENT_BIN" poll --servers "$P2" --slot 0 --key 902 --val 5555 --timeout-secs 30
    for _ in $(seq 1 100); do
        len2="$(scrape_metric "$M2" store_vals)"
        [ "$len2" -ge "$len0" ] && break
        sleep 0.1
    done
    [ "$len2" -ge "$len0" ] \
        || { echo "!! learner store_vals $len2 never reached survivor baseline $len0"; exit 1; }
    # The membership line is in the watchdog dump view too.
    "$CLIENT_BIN" scrape --servers "$M2" --view dump | grep -q "membership e" \
        || { echo "!! dump view missing membership line"; exit 1; }
    # Promote the caught-up learner back to voter through the client CLI.
    "$CLIENT_BIN" reconfig --servers "$P0" --slot 13 --action promote --target 2
    for _ in $(seq 1 100); do
        voters="$(scrape_metric "$M2" membership_voters)"
        [ "$((voters & 4))" -ne 0 ] && break
        sleep 0.1
    done
    [ "$((voters & 4))" -ne 0 ] \
        || { echo "!! promoted node never saw itself as a voter (mask $voters)"; exit 1; }
    # Releases wait for all three voters again: prove it end to end.
    "$CLIENT_BIN" put --servers "$P0" --slot 14 --key 903 --val 4444

    echo "-- phase 6: SIGTERM all; every node must exit 0"
    for n in 0 1 2; do
        kill -TERM "${PIDS[$n]}"
    done
    rc_all=0
    for n in 0 1 2; do
        if wait "${PIDS[$n]}"; then
            echo "   node $n exited cleanly"
        else
            rc=$?
            echo "!! node $n exited with $rc; log tail:"
            tail -30 "$LOGDIR/n$n"*.log
            rc_all=1
        fi
    done
    PIDS=()
    if [ "$rc_all" -ne 0 ]; then
        echo "!! iteration $iter FAILED (logs in $LOGDIR)"
        exit 1
    fi
    # The phase-5 restart incarnation was SIGKILLed by phase 5b; its clean
    # exit comes from the phase-5b replacement incarnation instead.
    grep -q "clean exit" "$LOGDIR/n2-replace.log" || { echo "!! node 2 replacement missing clean exit"; exit 1; }
    rm -rf "$LOGDIR"
    PORT_BASE=$((PORT_BASE + 6))
done

# ---------------------------------------------------------------------------
# WAL recovery phase: replay-the-tail vs re-replicate-the-world
# ---------------------------------------------------------------------------
FILL_COUNT=20000
DELTA_COUNT=300
LAST_FILL_KEY=$((1000 + FILL_COUNT - 1))      # fill keys are 1000..1000+count
LAST_DELTA_KEY=$((50000 + DELTA_COUNT - 1))   # delta keys are 50000..50000+count

# Runs in the main shell, so the EXIT trap sees the PIDS of the nodes it
# starts: a failed check anywhere in it leaves no daemon running.
wal_run() { # wal_run <on|off> -> sets WAL_REPAIRS, the restarted node's repair count
    local wal="$1"
    local logdir waldir
    logdir="$(mktemp -d)"
    waldir="$(mktemp -d)"
    P0="127.0.0.1:$((PORT_BASE))"
    P1="127.0.0.1:$((PORT_BASE + 1))"
    P2="127.0.0.1:$((PORT_BASE + 2))"
    local m0="127.0.0.1:$((PORT_BASE + 3))"
    local m1="127.0.0.1:$((PORT_BASE + 4))"
    local m2="127.0.0.1:$((PORT_BASE + 5))"
    PORT_BASE=$((PORT_BASE + 6))
    NODE_ARGS=(--peers "$P0,$P1,$P2" --workers 1 --sessions-per-worker 6 \
               --keys 131072 --keepalive-ns 50000000 --anti-entropy-interval-ns "$WAL_WINDOW_NS")
    NODE_THREADS=2   # main + 1 worker
    if [ "$wal" = on ]; then
        NODE_ARGS+=(--wal on --wal-dir "$waldir")
        NODE_THREADS=3   # + the WAL flusher
    fi
    start_node 0 "$logdir/n0.log" --metrics-addr "$m0"
    start_node 1 "$logdir/n1.log" --metrics-addr "$m1"
    start_node 2 "$logdir/n2.log" --metrics-addr "$m2"
    wait_ready 0 "$logdir/n0.log" "$m0"
    wait_ready 1 "$logdir/n1.log" "$m1"
    wait_ready 2 "$logdir/n2.log" "$m2"
    # With the WAL on this is the flusher's check: nothing staged, no wakes.
    # The birth-time cool-down is one Merkle cycle (seven 5 ms sweeps at
    # this size); after it, the 50 ms keepalive: 20 sweeps/s per node.
    assert_idle_wakes 20 "$m0" "$m1" "$m2"
    assert_node_sockets 1

    echo "-- wal=$wal: fill $FILL_COUNT keys, then SIGKILL node 2"
    local -a hot_before=()
    if [ "$wal" = on ]; then
        for m in "$m0" "$m1" "$m2"; do hot_before+=("$(wal_commit_sample "$m")"); done
    fi
    "$CLIENT_BIN" fill --servers "$P0,$P1,$P2" --slot 0 --key-base 1000 --count "$FILL_COUNT"
    if [ "$wal" = on ]; then
        local n=0
        for m in "$m0" "$m1" "$m2"; do
            assert_commit_cadence "node $n" "${hot_before[$n]}" "$(wal_commit_sample "$m")"
            n=$((n + 1))
        done
    fi
    sleep 1   # let replication + group commit drain node 2's tail
    kill -9 "${PIDS[2]}"
    wait "${PIDS[2]}" 2>/dev/null || true

    echo "-- wal=$wal: write the downtime delta against the majority"
    "$CLIENT_BIN" fill --servers "$P0,$P1" --slot 2 --key-base 50000 --count "$DELTA_COUNT"
    "$CLIENT_BIN" put  --servers "$P0" --slot 3 --key 900 --val 7777

    echo "-- wal=$wal: restart node 2, wait for full convergence"
    start_node 2 "$logdir/n2-restart.log" --metrics-addr "$m2"
    wait_ready 2 "$logdir/n2-restart.log" "$m2"
    if [ "$wal" = on ]; then
        # The boot line must prove the restart recovered the pre-crash
        # store locally instead of starting empty.
        grep -q "recovered" "$logdir/n2-restart.log" \
            || { echo "!! wal=on restart printed no recovery line" >&2; exit 1; }
        local recov snap_n wal_n
        recov="$(grep "recovered" "$logdir/n2-restart.log")"
        echo "   $recov"
        snap_n="$(sed -n 's/.*snapshot_entries=\([0-9]*\).*/\1/p' <<<"$recov")"
        wal_n="$(sed -n 's/.*wal_records=\([0-9]*\).*/\1/p' <<<"$recov")"
        if [ "$((snap_n + wal_n))" -lt "$FILL_COUNT" ]; then
            echo "!! wal=on recovery too small: snapshot=$snap_n + wal=$wal_n < $FILL_COUNT" >&2
            exit 1
        fi
    fi
    # Relaxed reads on node 2 are local: seeing the sentinel, the last
    # delta key AND the last fill key proves its store fully caught up
    # (for wal=off every one of these arrives via repair traffic).
    "$CLIENT_BIN" poll --servers "$P2" --slot 0 --key 900 --val 7777 --timeout-secs 60
    "$CLIENT_BIN" poll --servers "$P2" --slot 1 --key "$LAST_DELTA_KEY" --val "$DELTA_COUNT" --timeout-secs 60
    "$CLIENT_BIN" poll --servers "$P2" --slot 2 --key "$LAST_FILL_KEY" --val "$FILL_COUNT" --timeout-secs 120
    sleep 1   # let in-flight repair chunks finish counting
    local rss_kb hwm_kb
    read -r rss_kb hwm_kb < <(vm_kb "${PIDS[2]}")
    echo "   wal=$wal: restarted node 2 caught up: VmRSS ${rss_kb} kB, VmHWM ${hwm_kb} kB"

    echo "-- wal=$wal: SIGTERM all, read node 2's repair counter"
    for n in 0 1 2; do kill -TERM "${PIDS[$n]}"; done
    for n in 0 1 2; do
        wait "${PIDS[$n]}" || { echo "!! wal=$wal node $n unclean exit" >&2; \
                                tail -30 "$logdir/n$n"*.log >&2; exit 1; }
    done
    PIDS=()
    local repairs
    repairs="$(sed -n 's/.*ae_repairs=\([0-9]*\).*/\1/p' "$logdir/n2-restart.log" | tail -1)"
    [ -n "$repairs" ] || { echo "!! wal=$wal: no ae_repairs in node 2 shutdown dump" >&2; exit 1; }

    if [ "$wal" = on ]; then
        echo "-- wal=on: graceful-shutdown restart must replay zero records"
        P2b="127.0.0.1:$((PORT_BASE))"
        local m2b="127.0.0.1:$((PORT_BASE + 1))"
        PORT_BASE=$((PORT_BASE + 3))
        NODE_ARGS=(--peers "$P0,$P1,$P2b" --workers 1 --sessions-per-worker 6 \
                   --keys 131072 --keepalive-ns 50000000 --wal on --wal-dir "$waldir")
        NODE_THREADS=3   # main + 1 worker + the WAL flusher
        start_node 2 "$logdir/n2-graceful.log" --metrics-addr "$m2b"
        wait_ready 2 "$logdir/n2-graceful.log" "$m2b"
        grep "recovered" "$logdir/n2-graceful.log" >&2
        grep -q "wal_records=0 " "$logdir/n2-graceful.log" \
            || { echo "!! graceful shutdown left a WAL tail to replay" >&2; exit 1; }
        grep -Eq "snapshot_entries=[1-9][0-9]*" "$logdir/n2-graceful.log" \
            || { echo "!! graceful shutdown snapshot is empty" >&2; exit 1; }
        kill -TERM "${PIDS[2]}"
        wait "${PIDS[2]}" || { echo "!! graceful-restart node unclean exit" >&2; exit 1; }
        PIDS=()
    fi
    rm -rf "$logdir" "$waldir"
    WAL_REPAIRS="$repairs"
}

echo "== WAL recovery phase: kill-restart-verify at ${FILL_COUNT}-key scale, wal on vs off =="
wal_run on
REPAIRS_ON="$WAL_REPAIRS"
wal_run off
REPAIRS_OFF="$WAL_REPAIRS"
echo "   restarted-node repairs: wal=on $REPAIRS_ON vs wal=off $REPAIRS_OFF"
# wal=off re-replicates the whole store (~20k repairs); wal=on replays the
# tail locally and repairs only the downtime delta (~300 + sentinel +
# in-flight stragglers). Require a wide structural gap, not exact counts.
if [ "$REPAIRS_OFF" -lt $((FILL_COUNT / 2)) ]; then
    echo "!! wal=off restart repaired only $REPAIRS_OFF keys — re-replication never happened?"
    exit 1
fi
if [ "$REPAIRS_ON" -ge $((REPAIRS_OFF / 5)) ]; then
    echo "!! WAL recovery did not shrink repair traffic: $REPAIRS_ON vs $REPAIRS_OFF"
    exit 1
fi

echo "all $ITERS iteration(s) + WAL recovery phase green"
