#!/usr/bin/env bash
# A/B the benchmark: a base revision against the working tree, in pairs,
# with a verdict per workload and end-to-end metric.
#
#   scripts/ab.sh <base-rev> [--pairs N] [--workloads w1,w2,...] [--seed S]
#                 [--dir D]
#
#   --pairs N      pairs per workload (default 10). A `sim_*` pair runs base
#                  and head side by side, each pinned to one of the first two
#                  CPUs this script may use (the sides swap CPUs every pair);
#                  a `tcp_*` pair, which starts several processes a run, runs
#                  base then head when i is odd, head then base when even
#   --workloads    comma-separated (default: every workload in BENCHMARK.json)
#   --seed S       the seed every run uses (default 1)
#   --dir D        work directory (default target/ab): the base's source
#                  (extracted with `git archive`, so no worktree is registered),
#                  one CARGO_TARGET_DIR per side, and every run's JSON and
#                  stderr in runs/
#
# A sim run is one single-threaded process whose `cpu_us_per_op` follows
# the host's load: run back to back, the two sides of a pair meet different
# loads, and on a shared 2-core host that spread hid a 10 % difference
# (serial A/A sets differed by 12 %). Side by side, both meet the same
# load. Without `taskset`, or with fewer than two CPUs, sim pairs run back
# to back too. Every run lasts BENCHMARK.json's `run_seconds`, the length
# the benchmark itself uses. Each side is built by its own
# `benchmark/run.sh`, so the base is measured with the harness it shipped
# with. The readings go to
# D/readings.txt and the table comes from scripts/ab_verdict.awk, which
# documents the verdicts: per workload and end-to-end metric, both medians
# with their quartiles, the head's wins, and one of `same`, `unresolved`,
# `REGRESSION`, `gain`, `too few pairs` (a gain needs 10 pairs) or `-`.
#
# `base-rev` may be `HEAD` for an A/A run (the spread the verdicts must
# clear). Exits 1 if any verdict is REGRESSION or unresolved, or any run
# failed or read `correct: false`.
set -euo pipefail
cd "$(dirname "$0")/.."
repo="$PWD"

usage() { sed -n '2,36p' "$0" >&2; exit 2; }
[ $# -gt 0 ] || usage
base_rev="$1"; shift
pairs=10 seed=1 dir=target/ab workloads=""
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --pairs) pairs="$2" ;;
        --workloads) workloads="$2" ;;
        --seed) seed="$2" ;;
        --dir) dir="$2" ;;
        *) usage ;;
    esac
    shift 2
done
mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"

# The manifest's one-line entries: workload names, and name/better/bound
# for each end-to-end metric.
manifest="$repo/BENCHMARK.json"
[ -n "$workloads" ] || workloads="$(grep -o '{"name": "[a-z_]*", "why"' "$manifest" | cut -d'"' -f4 | paste -sd, -)"
seconds="$(grep -o '"run_seconds": [0-9]*' "$manifest" | grep -o '[0-9]*$')"
metrics="$(grep '"bound"' "$manifest" | sed 's/.*"name": "\([a-z_0-9]*\)".*"better": "\([a-z]*\)".*"bound": \([0-9.]*\).*/\1 \2 \3/')"

# The base's source: extracted once per resolved revision, so a rerun
# against the same base rebuilds incrementally.
sha="$(git rev-parse --verify "$base_rev^{commit}")"
if [ "$(cat "$dir/base-src/.ab-rev" 2>/dev/null)" != "$sha" ]; then
    rm -rf "$dir/base-src"
    mkdir -p "$dir/base-src"
    git archive "$sha" | tar -x -C "$dir/base-src"
    echo "$sha" > "$dir/base-src/.ab-rev"
fi
src_of() { if [ "$1" = base ]; then echo "$dir/base-src"; else echo "$repo"; fi; }

for side in base head; do
    echo "ab: building $side" >&2
    (cd "$(src_of $side)" && CARGO_TARGET_DIR="$dir/$side-tgt" benchmark/run.sh --emit-manifest >/dev/null)
done

runs="$dir/runs"
mkdir -p "$runs"
rm -f "$runs"/*.json "$runs"/*.log
# The CPUs this script may run on, ranges expanded: sim pairs run side by
# side on the first two.
cpus=()
if command -v taskset >/dev/null; then
    mapfile -t cpus < <(taskset -pc $$ | sed 's/.*: //' | tr ',' '\n' |
        while IFS=- read -r lo hi; do seq "$lo" "${hi:-$lo}"; done)
fi
one_run() { # side workload pair [cpu]
    local out="$runs/$1-$2-s$seed-p$3" pin=()
    [ -z "${4:-}" ] || pin=(taskset -c "$4")
    (cd "$(src_of "$1")" && CARGO_TARGET_DIR="$dir/$1-tgt" "${pin[@]}" benchmark/run.sh \
        --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 2>"$out.log" | tail -1) > "$out.json" || true
    echo "ab: pair $3 $2 $1: $(grep -o '"correct": [a-z]*, "attempted": [0-9]*, "failed": [0-9]*' "$out.json")" >&2
}
for p in $(seq 1 "$pairs"); do
    for w in ${workloads//,/ }; do
        if [ "${w#sim_}" != "$w" ] && [ "${#cpus[@]}" -ge 2 ]; then
            a="${cpus[$((p % 2))]}" b="${cpus[$(((p + 1) % 2))]}"
            one_run base "$w" "$p" "$a" & one_run head "$w" "$p" "$b"; wait
        elif [ $((p % 2)) -eq 1 ]; then one_run base "$w" "$p"; one_run head "$w" "$p"
        else one_run head "$w" "$p"; one_run base "$w" "$p"; fi
    done
done

# One `workload metric pair side value` line per reading of a clean run (a
# failed run's pair drops out of the table), then the report.
status=0
clean=()
for f in "$runs"/*.json; do
    if ! grep -q '"correct": true' "$f" || grep -q '"failed": [1-9]' "$f"; then
        echo "ab: incorrect, failed or missing result: $f (stderr in ${f%.json}.log)" >&2
        status=1
    else
        clean+=("$f")
    fi
done
echo "$metrics" > "$dir/metrics.txt"
for f in "${clean[@]}"; do
    b="$(basename "$f" .json)"
    side="${b%%-*}"; rest="${b#*-}"; w="${rest%-s*}"; p="${b##*-p}"
    while read -r m _ _; do
        v="$(grep -o "\"$m\": {\"value\": [-0-9.e+]*" "$f" | grep -o '[-0-9.e+]*$' || true)"
        if [ -n "$v" ]; then echo "$w $m $p $side $v"; fi
    done <<< "$metrics"
done > "$dir/readings.txt"

echo "A/B: base $base_rev ($sha) vs working tree; $pairs pairs, seed $seed, ${seconds}s runs"
awk -f "$repo/scripts/ab_verdict.awk" "$dir/metrics.txt" "$dir/readings.txt" || status=1
exit "$status"
