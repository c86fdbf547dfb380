#!/usr/bin/env bash
# A flat sampling profile on a host with no perf, gdb or valgrind — only
# cc, nm and addr2line. Builds a tiny LD_PRELOAD sampler (SIGPROF driven by
# ITIMER_PROF, so it samples CPU time, not wall time) into target/, runs
# the given command under it, and prints where the samples fell: by
# function and by inlined source line.
#
#   scripts/flatprof.sh [--us N] [--top N] -- <command> [args...]
#
#   --us N    sampling period in microseconds of CPU time (default 1000)
#   --top N   rows per table (default 25)
#
# The binary needs line tables. The root workspace's release profile has
# `debug = true` already; the benchmark harness is its own workspace, so
# build it with CARGO_PROFILE_RELEASE_DEBUG=line-tables-only, e.g.
#
#   CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR=target/prof \
#       benchmark/run.sh --workload sim_typical --seed 1 --seconds 1 --trace 0
#   scripts/flatprof.sh -- target/prof/harness/release/kite-benchmark \
#       --workload sim_typical --seed 1 --seconds 15 --trace 0
#
# Run the binary itself, not a wrapper script: every process that inherits
# LD_PRELOAD is sampled and gets its own table. Samples outside the main
# executable (libc, the vDSO) show as `??`. Not part of tier-1.
set -euo pipefail

us=1000 top=25
while [ $# -gt 0 ]; do
    case "$1" in
        --us) us="$2"; shift 2 ;;
        --top) top="$2"; shift 2 ;;
        --) shift; break ;;
        *) break ;;
    esac
done
[ $# -gt 0 ] || { sed -n '2,24p' "$0" >&2; exit 2; }

mkdir -p target
cat > target/flatprof.c <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>
#define CAP (1u << 20)
static unsigned long pcs[CAP];
static unsigned long n;
static void on_prof(int sig, siginfo_t *si, void *uc) {
    unsigned long i = __atomic_fetch_add(&n, 1, __ATOMIC_RELAXED);
    if (i < CAP) pcs[i] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}
/* The first object dl_iterate_phdr reports is the main executable. */
static int first(struct dl_phdr_info *info, size_t size, void *base) {
    *(unsigned long *)base = info->dlpi_addr;
    return 1;
}
__attribute__((constructor)) static void start(void) {
    const char *us = getenv("FLATPROF_US");
    struct sigaction sa = {0};
    struct itimerval it = {{0, us ? atol(us) : 1000}, {0, us ? atol(us) : 1000}};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, 0);
    setitimer(ITIMER_PROF, &it, 0);
}
__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    char path[4096], exe[4096] = {0};
    unsigned long base = 0, i, taken = n < CAP ? n : CAP;
    const char *out = getenv("FLATPROF_OUT");
    FILE *f;
    setitimer(ITIMER_PROF, &off, 0);
    if (!out || readlink("/proc/self/exe", exe, sizeof exe - 1) < 0) return;
    snprintf(path, sizeof path, "%s.%d", out, (int)getpid());
    if (!(f = fopen(path, "w"))) return;
    dl_iterate_phdr(first, &base);
    fprintf(f, "%s\n", exe);
    for (i = 0; i < taken; i++) fprintf(f, "%lx\n", pcs[i] - base);
    fclose(f);
}
EOF
cc -O2 -shared -fPIC -o target/flatprof.so target/flatprof.c

out="$PWD/target/flatprof.$$"
rm -f "$out".*
status=0
FLATPROF_US="$us" FLATPROF_OUT="$out" LD_PRELOAD="$PWD/target/flatprof.so" "$@" || status=$?

# One table pair per sampled process. `addr2line -a -f -i` prints, per
# address, the address line and then (function, file:line) pairs from the
# innermost inlined frame outwards: the first pair is the source line the
# sample sits on (one row per line, however many callers it is inlined
# into), the last one the function the symbol table knows.
for samples in "$out".*; do
    [ -e "$samples" ] || { echo "flatprof: no samples written (did the command exit normally?)" >&2; exit 1; }
    exe=$(head -1 "$samples")
    total=$(($(wc -l < "$samples") - 1))
    echo "== $exe: $total samples, one per $us us of CPU =="
    [ "$total" -gt 0 ] || { rm -f "$samples"; continue; }
    tail -n +2 "$samples" | sort | uniq -c | awk '{print $1, $2}' > "$samples.counts"
    awk '{print $2}' "$samples.counts" | addr2line -e "$exe" -a -f -i -C 2>/dev/null |
        awk -v counts="$samples.counts" -v top="$top" -v total="$total" '
            BEGIN { while ((getline line < counts) > 0) { split(line, p, " "); weight[++k] = p[1] } }
            function flush() { if (seen) { by_line[inner] += w; by_fn[outer] += w } }
            /^0x[0-9a-f]+$/ { flush(); w = weight[++a]; seen = 0; state = 0; next }
            state == 0 { fn = $0; state = 1; next }
            {
                sub(/ \(discriminator [0-9]+\)/, "")
                if (!seen) inner = $0
                outer = fn; seen = 1; state = 0
            }
            END {
                flush()
                show("self time by function", by_fn)
                show("self time by inlined source line", by_line)
            }
            function show(title, tab,    key, cmd) {
                print "-- " title " --"
                cmd = "sort -t\"\t\" -k1,1nr | head -n " top
                for (key in tab) printf "%d\t%5.1f%%  %s\n", tab[key], 100 * tab[key] / total, key | cmd
                close(cmd)
            }'
    rm -f "$samples" "$samples.counts"
done
exit "$status"
