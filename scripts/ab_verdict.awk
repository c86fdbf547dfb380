# The verdict table of scripts/ab.sh, from its two record files:
#
#   awk -f scripts/ab_verdict.awk metrics.txt readings.txt
#
# metrics.txt: one `name better bound` line per end-to-end metric
# (`better` is `lower` or `higher`, `bound` a fraction of the base median).
# readings.txt: one `workload metric pair side value` line per reading,
# `side` being `base` or `head`. Per workload and metric, over the pairs
# holding both sides' readings, it prints both medians with their
# quartiles, the head's wins (a pair is won when the head's run is strictly
# better) and the first verdict that holds:
#
#   same           every run of both sides read the same value
#   unresolved     a side's interquartile range is wider than the bound
#                  times its median, and the two sides' runs overlap: the
#                  spread hides any move the bound speaks of
#   REGRESSION     the head's median is worse than the base's by more than
#                  the bound
#   gain           at least 9 in 10 pairs won, and the medians differ by
#                  more than the base's interquartile range
#   too few pairs  the gain rule held, over fewer than 10 pairs
#   -              none of the above (within noise)
#
# Exits 1 if any verdict is REGRESSION or unresolved.

function sortn(a, n,    i, j, t) { for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } }
function q(a, n, f,    x, i) { x = 1 + (n - 1) * f; i = int(x); return (i >= n) ? a[n] : a[i] + (x - i) * (a[i + 1] - a[i]) }
function abs(x) { return x < 0 ? -x : x }

FNR == NR { order[++nm] = $1; better[$1] = $2; bound[$1] = $3; next }
{
    key = $1 SUBSEP $2
    val[key, $4, $3] = $5
    if (!((key, $3) in havepair)) { havepair[key, $3] = 1; pairs[key] = pairs[key] " " $3 }
    if (!($1 in seen)) { seen[$1] = 1; wl[++nw] = $1 }
}
END {
    printf "%-18s %-14s %12s %-27s %12s %-27s %6s  %s\n", "workload", "metric", "base p50", "  [q1, q3]", "head p50", "  [q1, q3]", "wins", "verdict"
    for (wi = 1; wi <= nw; wi++) for (mi = 1; mi <= nm; mi++) {
        w = wl[wi]; m = order[mi]; key = w SUBSEP m; np = wins = differ = 0
        delete B; delete H
        n = split(pairs[key], ids, " ")
        for (i = 1; i <= n; i++) {
            p = ids[i]
            if (!((key, "base", p) in val) || !((key, "head", p) in val)) continue
            b = val[key, "base", p] + 0; h = val[key, "head", p] + 0
            B[++np] = b; H[np] = h
            if ((better[m] == "lower" && h < b) || (better[m] == "higher" && h > b)) wins++
        }
        if (np == 0) continue
        for (i = 1; i <= np; i++) if (B[i] != B[1] || H[i] != B[1]) differ = 1
        sortn(B, np); sortn(H, np)
        mb = q(B, np, 0.5); mh = q(H, np, 0.5)
        iqrb = q(B, np, 0.75) - q(B, np, 0.25); iqrh = q(H, np, 0.75) - q(H, np, 0.25)
        worse = (better[m] == "lower") ? mh - mb : mb - mh
        wide = iqrb > bound[m] * abs(mb) || iqrh > bound[m] * abs(mh)
        apart = H[np] < B[1] || H[1] > B[np]
        if (!differ) verdict = "same"
        else if (wide && !apart) { verdict = "unresolved"; bad = 1 }
        else if (worse > bound[m] * abs(mb)) { verdict = "REGRESSION"; bad = 1 }
        else if (wins * 10 >= 9 * np && -worse > iqrb) verdict = (np >= 10) ? "gain" : "too few pairs"
        else verdict = "-"
        qb = sprintf("[%.6g, %.6g]", q(B, np, 0.25), q(B, np, 0.75))
        qh = sprintf("[%.6g, %.6g]", q(H, np, 0.25), q(H, np, 0.75))
        printf "%-18s %-14s %12.6g   %-25s %12.6g   %-25s %3d/%-3d %s\n", w, m, mb, qb, mh, qh, wins, np, verdict
    }
    exit bad
}
