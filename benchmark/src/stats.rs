//! Order statistics for the harness: exact percentiles over every sample
//! (no log₂ buckets on the client side), the percentile ladder, window
//! medians, and the quartile spread the repeatability mode reports.

/// Exact nearest-rank percentile of an ascending slice (`q` in 0..=1).
/// Empty input reads 0.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The fixed percentile ladder tails are reported from.
pub const LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];

/// Highest rung of [`LADDER`] with at least ten samples beyond it, and the
/// sample at that rung: `(percent, value)`. With fewer than twenty samples
/// no rung qualifies and the median is returned.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    let n = sorted.len();
    let mut best = LADDER[0];
    for q in LADDER {
        let rank = ((n as f64) * q).ceil() as usize;
        if n.saturating_sub(rank) >= 10 {
            best = q;
        }
    }
    (best * 100.0, percentile(sorted, best))
}

/// Median of a float slice (mean of the middle pair when even). Empty
/// input reads 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The figure of a run's quiet windows: the 10th percentile (nearest rank)
/// of its per-window values — the second lowest of fifteen. What a shared
/// host adds to a timing it only ever adds, so the quietest windows say
/// most about the program; the second lowest rather than the lowest, so
/// that one lucky window decides nothing. Empty input reads 0.
pub fn quiet(per_window: &[f64]) -> f64 {
    if per_window.is_empty() {
        return 0.0;
    }
    let mut v = per_window.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (v.len() as f64 * 0.1).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Split completion stamps (ns since the window opened) into `windows`
/// equal windows of `window_ns` and return the per-window rates in ops/s.
/// Stamps at or past the last window's end are ignored.
pub fn window_rates(stamps_ns: &[u64], window_ns: u64, windows: usize) -> Vec<f64> {
    let mut counts = vec![0u64; windows];
    for &t in stamps_ns {
        let w = (t / window_ns) as usize;
        if w < windows {
            counts[w] += 1;
        }
    }
    counts
        .iter()
        .map(|&c| c as f64 * 1e9 / window_ns as f64)
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method): `(q1, q2, q3)`. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark contract bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn ladder_picks_highest_rung_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v), (99.0, 990));
        // 999 samples: ceil(989.01) = 990 leaves 9 beyond p99 → p90.
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&v).0, 90.0);
        // 100_000 samples support p99.99 (10 beyond) but not p99.999.
        let v: Vec<u64> = (1..=100_000).collect();
        assert_eq!(tail(&v), (99.99, 99_990));
        // Too few samples for any rung: the median.
        let v: Vec<u64> = (1..=15).collect();
        assert_eq!(tail(&v), (50.0, 8));
    }

    #[test]
    fn window_median_throughput() {
        // Three 1 s windows holding 2, 6 and 4 completions; a stamp past
        // the last window is dropped.
        let s = 1_000_000_000u64;
        let stamps = [
            0,
            s - 1,
            s,
            s + 1,
            s + 2,
            s + 3,
            s + 4,
            2 * s - 1,
            2 * s,
            2 * s + 5,
            2 * s + 6,
            3 * s - 1,
            3 * s,
        ];
        let rates = window_rates(&stamps, s, 3);
        assert_eq!(rates, vec![2.0, 6.0, 4.0]);
        assert_eq!(median(&rates), 4.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn quiet_is_the_tenth_percentile_of_the_windows() {
        // Fifteen windows, three of them disturbed: the second lowest.
        let mut w: Vec<f64> = (0..15).map(|i| 200.0 + i as f64).collect();
        w[3] = 900.0;
        w[7] = 450.0;
        w[11] = 300.0;
        assert_eq!(quiet(&w), 201.0);
        // Ten windows or fewer: the lowest. None: 0.
        assert_eq!(quiet(&[5.0, 3.0, 4.0]), 3.0);
        assert_eq!(quiet(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, _, q3) = quartiles(&[3.0, 1.0]);
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
    }
}
