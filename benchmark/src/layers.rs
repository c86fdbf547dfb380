//! Per-layer count metrics derived from protocol counter deltas. The same
//! names come from both sources — `SimCluster::counters` on the simulator,
//! the daemons' scrape view over TCP — so one derivation serves all four
//! workloads.

use kite::SimCluster;
use kite_common::NodeId;

use crate::scrape::Scrape;

/// What a run hands back besides metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks: `(name, passed, detail)`. Any failure fails the run.
    pub checks: Vec<(String, bool, String)>,
    /// Every end-to-end metric (untraced) or per-layer metric (traced).
    pub metrics: Vec<(&'static str, f64)>,
    /// Samples behind the timing metrics.
    pub samples: Vec<(&'static str, u64)>,
    /// Free-form provenance (WAL filesystem, node dumps on a deadline, …).
    pub notes: Vec<(String, String)>,
    pub spans: Vec<crate::trace::Span>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }
}

/// Cluster-wide counter totals of a simulated deployment, under the scrape
/// view's names. The simulator routes envelopes itself and does not bump
/// `envelopes_sent`/`msgs_sent`: envelopes are the ones it delivered, and
/// messages per op stay unknown (0) on the sim workloads.
pub fn sim_counters(sc: &SimCluster) -> Scrape {
    let mut s = Scrape::default();
    s.0.insert("proto_envelopes_sent".to_string(), sc.sim.delivered);
    for n in 0..sc.config().nodes {
        let node = NodeId(n as u8);
        let c = sc.counters(node);
        let probe = &sc.shared(node).store_probe;
        for (name, v) in [
            ("proto_completed", c.completed.get()),
            ("proto_local_reads", c.local_reads.get()),
            ("proto_slow_path_accesses", c.slow_path_accesses.get()),
            ("proto_fast_releases", c.fast_releases.get()),
            ("proto_slow_releases", c.slow_releases.get()),
            ("proto_epoch_bumps", c.epoch_bumps.get()),
            ("proto_msgs_sent", c.msgs_sent.get()),
            ("proto_acks_sent", c.acks_sent.get()),
            ("proto_acks_coalesced", c.acks_coalesced.get()),
            ("proto_msgs_batched", c.msgs_batched.get()),
            ("proto_ae_digests_sent", c.ae_digests_sent.get()),
            ("proto_ae_summaries_sent", c.ae_summaries_sent.get()),
            ("proto_ae_merkle_reqs", c.ae_merkle_reqs.get()),
            ("proto_ae_digest_bytes", c.ae_digest_bytes.get()),
            ("proto_ae_repair_reqs", c.ae_repair_reqs.get()),
            ("proto_ae_repair_vals", c.ae_repair_vals.get()),
            ("proto_ae_repairs_applied", c.ae_repairs_applied.get()),
            ("proto_ae_repair_bytes", c.ae_repair_bytes.get()),
            ("store_writes", probe.writes.get()),
        ] {
            *s.0.entry(name.to_string()).or_insert(0) += v;
        }
        // A sketch does not sum across replicas holding the same keys.
        let est =
            s.0.entry("store_distinct_keys_est".to_string())
                .or_insert(0);
        *est = (*est).max(probe.distinct_keys.estimate());
    }
    s
}

/// `after − before` per name (monotone counters; gauges keep `after`).
pub fn delta(before: &Scrape, after: &Scrape) -> Scrape {
    let mut out = after.clone();
    for (k, v) in out.0.iter_mut() {
        if k != "store_distinct_keys_est" {
            *v = v.saturating_sub(before.get(k));
        }
    }
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The `core.*`, `kvs.*` and `ae.*` count metrics over a window in which
/// `ops` operations completed.
pub fn count_metrics(d: &Scrape, ops: u64) -> Vec<(&'static str, f64)> {
    let g = |n: &str| d.get(n);
    let ae_msgs = g("proto_ae_digests_sent")
        + g("proto_ae_summaries_sent")
        + g("proto_ae_merkle_reqs")
        + g("proto_ae_repair_reqs")
        + g("proto_ae_repair_vals");
    vec![
        ("core.msgs_per_op", ratio(g("proto_msgs_sent"), ops)),
        (
            "core.envelopes_per_op",
            ratio(g("proto_envelopes_sent"), ops),
        ),
        (
            "core.msgs_per_envelope",
            ratio(g("proto_msgs_sent"), g("proto_envelopes_sent")),
        ),
        ("core.acks_per_op", ratio(g("proto_acks_sent"), ops)),
        (
            "core.acks_per_batch",
            ratio(g("proto_acks_coalesced"), g("proto_msgs_batched")),
        ),
        ("core.local_read_share", ratio(g("proto_local_reads"), ops)),
        (
            "core.slow_path_per_kop",
            1000.0 * ratio(g("proto_slow_path_accesses"), ops),
        ),
        (
            "core.slow_release_share",
            ratio(
                g("proto_slow_releases"),
                g("proto_slow_releases") + g("proto_fast_releases"),
            ),
        ),
        ("core.epoch_bumps", g("proto_epoch_bumps") as f64),
        ("kvs.writes_per_op", ratio(g("store_writes"), ops)),
        ("kvs.distinct_keys_est", g("store_distinct_keys_est") as f64),
        ("ae.msgs_per_op", ratio(ae_msgs, ops)),
        (
            "ae.digest_bytes_per_op",
            ratio(g("proto_ae_digest_bytes"), ops),
        ),
        (
            "ae.repair_bytes_per_op",
            ratio(g("proto_ae_repair_bytes"), ops),
        ),
        ("ae.repairs_applied", g("proto_ae_repairs_applied") as f64),
    ]
}

/// Look a metric up in a derived list (0 when the layer did no work).
pub fn value(metrics: &[(&'static str, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Dips and recoveries of a throughput timeline around its disturbances.
#[derive(Debug, PartialEq)]
pub struct Availability {
    /// Mean completions per bucket while disturbed: over the sleeps, onset
    /// dips included, wake-up transients excluded; over everything from
    /// the onset on when no sleep has a length.
    pub disturbed_per_bucket: f64,
    /// `disturbed_per_bucket` ÷ the mean before the first onset.
    pub ratio: f64,
    /// Mean throughput of the stretches after each wake-up (up to the next
    /// onset) ÷ the mean before the first onset.
    pub wake_ratio: f64,
    /// Lowest bucket from the first onset to the end ÷ the mean before it
    /// (0 = an outage).
    pub floor: f64,
    /// Mean over the disturbances: from its `wake` to the first bucket from
    /// which throughput stays at or above 90 % of the pre-onset mean for
    /// `hold` buckets, in buckets; the whole stretch up to the next onset
    /// when it never does.
    pub recover_buckets: f64,
}

/// `buckets[i]` = completions in bucket `i`; disturbance `k` starts at
/// bucket `sleeps[k].0` and is lifted at bucket `sleeps[k].1` (equal when
/// the workload injects no fault and the window is merely split in two).
pub fn availability(buckets: &[u64], sleeps: &[(usize, usize)], hold: usize) -> Availability {
    let mean = |b: &mut dyn Iterator<Item = u64>| {
        let (sum, n) = b.fold((0u64, 0u64), |(s, n), v| (s + v, n + 1));
        sum as f64 / n.max(1) as f64
    };
    let first = sleeps[0].0;
    let pre = mean(&mut buckets[..first].iter().copied());
    let after = &buckets[first..];
    let ok = |b: &u64| *b as f64 >= 0.9 * pre;
    let stretch_end = |k: usize| sleeps.get(k + 1).map_or(buckets.len(), |next| next.0);
    let recoveries: Vec<usize> = (0..sleeps.len())
        .map(|k| {
            let (wake, limit) = (sleeps[k].1, stretch_end(k));
            (wake..limit)
                .find(|&i| i + hold <= limit && buckets[i..i + hold].iter().all(ok))
                .map_or(limit - wake, |i| i - wake)
        })
        .collect();
    let asleep = mean(
        &mut sleeps
            .iter()
            .flat_map(|&(onset, wake)| buckets[onset..wake].iter().copied()),
    );
    let awake = mean(
        &mut (0..sleeps.len()).flat_map(|k| buckets[sleeps[k].1..stretch_end(k)].iter().copied()),
    );
    let disturbed_per_bucket = if sleeps.iter().any(|(onset, wake)| wake > onset) {
        asleep
    } else {
        awake
    };
    Availability {
        disturbed_per_bucket,
        ratio: disturbed_per_bucket / pre,
        wake_ratio: awake / pre,
        floor: after.iter().min().map_or(0.0, |m| *m as f64 / pre),
        recover_buckets: recoveries.iter().sum::<usize>() as f64 / recoveries.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_of_a_sleep_and_heal_timeline() {
        // pre 100/bucket; sleep from bucket 4 to 8 at 80; wake dip, then back.
        let b = [
            100, 100, 100, 100, 80, 80, 80, 80, 20, 50, 95, 100, 85, 100, 100, 100, 100,
        ];
        let a = availability(&b, &[(4, 8)], 4);
        assert!((a.floor - 0.2).abs() < 1e-12);
        // bucket 10 and 11 pass but 12 dips: recovery holds from bucket 13.
        assert_eq!(a.recover_buckets, 5.0);
        // Bounded figure: the sleep only (80 of 100); the wake-up transient
        // shows in the wake ratio.
        assert!((a.ratio - 0.8).abs() < 1e-12);
        assert_eq!(a.disturbed_per_bucket, 80.0);
        let awake: u64 = b[8..].iter().sum();
        assert!((a.wake_ratio - awake as f64 / 9.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn availability_without_a_fault_and_without_recovery() {
        let a = availability(&[10, 10, 10, 10], &[(2, 2)], 2);
        let steady = Availability {
            disturbed_per_bucket: 10.0,
            ratio: 1.0,
            wake_ratio: 1.0,
            floor: 1.0,
            recover_buckets: 0.0,
        };
        assert_eq!(a, steady);
        // never back above 90 %: the whole remainder counts.
        let a = availability(&[10, 10, 1, 1, 1], &[(2, 3)], 2);
        assert_eq!(a.recover_buckets, 2.0);
        assert!((a.floor - 0.1).abs() < 1e-12);
    }

    #[test]
    fn availability_averages_recovery_over_repeated_sleeps() {
        // Two sleeps: the first recovers one bucket after waking, the second
        // needs three; each is searched only up to the next onset.
        let b = [10, 10, 8, 8, 2, 10, 10, 8, 8, 1, 3, 6, 10, 10];
        let a = availability(&b, &[(2, 4), (7, 9)], 2);
        assert_eq!(a.recover_buckets, (1.0 + 3.0) / 2.0);
        assert!((a.floor - 0.1).abs() < 1e-12);
    }

    #[test]
    fn count_metrics_from_a_delta() {
        let before = Scrape::parse(
            "proto_msgs_sent 100\nproto_envelopes_sent 50\nstore_distinct_keys_est 10\n",
        );
        let after = Scrape::parse(
            "proto_msgs_sent 500\nproto_envelopes_sent 150\nproto_local_reads 750\nstore_distinct_keys_est 40\n\
             proto_slow_releases 1\nproto_fast_releases 3\n",
        );
        let m = count_metrics(&delta(&before, &after), 1000);
        assert_eq!(value(&m, "core.msgs_per_op"), 0.4);
        assert_eq!(value(&m, "core.msgs_per_envelope"), 4.0);
        assert_eq!(value(&m, "core.local_read_share"), 0.75);
        assert_eq!(value(&m, "core.slow_release_share"), 0.25);
        assert_eq!(
            value(&m, "kvs.distinct_keys_est"),
            40.0,
            "a gauge keeps its last value"
        );
        assert_eq!(
            value(&m, "core.acks_per_batch"),
            0.0,
            "no batches, no ratio"
        );
    }
}
