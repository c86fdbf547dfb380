//! Per-node protocol counters.
//!
//! The evaluation reports throughput in million requests per second (mreqs)
//! overall and per node (Fig 5–9), plus fast/slow-path transitions and epoch
//! bumps in the failure study (Fig 9) — all read off [`ProtoCounters`], a
//! struct of `kite-metrics` [`Counter`]s the workers bump per event. Typed
//! fields are the in-process read path (`counters.completed.get()`);
//! [`ProtoCounters::fields`] names every field once for the text view, so
//! the sim and the daemon render the same `proto_*` keys from the same
//! atomics. Nothing else lives here: counters, gauges,
//! histograms and the registry are `kite-metrics`.

use kite_metrics::Counter;

/// Per-node protocol event counters, used by benches to report message
/// amplification and fast/slow-path transitions alongside throughput.
#[derive(Default, Debug)]
pub struct ProtoCounters {
    /// Completed client requests (any type).
    pub completed: Counter,
    /// Relaxed reads served locally (ES fast path).
    pub local_reads: Counter,
    /// Relaxed accesses that had to take the slow path (out-of-epoch keys).
    pub slow_path_accesses: Counter,
    /// Releases that executed the fast-path barrier (all-acked).
    pub fast_releases: Counter,
    /// Releases that fell back to the slow-path barrier (DM-set broadcast).
    pub slow_releases: Counter,
    /// Acquires that discovered delinquency and bumped the machine epoch.
    pub epoch_bumps: Counter,
    /// Network envelopes sent (after batching).
    pub envelopes_sent: Counter,
    /// Protocol messages sent (before batching).
    pub msgs_sent: Counter,
    /// Ack *messages* sent: single `Ack`s, delinquent `WriteAck`s, and each
    /// `AckBatch` counted once. `acks_sent / writes` is the
    /// acks-per-write figure (`core.acks_per_op` in the benchmark).
    pub acks_sent: Counter,
    /// Plain acks that rode inside an `AckBatch` (rids coalesced).
    pub acks_coalesced: Counter,
    /// `AckBatch` messages emitted (each replacing `acks_coalesced /
    /// msgs_batched` individual acks on average).
    pub msgs_batched: Counter,
    /// Anti-entropy digest messages sent (`nodes − 1` per sweep: one digest
    /// is broadcast to every peer).
    pub ae_digests_sent: Counter,
    /// `(key, lc)` entries carried inside sent digests (the digest "bytes"
    /// figure: 16 bytes per entry on the wire model).
    pub ae_digest_keys: Counter,
    /// Merkle anti-entropy summaries sent (the top-level sweep
    /// broadcast and every drill-down child summary, each counted once).
    pub ae_summaries_sent: Counter,
    /// Merkle drill-down requests sent (a summary range mismatched).
    pub ae_merkle_reqs: Counter,
    /// Estimated wire bytes of digest-plane anti-entropy traffic sent:
    /// flat digests, Merkle summaries and drill-down requests (repair
    /// pulls/values are excluded — repair traffic is proportional to real
    /// divergence on either plane). This is the figure the summaries exist
    /// to shrink: O(log store) per low-churn sweep instead of O(store) per
    /// flat sweep cycle.
    pub ae_digest_bytes: Counter,
    /// Anti-entropy repair-pull requests sent (digest receiver was behind).
    pub ae_repair_reqs: Counter,
    /// Anti-entropy repair values sent (pull answers, stale-sender pushes,
    /// and a proposer's answers to `Lagging` promises).
    pub ae_repair_vals: Counter,
    /// Repair values whose `apply_max` actually advanced the local store —
    /// real divergence healed, as opposed to already-converged traffic.
    pub ae_repairs_applied: Counter,
    /// Estimated wire bytes of repair *values* sent (the complement of
    /// `ae_digest_bytes`: divergence-proportional payload, not sweep
    /// overhead). Summed across a learner's peers this is the bulk-sync
    /// transfer cost of a catch-up.
    pub ae_repair_bytes: Counter,
    /// Memberships installed into the live cell (commit applies, WAL
    /// replay, and anti-entropy repairs of the membership key that carried
    /// a strictly newer epoch).
    pub membership_installs: Counter,
    /// Envelopes dropped at the receive gate because the sender stamped a
    /// membership epoch older than ours (each drop is answered with a
    /// membership repair push).
    pub stale_epoch_dropped: Counter,
    /// Membership pulls sent after seeing a sender stamp a *newer* epoch
    /// than ours (we process the batch but ask for the config we're
    /// missing).
    pub membership_pulls: Counter,
    /// Paxos propose rounds an RMW proposer opened (its first, and every
    /// retry after a nack, a moved slot or a helped commit).
    pub rmw_rounds: Counter,
    /// Rounds a proposer lost to a higher ballot: nacked promises,
    /// rejected accepts, and accepts it gave up locally because a sibling
    /// had already promised higher (`BallotLost`).
    pub rmw_nacks: Counter,
    /// Rounds restarted when a conflict back-off expired.
    pub rmw_backoffs: Counter,
    /// Phase-1 quorums that adopted another proposer's accepted command,
    /// so this proposer drove that command to commit before its own.
    pub rmw_helped: Counter,
    /// `AlreadyCommitted` promise replies: the proposer's slot was decided
    /// already, and it caught up from the acceptor's repair.
    pub rmw_already_committed: Counter,
}

impl ProtoCounters {
    /// `(name, counter)` of every field — the scrape keys (`proto_<name>`)
    /// are built from this and nothing else. The destructuring is exhaustive
    /// on purpose: a field added without a name here does not compile.
    pub fn fields(&self) -> [(&'static str, &Counter); 28] {
        let ProtoCounters {
            completed,
            local_reads,
            slow_path_accesses,
            fast_releases,
            slow_releases,
            epoch_bumps,
            envelopes_sent,
            msgs_sent,
            acks_sent,
            acks_coalesced,
            msgs_batched,
            ae_digests_sent,
            ae_digest_keys,
            ae_summaries_sent,
            ae_merkle_reqs,
            ae_digest_bytes,
            ae_repair_reqs,
            ae_repair_vals,
            ae_repairs_applied,
            ae_repair_bytes,
            membership_installs,
            stale_epoch_dropped,
            membership_pulls,
            rmw_rounds,
            rmw_nacks,
            rmw_backoffs,
            rmw_helped,
            rmw_already_committed,
        } = self;
        [
            ("completed", completed),
            ("local_reads", local_reads),
            ("slow_path_accesses", slow_path_accesses),
            ("fast_releases", fast_releases),
            ("slow_releases", slow_releases),
            ("epoch_bumps", epoch_bumps),
            ("envelopes_sent", envelopes_sent),
            ("msgs_sent", msgs_sent),
            ("acks_sent", acks_sent),
            ("acks_coalesced", acks_coalesced),
            ("msgs_batched", msgs_batched),
            ("ae_digests_sent", ae_digests_sent),
            ("ae_digest_keys", ae_digest_keys),
            ("ae_summaries_sent", ae_summaries_sent),
            ("ae_merkle_reqs", ae_merkle_reqs),
            ("ae_digest_bytes", ae_digest_bytes),
            ("ae_repair_reqs", ae_repair_reqs),
            ("ae_repair_vals", ae_repair_vals),
            ("ae_repairs_applied", ae_repairs_applied),
            ("ae_repair_bytes", ae_repair_bytes),
            ("membership_installs", membership_installs),
            ("stale_epoch_dropped", stale_epoch_dropped),
            ("membership_pulls", membership_pulls),
            ("rmw_rounds", rmw_rounds),
            ("rmw_nacks", rmw_nacks),
            ("rmw_backoffs", rmw_backoffs),
            ("rmw_helped", rmw_helped),
            ("rmw_already_committed", rmw_already_committed),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compile-time guard catches a field without a name; this catches
    /// the slip that still compiles — one name pasted onto two fields.
    #[test]
    fn fields_name_each_counter_once() {
        let p = ProtoCounters::default();
        p.slow_releases.add(4);
        let mut names: Vec<&str> = p.fields().iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), p.fields().len(), "duplicate scrape name");
        let read = |name| p.fields().iter().find(|(n, _)| *n == name).expect("named").1.get();
        assert_eq!(read("slow_releases"), 4);
        assert_eq!(read("fast_releases"), 0);
    }
}
