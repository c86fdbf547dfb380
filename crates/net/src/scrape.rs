//! The node-wide metrics hub behind the scrape endpoint.
//!
//! [`MetricsHub`] owns a [`kite_metrics::Registry`] populated with every
//! observable the daemon has — protocol counters, store probe, per-class op
//! latency, WAL watermarks and group-commit latency, per-link fabric stats,
//! per-loop health and the acceptor's and flusher's wake counts —
//! bridged through `poll_fn`/`poll_histogram` closures so the live atomics
//! are read at scrape time instead of being copied into parallel storage.
//!
//! The hub itself is transport-agnostic: the TCP listener serving it lives
//! in [`crate::fabric`], registered on an *existing* worker epoll loop (no
//! extra threads — the scrape plane shares the fabric's epoll budget). Two
//! views exist:
//!
//! * `scrape` (the default): one `key value` line per metric;
//! * `dump`: the serving worker's watchdog text (`Actor::describe` + fabric
//!   loop state) followed by the node-level describe lines — the watchdog
//!   dump promoted from "raise a flag, read stderr" to on-demand pull.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use kite::NodeShared;
use kite_common::stats::{Counter as ProtoCounter, ProtoCounters};
use kite_common::NodeId;
use kite_metrics::Registry;
use kite_wal::Wal;

use crate::fabric::TcpNet;
use crate::link::LinkTable;

/// Everything a scrape connection renders. Built once per node at launch
/// (registration allocates; scraping only reads).
pub struct MetricsHub {
    registry: Registry,
    /// Appends the node-level describe lines to a `dump` view (protocol
    /// mode, completed counts, link table, WAL health).
    dump_extra: Box<dyn Fn(&mut String) + Send + Sync>,
}

impl MetricsHub {
    /// Render the `key value` metrics view.
    pub fn render_metrics(&self, out: &mut String) {
        self.registry.render(out);
    }

    /// Append the node-level half of the `dump` view (the serving worker
    /// prepends its own loop state).
    pub fn render_dump_extra(&self, out: &mut String) {
        (self.dump_extra)(out);
    }

    /// The underlying registry (tests; additional registration).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

/// Re-export one protocol counter through the registry.
fn bridge(reg: &Registry, name: &str, counters: &Arc<ProtoCounters>, f: fn(&ProtoCounters) -> &ProtoCounter) {
    let c = Arc::clone(counters);
    reg.poll_fn(name, move || f(&c).get());
}

/// Build the hub for one node: bridge every layer's live counters into one
/// registry. `mode` is the protocol-mode tag shown in the `dump` view (the
/// scrape view is numeric-only `key value` lines); `net` contributes the
/// protocol counters, the link table and the wake accounting.
pub fn node_metrics_hub(
    mode: String,
    shared: &Arc<NodeShared>,
    net: &TcpNet,
    wal: Option<&Arc<Wal>>,
) -> Arc<MetricsHub> {
    let reg = Registry::new();
    let nodes = shared.cfg.nodes;
    let (me, workers) = (net.me, net.workers);
    let (counters, links, fabric) = (&net.counters, net.links(), net.stats());

    reg.poll_fn("node_id", {
        let me = me.idx() as u64;
        move || me
    });

    // -- core protocol counters (ProtoCounters re-exported) ---------------
    bridge(&reg, "proto_completed", counters, |c| &c.completed);
    bridge(&reg, "proto_local_reads", counters, |c| &c.local_reads);
    bridge(&reg, "proto_slow_path_accesses", counters, |c| &c.slow_path_accesses);
    bridge(&reg, "proto_fast_releases", counters, |c| &c.fast_releases);
    bridge(&reg, "proto_slow_releases", counters, |c| &c.slow_releases);
    bridge(&reg, "proto_epoch_bumps", counters, |c| &c.epoch_bumps);
    bridge(&reg, "proto_envelopes_sent", counters, |c| &c.envelopes_sent);
    bridge(&reg, "proto_msgs_sent", counters, |c| &c.msgs_sent);
    bridge(&reg, "proto_acks_sent", counters, |c| &c.acks_sent);
    bridge(&reg, "proto_acks_coalesced", counters, |c| &c.acks_coalesced);
    bridge(&reg, "proto_msgs_batched", counters, |c| &c.msgs_batched);
    bridge(&reg, "proto_ae_digests_sent", counters, |c| &c.ae_digests_sent);
    bridge(&reg, "proto_ae_digest_keys", counters, |c| &c.ae_digest_keys);
    bridge(&reg, "proto_ae_summaries_sent", counters, |c| &c.ae_summaries_sent);
    bridge(&reg, "proto_ae_merkle_reqs", counters, |c| &c.ae_merkle_reqs);
    bridge(&reg, "proto_ae_digest_bytes", counters, |c| &c.ae_digest_bytes);
    bridge(&reg, "proto_ae_repair_reqs", counters, |c| &c.ae_repair_reqs);
    bridge(&reg, "proto_ae_repair_vals", counters, |c| &c.ae_repair_vals);
    bridge(&reg, "proto_ae_repairs_applied", counters, |c| &c.ae_repairs_applied);
    bridge(&reg, "proto_ae_repair_bytes", counters, |c| &c.ae_repair_bytes);

    // -- live membership (epoch-based reconfiguration) --------------------
    // The packed cell decomposes into three gauges so a scrape delta shows
    // a config change landing (epoch bumps) and a learner promoting
    // (voters gains a bit, learners loses it) without parsing the dump.
    reg.poll_fn("membership_epoch", {
        let s = Arc::clone(shared);
        move || s.membership.epoch() as u64
    });
    reg.poll_fn("membership_voters", {
        let s = Arc::clone(shared);
        move || s.voters().0 as u64
    });
    reg.poll_fn("membership_learners", {
        let s = Arc::clone(shared);
        move || s.membership.load().learners.0 as u64
    });
    bridge(&reg, "proto_membership_installs", counters, |c| &c.membership_installs);
    bridge(&reg, "proto_stale_epoch_dropped", counters, |c| &c.stale_epoch_dropped);
    bridge(&reg, "proto_membership_pulls", counters, |c| &c.membership_pulls);

    // -- kvs store: op counts + distinct-keys sketch ----------------------
    reg.poll_fn("store_len", {
        let s = Arc::clone(shared);
        move || s.store.len() as u64
    });
    // `store_len` counts claimed slots (reads probing fresh keys claim
    // too); `store_vals` counts only value-bearing keys, which is the
    // number anti-entropy actually converges across replicas.
    reg.poll_fn("store_vals", {
        let s = Arc::clone(shared);
        move || s.store.values() as u64
    });
    reg.poll_fn("store_writes", {
        let s = Arc::clone(shared);
        move || s.store_probe.writes.get()
    });
    reg.poll_fn("store_distinct_keys_est", {
        let s = Arc::clone(shared);
        move || s.store_probe.distinct_keys.estimate()
    });

    // -- per-class op latency, recorded at session retire -----------------
    for (class, _) in shared.op_latency.classes() {
        let s = Arc::clone(shared);
        reg.poll_histogram(&format!("op_{class}_latency_ns"), move || {
            s.op_latency
                .classes()
                .iter()
                .find(|(c, _)| *c == class)
                .map(|(_, h)| h.snapshot())
                .unwrap_or_default()
        });
    }

    // -- WAL: staged/durable watermarks + group-commit latency ------------
    if let Some(wal) = wal {
        let stat = |w: &Arc<Wal>, f: fn(&kite_wal::WalStats) -> u64| {
            let w = Arc::clone(w);
            move || f(&w.stats())
        };
        reg.poll_fn("wal_records", stat(wal, |s| s.records));
        reg.poll_fn("wal_appended_bytes", stat(wal, |s| s.appended_bytes));
        reg.poll_fn("wal_durable_bytes", stat(wal, |s| s.durable_bytes));
        reg.poll_fn("wal_lag_bytes", stat(wal, |s| s.lag_bytes));
        reg.poll_fn("wal_flush_batches", stat(wal, |s| s.flush_batches));
        reg.poll_fn("wal_fsyncs", stat(wal, |s| s.fsyncs));
        reg.poll_fn("wal_snapshots", stat(wal, |s| s.snapshots));
        reg.poll_fn("wal_flusher_wakes", stat(wal, |s| s.flusher_wakes));
        reg.poll_fn("wal_commit_window_ns", stat(wal, |s| s.commit_window_ns));
        reg.poll_fn("wal_commit_busy_ns", stat(wal, |s| s.commit_busy_ns));
        let w = Arc::clone(wal);
        reg.poll_histogram("wal_commit_latency_ns", move || w.commit_latency().snapshot());
    }

    // -- per-link fabric stats (frames / sheds / decode errors / backoff) --
    /// Relaxed load of one link-stat counter, for the poll closures below.
    fn stat(c: &std::sync::atomic::AtomicU64) -> u64 {
        // ordering: Relaxed — a monitoring read of a monotone counter whose
        // only writers are the worker loops; a stale value is a slightly
        // old number, never a broken invariant.
        c.load(Ordering::Relaxed)
    }
    for peer in 0..nodes {
        if peer == me.idx() {
            continue;
        }
        for w in 0..workers {
            let field = |links: &Arc<LinkTable>,
                         f: fn(&crate::link::LinkState) -> u64| {
                let links = Arc::clone(links);
                let p = NodeId(peer as u8);
                move || f(links.link(p, w))
            };
            let pre = format!("link_n{peer}_w{w}");
            reg.poll_fn(&format!("{pre}_frames_out"), field(links, |l| stat(&l.frames_out)));
            reg.poll_fn(&format!("{pre}_frames_in"), field(links, |l| stat(&l.frames_in)));
            reg.poll_fn(&format!("{pre}_dropped_out"), field(links, |l| stat(&l.dropped_out)));
            reg.poll_fn(&format!("{pre}_shed_full"), field(links, |l| stat(&l.shed_full)));
            reg.poll_fn(&format!("{pre}_decode_errors"), field(links, |l| stat(&l.decode_errors)));
            reg.poll_fn(&format!("{pre}_connects"), field(links, |l| stat(&l.connects)));
            reg.poll_fn(&format!("{pre}_ring_frames"), field(links, |l| stat(&l.ring_frames)));
            reg.poll_fn(&format!("{pre}_ring_bytes"), field(links, |l| stat(&l.ring_bytes)));
            reg.poll_fn(&format!("{pre}_phase"), field(links, |l| l.phase() as u64));
        }
    }

    // -- wake accounting: per-loop health + the acceptor ---------------------
    for w in 0..workers {
        for (i, (name, _)) in fabric.loops[w].fields().into_iter().enumerate() {
            let fabric = Arc::clone(fabric);
            reg.poll_fn(&format!("loop_w{w}_{name}"), move || stat(fabric.loops[w].fields()[i].1));
        }
    }
    reg.poll_fn("acceptor_wakes", {
        let fabric = Arc::clone(fabric);
        move || stat(&fabric.acceptor_wakes)
    });

    // -- dump view extras --------------------------------------------------
    let dump_extra: Box<dyn Fn(&mut String) + Send + Sync> = {
        let shared = Arc::clone(shared);
        let links = Arc::clone(links);
        let wal = wal.map(Arc::clone);
        Box::new(move |out: &mut String| {
            use std::fmt::Write as _;
            let _ = writeln!(
                out,
                "node {} mode={} completed={} ae_repairs={}",
                shared.me,
                mode,
                shared.counters.completed.get(),
                shared.counters.ae_repairs_applied.get(),
            );
            let _ = writeln!(
                out,
                "membership {} installs={} stale_dropped={} pulls={}",
                shared.membership.load(),
                shared.counters.membership_installs.get(),
                shared.counters.stale_epoch_dropped.get(),
                shared.counters.membership_pulls.get(),
            );
            let _ = writeln!(out, "{}", links.describe());
            if let Some(wal) = &wal {
                let _ = writeln!(out, "{}", wal.describe());
            }
        })
    };

    Arc::new(MetricsHub { registry: reg, dump_extra })
}
