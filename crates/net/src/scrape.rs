//! The node-wide metrics hub behind the scrape endpoint.
//!
//! [`MetricsHub`] owns a [`kite_metrics::Registry`] of readers over the
//! node's live atomics — nothing is copied into parallel storage. The core
//! layer registers its own keys (`NodeShared::register_metrics`: protocol
//! counters, membership, store probe, per-class op latency); this file adds
//! only what `kite-net` owns — node id, WAL, per-link fabric stats and
//! per-loop health — each struct through its own `fields()`, so no field of
//! any layer is named here.
//!
//! The hub itself is transport-agnostic: the TCP listener serving it lives
//! in [`crate::fabric`], registered on an *existing* worker epoll loop (no
//! extra threads — the scrape plane shares the fabric's epoll budget). Two
//! views exist:
//!
//! * `scrape` (the default): one `key value` line per metric;
//! * `dump`: the serving worker's watchdog text (`Actor::describe` + fabric
//!   loop state) followed by the node-level describe lines
//!   ([`describe_node`], which `NodeRuntime::describe` prints too) — the
//!   watchdog dump promoted from "raise a flag, read stderr" to on-demand
//!   pull.

use std::fmt::Write as _;
use std::sync::Arc;

use kite::{NodeShared, ProtocolMode};
use kite_common::NodeId;
use kite_metrics::Registry;
use kite_wal::Wal;

use crate::fabric::TcpNet;
use crate::link::LinkTable;

/// Everything a scrape connection renders. Built once per node at launch
/// (registration allocates; scraping only reads).
pub struct MetricsHub {
    registry: Registry,
    mode: ProtocolMode,
    shared: Arc<NodeShared>,
    links: Arc<LinkTable>,
    wal: Option<Arc<Wal>>,
}

impl MetricsHub {
    /// Render the `key value` metrics view.
    pub fn render_metrics(&self, out: &mut String) {
        self.registry.render(out);
    }

    /// Append the node-level half of the `dump` view (the serving worker
    /// prepends its own loop state).
    pub fn render_dump_extra(&self, out: &mut String) {
        describe_node(out, self.mode, &self.shared, &self.links, self.wal.as_deref());
    }
}

/// The node-level diagnostic lines — protocol mode and totals, membership,
/// the link table, WAL health — for `NodeRuntime::describe` and the `dump`
/// view alike.
pub(crate) fn describe_node(
    out: &mut String,
    mode: ProtocolMode,
    shared: &NodeShared,
    links: &LinkTable,
    wal: Option<&Wal>,
) {
    let c = &shared.counters;
    let _ = writeln!(
        out,
        "node {} mode={mode:?} completed={} ae_repairs={}",
        shared.me,
        c.completed.get(),
        c.ae_repairs_applied.get(),
    );
    let _ = writeln!(
        out,
        "membership {} installs={} stale_dropped={} pulls={}",
        shared.membership.load(),
        c.membership_installs.get(),
        c.stale_epoch_dropped.get(),
        c.membership_pulls.get(),
    );
    out.push_str(&links.describe());
    if let Some(wal) = wal {
        let _ = writeln!(out, "{}", wal.describe());
    }
}

/// Build the hub for one node: every layer's live stats behind one
/// registry. `mode` is the protocol mode shown in the `dump` view (the
/// scrape view is numeric-only `key value` lines); `net` contributes the
/// link table and the wake accounting.
pub fn node_metrics_hub(
    mode: ProtocolMode,
    shared: &Arc<NodeShared>,
    net: &TcpNet,
    wal: Option<&Arc<Wal>>,
) -> Arc<MetricsHub> {
    let reg = Registry::new();
    let (me, links, fabric) = (net.me, net.links(), net.stats());

    reg.poll_fn("node_id", move || me.idx() as u64);
    shared.register_metrics(&reg);

    // -- WAL: staged/durable watermarks + group-commit latency ------------
    if let Some(wal) = wal {
        let w = Arc::clone(wal);
        reg.poll_fields("wal_", move || w.stats().fields());
        let w = Arc::clone(wal);
        reg.poll_histogram("wal_commit_latency_ns", move || w.commit_latency().snapshot());
    }

    // -- per-link fabric stats (frames / sheds / decode errors / backoff) --
    for peer in (0..shared.cfg.nodes).filter(|&p| p != me.idx()) {
        for w in 0..net.workers {
            let links = Arc::clone(links);
            reg.poll_fields(&format!("link_n{peer}_w{w}_"), move || {
                links.link(NodeId(peer as u8), w).fields()
            });
        }
    }

    // -- wake accounting: per-loop health (the listeners ride worker 0's) ---
    for w in 0..net.workers {
        let fabric = Arc::clone(fabric);
        reg.poll_fields(&format!("loop_w{w}_"), move || fabric.loops[w].fields());
    }

    Arc::new(MetricsHub {
        registry: reg,
        mode,
        shared: Arc::clone(shared),
        links: Arc::clone(links),
        wal: wal.map(Arc::clone),
    })
}
