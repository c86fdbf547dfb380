//! kite-metrics: the one metrics vocabulary of the Kite reproduction.
//!
//! Dependency-free by design (like `kite-lint`): this crate sits *below*
//! every other workspace crate — `kite-common` included, whose
//! `ProtoCounters` is a struct of these [`Counter`]s — so the kvs store, the
//! protocol core, the WAL and the TCP fabric all record into the same types
//! without dependency cycles.
//!
//! Three primitives plus a registry:
//!
//! * [`Counter`] / [`Gauge`] — cache-line-padded relaxed atomics;
//! * [`Histogram`] — log2-bucketed, lock-free to record, snapshots merge
//!   across workers so p50/p99/p999 can be reported cluster-wide;
//! * [`Hll`] — HyperLogLog distinct-keys sketch with CAS-max registers
//!   (cardinality is the one statistic plain counters cannot give).
//!
//! All *recording* paths (`Counter::add`, `Gauge::set`, `Histogram::record`,
//! `Hll::observe`) are lock-free and allocation-free — they are `// kite-lint:
//! no-alloc` regions and covered by the allocation-guard test. The
//! [`Registry`] itself uses a mutex, but only for registration (startup) and
//! rendering (scrape time); nothing on an op's critical path touches it.
//!
//! **How a layer exports its stats.** The stats struct names its own fields
//! once, in a `fields()` method returning `(name, reading)` pairs —
//! `ProtoCounters::fields`, `LoopStats::fields`, `LinkState::fields`,
//! `WalStats::fields`, `OpLatency::classes` — and whoever owns the struct
//! registers it with one [`Registry::poll_fields`] call under a prefix. The
//! struct stays the typed in-process read path (`counters.completed.get()`);
//! the registry is the text view of the same atomics, read at scrape time.
//! Nothing copies a metric into parallel storage and no file lists another
//! layer's fields.
//!
//! Rendering is a plain-text `key value` line per metric — no wire format,
//! no HTTP, greppable from a shell. Histograms render four lines
//! (`_count`, `_p50`, `_p99`, `_p999`).

pub mod histogram;
pub mod hll;

pub use histogram::{bucket_of, Histogram, HistogramSnapshot, BUCKETS};
pub use hll::{mix64, Hll, HLL_B, HLL_M};

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Monotone counter, padded to its own cache-line pair so independent
/// counters never false-share (throughput counters are bumped on every
/// completed request from every worker).
#[repr(align(128))]
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Bump by one. Lock-free, allocation-free.
    // kite-lint: no-alloc
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Bump by `n`. Lock-free, allocation-free.
    // kite-lint: no-alloc
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// Last-write-wins gauge (watermarks, queue depths, backoff phases).
#[repr(align(128))]
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value. Lock-free, allocation-free.
    // kite-lint: no-alloc
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Appends one registered entry's `key value` lines; called with the name
/// (or prefix) the entry was registered under.
type Render = Box<dyn Fn(&str, &mut String) + Send + Sync>;

/// Name → reader table rendered as `key value` lines. Every entry is a
/// closure over atomics that live in their owner's stats struct, read at
/// scrape time. Registration and rendering take a mutex; the metrics
/// themselves are lock-free, so nothing on a request's critical path ever
/// blocks here.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<(String, Render)>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(&self, name: &str, render: Render) {
        self.entries
            .lock()
            .expect("metrics registry poisoned")
            .push((name.to_string(), render));
    }

    /// One reading under its own name (`node_id`, `store_len`).
    pub fn poll_fn<F>(&self, name: &str, f: F)
    where
        F: Fn() -> u64 + Send + Sync + 'static,
    {
        self.register(name, Box::new(move |name, out| line(out, name, "", f())));
    }

    /// A stats struct's worth of readings, one `{prefix}{field} value` line
    /// each, from **one** call of `f` per scrape — `f` is the struct's own
    /// `fields()` (mapped to values), so the field names are spelled once,
    /// next to the fields.
    pub fn poll_fields<const N: usize, F>(&self, prefix: &str, f: F)
    where
        F: Fn() -> [(&'static str, u64); N] + Send + Sync + 'static,
    {
        self.register(
            prefix,
            Box::new(move |prefix, out| {
                for (field, v) in f() {
                    line(out, prefix, field, v);
                }
            }),
        );
    }

    /// A histogram snapshotted at scrape time, rendered as
    /// `{name}_{count,p50,p99,p999}`.
    pub fn poll_histogram<F>(&self, name: &str, f: F)
    where
        F: Fn() -> HistogramSnapshot + Send + Sync + 'static,
    {
        self.register(
            name,
            Box::new(move |name, out| {
                let s = f();
                line(out, name, "_count", s.count);
                line(out, name, "_p50", s.p50());
                line(out, name, "_p99", s.p99());
                line(out, name, "_p999", s.p999());
            }),
        );
    }

    /// Render every metric as `key value\n` in registration order.
    pub fn render(&self, out: &mut String) {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        for (name, render) in entries.iter() {
            render(name, out);
        }
    }

    /// Convenience: render into a fresh string.
    pub fn render_to_string(&self) -> String {
        let mut s = String::new();
        self.render(&mut s);
        s
    }
}

fn line(out: &mut String, name: &str, suffix: &str, v: u64) {
    let _ = writeln!(out, "{name}{suffix} {v}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(format!("{c:?}"), "Counter(5)");
    }

    #[test]
    fn counter_and_gauge_are_padded() {
        assert!(std::mem::align_of::<Counter>() >= 128);
        assert!(std::mem::align_of::<Gauge>() >= 128);
    }

    /// A struct whose snapshot takes a lock (the WAL's) pays for it once per
    /// scrape, not once per field.
    #[test]
    fn poll_fields_reads_once_per_render() {
        let calls = Arc::new(Counter::new());
        let r = Registry::new();
        r.poll_fields("s_", {
            let calls = Arc::clone(&calls);
            move || {
                calls.incr();
                [("a", 1), ("b", 2), ("c", 3)]
            }
        });
        assert_eq!(r.render_to_string(), "s_a 1\ns_b 2\ns_c 3\n");
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn registry_renders_key_value_lines() {
        #[derive(Default)]
        struct Stats {
            ops: Counter,
            depth: Gauge,
            lat: Histogram,
        }
        let s = Arc::new(Stats::default());
        let r = Registry::new();
        r.poll_fn("answer", || 42);
        r.poll_fields("q_", {
            let s = Arc::clone(&s);
            move || [("ops", s.ops.get()), ("depth", s.depth.get())]
        });
        r.poll_histogram("lat", {
            let s = Arc::clone(&s);
            move || s.lat.snapshot()
        });
        s.ops.add(3);
        s.depth.set(7);
        s.lat.record(100);
        let out = r.render_to_string();
        assert!(out.contains("q_ops 3\n"), "{out}");
        assert!(out.contains("q_depth 7\n"), "{out}");
        assert!(out.contains("answer 42\n"), "{out}");
        assert!(out.contains("lat_count 1\n"), "{out}");
        assert!(out.contains("lat_p99 "), "{out}");
        // every line is exactly `key value`
        for line in out.lines() {
            assert_eq!(line.split_whitespace().count(), 2, "bad line: {line}");
        }
    }
}
