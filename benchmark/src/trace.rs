//! Harness-side spans: recorded around the calls into each layer, held in
//! memory, written out as JSON lines when the run ends. Spans inside the
//! program under test are a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval. `parent == 0` marks a root; spans of one request
/// share `trace`. `calls > 1` marks an aggregate: the interval is the summed
/// duration of that many calls made under the parent, laid at its start.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub trace: u64,
    pub span: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
}

/// A per-thread span recorder. Ids are `lane << 40 | counter`, so recorders
/// on different threads never collide and merge by concatenation.
pub struct Tracer {
    epoch: Instant,
    lane: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch` (shared by all lanes of a
    /// run so their spans line up).
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Tracer {
            epoch,
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the run's epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh id (for a span or a trace).
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.lane << 40 | self.next
    }

    /// Record a finished span under a fresh id and return the id.
    pub fn record(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let span = self.id();
        self.record_as(span, trace, parent, name, start, end);
        span
    }

    /// Record a finished span under an id reserved earlier with [`id`]
    /// (a root whose children were recorded before it ended).
    ///
    /// [`id`]: Tracer::id
    pub fn record_as(
        &mut self,
        span: u64,
        trace: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span {
            trace,
            span,
            parent,
            name,
            start_ns,
            end_ns,
            calls: 1,
        });
    }

    /// Record a span from raw offsets — an aggregate of `calls` calls.
    pub fn record_ns(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
    ) -> u64 {
        let span = self.id();
        self.spans.push(Span {
            trace,
            span,
            parent,
            name,
            start_ns,
            end_ns,
            calls,
        });
        span
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover (overlapping children count once).
/// Returns `name → (total self ns, spans)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.span) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(a, s.end_ns);
                covered += b - a;
                reach = reach.max(b);
            }
        }
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += (s.end_ns - s.start_ns).saturating_sub(covered);
        e.1 += 1;
    }
    out
}

/// Write spans as JSON lines: `{trace, span, parent, name, start_ns,
/// end_ns}` plus `calls` on aggregates.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        write!(
            w,
            "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.trace, s.span, s.parent, s.name, s.start_ns, s.end_ns
        )?;
        if s.calls != 1 {
            write!(w, ",\"calls\":{}", s.calls)?;
        }
        writeln!(w, "}}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace: 1,
            span,
            parent,
            name,
            start_ns,
            end_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "a", 10, 40),
            // overlaps `a` on [30, 40): the union covers [10, 60)
            span(3, 1, "b", 30, 60),
            // grandchild: shrinks `b`'s self time, not `op`'s
            span(4, 3, "c", 35, 45),
            // child poking past the parent's end is clamped
            span(5, 1, "d", 90, 130),
        ];
        let st = self_times(&spans);
        assert_eq!(st["op"], (100 - 50 - 10, 1));
        assert_eq!(st["a"], (30, 1));
        assert_eq!(st["b"], (20, 1));
        assert_eq!(st["c"], (10, 1));
        assert_eq!(st["d"], (40, 1));
    }

    #[test]
    fn self_time_sums_per_name_and_ids_do_not_collide_across_lanes() {
        let t0 = Instant::now();
        let (mut a, mut b) = (Tracer::new(t0, 1), Tracer::new(t0, 2));
        let root = a.record_ns(7, 0, "iter", 0, 10, 1);
        a.record_ns(7, root, "poll", 2, 5, 1);
        let root = b.record_ns(8, 0, "iter", 0, 20, 1);
        b.record_ns(8, root, "poll", 0, 20, 1);
        let mut all = a.spans;
        all.extend(b.spans);
        let ids: std::collections::BTreeSet<u64> = all.iter().map(|s| s.span).collect();
        assert_eq!(ids.len(), 4);
        let st = self_times(&all);
        assert_eq!(st["iter"], (7, 2));
        assert_eq!(st["poll"], (23, 2));
    }
}
