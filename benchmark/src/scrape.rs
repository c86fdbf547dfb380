//! The daemons' `--metrics-addr` plane, seen from outside: fetch a view
//! over plain TCP and parse the `key value` text. This text format, the
//! `kite-node` CLI and `kite_net::RemoteSession` are the whole surface the
//! wall-clock workloads depend on.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed `scrape` view.
#[derive(Clone, Debug, Default)]
pub struct Scrape(pub BTreeMap<String, u64>);

impl Scrape {
    /// Parse `key value` lines; lines that are not exactly a name and an
    /// unsigned integer are skipped (the format is numeric-only today).
    pub fn parse(text: &str) -> Scrape {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let mut it = line.split_whitespace();
            if let (Some(k), Some(v), None) = (it.next(), it.next(), it.next()) {
                if let Ok(v) = v.parse::<u64>() {
                    map.insert(k.to_string(), v);
                }
            }
        }
        Scrape(map)
    }

    /// A metric's value, 0 when absent (e.g. `wal_*` with the WAL off).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Sum of every per-link metric `link_n<peer>_w<worker>_<suffix>`.
    pub fn links(&self, suffix: &str) -> u64 {
        self.link_values(suffix).sum()
    }

    /// Largest per-link value of `link_*_<suffix>`.
    pub fn links_max(&self, suffix: &str) -> u64 {
        self.link_values(suffix).max().unwrap_or(0)
    }

    /// True when at least one link exists and all report phase `Connected`.
    pub fn links_connected(&self) -> bool {
        let mut phases = self.link_values("phase").peekable();
        phases.peek().is_some() && phases.all(|p| p == 1)
    }

    fn link_values<'a>(&'a self, suffix: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.0.iter().filter_map(move |(k, v)| {
            let rest = k
                .strip_prefix("link_n")?
                .strip_suffix(suffix)?
                .strip_suffix('_')?;
            let (peer, worker) = rest.split_once("_w")?;
            let numeric = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
            (numeric(peer) && numeric(worker)).then_some(*v)
        })
    }
}

/// Send one request line (`scrape` or `dump`) and read the whole response.
pub fn fetch(addr: &str, view: &str) -> std::io::Result<String> {
    let sock: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let mut stream = TcpStream::connect_timeout(&sock, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(format!("{view}\n").as_bytes())?;
    let mut body = String::new();
    stream.read_to_string(&mut body)?;
    Ok(body)
}

/// Fetch and parse the numeric view.
pub fn scrape(addr: &str) -> std::io::Result<Scrape> {
    fetch(addr, "scrape").map(|t| Scrape::parse(&t))
}

/// Per-name sum of several nodes' views. The distinct-keys sketch is the
/// exception: replicas hold the same keys, so it takes the largest.
pub fn sum(views: &[Scrape]) -> Scrape {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for v in views {
        for (k, n) in &v.0 {
            let e = out.entry(k.clone()).or_insert(0);
            *e = if k == "store_distinct_keys_est" {
                (*e).max(*n)
            } else {
                *e + n
            };
        }
    }
    Scrape(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from a live 3-node `kite-node` (node 1), trimmed.
    const SAMPLE: &str = "\
node_id 1
proto_completed 48211
proto_msgs_sent 30110
proto_envelopes_sent 9120
store_distinct_keys_est 65391
op_read_latency_ns_count 36640
op_read_latency_ns_p50 1024
op_read_latency_ns_p99 4096
wal_fsyncs 812
link_n0_w0_frames_out 4500
link_n0_w0_decode_errors 0
link_n0_w0_ring_frames 3
link_n0_w0_phase 1
link_n2_w0_frames_out 4620
link_n2_w0_decode_errors 0
link_n2_w0_ring_frames 7
link_n2_w0_phase 1
";

    #[test]
    fn parses_a_captured_scrape() {
        let s = Scrape::parse(SAMPLE);
        assert_eq!(s.get("node_id"), 1);
        assert_eq!(s.get("proto_completed"), 48211);
        assert_eq!(s.get("op_read_latency_ns_p99"), 4096);
        assert_eq!(s.get("wal_records"), 0, "absent metrics read 0");
        assert_eq!(s.links("frames_out"), 9120);
        assert_eq!(s.links("decode_errors"), 0);
        assert_eq!(s.links_max("ring_frames"), 7);
        assert!(s.links_connected());
    }

    #[test]
    fn skips_malformed_lines_and_detects_unconnected_links() {
        let s = Scrape::parse("a 1\nb\nc 2 3\nd x\nlink_n0_w0_phase 2\nlink_n2_w0_phase 1\n");
        assert_eq!(s.0.len(), 3);
        assert!(!s.links_connected());
        assert!(
            !Scrape::parse("a 1\n").links_connected(),
            "no links is not connected"
        );
    }

    #[test]
    fn sums_views_per_name() {
        let a = Scrape::parse("x 1\ny 2\nstore_distinct_keys_est 900\n");
        let b = Scrape::parse("y 5\nz 7\nstore_distinct_keys_est 1000\n");
        let t = sum(&[a, b]);
        assert_eq!((t.get("x"), t.get("y"), t.get("z")), (1, 7, 7));
        assert_eq!(t.get("store_distinct_keys_est"), 1000);
    }
}
