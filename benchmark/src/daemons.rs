//! A local cluster of real `kite-node` processes, driven only through the
//! daemon's command line, its scrape endpoint and `/proc`.
//!
//! Hygiene: ports are drawn at random and probed free, readiness is polled
//! on the scrape endpoint (never slept for), every child dies with the
//! harness (`PR_SET_PDEATHSIG`), and dropping the cluster kills and reaps
//! whatever is still running — a failed run leaves no `kite-node` behind.

use std::fs::OpenOptions;
use std::net::TcpListener;
use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::scrape::{self, Scrape};

/// How long a node may take to serve its scrape endpoint with every link up.
const READY_DEADLINE: Duration = Duration::from_secs(15);

/// Ask the kernel to SIGKILL this child when the spawning thread dies, so
/// no daemon outlives a crashed or killed harness. All spawns happen on the
/// main thread, which lives as long as the process.
pub fn die_with_parent(cmd: &mut Command) {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the closure runs in the forked child before exec and only
    // makes one async-signal-safe syscall with scalar arguments.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        });
    }
}

pub struct Spec {
    pub nodes: usize,
    pub keys: usize,
    pub sessions: usize,
    /// WAL root (each node appends `node<i>/`); `None` runs with `--wal off`.
    pub wal_dir: Option<PathBuf>,
    /// Where each node's stdout/stderr goes (`n<i>.log`, appended).
    pub log_dir: PathBuf,
}

pub struct Cluster {
    spec: Spec,
    bin: PathBuf,
    /// `host:port` of each node's fabric listener (peers and clients).
    pub peers: Vec<String>,
    /// `host:port` of each node's scrape endpoint.
    pub metrics: Vec<String>,
    procs: Vec<Option<Child>>,
}

/// `2 × nodes` consecutive loopback ports, drawn at random and probed free.
fn pick_ports(nodes: usize) -> Result<u16, String> {
    let mut seed = std::process::id() as u64
        ^ std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
    for _ in 0..64 {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let base = 20_000 + ((seed >> 33) % 30_000) as u16;
        let free =
            (0..2 * nodes as u16).all(|i| TcpListener::bind(("127.0.0.1", base + i)).is_ok());
        if free {
            return Ok(base);
        }
    }
    Err("no free loopback port range found".into())
}

impl Cluster {
    /// Spawn every node and wait until all are ready.
    pub fn launch(spec: Spec) -> Result<Cluster, String> {
        let bin = std::env::var_os("KITE_NODE_BIN")
            .map(PathBuf::from)
            .ok_or("KITE_NODE_BIN is not set (benchmark/run.sh builds kite-node and sets it)")?;
        std::fs::create_dir_all(&spec.log_dir)
            .map_err(|e| format!("create {:?}: {e}", spec.log_dir))?;
        let base = pick_ports(spec.nodes)?;
        let addr = |port: u16| format!("127.0.0.1:{port}");
        let n = spec.nodes as u16;
        let mut c = Cluster {
            bin,
            peers: (0..n).map(|i| addr(base + i)).collect(),
            metrics: (0..n).map(|i| addr(base + n + i)).collect(),
            procs: (0..spec.nodes).map(|_| None).collect(),
            spec,
        };
        for i in 0..c.spec.nodes {
            c.start(i)?;
        }
        for i in 0..c.spec.nodes {
            c.wait_ready(i)?;
        }
        Ok(c)
    }

    /// Start (or restart) node `i`.
    pub fn start(&mut self, i: usize) -> Result<(), String> {
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.log_path(i))
            .map_err(|e| format!("open node {i} log: {e}"))?;
        let mut cmd = Command::new(&self.bin);
        cmd.args(["--node", &i.to_string(), "--peers", &self.peers.join(",")])
            .args([
                "--workers",
                "1",
                "--sessions-per-worker",
                &self.spec.sessions.to_string(),
            ])
            .args([
                "--keys",
                &self.spec.keys.to_string(),
                "--metrics-addr",
                &self.metrics[i],
            ])
            // §8.4: the release timeout is provisioned so that common
            // operation never trips it. The daemon's 1 ms default does trip
            // on scheduling noise when five busy threads share two cores,
            // and every trip costs a store-wide epoch refresh.
            .args(["--release-timeout-ns", "50000000"])
            // A node restarted into an idle cluster must still be swept.
            .args(["--keepalive-ns", "5000000"]);
        match &self.spec.wal_dir {
            Some(dir) => cmd.args(["--wal", "on", "--wal-dir"]).arg(dir),
            None => cmd.args(["--wal", "off"]),
        };
        cmd.stdin(Stdio::null())
            .stdout(
                log.try_clone()
                    .map_err(|e| format!("clone log handle: {e}"))?,
            )
            .stderr(log);
        die_with_parent(&mut cmd);
        self.procs[i] = Some(
            cmd.spawn()
                .map_err(|e| format!("spawn {:?}: {e}", self.bin))?,
        );
        Ok(())
    }

    /// Poll node `i`'s scrape endpoint until it answers with every link
    /// connected.
    pub fn wait_ready(&mut self, i: usize) -> Result<(), String> {
        let deadline = Instant::now() + READY_DEADLINE;
        loop {
            if scrape::scrape(&self.metrics[i]).is_ok_and(|s| s.links_connected()) {
                return Ok(());
            }
            let exited = self.procs[i]
                .as_mut()
                .and_then(|p| p.try_wait().ok().flatten());
            if exited.is_some() || Instant::now() >= deadline {
                return Err(format!(
                    "node {i} not ready (exit {exited:?}); log:\n{}",
                    self.log(i)
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// SIGKILL node `i` and reap it.
    pub fn kill(&mut self, i: usize) {
        if let Some(mut p) = self.procs[i].take() {
            let _ = p.kill();
            let _ = p.wait();
        }
    }

    pub fn pids(&self) -> Vec<u32> {
        self.procs.iter().flatten().map(Child::id).collect()
    }

    pub fn scrape_all(&self) -> Result<Vec<Scrape>, String> {
        self.metrics
            .iter()
            .map(|m| scrape::scrape(m).map_err(|e| format!("scrape {m}: {e}")))
            .collect()
    }

    /// Each node's watchdog `dump` view (for results that hit a deadline).
    pub fn dumps(&self) -> Vec<(String, String)> {
        self.metrics
            .iter()
            .enumerate()
            .map(|(i, m)| {
                (
                    format!("dump.n{i}"),
                    scrape::fetch(m, "dump").unwrap_or_else(|e| format!("unavailable: {e}")),
                )
            })
            .collect()
    }

    fn log_path(&self, i: usize) -> PathBuf {
        self.spec.log_dir.join(format!("n{i}.log"))
    }

    /// Node `i`'s stdout and stderr so far.
    pub fn log(&self, i: usize) -> String {
        std::fs::read_to_string(self.log_path(i)).unwrap_or_default()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for i in 0..self.procs.len() {
            self.kill(i);
        }
    }
}
