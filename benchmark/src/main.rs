//! `kite-benchmark`: the Kite reproduction's referee benchmark.
//!
//! One run (`--workload W --seed N --seconds S --trace 0|1`) measures one
//! workload and prints, as the last line of standard output, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}` — every
//! end-to-end metric untraced, every per-layer metric traced. Without
//! `--trace` the harness runs every workload both ways (as child runs of
//! itself) and prints every metric by name with its unit; `--sets K`
//! repeats that K times and judges the agreement against the bounds.
//!
//! See `benchmark/README.md` for the workloads, metrics and how they
//! interact.

mod daemons;
mod gen;
mod layers;
mod manifest;
mod probes;
mod procfs;
mod report;
mod scrape;
mod sim;
mod stats;
mod tcp;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use layers::Outcome;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    sets: usize,
    emit_manifest: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--sets K] [--emit-manifest]\n\
         workloads: {}",
        manifest::WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workloads: manifest::WORKLOADS.iter().map(|w| w.name).collect(),
        seed: 1,
        seconds: manifest::RUN_SECONDS,
        trace: None,
        sets: 1,
        emit_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-manifest" {
            a.emit_manifest = true;
            continue;
        }
        let Some(v) = it.next() else { usage() };
        let num = |v: &str| v.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => match manifest::WORKLOADS.iter().find(|w| w.name == v) {
                Some(w) => a.workloads = vec![w.name],
                None => usage(),
            },
            "--seed" => a.seed = num(&v),
            "--seconds" => a.seconds = num(&v).clamp(1, 60),
            "--trace" => a.trace = Some(num(&v) != 0),
            "--sets" => a.sets = num(&v).max(1) as usize,
            _ => usage(),
        }
    }
    a
}

/// The checkout root: the benchmark is started from it.
fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

fn run_workload(name: &str, seed: u64, seconds: u64, trace: bool) -> Outcome {
    match name {
        "sim_typical" => sim::run(sim::Kind::Typical, seed, seconds, trace),
        "sim_sleep_heal" => sim::run(sim::Kind::SleepHeal, seed, seconds, trace),
        "tcp_typical_open" => tcp::run(tcp::Kind::TypicalOpen, seed, seconds, trace, &out_dir()),
        "tcp_sync_wal_open" => tcp::run(tcp::Kind::SyncWalOpen, seed, seconds, trace, &out_dir()),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

/// One measured run: result file, trace file, and the contract's last line.
fn single(name: &str, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    std::fs::create_dir_all(out_dir()).expect("create benchmark/out");
    let mut outcome = run_workload(name, seed, seconds, trace);
    let metrics = report::complete(&outcome.metrics, trace);
    let correct = outcome.checks.iter().all(|(_, ok, _)| *ok) && outcome.failed == 0;
    for (check, ok, detail) in &outcome.checks {
        eprintln!("[{}] {check}: {detail}", if *ok { "ok" } else { "FAIL" });
    }
    let tag = if trace { "traced" } else { "untraced" };
    if trace {
        let path = out_dir().join(format!("{name}.trace.jsonl"));
        trace::write_jsonl(&path, &outcome.spans).expect("write trace file");
        outcome
            .notes
            .push(("trace_file".into(), path.display().to_string()));
        for (span, (self_ns, count)) in trace::self_times(&outcome.spans) {
            outcome.notes.push((
                format!("self_time.{span}"),
                format!("{self_ns} ns over {count} spans"),
            ));
        }
    }
    let path = out_dir().join(format!("{name}.{tag}.json"));
    std::fs::write(
        &path,
        report::result_file(name, seed, seconds, trace, correct, &outcome, &metrics),
    )
    .expect("write result file");
    println!(
        "{}",
        report::last_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.emit_manifest {
        print!("{}", manifest::render());
        return ExitCode::SUCCESS;
    }
    match (args.trace, args.workloads.as_slice()) {
        (Some(trace), [name]) => single(name, args.seed, args.seconds, trace),
        _ => report::all(&args.workloads, args.seed, args.seconds, args.sets),
    }
}
