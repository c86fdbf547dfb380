//! Output: the contract's one-line result, the provenance-stamped result
//! file, and the all-workloads / repeatability mode that drives child runs
//! of this same binary.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::layers::Outcome;
use crate::manifest::{END_TO_END, PER_LAYER};
use crate::{procfs, stats};

/// `(name, unit, value)` for every metric of the run's kind, in manifest
/// order. A per-layer metric the workload does not exercise reads 0; a
/// missing end-to-end metric is a harness bug.
pub fn complete(
    measured: &[(&'static str, f64)],
    trace: bool,
) -> Vec<(&'static str, &'static str, f64)> {
    let find = |name: &str| measured.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
    if trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, finite(find(m.name).unwrap_or(0.0))))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v =
                    find(m.name).unwrap_or_else(|| panic!("workload did not report {}", m.name));
                (m.name, m.unit, finite(v))
            })
            .collect()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

fn metrics_json(metrics: &[(&'static str, &'static str, f64)]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// The last line of standard output the contract asks for.
pub fn last_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(metrics)
    )
}

/// The result file: the last line's content plus provenance — commit,
/// seed, host tag, sample counts, checks and notes.
pub fn result_file(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    correct: bool,
    o: &Outcome,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let commit = std::env::var("KITE_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let pairs = |rows: Vec<(String, String)>| {
        let rows: Vec<String> = rows
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect();
        format!("{{{}}}", rows.join(", "))
    };
    let host = pairs(
        procfs::host_tag()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    let samples: Vec<String> = o
        .samples
        .iter()
        .map(|(k, n)| format!("\"{k}\": {n}"))
        .collect();
    let checks: Vec<String> = o
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            format!(
                "{{\"check\": \"{}\", \"ok\": {ok}, \"detail\": \"{}\"}}",
                escape(name),
                escape(detail)
            )
        })
        .collect();
    let clock = if workload.starts_with("sim_") {
        "virtual time under one seeded scheduler; cpu_us_per_op, rss_mb and setup_s are this host's"
    } else {
        "wall clock over loopback TCP with no injected delay: latency is processor and scheduler time only"
    };
    format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"traced\": {trace},\n  \"commit\": \"{}\",\n  \"seed\": {seed},\n  \
         \"seconds\": {seconds},\n  \"host\": {host},\n  \"clock\": \"{clock}\",\n  \"correct\": {correct},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"samples\": {{{}}},\n  \"checks\": [{}],\n  \"notes\": {},\n  \
         \"metrics\": {}\n}}\n",
        escape(&commit),
        o.attempted,
        o.failed,
        samples.join(", "),
        checks.join(", "),
        pairs(o.notes.clone()),
        metrics_json(metrics),
    )
}

/// Pull `name → value` out of a result line this binary printed.
fn parse_last_line(line: &str) -> Option<(bool, BTreeMap<String, f64>)> {
    let correct = line.contains("\"correct\": true");
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut out = BTreeMap::new();
    // Each metric reads `"name": {"value": V, "unit": "u"}`.
    for group in body.split("\"}").filter(|g| g.contains("{\"value\": ")) {
        let (head, tail) = group.split_once("\": {\"value\": ")?;
        let name = &head[head.rfind('"')? + 1..];
        out.insert(name.to_string(), tail[..tail.find(',')?].parse().ok()?);
    }
    Some((correct, out))
}

/// Run one workload one way as a child of this binary; its stderr (the
/// check lines) passes through.
fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Option<(bool, BTreeMap<String, f64>)> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    crate::daemons::die_with_parent(&mut cmd);
    let out = cmd
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse_last_line(stdout.lines().last()?)
}

/// Every workload, untraced then traced, `sets` times over; every metric
/// printed by name with its unit; with more than one set, the agreement of
/// the sets is judged against the bounds in the manifest.
pub fn all(workloads: &[&'static str], seed: u64, seconds: u64, sets: usize) -> ExitCode {
    let mut ok = true;
    // (workload, metric) → one value per set
    let mut e2e: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for set in 0..sets {
        for &w in workloads {
            for trace in [false, true] {
                println!(
                    "== set {}/{sets}: {w} ({}) ==",
                    set + 1,
                    if trace { "traced" } else { "untraced" }
                );
                let Some((correct, metrics)) = child(w, seed, seconds, trace) else {
                    println!("run failed without a result");
                    ok = false;
                    continue;
                };
                ok &= correct;
                println!("correct: {correct}");
                let units: Vec<(&str, &str)> = if trace {
                    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
                } else {
                    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
                };
                for (name, unit) in units {
                    let v = metrics.get(name).copied().unwrap_or(0.0);
                    println!("  {name:<32} {v:>16.4} {unit}");
                    if !trace {
                        e2e.entry((w, name)).or_default().push(v);
                    }
                }
            }
        }
    }
    if sets > 1 {
        println!("== repeatability over {sets} sets (same build, same seed) ==");
        for ((w, name), values) in &e2e {
            let m = END_TO_END
                .iter()
                .find(|m| m.name == *name)
                .expect("table metric");
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let rel = if stats::median(values) == 0.0 {
                0.0
            } else {
                (hi - lo) / stats::median(values).abs()
            };
            let pass = rel <= m.bound;
            ok &= pass;
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            // From four sets on, also the contract's own statistic.
            let iqr = if sets >= 4 {
                format!(" iqr {:>5.2}%", stats::iqr_share(values) * 100.0)
            } else {
                String::new()
            };
            println!(
                "  {w:<20} {name:<14} {:<40} diff {:>6.2}%{iqr} bound {:>4.0}% {}",
                shown.join(" / "),
                rel * 100.0,
                m.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_line_round_trips_through_the_parser() {
        let metrics = [
            ("setup_s", "s", 0.8127),
            ("tput_kops", "kops/s", 12345.678901),
            ("p99_us", "us", 3e-7),
        ];
        let line = last_line(true, 0, 0, &metrics);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        let (correct, parsed) = parse_last_line(&line).unwrap();
        assert!(correct);
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed["tput_kops"], 12345.678901);
        assert_eq!(parsed["p99_us"], 3e-7);
        let (correct, _) = parse_last_line(&last_line(false, 5, 1, &metrics)).unwrap();
        assert!(!correct);
    }

    #[test]
    fn complete_orders_by_the_table_and_zero_fills_idle_layers() {
        let got = complete(
            &[("wal.record_ns", 12.0), ("core.msgs_per_op", f64::NAN)],
            true,
        );
        assert_eq!(got.len(), PER_LAYER.len());
        assert_eq!(got[0].0, PER_LAYER[0].name);
        assert!(got.iter().any(|m| m == &("wal.record_ns", "ns", 12.0)));
        assert!(
            got.iter().any(|m| m == &("core.msgs_per_op", "count", 0.0)),
            "non-finite reads 0"
        );
        assert!(got
            .iter()
            .any(|m| m == &("net.frames_per_op", "count", 0.0)));
    }

    #[test]
    fn result_strings_are_escaped() {
        assert_eq!(escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd e");
    }
}
