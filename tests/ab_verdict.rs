//! The verdict rules of `scripts/ab.sh`, pinned on fixed readings: one
//! `workload metric pair side value` file in, one verdict per workload and
//! metric out, through `scripts/ab_verdict.awk` exactly as the script runs
//! it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

const METRICS: &str = "rss_mb lower 0.1\ntput_kops higher 0.05\np50_us lower 0.25\n";

/// Readings for `pairs` pairs: base `b(i)` and head `h(i)` for pair `i`.
fn readings(
    out: &mut String,
    workload: &str,
    metric: &str,
    pairs: u32,
    b: impl Fn(u32) -> f64,
    h: impl Fn(u32) -> f64,
) {
    for i in 1..=pairs {
        writeln!(out, "{workload} {metric} {i} base {}", b(i)).unwrap();
        writeln!(out, "{workload} {metric} {i} head {}", h(i)).unwrap();
    }
}

/// Runs the verdict table; returns `(workload, metric) → (wins, verdict)`
/// and the exit code.
fn verdicts(name: &str, readings: &str) -> (HashMap<(String, String), (String, String)>, i32) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("metrics.txt"), METRICS).unwrap();
    std::fs::write(dir.join("readings.txt"), readings).unwrap();
    let out = Command::new("awk")
        .arg("-f")
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/ab_verdict.awk"))
        .arg(dir.join("metrics.txt"))
        .arg(dir.join("readings.txt"))
        .output()
        .expect("awk runs");
    let table = String::from_utf8(out.stdout).unwrap();
    let rows = table
        .lines()
        .skip(1)
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            // workload, metric, base p50, [q1, q3], head p50, [q1, q3], wins, verdict…
            ((f[0].to_string(), f[1].to_string()), (f[8].to_string(), f[9..].join(" ")))
        })
        .collect();
    (rows, out.status.code().unwrap())
}

fn verdict_of<'a>(
    rows: &'a HashMap<(String, String), (String, String)>,
    w: &str,
    m: &str,
) -> (&'a str, &'a str) {
    let (wins, verdict) = &rows[&(w.to_string(), m.to_string())];
    (wins, verdict)
}

#[test]
fn verdicts_follow_the_documented_rules() {
    let mut r = String::new();
    // rss: head 40 % lower in every pair, each side tight.
    readings(
        &mut r,
        "ten",
        "rss_mb",
        10,
        |i| 160.0 + f64::from(i) * 0.01,
        |i| 92.0 + f64::from(i) * 0.01,
    );
    // Identical readings everywhere.
    readings(&mut r, "ten", "tput_kops", 10, |_| 12.0, |_| 12.0);
    // p50: head 50 % worse in every pair, each side tight.
    readings(&mut r, "ten", "p50_us", 10, |i| 100.0 + f64::from(i), |i| 150.0 + f64::from(i));
    // The rss gain again, over four pairs.
    readings(
        &mut r,
        "four",
        "rss_mb",
        4,
        |i| 160.0 + f64::from(i) * 0.01,
        |i| 92.0 + f64::from(i) * 0.01,
    );
    // tput: 1 % apart, alternating winner, tight: noise within the bound.
    readings(
        &mut r,
        "four",
        "tput_kops",
        4,
        |i| 10.0 + f64::from(i % 2) * 0.1,
        |i| 10.0 + f64::from((i + 1) % 2) * 0.1,
    );
    // p50: the base spreads over 100..400 (IQR far past 25 % of its median)
    // and the head sits inside it.
    readings(&mut r, "four", "p50_us", 4, |i| 100.0 * f64::from(i), |_| 240.0);
    // p50: both sides spread as widely, but every head run beats every base
    // run — the spread hides nothing.
    readings(
        &mut r,
        "apart",
        "p50_us",
        10,
        |i| 1000.0 + 100.0 * f64::from(i),
        |i| 100.0 + 50.0 * f64::from(i),
    );

    let (rows, code) = verdicts("rules", &r);
    assert_eq!(verdict_of(&rows, "ten", "rss_mb"), ("10/10", "gain"));
    assert_eq!(verdict_of(&rows, "ten", "tput_kops"), ("0/10", "same"));
    assert_eq!(verdict_of(&rows, "ten", "p50_us"), ("0/10", "REGRESSION"));
    assert_eq!(verdict_of(&rows, "four", "rss_mb"), ("4/4", "too few pairs"));
    assert_eq!(verdict_of(&rows, "four", "tput_kops"), ("2/4", "-"));
    assert_eq!(verdict_of(&rows, "four", "p50_us"), ("2/4", "unresolved"));
    assert_eq!(verdict_of(&rows, "apart", "p50_us"), ("10/10", "gain"));
    assert_eq!(rows.len(), 7, "one row per workload and metric read");
    assert_eq!(code, 1, "a REGRESSION or an unresolved verdict fails the run");
}

#[test]
fn a_pair_missing_a_side_is_left_out() {
    let mut r = String::new();
    readings(&mut r, "w", "rss_mb", 10, |_| 160.0, |_| 92.0);
    // An eleventh pair whose head run failed to report.
    r.push_str("w rss_mb 11 base 90\n");
    let (rows, code) = verdicts("missing", &r);
    assert_eq!(verdict_of(&rows, "w", "rss_mb"), ("10/10", "gain"));
    assert_eq!(code, 0);
}
