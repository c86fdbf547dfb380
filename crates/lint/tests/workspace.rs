//! The lint pass as a workspace test: `cargo test -q` fails on any
//! violation. This is the same check `scripts/lint.sh` (and the stress
//! preamble) run as a binary — wired into the test suite so it cannot be
//! forgotten.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use kite_lint::analyze_workspace;

fn workspace_root() -> &'static Path {
    // crates/lint/ -> crates/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

#[test]
fn workspace_has_no_new_lint_violations() {
    let violations = analyze_workspace(workspace_root()).expect("walk workspace sources");
    for v in &violations {
        eprintln!("{v}");
    }
    assert!(
        violations.is_empty(),
        "kite-lint: {} violation(s) — fix each, or add a reasoned \
         `// kite-lint: allow(<rule>) — <why>`",
        violations.len()
    );
}

/// Every file under `dir`, build output and VCS state skipped.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read dir").flatten() {
        let (path, name) = (entry.path(), entry.file_name());
        if !path.is_dir() {
            out.push(path);
        } else if !["target", "out", ".git", ".bench_build"].iter().any(|skip| name == *skip) {
            walk(&path, out);
        }
    }
}

/// The `<Name>.md` cites in `line` (the regex `\b[A-Z][A-Za-z_]*\.md\b`),
/// each with the path prefix it was written with, if any.
fn md_cites(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)))
        .map(|token| token.trim_end_matches('.'))
        .filter(|token| {
            let name = token.rsplit('/').next().unwrap_or(token);
            name.strip_suffix(".md").is_some_and(|stem| {
                stem.starts_with(|c: char| c.is_ascii_uppercase())
                    && stem.chars().all(|c| c.is_ascii_alphabetic() || c == '_')
            })
        })
}

/// A comment, script or doc that cites `<Name>.md` must cite a file that
/// exists: by path when the cite carries one (from the workspace root or
/// from the citing file), else by basename anywhere in the tree. Thirteen
/// comments once pointed at two design notes that were never in the repo.
#[test]
fn cited_markdown_files_exist() {
    let root = workspace_root();
    let mut tree = Vec::new();
    walk(root, &mut tree);
    let scanned = ["crates", "src", "tests", "examples", "scripts", "docs", "ROADMAP.md"];
    let mut dangling = Vec::new();
    for file in &tree {
        let rel = file.strip_prefix(root).expect("under root");
        if !scanned.iter().any(|s| rel.starts_with(s)) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(file) else { continue };
        for (n, line) in text.lines().enumerate() {
            for cite in md_cites(line) {
                let exists = if cite.contains('/') {
                    root.join(cite).exists() || file.with_file_name(cite).exists()
                } else {
                    tree.iter().any(|f| f.file_name().is_some_and(|name| name == cite))
                };
                if !exists {
                    dangling.push(format!("{}:{}: {cite}", rel.display(), n + 1));
                }
            }
        }
    }
    assert!(dangling.is_empty(), "cites of files that do not exist:\n{}", dangling.join("\n"));
}

/// A quorum round is described once (`docs/INVARIANTS.md`): the request
/// constructors live in `inflight.rs`'s `round()` impls (and `wire.rs`'s
/// decoder), so the worker cannot grow a second, drifting copy of a
/// message for its retransmission — and no initiator step goes back to
/// threading the worker's fields in by hand instead of taking `Cx`.
#[test]
fn quorum_requests_are_constructed_in_one_place() {
    // Non-comment lines above the file's unit tests.
    let code = |file: &str| -> Vec<String> {
        let path = workspace_root().join("crates/core/src").join(file);
        let text = std::fs::read_to_string(&path).expect("core source file");
        let above_tests = text.split("#[cfg(test)]").next().expect("split yields a first piece");
        let is_code = |l: &&str| !l.trim_start().starts_with("//");
        above_tests.lines().filter(is_code).map(String::from).collect()
    };
    // `Msg::X {` builds a message unless a `=>` follows on the line (a
    // match arm's pattern, as in `Worker::dispatch`).
    let constructions = |lines: &[String], variant: &str| -> Vec<String> {
        let ctor = format!("Msg::{variant} {{");
        lines
            .iter()
            .filter(|l| l.find(&ctor).is_some_and(|at| !l[at..].contains("=>")))
            .cloned()
            .collect()
    };
    let requests =
        ["RtsReq", "ReadReq", "WriteMsg", "WriteAcq", "SlowRelease", "Propose", "Accept", "Commit"];
    for file in ["initiator.rs", "worker.rs", "replica.rs"] {
        let lines = code(file);
        for variant in requests {
            let found = constructions(&lines, variant);
            assert!(found.is_empty(), "{file} constructs Msg::{variant}:\n{}", found.join("\n"));
        }
    }
    let initiator = code("initiator.rs");
    let es_writes = constructions(&initiator, "EsWrite");
    assert_eq!(es_writes.len(), 1, "initiator.rs builds Msg::EsWrite in broadcast_es_write only");
    let threaded: Vec<_> = initiator.iter().filter(|l| l.contains("shared: &NodeShared")).collect();
    assert!(threaded.is_empty(), "initiator.rs functions take `Cx`, not the fields: {threaded:?}");

    // A round is timed once, too: the entry's retransmission clock is
    // assigned where rounds are sent, in one function of initiator.rs
    // (building a `Meta { .., last_sent: now }` is not an assignment).
    let stamps = |l: &str| l.find("last_sent =").is_some_and(|at| !l[at + 11..].starts_with('='));
    for file in std::fs::read_dir(workspace_root().join("crates/core/src")).expect("core src") {
        let name = file.expect("dir entry").file_name().into_string().expect("utf-8 name");
        if name != "initiator.rs" && name.ends_with(".rs") {
            let found: Vec<_> = code(&name).into_iter().filter(|l| stamps(l)).collect();
            assert!(found.is_empty(), "{name} assigns `last_sent`:\n{}", found.join("\n"));
        }
    }
    let (mut current, mut stampers, mut senders) = ("", BTreeSet::new(), BTreeSet::new());
    for line in &initiator {
        let decl = line.trim_start();
        let decl = decl.strip_prefix("pub(crate) ").or(decl.strip_prefix("pub ")).unwrap_or(decl);
        if let Some(rest) = decl.strip_prefix("fn ") {
            current = rest.split(['(', '<']).next().expect("split yields a first piece");
        }
        if stamps(line) {
            stampers.insert(current);
        }
        if line.contains(".send(") {
            senders.insert(current);
        }
    }
    assert!(
        stampers.len() == 1 && senders == stampers,
        "initiator.rs sends rounds and assigns `last_sent` in one function, the same one: \
         assigned in {stampers:?}, sent from {senders:?}"
    );
}

/// Every site in the workspace's non-test Rust code (`crates/`, `src/`,
/// `examples/` outside any `tests/` directory, above a file's unit tests,
/// comment lines skipped) where `ctor` occurs and `is_use` holds for the
/// text before and after it: `path:line: code` each.
fn non_test_uses(ctor: &str, is_use: impl Fn(&str, &str) -> bool) -> Vec<String> {
    let root = workspace_root();
    let mut tree = Vec::new();
    walk(root, &mut tree);
    let mut found = Vec::new();
    for file in &tree {
        let rel = file.strip_prefix(root).expect("under root");
        let non_test = ["crates", "src", "examples"].iter().any(|s| rel.starts_with(s))
            && !rel.components().any(|c| c.as_os_str() == "tests")
            && rel.extension().is_some_and(|e| e == "rs");
        if !non_test {
            continue;
        }
        let text = std::fs::read_to_string(file).expect("source file");
        let above_tests = text.split("#[cfg(test)]").next().expect("split yields a first piece");
        for (n, line) in above_tests.lines().enumerate() {
            let Some(at) = line.find(ctor).filter(|_| !line.trim_start().starts_with("//")) else {
                continue;
            };
            if is_use(&line[..at], &line[at + ctor.len()..]) {
                found.push(format!("{}:{}: {}", rel.display(), n + 1, line.trim()));
            }
        }
    }
    found
}

/// A key's decided state crosses the wire in one shape, built in one
/// place: every `kite::msg::Repair` — anti-entropy answers and pushes, a
/// proposer's answer to `Lagging`, an acceptor's `AlreadyCommitted`
/// catch-up — comes from `Repair::of` in `antientropy.rs` (and `wire.rs`'s
/// decoder), so no path can grow back a copy that reads the value before
/// its slot evidence, or a second catch-up shape beside it.
#[test]
fn repairs_are_constructed_in_one_place() {
    const CTOR: &str = "Repair {";
    // The definition, its `impl` and a destructuring `let Repair { .. } =
    // …` are not constructions; neither is a type name ending in `Repair`
    // (`ReadRepair {`).
    let found = non_test_uses(CTOR, |before, rest| {
        let ident_tail = before.ends_with(|c: char| c.is_alphanumeric() || c == '_');
        let pattern = ["struct", "impl", "let"].iter().any(|k| before.trim_end().ends_with(k))
            || rest.contains("} =");
        !ident_tail && !pattern
    });
    let in_file = |f: &str| found.iter().filter(|l| l.starts_with(f)).count();
    assert!(
        found.len() == 2
            && in_file("crates/core/src/antientropy.rs:") == 1
            && in_file("crates/core/src/wire.rs:") == 1,
        "`{CTOR}` must be built once in crates/core/src/antientropy.rs (`Repair::of`) and once \
         in crates/core/src/wire.rs (the decoder); found:\n{}",
        found.join("\n")
    );
}

/// A fault suite's faults go through the one fault runner
/// (`kite_repro::testutil::swarm`): in the suites whose fault tests are all
/// its cases, no line calls the simulator's fault entries itself, so a fault
/// timed by the clock — one that can land after the workload has finished —
/// cannot grow back beside the runner's completion-triggered events.
/// `swarm::apply` is where a `Fault` becomes one of these calls.
#[test]
fn scripted_faults_go_through_the_runner() {
    const SUITES: [&str; 6] = [
        "tests/ablations.rs",
        "tests/chaos.rs",
        "tests/merkle_faults.rs",
        "tests/rc_invariants.rs",
        "tests/restart_amnesia.rs",
        "tests/scenarios/mod.rs",
    ];
    const CALLS: [&str; 7] = [
        ".set_drop(",
        ".partition(",
        ".heal(",
        ".crash(",
        ".sleep_node(",
        ".set_link_delay(",
        ".restart(",
    ];
    let mut found = Vec::new();
    for suite in SUITES {
        let text = std::fs::read_to_string(workspace_root().join(suite)).expect("fault suite");
        for (n, line) in text.lines().enumerate() {
            if !line.trim_start().starts_with("//") && CALLS.iter().any(|c| line.contains(c)) {
                found.push(format!("{suite}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    assert!(
        found.is_empty(),
        "a fault suite calls a simulator fault itself; make the fault a `swarm::Case` event \
         (or, for a driver a script cannot express, `swarm::apply`); found:\n{}",
        found.join("\n")
    );
}

/// One client path: every session a client drives is a client-protocol
/// connection. The node runtime builds each `SessionDriver::Client`, one per
/// slot the loop serving it may hand to a connection, so no second way into
/// a session (a handle onto the worker's client port) can grow back beside
/// `RemoteSession`.
#[test]
fn external_sessions_are_constructed_in_one_place() {
    const CTOR: &str = "SessionDriver::Client(";
    // A pattern (`Client(ops) =>`, `let Client(ops) = …`,
    // `matches!(d, Client(_))`) is not a construction.
    let found = non_test_uses(CTOR, |before, rest| {
        !(rest.contains("=>")
            || before.trim_end().ends_with("let")
            || before.contains("matches!("))
    });
    assert!(
        found.len() == 1 && found[0].starts_with("crates/net/src/node.rs:"),
        "`{CTOR}` must be built once, in crates/net/src/node.rs; found:\n{}",
        found.join("\n")
    );
}
