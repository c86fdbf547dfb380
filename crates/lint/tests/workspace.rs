//! The lint pass as a workspace test: `cargo test -q` fails if anyone
//! introduces a violation the committed baseline does not grandfather.
//! This is the same check `scripts/lint.sh` (and the stress preamble) run
//! as a binary — wired into the test suite so it cannot be forgotten.

use std::path::{Path, PathBuf};

use kite_lint::{analyze_workspace, parse_baseline, ratchet, ratchet_summary};

fn workspace_root() -> &'static Path {
    // crates/lint/ -> crates/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

#[test]
fn workspace_has_no_new_lint_violations() {
    let root = workspace_root();
    let violations = analyze_workspace(root).expect("walk workspace sources");
    let baseline_text =
        std::fs::read_to_string(root.join("lint-baseline.txt")).unwrap_or_default();
    let r = ratchet(&violations, &parse_baseline(&baseline_text));
    if !r.new.is_empty() {
        for v in &r.new {
            eprintln!("{v}");
        }
        panic!(
            "kite-lint: {} — fix the new violation(s), add a reasoned \
             `// kite-lint: allow(<rule>) — <why>`, or (last resort) re-run \
             `kite-lint --update-baseline`",
            ratchet_summary(&r)
        );
    }
}

#[test]
fn baseline_stays_burned_down() {
    // The audit drove the baseline to empty; it must not silently regrow.
    // Deleting entries is always fine — this only guards the size.
    let root = workspace_root();
    let baseline_text =
        std::fs::read_to_string(root.join("lint-baseline.txt")).unwrap_or_default();
    let entries = parse_baseline(&baseline_text);
    assert!(
        entries.is_empty(),
        "lint-baseline.txt regrew to {} grandfathered entr{} — new code must \
         pass clean or carry a reasoned allow, not hide in the baseline: {:?}",
        entries.len(),
        if entries.len() == 1 { "y" } else { "ies" },
        entries
    );
}

#[test]
fn stale_baseline_entries_are_reported_as_fixed() {
    // A baseline key that no longer matches any violation must surface in
    // `fixed` (so burn-down progress is visible), never in `new`.
    let root = workspace_root();
    let violations = analyze_workspace(root).expect("walk workspace sources");
    let stale = vec!["no/such/file.rs|no-alloc|let v = Vec::new();".to_string()];
    let r = ratchet(&violations, &stale);
    assert_eq!(r.fixed, stale);
    assert!(r.new.iter().all(|v| v.file != "no/such/file.rs"));
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
