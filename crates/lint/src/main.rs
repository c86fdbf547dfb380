//! `kite-lint` CLI: lint the workspace.
//!
//! ```text
//! kite-lint [--root DIR]
//! ```
//!
//! Prints every violation rustc-style (`file:line: rule: msg`). Exit code 0
//! when there is none, 1 when there is any, 2 on usage/IO errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                eprintln!("usage: kite-lint [--root DIR]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("kite-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => match find_workspace_root() {
            Some(r) => r,
            None => {
                eprintln!("kite-lint: no workspace root found (run from the repo or pass --root)");
                return ExitCode::from(2);
            }
        },
    };

    let violations = match kite_lint::analyze_workspace(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("kite-lint: walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for v in &violations {
        println!("{v}");
    }
    println!("kite-lint: {} violation(s)", violations.len());
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walk upward from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
