//! The figure bins' paper-shape checks, gated in `cargo test` (a slice of
//! them, chosen by cost): each bin here runs in `quick` mode and must exit
//! 0 with no `[FAIL]` line. None of these bins has a known failure; a bin
//! that has one (`fig5_write_ratio`) stays with `scripts/stress.sh`, whose
//! `KNOWN_FAILS` list names it.
//!
//! `fig7_write_only` is the one bin that runs Kite, ZAB and Derecho, so its
//! table is also pinned to the digit: the bins run in virtual time, where a
//! run is a function of its seed, and a change to the deployment all three
//! systems share shows here first.

use std::process::Command;

/// Run `bin quick`; its stdout, once it exited 0 and printed no `[FAIL]`.
fn quick(bin: &str) -> String {
    let out = Command::new(bin).arg("quick").output().expect("spawn the bin");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(out.status.success(), "{bin} quick exited {}:\n{stdout}", out.status);
    assert!(!stdout.contains("[FAIL]"), "{bin} quick failed a shape check:\n{stdout}");
    stdout
}

#[test]
fn fig7_write_only_passes_with_its_table_to_the_digit() {
    let stdout = quick(env!("CARGO_BIN_EXE_fig7_write_only"));
    for (system, mreqs) in [
        ("Derecho (ordered)", "0.320"),
        ("Derecho (unordered)", "0.340"),
        ("ZAB", "2.272"),
        ("Kite: RMWs", "2.704"),
        ("Kite: releases", "5.360"),
        ("Kite: writes", "36.640"),
    ] {
        let row = stdout
            .lines()
            .find(|l| l.trim_start().starts_with(system))
            .unwrap_or_else(|| panic!("no {system} row in:\n{stdout}"));
        assert_eq!(row.split_whitespace().last(), Some(mreqs), "{system} mreqs: {row}");
    }
}

#[test]
fn fig6_sync_sweep_passes() {
    quick(env!("CARGO_BIN_EXE_fig6_sync_sweep"));
}
