//! The §4.3 protocol optimizations are *optimizations*, not load-bearing
//! mechanisms: turning either off must leave every RC guarantee intact.
//! These tests run the loss scenarios of `rc_invariants.rs` (written once,
//! in `scenarios`) with `overlap_release` and `stripped_slow_path` in the
//! three on/off combinations other than both on, which `rc_invariants.rs`
//! runs: together the two suites run each scenario under all four.

mod scenarios;
use scenarios::combos;

/// The §4.1 walk-through under a dead link: the consumer still observes
/// the payload through the slow path.
#[test]
fn producer_consumer_survives_lost_writes_all_combos() {
    combos().skip(1).for_each(scenarios::producer_consumer_survives_lost_writes);
}

/// Mixed ops under 25% loss stay RCLin, sync keys linearizable.
#[test]
fn mixed_workload_under_loss_is_rc_all_combos() {
    combos().skip(1).for_each(scenarios::mixed_workload_under_lossy_network_is_rc);
}

/// FAAs behind relaxed writes stay exactly-once under 10% loss, deferred
/// behind their barriers when overlap is off.
#[test]
fn faa_exactly_once_without_overlap() {
    combos().skip(1).for_each(scenarios::faa_exactly_once_under_loss);
}

/// Same seed + same flags ⇒ identical execution under 15% loss.
#[test]
fn ablation_executions_are_deterministic() {
    combos().skip(1).for_each(scenarios::sim_executions_are_deterministic);
}
