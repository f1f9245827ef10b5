//! Model-checker regression suite: the acceptance configurations of
//! the flush-and-barrier model pass exhaustively, both historical bug
//! shapes are detected with a counterexample trace, and exploration is
//! fully deterministic.
//!
//! The explored state spaces are a pinned contract: every `exhaustive_*`
//! test asserts its report's `(states, transitions, terminals,
//! peak_frontier)` and every bug-shape test the state count at detection
//! and the violation message, so a change to either model that moves a
//! reachable state, a scheduler choice or an invariant fails here. This
//! file is the only pin of the explored state spaces.

use pls_timewarp::modelcheck::{
    explore, explore_with, Bug, CheckReport, ExploreOptions, ModelConfig,
};

/// The four numbers that identify an explored state space.
fn shape(r: &CheckReport) -> (u64, u64, u64, usize) {
    (r.states, r.transitions, r.terminals, r.peak_frontier)
}

#[test]
fn exhaustive_2_clusters_2_lps_gvt_and_migration() {
    let report = explore(&ModelConfig::small_2x2());
    assert!(report.complete, "state space must be fully enumerated");
    assert!(report.violation.is_none(), "violation: {:?}", report.violation);
    assert!(report.terminals > 0, "at least one schedule must terminate");
    assert_eq!(shape(&report), (8_759, 13_558, 140, 53));
}

#[test]
fn exhaustive_3_clusters_2_lps_gvt_and_migration() {
    let report = explore(&ModelConfig::small_3x2());
    assert!(report.complete, "state space must be fully enumerated");
    assert!(report.violation.is_none(), "violation: {:?}", report.violation);
    assert!(report.terminals > 0);
    assert_eq!(shape(&report), (56_630, 118_688, 250, 155));
}

/// A longer event chain with migration off: deeper rollback and
/// anti-message cascades across more GVT rounds.
#[test]
fn exhaustive_2_clusters_2_lps_hops_3_gvt_only() {
    let report = explore(&ModelConfig { hops: 3, plan: Vec::new(), ..ModelConfig::small_2x2() });
    assert!(report.complete, "state space must be fully enumerated");
    assert!(report.violation.is_none(), "violation: {:?}", report.violation);
    assert_eq!(shape(&report), (109_059, 169_900, 1_182, 84));
}

/// Historical bug shape #1: anti-messages routed during a GVT flush
/// round were not counted toward the round's all-reduced sum (then the
/// `routed_this_round` counter), so the flush could declare quiescence
/// with a transmission still in flight.
#[test]
fn detects_dropped_flush_transmission() {
    let mut cfg = ModelConfig::small_2x2();
    cfg.bug = Some(Bug::DropFlushTransmission);
    let report = explore(&cfg);
    let cx = report.violation.expect("the dropped-transmission bug must be detected");
    assert!(!cx.trace.is_empty(), "counterexample must carry a schedule trace");
    assert_eq!(report.states, 226);
    assert_eq!(
        cx.message,
        "flush postcondition violated: transmission id 4 (t=5) still in cluster 1's channel at GVT agreement (4) — flush exited early"
    );
}

/// The same bug with migration disabled: the flush postcondition (zero
/// in-flight transmissions at minima computation — the premise of the
/// GVT correctness argument) must be violated directly, without needing
/// the migration interaction to surface downstream harm.
#[test]
fn detects_dropped_flush_transmission_without_migration() {
    let mut cfg = ModelConfig::small_2x2();
    cfg.bug = Some(Bug::DropFlushTransmission);
    cfg.lb_period = 0;
    cfg.plan.clear();
    let report = explore(&cfg);
    let cx = report.violation.expect("must be detected even with migration disabled");
    assert!(
        cx.message.contains("flush postcondition"),
        "expected the flush postcondition symptom, got: {}",
        cx.message
    );
}

/// Historical bug shape #2: migration phase 3 leaves the LP in the
/// source cluster's table while the destination adopts it.
#[test]
fn detects_double_owner_migration_window() {
    let mut cfg = ModelConfig::small_2x2();
    cfg.bug = Some(Bug::DoubleOwnerMigration);
    let report = explore(&cfg);
    let cx = report.violation.expect("the double-owner bug must be detected");
    assert!(
        cx.message.contains("owned by") || cx.message.contains("handoff"),
        "expected an ownership symptom, got: {}",
        cx.message
    );
    assert_eq!(report.states, 10);
    assert_eq!(
        cx.message,
        "LP 0 owned by 1 cluster(s) and in 1 handoff buffer(s) — must be exactly one total"
    );
}

/// Exploration must be bit-for-bit deterministic: two runs of the same
/// configuration agree on the *entire* report — every count, the peak
/// frontier, and (for a bug configuration) the exact counterexample
/// step-label sequence.
#[test]
fn exploration_is_deterministic() {
    let cfg = ModelConfig::small_3x2();
    assert_eq!(explore(&cfg), explore(&cfg));
    let bug = ModelConfig { bug: Some(Bug::DropFlushTransmission), ..ModelConfig::small_2x2() };
    let a = explore(&bug);
    let b = explore(&bug);
    assert!(a.violation.is_some());
    assert_eq!(a, b, "counterexample traces must match step for step");
}

/// Tightening the state bound must be reported as an incomplete run,
/// never as a silent pass.
#[test]
fn state_bound_reports_incomplete() {
    let mut cfg = ModelConfig::small_2x2();
    cfg.max_states = 100;
    let report = explore(&cfg);
    assert!(!report.complete);
    assert!(!report.passed());
}

/// The hash-compaction collision guard: re-running an acceptance
/// configuration with full states retained must find zero 64-bit
/// collisions (debug builds additionally assert on any hit), count
/// exactly one expansion per stored hash, and agree with the compact
/// run on the entire report.
#[test]
fn hash_pruning_has_no_silent_collisions() {
    for cfg in [ModelConfig::small_2x2(), ModelConfig::small_3x2()] {
        let compact = explore(&cfg);
        let verified = explore_with(&cfg, ExploreOptions { verify_hashes: true });
        assert_eq!(verified.hash_collisions, 0, "64-bit state hash collided");
        assert_eq!(
            verified.states_hashed, verified.states_expanded,
            "every stored hash must correspond to exactly one expanded state"
        );
        assert_eq!(compact, verified, "verification must not change the traversal");
    }
}
