//! Model-checker regression suite: the acceptance configurations of
//! both protocol families pass exhaustively, all five historical bug
//! shapes are detected with a counterexample trace, and exploration is
//! fully deterministic.
//!
//! The explored state spaces are a pinned contract: every `exhaustive_*`
//! test asserts its report's `(states, transitions, terminals,
//! peak_frontier)` and every bug-shape test the state count at detection
//! and the violation message, so a change to either model that moves a
//! reachable state, a scheduler choice or an invariant fails here. The
//! nine lines of `pls-detlint mc --model all --bound full` are pinned
//! the same way by `mc_full.golden` beside this file (diffed in CI).

use pls_timewarp::modelcheck::{
    explore, explore_with, AsyncBug, AsyncGvtConfig, Bug, CheckReport, ExploreOptions, ModelConfig,
};

/// The four numbers of a report that `pls-detlint mc` prints.
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

/// The lossy-channel configuration: every interleaving of drops,
/// retransmissions, and ack losses must conserve transmissions, keep
/// GVT below in-doubt sends, and terminate with nothing unrecovered.
#[test]
fn exhaustive_lossy_channel_with_retransmit() {
    let report = explore(&ModelConfig::lossy_2x2());
    assert!(report.complete, "state space must be fully enumerated");
    assert!(report.violation.is_none(), "violation: {:?}", report.violation);
    assert!(report.terminals > 0, "at least one schedule must terminate");
    assert_eq!(shape(&report), (370_868, 600_448, 1_061, 78));
}

/// Historical bug shape #3: the receiver forgets its dedup set, so a
/// copy retransmitted after an ack loss is executed twice.
#[test]
fn detects_retransmit_double_delivery() {
    let mut cfg = ModelConfig::lossy_2x2();
    cfg.bug = Some(Bug::RetransmitDoubleDelivery);
    let report = explore(&cfg);
    let cx = report.violation.expect("the double-delivery bug must be detected");
    assert!(!cx.trace.is_empty(), "counterexample must carry a schedule trace");
    assert!(
        cx.trace.iter().any(|s| s.contains("retransmit")),
        "the trace must pass through a retransmission: {:?}",
        cx.trace
    );
    assert_eq!(report.states, 189);
    assert_eq!(
        cx.message,
        "transmission id 6 found in 2 places — duplicated across a GVT/migration boundary"
    );
}

/// The dedup set alone is not what keeps the clean variant alive: with
/// no bug injected, the lossy exploration must also never deadlock —
/// every drop is eventually recovered within the retransmit budget.
/// (Deadlock is reported as a violation by the explorer, so this is
/// implied by `exhaustive_lossy_channel_with_retransmit`; this test
/// pins that drops actually occur in the explored space.)
#[test]
fn lossy_exploration_actually_exercises_drops() {
    let clean = explore(&ModelConfig::lossy_2x2());
    let mut no_loss = ModelConfig::lossy_2x2();
    no_loss.loss.max_drops = 0;
    let frozen = explore(&no_loss);
    assert!(clean.passed() && frozen.passed());
    assert!(
        clean.states > frozen.states,
        "the drop budget must open real schedules ({} vs {})",
        clean.states,
        frozen.states
    );
}

/// Exploration must be bit-for-bit deterministic: two runs of the same
/// configuration agree on the *entire* report — every count, the peak
/// frontier, and (for bug configurations) the exact counterexample
/// step-label sequence — for both protocol families.
#[test]
fn exploration_is_deterministic() {
    for cfg in [ModelConfig::small_3x2(), ModelConfig::lossy_2x2()] {
        assert_eq!(explore(&cfg), explore(&cfg));
    }
    for cfg in [AsyncGvtConfig::small_2(), AsyncGvtConfig::lossy_2()] {
        assert_eq!(explore(&cfg), explore(&cfg));
    }
    let mut barrier_bug = ModelConfig::lossy_2x2();
    barrier_bug.bug = Some(Bug::RetransmitDoubleDelivery);
    let a = explore(&barrier_bug);
    let b = explore(&barrier_bug);
    assert!(a.violation.is_some());
    assert_eq!(a, b, "counterexample traces must match step for step");
    let mut async_bug = AsyncGvtConfig::small_2();
    async_bug.bug = Some(AsyncBug::WhiteAfterToken);
    let a = explore(&async_bug);
    let b = explore(&async_bug);
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

// ---- the asynchronous Mattern two-color token GVT family ----

/// The symptom both seeded async shapes are caught by.
const ASYNC_OVERSHOOT: &str = "GVT safety violated: token computed GVT ∞ but the true minimum over pending events and in-flight/in-doubt messages is 4 — fossil collection would be premature";

/// The 2-cluster async acceptance configuration: every interleaving of
/// computation with the count/sample/commit token waves must keep GVT
/// safe (≤ the omniscient true minimum), monotone, conservative on
/// message counts, and terminate cleanly.
#[test]
fn exhaustive_async_gvt_2_clusters() {
    let report = explore(&AsyncGvtConfig::small_2());
    assert!(report.complete, "state space must be fully enumerated");
    assert!(report.violation.is_none(), "violation: {:?}", report.violation);
    assert!(report.terminals > 0, "at least one schedule must terminate");
    assert_eq!(shape(&report), (4_993, 8_452, 27, 15));
}

/// The lossy async configuration: token loss, message loss, ack loss
/// and retransmissions interleaved with every token wave.
#[test]
fn exhaustive_async_gvt_lossy() {
    let report = explore(&AsyncGvtConfig::lossy_2());
    assert!(report.complete, "state space must be fully enumerated");
    assert!(report.violation.is_none(), "violation: {:?}", report.violation);
    assert!(report.terminals > 0, "at least one schedule must terminate");
    assert_eq!(shape(&report), (130_392, 303_188, 81, 57));
}

/// The 3-cluster ring (the `full` bound config): the middle cluster
/// must flip and count correctly even when it never computes locally at
/// the moment the token passes.
#[test]
fn exhaustive_async_gvt_3_clusters() {
    let report = explore(&AsyncGvtConfig::small_3());
    assert!(report.complete, "state space must be fully enumerated");
    assert!(report.violation.is_none(), "violation: {:?}", report.violation);
    assert!(report.terminals > 0);
    assert_eq!(shape(&report), (1_351_304, 2_928_876, 131, 30));
}

/// Seeded async bug shape #1: a sender flips its epoch color when the
/// token passes but forgets to re-color its output stream, so a
/// miscolored ("still white") message sent after its count sample is
/// invisible to the concluding wave and uncovered by the red-send
/// minimum — GVT must be caught overshooting it.
#[test]
fn detects_async_white_after_token() {
    let mut cfg = AsyncGvtConfig::small_2();
    cfg.bug = Some(AsyncBug::WhiteAfterToken);
    let report = explore(&cfg);
    let cx = report.violation.expect("the miscolored-send bug must be detected");
    assert!(!cx.trace.is_empty(), "counterexample must carry a schedule trace");
    assert!(
        cx.trace.iter().any(|s| s.contains("token-recv")),
        "the trace must pass through a token circulation: {:?}",
        cx.trace
    );
    assert_eq!(report.states, 109);
    assert_eq!(cx.message, ASYNC_OVERSHOOT);
}

/// Seeded async bug shape #2: the initiator concludes the white drain
/// on a counter snapshot taken at round launch instead of the counts
/// the token accumulated, so a message sent between the snapshot and
/// the sender's flip is missed and fossil collection is premature.
#[test]
fn detects_async_stale_counter_snapshot() {
    let mut cfg = AsyncGvtConfig::small_2();
    cfg.bug = Some(AsyncBug::StaleCounterSnapshot);
    let report = explore(&cfg);
    let cx = report.violation.expect("the stale-snapshot bug must be detected");
    assert!(!cx.trace.is_empty(), "counterexample must carry a schedule trace");
    assert!(
        cx.message.contains("GVT") || cx.message.contains("premature"),
        "expected a GVT-safety or premature-fossil symptom, got: {}",
        cx.message
    );
    assert_eq!(report.states, 113);
    assert_eq!(cx.message, ASYNC_OVERSHOOT);
}

/// The async drop budget must open real schedules, exactly as it does
/// for the barrier family.
#[test]
fn async_lossy_exploration_actually_exercises_drops() {
    let clean = explore(&AsyncGvtConfig::lossy_2());
    let mut no_loss = AsyncGvtConfig::lossy_2();
    no_loss.loss.max_drops = 0;
    let frozen = explore(&no_loss);
    assert!(clean.passed() && frozen.passed());
    assert!(
        clean.states > frozen.states,
        "the drop budget must open real schedules ({} vs {})",
        clean.states,
        frozen.states
    );
}

/// Tightening the async state bound must be reported as an incomplete
/// run, never as a silent pass.
#[test]
fn async_state_bound_reports_incomplete() {
    let mut cfg = AsyncGvtConfig::small_2();
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
    for (compact, verified) in [
        (
            explore(&ModelConfig::small_2x2()),
            explore_with(&ModelConfig::small_2x2(), ExploreOptions { verify_hashes: true }),
        ),
        (
            explore(&AsyncGvtConfig::small_2()),
            explore_with(&AsyncGvtConfig::small_2(), ExploreOptions { verify_hashes: true }),
        ),
    ] {
        assert_eq!(verified.hash_collisions, 0, "64-bit state hash collided");
        assert_eq!(
            verified.states_hashed, verified.states_expanded,
            "every stored hash must correspond to exactly one expanded state"
        );
        assert_eq!(compact, verified, "verification must not change the traversal");
    }
}
