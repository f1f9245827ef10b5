//! Dynamic load balancing: telemetry-driven LP migration at GVT
//! boundaries.
//!
//! The paper's partitioners are static — a placement computed before the
//! run pays for every mispredicted hotspot until termination. This module
//! closes the loop: the kernel's own telemetry (events executed, rollbacks
//! and remote messages per LP, per GVT window) feeds [`plan`], which emits
//! a bounded [`Migration`] plan, and the executives apply the plan at GVT
//! commit.
//!
//! # Why GVT commit is the safe migration point
//!
//! At a GVT round the kernel knows a virtual time no future message can
//! precede. Immediately after fossil collection an LP is a *compact
//! closure*: one current state, the checkpoints at or above GVT, and the
//! pending events at or above GVT — nothing else in the system refers to
//! its past. Moving that closure between nodes/clusters cannot violate
//! causality, because every message below GVT is already committed and
//! every message above it will be routed by the post-migration tables.
//! The threaded executive additionally relies on its flush-and-barrier
//! GVT: the flush guarantees **zero in-flight messages** at the barrier,
//! so swapping routing tables inside the barrier can never strand a
//! message at a stale cluster.
//!
//! # Determinism
//!
//! A plan is a pure function of the window statistics and the current
//! assignment. On the virtual-platform executive the window statistics
//! are themselves deterministic, so a dynamically balanced platform run is
//! byte-reproducible, migration costs and all. On the threaded executive
//! window statistics depend on real thread interleavings, so plans may
//! differ run to run — but any placement commits the same event history,
//! which the cross-executive tests enforce. The sequential executive has
//! no GVT rounds and serves as the placement-independent oracle.

use std::collections::BTreeMap;

use crate::app::Application;
use crate::event::LpId;
use crate::time::VTime;

/// Knobs for dynamic load balancing, set via
/// [`crate::Simulator::load_balancer`].
#[derive(Debug, Clone, Copy)]
pub struct DynLbConfig {
    /// Run the balancer every `period` GVT rounds.
    pub period: u64,
    /// Maximum LP migrations per balancing round (bounds migration
    /// traffic).
    pub max_moves: usize,
    /// Balance slack passed to the refiner: no move may push a part's
    /// observed load above `avg * (1 + balance_eps)`.
    pub balance_eps: f64,
    /// Minimum traffic gain (messages per window) for a migration that is
    /// not fixing an overload. Migration costs a state transfer up front;
    /// gains below this threshold never pay it back and just flap LPs
    /// between nodes.
    pub min_comm_gain: u64,
}

impl Default for DynLbConfig {
    fn default() -> DynLbConfig {
        DynLbConfig { period: 4, max_moves: 8, balance_eps: 0.10, min_comm_gain: 4 }
    }
}

/// Per-LP activity observed during one GVT window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpWindow {
    /// Events this LP executed during the window (including work later
    /// rolled back — it occupied the CPU either way).
    pub events: u64,
    /// Rollbacks this LP suffered during the window.
    pub rollbacks: u64,
    /// Events undone on this LP during the window.
    pub events_rolled_back: u64,
    /// Event-equivalents of modeled latency the LP's node lost to
    /// injected faults during the window (retransmit RTOs, slowdown
    /// surcharges, pause stalls), apportioned across the node's LPs by
    /// the platform executive. Zero when chaos is off. Counted as load:
    /// an LP on a sick node really is slower, and migrating it off is
    /// exactly the response the balancer should produce.
    pub fault_penalty: u64,
}

/// Everything [`plan`] sees at one balancing round.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// The GVT at which this round runs.
    pub gvt: VTime,
    /// 1-based index of this balancing round.
    pub round: u64,
    /// Per-LP window activity, indexed by LP id.
    pub lps: Vec<LpWindow>,
    /// Remote messages per LP pair during the window, keyed by the
    /// *unordered* pair `(min, max)` — a `BTreeMap` so iteration order is
    /// deterministic.
    pub comm: BTreeMap<(LpId, LpId), u64>,
}

impl WindowStats {
    /// An empty window over `n` LPs.
    pub fn new(n: usize) -> WindowStats {
        WindowStats {
            gvt: VTime::ZERO,
            round: 0,
            lps: vec![LpWindow::default(); n],
            comm: BTreeMap::new(),
        }
    }

    /// Clear all per-LP and per-pair activity (between rounds).
    pub fn reset(&mut self) {
        self.lps.fill(LpWindow::default());
        self.comm.clear();
    }
}

/// One planned migration: move `lp` from part `from` to part `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The LP to move.
    pub lp: LpId,
    /// Its current node/cluster.
    pub from: u32,
    /// Its destination node/cluster.
    pub to: u32,
}

/// The balancing policy: map one window of observations to a bounded
/// migration plan. `assignment` is the current LP → part map; `parts` the
/// node/cluster count.
///
/// Greedy incremental refinement ([`pls_partition::incremental`]) over a
/// live graph whose vertex weights are the window's per-LP *net* event
/// counts (processed minus rolled back) and whose edges are the window's
/// observed remote traffic. Counting wasted work as load would make
/// rollback victims look heavy and set up a migration → rollback →
/// migration feedback loop; net load measures actual forward progress.
/// Single-LP moves by best combined gain (traffic + load transfer), each
/// LP moved at most once per round.
///
/// A deterministic function of its arguments — the virtual-platform
/// executive's byte-reproducibility depends on it. The executives still
/// check every entry (`move_is_valid`, the pinned mask) before applying it.
pub fn plan(
    window: &WindowStats,
    assignment: &[u32],
    parts: usize,
    cfg: &DynLbConfig,
) -> Vec<Migration> {
    let mut g = pls_partition::incremental::LoadGraph::new(
        window
            .lps
            .iter()
            .map(|w| w.events.saturating_sub(w.events_rolled_back) + w.fault_penalty)
            .collect(),
    );
    for (&(a, b), &w) in &window.comm {
        g.add_comm(a, b, w);
    }
    let mut asg = assignment.to_vec();
    let icfg = pls_partition::incremental::IncrementalConfig {
        max_moves: cfg.max_moves,
        balance_eps: cfg.balance_eps,
        min_comm_gain: cfg.min_comm_gain,
    };
    pls_partition::incremental::refine(&g, &mut asg, parts, &icfg)
        .into_iter()
        .map(|m| Migration { lp: m.lp, from: m.from, to: m.to })
        .collect()
}

/// Validity filter the executives apply to plan entries, so a buggy
/// policy cannot corrupt routing state. Deterministic, and
/// identical on every cluster of the threaded executive (all clusters see
/// the same plan and the same assignment copy).
pub(crate) fn move_is_valid(mv: &Migration, assignment: &[u32], parts: usize) -> bool {
    (mv.lp as usize) < assignment.len()
        && (mv.to as usize) < parts
        && mv.from != mv.to
        && assignment[mv.lp as usize] == mv.from
}

/// Per-LP "must not migrate" flags from [`Application::pinned_lps`]
/// (replica LPs: moving one would reintroduce the boundary traffic it
/// exists to remove).
pub(crate) fn pinned_mask<A: Application>(app: &A) -> Vec<bool> {
    let mut pinned = vec![false; app.num_lps()];
    for lp in app.pinned_lps() {
        if let Some(slot) = pinned.get_mut(lp as usize) {
            *slot = true;
        }
    }
    pinned
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_window(n: usize, hot: std::ops::Range<usize>) -> WindowStats {
        let mut w = WindowStats::new(n);
        for (i, lp) in w.lps.iter_mut().enumerate() {
            lp.events = if hot.contains(&i) { 100 } else { 2 };
        }
        w
    }

    #[test]
    fn greedy_sheds_load_from_the_hot_part() {
        // LPs 0..4 hot, all on part 0 of 2.
        let w = skewed_window(8, 0..4);
        let asg = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let moves = plan(&w, &asg, 2, &DynLbConfig::default());
        assert!(!moves.is_empty());
        for mv in &moves {
            assert_eq!(mv.from, 0, "only the hot part sheds load: {mv:?}");
            assert_eq!(mv.to, 1);
            assert!(mv.lp < 4, "a hot LP moves, not a cold one");
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let mut w = skewed_window(16, 3..9);
        w.comm.insert((2, 3), 11);
        w.comm.insert((8, 9), 7);
        let asg: Vec<u32> = (0..16).map(|i| (i / 4) as u32).collect();
        let a = plan(&w, &asg, 4, &DynLbConfig::default());
        let b = plan(&w, &asg, 4, &DynLbConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn balanced_window_yields_empty_plan() {
        let mut w = WindowStats::new(8);
        for lp in w.lps.iter_mut() {
            lp.events = 10;
        }
        let asg = vec![0, 0, 0, 0, 1, 1, 1, 1];
        assert!(plan(&w, &asg, 2, &DynLbConfig::default()).is_empty());
    }

    #[test]
    fn plan_respects_max_moves() {
        let w = skewed_window(32, 0..16);
        let asg = vec![0u32; 32];
        let cfg = DynLbConfig { max_moves: 3, ..Default::default() };
        assert!(plan(&w, &asg, 4, &cfg).len() <= 3);
    }

    #[test]
    fn move_validity_filter() {
        let asg = vec![0, 1, 1];
        assert!(move_is_valid(&Migration { lp: 0, from: 0, to: 1 }, &asg, 2));
        assert!(!move_is_valid(&Migration { lp: 0, from: 1, to: 0 }, &asg, 2), "stale from");
        assert!(!move_is_valid(&Migration { lp: 1, from: 1, to: 1 }, &asg, 2), "self move");
        assert!(!move_is_valid(&Migration { lp: 1, from: 1, to: 5 }, &asg, 2), "bad target");
        assert!(!move_is_valid(&Migration { lp: 9, from: 0, to: 1 }, &asg, 2), "bad lp");
    }
}
