//! Dynamic load balancing: telemetry-driven LP migration at GVT
//! boundaries.
//!
//! The paper's partitioners are static — a placement computed before the
//! run pays for every mispredicted hotspot until termination. This module
//! closes the loop: the kernel's own telemetry (events executed, rollbacks
//! and remote messages per LP, per GVT window: an [`LpLedger`] drained at
//! each balancing round) feeds a greedy planner, which emits a bounded
//! list of single-LP migrations, and the executives apply them at GVT
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
//! Both optimistic executives run the same step, `Balancer::step`, at
//! such a round. The threaded executive runs it between thread epochs:
//! its cluster threads leave their loop at a balancing round, after the
//! flush has emptied every channel, and the caller migrates while no
//! thread runs — so no message can be stranded at a stale cluster, and
//! the run keeps one routing table that only the caller writes.
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
use crate::core::{ClusterCore, Homes};
use crate::event::LpId;
use crate::probe::{Probe, Tee};
use crate::stats::{KernelStats, LpActivity, LpLedger};
use crate::time::VTime;

/// Knobs for dynamic load balancing, set via
/// [`crate::Simulator::load_balancer`].
#[derive(Debug, Clone, Copy)]
pub struct DynLbConfig {
    /// Run the balancer every `period` GVT rounds; at least 1, or the run
    /// is a [`crate::SimError::InvalidConfig`].
    pub period: u64,
    /// Maximum LP migrations per balancing round (bounds migration
    /// traffic).
    pub max_moves: usize,
    /// Minimum traffic gain (messages per window) for a migration that is
    /// not fixing an overload. Migration costs a state transfer up front;
    /// gains below this threshold never pay it back and just flap LPs
    /// between nodes.
    pub min_comm_gain: u64,
}

impl Default for DynLbConfig {
    fn default() -> DynLbConfig {
        DynLbConfig { period: 4, max_moves: 8, min_comm_gain: 4 }
    }
}

/// One planned migration: move `lp` from part `from` to part `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Migration {
    /// The LP to move.
    pub lp: LpId,
    /// Its current node/cluster.
    pub from: u32,
    /// Its destination node/cluster.
    pub to: u32,
}

/// Per LP, the load one window put on it: its *net* events (processed
/// minus rolled back).
///
/// Counting wasted work as load would make rollback victims look heavy
/// and set up a migration → rollback → migration feedback loop; net load
/// measures actual forward progress.
fn window_loads(lps: &[LpActivity]) -> Vec<u64> {
    lps.iter().map(|a| a.events.saturating_sub(a.events_rolled_back)).collect()
}

/// The balance ceiling: no move may lift a part above
/// `ceil(11·total / (10·parts))`, its average load plus 10 %. Split as
/// `total = q·d + r` with `d = 10·parts`, so no product can overflow.
fn balance_ceiling(total: u64, parts: usize) -> u64 {
    let d = 10 * parts as u64;
    total / d * 11 + (total % d * 11).div_ceil(d)
}

/// The balancing policy: map one window's per-LP `loads`
/// ([`window_loads`]) and remote traffic `comm` (messages per unordered
/// LP pair) to at most `cfg.max_moves` single-LP moves off `assignment`
/// over `parts` nodes/clusters. An LP `pinned` names never moves.
///
/// Greedy Fiduccia–Mattheyses refinement over the observed load graph,
/// not the static circuit: repeatedly take the feasible move with the
/// best positive gain, where gain is the traffic gain (messages to the
/// target part minus messages kept inside the source part) plus the
/// load-transfer gain (the source's load minus the target's minus the
/// LP's own: positive when the move narrows the gap), both in events per
/// window. A move is feasible when it keeps the target at or under
/// [`balance_ceiling`]. Each LP moves at most once per round (it is
/// locked after its move); a pinned LP starts locked, so it never takes
/// one of the `max_moves` and no later move is planned around it.
///
/// Anti-churn rule: a move whose source part is at or under the ceiling
/// must gain more than `cfg.min_comm_gain` in traffic. Without it, once
/// the overloaded part has been drained the small residual load
/// differences keep generating positive-gain shuffles whose migration
/// cost dwarfs their benefit.
///
/// A deterministic function of its arguments — the virtual-platform
/// executive's byte-reproducibility depends on it: LPs are scanned in id
/// order, targets in part order, and ties keep the lowest
/// `(lp, target)`.
fn plan(
    loads: &[u64],
    comm: &BTreeMap<(LpId, LpId), u64>,
    assignment: &[u32],
    pinned: &[bool],
    parts: usize,
    cfg: &DynLbConfig,
) -> Vec<Migration> {
    assert_eq!(assignment.len(), loads.len(), "one load per assigned LP");
    assert_eq!(pinned.len(), loads.len(), "one pin flag per LP");
    if parts < 2 || loads.is_empty() {
        return Vec::new();
    }
    let mut adj: Vec<Vec<(LpId, u64)>> = vec![Vec::new(); loads.len()];
    for (&(a, b), &w) in comm.iter().filter(|&(&(a, b), _)| a != b) {
        adj[a as usize].push((b, w));
        adj[b as usize].push((a, w));
    }
    let mut asg = assignment.to_vec();
    let mut part_load = vec![0u64; parts];
    for (&p, &l) in asg.iter().zip(loads) {
        part_load[p as usize] += l;
    }
    let lmax = balance_ceiling(loads.iter().sum(), parts);

    let mut locked = pinned.to_vec();
    let mut moves = Vec::new();
    while moves.len() < cfg.max_moves {
        // Strict `>` keeps the first of equal gains: the lowest (lp, to).
        let mut best: Option<(LpId, u32, i64)> = None;
        for v in (0..).take(loads.len()).filter(|&v: &LpId| !locked[v as usize]) {
            let (from, w) = (asg[v as usize], loads[v as usize]);
            for to in (0..).take(parts).filter(|&to: &u32| to != from) {
                if part_load[to as usize] + w > lmax {
                    continue;
                }
                let balance =
                    part_load[from as usize] as i64 - part_load[to as usize] as i64 - w as i64;
                let mut cg = 0i64;
                for &(u, ew) in &adj[v as usize] {
                    let pu = asg[u as usize];
                    if pu == to {
                        cg += ew as i64;
                    } else if pu == from {
                        cg -= ew as i64;
                    }
                }
                if part_load[from as usize] <= lmax && cg <= cfg.min_comm_gain as i64 {
                    continue; // anti-churn
                }
                let gain = cg + balance;
                if best.is_none_or(|(_, _, bg)| gain > bg) {
                    best = Some((v, to, gain));
                }
            }
        }
        let Some((lp, to, _)) = best.filter(|&(_, _, gain)| gain > 0) else { break };
        let from = std::mem::replace(&mut asg[lp as usize], to);
        part_load[from as usize] -= loads[lp as usize];
        part_load[to as usize] += loads[lp as usize];
        locked[lp as usize] = true;
        moves.push(Migration { lp, from, to });
    }
    moves
}

/// Whether `mv` fits `assignment` over `parts`: a real LP, moving from
/// where it lives to another existing part.
fn move_is_valid(mv: &Migration, assignment: &[u32], parts: usize) -> bool {
    (mv.lp as usize) < assignment.len()
        && (mv.to as usize) < parts
        && mv.from != mv.to
        && assignment[mv.lp as usize] == mv.from
}

/// A run's balancer: its knobs and the LPs it must leave in place.
pub(crate) struct Balancer {
    cfg: DynLbConfig,
    /// Per LP: [`Application::pinned_lps`] names it (a replica LP: moving
    /// one would reintroduce the boundary traffic it exists to remove).
    pinned: Vec<bool>,
}

impl Balancer {
    pub fn new<A: Application>(app: &A, cfg: DynLbConfig) -> Balancer {
        let mut pinned = vec![false; app.num_lps()];
        for lp in app.pinned_lps() {
            if let Some(slot) = pinned.get_mut(lp as usize) {
                *slot = true;
            }
        }
        Balancer { cfg, pinned }
    }

    /// Whether the GVT round that agreed `gvt`, the run's `rounds`-th,
    /// balances. A function of agreed values only, so the threaded
    /// executive's clusters all stop at the same round.
    pub fn due(&self, gvt: VTime, rounds: u64) -> bool {
        !gvt.is_inf() && rounds.is_multiple_of(self.cfg.period)
    }

    /// The one migration step, run right after the commit of a balancing
    /// round while nothing is in flight. Drains the window from the run's
    /// ledger, plans around the pinned LPs, then evicts and adopts
    /// each move, passing `(src, dst, units)` to `ship` after each
    /// eviction for the driver to price.
    pub fn step<A: Application, P: Probe>(
        &self,
        cores: &mut [ClusterCore<'_, A>],
        homes: &mut Homes,
        gvt: VTime,
        probe: &mut Tee<KernelStats, Tee<Option<LpLedger>, P>>,
        mut ship: impl FnMut(usize, usize, u64),
    ) {
        let ledger = probe.b.a.as_mut().map(std::mem::take).expect("kept when balancing");
        let (mut lps, comm) = ledger.into_parts();
        lps.resize(homes.parts().len(), LpActivity::default());
        let loads = window_loads(&lps);
        probe.a.lb_rounds += 1;
        for mv in plan(&loads, &comm, homes.parts(), &self.pinned, cores.len(), &self.cfg) {
            assert!(
                move_is_valid(&mv, homes.parts(), cores.len()) && !self.pinned[mv.lp as usize],
                "the planner's move {mv:?} does not fit the assignment or moves a pinned LP"
            );
            let (src, dst) = (mv.from as usize, mv.to as usize);
            let mover = cores[src].evict(&mv, homes, gvt, probe);
            ship(src, dst, mover.units);
            cores[dst].adopt(mover, homes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plans with no anti-churn threshold and at most `max_moves` moves,
    /// and applies the plan to `asg`.
    fn plan_and_apply(
        loads: &[u64],
        comm: &[((LpId, LpId), u64)],
        asg: &mut [u32],
        parts: usize,
        max_moves: usize,
    ) -> Vec<Migration> {
        let cfg = DynLbConfig { max_moves, min_comm_gain: 0, ..Default::default() };
        let pinned = vec![false; loads.len()];
        let moves = plan(loads, &comm.iter().copied().collect(), asg, &pinned, parts, &cfg);
        for mv in &moves {
            assert!(move_is_valid(mv, asg, parts), "{mv:?}");
            asg[mv.lp as usize] = mv.to;
        }
        moves
    }

    fn part_loads(loads: &[u64], asg: &[u32], parts: usize) -> Vec<u64> {
        let mut pl = vec![0u64; parts];
        for (&p, &l) in asg.iter().zip(loads) {
            pl[p as usize] += l;
        }
        pl
    }

    fn skewed(n: usize, hot: std::ops::Range<usize>) -> Vec<u64> {
        (0..n).map(|i| if hot.contains(&i) { 100 } else { 2 }).collect()
    }

    #[test]
    fn greedy_sheds_load_from_the_hot_part() {
        // LPs 0..4 hot, all on part 0 of 2.
        let loads = skewed(8, 0..4);
        let asg = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let moves = plan(&loads, &BTreeMap::new(), &asg, &[false; 8], 2, &DynLbConfig::default());
        assert!(!moves.is_empty());
        for mv in &moves {
            assert_eq!(mv.from, 0, "only the hot part sheds load: {mv:?}");
            assert_eq!(mv.to, 1);
            assert!(mv.lp < 4, "a hot LP moves, not a cold one");
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let loads = skewed(16, 3..9);
        let comm = BTreeMap::from([((2, 3), 11), ((8, 9), 7)]);
        let asg: Vec<u32> = (0..16).map(|i| (i / 4) as u32).collect();
        let a = plan(&loads, &comm, &asg, &[false; 16], 4, &DynLbConfig::default());
        let b = plan(&loads, &comm, &asg, &[false; 16], 4, &DynLbConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn balanced_window_yields_empty_plan() {
        let asg = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let cfg = DynLbConfig::default();
        assert!(plan(&[10; 8], &BTreeMap::new(), &asg, &[false; 8], 2, &cfg).is_empty());
    }

    #[test]
    fn plan_respects_max_moves() {
        let loads = skewed(32, 0..16);
        let cfg = DynLbConfig { max_moves: 3, ..Default::default() };
        assert!(plan(&loads, &BTreeMap::new(), &[0; 32], &[false; 32], 4, &cfg).len() <= 3);
    }

    #[test]
    fn a_pinned_lp_is_never_planned_and_spends_no_move() {
        // Three equal LPs on the overloaded part; LP 0 also talks to part
        // 1, so the best move is LP 0's. Pinned, the one move allowed goes
        // to the next best.
        let loads = [60, 60, 60, 1, 1, 1];
        let asg = [0, 0, 0, 1, 1, 1];
        let comm = BTreeMap::from([((0, 3), 40)]);
        let cfg = DynLbConfig { max_moves: 1, min_comm_gain: 0, ..Default::default() };
        let free = plan(&loads, &comm, &asg, &[false; 6], 2, &cfg);
        assert_eq!(free, vec![Migration { lp: 0, from: 0, to: 1 }]);
        let pinned = [true, false, false, false, false, false];
        let moves = plan(&loads, &comm, &asg, &pinned, 2, &cfg);
        assert_eq!(moves, vec![Migration { lp: 1, from: 0, to: 1 }]);
    }

    #[test]
    fn window_loads_are_net_events() {
        let lps = [(10, 4), (30, 0), (0, 0), (5, 5)].map(|(events, events_rolled_back)| {
            LpActivity { events, rollbacks: 0, events_rolled_back }
        });
        assert_eq!(window_loads(&lps), vec![6, 30, 0, 0]);
    }

    #[test]
    fn empty_graph_no_moves() {
        assert!(plan_and_apply(&[], &[], &mut [], 4, 8).is_empty());
    }

    #[test]
    fn balanced_input_is_left_alone() {
        let moves = plan_and_apply(&[10, 10, 10, 10], &[], &mut [0, 0, 1, 1], 2, 8);
        assert!(moves.is_empty(), "{moves:?}");
    }

    #[test]
    fn skewed_load_is_spread_out() {
        // All the load on part 0; refinement must shed it.
        let loads = [100, 100, 100, 100, 1, 1, 1, 1];
        let mut asg = [0, 0, 0, 0, 1, 1, 1, 1];
        let max_load = |asg: &[u32]| part_loads(&loads, asg, 2).into_iter().max().unwrap();
        let before = max_load(&asg);
        let moves = plan_and_apply(&loads, &[], &mut asg, 2, 8);
        assert!(!moves.is_empty());
        assert!(max_load(&asg) < before);
        for m in &moves {
            assert_eq!(asg[m.lp as usize], m.to);
        }
    }

    #[test]
    fn comm_affinity_picks_the_connected_vertex() {
        // Two equal-load candidates on the hot part; the one that talks to
        // part 1 is the one that should move there.
        let moves = plan_and_apply(&[50, 50, 1], &[((1, 2), 40)], &mut [0, 0, 1], 2, 1);
        assert_eq!(moves, vec![Migration { lp: 1, from: 0, to: 1 }]);
    }

    #[test]
    fn respects_max_moves_and_balance_bound() {
        let loads = [30; 12];
        let mut asg = [0u32; 12];
        let moves = plan_and_apply(&loads, &[], &mut asg, 3, 3);
        assert!(moves.len() <= 3);
        let lmax = balance_ceiling(loads.iter().sum(), 3);
        for (p, l) in part_loads(&loads, &asg, 3).into_iter().enumerate() {
            // Part 0 started over the bound; it may only have shrunk.
            assert!(l <= lmax || p == 0, "part {p} load {l} > lmax {lmax}");
        }
    }

    #[test]
    fn no_churn_when_within_balance_tolerance() {
        // Part 0 carries 13, part 1 carries 11, lmax = 14: moving the
        // weight-1 vertex would be a positive-gain move, but both parts
        // are inside the tolerance and there is no traffic to save.
        let moves = plan_and_apply(&[6, 6, 1, 5, 5, 1], &[], &mut [0, 0, 0, 1, 1, 1], 2, 8);
        assert!(moves.is_empty(), "{moves:?}");
    }

    #[test]
    fn deterministic_across_calls() {
        let loads = [9, 7, 5, 3, 2, 8, 1, 6];
        let comm = [((0, 5), 4), ((1, 2), 3), ((3, 7), 2)];
        let run = || {
            let mut asg = [0, 0, 0, 0, 1, 1, 1, 1];
            let m = plan_and_apply(&loads, &comm, &mut asg, 2, 8);
            (asg, m)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn single_part_never_moves() {
        let mut asg = [0, 0, 0];
        assert!(plan_and_apply(&[5, 50, 500], &[], &mut asg, 1, 8).is_empty());
        assert_eq!(asg, [0, 0, 0]);
    }

    #[test]
    fn the_balance_ceiling_is_exact_at_its_boundary() {
        // 200 units over 4 parts: 10 % over the average of 50 is exactly
        // 55 (a float `50.0 * 1.1` rounds above 55 and would allow 56).
        assert_eq!(balance_ceiling(200, 4), 55);
        assert_eq!(balance_ceiling(201, 4), 56);
        assert_eq!(balance_ceiling(u64::MAX, 2), u64::MAX / 20 * 11 + 9);
        // Four parts of 50. LP 0 talks to LP 2 on part 1, so moving it
        // there gains traffic: it may lift part 1 to exactly 55, never to
        // 56, and every other move breaks the ceiling.
        for (w, want) in [(5, vec![Migration { lp: 0, from: 0, to: 1 }]), (6, vec![])] {
            let loads = [w, 50 - w, 50, 50, 50];
            let moves = plan_and_apply(&loads, &[((0, 2), 10)], &mut [0, 0, 1, 2, 3], 4, 8);
            assert_eq!(moves, want, "LP 0 carrying {w}");
        }
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
