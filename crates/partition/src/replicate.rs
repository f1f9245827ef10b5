//! Bounded logic replication (the RePart idea): duplicate small
//! high-fanout combinational cones into the parts that read them, so
//! their boundary messages disappear instead of being merely minimized.
//!
//! Cut-only optimization hits a floor on broadcast-shaped nets — a hub
//! driver read by every part costs λ−1 boundary messages per toggle no
//! matter where it is placed. Replicating the driver *into* each reading
//! part removes those messages entirely, at the price of evaluating the
//! copy locally and (possibly) importing the driver's fanins. The planner
//! accepts a replica exactly when the messages saved exceed the messages
//! added plus a per-replica evaluation cost, subject to a per-part
//! duplication budget.
//!
//! The message model is the gate-per-LP pin model (one message per
//! crossing reader pin — see [`crate::metrics`]): it upper-bounds the
//! compiled bundled model, so a plan that pays off under it pays off in
//! both execution modes.
//!
//! Replica semantics (enforced by `pls-gatesim`, relied on here): a
//! replica receives the same fanin transitions at the same virtual times
//! as its home gate and evaluates the same deterministic four-valued
//! function, so its output waveform is identical — readers cannot tell a
//! replica from the original, and committed fingerprints only hash home
//! copies. DFFs are never replicated ([`CircuitGraph::is_replicable`]);
//! primary inputs may be (a replica replays the same stimulus stream).

use std::collections::BTreeSet;

use crate::graph::{CircuitGraph, VertexId};
use crate::metrics::edge_cut;
use crate::partitioning::Partitioning;

/// Bounds and costs of the replication pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationConfig {
    /// Maximum total vertex weight of replicas added to any single part —
    /// the per-part duplication budget.
    pub budget_per_part: u64,
    /// Minimum fanout (distinct readers) for a gate to be considered:
    /// replication targets high-fanout nets.
    pub min_fanout: usize,
    /// Maximum fanin of a replicable gate — keeps replicated cones small
    /// and bounds the messages a replica can import.
    pub max_fanin: usize,
    /// Evaluation cost of one replica, in message units: a replica must
    /// save strictly more messages than it adds plus this.
    pub gate_cost: i64,
    /// Greedy passes. Pass `n+1` sees pass-`n` replicas as local readers,
    /// so each extra pass can extend accepted replicas one fanin level
    /// deeper (bounded cone replication).
    pub passes: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            budget_per_part: 48,
            min_fanout: 2,
            max_fanin: 4,
            gate_cost: 1,
            passes: 2,
        }
    }
}

/// One planned duplication: evaluate a copy of `gate` inside `part`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Replica {
    /// The home vertex (netlist gate id at the finest level).
    pub gate: VertexId,
    /// The part that gets the copy (never the gate's home part).
    pub part: u32,
}

/// The outcome of [`plan_replication`]: an ordered, deduplicated set of
/// replicas plus the planner's static estimate of its effect.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaPlan {
    /// Accepted replicas, sorted by `(gate, part)`.
    pub replicas: Vec<Replica>,
    /// `edge_cut` before the plan minus [`replicated_edge_cut`] after it:
    /// crossing reader pins removed per driver toggle, net of the pins
    /// the replicas import.
    pub est_messages_saved: u64,
}

impl ReplicaPlan {
    /// True when no replicas were accepted.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Number of planned replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// The plan as bare `(gate, part)` pairs — the shape the gatesim
    /// engine constructors consume.
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        self.replicas.iter().map(|r| (r.gate, r.part)).collect()
    }
}

/// Remaining crossing reader pins under a replica plan: for every edge
/// `d → r`, the read is local when `part(r) == part(d)` *or* the plan
/// puts a replica of `d` in `part(r)`; each replica in turn imports its
/// own fanins unless they (or their replicas) are local to its part.
/// With an empty plan this equals [`edge_cut`].
pub fn replicated_edge_cut(g: &CircuitGraph, p: &Partitioning, plan: &ReplicaPlan) -> u64 {
    let planned: BTreeSet<(VertexId, u32)> =
        plan.replicas.iter().map(|r| (r.gate, r.part)).collect();
    let mut cut = 0u64;
    for d in g.vertices() {
        let pd = p.part(d);
        for &(r, w) in g.fanout(d) {
            let pr = p.part(r);
            if pr != pd && !planned.contains(&(d, pr)) {
                cut += w;
            }
        }
    }
    for &Replica { gate, part } in &plan.replicas {
        for &(u, w) in g.fanin(gate) {
            if p.part(u) != part && !planned.contains(&(u, part)) {
                cut += w;
            }
        }
    }
    cut
}

/// Plan bounded replication for a finished partitioning. Deterministic:
/// candidates are ranked by gain with `(gate, part)` tie-breaks, and the
/// greedy loop consumes the per-part budget in that order.
pub fn plan_replication(
    g: &CircuitGraph,
    p: &Partitioning,
    cfg: &ReplicationConfig,
) -> ReplicaPlan {
    let base_cut = edge_cut(g, p);
    let mut planned: BTreeSet<(VertexId, u32)> = BTreeSet::new();
    let mut budget = vec![cfg.budget_per_part; p.k];

    for _ in 0..cfg.passes.max(1) {
        // Collect every profitable (gate, part) candidate under the
        // current plan, then accept by descending gain.
        let mut candidates: Vec<(i64, VertexId, u32)> = Vec::new();
        for v in g.vertices() {
            if !g.is_replicable(v)
                || g.fanout(v).len() < cfg.min_fanout
                || g.fanin(v).len() > cfg.max_fanin
            {
                continue;
            }
            let pv = p.part(v);
            // Reader-pin weight of v into each foreign part, counting
            // already-planned replicas of v's readers as readers in their
            // replica part (a replica's fanin read is a real message).
            let mut saved = vec![0i64; p.k];
            for &(r, w) in g.fanout(v) {
                saved[p.part(r) as usize] += w as i64;
                for q in 0..p.k as u32 {
                    if q != p.part(r) && planned.contains(&(r, q)) {
                        saved[q as usize] += w as i64;
                    }
                }
            }
            for q in 0..p.k as u32 {
                if q == pv || saved[q as usize] == 0 || planned.contains(&(v, q)) {
                    continue;
                }
                // Messages the replica imports: each fanin pin whose
                // driver (or a replica of it) is not local to q.
                let mut added = 0i64;
                for &(u, w) in g.fanin(v) {
                    if p.part(u) != q && !planned.contains(&(u, q)) {
                        added += w as i64;
                    }
                }
                let gain = saved[q as usize] - added - cfg.gate_cost;
                if gain > 0 {
                    candidates.push((gain, v, q));
                }
            }
        }
        candidates.sort_by_key(|&(gain, v, q)| (std::cmp::Reverse(gain), v, q));
        let mut accepted_this_pass = 0usize;
        for (_, v, q) in candidates {
            if budget[q as usize] < g.vweight(v) {
                continue;
            }
            budget[q as usize] -= g.vweight(v);
            planned.insert((v, q));
            accepted_this_pass += 1;
        }
        if accepted_this_pass == 0 {
            break;
        }
    }

    let mut plan = ReplicaPlan {
        replicas: planned.into_iter().map(|(gate, part)| Replica { gate, part }).collect(),
        est_messages_saved: 0,
    };
    plan.est_messages_saved = base_cut.saturating_sub(replicated_edge_cut(g, p, &plan));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MultilevelPartitioner, Partitioner};
    use pls_netlist::IscasSynth;

    /// A hub driver (vertex 0) read by three gates in part 1 and three in
    /// part 2, each reader with a private local fanin.
    fn hub_graph() -> CircuitGraph {
        // 0 = hub (input), 1..=6 readers, 7..=12 their local fanins.
        let mut fanout: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); 13];
        fanout[0] = (1..=6).map(|r| (r as VertexId, 1)).collect();
        for r in 1..=6u32 {
            fanout[6 + r as usize] = vec![(r, 1)];
        }
        let mut is_input = vec![false; 13];
        is_input[0] = true;
        for flag in is_input.iter_mut().skip(7) {
            *flag = true;
        }
        CircuitGraph::from_parts("hub".into(), vec![1; 13], fanout, is_input)
    }

    fn hub_parts() -> Partitioning {
        // Hub in part 0; readers+fanins 1-3 in part 1, 4-6 in part 2.
        let mut asg = vec![0u32; 13];
        for r in 1..=3 {
            asg[r] = 1;
            asg[r + 6] = 1;
        }
        for r in 4..=6 {
            asg[r] = 2;
            asg[r + 6] = 2;
        }
        Partitioning::new(3, asg)
    }

    #[test]
    fn replicates_hub_into_both_reading_parts() {
        let g = hub_graph();
        let p = hub_parts();
        assert_eq!(edge_cut(&g, &p), 6);
        let plan = plan_replication(&g, &p, &ReplicationConfig::default());
        assert_eq!(plan.replicas, vec![Replica { gate: 0, part: 1 }, Replica { gate: 0, part: 2 }]);
        // The hub has no fanins, so all six crossing pins disappear.
        assert_eq!(replicated_edge_cut(&g, &p, &plan), 0);
        assert_eq!(plan.est_messages_saved, 6);
    }

    #[test]
    fn respects_per_part_budget() {
        let g = hub_graph();
        let p = hub_parts();
        let cfg = ReplicationConfig { budget_per_part: 0, ..Default::default() };
        let plan = plan_replication(&g, &p, &cfg);
        assert!(plan.is_empty());
        assert_eq!(replicated_edge_cut(&g, &p, &plan), edge_cut(&g, &p));
    }

    #[test]
    fn never_replicates_sequential_vertices() {
        let g = hub_graph().with_replicable(vec![false; 13]);
        let plan = plan_replication(&g, &hub_parts(), &ReplicationConfig::default());
        assert!(plan.is_empty());
    }

    #[test]
    fn unprofitable_gates_stay_put() {
        // A chain has fanout-1 nets everywhere: saving one pin never beats
        // gate_cost + min_fanout, so nothing replicates.
        let g = CircuitGraph::from_parts(
            "chain".into(),
            vec![1; 4],
            vec![vec![(1, 1)], vec![(2, 1)], vec![(3, 1)], vec![]],
            vec![true, false, false, false],
        );
        let p = Partitioning::new(2, vec![0, 0, 1, 1]);
        let plan = plan_replication(&g, &p, &ReplicationConfig::default());
        assert!(plan.is_empty());
    }

    #[test]
    fn second_pass_extends_cones() {
        // 0 → 1 → {2,3,4 in part 1}: replicating 1 into part 1 imports
        // 0's edge. On its own, replicating 0 into part 1 only breaks
        // even (its single part-1 reader, vertex 6, saves one pin at
        // gate_cost 1) — but once pass 1 has put 1's replica there, 0
        // serves two part-1 readers and pass 2 extends the cone.
        let fanout: Vec<Vec<(VertexId, u64)>> = vec![
            vec![(1, 1), (5, 1), (6, 1)], // cone head + a local gate + one part-1 reader
            vec![(2, 1), (3, 1), (4, 1)],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
        ];
        let g = CircuitGraph::from_parts(
            "cone".into(),
            vec![1; 7],
            fanout,
            vec![true, false, false, false, false, false, false],
        );
        let p = Partitioning::new(2, vec![0, 0, 1, 1, 1, 0, 1]);
        let one_pass =
            plan_replication(&g, &p, &ReplicationConfig { passes: 1, ..Default::default() });
        assert_eq!(one_pass.pairs(), vec![(1, 1)]);
        let two_pass =
            plan_replication(&g, &p, &ReplicationConfig { passes: 2, ..Default::default() });
        assert_eq!(two_pass.pairs(), vec![(0, 1), (1, 1)]);
        // The deeper cone removes every boundary pin.
        assert_eq!(replicated_edge_cut(&g, &p, &two_pass), 0);
        assert!(two_pass.est_messages_saved > one_pass.est_messages_saved);
    }

    #[test]
    fn deterministic_and_profitable_on_synthetic_circuits() {
        let n = IscasSynth::small(600, 9).build();
        let g = CircuitGraph::from_netlist(&n);
        let run = || {
            let p = MultilevelPartitioner::default().partition(&g, 4, 0);
            let plan = plan_replication(&g, &p, &ReplicationConfig::default());
            (p, plan)
        };
        let (p1, plan1) = run();
        let (p2, plan2) = run();
        assert_eq!(p1.assignment, p2.assignment);
        assert_eq!(plan1, plan2);
        assert!(!plan1.is_empty(), "hub nets should attract replicas");
        assert!(plan1.est_messages_saved > 0);
        assert!(replicated_edge_cut(&g, &p1, &plan1) < edge_cut(&g, &p1));
        // No DFF ever replicated.
        for r in &plan1.replicas {
            assert!(g.is_replicable(r.gate));
            assert_ne!(p1.part(r.gate), r.part);
        }
    }
}
