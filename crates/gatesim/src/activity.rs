//! Signal activity profiling — the paper's §6 names "the use of activity
//! levels of communication to make better decisions while coarsening" as
//! ongoing research. This module provides the measurement half: a short
//! sequential pre-simulation counts each gate's output transitions, which
//! is exactly the number of events its output signal will carry per unit
//! of simulated time. Feeding these counts into the circuit graph's edge
//! weights makes the multilevel partitioner's coarsening (which merges
//! across heavy edges first) and greedy refinement (which minimizes
//! weighted cut) *activity-aware*: hot signals stay inside partitions,
//! cold signals absorb the cut.

use pls_netlist::Netlist;
use pls_partition::{CircuitGraph, VertexId};
use pls_timewarp::{Backend, Simulator};

use crate::experiment::SimConfig;

/// Per-gate output activity measured over a profiling run.
#[derive(Debug, Clone)]
pub struct ActivityProfile {
    /// Output transitions per gate during the profiling window.
    pub transitions: Vec<u64>,
    /// Length of the profiling window (simulated time units).
    pub window: u64,
}

impl ActivityProfile {
    /// Profile a circuit by simulating it sequentially for `window` time
    /// units under the given configuration's stimulus.
    pub fn measure(netlist: &Netlist, cfg: &SimConfig, window: u64) -> ActivityProfile {
        let mut probe_cfg = cfg.clone();
        probe_cfg.end_time = window;
        // Always profile per-gate: activity is attributed to individual
        // gate outputs regardless of the configured execution engine.
        let app = probe_cfg.build_gate_sim(netlist);
        let res =
            Simulator::new(&app).run(Backend::Sequential).expect("sequential runs cannot fail");
        ActivityProfile {
            transitions: res.states.iter().map(|s| u64::from(s.transitions)).collect(),
            window,
        }
    }

    /// Activity of one gate's output signal.
    pub fn of(&self, gate: VertexId) -> u64 {
        self.transitions[gate as usize]
    }

    /// Total transitions across the circuit.
    pub fn total(&self) -> u64 {
        self.transitions.iter().sum()
    }
}

/// Build an activity-weighted circuit graph: each driver→reader edge gets
/// weight `1 + driver's transition count` (the `+1` keeps zero-activity
/// signals connected so the partitioners still see the full topology).
pub fn activity_weighted_graph(netlist: &Netlist, profile: &ActivityProfile) -> CircuitGraph {
    assert_eq!(profile.transitions.len(), netlist.len());
    let n = netlist.len();
    let mut fanout: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); n];
    for id in netlist.ids() {
        let w = 1 + profile.of(id);
        let mut outs: Vec<VertexId> = netlist.fanout(id).to_vec();
        outs.sort_unstable();
        outs.dedup();
        for reader in outs {
            // Multi-pin reads carry the same events once per pin; count
            // the pins into the weight.
            let pins = netlist.fanin(reader).iter().filter(|&&f| f == id).count() as u64;
            fanout[id as usize].push((reader, w * pins));
        }
    }
    let is_input = netlist.ids().map(|g| netlist.is_input(g)).collect();
    CircuitGraph::from_parts(format!("{}+activity", netlist.name()), vec![1; n], fanout, is_input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pls_netlist::IscasSynth;
    use pls_partition::{metrics, MultilevelPartitioner, Partitioner};

    #[test]
    fn profile_counts_transitions() {
        let netlist = IscasSynth::small(150, 3).build();
        let cfg = SimConfig::default();
        let p = ActivityProfile::measure(&netlist, &cfg, 100);
        assert_eq!(p.transitions.len(), netlist.len());
        assert!(p.total() > 0, "circuit must show activity");
    }

    #[test]
    fn longer_window_means_more_activity() {
        let netlist = IscasSynth::small(150, 3).build();
        let cfg = SimConfig::default();
        let short = ActivityProfile::measure(&netlist, &cfg, 50);
        let long = ActivityProfile::measure(&netlist, &cfg, 200);
        assert!(long.total() > short.total());
    }

    #[test]
    fn weighted_graph_preserves_topology() {
        let netlist = IscasSynth::small(120, 5).build();
        let cfg = SimConfig::default();
        let profile = ActivityProfile::measure(&netlist, &cfg, 60);
        let plain = CircuitGraph::from_netlist(&netlist);
        let hot = activity_weighted_graph(&netlist, &profile);
        assert_eq!(plain.len(), hot.len());
        for v in plain.vertices() {
            let a: Vec<u32> = plain.fanout(v).iter().map(|&(w, _)| w).collect();
            let b: Vec<u32> = hot.fanout(v).iter().map(|&(w, _)| w).collect();
            assert_eq!(a, b, "same neighbours, different weights");
            assert_eq!(plain.is_input(v), hot.is_input(v));
        }
    }

    #[test]
    fn edge_weights_reflect_driver_activity() {
        let netlist = IscasSynth::small(120, 5).build();
        let cfg = SimConfig::default();
        let profile = ActivityProfile::measure(&netlist, &cfg, 100);
        let hot = activity_weighted_graph(&netlist, &profile);
        for v in hot.vertices() {
            for &(_, w) in hot.fanout(v) {
                let w = u64::from(w);
                assert!(w >= 1);
                assert!(w > profile.of(v) || w % (profile.of(v) + 1) == 0);
            }
        }
    }

    #[test]
    fn activity_aware_partition_cuts_fewer_weighted_edges() {
        // The point of the exercise: partitioning the activity-weighted
        // graph minimizes *message traffic*, not static edge count.
        let netlist = IscasSynth::small(400, 7).build();
        let cfg = SimConfig::default();
        let profile = ActivityProfile::measure(&netlist, &cfg, 100);
        let plain = CircuitGraph::from_netlist(&netlist);
        let hot = activity_weighted_graph(&netlist, &profile);

        let ml = MultilevelPartitioner;
        let p_plain = ml.partition(&plain, 8, 0);
        let p_hot = ml.partition(&hot, 8, 0);
        // Evaluate BOTH on the activity-weighted graph: predicted traffic.
        let traffic_plain = metrics::edge_cut(&hot, &p_plain);
        let traffic_hot = metrics::edge_cut(&hot, &p_hot);
        assert!(
            traffic_hot <= traffic_plain,
            "activity-aware {traffic_hot} should not exceed plain {traffic_plain}"
        );
    }
}
