//! Synthetic ISCAS'89-class benchmark generation.
//!
//! The paper evaluates on the ISCAS'89 circuits s5378, s9234 and s15850
//! (its Table 1). The original netlist files are not distributable with
//! this repository, so this module generates *structurally equivalent*
//! circuits: exact interface counts from Table 1, the published flip-flop
//! counts of the real circuits, ISCAS-like gate mix, a geometric fanout
//! distribution with a small heavy tail, reconvergent fan-in, sequential
//! feedback through the DFFs, and comparable logic depth. Partitioning
//! algorithms observe only this graph structure, so matching it preserves
//! the relative behaviour the paper measures. Real `.bench` files can be
//! used instead via [`crate::bench_format::parse`].
//!
//! Generation is fully deterministic given the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gate::{GateId, GateKind};
use crate::netlist::{Netlist, NetlistBuilder};

/// Parameters for the synthetic circuit generator.
#[derive(Debug, Clone)]
pub struct IscasSynth {
    /// Circuit name (used in reports and file output).
    pub name: String,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of combinational logic gates (the paper's Table 1 "Gates").
    pub gates: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of D flip-flops (on top of `gates`).
    pub dffs: usize,
    /// Target combinational depth (levels).
    pub depth: usize,
    /// RNG seed; same seed ⇒ identical circuit.
    pub seed: u64,
}

impl IscasSynth {
    /// Generic constructor with a default depth heuristic (roughly the
    /// depth growth observed across the ISCAS'89 suite).
    pub fn new(name: impl Into<String>, inputs: usize, gates: usize, outputs: usize) -> Self {
        let depth = (12.0 + (gates as f64).sqrt() * 0.45) as usize;
        IscasSynth {
            name: name.into(),
            inputs,
            gates,
            outputs,
            dffs: gates / 20,
            depth,
            seed: 0x5EED_1509,
        }
    }

    /// s5378 profile: 35 inputs, 2779 gates, 49 outputs (paper Table 1);
    /// 179 DFFs (published characteristic of the real circuit).
    pub fn s5378() -> Self {
        IscasSynth { dffs: 179, depth: 25, ..IscasSynth::new("s5378", 35, 2779, 49) }
    }

    /// s9234 profile: 36 inputs, 5597 gates, 39 outputs; 211 DFFs.
    pub fn s9234() -> Self {
        IscasSynth { dffs: 211, depth: 38, ..IscasSynth::new("s9234", 36, 5597, 39) }
    }

    /// s15850 profile: 77 inputs, 10383 gates, 150 outputs; 534 DFFs.
    pub fn s15850() -> Self {
        IscasSynth { dffs: 534, depth: 42, ..IscasSynth::new("s15850", 77, 10383, 150) }
    }

    /// The three benchmark profiles of the paper's Table 1, in paper order.
    pub fn paper_suite() -> Vec<IscasSynth> {
        vec![IscasSynth::s5378(), IscasSynth::s9234(), IscasSynth::s15850()]
    }

    /// The [`paper_suite`](Self::paper_suite) profile called `name`
    /// (`s5378`, `s9234` or `s15850`), if there is one.
    pub fn by_name(name: &str) -> Option<IscasSynth> {
        IscasSynth::paper_suite().into_iter().find(|s| s.name == name)
    }

    /// A small circuit profile for tests: `inputs ≈ gates/20`, a handful of
    /// DFFs, shallow. Deterministic for a given `(gates, seed)`.
    pub fn small(gates: usize, seed: u64) -> Self {
        let inputs = (gates / 20).max(2);
        let outputs = (gates / 30).max(1);
        IscasSynth {
            name: format!("synth{gates}"),
            inputs,
            gates,
            outputs,
            dffs: (gates / 15).max(1),
            depth: ((gates as f64).sqrt() as usize).clamp(3, 24),
            seed,
        }
    }

    /// Generate the circuit. Panics only on impossible profiles
    /// (`gates == 0` or `depth == 0`); all shipped profiles are valid.
    pub fn build(&self) -> Netlist {
        assert!(self.gates > 0 && self.depth > 0 && self.inputs > 0);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = NetlistBuilder::new(self.name.clone());

        // Primary inputs.
        let input_ids: Vec<GateId> =
            (0..self.inputs).map(|i| b.add_input(format!("PI{i}")).unwrap()).collect();

        // DFFs created up front with placeholder fanin so their outputs
        // participate as level-0 drivers (this is where the sequential
        // feedback of the real circuits comes from). D inputs are wired at
        // the end to deep combinational gates.
        let dff_ids: Vec<GateId> = (0..self.dffs)
            .map(|i| b.add_gate(format!("FF{i}"), GateKind::Dff, vec![0]).unwrap())
            .collect();

        // Distribute combinational gates across levels 1..=depth with a
        // flat-ish profile that tapers at the deep end (ISCAS circuits are
        // wide early, narrow late). Every level gets at least one gate.
        let depth = self.depth.min(self.gates); // cannot be deeper than gate count
        let mut level_sizes = vec![0usize; depth + 1]; // index 0 unused (sources)
        {
            let mut remaining = self.gates;
            // Reserve one per level first.
            for size in level_sizes.iter_mut().skip(1) {
                *size = 1;
                remaining -= 1;
            }
            // Taper weight: w(l) = depth - l/2, normalized.
            let weights: Vec<f64> = (1..=depth).map(|l| (depth as f64) - l as f64 * 0.5).collect();
            let total_w: f64 = weights.iter().sum();
            for l in 1..=depth {
                if remaining == 0 {
                    break;
                }
                let share = ((weights[l - 1] / total_w) * self.gates as f64) as usize;
                let take = share.min(remaining);
                level_sizes[l] += take;
                remaining -= take;
            }
            // Any residue lands in the widest early-middle region.
            let mut l = (depth / 3).max(1);
            while remaining > 0 {
                level_sizes[l] += 1;
                remaining -= 1;
                l = (l % depth) + 1;
            }
        }

        // Driver pool per level. Level 0 = inputs + DFF outputs.
        let mut by_level: Vec<Vec<GateId>> = vec![Vec::new(); depth + 1];
        by_level[0].extend(&input_ids);
        by_level[0].extend(&dff_ids);

        // Track fanout counts for shaping. A small set of "broadcast" nets
        // is allowed unlimited fanout (clock-tree/enable-like signals);
        // everything else is soft-capped so the mean stays ISCAS-like.
        let total_vertices = self.inputs + self.dffs + self.gates;
        let mut fanout_count = vec![0u32; total_vertices + 1];
        let soft_cap = 9u32;

        // Hub nets: a few level-0 signals (inputs and DFF outputs) that act
        // like enables/resets and take unbounded fanout.
        let mut hubs: Vec<GateId> = Vec::new();
        hubs.extend(input_ids.iter().take((self.inputs / 8).clamp(1, 6)).copied());
        hubs.extend(dff_ids.iter().take((self.dffs / 40).min(4)).copied());

        // Fanin arity distribution (ISCAS'89 mix: inverters/buffers ~25%,
        // 2-input dominant, a tail of 3..5-input gates).
        let pick_arity = |rng: &mut StdRng| -> usize {
            let x: f64 = rng.gen();
            if x < 0.25 {
                1
            } else if x < 0.80 {
                2
            } else if x < 0.92 {
                3
            } else if x < 0.98 {
                4
            } else {
                5
            }
        };
        let kind_for_arity = |rng: &mut StdRng, arity: usize| -> GateKind {
            if arity == 1 {
                if rng.gen_bool(0.75) {
                    GateKind::Not
                } else {
                    GateKind::Buf
                }
            } else {
                match rng.gen_range(0..100) {
                    0..=29 => GateKind::Nand,
                    30..=54 => GateKind::And,
                    55..=74 => GateKind::Nor,
                    75..=89 => GateKind::Or,
                    90..=95 => GateKind::Xor,
                    _ => GateKind::Xnor,
                }
            }
        };

        // Pick a driver from a level, preferring unread gates (keeps the
        // dangling-gate count low) and respecting the soft fanout cap.
        let pick_from_level =
            |rng: &mut StdRng, pool: &[GateId], fanout_count: &mut [u32]| -> GateId {
                debug_assert!(!pool.is_empty());
                // A few resampling attempts to bias toward low-fanout nets.
                let mut best = pool[rng.gen_range(0..pool.len())];
                for _ in 0..3 {
                    if fanout_count[best as usize] == 0 {
                        break;
                    }
                    let cand = pool[rng.gen_range(0..pool.len())];
                    if fanout_count[cand as usize] < fanout_count[best as usize] {
                        best = cand;
                    }
                }
                // Soft cap: resample once more if overloaded (2% of nets
                // are exempt, giving the heavy tail).
                if fanout_count[best as usize] >= soft_cap && !rng.gen_bool(0.02) {
                    best = pool[rng.gen_range(0..pool.len())];
                }
                fanout_count[best as usize] += 1;
                best
            };

        let mut gate_no = 0usize;
        for l in 1..=depth {
            for _ in 0..level_sizes[l] {
                let arity = pick_arity(&mut rng);
                let kind = kind_for_arity(&mut rng, arity);
                let mut fanin = Vec::with_capacity(arity);
                // First pin from the immediately previous level: makes the
                // level assignment exact and chains the circuit.
                fanin.push(pick_from_level(&mut rng, &by_level[l - 1], &mut fanout_count));
                // Remaining pins from geometrically earlier levels
                // (reconvergence + locality). A small fraction reads one of
                // the designated hub nets instead — control/enable-like
                // level-0 signals whose accumulated fanout forms the heavy
                // tail observed in real ISCAS circuits.
                for _ in 1..arity {
                    if !hubs.is_empty() && rng.gen_bool(0.05) {
                        let h = hubs[rng.gen_range(0..hubs.len())];
                        fanout_count[h as usize] += 1;
                        fanin.push(h);
                        continue;
                    }
                    let mut back = 1usize;
                    while back < l && rng.gen_bool(0.45) {
                        back += 1;
                    }
                    let src_level = l - back;
                    fanin.push(pick_from_level(&mut rng, &by_level[src_level], &mut fanout_count));
                }
                let id = b.add_gate(format!("G{gate_no}"), kind, fanin).unwrap();
                gate_no += 1;
                by_level[l].push(id);
            }
        }

        // Wire DFF D-inputs to deep combinational gates, preferring unread
        // ones (this is the feedback path of the sequential circuit).
        let deep_start = depth / 2;
        let deep_pool: Vec<GateId> =
            (deep_start..=depth).flat_map(|l| by_level[l].iter().copied()).collect();
        let mut resolved = Vec::with_capacity(self.dffs);
        for &ff in &dff_ids {
            let d = pick_from_level(&mut rng, &deep_pool, &mut fanout_count);
            resolved.push((ff, vec![d]));
        }
        b.set_fanins(resolved);

        // Primary outputs: the deepest unread combinational gates first,
        // then (if the profile asks for more outputs than there are unread
        // gates) the remaining deepest gates. Candidates are deduplicated,
        // so exactly `self.outputs` gates are marked.
        let mut seen_out = std::collections::BTreeSet::new();
        let candidates = (1..=depth)
            .rev()
            .flat_map(|l| by_level[l].iter().copied())
            .filter(|&g| fanout_count[g as usize] == 0)
            .chain((1..=depth).rev().flat_map(|l| by_level[l].iter().copied()));
        let mut marked = 0usize;
        for id in candidates {
            if marked == self.outputs {
                break;
            }
            if seen_out.insert(id) {
                b.mark_output(id);
                marked += 1;
            }
        }
        assert_eq!(marked, self.outputs, "profile asks for more outputs than gates");
        // Remaining unread gates are left dangling, as real synthesized
        // netlists occasionally are (kept under 5% by driver selection).

        b.build().expect("generator must produce a valid netlist")
    }
}

/// Clock-tree-heavy synthetic circuit: a root enable input fans out
/// through a radix-`radix` buffer broadcast tree to `leaves` leaf
/// buffers, and every leaf gates a local cluster of combinational
/// logic plus a few flip-flops. Each leaf buffer is read by all
/// `cluster` gates of its cluster, so the circuit is dominated by
/// medium-fanout hub nets — the worst case for edge-cut partitioners
/// and the best case for logic replication: duplicating one buffer
/// into a consumer part removes `cluster`-scale remote traffic at the
/// cost of a single imported pin.
///
/// Generation is fully deterministic given the seed.
#[derive(Debug, Clone)]
pub struct ClockTreeSynth {
    /// Circuit name (used in reports and file output).
    pub name: String,
    /// Number of leaf buffers in the broadcast tree.
    pub leaves: usize,
    /// Branching factor of the buffer tree (≥ 2).
    pub radix: usize,
    /// Combinational gates per leaf cluster (each reads its leaf).
    pub cluster: usize,
    /// Flip-flops per leaf cluster (fed by deep cluster gates).
    pub dffs_per_leaf: usize,
    /// Shared data inputs, read round-robin across clusters.
    pub data_inputs: usize,
    /// RNG seed; same seed ⇒ identical circuit.
    pub seed: u64,
}

impl ClockTreeSynth {
    /// The profile used by the kernel benchmark scenarios: 16 leaves on
    /// a radix-4 tree, 60-gate clusters, ~1k gates total.
    pub fn platform_demo() -> Self {
        ClockTreeSynth {
            name: "clocktree16x60".to_string(),
            leaves: 16,
            radix: 4,
            cluster: 60,
            dffs_per_leaf: 4,
            data_inputs: 8,
            seed: 0xC10C_7EE5,
        }
    }

    /// A small profile for tests, deterministic for a given seed.
    pub fn small(seed: u64) -> Self {
        ClockTreeSynth {
            name: "clocktree4x12".to_string(),
            leaves: 4,
            radix: 2,
            cluster: 12,
            dffs_per_leaf: 2,
            data_inputs: 4,
            seed,
        }
    }

    /// Generate the circuit. Panics only on impossible profiles.
    pub fn build(&self) -> Netlist {
        assert!(self.leaves > 0 && self.radix >= 2 && self.cluster >= 2 && self.data_inputs > 0);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = NetlistBuilder::new(self.name.clone());

        // Root enable plus shared data inputs.
        let root = b.add_input("CLK").unwrap();
        let data: Vec<GateId> =
            (0..self.data_inputs).map(|i| b.add_input(format!("PI{i}")).unwrap()).collect();

        // Broadcast tree: expand the frontier by `radix` until it can
        // cover all leaves, then emit exactly `leaves` leaf buffers.
        let mut frontier = vec![root];
        let mut level = 0usize;
        while frontier.len() < self.leaves {
            let want = (frontier.len() * self.radix).min(self.leaves.max(frontier.len() + 1));
            let next: Vec<GateId> = (0..want)
                .map(|i| {
                    let parent = frontier[i % frontier.len()];
                    b.add_gate(format!("CT{level}_{i}"), GateKind::Buf, vec![parent]).unwrap()
                })
                .collect();
            frontier = next;
            level += 1;
        }
        let leaf_bufs = frontier;

        // Per-leaf clusters: DFFs first (placeholder D, wired at the
        // end) so their outputs join the local driver pool, then the
        // combinational gates. Every gate reads its leaf buffer on pin
        // 0 — the clock-gating pattern that makes leaves hubs.
        let mut resolved = Vec::new();
        for (li, &leaf) in leaf_bufs.iter().enumerate() {
            let ffs: Vec<GateId> = (0..self.dffs_per_leaf)
                .map(|i| b.add_gate(format!("FF{li}_{i}"), GateKind::Dff, vec![0]).unwrap())
                .collect();
            let mut local: Vec<GateId> = ffs.clone();
            local.push(data[li % data.len()]);
            for gi in 0..self.cluster {
                let kind = match rng.gen_range(0..100) {
                    0..=39 => GateKind::And,
                    40..=69 => GateKind::Nand,
                    70..=84 => GateKind::Or,
                    _ => GateKind::Xor,
                };
                let mut fanin = vec![leaf];
                fanin.push(local[rng.gen_range(0..local.len())]);
                if rng.gen_bool(0.3) {
                    fanin.push(local[rng.gen_range(0..local.len())]);
                }
                let id = b.add_gate(format!("C{li}_{gi}"), kind, fanin).unwrap();
                local.push(id);
            }
            // Feedback: each DFF samples one of the deepest cluster gates.
            let deep = &local[local.len() - self.cluster / 2..];
            for &ff in &ffs {
                resolved.push((ff, vec![deep[rng.gen_range(0..deep.len())]]));
            }
            // The last cluster gate is the cluster's observable output.
            b.mark_output(*local.last().unwrap());
        }
        b.set_fanins(resolved);
        b.build().expect("generator must produce a valid netlist")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levelize::levelize;
    use crate::stats::CircuitStats;

    #[test]
    fn table1_characteristics_match_exactly() {
        for (name, ins, gates, outs) in
            [("s5378", 35, 2779, 49), ("s9234", 36, 5597, 39), ("s15850", 77, 10383, 150)]
        {
            let n = IscasSynth::by_name(name).expect("a paper circuit").build();
            assert_eq!(n.name(), name);
            assert_eq!(n.inputs().len(), ins, "{}", n.name());
            assert_eq!(n.num_logic_gates() - n.dffs().len(), gates, "{}", n.name());
            assert_eq!(n.outputs().len(), outs, "{}", n.name());
        }
        assert!(IscasSynth::by_name("s27").is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = IscasSynth::small(300, 42).build();
        let b = IscasSynth::small(300, 42).build();
        assert_eq!(a.len(), b.len());
        for id in a.ids() {
            assert_eq!(a.gate(id), b.gate(id));
        }
        assert_eq!(a.outputs(), b.outputs());
    }

    #[test]
    fn different_seeds_differ() {
        let a = IscasSynth::small(300, 1).build();
        let b = IscasSynth::small(300, 2).build();
        let same = a.ids().all(|id| a.gate(id) == b.gate(id));
        assert!(!same, "different seeds should give different circuits");
    }

    #[test]
    fn depth_is_close_to_requested() {
        let synth = IscasSynth::s9234();
        let n = synth.build();
        let lv = levelize(&n);
        // First-pin-from-previous-level guarantees depth == requested.
        assert_eq!(lv.depth() - 1, synth.depth);
    }

    #[test]
    fn fanout_is_iscas_like() {
        let n = IscasSynth::s9234().build();
        let stats = CircuitStats::of(&n);
        assert!(
            stats.avg_fanout > 1.2 && stats.avg_fanout < 3.5,
            "avg fanout {} out of ISCAS range",
            stats.avg_fanout
        );
        assert!(stats.max_fanout >= 10, "expected a heavy tail, max {}", stats.max_fanout);
    }

    #[test]
    fn few_dangling_gates() {
        let n = IscasSynth::s5378().build();
        let dangling =
            n.ids().filter(|&g| n.fanout(g).is_empty() && !n.outputs().contains(&g)).count();
        assert!(dangling * 20 < n.len(), "more than 5% dangling gates ({dangling} of {})", n.len());
    }

    #[test]
    fn dffs_create_feedback() {
        let n = IscasSynth::small(500, 7).build();
        // Every DFF's D input must be a combinational gate, giving a
        // sequential loop back to level 0.
        for &ff in n.dffs() {
            let d = n.fanin(ff)[0];
            assert!(!n.is_input(d) && !n.is_dff(d));
        }
    }

    #[test]
    fn small_profiles_build_quickly_and_validate() {
        for gates in [10, 33, 100, 250] {
            let n = IscasSynth::small(gates, 3).build();
            assert_eq!(n.num_logic_gates() - n.dffs().len(), gates);
        }
    }

    #[test]
    fn clock_tree_is_deterministic_and_hub_heavy() {
        let a = ClockTreeSynth::small(9).build();
        let b = ClockTreeSynth::small(9).build();
        for id in a.ids() {
            assert_eq!(a.gate(id), b.gate(id));
        }
        let synth = ClockTreeSynth::platform_demo();
        let n = synth.build();
        assert_eq!(n.inputs().len(), 1 + synth.data_inputs);
        assert_eq!(n.outputs().len(), synth.leaves);
        assert_eq!(n.dffs().len(), synth.leaves * synth.dffs_per_leaf);
        // Every leaf buffer fans out to its whole cluster.
        let stats = CircuitStats::of(&n);
        assert!(
            stats.max_fanout >= synth.cluster,
            "leaf hubs missing, max fanout {}",
            stats.max_fanout
        );
        let hubs = n.ids().filter(|&g| n.fanout(g).len() >= synth.cluster).count();
        assert!(hubs >= synth.leaves, "expected one hub per leaf, got {hubs}");
    }

    #[test]
    fn clock_tree_dffs_sample_cluster_logic() {
        let n = ClockTreeSynth::small(3).build();
        for &ff in n.dffs() {
            let d = n.fanin(ff)[0];
            assert!(!n.is_input(d) && !n.is_dff(d), "DFF D pin must read comb logic");
        }
    }
}
