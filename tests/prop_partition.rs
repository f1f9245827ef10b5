//! Property-style tests over the partitioning stack: every strategy, on
//! a deterministic sweep of synthetic circuits, must produce structurally
//! valid, reasonably balanced partitions; refinement must never increase
//! the cut; the multilevel invariants of the paper's §3 must hold for
//! every input. (The offline build has no proptest, so the cases are
//! enumerated with an explicit PRNG.)

use parlogsim::partition::multilevel::coarsen::{coarsen, CoarsenConfig};
use parlogsim::partition::multilevel::refine::{greedy_refine, GreedyConfig};
use parlogsim::prelude::*;

/// splitmix64 — drives the case sweeps deterministically.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 48 deterministic (circuit, k) cases in the original proptest ranges.
fn cases() -> Vec<(CircuitGraph, usize)> {
    let mut s = 0x9A27_u64;
    (0..48)
        .map(|_| {
            let gates = (30 + mix(&mut s) % 370) as usize;
            let seed = mix(&mut s) % 1000;
            let k = (2 + mix(&mut s) % 7) as usize;
            let netlist = IscasSynth::small(gates, seed).build();
            (CircuitGraph::from_netlist(&netlist), k)
        })
        .collect()
}

#[test]
fn every_strategy_yields_valid_partitions() {
    for (g, k) in cases() {
        for strategy in all_partitioners() {
            let p = strategy.partition(&g, k, 7);
            assert!(p.is_valid_for(&g), "{} invalid", strategy.name());
            assert_eq!(p.k, k);
            // No empty partitions on circuits with >= 4k gates.
            if g.len() >= 4 * k {
                assert!(
                    p.sizes().iter().all(|&s| s > 0),
                    "{} produced an empty partition",
                    strategy.name()
                );
            }
        }
    }
}

#[test]
fn balanced_strategies_respect_balance() {
    for (g, k) in cases() {
        // Random and Multilevel both advertise load balance.
        let slack = 1.0 + 16.0 / (g.len() as f64 / k as f64); // integer rounding allowance
        let p = RandomPartitioner.partition(&g, k, 3);
        assert!(metrics::imbalance(&g, &p) <= slack.max(1.05));
        let p = MultilevelPartitioner.partition(&g, k, 3);
        assert!(
            metrics::imbalance(&g, &p) <= slack.max(1.06),
            "multilevel imbalance {}",
            metrics::imbalance(&g, &p)
        );
    }
}

#[test]
fn greedy_refinement_never_increases_cut() {
    let mut s = 0x6EF1_u64;
    for (g, k) in cases() {
        let seed = mix(&mut s) % 50;
        let mut p = RandomPartitioner.partition(&g, k, seed);
        let before = metrics::edge_cut(&g, &p);
        let stats = greedy_refine(&g, &mut p, &GreedyConfig::default(), seed);
        assert!(stats.cut_after <= before);
        assert_eq!(stats.cut_after, metrics::edge_cut(&g, &p));
        assert!(p.is_valid_for(&g));
    }
}

#[test]
fn coarsening_invariants_hold() {
    for (g, k) in cases() {
        // Paper §3: globules are disjoint and cover V; total weight is
        // invariant; input globules never combine; the graph shrinks.
        let levels = coarsen(&g, &CoarsenConfig::for_k(k));
        let mut fine = g.clone();
        for level in &levels {
            assert_eq!(level.map.len(), fine.len());
            assert!(level.graph.len() < fine.len());
            assert_eq!(level.graph.total_weight(), g.total_weight());
            let mut weight_check = vec![0u64; level.graph.len()];
            let mut inputs_in = vec![0usize; level.graph.len()];
            for v in fine.vertices() {
                let c = level.map[v as usize] as usize;
                assert!(c < level.graph.len());
                weight_check[c] += fine.vweight(v);
                if fine.is_input(v) {
                    inputs_in[c] += 1;
                }
            }
            for c in level.graph.vertices() {
                assert_eq!(weight_check[c as usize], level.graph.vweight(c));
                assert!(inputs_in[c as usize] <= 1, "input globules combined");
            }
            fine = level.graph.clone();
        }
    }
}

#[test]
fn projection_preserves_partition_semantics() {
    for (g, k) in cases() {
        // ∀ v ∈ V_ij : P[v] = P[V_ij] — projecting a coarse partition must
        // give every fine vertex its globule's partition.
        let levels = coarsen(&g, &CoarsenConfig::for_k(k));
        if levels.is_empty() {
            continue;
        }
        let coarsest = &levels.last().unwrap().graph;
        let coarse_p = RandomPartitioner.partition(coarsest, k, 1);
        // Project down through every level.
        let mut p = coarse_p.clone();
        for level in levels.iter().rev() {
            let finer = p.project(&level.map);
            for (v, &c) in level.map.iter().enumerate() {
                assert_eq!(finer.assignment[v], p.assignment[c as usize]);
            }
            p = finer;
        }
        assert!(p.is_valid_for(&g));
    }
}

#[test]
fn cut_metric_is_symmetric_in_relabeling() {
    for (g, k) in cases() {
        // Swapping two partition labels cannot change the cut.
        let p = DfsPartitioner.partition(&g, k, 0);
        let cut = metrics::edge_cut(&g, &p);
        let mut swapped = p.clone();
        for v in g.vertices() {
            let x = swapped.part(v);
            let y = match x {
                0 => 1,
                1 => 0,
                other => other,
            };
            swapped.set(v, y.min(k as u32 - 1));
        }
        if k >= 2 {
            assert_eq!(metrics::edge_cut(&g, &swapped), cut);
        }
    }
}

#[test]
fn multilevel_cut_never_worse_than_random() {
    for (g, k) in cases() {
        let ml = MultilevelPartitioner.partition(&g, k, 0);
        let rnd = RandomPartitioner.partition(&g, k, 0);
        assert!(
            metrics::edge_cut(&g, &ml) <= metrics::edge_cut(&g, &rnd),
            "multilevel {} worse than random {}",
            metrics::edge_cut(&g, &ml),
            metrics::edge_cut(&g, &rnd)
        );
    }
}

#[test]
fn hyperedge_metrics_satisfy_universal_bounds() {
    // For every circuit, strategy and k the hypergraph metrics must obey
    // their defining inequalities: 0 ≤ cut_nets ≤ connectivity_cut (each
    // cut net contributes λ−1 ≥ 1), connectivity_cut ≤ edge_cut (a net
    // reaching an external part has ≥ 1 crossing pin there, and pin
    // weights are ≥ 1), connectivity_cut ≤ (k−1)·cut_nets (λ ≤ k), and
    // Σ external_degree = Σ_{cut nets} λ = connectivity_cut + cut_nets.
    for (g, k) in cases() {
        for strategy in all_partitioners() {
            let p = strategy.partition(&g, k, 11);
            let cc = metrics::connectivity_cut(&g, &p);
            let ec = metrics::edge_cut(&g, &p);
            let nets = metrics::cut_nets(&g, &p);
            assert!(nets <= cc, "{}: cut_nets {nets} > λ−1 cut {cc}", strategy.name());
            assert!(cc <= ec, "{}: λ−1 cut {cc} > edge cut {ec}", strategy.name());
            assert!(cc <= nets * (k as u64 - 1), "{}: λ exceeds k", strategy.name());
            let ext: u64 = metrics::external_degree(&g, &p).iter().sum();
            assert_eq!(ext, cc + nets, "{}: external degree identity", strategy.name());
            assert_eq!(cc == 0, nets == 0);
        }
        // λ−1 of the trivial one-part-holds-all partitioning is exactly 0.
        let solo = Partitioning::new(k, vec![0; g.len()]);
        assert_eq!(metrics::connectivity_cut(&g, &solo), 0);
        assert_eq!(metrics::cut_nets(&g, &solo), 0);
    }
}

#[test]
fn connectivity_cut_equals_edge_cut_on_fanout_one_nets() {
    // On circuits where every driver net has exactly one (unit-weight)
    // reader pin, a net touches at most two parts, so λ−1 per net equals
    // its crossing pin weight and the two cut metrics coincide for every
    // assignment. Sweep arbitrary chain forests and assignments.
    use parlogsim::partition::graph::VertexId;
    let mut s = 0x1F0C_u64;
    for _ in 0..24 {
        let n = (8 + mix(&mut s) % 120) as usize;
        let chains = 1 + (mix(&mut s) % 5) as usize;
        let k = (2 + mix(&mut s) % 6) as usize;
        // Vertex v > 0 extends the chain of vertex v - chains (stride
        // layout): every vertex drives at most one reader.
        let mut fanout: Vec<Vec<(VertexId, u64)>> = vec![Vec::new(); n];
        for v in chains..n {
            fanout[v - chains].push((v as VertexId, 1));
        }
        let mut is_input = vec![false; n];
        for i in is_input.iter_mut().take(chains.min(n)) {
            *i = true;
        }
        let g = CircuitGraph::from_parts("forest".into(), vec![1; n], fanout, is_input);
        for round in 0..4u64 {
            let asg: Vec<u32> = (0..n)
                .map(|v| {
                    let h = (v as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(round * 77 + mix(&mut s));
                    (h % k as u64) as u32
                })
                .collect();
            let p = Partitioning::new(k, asg);
            assert_eq!(metrics::connectivity_cut(&g, &p), metrics::edge_cut(&g, &p));
        }
    }
}

#[test]
fn connectivity_cut_is_monotone_under_part_merges() {
    // Merging two parts (relabel every b-vertex to a) can only remove
    // parts from each net's span: λ per net — and so the λ−1 cut, the
    // cut-net count and the edge cut — must never increase. Iterating
    // merges down to one part must reach exactly zero.
    let mut s = 0x4D45_u64;
    for (g, k) in cases() {
        let mut p = RandomPartitioner.partition(&g, k, mix(&mut s) % 64);
        let mut cc = metrics::connectivity_cut(&g, &p);
        let mut nets = metrics::cut_nets(&g, &p);
        let mut ec = metrics::edge_cut(&g, &p);
        for b in (1..k as u32).rev() {
            let a = (mix(&mut s) % b as u64) as u32; // merge b into some a < b
            for v in g.vertices() {
                if p.part(v) == b {
                    p.set(v, a);
                }
            }
            let (cc2, nets2, ec2) = (
                metrics::connectivity_cut(&g, &p),
                metrics::cut_nets(&g, &p),
                metrics::edge_cut(&g, &p),
            );
            assert!(cc2 <= cc, "λ−1 cut grew on merge: {cc} -> {cc2}");
            assert!(nets2 <= nets, "cut nets grew on merge");
            assert!(ec2 <= ec, "edge cut grew on merge");
            (cc, nets, ec) = (cc2, nets2, ec2);
        }
        assert_eq!(cc, 0, "single surviving part must have zero λ−1 cut");
        assert_eq!(nets, 0);
        assert_eq!(ec, 0);
    }
}

#[test]
fn replication_plans_never_increase_the_cut() {
    // For arbitrary circuits/partitionings and budgets, the planner's
    // post-replication cut is ≤ the plain edge cut, the estimate is the
    // exact difference, the empty plan is the identity, and no replica
    // targets its own home part or a non-replicable vertex.
    use parlogsim::partition::replicate::replicated_edge_cut;
    let mut s = 0x5EED_u64;
    for (g, k) in cases() {
        let p = RandomPartitioner.partition(&g, k, mix(&mut s) % 32);
        let base = metrics::edge_cut(&g, &p);
        assert_eq!(replicated_edge_cut(&g, &p, &ReplicaPlan::default()), base);
        for cfg in [
            ReplicationConfig::default(),
            ReplicationConfig {
                budget_per_part: 16 + mix(&mut s) % 200,
                min_fanout: 1,
                max_fanin: 5,
                gate_cost: (mix(&mut s) % 3) as i64,
                passes: 1 + (mix(&mut s) % 3) as usize,
            },
        ] {
            let plan = plan_replication(&g, &p, &cfg);
            let after = replicated_edge_cut(&g, &p, &plan);
            assert!(after <= base, "plan increased cut {base} -> {after}");
            assert_eq!(plan.est_messages_saved, base - after);
            for r in &plan.replicas {
                assert!(g.is_replicable(r.gate));
                assert_ne!(p.part(r.gate), r.part, "replica in its home part");
                assert!((r.part as usize) < k);
            }
        }
    }
}
