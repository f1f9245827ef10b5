//! Cross-strategy integration tests: every registered partitioner against
//! the metric invariants that define a well-formed partitioning, plus the
//! paper's central quality claim (multilevel beats random on edge cut) on
//! both a real ISCAS'89 circuit and a synthetic one.

use pls_netlist::data::s27;
use pls_netlist::IscasSynth;
use pls_partition::multilevel::refine::RefineStats;
use pls_partition::{
    all_partitioners, metrics, partitioner_by_name, partitioner_names, plan_replication,
    CircuitGraph, MultilevelPartitioner, Partitioner, Partitioning, RandomPartitioner,
    ReplicationConfig,
};

fn graphs() -> Vec<(&'static str, CircuitGraph)> {
    vec![
        ("s27", CircuitGraph::from_netlist(&s27())),
        ("synth300", CircuitGraph::from_netlist(&IscasSynth::small(300, 7).build())),
    ]
}

#[test]
fn every_strategy_produces_a_complete_assignment() {
    for (name, g) in graphs() {
        for part in all_partitioners() {
            for k in [2, 4] {
                let p = part.partition(&g, k, 0);
                assert_eq!(p.k, k, "{}/{name}: wrong k", part.name());
                assert_eq!(
                    p.assignment.len(),
                    g.len(),
                    "{}/{name}: assignment must cover every vertex",
                    part.name()
                );
                assert!(
                    p.assignment.iter().all(|&a| (a as usize) < k),
                    "{}/{name}: part id out of range",
                    part.name()
                );
            }
        }
    }
}

#[test]
fn single_part_has_zero_cut_and_unit_imbalance() {
    for (name, g) in graphs() {
        let p = Partitioning::new(1, vec![0; g.len()]);
        let q = metrics::quality(&g, &p);
        assert_eq!(q.edge_cut, 0, "{name}: one part cannot cut any edge");
        assert!((q.imbalance - 1.0).abs() < 1e-9, "{name}: one part is perfectly balanced");
    }
}

#[test]
fn imbalance_is_bounded_by_k_and_at_least_one() {
    // max_load / avg_load lies in [1, k] for any partitioning that uses at
    // least one part (the heaviest part carries at most the whole circuit).
    for (name, g) in graphs() {
        for part in all_partitioners() {
            for k in [2, 4, 8] {
                let p = part.partition(&g, k, 1);
                let im = metrics::imbalance(&g, &p);
                assert!(
                    im >= 1.0 - 1e-9 && im <= k as f64 + 1e-9,
                    "{}/{name}: imbalance {im} outside [1, {k}]",
                    part.name()
                );
            }
        }
    }
}

#[test]
fn quality_report_is_consistent_with_individual_metrics() {
    for (name, g) in graphs() {
        for part in all_partitioners() {
            let p = part.partition(&g, 4, 2);
            let q = metrics::quality(&g, &p);
            assert_eq!(q.edge_cut, metrics::edge_cut(&g, &p), "{}/{name}", part.name());
            assert_eq!(q.imbalance, metrics::imbalance(&g, &p), "{}/{name}", part.name());
            assert_eq!(
                q.concurrency.is_some(),
                g.has_levels(),
                "{}/{name}: concurrency present iff levels are",
                part.name()
            );
        }
    }
}

#[test]
fn multilevel_beats_random_on_edge_cut() {
    // The paper's core claim, in miniature: the multilevel heuristic cuts
    // fewer edges than a random assignment at comparable balance.
    for (name, g) in graphs() {
        let ml = MultilevelPartitioner::default().partition(&g, 4, 0);
        let ml_q = metrics::quality(&g, &ml);
        // Average random over a few seeds so one lucky draw can't pass.
        let mut rnd_cut = 0u64;
        let seeds = [0u64, 1, 2, 3, 4];
        for &s in &seeds {
            let r = RandomPartitioner.partition(&g, 4, s);
            rnd_cut += metrics::edge_cut(&g, &r);
        }
        let rnd_avg = rnd_cut as f64 / seeds.len() as f64;
        assert!(
            (ml_q.edge_cut as f64) < rnd_avg,
            "{name}: multilevel cut {} not below random average {rnd_avg}",
            ml_q.edge_cut
        );
        assert!(ml_q.imbalance < 1.5, "{name}: multilevel imbalance {} too high", ml_q.imbalance);
    }
}

#[test]
fn registry_round_trips_every_name() {
    for name in partitioner_names() {
        let p = partitioner_by_name(name).expect("registered name must resolve");
        assert_eq!(p.name(), name);
        // Lookup is case-insensitive (the CLI lowercases user input).
        assert!(partitioner_by_name(&name.to_lowercase()).is_some());
        assert!(partitioner_by_name(&name.to_uppercase()).is_some());
    }
    assert!(partitioner_by_name("no-such-strategy").is_none());
}

/// FNV-1a over the little-endian bytes of an assignment.
fn fnv1a(assignment: &[u32]) -> u64 {
    assignment
        .iter()
        .flat_map(|a| a.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn multilevel_output_is_pinned() {
    // The multilevel pipeline's whole output on two paper circuits, as
    // literals: a speed-up of coarsening or refinement must leave every
    // level, every move count and the final assignment exactly as they
    // are. Each stats row is `(cut_before, cut_after, moves, iters)`,
    // coarsest level first.
    type Row = (u64, u64, usize, usize);
    type Case = (IscasSynth, usize, u64, &'static [usize], &'static [Row]);
    let cases: [Case; 3] = [
        (
            IscasSynth::s9234(),
            2,
            0x9cbb_4f8b_47bc_19d5,
            &[5844, 2759, 1216, 585, 396, 298, 276, 250, 233, 220, 216, 210, 209, 203, 202],
            &[
                (2915, 2838, 44, 2),
                (2838, 2838, 0, 1),
                (2838, 2838, 0, 1),
                (2838, 2838, 0, 1),
                (2838, 2743, 33, 2),
                (2743, 2743, 0, 1),
                (2743, 2736, 5, 2),
                (2736, 2674, 24, 3),
                (2674, 2641, 9, 2),
                (2641, 2641, 0, 1),
                (2641, 2451, 66, 4),
                (2451, 2213, 75, 5),
                (2213, 1669, 171, 7),
                (1669, 1219, 210, 5),
                (1219, 878, 244, 4),
            ],
        ),
        (
            IscasSynth::s9234(),
            8,
            0x73d3_a6a7_09fe_58a0,
            &[5844, 2759, 1234, 598, 376, 296, 257, 225, 209, 181, 174, 166, 160, 159],
            &[
                (5116, 4998, 91, 3),
                (4998, 4998, 1, 2),
                (4998, 4986, 4, 2),
                (4986, 4982, 4, 2),
                (4982, 4975, 3, 2),
                (4975, 4960, 19, 3),
                (4960, 4957, 4, 3),
                (4957, 4916, 27, 5),
                (4916, 4855, 30, 3),
                (4855, 4641, 119, 8),
                (4641, 4347, 185, 6),
                (4347, 3991, 314, 7),
                (3991, 3737, 304, 8),
                (3737, 3570, 254, 5),
            ],
        ),
        (
            IscasSynth::s15850(),
            8,
            0x291d_ac2c_ea1d_4a45,
            &[10994, 5260, 2388, 1161, 767, 621, 523, 487, 460, 442, 419, 390, 381],
            &[
                (9534, 9270, 203, 4),
                (9270, 9262, 11, 3),
                (9262, 9250, 19, 2),
                (9250, 9245, 7, 2),
                (9245, 9239, 4, 2),
                (9239, 9169, 64, 4),
                (9169, 9150, 30, 4),
                (9150, 8868, 155, 6),
                (8868, 8273, 305, 7),
                (8273, 7413, 511, 8),
                (7413, 6787, 473, 7),
                (6787, 6285, 536, 7),
                (6285, 5985, 386, 4),
            ],
        ),
    ];
    for (circuit, k, hash, level_sizes, rows) in cases {
        let g = CircuitGraph::from_netlist(&circuit.build());
        let rep = MultilevelPartitioner::default().partition_with_report(&g, k, 7);
        let what = format!("{} k={k}", g.name());
        let stats: Vec<RefineStats> = rows
            .iter()
            .map(|&(cut_before, cut_after, moves, iters)| RefineStats {
                cut_before,
                cut_after,
                moves,
                iters,
            })
            .collect();
        assert_eq!(rep.level_sizes, level_sizes, "level sizes: {what}");
        assert_eq!(rep.refine_stats, stats, "refine stats: {what}");
        assert_eq!(fnv1a(&rep.partitioning.assignment), hash, "assignment hash: {what}");
    }
}

/// FNV-1a folded over a byte stream.
fn fnv1a_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a over everything a netlist exposes: every gate's name, kind,
/// fanin in pin order and fanout in order (each list length-prefixed),
/// then the input, output and DFF lists.
fn netlist_hash(n: &pls_netlist::Netlist) -> u64 {
    let ids = |h: u64, list: &[u32]| {
        let h = fnv1a_bytes(h, &(list.len() as u32).to_le_bytes());
        list.iter().fold(h, |h, id| fnv1a_bytes(h, &id.to_le_bytes()))
    };
    let mut h = fnv1a_bytes(0xcbf2_9ce4_8422_2325, &(n.len() as u32).to_le_bytes());
    for id in n.ids() {
        let g = n.gate(id);
        h = fnv1a_bytes(h, g.name.as_bytes());
        h = fnv1a_bytes(h, &[0xff, g.kind as u8]);
        h = ids(h, n.fanin(id));
        h = ids(h, n.fanout(id));
    }
    ids(ids(ids(h, n.inputs()), n.outputs()), n.dffs())
}

/// ~20 k gates with the interface ratios of the benchmark's 100 k-gate
/// front-end workload.
fn synth20k() -> IscasSynth {
    let gates = 20_000;
    IscasSynth::new("synth20k", gates / 150, gates, gates / 70)
}

#[test]
fn front_end_output_is_pinned() {
    // The netlists the generator builds and `parse(write(..))` returns,
    // and the replica plan at k = 8 (Multilevel, seed 0), as literals: a
    // rewrite of the netlist storage, the `.bench` parser or the
    // replication planner must leave every name, pin, fanout order, list
    // and replica as it is. Each case is (circuit, netlist hash of both
    // netlists, plan hash, replicas, est_messages_saved).
    type Case = (IscasSynth, u64, u64, usize, u64);
    let cases: [Case; 3] = [
        (IscasSynth::s9234(), 0x94d4_828d_c94a_ab90, 0xf21b_44b0_728d_714c, 24, 103),
        (IscasSynth::s15850(), 0xbb36_b3b3_d3d8_f81c, 0x8b74_3e7c_c6d2_8076, 42, 220),
        (synth20k(), 0x9d47_8de2_d760_9946, 0xb467_c546_ff19_cb5d, 68, 498),
    ];
    for (circuit, netlist_pin, plan_pin, replicas, saved) in cases {
        let built = circuit.build();
        let what = built.name().to_string();
        assert_eq!(netlist_hash(&built), netlist_pin, "generated netlist: {what}");
        let text = pls_netlist::bench_format::write(&built);
        let parsed = pls_netlist::bench_format::parse(built.name(), &text).expect("round trip");
        assert_eq!(netlist_hash(&parsed), netlist_pin, "parsed netlist: {what}");
        let g = CircuitGraph::from_netlist(&parsed);
        let p = MultilevelPartitioner::default().partition(&g, 8, 0);
        let plan = plan_replication(&g, &p, &ReplicationConfig::default());
        let flat: Vec<u32> = plan.pairs().into_iter().flat_map(|(g, q)| [g, q]).collect();
        assert_eq!(fnv1a(&flat), plan_pin, "replica plan: {what}");
        assert_eq!(plan.len(), replicas, "replicas: {what}");
        assert_eq!(plan.est_messages_saved, saved, "est_messages_saved: {what}");
    }
}
