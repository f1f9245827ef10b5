//! Workspace-level integration tests: the full netlist → partition →
//! Time Warp pipeline, exercised the way the experiment harness uses it.

use parlogsim::prelude::*;

#[test]
fn paper_suite_has_table1_characteristics() {
    let expect = [("s5378", 35, 2779, 49), ("s9234", 36, 5597, 39), ("s15850", 77, 10383, 150)];
    for (synth, (name, ins, gates, outs)) in IscasSynth::paper_suite().iter().zip(expect) {
        let netlist = synth.build();
        let s = CircuitStats::of(&netlist);
        assert_eq!(s.name, name);
        assert_eq!((s.inputs, s.gates, s.outputs), (ins, gates, outs));
    }
}

#[test]
fn all_strategies_all_nodes_match_sequential_on_s27() {
    let netlist = parlogsim::netlist::data::s27();
    let graph = CircuitGraph::from_netlist(&netlist);
    let base = SimConfig { end_time: 500, ..Default::default() };
    for exec in [ExecModel::GatePerLp, ExecModel::CompiledBlocks(CompileOptions::default())] {
        let mut cfg = base.clone();
        cfg.exec = exec;
        for strategy in all_partitioners() {
            for nodes in [1, 2, 3, 4] {
                Cell::new(&netlist, &graph, &cfg).nodes(nodes).checked().run(strategy.as_ref());
            }
        }
    }
}

#[test]
fn medium_synthetic_circuit_full_pipeline() {
    let netlist = IscasSynth::small(600, 17).build();
    let graph = CircuitGraph::from_netlist(&netlist);
    let cfg = SimConfig { end_time: 150, ..Default::default() };
    let seq = run_seq_baseline(&netlist, &cfg);
    assert!(seq.events > 1000, "workload too idle to be meaningful");

    for strategy in all_partitioners() {
        let m = Cell::new(&netlist, &graph, &cfg).nodes(6).seed(1).checked().run(strategy.as_ref());
        assert_eq!(m.stats.events_committed, seq.events, "{}", m.strategy);
        assert!(m.exec_time_s > 0.0);
    }
}

#[test]
fn multilevel_dominates_on_communication() {
    // The paper's Figure 5 claim, as a regression test: multilevel sends
    // at most half the messages of Random and Topological at 8 nodes.
    let netlist = IscasSynth::small(800, 5).build();
    let graph = CircuitGraph::from_netlist(&netlist);
    let cfg = SimConfig { end_time: 150, ..Default::default() };
    let ml = Cell::new(&netlist, &graph, &cfg).nodes(8).run(&MultilevelPartitioner::default());
    let rnd = Cell::new(&netlist, &graph, &cfg).nodes(8).run(&RandomPartitioner);
    let topo = Cell::new(&netlist, &graph, &cfg).nodes(8).run(&TopologicalPartitioner);
    assert!(
        ml.stats.app_messages * 2 < rnd.stats.app_messages,
        "ml {} vs random {}",
        ml.stats.app_messages,
        rnd.stats.app_messages
    );
    assert!(
        ml.stats.app_messages * 2 < topo.stats.app_messages,
        "ml {} vs topo {}",
        ml.stats.app_messages,
        topo.stats.app_messages
    );
}

#[test]
fn lazy_and_sparse_checkpoints_preserve_committed_history() {
    let netlist = IscasSynth::small(300, 9).build();
    let graph = CircuitGraph::from_netlist(&netlist);
    let part = MultilevelPartitioner::default().partition(&graph, 4, 0);

    let base_cfg = SimConfig { end_time: 150, ..Default::default() };
    let seq = run_seq_baseline(&netlist, &base_cfg);

    let kernels = [
        KernelConfig { cancellation: Cancellation::Lazy, ..Default::default() },
        KernelConfig { checkpoint_interval: 5, ..Default::default() },
        KernelConfig {
            cancellation: Cancellation::Lazy,
            checkpoint_interval: 3,
            gvt_period: 64,
            ..Default::default()
        },
        KernelConfig { checkpoint_interval: 4, ..Default::default() },
        KernelConfig {
            cancellation: Cancellation::Lazy,
            checkpoint_interval: 4,
            ..Default::default()
        },
    ];
    // Gate per LP, and one compiled block per part: the same kernel paths
    // over copied and over journaled checkpoints.
    for exec in [ExecModel::GatePerLp, ExecModel::CompiledBlocks(CompileOptions::default())] {
        let mut cfg = base_cfg.clone();
        cfg.exec = exec;
        let app = cfg.build_app_partitioned(&netlist, &graph, &part);
        let assignment = app.lp_assignment(&part.assignment);
        for kernel in kernels {
            for (executive, backend) in [
                ("platform", Backend::Platform { assignment: &assignment, nodes: 4 }),
                ("threaded", Backend::Threaded { assignment: &assignment, clusters: 4 }),
            ] {
                let res = Simulator::new(&app).config(kernel).run(backend).unwrap();
                assert_eq!(
                    app.fingerprint(&res.states),
                    seq.fingerprint,
                    "{} on the {executive} executive under {kernel:?} diverged",
                    app.exec_name()
                );
            }
        }
    }
}

#[test]
fn threaded_executive_matches_sequential_gate_sim() {
    let netlist = IscasSynth::small(150, 4).build();
    let graph = CircuitGraph::from_netlist(&netlist);
    let cfg = SimConfig { end_time: 100, ..Default::default() };
    let app = cfg.build_app(&netlist);
    let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
    let part = MultilevelPartitioner::default().partition(&graph, 2, 0);
    let res = Simulator::new(&app)
        .run(Backend::Threaded { assignment: &part.assignment, clusters: 2 })
        .unwrap();
    assert_eq!(app.fingerprint(&res.states), app.fingerprint(&seq.states));
    assert_eq!(res.stats.events_committed, seq.stats.events_processed);
}

#[test]
fn bench_format_round_trips_generated_circuits() {
    for seed in [1u64, 2, 3] {
        let n1 = IscasSynth::small(200, seed).build();
        let text = parlogsim::netlist::bench_format::write(&n1);
        let n2 = parlogsim::netlist::bench_format::parse(n1.name(), &text).unwrap();
        assert_eq!(n1.len(), n2.len());
        assert_eq!(n1.outputs().len(), n2.outputs().len());
        // Same simulation behaviour, not just same shape.
        let cfg = SimConfig { end_time: 80, ..Default::default() };
        let a = run_seq_baseline(&n1, &cfg);
        let b = run_seq_baseline(&n2, &cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fingerprint, b.fingerprint);
    }
}

/// One seeded mutation of `.bench` text: one to four of a bit flip, a
/// truncation, a deleted or duplicated line, a run of digits, a stray
/// delimiter, a swapped gate kind or a non-ASCII character.
fn mutate_bench(text: &str, s: &mut u64) -> String {
    fn mix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut t = text.to_string();
    for _ in 0..1 + mix(s) % 4 {
        let mut at = (mix(s) % (t.len() as u64 + 1)) as usize;
        while !t.is_char_boundary(at) {
            at -= 1;
        }
        let line_start = t[..at].rfind('\n').map_or(0, |i| i + 1);
        let line_end = t[at..].find('\n').map_or(t.len(), |i| at + i + 1);
        match mix(s) % 8 {
            0 => {
                let mut b = t.into_bytes();
                if let Some(byte) = b.get_mut(at) {
                    *byte ^= 1 << (mix(s) % 7);
                }
                t = String::from_utf8_lossy(&b).into_owned();
            }
            1 => t.truncate(at),
            2 => t.replace_range(line_start..line_end, ""),
            3 => {
                let line = t[line_start..line_end].to_string();
                t.insert_str(line_start, &line);
            }
            4 => {
                let run: String =
                    (0..1 + mix(s) % 12).map(|_| char::from(b'0' + (mix(s) % 10) as u8)).collect();
                t.insert_str(at, &run);
            }
            5 => t.insert_str(at, ["(", ")", ",", "=", " = ", "#", "\n"][(mix(s) % 7) as usize]),
            6 => {
                const KINDS: [&str; 8] = ["AND", "NAND", "OR", "NOR", "NOT", "DFF", "XOR", "BUFF"];
                if let Some(k) = KINDS.iter().find(|k| t[line_start..line_end].contains(**k)) {
                    let line = t[line_start..line_end].replacen(k, KINDS[(mix(s) % 8) as usize], 1);
                    t.replace_range(line_start..line_end, &line);
                }
            }
            _ => t.insert(at, 'µ'),
        }
    }
    t
}

/// `.bench` parsing fails typed, never panics: every seeded mutation of
/// real netlist text is a `NetlistError` or a netlist whose written text
/// parses back to itself.
#[test]
fn mutated_bench_text_is_rejected_or_round_trips() {
    use parlogsim::netlist::bench_format::{parse, write};
    let mut bases: Vec<String> = [
        parlogsim::netlist::data::s27(),
        parlogsim::netlist::data::c17(),
        IscasSynth::small(60, 5).build(),
    ]
    .iter()
    .map(write)
    .collect();
    // The same text with Windows line endings.
    bases.push(bases[0].replace('\n', "\r\n"));
    let mut s = 17u64;
    let (mut rejected, mut parsed) = (0, 0);
    for i in 0..3000 {
        let text = mutate_bench(&bases[i % bases.len()], &mut s);
        match parse("fuzz", &text) {
            Err(e) => {
                assert!(!e.to_string().is_empty());
                rejected += 1;
            }
            Ok(n) => {
                let written = write(&n);
                let again = parse("fuzz", &written).unwrap_or_else(|e| {
                    panic!("written netlist does not parse back: {e}\n{written}")
                });
                assert_eq!(write(&again), written, "round trip changed the netlist of:\n{text}");
                parsed += 1;
            }
        }
    }
    assert!(rejected > 1000 && parsed > 100, "{rejected} rejected, {parsed} parsed");
}

#[test]
fn memory_limit_kills_memory_hungry_runs_only() {
    let netlist = IscasSynth::small(300, 12).build();
    let graph = CircuitGraph::from_netlist(&netlist);
    let mut cfg = SimConfig { end_time: 150, ..Default::default() };
    cfg.platform.kernel.gvt_period = 16;

    // Generous limit: must survive.
    cfg.platform.state_limit_per_node = Some(1_000_000);
    let ok = Cell::new(&netlist, &graph, &cfg).nodes(4).run(&RandomPartitioner);
    assert!(!ok.out_of_memory);

    // Starvation limit: must die cleanly.
    cfg.platform.state_limit_per_node = Some(10);
    let dead = Cell::new(&netlist, &graph, &cfg).nodes(4).run(&RandomPartitioner);
    assert!(dead.out_of_memory);
}
