//! Property-style tests over the Time Warp kernel: the committed history
//! of the optimistic virtual-platform executive must equal the sequential
//! history for *arbitrary* circuits, partitionings, node counts and
//! kernel configurations — the fundamental correctness theorem of Time
//! Warp [10], checked empirically over a deterministic case sweep. Also:
//! cost/latency fuzzing must never change committed results (only
//! timings), the determinism oracle for the platform model itself.

use parlogsim::prelude::*;

/// splitmix64 — drives the case sweeps deterministically.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn arbitrary_assignment(n: usize, nodes: usize, seed: u64) -> Vec<u32> {
    // Deterministic pseudo-random assignment touching every node.
    (0..n)
        .map(|i| {
            let h =
                (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed).rotate_left(21);
            (h % nodes as u64) as u32
        })
        .collect()
}

#[test]
fn committed_history_is_kernel_independent() {
    let mut s = 10u64;
    for _ in 0..24 {
        let gates = (30 + mix(&mut s) % 170) as usize;
        let circuit_seed = mix(&mut s) % 500;
        let nodes = (2 + mix(&mut s) % 5) as usize;
        let assign_seed = mix(&mut s) % 100;
        let lazy = mix(&mut s).is_multiple_of(2);
        let checkpoint = (1 + mix(&mut s) % 5) as u32;

        let netlist = IscasSynth::small(gates, circuit_seed).build();
        let cfg = SimConfig { end_time: 80, ..Default::default() };
        let app = cfg.build_app(&netlist);
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();

        let mut platform = cfg.platform;
        platform.kernel.cancellation =
            if lazy { Cancellation::Lazy } else { Cancellation::Aggressive };
        platform.kernel.checkpoint_interval = checkpoint;
        let assignment = arbitrary_assignment(netlist.len(), nodes, assign_seed);
        let res = Simulator::new(&app)
            .platform_config(&platform)
            .run(Backend::Platform { assignment: &assignment, nodes })
            .unwrap();

        assert_eq!(app.fingerprint(&res.states), app.fingerprint(&seq.states));
        assert_eq!(res.stats.events_committed, seq.stats.events_processed);
    }
}

#[test]
fn cost_model_fuzzing_changes_time_not_results() {
    let netlist = IscasSynth::small(80, 11).build();
    let cfg = SimConfig { end_time: 60, ..Default::default() };
    let app = cfg.build_app(&netlist);
    let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();

    let mut s = 20u64;
    for _ in 0..24 {
        let ev = 1_000 + mix(&mut s) % 299_000;
        let lat = 1_000 + mix(&mut s) % 499_000;
        let send = 1_000 + mix(&mut s) % 149_000;
        let gvt_period = 8 + mix(&mut s) % 1992;

        let mut platform = cfg.platform;
        platform.cost = CostModel {
            event_exec_ns: ev,
            net_latency_ns: lat,
            msg_send_ns: send,
            msg_recv_ns: send,
            ..CostModel::default()
        };
        platform.kernel.gvt_period = gvt_period;
        let assignment = arbitrary_assignment(netlist.len(), 4, 3);
        let res = Simulator::new(&app)
            .platform_config(&platform)
            .run(Backend::Platform { assignment: &assignment, nodes: 4 })
            .unwrap();

        // Message timing reshuffles rollback patterns freely, but the
        // committed history is invariant.
        assert_eq!(app.fingerprint(&res.states), app.fingerprint(&seq.states));
    }
}

#[test]
fn platform_statistics_are_consistent() {
    let mut s = 30u64;
    for _ in 0..24 {
        let gates = (30 + mix(&mut s) % 120) as usize;
        let circuit_seed = mix(&mut s) % 200;
        let nodes = (1 + mix(&mut s) % 5) as usize;

        let netlist = IscasSynth::small(gates, circuit_seed).build();
        let cfg = SimConfig { end_time: 80, ..Default::default() };
        let app = cfg.build_app(&netlist);
        let assignment = arbitrary_assignment(netlist.len(), nodes, 1);
        let res = Simulator::new(&app)
            .platform_config(&cfg.platform)
            .run(Backend::Platform { assignment: &assignment, nodes })
            .unwrap();
        let st = &res.stats;

        // Accounting identities.
        assert_eq!(st.events_committed, st.events_processed - st.events_rolled_back);
        assert!(st.events_committed <= st.events_processed);
        assert!(st.final_gvt.is_inf());
        if nodes == 1 {
            assert_eq!(st.rollbacks(), 0);
            assert_eq!(st.app_messages, 0);
        }
        // Makespan at least the busiest node's share of pure event work.
        let clocks = res.outcome.node_clocks_ns().expect("platform outcome");
        let max_clock = clocks.iter().copied().max().unwrap_or(0);
        let exec_time_s = res.outcome.exec_time_s().expect("platform outcome");
        assert!(exec_time_s >= max_clock as f64 / 1e9 - 1e-9);
    }
}

#[test]
fn lazy_sparse_checkpoints_agree_across_all_three_executives() {
    // The adversarial corner for the kernel's annihilation index and lazy
    // regeneration filter: lazy cancellation holds antis back, and sparse
    // checkpoints force long coast-forwards whose replayed sends must hit
    // the regeneration scan. All three executives must still commit the
    // sequential history bit-for-bit.
    let mut s = 50u64;
    for _ in 0..8 {
        let gates = (40 + mix(&mut s) % 140) as usize;
        let circuit_seed = mix(&mut s) % 400;
        let nodes = (2 + mix(&mut s) % 4) as usize;
        let checkpoint = (3 + mix(&mut s) % 4) as u32; // sparse: 3..=6

        let netlist = IscasSynth::small(gates, circuit_seed).build();
        let cfg = SimConfig { end_time: 80, ..Default::default() };
        let app = cfg.build_app(&netlist);
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let want = app.fingerprint(&seq.states);

        let mut platform = cfg.platform;
        platform.kernel.cancellation = Cancellation::Lazy;
        platform.kernel.checkpoint_interval = checkpoint;
        let assignment = arbitrary_assignment(netlist.len(), nodes, circuit_seed);
        let plat = Simulator::new(&app)
            .platform_config(&platform)
            .run(Backend::Platform { assignment: &assignment, nodes })
            .unwrap();
        assert_eq!(app.fingerprint(&plat.states), want, "platform diverged");

        let thr = Simulator::new(&app)
            .config(platform.kernel)
            .run(Backend::Threaded { assignment: &assignment, clusters: nodes })
            .unwrap();
        assert_eq!(app.fingerprint(&thr.states), want, "threaded diverged");
        assert_eq!(thr.stats.events_committed, seq.stats.events_processed);
    }
}

#[test]
fn compiled_blocks_match_gate_per_lp_for_arbitrary_circuits() {
    // The cross-engine determinism theorem: for arbitrary circuits and
    // arbitrary block maps, the compiled gate-block engine commits the
    // same per-gate history as the gate-per-LP oracle — sequentially and
    // on the optimistic platform executive.
    let mut s = 70u64;
    for _ in 0..16 {
        let gates = (30 + mix(&mut s) % 170) as usize;
        let circuit_seed = mix(&mut s) % 500;
        let nodes = (2 + mix(&mut s) % 5) as usize;
        let block_seed = mix(&mut s) % 100;

        let netlist = IscasSynth::small(gates, circuit_seed).build();
        let cfg = SimConfig { end_time: 80, ..Default::default() };
        let gate = cfg.build_app(&netlist);
        let want =
            gate.fingerprint(&Simulator::new(&gate).run(Backend::Sequential).unwrap().states);

        // Arbitrary (partition-agnostic) block map: blocks need not align
        // with the placement at all.
        let blocks = arbitrary_assignment(netlist.len(), nodes, block_seed);
        let mut ccfg = cfg.clone();
        ccfg.exec = ExecModel::CompiledBlocks(CompileOptions { blocks: Some(blocks.clone()) });
        let compiled = ccfg.build_app(&netlist);

        let seq = Simulator::new(&compiled).run(Backend::Sequential).unwrap();
        assert_eq!(compiled.fingerprint(&seq.states), want, "sequential compiled diverged");

        let assignment = compiled.lp_assignment(&arbitrary_assignment(netlist.len(), nodes, 7));
        let plat = Simulator::new(&compiled)
            .platform_config(&cfg.platform)
            .run(Backend::Platform { assignment: &assignment, nodes })
            .unwrap();
        assert_eq!(compiled.fingerprint(&plat.states), want, "platform compiled diverged");
        assert_eq!(plat.stats.events_committed, seq.stats.events_processed);
        assert!(plat.stats.ops_executed >= seq.stats.ops_executed);
    }
}

#[test]
fn compiled_blocks_survive_rollback_and_coast_forward_storms() {
    // Rollback-path stress for the compiled engine: kernel configs chosen
    // to maximise rollback machinery coverage — lazy cancellation (block
    // re-execution must regenerate byte-identical boundary messages for
    // the regeneration filter to be sound), sparse checkpoints (rollbacks
    // land between snapshots, forcing coast-forward replay of whole block
    // activations), and a tiny GVT period with a tight optimism window
    // (fossil collection constantly trims the state queue the replays
    // read from). Committed per-gate fingerprints must still match the
    // sequential oracle on both optimistic executives.
    let netlist = IscasSynth::small(180, 11).build();
    let cfg = SimConfig { end_time: 120, ..Default::default() };
    let gate = cfg.build_app(&netlist);
    let want = gate.fingerprint(&Simulator::new(&gate).run(Backend::Sequential).unwrap().states);

    let nodes = 3;
    let blocks = arbitrary_assignment(netlist.len(), nodes, 23);
    let mut ccfg = cfg.clone();
    ccfg.exec = ExecModel::CompiledBlocks(CompileOptions { blocks: Some(blocks) });
    let compiled = ccfg.build_app(&netlist);
    let assignment = compiled.lp_assignment(&arbitrary_assignment(netlist.len(), nodes, 5));

    let mut coasted = 0;
    let mut rolled = 0;
    for (cancellation, checkpoint, gvt, window) in [
        (Cancellation::Lazy, 4, 2, Some(2)),
        (Cancellation::Lazy, 5, 512, None),
        (Cancellation::Aggressive, 4, 2, Some(2)),
        (Cancellation::Aggressive, 3, 4, None),
        // A window of `u64::MAX` must saturate at infinity, not wrap to a
        // horizon in the past.
        (Cancellation::Lazy, 4, 2, Some(u64::MAX)),
        (Cancellation::Aggressive, 4, 2, Some(u64::MAX)),
    ] {
        let kernel =
            KernelConfig { cancellation, checkpoint_interval: checkpoint, gvt_period: gvt, window };
        let plat = Simulator::new(&compiled)
            .config(kernel)
            .run(Backend::Platform { assignment: &assignment, nodes })
            .unwrap();
        assert_eq!(
            compiled.fingerprint(&plat.states),
            want,
            "compiled diverged under {cancellation:?}/ckpt{checkpoint}/gvt{gvt}/{window:?}"
        );
        coasted += plat.stats.events_coasted;
        rolled += plat.stats.events_rolled_back;

        let thr = Simulator::new(&compiled)
            .config(kernel)
            .run(Backend::Threaded { assignment: &assignment, clusters: nodes })
            .unwrap();
        assert_eq!(
            compiled.fingerprint(&thr.states),
            want,
            "threaded compiled diverged under {cancellation:?}/ckpt{checkpoint}/gvt{gvt}/{window:?}"
        );
    }
    // The sweep must actually exercise the machinery it claims to stress.
    assert!(rolled > 0, "no rollbacks — configs too tame to prove anything");
    assert!(coasted > 0, "no coast-forward replays — sparse checkpoints unexercised");
}

#[test]
fn replication_is_coherent_across_all_three_executives() {
    // Logic replication must be semantically invisible: for arbitrary
    // circuits, partitionings and (aggressive) replica plans, committed
    // per-gate fingerprints of the replicated model — in gate-per-LP AND
    // compiled-block mode, on all three executives — must be
    // byte-identical to the *unreplicated* sequential oracle's. Replicas
    // only relocate evaluations; they never change the waveform.
    let mut s = 90u64;
    let mut total_saved = 0u64;
    let mut total_replicas = 0u64;
    for _ in 0..10 {
        let gates = (40 + mix(&mut s) % 140) as usize;
        let circuit_seed = mix(&mut s) % 400;
        let nodes = (2 + mix(&mut s) % 3) as usize;

        let netlist = IscasSynth::small(gates, circuit_seed).build();
        let graph = CircuitGraph::from_netlist(&netlist);
        // Random placements leave plenty of cut hub nets for the planner.
        let part = RandomPartitioner.partition(&graph, nodes, circuit_seed);
        let cfg = SimConfig { end_time: 80, ..Default::default() };
        let oracle = cfg.build_app(&netlist);
        let want =
            oracle.fingerprint(&Simulator::new(&oracle).run(Backend::Sequential).unwrap().states);

        // Aggressive plan: replicate every profitable gate, free replicas.
        let mut rcfg = cfg.clone();
        rcfg.replication = Some(ReplicationConfig {
            budget_per_part: 96,
            min_fanout: 1,
            max_fanin: 5,
            gate_cost: 0,
            passes: 3,
        });
        let app = rcfg.build_app_partitioned(&netlist, &graph, &part);
        total_replicas += app.replicated_units();

        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        assert_eq!(app.fingerprint(&seq.states), want, "sequential replicated diverged");

        // Rollback storm: lazy cancellation + sparse checkpoints + tiny
        // GVT period, replica LPs placed via the pin-aware lp_assignment.
        let kernel = KernelConfig {
            cancellation: Cancellation::Lazy,
            checkpoint_interval: (3 + mix(&mut s) % 4) as u32,
            gvt_period: 8,
            ..Default::default()
        };
        let assignment = app.lp_assignment(&part.assignment);
        let plat = Simulator::new(&app)
            .config(kernel)
            .run(Backend::Platform { assignment: &assignment, nodes })
            .unwrap();
        assert_eq!(app.fingerprint(&plat.states), want, "platform replicated diverged");
        assert_eq!(plat.stats.replicated_gates, app.replicated_units());
        total_saved += plat.stats.messages_saved;

        let thr = Simulator::new(&app)
            .config(kernel)
            .run(Backend::Threaded { assignment: &assignment, clusters: nodes })
            .unwrap();
        assert_eq!(app.fingerprint(&thr.states), want, "threaded replicated diverged");

        // Compiled-block mode with the same plan: blocks derive from the
        // partitioning, replicas fuse into their target blocks.
        let mut ccfg = rcfg.clone();
        ccfg.exec = ExecModel::CompiledBlocks(CompileOptions::default());
        let fused = ccfg.build_app_partitioned(&netlist, &graph, &part);
        let cseq = Simulator::new(&fused).run(Backend::Sequential).unwrap();
        assert_eq!(fused.fingerprint(&cseq.states), want, "compiled replicated diverged");
        let cassign = fused.lp_assignment(&part.assignment);
        let cplat = Simulator::new(&fused)
            .config(kernel)
            .run(Backend::Platform { assignment: &cassign, nodes })
            .unwrap();
        assert_eq!(fused.fingerprint(&cplat.states), want, "compiled platform replicated diverged");
    }
    // The sweep must actually replicate and actually kill remote traffic,
    // or coherence was proven for the empty plan only.
    assert!(total_replicas > 0, "no round produced a replica plan");
    assert!(total_saved > 0, "replication never saved a message");
}

#[test]
fn stimulus_seed_changes_history_but_not_event_conservation() {
    let mut s = 40u64;
    for _ in 0..24 {
        let seed_a = mix(&mut s) % 100;
        let seed_b = 100 + mix(&mut s) % 100;
        let netlist = IscasSynth::small(100, 5).build();
        let mut cfg = SimConfig { end_time: 80, ..Default::default() };
        cfg.stim = StimulusConfig { seed: seed_a, ..cfg.stim };
        let a = run_seq_baseline(&netlist, &cfg);
        cfg.stim = StimulusConfig { seed: seed_b, ..cfg.stim };
        let b = run_seq_baseline(&netlist, &cfg);
        // Different stimulus: different histories...
        assert_ne!(a.fingerprint, b.fingerprint);
        // ...but both runs commit everything they process (sequential).
        assert!(a.events > 0 && b.events > 0);
    }
}
