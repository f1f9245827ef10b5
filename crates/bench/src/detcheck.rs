//! Determinism fingerprint: run PHOLD and the gate-level simulator on all
//! three executives and print every deterministic observable (stats
//! field-by-field, final states / trace hashes, platform outcome, probe
//! telemetry). Run this at two commits and diff the output to prove a
//! kernel change preserved behavior exactly; `detcheck.golden` beside this
//! file is the output every commit must reproduce (`scripts/check.sh`).

use pls_gatesim::{CompileOptions, ExecModel, SimConfig};
use pls_netlist::IscasSynth;
use pls_partition::metrics::{connectivity_cut, edge_cut};
use pls_partition::{CircuitGraph, MultilevelPartitioner, Partitioning, ReplicationConfig};
use pls_timewarp::{
    Application, Backend, Cancellation, DynLbConfig, KernelConfig, KernelStats, Phold,
    PlatformConfig, Simulator,
};

use crate::kernel_scenarios::kernel_scenarios;

fn stats_line(tag: &str, s: &KernelStats) {
    let counters: Vec<String> = s.iter().map(|(name, v)| format!("{name}={v}")).collect();
    println!("{tag}: {} final_gvt={}", counters.join(" "), s.final_gvt);
}

/// Print the fingerprint.
pub fn detcheck() {
    // --- PHOLD on the deterministic executives, all cancellation modes.
    let model = Phold {
        lps: 12,
        population_per_lp: 3,
        mean_delay: 3,
        locality_pct: 30,
        horizon: 400,
        seed: 42,
    };
    let assignment: Vec<u32> = (0..model.lps).map(|i| (i % 3) as u32).collect();

    let seq = Simulator::new(&model).run(Backend::Sequential).unwrap();
    stats_line("phold/seq", &seq.stats);
    println!("phold/seq states: {:?}", seq.states);

    for (tag, cancellation, ckpt) in [
        ("aggr", Cancellation::Aggressive, 1u32),
        ("lazy", Cancellation::Lazy, 1),
        ("lazy_sparse", Cancellation::Lazy, 4),
    ] {
        let pcfg = PlatformConfig {
            kernel: KernelConfig { cancellation, checkpoint_interval: ckpt, ..Default::default() },
            ..Default::default()
        };
        let sim = Simulator::new(&model).platform_config(&pcfg).record(50);
        let rep = sim.run(Backend::Platform { assignment: &assignment, nodes: 3 }).unwrap();
        stats_line(&format!("phold/plat3/{tag}"), &rep.stats);
        println!("phold/plat3/{tag} states_match_seq: {}", rep.states == seq.states);
        println!(
            "phold/plat3/{tag} exec_time_s: {:.9} clocks: {:?}",
            rep.outcome.exec_time_s().unwrap(),
            rep.outcome.node_clocks_ns().unwrap()
        );
        println!("phold/plat3/{tag} telemetry:\n{}", rep.telemetry.unwrap().to_jsonl());
    }

    let thr_asg: Vec<u32> = (0..model.lps).map(|i| (i % 2) as u32).collect();
    let thr = Simulator::new(&model)
        .run(Backend::Threaded { assignment: &thr_asg, clusters: 2 })
        .unwrap();
    println!("phold/thr2 states_match_seq: {}", thr.states == seq.states);

    // --- Dynamic load balancing on the platform executive: must migrate,
    // must commit the sequential history, and must be byte-reproducible
    // (two identical runs, field-for-field identical reports).
    {
        let pcfg = PlatformConfig {
            kernel: KernelConfig { gvt_period: 4, ..Default::default() },
            ..Default::default()
        };
        let lb = DynLbConfig { period: 1, ..Default::default() };
        let run = || {
            Simulator::new(&model)
                .platform_config(&pcfg)
                .load_balancer(lb)
                .record(50)
                .run(Backend::Platform { assignment: &assignment, nodes: 3 })
                .unwrap()
        };
        let a = run();
        let b = run();
        stats_line("phold/plat3/dynlb", &a.stats);
        println!("phold/plat3/dynlb states_match_seq: {}", a.states == seq.states);
        println!(
            "phold/plat3/dynlb exec_time_s: {:.9} clocks: {:?}",
            a.outcome.exec_time_s().unwrap(),
            a.outcome.node_clocks_ns().unwrap()
        );
        println!(
            "phold/plat3/dynlb reproducible: {}",
            a.stats == b.stats
                && a.states == b.states
                && a.outcome.node_clocks_ns() == b.outcome.node_clocks_ns()
                && a.telemetry.as_ref().map(|t| t.to_jsonl())
                    == b.telemetry.as_ref().map(|t| t.to_jsonl())
        );
        println!("phold/plat3/dynlb telemetry:\n{}", a.telemetry.unwrap().to_jsonl());

        let dthr = Simulator::new(&model)
            .load_balancer(lb)
            .run(Backend::Threaded { assignment: &thr_asg, clusters: 2 })
            .unwrap();
        println!(
            "phold/thr2/dynlb states_match_seq: {} migrated: {}",
            dthr.states == seq.states,
            dthr.stats.migrations > 0
        );
    }

    // --- Gate-level circuit.
    let netlist = IscasSynth::small(120, 3).build();
    let cfg = SimConfig { end_time: 80, ..Default::default() };
    let app = cfg.build_app(&netlist);
    let gasg: Vec<u32> = (0..app.num_lps()).map(|i| (i % 4) as u32).collect();

    let gseq = Simulator::new(&app).run(Backend::Sequential).unwrap();
    stats_line("gates/seq", &gseq.stats);
    let gate_fp = app.fingerprint(&gseq.states);
    println!("gates/seq fingerprint: {gate_fp:?}");

    let gplat = Simulator::new(&app)
        .record(20)
        .run(Backend::Platform { assignment: &gasg, nodes: 4 })
        .unwrap();
    stats_line("gates/plat4", &gplat.stats);
    println!("gates/plat4 fingerprint: {:?}", app.fingerprint(&gplat.states));
    println!("gates/plat4 telemetry:\n{}", gplat.telemetry.unwrap().to_jsonl());

    // Gate-per-LP under lazy cancellation with sparse checkpoints: lazy
    // regeneration compares re-sent payloads with the cancelled ones, so
    // this is where a change to how a gate keeps its pins can move the
    // counts without moving the fingerprint.
    let lazy_cfg = PlatformConfig {
        kernel: KernelConfig {
            cancellation: Cancellation::Lazy,
            checkpoint_interval: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let glazy = Simulator::new(&app)
        .platform_config(&lazy_cfg)
        .run(Backend::Platform { assignment: &gasg, nodes: 4 })
        .unwrap();
    stats_line("gates/plat4/lazy_sparse", &glazy.stats);
    println!(
        "gates/plat4/lazy_sparse exec_time_s: {:.9} clocks: {:?}",
        glazy.outcome.exec_time_s().unwrap(),
        glazy.outcome.node_clocks_ns().unwrap()
    );
    println!("gates/plat4/lazy_sparse fingerprint: {:?}", app.fingerprint(&glazy.states));

    let gthr_asg: Vec<u32> = (0..app.num_lps()).map(|i| (i % 2) as u32).collect();
    let gthr =
        Simulator::new(&app).run(Backend::Threaded { assignment: &gthr_asg, clusters: 2 }).unwrap();
    println!("gates/thr2 fingerprint: {:?}", app.fingerprint(&gthr.states));

    // --- Compiled gate-block engine on the same circuit: the per-gate
    // fingerprint must be byte-identical to the gate-per-LP engine on all
    // three executives.
    let blocks: Vec<u32> = (0..netlist.len()).map(|i| (i % 4) as u32).collect();
    let mut ccfg = cfg.clone();
    ccfg.exec = ExecModel::CompiledBlocks(CompileOptions { blocks: Some(blocks.clone()) });
    let capp = ccfg.build_app(&netlist);

    let cseq = Simulator::new(&capp).run(Backend::Sequential).unwrap();
    stats_line("compiled/seq", &cseq.stats);
    println!(
        "compiled/seq fingerprint_matches_gate: {}",
        capp.fingerprint(&cseq.states) == gate_fp
    );

    let casg = capp.lp_assignment(&blocks);
    let cplat = Simulator::new(&capp)
        .record(20)
        .run(Backend::Platform { assignment: &casg, nodes: 4 })
        .unwrap();
    stats_line("compiled/plat4", &cplat.stats);
    println!(
        "compiled/plat4 fingerprint_matches_gate: {}",
        capp.fingerprint(&cplat.states) == gate_fp
    );
    println!("compiled/plat4 telemetry:\n{}", cplat.telemetry.unwrap().to_jsonl());

    let cthr =
        Simulator::new(&capp).run(Backend::Threaded { assignment: &casg, clusters: 4 }).unwrap();
    println!(
        "compiled/thr4 fingerprint_matches_gate: {}",
        capp.fingerprint(&cthr.states) == gate_fp
    );

    // --- Compiled + replicated: replica slots fused into the consuming
    // blocks, so `replicated_gates` and `messages_saved` move. Lazy
    // cancellation with sparse checkpoints makes rollbacks restore across
    // several checkpoints and an open interval, then coast forward.
    let parting = Partitioning::new(4, blocks.clone());
    let mut rcfg = ccfg.clone();
    rcfg.replication = Some(ReplicationConfig::default());
    let rapp =
        rcfg.build_app_partitioned(&netlist, &CircuitGraph::from_netlist(&netlist), &parting);
    let rasg = rapp.lp_assignment(&blocks);
    let rpcfg = PlatformConfig {
        kernel: KernelConfig {
            cancellation: Cancellation::Lazy,
            checkpoint_interval: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    let rplat = Simulator::new(&rapp)
        .platform_config(&rpcfg)
        .record(20)
        .run(Backend::Platform { assignment: &rasg, nodes: 4 })
        .unwrap();
    stats_line("compiled_repl/plat4/lazy_sparse", &rplat.stats);
    println!(
        "compiled_repl/plat4/lazy_sparse fingerprint_matches_gate: {}",
        rapp.fingerprint(&rplat.states) == gate_fp
    );
    println!(
        "compiled_repl/plat4/lazy_sparse exec_time_s: {:.9} clocks: {:?}",
        rplat.outcome.exec_time_s().unwrap(),
        rplat.outcome.node_clocks_ns().unwrap()
    );
    println!("compiled_repl/plat4/lazy_sparse telemetry:\n{}", rplat.telemetry.unwrap().to_jsonl());

    let rthr =
        Simulator::new(&rapp).run(Backend::Threaded { assignment: &rasg, clusters: 4 }).unwrap();
    let rthr_fp = rapp.fingerprint(&rthr.states);
    println!("compiled_repl/thr4 fingerprint: {rthr_fp:?}");
    println!(
        "compiled_repl/thr4 fingerprint_matches_gate: {} replicated_gates: {}",
        rthr_fp == gate_fp,
        rthr.stats.replicated_gates
    );

    // --- Multilevel partitioner on the paper circuits: the hierarchy and
    // the final assignment must survive any rewrite of the coarsener or
    // the refiner bit for bit.
    for synth in [IscasSynth::s9234(), IscasSynth::s15850()] {
        let graph = CircuitGraph::from_netlist(&synth.build());
        for k in [2usize, 8] {
            let rep = MultilevelPartitioner.partition_with_report(&graph, k, 0);
            let p = &rep.partitioning;
            // FNV-1a over the little-endian bytes of every part id.
            let hash = p
                .assignment
                .iter()
                .flat_map(|a| a.to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            println!(
                "partition/{}/k{k}: levels={:?} refine_moves={} refine_iters={} edge_cut={} \
                 connectivity_cut={} assignment_fnv1a={hash:016x}",
                graph.name(),
                rep.level_sizes,
                rep.refine_stats.iter().map(|r| r.moves).sum::<usize>(),
                rep.refine_stats.iter().map(|r| r.iters).sum::<usize>(),
                edge_cut(&graph, p),
                connectivity_cut(&graph, p),
            );
        }
    }

    // --- The `bench_kernel --smoke` suite, one run each: the four
    // deterministic fields of every `BENCH_kernel.json` row.
    for (name, mut run) in kernel_scenarios(true) {
        let o = run();
        println!(
            "bench_kernel/smoke/{name}: events={} modeled_s={:.9} app_messages={} messages_saved={}",
            o.units, o.modeled_s, o.stats.app_messages, o.stats.messages_saved
        );
    }
}
