//! Property sweep for the seeded fault-injection subsystem
//! (`pls_timewarp::chaos`): injected link loss, latency spikes and node
//! degradation may change *modeled time and message counts only*. The
//! committed gate-level history must stay byte-identical to the healthy
//! run on every executive and execution model — the Time Warp
//! correctness theorem applied to an adversarial network — and the same
//! fault seed must reproduce the exact same run, counters included.

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
    (0..n)
        .map(|i| {
            let h =
                (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed).rotate_left(21);
            (h % nodes as u64) as u32
        })
        .collect()
}

/// A nasty whole-run plan: heavy loss on node 0, a slow node, a latency
/// spike window and a pause, plus seeded random scenarios on top.
fn nasty_plan(seed: u64, nodes: u32) -> FaultPlan {
    let mut plan = FaultPlan::new(seed)
        .rto_ns(200_000)
        .scenario(FaultScenario {
            node: 0,
            start_ns: 0,
            end_ns: u64::MAX,
            kind: FaultKind::LinkLoss { drop_per_mille: 400 },
        })
        .scenario(FaultScenario {
            node: 1 % nodes,
            start_ns: 0,
            end_ns: u64::MAX,
            kind: FaultKind::NodeSlow { factor: 4 },
        })
        .scenario(FaultScenario {
            node: 0,
            start_ns: 1_000_000,
            end_ns: 20_000_000,
            kind: FaultKind::LinkDegrade { spike_ns: 100_000, jitter_ns: 50_000 },
        })
        .random(2);
    if nodes > 1 {
        plan = plan.scenario(FaultScenario {
            node: nodes - 1,
            start_ns: 500_000,
            end_ns: 3_000_000,
            kind: FaultKind::NodePause,
        });
    }
    plan
}

#[test]
fn faults_never_change_the_committed_history() {
    // The tentpole invariant, swept over arbitrary circuits, placements
    // and fault plans: faulted fingerprints == healthy sequential oracle.
    let mut s = 100u64;
    let mut total_faults = 0u64;
    let mut total_drops = 0u64;
    let mut total_retx = 0u64;
    for _ in 0..10 {
        let gates = (40 + mix(&mut s) % 140) as usize;
        let circuit_seed = mix(&mut s) % 400;
        let nodes = (2 + mix(&mut s) % 4) as usize;
        let fault_seed = mix(&mut s);

        let netlist = IscasSynth::small(gates, circuit_seed).build();
        let cfg = SimConfig { end_time: 80, ..Default::default() };
        let app = cfg.build_app(&netlist);
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let want = app.fingerprint(&seq.states);

        let assignment = arbitrary_assignment(netlist.len(), nodes, circuit_seed);
        let res = Simulator::new(&app)
            .fault_plan(nasty_plan(fault_seed, nodes as u32))
            .run(Backend::Platform { assignment: &assignment, nodes })
            .unwrap();
        assert_eq!(app.fingerprint(&res.states), want, "faulted run diverged from oracle");
        assert_eq!(res.stats.events_committed, seq.stats.events_processed);
        total_faults += res.stats.faults_injected;
        total_drops += res.stats.transmissions_dropped;
        total_retx += res.stats.retransmissions;
    }
    // The sweep must actually inject faults, or invariance was proven
    // for the healthy path only.
    assert!(total_faults > 0, "no fault window ever opened");
    assert!(total_drops > 0, "link loss never dropped a transmission");
    assert!(total_retx > 0, "the retransmit protocol never fired");
}

#[test]
fn same_fault_seed_is_byte_reproducible() {
    let netlist = IscasSynth::small(120, 9).build();
    let cfg = SimConfig { end_time: 80, ..Default::default() };
    let app = cfg.build_app(&netlist);
    let assignment = arbitrary_assignment(netlist.len(), 3, 5);
    let run = |seed: u64| {
        Simulator::new(&app)
            .fault_plan(nasty_plan(seed, 3))
            .run(Backend::Platform { assignment: &assignment, nodes: 3 })
            .unwrap()
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a.stats, b.stats, "same fault seed must reproduce identical counters");
    assert_eq!(app.fingerprint(&a.states), app.fingerprint(&b.states));
    assert_eq!(a.outcome.node_clocks_ns(), b.outcome.node_clocks_ns());
    // A different seed rolls different drops — modeled time moves.
    let c = run(43);
    assert_eq!(app.fingerprint(&c.states), app.fingerprint(&a.states));
    assert_ne!(
        (a.stats.transmissions_dropped, a.outcome.node_clocks_ns().map(<[u64]>::to_vec)),
        (c.stats.transmissions_dropped, c.outcome.node_clocks_ns().map(<[u64]>::to_vec)),
        "different seeds should perturb the fault sample"
    );
}

#[test]
fn probes_do_not_perturb_faulted_runs() {
    let netlist = IscasSynth::small(110, 4).build();
    let cfg = SimConfig { end_time: 80, ..Default::default() };
    let app = cfg.build_app(&netlist);
    let assignment = arbitrary_assignment(netlist.len(), 3, 2);
    let plan = nasty_plan(77, 3);
    let bare = Simulator::new(&app)
        .fault_plan(plan.clone())
        .run(Backend::Platform { assignment: &assignment, nodes: 3 })
        .unwrap();
    let recorded = Simulator::new(&app)
        .fault_plan(plan)
        .record(10)
        .run(Backend::Platform { assignment: &assignment, nodes: 3 })
        .unwrap();
    assert_eq!(bare.stats, recorded.stats, "recording probe perturbed a faulted run");
    assert_eq!(app.fingerprint(&bare.states), app.fingerprint(&recorded.states));
    assert_eq!(bare.outcome.node_clocks_ns(), recorded.outcome.node_clocks_ns());
    assert!(recorded.telemetry.is_some());
}

#[test]
fn empty_fault_plan_is_byte_identical_to_no_plan() {
    // An installed plan whose windows never fire must not shift modeled
    // time by a nanosecond: the ack/retransmit protocol is charge-free
    // and chaos events only win loop arbitration when strictly earliest.
    let netlist = IscasSynth::small(130, 6).build();
    let cfg = SimConfig { end_time: 80, ..Default::default() };
    let app = cfg.build_app(&netlist);
    let assignment = arbitrary_assignment(netlist.len(), 4, 8);
    let healthy =
        Simulator::new(&app).run(Backend::Platform { assignment: &assignment, nodes: 4 }).unwrap();
    let empty = Simulator::new(&app)
        .fault_plan(FaultPlan::new(123))
        .run(Backend::Platform { assignment: &assignment, nodes: 4 })
        .unwrap();
    assert_eq!(healthy.stats, empty.stats);
    assert_eq!(healthy.outcome.node_clocks_ns(), empty.outcome.node_clocks_ns());
    assert_eq!(app.fingerprint(&healthy.states), app.fingerprint(&empty.states));
}

#[test]
fn faults_are_inert_on_sequential_and_threaded_executives() {
    // No modeled network to degrade: the plan is accepted and ignored,
    // which trivially preserves history invariance there.
    let netlist = IscasSynth::small(100, 3).build();
    let cfg = SimConfig { end_time: 80, ..Default::default() };
    let app = cfg.build_app(&netlist);
    let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
    let want = app.fingerprint(&seq.states);
    let seq_f = Simulator::new(&app).fault_plan(nasty_plan(1, 1)).run(Backend::Sequential).unwrap();
    assert_eq!(app.fingerprint(&seq_f.states), want);
    assert_eq!(seq_f.stats.faults_injected, 0);
    let assignment = arbitrary_assignment(netlist.len(), 3, 1);
    let thr = Simulator::new(&app)
        .fault_plan(nasty_plan(1, 3))
        .run(Backend::Threaded { assignment: &assignment, clusters: 3 })
        .unwrap();
    assert_eq!(app.fingerprint(&thr.states), want);
    assert_eq!(thr.stats.faults_injected, 0);
    // The platform executive does run plans, so there a clause aimed at
    // a node that does not exist is a typed error, not a healthy run.
    let stray = FaultPlan::parse("drop:9:250", 1).unwrap();
    match Simulator::new(&app)
        .fault_plan(stray)
        .run(Backend::Platform { assignment: &assignment, nodes: 3 })
    {
        Err(SimError::InvalidConfig(msg)) => assert!(msg.contains("node 9"), "{msg}"),
        other => panic!("expected InvalidConfig naming node 9, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn faults_compose_with_compiled_blocks_and_dynlb() {
    // The full stack at once: compiled gate blocks, dynamic load
    // balancing routing LPs off the sick node, and a nasty fault plan.
    // Committed history must still equal the healthy gate-per-LP oracle.
    let netlist = IscasSynth::small(160, 12).build();
    let cfg = SimConfig { end_time: 80, ..Default::default() };
    let oracle = cfg.build_app(&netlist);
    let want =
        oracle.fingerprint(&Simulator::new(&oracle).run(Backend::Sequential).unwrap().states);

    let nodes = 3;
    let mut ccfg = cfg.clone();
    ccfg.exec = ExecModel::CompiledBlocks(CompileOptions {
        blocks: Some(arbitrary_assignment(netlist.len(), nodes, 17)),
    });
    let compiled = ccfg.build_app(&netlist);
    let seqc = Simulator::new(&compiled).run(Backend::Sequential).unwrap();
    assert_eq!(compiled.fingerprint(&seqc.states), want);

    let assignment = compiled.lp_assignment(&arbitrary_assignment(netlist.len(), nodes, 6));
    let mut platform = cfg.platform;
    platform.kernel.gvt_period = 8;
    let res = Simulator::new(&compiled)
        .platform_config(&platform)
        .load_balancer(DynLbConfig { period: 2, ..Default::default() })
        .fault_plan(nasty_plan(99, nodes as u32))
        .run(Backend::Platform { assignment: &assignment, nodes })
        .unwrap();
    assert_eq!(compiled.fingerprint(&res.states), want, "compiled+dynlb+faults diverged");
    assert_eq!(res.stats.events_committed, seqc.stats.events_processed);
}

#[test]
fn cell_driver_applies_fault_plans() {
    // The gatesim experiment driver forwards `SimConfig::faults` and the
    // oracle check passes under them.
    let netlist = IscasSynth::small(120, 8).build();
    let graph = CircuitGraph::from_netlist(&netlist);
    let mut cfg = SimConfig { end_time: 80, ..Default::default() };
    cfg.faults = Some(nasty_plan(5, 4));
    let m = Cell::new(&netlist, &graph, &cfg).checked().run(&MultilevelPartitioner::default());
    assert!(!m.out_of_memory);
    assert!(m.stats.events_committed > 0);
}
