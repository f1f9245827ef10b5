//! Property sweep for the seeded fault-injection subsystem
//! (`pls_timewarp::chaos`): injected latency spikes, jitter and node
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

/// A nasty whole-run plan: a slow node, a latency spike window with
/// jitter and a pause, plus seeded random scenarios on top.
fn nasty_plan(seed: u64, nodes: u32) -> FaultPlan {
    let mut plan = FaultPlan::new(seed)
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
    let mut perturbed = 0;
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
        // Each case runs at the default GVT period and with a round after
        // every batch. The second lands rounds while delayed transmissions
        // are still on the wire: GVT must stay below their receive times
        // until they arrive.
        for gvt_period in [cfg.platform.kernel.gvt_period, 1] {
            let mut platform = cfg.platform;
            platform.kernel.gvt_period = gvt_period;
            let run = |plan: FaultPlan| {
                Simulator::new(&app)
                    .platform_config(&platform)
                    .fault_plan(plan)
                    .run(Backend::Platform { assignment: &assignment, nodes })
                    .unwrap()
            };
            let res = run(nasty_plan(fault_seed, nodes as u32));
            assert_eq!(app.fingerprint(&res.states), want, "faulted run diverged from oracle");
            assert_eq!(res.stats.events_committed, seq.stats.events_processed);
            total_faults += res.stats.faults_injected;
            // An empty plan is the healthy platform, byte for byte.
            let healthy = run(FaultPlan::new(0));
            let observed = |r: &RunReport<_>| {
                (r.outcome.node_clocks_ns().map(<[u64]>::to_vec), r.stats.rollbacks())
            };
            perturbed += usize::from(observed(&res) != observed(&healthy));
        }
    }
    // The sweep must actually inject faults that change the run, or
    // invariance was proven for the healthy path only.
    assert!(total_faults > 0, "no fault window ever opened");
    assert!(perturbed > 0, "no plan moved a node clock or a rollback count");
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
    // A different seed rolls different jitter and random windows —
    // modeled time moves.
    let c = run(43);
    assert_eq!(app.fingerprint(&c.states), app.fingerprint(&a.states));
    assert_ne!(
        a.outcome.node_clocks_ns(),
        c.outcome.node_clocks_ns(),
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
    // time by a nanosecond: fault edges only win loop arbitration when
    // strictly earliest.
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
    let stray = FaultPlan::parse("slow:9:2", 1).unwrap();
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
    let m = Cell::new(&netlist, &graph, &cfg).checked().run(&MultilevelPartitioner);
    assert!(!m.out_of_memory);
    assert!(m.stats.events_committed > 0);
}

/// One seeded mutation of a fault spec: one to three of a bit flip, a
/// truncation, a run of up to 25 digits, a duplicated `@`/`..`/`:` or a
/// non-ASCII character.
fn mutate(spec: &str, s: &mut u64) -> String {
    let mut b = spec.as_bytes().to_vec();
    for _ in 0..1 + mix(s) % 3 {
        let at = (mix(s) % (b.len() as u64 + 1)) as usize;
        let pick = |hits: Vec<usize>, s: &mut u64| match hits.len() {
            0 => at,
            n => hits[(mix(s) % n as u64) as usize],
        };
        match mix(s) % 5 {
            0 => {
                if let Some(byte) = b.get_mut(at) {
                    *byte ^= 1 << (mix(s) % 8);
                }
            }
            1 => b.truncate(at),
            2 => {
                // Next to an existing digit, so a number grows.
                let i = pick((0..b.len()).filter(|&i| b[i].is_ascii_digit()).collect(), s);
                let run: Vec<u8> =
                    (0..1 + mix(s) % 25).map(|_| b'0' + (mix(s) % 10) as u8).collect();
                b.splice(i..i, run);
            }
            3 => {
                let sep: &[u8] = [&b"@"[..], b"..", b":"][(mix(s) % 3) as usize];
                let i = pick((0..b.len()).filter(|&i| b[i..].starts_with(sep)).collect(), s);
                b.splice(i..i, sep.iter().copied());
            }
            _ => {
                b.splice(at..at, "µ".bytes());
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// "Error or correct, never panic" for the fault-spec front end: every
/// mutated spec is a parse error, a plan [`FaultPlan::check`] rejects, or a
/// plan whose platform run commits the sequential oracle's history. Debug
/// builds check arithmetic overflow, so a value the check lets through that
/// wraps a node clock fails here.
#[test]
fn mutated_fault_specs_are_rejected_or_run_to_the_oracle() {
    const VALID: [&str; 5] = [
        "jitter:1:100us:50us",
        "slow:2:3@1ms..30ms",
        "pause:0@500us..3ms",
        "jitter:0:20us@2ms..,slow:1:4",
        "random:2",
    ];
    // Inputs that once wrapped a node clock.
    const OVERFLOWED: [&str; 3] =
        ["pause:0@0..18446744073709551614ns", "jitter:1:18446744073s", "slow:0:4294967295"];
    let netlist = IscasSynth::small(60, 3).build();
    let cfg = SimConfig { end_time: 60, ..Default::default() };
    let app = cfg.build_app(&netlist);
    let want = app.fingerprint(&Simulator::new(&app).run(Backend::Sequential).unwrap().states);
    let assignment = arbitrary_assignment(netlist.len(), 3, 4);

    let mut s = 31u64;
    let mutated = (0..2000).map(|i| mutate(VALID[i % VALID.len()], &mut s));
    let specs: Vec<String> =
        VALID.iter().chain(&OVERFLOWED).map(|v| v.to_string()).chain(mutated).collect();
    let (mut rejected, mut ran) = (0, 0);
    for (i, spec) in specs.iter().enumerate() {
        let plan = match FaultPlan::parse(spec, i as u64) {
            Ok(plan) if plan.check(3).is_ok() => plan,
            _ => {
                rejected += 1;
                continue;
            }
        };
        let res = Simulator::new(&app)
            .fault_plan(plan)
            .run(Backend::Platform { assignment: &assignment, nodes: 3 })
            .unwrap();
        assert_eq!(app.fingerprint(&res.states), want, "`{spec}` diverged from the oracle");
        ran += 1;
    }
    assert!(rejected >= OVERFLOWED.len() && ran > VALID.len(), "{rejected} rejected, {ran} ran");
}
