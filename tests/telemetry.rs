//! Telemetry invariants at the workspace level:
//!
//! 1. **Non-perturbation** — attaching the recording [`TimeSeries`] probe
//!    must not change a single committed result or kernel statistic on any
//!    of the three executives (the probe observes the protocol, it never
//!    participates in it).
//! 2. **Conservation** — summing any additive counter over the buckets of
//!    a recorded series equals the run's aggregate [`KernelStats`] value:
//!    the series is a lossless decomposition of the aggregates by virtual
//!    time. (On the threaded executive `gvt_rounds` is excluded: every
//!    cluster participates in every synchronized round, so the aggregate
//!    keeps the max across clusters while the series sums every cluster's
//!    rounds.)
//! 3. **Determinism** — the merged series of a threaded run is identical
//!    across repeated runs despite thread interleaving.
//!
//! [`TimeSeries`]: parlogsim::timewarp::TimeSeries
//! [`KernelStats`]: parlogsim::timewarp::KernelStats

use parlogsim::prelude::*;
use parlogsim::timewarp::Bucket;

const BUCKET: u64 = 25;

fn circuits() -> Vec<Netlist> {
    vec![parlogsim::netlist::data::s27(), parlogsim::netlist::data::c17()]
}

fn assignment(n: usize, k: usize) -> Vec<u32> {
    (0..n).map(|i| (i % k) as u32).collect()
}

/// Assert every bucketed counter reconciles with the aggregate — driven
/// by the counter table, so a counter added to it cannot silently skip
/// the invariant.
fn assert_conserved(totals: &Bucket, stats: &KernelStats, sum_gvt_rounds: bool, tag: &str) {
    for c in KernelStats::COUNTERS.iter().filter(|c| c.column.is_some()) {
        if c.name == "gvt_rounds" && !sum_gvt_rounds {
            continue;
        }
        assert_eq!((c.get)(&totals.counts), (c.get)(stats), "{tag}: {}", c.name);
    }
}

#[test]
fn recording_probe_does_not_perturb_sequential() {
    for netlist in circuits() {
        let cfg = SimConfig { end_time: 300, ..Default::default() };
        let app = cfg.build_app(&netlist);
        let plain = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let recorded = Simulator::new(&app).record(BUCKET).run(Backend::Sequential).unwrap();
        assert_eq!(app.fingerprint(&recorded.states), app.fingerprint(&plain.states));
        assert_eq!(recorded.stats, plain.stats);
        let ts = recorded.telemetry.expect("recording was on");
        assert_conserved(&ts.totals(), &recorded.stats, true, netlist.name());
    }
}

#[test]
fn recording_probe_does_not_perturb_platform() {
    for netlist in circuits() {
        let cfg = SimConfig { end_time: 300, ..Default::default() };
        let app = cfg.build_app(&netlist);
        for nodes in [2, 4] {
            let asg = assignment(netlist.len(), nodes);
            let backend = Backend::Platform { assignment: &asg, nodes };
            let plain = Simulator::new(&app).run(backend).unwrap();
            let recorded = Simulator::new(&app).record(BUCKET).run(backend).unwrap();
            assert_eq!(
                app.fingerprint(&recorded.states),
                app.fingerprint(&plain.states),
                "{} on {nodes} nodes",
                netlist.name()
            );
            assert_eq!(recorded.stats, plain.stats);
            assert_eq!(recorded.outcome, plain.outcome, "modeled time must not move");
            let ts = recorded.telemetry.expect("recording was on");
            assert_conserved(&ts.totals(), &recorded.stats, true, netlist.name());
        }
    }
}

#[test]
fn recording_probe_does_not_perturb_threaded() {
    // Real threads race, so speculative-work counters (rollbacks, antis)
    // legitimately vary run to run; the executive's guarantee — and what
    // the probe must not disturb — is the committed history.
    for netlist in circuits() {
        let cfg = SimConfig { end_time: 300, ..Default::default() };
        let app = cfg.build_app(&netlist);
        let asg = assignment(netlist.len(), 2);
        let backend = Backend::Threaded { assignment: &asg, clusters: 2 };
        let plain = Simulator::new(&app).run(backend).unwrap();
        let recorded = Simulator::new(&app).record(BUCKET).run(backend).unwrap();
        assert_eq!(app.fingerprint(&recorded.states), app.fingerprint(&plain.states));
        assert_eq!(recorded.stats.events_committed, plain.stats.events_committed);
        let ts = recorded.telemetry.expect("recording was on");
        assert_conserved(&ts.totals(), &recorded.stats, false, netlist.name());
    }
}

#[test]
fn bucket_sums_match_aggregates_across_configs() {
    // Sweep cancellation × checkpointing on a livelier circuit so the
    // rollback/anti/coast counters are actually exercised.
    let netlist = IscasSynth::small(200, 3).build();
    let graph = CircuitGraph::from_netlist(&netlist);
    let part = MultilevelPartitioner.partition(&graph, 4, 0);
    for (cancellation, checkpoint) in [
        (Cancellation::Aggressive, 1),
        (Cancellation::Aggressive, 4),
        (Cancellation::Lazy, 1),
        (Cancellation::Lazy, 3),
    ] {
        let mut cfg = SimConfig { end_time: 200, ..Default::default() };
        cfg.platform.kernel.cancellation = cancellation;
        cfg.platform.kernel.checkpoint_interval = checkpoint;
        let app = cfg.build_app(&netlist);
        let res = Simulator::new(&app)
            .platform_config(&cfg.platform)
            .record(BUCKET)
            .run(Backend::Platform { assignment: &part.assignment, nodes: 4 })
            .unwrap();
        let ts = res.telemetry.expect("recording was on");
        let tag = format!("{cancellation:?}/ckpt{checkpoint}");
        assert_conserved(&ts.totals(), &res.stats, true, &tag);
        assert!(ts.totals().counts.rollbacks() > 0 || res.stats.rollbacks() == 0);
    }
}

#[test]
fn compiled_app_work_counters_reconcile_across_executives() {
    // The compiled engine's per-activation work (block activations, ops
    // swept) must decompose losslessly into virtual-time buckets on every
    // executive, and committed work must be executive-independent.
    let netlist = IscasSynth::small(200, 3).build();
    let graph = CircuitGraph::from_netlist(&netlist);
    let part = MultilevelPartitioner.partition(&graph, 4, 0);
    let mut cfg = SimConfig { end_time: 200, ..Default::default() };
    cfg.exec = ExecModel::CompiledBlocks(CompileOptions { blocks: Some(part.assignment.clone()) });
    let app = cfg.build_app(&netlist);

    let seq = Simulator::new(&app).record(BUCKET).run(Backend::Sequential).unwrap();
    assert!(seq.stats.block_activations > 0, "compiled run must activate blocks");
    assert!(seq.stats.ops_executed >= seq.stats.block_activations);
    assert_conserved(&seq.telemetry.as_ref().unwrap().totals(), &seq.stats, true, "seq/compiled");

    let asg = app.lp_assignment(&part.assignment);
    let plat = Simulator::new(&app)
        .platform_config(&cfg.platform)
        .record(BUCKET)
        .run(Backend::Platform { assignment: &asg, nodes: 4 })
        .unwrap();
    assert_conserved(
        &plat.telemetry.as_ref().unwrap().totals(),
        &plat.stats,
        true,
        "platform/compiled",
    );
    // Speculative activations can exceed the sequential count, never
    // undercut it.
    assert!(plat.stats.block_activations >= seq.stats.block_activations);
    assert_eq!(app.fingerprint(&plat.states), app.fingerprint(&seq.states));
}

#[test]
fn threaded_series_merge_is_deterministic() {
    // A 100%-local PHOLD has zero inter-LP traffic, so every LP's
    // execution is independent of thread scheduling: all execution-side
    // counters are deterministic, and any run-to-run difference could only
    // come from the per-cluster fork/join merge depending on interleaving.
    // (Commit and GVT-round bucketing follow the GVT values of the
    // synchronized rounds, which ARE timing-dependent — those columns and
    // the high-water/wall samples are excluded; their totals still
    // reconcile via `assert_conserved` in the other tests.)
    let model = parlogsim::timewarp::Phold {
        lps: 24,
        horizon: 400,
        locality_pct: 100,
        ..Default::default()
    };
    let asg = assignment(model.lps, 3);
    let backend = Backend::Threaded { assignment: &asg, clusters: 3 };
    let run = || {
        Simulator::new(&model)
            .record(BUCKET)
            .run(backend)
            .unwrap()
            .telemetry
            .expect("recording was on")
    };
    let a = run();
    let b = run();
    let execution_side = |ts: &TimeSeries| -> Vec<(parlogsim::timewarp::BucketKey, Bucket)> {
        ts.buckets()
            .map(|(k, bk)| {
                let mut bk = bk.clone();
                bk.counts.events_committed = 0;
                bk.counts.gvt_rounds = 0;
                bk.states_held_max = 0;
                bk.pending_max = 0;
                bk.wall_ns_max = 0;
                (k, bk)
            })
            .filter(|(_, bk)| *bk != Bucket::default())
            .collect()
    };
    assert_eq!(execution_side(&a), execution_side(&b));
    let (a, b) = (a.totals().counts, b.totals().counts);
    assert!(a.events_processed > 0);
    assert_eq!(a.events_committed, b.events_committed);
    assert_eq!(a.app_messages, 0, "locality 100% must stay local");
}

#[test]
fn exported_series_row_counts_match() {
    let netlist = parlogsim::netlist::data::s27();
    let cfg = SimConfig { end_time: 300, ..Default::default() };
    let app = cfg.build_app(&netlist);
    let asg = assignment(netlist.len(), 2);
    let res = Simulator::new(&app)
        .record(BUCKET)
        .run(Backend::Platform { assignment: &asg, nodes: 2 })
        .unwrap();
    let ts = res.telemetry.expect("recording was on");
    assert!(!ts.is_empty());
    assert_eq!(ts.to_jsonl().lines().count(), ts.len());
    assert_eq!(ts.to_csv().lines().count(), ts.len() + 1);
}
