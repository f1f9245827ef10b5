//! The kernel benchmark scenario suite: one table of rows over shared
//! set-ups, run by `bench_kernel` (which writes `BENCH_kernel.json`, the
//! perf trajectory tracked across PRs — see `docs/TELEMETRY.md`) and, at
//! smoke size, by `detcheck`.
//!
//! Every scenario is deterministic (virtual-platform or sequential
//! executive, fixed seeds), so the only run-to-run variance is the host
//! machine — ns/event medians are comparable within one machine.

use pls_gatesim::{CompileOptions, ExecModel, SimConfig};
use pls_netlist::{ClockTreeSynth, IscasSynth, Netlist};
use pls_partition::{
    CircuitGraph, MultilevelPartitioner, Partitioner, Partitioning, ReplicationConfig,
};
use pls_timewarp::{
    Application, Backend, Cancellation, CostModel, DynLbConfig, KernelConfig, KernelStats, Phold,
    PlatformConfig, RotatingHotspot, RunReport, Simulator,
};

use crate::{bench_events, BenchSummary};

/// What one scenario execution measured. `units` is the ns/unit
/// denominator; the rest disambiguates pairs whose host timing is
/// indistinguishable — the modeled makespan separates
/// `dynlb_hotspot_static/dynamic`, and the message counts in `stats`
/// separate the replication on/off pairs.
#[derive(Debug, Clone, Default)]
pub struct ScenarioOutcome {
    /// Work units for the ns/unit denominator.
    pub units: u64,
    /// Modeled completion time in seconds (platform runs; 0.0 for
    /// sequential scenarios, where only wall time is meaningful).
    pub modeled_s: f64,
    /// The run's kernel counters.
    pub stats: KernelStats,
}

/// A built scenario: every call executes the workload once.
pub type Run = Box<dyn FnMut() -> ScenarioOutcome>;

/// The default denominator: events processed, plus ops executed (zero
/// unless compiled) — a block activation sweeps many gate evaluations per
/// kernel event, so events alone would overstate the per-unit cost of
/// useful work (ns/(op+event) is the comparable unit — see
/// docs/TELEMETRY.md).
fn work(s: &KernelStats) -> u64 {
    s.ops_executed + s.events_processed
}

/// The hotspot denominator: events *committed*. The useful work is
/// identical within a static/dynamic pair, processed counts are not
/// (rollback waste is part of what migration removes), so these ns/event
/// are comparable within the pair but not against other rows.
pub fn committed(s: &KernelStats) -> u64 {
    s.events_committed
}

/// Fold a kernel run report into a [`ScenarioOutcome`].
fn outcome<A: Application>(units: fn(&KernelStats) -> u64, rep: &RunReport<A>) -> ScenarioOutcome {
    ScenarioOutcome {
        units: units(&rep.stats),
        modeled_s: rep.outcome.exec_time_s().unwrap_or(0.0),
        stats: rep.stats.clone(),
    }
}

/// The one platform-run constructor: `app` on 4 virtual nodes under
/// `assignment`, with whatever a row adds to the default run.
pub fn platform4<A: Application + 'static>(
    app: A,
    assignment: Vec<u32>,
    pcfg: PlatformConfig,
    lb: Option<DynLbConfig>,
    units: fn(&KernelStats) -> u64,
) -> Run {
    Box::new(move || {
        let mut sim = Simulator::new(&app).platform_config(&pcfg);
        if let Some(lb) = lb {
            sim = sim.load_balancer(lb);
        }
        let rep = sim.run(Backend::Platform { assignment: &assignment, nodes: 4 }).unwrap();
        outcome(units, &rep)
    })
}

/// Time a built scenario: ns/unit over `samples` runs, and what the last
/// run measured (every run measures the same — the suite is
/// deterministic).
pub fn measure(samples: usize, run: &mut Run) -> (BenchSummary, ScenarioOutcome) {
    let mut last = ScenarioOutcome::default();
    let summary = bench_events(samples, || {
        last = run();
        last.units
    });
    (summary, last)
}

/// A gate-level workload shared by every row over it: the circuit, its
/// graph, its 4-way multilevel partition (the paper's partitioner) and
/// the horizon.
pub struct GateSetup {
    pub netlist: Netlist,
    graph: CircuitGraph,
    pub part: Partitioning,
    end_time: u64,
}

impl GateSetup {
    fn new(netlist: Netlist, end_time: u64) -> GateSetup {
        let graph = CircuitGraph::from_netlist(&netlist);
        let part = MultilevelPartitioner.partition(&graph, 4, 0);
        GateSetup { netlist, graph, part, end_time }
    }

    /// The suite's synthetic ISCAS-class circuit, ~10× smaller at smoke
    /// size.
    pub fn synthetic(smoke: bool) -> GateSetup {
        let (gates, end_time) = if smoke { (150, 80) } else { (800, 150) };
        GateSetup::new(IscasSynth::small(gates, 3).build(), end_time)
    }

    pub fn config(&self, exec: ExecModel, replication: Option<ReplicationConfig>) -> SimConfig {
        SimConfig { end_time: self.end_time, exec, replication, ..Default::default() }
    }

    /// On the sequential executive — pure event-queue throughput, no Time
    /// Warp machinery — which has no placement constraint: in compiled
    /// mode the whole circuit is one fused block and every combinational
    /// edge is internal.
    fn sequential(&self, exec: ExecModel) -> Run {
        let app = self.config(exec, None).build_app(&self.netlist);
        Box::new(move || outcome(work, &Simulator::new(&app).run(Backend::Sequential).unwrap()))
    }

    /// On 4 virtual nodes under the multilevel partition; compiled blocks
    /// align with the placement (only DFF/PI/boundary edges become kernel
    /// messages) and replicas are planned against it.
    fn platform4(
        &self,
        exec: ExecModel,
        replication: Option<ReplicationConfig>,
        pcfg: PlatformConfig,
    ) -> Run {
        let app = self.config(exec, replication).build_app_partitioned(
            &self.netlist,
            &self.graph,
            &self.part,
        );
        let assignment = app.lp_assignment(&self.part.assignment);
        platform4(app, assignment, pcfg, None, work)
    }
}

fn with_kernel(kernel: KernelConfig) -> PlatformConfig {
    PlatformConfig { kernel, ..Default::default() }
}

/// Build the suite, in `BENCH_kernel.json` key order. `smoke` shrinks
/// every workload (~10×) for the CI perf-smoke step; the full size is what
/// `BENCH_kernel.json` records.
pub fn kernel_scenarios(smoke: bool) -> Vec<(&'static str, Run)> {
    let scale = |full: u64, small: u64| if smoke { small } else { full };
    let gates = GateSetup::synthetic(smoke);
    // Clock-tree-heavy circuit: a broadcast buffer tree whose leaves each
    // gate a logic cluster — the fanout shape that puts a floor under
    // cut-only partitioning (a leaf driving a split cluster costs messages
    // per toggle no matter where it sits).
    let clocktree = GateSetup::new(ClockTreeSynth::platform_demo().build(), scale(150, 60));
    let (scalar, compiled) =
        (ExecModel::GatePerLp, ExecModel::CompiledBlocks(CompileOptions::default()));
    let default = PlatformConfig::default();
    let lazy = |window, checkpoint_interval| {
        with_kernel(KernelConfig {
            cancellation: Cancellation::Lazy,
            window,
            checkpoint_interval,
            ..Default::default()
        })
    };

    // PHOLD on an adversarial (striped) assignment.
    let phold = |population_per_lp, mean_delay, locality_pct, horizon, seed, pcfg| {
        let lps = scale(48, 16) as usize;
        let model = Phold { lps, population_per_lp, mean_delay, locality_pct, horizon, seed };
        platform4(model, striped(lps, 4), pcfg, None, work)
    };
    // The rotating hotspot from the same starting placement — round-robin
    // striped, the *best* static choice for this workload (block loses ~2×
    // to imbalance; see the report's load-balancing section for the full
    // table). Host timing alone cannot separate a static/dynamic pair (the
    // virtual platform runs the same host work either way); the recorded
    // `modeled_s` makespan is where migration's win shows up.
    let hotspot = |dynamic: bool| {
        let (model, pcfg, lb) = hotspot_setup(smoke);
        let lb = dynamic.then_some(lb);
        platform4(model, round_robin(model.lps, 4), pcfg, lb, committed)
    };

    vec![
        ("sequential_gates", gates.sequential(scalar.clone())),
        ("sequential_gates_compiled", gates.sequential(compiled.clone())),
        // The "normal" optimistic workload.
        ("gates_platform4", gates.platform4(scalar.clone(), None, default)),
        // The kernel config exploits a compiled-mode property: a
        // re-executed block regenerates *value-identical* boundary messages
        // (sweeps are deterministic functions of committed input history),
        // so lazy cancellation suppresses nearly all anti-messages (~97% on
        // this workload) instead of cancelling and resending. A bounded
        // optimism window plus sparse checkpoints then caps how much block
        // re-execution a straggler can trigger. Gate-per-LP keeps the
        // default aggressive config — lazy cancellation does not change its
        // wall time, because per-gate re-execution rarely reproduces the
        // same outputs in the same order.
        ("gates_platform4_compiled", gates.platform4(compiled, None, lazy(Some(4), 3))),
        // `gates_platform4` plus bounded logic replication: the planner
        // duplicates profitable boundary cones into their reading parts.
        // Replica LPs evaluate locally, so their home copies' boundary
        // messages disappear (`messages_saved`); compare `app_messages`
        // against `gates_platform4` for the paper's Figure-5 axis.
        (
            "gates_platform4_replicated",
            gates.platform4(scalar.clone(), Some(scenario_replication()), default),
        ),
        // The clock tree without and with replication; the replicated run
        // should collapse most boundary traffic (replicating one buffer
        // into a reading part erases a whole cluster's worth of crossing
        // pins).
        ("clocktree_platform4", clocktree.platform4(scalar.clone(), None, default)),
        (
            "clocktree_platform4_replicated",
            clocktree.platform4(scalar, Some(ReplicationConfig::default()), default),
        ),
        // Low locality: most forwards cross node boundaries, so
        // late-arriving remote events constantly roll LPs back. Exercises
        // the event pool, the rollback/coast-forward path and the pending
        // queue under churn.
        ("straggler_heavy", phold(4, 4, 10, scale(1500, 300), 0xF01D, default)),
        // Zero locality, dense timestamps and a long-latency wire (~4.4×
        // the default: deep speculation) under aggressive cancellation —
        // rollbacks cancel in-flight outputs, so anti-messages chase
        // positives across nodes and the annihilation paths (pending +
        // processed lookups) run hot.
        ("anti_heavy", {
            let cost = CostModel { net_latency_ns: 400_000, ..CostModel::default() };
            phold(6, 2, 0, scale(1000, 250), 0xA171, PlatformConfig { cost, ..default })
        }),
        // Lazy cancellation with sparse checkpoints: the pending_cancel
        // regeneration filter plus coast-forward replay dominate.
        ("lazy_sparse_ckpt", phold(4, 4, 10, scale(1000, 250), 0x1A2B, lazy(None, 4))),
        ("dynlb_hotspot_static", hotspot(false)),
        ("dynlb_hotspot_dynamic", hotspot(true)),
    ]
}

fn striped(n: usize, parts: usize) -> Vec<u32> {
    // Deterministic pseudo-random assignment: neighbours usually land on
    // different nodes, so ring/forward traffic crosses boundaries.
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            (h % parts as u64) as u32
        })
        .collect()
}

/// The replication bounds of `gates_platform4_replicated`: wider than
/// [`ReplicationConfig::default`] — singleton boundary pull-backs are
/// allowed (`min_fanout: 1`, zero evaluation cost) and the cone passes run
/// until fixpoint — because the scenario exists to show the message
/// ceiling replication reaches on a cut the multilevel pipeline has
/// already minimized.
fn scenario_replication() -> ReplicationConfig {
    ReplicationConfig { budget_per_part: 128, min_fanout: 1, max_fanin: 5, gate_cost: 0, passes: 4 }
}

/// Round-robin assignment: perfect load spread, worst-case locality
/// (every ring edge crosses a node boundary).
pub fn round_robin(n: usize, parts: usize) -> Vec<u32> {
    (0..n).map(|i| (i % parts) as u32).collect()
}

/// The shared workload of the `dynlb_hotspot_*` rows (and the report's
/// load-balancing section): a rotating hot window over a 4-node ring, with
/// a GVT cadence tight enough for the balancer to track the rotation, a
/// bounded optimism window so migration shocks cannot snowball into deep
/// rollbacks, and a balancing period of ~once per hot-window shift.
pub fn hotspot_setup(smoke: bool) -> (RotatingHotspot, PlatformConfig, DynLbConfig) {
    let model = if smoke {
        RotatingHotspot {
            lps: 32,
            phases: 3,
            phase_len: 150,
            hot_width: 8,
            hot_factor: 8,
            work_hops: 9,
            ..Default::default()
        }
    } else {
        RotatingHotspot {
            phase_len: 200,
            hot_width: 14,
            hot_factor: 8,
            work_hops: 15,
            ..Default::default()
        }
    };
    let pcfg = with_kernel(KernelConfig { gvt_period: 4, window: Some(4), ..Default::default() });
    let lb = DynLbConfig { period: 16, ..Default::default() };
    (model, pcfg, lb)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The premise of the `dynlb_hotspot_*` pair: on the same workload
    /// and the same starting placement, dynamic balancing must finish
    /// sooner than static — and without touching the useful (committed)
    /// work.
    #[test]
    fn dynamic_balancing_beats_the_static_placement() {
        let run = |dynlb: bool| {
            let (model, pcfg, lb) = hotspot_setup(true);
            let assignment = round_robin(model.lps, 4);
            let mut sim = Simulator::new(&model).platform_config(&pcfg);
            if dynlb {
                sim = sim.load_balancer(lb);
            }
            sim.run(Backend::Platform { assignment: &assignment, nodes: 4 }).unwrap()
        };
        let fixed = run(false);
        let balanced = run(true);
        assert_eq!(
            fixed.stats.events_committed, balanced.stats.events_committed,
            "migration must not change the committed history"
        );
        assert!(balanced.stats.migrations > 0, "the balancer must actually act");
        let (fixed_s, balanced_s) = (
            fixed.outcome.exec_time_s().expect("platform run"),
            balanced.outcome.exec_time_s().expect("platform run"),
        );
        assert!(
            balanced_s < fixed_s,
            "dynamic ({balanced_s:.4}s) must beat static ({fixed_s:.4}s) on the hotspot"
        );
    }
}
