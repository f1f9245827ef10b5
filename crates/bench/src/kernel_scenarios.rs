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
    Application, Backend, Cancellation, CostModel, KernelConfig, KernelStats, Phold,
    PlatformConfig, RunReport, Simulator,
};

use crate::{bench_events, BenchSummary};

/// What one scenario execution measured. `units` is the ns/unit
/// denominator; the rest disambiguates pairs whose host timing is
/// indistinguishable — the message counts in `stats` separate the
/// replication on/off pairs.
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

/// Fold a kernel run report into a [`ScenarioOutcome`].
fn outcome<A: Application>(rep: &RunReport<A>) -> ScenarioOutcome {
    ScenarioOutcome {
        units: work(&rep.stats),
        modeled_s: rep.outcome.exec_time_s().unwrap_or(0.0),
        stats: rep.stats.clone(),
    }
}

/// The one platform-run constructor: `app` on 4 virtual nodes under
/// `assignment`, with whatever a row adds to the default run.
fn platform4<A: Application + 'static>(app: A, assignment: Vec<u32>, pcfg: PlatformConfig) -> Run {
    Box::new(move || {
        let sim = Simulator::new(&app).platform_config(&pcfg);
        outcome(&sim.run(Backend::Platform { assignment: &assignment, nodes: 4 }).unwrap())
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
        Box::new(move || outcome(&Simulator::new(&app).run(Backend::Sequential).unwrap()))
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
        platform4(app, assignment, pcfg)
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
        platform4(model, striped(lps, 4), pcfg)
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
