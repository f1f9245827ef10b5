//! The kernel benchmark scenario suite shared by `benches/kernel.rs` and
//! the `bench_kernel` binary (which writes `BENCH_kernel.json`, the perf
//! trajectory tracked across PRs — see `docs/TELEMETRY.md`).
//!
//! Every scenario is deterministic (virtual-platform or sequential
//! executive, fixed seeds), so the only run-to-run variance is the host
//! machine — ns/event medians are comparable within one machine.

use pls_gatesim::{CompileOptions, ExecModel, SimConfig};
use pls_netlist::{ClockTreeSynth, IscasSynth};
use pls_partition::{CircuitGraph, MultilevelPartitioner, Partitioner, ReplicationConfig};
use pls_timewarp::{
    Application, Backend, Cancellation, CostModel, DynLbConfig, FaultKind, FaultPlan,
    FaultScenario, KernelConfig, KernelStats, Phold, PlatformConfig, RotatingHotspot, RunReport,
    Simulator,
};

/// What one scenario execution measured. `units` is the ns/unit
/// denominator (events, or ops+events for compiled scenarios); the rest
/// disambiguates pairs whose host timing is indistinguishable — the
/// modeled makespan separates `dynlb_hotspot_static/dynamic`, and the
/// message counts in `stats` separate the replication on/off pairs.
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

/// One named, repeatable kernel workload. `run` executes it once and
/// returns what it measured.
pub struct KernelScenario {
    /// Stable scenario name (the `BENCH_kernel.json` key).
    pub name: &'static str,
    /// Execute the workload once.
    pub run: Box<dyn FnMut() -> ScenarioOutcome>,
}

/// Fold a kernel run report into a [`ScenarioOutcome`].
fn sample<A: Application>(units: u64, rep: &RunReport<A>) -> ScenarioOutcome {
    ScenarioOutcome {
        units,
        modeled_s: rep.outcome.exec_time_s().unwrap_or(0.0),
        stats: rep.stats.clone(),
    }
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

/// The replication bounds used by the `*_replicated` scenarios: wider
/// than [`ReplicationConfig::default`] — singleton boundary pull-backs
/// are allowed (`min_fanout: 1`, zero evaluation cost) and the cone
/// passes run until fixpoint — because the scenario exists to show the
/// message ceiling replication reaches on a cut the multilevel pipeline
/// has already minimized.
pub fn scenario_replication() -> ReplicationConfig {
    ReplicationConfig { budget_per_part: 128, min_fanout: 1, max_fanin: 5, gate_cost: 0, passes: 4 }
}

/// Build the benchmark suite. `smoke` shrinks every workload (~10×) for
/// the CI perf-smoke step; the full size is what `BENCH_kernel.json`
/// records.
pub fn kernel_scenarios(smoke: bool) -> Vec<KernelScenario> {
    let mut out: Vec<KernelScenario> = Vec::new();
    let scale = |full: u64, small: u64| if smoke { small } else { full };

    // 1. Sequential gate-level baseline: pure event-queue throughput, no
    //    Time Warp machinery.
    {
        let gates = scale(800, 150) as usize;
        let netlist = IscasSynth::small(gates, 3).build();
        let cfg = SimConfig { end_time: scale(150, 80), ..Default::default() };
        let app = cfg.build_app(&netlist);
        out.push(KernelScenario {
            name: "sequential_gates",
            run: Box::new(move || {
                let rep = Simulator::new(&app).run(Backend::Sequential).unwrap();
                sample(rep.stats.events_processed, &rep)
            }),
        });
    }

    // 1b. Same workload on the compiled gate-block engine. The sequential
    //    executive has no placement constraint, so the canonical compiled
    //    configuration is one fused block (`CompileOptions::default()`):
    //    every combinational edge is internal. The denominator adds ops to
    //    events: a block activation sweeps many gate evaluations per
    //    kernel event, so events alone would overstate the per-unit cost
    //    of useful work (ns/(op+event) is the comparable unit — see
    //    docs/TELEMETRY.md).
    {
        let gates = scale(800, 150) as usize;
        let netlist = IscasSynth::small(gates, 3).build();
        let mut cfg = SimConfig { end_time: scale(150, 80), ..Default::default() };
        cfg.exec = ExecModel::CompiledBlocks(CompileOptions::default());
        let app = cfg.build_app(&netlist);
        out.push(KernelScenario {
            name: "sequential_gates_compiled",
            run: Box::new(move || {
                let rep = Simulator::new(&app).run(Backend::Sequential).unwrap();
                sample(rep.stats.ops_executed + rep.stats.events_processed, &rep)
            }),
        });
    }

    // 2. Gate-level circuit on 4 virtual nodes with the paper's multilevel
    //    partitioner: the "normal" optimistic workload.
    {
        let gates = scale(800, 150) as usize;
        let netlist = IscasSynth::small(gates, 3).build();
        let graph = CircuitGraph::from_netlist(&netlist);
        let cfg = SimConfig { end_time: scale(150, 80), ..Default::default() };
        let app = cfg.build_app(&netlist);
        let part = MultilevelPartitioner::default().partition(&graph, 4, 0);
        out.push(KernelScenario {
            name: "gates_platform4",
            run: Box::new(move || {
                let rep = Simulator::new(&app)
                    .run(Backend::Platform { assignment: &part.assignment, nodes: 4 })
                    .unwrap();
                sample(rep.stats.events_processed, &rep)
            }),
        });
    }

    // 2b. The same 4-node optimistic run on the compiled engine: blocks
    //    align with the placement, so only DFF/PI/boundary edges become
    //    kernel messages. Denominator as in 1b.
    //
    //    The kernel config exploits a compiled-mode property: a
    //    re-executed block regenerates *value-identical* boundary
    //    messages (sweeps are deterministic functions of committed input
    //    history), so lazy cancellation suppresses nearly all
    //    anti-messages (~97% on this workload) instead of cancelling and
    //    resending. A bounded optimism window plus sparse checkpoints
    //    then caps how much block re-execution a straggler can trigger.
    //    Gate-per-LP (scenario 2) keeps the default aggressive config —
    //    lazy cancellation does not change its wall time, because
    //    per-gate re-execution rarely reproduces the same outputs in the
    //    same order. Precedent for per-scenario kernel configs: the
    //    dynlb scenarios below.
    {
        let gates = scale(800, 150) as usize;
        let netlist = IscasSynth::small(gates, 3).build();
        let graph = CircuitGraph::from_netlist(&netlist);
        let part = MultilevelPartitioner::default().partition(&graph, 4, 0);
        let mut cfg = SimConfig { end_time: scale(150, 80), ..Default::default() };
        cfg.exec =
            ExecModel::CompiledBlocks(CompileOptions { blocks: Some(part.assignment.clone()) });
        let app = cfg.build_app(&netlist);
        let assignment = app.lp_assignment(&part.assignment);
        let pcfg = PlatformConfig {
            kernel: KernelConfig {
                cancellation: Cancellation::Lazy,
                window: Some(4),
                checkpoint_interval: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        out.push(KernelScenario {
            name: "gates_platform4_compiled",
            run: Box::new(move || {
                let rep = Simulator::new(&app)
                    .platform_config(&pcfg)
                    .run(Backend::Platform { assignment: &assignment, nodes: 4 })
                    .unwrap();
                sample(rep.stats.ops_executed + rep.stats.events_processed, &rep)
            }),
        });
    }

    // 2c. Scenario 2 plus bounded logic replication: the same circuit,
    //    the same multilevel partitioning, with the replication planner
    //    duplicating profitable boundary cones into their reading parts.
    //    Replica LPs evaluate locally, so their home copies' boundary
    //    messages disappear (`messages_saved`); compare `app_messages`
    //    against scenario 2 for the paper's Figure-5 axis.
    {
        let gates = scale(800, 150) as usize;
        let netlist = IscasSynth::small(gates, 3).build();
        let graph = CircuitGraph::from_netlist(&netlist);
        let part = MultilevelPartitioner::default().partition(&graph, 4, 0);
        let mut cfg = SimConfig { end_time: scale(150, 80), ..Default::default() };
        cfg.replication = Some(scenario_replication());
        let app = cfg.build_app_partitioned(&netlist, &graph, &part);
        let assignment = app.lp_assignment(&part.assignment);
        out.push(KernelScenario {
            name: "gates_platform4_replicated",
            run: Box::new(move || {
                let rep = Simulator::new(&app)
                    .run(Backend::Platform { assignment: &assignment, nodes: 4 })
                    .unwrap();
                sample(rep.stats.events_processed, &rep)
            }),
        });
    }

    // 2d & 2e. Clock-tree-heavy circuit: a broadcast buffer tree whose
    //    leaves each gate a logic cluster — the fanout shape that puts a
    //    floor under cut-only partitioning (a leaf driving a split
    //    cluster costs messages per toggle no matter where it sits).
    //    Run without and with replication; the replicated run should
    //    collapse most boundary traffic (replicating one buffer into a
    //    reading part erases a whole cluster's worth of crossing pins).
    {
        let netlist = ClockTreeSynth::platform_demo().build();
        let graph = CircuitGraph::from_netlist(&netlist);
        let part = MultilevelPartitioner::default().partition(&graph, 4, 0);
        let cfg = SimConfig { end_time: scale(150, 60), ..Default::default() };
        let app = cfg.build_app(&netlist);
        out.push(KernelScenario {
            name: "clocktree_platform4",
            run: Box::new(move || {
                let rep = Simulator::new(&app)
                    .run(Backend::Platform { assignment: &part.assignment, nodes: 4 })
                    .unwrap();
                sample(rep.stats.events_processed, &rep)
            }),
        });
    }
    {
        let netlist = ClockTreeSynth::platform_demo().build();
        let graph = CircuitGraph::from_netlist(&netlist);
        let part = MultilevelPartitioner::default().partition(&graph, 4, 0);
        let mut cfg = SimConfig { end_time: scale(150, 60), ..Default::default() };
        cfg.replication = Some(ReplicationConfig::default());
        let app = cfg.build_app_partitioned(&netlist, &graph, &part);
        let assignment = app.lp_assignment(&part.assignment);
        out.push(KernelScenario {
            name: "clocktree_platform4_replicated",
            run: Box::new(move || {
                let rep = Simulator::new(&app)
                    .run(Backend::Platform { assignment: &assignment, nodes: 4 })
                    .unwrap();
                sample(rep.stats.events_processed, &rep)
            }),
        });
    }

    // 3. Straggler-heavy: PHOLD with low locality on an adversarial
    //    (striped) assignment — most forwards cross node boundaries, so
    //    late-arriving remote events constantly roll LPs back. Exercises
    //    the event pool, the rollback/coast-forward path and the pending
    //    queue under churn.
    {
        let model = Phold {
            lps: scale(48, 16) as usize,
            population_per_lp: 4,
            mean_delay: 4,
            locality_pct: 10,
            horizon: scale(1500, 300),
            seed: 0xF01D,
        };
        let assignment = striped(model.lps, 4);
        out.push(KernelScenario {
            name: "straggler_heavy",
            run: Box::new(move || {
                let rep = Simulator::new(&model)
                    .run(Backend::Platform { assignment: &assignment, nodes: 4 })
                    .unwrap();
                sample(rep.stats.events_processed, &rep)
            }),
        });
    }

    // 4. Anti-heavy: zero locality, dense timestamps and a long-latency
    //    wire, under aggressive cancellation — rollbacks cancel in-flight
    //    outputs, so anti-messages chase positives across nodes and the
    //    annihilation paths (pending + processed lookups) run hot.
    {
        let model = Phold {
            lps: scale(48, 16) as usize,
            population_per_lp: 6,
            mean_delay: 2,
            locality_pct: 0,
            horizon: scale(1000, 250),
            seed: 0xA171,
        };
        let assignment = striped(model.lps, 4);
        let cost = CostModel {
            net_latency_ns: 400_000, // ~4.4× the default: deep speculation
            ..CostModel::default()
        };
        let pcfg = PlatformConfig {
            kernel: KernelConfig { cancellation: Cancellation::Aggressive, ..Default::default() },
            cost,
            state_limit_per_node: None,
        };
        out.push(KernelScenario {
            name: "anti_heavy",
            run: Box::new(move || {
                let rep = Simulator::new(&model)
                    .platform_config(&pcfg)
                    .run(Backend::Platform { assignment: &assignment, nodes: 4 })
                    .unwrap();
                sample(rep.stats.events_processed, &rep)
            }),
        });
    }

    // 5. Lazy cancellation with sparse checkpoints: the pending_cancel
    //    regeneration filter plus coast-forward replay dominate.
    {
        let model = Phold {
            lps: scale(48, 16) as usize,
            population_per_lp: 4,
            mean_delay: 4,
            locality_pct: 10,
            horizon: scale(1000, 250),
            seed: 0x1A2B,
        };
        let assignment = striped(model.lps, 4);
        let pcfg = PlatformConfig {
            kernel: KernelConfig {
                cancellation: Cancellation::Lazy,
                checkpoint_interval: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        out.push(KernelScenario {
            name: "lazy_sparse_ckpt",
            run: Box::new(move || {
                let rep = Simulator::new(&model)
                    .platform_config(&pcfg)
                    .run(Backend::Platform { assignment: &assignment, nodes: 4 })
                    .unwrap();
                sample(rep.stats.events_processed, &rep)
            }),
        });
    }

    // 6 & 7. Rotating hotspot, static vs dynamic: the same workload and
    //    the same starting placement — round-robin striped, the *best*
    //    static choice for this workload (block loses ~2× to imbalance;
    //    see the `dynlb` binary for the full table) — with dynamic load
    //    balancing off and on. Unlike the other scenarios these divide by
    //    events *committed* (the useful work is identical between the
    //    pair, processed counts are not — rollback waste is part of what
    //    migration removes), so their ns/event is comparable within the
    //    pair but not against scenarios 1–5. Host timing alone cannot
    //    separate the pair (the virtual platform runs the same host
    //    work either way); the recorded `modeled_s` makespan is where
    //    migration's win shows up.
    {
        let (model, pcfg, _) = hotspot_setup(smoke);
        let assignment = round_robin(model.lps, 4);
        out.push(KernelScenario {
            name: "dynlb_hotspot_static",
            run: Box::new(move || {
                let rep = Simulator::new(&model)
                    .platform_config(&pcfg)
                    .run(Backend::Platform { assignment: &assignment, nodes: 4 })
                    .unwrap();
                sample(rep.stats.events_committed, &rep)
            }),
        });
    }
    {
        let (model, pcfg, lb) = hotspot_setup(smoke);
        let assignment = round_robin(model.lps, 4);
        out.push(KernelScenario {
            name: "dynlb_hotspot_dynamic",
            run: Box::new(move || {
                let rep = Simulator::new(&model)
                    .platform_config(&pcfg)
                    .load_balancer(lb)
                    .run(Backend::Platform { assignment: &assignment, nodes: 4 })
                    .unwrap();
                sample(rep.stats.events_committed, &rep)
            }),
        });
    }

    // 8 & 9. Sick node: the same hotspot workload with a whole-run 6×
    //    CPU slowdown injected on node 1 by the chaos subsystem. The
    //    static placement stays pinned to the degraded node; the dynamic
    //    balancer charges the fault time to the resident LPs'
    //    `fault_penalty` and routes them off it, so the modeled makespan
    //    separates the pair (committed work is identical either way —
    //    faults never change results). Denominator and caveats as in
    //    scenarios 6 & 7.
    {
        let (model, pcfg, _) = hotspot_setup(smoke);
        let assignment = round_robin(model.lps, 4);
        let plan = sick_node_plan();
        out.push(KernelScenario {
            name: "dynlb_hotspot_sick_node_static",
            run: Box::new(move || {
                let rep = Simulator::new(&model)
                    .platform_config(&pcfg)
                    .fault_plan(plan.clone())
                    .run(Backend::Platform { assignment: &assignment, nodes: 4 })
                    .unwrap();
                sample(rep.stats.events_committed, &rep)
            }),
        });
    }
    {
        let (model, pcfg, lb) = hotspot_setup(smoke);
        let assignment = round_robin(model.lps, 4);
        let plan = sick_node_plan();
        out.push(KernelScenario {
            name: "dynlb_hotspot_sick_node_dynamic",
            run: Box::new(move || {
                let rep = Simulator::new(&model)
                    .platform_config(&pcfg)
                    .load_balancer(lb)
                    .fault_plan(plan.clone())
                    .run(Backend::Platform { assignment: &assignment, nodes: 4 })
                    .unwrap();
                sample(rep.stats.events_committed, &rep)
            }),
        });
    }

    out
}

/// Round-robin assignment: perfect load spread, worst-case locality
/// (every ring edge crosses a node boundary).
pub fn round_robin(n: usize, parts: usize) -> Vec<u32> {
    (0..n).map(|i| (i % parts) as u32).collect()
}

/// The shared workload of the `dynlb_hotspot_*` pair (and the `dynlb`
/// comparison binary): a rotating hot window over a 4-node ring, with a
/// GVT cadence tight enough for the balancer to track the rotation, a
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
    let pcfg = PlatformConfig {
        kernel: KernelConfig { gvt_period: 4, window: Some(4), ..Default::default() },
        ..Default::default()
    };
    let lb = DynLbConfig { period: 16, ..Default::default() };
    (model, pcfg, lb)
}

/// The fault plan of the `dynlb_hotspot_sick_node_*` pair: node 1 runs
/// its modeled CPU 6× slower for the whole simulation. Deterministic
/// (no sampled scenarios), so the seed is cosmetic.
pub fn sick_node_plan() -> FaultPlan {
    FaultPlan::new(0x51CC).scenario(FaultScenario {
        node: 1,
        start_ns: 0,
        end_ns: u64::MAX,
        kind: FaultKind::NodeSlow { factor: 6 },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The premise of the sick-node scenario pair: on the same workload,
    /// the same placement, and the same degraded node, dynamic balancing
    /// must finish sooner than static — and without touching the useful
    /// (committed) work.
    #[test]
    fn dynamic_balancing_escapes_the_sick_node() {
        let run = |dynlb: bool| {
            let (model, pcfg, lb) = hotspot_setup(true);
            let assignment = round_robin(model.lps, 4);
            let mut sim =
                Simulator::new(&model).platform_config(&pcfg).fault_plan(sick_node_plan());
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
            "dynamic ({balanced_s:.4}s) must beat static ({fixed_s:.4}s) on a sick node"
        );
    }
}
