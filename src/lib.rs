//! # parlogsim — Multilevel Partitioning for Parallel Logic Simulation
//!
//! A full-stack Rust reproduction of *"Study of a Multilevel Approach to
//! Partitioning for Parallel Logic Simulation"* (S. Subramanian, D. M.
//! Rao, P. A. Wilsey — IPPS 2000): an optimistic (Time Warp) parallel
//! gate-level logic simulator plus the six circuit partitioning strategies
//! the paper studies, with a benchmark harness that regenerates every
//! table and figure of its evaluation.
//!
//! The stack, bottom up:
//!
//! | Crate | Role (paper analog) |
//! |---|---|
//! | [`netlist`] | circuit graphs, ISCAS'89 `.bench` I/O, synthetic benchmarks (the elaborated design) |
//! | [`logic`] | four-valued signal logic, delays, stimulus (TYVIS semantics) |
//! | [`partition`] | Random / Topological / DFS / Cluster / Cone / **Multilevel** partitioners |
//! | [`timewarp`] | the Time Warp kernel: sequential, threaded and virtual-platform executives (WARPED) |
//! | [`gatesim`] | gates as logical processes + the experiment driver (TYVIS glue) |
//!
//! # Quickstart
//!
//! ```
//! use parlogsim::prelude::*;
//!
//! // A synthetic ISCAS'89-class circuit (use `bench_format::parse` for
//! // real .bench files).
//! let netlist = IscasSynth::small(200, 42).build();
//! let graph = CircuitGraph::from_netlist(&netlist);
//!
//! // Partition it 4 ways with the paper's multilevel heuristic.
//! let part = MultilevelPartitioner::default().partition(&graph, 4, 0);
//! let quality = parlogsim::partition::metrics::quality(&graph, &part);
//! assert!(quality.imbalance < 1.15);
//!
//! // Simulate on 4 virtual workstations and compare with sequential.
//! let cfg = SimConfig { end_time: 120, ..Default::default() };
//! let seq = run_seq_baseline(&netlist, &cfg);
//! let par = Cell::new(&netlist, &graph, &cfg).nodes(4).run_with(&part, "Multilevel");
//! assert_eq!(seq.events, par.stats.events_committed);
//!
//! // Same run with the compiled gate-block engine: blocks are derived
//! // from the partitioning. Fewer kernel events flow (cone-internal
//! // edges are fused away), but the committed per-gate history — checked
//! // here against a compiled-mode sequential run — is identical.
//! let mut compiled_cfg = cfg.clone();
//! compiled_cfg.exec = ExecModel::CompiledBlocks(CompileOptions::default());
//! let fused =
//!     Cell::new(&netlist, &graph, &compiled_cfg).nodes(4).checked().run_with(&part, "Multilevel");
//! assert!(fused.stats.events_committed < seq.events, "fused cones internalize events");
//! assert!(fused.stats.ops_executed > 0);
//! ```

pub use pls_gatesim as gatesim;
pub use pls_logic as logic;
pub use pls_netlist as netlist;
pub use pls_partition as partition;
pub use pls_timewarp as timewarp;

/// The common imports for working with the full stack.
pub mod prelude {
    pub use pls_gatesim::{
        run_seq_baseline, BlockState, Cell, CompileOptions, CompiledSim, ExecModel, GateModel,
        GateMsg, GateSim, GateState, ModelState, RunMetrics, SeqMetrics, SimConfig,
        UnknownExecModel,
    };
    pub use pls_logic::{eval_gate, DelayModel, StimulusConfig, Value};
    pub use pls_netlist::{
        bench_format, levelize, CircuitStats, ClockTreeSynth, GateId, GateKind, IscasSynth,
        Netlist, NetlistBuilder,
    };
    pub use pls_partition::{
        all_partitioners, metrics, partitioner_by_name, partitioner_names, plan_replication,
        CircuitGraph, ClusterPartitioner, ConePartitioner, DfsPartitioner, MultilevelPartitioner,
        Partitioner, Partitioning, RandomPartitioner, ReplicaPlan, ReplicationConfig,
        TopologicalPartitioner,
    };
    pub use pls_timewarp::{
        Application, Backend, Cancellation, CostModel, DynLbConfig, EventSink, FaultKind,
        FaultPlan, FaultScenario, KernelConfig, KernelStats, LpId, NoProbe, Outcome,
        PlatformConfig, Probe, RunReport, SimError, Simulator, TimeSeries, VTime,
    };
}
