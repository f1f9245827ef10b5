//! Gate-level logic simulation on the Time Warp kernel — the glue that
//! plays TYVIS's role in the paper's SAVANT/TYVIS/WARPED stack: it maps a
//! circuit netlist onto logical processes, drives stimulus, and measures
//! the quantities the paper's evaluation reports (execution time,
//! application messages, rollbacks).
//!
//! One [`SimConfig`] describes a run; two execution engines sit behind
//! it, selected by [`SimConfig::exec`]:
//!
//! * [`ExecModel::GatePerLp`] — one LP per gate (the classic mode and
//!   determinism oracle);
//! * [`ExecModel::CompiledBlocks`] — one LP per partition block: its
//!   combinational gates fused into a flat topologically-ordered
//!   instruction buffer, its DFFs and primary inputs lowered in-block
//!   too ([`compiled`]).
//!
//! Committed per-gate fingerprints are byte-identical across engines and
//! executives.
//!
//! # Example
//!
//! ```
//! use pls_gatesim::{Cell, SimConfig, run_seq_baseline};
//! use pls_netlist::IscasSynth;
//! use pls_partition::{CircuitGraph, MultilevelPartitioner};
//!
//! let netlist = IscasSynth::small(150, 1).build();
//! let graph = CircuitGraph::from_netlist(&netlist);
//! let cfg = SimConfig { end_time: 100, ..Default::default() };
//! let seq = run_seq_baseline(&netlist, &cfg);
//! let par = Cell::new(&netlist, &graph, &cfg).nodes(4).run(&MultilevelPartitioner);
//! assert!(par.stats.events_committed > 0 && seq.events > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::float_arithmetic, clippy::cast_precision_loss, clippy::cast_possible_truncation)
)]

pub mod activity;
pub mod compiled;
pub mod experiment;
pub mod gatelp;
pub mod model;
pub mod vcd;

pub use activity::{activity_weighted_graph, ActivityProfile};
pub use compiled::{BlockState, CompileError, CompileOptions, CompiledSim};
pub use experiment::{
    run_seq_baseline, run_seq_model, BuildError, Cell, RunMetrics, SeqMetrics, SimConfig,
};
pub use gatelp::{GateMsg, GateSim, GateState};
pub use model::{ExecModel, GateModel, ModelState, UnknownExecModel};
pub use vcd::{write_vcd, WaveRecorder, Waveform};
