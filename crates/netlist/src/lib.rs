//! Gate-level circuit graph substrate for parallel logic simulation.
//!
//! This crate provides the directed circuit graph `G = (V, E)` that every
//! partitioning algorithm in the study operates on (vertices = logic gates,
//! edges = interconnecting signals), together with:
//!
//! * an ISCAS'89 [`bench_format`] reader/writer,
//! * [`levelize()`] — topological levelization (the Topological
//!   partitioner's substrate),
//! * [`traverse`] — DFS/BFS gate orders (DFS and Cluster partitioners),
//! * [`generate`] — a deterministic synthetic ISCAS'89-class benchmark
//!   generator matched to the paper's Table 1 characteristics,
//! * [`stats`] — circuit statistics (regenerates Table 1),
//! * [`data`] — embedded miniature fixtures (s27, c17).
//!
//! # Example
//!
//! ```
//! use pls_netlist::{IscasSynth, CircuitStats};
//!
//! let circuit = IscasSynth::s9234().build();
//! let stats = CircuitStats::of(&circuit);
//! assert_eq!(stats.inputs, 36);
//! assert_eq!(stats.gates, 5597);
//! assert_eq!(stats.outputs, 39);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod bench_format;
pub mod data;
pub mod error;
pub mod gate;
pub mod generate;
pub mod levelize;
pub mod netlist;
pub mod stats;
pub mod traverse;

pub use error::NetlistError;
pub use gate::{Gate, GateId, GateKind};
pub use generate::{ClockTreeSynth, IscasSynth};
pub use levelize::{levelize, topo_order, Levelization};
pub use netlist::{Netlist, NetlistBuilder};
pub use stats::CircuitStats;
