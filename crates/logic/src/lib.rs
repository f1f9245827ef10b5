//! Signal-level semantics for gate simulation: four-valued logic, gate
//! evaluation, delay models and deterministic stimulus.
//!
//! This crate plays the role the TYVIS VHDL kernel played in the paper's
//! framework — it defines *what* a gate computes and *when*, while the
//! Time Warp kernel (`pls-timewarp`) decides *where and in what order*
//! events execute.
//!
//! # Example
//!
//! ```
//! use pls_logic::{eval_gate, Value};
//! use pls_netlist::GateKind;
//!
//! assert_eq!(eval_gate(GateKind::Nand, &[Value::V1, Value::V1]), Value::V0);
//! assert_eq!(eval_gate(GateKind::Nand, &[Value::V0, Value::X]), Value::V1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod delay;
pub mod eval;
pub mod stimulus;
pub mod value;

pub use delay::DelayModel;
pub use eval::{eval_gate, PackedPins};
pub use stimulus::{InputStream, StimulusConfig};
pub use value::Value;
