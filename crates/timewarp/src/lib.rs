//! An optimistic (Time Warp) parallel discrete event simulation kernel —
//! a Rust reimplementation of the role WARPED \[18\] plays in the paper's
//! SAVANT/TYVIS/WARPED stack.
//!
//! Three executives behind one entry point, [`Simulator`]. The two
//! optimistic ones are thin drivers over one cluster engine (`ClusterCore`:
//! schedule, route and commit over [`lp::LpRuntime`]s), and both keep the
//! placement they are given for the whole run:
//!
//! * [`Backend::Sequential`] — a calendar queue, the baseline and
//!   determinism oracle (deliberately shares no code with the others);
//! * [`Backend::Platform`] — a deterministic virtual platform that models
//!   N workstation nodes (CPU cost model + network latency) running the
//!   real Time Warp protocol; all paper tables/figures use this;
//! * [`Backend::Threaded`] — real OS threads, one per cluster, message
//!   channels and synchronized GVT, for machines with actual parallel
//!   hardware.
//!
//! Features: aggressive and lazy cancellation, periodic state saving with
//! coast-forward, batched simultaneous events, exact or synchronized GVT
//! with fossil collection, and one stream of [`ProbeEvent`]s, emitted at
//! every protocol point, that is the kernel's only way of counting:
//! [`KernelStats`] (rollbacks, anti and application messages — the
//! paper's Figures 5 and 6) is a [`Probe`] over it, as are the per-LP
//! [`LpLedger`] and the [`TimeSeries`] recorder, which buckets the events by
//! virtual time and exports JSONL/CSV (see `docs/TELEMETRY.md`). With no
//! probe attached an emit is the `KernelStats` increment alone.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::float_arithmetic, clippy::cast_precision_loss, clippy::cast_possible_truncation)
)]

pub mod app;
pub mod config;
mod core;
pub mod cost;
pub mod event;
pub mod lp;
#[cfg(test)]
mod modelcheck;
pub mod phold;
pub mod platform;
pub mod pool;
pub mod probe;
pub mod sequential;
pub mod series;
pub mod sim;
pub mod stats;
#[cfg(test)]
mod testkit;
pub mod threaded;
pub mod time;

pub use app::{AppWork, Application, EventSink};
pub use config::{Cancellation, KernelConfig};
pub use cost::CostModel;
pub use event::{AntiEvent, Event, EventId, LpId, Transmission};
pub use phold::Phold;
pub use platform::PlatformConfig;
pub use probe::{NoProbe, Probe, ProbeEvent, RollbackKind, Tee};
pub use series::{Bucket, BucketKey, TimeSeries};
pub use sim::{Backend, Outcome, RunReport, SimError, Simulator};
pub use stats::{Counter, KernelStats, LpActivity, LpLedger, Merge};
pub use time::VTime;
