//! Deterministic chaos: seeded fault & degradation injection for the
//! virtual-platform executive.
//!
//! Real clusters jitter and stall; the platform executive models a
//! healthy one. This module layers a *seeded, byte-reproducible* timing
//! fault model into the platform's cost model and transmission path, in
//! the style of deterministic simulation testing: a [`FaultPlan`] names
//! fault windows (latency spikes and jitter, CPU slowdowns, node pauses),
//! and every sampled decision is a pure hash of the plan seed — so a
//! failure found under chaos replays exactly from the seed. The wire
//! itself stays reliable, as the paper's TCP transport was: faults delay
//! and reorder transmissions but never lose one.
//!
//! The invariant that makes this a correctness tool rather than a demo:
//! faults perturb only *modeled time* and *message counts*. Committed
//! event history — and therefore every detcheck gate-level fingerprint —
//! stays byte-identical to the healthy run, because Time Warp's rollback
//! protocol already guarantees the committed history is independent of
//! message timing. A fingerprint diff under chaos is a protocol bug, not
//! noise. See `DESIGN.md` §2.8 for the fault taxonomy and the GVT-safety
//! argument.

mod plan;
mod runtime;

pub use plan::{
    FaultKind, FaultPlan, FaultScenario, MAX_FAULT_NS, MAX_RANDOM_SCENARIOS, MAX_SLOW_FACTOR,
};

pub(crate) use runtime::ChaosRuntime;
