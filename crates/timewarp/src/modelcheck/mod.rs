//! Exhaustive interleaving model checking for the threaded executive's
//! synchronization protocol.
//!
//! Runtime tools (the `detcheck` golden diff, stress tests) only
//! witness the schedules the OS happens to produce. This module instead
//! *enumerates every schedule* of a small abstracted protocol model — in
//! the tradition of loom and CDSChecker — and asserts safety invariants
//! at every reachable state. It is layered:
//!
//! * [`ProtocolModel`] — the trait a checkable protocol implements:
//!   initial state, enabled steps, step application, per-state
//!   invariants, termination, and (via the `Hash` bound on its state)
//!   hash-compaction pruning.
//! * [`explore`] — the generic exhaustive DFS explorer over any
//!   [`ProtocolModel`], with deterministic traversal order, scratch-
//!   buffer reuse, and an optional full-state collision guard
//!   ([`ExploreOptions::verify_hashes`]).
//! * [`barrier`] — the flush-and-barrier model of the threaded
//!   executive over reliable per-cluster FIFO channels: optimistic
//!   rollback with anti-messages, the repeated drain-round GVT and the
//!   4-phase LP migration handoff from [`crate::dynlb`].
//!
//! Historical bug shapes can be re-injected ([`Bug`]) to prove the
//! checker actually detects them. `crates/timewarp/tests/modelcheck.rs`
//! explores the three acceptance configurations and both bug shapes,
//! and pins their state spaces and counterexamples.

pub mod barrier;
mod explore;

use std::fmt::Debug;
use std::hash::Hash;

pub use barrier::{Bug, ModelConfig, PlannedMove};
pub use explore::{explore, explore_with, CheckReport, Counterexample, ExploreOptions};

/// A protocol small enough to check exhaustively.
///
/// Implementations are *abstracted* state machines of a real protocol:
/// application payloads dropped, workloads scripted, budgets finite —
/// small enough that every scheduler interleaving can be enumerated,
/// faithful enough that a protocol bug still manifests. The explorer
/// owns the traversal; the model owns the semantics.
pub trait ProtocolModel {
    /// Complete protocol state. `Hash` feeds the explorer's 64-bit
    /// hash-compaction pruning; `Eq` backs the optional full-state
    /// collision guard.
    type State: Clone + Eq + Hash + Debug;
    /// One atomic scheduler choice.
    type Step: Copy + Debug;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Append every enabled scheduler choice from `s` to `out`, in a
    /// deterministic order. `out` is a reused scratch buffer: it
    /// arrives cleared and must only be appended to.
    fn enabled(&self, s: &Self::State, out: &mut Vec<Self::Step>);

    /// Apply `step` to `s` in place. Returns the human-readable step
    /// label for counterexample traces, or a violation description if
    /// the step itself exposes a safety failure.
    fn apply(&self, s: &mut Self::State, step: Self::Step) -> Result<String, String>;

    /// Human-readable label for `step`, used when a step itself fails
    /// (successful steps return their label from [`ProtocolModel::apply`]).
    fn label(&self, step: Self::Step) -> String {
        format!("{step:?}")
    }

    /// Safety invariants checked at every reachable state. Returns a
    /// violation description, or `None`.
    fn check_invariants(&self, s: &Self::State) -> Option<String>;

    /// Whether `s` is a legitimate terminal state. A state with no
    /// enabled steps that is *not* terminated is reported as deadlock.
    fn terminated(&self, s: &Self::State) -> bool;

    /// Abort (incomplete) past this many unique states.
    fn max_states(&self) -> usize;

    /// Abort (incomplete) any single schedule longer than this.
    fn max_depth(&self) -> usize;
}
