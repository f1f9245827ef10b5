//! Exhaustive interleaving model checking of the threaded executive's
//! own code.
//!
//! Runtime tools (the `detcheck` golden diff, stress tests) only
//! witness the schedules the OS happens to produce. This module instead
//! *enumerates every schedule* of a small run — in the tradition of loom
//! and of the FoundationDB/desim recipe of running the real node code
//! under a deterministic scheduler — and asserts safety invariants at
//! every reachable state. It is layered:
//!
//! * [`ProtocolModel`] — the trait a checkable protocol implements:
//!   initial state, enabled steps, step application, per-state
//!   invariants, termination, and (via the `Hash` bound on its state)
//!   hash-compaction pruning.
//! * [`explore`] — the generic exhaustive DFS explorer over any
//!   [`ProtocolModel`], with deterministic traversal order, scratch-
//!   buffer reuse, and an optional full-state collision guard
//!   ([`ExploreOptions::verify_hashes`]).
//! * [`threads`] — the threaded executive's cluster step function
//!   (`threaded::Lane::step`) over real cores, FIFO queues and a scripted
//!   barrier, with migration between epochs through the real
//!   `evict`/`adopt`. Its tests explore the acceptance configurations,
//!   pin their state spaces, detect both re-injected bug shapes (test-only
//!   hooks in the real code) and walk seeded schedules of larger runs.
//!
//! Test-only: nothing outside this crate's tests uses it.

mod explore;
pub(crate) mod threads;

use std::fmt::Debug;
use std::hash::Hash;

pub(crate) use explore::{explore, explore_with, CheckReport, ExploreOptions};

/// A protocol small enough to check exhaustively.
///
/// The explorer owns the traversal; the model owns the semantics and
/// keeps its runs small enough that every interleaving can be enumerated.
pub(crate) trait ProtocolModel {
    /// Complete protocol state. `Hash` feeds the explorer's 64-bit
    /// hash-compaction pruning; `Eq` backs the optional full-state
    /// collision guard.
    type State: Clone + Eq + Hash;
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
