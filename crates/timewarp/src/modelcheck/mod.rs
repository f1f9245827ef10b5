//! Exhaustive interleaving model checking for the executives'
//! synchronization protocols.
//!
//! Runtime tools (the `detcheck` golden diff, stress tests) only
//! witness the schedules the OS happens to produce. This module instead
//! *enumerates every schedule* of small abstracted protocol models — in
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
//! * `substrate` (private) — what both protocol models stand on, each
//!   written once: **the wire** (per-cluster FIFO inboxes plus the chaos
//!   subsystem's ack/retransmit recovery protocol — the [`LossBudget`]
//!   both configurations embed, the retransmit records, the dedup set,
//!   the drop / timeout enabling rules, the drain rule, the in-doubt
//!   minimum that bounds GVT, id conservation and the terminal-residue
//!   checks) and **the event queue** (one LP's pending and processed
//!   events under the fixed script, sorted insert, the skewed-delay
//!   successor, the commit-below-GVT sweep).
//! * [`barrier`] — the flush-and-barrier model of the threaded
//!   executive: what is its own is optimistic rollback with
//!   anti-messages, the repeated drain-round GVT and the 4-phase LP
//!   migration handoff from [`crate::dynlb`].
//! * [`async_gvt`] — the asynchronous Mattern two-color token GVT the
//!   future multi-process executive will implement: what is its own is
//!   white/red message coloring, per-cluster send/receive counters, a
//!   circulating token carrying the outstanding-white count and
//!   clock/red-send minima (its loss spends the wire's drop budget), and
//!   a commit wave. The protocol is proved exhaustively at small bounds
//!   *before* any distributed code is written against it.
//!
//! Historical bug shapes can be re-injected ([`Bug`], [`AsyncBug`]) to
//! prove the checker actually detects them. `pls-detlint mc` holds the
//! one table of configurations it explores (nine, five at the small
//! bound) and the one table of bug shapes its self-test must catch;
//! `crates/timewarp/tests/modelcheck.rs` pins the explored state
//! spaces and the counterexamples, `tests/mc_full.golden` the full
//! bound.

pub mod async_gvt;
pub mod barrier;
mod explore;
mod substrate;

use std::fmt::Debug;
use std::hash::Hash;

pub use async_gvt::{AsyncBug, AsyncGvtConfig};
pub use barrier::{Bug, ModelConfig, PlannedMove};
pub use explore::{explore, explore_with, CheckReport, Counterexample, ExploreOptions};
pub use substrate::LossBudget;

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
