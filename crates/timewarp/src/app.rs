//! The application interface: what a simulation model must provide.
//!
//! This plays the role of WARPED's `SimulationObject` base class \[18\]: the
//! kernel owns per-LP state (so it can checkpoint and restore it), and the
//! application provides pure-functional event handlers over that state.
//! Determinism contract: `execute` must be a deterministic function of
//! `(lp, state, now, msgs)` — all randomness must be drawn from state —
//! because Time Warp re-executes events after rollbacks and the re-run
//! must reproduce the original sends exactly.
//!
//! In the kernel crates the toolchain enforces the effect half of this
//! contract: clippy denies I/O, interior-mutability cells, locks and
//! atomics there, `unsafe` (and so a `static mut`) is forbidden, and
//! without interior mutability `&self` cannot be mutated — so every
//! effect of [`Application::execute`] / [`Application::init_events`]
//! lands in the checkpointed `State` or flows through the
//! [`EventSink`]. See `docs/LINTS.md`.
//!
//! *How* state is saved is the application's choice too: by default a
//! checkpoint is a `clone` and a rollback a `clone_from`, and an
//! application whose state is large and changes a little per batch
//! overrides [`Application::checkpoint`] / [`Application::restore`] to
//! save incrementally (compiled gate blocks do).

use crate::event::LpId;
use crate::time::VTime;

/// Application-level work performed during one `execute` call, reported
/// through the [`EventSink`] (the kernel cannot see inside an event
/// handler, so batched-evaluation models — e.g. compiled gate blocks —
/// declare their work here and the kernel emits it as one
/// [`crate::probe::ProbeEvent::AppWork`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppWork {
    /// Block (fused-LP) activations performed.
    pub activations: u64,
    /// Fine-grained operations (e.g. compiled gate evaluations) performed.
    pub ops: u64,
    /// Boundary messages elided by logic replication this batch (a
    /// replica toggled, so its home copy's remote sends to this part
    /// never happen). Folded into `KernelStats::messages_saved`.
    pub saved: u64,
}

/// Buffer through which an LP schedules new events during `execute`.
///
/// The kernel stamps ids and send times; the application only names the
/// destination, the delay (or absolute time during initialization) and the
/// payload.
#[derive(Debug)]
pub struct EventSink<M> {
    now: VTime,
    /// `(dst, recv_time, msg)` collected this call.
    pub(crate) out: Vec<(LpId, VTime, M)>,
    /// Application work declared this call (see [`AppWork`]).
    pub(crate) work: AppWork,
}

impl<M> EventSink<M> {
    pub(crate) fn new(now: VTime) -> EventSink<M> {
        EventSink { now, out: Vec::new(), work: AppWork::default() }
    }

    /// Build a sink on top of a recycled buffer, so the per-batch hot path
    /// reuses one allocation instead of growing a fresh `Vec` every call.
    pub(crate) fn with_buffer(now: VTime, mut out: Vec<(LpId, VTime, M)>) -> EventSink<M> {
        out.clear();
        EventSink { now, out, work: AppWork::default() }
    }

    /// Retarget the sink at a new batch time, discarding collected sends
    /// and declared work (coast-forward replays events without re-emitting,
    /// and replayed work is accounted as `events_coasted`, not as fresh
    /// execution).
    pub(crate) fn reset(&mut self, now: VTime) {
        self.now = now;
        self.out.clear();
        self.work = AppWork::default();
    }

    /// Drain the work counters declared this call (leaves them zeroed).
    pub(crate) fn take_work(&mut self) -> AppWork {
        std::mem::take(&mut self.work)
    }

    /// Reclaim the underlying buffer (emptied) for later reuse.
    pub(crate) fn into_buf(mut self) -> Vec<(LpId, VTime, M)> {
        self.out.clear();
        self.out
    }

    /// The virtual time of the executing event batch.
    pub fn now(&self) -> VTime {
        self.now
    }

    /// Schedule `msg` for `dst` at `now.after(delay)`. `delay` must be
    /// positive — zero-delay events would admit same-time cycles, which
    /// discrete event kernels built on timestamp order cannot execute —
    /// and the receive time finite: a delay that reaches [`VTime::INF`],
    /// which every executive reads as "idle", panics instead of saturating.
    pub fn schedule(&mut self, dst: LpId, delay: u64, msg: M) {
        assert!(delay > 0, "zero-delay events are not allowed");
        self.schedule_at(dst, self.now.after(delay), msg);
    }

    /// Schedule `msg` for `dst` at absolute time `at` (must be `> now` and
    /// finite). Mainly used by `init_events` to seed the event population.
    pub fn schedule_at(&mut self, dst: LpId, at: VTime, msg: M) {
        assert!(at > self.now, "events must be scheduled in the future");
        assert!(!at.is_inf(), "events must be scheduled at a finite time");
        self.out.push((dst, at, msg));
    }

    /// Declare one block activation (a fused LP evaluated its whole
    /// instruction buffer this batch). Folded into
    /// `KernelStats::block_activations` by the executive; rolled-back
    /// batches stay counted, coast-forward replays do not (mirroring
    /// `events_processed` / `events_coasted`).
    pub fn note_block_activation(&mut self) {
        self.work.activations += 1;
    }

    /// Declare `n` fine-grained operations (e.g. compiled gate
    /// evaluations) performed this batch. Folded into
    /// `KernelStats::ops_executed` under the same accounting rules as
    /// [`Self::note_block_activation`].
    pub fn note_ops(&mut self, n: u64) {
        self.work.ops += n;
    }

    /// Declare `n` boundary messages elided by logic replication this
    /// batch (a replica evaluated locally instead of its home copy
    /// sending across the cut). Folded into
    /// `KernelStats::messages_saved` under the same accounting rules as
    /// [`Self::note_block_activation`].
    pub fn note_messages_saved(&mut self, n: u64) {
        self.work.saved += n;
    }

    /// Number of events scheduled so far in this call.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether nothing has been scheduled in this call.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

/// A discrete event simulation model over a fixed population of LPs.
///
/// Implementations are shared by every cluster/thread (`Sync`), so all
/// mutable simulation state must live in `State`. Handlers are
/// rollback-able, so no irreversible effect may be reachable from
/// `execute`/`init_events` (see the module docs).
pub trait Application: Send + Sync + 'static {
    /// Event payload. `PartialEq` is required by lazy cancellation (a
    /// regenerated event annihilates a pending cancellation only if it is
    /// identical); `Clone` because output copies are retained for
    /// cancellation.
    type Msg: Clone + PartialEq + Send + std::fmt::Debug + 'static;
    /// LP state — and the type of its checkpoints, which are full copies
    /// unless [`Self::checkpoint`] says otherwise.
    type State: Clone + Send + 'static;

    /// Total number of LPs (ids are `0..num_lps`).
    fn num_lps(&self) -> usize;

    /// Initial state of an LP at time zero.
    fn init_state(&self, lp: LpId) -> Self::State;

    /// Events to seed the simulation with (called once per LP at startup;
    /// `sink.now()` is [`VTime::ZERO`]).
    fn init_events(&self, lp: LpId, state: &mut Self::State, sink: &mut EventSink<Self::Msg>);

    /// Execute the batch of all messages for `lp` at time `now`. `msgs`
    /// holds `(sender, payload)` pairs in a deterministic order (sorted by
    /// sender id, then send order).
    fn execute(
        &self,
        lp: LpId,
        state: &mut Self::State,
        now: VTime,
        msgs: &[(LpId, Self::Msg)],
        sink: &mut EventSink<Self::Msg>,
    );

    /// File a checkpoint of `live`: return a state that [`Self::restore`]
    /// can later bring `live` back to, built in `spare`'s buffers when the
    /// kernel has a retired checkpoint to recycle (one this method returned
    /// earlier, for *any* LP of the cluster — assume nothing about whose
    /// it was or how big). Called once on the initial state, before any
    /// `execute`, and then after every `checkpoint_interval`-th batch.
    /// Default: a full copy.
    ///
    /// An override may leave out of the checkpoint whatever it can
    /// reconstruct in [`Self::restore`] — typically by keeping an undo log
    /// in `live` (hence `&mut`) and moving the log of the interval this
    /// checkpoint closes into the returned state. The kernel never reads a
    /// checkpoint: it only hands it back to `restore`, to this method as
    /// `spare`, or drops it (fossil collection), so what a checkpoint omits
    /// is the application's business alone. The log must live in `State`
    /// (`execute` writes nowhere else) and must not
    /// feed back: what `execute` sends and computes stays a pure function
    /// of `(lp, state, now, msgs)` whatever the log holds and wherever
    /// checkpoints fell — a coast-forward replays batches across other
    /// checkpoint boundaries than their first execution saw.
    #[inline]
    fn checkpoint(&self, live: &mut Self::State, spare: Option<Self::State>) -> Self::State {
        match spare {
            Some(mut spare) => {
                spare.clone_from(live);
                spare
            }
            None => live.clone(),
        }
    }

    /// Bring `live` back to what it was when `anchor` was filed by
    /// [`Self::checkpoint`]. `undone` holds every checkpoint filed on this
    /// LP after `anchor`, **oldest first** — all of them, with no gaps, so
    /// an undo-log implementation unwinds `live`'s open interval and then
    /// `undone` from the back. The kernel retires `undone` afterwards.
    /// Default: copy `anchor` over `live`.
    #[inline]
    fn restore(&self, live: &mut Self::State, anchor: &Self::State, undone: &[Self::State]) {
        let _ = undone;
        live.clone_from(anchor);
    }

    /// Bytes `state` — a live state or a checkpoint — owns beyond its
    /// inline `size_of::<State>()`: its boxes and buffers. The kernel adds
    /// it up over the checkpoints a cluster files, so that a GVT round
    /// comes due once they pin [`crate::config::CHECKPOINT_HEAP_BUDGET`]
    /// bytes, and prices a migrating LP by it; a retired checkpoint that
    /// owns none is dropped rather than kept for reuse. An override of
    /// [`Self::checkpoint`] that builds in `spare` needs this to report
    /// its states' buffers, or it is never handed one. Default: none.
    #[inline]
    fn heap_bytes(&self, state: &Self::State) -> usize {
        let _ = state;
        0
    }

    /// Number of replicated gates (or other duplicated units) this model
    /// materialised — a static per-run property recorded into
    /// `KernelStats::replicated_gates` at startup. Default: none.
    fn replicated_units(&self) -> u64 {
        0
    }

    /// LPs the dynamic load balancer must never migrate. Replica LPs pin
    /// themselves here: their whole value is residing in the part that
    /// reads them, so migrating one would reintroduce the boundary
    /// messages it exists to remove. Default: none.
    fn pinned_lps(&self) -> Vec<LpId> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_stamps_receive_times() {
        let mut s: EventSink<u8> = EventSink::new(VTime::from(10));
        assert!(s.is_empty());
        s.schedule(3, 5, 42);
        s.schedule_at(4, VTime::from(100), 43);
        assert_eq!(s.len(), 2);
        assert_eq!(s.out[0], (3, VTime::from(15), 42));
        assert_eq!(s.out[1], (4, VTime::from(100), 43));
    }

    #[test]
    #[should_panic]
    fn zero_delay_rejected() {
        let mut s: EventSink<u8> = EventSink::new(VTime::from(10));
        s.schedule(3, 0, 42);
    }

    /// An event at `VTime::INF` would be committed by the sequential
    /// executive and never by the optimistic ones, which read INF as idle.
    #[test]
    #[should_panic(expected = "finite time")]
    fn infinite_delay_rejected() {
        let mut s: EventSink<u8> = EventSink::new(VTime::from(5));
        s.schedule(3, u64::MAX, 42);
    }

    #[test]
    #[should_panic]
    fn scheduling_in_the_past_rejected() {
        let mut s: EventSink<u8> = EventSink::new(VTime::from(10));
        s.schedule_at(3, VTime::from(10), 42);
    }
}
