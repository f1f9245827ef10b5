//! Per-LP Time Warp protocol engine: input/output/state queues, rollback
//! with coast-forward, aggressive and lazy cancellation, and fossil
//! collection. This is the part of WARPED every executive shares; the
//! executives differ only in *where* LPs live and *how* transmissions
//! travel between them.

use std::collections::VecDeque;

use crate::app::{AppWork, Application, EventSink};
use crate::config::{Cancellation, KernelConfig};
use crate::event::{AntiEvent, Event, EventId, LpId, Transmission};
use crate::pool::IdHashMap;
use crate::probe::{Probe, ProbeEvent, RollbackKind};
use crate::time::VTime;

/// The order of an LP's event queue: receive time, then event id — within
/// a batch, the `(src, seq)` order its messages reach
/// [`Application::execute`] in.
fn key<M>(e: &Event<M>) -> (VTime, EventId) {
    (e.recv_time, e.id)
}

/// A checkpoint of LP state: at most 16 bytes more than the state.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq, Eq, Hash))]
struct SavedState<S> {
    /// Virtual time of the batch after which this state was saved;
    /// [`VTime::ZERO`] marks the initial (pre-simulation) state. No batch
    /// runs at time 0 ([`EventSink::schedule_at`] files every event after
    /// its sender's now, which is at least 0), so the initial checkpoint
    /// is older than every other.
    tag: VTime,
    /// The event cursor at save time: the processed events it covers
    /// (coast-forward anchor). The oldest checkpoint's is always 0.
    processed_len: u32,
    state: S,
}

/// What only lazy cancellation and non-FIFO transports use, allocated on
/// an LP's first held cancellation or orphan anti. Aggressive cancellation
/// over FIFO transports never allocates it.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
struct Cancels<M> {
    /// Lazy cancellation: outputs cancelled by a rollback, awaiting either
    /// regeneration (annihilate silently) or an explicit anti-message once
    /// LVT passes their send time. Sorted by `send_time`.
    pending_cancel: Vec<Event<M>>,
    /// Held-cancellation count per `(dst, recv_time)`: O(1) rejection in
    /// front of the linear regeneration scan over `pending_cancel` (the
    /// message payload is only `PartialEq`, so a full hash key over the
    /// triple is not available).
    cancel_keys: IdHashMap<(LpId, VTime), u32>,
    /// Anti-messages that arrived before their positives (cannot happen on
    /// FIFO transports, handled for robustness).
    orphan_antis: Vec<AntiEvent>,
}

impl<M> Default for Cancels<M> {
    fn default() -> Self {
        Cancels {
            pending_cancel: Vec::new(),
            cancel_keys: IdHashMap::default(),
            orphan_antis: Vec::new(),
        }
    }
}

impl<M> Cancels<M> {
    /// Hold `e`, cancelled by a rollback. Insert-after-equals keeps the
    /// relative order of equal send times, which the first-match
    /// regeneration scan depends on.
    fn hold(&mut self, e: Event<M>) {
        *self.cancel_keys.entry((e.dst, e.recv_time)).or_insert(0) += 1;
        let at = self.pending_cancel.partition_point(|x| x.send_time <= e.send_time);
        self.pending_cancel.insert(at, e);
    }
}

/// Drop one held cancellation to `(dst, recv)` from the key filter.
fn unkey(keys: &mut IdHashMap<(LpId, VTime), u32>, dst: LpId, recv: VTime) {
    if let Some(c) = keys.get_mut(&(dst, recv)) {
        *c -= 1;
        if *c == 0 {
            keys.remove(&(dst, recv));
        }
    } else {
        debug_assert!(false, "cancel-key filter out of sync with pending_cancel");
    }
}

/// The Time Warp runtime of one logical process.
#[derive(Debug)]
pub struct LpRuntime<A: Application> {
    id: LpId,
    /// Current (possibly speculative) state.
    state: A::State,
    /// Local virtual time: receive time of the last executed batch.
    lvt: VTime,
    /// Monotonic output sequence counter. Never rolled back, so event ids
    /// are unique across the whole run even when sends are re-generated
    /// after a rollback.
    out_seq: u64,
    /// Uncommitted events sorted by [`key`]: the processed ones before
    /// [`Self::next`], in execution order, and the pending ones from it, in
    /// the order batches execute in. Executing a batch and rolling back
    /// move only the cursor; an arrival at or below LVT rolls back before
    /// it is filed, so it lands at or after the cursor.
    events: VecDeque<Event<A::Msg>>,
    /// Index in [`Self::events`] of the first pending event.
    next: u32,
    /// State checkpoints, oldest first; index 0 is always usable.
    states: Vec<SavedState<A::State>>,
    /// Positive copies of sent events, sorted by `send_time` (for
    /// cancellation on rollback).
    outputs: Vec<Event<A::Msg>>,
    /// Held lazy cancellations and orphan antis, `None` until the first.
    cancels: Option<Box<Cancels<A::Msg>>>,
    batches_since_checkpoint: u32,
}

/// What the LPs of one cluster share instead of owning a copy each: the
/// kernel configuration, the two buffers of one `execute_next` /
/// `rollback_to` call (a batch's messages and its sends), dead between
/// calls, the free list of retired checkpoints and the heap filed since
/// the last commit. One per cluster keeps the buffers hot whichever LP
/// runs next, keeps an [`LpRuntime`] small, and lets a checkpoint reuse —
/// allocation and all — a state that fossil collection or a rollback
/// retired on any LP of the cluster.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub struct Scratch<A: Application> {
    cfg: KernelConfig,
    msgs: Vec<(LpId, A::Msg)>,
    sink_buf: Vec<(LpId, VTime, A::Msg)>,
    /// Retired checkpoint states that own heap, newest last.
    spares: Vec<A::State>,
    /// Checkpoints of heap-owning states (the ones that take a spare)
    /// since the last [`Self::trim`].
    taken: usize,
    /// [`Application::heap_bytes`] of the checkpoints filed since the last
    /// [`Self::trim`].
    pub(crate) filed: usize,
}

impl<A: Application> Scratch<A> {
    /// The shared part of a cluster whose LPs run under `cfg`.
    ///
    /// # Panics
    /// If `cfg.checkpoint_interval` is zero (state would never be saved);
    /// `Simulator::run` rejects that as a `SimError` before getting here.
    pub fn new(cfg: KernelConfig) -> Self {
        assert!(cfg.checkpoint_interval >= 1, "checkpoint_interval must be >= 1");
        Scratch {
            cfg,
            msgs: Vec::new(),
            sink_buf: Vec::new(),
            spares: Vec::new(),
            taken: 0,
            filed: 0,
        }
    }

    /// A checkpoint of `live` to file ([`Application::checkpoint`]), built
    /// in a retired state's buffers when one is spare. A spare is taken
    /// only for a state that owns heap: a flat copy has no buffer to
    /// build in, and would free the spare for nothing.
    fn checkpoint(&mut self, app: &A, live: &mut A::State) -> A::State {
        let spare = if app.heap_bytes(live) > 0 {
            self.taken += 1;
            self.spares.pop()
        } else {
            None
        };
        let saved = app.checkpoint(live, spare);
        self.filed += app.heap_bytes(&saved);
        saved
    }

    /// Close a GVT interval. Drop the spares beyond the number of
    /// spare-taking checkpoints since the previous call: an interval cannot
    /// want more than the last one took unless the run changes pace, so what a
    /// burst left behind goes back to the allocator instead of counting
    /// towards peak memory. And start the heap count of the next interval.
    pub(crate) fn trim(&mut self) {
        self.spares.truncate(self.taken);
        self.taken = 0;
        self.filed = 0;
    }
}

impl<A: Application> LpRuntime<A> {
    /// Bytes of one checkpoint record in an LP's state queue: the state
    /// plus its tag and coast-forward anchor.
    pub const CHECKPOINT_BYTES: usize = std::mem::size_of::<SavedState<A::State>>();

    /// Create the runtime for LP `id`, collecting its initial events into
    /// `outbox` (routed by the kernel like any other send).
    pub fn new(app: &A, id: LpId, outbox: &mut Vec<Event<A::Msg>>) -> Self {
        let mut state = app.init_state(id);
        let mut sink = EventSink::new(VTime::ZERO);
        app.init_events(id, &mut state, &mut sink);
        let initial = app.checkpoint(&mut state, None);
        let mut lp = LpRuntime {
            id,
            state,
            lvt: VTime::ZERO,
            out_seq: 0,
            events: VecDeque::new(),
            next: 0,
            states: vec![SavedState { tag: VTime::ZERO, processed_len: 0, state: initial }],
            outputs: Vec::new(),
            cancels: None,
            batches_since_checkpoint: 0,
        };
        for (dst, at, msg) in sink.out {
            outbox.push(lp.make_event(dst, VTime::ZERO, at, msg));
        }
        lp
    }

    /// This LP's id.
    pub fn id(&self) -> LpId {
        self.id
    }

    /// Local virtual time (receive time of the last executed batch).
    pub fn lvt(&self) -> VTime {
        self.lvt
    }

    /// Current state (speculative — may be rolled back later).
    pub fn state(&self) -> &A::State {
        &self.state
    }

    /// Consume the runtime and return the final state (callers do this
    /// after termination, when the state is committed).
    pub fn into_state(self) -> A::State {
        self.state
    }

    /// Receive time of the earliest unprocessed event, or [`VTime::INF`].
    pub fn next_time(&self) -> VTime {
        self.events.get(self.next as usize).map_or(VTime::INF, |e| e.recv_time)
    }

    /// Contribution of this LP to the GVT estimate: its earliest
    /// unprocessed event and, under lazy cancellation, the earliest
    /// receive time an unsent anti-message could still affect.
    pub fn local_min(&self) -> VTime {
        self.next_time().min(self.pending_cancel_min())
    }

    /// The earliest receive time among the held lazy cancellations, or
    /// [`VTime::INF`]: the half of [`Self::local_min`] that no scheduler
    /// heap knows.
    pub(crate) fn pending_cancel_min(&self) -> VTime {
        self.pending_cancel().iter().map(|e| e.recv_time).min().unwrap_or(VTime::INF)
    }

    /// The held lazy cancellations, in send-time order.
    fn pending_cancel(&self) -> &[Event<A::Msg>] {
        self.cancels.as_deref().map_or(&[], |c| &c.pending_cancel)
    }

    /// The anti-messages still waiting for their positives.
    fn orphan_antis(&self) -> &[AntiEvent] {
        self.cancels.as_deref().map_or(&[], |c| &c.orphan_antis)
    }

    /// Number of checkpoints currently held (memory accounting).
    pub fn state_queue_len(&self) -> usize {
        self.states.len()
    }

    /// Bytes a migration of this LP carries: the live state and every held
    /// checkpoint, inline and on the heap ([`Application::heap_bytes`]),
    /// and the pending events.
    pub(crate) fn closure_bytes(&self, app: &A) -> u64 {
        let states = std::iter::once(&self.state).chain(self.states.iter().map(|s| &s.state));
        let state_bytes: usize =
            states.map(|s| std::mem::size_of::<A::State>() + app.heap_bytes(s)).sum();
        (state_bytes + self.pending_len() * std::mem::size_of::<Event<A::Msg>>()) as u64
    }

    /// Total unprocessed events currently queued.
    pub fn pending_len(&self) -> usize {
        self.events.len() - self.next as usize
    }

    /// `(state_queue_len, pending_len)`: this LP's share of its cluster's
    /// queue totals.
    pub(crate) fn queue_lens(&self) -> (u64, u64) {
        (self.states.len() as u64, self.pending_len() as u64)
    }

    /// Whether [`Self::fossil_collect`] could find anything to free or
    /// commit here. An LP that never ran, or whose past is wholly
    /// committed, has none.
    pub(crate) fn has_history(&self) -> bool {
        self.states.len() > 1
            || self.next > 0
            || !self.outputs.is_empty()
            || !self.pending_cancel().is_empty()
    }

    /// The GVT from which [`Self::fossil_collect`] has work below ∞: the
    /// second checkpoint's tag or the oldest output's send time, whichever
    /// is earlier, [`VTime::INF`] with neither. A commit at a finite GVT at
    /// or below it frees nothing and commits nothing, because the oldest
    /// checkpoint anchors no processed event.
    pub(crate) fn fossil_due(&self) -> VTime {
        debug_assert_eq!(self.states[0].processed_len, 0, "the floor anchors no event");
        let checkpoint = self.states.get(1).map_or(VTime::INF, |s| s.tag);
        checkpoint.min(self.outputs.first().map_or(VTime::INF, |e| e.send_time))
    }

    /// Held lazy cancellations not yet resolved (diagnostics; must be zero
    /// at clean termination).
    pub fn pending_cancel_len(&self) -> usize {
        self.pending_cancel().len()
    }

    /// Anti-messages that arrived before their positives and are still
    /// waiting (diagnostics; must be zero at clean termination on FIFO
    /// transports).
    pub fn orphan_antis_len(&self) -> usize {
        self.orphan_antis().len()
    }

    fn make_event(&mut self, dst: LpId, send: VTime, recv: VTime, msg: A::Msg) -> Event<A::Msg> {
        let id = EventId { src: self.id, seq: self.out_seq };
        self.out_seq += 1;
        Event { id, dst, send_time: send, recv_time: recv, msg }
    }

    /// File `ev` as pending at its [`key`]: an append when it is the
    /// latest, otherwise a binary-search insert (which moves the shorter
    /// side of the deque).
    fn pending_insert(&mut self, ev: Event<A::Msg>) {
        let k = key(&ev);
        if self.events.back().is_none_or(|last| key(last) < k) {
            self.events.push_back(ev);
        } else {
            let at = self.events.partition_point(|e| key(e) < k);
            debug_assert!(at >= self.next as usize, "pending insert below LVT");
            debug_assert!(key(&self.events[at]) != k, "pending insert over a live pending id");
            self.events.insert(at, ev);
        }
    }

    /// Deliver a transmission to this LP. Performs annihilation and (if the
    /// message is a straggler or cancels a processed event) rollback;
    /// rollback by-products — anti-messages — are pushed to `outbox`.
    pub fn receive<P: Probe>(
        &mut self,
        app: &A,
        tx: Transmission<A::Msg>,
        outbox: &mut Vec<Transmission<A::Msg>>,
        scratch: &mut Scratch<A>,
        probe: &mut P,
    ) {
        match tx {
            Transmission::Positive(ev) => self.receive_positive(app, ev, outbox, scratch, probe),
            Transmission::Anti(anti) => self.receive_anti(app, anti, outbox, scratch, probe),
        }
    }

    fn receive_positive<P: Probe>(
        &mut self,
        app: &A,
        ev: Event<A::Msg>,
        outbox: &mut Vec<Transmission<A::Msg>>,
        scratch: &mut Scratch<A>,
        probe: &mut P,
    ) {
        debug_assert_eq!(ev.dst, self.id);
        // An orphan anti may already be waiting for this positive.
        if let Some(pos) = self.orphan_antis().iter().position(|a| a.id == ev.id) {
            self.cancels.as_mut().expect("an orphan is held").orphan_antis.swap_remove(pos);
            probe.on(ProbeEvent::Annihilated { lp: self.id, at: ev.recv_time });
            self.flush_lazy(self.next_time(), outbox, probe);
            return;
        }
        if ev.recv_time <= self.lvt {
            // Straggler: roll back to just before its receive time.
            self.rollback_to(app, ev.recv_time, RollbackKind::Primary, outbox, scratch, probe);
        }
        self.pending_insert(ev);
        self.flush_lazy(self.next_time(), outbox, probe);
    }

    fn receive_anti<P: Probe>(
        &mut self,
        app: &A,
        anti: AntiEvent,
        outbox: &mut Vec<Transmission<A::Msg>>,
        scratch: &mut Scratch<A>,
        probe: &mut P,
    ) {
        debug_assert_eq!(anti.dst, self.id);
        // The positive is pending, processed or not here yet: one binary
        // search (the queue is in key order) and, on a miss, a scan of the
        // orphans, which FIFO transports never fill.
        if let Ok(at) = self.events.binary_search_by_key(&(anti.recv_time, anti.id), key) {
            if at < self.next as usize {
                // The positive is already executed: cancellation requires a
                // rollback to its receive time first.
                debug_assert!(anti.recv_time <= self.lvt, "processed events sit at or below LVT");
                self.rollback_to(
                    app,
                    anti.recv_time,
                    RollbackKind::Secondary,
                    outbox,
                    scratch,
                    probe,
                );
                // The rollback leaves the positive where it is and lowers the
                // cursor to it or below. A cursor still past it means the
                // queue is corrupt, and limping on would re-execute a
                // cancelled event — fail hard in release too.
                assert!(
                    at >= self.next as usize,
                    "annihilation target {:?} still processed after secondary rollback",
                    anti.id
                );
            }
            self.events.remove(at);
            probe.on(ProbeEvent::Annihilated { lp: self.id, at: anti.recv_time });
            // Removing the pending event may raise the earliest possible
            // batch time (or empty the queue): held cancellations below it
            // must go out now, so the LP cannot park with unsent antis.
            self.flush_lazy(self.next_time(), outbox, probe);
        } else if self.orphan_antis().iter().any(|a| a.id == anti.id) {
            // A second anti for the same id cannot occur on reliable
            // transports; dropping it is strictly safer than queueing a
            // duplicate orphan.
            debug_assert!(false, "duplicate anti-message {:?}", anti.id);
        } else {
            // Anti before its positive: remember it.
            self.cancels.get_or_insert_default().orphan_antis.push(anti);
        }
    }

    /// Send the held anti-messages whose regeneration window has closed
    /// (only lazy cancellation holds any):
    /// a pending cancellation at send time `S` can only be regenerated by
    /// a batch executing at exactly `S`, so once the earliest possible
    /// batch time passes `S` the anti must go out. (Should a later
    /// straggler re-open time `S`, the re-executed send simply travels as
    /// a fresh positive — correctness is unaffected, only the lazy saving
    /// is lost for that event.)
    fn flush_lazy<P: Probe>(
        &mut self,
        bound: VTime,
        outbox: &mut Vec<Transmission<A::Msg>>,
        probe: &mut P,
    ) {
        let Some(c) = self.cancels.as_deref_mut() else { return };
        let cut = c.pending_cancel.partition_point(|e| e.send_time < bound);
        for e in c.pending_cancel.drain(..cut) {
            unkey(&mut c.cancel_keys, e.dst, e.recv_time);
            probe.on(ProbeEvent::AntiSent { lp: self.id, sent: e.send_time });
            outbox.push(Transmission::Anti(e.anti()));
        }
    }

    /// Execute the earliest pending batch (all events sharing the minimum
    /// receive time). New sends go to `outbox`. Panics if nothing is
    /// pending — callers check [`Self::next_time`] first.
    pub fn execute_next<P: Probe>(
        &mut self,
        app: &A,
        outbox: &mut Vec<Transmission<A::Msg>>,
        scratch: &mut Scratch<A>,
        probe: &mut P,
    ) {
        let now = self.next_time();
        assert!(!now.is_inf(), "execute_next on an idle LP");
        let lazy = scratch.cfg.cancellation == Cancellation::Lazy;
        // The batch: the run of pending events at `now`, in key order.
        let Scratch { msgs, sink_buf, .. } = scratch;
        let start = self.next as usize;
        msgs.clear();
        msgs.extend(
            self.events
                .range(start..)
                .take_while(|e| e.recv_time == now)
                .map(|e| (e.id.src, e.msg.clone())),
        );

        let mut sink = EventSink::with_buffer(now, std::mem::take(sink_buf));
        app.execute(self.id, &mut self.state, now, msgs, &mut sink);

        probe.on(ProbeEvent::BatchExecuted { lp: self.id, now, events: msgs.len() as u64 });
        let work = sink.take_work();
        if work != AppWork::default() {
            let AppWork { activations, ops, saved } = work;
            probe.on(ProbeEvent::AppWork { lp: self.id, now, activations, ops, saved });
        }
        self.lvt = now;
        self.next = u32::try_from(start + msgs.len())
            .expect("invariant: an LP holds fewer than 2^32 uncommitted events");

        // Route the new sends.
        for (dst, recv, msg) in sink.out.drain(..) {
            if let Some(c) = self
                .cancels
                .as_deref_mut()
                .filter(|c| lazy && c.cancel_keys.contains_key(&(dst, recv)))
            {
                // Regeneration check: an identical event is already live at
                // the receiver — drop both the send and the held anti. (The
                // key filter above rejects the common no-candidate case in
                // O(1); the scan only runs when (dst, recv_time) matches a
                // held cancellation.)
                if let Some(pos) = c
                    .pending_cancel
                    .iter()
                    .position(|e| e.dst == dst && e.recv_time == recv && e.msg == msg)
                {
                    let mut original = c.pending_cancel.remove(pos);
                    unkey(&mut c.cancel_keys, dst, recv);
                    // The original output record becomes valid again, and
                    // its ownership transfers to *this* batch: the send
                    // time must become `now`, or a later rollback between
                    // the old and new send times would cancel an event
                    // this batch (which survives such a rollback) still
                    // legitimately owns — and nothing would ever re-send
                    // it. Receivers match anti-messages by id, so the
                    // send-time rewrite is invisible to them.
                    original.send_time = now;
                    debug_assert!(
                        self.outputs.last().is_none_or(|e| e.send_time <= now),
                        "outputs beyond the executing batch must have been cancelled"
                    );
                    self.outputs.push(original);
                    continue;
                }
            }
            let ev = self.make_event(dst, now, recv, msg);
            self.outputs.push(ev.clone());
            outbox.push(Transmission::Positive(ev));
        }
        *sink_buf = sink.into_buf();

        // Lazy cancellation flush: anything below the next possible batch
        // time can no longer be regenerated — send those antis now. (When
        // the queue just drained, that is *everything* still held.)
        self.flush_lazy(self.next_time(), outbox, probe);

        // Checkpoint policy.
        self.batches_since_checkpoint += 1;
        if self.batches_since_checkpoint >= scratch.cfg.checkpoint_interval {
            self.states.push(SavedState {
                tag: now,
                processed_len: self.next,
                state: scratch.checkpoint(app, &mut self.state),
            });
            self.batches_since_checkpoint = 0;
            probe.on(ProbeEvent::StateSaved { lp: self.id, now });
        }
    }

    /// Roll back so that the next executed batch is at `to` (all work at
    /// receive times `>= to` is undone). Lowers the event cursor, restores
    /// the newest checkpoint strictly older than `to` and coast-forwards
    /// over the retained processed events without re-sending.
    fn rollback_to<P: Probe>(
        &mut self,
        app: &A,
        to: VTime,
        kind: RollbackKind,
        outbox: &mut Vec<Transmission<A::Msg>>,
        scratch: &mut Scratch<A>,
        probe: &mut P,
    ) {
        probe.on(ProbeEvent::RollbackBegun { lp: self.id, kind, from: self.lvt, to });
        // 1. Unprocess events at recv_time >= to: every pending event is
        //    later than LVT, which is at or after `to`, so the cut lies
        //    among the processed ones and the cursor drops to it.
        let cut = self.events.partition_point(|e| e.recv_time < to);
        debug_assert!(cut <= self.next as usize, "rollback to {to:?} above LVT {:?}", self.lvt);
        let undone = (self.next as usize - cut) as u64;
        self.next = u32::try_from(cut).expect("invariant: the cut lies at or below the cursor");

        // 2. Restore the newest state strictly before `to` (the initial
        //    state, tagged 0, is before every receive time).
        debug_assert!(to > VTime::ZERO, "no event is received at time 0");
        let si =
            self.states.iter().rposition(|s| s.tag < to).expect("initial state always qualifies");
        let retired = scratch.spares.len();
        scratch.spares.extend(self.states.drain(si + 1..).map(|s| s.state));
        let anchor = &self.states[si];
        app.restore(&mut self.state, &anchor.state, &scratch.spares[retired..]);
        let replay_from = anchor.processed_len as usize;
        // Only the undone states that own heap stay spare: a flat copy has
        // no buffers to lend. Compacting just the undone tail keeps a
        // rollback's cost independent of how many spares wait.
        let mut kept = retired;
        for i in retired..scratch.spares.len() {
            if app.heap_bytes(&scratch.spares[i]) > 0 {
                scratch.spares.swap(kept, i);
                kept += 1;
            }
        }
        scratch.spares.truncate(kept);
        debug_assert!(replay_from <= cut);

        // 3. Cancel in-flight outputs sent at or after `to`.
        let ocut = self.outputs.partition_point(|e| e.send_time < to);
        match scratch.cfg.cancellation {
            Cancellation::Aggressive => {
                for e in &self.outputs[ocut..] {
                    probe.on(ProbeEvent::AntiSent { lp: self.id, sent: e.send_time });
                    outbox.push(Transmission::Anti(e.anti()));
                }
                self.outputs.truncate(ocut);
            }
            Cancellation::Lazy => {
                // Forward order, so equal send times keep their order.
                for e in self.outputs.split_off(ocut) {
                    self.cancels.get_or_insert_default().hold(e);
                }
            }
        }

        // 4. Coast-forward: silently re-execute the retained events between
        //    the checkpoint and `to` to rebuild the pre-straggler state.
        let coasted = (cut - replay_from) as u64;
        let Scratch { msgs, sink_buf, .. } = scratch;
        let mut sink = EventSink::with_buffer(VTime::ZERO, std::mem::take(sink_buf));
        let mut replay = self.events.range(replay_from..cut).peekable();
        while let Some(t) = replay.peek().map(|e| e.recv_time) {
            msgs.clear();
            while let Some(e) = replay.next_if(|e| e.recv_time == t) {
                msgs.push((e.id.src, e.msg.clone()));
            }
            sink.reset(t);
            app.execute(self.id, &mut self.state, t, msgs, &mut sink);
            // Sends are NOT re-emitted: the originals (sent before `to`)
            // were never cancelled and still stand.
        }
        *sink_buf = sink.into_buf();

        // 5. Reset the local clock.
        self.lvt = cut.checked_sub(1).map_or(VTime::ZERO, |last| self.events[last].recv_time);
        self.batches_since_checkpoint = 0;
        probe.on(ProbeEvent::RollbackEnded { lp: self.id, to, undone, coasted });
    }

    /// Commit everything strictly below `gvt` and reclaim its memory
    /// (Jefferson's fossil collection). With `gvt == VTime::INF` the run is
    /// over and everything commits.
    pub fn fossil_collect<P: Probe>(
        &mut self,
        app: &A,
        gvt: VTime,
        scratch: &mut Scratch<A>,
        probe: &mut P,
    ) {
        // Newest checkpoint strictly below GVT becomes the new floor; the
        // older ones retire, and those that own heap become spares.
        debug_assert!(gvt > VTime::ZERO, "GVT is the time of an event, and none is at 0");
        let si =
            self.states.iter().rposition(|s| s.tag < gvt).expect("initial state always qualifies");
        let floor = self.states[si].processed_len;
        let retired = self.states.drain(..si).map(|s| s.state);
        scratch.spares.extend(retired.filter(|s| app.heap_bytes(s) > 0));
        for s in &mut self.states {
            s.processed_len -= floor;
        }
        let ocut = self.outputs.partition_point(|e| e.send_time < gvt);
        self.outputs.drain(..ocut);

        // The processed events below the new floor commit; at ∞ all do (and
        // only the newest checkpoint is left, now anchored at 0).
        let committed = if gvt.is_inf() { self.next } else { floor };
        self.events.drain(..committed as usize);
        self.next -= committed;
        if gvt.is_inf() {
            debug_assert!(
                self.pending_cancel().is_empty(),
                "unsent lazy antis would have held GVT below ∞"
            );
            debug_assert!(
                self.cancels.as_ref().is_none_or(|c| c.cancel_keys.is_empty()),
                "cancel-key filter must drain with pending_cancel"
            );
        }
        if committed > 0 {
            let committed = u64::from(committed);
            probe.on(ProbeEvent::FossilCollected { lp: self.id, gvt, committed });
        }
    }
}

/// A copy of an LP — for the model checker's states, and for its
/// re-injected migration that adopts an LP without evicting it.
#[cfg(test)]
impl<A: Application> Clone for LpRuntime<A> {
    fn clone(&self) -> Self {
        LpRuntime {
            id: self.id,
            state: self.state.clone(),
            lvt: self.lvt,
            out_seq: self.out_seq,
            events: self.events.clone(),
            next: self.next,
            states: self.states.clone(),
            outputs: self.outputs.clone(),
            cancels: self.cancels.clone(),
            batches_since_checkpoint: self.batches_since_checkpoint,
        }
    }
}

#[cfg(test)]
impl<A: Application> LpRuntime<A>
where
    A::State: std::hash::Hash + Eq,
    A::Msg: std::hash::Hash + Eq,
{
    /// Everything that decides this LP's future, for the model checker's
    /// state hash and equality (`cancel_keys` is derived from
    /// `pending_cancel`; no [`Cancels`] box and an empty one are the same
    /// state).
    pub(crate) fn key(&self) -> impl std::hash::Hash + Eq + '_ {
        let queues = (&self.events, self.next, &self.states, &self.outputs);
        let cancels = (self.pending_cancel(), self.orphan_antis(), self.batches_since_checkpoint);
        (self.id, &self.state, self.lvt, self.out_seq, queues, cancels)
    }
}

#[cfg(test)]
impl<A: Application> LpRuntime<A> {
    /// Ids of the events queued here, processed then pending, in key order.
    pub(crate) fn resident(&self) -> impl Iterator<Item = EventId> + '_ {
        self.events.iter().map(|e| e.id)
    }

    /// Sent positives that no rollback has cancelled and no commit freed.
    pub(crate) fn outputs(&self) -> &[Event<A::Msg>] {
        &self.outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::KernelStats;

    /// A toy accumulator model: each LP's state is a running sum; a message
    /// carries a u64 that is added; each execution forwards `value + 1` to
    /// LP `(id + 1) % n` after delay 2 while the value is below a bound.
    struct Accum {
        n: usize,
        bound: u64,
    }

    impl Application for Accum {
        type Msg = u64;
        type State = u64;

        fn num_lps(&self) -> usize {
            self.n
        }
        fn init_state(&self, _lp: LpId) -> u64 {
            0
        }
        fn init_events(&self, lp: LpId, _state: &mut u64, sink: &mut EventSink<u64>) {
            if lp == 0 {
                sink.schedule_at(0, VTime::from(1), 1);
            }
        }
        fn execute(
            &self,
            lp: LpId,
            state: &mut u64,
            _now: VTime,
            msgs: &[(LpId, u64)],
            sink: &mut EventSink<u64>,
        ) {
            for &(_, v) in msgs {
                *state += v;
                if v < self.bound {
                    sink.schedule((lp + 1) % self.n as u32, 2, v + 1);
                }
            }
        }
    }

    type Rig = (Vec<LpRuntime<Accum>>, KernelStats, Vec<Transmission<u64>>, Scratch<Accum>);

    fn setup(app: &Accum) -> Rig {
        let mut init = Vec::new();
        let lps: Vec<LpRuntime<Accum>> =
            (0..app.n as LpId).map(|i| LpRuntime::new(app, i, &mut init)).collect();
        let outbox: Vec<Transmission<u64>> = init.into_iter().map(Transmission::Positive).collect();
        (lps, KernelStats::default(), outbox, Scratch::new(KernelConfig::default()))
    }

    /// Drive the toy model sequentially (always lowest timestamp first) —
    /// no rollbacks can occur.
    #[test]
    fn in_order_execution_never_rolls_back() {
        let app = Accum { n: 3, bound: 10 };
        let (mut lps, mut stats, mut outbox, mut scratch) = setup(&app);
        loop {
            // Deliver everything.
            for tx in std::mem::take(&mut outbox) {
                let dst = tx.dst() as usize;
                lps[dst].receive(&app, tx, &mut outbox, &mut scratch, &mut stats);
            }
            // Execute globally-lowest next event.
            let Some(best) = (0..lps.len())
                .filter(|&i| !lps[i].next_time().is_inf())
                .min_by_key(|&i| lps[i].next_time())
            else {
                break;
            };
            lps[best].execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        }
        assert_eq!(stats.rollbacks(), 0);
        assert_eq!(stats.events_processed, 10);
        let total: u64 = lps.iter().map(|l| l.state()).sum();
        assert_eq!(total, (1..=10).sum::<u64>());
    }

    /// Force a straggler: execute LP1's later event before delivering an
    /// earlier one, then check the rollback repairs the state.
    #[test]
    fn straggler_triggers_rollback_and_repair() {
        let app = Accum { n: 2, bound: 0 }; // no forwarding, pure accumulate
        let (mut lps, mut stats, mut outbox, mut scratch) = setup(&app);
        outbox.clear(); // drop init (bound=0 ⇒ LP0's seed just adds 1 locally)

        // Hand-craft two events for LP1 at t=5 and t=3 from a fake src 0.
        let e_late = Event {
            id: EventId { src: 0, seq: 100 },
            dst: 1,
            send_time: VTime::from(1),
            recv_time: VTime::from(5),
            msg: 50,
        };
        let e_early = Event {
            id: EventId { src: 0, seq: 101 },
            dst: 1,
            send_time: VTime::from(1),
            recv_time: VTime::from(3),
            msg: 7,
        };
        lps[1].receive(&app, Transmission::Positive(e_late), &mut outbox, &mut scratch, &mut stats);
        lps[1].execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        assert_eq!(*lps[1].state(), 50);
        assert_eq!(lps[1].lvt(), VTime::from(5));

        // Straggler at t=3.
        lps[1].receive(
            &app,
            Transmission::Positive(e_early),
            &mut outbox,
            &mut scratch,
            &mut stats,
        );
        assert_eq!(stats.primary_rollbacks, 1);
        assert_eq!(stats.events_rolled_back, 1);
        assert_eq!(*lps[1].state(), 0, "state restored to before t=5");

        // Re-execute both in order.
        lps[1].execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        assert_eq!(*lps[1].state(), 7);
        lps[1].execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        assert_eq!(*lps[1].state(), 57);
    }

    /// An anti-message for a pending event annihilates it silently.
    #[test]
    fn anti_annihilates_pending() {
        let app = Accum { n: 2, bound: 0 };
        let (mut lps, mut stats, mut outbox, mut scratch) = setup(&app);
        outbox.clear();
        let ev = Event {
            id: EventId { src: 0, seq: 7 },
            dst: 1,
            send_time: VTime::from(1),
            recv_time: VTime::from(4),
            msg: 9,
        };
        lps[1].receive(
            &app,
            Transmission::Positive(ev.clone()),
            &mut outbox,
            &mut scratch,
            &mut stats,
        );
        lps[1].receive(&app, Transmission::Anti(ev.anti()), &mut outbox, &mut scratch, &mut stats);
        assert_eq!(stats.annihilated_pending, 1);
        assert_eq!(stats.rollbacks(), 0);
        assert!(lps[1].next_time().is_inf());
    }

    /// An anti-message for an already-executed event causes a secondary
    /// rollback and removes the event.
    #[test]
    fn anti_after_execution_rolls_back() {
        let app = Accum { n: 2, bound: 0 };
        let (mut lps, mut stats, mut outbox, mut scratch) = setup(&app);
        outbox.clear();
        let ev = Event {
            id: EventId { src: 0, seq: 7 },
            dst: 1,
            send_time: VTime::from(1),
            recv_time: VTime::from(4),
            msg: 9,
        };
        lps[1].receive(
            &app,
            Transmission::Positive(ev.clone()),
            &mut outbox,
            &mut scratch,
            &mut stats,
        );
        lps[1].execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        assert_eq!(*lps[1].state(), 9);
        lps[1].receive(&app, Transmission::Anti(ev.anti()), &mut outbox, &mut scratch, &mut stats);
        assert_eq!(stats.secondary_rollbacks, 1);
        assert_eq!(*lps[1].state(), 0);
        assert!(lps[1].next_time().is_inf(), "annihilated event must not re-execute");
    }

    /// Orphan anti (arriving before its positive) suppresses the positive.
    #[test]
    fn orphan_anti_kills_later_positive() {
        let app = Accum { n: 2, bound: 0 };
        let (mut lps, mut stats, mut outbox, mut scratch) = setup(&app);
        outbox.clear();
        let ev = Event {
            id: EventId { src: 0, seq: 9 },
            dst: 1,
            send_time: VTime::from(1),
            recv_time: VTime::from(4),
            msg: 9,
        };
        lps[1].receive(&app, Transmission::Anti(ev.anti()), &mut outbox, &mut scratch, &mut stats);
        lps[1].receive(&app, Transmission::Positive(ev), &mut outbox, &mut scratch, &mut stats);
        assert!(lps[1].next_time().is_inf());
        assert_eq!(stats.annihilated_pending, 1);
        // The orphan allocated the box, which is empty again: the model
        // checker must see the same state as an LP that never had one.
        let mut unboxed = lps[1].clone();
        unboxed.cancels = None;
        assert!(lps[1].cancels.as_ref().is_some_and(|c| c.orphan_antis.is_empty()));
        assert!(lps[1].key() == unboxed.key());
        let hash = |lp: &LpRuntime<Accum>| {
            use std::hash::{BuildHasher, BuildHasherDefault};
            BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default()
                .hash_one(lp.key())
        };
        assert_eq!(hash(&lps[1]), hash(&unboxed));
    }

    /// Rollback must cancel sent outputs (aggressive: antis emitted).
    #[test]
    fn rollback_cancels_outputs_aggressively() {
        let app = Accum { n: 2, bound: 10 }; // forwards value+1
        let (mut lps, mut stats, mut outbox, mut scratch) = setup(&app);
        outbox.clear();
        let mk = |seq, t, v| Event {
            id: EventId { src: 0, seq },
            dst: 1,
            send_time: VTime::from(1),
            recv_time: VTime::from(t),
            msg: v,
        };
        lps[1].receive(
            &app,
            Transmission::Positive(mk(1, 5, 2)),
            &mut outbox,
            &mut scratch,
            &mut stats,
        );
        lps[1].execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        // LP1 forwarded one event.
        assert_eq!(outbox.iter().filter(|t| t.is_positive()).count(), 1);
        outbox.clear();
        // Straggler at t=3 rolls back the t=5 execution → 1 anti out.
        lps[1].receive(
            &app,
            Transmission::Positive(mk(2, 3, 4)),
            &mut outbox,
            &mut scratch,
            &mut stats,
        );
        let antis: Vec<_> = outbox.iter().filter(|t| !t.is_positive()).collect();
        assert_eq!(antis.len(), 1);
        assert_eq!(stats.antis_sent, 1);
        assert!(lps[1].cancels.is_none(), "aggressive cancellation held nothing");
    }

    /// Lazy cancellation: if re-execution regenerates the identical event,
    /// no anti-message is sent at all.
    #[test]
    fn lazy_cancellation_suppresses_regenerated_sends() {
        let app = Accum { n: 2, bound: 10 };
        let cfg = KernelConfig { cancellation: Cancellation::Lazy, ..Default::default() };
        let mut init = Vec::new();
        let mut lp1: LpRuntime<Accum> = LpRuntime::new(&app, 1, &mut init);
        let mut stats = KernelStats::default();
        let mut outbox: Vec<Transmission<u64>> = Vec::new();
        let mut scratch = Scratch::new(cfg);

        let mk = |seq, t, v| Event {
            id: EventId { src: 0, seq },
            dst: 1,
            send_time: VTime::from(1),
            recv_time: VTime::from(t),
            msg: v,
        };
        // Execute at t=5, forwarding an event.
        lp1.receive(
            &app,
            Transmission::Positive(mk(1, 5, 2)),
            &mut outbox,
            &mut scratch,
            &mut stats,
        );
        lp1.execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        let sent_before = outbox.len();
        assert_eq!(sent_before, 1);

        // Straggler at t=3 whose message does NOT change what the t=5
        // execution sends (accumulation is independent of prior state).
        lp1.receive(
            &app,
            Transmission::Positive(mk(2, 3, 7)),
            &mut outbox,
            &mut scratch,
            &mut stats,
        );
        assert_eq!(stats.antis_sent, 0, "lazy: no anti yet");
        assert_eq!(lp1.pending_cancel_len(), 1);
        // Re-execute t=3 then t=5.
        lp1.execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        lp1.execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        // The t=5 re-execution regenerated the same send for t=7 (value 3)
        // — it must have been suppressed, plus one NEW send from the t=3
        // event (value 8 at t=5... value 7+1 at t=3+2).
        let positives = outbox.iter().filter(|t| t.is_positive()).count();
        assert_eq!(positives, 2, "original + straggler's own send only");
        assert_eq!(stats.antis_sent, 0);
    }

    /// Fossil collection frees state/processed queues but keeps enough to
    /// roll back to GVT.
    #[test]
    fn fossil_collection_reclaims_memory() {
        let app = Accum { n: 2, bound: 0 };
        let (mut lps, mut stats, mut outbox, mut scratch) = setup(&app);
        outbox.clear();
        for t in 1..=20 {
            let ev = Event {
                id: EventId { src: 0, seq: t },
                dst: 1,
                send_time: VTime::from(1),
                recv_time: VTime::from(t.saturating_mul(2)),
                msg: 1,
            };
            lps[1].receive(&app, Transmission::Positive(ev), &mut outbox, &mut scratch, &mut stats);
        }
        for _ in 0..20 {
            lps[1].execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        }
        let before = lps[1].state_queue_len();
        assert!(before > 20);
        lps[1].fossil_collect(&app, VTime::from(30), &mut scratch, &mut stats);
        assert!(lps[1].state_queue_len() < before);
        assert!(stats.events_committed > 0);
        // Still able to roll back to >= GVT: straggler at exactly 30.
        let s = Event {
            id: EventId { src: 0, seq: 99 },
            dst: 1,
            send_time: VTime::from(1),
            recv_time: VTime::from(30),
            msg: 5,
        };
        lps[1].receive(&app, Transmission::Positive(s), &mut outbox, &mut scratch, &mut stats);
        assert_eq!(stats.primary_rollbacks, 1);
        // Replay to completion and verify the sum: 20 ones + 5.
        while !lps[1].next_time().is_inf() {
            lps[1].execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        }
        assert_eq!(*lps[1].state(), 25);
        lps[1].fossil_collect(&app, VTime::INF, &mut scratch, &mut stats);
        assert_eq!(lps[1].state_queue_len(), 1);
    }

    /// Periodic checkpointing (interval > 1) still rolls back correctly via
    /// coast-forward.
    #[test]
    fn coast_forward_with_sparse_checkpoints() {
        let app = Accum { n: 2, bound: 0 };
        let cfg = KernelConfig { checkpoint_interval: 4, ..Default::default() };
        let mut init = Vec::new();
        let mut lp1: LpRuntime<Accum> = LpRuntime::new(&app, 1, &mut init);
        let mut stats = KernelStats::default();
        let mut outbox: Vec<Transmission<u64>> = Vec::new();
        let mut scratch = Scratch::new(cfg);
        for t in 1..=10u64 {
            let ev = Event {
                id: EventId { src: 0, seq: t },
                dst: 1,
                send_time: VTime::from(1),
                recv_time: VTime::from(t.saturating_mul(10)),
                msg: t,
            };
            lp1.receive(&app, Transmission::Positive(ev), &mut outbox, &mut scratch, &mut stats);
        }
        for _ in 0..10 {
            lp1.execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        }
        assert_eq!(*lp1.state(), 55);
        // Straggler at t=55 (between checkpoints at batches 4 and 8).
        let s = Event {
            id: EventId { src: 0, seq: 99 },
            dst: 1,
            send_time: VTime::from(1),
            recv_time: VTime::from(55),
            msg: 100,
        };
        lp1.receive(&app, Transmission::Positive(s), &mut outbox, &mut scratch, &mut stats);
        // State must equal the sum of messages at t < 55: 1+2+3+4+5 = 15.
        assert_eq!(*lp1.state(), 15, "coast-forward must rebuild mid-interval state");
        while !lp1.next_time().is_inf() {
            lp1.execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        }
        assert_eq!(*lp1.state(), 155);
    }

    /// A rollback, primary or secondary, moves no event: the queue keeps
    /// its ids in their order, and only the cursor and LVT go back (with
    /// the state they restore). Through `receive`, the straggler is then
    /// filed at the cursor and the cancelled positive taken out in place.
    #[test]
    fn rollbacks_move_only_the_cursor_and_lvt() {
        let app = Accum { n: 2, bound: 0 };
        let (mut lps, mut stats, mut outbox, mut scratch) = setup(&app);
        outbox.clear();
        let mk = |seq: u64, t: u64| Event {
            id: EventId { src: 0, seq },
            dst: 1,
            send_time: VTime::from(1),
            recv_time: VTime::from(t),
            msg: seq,
        };
        let lp = &mut lps[1];
        for seq in 1..=4 {
            let ev = Transmission::Positive(mk(seq, 10 * seq));
            lp.receive(&app, ev, &mut outbox, &mut scratch, &mut stats);
        }
        for _ in 0..3 {
            lp.execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        }
        let ids: Vec<EventId> = lp.resident().collect();
        assert_eq!((lp.next, lp.lvt, lp.state), (3, VTime::from(30), 1 + 2 + 3));
        for kind in [RollbackKind::Primary, RollbackKind::Secondary] {
            lp.rollback_to(&app, VTime::from(20), kind, &mut outbox, &mut scratch, &mut stats);
            assert!(lp.resident().eq(ids.iter().copied()), "{kind:?}");
            assert_eq!((lp.next, lp.lvt, lp.state), (1, VTime::from(10), 1), "{kind:?}");
            while lp.next < 3 {
                lp.execute_next(&app, &mut outbox, &mut scratch, &mut stats);
            }
        }

        let straggler = mk(5, 15);
        let id = straggler.id;
        lp.receive(&app, Transmission::Positive(straggler), &mut outbox, &mut scratch, &mut stats);
        assert!(lp.resident().eq([ids[0], id, ids[1], ids[2], ids[3]]));
        assert_eq!((lp.next, lp.lvt, lp.state), (1, VTime::from(10), 1));
        let anti = Transmission::Anti(mk(1, 10).anti());
        lp.receive(&app, anti, &mut outbox, &mut scratch, &mut stats);
        assert!(lp.resident().eq([id, ids[1], ids[2], ids[3]]));
        assert_eq!((lp.next, lp.lvt, lp.state), (0, VTime::ZERO, 0));
        assert_eq!((stats.primary_rollbacks, stats.secondary_rollbacks), (2, 2));
        assert!(outbox.is_empty(), "a rollback re-sends nothing");
    }

    /// A checkpoint record costs its state plus at most 16 bytes (tag and
    /// coast-forward anchor), whatever the state's size and alignment.
    #[test]
    fn a_checkpoint_adds_at_most_16_bytes_to_its_state() {
        fn overhead<S>() -> usize {
            std::mem::size_of::<SavedState<S>>() - std::mem::size_of::<S>()
        }
        let overheads =
            [overhead::<u8>(), overhead::<u64>(), overhead::<[u64; 4]>(), overhead::<(u64, u32)>()];
        assert!(overheads.iter().all(|&o| o <= 16), "{overheads:?}");
        assert!(overhead::<Vec<u8>>() <= 16 && overhead::<Box<[u8; 3]>>() <= 16);
    }

    /// Event ids stay unique even across rollbacks (monotonic out_seq).
    #[test]
    fn event_ids_unique_across_rollbacks() {
        let app = Accum { n: 2, bound: 10 };
        let (mut lps, mut stats, mut outbox, mut scratch) = setup(&app);
        outbox.clear();
        let mk = |seq, t, v| Event {
            id: EventId { src: 0, seq },
            dst: 1,
            send_time: VTime::from(1),
            recv_time: VTime::from(t),
            msg: v,
        };
        let mut seen = std::collections::HashSet::new();
        lps[1].receive(
            &app,
            Transmission::Positive(mk(1, 5, 2)),
            &mut outbox,
            &mut scratch,
            &mut stats,
        );
        lps[1].execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        lps[1].receive(
            &app,
            Transmission::Positive(mk(2, 3, 4)),
            &mut outbox,
            &mut scratch,
            &mut stats,
        );
        lps[1].execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        lps[1].execute_next(&app, &mut outbox, &mut scratch, &mut stats);
        for tx in &outbox {
            if let Transmission::Positive(e) = tx {
                assert!(seen.insert(e.id), "duplicate id {:?}", e.id);
            }
        }
    }
}
