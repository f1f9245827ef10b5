//! Per-LP Time Warp protocol engine: input/output/state queues, rollback
//! with coast-forward, aggressive and lazy cancellation, and fossil
//! collection. This is the part of WARPED every executive shares; the
//! executives differ only in *where* LPs live and *how* transmissions
//! travel between them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::app::{Application, EventSink};
use crate::config::{Cancellation, KernelConfig};
use crate::dynlb::LpWindow;
use crate::event::{AntiEvent, Event, EventId, LpId, Transmission};
use crate::pool::{EventPool, IdHashMap, Loc, Slot};
use crate::probe::{Probe, RollbackKind};
use crate::stats::{KernelStats, LpCounters};
use crate::time::VTime;

/// A checkpoint of LP state.
#[derive(Debug, Clone)]
struct SavedState<S> {
    /// Virtual time of the batch after which this state was saved;
    /// `None` marks the initial (pre-simulation) state.
    tag: Option<VTime>,
    /// Number of processed events at save time (coast-forward anchor).
    processed_len: usize,
    state: S,
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
    /// Unprocessed events, slab-allocated; ordering lives in `heap`.
    pool: EventPool<A::Msg>,
    /// Index min-heap over the pool, keyed `(recv_time, id, slot)` so pop
    /// order reproduces the old `BTreeMap<(VTime, EventId), _>` iteration
    /// exactly. Entries go stale when their event is removed through the
    /// annihilation index; stale entries are discarded lazily, and every
    /// mutating method leaves the *top* valid (see [`Self::heap_skim`]) so
    /// [`Self::next_time`] stays a pure peek.
    heap: BinaryHeap<Reverse<(VTime, EventId, Slot)>>,
    /// Annihilation index: where every live inbound event id is right now
    /// (pending slot / processed / orphan anti). Turns anti-message
    /// matching from a queue scan into one hash lookup.
    index: IdHashMap<EventId, Loc>,
    /// Processed events in execution order (non-decreasing recv_time).
    processed: Vec<Event<A::Msg>>,
    /// State checkpoints, oldest first; index 0 is always usable.
    states: Vec<SavedState<A::State>>,
    /// Positive copies of sent events, sorted by `send_time` (for
    /// cancellation on rollback).
    outputs: Vec<Event<A::Msg>>,
    /// Lazy cancellation: outputs cancelled by a rollback, awaiting either
    /// regeneration (annihilate silently) or an explicit anti-message once
    /// LVT passes their send time. Sorted by `send_time`.
    pending_cancel: Vec<Event<A::Msg>>,
    /// Held-cancellation count per `(dst, recv_time)`: O(1) rejection in
    /// front of the linear regeneration scan over `pending_cancel` (the
    /// message payload is only `PartialEq`, so a full hash key over the
    /// triple is not available).
    cancel_keys: IdHashMap<(LpId, VTime), u32>,
    /// Anti-messages that arrived before their positives (cannot happen on
    /// FIFO transports, handled for robustness).
    orphan_antis: Vec<AntiEvent>,
    batches_since_checkpoint: u32,
    cfg: KernelConfig,
    /// This LP's own counters (aggregates live in [`KernelStats`]).
    own: LpCounters,
    /// `own` as of the last [`Self::take_window`]. Part of the LP, so the
    /// dynlb window baseline migrates with it.
    window_base: LpCounters,
    /// Whether `PLS_TRACE_LP` names this LP; read once, at construction.
    #[cfg(debug_assertions)]
    traced: bool,
}

/// What the LPs of one cluster share instead of owning a copy each: the
/// buffers of one `execute_next` / `rollback_to` call, dead between calls,
/// and the free list of retired checkpoints. One per cluster keeps the
/// buffers hot whichever LP runs next, keeps an [`LpRuntime`] small, and
/// lets a checkpoint reuse — allocation and all — a state that fossil
/// collection or a rollback retired on any LP of the cluster.
#[derive(Debug)]
pub struct Scratch<A: Application> {
    batch: Vec<Event<A::Msg>>,
    msgs: Vec<(LpId, A::Msg)>,
    sink_buf: Vec<(LpId, VTime, A::Msg)>,
    /// Retired checkpoint states, newest last.
    spares: Vec<A::State>,
    /// Checkpoints taken since the last [`Self::trim`].
    taken: usize,
}

impl<A: Application> Default for Scratch<A> {
    fn default() -> Self {
        Scratch {
            batch: Vec::new(),
            msgs: Vec::new(),
            sink_buf: Vec::new(),
            spares: Vec::new(),
            taken: 0,
        }
    }
}

impl<A: Application> Scratch<A> {
    /// A checkpoint of `live` to file ([`Application::checkpoint`]), built
    /// in a retired state's buffers when one is spare.
    fn checkpoint(&mut self, app: &A, live: &mut A::State) -> A::State {
        self.taken += 1;
        app.checkpoint(live, self.spares.pop())
    }

    /// Drop the spares beyond the number of checkpoints taken since the
    /// previous call: a GVT interval cannot want more than the last one
    /// took unless the run changes pace, so what a burst left behind goes
    /// back to the allocator instead of counting towards peak memory.
    pub(crate) fn trim(&mut self) {
        self.spares.truncate(self.taken);
        self.taken = 0;
    }
}

impl<A: Application> LpRuntime<A> {
    #[cfg(debug_assertions)]
    fn traced(&self) -> bool {
        self.traced
    }
    #[cfg(not(debug_assertions))]
    fn traced(&self) -> bool {
        false
    }

    /// Create the runtime for LP `id`, collecting its initial events into
    /// `outbox` (routed by the kernel like any other send).
    ///
    /// # Panics
    /// If `cfg.checkpoint_interval` is zero (state would never be saved);
    /// `Simulator::run` rejects that as a `SimError` before getting here.
    pub fn new(app: &A, id: LpId, cfg: KernelConfig, outbox: &mut Vec<Event<A::Msg>>) -> Self {
        assert!(cfg.checkpoint_interval >= 1, "checkpoint_interval must be >= 1");
        let mut state = app.init_state(id);
        let mut sink = EventSink::new(VTime::ZERO);
        app.init_events(id, &mut state, &mut sink);
        let initial = app.checkpoint(&mut state, None);
        let mut lp = LpRuntime {
            id,
            state,
            lvt: VTime::ZERO,
            out_seq: 0,
            pool: EventPool::default(),
            heap: BinaryHeap::new(),
            index: IdHashMap::default(),
            processed: Vec::new(),
            states: vec![SavedState { tag: None, processed_len: 0, state: initial }],
            outputs: Vec::new(),
            pending_cancel: Vec::new(),
            cancel_keys: IdHashMap::default(),
            orphan_antis: Vec::new(),
            batches_since_checkpoint: 0,
            cfg,
            own: LpCounters::default(),
            window_base: LpCounters::default(),
            #[cfg(debug_assertions)]
            traced: std::env::var("PLS_TRACE_LP").ok().and_then(|v| v.parse::<u32>().ok())
                == Some(id),
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
        debug_assert!(
            self.heap.peek().is_none_or(|&Reverse((_, id, slot))| self
                .pool
                .get(slot)
                .is_some_and(|e| e.id == id)),
            "heap top must be valid between mutations"
        );
        self.heap.peek().map(|&Reverse((t, _, _))| t).unwrap_or(VTime::INF)
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
        self.pending_cancel.iter().map(|e| e.recv_time).min().unwrap_or(VTime::INF)
    }

    /// Number of checkpoints currently held (memory accounting).
    pub fn state_queue_len(&self) -> usize {
        self.states.len()
    }

    /// Total unprocessed events currently queued.
    pub fn pending_len(&self) -> usize {
        self.pool.len()
    }

    /// `(state_queue_len, pending_len)`: this LP's share of its cluster's
    /// queue totals.
    pub(crate) fn queue_lens(&self) -> (u64, u64) {
        (self.states.len() as u64, self.pool.len() as u64)
    }

    /// Whether [`Self::fossil_collect`] could find anything to free or
    /// commit here. An LP that never ran, or whose past is wholly
    /// committed, has none.
    pub(crate) fn has_history(&self) -> bool {
        self.states.len() > 1
            || !self.processed.is_empty()
            || !self.outputs.is_empty()
            || !self.pending_cancel.is_empty()
    }

    /// This LP's own counters (hotspot analysis).
    pub fn own_stats(&self) -> LpCounters {
        self.own
    }

    /// This LP's activity since the previous call — one dynamic
    /// load-balancing window.
    pub fn take_window(&mut self) -> LpWindow {
        let base = std::mem::replace(&mut self.window_base, self.own);
        LpWindow {
            events: self.own.events_processed - base.events_processed,
            rollbacks: self.own.rollbacks - base.rollbacks,
            events_rolled_back: self.own.events_rolled_back - base.events_rolled_back,
            // Filled in by the platform executive when a fault plan is
            // installed (an LP never sees node-level fault time).
            fault_penalty: 0,
        }
    }

    /// Held lazy cancellations not yet resolved (diagnostics; must be zero
    /// at clean termination).
    pub fn pending_cancel_len(&self) -> usize {
        self.pending_cancel.len()
    }

    /// Anti-messages that arrived before their positives and are still
    /// waiting (diagnostics; must be zero at clean termination on FIFO
    /// transports).
    pub fn orphan_antis_len(&self) -> usize {
        self.orphan_antis.len()
    }

    fn make_event(&mut self, dst: LpId, send: VTime, recv: VTime, msg: A::Msg) -> Event<A::Msg> {
        let id = EventId { src: self.id, seq: self.out_seq };
        self.out_seq += 1;
        Event { id, dst, send_time: send, recv_time: recv, msg }
    }

    /// File `ev` as pending: slab slot + heap key + index entry. A fresh
    /// heap entry is valid by construction, so the top stays valid.
    fn pending_insert(&mut self, ev: Event<A::Msg>) {
        let (t, id) = (ev.recv_time, ev.id);
        let slot = self.pool.insert(ev);
        self.heap.push(Reverse((t, id, slot)));
        let prev = self.index.insert(id, Loc::Pending(slot));
        debug_assert!(
            matches!(prev, None | Some(Loc::Processed)),
            "pending insert over a live pending/orphan id"
        );
    }

    /// Restore the heap-top invariant after a removal: discard entries
    /// whose slot was freed or re-used by a different event until the top
    /// references a live pending event (or the heap is empty).
    fn heap_skim(&mut self) {
        while let Some(&Reverse((_, id, slot))) = self.heap.peek() {
            if self.pool.get(slot).is_some_and(|e| e.id == id) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Annihilate a pending event by id in O(1) (plus heap-top upkeep).
    fn remove_pending(&mut self, id: EventId) -> Option<Event<A::Msg>> {
        match self.index.get(&id) {
            Some(&Loc::Pending(slot)) => {
                self.index.remove(&id);
                let ev = self.pool.remove(slot);
                self.heap_skim();
                Some(ev)
            }
            _ => None,
        }
    }

    fn cancel_key_inc(&mut self, dst: LpId, recv: VTime) {
        *self.cancel_keys.entry((dst, recv)).or_insert(0) += 1;
    }

    fn cancel_key_dec(&mut self, dst: LpId, recv: VTime) {
        if let Some(c) = self.cancel_keys.get_mut(&(dst, recv)) {
            *c -= 1;
            if *c == 0 {
                self.cancel_keys.remove(&(dst, recv));
            }
        } else {
            debug_assert!(false, "cancel-key filter out of sync with pending_cancel");
        }
    }

    /// Deliver a transmission to this LP. Performs annihilation and (if the
    /// message is a straggler or cancels a processed event) rollback;
    /// rollback by-products — anti-messages — are pushed to `outbox`.
    pub fn receive<P: Probe>(
        &mut self,
        app: &A,
        tx: Transmission<A::Msg>,
        stats: &mut KernelStats,
        outbox: &mut Vec<Transmission<A::Msg>>,
        scratch: &mut Scratch<A>,
        probe: &mut P,
    ) {
        match tx {
            Transmission::Positive(ev) => {
                self.receive_positive(app, ev, stats, outbox, scratch, probe);
            }
            Transmission::Anti(anti) => self.receive_anti(app, anti, stats, outbox, scratch, probe),
        }
    }

    fn receive_positive<P: Probe>(
        &mut self,
        app: &A,
        ev: Event<A::Msg>,
        stats: &mut KernelStats,
        outbox: &mut Vec<Transmission<A::Msg>>,
        scratch: &mut Scratch<A>,
        probe: &mut P,
    ) {
        debug_assert_eq!(ev.dst, self.id);
        if self.traced() {
            eprintln!("[lp{}] recv+ {:?} @{} lvt={}", self.id, ev.id, ev.recv_time, self.lvt);
        }
        // An orphan anti may already be waiting for this positive.
        if let Some(&Loc::OrphanAnti(pos)) = self.index.get(&ev.id) {
            self.index.remove(&ev.id);
            self.orphan_antis.swap_remove(pos as usize);
            // swap_remove moved the former tail into `pos`: re-point it.
            if let Some(moved_id) = self.orphan_antis.get(pos as usize).map(|a| a.id) {
                self.index.insert(moved_id, Loc::OrphanAnti(pos));
            }
            stats.annihilated_pending += 1;
            probe.annihilated(self.id, ev.recv_time);
            self.flush_lazy(self.next_time(), stats, outbox, probe);
            return;
        }
        if ev.recv_time <= self.lvt {
            // Straggler: roll back to just before its receive time.
            stats.primary_rollbacks += 1;
            self.own.rollbacks += 1;
            self.rollback_to(
                app,
                ev.recv_time,
                RollbackKind::Primary,
                stats,
                outbox,
                scratch,
                probe,
            );
        }
        self.pending_insert(ev);
        self.flush_lazy(self.next_time(), stats, outbox, probe);
    }

    fn receive_anti<P: Probe>(
        &mut self,
        app: &A,
        anti: AntiEvent,
        stats: &mut KernelStats,
        outbox: &mut Vec<Transmission<A::Msg>>,
        scratch: &mut Scratch<A>,
        probe: &mut P,
    ) {
        debug_assert_eq!(anti.dst, self.id);
        if self.traced() {
            eprintln!("[lp{}] recv- {:?} @{} lvt={}", self.id, anti.id, anti.recv_time, self.lvt);
        }
        // One index lookup decides the annihilation case — no queue scans.
        match self.index.get(&anti.id).copied() {
            Some(Loc::Pending(_)) => {
                let removed = self.remove_pending(anti.id);
                debug_assert!(removed.is_some_and(|e| e.recv_time == anti.recv_time));
                stats.annihilated_pending += 1;
                probe.annihilated(self.id, anti.recv_time);
                // Removing the pending event may raise the earliest possible
                // batch time; held cancellations below it must go out now.
                self.flush_lazy(self.next_time(), stats, outbox, probe);
            }
            Some(Loc::Processed) => {
                // The positive is already executed: cancellation requires a
                // rollback to its receive time first.
                debug_assert!(anti.recv_time <= self.lvt, "processed events sit at or below LVT");
                stats.secondary_rollbacks += 1;
                self.own.rollbacks += 1;
                self.rollback_to(
                    app,
                    anti.recv_time,
                    RollbackKind::Secondary,
                    stats,
                    outbox,
                    scratch,
                    probe,
                );
                // The rollback re-files the positive as pending. A miss here
                // means the queues are corrupt, and limping on would
                // re-execute a cancelled event — fail hard in release too.
                let removed = self.remove_pending(anti.id);
                assert!(
                    removed.is_some(),
                    "annihilation target {:?} missing from pending after secondary rollback",
                    anti.id
                );
                stats.annihilated_pending += 1;
                probe.annihilated(self.id, anti.recv_time);
                // Annihilation may have emptied the queue (or moved next_time
                // past held cancellations): close the regeneration window so
                // the LP cannot park with unsent anti-messages.
                self.flush_lazy(self.next_time(), stats, outbox, probe);
            }
            Some(Loc::OrphanAnti(_)) => {
                // A second anti for the same id cannot occur on reliable
                // transports; dropping it is strictly safer than queueing a
                // duplicate orphan.
                debug_assert!(false, "duplicate anti-message {:?}", anti.id);
            }
            None => {
                // Anti before its positive: remember it.
                self.index.insert(anti.id, Loc::OrphanAnti(self.orphan_antis.len() as u32));
                self.orphan_antis.push(anti);
            }
        }
    }

    /// Send the held anti-messages whose regeneration window has closed:
    /// a pending cancellation at send time `S` can only be regenerated by
    /// a batch executing at exactly `S`, so once the earliest possible
    /// batch time passes `S` the anti must go out. (Should a later
    /// straggler re-open time `S`, the re-executed send simply travels as
    /// a fresh positive — correctness is unaffected, only the lazy saving
    /// is lost for that event.)
    fn flush_lazy<P: Probe>(
        &mut self,
        bound: VTime,
        stats: &mut KernelStats,
        outbox: &mut Vec<Transmission<A::Msg>>,
        probe: &mut P,
    ) {
        if self.cfg.cancellation != Cancellation::Lazy || self.pending_cancel.is_empty() {
            return;
        }
        let cut = self.pending_cancel.partition_point(|e| e.send_time < bound);
        let traced = self.traced();
        for i in 0..cut {
            let (dst, recv) = {
                let e = &self.pending_cancel[i];
                (e.dst, e.recv_time)
            };
            self.cancel_key_dec(dst, recv);
            let e = &self.pending_cancel[i];
            stats.antis_sent += 1;
            probe.anti_sent(self.id, e.send_time);
            if traced {
                eprintln!(
                    "[lp{}]   flush-anti {:?} ->{} @{} (bound {})",
                    self.id, e.id, e.dst, e.recv_time, bound
                );
            }
            outbox.push(Transmission::Anti(e.anti()));
        }
        self.pending_cancel.drain(..cut);
    }

    /// Execute the earliest pending batch (all events sharing the minimum
    /// receive time). New sends go to `outbox`. Panics if nothing is
    /// pending — callers check [`Self::next_time`] first.
    pub fn execute_next<P: Probe>(
        &mut self,
        app: &A,
        stats: &mut KernelStats,
        outbox: &mut Vec<Transmission<A::Msg>>,
        scratch: &mut Scratch<A>,
        probe: &mut P,
    ) {
        let now = self.next_time();
        assert!(!now.is_inf(), "execute_next on an idle LP");
        // Pop the batch. Heap order reproduces the old BTreeMap's
        // deterministic (recv_time, src, seq) message order.
        let Scratch { batch, msgs, sink_buf, .. } = scratch;
        batch.clear();
        while let Some(&Reverse((t, id, slot))) = self.heap.peek() {
            if t != now {
                break;
            }
            self.heap.pop();
            let ev = self.pool.remove(slot);
            debug_assert_eq!(ev.id, id);
            self.index.insert(id, Loc::Processed);
            self.heap_skim();
            batch.push(ev);
        }
        if self.traced() {
            let keys: Vec<_> = batch.iter().map(|e| (e.recv_time, e.id)).collect();
            eprintln!("[lp{}] exec @{} batch={:?}", self.id, now, keys);
        }
        msgs.clear();
        msgs.extend(batch.iter().map(|e| (e.id.src, e.msg.clone())));

        let mut sink = EventSink::with_buffer(now, std::mem::take(sink_buf));
        app.execute(self.id, &mut self.state, now, msgs, &mut sink);

        stats.batches_executed += 1;
        stats.events_processed += batch.len() as u64;
        self.own.events_processed += batch.len() as u64;
        probe.batch_executed(self.id, now, batch.len() as u64);
        let work = sink.take_work();
        if work != crate::app::AppWork::default() {
            stats.block_activations += work.activations;
            stats.ops_executed += work.ops;
            stats.messages_saved += work.saved;
            probe.app_work(self.id, now, work.activations, work.ops);
        }
        self.lvt = now;
        self.processed.append(batch);

        // Route the new sends.
        for (dst, recv, msg) in sink.out.drain(..) {
            if self.cfg.cancellation == Cancellation::Lazy
                && self.cancel_keys.contains_key(&(dst, recv))
            {
                // Regeneration check: an identical event is already live at
                // the receiver — drop both the send and the held anti. (The
                // key filter above rejects the common no-candidate case in
                // O(1); the scan only runs when (dst, recv_time) matches a
                // held cancellation.)
                if let Some(pos) = self
                    .pending_cancel
                    .iter()
                    .position(|e| e.dst == dst && e.recv_time == recv && e.msg == msg)
                {
                    let mut original = self.pending_cancel.remove(pos);
                    self.cancel_key_dec(dst, recv);
                    if self.traced() {
                        eprintln!(
                            "[lp{}]   suppress {:?} ->{} @{}",
                            self.id, original.id, dst, recv
                        );
                    }
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
            if self.traced() {
                eprintln!("[lp{}]   send {:?} ->{} @{}", self.id, ev.id, dst, recv);
            }
            self.outputs.push(ev.clone());
            outbox.push(Transmission::Positive(ev));
        }
        *sink_buf = sink.into_buf();

        // Lazy cancellation flush: anything below the next possible batch
        // time can no longer be regenerated — send those antis now. (When
        // the queue just drained, that is *everything* still held.)
        self.flush_lazy(self.next_time(), stats, outbox, probe);

        // Checkpoint policy.
        self.batches_since_checkpoint += 1;
        if self.batches_since_checkpoint >= self.cfg.checkpoint_interval {
            self.states.push(SavedState {
                tag: Some(now),
                processed_len: self.processed.len(),
                state: scratch.checkpoint(app, &mut self.state),
            });
            self.batches_since_checkpoint = 0;
            stats.states_saved += 1;
            probe.state_saved(self.id, now);
        }
    }

    /// Roll back so that the next executed batch is at `to` (all work at
    /// receive times `>= to` is undone). Restores the newest checkpoint
    /// strictly older than `to` and coast-forwards over the retained
    /// processed events without re-sending.
    #[allow(clippy::too_many_arguments)]
    fn rollback_to<P: Probe>(
        &mut self,
        app: &A,
        to: VTime,
        kind: RollbackKind,
        stats: &mut KernelStats,
        outbox: &mut Vec<Transmission<A::Msg>>,
        scratch: &mut Scratch<A>,
        probe: &mut P,
    ) {
        if self.traced() {
            eprintln!("[lp{}] rollback to {} (lvt {})", self.id, to, self.lvt);
        }
        probe.rollback_begun(self.id, kind, self.lvt, to);
        // 1. Unprocess events at recv_time >= to.
        let cut = self.processed.partition_point(|e| e.recv_time < to);
        let undone = (self.processed.len() - cut) as u64;
        stats.events_rolled_back += undone;
        self.own.events_rolled_back += undone;
        while self.processed.len() > cut {
            let ev = self.processed.pop().expect("length checked");
            self.pending_insert(ev);
        }

        // 2. Restore the newest state strictly before `to` (`tag: None`,
        //    the initial state, is before everything).
        let si = self
            .states
            .iter()
            .rposition(|s| s.tag.is_none_or(|t| t < to))
            .expect("initial state always qualifies");
        let retired = scratch.spares.len();
        scratch.spares.extend(self.states.drain(si + 1..).map(|s| s.state));
        let anchor = &self.states[si];
        app.restore(&mut self.state, &anchor.state, &scratch.spares[retired..]);
        let replay_from = anchor.processed_len;
        debug_assert!(replay_from <= cut);

        // 3. Cancel in-flight outputs sent at or after `to`.
        let ocut = self.outputs.partition_point(|e| e.send_time < to);
        match self.cfg.cancellation {
            Cancellation::Aggressive => {
                for e in &self.outputs[ocut..] {
                    stats.antis_sent += 1;
                    probe.anti_sent(self.id, e.send_time);
                    outbox.push(Transmission::Anti(e.anti()));
                }
                self.outputs.truncate(ocut);
            }
            Cancellation::Lazy => {
                // Forward order + insert-after-equals keeps the relative
                // order of equal send times, which the first-match
                // regeneration scan depends on.
                for e in self.outputs.split_off(ocut) {
                    self.cancel_key_inc(e.dst, e.recv_time);
                    let at = self.pending_cancel.partition_point(|x| x.send_time <= e.send_time);
                    self.pending_cancel.insert(at, e);
                }
            }
        }

        // 4. Coast-forward: silently re-execute the retained events between
        //    the checkpoint and `to` to rebuild the pre-straggler state.
        let coasted = (self.processed.len() - replay_from) as u64;
        stats.events_coasted += coasted;
        let Scratch { msgs, sink_buf, .. } = scratch;
        let mut sink = EventSink::with_buffer(VTime::ZERO, std::mem::take(sink_buf));
        let mut i = replay_from;
        while i < self.processed.len() {
            let t = self.processed[i].recv_time;
            let mut j = i;
            while j < self.processed.len() && self.processed[j].recv_time == t {
                j += 1;
            }
            msgs.clear();
            msgs.extend(self.processed[i..j].iter().map(|e| (e.id.src, e.msg.clone())));
            sink.reset(t);
            app.execute(self.id, &mut self.state, t, msgs, &mut sink);
            // Sends are NOT re-emitted: the originals (sent before `to`)
            // were never cancelled and still stand.
            i = j;
        }
        *sink_buf = sink.into_buf();

        // 5. Reset the local clock.
        self.lvt = self.processed.last().map(|e| e.recv_time).unwrap_or(VTime::ZERO);
        self.batches_since_checkpoint = 0;
        probe.rollback_ended(self.id, to, undone, coasted);
    }

    /// Commit everything strictly below `gvt` and reclaim its memory
    /// (Jefferson's fossil collection). With `gvt == VTime::INF` the run is
    /// over and everything commits.
    pub fn fossil_collect<P: Probe>(
        &mut self,
        gvt: VTime,
        stats: &mut KernelStats,
        scratch: &mut Scratch<A>,
        probe: &mut P,
    ) {
        // Newest checkpoint strictly below GVT becomes the new floor.
        let si = self
            .states
            .iter()
            .rposition(|s| s.tag.is_none_or(|t| t < gvt))
            .expect("initial state always qualifies");
        let floor = self.states[si].processed_len;
        scratch.spares.extend(self.states.drain(..si).map(|s| s.state));
        for s in &mut self.states {
            s.processed_len -= floor;
        }
        let mut committed = floor as u64;
        for ev in self.processed.drain(..floor) {
            let prev = self.index.remove(&ev.id);
            debug_assert_eq!(prev, Some(Loc::Processed), "committed event had a live index entry");
        }

        let ocut = self.outputs.partition_point(|e| e.send_time < gvt);
        self.outputs.drain(..ocut);

        if gvt.is_inf() {
            committed += self.processed.len() as u64;
            for ev in self.processed.drain(..) {
                let prev = self.index.remove(&ev.id);
                debug_assert_eq!(prev, Some(Loc::Processed));
            }
            debug_assert!(
                self.pending_cancel.is_empty(),
                "unsent lazy antis would have held GVT below ∞"
            );
            debug_assert!(
                self.cancel_keys.is_empty(),
                "cancel-key filter must drain with pending_cancel"
            );
        }
        stats.events_committed += committed;
        if committed > 0 {
            probe.fossil_collected(self.id, gvt, committed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoProbe;

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
                sink.schedule_at(0, VTime(1), 1);
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
        let lps: Vec<LpRuntime<Accum>> = (0..app.n as LpId)
            .map(|i| LpRuntime::new(app, i, KernelConfig::default(), &mut init))
            .collect();
        let outbox: Vec<Transmission<u64>> = init.into_iter().map(Transmission::Positive).collect();
        (lps, KernelStats::default(), outbox, Scratch::default())
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
                lps[dst].receive(&app, tx, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
            }
            // Execute globally-lowest next event.
            let Some(best) = (0..lps.len())
                .filter(|&i| !lps[i].next_time().is_inf())
                .min_by_key(|&i| lps[i].next_time())
            else {
                break;
            };
            lps[best].execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
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
            send_time: VTime(1),
            recv_time: VTime(5),
            msg: 50,
        };
        let e_early = Event {
            id: EventId { src: 0, seq: 101 },
            dst: 1,
            send_time: VTime(1),
            recv_time: VTime(3),
            msg: 7,
        };
        lps[1].receive(
            &app,
            Transmission::Positive(e_late),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
        lps[1].execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        assert_eq!(*lps[1].state(), 50);
        assert_eq!(lps[1].lvt(), VTime(5));

        // Straggler at t=3.
        lps[1].receive(
            &app,
            Transmission::Positive(e_early),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
        assert_eq!(stats.primary_rollbacks, 1);
        assert_eq!(stats.events_rolled_back, 1);
        assert_eq!(*lps[1].state(), 0, "state restored to before t=5");

        // Re-execute both in order.
        lps[1].execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        assert_eq!(*lps[1].state(), 7);
        lps[1].execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        assert_eq!(*lps[1].state(), 57);
    }

    /// Successive windows are differences in all three counters, and the
    /// baseline is part of the LP, so it survives a move.
    #[test]
    fn take_window_diffs_and_carries_its_baseline() {
        let app = Accum { n: 2, bound: 0 };
        let (mut lps, mut stats, mut outbox, mut scratch) = setup(&app);
        let event = |seq, t| Event {
            id: EventId { src: 0, seq },
            dst: 1,
            send_time: VTime(1),
            recv_time: VTime(t),
            msg: 1,
        };
        let window = |events, rollbacks, events_rolled_back| LpWindow {
            events,
            rollbacks,
            events_rolled_back,
            fault_penalty: 0,
        };
        let mut lp = lps.pop().unwrap();
        for ev in [event(100, 5), event(101, 6)] {
            lp.receive(
                &app,
                Transmission::Positive(ev),
                &mut stats,
                &mut outbox,
                &mut scratch,
                &mut NoProbe,
            );
            lp.execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        }
        // A straggler undoes both.
        let early = Transmission::Positive(event(102, 3));
        lp.receive(&app, early, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        assert_eq!(lp.take_window(), window(2, 1, 2));

        // Moved, as `ClusterCore::evict` / `adopt` move it, then re-executed:
        // the next window holds only the new work.
        let mut moved = Box::new(lp);
        for _ in 0..3 {
            moved.execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        }
        assert_eq!(moved.take_window(), window(3, 0, 0));
        let anti = Transmission::Anti(event(101, 6).anti());
        moved.receive(&app, anti, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        assert_eq!(moved.take_window(), window(0, 1, 1));
        assert_eq!(moved.take_window(), LpWindow::default(), "drained");
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
            send_time: VTime(1),
            recv_time: VTime(4),
            msg: 9,
        };
        lps[1].receive(
            &app,
            Transmission::Positive(ev.clone()),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
        lps[1].receive(
            &app,
            Transmission::Anti(ev.anti()),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
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
            send_time: VTime(1),
            recv_time: VTime(4),
            msg: 9,
        };
        lps[1].receive(
            &app,
            Transmission::Positive(ev.clone()),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
        lps[1].execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        assert_eq!(*lps[1].state(), 9);
        lps[1].receive(
            &app,
            Transmission::Anti(ev.anti()),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
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
            send_time: VTime(1),
            recv_time: VTime(4),
            msg: 9,
        };
        lps[1].receive(
            &app,
            Transmission::Anti(ev.anti()),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
        lps[1].receive(
            &app,
            Transmission::Positive(ev),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
        assert!(lps[1].next_time().is_inf());
        assert_eq!(stats.annihilated_pending, 1);
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
            send_time: VTime(1),
            recv_time: VTime(t),
            msg: v,
        };
        lps[1].receive(
            &app,
            Transmission::Positive(mk(1, 5, 2)),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
        lps[1].execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        // LP1 forwarded one event.
        assert_eq!(outbox.iter().filter(|t| t.is_positive()).count(), 1);
        outbox.clear();
        // Straggler at t=3 rolls back the t=5 execution → 1 anti out.
        lps[1].receive(
            &app,
            Transmission::Positive(mk(2, 3, 4)),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
        let antis: Vec<_> = outbox.iter().filter(|t| !t.is_positive()).collect();
        assert_eq!(antis.len(), 1);
        assert_eq!(stats.antis_sent, 1);
    }

    /// Lazy cancellation: if re-execution regenerates the identical event,
    /// no anti-message is sent at all.
    #[test]
    fn lazy_cancellation_suppresses_regenerated_sends() {
        let app = Accum { n: 2, bound: 10 };
        let cfg = KernelConfig { cancellation: Cancellation::Lazy, ..Default::default() };
        let mut init = Vec::new();
        let mut lp1: LpRuntime<Accum> = LpRuntime::new(&app, 1, cfg, &mut init);
        let mut stats = KernelStats::default();
        let mut outbox: Vec<Transmission<u64>> = Vec::new();
        let mut scratch = Scratch::default();

        let mk = |seq, t, v| Event {
            id: EventId { src: 0, seq },
            dst: 1,
            send_time: VTime(1),
            recv_time: VTime(t),
            msg: v,
        };
        // Execute at t=5, forwarding an event.
        lp1.receive(
            &app,
            Transmission::Positive(mk(1, 5, 2)),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
        lp1.execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        let sent_before = outbox.len();
        assert_eq!(sent_before, 1);

        // Straggler at t=3 whose message does NOT change what the t=5
        // execution sends (accumulation is independent of prior state).
        lp1.receive(
            &app,
            Transmission::Positive(mk(2, 3, 7)),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
        assert_eq!(stats.antis_sent, 0, "lazy: no anti yet");
        // Re-execute t=3 then t=5.
        lp1.execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        lp1.execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
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
                send_time: VTime(1),
                recv_time: VTime(t.saturating_mul(2)),
                msg: 1,
            };
            lps[1].receive(
                &app,
                Transmission::Positive(ev),
                &mut stats,
                &mut outbox,
                &mut scratch,
                &mut NoProbe,
            );
        }
        for _ in 0..20 {
            lps[1].execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        }
        let before = lps[1].state_queue_len();
        assert!(before > 20);
        lps[1].fossil_collect(VTime(30), &mut stats, &mut scratch, &mut NoProbe);
        assert!(lps[1].state_queue_len() < before);
        assert!(stats.events_committed > 0);
        // Still able to roll back to >= GVT: straggler at exactly 30.
        let s = Event {
            id: EventId { src: 0, seq: 99 },
            dst: 1,
            send_time: VTime(1),
            recv_time: VTime(30),
            msg: 5,
        };
        lps[1].receive(
            &app,
            Transmission::Positive(s),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
        assert_eq!(stats.primary_rollbacks, 1);
        // Replay to completion and verify the sum: 20 ones + 5.
        while !lps[1].next_time().is_inf() {
            lps[1].execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        }
        assert_eq!(*lps[1].state(), 25);
        lps[1].fossil_collect(VTime::INF, &mut stats, &mut scratch, &mut NoProbe);
        assert_eq!(lps[1].state_queue_len(), 1);
    }

    /// Periodic checkpointing (interval > 1) still rolls back correctly via
    /// coast-forward.
    #[test]
    fn coast_forward_with_sparse_checkpoints() {
        let app = Accum { n: 2, bound: 0 };
        let cfg = KernelConfig { checkpoint_interval: 4, ..Default::default() };
        let mut init = Vec::new();
        let mut lp1: LpRuntime<Accum> = LpRuntime::new(&app, 1, cfg, &mut init);
        let mut stats = KernelStats::default();
        let mut outbox: Vec<Transmission<u64>> = Vec::new();
        let mut scratch = Scratch::default();
        for t in 1..=10u64 {
            let ev = Event {
                id: EventId { src: 0, seq: t },
                dst: 1,
                send_time: VTime(1),
                recv_time: VTime(t.saturating_mul(10)),
                msg: t,
            };
            lp1.receive(
                &app,
                Transmission::Positive(ev),
                &mut stats,
                &mut outbox,
                &mut scratch,
                &mut NoProbe,
            );
        }
        for _ in 0..10 {
            lp1.execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        }
        assert_eq!(*lp1.state(), 55);
        // Straggler at t=55 (between checkpoints at batches 4 and 8).
        let s = Event {
            id: EventId { src: 0, seq: 99 },
            dst: 1,
            send_time: VTime(1),
            recv_time: VTime(55),
            msg: 100,
        };
        lp1.receive(
            &app,
            Transmission::Positive(s),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
        // State must equal the sum of messages at t < 55: 1+2+3+4+5 = 15.
        assert_eq!(*lp1.state(), 15, "coast-forward must rebuild mid-interval state");
        while !lp1.next_time().is_inf() {
            lp1.execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        }
        assert_eq!(*lp1.state(), 155);
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
            send_time: VTime(1),
            recv_time: VTime(t),
            msg: v,
        };
        let mut seen = std::collections::HashSet::new();
        lps[1].receive(
            &app,
            Transmission::Positive(mk(1, 5, 2)),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
        lps[1].execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        lps[1].receive(
            &app,
            Transmission::Positive(mk(2, 3, 4)),
            &mut stats,
            &mut outbox,
            &mut scratch,
            &mut NoProbe,
        );
        lps[1].execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        lps[1].execute_next(&app, &mut stats, &mut outbox, &mut scratch, &mut NoProbe);
        for tx in &outbox {
            if let Transmission::Positive(e) = tx {
                assert!(seen.insert(e.id), "duplicate id {:?}", e.id);
            }
        }
    }
}
