//! Sequential event-driven kernel — the paper's baseline ("Seq Time"
//! column of Table 2) and the determinism oracle for the optimistic
//! executives, run from a `Calendar` of pending events.

use std::collections::BTreeMap;

use crate::app::{AppWork, Application, EventSink};
use crate::event::{EventId, LpId};
use crate::probe::{Probe, ProbeEvent, Tee};
use crate::sim::{Outcome, RunReport};
use crate::stats::KernelStats;
use crate::time::VTime;

/// The executive proper, generic over the telemetry probe; returns the
/// probe with the report. Every batch is committed the moment it
/// executes (a sequential run cannot roll back), so the probe sees
/// `BatchExecuted` (+ `AppWork`) + `FossilCollected` runs and nothing
/// else.
#[allow(
    clippy::cast_possible_truncation,
    reason = "LP ids, slots and counts index vectors of at most `u32::MAX` LPs (`LpId` is `u32`)"
)]
pub(crate) fn sequential_core<A: Application, P: Probe>(app: &A, probe: P) -> (RunReport<A>, P) {
    let n = app.num_lps();
    let mut states: Vec<A::State> = (0..n as LpId).map(|i| app.init_state(i)).collect();
    let stats = KernelStats { replicated_gates: app.replicated_units(), ..KernelStats::default() };
    let mut probe = Tee::new(stats, probe);

    let mut calendar = Calendar { pending: BTreeMap::new(), spare: Vec::new(), seqs: vec![0; n] };
    let mut sink = EventSink::new(VTime::ZERO);
    for lp in 0..n as LpId {
        app.init_events(lp, &mut states[lp as usize], &mut sink);
        calendar.file(lp, &mut sink.out);
    }

    let mut end_time = VTime::ZERO;
    let mut batch: Vec<(LpId, A::Msg)> = Vec::new();
    while let Some((t, mut bucket)) = calendar.pending.pop_first() {
        bucket.sort_unstable_by_key(|&(dst, id, _)| (dst, id));
        let mut queued = bucket.drain(..).peekable();
        while let Some((dst, id, msg)) = queued.next() {
            batch.clear();
            batch.push((id.src, msg));
            while let Some((_, id, msg)) = queued.next_if(|e| e.0 == dst) {
                batch.push((id.src, msg));
            }
            sink.reset(t);
            app.execute(dst, &mut states[dst as usize], t, &batch, &mut sink);
            let events = batch.len() as u64;
            probe.on(ProbeEvent::BatchExecuted { lp: dst, now: t, events });
            let work = sink.take_work();
            if work != AppWork::default() {
                let AppWork { activations, ops, saved } = work;
                probe.on(ProbeEvent::AppWork { lp: dst, now: t, activations, ops, saved });
            }
            probe.on(ProbeEvent::FossilCollected { lp: dst, gvt: t, committed: events });
            calendar.file(dst, &mut sink.out);
        }
        drop(queued);
        calendar.spare.push(bucket);
        end_time = t;
    }
    let Tee { a: mut stats, b: probe } = probe;
    stats.final_gvt = VTime::INF;
    let outcome = Outcome::Sequential { end_time };
    (RunReport { stats, states, outcome }, probe)
}

/// Pending events, one bucket of `(dst, id, msg)` per receive time, taken
/// in time order. [`EventSink`] files every event strictly after the batch
/// that makes it (positive delay, finite time), so a bucket is complete
/// when taken; sorted by `(dst, EventId)`, its runs of one `dst` are the
/// batches in `(time, lp)` order, each batch's messages in `(src, seq)`
/// order.
struct Calendar<M> {
    pending: BTreeMap<VTime, Vec<(LpId, EventId, M)>>,
    /// Emptied buckets, reused so a steady run allocates none.
    spare: Vec<Vec<(LpId, EventId, M)>>,
    /// Next send sequence number per LP.
    seqs: Vec<u64>,
}

impl<M> Calendar<M> {
    /// File `src`'s sends, stamping each with its id; leaves `out` empty.
    fn file(&mut self, src: LpId, out: &mut Vec<(LpId, VTime, M)>) {
        let seq = &mut self.seqs[src as usize];
        for (dst, at, msg) in out.drain(..) {
            let id = EventId { src, seq: *seq };
            *seq += 1;
            let bucket =
                self.pending.entry(at).or_insert_with(|| self.spare.pop().unwrap_or_default());
            bucket.push((dst, id, msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EventSink;
    use crate::sim::{Backend, Simulator};

    /// Ping-pong: two LPs bounce a decrementing counter.
    struct PingPong {
        start: u64,
    }
    impl Application for PingPong {
        type Msg = u64;
        type State = u64; // number of messages seen

        fn num_lps(&self) -> usize {
            2
        }
        fn init_state(&self, _lp: LpId) -> u64 {
            0
        }
        fn init_events(&self, lp: LpId, _s: &mut u64, sink: &mut EventSink<u64>) {
            if lp == 0 {
                sink.schedule_at(1, VTime::from(1), self.start);
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
                *state += 1;
                if v > 0 {
                    sink.schedule(1 - lp, 3, v - 1);
                }
            }
        }
    }

    #[test]
    fn ping_pong_counts_messages() {
        let res = Simulator::new(&PingPong { start: 9 }).run(Backend::Sequential).unwrap();
        assert_eq!(res.stats.events_processed, 10);
        assert_eq!(res.stats.rollbacks(), 0);
        // LP1 receives messages 9,7,5,3,1 → 5; LP0 receives 8,6,4,2,0 → 5.
        assert_eq!(res.states, vec![5, 5]);
        assert_eq!(res.outcome.end_time(), Some(VTime::from(1 + 9 * 3)));
    }

    /// Simultaneous events to the same LP arrive as one batch.
    struct BatchCheck;
    impl Application for BatchCheck {
        type Msg = u8;
        type State = Vec<usize>; // batch sizes observed

        fn num_lps(&self) -> usize {
            3
        }
        fn init_state(&self, _lp: LpId) -> Vec<usize> {
            Vec::new()
        }
        fn init_events(&self, lp: LpId, _s: &mut Vec<usize>, sink: &mut EventSink<u8>) {
            if lp < 2 {
                // Both senders target LP2 at the same instant.
                sink.schedule_at(2, VTime::from(10), lp as u8);
            }
        }
        fn execute(
            &self,
            _lp: LpId,
            state: &mut Vec<usize>,
            _now: VTime,
            msgs: &[(LpId, u8)],
            _sink: &mut EventSink<u8>,
        ) {
            state.push(msgs.len());
        }
    }

    #[test]
    fn simultaneous_events_form_one_batch() {
        let res = Simulator::new(&BatchCheck).run(Backend::Sequential).unwrap();
        assert_eq!(res.states[2], vec![2], "both t=10 events must arrive together");
        assert_eq!(res.stats.batches_executed, 1);
    }

    /// Wraps a model so each message carries its sender's send count,
    /// which is the kernel's `EventId::seq` (both count the same sends in
    /// the same order), and checks the batch contract in `execute`: an LP
    /// runs once per receive time, its messages in `(src, seq)` order.
    struct Ordered<A>(A);

    #[derive(Clone)]
    struct OrderedState<S> {
        inner: S,
        sent: u64,
        last: Option<VTime>,
    }

    fn stamp<S, M>(
        state: &mut OrderedState<S>,
        inner: EventSink<M>,
        sink: &mut EventSink<(u64, M)>,
    ) {
        for (dst, at, msg) in inner.out {
            sink.schedule_at(dst, at, (state.sent, msg));
            state.sent += 1;
        }
    }

    impl<A: Application> Application for Ordered<A> {
        type Msg = (u64, A::Msg);
        type State = OrderedState<A::State>;

        fn num_lps(&self) -> usize {
            self.0.num_lps()
        }
        fn init_state(&self, lp: LpId) -> Self::State {
            OrderedState { inner: self.0.init_state(lp), sent: 0, last: None }
        }
        fn init_events(&self, lp: LpId, state: &mut Self::State, sink: &mut EventSink<Self::Msg>) {
            let mut inner = EventSink::new(sink.now());
            self.0.init_events(lp, &mut state.inner, &mut inner);
            stamp(state, inner, sink);
        }
        fn execute(
            &self,
            lp: LpId,
            state: &mut Self::State,
            now: VTime,
            msgs: &[(LpId, Self::Msg)],
            sink: &mut EventSink<Self::Msg>,
        ) {
            assert!(state.last < Some(now), "LP {lp} ran twice at {now:?}");
            state.last = Some(now);
            let keys: Vec<(LpId, u64)> = msgs.iter().map(|&(src, (seq, _))| (src, seq)).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "LP {lp} at {now:?} got {keys:?}");
            let plain: Vec<(LpId, A::Msg)> =
                msgs.iter().map(|(src, (_, msg))| (*src, msg.clone())).collect();
            let mut inner = EventSink::new(now);
            self.0.execute(lp, &mut state.inner, now, &plain, &mut inner);
            stamp(state, inner, sink);
        }
    }

    /// Asserts that batches execute in strictly increasing `(now, lp)`.
    #[derive(Default)]
    struct Monotone {
        last: Option<(VTime, LpId)>,
        batches: u64,
    }

    impl Probe for Monotone {
        fn on(&mut self, event: ProbeEvent) {
            if let ProbeEvent::BatchExecuted { lp, now, .. } = event {
                assert!(self.last < Some((now, lp)), "{:?} then ({now:?}, {lp})", self.last);
                self.last = Some((now, lp));
                self.batches += 1;
            }
        }
        fn fork(&mut self) -> Monotone {
            Monotone::default()
        }
        fn join(&mut self, _child: Monotone) {}
    }

    /// Runs `app` wrapped in [`Ordered`] under [`Monotone`]; returns
    /// `(events, batches)`.
    fn check_order<A: Application>(app: A) -> (u64, u64) {
        let app = Ordered(app);
        let (res, probe) = Simulator::new(&app)
            .probe(Monotone::default())
            .run_probed(Backend::Sequential)
            .unwrap();
        assert_eq!(probe.batches, res.stats.batches_executed);
        (res.stats.events_processed, res.stats.batches_executed)
    }

    /// The order contract every executive's committed history is checked
    /// against: batches in `(time, lp)` order, one per pair, messages in
    /// `(src, seq)` order — under dense same-time traffic, where a batch
    /// holds several messages, some from the same sender.
    #[test]
    fn batches_and_messages_run_in_key_order() {
        use crate::phold::Phold;
        use crate::testkit::Ring;
        let phold = Phold {
            lps: 12,
            population_per_lp: 6,
            mean_delay: 1,
            horizon: 300,
            ..Phold::default()
        };
        let (events, batches) = check_order(phold);
        assert!(events > 2 * batches, "PHOLD too sparse: {events} events in {batches} batches");
        let (events, batches) = check_order(Ring { n: 9, hops: 200 });
        assert!(events > batches, "Ring never batched: {events} events in {batches} batches");
    }

    #[test]
    fn empty_application_terminates() {
        use crate::testkit::Idle;
        let res = Simulator::new(&Idle).run(Backend::Sequential).unwrap();
        assert_eq!(res.stats.events_processed, 0);
        assert_eq!(res.outcome.end_time(), Some(VTime::ZERO));
    }
}
