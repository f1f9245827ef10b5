//! Sequential event-driven kernel — the paper's baseline ("Seq Time"
//! column of Table 2) and the determinism oracle for the optimistic
//! executives.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::app::{AppWork, Application, EventSink};
use crate::event::{EventId, LpId};
use crate::pool::IdHashMap;
use crate::probe::{Probe, ProbeEvent, Tee};
use crate::sim::{Outcome, RunReport};
use crate::stats::KernelStats;
use crate::time::VTime;

/// Payload side-table for the global queue, keyed by insertion uid.
/// Fixed-seed hasher: lookups only, iteration order is never observed,
/// and this is the benchmarked hot path of the baseline executive.
type Payloads<M> = IdHashMap<u64, (LpId, VTime, LpId, M)>;

/// The executive proper, generic over the telemetry probe; returns the
/// probe with the report. Every batch is committed the moment it
/// executes (a sequential run cannot roll back), so the probe sees
/// `BatchExecuted` (+ `AppWork`) + `FossilCollected` runs and nothing
/// else.
pub(crate) fn sequential_core<A: Application, P: Probe>(app: &A, probe: P) -> (RunReport<A>, P) {
    let n = app.num_lps();
    let mut states: Vec<A::State> = (0..n as LpId).map(|i| app.init_state(i)).collect();
    let stats = KernelStats { replicated_gates: app.replicated_units(), ..KernelStats::default() };
    let mut probe = Tee::new(stats, probe);

    // Global queue keyed by (recv_time, dst, src-id) so batch grouping and
    // in-batch order are deterministic.
    type Key = (VTime, LpId, EventId);
    let mut heap: BinaryHeap<Reverse<(Key, u64)>> = BinaryHeap::new();
    let mut payloads: Payloads<A::Msg> = Payloads::default();
    let mut uid = 0u64;
    let mut seqs: Vec<u64> = vec![0; n];

    let push = |heap: &mut BinaryHeap<Reverse<(Key, u64)>>,
                payloads: &mut Payloads<A::Msg>,
                uid: &mut u64,
                seqs: &mut [u64],
                src: LpId,
                dst: LpId,
                at: VTime,
                msg: A::Msg| {
        let id = EventId { src, seq: seqs[src as usize] };
        seqs[src as usize] += 1;
        heap.push(Reverse(((at, dst, id), *uid)));
        payloads.insert(*uid, (dst, at, src, msg));
        *uid += 1;
    };

    // Seed initial events.
    for lp in 0..n as LpId {
        let mut sink = EventSink::new(VTime::ZERO);
        app.init_events(lp, &mut states[lp as usize], &mut sink);
        for (dst, at, msg) in sink.out {
            push(&mut heap, &mut payloads, &mut uid, &mut seqs, lp, dst, at, msg);
        }
    }

    let mut end_time = VTime::ZERO;
    let mut batch: Vec<(LpId, A::Msg)> = Vec::new();
    while let Some(&Reverse(((t, dst, _), _))) = heap.peek() {
        // Collect the whole batch for (t, dst).
        batch.clear();
        while let Some(&Reverse(((t2, d2, _), u))) = heap.peek() {
            if t2 != t || d2 != dst {
                break;
            }
            heap.pop();
            let (_, _, src, msg) = payloads.remove(&u).expect("payload exists");
            batch.push((src, msg));
        }
        let mut sink = EventSink::new(t);
        app.execute(dst, &mut states[dst as usize], t, &batch, &mut sink);
        let events = batch.len() as u64;
        probe.on(ProbeEvent::BatchExecuted { lp: dst, now: t, events });
        let work = sink.take_work();
        if work != AppWork::default() {
            let AppWork { activations, ops, saved } = work;
            probe.on(ProbeEvent::AppWork { lp: dst, now: t, activations, ops, saved });
        }
        probe.on(ProbeEvent::FossilCollected { lp: dst, gvt: t, committed: events });
        end_time = t;
        for (d2, at, msg) in sink.out {
            push(&mut heap, &mut payloads, &mut uid, &mut seqs, dst, d2, at, msg);
        }
    }
    let Tee { a: mut stats, b: probe } = probe;
    stats.final_gvt = VTime::INF;
    let outcome = Outcome::Sequential { end_time };
    (RunReport { stats, states, outcome, telemetry: None }, probe)
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

    #[test]
    fn empty_application_terminates() {
        use crate::testkit::Idle;
        let res = Simulator::new(&Idle).run(Backend::Sequential).unwrap();
        assert_eq!(res.stats.events_processed, 0);
        assert_eq!(res.outcome.end_time(), Some(VTime::ZERO));
    }
}
