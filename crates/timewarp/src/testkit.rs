//! Toy models and placements shared by this crate's unit tests.

use crate::app::{Application, EventSink};
use crate::event::LpId;
use crate::time::VTime;

/// A ring of LPs passing tokens with per-hop jitter in virtual time:
/// enough structure for cross-cluster causality violations.
#[derive(Debug)]
pub(crate) struct Ring {
    pub n: usize,
    pub hops: u64,
}

impl Application for Ring {
    type Msg = u64; // remaining hops
    type State = u64; // tokens seen

    fn num_lps(&self) -> usize {
        self.n
    }
    fn init_state(&self, _lp: LpId) -> u64 {
        0
    }
    fn init_events(&self, lp: LpId, _s: &mut u64, sink: &mut EventSink<u64>) {
        // Every LP launches a token.
        sink.schedule_at(lp, VTime(1).after(lp as u64 % 3), self.hops);
    }
    fn execute(
        &self,
        lp: LpId,
        state: &mut u64,
        _now: VTime,
        msgs: &[(LpId, u64)],
        sink: &mut EventSink<u64>,
    ) {
        for &(_, hops) in msgs {
            *state += 1;
            if hops > 0 {
                let delay = 1 + (lp as u64 * 7 + hops) % 5;
                sink.schedule((lp + 1) % self.n as u32, delay, hops - 1);
            }
        }
    }
}

/// A [`Ring`] with a bug: LP `lp` panics when activated after it has seen
/// `seen` tokens. Every executive gets there — the committed history does
/// — though an optimistic one may get there early.
#[derive(Debug)]
pub(crate) struct Tripwire {
    pub ring: Ring,
    pub lp: LpId,
    pub seen: u64,
}

impl Application for Tripwire {
    type Msg = u64;
    type State = u64;

    fn num_lps(&self) -> usize {
        self.ring.num_lps()
    }
    fn init_state(&self, lp: LpId) -> u64 {
        self.ring.init_state(lp)
    }
    fn init_events(&self, lp: LpId, s: &mut u64, sink: &mut EventSink<u64>) {
        self.ring.init_events(lp, s, sink);
    }
    fn execute(
        &self,
        lp: LpId,
        state: &mut u64,
        now: VTime,
        msgs: &[(LpId, u64)],
        sink: &mut EventSink<u64>,
    ) {
        assert!(lp != self.lp || *state < self.seen, "tripwire: LP {lp} at {now}");
        self.ring.execute(lp, state, now, msgs, sink);
    }
}

/// Four LPs that never schedule anything.
pub(crate) struct Idle;

impl Application for Idle {
    type Msg = ();
    type State = ();

    fn num_lps(&self) -> usize {
        4
    }
    fn init_state(&self, _lp: LpId) {}
    fn init_events(&self, _lp: LpId, _s: &mut (), _sink: &mut EventSink<()>) {}
    fn execute(
        &self,
        _lp: LpId,
        _s: &mut (),
        _now: VTime,
        _m: &[(LpId, ())],
        _sink: &mut EventSink<()>,
    ) {
    }
}

/// LP `i` → part `i % parts`.
pub(crate) fn round_robin(n: usize, parts: usize) -> Vec<u32> {
    (0..n).map(|i| (i % parts) as u32).collect()
}
