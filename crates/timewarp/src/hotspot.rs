//! A skewed-hotspot synthetic workload: the adversary of every *static*
//! partitioner, and the showcase for [`crate::dynlb`].
//!
//! LPs form a ring. Every LP runs a low-rate heartbeat self-event chain; a
//! contiguous window of `hot_width` LPs is "hot" and spawns extra work per
//! heartbeat, and the window *rotates* around the ring as virtual time
//! advances — so no placement chosen up front stays right for long. Work
//! tokens hop along the ring, giving the load graph real communication
//! edges:
//!
//! * a **block** partition keeps ring neighbours local but concentrates
//!   the whole hot window on one node — it loses to imbalance;
//! * a **striped** (round-robin) partition spreads the hot window evenly
//!   but makes every ring hop a remote message — it loses to
//!   communication;
//! * a dynamic balancer migrates the hot LPs as the window moves, keeping
//!   load level *and* most hops local.
//!
//! Randomness (heartbeat jitter, work fan-out) is drawn from
//! state-embedded xorshift generators, exactly like [`crate::phold`], so
//! the model is deterministic and rollback-safe.

use crate::app::{Application, EventSink};
use crate::event::LpId;
use crate::time::VTime;

/// Parameters of the rotating-hotspot workload.
#[derive(Debug, Clone, Copy)]
pub struct RotatingHotspot {
    /// Number of LPs (ring size).
    pub lps: usize,
    /// Virtual-time length of one hotspot phase; each phase the hot window
    /// advances by `hot_width` positions.
    pub phase_len: u64,
    /// Number of phases; the horizon is `phase_len * phases`.
    pub phases: u64,
    /// Width of the hot window (consecutive LPs).
    pub hot_width: usize,
    /// Work tokens a hot LP spawns per heartbeat.
    pub hot_factor: u64,
    /// Ring hops each work token performs before retiring.
    pub work_hops: u32,
    /// Run seed.
    pub seed: u64,
}

impl Default for RotatingHotspot {
    fn default() -> Self {
        RotatingHotspot {
            lps: 64,
            phase_len: 120,
            phases: 6,
            hot_width: 16,
            hot_factor: 5,
            work_hops: 3,
            seed: 0x40075907,
        }
    }
}

impl RotatingHotspot {
    /// The simulation horizon (`phase_len * phases`).
    pub fn horizon(&self) -> u64 {
        self.phase_len.saturating_mul(self.phases)
    }

    /// Whether `lp` is inside the hot window at virtual time `now`.
    pub fn is_hot(&self, lp: LpId, now: VTime) -> bool {
        let phase = (now.ticks() / self.phase_len.max(1)) as usize;
        let start = (phase * self.hot_width) % self.lps;
        let offset = (lp as usize + self.lps - start) % self.lps;
        offset < self.hot_width
    }
}

/// Per-LP hotspot state: activity counters plus the LP's private RNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotspotState {
    /// Heartbeats this LP has executed.
    pub beats: u64,
    /// Work tokens this LP has handled.
    pub work: u64,
    /// xorshift64 state (never zero).
    rng: u64,
}

fn xorshift(x: &mut u64) -> u64 {
    let mut v = *x;
    v ^= v << 13;
    v ^= v >> 7;
    v ^= v << 17;
    *x = v;
    v
}

impl Application for RotatingHotspot {
    /// `0` = heartbeat; `k > 0` = work token with `k` ring hops left.
    type Msg = u32;
    type State = HotspotState;

    fn num_lps(&self) -> usize {
        self.lps
    }

    fn init_state(&self, lp: LpId) -> HotspotState {
        let mixed =
            self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(lp) + 1));
        HotspotState { beats: 0, work: 0, rng: mixed | 1 }
    }

    fn init_events(&self, lp: LpId, state: &mut HotspotState, sink: &mut EventSink<u32>) {
        let jitter = xorshift(&mut state.rng) % 3;
        sink.schedule_at(lp, VTime::from(1).after(jitter), 0);
    }

    fn execute(
        &self,
        lp: LpId,
        state: &mut HotspotState,
        now: VTime,
        msgs: &[(LpId, u32)],
        sink: &mut EventSink<u32>,
    ) {
        let horizon = self.horizon();
        for &(_, msg) in msgs {
            if msg == 0 {
                state.beats += 1;
                if self.is_hot(lp, now) {
                    for _ in 0..self.hot_factor {
                        let delay = 1 + xorshift(&mut state.rng) % 3;
                        if now.after(delay).ticks() <= horizon {
                            sink.schedule(lp, delay, self.work_hops);
                        }
                    }
                }
                let beat = 4 + xorshift(&mut state.rng) % 3;
                if now.after(beat).ticks() <= horizon {
                    sink.schedule(lp, beat, 0);
                }
            } else {
                state.work += 1;
                if msg > 1 {
                    let delay = 1 + xorshift(&mut state.rng) % 2;
                    if now.after(delay).ticks() <= horizon {
                        sink.schedule((lp + 1) % self.lps as LpId, delay, msg - 1);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Backend, Simulator};
    use crate::stats::LpLedger;

    fn block(n: usize, parts: usize) -> Vec<u32> {
        let per = n.div_ceil(parts);
        (0..n).map(|i| (i / per) as u32).collect()
    }

    #[test]
    fn hot_window_rotates() {
        let m = RotatingHotspot { lps: 16, hot_width: 4, phase_len: 100, ..Default::default() };
        assert!(m.is_hot(0, VTime::from(10)));
        assert!(!m.is_hot(8, VTime::from(10)));
        // Next phase: window starts at 4.
        assert!(m.is_hot(4, VTime::from(150)));
        assert!(!m.is_hot(0, VTime::from(150)));
    }

    #[test]
    fn platform_matches_sequential() {
        let m = RotatingHotspot { lps: 24, phases: 3, phase_len: 60, ..Default::default() };
        let seq = Simulator::new(&m).run(Backend::Sequential).unwrap();
        let res = Simulator::new(&m)
            .run(Backend::Platform { assignment: &block(24, 4), nodes: 4 })
            .unwrap();
        assert_eq!(res.states, seq.states);
    }

    #[test]
    fn hotspot_load_is_skewed_per_phase() {
        // During phase 0, the hot window's LPs must do far more work than
        // the rest — otherwise the scenario has no hotspot to balance.
        let m = RotatingHotspot { lps: 32, phases: 1, ..Default::default() };
        let (_, ledger) =
            Simulator::new(&m).probe(LpLedger::default()).run_probed(Backend::Sequential).unwrap();
        let activity = ledger.into_parts().0;
        let events =
            |lps: std::ops::Range<usize>| -> u64 { activity[lps].iter().map(|a| a.events).sum() };
        let (hot, cold) = (events(0..m.hot_width), events(m.hot_width..m.lps));
        let hot_avg = hot / m.hot_width as u64;
        let cold_avg = cold / (m.lps - m.hot_width) as u64;
        assert!(
            hot_avg > 3 * cold_avg,
            "hot LPs should dominate: hot_avg={hot_avg} cold_avg={cold_avg}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let m = RotatingHotspot { lps: 16, phases: 2, phase_len: 50, ..Default::default() };
        let asg = block(16, 2);
        let a = Simulator::new(&m).run(Backend::Platform { assignment: &asg, nodes: 2 }).unwrap();
        let b = Simulator::new(&m).run(Backend::Platform { assignment: &asg, nodes: 2 }).unwrap();
        assert_eq!(a.states, b.states);
        assert_eq!(a.stats, b.stats);
    }
}
