//! PHOLD — the standard synthetic benchmark for Time Warp kernels
//! (Fujimoto's parallel version of the HOLD queueing model).
//!
//! A fixed population of jobs circulates among LPs: each LP, on receiving
//! a job, holds it for an exponentially-distributed service time and
//! forwards it to a uniformly random LP. PHOLD has no application-level
//! structure to exploit, which makes it the purest stress test of the
//! kernel itself (queue operations, rollback machinery, GVT) and the
//! traditional yardstick for comparing Time Warp implementations — the
//! WARPED papers report PHOLD numbers alongside application studies.
//!
//! Randomness is drawn from state-embedded xorshift generators, so the
//! model is deterministic and rollback-safe (a re-executed event redraws
//! exactly the same service time and destination).

use crate::app::{Application, EventSink};
use crate::event::LpId;
use crate::time::VTime;

/// PHOLD model parameters.
#[derive(Debug, Clone, Copy)]
pub struct Phold {
    /// Number of LPs.
    pub lps: usize,
    /// Jobs initially seeded per LP (the "population").
    pub population_per_lp: usize,
    /// Mean holding delay (virtual-time units; drawn 1..=2*mean).
    pub mean_delay: u64,
    /// Fraction (0..=100) of forwards that stay on the same LP —
    /// PHOLD's "locality" knob; higher means fewer remote messages.
    pub locality_pct: u8,
    /// Stop seeding new hops past this virtual time.
    pub horizon: u64,
    /// Run seed.
    pub seed: u64,
}

impl Default for Phold {
    fn default() -> Self {
        Phold {
            lps: 64,
            population_per_lp: 4,
            mean_delay: 8,
            locality_pct: 50,
            horizon: 1_000,
            seed: 0xF01D,
        }
    }
}

/// Per-LP PHOLD state: a counter of handled jobs and the LP's private RNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PholdState {
    /// Jobs this LP has handled.
    pub handled: u64,
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

impl Application for Phold {
    type Msg = u64; // job id (for debugging; the kernel needs PartialEq)
    type State = PholdState;

    fn num_lps(&self) -> usize {
        self.lps
    }

    fn init_state(&self, lp: LpId) -> PholdState {
        let mixed =
            self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(lp) + 1));
        PholdState { handled: 0, rng: mixed | 1 }
    }

    fn init_events(&self, lp: LpId, state: &mut PholdState, sink: &mut EventSink<u64>) {
        for j in 0..self.population_per_lp {
            let delay = 1 + xorshift(&mut state.rng) % (2 * self.mean_delay);
            sink.schedule_at(lp, VTime(delay), u64::from(lp) * 10_000 + j as u64);
        }
    }

    fn execute(
        &self,
        lp: LpId,
        state: &mut PholdState,
        now: VTime,
        msgs: &[(LpId, u64)],
        sink: &mut EventSink<u64>,
    ) {
        for &(_, job) in msgs {
            state.handled += 1;
            let delay = 1 + xorshift(&mut state.rng) % (2 * self.mean_delay);
            if now.after(delay).0 > self.horizon {
                continue; // job retires at the horizon
            }
            let dst = if xorshift(&mut state.rng) % 100 < u64::from(self.locality_pct) {
                lp
            } else {
                (xorshift(&mut state.rng) % self.lps as u64) as LpId
            };
            sink.schedule(dst, delay, job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Backend, Simulator};
    use crate::testkit::round_robin;

    #[test]
    fn sequential_run_conserves_jobs() {
        let model = Phold { lps: 16, horizon: 300, ..Default::default() };
        let res = Simulator::new(&model).run(Backend::Sequential).unwrap();
        let handled: u64 = res.states.iter().map(|s| s.handled).sum();
        assert_eq!(handled, res.stats.events_processed);
        assert!(handled > 500, "PHOLD must generate sustained load, got {handled}");
    }

    #[test]
    fn platform_matches_sequential() {
        let model = Phold { lps: 24, horizon: 200, ..Default::default() };
        let seq = Simulator::new(&model).run(Backend::Sequential).unwrap();
        for nodes in [2, 4] {
            let res = Simulator::new(&model)
                .run(Backend::Platform { assignment: &round_robin(24, nodes), nodes })
                .unwrap();
            assert_eq!(res.states, seq.states, "{nodes}-node PHOLD diverged");
        }
    }

    #[test]
    fn locality_controls_remote_traffic() {
        let mk = |pct| Phold { lps: 24, horizon: 200, locality_pct: pct, ..Default::default() };
        let run = |m: &Phold| {
            Simulator::new(m)
                .run(Backend::Platform { assignment: &round_robin(24, 4), nodes: 4 })
                .unwrap()
        };
        let local = run(&mk(90));
        let remote = run(&mk(10));
        assert!(
            local.stats.app_messages * 2 < remote.stats.app_messages,
            "locality 90% sent {} vs locality 10% {}",
            local.stats.app_messages,
            remote.stats.app_messages
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let model = Phold { lps: 16, horizon: 150, ..Default::default() };
        let asg = round_robin(16, 3);
        let a =
            Simulator::new(&model).run(Backend::Platform { assignment: &asg, nodes: 3 }).unwrap();
        let b =
            Simulator::new(&model).run(Backend::Platform { assignment: &asg, nodes: 3 }).unwrap();
        assert_eq!(a.states, b.states);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn threaded_matches_sequential() {
        let model = Phold { lps: 16, horizon: 150, ..Default::default() };
        let seq = Simulator::new(&model).run(Backend::Sequential).unwrap();
        let res = Simulator::new(&model)
            .run(Backend::Threaded { assignment: &round_robin(16, 2), clusters: 2 })
            .unwrap();
        assert_eq!(res.states, seq.states);
    }
}
