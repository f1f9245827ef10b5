//! The per-run fault engine: materializes a [`FaultPlan`] against a
//! concrete node count and runs the fault clock in platform time.
//!
//! Everything here is deterministic: sampled decisions are pure hashes
//! of the seed and the decision's identity (a transmission's send
//! sequence, a random scenario's index). The engine never touches LP
//! state — it only delays *transmissions* and inflates or defers
//! *modeled* CPU charges. That is the whole determinism argument:
//! committed event history is exactly what the Time Warp protocol
//! produces under an adversarial message timing, which rollback already
//! guarantees matches the sequential oracle.

use super::plan::{mix, FaultKind, FaultPlan, FaultScenario};

/// Salt for per-transmission jitter samples.
const JITTER_SALT: u64 = 0x1177_E200_0000_0001;
/// Salt for the random-scenario sampler.
const SCENARIO_SALT: u64 = 0x5CEA_A210_0000_0002;

/// Scripted fault onset/recovery edges in platform-time order — the
/// "FaultClock". Edges only drive telemetry (`faults_injected`,
/// `fault_active`); window *membership* is pure arithmetic on the
/// scenario table, so a deferred edge can never change behavior.
struct FaultClock {
    /// `(ns, onset, node)`, sorted ascending (recovery sorts before
    /// onset at equal times, so back-to-back windows don't double-count
    /// the active gauge).
    edges: Vec<(u64, bool, u32)>,
    cursor: usize,
    active: u64,
}

impl FaultClock {
    fn new(scenarios: &[FaultScenario]) -> FaultClock {
        let mut edges = Vec::with_capacity(scenarios.len() * 2);
        for s in scenarios {
            edges.push((s.start_ns, true, s.node));
            if s.end_ns != u64::MAX {
                edges.push((s.end_ns, false, s.node));
            }
        }
        edges.sort_unstable();
        FaultClock { edges, cursor: 0, active: 0 }
    }
}

/// The seeded fault engine for one platform run. See the module docs
/// for the determinism argument.
pub(crate) struct ChaosRuntime {
    seed: u64,
    /// All materialized fault windows (scripted + sampled).
    scenarios: Vec<FaultScenario>,
    clock: FaultClock,
    /// Modeled ns each node has lost to faults since the last balancing
    /// round (pause stalls, slowdown surcharges, degrade spikes) —
    /// drained into the load the `dynlb` planner balances.
    pub fault_ns: Vec<u64>,
}

impl ChaosRuntime {
    /// `sim::validate` has run [`FaultPlan::check`] against `nodes`.
    pub fn new(plan: &FaultPlan, nodes: usize) -> ChaosRuntime {
        let mut scenarios = plan.scenarios.clone();
        for k in 0..plan.random_scenarios as u64 {
            scenarios.push(sample_scenario(plan.seed, k, nodes));
        }
        ChaosRuntime {
            seed: plan.seed,
            clock: FaultClock::new(&scenarios),
            scenarios,
            fault_ns: vec![0; nodes],
        }
    }

    /// Extra ingress latency (spike + seeded jitter) for the transmission
    /// with send sequence `seq` reaching `dst_node`'s link at `t`, already
    /// attributed to the node's fault ledger.
    pub fn degrade_extra(&mut self, dst_node: usize, t: u64, seq: u64) -> u64 {
        let mut extra = 0u64;
        for s in self.scenarios.iter().filter(|s| s.node as usize == dst_node && s.active_at(t)) {
            if let FaultKind::LinkDegrade { spike_ns, jitter_ns } = s.kind {
                extra = extra.saturating_add(spike_ns);
                if jitter_ns > 0 {
                    extra = extra
                        .saturating_add(mix(self.seed ^ JITTER_SALT, seq, 0) % (jitter_ns + 1));
                }
            }
        }
        self.fault_ns[dst_node] = self.fault_ns[dst_node].saturating_add(extra);
        extra
    }

    /// Apply node degradation to a CPU charge: a pause window defers
    /// the work to its end, a slowdown multiplies it. Returns the new
    /// node clock; with no active fault this is exactly `clock + work`.
    pub fn charge(&mut self, node: usize, clock_ns: u64, work_ns: u64) -> u64 {
        let mut t = clock_ns;
        // Chained pause windows: keep jumping until none covers `t`.
        loop {
            let end = self
                .scenarios
                .iter()
                .filter(|s| {
                    s.node as usize == node
                        && matches!(s.kind, FaultKind::NodePause)
                        && s.active_at(t)
                })
                .map(|s| s.end_ns)
                .max();
            match end {
                Some(e) if e != u64::MAX => {
                    self.fault_ns[node] = self.fault_ns[node].saturating_add(e - t);
                    t = e;
                }
                // A forever-pause would wedge the run; treat it as a
                // slowdown-by-stall up to here and let work proceed.
                _ => break,
            }
        }
        let factor = self
            .scenarios
            .iter()
            .filter(|s| s.node as usize == node && s.active_at(t))
            .filter_map(|s| match s.kind {
                FaultKind::NodeSlow { factor } => Some(factor as u64),
                _ => None,
            })
            .max()
            .unwrap_or(1);
        let expanded = work_ns.saturating_mul(factor);
        if expanded > work_ns {
            self.fault_ns[node] = self.fault_ns[node].saturating_add(expanded - work_ns);
        }
        t.saturating_add(expanded)
    }

    /// Platform time of the next fault edge, if any.
    pub fn next_edge_ns(&self) -> Option<u64> {
        self.clock.edges.get(self.clock.cursor).map(|&(t, _, _)| t)
    }

    /// Pop the next fault edge (the caller checked [`Self::next_edge_ns`]):
    /// `(node, onset, active_now)`, a window opening (`onset`) or closing on
    /// `node`, and the number of windows active after it.
    pub fn pop_edge(&mut self) -> (u32, bool, u64) {
        let clock = &mut self.clock;
        let (_, onset, node) = clock.edges[clock.cursor];
        clock.cursor += 1;
        if onset {
            clock.active += 1;
        } else {
            clock.active = clock.active.saturating_sub(1);
        }
        (node, onset, clock.active)
    }
}

/// Sample random scenario `k`: kind, node and window are all pure
/// hashes of the seed. Windows land in the first ~50 ms of platform
/// time (the scale of every benchmark run) and last 1-10 ms.
#[allow(
    clippy::cast_possible_truncation,
    reason = "a node index below `nodes`, which is a `usize` count of nodes"
)]
fn sample_scenario(seed: u64, k: u64, nodes: usize) -> FaultScenario {
    let r = |salt: u64| mix(seed ^ SCENARIO_SALT, k, salt);
    let node = (r(0) % nodes as u64) as u32;
    let start_ns = r(1) % 50_000_000;
    let len_ns = 1_000_000 + r(2) % 9_000_000;
    let kind = match r(3) % 3 {
        0 => FaultKind::LinkDegrade { spike_ns: 20_000 + r(4) % 180_000, jitter_ns: 50_000 },
        1 => FaultKind::NodeSlow { factor: 2 + (r(4) % 7) as u32 },
        _ => FaultKind::NodePause,
    };
    // Pauses must end (a forever-pause is ignored by `charge`).
    FaultScenario { node, start_ns, end_ns: start_ns + len_ns, kind }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_applies_slowdown_and_pause() {
        let plan = FaultPlan::new(1)
            .scenario(FaultScenario {
                node: 0,
                start_ns: 100,
                end_ns: 200,
                kind: FaultKind::NodePause,
            })
            .scenario(FaultScenario {
                node: 0,
                start_ns: 0,
                end_ns: 1_000,
                kind: FaultKind::NodeSlow { factor: 3 },
            });
        let mut rt = ChaosRuntime::new(&plan, 1);
        // Inside the pause: deferred to 200, then 10 ns of work at 3x.
        assert_eq!(rt.charge(0, 150, 10), 230);
        // Outside every window: plain addition.
        assert_eq!(rt.charge(0, 5_000, 10), 5_010);
        // Fault ledger recorded the stall (50) and the surcharge (20).
        assert_eq!(rt.fault_ns[0], 70);
    }

    #[test]
    fn degrade_adds_spike_and_bounded_reproducible_jitter() {
        let plan = FaultPlan::new(9).scenario(FaultScenario {
            node: 1,
            start_ns: 0,
            end_ns: 1_000,
            kind: FaultKind::LinkDegrade { spike_ns: 100, jitter_ns: 50 },
        });
        let (mut a, mut b) = (ChaosRuntime::new(&plan, 2), ChaosRuntime::new(&plan, 2));
        let extras: Vec<u64> = (0..200).map(|seq| a.degrade_extra(1, 10, seq)).collect();
        assert!(extras.iter().all(|e| (100..=150).contains(e)));
        assert!(extras.iter().any(|&e| e != extras[0]), "jitter never varied");
        assert!((0..200).all(|seq| b.degrade_extra(1, 10, seq) == extras[seq as usize]));
        // Outside the window, and on the healthy node: no delay.
        assert_eq!(a.degrade_extra(1, 1_000, 0) + a.degrade_extra(0, 10, 0), 0);
        assert_eq!(a.fault_ns, vec![0, extras.iter().sum::<u64>()]);
    }

    #[test]
    fn fault_clock_orders_edges() {
        let plan = FaultPlan::new(1)
            .scenario(FaultScenario {
                node: 0,
                start_ns: 10,
                end_ns: 30,
                kind: FaultKind::NodePause,
            })
            .scenario(FaultScenario {
                node: 1,
                start_ns: 20,
                end_ns: u64::MAX,
                kind: FaultKind::NodeSlow { factor: 2 },
            });
        let mut rt = ChaosRuntime::new(&plan, 2);
        let mut seen = Vec::new();
        while let Some(t) = rt.next_edge_ns() {
            let (node, onset, active_now) = rt.pop_edge();
            seen.push((t, node, onset, active_now));
        }
        assert_eq!(seen, vec![(10, 0, true, 1), (20, 1, true, 2), (30, 0, false, 1)]);
    }

    #[test]
    fn random_scenarios_are_seed_deterministic_timing_faults() {
        let a = ChaosRuntime::new(&FaultPlan::new(7).random(50), 4);
        let b = ChaosRuntime::new(&FaultPlan::new(7).random(50), 4);
        let c = ChaosRuntime::new(&FaultPlan::new(8).random(50), 4);
        assert_eq!(a.scenarios, b.scenarios);
        assert_ne!(a.scenarios, c.scenarios);
        assert!(a.scenarios.iter().all(|s| (s.node as usize) < 4));
        // Every sample is one of the three timing kinds and passes the
        // plan check.
        let plan = FaultPlan { scenarios: a.scenarios.clone(), ..FaultPlan::new(7) };
        assert_eq!(plan.check(4), Ok(()));
        let sampled = |kind: fn(&FaultKind) -> bool| a.scenarios.iter().any(|s| kind(&s.kind));
        assert!(sampled(|k| matches!(k, FaultKind::LinkDegrade { .. })));
        assert!(sampled(|k| matches!(k, FaultKind::NodeSlow { .. })));
        assert!(sampled(|k| matches!(k, FaultKind::NodePause)));
    }
}
