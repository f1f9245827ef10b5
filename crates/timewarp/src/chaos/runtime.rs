//! The per-run fault engine: materializes a [`FaultPlan`] against a
//! concrete node count and runs the ack/retransmit protocol plus the
//! fault clock in platform time.
//!
//! Everything here is deterministic: sampled decisions are pure hashes
//! of `(seed, wire id, attempt)`, the retransmit buffer is a `BTreeMap`
//! (ordered iteration), and tie-breaks between simultaneous chaos items
//! are fixed (acks, then timers, then fault edges). The engine never
//! touches LP state — it only delays, duplicates-and-filters, or drops
//! *transmissions*, and inflates *modeled* CPU charges. That is the
//! whole determinism argument: committed event history is exactly what
//! the Time Warp protocol produces under an adversarial message timing,
//! which rollback already guarantees matches the sequential oracle.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::event::Transmission;
use crate::pool::IdHashSet;
use crate::time::VTime;

use super::plan::{mix, FaultKind, FaultPlan, FaultScenario, MAX_BACKOFF_EXP, MAX_DROP_ATTEMPTS};

/// Salt distinguishing ack-drop rolls from data-drop rolls of the same
/// wire id/attempt.
const ACK_SALT: u64 = 0xACC0_ACC0_ACC0_ACC0;
/// Salt for per-attempt jitter samples.
const JITTER_SALT: u64 = 0x1177_E200_0000_0001;
/// Salt for the random-scenario sampler.
const SCENARIO_SALT: u64 = 0x5CEA_A210_0000_0002;

/// A transmission awaiting its ack: the sender keeps a copy and
/// retransmits on RTO expiry until the receiver's ack lands.
struct PendingSend<M> {
    tx: Transmission<M>,
    from_node: usize,
    /// Delivery attempts made so far (0 = original send in flight).
    attempt: u32,
}

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

    fn next_ns(&self) -> Option<u64> {
        self.edges.get(self.cursor).map(|&(t, _, _)| t)
    }

    fn pop(&mut self) -> (u64, bool, u32) {
        let e = self.edges[self.cursor];
        self.cursor += 1;
        if e.1 {
            self.active += 1;
        } else {
            self.active = self.active.saturating_sub(1);
        }
        e
    }
}

/// What the receiver-side filter decided about an arriving flight.
pub(crate) struct DeliveryVerdict {
    /// First arrival of this wire id — deliver it to the LP. Duplicates
    /// are discarded (the kernel assumes exactly-once per event id).
    pub fresh: bool,
    /// The ack generated for this arrival was itself dropped.
    pub ack_dropped: bool,
}

/// One chaos item popped from the engine's agenda.
pub(crate) enum ChaosStep<M> {
    /// An ack reached the original sender; its retransmit-buffer entry
    /// is gone. No platform action needed.
    Ack,
    /// An RTO expired for a still-unacked transmission: the platform
    /// must re-send `tx` from `from_node` (attempt number included for
    /// the drop/jitter rolls).
    Retransmit { wire_id: u64, tx: Transmission<M>, from_node: usize, attempt: u32, at_ns: u64 },
    /// A scripted fault window opened (`onset`) or closed on `node`;
    /// `active_now` is the gauge after the edge.
    FaultEdge { node: u32, onset: bool, active_now: u64 },
}

/// The seeded fault engine for one platform run. See the module docs
/// for the determinism argument.
pub(crate) struct ChaosRuntime<M> {
    seed: u64,
    rto_ns: u64,
    /// All materialized fault windows (scripted + sampled).
    scenarios: Vec<FaultScenario>,
    clock: FaultClock,
    /// Ack round-trip latency (the platform's `net_latency_ns`).
    ack_latency_ns: u64,
    /// Retransmit buffer: wire id -> unacked transmission.
    pending: BTreeMap<u64, PendingSend<M>>,
    /// RTO timers `(fire_ns, wire_id, attempt)`; lazy-deleted — an
    /// entry is live only if `pending[wire_id].attempt` still matches.
    timers: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Acks in flight back to senders: `(arrive_ns, wire_id)`.
    acks: BinaryHeap<Reverse<(u64, u64)>>,
    /// Wire ids delivered to their destination LP, kept for the whole
    /// run so late duplicates are always recognized.
    delivered: IdHashSet<u64>,
    next_wire: u64,
    /// Modeled ns each node has lost to faults since the last balancing
    /// round (pause stalls, slowdown surcharges, per-drop RTO latency,
    /// degrade spikes) — drained into `LpWindow::fault_penalty`.
    pub fault_ns: Vec<u64>,
}

impl<M: Clone> ChaosRuntime<M> {
    pub fn new(plan: &FaultPlan, nodes: usize, ack_latency_ns: u64) -> ChaosRuntime<M> {
        // `sim::validate` has rejected scripted scenarios on absent nodes.
        let mut scenarios = plan.scenarios.clone();
        for k in 0..plan.random_scenarios as u64 {
            scenarios.push(sample_scenario(plan.seed, k, nodes));
        }
        ChaosRuntime {
            seed: plan.seed,
            rto_ns: plan.rto_ns.max(1),
            clock: FaultClock::new(&scenarios),
            scenarios,
            ack_latency_ns,
            pending: BTreeMap::new(),
            timers: BinaryHeap::new(),
            acks: BinaryHeap::new(),
            delivered: IdHashSet::default(),
            next_wire: 0,
            fault_ns: vec![0; nodes],
        }
    }

    /// Track a fresh remote transmission: buffer a copy for
    /// retransmission. Returns the wire id; the caller must
    /// [`arm_timer`](Self::arm_timer) once it knows the attempt's fate.
    pub fn register_send(&mut self, tx: &Transmission<M>, from_node: usize) -> u64 {
        let wire_id = self.next_wire;
        self.next_wire += 1;
        self.pending.insert(wire_id, PendingSend { tx: tx.clone(), from_node, attempt: 0 });
        wire_id
    }

    /// Arm the RTO timer for the transmission's *current* attempt. The
    /// platform calls this with a deadline derived from the attempt's
    /// actual scheduled arrival (`arrive + ack latency + RTO`), so on a
    /// healthy link the ack always lands strictly before the timer —
    /// a plan with no loss windows never retransmits, byte-for-byte.
    pub fn arm_timer(&mut self, wire_id: u64, deadline_ns: u64) {
        if let Some(p) = self.pending.get(&wire_id) {
            self.timers.push(Reverse((deadline_ns, wire_id, p.attempt)));
        }
    }

    /// The retransmission timeout for a given attempt (exponential
    /// backoff, capped so the shift cannot overflow).
    pub fn rto_for(&self, attempt: u32) -> u64 {
        self.rto_ns << attempt.min(MAX_BACKOFF_EXP)
    }

    fn loss_per_mille(&self, node: usize, t: u64) -> u32 {
        self.scenarios
            .iter()
            .filter(|s| s.node as usize == node && s.active_at(t))
            .filter_map(|s| match s.kind {
                FaultKind::LinkLoss { drop_per_mille } => Some(drop_per_mille),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Whether delivery attempt `attempt` of `wire_id` is dropped on
    /// `dst_node`'s ingress at time `t`. Attempts past
    /// [`MAX_DROP_ATTEMPTS`] always get through (liveness).
    pub fn should_drop(&self, dst_node: usize, t: u64, wire_id: u64, attempt: u32) -> bool {
        attempt < MAX_DROP_ATTEMPTS
            && (mix(self.seed, wire_id, attempt as u64) % 1000)
                < self.loss_per_mille(dst_node, t) as u64
    }

    /// Record the modeled latency a drop costs (the RTO that must now
    /// expire), attributed to the sick ingress node for the balancer.
    pub fn note_drop(&mut self, dst_node: usize, attempt: u32) {
        self.fault_ns[dst_node] = self.fault_ns[dst_node].saturating_add(self.rto_for(attempt));
    }

    /// Extra ingress latency (spike + seeded jitter) for this attempt,
    /// already attributed to the node's fault ledger.
    pub fn degrade_extra(&mut self, dst_node: usize, t: u64, wire_id: u64, attempt: u32) -> u64 {
        let mut extra = 0u64;
        for s in self.scenarios.iter().filter(|s| s.node as usize == dst_node && s.active_at(t)) {
            if let FaultKind::LinkDegrade { spike_ns, jitter_ns } = s.kind {
                extra = extra.saturating_add(spike_ns);
                if jitter_ns > 0 {
                    extra = extra.saturating_add(
                        mix(self.seed ^ JITTER_SALT, wire_id, attempt as u64) % (jitter_ns + 1),
                    );
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

    /// Receiver-side filter for an arriving flight at platform time
    /// `now_ns`: dedups, marks first deliveries, and launches the ack
    /// (which may itself be dropped).
    pub fn on_flight_arrival(
        &mut self,
        wire_id: u64,
        dst_node: usize,
        now_ns: u64,
    ) -> DeliveryVerdict {
        let fresh = self.delivered.insert(wire_id);
        let Some(p) = self.pending.get(&wire_id) else {
            // Ack already made it home; a late duplicate needs nothing.
            return DeliveryVerdict { fresh, ack_dropped: false };
        };
        let attempt = p.attempt;
        // The ack crosses the *sender's* ingress link; roll its drop
        // against the loss windows there.
        let from = p.from_node;
        let arrive = now_ns.saturating_add(self.ack_latency_ns);
        let dropped = attempt < MAX_DROP_ATTEMPTS
            && (mix(self.seed ^ ACK_SALT, wire_id, attempt as u64) % 1000)
                < self.loss_per_mille(from, arrive) as u64;
        if dropped {
            // The sender will retransmit; the duplicate's re-ack gets a
            // fresh roll. Bill the lost round trip to the lossy node.
            self.note_drop(dst_node, attempt);
        } else {
            self.acks.push(Reverse((arrive, wire_id)));
        }
        DeliveryVerdict { fresh, ack_dropped: dropped }
    }

    /// Whether `wire_id` already reached its destination LP (such
    /// flights are duplicates: they must not hold GVT back, or a stale
    /// receive time could drag GVT *below* the committed frontier).
    pub fn is_delivered(&self, wire_id: u64) -> bool {
        wire_id != u64::MAX && self.delivered.contains(&wire_id)
    }

    /// Minimum receive time over unacked transmissions: a dropped
    /// message has no flight on the wire, but it *will* be retransmitted
    /// — GVT must not pass it.
    pub fn unacked_min_recv(&self) -> VTime {
        self.pending.values().map(|p| p.tx.recv_time()).min().unwrap_or(VTime::INF)
    }

    /// Drop timer entries whose pending attempt no longer matches
    /// (acked, or already retransmitted).
    fn prune_timers(&mut self) {
        while let Some(&Reverse((_, w, a))) = self.timers.peek() {
            if self.pending.get(&w).is_some_and(|p| p.attempt == a) {
                break;
            }
            self.timers.pop();
        }
    }

    /// Earliest protocol work (ack arrival or live RTO), if any. The
    /// platform must drain these before declaring quiescence.
    pub fn next_protocol_ns(&mut self) -> Option<u64> {
        self.prune_timers();
        let t = self.timers.peek().map(|&Reverse((f, _, _))| f);
        let a = self.acks.peek().map(|&Reverse((f, _))| f);
        match (t, a) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        }
    }

    /// Earliest chaos item of any kind (protocol work or fault edge).
    pub fn next_ns(&mut self) -> Option<u64> {
        let p = self.next_protocol_ns();
        let e = self.clock.next_ns();
        match (p, e) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        }
    }

    /// Pop and apply the earliest chaos item. Ties resolve acks first
    /// (an ack cancels the retransmit that would otherwise fire at the
    /// same instant), then timers, then fault edges.
    pub fn pop_step(&mut self) -> Option<ChaosStep<M>> {
        self.prune_timers();
        let ta = self.acks.peek().map(|&Reverse((f, _))| f);
        let tt = self.timers.peek().map(|&Reverse((f, _, _))| f);
        let te = self.clock.next_ns();
        let best = [ta, tt, te].into_iter().flatten().min()?;
        if ta == Some(best) {
            let Reverse((_, wire_id)) = self.acks.pop().unwrap();
            self.pending.remove(&wire_id);
            return Some(ChaosStep::Ack);
        }
        if tt == Some(best) {
            let Reverse((fire_ns, wire_id, _)) = self.timers.pop().unwrap();
            let p = self.pending.get_mut(&wire_id).expect("pruned timer head is live");
            p.attempt += 1;
            let (tx, from_node, attempt) = (p.tx.clone(), p.from_node, p.attempt);
            // The caller re-arms via `arm_timer` once the retransmitted
            // attempt's arrival (or drop) is known.
            return Some(ChaosStep::Retransmit { wire_id, tx, from_node, attempt, at_ns: fire_ns });
        }
        let (_, onset, node) = self.clock.pop();
        Some(ChaosStep::FaultEdge { node, onset, active_now: self.clock.active })
    }
}

/// Sample random scenario `k`: kind, node and window are all pure
/// hashes of the seed. Windows land in the first ~50 ms of platform
/// time (the scale of every benchmark run) and last 1-10 ms.
fn sample_scenario(seed: u64, k: u64, nodes: usize) -> FaultScenario {
    let r = |salt: u64| mix(seed ^ SCENARIO_SALT, k, salt);
    let node = (r(0) % nodes as u64) as u32;
    let start_ns = r(1) % 50_000_000;
    let len_ns = 1_000_000 + r(2) % 9_000_000;
    let kind = match r(3) % 4 {
        0 => FaultKind::LinkLoss { drop_per_mille: 100 + (r(4) % 400) as u32 },
        1 => FaultKind::LinkDegrade { spike_ns: 20_000 + r(4) % 180_000, jitter_ns: 50_000 },
        2 => FaultKind::NodeSlow { factor: 2 + (r(4) % 7) as u32 },
        _ => FaultKind::NodePause,
    };
    // Pauses must end (a forever-pause is ignored by `charge`).
    FaultScenario { node, start_ns, end_ns: start_ns + len_ns, kind }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Rt = ChaosRuntime<u64>;

    fn tx(recv: u64) -> Transmission<u64> {
        Transmission::Positive(crate::event::Event {
            id: crate::event::EventId { src: 0, seq: recv },
            dst: 1,
            send_time: VTime(0),
            recv_time: VTime(recv),
            msg: 0,
        })
    }

    fn lossy_plan(per_mille: u32) -> FaultPlan {
        FaultPlan::new(9).scenario(FaultScenario {
            node: 1,
            start_ns: 0,
            end_ns: u64::MAX,
            kind: FaultKind::LinkLoss { drop_per_mille: per_mille },
        })
    }

    #[test]
    fn ack_clears_pending_and_timer() {
        let mut rt: Rt = Rt::new(&FaultPlan::new(1), 2, 1_000);
        let w = rt.register_send(&tx(5), 0);
        rt.arm_timer(w, 500_000);
        assert_eq!(rt.unacked_min_recv(), VTime(5));
        let v = rt.on_flight_arrival(w, 1, 100);
        assert!(v.fresh && !v.ack_dropped);
        // Ack arrives at 1_100 — before the 500_000 deadline.
        assert_eq!(rt.next_protocol_ns(), Some(1_100));
        assert!(matches!(rt.pop_step(), Some(ChaosStep::Ack)));
        assert_eq!(rt.unacked_min_recv(), VTime::INF);
        assert_eq!(rt.next_protocol_ns(), None, "stale timer must be pruned");
    }

    #[test]
    fn rto_fires_and_backs_off() {
        let mut rt: Rt = Rt::new(&FaultPlan::new(1).rto_ns(1_000), 2, 100);
        let w = rt.register_send(&tx(5), 0);
        rt.arm_timer(w, 1_000);
        let Some(ChaosStep::Retransmit { wire_id, attempt, at_ns, .. }) = rt.pop_step() else {
            panic!("expected retransmit");
        };
        assert_eq!((wire_id, attempt, at_ns), (w, 1, 1_000));
        // Backoff doubled for the next attempt's deadline.
        assert_eq!(rt.rto_for(attempt), 2_000);
        assert_eq!(rt.next_protocol_ns(), None, "caller re-arms after the retransmit");
        rt.arm_timer(w, at_ns + rt.rto_for(attempt));
        assert_eq!(rt.next_protocol_ns(), Some(3_000));
    }

    #[test]
    fn stale_arm_is_ignored() {
        let mut rt: Rt = Rt::new(&FaultPlan::new(1), 2, 100);
        let w = rt.register_send(&tx(5), 0);
        rt.on_flight_arrival(w, 1, 10);
        assert!(matches!(rt.pop_step(), Some(ChaosStep::Ack)));
        rt.arm_timer(w, 1_000); // already acked: no timer may appear
        assert_eq!(rt.next_protocol_ns(), None);
    }

    #[test]
    fn duplicate_arrivals_are_filtered_and_reacked() {
        let mut rt: Rt = Rt::new(&FaultPlan::new(1), 2, 100);
        let w = rt.register_send(&tx(5), 0);
        assert!(rt.on_flight_arrival(w, 1, 10).fresh);
        assert!(!rt.on_flight_arrival(w, 1, 20).fresh, "second arrival is a duplicate");
        assert!(rt.is_delivered(w));
        // Both arrivals acked (pending still live until an ack lands).
        assert!(matches!(rt.pop_step(), Some(ChaosStep::Ack)));
    }

    #[test]
    fn liveness_cap_beats_total_loss() {
        let mut rt: Rt = Rt::new(&lossy_plan(1000), 2, 100);
        let w = rt.register_send(&tx(5), 0);
        // Past the cap nothing drops, no matter the configured rate.
        assert!(!rt.should_drop(1, 0, w, MAX_DROP_ATTEMPTS));
        assert!(!rt.should_drop(1, 0, w, MAX_DROP_ATTEMPTS + 7));
    }

    #[test]
    fn drops_are_reproducible_and_roughly_calibrated() {
        let rt: Rt = Rt::new(&lossy_plan(300), 2, 100);
        let rt2: Rt = Rt::new(&lossy_plan(300), 2, 100);
        let drops = (0..1000u64).filter(|&w| rt.should_drop(1, 0, w, 0)).count();
        for w in 0..1000u64 {
            assert_eq!(rt.should_drop(1, 0, w, 0), rt2.should_drop(1, 0, w, 0));
        }
        assert!((200..400).contains(&drops), "~30% expected, got {drops}/1000");
        // Node 0 has no loss window.
        assert_eq!((0..1000u64).filter(|&w| rt.should_drop(0, 0, w, 0)).count(), 0);
    }

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
        let mut rt: Rt = Rt::new(&plan, 1, 100);
        // Inside the pause: deferred to 200, then 10 ns of work at 3x.
        assert_eq!(rt.charge(0, 150, 10), 230);
        // Outside every window: plain addition.
        assert_eq!(rt.charge(0, 5_000, 10), 5_010);
        // Fault ledger recorded the stall (50) and the surcharge (20).
        assert_eq!(rt.fault_ns[0], 70);
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
        let mut rt: Rt = Rt::new(&plan, 2, 100);
        let mut seen = Vec::new();
        while let Some(ChaosStep::FaultEdge { node, onset, active_now }) = rt.pop_step() {
            seen.push((node, onset, active_now));
        }
        assert_eq!(seen, vec![(0, true, 1), (1, true, 2), (0, false, 1)]);
    }

    #[test]
    fn random_scenarios_are_seed_deterministic() {
        let a: Rt = Rt::new(&FaultPlan::new(7).random(5), 4, 100);
        let b: Rt = Rt::new(&FaultPlan::new(7).random(5), 4, 100);
        let c: Rt = Rt::new(&FaultPlan::new(8).random(5), 4, 100);
        assert_eq!(a.scenarios, b.scenarios);
        assert_ne!(a.scenarios, c.scenarios);
        assert!(a.scenarios.iter().all(|s| (s.node as usize) < 4));
    }
}
