//! The virtual-platform executive: a deterministic discrete-event model of
//! N workstation nodes running the Time Warp protocol over a network.
//!
//! The paper measured wall-clock time on 8 dual-Pentium-II workstations on
//! Fast Ethernet. That hardware is simulated here: every node has a
//! virtual CPU clock advanced by the [`CostModel`] for each protocol
//! action (event execution, state saving, rollback, message send/receive,
//! GVT rounds), and inter-node messages arrive after a wire latency. The
//! *protocol* is executed exactly — one real `ClusterCore` per node, with
//! real rollbacks, anti-messages and fossil collection — so rollback
//! counts and message counts are genuine Time Warp dynamics, and
//! "execution time" is the makespan (the largest node clock at
//! termination).
//!
//! Everything is deterministic given the application, making the
//! experiment tables exactly reproducible — and, unlike wall-clock runs on
//! whatever machine CI lands on, meaningfully comparable across runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::app::Application;
use crate::chaos::{ChaosRuntime, ChaosStep, FaultPlan};
use crate::config::KernelConfig;
use crate::core::{ClusterCore, Committed, Homes, Hop};
use crate::cost::CostModel;
use crate::dynlb::{self, move_is_valid, pinned_mask, DynLbConfig, WindowStats};
use crate::event::Transmission;
use crate::probe::Probe;
use crate::sim::{Outcome, RunReport, SimError};
use crate::stats::KernelStats;
use crate::time::VTime;

/// Platform-level configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlatformConfig {
    /// Time Warp kernel knobs (cancellation, checkpointing, GVT period).
    pub kernel: KernelConfig,
    /// CPU/network cost model.
    pub cost: CostModel,
    /// Abort the run when any node holds more than this many state
    /// checkpoints at a GVT round — models the 128 MB workstations of the
    /// paper, whose s15850 runs on 2 nodes "ran out of memory".
    pub state_limit_per_node: Option<u64>,
}

/// In-flight network message.
struct Flight<M> {
    /// Chaos wire id for dedup/ack tracking (`u64::MAX` = no fault plan
    /// installed; such flights bypass the chaos filter entirely).
    wire_id: u64,
    tx: Transmission<M>,
}

/// What is genuinely platform: the modeled hardware the clusters run on.
struct Platform<M> {
    cost: CostModel,
    /// One virtual CPU clock per node.
    clocks: Vec<u64>,
    /// Where every LP lives (dynamic load balancing rewrites it at GVT
    /// commit). Remote hops resolve their node here when they are sent
    /// *and* when they land, so traffic follows migrated LPs.
    homes: Homes,
    /// Seeded fault engine (`None` = healthy platform, the default). It
    /// perturbs only modeled time and message counts; committed history
    /// must stay byte-identical (see the `chaos` module docs).
    chaos: Option<ChaosRuntime<M>>,
    /// In-flight messages live in a slab; the wire heap orders them by
    /// `(arrival, send sequence)` and carries the slot. Slots recycle
    /// through a free list, so the steady-state wire path does no hashing
    /// and no allocation.
    net: BinaryHeap<Reverse<(u64, u64, usize)>>,
    flights: Vec<Option<Flight<M>>>,
    free_flights: Vec<usize>,
    flight_seq: u64,
    /// Ingress link occupancy per node: messages serialize onto the
    /// destination's link, so bursts queue (congestion).
    link_free_ns: Vec<u64>,
}

impl<M: Clone> Platform<M> {
    /// Charge modeled CPU work to a node, letting an active fault window
    /// inflate it (slowdown) or defer it (pause). With no plan installed
    /// this is exactly `clock += work`.
    fn charge(&mut self, node: usize, work_ns: u64) {
        self.clocks[node] = match self.chaos.as_mut() {
            Some(ch) => ch.charge(node, self.clocks[node], work_ns),
            None => self.clocks[node] + work_ns,
        };
    }

    /// Send `tx` from node `from` (attempt 0 = first transmission, whose
    /// `wire_id` is assigned here): charge the sender's CPU, let the
    /// destination's ingress link drop or degrade the attempt, and queue
    /// the survivor on the wire.
    fn transmit<P: Probe>(
        &mut self,
        from: usize,
        tx: Transmission<M>,
        mut wire_id: u64,
        attempt: u32,
        stats: &mut KernelStats,
        probe: &mut P,
    ) {
        self.charge(from, self.cost.msg_send_ns);
        // Re-resolved on every attempt, so retransmits follow migrated LPs.
        let dst_node = self.homes.part(tx.dst());
        let wire_at = self.clocks[from] + self.cost.net_latency_ns;
        let mut extra_ns = 0;
        if let Some(ch) = self.chaos.as_mut() {
            if attempt == 0 {
                // Track every remote transmission for ack/retransmit.
                wire_id = ch.register_send(&tx, from);
            }
            if ch.should_drop(dst_node, wire_at, wire_id, attempt) {
                ch.note_drop(dst_node, attempt);
                ch.arm_timer(wire_id, wire_at + ch.rto_for(attempt));
                stats.transmissions_dropped += 1;
                probe.transmission_dropped(tx.is_positive(), tx.recv_time());
                return; // no flight; the RTO will retransmit
            }
            extra_ns = ch.degrade_extra(dst_node, wire_at, wire_id, attempt);
        }
        let arrive = (wire_at + extra_ns).max(self.link_free_ns[dst_node]) + self.cost.msg_wire_ns;
        self.link_free_ns[dst_node] = arrive;
        if let Some(ch) = self.chaos.as_mut() {
            // Deadline past the attempt's actual ack round trip: a healthy
            // link never spuriously retransmits, no matter the wire
            // backlog.
            ch.arm_timer(wire_id, arrive + self.cost.net_latency_ns + ch.rto_for(attempt));
        }
        let key = self.free_flights.pop().unwrap_or_else(|| {
            self.flights.push(None);
            self.flights.len() - 1
        });
        debug_assert!(self.flights[key].is_none());
        self.flights[key] = Some(Flight { wire_id, tx });
        self.net.push(Reverse((arrive, self.flight_seq, key)));
        self.flight_seq += 1;
    }

    /// Run node `from`'s outbox dry, charging its clock per hop and
    /// putting remote transmissions on the wire.
    fn route_outbox<A: Application<Msg = M>, P: Probe>(
        &mut self,
        core: &mut ClusterCore<'_, A>,
        from: usize,
        stats: &mut KernelStats,
        probe: &mut P,
    ) {
        while let Some(hop) = core.route_next(&self.homes, stats, probe) {
            match hop {
                Hop::Local => self.charge(from, self.cost.local_enqueue_ns),
                Hop::Remote(tx) => self.transmit(from, tx, u64::MAX, 0, stats, probe),
            }
        }
    }

    /// Lower bound on the receive time of anything the wire still owes an
    /// LP. Two chaos refinements: (a) flights whose wire id was already
    /// delivered are duplicates — their stale receive times must not drag
    /// GVT below the committed frontier; (b) unacked transmissions (e.g.
    /// dropped ones with no flight on the wire) WILL be retransmitted, so
    /// GVT must not pass their receive times.
    fn in_flight_min(&self) -> VTime {
        let chaos = self.chaos.as_ref();
        self.flights
            .iter()
            .flatten()
            .filter(|f| !chaos.is_some_and(|ch| ch.is_delivered(f.wire_id)))
            .map(|f| f.tx.recv_time())
            .min()
            .unwrap_or(VTime::INF)
            .min(chaos.map_or(VTime::INF, |ch| ch.unacked_min_recv()))
    }

    /// Attribute the modeled latency each node lost to faults since the
    /// last balancing round (pause stalls, slowdown surcharges, drop RTOs,
    /// degrade spikes) to its LPs as event equivalents, so the balancer
    /// sees a sick node as overloaded and routes LPs off it.
    fn attribute_fault_time(&mut self, window: &mut WindowStats) {
        let Some(ch) = self.chaos.as_mut() else { return };
        for node in 0..self.clocks.len() {
            let pen = ch.fault_ns[node] / self.cost.event_exec_ns;
            ch.fault_ns[node] = 0;
            if pen == 0 {
                continue;
            }
            let parts = self.homes.parts();
            let members: Vec<usize> =
                (0..parts.len()).filter(|&l| parts[l] as usize == node).collect();
            if members.is_empty() {
                continue;
            }
            let total: u64 = members.iter().map(|&l| window.lps[l].events).sum();
            for (k, &l) in members.iter().enumerate() {
                window.lps[l].fault_penalty = match (pen * window.lps[l].events).checked_div(total)
                {
                    Some(share) => share,
                    None => {
                        pen / members.len() as u64
                            + u64::from((k as u64) < pen % members.len() as u64)
                    }
                };
            }
        }
    }

    /// Ship a migrating LP's closure (`units` messages) from `src` to
    /// `dst`. Migration traffic goes through the same network cost model
    /// as application messages, so its price shows up in modeled time.
    fn ship(&mut self, src: usize, dst: usize, units: u64) {
        self.charge(src, self.cost.msg_send_ns * units);
        let wire_at = self.clocks[src] + self.cost.net_latency_ns;
        let arrive = wire_at.max(self.link_free_ns[dst]) + self.cost.msg_wire_ns * units;
        self.link_free_ns[dst] = arrive;
        self.clocks[dst] = self.clocks[dst].max(arrive);
        self.charge(dst, self.cost.msg_recv_ns * units);
    }
}

/// The executive proper, generic over the telemetry probe. `sim::validate`
/// has already checked `cfg`, and `assignment` against `app` and `nodes`.
// detlint: phase(compute|gvt)
pub(crate) fn platform_core<A: Application, P: Probe>(
    app: &A,
    assignment: &[u32],
    nodes: usize,
    cfg: &PlatformConfig,
    probe: &mut P,
    dynlb: Option<DynLbConfig>,
    chaos_plan: Option<&FaultPlan>,
) -> Result<RunReport<A>, SimError> {
    let kernel = cfg.kernel;
    let cost = cfg.cost;

    let pinned = pinned_mask(app);

    let mut totals =
        KernelStats { replicated_gates: app.replicated_units(), ..KernelStats::default() };
    let stats = &mut totals;
    let (mut cores, homes) =
        ClusterCore::partition(app, assignment, nodes, kernel, dynlb.is_some(), stats, probe);
    let mut plat = Platform {
        cost,
        clocks: vec![0; nodes],
        homes,
        chaos: chaos_plan.map(|p| ChaosRuntime::new(p, nodes, cost.net_latency_ns)),
        net: BinaryHeap::new(),
        flights: Vec::new(),
        free_flights: Vec::new(),
        flight_seq: 0,
        link_free_ns: vec![0; nodes],
    };

    let mut batches_since_gvt = 0u64;
    let gvt_every = kernel.gvt_period * nodes as u64;
    // Bounded-window optimism control: LPs may only execute events up to
    // `last_gvt + window`. `force_gvt` re-synchronizes when every node is
    // blocked at the window edge.
    let mut last_gvt = VTime::ZERO;
    let mut force_gvt = false;

    loop {
        // Pick the busy node with the smallest clock (ties → lowest node
        // id, for determinism).
        let horizon = match kernel.window {
            Some(w) => last_gvt.after(w),
            None => VTime::INF,
        };
        let mut best_node: Option<usize> = None;
        let mut any_ready = false;
        for (i, core) in cores.iter_mut().enumerate() {
            let Some(t) = core.next_ready() else { continue };
            any_ready = true;
            if t <= horizon && best_node.is_none_or(|b| plat.clocks[i] < plat.clocks[b]) {
                best_node = Some(i);
            }
        }
        let next_arrival = plat.net.peek().map(|&Reverse((a, _, _))| a);
        let exec_clock = best_node.map(|i| plat.clocks[i]);

        // Chaos agenda: while protocol work (unacked transmissions,
        // in-flight acks) remains it must drain even when nothing else
        // is runnable; once the platform is otherwise quiescent, leftover
        // fault edges are telemetry-only and die with the run. A chaos
        // item runs when strictly earliest — at ties wire/exec work goes
        // first, so a plan whose windows never fire is byte-identical to
        // no plan at all.
        let next_chaos = match (exec_clock, next_arrival) {
            (None, None) => plat.chaos.as_mut().and_then(|ch| ch.next_protocol_ns()),
            _ => plat.chaos.as_mut().and_then(|ch| ch.next_ns()),
        };
        let chaos_due = next_chaos.is_some_and(|c| {
            c < exec_clock.unwrap_or(u64::MAX) && c < next_arrival.unwrap_or(u64::MAX)
        });
        let deliver_first = next_arrival.is_some_and(|a| exec_clock.is_none_or(|c| a < c));

        if chaos_due {
            match plat.chaos.as_mut().expect("chaos due").pop_step().expect("chaos item due") {
                ChaosStep::Ack => {}
                ChaosStep::FaultEdge { node, onset, active_now } => {
                    if onset {
                        stats.faults_injected += 1;
                    }
                    probe.fault_event(node, onset, active_now, last_gvt);
                }
                ChaosStep::Retransmit { wire_id, tx, from_node, attempt, at_ns } => {
                    stats.retransmissions += 1;
                    probe.retransmitted(tx.recv_time());
                    // The sender's CPU re-sends when the timer fires (or
                    // as soon as it is free after that).
                    plat.clocks[from_node] = plat.clocks[from_node].max(at_ns);
                    plat.transmit(from_node, tx, wire_id, attempt, stats, probe);
                }
            }
        } else if deliver_first {
            let Reverse((arrive, _, key)) = plat.net.pop().expect("peeked above");
            let flight = plat.flights[key].take().expect("wire heap entry without flight");
            plat.free_flights.push(key);
            let dnode = plat.homes.part(flight.tx.dst());
            plat.clocks[dnode] = plat.clocks[dnode].max(arrive);
            plat.charge(dnode, cost.msg_recv_ns);
            if let Some(ch) = plat.chaos.as_mut().filter(|_| flight.wire_id != u64::MAX) {
                // The ack launches at the *wire* arrival (NIC-level,
                // CPU-free): it lands exactly one ack latency later,
                // always inside the retransmit deadline.
                let v = ch.on_flight_arrival(flight.wire_id, dnode, arrive);
                if v.ack_dropped {
                    stats.transmissions_dropped += 1;
                    probe.transmission_dropped(flight.tx.is_positive(), flight.tx.recv_time());
                }
                if !v.fresh {
                    // Duplicate of a transmission already delivered: the
                    // kernel assumes exactly-once per event id — discard.
                    continue;
                }
            }
            let rb_before = stats.rollbacks();
            let undone_before = stats.events_rolled_back;
            let coasted_before = stats.events_coasted;
            cores[dnode].receive(flight.tx, &plat.homes, stats, probe);
            if stats.rollbacks() > rb_before {
                plat.charge(
                    dnode,
                    cost.rollback_ns
                        + cost.undo_per_event_ns * (stats.events_rolled_back - undone_before)
                        + cost.event_exec_ns * (stats.events_coasted - coasted_before),
                );
            }
            plat.route_outbox(&mut cores[dnode], dnode, stats, probe);
        } else if let Some(ni) = best_node {
            let pe_before = stats.events_processed;
            let saves_before = stats.states_saved;
            cores[ni].execute_ready(stats, probe);
            plat.charge(
                ni,
                cost.batch_overhead_ns
                    + cost.event_exec_ns * (stats.events_processed - pe_before)
                    + cost.state_save_ns * (stats.states_saved - saves_before),
            );
            batches_since_gvt += 1;
            plat.route_outbox(&mut cores[ni], ni, stats, probe);
        } else if any_ready {
            // No executable work, yet not quiescent: all remaining events
            // sit beyond the optimism window — a GVT round must advance
            // the horizon.
            force_gvt = true;
        } else {
            break; // quiescent: done
        }

        // Periodic GVT + fossil collection (exact: the platform sees
        // everything). Models the cost of a token round on every node.
        if batches_since_gvt >= gvt_every || force_gvt {
            batches_since_gvt = 0;
            force_gvt = false;
            let gvt = cores
                .iter_mut()
                .map(|c| c.local_min())
                .min()
                .unwrap_or(VTime::INF)
                .min(plat.in_flight_min());
            last_gvt = gvt;
            stats.gvt_rounds += 1;
            let per_node: Vec<Committed> =
                cores.iter_mut().map(|core| core.commit(gvt, stats, probe)).collect();
            let held_total = per_node.iter().map(|c| c.held).sum();
            let pending_total = per_node.iter().map(|c| c.pending).sum();
            stats.state_queue_high_water = stats.state_queue_high_water.max(held_total);
            for (i, c) in per_node.iter().enumerate() {
                plat.charge(i, cost.gvt_round_ns);
                if cfg.state_limit_per_node.is_some_and(|limit| c.held > limit) {
                    return Err(SimError::OutOfMemory { node: i, states_held: c.held });
                }
            }
            let round_clock = plat.clocks.iter().copied().max().unwrap_or(0);
            probe.gvt_advanced(gvt, held_total, pending_total, round_clock);

            // Dynamic load balancing. GVT commit is the one point where an
            // LP is a compact transferable closure (see `dynlb` module
            // docs): fossil collection just ran, so moving it is copying
            // its current state, surviving checkpoints and pending events.
            if let Some(lb) = &dynlb {
                if !gvt.is_inf() && stats.gvt_rounds.is_multiple_of(lb.period.max(1)) {
                    let mut window = WindowStats::new(app.num_lps());
                    window.gvt = gvt;
                    for core in &mut cores {
                        core.window_slice(&mut window);
                    }
                    plat.attribute_fault_time(&mut window);
                    stats.lb_rounds += 1;
                    window.round = stats.lb_rounds;
                    let plan = dynlb::plan(&window, plat.homes.parts(), nodes, lb);
                    for mv in plan {
                        if !move_is_valid(&mv, plat.homes.parts(), nodes) || pinned[mv.lp as usize]
                        {
                            continue;
                        }
                        let (src, dst) = (mv.from as usize, mv.to as usize);
                        let mover = cores[src]
                            .evict(&mv, &mut plat.homes, gvt, stats, probe)
                            .expect("a valid move names the node its LP lives on");
                        plat.ship(src, dst, mover.units);
                        cores[dst].adopt(mover, &mut plat.homes);
                    }
                }
            }
        }
    }

    // Final commit.
    debug_assert!(
        plat.chaos.as_mut().is_none_or(|ch| ch.next_protocol_ns().is_none()),
        "terminated with unacked transmissions or in-flight acks"
    );
    let held_total = cores.iter_mut().map(|c| c.commit(VTime::INF, stats, probe).held_before).sum();
    stats.state_queue_high_water = stats.state_queue_high_water.max(held_total);
    stats.final_gvt = VTime::INF;

    let (states, lp_stats) = ClusterCore::finish(cores);
    let max_clock = plat.clocks.iter().copied().max().unwrap_or(0);
    Ok(RunReport {
        stats: totals,
        lp_stats,
        states,
        outcome: Outcome::Platform {
            exec_time_s: max_clock as f64 / 1e9,
            node_clocks_ns: plat.clocks,
        },
        telemetry: None,
    })
}

/// Modeled execution time of the sequential baseline under the same cost
/// model: `events × seq_event_ns` (single queue, no Time Warp overhead).
pub fn sequential_modeled_time_s(events: u64, cost: &CostModel) -> f64 {
    (events * cost.seq_event_ns) as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EventSink;
    use crate::event::LpId;
    use crate::sim::{Backend, Simulator};
    use crate::testkit::{round_robin, Ring};

    fn platform<A: Application>(
        app: &A,
        assignment: &[u32],
        nodes: usize,
        cfg: &PlatformConfig,
    ) -> Result<RunReport<A>, SimError> {
        Simulator::new(app).platform_config(cfg).run(Backend::Platform { assignment, nodes })
    }

    #[test]
    fn matches_sequential_states() {
        let app = Ring { n: 12, hops: 40 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        for nodes in [1, 2, 3, 4] {
            let res =
                platform(&app, &round_robin(12, nodes), nodes, &PlatformConfig::default()).unwrap();
            assert_eq!(res.states, seq.states, "{nodes}-node platform diverged");
            assert_eq!(res.stats.events_committed, seq.stats.events_processed);
        }
    }

    #[test]
    fn multi_node_runs_do_roll_back() {
        // With several nodes and skewed costs, optimism must misfire
        // somewhere — otherwise the test proves nothing.
        let app = Ring { n: 12, hops: 60 };
        let res = platform(&app, &round_robin(12, 4), 4, &PlatformConfig::default()).unwrap();
        assert!(res.stats.rollbacks() > 0, "expected at least one rollback");
        assert!(res.stats.app_messages > 0);
    }

    #[test]
    fn single_node_never_rolls_back() {
        let app = Ring { n: 12, hops: 40 };
        let res = platform(&app, &round_robin(12, 1), 1, &PlatformConfig::default()).unwrap();
        assert_eq!(res.stats.rollbacks(), 0);
        assert_eq!(res.stats.app_messages, 0, "no remote messages on one node");
    }

    #[test]
    fn deterministic() {
        let app = Ring { n: 10, hops: 30 };
        let a = platform(&app, &round_robin(10, 3), 3, &PlatformConfig::default()).unwrap();
        let b = platform(&app, &round_robin(10, 3), 3, &PlatformConfig::default()).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outcome.node_clocks_ns(), b.outcome.node_clocks_ns());
    }

    #[test]
    fn lazy_cancellation_also_matches_sequential() {
        let app = Ring { n: 12, hops: 40 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let cfg = PlatformConfig {
            kernel: KernelConfig {
                cancellation: crate::config::Cancellation::Lazy,
                ..Default::default()
            },
            ..Default::default()
        };
        let res = platform(&app, &round_robin(12, 4), 4, &cfg).unwrap();
        assert_eq!(res.states, seq.states);
    }

    #[test]
    fn sparse_checkpoints_also_match_sequential() {
        let app = Ring { n: 12, hops: 40 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let cfg = PlatformConfig {
            kernel: KernelConfig { checkpoint_interval: 4, ..Default::default() },
            ..Default::default()
        };
        let res = platform(&app, &round_robin(12, 4), 4, &cfg).unwrap();
        assert_eq!(res.states, seq.states);
    }

    #[test]
    fn bounded_window_matches_sequential_and_throttles_rollbacks() {
        let app = Ring { n: 12, hops: 60 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let free = platform(&app, &round_robin(12, 4), 4, &PlatformConfig::default()).unwrap();
        let cfg = PlatformConfig {
            kernel: KernelConfig { window: Some(3), gvt_period: 8, ..Default::default() },
            ..Default::default()
        };
        let tight = platform(&app, &round_robin(12, 4), 4, &cfg).unwrap();
        assert_eq!(tight.states, seq.states, "throttling must not change results");
        assert!(
            tight.stats.rollbacks() <= free.stats.rollbacks(),
            "window {} rollbacks vs free {}",
            tight.stats.rollbacks(),
            free.stats.rollbacks()
        );
        assert!(tight.stats.gvt_rounds >= free.stats.gvt_rounds);
    }

    #[test]
    fn zero_window_is_fully_conservative() {
        // window = 0: only events at exactly GVT may run — lock-step,
        // rollback-free execution.
        let app = Ring { n: 10, hops: 40 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let cfg = PlatformConfig {
            kernel: KernelConfig { window: Some(0), gvt_period: 4, ..Default::default() },
            ..Default::default()
        };
        let res = platform(&app, &round_robin(10, 4), 4, &cfg).unwrap();
        assert_eq!(res.states, seq.states);
        assert_eq!(res.stats.rollbacks(), 0, "zero window admits no stragglers");
    }

    #[test]
    fn nodes_without_lps_are_harmless() {
        // Partitioners can leave nodes empty on tiny inputs; the platform
        // must still terminate and produce the same history.
        let app = Ring { n: 6, hops: 20 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let assignment: Vec<u32> = (0..6).map(|_| 0).collect(); // all on node 0 of 4
        let res = platform(&app, &assignment, 4, &PlatformConfig::default()).unwrap();
        assert_eq!(res.states, seq.states);
        assert_eq!(res.stats.app_messages, 0);
        let clocks = res.outcome.node_clocks_ns().unwrap();
        assert_eq!(clocks[1], 0, "empty nodes never advance");
    }

    #[test]
    fn memory_limit_triggers_oom() {
        let app = Ring { n: 16, hops: 200 };
        let cfg = PlatformConfig {
            state_limit_per_node: Some(1), // absurdly small: must die
            kernel: KernelConfig { gvt_period: 4, ..Default::default() },
            ..Default::default()
        };
        let err = platform(&app, &round_robin(16, 4), 4, &cfg).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
    }

    #[test]
    fn invalid_assignment_is_rejected() {
        let app = Ring { n: 6, hops: 10 };
        let short = vec![0u32; 3]; // wrong length
        let err = platform(&app, &short, 2, &PlatformConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        let oob = vec![5u32; 6]; // node index out of range
        let err = platform(&app, &oob, 2, &PlatformConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn exec_time_scales_down_with_nodes_for_parallel_work() {
        // Embarrassingly parallel: disjoint token rings per node.
        struct Pairs {
            n: usize,
        }
        impl Application for Pairs {
            type Msg = u64;
            type State = u64;
            fn num_lps(&self) -> usize {
                self.n
            }
            fn init_state(&self, _lp: LpId) -> u64 {
                0
            }
            fn init_events(&self, lp: LpId, _s: &mut u64, sink: &mut EventSink<u64>) {
                sink.schedule_at(lp, VTime(1), 100);
            }
            fn execute(
                &self,
                lp: LpId,
                state: &mut u64,
                _now: VTime,
                msgs: &[(LpId, u64)],
                sink: &mut EventSink<u64>,
            ) {
                for &(_, k) in msgs {
                    *state += 1;
                    if k > 0 {
                        sink.schedule(lp, 2, k - 1); // self-loop: zero communication
                    }
                }
            }
        }
        let app = Pairs { n: 8 };
        let t1 = platform(&app, &round_robin(8, 1), 1, &PlatformConfig::default())
            .unwrap()
            .outcome
            .exec_time_s()
            .unwrap();
        let t4 = platform(&app, &round_robin(8, 4), 4, &PlatformConfig::default())
            .unwrap()
            .outcome
            .exec_time_s()
            .unwrap();
        assert!(t4 < t1 / 2.5, "4 nodes should cut independent work ~4x: {t1} vs {t4}");
    }
}
