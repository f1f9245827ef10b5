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
use crate::config::KernelConfig;
use crate::core::{ClusterCore, Committed, Homes, Hop};
use crate::cost::CostModel;
use crate::dynlb::{Balancer, DynLbConfig};
use crate::event::Transmission;
use crate::probe::{Probe, ProbeEvent, Tee};
use crate::sim::{Outcome, RunReport, SimError};
use crate::stats::{KernelStats, LpLedger};
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

/// What is genuinely platform: the modeled hardware the clusters run on.
struct Platform<M> {
    cost: CostModel,
    /// One virtual CPU clock per node.
    clocks: Vec<u64>,
    /// In-flight messages live in a slab; the wire heap orders them by
    /// `(arrival, send sequence)` and carries the slot. Slots recycle
    /// through a free list, so the steady-state wire path does no hashing
    /// and no allocation.
    net: BinaryHeap<Reverse<(u64, u64, usize)>>,
    flights: Vec<Option<Transmission<M>>>,
    free_flights: Vec<usize>,
    flight_seq: u64,
    /// Ingress link occupancy per node: messages serialize onto the
    /// destination's link, so bursts queue (congestion).
    link_free_ns: Vec<u64>,
}

impl<M> Platform<M> {
    /// `nodes` idle nodes at modeled time zero with an empty wire.
    fn new(cost: CostModel, nodes: usize) -> Platform<M> {
        Platform {
            cost,
            clocks: vec![0; nodes],
            net: BinaryHeap::new(),
            flights: Vec::new(),
            free_flights: Vec::new(),
            flight_seq: 0,
            link_free_ns: vec![0; nodes],
        }
    }

    /// Charge modeled CPU work to a node.
    fn charge(&mut self, node: usize, work_ns: u64) {
        self.clocks[node] += work_ns;
    }

    /// Send `tx` from node `from` to node `dst_node`: charge the sender's
    /// CPU, let the destination's ingress link delay it, and queue it on
    /// the wire.
    fn transmit(&mut self, from: usize, dst_node: usize, tx: Transmission<M>) {
        self.charge(from, self.cost.msg_send_ns);
        let wire_at = self.clocks[from] + self.cost.net_latency_ns;
        let arrive = wire_at.max(self.link_free_ns[dst_node]) + self.cost.msg_wire_ns;
        self.link_free_ns[dst_node] = arrive;
        let key = self.free_flights.pop().unwrap_or_else(|| {
            self.flights.push(None);
            self.flights.len() - 1
        });
        debug_assert!(self.flights[key].is_none(), "invariant: a free flight slot is empty");
        self.flights[key] = Some(tx);
        self.net.push(Reverse((arrive, self.flight_seq, key)));
        self.flight_seq += 1;
    }

    /// Take the earliest flight off the wire: its arrival time and the
    /// transmission.
    fn land(&mut self) -> Option<(u64, Transmission<M>)> {
        let Reverse((arrive, _, key)) = self.net.pop()?;
        let tx = self.flights[key].take().expect("invariant: every wire heap entry has its flight");
        self.free_flights.push(key);
        Some((arrive, tx))
    }

    /// Run node `from`'s outbox dry, charging its clock per hop and
    /// putting remote transmissions on the wire.
    fn route_outbox<A: Application<Msg = M>, P: Probe>(
        &mut self,
        core: &mut ClusterCore<'_, A>,
        from: usize,
        homes: &Homes,
        probe: &mut P,
    ) {
        while let Some(hop) = core.route_next(homes, probe) {
            match hop {
                Hop::Local => self.charge(from, self.cost.local_enqueue_ns),
                Hop::Remote(tx) => self.transmit(from, homes.part(tx.dst()), tx),
            }
        }
    }

    /// Lower bound on the receive time of anything the wire still owes an
    /// LP. The wire is reliable, so that is every flight and nothing else.
    fn in_flight_min(&self) -> VTime {
        self.flights.iter().flatten().map(Transmission::recv_time).min().unwrap_or(VTime::INF)
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

/// The executive proper, generic over the telemetry probe; returns the
/// probe with the report. `sim::validate` has already checked `cfg`, and
/// `assignment` against `app` and `nodes`.
pub(crate) fn platform_core<A: Application, P: Probe>(
    app: &A,
    assignment: &[u32],
    nodes: usize,
    cfg: &PlatformConfig,
    probe: P,
    dynlb: Option<DynLbConfig>,
) -> Result<(RunReport<A>, P), SimError> {
    let kernel = cfg.kernel;
    let cost = cfg.cost;

    // Balancing windows are drains of the run's own ledger.
    let stats = KernelStats { replicated_gates: app.replicated_units(), ..KernelStats::default() };
    let mut tee = Tee::new(stats, Tee::new(dynlb.map(|_| LpLedger::default()), probe));
    let probe = &mut tee;
    // Where every LP lives (dynamic load balancing rewrites it at GVT
    // commit). Remote hops resolve their node here when they are sent
    // *and* when they land, so traffic follows migrated LPs.
    let (mut cores, mut homes) = ClusterCore::partition(app, assignment, nodes, kernel, probe);
    let balancer = dynlb.map(|cfg| Balancer::new(app, cfg));
    let mut plat = Platform::new(cost, nodes);

    let mut batches_since_gvt = 0u64;
    let gvt_every = kernel.gvt_period * nodes as u64;
    // Bounded-window optimism control: LPs may only execute events up to
    // `last_gvt + window`. `force_gvt` starts a round before the batch
    // count comes round: it re-synchronizes when every node is blocked at
    // the window edge, and it commits as soon as one node's checkpoints
    // pin the heap budget (`CHECKPOINT_HEAP_BUDGET`).
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
        let deliver_first = next_arrival.is_some_and(|a| exec_clock.is_none_or(|c| a < c));

        if deliver_first {
            let (arrive, tx) = plat.land().expect("invariant: peeked above");
            let dnode = homes.part(tx.dst());
            plat.clocks[dnode] = plat.clocks[dnode].max(arrive);
            plat.charge(dnode, cost.msg_recv_ns);
            let rb_before = probe.a.rollbacks();
            let undone_before = probe.a.events_rolled_back;
            let coasted_before = probe.a.events_coasted;
            cores[dnode].receive(tx, &homes, probe);
            let stats = &probe.a;
            if stats.rollbacks() > rb_before {
                plat.charge(
                    dnode,
                    cost.rollback_ns
                        + cost.undo_per_event_ns * (stats.events_rolled_back - undone_before)
                        + cost.event_exec_ns * (stats.events_coasted - coasted_before),
                );
            }
            plat.route_outbox(&mut cores[dnode], dnode, &homes, probe);
        } else if let Some(ni) = best_node {
            let pe_before = probe.a.events_processed;
            let saves_before = probe.a.states_saved;
            cores[ni].execute(probe);
            let stats = &probe.a;
            plat.charge(
                ni,
                cost.batch_overhead_ns
                    + cost.event_exec_ns * (stats.events_processed - pe_before)
                    + cost.state_save_ns * (stats.states_saved - saves_before),
            );
            batches_since_gvt += 1;
            force_gvt |= cores[ni].heap_due();
            plat.route_outbox(&mut cores[ni], ni, &homes, probe);
        } else if any_ready {
            // No executable work, yet not quiescent: all remaining events
            // sit beyond the optimism window — a GVT round must advance
            // the horizon.
            force_gvt = true;
        } else {
            break; // quiescent: done
        }

        // Periodic or forced GVT + fossil collection (exact: the platform
        // sees everything). Models the cost of a token round on every node.
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
            let per_node: Vec<Committed> =
                cores.iter_mut().map(|core| core.commit(gvt, probe)).collect();
            let states_held = per_node.iter().map(|c| c.held).sum();
            let pending = per_node.iter().map(|c| c.pending).sum();
            probe.a.state_queue_high_water = probe.a.state_queue_high_water.max(states_held);
            for (i, c) in per_node.iter().enumerate() {
                plat.charge(i, cost.gvt_round_ns);
                if cfg.state_limit_per_node.is_some_and(|limit| c.held > limit) {
                    return Err(SimError::OutOfMemory { node: i, states_held: c.held });
                }
            }
            let wall_ns = plat.clocks.iter().copied().max().unwrap_or(0);
            probe.on(ProbeEvent::GvtAdvanced { gvt, states_held, pending, wall_ns });

            // Dynamic load balancing. GVT commit is the one point where an
            // LP is a compact transferable closure (see `dynlb` module
            // docs): fossil collection just ran, so moving it is copying
            // its current state, surviving checkpoints and pending events.
            if let Some(lb) = balancer.as_ref().filter(|lb| lb.due(gvt, probe.a.gvt_rounds)) {
                lb.step(&mut cores, &mut homes, gvt, probe, |src, dst, units| {
                    plat.ship(src, dst, units)
                });
            }
        }
    }

    // Final commit.
    let held_total = cores.iter_mut().map(|c| c.commit(VTime::INF, probe).held_before).sum();
    let Tee { a: mut stats, b: Tee { b: probe, .. } } = tee;
    stats.state_queue_high_water = stats.state_queue_high_water.max(held_total);
    stats.final_gvt = VTime::INF;

    let states = ClusterCore::finish(cores);
    let outcome = Outcome::Platform { node_clocks_ns: plat.clocks };
    Ok((RunReport { stats, states, outcome }, probe))
}

/// Modeled execution time of the sequential baseline under the same cost
/// model: `events × seq_event_ns` (single queue, no Time Warp overhead).
#[allow(
    clippy::cast_precision_loss,
    clippy::float_arithmetic,
    reason = "a reported figure; never converted back to virtual time"
)]
pub fn sequential_modeled_time_s(events: u64, cost: &CostModel) -> f64 {
    (events * cost.seq_event_ns) as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EventSink;
    use crate::config::CHECKPOINT_HEAP_BUDGET;
    use crate::event::{Event, EventId, LpId};
    use crate::sim::{Backend, Simulator};
    use crate::testkit::{round_robin, Heavy, Ring};

    fn platform<A: Application>(
        app: &A,
        assignment: &[u32],
        nodes: usize,
        cfg: &PlatformConfig,
    ) -> Result<RunReport<A>, SimError> {
        Simulator::new(app).platform_config(cfg).run(Backend::Platform { assignment, nodes })
    }

    #[test]
    fn an_ingress_link_delivers_in_send_order() {
        // Three senders burst at node 0, and each later send leaves a
        // sender whose clock is further behind, so by wire time alone the
        // messages would land out of order. The destination's ingress link
        // queues them: node 0 receives every message in send order. A delay
        // added before the link can postpone an arrival, never reorder one.
        let mut plat = Platform::new(CostModel::default(), 4);
        plat.clocks = vec![0, 3_000_000, 2_000_000, 1_000_000];
        let mut wire_at = Vec::new();
        for seq in 0..4 {
            for from in 1..4 {
                let id = EventId { src: from as LpId, seq };
                let at = VTime::from(10 + seq);
                let event = Event { id, dst: 0, send_time: at, recv_time: at, msg: wire_at.len() };
                plat.transmit(from, 0, Transmission::Positive(event));
                wire_at.push(plat.clocks[from] + plat.cost.net_latency_ns);
            }
        }
        assert!(!wire_at.is_sorted(), "the senders' clocks alone must disagree with send order");
        let landed: Vec<(u64, usize)> = std::iter::from_fn(|| plat.land())
            .map(|(at, tx)| match tx {
                Transmission::Positive(e) => (at, e.msg),
                Transmission::Anti(_) => unreachable!("only positives were sent"),
            })
            .collect();
        let order: Vec<usize> = landed.iter().map(|&(_, sent)| sent).collect();
        assert_eq!(order, (0..wire_at.len()).collect::<Vec<_>>(), "received out of send order");
        assert!(
            landed.windows(2).all(|w| w[0].0 < w[1].0),
            "one link carries one message at a time"
        );
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
    fn checkpoint_heap_paces_gvt_rounds() {
        // The ring runs fewer batches than one batch-count period, so thin
        // states see no GVT round before the final commit. States that
        // declare a quarter of the budget each make a round due by the
        // fourth checkpoint a node files since its last commit.
        let ring = Ring { n: 12, hops: 40 };
        let seq = Simulator::new(&ring).run(Backend::Sequential).unwrap();
        let nodes = 3;
        let assignment = round_robin(12, nodes);
        let cfg = PlatformConfig::default();
        let thin = platform(&ring, &assignment, nodes, &cfg).unwrap();
        assert_eq!(thin.stats.gvt_rounds, 0);
        let heavy = Heavy { ring, heap: CHECKPOINT_HEAP_BUDGET / 4 };
        let fat = platform(&heavy, &assignment, nodes, &cfg).unwrap();
        assert_eq!(fat.states, seq.states);
        assert_eq!(fat.stats.events_committed, seq.stats.events_processed);
        let (rounds, saved) = (fat.stats.gvt_rounds, fat.stats.states_saved);
        assert!(rounds > 0 && saved <= 4 * nodes as u64 * (rounds + 1), "{saved} saves, {rounds}");
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
                sink.schedule_at(lp, VTime::from(1), 100);
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
