//! Threaded executive: one OS thread per WARPED "cluster", real
//! concurrency, `std::sync::mpsc` channels between clusters, and a
//! synchronized (flush-and-barrier) GVT in the style of Samadi's algorithm
//! — the acknowledgment phase is replaced by a cooperative flush, which is
//! exact on reliable in-process channels.
//!
//! This is the only executive that runs on real cores. The paper's
//! tables and figures come from the deterministic [`crate::platform`]
//! executive (their axis is modeled time, which repeats exactly); this
//! one is measured in host time by the pipeline benchmark — the
//! `threaded_gates_c2` and `threaded_compiled_c2` rows of
//! `BENCHMARK.json`, two cluster threads on a two-core host — where
//! interleaving decides how much optimistic work is wasted, so its counts
//! are medians and only its committed fingerprint is asserted.
//!
//! Telemetry: the root probe is [`Probe::fork`]ed once per cluster, each
//! cluster thread feeds its own child (no locking on the hot path), and
//! the children are [`Probe::join`]ed back in cluster-id order — so a
//! recording probe sees a deterministic merge even though thread
//! interleavings differ run to run.
//!
//! Comms: channels carry `Vec<Transmission>` batches, not single
//! messages. Each routing pass coalesces its remote traffic into one
//! buffer per destination cluster and flushes every non-empty buffer with
//! a single channel send, so a rollback that cancels a burst of outputs
//! costs one synchronized send per destination instead of one per
//! anti-message. GVT accounting is unchanged: `routed_this_round` counts
//! *messages*, and buffers are always flushed before a routing pass
//! returns, so the flush-and-barrier termination argument still holds
//! (no message is ever parked in a local buffer across a barrier).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Barrier, Mutex};

use crate::app::Application;
use crate::config::KernelConfig;
use crate::core::{ClusterCore, Homes, Hop, Mover};
use crate::dynlb::{
    move_is_valid, pinned_mask, DynLb, DynLbConfig, LoadBalancer, Migration, WindowStats,
};
use crate::event::Transmission;
use crate::probe::Probe;
use crate::sim::{Outcome, RunReport};
use crate::stats::KernelStats;
use crate::time::VTime;

/// A batch of transmissions — the unit that travels on inter-cluster
/// channels.
type TxBatch<M> = Vec<Transmission<M>>;

/// Shared dynamic load-balancing state: the merged per-window statistics,
/// the plan agreed by cluster 0, and per-destination handoff buffers for
/// migrating LPs. All accesses happen inside the GVT barrier region, where
/// the flush protocol guarantees no message is in flight — see the `dynlb`
/// module docs.
struct LbShared<'b, A: Application> {
    cfg: DynLbConfig,
    balancer: Mutex<&'b mut dyn LoadBalancer>,
    window: Mutex<WindowStats>,
    plan: Mutex<Vec<Migration>>,
    movers: Vec<Mutex<Vec<Mover<A>>>>,
    /// LPs the model forbids migrating.
    pinned: Vec<bool>,
}

/// Shared GVT coordination state.
struct GvtShared {
    requested: AtomicBool,
    barrier: Barrier,
    /// Per-cluster local minima (`u64::MAX` = ∞), written in phase 3.
    local_mins: Vec<AtomicU64>,
    /// Messages routed during the current flush round, summed across
    /// clusters; the flush repeats until a round routes nothing.
    routed_this_round: AtomicU64,
    /// The agreed GVT of the current round.
    gvt: AtomicU64,
}

/// The executive proper, generic over the telemetry probe. `sim::validate`
/// has already checked `cfg`, and `assignment` against `app` and `clusters`.
// detlint: phase(compute)
pub(crate) fn threaded_core<A: Application, P: Probe>(
    app: &A,
    assignment: &[u32],
    clusters: usize,
    cfg: &KernelConfig,
    probe: &mut P,
    mut dynlb: Option<&mut DynLb>,
) -> RunReport<A> {
    // With one cluster there is nowhere to migrate to; drop the balancer
    // so the run is indistinguishable from "off".
    if clusters < 2 {
        dynlb = None;
    }
    let lb_shared = dynlb.map(|d| LbShared::<A> {
        cfg: d.cfg,
        balancer: Mutex::new(&mut *d.balancer),
        window: Mutex::new(WindowStats::new(app.num_lps())),
        plan: Mutex::new(Vec::new()),
        movers: (0..clusters).map(|_| Mutex::new(Vec::new())).collect(),
        pinned: pinned_mask(app),
    });

    // Channels: one receiver per cluster (moved into its thread), senders
    // shared by everyone. Channels carry transmission *batches*.
    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..clusters).map(|_| channel::<TxBatch<A::Msg>>()).unzip();

    let shared = GvtShared {
        requested: AtomicBool::new(false),
        barrier: Barrier::new(clusters),
        local_mins: (0..clusters).map(|_| AtomicU64::new(u64::MAX)).collect(),
        routed_this_round: AtomicU64::new(0),
        gvt: AtomicU64::new(0),
    };

    let mut stats =
        KernelStats { replicated_gates: app.replicated_units(), ..KernelStats::default() };
    let (cores, homes) = ClusterCore::partition(
        app,
        assignment,
        clusters,
        *cfg,
        lb_shared.is_some(),
        &mut stats,
        probe,
    );

    // detlint: allow(D002, host wall-clock feeds only RunReport/probe telemetry host-time columns and never virtual time)
    let started = std::time::Instant::now();
    let mut finished = Vec::with_capacity(clusters);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clusters);
        for ((cid, core), rx) in cores.into_iter().enumerate().zip(receivers) {
            let cluster = Cluster {
                cid,
                core,
                rx,
                out_bufs: (0..clusters).map(|_| Vec::new()).collect(),
                senders: senders.clone(),
                homes: homes.clone(),
                stats: KernelStats::default(),
                probe: probe.fork(),
            };
            let (shared, cfg, lb) = (&shared, &cfg, lb_shared.as_ref());
            handles.push(scope.spawn(move || cluster.run(shared, cfg, lb, started)));
        }
        // Joined, and therefore merged, in cluster-id order — deterministic
        // regardless of which thread finished first.
        for h in handles {
            let cluster = h.join().expect("cluster thread panicked");
            stats.merge(&cluster.stats);
            probe.join(cluster.probe);
            finished.push(cluster.core);
        }
    });
    let wall = started.elapsed();

    stats.final_gvt = VTime::INF;
    let (states, lp_stats) = ClusterCore::finish(finished);
    RunReport { stats, states, lp_stats, outcome: Outcome::Threaded { wall }, telemetry: None }
}

/// Everything one cluster thread owns.
struct Cluster<'a, A: Application, P: Probe> {
    cid: usize,
    core: ClusterCore<'a, A>,
    rx: Receiver<TxBatch<A::Msg>>,
    senders: Vec<Sender<TxBatch<A::Msg>>>,
    /// Per-destination coalescing buffers, reused across routing passes.
    out_bufs: Vec<TxBatch<A::Msg>>,
    /// This cluster's copy of the routing table (see [`Homes`]).
    homes: Homes,
    stats: KernelStats,
    probe: P,
}

impl<A: Application, P: Probe> Cluster<'_, A, P> {
    /// Run the core's outbox dry: local hops are the core's business,
    /// remote ones coalesce per destination and every non-empty buffer is
    /// flushed with one channel send before returning (never parked — the
    /// GVT flush protocol depends on it). Returns transmissions sent
    /// (messages, not batches).
    // detlint: phase(compute|flush)
    fn route(&mut self) -> u64 {
        let mut routed = 0;
        while let Some(hop) = self.core.route_next(&self.homes, &mut self.stats, &mut self.probe) {
            if let Hop::Remote(tx) = hop {
                routed += 1;
                self.out_bufs[self.homes.part(tx.dst())].push(tx);
            }
        }
        for (dc, buf) in self.out_bufs.iter_mut().enumerate() {
            if !buf.is_empty() {
                self.stats.comm_batches += 1;
                self.senders[dc].send(std::mem::take(buf)).expect("cluster receiver alive");
            }
        }
        routed
    }

    /// Receive everything waiting in the inbox, routing the by-products of
    /// each batch. Returns transmissions sent.
    // detlint: phase(compute|flush)
    fn drain_inbox(&mut self) -> u64 {
        let mut routed = 0;
        while let Ok(batch) = self.rx.try_recv() {
            for tx in batch {
                self.core.receive(tx, &self.homes, &mut self.stats, &mut self.probe);
            }
            routed += self.route();
        }
        routed
    }

    /// The cluster thread's main loop: drain, synchronize when asked,
    /// execute. Returns the cluster for the merge once GVT reaches ∞.
    // detlint: phase(compute)
    fn run(
        mut self,
        shared: &GvtShared,
        cfg: &KernelConfig,
        lb: Option<&LbShared<'_, A>>,
        started: std::time::Instant,
    ) -> Self {
        let mut batches_since_gvt = 0u64;
        let mut idle_rounds = 0u32;

        loop {
            // 1. Drain the inbox.
            self.drain_inbox();

            // 2. GVT round when due locally, when idle, or when any
            //    cluster requested one.
            let next = self.core.next_ready();
            if batches_since_gvt >= cfg.gvt_period || next.is_none() {
                shared.requested.store(true, Ordering::Release);
            }
            if shared.requested.load(Ordering::Acquire) {
                batches_since_gvt = 0;
                let gvt = self.gvt_round(shared);
                self.stats.gvt_rounds += 1;
                let seen = self.core.commit(gvt, &mut self.stats, &mut self.probe);
                let held = seen.held_before;
                self.stats.state_queue_high_water = self.stats.state_queue_high_water.max(held);
                let wall_ns = started.elapsed().as_nanos() as u64;
                self.probe.gvt_advanced(gvt, held, seen.pending, wall_ns);

                // Dynamic load balancing, inside the barrier region where
                // the flush protocol guarantees zero in-flight messages
                // (see the `dynlb` module docs). The gate is a function of
                // shared state only (`gvt`, the lockstep `gvt_rounds`
                // count, the static period), so every cluster takes the
                // same branch — the barriers inside stay matched.
                let migrated_in = match lb {
                    Some(lbs)
                        if !gvt.is_inf()
                            && self.stats.gvt_rounds.is_multiple_of(lbs.cfg.period.max(1)) =>
                    {
                        self.balance(shared, lbs, gvt)
                    }
                    _ => false,
                };

                if gvt.is_inf() {
                    return self;
                }
                if next.is_none() && !migrated_in {
                    // Back off so an idle cluster doesn't drag the busy
                    // ones into a GVT barrier every loop iteration.
                    idle_rounds = (idle_rounds + 1).min(10);
                    std::thread::sleep(std::time::Duration::from_micros(20 << idle_rounds));
                } else {
                    idle_rounds = 0;
                }
                continue;
            }

            // 3. Execute the lowest-timestamp local batch — within the
            //    optimism window, when one is configured (horizon = the
            //    GVT agreed in the last round + window).
            let horizon = match cfg.window {
                Some(w) => VTime(shared.gvt.load(Ordering::Acquire)).after(w),
                None => VTime::INF,
            };
            match next {
                Some(t) if t <= horizon => {
                    self.core.execute_ready(&mut self.stats, &mut self.probe);
                    batches_since_gvt += 1;
                    self.route();
                }
                // Blocked at the window edge: a GVT round advances it.
                Some(_) => shared.requested.store(true, Ordering::Release),
                None => {}
            }
        }
    }

    /// One synchronized GVT round. All clusters call this together
    /// (guaranteed by the `requested` flag being checked every loop
    /// iteration). Protocol:
    ///
    /// 1. barrier — everyone has stopped normal processing;
    /// 2. repeated flush rounds: drain the inbox and route by-products
    ///    (rollback antis can cascade), barrier, until a round routes
    ///    nothing anywhere — at that point no message is in flight;
    /// 3. publish local minima, barrier, read the global minimum.
    // detlint: phase(flush|gvt)
    fn gvt_round(&mut self, shared: &GvtShared) -> VTime {
        shared.barrier.wait();
        loop {
            let routed = self.drain_inbox();
            shared.routed_this_round.fetch_add(routed, Ordering::AcqRel);
            shared.barrier.wait();
            let total = shared.routed_this_round.load(Ordering::Acquire);
            shared.barrier.wait(); // everyone has read `total`
            if self.cid == 0 {
                shared.routed_this_round.store(0, Ordering::Release);
            }
            shared.barrier.wait(); // reset visible before the next round
            if total == 0 {
                break;
            }
        }

        shared.local_mins[self.cid].store(self.core.local_min().0, Ordering::Release);
        shared.barrier.wait();
        if self.cid == 0 {
            let gvt = shared
                .local_mins
                .iter()
                .map(|m| m.load(Ordering::Acquire))
                .min()
                .unwrap_or(u64::MAX);
            shared.gvt.store(gvt, Ordering::Release);
            shared.requested.store(false, Ordering::Release);
        }
        shared.barrier.wait();
        VTime(shared.gvt.load(Ordering::Acquire))
    }

    /// One balancing round: the four-phase hand-off, barrier-separated.
    /// Returns whether this cluster adopted an LP.
    // detlint: phase(migrate)
    fn balance(&mut self, shared: &GvtShared, lbs: &LbShared<'_, A>, gvt: VTime) -> bool {
        let clusters = self.senders.len();
        // Phase 1: contribute this cluster's slice of the window (disjoint
        // LP slots; traffic maps add).
        {
            let mut window = lbs.window.lock().unwrap();
            window.gvt = gvt;
            self.core.window_slice(&mut window);
        }
        shared.barrier.wait();
        // Phase 2: cluster 0 plans from the merged window. Any cluster's
        // assignment copy would do — they are identical by construction.
        self.stats.lb_rounds += 1;
        if self.cid == 0 {
            let mut window = lbs.window.lock().unwrap();
            window.round = self.stats.lb_rounds;
            let parts = self.homes.parts();
            let plan = lbs.balancer.lock().unwrap().plan(&window, parts, clusters, &lbs.cfg);
            window.reset();
            *lbs.plan.lock().unwrap() = plan;
        }
        shared.barrier.wait();
        // Phase 3: every cluster applies the same plan to its own routing
        // table; sources deposit their evicted LPs in the destination's
        // movers buffer.
        for mv in lbs.plan.lock().unwrap().iter() {
            if !move_is_valid(mv, self.homes.parts(), clusters) || lbs.pinned[mv.lp as usize] {
                continue;
            }
            let left = self.core.evict(mv, &mut self.homes, gvt, &mut self.stats, &mut self.probe);
            if let Some(mover) = left {
                lbs.movers[mv.to as usize].lock().unwrap().push(mover);
            }
        }
        shared.barrier.wait();
        // Phase 4: adopt arrivals. No trailing barrier needed — every
        // deposit happened before the phase-3 barrier, and any message a
        // fast cluster routes to a migrated LP just waits in the owner's
        // channel.
        let mut arrivals = lbs.movers[self.cid].lock().unwrap();
        let migrated_in = !arrivals.is_empty();
        for mover in arrivals.drain(..) {
            self.core.adopt(mover, &mut self.homes);
        }
        migrated_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Backend, Simulator};
    use crate::testkit::{round_robin, Idle, Ring};

    fn threaded<A: Application>(
        app: &A,
        assignment: &[u32],
        clusters: usize,
        cfg: &KernelConfig,
    ) -> RunReport<A> {
        Simulator::new(app).config(*cfg).run(Backend::Threaded { assignment, clusters }).unwrap()
    }

    #[test]
    fn single_cluster_matches_sequential() {
        let app = Ring { n: 8, hops: 30 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let res = threaded(&app, &round_robin(8, 1), 1, &KernelConfig::default());
        assert_eq!(res.states, seq.states);
        assert_eq!(res.stats.events_committed, seq.stats.events_processed);
    }

    #[test]
    fn two_clusters_match_sequential() {
        let app = Ring { n: 8, hops: 30 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let res = threaded(&app, &round_robin(8, 2), 2, &KernelConfig::default());
        assert_eq!(res.states, seq.states, "threaded must commit the same history");
    }

    #[test]
    fn four_clusters_match_sequential_repeatedly() {
        // Thread interleavings differ run to run; the committed result
        // must not. A handful of repetitions catches gross races.
        let app = Ring { n: 12, hops: 40 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        for _ in 0..5 {
            let res = threaded(&app, &round_robin(12, 4), 4, &KernelConfig::default());
            assert_eq!(res.states, seq.states);
        }
    }

    #[test]
    fn lazy_cancellation_matches_sequential() {
        let app = Ring { n: 8, hops: 30 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let cfg = KernelConfig {
            cancellation: crate::config::Cancellation::Lazy,
            gvt_period: 16,
            ..Default::default()
        };
        let res = threaded(&app, &round_robin(8, 2), 2, &cfg);
        assert_eq!(res.states, seq.states);
    }

    #[test]
    fn small_gvt_period_still_terminates() {
        let app = Ring { n: 6, hops: 10 };
        let cfg = KernelConfig { gvt_period: 1, ..Default::default() };
        let res = threaded(&app, &round_robin(6, 3), 3, &cfg);
        assert!(res.stats.gvt_rounds >= 1);
        assert_eq!(res.stats.final_gvt, VTime::INF);
    }

    #[test]
    fn windowed_threaded_matches_sequential() {
        let app = Ring { n: 10, hops: 30 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let cfg = KernelConfig { window: Some(4), gvt_period: 8, ..Default::default() };
        let res = threaded(&app, &round_robin(10, 3), 3, &cfg);
        assert_eq!(res.states, seq.states);
    }

    #[test]
    fn clusters_without_lps_terminate() {
        // An empty cluster has nothing to do but must still participate in
        // GVT rounds and exit — a deadlock here would hang the whole run.
        let app = Ring { n: 6, hops: 15 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let assignment: Vec<u32> = (0..6).map(|_| 0).collect(); // cluster 1 of 2 empty
        let res = threaded(&app, &assignment, 2, &KernelConfig::default());
        assert_eq!(res.states, seq.states);
    }

    #[test]
    fn empty_application_terminates_quickly() {
        let res = threaded(&Idle, &round_robin(4, 2), 2, &KernelConfig::default());
        assert_eq!(res.stats.events_processed, 0);
    }
}
