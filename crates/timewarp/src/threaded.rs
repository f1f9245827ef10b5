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
//! Synchronization: the one primitive is the private `Rendezvous`, an
//! all-reduce barrier over the cluster threads — every cluster contributes
//! an addend and a candidate minimum and gets the sum and the minimum
//! back. A GVT round is `2 + F` of them (`F` flush rounds, see
//! `Cluster::gvt_round`); a balancing round adds three. A waiter spins
//! briefly and then parks, so a host with fewer cores than clusters is not
//! starved by its own waiters. A cluster thread that panics poisons the
//! rendezvous: its peers leave their wait and the run ends in
//! [`SimError::ClusterPanicked`] — never a hang. Besides the rendezvous
//! the clusters share the `requested` flag and one mail counter per
//! cluster, nothing else.
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
//! anti-message. GVT accounting is unchanged: a flush round contributes
//! the *messages* it routed to the rendezvous, and buffers are always
//! flushed before a routing pass returns, so the termination argument
//! still holds (no message is ever parked in a local buffer across a
//! rendezvous). A sender bumps the destination's mail counter before the
//! send, so "is there mail" is one atomic load per executed batch; an idle
//! cluster blocks in `recv_timeout`, so a message — or the empty batch
//! that announces a GVT request — wakes it at once.

use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::app::Application;
use crate::config::KernelConfig;
use crate::core::{ClusterCore, Homes, Hop, Mover};
use crate::dynlb::{self, move_is_valid, pinned_mask, DynLbConfig, Migration, WindowStats};
use crate::event::Transmission;
use crate::probe::Probe;
use crate::sim::{Outcome, RunReport, SimError};
use crate::stats::KernelStats;
use crate::time::VTime;

/// A batch of transmissions — the unit that travels on inter-cluster
/// channels.
type TxBatch<M> = Vec<Transmission<M>>;

/// Why a [`Rendezvous::reduce`] did not complete: a cluster thread
/// panicked, so some party will never arrive.
#[derive(Debug)]
struct Poisoned;

/// What every party gets back from one [`Rendezvous::reduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reduced {
    /// Sum of the parties' addends.
    sum: u64,
    /// Minimum of the parties' candidates.
    min: u64,
}

/// Polls of the generation counter before a waiter parks: about ten
/// microseconds, enough to meet a peer that is a little behind without a
/// futex round trip, short enough that on a host with fewer cores than
/// clusters the waiter soon leaves the core to the peer it is waiting for.
const SPINS: u32 = 300;

/// A reusable all-reduce barrier for a fixed number of parties — a
/// sense-reversing barrier whose sense is a generation count and whose
/// release carries a reduction. A party loads the generation, adds its
/// contribution to the accumulators and counts itself in; the last
/// arriver takes the accumulators (resetting them), publishes the result
/// and advances the generation, which releases the others. Nobody can
/// contribute to generation `g + 1` before that advance, and the result
/// is overwritten only by the last arriver of `g + 1`, who arrives after
/// every party has read the result of `g` — so generations never mix.
///
/// Every atomic access is `SeqCst`: the release/park handshake needs it
/// (the last arriver writes `generation` then reads `sleepers`, a parking
/// waiter writes `sleepers` then reads `generation`; one of them must see
/// the other), and a rendezvous is a handful of accesses per GVT round,
/// not a hot path worth a weaker proof.
struct Rendezvous {
    parties: u64,
    /// Parties counted in to the generation in progress.
    arrived: AtomicU64,
    /// Accumulators of the generation in progress.
    sum: AtomicU64,
    min: AtomicU64,
    /// Result of the last completed generation.
    out_sum: AtomicU64,
    out_min: AtomicU64,
    generation: AtomicU64,
    /// Waiters parked (or about to park) on `wake`; the last arriver pays
    /// for a notification only when this is non-zero.
    sleepers: AtomicU32,
    parked: Mutex<()>,
    wake: Condvar,
    poisoned: AtomicBool,
}

impl Rendezvous {
    fn new(parties: usize) -> Self {
        Rendezvous {
            parties: parties as u64,
            arrived: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            out_sum: AtomicU64::new(0),
            out_min: AtomicU64::new(u64::MAX),
            generation: AtomicU64::new(0),
            sleepers: AtomicU32::new(0),
            parked: Mutex::new(()),
            wake: Condvar::new(),
            poisoned: AtomicBool::new(false),
        }
    }

    /// The parking lot's mutex guards no data, so a poisoned one is as
    /// good as a clean one — and [`Self::poison`] runs during an unwind,
    /// where a second panic would abort.
    fn lock_parked(&self) -> MutexGuard<'_, ()> {
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait for all parties; return the sum of their `add`s and the
    /// minimum of their `min`s. Fails, now or on arrival, for every party
    /// waiting on a poisoned rendezvous.
    fn reduce(&self, add: u64, min: u64) -> Result<Reduced, Poisoned> {
        // Stable until this party counts itself in.
        let generation = self.generation.load(SeqCst);
        self.sum.fetch_add(add, SeqCst);
        self.min.fetch_min(min, SeqCst);
        if self.arrived.fetch_add(1, SeqCst) + 1 == self.parties {
            let out =
                Reduced { sum: self.sum.swap(0, SeqCst), min: self.min.swap(u64::MAX, SeqCst) };
            self.arrived.store(0, SeqCst);
            self.out_sum.store(out.sum, SeqCst);
            self.out_min.store(out.min, SeqCst);
            self.generation.store(generation + 1, SeqCst);
            if self.sleepers.load(SeqCst) != 0 {
                // Taking the lock waits out a sleeper that has checked the
                // generation but not yet begun to wait.
                drop(self.lock_parked());
                self.wake.notify_all();
            }
            return Ok(out);
        }

        let released = || self.generation.load(SeqCst) != generation;
        let over = || released() || self.poisoned.load(SeqCst);
        let mut spins = 0;
        while !over() && spins < SPINS {
            spins += 1;
            std::hint::spin_loop();
        }
        if !over() {
            let mut guard = self.lock_parked();
            self.sleepers.fetch_add(1, SeqCst);
            while !over() {
                guard = self.wake.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
            self.sleepers.fetch_sub(1, SeqCst);
        }
        if released() {
            Ok(Reduced { sum: self.out_sum.load(SeqCst), min: self.out_min.load(SeqCst) })
        } else {
            Err(Poisoned)
        }
    }

    /// A rendezvous that reduces nothing: a plain barrier.
    fn sync(&self) -> Result<(), Poisoned> {
        self.reduce(0, u64::MAX).map(drop)
    }

    /// Fail every waiter, now and from now on.
    fn poison(&self) {
        self.poisoned.store(true, SeqCst);
        drop(self.lock_parked());
        self.wake.notify_all();
    }
}

/// Held by a cluster thread for its whole life: poisons the rendezvous if
/// the thread unwinds, so that its peers stop waiting for it.
struct PoisonOnPanic<'a>(&'a Rendezvous);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Shared dynamic load-balancing state: the merged per-window statistics,
/// the plan agreed by cluster 0, and per-destination handoff buffers for
/// migrating LPs. All accesses happen inside the GVT round, where the
/// flush protocol guarantees no message is in flight — see the `dynlb`
/// module docs.
struct LbShared<A: Application> {
    cfg: DynLbConfig,
    window: Mutex<WindowStats>,
    plan: Mutex<Vec<Migration>>,
    movers: Vec<Mutex<Vec<Mover<A>>>>,
    /// LPs the model forbids migrating.
    pinned: Vec<bool>,
}

/// One cluster's mail counter, on a cache line of its own: its owner
/// reads it once per executed batch, and a neighbour's counter changing
/// must not make that read miss.
#[repr(align(64))]
struct Mail(AtomicU64);

/// Everything the cluster threads share besides channels (and, when
/// balancing, [`LbShared`]).
struct Shared {
    /// Set by any cluster that wants a GVT round, checked by every cluster
    /// once per loop iteration, cleared by cluster 0 at the round's first
    /// rendezvous.
    requested: AtomicBool,
    rendezvous: Rendezvous,
    /// Per cluster: batches ever addressed to it, bumped *before* the
    /// send. The owner compares it with its own count of batches taken,
    /// so it may see mail announced that has not arrived yet, never mail
    /// arrived that was not announced.
    mail: Vec<Mail>,
}

/// The executive proper, generic over the telemetry probe. `sim::validate`
/// has already checked `cfg`, and `assignment` against `app` and `clusters`.
/// A panic on a cluster thread (the application's, or a kernel assert)
/// tears the run down and comes back as [`SimError::ClusterPanicked`].
// detlint: phase(compute)
pub(crate) fn threaded_core<A: Application, P: Probe>(
    app: &A,
    assignment: &[u32],
    clusters: usize,
    cfg: &KernelConfig,
    probe: &mut P,
    dynlb: Option<DynLbConfig>,
) -> Result<RunReport<A>, SimError> {
    let lb_shared = dynlb.map(|cfg| LbShared::<A> {
        cfg,
        window: Mutex::new(WindowStats::new(app.num_lps())),
        plan: Mutex::new(Vec::new()),
        movers: (0..clusters).map(|_| Mutex::new(Vec::new())).collect(),
        pinned: pinned_mask(app),
    });

    // Channels: one receiver per cluster (moved into its thread), senders
    // shared by everyone. Channels carry transmission *batches*.
    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..clusters).map(|_| channel::<TxBatch<A::Msg>>()).unzip();

    let shared = Shared {
        requested: AtomicBool::new(false),
        rendezvous: Rendezvous::new(clusters),
        mail: (0..clusters).map(|_| Mail(AtomicU64::new(0))).collect(),
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

    let joined: Vec<_> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clusters);
        for ((cid, core), rx) in cores.into_iter().enumerate().zip(receivers) {
            let cluster = Cluster {
                cid,
                core,
                shared: &shared,
                rx,
                received: 0,
                out_bufs: (0..clusters).map(|_| Vec::new()).collect(),
                senders: senders.clone(),
                homes: homes.clone(),
                stats: KernelStats::default(),
                probe: probe.fork(),
            };
            let (rendezvous, lb) = (&shared.rendezvous, lb_shared.as_ref());
            handles.push(scope.spawn(move || {
                let _poison = PoisonOnPanic(rendezvous);
                cluster.run(cfg, lb, started)
            }));
        }
        handles.into_iter().map(|h| h.join()).collect()
    });
    let wall = started.elapsed();

    // The peers of a panicked cluster came back `Err(Poisoned)`, or
    // finished; either way there is no run to report.
    if let Some(cluster) = joined.iter().position(|j| j.is_err()) {
        return Err(SimError::ClusterPanicked { cluster });
    }
    // Merged in cluster-id order — deterministic regardless of which
    // thread finished first.
    let mut finished = Vec::with_capacity(clusters);
    for (cid, joined) in joined.into_iter().enumerate() {
        let Ok(Ok(cluster)) = joined else { unreachable!("only a panic poisons the rendezvous") };
        // Rounds are lockstep, which is why the counter merges by `Max`.
        assert!(
            cid == 0 || cluster.stats.gvt_rounds == stats.gvt_rounds,
            "cluster {cid} counted {} GVT rounds, cluster 0 {}",
            cluster.stats.gvt_rounds,
            stats.gvt_rounds
        );
        stats.merge(&cluster.stats);
        probe.join(cluster.probe);
        finished.push(cluster.core);
    }

    stats.final_gvt = VTime::INF;
    let (states, lp_stats) = ClusterCore::finish(finished);
    Ok(RunReport { stats, states, lp_stats, outcome: Outcome::Threaded { wall }, telemetry: None })
}

/// Everything one cluster thread owns.
struct Cluster<'a, A: Application, P: Probe> {
    cid: usize,
    core: ClusterCore<'a, A>,
    shared: &'a Shared,
    rx: Receiver<TxBatch<A::Msg>>,
    /// Batches taken from `rx` so far; see [`Shared::mail`].
    received: u64,
    senders: Vec<Sender<TxBatch<A::Msg>>>,
    /// Per-destination coalescing buffers, reused across routing passes.
    out_bufs: Vec<TxBatch<A::Msg>>,
    /// This cluster's copy of the routing table (see [`Homes`]).
    homes: Homes,
    stats: KernelStats,
    probe: P,
}

impl<A: Application, P: Probe> Cluster<'_, A, P> {
    /// Announce, then send, one batch to cluster `dc`.
    fn post(&self, dc: usize, batch: TxBatch<A::Msg>) {
        self.shared.mail[dc].0.fetch_add(1, SeqCst);
        // A receiver only goes away when its cluster leaves a poisoned
        // run (after GVT = ∞ nobody sends); the next rendezvous says so.
        let _ = self.senders[dc].send(batch);
    }

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
        for dc in 0..self.out_bufs.len() {
            if !self.out_bufs[dc].is_empty() {
                self.stats.comm_batches += 1;
                let batch = std::mem::take(&mut self.out_bufs[dc]);
                self.post(dc, batch);
            }
        }
        routed
    }

    /// Deliver one batch taken from the inbox and route its by-products.
    /// Returns transmissions sent.
    // detlint: phase(compute|flush)
    fn accept(&mut self, batch: TxBatch<A::Msg>) -> u64 {
        self.received += 1;
        for tx in batch {
            self.core.receive(tx, &self.homes, &mut self.stats, &mut self.probe);
        }
        self.route()
    }

    /// Receive everything waiting in the inbox, routing the by-products of
    /// each batch. Returns transmissions sent.
    // detlint: phase(compute|flush)
    fn drain_inbox(&mut self) -> u64 {
        if self.shared.mail[self.cid].0.load(SeqCst) == self.received {
            return 0;
        }
        let mut routed = 0;
        while let Ok(batch) = self.rx.try_recv() {
            routed += self.accept(batch);
        }
        routed
    }

    /// Ask every cluster into a GVT round. Whoever turns the flag on also
    /// sends each peer an empty batch, which wakes one that is blocked in
    /// its idle wait; an empty batch carries no transmission, so GVT
    /// accounting does not see it.
    // detlint: phase(compute)
    fn request_gvt(&self) {
        if !self.shared.requested.swap(true, SeqCst) {
            for dc in (0..self.senders.len()).filter(|&dc| dc != self.cid) {
                self.post(dc, Vec::new());
            }
        }
    }

    /// The cluster thread's main loop: drain, synchronize when asked,
    /// execute. Returns the cluster for the merge once GVT reaches ∞.
    // detlint: phase(compute)
    fn run(
        mut self,
        cfg: &KernelConfig,
        lb: Option<&LbShared<A>>,
        started: std::time::Instant,
    ) -> Result<Self, Poisoned> {
        let mut batches_since_gvt = 0u64;
        let mut idle_rounds = 0u32;
        // The GVT agreed in the last round: the optimism window's base.
        let mut gvt = VTime::ZERO;

        loop {
            // 1. Drain the inbox.
            self.drain_inbox();

            // 2. GVT round when due locally, when idle, or when any
            //    cluster requested one.
            let next = self.core.next_ready();
            if batches_since_gvt >= cfg.gvt_period || next.is_none() {
                self.request_gvt();
            }
            if self.shared.requested.load(SeqCst) {
                batches_since_gvt = 0;
                gvt = self.gvt_round()?;
                self.stats.gvt_rounds += 1;
                let seen = self.core.commit(gvt, &mut self.stats, &mut self.probe);
                let held = seen.held_before;
                self.stats.state_queue_high_water = self.stats.state_queue_high_water.max(held);
                let wall_ns = started.elapsed().as_nanos() as u64;
                self.probe.gvt_advanced(gvt, held, seen.pending, wall_ns);

                // Dynamic load balancing, inside the GVT round where the
                // flush protocol guarantees zero in-flight messages (see
                // the `dynlb` module docs). The gate is a function of
                // shared state only (`gvt`, the lockstep `gvt_rounds`
                // count, the static period), so every cluster takes the
                // same branch — the rendezvous inside stay matched.
                if let Some(lbs) = lb {
                    if !gvt.is_inf() && self.stats.gvt_rounds.is_multiple_of(lbs.cfg.period.max(1))
                    {
                        self.balance(lbs, gvt)?;
                    }
                }

                if gvt.is_inf() {
                    return Ok(self);
                }
                if self.core.next_ready().is_none() {
                    // Nothing to do until mail arrives: wait for it, with
                    // a growing patience so that an idle cluster does not
                    // drag the busy ones into a GVT round every loop
                    // iteration. A message or a peer's GVT request ends
                    // the wait at once.
                    idle_rounds = (idle_rounds + 1).min(10);
                    if let Ok(batch) =
                        self.rx.recv_timeout(Duration::from_micros(20 << idle_rounds))
                    {
                        self.accept(batch);
                    }
                } else {
                    idle_rounds = 0;
                }
                continue;
            }

            // 3. Execute the lowest-timestamp local batch — within the
            //    optimism window, when one is configured (horizon = the
            //    GVT agreed in the last round + window).
            let horizon = cfg.window.map_or(VTime::INF, |w| gvt.after(w));
            match next {
                Some(t) if t <= horizon => {
                    self.core.execute_ready(&mut self.stats, &mut self.probe);
                    batches_since_gvt += 1;
                    self.route();
                }
                // Blocked at the window edge: a GVT round advances it.
                Some(_) => self.request_gvt(),
                None => {}
            }
        }
    }

    /// One synchronized GVT round. All clusters call this together
    /// (guaranteed by the `requested` flag being checked every loop
    /// iteration). Protocol, `2 + F` rendezvous:
    ///
    /// 1. rendezvous — everyone has stopped normal processing, so every
    ///    send of normal processing (wake-up batches included)
    ///    happens-before it. Nobody sets `requested` inside a round and
    ///    nobody leaves the round before cluster 0 joins the next
    ///    rendezvous, so cluster 0 clears the flag here;
    /// 2. `F ≥ 1` flush rounds: drain the inbox and route by-products
    ///    (rollback antis can cascade), then all-reduce the number of
    ///    transmissions routed. Each round drains everything sent before
    ///    the rendezvous that precedes it, so a round whose sum is 0 sent
    ///    nothing and left nothing behind: no message is in flight;
    /// 3. all-reduce the local minima: the result is the GVT.
    // detlint: phase(flush|gvt)
    fn gvt_round(&mut self) -> Result<VTime, Poisoned> {
        let rendezvous = &self.shared.rendezvous;
        rendezvous.sync()?;
        if self.cid == 0 {
            self.shared.requested.store(false, SeqCst);
        }
        while rendezvous.reduce(self.drain_inbox(), u64::MAX)?.sum != 0 {}
        Ok(VTime(rendezvous.reduce(0, self.core.local_min().0)?.min))
    }

    /// One balancing round: the four-phase hand-off, its phases separated
    /// by rendezvous.
    // detlint: phase(migrate)
    fn balance(&mut self, lbs: &LbShared<A>, gvt: VTime) -> Result<(), Poisoned> {
        let clusters = self.senders.len();
        let rendezvous = &self.shared.rendezvous;
        // Phase 1: contribute this cluster's slice of the window (disjoint
        // LP slots; traffic maps add).
        {
            let mut window = lbs.window.lock().unwrap();
            window.gvt = gvt;
            self.core.window_slice(&mut window);
        }
        rendezvous.sync()?;
        // Phase 2: cluster 0 plans from the merged window. Any cluster's
        // assignment copy would do — they are identical by construction.
        self.stats.lb_rounds += 1;
        if self.cid == 0 {
            let mut window = lbs.window.lock().unwrap();
            window.round = self.stats.lb_rounds;
            let parts = self.homes.parts();
            let plan = dynlb::plan(&window, parts, clusters, &lbs.cfg);
            window.reset();
            *lbs.plan.lock().unwrap() = plan;
        }
        rendezvous.sync()?;
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
        rendezvous.sync()?;
        // Phase 4: adopt arrivals. No trailing rendezvous needed — every
        // deposit happened before the phase-3 one, and any message a fast
        // cluster routes to a migrated LP just waits in the owner's
        // channel.
        for mover in lbs.movers[self.cid].lock().unwrap().drain(..) {
            self.core.adopt(mover, &mut self.homes);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phold::Phold;
    use crate::sim::{Backend, Simulator};
    use crate::testkit::{round_robin, Idle, Ring};

    /// `parties` threads meet 10 000 times; every one of them checks every
    /// generation's sum and minimum against the closed form. Contributions
    /// differ from one generation to the next, so one that leaked into a
    /// neighbouring generation's accumulator would show in both.
    fn hammer(parties: u64) {
        let rendezvous = Rendezvous::new(parties as usize);
        std::thread::scope(|scope| {
            for id in 0..parties {
                let rendezvous = &rendezvous;
                scope.spawn(move || {
                    // A failed assert must fail the test, not hang the peers.
                    let _poison = PoisonOnPanic(rendezvous);
                    for g in 0..10_000 {
                        let got = rendezvous.reduce(g * (id + 1), 7 * g + (id + g) % parties);
                        let want = Reduced { sum: g * parties * (parties + 1) / 2, min: 7 * g };
                        assert_eq!(got.unwrap(), want, "party {id}, generation {g}");
                    }
                });
            }
        });
    }

    #[test]
    fn rendezvous_reduces_every_generation_exactly() {
        hammer(2);
        hammer(3);
        // More parties than any CI host has cores: waiters park.
        hammer(8);
    }

    #[test]
    fn poison_fails_parked_and_spinning_waiters() {
        // Parked: the waiter has counted itself a sleeper.
        let rendezvous = Rendezvous::new(2);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| rendezvous.reduce(1, 1));
            while rendezvous.sleepers.load(SeqCst) == 0 {
                std::thread::yield_now();
            }
            rendezvous.poison();
            assert!(waiter.join().unwrap().is_err());
        });
        // Spinning: the waiter has only just arrived (if the host
        // descheduled this thread for the length of the spin it has
        // parked after all, and the case above covers it).
        let rendezvous = Rendezvous::new(2);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| rendezvous.reduce(1, 1));
            while rendezvous.arrived.load(SeqCst) == 0 {
                std::hint::spin_loop();
            }
            rendezvous.poison();
            assert!(waiter.join().unwrap().is_err());
        });
        // Late: the waiter arrives at a rendezvous already poisoned.
        let rendezvous = Rendezvous::new(2);
        rendezvous.poison();
        assert!(rendezvous.sync().is_err());
    }

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

    /// `gvt_period: 1` puts a GVT round after every batch, so rounds, flush
    /// rounds and idle waits interleave with execution as densely as they
    /// can; `threaded_core` itself asserts that every cluster counted the
    /// same number of rounds.
    fn round_per_batch_sweep<A: Application>(app: &A)
    where
        A::State: PartialEq + std::fmt::Debug,
    {
        let seq = Simulator::new(app).run(Backend::Sequential).unwrap();
        for clusters in [2, 3, 4, 8] {
            let assignment = round_robin(app.num_lps(), clusters);
            for rep in 0..25 {
                let window = (rep == 0).then_some(4);
                let cfg = KernelConfig { gvt_period: 1, window, ..Default::default() };
                let res = threaded(app, &assignment, clusters, &cfg);
                assert_eq!(res.states, seq.states, "{clusters} clusters, repetition {rep}");
                assert_eq!(res.stats.events_committed, seq.stats.events_processed);
                assert!(res.stats.gvt_rounds >= 1);
            }
        }
    }

    #[test]
    fn a_round_after_every_batch_commits_the_sequential_history() {
        round_per_batch_sweep(&Ring { n: 8, hops: 20 });
        round_per_batch_sweep(&Phold { lps: 8, horizon: 60, ..Default::default() });
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
        for gvt_period in [KernelConfig::default().gvt_period, 1] {
            let cfg = KernelConfig { gvt_period, ..Default::default() };
            let res = threaded(&app, &assignment, 2, &cfg);
            assert_eq!(res.states, seq.states);
        }
    }

    #[test]
    fn empty_application_terminates_quickly() {
        let res = threaded(&Idle, &round_robin(4, 2), 2, &KernelConfig::default());
        assert_eq!(res.stats.events_processed, 0);
    }
}
