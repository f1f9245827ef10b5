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
//! The cluster loop is one step function, `Lane::step`, over a
//! `ClusterCore` and its `Lane`: drain, execute, flush, arrive,
//! release, commit. It reaches the other clusters only through a `Seam`
//! — the wire, the GVT request flag and the rendezvous. Here each cluster
//! thread calls it in a loop over `mpsc` channels and the `Rendezvous`;
//! the model checker (`crate::modelcheck`) calls it one step at a time
//! over FIFO queues and a scripted barrier, so the protocol it explores is
//! this code. The seam is a generic parameter: the thread loop is
//! monomorphised and dispatches nothing dynamically.
//!
//! Synchronization: the one primitive is the private `Rendezvous`, an
//! all-reduce barrier over the cluster threads — every cluster contributes
//! an addend and a candidate minimum and gets the sum and the minimum
//! back. A cluster *arrives* and is later *released*; between the two a
//! thread waits. A GVT round is `2 + F` rendezvous (`F` flush rounds, see
//! `Phase`). A waiter spins briefly and then parks, so a host with fewer
//! cores than clusters is not starved by its own waiters; its parking lot
//! is the executive's only lock. A cluster thread that panics poisons the
//! rendezvous: its peers leave their wait and the run ends in
//! [`SimError::ClusterPanicked`] — never a hang. Besides the rendezvous
//! the clusters share the `requested` flag, one mail counter per cluster
//! and the run's routing table, which they only read. The threads are
//! spawned once per run and leave their loop at the GVT round that agrees
//! on ∞.
//!
//! Counting and telemetry: the root probe — the run's [`KernelStats`]
//! teed with the caller's probe — is [`Probe::fork`]ed once per cluster,
//! each cluster thread feeds its own child (no locking on the hot path),
//! and the children are [`Probe::join`]ed back in cluster-id order — so
//! the statistics and a recording probe see a deterministic merge even
//! though thread interleavings differ run to run.
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
#[allow(
    clippy::disallowed_types,
    reason = "the threaded executive is the one audited concurrency surface"
)]
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64};
#[allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the threaded executive is the one audited concurrency surface"
)]
use std::sync::mpsc::{channel, Receiver, Sender};
#[allow(
    clippy::disallowed_types,
    reason = "the threaded executive is the one audited concurrency surface"
)]
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::app::Application;
use crate::config::KernelConfig;
use crate::core::{ClusterCore, Homes, Hop};
use crate::event::Transmission;
use crate::probe::{Probe, ProbeEvent, Tee};
use crate::sim::{Outcome, RunReport, SimError};
use crate::stats::KernelStats;
use crate::time::VTime;

/// A batch of transmissions — the unit that travels on inter-cluster
/// channels.
pub(crate) type TxBatch<M> = Vec<Transmission<M>>;

/// Why a rendezvous did not release: a cluster thread panicked, so some
/// party will never arrive.
#[derive(Debug)]
pub(crate) struct Poisoned;

/// What every party gets back from one rendezvous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Reduced {
    /// Sum of the parties' addends.
    pub sum: u64,
    /// Minimum of the parties' candidates.
    pub min: u64,
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
#[allow(clippy::disallowed_types, reason = "the executive's one synchronisation primitive")]
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
    #[allow(clippy::disallowed_types, reason = "the executive's one synchronisation primitive")]
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

    /// Count in with an addend and a candidate minimum; returns the
    /// generation joined, for [`Self::release`]. The last arriver
    /// completes the generation and releases everyone.
    fn arrive(&self, add: u64, min: u64) -> u64 {
        // Stable until this party counts itself in.
        let generation = self.generation.load(SeqCst);
        self.sum.fetch_add(add, SeqCst);
        self.min.fetch_min(min, SeqCst);
        if self.arrived.fetch_add(1, SeqCst) + 1 == self.parties {
            self.arrived.store(0, SeqCst);
            self.out_sum.store(self.sum.swap(0, SeqCst), SeqCst);
            self.out_min.store(self.min.swap(u64::MAX, SeqCst), SeqCst);
            self.generation.store(generation + 1, SeqCst);
            if self.sleepers.load(SeqCst) != 0 {
                // Taking the lock waits out a sleeper that has checked the
                // generation but not yet begun to wait.
                drop(self.lock_parked());
                self.wake.notify_all();
            }
        }
        generation
    }

    /// Wait until `generation` completes; return the sum of its parties'
    /// addends and the minimum of their candidates. Fails, now or on
    /// arrival, for every party waiting on a poisoned rendezvous.
    fn release(&self, generation: u64) -> Result<Reduced, Poisoned> {
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

/// One cluster's mail counter, on a cache line of its own: its owner
/// reads it once per executed batch, and a neighbour's counter changing
/// must not make that read miss.
#[allow(
    clippy::disallowed_types,
    reason = "the threaded executive is the one audited concurrency surface"
)]
#[repr(align(64))]
struct Mail(AtomicU64);

/// Everything the cluster threads share besides channels and the
/// routing table.
#[allow(
    clippy::disallowed_types,
    reason = "the threaded executive is the one audited concurrency surface"
)]
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

/// Everything a cluster's step reaches outside its own core and lane.
pub(crate) trait Seam<M> {
    /// Send one batch to cluster `dc`.
    fn post(&mut self, dc: usize, batch: TxBatch<M>);
    /// The next batch in this cluster's inbox, if one has arrived.
    fn take(&mut self) -> Option<TxBatch<M>>;
    /// [`Self::take`], waiting up to `patience` for a batch.
    fn wait(&mut self, patience: Duration) -> Option<TxBatch<M>>;
    /// Raise the GVT request flag; whether this call raised it.
    fn raise(&mut self) -> bool;
    /// Whether the GVT request flag is up.
    fn raised(&self) -> bool;
    /// Lower the GVT request flag.
    fn lower(&mut self);
    /// Count in at the next rendezvous.
    fn arrive(&mut self, add: u64, min: u64);
    /// The reduction of the rendezvous this cluster last arrived at, once
    /// every cluster has arrived there.
    fn release(&mut self) -> Result<Reduced, Poisoned>;
}

/// The cluster threads' [`Seam`]: channels, the shared flag and the
/// rendezvous.
#[allow(clippy::disallowed_types, reason = "a cluster thread's channel endpoints")]
struct Wire<'e, M> {
    cid: usize,
    rx: Receiver<TxBatch<M>>,
    /// Batches taken from `rx` so far; see [`Shared::mail`].
    received: u64,
    shared: &'e Shared,
    senders: &'e [Sender<TxBatch<M>>],
    /// The generation of the rendezvous last arrived at.
    generation: u64,
}

impl<M> Seam<M> for Wire<'_, M> {
    /// Announce, then send.
    fn post(&mut self, dc: usize, batch: TxBatch<M>) {
        self.shared.mail[dc].0.fetch_add(1, SeqCst);
        // A receiver only goes away when its cluster leaves a poisoned
        // run (after GVT = ∞ nobody sends); the next rendezvous says so.
        let _ = self.senders[dc].send(batch);
    }

    fn take(&mut self) -> Option<TxBatch<M>> {
        if self.shared.mail[self.cid].0.load(SeqCst) == self.received {
            return None;
        }
        let batch = self.rx.try_recv().ok()?;
        self.received += 1;
        Some(batch)
    }

    fn wait(&mut self, patience: Duration) -> Option<TxBatch<M>> {
        let batch = self.rx.recv_timeout(patience).ok()?;
        self.received += 1;
        Some(batch)
    }

    fn raise(&mut self) -> bool {
        !self.shared.requested.swap(true, SeqCst)
    }

    fn raised(&self) -> bool {
        self.shared.requested.load(SeqCst)
    }

    fn lower(&mut self) {
        self.shared.requested.store(false, SeqCst);
    }

    fn arrive(&mut self, add: u64, min: u64) {
        self.generation = self.shared.rendezvous.arrive(add, min);
    }

    fn release(&mut self) -> Result<Reduced, Poisoned> {
        self.shared.rendezvous.release(self.generation)
    }
}

/// The executive proper, generic over the telemetry probe; returns the
/// probe with the report. `sim::validate` has already checked `cfg`, and
/// `assignment` against `app` and `clusters`.
/// A panic on a cluster thread (the application's, or a kernel assert)
/// tears the run down and comes back as [`SimError::ClusterPanicked`].
pub(crate) fn threaded_core<A: Application, P: Probe>(
    app: &A,
    assignment: &[u32],
    clusters: usize,
    cfg: &KernelConfig,
    probe: P,
) -> Result<(RunReport<A>, P), SimError> {
    // Channels: one receiver per cluster, senders shared by everyone.
    // Channels carry transmission *batches*.
    #[allow(
        clippy::disallowed_methods,
        reason = "the threaded executive is the one audited concurrency surface"
    )]
    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..clusters).map(|_| channel::<TxBatch<A::Msg>>()).unzip();

    #[allow(
        clippy::disallowed_types,
        reason = "the threaded executive is the one audited concurrency surface"
    )]
    let shared = Shared {
        requested: AtomicBool::new(false),
        rendezvous: Rendezvous::new(clusters),
        mail: (0..clusters).map(|_| Mail(AtomicU64::new(0))).collect(),
    };

    let stats = KernelStats { replicated_gates: app.replicated_units(), ..KernelStats::default() };
    let mut probe = Tee::new(stats, probe);
    let (cores, homes) = ClusterCore::partition(app, assignment, clusters, *cfg, &mut probe);

    #[allow(
        clippy::disallowed_methods,
        reason = "host wall-clock feeds only RunReport/probe telemetry host-time columns and never virtual time"
    )]
    let started = Instant::now();
    let ctx = RunCtx { homes: &homes, cfg, started };
    // Each thread owns its core and lane on its own stack: side by side in
    // one vector, two clusters' hot fields would share cache lines.
    #[allow(clippy::disallowed_methods, reason = "one OS thread per cluster")]
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (cores.into_iter().zip(receivers).enumerate())
            .map(|(cid, (mut core, rx))| {
                let mut lane = Lane::new(cid, clusters, probe.fork());
                let (shared, senders, ctx) = (&shared, &senders[..], &ctx);
                let mut wire = Wire { cid, rx, received: 0, shared, senders, generation: 0 };
                scope.spawn(move || {
                    let _poison = PoisonOnPanic(&shared.rendezvous);
                    while !lane.step(&mut core, ctx, &mut wire)? {}
                    Ok::<_, Poisoned>((core, lane))
                })
            })
            .collect();
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
    let mut cores = Vec::with_capacity(clusters);
    for (cid, joined) in joined.into_iter().enumerate() {
        let Ok(Ok((core, lane))) = joined else {
            unreachable!("invariant: only a panic poisons the rendezvous")
        };
        // Rounds are lockstep, which is why the counter merges by `Max`.
        let rounds = lane.probe.a.gvt_rounds;
        assert!(
            cid == 0 || rounds == probe.a.gvt_rounds,
            "invariant: cluster {cid} counted {rounds} GVT rounds, cluster 0 {}",
            probe.a.gvt_rounds
        );
        probe.join(lane.probe);
        cores.push(core);
    }

    let Tee { a: mut stats, b: probe } = probe;
    stats.final_gvt = VTime::INF;
    let states = ClusterCore::finish(cores);
    let outcome = Outcome::Threaded { wall };
    Ok((RunReport { stats, states, outcome }, probe))
}

/// What every cluster's step reads and none writes.
pub(crate) struct RunCtx<'e> {
    /// The run's routing table (see [`Homes`]).
    pub homes: &'e Homes,
    pub cfg: &'e KernelConfig,
    /// Telemetry wall-clock origin.
    pub started: Instant,
}

/// Where a cluster is in its loop: the step function's program counter.
/// A GVT round is entry, `F ≥ 1` flush rounds and the minima, each ended
/// by a rendezvous:
///
/// 1. entry — everyone has stopped normal processing, so every send of
///    normal processing (wake-up batches included) happens-before it.
///    Nobody raises the request flag inside a round and nobody leaves the
///    round before cluster 0 arrives at the next rendezvous, so cluster 0
///    lowers the flag on release;
/// 2. flush — drain the inbox and route by-products (rollback antis can
///    cascade), then all-reduce the number of transmissions routed. Each
///    round drains everything sent before the rendezvous that precedes
///    it, so a round whose sum is 0 sent nothing and left nothing behind:
///    no message is in flight;
/// 3. minima — all-reduce the local minima: the result is the GVT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Phase {
    /// Out of a GVT round: wait for mail if nothing is ready.
    Idle,
    /// Normal processing: drain the inbox a batch a step, then request or
    /// enter a GVT round, or execute one batch.
    Run,
    /// Arrived at a round's entry rendezvous.
    Entered,
    /// In a flush round: drain the inbox a batch a step, then arrive with
    /// the transmissions routed.
    Flush,
    /// Arrived at a flush rendezvous.
    Flushed,
    /// Arrived at the minima rendezvous.
    Minimum,
}

/// One cluster's loop state.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Lane<M, P> {
    pub cid: usize,
    pub phase: Phase,
    /// The GVT agreed in the last round: the optimism window's base.
    pub gvt: VTime,
    batches_since_gvt: u64,
    /// Transmissions routed in the flush round in progress.
    routed: u64,
    /// Idle waits in a row, each after a round: the patience of the next.
    idle_rounds: u32,
    /// Per-destination coalescing buffers, reused across routing passes.
    out_bufs: Vec<TxBatch<M>>,
    /// Emptied inbox batches, at most one per cluster: a posted buffer is
    /// replaced by one of these, so a send reuses a received batch's
    /// allocation instead of making a new one.
    spares: Vec<TxBatch<M>>,
    /// This cluster's statistics and child of the caller's probe.
    pub probe: Tee<KernelStats, P>,
    /// Bug hook: a flush round does not count the antis it routes.
    #[cfg(test)]
    pub uncounted_antis: bool,
}

impl<M, P: Probe> Lane<M, P> {
    pub fn new(cid: usize, clusters: usize, probe: Tee<KernelStats, P>) -> Self {
        Lane {
            cid,
            phase: Phase::Run,
            gvt: VTime::ZERO,
            batches_since_gvt: 0,
            routed: 0,
            idle_rounds: 0,
            out_bufs: (0..clusters).map(|_| Vec::new()).collect(),
            spares: Vec::new(),
            probe,
            #[cfg(test)]
            uncounted_antis: false,
        }
    }

    /// Run the core's outbox dry: local hops are the core's business,
    /// remote ones coalesce per destination and every non-empty buffer is
    /// posted before returning (never parked — the flush depends on it).
    /// Returns transmissions sent (messages, not batches).
    fn route<A, S>(&mut self, core: &mut ClusterCore<'_, A>, homes: &Homes, seam: &mut S) -> u64
    where
        A: Application<Msg = M>,
        S: Seam<M>,
    {
        let mut routed = 0;
        while let Some(hop) = core.route_next(homes, &mut self.probe) {
            if let Hop::Remote(tx) = hop {
                routed += 1;
                #[cfg(test)]
                if self.uncounted_antis && !tx.is_positive() {
                    routed -= 1;
                }
                self.out_bufs[homes.part(tx.dst())].push(tx);
            }
        }
        for dc in 0..self.out_bufs.len() {
            if !self.out_bufs[dc].is_empty() {
                self.probe.a.comm_batches += 1;
                let spare = self.spares.pop().unwrap_or_default();
                seam.post(dc, std::mem::replace(&mut self.out_bufs[dc], spare));
            }
        }
        routed
    }

    /// Deliver one batch taken from the inbox, keep its buffer as a spare
    /// and route the delivery's by-products. Returns transmissions sent.
    fn accept<A, S>(
        &mut self,
        mut batch: TxBatch<M>,
        core: &mut ClusterCore<'_, A>,
        homes: &Homes,
        seam: &mut S,
    ) -> u64
    where
        A: Application<Msg = M>,
        S: Seam<M>,
    {
        for tx in batch.drain(..) {
            core.receive(tx, homes, &mut self.probe);
        }
        if batch.capacity() > 0 && self.spares.len() < self.out_bufs.len() {
            self.spares.push(batch);
        }
        self.route(core, homes, seam)
    }

    /// Ask every cluster into a GVT round. Whoever raises the flag also
    /// sends each peer an empty batch, which wakes one that is blocked in
    /// its idle wait; an empty batch carries no transmission, so GVT
    /// accounting does not see it.
    fn request_gvt<S: Seam<M>>(&self, seam: &mut S) {
        if seam.raise() {
            for dc in (0..self.out_bufs.len()).filter(|&dc| dc != self.cid) {
                seam.post(dc, Vec::new());
            }
        }
    }

    /// One step of the cluster loop; see [`Phase`]. Returns whether the
    /// cluster leaves its loop: a GVT round agreed ∞.
    #[allow(
        clippy::cast_possible_truncation,
        clippy::disallowed_methods,
        reason = "telemetry wall time in nanoseconds (a `u64` holds 584 years); \
                  the GVT is the all-reduced minimum of `ticks()` reads, no sum"
    )]
    pub fn step<A, S>(
        &mut self,
        core: &mut ClusterCore<'_, A>,
        ctx: &RunCtx<'_>,
        seam: &mut S,
    ) -> Result<bool, Poisoned>
    where
        A: Application<Msg = M>,
        S: Seam<M>,
    {
        let homes = ctx.homes;
        match self.phase {
            // Nothing to do after a round until mail arrives: wait for it,
            // with a growing patience so that an idle cluster does not drag
            // the busy ones into a GVT round every loop iteration. A
            // message or a peer's GVT request ends the wait at once.
            Phase::Idle => {
                if core.next_ready().is_some() {
                    self.idle_rounds = 0;
                } else {
                    self.idle_rounds = (self.idle_rounds + 1).min(10);
                    let patience = Duration::from_micros(20 << self.idle_rounds);
                    if let Some(batch) = seam.wait(patience) {
                        self.accept(batch, core, homes, seam);
                    }
                }
                self.phase = Phase::Run;
            }
            Phase::Run => {
                if let Some(batch) = seam.take() {
                    self.accept(batch, core, homes, seam);
                    return Ok(false);
                }
                // A GVT round when due locally — by batch count or by the
                // checkpoint heap filed since the last commit — when idle,
                // or when any cluster requested one.
                let next = core.next_ready();
                if self.batches_since_gvt >= ctx.cfg.gvt_period || core.heap_due() || next.is_none()
                {
                    self.request_gvt(seam);
                }
                if seam.raised() {
                    self.batches_since_gvt = 0;
                    seam.arrive(0, u64::MAX);
                    self.phase = Phase::Entered;
                    return Ok(false);
                }
                // Execute the lowest-timestamp local batch — within the
                // optimism window, when one is configured (horizon = the
                // GVT agreed in the last round + window).
                let horizon = ctx.cfg.window.map_or(VTime::INF, |w| self.gvt.after(w));
                match next {
                    Some(t) if t <= horizon => {
                        core.execute(&mut self.probe);
                        self.batches_since_gvt += 1;
                        self.route(core, homes, seam);
                    }
                    // Blocked at the window edge: a GVT round advances it.
                    Some(_) => self.request_gvt(seam),
                    None => {}
                }
            }
            Phase::Entered => {
                seam.release()?;
                if self.cid == 0 {
                    seam.lower();
                }
                self.phase = Phase::Flush;
            }
            Phase::Flush => {
                if let Some(batch) = seam.take() {
                    self.routed += self.accept(batch, core, homes, seam);
                    return Ok(false);
                }
                seam.arrive(std::mem::take(&mut self.routed), u64::MAX);
                self.phase = Phase::Flushed;
            }
            Phase::Flushed => {
                if seam.release()?.sum != 0 {
                    self.phase = Phase::Flush;
                } else {
                    seam.arrive(0, core.local_min().ticks());
                    self.phase = Phase::Minimum;
                }
            }
            Phase::Minimum => {
                let gvt = VTime::from(seam.release()?.min);
                self.gvt = gvt;
                let probe = &mut self.probe;
                let seen = core.commit(gvt, probe);
                let (states_held, pending) = (seen.held, seen.pending);
                probe.a.state_queue_high_water =
                    probe.a.state_queue_high_water.max(seen.held_before);
                let wall_ns = ctx.started.elapsed().as_nanos() as u64;
                probe.on(ProbeEvent::GvtAdvanced { gvt, states_held, pending, wall_ns });
                self.phase = Phase::Idle;
                return Ok(gvt.is_inf());
            }
        }
        Ok(false)
    }

    /// What decides this lane's future, for the model checker's state
    /// hash and equality (the idle patience only decides host timing).
    #[cfg(test)]
    pub fn key(&self) -> impl std::hash::Hash + Eq {
        (self.phase, self.gvt, self.batches_since_gvt, self.routed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CHECKPOINT_HEAP_BUDGET;
    use crate::event::{Event, EventId};
    use crate::phold::Phold;
    use crate::probe::NoProbe;
    use crate::sim::{Backend, Simulator};
    use crate::testkit::{round_robin, Heavy, Idle, Ring};

    fn reduce(rendezvous: &Rendezvous, add: u64, min: u64) -> Result<Reduced, Poisoned> {
        rendezvous.release(rendezvous.arrive(add, min))
    }

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
                        let got = reduce(rendezvous, g * (id + 1), 7 * g + (id + g) % parties);
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
            let waiter = scope.spawn(|| reduce(&rendezvous, 1, 1));
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
            let waiter = scope.spawn(|| reduce(&rendezvous, 1, 1));
            while rendezvous.arrived.load(SeqCst) == 0 {
                std::hint::spin_loop();
            }
            rendezvous.poison();
            assert!(waiter.join().unwrap().is_err());
        });
        // Late: the waiter arrives at a rendezvous already poisoned.
        let rendezvous = Rendezvous::new(2);
        rendezvous.poison();
        assert!(reduce(&rendezvous, 0, u64::MAX).is_err());
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

    /// A GVT round reports the checkpoints held after its commit, as on
    /// the platform. After the final commit at ∞ every LP keeps exactly
    /// one, so each cluster's ∞ round reports its resident LP count.
    #[test]
    fn final_round_reports_one_checkpoint_per_resident_lp() {
        #[derive(Default)]
        struct FinalHeld(Vec<u64>);
        impl Probe for FinalHeld {
            fn on(&mut self, event: ProbeEvent) {
                if let ProbeEvent::GvtAdvanced { gvt, states_held, .. } = event {
                    if gvt.is_inf() {
                        self.0.push(states_held);
                    }
                }
            }
            fn fork(&mut self) -> FinalHeld {
                FinalHeld::default()
            }
            fn join(&mut self, child: FinalHeld) {
                self.0.extend(child.0);
            }
        }

        let app = Ring { n: 8, hops: 30 };
        let assignment = [0, 0, 0, 0, 0, 1, 1, 1];
        let (res, held) = Simulator::new(&app)
            .probe(FinalHeld::default())
            .run_probed(Backend::Threaded { assignment: &assignment, clusters: 2 })
            .unwrap();
        assert_eq!(held.0, [5, 3], "one ∞ round per cluster, one checkpoint per LP");
        assert!(res.stats.state_queue_high_water >= 5, "the high water is taken before a commit");
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

    /// States that each pin the whole heap budget make a round due after
    /// every checkpoint: however the threads interleave, no cluster files
    /// two between commits, so the rounds outnumber the checkpoints per
    /// cluster — where the batch count alone (`gvt_period` 512) asks for
    /// none.
    #[test]
    fn threaded_checkpoint_heap_paces_gvt_rounds() {
        let ring = Ring { n: 12, hops: 20 };
        let seq = Simulator::new(&ring).run(Backend::Sequential).unwrap();
        let heavy = Heavy { ring, heap: CHECKPOINT_HEAP_BUDGET };
        for clusters in [2, 3] {
            let res = threaded(&heavy, &round_robin(12, clusters), clusters, &Default::default());
            assert_eq!(res.states, seq.states, "{clusters} clusters");
            assert_eq!(res.stats.events_committed, seq.stats.events_processed);
            let (rounds, saved) = (res.stats.gvt_rounds, res.stats.states_saved);
            assert!(saved <= clusters as u64 * rounds, "{saved} saves in {rounds} rounds");
        }
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

    /// A seam that hands out scripted batches and keeps what is posted;
    /// no peer ever asks for a GVT round.
    struct Script<M> {
        inbox: std::collections::VecDeque<TxBatch<M>>,
        posted: Vec<(usize, TxBatch<M>)>,
    }

    impl<M> Seam<M> for Script<M> {
        fn post(&mut self, dc: usize, batch: TxBatch<M>) {
            self.posted.push((dc, batch));
        }
        fn take(&mut self) -> Option<TxBatch<M>> {
            self.inbox.pop_front()
        }
        fn wait(&mut self, _: Duration) -> Option<TxBatch<M>> {
            self.take()
        }
        fn raise(&mut self) -> bool {
            false
        }
        fn raised(&self) -> bool {
            false
        }
        fn lower(&mut self) {}
        fn arrive(&mut self, _: u64, _: u64) {}
        fn release(&mut self) -> Result<Reduced, Poisoned> {
            unreachable!("a scripted lane never enters a GVT round")
        }
    }

    /// A received batch's buffer carries a later send: cluster 0 of a
    /// two-LP ring takes a batch holding one token, then executes its own
    /// token and the received one, each of which goes on to cluster 1.
    #[test]
    fn a_posted_batch_reuses_a_drained_batch() {
        let app = Ring { n: 2, hops: 3 };
        let cfg = KernelConfig::default();
        let mut probe = Tee::new(KernelStats::default(), NoProbe);
        let (mut cores, homes) = ClusterCore::partition(&app, &[0, 1], 2, cfg, &mut probe);
        let mut lane = Lane::new(0, 2, probe.fork());
        #[allow(clippy::disallowed_methods, reason = "the run's telemetry origin")]
        let ctx = RunCtx { homes: &homes, cfg: &cfg, started: Instant::now() };
        let token = Event {
            id: EventId { src: 1, seq: 100 },
            dst: 0,
            send_time: VTime::from(1),
            recv_time: VTime::from(5),
            msg: 2,
        };
        let mut batch = Vec::with_capacity(4);
        batch.push(Transmission::Positive(token));
        let drained = batch.as_ptr();
        let mut seam = Script { inbox: [batch].into(), posted: Vec::new() };
        for _ in 0..3 {
            assert!(!lane.step(&mut cores[0], &ctx, &mut seam).unwrap());
        }
        let posted: Vec<_> = seam.posted.iter().map(|(dc, b)| (*dc, b.len())).collect();
        assert_eq!(posted, [(1, 1), (1, 1)], "the ring's own token, then the received one");
        assert_eq!(seam.posted[1].1.as_ptr(), drained, "the second send reused the batch");
        assert_eq!(lane.probe.a.comm_batches, 2);
    }

    #[test]
    fn empty_application_terminates_quickly() {
        let res = threaded(&Idle, &round_robin(4, 2), 2, &KernelConfig::default());
        assert_eq!(res.stats.events_processed, 0);
    }
}
