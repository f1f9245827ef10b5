//! The threaded executive's own cluster loop under the explorer: real
//! [`ClusterCore`]s and [`Lane`]s running a small application, stepped one
//! [`Lane::step`] at a time over per-cluster FIFO queues and a scripted
//! barrier. A scheduler choice is the cluster that steps; a cluster
//! waiting on a rendezvous may step only once everyone has arrived, and
//! releases are held back and interleaved like any other step. Balancing
//! rounds end the epoch as on threads, and the scripted migrations run
//! through the real [`ClusterCore::evict`] and [`ClusterCore::adopt`].
//!
//! A state is the cores, the lanes, the routing table, the queues, the
//! request flag and the barrier, cloned from its parent. Its hash and
//! equality see what decides the future only: the LPs' queues and
//! states, each lane's phase, GVT and counters, and the barrier's
//! accumulators and who it has released — not the probes, the ready
//! heaps or the absolute generation, so rounds that change nothing close
//! a cycle instead of growing the space.

use std::cell::Cell;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use super::ProtocolModel;
use crate::app::Application;
use crate::config::KernelConfig;
use crate::core::{ClusterCore, Homes};
use crate::dynlb::{Balancer, DynLbConfig, Migration};
use crate::event::Transmission;
use crate::probe::{NoProbe, Tee};
use crate::sim::{Backend, Simulator};
use crate::stats::KernelStats;
use crate::testkit::{round_robin, splitmix64};
use crate::threaded::{Epoch, Lane, Phase, Poisoned, Reduced, Seam, TxBatch};
use crate::time::VTime;

/// The rendezvous, one generation at a time, released on the explorer's
/// schedule instead of when the last party arrives.
#[derive(Clone)]
pub(crate) struct Barrier {
    /// Generations completed.
    generation: u64,
    arrived: usize,
    sum: u64,
    min: u64,
    /// Result of the last completed generation.
    out: Reduced,
    /// Per party: the generation it arrived at last.
    waits: Vec<u64>,
    /// Flush rounds whose sum was not 0 — each is followed by another one.
    reflushes: u64,
}

impl Barrier {
    fn new(parties: usize) -> Barrier {
        let out = Reduced { sum: 0, min: u64::MAX };
        Barrier {
            generation: 0,
            arrived: 0,
            sum: 0,
            min: u64::MAX,
            out,
            waits: vec![0; parties],
            reflushes: 0,
        }
    }

    fn released(&self, cid: usize) -> bool {
        self.waits[cid] < self.generation
    }

    fn key(&self) -> impl Hash + Eq + '_ {
        let released: Vec<bool> = (0..self.waits.len()).map(|c| self.released(c)).collect();
        (self.arrived, self.sum, self.min, self.out, released)
    }
}

/// Cluster `cid`'s [`Seam`] onto a [`World`].
struct Port<'w, M> {
    cid: usize,
    queues: &'w mut [VecDeque<TxBatch<M>>],
    requested: &'w mut bool,
    barrier: &'w mut Barrier,
}

impl<M> Seam<M> for Port<'_, M> {
    fn post(&mut self, dc: usize, batch: TxBatch<M>) {
        self.queues[dc].push_back(batch);
    }

    fn take(&mut self) -> Option<TxBatch<M>> {
        self.queues[self.cid].pop_front()
    }

    /// A wait that times out is the schedule where nothing arrived first.
    fn wait(&mut self, _: Duration) -> Option<TxBatch<M>> {
        self.take()
    }

    fn raise(&mut self) -> bool {
        !std::mem::replace(self.requested, true)
    }

    fn raised(&self) -> bool {
        *self.requested
    }

    fn lower(&mut self) {
        *self.requested = false;
    }

    fn arrive(&mut self, add: u64, min: u64) {
        let b = &mut *self.barrier;
        b.waits[self.cid] = b.generation;
        b.sum += add;
        b.min = b.min.min(min);
        b.arrived += 1;
        if b.arrived == b.waits.len() {
            b.out = Reduced {
                sum: std::mem::take(&mut b.sum),
                min: std::mem::replace(&mut b.min, u64::MAX),
            };
            b.reflushes += u64::from(b.out.sum != 0);
            b.arrived = 0;
            b.generation += 1;
        }
    }

    fn release(&mut self) -> Result<Reduced, Poisoned> {
        assert!(self.barrier.released(self.cid), "cluster {} released early", self.cid);
        Ok(self.barrier.out)
    }
}

/// Everything the clusters of a run hold between two steps.
#[derive(Clone)]
pub(crate) struct World<'a, A: Application> {
    cores: Vec<ClusterCore<'a, A>>,
    lanes: Vec<Lane<A::Msg, NoProbe>>,
    homes: Homes,
    queues: Vec<VecDeque<TxBatch<A::Msg>>>,
    requested: bool,
    barrier: Barrier,
    /// Per cluster: left its loop for the epoch boundary.
    parked: Vec<bool>,
    /// Balancing rounds run.
    balances: u32,
}

/// What the explored space has been seen to contain: the most of each
/// that one schedule reached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Seen {
    pub rollbacks: u64,
    pub antis: u64,
    /// Flush rounds that needed another one (`F ≥ 2`).
    pub reflushes: u64,
}

/// A threaded run of `app` as a [`ProtocolModel`].
pub(crate) struct Threads<'a, A: Application> {
    app: &'a A,
    clusters: usize,
    cfg: KernelConfig,
    /// Ends an epoch at every balancing round.
    lb: Option<Balancer>,
    /// Scripted migrations: `(round, move)` runs at the `round`-th
    /// balancing round (from 1) if the LP is where the move says.
    pub plan: Vec<(u32, Migration)>,
    /// Bug hooks, see [`Lane::uncounted_antis`] and
    /// [`ClusterCore::keep_evicted`].
    pub uncounted_antis: bool,
    pub keep_evicted: bool,
    pub max_states: usize,
    oracle: Vec<A::State>,
    seen: Cell<Seen>,
    started: Instant,
}

impl<'a, A: Application + Clone> Threads<'a, A> {
    /// `app` on `clusters` clusters, LPs dealt round-robin; `balance`
    /// ends an epoch at every GVT round.
    pub fn new(app: &'a A, clusters: usize, cfg: KernelConfig, balance: bool) -> Self {
        let oracle = Simulator::new(app).run(Backend::Sequential).expect("the oracle runs").states;
        let lb =
            balance.then(|| Balancer::new(app, DynLbConfig { period: 1, ..Default::default() }));
        Threads {
            app,
            clusters,
            cfg,
            lb,
            plan: Vec::new(),
            uncounted_antis: false,
            keep_evicted: false,
            max_states: 2_000_000,
            oracle,
            seen: Cell::default(),
            #[allow(clippy::disallowed_methods, reason = "the telemetry origin the lanes need")]
            started: Instant::now(),
        }
    }

    pub fn seen(&self) -> Seen {
        self.seen.get()
    }

    fn world(&self) -> World<'a, A> {
        let assignment = round_robin(self.app.num_lps(), self.clusters);
        let (mut cores, homes) =
            ClusterCore::partition(self.app, &assignment, self.clusters, self.cfg, &mut NoProbe);
        for core in &mut cores {
            core.keep_evicted = self.keep_evicted;
        }
        let lanes = (0..self.clusters)
            .map(|cid| {
                let probe = Tee::new(KernelStats::default(), Tee::new(None, NoProbe));
                let mut lane = Lane::new(cid, self.clusters, probe);
                lane.uncounted_antis = self.uncounted_antis;
                lane
            })
            .collect();
        World {
            cores,
            lanes,
            homes,
            queues: vec![VecDeque::new(); self.clusters],
            requested: false,
            barrier: Barrier::new(self.clusters),
            parked: vec![false; self.clusters],
            balances: 0,
        }
    }

    fn can_step(&self, w: &World<'a, A>, cid: usize) -> bool {
        !w.parked[cid]
            && match w.lanes[cid].phase {
                Phase::Entered | Phase::Flushed | Phase::Minimum => w.barrier.released(cid),
                Phase::Idle | Phase::Run | Phase::Flush => true,
            }
    }

    /// Step cluster `cid`, then, if every cluster has left its loop at a
    /// balancing round, migrate as the threaded driver does between epochs.
    fn step(&self, w: &mut World<'a, A>, cid: usize) -> Result<(), String> {
        let World { cores, lanes, homes, queues, requested, barrier, parked, balances } = w;
        let epoch = Epoch { homes, cfg: &self.cfg, lb: self.lb.as_ref(), started: self.started };
        let mut port = Port { cid, queues, requested, barrier };
        let before = lanes[cid].gvt;
        let left = lanes[cid].step(&mut cores[cid], &epoch, &mut port).map_err(|_| "poisoned")?;
        let gvt = lanes[cid].gvt;
        if gvt < before {
            return Err(format!("GVT regressed: {gvt} after {before}"));
        }
        let seen = self.seen.get();
        let stats = lanes.iter().map(|l| &l.probe.a);
        self.seen.set(Seen {
            rollbacks: seen.rollbacks.max(stats.clone().map(KernelStats::rollbacks).sum()),
            antis: seen.antis.max(stats.map(|s| s.antis_sent).sum()),
            reflushes: seen.reflushes.max(barrier.reflushes),
        });
        parked[cid] = left;
        if !parked.iter().all(|&p| p) || gvt.is_inf() {
            return Ok(());
        }
        // Rounds past the plan's last are all alike.
        let last = self.plan.iter().map(|&(round, _)| round).max().unwrap_or(0);
        *balances = (*balances + 1).min(last + 1);
        for &(_, mv) in self.plan.iter().filter(|&&(round, _)| round == *balances) {
            if homes.part(mv.lp) == mv.from as usize {
                let mover = cores[mv.from as usize].evict(&mv, homes, gvt, &mut NoProbe);
                cores[mv.to as usize].adopt(mover, homes);
            }
        }
        parked.fill(false);
        Ok(())
    }
}

impl<'a, A: Application + Clone> Threads<'a, A>
where
    A::State: PartialEq,
{
    /// Safety invariants of `w`, or the first violation.
    fn violation(&self, w: &World<'a, A>) -> Option<String> {
        // Every LP lives on exactly one cluster.
        let mut owners = vec![0; self.app.num_lps()];
        for lp in w.cores.iter().flat_map(|c| c.lps()) {
            owners[lp.id() as usize] += 1;
        }
        if let Some((lp, n)) = owners.iter().enumerate().find(|&(_, &n)| n != 1) {
            return Some(format!("LP {lp} owned by {n} cluster(s) — must be exactly one"));
        }
        // No transmission duplicated: every positive event id is queued at
        // one LP or in flight on one channel, once.
        let in_flight = w.queues.iter().flatten().flatten().filter_map(|tx| match tx {
            Transmission::Positive(ev) => Some(ev.id),
            Transmission::Anti(_) => None,
        });
        let resident = w.cores.iter().flat_map(|c| c.lps()).flat_map(|lp| lp.resident());
        let mut ids: Vec<_> = in_flight.chain(resident).collect();
        ids.sort_unstable();
        if let Some(pair) = ids.windows(2).find(|p| p[0] == p[1]) {
            return Some(format!("transmission {:?} found twice — duplicated", pair[0]));
        }
        // None lost: an output its sender has neither cancelled nor
        // committed is queued or in flight, unless the receiver's cluster
        // has already committed it.
        for lp in w.cores.iter().flat_map(|c| c.lps()) {
            for ev in lp.outputs() {
                let committed_below = w.lanes[w.homes.part(ev.dst)].gvt;
                if ev.recv_time >= committed_below && ids.binary_search(&ev.id).is_err() {
                    return Some(format!(
                        "transmission {:?} to LP {} at t={} lost: neither queued nor in flight",
                        ev.id, ev.dst, ev.recv_time
                    ));
                }
            }
        }
        // The flush postcondition: when the minima are agreed, nothing is
        // in flight.
        if w.lanes.iter().all(|l| l.phase == Phase::Minimum) {
            if let Some((cid, batch)) =
                w.queues.iter().enumerate().find_map(|(c, q)| Some((c, q.front()?)))
            {
                let what = batch.first().map_or("an empty batch".to_string(), |tx| {
                    let kind = if tx.is_positive() { "message" } else { "anti-message" };
                    format!("{kind} {}.{} (t={})", tx.id().src, tx.id().seq, tx.recv_time())
                });
                let gvt = VTime::from(w.barrier.out.min);
                return Some(format!(
                    "flush postcondition violated: {what} still in cluster {cid}'s channel at GVT agreement ({gvt}) — flush exited early"
                ));
            }
        }
        if self.terminated(w) {
            if w.queues.iter().any(|q| !q.is_empty()) {
                return Some("terminated with a non-empty channel".into());
            }
            if ClusterCore::finish(w.cores.clone()) != self.oracle {
                return Some(
                    "terminal state committed a history the sequential oracle did not".into(),
                );
            }
        }
        None
    }

    fn terminated(&self, w: &World<'a, A>) -> bool {
        w.parked.iter().all(|&p| p) && w.lanes[0].gvt.is_inf()
    }

    /// One schedule chosen by `seed`, every invariant checked as each
    /// cluster leaves a flush round and a GVT round (the flush
    /// postcondition as the last one arrives at the minima); panics on a
    /// violation or a deadlock.
    pub fn walk(&self, seed: u64) {
        let (mut rng, mut w) = (seed, self.world());
        let mut enabled = Vec::new();
        for step in 0u32.. {
            assert!(step < 10_000_000, "seed {seed}: no termination");
            enabled.clear();
            enabled.extend((0..self.clusters).filter(|&c| self.can_step(&w, c)));
            if enabled.is_empty() {
                assert!(self.terminated(&w), "seed {seed}: deadlock at step {step}");
                assert_eq!(self.violation(&w), None, "seed {seed} at the end");
                return;
            }
            let cid = enabled[(splitmix64(&mut rng) % enabled.len() as u64) as usize];
            let phase = w.lanes[cid].phase;
            self.step(&mut w, cid).unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
            if phase == w.lanes[cid].phase || !matches!(phase, Phase::Flushed | Phase::Minimum) {
                continue;
            }
            if let Some(v) = self.violation(&w) {
                panic!("seed {seed} step {step}: {v}");
            }
        }
    }
}

impl<A: Application> World<'_, A>
where
    A::State: Hash + Eq,
    A::Msg: Hash + Eq,
{
    fn key(&self) -> impl Hash + Eq + '_ {
        let cores: Vec<Vec<_>> =
            self.cores.iter().map(|c| c.lps().iter().map(|l| l.key()).collect()).collect();
        let lanes: Vec<_> = self.lanes.iter().map(Lane::key).collect();
        let flow = (&self.queues, self.requested, self.barrier.key());
        (cores, lanes, self.homes.parts(), flow, &self.parked, self.balances)
    }
}

impl<A: Application> Hash for World<'_, A>
where
    A::State: Hash + Eq,
    A::Msg: Hash + Eq,
{
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.key().hash(h);
    }
}

impl<A: Application> PartialEq for World<'_, A>
where
    A::State: Hash + Eq,
    A::Msg: Hash + Eq,
{
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<A: Application> Eq for World<'_, A>
where
    A::State: Hash + Eq,
    A::Msg: Hash + Eq,
{
}

impl<'a, A: Application + Clone> ProtocolModel for Threads<'a, A>
where
    A::State: Hash + Eq,
    A::Msg: Hash + Eq,
{
    type State = World<'a, A>;
    /// The cluster that steps.
    type Step = usize;

    fn initial(&self) -> World<'a, A> {
        self.world()
    }

    fn enabled(&self, w: &World<'a, A>, out: &mut Vec<usize>) {
        out.extend((0..self.clusters).filter(|&c| self.can_step(w, c)));
    }

    fn apply(&self, w: &mut World<'a, A>, cid: usize) -> Result<String, String> {
        let label = format!("c{cid}:{:?}", w.lanes[cid].phase);
        self.step(w, cid)?;
        Ok(label)
    }

    fn check_invariants(&self, w: &World<'a, A>) -> Option<String> {
        self.violation(w)
    }

    fn terminated(&self, w: &World<'a, A>) -> bool {
        Threads::terminated(self, w)
    }

    fn max_states(&self) -> usize {
        self.max_states
    }

    fn max_depth(&self) -> usize {
        100_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LpId;
    use crate::modelcheck::{explore, explore_with, CheckReport, ExploreOptions};
    use crate::phold::Phold;
    use crate::testkit::Ring;

    /// The four numbers that identify an explored state space.
    fn shape(r: &CheckReport) -> (u64, u64, u64, usize) {
        (r.states, r.transitions, r.terminals, r.peak_frontier)
    }

    /// A GVT round after every second batch: rounds, flushes and
    /// execution interleave densely.
    fn cfg() -> KernelConfig {
        KernelConfig { gvt_period: 2, ..Default::default() }
    }

    /// Two LPs passing five hops: LP 0's first send lands on LP 1 at the
    /// time of LP 1's own first event, so a cluster that runs ahead rolls
    /// back and cancels.
    const RING: Ring = Ring { n: 2, hops: 5 };

    /// 2 clusters, LP 0 migrated away at the first balancing round and
    /// back at the second.
    fn two_by_two(app: &Ring) -> Threads<'_, Ring> {
        let mut model = Threads::new(app, 2, cfg(), true);
        model.plan = vec![
            (1, Migration { lp: 0, from: 0, to: 1 }),
            (2, Migration { lp: 0, from: 1, to: 0 }),
        ];
        model
    }

    /// Explore `model` and demand a complete, clean space that holds a
    /// rollback, an anti-message and a flush that needed a second round.
    fn explore_clean(model: &Threads<'_, Ring>) -> CheckReport {
        let report = explore(model);
        assert!(report.passed(), "violation: {:?}", report.violation);
        let seen = model.seen();
        assert!(seen.rollbacks > 0 && seen.antis > 0 && seen.reflushes > 0, "{seen:?}");
        report
    }

    #[test]
    fn threaded_2_clusters_2_lps_gvt_and_migration_explore_clean() {
        let report = explore_clean(&two_by_two(&RING));
        assert_eq!(shape(&report), (9_668, 14_023, 7, 64));
    }

    /// One cluster always empty: it must still take part in every round.
    #[test]
    fn threaded_3_clusters_2_lps_gvt_and_migration_explore_clean() {
        let mut model = Threads::new(&RING, 3, cfg(), true);
        model.plan = vec![(1, Migration { lp: 0, from: 0, to: 2 })];
        let report = explore_clean(&model);
        assert_eq!(shape(&report), (34_737, 67_918, 7, 274));
    }

    /// A longer chain with migration off: more GVT rounds, deeper
    /// rollback and cancellation.
    #[test]
    fn threaded_2_clusters_2_lps_longer_chain_gvt_only_explore_clean() {
        let app = Ring { n: 2, hops: 7 };
        let report = explore_clean(&Threads::new(&app, 2, cfg(), false));
        assert_eq!(shape(&report), (8_951, 13_881, 7, 110));
    }

    /// Bug shape 1: a flush round that does not count the anti-messages it
    /// routed declares quiescence with one still in flight.
    #[test]
    fn threaded_explorer_detects_uncounted_flush_antis() {
        let flush_bug =
            "flush postcondition violated: anti-message 0.2 (t=10) still in cluster 1's \
                         channel at GVT agreement (2) — flush exited early";
        let mut model = two_by_two(&RING);
        model.uncounted_antis = true;
        let report = explore(&model);
        let cx = report.violation.expect("the uncounted antis must be detected");
        assert!(!cx.trace.is_empty(), "a counterexample carries its schedule");
        assert_eq!((report.states, cx.message.as_str()), (4_976, flush_bug));
        // Without migration too: the postcondition is checked directly.
        let mut model = Threads::new(&RING, 2, cfg(), false);
        model.uncounted_antis = true;
        let report = explore(&model);
        let cx = report.violation.expect("detected without migration");
        assert_eq!((report.states, cx.message.as_str()), (4_276, flush_bug));
    }

    /// Bug shape 2: the migration step adopts the LP at its destination
    /// without evicting it from its source.
    #[test]
    fn threaded_explorer_detects_adoption_without_eviction() {
        let mut model = two_by_two(&RING);
        model.keep_evicted = true;
        let report = explore(&model);
        let cx = report.violation.expect("the double owner must be detected");
        assert_eq!(report.states, 13);
        assert_eq!(cx.message, "LP 0 owned by 2 cluster(s) — must be exactly one");
    }

    /// Exploration is deterministic: two runs agree on the whole report,
    /// counterexample schedule included.
    #[test]
    fn threaded_exploration_is_deterministic() {
        let model = two_by_two(&RING);
        assert_eq!(explore(&model), explore(&model));
        let mut model = two_by_two(&RING);
        model.uncounted_antis = true;
        let (a, b) = (explore(&model), explore(&model));
        assert!(a.violation.is_some());
        assert_eq!(a, b, "counterexample traces must match step for step");
    }

    /// A state bound is reported as an incomplete run, never as a pass.
    #[test]
    fn threaded_state_bound_reports_incomplete() {
        let mut model = two_by_two(&RING);
        model.max_states = 100;
        let report = explore(&model);
        assert!(!report.complete && !report.passed());
    }

    /// The hash-compaction collision guard: with full states retained the
    /// same traversal finds no 64-bit collision, expands one state per
    /// stored hash and reports exactly what the compact run reports.
    #[test]
    fn threaded_hash_pruning_has_no_silent_collisions() {
        let model = two_by_two(&RING);
        let compact = explore(&model);
        let verified = explore_with(&model, ExploreOptions { verify_hashes: true });
        assert_eq!(verified.hash_collisions, 0, "64-bit state hash collided");
        assert_eq!(verified.states_hashed, verified.states_expanded);
        assert_eq!(compact, verified, "verification must not change the traversal");
    }

    /// Seeded schedules through the same step function at sizes the
    /// explorer cannot enumerate: 3 clusters, 12 LPs, a GVT period from 1
    /// to 8 and, on even seeds, a balancing round after every GVT round
    /// that moves one LP on to the next cluster. Every state is checked
    /// and every run must commit the sequential history.
    fn walks<A: Application + Clone>(app: &A) -> Seen
    where
        A::State: PartialEq,
    {
        let mut seen = Seen::default();
        for seed in 0..200u32 {
            let cfg = KernelConfig { gvt_period: 1 + u64::from(seed % 8), ..Default::default() };
            let mut model = Threads::new(app, 3, cfg, seed % 2 == 0);
            let nomad: LpId = seed % 12;
            let hop =
                |r: u32| Migration { lp: nomad, from: (nomad + r - 1) % 3, to: (nomad + r) % 3 };
            model.plan = (1..=64).map(|r| (r, hop(r))).collect();
            model.walk(u64::from(seed));
            let s = model.seen();
            seen.rollbacks += s.rollbacks;
            seen.antis += s.antis;
            seen.reflushes += s.reflushes;
        }
        seen
    }

    #[test]
    fn random_walks_of_the_cluster_step_commit_the_sequential_history() {
        for seen in [
            walks(&Ring { n: 12, hops: 40 }),
            walks(&Phold { lps: 12, horizon: 120, ..Default::default() }),
        ] {
            assert!(seen.rollbacks > 0 && seen.antis > 0 && seen.reflushes > 0, "{seen:?}");
        }
    }
}
