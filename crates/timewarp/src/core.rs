//! One WARPED *cluster*: a group of LPs with one scheduler, one router and
//! one GVT commit step. Both optimistic executives are drivers over this
//! type — [`crate::platform`] owns a `Vec<ClusterCore>` plus modeled
//! clocks and a wire, [`crate::threaded`] one `ClusterCore` per thread
//! plus channels and a rendezvous — so every protocol step exists once.
//!
//! The core decides *what* happens (which LP runs, which hop is local,
//! what a commit frees); the driver decides *when*, what it costs and how
//! remote hops travel. Statistics, the probe and the routing table
//! ([`Homes`]) are borrowed per call: the platform threads one of each
//! through all of its cores, each threaded cluster its own.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::app::Application;
use crate::config::KernelConfig;
use crate::dynlb::{Migration, WindowStats};
use crate::event::{Event, LpId, Transmission};
use crate::lp::{LpRuntime, Scratch};
use crate::probe::Probe;
use crate::stats::{KernelStats, LpCounters};
use crate::time::VTime;

/// The routing table: the cluster every LP lives on and its slot in that
/// cluster's LP vector. Only [`ClusterCore::partition`],
/// [`ClusterCore::evict`] and [`ClusterCore::adopt`] write it, so "where
/// do messages for this LP go" and "who holds it" cannot disagree. The
/// platform has one table for all of its cores; each threaded cluster has
/// a copy, kept identical by applying the same plan inside the GVT
/// round.
#[derive(Clone)]
pub(crate) struct Homes {
    part: Vec<u32>,
    /// Read only by the cluster `part` names (so a threaded cluster's copy
    /// need only be right about its own residents).
    slot: Vec<u32>,
}

impl Homes {
    /// The LP → cluster map, in the shape a balancer takes it.
    pub fn parts(&self) -> &[u32] {
        &self.part
    }

    /// The cluster LP `lp` lives on.
    pub fn part(&self, lp: LpId) -> usize {
        self.part[lp as usize] as usize
    }
}

/// What [`ClusterCore::route_next`] did with one outbox entry.
pub(crate) enum Hop<M> {
    /// Delivered to an LP of this cluster; by-products of the delivery are
    /// back on the outbox.
    Local,
    /// Addressed to another cluster: counted, and now the driver's to
    /// carry.
    Remote(Transmission<M>),
}

/// A migrating LP between [`ClusterCore::evict`] and
/// [`ClusterCore::adopt`].
pub(crate) struct Mover<A: Application> {
    lp: LpRuntime<A>,
    /// Messages the closure serializes as on a modeled wire: one for the
    /// live state, one per checkpoint, one per pending event.
    pub units: u64,
}

/// A cluster's queue totals around one [`ClusterCore::commit`].
pub(crate) struct Committed {
    /// Checkpoints held going in: the cluster's memory peak for the round.
    pub held_before: u64,
    /// Checkpoints that survive.
    pub held: u64,
    /// Events still unprocessed.
    pub pending: u64,
}

/// Write bit `i` of a bitset of `u64` words.
fn put_bit(words: &mut [u64], i: usize, on: bool) {
    let mask = 1 << (i % 64);
    if on {
        words[i / 64] |= mask;
    } else {
        words[i / 64] &= !mask;
    }
}

/// The indices of the set bits of `bits`, word `word` of a bitset, in
/// ascending order.
fn ones(word: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let i = word * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            i
        })
    })
}

/// The LPs of one cluster and the protocol steps over them.
pub(crate) struct ClusterCore<'a, A: Application> {
    app: &'a A,
    /// This cluster's value in [`Homes::parts`].
    id: u32,
    /// Resident LPs, dense; [`Homes`] holds each one's index.
    lps: Vec<LpRuntime<A>>,
    /// Lazy min-heap over `(next_time, lp, slot)`: an entry is pushed
    /// whenever an LP's next time changes and validated when it reaches
    /// the top. It is stale if the LP's time has changed *or* the LP no
    /// longer sits in that slot (it migrated away, or moved down to fill a
    /// gap).
    ready: BinaryHeap<Reverse<(VTime, LpId, u32)>>,
    /// Per slot: the time of the entry last pushed for the LP there, if
    /// that entry is still in the heap (`INF`: no such entry). Most
    /// deliveries leave an LP's next time where it was, and then the heap
    /// already holds the entry [`Self::reschedule`] would push.
    queued: Vec<VTime>,
    /// Transmissions produced by the last step, consumed LIFO by
    /// [`Self::route_next`].
    outbox: Vec<Transmission<A::Msg>>,
    /// Remote traffic of the current balancing window, one unordered LP
    /// pair per message; kept only when a balancer will ask. Aggregated
    /// when the window closes: the push sits on the hot send path, so it
    /// must not pay a map lookup per message.
    comm_log: Option<Vec<(LpId, LpId)>>,
    /// Call buffers and the checkpoint free list, shared by every resident
    /// LP.
    scratch: Scratch<A>,
    /// Bitset over slots: set while the LP there may hold history (see
    /// [`LpRuntime::has_history`]), so that [`Self::commit`] visits those
    /// and no others. Only executing a batch creates history; a commit
    /// that leaves none clears the bit.
    history: Vec<u64>,
    /// Checkpoints held by the resident LPs, kept current by
    /// [`Self::settle`] around every step that can change an LP's queues.
    held: u64,
    /// Unprocessed events queued at the resident LPs, kept likewise.
    pending: u64,
}

impl<'a, A: Application> ClusterCore<'a, A> {
    /// Build every LP of `app`, deal them to `parts` clusters by
    /// `assignment` and deliver their init events — directly: start-up
    /// traffic is neither routed nor counted (the paper's framework
    /// partitions after elaboration; set-up cost is not measured).
    pub fn partition<P: Probe>(
        app: &'a A,
        assignment: &[u32],
        parts: usize,
        cfg: KernelConfig,
        track_windows: bool,
        stats: &mut KernelStats,
        probe: &mut P,
    ) -> (Vec<Self>, Homes) {
        let mut cores: Vec<Self> = (0..parts as u32)
            .map(|id| ClusterCore {
                app,
                id,
                // Sized up front: an `LpRuntime` is large, and growing the
                // vector by doubling strands a measurable share of the heap.
                lps: Vec::with_capacity(assignment.iter().filter(|&&p| p == id).count()),
                ready: BinaryHeap::new(),
                queued: Vec::new(),
                outbox: Vec::new(),
                comm_log: track_windows.then(Vec::new),
                scratch: Scratch::default(),
                history: Vec::new(),
                held: 0,
                pending: 0,
            })
            .collect();
        let mut homes = Homes { part: assignment.to_vec(), slot: vec![0; assignment.len()] };
        // Cluster by cluster (the sort is stable: id order within each), so
        // what an LP allocates lies next to its cluster mates' — `commit`
        // and every other whole-cluster pass then walk memory in order.
        let mut order: Vec<LpId> = (0..assignment.len() as LpId).collect();
        order.sort_by_key(|&lp| assignment[lp as usize]);
        let mut init = Vec::new();
        for lp in order {
            let part = assignment[lp as usize] as usize;
            cores[part].insert(LpRuntime::new(app, lp, cfg, &mut init), &mut homes);
        }
        // Delivered in LP id order of the sender, whatever the build order.
        init.sort_by_key(|ev| ev.id.src);
        for ev in init {
            cores[homes.part(ev.dst)].receive(Transmission::Positive(ev), &homes, stats, probe);
        }
        (cores, homes)
    }

    /// Collect the committed states and per-LP counters of a finished run,
    /// in LP id order (the inverse of [`Self::partition`]).
    pub fn finish(cores: Vec<Self>) -> (Vec<A::State>, Vec<LpCounters>) {
        let n = cores.iter().map(|c| c.lps.len()).sum();
        let mut states: Vec<Option<A::State>> = (0..n).map(|_| None).collect();
        let mut lp_stats = vec![LpCounters::default(); n];
        for lp in cores.into_iter().flat_map(|c| c.lps) {
            debug_assert_eq!(lp.pending_cancel_len(), 0, "LP {} parked with unsent antis", lp.id());
            debug_assert_eq!(lp.orphan_antis_len(), 0, "LP {} has orphan antis", lp.id());
            debug_assert_eq!(lp.pending_len(), 0, "LP {} has unprocessed events", lp.id());
            let id = lp.id() as usize;
            lp_stats[id] = lp.own_stats();
            states[id] = Some(lp.into_state());
        }
        let states = states.into_iter().map(|s| s.expect("every LP lives on exactly one cluster"));
        (states.collect(), lp_stats)
    }

    fn insert(&mut self, lp: LpRuntime<A>, homes: &mut Homes) {
        debug_assert_eq!(homes.part[lp.id() as usize], self.id);
        let slot = self.lps.len();
        homes.slot[lp.id() as usize] = slot as u32;
        self.history.resize((slot + 1).div_ceil(64), 0);
        self.queued.push(VTime::INF);
        put_bit(&mut self.history, slot, lp.has_history());
        self.lps.push(lp);
        self.settle(slot, (0, 0));
    }

    fn reschedule(&mut self, slot: usize) {
        let lp = &self.lps[slot];
        let t = lp.next_time();
        if !t.is_inf() && self.queued[slot] != t {
            self.queued[slot] = t;
            self.ready.push(Reverse((t, lp.id(), slot as u32)));
        }
    }

    /// Pop the top of the ready heap; its slot's memo must stop vouching
    /// for it. (A slot whose LP has changed since may lose a memo that was
    /// not about this entry: that costs one duplicate push, never a missed
    /// one.)
    fn pop_ready(&mut self) -> Option<(VTime, LpId, u32)> {
        let Reverse(top) = self.ready.pop()?;
        if let Some(queued) = self.queued.get_mut(top.2 as usize) {
            if *queued == top.0 {
                *queued = VTime::INF;
            }
        }
        Some(top)
    }

    /// Bring the queue totals and the ready heap up to date after a step
    /// on the LP in `slot`, whose [`LpRuntime::queue_lens`] were `before`.
    fn settle(&mut self, slot: usize, (held, pending): (u64, u64)) {
        let (held_now, pending_now) = self.lps[slot].queue_lens();
        self.held = self.held + held_now - held;
        self.pending = self.pending + pending_now - pending;
        self.reschedule(slot);
    }

    /// Panic unless `held`, `pending` and the history bitset equal a count
    /// from scratch over the resident LPs. The bitset is exact right after
    /// a commit or a migration; between commits a rollback can undo all of
    /// an LP's history and leave its bit set.
    fn assert_tallies(&self) {
        let mut history = vec![0u64; self.lps.len().div_ceil(64)];
        let (mut held, mut pending) = (0, 0);
        for (slot, lp) in self.lps.iter().enumerate() {
            let (lp_held, lp_pending) = lp.queue_lens();
            held += lp_held;
            pending += lp_pending;
            put_bit(&mut history, slot, lp.has_history());
        }
        assert_eq!((self.held, self.pending), (held, pending), "cluster {}: queue totals", self.id);
        assert_eq!(self.history, history, "cluster {}: history bitset", self.id);
    }

    fn deliver<P: Probe>(
        &mut self,
        slot: usize,
        tx: Transmission<A::Msg>,
        stats: &mut KernelStats,
        probe: &mut P,
    ) {
        let before = self.lps[slot].queue_lens();
        self.lps[slot].receive(self.app, tx, stats, &mut self.outbox, &mut self.scratch, probe);
        self.settle(slot, before);
    }

    /// Deliver a transmission that arrived from outside the cluster.
    /// Rollback by-products land on the outbox: follow with
    /// [`Self::route_next`] until it runs dry.
    // detlint: phase(compute|flush)
    pub fn receive<P: Probe>(
        &mut self,
        tx: Transmission<A::Msg>,
        homes: &Homes,
        stats: &mut KernelStats,
        probe: &mut P,
    ) {
        let dst = tx.dst() as usize;
        assert_eq!(homes.part[dst], self.id, "transmission for LP {dst} at the wrong cluster");
        self.deliver(homes.slot[dst] as usize, tx, stats, probe);
    }

    /// Whether a ready-heap entry still describes the LP in its slot.
    fn is_current(&self, (t, lp, slot): (VTime, LpId, u32)) -> bool {
        self.lps.get(slot as usize).is_some_and(|l| l.id() == lp && l.next_time() == t)
    }

    /// Virtual time of the lowest-timestamp runnable batch (ties → lowest
    /// LP id), or `None` when every resident LP is idle.
    pub fn next_ready(&mut self) -> Option<VTime> {
        while let Some(&Reverse(top)) = self.ready.peek() {
            if self.is_current(top) {
                return Some(top.0);
            }
            self.pop_ready();
        }
        None
    }

    /// Execute the lowest-timestamp runnable batch — the one
    /// [`Self::next_ready`] reports; panics if there is none. Its sends
    /// land on the outbox: follow with [`Self::route_next`] until it runs
    /// dry. (Not plain `execute`: detlint resolves method calls by name,
    /// and would link every `Application::execute` body to this one.)
    // detlint: phase(compute)
    pub fn execute_ready<P: Probe>(&mut self, stats: &mut KernelStats, probe: &mut P) {
        self.next_ready().expect("execute_ready needs a runnable LP");
        let (_, _, slot) = self.pop_ready().expect("next_ready left a current entry");
        let slot = slot as usize;
        let before = self.lps[slot].queue_lens();
        self.lps[slot].execute_next(self.app, stats, &mut self.outbox, &mut self.scratch, probe);
        put_bit(&mut self.history, slot, true);
        self.settle(slot, before);
    }

    /// Take the next transmission off the outbox (LIFO). A local one is
    /// delivered on the spot — a secondary rollback it triggers cascades
    /// through the same outbox; a remote one is counted and handed to the
    /// driver. `None` once the outbox is empty.
    // detlint: phase(compute|flush)
    pub fn route_next<P: Probe>(
        &mut self,
        homes: &Homes,
        stats: &mut KernelStats,
        probe: &mut P,
    ) -> Option<Hop<A::Msg>> {
        let tx = self.outbox.pop()?;
        let dst = tx.dst() as usize;
        if homes.part[dst] == self.id {
            self.deliver(homes.slot[dst] as usize, tx, stats, probe);
            return Some(Hop::Local);
        }
        if tx.is_positive() {
            stats.app_messages += 1;
            if let Some(log) = self.comm_log.as_mut() {
                let (src, dst) = (tx.id().src, tx.dst());
                log.push((src.min(dst), src.max(dst)));
            }
        } else {
            stats.anti_messages_remote += 1;
        }
        probe.remote_message(tx.is_positive(), tx.recv_time());
        Some(Hop::Remote(tx))
    }

    /// This cluster's contribution to the GVT estimate: its earliest
    /// unprocessed event — the ready heap's current top — and the earliest
    /// receive time a held lazy cancellation could still affect. Only an LP
    /// with history can hold one, so the cost follows those LPs, not the
    /// cluster. Transmissions in the driver's hands are the driver's to
    /// account for.
    pub fn local_min(&mut self) -> VTime {
        let mut min = self.next_ready().unwrap_or(VTime::INF);
        for (word, &bits) in self.history.iter().enumerate() {
            for slot in ones(word, bits) {
                min = min.min(self.lps[slot].pending_cancel_min());
            }
        }
        min
    }

    /// [`Self::local_min`] the long way: ask every resident.
    #[cfg(test)]
    fn local_min_by_walk(&self) -> VTime {
        self.lps.iter().map(|lp| lp.local_min()).min().unwrap_or(VTime::INF)
    }

    /// Commit everything below `gvt` on every resident LP that has
    /// something to commit, in slot order: the cost is proportional to the
    /// LPs with history, not to the cluster.
    // detlint: phase(fossil)
    pub fn commit<P: Probe>(
        &mut self,
        gvt: VTime,
        stats: &mut KernelStats,
        probe: &mut P,
    ) -> Committed {
        let held_before = self.held;
        for word in 0..self.history.len() {
            for slot in ones(word, self.history[word]) {
                let lp = &mut self.lps[slot];
                let before = lp.state_queue_len();
                lp.fossil_collect(gvt, stats, &mut self.scratch, probe);
                self.held -= (before - lp.state_queue_len()) as u64;
                put_bit(&mut self.history, slot, lp.has_history());
            }
        }
        self.scratch.trim();
        if cfg!(debug_assertions) {
            self.assert_tallies();
        }
        Committed { held_before, held: self.held, pending: self.pending }
    }

    /// Close the balancing window: write each resident LP's activity
    /// since the last call into its slot of `window` and add this
    /// cluster's remote traffic to `window.comm`.
    pub fn window_slice(&mut self, window: &mut WindowStats) {
        for lp in &mut self.lps {
            window.lps[lp.id() as usize] = lp.take_window();
        }
        let log = self.comm_log.as_mut().expect("window tracking was requested at partition");
        for pair in log.drain(..) {
            *window.comm.entry(pair).or_insert(0) += 1;
        }
    }

    /// Apply migration `mv` to `homes` and, if this is the cluster the LP
    /// leaves, detach it for the driver to carry to `mv.to` (`None` on a
    /// bystander — a threaded cluster updating its own copy of the table).
    /// Only sound at a GVT commit point, right after [`Self::commit`],
    /// when the LP is a compact closure (see the `dynlb` module docs).
    // detlint: phase(migrate)
    pub fn evict<P: Probe>(
        &mut self,
        mv: &Migration,
        homes: &mut Homes,
        gvt: VTime,
        stats: &mut KernelStats,
        probe: &mut P,
    ) -> Option<Mover<A>> {
        let from = std::mem::replace(&mut homes.part[mv.lp as usize], mv.to);
        assert_eq!(from, mv.from, "migrating LP {} is not where the plan says", mv.lp);
        if from != self.id {
            return None;
        }
        let slot = homes.slot[mv.lp as usize] as usize;
        let lp = self.lps.swap_remove(slot);
        // Drop the last slot's history bit; if an LP sat there (any but the
        // one leaving), it has filled the gap and takes over that slot's.
        let last = self.lps.len();
        put_bit(&mut self.history, last, false);
        self.history.truncate(last.div_ceil(64));
        self.queued.truncate(last);
        if let Some(moved) = self.lps.get(slot) {
            put_bit(&mut self.history, slot, moved.has_history());
            // Its heap entries name the old slot.
            homes.slot[moved.id() as usize] = slot as u32;
            self.queued[slot] = VTime::INF;
            self.reschedule(slot);
        }
        let (held, pending) = lp.queue_lens();
        self.held -= held;
        self.pending -= pending;
        let bytes = pending * std::mem::size_of::<Event<A::Msg>>() as u64
            + (held + 1) * std::mem::size_of::<A::State>() as u64;
        stats.migrations += 1;
        stats.migrated_state_bytes += bytes;
        probe.lp_migrated(mv.lp, mv.from, mv.to, gvt, bytes);
        Some(Mover { lp, units: 1 + pending + held })
    }

    /// Take over an LP evicted elsewhere and schedule it.
    // detlint: phase(migrate)
    pub fn adopt(&mut self, mover: Mover<A>, homes: &mut Homes) {
        self.insert(mover.lp, homes);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, VecDeque};

    use super::*;
    use crate::config::Cancellation;
    use crate::phold::Phold;
    use crate::probe::NoProbe;
    use crate::sim::{Backend, Simulator};
    use crate::testkit::{round_robin, Ring};

    fn splitmix64(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Drive `parts` real cores in one thread under a seeded adversarial
    /// scheduler. Remote hops wait in one FIFO mailbox per *sending* core
    /// and resolve their destination when delivered, so a message may land
    /// arbitrarily late, behind traffic from other cores, and after its
    /// target LP has moved. Returns the committed states, the statistics
    /// and how often the nomad LP was adopted by a core whose ready heap
    /// still held entries from its previous stay.
    fn run_interleaved<A: Application>(
        app: &A,
        parts: usize,
        seed: u64,
    ) -> (Vec<A::State>, KernelStats, u32) {
        let mut rng = seed;
        let n = app.num_lps();
        let cfg = KernelConfig {
            cancellation: if seed.is_multiple_of(2) {
                Cancellation::Aggressive
            } else {
                Cancellation::Lazy
            },
            checkpoint_interval: 1 + (seed / 2 % 3) as u32,
            ..KernelConfig::default()
        };
        let (mut stats, mut probe) = (KernelStats::default(), NoProbe);
        let placement = round_robin(n, parts);
        let (mut cores, mut homes) =
            ClusterCore::partition(app, &placement, parts, cfg, true, &mut stats, &mut probe);
        let mut mail: Vec<VecDeque<Transmission<A::Msg>>> = vec![VecDeque::new(); parts];
        let nomad = (seed % n as u64) as LpId;
        let mut stale_homecomings = 0;
        // What the balancing windows must report: the remote messages this
        // driver was handed since the last one, per unordered LP pair, and
        // — summed over all windows — each LP's final counters.
        let mut sent = BTreeMap::new();
        let mut windowed = vec![LpCounters::default(); n];

        for step in 0u32.. {
            assert!(step < 1_000_000, "seed {seed}: optimism outran delivery (livelock)");
            for core in &mut cores {
                assert_eq!(core.local_min(), core.local_min_by_walk(), "seed {seed} step {step}");
            }
            // One choice per runnable core plus one per queued transmission
            // (which pops the head of its mailbox): the deeper the mail,
            // the likelier a delivery, so optimism cannot outrun the wire
            // forever.
            let runnable: Vec<usize> =
                (0..parts).filter(|&c| cores[c].next_ready().is_some()).collect();
            let queued: usize = mail.iter().map(|m| m.len()).sum();
            if runnable.len() + queued > 0 {
                let pick = (splitmix64(&mut rng) % (runnable.len() + queued) as u64) as usize;
                let active = if let Some(&c) = runnable.get(pick) {
                    cores[c].execute_ready(&mut stats, &mut probe);
                    c
                } else {
                    let mut nth = pick - runnable.len();
                    let from = mail.iter().position(|m| {
                        let here = nth < m.len();
                        nth = nth.saturating_sub(m.len());
                        here
                    });
                    let tx = mail[from.unwrap()].pop_front().unwrap();
                    let c = homes.part(tx.dst());
                    cores[c].receive(tx, &homes, &mut stats, &mut probe);
                    c
                };
                while let Some(hop) = cores[active].route_next(&homes, &mut stats, &mut probe) {
                    let Hop::Remote(tx) = hop else { continue };
                    if tx.is_positive() {
                        let (a, b) = (tx.id().src, tx.dst());
                        *sent.entry((a.min(b), a.max(b))).or_insert(0) += 1;
                    }
                    mail[active].push_back(tx);
                }
                if !splitmix64(&mut rng).is_multiple_of(8) {
                    continue;
                }
            }

            // A GVT commit with a balancing window; the last one, at ∞,
            // ends the run.
            let gvt = cores
                .iter_mut()
                .map(|c| c.local_min())
                .chain(mail.iter().flatten().map(|tx| tx.recv_time()))
                .min()
                .unwrap_or(VTime::INF);
            let mut window = WindowStats::new(n);
            for core in &mut cores {
                let before = (core.held, core.pending);
                let seen = core.commit(gvt, &mut stats, &mut probe);
                core.assert_tallies();
                assert_eq!(
                    (seen.held_before, seen.held, seen.pending),
                    (before.0, core.held, before.1),
                    "seed {seed}: commit reports the running totals"
                );
                core.window_slice(&mut window);
            }
            assert_eq!(window.comm, std::mem::take(&mut sent), "seed {seed}: window traffic");
            for (total, lp) in windowed.iter_mut().zip(&window.lps) {
                total.events_processed += lp.events;
                total.rollbacks += lp.rollbacks;
                total.events_rolled_back += lp.events_rolled_back;
            }
            if gvt.is_inf() {
                break;
            }
            if splitmix64(&mut rng).is_multiple_of(2) {
                let from = homes.part(nomad);
                let mv =
                    Migration { lp: nomad, from: from as u32, to: ((from + 1) % parts) as u32 };
                let mover = cores[from].evict(&mv, &mut homes, gvt, &mut stats, &mut probe);
                cores[from].assert_tallies();
                let dst = &mut cores[mv.to as usize];
                stale_homecomings += u32::from(dst.ready.iter().any(|e| e.0 .1 == nomad));
                dst.adopt(mover.expect("the nomad lives on `from`"), &mut homes);
                dst.assert_tallies();
            }
        }

        // Windows tile the run, migrations included (an LP's baseline
        // travels with it): nothing is counted twice, nothing is missed.
        let (states, lp_stats) = ClusterCore::finish(cores);
        assert_eq!(windowed, lp_stats, "seed {seed}: per-LP windows");
        (states, stats, stale_homecomings)
    }

    fn sweep<A: Application>(app: &A, parts: usize)
    where
        A::State: PartialEq + std::fmt::Debug,
    {
        let seq = Simulator::new(app).run(Backend::Sequential).unwrap();
        let mut stale_homecomings = 0;
        let mut rollbacks = 0;
        for seed in 0..200 {
            let (states, stats, stale) = run_interleaved(app, parts, seed);
            assert_eq!(states, seq.states, "seed {seed} committed a different history");
            assert_eq!(stats.events_committed, seq.stats.events_processed, "seed {seed}");
            stale_homecomings += stale;
            rollbacks += stats.rollbacks();
        }
        assert!(rollbacks > 0, "the scheduler must provoke stragglers");
        assert!(stale_homecomings > 0, "no LP ever returned to a heap that remembered it");
    }

    #[test]
    fn seeded_interleavings_commit_the_sequential_history() {
        sweep(&Ring { n: 12, hops: 40 }, 3);
        sweep(&Phold { lps: 12, horizon: 120, ..Default::default() }, 2);
    }
}
