//! The flush-and-barrier protocol: a faithful small-scale state machine
//! of the threaded executive's cluster loop — optimistic execution with
//! rollback and anti-messages, the flush-and-barrier GVT and LP migration
//! between epochs, over per-cluster FIFO channels — with two injectable
//! bug shapes.
//!
//! # Abstraction choices (and why they are sound)
//!
//! * **Application state is dropped.** The checked properties (message
//!   conservation, single ownership, GVT monotonicity, deadlock freedom)
//!   are protocol-level; event *payloads* never influence routing or
//!   synchronization in the real kernel either.
//! * **Events are single, not batched**, and every LP runs a fixed
//!   script: executing an event at time `t` with `hops` remaining sends
//!   one message to the next LP round-robin at `t + 1 + (lp % 2)`. The
//!   unequal delays manufacture cross-cluster stragglers, so rollback and
//!   anti-message cascades genuinely occur.
//! * **Channel sends are atomic and reliable** — a message is in the
//!   destination's FIFO inbox the moment it is sent, exactly like
//!   in-process `mpsc`. The platform executive's wire is reliable too;
//!   its timing faults are checked by `tests/chaos.rs`.
//! * **Drain-priority partial-order reduction:** in the `Run` phase a
//!   cluster with a non-empty inbox may only drain. In the real loop
//!   every execute is preceded by a drain-to-empty pass; an "execute
//!   past an inboxed message" interleaving is equivalent (the two
//!   actions touch disjoint state) to the one where the remote send
//!   lands *after* the execute, which the explorer covers.
//! * **Barrier releases are atomic** and performed by the last arriver
//!   — literally so in the implementation: `threaded.rs`'s `Rendezvous`
//!   releases a generation with one store by the last arriver, who also
//!   publishes the reduced sum (transmissions routed in a flush round)
//!   and minimum (the GVT) that every party reads. The implementation
//!   clears the `requested` flag at the round's first rendezvous, the
//!   model at its last (the minima release); no cluster reads or sets
//!   the flag between the two, so the difference is unobservable.
//! * **Migration is part of the minima release.** At a balancing round
//!   every cluster thread leaves its loop right after its commit and the
//!   caller migrates before it spawns the next epoch, so no cluster step
//!   can interleave with a migration: the release plans, evicts and
//!   adopts in one atomic step over the run's one routing table.

use std::collections::{BTreeSet, VecDeque};

use super::ProtocolModel;

/// Virtual-time infinity inside the model.
const INF: u32 = u32::MAX;

/// The two re-injectable bug shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// During GVT flush rounds, anti-messages routed by a drain are not
    /// counted toward the round's all-reduced sum — the flush can then
    /// terminate with a transmission still in flight, and the GVT
    /// computed past it.
    DropFlushTransmission,
    /// The migration step adopts the LP at its destination without
    /// evicting it from its source: two clusters own it.
    DoubleOwnerMigration,
}

/// A scripted migration for the model's load-balancing rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlannedMove {
    /// Fires at this 1-based balancing round.
    pub round: u32,
    /// LP to move.
    pub lp: u8,
    /// Expected current owner.
    pub from: u8,
    /// Destination cluster.
    pub to: u8,
}

/// Checker configuration: topology, workload bound, protocol knobs, and
/// an optional injected bug.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Number of clusters (threads in the real executive).
    pub clusters: usize,
    /// Total LPs, assigned round-robin `lp % clusters`.
    pub lps: usize,
    /// Length of each LP's initial event chain (workload bound).
    pub hops: u8,
    /// A cluster requests GVT after this many executes (`due`), in
    /// addition to the idle trigger.
    pub gvt_period: u32,
    /// Run a migration round every `lb_period` GVT rounds (0 = never).
    pub lb_period: u32,
    /// Scripted migration plan, consulted per balancing round.
    pub plan: Vec<PlannedMove>,
    /// Injected bug, if any.
    pub bug: Option<Bug>,
    /// Abort (incomplete) past this many unique states.
    pub max_states: usize,
    /// Abort any single schedule longer than this many steps.
    pub max_depth: usize,
}

impl ModelConfig {
    /// The 2-cluster / 2-LP acceptance configuration, with one LP
    /// migrated away and back.
    pub fn small_2x2() -> ModelConfig {
        ModelConfig {
            clusters: 2,
            lps: 2,
            hops: 2,
            gvt_period: 2,
            lb_period: 1,
            plan: vec![
                PlannedMove { round: 1, lp: 0, from: 0, to: 1 },
                PlannedMove { round: 2, lp: 0, from: 1, to: 0 },
            ],
            bug: None,
            max_states: 40_000_000,
            max_depth: 100_000,
        }
    }

    /// The 3-cluster / 2-LP acceptance configuration (one cluster always
    /// empty — it must still participate in every barrier).
    pub fn small_3x2() -> ModelConfig {
        ModelConfig {
            clusters: 3,
            plan: vec![PlannedMove { round: 1, lp: 0, from: 0, to: 2 }],
            ..ModelConfig::small_2x2()
        }
    }
}

/// One transmission on an inter-cluster channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Msg {
    /// Unique id, shared between a positive and its anti-message.
    id: u32,
    /// Destination LP.
    dst: u8,
    /// Receive time.
    time: u32,
    /// Remaining hops of the script when this event executes.
    hops: u8,
    /// An anti-message chasing the positive with the same id.
    anti: bool,
}

/// Sender-side record of an uncommitted output (for cancellation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SentRec {
    /// Output id.
    id: u32,
    /// Destination LP.
    dst: u8,
    /// Receive time at the destination.
    time: u32,
    /// Virtual time of the event that sent it (cancellation key).
    cause: u32,
}

/// One pending or processed event: `(time, id, hops)`.
type Ev = (u32, u32, u8);

/// The Time Warp-relevant state of one LP.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LpState {
    /// Unprocessed events, sorted by `(time, id)`.
    pending: Vec<Ev>,
    /// Processed, uncommitted events in execution order.
    processed: Vec<Ev>,
    /// Local virtual time (receive time of the last executed event).
    lvt: u32,
    /// Uncommitted outputs, for rollback cancellation.
    sent: Vec<SentRec>,
    /// Anti-messages that arrived before their positives.
    orphans: BTreeSet<u32>,
}

impl LpState {
    /// The script's seed for LP `lp`: one event, id `lp`, at
    /// `1 + (lp % 2)`, carrying `hops` hops.
    fn seeded(lp: u32, hops: u8) -> LpState {
        LpState {
            pending: vec![(1 + lp % 2, lp, hops)],
            processed: Vec::new(),
            lvt: 0,
            sent: Vec::new(),
            orphans: BTreeSet::new(),
        }
    }

    /// Insert `ev` into the pending set, keeping `(time, id)` order.
    fn insert(&mut self, ev: Ev) {
        let pos = self.pending.partition_point(|&(t, id, _)| (t, id) < (ev.0, ev.1));
        self.pending.insert(pos, ev);
    }

    /// Ids resident in this LP, pending or processed.
    fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.pending.iter().chain(&self.processed).map(|&(_, id, _)| id)
    }
}

/// Where a cluster is in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// Normal optimistic processing.
    Run,
    /// Arrived at the GVT entry barrier.
    GvtEnterBar,
    /// Flush round: draining the inbox to quiescence.
    FlushDrain,
    /// Arrived at the end-of-flush-round barrier.
    FlushBar,
    /// Publishing the local minimum.
    MinPub,
    /// Arrived at the minima barrier.
    MinBar,
    /// Terminated (GVT = ∞).
    Exited,
}

/// One cluster of the model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ClusterState {
    /// Protocol position.
    phase: Phase,
    /// LPs this cluster currently executes.
    owned: BTreeSet<u8>,
    /// Messages this cluster routed during the current flush round.
    routed_round: u32,
    /// Executes since the last GVT round (the `due` trigger).
    executed_since_gvt: u32,
    /// Local minimum published at the last GVT round.
    local_min: u32,
    /// Just left a GVT round without doing any work yet. The real loop
    /// is `drain → if requested { gvt } → run_batch`, so a cluster with
    /// work always makes progress between consecutive GVT rounds; this
    /// flag keeps an idle cluster's re-requests from starving the model
    /// the same way (and from making the schedule space infinite).
    fresh_gvt: bool,
}

/// The complete model state. `Hash` is derived over every field — the
/// explorer prunes on a 64-bit state hash.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    /// All clusters.
    clusters: Vec<ClusterState>,
    /// All LPs (indexed by id; ownership decides who may execute them).
    lps: Vec<LpState>,
    /// Per-cluster FIFO channel from all other clusters.
    inboxes: Vec<VecDeque<Msg>>,
    /// The run's one routing table (LP → cluster).
    assignment: Vec<u8>,
    /// GVT-requested flag (any cluster may set it; cleared at the round
    /// end).
    requested: bool,
    /// Last agreed GVT.
    gvt: u32,
    /// Completed GVT rounds.
    gvt_rounds: u32,
    /// Completed balancing rounds.
    lb_round: u32,
    /// Fossil-collected (committed) positive ids.
    committed: BTreeSet<u32>,
    /// Ids consumed by positive/anti annihilation.
    annihilated: BTreeSet<u32>,
    /// Next fresh message id.
    next_id: u32,
}

/// One scheduler choice: which cluster performs which atomic step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Drain one inbox message (Run phase).
    Drain(u8),
    /// Execute the lowest-timestamp owned event.
    Execute(u8),
    /// Set the GVT-requested flag (idle cluster).
    RequestGvt(u8),
    /// Arrive at the GVT entry barrier.
    EnterGvt(u8),
    /// Drain one inbox message during a flush round.
    FlushDrain(u8),
    /// Arrive at the flush-round barrier (inbox observed empty).
    FlushArrive(u8),
    /// Compute and publish the local minimum; the last to publish
    /// releases the round (and migrates at a balancing round).
    PublishMin(u8),
}

/// Mirror of the migration step's plan validity filter.
fn move_is_valid(mv: &PlannedMove, assignment: &[u8], parts: usize) -> bool {
    (mv.lp as usize) < assignment.len()
        && (mv.to as usize) < parts
        && mv.from != mv.to
        && assignment[mv.lp as usize] == mv.from
}

impl State {
    /// Receive time of the lowest pending event among the LPs cluster
    /// `c` owns, with the LP that holds it.
    fn next_event(&self, c: u8) -> Option<(u32, u8)> {
        let owned = self.clusters[c as usize].owned.iter();
        owned.filter_map(|&l| self.lps[l as usize].pending.first().map(|e| (e.0, l))).min()
    }

    /// Deliver `m` to its LP on cluster `c`. Returns the number of
    /// anti-messages its rollback routed (the flush-round accounting
    /// unit), or a violation.
    fn deliver(&mut self, c: u8, m: Msg) -> Result<u32, String> {
        let dst = m.dst as usize;
        if !self.clusters[c as usize].owned.contains(&m.dst) {
            return Err(format!(
                "cluster {c} drained a message for LP {dst} it does not own (misrouted or stranded by migration)"
            ));
        }
        let mut remote = 0u32;
        if !m.anti {
            if self.gvt != INF && m.time < self.gvt {
                return Err(format!(
                    "positive transmission id {} for LP {dst} arrived at t={} below GVT {} — lost across a flush",
                    m.id, m.time, self.gvt
                ));
            }
            if self.lps[dst].orphans.remove(&m.id) {
                self.annihilated.insert(m.id);
                return Ok(0);
            }
            if m.time <= self.lps[dst].lvt {
                remote += self.rollback(m.dst, m.time)?;
            }
            self.lps[dst].insert((m.time, m.id, m.hops));
        } else {
            // Anti-message: annihilate wherever the positive lives.
            if self.committed.contains(&m.id) {
                return Err(format!(
                    "anti-message for committed (fossil-collected) id {} — cancellation crossed GVT {}",
                    m.id, self.gvt
                ));
            }
            let lp = &mut self.lps[dst];
            if let Some(i) = lp.pending.iter().position(|&(_, id, _)| id == m.id) {
                lp.pending.remove(i);
                self.annihilated.insert(m.id);
            } else if let Some(&(t, _, _)) = lp.processed.iter().find(|&&(_, id, _)| id == m.id) {
                // Secondary rollback, then annihilate from pending.
                remote += self.rollback(m.dst, t)?;
                let lp = &mut self.lps[dst];
                let i = lp
                    .pending
                    .iter()
                    .position(|&(_, id, _)| id == m.id)
                    .expect("rollback returned the positive to pending");
                lp.pending.remove(i);
                self.annihilated.insert(m.id);
            } else {
                lp.orphans.insert(m.id);
            }
        }
        Ok(remote)
    }

    /// Roll LP `lp_id` back to before `t`: unprocess
    /// every processed event with `time >= t` and cancel every
    /// uncommitted output with `cause >= t` by routing anti-messages
    /// (through a channel even when the destination is local). Returns
    /// the anti-messages routed.
    fn rollback(&mut self, lp_id: u8, t: u32) -> Result<u32, String> {
        let gvt = self.gvt;
        let lp = &mut self.lps[lp_id as usize];
        let mut i = 0;
        while i < lp.processed.len() {
            if lp.processed[i].0 >= t {
                let ev = lp.processed.remove(i);
                if gvt != INF && ev.0 < gvt {
                    return Err(format!(
                        "rollback of LP {lp_id} to t={t} unprocessed an event at t={} below GVT {gvt}",
                        ev.0
                    ));
                }
                lp.insert(ev);
            } else {
                i += 1;
            }
        }
        lp.lvt = lp.processed.iter().map(|&(pt, _, _)| pt).max().unwrap_or(0);
        // Cancel uncommitted outputs caused at or after t.
        let (keep, cancelled): (Vec<SentRec>, Vec<SentRec>) =
            lp.sent.iter().partition(|r| r.cause < t);
        lp.sent = keep;
        for r in &cancelled {
            let anti = Msg { id: r.id, dst: r.dst, time: r.time, hops: 0, anti: true };
            let dest_cluster = self.assignment[r.dst as usize];
            self.inboxes[dest_cluster as usize].push_back(anti);
        }
        Ok(cancelled.len() as u32)
    }

    /// Pop and process the front of cluster `c`'s inbox. Returns the
    /// number of anti-messages its delivery routed.
    fn drain_one(&mut self, c: u8) -> Result<u32, String> {
        let m = self.inboxes[c as usize].pop_front().expect("drain needs a message");
        self.deliver(c, m)
    }

    /// The minima-barrier release: agree the GVT, fossil-collect, check
    /// the flush postcondition, migrate at a balancing round, and
    /// dispatch to exit or run.
    fn finish_gvt_round(&mut self, cfg: &ModelConfig) -> Result<(), String> {
        let new_gvt = self.clusters.iter().map(|cl| cl.local_min).min().unwrap_or(INF);
        if new_gvt < self.gvt {
            return Err(format!("GVT regressed: {} after {}", new_gvt, self.gvt));
        }
        self.gvt = new_gvt;
        self.gvt_rounds += 1;
        self.requested = false;
        // Flush postcondition: the GVT correctness argument relies on
        // zero in-flight transmissions at minima computation (that is
        // the entire point of the drain rounds), so any message still in
        // a channel here means the flush declared quiescence early.
        for (ci, inbox) in self.inboxes.iter().enumerate() {
            if let Some(m) = inbox.front() {
                let gvt = if new_gvt == INF { "∞".to_string() } else { new_gvt.to_string() };
                return Err(format!(
                    "flush postcondition violated: transmission id {} (t={}) still in cluster {ci}'s channel at GVT agreement ({gvt}) — flush exited early",
                    m.id, m.time
                ));
            }
        }
        // Fossil collection: commit below GVT.
        for lp in &mut self.lps {
            let committed = &mut self.committed;
            lp.processed.retain(|&(t, id, _)| {
                if t < new_gvt {
                    committed.insert(id);
                }
                t >= new_gvt
            });
            lp.sent.retain(|r| r.time >= new_gvt);
        }
        if new_gvt == INF {
            for cl in &mut self.clusters {
                cl.phase = Phase::Exited;
            }
            return Ok(());
        }
        if cfg.lb_period > 0 && self.gvt_rounds.is_multiple_of(cfg.lb_period) {
            self.lb_round += 1;
            let round = self.lb_round;
            for mv in cfg.plan.iter().filter(|m| m.round == round) {
                if !move_is_valid(mv, &self.assignment, cfg.clusters) {
                    continue;
                }
                self.assignment[mv.lp as usize] = mv.to;
                // The bug shape: the LP is adopted but never evicted.
                if cfg.bug != Some(Bug::DoubleOwnerMigration) {
                    self.clusters[mv.from as usize].owned.remove(&mv.lp);
                }
                self.clusters[mv.to as usize].owned.insert(mv.lp);
            }
        }
        for cl in &mut self.clusters {
            cl.phase = Phase::Run;
            cl.executed_since_gvt = 0;
            cl.fresh_gvt = true;
        }
        Ok(())
    }

    fn all_in(&self, p: Phase) -> bool {
        self.clusters.iter().all(|cl| cl.phase == p)
    }
}

impl ProtocolModel for ModelConfig {
    type State = State;
    type Step = Step;

    /// The initial state: LPs assigned round-robin, each seeded with one
    /// event at time `1 + (lp % 2)` carrying `hops` hops.
    fn initial(&self) -> State {
        let assignment: Vec<u8> = (0..self.lps).map(|i| (i % self.clusters) as u8).collect();
        let lps = (0..self.lps as u32).map(|i| LpState::seeded(i, self.hops)).collect();
        let clusters = (0..self.clusters)
            .map(|c| ClusterState {
                phase: Phase::Run,
                owned: (0..self.lps as u8).filter(|&l| assignment[l as usize] == c as u8).collect(),
                routed_round: 0,
                executed_since_gvt: 0,
                local_min: 0,
                fresh_gvt: false,
            })
            .collect();
        State {
            clusters,
            lps,
            inboxes: vec![VecDeque::new(); self.clusters],
            assignment,
            requested: false,
            gvt: 0,
            gvt_rounds: 0,
            lb_round: 0,
            committed: BTreeSet::new(),
            annihilated: BTreeSet::new(),
            next_id: self.lps as u32,
        }
    }

    /// Append every enabled scheduler choice to `steps`, in
    /// deterministic order.
    fn enabled(&self, s: &State, steps: &mut Vec<Step>) {
        for (ci, cl) in s.clusters.iter().enumerate() {
            let c = ci as u8;
            match cl.phase {
                Phase::Run => {
                    if !s.inboxes[ci].is_empty() {
                        steps.push(Step::Drain(c));
                    } else {
                        let has_pending = s.next_event(c).is_some();
                        if s.requested && !(cl.fresh_gvt && has_pending) {
                            steps.push(Step::EnterGvt(c));
                        }
                        if has_pending {
                            steps.push(Step::Execute(c));
                        } else if !s.requested {
                            steps.push(Step::RequestGvt(c));
                        }
                    }
                }
                Phase::FlushDrain => {
                    if s.inboxes[ci].is_empty() {
                        steps.push(Step::FlushArrive(c));
                    } else {
                        steps.push(Step::FlushDrain(c));
                    }
                }
                Phase::MinPub => steps.push(Step::PublishMin(c)),
                Phase::GvtEnterBar | Phase::FlushBar | Phase::MinBar | Phase::Exited => {}
            }
        }
    }

    /// Apply `step`. Returns the step label, or a violation message.
    fn apply(&self, s: &mut State, step: Step) -> Result<String, String> {
        let label = self.label(step);
        match step {
            Step::Drain(c) => {
                s.clusters[c as usize].fresh_gvt = false;
                s.drain_one(c)?;
            }
            Step::Execute(c) => {
                let (_, lp_id) = s.next_event(c).expect("execute needs a pending event");
                let lp = &mut s.lps[lp_id as usize];
                let (t, id, hops) = lp.pending.remove(0);
                lp.processed.push((t, id, hops));
                lp.lvt = t;
                if hops > 0 {
                    // The script's successor: the next LP, after an
                    // unequal delay that manufactures stragglers.
                    let at = t + 1 + u32::from(lp_id % 2);
                    let dst = ((lp_id as usize + 1) % s.lps.len()) as u8;
                    let id = s.next_id;
                    s.next_id += 1;
                    s.lps[lp_id as usize].sent.push(SentRec { id, dst, time: at, cause: t });
                    let msg = Msg { id, dst, time: at, hops: hops - 1, anti: false };
                    let dest_cluster = s.assignment[dst as usize];
                    if dest_cluster == c {
                        s.deliver(c, msg)?;
                    } else {
                        s.inboxes[dest_cluster as usize].push_back(msg);
                    }
                }
                let cl = &mut s.clusters[c as usize];
                cl.fresh_gvt = false;
                cl.executed_since_gvt += 1;
                if cl.executed_since_gvt >= self.gvt_period {
                    s.requested = true;
                }
            }
            Step::RequestGvt(_) => s.requested = true,
            Step::EnterGvt(c) => {
                s.clusters[c as usize].phase = Phase::GvtEnterBar;
                if s.all_in(Phase::GvtEnterBar) {
                    for cl in &mut s.clusters {
                        cl.phase = Phase::FlushDrain;
                        cl.routed_round = 0;
                    }
                }
            }
            Step::FlushDrain(c) => {
                let routed = s.drain_one(c)?;
                // The historical bug: anti-messages routed by a flush
                // drain were not counted, so the flush could terminate
                // with a transmission still in flight.
                if self.bug != Some(Bug::DropFlushTransmission) {
                    s.clusters[c as usize].routed_round += routed;
                }
            }
            Step::FlushArrive(c) => {
                s.clusters[c as usize].phase = Phase::FlushBar;
                if s.all_in(Phase::FlushBar) {
                    let total: u32 = s.clusters.iter().map(|cl| cl.routed_round).sum();
                    for cl in &mut s.clusters {
                        cl.routed_round = 0;
                        cl.phase = if total == 0 { Phase::MinPub } else { Phase::FlushDrain };
                    }
                }
            }
            Step::PublishMin(c) => {
                let local_min = s.next_event(c).map_or(INF, |(t, _)| t);
                let cl = &mut s.clusters[c as usize];
                cl.local_min = local_min;
                cl.phase = Phase::MinBar;
                if s.all_in(Phase::MinBar) {
                    s.finish_gvt_round(self)?;
                }
            }
        }
        Ok(label)
    }

    /// Human-readable label for counterexample traces.
    fn label(&self, step: Step) -> String {
        match step {
            Step::Drain(c) => format!("c{c}:drain"),
            Step::Execute(c) => format!("c{c}:execute"),
            Step::RequestGvt(c) => format!("c{c}:request-gvt"),
            Step::EnterGvt(c) => format!("c{c}:enter-gvt"),
            Step::FlushDrain(c) => format!("c{c}:flush-drain"),
            Step::FlushArrive(c) => format!("c{c}:flush-barrier"),
            Step::PublishMin(c) => format!("c{c}:publish-min"),
        }
    }

    /// Safety invariants checked at every reachable state. Returns a
    /// violation description, or `None`.
    fn check_invariants(&self, s: &State) -> Option<String> {
        // 1. Every LP is owned by exactly one cluster.
        for lp in 0..s.lps.len() as u8 {
            let owners = s.clusters.iter().filter(|cl| cl.owned.contains(&lp)).count();
            if owners != 1 {
                return Some(format!("LP {lp} owned by {owners} cluster(s) — must be exactly one"));
            }
        }
        // 2. Transmission conservation: every positive id lives in
        //    exactly one of {some inbox, some pending queue, some
        //    processed queue, committed, annihilated}.
        let mut copies = vec![0u32; s.next_id as usize];
        let in_flight = s.inboxes.iter().flatten().filter(|m| !m.anti).map(|m| m.id);
        let resident = s.lps.iter().flat_map(LpState::ids);
        let ledgers = s.committed.iter().chain(&s.annihilated).copied();
        in_flight.chain(resident).chain(ledgers).for_each(|id| copies[id as usize] += 1);
        if let Some((id, &n)) = copies.iter().enumerate().find(|&(_, &n)| n != 1) {
            let fate = if n == 0 { "lost" } else { "duplicated" };
            return Some(format!(
                "transmission id {id} found in {n} places — {fate} across a GVT/migration boundary"
            ));
        }
        // 3. At termination nothing may remain in transit.
        if self.terminated(s) {
            if s.inboxes.iter().any(|inbox| !inbox.is_empty()) {
                return Some("terminated with a non-empty channel".into());
            }
            if s.lps.iter().any(|lp| !lp.orphans.is_empty()) {
                return Some("terminated with an unmatched anti-message".into());
            }
            if s.lps.iter().any(|lp| !lp.pending.is_empty() || !lp.processed.is_empty()) {
                return Some("terminated with unprocessed or uncommitted events".into());
            }
        }
        None
    }

    /// Whether every cluster has exited.
    fn terminated(&self, s: &State) -> bool {
        s.all_in(Phase::Exited)
    }

    fn max_states(&self) -> usize {
        self.max_states
    }

    fn max_depth(&self) -> usize {
        self.max_depth
    }
}
