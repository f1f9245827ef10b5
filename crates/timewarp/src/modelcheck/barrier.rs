//! The flush-and-barrier protocol family: a faithful small-scale state
//! machine of the threaded executive's cluster loop — optimistic execution with
//! rollback and anti-messages, the flush-and-barrier GVT and the 4-phase
//! LP migration handoff, over the shared wire and event queue of
//! `substrate` (optionally lossy, with the chaos subsystem's
//! ack/retransmit protocol) — with three injectable historical bug
//! shapes.
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
//! * **Channel sends are atomic** — a message is in the destination
//!   inbox the moment it is sent, exactly like in-process `mpsc`.
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
//!   the flag between the two, so the difference is unobservable. The
//!   cluster-0 planning step between the real phase-1 and phase-2
//!   rendezvous is atomic too (they bracket purely cluster-0-local work,
//!   so no distinct interleavings are lost).
//! * **Lossy mode** ([`ModelConfig::loss`]) is the wire's: this model
//!   only decides what a drain's outcome means to an LP, counts the acks
//!   a flush round routes (a round must not strand one in a channel),
//!   lets the retransmit buffer bound its local minimum, and routes a
//!   retransmitted copy by its *current* table.

use std::collections::BTreeSet;

use super::substrate::{fmt_t, Drained, EventQueue, Kind, LossBudget, Msg, Wire, INF};
use super::ProtocolModel;

/// The three re-injectable historical bug shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// During GVT flush rounds, anti-messages routed by a drain are not
    /// counted toward the round's all-reduced sum — the flush can then
    /// terminate with a transmission still in flight, and the GVT
    /// computed past it.
    DropFlushTransmission,
    /// Phase 3 of migration forgets to remove the migrating LP from the
    /// source cluster's table while the destination still adopts it —
    /// a double-owner window.
    DoubleOwnerMigration,
    /// The receiver forgets its dedup set: a transmission retransmitted
    /// after its ack was lost is executed again as a fresh event — the
    /// double-delivery shape the chaos runtime's `delivered` set exists
    /// to prevent (only meaningful on a lossy [`ModelConfig::loss`]).
    RetransmitDoubleDelivery,
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
    /// The inter-cluster channel: reliable, or lossy with the
    /// ack/retransmit recovery protocol and its scheduler budgets.
    pub loss: LossBudget,
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
            loss: LossBudget::RELIABLE,
            bug: None,
            max_states: 40_000_000,
            max_depth: 100_000,
        }
    }

    /// The lossy-channel acceptance configuration: 2 clusters / 2 LPs
    /// with one droppable transmission and up to three retransmissions.
    /// Migration is disabled to keep the cross product focused on the
    /// recovery protocol.
    pub fn lossy_2x2() -> ModelConfig {
        ModelConfig {
            lb_period: 0,
            plan: Vec::new(),
            loss: LossBudget { lossy: true, max_drops: 1, max_retransmits: 3 },
            ..ModelConfig::small_2x2()
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

/// The Time Warp-relevant state of one LP.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LpState {
    /// Pending and processed events.
    q: EventQueue,
    /// Local virtual time (receive time of the last executed event).
    lvt: u32,
    /// Uncommitted outputs, for rollback cancellation.
    sent: Vec<SentRec>,
    /// Anti-messages that arrived before their positives.
    orphans: BTreeSet<u32>,
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
    /// Migration phase 3: applying the plan to the local routing copy.
    MigApply,
    /// Arrived at the phase-3 barrier.
    MigApplyBar,
    /// Migration phase 4: adopting arrivals (no trailing barrier).
    MigAdopt,
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
    /// This cluster's own routing-table copy (LP → cluster).
    assignment: Vec<u8>,
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
    /// The inter-cluster channels.
    wire: Wire,
    /// GVT-requested flag (any cluster may set it; cleared at the round
    /// end).
    requested: bool,
    /// Last agreed GVT.
    gvt: u32,
    /// Completed GVT rounds.
    gvt_rounds: u32,
    /// Completed balancing rounds.
    lb_round: u32,
    /// The plan agreed at the current migration round.
    plan: Vec<PlannedMove>,
    /// Per-destination handoff buffers: LP ids in transit.
    movers: Vec<Vec<u8>>,
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
    /// Compute and publish the local minimum.
    PublishMin(u8),
    /// Apply the migration plan to the local routing copy (phase 3).
    MigApply(u8),
    /// Adopt arrived LPs (phase 4) and resume running.
    MigAdopt(u8),
    /// Lose the front of this cluster's inbox (lossy mode; data or ack,
    /// never an anti-message).
    DropFront(u8),
    /// Timer expiry: re-send the oldest unacknowledged transmission
    /// (lossy mode; enabled only when no copy is in flight).
    Retransmit(u8),
}

/// Mirror of the executives' plan validity filter.
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
        owned.filter_map(|&l| self.lps[l as usize].q.next_time().map(|t| (t, l))).min()
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
        if m.kind != Kind::Anti {
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
                remote += self.rollback(c, m.dst, m.time)?;
            }
            self.lps[dst].q.insert((m.time, m.id, m.hops));
        } else {
            // Anti-message: annihilate wherever the positive lives.
            if self.committed.contains(&m.id) {
                return Err(format!(
                    "anti-message for committed (fossil-collected) id {} — cancellation crossed GVT {}",
                    m.id, self.gvt
                ));
            }
            let lp = &mut self.lps[dst];
            if let Some(i) = lp.q.pending.iter().position(|&(_, id, _)| id == m.id) {
                lp.q.pending.remove(i);
                self.annihilated.insert(m.id);
            } else if let Some(&(t, _, _)) = lp.q.processed.iter().find(|&&(_, id, _)| id == m.id) {
                // Secondary rollback, then annihilate from pending.
                remote += self.rollback(c, m.dst, t)?;
                let lp = &mut self.lps[dst];
                let i =
                    lp.q.pending
                        .iter()
                        .position(|&(_, id, _)| id == m.id)
                        .expect("rollback returned the positive to pending");
                lp.q.pending.remove(i);
                self.annihilated.insert(m.id);
            } else {
                lp.orphans.insert(m.id);
            }
        }
        Ok(remote)
    }

    /// Roll LP `lp` (owned by cluster `c`) back to before `t`: unprocess
    /// every processed event with `time >= t` and cancel every
    /// uncommitted output with `cause >= t` by routing anti-messages
    /// (through the wire even when the destination is local). Returns
    /// the anti-messages routed.
    fn rollback(&mut self, c: u8, lp_id: u8, t: u32) -> Result<u32, String> {
        let gvt = self.gvt;
        let lp = &mut self.lps[lp_id as usize];
        let mut i = 0;
        while i < lp.q.processed.len() {
            if lp.q.processed[i].0 >= t {
                let ev = lp.q.processed.remove(i);
                if gvt != INF && ev.0 < gvt {
                    return Err(format!(
                        "rollback of LP {lp_id} to t={t} unprocessed an event at t={} below GVT {gvt}",
                        ev.0
                    ));
                }
                lp.q.insert(ev);
            } else {
                i += 1;
            }
        }
        lp.lvt = lp.q.processed.iter().map(|&(pt, _, _)| pt).max().unwrap_or(0);
        // Cancel uncommitted outputs caused at or after t.
        let (keep, cancelled): (Vec<SentRec>, Vec<SentRec>) =
            lp.sent.iter().partition(|r| r.cause < t);
        lp.sent = keep;
        let mut remote = 0u32;
        for r in cancelled {
            let anti = Msg {
                id: r.id,
                dst: r.dst,
                time: r.time,
                hops: 0,
                kind: Kind::Anti,
                origin: c,
                color: 0,
            };
            let dest_cluster = self.clusters[c as usize].assignment[r.dst as usize];
            remote += 1;
            self.wire.carry(dest_cluster, anti);
        }
        Ok(remote)
    }

    /// Pop and process one inbox message for cluster `c`. Returns the
    /// number of remote messages routed (acks included — a flush round
    /// must not strand one in a channel).
    fn drain_one(&mut self, c: u8, cfg: &ModelConfig) -> Result<u32, String> {
        match self.wire.drain(c, &cfg.loss) {
            Drained::Ack => Ok(0),
            Drained::First { m, acks } => Ok(acks + self.deliver(c, m)?),
            // The historical bug: the receiver forgets its dedup set
            // and executes the retransmitted copy as a fresh event.
            Drained::Duplicate(m) if cfg.bug == Some(Bug::RetransmitDoubleDelivery) => {
                Ok(1 + self.deliver(c, m)?)
            }
            Drained::Duplicate(_) => Ok(1),
        }
    }

    /// The minima-barrier release: agree the GVT, fossil-collect, check
    /// the flush postcondition, and dispatch to exit / migration / run.
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
        for ci in 0..self.clusters.len() {
            if let Some(m) = self.wire.inbox(ci as u8).front() {
                return Err(format!(
                    "flush postcondition violated: transmission id {} (t={}) still in cluster {ci}'s channel at GVT agreement ({}) — flush exited early",
                    m.id,
                    m.time,
                    fmt_t(new_gvt)
                ));
            }
        }
        // Fossil collection: commit below GVT.
        for lp in &mut self.lps {
            lp.q.commit_below(new_gvt, &mut self.committed);
            lp.sent.retain(|r| r.time >= new_gvt);
        }
        if new_gvt == INF {
            for cl in &mut self.clusters {
                cl.phase = Phase::Exited;
            }
            return Ok(());
        }
        let migrate = cfg.lb_period > 0 && self.gvt_rounds.is_multiple_of(cfg.lb_period);
        if migrate {
            self.lb_round += 1;
            let round = self.lb_round;
            // Cluster 0 plans between the phase-1 and phase-2 barriers;
            // collapsed into this release (cluster-0-local work only).
            self.plan = cfg.plan.iter().filter(|m| m.round == round).copied().collect();
            for cl in &mut self.clusters {
                cl.phase = Phase::MigApply;
            }
        } else {
            for cl in &mut self.clusters {
                cl.phase = Phase::Run;
                cl.executed_since_gvt = 0;
                cl.fresh_gvt = true;
            }
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
        let lps = (0..self.lps as u32)
            .map(|i| LpState {
                q: EventQueue::seeded(i, self.hops),
                lvt: 0,
                sent: Vec::new(),
                orphans: BTreeSet::new(),
            })
            .collect();
        let clusters = (0..self.clusters)
            .map(|c| ClusterState {
                phase: Phase::Run,
                owned: (0..self.lps as u8).filter(|&l| assignment[l as usize] == c as u8).collect(),
                assignment: assignment.clone(),
                routed_round: 0,
                executed_since_gvt: 0,
                local_min: 0,
                fresh_gvt: false,
            })
            .collect();
        State {
            clusters,
            lps,
            wire: Wire::new(self.clusters),
            requested: false,
            gvt: 0,
            gvt_rounds: 0,
            lb_round: 0,
            plan: Vec::new(),
            movers: vec![Vec::new(); self.clusters],
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
                    if !s.wire.inbox(c).is_empty() {
                        steps.push(Step::Drain(c));
                        if s.wire.may_drop(c, &self.loss) {
                            steps.push(Step::DropFront(c));
                        }
                    } else {
                        let has_pending = s.next_event(c).is_some();
                        let can_retransmit = s.wire.may_timeout(c, &self.loss);
                        // `can_retransmit` counts as outstanding work for
                        // the fresh-GVT gate: a cluster with a timed-out
                        // transmission must recover it before re-entering
                        // GVT, which keeps no-progress rounds finite.
                        if s.requested && !(cl.fresh_gvt && (has_pending || can_retransmit)) {
                            steps.push(Step::EnterGvt(c));
                        }
                        if has_pending {
                            steps.push(Step::Execute(c));
                        } else if !s.requested {
                            steps.push(Step::RequestGvt(c));
                        }
                        if can_retransmit {
                            steps.push(Step::Retransmit(c));
                        }
                    }
                }
                Phase::FlushDrain => {
                    if s.wire.inbox(c).is_empty() {
                        steps.push(Step::FlushArrive(c));
                    } else {
                        steps.push(Step::FlushDrain(c));
                    }
                }
                Phase::MinPub => steps.push(Step::PublishMin(c)),
                Phase::MigApply => steps.push(Step::MigApply(c)),
                Phase::MigAdopt => steps.push(Step::MigAdopt(c)),
                Phase::GvtEnterBar
                | Phase::FlushBar
                | Phase::MinBar
                | Phase::MigApplyBar
                | Phase::Exited => {}
            }
        }
    }

    /// Apply `step`. Returns the step label, or a violation message.
    fn apply(&self, s: &mut State, step: Step) -> Result<String, String> {
        let label = self.label(step);
        match step {
            Step::Drain(c) => {
                s.clusters[c as usize].fresh_gvt = false;
                s.drain_one(c, self)?;
            }
            Step::Execute(c) => {
                let (_, lp_id) = s.next_event(c).expect("execute needs a pending event");
                let lp = &mut s.lps[lp_id as usize];
                let (t, successor) = lp.q.execute(lp_id);
                lp.lvt = t;
                if let Some((at, hops)) = successor {
                    let dst = ((lp_id as usize + 1) % s.lps.len()) as u8;
                    let id = s.next_id;
                    s.next_id += 1;
                    s.lps[lp_id as usize].sent.push(SentRec { id, dst, time: at, cause: t });
                    let msg =
                        Msg { id, dst, time: at, hops, kind: Kind::Data, origin: c, color: 0 };
                    let dest_cluster = s.clusters[c as usize].assignment[dst as usize];
                    if dest_cluster == c {
                        // Local delivery is in-process and cannot be lost.
                        s.deliver(c, msg)?;
                    } else {
                        s.wire.send(dest_cluster, msg, &self.loss);
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
                let routed = s.drain_one(c, self)?;
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
                // Unacknowledged transmissions are in doubt — possibly
                // lost and awaiting retransmission — so their receive
                // times bound the local minimum exactly like pending
                // events.
                let pending_min = s.next_event(c).map_or(INF, |(t, _)| t);
                let cl = &mut s.clusters[c as usize];
                cl.local_min = pending_min.min(s.wire.unacked_min(c));
                cl.phase = Phase::MinBar;
                if s.all_in(Phase::MinBar) {
                    s.finish_gvt_round(self)?;
                }
            }
            Step::MigApply(c) => {
                let plan = s.plan.clone();
                for mv in &plan {
                    if !move_is_valid(mv, &s.clusters[c as usize].assignment, self.clusters) {
                        continue;
                    }
                    s.clusters[c as usize].assignment[mv.lp as usize] = mv.to;
                    if mv.from == c {
                        // The historical bug: the source keeps executing
                        // the LP it just handed off.
                        if self.bug != Some(Bug::DoubleOwnerMigration) {
                            s.clusters[c as usize].owned.remove(&mv.lp);
                        }
                        s.movers[mv.to as usize].push(mv.lp);
                    }
                }
                s.clusters[c as usize].phase = Phase::MigApplyBar;
                if s.all_in(Phase::MigApplyBar) {
                    for cl in &mut s.clusters {
                        cl.phase = Phase::MigAdopt;
                    }
                }
            }
            Step::MigAdopt(c) => {
                let arrivals = std::mem::take(&mut s.movers[c as usize]);
                for lp in arrivals {
                    s.clusters[c as usize].owned.insert(lp);
                }
                let cl = &mut s.clusters[c as usize];
                cl.phase = Phase::Run;
                cl.executed_since_gvt = 0;
                cl.fresh_gvt = true;
            }
            Step::DropFront(c) => s.wire.drop_front(c),
            Step::Retransmit(c) => {
                let m = s.wire.timeout(c);
                // Routed by the *current* table — the LP may have
                // migrated since the original send.
                let dest_cluster = s.clusters[c as usize].assignment[m.dst as usize];
                s.wire.carry(dest_cluster, m);
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
            Step::MigApply(c) => format!("c{c}:mig-apply"),
            Step::MigAdopt(c) => format!("c{c}:mig-adopt"),
            Step::DropFront(c) => format!("c{c}:drop-front"),
            Step::Retransmit(c) => format!("c{c}:retransmit"),
        }
    }

    /// Safety invariants checked at every reachable state. Returns a
    /// violation description, or `None`.
    fn check_invariants(&self, s: &State) -> Option<String> {
        // 1. Every LP is owned by exactly one cluster, or is in exactly
        //    one movers buffer mid-handoff.
        for lp in 0..s.lps.len() as u8 {
            let owners = s.clusters.iter().filter(|cl| cl.owned.contains(&lp)).count();
            let moving =
                s.movers.iter().map(|m| m.iter().filter(|&&l| l == lp).count()).sum::<usize>();
            if owners + moving != 1 {
                return Some(format!(
                    "LP {lp} owned by {owners} cluster(s) and in {moving} handoff buffer(s) — must be exactly one total"
                ));
            }
        }
        // 2. Transmission conservation: every positive id lives in
        //    exactly one of {some inbox, some pending queue, some
        //    processed queue, committed, annihilated}, or is recoverable
        //    from a retransmit record.
        let ledgers = s.committed.iter().chain(&s.annihilated).copied();
        let resident = s.lps.iter().flat_map(|lp| lp.q.ids()).chain(ledgers);
        if let Some(fault) = s.wire.misplaced_id(s.next_id, resident) {
            return Some(format!("transmission {fault} across a GVT/migration boundary"));
        }
        // 3. At termination nothing may remain in transit.
        if self.terminated(s) {
            if let Some(residue) = s.wire.residue() {
                return Some(residue.into());
            }
            if s.movers.iter().any(|m| !m.is_empty()) {
                return Some("terminated with an LP stuck in a handoff buffer".into());
            }
            if s.lps.iter().any(|lp| !lp.orphans.is_empty()) {
                return Some("terminated with an unmatched anti-message".into());
            }
            if s.lps.iter().any(|lp| !lp.q.is_empty()) {
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
