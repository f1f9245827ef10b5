//! The flush-and-barrier protocol family: a faithful small-scale state
//! machine of the threaded executive's cluster loop — optimistic execution with
//! rollback and anti-messages, the flush-and-barrier GVT, the 4-phase
//! LP migration handoff, and an optional lossy channel with the chaos
//! subsystem's ack/retransmit protocol — with three injectable
//! historical bug shapes.
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
//! * **Lossy mode** ([`ModelConfig::lossy`]) mirrors `chaos`'s wire
//!   protocol: the scheduler may drop the front of an inbox (data or
//!   ack — never an anti-message, which the chaos runtime also carries
//!   reliably), senders keep an `unacked` retransmit buffer that feeds
//!   the GVT minimum, receivers dedup on a `delivered` set and re-ack
//!   duplicates, and a `Retransmit` step models timer expiry — enabled
//!   only when no copy of the transmission is in flight, exactly when a
//!   real timeout can fire. Drops and retransmits are budgeted
//!   ([`ModelConfig::max_drops`] / [`ModelConfig::max_retransmits`]) to
//!   keep the schedule space finite.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use super::ProtocolModel;

/// Virtual-time infinity inside the model.
pub const INF: u32 = u32::MAX;

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
    /// to prevent (only meaningful with [`ModelConfig::lossy`]).
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
    /// Model a lossy inter-cluster channel with the ack/retransmit
    /// recovery protocol (the chaos subsystem's wire model).
    pub lossy: bool,
    /// Scheduler budget for dropped transmissions (lossy mode).
    pub max_drops: u32,
    /// Scheduler budget for retransmissions (lossy mode).
    pub max_retransmits: u32,
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
            lossy: false,
            max_drops: 0,
            max_retransmits: 0,
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
            clusters: 2,
            lps: 2,
            hops: 2,
            gvt_period: 2,
            lb_period: 0,
            plan: Vec::new(),
            lossy: true,
            max_drops: 1,
            max_retransmits: 3,
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
            lps: 2,
            hops: 2,
            gvt_period: 2,
            lb_period: 1,
            plan: vec![PlannedMove { round: 1, lp: 0, from: 0, to: 2 }],
            lossy: false,
            max_drops: 0,
            max_retransmits: 0,
            bug: None,
            max_states: 40_000_000,
            max_depth: 100_000,
        }
    }
}

/// One transmission. An anti-message carries the id of the positive it
/// chases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Msg {
    /// Unique id (shared between a positive and its anti).
    pub id: u32,
    /// Destination LP.
    pub dst: u8,
    /// Receive time.
    pub time: u32,
    /// Remaining hops of the script when this event executes.
    pub hops: u8,
    /// Anti-message flag.
    pub anti: bool,
    /// Acknowledgement flag (lossy mode): consumed by the origin
    /// cluster, clears its retransmit record for `id`.
    pub ack: bool,
    /// Cluster that sent the positive (where the retransmit record
    /// lives and acks are routed).
    pub origin: u8,
}

/// One pending or processed event: `(time, id, hops)`.
pub type Ev = (u32, u32, u8);

/// Sender-side record of an uncommitted output (for cancellation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SentRec {
    /// Output id.
    pub id: u32,
    /// Destination LP.
    pub dst: u8,
    /// Receive time at the destination.
    pub time: u32,
    /// Virtual time of the event that sent it (cancellation key).
    pub cause: u32,
}

/// The Time Warp-relevant state of one LP.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LpState {
    /// Unprocessed events, sorted by `(time, id)`.
    pub pending: Vec<Ev>,
    /// Local virtual time (receive time of the last executed event).
    pub lvt: u32,
    /// Processed, uncommitted events in execution order.
    pub processed: Vec<Ev>,
    /// Uncommitted outputs, for rollback cancellation.
    pub sent: Vec<SentRec>,
    /// Anti-messages that arrived before their positives.
    pub orphans: BTreeSet<u32>,
}

/// Where a cluster is in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
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
pub struct ClusterState {
    /// Protocol position.
    pub phase: Phase,
    /// FIFO channel from all other clusters.
    pub inbox: VecDeque<Msg>,
    /// LPs this cluster currently executes.
    pub owned: BTreeSet<u8>,
    /// This cluster's own routing-table copy (LP → cluster).
    pub assignment: Vec<u8>,
    /// Messages this cluster routed during the current flush round.
    pub routed_round: u32,
    /// Executes since the last GVT round (the `due` trigger).
    pub executed_since_gvt: u32,
    /// Local minimum published at the last GVT round.
    pub local_min: u32,
    /// Just left a GVT round without doing any work yet. The real loop
    /// is `drain → if requested { gvt } → run_batch`, so a cluster with
    /// work always makes progress between consecutive GVT rounds; this
    /// flag keeps an idle cluster's re-requests from starving the model
    /// the same way (and from making the schedule space infinite).
    pub fresh_gvt: bool,
    /// Retransmit buffer (lossy mode): id → `(dst, time, hops)` of every
    /// remote positive sent but not yet acknowledged. Feeds the GVT
    /// local minimum, so GVT can never pass an in-doubt transmission.
    pub unacked: BTreeMap<u32, (u8, u32, u8)>,
}

/// The complete model state. `Hash` is derived over every field — the
/// explorer prunes on a 64-bit state hash.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    /// All clusters.
    pub clusters: Vec<ClusterState>,
    /// All LPs (indexed by id; ownership decides who may execute them).
    pub lps: Vec<LpState>,
    /// GVT-requested flag (any cluster may set it; cleared at the round
    /// end).
    pub requested: bool,
    /// Last agreed GVT.
    pub gvt: u32,
    /// Completed GVT rounds.
    pub gvt_rounds: u32,
    /// Completed balancing rounds.
    pub lb_round: u32,
    /// The plan agreed at the current migration round.
    pub plan: Vec<PlannedMove>,
    /// Per-destination handoff buffers: LP ids in transit.
    pub movers: Vec<Vec<u8>>,
    /// Fossil-collected (committed) positive ids.
    pub committed: BTreeSet<u32>,
    /// Ids consumed by positive/anti annihilation.
    pub annihilated: BTreeSet<u32>,
    /// Receiver-side dedup set (lossy mode): ids whose positive has been
    /// delivered once; later copies are discarded and re-acked.
    pub delivered: BTreeSet<u32>,
    /// Transmissions dropped so far (scheduler budget accounting).
    pub drops_used: u32,
    /// Retransmissions fired so far (scheduler budget accounting).
    pub retransmits_used: u32,
    /// Next fresh message id.
    pub next_id: u32,
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
    /// Timer expiry: re-send the lowest-id unacknowledged transmission
    /// (lossy mode; enabled only when no copy is in flight).
    Retransmit(u8),
}

impl Step {
    /// Human-readable label for counterexample traces.
    pub fn label(self) -> String {
        match self {
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
}

/// Mirror of the executives' plan validity filter.
fn move_is_valid(mv: &PlannedMove, assignment: &[u8], parts: usize) -> bool {
    (mv.lp as usize) < assignment.len()
        && (mv.to as usize) < parts
        && mv.from != mv.to
        && assignment[mv.lp as usize] == mv.from
}

impl State {
    /// The initial state: LPs assigned round-robin, each seeded with one
    /// event at time `1 + (lp % 2)` carrying `cfg.hops` hops.
    pub fn initial(cfg: &ModelConfig) -> State {
        let assignment: Vec<u8> = (0..cfg.lps).map(|i| (i % cfg.clusters) as u8).collect();
        let mut lps = vec![LpState::default(); cfg.lps];
        let mut next_id = 0u32;
        for (i, lp) in lps.iter_mut().enumerate() {
            lp.pending.push((1 + (i as u32 % 2), next_id, cfg.hops));
            next_id += 1;
        }
        let clusters = (0..cfg.clusters)
            .map(|c| ClusterState {
                phase: Phase::Run,
                inbox: VecDeque::new(),
                owned: (0..cfg.lps as u8).filter(|&l| assignment[l as usize] == c as u8).collect(),
                assignment: assignment.clone(),
                routed_round: 0,
                executed_since_gvt: 0,
                local_min: 0,
                fresh_gvt: false,
                unacked: BTreeMap::new(),
            })
            .collect();
        State {
            clusters,
            lps,
            requested: false,
            gvt: 0,
            gvt_rounds: 0,
            lb_round: 0,
            plan: Vec::new(),
            movers: vec![Vec::new(); cfg.clusters],
            committed: BTreeSet::new(),
            annihilated: BTreeSet::new(),
            delivered: BTreeSet::new(),
            drops_used: 0,
            retransmits_used: 0,
            next_id,
        }
    }

    /// Whether a positive (data) copy of `id` sits in any inbox.
    fn data_copy_in_flight(&self, id: u32) -> bool {
        self.clusters.iter().any(|cl| cl.inbox.iter().any(|m| !m.anti && !m.ack && m.id == id))
    }

    /// Append every enabled scheduler choice to `steps`, in
    /// deterministic order.
    pub fn enabled(&self, cfg: &ModelConfig, steps: &mut Vec<Step>) {
        for (ci, cl) in self.clusters.iter().enumerate() {
            let c = ci as u8;
            match cl.phase {
                Phase::Run => {
                    if !cl.inbox.is_empty() {
                        steps.push(Step::Drain(c));
                        // The channel may lose the front instead — data
                        // or ack, never an anti (the runtime carries
                        // cancellation reliably).
                        if cfg.lossy
                            && self.drops_used < cfg.max_drops
                            && !cl.inbox.front().expect("checked non-empty").anti
                        {
                            steps.push(Step::DropFront(c));
                        }
                    } else {
                        let has_pending =
                            cl.owned.iter().any(|&l| !self.lps[l as usize].pending.is_empty());
                        // A real timeout only fires when the wire copy is
                        // gone (dropped, or consumed with the ack lost);
                        // while a copy is in flight the timer is armed
                        // past its arrival.
                        let can_retransmit = cfg.lossy
                            && self.retransmits_used < cfg.max_retransmits
                            && cl
                                .unacked
                                .first_key_value()
                                .is_some_and(|(&id, _)| !self.data_copy_in_flight(id));
                        // `can_retransmit` counts as outstanding work for
                        // the fresh-GVT gate: a cluster with a timed-out
                        // transmission must recover it before re-entering
                        // GVT, which keeps no-progress rounds finite.
                        if self.requested && !(cl.fresh_gvt && (has_pending || can_retransmit)) {
                            steps.push(Step::EnterGvt(c));
                        }
                        if has_pending {
                            steps.push(Step::Execute(c));
                        } else if !self.requested {
                            steps.push(Step::RequestGvt(c));
                        }
                        if can_retransmit {
                            steps.push(Step::Retransmit(c));
                        }
                    }
                }
                Phase::FlushDrain => {
                    if cl.inbox.is_empty() {
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

    /// Deliver `m` to its LP on cluster `c`, cascading local by-products
    /// via a worklist; remote by-products go to the owning inbox.
    /// Returns the number of *remote* messages routed (the flush-round
    /// accounting unit), or a violation.
    fn deliver(&mut self, c: u8, m: Msg, cfg: &ModelConfig) -> Result<u32, String> {
        let mut remote = 0u32;
        let mut work = VecDeque::from([m]);
        while let Some(m) = work.pop_front() {
            let dst = m.dst as usize;
            if !self.clusters[c as usize].owned.contains(&m.dst) {
                return Err(format!(
                    "cluster {c} drained a message for LP {dst} it does not own (misrouted or stranded by migration)"
                ));
            }
            if !m.anti {
                if self.gvt != INF && m.time < self.gvt {
                    return Err(format!(
                        "positive transmission id {} for LP {dst} arrived at t={} below GVT {} — lost across a flush",
                        m.id, m.time, self.gvt
                    ));
                }
                if self.lps[dst].orphans.remove(&m.id) {
                    self.annihilated.insert(m.id);
                    continue;
                }
                if m.time <= self.lps[dst].lvt {
                    remote += self.rollback(c, m.dst, m.time, cfg)?;
                }
                let lp = &mut self.lps[dst];
                let pos = lp.pending.partition_point(|&(t, id, _)| (t, id) < (m.time, m.id));
                lp.pending.insert(pos, (m.time, m.id, m.hops));
            } else {
                // Anti-message: annihilate wherever the positive lives.
                if self.committed.contains(&m.id) {
                    return Err(format!(
                        "anti-message for committed (fossil-collected) id {} — cancellation crossed GVT {}",
                        m.id, self.gvt
                    ));
                }
                if let Some(i) = self.lps[dst].pending.iter().position(|&(_, id, _)| id == m.id) {
                    self.lps[dst].pending.remove(i);
                    self.annihilated.insert(m.id);
                } else if let Some(&(t, _, _)) =
                    self.lps[dst].processed.iter().find(|&&(_, id, _)| id == m.id)
                {
                    // Secondary rollback, then annihilate from pending.
                    remote += self.rollback(c, m.dst, t, cfg)?;
                    let lp = &mut self.lps[dst];
                    let i = lp
                        .pending
                        .iter()
                        .position(|&(_, id, _)| id == m.id)
                        .expect("rollback returned the positive to pending");
                    lp.pending.remove(i);
                    self.annihilated.insert(m.id);
                } else {
                    self.lps[dst].orphans.insert(m.id);
                }
            }
        }
        // Cascades from rollback are queued as sends inside `rollback`;
        // local ones were pushed onto our own inbox? No — rollback routes
        // directly (see below), so nothing further here.
        Ok(remote)
    }

    /// Roll LP `lp` (owned by cluster `c`) back to before `t`: unprocess
    /// every processed event with `time >= t` and cancel every
    /// uncommitted output with `cause >= t` by routing anti-messages.
    /// Returns remote messages routed.
    fn rollback(&mut self, c: u8, lp_id: u8, t: u32, _cfg: &ModelConfig) -> Result<u32, String> {
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
                let pos = lp.pending.partition_point(|&(pt, id, _)| (pt, id) < (ev.0, ev.1));
                lp.pending.insert(pos, ev);
            } else {
                i += 1;
            }
        }
        lp.lvt = lp.processed.iter().map(|&(pt, _, _)| pt).max().unwrap_or(0);
        // Cancel uncommitted outputs caused at or after t.
        let cancelled: Vec<SentRec> = {
            let lp = &mut self.lps[lp_id as usize];
            let (keep, cancel): (Vec<SentRec>, Vec<SentRec>) =
                lp.sent.iter().partition(|r| r.cause < t);
            lp.sent = keep;
            cancel
        };
        let mut remote = 0u32;
        for r in cancelled {
            let anti = Msg {
                id: r.id,
                dst: r.dst,
                time: r.time,
                hops: 0,
                anti: true,
                ack: false,
                origin: c,
            };
            let dest_cluster = self.clusters[c as usize].assignment[r.dst as usize];
            remote += 1;
            self.clusters[dest_cluster as usize].inbox.push_back(anti);
        }
        Ok(remote)
    }

    /// Pop and process one inbox message for cluster `c`, applying the
    /// lossy-mode wire protocol: acks clear the local retransmit record,
    /// data messages are acknowledged to their origin and deduplicated
    /// against [`State::delivered`] before delivery. Returns the number
    /// of remote messages routed (acks included — a flush round must not
    /// strand one in a channel).
    fn drain_one(&mut self, c: u8, cfg: &ModelConfig) -> Result<u32, String> {
        let m = self.clusters[c as usize].inbox.pop_front().expect("drain needs a message");
        if m.ack {
            self.clusters[c as usize].unacked.remove(&m.id);
            return Ok(0);
        }
        if cfg.lossy && !m.anti {
            let dup = self.delivered.contains(&m.id);
            let ack = Msg {
                id: m.id,
                dst: m.dst,
                time: m.time,
                hops: 0,
                anti: false,
                ack: true,
                origin: c,
            };
            self.clusters[m.origin as usize].inbox.push_back(ack);
            if dup {
                // The historical bug: the receiver forgets its dedup set
                // and executes the retransmitted copy as a fresh event.
                if cfg.bug == Some(Bug::RetransmitDoubleDelivery) {
                    return Ok(1 + self.deliver(c, m, cfg)?);
                }
                return Ok(1);
            }
            self.delivered.insert(m.id);
            return Ok(1 + self.deliver(c, m, cfg)?);
        }
        self.deliver(c, m, cfg)
    }

    /// Apply `step`. Returns the step label, or a violation message.
    pub fn apply(&mut self, step: Step, cfg: &ModelConfig) -> Result<String, String> {
        let label = step.label();
        match step {
            Step::Drain(c) => {
                self.clusters[c as usize].fresh_gvt = false;
                self.drain_one(c, cfg)?;
            }
            Step::Execute(c) => {
                let cl = &self.clusters[c as usize];
                let (_, lp_id) = cl
                    .owned
                    .iter()
                    .filter_map(|&l| self.lps[l as usize].pending.first().map(|&(t, _, _)| (t, l)))
                    .min()
                    .expect("execute needs a pending event");
                let (t, id, hops) = self.lps[lp_id as usize].pending.remove(0);
                let lp = &mut self.lps[lp_id as usize];
                lp.lvt = t;
                lp.processed.push((t, id, hops));
                if hops > 0 {
                    let dst = ((lp_id as usize + 1) % self.lps.len()) as u8;
                    let at = t + 1 + (lp_id as u32 % 2);
                    let new_id = self.next_id;
                    self.next_id += 1;
                    self.lps[lp_id as usize].sent.push(SentRec {
                        id: new_id,
                        dst,
                        time: at,
                        cause: t,
                    });
                    let msg = Msg {
                        id: new_id,
                        dst,
                        time: at,
                        hops: hops - 1,
                        anti: false,
                        ack: false,
                        origin: c,
                    };
                    let dest_cluster = self.clusters[c as usize].assignment[dst as usize];
                    if dest_cluster == c {
                        self.deliver(c, msg, cfg)?;
                    } else {
                        if cfg.lossy {
                            // Remote sends go into the retransmit buffer
                            // until acknowledged; local delivery is
                            // in-process and cannot be lost.
                            self.clusters[c as usize].unacked.insert(new_id, (dst, at, hops - 1));
                        }
                        self.clusters[dest_cluster as usize].inbox.push_back(msg);
                    }
                }
                let cl = &mut self.clusters[c as usize];
                cl.fresh_gvt = false;
                cl.executed_since_gvt += 1;
                if cl.executed_since_gvt >= cfg.gvt_period {
                    self.requested = true;
                }
            }
            Step::RequestGvt(_) => self.requested = true,
            Step::EnterGvt(c) => {
                self.clusters[c as usize].phase = Phase::GvtEnterBar;
                if self.all_in(Phase::GvtEnterBar) {
                    for cl in &mut self.clusters {
                        cl.phase = Phase::FlushDrain;
                        cl.routed_round = 0;
                    }
                }
            }
            Step::FlushDrain(c) => {
                let routed = self.drain_one(c, cfg)?;
                // The historical bug: anti-messages routed by a flush
                // drain were not counted, so the flush could terminate
                // with a transmission still in flight.
                if cfg.bug != Some(Bug::DropFlushTransmission) {
                    self.clusters[c as usize].routed_round += routed;
                }
            }
            Step::FlushArrive(c) => {
                self.clusters[c as usize].phase = Phase::FlushBar;
                if self.all_in(Phase::FlushBar) {
                    let total: u32 = self.clusters.iter().map(|cl| cl.routed_round).sum();
                    for cl in &mut self.clusters {
                        cl.routed_round = 0;
                        cl.phase = if total == 0 { Phase::MinPub } else { Phase::FlushDrain };
                    }
                }
            }
            Step::PublishMin(c) => {
                let cl = &self.clusters[c as usize];
                // Unacknowledged transmissions are in doubt — possibly
                // lost and awaiting retransmission — so their receive
                // times bound the local minimum exactly like pending
                // events (the runtime's `unacked_min_recv`).
                let min = cl
                    .owned
                    .iter()
                    .filter_map(|&l| self.lps[l as usize].pending.first().map(|&(t, _, _)| t))
                    .chain(cl.unacked.values().map(|&(_, t, _)| t))
                    .min()
                    .unwrap_or(INF);
                self.clusters[c as usize].local_min = min;
                self.clusters[c as usize].phase = Phase::MinBar;
                if self.all_in(Phase::MinBar) {
                    self.finish_gvt_round(cfg)?;
                }
            }
            Step::MigApply(c) => {
                let plan = self.plan.clone();
                for mv in &plan {
                    if !move_is_valid(mv, &self.clusters[c as usize].assignment, cfg.clusters) {
                        continue;
                    }
                    self.clusters[c as usize].assignment[mv.lp as usize] = mv.to;
                    if mv.from == c {
                        // The historical bug: the source keeps executing
                        // the LP it just handed off.
                        if cfg.bug != Some(Bug::DoubleOwnerMigration) {
                            self.clusters[c as usize].owned.remove(&mv.lp);
                        }
                        self.movers[mv.to as usize].push(mv.lp);
                    }
                }
                self.clusters[c as usize].phase = Phase::MigApplyBar;
                if self.all_in(Phase::MigApplyBar) {
                    for cl in &mut self.clusters {
                        cl.phase = Phase::MigAdopt;
                    }
                }
            }
            Step::MigAdopt(c) => {
                let arrivals = std::mem::take(&mut self.movers[c as usize]);
                for lp in arrivals {
                    self.clusters[c as usize].owned.insert(lp);
                }
                let cl = &mut self.clusters[c as usize];
                cl.phase = Phase::Run;
                cl.executed_since_gvt = 0;
                cl.fresh_gvt = true;
            }
            Step::DropFront(c) => {
                let m = self.clusters[c as usize].inbox.pop_front().expect("drop needs a message");
                debug_assert!(!m.anti, "anti-messages travel the reliable channel");
                self.drops_used += 1;
            }
            Step::Retransmit(c) => {
                let (&id, &(dst, time, hops)) = self.clusters[c as usize]
                    .unacked
                    .first_key_value()
                    .expect("retransmit needs an unacked record");
                let msg = Msg { id, dst, time, hops, anti: false, ack: false, origin: c };
                // Routed by the *current* table — the LP may have
                // migrated since the original send.
                let dest_cluster = self.clusters[c as usize].assignment[dst as usize];
                self.clusters[dest_cluster as usize].inbox.push_back(msg);
                self.retransmits_used += 1;
            }
        }
        Ok(label)
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
        for (ci, cl) in self.clusters.iter().enumerate() {
            if let Some(m) = cl.inbox.front() {
                return Err(format!(
                    "flush postcondition violated: transmission id {} (t={}) still in cluster {ci}'s channel at GVT agreement ({}) — flush exited early",
                    m.id,
                    m.time,
                    if new_gvt == INF { "∞".to_string() } else { new_gvt.to_string() }
                ));
            }
        }
        // Fossil collection: commit below GVT.
        for lp in &mut self.lps {
            let mut i = 0;
            while i < lp.processed.len() {
                if lp.processed[i].0 < new_gvt {
                    let (_, id, _) = lp.processed.remove(i);
                    self.committed.insert(id);
                } else {
                    i += 1;
                }
            }
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

    /// Whether every cluster has exited.
    pub fn terminated(&self) -> bool {
        self.all_in(Phase::Exited)
    }

    /// Safety invariants checked at every reachable state. Returns a
    /// violation description, or `None`.
    pub fn check_invariants(&self) -> Option<String> {
        // 1. Every LP is owned by exactly one cluster, or is in exactly
        //    one movers buffer mid-handoff.
        for lp in 0..self.lps.len() as u8 {
            let owners = self.clusters.iter().filter(|cl| cl.owned.contains(&lp)).count();
            let moving =
                self.movers.iter().map(|m| m.iter().filter(|&&l| l == lp).count()).sum::<usize>();
            if owners + moving != 1 {
                return Some(format!(
                    "LP {lp} owned by {owners} cluster(s) and in {moving} handoff buffer(s) — must be exactly one total"
                ));
            }
        }
        // 2. Transmission conservation: every positive id lives in
        //    exactly one of {some inbox, some pending queue, some
        //    processed queue, committed, annihilated}. Lossy mode
        //    refines both sides: in-flight copies of an id already
        //    delivered are redundant retransmissions (the dedup set
        //    discards them), and an id found nowhere is tolerable only
        //    while a retransmit record still guarantees its recovery.
        let mut count = vec![0u32; self.next_id as usize];
        for cl in &self.clusters {
            for m in &cl.inbox {
                if !m.anti && !m.ack && !self.delivered.contains(&m.id) {
                    count[m.id as usize] += 1;
                }
            }
        }
        for lp in &self.lps {
            for &(_, id, _) in lp.pending.iter().chain(lp.processed.iter()) {
                count[id as usize] += 1;
            }
        }
        for &id in self.committed.iter().chain(self.annihilated.iter()) {
            count[id as usize] += 1;
        }
        for (id, &c) in count.iter().enumerate() {
            if c == 0 {
                let recoverable =
                    self.clusters.iter().any(|cl| cl.unacked.contains_key(&(id as u32)));
                if !recoverable {
                    return Some(format!(
                        "transmission id {id} found in 0 places with no retransmit record — lost across a GVT/migration boundary"
                    ));
                }
            } else if c != 1 {
                return Some(format!(
                    "transmission id {id} found in {c} places — duplicated across a GVT/migration boundary"
                ));
            }
        }
        // 3. At termination nothing may remain in transit.
        if self.terminated() {
            if self.clusters.iter().any(|cl| !cl.inbox.is_empty()) {
                return Some("terminated with a non-empty channel".into());
            }
            if self.movers.iter().any(|m| !m.is_empty()) {
                return Some("terminated with an LP stuck in a handoff buffer".into());
            }
            if self.lps.iter().any(|lp| !lp.orphans.is_empty()) {
                return Some("terminated with an unmatched anti-message".into());
            }
            if self.clusters.iter().any(|cl| !cl.unacked.is_empty()) {
                return Some("terminated with an unacknowledged transmission".into());
            }
            if self.lps.iter().any(|lp| !lp.pending.is_empty() || !lp.processed.is_empty()) {
                return Some("terminated with unprocessed or uncommitted events".into());
            }
        }
        None
    }
}

impl ProtocolModel for ModelConfig {
    type State = State;
    type Step = Step;

    fn initial(&self) -> State {
        State::initial(self)
    }

    fn enabled(&self, s: &State, out: &mut Vec<Step>) {
        s.enabled(self, out);
    }

    fn apply(&self, s: &mut State, step: Step) -> Result<String, String> {
        s.apply(step, self)
    }

    fn label(&self, step: Step) -> String {
        step.label()
    }

    fn check_invariants(&self, s: &State) -> Option<String> {
        s.check_invariants()
    }

    fn terminated(&self, s: &State) -> bool {
        s.terminated()
    }

    fn max_states(&self) -> usize {
        self.max_states
    }

    fn max_depth(&self) -> usize {
        self.max_depth
    }
}
