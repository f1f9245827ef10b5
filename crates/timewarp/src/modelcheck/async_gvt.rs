//! The asynchronous Mattern two-color token GVT protocol family.
//!
//! The ROADMAP's multi-process executive replaces the threaded
//! executive's flush-and-barrier GVT ([`super::barrier`]) with an
//! asynchronous token protocol: computation never stops while GVT is
//! being agreed. This model abstracts the protocol the future executive
//! will implement, so it can be proved exhaustively at small bounds
//! *before* any distributed code is written against it.
//!
//! # The protocol
//!
//! Each cluster carries a **color** (an epoch parity, 0/1) and stamps
//! every remote message with its current color. Per-color cumulative
//! counters `sent[c]`/`recvd[c]` count remote data messages; they are
//! never reset — only global *sums* are interpreted. A GVT round,
//! driven by the fixed initiator (cluster 0), is three token waves over
//! the ring `0 → 1 → … → n−1 → 0`:
//!
//! 1. **Count** — the first visit flips each cluster to the new color
//!    (subsequent sends are "red"); every visit adds the cluster's
//!    `sent[old] − recvd[old]` to the token. If the accumulated count
//!    at return is not zero, old-color ("white") messages are still in
//!    flight and the initiator relaunches the wave; once every cluster
//!    has flipped, `sent[old]` is frozen, so sampled sums only shrink
//!    and a zero sum proves the old epoch's messages fully drained.
//! 2. **Sample** — with white messages provably drained, one wave
//!    collects `m_clock` (min over pending events and in-doubt unacked
//!    sends) and `m_send` (min timestamp stamped on new-color sends
//!    this epoch, covering red messages still in flight). The new GVT
//!    is `min(m_clock, m_send)`.
//! 3. **Commit** — one wave carries the agreed GVT; each visit fossil-
//!    collects locally (`gvt_commit`). A round concluding at +∞
//!    terminates the protocol.
//!
//! Computation ([`AStep::Execute`]) and message delivery interleave
//! freely with every wave — there is no barrier anywhere, which is
//! exactly the schedule space the explorer must cover.
//!
//! # Abstraction choices (and why they are sound)
//!
//! * One LP per cluster, on the scripted event queue the barrier model
//!   runs too (`substrate`): executing an event at `t` with
//!   `hops` remaining sends one message to the next cluster at
//!   `t + 1 + (c % 2)`; the skewed delays manufacture cross-cluster
//!   stragglers.
//! * **No rollback in this family.** GVT safety is a property of
//!   unprocessed minima and in-flight timestamps only; a straggler is
//!   simply inserted into the pending set it would have rolled back
//!   into. The barrier family keeps full rollback/anti-message
//!   machinery; composing Mattern with cancellation is the distributed
//!   executive's job and will extend this model when it lands.
//! * The token rides a separate control channel (token arrival is
//!   *not* FIFO with data — the protocol must tolerate overtaking, and
//!   the explorer checks that it does). Receive-and-forward is one
//!   atomic step; the interesting races are token-vs-compute and
//!   token-vs-drain, which remain fully interleaved.
//! * **Lossy mode** is the shared wire's (`substrate`), the
//!   same one the barrier model composes: drops, retransmit records,
//!   acks and dedup live there. This model adds what the token needs:
//!   the retransmit buffer feeds `m_clock` (GVT never passes an in-doubt
//!   send), `recvd` counts first deliveries only (retransmissions cannot
//!   corrupt the Mattern counters), and the in-flight token may be lost
//!   too — spending the same drop budget — and is retransmitted from the
//!   holder's backup.
//!
//! # The five checked invariants
//!
//! 1. **GVT safety** — at computation, the omniscient true minimum
//!    over every pending event, in-flight data message and unacked
//!    record is compared against the token's answer: computed GVT must
//!    never exceed it.
//! 2. **No premature fossil** — steady-state: nothing (pending,
//!    in-flight, in-doubt) may sit below the committed GVT, and a
//!    delivery below GVT is a violation at the drain that observes it.
//! 3. **GVT monotonicity** — each round's GVT is ≥ the previous.
//! 4. **Conservation** — every message id lives in exactly one of
//!    {inbox, pending, processed, committed}, or is recoverable via an
//!    unacked record; and per color, `Σ sent − Σ recvd` equals the
//!    number of distinct undelivered messages the channels hold.
//! 5. **Termination** — deadlock-freedom on every maximal path (the
//!    explorer reports any stuck non-terminal state), and the
//!    terminated state holds no residue: empty channels, idle token,
//!    balanced counters, no unprocessed or in-doubt work.
//!
//! Two seeded historical bug shapes ([`AsyncBug`]) prove the checker
//! catches the classic async-GVT implementation mistakes.

use std::collections::BTreeSet;

use super::substrate::{fmt_t, Drained, EventQueue, Kind, LossBudget, Msg, Wire, INF};
use super::ProtocolModel;

/// The re-injectable async-GVT bug shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsyncBug {
    /// The sender forgets to re-color its output stream after observing
    /// the token: flips its epoch color but keeps stamping messages
    /// with the old ("white") color. A white message sent after the
    /// sender's count sample is invisible to the concluding wave and
    /// uncovered by `m_send`, so GVT overshoots its timestamp.
    WhiteAfterToken,
    /// The initiator concludes the drain on a counter snapshot taken at
    /// round launch (a shared-memory stats read) instead of the counts
    /// the token accumulated at each visit: messages sent between the
    /// snapshot and a cluster's flip are missed, the round concludes
    /// with white messages in flight, and fossil collection is
    /// premature.
    StaleCounterSnapshot,
}

/// Checker configuration for the async family: topology, workload
/// bound, protocol knobs, and an optional injected bug.
#[derive(Debug, Clone)]
pub struct AsyncGvtConfig {
    /// Ring size (≥ 2); cluster 0 is the fixed initiator.
    pub clusters: usize,
    /// Length of each cluster's seeded event chain (workload bound).
    pub hops: u8,
    /// The initiator launches a round after this many local executes
    /// (in addition to the idle trigger).
    pub gvt_period: u32,
    /// The channels: reliable, or lossy (message and token loss +
    /// retransmit; the token's loss spends the same drop budget).
    pub loss: LossBudget,
    /// Injected bug, if any.
    pub bug: Option<AsyncBug>,
    /// Abort (incomplete) past this many unique states.
    pub max_states: usize,
    /// Abort any single schedule longer than this many steps.
    pub max_depth: usize,
}

impl AsyncGvtConfig {
    /// The 2-cluster acceptance configuration.
    pub fn small_2() -> AsyncGvtConfig {
        AsyncGvtConfig {
            clusters: 2,
            hops: 2,
            gvt_period: 2,
            loss: LossBudget::RELIABLE,
            bug: None,
            max_states: 40_000_000,
            max_depth: 100_000,
        }
    }

    /// The 3-cluster configuration (full bound): the token crosses a
    /// cluster that never computes, which must still flip and count.
    pub fn small_3() -> AsyncGvtConfig {
        AsyncGvtConfig { clusters: 3, ..AsyncGvtConfig::small_2() }
    }

    /// The lossy acceptance configuration: one droppable transmission
    /// (data, ack, or the token itself) and up to three retransmissions.
    pub fn lossy_2() -> AsyncGvtConfig {
        AsyncGvtConfig {
            loss: LossBudget { lossy: true, max_drops: 1, max_retransmits: 3 },
            ..AsyncGvtConfig::small_2()
        }
    }
}

/// The circulating token's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Tok {
    /// Count wave: accumulating `sent[old] − recvd[old]`. `snapshot`
    /// carries the launch-time counter sum only under
    /// [`AsyncBug::StaleCounterSnapshot`].
    Count {
        /// The epoch color being drained.
        old: u8,
        /// Accumulated outstanding-white count.
        count: i64,
        /// Launch-time counter snapshot (bug shape only; 0 otherwise).
        snapshot: i64,
    },
    /// Sample wave: accumulating the clock and red-send minima.
    Sample {
        /// The epoch color being drained.
        old: u8,
        /// Min over pending events and unacked sends of visited clusters.
        m_clock: u32,
        /// Min timestamp stamped on new-color sends this epoch.
        m_send: u32,
    },
    /// Commit wave: carrying the agreed GVT to every cluster.
    Commit {
        /// The agreed GVT.
        gvt: u32,
    },
}

/// Where the token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TokenLoc {
    /// At rest at the initiator; no round active.
    Idle,
    /// On the wire toward cluster `to`.
    InFlight {
        /// Destination cluster.
        to: u8,
        /// Payload.
        tok: Tok,
    },
    /// Dropped by the channel; the sender's backup can re-send it.
    Lost {
        /// Destination cluster of the lost copy.
        to: u8,
        /// Payload (the sender's backup).
        tok: Tok,
    },
}

/// One cluster of the async model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ACluster {
    /// Current epoch color.
    color: u8,
    /// Color actually stamped on sends. Equals `color` unless the
    /// [`AsyncBug::WhiteAfterToken`] shape is injected.
    stamp: u8,
    /// Pending events, and processed ones not yet fossil-collected.
    q: EventQueue,
    /// Cumulative remote data messages sent, per color. Never reset.
    sent: [u32; 2],
    /// Cumulative remote data messages received (first delivery only),
    /// per color. Never reset.
    recvd: [u32; 2],
    /// Min timestamp stamped on sends of each color in that color's
    /// current epoch; reset to ∞ when flipping into the color.
    min_sent: [u32; 2],
    /// Executes since the last commit, saturating at `gvt_period`.
    executed_since_gvt: u32,
}

/// The complete async-model state. `Hash` is derived over every field —
/// the explorer prunes on a 64-bit state hash.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AsyncState {
    /// All clusters, ring-ordered.
    clusters: Vec<ACluster>,
    /// The data/ack channels (the token rides its own, below).
    wire: Wire,
    /// The token.
    token: TokenLoc,
    /// Last agreed GVT.
    gvt: u32,
    /// Set when a commit wave carrying GVT = ∞ completes.
    done: bool,
    /// Fossil-collected event ids.
    committed: BTreeSet<u32>,
    /// Next fresh message id.
    next_id: u32,
}

/// One scheduler choice in the async model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AStep {
    /// Execute the cluster's lowest-timestamp pending event.
    Execute(u8),
    /// Drain one inbox message.
    Drain(u8),
    /// Lose the front of this cluster's inbox (lossy mode).
    DropFront(u8),
    /// Timer expiry: re-send the oldest unacknowledged transmission
    /// (lossy mode; enabled only when no copy is in flight).
    Retransmit(u8),
    /// The initiator launches a GVT round (`token_send`).
    TokenLaunch,
    /// A cluster receives, processes and forwards the token
    /// (`token_recv` + `token_send`; at the initiator this also
    /// evaluates the wave).
    TokenRecv(u8),
    /// Lose the in-flight token (lossy mode).
    DropToken,
    /// Re-send the lost token from the holder's backup (lossy mode).
    RetransmitToken,
}

impl AsyncState {
    /// Cluster `c`'s contribution to `m_clock`: its lowest pending event
    /// and its in-doubt unacked sends.
    fn local_min(&self, c: u8) -> u32 {
        let pending_min = self.clusters[c as usize].q.next_time().unwrap_or(INF);
        pending_min.min(self.wire.unacked_min(c))
    }

    /// Flip cluster `c` into the new epoch color (first count-wave
    /// visit). Under [`AsyncBug::WhiteAfterToken`] the stamp color is
    /// left behind — the seeded miscoloring bug.
    fn flip(&mut self, c: usize, old: u8, cfg: &AsyncGvtConfig) {
        let new = 1 - old;
        let cl = &mut self.clusters[c];
        if cl.color == old {
            cl.color = new;
            cl.min_sent[new as usize] = INF;
            if cfg.bug != Some(AsyncBug::WhiteAfterToken) {
                cl.stamp = new;
            }
        }
    }

    /// Fossil-collect cluster `c` against the agreed GVT (`gvt_commit`).
    fn fossil(&mut self, c: usize) {
        let cl = &mut self.clusters[c];
        cl.q.commit_below(self.gvt, &mut self.committed);
        cl.executed_since_gvt = 0;
    }

    /// Route one remote data message from `c` to the next ring member.
    fn send_remote(&mut self, c: u8, at: u32, hops: u8, cfg: &AsyncGvtConfig) {
        let dst = ((c as usize + 1) % cfg.clusters) as u8;
        let id = self.next_id;
        self.next_id += 1;
        let cl = &mut self.clusters[c as usize];
        let color = cl.stamp;
        cl.sent[color as usize] += 1;
        cl.min_sent[color as usize] = cl.min_sent[color as usize].min(at);
        let msg = Msg { id, dst, time: at, hops, kind: Kind::Data, origin: c, color };
        self.wire.send(dst, msg, &cfg.loss);
    }

    /// The omniscient minimum the computed GVT must never exceed: every
    /// pending event, every undelivered in-flight data message, every
    /// in-doubt (unacked, undelivered) send.
    fn true_min(&self) -> u32 {
        let mut min = INF;
        for (ci, cl) in self.clusters.iter().enumerate() {
            let c = ci as u8;
            min = min.min(cl.q.next_time().unwrap_or(INF));
            for m in self.wire.undelivered(c).chain(self.wire.in_doubt(c)) {
                min = min.min(m.time);
            }
        }
        min
    }
}

impl ProtocolModel for AsyncGvtConfig {
    type State = AsyncState;
    type Step = AStep;

    /// The initial state: every cluster white, token idle, one seeded
    /// event per cluster at `1 + (c % 2)` carrying `hops` hops.
    fn initial(&self) -> AsyncState {
        let clusters = (0..self.clusters as u32)
            .map(|c| ACluster {
                color: 0,
                stamp: 0,
                q: EventQueue::seeded(c, self.hops),
                sent: [0, 0],
                recvd: [0, 0],
                min_sent: [INF, INF],
                executed_since_gvt: 0,
            })
            .collect();
        AsyncState {
            clusters,
            wire: Wire::new(self.clusters),
            token: TokenLoc::Idle,
            gvt: 0,
            done: false,
            committed: BTreeSet::new(),
            next_id: self.clusters as u32,
        }
    }

    /// Append every enabled scheduler choice to `steps`, in
    /// deterministic order.
    fn enabled(&self, s: &AsyncState, steps: &mut Vec<AStep>) {
        for (ci, cl) in s.clusters.iter().enumerate() {
            let c = ci as u8;
            if !s.wire.inbox(c).is_empty() {
                // Drain-priority reduction (as in the barrier model): a
                // cluster with an inboxed message may only drain — the
                // "execute first" interleaving is state-equivalent to
                // the remote send landing after the execute, which the
                // explorer covers. Token steps are NOT gated here: the
                // token rides its own channel and must overtake data.
                steps.push(AStep::Drain(c));
                if s.wire.may_drop(c, &self.loss) {
                    steps.push(AStep::DropFront(c));
                }
            } else {
                if !cl.q.pending.is_empty() {
                    steps.push(AStep::Execute(c));
                }
                if s.wire.may_timeout(c, &self.loss) {
                    steps.push(AStep::Retransmit(c));
                }
            }
        }
        match s.token {
            TokenLoc::Idle => {
                let c0 = &s.clusters[0];
                let due = c0.executed_since_gvt >= self.gvt_period;
                let idle = c0.q.pending.is_empty() && s.wire.inbox(0).is_empty();
                if !s.done && (due || idle) {
                    steps.push(AStep::TokenLaunch);
                }
            }
            TokenLoc::InFlight { to, .. } => {
                steps.push(AStep::TokenRecv(to));
                if s.wire.drops_left(&self.loss) {
                    steps.push(AStep::DropToken);
                }
            }
            TokenLoc::Lost { .. } => steps.push(AStep::RetransmitToken),
        }
    }

    /// Apply `step`. Returns the step label, or a violation message.
    fn apply(&self, s: &mut AsyncState, step: AStep) -> Result<String, String> {
        let label = self.label(step);
        match step {
            AStep::Execute(c) => {
                let cl = &mut s.clusters[c as usize];
                let (_, successor) = cl.q.execute(c);
                cl.executed_since_gvt = (cl.executed_since_gvt + 1).min(self.gvt_period);
                if let Some((at, hops)) = successor {
                    s.send_remote(c, at, hops, self);
                }
            }
            AStep::Drain(c) => {
                // Only a first delivery counts toward the Mattern
                // counters; acks and re-acked duplicates are the wire's.
                if let Drained::First { m, .. } = s.wire.drain(c, &self.loss) {
                    let cl = &mut s.clusters[c as usize];
                    cl.recvd[m.color as usize] += 1;
                    if m.time < s.gvt {
                        return Err(format!(
                            "premature fossil: data message id {} delivered at t={} below committed GVT {} — the round that agreed it missed this in-flight message",
                            m.id, m.time, s.gvt
                        ));
                    }
                    cl.q.insert((m.time, m.id, m.hops));
                }
            }
            AStep::DropFront(c) => s.wire.drop_front(c),
            AStep::Retransmit(c) => {
                // The retransmitted copy keeps its original color: it is
                // the same logical message the counters already saw.
                let m = s.wire.timeout(c);
                s.wire.carry(m.dst, m);
            }
            AStep::TokenLaunch => {
                let old = s.clusters[0].color;
                s.flip(0, old, self);
                let c0 = &s.clusters[0];
                let count = c0.sent[old as usize] as i64 - c0.recvd[old as usize] as i64;
                // The seeded stale-snapshot bug: the initiator reads
                // everyone's counters once at launch (a shared stats
                // array) and will conclude the drain on that snapshot.
                let snapshot = if self.bug == Some(AsyncBug::StaleCounterSnapshot) {
                    s.clusters
                        .iter()
                        .map(|cl| cl.sent[old as usize] as i64 - cl.recvd[old as usize] as i64)
                        .sum()
                } else {
                    0
                };
                s.token = TokenLoc::InFlight { to: 1, tok: Tok::Count { old, count, snapshot } };
            }
            AStep::TokenRecv(c) => {
                let TokenLoc::InFlight { to, tok } = s.token else {
                    return Err("token-recv with no token in flight (explorer bug)".into());
                };
                debug_assert_eq!(to, c, "token received by the wrong cluster");
                let next = ((c as usize + 1) % self.clusters) as u8;
                match tok {
                    Tok::Count { old, count, snapshot } => {
                        s.flip(c as usize, old, self);
                        let cl = &s.clusters[c as usize];
                        let count =
                            count + cl.sent[old as usize] as i64 - cl.recvd[old as usize] as i64;
                        if next != 0 {
                            s.token = TokenLoc::InFlight {
                                to: next,
                                tok: Tok::Count { old, count, snapshot },
                            };
                        } else {
                            // Back at the initiator (whose contribution
                            // was added at launch/relaunch).
                            let drained = if self.bug == Some(AsyncBug::StaleCounterSnapshot) {
                                snapshot == 0
                            } else {
                                count == 0
                            };
                            let c0 = &s.clusters[0];
                            let new = 1 - old;
                            s.token = if drained {
                                TokenLoc::InFlight {
                                    to: 1,
                                    tok: Tok::Sample {
                                        old,
                                        m_clock: s.local_min(0),
                                        m_send: c0.min_sent[new as usize],
                                    },
                                }
                            } else {
                                // Relaunch the count wave with a fresh
                                // initiator contribution.
                                let count =
                                    c0.sent[old as usize] as i64 - c0.recvd[old as usize] as i64;
                                TokenLoc::InFlight {
                                    to: 1,
                                    tok: Tok::Count { old, count, snapshot },
                                }
                            };
                        }
                    }
                    Tok::Sample { old, m_clock, m_send } => {
                        let new = 1 - old;
                        let m_clock = m_clock.min(s.local_min(c));
                        let m_send = m_send.min(s.clusters[c as usize].min_sent[new as usize]);
                        if next != 0 {
                            s.token = TokenLoc::InFlight {
                                to: next,
                                tok: Tok::Sample { old, m_clock, m_send },
                            };
                        } else {
                            let new_gvt = m_clock.min(m_send);
                            // Invariant 1 — GVT safety, checked against
                            // the omniscient true minimum the protocol
                            // cannot see.
                            let true_min = s.true_min();
                            if new_gvt > true_min {
                                return Err(format!(
                                    "GVT safety violated: token computed GVT {} but the true minimum over pending events and in-flight/in-doubt messages is {} — fossil collection would be premature",
                                    fmt_t(new_gvt),
                                    fmt_t(true_min)
                                ));
                            }
                            // Invariant 3 — monotonicity across rounds.
                            if new_gvt < s.gvt {
                                return Err(format!(
                                    "GVT regressed: {} after {}",
                                    fmt_t(new_gvt),
                                    fmt_t(s.gvt)
                                ));
                            }
                            s.gvt = new_gvt;
                            s.fossil(0);
                            s.token =
                                TokenLoc::InFlight { to: 1, tok: Tok::Commit { gvt: new_gvt } };
                        }
                    }
                    Tok::Commit { gvt } => {
                        s.fossil(c as usize);
                        if next != 0 {
                            s.token = TokenLoc::InFlight { to: next, tok: Tok::Commit { gvt } };
                        } else {
                            if gvt == INF {
                                s.done = true;
                            }
                            s.token = TokenLoc::Idle;
                        }
                    }
                }
            }
            AStep::DropToken => {
                let TokenLoc::InFlight { to, tok } = s.token else {
                    return Err("token-drop with no token in flight (explorer bug)".into());
                };
                s.token = TokenLoc::Lost { to, tok };
                s.wire.spend_drop();
            }
            AStep::RetransmitToken => {
                let TokenLoc::Lost { to, tok } = s.token else {
                    return Err("token-retransmit with no lost token (explorer bug)".into());
                };
                // Recovery from the sender's backup; deterministic and
                // unbudgeted (loss itself consumes the drop budget).
                s.token = TokenLoc::InFlight { to, tok };
            }
        }
        Ok(label)
    }

    /// Human-readable label for counterexample traces.
    fn label(&self, step: AStep) -> String {
        match step {
            AStep::Execute(c) => format!("c{c}:execute"),
            AStep::Drain(c) => format!("c{c}:drain"),
            AStep::DropFront(c) => format!("c{c}:drop-front"),
            AStep::Retransmit(c) => format!("c{c}:retransmit"),
            AStep::TokenLaunch => "c0:token-send".into(),
            AStep::TokenRecv(c) => format!("c{c}:token-recv"),
            AStep::DropToken => "token-drop".into(),
            AStep::RetransmitToken => "token-retransmit".into(),
        }
    }

    /// Safety invariants checked at every reachable state (invariants
    /// 2, 4 and 5; 1 and 3 are checked at GVT computation, and
    /// deadlock-freedom by the explorer).
    fn check_invariants(&self, s: &AsyncState) -> Option<String> {
        // Invariant 2 — nothing below the committed GVT.
        if s.gvt > 0 {
            for (ci, cl) in s.clusters.iter().enumerate() {
                if let Some(&(t, id, _)) = cl.q.pending.first() {
                    if t < s.gvt {
                        return Some(format!(
                            "premature fossil: cluster {ci} holds pending event id {id} at t={t} below committed GVT {} — history below GVT is no longer immutable",
                            fmt_t(s.gvt)
                        ));
                    }
                }
                if let Some(m) = s.wire.undelivered(ci as u8).find(|m| m.time < s.gvt) {
                    return Some(format!(
                        "GVT safety violated: undelivered message id {} at t={} is in flight below committed GVT {}",
                        m.id,
                        m.time,
                        fmt_t(s.gvt)
                    ));
                }
                if let Some(r) = s.wire.in_doubt(ci as u8).find(|r| r.time < s.gvt) {
                    return Some(format!(
                        "GVT safety violated: in-doubt transmission id {} at t={} sits below committed GVT {}",
                        r.id,
                        r.time,
                        fmt_t(s.gvt)
                    ));
                }
            }
        }
        // Invariant 4a — id conservation: every id in exactly one of
        // {inbox, pending, processed, committed}, else recoverable.
        let resident =
            s.clusters.iter().flat_map(|cl| cl.q.ids()).chain(s.committed.iter().copied());
        if let Some(fault) = s.wire.misplaced_id(s.next_id, resident) {
            return Some(format!("conservation violated: message {fault}"));
        }
        // Invariant 4b — Mattern counter conservation: per color, the
        // counter sums must equal the distinct undelivered messages the
        // channels actually hold.
        for color in 0..2u8 {
            let expected: i64 = s
                .clusters
                .iter()
                .map(|cl| cl.sent[color as usize] as i64 - cl.recvd[color as usize] as i64)
                .sum();
            let mut outstanding: BTreeSet<u32> = BTreeSet::new();
            for c in 0..s.clusters.len() as u8 {
                let in_color = |m: &&Msg| m.color == color;
                outstanding.extend(s.wire.undelivered(c).filter(in_color).map(|m| m.id));
                outstanding.extend(s.wire.in_doubt(c).filter(in_color).map(|r| r.id));
            }
            if expected != outstanding.len() as i64 {
                return Some(format!(
                    "Mattern counter conservation violated for color {color}: counters say {expected} outstanding, channels hold {}",
                    outstanding.len()
                ));
            }
        }
        // Invariant 5 — terminal residue.
        if s.done {
            if let Some(residue) = s.wire.residue() {
                return Some(residue.into());
            }
            if s.clusters.iter().any(|cl| !cl.q.is_empty()) {
                return Some("terminated with unprocessed or uncommitted events".into());
            }
            if s.token != TokenLoc::Idle {
                return Some("terminated with the token still in flight".into());
            }
            for color in 0..2usize {
                let sent: u32 = s.clusters.iter().map(|cl| cl.sent[color]).sum();
                let recvd: u32 = s.clusters.iter().map(|cl| cl.recvd[color]).sum();
                if sent != recvd {
                    return Some(format!(
                        "terminated with unbalanced color-{color} counters: {sent} sent vs {recvd} received"
                    ));
                }
            }
        }
        None
    }

    fn terminated(&self, s: &AsyncState) -> bool {
        s.done
    }

    fn max_states(&self) -> usize {
        self.max_states
    }

    fn max_depth(&self) -> usize {
        self.max_depth
    }
}
