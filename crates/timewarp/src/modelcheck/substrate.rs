//! What both protocol models stand on: the lossy wire and the scripted
//! event queue, each written once.
//!
//! * [`Wire`] — per-cluster FIFO inboxes plus the chaos subsystem's
//!   ack/retransmit recovery protocol: the scheduler may lose the front
//!   of an inbox, senders keep a retransmit record per unacknowledged
//!   data message (its receive time bounds GVT while it is in doubt),
//!   receivers dedup on a `delivered` set and re-ack duplicates, and a
//!   timeout fires only when no data copy is left in flight — exactly
//!   when a real timer can expire. Drops and retransmissions are
//!   budgeted ([`LossBudget`]) to keep the schedule space finite. The
//!   wire also owns its share of the invariants: id conservation and
//!   the terminal-residue checks.
//! * [`EventQueue`] — one LP's pending and processed events under the
//!   fixed script: executing an event at `t` as source `src` with hops
//!   remaining sends one successor at `t + 1 + (src % 2)`; the unequal
//!   delays manufacture cross-cluster stragglers.
//!
//! The models keep only what is their own: [`super::barrier`] rollback,
//! anti-messages, flush rounds and the migration hand-off;
//! [`super::async_gvt`] colours, the Mattern counters and the token.

use std::collections::{BTreeSet, VecDeque};

/// Virtual-time infinity inside the models.
pub(super) const INF: u32 = u32::MAX;

/// A virtual time for violation messages (`∞` for [`INF`]).
pub(super) fn fmt_t(t: u32) -> String {
    if t == INF {
        "∞".to_string()
    } else {
        t.to_string()
    }
}

/// The lossy-channel knobs both model configurations embed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossBudget {
    /// Model a lossy inter-cluster channel with the ack/retransmit
    /// recovery protocol (the chaos subsystem's wire model).
    pub lossy: bool,
    /// Scheduler budget for dropped transmissions (data, acks and, in
    /// the async family, the token).
    pub max_drops: u32,
    /// Scheduler budget for message retransmissions.
    pub max_retransmits: u32,
}

impl LossBudget {
    /// In-process channels: nothing is lost, nothing is acknowledged.
    pub const RELIABLE: LossBudget = LossBudget { lossy: false, max_drops: 0, max_retransmits: 0 };
}

/// What a transmission is to the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum Kind {
    /// A positive message: droppable, acknowledged and deduplicated in
    /// lossy mode.
    Data,
    /// An anti-message chasing the positive with the same id. The chaos
    /// runtime carries cancellation reliably, and so does the wire.
    Anti,
    /// Acknowledgement (lossy mode): consumed by the origin of the data
    /// message, clears its retransmit record. Droppable.
    Ack,
}

/// One transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) struct Msg {
    /// Unique id (shared between a positive, its anti and its acks).
    pub id: u32,
    /// Destination LP (the async family runs one LP per cluster).
    pub dst: u8,
    /// Receive time.
    pub time: u32,
    /// Remaining hops of the script when this event executes.
    pub hops: u8,
    /// Data, anti-message or acknowledgement.
    pub kind: Kind,
    /// Sending cluster: where a data message's retransmit record lives
    /// and its acks are routed.
    pub origin: u8,
    /// Mattern colour stamped by the sender, carried end to end (always
    /// 0 in the barrier family).
    pub color: u8,
}

/// What [`Wire::drain`] took off an inbox.
pub(super) enum Drained {
    /// An acknowledgement; its retransmit record is cleared.
    Ack,
    /// The one copy the receiver acts on; `acks` counts the
    /// acknowledgements routed back for it (0 on a reliable channel and
    /// for anti-messages).
    First {
        /// The message to deliver.
        m: Msg,
        /// Acknowledgements routed by this drain.
        acks: u32,
    },
    /// A retransmitted copy of a data message already delivered:
    /// re-acknowledged (one ack routed), to be discarded.
    Duplicate(Msg),
}

/// One cluster's end of the wire.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Port {
    /// FIFO channel from all other clusters.
    inbox: VecDeque<Msg>,
    /// Retransmit buffer (lossy mode), oldest first: every remote data
    /// message sent but not yet acknowledged.
    unacked: Vec<Msg>,
}

/// The inter-cluster channels and their recovery protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) struct Wire {
    ports: Vec<Port>,
    /// Receiver-side dedup set (lossy mode): ids whose data message has
    /// been delivered once; later copies are discarded and re-acked.
    delivered: BTreeSet<u32>,
    /// Transmissions dropped so far (scheduler budget accounting).
    drops_used: u32,
    /// Retransmissions fired so far (scheduler budget accounting).
    retransmits_used: u32,
}

impl Wire {
    /// Empty channels between `clusters` clusters.
    pub fn new(clusters: usize) -> Wire {
        let port = Port { inbox: VecDeque::new(), unacked: Vec::new() };
        Wire {
            ports: vec![port; clusters],
            delivered: BTreeSet::new(),
            drops_used: 0,
            retransmits_used: 0,
        }
    }

    /// Cluster `c`'s inbox.
    pub fn inbox(&self, c: u8) -> &VecDeque<Msg> {
        &self.ports[c as usize].inbox
    }

    /// First transmission of data message `m` into cluster `to`'s inbox.
    /// In lossy mode it also enters its origin's retransmit buffer until
    /// acknowledged.
    pub fn send(&mut self, to: u8, m: Msg, loss: &LossBudget) {
        debug_assert_eq!(m.kind, Kind::Data);
        if loss.lossy {
            self.ports[m.origin as usize].unacked.push(m);
        }
        self.carry(to, m);
    }

    /// Put `m` into cluster `to`'s inbox with no retransmit record: an
    /// anti-message, or the copy a timeout re-sends.
    pub fn carry(&mut self, to: u8, m: Msg) {
        self.ports[to as usize].inbox.push_back(m);
    }

    /// Whether the scheduler may still lose a transmission.
    pub fn drops_left(&self, loss: &LossBudget) -> bool {
        loss.lossy && self.drops_used < loss.max_drops
    }

    /// Account one lost transmission.
    pub fn spend_drop(&mut self) {
        self.drops_used += 1;
    }

    /// May the channel lose the front of `c`'s inbox instead of
    /// delivering it? Data or ack, never an anti-message.
    pub fn may_drop(&self, c: u8, loss: &LossBudget) -> bool {
        self.drops_left(loss) && self.inbox(c).front().is_some_and(|m| m.kind != Kind::Anti)
    }

    /// Lose the front of `c`'s inbox.
    pub fn drop_front(&mut self, c: u8) {
        let m = self.ports[c as usize].inbox.pop_front().expect("drop needs a message");
        debug_assert!(m.kind != Kind::Anti, "anti-messages travel the reliable channel");
        self.spend_drop();
    }

    /// Whether a data copy of `id` sits in any inbox.
    fn data_copy_in_flight(&self, id: u32) -> bool {
        self.ports.iter().any(|p| p.inbox.iter().any(|m| m.kind == Kind::Data && m.id == id))
    }

    /// May a retransmit timer expire at `c`? A real timeout only fires
    /// when the wire copy of its oldest unacknowledged transmission is
    /// gone (dropped, or consumed with the ack lost); while a copy is in
    /// flight the timer is armed past its arrival.
    pub fn may_timeout(&self, c: u8, loss: &LossBudget) -> bool {
        loss.lossy
            && self.retransmits_used < loss.max_retransmits
            && self.ports[c as usize]
                .unacked
                .first()
                .is_some_and(|r| !self.data_copy_in_flight(r.id))
    }

    /// Timer expiry at `c`: spend one retransmission and hand back a
    /// copy of the oldest unacknowledged transmission for the caller to
    /// [`Wire::carry`] by its *current* routing.
    pub fn timeout(&mut self, c: u8) -> Msg {
        self.retransmits_used += 1;
        *self.ports[c as usize].unacked.first().expect("retransmit needs an unacked record")
    }

    /// Pop the front of `c`'s inbox and apply the wire protocol: an ack
    /// clears the local retransmit record; in lossy mode a data message
    /// is acknowledged to its origin and deduplicated against the
    /// `delivered` set.
    pub fn drain(&mut self, c: u8, loss: &LossBudget) -> Drained {
        let m = self.ports[c as usize].inbox.pop_front().expect("drain needs a message");
        match m.kind {
            Kind::Ack => {
                self.ports[c as usize].unacked.retain(|r| r.id != m.id);
                Drained::Ack
            }
            Kind::Data if loss.lossy => {
                self.carry(m.origin, Msg { kind: Kind::Ack, origin: c, ..m });
                if self.delivered.insert(m.id) {
                    Drained::First { m, acks: 1 }
                } else {
                    Drained::Duplicate(m)
                }
            }
            Kind::Data | Kind::Anti => Drained::First { m, acks: 0 },
        }
    }

    /// The data messages in `c`'s inbox the receiver has yet to act on
    /// (copies of an id already delivered are redundant).
    pub fn undelivered(&self, c: u8) -> impl Iterator<Item = &Msg> {
        self.inbox(c).iter().filter(|m| m.kind == Kind::Data && !self.delivered.contains(&m.id))
    }

    /// `c`'s unacknowledged transmissions that are genuinely in doubt:
    /// not delivered yet, possibly lost and awaiting retransmission.
    pub fn in_doubt(&self, c: u8) -> impl Iterator<Item = &Msg> {
        self.ports[c as usize].unacked.iter().filter(|r| !self.delivered.contains(&r.id))
    }

    /// The minimum receive time over `c`'s retransmit buffer — the
    /// runtime's `unacked_min_recv`. It bounds the cluster's local
    /// minimum exactly like a pending event, so GVT can never pass a
    /// transmission whose fate the sender does not know.
    pub fn unacked_min(&self, c: u8) -> u32 {
        self.ports[c as usize].unacked.iter().map(|r| r.time).min().unwrap_or(INF)
    }

    /// Id conservation: every id below `next_id` must be found exactly
    /// once among the undelivered data copies in flight plus `resident`
    /// (the ids the model holds in a queue or a ledger); an id found
    /// nowhere is tolerable only while a retransmit record still
    /// guarantees its recovery. Describes the first offending id.
    pub fn misplaced_id(
        &self,
        next_id: u32,
        resident: impl Iterator<Item = u32>,
    ) -> Option<String> {
        let mut count = vec![0u32; next_id as usize];
        let in_flight = (0..self.ports.len()).flat_map(|c| self.undelivered(c as u8)).map(|m| m.id);
        in_flight.chain(resident).for_each(|id| count[id as usize] += 1);
        let recoverable = |id| self.ports.iter().any(|p| p.unacked.iter().any(|r| r.id == id));
        (0..next_id).zip(count).find_map(|(id, copies)| match copies {
            1 => None,
            0 if recoverable(id) => None,
            0 => Some(format!("id {id} found in 0 places with no retransmit record — lost")),
            n => Some(format!("id {id} found in {n} places — duplicated")),
        })
    }

    /// What the wire may not hold once the protocol has terminated.
    pub fn residue(&self) -> Option<&'static str> {
        if self.ports.iter().any(|p| !p.inbox.is_empty()) {
            Some("terminated with a non-empty channel")
        } else if self.ports.iter().any(|p| !p.unacked.is_empty()) {
            Some("terminated with an unacknowledged transmission")
        } else {
            None
        }
    }
}

/// One pending or processed event: `(time, id, hops)`.
pub(super) type Ev = (u32, u32, u8);

/// One LP's events under the fixed script.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) struct EventQueue {
    /// Unprocessed events, sorted by `(time, id)`.
    pub pending: Vec<Ev>,
    /// Processed, uncommitted events in execution order.
    pub processed: Vec<Ev>,
}

impl EventQueue {
    /// The script's seed for source `src`: one event, id `src`, at
    /// `1 + (src % 2)`, carrying `hops` hops.
    pub fn seeded(src: u32, hops: u8) -> EventQueue {
        EventQueue { pending: vec![(1 + src % 2, src, hops)], processed: Vec::new() }
    }

    /// Insert `ev` into the pending set, keeping `(time, id)` order.
    pub fn insert(&mut self, ev: Ev) {
        let pos = self.pending.partition_point(|&(t, id, _)| (t, id) < (ev.0, ev.1));
        self.pending.insert(pos, ev);
    }

    /// Receive time of the lowest pending event.
    pub fn next_time(&self) -> Option<u32> {
        self.pending.first().map(|&(t, _, _)| t)
    }

    /// Execute the lowest pending event as source `src`. Returns its
    /// time and, while the chain has hops left, the scripted successor's
    /// `(time, hops)`.
    pub fn execute(&mut self, src: u8) -> (u32, Option<(u32, u8)>) {
        let (t, id, hops) = self.pending.remove(0);
        self.processed.push((t, id, hops));
        (t, (hops > 0).then(|| (t + 1 + u32::from(src % 2), hops - 1)))
    }

    /// Fossil collection: move every processed event below `gvt` into
    /// the `committed` ledger.
    pub fn commit_below(&mut self, gvt: u32, committed: &mut BTreeSet<u32>) {
        self.processed.retain(|&(t, id, _)| {
            if t < gvt {
                committed.insert(id);
            }
            t >= gvt
        });
    }

    /// Ids resident in this queue, pending or processed.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.pending.iter().chain(&self.processed).map(|&(_, id, _)| id)
    }

    /// Neither unprocessed nor uncommitted events.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty() && self.processed.is_empty()
    }
}
