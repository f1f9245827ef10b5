//! Events, anti-messages and their identities.

use crate::time::VTime;

/// Identifier of a logical process.
pub type LpId = u32;

/// Globally unique, deterministic event identity: the sending LP plus its
/// per-LP output sequence number. The sequence counter is saved and
/// restored with LP state, so a re-execution after rollback regenerates
/// the *same* ids for the same sends — the property both lazy cancellation
/// and anti-message matching rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    /// Sending LP.
    pub src: LpId,
    /// Sender-local sequence number.
    pub seq: u64,
}

/// A positive event message.
#[derive(Debug, Clone, PartialEq)]
pub struct Event<M> {
    /// Identity (also identifies the matching anti-message).
    pub id: EventId,
    /// Destination LP.
    pub dst: LpId,
    /// Virtual time at which it was sent.
    pub send_time: VTime,
    /// Virtual time at which it must be received/executed.
    pub recv_time: VTime,
    /// Application payload.
    pub msg: M,
}

/// An anti-message: cancels the positive event with the same [`EventId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AntiEvent {
    /// Identity of the positive event to annihilate.
    pub id: EventId,
    /// Destination LP (same as the positive's).
    pub dst: LpId,
    /// Send time of the positive event.
    pub send_time: VTime,
    /// Receive time of the positive event.
    pub recv_time: VTime,
}

/// What travels between clusters: a positive event or an anti-message.
#[derive(Debug, Clone, PartialEq)]
pub enum Transmission<M> {
    /// A positive application event.
    Positive(Event<M>),
    /// An anti-message.
    Anti(AntiEvent),
}

impl<M> Transmission<M> {
    /// Destination LP of either kind.
    pub fn dst(&self) -> LpId {
        match self {
            Transmission::Positive(e) => e.dst,
            Transmission::Anti(a) => a.dst,
        }
    }

    /// Event identity of either kind (an anti carries the id of the
    /// positive it annihilates).
    pub fn id(&self) -> EventId {
        match self {
            Transmission::Positive(e) => e.id,
            Transmission::Anti(a) => a.id,
        }
    }

    /// Receive time of either kind.
    pub fn recv_time(&self) -> VTime {
        match self {
            Transmission::Positive(e) => e.recv_time,
            Transmission::Anti(a) => a.recv_time,
        }
    }

    /// Send time of either kind.
    pub fn send_time(&self) -> VTime {
        match self {
            Transmission::Positive(e) => e.send_time,
            Transmission::Anti(a) => a.send_time,
        }
    }

    /// Whether this is a positive event.
    pub fn is_positive(&self) -> bool {
        matches!(self, Transmission::Positive(_))
    }
}

impl<M> Event<M> {
    /// The anti-message that cancels this event.
    pub fn anti(&self) -> AntiEvent {
        AntiEvent {
            id: self.id,
            dst: self.dst,
            send_time: self.send_time,
            recv_time: self.recv_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> Event<u8> {
        Event {
            id: EventId { src: 1, seq },
            dst: 2,
            send_time: VTime::from(3),
            recv_time: VTime::from(7),
            msg: 42,
        }
    }

    #[test]
    fn anti_matches_positive() {
        let e = ev(5);
        let a = e.anti();
        assert_eq!(a.id, e.id);
        assert_eq!(a.dst, e.dst);
        assert_eq!(a.recv_time, e.recv_time);
    }

    #[test]
    fn transmission_accessors() {
        let t: Transmission<u8> = Transmission::Positive(ev(1));
        assert_eq!(t.dst(), 2);
        assert_eq!(t.recv_time(), VTime::from(7));
        assert_eq!(t.send_time(), VTime::from(3));
        assert!(t.is_positive());
        let a: Transmission<u8> = Transmission::Anti(ev(1).anti());
        assert!(!a.is_positive());
        assert_eq!(a.dst(), 2);
    }

    #[test]
    fn event_ids_order_by_src_then_seq() {
        let a = EventId { src: 1, seq: 9 };
        let b = EventId { src: 2, seq: 0 };
        assert!(a < b);
    }
}
