//! Time-stamped event messages and their total order.

use crate::ids::{EventUid, LpId};
use crate::time::VirtualTime;
use serde::{Deserialize, Serialize};

/// Total order key for events.
///
/// Time Warp requires a *total* order over events so that every execution
/// (sequential oracle, virtual-machine runtime, real-thread runtime) commits
/// the same trace. Ties on receive time are broken by destination LP, then by
/// the globally unique [`EventUid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventKey {
    /// Receive (execution) timestamp.
    pub recv_time: VirtualTime,
    /// Destination LP.
    pub dst: LpId,
    /// Unique identity of the event.
    pub uid: EventUid,
}

/// A positive event message.
///
/// Anti-messages are not represented as a variant here: they carry no payload
/// and only need the [`EventKey`] to find their positive twin, so the
/// runtimes ship them as [`Msg::Anti`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event<P> {
    /// Total-order key (receive time, destination, uid).
    pub key: EventKey,
    /// Timestamp at which the sender scheduled this event (≤ `recv_time`);
    /// used for GVT transient-message accounting and sanity checks.
    pub send_time: VirtualTime,
    /// Model-specific payload.
    pub payload: P,
}

impl<P> Event<P> {
    #[inline]
    pub fn recv_time(&self) -> VirtualTime {
        self.key.recv_time
    }
    #[inline]
    pub fn dst(&self) -> LpId {
        self.key.dst
    }
    #[inline]
    pub fn uid(&self) -> EventUid {
        self.key.uid
    }
}

/// A message travelling between simulation threads: either a positive event
/// or an anti-message cancelling one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Msg<P> {
    /// A positive event to be inserted into the destination's pending set.
    Event(Event<P>),
    /// An anti-message: annihilates the pending event with the same key, or
    /// rolls the destination LP back if the event was already processed.
    Anti(EventKey),
}

impl<P> Msg<P> {
    /// Key of the (positive or anti) message.
    #[inline]
    pub fn key(&self) -> EventKey {
        match self {
            Msg::Event(e) => e.key,
            Msg::Anti(k) => *k,
        }
    }

    /// Receive timestamp of the message.
    #[inline]
    pub fn recv_time(&self) -> VirtualTime {
        self.key().recv_time
    }

    /// Destination LP.
    #[inline]
    pub fn dst(&self) -> LpId {
        self.key().dst
    }

    /// `true` for anti-messages.
    #[inline]
    pub fn is_anti(&self) -> bool {
        matches!(self, Msg::Anti(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: f64, dst: u32, src: u32, seq: u64) -> EventKey {
        EventKey {
            recv_time: VirtualTime::from_f64(t),
            dst: LpId(dst),
            uid: EventUid::new(LpId(src), seq),
        }
    }

    #[test]
    fn order_by_time_first() {
        assert!(key(1.0, 9, 9, 9) < key(2.0, 0, 0, 0));
    }

    #[test]
    fn ties_broken_by_dst_then_uid() {
        assert!(key(1.0, 1, 5, 5) < key(1.0, 2, 0, 0));
        assert!(key(1.0, 1, 1, 0) < key(1.0, 1, 1, 1));
        assert!(key(1.0, 1, 1, 7) < key(1.0, 1, 2, 0));
    }

    #[test]
    fn msg_accessors() {
        let k = key(3.0, 4, 5, 6);
        let m: Msg<u8> = Msg::Anti(k);
        assert!(m.is_anti());
        assert_eq!(m.key(), k);
        assert_eq!(m.dst(), LpId(4));
        assert_eq!(m.recv_time(), VirtualTime::from_f64(3.0));
        let e = Msg::Event(Event {
            key: k,
            send_time: VirtualTime::ZERO,
            payload: 1u8,
        });
        assert!(!e.is_anti());
        assert_eq!(e.key(), k);
    }
}
