//! Batched inter-thread sends — the one way a message enters an input
//! queue (DESIGN §16.3).
//!
//! A [`SendBatcher`] groups one sender's messages by destination and lands
//! each group with one bulk push into a [`SendSink`]: a [`MessagePlane`] as
//! it is, or thread-rt's `RtShared`, which puts its backpressure wait in
//! front of the push. Each thread's [`Participant`](crate::Participant)
//! owns one and lands its outbox after every cycle and inside every fold
//! and cut; [`build_engines`](crate::build_engines) and
//! [`IngestPort::pump`](crate::IngestPort::pump) land through one too.
//!
//! **GVT coverage.** A buffered message is invisible to its destination's
//! queue minimum, so [`SendBatcher::buffer`] publishes the sender's window
//! first (coverage rule 1 of [`crate::plane`]). The window is reset only by
//! the sender's own fold, hence the one hard rule, *flush before every
//! fold*: `Participant::fold` and `cut` land the outbox before they fold.
//! A destination buffer that reaches the cap lands at once.

use crate::engine::Outbound;
use crate::event::Msg;
use crate::plane::MessagePlane;

/// The per-destination cap every runtime's batchers use.
pub(crate) const CAP: usize = 64;

/// Where a [`SendBatcher`] lands its batches.
pub trait SendSink<P> {
    /// The plane whose send windows cover buffered messages.
    fn plane(&self) -> &MessagePlane<P>;

    /// Move `msgs` (possibly none) into `dst`'s input queue under one lock,
    /// in order, leaving `msgs` empty. Every message is already under its
    /// sender's window.
    fn push_batch(&self, dst: usize, msgs: &mut Vec<Msg<P>>);
}

/// One sender's accumulator of outgoing messages, grouped by destination
/// thread. It is not shared.
pub struct SendBatcher<P> {
    /// One buffer per destination thread.
    bufs: Vec<Vec<Msg<P>>>,
    /// Destinations with (possibly) non-empty buffers. May contain
    /// duplicates after a batch-full flush; `flush` tolerates empties.
    dirty: Vec<usize>,
    /// Per-destination flush threshold.
    cap: usize,
}

impl<P> SendBatcher<P> {
    /// `num_dsts` is the number of threads messages can target.
    pub fn new(num_dsts: usize, cap: usize) -> Self {
        SendBatcher {
            bufs: (0..num_dsts).map(|_| Vec::new()).collect(),
            dirty: Vec::new(),
            cap: cap.max(1),
        }
    }

    /// Buffer one message of sender `me` for thread `dst`, publishing the
    /// sender's window first so GVT accounting covers it from this instant.
    pub fn buffer(&mut self, sink: &impl SendSink<P>, me: usize, dst: usize, msg: Msg<P>) {
        sink.plane().publish_window(me, msg.recv_time());
        let buf = &mut self.bufs[dst];
        if buf.is_empty() {
            self.dirty.push(dst);
        }
        buf.push(msg);
        if buf.len() >= self.cap {
            sink.push_batch(dst, buf);
        }
    }

    /// Land every buffered message in its destination queue. Order within
    /// each destination is preserved; cross-destination order is not (the
    /// pending set tolerates any inter-uid interleaving).
    pub fn flush(&mut self, sink: &impl SendSink<P>) {
        for dst in self.dirty.drain(..) {
            sink.push_batch(dst, &mut self.bufs[dst]);
        }
    }

    /// Buffer a whole outbox of sender `me`, then [`Self::flush`].
    pub fn land(&mut self, sink: &impl SendSink<P>, me: usize, out: &mut Vec<Outbound<P>>) {
        for (dst, msg) in out.drain(..) {
            self.buffer(sink, me, dst.index(), msg);
        }
        self.flush(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKey};
    use crate::ids::{EventUid, LpId};
    use crate::time::VirtualTime;

    fn msg(t: f64, dst_lp: u32, seq: u64) -> Msg<u8> {
        Msg::Event(Event {
            key: EventKey {
                recv_time: VirtualTime::from_f64(t),
                dst: LpId(dst_lp),
                uid: EventUid::new(LpId(0), seq),
            },
            send_time: VirtualTime::ZERO,
            payload: 0,
        })
    }

    #[test]
    fn buffered_messages_stay_gvt_covered_until_flush() {
        let plane = MessagePlane::new(2);
        let mut b: SendBatcher<u8> = SendBatcher::new(2, 64);
        b.buffer(&plane, 0, 1, msg(5.0, 1, 0));
        // Nothing queued yet, but the sender's window covers t=5.
        assert_eq!(plane.len(1), 0);
        assert!(!plane.window_is_clear(0));
        assert_eq!(plane.transient_min(), VirtualTime::from_f64(5.0));
        b.flush(&plane);
        assert_eq!(plane.len(1), 1);
        let mut out = Vec::new();
        assert_eq!(plane.drain(1, &mut out), 1);
        assert_eq!(out[0].recv_time(), VirtualTime::from_f64(5.0));
    }

    #[test]
    fn batch_full_flushes_inline_and_preserves_fifo() {
        let plane = MessagePlane::new(2);
        let mut b: SendBatcher<u8> = SendBatcher::new(2, 3);
        for i in 0..7 {
            b.buffer(&plane, 0, 1, msg(1.0 + i as f64, 1, i as u64));
        }
        // cap=3: two inline flushes (at 3 and 6) leave one buffered.
        assert_eq!(plane.len(1), 6);
        b.flush(&plane);
        let mut out = Vec::new();
        assert_eq!(plane.drain(1, &mut out), 7);
        let seqs: Vec<u64> = out.iter().map(|m| m.key().uid.seq).collect();
        assert_eq!(seqs, (0..7).collect::<Vec<_>>(), "per-dst FIFO preserved");
    }

    #[test]
    fn flush_is_idempotent_and_tolerates_duplicate_dirty_entries() {
        let plane = MessagePlane::new(3);
        let mut b: SendBatcher<u8> = SendBatcher::new(3, 2);
        // dst 1 hits cap (inline flush), then gets one more → duplicate
        // dirty entry for dst 1.
        b.buffer(&plane, 0, 1, msg(1.0, 1, 0));
        b.buffer(&plane, 0, 1, msg(2.0, 1, 1));
        b.buffer(&plane, 0, 1, msg(3.0, 1, 2));
        b.buffer(&plane, 0, 2, msg(4.0, 2, 3));
        b.flush(&plane);
        b.flush(&plane);
        let mut out = Vec::new();
        assert_eq!(plane.drain(1, &mut out), 3);
        out.clear();
        assert_eq!(plane.drain(2, &mut out), 1);
    }
}
