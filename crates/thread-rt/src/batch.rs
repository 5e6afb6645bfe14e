//! Batched inter-thread sends — the outgoing half of the zero-allocation
//! hot path.
//!
//! Without batching every cross-thread message costs one mutex acquisition
//! and two atomic RMWs on the destination queue — paid *per event* on the
//! phold hot path. The [`SendBatcher`] accumulates a cycle's outgoing
//! messages per destination and lands each group with a single bulk push
//! ([`RtShared::push_batch`]), collapsing the per-event synchronisation
//! cost to per-flush.
//!
//! # GVT coverage
//!
//! A buffered message is invisible to the destination's `queue_min`, so it
//! must stay covered by the *sender's* send window: [`SendBatcher::buffer`]
//! publishes `window_min[me]` exactly like `push_msg` does before its
//! enqueue. The window is only reset by the owning thread's own `Round::fold`,
//! which gives the one hard safety rule: **flush before every fold** (the
//! `send` a `Participant::fold` is given is [`SendBatcher::land`], which flushes).
//! Between buffer and flush the message is covered by `window_min[me]`;
//! after the flush by `queue_min[dst]` — coverage never lapses, which is
//! the same invariant the per-message path maintains.
//!
//! # Flush policy
//!
//! - **batch-full** — a destination buffer reaching [`SendBatcher::cap`]
//!   flushes that destination immediately (bounds buffering under heavy
//!   fan-out within one cycle);
//! - **LVT advance / idle** — the worker flushes at the end of every main
//!   loop cycle that processed events *and* whenever it goes idle (a
//!   starved peer must see our messages before we spin waiting on it);
//! - **GVT round boundaries** — [`SendBatcher::land`] flushes before each phase
//!   fold; checkpoint cuts, parking and termination all pass through it.

use crate::shared::RtShared;
use pdes_core::{Msg, Outbound};

/// Per-thread accumulator of outgoing messages, grouped by destination
/// thread. One instance lives on each worker's stack; it is not shared.
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

    /// Buffer one outgoing message, publishing the sender's send window
    /// first so GVT accounting covers it from this instant on.
    pub fn buffer(&mut self, sh: &RtShared<P>, me: usize, dst: usize, msg: Msg<P>) {
        sh.publish_window(me, msg.recv_time());
        let buf = &mut self.bufs[dst];
        if buf.is_empty() {
            self.dirty.push(dst);
        }
        buf.push(msg);
        if buf.len() >= self.cap {
            sh.push_batch(dst, buf);
        }
    }

    /// Land every buffered message in its destination queue. Order within
    /// each (sender, destination) pair is preserved; cross-destination
    /// order is not (the pending set tolerates any inter-uid interleaving).
    pub fn flush(&mut self, sh: &RtShared<P>) {
        for dst in self.dirty.drain(..) {
            sh.push_batch(dst, &mut self.bufs[dst]);
        }
    }

    /// Buffer a whole outbox of thread `me`, then [`Self::flush`].
    pub fn land(&mut self, sh: &RtShared<P>, me: usize, out: &mut Vec<Outbound<P>>) {
        for (dst, msg) in out.drain(..) {
            self.buffer(sh, me, dst.index(), msg);
        }
        self.flush(sh);
    }

    /// `true` when no message is buffered.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty() || self.bufs.iter().all(|b| b.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdes_core::{Event, EventKey, EventUid, LpId, VirtualTime};

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

    fn shared(n: usize) -> RtShared<u8> {
        RtShared::new(n, 1, VirtualTime::from_f64(1e9))
    }

    #[test]
    fn buffered_messages_stay_gvt_covered_until_flush() {
        let sh = shared(2);
        let mut b: SendBatcher<u8> = SendBatcher::new(2, 64);
        b.buffer(&sh, 0, 1, msg(5.0, 1, 0));
        // Nothing queued yet, but the sender's window covers t=5.
        assert_eq!(sh.len(1), 0);
        assert!(!sh.window_is_clear(0));
        b.flush(&sh);
        assert_eq!(sh.len(1), 1);
        let mut out = Vec::new();
        assert_eq!(sh.drain(1, &mut out), 1);
        assert_eq!(out[0].recv_time(), VirtualTime::from_f64(5.0));
    }

    #[test]
    fn batch_full_flushes_inline_and_preserves_fifo() {
        let sh = shared(2);
        let mut b: SendBatcher<u8> = SendBatcher::new(2, 3);
        for i in 0..7 {
            b.buffer(&sh, 0, 1, msg(1.0 + i as f64, 1, i as u64));
        }
        // cap=3: two inline flushes (at 3 and 6) leave one buffered.
        assert_eq!(sh.len(1), 6);
        b.flush(&sh);
        assert!(b.is_empty());
        let mut out = Vec::new();
        assert_eq!(sh.drain(1, &mut out), 7);
        let seqs: Vec<u64> = out.iter().map(|m| m.key().uid.seq).collect();
        assert_eq!(seqs, (0..7).collect::<Vec<_>>(), "per-dst FIFO preserved");
    }

    #[test]
    fn flush_is_idempotent_and_tolerates_duplicate_dirty_entries() {
        let sh = shared(3);
        let mut b: SendBatcher<u8> = SendBatcher::new(3, 2);
        // dst 1 hits cap (inline flush), then gets one more → duplicate
        // dirty entry for dst 1.
        b.buffer(&sh, 0, 1, msg(1.0, 1, 0));
        b.buffer(&sh, 0, 1, msg(2.0, 1, 1));
        b.buffer(&sh, 0, 1, msg(3.0, 1, 2));
        b.buffer(&sh, 0, 2, msg(4.0, 2, 3));
        b.flush(&sh);
        b.flush(&sh);
        assert!(b.is_empty());
        let mut out = Vec::new();
        assert_eq!(sh.drain(1, &mut out), 3);
        out.clear();
        assert_eq!(sh.drain(2, &mut out), 1);
    }
}
