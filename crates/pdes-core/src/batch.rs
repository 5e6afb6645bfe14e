//! Batched sends — the one way a message enters an input queue or a peer
//! link (DESIGN §16.3).
//!
//! A [`SendBatcher`] groups one sender's messages by destination and lands
//! each group with one bulk push into a [`SendSink`]: a `MessagePlane` as
//! it is, thread-rt's `RtShared` with its backpressure wait before the push,
//! or a dist-rt shard's peer links, one frame per group. Each thread's
//! [`Participant`](crate::Participant) owns one and lands its outbox after
//! every cycle and inside every fold and cut; so do a dist-rt shard,
//! [`build_engines`](crate::build_engines) and [`IngestPort::pump`](crate::IngestPort::pump).
//!
//! **GVT coverage.** A buffered message is invisible to its destination's
//! queue minimum, so [`SendBatcher::buffer`] has the sink cover it first: a
//! plane publishes the sender's window (coverage rule 1 of [`crate::plane`]).
//! The window is reset only by the sender's own fold, hence the one hard
//! rule, *flush before every fold*: `Participant::fold` and `cut` land the
//! outbox before they fold. A destination buffer at the cap lands at once.

use crate::engine::Outbound;
use crate::event::Msg;
use crate::time::VirtualTime;

/// The per-destination cap every runtime's batchers use.
pub(crate) const CAP: usize = 64;

/// Where a [`SendBatcher`] lands its batches.
pub trait SendSink<P> {
    /// Sender `me` buffered a message received at `t`: keep it inside GVT
    /// accounting until [`Self::push_batch`] carries it.
    fn cover(&mut self, me: usize, t: VirtualTime);

    /// Move `msgs` (possibly none) to `dst`, in order, leaving `msgs`
    /// empty. Every message is already covered.
    fn push_batch(&mut self, dst: usize, msgs: &mut Vec<Msg<P>>);
}

/// A lent sink: [`SendBatcher::land`] reuses one for every buffer and the flush.
impl<P, S: SendSink<P>> SendSink<P> for &mut S {
    fn cover(&mut self, me: usize, t: VirtualTime) {
        (**self).cover(me, t);
    }

    fn push_batch(&mut self, dst: usize, msgs: &mut Vec<Msg<P>>) {
        (**self).push_batch(dst, msgs);
    }
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

    /// Buffer one message of sender `me` for thread `dst`, covering it
    /// first so GVT accounting holds it from this instant.
    pub fn buffer(&mut self, mut sink: impl SendSink<P>, me: usize, dst: usize, msg: Msg<P>) {
        sink.cover(me, msg.recv_time());
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
    pub fn flush(&mut self, mut sink: impl SendSink<P>) {
        for dst in self.dirty.drain(..) {
            sink.push_batch(dst, &mut self.bufs[dst]);
        }
    }

    /// Buffer a whole outbox of sender `me`, then [`Self::flush`].
    pub fn land(&mut self, mut sink: impl SendSink<P>, me: usize, out: &mut Vec<Outbound<P>>) {
        for (dst, msg) in out.drain(..) {
            self.buffer(&mut sink, me, dst.index(), msg);
        }
        self.flush(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKey};
    use crate::ids::{EventUid, LpId};
    use crate::plane::MessagePlane;

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

    /// What a batcher asked of its sink, in call order: `Cover(me, t)` and
    /// `Push(dst, [t, …])`, a message named by its receive time in ticks.
    #[derive(Debug, PartialEq)]
    enum Call {
        Cover(usize, u64),
        Push(usize, Vec<u64>),
    }

    /// A sink with no plane behind it: it only records its calls.
    #[derive(Default)]
    struct Recorder(Vec<Call>);

    impl SendSink<u8> for Recorder {
        fn cover(&mut self, me: usize, t: VirtualTime) {
            self.0.push(Call::Cover(me, t.ticks()));
        }

        fn push_batch(&mut self, dst: usize, msgs: &mut Vec<Msg<u8>>) {
            let ts = msgs.drain(..).map(|m| m.recv_time().ticks()).collect();
            self.0.push(Call::Push(dst, ts));
        }
    }

    fn ticks(t: f64) -> u64 {
        VirtualTime::from_f64(t).ticks()
    }

    #[test]
    fn every_message_is_covered_before_the_push_that_carries_it() {
        let mut sink = Recorder::default();
        let mut b: SendBatcher<u8> = SendBatcher::new(3, 2);
        for i in 0..9u32 {
            b.buffer(
                &mut sink,
                1,
                (i % 3) as usize,
                msg(1.0 + f64::from(i), i, 0),
            );
        }
        b.flush(&mut sink);
        let mut pushed: Vec<u64> = Vec::new();
        for (at, call) in sink.0.iter().enumerate() {
            let Call::Push(_, ts) = call else { continue };
            for &t in ts {
                let covered = sink.0[..at].contains(&Call::Cover(1, t));
                assert!(covered, "t={t} pushed at call {at} before its cover");
            }
            pushed.extend(ts);
        }
        pushed.sort_unstable();
        let all: Vec<u64> = (0..9).map(|i| ticks(1.0 + f64::from(i))).collect();
        assert_eq!(pushed, all, "every buffered message pushed exactly once");
    }

    #[test]
    fn a_flush_pushes_each_dirty_destination_once_in_fifo_order() {
        let mut sink = Recorder::default();
        let mut b: SendBatcher<u8> = SendBatcher::new(3, usize::MAX);
        let mut out: Vec<Outbound<u8>> = [2, 0, 2, 1, 0, 2]
            .into_iter()
            .enumerate()
            .map(|(i, dst)| (crate::SimThreadId(dst), msg(1.0 + i as f64, dst, 0)))
            .collect();
        b.land(&mut sink, 0, &mut out);
        let t = |i: u32| ticks(1.0 + f64::from(i));
        let pushes: Vec<&Call> = sink.0.iter().skip(6).collect();
        assert!(sink.0[..6].iter().all(|c| matches!(c, Call::Cover(0, _))));
        assert_eq!(
            pushes,
            [
                &Call::Push(2, vec![t(0), t(2), t(5)]),
                &Call::Push(0, vec![t(1), t(4)]),
                &Call::Push(1, vec![t(3)]),
            ]
        );
        b.flush(&mut sink);
        assert_eq!(sink.0.len(), 9, "nothing is left to push");
    }

    #[test]
    fn an_unbounded_cap_never_pushes_inline() {
        let mut sink = Recorder::default();
        let mut b: SendBatcher<u8> = SendBatcher::new(2, usize::MAX);
        for i in 0..10_000u32 {
            b.buffer(&mut sink, 0, 1, msg(1.0 + f64::from(i), 1, 0));
        }
        assert!(sink.0.iter().all(|c| matches!(c, Call::Cover(..))));
        b.flush(&mut sink);
        let Some(Call::Push(1, ts)) = sink.0.last() else {
            panic!("one push at the flush");
        };
        assert_eq!(ts.len(), 10_000);
    }
}
