//! Property tests of the batched inter-thread send path.
//!
//! The batcher is the one way a message enters an input queue, so its two
//! contracts are load-bearing for correctness:
//!
//! 1. **No loss** — every buffered message eventually lands in its
//!    destination queue, whatever the interleaving of buffers, inline
//!    batch-full flushes, explicit flushes, and drains.
//! 2. **Per-(src,dst) FIFO** — a destination drains one sender's messages
//!    in send order. This is the ordering the engine relies on so an
//!    anti-message can never overtake the re-send of its twin.
//!
//! Both are checked under arbitrary operation schedules, batch caps and
//! inline batch-full flushes. What the plane underneath guarantees on its
//! own — GVT coverage of buffered and queued messages, exact `queue_len`,
//! no loss and per-uid order under the chaos drain — is
//! `control_plane.rs`'s; that thread-rt's `RtShared` lands a schedule
//! exactly as the bare plane does is its own `shared::tests`'.

use pdes_core::{Event, EventKey, EventUid, LpId, MessagePlane, Msg, SendBatcher, VirtualTime};
use proptest::prelude::*;

const DSTS: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    /// Buffer a message for `dst`; `pair` additionally buffers the
    /// matching anti-message right behind it (same uid — the ordered pair
    /// the chaos drain must never split or swap).
    Send { dst: usize, pair: bool },
    /// Flush the whole batcher.
    Flush,
    /// Drain destination `dst`, recording what arrived.
    Drain(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            ((0..DSTS), any::<bool>()).prop_map(|(dst, pair)| Op::Send { dst, pair }),
            Just(Op::Flush),
            (0..DSTS).prop_map(Op::Drain),
        ],
        0..120,
    )
}

fn msg(t: u64, dst: usize, seq: u64) -> Msg<u8> {
    Msg::Event(Event {
        key: EventKey {
            recv_time: VirtualTime::from_ticks(t),
            dst: LpId(dst as u32),
            uid: EventUid::new(LpId(0), seq),
        },
        send_time: VirtualTime::ZERO,
        payload: 0,
    })
}

fn anti(t: u64, dst: usize, seq: u64) -> Msg<u8> {
    Msg::Anti(EventKey {
        recv_time: VirtualTime::from_ticks(t),
        dst: LpId(dst as u32),
        uid: EventUid::new(LpId(0), seq),
    })
}

/// Identity of a delivered message for order/loss accounting: (uid seq,
/// is_anti) is unique per run because seqs are never reused.
fn ident(m: &Msg<u8>) -> (u64, bool) {
    (m.key().uid.seq, m.is_anti())
}

proptest! {
    /// Clean drains: exact per-destination FIFO, nothing lost, nothing
    /// duplicated, under arbitrary buffer/flush/drain schedules and every
    /// batch cap from degenerate (1 = unbatched) upward.
    #[test]
    fn batched_sends_preserve_fifo_and_lose_nothing(
        ops in arb_ops(),
        cap in 1usize..9,
    ) {
        let sh: MessagePlane<u8> = MessagePlane::new(DSTS);
        let mut batcher: SendBatcher<u8> = SendBatcher::new(DSTS, cap);
        let mut expected: Vec<Vec<(u64, bool)>> = vec![Vec::new(); DSTS];
        let mut got: Vec<Vec<(u64, bool)>> = vec![Vec::new(); DSTS];
        let mut seq = 0u64;
        let mut buf = Vec::new();

        for op in ops {
            match op {
                Op::Send { dst, pair } => {
                    let t = 10 + seq;
                    let m = msg(t, dst, seq);
                    expected[dst].push(ident(&m));
                    batcher.buffer(&sh, 0, dst, m);
                    if pair {
                        let a = anti(t, dst, seq);
                        expected[dst].push(ident(&a));
                        batcher.buffer(&sh, 0, dst, a);
                    }
                    seq += 1;
                }
                Op::Flush => batcher.flush(&sh),
                Op::Drain(dst) => {
                    buf.clear();
                    sh.drain(dst, &mut buf);
                    got[dst].extend(buf.iter().map(ident));
                }
            }
        }
        batcher.flush(&sh);
        for dst in 0..DSTS {
            buf.clear();
            sh.drain(dst, &mut buf);
            got[dst].extend(buf.iter().map(ident));
            prop_assert_eq!(
                &got[dst], &expected[dst],
                "dst {} must drain sender 0's messages in send order", dst
            );
        }
    }
}
