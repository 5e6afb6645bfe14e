//! Property-based tests of the Time Warp core data structures.

use pdes_core::pending::{CancelOutcome, EventQueue, InsertOutcome, PendingSet};
use pdes_core::{
    chaos_filter, DelayFault, Event, EventKey, EventUid, FaultInjector, FaultPlan, LpId, LpMap,
    MapKind, Model, Msg, ReorderFault, SendCtx, SimThreadId, StragglerFault, VirtualTime,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

fn arb_key() -> impl Strategy<Value = EventKey> {
    (0u64..1000, 0u32..8, 0u32..8, 0u64..64).prop_map(|(t, dst, src, seq)| EventKey {
        recv_time: VirtualTime::from_ticks(t),
        dst: LpId(dst),
        uid: EventUid::new(LpId(src), seq),
    })
}

proptest! {
    /// The chaos drain may permute *between* uids, never within one: over
    /// any sequence of drains and under any fault-decision seed, every
    /// message is delivered exactly once and each uid's messages arrive in
    /// the order they were queued (an anti-message never overtakes, or is
    /// overtaken by, its same-uid twin).
    #[test]
    fn chaos_filter_keeps_per_uid_fifo(
        drains in prop::collection::vec(prop::collection::vec((0u64..4, 0u64..50), 0..12), 1..10),
        seed in any::<u64>(),
    ) {
        let faults = FaultInjector::new(FaultPlan {
            seed,
            delay: Some(DelayFault { prob: 0.4 }),
            reorder: Some(ReorderFault { prob: 0.8 }),
            straggler: Some(StragglerFault { prob: 0.5, max_storms: 8 }),
            ..FaultPlan::default()
        });
        // The payload is the message's arrival serial; few uids, so most
        // batches carry same-uid runs.
        let mut serial = 0u64;
        let mut hold = VecDeque::new();
        let mut delivered: Vec<(EventUid, u64)> = Vec::new();
        let mut drain = |fresh: &[(u64, u64)], hold: &mut VecDeque<Msg<u64>>| {
            let mut batch: Vec<Msg<u64>> = fresh
                .iter()
                .map(|&(uid, t)| {
                    serial += 1;
                    Msg::Event(Event {
                        key: EventKey {
                            recv_time: VirtualTime::from_ticks(t),
                            dst: LpId(0),
                            uid: EventUid::new(LpId(1), uid),
                        },
                        send_time: VirtualTime::ZERO,
                        payload: serial,
                    })
                })
                .collect();
            chaos_filter(&faults, &mut batch, hold);
            for m in batch {
                let Msg::Event(e) = m else { unreachable!("only events are queued") };
                delivered.push((e.key.uid, e.payload));
            }
        };
        for fresh in &drains {
            drain(fresh, &mut hold);
        }
        // Held messages redeliver unconditionally and the storm budget is
        // finite, so empty drains flush the hold buffer.
        for _ in 0..16 {
            drain(&[], &mut hold);
        }
        prop_assert!(hold.is_empty(), "hold buffer never emptied");
        let total: usize = drains.iter().map(Vec::len).sum();
        let mut serials: Vec<u64> = delivered.iter().map(|d| d.1).collect();
        serials.sort_unstable();
        prop_assert_eq!(serials, (1..=total as u64).collect::<Vec<_>>(), "lost or duplicated");
        for uid in 0..4 {
            let of_uid: Vec<u64> = delivered
                .iter()
                .filter(|d| d.0 == EventUid::new(LpId(1), uid))
                .map(|d| d.1)
                .collect();
            prop_assert!(of_uid.windows(2).all(|w| w[0] < w[1]), "uid {} reordered: {:?}", uid, of_uid);
        }
    }
}

/// Receive times 0..16 over 8 × 8 × 64 identities: most keys in a set tie on
/// the tick count and are ordered by the full-key tiebreak.
fn arb_tied_key() -> impl Strategy<Value = EventKey> {
    (0u64..16, 0u32..8, 0u32..8, 0u64..64).prop_map(|(t, dst, src, seq)| EventKey {
        recv_time: VirtualTime::from_ticks(t),
        dst: LpId(dst),
        uid: EventUid::new(LpId(src), seq),
    })
}

#[derive(Debug, Clone)]
enum PendingOp {
    Insert(EventKey),
    /// An anti-message for a key that is probably not pending.
    Cancel(EventKey),
    /// An anti-message for the `i % len`-th live key, in key order.
    CancelLive(usize),
    /// An anti-message for the newest insert, then its re-send (the same
    /// key, a new payload) — anti-then-resend.
    CancelResend,
    PopMin,
}

/// Receive times over `0..2^40` for populations that raise the queue's
/// rung: eight clusters `2^32` ticks apart, each 1,024 ticks wide (so keys
/// still tie now and then), and one key in 64 a far-future outlier anywhere
/// in the span, which stretches the rung's buckets when it is rebuilt.
fn arb_spread_key() -> impl Strategy<Value = EventKey> {
    (0u64..64, 0u64..1 << 40, 0u32..8, 0u32..8, 0u64..1 << 20).prop_map(
        |(pick, t, dst, src, seq)| EventKey {
            recv_time: VirtualTime::from_ticks(match pick {
                0 => t,
                _ => ((pick % 8) << 32) | (t % 1024),
            }),
            dst: LpId(dst),
            uid: EventUid::new(LpId(src), seq),
        },
    )
}

#[derive(Debug, Clone, Copy)]
enum QueueOp {
    Push,
    Pop,
    /// `replace_min`: a pop and a push in one.
    ReplaceMin,
}

/// The queue property's draws over tied keys: the queue grows by one in
/// six, so it stays under the small-set threshold (the rung down).
const TIED_OPS: [QueueOp; 6] = {
    use QueueOp::*;
    [Push, Push, Push, Pop, Pop, ReplaceMin]
};

/// Over spread keys: by three in six, past the threshold (the rung up).
const SPREAD_OPS: [QueueOp; 6] = {
    use QueueOp::*;
    [Push, Push, Push, Push, Pop, ReplaceMin]
};

/// `len` operations; in `inserts + 6`, `inserts` insert, one pops and five
/// cancel — three a live key, one an anti-then-resend, one a key mostly not
/// pending. Tombstones pile up below the top, so long sequences pass the
/// compaction threshold (over 64 queued entries, over twice the live
/// count) again and again.
fn arb_ops(
    key: impl Strategy<Value = EventKey> + 'static,
    inserts: u8,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<PendingOp>> {
    let op = (0..inserts + 6, key, any::<usize>()).prop_map(move |(pick, k, i)| {
        match pick.checked_sub(inserts) {
            None => PendingOp::Insert(k),
            Some(0) => PendingOp::Cancel(k),
            Some(1..=3) => PendingOp::CancelLive(i),
            Some(4) => PendingOp::CancelResend,
            Some(_) => PendingOp::PopMin,
        }
    });
    prop::collection::vec(op, len)
}

/// Every key on one of `lps` hot LPs, far apart in id, so each LP's chain
/// of pending events runs far longer than the one or two slots the
/// workloads see, and a cancel or a duplicate check walks all of it.
fn arb_hot_lp_key(lps: u32) -> impl Strategy<Value = EventKey> {
    (0u64..256, 0..lps, 0u32..8, 0u64..1 << 20).prop_map(|(t, lp, src, seq)| EventKey {
        recv_time: VirtualTime::from_ticks(t),
        dst: LpId(lp * 1_000 + 7),
        uid: EventUid::new(LpId(src), seq),
    })
}

proptest! {
    /// The pending set behaves exactly like a reference model built on a
    /// `BTreeMap` plus an orphan-anti set, under arbitrary operation
    /// sequences (duplicate inserts/cancels are skipped, as the engine
    /// never produces them). Every insert carries its own payload, which
    /// `pop_min` must hand back, and after every operation `iter()` is the
    /// reference's live set; at the end both drain in the same order. The
    /// second input, insert-heavy over spread keys, grows the set to a few
    /// hundred events, past the queue's small-set threshold; the last two
    /// put every event on one LP or on four, so the per-LP chains that
    /// cancels and inserts walk run long.
    #[test]
    fn pending_set_matches_reference_model(
        ops in prop_oneof![
            arb_ops(arb_tied_key(), 4, 0..600),
            arb_ops(arb_spread_key(), 10, 0..900),
            arb_ops(arb_hot_lp_key(1), 8, 0..700),
            arb_ops(arb_hot_lp_key(4), 8, 0..700),
        ],
    ) {
        let mut sut: PendingSet<u32> = PendingSet::new();
        let mut model: BTreeMap<EventKey, u32> = BTreeMap::new();
        let mut antis: std::collections::BTreeSet<EventKey> = Default::default();
        let mut serial = 0u32;
        let mut newest: Option<EventKey> = None;

        for op in ops {
            match op {
                PendingOp::Insert(k) => {
                    if model.contains_key(&k) || antis.contains(&k) {
                        continue; // engine never re-inserts a live key
                    }
                    serial += 1;
                    let ev = Event { key: k, send_time: VirtualTime::ZERO, payload: serial };
                    prop_assert_eq!(sut.insert(ev), InsertOutcome::Inserted);
                    model.insert(k, serial);
                    newest = Some(k);
                }
                PendingOp::Cancel(k) => {
                    if antis.contains(&k) {
                        continue; // engine never double-cancels
                    }
                    let got = sut.cancel(&k);
                    if model.remove(&k).is_some() {
                        prop_assert_eq!(got, CancelOutcome::Removed);
                    } else {
                        prop_assert_eq!(got, CancelOutcome::Deferred);
                        antis.insert(k);
                    }
                }
                PendingOp::CancelLive(i) => {
                    if model.is_empty() {
                        continue;
                    }
                    let k = *model.keys().nth(i % model.len()).unwrap();
                    prop_assert_eq!(sut.cancel(&k), CancelOutcome::Removed);
                    model.remove(&k);
                }
                PendingOp::CancelResend => {
                    let Some(k) = newest.filter(|k| model.contains_key(k)) else {
                        continue;
                    };
                    prop_assert_eq!(sut.cancel(&k), CancelOutcome::Removed);
                    serial += 1;
                    let ev = Event { key: k, send_time: VirtualTime::ZERO, payload: serial };
                    prop_assert_eq!(sut.insert(ev), InsertOutcome::Inserted);
                    model.insert(k, serial);
                }
                PendingOp::PopMin => {
                    let got = sut.pop_min().map(|e| (e.key, e.payload));
                    let expect = model.pop_first();
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(sut.len(), model.len());
            prop_assert_eq!(sut.orphan_antis(), antis.len());
            prop_assert_eq!(sut.min_key(), model.keys().next().copied());
            prop_assert_eq!(
                sut.min_time(),
                model.keys().next().map(|k| k.recv_time).unwrap_or(VirtualTime::INFINITY)
            );
            let mut live: Vec<(EventKey, u32)> = sut.iter().map(|e| (e.key, e.payload)).collect();
            live.sort_unstable();
            prop_assert_eq!(live, model.iter().map(|(k, p)| (*k, *p)).collect::<Vec<_>>());
        }
        let drained: Vec<(EventKey, u32)> =
            std::iter::from_fn(|| sut.pop_min()).map(|e| (e.key, e.payload)).collect();
        prop_assert_eq!(drained, model.into_iter().collect::<Vec<_>>());
    }

    /// The event queue pops exactly what a sorted `Vec` of (key, payload)
    /// pairs yields, under arbitrary push / pop / `replace_min` sequences
    /// (keys stay unique, as event uids are; a replacement is a pop followed
    /// by a push, here of any key, below the minimum too); `peek()`,
    /// `iter()` and `len()` agree with it after every operation, and at the
    /// end both drain in the same order. The first input ties times and
    /// keeps the rung down; the second, four pushes in six over spread keys,
    /// grows past the small-set threshold to a few hundred, so a
    /// replacement's entry lands in the bottom in place or goes to the rung
    /// or the top.
    #[test]
    fn event_queue_matches_sorted_vec(
        ops in prop_oneof![
            prop::collection::vec(
                (prop::sample::select(TIED_OPS.to_vec()), arb_tied_key()),
                0..600,
            ),
            prop::collection::vec(
                (prop::sample::select(SPREAD_OPS.to_vec()), arb_spread_key()),
                0..900,
            ),
        ],
    ) {
        let mut sut: EventQueue<u32> = EventQueue::new();
        let mut reference: Vec<(EventKey, u32)> = Vec::new();
        for (serial, (op, k)) in (0u32..).zip(ops) {
            let event = Event { key: k, send_time: VirtualTime::ZERO, payload: serial };
            let at = reference.binary_search_by_key(&k, |e| e.0);
            match (op, at) {
                (QueueOp::Pop, _) => {
                    let got = sut.pop().map(|e| (e.key, e.payload));
                    let expect = (!reference.is_empty()).then(|| reference.remove(0));
                    prop_assert_eq!(got, expect);
                }
                (QueueOp::Push, Err(at)) => {
                    sut.push(event);
                    reference.insert(at, (k, serial));
                }
                (QueueOp::ReplaceMin, Err(at)) => {
                    // A pop then a push: the minimum goes unless the queue
                    // was empty, even when `k` orders below it.
                    let min = (!reference.is_empty()).then_some(usize::from(at == 0));
                    sut.replace_min(event);
                    reference.insert(at, (k, serial));
                    if let Some(min) = min {
                        reference.remove(min);
                    }
                }
                _ => continue,
            }
            prop_assert_eq!(sut.len(), reference.len());
            prop_assert_eq!(sut.peek().map(|e| (e.key, e.payload)), reference.first().copied());
            let mut all: Vec<(EventKey, u32)> = sut.iter().map(|e| (e.key, e.payload)).collect();
            all.sort_unstable();
            prop_assert_eq!(&all, &reference);
        }
        let drained: Vec<(EventKey, u32)> =
            std::iter::from_fn(|| sut.pop()).map(|e| (e.key, e.payload)).collect();
        prop_assert_eq!(drained, reference);
    }

    /// Orphan antis annihilate the positive on arrival.
    #[test]
    fn orphan_anti_then_insert_annihilates(k in arb_key()) {
        let mut ps: PendingSet<u8> = PendingSet::new();
        prop_assert_eq!(ps.cancel(&k), CancelOutcome::Deferred);
        let ev = Event { key: k, send_time: VirtualTime::ZERO, payload: 0 };
        prop_assert_eq!(ps.insert(ev), InsertOutcome::Annihilated);
        prop_assert!(ps.is_empty());
        prop_assert_eq!(ps.orphan_antis(), 0);
    }

    /// Every LP has exactly one owning thread under both mappings, and
    /// `lps_of` inverts `thread_of`.
    #[test]
    fn lp_map_partition(nl in 1usize..200, nt in 1usize..16) {
        prop_assume!(nl >= nt);
        for kind in [MapKind::RoundRobin, MapKind::Block] {
            let map = LpMap::new(nl, nt, kind);
            let mut seen = vec![false; nl];
            for t in 0..nt {
                for lp in map.lps_of(SimThreadId(t as u32)) {
                    prop_assert!(!seen[lp.index()]);
                    seen[lp.index()] = true;
                    prop_assert_eq!(map.thread_of(lp), SimThreadId(t as u32));
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }
}

/// A model whose handler draws randomness and sends fan-out events — used
/// to prove rollback/re-execution identity.
struct FanOut;
impl Model for FanOut {
    type State = Vec<u64>;
    type Payload = u32;
    fn num_lps(&self) -> usize {
        4
    }
    fn init_state(&self, _lp: LpId) -> Vec<u64> {
        Vec::new()
    }
    fn init_events(&self, _lp: LpId, _s: &mut Vec<u64>, _ctx: &mut SendCtx<'_, u32>) {}
    fn handle_event(&self, _lp: LpId, s: &mut Vec<u64>, p: &u32, ctx: &mut SendCtx<'_, u32>) {
        let draws = (ctx.rng().next_below(3) + 1) as usize;
        for _ in 0..draws {
            s.push(ctx.rng().next_u64());
            let dst = LpId(ctx.rng().next_below(4) as u32);
            let d = 0.1 + ctx.rng().next_f64();
            ctx.send(dst, d, p + 1);
        }
    }
    fn state_digest(&self, s: &Vec<u64>) -> u64 {
        s.iter().fold(0u64, |a, &x| a.rotate_left(7) ^ x)
    }
}

proptest! {
    /// Rollback + re-execution is an identity: undoing a suffix of the
    /// processed events and replaying the same events yields the same
    /// state, same RNG stream, and identical re-sent events.
    #[test]
    fn rollback_replay_identity(seed in any::<u64>(), n in 1usize..12, cut in 0usize..12) {
        prop_assume!(cut < n);
        let model = FanOut;
        let mut lp = pdes_core::lp::Lp::with_snapshot_period(&model, LpId(1), seed, 1);
        let mut out = Vec::new();
        let mut rng = pdes_core::DetRng::seed_from_u64(seed ^ 0xABCD);
        let events: Vec<Event<u32>> = (0..n)
            .map(|i| Event {
                key: EventKey {
                    recv_time: VirtualTime::from_f64(i as f64 + rng.next_f64()),
                    dst: LpId(1),
                    uid: EventUid::new(LpId(0), i as u64),
                },
                send_time: VirtualTime::ZERO,
                payload: i as u32,
            })
            .collect();

        let mut sends_first: Vec<Vec<EventKey>> = Vec::new();
        for e in &events {
            out.clear();
            lp.process_into(&model, e.clone(), &mut out);
            sends_first.push(out.iter().map(|e| e.key).collect());
        }
        let digest_before = model.state_digest(&lp.state);

        // Roll back everything from `cut` onwards…
        let rb = lp.rollback(&model, &events[cut].key, true);
        prop_assert_eq!(rb.undone, n - cut);
        // …and replay.
        for (i, e) in events.iter().enumerate().skip(cut) {
            out.clear();
            lp.process_into(&model, e.clone(), &mut out);
            let keys: Vec<EventKey> = out.iter().map(|e| e.key).collect();
            prop_assert_eq!(&keys, &sends_first[i], "event {} resent differently", i);
        }
        prop_assert_eq!(model.state_digest(&lp.state), digest_before);
    }
}
