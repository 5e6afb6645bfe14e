//! Per-LP Time Warp bookkeeping: state snapshots, the processed-event list,
//! rollback, and fossil collection.

// `drop(ctx)` ends multi-field borrows at a visible point before the
// borrowed fields are read again; the contexts carry no destructor.
#![allow(clippy::drop_non_drop)]

use crate::event::{Event, EventKey};
use crate::ids::LpId;
use crate::model::{Model, SendCtx};
use crate::rng::DetRng;
use crate::time::VirtualTime;
use std::collections::VecDeque;

/// Everything that must be restored on rollback: the model state plus the
/// LP's RNG stream and send-sequence counter (so re-executed handlers draw
/// the same random numbers and re-issue the same [`crate::ids::EventUid`]s).
#[derive(Debug, Clone)]
pub struct Snapshot<S> {
    pub state: S,
    pub rng: DetRng,
    pub send_seq: u64,
}

/// One processed event and how many events it sent. The keys of those
/// sends and the state snapshots live beside the history, not in it (see
/// [`Lp`]): an entry costs the event plus one word.
#[derive(Debug, Clone)]
pub struct ProcessedEntry<M: Model> {
    pub event: Event<M::Payload>,
    /// Number of events this execution sent; their keys are the LP's next
    /// `sends` sent keys.
    pub sends: u32,
}

/// Result of a rollback.
#[derive(Debug)]
pub struct Rollback<M: Model> {
    /// Undone events to be re-inserted into the thread's pending set
    /// (in ascending key order).
    pub reinserted: Vec<Event<M::Payload>>,
    /// Anti-messages to send, one per event sent by an undone entry.
    pub antis: Vec<EventKey>,
    /// Number of processed events undone.
    pub undone: usize,
}

/// A logical process under optimistic (Time Warp) execution.
///
/// The uncommitted history is three parallel queues that grow at the back
/// on `process_into`, shrink at the back on `rollback` and at the front on
/// `fossil_collect`: the entries, the keys they sent, and the *sparse*
/// (periodic) state snapshots. An entry's **ordinal** is its place in the
/// LP's commit order, `committed + position`; a snapshot is keyed by the
/// ordinal of the entry it was taken *before*. Only every k-th entry has
/// one; rollback restores the nearest earlier snapshot and
/// *coast-forwards*: it re-executes the intervening events with their sends
/// suppressed (determinism guarantees the replayed execution is identical,
/// so the original in-flight events stay valid).
pub struct Lp<M: Model> {
    pub id: LpId,
    pub state: M::State,
    pub rng: DetRng,
    pub send_seq: u64,
    /// Processed-but-uncommitted events in ascending key order.
    pub(crate) processed: VecDeque<ProcessedEntry<M>>,
    /// Keys of the events the retained entries sent, entry after entry;
    /// within an entry the last send comes first, so the antis of a
    /// rollback are one tail of this queue, already in the order
    /// [`Rollback::antis`] has.
    sent: VecDeque<EventKey>,
    /// `(ordinal, pre-state)` of the snapshot-bearing entries, ascending.
    /// The first retained entry always carries a snapshot.
    snaps: VecDeque<(u64, Snapshot<M::State>)>,
    /// Number of events committed (fossil-collected) so far.
    pub committed: u64,
    /// XOR-fold of key digests of committed events (order-independent trace
    /// digest; compared against the sequential oracle).
    pub commit_digest: u64,
    /// Receive time of the last committed event (the LP's position on the
    /// committed side of the GVT cut; what a checkpoint records as its LVT).
    pub committed_lvt: VirtualTime,
    /// Snapshot every k-th processed event (1 = copy state saving, the
    /// classical Time Warp default).
    snapshot_every: u32,
    /// Scratch send buffer for coast-forward replay (sends are suppressed,
    /// so the buffer only exists to be compared against the recorded keys).
    replay_buf: Vec<Event<M::Payload>>,
}

/// Order-independent 64-bit digest of an event key.
pub fn key_digest(key: &EventKey) -> u64 {
    let mut s = key.recv_time.ticks().wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((key.dst.0 as u64) << 32)
        ^ (key.uid.src.0 as u64)
        ^ key.uid.seq.rotate_left(17);
    crate::rng::splitmix64(&mut s)
}

impl<M: Model> Lp<M> {
    /// Create the LP with its initial state and private RNG stream, saving
    /// state before every event (classical copy state saving).
    pub fn new(model: &M, id: LpId, seed: u64) -> Self {
        Lp::with_snapshot_period(model, id, seed, 1)
    }

    /// Create the LP with sparse state saving: a snapshot before every
    /// `period`-th event only.
    pub fn with_snapshot_period(model: &M, id: LpId, seed: u64, period: u32) -> Self {
        assert!(period >= 1, "snapshot period must be at least 1");
        Lp {
            id,
            state: model.init_state(id),
            rng: DetRng::for_lp(seed, id),
            send_seq: 0,
            processed: VecDeque::new(),
            sent: VecDeque::new(),
            snaps: VecDeque::new(),
            committed: 0,
            commit_digest: 0,
            committed_lvt: VirtualTime::ZERO,
            snapshot_every: period,
            replay_buf: Vec::new(),
        }
    }

    /// Run the model's initial-event hook; returns the scheduled events.
    pub fn init_events(&mut self, model: &M) -> Vec<Event<M::Payload>> {
        let mut out = Vec::new();
        let mut ctx = SendCtx::new(
            self.id,
            VirtualTime::ZERO,
            &mut self.rng,
            &mut self.send_seq,
            &mut out,
        );
        model.init_events(self.id, &mut self.state, &mut ctx);
        out
    }

    /// Local virtual time: receive time of the last processed event.
    #[inline]
    pub fn lvt(&self) -> VirtualTime {
        self.processed
            .back()
            .map(|e| e.event.key.recv_time)
            .unwrap_or(VirtualTime::ZERO)
    }

    /// Key of the last processed event, if any.
    #[inline]
    pub fn last_processed_key(&self) -> Option<EventKey> {
        self.processed.back().map(|e| e.event.key)
    }

    /// `true` if `key` orders before an already-processed event — i.e.
    /// processing it now would violate causality and a rollback is needed.
    #[inline]
    pub fn is_straggler(&self, key: &EventKey) -> bool {
        match self.last_processed_key() {
            Some(last) => *key < last,
            None => false,
        }
    }

    /// `true` if an event with exactly this key has been processed and not
    /// yet committed or rolled back. O(log n) — the processed list is sorted
    /// by key.
    pub fn has_processed(&self, key: &EventKey) -> bool {
        self.processed
            .binary_search_by(|e| e.event.key.cmp(key))
            .is_ok()
    }

    /// What a rollback to this point would have to restore.
    fn current(&self) -> Snapshot<M::State> {
        Snapshot {
            state: self.state.clone(),
            rng: self.rng.clone(),
            send_seq: self.send_seq,
        }
    }

    /// Ordinal of the entry at `position` of the history.
    #[inline]
    fn ordinal(&self, position: usize) -> u64 {
        self.committed + position as u64
    }

    /// Optimistically process `event`: snapshot (per the sparse-saving
    /// policy), execute the handler, record the entry. The handler's sends
    /// are **appended** to `out`; the number appended is returned.
    ///
    /// This is the zero-allocation hot path: the caller owns and reuses
    /// `out`, the sent keys join the LP's one key queue, and a snapshot is
    /// only taken every `snapshot_period`-th event (cheap for heap-free
    /// model states, skipped entirely in between).
    ///
    /// # Panics
    /// Debug-asserts that `event` is not a straggler — callers must roll back
    /// first.
    pub fn process_into(
        &mut self,
        model: &M,
        event: Event<M::Payload>,
        out: &mut Vec<Event<M::Payload>>,
    ) -> usize {
        debug_assert!(
            !self.is_straggler(&event.key),
            "process() called with straggler {:?} (last {:?})",
            event.key,
            self.last_processed_key()
        );
        // The first retained entry must carry a snapshot (it is the replay
        // base); later entries snapshot once a period has passed since the
        // newest one.
        let ordinal = self.ordinal(self.processed.len());
        let due = match self.snaps.back() {
            Some((newest, _)) => ordinal - newest >= u64::from(self.snapshot_every),
            None => true,
        };
        if due {
            self.snaps.push_back((ordinal, self.current()));
        }
        let start = out.len();
        let mut ctx = SendCtx::new(
            self.id,
            event.key.recv_time,
            &mut self.rng,
            &mut self.send_seq,
            out,
        );
        model.handle_event(self.id, &mut self.state, &event.payload, &mut ctx);
        drop(ctx);
        let sends = out.len() - start;
        self.sent.extend(out[start..].iter().rev().map(|e| e.key));
        self.processed.push_back(ProcessedEntry {
            event,
            sends: sends as u32,
        });
        sends
    }

    /// [`Self::process_into`] returning the sends as a fresh `Vec`
    /// (convenience for tests and cold paths).
    pub fn process(&mut self, model: &M, event: Event<M::Payload>) -> Vec<Event<M::Payload>> {
        let mut out = Vec::new();
        self.process_into(model, event, &mut out);
        out
    }

    /// Coast forward: re-execute the entries at positions `[from, to)` on
    /// `s`, the pre-state of entry `from`, and return the pre-state of
    /// entry `to`. Sends are suppressed: the originals are already in
    /// flight, and deterministic handlers reproduce them exactly (debug
    /// builds verify this). Split-borrows `self` so no entry is cloned; the
    /// replay sends land in the reused scratch buffer.
    fn coast_forward(
        &mut self,
        model: &M,
        mut s: Snapshot<M::State>,
        from: usize,
        to: usize,
    ) -> Snapshot<M::State> {
        let Lp {
            id,
            processed,
            sent,
            replay_buf,
            ..
        } = self;
        let mut key_at: usize = processed.range(..from).map(|e| e.sends as usize).sum();
        for entry in processed.range(from..to) {
            replay_buf.clear();
            let mut ctx = SendCtx::new(
                *id,
                entry.event.key.recv_time,
                &mut s.rng,
                &mut s.send_seq,
                replay_buf,
            );
            model.handle_event(*id, &mut s.state, &entry.event.payload, &mut ctx);
            drop(ctx);
            let keys = key_at..key_at + entry.sends as usize;
            debug_assert!(
                sent.range(keys.clone())
                    .eq(replay_buf.iter().rev().map(|e| &e.key)),
                "non-deterministic model: replay of {:?} sent different events",
                entry.event.key
            );
            key_at = keys.end;
        }
        s
    }

    /// Roll back every processed entry whose key is `> key` (or `>= key` if
    /// `inclusive`). Restores the snapshot of the earliest undone entry —
    /// or, under sparse state saving, the nearest earlier snapshot followed
    /// by a coast-forward replay.
    ///
    /// `inclusive` rollback is used for anti-messages (the cancelled event
    /// itself must be undone and is *not* re-inserted — the caller filters it
    /// out via the returned events).
    pub fn rollback(&mut self, model: &M, key: &EventKey, inclusive: bool) -> Rollback<M> {
        let keep = self.processed.partition_point(|e| {
            if inclusive {
                e.event.key < *key
            } else {
                e.event.key <= *key
            }
        });
        let mut rb = Rollback {
            reinserted: Vec::new(),
            antis: Vec::new(),
            undone: self.processed.len() - keep,
        };
        if rb.undone == 0 {
            return rb;
        }
        // Both come out in ascending key order, as the queues hold them.
        let antis: usize = self.processed.range(keep..).map(|e| e.sends as usize).sum();
        rb.antis.extend(self.sent.drain(self.sent.len() - antis..));
        rb.reinserted
            .extend(self.processed.drain(keep..).map(|e| e.event));
        // The undone entries' snapshots go; the earliest undone entry's, if
        // it had one, is the state to restore.
        let ordinal = self.ordinal(keep);
        let mut pre = None;
        while self.snaps.back().is_some_and(|(o, _)| *o >= ordinal) {
            pre = self.snaps.pop_back();
        }
        let s = match pre {
            Some((o, s)) if o == ordinal => s,
            _ => {
                // Sparse saving: restore the nearest earlier snapshot and
                // coast-forward through the retained tail.
                let (o, s) = self
                    .snaps
                    .back()
                    .expect("the first retained entry always carries a snapshot");
                let from = (o - self.committed) as usize;
                self.coast_forward(model, s.clone(), from, keep)
            }
        };
        self.state = s.state;
        self.rng = s.rng;
        self.send_seq = s.send_seq;
        self.check_history();
        rb
    }

    /// Commit (drop) all processed entries with receive time strictly below
    /// `gvt`; returns how many were committed.
    ///
    /// Entries at or above the GVT are retained because a rollback may still
    /// target them; under sparse state saving the new first retained entry
    /// gets a materialized snapshot so it remains a valid replay base.
    pub fn fossil_collect(&mut self, model: &M, gvt: VirtualTime) -> u64 {
        let cut = self
            .processed
            .iter()
            .take_while(|e| e.event.key.recv_time < gvt)
            .count();
        if cut == 0 {
            return 0;
        }
        // The committed entries' snapshots go; when the cut lands mid-gap
        // the nearest of them is replayed up to the cut.
        let ordinal = self.ordinal(cut);
        let mut below = None;
        while self.snaps.front().is_some_and(|(o, _)| *o < ordinal) {
            below = self.snaps.pop_front();
        }
        if cut < self.processed.len() && self.snaps.front().is_none_or(|(o, _)| *o != ordinal) {
            let (o, s) = below.expect("the first retained entry always carries a snapshot");
            let s = self.coast_forward(model, s, (o - self.committed) as usize, cut);
            self.snaps.push_front((ordinal, s));
        }
        let mut keys = 0;
        for entry in self.processed.drain(..cut) {
            self.commit_digest ^= key_digest(&entry.event.key);
            self.committed_lvt = entry.event.key.recv_time;
            keys += entry.sends as usize;
        }
        self.sent.drain(..keys);
        self.committed += cut as u64;
        self.check_history();
        cut as u64
    }

    /// Commit everything still uncommitted (simulation has ended: GVT passed
    /// the end time, so all processed events are final).
    pub fn commit_all(&mut self, model: &M) -> u64 {
        self.fossil_collect(model, VirtualTime::INFINITY)
    }

    /// The LP's state on the *committed* side of the GVT cut: the snapshot
    /// immediately after its last committed event.
    ///
    /// Valid right after `fossil_collect(gvt)`: if any uncommitted entries
    /// remain, the first one carries a (possibly just materialized) snapshot
    /// whose pre-state is exactly the committed state; with no uncommitted
    /// history the current state *is* the committed state.
    pub fn committed_snapshot(&self) -> Snapshot<M::State> {
        match self.snaps.front() {
            Some((_, first)) => first.clone(),
            None => self.current(),
        }
    }

    /// Reset the LP to a checkpointed committed state: no speculative
    /// history, counters and digests continuing from the cut.
    pub fn restore_from(
        &mut self,
        snap: Snapshot<M::State>,
        committed: u64,
        commit_digest: u64,
        committed_lvt: VirtualTime,
    ) {
        self.state = snap.state;
        self.rng = snap.rng;
        self.send_seq = snap.send_seq;
        self.processed.clear();
        self.sent.clear();
        self.snaps.clear();
        self.committed = committed;
        self.commit_digest = commit_digest;
        self.committed_lvt = committed_lvt;
    }

    /// Digest of the LP's current model state.
    pub fn state_digest(&self, model: &M) -> u64 {
        model.state_digest(&self.state)
    }

    /// Entries of uncommitted history.
    pub fn history_len(&self) -> usize {
        self.processed.len()
    }

    /// Debug builds: the three queues of the history still describe one
    /// another — a key per send, snapshot ordinals strictly ascending and
    /// inside the history, and one on the first retained entry.
    fn check_history(&self) {
        #[cfg(debug_assertions)]
        {
            let sends: usize = self.processed.iter().map(|e| e.sends as usize).sum();
            assert_eq!(self.sent.len(), sends, "one sent key per send");
            let ordinals = || self.snaps.iter().map(|(o, _)| *o);
            assert!(ordinals().zip(ordinals().skip(1)).all(|(a, b)| a < b));
            assert!(ordinals().all(|o| o < self.ordinal(self.processed.len())));
            assert_eq!(
                ordinals().next(),
                (!self.processed.is_empty()).then_some(self.committed),
                "the first retained entry always carries a snapshot"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EventUid;

    /// Counter model: each event adds its payload to the state and sends one
    /// follow-up event to LP 0 with delay 1.
    struct Counter;
    impl Model for Counter {
        type State = u64;
        type Payload = u64;
        fn num_lps(&self) -> usize {
            4
        }
        fn init_state(&self, _lp: LpId) -> u64 {
            0
        }
        fn init_events(&self, _lp: LpId, _s: &mut u64, _ctx: &mut SendCtx<'_, u64>) {}
        fn handle_event(&self, _lp: LpId, s: &mut u64, p: &u64, ctx: &mut SendCtx<'_, u64>) {
            *s = s.wrapping_add(*p).wrapping_add(ctx.rng().next_below(3));
            ctx.send(LpId(0), 1.0, *p + 1);
        }
        fn state_digest(&self, s: &u64) -> u64 {
            *s
        }
    }

    fn ev(t: f64, dst: u32, src: u32, seq: u64, p: u64) -> Event<u64> {
        Event {
            key: EventKey {
                recv_time: VirtualTime::from_f64(t),
                dst: LpId(dst),
                uid: EventUid::new(LpId(src), seq),
            },
            send_time: VirtualTime::ZERO,
            payload: p,
        }
    }

    #[test]
    fn process_records_history_and_sends() {
        let m = Counter;
        let mut lp = Lp::new(&m, LpId(1), 7);
        let out = lp.process(&m, ev(1.0, 1, 0, 0, 10));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key.recv_time, VirtualTime::from_f64(2.0));
        assert_eq!(lp.processed.len(), 1);
        assert_eq!(lp.lvt(), VirtualTime::from_f64(1.0));
        assert_eq!(lp.processed[0].sends, 1);
        assert_eq!(lp.sent, [out[0].key]);
    }

    /// The entry cannot silently grow back to carrying its snapshot and
    /// key list inline.
    #[test]
    fn history_entry_is_the_event_plus_one_word() {
        use std::mem::size_of;
        assert!(size_of::<ProcessedEntry<Counter>>() <= size_of::<Event<u64>>() + 8);
    }

    #[test]
    fn rollback_restores_state_rng_and_seq() {
        let m = Counter;
        let mut lp = Lp::new(&m, LpId(1), 7);
        let before_digest = lp.state;
        let before_rng = lp.rng.clone();
        let e1 = ev(1.0, 1, 0, 0, 10);
        let out1 = lp.process(&m, e1.clone());
        let e2 = ev(2.0, 1, 0, 1, 20);
        let out2 = lp.process(&m, e2.clone());

        // Straggler at t=0.5 rolls back both.
        let straggler_key = ev(0.5, 1, 9, 0, 0).key;
        let rb = lp.rollback(&m, &straggler_key, false);
        assert_eq!(rb.undone, 2);
        assert_eq!(rb.reinserted, vec![e1.clone(), e2.clone()]);
        assert_eq!(rb.antis, vec![out1[0].key, out2[0].key]);
        assert_eq!(lp.state, before_digest);
        assert_eq!(lp.rng, before_rng);
        assert_eq!(lp.send_seq, 0);
        assert_eq!(lp.lvt(), VirtualTime::ZERO);

        // Re-execution reproduces the same sends (same uid, time, payload).
        let out1b = lp.process(&m, e1);
        assert_eq!(out1b, out1);
    }

    /// Two sends per event: the order `Rollback::antis` has always had is
    /// ascending by undone entry and, within an entry, last send first.
    #[test]
    fn antis_of_fanned_out_entries_keep_their_order() {
        struct Fan;
        impl Model for Fan {
            type State = u64;
            type Payload = u64;
            fn num_lps(&self) -> usize {
                4
            }
            fn init_state(&self, _lp: LpId) -> u64 {
                0
            }
            fn init_events(&self, _lp: LpId, _s: &mut u64, _ctx: &mut SendCtx<'_, u64>) {}
            fn handle_event(&self, _lp: LpId, _s: &mut u64, p: &u64, ctx: &mut SendCtx<'_, u64>) {
                ctx.send(LpId(0), 1.0, *p);
                ctx.send(LpId(2), 2.0, *p);
            }
            fn state_digest(&self, s: &u64) -> u64 {
                *s
            }
        }
        let m = Fan;
        let mut lp = Lp::with_snapshot_period(&m, LpId(1), 7, 2);
        let a = lp.process(&m, ev(1.0, 1, 0, 0, 1));
        let b = lp.process(&m, ev(2.0, 1, 0, 1, 2));
        let c = lp.process(&m, ev(3.0, 1, 0, 2, 3));
        let rb = lp.rollback(&m, &ev(1.5, 1, 9, 0, 0).key, false);
        assert_eq!(rb.antis, [b[1].key, b[0].key, c[1].key, c[0].key]);
        let rb = lp.rollback(&m, &ev(0.5, 1, 9, 0, 0).key, false);
        assert_eq!(rb.antis, [a[1].key, a[0].key]);
    }

    #[test]
    fn partial_rollback_keeps_earlier_entries() {
        let m = Counter;
        let mut lp = Lp::new(&m, LpId(1), 7);
        lp.process(&m, ev(1.0, 1, 0, 0, 1));
        let state_after_1 = lp.state;
        lp.process(&m, ev(2.0, 1, 0, 1, 2));
        lp.process(&m, ev(3.0, 1, 0, 2, 3));
        let rb = lp.rollback(&m, &ev(1.5, 1, 9, 0, 0).key, false);
        assert_eq!(rb.undone, 2);
        assert_eq!(lp.processed.len(), 1);
        assert_eq!(lp.state, state_after_1);
        assert_eq!(lp.lvt(), VirtualTime::from_f64(1.0));
    }

    #[test]
    fn inclusive_rollback_undoes_equal_key() {
        let m = Counter;
        let mut lp = Lp::new(&m, LpId(1), 7);
        let e1 = ev(1.0, 1, 0, 0, 1);
        lp.process(&m, e1.clone());
        let rb = lp.rollback(&m, &e1.key, true);
        assert_eq!(rb.undone, 1);
        let rb2 = lp.rollback(&m, &e1.key, false);
        assert_eq!(rb2.undone, 0);
    }

    #[test]
    fn straggler_detection_uses_full_key_order() {
        let m = Counter;
        let mut lp = Lp::new(&m, LpId(1), 7);
        let e = ev(1.0, 1, 2, 5, 1);
        lp.process(&m, e);
        // Same time, smaller uid → straggler.
        assert!(lp.is_straggler(&ev(1.0, 1, 2, 4, 0).key));
        // Same time, larger uid → not a straggler.
        assert!(!lp.is_straggler(&ev(1.0, 1, 2, 6, 0).key));
        assert!(!lp.is_straggler(&ev(2.0, 1, 0, 0, 0).key));
        assert!(lp.is_straggler(&ev(0.5, 1, 0, 0, 0).key));
    }

    #[test]
    fn fossil_collect_commits_below_gvt_only() {
        let m = Counter;
        let mut lp = Lp::new(&m, LpId(1), 7);
        lp.process(&m, ev(1.0, 1, 0, 0, 1));
        lp.process(&m, ev(2.0, 1, 0, 1, 1));
        lp.process(&m, ev(3.0, 1, 0, 2, 1));
        assert_eq!(lp.fossil_collect(&m, VirtualTime::from_f64(2.0)), 1);
        assert_eq!(lp.committed, 1);
        assert_eq!(lp.processed.len(), 2);
        // Equal-to-GVT entries retained.
        assert_eq!(lp.fossil_collect(&m, VirtualTime::from_f64(2.0)), 0);
        assert_eq!(lp.commit_all(&m), 2);
        assert_eq!(lp.committed, 3);
        assert_eq!(lp.history_len(), 0);
    }

    #[test]
    fn committed_snapshot_and_restore_resume_identically() {
        let m = Counter;
        let mut lp = Lp::new(&m, LpId(1), 7);
        let e1 = ev(1.0, 1, 0, 0, 1);
        let e2 = ev(2.0, 1, 0, 1, 2);
        let e3 = ev(3.0, 1, 0, 2, 3);
        lp.process(&m, e1);
        let committed_state = lp.state;
        let out2 = lp.process(&m, e2.clone());
        let out3 = lp.process(&m, e3.clone());
        lp.fossil_collect(&m, VirtualTime::from_f64(1.5));
        assert_eq!(lp.committed_lvt, VirtualTime::from_f64(1.0));

        // The committed snapshot is the state right after e1...
        let snap = lp.committed_snapshot();
        assert_eq!(snap.state, committed_state);

        // ...and a fresh LP restored from it replays e2/e3 bit-for-bit.
        let mut fresh = Lp::new(&m, LpId(1), 999); // wrong seed, overwritten
        fresh.restore_from(snap, lp.committed, lp.commit_digest, lp.committed_lvt);
        assert_eq!(fresh.committed, 1);
        assert_eq!(fresh.history_len(), 0);
        assert_eq!(fresh.process(&m, e2), out2);
        assert_eq!(fresh.process(&m, e3), out3);
        lp.commit_all(&m);
        fresh.commit_all(&m);
        assert_eq!(fresh.state, lp.state);
        assert_eq!(fresh.commit_digest, lp.commit_digest);
        assert_eq!(fresh.committed, lp.committed);
    }

    #[test]
    fn committed_snapshot_with_empty_history_is_current_state() {
        let m = Counter;
        let mut lp = Lp::new(&m, LpId(1), 7);
        lp.process(&m, ev(1.0, 1, 0, 0, 1));
        lp.commit_all(&m);
        let snap = lp.committed_snapshot();
        assert_eq!(snap.state, lp.state);
        assert_eq!(snap.send_seq, lp.send_seq);
    }

    #[test]
    fn commit_digest_is_order_independent() {
        let m = Counter;
        let e1 = ev(1.0, 1, 0, 0, 1);
        let e2 = ev(2.0, 1, 0, 1, 1);
        let mut a = Lp::new(&m, LpId(1), 7);
        a.process(&m, e1.clone());
        a.process(&m, e2.clone());
        a.commit_all(&m);
        let mut b = Lp::new(&m, LpId(1), 7);
        b.process(&m, e1);
        b.fossil_collect(&m, VirtualTime::from_f64(1.5));
        b.process(&m, e2);
        b.commit_all(&m);
        assert_eq!(a.commit_digest, b.commit_digest);
        assert_ne!(a.commit_digest, 0);
    }
}

#[cfg(test)]
mod sparse_tests {
    use super::*;
    use crate::ids::EventUid;
    use crate::model::{Model, SendCtx};
    use crate::LpId;

    /// Model with RNG-dependent state and sends (exercises replay fidelity).
    struct Mixer;
    impl Model for Mixer {
        type State = u64;
        type Payload = u32;
        fn num_lps(&self) -> usize {
            2
        }
        fn init_state(&self, _lp: LpId) -> u64 {
            1
        }
        fn init_events(&self, _lp: LpId, _s: &mut u64, _ctx: &mut SendCtx<'_, u32>) {}
        fn handle_event(&self, _lp: LpId, s: &mut u64, p: &u32, ctx: &mut SendCtx<'_, u32>) {
            *s = s
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(*p as u64)
                .wrapping_add(ctx.rng().next_below(1 << 20));
            let d = 0.1 + ctx.rng().next_f64();
            ctx.send(LpId(0), d, p + 1);
        }
        fn state_digest(&self, s: &u64) -> u64 {
            *s
        }
    }

    fn ev(t: f64, seq: u64) -> Event<u32> {
        Event {
            key: EventKey {
                recv_time: VirtualTime::from_f64(t),
                dst: LpId(1),
                uid: EventUid::new(LpId(0), seq),
            },
            send_time: VirtualTime::ZERO,
            payload: seq as u32,
        }
    }

    /// Run the same process/rollback/fossil scenario under dense (k=1) and
    /// sparse (k) saving; all observable outputs must agree.
    fn run_scenario(k: u32) -> (u64, Vec<EventKey>, u64) {
        let m = Mixer;
        let mut lp = Lp::with_snapshot_period(&m, LpId(1), 42, k);
        for i in 0..10 {
            lp.process(&m, ev(i as f64 + 1.0, i));
        }
        // Fossil part of the history (forces snapshot materialization).
        lp.fossil_collect(&m, VirtualTime::from_f64(4.5));
        // Roll back into the un-snapshotted middle.
        let rb = lp.rollback(&m, &ev(7.5, 99).key, false);
        let antis = rb.antis.clone();
        // Replay the undone events.
        for e in rb.reinserted {
            lp.process(&m, e);
        }
        lp.commit_all(&m);
        (m.state_digest(&lp.state), antis, lp.commit_digest)
    }

    #[test]
    fn sparse_saving_is_observationally_identical() {
        let dense = run_scenario(1);
        for k in [2, 3, 5, 16] {
            let sparse = run_scenario(k);
            assert_eq!(dense, sparse, "period {k}");
        }
    }

    #[test]
    fn only_every_kth_entry_carries_a_snapshot() {
        let m = Mixer;
        let mut lp = Lp::with_snapshot_period(&m, LpId(1), 7, 4);
        for i in 0..9 {
            lp.process(&m, ev(i as f64 + 1.0, i));
        }
        let ordinals: Vec<u64> = lp.snaps.iter().map(|(o, _)| *o).collect();
        assert_eq!(ordinals, [0, 4, 8]);
    }

    #[test]
    fn fossil_materializes_replay_base() {
        let m = Mixer;
        let mut lp = Lp::with_snapshot_period(&m, LpId(1), 7, 4);
        for i in 0..8 {
            lp.process(&m, ev(i as f64 + 1.0, i));
        }
        // Cut mid-gap: entries 0..6 committed (recv < 6.5), entry 6 had no
        // snapshot and must get one.
        lp.fossil_collect(&m, VirtualTime::from_f64(6.5));
        assert_eq!(lp.snaps[0].0, lp.committed, "replay base materialized");
        // A rollback into the remaining tail still works.
        let rb = lp.rollback(&m, &ev(7.5, 99).key, false);
        assert_eq!(rb.undone, 1);
    }

    #[test]
    fn rollback_to_snapshotless_suffix_coast_forwards() {
        let m = Mixer;
        let mut lp = Lp::with_snapshot_period(&m, LpId(1), 7, 8);
        let mut states = Vec::new();
        for i in 0..6 {
            lp.process(&m, ev(i as f64 + 1.0, i));
            states.push(lp.state);
        }
        // Undo events 4 and 5 → state must equal post-event-3 state.
        let rb = lp.rollback(&m, &ev(4.5, 99).key, false);
        assert_eq!(rb.undone, 2);
        assert_eq!(lp.state, states[3]);
        // Re-execution reproduces the same states.
        for e in rb.reinserted {
            lp.process(&m, e);
        }
        assert_eq!(lp.state, states[5]);
    }
}
