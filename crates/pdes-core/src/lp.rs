//! Time Warp bookkeeping: an LP's state, its uncommitted history (the
//! processed events, the keys they sent, sparse state snapshots), rollback,
//! coast-forward and fossil collection.
//!
//! The history of every LP a thread owns lives in one `HistoryStore`:
//! three of the crate's slabs (`slab.rs`, the event queue's too), whose
//! freed slots are reused before they grow, so the store is sized by the
//! thread's live history, not by the sum of each LP's worst moment. An LP ([`LpCore`]) holds the two ends of its history, its length
//! and its distance from the newest snapshot — four `u32`s — and allocates
//! nothing of its own. The engine keeps its LPs and one store side by side
//! and passes the store in. [`Lp`] is an LP with a one-LP store, kept for
//! the benchmark, which times these operations one LP at a time.

// `drop(ctx)` ends multi-field borrows at a visible point before the
// borrowed fields are read again; the contexts carry no destructor.
#![allow(clippy::drop_non_drop)]

use crate::event::{Event, EventKey};
use crate::ids::LpId;
use crate::model::{Model, SendCtx};
use crate::rng::DetRng;
use crate::slab::{Slab, NIL};
use crate::time::VirtualTime;
use std::ops::{Deref, DerefMut};

/// Everything that must be restored on rollback: the model state plus the
/// LP's RNG stream and send-sequence counter (so re-executed handlers draw
/// the same random numbers and re-issue the same [`crate::ids::EventUid`]s).
#[derive(Debug, Clone)]
pub struct Snapshot<S> {
    pub state: S,
    pub rng: DetRng,
    pub send_seq: u64,
}

/// One processed event, linked into its LP's history in ascending key
/// order. What it sent and the state before it sit in the store's other
/// two slabs; the entry holds their slot numbers.
struct ProcessedEntry<P> {
    event: Event<P>,
    prev: u32,
    next: u32,
    /// The newest key this execution sent; each key links to the one sent
    /// before it, so a chain runs last send first.
    keys: u32,
    /// The LP's state before this event, or `NIL` between snapshots.
    snap: u32,
}

/// The key of one sent event, linked to the send before it.
struct SentKey {
    key: EventKey,
    next: u32,
}

/// Bytes of uncommitted history: what the live entries, keys and
/// snapshots occupy, and what their slabs hold allocated. Heap memory a
/// model state owns is counted in neither.
pub use crate::slab::SlabBytes as HistoryBytes;

/// The uncommitted history of one thread's LPs: their processed entries,
/// the keys those sent and the sparse snapshots, each in a slab with a
/// free list, linked per LP through slot numbers.
pub(crate) struct HistoryStore<M: Model> {
    entries: Slab<ProcessedEntry<M::Payload>>,
    keys: Slab<SentKey>,
    snaps: Slab<Snapshot<M::State>>,
    /// Snapshot every k-th processed event (1 = copy state saving, the
    /// classical Time Warp default).
    snapshot_every: u32,
    /// Coast-forward's send buffer: replayed sends land here only to be
    /// compared against the recorded keys.
    replay: Vec<Event<M::Payload>>,
}

impl<M: Model> HistoryStore<M> {
    pub(crate) fn new(snapshot_period: u32) -> Self {
        assert!(snapshot_period >= 1, "snapshot period must be at least 1");
        HistoryStore {
            entries: Slab::new(),
            keys: Slab::new(),
            snaps: Slab::new(),
            snapshot_every: snapshot_period,
            replay: Vec::new(),
        }
    }

    pub(crate) fn bytes(&self) -> HistoryBytes {
        let slabs = [self.entries.bytes(), self.keys.bytes(), self.snaps.bytes()];
        HistoryBytes {
            live: slabs.iter().map(|b| b.live).sum(),
            reserved: slabs.iter().map(|b| b.reserved).sum(),
        }
    }

    /// The entries of the history chain starting at slot `at`, with their
    /// slots, oldest first.
    fn chain(&self, mut at: u32) -> impl Iterator<Item = (u32, &ProcessedEntry<M::Payload>)> {
        std::iter::from_fn(move || {
            (at != NIL).then(|| {
                let slot = at;
                let entry = self.entries.get(slot);
                at = entry.next;
                (slot, entry)
            })
        })
    }

    /// The keys of the chain starting at `at`, newest first.
    fn sent_keys(&self, mut at: u32) -> impl Iterator<Item = EventKey> + '_ {
        std::iter::from_fn(move || {
            (at != NIL).then(|| {
                let k = self.keys.get(at);
                at = k.next;
                k.key
            })
        })
    }

    /// Free the entry in slot `at` with its keys, each handed to `sent`
    /// newest first, and its snapshot.
    fn release(&mut self, at: u32, mut sent: impl FnMut(EventKey)) -> Released<M> {
        let entry = self.entries.take(at);
        let mut key = entry.keys;
        while key != NIL {
            let k = self.keys.take(key);
            sent(k.key);
            key = k.next;
        }
        Released {
            snap: (entry.snap != NIL).then(|| self.snaps.take(entry.snap)),
            event: entry.event,
            next: entry.next,
        }
    }

    /// Coast forward: re-execute `count` entries of LP `id` from slot `at`
    /// on `s`, the pre-state of that entry, and return the state after
    /// them. Sends are suppressed: the originals are already in flight, and
    /// deterministic handlers reproduce them exactly (debug builds verify
    /// this against the recorded keys).
    fn coast_forward(
        &mut self,
        model: &M,
        id: LpId,
        mut s: Snapshot<M::State>,
        mut at: u32,
        count: u32,
    ) -> Snapshot<M::State> {
        for _ in 0..count {
            let entry = self.entries.get(at);
            self.replay.clear();
            let mut ctx = SendCtx::new(
                id,
                entry.event.key.recv_time,
                &mut s.rng,
                &mut s.send_seq,
                &mut self.replay,
            );
            model.handle_event(id, &mut s.state, &entry.event.payload, &mut ctx);
            drop(ctx);
            debug_assert!(
                self.sent_keys(entry.keys)
                    .eq(self.replay.iter().rev().map(|e| e.key)),
                "non-deterministic model: replay of {:?} sent different events",
                entry.event.key
            );
            at = entry.next;
        }
        s
    }
}

/// An entry freed from a `HistoryStore`: its event, the next slot of its
/// LP's history and the snapshot it carried.
struct Released<M: Model> {
    event: Event<M::Payload>,
    next: u32,
    snap: Option<Snapshot<M::State>>,
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

/// A logical process under optimistic (Time Warp) execution, with its
/// uncommitted history kept in a `HistoryStore` it is handed.
///
/// The history is a chain of entries in ascending key order that grows at
/// the back on `process_into`, shrinks at the back on `rollback` and at the
/// front on `fossil_collect`. An entry's **ordinal** is its place in the
/// LP's commit order, `committed + position`. Only every k-th entry carries
/// a snapshot of the state before it; rollback restores the nearest
/// earlier snapshot and *coast-forwards*: it re-executes the intervening
/// events with their sends suppressed (determinism guarantees the replayed
/// execution is identical, so the original in-flight events stay valid).
pub struct LpCore<M: Model> {
    pub id: LpId,
    pub state: M::State,
    pub rng: DetRng,
    pub send_seq: u64,
    /// Number of events committed (fossil-collected) so far.
    pub committed: u64,
    /// XOR-fold of key digests of committed events (order-independent trace
    /// digest; compared against the sequential oracle).
    pub commit_digest: u64,
    /// Receive time of the last committed event (the LP's position on the
    /// committed side of the GVT cut; what a checkpoint records as its LVT).
    pub committed_lvt: VirtualTime,
    /// Slots of the oldest and newest entry (`NIL` with no history).
    head: u32,
    tail: u32,
    /// Entries of uncommitted history.
    len: u32,
    /// Entries from the newest snapshot-bearing one to the newest, both
    /// counted (0 with no history).
    since_snap: u32,
}

/// Order-independent 64-bit digest of an event key.
pub fn key_digest(key: &EventKey) -> u64 {
    let mut s = key.recv_time.ticks().wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((key.dst.0 as u64) << 32)
        ^ (key.uid.src.0 as u64)
        ^ key.uid.seq.rotate_left(17);
    crate::rng::splitmix64(&mut s)
}

impl<M: Model> LpCore<M> {
    /// Bytes one processed event takes in its thread's history store.
    pub const HISTORY_SLOT_BYTES: usize = Slab::<ProcessedEntry<M::Payload>>::SLOT_BYTES;

    /// The LP with its initial state and private RNG stream, no history.
    pub(crate) fn new(model: &M, id: LpId, seed: u64) -> Self {
        LpCore {
            id,
            state: model.init_state(id),
            rng: DetRng::for_lp(seed, id),
            send_seq: 0,
            committed: 0,
            commit_digest: 0,
            committed_lvt: VirtualTime::ZERO,
            head: NIL,
            tail: NIL,
            len: 0,
            since_snap: 0,
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

    /// Digest of the LP's current model state.
    pub fn state_digest(&self, model: &M) -> u64 {
        model.state_digest(&self.state)
    }

    /// Entries of uncommitted history.
    #[inline]
    pub fn history_len(&self) -> usize {
        self.len as usize
    }

    /// Key of the last processed event, if any.
    #[inline]
    pub(crate) fn last_processed_key(&self, store: &HistoryStore<M>) -> Option<EventKey> {
        (self.tail != NIL).then(|| store.entries.get(self.tail).event.key)
    }

    /// `true` if `key` orders before an already-processed event — i.e.
    /// processing it now would violate causality and a rollback is needed.
    #[inline]
    pub(crate) fn is_straggler(&self, store: &HistoryStore<M>, key: &EventKey) -> bool {
        self.last_processed_key(store)
            .is_some_and(|last| *key < last)
    }

    /// `true` if an event with exactly this key has been processed and not
    /// yet committed or rolled back. Walks back from the newest entry, so
    /// it costs the entries after `key` — what a rollback to it undoes.
    pub(crate) fn has_processed(&self, store: &HistoryStore<M>, key: &EventKey) -> bool {
        let mut at = self.tail;
        while at != NIL {
            let entry = store.entries.get(at);
            if entry.event.key <= *key {
                return entry.event.key == *key;
            }
            at = entry.prev;
        }
        false
    }

    /// The uncommitted events, oldest first.
    pub(crate) fn history<'s>(
        &self,
        store: &'s HistoryStore<M>,
    ) -> impl Iterator<Item = &'s Event<M::Payload>> + 's {
        store.chain(self.head).map(|(_, entry)| &entry.event)
    }

    /// What a rollback to this point would have to restore.
    fn current(&self) -> Snapshot<M::State> {
        Snapshot {
            state: self.state.clone(),
            rng: self.rng.clone(),
            send_seq: self.send_seq,
        }
    }

    /// The newest snapshot-bearing entry and the entries from it to the
    /// newest, both counted; `(NIL, 0)` with no history.
    fn newest_snapshot(&self, store: &HistoryStore<M>) -> (u32, u32) {
        let (mut at, mut gap) = (self.tail, 0);
        while at != NIL {
            gap += 1;
            let entry = store.entries.get(at);
            if entry.snap != NIL {
                return (at, gap);
            }
            at = entry.prev;
        }
        (NIL, 0)
    }

    /// [`Lp::process_into`] on history kept in `store`.
    pub(crate) fn process_into(
        &mut self,
        store: &mut HistoryStore<M>,
        model: &M,
        event: Event<M::Payload>,
        out: &mut Vec<Event<M::Payload>>,
    ) -> usize {
        debug_assert!(
            !self.is_straggler(store, &event.key),
            "process() called with straggler {:?} (last {:?})",
            event.key,
            self.last_processed_key(store)
        );
        // The first retained entry must carry a snapshot (it is the replay
        // base); later entries snapshot once a period has passed since the
        // newest one.
        let snap = if self.len == 0 || self.since_snap >= store.snapshot_every {
            self.since_snap = 1;
            store.snaps.insert(self.current())
        } else {
            self.since_snap += 1;
            NIL
        };
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
        let keys = out[start..].iter().fold(NIL, |next, e| {
            store.keys.insert(SentKey { key: e.key, next })
        });
        let at = store.entries.insert(ProcessedEntry {
            event,
            prev: self.tail,
            next: NIL,
            keys,
            snap,
        });
        match self.tail {
            NIL => self.head = at,
            tail => store.entries.get_mut(tail).next = at,
        }
        self.tail = at;
        self.len += 1;
        out.len() - start
    }

    /// [`Lp::rollback`] on history kept in `store`, **appending** the undone
    /// events and the antis to buffers the caller reuses; returns the number
    /// of events undone. It allocates nothing once the buffers have grown.
    pub(crate) fn rollback_into(
        &mut self,
        store: &mut HistoryStore<M>,
        model: &M,
        key: &EventKey,
        inclusive: bool,
        reinserted: &mut Vec<Event<M::Payload>>,
        antis: &mut Vec<EventKey>,
    ) -> usize {
        // The undone entries are a tail: walk back to the newest one kept.
        let (mut keep, mut undone) = (self.tail, 0);
        while keep != NIL {
            let entry = store.entries.get(keep);
            let undo = if inclusive {
                entry.event.key >= *key
            } else {
                entry.event.key > *key
            };
            if !undo {
                break;
            }
            keep = entry.prev;
            undone += 1;
        }
        if undone == 0 {
            return 0;
        }
        // Sized once for the common case of one send per event.
        reinserted.reserve(undone as usize);
        antis.reserve(undone as usize);
        // Oldest first, each entry's keys newest first: the events come out
        // in ascending key order, the antis in the order `Rollback::antis`
        // has always had. The earliest undone entry's snapshot, if it has
        // one, is the state to restore.
        let mut at = match keep {
            NIL => self.head,
            kept => std::mem::replace(&mut store.entries.get_mut(kept).next, NIL),
        };
        let (first, mut pre) = (at, None);
        while at != NIL {
            let entry = store.release(at, |k| antis.push(k));
            if at == first {
                pre = entry.snap;
            }
            reinserted.push(entry.event);
            at = entry.next;
        }
        self.tail = keep;
        if keep == NIL {
            self.head = NIL;
        }
        self.len -= undone;
        let (base, gap) = self.newest_snapshot(store);
        self.since_snap = gap;
        let s = match pre {
            Some(s) => s,
            None => {
                // Sparse saving: restore the nearest earlier snapshot and
                // coast-forward through the retained tail.
                let s = store.snaps.get(store.entries.get(base).snap).clone();
                store.coast_forward(model, self.id, s, base, gap)
            }
        };
        self.state = s.state;
        self.rng = s.rng;
        self.send_seq = s.send_seq;
        self.check_history(store);
        undone as usize
    }

    /// [`Lp::fossil_collect`] on history kept in `store`.
    pub(crate) fn fossil_collect(
        &mut self,
        store: &mut HistoryStore<M>,
        model: &M,
        gvt: VirtualTime,
    ) -> u64 {
        // The committed entries are a prefix; `below` is the newest of them
        // with a snapshot and `gap` the entries from it to the cut.
        let (mut front, mut cut, mut below, mut gap) = (self.head, 0, NIL, 0);
        while front != NIL {
            let entry = store.entries.get(front);
            if entry.event.key.recv_time >= gvt {
                break;
            }
            if entry.snap != NIL {
                (below, gap) = (front, 0);
            }
            gap += 1;
            cut += 1;
            front = entry.next;
        }
        if cut == 0 {
            return 0;
        }
        // When the cut lands mid-gap, the nearest committed snapshot is
        // replayed up to it and becomes the new first entry's.
        if front != NIL && store.entries.get(front).snap == NIL {
            let slot = std::mem::replace(&mut store.entries.get_mut(below).snap, NIL);
            let s = store.snaps.take(slot);
            let s = store.coast_forward(model, self.id, s, below, gap);
            store.entries.get_mut(front).snap = store.snaps.insert(s);
        }
        let mut at = self.head;
        while at != front {
            let entry = store.release(at, |_| {});
            self.commit_digest ^= key_digest(&entry.event.key);
            self.committed_lvt = entry.event.key.recv_time;
            at = entry.next;
        }
        self.head = front;
        match front {
            NIL => self.tail = NIL,
            front => store.entries.get_mut(front).prev = NIL,
        }
        self.len -= cut;
        self.committed += u64::from(cut);
        self.since_snap = self.since_snap.min(self.len);
        self.check_history(store);
        u64::from(cut)
    }

    /// The LP's state on the *committed* side of the GVT cut: the snapshot
    /// immediately after its last committed event.
    ///
    /// Valid right after `fossil_collect(gvt)`: if any uncommitted entries
    /// remain, the first one carries a (possibly just materialized) snapshot
    /// whose pre-state is exactly the committed state; with no uncommitted
    /// history the current state *is* the committed state.
    pub(crate) fn committed_snapshot(&self, store: &HistoryStore<M>) -> Snapshot<M::State> {
        match self.head {
            NIL => self.current(),
            head => store.snaps.get(store.entries.get(head).snap).clone(),
        }
    }

    /// Reset the LP to a checkpointed committed state, freeing its history
    /// in `store`: counters and digests continue from the cut.
    pub(crate) fn restore_from(
        &mut self,
        store: &mut HistoryStore<M>,
        snap: Snapshot<M::State>,
        committed: u64,
        commit_digest: u64,
        committed_lvt: VirtualTime,
    ) {
        let mut at = self.head;
        while at != NIL {
            at = store.release(at, |_| {}).next;
        }
        (self.head, self.tail, self.len, self.since_snap) = (NIL, NIL, 0, 0);
        self.state = snap.state;
        self.rng = snap.rng;
        self.send_seq = snap.send_seq;
        self.committed = committed;
        self.commit_digest = commit_digest;
        self.committed_lvt = committed_lvt;
    }

    /// Debug builds: the chain in the store still describes this LP's
    /// history — links that agree both ways, `len` entries, a snapshot on
    /// the first one, `since_snap` entries from the newest snapshot, and
    /// each entry's keys its own consecutive sends, newest first.
    fn check_history(&self, store: &HistoryStore<M>) {
        if !cfg!(debug_assertions) {
            return;
        }
        let (mut prev, mut len, mut gap) = (NIL, 0, 0);
        for (at, entry) in store.chain(self.head) {
            assert_eq!(entry.prev, prev, "links agree both ways");
            if prev == NIL {
                assert_ne!(
                    entry.snap, NIL,
                    "the first retained entry always carries a snapshot"
                );
            }
            gap = if entry.snap == NIL { gap + 1 } else { 1 };
            let keys = || store.sent_keys(entry.keys);
            assert!(keys().all(|k| k.uid.src == self.id));
            assert!(keys()
                .zip(keys().skip(1))
                .all(|(a, b)| a.uid.seq == b.uid.seq + 1));
            (prev, len) = (at, len + 1);
        }
        assert_eq!(prev, self.tail);
        assert_eq!(len, self.len);
        assert_eq!(gap, self.since_snap);
    }
}

/// An LP with a history store of its own: the benchmark times the history
/// operations through it one LP at a time (the engines keep one store per
/// thread). Derefs to its [`LpCore`] for the state, counters and digests.
pub struct Lp<M: Model> {
    core: LpCore<M>,
    store: HistoryStore<M>,
}

impl<M: Model> Deref for Lp<M> {
    type Target = LpCore<M>;
    fn deref(&self) -> &LpCore<M> {
        &self.core
    }
}

impl<M: Model> DerefMut for Lp<M> {
    fn deref_mut(&mut self) -> &mut LpCore<M> {
        &mut self.core
    }
}

impl<M: Model> Lp<M> {
    /// Create the LP with its initial state and private RNG stream and a
    /// snapshot before every `period`-th event (1 = copy state saving).
    pub fn with_snapshot_period(model: &M, id: LpId, seed: u64, period: u32) -> Self {
        Lp {
            core: LpCore::new(model, id, seed),
            store: HistoryStore::new(period),
        }
    }

    /// Optimistically process `event`: snapshot (per the sparse-saving
    /// policy), execute the handler, record the entry. The handler's sends
    /// are **appended** to `out`; the number appended is returned.
    ///
    /// This is the zero-allocation hot path: the caller owns and reuses
    /// `out`, the entry, its sent keys and its snapshot take slots the
    /// store freed before, and a snapshot is only taken every
    /// `snapshot_period`-th event.
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
        self.core.process_into(&mut self.store, model, event, out)
    }

    /// Roll back every processed entry whose key is `> key` (or `>= key` if
    /// `inclusive`, as for an anti-message: the cancelled event itself is
    /// undone, and the caller drops it from the returned events). Restores
    /// the snapshot of the earliest undone entry — or, under sparse state
    /// saving, the nearest earlier snapshot followed by a coast-forward.
    pub fn rollback(&mut self, model: &M, key: &EventKey, inclusive: bool) -> Rollback<M> {
        let (mut reinserted, mut antis) = (Vec::new(), Vec::new());
        let undone = self.core.rollback_into(
            &mut self.store,
            model,
            key,
            inclusive,
            &mut reinserted,
            &mut antis,
        );
        Rollback {
            reinserted,
            antis,
            undone,
        }
    }

    /// Commit (drop) all processed entries with receive time strictly below
    /// `gvt`; returns how many were committed.
    ///
    /// Entries at or above the GVT are retained because a rollback may still
    /// target them; under sparse state saving the new first retained entry
    /// gets a materialized snapshot so it remains a valid replay base.
    pub fn fossil_collect(&mut self, model: &M, gvt: VirtualTime) -> u64 {
        self.core.fossil_collect(&mut self.store, model, gvt)
    }
}

#[cfg(test)]
impl<M: Model> Lp<M> {
    /// The keys the retained entries sent, entry after entry, each entry's
    /// newest first.
    fn sent(&self) -> Vec<EventKey> {
        let entries = self.store.chain(self.head);
        entries
            .flat_map(|(_, e)| self.store.sent_keys(e.keys))
            .collect()
    }

    /// Ordinals of the entries that carry a snapshot.
    fn snapshot_ordinals(&self) -> Vec<u64> {
        let entries = self.store.chain(self.head).enumerate();
        entries
            .filter(|(_, (_, e))| e.snap != NIL)
            .map(|(position, _)| self.committed + position as u64)
            .collect()
    }
}

/// Process `event` on `lp`; returns its sends.
#[cfg(test)]
fn sends<M: Model>(lp: &mut Lp<M>, model: &M, event: Event<M::Payload>) -> Vec<Event<M::Payload>> {
    let mut out = Vec::new();
    lp.process_into(model, event, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EventUid;
    use crate::slab::Slot;

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
        let mut lp = Lp::with_snapshot_period(&m, LpId(1), 7, 1);
        let out = sends(&mut lp, &m, ev(1.0, 1, 0, 0, 10));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key.recv_time, VirtualTime::from_f64(2.0));
        assert_eq!(lp.history_len(), 1);
        assert_eq!(
            lp.last_processed_key(&lp.store).unwrap().recv_time,
            VirtualTime::from_f64(1.0)
        );
        assert_eq!(lp.sent(), [out[0].key]);
        assert_eq!(lp.snapshot_ordinals(), [0]);
    }

    /// An entry's slot is the event and its four links (neighbours, keys,
    /// snapshot) plus the slot's tag: it cannot silently grow back to
    /// carrying its snapshot or key list inline.
    #[test]
    fn history_slot_is_the_event_plus_three_words() {
        use std::mem::size_of;
        assert!(size_of::<Slot<ProcessedEntry<u64>>>() <= size_of::<Event<u64>>() + 24);
    }

    /// Slots freed by a rollback or a commit are taken again before a slab
    /// grows: an LP that holds at most four entries at a time never has
    /// more than four entry, key or snapshot slots.
    #[test]
    fn freed_slots_are_reused() {
        let m = Counter;
        let mut lp = Lp::with_snapshot_period(&m, LpId(1), 7, 1);
        for i in 0..200u64 {
            let t = i as f64 + 1.0;
            sends(&mut lp, &m, ev(t, 1, 0, 2 * i, 1));
            sends(&mut lp, &m, ev(t + 0.5, 1, 0, 2 * i + 1, 1));
            if i % 2 == 0 {
                lp.rollback(&m, &ev(t + 0.25, 1, 9, i, 0).key, false);
            }
            lp.fossil_collect(&m, VirtualTime::from_f64(t));
        }
        let store = &lp.store;
        assert_eq!(store.entries.slots.len(), 4);
        assert_eq!(store.keys.slots.len(), 4);
        assert_eq!(store.snaps.slots.len(), 4);
        lp.fossil_collect(&m, VirtualTime::INFINITY);
        assert_eq!(lp.store.bytes().live, 0, "a commit frees every slot");
    }

    #[test]
    fn rollback_restores_state_rng_and_seq() {
        let m = Counter;
        let mut lp = Lp::with_snapshot_period(&m, LpId(1), 7, 1);
        let before_digest = lp.state;
        let before_rng = lp.rng.clone();
        let e1 = ev(1.0, 1, 0, 0, 10);
        let out1 = sends(&mut lp, &m, e1.clone());
        let e2 = ev(2.0, 1, 0, 1, 20);
        let out2 = sends(&mut lp, &m, e2.clone());

        // Straggler at t=0.5 rolls back both.
        let straggler_key = ev(0.5, 1, 9, 0, 0).key;
        let rb = lp.rollback(&m, &straggler_key, false);
        assert_eq!(rb.undone, 2);
        assert_eq!(rb.reinserted, vec![e1.clone(), e2.clone()]);
        assert_eq!(rb.antis, vec![out1[0].key, out2[0].key]);
        assert_eq!(lp.state, before_digest);
        assert_eq!(lp.rng, before_rng);
        assert_eq!(lp.send_seq, 0);
        assert_eq!(lp.history_len(), 0);

        // Re-execution reproduces the same sends (same uid, time, payload).
        let out1b = sends(&mut lp, &m, e1);
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
        let a = sends(&mut lp, &m, ev(1.0, 1, 0, 0, 1));
        let b = sends(&mut lp, &m, ev(2.0, 1, 0, 1, 2));
        let c = sends(&mut lp, &m, ev(3.0, 1, 0, 2, 3));
        let rb = lp.rollback(&m, &ev(1.5, 1, 9, 0, 0).key, false);
        assert_eq!(rb.antis, [b[1].key, b[0].key, c[1].key, c[0].key]);
        let rb = lp.rollback(&m, &ev(0.5, 1, 9, 0, 0).key, false);
        assert_eq!(rb.antis, [a[1].key, a[0].key]);
    }

    #[test]
    fn partial_rollback_keeps_earlier_entries() {
        let m = Counter;
        let mut lp = Lp::with_snapshot_period(&m, LpId(1), 7, 1);
        sends(&mut lp, &m, ev(1.0, 1, 0, 0, 1));
        let state_after_1 = lp.state;
        sends(&mut lp, &m, ev(2.0, 1, 0, 1, 2));
        sends(&mut lp, &m, ev(3.0, 1, 0, 2, 3));
        let rb = lp.rollback(&m, &ev(1.5, 1, 9, 0, 0).key, false);
        assert_eq!(rb.undone, 2);
        assert_eq!(lp.history_len(), 1);
        assert_eq!(lp.state, state_after_1);
        assert_eq!(
            lp.last_processed_key(&lp.store).unwrap().recv_time,
            VirtualTime::from_f64(1.0)
        );
    }

    #[test]
    fn inclusive_rollback_undoes_equal_key() {
        let m = Counter;
        let mut lp = Lp::with_snapshot_period(&m, LpId(1), 7, 1);
        let e1 = ev(1.0, 1, 0, 0, 1);
        sends(&mut lp, &m, e1.clone());
        let rb = lp.rollback(&m, &e1.key, true);
        assert_eq!(rb.undone, 1);
        let rb2 = lp.rollback(&m, &e1.key, false);
        assert_eq!(rb2.undone, 0);
    }

    #[test]
    fn straggler_detection_uses_full_key_order() {
        let m = Counter;
        let mut lp = Lp::with_snapshot_period(&m, LpId(1), 7, 1);
        let e = ev(1.0, 1, 2, 5, 1);
        sends(&mut lp, &m, e);
        // Same time, smaller uid → straggler.
        assert!(lp.is_straggler(&lp.store, &ev(1.0, 1, 2, 4, 0).key));
        // Same time, larger uid → not a straggler.
        assert!(!lp.is_straggler(&lp.store, &ev(1.0, 1, 2, 6, 0).key));
        assert!(!lp.is_straggler(&lp.store, &ev(2.0, 1, 0, 0, 0).key));
        assert!(lp.is_straggler(&lp.store, &ev(0.5, 1, 0, 0, 0).key));
    }

    #[test]
    fn fossil_collect_commits_below_gvt_only() {
        let m = Counter;
        let mut lp = Lp::with_snapshot_period(&m, LpId(1), 7, 1);
        sends(&mut lp, &m, ev(1.0, 1, 0, 0, 1));
        sends(&mut lp, &m, ev(2.0, 1, 0, 1, 1));
        sends(&mut lp, &m, ev(3.0, 1, 0, 2, 1));
        assert_eq!(lp.fossil_collect(&m, VirtualTime::from_f64(2.0)), 1);
        assert_eq!(lp.committed, 1);
        assert_eq!(lp.history_len(), 2);
        // Equal-to-GVT entries retained.
        assert_eq!(lp.fossil_collect(&m, VirtualTime::from_f64(2.0)), 0);
        assert_eq!(lp.fossil_collect(&m, VirtualTime::INFINITY), 2);
        assert_eq!(lp.committed, 3);
        assert_eq!(lp.history_len(), 0);
    }

    #[test]
    fn committed_snapshot_and_restore_resume_identically() {
        let m = Counter;
        let mut lp = Lp::with_snapshot_period(&m, LpId(1), 7, 1);
        let e1 = ev(1.0, 1, 0, 0, 1);
        let e2 = ev(2.0, 1, 0, 1, 2);
        let e3 = ev(3.0, 1, 0, 2, 3);
        sends(&mut lp, &m, e1);
        let committed_state = lp.state;
        let out2 = sends(&mut lp, &m, e2.clone());
        let out3 = sends(&mut lp, &m, e3.clone());
        lp.fossil_collect(&m, VirtualTime::from_f64(1.5));
        assert_eq!(lp.committed_lvt, VirtualTime::from_f64(1.0));

        // The committed snapshot is the state right after e1...
        let snap = lp.committed_snapshot(&lp.store);
        assert_eq!(snap.state, committed_state);

        // ...and a fresh LP restored from it replays e2/e3 bit-for-bit.
        let mut fresh = Lp::with_snapshot_period(&m, LpId(1), 999, 1); // wrong seed, overwritten
        fresh.core.restore_from(
            &mut fresh.store,
            snap,
            lp.committed,
            lp.commit_digest,
            lp.committed_lvt,
        );
        assert_eq!(fresh.committed, 1);
        assert_eq!(fresh.history_len(), 0);
        assert_eq!(sends(&mut fresh, &m, e2), out2);
        assert_eq!(sends(&mut fresh, &m, e3), out3);
        lp.fossil_collect(&m, VirtualTime::INFINITY);
        fresh.fossil_collect(&m, VirtualTime::INFINITY);
        assert_eq!(fresh.state, lp.state);
        assert_eq!(fresh.commit_digest, lp.commit_digest);
        assert_eq!(fresh.committed, lp.committed);
    }

    #[test]
    fn committed_snapshot_with_empty_history_is_current_state() {
        let m = Counter;
        let mut lp = Lp::with_snapshot_period(&m, LpId(1), 7, 1);
        sends(&mut lp, &m, ev(1.0, 1, 0, 0, 1));
        lp.fossil_collect(&m, VirtualTime::INFINITY);
        let snap = lp.committed_snapshot(&lp.store);
        assert_eq!(snap.state, lp.state);
        assert_eq!(snap.send_seq, lp.send_seq);
    }

    #[test]
    fn commit_digest_is_order_independent() {
        let m = Counter;
        let e1 = ev(1.0, 1, 0, 0, 1);
        let e2 = ev(2.0, 1, 0, 1, 1);
        let mut a = Lp::with_snapshot_period(&m, LpId(1), 7, 1);
        sends(&mut a, &m, e1.clone());
        sends(&mut a, &m, e2.clone());
        a.fossil_collect(&m, VirtualTime::INFINITY);
        let mut b = Lp::with_snapshot_period(&m, LpId(1), 7, 1);
        sends(&mut b, &m, e1);
        b.fossil_collect(&m, VirtualTime::from_f64(1.5));
        sends(&mut b, &m, e2);
        b.fossil_collect(&m, VirtualTime::INFINITY);
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
    use proptest::prelude::*;

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
            sends(&mut lp, &m, ev(i as f64 + 1.0, i));
        }
        // Fossil part of the history (forces snapshot materialization).
        lp.fossil_collect(&m, VirtualTime::from_f64(4.5));
        // Roll back into the un-snapshotted middle.
        let rb = lp.rollback(&m, &ev(7.5, 99).key, false);
        let antis = rb.antis.clone();
        // Replay the undone events.
        for e in rb.reinserted {
            sends(&mut lp, &m, e);
        }
        lp.fossil_collect(&m, VirtualTime::INFINITY);
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
            sends(&mut lp, &m, ev(i as f64 + 1.0, i));
        }
        assert_eq!(lp.snapshot_ordinals(), [0, 4, 8]);
    }

    #[test]
    fn fossil_materializes_replay_base() {
        let m = Mixer;
        let mut lp = Lp::with_snapshot_period(&m, LpId(1), 7, 4);
        for i in 0..8 {
            sends(&mut lp, &m, ev(i as f64 + 1.0, i));
        }
        // Cut mid-gap: entries 0..6 committed (recv < 6.5), entry 6 had no
        // snapshot and must get one.
        lp.fossil_collect(&m, VirtualTime::from_f64(6.5));
        assert_eq!(
            lp.snapshot_ordinals()[0],
            lp.committed,
            "replay base materialized"
        );
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
            sends(&mut lp, &m, ev(i as f64 + 1.0, i));
            states.push(lp.state);
        }
        // Undo events 4 and 5 → state must equal post-event-3 state.
        let rb = lp.rollback(&m, &ev(4.5, 99).key, false);
        assert_eq!(rb.undone, 2);
        assert_eq!(lp.state, states[3]);
        // Re-execution reproduces the same states.
        for e in rb.reinserted {
            sends(&mut lp, &m, e);
        }
        assert_eq!(lp.state, states[5]);
    }

    /// Handler with data-dependent RNG draws, state growth and fan-out
    /// sends: a replay that diverges shows in state, RNG and sends.
    struct Churn;
    impl Model for Churn {
        type State = Vec<u64>;
        type Payload = u32;
        fn num_lps(&self) -> usize {
            4
        }
        fn init_state(&self, _lp: LpId) -> Vec<u64> {
            vec![0xC0FFEE]
        }
        fn init_events(&self, _lp: LpId, _s: &mut Vec<u64>, _ctx: &mut SendCtx<'_, u32>) {}
        fn handle_event(&self, _lp: LpId, s: &mut Vec<u64>, p: &u32, ctx: &mut SendCtx<'_, u32>) {
            let draws = (ctx.rng().next_below(3) + 1) as usize;
            for _ in 0..draws {
                let x = ctx.rng().next_below(u32::MAX as u64);
                s.push(x ^ (*p as u64));
                let dst = LpId(ctx.rng().next_below(4) as u32);
                let d = 0.1 + ctx.rng().next_f64();
                ctx.send(dst, d, p + 1);
            }
            if s.len() > 8 {
                s.remove(0);
            }
        }
        fn state_digest(&self, s: &Vec<u64>) -> u64 {
            s.iter().fold(0u64, |a, &x| a.rotate_left(7) ^ x)
        }
    }

    /// The `i`-th event of a history: at time `i + 1`.
    fn nth(i: usize) -> Event<u32> {
        ev(i as f64 + 1.0, i as u64)
    }

    proptest! {
    /// Arbitrary interleavings of the four things a history is asked to do
    /// — process the next event, roll back (exclusively or inclusively) to
    /// an arbitrary retained depth, fossil-collect at an arbitrary cut, and
    /// reprocess what a rollback undid — on a dense and a sparse LP side by
    /// side. After every step the two agree on state, RNG, send counter and
    /// committed snapshot; every rollback on antis *in order* and
    /// reinserted events; the end on the committed digests.
    #[test]
    fn interleaved_history_ops_match_dense_oracle(
        seed in any::<u64>(),
        period in prop::sample::select(vec![1u32, 2, 3, 5, 8, 16]),
        ops in prop::collection::vec((0u8..8, 0.0f64..1.0), 1..60),
    ) {
        let m = Churn;
        let mut dense: Lp<Churn> = Lp::with_snapshot_period(&m, LpId(1), seed, 1);
        let mut sparse: Lp<Churn> = Lp::with_snapshot_period(&m, LpId(1), seed, period);
        // Events `[done, next)` are in both histories; `[next, ..)` are not
        // yet processed (or were undone and wait to be reprocessed).
        let (mut done, mut next) = (0usize, 0usize);
        let (mut sd, mut ss) = (Vec::new(), Vec::new());
        for (op, frac) in ops {
            // An index into the retained history, `done ..= next`.
            let at = done + (frac * (next - done + 1) as f64) as usize;
            match op {
                // Roll back to `at`: inclusive undoes event `at` itself,
                // exclusive everything after the gap below it.
                0 | 1 if at < next => {
                    let inclusive = op == 0;
                    let mut key = nth(at).key;
                    if !inclusive {
                        key.recv_time = VirtualTime::from_f64(at as f64 + 0.5);
                    }
                    let rb_d = dense.rollback(&m, &key, inclusive);
                    let rb_s = sparse.rollback(&m, &key, inclusive);
                    prop_assert_eq!(rb_d.undone, next - at);
                    prop_assert_eq!(rb_s.undone, next - at);
                    prop_assert_eq!(&rb_d.antis, &rb_s.antis, "antis diverge");
                    prop_assert_eq!(&rb_d.reinserted, &rb_s.reinserted);
                    let undone: Vec<_> = (at..next).map(nth).collect();
                    prop_assert_eq!(&rb_s.reinserted, &undone);
                    next = at;
                }
                // Commit events `[done, at)`: a cut anywhere in the history,
                // mid-gap more often than not.
                2 if at > done => {
                    let gvt = nth(at).key.recv_time;
                    let cd = dense.fossil_collect(&m, gvt);
                    prop_assert_eq!(cd, sparse.fossil_collect(&m, gvt));
                    prop_assert_eq!(cd as usize, at - done);
                    done = at;
                }
                // Process (or reprocess) the next event.
                _ => {
                    sd.clear();
                    ss.clear();
                    dense.process_into(&m, nth(next), &mut sd);
                    sparse.process_into(&m, nth(next), &mut ss);
                    prop_assert_eq!(&sd, &ss, "sends diverge");
                    next += 1;
                }
            }
            prop_assert_eq!(&dense.state, &sparse.state, "state diverges");
            prop_assert_eq!(&dense.rng, &sparse.rng, "RNG diverges");
            prop_assert_eq!(dense.send_seq, sparse.send_seq);
            prop_assert_eq!(sparse.history_len(), next - done);
            let cd = dense.committed_snapshot(&dense.store);
            let cs = sparse.committed_snapshot(&sparse.store);
            prop_assert_eq!(&cd.state, &cs.state, "committed state diverges");
            prop_assert_eq!(&cd.rng, &cs.rng);
            prop_assert_eq!(cd.send_seq, cs.send_seq);
            prop_assert_eq!(dense.commit_digest, sparse.commit_digest);
        }
        dense.fossil_collect(&m, VirtualTime::INFINITY);
        sparse.fossil_collect(&m, VirtualTime::INFINITY);
        prop_assert_eq!(&dense.state, &sparse.state, "final state diverges");
        prop_assert_eq!(dense.commit_digest, sparse.commit_digest);
        prop_assert_eq!(dense.committed, sparse.committed);
        prop_assert_eq!(dense.committed as usize, next);
    }
    }
}
