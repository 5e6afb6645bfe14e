//! The event queue, and the per-thread pending event set built on it.
//!
//! [`EventQueue`] is the system's one priority queue of events: the
//! sequential oracle drains one, and every engine's [`PendingSet`] is one
//! plus a key index. Layout: a binary min-heap of 16-byte entries — the
//! receive time in ticks and a slot number — over a slab of events with a
//! free list. Sifting moves entries, never events: an event is written into
//! its slot once on push and moved out once on pop. Ties on the tick count
//! fall back to the full [`EventKey`] read from the slab, so the pop order
//! is exactly the events' total order.
//!
//! `pop` is Floyd's: the hole left at the root walks to the bottom along
//! the smaller child, picked without a branch (`c + less(c + 1, c)`), and
//! the last entry sifts up from where the hole stopped.
//!
//! Cancellation is lazy: [`PendingSet::cancel`] drops the key from the
//! index and marks its slot dead, leaving the heap entry behind as a
//! tombstone that keeps the key for ordering. **Tombstone rule:** a dead
//! slot returns to the free list only when its heap entry surfaces or when
//! compaction drops it, so a slot is never reused while an old heap entry
//! still points at it. The heap *top* is always live — pops and top-cancels
//! purge dead tops — so `min_key` and `min_time` stay `&self` and O(1). The
//! same key can sit in the heap twice (anti-then-resend: the cancelled
//! entry is a tombstone, the re-sent twin takes a fresh slot); the index
//! holds at most one. Compaction keeps the live entries and sorts them in
//! place — a sorted array is a heap — and moves no slot, so the index stays
//! valid.
//!
//! Determinism: the index uses a fixed-key FxHash ([`DetHash`]) — never
//! `RandomState`. Ordering queries never consult it, and
//! [`EventQueue::iter`] / [`PendingSet::iter`] walk the slab in
//! **unspecified order** (callers that need an order sort; the digest folds
//! are XOR and order-independent).
//!
//! Anti-messages can arrive *before* their positive twin (the positive and
//! the anti may be enqueued by different threads after a rollback on the
//! sender). Such "orphan" antis are parked in a side set and annihilate the
//! positive on arrival.

use crate::event::{Event, EventKey};
use crate::time::VirtualTime;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash with a fixed key: deterministic across runs and platforms, ~1 ns
/// per `EventKey`. The standard library's `RandomState` would randomize
/// iteration order per process — poison for a deterministic simulator.
#[derive(Default)]
pub struct DetHash {
    state: u64,
}

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for DetHash {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = (self.state.rotate_left(5) ^ n).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// A `HashMap` with deterministic (fixed-seed) hashing.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DetHash>>;

/// One heap entry: an event's receive time in ticks and its slab slot.
#[derive(Debug, Clone, Copy)]
struct Entry {
    ticks: u64,
    slot: u32,
}

#[derive(Debug)]
enum Slot<P> {
    Live(Event<P>),
    /// Cancelled; its heap entry has not surfaced yet and is still ordered
    /// by this key.
    Dead(EventKey),
    Free,
}

impl<P> Slot<P> {
    #[inline]
    fn key(&self) -> &EventKey {
        match self {
            Slot::Live(ev) => &ev.key,
            Slot::Dead(key) => key,
            Slot::Free => unreachable!("a heap entry points at a free slot"),
        }
    }
}

/// `a` pops before `b`: ticks first, the full key on a tie.
#[inline(always)]
fn less<P>(slab: &[Slot<P>], a: Entry, b: Entry) -> bool {
    if a.ticks != b.ticks {
        a.ticks < b.ticks
    } else {
        slab[a.slot as usize].key() < slab[b.slot as usize].key()
    }
}

/// Move `entry` up from `pos` to its place.
#[inline(always)]
fn sift_up<P>(slab: &[Slot<P>], heap: &mut [Entry], mut pos: usize, entry: Entry) {
    while pos > 0 {
        let parent = (pos - 1) / 2;
        if !less(slab, entry, heap[parent]) {
            break;
        }
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = entry;
}

/// Events in key order: a binary min-heap of `(ticks, slot)` entries over a
/// slab of events with a free list (see the module docs).
#[derive(Debug)]
pub struct EventQueue<P> {
    heap: Vec<Entry>,
    slab: Vec<Slot<P>>,
    free: Vec<u32>,
    /// Live events: heap entries minus tombstones.
    live: usize,
}

impl<P> Default for EventQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> EventQueue<P> {
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live events.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Queue `event`; returns the slot it occupies until it pops.
    #[inline]
    pub fn push(&mut self, event: Event<P>) -> u32 {
        let ticks = event.key.recv_time.ticks();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Slot::Live(event);
                slot
            }
            None => {
                self.slab.push(Slot::Live(event));
                (self.slab.len() - 1) as u32
            }
        };
        self.live += 1;
        let entry = Entry { ticks, slot };
        self.heap.push(entry);
        let last = self.heap.len() - 1;
        sift_up(&self.slab, &mut self.heap, last, entry);
        slot
    }

    /// Key of the lowest live event.
    #[inline]
    pub fn peek_key(&self) -> Option<&EventKey> {
        self.heap.first().map(|e| self.slab[e.slot as usize].key())
    }

    /// Remove and return the lowest live event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event<P>> {
        let top = self.remove_top()?;
        let Slot::Live(ev) = std::mem::replace(&mut self.slab[top.slot as usize], Slot::Free)
        else {
            unreachable!("the heap top is always live")
        };
        self.free.push(top.slot);
        self.live -= 1;
        // With no tombstone outstanding — the common case — the new top is
        // provably live and the purge is skipped.
        if self.heap.len() != self.live {
            self.purge_top();
        }
        Some(ev)
    }

    /// Live events in **unspecified order**.
    pub fn iter(&self) -> impl Iterator<Item = &Event<P>> {
        self.slab.iter().filter_map(|s| match s {
            Slot::Live(ev) => Some(ev),
            _ => None,
        })
    }

    /// Floyd's pop of the root entry: the hole walks to the bottom along the
    /// smaller child, then the last entry sifts up from it.
    #[inline]
    fn remove_top(&mut self) -> Option<Entry> {
        let last = self.heap.pop()?;
        let Some(&top) = self.heap.first() else {
            return Some(last);
        };
        let (slab, heap) = (&self.slab, &mut self.heap);
        let end = heap.len();
        let mut hole = 0;
        let mut child = 1;
        while child + 1 < end {
            child += less(slab, heap[child + 1], heap[child]) as usize;
            heap[hole] = heap[child];
            hole = child;
            child = 2 * hole + 1;
        }
        if child < end {
            heap[hole] = heap[child];
            hole = child;
        }
        sift_up(slab, heap, hole, last);
        Some(top)
    }

    /// Cancel the live event in `slot`: it becomes a tombstone until its
    /// heap entry surfaces (tombstone rule).
    fn kill(&mut self, slot: u32) {
        let s = &mut self.slab[slot as usize];
        let Slot::Live(ev) = s else {
            unreachable!("only a live slot is cancelled")
        };
        *s = Slot::Dead(ev.key);
        self.live -= 1;
        if self.heap[0].slot == slot {
            self.purge_top();
        }
    }

    /// Free dead tops until the top is live or the heap is empty.
    fn purge_top(&mut self) {
        while let Some(top) = self.heap.first() {
            if !matches!(self.slab[top.slot as usize], Slot::Dead(_)) {
                break;
            }
            let dead = self.remove_top().expect("non-empty");
            self.slab[dead.slot as usize] = Slot::Free;
            self.free.push(dead.slot);
        }
    }

    /// Drop every tombstone, freeing its slot, and sort the live entries in
    /// place: a sorted array is a heap. Slots do not move.
    fn compact(&mut self) {
        let Self {
            heap, slab, free, ..
        } = self;
        heap.retain(|e| {
            let dead = matches!(slab[e.slot as usize], Slot::Dead(_));
            if dead {
                slab[e.slot as usize] = Slot::Free;
                free.push(e.slot);
            }
            !dead
        });
        // A key's first field is its receive time: key order is heap order.
        heap.sort_unstable_by_key(|e| *slab[e.slot as usize].key());
        debug_assert_eq!(heap.len(), self.live);
    }
}

/// Outcome of inserting a positive event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Event stored in the pending set.
    Inserted,
    /// A parked anti-message was waiting for it; both vanished.
    Annihilated,
}

/// Outcome of applying an anti-message to the pending set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The positive twin was pending and has been removed.
    Removed,
    /// The positive twin has not arrived yet; the anti is parked.
    Deferred,
}

/// Pending (unprocessed) events of one simulation thread, across all its
/// LPs: an [`EventQueue`] plus a key → slot index for cancellation.
#[derive(Debug)]
pub struct PendingSet<P> {
    queue: EventQueue<P>,
    index: DetHashMap<EventKey, u32>,
    /// Anti-messages whose positive twin has not arrived yet.
    orphan_antis: BTreeSet<EventKey>,
}

impl<P> Default for PendingSet<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> PendingSet<P> {
    pub fn new() -> Self {
        PendingSet {
            queue: EventQueue::new(),
            index: DetHashMap::default(),
            orphan_antis: BTreeSet::new(),
        }
    }

    /// Insert a positive event, annihilating it against a parked anti if one
    /// is waiting.
    ///
    /// # Panics
    /// Panics on duplicate keys — event UIDs are unique by construction, so a
    /// duplicate indicates an engine bug (e.g. an event re-inserted without
    /// its twin being cancelled).
    pub fn insert(&mut self, event: Event<P>) -> InsertOutcome {
        if self.orphan_antis.remove(&event.key) {
            return InsertOutcome::Annihilated;
        }
        let key = event.key;
        let prev = self.index.insert(key, self.queue.push(event));
        assert!(prev.is_none(), "duplicate pending event key");
        InsertOutcome::Inserted
    }

    /// Apply an anti-message for `key`.
    pub fn cancel(&mut self, key: &EventKey) -> CancelOutcome {
        if let Some(slot) = self.index.remove(key) {
            self.queue.kill(slot);
            // A cancellation storm can bloat the heap with buried
            // tombstones: compact once they clearly dominate.
            let heap = self.queue.heap.len();
            if heap > 64 && heap > 2 * self.queue.len() {
                self.queue.compact();
            }
            CancelOutcome::Removed
        } else {
            let fresh = self.orphan_antis.insert(*key);
            assert!(fresh, "duplicate anti-message for {key:?}");
            CancelOutcome::Deferred
        }
    }

    /// Remove a parked anti-message (the caller resolved it another way,
    /// e.g. by rolling back the already-processed positive). Returns whether
    /// the anti was present.
    pub fn unpark_anti(&mut self, key: &EventKey) -> bool {
        self.orphan_antis.remove(key)
    }

    /// Remove and return the lowest-keyed pending event.
    pub fn pop_min(&mut self) -> Option<Event<P>> {
        let ev = self.queue.pop()?;
        let slot = self.index.remove(&ev.key);
        debug_assert!(slot.is_some(), "a live event is indexed");
        Some(ev)
    }

    /// Key of the lowest pending event without removing it.
    #[inline]
    pub fn min_key(&self) -> Option<EventKey> {
        self.queue.peek_key().copied()
    }

    /// Receive time of the lowest pending event, or `INFINITY` when empty —
    /// the thread's contribution to the GVT minimum.
    #[inline]
    pub fn min_time(&self) -> VirtualTime {
        self.min_key()
            .map(|k| k.recv_time)
            .unwrap_or(VirtualTime::INFINITY)
    }

    /// Number of pending positive events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of parked (unmatched) anti-messages.
    pub fn orphan_antis(&self) -> usize {
        self.orphan_antis.len()
    }

    /// Iterate pending events in **unspecified order**. Callers that need a
    /// deterministic order must sort (checkpoint assembly does); the digest
    /// folds over this iterator are XOR and thus order-independent.
    pub fn iter(&self) -> impl Iterator<Item = &Event<P>> {
        self.queue.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EventUid, LpId};

    fn ev(t: f64, dst: u32, src: u32, seq: u64) -> Event<u32> {
        Event {
            key: EventKey {
                recv_time: VirtualTime::from_f64(t),
                dst: LpId(dst),
                uid: EventUid::new(LpId(src), seq),
            },
            send_time: VirtualTime::ZERO,
            payload: 0,
        }
    }

    #[test]
    fn pop_min_in_key_order() {
        let mut ps = PendingSet::new();
        ps.insert(ev(3.0, 0, 0, 0));
        ps.insert(ev(1.0, 0, 0, 1));
        ps.insert(ev(2.0, 0, 0, 2));
        assert_eq!(ps.min_time(), VirtualTime::from_f64(1.0));
        let order: Vec<f64> = std::iter::from_fn(|| ps.pop_min())
            .map(|e| e.key.recv_time.as_f64())
            .collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
        assert_eq!(ps.min_time(), VirtualTime::INFINITY);
    }

    #[test]
    fn cancel_removes_pending() {
        let mut ps = PendingSet::new();
        let e = ev(1.0, 0, 0, 0);
        ps.insert(e.clone());
        assert_eq!(ps.cancel(&e.key), CancelOutcome::Removed);
        assert!(ps.is_empty());
        assert_eq!(ps.min_key(), None, "tombstone must not surface");
    }

    #[test]
    fn anti_before_positive_annihilates_on_arrival() {
        let mut ps = PendingSet::new();
        let e = ev(1.0, 0, 0, 0);
        assert_eq!(ps.cancel(&e.key), CancelOutcome::Deferred);
        assert_eq!(ps.orphan_antis(), 1);
        assert_eq!(ps.insert(e), InsertOutcome::Annihilated);
        assert_eq!(ps.orphan_antis(), 0);
        assert!(ps.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate pending event key")]
    fn duplicate_insert_panics() {
        let mut ps = PendingSet::new();
        ps.insert(ev(1.0, 0, 0, 0));
        ps.insert(ev(1.0, 0, 0, 0));
    }

    #[test]
    fn len_tracks_contents() {
        let mut ps: PendingSet<u32> = PendingSet::new();
        assert!(ps.is_empty());
        ps.insert(ev(1.0, 0, 0, 0));
        ps.insert(ev(1.0, 1, 0, 1));
        assert_eq!(ps.len(), 2);
        ps.pop_min();
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn tie_break_orders_same_time_events() {
        let mut ps = PendingSet::new();
        ps.insert(ev(1.0, 2, 0, 0));
        ps.insert(ev(1.0, 1, 0, 1));
        assert_eq!(ps.pop_min().unwrap().key.dst, LpId(1));
    }

    #[test]
    fn cancel_then_reinsert_same_key_stays_ordered() {
        // Anti-then-resend leaves a tombstone and a live entry for the same
        // key in the heap; the live one must pop exactly once.
        let mut ps = PendingSet::new();
        let e = ev(2.0, 0, 0, 0);
        ps.insert(e.clone());
        ps.insert(ev(1.0, 0, 0, 1));
        assert_eq!(ps.cancel(&e.key), CancelOutcome::Removed);
        ps.insert(e.clone());
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.pop_min().unwrap().key.uid.seq, 1);
        assert_eq!(ps.pop_min().unwrap().key, e.key);
        assert_eq!(ps.pop_min(), None);
        assert!(ps.is_empty());
    }

    #[test]
    fn buried_tombstones_never_resurface() {
        let mut ps = PendingSet::new();
        let doomed: Vec<_> = (0..10).map(|i| ev(5.0 + i as f64, 0, 0, i)).collect();
        for e in &doomed {
            ps.insert(e.clone());
        }
        ps.insert(ev(1.0, 0, 0, 100));
        for e in &doomed {
            // Buried behind the t=1.0 top: all become tombstones.
            assert_eq!(ps.cancel(&e.key), CancelOutcome::Removed);
        }
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.pop_min().unwrap().key.uid.seq, 100);
        assert_eq!(ps.pop_min(), None);
    }

    #[test]
    fn compaction_keeps_live_set_intact() {
        let mut ps = PendingSet::new();
        ps.insert(ev(0.5, 0, 0, 1000));
        // Enough cancel traffic to trip the tombstone compaction threshold.
        for i in 0..200 {
            let e = ev(10.0 + i as f64, 0, 0, i);
            ps.insert(e.clone());
            if i % 2 == 0 {
                ps.cancel(&e.key);
            }
        }
        assert_eq!(ps.len(), 101);
        let mut times: Vec<f64> = std::iter::from_fn(|| ps.pop_min())
            .map(|e| e.key.recv_time.as_f64())
            .collect();
        assert_eq!(times.len(), 101);
        let sorted = {
            let mut s = times.clone();
            s.sort_by(f64::total_cmp);
            s
        };
        assert_eq!(times, sorted, "pop order must stay ascending");
        assert_eq!(times.remove(0), 0.5);
    }

    /// A dead slot is freed only when its heap entry surfaces or compaction
    /// drops it. Were `cancel` to free A's slot at once, C would take it
    /// while A's entry (t = 5) still pointed there: after B and C, that stale
    /// entry would surface onto a free slot.
    #[test]
    fn a_dead_slot_is_not_reused_while_its_entry_is_queued() {
        let with = |t: f64, seq: u64, payload: u32| Event {
            payload,
            ..ev(t, 0, 0, seq)
        };
        let (a, b, c) = (with(5.0, 0, 10), with(1.0, 1, 11), with(3.0, 2, 12));
        let mut ps = PendingSet::new();
        ps.insert(a.clone());
        ps.insert(b.clone());
        assert_eq!(ps.cancel(&a.key), CancelOutcome::Removed);
        ps.insert(c.clone());
        assert_eq!(ps.pop_min(), Some(b));
        assert_eq!(ps.pop_min(), Some(c));
        assert_eq!(ps.pop_min(), None);
        assert!(ps.queue.heap.is_empty(), "A's tombstone surfaced and left");

        // After a compaction the survivors' slots are still indexed.
        let mut ps = PendingSet::new();
        let doomed: Vec<_> = (0..70)
            .map(|i| with(10.0 + i as f64, i, i as u32))
            .collect();
        let kept = with(50.0, 1000, 7);
        ps.insert(with(1.0, 2000, 8));
        ps.insert(kept.clone());
        for e in &doomed {
            ps.insert(e.clone());
        }
        for e in &doomed {
            assert_eq!(ps.cancel(&e.key), CancelOutcome::Removed);
        }
        assert!(ps.queue.heap.len() < 2 + doomed.len(), "compaction ran");
        assert_eq!(ps.cancel(&kept.key), CancelOutcome::Removed);
        assert_eq!(ps.pop_min().map(|e| e.payload), Some(8));
        assert_eq!(ps.pop_min(), None);
    }

    #[test]
    fn event_queue_pops_in_key_order_with_payloads() {
        let mut q = EventQueue::new();
        // Same tick everywhere but one: the full-key tiebreak decides.
        let evs = [
            Event {
                payload: 1,
                ..ev(2.0, 3, 0, 0)
            },
            Event {
                payload: 2,
                ..ev(2.0, 1, 5, 0)
            },
            Event {
                payload: 3,
                ..ev(2.0, 1, 4, 9)
            },
            Event {
                payload: 4,
                ..ev(0.5, 7, 7, 7)
            },
        ];
        for e in &evs {
            q.push(e.clone());
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.iter().count(), 4);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec![4, 3, 2, 1]);
        assert!(q.is_empty() && q.peek_key().is_none());
    }

    #[test]
    fn det_hash_is_stable() {
        // The whole point of DetHash: the same key hashes identically in
        // every process, so runs are reproducible.
        use std::hash::{Hash, Hasher};
        let key = ev(3.25, 7, 2, 9).key;
        let mut h1 = DetHash::default();
        key.hash(&mut h1);
        let mut h2 = DetHash::default();
        key.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
        assert_ne!(h1.finish(), 0);
    }
}
