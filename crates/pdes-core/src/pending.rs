//! The event queue, and the per-thread pending event set built on it.
//!
//! [`EventQueue`] is the system's one priority queue of events: the
//! sequential oracle drains one, and every engine's [`PendingSet`] is one
//! plus a chain of pending events per destination LP. Layout: a one-rung
//! ladder queue (Tang, Goh & Thng, ACM TOMACS 2005) of 16-byte entries —
//! the receive time in ticks and a slot number — over the crate's slab
//! (`slab.rs`, the history store's too) of queued events. Entries move,
//! never events: an event is written into its slot once on push and moved
//! out once on pop. The three tiers, lowest first:
//!
//! * **bottom** — a binary min-heap of every entry with ticks below
//!   `bottom_end`. Its root is the lowest entry of the queue. `pop` is
//!   Floyd's: the hole left at the root walks to the bottom along the
//!   smaller child, picked without a branch (`c + less(c + 1, c)`), and the
//!   last entry sifts up from where the hole stopped. Ties on the tick
//!   count fall back to the full [`EventKey`] read from the slab, so the
//!   pop order is exactly the events' total order.
//! * **rung** — unsorted buckets of equal power-of-two width covering
//!   `[bottom_end, …)`, each a chain linked through a per-slot `Link`. When
//!   the bottom empties it takes the next non-empty bucket, and
//!   `bottom_end` moves past it.
//! * **top** — one unsorted chain of everything past the rung's last
//!   bucket, with the bounds and sum of its ticks. When the rung is
//!   drained it is rebuilt from the top: a bucket per two entries, over
//!   twice the distance from the top's minimum to its mean (its maximum,
//!   if nearer), so a heavy tail does not widen every bucket; what lies
//!   past the new rung stays in the top.
//!
//! A push lands in the tier its ticks fall in, so a rollback's re-inserts
//! and stragglers go straight into the bottom. Entries with equal ticks
//! always share a tier and a bucket, which is why the bottom's order is the
//! queue's. Push, pop and refill are O(1) amortised whatever the
//! population: the bottom's heap holds a bucket's few entries and the
//! stragglers. A small set never raises a rung: the queue is the bottom
//! heap alone until it holds more than twice `SMALL` entries, and goes back
//! to it when the rung is rebuilt from `SMALL` or fewer.
//!
//! Cancellation is lazy: [`PendingSet::cancel`] unlinks the event from its
//! LP's chain and marks its slot dead, leaving the entry behind, in
//! whichever tier, as a tombstone that keeps the key for ordering.
//! **Tombstone rule:** a dead slot is freed only when its entry surfaces at
//! the bottom's root or when compaction drops it, so a slot is never reused
//! while an old entry still points at it. The bottom's root is always live
//! — pops and root-cancels purge dead roots, refilling an empty bottom from
//! the rung — so `min_key` and `min_time` stay `&self` and O(1). The same
//! key can be queued twice (anti-then-resend: the cancelled entry is a
//! tombstone, the re-sent twin takes a fresh slot); only the live one is
//! chained. Compaction unlinks the tombstones from every tier and sorts the
//! bottom in place — a sorted array is a heap — and moves no slot, so the
//! chains stay valid.
//!
//! A [`PendingSet`] finds an anti-message's twin through its destination
//! LP's chain: every live slot is linked, through a `(prev, next)` pair
//! kept per slot beside the queue, into a doubly linked chain headed by its
//! LP. A cancel walks that chain comparing full [`EventKey`]s — an LP holds
//! one or two pending events on average — and an insert walks it to refuse
//! a duplicate key. Nothing hashes, and [`EventQueue::iter`] /
//! [`PendingSet::iter`] walk the slab in **unspecified order** (callers
//! that need an order sort; the digest folds are XOR and
//! order-independent).
//!
//! Anti-messages can arrive *before* their positive twin (the positive and
//! the anti may be enqueued by different threads after a rollback on the
//! sender). Such "orphan" antis are parked in a side set and annihilate the
//! positive on arrival.

use crate::event::{Event, EventKey};
use crate::slab::{Slab, NIL};
use crate::time::VirtualTime;
use std::collections::BTreeSet;

/// One bottom-heap entry: an event's receive time in ticks and its slab slot.
#[derive(Debug, Clone, Copy)]
struct Entry {
    ticks: u64,
    slot: u32,
}

/// A slot's link in its chain — a rung bucket's or the top's — to the next
/// slot of the chain, or `NIL`, and the event's receive time in ticks.
#[derive(Debug, Clone, Copy)]
struct Link {
    ticks: u64,
    next: u32,
}

/// A queued event: live, or cancelled with its entry still queued.
#[derive(Debug)]
enum Queued<P> {
    Live(Event<P>),
    /// Cancelled; its entry has not surfaced yet and is still ordered by
    /// this key.
    Dead(EventKey),
}

impl<P> Queued<P> {
    #[inline]
    fn key(&self) -> &EventKey {
        match self {
            Queued::Live(ev) => &ev.key,
            Queued::Dead(key) => key,
        }
    }
}

type Events<P> = Slab<Queued<P>>;

/// `a` pops before `b`: ticks first, the full key on a tie.
#[inline(always)]
fn less<P>(slab: &Events<P>, a: Entry, b: Entry) -> bool {
    if a.ticks != b.ticks {
        a.ticks < b.ticks
    } else {
        slab.get(a.slot).key() < slab.get(b.slot).key()
    }
}

/// Move `entry` up from `pos` to its place.
#[inline(always)]
fn sift_up<P>(slab: &Events<P>, heap: &mut [Entry], mut pos: usize, entry: Entry) {
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

/// Unlink every slot of the chain at `head` that `drop` accepts; returns
/// how many went.
fn unlink_where(links: &mut [Link], head: &mut u32, mut drop: impl FnMut(u32) -> bool) -> usize {
    let (mut prev, mut at, mut dropped) = (NIL, *head, 0);
    while at != NIL {
        let next = links[at as usize].next;
        if drop(at) {
            match prev {
                NIL => *head = next,
                _ => links[prev as usize].next = next,
            }
            dropped += 1;
        } else {
            prev = at;
        }
        at = next;
    }
    dropped
}

/// The top of the ladder: a chain of every entry at or past the rung's
/// last bucket, unsorted, and the bounds and sum of their ticks.
#[derive(Debug)]
struct Top {
    head: u32,
    len: usize,
    min: u64,
    max: u64,
    sum: u128,
}

impl Top {
    const EMPTY: Top = Top {
        head: NIL,
        len: 0,
        min: u64::MAX,
        max: 0,
        sum: 0,
    };
}

/// Events in key order: a one-rung ladder queue of `(ticks, slot)` entries
/// over a slab of events (see the module docs).
#[derive(Debug)]
pub struct EventQueue<P> {
    /// Binary min-heap of every entry with ticks below `bottom_end`; its
    /// root is the lowest entry of the queue, and live.
    bottom: Vec<Entry>,
    /// `u64::MAX` while the rung is down; past the rung's last drained
    /// bucket while it is up (saturating).
    bottom_end: u64,
    /// Heads of the rung's bucket chains, each `1 << shift` ticks wide from
    /// `rung_start`; empty while the rung is down. Buckets below
    /// `next_bucket` have been drained into the bottom.
    buckets: Vec<u32>,
    next_bucket: usize,
    rung_start: u64,
    shift: u32,
    top: Top,
    slab: Events<P>,
    /// Per slot of the slab, its link in a bucket's chain or the top's.
    links: Vec<Link>,
    /// Live events: queued entries (the slab's slots in use) minus
    /// tombstones.
    live: usize,
}

impl<P> Default for EventQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

/// Up to this many entries the rung stays down and the queue is the bottom
/// heap alone: a small set sits in L1, where the heap's branch-free descent
/// beats the rung's bookkeeping. The bottom spills into a rung once it holds
/// more than twice this many, and the rung comes down when it is rebuilt
/// from this many or fewer.
const SMALL: usize = 64;

/// The rung aims at this many entries per bucket.
const PER_BUCKET: usize = 2;

impl<P> EventQueue<P> {
    /// Bytes one queued event takes in the slab.
    pub const SLOT_BYTES: usize = Events::<P>::SLOT_BYTES;

    pub fn new() -> Self {
        EventQueue {
            bottom: Vec::new(),
            bottom_end: u64::MAX,
            buckets: Vec::new(),
            next_bucket: 0,
            rung_start: 0,
            shift: 0,
            top: Top::EMPTY,
            slab: Slab::new(),
            links: Vec::new(),
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
        let slot = self.slab.insert(Queued::Live(event));
        if slot as usize == self.links.len() {
            self.links.push(Link { ticks, next: NIL });
        }
        self.live += 1;
        let entry = Entry { ticks, slot };
        if ticks < self.bottom_end {
            self.push_bottom(entry);
            if self.bottom.len() > 2 * SMALL && self.buckets.is_empty() {
                self.spill();
            }
        } else {
            self.push_above(entry);
        }
        slot
    }

    /// Key of the lowest live event.
    #[inline]
    pub fn peek_key(&self) -> Option<&EventKey> {
        self.bottom.first().map(|e| self.slab.get(e.slot).key())
    }

    /// Remove and return the lowest live event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event<P>> {
        let top = self.remove_top()?;
        let Queued::Live(ev) = self.slab.take(top.slot) else {
            unreachable!("the bottom's root is always live")
        };
        self.live -= 1;
        // With the bottom non-empty and no tombstone outstanding — the
        // common case — the new root is provably live and settling is
        // skipped.
        if self.bottom.is_empty() || self.slab.len() != self.live {
            self.settle();
        }
        Some(ev)
    }

    /// Live events in **unspecified order**.
    pub fn iter(&self) -> impl Iterator<Item = &Event<P>> {
        self.slab.iter().filter_map(|q| match q {
            Queued::Live(ev) => Some(ev),
            Queued::Dead(_) => None,
        })
    }

    #[inline]
    fn push_bottom(&mut self, entry: Entry) {
        self.bottom.push(entry);
        let last = self.bottom.len() - 1;
        sift_up(&self.slab, &mut self.bottom, last, entry);
    }

    /// Queue an entry at or past `bottom_end`: into its rung bucket, the
    /// top past the rung, or — with the rung down, or past a saturated
    /// `bottom_end` — the bottom.
    #[inline]
    fn push_above(&mut self, entry: Entry) {
        if self.buckets.is_empty() {
            return self.push_bottom(entry);
        }
        let bucket = ((entry.ticks - self.rung_start) >> self.shift) as usize;
        if bucket < self.next_bucket {
            self.push_bottom(entry);
        } else if let Some(head) = self.buckets.get_mut(bucket) {
            self.links[entry.slot as usize] = Link {
                ticks: entry.ticks,
                next: *head,
            };
            *head = entry.slot;
        } else {
            self.push_top(entry);
        }
    }

    #[inline]
    fn push_top(&mut self, entry: Entry) {
        let top = &mut self.top;
        self.links[entry.slot as usize] = Link {
            ticks: entry.ticks,
            next: top.head,
        };
        top.head = entry.slot;
        top.len += 1;
        top.min = top.min.min(entry.ticks);
        top.max = top.max.max(entry.ticks);
        top.sum += u128::from(entry.ticks);
    }

    /// Floyd's pop of the bottom's root: the hole walks to the bottom along
    /// the smaller child, then the last entry sifts up from it.
    #[inline]
    fn remove_top(&mut self) -> Option<Entry> {
        let last = self.bottom.pop()?;
        let Some(&top) = self.bottom.first() else {
            return Some(last);
        };
        let (slab, heap) = (&self.slab, &mut self.bottom);
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
    /// entry surfaces (tombstone rule).
    fn kill(&mut self, slot: u32) {
        let q = self.slab.get_mut(slot);
        let Queued::Live(ev) = q else {
            unreachable!("only a live slot is cancelled")
        };
        *q = Queued::Dead(ev.key);
        self.live -= 1;
        if self.bottom[0].slot == slot {
            self.settle();
        }
    }

    /// Restore the queue's invariant: the bottom is non-empty and its root
    /// live, or nothing is queued. Dead roots surface and free their slots;
    /// an empty bottom refills from the rung.
    fn settle(&mut self) {
        loop {
            match self.bottom.first() {
                None => {
                    if !self.refill() {
                        return;
                    }
                }
                Some(top) if matches!(self.slab.get(top.slot), Queued::Dead(_)) => {
                    let dead = self.remove_top().expect("non-empty");
                    self.slab.take(dead.slot);
                }
                Some(_) => return,
            }
        }
    }

    /// Refill the empty bottom from the next non-empty bucket, rebuilding
    /// the rung from the top once every bucket is drained, and bring the
    /// rung down when the top is small. Returns false when nothing is
    /// queued.
    fn refill(&mut self) -> bool {
        debug_assert!(self.bottom.is_empty());
        loop {
            while let Some(head) = self.buckets.get_mut(self.next_bucket) {
                let chain = std::mem::replace(head, NIL);
                self.next_bucket += 1;
                if chain != NIL {
                    let drained = (self.next_bucket as u64).saturating_mul(1 << self.shift);
                    self.bottom_end = self.rung_start.saturating_add(drained);
                    self.drain_chain(chain);
                    return true;
                }
            }
            self.buckets.clear();
            self.next_bucket = 0;
            self.bottom_end = u64::MAX;
            match self.top.len {
                0 => {
                    self.top = Top::EMPTY;
                    return false;
                }
                len if len <= SMALL => {
                    let top = std::mem::replace(&mut self.top, Top::EMPTY);
                    self.drain_chain(top.head);
                    return true;
                }
                _ => self.build_rung(),
            }
        }
    }

    /// Push every entry of the chain at `head` into the bottom.
    fn drain_chain(&mut self, mut at: u32) {
        while at != NIL {
            let Link { ticks, next } = self.links[at as usize];
            self.push_bottom(Entry { ticks, slot: at });
            at = next;
        }
    }

    /// Spread the top over a fresh rung of at most `len / PER_BUCKET`
    /// buckets of one power-of-two width, covering twice the distance from
    /// the top's minimum to its mean, or to its maximum when that is
    /// nearer. Entries past the last bucket stay in the top — by Markov's
    /// inequality at most half of them — so a heavy tail of far-future
    /// events neither widens every bucket nor is walked more than a few
    /// times. The rung is down and the bottom empty.
    fn build_rung(&mut self) {
        let top = std::mem::replace(&mut self.top, Top::EMPTY);
        let wanted = top.len.div_ceil(PER_BUCKET);
        debug_assert!(wanted >= 2, "a rung is built from more than SMALL entries");
        // Compaction leaves the sum as it was, hence the clamp.
        let mean = u64::try_from(top.sum / top.len as u128)
            .map_or(top.max, |mean| mean.clamp(top.min, top.max));
        let span = (top.max - top.min).min((mean - top.min).saturating_mul(2));
        // The narrowest power-of-two width with `span >> shift < wanted`.
        let shift = u64::BITS - (span / wanted as u64).leading_zeros();
        self.rung_start = top.min;
        self.shift = shift;
        // Room for the most buckets the slab's slots could need, so the
        // array grows only when the slab does, never with the spans seen.
        self.buckets.reserve(self.links.len().div_ceil(PER_BUCKET));
        self.buckets.resize((span >> shift) as usize + 1, NIL);
        let mut at = top.head;
        while at != NIL {
            let Link { ticks, next } = self.links[at as usize];
            match self.buckets.get_mut(((ticks - top.min) >> shift) as usize) {
                Some(head) => {
                    self.links[at as usize].next = *head;
                    *head = at;
                }
                None => self.push_top(Entry { ticks, slot: at }),
            }
            at = next;
        }
    }

    /// Move the bottom into the top and raise a rung over it.
    #[cold]
    fn spill(&mut self) {
        for i in 0..self.bottom.len() {
            let entry = self.bottom[i];
            self.push_top(entry);
        }
        self.bottom.clear();
        self.settle();
    }

    /// Drop every tombstone from the three tiers, freeing its slot, and sort
    /// the bottom's live entries in place: a sorted array is a heap. Slots do
    /// not move.
    fn compact(&mut self) {
        let Self {
            bottom,
            buckets,
            next_bucket,
            top,
            slab,
            links,
            ..
        } = self;
        let mut drop_dead = |slot: u32| {
            let dead = matches!(slab.get(slot), Queued::Dead(_));
            if dead {
                slab.take(slot);
            }
            dead
        };
        bottom.retain(|e| !drop_dead(e.slot));
        for head in &mut buckets[*next_bucket..] {
            unlink_where(links, head, &mut drop_dead);
        }
        // The top's tick bounds and sum stay as they were: only the rung's
        // width reads them.
        top.len -= unlink_where(links, &mut top.head, &mut drop_dead);
        // A key's first field is its receive time: key order is heap order.
        bottom.sort_unstable_by_key(|e| *slab.get(e.slot).key());
        self.settle();
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

/// A live slot's neighbours in its destination LP's chain, or `NIL`.
#[derive(Debug, Clone, Copy)]
struct Chain {
    prev: u32,
    next: u32,
}

/// Pending (unprocessed) events of one simulation thread, across all its
/// LPs: an [`EventQueue`] plus a chain of live slots per destination LP,
/// through which cancellation finds its event (see the module docs).
#[derive(Debug)]
pub struct PendingSet<P> {
    queue: EventQueue<P>,
    /// By `LpId::index()`, the first slot of the LP's chain, or `NIL`; as
    /// long as the largest destination seen.
    heads: Vec<u32>,
    /// Per slot of the queue's slab, its place in its LP's chain; read
    /// only while the slot is live.
    chains: Vec<Chain>,
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
            heads: Vec::new(),
            chains: Vec::new(),
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
        assert!(self.find(&event.key) == NIL, "duplicate pending event key");
        let lp = event.key.dst.index();
        if lp >= self.heads.len() {
            self.heads.resize(lp + 1, NIL);
        }
        let slot = self.queue.push(event);
        let next = std::mem::replace(&mut self.heads[lp], slot);
        let link = Chain { prev: NIL, next };
        match self.chains.get_mut(slot as usize) {
            Some(chain) => *chain = link,
            None => self.chains.push(link),
        }
        if next != NIL {
            self.chains[next as usize].prev = slot;
        }
        InsertOutcome::Inserted
    }

    /// Apply an anti-message for `key` whose twin was not processed: remove
    /// the pending twin, or park the anti until the twin arrives.
    pub fn cancel(&mut self, key: &EventKey) -> CancelOutcome {
        let slot = self.find(key);
        if slot != NIL {
            self.unlink(slot, key.dst.index());
            self.queue.kill(slot);
            // A cancellation storm can bloat the queue with buried
            // tombstones: compact once they clearly dominate.
            let queued = self.queue.slab.len();
            if queued > 64 && queued > 2 * self.queue.len() {
                self.queue.compact();
            }
            CancelOutcome::Removed
        } else {
            let fresh = self.orphan_antis.insert(*key);
            assert!(fresh, "duplicate anti-message for {key:?}");
            CancelOutcome::Deferred
        }
    }

    /// The slot of the live event keyed `key`, or `NIL`: a walk of its
    /// LP's chain.
    #[inline]
    fn find(&self, key: &EventKey) -> u32 {
        let mut at = self.heads.get(key.dst.index()).copied().unwrap_or(NIL);
        while at != NIL && self.queue.slab.get(at).key() != key {
            at = self.chains[at as usize].next;
        }
        at
    }

    /// Take the live `slot` out of the chain of LP `lp`.
    #[inline]
    fn unlink(&mut self, slot: u32, lp: usize) {
        let Chain { prev, next } = self.chains[slot as usize];
        match prev {
            NIL => self.heads[lp] = next,
            _ => self.chains[prev as usize].next = next,
        }
        if next != NIL {
            self.chains[next as usize].prev = prev;
        }
    }

    /// Remove and return the lowest-keyed pending event.
    pub fn pop_min(&mut self) -> Option<Event<P>> {
        // The bottom's root is the event `pop` takes.
        let slot = self.queue.bottom.first()?.slot;
        let ev = self.queue.pop()?;
        self.unlink(slot, ev.key.dst.index());
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
    use crate::slab::Slot;

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

    /// Every invariant of the three tiers, checked from scratch; returns
    /// each tier's (entries, tombstones): bottom, rung, top.
    fn check<P>(q: &EventQueue<P>) -> [(usize, usize); 3] {
        let slab = &q.slab;
        let ticks_of = |slot: u32| slab.get(slot).key().recv_time.ticks();
        let dead = |slot: u32| matches!(slab.get(slot), Queued::Dead(_)) as usize;
        assert_eq!(q.links.len(), slab.slots.len(), "a link per slot");
        let mut seen = vec![false; slab.slots.len()];
        let mut queue = |slot: u32| {
            assert!(!seen[slot as usize], "slot {slot} is queued twice");
            seen[slot as usize] = true;
        };
        let mut tiers = [(0, 0); 3];
        for (i, e) in q.bottom.iter().enumerate() {
            queue(e.slot);
            assert_eq!(e.ticks, ticks_of(e.slot));
            assert!(
                i == 0 || !less(slab, *e, q.bottom[(i - 1) / 2]),
                "heap order"
            );
            tiers[0].0 += 1;
            tiers[0].1 += dead(e.slot);
        }
        let bucket_of = |ticks: u64| ((ticks - q.rung_start) >> q.shift) as usize;
        if q.buckets.is_empty() {
            assert_eq!((q.bottom_end, q.top.len, q.top.head), (u64::MAX, 0, NIL));
        } else {
            for e in &q.bottom {
                assert!(e.ticks < q.bottom_end || bucket_of(e.ticks) < q.next_bucket);
            }
        }
        let mut walk = |mut at: u32, tier: &mut (usize, usize), place: &dyn Fn(u64)| {
            while at != NIL {
                queue(at);
                let link = q.links[at as usize];
                assert_eq!(link.ticks, ticks_of(at));
                assert!(link.ticks >= q.bottom_end, "below the bottom's end");
                place(link.ticks);
                tier.0 += 1;
                tier.1 += dead(at);
                at = link.next;
            }
        };
        let mut rung = (0, 0);
        for (i, &head) in q.buckets.iter().enumerate() {
            assert!(
                i >= q.next_bucket || head == NIL,
                "a drained bucket holds entries"
            );
            walk(head, &mut rung, &|t| assert_eq!(bucket_of(t), i));
        }
        let mut top = (0, 0);
        walk(q.top.head, &mut top, &|t| {
            assert!(bucket_of(t) >= q.buckets.len(), "past the rung");
            assert!(
                (q.top.min..=q.top.max).contains(&t),
                "within the top's bounds"
            );
        });
        assert_eq!(top.0, q.top.len);
        tiers[1] = rung;
        tiers[2] = top;
        let queued = slab.len();
        assert_eq!(queued, tiers.iter().map(|t| t.0).sum::<usize>());
        assert_eq!(q.live, queued - tiers.iter().map(|t| t.1).sum::<usize>());
        assert_eq!(
            q.bottom.is_empty(),
            queued == 0,
            "an empty bottom means an empty queue"
        );
        if let Some(root) = q.bottom.first() {
            assert_eq!(dead(root.slot), 0, "the root is live");
        }
        // Tombstone rule: a slot is free exactly when no tier points at it.
        for (i, s) in slab.slots.iter().enumerate() {
            let free = matches!(s, Slot::Free(_));
            assert_eq!(!free, seen[i], "slot {i}: queued unless free");
        }
        tiers
    }

    /// [`check`] of the queue, and every chain: each live slot is linked
    /// exactly once, into its destination LP's chain, both ways.
    fn check_set<P>(ps: &PendingSet<P>) -> [(usize, usize); 3] {
        let tiers = check(&ps.queue);
        let slab = &ps.queue.slab;
        assert!(ps.chains.len() >= slab.slots.len(), "a chain link per slot");
        let mut chained = 0;
        for (lp, &head) in ps.heads.iter().enumerate() {
            let (mut prev, mut at) = (NIL, head);
            while at != NIL {
                let Queued::Live(ev) = slab.get(at) else {
                    panic!("dead slot {at} is chained")
                };
                assert_eq!(ev.key.dst.index(), lp, "slot {at} in another LP's chain");
                assert_eq!(ps.chains[at as usize].prev, prev, "slot {at}: prev");
                chained += 1;
                (prev, at) = (at, ps.chains[at as usize].next);
            }
        }
        assert_eq!(chained, ps.len(), "every live slot is chained");
        tiers
    }

    /// Pop everything, checking the tiers after every pop; returns the keys.
    fn drain<P>(q: &mut EventQueue<P>) -> Vec<EventKey> {
        std::iter::from_fn(|| {
            let key = q.pop().map(|e| e.key);
            check(q);
            key
        })
        .collect()
    }

    fn sorted(mut keys: Vec<EventKey>) -> Vec<EventKey> {
        keys.sort_unstable();
        keys
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

    /// A chain is linked head-first: the last insert for an LP heads it.
    fn chain_of<P>(ps: &PendingSet<P>, lp: u32) -> Vec<u64> {
        let mut at = ps.heads[lp as usize];
        let mut seqs = Vec::new();
        while at != NIL {
            seqs.push(ps.queue.slab.get(at).key().uid.seq);
            at = ps.chains[at as usize].next;
        }
        seqs
    }

    #[test]
    fn cancel_unlinks_at_a_chains_head_middle_and_tail() {
        let mut ps = PendingSet::new();
        // LP 3's chain runs 4, 3, 2, 1, 0 (head first); LP 5 holds one.
        let evs: Vec<_> = (0..5).map(|i| ev(1.0 + i as f64, 3, 0, i)).collect();
        for e in &evs {
            ps.insert(e.clone());
        }
        ps.insert(ev(0.5, 5, 0, 9));
        assert_eq!(chain_of(&ps, 3), vec![4, 3, 2, 1, 0]);
        for (victim, left) in [(4, vec![3, 2, 1, 0]), (2, vec![3, 1, 0]), (0, vec![3, 1])] {
            assert_eq!(ps.cancel(&evs[victim].key), CancelOutcome::Removed);
            assert_eq!(chain_of(&ps, 3), left);
            check_set(&ps);
        }
        assert_eq!(chain_of(&ps, 5), vec![9]);
        // A cancelled key is gone from the chain: its anti parks.
        assert_eq!(ps.cancel(&evs[2].key), CancelOutcome::Deferred);
        let popped: Vec<_> = std::iter::from_fn(|| ps.pop_min())
            .map(|e| e.key.uid.seq)
            .collect();
        assert_eq!(popped, vec![9, 1, 3]);
        assert_eq!(chain_of(&ps, 3), Vec::<u64>::new());
        assert_eq!(chain_of(&ps, 5), Vec::<u64>::new());
        check_set(&ps);
    }

    #[test]
    fn cancel_after_a_compaction_finds_every_survivor() {
        let mut ps = PendingSet::new();
        let evs: Vec<_> = (0..200u64)
            .map(|i| ev(2.0 + i as f64, (i % 4) as u32, 0, i))
            .collect();
        ps.insert(ev(1.0, 0, 0, 1_000));
        for e in &evs {
            ps.insert(e.clone());
        }
        // Cancel two in three until a compaction drops every tombstone.
        for e in evs.iter().filter(|e| e.key.uid.seq % 3 != 0) {
            assert_eq!(ps.cancel(&e.key), CancelOutcome::Removed);
            if ps.queue.slab.len() == ps.len() {
                break;
            }
        }
        assert!(ps.len() > 1 + evs.len() / 3, "a compaction ran midway");
        check_set(&ps);
        let survivors: Vec<_> = evs
            .iter()
            .filter(|e| ps.iter().any(|l| l.key == e.key))
            .collect();
        assert_eq!(survivors.len(), ps.len() - 1);
        // Every survivor is still found through its chain, from either end.
        for e in survivors.iter().rev() {
            assert_eq!(ps.cancel(&e.key), CancelOutcome::Removed);
            check_set(&ps);
        }
        assert_eq!(ps.pop_min().map(|e| e.key.uid.seq), Some(1_000));
        assert_eq!(ps.pop_min(), None);
    }

    #[test]
    fn an_anti_parked_before_its_positive_leaves_the_chain_alone() {
        let mut ps = PendingSet::new();
        let (a, b, c) = (ev(1.0, 2, 0, 0), ev(2.0, 2, 0, 1), ev(3.0, 2, 0, 2));
        ps.insert(a.clone());
        ps.insert(c.clone());
        assert_eq!(ps.cancel(&b.key), CancelOutcome::Deferred);
        assert_eq!(chain_of(&ps, 2), vec![2, 0]);
        assert_eq!(ps.insert(b), InsertOutcome::Annihilated);
        assert_eq!((ps.orphan_antis(), ps.len()), (0, 2));
        assert_eq!(chain_of(&ps, 2), vec![2, 0]);
        check_set(&ps);
        // An anti for an LP the set has never seen parks too.
        assert_eq!(ps.cancel(&ev(1.0, 900, 0, 0).key), CancelOutcome::Deferred);
        assert_eq!(ps.pop_min(), Some(a));
        assert_eq!(ps.pop_min(), Some(c));
    }

    /// The duplicate check is an `assert!`, not a `debug_assert!`: it
    /// holds in release builds too, and finds a twin deep in its chain.
    #[test]
    #[should_panic(expected = "duplicate pending event key")]
    fn a_duplicate_deep_in_its_chain_panics() {
        let mut ps = PendingSet::new();
        for i in 0..6 {
            ps.insert(ev(1.0 + i as f64, 4, 0, i));
        }
        ps.insert(ev(1.0, 4, 0, 0));
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
        assert_eq!(ps.queue.slab.len(), 0, "A's tombstone surfaced and left");

        // After a compaction the survivors are still chained.
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
        assert!(ps.queue.slab.len() < 2 + doomed.len(), "compaction ran");
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

    fn at_ticks(ticks: u64, dst: u32, seq: u64) -> Event<u32> {
        Event {
            key: EventKey {
                recv_time: VirtualTime::from_ticks(ticks),
                ..ev(0.0, dst, 0, seq).key
            },
            ..ev(0.0, dst, 0, seq)
        }
    }

    #[test]
    fn a_small_set_never_raises_a_rung() {
        // phold-thrash's shape: 16 events, each popped and re-sent later,
        // with an anti-then-resend every third step.
        let mut ps = PendingSet::new();
        for i in 0..16 {
            ps.insert(ev(i as f64 * 0.25, i, 0, i as u64));
        }
        for seq in 100..2000u64 {
            let e = ps.pop_min().unwrap();
            let resent = ev(e.key.recv_time.as_f64() + 1.0 + (seq % 7) as f64, 0, 1, seq);
            ps.insert(resent.clone());
            if seq % 3 == 0 {
                assert_eq!(ps.cancel(&resent.key), CancelOutcome::Removed);
                ps.insert(resent);
            }
            assert!(ps.queue.buckets.is_empty(), "the rung stays down");
            check_set(&ps);
        }
    }

    #[test]
    fn all_equal_ticks_make_a_single_bucket() {
        let mut q = EventQueue::new();
        let evs: Vec<_> = (0..500).map(|i| at_ticks(77, 499 - i, i as u64)).collect();
        for e in &evs {
            q.push(e.clone());
            check(&q);
        }
        assert_eq!(q.buckets.len(), 1, "a zero range is one bucket");
        assert_eq!(check(&q), [(500, 0), (0, 0), (0, 0)]);
        // Later pushes at the same tick join the bottom.
        q.push(at_ticks(77, 1000, 1000));
        assert_eq!(check(&q)[0].0, 501);
        let keys = drain(&mut q);
        let mut expect: Vec<_> = evs.iter().map(|e| e.key).collect();
        expect.push(at_ticks(77, 1000, 1000).key);
        assert_eq!(keys, sorted(expect));
        assert!(q.buckets.is_empty(), "an empty queue takes the rung down");
    }

    #[test]
    fn one_far_outlier_gives_a_degenerate_width() {
        let mut q = EventQueue::new();
        let mut keys = Vec::new();
        for i in 0..300u64 {
            let e = at_ticks(i * 1_000 + i % 7, (i % 5) as u32, i);
            keys.push(e.key);
            q.push(e);
        }
        // The outlier comes last, so it lands in the top; the rung built
        // from it spreads 2^40 ticks over its buckets.
        let far = at_ticks(1 << 40, 0, 10_000);
        keys.push(far.key);
        q.push(far);
        check(&q);
        let mut popped = Vec::new();
        // The first rung, raised when the bottom spilled, holds the first
        // 129 events; the rest and the outlier wait in the top.
        while q.len() > 150 {
            popped.push(q.pop().unwrap().key);
            check(&q);
        }
        // It pulls the top's mean out by 2^40 / 172 ticks, and the rung's
        // span to twice that: the cluster, 300,000 ticks, is one bucket,
        // and the outlier, past the rung, stays in the top.
        assert!(q.buckets.len() > 1, "a rung is up");
        assert!(q.shift >= 20, "the outlier sets the width");
        let [bottom, rung, top] = check(&q);
        assert_eq!(
            (bottom.0, rung.0, top.0),
            (149, 0, 1),
            "the cluster is one bucket"
        );
        popped.extend(drain(&mut q));
        assert_eq!(popped, sorted(keys));
    }

    #[test]
    fn ticks_at_the_end_of_time_stay_ordered() {
        // With the rung down, `bottom_end` is u64::MAX itself: an entry at
        // u64::MAX goes to the bottom all the same.
        let mut q = EventQueue::new();
        let end = at_ticks(u64::MAX, 0, 0);
        q.push(end.clone());
        assert_eq!(check(&q), [(1, 0), (0, 0), (0, 0)]);
        // 300 events 2^50 ticks apart up to u64::MAX: the rung's last
        // bucket reaches past it, so `bottom_end` saturates once that
        // bucket is drained.
        let mut keys = vec![end.key];
        for i in 1..300u64 {
            let e = at_ticks(u64::MAX - i * (1 << 50), 0, i);
            keys.push(e.key);
            q.push(e);
        }
        let mut popped = Vec::new();
        while q.buckets.is_empty() || q.next_bucket < q.buckets.len() {
            popped.push(q.pop().unwrap().key);
            check(&q);
        }
        assert_eq!(q.bottom_end, u64::MAX, "saturated");
        // Later entries of that bucket join the bottom, not the drained
        // bucket they index.
        let late = [
            at_ticks(u64::MAX, 1, 1_000),
            at_ticks(u64::MAX - 1, 0, 1_001),
        ];
        let bottom_before = check(&q)[0].0;
        for e in &late {
            keys.push(e.key);
            q.push(e.clone());
        }
        assert_eq!(check(&q)[0].0, bottom_before + late.len());
        popped.extend(drain(&mut q));
        assert_eq!(popped, sorted(keys));
    }

    #[test]
    fn a_push_below_the_bottom_end_after_pops_goes_to_the_bottom() {
        let mut q = EventQueue::new();
        let mut live = Vec::new();
        for i in 0..1000u64 {
            let e = at_ticks((i * 7_919) % 100_000, 0, i);
            live.push(e.key);
            q.push(e);
        }
        let mut popped = Vec::new();
        for _ in 0..300 {
            popped.push(q.pop().unwrap().key);
        }
        let [_, rung, top] = check(&q);
        assert!(
            rung.0 > 0 && q.bottom_end < u64::MAX,
            "a rung is up: {rung:?} {top:?}"
        );
        // The rollback shape: events at and below the last popped time come
        // back (re-inserted stragglers), and one lands just under the
        // bottom's end.
        let last = popped.last().unwrap().recv_time.ticks();
        let back = [
            at_ticks(last, 1, 5_000),
            at_ticks(last - 3, 2, 5_001),
            at_ticks(0, 3, 5_002),
            at_ticks(q.bottom_end - 1, 4, 5_003),
        ];
        let bottom_before = check(&q)[0].0;
        for e in &back {
            q.push(e.clone());
        }
        assert_eq!(
            check(&q)[0].0,
            bottom_before + back.len(),
            "all into the bottom"
        );
        live.retain(|k| !popped.contains(k));
        live.extend(back.iter().map(|e| e.key));
        let rest = drain(&mut q);
        assert_eq!(rest[0], back[2].key);
        assert_eq!(rest, sorted(live));
    }

    #[test]
    fn cancelling_the_root_refills_the_bottom_from_the_rung() {
        let mut ps = PendingSet::new();
        let evs: Vec<_> = (0..400u64).map(|i| at_ticks(i * 1_024, 0, i)).collect();
        for e in &evs {
            ps.insert(e.clone());
        }
        // Pop until the bottom holds its root alone, with buckets to come.
        let mut next = 0;
        while ps.queue.bottom.len() > 1 {
            assert_eq!(ps.pop_min().unwrap().key, evs[next].key);
            next += 1;
        }
        let drained = ps.queue.next_bucket;
        assert!(drained < ps.queue.buckets.len(), "buckets remain");
        let root = ps.min_key().unwrap();
        assert_eq!(root, evs[next].key);
        assert_eq!(ps.cancel(&root), CancelOutcome::Removed);
        check_set(&ps);
        assert!(
            ps.queue.next_bucket > drained,
            "the bottom took the next bucket"
        );
        assert_eq!(ps.min_key(), Some(evs[next + 1].key));
        let rest: Vec<_> = std::iter::from_fn(|| ps.pop_min()).map(|e| e.key).collect();
        let expect: Vec<_> = evs[next + 1..].iter().map(|e| e.key).collect();
        assert_eq!(rest, expect);
    }

    #[test]
    fn compaction_with_tombstones_in_every_tier_keeps_the_tombstone_rule() {
        let mut ps = PendingSet::new();
        let mut live: Vec<Event<u32>> = (0..400u64)
            .map(|i| Event {
                payload: i as u32,
                ..at_ticks((i * 7_919) % 400_000, 0, i)
            })
            .collect();
        for e in &live {
            ps.insert(e.clone());
        }
        for _ in 0..40 {
            let e = ps.pop_min().unwrap();
            live.retain(|l| l.key != e.key);
        }
        // Past the rung: these go to the top.
        for i in 0..100u64 {
            let e = Event {
                payload: 1_000 + i as u32,
                ..at_ticks(1_000_000 + i * 13, 1, 1_000 + i)
            };
            live.push(e.clone());
            ps.insert(e);
        }
        let [_, rung, top] = check_set(&ps);
        assert!(rung.0 > 0 && top.0 >= 100, "three tiers: {rung:?} {top:?}");
        // A straggler just under the bottom's end, cancelled at once: a
        // tombstone in the bottom, below its root.
        let straggler = at_ticks(ps.queue.bottom_end - 1, 7, 7_000);
        ps.insert(straggler.clone());
        assert_eq!(ps.cancel(&straggler.key), CancelOutcome::Removed);
        assert_eq!(check_set(&ps)[0].1, 1);

        // Cancel in a scattered order, never the root, until compaction runs.
        let mut at = 0;
        let before = loop {
            let tiers = check_set(&ps);
            at = (at + 97) % live.len();
            if Some(live[at].key) == ps.min_key() {
                continue;
            }
            let victim = live.swap_remove(at);
            assert_eq!(ps.cancel(&victim.key), CancelOutcome::Removed);
            if ps.queue.slab.len() == ps.len() {
                break tiers;
            }
        };
        assert!(
            before.iter().all(|&(_, dead)| dead > 0),
            "tombstones sat in every tier: {before:?}"
        );
        check_set(&ps);
        // Anti-then-resend into freed slots, then the payloads come back
        // in key order.
        let resent = Event {
            payload: 9_999,
            ..at_ticks(1_000_000, 1, 1_000)
        };
        if let Some(i) = live.iter().position(|e| e.key == resent.key) {
            assert_eq!(ps.cancel(&resent.key), CancelOutcome::Removed);
            live.swap_remove(i);
        }
        ps.insert(resent.clone());
        live.push(resent);
        check_set(&ps);
        live.sort_unstable_by_key(|e| e.key);
        let out: Vec<_> = std::iter::from_fn(|| {
            let e = ps.pop_min();
            check_set(&ps);
            e
        })
        .collect();
        assert_eq!(out, live);
    }
}
