//! The slab pdes-core keeps its per-thread values in: one `Vec` of slots
//! addressed by `u32` handles, with the free slots chained through
//! themselves. A freed slot is reused before the slab grows, so its length
//! is the most values it ever held at once and its capacity at most twice
//! that (or the first allocation). The event queue keeps its events in
//! one, and a thread's history store its entries, sent keys and snapshots
//! in three; their chains link slots by handle, with [`NIL`] for none.

/// No slot: either end of a chain, an entry between snapshots, an LP a
/// thread does not own.
pub(crate) const NIL: u32 = u32::MAX;

/// A slot: a value, or a link of the free chain.
#[derive(Debug)]
pub(crate) enum Slot<T> {
    Live(T),
    Free(u32),
}

/// Values addressed by `u32` handles (see the module docs).
#[derive(Debug)]
pub(crate) struct Slab<T> {
    /// Every slot the slab has handed out, live or free.
    pub(crate) slots: Vec<Slot<T>>,
    /// First free slot; the chain runs through `Slot::Free`.
    free: u32,
    /// Slots holding a value.
    live: usize,
}

/// Bytes a slab's values occupy (`live`) and hold allocated (`reserved`).
/// Heap memory a value owns is counted in neither.
#[derive(Debug, Clone, Copy)]
pub struct SlabBytes {
    pub live: usize,
    pub reserved: usize,
}

impl<T> Slab<T> {
    /// Bytes of one slot.
    pub(crate) const SLOT_BYTES: usize = std::mem::size_of::<Slot<T>>();

    pub(crate) const fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: NIL,
            live: 0,
        }
    }

    /// Store `value` in the first free slot, or a new one; returns its
    /// handle.
    #[inline]
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        self.live += 1;
        if self.free == NIL {
            self.slots.push(Slot::Live(value));
            return (self.slots.len() - 1) as u32;
        }
        let at = self.free;
        match std::mem::replace(&mut self.slots[at as usize], Slot::Live(value)) {
            Slot::Free(next) => self.free = next,
            Slot::Live(_) => unreachable!("the free chain holds a live slot"),
        }
        at
    }

    /// Move the value out of slot `at` and free the slot.
    #[inline]
    pub(crate) fn take(&mut self, at: u32) -> T {
        let Slot::Live(value) =
            std::mem::replace(&mut self.slots[at as usize], Slot::Free(self.free))
        else {
            unreachable!("slot {at} is already free")
        };
        self.free = at;
        self.live -= 1;
        value
    }

    #[inline]
    pub(crate) fn get(&self, at: u32) -> &T {
        match &self.slots[at as usize] {
            Slot::Live(value) => value,
            Slot::Free(_) => unreachable!("slot {at} is free"),
        }
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, at: u32) -> &mut T {
        match &mut self.slots[at as usize] {
            Slot::Live(value) => value,
            Slot::Free(_) => unreachable!("slot {at} is free"),
        }
    }

    /// Slots holding a value.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The live values in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| match s {
            Slot::Live(value) => Some(value),
            Slot::Free(_) => None,
        })
    }

    pub(crate) fn bytes(&self) -> SlabBytes {
        SlabBytes {
            live: self.live * Self::SLOT_BYTES,
            reserved: self.slots.capacity() * Self::SLOT_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_freed_slot_is_reused_before_the_slab_grows() {
        let mut slab = Slab::new();
        let (a, b, c) = (slab.insert('a'), slab.insert('b'), slab.insert('c'));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(slab.take(b), 'b');
        assert_eq!(slab.take(a), 'a');
        // Last freed, first reused: the chain runs a, b.
        assert_eq!(slab.insert('d'), a);
        assert_eq!(slab.insert('e'), b);
        assert_eq!(slab.slots.len(), 3, "no growth while a slot is free");
        assert_eq!(slab.insert('f'), 3);
        *slab.get_mut(c) = 'g';
        assert_eq!((slab.get(a), slab.get(c)), (&'d', &'g'));
        assert_eq!(slab.iter().collect::<String>(), "degf");
        assert_eq!(slab.len(), 4);
    }

    #[test]
    #[should_panic(expected = "slot 0 is already free")]
    fn taking_a_free_slot_panics() {
        let mut slab = Slab::new();
        let at = slab.insert(1u64);
        slab.take(at);
        slab.take(at);
    }

    #[test]
    fn bytes_count_the_live_slots_and_the_reserved_ones() {
        let mut slab: Slab<u64> = Slab::new();
        assert_eq!((slab.bytes().live, slab.bytes().reserved), (0, 0));
        let handles: Vec<u32> = (0..5).map(|v| slab.insert(v)).collect();
        slab.take(handles[1]);
        slab.take(handles[3]);
        let slot = Slab::<u64>::SLOT_BYTES;
        assert_eq!(slot, std::mem::size_of::<Slot<u64>>());
        let bytes = slab.bytes();
        assert_eq!(bytes.live, 3 * slot);
        assert_eq!(bytes.reserved, slab.slots.capacity() * slot);
        assert!(bytes.reserved >= 5 * slot, "freed slots stay reserved");
    }
}
