//! The null-message plane: a shared-memory realization of Chandy–Misra–Bryant
//! channel clocks.
//!
//! In message-passing CMB every pair of LPs keeps a FIFO channel, and a null
//! message on that channel carries the sender's promise "nothing from me below
//! this timestamp, ever again". On shared memory the channel *content* already
//! flows through the runtime's input queues; only the promise needs a home. It
//! lives here, as one monotone atomic per directed thread pair: a null message
//! degenerates to a `fetch_max` on the destination's clock cell, and "reading
//! my input channels" degenerates to a min-fold over one cache-padded row.
//!
//! ## The two-sided safety contract
//!
//! *Sender side*: a thread publishes `min(local pending, current bound) +
//! lookahead` to every outgoing channel **before** it processes the batch that
//! could produce new sends. Every event the batch emits is stamped at or above
//! `pending-min + lookahead`, and every future arrival it might later forward
//! is at or above `bound + lookahead`, so the promise can never be broken.
//! Guarantees are monotone by construction (see the proof sketch in DESIGN.md
//! §15), which makes `fetch_max` the right primitive rather than a repair.
//!
//! *Receiver side*: a thread reads its clock row (`Acquire`) and the published
//! GVT **before** draining its input queue, then processes strictly below
//! `max(row minimum, GVT + lookahead)`. Any event pushed before the clock
//! raise or GVT publication it observed is visible to that drain (the raise
//! is an `AcqRel` RMW, the GVT store a release, so both edges synchronize);
//! any event pushed after carries a timestamp at or above the bound. Either
//! way nothing below the bound can arrive later — processing is final and the
//! rollback machinery stays cold.

use pdes_core::{CachePadded, VirtualTime};
use std::sync::atomic::{AtomicU64, Ordering};

/// Channel clocks of one conservative run. `clock[dst * n + src]` holds the
/// newest guarantee thread `src` has published toward thread `dst`, in
/// `VirtualTime` ticks (`u64::MAX` = channel fully open).
pub struct ConsPlane {
    n: usize,
    lookahead: VirtualTime,
    clocks: Vec<CachePadded<AtomicU64>>,
    null_msgs: AtomicU64,
    /// `null_msgs` as of the previous LBTS round close (round-delta telemetry).
    null_prev: AtomicU64,
}

impl ConsPlane {
    /// A plane for `n` threads with the model's declared `lookahead`.
    /// Clocks start at zero: before a thread's first publication it has
    /// promised nothing.
    pub fn new(n: usize, lookahead: VirtualTime) -> Self {
        ConsPlane {
            n,
            lookahead,
            clocks: (0..n * n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            null_msgs: AtomicU64::new(0),
            null_prev: AtomicU64::new(0),
        }
    }

    /// The model's declared lookahead.
    #[inline]
    pub fn lookahead(&self) -> VirtualTime {
        self.lookahead
    }

    /// The minimum over `me`'s input channel clocks — the channel half of
    /// `me`'s processing bound. [`VirtualTime::INFINITY`] for a one-thread
    /// run (no channels, no constraint).
    pub fn input_bound(&self, me: usize) -> VirtualTime {
        let mut min = u64::MAX;
        for src in 0..self.n {
            if src != me {
                min = min.min(self.clocks[me * self.n + src].load(Ordering::Acquire));
            }
        }
        VirtualTime::from_ticks(min)
    }

    /// Publish `guarantee` from `me` to every peer channel; each cell that
    /// actually rises counts as one null message sent. Call **before**
    /// processing the batch the guarantee was computed for.
    pub fn publish(&self, me: usize, guarantee: VirtualTime) {
        let g = guarantee.ticks();
        let mut raised = 0u64;
        for dst in 0..self.n {
            if dst != me {
                let old = self.clocks[dst * self.n + me].fetch_max(g, Ordering::AcqRel);
                if old < g {
                    raised += 1;
                }
            }
        }
        if raised > 0 {
            self.null_msgs.fetch_add(raised, Ordering::AcqRel);
        }
    }

    /// Total null messages (clock raises) published so far.
    pub fn null_messages(&self) -> u64 {
        self.null_msgs.load(Ordering::Acquire)
    }

    /// Null messages since the previous call — the round closer's telemetry
    /// delta. Only the closer calls this, so the read-then-store pair is
    /// race-free.
    pub fn null_round_delta(&self) -> u64 {
        let now = self.null_msgs.load(Ordering::Acquire);
        let prev = self.null_prev.swap(now, Ordering::AcqRel);
        now.saturating_sub(prev)
    }

    /// One channel clock, for tests and diagnostics.
    pub fn clock(&self, dst: usize, src: usize) -> VirtualTime {
        VirtualTime::from_ticks(self.clocks[dst * self.n + src].load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_is_monotone_and_counts_raises() {
        let p = ConsPlane::new(3, VirtualTime::from_f64(0.5));
        p.publish(0, VirtualTime::from_f64(2.0));
        assert_eq!(p.null_messages(), 2); // two peer channels rose
        p.publish(0, VirtualTime::from_f64(1.0)); // stale: no raise
        assert_eq!(p.null_messages(), 2);
        assert_eq!(p.clock(1, 0), VirtualTime::from_f64(2.0));
        assert_eq!(p.clock(2, 0), VirtualTime::from_f64(2.0));
        // Channel 2→1 untouched.
        assert_eq!(p.clock(1, 2), VirtualTime::from_ticks(0));
    }

    #[test]
    fn input_bound_folds_the_row_minimum() {
        let p = ConsPlane::new(3, VirtualTime::from_f64(0.5));
        p.publish(1, VirtualTime::from_f64(4.0));
        p.publish(2, VirtualTime::from_f64(3.0));
        assert_eq!(p.input_bound(0), VirtualTime::from_f64(3.0));
        // Single-thread plane: no channels, no constraint.
        let solo = ConsPlane::new(1, VirtualTime::from_f64(0.5));
        assert_eq!(solo.input_bound(0), VirtualTime::INFINITY);
    }

    #[test]
    fn round_delta_resets() {
        let p = ConsPlane::new(2, VirtualTime::from_f64(0.1));
        p.publish(0, VirtualTime::from_f64(1.0));
        assert_eq!(p.null_round_delta(), 1);
        assert_eq!(p.null_round_delta(), 0);
    }
}
