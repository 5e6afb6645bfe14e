//! The round board: where simulation threads publish what a GVT-round
//! snapshot reports about them, and where the round closer reads it back.
//!
//! One slot per thread (one per shard on `dist-rt`, whose node publishes
//! its single engine), written with relaxed stores by its owner — these are
//! statistics, they publish no other data — and summed by whoever closes
//! the round into the [`RoundTotals`] that `telemetry::Telemetry` turns into
//! per-round deltas. Every runtime fills `lvt_ticks[]` through this one
//! type, so horizon width and utilisation curves are comparable across
//! them. It lives here, not in `telemetry`, because the publishes are steps
//! of [`crate::Participant`].

use crate::plane::CachePadded;
use crate::stats::ThreadStats;
use crate::time::VirtualTime;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative run totals at one round's End phase, as sampled by whichever
/// thread closed the round; `telemetry` turns consecutive totals into
/// per-round deltas.
#[derive(Debug, Clone, Default)]
pub struct RoundTotals {
    pub round: u64,
    pub gvt_ticks: u64,
    pub ts_ns: u64,
    pub committed: u64,
    pub processed: u64,
    pub rolled_back: u64,
    pub active_threads: usize,
    /// Cluster membership size at the round close (live shards in dist-rt).
    pub members: u64,
    pub lvt_ticks: Vec<u64>,
    pub queue_depths: Vec<usize>,
    /// Cumulative ingest-gate counters at the round close
    /// (admitted, rejected, shed, busy). Zero when the run has no gate.
    pub ingest: (u64, u64, u64, u64),
}

#[derive(Default)]
struct Slot {
    /// Published LVT ticks (`u64::MAX` = idle / parked).
    lvt: AtomicU64,
    committed: AtomicU64,
    processed: AtomicU64,
    rolled_back: AtomicU64,
}

pub struct RoundBoard {
    slots: Vec<CachePadded<Slot>>,
    /// Membership size stamped on every snapshot (threads; shards on dist).
    members: u64,
}

impl RoundBoard {
    pub fn new(slots: usize, members: usize) -> Self {
        let slot = || Slot {
            lvt: AtomicU64::new(u64::MAX),
            ..Slot::default()
        };
        RoundBoard {
            slots: (0..slots).map(|_| CachePadded::new(slot())).collect(),
            members: members as u64,
        }
    }

    /// Publish `me`'s LVT (∞ when idle) and cumulative engine counters.
    /// Call only when telemetry is enabled.
    pub fn publish(&self, me: usize, lvt: VirtualTime, stats: &ThreadStats) {
        let s = &self.slots[me];
        s.lvt.store(lvt.ticks(), Ordering::Relaxed);
        s.committed.store(stats.committed, Ordering::Relaxed);
        s.processed.store(stats.processed, Ordering::Relaxed);
        s.rolled_back.store(stats.rolled_back, Ordering::Relaxed);
    }

    /// Round closer: the cumulative totals of round `round` at `ts_ns`,
    /// summed over the published slots. `ingest` is the gate's cumulative
    /// `(admitted, rejected, shed, busy)`, all zero without one.
    pub fn snapshot(
        &self,
        round: u64,
        gvt_ticks: u64,
        ts_ns: u64,
        active_threads: usize,
        queue_depths: Vec<usize>,
        ingest: (u64, u64, u64, u64),
    ) -> RoundTotals {
        let sum = |cell: fn(&Slot) -> &AtomicU64| -> u64 {
            self.slots
                .iter()
                .map(|s| cell(s).load(Ordering::Relaxed))
                .sum()
        };
        RoundTotals {
            round,
            gvt_ticks,
            ts_ns,
            committed: sum(|s| &s.committed),
            processed: sum(|s| &s.processed),
            rolled_back: sum(|s| &s.rolled_back),
            active_threads,
            members: self.members,
            lvt_ticks: self
                .slots
                .iter()
                .map(|s| s.lvt.load(Ordering::Relaxed))
                .collect(),
            queue_depths,
            ingest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sums_counters_and_lists_lvts_per_slot() {
        let b = RoundBoard::new(3, 3);
        let stats = |committed, processed, rolled_back| ThreadStats {
            committed,
            processed,
            rolled_back,
            ..ThreadStats::default()
        };
        b.publish(0, VirtualTime::from_ticks(40), &stats(5, 9, 4));
        b.publish(2, VirtualTime::from_ticks(70), &stats(1, 1, 0));
        // A later publish replaces, never accumulates; idle publishes ∞.
        b.publish(2, VirtualTime::INFINITY, &stats(2, 3, 1));
        let t = b.snapshot(7, 30, 1_000, 2, vec![0, 4, 0], (1, 0, 0, 2));
        assert_eq!((t.round, t.gvt_ticks, t.ts_ns), (7, 30, 1_000));
        assert_eq!((t.committed, t.processed, t.rolled_back), (7, 12, 5));
        assert_eq!(
            t.lvt_ticks,
            [40, u64::MAX, u64::MAX],
            "never-published = idle"
        );
        assert_eq!((t.active_threads, t.members), (2, 3));
        assert_eq!(t.queue_depths, [0, 4, 0]);
        assert_eq!(t.ingest, (1, 0, 0, 2));
    }
}
