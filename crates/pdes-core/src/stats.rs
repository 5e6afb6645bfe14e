//! Per-thread Time Warp statistics.

use serde::{Deserialize, Serialize};

/// Counters maintained by one simulation thread.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadStats {
    /// Events executed (including ones later rolled back).
    pub processed: u64,
    /// Events committed (fossil-collected below GVT or at shutdown).
    pub committed: u64,
    /// Events undone by rollbacks.
    pub rolled_back: u64,
    /// Rollback episodes (a straggler or anti-message may undo many events).
    pub rollbacks: u64,
    /// Straggler messages received.
    pub stragglers: u64,
    /// Anti-messages sent.
    pub antis_sent: u64,
    /// Anti-messages received.
    pub antis_received: u64,
    /// Positive events sent to other LPs.
    pub events_sent: u64,
    /// Pending/orphan annihilations performed.
    pub annihilations: u64,
    /// Events re-executed to rebuild a state under sparse saving: by the
    /// first reader after a rollback, and by fossil collection when its cut
    /// lands between snapshots.
    pub coasted: u64,
    /// XOR-fold of committed event-key digests (order independent).
    pub commit_digest: u64,
}

/// One GVT round's worth of progress, snapshotted at the round's End phase.
///
/// Deltas are **since the previous snapshot**, so a stream of
/// `RoundCounters` is a per-round time series: where events were committed,
/// where rollbacks clustered, which threads' LVTs lagged, and how deep the
/// inboxes ran when the round closed. All runtimes emit the same record
/// (`sim-rt` with virtual `ts_ns`, `thread-rt`/`dist-rt` with monotonic wall
/// nanoseconds), so rounds are directly comparable across runtimes and
/// shards.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundCounters {
    /// Round id (thread-rt/sim-rt: membership round; dist-rt: publish round).
    pub round: u64,
    /// Shard that produced the snapshot (0 outside `dist-rt`).
    pub shard: u64,
    /// The GVT published by this round, in [`crate::VirtualTime`] ticks.
    pub gvt_ticks: u64,
    /// When the round closed: nanoseconds on the producer's clock
    /// (virtual for `sim-rt`, monotonic wall for the others).
    pub ts_ns: u64,
    /// Events committed since the previous snapshot.
    pub committed_delta: u64,
    /// Events processed since the previous snapshot.
    pub processed_delta: u64,
    /// Events rolled back since the previous snapshot.
    pub rolled_back_delta: u64,
    /// Threads scheduled-in when the round closed.
    pub active_threads: usize,
    /// Cluster membership size when the round closed: live shards for
    /// `dist-rt` (so elastic join/leave/recovery shows up in the round
    /// stream), participating threads elsewhere. 0 in legacy producers.
    pub members: u64,
    /// Per-thread LVT in ticks at the round's fold (`u64::MAX` = idle/∞).
    pub lvt_ticks: Vec<u64>,
    /// Per-thread inbox depth when the round closed.
    pub queue_depths: Vec<usize>,
    /// Ingest admissions since the previous snapshot.
    pub ingest_admitted_delta: u64,
    /// Ingest rejections (below the admission floor) since the previous
    /// snapshot.
    pub ingest_rejected_delta: u64,
    /// Ingest submissions shed above the high-watermark since the previous
    /// snapshot.
    pub ingest_shed_delta: u64,
    /// Ingest `Busy` backpressure verdicts since the previous snapshot.
    pub ingest_busy_delta: u64,
}

impl ThreadStats {
    /// Merge another thread's counters into this one (for totals).
    pub fn merge(&mut self, other: &ThreadStats) {
        self.processed += other.processed;
        self.committed += other.committed;
        self.rolled_back += other.rolled_back;
        self.rollbacks += other.rollbacks;
        self.stragglers += other.stragglers;
        self.antis_sent += other.antis_sent;
        self.antis_received += other.antis_received;
        self.events_sent += other.events_sent;
        self.annihilations += other.annihilations;
        self.coasted += other.coasted;
        self.commit_digest ^= other.commit_digest;
    }

    /// Committed / processed — the efficiency that, divided by wall time,
    /// yields the paper's committed event rate.
    pub fn efficiency(&self) -> f64 {
        if self.processed == 0 {
            return 1.0;
        }
        self.committed as f64 / self.processed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_and_xors() {
        let mut a = ThreadStats {
            processed: 10,
            committed: 8,
            rolled_back: 2,
            rollbacks: 1,
            stragglers: 1,
            antis_sent: 2,
            antis_received: 0,
            events_sent: 9,
            annihilations: 0,
            coasted: 6,
            commit_digest: 0b1010,
        };
        let b = ThreadStats {
            processed: 5,
            committed: 5,
            coasted: 3,
            commit_digest: 0b0110,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.processed, 15);
        assert_eq!(a.coasted, 9);
        assert_eq!(a.committed, 13);
        assert_eq!(a.commit_digest, 0b1100);
    }

    #[test]
    fn efficiency_bounds() {
        let s = ThreadStats::default();
        assert_eq!(s.efficiency(), 1.0);
        let s = ThreadStats {
            processed: 10,
            committed: 5,
            ..Default::default()
        };
        assert_eq!(s.efficiency(), 0.5);
    }
}
