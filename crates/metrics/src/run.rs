//! The per-run metrics record.

use serde::{Deserialize, Serialize};

/// Everything measured in one simulation run. Produced by both runtimes so
/// experiments can compare systems uniformly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RunMetrics {
    /// System under test, e.g. `"GG-PDES-Async"`.
    pub system: String,
    /// Simulation threads in the run.
    pub threads: usize,
    /// Total LPs.
    pub lps: usize,
    /// Wall-clock seconds (virtual for `sim-rt`, real for `thread-rt`).
    pub wall_secs: f64,
    /// Events committed (survived to / below GVT).
    pub committed: u64,
    /// Events processed, including later-rolled-back ones.
    pub processed: u64,
    /// Events undone by rollbacks.
    pub rolled_back: u64,
    /// Rollback episodes.
    pub rollbacks: u64,
    /// Anti-messages sent.
    pub antis_sent: u64,
    /// Events re-executed to rebuild a state under sparse saving
    /// (`ThreadStats::coasted`; host work only, never charged in virtual
    /// time).
    pub coasted: u64,
    /// GVT rounds completed.
    pub gvt_rounds: u64,
    /// CPU time spent inside GVT computation, summed over threads (seconds).
    pub gvt_cpu_secs: f64,
    /// Total raw work units executed ("instructions").
    pub total_work: u64,
    /// Work units spent polling empty queues or spinning.
    pub wasted_work: u64,
    /// Maximum threads simultaneously de-scheduled (demand-driven systems).
    pub max_descheduled: usize,
    /// Times a thread gave its hardware context away while staying
    /// runnable: on the VM the yield tier (DESIGN.md §5.8; zero unless the
    /// run was GG-PDES with more threads than contexts), on real threads
    /// the idle ladder's `yield_now` calls.
    pub voluntary_yields: u64,
    /// The same by cause, where the yield tier made them (`None` on real
    /// threads and in older JSON).
    pub yields_by_cause: Option<pdes_core::YieldCounts>,
    /// `sched_setaffinity` rejections while applying an affinity policy
    /// (non-fatal: the affected threads stay on kernel scheduling).
    pub pin_failures: u64,
    /// XOR-fold commit digest (for cross-runtime correctness checks).
    pub commit_digest: u64,
    /// Final telemetry counter snapshot — the last completed GVT round —
    /// when the run was traced (`None` with telemetry off; absent fields
    /// in older JSON deserialize to `None`).
    pub last_round: Option<pdes_core::RoundCounters>,
    /// Synchronization protocol of the runtime: `"optimistic"` (Time Warp)
    /// or `"conservative"` (null-message), so downstream tooling needn't
    /// sniff the runtime from `system`.
    pub protocol: String,
    /// Null-message guarantees published (conservative runtimes only;
    /// zero on optimistic runtimes).
    pub null_messages_sent: u64,
    /// LBTS reduction rounds completed (conservative runtimes only; zero
    /// on optimistic runtimes, which count `gvt_rounds` instead).
    pub lbts_rounds: u64,
}

impl RunMetrics {
    /// What every runtime fills in the same way — the run's shape, the
    /// engines' summed counters, the round count, the final traced round —
    /// under `protocol: "optimistic"`. Each runtime then stamps what only
    /// it measures: wall time, work, yields, the protocol's own fields.
    pub fn of_run(
        system: String,
        threads: usize,
        lps: usize,
        total: &pdes_core::ThreadStats,
        gvt_rounds: u64,
        max_descheduled: usize,
        telemetry: Option<&telemetry::TelemetryData>,
    ) -> Self {
        RunMetrics {
            system,
            threads,
            lps,
            committed: total.committed,
            processed: total.processed,
            rolled_back: total.rolled_back,
            rollbacks: total.rollbacks,
            antis_sent: total.antis_sent,
            coasted: total.coasted,
            gvt_rounds,
            max_descheduled,
            commit_digest: total.commit_digest,
            last_round: telemetry.and_then(|d| d.last_round().cloned()),
            protocol: "optimistic".into(),
            ..Default::default()
        }
    }

    /// The paper's headline metric: committed events per wall-clock second.
    pub fn committed_event_rate(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.committed as f64 / self.wall_secs
    }

    /// Average CPU seconds per GVT round, accumulated over threads —
    /// the quantity quoted throughout the paper's §6.
    pub fn gvt_secs_per_round(&self) -> f64 {
        if self.gvt_rounds == 0 {
            return 0.0;
        }
        self.gvt_cpu_secs / self.gvt_rounds as f64
    }

    /// Fraction of processed events that were rolled back.
    pub fn rollback_ratio(&self) -> f64 {
        if self.processed == 0 {
            return 0.0;
        }
        self.rolled_back as f64 / self.processed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let m = RunMetrics {
            committed: 100,
            processed: 125,
            rolled_back: 25,
            wall_secs: 2.0,
            gvt_rounds: 4,
            gvt_cpu_secs: 1.0,
            ..Default::default()
        };
        assert_eq!(m.committed_event_rate(), 50.0);
        assert_eq!(m.gvt_secs_per_round(), 0.25);
        assert_eq!(m.rollback_ratio(), 0.2);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let m = RunMetrics::default();
        assert_eq!(m.committed_event_rate(), 0.0);
        assert_eq!(m.gvt_secs_per_round(), 0.0);
        assert_eq!(m.rollback_ratio(), 0.0);
    }

    #[test]
    fn serializes_to_json() {
        let m = RunMetrics {
            system: "GG-PDES-Async".into(),
            threads: 256,
            protocol: "optimistic".into(),
            ..Default::default()
        };
        let j = serde_json::to_string(&m).unwrap();
        assert!(j.contains("GG-PDES-Async"));
        assert!(j.contains("\"protocol\":\"optimistic\""));
        let back: RunMetrics = serde_json::from_str(&j).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn protocol_fields_round_trip() {
        let m = RunMetrics {
            protocol: "conservative".into(),
            null_messages_sent: 42,
            lbts_rounds: 7,
            ..Default::default()
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: RunMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.protocol, "conservative");
        assert_eq!(back.null_messages_sent, 42);
        assert_eq!(back.lbts_rounds, 7);
    }
}
