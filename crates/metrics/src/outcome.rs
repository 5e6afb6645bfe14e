//! The one outcome of a run, whichever runtime ran it.

use crate::run::RunMetrics;
use pdes_core::{FaultCounts, RecoveryBooks, SequentialResult, StallDump};
use serde::{Deserialize, Serialize, Value};
use telemetry::TelemetryData;

/// What must hold of every run, counted rather than assumed: each field
/// counts violations, so a clean run is all zeros. A run reports its own
/// invariant here, without a test or `--verify` comparing it with the
/// oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Invariants {
    /// Rounds whose raw minimum fell below the GVT already published
    /// (clamped, so the published GVT itself never moved back).
    pub gvt_regressions: u64,
}

impl Invariants {
    /// Whether every invariant held.
    pub fn hold(&self) -> bool {
        *self == Invariants::default()
    }
}

/// Everything one run produced, on every runtime (the VM, real threads
/// under either protocol, the distributed cluster) and from both
/// supervisors. A run that degraded to the sequential engine is one too
/// ([`RunOutcome::degraded`]).
///
/// Its `Serialize` form is the `--stats-json` document: every
/// [`RunMetrics`] key at the top level, then the `invariants` and
/// `recovery` objects.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    pub metrics: RunMetrics,
    /// Final state digest of every LP, in LP order.
    pub digests: Vec<u64>,
    /// XOR-fold of the keys of events left unprocessed at the end. Folded
    /// by dist's coordinator and by the sequential engine; 0 elsewhere.
    pub pending_digest: u64,
    /// Final published GVT, in ticks (0 on a degraded run).
    pub gvt: u64,
    /// Whether the run finished: false only on a VM attempt that hit its
    /// time limit, tripped the watchdog, deadlocked or lost a worker (the
    /// other runtimes report those as errors).
    pub completed: bool,
    pub invariants: Invariants,
    /// Fault injections actually performed (all zero without a plan).
    pub fault_counts: FaultCounts,
    /// Structured diagnostic when a VM run stalled (watchdog trip or
    /// machine deadlock).
    pub stall: Option<StallDump>,
    /// Collected trace and round snapshots (`None` when telemetry was off).
    pub telemetry: Option<TelemetryData>,
    /// What the supervisor did (all default on an unsupervised run).
    pub recovery: RecoveryBooks,
    /// The machine's report: VM runs only (its times are virtual).
    pub report: Option<machine::Report>,
}

impl RunOutcome {
    /// The outcome of a run whose recovery was exhausted: the sequential
    /// engine's result, with `recovery.degraded` set. There is no parallel
    /// run to measure, so the metrics hold only what the engine counted.
    pub fn degraded(seq: SequentialResult) -> Self {
        RunOutcome {
            metrics: RunMetrics {
                system: "Sequential".into(),
                lps: seq.state_digests.len(),
                committed: seq.committed,
                processed: seq.committed,
                commit_digest: seq.commit_digest,
                protocol: "sequential".into(),
                ..Default::default()
            },
            digests: seq.state_digests,
            pending_digest: seq.pending_digest,
            completed: true,
            recovery: RecoveryBooks {
                degraded: true,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// A supervised run's outcome: the parallel run's, or the sequential
    /// engine's once recovery was exhausted, carrying the supervisor's
    /// `books` (what [`pdes_core::supervise`] returns).
    pub fn supervised(run: Result<RunOutcome, SequentialResult>, books: RecoveryBooks) -> Self {
        let mut out = run.unwrap_or_else(RunOutcome::degraded);
        out.recovery = books;
        out
    }
}

impl Serialize for RunOutcome {
    fn to_value(&self) -> Value {
        let mut doc = self.metrics.to_value();
        if let Value::Object(fields) = &mut doc {
            fields.push(("invariants".into(), self.invariants.to_value()));
            fields.push(("recovery".into(), self.recovery.to_value()));
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stats_document_keeps_every_metric_key_on_top_and_adds_two_objects() {
        let seq = SequentialResult {
            committed: 5,
            commit_digest: 9,
            state_digests: vec![1, 2],
            pending_digest: 3,
            final_lvt: pdes_core::VirtualTime::ZERO,
        };
        let mut o = RunOutcome::degraded(seq);
        o.invariants.gvt_regressions = 2;
        let doc = o.to_value();
        let Value::Object(fields) = &doc else {
            panic!("an object")
        };
        let Value::Object(metrics) = o.metrics.to_value() else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, [&want[..], &["invariants", "recovery"]].concat());
        assert_eq!(doc.get("committed"), Some(&Value::UInt(5)));
        let inv = doc.get("invariants").expect("invariants");
        assert_eq!(inv.get("gvt_regressions"), Some(&Value::UInt(2)));
        let rec = doc.get("recovery").expect("recovery");
        assert_eq!(rec.get("degraded"), Some(&Value::Bool(true)));
        assert!(!o.invariants.hold() && Invariants::default().hold());
    }
}
