//! Supervised execution with bounded recovery and graceful degradation.
//!
//! [`run_supervised`] wraps the real-thread runner in a retry loop:
//!
//! 1. Run an attempt (checkpointing on the configured GVT cadence).
//! 2. On [`RunError`], restore the newest checkpoint. If the failure was a
//!    worker panic and a checkpoint exists, the dead thread's LPs are
//!    remapped onto the survivors (least-loaded first, using the committed
//!    counts the joined survivors reported) and the run resumes one thread
//!    smaller. The scripted kill that felled the attempt is consumed so it
//!    does not re-fire on the restored fault streams.
//! 3. Retries are bounded by `max_recoveries` with exponential backoff.
//!    When the budget is exhausted the run *degrades* instead of erroring:
//!    the sequential reference engine finishes the simulation from the last
//!    consistent cut, so a supervised run always completes.

use crate::protocol::Protocol;
use crate::runner::{run_threads_attempt, RtResult, RtRunConfig, RunError};
use pdes_core::{
    run_sequential_from_with, run_sequential_with, Checkpoint, FaultInjector, IngestGate, Model,
    SequentialResult, SimThreadId,
};
use std::sync::Arc;

pub use pdes_core::SupervisorConfig;

/// How a supervised run finished.
// One instance per run; the size gap vs `Sequential` doesn't matter.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Recovered {
    /// The parallel runtime completed (possibly after recoveries).
    Parallel(RtResult),
    /// Recovery was exhausted; the sequential engine finished the run from
    /// the last checkpoint (or from genesis when none existed).
    Sequential(SequentialResult),
}

impl Recovered {
    pub fn committed(&self) -> u64 {
        match self {
            Recovered::Parallel(r) => r.metrics.committed,
            Recovered::Sequential(s) => s.committed,
        }
    }

    pub fn commit_digest(&self) -> u64 {
        match self {
            Recovered::Parallel(r) => r.metrics.commit_digest,
            Recovered::Sequential(s) => s.commit_digest,
        }
    }

    /// Final per-LP state digests, in LP order.
    pub fn state_digests(&self) -> &[u64] {
        match self {
            Recovered::Parallel(r) => &r.digests,
            Recovered::Sequential(s) => &s.state_digests,
        }
    }
}

/// Outcome of a supervised run — always a completed simulation.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    pub outcome: Recovered,
    /// Recoveries performed (0 = first attempt succeeded).
    pub recoveries: u32,
    /// Whether the run fell back to the sequential engine.
    pub degraded: bool,
    /// One line per failed attempt, for operators and tests.
    pub log: Vec<String>,
}

impl SupervisedRun {
    pub fn completed_parallel(&self) -> bool {
        matches!(self.outcome, Recovered::Parallel(_))
    }
}

/// Run `model` under supervision and protocol `P`: recover from worker
/// failures via the checkpoint/restart path, degrade to sequential execution
/// when the retry budget is exhausted. Never returns an error — a supervised
/// run completes.
///
/// An `ingest` gate outlives every failed attempt: after each restore its
/// accepted-but-uncut events are replayed (exactly once — see
/// `pdes_core::ingest`), and the degraded sequential path merges the accepted
/// suffix into the oracle's pending set so even a fully exhausted run commits
/// every accepted event.
pub fn run_supervised<M: Model, P: Protocol<M>>(
    model: &Arc<M>,
    rc: &RtRunConfig,
    sup: &SupervisorConfig,
    ingest: Option<Arc<IngestGate<M::Payload>>>,
) -> SupervisedRun {
    let mut cfg = rc.clone();
    let mut ckpt: Option<Checkpoint<M::State, M::Payload>> = None;
    // Kills consumed since the newest checkpoint's fault cursor was taken.
    // A checkpoint's cursor already embeds every consumption applied before
    // the attempt that produced it, so the list resets whenever a fresher
    // checkpoint arrives — replaying it on top would consume twice.
    let mut consumed: Vec<usize> = Vec::new();
    let mut recoveries = 0u32;
    let mut log = Vec::new();

    loop {
        let injector = match ckpt.as_ref().and_then(|c| c.cursor.as_ref()) {
            Some(cur) => FaultInjector::with_cursor(cfg.faults.clone(), cur),
            None => FaultInjector::new(cfg.faults.clone()),
        };
        for &t in &consumed {
            injector.consume_kill(t);
        }
        let attempt =
            run_threads_attempt::<M, P>(model, &cfg, ckpt.as_ref(), Some(injector), ingest.clone());
        let loads = attempt.thread_loads;
        if let Some(c) = attempt.checkpoint {
            ckpt = Some(c);
            consumed.clear();
        }
        let err = match attempt.outcome {
            Ok(r) => {
                return SupervisedRun {
                    outcome: Recovered::Parallel(r),
                    recoveries,
                    degraded: false,
                    log,
                }
            }
            Err(e) => e,
        };
        log.push(format!(
            "attempt {} failed: {}",
            recoveries + 1,
            match &err {
                RunError::Stalled(_) => "stalled (watchdog)".to_string(),
                RunError::WorkerPanicked { thread, message } =>
                    format!("worker {thread} panicked: {message}"),
                RunError::Ingest(e) => format!("ingest journal failed: {e}"),
            }
        ));
        if recoveries >= sup.max_recoveries {
            // Graceful degradation: finish sequentially from the last cut,
            // with the accepted-but-uncut ingest suffix merged into the
            // oracle's pending set (older accepted events are inside the
            // cut already).
            let seq = match &ckpt {
                Some(c) => {
                    let extra: Vec<_> = ingest
                        .as_ref()
                        .map(|g| {
                            g.accepted_events()
                                .into_iter()
                                .filter(|e| e.send_time >= c.gvt)
                                .collect()
                        })
                        .unwrap_or_default();
                    run_sequential_from_with(model, &cfg.engine, c, &extra, None)
                }
                None => {
                    let extra = ingest
                        .as_ref()
                        .map(|g| g.accepted_events())
                        .unwrap_or_default();
                    run_sequential_with(model, &cfg.engine, &extra, None)
                }
            };
            if let Some(g) = &ingest {
                g.close();
            }
            log.push("recovery budget exhausted; degraded to sequential".into());
            return SupervisedRun {
                outcome: Recovered::Sequential(seq),
                recoveries,
                degraded: true,
                log,
            };
        }
        recoveries += 1;
        if let RunError::WorkerPanicked { thread, .. } = &err {
            let dead = *thread;
            consumed.push(dead);
            // Remap the dead worker's LPs onto the survivors when there is a
            // checkpoint to resume under the new map and enough survivors to
            // take the load; a pre-checkpoint failure just restarts from
            // genesis on the original map (the thread slot is respawned).
            if cfg.num_threads > 1 {
                if let Some(c) = &mut ckpt {
                    c.map = c.map.rebalanced_without(SimThreadId(dead as u32), &loads);
                    cfg.num_threads -= 1;
                }
            }
        }
        std::thread::sleep(sup.backoff * (1u32 << (recoveries - 1).min(16)));
    }
}
