//! Spawn, run, and collect a real-thread simulation.
//!
//! Robustness contract: [`run_threads`] returns `Err` — never hangs, never
//! aborts the process — when a worker panics or the liveness watchdog
//! detects that GVT has stopped advancing. Both paths poison every blocking
//! primitive so sibling threads drain and join promptly, and the stall path
//! carries a structured [`StallDump`] of per-thread state for post-mortems.

use crate::affinity::num_cores;
use crate::protocol::{Optimistic, Protocol};
use crate::shared::RtShared;
use crate::worker::{controller_loop, worker_loop};
use metrics::{Invariants, RunMetrics, RunOutcome};
use pdes_core::{
    build_engines, supervise, Attempt, AttemptFailure, Checkpoint, CkptSink, EngineConfig,
    FaultInjector, FaultPlan, IngestError, IngestGate, IngestPort, Model, RecoveryBooks, Scheduler,
    StallDump, SystemConfig, ThreadResult,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{Telemetry, TelemetryConfig};

pub use pdes_core::SupervisorConfig;

/// Configuration for a real-thread run.
#[derive(Debug, Clone)]
pub struct RtRunConfig {
    pub num_threads: usize,
    pub engine: EngineConfig,
    pub system: SystemConfig,
    /// Fault-injection plan (empty ⇒ zero-cost pass-through).
    pub faults: FaultPlan,
    /// Wall-clock bound on GVT progress before the liveness watchdog trips
    /// (`None` disables the watchdog entirely).
    pub watchdog: Option<Duration>,
    /// Take a GVT-aligned checkpoint every this many GVT rounds
    /// (0 disables checkpointing).
    pub checkpoint_every_gvt: u64,
    /// Also persist each checkpoint here (atomic rename-into-place);
    /// `None` keeps checkpoints in memory only.
    pub checkpoint_path: Option<PathBuf>,
    /// Live telemetry (off by default; near-zero cost when disabled).
    pub telemetry: TelemetryConfig,
}

impl RtRunConfig {
    pub fn new(num_threads: usize, engine: EngineConfig, system: SystemConfig) -> Self {
        RtRunConfig {
            num_threads,
            engine,
            system,
            faults: FaultPlan::default(),
            watchdog: Some(Duration::from_secs(30)),
            checkpoint_every_gvt: 0,
            checkpoint_path: None,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Attach a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Override (or disable, with `None`) the liveness watchdog bound.
    pub fn with_watchdog(mut self, bound: Option<Duration>) -> Self {
        self.watchdog = bound;
        self
    }

    /// Take a GVT-aligned checkpoint every `every` GVT rounds (0 disables).
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every_gvt = every;
        self
    }

    /// Persist checkpoints to `path` (atomic rename-into-place).
    pub fn with_checkpoint_path(mut self, path: PathBuf) -> Self {
        self.checkpoint_path = Some(path);
        self
    }

    /// Enable live telemetry (per-thread tracing + GVT-round snapshots).
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Why a real-thread run failed to complete.
#[derive(Debug)]
pub enum RunError {
    /// The liveness watchdog saw no GVT progress within its bound; the run
    /// was torn down and this dump captured where every thread was stuck.
    Stalled(Box<StallDump>),
    /// A worker thread panicked; siblings were woken and drained.
    WorkerPanicked { thread: usize, message: String },
    /// The ingest journal failed mid-run: an admission could not be made
    /// durable, so the run is reported failed rather than silently accepting
    /// events a crash would lose.
    Ingest(IngestError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Stalled(dump) => write!(f, "{dump}"),
            RunError::WorkerPanicked { thread, message } => {
                write!(f, "worker thread {thread} panicked: {message}")
            }
            RunError::Ingest(e) => write!(f, "ingest plane failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// What the supervisor needs to know: only a worker death names a thread to
/// remap, and each failure is one log line.
impl From<RunError> for AttemptFailure {
    fn from(e: RunError) -> Self {
        let (dead_thread, reason) = match e {
            RunError::Stalled(_) => (None, "stalled (watchdog)".into()),
            RunError::WorkerPanicked { thread, message } => {
                (Some(thread), format!("worker {thread} panicked: {message}"))
            }
            RunError::Ingest(e) => (None, format!("ingest journal failed: {e}")),
        };
        AttemptFailure {
            dead_thread,
            reason,
        }
    }
}

/// Render a panic payload (the two shapes `panic!` actually produces).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One attempt of a (possibly supervised) real-thread run.
pub type RtAttempt<M> = Attempt<M, Result<RunOutcome, RunError>>;

/// Run `model` optimistically on real threads. Blocks until the simulation
/// completes, panics, or trips the liveness watchdog — it never hangs
/// indefinitely while the watchdog is armed.
pub fn run_threads<M: Model>(model: &Arc<M>, rc: &RtRunConfig) -> Result<RunOutcome, RunError> {
    run_threads_attempt::<M, Optimistic>(model, rc, None, None, None).outcome
}

/// One attempt under protocol `P`, with every hook exposed: a checkpoint to
/// resume from, a pre-seeded fault injector (the supervisor restores
/// fault-stream cursors and consumes the kill that felled the previous
/// attempt before handing the injector in), and a live external-event
/// ingest gate. [`build_engines`] sets the attempt up (which map a resumed
/// run uses, the cut restore, the exactly-once ingest replay).
///
/// Client threads submit to `gate` concurrently with the run; each GVT
/// round's pseudo-controller admits queued submissions right after
/// publishing the round's GVT. On successful completion the gate is closed
/// (queued submissions get [`pdes_core::IngestReply::Closed`]); on failure
/// it stays open so a supervisor can resume with it.
pub fn run_threads_attempt<M: Model, P: Protocol<M>>(
    model: &Arc<M>,
    rc: &RtRunConfig,
    resume: Option<&Checkpoint<M::State, M::Payload>>,
    faults: Option<FaultInjector>,
    gate: Option<Arc<IngestGate<M::Payload>>>,
) -> RtAttempt<M> {
    let n = rc.num_threads;
    let mut shared: RtShared<M::Payload> = RtShared::new(n, num_cores(), rc.engine.end_time);
    shared.set_faults(faults.unwrap_or_else(|| FaultInjector::new(rc.faults.clone())));
    shared.round.set_checkpoint_every(rc.checkpoint_every_gvt);
    // Each attempt gets a fresh registry: a supervised restart must not
    // inherit the felled attempt's half-deposited rings.
    shared.telemetry = Telemetry::new(rc.telemetry.clone());
    if let Some(c) = resume {
        shared.round.seed(c.gvt, c.gvt_rounds);
    }
    let (map, engines) = build_engines(model, &rc.engine, n, resume, gate.as_deref(), &shared);
    if let Some(g) = &gate {
        shared.ingest = Some(IngestPort::new(Arc::clone(g), map.clone()));
    }
    let proto = P::start(model.as_ref(), rc);
    let sink: CkptSink<M> = CkptSink::new(rc.checkpoint_path.clone(), map);

    let start = Instant::now();
    let monitor_exit = AtomicBool::new(false);
    let (results, first_panic, stall) = std::thread::scope(|scope| {
        let (shared, proto, sink, monitor_exit) = (&shared, &proto, &sink, &monitor_exit);
        let handles: Vec<_> = engines
            .into_iter()
            .enumerate()
            .map(|(t, eng)| {
                std::thread::Builder::new()
                    .name(format!("sim{t}"))
                    .spawn_scoped(scope, move || {
                        // A panicking worker must not strand its siblings in
                        // semaphores or barriers: poison everything, then
                        // report.
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            worker_loop(t, eng, shared, proto, rc, sink)
                        }))
                        .map_err(|payload| {
                            shared.poison_all();
                            panic_message(payload.as_ref())
                        })
                    })
                    .expect("spawn worker")
            })
            .collect();
        let controller = matches!(rc.system.scheduler, Scheduler::DdPdes).then(|| {
            std::thread::Builder::new()
                .name("controller".into())
                .spawn_scoped(scope, move || controller_loop(shared))
                .expect("spawn controller")
        });

        // Liveness watchdog: sample (gvt, gvt_rounds, workers done) and trip
        // when none has changed within the bound — the run is wedged, so
        // capture a structured dump and poison every primitive instead of
        // hanging in `join` below. It stays on duty past the final GVT: a
        // worker can still block in the teardown (a park that slips past the
        // termination wake-up, an exit barrier, the checkpoint handshake),
        // and there the workers reaching `done` are the progress signal.
        let monitor = rc.watchdog.map(|bound| {
            let tick = (bound / 8).clamp(Duration::from_millis(5), Duration::from_millis(500));
            std::thread::Builder::new()
                .name("watchdog".into())
                .spawn_scoped(scope, move || -> Option<Box<StallDump>> {
                    let mut last = (0u64, 0u64, 0usize);
                    let mut last_change = Instant::now();
                    loop {
                        std::thread::park_timeout(tick);
                        let done = shared.workers_done();
                        if monitor_exit.load(Ordering::Acquire) || done == n {
                            return None;
                        }
                        let now = (shared.round.gvt().ticks(), shared.round.rounds(), done);
                        if now != last {
                            last = now;
                            last_change = Instant::now();
                            continue;
                        }
                        if last_change.elapsed() < bound {
                            continue;
                        }
                        let (idle, bound) =
                            (last_change.elapsed().as_secs_f64(), bound.as_secs_f64());
                        let reason = if shared.round.terminated() {
                            format!(
                                "teardown stuck: {done}/{n} workers done, none for \
                                 {idle:.1}s (bound {bound:.1}s)"
                            )
                        } else {
                            P::stall_reason(idle, bound)
                        };
                        let dump = Box::new(shared.build_stall_dump(&reason, &rc.system.name()));
                        shared.poison_all();
                        return Some(dump);
                    }
                })
                .expect("spawn watchdog")
        });

        let mut results: Vec<Option<ThreadResult>> = (0..n).map(|_| None).collect();
        let mut first_panic: Option<(usize, String)> = None;
        for (t, h) in handles.into_iter().enumerate() {
            match h.join().expect("worker join") {
                Ok(r) => results[t] = Some(r),
                Err(message) => {
                    if first_panic.is_none() {
                        first_panic = Some((t, message));
                    }
                }
            }
        }
        shared.controller_exit.store(true, Ordering::Release);
        if let Some(c) = controller {
            c.join().expect("controller panicked");
        }
        monitor_exit.store(true, Ordering::Release);
        let stall = monitor.and_then(|m| {
            m.thread().unpark();
            m.join().expect("watchdog panicked")
        });
        (results, first_panic, stall)
    });
    let wall = start.elapsed();

    // Survivor state outlives a failed attempt: the per-thread committed
    // loads feed the supervisor's LP remap, and the newest assembled
    // checkpoint is what it restores from.
    let (total, digests, thread_loads) = ThreadResult::merge(&results);
    let checkpoint = sink.latest();

    // Panic beats stall: a panicked worker stops folding minima, so a
    // watchdog trip during teardown is a symptom, not the cause.
    let failure = first_panic
        .map(|(thread, message)| RunError::WorkerPanicked { thread, message })
        .or(stall.map(RunError::Stalled))
        .or_else(|| {
            let e = shared.ingest.as_ref().and_then(IngestPort::take_error);
            e.map(RunError::Ingest)
        });
    if let Some(e) = failure {
        return RtAttempt {
            outcome: Err(e),
            checkpoint,
            thread_loads,
        };
    }
    if let Some(g) = &gate {
        // The simulation completed: refuse further submissions (queued ones
        // get `Closed`). Failure paths above leave the gate open so a
        // supervisor can resume with it.
        g.close();
    }

    let telemetry_data = shared.telemetry.enabled().then(|| shared.telemetry.take());
    let mut metrics = RunMetrics::of_run(
        rc.system.name(),
        n,
        model.num_lps(),
        &total,
        shared.round.rounds(),
        shared.demand.max_descheduled(),
        telemetry_data.as_ref(),
    );
    metrics.wall_secs = wall.as_secs_f64();
    metrics.gvt_cpu_secs = shared.gvt_wall_ns.load(Ordering::Acquire) as f64 * 1e-9;
    metrics.voluntary_yields = shared
        .yields
        .iter()
        .map(|y| y.load(Ordering::Relaxed))
        .sum();
    metrics.pin_failures = shared.pin_failures.load(Ordering::Relaxed);
    proto.tag_metrics(&mut metrics);
    RtAttempt {
        outcome: Ok(RunOutcome {
            metrics,
            digests,
            gvt: shared.round.gvt().ticks(),
            completed: true,
            invariants: Invariants {
                gvt_regressions: shared.round.regressions(),
            },
            fault_counts: shared.faults.counts(),
            telemetry: telemetry_data,
            recovery: RecoveryBooks {
                shards_final: n,
                ..Default::default()
            },
            ..Default::default()
        }),
        checkpoint,
        thread_loads,
    }
}

/// Run `model` under supervision and protocol `P`: recover from worker
/// failures via the checkpoint/restart path, degrade to sequential execution
/// when the retry budget is exhausted. Never returns an error — a supervised
/// run completes. An `ingest` gate outlives every failed attempt.
pub fn run_supervised<M: Model, P: Protocol<M>>(
    model: &Arc<M>,
    rc: &RtRunConfig,
    sup: &SupervisorConfig,
    ingest: Option<Arc<IngestGate<M::Payload>>>,
) -> RunOutcome {
    let mut cfg = rc.clone();
    let (run, books) = supervise(
        model,
        &rc.engine,
        rc.num_threads,
        &rc.faults,
        sup,
        ingest.as_deref(),
        |threads, resume, injector| {
            cfg.num_threads = threads;
            run_threads_attempt::<M, P>(model, &cfg, resume, Some(injector), ingest.clone())
        },
    );
    RunOutcome::supervised(run, books)
}
