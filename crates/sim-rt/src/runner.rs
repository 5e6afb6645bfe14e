//! The experiment runner: wires a model, a system configuration, and a
//! virtual machine together, runs the simulation, and collects metrics.

use crate::config::{AffinityPolicy, Scheduler, SimCost, SystemConfig};
use crate::controller::ControllerTask;
use crate::shared::Shared;
use crate::simthread::SimThreadTask;
use machine::{Machine, MachineConfig, WorkTag};
use metrics::{Invariants, RunMetrics, RunOutcome};
use pdes_core::{
    build_engines, supervise, Attempt, AttemptFailure, Checkpoint, CkptSink, EngineConfig,
    FaultInjector, FaultPlan, IngestGate, IngestRequest, Model, RecoveryBooks, SupervisorConfig,
    ThreadResult, YieldTier,
};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

/// Experiment parameters beyond the model itself.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub num_threads: usize,
    pub engine: EngineConfig,
    pub system: SystemConfig,
    pub machine: MachineConfig,
    pub cost: SimCost,
    /// Safety cap on virtual time (ns); `None` = unbounded.
    pub limit_ns: Option<u64>,
    /// Fault-injection plan (empty ⇒ zero-cost pass-through).
    pub faults: FaultPlan,
    /// Liveness watchdog: abort with a diagnostic dump when GVT makes no
    /// progress for this many *virtual* ns (`None` disables it).
    pub watchdog_ns: Option<u64>,
    /// Take a GVT-aligned checkpoint every this many GVT rounds
    /// (0 disables checkpointing).
    pub checkpoint_every_gvt: u64,
    /// Also persist each checkpoint here (atomic rename-into-place);
    /// `None` keeps checkpoints in memory only.
    pub checkpoint_path: Option<PathBuf>,
    /// Live telemetry (off by default; near-zero cost when disabled).
    pub telemetry: telemetry::TelemetryConfig,
}

impl RunConfig {
    pub fn new(num_threads: usize, engine: EngineConfig, system: SystemConfig) -> Self {
        RunConfig {
            num_threads,
            engine,
            system,
            machine: MachineConfig::default(),
            cost: SimCost::default(),
            limit_ns: Some(120_000_000_000), // 120 virtual seconds
            faults: FaultPlan::default(),
            watchdog_ns: Some(10_000_000_000), // 10 virtual seconds
            checkpoint_every_gvt: 0,
            checkpoint_path: None,
            telemetry: telemetry::TelemetryConfig::default(),
        }
    }

    pub fn with_machine(mut self, m: MachineConfig) -> Self {
        self.machine = m;
        self
    }

    /// Attach a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Override (or disable, with `None`) the virtual-time watchdog bound.
    pub fn with_watchdog_ns(mut self, bound: Option<u64>) -> Self {
        self.watchdog_ns = bound;
        self
    }

    /// Take a GVT-aligned checkpoint every `every` GVT rounds (0 disables).
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every_gvt = every;
        self
    }

    /// Enable live telemetry (per-thread tracing + GVT-round snapshots).
    pub fn with_telemetry(mut self, telemetry: telemetry::TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// One attempt of a (possibly supervised) virtual-machine run. An attempt
/// that did not complete still reports everything it measured:
/// `outcome.completed` is false, with `stall` saying why (none after a kill).
pub type SimAttempt<M> = Attempt<M, RunOutcome>;

/// Why an attempt did not complete, given the worker a kill felled (if any).
fn failure(killed: Option<usize>) -> AttemptFailure {
    AttemptFailure {
        dead_thread: killed,
        reason: match killed {
            Some(t) => format!("worker {t} killed (scripted fault)"),
            None => "stalled (virtual-time watchdog or deadlock)".into(),
        },
    }
}

/// Run `model` under the given configuration on the virtual machine.
///
/// Never panics on a stalled or deadlocked run: the liveness watchdog (and
/// the machine's deadlock detector) convert those into `completed == false`
/// plus a structured [`RunOutcome::stall`] dump.
///
/// # Panics
/// Panics on model/thread-count mismatches.
pub fn run_sim<M: Model>(model: &Arc<M>, rc: &RunConfig) -> RunOutcome {
    run_sim_attempt(model, rc, None, None, None).outcome
}

/// A scripted ingest plane for [`run_sim_attempt`]: the gate plus
/// `(gvt_round, request)` client arrivals, replayed at each round's Aware
/// phase through the gate — the same admission/pump path the real runtimes
/// use. Inspect the gate afterwards for verdict counts and the accepted
/// events to feed the merged-stream sequential oracle.
pub type ScriptedIngest<P> = (Arc<IngestGate<P>>, Vec<(u64, IngestRequest<P>)>);

/// Run one attempt with every hook exposed: a GVT-aligned checkpoint to
/// resume from, a pre-seeded fault injector (the supervisor restores
/// fault-stream cursors and consumes the kill that felled the previous
/// attempt before handing the injector in), and a scripted ingest plane.
/// [`build_engines`] sets the attempt up (which map a resumed run uses, the
/// cut restore, the ingest replay).
pub fn run_sim_attempt<M: Model>(
    model: &Arc<M>,
    rc: &RunConfig,
    resume: Option<&Checkpoint<M::State, M::Payload>>,
    faults: Option<FaultInjector>,
    ingest: Option<ScriptedIngest<M::Payload>>,
) -> SimAttempt<M> {
    attempt(model, rc, resume, faults, ingest).0
}

/// [`run_sim_attempt`], plus the worker a scripted kill felled.
fn attempt<M: Model>(
    model: &Arc<M>,
    rc: &RunConfig,
    resume: Option<&Checkpoint<M::State, M::Payload>>,
    faults: Option<FaultInjector>,
    ingest: Option<ScriptedIngest<M::Payload>>,
) -> (SimAttempt<M>, Option<usize>) {
    let num_threads = rc.num_threads;
    let num_cores = rc.machine.num_cores;

    let mut machine = Machine::new(rc.machine.clone());
    let shared = Rc::new(RefCell::new(Shared::<M::Payload>::new(
        num_threads,
        num_cores,
        rc.engine.end_time,
        rc.system,
        rc.cost.clone(),
    )));

    // Semaphores (`sem_locks`), the DD lock, faults, the watchdog, and the
    // engines.
    let (map, engines) = {
        let mut sh = shared.borrow_mut();
        for _ in 0..num_threads {
            let sem = machine.kernel().add_sem(0, 1);
            sh.sems.push(sem);
        }
        if matches!(rc.system.scheduler, Scheduler::DdPdes) {
            sh.dd_mutex = Some(machine.kernel().add_mutex());
        }
        sh.plane.faults = faults.unwrap_or_else(|| FaultInjector::new(rc.faults.clone()));
        // Each attempt gets a fresh registry: a supervised restart must not
        // inherit the felled attempt's half-deposited rings.
        sh.telemetry = telemetry::Telemetry::new(rc.telemetry.clone());
        sh.watchdog_ns = rc.watchdog_ns;
        sh.yield_tier = YieldTier::new(rc.system, num_threads, rc.machine.hw_threads());
        sh.round.set_checkpoint_every(rc.checkpoint_every_gvt);
        if let Some(c) = resume {
            sh.round.seed(c.gvt, c.gvt_rounds);
        }
        let gate = ingest.as_ref().map(|(g, _)| g.as_ref());
        let (map, engines) = build_engines(model, &rc.engine, num_threads, resume, gate, &sh.plane);
        // Initial events are pre-routed, not in-flight: clear the send
        // windows (queue minima still cover the messages).
        for t in 0..num_threads {
            sh.plane.take_window(t);
        }
        if let Some((gate, script)) = ingest {
            sh.set_ingest(gate, map.clone(), script);
        }
        (map, engines)
    };
    let store: Rc<CkptSink<M>> = Rc::new(CkptSink::new(rc.checkpoint_path.clone(), map));

    // The DD controller occupies a dedicated core (the last one); simulation
    // threads under constant affinity round-robin over the remaining cores.
    let dd = matches!(rc.system.scheduler, Scheduler::DdPdes);
    let sim_cores = if dd && num_cores > 1 {
        num_cores - 1
    } else {
        num_cores
    };

    for (t, eng) in engines.into_iter().enumerate() {
        let pin = match rc.system.affinity {
            AffinityPolicy::Constant => Some(t % sim_cores),
            AffinityPolicy::NoAffinity | AffinityPolicy::Dynamic => None,
        };
        let task = SimThreadTask::new(
            eng,
            Rc::clone(&shared),
            rc.engine.clone(),
            Rc::clone(&store),
        );
        let id = machine.add_task(Box::new(task), format!("sim{t}"), pin);
        assert_eq!(id.index(), t, "task ids must equal thread ids");
    }
    if dd {
        let ctrl = ControllerTask::new(Rc::clone(&shared));
        let pin = if num_cores > 1 {
            Some(num_cores - 1)
        } else {
            None
        };
        machine.add_task(Box::new(ctrl), "controller", pin);
    }

    let (report, deadlock) = match machine.run(rc.limit_ns) {
        Ok(r) => (r, None),
        // Every task is blocked — a protocol wedge (e.g. a lost wake-up
        // parking the whole group). Salvage the report instead of panicking
        // the process.
        Err(dl) => (machine.report_now(), Some(dl)),
    };

    let mut sh = shared.borrow_mut();
    let completed = deadlock.is_none()
        && sh.stall.is_none()
        && sh.killed.is_none()
        && report.tasks.iter().all(|t| t.finished);
    if !completed && sh.stall.is_none() && sh.killed.is_none() {
        // No watchdog dump yet: capture the same structured one. A wedge is
        // the run's stall; a run cut short by the time limit only says what
        // pinned its GVT.
        let tokens: Vec<u32> = sh
            .sems
            .iter()
            .map(|&s| machine.kernel_ref().sem_state(s).0)
            .collect();
        match &deadlock {
            Some(dl) => {
                let reason = format!("virtual machine deadlock: {dl}");
                sh.stall = Some(sh.build_stall_dump(&reason, &tokens));
            }
            None => eprintln!("{}", sh.build_stall_dump("run incomplete", &tokens)),
        }
    }
    if let Some(dump) = &sh.stall {
        eprintln!("{dump}");
    }
    let telemetry_data = sh.telemetry.enabled().then(|| sh.telemetry.take());
    let (total, digests, thread_loads) = ThreadResult::merge(&sh.finals);
    let mut m = RunMetrics::of_run(
        rc.system.name(),
        num_threads,
        model.num_lps(),
        &total,
        sh.round.rounds(),
        sh.demand.max_descheduled(),
        telemetry_data.as_ref(),
    );
    m.gvt_cpu_secs = sh.gvt_wall_in_round as f64 * 1e-9;
    m.wall_secs = report.virtual_secs();
    m.total_work = report.total_work();
    m.wasted_work = report.work_for(WorkTag::Spin) + report.work_for(WorkTag::Poll);
    m.voluntary_yields = report.voluntary_yields;
    m.yields_by_cause = Some(sh.dbg_yields.iter().copied().sum());
    let result = RunOutcome {
        metrics: m,
        digests,
        gvt: sh.round.gvt().ticks(),
        completed,
        invariants: Invariants {
            gvt_regressions: sh.round.regressions(),
        },
        fault_counts: sh.plane.faults.counts(),
        stall: sh.stall.clone(),
        telemetry: telemetry_data,
        recovery: RecoveryBooks {
            shards_final: num_threads,
            ..Default::default()
        },
        report: Some(report),
        ..Default::default()
    };
    let killed = sh.killed;
    drop(sh);
    let a = SimAttempt {
        outcome: result,
        checkpoint: store.latest(),
        thread_loads,
    };
    (a, killed)
}

/// Run `model` on the virtual machine under supervision: one attempt
/// closure handed to [`pdes_core::supervise`]. No wall-clock backoff is
/// applied — the machine is deterministic and single-threaded, so sleeping
/// would only slow the host down.
pub fn run_sim_supervised<M: Model>(
    model: &Arc<M>,
    rc: &RunConfig,
    sup: &SupervisorConfig,
) -> RunOutcome {
    let mut cfg = rc.clone();
    let sup = sup.clone().with_backoff(std::time::Duration::ZERO);
    let (run, books) = supervise(
        model,
        &rc.engine,
        rc.num_threads,
        &rc.faults,
        &sup,
        None,
        |threads, resume, injector| {
            cfg.num_threads = threads;
            let (a, killed) = attempt(model, &cfg, resume, Some(injector), None);
            Attempt {
                outcome: match a.outcome.completed {
                    true => Ok(a.outcome),
                    false => Err(failure(killed)),
                },
                checkpoint: a.checkpoint,
                thread_loads: a.thread_loads,
            }
        },
    );
    RunOutcome::supervised(run, books)
}
