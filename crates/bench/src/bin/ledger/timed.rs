//! The session that both passes measure through — set-up, oracle checking,
//! failure counting — and the end-to-end metrics. Tracing is off here:
//! nothing in this module opens a span.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use pdes_core::{EngineConfig, Model};

use crate::report::Metric;
use crate::runtimes::{
    guarded, probe, run_measured, Horizon, Probe, Rt, RunFailure, RunOut, DEADLINE,
};
use crate::workloads::Workload;

/// Horizon divisor for warm-up runs and for `--quick`.
pub const QUICK_DIVISOR: f64 = 20.0;
/// Set-ups per run of the end-to-end pass: as many as fit in `--seconds`,
/// within these limits; `setup_s` is their median (the benchmark contract
/// asks for several set-ups per run, README "Contract").
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;

/// `(committed, commit_digest)` of the sequential oracle.
type Oracle = (u64, u64);

/// One workload being measured: builds engine configurations, runs
/// runtimes under guard, checks every result against the oracle for its
/// horizon and counts what failed.
pub struct Session<M: Model> {
    pub model: Arc<M>,
    pub workload: Workload,
    pub seed: u64,
    /// `--quick`: every horizon divided by [`QUICK_DIVISOR`].
    pub quick: bool,
    oracles: HashMap<Horizon, Oracle>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or failed exactness check.
    pub problems: Vec<String>,
    /// An exactness check failed (counts that must repeat did not).
    pub inexact: bool,
    /// Measuring has stopped: set-up failed (no oracle to check against), or
    /// a run outlived the harness deadline and its threads are still
    /// running, so nothing measured after it could be trusted.
    pub stopped: bool,
}

impl<M: Model> Session<M> {
    pub fn new(model: Arc<M>, workload: Workload, seed: u64, quick: bool) -> Self {
        Session {
            model,
            workload,
            seed,
            quick,
            oracles: HashMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            inexact: false,
            stopped: false,
        }
    }

    pub fn end_time(&self, h: Horizon) -> f64 {
        let w = &self.workload;
        let end = match h {
            Horizon::Seq => w.end_seq,
            Horizon::Main => w.end_main,
            Horizon::Dist => w.end_dist,
            Horizon::Vm => w.end_vm,
        };
        if self.quick {
            end / QUICK_DIVISOR
        } else {
            end
        }
    }

    pub fn engine(&self, h: Horizon) -> EngineConfig {
        self.workload.engine(self.seed, self.end_time(h))
    }

    pub fn oracle(&self, h: Horizon) -> Option<Oracle> {
        self.oracles.get(&h).copied()
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("ledger: FAILED {what}");
        self.problems.push(what);
    }

    /// Count one operation the caller ran itself; `Err` says why it failed.
    pub fn count(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// Record a failed exactness check.
    pub fn mismatch(&mut self, what: String) {
        self.inexact = true;
        eprintln!("ledger: MISMATCH {what}");
        self.problems.push(what);
    }

    /// Run `work` under [`guarded`] as one attempted operation: failed if it
    /// errors, panics or misses the deadline, and skipped once measuring
    /// has stopped.
    pub fn guard<T: Send + 'static>(
        &mut self,
        what: &str,
        work: impl FnOnce() -> Result<T, String> + Send + 'static,
    ) -> Option<T> {
        if self.stopped {
            return None;
        }
        self.attempted += 1;
        match guarded(what, work) {
            Ok(out) => Some(out),
            Err(RunFailure::Failed(why)) => {
                self.fail(format!("{what}: {why}"));
                None
            }
            Err(RunFailure::DeadlineMissed) => {
                self.stopped = true;
                self.fail(format!(
                    "{what}: no result within {}s; measuring stops here",
                    DEADLINE.as_secs()
                ));
                None
            }
        }
    }

    /// Run `rt` under guard at engine configuration `ecfg`.
    fn attempt(&mut self, rt: Rt, ecfg: &EngineConfig) -> Option<RunOut> {
        let (model, ecfg) = (Arc::clone(&self.model), ecfg.clone());
        self.guard(rt.name(), move || run_measured(rt, &model, &ecfg))
    }

    /// Run `rt` at its horizon and hold it to the oracle: a result whose
    /// `(committed, commit_digest)` differs is a failed operation.
    pub fn run(&mut self, rt: Rt) -> Option<RunOut> {
        let h = rt.horizon();
        let out = self.attempt(rt, &self.engine(h))?;
        let got = (out.metrics.committed, out.metrics.commit_digest);
        match self.oracle(h) {
            Some(want) if want != got => {
                self.fail(format!(
                    "{}: committed {} digest {:#018x}, oracle committed {} digest {:#018x}",
                    rt.name(),
                    got.0,
                    got.1,
                    want.0,
                    want.1
                ));
                None
            }
            Some(_) => Some(out),
            None => {
                self.fail(format!("{}: no oracle for its horizon", rt.name()));
                None
            }
        }
    }

    /// Run the workload once on `rt` in a child process of its own (see
    /// [`probe`]): one attempted operation, held to the oracle like any run.
    pub fn probe(&mut self, rt: Rt) -> Option<Probe> {
        if self.stopped {
            return None;
        }
        self.attempted += 1;
        match probe(rt, self.workload.name, self.seed, self.quick) {
            Ok(p) if self.oracle(rt.horizon()) == Some((p.committed, p.commit_digest)) => Some(p),
            Ok(_) => {
                self.fail(format!(
                    "{} probe: digest differs from the oracle",
                    rt.name()
                ));
                None
            }
            Err(why) => {
                self.fail(format!("{} probe: {why}", rt.name()));
                None
            }
        }
    }

    /// Establish the oracle for every horizon, the exact Baseline-Async
    /// virtual time, and warm thread-rt up at 1/20 horizon. Returns the
    /// baseline's virtual seconds. Repeated set-ups must reproduce the
    /// oracles and the baseline exactly.
    fn setup_once(&mut self) -> Option<f64> {
        for h in [Horizon::Seq, Horizon::Main, Horizon::Dist, Horizon::Vm] {
            let out = self.attempt(Rt::Seq, &self.engine(h))?;
            let got = (out.metrics.committed, out.metrics.commit_digest);
            if got.0 == 0 {
                self.fail(format!(
                    "oracle committed nothing at end time {}",
                    self.end_time(h)
                ));
                return None;
            }
            if let Some(prev) = self.oracles.insert(h, got) {
                if prev != got {
                    self.mismatch(format!(
                        "sequential oracle did not repeat: {prev:?} then {got:?}"
                    ));
                }
            }
        }
        let baseline = self.run(Rt::VmBaseline)?.metrics.wall_secs;
        // The sequential runtime has just run four times.
        let warm = self
            .workload
            .engine(self.seed, self.end_time(Horizon::Main) / QUICK_DIVISOR);
        self.attempt(Rt::Thread, &warm)?;
        Some(baseline)
    }
}

/// What set-up leaves behind for the timed and traced passes.
pub struct Setup {
    /// Seconds per set-up, one sample each.
    pub secs: Vec<f64>,
    /// Baseline-Async virtual seconds at the VM horizon (exact).
    pub vm_baseline_virtual_s: f64,
}

/// Build the model and set the session up: once, or with `repeat_for`
/// seconds given, again and again until they are used up (within
/// [`MIN_SETUPS`] and [`MAX_SETUPS`]). `None` when a set-up run failed —
/// nothing can be checked without its oracles.
pub fn setup<M: Model>(
    build: &dyn Fn() -> M,
    workload: &Workload,
    seed: u64,
    quick: bool,
    repeat_for: Option<f64>,
) -> (Session<M>, Option<Setup>) {
    let mut secs = Vec::new();
    let mut baselines: Vec<f64> = Vec::new();
    let started = Instant::now();
    let mut t0 = started;
    let mut s = Session::new(Arc::new(build()), workload.clone(), seed, quick);
    loop {
        let Some(baseline) = s.setup_once() else {
            s.stopped = true;
            return (s, None);
        };
        secs.push(t0.elapsed().as_secs_f64());
        baselines.push(baseline);
        let spent = started.elapsed().as_secs_f64();
        let enough = match repeat_for {
            None => true,
            Some(seconds) => {
                secs.len() >= MAX_SETUPS
                    || (secs.len() >= MIN_SETUPS && spent + spent / secs.len() as f64 > seconds)
            }
        };
        if enough {
            break;
        }
        t0 = Instant::now();
        s.model = Arc::new(build());
    }
    if baselines.iter().any(|b| *b != baselines[0]) {
        s.mismatch(format!(
            "vm baseline virtual time did not repeat: {baselines:?}"
        ));
    }
    let setup = Setup {
        secs,
        vm_baseline_virtual_s: baselines[0],
    };
    (s, Some(setup))
}

/// The end-to-end metrics of a session that has been set up. Everything
/// here but `setup_s` is exact or nearly so: the virtual machine is
/// deterministic, and it runs in a child process of its own, whose peak RSS
/// is therefore the footprint of one run and nothing else. Host wall time
/// per event cannot hold a bound on a shared host (README, "Noise floor");
/// it is measured in the per-layer pass.
pub fn end_to_end<M: Model>(s: &mut Session<M>, setup: Option<&Setup>) -> Vec<Metric> {
    let vm = s.probe(Rt::Vm);
    // A metric with nothing behind it reads as its worst case: a failure
    // can never look like an improvement.
    let worst = DEADLINE.as_secs_f64();
    let vm_events = s.oracle(Horizon::Vm).map_or(1, |o| o.0) as f64;
    vec![
        setup
            .and_then(|st| Metric::timing("setup_s", "s", &st.secs))
            .unwrap_or(Metric::exact("setup_s", "s", worst)),
        Metric::exact(
            "vm.virtual_ns_per_event",
            "ns_virtual",
            vm.map_or(worst, |p| p.runtime_secs) * 1e9 / vm_events,
        ),
        Metric::exact(
            "vm.gg_gain",
            "ratio",
            match (setup, vm) {
                (Some(st), Some(p)) => st.vm_baseline_virtual_s / p.runtime_secs,
                _ => 0.0,
            },
        ),
        // A failed probe reads as 1 TiB: worse than any real footprint.
        Metric::exact(
            "peak_rss_mb",
            "MiB",
            vm.map_or(1024.0 * 1024.0, |p| p.peak_rss_mib),
        ),
        Metric::exact(
            "pass_ratio",
            "ratio",
            (s.attempted - s.failed) as f64 / s.attempted.max(1) as f64,
        ),
    ]
}
