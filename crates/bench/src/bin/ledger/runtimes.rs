//! The six runtimes behind one call, measured from outside: every run goes
//! through the runtime's public entry point, on a helper thread, under the
//! runtime's own watchdog and a harness-side deadline. [`guarded`] is that
//! deadline; the traced pass puts its stepped and isolated work under it
//! too, so no loop of the benchmark waits on the code it measures without
//! a bound, and every way a run can go wrong is one counted failure.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cons_rt::{run_cons, ConsRunConfig};
use dist_rt::{run_loopback, DistConfig, Transport};
use machine::MachineConfig;
use metrics::RunMetrics;
use pdes_core::{run_sequential, EngineConfig, Model};
use sim_rt::{run_sim, AffinityPolicy, GvtMode, RunConfig, Scheduler, SystemConfig};
use telemetry::TelemetryConfig;
use thread_rt::{run_threads, RtRunConfig};

use crate::workloads::PARTS;

/// Bound on GVT/LBTS progress handed to every runtime that has a watchdog.
const WATCHDOG: Duration = Duration::from_secs(20);
/// Harness-side bound on one whole run. A miss leaves the run's threads
/// behind, so the caller stops measuring after it.
pub const DEADLINE: Duration = Duration::from_secs(30);

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, fixed at
/// 100 on Linux).
const CLK_TCK: f64 = 100.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rt {
    Seq,
    Thread,
    /// thread-rt with `TelemetryConfig::on()` — prices turning tracing on.
    ThreadTraced,
    Cons,
    DistMem,
    DistTcp,
    /// sim-rt, GG-PDES-Async, two simulation threads on a 1-core × 1-SMT
    /// virtual machine (the paper's 2:1 over-subscription).
    Vm,
    /// Same machine, Baseline-Async: the denominator of `vm.gg_gain`.
    VmBaseline,
}

impl Rt {
    pub fn name(self) -> &'static str {
        match self {
            Rt::Seq => "seq",
            Rt::Thread => "thread",
            Rt::ThreadTraced => "thread_traced",
            Rt::Cons => "cons",
            Rt::DistMem => "dist_mem",
            Rt::DistTcp => "dist_tcp",
            Rt::Vm => "vm",
            Rt::VmBaseline => "vm_baseline",
        }
    }

    /// The runtime `name()` names (the hidden `--probe` flag parses it).
    pub fn by_name(name: &str) -> Option<Rt> {
        use Rt::*;
        [
            Seq,
            Thread,
            ThreadTraced,
            Cons,
            DistMem,
            DistTcp,
            Vm,
            VmBaseline,
        ]
        .into_iter()
        .find(|rt| rt.name() == name)
    }

    /// Which of the workload's four horizons this runtime runs to.
    pub fn horizon(self) -> Horizon {
        match self {
            Rt::Seq => Horizon::Seq,
            Rt::Thread | Rt::ThreadTraced | Rt::Cons => Horizon::Main,
            Rt::DistMem | Rt::DistTcp => Horizon::Dist,
            Rt::Vm | Rt::VmBaseline => Horizon::Vm,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Horizon {
    Seq,
    Main,
    Dist,
    Vm,
}

/// What one run produced. `metrics.wall_secs` is the runtime's own figure
/// (virtual seconds on the VM); `wall_s` is always host time.
#[derive(Debug, Clone)]
pub struct RunOut {
    pub wall_s: f64,
    /// Process user+sys CPU consumed while the run was in flight.
    pub cpu_s: f64,
    pub metrics: RunMetrics,
}

/// Process CPU time (user + system, all threads, including exited ones).
pub fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after it.
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / CLK_TCK
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

const GG_ASYNC: SystemConfig =
    SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
const BASELINE_ASYNC: SystemConfig = SystemConfig::new(
    Scheduler::Baseline,
    GvtMode::Async,
    AffinityPolicy::Constant,
);

/// Run `rt` to completion on the calling thread.
fn run_inline<M: Model>(rt: Rt, model: &Arc<M>, ecfg: &EngineConfig) -> Result<RunMetrics, String> {
    match rt {
        Rt::Seq => {
            let r = run_sequential(model, ecfg, None);
            Ok(RunMetrics {
                system: "Sequential".into(),
                threads: 1,
                lps: model.num_lps(),
                committed: r.committed,
                processed: r.committed,
                commit_digest: r.commit_digest,
                ..Default::default()
            })
        }
        Rt::Thread | Rt::ThreadTraced => {
            let mut rc =
                RtRunConfig::new(PARTS, ecfg.clone(), GG_ASYNC).with_watchdog(Some(WATCHDOG));
            if rt == Rt::ThreadTraced {
                rc = rc.with_telemetry(TelemetryConfig::on());
            }
            run_threads(model, &rc)
                .map(|r| r.metrics)
                .map_err(|e| first_line(&e.to_string()))
        }
        Rt::Cons => {
            let rc =
                ConsRunConfig::new(PARTS, ecfg.clone(), GG_ASYNC).with_watchdog(Some(WATCHDOG));
            run_cons(model, &rc)
                .map(|r| r.metrics)
                .map_err(|e| first_line(&e.to_string()))
        }
        Rt::DistMem | Rt::DistTcp => {
            let dcfg = DistConfig {
                shards: PARTS,
                transport: if rt == Rt::DistMem {
                    Transport::Mem
                } else {
                    Transport::Tcp
                },
                ..DistConfig::default()
            };
            debug_assert!(dcfg.watchdog.is_some_and(|w| w <= WATCHDOG));
            run_loopback(Arc::clone(model), ecfg, &dcfg)
                .map(|r| r.metrics)
                .map_err(|e| first_line(&format!("{e:?}")))
        }
        Rt::Vm | Rt::VmBaseline => {
            let sys = if rt == Rt::Vm {
                GG_ASYNC
            } else {
                BASELINE_ASYNC
            };
            let rc =
                RunConfig::new(PARTS, ecfg.clone(), sys).with_machine(MachineConfig::small(1, 1));
            let r = run_sim(model, &rc);
            if r.completed {
                Ok(r.metrics)
            } else {
                Err("virtual machine run did not complete".into())
            }
        }
    }
}

fn first_line(s: &str) -> String {
    s.lines().next().unwrap_or("").chars().take(200).collect()
}

/// Why a guarded run produced no result.
#[derive(Debug)]
pub enum RunFailure {
    /// The runtime returned an error, stalled under its watchdog, or
    /// panicked. The benchmark carries on.
    Failed(String),
    /// The harness deadline passed; the run's threads are still alive.
    DeadlineMissed,
}

/// Run `work` on a helper thread named after `what`, under [`DEADLINE`].
pub fn guarded<T: Send + 'static>(
    what: &str,
    work: impl FnOnce() -> Result<T, String> + Send + 'static,
) -> Result<T, RunFailure> {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::Builder::new()
        .name(format!("ledger-{what}"))
        .spawn(move || {
            // The receiver is gone only after a deadline miss.
            let _ = tx.send(work());
        })
        .expect("spawn helper thread");
    match rx.recv_timeout(DEADLINE) {
        Ok(result) => {
            helper.join().expect("helper thread sent its result");
            result.map_err(RunFailure::Failed)
        }
        Err(mpsc::RecvTimeoutError::Timeout) => Err(RunFailure::DeadlineMissed),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let why = match helper.join() {
                Err(p) => p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".into()),
                Ok(()) => "helper exited without a result".into(),
            };
            Err(RunFailure::Failed(format!(
                "panicked: {}",
                first_line(&why)
            )))
        }
    }
}

/// Run `rt` to completion on the calling thread, with the wall and CPU time
/// it took.
pub fn run_measured<M: Model>(
    rt: Rt,
    model: &Arc<M>,
    ecfg: &EngineConfig,
) -> Result<RunOut, String> {
    let cpu0 = process_cpu_secs();
    let t0 = Instant::now();
    let metrics = run_inline(rt, model, ecfg)?;
    Ok(RunOut {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_secs() - cpu0,
        metrics,
    })
}

/// What a probe child reports about its one run.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// `VmHWM` of the child, MiB.
    pub peak_rss_mib: f64,
    pub committed: u64,
    pub commit_digest: u64,
    /// The runtime's own `wall_secs` (virtual seconds on the VM).
    pub runtime_secs: f64,
}

/// Body of the hidden `--probe <runtime>` mode: run `rt` once, alone in
/// this process, and print the four fields of a [`Probe`].
pub fn probe_child<M: Model>(rt: Rt, model: &Arc<M>, ecfg: &EngineConfig) -> Result<(), String> {
    let m = run_inline(rt, model, ecfg)?;
    println!(
        "{} {} {} {}",
        peak_rss_mib(),
        m.committed,
        m.commit_digest,
        m.wall_secs
    );
    Ok(())
}

/// Run the workload once on `rt` in a child process and return what it
/// reports. Within the benchmark's own process the peak-RSS high-water mark
/// only ever ratchets up across runs (allocator arenas of exited threads
/// are not returned), so the figure is taken in a child that does nothing
/// else. The child is killed if it outlives [`DEADLINE`].
pub fn probe(rt: Rt, workload: &str, seed: u64, quick: bool) -> Result<Probe, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--probe",
        rt.name(),
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
    ]);
    if quick {
        cmd.arg("--quick");
    }
    let mut child = cmd
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() < DEADLINE => {
                std::thread::sleep(Duration::from_millis(5))
            }
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("killed after {}s", DEADLINE.as_secs()));
            }
            Err(e) => return Err(e.to_string()),
        }
    };
    let mut text = String::new();
    if let Some(mut out) = child.stdout.take() {
        use std::io::Read;
        out.read_to_string(&mut text).map_err(|e| e.to_string())?;
    }
    let mut fields = text.split_ascii_whitespace();
    let mut next = || {
        fields
            .next()
            .ok_or_else(|| format!("{status}, output {text:?}"))
    };
    Ok(Probe {
        peak_rss_mib: next()?.parse().map_err(|e| format!("{e}"))?,
        committed: next()?.parse().map_err(|e| format!("{e}"))?,
        commit_digest: next()?.parse().map_err(|e| format!("{e}"))?,
        runtime_secs: next()?.parse().map_err(|e| format!("{e}"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_turns_errors_and_panics_into_failures() {
        assert_eq!(guarded("ok", || Ok(7)).ok(), Some(7));
        match guarded::<()>("err", || Err("no".into())) {
            Err(RunFailure::Failed(why)) => assert_eq!(why, "no"),
            other => panic!("{other:?}"),
        }
        match guarded::<()>("panic", || panic!("boom\nsecond line")) {
            Err(RunFailure::Failed(why)) => assert_eq!(why, "panicked: boom"),
            other => panic!("{other:?}"),
        }
    }
}
