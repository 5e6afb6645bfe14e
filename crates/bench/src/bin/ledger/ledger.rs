//! `ledger` — the repository's benchmark: six runtimes × four workloads,
//! end-to-end metrics that repeat (set-up time, the virtual machine's exact
//! figures, memory, failures), and a per-layer ledger: every runtime's wall
//! time per event, a traced stepped run and isolated layer timings.
//!
//! ```text
//! ledger --workload <name> [--seed S] [--seconds N] [--trace 0|1]
//!        [--quick] [--out FILE] [--spans FILE]
//! ledger --quick            # self-check: every workload at 1/20 horizon
//! ```
//!
//! `--trace 0` prints only the end-to-end metrics, `--trace 1` only the
//! per-layer ones; without `--trace` both passes run. The last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` next to
//! this file for the metric glossary and the prediction table.

mod layers;
mod report;
mod runtimes;
mod spans;
mod stats;
mod stepped;
mod timed;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use models::{Phold, Traffic};
use pdes_core::Model;
use serde::Value;

use report::{host_json, metrics_json, obj, string, to_json_line, to_json_pretty, Metric};
use workloads::{ModelSpec, Workload};

/// The seed the benchmark was developed on; 977 is held out (README).
const WORKING_SEED: u64 = 24301;

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end only; `Some(true)`: per-layer only.
    trace: Option<bool>,
    quick: bool,
    /// Hidden: this process is a probe child that runs this one runtime
    /// (see `runtimes::probe`).
    probe: Option<runtimes::Rt>,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: ledger --workload <{}> [--seed S] [--seconds N] [--trace 0|1] [--quick] \
         [--out FILE] [--spans FILE]\n       ledger --quick",
        workloads::NAMES.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: WORKING_SEED,
        seconds: 20.0,
        trace: None,
        quick: false,
        probe: None,
        out: None,
        spans: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(val()?.clone()),
            "--seed" => o.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                o.trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--quick" => o.quick = true,
            "--probe" => {
                let name = val()?;
                o.probe =
                    Some(runtimes::Rt::by_name(name).ok_or_else(|| format!("--probe: no {name}"))?)
            }
            "--out" => o.out = Some(PathBuf::from(val()?)),
            "--spans" => o.spans = Some(PathBuf::from(val()?)),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if let Some(name) = &o.workload {
        if Workload::by_name(name).is_none() {
            return Err(format!("unknown workload {name}\n{}", usage()));
        }
    } else if !o.quick {
        return Err(usage());
    }
    Ok(o)
}

/// One workload's outcome.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// The full record for `--out`.
    record: Value,
}

/// Something to do with a workload once its model type is known.
trait Job {
    type Out;
    fn run<M: Model>(&self, build: &dyn Fn() -> M, w: &Workload) -> Self::Out;
}

fn dispatch<J: Job>(w: &Workload, job: &J) -> J::Out {
    match &w.model {
        ModelSpec::Phold(cfg) => job.run(&|| Phold::new(cfg.clone()), w),
        ModelSpec::Traffic(cfg) => job.run(&|| Traffic::new(cfg.clone()), w),
    }
}

/// The hidden `--probe` mode (see `runtimes::probe`).
struct Probe<'a>(&'a Opts, runtimes::Rt);

impl Job for Probe<'_> {
    type Out = Result<(), String>;
    fn run<M: Model>(&self, build: &dyn Fn() -> M, w: &Workload) -> Self::Out {
        let s = timed::Session::new(Arc::new(build()), w.clone(), self.0.seed, self.0.quick);
        runtimes::probe_child(self.1, &s.model, &s.engine(self.1.horizon()))
    }
}

/// Measure one workload: the passes `--trace` selects, printed as they
/// finish and collected into an [`Outcome`].
struct Measure<'a> {
    opts: &'a Opts,
    host: &'a Value,
}

impl Job for Measure<'_> {
    type Out = Outcome;
    fn run<M: Model>(&self, build: &dyn Fn() -> M, w: &Workload) -> Outcome {
        run_workload(build, w, self.opts, self.host)
    }
}

fn run_workload<M: Model>(build: &dyn Fn() -> M, w: &Workload, o: &Opts, host: &Value) -> Outcome {
    let mut metrics = Vec::new();
    let mut record = vec![
        ("workload", string(w.name)),
        ("why", string(w.why)),
        ("seed", Value::UInt(o.seed)),
        ("quick", Value::Bool(o.quick)),
        ("seconds", Value::Float(o.seconds)),
        (
            "horizons",
            obj(vec![
                ("seq", Value::Float(w.end_seq)),
                ("thread_cons", Value::Float(w.end_main)),
                ("dist", Value::Float(w.end_dist)),
                ("vm", Value::Float(w.end_vm)),
                (
                    "divisor",
                    Value::Float(if o.quick { timed::QUICK_DIVISOR } else { 1.0 }),
                ),
            ]),
        ),
        ("host", host.clone()),
    ];
    // One session serves both passes; only the end-to-end pass, which
    // reports `setup_s`, spends `--seconds` on repeating the set-up.
    let repeat_for = (!o.quick && o.trace != Some(true)).then_some(o.seconds);
    let (mut s, setup) = timed::setup(build, w, o.seed, o.quick, repeat_for);
    if o.trace != Some(true) {
        println!("== {} · end-to-end (seed {}, tracing off)", w.name, o.seed);
        let m = timed::end_to_end(&mut s, setup.as_ref());
        for metric in &m {
            println!("{}", metric.row());
        }
        record.push(("end_to_end", metrics_json(&m, true)));
        metrics.extend(m);
    }
    let mut spans_written = true;
    if o.trace != Some(false) {
        println!(
            "== {} · per-layer (seed {}, timed rounds, traced stepped run, isolated timings)",
            w.name, o.seed
        );
        let (m, rec, log) = traced::per_layer(&mut s, setup.as_ref(), o.seconds);
        for metric in &m {
            println!("{}", metric.row());
        }
        record.extend(rec);
        record.push(("per_layer", metrics_json(&m, true)));
        metrics.extend(m);
        if let Some(path) = &o.spans {
            if let Err(e) = std::fs::write(path, spans::to_jsonl(log.spans())) {
                eprintln!("ledger: cannot write {}: {e}", path.display());
                spans_written = false;
            }
        }
    }
    let (attempted, failed) = (s.attempted, s.failed);
    let correct = failed == 0 && !s.inexact && spans_written;
    let problems = s.problems.into_iter().map(string).collect();
    let fail_ratio = failed as f64 / attempted.max(1) as f64;
    println!(
        "{:<36} {fail_ratio:>14.4} failed/attempted ({failed}/{attempted})",
        "fail_ratio"
    );
    record.push(("attempted", Value::UInt(attempted)));
    record.push(("failed", Value::UInt(failed)));
    record.push(("fail_ratio", Value::Float(fail_ratio)));
    record.push(("correct", Value::Bool(correct)));
    record.push(("problems", Value::Array(problems)));
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        record: obj(record),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&argv) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match &o.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let workload = |name: &str| Workload::by_name(name).expect("validated by parse");
    if let Some(rt) = o.probe {
        return match dispatch(&workload(names[0]), &Probe(&o, rt)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(why) => {
                eprintln!("ledger: probe failed: {why}");
                ExitCode::from(1)
            }
        };
    }
    let host = host_json();
    let measure = Measure {
        opts: &o,
        host: &host,
    };
    let outcomes: Vec<Outcome> = names
        .iter()
        .map(|name| dispatch(&workload(name), &measure))
        .collect();

    if let Some(path) = &o.out {
        let doc = Value::Array(outcomes.iter().map(|r| r.record.clone()).collect());
        if let Err(e) = std::fs::write(path, to_json_pretty(&doc) + "\n") {
            eprintln!("ledger: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    let correct = outcomes.iter().all(|r| r.correct);
    // With several workloads (`--quick` alone) the last line carries the
    // totals and no metrics: names would collide across workloads.
    let metrics = match outcomes.as_slice() {
        [one] => metrics_json(&one.metrics, false),
        _ => obj(vec![]),
    };
    println!(
        "{}",
        to_json_line(&obj(vec![
            ("correct", Value::Bool(correct)),
            (
                "attempted",
                Value::UInt(outcomes.iter().map(|r| r.attempted).sum())
            ),
            (
                "failed",
                Value::UInt(outcomes.iter().map(|r| r.failed).sum())
            ),
            ("metrics", metrics),
        ]))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
