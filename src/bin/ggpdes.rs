//! `ggpdes` — command-line driver: run any model under any system
//! configuration on the virtual machine (deterministic) or on real threads.
//!
//! ```text
//! ggpdes --model phold|epidemics|traffic --system gg|dd|baseline
//!        [--gvt sync|async] [--affinity none|constant|dynamic]
//!        [--threads N] [--lps-per-thread N] [--imbalance K]
//!        [--end T] [--seed S] [--cores N] [--smt N]
//!        [--snapshot-period K] [--optimism-window W]
//!        [--gvt-interval N] [--gvt-max-no-change N]
//!        [--runtime vm|threads|dist|cons] [--verify] [--json] [--stats-json FILE]
//!        [--chaos-seed S] [--chaos-plan FILE.json] [--watchdog-secs T]
//!        [--checkpoint-every-gvt N] [--checkpoint-path FILE] [--max-recoveries N]
//!        [--shards N] [--transport mem|loopback|tcp]
//!        [--hb-interval-ms T] [--hb-miss N] [--degrade]
//!        [--kill-shard S:AT ...] [--partition FROM:TO:ROUNDS ...]
//!        [--join-at N] [--leave-at S:N]
//!        [--shard-id I --listen ADDR --connect ADDR ...] [--connect-timeout-secs T]
//!        [--trace-out FILE] [--trace-capacity N] [--round-stream FILE] [--gantt]
//!        [--ingest listen:ADDR|file:PATH|rate:N] [--ingest-journal PATH] [--ingest-replay]
//! ```
//!
//! Distributed runtime (`--runtime dist`): with only `--shards N` the whole
//! cluster runs loopback in this process (one thread per shard, `--transport`
//! selects memory or localhost-TCP links). With `--shard-id I --listen ADDR`
//! the process runs exactly one shard of a real multi-process cluster: shard
//! `I` listens on `ADDR`, dials one `--connect` address per lower shard
//! (the listen addresses of shards `0..I`, in order), and accepts the higher
//! shards. Shard 0 is the GVT coordinator and prints the final metrics;
//! workers exit 0 silently. `--connect-timeout-secs` bounds the mesh
//! handshake — a peer that never appears is a clean non-zero exit, not a
//! hang. On `dist`, `--chaos-seed` selects the per-link fault plan
//! (delay/drop/duplicate below the reliable layer) and
//! `--checkpoint-every-gvt` arms distributed checkpoint cuts.
//!
//! Elastic membership (loopback `dist` only): `--hb-interval-ms T` turns on
//! heartbeat failure detection (`--hb-miss N` intervals of silence declare a
//! peer dead); `--kill-shard S:AT` kills shard `S` at its `AT`th GVT publish
//! (repeatable) so the supervisor can exercise partial recovery;
//! `--partition FROM:TO:ROUNDS` silences one link direction for roughly
//! `ROUNDS` GVT rounds and lets retransmission heal it (repeatable);
//! `--join-at N` admits a new shard at the first checkpoint cut after the
//! `N`th publish; `--leave-at S:N` drains shard `S` out at a cut; and
//! `--degrade` shrinks the cluster around a dead shard instead of failing
//! once `--max-recoveries` is exhausted.
//!
//! Conservative runtime (`--runtime cons`): the same models and engine under
//! Chandy–Misra–Bryant null-message synchronization instead of Time Warp —
//! no speculation, no rollbacks, processing bounded by per-thread channel
//! clocks plus the model's declared lookahead (`Model::lookahead`, strictly
//! positive or the run is refused). It is a policy on the `threads` runtime's
//! worker loop and runner, so the GVT rounds run unchanged as periodic LBTS
//! rounds and `--verify`, `--stats-json`, telemetry, `--gvt sync|async`,
//! `--system gg|baseline`, `--checkpoint-every-gvt` and `--max-recoveries`
//! (supervised restart from an LBTS cut) all work. `--system dd` is refused
//! (its dedicated controller cannot see a parked thread's pending floor),
//! and so are `--chaos-*` and `--ingest` (unsound without rollback) — each
//! with a one-line message and exit code 2. The emitted metrics carry
//! `protocol: "conservative"`, `null_messages_sent`, and `lbts_rounds` for
//! cross-protocol comparison (see DESIGN.md §15).
//!
//! GVT cadence: `--gvt-interval N` sets the base round interval in main-loop
//! cycles (default 25); `--gvt-max-no-change N` enables the ROSS-style
//! "7 O'clock" backoff — after `N` consecutive rounds with an unchanged GVT
//! the effective interval doubles (capped at 64× the base) until GVT moves
//! again, so quiescent phases stop paying round costs. `0` (default)
//! disables the backoff.
//!
//! `--stats-json FILE` additionally writes the final `RunMetrics` of any
//! runtime to `FILE` as pretty-printed JSON (the same document `--json`
//! prints to stdout).
//!
//! Chaos harness: `--chaos-seed S` enables the default fault mix (delays,
//! reordering, straggler storms, backpressure) with deterministic decision
//! streams derived from `S`; `--chaos-plan FILE.json` loads a full
//! `FaultPlan` instead (refused on `--runtime dist`, whose chaos is
//! `--chaos-seed`'s per-link faults). `--watchdog-secs T` bounds GVT
//! progress (wall-clock seconds on `--runtime threads`, virtual seconds on
//! `vm`; `0` disables) — a stalled run exits with a per-thread diagnostic
//! dump rather than hanging.
//!
//! Telemetry: `--trace-out FILE` turns on per-thread tracing and writes a
//! Chrome `trace_event` JSON (load it at <https://ui.perfetto.dev> or
//! `chrome://tracing`); `--round-stream FILE` writes one JSON object per
//! GVT round (counter deltas, per-thread LVTs, queue depths);
//! `--trace-capacity N` sizes each thread's ring (records; rounded up to a
//! power of two; oldest records drop first); `--gantt` prints the Figure-1
//! style activity gantt derived from the trace's park spans. Any of these
//! flags enables collection on every runtime — `vm` traces virtual time,
//! `threads` wall time, `dist` merges per-shard wall clocks onto the
//! coordinator's. Telemetry is off (and costs nothing) by default.
//!
//! External-event ingest (`--runtime threads|dist`): `--ingest` attaches a
//! live admission gate to the running simulation and feeds it from one of
//! three sources — `listen:ADDR` serves the framed TCP ingest protocol
//! (see the `ingest` crate's `TcpEndpoint`/`IngestClient`), `file:PATH`
//! drives a JSONL script of `IngestRequest` lines through a retrying local
//! client, and `rate:N` synthesizes `N` seeded requests spread over the
//! run's horizon (`--model phold` only; other models carry structured
//! payloads — feed them with `file:`). Events stamped at or below the
//! committed GVT floor are rejected with the floor so clients can re-stamp
//! and retry; bounded queues answer `Busy`/`Shed` under overload.
//! `--ingest-journal PATH` makes admissions crash-durable (JSONL, one
//! record per accepted idempotency id; on loopback `dist` each shard `S`
//! journals to `PATH.sS`), and `--ingest-replay` recovers the journal at
//! startup and re-injects its suffix exactly once. Final admission
//! counters print to stderr; `--verify` checks the committed trace against
//! a sequential oracle fed the merged (seeded + accepted-ingest) stream.
//!
//! Recovery: `--checkpoint-every-gvt N` takes a GVT-aligned consistent cut
//! every `N` GVT rounds (written atomically to `--checkpoint-path` when
//! given; `--runtime dist` keeps its cuts in memory and refuses the path)
//! and runs under a supervisor that restores the newest cut after a worker
//! is lost, remapping its LPs onto the survivors. `--max-recoveries N`
//! (default 3) bounds the retries; on exhaustion the run degrades to the
//! sequential engine from the last cut and still completes.

use ggpdes::prelude::*;
use pdes_core::{Recovered, SupervisedRun};
use std::sync::Arc;

#[derive(Debug)]
struct Args {
    model: String,
    system: String,
    gvt: String,
    affinity: String,
    threads: usize,
    lps: usize,
    imbalance: usize,
    end: f64,
    seed: u64,
    cores: usize,
    smt: usize,
    snapshot_period: u32,
    optimism_window: Option<f64>,
    gvt_interval: u32,
    gvt_max_no_change: u32,
    runtime: String,
    verify: bool,
    json: bool,
    chaos_seed: Option<u64>,
    chaos_plan: Option<String>,
    watchdog_secs: Option<f64>,
    checkpoint_every_gvt: u64,
    checkpoint_path: Option<String>,
    max_recoveries: Option<u32>,
    stats_json: Option<String>,
    shards: usize,
    transport: String,
    hb_interval_ms: Option<f64>,
    hb_miss: Option<u32>,
    kill_shard: Vec<(usize, u64)>,
    partitions: Vec<(usize, usize, u64)>,
    join_at: Option<u64>,
    leave_at: Option<(usize, u64)>,
    degrade: bool,
    shard_id: Option<usize>,
    listen: Option<String>,
    connect: Vec<String>,
    connect_timeout_secs: f64,
    trace_out: Option<String>,
    trace_capacity: Option<usize>,
    round_stream: Option<String>,
    gantt: bool,
    ingest: Option<String>,
    ingest_journal: Option<String>,
    ingest_replay: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            model: "phold".into(),
            system: "gg".into(),
            gvt: "async".into(),
            affinity: "constant".into(),
            threads: 16,
            lps: 16,
            imbalance: 4,
            end: 8.0,
            seed: 0x5EED,
            cores: 8,
            smt: 2,
            snapshot_period: 1,
            optimism_window: None,
            gvt_interval: 25,
            gvt_max_no_change: 0,
            runtime: "vm".into(),
            verify: false,
            json: false,
            chaos_seed: None,
            chaos_plan: None,
            watchdog_secs: None,
            checkpoint_every_gvt: 0,
            checkpoint_path: None,
            max_recoveries: None,
            stats_json: None,
            shards: 2,
            transport: "tcp".into(),
            hb_interval_ms: None,
            hb_miss: None,
            kill_shard: Vec::new(),
            partitions: Vec::new(),
            join_at: None,
            leave_at: None,
            degrade: false,
            shard_id: None,
            listen: None,
            connect: Vec::new(),
            connect_timeout_secs: 10.0,
            trace_out: None,
            trace_capacity: None,
            round_stream: None,
            gantt: false,
            ingest: None,
            ingest_journal: None,
            ingest_replay: false,
        }
    }
}

/// Friendly fatal: usage / validation errors exit 2, runtime failures exit 1.
fn die(code: i32, msg: &str) -> ! {
    eprintln!("ggpdes: {msg}");
    std::process::exit(code);
}

/// Split a `:`-separated flag value into exactly `n` integer fields.
fn colon_fields(flag: &str, val: &str, n: usize) -> Vec<u64> {
    let parts: Vec<u64> = val
        .split(':')
        .map(|p| {
            p.parse()
                .unwrap_or_else(|e| die(2, &format!("{flag} '{val}': {e}")))
        })
        .collect();
    if parts.len() != n {
        die(
            2,
            &format!("{flag} '{val}': want {n} colon-separated fields"),
        );
    }
    parts
}

/// Parse a flag's numeric value; a malformed one is a usage error.
fn num<T: std::str::FromStr>(flag: &str, val: &str) -> T
where
    T::Err: std::fmt::Display,
{
    val.parse()
        .unwrap_or_else(|e| die(2, &format!("{flag} '{val}': {e}")))
}

fn parse_args() -> Args {
    let mut a = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| die(2, &format!("{flag} needs a value")))
                .clone()
        };
        match flag.as_str() {
            "--model" => a.model = val(),
            "--system" => a.system = val(),
            "--gvt" => a.gvt = val(),
            "--affinity" => a.affinity = val(),
            "--threads" => a.threads = num(flag, &val()),
            "--lps-per-thread" => a.lps = num(flag, &val()),
            "--imbalance" => a.imbalance = num(flag, &val()),
            "--end" => a.end = num(flag, &val()),
            "--seed" => a.seed = num(flag, &val()),
            "--cores" => a.cores = num(flag, &val()),
            "--smt" => a.smt = num(flag, &val()),
            "--snapshot-period" => a.snapshot_period = num(flag, &val()),
            "--optimism-window" => a.optimism_window = Some(num(flag, &val())),
            "--gvt-interval" => {
                a.gvt_interval = num(flag, &val());
                if a.gvt_interval == 0 {
                    die(2, "--gvt-interval must be positive");
                }
            }
            "--gvt-max-no-change" => a.gvt_max_no_change = num(flag, &val()),
            "--runtime" => a.runtime = val(),
            "--verify" => a.verify = true,
            "--json" => a.json = true,
            "--chaos-seed" => a.chaos_seed = Some(num(flag, &val())),
            "--chaos-plan" => a.chaos_plan = Some(val()),
            "--watchdog-secs" => a.watchdog_secs = Some(num(flag, &val())),
            "--checkpoint-every-gvt" => a.checkpoint_every_gvt = num(flag, &val()),
            "--checkpoint-path" => a.checkpoint_path = Some(val()),
            "--max-recoveries" => a.max_recoveries = Some(num(flag, &val())),
            "--stats-json" => a.stats_json = Some(val()),
            "--shards" => a.shards = num(flag, &val()),
            "--transport" => a.transport = val(),
            "--hb-interval-ms" => a.hb_interval_ms = Some(num(flag, &val())),
            "--hb-miss" => a.hb_miss = Some(num(flag, &val())),
            "--kill-shard" => {
                let f = colon_fields("--kill-shard", &val(), 2);
                a.kill_shard.push((f[0] as usize, f[1]));
            }
            "--partition" => {
                let f = colon_fields("--partition", &val(), 3);
                a.partitions.push((f[0] as usize, f[1] as usize, f[2]));
            }
            "--join-at" => a.join_at = Some(num(flag, &val())),
            "--leave-at" => {
                let f = colon_fields("--leave-at", &val(), 2);
                a.leave_at = Some((f[0] as usize, f[1]));
            }
            "--degrade" => a.degrade = true,
            "--shard-id" => a.shard_id = Some(num(flag, &val())),
            "--listen" => a.listen = Some(val()),
            "--connect" => a.connect.push(val()),
            "--connect-timeout-secs" => a.connect_timeout_secs = num(flag, &val()),
            "--trace-out" => a.trace_out = Some(val()),
            "--trace-capacity" => a.trace_capacity = Some(num(flag, &val())),
            "--round-stream" => a.round_stream = Some(val()),
            "--gantt" => a.gantt = true,
            "--ingest" => a.ingest = Some(val()),
            "--ingest-journal" => a.ingest_journal = Some(val()),
            "--ingest-replay" => a.ingest_replay = true,
            "--help" | "-h" => {
                println!("see module docs: cargo doc --open -p ggpdes");
                std::process::exit(0);
            }
            other => die(2, &format!("unknown flag {other}")),
        }
    }
    if a.threads == 0 || a.lps == 0 {
        die(2, "--threads and --lps-per-thread must be positive");
    }
    a
}

fn system_of(a: &Args) -> SystemConfig {
    let scheduler = match a.system.as_str() {
        "gg" => Scheduler::GgPdes,
        "dd" => Scheduler::DdPdes,
        "baseline" => Scheduler::Baseline,
        s => die(2, &format!("unknown system '{s}' (gg|dd|baseline)")),
    };
    let gvt = match a.gvt.as_str() {
        "sync" => GvtMode::Sync,
        "async" => GvtMode::Async,
        s => die(2, &format!("unknown gvt mode '{s}' (sync|async)")),
    };
    let affinity = match a.affinity.as_str() {
        "none" => AffinityPolicy::NoAffinity,
        "constant" => AffinityPolicy::Constant,
        "dynamic" => AffinityPolicy::Dynamic,
        s => die(
            2,
            &format!("unknown affinity '{s}' (none|constant|dynamic)"),
        ),
    };
    SystemConfig::new(scheduler, gvt, affinity)
}

fn report(m: &RunMetrics, json: bool) {
    if json {
        println!("{}", serde_json::to_string_pretty(m).expect("serialize"));
        return;
    }
    println!("system                : {}", m.system);
    println!("threads               : {}", m.threads);
    println!("LPs                   : {}", m.lps);
    println!("committed events      : {}", m.committed);
    println!("processed events      : {}", m.processed);
    println!(
        "rolled back           : {} ({:.1}%)",
        m.rolled_back,
        m.rollback_ratio() * 100.0
    );
    println!(
        "committed event rate  : {:.0} events/s",
        m.committed_event_rate()
    );
    println!("GVT rounds            : {}", m.gvt_rounds);
    println!("GVT s/round (Σthreads): {:.6}", m.gvt_secs_per_round());
    println!("max de-scheduled      : {}", m.max_descheduled);
    println!("voluntary yields      : {}", m.voluntary_yields);
    if m.protocol == "conservative" {
        println!("protocol              : {}", m.protocol);
        println!("null messages sent    : {}", m.null_messages_sent);
        println!("LBTS rounds           : {}", m.lbts_rounds);
    }
    println!("wall seconds          : {:.4}", m.wall_secs);
}

/// Telemetry configuration implied by the CLI: any trace-consuming flag
/// switches collection on; otherwise it stays off (and free).
fn telemetry_cfg(a: &Args) -> telemetry::TelemetryConfig {
    if a.trace_out.is_none() && a.round_stream.is_none() && !a.gantt {
        return telemetry::TelemetryConfig::default();
    }
    match a.trace_capacity {
        Some(0) => die(2, "--trace-capacity must be positive"),
        Some(cap) => telemetry::TelemetryConfig::with_capacity(cap),
        None => telemetry::TelemetryConfig::on(),
    }
}

/// Write the trace artifacts the CLI asked for from the run's collected
/// telemetry (absent on runs that never produce one, e.g. worker shards).
fn emit_telemetry(a: &Args, data: &Option<telemetry::TelemetryData>, threads: usize) {
    if a.trace_out.is_none() && a.round_stream.is_none() && !a.gantt {
        return;
    }
    let Some(data) = data else {
        eprintln!("telemetry: no trace collected (run produced no telemetry)");
        return;
    };
    if data.total_dropped() > 0 {
        eprintln!(
            "telemetry: ring overflow dropped {} oldest record(s); raise --trace-capacity \
             for a longer window",
            data.total_dropped()
        );
    }
    if let Some(path) = &a.trace_out {
        let json = telemetry::chrome_trace_json(data);
        if let Err(e) = std::fs::write(path, json) {
            die(1, &format!("--trace-out {path}: {e}"));
        }
        eprintln!("telemetry: wrote Chrome trace to {path} (load at ui.perfetto.dev)");
    }
    if let Some(path) = &a.round_stream {
        let jsonl = telemetry::round_stream_jsonl(&data.rounds);
        if let Err(e) = std::fs::write(path, jsonl) {
            die(1, &format!("--round-stream {path}: {e}"));
        }
        eprintln!(
            "telemetry: wrote {} GVT round snapshot(s) to {path}",
            data.rounds.len()
        );
    }
    if a.gantt {
        let transitions = metrics::transitions_from_trace(data, threads);
        let horizon = metrics::trace_horizon(data);
        print!(
            "{}",
            metrics::render_gantt(&transitions, threads, horizon, 72)
        );
    }
}

/// Resolve the fault plan from `--chaos-plan` (full JSON) or `--chaos-seed`
/// (the default chaos mix); empty plan otherwise.
fn fault_plan(a: &Args) -> FaultPlan {
    if let Some(path) = &a.chaos_plan {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(2, &format!("--chaos-plan {path}: {e}")));
        return serde_json::from_str(&text)
            .unwrap_or_else(|e| die(2, &format!("--chaos-plan {path}: bad FaultPlan JSON: {e}")));
    }
    if let Some(seed) = a.chaos_seed {
        return FaultPlan::chaos(seed);
    }
    FaultPlan::default()
}

/// What feeds the ingest gate, parsed from `--ingest`.
enum IngestSource {
    Listen(String),
    File(String),
    Rate(usize),
}

fn ingest_source(a: &Args) -> Option<IngestSource> {
    let spec = a.ingest.as_ref()?;
    Some(match spec.split_once(':') {
        Some(("listen", addr)) if !addr.is_empty() => IngestSource::Listen(addr.into()),
        Some(("file", path)) if !path.is_empty() => IngestSource::File(path.into()),
        Some(("rate", n)) => IngestSource::Rate(
            n.parse()
                .unwrap_or_else(|e| die(2, &format!("--ingest rate '{n}': {e}"))),
        ),
        _ => die(
            2,
            &format!("--ingest '{spec}': want listen:ADDR | file:PATH | rate:N"),
        ),
    })
}

/// Whether any ingest flag is active (a gate must be built and reported).
fn ingest_active(a: &Args) -> bool {
    a.ingest.is_some() || a.ingest_journal.is_some() || a.ingest_replay
}

/// Build one shard's gate: fresh, journaling, or recovered-with-replay.
/// `journal` already carries any per-shard suffix.
fn build_gate<M: Model>(
    a: &Args,
    shard: u64,
    journal: Option<&str>,
) -> Arc<pdes_core::IngestGate<M::Payload>> {
    use pdes_core::{IngestConfig, IngestGate};
    let cfg = IngestConfig::default();
    let gate = match journal {
        Some(path) if a.ingest_replay => {
            let (gate, replay) = IngestGate::recover(
                cfg,
                shard,
                std::path::Path::new(path),
                pdes_core::VirtualTime::ZERO,
            )
            .unwrap_or_else(|e| die(1, &format!("--ingest-replay: {e}")));
            if gate.accepted_count() > 0 {
                eprintln!(
                    "ingest: recovered {} accepted event(s) from {path}; {} staged for replay",
                    gate.accepted_count(),
                    replay.len()
                );
            }
            gate.stage_replay(replay);
            gate
        }
        Some(path) => IngestGate::with_journal(cfg, shard, std::path::Path::new(path))
            .unwrap_or_else(|e| die(1, &format!("--ingest-journal: {e}"))),
        None => IngestGate::new(cfg, shard),
    };
    Arc::new(gate)
}

/// The client-facing feeder attached to the entry gate, torn down by
/// [`finish_ingest`] after the run.
struct IngestPlane {
    server: Option<ingest::IngestServer>,
    feeder: Option<std::thread::JoinHandle<ingest::DriveReport>>,
}

/// Start the `--ingest` source against `gate`: a TCP server, a scripted
/// file driven through a retrying client, or seeded synthesis.
fn start_feeder<M: Model>(
    a: &Args,
    gate: &Arc<pdes_core::IngestGate<M::Payload>>,
    num_lps: u32,
    synth: Option<fn(u64) -> M::Payload>,
) -> IngestPlane {
    let mut plane = IngestPlane {
        server: None,
        feeder: None,
    };
    let Some(src) = ingest_source(a) else {
        return plane;
    };
    match src {
        IngestSource::Listen(addr) => {
            let server = ingest::IngestServer::spawn(Arc::clone(gate), &addr)
                .unwrap_or_else(|e| die(1, &format!("--ingest listen:{addr}: {e}")));
            eprintln!("ingest: serving external events on {}", server.addr());
            plane.server = Some(server);
        }
        IngestSource::File(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(2, &format!("--ingest file:{path}: {e}")));
            let script = ingest::parse_script::<M::Payload>(&text)
                .unwrap_or_else(|e| die(2, &format!("--ingest file:{path}: {e}")));
            eprintln!(
                "ingest: driving {} scripted request(s) from {path}",
                script.len()
            );
            plane.feeder = Some(spawn_driver(Arc::clone(gate), a.seed, script));
        }
        IngestSource::Rate(n) => {
            let Some(payload) = synth else {
                die(
                    2,
                    "--ingest rate:N synthesis is defined for --model phold; feed \
                     other models with file:PATH (JSON payloads)",
                )
            };
            let lo = pdes_core::VirtualTime::from_f64(a.end * 0.05)
                .ticks()
                .max(1);
            let hi = pdes_core::VirtualTime::from_f64(a.end * 0.85)
                .ticks()
                .max(lo + 1);
            let script = ingest::synth_requests(a.seed, 9, n, num_lps, lo, hi, payload);
            eprintln!("ingest: driving {n} synthesized request(s)");
            plane.feeder = Some(spawn_driver(Arc::clone(gate), a.seed, script));
        }
    }
    plane
}

/// A local retrying client on its own thread: re-stamps on `Rejected`,
/// backs off on `Busy`/`Shed`, gives up only after a generous budget.
fn spawn_driver<P: Clone + Send + 'static>(
    gate: Arc<pdes_core::IngestGate<P>>,
    seed: u64,
    script: Vec<pdes_core::IngestRequest<P>>,
) -> std::thread::JoinHandle<ingest::DriveReport> {
    std::thread::spawn(move || {
        let mut client = ingest::IngestClient::with_policy(
            ingest::local_endpoint(gate, std::time::Duration::from_secs(30)),
            seed,
            ingest::RetryPolicy {
                max_attempts: 64,
                ..ingest::RetryPolicy::default()
            },
        );
        ingest::drive(&mut client, script)
    })
}

/// Close the gates, land the feeder, and report admission counters.
fn finish_ingest<P>(plane: IngestPlane, gates: &[Arc<pdes_core::IngestGate<P>>]) {
    for g in gates {
        g.close();
    }
    if let Some(h) = plane.feeder {
        match h.join() {
            Ok(r) => eprintln!(
                "ingest: feeder: {} landed ({} duplicate), {} gave up, {} after close, \
                 {} transport-failed; {} attempt(s), {} re-stamp(s)",
                r.landed(),
                r.duplicate,
                r.gave_up,
                r.closed,
                r.transport_failed,
                r.attempts,
                r.restamped
            ),
            Err(_) => eprintln!("ingest: feeder thread panicked"),
        }
    }
    if let Some(s) = plane.server {
        s.shutdown();
    }
    let mut t = pdes_core::IngestStats::default();
    for g in gates {
        let s = g.stats();
        t.submitted += s.submitted;
        t.admitted += s.admitted;
        t.rejected += s.rejected;
        t.busy += s.busy;
        t.shed += s.shed;
        t.duplicate += s.duplicate;
        t.replayed += s.replayed;
    }
    eprintln!(
        "ingest: {} submitted, {} admitted, {} rejected, {} busy, {} shed, \
         {} duplicate, {} replayed",
        t.submitted, t.admitted, t.rejected, t.busy, t.shed, t.duplicate, t.replayed
    );
}

/// Print a supervised run's recovery log to stderr and hand back how it
/// finished.
fn report_supervised<R>(s: SupervisedRun<R>) -> Recovered<R> {
    for line in &s.log {
        eprintln!("supervisor: {line}");
    }
    if s.recoveries > 0 {
        eprintln!("supervisor: completed after {} recovery(ies)", s.recoveries);
    }
    s.outcome
}

/// Report a run that degraded to the sequential engine (no `RunMetrics` —
/// the parallel attempt was abandoned), verify it if asked, and exit 0.
fn finish_degraded<M: Model>(
    seq: &SequentialResult,
    model: &Arc<M>,
    ecfg: &EngineConfig,
    a: &Args,
    extra: &[pdes_core::Event<M::Payload>],
) -> ! {
    if a.verify {
        let oracle = if extra.is_empty() {
            run_sequential(model, ecfg, None)
        } else {
            pdes_core::run_sequential_with(model, ecfg, extra, None)
        };
        assert_eq!(
            seq.commit_digest, oracle.commit_digest,
            "degraded run diverged from the sequential oracle!"
        );
        eprintln!("verify: committed trace matches the sequential oracle ✓");
    }
    if a.json {
        println!(
            "{{\"degraded\":true,\"committed\":{},\"commit_digest\":{}}}",
            seq.committed, seq.commit_digest
        );
    } else {
        println!("degraded to sequential     : yes");
        println!("committed events           : {}", seq.committed);
        println!("commit digest              : {:#018x}", seq.commit_digest);
    }
    std::process::exit(0);
}

/// The distributed runtime: loopback cluster by default, or one shard of a
/// real multi-process mesh when `--shard-id`/`--listen`/`--connect` are
/// given. Returns the coordinator's metrics plus merged telemetry; worker
/// shards exit 0 here.
fn run_dist<M: Model>(
    model: &Arc<M>,
    ecfg: &EngineConfig,
    a: &Args,
    synth: Option<fn(u64) -> M::Payload>,
    ingest_accepted: &mut Vec<pdes_core::Event<M::Payload>>,
) -> (RunMetrics, Option<telemetry::TelemetryData>) {
    use ggpdes::dist_rt::{self, DistError};
    use std::net::ToSocketAddrs;
    use std::time::Duration;

    if a.shards == 0 {
        die(2, "--shards must be at least 1");
    }
    // Two flags the other runtimes honour mean nothing here; dropping them
    // silently would let a run pass for fault-injected or checkpointed-to-
    // disk when it was neither.
    if a.chaos_plan.is_some() {
        die(
            2,
            "--chaos-plan is a thread-level FaultPlan; on --runtime dist use --chaos-seed (link faults)",
        );
    }
    if a.checkpoint_path.is_some() {
        die(
            2,
            "--checkpoint-path needs --runtime vm|threads|cons (dist keeps its cuts in memory)",
        );
    }
    let transport = match a.transport.as_str() {
        // "loopback" is an alias for the in-process memory transport.
        "mem" | "loopback" => dist_rt::Transport::Mem,
        "tcp" => dist_rt::Transport::Tcp,
        other => die(
            2,
            &format!("unknown transport '{other}' (mem|loopback|tcp)"),
        ),
    };
    let watchdog = match a.watchdog_secs {
        Some(s) if s <= 0.0 => None,
        Some(s) => Some(Duration::from_secs_f64(s)),
        None => Some(Duration::from_secs(30)),
    };
    if a.connect_timeout_secs.is_nan() || a.connect_timeout_secs <= 0.0 {
        die(2, "--connect-timeout-secs must be positive");
    }
    // Either heartbeat knob switches the failure detector on; the other
    // keeps its default.
    let heartbeat = (a.hb_interval_ms.is_some() || a.hb_miss.is_some()).then(|| {
        let mut hb = dist_rt::HeartbeatConfig::default();
        if let Some(ms) = a.hb_interval_ms {
            if ms <= 0.0 || ms.is_nan() {
                die(2, "--hb-interval-ms must be positive");
            }
            hb.interval = Duration::from_secs_f64(ms / 1e3);
        }
        if let Some(miss) = a.hb_miss {
            if miss == 0 {
                die(2, "--hb-miss must be at least 1");
            }
            hb.miss_threshold = miss;
        }
        hb
    });
    for &(from, to, _) in &a.partitions {
        if from >= a.shards || to >= a.shards || from == to {
            die(2, &format!("--partition {from}:{to}: bad shard pair"));
        }
    }
    for &(s, _) in &a.kill_shard {
        if s == 0 || s >= a.shards {
            die(
                2,
                &format!("--kill-shard {s}: not a worker shard (1..{})", a.shards),
            );
        }
    }
    if let Some((s, _)) = a.leave_at {
        if s == 0 || s >= a.shards {
            die(
                2,
                &format!("--leave-at {s}: not a worker shard (1..{})", a.shards),
            );
        }
    }
    let dcfg = dist_rt::DistConfig {
        shards: a.shards,
        transport,
        link_faults: a.chaos_seed.map(pdes_core::LinkFaultPlan::chaos),
        kills: a.kill_shard.clone(),
        heartbeat,
        partitions: a.partitions.clone(),
        join_at: a.join_at,
        leave_at: a.leave_at,
        max_recoveries: a.max_recoveries.unwrap_or(0),
        degrade: a.degrade,
        ckpt_every_rounds: a.checkpoint_every_gvt,
        watchdog,
        mesh_timeout: Duration::from_secs_f64(a.connect_timeout_secs),
        telemetry: telemetry_cfg(a),
        ..dist_rt::DistConfig::default()
    };

    let shards_initial = a.shards;
    let finish = move |r: dist_rt::DistResult| -> (RunMetrics, Option<telemetry::TelemetryData>) {
        if r.recoveries > 0 {
            eprintln!(
                "dist: completed after {} recovery(ies){} ({} partial)",
                r.recoveries,
                if r.used_checkpoint {
                    " from a checkpoint cut"
                } else {
                    " by replaying from the start"
                },
                r.partial_recoveries
            );
        }
        if r.membership_epoch > 0 {
            eprintln!(
                "dist: membership epoch {} — cluster reshaped {} -> {} shard(s)",
                r.membership_epoch, shards_initial, r.shards_final
            );
        }
        (r.metrics, r.telemetry)
    };
    let fail = |what: &str, e: DistError| -> ! {
        match e {
            DistError::ConnectTimeout { shard, detail } => die(
                1,
                &format!("{what}: shard {shard} mesh handshake timed out ({detail})"),
            ),
            e => die(1, &format!("{what}: {e}")),
        }
    };

    let multi_process = a.shard_id.is_some() || a.listen.is_some() || !a.connect.is_empty();
    let elastic = !a.kill_shard.is_empty()
        || !a.partitions.is_empty()
        || a.join_at.is_some()
        || a.leave_at.is_some()
        || a.degrade
        || dcfg.heartbeat.is_some();
    if multi_process && elastic {
        die(
            2,
            "elastic-membership flags (--kill-shard/--partition/--join-at/--leave-at/\
             --degrade/--hb-*) need the loopback supervisor; drop --shard-id/--listen/--connect",
        );
    }
    if !multi_process {
        // Loopback: the whole cluster in this process, one thread per shard.
        // With ingest active, every shard gets a gate (shard `s` journals to
        // `PATH.s{s}`); the feeder enters at shard 0 and the mesh forwards
        // each submission to the shard owning its destination LP.
        let gates = ingest_active(a).then(|| -> dist_rt::IngestGates<M> {
            (0..a.shards)
                .map(|s| {
                    let journal = a.ingest_journal.as_ref().map(|p| format!("{p}.s{s}"));
                    build_gate::<M>(a, s as u64, journal.as_deref())
                })
                .collect()
        });
        let plane = gates
            .as_ref()
            .map(|gs| start_feeder::<M>(a, &gs[0], model.num_lps() as u32, synth));
        let res = match &gates {
            Some(gs) => {
                dist_rt::run_loopback_ingest(Arc::clone(model), ecfg, &dcfg, Some(gs.clone()))
            }
            None => dist_rt::run_loopback(Arc::clone(model), ecfg, &dcfg),
        };
        if let (Some(p), Some(gs)) = (plane, &gates) {
            finish_ingest(p, gs);
            let mut evs: Vec<_> = gs.iter().flat_map(|g| g.accepted_events()).collect();
            evs.sort_by_key(|e| e.key);
            *ingest_accepted = evs;
        }
        return match res {
            Ok(r) => finish(r),
            Err(e) => fail("dist loopback", e),
        };
    }

    let shard = a.shard_id.unwrap_or_else(|| {
        die(
            2,
            "--listen/--connect need --shard-id (which shard is this process?)",
        )
    });
    if shard >= a.shards {
        die(
            2,
            &format!("--shard-id {shard} out of range for --shards {}", a.shards),
        );
    }
    let listen = a
        .listen
        .clone()
        .unwrap_or_else(|| die(2, &format!("shard {shard} needs --listen ADDR")));
    if listen
        .to_socket_addrs()
        .map(|mut i| i.next())
        .ok()
        .flatten()
        .is_none()
    {
        die(
            2,
            &format!("--listen '{listen}' is not a valid endpoint (want HOST:PORT)"),
        );
    }
    if a.connect.len() != shard {
        die(
            2,
            &format!(
                "shard {shard} needs exactly {shard} --connect address(es) — the \
                 listen addresses of shards 0..{shard}, in order — got {}",
                a.connect.len()
            ),
        );
    }
    for addr in &a.connect {
        if addr
            .to_socket_addrs()
            .map(|mut i| i.next())
            .ok()
            .flatten()
            .is_none()
        {
            die(
                2,
                &format!("--connect '{addr}' is not a valid endpoint (want HOST:PORT)"),
            );
        }
    }
    let opts = dist_rt::ProcessOpts {
        shards: a.shards,
        shard,
        listen,
        connect: a.connect.clone(),
        dcfg,
    };
    // Multi-process: this shard's own gate and feeder — each shard process
    // may run its own `--ingest listen:` front door.
    let gate =
        ingest_active(a).then(|| build_gate::<M>(a, shard as u64, a.ingest_journal.as_deref()));
    let plane = gate
        .as_ref()
        .map(|g| start_feeder::<M>(a, g, model.num_lps() as u32, synth));
    if gate.is_some() && a.verify {
        eprintln!(
            "warning: --verify on a multi-process shard sees only this shard's \
             admissions; events ingested at peers will fail the oracle check"
        );
    }
    let res = dist_rt::run_shard_process(Arc::clone(model), ecfg, &opts, gate.clone());
    if let (Some(p), Some(g)) = (plane, &gate) {
        finish_ingest(p, std::slice::from_ref(g));
        *ingest_accepted = g.accepted_events();
    }
    match res {
        Ok(Some(r)) => finish(r),
        Ok(None) => std::process::exit(0), // worker shard: coordinator reports
        Err(e) => fail(&format!("dist shard {shard}"), e),
    }
}

/// `--runtime threads|cons`: one real-thread run under protocol `P`, under
/// the supervisor when checkpointing or a retry budget was asked for.
fn run_on_threads<M: Model, P: thread_rt::Protocol<M>>(
    model: &Arc<M>,
    a: &Args,
    rc: &thread_rt::RtRunConfig,
    supervisor: Option<&pdes_core::SupervisorConfig>,
    synth: Option<fn(u64) -> M::Payload>,
    ingest_accepted: &mut Vec<pdes_core::Event<M::Payload>>,
) -> (RunMetrics, Option<telemetry::TelemetryData>) {
    let gate = ingest_active(a).then(|| build_gate::<M>(a, 0, a.ingest_journal.as_deref()));
    let plane = gate
        .as_ref()
        .map(|g| start_feeder::<M>(a, g, model.num_lps() as u32, synth));
    // Land the feeder and report admission counters before any exit path
    // (the degraded branch never returns).
    let land_ingest = |accepted: &mut Vec<pdes_core::Event<M::Payload>>| {
        if let (Some(p), Some(g)) = (plane, &gate) {
            finish_ingest(p, std::slice::from_ref(g));
            *accepted = g.accepted_events();
        }
    };
    match supervisor {
        Some(sup) => {
            let outcome = report_supervised(thread_rt::run_supervised::<M, P>(
                model,
                rc,
                sup,
                gate.clone(),
            ));
            land_ingest(ingest_accepted);
            match outcome {
                Recovered::Parallel(r) => (r.metrics, r.telemetry),
                Recovered::Sequential(seq) => {
                    finish_degraded(&seq, model, &rc.engine, a, ingest_accepted)
                }
            }
        }
        None => {
            let res =
                thread_rt::run_threads_attempt::<M, P>(model, rc, None, None, gate.clone()).outcome;
            land_ingest(ingest_accepted);
            match res {
                Ok(r) => (r.metrics, r.telemetry),
                Err(err) => {
                    eprintln!("{err}");
                    std::process::exit(1);
                }
            }
        }
    }
}

fn run<M: Model>(model: Arc<M>, a: &Args, synth: Option<fn(u64) -> M::Payload>) {
    if ingest_active(a) {
        if a.ingest_replay && a.ingest_journal.is_none() {
            die(2, "--ingest-replay needs --ingest-journal PATH");
        }
        if a.runtime == "vm" {
            die(
                2,
                "--ingest needs --runtime threads|dist (the vm is scripted; \
                 see sim_rt::run_sim_attempt)",
            );
        }
    }
    let ecfg = EngineConfig::default()
        .with_end_time(a.end)
        .with_seed(a.seed)
        .with_gvt_interval(a.gvt_interval)
        .with_gvt_max_no_change(a.gvt_max_no_change)
        .with_zero_counter_threshold(250)
        .with_snapshot_period(a.snapshot_period)
        .with_optimism_window(a.optimism_window);
    let sys = system_of(a);
    // Checkpointing or an explicit retry budget opts the run into the
    // supervisor (which also needs checkpoints to recover from, so a bare
    // --max-recoveries enables a per-round cut).
    let supervised = a.checkpoint_every_gvt > 0 || a.max_recoveries.is_some();
    let ckpt_every = if supervised {
        a.checkpoint_every_gvt.max(1)
    } else {
        0
    };
    let sup = pdes_core::SupervisorConfig::new(a.max_recoveries.unwrap_or(3));
    let tcfg = telemetry_cfg(a);
    // `threads` and `cons` share the real-thread run configuration.
    let thread_rc = || {
        let watchdog = match a.watchdog_secs {
            Some(s) if s <= 0.0 => None,
            Some(s) => Some(std::time::Duration::from_secs_f64(s)),
            None => Some(std::time::Duration::from_secs(30)),
        };
        let rc = thread_rt::RtRunConfig::new(a.threads, ecfg.clone(), sys)
            .with_faults(fault_plan(a))
            .with_watchdog(watchdog)
            .with_checkpoint_every(ckpt_every)
            .with_telemetry(tcfg.clone());
        match &a.checkpoint_path {
            Some(p) => rc.with_checkpoint_path(p.into()),
            None => rc,
        }
    };
    // Events admitted by the ingest plane, if one was attached: the verify
    // oracle must be fed the merged (seeded + accepted-ingest) stream.
    let mut ingest_accepted: Vec<pdes_core::Event<M::Payload>> = Vec::new();

    let (metrics, tel) = match a.runtime.as_str() {
        "vm" => {
            let mut mc = if a.smt == 4 {
                MachineConfig {
                    num_cores: a.cores,
                    ..Default::default()
                }
            } else {
                MachineConfig::small(a.cores, a.smt)
            };
            mc.quantum = 50_000;
            let watchdog_ns = match a.watchdog_secs {
                Some(s) if s <= 0.0 => None,
                Some(s) => Some((s * 1e9) as u64),
                None => Some(10_000_000_000),
            };
            let mut rc = sim_rt::RunConfig::new(a.threads, ecfg.clone(), sys)
                .with_machine(mc)
                .with_faults(fault_plan(a))
                .with_watchdog_ns(watchdog_ns)
                .with_checkpoint_every(ckpt_every)
                .with_telemetry(tcfg.clone());
            if let Some(p) = &a.checkpoint_path {
                rc = rc.with_checkpoint_path(p.into());
            }
            if supervised {
                match report_supervised(sim_rt::run_sim_supervised(&model, &rc, &sup)) {
                    Recovered::Parallel(r) => (r.metrics, r.telemetry),
                    Recovered::Sequential(seq) => finish_degraded(&seq, &model, &ecfg, a, &[]),
                }
            } else {
                let r = sim_rt::run_sim(&model, &rc);
                if let Some(dump) = &r.stall {
                    eprintln!("{dump}");
                    std::process::exit(1);
                }
                if !r.completed {
                    eprintln!("warning: virtual time limit hit before completion");
                }
                (r.metrics, r.telemetry)
            }
        }
        "threads" => run_on_threads::<M, thread_rt::Optimistic>(
            &model,
            a,
            &thread_rc(),
            supervised.then_some(&sup),
            synth,
            &mut ingest_accepted,
        ),
        "dist" => run_dist(&model, &ecfg, a, synth, &mut ingest_accepted),
        "cons" => {
            // The conservative protocol never rolls back, so two optimistic
            // planes are unsound on it: chaos plans hold messages back (an
            // unrecoverable causality break without rollback) and ingest
            // admits events against a GVT floor the conservative bound has
            // already passed.
            if a.chaos_seed.is_some() || a.chaos_plan.is_some() {
                die(
                    2,
                    "--chaos-* needs an optimistic runtime (cons cannot roll back)",
                );
            }
            if ingest_active(a) {
                die(
                    2,
                    "--ingest needs --runtime threads|dist (cons has no admission floor)",
                );
            }
            let rc = thread_rc();
            // Zero lookahead and `--system dd` are refused before anything
            // spawns.
            if let Err(e) = cons_rt::Conservative::admit(model.as_ref(), &rc) {
                die(2, &e.to_string());
            }
            run_on_threads::<M, cons_rt::Conservative>(
                &model,
                a,
                &rc,
                supervised.then_some(&sup),
                None,
                &mut ingest_accepted,
            )
        }
        other => die(
            2,
            &format!("unknown runtime '{other}' (vm|threads|dist|cons)"),
        ),
    };

    if a.verify {
        let (oracle, what) = if ingest_accepted.is_empty() {
            (run_sequential(&model, &ecfg, None), "sequential")
        } else {
            (
                pdes_core::run_sequential_with(&model, &ecfg, &ingest_accepted, None),
                "merged-stream sequential",
            )
        };
        assert_eq!(
            metrics.commit_digest, oracle.commit_digest,
            "run diverged from the {what} oracle!"
        );
        eprintln!("verify: committed trace matches the {what} oracle ✓");
    }
    report(&metrics, a.json);
    emit_telemetry(a, &tel, metrics.threads);
    if let Some(path) = &a.stats_json {
        let text = serde_json::to_string_pretty(&metrics).expect("serialize metrics");
        if let Err(e) = std::fs::write(path, text) {
            die(1, &format!("--stats-json {path}: {e}"));
        }
    }
}

/// `k` activity groups (a `1-k` imbalanced schedule) need the threads to
/// split evenly among them.
fn activity_groups(a: &Args, k: usize) -> usize {
    if !a.threads.is_multiple_of(k) {
        die(
            2,
            &format!(
                "--threads {} must divide into {k} activity groups (see --imbalance)",
                a.threads
            ),
        );
    }
    k
}

fn main() {
    let a = parse_args();
    match a.model.as_str() {
        "phold" => {
            let cfg = if a.imbalance <= 1 {
                PholdConfig::balanced(a.threads, a.lps)
            } else {
                PholdConfig::imbalanced(
                    a.threads,
                    a.lps,
                    activity_groups(&a, a.imbalance),
                    a.end,
                    LocalityPattern::Linear,
                )
            };
            // PHOLD's unit payload is synthesizable, so `--ingest rate:N`
            // works without a script.
            run(Arc::new(Phold::new(cfg)), &a, Some(|_| ()));
        }
        "epidemics" => {
            let groups = activity_groups(&a, a.imbalance.max(2));
            let cfg = EpidemicsConfig::new(a.threads, a.lps, groups, a.end);
            run(Arc::new(Epidemics::new(cfg)), &a, None);
        }
        "traffic" => {
            let mut cfg = TrafficConfig::new(a.threads, a.lps, 0.5);
            cfg.mapping = MapKind::Block;
            run(Arc::new(Traffic::new(cfg)), &a, None);
        }
        other => die(
            2,
            &format!("unknown model '{other}' (phold|epidemics|traffic)"),
        ),
    }
}
