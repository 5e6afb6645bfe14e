//! `ggpdes` — command-line driver: run any model under any system
//! configuration on the virtual machine (deterministic), on real threads
//! (optimistic or conservative) or as a multi-shard cluster.
//!
//! `ggpdes --help` prints every flag with its value, its default and who
//! reads it, generated from [`FLAGS`] — the one place a flag is declared. A
//! flag is accepted iff the chosen runtime, model and (on `dist`) loopback
//! or multi-process half read it (anything else exits 2 rather than being
//! dropped); a value outside its row's range exits 2; a configuration the
//! owning crate refuses (`DistConfig::check`, `ProcessOpts::check`,
//! `Conservative::admit`) exits 2. What follows is what a one-line help
//! cannot hold: the reasons.
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
//! (repeatable) so the supervisor can exercise partial recovery — silently
//! when the detector is on, which must then find the death itself;
//! `--partition FROM:TO:ROUNDS` silences one link direction for roughly
//! `ROUNDS` GVT rounds and lets retransmission heal it (repeatable);
//! `--join-at N` admits a new shard at the first checkpoint cut after the
//! `N`th publish; `--leave-at S:N` drains shard `S` out at a cut; and
//! `--degrade` shrinks the cluster around a dead shard instead of failing
//! once `--max-recoveries` is exhausted. All three land on checkpoint cuts,
//! so each needs `--checkpoint-every-gvt`.
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
//! GVT cadence: `--gvt-interval N` sets the round interval in main-loop
//! cycles (default 25) on every runtime; on `--runtime dist` the loop is the
//! coordinator's shard loop.
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
//! journals to `PATH.sS`); a journal that already holds records is resumed:
//! its events are re-injected exactly once at startup and retries of its
//! ids answer `Duplicate`. Final admission
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

use ggpdes::dist_rt::{self, DistError};
use ggpdes::prelude::*;
use pdes_core::{IngestGate, Recovered, SupervisedRun, SupervisorConfig};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;
use telemetry::TelemetryData;

/// A set of runtimes, one bit each.
type Runtimes = u8;
const VM: Runtimes = 1;
const THREADS: Runtimes = 2;
const CONS: Runtimes = 4;
const DIST: Runtimes = 8;
const ALL: Runtimes = VM | THREADS | CONS | DIST;
const RUNTIMES: [(&str, Runtimes); 4] = [
    ("vm", VM),
    ("threads", THREADS),
    ("cons", CONS),
    ("dist", DIST),
];

/// A set of models, one bit each.
type Models = u8;
const PHOLD: Models = 1;
const EPIDEMICS: Models = 2;
const TRAFFIC: Models = 4;
const MODELS: [(&str, Models); 3] = [
    ("phold", PHOLD),
    ("epidemics", EPIDEMICS),
    ("traffic", TRAFFIC),
];

/// The two ways `--runtime dist` runs, one bit each: the whole cluster in
/// this process, or one shard of a multi-process mesh (any of `--shard-id`,
/// `--listen`, `--connect` given).
type DistModes = u8;
const LOOPBACK: DistModes = 1;
const MESH: DistModes = 2;
const DIST_MODES: [(&str, DistModes); 2] = [("loopback", LOOPBACK), ("mesh", MESH)];

/// `vm|threads` for `VM | THREADS` of `RUNTIMES`.
fn names(of: &[(&str, u8)], set: u8) -> String {
    let on = of.iter().filter(|r| r.1 & set != 0);
    on.map(|r| r.0).collect::<Vec<_>>().join("|")
}

/// One row of [`FLAGS`]: everything the CLI knows about a flag.
struct Flag {
    name: &'static str,
    /// Value placeholder for `--help`; empty for a switch.
    val: &'static str,
    /// The value an absent flag has, as the user would type it; empty when
    /// absent means unset / off (the help line says what that does).
    default: &'static str,
    /// The runtimes that read the flag; any other refuses it.
    on: Runtimes,
    /// The models that read it, and the ways of running `dist` that do.
    models: Models,
    dist: DistModes,
    help: &'static str,
    /// Parse the value, hold it to its range, store it where it is read.
    set: fn(&mut Cli, &str) -> Result<(), String>,
}

const fn flag(
    name: &'static str,
    val: &'static str,
    default: &'static str,
    on: Runtimes,
    help: &'static str,
    set: fn(&mut Cli, &str) -> Result<(), String>,
) -> Flag {
    Flag {
        name,
        val,
        default,
        on,
        models: PHOLD | EPIDEMICS | TRAFFIC,
        dist: LOOPBACK | MESH,
        help,
        set,
    }
}

impl Flag {
    /// `dist loopback`: who reads the flag, for `--help` and the refusal. A
    /// set the row does not narrow is not spelled out.
    fn readers(&self) -> String {
        let mut s = names(&RUNTIMES, self.on);
        if self.dist != LOOPBACK | MESH {
            s += &format!(" {}", names(&DIST_MODES, self.dist));
        }
        if self.models != PHOLD | EPIDEMICS | TRAFFIC {
            s += &format!(", --model {}", names(&MODELS, self.models));
        }
        s
    }

    /// Narrow the row to the models that read the flag.
    const fn models(mut self, models: Models) -> Flag {
        self.models = models;
        self
    }

    /// Narrow the row to the way of running `dist` that reads the flag.
    const fn dist(mut self, dist: DistModes) -> Flag {
        self.dist = dist;
        self
    }
}

/// What feeds the ingest gate (`--ingest`).
enum IngestSource {
    Listen(String),
    File(String),
    Rate(usize),
}

/// What the flags said. A flag that means one field of a library config
/// writes straight into that config; [`Args`] is the rest.
struct Cli {
    ecfg: EngineConfig,
    sys: SystemConfig,
    machine: MachineConfig,
    /// `--runtime dist`: `proc.dcfg` describes the cluster; `shard`,
    /// `listen` and `connect` matter to a multi-process run only.
    proc: dist_rt::ProcessOpts,
    tel: telemetry::TelemetryConfig,
    a: Args,
    /// The rows given on the command line, in order.
    given: Vec<&'static Flag>,
}

/// Flags the CLI itself acts on, or that mean different things to
/// different runtimes.
#[derive(Default)]
struct Args {
    model: Models,
    threads: usize,
    lps: usize,
    imbalance: usize,
    /// `--end` as typed: the models build their activity schedules from it.
    end: f64,
    runtime: Runtimes,
    verify: bool,
    json: bool,
    stats_json: Option<String>,
    chaos_seed: Option<u64>,
    chaos_plan: Option<String>,
    /// `Some(ZERO)` switches the watchdog off; `None` keeps the runtime's
    /// own bound.
    watchdog: Option<Duration>,
    checkpoint_every_gvt: u64,
    checkpoint_path: Option<String>,
    max_recoveries: Option<u32>,
    trace_out: Option<String>,
    round_stream: Option<String>,
    gantt: bool,
    ingest: Option<IngestSource>,
    ingest_journal: Option<String>,
}

// Value parsers: each `Err` is the `<why>` of `ggpdes: <flag> '<value>': <why>`.

fn num<T: std::str::FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

/// A number above zero (NaN is not).
fn positive<T: std::str::FromStr + PartialOrd + Default>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let n: T = num(v)?;
    (n > T::default())
        .then_some(n)
        .ok_or("must be positive".into())
}

/// `v / per_sec` seconds; negative, NaN and unrepresentable are refused.
fn duration(v: &str, per_sec: f64) -> Result<Duration, String> {
    let bad = |_| "must be non-negative and finite".to_string();
    Duration::try_from_secs_f64(num::<f64>(v)? / per_sec).map_err(bad)
}

/// The value `v` names in `of`, or "want one of a|b|c".
fn choose<T: Copy>(v: &str, of: &[(&str, T)]) -> Result<T, String> {
    let names = || of.iter().map(|o| o.0).collect::<Vec<_>>().join("|");
    let hit = of.iter().find(|o| o.0 == v);
    hit.map(|o| o.1)
        .ok_or_else(|| format!("want one of {}", names()))
}

/// Exactly `N` colon-separated integers (`S:AT`, `FROM:TO:ROUNDS`).
fn colon_fields<const N: usize>(v: &str) -> Result<[u64; N], String> {
    let parts = v.split(':').map(num).collect::<Result<Vec<u64>, _>>()?;
    parts
        .try_into()
        .map_err(|_| format!("want {N} colon-separated fields"))
}

fn ingest_source(v: &str) -> Result<IngestSource, String> {
    match v.split_once(':') {
        Some(("listen", addr)) if !addr.is_empty() => Ok(IngestSource::Listen(addr.into())),
        Some(("file", path)) if !path.is_empty() => Ok(IngestSource::File(path.into())),
        Some(("rate", n)) => num(n).map(IngestSource::Rate),
        _ => Err("want listen:ADDR | file:PATH | rate:N".into()),
    }
}

/// Store a checked value — the tail of most setters.
fn put<T>(slot: &mut T, v: Result<T, String>) -> Result<(), String> {
    *slot = v?;
    Ok(())
}

/// `--smt`: 4 ways is the paper's KNL throughput curve, anything else the
/// generic diminishing-returns one.
fn set_smt(c: &mut Cli, v: &str) -> Result<(), String> {
    let ways: usize = positive(v)?;
    let curve = if ways == 4 {
        MachineConfig::default()
    } else {
        MachineConfig::small(1, ways)
    };
    c.machine.smt_ways = ways;
    c.machine.smt_total = curve.smt_total;
    Ok(())
}

/// Either heartbeat flag switches the failure detector on; the other knob
/// keeps the library's default.
fn heartbeat(c: &mut Cli) -> &mut dist_rt::HeartbeatConfig {
    c.proc.dcfg.heartbeat.get_or_insert_with(Default::default)
}

/// Every flag, declared once: name, value placeholder (empty = switch),
/// default (empty = unset), the runtimes that read it, help, setter, and —
/// where not all do — the models and the half of `dist`. The parse loop, the
/// defaults, `--help` and the refusals are all derived from these rows. `on`
/// is what a runtime *reads* (CHANGES.md PR 19
/// has the grep behind every row): e.g. dist has no `SystemConfig`, so it
/// reads none of `--system` / `--gvt` / `--affinity`.
#[rustfmt::skip]
static FLAGS: &[(&str, &[Flag])] = &[
    ("Model and system", &[
        flag("--model", "phold|epidemics|traffic", "phold", ALL, "the simulation model",
            |c, v| put(&mut c.a.model, choose(v, &MODELS))),
        flag("--runtime", "vm|threads|cons|dist", "vm", ALL, "virtual machine, real threads (Time Warp), real threads (null messages), multi-shard cluster",
            |c, v| put(&mut c.a.runtime, choose(v, &RUNTIMES))),
        flag("--system", "gg|dd|baseline", "gg", VM | THREADS | CONS, "thread scheduler: GG-PDES, DD-PDES, or none (cons refuses dd)",
            |c, v| put(&mut c.sys.scheduler, choose(v, &[("gg", Scheduler::GgPdes), ("dd", Scheduler::DdPdes), ("baseline", Scheduler::Baseline)]))),
        flag("--gvt", "sync|async", "async", VM | THREADS | CONS, "barrier or wait-free GVT rounds",
            |c, v| put(&mut c.sys.gvt, choose(v, &[("sync", GvtMode::Sync), ("async", GvtMode::Async)]))),
        flag("--affinity", "none|constant|dynamic", "constant", VM | THREADS | CONS, "CPU pinning policy",
            |c, v| put(&mut c.sys.affinity, choose(v, &[("none", AffinityPolicy::NoAffinity), ("constant", AffinityPolicy::Constant), ("dynamic", AffinityPolicy::Dynamic)]))),
        flag("--threads", "N", "16", ALL, "simulation threads the model is laid out for (dist maps them onto --shards)", |c, v| put(&mut c.a.threads, positive(v))),
        flag("--lps-per-thread", "N", "16", ALL, "LPs per simulation thread", |c, v| put(&mut c.a.lps, positive(v))),
        flag("--imbalance", "K", "4", ALL, "1-K imbalanced activity schedule (<= 1: balanced); must divide --threads", |c, v| put(&mut c.a.imbalance, num(v))).models(PHOLD | EPIDEMICS),
        flag("--end", "T", "8", ALL, "simulate [0, T)", |c, v| {
                let t = num(v).and_then(|t: f64| if t >= 0.0 && t.is_finite() { Ok(t) } else { Err("must be non-negative and finite".to_string()) })?;
                c.ecfg.end_time = VirtualTime::from_f64(t);
                put(&mut c.a.end, Ok(t))
            }),
        flag("--seed", "S", "24301", ALL, "experiment seed", |c, v| put(&mut c.ecfg.seed, num(v))),
    ]),
    ("Engine and GVT cadence", &[
        flag("--snapshot-period", "K", "1", ALL, "save LP state before every K-th event (1 = copy state saving)", |c, v| put(&mut c.ecfg.snapshot_period, positive(v))),
        flag("--optimism-window", "W", "", VM | THREADS | DIST, "never speculate more than W past GVT (unset: unbounded; cons never speculates)",
            |c, v| put(&mut c.ecfg.optimism_window, positive(v).map(Some))),
        flag("--gvt-interval", "N", "25", ALL, "a GVT round every N main-loop cycles", |c, v| put(&mut c.ecfg.gvt_interval, positive(v))),
    ]),
    ("Virtual machine", &[
        flag("--cores", "N", "8", VM, "physical cores of the simulated machine", |c, v| put(&mut c.machine.num_cores, positive(v))),
        flag("--smt", "N", "2", VM, "SMT contexts per core", set_smt),
    ]),
    ("Output", &[
        flag("--verify", "", "", ALL, "check the committed trace against the sequential oracle", |c, _| put(&mut c.a.verify, Ok(true))),
        flag("--json", "", "", ALL, "print the final RunMetrics as JSON instead of the table", |c, _| put(&mut c.a.json, Ok(true))),
        flag("--stats-json", "FILE", "", ALL, "also write the final RunMetrics JSON to FILE", |c, v| put(&mut c.a.stats_json, Ok(Some(v.into())))),
    ]),
    ("Chaos and liveness", &[
        flag("--chaos-seed", "S", "", VM | THREADS | DIST, "seeded default fault mix (dist: per-link delay/drop/duplicate)",
            |c, v| put(&mut c.a.chaos_seed, num(v).map(Some))),
        flag("--chaos-plan", "FILE", "", VM | THREADS, "full FaultPlan JSON (thread-level faults)", |c, v| put(&mut c.a.chaos_plan, Ok(Some(v.into())))),
        flag("--watchdog-secs", "T", "", ALL, "GVT-progress bound; 0 = off (unset: 30 wall s, vm: 10 virtual s)", |c, v| put(&mut c.a.watchdog, duration(v, 1.0).map(Some))),
    ]),
    ("Recovery", &[
        flag("--checkpoint-every-gvt", "N", "0", ALL, "consistent cut every N GVT rounds, run under the supervisor (0 = off)",
            |c, v| put(&mut c.a.checkpoint_every_gvt, num(v))),
        flag("--checkpoint-path", "FILE", "", VM | THREADS | CONS, "also write each cut to FILE (dist keeps its cuts in memory)",
            |c, v| put(&mut c.a.checkpoint_path, Ok(Some(v.into())))),
        flag("--max-recoveries", "N", "", ALL, "restore-and-retry budget; giving it opts into the supervisor (unset: 3 once checkpointing)",
            |c, v| put(&mut c.a.max_recoveries, num(v).map(Some))),
    ]),
    ("Distributed runtime", &[
        flag("--shards", "N", "2", DIST, "shards in the cluster", |c, v| put(&mut c.proc.dcfg.shards, num(v))),
        flag("--transport", "mem|loopback|tcp", "tcp", DIST, "loopback links: in-process memory (loopback = mem) or localhost TCP",
            |c, v| put(&mut c.proc.dcfg.transport, choose(v, &[("mem", Transport::Mem), ("loopback", Transport::Mem), ("tcp", Transport::Tcp)]))).dist(LOOPBACK),
    ]),
    ("Elastic membership (loopback dist)", &[
        flag("--hb-interval-ms", "T", "", DIST, "heartbeat failure detection every T ms (unset: off)", |c, v| put(&mut heartbeat(c).interval, duration(v, 1e3))).dist(LOOPBACK),
        flag("--hb-miss", "N", "", DIST, "declare a peer dead after N silent intervals (switches detection on)", |c, v| put(&mut heartbeat(c).miss_threshold, num(v))).dist(LOOPBACK),
        flag("--kill-shard", "S:AT", "", DIST, "kill worker shard S at its AT-th GVT publish (repeatable)",
            |c, v| colon_fields(v).map(|[s, at]| c.proc.dcfg.kills.push((s as usize, at)))).dist(LOOPBACK),
        flag("--partition", "FROM:TO:ROUNDS", "", DIST, "silence one link direction for about ROUNDS GVT rounds (repeatable)",
            |c, v| colon_fields(v).map(|[from, to, rounds]| c.proc.dcfg.partitions.push((from as usize, to as usize, rounds)))).dist(LOOPBACK),
        flag("--join-at", "N", "", DIST, "admit a new shard at the first cut after the N-th publish; needs --checkpoint-every-gvt", |c, v| put(&mut c.proc.dcfg.join_at, num(v).map(Some))).dist(LOOPBACK),
        flag("--leave-at", "S:N", "", DIST, "drain worker shard S out at the first cut after the N-th publish; needs --checkpoint-every-gvt",
            |c, v| put(&mut c.proc.dcfg.leave_at, colon_fields(v).map(|[s, n]| Some((s as usize, n))))).dist(LOOPBACK),
        flag("--degrade", "", "", DIST, "shrink around a dead shard once --max-recoveries is spent; needs --checkpoint-every-gvt", |c, _| put(&mut c.proc.dcfg.degrade, Ok(true))).dist(LOOPBACK),
    ]),
    ("Multi-process mesh (dist)", &[
        flag("--shard-id", "I", "", DIST, "run only shard I of the cluster in this process", |c, v| put(&mut c.proc.shard, num(v))),
        flag("--listen", "ADDR", "", DIST, "where this shard accepts the higher shards", |c, v| put(&mut c.proc.listen, Ok(v.into()))),
        flag("--connect", "ADDR", "", DIST, "listen address of a lower shard, in shard order (repeatable)", |c, v| { c.proc.connect.push(v.into()); Ok(()) }),
        flag("--connect-timeout-secs", "T", "10", DIST, "give up on the mesh handshake after T s", |c, v| put(&mut c.proc.dcfg.mesh_timeout, duration(v, 1.0))).dist(MESH),
    ]),
    ("Telemetry (off unless one of --trace-out, --round-stream, --gantt is given)", &[
        flag("--trace-out", "FILE", "", ALL, "write a Chrome trace_event JSON", |c, v| put(&mut c.a.trace_out, Ok(Some(v.into())))),
        flag("--round-stream", "FILE", "", ALL, "write one JSON object per GVT round", |c, v| put(&mut c.a.round_stream, Ok(Some(v.into())))),
        flag("--gantt", "", "", ALL, "print the activity gantt derived from the trace's park spans", |c, _| put(&mut c.a.gantt, Ok(true))),
        flag("--trace-capacity", "N", "65536", ALL, "records per thread ring (oldest drop first)", |c, v| put(&mut c.tel.capacity, positive(v))),
    ]),
    ("External-event ingest", &[
        flag("--ingest", "listen:ADDR|file:PATH|rate:N", "", THREADS | DIST, "feed a live admission gate: framed TCP, a JSONL script, or N synthesized requests (phold)",
            |c, v| put(&mut c.a.ingest, ingest_source(v).map(Some))),
        flag("--ingest-journal", "PATH", "", THREADS | DIST, "make admissions crash-durable (loopback dist: PATH.sS per shard)",
            |c, v| put(&mut c.a.ingest_journal, Ok(Some(v.into())))),
    ]),
];

fn flags() -> impl Iterator<Item = &'static Flag> {
    FLAGS.iter().flat_map(|(_, rows)| rows.iter())
}

/// The `--help` text: every row, under its group.
fn usage() -> String {
    let mut s = String::from(
        "ggpdes - run a PDES model under one of the paper's systems on one of four runtimes\n\n\
         usage: ggpdes [--flag VALUE]...        (--help prints this)\n\n\
         Each flag shows [its default] and who reads it: the runtimes, the way of running\n\
         dist (loopback = the whole cluster in this process, mesh = one shard of it, chosen\n\
         by --shard-id/--listen/--connect) and the models, where not all do. A flag given\n\
         where it is not read is refused, not ignored.\n",
    );
    for (group, rows) in FLAGS {
        s += &format!("\n{group}:\n");
        for f in *rows {
            let default = if f.default.is_empty() { "-" } else { f.default };
            let (head, who) = (format!("{} {}", f.name, f.val), f.readers());
            s += &format!("  {head:<40} [{default}]  ({who})\n        {}\n", f.help);
        }
    }
    s
}

impl Cli {
    /// The library's configs with the two constants no flag reaches, then
    /// every row's default through its own setter.
    fn new() -> Cli {
        let mut c = Cli {
            ecfg: EngineConfig::default().with_zero_counter_threshold(250),
            sys: SystemConfig::ALL_SIX[0], // all three fields have a row, and a default
            machine: MachineConfig {
                quantum: 50_000,
                ..MachineConfig::default()
            },
            proc: dist_rt::ProcessOpts::default(),
            tel: telemetry::TelemetryConfig::default(),
            a: Args::default(),
            given: Vec::new(),
        };
        for f in flags().filter(|f| !f.default.is_empty()) {
            (f.set)(&mut c, f.default).expect("a row's default passes its own setter");
        }
        c
    }

    fn given(&self, name: &str) -> bool {
        self.given.iter().any(|f| f.name == name)
    }

    /// How `--runtime dist` would run this command line (every other
    /// runtime reads every `dist`-mode row).
    fn dist_mode(&self) -> DistModes {
        let mesh = ["--shard-id", "--listen", "--connect"];
        match (self.a.runtime, mesh.iter().any(|f| self.given(f))) {
            (DIST, true) => MESH,
            (DIST, false) => LOOPBACK,
            _ => LOOPBACK | MESH,
        }
    }
}

/// The command line as a [`Cli`], or the one-line reason it is refused:
/// an unknown flag, a value outside its row's range, or a flag the chosen
/// runtime, model or half of `dist` does not read.
fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut c = Cli::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let known = flags().find(|f| f.name == arg);
        let f = known.ok_or_else(|| format!("unknown flag {arg} (see --help)"))?;
        let v = match f.val {
            "" => "",
            want => it.next().ok_or(format!("{arg} needs a value ({want})"))?,
        };
        (f.set)(&mut c, v).map_err(|why| format!("{arg} '{v}': {why}"))?;
        c.given.push(f);
    }
    c.tel.enabled = c.a.trace_out.is_some() || c.a.round_stream.is_some() || c.a.gantt;
    let (a, mode) = (&c.a, c.dist_mode());
    let unread =
        |f: &&&Flag| f.on & a.runtime == 0 || f.models & a.model == 0 || f.dist & mode == 0;
    if let Some(f) = c.given.iter().find(unread) {
        let who = f.readers();
        return Err(format!("{} is read only by --runtime {who}", f.name));
    }
    Ok(c)
}

/// Friendly fatal: usage / validation errors exit 2, runtime failures exit 1.
fn die(code: i32, msg: &str) -> ! {
    eprintln!("ggpdes: {msg}");
    std::process::exit(code);
}

/// Every `DistError` leaves through here: a configuration dist-rt refuses
/// is a usage error, anything else a failed run.
fn dist_fail(what: &str, e: DistError) -> ! {
    match e {
        DistError::Config(why) => die(2, &format!("--runtime dist: {why}")),
        e => die(1, &format!("{what}: {e}")),
    }
}

/// Write an output file one of the flags asked for.
fn write_out(flag: &str, path: &str, text: String) {
    if let Err(e) = std::fs::write(path, text) {
        die(1, &format!("{flag} {path}: {e}"));
    }
}

/// `--watchdog-secs` as a bound: `fallback` when the flag is absent, none at 0.
fn watchdog(a: &Args, fallback: Duration) -> Option<Duration> {
    Some(a.watchdog.unwrap_or(fallback)).filter(|d| !d.is_zero())
}

/// Everything the CLI prints goes through here: `write` gets the locked
/// handle. A reader that closed the pipe early (`ggpdes … | head -1`) has
/// what it wanted; any other failure is fatal.
fn to_stdout(write: impl FnOnce(&mut std::io::StdoutLock) -> std::io::Result<()>) {
    match write(&mut std::io::stdout().lock()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => die(1, &format!("stdout: {e}")),
        _ => {}
    }
}

fn report(out: &mut impl Write, m: &RunMetrics, json: bool) -> std::io::Result<()> {
    if json {
        let text = serde_json::to_string_pretty(m).expect("serialize");
        return writeln!(out, "{text}");
    }
    writeln!(out, "system                : {}", m.system)?;
    writeln!(out, "threads               : {}", m.threads)?;
    writeln!(out, "LPs                   : {}", m.lps)?;
    writeln!(out, "committed events      : {}", m.committed)?;
    writeln!(out, "processed events      : {}", m.processed)?;
    writeln!(
        out,
        "rolled back           : {} ({:.1}%)",
        m.rolled_back,
        m.rollback_ratio() * 100.0
    )?;
    writeln!(
        out,
        "committed event rate  : {:.0} events/s",
        m.committed_event_rate()
    )?;
    writeln!(out, "GVT rounds            : {}", m.gvt_rounds)?;
    writeln!(out, "GVT s/round (Σthreads): {:.6}", m.gvt_secs_per_round())?;
    writeln!(out, "max de-scheduled      : {}", m.max_descheduled)?;
    let by_cause = m
        .yields_by_cause
        .map_or_else(String::new, |by| format!(" ({by})"));
    writeln!(
        out,
        "voluntary yields      : {}{by_cause}",
        m.voluntary_yields
    )?;
    if m.protocol == "conservative" {
        writeln!(out, "protocol              : {}", m.protocol)?;
        writeln!(out, "null messages sent    : {}", m.null_messages_sent)?;
        writeln!(out, "LBTS rounds           : {}", m.lbts_rounds)?;
    }
    writeln!(out, "wall seconds          : {:.4}", m.wall_secs)
}

/// Write the trace artifacts the CLI asked for from the run's collected
/// telemetry (absent on runs that never produce one, e.g. worker shards).
fn emit_telemetry(
    c: &Cli,
    out: &mut impl Write,
    data: &Option<TelemetryData>,
    threads: usize,
) -> std::io::Result<()> {
    if !c.tel.enabled {
        return Ok(());
    }
    let Some(data) = data else {
        eprintln!("telemetry: no trace collected (run produced no telemetry)");
        return Ok(());
    };
    if data.total_dropped() > 0 {
        eprintln!(
            "telemetry: ring overflow dropped {} oldest record(s); raise --trace-capacity \
             for a longer window",
            data.total_dropped()
        );
    }
    if let Some(path) = &c.a.trace_out {
        write_out("--trace-out", path, telemetry::chrome_trace_json(data));
        eprintln!("telemetry: wrote Chrome trace to {path} (load at ui.perfetto.dev)");
    }
    if let Some(path) = &c.a.round_stream {
        write_out(
            "--round-stream",
            path,
            telemetry::round_stream_jsonl(&data.rounds),
        );
        eprintln!(
            "telemetry: wrote {} GVT round snapshot(s) to {path}",
            data.rounds.len()
        );
    }
    if c.a.gantt {
        let transitions = metrics::transitions_from_trace(data, threads);
        let horizon = metrics::trace_horizon(data);
        let gantt = metrics::render_gantt(&transitions, threads, horizon, 72);
        out.write_all(gantt.as_bytes())?;
    }
    Ok(())
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
    a.chaos_seed.map(FaultPlan::chaos).unwrap_or_default()
}

type Gate<M> = Arc<IngestGate<<M as Model>::Payload>>;
type Accepted<M> = Vec<pdes_core::Event<<M as Model>::Payload>>;
/// Payload synthesis for `--ingest rate:N` (models with a unit payload).
type Synth<M> = Option<fn(u64) -> <M as Model>::Payload>;

/// Build one shard's gate: fresh, or journaling (resuming what the journal
/// holds). `journal` already carries any per-shard suffix.
fn build_gate<M: Model>(shard: u64, journal: Option<&str>) -> Gate<M> {
    Arc::new(match journal {
        Some(path) => IngestGate::with_journal(shard, std::path::Path::new(path))
            .unwrap_or_else(|e| die(1, &format!("--ingest-journal: {e}"))),
        None => IngestGate::new(shard),
    })
}

/// The client-facing feeder attached to the entry gate, torn down by
/// [`finish_ingest`] after the run.
#[derive(Default)]
struct IngestPlane {
    server: Option<ingest::IngestServer>,
    feeder: Option<std::thread::JoinHandle<ingest::DriveReport>>,
}

/// Start the `--ingest` source against `gate`: a TCP server, a scripted
/// file driven through a retrying client, or seeded synthesis.
fn start_feeder<M: Model>(c: &Cli, gate: &Gate<M>, num_lps: u32, synth: Synth<M>) -> IngestPlane {
    let mut plane = IngestPlane::default();
    let seed = c.ecfg.seed;
    match &c.a.ingest {
        None => {}
        Some(IngestSource::Listen(addr)) => {
            let server = ingest::IngestServer::spawn(Arc::clone(gate), addr)
                .unwrap_or_else(|e| die(1, &format!("--ingest listen:{addr}: {e}")));
            eprintln!("ingest: serving external events on {}", server.addr());
            plane.server = Some(server);
        }
        Some(IngestSource::File(path)) => {
            let script = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| {
                    ingest::parse_script::<M::Payload>(&text).map_err(|e| e.to_string())
                })
                .unwrap_or_else(|e| die(2, &format!("--ingest file:{path}: {e}")));
            eprintln!(
                "ingest: driving {} scripted request(s) from {path}",
                script.len()
            );
            plane.feeder = Some(spawn_driver(Arc::clone(gate), seed, script));
        }
        Some(IngestSource::Rate(n)) => {
            let Some(payload) = synth else {
                die(
                    2,
                    "--ingest rate:N synthesis is defined for --model phold; feed \
                     other models with file:PATH (JSON payloads)",
                )
            };
            let lo = VirtualTime::from_f64(c.a.end * 0.05).ticks().max(1);
            let hi = VirtualTime::from_f64(c.a.end * 0.85).ticks().max(lo + 1);
            let script = ingest::synth_requests(seed, 9, *n, num_lps, lo, hi, payload);
            eprintln!("ingest: driving {n} synthesized request(s)");
            plane.feeder = Some(spawn_driver(Arc::clone(gate), seed, script));
        }
    }
    plane
}

/// A local retrying client on its own thread: re-stamps on `Rejected`,
/// backs off on `Busy`/`Shed`, gives up only after `ingest::MAX_ATTEMPTS`.
fn spawn_driver<P: Clone + Send + 'static>(
    gate: Arc<IngestGate<P>>,
    seed: u64,
    script: Vec<pdes_core::IngestRequest<P>>,
) -> std::thread::JoinHandle<ingest::DriveReport> {
    std::thread::spawn(move || {
        let mut client =
            ingest::IngestClient::new(ingest::local_endpoint(gate, Duration::from_secs(30)), seed);
        ingest::drive(&mut client, script)
    })
}

/// Close the gates, land the feeder, and report admission counters.
fn finish_ingest<P>(plane: IngestPlane, gates: &[Arc<IngestGate<P>>]) {
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

/// Run `body` with the ingest plane attached, if any ingest flag is on: one
/// gate per shard of `shards` (journaling to `PATH.sS` when `per_shard`),
/// the `--ingest` feeder on the first. Afterwards — before the caller acts
/// on the outcome, whichever way the run went — the feeder lands, the
/// admission counters print, and `accepted` takes what the oracle must be
/// fed next to the seeded events.
fn with_ingest<M: Model, R>(
    c: &Cli,
    model: &Arc<M>,
    synth: Synth<M>,
    shards: std::ops::Range<usize>,
    per_shard: bool,
    accepted: &mut Accepted<M>,
    body: impl FnOnce(Option<&dist_rt::IngestGates<M>>) -> R,
) -> R {
    let a = &c.a;
    if a.ingest.is_none() && a.ingest_journal.is_none() {
        return body(None);
    }
    let journal = |s: usize| match (&a.ingest_journal, per_shard) {
        (Some(p), true) => Some(format!("{p}.s{s}")),
        (p, _) => p.clone(),
    };
    let gates: dist_rt::IngestGates<M> = shards
        .map(|s| build_gate::<M>(s as u64, journal(s).as_deref()))
        .collect();
    let plane = start_feeder::<M>(c, &gates[0], model.num_lps() as u32, synth);
    let out = body(Some(&gates));
    finish_ingest(plane, &gates);
    *accepted = gates.iter().flat_map(|g| g.accepted_events()).collect();
    accepted.sort_by_key(|e| e.key);
    out
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

/// Hold `digest` to the sequential oracle fed the seeded events plus `extra`
/// (what the ingest plane admitted).
fn verify<M: Model>(model: &Arc<M>, ecfg: &EngineConfig, extra: &Accepted<M>, digest: u64) {
    let what = if extra.is_empty() {
        "sequential"
    } else {
        "merged-stream sequential"
    };
    let oracle = pdes_core::run_sequential_with(model, ecfg, None, extra, None);
    assert_eq!(
        digest, oracle.commit_digest,
        "run diverged from the {what} oracle!"
    );
    eprintln!("verify: committed trace matches the {what} oracle ✓");
}

/// Report a run that degraded to the sequential engine (no `RunMetrics` —
/// the parallel attempt was abandoned), verify it if asked, and exit 0.
fn finish_degraded<M: Model>(
    seq: &SequentialResult,
    model: &Arc<M>,
    c: &Cli,
    extra: &Accepted<M>,
) -> ! {
    if c.a.verify {
        verify(model, &c.ecfg, extra, seq.commit_digest);
    }
    let (n, digest) = (seq.committed, seq.commit_digest);
    let text = if c.a.json {
        format!("{{\"degraded\":true,\"committed\":{n},\"commit_digest\":{digest}}}\n")
    } else {
        format!(
            "degraded to sequential     : yes\n\
             committed events           : {n}\n\
             commit digest              : {digest:#018x}\n"
        )
    };
    to_stdout(|out| out.write_all(text.as_bytes()));
    std::process::exit(0);
}

type Finished = (RunMetrics, Option<TelemetryData>);

/// `--runtime dist`: the loopback cluster, or one shard of a real
/// multi-process mesh when `--shard-id` / `--listen` / `--connect` are
/// given, with `run()`'s checkpoint cadence and supervisor. Returns the
/// coordinator's metrics plus merged telemetry; worker shards exit 0 here.
fn run_dist<M: Model>(
    model: &Arc<M>,
    c: &Cli,
    ckpt_every: u64,
    supervisor: Option<&SupervisorConfig>,
    synth: Synth<M>,
    accepted: &mut Accepted<M>,
) -> Finished {
    let a = &c.a;
    let mut opts = c.proc.clone();
    let d = &mut opts.dcfg;
    d.link_faults = a.chaos_seed.map(dist_rt::LinkFaultPlan::chaos);
    d.max_recoveries = supervisor.map_or(0, |s| s.max_recoveries);
    d.ckpt_every_rounds = ckpt_every;
    d.watchdog = watchdog(a, Duration::from_secs(30));
    d.telemetry = c.tel.clone();
    let shards_initial = d.shards;

    // CLI policy on top of what dist-rt checks: the scripted victim is a
    // worker (the library also recovers a killed coordinator, by replay —
    // not what these flags are for).
    let mut victims = d.kills.iter().map(|k| k.0).chain(d.leave_at.map(|l| l.0));
    if victims.any(|s| s == 0) {
        die(2, "--kill-shard / --leave-at 0: not a worker shard");
    }
    let multi_process = c.dist_mode() == MESH;
    if multi_process && !c.given("--shard-id") {
        die(
            2,
            "--listen/--connect need --shard-id (which shard is this process?)",
        );
    }
    // Refuse what dist-rt would before a journal is opened or a feeder started.
    let me = opts.shard;
    let (what, checked, gate_ids) = if multi_process {
        (format!("dist shard {me}"), opts.check(), me..me + 1)
    } else {
        ("dist loopback".into(), opts.dcfg.check(), 0..shards_initial)
    };
    if let Err(e) = checked {
        dist_fail(&what, e);
    }

    // Loopback: every shard gets a gate, the feeder enters at shard 0 and
    // the mesh forwards each submission to the shard owning its LP.
    // Multi-process: this shard's own gate and feeder — each process may run
    // its own `--ingest listen:` front door.
    let res = with_ingest(
        c,
        model,
        synth,
        gate_ids,
        !multi_process,
        accepted,
        |gates| {
            if !multi_process {
                let gates = gates.cloned();
                return dist_rt::run_loopback_ingest(Arc::clone(model), &c.ecfg, &opts.dcfg, gates)
                    .map(Some);
            }
            if gates.is_some() && a.verify {
                eprintln!(
                    "warning: --verify on a multi-process shard sees only this shard's \
                 admissions; events ingested at peers will fail the oracle check"
                );
            }
            let gate = gates.map(|g| Arc::clone(&g[0]));
            dist_rt::run_shard_process(Arc::clone(model), &c.ecfg, &opts, gate)
        },
    );
    let r = match res {
        Ok(Some(r)) => r,
        Ok(None) => std::process::exit(0), // worker shard: coordinator reports
        Err(e) => dist_fail(&what, e),
    };
    if !r.recovered.is_empty() {
        eprintln!(
            "dist: completed after {} recovery(ies){} ({} partial) of shard(s) {:?}",
            r.recovered.len(),
            if r.used_checkpoint {
                " from a checkpoint cut"
            } else {
                " by replaying from the start"
            },
            r.partial_recoveries,
            r.recovered
        );
    }
    if r.membership_epoch > 0 {
        eprintln!(
            "dist: membership epoch {} — cluster reshaped {} -> {} shard(s)",
            r.membership_epoch, shards_initial, r.shards_final
        );
    }
    (r.metrics, r.telemetry)
}

/// `--runtime threads|cons`: one real-thread run under protocol `P`, under
/// the supervisor when checkpointing or a retry budget was asked for.
fn run_on_threads<M: Model, P: thread_rt::Protocol<M>>(
    model: &Arc<M>,
    c: &Cli,
    rc: &thread_rt::RtRunConfig,
    supervisor: Option<&SupervisorConfig>,
    synth: Synth<M>,
    accepted: &mut Accepted<M>,
) -> Finished {
    let res = with_ingest(c, model, synth, 0..1, false, accepted, |gates| {
        let gate = gates.map(|g| Arc::clone(&g[0]));
        match supervisor {
            Some(sup) => Ok(report_supervised(thread_rt::run_supervised::<M, P>(
                model, rc, sup, gate,
            ))),
            None => thread_rt::run_threads_attempt::<M, P>(model, rc, None, None, gate)
                .outcome
                .map(Recovered::Parallel),
        }
    });
    match res {
        Ok(Recovered::Parallel(r)) => (r.metrics, r.telemetry),
        Ok(Recovered::Sequential(seq)) => finish_degraded(&seq, model, c, accepted),
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(1);
        }
    }
}

fn run<M: Model>(model: Arc<M>, c: &Cli, synth: Synth<M>) {
    let a = &c.a;
    // Checkpointing or an explicit retry budget opts the run into the
    // supervisor (which also needs checkpoints to recover from, so a bare
    // --max-recoveries enables a per-round cut).
    let supervised = a.checkpoint_every_gvt > 0 || a.max_recoveries.is_some();
    let ckpt_every = a.checkpoint_every_gvt.max(supervised as u64);
    let sup = SupervisorConfig::new(a.max_recoveries.unwrap_or(3));
    let sup = supervised.then_some(&sup);
    // `threads` and `cons` share the real-thread run configuration.
    let thread_rc = || {
        let mut rc = thread_rt::RtRunConfig::new(a.threads, c.ecfg.clone(), c.sys)
            .with_faults(fault_plan(a))
            .with_watchdog(watchdog(a, Duration::from_secs(30)))
            .with_checkpoint_every(ckpt_every)
            .with_telemetry(c.tel.clone());
        rc.checkpoint_path = a.checkpoint_path.as_ref().map(Into::into);
        rc
    };
    // Events admitted by the ingest plane, if one was attached: the verify
    // oracle must be fed the merged (seeded + accepted-ingest) stream.
    let mut accepted: Accepted<M> = Vec::new();

    let (metrics, tel) = match a.runtime {
        VM => {
            let watchdog_ns = watchdog(a, Duration::from_secs(10)).map(|d| d.as_nanos() as u64);
            let mut rc = sim_rt::RunConfig::new(a.threads, c.ecfg.clone(), c.sys)
                .with_machine(c.machine.clone())
                .with_faults(fault_plan(a))
                .with_watchdog_ns(watchdog_ns)
                .with_checkpoint_every(ckpt_every)
                .with_telemetry(c.tel.clone());
            rc.checkpoint_path = a.checkpoint_path.as_ref().map(Into::into);
            let outcome = match sup {
                Some(sup) => report_supervised(sim_rt::run_sim_supervised(&model, &rc, sup)),
                None => Recovered::Parallel(sim_rt::run_sim(&model, &rc)),
            };
            let r = match outcome {
                Recovered::Parallel(r) => r,
                Recovered::Sequential(seq) => finish_degraded(&seq, &model, c, &accepted),
            };
            if let Some(dump) = &r.stall {
                eprintln!("{dump}");
                std::process::exit(1);
            }
            if !r.completed {
                eprintln!("warning: virtual time limit hit before completion");
            }
            (r.metrics, r.telemetry)
        }
        THREADS => run_on_threads::<M, thread_rt::Optimistic>(
            &model,
            c,
            &thread_rc(),
            sup,
            synth,
            &mut accepted,
        ),
        CONS => {
            let rc = thread_rc();
            // Zero lookahead and `--system dd` are refused before anything
            // spawns.
            if let Err(e) = cons_rt::Conservative::admit(model.as_ref(), &rc) {
                die(2, &e.to_string());
            }
            run_on_threads::<M, cons_rt::Conservative>(&model, c, &rc, sup, None, &mut accepted)
        }
        _ => run_dist(&model, c, ckpt_every, sup, synth, &mut accepted),
    };

    if a.verify {
        verify(&model, &c.ecfg, &accepted, metrics.commit_digest);
    }
    to_stdout(|out| {
        report(out, &metrics, a.json)?;
        emit_telemetry(c, out, &tel, metrics.threads)
    });
    if let Some(path) = &a.stats_json {
        let text = serde_json::to_string_pretty(&metrics).expect("serialize metrics");
        write_out("--stats-json", path, text);
    }
}

/// `k` activity groups (a `1-k` imbalanced schedule) need the threads to
/// split evenly among them.
fn activity_groups(a: &Args, k: usize) -> usize {
    let n = a.threads;
    if !n.is_multiple_of(k) {
        let why = format!("--threads {n} must divide into {k} activity groups (see --imbalance)");
        die(2, &why);
    }
    k
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return to_stdout(|out| out.write_all(usage().as_bytes()));
    }
    let c = parse(&argv).unwrap_or_else(|e| die(2, &e));
    let a = &c.a;
    match a.model {
        PHOLD => {
            let cfg = if a.imbalance <= 1 {
                PholdConfig::balanced(a.threads, a.lps)
            } else {
                let groups = activity_groups(a, a.imbalance);
                PholdConfig::imbalanced(a.threads, a.lps, groups, a.end, LocalityPattern::Linear)
            };
            // PHOLD's unit payload is synthesizable, so `--ingest rate:N`
            // works without a script.
            run(Arc::new(Phold::new(cfg)), &c, Some(|_| ()));
        }
        EPIDEMICS => {
            let groups = activity_groups(a, a.imbalance.max(2));
            let cfg = EpidemicsConfig::new(a.threads, a.lps, groups, a.end);
            run(Arc::new(Epidemics::new(cfg)), &c, None);
        }
        _ => {
            let mut cfg = TrafficConfig::new(a.threads, a.lps, 0.5);
            cfg.mapping = MapKind::Block;
            run(Arc::new(Traffic::new(cfg)), &c, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value `f`'s setter accepts: its default, else 1s shaped like its
    /// placeholder (`S:AT` -> `1:1`).
    fn sample(f: &Flag) -> String {
        match f.name {
            "--ingest" => "rate:1".into(),
            _ if !f.default.is_empty() => f.default.into(),
            _ => f.val.split(':').map(|_| "1").collect::<Vec<_>>().join(":"),
        }
    }

    #[test]
    fn every_flag_is_declared_once_with_a_default_that_parses_and_a_help_line() {
        let names: Vec<&str> = flags().map(|f| f.name).collect();
        assert_eq!(names.len(), 43);
        let help = usage();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} is declared twice");
            assert!(help.contains(&format!("  {name} ")), "--help lacks {name}");
        }
        // Every non-empty default goes through its own setter here.
        Cli::new();
    }

    /// Every row against every runtime, model and way of running dist: the
    /// flag is accepted exactly where its row says it is read, and each
    /// refusal is the one line naming who does read it.
    #[test]
    fn a_runtime_accepts_a_flag_iff_it_reads_it() {
        // One row on one runtime, model and half of dist.
        let check = |(rt, rbit): (&str, u8), (model, mbit): (&str, u8), way: u8, f: &Flag| {
            let value = sample(f);
            let mut argv = vec!["--runtime", rt, "--model", model, f.name];
            if !f.val.is_empty() {
                argv.push(&value);
            }
            if way == MESH {
                argv.extend(["--shard-id", "1"]);
            }
            let argv: Vec<String> = argv.into_iter().map(Into::into).collect();
            let read = f.on & rbit != 0 && f.models & mbit != 0 && f.dist & way != 0;
            let at = format!("{} on {rt}, model {model}, dist way {way}", f.name);
            match parse(&argv) {
                Ok(_) => assert!(read, "{at}: dropped"),
                Err(e) => {
                    assert!(!read, "{at}: refused: {e}");
                    let want = format!("{} is read only by --runtime ", f.name);
                    assert!(e.starts_with(&want) && e.lines().count() == 1, "{e}");
                }
            }
        };
        for rt in RUNTIMES {
            let ways: &[DistModes] = match rt.1 {
                DIST => &[LOOPBACK, MESH],
                _ => &[LOOPBACK | MESH],
            };
            let rows = || flags().filter(|f| !["--runtime", "--model"].contains(&f.name));
            for model in MODELS {
                for &way in ways {
                    rows().for_each(|f| check(rt, model, way, f));
                }
            }
        }
        // The refusal names the readers: a model set, each half of dist.
        for (argv, readers) in [
            (
                "--model traffic --imbalance 3",
                "--imbalance is read only by --runtime vm|threads|cons|dist, \
                 --model phold|epidemics",
            ),
            (
                "--runtime dist --shard-id 1 --transport tcp",
                "--transport is read only by --runtime dist loopback",
            ),
            (
                "--runtime dist --connect-timeout-secs 3",
                "--connect-timeout-secs is read only by --runtime dist mesh",
            ),
        ] {
            let argv: Vec<String> = argv.split(' ').map(Into::into).collect();
            assert_eq!(parse(&argv).err().as_deref(), Some(readers));
        }
    }
}
