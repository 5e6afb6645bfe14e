//! End-to-end tests of the `ggpdes` binary: the distributed runtime's
//! loopback launcher and real multi-process `--listen/--connect` mesh,
//! `--stats-json`, and the friendly failure modes (bad flag values,
//! combinations a runtime refuses, malformed endpoints, a peer that never
//! connects) — all bounded, none may hang.

use std::collections::BTreeSet;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::Value;

const BIN: &str = env!("CARGO_BIN_EXE_ggpdes");

/// Pull a string field out of a parsed metrics document.
fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::String(s)) => s,
        other => panic!("field {key}: want a string, got {other:?}"),
    }
}

/// Pull an unsigned field out of a parsed metrics document.
fn uint_field(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::UInt(n)) => *n,
        Some(Value::Int(n)) if *n >= 0 => *n as u64,
        other => panic!("field {key}: want an unsigned number, got {other:?}"),
    }
}

fn run_bounded(args: &[&str], limit: Duration) -> Output {
    let t0 = Instant::now();
    let mut child = Command::new(BIN)
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn ggpdes");
    loop {
        if let Some(_status) = child.try_wait().expect("wait") {
            return child.wait_with_output().expect("collect output");
        }
        assert!(
            t0.elapsed() < limit,
            "ggpdes {args:?} still running after {limit:?} — it must exit cleanly"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Grab a free localhost port by binding port 0 and dropping the listener.
/// The kernel may hand the same number out again once it is dropped, and the
/// tests of this file run in parallel: every port handed out is remembered,
/// and a repeat is picked again.
fn free_port() -> u16 {
    static HANDED_OUT: Mutex<BTreeSet<u16>> = Mutex::new(BTreeSet::new());
    loop {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let port = listener.local_addr().expect("addr").port();
        if HANDED_OUT.lock().expect("no holder panics").insert(port) {
            return port;
        }
    }
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ggpdes-cli-{name}-{}", std::process::id()));
    p
}

#[test]
fn loopback_dist_run_verifies_and_writes_stats_json() {
    let stats = tmp_path("loopback.json");
    let out = run_bounded(
        &[
            "--runtime",
            "dist",
            "--shards",
            "2",
            "--transport",
            "mem",
            "--threads",
            "4",
            "--lps-per-thread",
            "4",
            "--imbalance",
            "1",
            "--end",
            "6",
            "--verify",
            "--stats-json",
            stats.to_str().unwrap(),
        ],
        Duration::from_secs(60),
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&stats).expect("stats file written");
    std::fs::remove_file(&stats).ok();
    let v = serde_json::parse(&text).expect("valid JSON");
    assert_eq!(str_field(&v, "system"), "GG-PDES-Dist");
    assert_eq!(
        uint_field(&v, "threads"),
        2,
        "one metrics 'thread' per shard"
    );
    assert!(uint_field(&v, "committed") > 0);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("matches the sequential oracle"),
        "--verify must have checked the oracle, stderr: {err}"
    );
}

/// `--gvt-interval` paces a dist run's Mattern rounds as it paces every
/// other runtime's (`EngineConfig::gvt_interval`): the same run under a
/// short and a long interval verifies both times and closes many more rounds
/// under the short one.
#[test]
fn gvt_interval_paces_the_rounds_of_a_dist_run() {
    let rounds = |interval: &str| {
        let stats = tmp_path(&format!("interval-{interval}.json"));
        let mut args = vec!["--runtime", "dist", "--shards", "2", "--transport", "mem"];
        args.extend([
            "--threads",
            "4",
            "--lps-per-thread",
            "4",
            "--imbalance",
            "1",
        ]);
        args.extend(["--end", "200", "--verify", "--gvt-interval", interval]);
        args.extend(["--stats-json", stats.to_str().unwrap()]);
        let out = run_bounded(&args, Duration::from_secs(60));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--gvt-interval {interval}: {err}");
        assert!(err.contains("matches the sequential oracle"), "{err}");
        let text = std::fs::read_to_string(&stats).expect("stats file written");
        std::fs::remove_file(&stats).ok();
        uint_field(&serde_json::parse(&text).expect("valid JSON"), "gvt_rounds")
    };
    let (short, long) = (rounds("2"), rounds("512"));
    assert!(short > 2 * long, "{short} rounds at 2, {long} at 512");
}

/// A checkpointed dist run is supervised without `--max-recoveries`, as on
/// every other runtime: a killed worker is recovered within the default
/// budget instead of exhausting a budget of zero. Partial or full depends on
/// where the survivors are at the kill, so only success is asserted.
#[test]
fn checkpointing_alone_gives_dist_the_default_retry_budget() {
    let out = run_bounded(
        &[
            "--runtime",
            "dist",
            "--shards",
            "4",
            "--threads",
            "16",
            "--transport",
            "mem",
            "--end",
            "120",
            "--checkpoint-every-gvt",
            "2",
            "--kill-shard",
            "2:5",
            "--verify",
        ],
        Duration::from_secs(120),
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(err.contains("dist: completed after"), "{err}");
}

/// With the heartbeat detector on, a scripted kill is silent: nobody raises
/// the cohort abort flag, so the run completes only because the
/// coordinator's lease declared the killed worker dead and the supervisor
/// recovered it, once. The lease runs on the wall clock, so on a loaded
/// host a starved live shard may be declared dead and recovered too. The
/// same cluster script on the stepped shard clock, where the lease cannot
/// starve, pins `recovered == [2]` and one partial recovery exactly:
/// `dist_golden::cli_silent_kill_recovers_shard_two_once` (on that file's
/// smaller model, which reaches the 5th publish there).
#[test]
fn a_silent_kill_is_found_by_the_heartbeat_detector_and_recovered() {
    let out = run_bounded(
        &[
            "--runtime",
            "dist",
            "--shards",
            "4",
            "--threads",
            "16",
            "--transport",
            "mem",
            "--end",
            "120",
            "--kill-shard",
            "2:5",
            "--hb-interval-ms",
            "5",
            "--hb-miss",
            "20",
            "--checkpoint-every-gvt",
            "2",
            "--verify",
        ],
        Duration::from_secs(120),
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    let recovered = err
        .lines()
        .find_map(|l| l.strip_prefix("dist: completed after "))
        .and_then(|l| l.split_once("of shard(s) "))
        .map(|(_, shards)| shards)
        .unwrap_or_else(|| panic!("no recovery line: {err}"));
    let shard_2 = recovered
        .trim_matches(['[', ']'])
        .split(", ")
        .filter(|&s| s == "2")
        .count();
    assert_eq!(shard_2, 1, "shard 2 is recovered exactly once: {err}");
    assert!(err.contains("matches the sequential oracle"), "{err}");
}

/// A join lands only on an assembled checkpoint cut. Without a cadence no
/// round is armed and the join would never happen, so `--join-at` alone is
/// a usage error naming the flag it needs.
#[test]
fn a_join_without_a_checkpoint_cadence_is_refused_naming_the_flag() {
    let out = run_bounded(
        &[
            "--runtime",
            "dist",
            "--shards",
            "3",
            "--transport",
            "mem",
            "--join-at",
            "3",
        ],
        Duration::from_secs(30),
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.starts_with("ggpdes: ") && err.contains("--checkpoint-every-gvt"),
        "{err}"
    );
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
}

#[test]
fn two_process_tcp_cluster_matches_between_launches() {
    let (p0, p1) = (free_port(), free_port());
    let l0 = format!("127.0.0.1:{p0}");
    let l1 = format!("127.0.0.1:{p1}");
    let common = [
        "--runtime",
        "dist",
        "--shards",
        "2",
        "--threads",
        "4",
        "--lps-per-thread",
        "4",
        "--imbalance",
        "1",
        "--end",
        "5",
    ];
    let mut w_args: Vec<&str> = common.to_vec();
    w_args.extend(["--shard-id", "1", "--listen", &l1, "--connect", &l0]);
    let worker = Command::new(BIN)
        .args(&w_args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn worker shard");
    let mut c_args: Vec<&str> = common.to_vec();
    c_args.extend(["--shard-id", "0", "--listen", &l0, "--verify", "--json"]);
    let coord = run_bounded(&c_args, Duration::from_secs(60));
    let worker_out = worker.wait_with_output().expect("worker exits");
    assert!(
        coord.status.success(),
        "coordinator stderr: {}",
        String::from_utf8_lossy(&coord.stderr)
    );
    assert!(
        worker_out.status.success(),
        "worker stderr: {}",
        String::from_utf8_lossy(&worker_out.stderr)
    );
    let v = serde_json::parse(&String::from_utf8_lossy(&coord.stdout)).expect("json");
    assert_eq!(str_field(&v, "system"), "GG-PDES-Dist");
    assert!(uint_field(&v, "committed") > 0);
}

#[test]
fn malformed_endpoints_are_a_friendly_exit_2() {
    for (what, args) in [
        (
            "bad listen",
            vec![
                "--shard-id",
                "1",
                "--listen",
                "not-an-endpoint",
                "--connect",
                "127.0.0.1:1",
            ],
        ),
        (
            "bad connect",
            vec![
                "--shard-id",
                "1",
                "--listen",
                "127.0.0.1:0",
                "--connect",
                "bogus:::",
            ],
        ),
        (
            "missing connect",
            vec!["--shard-id", "1", "--listen", "127.0.0.1:0"],
        ),
        ("listen without shard id", vec!["--listen", "127.0.0.1:0"]),
    ] {
        let mut full = vec!["--runtime", "dist", "--shards", "2", "--end", "2"];
        full.extend(args);
        let out = run_bounded(&full, Duration::from_secs(30));
        assert_eq!(out.status.code(), Some(2), "{what}: want exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("ggpdes: "),
            "{what}: friendly message, got {err}"
        );
    }
}

/// A bad value is a usage error: exit 2 and one `ggpdes: …` line, never a
/// panic with a backtrace. Likewise every `--runtime cons` combination the
/// conservative protocol cannot honour is refused, not silently remapped,
/// and so is a flag given to a runtime that does not read it.
#[test]
fn bad_values_and_refused_combinations_are_a_one_line_exit_2() {
    for args in [
        // The default `--imbalance 4` does not divide two threads.
        vec!["--threads", "2"],
        vec!["--model", "epidemics", "--threads", "3", "--imbalance", "2"],
        vec!["--model", "chess"],
        vec!["--system", "hh"],
        vec!["--gvt", "eventually"],
        vec!["--affinity", "sticky"],
        vec!["--threads", "many"],
        vec!["--threads"],
        vec!["--frobnicate"],
        vec!["--runtime", "cons", "--system", "dd"],
        vec!["--runtime", "cons", "--system", "dd", "--gvt", "sync"],
        vec!["--runtime", "cons", "--chaos-seed", "1"],
        vec!["--runtime", "cons", "--ingest", "rate:5"],
        // Accepted and silently dropped before: dist injects link faults
        // (`--chaos-seed`) and keeps its cuts in memory.
        vec!["--runtime", "dist", "--chaos-plan", "plan.json"],
        vec!["--runtime", "dist", "--checkpoint-path", "cut.bin"],
        // One per runtime of the (flag, runtime) pairs that used to be
        // accepted and dropped: a flag is refused wherever it is not read.
        vec!["--runtime", "dist", "--system", "dd"],
        vec!["--runtime", "threads", "--transport", "bogus"],
        vec!["--runtime", "threads", "--kill-shard", "1:2"],
        vec!["--runtime", "vm", "--listen", "nowhere"],
        vec!["--runtime", "cons", "--hb-miss", "1"],
        // A flag the chosen model, or the chosen half of dist, does not read.
        vec!["--model", "traffic", "--imbalance", "3"],
        vec!["--runtime", "dist", "--shard-id", "1", "--transport", "tcp"],
        vec!["--runtime", "dist", "--connect-timeout-secs", "3"],
        // Values outside their flag's range: these panicked (exit 101) or,
        // for the NaN watchdog, armed a 0 ns bound that tripped at once.
        vec!["--snapshot-period", "0"],
        vec!["--optimism-window", "0"],
        vec!["--optimism-window", "-1"],
        vec!["--end", "-3"],
        vec!["--end", "nan"],
        vec!["--cores", "0"],
        vec!["--smt", "0"],
        vec!["--watchdog-secs", "nan"],
        // Checked even when no trace flag is on.
        vec!["--trace-capacity", "0"],
        // What dist-rt's own `DistConfig::check` refuses reaches the user
        // the same way.
        vec!["--runtime", "dist", "--shards", "0"],
        vec!["--runtime", "dist", "--kill-shard", "5:1"],
        vec!["--runtime", "dist", "--partition", "1:1:4"],
        vec!["--runtime", "dist", "--hb-miss", "0"],
    ] {
        let out = run_bounded(&args, Duration::from_secs(30));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: want exit 2, got {err}"
        );
        assert!(
            err.starts_with("ggpdes: ") && err.trim_end().lines().count() == 1,
            "{args:?}: want one friendly line, got {err}"
        );
    }
}

/// Link faults are `--runtime dist`'s own flags; a `--chaos-plan` that names
/// one is refused, not read past.
#[test]
fn a_chaos_plan_naming_a_link_partition_is_a_one_line_exit_2() {
    let plan = tmp_path("link-plan.json");
    let kill = r#"{"LinkPartition": {"from": 0, "to": 1, "for_rounds": 4}}"#;
    std::fs::write(&plan, format!(r#"{{"seed": 1, "kills": [{kill}]}}"#)).expect("write plan");
    let out = run_bounded(
        &["--end", "2", "--chaos-plan", plan.to_str().expect("utf-8")],
        Duration::from_secs(30),
    );
    let _ = std::fs::remove_file(&plan);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.starts_with("ggpdes: ") && err.contains("unknown variant `LinkPartition`"),
        "{err}"
    );
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
}

/// A misspelt section of a `--chaos-plan` is refused by name, not read past
/// into a different plan.
#[test]
fn a_chaos_plan_with_a_misspelt_section_is_a_one_line_exit_2() {
    let plan = tmp_path("misspelt-plan.json");
    std::fs::write(&plan, r#"{"seed":1,"dealy":{"prob":0.1}}"#).expect("write plan");
    let out = run_bounded(
        &["--end", "2", "--chaos-plan", plan.to_str().expect("utf-8")],
        Duration::from_secs(30),
    );
    let _ = std::fs::remove_file(&plan);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.starts_with("ggpdes: ") && err.contains("unknown field `dealy`"),
        "{err}"
    );
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
}

/// A reader that closes stdout early (`ggpdes … | head -1`) is not a crash:
/// the report and the gantt stop quietly, nothing panics.
#[test]
fn a_closed_stdout_is_not_a_panic() {
    let mut child = Command::new(BIN)
        .args(["--runtime", "vm", "--end", "4", "--json", "--gantt"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn ggpdes");
    drop(child.stdout.take()); // the read end goes before the run prints
    let out = child.wait_with_output().expect("collect output");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(out.status.code(), Some(0), "{err}");
}

/// The `(scheduler, gvt)` pairs the conservative runtime accepts report the
/// system they actually ran, and `--max-recoveries` puts it under the
/// supervisor like any real-thread run.
#[test]
fn cons_reports_the_system_it_ran_and_accepts_a_retry_budget() {
    for (system, gvt, name) in [
        ("gg", "sync", "GG-PDES-Sync"),
        ("baseline", "async", "Baseline-Async"),
    ] {
        let out = run_bounded(
            &[
                "--runtime",
                "cons",
                "--threads",
                "4",
                "--lps-per-thread",
                "4",
                "--end",
                "4",
                "--system",
                system,
                "--gvt",
                gvt,
                "--max-recoveries",
                "1",
                "--verify",
                "--json",
            ],
            Duration::from_secs(120),
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{system}/{gvt}: {err}");
        assert!(err.contains("verify:"), "{system}/{gvt}: oracle check ran");
        let v = serde_json::parse(&String::from_utf8_lossy(&out.stdout)).expect("json");
        assert_eq!(str_field(&v, "system"), name);
        assert_eq!(str_field(&v, "protocol"), "conservative");
    }
}

#[test]
fn never_connecting_peer_exits_nonzero_within_the_timeout() {
    // A port nobody listens on: the mesh handshake must give up at the
    // configured deadline with a clean error, never hang.
    let dead = format!("127.0.0.1:{}", free_port());
    let listen = format!("127.0.0.1:{}", free_port());
    let t0 = Instant::now();
    let out = run_bounded(
        &[
            "--runtime",
            "dist",
            "--shards",
            "2",
            "--shard-id",
            "1",
            "--listen",
            &listen,
            "--connect",
            &dead,
            "--connect-timeout-secs",
            "2",
            "--end",
            "2",
        ],
        Duration::from_secs(30),
    );
    assert_eq!(out.status.code(), Some(1), "timeout is a runtime failure");
    assert!(
        t0.elapsed() < Duration::from_secs(15),
        "must exit near the 2s deadline, took {:?}",
        t0.elapsed()
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("timed out"),
        "mention the handshake timeout, got: {err}"
    );
}
