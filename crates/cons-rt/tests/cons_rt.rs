//! End-to-end invariants of the conservative runtime: the zero-lookahead
//! refusal, LBTS-cut checkpoints and resuming from one, protocol-tagged
//! metrics, and equivalence under the dynamic affinity policy.

use std::sync::Arc;
use std::time::Duration;

use cons_rt::{run_cons, ConsError, ConsRunConfig, Conservative};
use models::{LocalityPattern, Phold, PholdConfig};
use pdes_core::{
    run_sequential, AffinityPolicy, Checkpoint, EngineConfig, FaultPlan, GvtMode, LpId, Model,
    Scheduler, SendCtx, SystemConfig,
};

fn engine(end: f64) -> EngineConfig {
    EngineConfig::default()
        .with_end_time(end)
        .with_seed(77)
        .with_gvt_interval(10)
        .with_zero_counter_threshold(100)
}

fn sys() -> SystemConfig {
    SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant)
}

/// A model that never overrides [`Model::lookahead`], i.e. promises nothing.
struct NoPromise;

impl Model for NoPromise {
    type State = u64;
    type Payload = ();

    fn num_lps(&self) -> usize {
        4
    }
    fn init_state(&self, _lp: LpId) -> u64 {
        0
    }
    fn init_events(&self, lp: LpId, _state: &mut u64, ctx: &mut SendCtx<'_, ()>) {
        ctx.send(lp, 1.0, ());
    }
    fn handle_event(&self, lp: LpId, state: &mut u64, _p: &(), ctx: &mut SendCtx<'_, ()>) {
        *state += 1;
        ctx.send(lp, 1.0, ());
    }
    fn state_digest(&self, state: &u64) -> u64 {
        *state
    }
}

#[test]
fn zero_lookahead_is_refused_with_a_structured_error() {
    let model = Arc::new(NoPromise);
    let rc = ConsRunConfig::new(2, engine(5.0), sys());
    match run_cons(&model, &rc) {
        Err(ConsError::ZeroLookahead { lookahead }) => {
            assert_eq!(lookahead, 0.0);
        }
        Ok(_) => panic!("zero lookahead must not run"),
        Err(e) => panic!("wrong error: {e}"),
    }
    // The refusal happens before any thread spawns, so it is instant — and
    // the message explains *why* (deadlock avoidance needs the margin).
    let msg = run_cons(&model, &rc).unwrap_err().to_string();
    assert!(msg.contains("lookahead"), "unhelpful message: {msg}");
    assert!(msg.contains("deadlock"), "unhelpful message: {msg}");
}

/// The run configuration is the real-thread runtime's, fault plan included;
/// a plan that holds messages back cannot be honoured without rollback and
/// is refused, while scripted worker kills (the supervisor's business) pass.
#[test]
fn message_faults_are_refused_but_kill_scripts_are_not() {
    let model = Arc::new(Phold::new(PholdConfig::balanced(2, 4)));
    let chaos = ConsRunConfig::new(2, engine(4.0), sys()).with_faults(FaultPlan::chaos(7));
    assert!(matches!(
        run_cons(&model, &chaos),
        Err(ConsError::MessageFaults)
    ));
    let kills = ConsRunConfig::new(2, engine(4.0), sys())
        .with_faults(FaultPlan::default().with_kill(0, u64::MAX));
    run_cons(&model, &kills).expect("a kill script that never fires is admissible");
}

#[test]
fn metrics_carry_the_conservative_protocol_tag() {
    let threads = 4;
    let model = Arc::new(Phold::new(PholdConfig::balanced(threads, 4)));
    let rc = ConsRunConfig::new(threads, engine(8.0), sys());
    let r = run_cons(&model, &rc).expect("run completes");
    assert_eq!(r.metrics.protocol, "conservative");
    assert!(r.metrics.null_messages_sent > 0);
    assert!(r.metrics.lbts_rounds > 0);
    assert_eq!(r.metrics.lbts_rounds, r.metrics.gvt_rounds);
    // Conservative execution never speculates: nothing to roll back, no
    // anti-messages, processed == committed.
    assert_eq!(r.metrics.rolled_back, 0);
    assert_eq!(r.metrics.antis_sent, 0);
    assert_eq!(r.metrics.processed, r.metrics.committed);
}

#[test]
fn checkpoint_is_written_at_an_lbts_cut_and_reloads() {
    let threads = 4;
    let end = 12.0;
    let model = Arc::new(Phold::new(PholdConfig::balanced(threads, 4)));
    let dir = std::env::temp_dir().join(format!("cons-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("cut.bin");
    let rc = ConsRunConfig::new(threads, engine(end), sys())
        .with_checkpoint_every(3)
        .with_checkpoint_path(path.clone());
    let r = run_cons(&model, &rc).expect("run completes");
    assert!(r.metrics.committed > 0);

    let cut: Checkpoint<u64, ()> = Checkpoint::read(&path).expect("checkpoint reloads");
    assert!(cut.gvt.as_f64() > 0.0, "cut at time zero");
    // No upper bound on `cut.gvt`: once the event population drains at the
    // end of the run, the LBTS guarantee (min pending + lookahead) jumps
    // past `end_time`, and a final-round cut legitimately lands there.
    assert_eq!(cut.lps.len(), model.num_lps());
    // Every in-flight event of the cut is at-or-above its LBTS.
    for ev in &cut.events {
        assert!(ev.recv_time() >= cut.gvt, "event below the cut");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The attempt runner is shared with the optimistic protocol, so a
/// conservative run resumes from an LBTS cut the same way: a first leg to
/// half the horizon leaves its newest cut on disk, a second leg restores it
/// (fresh channel clocks, bound seeded from the cut) and must finish on the
/// trace of one uninterrupted sequential run — still without a rollback.
#[test]
fn a_run_resumed_from_an_lbts_cut_lands_on_the_oracle_trace() {
    let threads = 4;
    let (half, end) = (6.0, 12.0);
    let model = Arc::new(Phold::new(PholdConfig::balanced(threads, 4)));
    let oracle = run_sequential(&model, &engine(end), None);
    let dir = std::env::temp_dir().join(format!("cons-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("cut.bin");
    let first_leg = ConsRunConfig::new(threads, engine(half), sys())
        .with_checkpoint_every(3)
        .with_checkpoint_path(path.clone());
    run_cons(&model, &first_leg).expect("first leg completes");
    let cut: Checkpoint<u64, ()> = Checkpoint::read(&path).expect("checkpoint reloads");
    assert!(
        cut.gvt.as_f64() > 0.0 && cut.gvt.as_f64() < end,
        "cut mid-run"
    );

    let rc = ConsRunConfig::new(threads, engine(end), sys());
    let r = thread_rt::run_threads_attempt::<_, Conservative>(&model, &rc, Some(&cut), None, None)
        .outcome
        .expect("resumed run completes");
    assert!(r.metrics.processed > 0, "the second leg had work left");
    assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
    assert_eq!(r.metrics.committed, oracle.committed);
    assert_eq!(r.digests, oracle.state_digests);
    assert_eq!(r.metrics.rolled_back, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dynamic_affinity_preserves_the_oracle_trace() {
    let threads = 8;
    let ecfg = engine(6.0);
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        4,
        6.0,
        LocalityPattern::Strided,
    )));
    let oracle = run_sequential(&model, &ecfg, None);
    let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Dynamic);
    let rc = ConsRunConfig::new(threads, ecfg, sys).with_watchdog(Some(Duration::from_secs(60)));
    let r = run_cons(&model, &rc).expect("run completes");
    assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
    assert_eq!(r.digests, oracle.state_digests);
}

#[test]
fn telemetry_rounds_match_lbts_rounds() {
    let threads = 2;
    let model = Arc::new(Phold::new(PholdConfig::balanced(threads, 4)));
    let rc = ConsRunConfig::new(threads, engine(6.0), sys())
        .with_telemetry(telemetry::TelemetryConfig::on());
    let r = run_cons(&model, &rc).expect("run completes");
    let tel = r.telemetry.expect("telemetry was on");
    // One snapshot per completed LBTS round, so the round-stream exporters
    // built for the optimistic runtimes work unchanged.
    assert_eq!(tel.rounds.len() as u64, r.metrics.lbts_rounds);
}
