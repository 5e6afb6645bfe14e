//! Checkpoint/restart and supervised-recovery tests for the real-thread
//! runtime.
//!
//! The headline invariant: a run that is killed mid-flight and recovered
//! from a GVT-aligned checkpoint commits the *exact* event trace of an
//! uninterrupted run — verified against the sequential oracle, which any
//! correct Time Warp execution must match bit-for-bit.

use models::{LocalityPattern, Phold, PholdConfig};
use pdes_core::{run_sequential, EngineConfig, FaultPlan, Model, SystemConfig, VirtualTime};
use std::sync::Arc;
use std::time::Duration;
use thread_rt::{
    run_supervised, run_threads_attempt, Optimistic, RtRunConfig, RtShared, SupervisorConfig,
};

fn engine_cfg(end: f64) -> EngineConfig {
    EngineConfig::default()
        .with_end_time(end)
        .with_seed(77)
        .with_gvt_interval(20)
        .with_zero_counter_threshold(60)
}

fn imbalanced_model(threads: usize) -> Arc<Phold> {
    Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        2,
        8.0,
        LocalityPattern::Linear,
    )))
}

fn gg_async() -> SystemConfig {
    SystemConfig::ALL_SIX[5]
}

fn supervisor(max: u32) -> SupervisorConfig {
    // Fast backoff keeps the suite snappy; the doubling itself is covered.
    SupervisorConfig::new(max).with_backoff(Duration::from_millis(1))
}

#[test]
fn checkpointed_run_matches_oracle_and_restores_identically() {
    let threads = 4;
    let model = imbalanced_model(threads);
    let ecfg = engine_cfg(8.0);
    let oracle = run_sequential(&model, &ecfg, None);

    // A fault-free checkpointing run must be unaffected by the armed rounds.
    let rc = RtRunConfig::new(threads, ecfg.clone(), gg_async()).with_checkpoint_every(3);
    let attempt = run_threads_attempt::<_, Optimistic>(&model, &rc, None, None, None);
    let r = attempt.outcome.expect("checkpointed run completes");
    assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
    assert_eq!(r.digests, oracle.state_digests);
    let ckpt = attempt
        .checkpoint
        .expect("a multi-round run must have assembled a checkpoint");
    assert!(
        ckpt.gvt > pdes_core::VirtualTime::ZERO,
        "cut not at genesis"
    );
    assert_eq!(ckpt.lps.len(), model.num_lps());
    // The newest cut may be anywhere up to the termination round, but never
    // beyond the oracle's committed trace.
    assert!(
        ckpt.total_committed() > 0 && ckpt.total_committed() <= oracle.committed,
        "cut at {} of {}",
        ckpt.total_committed(),
        oracle.committed
    );

    // Restoring that cut into a fresh run must finish on the oracle trace.
    let resumed = run_threads_attempt::<_, Optimistic>(&model, &rc, Some(&ckpt), None, None)
        .outcome
        .expect("resumed run completes");
    assert_eq!(resumed.metrics.commit_digest, oracle.commit_digest);
    assert_eq!(resumed.metrics.committed, oracle.committed);
    assert_eq!(resumed.digests, oracle.state_digests);
}

/// Regression for the round that is both armed and terminating, stepped by
/// hand on the shared state so the window stays open as long as the test
/// likes: `compute_gvt` sets `terminated` before the pseudo-controller
/// publishes the cut, and a participant already in `ckpt_await` must sit
/// that gap out. When it escaped on `terminated` its deposit was dropped
/// and the final cut never assembled.
#[test]
fn a_snapshotter_waits_out_the_gap_between_the_final_gvt_and_the_cut_publish() {
    let armed_round = || {
        let mut sh: RtShared<()> = RtShared::new(2, 2, VirtualTime::from_f64(1.0));
        sh.round.set_checkpoint_every(1);
        let (_, id) = sh.try_join_round(0); // opens round 0 and arms it
        (sh, id)
    };

    let (sh, id) = armed_round();
    assert!(!sh.ckpt_await(id + 1), "an unarmed round never waits");
    std::thread::scope(|s| {
        let waiter = s.spawn(|| sh.ckpt_await(id));
        sh.compute_gvt(); // nothing is pending anywhere: GVT = ∞ ≥ end
        assert!(sh.round.terminated());
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !waiter.is_finished(),
            "escaped before the cut was published"
        );
        sh.round.ckpt_publish(id);
        assert!(
            waiter.join().expect("waiter"),
            "released with the cut ready"
        );
    });

    // Only a teardown ends the wait without a cut.
    let (sh, id) = armed_round();
    std::thread::scope(|s| {
        let waiter = s.spawn(|| sh.ckpt_await(id));
        sh.poison_all();
        assert!(!waiter.join().expect("waiter"), "torn down: no snapshot");
    });
}

#[test]
fn supervised_fault_free_run_is_a_pass_through() {
    let threads = 4;
    let model = imbalanced_model(threads);
    let ecfg = engine_cfg(8.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let rc = RtRunConfig::new(threads, ecfg, gg_async()).with_checkpoint_every(4);
    let s = run_supervised::<_, Optimistic>(&model, &rc, &supervisor(3), None);
    assert!(!s.recovery.degraded);
    assert_eq!(s.recovery.recoveries, 0);
    assert_eq!(s.metrics.commit_digest, oracle.commit_digest);
}

/// The headline invariant (closing the loop with the PR-1 fault harness):
/// a scripted `WorkerKill` plus supervised recovery commits the exact trace
/// of an uninterrupted run, with the dead worker's LPs remapped onto the
/// survivors.
#[test]
fn kill_and_recover_commits_exact_oracle_trace() {
    let threads = 4;
    let model = imbalanced_model(threads);
    // The kill is keyed on virtual progress, not on how fast the host is:
    // under a 0.05 optimism window GVT gains at most the window plus one
    // inter-event gap (16 events in flight, mean delay 1) per round, so
    // thread 0's first active epoch [0, 4) alone takes some thirty rounds,
    // each costing it at least one cycle — cycle 10 always comes.
    let ecfg = engine_cfg(16.0).with_optimism_window(Some(0.05));
    let oracle = run_sequential(&model, &ecfg, None);
    let plan = FaultPlan::default().with_kill(0, 10);
    let rc = RtRunConfig::new(threads, ecfg, gg_async())
        .with_faults(plan)
        .with_checkpoint_every(2)
        .with_watchdog(Some(Duration::from_secs(30)));
    let s = run_supervised::<_, Optimistic>(&model, &rc, &supervisor(3), None);
    assert!(
        s.recovery.recoveries >= 1,
        "the kill must fire: {:?}",
        s.recovery.log
    );
    assert!(
        !s.recovery.degraded,
        "one kill is within the retry budget: {:?}",
        s.recovery.log
    );
    assert_eq!(
        s.metrics.commit_digest, oracle.commit_digest,
        "trace diverged"
    );
    assert_eq!(s.metrics.committed, oracle.committed);
    assert_eq!(s.digests, &oracle.state_digests[..]);
    // When the failure hit after the first checkpoint, the recovered run
    // continued one thread smaller on a remapped LP assignment.
    assert!(s.metrics.threads == threads || s.metrics.threads == threads - 1);
}

/// Graceful degradation: when every retry is killed too, the supervisor
/// finishes the run on the sequential engine from the last consistent cut —
/// it completes instead of erroring, still on the oracle trace.
#[test]
fn recovery_exhaustion_degrades_to_sequential_and_still_completes() {
    let threads = 4;
    let model = imbalanced_model(threads);
    // The optimism window stretches every attempt to dozens of rounds (see
    // `kill_and_recover_commits_exact_oracle_trace`), so thread 0 always
    // reaches cycle 5, however little of the run a resumed attempt has left.
    let ecfg = engine_cfg(16.0).with_optimism_window(Some(0.05));
    let oracle = run_sequential(&model, &ecfg, None);
    // Enough scripted kills that every attempt dies: thread 0 always exists,
    // whatever remapping did in between. The cycle counter restarts at zero
    // per attempt and a resumed attempt has less work left, so follow-up
    // kills trigger early to guarantee they land before completion.
    let plan = FaultPlan::default()
        .with_kill(0, 120)
        .with_kill(0, 5)
        .with_kill(0, 5)
        .with_kill(0, 5);
    let rc = RtRunConfig::new(threads, ecfg, gg_async())
        .with_faults(plan)
        .with_checkpoint_every(1)
        .with_watchdog(Some(Duration::from_secs(30)));
    let s = run_supervised::<_, Optimistic>(&model, &rc, &supervisor(1), None);
    assert!(
        s.recovery.degraded,
        "budget of 1 must be exhausted: {:?}",
        s.recovery.log
    );
    assert_eq!(s.recovery.recoveries, 1);
    assert_eq!(s.recovery.recovered, [0]);
    assert_eq!(s.metrics.protocol, "sequential");
    assert_eq!(s.metrics.commit_digest, oracle.commit_digest);
    assert_eq!(s.metrics.committed, oracle.committed);
    assert_eq!(s.digests, &oracle.state_digests[..]);
}

/// Checkpoints hit disk atomically and a recovered-from-disk run matches.
#[test]
fn checkpoint_file_round_trips_through_disk() {
    use pdes_core::Checkpoint;
    type PholdState = <Phold as pdes_core::Model>::State;
    type PholdPayload = <Phold as pdes_core::Model>::Payload;

    let threads = 4;
    let model = imbalanced_model(threads);
    let ecfg = engine_cfg(8.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let dir = std::env::temp_dir().join(format!("ggpdes-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("run.ckpt.json");
    let rc = RtRunConfig::new(threads, ecfg.clone(), gg_async())
        .with_checkpoint_every(3)
        .with_checkpoint_path(path.clone());
    run_threads_attempt::<_, Optimistic>(&model, &rc, None, None, None)
        .outcome
        .expect("checkpointed run completes");
    let ckpt: Checkpoint<PholdState, PholdPayload> =
        Checkpoint::read(&path).expect("checkpoint file parses");
    assert!(!path.with_extension("json.tmp").exists(), "no temp debris");
    let resumed = run_threads_attempt::<_, Optimistic>(&model, &rc, Some(&ckpt), None, None)
        .outcome
        .expect("resume from disk completes");
    assert_eq!(resumed.metrics.commit_digest, oracle.commit_digest);
    assert_eq!(resumed.digests, oracle.state_digests);
    std::fs::remove_dir_all(&dir).ok();
}
