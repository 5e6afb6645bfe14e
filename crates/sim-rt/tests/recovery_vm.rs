//! Checkpoint/restart and supervised-recovery tests for the virtual-machine
//! runtime — the same headline invariant as the real-thread suite, replayed
//! deterministically in virtual time: a run killed mid-flight and recovered
//! from a GVT-aligned checkpoint commits the *exact* event trace of an
//! uninterrupted run (sequential-oracle comparison).

use models::{LocalityPattern, Phold, PholdConfig};
use pdes_core::{run_sequential, EngineConfig, FaultPlan, Model, SupervisorConfig};
use sim_rt::{run_sim_attempt, run_sim_supervised, RunConfig, SystemConfig};
use std::sync::Arc;

fn engine_cfg(end: f64) -> EngineConfig {
    EngineConfig::default()
        .with_end_time(end)
        .with_seed(42)
        .with_gvt_interval(20)
        .with_zero_counter_threshold(60)
}

fn machine_small() -> machine::MachineConfig {
    machine::MachineConfig::small(4, 2)
}

fn gg_async() -> SystemConfig {
    SystemConfig::ALL_SIX[5]
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

#[test]
fn vm_checkpointed_run_matches_oracle_and_restores_identically() {
    let threads = 4;
    let model = imbalanced_model(threads);
    let ecfg = engine_cfg(8.0);
    let oracle = run_sequential(&model, &ecfg, None);

    // A fault-free checkpointing run must be unaffected by the armed rounds.
    let rc = RunConfig::new(threads, ecfg.clone(), gg_async())
        .with_machine(machine_small())
        .with_checkpoint_every(3);
    let attempt = run_sim_attempt(&model, &rc, None, None, None);
    let r = &attempt.outcome;
    assert!(r.completed, "checkpointed run must complete");
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
    assert!(
        ckpt.total_committed() > 0 && ckpt.total_committed() <= oracle.committed,
        "cut at {} of {}",
        ckpt.total_committed(),
        oracle.committed
    );

    // Restoring that cut into a fresh run must finish on the oracle trace.
    let resumed = run_sim_attempt(&model, &rc, Some(&ckpt), None, None).outcome;
    assert!(resumed.completed, "resumed run must complete");
    assert_eq!(resumed.metrics.commit_digest, oracle.commit_digest);
    assert_eq!(resumed.metrics.committed, oracle.committed);
    assert_eq!(resumed.digests, oracle.state_digests);
}

/// The headline invariant on the VM: a scripted `WorkerKill` plus supervised
/// recovery commits the exact trace of an uninterrupted run.
#[test]
fn vm_kill_and_recover_commits_exact_oracle_trace() {
    let threads = 4;
    let model = imbalanced_model(threads);
    let ecfg = engine_cfg(16.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let plan = FaultPlan::default().with_kill(0, 15);
    let rc = RunConfig::new(threads, ecfg, gg_async())
        .with_machine(machine_small())
        .with_faults(plan)
        .with_checkpoint_every(2);
    let s = run_sim_supervised(&model, &rc, &SupervisorConfig::new(3));
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
    assert!(s.metrics.threads == threads || s.metrics.threads == threads - 1);
}

/// Graceful degradation on the VM: when every retry is killed too, the run
/// finishes on the sequential engine from the last cut.
#[test]
fn vm_recovery_exhaustion_degrades_to_sequential_and_still_completes() {
    let threads = 4;
    let model = imbalanced_model(threads);
    let ecfg = engine_cfg(16.0);
    let oracle = run_sequential(&model, &ecfg, None);
    // The cycle counter restarts per attempt and a resumed attempt has less
    // work left, so follow-up kills trigger early to land before completion.
    let plan = FaultPlan::default()
        .with_kill(0, 120)
        .with_kill(0, 5)
        .with_kill(0, 5)
        .with_kill(0, 5);
    let rc = RunConfig::new(threads, ecfg, gg_async())
        .with_machine(machine_small())
        .with_faults(plan)
        .with_checkpoint_every(1);
    let s = run_sim_supervised(&model, &rc, &SupervisorConfig::new(1));
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

/// The VM is deterministic, so a kill-and-recover scenario replays
/// identically — including the recovery count and the remapped thread count.
#[test]
fn vm_supervised_recovery_is_deterministic() {
    let threads = 4;
    let model = imbalanced_model(threads);
    let ecfg = engine_cfg(16.0);
    let run = || {
        let plan = FaultPlan::default().with_kill(0, 15);
        let rc = RunConfig::new(threads, ecfg.clone(), gg_async())
            .with_machine(machine_small())
            .with_faults(plan)
            .with_checkpoint_every(2);
        run_sim_supervised(&model, &rc, &SupervisorConfig::new(3))
    };
    let a = run();
    let b = run();
    assert_eq!(a.recovery.recoveries, b.recovery.recoveries);
    assert_eq!(a.recovery.recovered, b.recovery.recovered);
    assert_eq!(a.recovery.degraded, b.recovery.degraded);
    assert_eq!(a.metrics.commit_digest, b.metrics.commit_digest);
    assert_eq!(a.digests, b.digests);
    assert_eq!(a.recovery.log, b.recovery.log);
}
