//! Chaos-harness tests for the virtual-machine runtime.
//!
//! The VM is single-threaded and deterministic, so — unlike the real-thread
//! suite — every scenario here replays identically: a safe plan always
//! commits the oracle trace, and a liveness plan always stalls at the same
//! virtual time with the same dump.

use models::{LocalityPattern, Phold, PholdConfig};
use pdes_core::{
    run_sequential, DelayFault, EngineConfig, FaultPlan, ReorderFault, StragglerFault, WakeupFault,
};
use sim_rt::{run_sim, RunConfig, SystemConfig};
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

/// GG-PDES-Async: the headline demand-driven system.
fn gg_async() -> SystemConfig {
    SystemConfig::ALL_SIX[5]
}

#[test]
fn safe_fault_plans_match_oracle_on_vm() {
    let threads = 4;
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        2,
        8.0,
        LocalityPattern::Linear,
    )));
    let ecfg = engine_cfg(8.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let plan = FaultPlan {
        seed: 0xBADCAB,
        delay: Some(DelayFault { prob: 0.2 }),
        reorder: Some(ReorderFault { prob: 0.5 }),
        straggler: Some(StragglerFault {
            prob: 0.05,
            max_storms: 16,
        }),
        ..FaultPlan::default()
    };
    for sys in [SystemConfig::ALL_SIX[3], gg_async()] {
        let rc = RunConfig::new(threads, ecfg.clone(), sys)
            .with_machine(machine_small())
            .with_faults(plan.clone());
        let r = run_sim(&model, &rc);
        assert!(r.completed, "{}: stalled under a safe plan", sys.name());
        assert!(r.stall.is_none(), "{}: unexpected stall dump", sys.name());
        assert_eq!(
            r.invariants.gvt_regressions,
            0,
            "{}: GVT regressed",
            sys.name()
        );
        assert_eq!(
            r.metrics.commit_digest,
            oracle.commit_digest,
            "{}: digest diverged under safe faults",
            sys.name()
        );
        assert_eq!(r.digests, oracle.state_digests, "{}: states", sys.name());
        let c = r.fault_counts;
        assert!(
            c.delayed + c.reordered + c.stragglers > 0,
            "{}: plan was supposed to fire (counts {c:?})",
            sys.name()
        );
    }
}

#[test]
fn safe_chaos_runs_are_deterministic() {
    let threads = 4;
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        2,
        8.0,
        LocalityPattern::Linear,
    )));
    let ecfg = engine_cfg(8.0);
    let rc = RunConfig::new(threads, ecfg, gg_async())
        .with_machine(machine_small())
        .with_faults(FaultPlan::chaos(7));
    let a = run_sim(&model, &rc);
    let b = run_sim(&model, &rc);
    assert!(a.completed && b.completed);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.fault_counts, b.fault_counts, "decision streams replay");
}

/// Lost wake-ups on the VM: the run must end with `completed == false` and
/// a structured stall dump — run_sim's contract is that it never panics and
/// never hangs on a wedged protocol.
#[test]
fn lost_wakeup_stalls_vm_with_dump() {
    let threads = 4;
    // Many activity-epoch shifts so parked threads are guaranteed to have
    // mail at some Aware phase (see the thread-rt twin of this test).
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        2,
        8.0,
        LocalityPattern::Linear,
    )));
    let ecfg = engine_cfg(40.0).with_zero_counter_threshold(8);

    // Sanity: faults off, same seed completes and matches the oracle.
    let oracle = run_sequential(&model, &ecfg, None);
    let clean = run_sim(
        &model,
        &RunConfig::new(threads, ecfg.clone(), gg_async()).with_machine(machine_small()),
    );
    assert!(clean.completed);
    assert_eq!(clean.metrics.commit_digest, oracle.commit_digest);
    assert!(
        clean.metrics.max_descheduled > 0,
        "model must deactivate threads for the lost-wakeup fault to bite"
    );

    let plan = FaultPlan {
        seed: 77,
        wakeup: Some(WakeupFault {
            lose_prob: 1.0,
            spurious_prob: 0.0,
            max_lost: u64::MAX,
        }),
        ..FaultPlan::default()
    };
    let rc = RunConfig::new(threads, ecfg, gg_async())
        .with_machine(machine_small())
        .with_faults(plan)
        .with_watchdog_ns(Some(2_000_000_000)); // 2 virtual seconds
    let r = run_sim(&model, &rc);
    assert!(
        !r.completed,
        "a run with every wake-up lost cannot complete"
    );
    let dump = r.stall.expect("stall dump captured");
    assert!(r.fault_counts.lost_wakeups > 0, "the fault fired");
    assert_eq!(dump.threads.len(), threads);
    assert!(
        dump.threads
            .iter()
            .any(|t| !t.active || t.phase == "parked"),
        "a stranded thread shows up in the dump: {dump}"
    );
    assert!(dump.to_string().contains("watchdog") || dump.to_string().contains("deadlock"));
}

#[test]
fn fault_free_vm_run_never_trips_tight_watchdog() {
    let threads = 4;
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        2,
        8.0,
        LocalityPattern::Linear,
    )));
    let ecfg = engine_cfg(8.0);
    let rc = RunConfig::new(threads, ecfg, gg_async())
        .with_machine(machine_small())
        .with_watchdog_ns(Some(1_000_000_000)); // 1 virtual second
    let r = run_sim(&model, &rc);
    assert!(r.completed, "healthy run must never trip the watchdog");
    assert!(r.stall.is_none());
    assert_eq!(r.fault_counts, pdes_core::FaultCounts::default());
}
