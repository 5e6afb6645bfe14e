//! End-to-end tests: every system configuration must commit exactly the
//! trace the sequential oracle commits, deterministically.

use models::{LocalityPattern, Phold, PholdConfig};
use pdes_core::{run_sequential, AffinityPolicy, EngineConfig, GvtMode, Scheduler};
use sim_rt::{run_sim, RunConfig, SystemConfig};
use std::sync::Arc;

fn engine_cfg(end: f64) -> EngineConfig {
    EngineConfig::default()
        .with_end_time(end)
        .with_seed(42)
        .with_gvt_interval(25)
        .with_zero_counter_threshold(250)
}

fn machine_small() -> machine::MachineConfig {
    machine::MachineConfig::small(4, 2)
}

#[test]
fn all_six_systems_match_oracle_on_balanced_phold() {
    let threads = 8;
    let model = Arc::new(Phold::new(PholdConfig::balanced(threads, 4)));
    let ecfg = engine_cfg(8.0);
    let oracle = run_sequential(&model, &ecfg, None);
    assert!(
        oracle.committed > 100,
        "oracle committed {}",
        oracle.committed
    );

    for sys in SystemConfig::ALL_SIX {
        let rc = RunConfig::new(threads, ecfg.clone(), sys).with_machine(machine_small());
        let r = run_sim(&model, &rc);
        assert!(r.completed, "{} did not finish", sys.name());
        assert_eq!(r.gvt_regressions, 0, "{} regressed GVT", sys.name());
        assert_eq!(
            r.metrics.committed,
            oracle.committed,
            "{}: committed {} vs oracle {}",
            sys.name(),
            r.metrics.committed,
            oracle.committed
        );
        assert_eq!(
            r.metrics.commit_digest,
            oracle.commit_digest,
            "{}: commit digest mismatch",
            sys.name()
        );
        assert_eq!(
            r.digests,
            oracle.state_digests,
            "{}: final LP states differ",
            sys.name()
        );
    }
}

#[test]
fn imbalanced_phold_matches_oracle_and_deschedules() {
    let threads = 8;
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        4,
        12.0,
        LocalityPattern::Linear,
    )));
    // Short run: use an aggressive deactivation threshold so even the
    // barrier-GVT systems (whose idle threads park at barriers instead of
    // accumulating idle cycles) de-schedule within the test horizon.
    let ecfg = engine_cfg(12.0).with_zero_counter_threshold(60);
    let oracle = run_sequential(&model, &ecfg, None);

    for sys in SystemConfig::ALL_SIX {
        let rc = RunConfig::new(threads, ecfg.clone(), sys).with_machine(machine_small());
        let r = run_sim(&model, &rc);
        assert!(r.completed, "{} did not finish", sys.name());
        assert_eq!(
            r.metrics.commit_digest,
            oracle.commit_digest,
            "{}: digest mismatch",
            sys.name()
        );
        if sys.demand_driven() {
            assert!(
                r.metrics.max_descheduled > 0,
                "{} never de-scheduled anything on an imbalanced model",
                sys.name()
            );
        }
    }
}

#[test]
fn sim_is_deterministic() {
    let threads = 4;
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        2,
        10.0,
        LocalityPattern::Linear,
    )));
    let ecfg = engine_cfg(10.0);
    let sys = SystemConfig::ALL_SIX[5]; // GG-PDES-Async
    let rc = RunConfig::new(threads, ecfg, sys).with_machine(machine_small());
    let a = run_sim(&model, &rc);
    let b = run_sim(&model, &rc);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.report.virtual_ns, b.report.virtual_ns);
    assert_eq!(a.digests, b.digests);
}

#[test]
fn activity_timeline_records_descheduling() {
    let threads = 8;
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        4,
        12.0,
        LocalityPattern::Linear,
    )));
    let ecfg = engine_cfg(12.0).with_zero_counter_threshold(60);
    let sys = SystemConfig::ALL_SIX[5]; // GG-PDES-Async
    let rc = RunConfig::new(threads, ecfg, sys)
        .with_machine(machine_small())
        .with_telemetry(telemetry::TelemetryConfig::on());
    let r = run_sim(&model, &rc);
    let trace = r.telemetry.as_ref().expect("telemetry is on");
    let timeline = metrics::transitions_from_trace(trace, threads);
    assert!(
        !timeline.is_empty(),
        "an imbalanced run must record scheduling transitions"
    );
    // Transitions are time-ordered and alternate sensibly per thread.
    let mut last_ns = 0;
    let mut state: std::collections::BTreeMap<usize, bool> = Default::default();
    for &(ns, t, s) in &timeline {
        assert!(ns >= last_ns, "timeline must be time-ordered");
        last_ns = ns;
        if let Some(&prev) = state.get(&t) {
            assert_ne!(prev, s, "thread {t} recorded the same state twice");
        } else {
            assert!(!s, "a thread's first transition is de-scheduling");
        }
        state.insert(t, s);
    }
}

/// Eight threads on four contexts: every yield the machine counts was made
/// by the yield tier for one of its three causes, and only GG-PDES makes
/// any (under Barrier GVT for the net-negative one alone).
#[test]
fn every_voluntary_yield_has_a_cause() {
    let threads = 8;
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        4,
        12.0,
        LocalityPattern::Linear,
    )));
    for sys in SystemConfig::ALL_SIX {
        let rc = RunConfig::new(threads, engine_cfg(12.0), sys)
            .with_machine(machine::MachineConfig::small(2, 2));
        let m = run_sim(&model, &rc).metrics;
        let by = m.yields_by_cause.expect("the VM reports the split");
        assert_eq!(by.total(), m.voluntary_yields, "{}", sys.name());
        match (sys.scheduler, sys.gvt) {
            (sim_rt::Scheduler::GgPdes, sim_rt::GvtMode::Async) => assert!(
                by.blocked > 0 && by.net_negative > 0 && by.turned_over > 0,
                "{by}"
            ),
            (sim_rt::Scheduler::GgPdes, sim_rt::GvtMode::Sync) => {
                assert_eq!((by.blocked, by.turned_over), (0, 0), "{by}")
            }
            _ => assert_eq!(by.total(), 0, "{}", sys.name()),
        }
    }
}

/// Coast-forward is host work the VM does not charge, so its count is
/// pinned here: a seeded thrash-shaped run (16 events in flight under a
/// window of 16, a snapshot every 8th event) re-executes exactly this many
/// events — rebuilding states rollbacks left stale and replaying to mid-gap
/// fossil cuts — beside the rollbacks it undoes, and commits what the
/// oracle commits.
#[test]
fn coasted_events_are_pinned_on_a_thrashing_run() {
    let model = Arc::new(Phold::new(PholdConfig::balanced(2, 8)));
    let ecfg = engine_cfg(400.0)
        .with_optimism_window(Some(16.0))
        .with_snapshot_period(8)
        .with_seed(24301);
    let gg_async = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
    let rc = RunConfig::new(2, ecfg.clone(), gg_async).with_machine(machine_small());
    let r = run_sim(&model, &rc);
    assert!(r.completed);
    assert_eq!(
        r.metrics.commit_digest,
        run_sequential(&model, &ecfg, None).commit_digest
    );
    assert_eq!((r.metrics.rolled_back, r.metrics.coasted), (536, 3929));
}
