//! Real-thread end-to-end tests: every configuration, running with genuine
//! concurrency, must commit exactly the sequential oracle's trace.

use models::{LocalityPattern, Phold, PholdConfig};
use pdes_core::{run_sequential, EngineConfig, SystemConfig};
use std::sync::Arc;
use thread_rt::{run_threads, RtRunConfig};

fn engine_cfg(end: f64) -> EngineConfig {
    EngineConfig::default()
        .with_end_time(end)
        .with_seed(77)
        .with_gvt_interval(20)
        .with_zero_counter_threshold(60)
}

#[test]
fn all_six_systems_match_oracle_with_real_threads() {
    let threads = 4;
    let model = Arc::new(Phold::new(PholdConfig::balanced(threads, 4)));
    let ecfg = engine_cfg(6.0);
    let oracle = run_sequential(&model, &ecfg, None);
    assert!(oracle.committed > 50);

    for sys in SystemConfig::ALL_SIX {
        let rc = RtRunConfig::new(threads, ecfg.clone(), sys);
        let r = run_threads(&model, &rc).expect("run completes");
        assert_eq!(r.gvt_regressions, 0, "{} regressed GVT", sys.name());
        assert_eq!(
            r.metrics.committed,
            oracle.committed,
            "{}: committed mismatch",
            sys.name()
        );
        assert_eq!(
            r.metrics.commit_digest,
            oracle.commit_digest,
            "{}: digest mismatch",
            sys.name()
        );
        assert_eq!(r.digests, oracle.state_digests, "{}: states", sys.name());
    }
}

#[test]
fn imbalanced_model_deschedules_and_matches_oracle() {
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
    for sys in [SystemConfig::ALL_SIX[3], SystemConfig::ALL_SIX[5]] {
        let rc = RtRunConfig::new(threads, ecfg.clone(), sys);
        let r = run_threads(&model, &rc).expect("run completes");
        assert_eq!(
            r.metrics.commit_digest,
            oracle.commit_digest,
            "{}: digest mismatch",
            sys.name()
        );
    }
}

#[test]
fn oversubscribed_run_completes() {
    // More threads than this host has cores — the demand-driven point.
    let threads = 8;
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        2,
        4,
        6.0,
        LocalityPattern::Linear,
    )));
    let ecfg = engine_cfg(6.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let rc = RtRunConfig::new(threads, ecfg, SystemConfig::ALL_SIX[5]);
    let r = run_threads(&model, &rc).expect("run completes");
    assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
    assert_eq!(r.metrics.committed, oracle.committed);
}

#[test]
fn repeated_runs_always_match_oracle() {
    // Different interleavings each run; the committed trace must not vary.
    let threads = 3;
    let model = Arc::new(Phold::new(PholdConfig::balanced(threads, 3)));
    let ecfg = engine_cfg(4.0);
    let oracle = run_sequential(&model, &ecfg, None);
    for i in 0..5 {
        let rc = RtRunConfig::new(threads, ecfg.clone(), SystemConfig::ALL_SIX[5]);
        let r = run_threads(&model, &rc).expect("run completes");
        assert_eq!(r.metrics.commit_digest, oracle.commit_digest, "run {i}");
    }
}

#[test]
fn dd_pdes_with_controller_matches_oracle_under_stress() {
    // DD-PDES exercises the controller thread + global lock path.
    let threads = 6;
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        3,
        3,
        6.0,
        LocalityPattern::Strided,
    )));
    let ecfg = engine_cfg(6.0);
    let oracle = run_sequential(&model, &ecfg, None);
    for i in 0..3 {
        let rc = RtRunConfig::new(threads, ecfg.clone(), SystemConfig::ALL_SIX[3]);
        let r = run_threads(&model, &rc).expect("run completes");
        assert_eq!(r.metrics.commit_digest, oracle.commit_digest, "run {i}");
        assert_eq!(r.gvt_regressions, 0, "run {i}");
    }
}

#[test]
fn dynamic_affinity_runs_on_real_threads() {
    use pdes_core::{AffinityPolicy, GvtMode, Scheduler};
    let threads = 4;
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        2,
        6.0,
        LocalityPattern::Linear,
    )));
    let ecfg = engine_cfg(6.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Dynamic);
    let rc = RtRunConfig::new(threads, ecfg, sys);
    let r = run_threads(&model, &rc).expect("run completes");
    assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
}

#[test]
fn sparse_snapshots_and_window_on_real_threads() {
    let threads = 4;
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        2,
        6.0,
        LocalityPattern::Linear,
    )));
    let ecfg = engine_cfg(6.0)
        .with_snapshot_period(5)
        .with_optimism_window(Some(1.0));
    let oracle = run_sequential(&model, &ecfg, None);
    let rc = RtRunConfig::new(threads, ecfg, SystemConfig::ALL_SIX[5]);
    let r = run_threads(&model, &rc).expect("run completes");
    assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
    assert_eq!(r.digests, oracle.state_digests);
}
