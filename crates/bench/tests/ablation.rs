//! Ablations of the design choices DESIGN.md calls out, one run per
//! configuration, each holding the *shape* the reproduction's headline result
//! rests on:
//!
//! * cost-model robustness — the GG-over-baseline advantage must survive
//!   ±50% perturbation of the virtual machine's cost constants;
//! * GVT frequency and zero-counter threshold — the paper fixes 200 / 2000
//!   "based on static analysis"; sweeping the ratio must not move the
//!   committed trace;
//! * sparse state saving and bounded optimism — same trace at every
//!   snapshot period, no more rollbacks under a tight window.

use bench_support::Scale;
use models::{LocalityPattern, Phold, PholdConfig};
use pdes_core::EngineConfig;
use sim_rt::{run_sim, RunConfig, SimCost, SystemConfig};
use std::sync::Arc;

const GG_ASYNC: SystemConfig = SystemConfig::ALL_SIX[5];
const BASELINE_ASYNC: SystemConfig = SystemConfig::ALL_SIX[1];

fn quick_model(threads: usize) -> Arc<Phold> {
    let scale = Scale::quick();
    let mut cfg = PholdConfig::imbalanced(
        threads,
        scale.phold_lps,
        4,
        scale.end_time,
        LocalityPattern::Linear,
    );
    cfg.lookahead = scale.lookahead;
    cfg.mean_delay = scale.mean_delay;
    Arc::new(Phold::new(cfg))
}

/// GG-Async's metrics on the quick imbalanced PHOLD under `engine`.
fn gg_run(threads: usize, engine: EngineConfig) -> metrics::RunMetrics {
    let rc = RunConfig::new(threads, engine, GG_ASYNC).with_machine(Scale::quick().machine());
    run_sim(&quick_model(threads), &rc).metrics
}

#[test]
fn gg_beats_baseline_under_every_cost_perturbation() {
    let scale = Scale::quick();
    let threads = scale.hw_threads() * 2;
    let model = quick_model(threads);
    for (name, factor) in [("half", 0.5f64), ("nominal", 1.0), ("double", 2.0)] {
        let base = SimCost::default();
        let scaled = |v: u64| ((v as f64 * factor) as u64).max(1);
        let cost = SimCost {
            poll: scaled(base.poll),
            recv_msg: scaled(base.recv_msg),
            proc_event: base.proc_event, // the unit of work stays fixed
            send_msg: scaled(base.send_msg),
            rollback_event: scaled(base.rollback_event),
            gvt_phase: scaled(base.gvt_phase),
            phase_check: scaled(base.phase_check),
            sched_op: scaled(base.sched_op),
            affinity_op: scaled(base.affinity_op),
            scan_per_thread: scaled(base.scan_per_thread),
            idle_polls_per_step: base.idle_polls_per_step,
        };
        let rate = |sys| {
            let mut rc = RunConfig::new(threads, scale.engine(), sys).with_machine(scale.machine());
            rc.cost = cost.clone();
            run_sim(&model, &rc).metrics.committed_event_rate()
        };
        // GG must stay ahead of Baseline-Async on the over-subscribed
        // imbalanced workload under every perturbation.
        let (gg, baseline) = (rate(GG_ASYNC), rate(BASELINE_ASYNC));
        assert!(
            gg > baseline,
            "{name}: GG ({gg:.0}) must beat baseline ({baseline:.0})"
        );
    }
}

#[test]
fn gvt_interval_does_not_move_the_committed_trace() {
    let scale = Scale::quick();
    let threads = scale.hw_threads() * 2;
    let digest = |interval: u32| {
        let engine = scale
            .engine()
            .with_gvt_interval(interval)
            .with_zero_counter_threshold(interval * 10);
        gg_run(threads, engine).commit_digest
    };
    let nominal = digest(25);
    for interval in [10, 100] {
        assert_eq!(digest(interval), nominal, "interval {interval}");
    }
}

#[test]
fn zero_counter_threshold_does_not_move_the_committed_trace() {
    let scale = Scale::quick();
    let threads = scale.hw_threads() * 2;
    let digest = |mult: u32| {
        let engine = scale
            .engine()
            .with_zero_counter_threshold(scale.gvt_interval * mult);
        gg_run(threads, engine).commit_digest
    };
    let nominal = digest(10);
    for mult in [2, 40] {
        assert_eq!(digest(mult), nominal, "threshold {mult}x interval");
    }
}

#[test]
fn snapshot_period_does_not_move_the_committed_trace() {
    // Sparse snapshots trade copy bandwidth for coast-forward replay; the
    // committed trace is identical at every period.
    let scale = Scale::quick();
    let threads = scale.hw_threads();
    let digest =
        |period| gg_run(threads, scale.engine().with_snapshot_period(period)).commit_digest;
    let every_event = digest(1);
    for period in [4, 16] {
        assert_eq!(digest(period), every_event, "period {period}");
    }
}

#[test]
fn a_tight_optimism_window_does_not_increase_rollbacks() {
    // A tight window suppresses rollbacks at the cost of throttled progress.
    let scale = Scale::quick();
    let threads = scale.hw_threads() * 2;
    let rollbacks = |w| gg_run(threads, scale.engine().with_optimism_window(w)).rolled_back;
    let (tight, open) = (rollbacks(Some(0.5)), rollbacks(None));
    assert!(
        tight <= open,
        "window must not increase rollbacks (tight {tight} vs open {open})"
    );
}
