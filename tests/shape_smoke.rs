//! Shape smoke tests: the paper's headline qualitative results must hold at
//! test scale. These are the fast gate on the reproduction; the full curves
//! come from `cargo run --release -p ggpdes-bench --bin repro`.

use ggpdes::prelude::*;
use std::sync::Arc;

fn rate(model: &Arc<Phold>, threads: usize, sys: SystemConfig, machine: MachineConfig) -> f64 {
    let ecfg = EngineConfig::default()
        .with_end_time(8.0)
        .with_seed(42)
        .with_gvt_interval(25)
        .with_zero_counter_threshold(250);
    let rc = RunConfig::new(threads, ecfg, sys).with_machine(machine);
    let r = sim_rt::run_sim(model, &rc);
    assert!(r.completed, "{} did not complete", sys.name());
    r.metrics.committed_event_rate()
}

fn imbalanced(threads: usize, k: usize, pattern: LocalityPattern) -> Arc<Phold> {
    let mut cfg = PholdConfig::imbalanced(threads, 16, k, 8.0, pattern);
    cfg.lookahead = 0.02;
    cfg.mean_delay = 0.08;
    Arc::new(Phold::new(cfg))
}

/// §6.2–§6.3: on over-subscribed imbalanced PHOLD, GG-PDES-Async beats both
/// baselines and DD-PDES.
#[test]
fn gg_wins_on_oversubscribed_imbalanced_phold() {
    let machine = MachineConfig::small(4, 2); // 8 hw threads
    let threads = 32; // 4× over-subscribed
    let model = imbalanced(threads, 4, LocalityPattern::Linear);
    let gg = rate(&model, threads, SystemConfig::ALL_SIX[5], machine.clone());
    let dd = rate(&model, threads, SystemConfig::ALL_SIX[3], machine.clone());
    let base_sync = rate(&model, threads, SystemConfig::ALL_SIX[0], machine.clone());
    let base_async = rate(&model, threads, SystemConfig::ALL_SIX[1], machine);
    assert!(gg > base_sync, "GG {gg:.0} vs Baseline-Sync {base_sync:.0}");
    assert!(
        gg > base_async,
        "GG {gg:.0} vs Baseline-Async {base_async:.0}"
    );
    assert!(gg > dd, "GG {gg:.0} vs DD {dd:.0}");
}

/// §6.6 / Fig. 7b: under non-linear (strided) locality, dynamic affinity
/// beats constant affinity decisively.
#[test]
fn dynamic_affinity_beats_constant_on_strided_locality() {
    let machine = MachineConfig::small(4, 2);
    let threads = 32;
    let model = imbalanced(threads, 4, LocalityPattern::Strided);
    let mk = |p| SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, p);
    let dynamic = rate(
        &model,
        threads,
        mk(AffinityPolicy::Dynamic),
        machine.clone(),
    );
    let constant = rate(&model, threads, mk(AffinityPolicy::Constant), machine);
    assert!(
        dynamic > constant * 1.5,
        "dynamic {dynamic:.0} must clearly beat constant {constant:.0}"
    );
}

/// Fig. 7a: under linear locality, dynamic affinity stays within a small
/// factor of constant affinity (the paper reports a 0.5% penalty).
#[test]
fn dynamic_affinity_competitive_on_linear_locality() {
    let machine = MachineConfig::small(4, 2);
    let threads = 32;
    let model = imbalanced(threads, 4, LocalityPattern::Linear);
    let mk = |p| SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, p);
    let dynamic = rate(
        &model,
        threads,
        mk(AffinityPolicy::Dynamic),
        machine.clone(),
    );
    let constant = rate(&model, threads, mk(AffinityPolicy::Constant), machine);
    assert!(
        dynamic > constant * 0.7,
        "dynamic {dynamic:.0} must stay near constant {constant:.0}"
    );
}

/// §6.1 / Fig. 2: on balanced PHOLD the GG machinery costs almost nothing.
#[test]
fn gg_overhead_is_small_on_balanced_phold() {
    let machine = MachineConfig::small(4, 2);
    let threads = 8; // exactly the hardware
    let mut cfg = PholdConfig::balanced(threads, 16);
    cfg.lookahead = 0.02;
    cfg.mean_delay = 0.08;
    let model = Arc::new(Phold::new(cfg));
    let gg = rate(&model, threads, SystemConfig::ALL_SIX[5], machine.clone());
    let base = rate(&model, threads, SystemConfig::ALL_SIX[1], machine);
    let overhead = (base - gg) / base;
    assert!(
        overhead < 0.10,
        "GG overhead on balanced PHOLD is {:.1}% (paper: ≤ ~5%)",
        overhead * 100.0
    );
}

/// §6.2: GVT rounds must be far cheaper under GG than under the baseline
/// when the model is imbalanced and over-subscribed.
#[test]
fn gg_accelerates_gvt_rounds() {
    let machine = MachineConfig::small(4, 2);
    let threads = 32;
    let model = imbalanced(threads, 4, LocalityPattern::Linear);
    let ecfg = EngineConfig::default()
        .with_end_time(8.0)
        .with_seed(42)
        .with_gvt_interval(25)
        .with_zero_counter_threshold(250);
    let run = |sys| {
        let rc = RunConfig::new(threads, ecfg.clone(), sys).with_machine(machine.clone());
        sim_rt::run_sim(&model, &rc).metrics
    };
    let gg = run(SystemConfig::ALL_SIX[5]);
    let base = run(SystemConfig::ALL_SIX[1]);
    assert!(
        gg.gvt_secs_per_round() < base.gvt_secs_per_round(),
        "GG {:.6}s/round vs baseline {:.6}s/round",
        gg.gvt_secs_per_round(),
        base.gvt_secs_per_round()
    );
    assert!(gg.max_descheduled > 0);
    assert_eq!(base.max_descheduled, 0);
}

/// §6.2: the demand-driven system executes fewer total instructions (work
/// units) than the baseline on imbalanced workloads.
#[test]
fn gg_executes_less_work() {
    let machine = MachineConfig::small(4, 2);
    let threads = 32;
    let model = imbalanced(threads, 8, LocalityPattern::Linear);
    let ecfg = EngineConfig::default()
        .with_end_time(8.0)
        .with_seed(42)
        .with_gvt_interval(25)
        .with_zero_counter_threshold(250);
    let run = |sys| {
        let rc = RunConfig::new(threads, ecfg.clone(), sys).with_machine(machine.clone());
        sim_rt::run_sim(&model, &rc).metrics.total_work
    };
    let gg = run(SystemConfig::ALL_SIX[5]);
    let base = run(SystemConfig::ALL_SIX[1]);
    assert!(gg < base, "GG work {gg} vs baseline {base}");
}

/// DESIGN §5.8, the benchmark's `phold-thrash` shape at test scale (two
/// threads on one context, 16 events in flight under a wide window): with
/// the yield tier GG-PDES-Async keeps most of what it processes and leaves
/// Baseline-Async far behind — and on a thread that holds more events than
/// a quantum processes, the turnover trigger never fires.
#[test]
fn gg_turns_its_events_over_instead_of_thrashing() {
    let run = |lps: usize, window: f64, end: f64, sys| {
        let model = Arc::new(Phold::new(PholdConfig::balanced(2, lps)));
        let ecfg = EngineConfig::default()
            .with_end_time(end)
            .with_seed(977)
            .with_batch_size(8)
            .with_gvt_interval(25)
            .with_snapshot_period(8)
            .with_zero_counter_threshold(250)
            .with_optimism_window(Some(window));
        let rc = RunConfig::new(2, ecfg, sys).with_machine(MachineConfig::small(1, 1));
        let r = sim_rt::run_sim(&model, &rc);
        assert!(r.completed, "{} did not complete", sys.name());
        r.metrics
    };
    let (base, gg) = (SystemConfig::ALL_SIX[1], SystemConfig::ALL_SIX[5]);
    let thrash = run(8, 16.0, 400.0, gg);
    assert!(
        thrash.committed * 5 >= thrash.processed * 4,
        "committed {} of {} processed",
        thrash.committed,
        thrash.processed
    );
    let spinning = run(8, 16.0, 400.0, base);
    assert!(
        thrash.wall_secs * 4.0 <= spinning.wall_secs,
        "GG {} s vs Baseline {} s",
        thrash.wall_secs,
        spinning.wall_secs
    );
    let by_cause = |m: &RunMetrics| m.yields_by_cause.expect("the VM says why");
    assert!(by_cause(&thrash).turned_over > 0);
    assert_eq!(by_cause(&run(256, 4.0, 20.0, gg)).turned_over, 0);
}
