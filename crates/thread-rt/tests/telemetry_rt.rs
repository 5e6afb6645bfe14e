//! Telemetry on real threads: round snapshots must track GVT monotonically,
//! ring accounting must conserve records, and both GVT modes must emit the
//! phase set `trace_check` requires.

use models::{Phold, PholdConfig};
use pdes_core::{AffinityPolicy, EngineConfig, GvtMode, Scheduler, SystemConfig};
use std::sync::Arc;
use telemetry::{EventKind, TelemetryConfig, TelemetryData};
use thread_rt::{run_threads, RtRunConfig};

fn engine_cfg() -> EngineConfig {
    EngineConfig::default()
        .with_end_time(6.0)
        .with_seed(77)
        .with_gvt_interval(20)
        .with_zero_counter_threshold(60)
}

fn run_traced(gvt: GvtMode) -> (TelemetryData, metrics::RunMetrics) {
    let threads = 4;
    let model = Arc::new(Phold::new(PholdConfig::balanced(threads, 4)));
    let sys = SystemConfig::new(Scheduler::GgPdes, gvt, AffinityPolicy::Constant);
    let rc = RtRunConfig::new(threads, engine_cfg(), sys).with_telemetry(TelemetryConfig::on());
    let r = run_threads(&model, &rc).expect("run completes");
    (r.telemetry.expect("telemetry collected"), r.metrics)
}

fn phase_names(data: &TelemetryData) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = data
        .threads
        .iter()
        .flat_map(|t| t.records.iter())
        .map(|r| r.kind.name())
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

#[test]
fn telemetry_is_off_by_default() {
    let threads = 4;
    let model = Arc::new(Phold::new(PholdConfig::balanced(threads, 4)));
    let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
    let rc = RtRunConfig::new(threads, engine_cfg(), sys);
    let r = run_threads(&model, &rc).expect("run completes");
    assert!(r.telemetry.is_none());
    assert!(r.metrics.last_round.is_none());
}

#[test]
fn async_round_snapshots_track_gvt_monotonically() {
    let (data, m) = run_traced(GvtMode::Async);
    assert!(!data.rounds.is_empty(), "no round snapshots recorded");
    for w in data.rounds.windows(2) {
        assert!(
            w[1].gvt_ticks >= w[0].gvt_ticks,
            "round {} GVT {} regressed below round {} GVT {}",
            w[1].round,
            w[1].gvt_ticks,
            w[0].round,
            w[0].gvt_ticks
        );
        assert!(w[1].ts_ns >= w[0].ts_ns, "round close times went backwards");
    }
    // Every snapshot carries a per-thread LVT and queue-depth vector.
    for r in &data.rounds {
        assert_eq!(r.lvt_ticks.len(), 4);
        assert_eq!(r.queue_depths.len(), 4);
        assert!(r.active_threads <= 4);
    }
    // The final snapshot surfaces through RunMetrics (and so --stats-json).
    let last = m.last_round.expect("last round in metrics");
    assert_eq!(last, data.rounds.last().cloned().expect("rounds nonempty"));
}

#[test]
fn ring_accounting_conserves_and_trace_exports() {
    let (data, _) = run_traced(GvtMode::Async);
    assert_eq!(data.threads.len(), 4);
    for t in &data.threads {
        assert_eq!(
            t.dropped + t.records.len() as u64,
            t.emitted,
            "thread {} ring accounting leaked",
            t.tid
        );
    }
    let json = telemetry::chrome_trace_json(&data);
    serde_json::parse(&json).expect("exporter emits valid JSON");
    let names = phase_names(&data);
    for required in ["gvt-a", "gvt-b", "gvt-aware", "gvt-end"] {
        assert!(names.contains(&required), "{required} missing: {names:?}");
    }
    assert!(
        names.contains(&"gvt-send-a") || names.contains(&"gvt-send-b"),
        "no send phase in {names:?}"
    );
}

#[test]
fn sync_mode_emits_the_required_phase_set_too() {
    let (data, _) = run_traced(GvtMode::Sync);
    let names = phase_names(&data);
    for required in ["gvt-a", "gvt-b", "gvt-aware", "gvt-end", "gvt-send-b"] {
        assert!(names.contains(&required), "{required} missing: {names:?}");
    }
    // Every sync round is barrier-closed, so rounds recorded exactly once.
    let mut ids: Vec<u64> = data.rounds.iter().map(|r| r.round).collect();
    let n = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), n, "a round was snapshotted twice");
}

#[test]
fn gvt_phase_spans_carry_the_round_id() {
    let (data, _) = run_traced(GvtMode::Async);
    let round_ids: Vec<u64> = data.rounds.iter().map(|r| r.round).collect();
    let mut checked = 0;
    for t in &data.threads {
        for r in &t.records {
            if matches!(r.kind, EventKind::GvtA | EventKind::GvtEnd) {
                assert!(
                    round_ids.contains(&r.arg) || r.arg > *round_ids.last().unwrap_or(&0),
                    "span round id {} unknown",
                    r.arg
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "no GVT phase spans traced");
}
