//! Telemetry on the virtual machine: traces are stamped with *virtual*
//! nanoseconds, so a traced run is bit-for-bit deterministic — and the
//! round snapshots must track GVT monotonically exactly like the real
//! runtimes.

use models::{LocalityPattern, Phold, PholdConfig};
use pdes_core::EngineConfig;
use sim_rt::{run_sim, AffinityPolicy, GvtMode, RunConfig, Scheduler, SystemConfig};
use std::sync::Arc;
use telemetry::{EventKind, TelemetryConfig, TelemetryData};

fn engine_cfg() -> EngineConfig {
    EngineConfig::default()
        .with_end_time(8.0)
        .with_seed(42)
        .with_gvt_interval(25)
        .with_zero_counter_threshold(250)
}

fn run_traced(gvt: GvtMode, sched: Scheduler) -> (TelemetryData, metrics::RunMetrics) {
    let threads = 8;
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        2,
        8.0,
        LocalityPattern::Linear,
    )));
    let sys = SystemConfig::new(sched, gvt, AffinityPolicy::Constant);
    let rc = RunConfig::new(threads, engine_cfg(), sys)
        .with_machine(machine::MachineConfig::small(4, 2))
        .with_telemetry(TelemetryConfig::on());
    let r = run_sim(&model, &rc);
    assert!(r.completed, "traced run did not finish");
    (r.telemetry.expect("telemetry collected"), r.metrics)
}

#[test]
fn telemetry_is_off_by_default_and_free_of_results() {
    let threads = 8;
    let model = Arc::new(Phold::new(PholdConfig::balanced(threads, 4)));
    let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
    let rc = RunConfig::new(threads, engine_cfg(), sys)
        .with_machine(machine::MachineConfig::small(4, 2));
    let r = run_sim(&model, &rc);
    assert!(r.telemetry.is_none());
    assert!(r.metrics.last_round.is_none());
}

#[test]
fn round_snapshots_track_gvt_monotonically_on_the_vm() {
    let (data, m) = run_traced(GvtMode::Async, Scheduler::GgPdes);
    assert!(!data.rounds.is_empty());
    for w in data.rounds.windows(2) {
        assert!(
            w[1].gvt_ticks >= w[0].gvt_ticks,
            "virtual GVT regressed across rounds {} -> {}",
            w[0].round,
            w[1].round
        );
        assert!(w[1].ts_ns >= w[0].ts_ns);
    }
    assert_eq!(
        m.last_round.expect("metrics last round"),
        data.rounds.last().cloned().expect("nonempty")
    );
}

#[test]
fn traced_vm_runs_are_deterministic() {
    let (a, _) = run_traced(GvtMode::Async, Scheduler::GgPdes);
    let (b, _) = run_traced(GvtMode::Async, Scheduler::GgPdes);
    // Virtual timestamps make the whole export reproducible byte-for-byte.
    assert_eq!(
        telemetry::chrome_trace_json(&a),
        telemetry::chrome_trace_json(&b)
    );
    assert_eq!(a.rounds, b.rounds);
}

#[test]
fn both_gvt_modes_emit_the_required_phase_set() {
    for gvt in [GvtMode::Async, GvtMode::Sync] {
        let (data, _) = run_traced(gvt, Scheduler::GgPdes);
        let names: Vec<&str> = {
            let mut v: Vec<&str> = data
                .threads
                .iter()
                .flat_map(|t| t.records.iter())
                .map(|r| r.kind.name())
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for required in ["gvt-a", "gvt-b", "gvt-aware", "gvt-end"] {
            assert!(names.contains(&required), "{gvt:?}: {required} missing");
        }
        assert!(
            names.contains(&"gvt-send-a") || names.contains(&"gvt-send-b"),
            "{gvt:?}: no send phase"
        );
    }
}

#[test]
fn demand_driven_deactivation_produces_park_spans() {
    // GG-PDES on the 1-2 imbalanced model deschedules idle threads; their
    // park intervals must surface as Park spans with matching Unparks.
    let (data, m) = run_traced(GvtMode::Async, Scheduler::GgPdes);
    let parks: usize = data
        .threads
        .iter()
        .flat_map(|t| t.records.iter())
        .filter(|r| r.kind == EventKind::Park)
        .count();
    let unparks: usize = data
        .threads
        .iter()
        .flat_map(|t| t.records.iter())
        .filter(|r| r.kind == EventKind::Unpark)
        .count();
    if m.max_descheduled > 0 {
        assert!(parks > 0, "threads descheduled but no Park spans traced");
    }
    assert_eq!(parks, unparks, "every park span pairs with an unpark");
    // `arg` is the round at whose End the thread parked — the GvtEnd span
    // its lane recorded last — on the span and on the wake-up alike, not the
    // thread id the lane already names.
    let mut named_by_round = 0;
    for t in &data.threads {
        let mut last_end = None;
        for r in &t.records {
            match r.kind {
                EventKind::GvtEnd => last_end = Some(r.arg),
                EventKind::Park | EventKind::Unpark => {
                    assert_eq!(Some(r.arg), last_end, "t{}: {r:?}", t.tid);
                    named_by_round += usize::from(r.arg != t.tid as u64);
                }
                _ => {}
            }
        }
    }
    assert!(parks == 0 || named_by_round > 0);
    // The gantt derived from those spans renders one lane per thread.
    let trs = metrics::transitions_from_trace(&data, 8);
    let g = metrics::render_gantt(&trs, 8, metrics::trace_horizon(&data).max(1), 40);
    assert_eq!(g.lines().count(), 9); // 8 lanes + axis
}
