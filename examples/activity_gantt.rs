//! Visualize demand-driven scheduling: run a 1-4 imbalanced PHOLD under
//! GG-PDES-Async and render each thread's scheduled-in/out intervals as an
//! ASCII gantt — the picture the paper's Figure 1 sketches.
//!
//! ```text
//! cargo run --release --example activity_gantt
//! ```

use ggpdes::metrics::{render_gantt, transitions_from_trace};
use ggpdes::prelude::*;
use ggpdes::telemetry::TelemetryConfig;
use std::sync::Arc;

fn main() {
    let threads = 16;
    let end = 8.0;
    let mut cfg = PholdConfig::imbalanced(threads, 16, 4, end, LocalityPattern::Linear);
    cfg.lookahead = 0.02;
    cfg.mean_delay = 0.08;
    let model = Arc::new(Phold::new(cfg));

    let engine = EngineConfig::default()
        .with_end_time(end)
        .with_seed(3)
        .with_gvt_interval(25)
        .with_zero_counter_threshold(150);
    let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
    let rc = RunConfig::new(threads, engine, sys)
        .with_machine(MachineConfig::small(4, 2))
        .with_telemetry(TelemetryConfig::on());
    let r = run_sim(&model, &rc);
    let trace = r.telemetry.as_ref().expect("telemetry is on");
    // Every Park span is one de-scheduled interval.
    let transitions = transitions_from_trace(trace, threads);

    println!(
        "1-4 imbalanced PHOLD, {threads} threads — the active quarter rotates; GG-PDES\n\
         de-schedules the idle threads (█ scheduled in, · de-scheduled):\n"
    );
    print!(
        "{}",
        render_gantt(&transitions, threads, r.report.virtual_ns, 72)
    );
    println!(
        "\n{} de-scheduling episodes, at most {} threads parked at once.",
        transitions.iter().filter(|&&(_, _, s)| !s).count(),
        r.metrics.max_descheduled
    );
}
