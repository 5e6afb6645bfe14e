//! The Dynamic CPU Affinity story (paper §4.2, Fig. 7): under *linear*
//! locality the active threads are consecutive and constant round-robin
//! pinning spreads them perfectly — but under *non-linear* (strided)
//! locality, constant pinning piles the active threads onto a fraction of
//! the cores while the rest idle. Dynamic affinity re-pins each GVT round.
//!
//! ```text
//! cargo run --release --example affinity_explorer
//! ```

use ggpdes::prelude::*;
use std::sync::Arc;

fn run(pattern: LocalityPattern) {
    let threads = 32;
    let end = 8.0;
    let mut cfg = PholdConfig::imbalanced(threads, 16, 4, end, pattern);
    cfg.lookahead = 0.02;
    cfg.mean_delay = 0.08;
    let model = Arc::new(Phold::new(cfg));
    let engine = EngineConfig::default()
        .with_end_time(end)
        .with_seed(5)
        .with_gvt_interval(25)
        .with_zero_counter_threshold(250);

    println!(
        "{pattern:?} locality — active group of a 1-4 PHOLD, {threads} threads, 4 cores × 2 SMT:"
    );
    for policy in [
        AffinityPolicy::NoAffinity,
        AffinityPolicy::Constant,
        AffinityPolicy::Dynamic,
    ] {
        let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, policy);
        let rc =
            RunConfig::new(threads, engine.clone(), sys).with_machine(MachineConfig::small(4, 2));
        let r = run_sim(&model, &rc);
        let report = r.report.expect("a VM run reports its machine");
        println!(
            "  {:<22} {:>14.0} events/s   ({} migrations, {} ctx switches)",
            format!("{policy:?}"),
            r.metrics.committed_event_rate(),
            report.migrations,
            report.ctx_switches,
        );
    }
    println!();
}

fn main() {
    // Linear: active thread ids are consecutive — constant affinity is fine.
    run(LocalityPattern::Linear);
    // Strided: active ids are {g, g+4, g+8, …} — constant affinity maps them
    // all onto the same few cores (paper: up to 15× worse than dynamic).
    run(LocalityPattern::Strided);
    println!("Constant pinning cannot adapt: under strided locality the active set");
    println!("shares a fraction of the cores while others idle. Dynamic affinity");
    println!("(Algorithm 4) re-pins the active set to idle cores every GVT round.");
}
