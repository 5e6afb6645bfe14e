//! Over-subscription: load a small virtual machine with up to 8× more
//! simulation threads than hardware contexts and watch the demand-driven
//! systems keep scaling while the baselines drown (paper §6.2–§6.3).
//!
//! ```text
//! cargo run --release --example oversubscription
//! ```
//!
//! Doubles as a smoke test: exits 1 unless GG-PDES-Async out-commits
//! Baseline-Async at 4× and 8× over-subscription, and commits at 8× at
//! least what it commits at 4× — more over-subscription must not cost it
//! throughput.

use ggpdes::prelude::*;
use std::sync::Arc;

fn main() {
    // 4 cores × 2 SMT = 8 hardware thread contexts.
    let machine = MachineConfig::small(4, 2);
    let hw = 8;
    let end = 8.0;

    println!("virtual machine: 4 cores × 2 SMT = {hw} hardware threads");
    println!(
        "{:>8} {:>7} {:>18} {:>18} {:>18}",
        "threads", "oversub", "Baseline-Async", "DD-PDES-Async", "GG-PDES-Async"
    );

    let mut drowned = Vec::new();
    let mut gg_rates = Vec::new();
    for mult in [1usize, 2, 4, 8] {
        let threads = hw * mult;
        // 1-8 imbalanced PHOLD: at most 1/8 of threads are busy at a time,
        // so even 8× over-subscription leaves the active set placeable.
        let mut cfg = PholdConfig::imbalanced(threads, 16, 8, end, LocalityPattern::Linear);
        cfg.lookahead = 0.02;
        cfg.mean_delay = 0.08;
        let model = Arc::new(Phold::new(cfg));
        let engine = EngineConfig::default()
            .with_end_time(end)
            .with_seed(11)
            .with_gvt_interval(25)
            .with_zero_counter_threshold(250);

        let mut row = format!("{threads:>8} {:>6}x", mult);
        let mut rates = Vec::new();
        for sys in [
            SystemConfig::new(
                Scheduler::Baseline,
                GvtMode::Async,
                AffinityPolicy::Constant,
            ),
            SystemConfig::new(Scheduler::DdPdes, GvtMode::Async, AffinityPolicy::Constant),
            SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant),
        ] {
            let rc = RunConfig::new(threads, engine.clone(), sys).with_machine(machine.clone());
            let r = run_sim(&model, &rc);
            let rate = r.metrics.committed_event_rate();
            rates.push(rate);
            row.push_str(&format!(" {rate:>18.0}"));
        }
        println!("{row}");
        if mult >= 4 && rates[2] <= rates[0] {
            drowned.push(mult);
        }
        gg_rates.push(rates[2]);
    }
    println!("\nDemand-driven systems de-schedule the idle 7/8 of the threads, so the");
    println!("active set always fits the hardware; the baselines time-share everything.");
    if !drowned.is_empty() {
        eprintln!("GG-PDES-Async did not beat Baseline-Async at {drowned:?}x over-subscription");
        std::process::exit(1);
    }
    if let [.., at4, at8] = gg_rates[..] {
        if at8 < at4 {
            eprintln!("GG-PDES-Async commits less at 8x ({at8:.0}/s) than at 4x ({at4:.0}/s)");
            std::process::exit(1);
        }
    }
}
