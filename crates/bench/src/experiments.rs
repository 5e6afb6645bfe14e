//! One function per figure/table of the paper's evaluation (§6).

use crate::scale::Scale;
use metrics::{RunMetrics, Table};
use models::{
    Epidemics, EpidemicsConfig, LocalityPattern, Phold, PholdConfig, Traffic, TrafficConfig,
};
use pdes_core::{MapKind, Model};
use sim_rt::{run_sim, AffinityPolicy, GvtMode, RunConfig, Scheduler, SystemConfig};
use std::sync::Arc;

/// A regenerated figure: the table plus auxiliary per-run metrics.
#[derive(Debug, Clone)]
pub struct Figure {
    pub id: &'static str,
    pub table: Table,
    /// Every run's metrics, for the in-text tables.
    pub runs: Vec<RunMetrics>,
}

impl Figure {
    fn new(id: &'static str, title: String) -> Self {
        Figure {
            id,
            table: Table::new(title, "threads", "committed events/s"),
            runs: Vec::new(),
        }
    }
}

fn run_point<M: Model>(
    model: &Arc<M>,
    threads: usize,
    sys: SystemConfig,
    scale: &Scale,
    fig: &mut Figure,
) {
    let mut rc = RunConfig::new(threads, scale.engine(), sys).with_machine(scale.machine());
    rc.limit_ns = Some(600_000_000_000);
    let r = run_sim(model, &rc);
    assert_eq!(r.gvt_regressions, 0, "GVT regression in {}", sys.name());
    fig.table.record_rate(&r.metrics);
    fig.runs.push(r.metrics);
}

fn phold(threads: usize, k: usize, pattern: LocalityPattern, scale: &Scale) -> Arc<Phold> {
    let mut cfg = if k <= 1 {
        PholdConfig::balanced(threads, scale.phold_lps)
    } else {
        PholdConfig::imbalanced(threads, scale.phold_lps, k, scale.end_time, pattern)
    };
    cfg.lookahead = scale.lookahead;
    cfg.mean_delay = scale.mean_delay;
    Arc::new(Phold::new(cfg))
}

/// Figure 2: balanced PHOLD, all six systems, up to 1× subscription.
pub fn fig2(scale: &Scale) -> Figure {
    let mut fig = Figure::new("fig2", "Fig. 2 — Balanced PHOLD".into());
    for threads in scale.thread_sweep(1.0) {
        let model = phold(threads, 1, LocalityPattern::Linear, scale);
        for sys in SystemConfig::ALL_SIX {
            run_point(&model, threads, sys, scale, &mut fig);
        }
    }
    fig
}

/// Figure 3: moderately imbalanced PHOLD — (a) 1-2 up to 2×, (b) 1-4 up to 4×.
pub fn fig3(scale: &Scale, k: usize) -> Figure {
    assert!(k == 2 || k == 4, "fig3 covers the 1-2 and 1-4 models");
    let (id, max) = if k == 2 {
        ("fig3a", 2.0f64)
    } else {
        ("fig3b", 4.0f64)
    };
    let mut fig = Figure::new(id, format!("Fig. 3 — 1-{k} Imbalanced PHOLD"));
    for threads in scale.thread_sweep(max.min(k as f64)) {
        let model = phold(threads, k, LocalityPattern::Linear, scale);
        for sys in SystemConfig::ALL_SIX {
            run_point(&model, threads, sys, scale, &mut fig);
        }
    }
    fig
}

/// Figure 4: highly imbalanced PHOLD — (a) 1-8 up to 8×, (b) 1-16 up to 16×.
pub fn fig4(scale: &Scale, k: usize) -> Figure {
    assert!(k == 8 || k == 16, "fig4 covers the 1-8 and 1-16 models");
    let id = if k == 8 { "fig4a" } else { "fig4b" };
    let mut fig = Figure::new(id, format!("Fig. 4 — 1-{k} Imbalanced PHOLD"));
    for threads in scale.thread_sweep(k as f64) {
        if threads < k {
            continue; // thread groups must divide evenly
        }
        let model = phold(threads, k, LocalityPattern::Linear, scale);
        for sys in SystemConfig::ALL_SIX {
            run_point(&model, threads, sys, scale, &mut fig);
        }
    }
    fig
}

/// Figure 5: epidemics with (a) 3/4 or (b) 7/8 lock-down; the three headline
/// systems; over-subscription up to the lock-down's idle fraction.
pub fn fig5(scale: &Scale, lockdown_groups: usize) -> Figure {
    assert!(lockdown_groups == 4 || lockdown_groups == 8);
    let id = if lockdown_groups == 4 {
        "fig5a"
    } else {
        "fig5b"
    };
    let mut fig = Figure::new(
        id,
        format!("Fig. 5 — Epidemics, {}-fold lock-down", lockdown_groups),
    );
    for threads in scale.thread_sweep(lockdown_groups as f64) {
        if threads < lockdown_groups {
            continue;
        }
        let mut cfg = EpidemicsConfig::new(threads, scale.epi_lps, lockdown_groups, scale.end_time);
        cfg.lookahead = 0.02;
        cfg.incubation_mean = 0.05;
        cfg.infectious_mean = 0.3;
        let model = Arc::new(Epidemics::new(cfg));
        for sys in SystemConfig::HEADLINE {
            run_point(&model, threads, sys, scale, &mut fig);
        }
    }
    fig
}

/// Figure 6: traffic with density gradient 0.35 (a) or 0.5 (b); headline
/// systems; up to 8× subscription.
pub fn fig6(scale: &Scale, gradient: f64) -> Figure {
    let id = if gradient < 0.45 { "fig6a" } else { "fig6b" };
    let mut fig = Figure::new(id, format!("Fig. 6 — Traffic, gradient {gradient}"));
    for threads in scale.thread_sweep(8.0) {
        let mut cfg = TrafficConfig::new(threads, scale.traffic_lps, gradient);
        cfg.mapping = MapKind::Block;
        // Tight inter-intersection coupling → the paper's rollback-heavy
        // regime (§6.5).
        cfg.travel_scale = 0.12;
        cfg.lookahead = 0.01;
        let model = Arc::new(Traffic::new(cfg));
        for sys in SystemConfig::HEADLINE {
            run_point(&model, threads, sys, scale, &mut fig);
        }
    }
    fig
}

/// Figure 7: GG-PDES-Async under the three affinity policies, on a 1-4
/// PHOLD with (a) linear or (b) strided (non-linear) locality.
pub fn fig7(scale: &Scale, pattern: LocalityPattern) -> Figure {
    let id = match pattern {
        LocalityPattern::Linear => "fig7a",
        LocalityPattern::Strided => "fig7b",
    };
    let mut fig = Figure::new(
        id,
        format!("Fig. 7 — GG-PDES-Async affinity policies, {pattern:?} locality"),
    );
    // The constant-affinity collapse deepens with over-subscription; sweep
    // as far as the scale allows (the paper's largest affinity experiment
    // used 4096 threads).
    for threads in scale.thread_sweep(16.0) {
        if threads < 4 {
            continue;
        }
        let model = phold(threads, 4, pattern, scale);
        for policy in [
            AffinityPolicy::NoAffinity,
            AffinityPolicy::Constant,
            AffinityPolicy::Dynamic,
        ] {
            let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, policy);
            run_point(&model, threads, sys, scale, &mut fig);
        }
    }
    fig
}

/// In-text GVT table (§6.1–§6.5): average CPU time per GVT round,
/// accumulated among threads, for the quoted configurations.
pub fn gvt_table(figs: &[&Figure]) -> Table {
    let mut t = Table::new(
        "GVT CPU time per round (s, accumulated among threads)",
        "threads",
        "seconds/round",
    );
    for fig in figs {
        for m in &fig.runs {
            t.series_mut(&format!("{}:{}", fig.id, m.system))
                .push(m.threads as f64, m.gvt_secs_per_round());
        }
    }
    t
}

/// In-text instruction-count table (§6.2–§6.3): total work units executed.
pub fn instr_table(figs: &[&Figure]) -> Table {
    let mut t = Table::new(
        "Total work units executed (\"instructions\")",
        "threads",
        "work units",
    );
    for fig in figs {
        for m in &fig.runs {
            t.series_mut(&format!("{}:{}", fig.id, m.system))
                .push(m.threads as f64, m.total_work as f64);
        }
    }
    t
}

/// In-text rollback table (§6.5): processed vs rolled-back events for the
/// traffic model at the largest scale.
pub fn rollback_table(fig6: &Figure) -> Table {
    let mut t = Table::new(
        "Traffic: processed vs rolled-back events (largest scale)",
        "threads",
        "events",
    );
    let max_threads = fig6
        .runs
        .iter()
        .map(|m| m.threads)
        .max()
        .unwrap_or_default();
    for m in fig6.runs.iter().filter(|m| m.threads == max_threads) {
        t.series_mut(&format!("{} processed", m.system))
            .push(m.threads as f64, m.processed as f64);
        t.series_mut(&format!("{} rolled-back", m.system))
            .push(m.threads as f64, m.rolled_back as f64);
    }
    t
}

/// §6.6 memory-footprint check: the dynamic-affinity tables at the paper's
/// largest scale (4096 threads, 64 cores) — the paper quotes ~17 KB.
pub fn mem_table() -> (usize, usize, usize) {
    let aff = pdes_core::AffinityTable::new(64, 4096);
    (4096, 64, aff.footprint_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig2_has_all_systems_and_points() {
        let scale = Scale::quick();
        let fig = fig2(&scale);
        assert_eq!(fig.table.series.len(), 6);
        let xs = fig.table.xs();
        assert_eq!(xs.len(), 2, "quick scale sweeps ≤1×: {xs:?}");
        for s in &fig.table.series {
            assert_eq!(s.points.len(), xs.len(), "{}", s.name);
            assert!(s.points.iter().all(|&(_, y)| y > 0.0));
        }
    }

    #[test]
    fn quick_fig7_strided_runs() {
        let scale = Scale::quick();
        let fig = fig7(&scale, LocalityPattern::Strided);
        assert_eq!(fig.table.series.len(), 3);
        assert!(!fig.runs.is_empty());
    }

    #[test]
    fn mem_footprint_matches_paper_order() {
        let (threads, cores, bytes) = mem_table();
        assert_eq!(threads, 4096);
        assert_eq!(cores, 64);
        // Paper: ~17 KB. Ours must be the same order of magnitude.
        assert!((4 * 1024..=96 * 1024).contains(&bytes), "bytes={bytes}");
    }

    #[test]
    fn gvt_and_instr_tables_index_runs() {
        let scale = Scale::quick();
        let fig = fig2(&scale);
        let g = gvt_table(&[&fig]);
        let i = instr_table(&[&fig]);
        assert_eq!(g.series.len(), 6);
        assert_eq!(i.series.len(), 6);
    }
}
