//! The virtual machine, pinned: exact virtual nanoseconds, committed
//! events, GVT rounds and peak de-scheduled threads of a small imbalanced
//! PHOLD on four systems, recorded at the commit before the control plane
//! moved into `pdes-core` (PR 15's parent).
//!
//! The VM charges its modelled costs from *counts* — messages drained,
//! events processed, threads posted, affinity-table entries scanned — so any
//! refactor of the shared control plane that changes who is woken, when a
//! thread parks, or how far Algorithm 4 scans moves these numbers. The
//! benchmark only runs GG-Async/Constant and Baseline-Async; DD-Sync takes
//! the barrier and `dd_*` deactivation paths and GG-Async/Dynamic the
//! least-loaded-core search, so they are pinned here.

use ggpdes::prelude::*;
use std::sync::Arc;

/// `(virtual ns, committed, gvt rounds, max de-scheduled)`.
type Golden = (u64, u64, u64, usize);

fn run(scheduler: Scheduler, gvt: GvtMode, affinity: AffinityPolicy) -> Golden {
    let threads = 8;
    let end = 400.0;
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        4,
        end,
        LocalityPattern::Linear,
    )));
    let ecfg = EngineConfig::default()
        .with_end_time(end)
        .with_seed(24301)
        .with_gvt_interval(25)
        .with_zero_counter_threshold(100);
    let rc = RunConfig::new(
        threads,
        ecfg.clone(),
        SystemConfig::new(scheduler, gvt, affinity),
    )
    .with_machine(MachineConfig::small(4, 2));
    let r = run_sim(&model, &rc);
    let oracle = run_sequential(&model, &ecfg, None);
    assert!(r.completed);
    assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
    (
        r.report.virtual_ns,
        r.metrics.committed,
        r.metrics.gvt_rounds,
        r.metrics.max_descheduled,
    )
}

#[test]
fn gg_async_constant() {
    assert_eq!(
        run(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant),
        (8_248_767, 12_876, 35, 6)
    );
}

#[test]
fn baseline_async() {
    assert_eq!(
        run(
            Scheduler::Baseline,
            GvtMode::Async,
            AffinityPolicy::Constant
        ),
        (11_768_342, 12_876, 177, 0)
    );
}

#[test]
fn dd_sync() {
    assert_eq!(
        run(Scheduler::DdPdes, GvtMode::Sync, AffinityPolicy::Constant),
        (8_825_183, 12_876, 61, 6)
    );
}

#[test]
fn gg_async_dynamic() {
    assert_eq!(
        run(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Dynamic),
        (8_291_612, 12_876, 36, 6)
    );
}
