//! The virtual machine, pinned: exact virtual nanoseconds, committed
//! events, GVT rounds and peak de-scheduled threads of a small imbalanced
//! PHOLD on four systems, recorded at the commit before the control plane
//! moved into `pdes-core` (PR 15's parent; the checkpoint-armed run at the
//! commit before the round itself moved there, PR 17's parent).
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
    run_on(4, scheduler, gvt, affinity)
}

/// The same eight threads on `cores` × 2 SMT contexts.
fn run_on(cores: usize, scheduler: Scheduler, gvt: GvtMode, affinity: AffinityPolicy) -> Golden {
    run_with(cores, SystemConfig::new(scheduler, gvt, affinity), 0).0
}

/// One run, checkpointing every `ckpt_every` GVT rounds (0 = never); also
/// returns how many per-thread cuts were deposited and the newest assembled
/// checkpoint's `(gvt_rounds, gvt ticks)`.
fn run_with(cores: usize, sys: SystemConfig, ckpt_every: u64) -> (Golden, usize, (u64, u64)) {
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
    // Tracing is free in virtual time; the checkpoint-armed pin counts its
    // `CheckpointWrite` spans.
    let mut rc = RunConfig::new(threads, ecfg.clone(), sys)
        .with_machine(MachineConfig::small(cores, 2))
        .with_checkpoint_every(ckpt_every);
    if ckpt_every > 0 {
        rc = rc.with_telemetry(ggpdes::telemetry::TelemetryConfig::on());
    }
    let a = ggpdes::sim_rt::run_sim_attempt(&model, &rc, None, None, None);
    let r = a.outcome;
    let oracle = run_sequential(&model, &ecfg, None);
    assert!(r.completed);
    assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
    let cuts = r.telemetry.iter().flat_map(|d| &d.threads);
    let cuts = cuts
        .flat_map(|t| &t.records)
        .filter(|e| e.kind == ggpdes::telemetry::EventKind::CheckpointWrite)
        .count();
    (
        (
            r.report.as_ref().unwrap().virtual_ns,
            r.metrics.committed,
            r.metrics.gvt_rounds,
            r.metrics.max_descheduled,
        ),
        cuts,
        a.checkpoint
            .map_or((0, 0), |c| (c.gvt_rounds, c.gvt.ticks())),
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

/// The arm → force-wake → cut path, recorded on PR 17's parent: every third
/// round wakes the parked threads (up to six) into its participant set and
/// each of the eight deposits a cut — 11 armed rounds × 8; the 36th round is
/// armed too, but its GVT ends the run and the VM skips that cut (DESIGN
/// §17), so the newest checkpoint is round 33's.
#[test]
fn gg_async_constant_checkpoint_armed() {
    let gg = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
    assert_eq!(
        run_with(4, gg, 3),
        ((8_472_992, 12_876, 36, 6), 88, (33, 382_851_770))
    );
}

// ---- over-subscribed: the same eight threads on 2 × 2 = 4 contexts --------
//
// Here GG-PDES arms the yield tier (`pdes_core::sched::YieldTier`), so its
// two pins record the tier's behaviour (8 584 662 ns / 35 rounds and
// 10 310 665 ns / 36 rounds without it; 8 333 800 / 36 and 9 233 665 / 36
// while the blocked trigger had a patience and there was no turnover
// trigger); Baseline and DD-PDES never arm it, and their pins are the values
// of the commit before the tier existed.

#[test]
fn oversubscribed_gg_async_constant() {
    assert_eq!(
        run_on(
            2,
            Scheduler::GgPdes,
            GvtMode::Async,
            AffinityPolicy::Constant
        ),
        (8_271_936, 12_876, 35, 6)
    );
}

#[test]
fn oversubscribed_gg_async_dynamic() {
    assert_eq!(
        run_on(
            2,
            Scheduler::GgPdes,
            GvtMode::Async,
            AffinityPolicy::Dynamic
        ),
        (9_120_195, 12_876, 35, 6)
    );
}

#[test]
fn oversubscribed_baseline_async_never_yields() {
    assert_eq!(
        run_on(
            2,
            Scheduler::Baseline,
            GvtMode::Async,
            AffinityPolicy::Constant
        ),
        (25_427_332, 12_876, 42, 0)
    );
}

#[test]
fn oversubscribed_dd_async_never_yields() {
    assert_eq!(
        run_on(
            2,
            Scheduler::DdPdes,
            GvtMode::Async,
            AffinityPolicy::Constant
        ),
        (14_787_517, 12_876, 35, 7)
    );
}
