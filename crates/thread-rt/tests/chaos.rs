//! Chaos-harness tests for the real-thread runtime.
//!
//! Two families:
//! - *Safe* fault plans (delivery delays, reordering, straggler storms,
//!   backpressure) perturb timing only — every run must still commit
//!   exactly the sequential oracle's trace.
//! - *Liveness* fault plans (lost wake-ups) wedge the run — the watchdog
//!   must convert the hang into a structured diagnostic dump, and the same
//!   seed with faults disabled must match the oracle bit-for-bit.

use models::{LocalityPattern, Phold, PholdConfig};
use pdes_core::{
    run_sequential, DelayFault, EngineConfig, FaultPlan, ReorderFault, StragglerFault,
    SystemConfig, WakeupFault,
};
use std::sync::Arc;
use std::time::Duration;
use thread_rt::{run_threads, RtRunConfig, RunError};

fn engine_cfg(end: f64) -> EngineConfig {
    EngineConfig::default()
        .with_end_time(end)
        .with_seed(77)
        .with_gvt_interval(20)
        .with_zero_counter_threshold(60)
}

/// An imbalanced model that deactivates and reactivates threads — the
/// traffic pattern the wake-up faults need.
fn imbalanced_model(threads: usize) -> Arc<Phold> {
    Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        2,
        8.0,
        LocalityPattern::Linear,
    )))
}

/// GG-PDES-Async: the headline demand-driven system.
fn gg_async() -> SystemConfig {
    SystemConfig::ALL_SIX[5]
}

#[test]
fn safe_fault_plans_match_oracle() {
    let threads = 4;
    let model = imbalanced_model(threads);
    let ecfg = engine_cfg(8.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let plan = FaultPlan {
        seed: 0xC0FFEE,
        delay: Some(DelayFault { prob: 0.2 }),
        reorder: Some(ReorderFault { prob: 0.5 }),
        straggler: Some(StragglerFault {
            prob: 0.05,
            max_storms: 16,
        }),
        backpressure: Some(pdes_core::BackpressureFault {
            capacity: 64,
            max_retries: 3,
        }),
        ..FaultPlan::default()
    };
    for sys in [SystemConfig::ALL_SIX[3], gg_async()] {
        let rc = RtRunConfig::new(threads, ecfg.clone(), sys).with_faults(plan.clone());
        let r = run_threads(&model, &rc).expect("safe faults must not wedge the run");
        assert_eq!(
            r.invariants.gvt_regressions,
            0,
            "{}: GVT regressed",
            sys.name()
        );
        assert_eq!(
            r.metrics.commit_digest,
            oracle.commit_digest,
            "{}: digest diverged under safe faults",
            sys.name()
        );
        assert_eq!(r.digests, oracle.state_digests, "{}: states", sys.name());
        let c = r.fault_counts;
        assert!(
            c.delayed + c.reordered + c.stragglers > 0,
            "{}: plan was supposed to fire (counts {c:?})",
            sys.name()
        );
    }
}

#[test]
fn default_chaos_plan_matches_oracle() {
    let threads = 4;
    let model = imbalanced_model(threads);
    let ecfg = engine_cfg(8.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let rc = RtRunConfig::new(threads, ecfg, gg_async()).with_faults(FaultPlan::chaos(42));
    let r = run_threads(&model, &rc).expect("chaos plan is safe");
    assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
    assert_eq!(r.metrics.committed, oracle.committed);
}

#[test]
fn spurious_wakeups_are_tolerated() {
    let threads = 4;
    let model = imbalanced_model(threads);
    let ecfg = engine_cfg(8.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let plan = FaultPlan {
        seed: 9,
        wakeup: Some(WakeupFault {
            lose_prob: 0.0,
            spurious_prob: 0.8,
            max_lost: 0,
        }),
        ..FaultPlan::default()
    };
    let rc = RtRunConfig::new(threads, ecfg, gg_async()).with_faults(plan);
    let r = run_threads(&model, &rc).expect("spurious wake-ups must be tolerated");
    assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
}

/// A model whose demand for a parked thread is keyed on virtual progress,
/// not on host interleaving: LP 0 (thread 0) ticks once per time unit and
/// mails LP 1 (thread 1) on every tenth tick; LP 1 has no events of its own.
struct Pinger;

impl pdes_core::Model for Pinger {
    /// Events handled so far.
    type State = u64;
    type Payload = ();
    fn num_lps(&self) -> usize {
        2
    }
    fn init_state(&self, _lp: pdes_core::LpId) -> u64 {
        0
    }
    fn init_events(&self, lp: pdes_core::LpId, _s: &mut u64, ctx: &mut pdes_core::SendCtx<'_, ()>) {
        if lp.0 == 0 {
            ctx.send(lp, 1.0, ());
        }
    }
    fn handle_event(
        &self,
        lp: pdes_core::LpId,
        handled: &mut u64,
        _p: &(),
        ctx: &mut pdes_core::SendCtx<'_, ()>,
    ) {
        *handled += 1;
        if lp.0 == 0 {
            ctx.send(lp, 1.0, ());
            if handled.is_multiple_of(10) {
                ctx.send(pdes_core::LpId(1), 1.0, ());
            }
        }
    }
    fn state_digest(&self, handled: &u64) -> u64 {
        *handled
    }
}

/// The acceptance scenario: a lost-wakeup plan on GG-PDES-Async terminates
/// via the watchdog with a per-thread dump — no hang, no process abort —
/// while the same seed with faults disabled matches the oracle bit-for-bit.
///
/// The faulted site is certain, not probable. With an optimism window under
/// one tick, thread 0 advances one tick per GVT round, so the first mail
/// takes ten rounds — and none of them closes without thread 1 until thread
/// 1 has unsubscribed. Thread 1 is idle from genesis and wants to park after
/// three idle cycles, i.e. by its third round: it is parked rounds before
/// the mail is sent, the mail's activation is the run's first wake-up, and
/// that wake-up is lost. (A park refused because the next round already
/// opened is retried one round later; mail goes out every ten ticks.)
#[test]
fn lost_wakeup_trips_watchdog_with_dump_and_clean_seed_matches_oracle() {
    let threads = 2;
    let model = Arc::new(Pinger);
    // The horizon sits between two ticks: no event lands exactly on it.
    let ecfg = engine_cfg(39.5)
        .with_zero_counter_threshold(2)
        .with_optimism_window(Some(0.5));
    let oracle = run_sequential(&model, &ecfg, None);

    // Faults disabled: bit-for-bit oracle match.
    let rc = RtRunConfig::new(threads, ecfg.clone(), gg_async());
    let clean = run_threads(&model, &rc).expect("fault-free run completes");
    assert_eq!(clean.metrics.commit_digest, oracle.commit_digest);
    assert_eq!(clean.metrics.committed, oracle.committed);
    assert_eq!(clean.digests, oracle.state_digests);
    assert!(
        clean.metrics.max_descheduled > 0,
        "model must deactivate threads for the lost-wakeup fault to bite"
    );

    // Same seed, every activation wake-up lost: the first reactivation
    // permanently parks a subscribed thread and the round can never close.
    let plan = FaultPlan {
        seed: 77,
        wakeup: Some(WakeupFault {
            lose_prob: 1.0,
            spurious_prob: 0.0,
            max_lost: u64::MAX,
        }),
        ..FaultPlan::default()
    };
    let rc = RtRunConfig::new(threads, ecfg, gg_async())
        .with_faults(plan)
        .with_watchdog(Some(Duration::from_millis(1500)));
    match run_threads(&model, &rc) {
        Err(RunError::Stalled(dump)) => {
            assert!(dump.fault_counts.lost_wakeups > 0, "the fault fired");
            assert_eq!(dump.threads.len(), threads);
            assert!(
                dump.threads.iter().any(|t| t.phase == "parked"),
                "the stranded thread shows up parked: {dump}"
            );
            let text = dump.to_string();
            assert!(text.contains("liveness watchdog"));
            assert!(text.contains("no GVT progress"));
        }
        Err(other) => panic!("expected a stall, got: {other}"),
        Ok(r) => panic!(
            "a parked thread got mail, so a wake-up was lost and the run must stall \
             (lost {}, max de-scheduled {})",
            r.fault_counts.lost_wakeups, r.metrics.max_descheduled
        ),
    }
}

#[test]
fn fault_free_run_never_trips_tight_watchdog() {
    let threads = 4;
    let model = imbalanced_model(threads);
    let ecfg = engine_cfg(8.0);
    let rc =
        RtRunConfig::new(threads, ecfg, gg_async()).with_watchdog(Some(Duration::from_secs(1)));
    let r = run_threads(&model, &rc).expect("healthy run must never trip the watchdog");
    assert_eq!(r.fault_counts, pdes_core::FaultCounts::default());
}

#[test]
fn worker_panic_is_reported_not_hung() {
    // A model whose LP state update panics mid-run on one thread: the
    // runner must report the panic and join every sibling.
    struct Bomb {
        inner: Phold,
    }
    impl pdes_core::Model for Bomb {
        type Payload = <Phold as pdes_core::Model>::Payload;
        type State = <Phold as pdes_core::Model>::State;
        fn num_lps(&self) -> usize {
            self.inner.num_lps()
        }
        fn init_state(&self, lp: pdes_core::LpId) -> Self::State {
            self.inner.init_state(lp)
        }
        fn init_events(
            &self,
            lp: pdes_core::LpId,
            state: &mut Self::State,
            ctx: &mut pdes_core::SendCtx<'_, Self::Payload>,
        ) {
            self.inner.init_events(lp, state, ctx)
        }
        fn handle_event(
            &self,
            lp: pdes_core::LpId,
            state: &mut Self::State,
            payload: &Self::Payload,
            ctx: &mut pdes_core::SendCtx<'_, Self::Payload>,
        ) {
            if ctx.now() > pdes_core::VirtualTime::from_f64(3.0) && lp.0 == 0 {
                panic!("injected test panic");
            }
            self.inner.handle_event(lp, state, payload, ctx)
        }
        fn state_digest(&self, state: &Self::State) -> u64 {
            self.inner.state_digest(state)
        }
    }
    let threads = 4;
    let model = Arc::new(Bomb {
        inner: Phold::new(PholdConfig::balanced(threads, 4)),
    });
    let ecfg = engine_cfg(8.0);
    let rc =
        RtRunConfig::new(threads, ecfg, gg_async()).with_watchdog(Some(Duration::from_secs(5)));
    match run_threads(&model, &rc) {
        Err(RunError::WorkerPanicked { message, .. }) => {
            assert!(message.contains("injected test panic"), "got: {message}");
        }
        Err(other) => panic!("expected a worker panic, got: {other}"),
        Ok(_) => panic!("the bomb must go off"),
    }
}

/// Panic beats stall: a dead worker freezes GVT, so the liveness watchdog
/// *will* trip while the siblings are being torn down — but the root cause
/// is the panic, and that is what the runner must report. (The watchdog
/// trip is load-bearing here: it is what unwedges the siblings so `join`
/// returns at all.)
#[test]
fn worker_panic_beats_watchdog_stall() {
    struct EarlyBomb {
        inner: Phold,
    }
    impl pdes_core::Model for EarlyBomb {
        type Payload = <Phold as pdes_core::Model>::Payload;
        type State = <Phold as pdes_core::Model>::State;
        fn num_lps(&self) -> usize {
            self.inner.num_lps()
        }
        fn init_state(&self, lp: pdes_core::LpId) -> Self::State {
            self.inner.init_state(lp)
        }
        fn init_events(
            &self,
            lp: pdes_core::LpId,
            state: &mut Self::State,
            ctx: &mut pdes_core::SendCtx<'_, Self::Payload>,
        ) {
            self.inner.init_events(lp, state, ctx)
        }
        fn handle_event(
            &self,
            lp: pdes_core::LpId,
            state: &mut Self::State,
            payload: &Self::Payload,
            ctx: &mut pdes_core::SendCtx<'_, Self::Payload>,
        ) {
            // Die on LP 0's very first post-genesis event: GVT never
            // advances, so the watchdog is guaranteed to fire afterwards.
            if lp.0 == 0 && ctx.now() > pdes_core::VirtualTime::ZERO {
                panic!("early injected panic");
            }
            self.inner.handle_event(lp, state, payload, ctx)
        }
        fn state_digest(&self, state: &Self::State) -> u64 {
            self.inner.state_digest(state)
        }
    }
    let threads = 4;
    let model = Arc::new(EarlyBomb {
        inner: Phold::new(PholdConfig::balanced(threads, 4)),
    });
    let ecfg = engine_cfg(8.0);
    let rc =
        RtRunConfig::new(threads, ecfg, gg_async()).with_watchdog(Some(Duration::from_millis(300)));
    match run_threads(&model, &rc) {
        Err(RunError::WorkerPanicked { message, .. }) => {
            assert!(message.contains("early injected panic"), "got: {message}");
        }
        Err(RunError::Stalled(dump)) => {
            panic!("watchdog trip masked the worker panic: {dump}")
        }
        Err(other) => panic!("unexpected failure mode: {other}"),
        Ok(_) => panic!("the bomb must go off"),
    }
}

/// The watchdog outlives the final GVT (ROADMAP 1a): a worker that blocks
/// *after* `terminated` — here the last round's closer, parked on a
/// semaphore nobody will post — used to hang `join` for ever because the
/// monitor had already retired. It must come back as a stall whose dump
/// shows the teardown: everyone `done` but the stranded worker.
#[test]
fn a_worker_stranded_after_termination_is_a_stall_not_a_hang() {
    use pdes_core::{AffinityPolicy, GvtMode, Scheduler};
    use thread_rt::{run_threads_attempt, Optimistic, Protocol, RtShared};

    type Payload = <Phold as pdes_core::Model>::Payload;
    /// Time Warp, except that the closer of the terminating round never
    /// returns from its per-round trace hook.
    struct StrandedCloser;
    impl Protocol<Phold> for StrandedCloser {
        const PARKS_WITH_PENDING: bool = false;
        fn start(_: &Phold, _: &RtRunConfig) -> Self {
            StrandedCloser
        }
        fn horizon(&self, me: usize, sh: &RtShared<Payload>) -> pdes_core::VirtualTime {
            Protocol::<Phold>::horizon(&Optimistic, me, sh)
        }
        fn process(
            &self,
            me: usize,
            horizon: pdes_core::VirtualTime,
            engine: &mut pdes_core::ThreadEngine<Phold>,
            max: usize,
            outbox: &mut Vec<pdes_core::Outbound<Payload>>,
        ) -> pdes_core::BatchOutcome {
            Optimistic.process(me, horizon, engine, max, outbox)
        }
        fn has_demand(&self, sh: &RtShared<Payload>, i: usize) -> bool {
            Protocol::<Phold>::has_demand(&Optimistic, sh, i)
        }
        fn round_instants(&self, sh: &RtShared<Payload>, _: &mut telemetry::Tracer) {
            if sh.round.terminated() {
                // Baseline never parks, so no one ever posts a semaphore.
                sh.sems[0].wait();
            }
        }
        fn tag_metrics(&self, m: &mut metrics::RunMetrics) {
            Protocol::<Phold>::tag_metrics(&Optimistic, m)
        }
        fn stall_reason(idle_secs: f64, bound_secs: f64) -> String {
            <Optimistic as Protocol<Phold>>::stall_reason(idle_secs, bound_secs)
        }
    }

    let threads = 4;
    let model = Arc::new(Phold::new(PholdConfig::balanced(threads, 4)));
    let sys = SystemConfig::new(
        Scheduler::Baseline,
        GvtMode::Async,
        AffinityPolicy::Constant,
    );
    // Telemetry on: the closer only calls the trace hook of a traced run.
    let rc = RtRunConfig::new(threads, engine_cfg(6.0), sys)
        .with_telemetry(telemetry::TelemetryConfig::on())
        .with_watchdog(Some(Duration::from_millis(400)));
    let t0 = std::time::Instant::now();
    let outcome = run_threads_attempt::<Phold, StrandedCloser>(&model, &rc, None, None, None);
    match outcome.outcome {
        Err(RunError::Stalled(dump)) => {
            assert!(dump.terminated, "the final GVT was out: {dump}");
            assert!(dump.reason.contains("teardown stuck"), "{dump}");
            let in_phase = |p: &str| dump.threads.iter().filter(|t| t.phase == p).count();
            assert_eq!(
                (in_phase("done"), in_phase("gvt-end")),
                (threads - 1, 1),
                "{dump}"
            );
        }
        Err(other) => panic!("expected a teardown stall, got: {other}"),
        Ok(_) => panic!("the closer is stranded; the run cannot complete"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "tripped inside the bound, not at some outer timeout: {:?}",
        t0.elapsed()
    );
}
