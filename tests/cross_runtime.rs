//! Cross-runtime correctness: for each model, a sequential run, a
//! virtual-machine run, a real-thread run, and a conservative (null-message)
//! run must all commit exactly the same event trace and leave every LP in
//! the same final state — the conservative one under every `(scheduler,
//! gvt)` pair it accepts.

use ggpdes::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn engine(end: f64) -> EngineConfig {
    EngineConfig::default()
        .with_end_time(end)
        .with_seed(123)
        .with_gvt_interval(20)
        .with_zero_counter_threshold(100)
}

fn check_model<M: Model>(model: Arc<M>, threads: usize, ecfg: EngineConfig, label: &str) {
    let oracle = run_sequential(&model, &ecfg, None);
    assert!(oracle.committed > 0, "{label}: empty oracle run");

    // Virtual machine, flagship system.
    let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
    let rc = RunConfig::new(threads, ecfg.clone(), sys).with_machine(MachineConfig::small(4, 2));
    let vm = sim_rt::run_sim(&model, &rc);
    assert!(vm.completed, "{label}: vm run did not complete");
    assert_eq!(
        vm.metrics.committed, oracle.committed,
        "{label}: vm committed"
    );
    assert_eq!(
        vm.metrics.commit_digest, oracle.commit_digest,
        "{label}: vm digest"
    );
    assert_eq!(vm.digests, oracle.state_digests, "{label}: vm states");

    // Real threads.
    let rt_rc = thread_rt::RtRunConfig::new(threads, ecfg, sys);
    let rt = thread_rt::run_threads(&model, &rt_rc).expect("run completes");
    assert_eq!(
        rt.metrics.committed, oracle.committed,
        "{label}: rt committed"
    );
    assert_eq!(
        rt.metrics.commit_digest, oracle.commit_digest,
        "{label}: rt digest"
    );
    assert_eq!(rt.digests, oracle.state_digests, "{label}: rt states");
}

/// Every `(scheduler, gvt)` pair the conservative protocol accepts. The
/// third scheduler, DD-PDES, is refused — see
/// `cons_refuses_the_dedicated_controller`.
const CONS_SYSTEMS: [(Scheduler, GvtMode); 4] = [
    (Scheduler::GgPdes, GvtMode::Async),
    (Scheduler::GgPdes, GvtMode::Sync),
    (Scheduler::Baseline, GvtMode::Async),
    (Scheduler::Baseline, GvtMode::Sync),
];

/// The conservative runtime must commit the oracle's exact trace too, under
/// every system it accepts — and, unlike the optimistic runtimes, must do it
/// without a single rollback: every event it processes is already safe.
fn check_cons<M: Model>(model: Arc<M>, threads: usize, ecfg: EngineConfig, label: &str) {
    let oracle = run_sequential(&model, &ecfg, None);
    assert!(oracle.committed > 0, "{label}: empty oracle run");
    for (scheduler, gvt) in CONS_SYSTEMS {
        let sys = SystemConfig::new(scheduler, gvt, AffinityPolicy::Constant);
        let label = format!("{label} {}", sys.name());
        let rc = ConsRunConfig::new(threads, ecfg.clone(), sys);
        let r = run_cons(&model, &rc).unwrap_or_else(|e| panic!("{label}: cons run failed: {e}"));
        assert_eq!(
            r.metrics.committed, oracle.committed,
            "{label}: cons committed"
        );
        assert_eq!(
            r.metrics.commit_digest, oracle.commit_digest,
            "{label}: cons digest"
        );
        assert_eq!(r.digests, oracle.state_digests, "{label}: cons states");
        assert_eq!(r.metrics.rolled_back, 0, "{label}: cons rolled back");
        assert_eq!(r.metrics.system, sys.name(), "{label}: system tag");
        assert_eq!(r.metrics.protocol, "conservative", "{label}: protocol tag");
        assert!(
            r.metrics.null_messages_sent > 0,
            "{label}: no null messages"
        );
    }
}

#[test]
fn phold_agrees_across_runtimes() {
    let threads = 4;
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        2,
        8.0,
        LocalityPattern::Linear,
    )));
    check_model(model, threads, engine(8.0), "phold");
}

#[test]
fn epidemics_agrees_across_runtimes() {
    let threads = 4;
    let mut cfg = EpidemicsConfig::new(threads, 8, 4, 8.0);
    cfg.incubation_mean = 0.1;
    cfg.infectious_mean = 0.5;
    let model = Arc::new(Epidemics::new(cfg));
    check_model(model, threads, engine(8.0), "epidemics");
}

#[test]
fn traffic_agrees_across_runtimes() {
    let threads = 4;
    let mut cfg = TrafficConfig::new(threads, 8, 0.5);
    cfg.travel_scale = 0.3;
    let model = Arc::new(Traffic::new(cfg));
    let ecfg = engine(5.0).with_mapping(MapKind::Block);
    check_model(model, threads, ecfg, "traffic");
}

#[test]
fn every_system_agrees_on_every_model_via_vm() {
    let threads = 4;
    let ecfg = engine(5.0);
    let phold: Arc<Phold> = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        4,
        5.0,
        LocalityPattern::Strided,
    )));
    let oracle = run_sequential(&phold, &ecfg, None);
    for sys in SystemConfig::ALL_SIX {
        let rc =
            RunConfig::new(threads, ecfg.clone(), sys).with_machine(MachineConfig::small(2, 2));
        let r = sim_rt::run_sim(&phold, &rc);
        assert_eq!(
            r.metrics.commit_digest,
            oracle.commit_digest,
            "{}",
            sys.name()
        );
        assert_eq!(r.gvt_regressions, 0, "{}", sys.name());
    }
}

#[test]
fn dynamic_affinity_preserves_correctness() {
    let threads = 8;
    let ecfg = engine(6.0);
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        4,
        4,
        6.0,
        LocalityPattern::Strided,
    )));
    let oracle = run_sequential(&model, &ecfg, None);
    let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Dynamic);
    let rc = RunConfig::new(threads, ecfg, sys).with_machine(MachineConfig::small(4, 2));
    let r = sim_rt::run_sim(&model, &rc);
    assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
}

#[test]
fn cons_phold_agrees_with_oracle_at_2_and_4_threads() {
    for threads in [2, 4] {
        let model = Arc::new(Phold::new(PholdConfig::imbalanced(
            threads,
            4,
            2,
            8.0,
            LocalityPattern::Linear,
        )));
        check_cons(model, threads, engine(8.0), &format!("phold-t{threads}"));
    }
}

#[test]
fn cons_epidemics_agrees_with_oracle_at_2_and_4_threads() {
    for threads in [2, 4] {
        // Lock-down groups must divide the thread count, so the rotation
        // schedule scales with the run instead of pinning it to 4 threads.
        let mut cfg = EpidemicsConfig::new(threads, 8, threads, 8.0);
        cfg.incubation_mean = 0.1;
        cfg.infectious_mean = 0.5;
        let model = Arc::new(Epidemics::new(cfg));
        check_cons(
            model,
            threads,
            engine(8.0),
            &format!("epidemics-t{threads}"),
        );
    }
}

#[test]
fn cons_traffic_agrees_with_oracle_at_2_and_4_threads() {
    for threads in [2, 4] {
        let mut cfg = TrafficConfig::new(threads, 8, 0.5);
        cfg.travel_scale = 0.3;
        let model = Arc::new(Traffic::new(cfg));
        let ecfg = engine(5.0).with_mapping(MapKind::Block);
        check_cons(model, threads, ecfg, &format!("traffic-t{threads}"));
    }
}

/// DD-PDES hands activation to a dedicated controller that only looks at
/// queue lengths; a conservative thread parked with live pending would never
/// be woken. The combination is refused with a structured error, under
/// either GVT mode — never remapped onto GG-PDES parking.
#[test]
fn cons_refuses_the_dedicated_controller() {
    let model = Arc::new(Phold::new(PholdConfig::balanced(2, 4)));
    for gvt in [GvtMode::Async, GvtMode::Sync] {
        let sys = SystemConfig::new(Scheduler::DdPdes, gvt, AffinityPolicy::Constant);
        let rc = ConsRunConfig::new(2, engine(4.0), sys);
        match run_cons(&model, &rc) {
            Err(ConsError::DedicatedController) => {}
            Ok(_) => panic!("{}: DD-PDES must not run conservatively", sys.name()),
            Err(e) => panic!("{}: wrong error: {e}", sys.name()),
        }
    }
}

/// What one protocol left behind after a traced run through the shared
/// `worker_loop`.
struct SeamRun {
    metrics: RunMetrics,
    digests: Vec<u64>,
    /// The span/instant kinds that occur anywhere in the trace.
    kinds: Vec<telemetry::EventKind>,
}

fn seam_run<M: Model, P: thread_rt::Protocol<M>>(
    model: &Arc<M>,
    threads: usize,
    ecfg: &EngineConfig,
) -> SeamRun {
    let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
    let rc = thread_rt::RtRunConfig::new(threads, ecfg.clone(), sys)
        .with_telemetry(telemetry::TelemetryConfig::on());
    let r = thread_rt::run_threads_attempt::<M, P>(model, &rc, None, None, None)
        .outcome
        .expect("run completes");
    let mut kinds = Vec::new();
    for rec in r
        .telemetry
        .iter()
        .flat_map(|t| &t.threads)
        .flat_map(|t| &t.records)
    {
        if !kinds.contains(&rec.kind) {
            kinds.push(rec.kind);
        }
    }
    SeamRun {
        metrics: r.metrics,
        digests: r.digests,
        kinds,
    }
}

/// The optimistic and the conservative protocol are two policies on one
/// worker loop. Beyond the oracle digest, this pins what the two copies of
/// that loop used to guarantee by being copies: the same GVT-phase span
/// vocabulary in the trace, no rollback and no anti-message under the
/// conservative rule, and demand-driven parking engaging for both on the
/// imbalanced workload.
#[test]
fn both_protocols_share_one_worker_loop() {
    use telemetry::EventKind::*;
    const ROUND_VOCABULARY: [telemetry::EventKind; 6] =
        [GvtA, GvtSendA, GvtB, GvtSendB, GvtAware, GvtEnd];

    fn check<M: Model>(
        model: Arc<M>,
        threads: usize,
        ecfg: EngineConfig,
        parks: bool,
        label: &str,
    ) {
        let oracle = run_sequential(&model, &ecfg, None);
        let opt = seam_run::<M, thread_rt::Optimistic>(&model, threads, &ecfg);
        let cons = seam_run::<M, cons_rt::Conservative>(&model, threads, &ecfg);
        for (run, proto) in [(&opt, "optimistic"), (&cons, "conservative")] {
            let label = format!("{label}/{proto}");
            assert_eq!(run.metrics.protocol, proto, "{label}: protocol tag");
            assert_eq!(
                run.metrics.commit_digest, oracle.commit_digest,
                "{label}: digest"
            );
            assert_eq!(run.digests, oracle.state_digests, "{label}: states");
            for kind in ROUND_VOCABULARY {
                assert!(run.kinds.contains(&kind), "{label}: no {kind:?} span");
            }
            if parks {
                assert!(run.metrics.max_descheduled > 0, "{label}: never parked");
                assert!(run.kinds.contains(&Park), "{label}: no Park span");
                assert!(run.kinds.contains(&Unpark), "{label}: no Unpark instant");
            }
        }
        assert_eq!(cons.metrics.rolled_back, 0, "{label}: cons rolled back");
        assert_eq!(cons.metrics.antis_sent, 0, "{label}: cons sent antis");
        assert!(
            !cons.kinds.contains(&Rollback),
            "{label}: cons Rollback span"
        );
    }

    let threads = 4;
    // A 1-2 imbalanced PHOLD with a prompt idle threshold: half the threads
    // have nothing to do for a whole epoch at a time and must park.
    let phold = Arc::new(Phold::new(PholdConfig::imbalanced(
        threads,
        8,
        2,
        4.0,
        LocalityPattern::Linear,
    )));
    check(
        phold,
        threads,
        engine(40.0).with_zero_counter_threshold(8),
        true,
        "phold",
    );

    let mut cfg = EpidemicsConfig::new(threads, 8, 4, 8.0);
    cfg.incubation_mean = 0.1;
    cfg.infectious_mean = 0.5;
    check(
        Arc::new(Epidemics::new(cfg)),
        threads,
        engine(8.0),
        false,
        "epidemics",
    );

    let mut cfg = TrafficConfig::new(threads, 8, 0.5);
    cfg.travel_scale = 0.3;
    check(
        Arc::new(Traffic::new(cfg)),
        threads,
        engine(5.0).with_mapping(MapKind::Block),
        false,
        "traffic",
    );
}

/// Integer-tick ring: every LP starts one event at t = 1 and each event
/// schedules its successor on the next LP exactly one time unit later, so
/// with an integral end time a generation of events lands *exactly* on it.
struct TickRing {
    lps: usize,
}

impl Model for TickRing {
    type State = u64;
    type Payload = ();

    fn num_lps(&self) -> usize {
        self.lps
    }
    fn init_state(&self, _lp: LpId) -> u64 {
        0
    }
    fn init_events(&self, lp: LpId, _state: &mut u64, ctx: &mut SendCtx<'_, ()>) {
        ctx.send(lp, 1.0, ());
    }
    fn handle_event(&self, lp: LpId, state: &mut u64, _p: &(), ctx: &mut SendCtx<'_, ()>) {
        *state += 1;
        ctx.send(LpId((lp.0 + 1) % self.lps as u32), 1.0, ());
    }
    fn state_digest(&self, state: &u64) -> u64 {
        *state
    }
    fn lookahead(&self) -> f64 {
        1.0
    }
}

/// One end-of-run rule: a run covers `[0, end)` on every runtime. The
/// oracle used to commit the events stamped exactly at `end_time` while the
/// optimistic runtimes (which finish at GVT ≥ end) never ran them.
#[test]
fn events_stamped_exactly_at_end_time_are_outside_the_run_everywhere() {
    let (threads, lps, end) = (4, 8, 6.0);
    let model = Arc::new(TickRing { lps });
    let ecfg = engine(end);
    let oracle = run_sequential(&model, &ecfg, None);
    // Generations at t = 1..=5 run; the one at t = 6 does not.
    assert_eq!(oracle.committed, 5 * lps as u64);
    assert_eq!(oracle.state_digests, vec![5; lps]);

    let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
    let rt = thread_rt::RtRunConfig::new(threads, ecfg.clone(), sys);
    let vm = RunConfig::new(threads, ecfg.clone(), sys).with_machine(MachineConfig::small(2, 2));
    let dcfg = dist_rt::DistConfig {
        shards: 2,
        transport: dist_rt::Transport::Mem,
        ..dist_rt::DistConfig::default()
    };
    let dist = dist_rt::run_loopback(Arc::clone(&model), &ecfg, &dcfg).expect("dist run");
    let runs = [
        (
            "threads",
            thread_rt::run_threads(&model, &rt).expect("rt run").metrics,
        ),
        ("cons", run_cons(&model, &rt).expect("cons run").metrics),
        ("vm", sim_rt::run_sim(&model, &vm).metrics),
        ("dist", dist.metrics),
    ];
    for (label, m) in runs {
        assert_eq!(m.committed, oracle.committed, "{label}: committed");
        assert_eq!(m.commit_digest, oracle.commit_digest, "{label}: digest");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]
    /// Chandy–Misra–Bryant's deadlock-avoidance promise, checked end to
    /// end: any strictly positive lookahead — however small — lets the
    /// conservative runtime finish (no cyclic wait survives a positive
    /// clock advance) and commit the oracle's exact trace. The watchdog
    /// bound turns a liveness bug into a test failure instead of a hang.
    #[test]
    fn cons_positive_lookahead_never_deadlocks(
        seed in 0u64..u64::MAX / 2,
        la in 0.01f64..1.0,
        threads in prop::sample::select(vec![2usize, 4]),
    ) {
        let mut cfg = PholdConfig::balanced(threads, 4);
        cfg.lookahead = la;
        let model = Arc::new(Phold::new(cfg));
        let ecfg = engine(4.0).with_seed(seed);
        let oracle = run_sequential(&model, &ecfg, None);
        let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
        let rc = ConsRunConfig::new(threads, ecfg, sys)
            .with_watchdog(Some(Duration::from_secs(60)));
        let r = run_cons(&model, &rc)
            .unwrap_or_else(|e| panic!("lookahead {la}: {e}"));
        prop_assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
        prop_assert_eq!(r.metrics.rolled_back, 0);
    }
}

/// The zero-allocation hot path is a pure mechanism change: pooled event
/// storage, sparse state saving (`snapshot_period > 1` + coast-forward),
/// and batched inter-thread sends must be digest-invisible on every model
/// and every runtime. The full matrix — phold/epidemics/traffic ×
/// {thread-rt 2/4, cons-rt 2, dist-rt 2-shard} — runs under the hot-path
/// configuration (`snapshot_period = 8`) and must commit the oracle's
/// exact trace.
#[test]
fn sparse_hot_path_matrix_agrees_with_oracle() {
    fn check_matrix<M: Model>(model: Arc<M>, ecfg: EngineConfig, label: &str) {
        let oracle = run_sequential(&model, &ecfg, None);
        assert!(oracle.committed > 0, "{label}: empty oracle run");
        let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);

        for threads in [2usize, 4] {
            let rc = thread_rt::RtRunConfig::new(threads, ecfg.clone(), sys);
            let r = thread_rt::run_threads(&model, &rc).expect("rt run completes");
            assert_eq!(
                r.metrics.commit_digest, oracle.commit_digest,
                "{label}: thread-rt {threads} digest"
            );
            assert_eq!(
                r.digests, oracle.state_digests,
                "{label}: thread-rt {threads} states"
            );
        }

        let rc = ConsRunConfig::new(2, ecfg.clone(), sys);
        let r = run_cons(&model, &rc).unwrap_or_else(|e| panic!("{label}: cons: {e}"));
        assert_eq!(
            r.metrics.commit_digest, oracle.commit_digest,
            "{label}: cons-rt 2 digest"
        );
        assert_eq!(r.metrics.rolled_back, 0, "{label}: cons-rt rolled back");

        let dcfg = dist_rt::DistConfig {
            shards: 2,
            transport: dist_rt::Transport::Mem,
            ..dist_rt::DistConfig::default()
        };
        // The dist run paces its rounds at 16 cycles; the thread runs keep
        // their own cadence.
        let dist_ecfg = ecfg.clone().with_gvt_interval(16);
        let r = dist_rt::run_loopback(Arc::clone(&model), &dist_ecfg, &dcfg)
            .unwrap_or_else(|e| panic!("{label}: dist: {e}"));
        assert_eq!(
            r.metrics.commit_digest, oracle.commit_digest,
            "{label}: dist-rt 2-shard digest"
        );
        let states: Vec<u64> = r.state_digests.iter().map(|(_, d)| *d).collect();
        assert_eq!(
            states, oracle.state_digests,
            "{label}: dist-rt 2-shard states"
        );
    }

    let sparse = engine(6.0).with_snapshot_period(8);

    let phold = Arc::new(Phold::new(PholdConfig::imbalanced(
        4,
        4,
        2,
        6.0,
        LocalityPattern::Linear,
    )));
    check_matrix(phold, sparse.clone(), "phold");

    let mut ecfg = EpidemicsConfig::new(4, 8, 4, 6.0);
    ecfg.incubation_mean = 0.1;
    ecfg.infectious_mean = 0.5;
    check_matrix(Arc::new(Epidemics::new(ecfg)), sparse.clone(), "epidemics");

    let mut tcfg = TrafficConfig::new(4, 8, 0.5);
    tcfg.travel_scale = 0.3;
    check_matrix(
        Arc::new(Traffic::new(tcfg)),
        sparse.with_mapping(MapKind::Block).with_end_time(5.0),
        "traffic",
    );
}
