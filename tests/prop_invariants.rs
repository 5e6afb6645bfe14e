//! Property-based tests over the whole stack: random workload parameters,
//! random seeds — the Time Warp invariants must hold every time.

use ggpdes::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_phold() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    // (threads, lps_per_thread, groups k, seed)
    (
        2usize..=8,
        2usize..=6,
        prop::sample::select(vec![1usize, 2, 4]),
        any::<u64>(),
    )
        .prop_filter("threads divisible by groups", |(t, _, k, _)| t % k == 0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Any PHOLD configuration, any seed: the virtual-machine run commits
    /// exactly the sequential trace and GVT never regresses.
    #[test]
    fn vm_matches_oracle_on_random_phold((threads, lps, k, seed) in arb_phold()) {
        let end = 6.0;
        let cfg = if k == 1 {
            PholdConfig::balanced(threads, lps)
        } else {
            PholdConfig::imbalanced(threads, lps, k, end, LocalityPattern::Linear)
        };
        let model = Arc::new(Phold::new(cfg));
        let ecfg = EngineConfig::default()
            .with_end_time(end)
            .with_seed(seed)
            .with_gvt_interval(15)
            .with_zero_counter_threshold(60);
        let oracle = run_sequential(&model, &ecfg, None);
        let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
        let rc = RunConfig::new(threads, ecfg, sys).with_machine(MachineConfig::small(2, 2));
        let r = sim_rt::run_sim(&model, &rc);
        prop_assert!(r.completed);
        prop_assert_eq!(r.invariants.gvt_regressions, 0);
        prop_assert_eq!(r.metrics.committed, oracle.committed);
        prop_assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
        prop_assert_eq!(r.digests, oracle.state_digests);
    }

    /// Determinism: the same configuration twice gives bit-identical metrics.
    #[test]
    fn vm_runs_are_deterministic(seed in any::<u64>()) {
        let threads = 4;
        let model = Arc::new(Phold::new(PholdConfig::imbalanced(
            threads, 4, 2, 5.0, LocalityPattern::Linear,
        )));
        let ecfg = EngineConfig::default()
            .with_end_time(5.0)
            .with_seed(seed)
            .with_gvt_interval(15)
            .with_zero_counter_threshold(60);
        let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Sync, AffinityPolicy::Constant);
        let rc = RunConfig::new(threads, ecfg, sys).with_machine(MachineConfig::small(2, 2));
        let a = sim_rt::run_sim(&model, &rc);
        let b = sim_rt::run_sim(&model, &rc);
        prop_assert_eq!(a.metrics, b.metrics);
        prop_assert_eq!(a.report.as_ref().unwrap().virtual_ns, b.report.as_ref().unwrap().virtual_ns);
    }

    /// The sequential oracle is insensitive to the LP→thread mapping (it is
    /// a property of the model + seed only).
    #[test]
    fn oracle_ignores_mapping(seed in any::<u64>()) {
        let model = Arc::new(Phold::new(PholdConfig::balanced(4, 4)));
        let a = run_sequential(
            &model,
            &EngineConfig::default().with_end_time(4.0).with_seed(seed),
            None,
        );
        let b = run_sequential(
            &model,
            &EngineConfig::default()
                .with_end_time(4.0)
                .with_seed(seed)
                .with_mapping(MapKind::Block),
            None,
        );
        prop_assert_eq!(a.commit_digest, b.commit_digest);
        prop_assert_eq!(a.state_digests, b.state_digests);
    }

    /// Burr sampling respects its CDF at every quantile.
    #[test]
    fn burr_quantiles_invert(u in 0.0001f64..0.9999) {
        let b = Burr::TRAVEL_TIME;
        let x = b.quantile(u);
        prop_assert!((b.cdf(x) - u).abs() < 1e-6);
    }

    /// Virtual time conversion preserves ordering.
    #[test]
    fn virtual_time_order_preserved(a in 0.0f64..1e9, b in 0.0f64..1e9) {
        let (va, vb) = (VirtualTime::from_f64(a), VirtualTime::from_f64(b));
        if a < b && (b - a) > 1e-5 {
            prop_assert!(va < vb);
        }
        if (a - b).abs() < 1e-9 {
            prop_assert_eq!(va, vb);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Sparse state saving and bounded optimism are pure optimizations: for
    /// any snapshot period and window, the committed trace equals the
    /// classical configuration's (and the oracle's).
    #[test]
    fn snapshot_period_and_window_preserve_trace(
        seed in any::<u64>(),
        period in 1u32..12,
        window in prop::option::of(0.5f64..4.0),
    ) {
        let threads = 4;
        let model = Arc::new(Phold::new(PholdConfig::imbalanced(
            threads, 4, 2, 5.0, LocalityPattern::Linear,
        )));
        let ecfg = EngineConfig::default()
            .with_end_time(5.0)
            .with_seed(seed)
            .with_gvt_interval(15)
            .with_zero_counter_threshold(60)
            .with_snapshot_period(period)
            .with_optimism_window(window);
        let oracle = run_sequential(&model, &ecfg, None);
        let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
        let rc = RunConfig::new(threads, ecfg, sys).with_machine(MachineConfig::small(2, 2));
        let r = sim_rt::run_sim(&model, &rc);
        prop_assert!(r.completed);
        prop_assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
        prop_assert_eq!(r.digests, oracle.state_digests);
    }

    /// Random *safe* fault plans (delivery delays, adversarial reordering,
    /// straggler storms): GVT never regresses, the run completes, and the
    /// committed trace still equals the sequential oracle's.
    #[test]
    fn gvt_never_regresses_under_random_fault_plans(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        delay in 0.0f64..0.35,
        reorder in 0.0f64..1.0,
        straggler in 0.0f64..0.15,
    ) {
        let threads = 4;
        let model = Arc::new(Phold::new(PholdConfig::imbalanced(
            threads, 4, 2, 5.0, LocalityPattern::Linear,
        )));
        let ecfg = EngineConfig::default()
            .with_end_time(5.0)
            .with_seed(seed)
            .with_gvt_interval(15)
            .with_zero_counter_threshold(60);
        let oracle = run_sequential(&model, &ecfg, None);
        let plan = FaultPlan {
            seed: fault_seed,
            delay: Some(ggpdes::pdes_core::DelayFault { prob: delay }),
            reorder: Some(ggpdes::pdes_core::ReorderFault { prob: reorder }),
            straggler: Some(ggpdes::pdes_core::StragglerFault {
                prob: straggler,
                max_storms: 8,
            }),
            ..FaultPlan::default()
        };
        let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
        let rc = RunConfig::new(threads, ecfg, sys)
            .with_machine(MachineConfig::small(2, 2))
            .with_faults(plan);
        let r = sim_rt::run_sim(&model, &rc);
        prop_assert!(r.completed, "stalled under a safe plan: {:?}", r.stall);
        prop_assert_eq!(r.invariants.gvt_regressions, 0);
        prop_assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
        prop_assert_eq!(r.digests, oracle.state_digests);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The yield tier (armed whenever GG-PDES threads outnumber contexts)
    /// only moves *when* a thread runs: on any machine shape, window and
    /// seed, Async and Sync still commit the oracle's trace, GVT never
    /// regresses, and the run ends under a virtual watchdog a hundredth of
    /// the default (0.1 virtual seconds without a GVT round): threads that
    /// keep handing the context to each other must not starve the round.
    #[test]
    fn yielding_cannot_livelock_or_break_the_oracle(
        (threads, lps, k, seed) in arb_phold(),
        cores in 1usize..=2,
        smt in 1usize..=2,
        window in prop::option::of(0.5f64..16.0),
        sync in any::<bool>(),
    ) {
        let end = 6.0;
        let cfg = if k == 1 {
            PholdConfig::balanced(threads, lps)
        } else {
            PholdConfig::imbalanced(threads, lps, k, end, LocalityPattern::Linear)
        };
        let model = Arc::new(Phold::new(cfg));
        let ecfg = EngineConfig::default()
            .with_end_time(end)
            .with_seed(seed)
            .with_gvt_interval(15)
            .with_zero_counter_threshold(60)
            .with_optimism_window(window);
        let oracle = run_sequential(&model, &ecfg, None);
        let gvt = if sync { GvtMode::Sync } else { GvtMode::Async };
        let sys = SystemConfig::new(Scheduler::GgPdes, gvt, AffinityPolicy::Constant);
        let rc = RunConfig::new(threads, ecfg, sys)
            .with_machine(MachineConfig::small(cores, smt))
            .with_watchdog_ns(Some(100_000_000));
        let r = sim_rt::run_sim(&model, &rc);
        prop_assert!(r.completed, "stalled: {:?}", r.stall);
        prop_assert_eq!(r.invariants.gvt_regressions, 0);
        prop_assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
        prop_assert_eq!(r.digests, oracle.state_digests);
        if threads <= cores * smt {
            prop_assert_eq!(r.metrics.voluntary_yields, 0, "the tier is inert here");
        }
    }
}

/// Two threads on one context — the benchmark's machine — under all six
/// systems and the benchmark's four workload shapes (scaled down): only
/// GG-PDES may yield, and everyone commits the oracle's trace.
#[test]
fn six_systems_match_oracle_two_threads_on_one_context() {
    fn check<M: Model>(label: &str, model: M, ecfg: EngineConfig) {
        let model = Arc::new(model);
        let oracle = run_sequential(&model, &ecfg, None);
        assert!(oracle.committed > 0, "{label}: empty oracle run");
        for sys in SystemConfig::ALL_SIX {
            let rc = RunConfig::new(2, ecfg.clone(), sys).with_machine(MachineConfig::small(1, 1));
            let r = sim_rt::run_sim(&model, &rc);
            let what = format!("{label} under {}", sys.name());
            assert!(r.completed, "{what}: {:?}", r.stall);
            assert_eq!(r.metrics.commit_digest, oracle.commit_digest, "{what}");
            assert_eq!(r.digests, oracle.state_digests, "{what}");
            // GG-Sync yields on net-negative cycles only, and not every
            // shape has one; the other two schedulers never yield.
            let yields = r.metrics.voluntary_yields;
            match (sys.scheduler, sys.gvt) {
                (Scheduler::GgPdes, GvtMode::Async) => assert!(yields > 0, "{what}"),
                (Scheduler::GgPdes, GvtMode::Sync) => {}
                _ => assert_eq!(yields, 0, "{what}"),
            }
        }
    }
    let ecfg = |end: f64, window: f64| {
        EngineConfig::default()
            .with_end_time(end)
            .with_seed(977)
            .with_batch_size(8)
            .with_gvt_interval(25)
            .with_snapshot_period(8)
            .with_zero_counter_threshold(250)
            .with_optimism_window(Some(window))
    };
    check(
        "phold-balanced",
        Phold::new(PholdConfig::balanced(2, 32)),
        ecfg(40.0, 4.0),
    );
    let skew = PholdConfig {
        schedule: ActivitySchedule {
            num_threads: 2,
            groups: 2,
            epoch_len: 10.0,
            pattern: LocalityPattern::Linear,
        },
        ..PholdConfig::balanced(2, 32)
    };
    check("phold-skew", Phold::new(skew), ecfg(40.0, 4.0));
    check(
        "phold-thrash",
        Phold::new(PholdConfig::balanced(2, 8)),
        ecfg(400.0, 16.0),
    );
    check(
        "traffic-grid",
        Traffic::new(TrafficConfig::new(2, 64, 1.0)),
        ecfg(20.0, 4.0).with_mapping(MapKind::Block),
    );
}
