//! Property tests for the distributed GVT, on the deterministic stepped
//! harness: random shard counts, seeds, optimism windows, and link-fault
//! plans — after *every* node step the published GVT must be monotonically
//! non-decreasing and never exceed the true global minimum.
//!
//! Three layers enforce "never exceeds the true global minimum":
//! - [`SteppedCluster::sweep`] checks `gvt <= engine pending minimum` on
//!   every node after every step and that per-node published GVT never
//!   regresses (a violation is a [`dist_rt::DistError::Protocol`], which
//!   fails the run);
//! - the node itself rejects any delivered message below the published GVT;
//! - the final trace must still equal the sequential oracle, which an
//!   overshooting fossil collection would corrupt.

use std::sync::Arc;

use dist_rt::{DistConfig, LinkFaultPlan, SteppedCluster, Transport};
use models::{Phold, PholdConfig};
use pdes_core::{run_sequential, EngineConfig};
use proptest::prelude::*;

/// A dist run paces its GVT rounds by `EngineConfig::gvt_interval`: two
/// stepped clusters that differ only there close different numbers of
/// rounds, more at the shorter interval (the stepped cluster is
/// deterministic, so the counts repeat).
#[test]
fn the_engine_gvt_interval_paces_the_rounds() {
    let model = Arc::new(Phold::new(PholdConfig::balanced(4, 3)));
    let rounds = |interval: u32| {
        let ecfg = EngineConfig::default()
            .with_end_time(200.0)
            .with_gvt_interval(interval);
        let mut cluster = SteppedCluster::new(Arc::clone(&model), &ecfg, &DistConfig::default())
            .expect("build cluster");
        let out = cluster.run_to_completion(4_000_000).expect("completes");
        out.gvt_rounds
    };
    let (short, long) = (rounds(8), rounds(64));
    assert!(short > long, "{short} rounds at 8, {long} at 64");
}

fn arb_cfg() -> impl Strategy<Value = (usize, u64, f64, Option<f64>, Option<u64>)> {
    // (shards, seed, end_time, optimism window, fault seed)
    (
        2usize..=4,
        any::<u64>(),
        4.0f64..10.0,
        prop::option::of(1.0f64..4.0),
        prop::option::of(any::<u64>()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn gvt_is_monotone_and_never_overshoots(
        (shards, seed, end, window, fault_seed) in arb_cfg()
    ) {
        let model = Arc::new(Phold::new(PholdConfig::balanced(4, 3)));
        let ecfg = EngineConfig::default()
            .with_end_time(end)
            .with_seed(seed)
            .with_optimism_window(window)
            .with_gvt_interval(8);
        let dcfg = DistConfig {
            shards,
            transport: Transport::Mem,
            link_faults: fault_seed.map(LinkFaultPlan::chaos),
            ckpt_every_rounds: 4,
            ..DistConfig::default()
        };
        let oracle = run_sequential(&model, &ecfg, None);
        let mut cluster = SteppedCluster::new(Arc::clone(&model), &ecfg, &dcfg)
            .expect("build cluster");
        // run_to_completion propagates any sweep-time invariant violation.
        let out = cluster.run_to_completion(4_000_000).expect("invariants hold");
        prop_assert_eq!(out.regressions, 0, "coordinator clamped a regression");
        for (i, hist) in cluster.gvt_history.iter().enumerate() {
            prop_assert!(
                hist.windows(2).all(|w| w[0] <= w[1]),
                "shard {} saw a non-monotone GVT sequence", i
            );
        }
        // Terminal GVT must have crossed the end time.
        prop_assert!(out.gvt >= ecfg.end_time.ticks());
        // And the trace is still exactly the oracle's.
        prop_assert_eq!(out.totals.committed, oracle.committed);
        prop_assert_eq!(out.totals.commit_digest, oracle.commit_digest);
        let states: Vec<u64> = out.state_digests.iter().map(|(_, d)| *d).collect();
        prop_assert_eq!(states, oracle.state_digests);
        prop_assert_eq!(out.pending_digest, oracle.pending_digest);
    }

    /// Armed rounds assemble checkpoints whose committed totals are
    /// consistent with the cut's GVT: restoring and replaying sequentially
    /// from the cut reproduces the full oracle trace.
    #[test]
    fn assembled_checkpoints_resume_to_the_oracle(
        seed in any::<u64>(), end in 6.0f64..10.0,
    ) {
        let model = Arc::new(Phold::new(PholdConfig::balanced(4, 3)));
        let ecfg = EngineConfig::default()
            .with_end_time(end)
            .with_seed(seed)
            .with_optimism_window(Some(2.0))
            .with_gvt_interval(8);
        let dcfg = DistConfig {
            shards: 3,
            transport: Transport::Mem,
            ckpt_every_rounds: 2,
            ..DistConfig::default()
        };
        let oracle = run_sequential(&model, &ecfg, None);
        let mut cluster = SteppedCluster::new(Arc::clone(&model), &ecfg, &dcfg)
            .expect("build cluster");
        cluster.run_to_completion(4_000_000).expect("completes");
        let ck = cluster.latest_checkpoint().expect("armed rounds ran");
        prop_assert!(ck.total_committed() <= oracle.committed);
        let resumed = pdes_core::run_sequential_with(&model, &ecfg, Some(&ck), &[], None);
        prop_assert_eq!(resumed.committed, oracle.committed);
        prop_assert_eq!(resumed.commit_digest, oracle.commit_digest);
        prop_assert_eq!(resumed.state_digests, oracle.state_digests);
    }
}
