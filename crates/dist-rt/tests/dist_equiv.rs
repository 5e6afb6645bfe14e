//! The distributed equivalence invariant: a multi-shard run commits the
//! exact sequential-oracle trace — identical commit digest, per-LP state
//! digests, and pending digest — at 2 and 4 shards, over memory and TCP
//! links, under link faults, and across a shard kill-and-recover.

use std::sync::Arc;

use dist_rt::{run_loopback, DistConfig, LinkFaultPlan, SteppedCluster, Transport};
use metrics::RunOutcome;
use models::{Phold, PholdConfig};
use pdes_core::{run_sequential, EngineConfig, SequentialResult};

/// One shared model/config pair: the oracle trace is a property of these,
/// not of the shard count.
fn model() -> Arc<Phold> {
    Arc::new(Phold::new(PholdConfig::balanced(4, 4)))
}

fn ecfg(end: f64) -> EngineConfig {
    EngineConfig::default()
        .with_end_time(end)
        .with_seed(77)
        // A bounded optimism window keeps shards advancing in lockstep
        // with GVT publishes — the regime the round machinery must carry.
        .with_optimism_window(Some(2.0))
        .with_gvt_interval(16)
}

fn dcfg(shards: usize, transport: Transport) -> DistConfig {
    DistConfig {
        shards,
        transport,
        ..DistConfig::default()
    }
}

#[track_caller]
fn assert_matches_oracle(r: &RunOutcome, oracle: &SequentialResult, what: &str) {
    assert_eq!(r.metrics.committed, oracle.committed, "{what}: committed");
    assert_eq!(
        r.metrics.commit_digest, oracle.commit_digest,
        "{what}: commit digest"
    );
    assert_eq!(r.digests, oracle.state_digests, "{what}: state digests");
    assert_eq!(
        r.pending_digest, oracle.pending_digest,
        "{what}: pending digest"
    );
    assert_eq!(r.invariants.gvt_regressions, 0, "{what}: GVT regressed");
}

#[test]
fn two_and_four_shards_match_oracle_over_memory_links() {
    let model = model();
    let ecfg = ecfg(12.0);
    let oracle = run_sequential(&model, &ecfg, None);
    assert!(oracle.committed > 100, "oracle too small to be interesting");
    for shards in [2, 4] {
        let r = run_loopback(Arc::clone(&model), &ecfg, &dcfg(shards, Transport::Mem))
            .expect("loopback run completes");
        assert_matches_oracle(&r, &oracle, &format!("{shards}-shard mem"));
        assert!(r.metrics.gvt_rounds > 3, "GVT rounds must have driven this");
    }
}

#[test]
fn two_and_four_shards_match_oracle_over_tcp() {
    let model = model();
    let ecfg = ecfg(10.0);
    let oracle = run_sequential(&model, &ecfg, None);
    for shards in [2, 4] {
        let r = run_loopback(Arc::clone(&model), &ecfg, &dcfg(shards, Transport::Tcp))
            .expect("tcp loopback run completes");
        assert_matches_oracle(&r, &oracle, &format!("{shards}-shard tcp"));
    }
}

#[test]
fn chaos_links_still_match_oracle() {
    let model = model();
    let ecfg = ecfg(10.0);
    let oracle = run_sequential(&model, &ecfg, None);
    for (shards, seed) in [(2, 5u64), (4, 6u64), (4, 7u64)] {
        let mut cfg = dcfg(shards, Transport::Mem);
        cfg.link_faults = Some(LinkFaultPlan::chaos(seed));
        let r = run_loopback(Arc::clone(&model), &ecfg, &cfg).expect("faulty-link run completes");
        assert_matches_oracle(&r, &oracle, &format!("{shards}-shard chaos seed {seed}"));
    }
}

#[test]
fn chaos_links_over_tcp_match_oracle() {
    let model = model();
    let ecfg = ecfg(8.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let mut cfg = dcfg(2, Transport::Tcp);
    cfg.link_faults = Some(LinkFaultPlan::chaos(11));
    let r = run_loopback(Arc::clone(&model), &ecfg, &cfg).expect("run completes");
    assert_matches_oracle(&r, &oracle, "2-shard tcp chaos");
}

#[test]
fn killed_shard_recovers_from_checkpoint_cut_and_matches_oracle() {
    let model = model();
    let ecfg = ecfg(40.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let mut cfg = dcfg(2, Transport::Mem);
    cfg.ckpt_every_rounds = 2;
    // Die on the 5th publish: rounds 2 and 4 were armed, so the coordinator
    // holds an assembled checkpoint cut by then — deterministically.
    cfg.kills = vec![(1, 5)];
    cfg.max_recoveries = 2;
    let r = run_loopback(Arc::clone(&model), &ecfg, &cfg).expect("recovers");
    assert_eq!(
        r.recovery.recovered.len(),
        1,
        "exactly one scripted kill fires"
    );
    assert!(
        r.recovery.used_checkpoint,
        "recovery must restore from an assembled per-shard cut"
    );
    assert_matches_oracle(&r, &oracle, "2-shard kill+recover");
}

#[test]
fn kill_before_any_checkpoint_replays_from_start() {
    let model = model();
    let ecfg = ecfg(10.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let mut cfg = dcfg(2, Transport::Mem);
    // No armed rounds at all: recovery must fall back to a fresh replay.
    cfg.ckpt_every_rounds = 0;
    cfg.kills = vec![(0, 2)];
    cfg.max_recoveries = 1;
    let r = run_loopback(Arc::clone(&model), &ecfg, &cfg).expect("recovers");
    assert_eq!(r.recovery.recovered.len(), 1);
    assert!(!r.recovery.used_checkpoint);
    assert_matches_oracle(&r, &oracle, "replay-from-start recovery");
}

#[test]
fn kill_budget_exhaustion_is_a_clean_error() {
    let model = model();
    let ecfg = ecfg(10.0);
    let mut cfg = dcfg(2, Transport::Mem);
    cfg.kills = vec![(0, 2), (1, 2)];
    cfg.max_recoveries = 1; // two kills, one budget
    let err = run_loopback(Arc::clone(&model), &ecfg, &cfg).expect_err("budget must run out");
    assert!(
        matches!(err, dist_rt::DistError::RecoveryExhausted { .. }),
        "got {err}"
    );
}

#[test]
fn stepped_cluster_is_deterministic() {
    let model = model();
    let ecfg = ecfg(8.0);
    let mut cfg = dcfg(3, Transport::Mem);
    cfg.link_faults = Some(LinkFaultPlan::chaos(3));
    let run = |m: &Arc<Phold>| {
        let mut c = SteppedCluster::new(Arc::clone(m), &ecfg, &cfg).expect("build");
        let out = c.run_to_completion(2_000_000).expect("completes");
        (out.totals.commit_digest, out.gvt, c.gvt_history.clone())
    };
    let a = run(&model);
    let b = run(&model);
    assert_eq!(a, b, "identical configs must replay identically");
}
