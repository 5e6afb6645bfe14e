//! Elastic membership under the distributed equivalence invariant: a
//! transient partition heals without recovery, a killed shard is restored
//! *partially* from the latest GVT cut while the survivors keep running,
//! exhausted recovery budgets degrade the cluster instead of failing it,
//! and shards join/leave at cuts — and in every case the run still commits
//! the exact sequential-oracle trace.

use std::sync::Arc;
use std::time::Duration;

use dist_rt::{run_loopback, DistConfig, DistResult, HeartbeatConfig, SteppedCluster, Transport};
use models::{Phold, PholdConfig};
use pdes_core::{run_sequential, EngineConfig, SequentialResult, VirtualTime};
use proptest::prelude::*;
use telemetry::{EventKind, TelemetryConfig, TelemetryData};

fn model() -> Arc<Phold> {
    Arc::new(Phold::new(PholdConfig::balanced(4, 4)))
}

fn ecfg(end: f64) -> EngineConfig {
    EngineConfig::default()
        .with_end_time(end)
        .with_seed(77)
        .with_optimism_window(Some(2.0))
        .with_gvt_interval(16)
}

fn dcfg(shards: usize, transport: Transport) -> DistConfig {
    DistConfig {
        shards,
        transport,
        telemetry: TelemetryConfig::on(),
        ..DistConfig::default()
    }
}

#[track_caller]
fn assert_matches_oracle(r: &DistResult, oracle: &SequentialResult, what: &str) {
    assert_eq!(r.metrics.committed, oracle.committed, "{what}: committed");
    assert_eq!(
        r.metrics.commit_digest, oracle.commit_digest,
        "{what}: commit digest"
    );
    let states: Vec<u64> = r.state_digests.iter().map(|(_, d)| *d).collect();
    assert_eq!(states, oracle.state_digests, "{what}: state digests");
    assert_eq!(
        r.pending_digest, oracle.pending_digest,
        "{what}: pending digest"
    );
    assert_eq!(r.regressions, 0, "{what}: GVT regressed");
}

fn kind_count(data: &TelemetryData, kind: EventKind) -> usize {
    data.threads
        .iter()
        .flat_map(|t| t.records.iter())
        .filter(|r| r.kind == kind)
        .count()
}

/// A one-directional partition that heals within the heartbeat lease:
/// retransmission redelivers the swallowed frames, and no recovery of any
/// kind happens.
#[test]
fn partition_healing_within_lease_needs_no_recovery() {
    let model = model();
    let ecfg = ecfg(12.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let mut cfg = dcfg(4, Transport::Mem);
    cfg.ckpt_every_rounds = 2;
    cfg.max_recoveries = 0; // any recovery is a test failure
    cfg.heartbeat = Some(HeartbeatConfig::default());
    // Shard 1 -> shard 2 goes dark until shard 1 has run 2 rounds' worth
    // of cycles, then heals.
    cfg.partitions = vec![(1, 2, 2)];
    let r = run_loopback(Arc::clone(&model), &ecfg, &cfg).expect("run completes");
    assert_eq!(r.recovered.len(), 0, "a healed partition is not a failure");
    assert_eq!(r.partial_recoveries, 0);
    assert_eq!(r.membership_epoch, 0);
    let data = r.telemetry.as_ref().expect("telemetry on");
    assert!(
        kind_count(data, EventKind::LinkRetransmit) > 0,
        "the partition must have forced retransmissions"
    );
    assert_eq!(
        kind_count(data, EventKind::PartialRestore),
        0,
        "no shard may have been restored"
    );
    assert_matches_oracle(&r, &oracle, "4-shard partition+heal");
}

/// A killed shard is restored alone from the newest cut: the survivors
/// keep their engines, replay their send logs across the cut, and the run
/// still commits the oracle trace.
#[test]
fn killed_shard_partially_recovers_over_memory_links() {
    let model = model();
    let ecfg = ecfg(40.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let mut cfg = dcfg(4, Transport::Mem);
    cfg.ckpt_every_rounds = 2;
    // Die on the 5th publish: rounds 2 and 4 were armed, so an assembled
    // cut exists — deterministically — and the coordinator survives.
    cfg.kills = vec![(2, 5)];
    cfg.max_recoveries = 2;
    let r = run_loopback(Arc::clone(&model), &ecfg, &cfg).expect("recovers");
    assert_eq!(r.recovered.len(), 1, "exactly one scripted kill fires");
    assert_eq!(r.recovered, [2], "the recovery replaced the killed shard");
    assert_eq!(
        r.partial_recoveries, 1,
        "the recovery must have been partial (survivors kept running state)"
    );
    assert!(r.used_checkpoint);
    let data = r.telemetry.as_ref().expect("telemetry on");
    assert!(
        kind_count(data, EventKind::PartialRestore) >= 1,
        "the restored shard stamps a partial-restore instant"
    );
    assert_matches_oracle(&r, &oracle, "4-shard partial recovery (mem)");
}

/// The acceptance scenario: 4 shards over real TCP sockets, one killed
/// mid-run, partial recovery rebuilds its links and the digest still
/// matches the sequential oracle.
#[test]
fn killed_shard_partially_recovers_over_tcp() {
    let model = model();
    let ecfg = ecfg(30.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let mut cfg = dcfg(4, Transport::Tcp);
    cfg.ckpt_every_rounds = 2;
    cfg.kills = vec![(3, 5)];
    cfg.max_recoveries = 2;
    let r = run_loopback(Arc::clone(&model), &ecfg, &cfg).expect("recovers");
    assert_eq!(r.recovered.len(), 1);
    assert_eq!(r.partial_recoveries, 1, "recovery must be partial");
    assert_matches_oracle(&r, &oracle, "4-shard partial recovery (tcp)");
}

/// A silent kill (no cohort abort flag) must be *discovered* by the
/// coordinator's heartbeat lease, suspected first (phi), then declared
/// dead and partially recovered.
#[test]
fn silent_kill_is_discovered_by_the_heartbeat_detector() {
    let model = model();
    let ecfg = ecfg(40.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let mut cfg = dcfg(4, Transport::Mem);
    cfg.ckpt_every_rounds = 2;
    cfg.kills = vec![(2, 5)];
    cfg.max_recoveries = 2;
    cfg.heartbeat = Some(HeartbeatConfig {
        interval: Duration::from_millis(5),
        miss_threshold: 20,
    });
    let r = run_loopback(Arc::clone(&model), &ecfg, &cfg).expect("recovers");
    assert_eq!(
        r.recovered.len(),
        1,
        "the detector must find the silent death"
    );
    assert_eq!(r.partial_recoveries, 1);
    let data = r.telemetry.as_ref().expect("telemetry on");
    assert!(
        kind_count(data, EventKind::HeartbeatMiss) >= 1,
        "the dead shard must have been suspected before being declared"
    );
    assert_matches_oracle(&r, &oracle, "silent kill via heartbeat");
}

/// A kill on an armed publish takes its cut with it: the shard is restored
/// from the cut before, while the coordinator's floor is already the armed
/// round's GVT, more than one optimism window above that cut. Recovering
/// publishes carry the raw minimum, so the restored shard's horizon follows
/// its re-execution up to the floor instead of stalling below it.
#[test]
fn a_kill_on_an_armed_publish_recovers_past_the_optimism_window() {
    let model = Arc::new(Phold::new(PholdConfig::balanced(4, 3)));
    let ecfg = EngineConfig::default()
        .with_end_time(40.0)
        .with_seed(1)
        .with_optimism_window(Some(2.0))
        .with_gvt_interval(8);
    let dcfg = DistConfig {
        shards: 4,
        transport: Transport::Mem,
        ckpt_every_rounds: 2,
        kills: vec![(2, 4)],
        heartbeat: Some(HeartbeatConfig {
            interval: Duration::from_millis(1),
            miss_threshold: 4,
        }),
        max_recoveries: 1,
        ..DistConfig::default()
    };
    let oracle = run_sequential(&model, &ecfg, None);
    let mut cluster = SteppedCluster::new(Arc::clone(&model), &ecfg, &dcfg).expect("build");
    while cluster.books().recovered.is_empty() {
        let done = cluster.sweep().expect("invariants hold");
        assert!(!done, "finished without declaring the kill");
    }
    assert_eq!(cluster.books().recovered, [2]);
    assert_eq!(cluster.books().partial_recoveries, 1);
    let floor = *cluster.gvt_history[0].last().expect("GVT published");
    let cut = cluster
        .latest_checkpoint()
        .expect("a cut before the kill")
        .gvt;
    let window = VirtualTime::from_f64(2.0).ticks();
    assert!(floor > cut.ticks() + window, "floor {floor}, cut {cut:?}");
    let out = cluster
        .run_to_completion(100_000)
        .expect("no stall below the floor");
    assert_eq!(out.totals.commit_digest, oracle.commit_digest);
    assert_eq!(out.pending_digest, oracle.pending_digest);
}

/// When the recovery budget is exhausted but a cut exists, the cluster
/// degrades: the dead shard's LPs are absorbed by the survivors and the
/// (smaller) run still finishes with the oracle digest.
#[test]
fn exhausted_recovery_budget_degrades_to_a_smaller_cluster() {
    let model = model();
    let ecfg = ecfg(40.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let mut cfg = dcfg(4, Transport::Mem);
    cfg.ckpt_every_rounds = 2;
    cfg.kills = vec![(1, 5)];
    cfg.max_recoveries = 0; // no budget at all
    cfg.degrade = true;
    let r = run_loopback(Arc::clone(&model), &ecfg, &cfg).expect("degrades, not dies");
    assert_eq!(r.shards_final, 3, "the cluster must have shrunk by one");
    assert_eq!(r.membership_epoch, 1);
    assert!(r.used_checkpoint);
    assert_matches_oracle(&r, &oracle, "degraded 4->3 cluster");
}

/// Without `degrade`, the same exhausted budget is still a clean error.
#[test]
fn exhausted_budget_without_degrade_is_an_error() {
    let model = model();
    let ecfg = ecfg(40.0);
    let mut cfg = dcfg(4, Transport::Mem);
    cfg.ckpt_every_rounds = 2;
    cfg.kills = vec![(1, 5)];
    cfg.max_recoveries = 0;
    let err = run_loopback(Arc::clone(&model), &ecfg, &cfg).expect_err("budget is zero");
    assert!(
        matches!(err, dist_rt::DistError::RecoveryExhausted { .. }),
        "got {err}"
    );
}

/// A shard joins mid-run at a GVT cut: the membership grows by one, LPs
/// are rebalanced by load, and the trace is still the oracle's.
#[test]
fn shard_joins_at_a_cut_and_matches_oracle() {
    let model = model();
    let ecfg = ecfg(40.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let mut cfg = dcfg(4, Transport::Mem);
    cfg.ckpt_every_rounds = 2;
    cfg.join_at = Some(4);
    let r = run_loopback(Arc::clone(&model), &ecfg, &cfg).expect("join completes");
    assert_eq!(r.shards_final, 5, "the joiner must be in the membership");
    assert_eq!(r.membership_epoch, 1);
    let data = r.telemetry.as_ref().expect("telemetry on");
    assert!(
        kind_count(data, EventKind::ShardJoin) >= 1,
        "the join must be stamped on the trace"
    );
    assert_matches_oracle(&r, &oracle, "4->5 shard join");
}

/// A shard drains out mid-run at a GVT cut: its LPs are absorbed by the
/// survivors and the smaller membership finishes with the oracle digest.
#[test]
fn shard_leaves_at_a_cut_and_matches_oracle() {
    let model = model();
    let ecfg = ecfg(40.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let mut cfg = dcfg(4, Transport::Mem);
    cfg.ckpt_every_rounds = 2;
    cfg.leave_at = Some((3, 4));
    let r = run_loopback(Arc::clone(&model), &ecfg, &cfg).expect("leave completes");
    assert_eq!(r.shards_final, 3, "the leaver must be gone");
    assert_eq!(r.membership_epoch, 1);
    let data = r.telemetry.as_ref().expect("telemetry on");
    assert!(
        kind_count(data, EventKind::ShardLeave) >= 1,
        "the leave must be stamped on the trace"
    );
    assert_matches_oracle(&r, &oracle, "4->3 shard leave");
}

/// Join and leave over TCP as well — the reshape rebuilds the whole mesh.
#[test]
fn join_and_leave_over_tcp_match_oracle() {
    let model = model();
    let ecfg = ecfg(30.0);
    let oracle = run_sequential(&model, &ecfg, None);
    let mut join = dcfg(3, Transport::Tcp);
    join.ckpt_every_rounds = 2;
    join.join_at = Some(4);
    let r = run_loopback(Arc::clone(&model), &ecfg, &join).expect("tcp join completes");
    assert_eq!(r.shards_final, 4);
    assert_matches_oracle(&r, &oracle, "3->4 shard join (tcp)");

    let mut leave = dcfg(4, Transport::Tcp);
    leave.ckpt_every_rounds = 2;
    leave.leave_at = Some((2, 4));
    let r = run_loopback(Arc::clone(&model), &ecfg, &leave).expect("tcp leave completes");
    assert_eq!(r.shards_final, 3);
    assert_matches_oracle(&r, &oracle, "4->3 shard leave (tcp)");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Membership (recovery-epoch) transitions never violate the GVT
    /// safety invariants: on the deterministic stepped harness, kill a
    /// random non-coordinator shard at a random point and restore it
    /// partially from the latest cut — every subsequent sweep re-checks
    /// `GVT <= local minimum` and per-shard monotonicity, and the final
    /// trace must still be the oracle's.
    #[test]
    fn partial_recovery_never_breaks_gvt_invariants(
        shards in 2usize..=4,
        seed in any::<u64>(),
        end in 6.0f64..12.0,
        dead_pick in any::<usize>(),
        after_sweeps in 50u64..800,
    ) {
        let model = Arc::new(Phold::new(PholdConfig::balanced(4, 3)));
        let ecfg = EngineConfig::default()
            .with_end_time(end)
            .with_seed(seed)
            .with_optimism_window(Some(2.0))
            .with_gvt_interval(8);
        let dcfg = DistConfig {
            shards,
            transport: Transport::Mem,
            ckpt_every_rounds: 2,
            max_recoveries: 1,
            ..DistConfig::default()
        };
        let oracle = run_sequential(&model, &ecfg, None);
        let dead = 1 + dead_pick % (shards - 1).max(1);
        let mut cluster = SteppedCluster::new(Arc::clone(&model), &ecfg, &dcfg)
            .expect("build cluster");
        let mut recovered = false;
        let mut done = false;
        for sweep in 0..4_000_000u64 {
            if cluster.sweep().expect("invariants hold") {
                done = true;
                break;
            }
            if !recovered && sweep >= after_sweeps {
                // Not possible until a cut exists; keep trying each sweep.
                recovered = cluster.partial_recover(&[dead]).expect("recovery is clean");
            }
        }
        prop_assert!(done, "cluster never finished");
        let out = cluster.take_outcome().expect("coordinator outcome");
        prop_assert_eq!(out.regressions, 0);
        for (i, hist) in cluster.gvt_history.iter().enumerate() {
            prop_assert!(
                hist.windows(2).all(|w| w[0] <= w[1]),
                "shard {} saw a non-monotone GVT sequence", i
            );
        }
        prop_assert_eq!(out.totals.committed, oracle.committed);
        prop_assert_eq!(out.totals.commit_digest, oracle.commit_digest);
        let states: Vec<u64> = out.state_digests.iter().map(|(_, d)| *d).collect();
        prop_assert_eq!(states, oracle.state_digests);
        prop_assert_eq!(out.pending_digest, oracle.pending_digest);
    }

    /// A silent kill on the stepped shard clock: whichever publish it lands
    /// on and however long the lease, the coordinator's detector reports
    /// the killed shard as `PeerDead` (nobody raised the abort flag), and a
    /// partial recovery from the newest cut commits the oracle's trace. The
    /// kill lands mid-run: partial recovery needs the survivors still
    /// running, so the horizon outlasts the latest kill by many rounds.
    #[test]
    fn a_silent_kill_is_declared_dead_and_recovered(
        seed in any::<u64>(),
        dead in 1usize..4,
        at in 4u64..12,
        miss_threshold in 2u32..24,
    ) {
        let model = Arc::new(Phold::new(PholdConfig::balanced(4, 3)));
        let ecfg = EngineConfig::default()
            .with_end_time(40.0)
            .with_seed(seed)
            .with_optimism_window(Some(2.0))
            .with_gvt_interval(8);
        let dcfg = DistConfig {
            shards: 4,
            transport: Transport::Mem,
            ckpt_every_rounds: 2,
            kills: vec![(dead, at)],
            heartbeat: Some(HeartbeatConfig {
                interval: Duration::from_millis(1),
                miss_threshold,
            }),
            max_recoveries: 1,
            ..DistConfig::default()
        };
        let oracle = run_sequential(&model, &ecfg, None);
        let mut cluster = SteppedCluster::new(Arc::clone(&model), &ecfg, &dcfg)
            .expect("build cluster");
        let out = cluster.run_to_completion(4_000_000).expect("invariants hold");
        prop_assert_eq!(&cluster.books().recovered, &vec![dead]);
        prop_assert_eq!(cluster.books().partial_recoveries, 1);
        prop_assert_eq!(out.regressions, 0);
        prop_assert_eq!(out.totals.committed, oracle.committed);
        prop_assert_eq!(out.totals.commit_digest, oracle.commit_digest);
        prop_assert_eq!(out.pending_digest, oracle.pending_digest);
    }
}
