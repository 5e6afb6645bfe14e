//! The stepped cluster, pinned: exact sweeps, committed events, digests,
//! GVT rounds, final GVT and peak parked shards of a small imbalanced PHOLD,
//! recorded at the commit before `ShardNode` lost its config twin, its
//! private checkpoint sink and its scattered coordinator state (PR 18's
//! parent). `sweeps` alone has been re-pinned since, when the 16-cycle
//! teardown grace was deleted: −14 in every scenario, with every other
//! value still as first recorded. The seventh scenario, a silent kill the
//! coordinator's heartbeat lease finds on the stepped shard clock, was
//! recorded when that clock replaced wall time in the failure detector.
//! The rest were recorded when a failed step began to go to the threaded
//! supervisor's own decision: they pin what only threads could run before
//! — the CLI's silent kill, an announced kill, a restart from genesis, a
//! degradation, a join and a leave — with the recovery books of the run's
//! `RunOutcome` (`recovered`, `partial_recoveries`, `used_checkpoint`,
//! `shards_final`, `membership_epoch`) and the sweep of the first recovery.
//!
//! [`SteppedCluster`] steps every shard round-robin on one thread over
//! memory links, so a run is a pure function of its configuration: any
//! refactor of the shard loop that changes when a round opens, which wave
//! closes it, when a shard parks, what a cut holds or what partial recovery
//! replays moves these numbers.

use std::sync::Arc;
use std::time::Duration;

use dist_rt::{DistConfig, HeartbeatConfig, IngestGates, LinkFaultPlan, SteppedCluster, Transport};
use models::{LocalityPattern, Phold, PholdConfig};
use pdes_core::{
    run_sequential_with, EngineConfig, IngestGate, IngestRequest, LpId, ReplySlot, VirtualTime,
};

const END: f64 = 400.0;

/// `(sweeps, committed, commit digest, pending digest, gvt rounds, final
/// gvt, max parked)`.
type Golden = (u64, u64, u64, u64, u64, u64, u64);

/// `(recovered, partial recoveries, used checkpoint, shards final,
/// membership epoch, sweep after which the first recovery had happened)`.
type Books = (Vec<usize>, u32, bool, usize, u64, Option<u64>);

fn model() -> Arc<Phold> {
    Arc::new(Phold::new(PholdConfig::imbalanced(
        4,
        8,
        4,
        END,
        LocalityPattern::Linear,
    )))
}

fn ecfg() -> EngineConfig {
    EngineConfig::default()
        .with_end_time(END)
        .with_seed(24301)
        .with_gvt_interval(8)
}

fn dcfg(shards: usize) -> DistConfig {
    DistConfig {
        shards,
        transport: Transport::Mem,
        ..DistConfig::default()
    }
}

/// Sweep one cluster to completion, issuing `partial_recover(&[2])` right
/// after sweep `recover_at`. Also returns the newest assembled cut's
/// `(gvt_rounds, gvt ticks)`, `(0, 0)` when no round was armed.
fn run(
    dcfg: &DistConfig,
    gates: Option<IngestGates<Phold>>,
    recover_at: Option<u64>,
) -> (Golden, (u64, u64)) {
    let (g, cut, _) = supervised(&model(), &ecfg(), dcfg, gates, recover_at);
    (g, cut)
}

/// [`run`] on any model and engine configuration, with the run's books.
fn supervised(
    model: &Arc<Phold>,
    ecfg: &EngineConfig,
    dcfg: &DistConfig,
    gates: Option<IngestGates<Phold>>,
    recover_at: Option<u64>,
) -> (Golden, (u64, u64), Books) {
    let mut c = SteppedCluster::new_with_ingest(Arc::clone(model), ecfg, dcfg, gates.clone())
        .expect("build cluster");
    let mut sweeps = 0u64;
    let mut first_recovery = None;
    while !c.sweep().expect("invariants hold") {
        sweeps += 1;
        assert!(sweeps < 4_000_000, "cluster never finished");
        if recover_at == Some(sweeps) {
            assert!(c.partial_recover(&[2]).expect("recovery is clean"));
        }
        let books = c.books();
        if first_recovery.is_none() && books.recovered.len() as u64 + books.membership_epoch > 0 {
            first_recovery = Some(sweeps);
        }
    }
    assert!(
        recover_at.is_none() || first_recovery == recover_at,
        "partial recovery ran"
    );
    pinned(c, model, ecfg, sweeps, gates, first_recovery)
}

/// The pinned tuple, cut and books of a finished cluster, after checking
/// its commit digest against the oracle fed what `gates` accepted.
fn pinned(
    mut c: SteppedCluster<Phold>,
    model: &Arc<Phold>,
    ecfg: &EngineConfig,
    sweeps: u64,
    gates: Option<IngestGates<Phold>>,
    first_recovery: Option<u64>,
) -> (Golden, (u64, u64), Books) {
    let accepted = |gs: &IngestGates<Phold>| -> Vec<_> {
        gs.iter().flat_map(|g| g.accepted_events()).collect()
    };
    let r = c.result().expect("coordinator outcome");
    let extra = gates.as_ref().map(accepted).unwrap_or_default();
    let oracle = run_sequential_with(model, ecfg, None, &extra, None);
    assert_eq!(r.metrics.commit_digest, oracle.commit_digest);
    assert_eq!(r.invariants.gvt_regressions, 0);
    let cut = c.latest_checkpoint();
    (
        (
            sweeps,
            r.metrics.committed,
            r.metrics.commit_digest,
            r.pending_digest,
            r.metrics.gvt_rounds,
            r.gvt,
            r.metrics.max_descheduled as u64,
        ),
        cut.map_or((0, 0), |ck| (ck.gvt_rounds, ck.gvt.ticks())),
        (
            r.recovery.recovered,
            r.recovery.partial_recoveries,
            r.recovery.used_checkpoint,
            r.recovery.shards_final,
            r.recovery.membership_epoch,
            first_recovery,
        ),
    )
}

#[test]
fn two_shards_plain() {
    let (g, cut) = run(&dcfg(2), None, None);
    assert_eq!(
        g,
        (
            210,
            12840,
            5124066779591130399,
            5728604743600580019,
            25,
            419451719,
            3
        )
    );
    assert_eq!(cut, (0, 0));
}

#[test]
fn four_shards_plain() {
    let (g, _) = run(&dcfg(4), None, None);
    assert!(g.6 >= 1, "the imbalance must park a shard");
    assert_eq!(
        g,
        (
            210,
            12840,
            5124066779591130399,
            5728604743600580019,
            25,
            419451719,
            2
        )
    );
}

#[test]
fn four_shards_under_link_chaos() {
    let mut cfg = dcfg(4);
    cfg.link_faults = Some(LinkFaultPlan::chaos(9));
    let (g, _) = run(&cfg, None, None);
    assert_eq!(
        g,
        (
            212,
            12840,
            5124066779591130399,
            5728604743600580019,
            23,
            419451719,
            2
        )
    );
}

#[test]
fn four_shards_checkpoint_armed() {
    let mut cfg = dcfg(4);
    cfg.ckpt_every_rounds = 3;
    let (g, cut) = run(&cfg, None, None);
    assert_eq!(
        g,
        (
            210,
            12840,
            5124066779591130399,
            5728604743600580019,
            25,
            419451719,
            2
        )
    );
    assert_eq!(cut, (24, 419451719));
}

#[test]
fn four_shards_partial_recovery_at_a_fixed_sweep() {
    let mut cfg = dcfg(4);
    cfg.ckpt_every_rounds = 3;
    cfg.max_recoveries = 1;
    let (g, cut) = run(&cfg, None, Some(120));
    assert_eq!(
        g,
        (
            229,
            12840,
            5124066779591130399,
            5728604743600580019,
            27,
            419451719,
            2
        )
    );
    assert_eq!(cut, (24, 395053587));
}

#[test]
fn two_shards_scripted_ingest_forwarded_across_shards() {
    let gates: IngestGates<Phold> = (0..2).map(|s| Arc::new(IngestGate::new(s))).collect();
    // Every submission enters at shard 0; destinations cycle over all 32
    // LPs, so half of them travel the `Frame::Ingest` forwarding path.
    for id in 0..24u64 {
        let req = IngestRequest {
            source: 1,
            id,
            at: VirtualTime::from_f64(0.5 + id as f64 * 2.3),
            dst: LpId((id % 32) as u32),
            payload: (),
        };
        assert!(gates[0].submit(req, ReplySlot::None).is_none());
    }
    let (g, _) = run(&dcfg(2), Some(gates.clone()), None);
    let landed = (gates[0].accepted_count(), gates[1].accepted_count());
    assert!(landed.1 > 0, "no submission was forwarded");
    assert_eq!(
        g,
        (
            345,
            21755,
            11741661211056522843,
            16601565643295875836,
            40,
            419450261,
            3
        )
    );
    assert_eq!(landed, (12, 12));
}

/// Shard 2 dies silently at its 9th publish: nobody raises the abort flag,
/// so the coordinator's lease (1 ms × 4 on a shard clock of 100 µs a step)
/// must declare it dead. That happens at a fixed sweep; a partial recovery
/// from the newest cut then finishes the run on the oracle's digest.
#[test]
fn four_shards_silent_kill_declared_by_the_lease() {
    let mut cfg = dcfg(4);
    cfg.ckpt_every_rounds = 2;
    cfg.kills = vec![(2, 9)];
    cfg.heartbeat = Some(HeartbeatConfig {
        interval: Duration::from_millis(1),
        miss_threshold: 4,
    });
    cfg.max_recoveries = 1;
    let (g, cut, books) = supervised(&model(), &ecfg(), &cfg, None, None);
    assert_eq!(books, (vec![2], 1, true, 4, 0, Some(114)));
    assert_eq!(
        g,
        (
            223,
            12840,
            5124066779591130399,
            5728604743600580019,
            22,
            419451719,
            2
        )
    );
    assert_eq!(cut, (20, 414922557));
}

/// The CLI's silent kill (`tests/cli_dist.rs`: 4 shards, `--kill-shard
/// 2:5`, a lease of 5 ms × 20, a cut every 2 rounds, the CLI's default
/// budget of 3) on this file's model: the lease declares shard 2 dead once,
/// on the stepped shard clock, and one partial recovery replaces it. (The
/// CLI's own model — 16 × 16 LPs to 120 at a round every 25 cycles —
/// finishes in 3 stepped rounds, before the 5th publish.)
#[test]
fn cli_silent_kill_recovers_shard_two_once() {
    let mut cfg = dcfg(4);
    cfg.ckpt_every_rounds = 2;
    cfg.kills = vec![(2, 5)];
    cfg.heartbeat = Some(HeartbeatConfig {
        interval: Duration::from_millis(5),
        miss_threshold: 20,
    });
    cfg.max_recoveries = 3;
    let (g, cut, books) = supervised(&model(), &ecfg(), &cfg, None, None);
    assert_eq!(books, (vec![2], 1, true, 4, 0, Some(1038)));
    assert_eq!(
        g,
        (
            1147,
            12840,
            5124066779591130399,
            5728604743600580019,
            18,
            419451719,
            2
        )
    );
    assert_eq!(cut, (16, 414922557));
}

/// A kill nobody hides (no heartbeat): the shard's own step reports it and
/// the decision restores it alone from the newest cut.
#[test]
fn four_shards_announced_kill_recovers_partially() {
    let mut cfg = dcfg(4);
    cfg.ckpt_every_rounds = 3;
    cfg.kills = vec![(2, 9)];
    cfg.max_recoveries = 1;
    let (g, cut, books) = supervised(&model(), &ecfg(), &cfg, None, None);
    assert_eq!(books, (vec![2], 1, true, 4, 0, Some(74)));
    assert_eq!(
        g,
        (
            210,
            12840,
            5124066779591130399,
            5728604743600580019,
            25,
            419451719,
            2
        )
    );
    assert_eq!(cut, (24, 419451719));
}

/// A kill before the first cut: nothing to restore from, so every shard
/// restarts from the start.
#[test]
fn four_shards_kill_before_the_first_cut_restarts_from_genesis() {
    let mut cfg = dcfg(4);
    cfg.ckpt_every_rounds = 3;
    cfg.kills = vec![(1, 1)];
    cfg.max_recoveries = 1;
    let (g, cut, books) = supervised(&model(), &ecfg(), &cfg, None, None);
    assert_eq!(books, (vec![1], 0, false, 4, 0, Some(2)));
    assert_eq!(
        g,
        (
            212,
            12840,
            5124066779591130399,
            5728604743600580019,
            25,
            419451719,
            2
        )
    );
    assert_eq!(cut, (24, 419451719));
}

/// No budget for the kill but a cut to shrink from: the cluster degrades
/// to three shards.
#[test]
fn four_shards_degrade_to_three() {
    let mut cfg = dcfg(4);
    cfg.ckpt_every_rounds = 2;
    cfg.kills = vec![(1, 9)];
    cfg.degrade = true;
    let (g, cut, books) = supervised(&model(), &ecfg(), &cfg, None, None);
    assert_eq!(books, (vec![1], 0, true, 3, 1, Some(74)));
    assert_eq!(
        g,
        (
            243,
            12840,
            5124066779591130399,
            5728604743600580019,
            26,
            419451719,
            2
        )
    );
    assert_eq!(cut, (24, 412859699));
}

/// A fifth shard joins at the first cut from the 4th publish on.
#[test]
fn four_shards_join_a_fifth() {
    let mut cfg = dcfg(4);
    cfg.ckpt_every_rounds = 2;
    cfg.join_at = Some(4);
    let (g, cut, books) = supervised(&model(), &ecfg(), &cfg, None, None);
    assert_eq!(books, (vec![], 0, true, 5, 1, Some(30)));
    assert_eq!(
        g,
        (
            214,
            12840,
            5124066779591130399,
            5728604743600580019,
            25,
            419451719,
            2
        )
    );
    assert_eq!(cut, (24, 419451719));
}

/// Shard 3 leaves at the first cut from the 4th publish on.
#[test]
fn four_shards_leave_to_three() {
    let mut cfg = dcfg(4);
    cfg.ckpt_every_rounds = 2;
    cfg.leave_at = Some((3, 4));
    let (g, cut, books) = supervised(&model(), &ecfg(), &cfg, None, None);
    assert_eq!(books, (vec![], 0, true, 3, 1, Some(30)));
    assert_eq!(
        g,
        (
            241,
            12840,
            5124066779591130399,
            5728604743600580019,
            26,
            419451719,
            2
        )
    );
    assert_eq!(cut, (24, 402827367));
}
