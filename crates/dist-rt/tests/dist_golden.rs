//! The stepped cluster, pinned: exact sweeps, committed events, digests,
//! GVT rounds, final GVT and peak parked shards of a small imbalanced PHOLD,
//! recorded at the commit before `ShardNode` lost its config twin, its
//! private checkpoint sink and its scattered coordinator state (PR 18's
//! parent). `sweeps` alone has been re-pinned since, when the 16-cycle
//! teardown grace was deleted: −14 in every scenario, with every other
//! value still as first recorded. The seventh scenario, a silent kill the
//! coordinator's heartbeat lease finds on the stepped shard clock, was
//! recorded when that clock replaced wall time in the failure detector.
//!
//! [`SteppedCluster`] steps every shard round-robin on one thread over
//! memory links, so a run is a pure function of its configuration: any
//! refactor of the shard loop that changes when a round opens, which wave
//! closes it, when a shard parks, what a cut holds or what partial recovery
//! replays moves these numbers.

use std::sync::Arc;
use std::time::Duration;

use dist_rt::{
    DistConfig, DistError, HeartbeatConfig, IngestGates, LinkFaultPlan, SteppedCluster, Transport,
};
use models::{LocalityPattern, Phold, PholdConfig};
use pdes_core::{
    run_sequential_with, EngineConfig, IngestGate, IngestRequest, LpId, ReplySlot, VirtualTime,
};

const END: f64 = 400.0;

/// `(sweeps, committed, commit digest, pending digest, gvt rounds, final
/// gvt, max parked)`.
type Golden = (u64, u64, u64, u64, u64, u64, u64);

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
    let mut c = SteppedCluster::new_with_ingest(model(), &ecfg(), dcfg, gates.clone())
        .expect("build cluster");
    let mut sweeps = 0u64;
    let mut recovered = false;
    while !c.sweep().expect("invariants hold") {
        sweeps += 1;
        assert!(sweeps < 4_000_000, "cluster never finished");
        if recover_at == Some(sweeps) {
            recovered = c.partial_recover(&[2]).expect("recovery is clean");
        }
    }
    assert_eq!(recovered, recover_at.is_some(), "partial recovery ran");
    pinned(c, sweeps, gates)
}

/// The pinned tuple and cut of a finished cluster, after checking its
/// commit digest against the oracle fed what `gates` accepted.
fn pinned(
    mut c: SteppedCluster<Phold>,
    sweeps: u64,
    gates: Option<IngestGates<Phold>>,
) -> (Golden, (u64, u64)) {
    let accepted = |gs: &IngestGates<Phold>| -> Vec<_> {
        gs.iter().flat_map(|g| g.accepted_events()).collect()
    };
    let out = c.take_outcome().expect("coordinator outcome");
    let extra = gates.as_ref().map(accepted).unwrap_or_default();
    let oracle = run_sequential_with(&model(), &ecfg(), &extra, None);
    assert_eq!(out.totals.commit_digest, oracle.commit_digest);
    assert_eq!(out.regressions, 0);
    let cut = c.latest_checkpoint();
    (
        (
            sweeps,
            out.totals.committed,
            out.totals.commit_digest,
            out.pending_digest,
            out.gvt_rounds,
            out.gvt,
            out.max_parked,
        ),
        cut.map_or((0, 0), |ck| (ck.gvt_rounds, ck.gvt.ticks())),
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
    let mut c = SteppedCluster::new(model(), &ecfg(), &cfg).expect("build cluster");
    let mut sweeps = 0u64;
    let declared = loop {
        sweeps += 1;
        match c.sweep() {
            Ok(done) => assert!(!done, "finished without declaring the kill"),
            Err(DistError::PeerDead { shard, .. }) => break shard,
            Err(e) => panic!("sweep {sweeps}: {e}"),
        }
    };
    assert_eq!((declared, sweeps), (2, 114));
    assert!(c.partial_recover(&[2]).expect("recovery is clean"));
    while !c.sweep().expect("invariants hold") {
        sweeps += 1;
    }
    let (g, cut) = pinned(c, sweeps, None);
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
