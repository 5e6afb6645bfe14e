//! Live ingest into the multi-shard distributed runtime: submissions enter
//! at one shard, forward to the owner of their destination LP, and the
//! committed trace equals a sequential oracle fed the merged (seeded +
//! accepted) stream — over memory and TCP links, under link chaos, across
//! a shard kill-and-recover (from a cut or from genesis), and across a
//! second run that resumes the first's journals. The TCP ingest server is
//! exercised end-to-end against a gate as well.

use std::sync::Arc;
use std::time::Duration;

use dist_rt::{run_loopback_ingest, DistConfig, DistResult, IngestGates, LinkFaultPlan, Transport};
use ingest::{drive, local_endpoint, IngestClient, IngestServer, TcpEndpoint};
use models::{Phold, PholdConfig};
use pdes_core::{
    run_sequential_with, EngineConfig, IngestGate, IngestJournal, IngestReply, IngestRequest, LpId,
    Model, ReplySlot, VirtualTime,
};

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
        ..DistConfig::default()
    }
}

fn gates(shards: usize) -> IngestGates<Phold> {
    (0..shards)
        .map(|s| Arc::new(IngestGate::new(s as u64)))
        .collect()
}

/// Destinations cycle over every LP, so with 2 shards roughly half the
/// submissions entering at shard 0 must be forwarded to shard 1.
fn script(source: u32, n: u64, num_lps: u32, end: f64) -> Vec<IngestRequest<()>> {
    (0..n)
        .map(|id| IngestRequest {
            source,
            id,
            at: VirtualTime::from_f64(0.3 + (id as f64 * 0.61) % (end * 0.8)),
            dst: LpId((id % num_lps as u64) as u32),
            payload: (),
        })
        .collect()
}

fn temp_journal(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ggpdes-ingest-dist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(format!("{tag}.jsonl"))
}

/// One journaling gate per path (`paths[i]` goes to shard `i`).
fn journaled(paths: &[std::path::PathBuf]) -> IngestGates<Phold> {
    let open = |s: usize| IngestGate::with_journal(s as u64, &paths[s]).expect("journal opens");
    (0..paths.len()).map(|s| Arc::new(open(s))).collect()
}

/// Every `(source, id)` of the journals, in journal order.
fn journaled_ids(paths: &[std::path::PathBuf]) -> Vec<(u32, u64)> {
    let read = |p| IngestJournal::read_all::<()>(p).expect("journal readable");
    let records = paths.iter().flat_map(|p| read(p.as_path()));
    records.map(|r| (r.source, r.id)).collect()
}

/// Union of every gate's admitted events, in key order.
fn accepted_union(gs: &IngestGates<Phold>) -> Vec<pdes_core::Event<()>> {
    let mut evs: Vec<_> = gs.iter().flat_map(|g| g.accepted_events()).collect();
    evs.sort_by_key(|e| e.key);
    evs
}

#[track_caller]
fn assert_matches_merged_oracle(
    r: &DistResult,
    model: &Arc<Phold>,
    ecfg: &EngineConfig,
    gs: &IngestGates<Phold>,
    what: &str,
) {
    let accepted = accepted_union(gs);
    let oracle = run_sequential_with(model, ecfg, None, &accepted, None);
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

#[test]
fn two_shard_mem_live_ingest_with_forwarding_matches_merged_oracle() {
    let model = model();
    let ecfg = ecfg(10.0);
    let gs = gates(2);

    // Pre-queued at shard 0 with destinations on both shards: the entries
    // owned by shard 1 must travel the Frame::Ingest forwarding path.
    let pre = script(1, 20, model.num_lps() as u32, 10.0);
    for req in &pre {
        assert!(gs[0].submit(req.clone(), ReplySlot::None).is_none());
    }
    let live_gate = Arc::clone(&gs[0]);
    let live = std::thread::spawn(move || {
        let mut client = IngestClient::new(local_endpoint(live_gate, Duration::from_secs(10)), 99);
        drive(&mut client, script(2, 16, 16, 10.0))
    });

    let r = run_loopback_ingest(
        Arc::clone(&model),
        &ecfg,
        &dcfg(2, Transport::Mem),
        Some(gs.clone()),
    )
    .expect("ingest loopback completes");
    let report = live.join().expect("live client");

    assert_eq!(report.gave_up + report.transport_failed, 0, "{report:?}");
    // Forwarding really happened: shard 1's gate holds admissions even
    // though every submission entered at shard 0.
    assert!(gs[1].accepted_count() > 0, "no submission was forwarded");
    // Exactly-once across the mesh: each pre-queued id landed at exactly
    // one gate.
    for req in &pre {
        let homes = gs
            .iter()
            .filter(|g| g.was_accepted(req.source, req.id))
            .count();
        assert_eq!(homes, 1, "id {} admitted at {homes} gates", req.id);
    }
    assert_matches_merged_oracle(&r, &model, &ecfg, &gs, "2-shard mem live ingest");
}

#[test]
fn tcp_chaos_links_with_live_ingest_match_merged_oracle() {
    let model = model();
    let ecfg = ecfg(8.0);
    let gs = gates(2);
    for req in &script(1, 16, model.num_lps() as u32, 8.0) {
        assert!(gs[0].submit(req.clone(), ReplySlot::None).is_none());
    }
    let mut cfg = dcfg(2, Transport::Tcp);
    cfg.link_faults = Some(LinkFaultPlan::chaos(11));
    let r = run_loopback_ingest(Arc::clone(&model), &ecfg, &cfg, Some(gs.clone()))
        .expect("tcp chaos ingest run completes");
    assert!(gs[1].accepted_count() > 0, "forwarding under chaos links");
    assert_matches_merged_oracle(&r, &model, &ecfg, &gs, "2-shard tcp chaos live ingest");
}

#[test]
fn killed_shard_with_live_ingest_recovers_and_matches_merged_oracle() {
    let model = model();
    let ecfg = ecfg(40.0);
    let paths = [temp_journal("kill-s0"), temp_journal("kill-s1")];
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
    let gs = journaled(&paths);
    let pre = script(1, 20, model.num_lps() as u32, 40.0);
    for req in &pre {
        assert!(gs[0].submit(req.clone(), ReplySlot::None).is_none());
    }
    let live_gate = Arc::clone(&gs[0]);
    let live = std::thread::spawn(move || {
        let mut client = IngestClient::new(local_endpoint(live_gate, Duration::from_secs(20)), 7);
        drive(&mut client, script(4, 16, 16, 40.0))
    });

    let mut cfg = dcfg(2, Transport::Mem);
    cfg.ckpt_every_rounds = 2;
    // Die on the 5th publish: rounds 2 and 4 were armed, so an assembled
    // checkpoint cut exists — deterministically (same script as
    // dist_equiv's kill test, now with a live ingest plane attached).
    cfg.kills = vec![(1, 5)];
    cfg.max_recoveries = 2;
    let r = run_loopback_ingest(Arc::clone(&model), &ecfg, &cfg, Some(gs.clone()))
        .expect("killed shard recovers with ingest attached");
    let report = live.join().expect("live client");

    assert_eq!(r.recovered.len(), 1, "exactly one scripted kill fires");
    assert_eq!(report.gave_up + report.transport_failed, 0, "{report:?}");
    assert_matches_merged_oracle(&r, &model, &ecfg, &gs, "2-shard kill+recover live ingest");

    // Journal-level exactly-once across the kill and restore.
    let mut ids = journaled_ids(&paths);
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), before, "an id was journaled twice");
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
}

/// A kill before the first cut restarts every shard from genesis: the
/// restart must replay everything the gates accepted, or the admissions of
/// the dead attempt are lost.
#[test]
fn a_kill_before_the_first_cut_replays_every_admission_from_genesis() {
    let model = model();
    let ecfg = ecfg(40.0);
    let gs = gates(2);
    for req in &script(1, 20, model.num_lps() as u32, 40.0) {
        assert!(gs[0].submit(req.clone(), ReplySlot::None).is_none());
    }
    let mut cfg = dcfg(2, Transport::Mem);
    // Armed, but no cut is taken before the kill on the 3rd publish.
    cfg.ckpt_every_rounds = 1000;
    cfg.kills = vec![(1, 3)];
    cfg.max_recoveries = 2;
    let r = run_loopback_ingest(Arc::clone(&model), &ecfg, &cfg, Some(gs.clone()))
        .expect("killed shard restarts from genesis");
    assert_eq!(r.recovered.len(), 1, "exactly one scripted kill fires");
    assert!(!r.used_checkpoint, "the restart was from genesis");
    assert_matches_merged_oracle(&r, &model, &ecfg, &gs, "2-shard genesis restart");
}

/// A second run over the first run's journals resumes them: the journaled
/// events commit again from the start, their ids answer `Duplicate`, and
/// fresh admissions mint uids past the journaled ones.
#[test]
fn a_second_run_over_the_same_journals_resumes_them() {
    let model = model();
    let ecfg = ecfg(10.0);
    let paths = [temp_journal("resume-s0"), temp_journal("resume-s1")];
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
    let first = script(1, 20, model.num_lps() as u32, 10.0);
    let cfg = dcfg(2, Transport::Mem);

    let gs = journaled(&paths);
    for req in &first {
        assert!(gs[0].submit(req.clone(), ReplySlot::None).is_none());
    }
    run_loopback_ingest(Arc::clone(&model), &ecfg, &cfg, Some(gs.clone())).expect("first run");
    let admitted: Vec<usize> = gs.iter().map(|g| g.accepted_count()).collect();
    assert_eq!(admitted.iter().sum::<usize>(), first.len());

    let gs = journaled(&paths);
    assert_eq!(
        gs.iter().map(|g| g.accepted_count()).collect::<Vec<_>>(),
        admitted
    );
    // Each first-run id is refused at once by the gate that admitted it;
    // the other gate queues it and forwards it to that owner, which
    // refuses it too.
    for req in &first {
        let duplicate = gs
            .iter()
            .filter(|g| g.submit(req.clone(), ReplySlot::None) == Some(IngestReply::Duplicate));
        assert_eq!(duplicate.count(), 1, "id {}", req.id);
    }
    let fresh = script(2, 12, model.num_lps() as u32, 10.0);
    for req in &fresh {
        assert!(gs[0].submit(req.clone(), ReplySlot::None).is_none());
    }
    let r =
        run_loopback_ingest(Arc::clone(&model), &ecfg, &cfg, Some(gs.clone())).expect("second run");
    assert_eq!(gs.iter().map(|g| g.accepted_count()).sum::<usize>(), 32);
    let duplicates: u64 = gs.iter().map(|g| g.stats().duplicate).sum();
    assert_eq!(
        duplicates,
        2 * first.len() as u64,
        "every first-run id refused"
    );
    let replayed: u64 = gs.iter().map(|g| g.stats().replayed).sum();
    assert_eq!(replayed, first.len() as u64, "the journals replay once");

    let mut ids = journaled_ids(&paths);
    assert_eq!(ids.len(), 32);
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 32, "an id was journaled twice");
    let mut uids: Vec<_> = accepted_union(&gs).iter().map(|e| e.key.uid).collect();
    uids.sort_unstable();
    uids.dedup();
    assert_eq!(uids.len(), 32, "a uid was minted twice");
    assert_matches_merged_oracle(&r, &model, &ecfg, &gs, "2-shard resumed journals");
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
}

/// The TCP ingest server end-to-end against a pumped gate: admission,
/// floor-carrying rejection, and idempotent duplicate detection all travel
/// the wire.
#[test]
fn tcp_ingest_server_round_trips_verdicts() {
    let gate: Arc<IngestGate<()>> = Arc::new(IngestGate::new(0));
    gate.set_floor(VirtualTime::from_ticks(1_000));
    let server = IngestServer::spawn(Arc::clone(&gate), "127.0.0.1:0").expect("server binds");

    // A pumper stands in for the runtime's GVT controller.
    let pump_gate = Arc::clone(&gate);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let pump_stop = Arc::clone(&stop);
    let pumper = std::thread::spawn(move || {
        while !pump_stop.load(std::sync::atomic::Ordering::Acquire) {
            pump_gate.pump(|_| true, &mut |_| {}).expect("pump");
            std::thread::sleep(Duration::from_millis(1));
        }
    });

    let mut ep = TcpEndpoint::connect(server.addr()).expect("client connects");
    let req = |id: u64, at: u64| IngestRequest {
        source: 5,
        id,
        at: VirtualTime::from_ticks(at),
        dst: LpId(0),
        payload: (),
    };

    // Below the floor: the rejection carries the floor across the wire.
    match ep.submit(&req(1, 500)).expect("round trip") {
        IngestReply::Rejected { floor_ticks } => assert_eq!(floor_ticks, 1_000),
        other => panic!("expected rejection, got {other:?}"),
    }
    // Above the floor: queued, pumped, accepted.
    assert_eq!(
        ep.submit(&req(1, 2_000)).expect("round trip"),
        IngestReply::Accepted
    );
    // Same id again: idempotency holds over TCP too.
    assert_eq!(
        ep.submit(&req(1, 2_000)).expect("round trip"),
        IngestReply::Duplicate
    );
    assert_eq!(gate.accepted_count(), 1);

    // The retrying client speaks the same protocol through the endpoint.
    let ep2 = TcpEndpoint::connect(server.addr()).expect("second client");
    let mut client = IngestClient::new(ep2.into_endpoint(), 21);
    let outcome = client
        .send(req(2, 500))
        .expect("client lands after re-stamp");
    assert!(outcome.restamped >= 1 && outcome.at.ticks() > 1_000);
    assert_eq!(gate.accepted_count(), 2);

    stop.store(true, std::sync::atomic::Ordering::Release);
    pumper.join().expect("pumper");
    // Hang up both connections before shutdown: the server joins its
    // connection handlers, which run until their sockets see EOF.
    drop(ep);
    drop(client);
    server.shutdown();
}
