//! Live ingest into the real-thread runtime: every accepted event commits
//! exactly once, and the committed trace equals a sequential oracle fed
//! the merged (seeded + accepted-ingest) stream — fault-free, across a
//! chaos kill-and-recover, and on the degraded sequential fallback.

use std::sync::Arc;
use std::time::Duration;

use ingest::{drive, local_endpoint, IngestClient};
use models::{Phold, PholdConfig};
use pdes_core::{
    run_sequential_with, EngineConfig, FaultPlan, IngestGate, IngestJournal, IngestRequest, LpId,
    Model, VirtualTime,
};
use sim_rt::SystemConfig;
use thread_rt::{
    run_supervised, run_threads_attempt, Optimistic, RtRunConfig, SupervisedRun, SupervisorConfig,
};

fn model() -> Arc<Phold> {
    Arc::new(Phold::new(PholdConfig::balanced(4, 4)))
}

fn ecfg(end: f64) -> EngineConfig {
    EngineConfig::default()
        .with_end_time(end)
        .with_seed(77)
        .with_gvt_interval(20)
        .with_zero_counter_threshold(60)
}

fn gg_async() -> SystemConfig {
    SystemConfig::ALL_SIX[5]
}

/// A script of externally-sourced events spread across the run's horizon
/// and all LPs. Timestamps start strictly above zero (floor 0).
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
    let dir = std::env::temp_dir().join(format!("ggpdes-ingest-rt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(format!("{tag}.jsonl"))
}

/// Assert the supervised outcome equals the merged-stream oracle.
#[track_caller]
fn assert_matches_merged_oracle(
    s: &SupervisedRun,
    model: &Arc<Phold>,
    ecfg: &EngineConfig,
    gate: &IngestGate<()>,
    what: &str,
) {
    let accepted = gate.accepted_events();
    let oracle = run_sequential_with(model, ecfg, &accepted, None);
    assert_eq!(s.outcome.committed(), oracle.committed, "{what}: committed");
    assert_eq!(
        s.outcome.commit_digest(),
        oracle.commit_digest,
        "{what}: commit digest"
    );
    assert_eq!(
        s.outcome.state_digests(),
        &oracle.state_digests[..],
        "{what}: state digests"
    );
}

#[test]
fn live_ingest_matches_merged_oracle_fault_free() {
    let model = model();
    let ecfg = ecfg(8.0);
    let gate: Arc<IngestGate<()>> = Arc::new(IngestGate::new(0));

    // Pre-queue a batch so admissions are guaranteed even if the run is
    // quick, then keep a live client submitting concurrently.
    let pre = script(1, 16, model.num_lps() as u32, 8.0);
    for req in &pre {
        assert!(gate
            .submit(req.clone(), pdes_core::ReplySlot::None)
            .is_none());
    }
    let live_gate = Arc::clone(&gate);
    let live = std::thread::spawn(move || {
        let mut client = IngestClient::new(
            local_endpoint(Arc::clone(&live_gate), Duration::from_secs(10)),
            42,
        );
        drive(&mut client, script(2, 24, 16, 8.0))
    });

    let rc = RtRunConfig::new(4, ecfg.clone(), gg_async());
    let r = run_threads_attempt::<_, Optimistic>(&model, &rc, None, None, Some(Arc::clone(&gate)))
        .outcome
        .expect("ingest run completes");
    let report = live.join().expect("live client");

    // Everything pre-queued was admissible at floor 0 and must be in.
    assert!(gate.accepted_count() >= 16, "pre-queued batch admitted");
    // The live client saw only terminal outcomes the protocol allows.
    assert_eq!(report.gave_up + report.transport_failed, 0, "{report:?}");

    let accepted = gate.accepted_events();
    let oracle = run_sequential_with(&model, &ecfg, &accepted, None);
    assert_eq!(r.metrics.committed, oracle.committed, "committed");
    assert_eq!(r.metrics.commit_digest, oracle.commit_digest, "digest");
    assert_eq!(r.digests, oracle.state_digests, "states");
}

#[test]
fn chaos_kill_recover_with_live_ingest_commits_every_accepted_id_once() {
    let model = model();
    let ecfg = ecfg(10.0);
    let path = temp_journal("chaos");
    let _ = std::fs::remove_file(&path);
    let gate: Arc<IngestGate<()>> = Arc::new(IngestGate::with_journal(0, &path).expect("journal"));

    let pre = script(1, 20, model.num_lps() as u32, 10.0);
    for req in &pre {
        assert!(gate
            .submit(req.clone(), pdes_core::ReplySlot::None)
            .is_none());
    }
    let live_gate = Arc::clone(&gate);
    let live = std::thread::spawn(move || {
        let mut client = IngestClient::new(
            local_endpoint(Arc::clone(&live_gate), Duration::from_secs(10)),
            1234,
        );
        drive(&mut client, script(3, 24, 16, 10.0))
    });

    // One scripted worker kill: the supervisor restores from a GVT cut and
    // the gate replays its accepted-but-uncut suffix.
    let plan = FaultPlan::default().with_kill(0, 120);
    let rc = RtRunConfig::new(4, ecfg.clone(), gg_async())
        .with_faults(plan)
        .with_checkpoint_every(2)
        .with_watchdog(Some(Duration::from_secs(30)));
    let sup = SupervisorConfig::new(3).with_backoff(Duration::from_millis(1));
    let s = run_supervised::<_, Optimistic>(&model, &rc, &sup, Some(Arc::clone(&gate)));
    let report = live.join().expect("live client");

    assert!(s.recoveries >= 1, "the kill must fire: {:?}", s.log);
    assert!(s.completed_parallel(), "within retry budget: {:?}", s.log);
    assert_eq!(report.gave_up + report.transport_failed, 0, "{report:?}");
    assert!(gate.accepted_count() >= 20);
    assert_matches_merged_oracle(&s, &model, &ecfg, &gate, "chaos kill+recover");

    // Exactly-once at the journal level too: one record per accepted id,
    // no id journaled twice across the kill and restore.
    let records = IngestJournal::read_all::<()>(&path).expect("journal readable");
    let mut ids: Vec<(u32, u64)> = records.iter().map(|r| (r.source, r.id)).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), before, "an id was journaled twice");
    assert_eq!(
        ids.len(),
        gate.accepted_count(),
        "journal covers admissions"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn degraded_sequential_fallback_still_commits_accepted_events() {
    let model = model();
    let ecfg = ecfg(12.0);
    let gate: Arc<IngestGate<()>> = Arc::new(IngestGate::new(0));
    for req in &script(1, 12, model.num_lps() as u32, 12.0) {
        assert!(gate
            .submit(req.clone(), pdes_core::ReplySlot::None)
            .is_none());
    }

    // The only attempt dies with a zero retry budget — but only after GVT
    // rounds have pumped the gate (the kill must be late enough for
    // admissions to land first; a genesis run always reaches cycle 60).
    // Scripting a *second* scripted death instead would be racy: the
    // per-attempt cycle counter restarts on retry, and a resumed attempt
    // can finish in a handful of cycles, sailing past any later kill. The
    // supervisor exhausts its (empty) budget and degrades to the
    // sequential engine, which must still merge the accepted suffix.
    let plan = FaultPlan::default().with_kill(0, 60);
    let rc = RtRunConfig::new(4, ecfg.clone(), gg_async())
        .with_faults(plan)
        .with_checkpoint_every(2)
        .with_watchdog(Some(Duration::from_secs(30)));
    let sup = SupervisorConfig::new(0).with_backoff(Duration::from_millis(1));
    let s = run_supervised::<_, Optimistic>(&model, &rc, &sup, Some(Arc::clone(&gate)));

    assert!(
        s.degraded,
        "the kill script must exhaust the budget: {:?}",
        s.log
    );
    assert!(
        gate.accepted_count() > 0,
        "some events were admitted before the kills"
    );
    assert_matches_merged_oracle(&s, &model, &ecfg, &gate, "degraded fallback");
}
