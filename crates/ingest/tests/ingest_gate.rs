//! Gate-level plane behavior through the client: admission verdicts,
//! backpressure saturation, the crash window between journal append and
//! engine injection (exactly-once across a journal resume), and a torn
//! journal tail.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ingest::{local_endpoint, ClientError, IngestClient, MAX_ATTEMPTS};
use pdes_core::ingest::{HIGH_WATERMARK, MAX_PER_PUMP, SOURCE_CAPACITY};
use pdes_core::{Event, IngestGate, IngestReply, IngestRequest, LpId, ReplySlot, VirtualTime};
use proptest::prelude::*;

fn req(source: u32, id: u64, at_ticks: u64) -> IngestRequest<u64> {
    IngestRequest {
        source,
        id,
        at: VirtualTime::from_ticks(at_ticks),
        dst: LpId(0),
        payload: id,
    }
}

/// What a run start hands back: every accepted event with `send_time >= cut`.
fn replay(gate: &IngestGate<u64>, cut: VirtualTime) -> Vec<Event<u64>> {
    let mut got = Vec::new();
    gate.reinject_after_restore(cut, &mut |ev| got.push(ev));
    got
}

fn temp_journal(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ggpdes-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(format!("{tag}.jsonl"))
}

/// Pump the gate on a background thread until it is told to stop — stands
/// in for a runtime's GVT-round controller so a blocking client sees its
/// queued verdicts resolve.
fn spawn_pumper(gate: Arc<IngestGate<u64>>) -> (Arc<AtomicBool>, std::thread::JoinHandle<u64>) {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut injected = 0u64;
        while !flag.load(Ordering::Acquire) {
            let out = gate.pump(|_| true, &mut |_| {}).expect("pump");
            injected += out.injected;
            std::thread::sleep(Duration::from_millis(1));
        }
        injected
    });
    (stop, handle)
}

#[test]
fn rejection_carries_floor_and_client_restamps_to_admission() {
    let gate: Arc<IngestGate<u64>> = Arc::new(IngestGate::new(0));
    gate.set_floor(VirtualTime::from_ticks(1_000));

    // The raw verdict carries the floor it was judged against.
    match gate.submit(req(1, 0, 500), ReplySlot::None) {
        Some(IngestReply::Rejected { floor_ticks }) => assert_eq!(floor_ticks, 1_000),
        other => panic!("expected an immediate rejection, got {other:?}"),
    }

    // The client turns that rejection into a re-stamp above the floor.
    let (stop, pumper) = spawn_pumper(Arc::clone(&gate));
    let mut client =
        IngestClient::new(local_endpoint(Arc::clone(&gate), Duration::from_secs(5)), 7);
    let outcome = client.send(req(1, 1, 500)).expect("re-stamped send lands");
    assert!(outcome.restamped >= 1, "the floor forced a re-stamp");
    assert_eq!(
        outcome.at.ticks(),
        1_001,
        "re-stamped one tick above the floor"
    );
    assert!(gate.was_accepted(1, 1));
    stop.store(true, Ordering::Release);
    pumper.join().expect("pumper");

    let accepted = gate.accepted_events();
    assert_eq!(accepted.len(), 1);
    assert!(accepted[0].key.recv_time.ticks() > 1_000);
}

#[test]
fn saturation_is_bounded_and_sheds_newest_first_without_stalling_pumps() {
    let gate: IngestGate<u64> = IngestGate::new(0);
    let submit = |source: usize, id: usize| {
        let id = id as u64;
        gate.submit(req(source as u32, id, 100 + id), ReplySlot::None)
    };

    // One source over quota: its `SOURCE_CAPACITY + 1`-th submission is
    // Busy, with the 1 ms retry hint.
    for id in 0..SOURCE_CAPACITY {
        assert_eq!(submit(0, id), None);
    }
    let busy = Some(IngestReply::Busy { retry_after_ms: 1 });
    assert_eq!(submit(0, SOURCE_CAPACITY), busy);

    // Fresh sources fill the queue to the watermark; the `HIGH_WATERMARK +
    // 1`-th entry and every later one are shed, newest first, so the queue
    // never grows past the watermark (bounded memory).
    for id in SOURCE_CAPACITY..HIGH_WATERMARK {
        assert_eq!(submit(id / SOURCE_CAPACITY, id), None);
    }
    for id in HIGH_WATERMARK..HIGH_WATERMARK + 40 {
        assert_eq!(submit(id / SOURCE_CAPACITY, id), Some(IngestReply::Shed));
        assert_eq!(gate.queued_len(), HIGH_WATERMARK);
    }

    // One pump admits exactly `MAX_PER_PUMP` of a larger backlog, so a
    // flooded round cannot stall GVT, and the backlog still drains.
    let mut pumps = Vec::new();
    while gate.queued_len() > 0 {
        pumps.push(gate.pump(|_| true, &mut |_| {}).expect("pump").injected);
        assert!(pumps.len() <= HIGH_WATERMARK, "drain did not terminate");
    }
    let full = MAX_PER_PUMP as u64;
    assert_eq!(pumps, vec![full; HIGH_WATERMARK / MAX_PER_PUMP]);

    let stats = gate.stats();
    assert_eq!(stats.admitted, HIGH_WATERMARK as u64);
    assert_eq!((stats.busy, stats.shed), (1, 40));
    assert_eq!(gate.accepted_count(), HIGH_WATERMARK);
}

#[test]
fn client_rides_out_busy_with_backoff() {
    let gate: Arc<IngestGate<u64>> = Arc::new(IngestGate::new(0));
    // Fill source 9's quota: the next submission deterministically sees
    // Busy (nobody is pumping yet).
    for id in 0..SOURCE_CAPACITY as u64 {
        assert!(gate.submit(req(9, id, 50), ReplySlot::None).is_none());
    }
    let bounced = SOURCE_CAPACITY as u64;
    assert!(matches!(
        gate.submit(req(9, bounced, 60), ReplySlot::None),
        Some(IngestReply::Busy { .. })
    ));

    // With a pumper draining the quota, the client's retries land; the
    // bounced id is free to be resubmitted (Busy never records the id).
    let (stop, pumper) = spawn_pumper(Arc::clone(&gate));
    let mut client = IngestClient::new(
        local_endpoint(Arc::clone(&gate), Duration::from_secs(5)),
        13,
    );
    client
        .send(req(9, bounced, 60))
        .expect("send lands after Busy");
    stop.store(true, Ordering::Release);
    pumper.join().expect("pumper");
    assert!(gate.was_accepted(9, 0) && gate.was_accepted(9, bounced));
}

#[test]
fn closed_gate_fails_fast_and_resolves_queued_submissions() {
    let gate: Arc<IngestGate<u64>> = Arc::new(IngestGate::new(0));
    assert!(gate.submit(req(2, 0, 10), ReplySlot::None).is_none());
    gate.close();
    assert_eq!(gate.queued_len(), 0, "close resolves the queue");

    let mut client =
        IngestClient::new(local_endpoint(Arc::clone(&gate), Duration::from_secs(1)), 3);
    match client.send(req(2, 1, 20)) {
        Err(ClientError::Closed) => {}
        other => panic!("expected Closed, got {other:?}"),
    }
}

#[test]
fn give_up_reports_the_final_verdict() {
    let gate: Arc<IngestGate<u64>> = Arc::new(IngestGate::new(0));
    // Quota permanently full and nobody pumping: every retry sees Busy, and
    // the client gives up after `MAX_ATTEMPTS` (about 3 s of capped sleeps).
    for id in 0..SOURCE_CAPACITY as u64 {
        assert!(gate.submit(req(4, id, 50), ReplySlot::None).is_none());
    }
    let mut client =
        IngestClient::new(local_endpoint(Arc::clone(&gate), Duration::from_secs(1)), 5);
    match client.send(req(4, SOURCE_CAPACITY as u64, 60)) {
        Err(ClientError::GaveUp { attempts, last }) => {
            assert_eq!(attempts, MAX_ATTEMPTS);
            assert!(matches!(last, IngestReply::Busy { .. }));
        }
        other => panic!("expected GaveUp, got {other:?}"),
    }
}

/// The crash window: a kill between the journal append and the engine
/// injection must neither drop nor duplicate the event. The gate's
/// `fail_after_append` hook simulates exactly that window; the next start
/// on the resumed journal must replay the appended-but-uninjected event
/// exactly once, and a client retry of the same id must resolve to
/// `Duplicate`.
#[test]
fn crash_between_append_and_injection_replays_exactly_once() {
    let path = temp_journal("crash-window");
    let _ = std::fs::remove_file(&path);
    let gate: IngestGate<u64> = IngestGate::with_journal(0, &path).expect("journal opens");

    assert!(gate.submit(req(1, 7, 500), ReplySlot::None).is_none());
    gate.set_fail_after_append(true);
    let out = gate.pump(|_| true, &mut |_| {}).expect("pump");
    assert_eq!(out.injected, 0, "the crash window fired before injection");
    drop(gate); // the "process" dies here

    let recovered: IngestGate<u64> = IngestGate::with_journal(0, &path).expect("resume");
    let suffix = replay(&recovered, VirtualTime::ZERO);
    assert_eq!(suffix.len(), 1, "journal suffix replays the lost event");
    assert_eq!(suffix[0].key.recv_time.ticks(), 500);
    assert!(recovered.was_accepted(1, 7));
    // The client that never got its reply retries the same id:
    assert_eq!(
        recovered.submit(req(1, 7, 500), ReplySlot::None),
        Some(IngestReply::Duplicate),
        "a retry after the crash must dedup, not double-admit"
    );
    let _ = std::fs::remove_file(&path);
}

/// A crash mid-append leaves a torn last record. Reopening drops it and
/// rewrites the journal before the next append, so that append is a line of
/// its own and survives the reopen after it.
#[test]
fn an_admission_after_a_torn_tail_survives_the_next_reopen() {
    let path = temp_journal("torn-tail");
    let _ = std::fs::remove_file(&path);
    {
        let gate: IngestGate<u64> = IngestGate::with_journal(1, &path).expect("journal opens");
        for id in 1..=3 {
            assert!(gate.submit(req(1, id, 100 + id), ReplySlot::None).is_none());
        }
        gate.pump(|_| true, &mut |_| {}).expect("pump");
    }
    // Tear the last record: the crash cut its append short.
    let text = std::fs::read_to_string(&path).expect("journal");
    std::fs::write(&path, &text[..text.len() - 9]).expect("tear");

    let gate: IngestGate<u64> = IngestGate::with_journal(1, &path).expect("torn tail tolerated");
    assert!(gate.was_accepted(1, 2) && !gate.was_accepted(1, 3));
    assert_eq!(replay(&gate, VirtualTime::ZERO).len(), 2);
    assert!(gate.submit(req(1, 4, 200), ReplySlot::None).is_none());
    let mut admitted = Vec::new();
    gate.pump(|_| true, &mut |ev| admitted.push(ev))
        .expect("pump");
    drop(gate);

    let gate: IngestGate<u64> = IngestGate::with_journal(1, &path).expect("reopens");
    assert!(
        gate.was_accepted(1, 4),
        "the admission after the tear was lost"
    );
    assert_eq!(gate.accepted_count(), 3);
    let resumed: Vec<_> = replay(&gate, VirtualTime::ZERO);
    assert_eq!(resumed.last(), admitted.last(), "resumed bit-identical");
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Random submissions with colliding ids, more than one pump's worth,
    /// and a crash at a random pump: after recovery and a full drain, every
    /// distinct admissible id is accepted exactly once, every minted uid is
    /// unique, and re-submitting the whole script yields only
    /// Duplicate/Rejected — never a second admission. Each id has a fixed
    /// source of four, so no source reaches its quota.
    #[test]
    fn crash_window_never_drops_or_duplicates(
        ids in prop::collection::vec(0u64..2 * MAX_PER_PUMP as u64, MAX_PER_PUMP..3 * MAX_PER_PUMP),
        crash_after in 0usize..3,
        case in 0u64..u64::MAX,
    ) {
        let path = temp_journal(&format!("crash-prop-{case}"));
        let _ = std::fs::remove_file(&path);
        let gate: IngestGate<u64> = IngestGate::with_journal(0, &path).expect("journal opens");
        let req = |id: u64, i: usize| req((id % 4) as u32, id, 100 + i as u64);

        let mut queued: Vec<u64> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            // Admissible stamps (floor 0 ⇒ anything > 0 works).
            if gate.submit(req(id, i), ReplySlot::None).is_none() {
                queued.push(id);
            }
        }

        // Pump a few bounded rounds, then crash inside the append window.
        let mut injected_before = 0u64;
        for _ in 0..crash_after {
            injected_before += gate.pump(|_| true, &mut |_| {}).expect("pump").injected;
        }
        gate.set_fail_after_append(true);
        injected_before += gate.pump(|_| true, &mut |_| {}).expect("pump").injected;
        drop(gate);

        let recovered: IngestGate<u64> = IngestGate::with_journal(0, &path).expect("resume");
        // Replay (the journal suffix) plus nothing else: the resumed gate
        // holds every accepted id, and the replay covers what the dead
        // process had journaled — including the appended-but-uninjected one.
        let suffix = replay(&recovered, VirtualTime::ZERO);
        prop_assert!(suffix.len() as u64 >= injected_before.min(1));

        // Re-drive the full script: only duplicates or queue admissions of
        // ids that never got in (still queued when the gate died).
        for (i, &id) in ids.iter().enumerate() {
            match recovered.submit(req(id, i), ReplySlot::None) {
                Some(IngestReply::Duplicate) | None => {}
                other => prop_assert!(false, "unexpected verdict {other:?}"),
            }
        }
        let mut drained = 0;
        while recovered.queued_len() > 0 && drained < 64 {
            recovered.pump(|_| true, &mut |_| {}).expect("pump");
            drained += 1;
        }

        // Exactly-once per distinct id, and every uid unique.
        let mut distinct: Vec<u64> = ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(recovered.accepted_count(), distinct.len());
        let evs = recovered.accepted_events();
        let mut uids: Vec<_> = evs.iter().map(|e| e.key.uid).collect();
        uids.sort();
        uids.dedup();
        prop_assert_eq!(uids.len(), evs.len(), "minted uids must be unique");
        let _ = std::fs::remove_file(&path);
    }
}
