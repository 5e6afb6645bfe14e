//! External-event ingest: admission control, backpressure, and a
//! crash-durable journal.
//!
//! The gate is the runtime-side half of the ingest plane (`crates/ingest`
//! holds the client half). Externally-sourced, timestamped events enter a
//! *running* simulation through an [`IngestGate`]:
//!
//! * **Admission.** GVT is the irrevocable commit floor, so an external
//!   event is only admissible strictly above the last published GVT
//!   (`at > floor`). Anything at or below the floor is refused with
//!   [`IngestReply::Rejected`] carrying the floor it was judged against —
//!   the client re-stamps and retries. Admission happens under the
//!   same mutex that fences GVT publication ([`IngestGate::fence_gvt`]), so
//!   an admitted event is either visible to a GVT computation (its receive
//!   time bounds the new GVT from below) or was judged against the *new*
//!   floor — the published GVT can never overshoot an admitted timestamp.
//! * **Backpressure.** Per-source queue occupancy is bounded
//!   ([`SOURCE_CAPACITY`]): an over-quota source gets [`IngestReply::Busy`]
//!   with a 1 ms retry hint. Above a global high-watermark
//!   ([`HIGH_WATERMARK`]) the gate sheds the newest arrivals
//!   ([`IngestReply::Shed`]) instead of letting the backlog stall GVT
//!   rounds — admission work per round is capped by [`MAX_PER_PUMP`].
//! * **Durability.** Accepted events are appended to a JSONL journal
//!   (flushed per record, compacted with the same temp-file + rename
//!   discipline as [`crate::checkpoint`]) keyed by the client-supplied
//!   idempotency id, *before* they are injected. An admitted event is
//!   stamped `send_time = floor`; a checkpoint cut at GVT `G` includes
//!   exactly the pending events with `send_time < G`, so after a restore the
//!   journal suffix with `send_time ≥ G` is the exact complement — replaying
//!   it re-injects every accepted-but-uncommitted event exactly once.
//!   Every run start replays that suffix — from 0 on a fresh start, so a
//!   gate opened on an existing journal resumes it. Duplicate submissions
//!   (client retries after a lost reply) are dropped against the
//!   journal-backed idempotency map.

use crate::ids::LpId;
use crate::time::VirtualTime;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

mod gate;
mod journal;
mod port;

pub use gate::{
    IngestGate, PendingEntry, PumpOutcome, ReplySlot, HIGH_WATERMARK, MAX_PER_PUMP, SOURCE_CAPACITY,
};
pub use journal::{IngestJournal, JournalRecord};
pub use port::IngestPort;

/// The reserved source LP for ingest event uids: no model LP can be
/// `u32::MAX` (maps are dense from 0), so ingest uids never collide with
/// model-generated ones.
pub const INGEST_SRC: LpId = LpId(u32::MAX);

/// Per-shard uid namespace width: the shard id occupies the top 16 bits of
/// the 64-bit sequence, so shards mint disjoint ingest uids.
const SHARD_SHIFT: u32 = 48;

/// One externally-sourced event submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestRequest<P> {
    /// Client/source identifier (scopes the idempotency id and the
    /// per-source backpressure quota).
    pub source: u32,
    /// Client-supplied idempotency id, unique per source. Retries reuse it;
    /// the gate admits each `(source, id)` at most once.
    pub id: u64,
    /// Requested receive (virtual) time.
    pub at: VirtualTime,
    /// Destination LP.
    pub dst: LpId,
    pub payload: P,
}

/// Structured verdict on one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IngestReply {
    /// Journaled and injected; will commit exactly once.
    Accepted,
    /// Timestamp at or below the admission floor (the last published GVT)
    /// it was judged against — re-stamp above `floor_ticks` and retry.
    Rejected { floor_ticks: u64 },
    /// The source is over its queue quota; retry after the hint.
    Busy { retry_after_ms: u64 },
    /// Global high-watermark reached; the newest arrival is shed.
    Shed,
    /// This `(source, id)` was already accepted (or is already queued).
    Duplicate,
    /// The gate is closed (simulation finished or shutting down).
    Closed,
}

/// Gate counters (cumulative; snapshotted into telemetry round records).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestStats {
    pub submitted: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub busy: u64,
    pub shed: u64,
    pub duplicate: u64,
    /// Accepted events re-injected at a run start (a resumed journal's
    /// records, or the suffix a restored cut does not hold).
    pub replayed: u64,
}

/// Why a journal operation failed (mirrors [`crate::CheckpointError`]).
#[derive(Debug)]
pub enum IngestError {
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    Corrupt {
        path: PathBuf,
        detail: String,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io { path, source } => {
                write!(f, "ingest journal {}: {source}", path.display())
            }
            IngestError::Corrupt { path, detail } => {
                write!(
                    f,
                    "ingest journal {}: not a valid journal ({detail})",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io { source, .. } => Some(source),
            IngestError::Corrupt { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKey};
    use crate::ids::EventUid;
    use std::sync::Mutex;

    fn req(source: u32, id: u64, at: f64) -> IngestRequest<u32> {
        IngestRequest {
            source,
            id,
            at: VirtualTime::from_f64(at),
            dst: LpId(0),
            payload: id as u32,
        }
    }

    fn pump_all(gate: &IngestGate<u32>) -> Vec<Event<u32>> {
        let mut got = Vec::new();
        gate.pump(|_| true, &mut |ev| got.push(ev)).expect("pump");
        got
    }

    /// What a run start hands back: everything the gate accepted with
    /// `send_time >= cut`, in key order.
    fn replay(gate: &IngestGate<u32>, cut: VirtualTime) -> Vec<Event<u32>> {
        let mut got = Vec::new();
        gate.reinject_after_restore(cut, &mut |ev| got.push(ev));
        got
    }

    #[test]
    fn a_resumed_journal_replays_once_at_start_ahead_of_fresh_admissions() {
        let dir = std::env::temp_dir().join(format!("ggpdes-ingest-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("stage-replay.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let gate: IngestGate<u32> = IngestGate::with_journal(0, &path).expect("journal");
            gate.submit(req(1, 1, 2.0), ReplySlot::None);
            gate.submit(req(1, 2, 3.0), ReplySlot::None);
            assert_eq!(pump_all(&gate).len(), 2);
        }
        let gate: IngestGate<u32> = IngestGate::with_journal(0, &path).expect("resume");
        // The start replays the journaled pair; a pump never does.
        assert_eq!(replay(&gate, VirtualTime::ZERO).len(), 2);
        assert_eq!(gate.stats().replayed, 2);
        gate.submit(req(1, 3, 4.0), ReplySlot::None);
        let got = pump_all(&gate);
        assert_eq!(got.len(), 1, "only the fresh admission is pumped");
        assert_eq!(got[0].key.recv_time, VirtualTime::from_f64(4.0));
        assert!(pump_all(&gate).is_empty());
        // Retries of replayed ids still dedup against the resumed map.
        assert_eq!(
            gate.submit(req(1, 2, 3.0), ReplySlot::None),
            Some(IngestReply::Duplicate)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejection_carries_the_floor_it_was_judged_against() {
        let gate: IngestGate<u32> = IngestGate::new(0);
        gate.set_floor(VirtualTime::from_f64(10.0));
        let r = gate.submit(req(1, 1, 5.0), ReplySlot::None);
        assert_eq!(
            r,
            Some(IngestReply::Rejected {
                floor_ticks: VirtualTime::from_f64(10.0).ticks()
            })
        );
    }

    #[test]
    fn admission_is_strictly_above_the_floor() {
        let gate: IngestGate<u32> = IngestGate::new(0);
        gate.set_floor(VirtualTime::from_f64(10.0));
        assert!(matches!(
            gate.submit(req(1, 1, 10.0), ReplySlot::None),
            Some(IngestReply::Rejected { .. })
        ));
        assert_eq!(gate.submit(req(1, 2, 10.5), ReplySlot::None), None);
        let got = pump_all(&gate);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].key.recv_time, VirtualTime::from_f64(10.5));
        assert_eq!(got[0].send_time, VirtualTime::from_f64(10.0));
        assert_eq!(got[0].key.uid.src, INGEST_SRC);
    }

    #[test]
    fn duplicate_ids_admit_once() {
        let gate: IngestGate<u32> = IngestGate::new(0);
        assert_eq!(gate.submit(req(1, 7, 5.0), ReplySlot::None), None);
        assert_eq!(
            gate.submit(req(1, 7, 6.0), ReplySlot::None),
            Some(IngestReply::Duplicate)
        );
        pump_all(&gate);
        assert_eq!(
            gate.submit(req(1, 7, 8.0), ReplySlot::None),
            Some(IngestReply::Duplicate)
        );
        assert_eq!(gate.accepted_count(), 1);
        // A different source may reuse the id.
        assert_eq!(gate.submit(req(2, 7, 8.0), ReplySlot::None), None);
    }

    #[test]
    fn per_source_quota_yields_busy_and_watermark_sheds() {
        let gate: IngestGate<u32> = IngestGate::new(0);
        // Source 0 fills its quota; the next submission from it is Busy.
        for id in 0..SOURCE_CAPACITY as u64 {
            assert_eq!(gate.submit(req(0, id, 5.0), ReplySlot::None), None);
        }
        assert_eq!(
            gate.submit(req(0, 999, 5.0), ReplySlot::None),
            Some(IngestReply::Busy { retry_after_ms: 1 })
        );
        // Other sources fill the queue to the watermark; the next arrival,
        // from a source with quota to spare, is shed.
        for id in SOURCE_CAPACITY..HIGH_WATERMARK {
            let source = (id / SOURCE_CAPACITY) as u32;
            assert_eq!(
                gate.submit(req(source, id as u64, 5.0), ReplySlot::None),
                None
            );
        }
        assert_eq!(
            gate.submit(req(u32::MAX, 0, 5.0), ReplySlot::None),
            Some(IngestReply::Shed),
            "high watermark sheds the newest arrival"
        );
        assert_eq!(gate.queued_len(), HIGH_WATERMARK);
        let s = gate.stats();
        assert_eq!((s.busy, s.shed), (1, 1));
    }

    #[test]
    fn pump_rejects_entries_the_floor_overtook() {
        let gate: IngestGate<u32> = IngestGate::new(0);
        let got_reply = std::sync::Arc::new(Mutex::new(None));
        let gr = std::sync::Arc::clone(&got_reply);
        assert_eq!(
            gate.submit(
                req(1, 1, 5.0),
                ReplySlot::Local(Box::new(move |r| *gr.lock().unwrap() = Some(r)))
            ),
            None
        );
        // The floor advances past the queued timestamp before the pump.
        gate.set_floor(VirtualTime::from_f64(9.0));
        let got = pump_all(&gate);
        assert!(got.is_empty());
        assert_eq!(
            *got_reply.lock().unwrap(),
            Some(IngestReply::Rejected {
                floor_ticks: VirtualTime::from_f64(9.0).ticks()
            })
        );
        // The id is free again for a re-stamped retry.
        assert_eq!(gate.submit(req(1, 1, 12.0), ReplySlot::None), None);
    }

    #[test]
    fn non_owned_destinations_are_forwarded() {
        let gate: IngestGate<u32> = IngestGate::new(0);
        let mut r = req(1, 1, 5.0);
        r.dst = LpId(3);
        gate.submit(r, ReplySlot::None);
        let out = gate
            .pump(|lp| lp != LpId(3), &mut |_| panic!("must not inject"))
            .expect("pump");
        assert_eq!(out.forward.len(), 1);
        assert_eq!(out.forward[0].req.dst, LpId(3));
        assert_eq!(gate.accepted_count(), 0);
    }

    #[test]
    fn journal_roundtrip_and_recovery_replays_suffix_exactly() {
        let dir = std::env::temp_dir().join(format!("ingest-j-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal-roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let gate: IngestGate<u32> = IngestGate::with_journal(0, &path).expect("open");
            gate.submit(req(1, 1, 5.0), ReplySlot::None);
            pump_all(&gate); // send_time = 0 (< cut)
            gate.set_floor(VirtualTime::from_f64(8.0));
            gate.submit(req(1, 2, 9.0), ReplySlot::None);
            pump_all(&gate); // send_time = 8 (≥ cut)
        }
        let cut = VirtualTime::from_f64(8.0);
        let gate2: IngestGate<u32> = IngestGate::with_journal(0, &path).expect("resume");
        let suffix = replay(&gate2, cut);
        assert_eq!(suffix.len(), 1, "only the suffix above the cut replays");
        assert_eq!(
            gate2.floor_ticks(),
            cut.ticks(),
            "the floor starts at the cut"
        );
        assert_eq!(suffix[0].key.recv_time, VirtualTime::from_f64(9.0));
        // The idempotency map survives for both records.
        assert!(gate2.was_accepted(1, 1));
        assert!(gate2.was_accepted(1, 2));
        assert_eq!(
            gate2.submit(req(1, 2, 20.0), ReplySlot::None),
            Some(IngestReply::Duplicate)
        );
        // New admissions mint fresh uids past the journaled ones.
        gate2.submit(req(1, 3, 20.0), ReplySlot::None);
        let got = pump_all(&gate2);
        assert!(got[0].key.uid.seq > suffix[0].key.uid.seq);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_tolerated_interior_corruption_is_not() {
        let dir = std::env::temp_dir().join(format!("ingest-j-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal-torn.jsonl");
        let rec = JournalRecord {
            source: 1,
            id: 1,
            event: Event {
                key: EventKey {
                    recv_time: VirtualTime::from_f64(5.0),
                    dst: LpId(0),
                    uid: EventUid::new(INGEST_SRC, 0),
                },
                send_time: VirtualTime::ZERO,
                payload: 1u32,
            },
        };
        let line = serde_json::to_string(&rec).unwrap();
        std::fs::write(&path, format!("{line}\n{line}\n{{\"torn")).unwrap();
        let back = IngestJournal::read_all::<u32>(&path).expect("torn tail tolerated");
        assert_eq!(back.len(), 2);
        std::fs::write(&path, format!("{line}\n{{broken}}\n{line}\n")).unwrap();
        assert!(matches!(
            IngestJournal::read_all::<u32>(&path),
            Err(IngestError::Corrupt { .. })
        ));
        IngestJournal::compact(&path, std::slice::from_ref(&rec)).expect("compact");
        let back = IngestJournal::read_all::<u32>(&path).expect("compacted");
        assert_eq!(back, vec![rec]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_between_append_and_inject_replays_exactly_once() {
        let dir = std::env::temp_dir().join(format!("ingest-j-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal-crashwin.jsonl");
        let _ = std::fs::remove_file(&path);
        let cut;
        {
            let gate: IngestGate<u32> = IngestGate::with_journal(0, &path).expect("open");
            gate.set_floor(VirtualTime::from_f64(3.0));
            cut = VirtualTime::from_f64(3.0);
            gate.set_fail_after_append(true);
            gate.submit(req(1, 1, 5.0), ReplySlot::None);
            let got = pump_all(&gate);
            assert!(got.is_empty(), "crashed before injection");
        }
        // The newest cut G precedes the append (no publish ran in between),
        // so send_time = floor-at-append ≥ G and the record replays.
        let gate: IngestGate<u32> = IngestGate::with_journal(0, &path).expect("resume");
        assert_eq!(replay(&gate, cut).len(), 1);
        // …and only once: a second recovery from a later cut *above* the
        // send stamp means the event committed before that cut.
        let gate: IngestGate<u32> = IngestGate::with_journal(0, &path).expect("resume");
        assert!(replay(&gate, VirtualTime::from_f64(4.0)).is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn close_fails_queued_submissions() {
        let gate: IngestGate<u32> = IngestGate::new(0);
        let got = std::sync::Arc::new(Mutex::new(None));
        let g2 = std::sync::Arc::clone(&got);
        gate.submit(
            req(1, 1, 5.0),
            ReplySlot::Local(Box::new(move |r| *g2.lock().unwrap() = Some(r))),
        );
        gate.close();
        assert_eq!(*got.lock().unwrap(), Some(IngestReply::Closed));
        assert_eq!(
            gate.submit(req(1, 2, 5.0), ReplySlot::None),
            Some(IngestReply::Closed)
        );
    }
}
