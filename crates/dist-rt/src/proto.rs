//! The inter-shard frame protocol.
//!
//! Every frame travels through the reliable link layer ([`crate::link`]),
//! so the protocol can assume in-order, exactly-once delivery per directed
//! link.

use pdes_core::{Event, IngestReply, IngestRequest, LpCheckpoint, LpId, Msg, ThreadStats};
use serde::{Deserialize, Serialize};

/// Wire protocol version, carried in the raw TCP hello preamble. Bump on
/// any change to [`Frame`]'s encoding so mismatched builds are rejected at
/// the handshake instead of failing to decode mid-run.
pub const PROTOCOL_VERSION: u32 = 5;

/// Magic prefix of the hello preamble (`"GPDS"` little-endian).
pub const HELLO_MAGIC: u32 = u32::from_le_bytes(*b"GPDS");

/// One protocol frame. `S`/`P` are the model's state and payload types.
///
/// GVT frames speak in **ticks** ([`pdes_core::VirtualTime::ticks`]) rather
/// than `f64` so the wire never rounds a timestamp.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Frame<S, P> {
    /// Simulation messages (positive events and anti-messages) for one
    /// peer: the whole outbox drain of one engine step lands as a single
    /// frame (one serialize, one wire write) instead of one frame per event.
    /// Order within the batch is the send order and the receiver delivers in
    /// sequence, so an anti-message can never overtake the re-send of its
    /// twin. Each message is colored with the sender's GVT epoch at send
    /// time — `tag <= r` means it is *white* for round `r` (sent before the
    /// sender's round-`r` cut); a batch can straddle a cut, so the
    /// white/red accounting is per message, not per frame.
    SimBatch { msgs: Vec<(u64, Msg<P>)> },
    /// Coordinator → all: open round `round` (wave 0 cuts the epoch) or
    /// re-poll it (`wave > 0`). `armed` rounds take a checkpoint cut on
    /// publish.
    Start { round: u64, wave: u64, armed: bool },
    /// Shard → coordinator: the shard's round contribution. `pending_min`
    /// is frozen at the wave-0 cut; `late_min` folds every white message
    /// that arrived *after* the cut; `white_sent`/`white_recvd` are the
    /// per-peer white message counters (`white_sent` frozen at the cut,
    /// `white_recvd` fresh at every wave so late arrivals eventually match).
    Report {
        round: u64,
        wave: u64,
        shard: u64,
        pending_min: u64,
        late_min: u64,
        white_sent: Vec<u64>,
        white_recvd: Vec<u64>,
    },
    /// Coordinator → all: the round's GVT (ticks). `armed` requests a
    /// checkpoint cut at this GVT; `terminate` announces `gvt >= end_time`.
    /// `recovering` marks rounds published while a partially restored shard
    /// is still re-executing below the pre-failure GVT: `gvt` is then the
    /// round's raw minimum, below that floor, and receivers fossil-collect
    /// at it and keep counting rounds but skip GVT adoption, parking, and
    /// cut arming until a non-recovering publish arrives.
    Publish {
        round: u64,
        gvt: u64,
        armed: bool,
        terminate: bool,
        recovering: bool,
    },
    /// Shard → coordinator: liveness beacon for the failure detector, sent
    /// on the shard clock's cadence independent of simulation progress.
    Heartbeat { shard: u64 },
    /// Coordinator → all: every link is provably drained (a full round
    /// matched after termination with nobody processing); finalize and
    /// report [`Frame::Done`].
    Finish,
    /// Shard → coordinator: this shard's contribution to the round's
    /// checkpoint cut (its LP snapshots plus cut-crossing events).
    CutPart {
        round: u64,
        shard: u64,
        lps: Vec<LpCheckpoint<S>>,
        events: Vec<Event<P>>,
    },
    /// Shard → coordinator: final statistics and digests after `finalize`.
    Done {
        shard: u64,
        stats: ThreadStats,
        digests: Vec<(LpId, u64)>,
        pending_digest: u64,
        parked: u64,
    },
    /// Shard → shard: an external-event submission forwarded to the shard
    /// owning its destination LP. `origin` is the forwarding shard; `key`
    /// tags the origin's local reply slot so the verdict finds its way back.
    Ingest {
        origin: u64,
        key: u64,
        req: IngestRequest<P>,
    },
    /// Owner → origin: the verdict for a forwarded submission.
    IngestReply { key: u64, reply: IngestReply },
    /// Shard → coordinator: the shard's collected telemetry (thread traces
    /// and per-round counter snapshots), sent right before [`Frame::Done`]
    /// so the in-order link guarantees it arrives first. `sent_at_ns` is
    /// the shard's monotonic clock at send time; the coordinator estimates
    /// the clock offset as `coordinator_now - sent_at_ns`.
    Telemetry {
        shard: u64,
        sent_at_ns: u64,
        data: telemetry::TelemetryData,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{from_bytes, to_bytes};
    use pdes_core::{EventKey, EventUid, VirtualTime};

    type F = Frame<u32, u8>;

    fn key(t: u64, dst: u32) -> EventKey {
        EventKey {
            recv_time: VirtualTime::from_ticks(t),
            dst: LpId(dst),
            uid: EventUid::new(LpId(0), 7),
        }
    }

    #[test]
    fn frames_round_trip_through_wire() {
        let frames: Vec<F> = vec![
            Frame::SimBatch {
                msgs: vec![
                    (
                        1,
                        Msg::Event(Event {
                            key: key(50, 2),
                            send_time: VirtualTime::from_ticks(40),
                            payload: 9,
                        }),
                    ),
                    (2, Msg::Anti(key(60, 3))),
                ],
            },
            Frame::Start {
                round: 4,
                wave: 1,
                armed: true,
            },
            Frame::Report {
                round: 4,
                wave: 1,
                shard: 2,
                pending_min: 1000,
                late_min: u64::MAX,
                white_sent: vec![3, 0, 1],
                white_recvd: vec![0, 2, 2],
            },
            Frame::Publish {
                round: 4,
                gvt: 900,
                armed: false,
                terminate: false,
                recovering: true,
            },
            Frame::Heartbeat { shard: 2 },
            Frame::Finish,
            Frame::Done {
                shard: 1,
                stats: ThreadStats {
                    processed: 10,
                    committed: 9,
                    commit_digest: 0xDEAD,
                    ..Default::default()
                },
                digests: vec![(LpId(2), 11), (LpId(3), 12)],
                pending_digest: 0xBEEF,
                parked: 2,
            },
            Frame::Ingest {
                origin: 1,
                key: 42,
                req: IngestRequest {
                    source: 7,
                    id: 99,
                    at: VirtualTime::from_ticks(1234),
                    dst: LpId(3),
                    payload: 8,
                },
            },
            Frame::IngestReply {
                key: 42,
                reply: IngestReply::Rejected { floor_ticks: 900 },
            },
            Frame::Telemetry {
                shard: 2,
                sent_at_ns: 123_456_789,
                data: telemetry::TelemetryData {
                    threads: vec![telemetry::ThreadTrace {
                        tid: 0,
                        shard: 0,
                        emitted: 2,
                        dropped: 1,
                        records: vec![telemetry::TraceRecord {
                            kind: telemetry::EventKind::GvtEnd,
                            ts_ns: 77,
                            dur_ns: 5,
                            arg: 3,
                        }],
                    }],
                    rounds: vec![pdes_core::RoundCounters {
                        round: 3,
                        gvt_ticks: 900,
                        ts_ns: 80,
                        ..Default::default()
                    }],
                },
            },
        ];
        for f in frames {
            let bytes = to_bytes(&f);
            let back: F = from_bytes(&bytes).expect("decode");
            assert_eq!(format!("{f:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn cut_part_round_trips() {
        let f: F = Frame::CutPart {
            round: 9,
            shard: 0,
            lps: vec![],
            events: vec![Event {
                key: key(5, 2),
                send_time: VirtualTime::ZERO,
                payload: 1,
            }],
        };
        let back: F = from_bytes(&to_bytes(&f)).expect("decode");
        assert_eq!(format!("{f:?}"), format!("{back:?}"));
    }
}
