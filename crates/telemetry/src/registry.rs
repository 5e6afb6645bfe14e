//! The per-run telemetry registry: tracer hand-out, trace collection, and
//! per-GVT-round counter snapshots.

use crate::config::TelemetryConfig;
use crate::event::{EventKind, TraceRecord};
use crate::ring::TraceRing;
use pdes_core::plane::lock;
use pdes_core::{IngestPort, RoundBoard, RoundCounters, RoundTotals};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// A per-thread tracing handle. Owned exclusively by its simulation thread;
/// every record call is lock-free (a branch plus a ring store). A disabled
/// tracer carries no ring and every call is a single predictable branch.
#[derive(Debug)]
pub struct Tracer {
    tid: usize,
    ring: Option<TraceRing>,
}

impl Tracer {
    /// A no-op tracer (what disabled telemetry hands out).
    pub fn disabled() -> Self {
        Tracer { tid: 0, ring: None }
    }

    /// Whether record calls actually store anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Record an instant event at `ts_ns`.
    #[inline]
    pub fn instant(&mut self, kind: EventKind, ts_ns: u64, arg: u64) {
        if let Some(r) = &mut self.ring {
            r.push(TraceRecord {
                kind,
                ts_ns,
                dur_ns: 0,
                arg,
            });
        }
    }

    /// Record a span covering `[start_ns, end_ns]`.
    #[inline]
    pub fn span(&mut self, kind: EventKind, start_ns: u64, end_ns: u64, arg: u64) {
        if let Some(r) = &mut self.ring {
            r.push(TraceRecord {
                kind,
                ts_ns: start_ns,
                dur_ns: end_ns.saturating_sub(start_ns),
                arg,
            });
        }
    }

    /// The round closer's ingest verdicts as per-round instants at `ts_ns`:
    /// `deltas` is `(admitted, rejected, shed, busy)` since the previous
    /// round; only counters that moved emit anything.
    pub fn ingest_instants(&mut self, ts_ns: u64, deltas: (u64, u64, u64, u64)) {
        for (kind, n) in [
            (EventKind::IngestAdmit, deltas.0),
            (EventKind::IngestReject, deltas.1),
            (EventKind::IngestShed, deltas.2),
            (EventKind::IngestBusy, deltas.3),
        ] {
            if n > 0 {
                self.instant(kind, ts_ns, n);
            }
        }
    }

    fn into_trace(self) -> Option<ThreadTrace> {
        let ring = self.ring?;
        Some(ThreadTrace {
            tid: self.tid,
            shard: 0,
            emitted: ring.emitted(),
            dropped: ring.dropped(),
            records: ring.drain(),
        })
    }
}

/// One thread's collected trace (records oldest → newest, plus the ring's
/// accounting so consumers can tell when the window was clipped).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ThreadTrace {
    pub tid: usize,
    /// Producing shard (0 outside `dist-rt`; stamped at coordinator merge).
    pub shard: u64,
    /// Records ever emitted by the thread.
    pub emitted: u64,
    /// Records the ring overwrote (`emitted - records.len()`).
    pub dropped: u64,
    pub records: Vec<TraceRecord>,
}

/// Everything one run (or one shard) traced: per-thread records plus the
/// per-GVT-round counter stream. Serializable so `dist-rt` shards can ship
/// it to the coordinator through the wire codec.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TelemetryData {
    pub threads: Vec<ThreadTrace>,
    pub rounds: Vec<RoundCounters>,
}

/// Shift `ts` by a signed clock offset, saturating at the u64 range.
fn shift(ts: u64, offset_ns: i64) -> u64 {
    if offset_ns >= 0 {
        ts.saturating_add(offset_ns as u64)
    } else {
        ts.saturating_sub(offset_ns.unsigned_abs())
    }
}

impl TelemetryData {
    /// Merge a shard's collected data into this (coordinator-side) set:
    /// stamp every thread trace and round snapshot with `shard` and map its
    /// timestamps onto the coordinator clock with `offset_ns` (estimated as
    /// `coordinator_now − shard_send_time`, i.e. assuming the forwarding
    /// frame's one-way latency is small against the trace horizon).
    pub fn merge_shard(&mut self, mut other: TelemetryData, shard: u64, offset_ns: i64) {
        for t in &mut other.threads {
            t.shard = shard;
            for r in &mut t.records {
                r.ts_ns = shift(r.ts_ns, offset_ns);
            }
        }
        for rc in &mut other.rounds {
            rc.shard = shard;
            rc.ts_ns = shift(rc.ts_ns, offset_ns);
        }
        self.threads.extend(other.threads);
        self.rounds.extend(other.rounds);
    }

    /// The newest round snapshot (globally, by close timestamp).
    pub fn last_round(&self) -> Option<&RoundCounters> {
        self.rounds.iter().max_by_key(|r| (r.ts_ns, r.round))
    }

    /// Total records dropped across all thread rings.
    pub fn total_dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }
}

#[derive(Default)]
struct Inner {
    threads: Vec<ThreadTrace>,
    rounds: Vec<RoundCounters>,
    prev: (u64, u64, u64), // cumulative (committed, processed, rolled_back)
    prev_ingest: (u64, u64, u64, u64), // cumulative (admitted, rejected, shed, busy)
}

/// The per-run registry. Cheap to share (`Arc`); all methods that touch the
/// mutex run off the simulation hot path (thread exit, round End).
pub struct Telemetry {
    cfg: TelemetryConfig,
    inner: Mutex<Inner>,
}

impl Telemetry {
    pub fn new(cfg: TelemetryConfig) -> Arc<Self> {
        Arc::new(Telemetry {
            cfg,
            inner: Mutex::new(Inner::default()),
        })
    }

    /// A registry that records nothing.
    pub fn off() -> Arc<Self> {
        Self::new(TelemetryConfig::default())
    }

    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// Hand out thread `tid`'s tracer (a no-op tracer when disabled).
    pub fn tracer(&self, tid: usize) -> Tracer {
        if !self.cfg.enabled {
            return Tracer::disabled();
        }
        Tracer {
            tid,
            ring: Some(TraceRing::new(self.cfg.capacity)),
        }
    }

    /// Collect a finished thread's tracer (thread exit; off the hot path).
    pub fn deposit(&self, tracer: Tracer) {
        if let Some(trace) = tracer.into_trace() {
            let mut g = lock(&self.inner);
            g.threads.push(trace);
        }
    }

    /// Round closer, on every runtime: sum `board` into round `round`'s
    /// cumulative totals at `ts_ns` and record them. Nothing is read — not
    /// `queue_depths` either — when telemetry is off.
    #[allow(clippy::too_many_arguments)]
    pub fn close_round<P>(
        &self,
        board: &RoundBoard,
        round: u64,
        gvt_ticks: u64,
        ts_ns: u64,
        active_threads: usize,
        queue_depths: impl Iterator<Item = usize>,
        ingest: Option<&IngestPort<P>>,
    ) {
        if self.cfg.enabled {
            self.record_round(board.snapshot(
                round,
                gvt_ticks,
                ts_ns,
                active_threads,
                queue_depths.collect(),
                ingest.map_or((0, 0, 0, 0), IngestPort::totals),
            ));
        }
    }

    /// Record one GVT round from **cumulative** totals; the delta against
    /// the previous call is computed here, behind the mutex.
    fn record_round(&self, t: RoundTotals) {
        let mut g = lock(&self.inner);
        let (pc, pp, pr) = g.prev;
        g.prev = (t.committed, t.processed, t.rolled_back);
        let (pa, prj, psh, pb) = g.prev_ingest;
        g.prev_ingest = t.ingest;
        g.rounds.push(RoundCounters {
            round: t.round,
            shard: 0,
            gvt_ticks: t.gvt_ticks,
            ts_ns: t.ts_ns,
            committed_delta: t.committed.saturating_sub(pc),
            processed_delta: t.processed.saturating_sub(pp),
            rolled_back_delta: t.rolled_back.saturating_sub(pr),
            active_threads: t.active_threads,
            members: t.members,
            lvt_ticks: t.lvt_ticks,
            queue_depths: t.queue_depths,
            ingest_admitted_delta: t.ingest.0.saturating_sub(pa),
            ingest_rejected_delta: t.ingest.1.saturating_sub(prj),
            ingest_shed_delta: t.ingest.2.saturating_sub(psh),
            ingest_busy_delta: t.ingest.3.saturating_sub(pb),
        });
    }

    /// The most recently recorded round, if any (feeds `StallDump`).
    pub fn last_round(&self) -> Option<RoundCounters> {
        lock(&self.inner).rounds.last().cloned()
    }

    /// Drain everything collected so far into an exportable bundle.
    pub fn take(&self) -> TelemetryData {
        let mut g = lock(&self.inner);
        let mut threads = std::mem::take(&mut g.threads);
        threads.sort_by_key(|t| t.tid);
        TelemetryData {
            threads,
            rounds: std::mem::take(&mut g.rounds),
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = lock(&self.inner);
        f.debug_struct("Telemetry")
            .field("cfg", &self.cfg)
            .field("threads", &g.threads.len())
            .field("rounds", &g.rounds.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_hands_out_noop_tracers() {
        let tel = Telemetry::off();
        let mut tr = tel.tracer(3);
        assert!(!tr.enabled());
        tr.instant(EventKind::Unpark, 10, 0);
        tr.span(EventKind::GvtA, 0, 5, 1);
        tel.deposit(tr);
        let depths = std::iter::once_with(|| panic!("read with telemetry off"));
        tel.close_round::<()>(&RoundBoard::new(1, 1), 0, 0, 0, 1, depths, None);
        let data = tel.take();
        assert!(data.threads.is_empty());
        assert!(data.rounds.is_empty());
        assert!(tel.last_round().is_none());
    }

    #[test]
    fn deposit_collects_ring_accounting() {
        let tel = Telemetry::new(TelemetryConfig::with_capacity(16));
        let mut tr = tel.tracer(2);
        for t in 0..20 {
            tr.instant(EventKind::Unpark, t, 0);
        }
        tel.deposit(tr);
        let data = tel.take();
        assert_eq!(data.threads.len(), 1);
        let t = &data.threads[0];
        assert_eq!(t.tid, 2);
        assert_eq!(t.emitted, 20);
        assert_eq!(t.dropped + t.records.len() as u64, t.emitted);
    }

    #[test]
    fn round_deltas_are_against_previous_totals() {
        let tel = Telemetry::new(TelemetryConfig::on());
        tel.record_round(RoundTotals {
            round: 1,
            gvt_ticks: 100,
            ts_ns: 10,
            committed: 50,
            processed: 60,
            rolled_back: 5,
            active_threads: 4,
            ..Default::default()
        });
        tel.record_round(RoundTotals {
            round: 2,
            gvt_ticks: 250,
            ts_ns: 20,
            committed: 80,
            processed: 100,
            rolled_back: 9,
            active_threads: 3,
            ..Default::default()
        });
        let data = tel.take();
        assert_eq!(data.rounds.len(), 2);
        assert_eq!(data.rounds[0].committed_delta, 50);
        assert_eq!(data.rounds[1].committed_delta, 30);
        assert_eq!(data.rounds[1].processed_delta, 40);
        assert_eq!(data.rounds[1].rolled_back_delta, 4);
        assert!(data.rounds[1].gvt_ticks >= data.rounds[0].gvt_ticks);
    }

    #[test]
    fn merge_shard_stamps_and_shifts() {
        let mut base = TelemetryData::default();
        let shard_data = TelemetryData {
            threads: vec![ThreadTrace {
                tid: 0,
                shard: 0,
                emitted: 1,
                dropped: 0,
                records: vec![TraceRecord {
                    kind: EventKind::GvtEnd,
                    ts_ns: 100,
                    dur_ns: 5,
                    arg: 1,
                }],
            }],
            rounds: vec![RoundCounters {
                round: 1,
                ts_ns: 100,
                ..Default::default()
            }],
        };
        base.merge_shard(shard_data.clone(), 2, 40);
        base.merge_shard(shard_data, 3, -60);
        assert_eq!(base.threads[0].shard, 2);
        assert_eq!(base.threads[0].records[0].ts_ns, 140);
        assert_eq!(base.threads[1].shard, 3);
        assert_eq!(base.threads[1].records[0].ts_ns, 40);
        assert_eq!(base.rounds[0].shard, 2);
        assert_eq!(base.rounds[0].ts_ns, 140);
        assert_eq!(base.last_round().unwrap().shard, 2);
    }
}
