//! A shard's one clock and what it stamps: phase spans, park episodes
//! (the demand throttle), link retransmits, the round close and the
//! telemetry hand-off at `Finish`. The node's heartbeat cadence, lease
//! audits and GVT watchdog read the same clock.

use std::sync::Arc;
use std::time::Instant;

use pdes_core::{IngestPort, Model, ThreadEngine};
use telemetry::{EventKind, RoundBoard, Telemetry, TelemetryConfig, TelemetryData, Tracer};

/// Nominal length of a step on the clock of a node without wall time.
pub(crate) const STEP_NS: u64 = 100_000;

pub(crate) struct ShardTrace {
    // Per-shard registry, this node's (single) tracer and the one-slot board
    // its engine publishes into.
    tel: Arc<Telemetry>,
    tracer: Tracer,
    board: RoundBoard,
    /// Wall-clock origin, set once the node runs on a thread; until then
    /// (always, on a stepped node) the clock reads `cycles * STEP_NS`.
    origin: Option<Instant>,
    cycles: u64,
    /// Per-link retransmit counts already traced.
    retx_seen: Vec<u64>,
    /// Demand throttle: a parked shard takes no batches. Holds the trace
    /// stamp at which the open park episode began and the publish round
    /// that parked it.
    parked: Option<(u64, u64)>,
    parked_episodes: u64,
}

impl ShardTrace {
    pub(crate) fn new(cfg: &TelemetryConfig, peers: usize) -> ShardTrace {
        let tel = Telemetry::new(cfg.clone());
        ShardTrace {
            tracer: tel.tracer(0),
            tel,
            board: RoundBoard::new(1, peers),
            origin: None,
            cycles: 0,
            retx_seen: vec![0; peers],
            parked: None,
            parked_episodes: 0,
        }
    }

    /// Nanoseconds on this node's own monotonic clock.
    pub(crate) fn now_ns(&self) -> u64 {
        match self.origin {
            Some(t0) => t0.elapsed().as_nanos() as u64,
            None => self.cycles * STEP_NS,
        }
    }

    /// Run on wall time from here on (kept across runs of the same node).
    pub(crate) fn start_wall_clock(&mut self) {
        self.origin.get_or_insert_with(Instant::now);
    }

    /// Count one step; returns the step count.
    pub(crate) fn tick(&mut self) -> u64 {
        self.cycles += 1;
        self.cycles
    }

    /// The step count: the cycle clock rounds are paced on.
    pub(crate) fn cycles(&self) -> u64 {
        self.cycles
    }

    /// [`Self::now_ns`] for a trace record: the clock is not read when
    /// nothing would be recorded.
    pub(crate) fn stamp(&self) -> u64 {
        if self.tracer.enabled() {
            self.now_ns()
        } else {
            0
        }
    }

    /// Trace a span opened at `start` and closing now; returns its end,
    /// which is where the next phase's span starts.
    pub(crate) fn span(&mut self, kind: EventKind, start: u64, arg: u64) -> u64 {
        let now = self.stamp();
        self.tracer.span(kind, start, now, arg);
        now
    }

    pub(crate) fn point(&mut self, kind: EventKind, at: u64, arg: u64) {
        self.tracer.span(kind, at, at, arg);
    }

    pub(crate) fn instant(&mut self, kind: EventKind, arg: u64) {
        let now = self.stamp();
        self.tracer.instant(kind, now, arg);
    }

    /// A batch of `processed` events begun at `start` that undid
    /// `rolled_back`.
    pub(crate) fn batch(&mut self, start: u64, processed: u64, rolled_back: u64) {
        let now = self.span(EventKind::EventBatch, start, processed);
        if rolled_back > 0 {
            self.tracer.instant(EventKind::Rollback, now, rolled_back);
        }
    }

    pub(crate) fn parked(&self) -> bool {
        self.parked.is_some()
    }

    /// The demand-driven scheduling point of publish `round`: a shard with
    /// no `live` work parks until an event re-creates demand.
    pub(crate) fn reschedule(&mut self, live: bool, round: u64) {
        if live {
            self.unpark();
        } else if self.parked.is_none() {
            self.parked = Some((self.stamp(), round));
            self.parked_episodes += 1;
        }
    }

    /// Un-park the shard and close the traced park span.
    pub(crate) fn unpark(&mut self) {
        if let Some((since, round)) = self.parked.take() {
            let now = self.span(EventKind::Park, since, round);
            self.tracer.instant(EventKind::Unpark, now, round);
        }
    }

    pub(crate) fn episodes(&self) -> u64 {
        self.parked_episodes
    }

    /// Trace the retransmits of the link to `peer` not traced yet (the arg
    /// packs peer and count).
    pub(crate) fn retransmits(&mut self, peer: usize, total: u64) {
        if total > self.retx_seen[peer] {
            let delta = total - self.retx_seen[peer];
            self.retx_seen[peer] = total;
            self.instant(EventKind::LinkRetransmit, ((peer as u64) << 32) | delta);
        }
    }

    /// The link to `peer` was rebuilt.
    pub(crate) fn relink(&mut self, peer: usize) {
        self.retx_seen[peer] = 0;
    }

    /// The tail of a publish, from `start`: the cut and park decision are
    /// Aware, the round snapshot (engine and ingest counters) is End.
    pub(crate) fn close_round<M: Model>(
        &mut self,
        round: u64,
        gvt: u64,
        start: u64,
        engine: &ThreadEngine<M>,
        ingest: Option<&IngestPort<M::Payload>>,
    ) {
        if !self.tracer.enabled() {
            return;
        }
        let now = self.span(EventKind::GvtAware, start, round);
        self.board.publish(0, engine.local_min(), engine.stats());
        let (active, depth) = (usize::from(self.parked.is_none()), engine.pending_len());
        let (tel, board) = (&self.tel, &self.board);
        tel.close_round(board, round, gvt, now, active, [depth].into_iter(), ingest);
        if let Some(port) = ingest {
            self.tracer.ingest_instants(now, port.round_deltas());
        }
        self.span(EventKind::GvtEnd, now, round);
    }

    /// At `Finish`: close an open park episode and hand the collected
    /// telemetry over (`None` when tracing is off).
    pub(crate) fn hand_off(&mut self) -> Option<TelemetryData> {
        if !self.tel.enabled() {
            return None;
        }
        self.unpark();
        let tracer = std::mem::replace(&mut self.tracer, Tracer::disabled());
        self.tel.deposit(tracer);
        Some(self.tel.take())
    }

    /// The last round snapshot for a stall report (empty when tracing is
    /// off) — dist-rt's `StallDump::last_round`.
    pub(crate) fn last_round(&self) -> String {
        let last = self.tel.last_round();
        last.map(|r| format!(", last round {} at gvt={}", r.round, r.gvt_ticks))
            .unwrap_or_default()
    }
}
