//! Everything only the coordinator (shard 0) keeps: the Mattern matcher,
//! round pacing, the checkpoint sink the shards' cut parts assemble in, the
//! peers' leases, and the `Done`/telemetry collection that becomes the run's
//! [`NodeOutcome`]. A [`crate::node::ShardNode`] holds it behind an `Option`,
//! so "am I the coordinator" is a question the type answers.

use std::time::Instant;

use pdes_core::{
    ckpt_round_due, Checkpoint, CkptSink, CutSnapshot, LpId, LpMap, Model, ThreadStats, VirtualTime,
};
use telemetry::TelemetryData;

use crate::detector::FailureDetector;
use crate::gvt::{Coordinator, RoundClosure, ShardReport};
use crate::launcher::DistConfig;
use crate::node::FrameOf;
use crate::proto::Frame;

/// The coordinator's assembled outcome of a whole distributed run.
#[derive(Debug, Clone, Default)]
pub struct NodeOutcome {
    /// Per-shard stats merged into totals.
    pub totals: ThreadStats,
    /// Final per-LP state digests, ascending by LP.
    pub state_digests: Vec<(LpId, u64)>,
    /// XOR-fold of per-shard pending digests.
    pub pending_digest: u64,
    /// GVT rounds completed.
    pub gvt_rounds: u64,
    /// Final published GVT (ticks).
    pub gvt: u64,
    /// Raw-minimum regressions clamped by the coordinator (should be 0).
    pub regressions: u64,
    /// Maximum shards simultaneously parked by demand throttling (lower
    /// bound: folded from per-shard episode counts).
    pub max_parked: u64,
    /// Merged telemetry from every shard (present when tracing was on),
    /// mapped onto the coordinator's clock.
    pub telemetry: Option<TelemetryData>,
}

pub(crate) struct Coord<M: Model> {
    /// Reports in, GVT out.
    pub rounds: Coordinator,
    end_ticks: u64,
    /// Cycles between round starts: the run's `EngineConfig::gvt_interval`.
    gvt_interval: u64,
    /// Arm a checkpoint cut every this many rounds (0 = never).
    ckpt_every_rounds: u64,
    /// Cycle the next round opens at (cycle counters: deterministic in
    /// stepped mode).
    round_due_at: u64,
    /// `(due cycle, round, wave)` of a paced wave re-poll.
    wave_due: Option<(u64, u64, u64)>,
    /// Round the first terminating GVT was published in.
    terminate_round: Option<u64>,
    /// Where the shards' parts of an armed round's cut assemble.
    pub sink: CkptSink<M>,
    /// The armed round being assembled and the GVT it published.
    cut: Option<(u64, u64)>,
    /// Which shards' `Done` has been folded into `folding`, along with the
    /// telemetry each forwarded ahead of it (shifted onto the local clock).
    done: Vec<bool>,
    pub folding: NodeOutcome,
    /// Complete once every shard is done.
    pub outcome: Option<NodeOutcome>,
    pub detector: Option<FailureDetector>,
}

impl<M: Model> Coord<M> {
    pub fn new(n: usize, map: LpMap, ecfg: &pdes_core::EngineConfig, cfg: &DistConfig) -> Coord<M> {
        Coord {
            rounds: Coordinator::new(n),
            end_ticks: ecfg.end_time.ticks(),
            gvt_interval: ecfg.gvt_interval.into(),
            ckpt_every_rounds: cfg.ckpt_every_rounds,
            round_due_at: 0,
            wave_due: None,
            terminate_round: None,
            sink: CkptSink::new(None, map),
            cut: None,
            done: vec![false; n],
            folding: NodeOutcome::default(),
            outcome: None,
            detector: cfg
                .heartbeat
                .clone()
                .map(|hb| FailureDetector::new(hb, n, Instant::now())),
        }
    }

    fn start(&self, round: u64, wave: u64) -> FrameOf<M> {
        Frame::Start {
            round,
            wave,
            armed: self.rounds.armed,
        }
    }

    /// The wave re-poll to broadcast at `cycle`, if one has come due.
    pub fn due_wave(&mut self, cycle: u64) -> Option<FrameOf<M>> {
        let (_, round, wave) = self.wave_due.take_if(|(due, _, _)| cycle >= *due)?;
        Some(self.start(round, wave))
    }

    /// Open the next round if none is in flight and its time has come.
    /// `running` is the coordinator's own shard still simulating; no cut is
    /// armed after that, nor while a restored shard is still re-executing
    /// below the floor — its engine is not yet on any consistent global cut.
    pub fn due_round(&mut self, cycle: u64, running: bool) -> Option<FrameOf<M>> {
        if self.rounds.round.is_some() || cycle < self.round_due_at {
            return None;
        }
        let armed = running
            && !self.rounds.recovering
            && ckpt_round_due(self.ckpt_every_rounds, self.rounds.rounds_done);
        let round = self.rounds.start_round(armed);
        Some(self.start(round, 0))
    }

    /// Absorb a report. When it closes the round: the `Publish` to
    /// broadcast, and whether a `Finish` follows it — a matched round that
    /// started after termination proves the links are drained (nobody
    /// processed during it, so nothing is in flight any more).
    pub fn on_report(
        &mut self,
        round: u64,
        shard: usize,
        rep: ShardReport,
        cycle: u64,
    ) -> Option<(FrameOf<M>, bool)> {
        let gvt = match self.rounds.on_report(round, shard, rep) {
            RoundClosure::Pending => return None,
            RoundClosure::NextWave(wave) => {
                // Pace the re-poll: give late whites a few cycles to land.
                const WAVE_INTERVAL: u64 = 2;
                self.wave_due = Some((cycle + WAVE_INTERVAL, round, wave));
                return None;
            }
            RoundClosure::Publish { gvt } => gvt,
        };
        let drained = self.terminate_round.is_some_and(|tr| round > tr);
        let terminate = gvt >= self.end_ticks;
        if terminate {
            self.terminate_round.get_or_insert(round);
        }
        // A drain round starts immediately, no pacing needed.
        let draining = self.terminate_round.is_some() && !drained;
        self.round_due_at = cycle + if draining { 0 } else { self.gvt_interval };
        let armed = self.rounds.armed;
        if armed {
            self.cut = Some((round, gvt));
        }
        let publish = Frame::Publish {
            round,
            gvt,
            armed,
            terminate,
            // Read *after* the matcher ran: the round that lifts the raw
            // minimum back to the floor clears recovery inline, and its own
            // publish is already a normal one.
            recovering: self.rounds.recovering,
        };
        Some((publish, drained))
    }

    /// One shard's part of the armed round's cut; `Ok(true)` when it
    /// completed the checkpoint. Parts of any other round are stragglers of
    /// an abandoned cut.
    pub fn on_cut_part(
        &mut self,
        round: u64,
        part: CutSnapshot<M::State, M::Payload>,
    ) -> Result<bool, String> {
        let Some((_, gvt)) = self.cut.filter(|(r, _)| *r == round) else {
            return Ok(false);
        };
        let (gvt, rounds) = (VirtualTime::from_ticks(gvt), self.rounds.rounds_done);
        let expected = self.done.len();
        self.sink.deposit(round, gvt, rounds, part, expected, None)
    }

    /// Fold a shard's `Done` into the outcome; the last one completes it.
    pub fn on_done(
        &mut self,
        shard: usize,
        stats: &ThreadStats,
        digests: Vec<(LpId, u64)>,
        pending_digest: u64,
        parked: u64,
    ) -> Result<(), String> {
        if std::mem::replace(&mut self.done[shard], true) {
            return Err(format!("shard {shard} reported Done twice"));
        }
        let out = &mut self.folding;
        out.totals.merge(stats);
        out.state_digests.extend(digests);
        out.pending_digest ^= pending_digest;
        out.max_parked = out.max_parked.max(parked);
        if self.done.iter().all(|&d| d) {
            out.state_digests.sort_by_key(|(lp, _)| *lp);
            out.gvt_rounds = self.rounds.rounds_done;
            out.gvt = self.rounds.gvt;
            out.regressions = self.rounds.regressions;
            self.outcome = Some(std::mem::take(out));
        }
        Ok(())
    }

    /// Resume from a checkpointed cut: the floor and round count continue.
    pub fn restore<S, P>(&mut self, ck: &Checkpoint<S, P>) {
        self.rounds.gvt = ck.gvt.ticks();
        self.rounds.rounds_done = ck.gvt_rounds;
        self.round_due_at = self.gvt_interval;
    }

    /// Partial recovery of the `dead` shards begins at `cycle`: the round
    /// in flight and the cut being assembled are abandoned with them, the
    /// next round is a full interval away, and every lease starts afresh.
    pub fn begin_recovery(&mut self, dead: &[usize], cycle: u64) {
        self.rounds.begin_recovery();
        self.wave_due = None;
        self.cut = None;
        self.round_due_at = cycle + self.gvt_interval;
        self.renew_leases(dead);
    }

    /// See [`FailureDetector::renew`].
    pub fn renew_leases(&mut self, rebuilt: &[usize]) {
        if let Some(d) = &mut self.detector {
            d.renew(rebuilt, Instant::now());
        }
    }
}
