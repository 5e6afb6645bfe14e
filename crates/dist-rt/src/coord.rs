//! Everything only the coordinator (shard 0) keeps: the GVT round (Mattern's
//! counter match over the shards' reports, the published floor, recovery
//! mode), round pacing, the checkpoint sink the shards' cut parts assemble in, the
//! peers' leases, and the `Done`/telemetry collection that becomes the run's
//! [`NodeOutcome`]. A [`crate::node::ShardNode`] holds it behind an `Option`,
//! so "am I the coordinator" is a question the type answers.

use pdes_core::{
    ckpt_round_due, Checkpoint, CkptSink, CutSnapshot, LpId, LpMap, Model, ThreadStats, VirtualTime,
};
use telemetry::TelemetryData;

use crate::detector::FailureDetector;
use crate::gvt::ShardReport;
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
    end_ticks: u64,
    /// Cycles between round starts: the run's `EngineConfig::gvt_interval`.
    gvt_interval: u64,
    /// Arm a checkpoint cut every this many rounds (0 = never).
    ckpt_every_rounds: u64,
    /// Round currently in flight, if any, and its current wave.
    round: Option<u64>,
    wave: u64,
    /// Whether the in-flight round takes a checkpoint cut on publish.
    armed: bool,
    /// Each shard's report for the current wave.
    reports: Vec<Option<ShardReport>>,
    /// The number the next opened round gets.
    next_round: u64,
    /// Last published GVT (ticks) — the monotonic floor.
    gvt: u64,
    /// Completed rounds.
    rounds_done: u64,
    /// Times the raw minimum came in below the published floor (clamped).
    regressions: u64,
    /// Recovery mode: a partially restored shard is re-executing below the
    /// published floor, so sub-floor minima are *expected* — they clamp
    /// without counting as regressions, rounds publish `recovering`, and
    /// the mode ends the first time the raw minimum reaches the floor
    /// again (the restored shard has caught up; nothing in flight is below
    /// the floor any more).
    recovering: bool,
    /// Cycle the next round opens at (cycle counters: deterministic in
    /// stepped mode).
    round_due_at: u64,
    /// Cycle a paced re-poll of the in-flight round's current wave is due.
    wave_due: Option<u64>,
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
            end_ticks: ecfg.end_time.ticks(),
            gvt_interval: ecfg.gvt_interval.into(),
            ckpt_every_rounds: cfg.ckpt_every_rounds,
            round: None,
            wave: 0,
            armed: false,
            reports: vec![None; n],
            next_round: 0,
            gvt: 0,
            rounds_done: 0,
            regressions: 0,
            recovering: false,
            round_due_at: 0,
            wave_due: None,
            terminate_round: None,
            sink: CkptSink::new(None, map),
            cut: None,
            done: vec![false; n],
            folding: NodeOutcome::default(),
            outcome: None,
            // Leases start with the shard clock, at 0.
            detector: cfg
                .heartbeat
                .clone()
                .map(|hb| FailureDetector::new(hb, n, 0)),
        }
    }

    /// The `Start` of the in-flight round's current wave.
    fn start(&self) -> Option<FrameOf<M>> {
        Some(Frame::Start {
            round: self.round?,
            wave: self.wave,
            armed: self.armed,
        })
    }

    /// The number the next opened round will get — the supervisor fences
    /// recovery with it (the survivors' round fence): any frame carrying an
    /// older round number predates the recovery point and must be ignored.
    pub fn upcoming_round(&self) -> u64 {
        self.next_round
    }

    /// The wave re-poll to broadcast at `cycle`, if one has come due.
    pub fn due_wave(&mut self, cycle: u64) -> Option<FrameOf<M>> {
        self.wave_due.take_if(|due| cycle >= *due)?;
        self.start()
    }

    /// Open the next round if none is in flight and its time has come.
    /// `running` is the coordinator's own shard still simulating; no cut is
    /// armed after that, nor while a restored shard is still re-executing
    /// below the floor — its engine is not yet on any consistent global cut.
    pub fn due_round(&mut self, cycle: u64, running: bool) -> Option<FrameOf<M>> {
        if self.round.is_some() || cycle < self.round_due_at {
            return None;
        }
        self.armed =
            running && !self.recovering && ckpt_round_due(self.ckpt_every_rounds, self.rounds_done);
        self.round = Some(self.next_round);
        self.next_round += 1;
        self.wave = 0;
        self.reports.fill(None);
        self.start()
    }

    /// Absorb a report (stale rounds and waves are ignored). When every
    /// shard has reported the wave and the white counters match, the round
    /// closes: the `Publish` to broadcast, and whether a `Finish` follows
    /// it — a matched round that started after termination proves the
    /// links are drained (nobody processed during it, so nothing is in
    /// flight any more). Unmatched counters re-poll with the next wave.
    pub fn on_report(
        &mut self,
        round: u64,
        shard: usize,
        rep: ShardReport,
        cycle: u64,
    ) -> Option<(FrameOf<M>, bool)> {
        if self.round != Some(round) || rep.wave != self.wave {
            return None;
        }
        self.reports[shard] = Some(rep);
        let reps: Vec<&ShardReport> = self
            .reports
            .iter()
            .map(Option::as_ref)
            .collect::<Option<_>>()?;
        let n = reps.len();
        let matched = (0..n)
            .all(|i| (0..n).all(|j| i == j || reps[i].white_sent[j] == reps[j].white_recvd[i]));
        if !matched {
            // Pace the re-poll: give late whites a few cycles to land.
            const WAVE_INTERVAL: u64 = 2;
            self.wave += 1;
            self.reports.fill(None);
            self.wave_due = Some(cycle + WAVE_INTERVAL);
            return None;
        }
        let raw = reps
            .iter()
            .map(|r| r.pending_min.min(r.late_min))
            .min()
            .expect("n >= 1");
        if raw < self.gvt {
            if !self.recovering {
                self.regressions += 1;
            }
        } else {
            self.gvt = raw;
            self.recovering = false;
        }
        self.round = None;
        self.rounds_done += 1;
        let gvt = self.gvt;
        let drained = self.terminate_round.is_some_and(|tr| round > tr);
        let terminate = gvt >= self.end_ticks;
        if terminate {
            self.terminate_round.get_or_insert(round);
        }
        // A drain round starts immediately, no pacing needed.
        let draining = self.terminate_round.is_some() && !drained;
        self.round_due_at = cycle + if draining { 0 } else { self.gvt_interval };
        if self.armed {
            self.cut = Some((round, gvt));
        }
        let publish = Frame::Publish {
            round,
            // A recovering round tells the shards the raw minimum below it.
            gvt: if self.recovering { raw } else { gvt },
            armed: self.armed,
            terminate,
            // The round that lifts the raw minimum back to the floor clears
            // recovery above, and its own publish is already a normal one.
            recovering: self.recovering,
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
        let (gvt, rounds) = (VirtualTime::from_ticks(gvt), self.rounds_done);
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
            out.gvt_rounds = self.rounds_done;
            out.gvt = self.gvt;
            out.regressions = self.regressions;
            self.outcome = Some(std::mem::take(out));
        }
        Ok(())
    }

    /// Resume from a checkpointed cut: the floor and round count continue.
    pub fn restore<S, P>(&mut self, ck: &Checkpoint<S, P>) {
        self.gvt = ck.gvt.ticks();
        self.rounds_done = ck.gvt_rounds;
        self.round_due_at = self.gvt_interval;
    }

    /// Partial recovery of the `dead` shards begins at `cycle` (`now_ns` on
    /// the shard clock): the round in flight (its reports are gone with
    /// their old incarnations) and the cut being assembled are abandoned
    /// with them, sub-floor minima are expected until the restored shards
    /// catch up, the next round is a full interval away, and every lease
    /// starts afresh. Round numbering and the published floor continue.
    pub fn begin_recovery(&mut self, dead: &[usize], cycle: u64, now_ns: u64) {
        self.round = None;
        self.recovering = true;
        self.wave_due = None;
        self.cut = None;
        self.round_due_at = cycle + self.gvt_interval;
        self.renew_leases(dead, now_ns);
    }

    /// See [`FailureDetector::renew`].
    pub fn renew_leases(&mut self, rebuilt: &[usize], now_ns: u64) {
        if let Some(d) = &mut self.detector {
            d.renew(rebuilt, now_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::Phold;
    use pdes_core::{EngineConfig, MapKind};

    fn coord(n: usize) -> Coord<Phold> {
        let map = LpMap::new(n, n, MapKind::RoundRobin);
        Coord::new(n, map, &EngineConfig::default(), &DistConfig::default())
    }

    /// Open the next round, however it is paced; returns its number.
    fn open(c: &mut Coord<Phold>) -> u64 {
        let Some(Frame::Start { round, wave: 0, .. }) = c.due_round(1 << 40, false) else {
            panic!("no round opened");
        };
        round
    }

    fn rep(wave: u64, pmin: u64, late: u64, sent: Vec<u64>, recvd: Vec<u64>) -> ShardReport {
        ShardReport {
            wave,
            pending_min: pmin,
            late_min: late,
            white_sent: sent,
            white_recvd: recvd,
        }
    }

    /// The GVT a closing report publishes; `None` while the round is open.
    fn published(closed: Option<(FrameOf<Phold>, bool)>) -> Option<u64> {
        closed.map(|(frame, _)| match frame {
            Frame::Publish { gvt, .. } => gvt,
            other => panic!("want a Publish, got {other:?}"),
        })
    }

    #[test]
    fn matched_counters_publish_the_min() {
        let mut c = coord(2);
        let r = open(&mut c);
        let out = c.on_report(r, 0, rep(0, 100, u64::MAX, vec![0, 3], vec![0, 2]), 0);
        assert_eq!(published(out), None);
        let out = c.on_report(r, 1, rep(0, 80, 95, vec![2, 0], vec![3, 0]), 0);
        assert_eq!(published(out), Some(80));
        assert_eq!(c.rounds_done, 1);
    }

    #[test]
    fn unmatched_counters_go_to_next_wave_then_converge() {
        let mut c = coord(2);
        let r = open(&mut c);
        // Shard 1 has only seen 2 of shard 0's 3 whites.
        c.on_report(r, 0, rep(0, 100, u64::MAX, vec![0, 3], vec![0, 0]), 10);
        let out = c.on_report(r, 1, rep(0, 50, u64::MAX, vec![0, 0], vec![2, 0]), 10);
        assert_eq!(published(out), None);
        assert_eq!(c.wave, 1);
        // The re-poll is paced: exactly 2 cycles later, and only once.
        assert!(c.due_wave(11).is_none());
        let Some(Frame::Start { round, wave, .. }) = c.due_wave(12) else {
            panic!("no re-poll at cycle 12");
        };
        assert_eq!((round, wave), (r, 1));
        assert!(c.due_wave(13).is_none());
        // Wave 1: the straggler white arrived late with timestamp 40.
        c.on_report(r, 0, rep(1, 100, u64::MAX, vec![0, 3], vec![0, 0]), 12);
        let out = c.on_report(r, 1, rep(1, 50, 40, vec![0, 0], vec![3, 0]), 12);
        assert_eq!(published(out), Some(40));
    }

    #[test]
    fn published_gvt_never_regresses() {
        let mut c = coord(1);
        let r = open(&mut c);
        let out = c.on_report(r, 0, rep(0, 100, u64::MAX, vec![0], vec![0]), 0);
        assert_eq!(published(out), Some(100));
        let r = open(&mut c);
        let out = c.on_report(r, 0, rep(0, 90, u64::MAX, vec![0], vec![0]), 0);
        assert_eq!(published(out), Some(100), "floor must hold");
        assert_eq!(c.regressions, 1);
    }

    #[test]
    fn recovery_mode_clamps_without_regressions_and_ends_at_the_floor() {
        let mut c = coord(1);
        let r = open(&mut c);
        c.on_report(r, 0, rep(0, 100, u64::MAX, vec![0], vec![0]), 0);
        assert_eq!(c.gvt, 100);
        c.begin_recovery(&[], 0, 0);
        assert!(c.recovering);
        assert!(c.round.is_none(), "in-flight round abandoned");
        // The restored shard reports sub-floor minima: the floor never
        // regresses and nothing counts as a regression, while each
        // recovering publish carries the raw minimum the shards collect at.
        for pmin in [40, 60, 95] {
            let r = open(&mut c);
            let out = c.on_report(r, 0, rep(0, pmin, u64::MAX, vec![0], vec![0]), 0);
            assert_eq!(published(out), Some(pmin));
            assert_eq!(c.gvt, 100, "the floor holds");
            assert!(c.recovering, "still below the floor at {pmin}");
        }
        assert_eq!(c.regressions, 0);
        // Catching up to (or past) the floor ends recovery.
        let r = open(&mut c);
        let out = c.on_report(r, 0, rep(0, 120, u64::MAX, vec![0], vec![0]), 0);
        assert_eq!(published(out), Some(120));
        assert!(!c.recovering);
        // Sub-floor minima after recovery count as regressions again.
        let r = open(&mut c);
        c.on_report(r, 0, rep(0, 10, u64::MAX, vec![0], vec![0]), 0);
        assert_eq!(c.regressions, 1);
    }

    #[test]
    fn begin_recovery_keeps_round_numbering_monotone() {
        let mut c = coord(2);
        let r0 = open(&mut c);
        // Round in flight when the failure hits; only shard 0 reported.
        c.on_report(r0, 0, rep(0, 10, u64::MAX, vec![0, 0], vec![0, 0]), 0);
        c.begin_recovery(&[1], 0, 0);
        assert_eq!(c.upcoming_round(), r0 + 1);
        let r1 = open(&mut c);
        assert!(r1 > r0, "rounds never reuse a number");
        assert_eq!(c.wave, 0);
    }

    #[test]
    fn stale_wave_reports_are_ignored() {
        let mut c = coord(2);
        let r = open(&mut c);
        c.on_report(r, 0, rep(0, 10, u64::MAX, vec![0, 1], vec![0, 0]), 0);
        c.on_report(r, 1, rep(0, 10, u64::MAX, vec![0, 0], vec![0, 0]), 0); // → wave 1
        assert_eq!(c.wave, 1);
        // A late wave-0 report must not count toward wave 1.
        let out = c.on_report(r, 0, rep(0, 10, u64::MAX, vec![0, 1], vec![0, 0]), 0);
        assert_eq!(published(out), None);
        assert!(c.reports.iter().all(|x| x.is_none()));
    }
}
