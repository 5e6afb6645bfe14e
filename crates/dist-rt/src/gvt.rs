//! Asynchronous Mattern-style distributed GVT.
//!
//! Each message crosses the mesh colored with its sender's **epoch** (the
//! `tag` on [`crate::proto::Frame::SimBatch`] entries). A GVT round `r` works like this:
//!
//! 1. The coordinator (shard 0) broadcasts `Start{round: r, wave: 0}`.
//! 2. On wave 0 each shard takes its *cut*: it bumps its epoch to `r + 1`,
//!    freezes its per-peer count of **white** messages sent (`tag <= r`),
//!    freezes its pending minimum, and resets its late-white fold. It keeps
//!    simulating — the cut is a bookkeeping instant, not a barrier.
//! 3. Every wave the shard reports: the frozen pending minimum and white
//!    send counts, the running fold of **late whites** (white messages that
//!    arrived after the cut — their timestamps are exactly the in-flight
//!    messages Mattern's invariant must cover), and its *fresh* per-peer
//!    white receive counts.
//! 4. The coordinator matches counters: when every `white_sent[i][j]`
//!    equals `white_recvd[j][i]`, no white message is still in flight, and
//!    `GVT = min over shards of min(pending_min, late_min)` is safe. Until
//!    they match it re-polls with `wave + 1` — the set of whites is frozen
//!    and finite, so the waves converge without pausing anyone.
//!
//! Red messages (`tag > r`) were sent by post-cut processing, which is
//! rooted in events that were pending (or late-white) at the cut — their
//! timestamps are bounded below by the reported minima, the classic
//! Mattern argument, which Time Warp preserves because rollbacks only
//! reinsert events at or above the triggering message's timestamp, and
//! anti-messages travel (and are counted) like any other message.

use std::collections::BTreeMap;

/// Per-shard GVT bookkeeping: epoch coloring and white counters.
#[derive(Debug)]
pub struct GvtTracker {
    /// This shard's current epoch; outgoing messages are tagged with it.
    pub epoch: u64,
    /// Per peer: tag → messages sent with that tag.
    sent_by_tag: Vec<BTreeMap<u64, u64>>,
    /// Per peer: tag → messages received with that tag.
    recvd_by_tag: Vec<BTreeMap<u64, u64>>,
    /// Frozen at the wave-0 cut: white messages sent to each peer.
    white_sent_at_cut: Vec<u64>,
    /// Frozen at the wave-0 cut: this engine's pending minimum (ticks).
    pending_min_at_cut: u64,
    /// Fold of receive times of whites that arrived after the cut (ticks).
    late_min: u64,
    /// The round the current cut belongs to.
    cut_round: u64,
}

impl GvtTracker {
    pub fn new(num_shards: usize) -> GvtTracker {
        GvtTracker {
            epoch: 0,
            sent_by_tag: vec![BTreeMap::new(); num_shards],
            recvd_by_tag: vec![BTreeMap::new(); num_shards],
            white_sent_at_cut: vec![0; num_shards],
            pending_min_at_cut: u64::MAX,
            late_min: u64::MAX,
            cut_round: 0,
        }
    }

    /// Record one outgoing message to `peer`; returns the tag to color it
    /// with (the current epoch).
    pub fn note_sent(&mut self, peer: usize) -> u64 {
        let tag = self.epoch;
        *self.sent_by_tag[peer].entry(tag).or_insert(0) += 1;
        tag
    }

    /// Record one incoming message from `peer`. A white message arriving
    /// after this round's cut (`tag < epoch`) is a *late white*: fold its
    /// receive time into the round's minimum.
    pub fn note_recvd(&mut self, peer: usize, tag: u64, recv_ticks: u64) {
        *self.recvd_by_tag[peer].entry(tag).or_insert(0) += 1;
        if tag < self.epoch {
            self.late_min = self.late_min.min(recv_ticks);
        }
    }

    /// Take the wave-0 cut for `round`: advance the epoch, freeze white
    /// send counts and the pending minimum, reset the late fold.
    pub fn take_cut(&mut self, round: u64, pending_min_ticks: u64) {
        self.epoch = round + 1;
        for (peer, by_tag) in self.sent_by_tag.iter().enumerate() {
            self.white_sent_at_cut[peer] = by_tag.range(..=round).map(|(_, n)| n).sum();
        }
        self.pending_min_at_cut = pending_min_ticks;
        self.late_min = u64::MAX;
        self.cut_round = round;
        // Tags two rounds back can never matter again: every white of an
        // older round was provably delivered when that round closed.
        if round >= 2 {
            let horizon = round - 2;
            for m in self.sent_by_tag.iter_mut().chain(&mut self.recvd_by_tag) {
                let tail = m.split_off(&horizon);
                let folded: u64 = m.values().sum();
                *m = tail;
                if folded > 0 {
                    *m.entry(horizon).or_insert(0) += folded;
                }
            }
        }
    }

    /// Forget every counter shared with `peer` (partial recovery). The
    /// peer was rebuilt from a checkpoint with a fresh tracker, so all
    /// accounting with its old incarnation is void — both sides restart
    /// that pair from zero while every other pair keeps its consistent
    /// history (survivor↔survivor counters stay valid because unacked
    /// frames are retransmitted and counted exactly once on delivery).
    pub fn reset_peer(&mut self, peer: usize) {
        self.sent_by_tag[peer].clear();
        self.recvd_by_tag[peer].clear();
        self.white_sent_at_cut[peer] = 0;
    }

    /// This shard's report for the current round at any wave: the frozen
    /// pending minimum, the running late fold, frozen white sends, and
    /// fresh white receive counts.
    pub fn report(&self) -> (u64, u64, Vec<u64>, Vec<u64>) {
        let round = self.cut_round;
        let white_recvd: Vec<u64> = self
            .recvd_by_tag
            .iter()
            .map(|by_tag| by_tag.range(..=round).map(|(_, n)| n).sum())
            .collect();
        (
            self.pending_min_at_cut,
            self.late_min,
            self.white_sent_at_cut.clone(),
            white_recvd,
        )
    }
}

/// One shard's latest report within a round.
#[derive(Debug, Clone)]
pub struct ShardReport {
    pub wave: u64,
    pub pending_min: u64,
    pub late_min: u64,
    pub white_sent: Vec<u64>,
    pub white_recvd: Vec<u64>,
}

/// What the coordinator decides after absorbing a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundClosure {
    /// Not every shard has reported the current wave yet.
    Pending,
    /// All reported but counters disagree: re-poll with this wave number.
    NextWave(u64),
    /// Counters matched: publish this GVT (ticks).
    Publish { gvt: u64 },
}

/// The coordinator side (lives on shard 0): collects reports, matches the
/// white counters, and derives the round's GVT.
#[derive(Debug)]
pub struct Coordinator {
    n: usize,
    /// Round currently in flight, if any.
    pub round: Option<u64>,
    /// Current wave of the in-flight round.
    pub wave: u64,
    /// Whether the in-flight round takes a checkpoint cut on publish.
    pub armed: bool,
    reports: Vec<Option<ShardReport>>,
    /// Last published GVT (ticks) — the monotonic floor.
    pub gvt: u64,
    /// Completed rounds.
    pub rounds_done: u64,
    /// Times the raw minimum came in below the published floor (clamped).
    pub regressions: u64,
    /// Recovery mode: a partially restored shard is re-executing below the
    /// published floor, so sub-floor minima are *expected* — they clamp
    /// without counting as regressions, rounds publish `recovering`, and
    /// the mode ends the first time the raw minimum reaches the floor
    /// again (the restored shard has caught up; nothing in flight is below
    /// the floor any more).
    pub recovering: bool,
    next_round: u64,
}

impl Coordinator {
    pub fn new(n: usize) -> Coordinator {
        Coordinator {
            n,
            round: None,
            wave: 0,
            armed: false,
            reports: vec![None; n],
            gvt: 0,
            rounds_done: 0,
            regressions: 0,
            recovering: false,
            next_round: 0,
        }
    }

    /// Enter recovery mode after a partial restore: abandon any in-flight
    /// round (its reports are gone with the dead shard's old incarnation)
    /// and expect sub-floor minima until the restored shard catches up.
    /// Round numbering and the published floor continue monotonically.
    pub fn begin_recovery(&mut self) {
        self.round = None;
        self.wave = 0;
        self.armed = false;
        self.reports = vec![None; self.n];
        self.recovering = true;
    }

    /// The number the next opened round will get — the supervisor fences
    /// recovery with it (`min_valid_round`): any frame carrying an older
    /// round number predates the recovery point and must be ignored.
    pub fn upcoming_round(&self) -> u64 {
        self.next_round
    }

    /// Open the next round; returns its number. Panics if one is in flight.
    pub fn start_round(&mut self, armed: bool) -> u64 {
        assert!(self.round.is_none(), "round already in flight");
        let r = self.next_round;
        self.next_round += 1;
        self.round = Some(r);
        self.wave = 0;
        self.armed = armed;
        self.reports = vec![None; self.n];
        r
    }

    /// Absorb one shard's report (stale rounds/waves are ignored) and try
    /// to close the round.
    pub fn on_report(&mut self, round: u64, shard: usize, rep: ShardReport) -> RoundClosure {
        if self.round != Some(round) || rep.wave != self.wave {
            return RoundClosure::Pending;
        }
        self.reports[shard] = Some(rep);
        self.try_close()
    }

    fn try_close(&mut self) -> RoundClosure {
        if self.reports.iter().any(|r| r.is_none()) {
            return RoundClosure::Pending;
        }
        let reps: Vec<&ShardReport> = self.reports.iter().map(|r| r.as_ref().unwrap()).collect();
        let matched = (0..self.n).all(|i| {
            (0..self.n).all(|j| i == j || reps[i].white_sent[j] == reps[j].white_recvd[i])
        });
        if !matched {
            self.wave += 1;
            for r in &mut self.reports {
                *r = None;
            }
            return RoundClosure::NextWave(self.wave);
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
        RoundClosure::Publish { gvt: self.gvt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wave: u64, pmin: u64, late: u64, sent: Vec<u64>, recvd: Vec<u64>) -> ShardReport {
        ShardReport {
            wave,
            pending_min: pmin,
            late_min: late,
            white_sent: sent,
            white_recvd: recvd,
        }
    }

    #[test]
    fn matched_counters_publish_the_min() {
        let mut c = Coordinator::new(2);
        let r = c.start_round(false);
        assert_eq!(
            c.on_report(r, 0, rep(0, 100, u64::MAX, vec![0, 3], vec![0, 2])),
            RoundClosure::Pending
        );
        let out = c.on_report(r, 1, rep(0, 80, 95, vec![2, 0], vec![3, 0]));
        assert_eq!(out, RoundClosure::Publish { gvt: 80 });
        assert_eq!(c.rounds_done, 1);
    }

    #[test]
    fn unmatched_counters_go_to_next_wave_then_converge() {
        let mut c = Coordinator::new(2);
        let r = c.start_round(false);
        // Shard 1 has only seen 2 of shard 0's 3 whites.
        c.on_report(r, 0, rep(0, 100, u64::MAX, vec![0, 3], vec![0, 0]));
        let out = c.on_report(r, 1, rep(0, 50, u64::MAX, vec![0, 0], vec![2, 0]));
        assert_eq!(out, RoundClosure::NextWave(1));
        // Wave 1: the straggler white arrived late with timestamp 40.
        c.on_report(r, 0, rep(1, 100, u64::MAX, vec![0, 3], vec![0, 0]));
        let out = c.on_report(r, 1, rep(1, 50, 40, vec![0, 0], vec![3, 0]));
        assert_eq!(out, RoundClosure::Publish { gvt: 40 });
    }

    #[test]
    fn published_gvt_never_regresses() {
        let mut c = Coordinator::new(1);
        let r = c.start_round(false);
        assert_eq!(
            c.on_report(r, 0, rep(0, 100, u64::MAX, vec![0], vec![0])),
            RoundClosure::Publish { gvt: 100 }
        );
        let r = c.start_round(false);
        assert_eq!(
            c.on_report(r, 0, rep(0, 90, u64::MAX, vec![0], vec![0])),
            RoundClosure::Publish { gvt: 100 },
            "floor must hold"
        );
        assert_eq!(c.regressions, 1);
    }

    #[test]
    fn recovery_mode_clamps_without_regressions_and_ends_at_the_floor() {
        let mut c = Coordinator::new(1);
        let r = c.start_round(false);
        c.on_report(r, 0, rep(0, 100, u64::MAX, vec![0], vec![0]));
        assert_eq!(c.gvt, 100);
        c.begin_recovery();
        assert!(c.recovering);
        assert!(c.round.is_none(), "in-flight round abandoned");
        // The restored shard reports sub-floor minima: clamped, published
        // GVT never regresses, nothing counted as a regression.
        for pmin in [40, 60, 95] {
            let r = c.start_round(false);
            assert_eq!(
                c.on_report(r, 0, rep(0, pmin, u64::MAX, vec![0], vec![0])),
                RoundClosure::Publish { gvt: 100 }
            );
            assert!(c.recovering, "still below the floor at {pmin}");
        }
        assert_eq!(c.regressions, 0);
        // Catching up to (or past) the floor ends recovery.
        let r = c.start_round(false);
        assert_eq!(
            c.on_report(r, 0, rep(0, 120, u64::MAX, vec![0], vec![0])),
            RoundClosure::Publish { gvt: 120 }
        );
        assert!(!c.recovering);
        // Sub-floor minima after recovery count as regressions again.
        let r = c.start_round(false);
        c.on_report(r, 0, rep(0, 10, u64::MAX, vec![0], vec![0]));
        assert_eq!(c.regressions, 1);
    }

    #[test]
    fn begin_recovery_keeps_round_numbering_monotone() {
        let mut c = Coordinator::new(2);
        let r0 = c.start_round(false);
        // Round in flight when the failure hits; only shard 0 reported.
        c.on_report(r0, 0, rep(0, 10, u64::MAX, vec![0, 0], vec![0, 0]));
        c.begin_recovery();
        let r1 = c.start_round(false);
        assert!(r1 > r0, "rounds never reuse a number");
        assert_eq!(c.wave, 0);
    }

    #[test]
    fn stale_wave_reports_are_ignored() {
        let mut c = Coordinator::new(2);
        let r = c.start_round(false);
        c.on_report(r, 0, rep(0, 10, u64::MAX, vec![0, 1], vec![0, 0]));
        c.on_report(r, 1, rep(0, 10, u64::MAX, vec![0, 0], vec![0, 0])); // → wave 1
        assert_eq!(c.wave, 1);
        // A late wave-0 report must not count toward wave 1.
        assert_eq!(
            c.on_report(r, 0, rep(0, 10, u64::MAX, vec![0, 1], vec![0, 0])),
            RoundClosure::Pending
        );
        assert!(c.reports.iter().all(|x| x.is_none()));
    }

    #[test]
    fn tracker_cut_freezes_whites_and_folds_late_arrivals() {
        let mut t = GvtTracker::new(2);
        assert_eq!(t.note_sent(1), 0);
        assert_eq!(t.note_sent(1), 0);
        t.note_recvd(1, 0, 500);
        // Cut for round 0: epoch 0 → 1; the two tag-0 sends are white.
        t.take_cut(0, 300);
        assert_eq!(t.epoch, 1);
        let (pmin, late, sent, recvd) = t.report();
        assert_eq!((pmin, late), (300, u64::MAX));
        assert_eq!(sent, vec![0, 2]);
        assert_eq!(recvd, vec![0, 1]);
        // A tag-0 message arriving now is a late white.
        t.note_recvd(1, 0, 250);
        let (_, late, _, recvd) = t.report();
        assert_eq!(late, 250);
        assert_eq!(recvd, vec![0, 2]);
        // Sends after the cut are red (tag 1): invisible to round 0.
        assert_eq!(t.note_sent(1), 1);
        let (_, _, sent, _) = t.report();
        assert_eq!(sent, vec![0, 2]);
    }

    #[test]
    fn tag_pruning_preserves_white_counts() {
        let mut t = GvtTracker::new(1);
        for round in 0..10 {
            for _ in 0..3 {
                t.note_sent(0);
                t.note_recvd(0, round, 1000);
            }
            t.take_cut(round, 1000);
        }
        let (_, _, sent, recvd) = t.report();
        assert_eq!(sent, vec![30]);
        assert_eq!(recvd, vec![30]);
    }
}
