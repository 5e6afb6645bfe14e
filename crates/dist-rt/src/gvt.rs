//! Asynchronous Mattern-style distributed GVT: the shard's half.
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
//! 4. The coordinator (`coord.rs`) matches counters: when every
//!    `white_sent[i][j]` equals `white_recvd[j][i]`, no white message is
//!    still in flight, and `GVT = min over shards of min(pending_min,
//!    late_min)` is safe. Until they match it re-polls with `wave + 1` — the
//!    set of whites is frozen and finite, so the waves converge without
//!    pausing anyone.
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
    /// Per peer: messages sent since the pair was last reset. The epoch
    /// grows by one round per cut and cut rounds strictly increase, so
    /// every one of them is tagged at or below the next cut's round: at
    /// that cut this count *is* the white count.
    sent: Vec<u64>,
    /// Frozen at the wave-0 cut: white messages sent to each peer.
    white_sent: Vec<u64>,
    /// Per peer: arrivals tagged at or below the cut round.
    white_recvd: Vec<u64>,
    /// Per peer, by tag: arrivals tagged above the cut round. They come
    /// from peers that already cut a later round, or reach a restored
    /// shard's fresh tracker from the survivors before its first cut. The
    /// cut that makes them white folds them into `white_recvd`.
    ahead: Vec<BTreeMap<u64, u64>>,
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
            sent: vec![0; num_shards],
            white_sent: vec![0; num_shards],
            white_recvd: vec![0; num_shards],
            ahead: vec![BTreeMap::new(); num_shards],
            pending_min_at_cut: u64::MAX,
            late_min: u64::MAX,
            cut_round: 0,
        }
    }

    /// Record one outgoing message to `peer`; returns the tag to color it
    /// with (the current epoch).
    pub fn note_sent(&mut self, peer: usize) -> u64 {
        self.sent[peer] += 1;
        self.epoch
    }

    /// Record one incoming message from `peer`. A white message arriving
    /// after this round's cut (`tag < epoch`) is a *late white*: fold its
    /// receive time into the round's minimum.
    pub fn note_recvd(&mut self, peer: usize, tag: u64, recv_ticks: u64) {
        if tag <= self.cut_round {
            self.white_recvd[peer] += 1;
        } else {
            *self.ahead[peer].entry(tag).or_insert(0) += 1;
        }
        if tag < self.epoch {
            self.late_min = self.late_min.min(recv_ticks);
        }
    }

    /// Take the wave-0 cut for `round`: advance the epoch, freeze white
    /// send counts and the pending minimum, reset the late fold.
    pub fn take_cut(&mut self, round: u64, pending_min_ticks: u64) {
        // The first cut may be any round (0, or a restored shard's first);
        // after the cut of `r` the epoch is `r + 1`.
        debug_assert!(
            round >= self.epoch,
            "cut rounds strictly increase: round {round} at epoch {}",
            self.epoch
        );
        self.epoch = round + 1;
        self.white_sent.clone_from(&self.sent);
        for (peer, ahead) in self.ahead.iter_mut().enumerate() {
            let later = ahead.split_off(&(round + 1));
            self.white_recvd[peer] += std::mem::replace(ahead, later).values().sum::<u64>();
        }
        self.pending_min_at_cut = pending_min_ticks;
        self.late_min = u64::MAX;
        self.cut_round = round;
    }

    /// Forget every counter shared with `peer` (partial recovery). The
    /// peer was rebuilt from a checkpoint with a fresh tracker, so all
    /// accounting with its old incarnation is void — both sides restart
    /// that pair from zero while every other pair keeps its consistent
    /// history (survivor↔survivor counters stay valid because unacked
    /// frames are retransmitted and counted exactly once on delivery).
    pub fn reset_peer(&mut self, peer: usize) {
        self.sent[peer] = 0;
        self.white_sent[peer] = 0;
        self.white_recvd[peer] = 0;
        self.ahead[peer].clear();
    }

    /// This shard's report for the current round at any wave: the frozen
    /// pending minimum, the running late fold, frozen white sends, and
    /// fresh white receive counts.
    pub fn report(&self) -> (u64, u64, Vec<u64>, Vec<u64>) {
        (
            self.pending_min_at_cut,
            self.late_min,
            self.white_sent.clone(),
            self.white_recvd.clone(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// White counts accumulate across many cuts.
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

    /// The reference tracker: one map of tag → count per peer at each end,
    /// summed over `tag <= cut round` at every cut and report, with tags two
    /// rounds back folded together.
    struct ByTag {
        epoch: u64,
        sent: Vec<BTreeMap<u64, u64>>,
        recvd: Vec<BTreeMap<u64, u64>>,
        white_sent_at_cut: Vec<u64>,
        pending_min_at_cut: u64,
        late_min: u64,
        cut_round: u64,
    }

    impl ByTag {
        fn new(n: usize) -> ByTag {
            ByTag {
                epoch: 0,
                sent: vec![BTreeMap::new(); n],
                recvd: vec![BTreeMap::new(); n],
                white_sent_at_cut: vec![0; n],
                pending_min_at_cut: u64::MAX,
                late_min: u64::MAX,
                cut_round: 0,
            }
        }

        fn note_sent(&mut self, peer: usize) -> u64 {
            *self.sent[peer].entry(self.epoch).or_insert(0) += 1;
            self.epoch
        }

        fn note_recvd(&mut self, peer: usize, tag: u64, recv_ticks: u64) {
            *self.recvd[peer].entry(tag).or_insert(0) += 1;
            if tag < self.epoch {
                self.late_min = self.late_min.min(recv_ticks);
            }
        }

        fn take_cut(&mut self, round: u64, pending_min_ticks: u64) {
            self.epoch = round + 1;
            for (peer, by_tag) in self.sent.iter().enumerate() {
                self.white_sent_at_cut[peer] = by_tag.range(..=round).map(|(_, n)| n).sum();
            }
            self.pending_min_at_cut = pending_min_ticks;
            self.late_min = u64::MAX;
            self.cut_round = round;
            if round >= 2 {
                let horizon = round - 2;
                for m in self.sent.iter_mut().chain(&mut self.recvd) {
                    let tail = m.split_off(&horizon);
                    let folded: u64 = m.values().sum();
                    *m = tail;
                    if folded > 0 {
                        *m.entry(horizon).or_insert(0) += folded;
                    }
                }
            }
        }

        fn reset_peer(&mut self, peer: usize) {
            self.sent[peer].clear();
            self.recvd[peer].clear();
            self.white_sent_at_cut[peer] = 0;
        }

        fn report(&self) -> (u64, u64, Vec<u64>, Vec<u64>) {
            let round = self.cut_round;
            let white_recvd = (self.recvd.iter())
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

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The counting tracker reports exactly what the map-based one does
        /// after every operation. `first` is the round of the first cut: 0
        /// for a shard that starts with the run, higher for a restored
        /// shard's fresh tracker, which meets the survivors' far-ahead tags
        /// before it cuts at all.
        #[test]
        fn counting_tracker_matches_the_map_based_one(
            first in prop_oneof![Just(0u64), 0u64..40],
            ops in prop::collection::vec((0u8..4, 0usize..3, any::<u64>()), 0..120),
        ) {
            let (mut t, mut r) = (GvtTracker::new(3), ByTag::new(3));
            let mut last_cut: Option<u64> = None;
            for (i, &(op, peer, x)) in ops.iter().enumerate() {
                let cut = last_cut.unwrap_or(first);
                match op {
                    0 => prop_assert_eq!(t.note_sent(peer), r.note_sent(peer), "op {}", i),
                    1 => {
                        let (tag, ticks) = (x % (cut + 5), x >> 32);
                        t.note_recvd(peer, tag, ticks);
                        r.note_recvd(peer, tag, ticks);
                    }
                    2 => {
                        let round = last_cut.map_or(first, |c| c + 1 + x % 3);
                        last_cut = Some(round);
                        t.take_cut(round, x >> 40);
                        r.take_cut(round, x >> 40);
                    }
                    _ => {
                        t.reset_peer(peer);
                        r.reset_peer(peer);
                    }
                }
                prop_assert_eq!(t.epoch, r.epoch, "op {}: {:?}", i, ops[i]);
                prop_assert_eq!(t.report(), r.report(), "op {}: {:?}", i, ops[i]);
            }
        }
    }
}
