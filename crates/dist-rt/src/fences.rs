//! What keeps a partially restored peer's re-execution away from a
//! survivor's committed past: the round fence that drops round traffic
//! from before the recovery point, and the replay fence that counts but
//! drops its re-sent duplicates. The send log it is replayed from is kept
//! by the shard's `Peers`, which writes it.

pub(crate) struct PeerFences {
    /// Frames carrying a round number below this predate a recovery point
    /// and are dropped (stale Starts/Reports/Publishes/CutParts).
    min_valid_round: u64,
    /// Per peer: a partially restored peer is re-executing below our GVT;
    /// its duplicate sub-GVT messages are counted (for the white-counter
    /// match) but not delivered (we committed them long ago).
    replaying_from: Vec<bool>,
    /// The coordinator's published GVT at the moment partial recovery began.
    /// Publishes propagate asynchronously, so a survivor's own adopted GVT
    /// can lag the coordinator's floor; purging and duplicate-dropping must
    /// both key off the *global* floor or a lagging survivor rolls back into
    /// the committed window and re-sends below the coordinator's GVT.
    recovery_floor: u64,
    /// Per peer: its TCP reader pushed the hang-up sentinel.
    hung_up: Vec<bool>,
}

impl PeerFences {
    pub(crate) fn new(peers: usize) -> PeerFences {
        PeerFences {
            min_valid_round: 0,
            replaying_from: vec![false; peers],
            recovery_floor: 0,
            hung_up: vec![false; peers],
        }
    }

    /// Round traffic of `round` predates the recovery point.
    pub(crate) fn stale(&self, round: u64) -> bool {
        round < self.min_valid_round
    }

    /// A restored peer is still re-executing below the recovery floor.
    pub(crate) fn replaying(&self) -> bool {
        self.replaying_from.contains(&true)
    }

    /// A replaying peer deterministically re-sends what is already fixed
    /// below the recovery floor (or our GVT `gvt`): such a message is
    /// counted but not delivered — the copy we hold is identical by
    /// deterministic re-execution.
    pub(crate) fn replayed(&self, peer: usize, recv_ticks: u64, gvt: u64) -> bool {
        self.replaying_from[peer] && recv_ticks < self.recovery_floor.max(gvt)
    }

    /// The first normal publish after a recovery: the matched round proves
    /// nothing the restored peers re-sent is still in flight.
    pub(crate) fn lift(&mut self) {
        self.replaying_from.fill(false);
        self.recovery_floor = 0;
    }

    pub(crate) fn hang_up(&mut self, peer: usize) {
        self.hung_up[peer] = true;
    }

    /// Each of `peers` has had its TCP reader push the hang-up sentinel.
    pub(crate) fn hangups_seen(&self, peers: &[usize]) -> bool {
        peers.iter().all(|&p| self.hung_up[p])
    }

    /// The `dead` peers restart from a cut: fence their re-execution, drop
    /// round traffic below `first_valid_round`, and raise the recovery
    /// floor to `floor`. Returns the floor.
    pub(crate) fn recover(&mut self, dead: &[usize], first_valid_round: u64, floor: u64) -> u64 {
        for &d in dead {
            self.replaying_from[d] = true;
            self.hung_up[d] = false;
        }
        self.min_valid_round = first_valid_round;
        self.recovery_floor = self.recovery_floor.max(floor);
        self.recovery_floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_from_before_the_recovery_point_is_dropped() {
        let mut f = PeerFences::new(3);
        assert!(!f.stale(0));
        f.recover(&[2], 7, 100);
        assert!(f.stale(6));
        assert!(!f.stale(7));
    }

    #[test]
    fn a_replaying_peer_is_delivered_only_from_the_higher_of_floor_and_gvt() {
        let mut f = PeerFences::new(3);
        assert!(!f.replayed(2, 0, 50), "no peer replays yet");
        assert_eq!(f.recover(&[2], 1, 100), 100);
        assert!(f.replaying());
        // Below the floor, whatever our own GVT: counted, not delivered.
        assert!(f.replayed(2, 99, 40));
        assert!(!f.replayed(2, 100, 40));
        // Our GVT above the floor raises the bar.
        assert!(f.replayed(2, 120, 130));
        assert!(!f.replayed(2, 130, 130));
        // Only the restored peer is fenced.
        assert!(!f.replayed(1, 0, 130));
        // A later recovery never lowers the floor.
        assert_eq!(f.recover(&[1], 2, 60), 100);
    }

    #[test]
    fn the_first_normal_publish_lifts_both_fences() {
        let mut f = PeerFences::new(3);
        f.recover(&[1, 2], 4, 100);
        f.lift();
        assert!(!f.replaying());
        assert!(!f.replayed(2, 10, 0));
        // The floor is gone too: the next recovery starts from its own.
        assert_eq!(f.recover(&[2], 5, 30), 30);
    }
}
