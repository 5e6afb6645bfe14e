//! Heartbeat/lease failure detection, run by the coordinator over the
//! existing reliable links. Workers beacon [`crate::proto::Frame::Heartbeat`]
//! on their shard clock's cadence; the coordinator treats *any* inbound
//! packet as life. Suspicion is phi-style: a peer whose silence exceeds
//! `PHI_THRESHOLD` (8) times its mean inter-arrival gap is suspected (reset
//! on the next arrival); only a full lease expiry (`interval *
//! miss_threshold` of silence) declares it dead. The time is passed in (ns
//! on the coordinator's shard clock): the detector reads no clock itself.

use std::time::Duration;

/// Suspect (but don't kill) a peer whose silence exceeds this multiple of
/// its mean inter-arrival gap.
const PHI_THRESHOLD: f64 = 8.0;

/// Cadence and lease of the failure detector.
#[derive(Debug, Clone)]
pub struct HeartbeatConfig {
    /// Cadence of worker heartbeats on the shard clock.
    pub interval: Duration,
    /// Declare a peer dead after this many intervals of silence.
    pub miss_threshold: u32,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_millis(25),
            miss_threshold: 40,
        }
    }
}

/// What one audit of a peer's lease found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lease {
    Live,
    /// The silence just became phi-anomalous (reported once per silence).
    Suspect,
    /// Silent for this long — the whole lease.
    Expired(Duration),
}

/// Per-peer leases and arrival statistics.
#[derive(Debug)]
pub struct FailureDetector {
    cfg: HeartbeatConfig,
    /// Clock reading (ns) of each peer's last packet.
    last_heard: Vec<u64>,
    /// EWMA of inter-arrival gaps in ns (0 = no sample yet).
    mean_ns: Vec<f64>,
    suspected: Vec<bool>,
}

impl FailureDetector {
    pub fn new(cfg: HeartbeatConfig, peers: usize, now: u64) -> FailureDetector {
        FailureDetector {
            cfg,
            last_heard: vec![now; peers],
            mean_ns: vec![0.0; peers],
            suspected: vec![false; peers],
        }
    }

    /// A packet from `peer` arrived: renew its lease, clear suspicion.
    pub fn heard(&mut self, peer: usize, now: u64) {
        let gap_ns = now.saturating_sub(self.last_heard[peer]) as f64;
        self.last_heard[peer] = now;
        self.mean_ns[peer] = if self.mean_ns[peer] > 0.0 {
            0.9 * self.mean_ns[peer] + 0.1 * gap_ns
        } else {
            gap_ns
        };
        self.suspected[peer] = false;
    }

    /// Audit `peer`'s lease at `now`.
    pub fn audit(&mut self, peer: usize, now: u64) -> Lease {
        let silent = Duration::from_nanos(now.saturating_sub(self.last_heard[peer]));
        let mean_ns = if self.mean_ns[peer] > 0.0 {
            self.mean_ns[peer]
        } else {
            self.cfg.interval.as_nanos() as f64
        };
        let phi = silent.as_nanos() as f64 / mean_ns.max(10_000.0);
        if phi > PHI_THRESHOLD && !self.suspected[peer] {
            self.suspected[peer] = true;
            return Lease::Suspect;
        }
        if silent >= self.cfg.interval * self.cfg.miss_threshold {
            return Lease::Expired(silent);
        }
        Lease::Live
    }

    /// Fresh leases for every peer — time the supervisor spent between
    /// runs is not peer silence — and no arrival history for the `rebuilt`
    /// ones, whose new incarnations owe nothing to the old cadence.
    pub fn renew(&mut self, rebuilt: &[usize], now: u64) {
        self.last_heard.fill(now);
        for &p in rebuilt {
            self.mean_ns[p] = 0.0;
            self.suspected[p] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One millisecond on the hand-driven clock, in nanoseconds.
    const MS: u64 = 1_000_000;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// 10 ms beacons, dead after 100 missed (a 1 s lease), suspected past
    /// `PHI_THRESHOLD` = 8 mean gaps; the clock starts at `t0`.
    fn detector(t0: u64) -> FailureDetector {
        let cfg = HeartbeatConfig {
            interval: ms(10),
            miss_threshold: 100,
        };
        FailureDetector::new(cfg, 3, t0)
    }

    #[test]
    fn any_packet_renews_the_lease_and_clears_suspicion() {
        let t0 = 7 * MS;
        let mut d = detector(t0);
        // No sample yet: the configured interval stands in for the mean gap.
        assert_eq!(d.audit(1, t0 + 80 * MS), Lease::Live);
        assert_eq!(d.audit(1, t0 + 81 * MS), Lease::Suspect);
        d.heard(1, t0 + 85 * MS);
        // 681 ms after that packet (mean gap 85 ms) the silence is anomalous
        // again — suspicion went with the arrival — but the lease taken at
        // t0 has not run out at 1000 ms: it was renewed at 85.
        assert_eq!(d.audit(1, t0 + 766 * MS), Lease::Suspect);
        assert_eq!(d.audit(1, t0 + 1001 * MS), Lease::Live);
        assert_eq!(d.audit(1, t0 + 1085 * MS), Lease::Expired(ms(1000)));
        // Peer 2 never spoke and is judged on its own clock.
        assert_eq!(d.audit(2, t0 + 81 * MS), Lease::Suspect);
        assert_eq!(d.audit(2, t0 + 1001 * MS), Lease::Expired(ms(1001)));
    }

    #[test]
    fn a_phi_crossing_suspects_exactly_once_per_silence() {
        let t0 = 0;
        let mut d = detector(t0);
        for k in 1..=4 {
            d.heard(1, t0 + k * 4 * MS); // steady 4 ms cadence
        }
        let last = t0 + 16 * MS;
        assert_eq!(d.audit(1, last + 32 * MS), Lease::Live, "phi = 8 exactly");
        assert_eq!(d.audit(1, last + 33 * MS), Lease::Suspect);
        assert_eq!(d.audit(1, last + 34 * MS), Lease::Live, "reported once");
        // A 35 ms gap lifts the mean to 7.1 ms: anomalous past 56.8 ms.
        d.heard(1, last + 35 * MS);
        assert_eq!(d.audit(1, last + 35 * MS + 56 * MS), Lease::Live);
        assert_eq!(d.audit(1, last + 35 * MS + 57 * MS), Lease::Suspect);
    }

    #[test]
    fn a_full_lease_of_silence_declares_the_peer_dead() {
        let t0 = 3 * MS;
        let mut d = detector(t0);
        assert_eq!(d.audit(1, t0 + 90 * MS), Lease::Suspect);
        assert_eq!(d.audit(1, t0 + 1000 * MS - 1), Lease::Live);
        assert_eq!(d.audit(1, t0 + 1000 * MS), Lease::Expired(ms(1000)));
    }

    #[test]
    fn leases_are_fresh_after_a_recovery() {
        let t0 = 0;
        let mut d = detector(t0);
        for k in 1..=4 {
            d.heard(1, t0 + k * MS); // 1 ms cadence: a 9 ms silence is anomalous
            d.heard(2, t0 + k * MS);
        }
        assert_eq!(d.audit(1, t0 + 45 * MS), Lease::Suspect);
        // The supervisor spent 100 ms rebuilding peer 1.
        let t1 = t0 + 104 * MS;
        d.renew(&[1], t1);
        // Nobody is charged for that time...
        assert_eq!(d.audit(1, t1 + 20 * MS), Lease::Live);
        assert_eq!(d.audit(2, t1 + MS), Lease::Live);
        // ...the rebuilt peer is back on the configured cadence, unsuspected,
        // while the survivor keeps its 1 ms history.
        assert_eq!(d.audit(1, t1 + 81 * MS), Lease::Suspect);
        assert_eq!(d.audit(2, t1 + 9 * MS), Lease::Suspect);
    }
}
