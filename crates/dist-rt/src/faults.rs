//! Network chaos for the distributed runtime's links: a seeded
//! delay / drop / duplicate plan ([`LinkFaultPlan`], scripted through
//! [`crate::DistConfig::link_faults`]) and the per-directed-link decider
//! ([`LinkFaults`]) a [`crate::ReliableLink`] consults for every outgoing
//! frame.

use pdes_core::rng::{splitmix64, unit_f64};
use serde::{Deserialize, Serialize};

/// Per-link frame delay: an outgoing frame is held in the sender's pump
/// buffer for `1..=max_pumps` pump cycles before transmission.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkDelayFault {
    pub prob: f64,
    pub max_pumps: u32,
}

/// Per-link frame drop. The reliable layer's retransmission recovers the
/// frame (drop-with-retransmit), so `max_drops` bounds how long an unlucky
/// frame can stay lost and keeps runs live.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkDropFault {
    pub prob: f64,
    pub max_drops: u64,
}

/// Per-link frame duplication: the frame is transmitted twice back to back
/// (the receiver's sequence numbers discard the twin).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkDupFault {
    pub prob: f64,
    pub max_dups: u64,
}

/// Network chaos for the distributed runtime's links. Applied on the
/// *sender* side of each directed link, below the reliable seq/ack layer, so
/// every fault is invisible to the engines: frames may arrive late, twice,
/// or only after a retransmission, but the receiver delivers each exactly
/// once and in order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkFaultPlan {
    pub seed: u64,
    pub delay: Option<LinkDelayFault>,
    pub drop: Option<LinkDropFault>,
    pub duplicate: Option<LinkDupFault>,
}

impl LinkFaultPlan {
    pub fn is_active(&self) -> bool {
        self.delay.is_some() || self.drop.is_some() || self.duplicate.is_some()
    }

    /// A moderate all-three plan — what the dist chaos tests enable.
    pub fn chaos(seed: u64) -> Self {
        LinkFaultPlan {
            seed,
            delay: Some(LinkDelayFault {
                prob: 0.10,
                max_pumps: 4,
            }),
            drop: Some(LinkDropFault {
                prob: 0.05,
                max_drops: 512,
            }),
            duplicate: Some(LinkDupFault {
                prob: 0.05,
                max_dups: 512,
            }),
        }
    }
}

/// What to do with one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkAction {
    Deliver,
    /// Skip the transmit; the reliable layer retransmits later.
    Drop,
    /// Transmit twice.
    Duplicate,
    /// Hold for this many pump cycles, then transmit.
    Delay(u32),
}

/// Per-directed-link fault decider. Owned by one link (one sender thread),
/// so unlike [`FaultInjector`](pdes_core::faults::FaultInjector) it needs
/// no atomics; the decision stream is seeded from `(plan.seed, src, dst)`
/// so every link draws independently and a plan replays identically across
/// runs.
#[derive(Debug, Clone)]
pub struct LinkFaults {
    plan: LinkFaultPlan,
    base: u64,
    n: u64,
    drops_left: u64,
    dups_left: u64,
}

impl LinkFaults {
    pub fn new(plan: &LinkFaultPlan, src: usize, dst: usize) -> Self {
        let mut key = plan
            .seed
            .wrapping_add((src as u64 + 1).wrapping_mul(0x9E6D_41D9_4B0E_3C8D))
            .wrapping_add((dst as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D));
        LinkFaults {
            plan: *plan,
            base: splitmix64(&mut key),
            n: 0,
            drops_left: plan.drop.map_or(0, |d| d.max_drops),
            dups_left: plan.duplicate.map_or(0, |d| d.max_dups),
        }
    }

    fn roll(&mut self) -> u64 {
        let mut key = self.base.wrapping_add(self.n);
        self.n += 1;
        splitmix64(&mut key)
    }

    /// Decide the fate of the next outgoing frame.
    pub fn decide(&mut self) -> LinkAction {
        if !self.plan.is_active() {
            return LinkAction::Deliver;
        }
        if let Some(d) = self.plan.drop {
            let hit = unit_f64(self.roll()) < d.prob;
            if hit && self.drops_left > 0 {
                self.drops_left -= 1;
                return LinkAction::Drop;
            }
        }
        if let Some(d) = self.plan.duplicate {
            let hit = unit_f64(self.roll()) < d.prob;
            if hit && self.dups_left > 0 {
                self.dups_left -= 1;
                return LinkAction::Duplicate;
            }
        }
        if let Some(d) = self.plan.delay {
            if unit_f64(self.roll()) < d.prob && d.max_pumps > 0 {
                let pumps = 1 + (self.roll() % u64::from(d.max_pumps)) as u32;
                return LinkAction::Delay(pumps);
            }
        }
        LinkAction::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_faults_are_deterministic_per_link() {
        let plan = LinkFaultPlan::chaos(7);
        let mut a = LinkFaults::new(&plan, 0, 1);
        let mut b = LinkFaults::new(&plan, 0, 1);
        let da: Vec<LinkAction> = (0..256).map(|_| a.decide()).collect();
        let db: Vec<LinkAction> = (0..256).map(|_| b.decide()).collect();
        assert_eq!(da, db);
        // The reverse direction draws a different stream.
        let mut c = LinkFaults::new(&plan, 1, 0);
        let dc: Vec<LinkAction> = (0..256).map(|_| c.decide()).collect();
        assert_ne!(da, dc);
        // Something actually fired.
        assert!(da.iter().any(|x| *x != LinkAction::Deliver));
    }

    #[test]
    fn link_fault_budgets_bound_drops_and_dups() {
        let plan = LinkFaultPlan {
            seed: 5,
            delay: None,
            drop: Some(LinkDropFault {
                prob: 1.0,
                max_drops: 3,
            }),
            duplicate: Some(LinkDupFault {
                prob: 1.0,
                max_dups: 2,
            }),
        };
        let mut lf = LinkFaults::new(&plan, 0, 1);
        let acts: Vec<LinkAction> = (0..100).map(|_| lf.decide()).collect();
        assert_eq!(acts.iter().filter(|a| **a == LinkAction::Drop).count(), 3);
        assert_eq!(
            acts.iter().filter(|a| **a == LinkAction::Duplicate).count(),
            2
        );
    }

    #[test]
    fn link_delay_is_bounded_by_max_pumps() {
        let plan = LinkFaultPlan {
            seed: 9,
            delay: Some(LinkDelayFault {
                prob: 1.0,
                max_pumps: 4,
            }),
            drop: None,
            duplicate: None,
        };
        let mut lf = LinkFaults::new(&plan, 2, 3);
        for _ in 0..100 {
            match lf.decide() {
                LinkAction::Delay(p) => assert!((1..=4).contains(&p)),
                other => panic!("expected Delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn disabled_link_faults_always_deliver() {
        let mut lf = LinkFaults::new(&LinkFaultPlan::default(), 0, 1);
        assert!((0..64).all(|_| lf.decide() == LinkAction::Deliver));
    }
}
