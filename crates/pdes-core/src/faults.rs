//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes a set of adversarial behaviours to superimpose
//! on a runtime's message plane and scheduling primitives:
//!
//! * **delay** — straggler delivery: messages are held back (kept
//!   queue-resident) for extra drain cycles before the engine sees them;
//! * **reorder** — drained batches are permuted before delivery, so events
//!   reach the engine out of timestamp order;
//! * **straggler** — the *minimum*-timestamp message of a drain is held back
//!   while later ones deliver, manufacturing the low-timestamp stragglers
//!   that trigger rollback storms;
//! * **wakeup** — scheduling wake-ups are lost (an activation's `sem_post`
//!   is skipped) or spuriously duplicated (a parked thread is posted without
//!   being activated);
//! * **backpressure** — input queues behave as bounded: a sender whose
//!   destination queue is over capacity retries with backoff before pushing
//!   (messages are never dropped);
//! * **kills** — scripted worker death ([`FaultKind::WorkerKill`]): a named
//!   thread dies at a given work-cycle count, exercising the checkpoint /
//!   restore / supervision path end to end.
//!
//! The first three perturb only *delivery order and timing*; Time Warp must
//! absorb them and still commit exactly the sequential oracle's trace. Lost
//! wake-ups break liveness by design — they exist to exercise the GVT
//! liveness watchdog, which must convert the resulting hang into a
//! structured [`crate::StallDump`] instead of a frozen process.
//!
//! Every decision is derived from a seeded counter stream (splitmix64 over
//! `(seed, site, sequence-number)`), so a plan replays identically on the
//! deterministic virtual machine and draws from fixed per-site streams on
//! real threads. A default (empty) plan is completely inert: the injector
//! holds no state and every hook reduces to one branch on a `None`.

use crate::event::Msg;
use crate::ids::EventUid;
use crate::rng::{splitmix64, unit_f64};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// `true` when two messages in `batch` share an [`EventUid`] — i.e. the
/// batch carries a causally ordered pair such as an anti-message and its
/// re-sent positive twin (cancel-then-resend travels the same sender→receiver
/// channel, so their relative order is part of the delivery contract even
/// under network chaos). Fault filters must never reorder such a pair:
/// shuffling skips these batches, and deferral holds back the whole
/// same-uid suffix together.
fn batch_has_uid_pairs<P>(batch: &[Msg<P>]) -> bool {
    if batch.len() < 2 {
        return false;
    }
    let mut uids: Vec<EventUid> = batch.iter().map(|m| m.key().uid).collect();
    uids.sort_unstable();
    uids.windows(2).any(|w| w[0] == w[1])
}

/// The chaos drain every runtime's input queue goes through: per-message
/// deferral, a bounded straggler hold-back of the batch minimum, and
/// adversarial shuffling.
///
/// `batch` holds the freshly dequeued messages in arrival order and `hold`
/// the messages the previous drain held back. On return `batch` is what the
/// engine receives now and `hold` what waits for the next drain. The caller
/// keeps `hold` inside its queue-length and queue-minimum accounting, so GVT
/// covers a held message exactly as if it had never left the queue.
///
/// Held messages redeliver unconditionally, at the *front* of the batch:
/// they are older than anything still queued, and they take no second
/// deferral roll, so a message waits at most one drain per decision (only a
/// straggler storm, bounded by its budget, can hold one again).
///
/// Per-uid FIFO is the one ordering contract chaos must respect (the
/// pending set tolerates any interleaving *between* uids; an anti-message
/// and its re-sent positive twin may never swap): once one message of a uid
/// is deferred, every later same-uid message of the batch defers with it; a
/// straggler hold drags later same-uid companions along and skips uids that
/// already have a deferred member (holding the earlier member now would
/// slot it *behind* the later one); batches containing a same-uid pair are
/// never shuffled.
pub fn chaos_filter<P>(
    faults: &FaultInjector,
    batch: &mut Vec<Msg<P>>,
    hold: &mut VecDeque<Msg<P>>,
) {
    let fresh = std::mem::replace(batch, Vec::from(std::mem::take(hold)));
    let mut deferred: Vec<EventUid> = Vec::new();
    for m in fresh {
        let uid = m.key().uid;
        if deferred.contains(&uid) || faults.defer_delivery() {
            deferred.push(uid);
            hold.push_back(m);
        } else {
            batch.push(m);
        }
    }
    // Straggler storm: hold back the minimum-timestamp message while the
    // rest of its batch delivers, so it later arrives in the destination's
    // past and forces a rollback.
    if batch.len() > 1 {
        let min_at = (0..batch.len())
            .filter(|&i| !deferred.contains(&batch[i].key().uid))
            .min_by_key(|&i| batch[i].recv_time().ticks());
        if let Some(min_at) = min_at.filter(|_| faults.straggler_hold()) {
            let uid = batch[min_at].key().uid;
            let mut i = min_at;
            while i < batch.len() {
                if batch[i].key().uid == uid {
                    hold.push_back(batch.remove(i));
                } else {
                    i += 1;
                }
            }
        }
    }
    if !batch_has_uid_pairs(batch) {
        faults.shuffle_batch(batch);
    }
}

/// Straggler delivery delay: each drained message is independently held
/// back (re-queued) with probability `prob`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayFault {
    pub prob: f64,
}

/// Adversarial reordering: each drained batch is shuffled with probability
/// `prob` before delivery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReorderFault {
    pub prob: f64,
}

/// Forced low-timestamp stragglers: with probability `prob` per drain, the
/// minimum-timestamp message is held back while its batch delivers, up to
/// `max_storms` times per run (bounded so runs still terminate).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StragglerFault {
    pub prob: f64,
    pub max_storms: u64,
}

/// Lost / spurious thread wake-ups at the scheduling semaphores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WakeupFault {
    /// Probability that an activation's wake-up post is skipped.
    pub lose_prob: f64,
    /// Probability of posting a parked thread that was *not* activated.
    pub spurious_prob: f64,
    /// Upper bound on lost wake-ups per run.
    pub max_lost: u64,
}

/// Bounded-queue backpressure on send.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackpressureFault {
    /// Queue depth above which a sender backs off.
    pub capacity: usize,
    /// Retries (with escalating backoff) before pushing anyway.
    pub max_retries: u32,
}

/// A scripted catastrophic fault. Unlike the probabilistic faults these are
/// *scheduled*: each entry fires exactly once per injector lifetime, which
/// keeps kill-and-recover runs fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Worker `thread` dies once it has executed `at_cycle` work cycles
    /// (on real threads: a panic in the worker loop; on the virtual machine:
    /// a simulated task death). Fires at most once.
    WorkerKill { thread: usize, at_cycle: u64 },
}

/// A complete, serde-configurable chaos plan. The default plan is empty and
/// injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    pub seed: u64,
    pub delay: Option<DelayFault>,
    pub reorder: Option<ReorderFault>,
    pub straggler: Option<StragglerFault>,
    pub wakeup: Option<WakeupFault>,
    pub backpressure: Option<BackpressureFault>,
    /// Scripted catastrophic faults (worker kills). `None` ≡ empty.
    pub kills: Option<Vec<FaultKind>>,
}

impl FaultPlan {
    /// Does this plan inject anything at all?
    pub fn is_active(&self) -> bool {
        self.delay.is_some()
            || self.reorder.is_some()
            || self.straggler.is_some()
            || self.wakeup.is_some()
            || self.backpressure.is_some()
            || self.kills.as_ref().is_some_and(|k| !k.is_empty())
    }

    /// A moderate all-safe plan (delay + reorder + straggler storms, no
    /// liveness faults) — what `--chaos-seed` enables.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay: Some(DelayFault { prob: 0.05 }),
            reorder: Some(ReorderFault { prob: 0.25 }),
            straggler: Some(StragglerFault {
                prob: 0.02,
                max_storms: 64,
            }),
            wakeup: None,
            backpressure: Some(BackpressureFault {
                capacity: 4096,
                max_retries: 8,
            }),
            kills: None,
        }
    }

    /// Add a scripted worker kill to the plan.
    pub fn with_kill(mut self, thread: usize, at_cycle: u64) -> Self {
        self.kills
            .get_or_insert_with(Vec::new)
            .push(FaultKind::WorkerKill { thread, at_cycle });
        self
    }
}

/// Decision sites; each draws from its own counter stream so adding a hook
/// never shifts another site's sequence.
#[derive(Debug, Clone, Copy)]
#[repr(usize)]
enum Site {
    Delay = 0,
    Reorder = 1,
    Straggler = 2,
    Lose = 3,
    Spurious = 4,
}
const NUM_SITES: usize = 5;

/// Counts of injections actually performed (observability for tests and the
/// CLI's chaos report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    pub delayed: u64,
    pub reordered: u64,
    pub stragglers: u64,
    pub lost_wakeups: u64,
    pub spurious_wakeups: u64,
    pub backpressure_retries: u64,
    /// Scripted worker kills fired.
    pub kills: u64,
}

/// Resumable position of an injector's decision state: per-site stream
/// positions, remaining budgets, and which scripted kills already fired.
/// Stored inside a [`crate::checkpoint::Checkpoint`] so a restored run
/// replays the *remaining* chaos rather than starting the plan over (which
/// would, e.g., re-fire a kill forever).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCursor {
    /// Per-site decision-stream positions, indexed by `Site`.
    pub seq: Vec<u64>,
    pub storms_left: u64,
    pub lost_left: u64,
    /// `fired` flag per entry of the plan's `kills` list.
    pub kills_fired: Vec<bool>,
}

struct FaultState {
    plan: FaultPlan,
    seq: [AtomicU64; NUM_SITES],
    storms_left: AtomicU64,
    lost_left: AtomicU64,
    kills: Vec<FaultKind>,
    kills_fired: Vec<AtomicU64>,
    counts: [AtomicU64; 7],
}

/// The runtime hook object built from a [`FaultPlan`]. Shareable across
/// threads; all decision state is atomic. When built from an empty plan it
/// carries no state and every hook is a single `None` branch.
pub struct FaultInjector {
    state: Option<Box<FaultState>>,
}

impl FaultInjector {
    /// An inert injector (every hook is a no-op).
    pub fn disabled() -> Self {
        FaultInjector { state: None }
    }

    /// Build the injector for `plan`; an empty plan yields a disabled one.
    pub fn new(plan: FaultPlan) -> Self {
        if !plan.is_active() {
            return Self::disabled();
        }
        let storms = plan.straggler.map_or(0, |s| s.max_storms);
        let lost = plan.wakeup.map_or(0, |w| w.max_lost);
        let kills = plan.kills.clone().unwrap_or_default();
        let kills_fired = kills.iter().map(|_| AtomicU64::new(0)).collect();
        FaultInjector {
            state: Some(Box::new(FaultState {
                plan,
                seq: Default::default(),
                storms_left: AtomicU64::new(storms),
                lost_left: AtomicU64::new(lost),
                kills,
                kills_fired,
                counts: Default::default(),
            })),
        }
    }

    /// Build the injector for `plan` resumed at `cursor` (from a
    /// checkpoint): decision streams continue where they left off, budgets
    /// keep their remaining allowance, and already-fired kills stay fired.
    pub(crate) fn with_cursor(plan: FaultPlan, cursor: &FaultCursor) -> Self {
        let inj = Self::new(plan);
        if let Some(st) = &inj.state {
            for (i, s) in st.seq.iter().enumerate() {
                s.store(cursor.seq.get(i).copied().unwrap_or(0), Ordering::Relaxed);
            }
            st.storms_left.store(cursor.storms_left, Ordering::Relaxed);
            st.lost_left.store(cursor.lost_left, Ordering::Relaxed);
            for (i, fired) in st.kills_fired.iter().enumerate() {
                if cursor.kills_fired.get(i).copied().unwrap_or(false) {
                    fired.store(1, Ordering::Relaxed);
                }
            }
        }
        inj
    }

    /// Snapshot the injector's resumable position (for a checkpoint).
    /// `None` when the injector is disabled.
    pub fn cursor(&self) -> Option<FaultCursor> {
        let st = self.state.as_ref()?;
        Some(FaultCursor {
            seq: st.seq.iter().map(|s| s.load(Ordering::Relaxed)).collect(),
            storms_left: st.storms_left.load(Ordering::Relaxed),
            lost_left: st.lost_left.load(Ordering::Relaxed),
            kills_fired: st
                .kills_fired
                .iter()
                .map(|f| f.load(Ordering::Relaxed) != 0)
                .collect(),
        })
    }

    /// Mark the first unconsumed kill targeting `thread` as fired, so a
    /// supervised restart does not re-trigger the same scripted death.
    /// Returns whether an entry was consumed.
    pub(crate) fn consume_kill(&self, thread: usize) -> bool {
        let Some(st) = &self.state else { return false };
        for (k, fired) in st.kills.iter().zip(&st.kills_fired) {
            let FaultKind::WorkerKill { thread: t, .. } = *k;
            if t == thread && fired.swap(1, Ordering::Relaxed) == 0 {
                return true;
            }
        }
        false
    }

    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Next value of `site`'s decision stream.
    fn roll(st: &FaultState, site: Site) -> u64 {
        let n = st.seq[site as usize].fetch_add(1, Ordering::Relaxed);
        let mut key = st
            .plan
            .seed
            .wrapping_add((site as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F))
            .wrapping_add(n);
        splitmix64(&mut key)
    }

    fn bump(st: &FaultState, idx: usize, by: u64) {
        st.counts[idx].fetch_add(by, Ordering::Relaxed);
    }

    /// Should this drained message be held back for a later drain?
    #[inline]
    pub(crate) fn defer_delivery(&self) -> bool {
        let Some(st) = &self.state else { return false };
        let Some(d) = st.plan.delay else { return false };
        let hit = unit_f64(Self::roll(st, Site::Delay)) < d.prob;
        if hit {
            Self::bump(st, 0, 1);
        }
        hit
    }

    /// Should the minimum-timestamp message of this drain be held back
    /// (straggler storm)? Bounded by the plan's `max_storms`.
    #[inline]
    pub(crate) fn straggler_hold(&self) -> bool {
        let Some(st) = &self.state else { return false };
        let Some(s) = st.plan.straggler else {
            return false;
        };
        if unit_f64(Self::roll(st, Site::Straggler)) >= s.prob {
            return false;
        }
        // Claim one unit of the storm budget.
        let mut left = st.storms_left.load(Ordering::Relaxed);
        while left > 0 {
            match st.storms_left.compare_exchange_weak(
                left,
                left - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    Self::bump(st, 2, 1);
                    return true;
                }
                Err(cur) => left = cur,
            }
        }
        false
    }

    /// Adversarially permute a drained batch (Fisher–Yates from the reorder
    /// stream) with the plan's probability. Returns whether it shuffled.
    #[inline]
    pub(crate) fn shuffle_batch<T>(&self, batch: &mut [T]) -> bool {
        let Some(st) = &self.state else { return false };
        let Some(r) = st.plan.reorder else {
            return false;
        };
        if batch.len() < 2 || unit_f64(Self::roll(st, Site::Reorder)) >= r.prob {
            return false;
        }
        for i in (1..batch.len()).rev() {
            let j = (Self::roll(st, Site::Reorder) % (i as u64 + 1)) as usize;
            batch.swap(i, j);
        }
        Self::bump(st, 1, 1);
        true
    }

    /// Should this activation wake-up post be dropped? Bounded by
    /// `max_lost`.
    #[inline]
    pub(crate) fn lose_wakeup(&self) -> bool {
        let Some(st) = &self.state else { return false };
        let Some(w) = st.plan.wakeup else {
            return false;
        };
        if unit_f64(Self::roll(st, Site::Lose)) >= w.lose_prob {
            return false;
        }
        let mut left = st.lost_left.load(Ordering::Relaxed);
        while left > 0 {
            match st.lost_left.compare_exchange_weak(
                left,
                left - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    Self::bump(st, 3, 1);
                    return true;
                }
                Err(cur) => left = cur,
            }
        }
        false
    }

    /// Should a parked-but-not-activated thread receive a spurious post?
    #[inline]
    pub(crate) fn spurious_wakeup(&self) -> bool {
        let Some(st) = &self.state else { return false };
        let Some(w) = st.plan.wakeup else {
            return false;
        };
        let hit = unit_f64(Self::roll(st, Site::Spurious)) < w.spurious_prob;
        if hit {
            Self::bump(st, 4, 1);
        }
        hit
    }

    /// Should worker `thread` die now, having completed `cycle` work
    /// cycles? Each scripted kill fires at most once per injector lifetime
    /// (restores carry the fired flags forward via [`FaultCursor`]).
    #[inline]
    pub fn should_kill(&self, thread: usize, cycle: u64) -> bool {
        let Some(st) = &self.state else { return false };
        if st.kills.is_empty() {
            return false;
        }
        for (k, fired) in st.kills.iter().zip(&st.kills_fired) {
            let FaultKind::WorkerKill {
                thread: t,
                at_cycle,
            } = *k;
            if t == thread && cycle >= at_cycle && fired.swap(1, Ordering::Relaxed) == 0 {
                Self::bump(st, 6, 1);
                return true;
            }
        }
        false
    }

    /// The bounded-queue parameters, if backpressure is configured.
    #[inline]
    pub fn backpressure(&self) -> Option<BackpressureFault> {
        self.state.as_ref()?.plan.backpressure
    }

    /// Record `n` backpressure retry waits (the send loop performs the
    /// actual backoff; the injector only keeps the tally).
    #[inline]
    pub fn note_backpressure_retries(&self, n: u64) {
        if let Some(st) = &self.state {
            Self::bump(st, 5, n);
        }
    }

    /// Injections performed so far.
    pub fn counts(&self) -> FaultCounts {
        match &self.state {
            None => FaultCounts::default(),
            Some(st) => FaultCounts {
                delayed: st.counts[0].load(Ordering::Relaxed),
                reordered: st.counts[1].load(Ordering::Relaxed),
                stragglers: st.counts[2].load(Ordering::Relaxed),
                lost_wakeups: st.counts[3].load(Ordering::Relaxed),
                spurious_wakeups: st.counts[4].load(Ordering::Relaxed),
                backpressure_retries: st.counts[5].load(Ordering::Relaxed),
                kills: st.counts[6].load(Ordering::Relaxed),
            },
        }
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.state {
            None => f.write_str("FaultInjector(disabled)"),
            Some(st) => f
                .debug_struct("FaultInjector")
                .field("plan", &st.plan)
                .field("counts", &self.counts())
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            delay: Some(DelayFault { prob: 0.5 }),
            reorder: Some(ReorderFault { prob: 0.5 }),
            straggler: Some(StragglerFault {
                prob: 0.5,
                max_storms: 10,
            }),
            wakeup: Some(WakeupFault {
                lose_prob: 0.5,
                spurious_prob: 0.5,
                max_lost: 7,
            }),
            backpressure: Some(BackpressureFault {
                capacity: 8,
                max_retries: 3,
            }),
            kills: Some(vec![FaultKind::WorkerKill {
                thread: 1,
                at_cycle: 50,
            }]),
        }
    }

    #[test]
    fn a_plan_naming_link_partition_is_refused_and_kills_round_trip() {
        // Link faults are scripted through `dist_rt::DistConfig`; a plan that
        // names one here is an error, not a fault silently dropped.
        let err = serde_json::from_str::<FaultPlan>(
            r#"{"seed": 1, "kills": [{"LinkPartition": {"from": 0, "to": 1, "for_rounds": 4}}]}"#,
        )
        .expect_err("LinkPartition is not a FaultKind");
        assert!(err.to_string().contains("unknown variant"), "{err}");
        let plan = FaultPlan::default().with_kill(1, 10).with_kill(2, 20);
        let json = serde_json::to_string(&plan).unwrap();
        assert_eq!(serde_json::from_str::<FaultPlan>(&json).unwrap(), plan);
    }

    #[test]
    fn disabled_injector_is_inert() {
        let inj = FaultInjector::new(FaultPlan::default());
        assert!(!inj.is_enabled());
        assert!(!inj.defer_delivery());
        assert!(!inj.straggler_hold());
        assert!(!inj.lose_wakeup());
        assert!(!inj.spurious_wakeup());
        let mut v = vec![3, 1, 2];
        assert!(!inj.shuffle_batch(&mut v));
        assert_eq!(v, vec![3, 1, 2]);
        assert!(inj.backpressure().is_none());
        assert_eq!(inj.counts(), FaultCounts::default());
    }

    #[test]
    fn decision_streams_are_deterministic() {
        let a = FaultInjector::new(full_plan(42));
        let b = FaultInjector::new(full_plan(42));
        for _ in 0..200 {
            assert_eq!(a.defer_delivery(), b.defer_delivery());
            assert_eq!(a.lose_wakeup(), b.lose_wakeup());
            assert_eq!(a.spurious_wakeup(), b.spurious_wakeup());
            let mut va: Vec<u32> = (0..8).collect();
            let mut vb: Vec<u32> = (0..8).collect();
            a.shuffle_batch(&mut va);
            b.shuffle_batch(&mut vb);
            assert_eq!(va, vb);
        }
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjector::new(full_plan(1));
        let b = FaultInjector::new(full_plan(2));
        let da: Vec<bool> = (0..64).map(|_| a.defer_delivery()).collect();
        let db: Vec<bool> = (0..64).map(|_| b.defer_delivery()).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn budgets_are_bounded() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 3,
            straggler: Some(StragglerFault {
                prob: 1.0,
                max_storms: 5,
            }),
            wakeup: Some(WakeupFault {
                lose_prob: 1.0,
                spurious_prob: 0.0,
                max_lost: 4,
            }),
            ..FaultPlan::default()
        });
        let storms = (0..100).filter(|_| inj.straggler_hold()).count();
        let lost = (0..100).filter(|_| inj.lose_wakeup()).count();
        assert_eq!(storms, 5);
        assert_eq!(lost, 4);
        let c = inj.counts();
        assert_eq!(c.stragglers, 5);
        assert_eq!(c.lost_wakeups, 4);
    }

    #[test]
    fn probabilities_roughly_hold() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 99,
            delay: Some(DelayFault { prob: 0.3 }),
            ..FaultPlan::default()
        });
        let hits = (0..10_000).filter(|_| inj.defer_delivery()).count();
        assert!((2_500..3_500).contains(&hits), "got {hits}");
    }

    #[test]
    fn plan_serde_round_trips() {
        let p = full_plan(0xC0FFEE);
        let j = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&j).unwrap();
        assert_eq!(back, p);
        // Missing optional sections deserialize to None.
        let sparse: FaultPlan =
            serde_json::from_str(r#"{"seed": 7, "delay": {"prob": 0.1}}"#).unwrap();
        assert_eq!(sparse.seed, 7);
        assert!(sparse.delay.is_some());
        assert!(sparse.wakeup.is_none());
        assert!(sparse.is_active());
    }

    #[test]
    fn a_misspelt_key_is_refused_by_name() {
        let err = serde_json::from_str::<FaultPlan>(r#"{"seed":1,"dealy":{"prob":0.1}}"#)
            .expect_err("`dealy` is not a FaultPlan section");
        assert!(err.to_string().contains("unknown field `dealy`"), "{err}");
        // Inside a section and inside a kill variant alike.
        for json in [
            r#"{"seed":1,"delay":{"probability":0.1}}"#,
            r#"{"seed":1,"kills":[{"WorkerKill":{"thread":1,"at":5}}]}"#,
        ] {
            let err = serde_json::from_str::<FaultPlan>(json).expect_err(json);
            assert!(err.to_string().contains("unknown field"), "{err}");
        }
    }

    #[test]
    fn scripted_kill_fires_once_at_cycle() {
        let plan = FaultPlan::default().with_kill(2, 100);
        assert!(plan.is_active());
        let inj = FaultInjector::new(plan);
        assert!(!inj.should_kill(2, 99), "not yet due");
        assert!(!inj.should_kill(1, 500), "wrong thread");
        assert!(inj.should_kill(2, 100), "due now");
        assert!(!inj.should_kill(2, 101), "fires at most once");
        assert_eq!(inj.counts().kills, 1);
    }

    #[test]
    fn cursor_resumes_streams_budgets_and_kills() {
        let plan = full_plan(0xFEED);
        let a = FaultInjector::new(plan.clone());
        // Burn some decisions and budget, and fire the kill.
        for _ in 0..37 {
            a.defer_delivery();
            a.straggler_hold();
            a.lose_wakeup();
        }
        assert!(a.should_kill(1, 50));
        let cur = a.cursor().expect("enabled injector has a cursor");

        // A resumed twin must continue exactly where `a` is...
        let b = FaultInjector::with_cursor(plan.clone(), &cur);
        for _ in 0..64 {
            assert_eq!(a.defer_delivery(), b.defer_delivery());
            assert_eq!(a.straggler_hold(), b.straggler_hold());
            assert_eq!(a.lose_wakeup(), b.lose_wakeup());
        }
        // ...and the already-fired kill stays fired.
        assert!(!b.should_kill(1, 500));

        // A fresh injector from the same plan, by contrast, re-fires it.
        let fresh = FaultInjector::new(plan);
        assert!(fresh.should_kill(1, 500));
    }

    #[test]
    fn consume_kill_marks_first_matching_entry() {
        let plan = FaultPlan::default().with_kill(0, 10).with_kill(0, 10);
        let inj = FaultInjector::new(plan);
        assert!(inj.consume_kill(0), "first entry consumed");
        assert!(inj.should_kill(0, 10), "second entry still live");
        assert!(!inj.should_kill(0, 10), "both spent");
        assert!(!inj.consume_kill(0), "nothing left to consume");
        assert!(!inj.consume_kill(3), "no such thread in the plan");
    }

    #[test]
    fn cursor_serde_round_trips() {
        let plan = full_plan(11);
        let inj = FaultInjector::new(plan);
        for _ in 0..13 {
            inj.defer_delivery();
        }
        inj.should_kill(1, 64);
        let cur = inj.cursor().unwrap();
        let j = serde_json::to_string(&cur).unwrap();
        let back: FaultCursor = serde_json::from_str(&j).unwrap();
        assert_eq!(back, cur);
        // One flag per scripted entry.
        assert_eq!(back.kills_fired, vec![true]);
    }
}
