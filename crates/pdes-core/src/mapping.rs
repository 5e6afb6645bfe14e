//! LP-to-thread mapping.
//!
//! ROSS maps LPs to simulation threads round-robin (`lp % num_threads`);
//! a block mapping (`lp / lps_per_thread`) is provided for experiments that
//! need contiguous LP blocks per thread. The mapping is immutable for the
//! lifetime of a simulation *run* — the engines under study do
//! *demand-driven scheduling of threads onto cores*, not LP migration.
//! Recovery is the one exception: when a worker dies, the supervisor
//! restarts the run from a checkpoint under a new map built by
//! [`LpMap::rebalanced_without`], which folds the dead thread's LPs onto the
//! survivors via an explicit assignment table.

use crate::ids::{LpId, SimThreadId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Mapping strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum MapKind {
    /// `thread = lp % num_threads` (ROSS default; paper §2.2).
    #[default]
    RoundRobin,
    /// `thread = lp / ceil(num_lps / num_threads)`.
    Block,
}

/// Immutable LP → thread map.
///
/// Normally a pure function of `(num_lps, num_threads, kind)`. After a
/// recovery the map instead carries an explicit per-LP assignment table
/// (`assign`), which overrides `kind` — this is how a dead worker's LPs are
/// folded onto the survivors without disturbing the formula-based fast path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LpMap {
    pub num_lps: u32,
    pub num_threads: u32,
    pub kind: MapKind,
    /// Explicit owner per LP (`assign[lp] = thread`); `None` for the
    /// formula-based maps. Shared so clones handed to every engine stay
    /// cheap.
    pub assign: Option<Arc<Vec<u32>>>,
}

impl LpMap {
    pub fn new(num_lps: usize, num_threads: usize, kind: MapKind) -> Self {
        assert!(num_lps > 0, "need at least one LP");
        assert!(num_threads > 0, "need at least one thread");
        assert!(
            num_lps >= num_threads,
            "fewer LPs ({num_lps}) than threads ({num_threads})"
        );
        LpMap {
            num_lps: num_lps as u32,
            num_threads: num_threads as u32,
            kind,
            assign: None,
        }
    }

    /// Build a map from an explicit per-LP owner table. Every thread in
    /// `0..num_threads` must own at least one LP.
    pub fn with_assignment(num_threads: usize, assign: Vec<u32>) -> Self {
        assert!(!assign.is_empty(), "need at least one LP");
        assert!(num_threads > 0, "need at least one thread");
        let mut owned = vec![false; num_threads];
        for (lp, &t) in assign.iter().enumerate() {
            assert!(
                (t as usize) < num_threads,
                "LP {lp} assigned to out-of-range thread {t}"
            );
            owned[t as usize] = true;
        }
        assert!(
            owned.iter().all(|&o| o),
            "every thread must own at least one LP"
        );
        LpMap {
            num_lps: assign.len() as u32,
            num_threads: num_threads as u32,
            kind: MapKind::RoundRobin,
            assign: Some(Arc::new(assign)),
        }
    }

    /// Derive the map a recovered run uses after thread `dead` is removed:
    /// survivors keep their LPs (re-indexed past the gap) and the dead
    /// thread's LPs go greedily to the least-loaded survivor. `load[t]` is a
    /// relative work estimate per *old* thread id (e.g. committed-event
    /// counts); zeros are fine.
    ///
    /// # Panics
    /// Panics if this map has fewer than two threads — there is no survivor
    /// to remap onto.
    pub fn rebalanced_without(&self, dead: SimThreadId, load: &[u64]) -> LpMap {
        let old_n = self.num_threads as usize;
        assert!(old_n >= 2, "cannot remap with no surviving thread");
        assert!(dead.index() < old_n, "dead thread {dead} out of range");
        let new_id = |old: u32| -> u32 {
            if old > dead.0 {
                old - 1
            } else {
                old
            }
        };
        let mut assign = vec![0u32; self.num_lps as usize];
        let mut moved = Vec::new();
        for lp in (0..self.num_lps).map(LpId) {
            let owner = self.thread_of(lp);
            if owner == dead {
                moved.push(lp);
            } else {
                assign[lp.index()] = new_id(owner.0);
            }
        }
        // Greedy least-loaded placement of the orphaned LPs. Each placed LP
        // adds the dead thread's mean per-LP load (at least 1) so a burst of
        // orphans spreads out instead of piling onto one survivor.
        let mut running: Vec<u64> = (0..old_n as u32)
            .filter(|&t| t != dead.0)
            .map(|t| load.get(t as usize).copied().unwrap_or(0))
            .collect();
        let per_lp = load
            .get(dead.index())
            .copied()
            .unwrap_or(0)
            .checked_div(moved.len() as u64)
            .unwrap_or(0)
            .max(1);
        for lp in moved {
            let (tgt, _) = running
                .iter()
                .enumerate()
                .min_by_key(|&(t, &l)| (l, t))
                .expect("at least one survivor");
            assign[lp.index()] = tgt as u32;
            running[tgt] += per_lp;
        }
        LpMap::with_assignment(old_n - 1, assign)
    }

    /// Derive the map an elastic cluster uses after a new thread joins: the
    /// joiner becomes thread `num_threads` and takes LPs from the most
    /// loaded donors until it holds roughly `total_load / (n + 1)`, with
    /// every donor keeping at least one LP. `load[t]` is a relative work
    /// estimate per existing thread; per-LP load is spread evenly over each
    /// donor's LPs (at least 1 per LP so empty estimates still move LPs).
    /// Fully deterministic: ties break toward the lower thread / lower LP.
    pub fn rebalanced_with_joiner(&self, load: &[u64]) -> LpMap {
        let old_n = self.num_threads as usize;
        let joiner = old_n as u32;
        let mut assign: Vec<u32> = (0..self.num_lps)
            .map(|lp| self.thread_of(LpId(lp)).0)
            .collect();
        let mut owned: Vec<Vec<LpId>> = (0..old_n)
            .map(|t| self.lps_of(SimThreadId(t as u32)))
            .collect();
        let per_lp: Vec<u64> = owned
            .iter()
            .enumerate()
            .map(|(t, lps)| (load.get(t).copied().unwrap_or(0) / lps.len().max(1) as u64).max(1))
            .collect();
        let mut running: Vec<u64> = owned
            .iter()
            .enumerate()
            .map(|(t, lps)| per_lp[t] * lps.len() as u64)
            .collect();
        let target = running.iter().sum::<u64>() / (old_n as u64 + 1);
        let mut taken = 0u64;
        loop {
            // Most loaded donor that can still spare an LP.
            let donor = running
                .iter()
                .enumerate()
                .filter(|&(t, _)| owned[t].len() > 1)
                .max_by_key(|&(t, &l)| (l, usize::MAX - t))
                .map(|(t, _)| t);
            let Some(t) = donor else { break };
            if taken + per_lp[t] > target {
                break;
            }
            // Highest LP of the donor moves (keeps its low LPs in place).
            let lp = owned[t].pop().expect("donor has an LP");
            assign[lp.index()] = joiner;
            running[t] -= per_lp[t];
            taken += per_lp[t];
        }
        if taken == 0 {
            // The joiner must own at least one LP: take one from the most
            // loaded donor regardless of the load target.
            let (t, _) = running
                .iter()
                .enumerate()
                .filter(|&(t, _)| owned[t].len() > 1)
                .max_by_key(|&(t, &l)| (l, usize::MAX - t))
                .expect("some thread owns more than one LP");
            let lp = owned[t].pop().expect("donor has an LP");
            assign[lp.index()] = joiner;
        }
        LpMap::with_assignment(old_n + 1, assign)
    }

    /// Owning thread of `lp`.
    #[inline]
    pub fn thread_of(&self, lp: LpId) -> SimThreadId {
        debug_assert!(lp.0 < self.num_lps, "LP {lp} out of range");
        if let Some(assign) = &self.assign {
            return SimThreadId(assign[lp.index()]);
        }
        match self.kind {
            MapKind::RoundRobin => SimThreadId(lp.0 % self.num_threads),
            MapKind::Block => {
                let per = self.num_lps.div_ceil(self.num_threads);
                SimThreadId((lp.0 / per).min(self.num_threads - 1))
            }
        }
    }

    /// Whether `lp` is one of this map's LPs and `thread` owns it.
    pub fn owns(&self, thread: SimThreadId, lp: LpId) -> bool {
        lp.0 < self.num_lps && self.thread_of(lp) == thread
    }

    /// All LPs owned by `thread`, ascending.
    pub fn lps_of(&self, thread: SimThreadId) -> Vec<LpId> {
        (0..self.num_lps)
            .map(LpId)
            .filter(|&lp| self.thread_of(lp) == thread)
            .collect()
    }

    /// Number of LPs per thread when evenly divisible.
    pub fn lps_per_thread(&self) -> usize {
        (self.num_lps / self.num_threads) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_wraps() {
        let m = LpMap::new(8, 4, MapKind::RoundRobin);
        assert_eq!(m.thread_of(LpId(0)), SimThreadId(0));
        assert_eq!(m.thread_of(LpId(5)), SimThreadId(1));
        assert_eq!(m.lps_of(SimThreadId(1)), vec![LpId(1), LpId(5)]);
    }

    #[test]
    fn block_is_contiguous() {
        let m = LpMap::new(8, 4, MapKind::Block);
        assert_eq!(m.lps_of(SimThreadId(0)), vec![LpId(0), LpId(1)]);
        assert_eq!(m.lps_of(SimThreadId(3)), vec![LpId(6), LpId(7)]);
    }

    #[test]
    fn block_handles_uneven_division() {
        let m = LpMap::new(7, 3, MapKind::Block);
        // per = ceil(7/3) = 3 → blocks [0..3), [3..6), [6..7)
        let total: usize = (0..3).map(|t| m.lps_of(SimThreadId(t)).len()).sum();
        assert_eq!(total, 7);
        assert_eq!(m.thread_of(LpId(6)), SimThreadId(2));
    }

    #[test]
    fn every_lp_has_exactly_one_owner() {
        for kind in [MapKind::RoundRobin, MapKind::Block] {
            let m = LpMap::new(13, 5, kind);
            let mut owned = vec![0; 13];
            for t in 0..5 {
                for lp in m.lps_of(SimThreadId(t)) {
                    owned[lp.index()] += 1;
                    assert_eq!(m.thread_of(lp), SimThreadId(t));
                }
            }
            assert!(owned.iter().all(|&c| c == 1), "{kind:?}: {owned:?}");
        }
    }

    #[test]
    #[should_panic(expected = "fewer LPs")]
    fn more_threads_than_lps_rejected() {
        LpMap::new(2, 4, MapKind::RoundRobin);
    }

    #[test]
    fn assignment_table_overrides_formula() {
        let m = LpMap::with_assignment(2, vec![1, 1, 0, 1]);
        assert_eq!(m.thread_of(LpId(0)), SimThreadId(1));
        assert_eq!(m.thread_of(LpId(2)), SimThreadId(0));
        assert_eq!(m.lps_of(SimThreadId(1)), vec![LpId(0), LpId(1), LpId(3)]);
    }

    #[test]
    #[should_panic(expected = "at least one LP")]
    fn assignment_must_cover_every_thread() {
        // thread 2 owns nothing
        LpMap::with_assignment(3, vec![0, 1, 0, 1]);
    }

    #[test]
    fn rebalance_moves_dead_threads_lps_to_survivors() {
        let m = LpMap::new(8, 4, MapKind::RoundRobin);
        let load = [100, 10, 100, 100]; // thread 1 dies; thread 1's old load unused
        let r = m.rebalanced_without(SimThreadId(1), &load);
        assert_eq!(r.num_threads, 3);
        assert_eq!(r.num_lps, 8);
        // Survivors keep their LPs under re-indexed ids.
        assert_eq!(r.thread_of(LpId(0)), SimThreadId(0)); // was thread 0
        assert_eq!(r.thread_of(LpId(2)), SimThreadId(1)); // was thread 2
        assert_eq!(r.thread_of(LpId(3)), SimThreadId(2)); // was thread 3
                                                          // Every LP still has exactly one owner.
        let total: usize = (0..3).map(|t| r.lps_of(SimThreadId(t)).len()).sum();
        assert_eq!(total, 8);
        // The dead thread's LPs (1 and 5) landed on survivors.
        for lp in [LpId(1), LpId(5)] {
            assert!(r.thread_of(lp).index() < 3);
        }
    }

    #[test]
    fn rebalance_prefers_least_loaded_survivor() {
        let m = LpMap::new(4, 4, MapKind::RoundRobin);
        // Thread 3 dies; thread 2 is by far the least loaded survivor.
        let r = m.rebalanced_without(SimThreadId(3), &[1000, 1000, 1, 7]);
        assert_eq!(r.thread_of(LpId(3)), SimThreadId(2));
    }

    #[test]
    fn joiner_rebalance_takes_load_from_the_heaviest_donors() {
        let m = LpMap::new(8, 2, MapKind::RoundRobin);
        // Thread 0 carries most of the load; the joiner should pull from it.
        let r = m.rebalanced_with_joiner(&[900, 100]);
        assert_eq!(r.num_threads, 3);
        assert_eq!(r.num_lps, 8);
        let j = r.lps_of(SimThreadId(2));
        assert!(!j.is_empty(), "joiner owns at least one LP");
        for &lp in &j {
            assert_eq!(
                m.thread_of(lp),
                SimThreadId(0),
                "pulled from the heavy donor"
            );
        }
        // Every LP still has exactly one owner and every thread owns one.
        let total: usize = (0..3).map(|t| r.lps_of(SimThreadId(t)).len()).sum();
        assert_eq!(total, 8);
        for t in 0..3 {
            assert!(!r.lps_of(SimThreadId(t)).is_empty());
        }
    }

    #[test]
    fn joiner_rebalance_is_deterministic_and_handles_zero_load() {
        let m = LpMap::new(9, 3, MapKind::Block);
        let a = m.rebalanced_with_joiner(&[0, 0, 0]);
        let b = m.rebalanced_with_joiner(&[0, 0, 0]);
        assert_eq!(a, b);
        assert!(!a.lps_of(SimThreadId(3)).is_empty());
        // Donors never give away their last LP.
        for t in 0..3 {
            assert!(!a.lps_of(SimThreadId(t)).is_empty());
        }
    }

    #[test]
    fn map_serde_round_trips_with_assignment() {
        for m in [
            LpMap::new(8, 4, MapKind::Block),
            LpMap::with_assignment(2, vec![0, 1, 1, 0]),
        ] {
            let v = serde::Serialize::to_value(&m);
            let back: LpMap = serde::Deserialize::from_value(&v).expect("round trip");
            assert_eq!(back, m);
        }
    }
}
