//! System configurations: the six systems evaluated in the paper plus the
//! three CPU-affinity policies. Every runtime schedules by these, so they
//! live beside the engine they configure.

use serde::{Deserialize, Serialize};

/// Thread-scheduling scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheduler {
    /// No explicit de-scheduling; the (virtual) kernel's CFS decides
    /// everything.
    Baseline,
    /// Original Demand-Driven PDES: a dedicated controller thread manages
    /// activation/deactivation under a global lock (prior work, §3).
    DdPdes,
    /// GVT-Guided PDES: lock-free scheduling driven by the GVT phases with a
    /// per-round pseudo-controller (this paper, §4).
    GgPdes,
}

/// GVT algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GvtMode {
    /// Synchronous Barrier GVT: threads block at barriers each round.
    Sync,
    /// Asynchronous Wait-Free GVT: phases A / Send / B / Aware / End,
    /// threads keep simulating while rounds progress.
    Async,
}

/// CPU affinity policy (§4.2, Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AffinityPolicy {
    /// No pinning; the kernel migrates threads freely.
    NoAffinity,
    /// Round-robin pinning at startup, never changed (Algorithm 3).
    Constant,
    /// Pseudo-controller re-pins active threads to idle cores each GVT
    /// round, SMT-aware (Algorithm 4). Only meaningful under GG-PDES.
    Dynamic,
}

/// A complete system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemConfig {
    pub scheduler: Scheduler,
    pub gvt: GvtMode,
    pub affinity: AffinityPolicy,
}

impl SystemConfig {
    pub const fn new(scheduler: Scheduler, gvt: GvtMode, affinity: AffinityPolicy) -> Self {
        SystemConfig {
            scheduler,
            gvt,
            affinity,
        }
    }

    /// The six systems of Figures 2–4, all under constant affinity.
    pub const ALL_SIX: [SystemConfig; 6] = [
        SystemConfig::new(Scheduler::Baseline, GvtMode::Sync, AffinityPolicy::Constant),
        SystemConfig::new(
            Scheduler::Baseline,
            GvtMode::Async,
            AffinityPolicy::Constant,
        ),
        SystemConfig::new(Scheduler::DdPdes, GvtMode::Sync, AffinityPolicy::Constant),
        SystemConfig::new(Scheduler::DdPdes, GvtMode::Async, AffinityPolicy::Constant),
        SystemConfig::new(Scheduler::GgPdes, GvtMode::Sync, AffinityPolicy::Constant),
        SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant),
    ];

    /// The three headline systems of Figures 5–6.
    pub const HEADLINE: [SystemConfig; 3] = [
        SystemConfig::new(Scheduler::Baseline, GvtMode::Sync, AffinityPolicy::Constant),
        SystemConfig::new(Scheduler::DdPdes, GvtMode::Async, AffinityPolicy::Constant),
        SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant),
    ];

    /// Paper-style display name, e.g. `GG-PDES-Async`.
    pub fn name(&self) -> String {
        let s = match self.scheduler {
            Scheduler::Baseline => "Baseline",
            Scheduler::DdPdes => "DD-PDES",
            Scheduler::GgPdes => "GG-PDES",
        };
        let g = match self.gvt {
            GvtMode::Sync => "Sync",
            GvtMode::Async => "Async",
        };
        match self.affinity {
            AffinityPolicy::Constant => format!("{s}-{g}"),
            AffinityPolicy::NoAffinity => format!("{s}-{g}+NoAff"),
            AffinityPolicy::Dynamic => format!("{s}-{g}+DynAff"),
        }
    }

    /// Does this system de-schedule inactive threads?
    pub fn demand_driven(&self) -> bool {
        !matches!(self.scheduler, Scheduler::Baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_conventions() {
        assert_eq!(
            SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant).name(),
            "GG-PDES-Async"
        );
        assert_eq!(
            SystemConfig::new(Scheduler::Baseline, GvtMode::Sync, AffinityPolicy::Constant).name(),
            "Baseline-Sync"
        );
        assert_eq!(
            SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Dynamic).name(),
            "GG-PDES-Async+DynAff"
        );
    }

    #[test]
    fn all_six_are_distinct() {
        let names: std::collections::BTreeSet<String> =
            SystemConfig::ALL_SIX.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn demand_driven_flag() {
        assert!(!SystemConfig::ALL_SIX[0].demand_driven());
        assert!(SystemConfig::ALL_SIX[2].demand_driven());
        assert!(SystemConfig::ALL_SIX[5].demand_driven());
    }
}
