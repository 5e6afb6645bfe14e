//! Engine configuration shared by both runtimes.

use crate::mapping::MapKind;
use crate::time::VirtualTime;
use serde::{Deserialize, Serialize};

/// Parameters of the core simulation loop (paper §2.2 and §4.1.4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Events processed per main-loop cycle (ROSS batch; paper: 8).
    pub batch_size: usize,
    /// GVT computation frequency: one round every this many cycles
    /// (paper: 200).
    pub gvt_interval: u32,
    /// Consecutive empty-input-queue cycles before a thread declares itself
    /// inactive (paper's `zero_counter_threshold`: 2000).
    pub zero_counter_threshold: u32,
    /// Simulation end time: a run covers `[0, end_time)` — every runtime
    /// executes exactly the events stamped strictly below it and finishes
    /// once GVT ≥ this.
    pub end_time: VirtualTime,
    /// Experiment seed; all LP RNG streams derive from it.
    pub seed: u64,
    /// LP → thread mapping strategy.
    pub mapping: MapKind,
    /// Sparse state saving: snapshot LP state before every k-th event only
    /// (1 = classical copy state saving). Rollbacks past a gap coast-forward
    /// by replaying events with sends suppressed.
    pub snapshot_period: u32,
    /// Bounded optimism: when set, threads do not process events more than
    /// this far (in virtual time) beyond the last known GVT. `None` = the
    /// unthrottled ROSS behaviour used throughout the paper.
    pub optimism_window: Option<f64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            batch_size: 8,
            gvt_interval: 200,
            zero_counter_threshold: 2000,
            end_time: VirtualTime::from_f64(100.0),
            seed: 0x5EED,
            mapping: MapKind::RoundRobin,
            snapshot_period: 1,
            optimism_window: None,
        }
    }
}

impl EngineConfig {
    /// Builder-style setters.
    pub fn with_end_time(mut self, t: f64) -> Self {
        self.end_time = VirtualTime::from_f64(t);
        self
    }
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
    pub fn with_gvt_interval(mut self, n: u32) -> Self {
        assert!(n > 0, "gvt_interval must be positive");
        self.gvt_interval = n;
        self
    }
    pub fn with_zero_counter_threshold(mut self, n: u32) -> Self {
        self.zero_counter_threshold = n;
        self
    }
    pub fn with_batch_size(mut self, n: usize) -> Self {
        assert!(n > 0, "batch_size must be positive");
        self.batch_size = n;
        self
    }
    pub fn with_mapping(mut self, kind: MapKind) -> Self {
        self.mapping = kind;
        self
    }
    pub fn with_snapshot_period(mut self, k: u32) -> Self {
        assert!(k >= 1, "snapshot period must be at least 1");
        self.snapshot_period = k;
        self
    }
    pub fn with_optimism_window(mut self, w: Option<f64>) -> Self {
        if let Some(w) = w {
            assert!(w > 0.0, "optimism window must be positive");
        }
        self.optimism_window = w;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EngineConfig::default();
        assert_eq!(c.batch_size, 8);
        assert_eq!(c.gvt_interval, 200);
        assert_eq!(c.zero_counter_threshold, 2000);
        assert_eq!(c.snapshot_period, 1);
        assert_eq!(c.optimism_window, None);
    }

    #[test]
    fn builder_chains() {
        let c = EngineConfig::default()
            .with_end_time(50.0)
            .with_seed(9)
            .with_gvt_interval(10)
            .with_zero_counter_threshold(40)
            .with_batch_size(4)
            .with_mapping(MapKind::Block);
        assert_eq!(c.end_time, VirtualTime::from_f64(50.0));
        assert_eq!(c.seed, 9);
        assert_eq!(c.gvt_interval, 10);
        assert_eq!(c.zero_counter_threshold, 40);
        assert_eq!(c.batch_size, 4);
        assert_eq!(c.mapping, MapKind::Block);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_gvt_interval_rejected() {
        EngineConfig::default().with_gvt_interval(0);
    }
}
