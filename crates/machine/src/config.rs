//! Machine model configuration.

use serde::{Deserialize, Serialize};

/// Configuration of the simulated many-core machine.
///
/// The default models the paper's Intel Knights Landing 7230: 64 cores with
/// 4-way SMT (256 hardware thread contexts).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of physical cores.
    pub num_cores: usize,
    /// SMT contexts per core.
    pub smt_ways: usize,
    /// Total core throughput with `k` busy contexts is `smt_total[k-1]`
    /// (each context then runs at `smt_total[k-1] / k`). Must be
    /// non-decreasing and start at 1.0.
    pub smt_total: Vec<f64>,
    /// Scheduling quantum in virtual ns (a running task is preempted after
    /// this much CPU time if others wait on its core's runqueue).
    pub quantum: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            num_cores: 64,
            smt_ways: 4,
            smt_total: vec![1.0, 1.6, 1.85, 2.0],
            quantum: 200_000,
        }
    }
}

impl MachineConfig {
    /// A small machine for unit tests: `cores` cores, `smt` ways.
    pub fn small(cores: usize, smt: usize) -> Self {
        let mut smt_total = vec![1.0];
        for k in 2..=smt {
            // Diminishing returns, capped at 2x.
            smt_total.push((1.0 + 0.4 * (k as f64 - 1.0)).min(2.0));
        }
        MachineConfig {
            num_cores: cores,
            smt_ways: smt,
            smt_total,
            ..Default::default()
        }
    }

    /// Total hardware thread contexts.
    pub fn hw_threads(&self) -> usize {
        self.num_cores * self.smt_ways
    }

    /// Per-context execution speed when `busy` contexts of a core are busy.
    pub fn smt_speed(&self, busy: usize) -> f64 {
        assert!(busy >= 1 && busy <= self.smt_ways, "busy={busy}");
        self.smt_total[busy - 1] / busy as f64
    }

    /// Validate invariants; called by the kernel at construction.
    pub fn validate(&self) {
        assert!(self.num_cores > 0, "need at least one core");
        assert!(self.smt_ways > 0, "need at least one SMT way");
        assert_eq!(
            self.smt_total.len(),
            self.smt_ways,
            "smt_total must have one entry per SMT way"
        );
        assert!(
            (self.smt_total[0] - 1.0).abs() < 1e-9,
            "single-context throughput must be 1.0"
        );
        for w in self.smt_total.windows(2) {
            assert!(w[1] >= w[0], "smt_total must be non-decreasing");
        }
        assert!(self.quantum > 0, "quantum must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knl_defaults() {
        let c = MachineConfig::default();
        c.validate();
        assert_eq!(c.hw_threads(), 256);
        assert!((c.smt_speed(1) - 1.0).abs() < 1e-12);
        assert!((c.smt_speed(2) - 0.8).abs() < 1e-12);
        assert!((c.smt_speed(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn small_machine_valid() {
        for smt in 1..=4 {
            MachineConfig::small(2, smt).validate();
        }
    }

    #[test]
    #[should_panic(expected = "smt_total")]
    fn mismatched_smt_table_rejected() {
        let mut c = MachineConfig::default();
        c.smt_total.pop();
        c.validate();
    }

    #[test]
    fn speed_decreases_with_sharing() {
        let c = MachineConfig::default();
        let mut last = f64::INFINITY;
        for k in 1..=4 {
            let s = c.smt_speed(k);
            assert!(s < last);
            last = s;
        }
    }
}
