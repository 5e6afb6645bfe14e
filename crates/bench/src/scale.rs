//! Experiment scale presets.

use machine::MachineConfig;
use pdes_core::EngineConfig;

/// A coherent set of machine + engine + workload sizes.
#[derive(Debug, Clone)]
pub struct Scale {
    pub name: &'static str,
    /// Virtual machine shape.
    pub cores: usize,
    pub smt: usize,
    pub quantum: u64,
    /// PHOLD LPs per thread (paper: 128).
    pub phold_lps: usize,
    /// Epidemics households per thread (paper: 4096).
    pub epi_lps: usize,
    /// Traffic intersections per thread (paper: 96).
    pub traffic_lps: usize,
    /// Simulation end time.
    pub end_time: f64,
    /// GVT every this many cycles (paper: 200).
    pub gvt_interval: u32,
    /// Idle-cycle threshold for deactivation (paper: 2000).
    pub zero_counter_threshold: u32,
    /// PHOLD delay = lookahead + Exp(mean). Small absolute delays give many
    /// event generations per activity epoch, which is what makes the
    /// imbalanced models' temporal locality real at reduced scale.
    pub lookahead: f64,
    pub mean_delay: f64,
    /// Thread counts swept by the weak-scaling figures, as multiples of the
    /// machine's hardware thread count: `hw/4, hw/2, hw, 2·hw, …`.
    pub oversub_steps: &'static [f64],
    /// Experiment seed.
    pub seed: u64,
}

impl Scale {
    /// Tiny scale for CI and the ablation tests (4 cores × 2 SMT).
    pub fn quick() -> Self {
        Scale {
            name: "quick",
            cores: 4,
            smt: 2,
            quantum: 50_000,
            phold_lps: 8,
            epi_lps: 16,
            traffic_lps: 8,
            end_time: 4.0,
            gvt_interval: 25,
            zero_counter_threshold: 250,
            lookahead: 0.02,
            mean_delay: 0.08,
            oversub_steps: &[0.5, 1.0, 2.0],
            seed: 0x5EED,
        }
    }

    /// Default: a quarter-KNL (16 cores × 4 SMT = 64 hardware threads),
    /// sweeping ¼× to 4× subscription. Minutes per figure.
    pub fn default_scale() -> Self {
        Scale {
            name: "default",
            cores: 16,
            smt: 4,
            quantum: 50_000,
            phold_lps: 32,
            epi_lps: 64,
            traffic_lps: 24,
            end_time: 8.0,
            gvt_interval: 25,
            zero_counter_threshold: 250,
            lookahead: 0.02,
            mean_delay: 0.08,
            oversub_steps: &[0.25, 0.5, 1.0, 2.0, 4.0],
            seed: 0x5EED,
        }
    }

    /// The paper's machine (64 cores × 4 SMT = 256 hardware threads),
    /// sweeping up to 16× subscription (4096 threads). Hours per figure.
    pub fn knl() -> Self {
        Scale {
            name: "knl",
            cores: 64,
            smt: 4,
            quantum: 50_000,
            phold_lps: 32,
            epi_lps: 64,
            traffic_lps: 24,
            end_time: 8.0,
            gvt_interval: 50,
            zero_counter_threshold: 500,
            lookahead: 0.02,
            mean_delay: 0.08,
            oversub_steps: &[0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
            seed: 0x5EED,
        }
    }

    /// Parse a preset by name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Scale::quick()),
            "default" => Some(Scale::default_scale()),
            "knl" => Some(Scale::knl()),
            _ => None,
        }
    }

    /// Hardware thread contexts of the machine.
    pub fn hw_threads(&self) -> usize {
        self.cores * self.smt
    }

    /// The thread counts a weak-scaling sweep visits, capped at `max_mult`
    /// times the hardware thread count.
    pub fn thread_sweep(&self, max_mult: f64) -> Vec<usize> {
        self.oversub_steps
            .iter()
            .filter(|&&m| m <= max_mult + 1e-9)
            .map(|&m| ((self.hw_threads() as f64 * m) as usize).max(2))
            .collect()
    }

    /// The machine configuration.
    pub fn machine(&self) -> MachineConfig {
        let mut m = if self.smt == 4 {
            // KNL-style SMT throughput curve.
            MachineConfig {
                num_cores: self.cores,
                ..Default::default()
            }
        } else {
            MachineConfig::small(self.cores, self.smt)
        };
        m.quantum = self.quantum;
        m
    }

    /// The engine configuration.
    pub fn engine(&self) -> EngineConfig {
        EngineConfig::default()
            .with_end_time(self.end_time)
            .with_seed(self.seed)
            .with_gvt_interval(self.gvt_interval)
            .with_zero_counter_threshold(self.zero_counter_threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve() {
        for n in ["quick", "default", "knl"] {
            let s = Scale::by_name(n).expect("preset");
            assert_eq!(s.name, n);
        }
        assert!(Scale::by_name("nope").is_none());
    }

    #[test]
    fn sweeps_respect_caps() {
        let s = Scale::default_scale();
        assert_eq!(s.hw_threads(), 64);
        let sweep = s.thread_sweep(1.0);
        assert_eq!(sweep, vec![16, 32, 64]);
        let sweep = s.thread_sweep(4.0);
        assert_eq!(sweep, vec![16, 32, 64, 128, 256]);
    }

    #[test]
    fn paper_ratios_hold() {
        for s in [Scale::quick(), Scale::default_scale(), Scale::knl()] {
            // Threshold : interval = 10 : 1, as in the paper (2000 : 200).
            assert_eq!(s.zero_counter_threshold, s.gvt_interval * 10);
            // ≥ 20 event generations per 1-4 activity epoch.
            let gens_per_epoch = (s.end_time / 4.0) / (s.lookahead + s.mean_delay);
            assert!(gens_per_epoch >= 10.0, "{}: {gens_per_epoch}", s.name);
        }
    }
}
