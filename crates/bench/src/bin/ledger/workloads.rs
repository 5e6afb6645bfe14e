//! The four workloads. Each exists to stress layers the others bypass, so
//! an optimisation always has one workload that should move and one that
//! should stay flat (see the README's prediction table).
//!
//! The seed reaches the program only as `EngineConfig.seed`; models, sizes
//! and horizons are fixed here.

use models::{ActivitySchedule, LocalityPattern, PholdConfig, TrafficConfig};
use pdes_core::{EngineConfig, MapKind};

/// Simulation threads / shards on every runtime (the container has 2 vCPUs).
pub const PARTS: usize = 2;

/// Which model a workload runs.
#[derive(Debug, Clone)]
pub enum ModelSpec {
    Phold(PholdConfig),
    Traffic(TrafficConfig),
}

/// One workload: a model, an optimism window and four horizons sized so a
/// single timed run lasts roughly 0.5–1 s on the reference container.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the README.
    pub why: &'static str,
    pub model: ModelSpec,
    pub optimism_window: f64,
    pub mapping: MapKind,
    /// End time for `seq` (the oracle is about half the cost per event of
    /// the parallel runtimes, so it runs about twice as far).
    pub end_seq: f64,
    /// End time for `thread` and `cons`, and for the stepped passes.
    pub end_main: f64,
    /// End time for `dist_mem` and `dist_tcp` (per-event cost is 3–25×).
    pub end_dist: f64,
    /// End time for `vm` (host cost per committed event follows the
    /// rollback ratio, which the over-subscribed machine drives up).
    pub end_vm: f64,
}

pub const NAMES: [&str; 4] = [
    "phold-balanced",
    "phold-skew",
    "phold-thrash",
    "traffic-grid",
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let w = match name {
            "phold-balanced" => Workload {
                name: "phold-balanced",
                why: "every thread always busy, half of all sends cross threads: pop, handler, \
                      save, batch, queue or codec do the work; parking and rollback almost none",
                model: ModelSpec::Phold(PholdConfig::balanced(PARTS, 256)),
                optimism_window: 4.0,
                mapping: MapKind::RoundRobin,
                end_seq: 7200.0,
                end_main: 3200.0,
                end_dist: 430.0,
                end_vm: 3350.0,
            },
            "phold-skew" => Workload {
                name: "phold-skew",
                why: "the active thread flips every 50 time units, so one thread always has \
                      nothing to do: parking, activation and GVT rounds with a parked member",
                model: ModelSpec::Phold(PholdConfig {
                    schedule: ActivitySchedule {
                        num_threads: PARTS,
                        groups: 2,
                        epoch_len: 50.0,
                        pattern: LocalityPattern::Linear,
                    },
                    ..PholdConfig::balanced(PARTS, 256)
                }),
                optimism_window: 4.0,
                mapping: MapKind::RoundRobin,
                end_seq: 7900.0,
                end_main: 3400.0,
                end_dist: 480.0,
                end_vm: 3500.0,
            },
            "phold-thrash" => Workload {
                name: "phold-thrash",
                why: "16 events in flight under a wide window: half of all processed events are \
                      undone, so restore, coast-forward, anti-messages and cancel do the work",
                model: ModelSpec::Phold(PholdConfig::balanced(PARTS, 8)),
                optimism_window: 16.0,
                mapping: MapKind::RoundRobin,
                end_seq: 445000.0,
                end_main: 45000.0,
                end_dist: 3350.0,
                end_vm: 13000.0,
            },
            "traffic-grid" => Workload {
                name: "traffic-grid",
                why:
                    "block-mapped torus with struct state and serde payloads, thousands of \
                      pending events per thread, only boundary events cross: nothing PHOLD-specific",
                model: ModelSpec::Traffic(TrafficConfig::new(PARTS, 2048, 1.0)),
                optimism_window: 4.0,
                mapping: MapKind::Block,
                end_seq: 92.0,
                end_main: 165.0,
                end_dist: 150.0,
                end_vm: 85.0,
            },
            _ => return None,
        };
        Some(w)
    }

    /// The common engine configuration at end time `end`.
    pub fn engine(&self, seed: u64, end: f64) -> EngineConfig {
        EngineConfig::default()
            .with_batch_size(8)
            .with_gvt_interval(25)
            .with_snapshot_period(8)
            .with_zero_counter_threshold(250)
            .with_optimism_window(Some(self.optimism_window))
            .with_mapping(self.mapping)
            .with_seed(seed)
            .with_end_time(end)
    }
}
