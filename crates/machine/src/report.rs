//! Execution reports produced by a machine run.

use crate::task::WorkTag;
use serde::{Deserialize, Serialize};

/// Per-task accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskReport {
    pub name: String,
    /// Scaled CPU time consumed (virtual ns, accounting for SMT sharing).
    pub cpu_time: u64,
    /// Raw work units per [`WorkTag`] (index with `WorkTag::index`).
    pub work: [u64; 5],
    /// Scaled CPU time per [`WorkTag`].
    pub time_by_tag: [u64; 5],
    /// Raw work units of kernel overhead (context switches, migrations).
    pub overhead_work: u64,
    /// Whether the task ran to completion.
    pub finished: bool,
}

impl TaskReport {
    /// Work attributed to one tag.
    pub fn work_for(&self, tag: WorkTag) -> u64 {
        self.work[tag.index()]
    }

    /// Total raw work units including overheads ("instructions executed").
    pub fn total_work(&self) -> u64 {
        self.work.iter().sum::<u64>() + self.overhead_work
    }
}

/// Per-core accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CpuReport {
    /// Context-seconds of busy time (sum over SMT contexts).
    pub busy_time: u64,
}

/// Full machine-run report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Virtual wall-clock at the end of the run (ns).
    pub virtual_ns: u64,
    pub ctx_switches: u64,
    pub migrations: u64,
    /// `Step::Yield`s executed: how often a task gave its context away.
    pub voluntary_yields: u64,
    pub tasks: Vec<TaskReport>,
    pub cpus: Vec<CpuReport>,
}

impl Report {
    /// Virtual wall-clock in seconds.
    pub fn virtual_secs(&self) -> f64 {
        self.virtual_ns as f64 * 1e-9
    }

    /// Total raw work units across tasks (the "instructions executed"
    /// aggregate of the paper's §6.2/§6.3 comparisons).
    pub fn total_work(&self) -> u64 {
        self.tasks.iter().map(TaskReport::total_work).sum()
    }

    /// Work for a given tag summed over all tasks.
    pub fn work_for(&self, tag: WorkTag) -> u64 {
        self.tasks.iter().map(|t| t.work_for(tag)).sum()
    }

    /// Aggregate core utilization in [0, 1]: busy context-time over
    /// `virtual_ns × total contexts`.
    pub fn utilization(&self, smt_ways: usize) -> f64 {
        if self.virtual_ns == 0 {
            return 0.0;
        }
        let busy: u64 = self.cpus.iter().map(|c| c.busy_time).sum();
        busy as f64 / (self.virtual_ns as f64 * (self.cpus.len() * smt_ways) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        Report {
            virtual_ns: 2_000_000_000,
            ctx_switches: 3,
            migrations: 1,
            voluntary_yields: 0,
            tasks: vec![TaskReport {
                name: "t0".into(),
                cpu_time: 10,
                work: [5, 4, 3, 2, 1],
                time_by_tag: [5, 4, 3, 2, 1],
                overhead_work: 7,
                finished: true,
            }],
            cpus: vec![
                CpuReport {
                    busy_time: 1_000_000_000
                };
                2
            ],
        }
    }

    #[test]
    fn totals() {
        let r = report();
        assert_eq!(r.virtual_secs(), 2.0);
        assert_eq!(r.total_work(), 5 + 4 + 3 + 2 + 1 + 7);
        assert_eq!(r.work_for(WorkTag::Gvt), 4);
        // 2e9 busy over 2e9 ns × 2 cpus × 1 way = 0.5
        assert!((r.utilization(1) - 0.5).abs() < 1e-12);
    }
}
