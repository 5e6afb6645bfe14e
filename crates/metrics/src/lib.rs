//! # ggpdes-metrics — experiment metrics and reporting
//!
//! The paper reports *committed event rate* (committed events per wall-clock
//! second), per-round GVT CPU time, instruction counts, and rollback
//! statistics. This crate defines the one outcome every runtime returns
//! ([`RunOutcome`], around the [`RunMetrics`] record) plus the table/CSV/JSON
//! reporters used by the benchmark harness.

pub mod gantt;
pub mod outcome;
pub mod report;
pub mod run;

pub use gantt::{render_gantt, trace_horizon, transitions_from_trace};
pub use outcome::{Invariants, RunOutcome};
pub use report::{Series, Table};
pub use run::RunMetrics;
