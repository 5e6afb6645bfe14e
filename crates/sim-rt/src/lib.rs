//! # ggpdes-sim-rt — the PDES engine on the virtual machine
//!
//! This runtime executes the full Time Warp engine ([`pdes_core`]) as tasks
//! on the deterministic many-core model ([`machine`]), implementing all six
//! systems of the paper's evaluation —
//! `{Baseline, DD-PDES, GG-PDES} × {Sync, Async}` — and the three CPU
//! affinity policies. Events, rollbacks, anti-messages, and GVT values are
//! *real*; only time is modeled, so every figure of the paper can be
//! regenerated at 256–4096 thread scale on any host, bit-for-bit
//! reproducibly.
//!
//! Entry point: [`runner::run_sim`].
//!
//! Debugging aids: the round stream and trace rings (`RunConfig::
//! with_telemetry`) record the GVT round lifecycle; incomplete runs print a
//! diagnostic dump of the round state and any stuck GVT minima.

pub mod config;
pub mod controller;
pub mod runner;
pub mod shared;
pub mod simthread;

pub use config::{AffinityPolicy, GvtMode, Scheduler, SimCost, SystemConfig};
pub use runner::{
    run_sim, run_sim_attempt, run_sim_supervised, RunConfig, ScriptedIngest, SimAttempt,
};
pub use shared::{Shared, SimIngest};
pub use simthread::SimThreadTask;
