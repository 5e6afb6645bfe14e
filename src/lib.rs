//! # ggpdes — GVT-Guided Demand-Driven Scheduling for PDES
//!
//! A from-scratch Rust reproduction of *GVT-Guided Demand-Driven Scheduling
//! in Parallel Discrete Event Simulation* (Eker, Timmerman, Williams, Chiu,
//! Ponomarev — ICPP 2021).
//!
//! The workspace provides:
//!
//! * [`pdes_core`] — the optimistic (Time Warp) engine: events, LPs,
//!   rollback, anti-messages, fossil collection, a sequential oracle;
//! * [`models`] — PHOLD (balanced + `1-k` imbalanced), SEIR epidemics with
//!   rotating lock-downs, and a vehicular traffic grid;
//! * [`machine`] — a deterministic simulator of a many-core machine
//!   (cores, SMT, CFS-like scheduling, affinity, virtual sync primitives);
//! * [`sim_rt`] — the six systems of the paper's evaluation running on the
//!   virtual machine, used to regenerate every figure at 256–4096-thread
//!   scale on any host;
//! * [`thread_rt`] — the same engine and the same control plane
//!   (`pdes_core::MessagePlane`, `pdes_core::sched`) on real `std::thread`s
//!   with mutex + condvar semaphores and `sched_setaffinity`;
//! * [`cons_rt`] — the conservative counterpart: Chandy–Misra–Bryant
//!   null-message synchronization on the same engine and thread chassis,
//!   switchable against the optimistic runtimes with one CLI flag;
//! * [`dist_rt`] — the engine partitioned into shards that exchange events
//!   over reliable TCP/memory links, driven by an asynchronous
//!   Mattern-style distributed GVT with checkpoint cuts and kill recovery;
//! * [`ingest`] — the client-facing external-event ingest plane: retrying
//!   admission clients, a framed TCP feeder, file/rate sources;
//! * [`metrics`] — the one `RunOutcome` every runtime returns (metrics,
//!   per-LP digests, the invariants block, recovery books) and
//!   committed-event-rate and GVT-timing reporting.
//!
//! ## Quickstart
//!
//! ```
//! use ggpdes::prelude::*;
//! use std::sync::Arc;
//!
//! // 8 simulation threads, 4 LPs each, 1-2 imbalanced PHOLD.
//! let threads = 8;
//! let model = Arc::new(Phold::new(PholdConfig::imbalanced(
//!     threads, 4, 2, 10.0, LocalityPattern::Linear,
//! )));
//! let engine = EngineConfig::default()
//!     .with_end_time(10.0)
//!     .with_gvt_interval(25)
//!     .with_zero_counter_threshold(100);
//!
//! // Run GG-PDES-Async on a small virtual machine…
//! let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
//! let rc = RunConfig::new(threads, engine.clone(), sys)
//!     .with_machine(MachineConfig::small(4, 2));
//! let result = run_sim(&model, &rc);
//!
//! // …and check it against the sequential oracle.
//! let oracle = run_sequential(&model, &engine, None);
//! assert_eq!(result.metrics.committed, oracle.committed);
//! assert_eq!(result.metrics.commit_digest, oracle.commit_digest);
//! println!("{:.0} committed events/s", result.metrics.committed_event_rate());
//! ```

pub use cons_rt;
pub use dist_rt;
pub use ingest;
pub use machine;
pub use metrics;
pub use models;
pub use pdes_core;
pub use sim_rt;
pub use telemetry;
pub use thread_rt;

/// The most commonly used items, re-exported.
pub mod prelude {
    pub use cons_rt::{run_cons, ConsError, ConsRunConfig};
    pub use dist_rt::{run_loopback, DistConfig, DistError, Transport};
    pub use machine::{Machine, MachineConfig};
    pub use metrics::{Invariants, RunMetrics, RunOutcome, Series, Table};
    pub use models::{
        ActivitySchedule, Burr, Epidemics, EpidemicsConfig, LocalityPattern, Phold, PholdConfig,
        Traffic, TrafficConfig,
    };
    pub use pdes_core::{
        run_sequential, DetRng, EngineConfig, Event, EventKey, FaultPlan, LpId, LpMap, MapKind,
        Model, Msg, SendCtx, SequentialResult, SimThreadId, StallDump, ThreadStats, VirtualTime,
    };
    pub use sim_rt::{
        run_sim, AffinityPolicy, GvtMode, RunConfig, Scheduler, SimCost, SystemConfig,
    };
}
