//! # ggpdes-machine — a deterministic many-core machine simulator
//!
//! The paper's experiments ran on a 64-core / 256-hardware-thread Intel
//! Knights Landing under Linux CFS. This crate substitutes that testbed with
//! a discrete-event model of the same machine:
//!
//! * physical cores with SMT contexts and a diminishing-throughput sharing
//!   model ([`MachineConfig::smt_total`]);
//! * a CFS-like scheduler: per-core runqueues, quantum preemption,
//!   wake-time placement, periodic idle balancing for unpinned tasks, and
//!   context-switch / migration costs;
//! * affinity control equivalent to `sched_setaffinity` (pin to one core);
//! * blocking semaphores and mutexes in virtual time;
//! * per-task CPU-time and work accounting broken down by [`WorkTag`].
//!
//! Tasks ([`Task`]) perform *real* computation in their `step` methods —
//! the PDES engine of `sim-rt` mutates genuine event queues in there — and
//! return the virtual cost of each slice. Only time is simulated, and every
//! run is bit-for-bit deterministic.

mod config;
mod kernel;
#[allow(clippy::module_inception)]
mod machine;
mod report;
mod task;

pub use config::MachineConfig;
pub use kernel::{Deadlock, Kernel, CONTEXT_SWITCH};
pub use machine::Machine;
pub use report::{CpuReport, Report, TaskReport};
pub use task::{Ctx, MutexId, SemId, Step, Task, TaskId, WorkTag};
