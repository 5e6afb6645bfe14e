//! # ggpdes-thread-rt — the engine on real OS threads
//!
//! The same Time Warp engine and the same six scheduling systems as
//! `sim-rt`, executed on real `std::thread`s. The control plane — one
//! mutex-guarded input queue per thread, landed into through one
//! `SendBatcher` per sender (bulk push and bulk drain take the lock once per
//! batch, not once per message), the cache-padded
//! `active_threads` array, round membership, Algorithms 1, 2 and 4 — is
//! `pdes_core`'s, shared with the virtual machine; this crate adds what
//! real threads wait on (mutex + condvar semaphores as `sem_locks`, barriers)
//! and `sched_setaffinity` for the three affinity policies.
//!
//! The worker loop, the GVT round and the attempt runner are generic over a
//! synchronisation [`Protocol`]: [`Optimistic`] (Time Warp) lives here, the
//! conservative null-message policy in `cons-rt`.
//!
//! Its purpose is *functional* validation under genuine concurrency: any run
//! must commit exactly the sequential oracle's trace. Performance figures
//! come from the deterministic `sim-rt` (this host's core count is not the
//! paper's KNL). One documented deviation from the paper: GVT round
//! *membership* transitions take a small mutex (the per-event paths take no
//! lock of their own); see DESIGN.md.

pub mod affinity;
pub mod protocol;
pub mod runner;
pub mod shared;
pub mod sync;
pub mod worker;

pub use pdes_core::SendBatcher;
pub use protocol::{Optimistic, Protocol};
pub use runner::{
    run_supervised, run_threads, run_threads_attempt, RtAttempt, RtRunConfig, RunError,
    SupervisorConfig,
};
pub use shared::RtShared;
pub use sync::{DynBarrier, Semaphore};
