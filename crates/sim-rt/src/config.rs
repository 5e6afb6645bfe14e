//! The engine cost model of the virtual machine. The system configurations
//! it prices (`SystemConfig` and friends) live in `pdes_core::system`; they
//! are re-exported here so `sim_rt::SystemConfig` keeps resolving.

use serde::{Deserialize, Serialize};

pub use pdes_core::{AffinityPolicy, GvtMode, Scheduler, SystemConfig};

/// Cost of the PDES engine's operations on the virtual machine, in cycles.
/// See DESIGN.md §5.3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimCost {
    /// Checking the input queue once.
    pub poll: u64,
    /// Receiving (delivering) one message from the input queue.
    pub recv_msg: u64,
    /// Processing one event (includes state saving).
    pub proc_event: u64,
    /// Sending one event/anti-message to another thread.
    pub send_msg: u64,
    /// Undoing one event during a rollback.
    pub rollback_event: u64,
    /// One GVT phase operation (recording a minimum, folding).
    pub gvt_phase: u64,
    /// Checking whether a GVT phase has globally completed.
    pub phase_check: u64,
    /// Scheduling bookkeeping (activation scan per entry, deactivation).
    pub sched_op: u64,
    /// Re-pinning a thread (the `sched_setaffinity` call, Algorithm 4).
    pub affinity_op: u64,
    /// Controller scan cost per thread record (DD-PDES).
    pub scan_per_thread: u64,
    /// Input-queue polls batched into one idle step (model-side batching of
    /// an idle thread's spin loop; does not change contention semantics).
    pub idle_polls_per_step: u64,
}

impl Default for SimCost {
    fn default() -> Self {
        SimCost {
            poll: 60,
            recv_msg: 100,
            proc_event: 1000,
            send_msg: 120,
            rollback_event: 700,
            gvt_phase: 200,
            phase_check: 40,
            sched_op: 150,
            affinity_op: 250,
            scan_per_thread: 80,
            idle_polls_per_step: 32,
        }
    }
}
