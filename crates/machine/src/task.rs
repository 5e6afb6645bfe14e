//! The task abstraction: code that runs on the virtual machine.

use crate::kernel::Kernel;
use serde::{Deserialize, Serialize};

/// Task identifier (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl TaskId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Semaphore handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SemId(pub u32);

/// Mutex handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MutexId(pub u32);

/// Attribution tag for CPU work, used to break down where each task's cycles
/// went (the paper's GVT-CPU-time and instruction-count tables need this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkTag {
    /// Useful event processing.
    Sim,
    /// GVT computation phases.
    Gvt,
    /// Scheduling management (activation/deactivation/affinity logic).
    Sched,
    /// Input-queue polling.
    Poll,
    /// Busy-wait spinning (e.g. inactive threads in asynchronous systems).
    Spin,
}

impl WorkTag {
    pub const ALL: [WorkTag; 5] = [
        WorkTag::Sim,
        WorkTag::Gvt,
        WorkTag::Sched,
        WorkTag::Poll,
        WorkTag::Spin,
    ];

    pub fn index(self) -> usize {
        match self {
            WorkTag::Sim => 0,
            WorkTag::Gvt => 1,
            WorkTag::Sched => 2,
            WorkTag::Poll => 3,
            WorkTag::Spin => 4,
        }
    }
}

/// What a task wants to do next, returned from [`Task::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Burn `cost` cycles of CPU attributed to `tag`, then step again.
    Work { cost: u64, tag: WorkTag },
    /// Decrement the semaphore, blocking until it is positive
    /// (`sem_wait`). Charges a semaphore operation (300).
    SemWait(SemId),
    /// Acquire the mutex, blocking if held. Charges a mutex operation (400).
    MutexLock(MutexId),
    /// Give up the CPU but stay runnable (requeued at the tail).
    Yield,
    /// The task is finished.
    Done,
}

impl Step {
    /// Convenience constructor for tagged work.
    pub fn work(cost: u64, tag: WorkTag) -> Step {
        Step::Work { cost, tag }
    }
}

/// Code executed on the virtual machine.
///
/// `step` is called whenever the task holds a hardware context: it performs
/// one slice of real computation (mutating whatever state the task shares
/// with others through `Rc<RefCell<…>>`) and returns how much virtual CPU
/// that slice costs — or a blocking request. Side effects become visible at
/// call time while the cost extends into the future; with slice costs in the
/// microsecond range this approximation is far below the effects being
/// measured.
pub trait Task {
    /// Execute the next slice. `ctx` exposes kernel services (posting
    /// semaphores, changing affinity, reading the clock).
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Step;
}

/// Kernel services available inside [`Task::step`].
pub struct Ctx<'a> {
    pub(crate) kernel: &'a mut Kernel,
    pub(crate) me: TaskId,
}

impl<'a> Ctx<'a> {
    /// This task's id.
    #[inline]
    pub fn me(&self) -> TaskId {
        self.me
    }

    /// Current virtual time (ns).
    #[inline]
    pub fn now(&self) -> u64 {
        self.kernel.now()
    }

    /// Post (release) a semaphore, waking one waiter if any. A binary
    /// semaphore: the count saturates at 1, as with the paper's `sem_locks`.
    pub fn sem_post(&mut self, sem: SemId) {
        self.kernel.sem_post(sem);
    }

    /// Release a mutex held by this task.
    ///
    /// # Panics
    /// Panics if the task does not hold the mutex.
    pub fn mutex_unlock(&mut self, mutex: MutexId) {
        self.kernel.mutex_unlock(mutex, self.me);
    }

    /// Pin `task` to a single core (like `sched_setaffinity` with one bit),
    /// or unpin it with `None`. Takes effect at the target's next scheduling
    /// boundary; a migration cost is charged when it changes cores.
    pub fn set_affinity(&mut self, task: TaskId, core: Option<usize>) {
        self.kernel.set_affinity(task, core);
    }

    /// Tokens held by a semaphore plus its blocked-waiter count
    /// (diagnostics; see [`crate::Kernel::sem_state`]).
    #[inline]
    pub fn sem_state(&self, sem: SemId) -> (u32, usize) {
        self.kernel.sem_state(sem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_tag_indices_are_dense_and_unique() {
        let mut seen = [false; 5];
        for t in WorkTag::ALL {
            assert!(!seen[t.index()]);
            seen[t.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn step_work_constructor() {
        assert_eq!(
            Step::work(5, WorkTag::Sim),
            Step::Work {
                cost: 5,
                tag: WorkTag::Sim
            }
        );
    }
}
