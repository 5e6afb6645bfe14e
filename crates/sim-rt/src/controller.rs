//! The DD-PDES dedicated controller thread (prior work, §3).
//!
//! Runs on its own CPU core and exclusively manages scheduling: it loops
//! acquiring the global scheduling lock, scanning every thread record for
//! inactive threads with pending input, and waking them. Simulation threads
//! must take the same lock to deactivate — at scale the O(N) scans inside
//! the critical section serialize the whole demand-driven machinery, which
//! is precisely the bottleneck GG-PDES removes.

use crate::shared::{Op, Shared};
use machine::{Ctx, Step, Task, WorkTag};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtrlPhase {
    /// Acquire the global scheduling lock.
    Lock,
    /// Scan (holding the lock), wake, release.
    Scan,
}

/// The controller task.
pub struct ControllerTask<P> {
    shared: Rc<RefCell<Shared<P>>>,
    phase: CtrlPhase,
    ops: Vec<Op>,
}

impl<P> ControllerTask<P> {
    pub fn new(shared: Rc<RefCell<Shared<P>>>) -> Self {
        ControllerTask {
            shared,
            phase: CtrlPhase::Lock,
            ops: Vec::new(),
        }
    }
}

impl<P> Task for ControllerTask<P> {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
        let shared = Rc::clone(&self.shared);
        let mut sh = shared.borrow_mut();
        let mutex = sh.dd_mutex.expect("controller requires the DD lock");
        match self.phase {
            CtrlPhase::Lock => {
                if sh.controller_exit {
                    return Step::Done;
                }
                self.phase = CtrlPhase::Scan;
                Step::MutexLock(mutex)
            }
            CtrlPhase::Scan => {
                self.phase = CtrlPhase::Lock;
                if sh.controller_exit {
                    drop(sh);
                    ctx.mutex_unlock(mutex);
                    return Step::Done;
                }
                let activated = sh.activate_queued(&mut self.ops);
                let cost = sh.cost.scan_per_thread * sh.num_threads as u64
                    + sh.cost.sched_op * activated as u64;
                drop(sh);
                ctx.mutex_unlock(mutex);
                for op in self.ops.drain(..) {
                    match op {
                        Op::Post(t) => {
                            let sem = self.shared.borrow().sems[t];
                            ctx.sem_post(sem);
                        }
                        Op::Pin(..) => unreachable!("controller never pins"),
                    }
                }
                Step::work(cost, WorkTag::Sched)
            }
        }
    }
}
