//! The machine driver: owns the task bodies and runs the event loop.

use crate::config::MachineConfig;
use crate::kernel::{Deadlock, Ev, Kernel, PendingBlock};
use crate::report::Report;
use crate::task::{Ctx, Step, Task, TaskId, WorkTag};

/// What a semaphore operation (wait / post) costs the caller, virtual ns.
const SEM_OP: u64 = 300;
/// What a mutex lock / unlock pair costs the caller, virtual ns.
const MUTEX_OP: u64 = 400;

/// A simulated many-core machine executing a fixed set of [`Task`]s.
///
/// ```
/// use machine::{Machine, MachineConfig, Step, Task, Ctx, WorkTag};
///
/// struct Busy(u32);
/// impl Task for Busy {
///     fn step(&mut self, _ctx: &mut Ctx<'_>) -> Step {
///         if self.0 == 0 { return Step::Done; }
///         self.0 -= 1;
///         Step::work(1_000, WorkTag::Sim)
///     }
/// }
///
/// let mut m = Machine::new(MachineConfig::small(1, 1));
/// m.add_task(Box::new(Busy(5)), "busy", None);
/// let report = m.run(None).unwrap();
/// assert_eq!(report.virtual_ns, 5_000 + 2_000 /* initial context switch */);
/// ```
pub struct Machine {
    tasks: Vec<Option<Box<dyn Task>>>,
    kernel: Kernel,
    started: bool,
}

impl Machine {
    pub fn new(cfg: MachineConfig) -> Self {
        Machine {
            tasks: Vec::new(),
            kernel: Kernel::new(cfg),
            started: false,
        }
    }

    /// Access to kernel services while building the system (creating
    /// semaphores, mutexes).
    pub fn kernel(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// Read-only kernel access (observability in tests).
    pub fn kernel_ref(&self) -> &Kernel {
        &self.kernel
    }

    /// Build a report from the machine's current state. Meant for salvaging
    /// partial accounting after [`Machine::run`] returned a deadlock; after
    /// a successful run prefer the returned report.
    pub fn report_now(&mut self) -> Report {
        self.kernel.report()
    }

    /// Add a task before the machine starts. `pin` optionally pins it to a
    /// core from the outset (constant affinity).
    pub fn add_task(
        &mut self,
        task: Box<dyn Task>,
        name: impl Into<String>,
        pin: Option<usize>,
    ) -> TaskId {
        assert!(!self.started, "cannot add tasks after the machine started");
        let id = self.kernel.add_task_meta(name.into(), pin);
        self.tasks.push(Some(task));
        id
    }

    /// Run until every task is done, a deadlock is detected, or virtual time
    /// exceeds `limit`.
    pub fn run(&mut self, limit: Option<u64>) -> Result<Report, Deadlock> {
        assert!(!self.started, "run may only be called once");
        self.started = true;
        let n = self.tasks.len();
        assert!(n > 0, "no tasks to run");
        for i in 0..n {
            self.kernel.make_runnable(TaskId(i as u32));
        }
        // Period of the CFS-like idle-balance pass that migrates *unpinned*
        // waiting tasks to idle cores, virtual ns.
        const LOAD_BALANCE_INTERVAL: u64 = 400_000;
        self.kernel
            .push_event(LOAD_BALANCE_INTERVAL, Ev::LoadBalance);

        while let Some((t, ev)) = self.kernel.pop_event() {
            self.kernel.set_now(t);
            if let Some(lim) = limit {
                if t > lim {
                    break;
                }
            }
            match ev {
                Ev::RunStep(task) => self.exec_step(task),
                Ev::SliceDone(task) => self.slice_done(task),
                Ev::LoadBalance => {
                    self.kernel.load_balance();
                    if self.kernel.done_count() < n {
                        let next = self.kernel.now() + LOAD_BALANCE_INTERVAL;
                        self.kernel.push_event(next, Ev::LoadBalance);
                    }
                }
            }
            if self.kernel.done_count() == n {
                break;
            }
            // Deadlock probe after every event, the load-balance tick's
            // included.
            if self.kernel.live_events() == 0 && !self.kernel.any_active() {
                return Err(Deadlock {
                    blocked: self.kernel.blocked_names(),
                    at: self.kernel.now(),
                });
            }
        }
        Ok(self.kernel.report())
    }

    /// Call `step()` on a task holding a context and translate the result
    /// into kernel bookkeeping.
    fn exec_step(&mut self, task: TaskId) {
        let mut body = self.tasks[task.index()].take().expect("task body present");
        let step = body.step(&mut Ctx {
            kernel: &mut self.kernel,
            me: task,
        });
        self.tasks[task.index()] = Some(body);
        let now = self.kernel.now();
        match step {
            Step::Work { cost, tag } => {
                let dur = self.kernel.charge(task, cost, tag);
                self.kernel.push_event(now + dur, Ev::SliceDone(task));
            }
            Step::SemWait(s) => {
                self.kernel.sem_wait_begin(task, s);
                let dur = self.kernel.charge(task, SEM_OP, WorkTag::Sched);
                self.kernel.push_event(now + dur, Ev::SliceDone(task));
            }
            Step::MutexLock(mx) => {
                self.kernel.mutex_lock_begin(task, mx);
                let dur = self.kernel.charge(task, MUTEX_OP, WorkTag::Sched);
                self.kernel.push_event(now + dur, Ev::SliceDone(task));
            }
            Step::Yield => self.kernel.yield_context(task),
            Step::Done => {
                self.kernel.finish(task);
            }
        }
    }

    /// A slice (work or in-flight syscall) completed.
    fn slice_done(&mut self, task: TaskId) {
        match self.kernel.take_pending(task) {
            PendingBlock::None | PendingBlock::Acquired => {
                // Plain work or an immediately-acquired syscall.
                if self.kernel.slice_done_continue(task) {
                    let now = self.kernel.now();
                    self.kernel.push_event(now, Ev::RunStep(task));
                }
            }
            PendingBlock::Block => {
                if self.kernel.take_woken(task) {
                    // Wake raced with the blocking syscall: continue.
                    if self.kernel.slice_done_continue(task) {
                        let now = self.kernel.now();
                        self.kernel.push_event(now, Ev::RunStep(task));
                    }
                } else {
                    self.kernel.free_context(task);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SemId;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Busy {
        slices: u32,
        cost: u64,
    }
    impl Task for Busy {
        fn step(&mut self, _ctx: &mut Ctx<'_>) -> Step {
            if self.slices == 0 {
                return Step::Done;
            }
            self.slices -= 1;
            Step::work(self.cost, WorkTag::Sim)
        }
    }

    #[test]
    fn single_task_time_is_work_plus_switch() {
        let mut m = Machine::new(MachineConfig::small(1, 1));
        m.add_task(
            Box::new(Busy {
                slices: 4,
                cost: 1000,
            }),
            "b",
            None,
        );
        let r = m.run(None).unwrap();
        // 4 × 1000 work + one context switch (2000) at dispatch.
        assert_eq!(r.virtual_ns, 6000);
        assert_eq!(r.tasks[0].work_for(WorkTag::Sim), 4000);
        assert_eq!(r.tasks[0].overhead_work, 2000);
        assert!(r.tasks[0].finished);
    }

    #[test]
    fn two_tasks_one_core_share_by_quantum() {
        // One single-context core: tasks alternate by quantum; completion
        // takes ~2× a single task (plus switches).
        let mut cfg = MachineConfig::small(1, 1);
        cfg.quantum = 5_000;
        let mut m = Machine::new(cfg);
        m.add_task(
            Box::new(Busy {
                slices: 10,
                cost: 1000,
            }),
            "a",
            None,
        );
        m.add_task(
            Box::new(Busy {
                slices: 10,
                cost: 1000,
            }),
            "b",
            None,
        );
        let r = m.run(None).unwrap();
        assert!(r.virtual_ns >= 20_000, "vns={}", r.virtual_ns);
        assert!(r.ctx_switches >= 4, "switches={}", r.ctx_switches);
        assert!(r.tasks.iter().all(|t| t.finished));
    }

    #[test]
    fn two_tasks_two_cores_run_in_parallel() {
        let mut m = Machine::new(MachineConfig::small(2, 1));
        m.add_task(
            Box::new(Busy {
                slices: 10,
                cost: 1000,
            }),
            "a",
            None,
        );
        m.add_task(
            Box::new(Busy {
                slices: 10,
                cost: 1000,
            }),
            "b",
            None,
        );
        let r = m.run(None).unwrap();
        // Both finish in ~12k (10k work + switch), not 24k.
        assert!(r.virtual_ns < 15_000, "vns={}", r.virtual_ns);
    }

    #[test]
    fn smt_sharing_slows_both_contexts() {
        // 1 core × 2 SMT: total throughput 1.4 → each runs at 0.7.
        let mut m = Machine::new(MachineConfig::small(1, 2));
        m.add_task(
            Box::new(Busy {
                slices: 10,
                cost: 1000,
            }),
            "a",
            None,
        );
        m.add_task(
            Box::new(Busy {
                slices: 10,
                cost: 1000,
            }),
            "b",
            None,
        );
        let r = m.run(None).unwrap();
        // Each needs ~10000/0.7 ≈ 14286 > 10000 (parallel but degraded),
        // well under 20000 (serial).
        assert!(r.virtual_ns > 13_000, "vns={}", r.virtual_ns);
        assert!(r.virtual_ns < 19_000, "vns={}", r.virtual_ns);
    }

    struct SemWaiter {
        sem: SemId,
        waited: bool,
        done_at: Rc<RefCell<u64>>,
    }
    impl Task for SemWaiter {
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
            if !self.waited {
                self.waited = true;
                return Step::SemWait(self.sem);
            }
            *self.done_at.borrow_mut() = ctx.now();
            Step::Done
        }
    }

    struct SemPoster {
        sem: SemId,
        delay_slices: u32,
    }
    impl Task for SemPoster {
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
            if self.delay_slices > 0 {
                self.delay_slices -= 1;
                return Step::work(10_000, WorkTag::Sim);
            }
            ctx.sem_post(self.sem);
            Step::Done
        }
    }

    #[test]
    fn sem_wait_blocks_until_post() {
        let mut m = Machine::new(MachineConfig::small(2, 1));
        let sem = m.kernel().add_sem(0, 1);
        let done_at = Rc::new(RefCell::new(0));
        m.add_task(
            Box::new(SemWaiter {
                sem,
                waited: false,
                done_at: Rc::clone(&done_at),
            }),
            "waiter",
            None,
        );
        m.add_task(
            Box::new(SemPoster {
                sem,
                delay_slices: 3,
            }),
            "poster",
            None,
        );
        let r = m.run(None).unwrap();
        assert!(r.tasks.iter().all(|t| t.finished));
        // Waiter resumed only after poster's 30k of work.
        assert!(*done_at.borrow() >= 30_000, "done_at={}", done_at.borrow());
        // The waiter burned no CPU while blocked.
        assert!(r.tasks[0].cpu_time < 5_000);
    }

    #[test]
    fn sem_wait_with_count_proceeds_immediately() {
        let mut m = Machine::new(MachineConfig::small(1, 1));
        let sem = m.kernel().add_sem(1, 1);
        let done_at = Rc::new(RefCell::new(0));
        m.add_task(
            Box::new(SemWaiter {
                sem,
                waited: false,
                done_at: Rc::clone(&done_at),
            }),
            "waiter",
            None,
        );
        let r = m.run(None).unwrap();
        assert!(r.tasks[0].finished);
        assert!(*done_at.borrow() < 10_000);
    }

    #[test]
    fn pinned_tasks_contend_while_other_core_idles() {
        // Constant-affinity pathology: both pinned to core 0 of a 2-core
        // machine → serialized.
        let mut cfg = MachineConfig::small(2, 1);
        cfg.quantum = 2_000;
        let mut m = Machine::new(cfg);
        m.add_task(
            Box::new(Busy {
                slices: 10,
                cost: 1000,
            }),
            "a",
            Some(0),
        );
        m.add_task(
            Box::new(Busy {
                slices: 10,
                cost: 1000,
            }),
            "b",
            Some(0),
        );
        let r = m.run(None).unwrap();
        assert!(r.virtual_ns >= 20_000, "vns={}", r.virtual_ns);
        assert_eq!(r.cpus[1].busy_time, 0, "core 1 must stay idle");
    }

    #[test]
    fn newidle_steal_moves_waiting_task_to_freed_core() {
        // 3 unpinned tasks on 2 single-context cores: two land on core 0,
        // one on core 1. When core 1's task finishes (~12k), newidle
        // balancing steals the waiter from core 0 — total well under the
        // 34k a two-on-one-core finish would take.
        let mut cfg = MachineConfig::small(2, 1);
        cfg.quantum = 5_000;
        let mut m = Machine::new(cfg);
        for i in 0..3 {
            m.add_task(
                Box::new(Busy {
                    slices: 10,
                    cost: 1000,
                }),
                format!("t{i}"),
                None,
            );
        }
        let r = m.run(None).unwrap();
        assert!(r.virtual_ns < 30_000, "vns={}", r.virtual_ns);
        assert!(r.migrations >= 1, "expected a steal migration");
    }

    #[test]
    fn deadlock_detected() {
        let mut m = Machine::new(MachineConfig::small(1, 1));
        let sem = m.kernel().add_sem(0, 1);
        let done_at = Rc::new(RefCell::new(0));
        m.add_task(
            Box::new(SemWaiter {
                sem,
                waited: false,
                done_at,
            }),
            "stuck",
            None,
        );
        let err = m.run(None).unwrap_err();
        assert_eq!(err.blocked, vec!["stuck".to_string()]);
    }

    #[test]
    fn run_respects_time_limit() {
        let mut m = Machine::new(MachineConfig::small(1, 1));
        m.add_task(
            Box::new(Busy {
                slices: u32::MAX,
                cost: 1000,
            }),
            "forever",
            None,
        );
        let r = m.run(Some(100_000)).unwrap();
        assert!(r.virtual_ns <= 102_000);
        assert!(!r.tasks[0].finished);
    }

    #[test]
    fn determinism_same_config_same_report() {
        let build = || {
            let mut cfg = MachineConfig::small(2, 2);
            cfg.quantum = 3_000;
            let mut m = Machine::new(cfg);
            for i in 0..5 {
                m.add_task(
                    Box::new(Busy {
                        slices: 20,
                        cost: 700 + i * 37,
                    }),
                    format!("t{i}"),
                    None,
                );
            }
            m.run(None).unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a.virtual_ns, b.virtual_ns);
        assert_eq!(a.ctx_switches, b.ctx_switches);
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.cpu_time, y.cpu_time);
        }
    }

    struct Mover {
        moved: bool,
        target: TaskId,
    }
    impl Task for Mover {
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
            if !self.moved {
                self.moved = true;
                ctx.set_affinity(self.target, Some(1));
                return Step::work(1000, WorkTag::Sched);
            }
            Step::Done
        }
    }

    #[test]
    fn set_affinity_migrates_running_task() {
        let mut cfg = MachineConfig::small(2, 1);
        cfg.quantum = 1_000; // frequent slice boundaries
        let mut m = Machine::new(cfg);
        let busy = m.add_task(
            Box::new(Busy {
                slices: 30,
                cost: 1000,
            }),
            "busy",
            Some(0),
        );
        m.add_task(
            Box::new(Mover {
                moved: false,
                target: busy,
            }),
            "mover",
            Some(1),
        );
        let r = m.run(None).unwrap();
        assert!(r.tasks.iter().all(|t| t.finished));
        assert!(r.migrations >= 1, "busy must migrate to core 1");
        assert_eq!(m.kernel_ref().pin_of(busy), Some(1));
    }
}

#[cfg(test)]
mod mutex_tests {
    use super::*;
    use crate::task::MutexId;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Each locker: acquire, hold for `hold` work, record critical-section
    /// interval, unlock, done.
    struct Locker {
        mx: MutexId,
        hold: u64,
        phase: u32,
        acquired_at: u64,
        log: Rc<RefCell<Vec<(u64, u64)>>>,
    }
    impl Task for Locker {
        fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Step::MutexLock(self.mx)
                }
                1 => {
                    self.phase = 2;
                    self.acquired_at = ctx.now();
                    Step::work(self.hold, WorkTag::Sched)
                }
                _ => {
                    self.log.borrow_mut().push((self.acquired_at, ctx.now()));
                    ctx.mutex_unlock(self.mx);
                    Step::Done
                }
            }
        }
    }

    #[test]
    fn mutex_serializes_critical_sections() {
        let mut m = Machine::new(MachineConfig::small(4, 1));
        let mx = m.kernel().add_mutex();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            m.add_task(
                Box::new(Locker {
                    mx,
                    hold: 10_000,
                    phase: 0,
                    acquired_at: 0,
                    log: Rc::clone(&log),
                }),
                format!("l{i}"),
                None,
            );
        }
        let r = m.run(None).unwrap();
        assert!(r.tasks.iter().all(|t| t.finished));
        // Critical sections must not overlap.
        let mut ivs = log.borrow().clone();
        ivs.sort();
        for w in ivs.windows(2) {
            assert!(
                w[1].0 >= w[0].1,
                "critical sections overlap: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        assert_eq!(ivs.len(), 4);
    }

    #[test]
    #[should_panic(expected = "unlock of mutex not held")]
    fn foreign_unlock_panics() {
        struct Bad(MutexId);
        impl Task for Bad {
            fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
                ctx.mutex_unlock(self.0);
                Step::Done
            }
        }
        let mut m = Machine::new(MachineConfig::small(1, 1));
        let mx = m.kernel().add_mutex();
        m.add_task(Box::new(Bad(mx)), "bad", None);
        let _ = m.run(None);
    }
}
