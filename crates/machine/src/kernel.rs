//! The machine kernel: hardware contexts, runqueues, the CFS-like scheduler,
//! synchronization objects, and the discrete-event executor state.
//!
//! The kernel owns everything *except* the task bodies themselves — those
//! live in [`crate::Machine`] so that a running task can receive `&mut
//! Kernel` through [`crate::task::Ctx`] without aliasing.

use crate::config::MachineConfig;
use crate::report::{CpuReport, Report, TaskReport};
use crate::task::{MutexId, SemId, TaskId, WorkTag};
use std::collections::{BinaryHeap, VecDeque};

/// Cost of switching a hardware context between two different tasks, in
/// virtual ns. Like every machine cost it only needs to be *relatively*
/// plausible: the reproduced figures are ratios between systems, driven by
/// who occupies hardware contexts, not by any one cost's magnitude.
pub const CONTEXT_SWITCH: u64 = 2_000;

/// Scheduler state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TState {
    /// Waiting in the runqueue of `cpu`.
    Runnable { cpu: usize },
    /// Executing on `cpu` in SMT slot `slot`.
    Running { cpu: usize, slot: usize },
    /// Blocked on a synchronization object.
    Blocked,
    /// Finished.
    Done,
}

/// Why a running task will block when its in-flight syscall completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PendingBlock {
    None,
    /// Will block unless `woken` was set meanwhile.
    Block,
    /// Acquired immediately; continue.
    Acquired,
}

#[derive(Debug)]
pub(crate) struct TaskMeta {
    pub name: String,
    pub state: TState,
    /// Pinned core, or `None` (kernel balances freely).
    pub pin: Option<usize>,
    /// Core the task last executed on (for migration-cost accounting).
    pub last_cpu: Option<usize>,
    /// CPU time consumed so far while its in-flight quantum ran.
    pub ran_in_quantum: u64,
    /// One-shot extra cost charged to the next slice (context switch /
    /// migration).
    pub extra_cost: u64,
    /// Outcome of the blocking syscall currently in flight.
    pub pending: PendingBlock,
    /// Set by a wake that raced with an in-flight blocking syscall.
    pub woken: bool,
    /// Total scaled CPU time.
    pub cpu_time: u64,
    /// Raw work units ("instructions") per attribution tag.
    pub work: [u64; 5],
    /// Scaled CPU time per attribution tag.
    pub time_by_tag: [u64; 5],
    /// Raw work units spent on kernel overheads (switches, migrations).
    pub overhead_work: u64,
}

#[derive(Debug, Default)]
struct Cpu {
    /// SMT slots; `Some(task)` when busy.
    slots: Vec<Option<TaskId>>,
    /// Last task each slot executed (context-switch accounting).
    last: Vec<Option<TaskId>>,
    busy: usize,
    runq: VecDeque<TaskId>,
    busy_time: u64,
    /// Time of the last busy-count change (for busy_time integration).
    last_change: u64,
}

#[derive(Debug)]
struct Sem {
    count: u32,
    cap: u32,
    waiters: VecDeque<TaskId>,
}

#[derive(Debug)]
struct MutexObj {
    owner: Option<TaskId>,
    waiters: VecDeque<TaskId>,
}

/// Discrete events driving the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    /// Call `step()` on the task (it holds a context).
    RunStep(TaskId),
    /// The task's in-flight slice finished; account and decide what's next.
    SliceDone(TaskId),
    /// Periodic idle-balancing pass.
    LoadBalance,
}

#[derive(Debug, PartialEq, Eq)]
struct QueuedEv {
    time: u64,
    seq: u64,
    ev: Ev,
}

// Min-heap by (time, seq).
impl Ord for QueuedEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}
impl PartialOrd for QueuedEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Error returned when every live task is blocked and no event can wake one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deadlock {
    /// Names of the blocked tasks.
    pub blocked: Vec<String>,
    /// Virtual time of detection.
    pub at: u64,
}

impl std::fmt::Display for Deadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deadlock at t={}: blocked tasks {:?}",
            self.at, self.blocked
        )
    }
}
impl std::error::Error for Deadlock {}

/// Kernel state (see module docs).
pub struct Kernel {
    pub(crate) cfg: MachineConfig,
    now: u64,
    seq: u64,
    events: BinaryHeap<QueuedEv>,
    /// Number of queued events that are not `LoadBalance` (deadlock probe).
    live_events: usize,
    pub(crate) meta: Vec<TaskMeta>,
    cpus: Vec<Cpu>,
    sems: Vec<Sem>,
    mutexes: Vec<MutexObj>,
    done_count: usize,
    ctx_switches: u64,
    migrations: u64,
    voluntary_yields: u64,
}

impl Kernel {
    pub(crate) fn new(cfg: MachineConfig) -> Self {
        cfg.validate();
        let cpus = (0..cfg.num_cores)
            .map(|_| Cpu {
                slots: vec![None; cfg.smt_ways],
                last: vec![None; cfg.smt_ways],
                ..Default::default()
            })
            .collect();
        Kernel {
            cfg,
            now: 0,
            seq: 0,
            events: BinaryHeap::new(),
            live_events: 0,
            meta: Vec::new(),
            cpus,
            sems: Vec::new(),
            mutexes: Vec::new(),
            done_count: 0,
            ctx_switches: 0,
            migrations: 0,
            voluntary_yields: 0,
        }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    #[inline]
    pub(crate) fn set_now(&mut self, t: u64) {
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
    }

    pub(crate) fn push_event(&mut self, time: u64, ev: Ev) {
        if ev != Ev::LoadBalance {
            self.live_events += 1;
        }
        self.seq += 1;
        self.events.push(QueuedEv {
            time,
            seq: self.seq,
            ev,
        });
    }

    pub(crate) fn pop_event(&mut self) -> Option<(u64, Ev)> {
        let q = self.events.pop()?;
        if q.ev != Ev::LoadBalance {
            self.live_events -= 1;
        }
        Some((q.time, q.ev))
    }

    #[inline]
    pub(crate) fn live_events(&self) -> usize {
        self.live_events
    }

    #[inline]
    pub(crate) fn done_count(&self) -> usize {
        self.done_count
    }

    /// Register a task; returns its id. `pin` optionally pins it to a core.
    pub(crate) fn add_task_meta(&mut self, name: String, pin: Option<usize>) -> TaskId {
        if let Some(c) = pin {
            assert!(c < self.cfg.num_cores, "pin target {c} out of range");
        }
        let id = TaskId(self.meta.len() as u32);
        self.meta.push(TaskMeta {
            name,
            state: TState::Blocked, // made runnable at machine start
            pin,
            last_cpu: None,
            ran_in_quantum: 0,
            extra_cost: 0,
            pending: PendingBlock::None,
            woken: false,
            cpu_time: 0,
            work: [0; 5],
            time_by_tag: [0; 5],
            overhead_work: 0,
        });
        id
    }

    /// Create a semaphore with an initial count and a saturation cap
    /// (binary semaphore: `cap = 1`).
    pub fn add_sem(&mut self, initial: u32, cap: u32) -> SemId {
        assert!(cap >= 1 && initial <= cap);
        let id = SemId(self.sems.len() as u32);
        self.sems.push(Sem {
            count: initial,
            cap,
            waiters: VecDeque::new(),
        });
        id
    }

    /// Tokens currently held by a semaphore plus its blocked-waiter count
    /// (diagnostics for stall dumps).
    pub fn sem_state(&self, sem: SemId) -> (u32, usize) {
        let s = &self.sems[sem.0 as usize];
        (s.count, s.waiters.len())
    }

    /// Create a mutex.
    pub fn add_mutex(&mut self) -> MutexId {
        let id = MutexId(self.mutexes.len() as u32);
        self.mutexes.push(MutexObj {
            owner: None,
            waiters: VecDeque::new(),
        });
        id
    }

    // ---- scheduling -----------------------------------------------------

    fn cpu_load(&self, cpu: usize) -> usize {
        self.cpus[cpu].busy + self.cpus[cpu].runq.len()
    }

    /// Place a task in a runqueue and dispatch if a context is free.
    pub(crate) fn make_runnable(&mut self, task: TaskId) {
        let m = &self.meta[task.index()];
        debug_assert!(
            matches!(m.state, TState::Blocked),
            "make_runnable on {:?} in state {:?}",
            m.name,
            m.state
        );
        let cpu = match m.pin {
            Some(c) => c,
            None => {
                // Wake balancing: prefer the last core (cache affinity) if it
                // is the least loaded; otherwise least-loaded core overall.
                let mut best = m.last_cpu.unwrap_or(0).min(self.cfg.num_cores - 1);
                let mut best_load = self.cpu_load(best);
                for c in 0..self.cfg.num_cores {
                    let l = self.cpu_load(c);
                    if l < best_load {
                        best = c;
                        best_load = l;
                    }
                }
                best
            }
        };
        self.meta[task.index()].state = TState::Runnable { cpu };
        self.cpus[cpu].runq.push_back(task);
        self.try_dispatch(cpu);
    }

    /// Fill idle SMT slots of `cpu` from its runqueue. When the local queue
    /// is empty, pull a waiting *unpinned* task from the most loaded core
    /// (CFS "newidle" balancing) — this is what lets the No-Affinity policy
    /// eventually find idle cores, at a migration cost.
    pub(crate) fn try_dispatch(&mut self, cpu: usize) {
        while self.cpus[cpu].busy < self.cfg.smt_ways {
            if self.cpus[cpu].runq.is_empty() && !self.steal_into(cpu) {
                break;
            }
            let Some(task) = self.cpus[cpu].runq.pop_front() else {
                break;
            };
            let slot = self.cpus[cpu]
                .slots
                .iter()
                .position(Option::is_none)
                .expect("busy < smt_ways implies a free slot");
            self.touch_busy(cpu);
            self.cpus[cpu].slots[slot] = Some(task);
            self.cpus[cpu].busy += 1;
            let m = &mut self.meta[task.index()];
            m.state = TState::Running { cpu, slot };
            m.ran_in_quantum = 0;
            if self.cpus[cpu].last[slot] != Some(task) {
                m.extra_cost += CONTEXT_SWITCH;
                self.ctx_switches += 1;
            }
            if m.last_cpu.is_some() && m.last_cpu != Some(cpu) {
                // Cache refill on a task's first slice after it changed
                // cores (explicit re-pinning included).
                const MIGRATION: u64 = 4_000;
                m.extra_cost += MIGRATION;
                self.migrations += 1;
            }
            m.last_cpu = Some(cpu);
            self.cpus[cpu].last[slot] = Some(task);
            self.push_event(self.now, Ev::RunStep(task));
        }
    }

    /// Pull one unpinned waiting task from the most loaded other core into
    /// `cpu`'s runqueue. Returns whether a task was stolen.
    fn steal_into(&mut self, cpu: usize) -> bool {
        let mut donor: Option<(usize, usize)> = None; // (cpu, qlen)
        for c in 0..self.cfg.num_cores {
            if c == cpu {
                continue;
            }
            let qlen = self.cpus[c].runq.len();
            if qlen > donor.map_or(0, |(_, l)| l)
                && self.cpus[c]
                    .runq
                    .iter()
                    .any(|&t| self.meta[t.index()].pin.is_none())
            {
                donor = Some((c, qlen));
            }
        }
        let Some((d, _)) = donor else {
            return false;
        };
        let pos = self.cpus[d]
            .runq
            .iter()
            .position(|&t| self.meta[t.index()].pin.is_none())
            .expect("donor has an unpinned task");
        let task = self.cpus[d].runq.remove(pos).expect("valid position");
        self.meta[task.index()].state = TState::Runnable { cpu };
        self.cpus[cpu].runq.push_back(task);
        true
    }

    /// Integrate busy-time before a busy-count change on `cpu`.
    fn touch_busy(&mut self, cpu: usize) {
        let c = &mut self.cpus[cpu];
        c.busy_time += (self.now - c.last_change) * c.busy as u64;
        c.last_change = self.now;
    }

    /// Release the context a running task occupies.
    pub(crate) fn free_context(&mut self, task: TaskId) {
        let TState::Running { cpu, slot } = self.meta[task.index()].state else {
            panic!(
                "free_context on non-running task {}",
                self.meta[task.index()].name
            );
        };
        self.touch_busy(cpu);
        self.cpus[cpu].slots[slot] = None;
        self.cpus[cpu].busy -= 1;
        self.meta[task.index()].state = TState::Blocked;
        self.try_dispatch(cpu);
    }

    /// Charge `cost` work units (plus any one-shot extra) to a running task;
    /// returns the scaled duration.
    pub(crate) fn charge(&mut self, task: TaskId, cost: u64, tag: WorkTag) -> u64 {
        let TState::Running { cpu, .. } = self.meta[task.index()].state else {
            panic!("charge on non-running task");
        };
        let busy = self.cpus[cpu].busy.max(1);
        let speed = self.cfg.smt_speed(busy);
        let m = &mut self.meta[task.index()];
        let extra = m.extra_cost;
        m.extra_cost = 0;
        m.work[tag.index()] += cost;
        m.overhead_work += extra;
        let duration = (((cost + extra) as f64) / speed).ceil() as u64;
        m.cpu_time += duration;
        m.time_by_tag[tag.index()] += duration;
        m.ran_in_quantum += duration;
        duration
    }

    // ---- synchronization ------------------------------------------------

    /// Attempt a semaphore wait for a running task. Returns the pending
    /// outcome recorded for its in-flight syscall.
    pub(crate) fn sem_wait_begin(&mut self, task: TaskId, sem: SemId) {
        let s = &mut self.sems[sem.0 as usize];
        let m = &mut self.meta[task.index()];
        m.woken = false;
        if s.count > 0 {
            s.count -= 1;
            m.pending = PendingBlock::Acquired;
        } else {
            s.waiters.push_back(task);
            m.pending = PendingBlock::Block;
        }
    }

    /// Post a semaphore: wake the first waiter or bump the count.
    pub fn sem_post(&mut self, sem: SemId) {
        let s = &mut self.sems[sem.0 as usize];
        if let Some(w) = s.waiters.pop_front() {
            self.wake(w);
        } else {
            s.count = (s.count + 1).min(s.cap);
        }
    }

    pub(crate) fn mutex_lock_begin(&mut self, task: TaskId, mutex: MutexId) {
        let mx = &mut self.mutexes[mutex.0 as usize];
        let m = &mut self.meta[task.index()];
        m.woken = false;
        if mx.owner.is_none() {
            mx.owner = Some(task);
            m.pending = PendingBlock::Acquired;
        } else {
            assert_ne!(mx.owner, Some(task), "recursive mutex lock");
            mx.waiters.push_back(task);
            m.pending = PendingBlock::Block;
        }
    }

    /// Unlock a mutex, transferring ownership to the first waiter.
    pub fn mutex_unlock(&mut self, mutex: MutexId, me: TaskId) {
        let mx = &mut self.mutexes[mutex.0 as usize];
        assert_eq!(mx.owner, Some(me), "unlock of mutex not held");
        if let Some(w) = mx.waiters.pop_front() {
            mx.owner = Some(w);
            self.wake(w);
        } else {
            mx.owner = None;
        }
    }

    /// Wake a task: either it is parked (make it runnable) or its blocking
    /// syscall is still in flight (flag it to continue).
    fn wake(&mut self, task: TaskId) {
        match self.meta[task.index()].state {
            TState::Blocked => self.make_runnable(task),
            TState::Running { .. } | TState::Runnable { .. } => {
                self.meta[task.index()].woken = true;
            }
            TState::Done => panic!("waking finished task {}", self.meta[task.index()].name),
        }
    }

    /// Re-pin (or unpin) a task. Running tasks migrate at their next slice
    /// boundary; queued tasks are moved immediately.
    pub fn set_affinity(&mut self, task: TaskId, core: Option<usize>) {
        if let Some(c) = core {
            assert!(c < self.cfg.num_cores, "core {c} out of range");
        }
        let old_state = self.meta[task.index()].state;
        self.meta[task.index()].pin = core;
        if let TState::Runnable { cpu } = old_state {
            if core != Some(cpu) && core.is_some() {
                // Remove from the old runqueue and re-place.
                self.cpus[cpu].runq.retain(|&t| t != task);
                self.meta[task.index()].state = TState::Blocked;
                self.make_runnable(task);
            }
        }
    }

    /// Pin of a task (observability for tests).
    pub fn pin_of(&self, task: TaskId) -> Option<usize> {
        self.meta[task.index()].pin
    }

    // ---- slice lifecycle (driven by Machine) ----------------------------

    /// Handle the end of a slice for a task that stays runnable: preempt if
    /// its quantum expired and someone waits; otherwise let it continue.
    /// Also applies any pending re-pin. Returns `true` if the task should
    /// step again right now.
    pub(crate) fn slice_done_continue(&mut self, task: TaskId) -> bool {
        let TState::Running { cpu, .. } = self.meta[task.index()].state else {
            panic!("slice_done for non-running task");
        };
        let pin = self.meta[task.index()].pin;
        if let Some(target) = pin {
            if target != cpu {
                // Migrate to the newly pinned core.
                self.free_context(task);
                self.make_runnable(task);
                return false;
            }
        }
        if self.meta[task.index()].ran_in_quantum >= self.cfg.quantum
            && !self.cpus[cpu].runq.is_empty()
        {
            // Preempt: requeue at the tail.
            self.free_context(task);
            self.meta[task.index()].state = TState::Runnable { cpu };
            self.cpus[cpu].runq.push_back(task);
            self.try_dispatch(cpu);
            return false;
        }
        if self.meta[task.index()].ran_in_quantum >= self.cfg.quantum {
            self.meta[task.index()].ran_in_quantum = 0;
        }
        true
    }

    /// Take (and clear) the pending-block outcome of the task's in-flight
    /// syscall.
    pub(crate) fn take_pending(&mut self, task: TaskId) -> PendingBlock {
        std::mem::replace(&mut self.meta[task.index()].pending, PendingBlock::None)
    }

    /// Take (and clear) the raced-wake flag.
    pub(crate) fn take_woken(&mut self, task: TaskId) -> bool {
        std::mem::take(&mut self.meta[task.index()].woken)
    }

    /// Voluntary yield of a running task: it goes to the tail of its core's
    /// runqueue and the head of that queue takes the context. With nobody
    /// waiting there the task keeps running, like `sched_yield` — a yield is
    /// not an idle moment, so unlike [`Self::free_context`] it pulls nothing
    /// over from other cores.
    pub(crate) fn yield_context(&mut self, task: TaskId) {
        let TState::Running { cpu, .. } = self.meta[task.index()].state else {
            panic!("yield by non-running task");
        };
        self.voluntary_yields += 1;
        if self.cpus[cpu].runq.is_empty() {
            self.meta[task.index()].ran_in_quantum = 0;
            self.push_event(self.now, Ev::RunStep(task));
            return;
        }
        self.free_context(task);
        self.meta[task.index()].state = TState::Runnable { cpu };
        self.cpus[cpu].runq.push_back(task);
        self.try_dispatch(cpu);
    }

    /// Finish a task.
    pub(crate) fn finish(&mut self, task: TaskId) {
        self.free_context(task);
        self.meta[task.index()].state = TState::Done;
        self.done_count += 1;
    }

    /// CFS-like idle balance: move waiting unpinned tasks from overloaded
    /// runqueues to cores with idle contexts, one [`Self::steal_into`] at a
    /// time (an idle core's runqueue is empty, so it is never the donor).
    pub(crate) fn load_balance(&mut self) {
        while let Some(recv) = (0..self.cfg.num_cores)
            .find(|&c| self.cpus[c].busy < self.cfg.smt_ways && self.cpus[c].runq.is_empty())
        {
            if !self.steal_into(recv) {
                break;
            }
            self.try_dispatch(recv);
        }
    }

    /// `true` while at least one task is runnable or running.
    pub(crate) fn any_active(&self) -> bool {
        self.meta
            .iter()
            .any(|m| matches!(m.state, TState::Runnable { .. } | TState::Running { .. }))
    }

    pub(crate) fn blocked_names(&self) -> Vec<String> {
        self.meta
            .iter()
            .filter(|m| matches!(m.state, TState::Blocked))
            .map(|m| m.name.clone())
            .collect()
    }

    /// Build the final report.
    pub(crate) fn report(&mut self) -> Report {
        for c in 0..self.cfg.num_cores {
            self.touch_busy(c);
        }
        Report {
            virtual_ns: self.now,
            ctx_switches: self.ctx_switches,
            migrations: self.migrations,
            voluntary_yields: self.voluntary_yields,
            tasks: self
                .meta
                .iter()
                .map(|m| TaskReport {
                    name: m.name.clone(),
                    cpu_time: m.cpu_time,
                    work: m.work,
                    time_by_tag: m.time_by_tag,
                    overhead_work: m.overhead_work,
                    finished: matches!(m.state, TState::Done),
                })
                .collect(),
            cpus: self
                .cpus
                .iter()
                .map(|c| CpuReport {
                    busy_time: c.busy_time,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queued_events_pop_in_time_then_fifo_order() {
        let mut k = Kernel::new(MachineConfig::small(1, 1));
        k.push_event(10, Ev::LoadBalance);
        k.push_event(5, Ev::RunStep(TaskId(0)));
        k.push_event(5, Ev::RunStep(TaskId(1)));
        assert_eq!(k.pop_event(), Some((5, Ev::RunStep(TaskId(0)))));
        assert_eq!(k.pop_event(), Some((5, Ev::RunStep(TaskId(1)))));
        assert_eq!(k.pop_event(), Some((10, Ev::LoadBalance)));
        assert_eq!(k.pop_event(), None);
    }

    #[test]
    fn live_event_counter_ignores_load_balance() {
        let mut k = Kernel::new(MachineConfig::small(1, 1));
        k.push_event(1, Ev::LoadBalance);
        assert_eq!(k.live_events(), 0);
        k.push_event(1, Ev::RunStep(TaskId(0)));
        assert_eq!(k.live_events(), 1);
        k.pop_event();
        k.pop_event();
        assert_eq!(k.live_events(), 0);
    }

    #[test]
    fn sem_basic_counting() {
        let mut k = Kernel::new(MachineConfig::small(1, 1));
        let s = k.add_sem(1, 1);
        // Post on a full binary semaphore saturates.
        k.sem_post(s);
        assert_eq!(k.sems[0].count, 1);
    }

    #[test]
    fn a_yield_pulls_nothing_over_from_another_core() {
        let mut k = Kernel::new(MachineConfig::small(2, 1));
        let yielder = k.add_task_meta("yielder".into(), Some(0));
        let busy = k.add_task_meta("busy".into(), Some(1));
        let waiter = k.add_task_meta("waiter".into(), Some(1));
        for t in [yielder, busy, waiter] {
            k.make_runnable(t);
        }
        k.set_affinity(waiter, None); // stealable, queued behind `busy`
        k.yield_context(yielder);
        assert!(matches!(
            k.meta[yielder.index()].state,
            TState::Running { cpu: 0, .. }
        ));
        assert!(matches!(
            k.meta[waiter.index()].state,
            TState::Runnable { cpu: 1 }
        ));
        assert_eq!((k.voluntary_yields, k.ctx_switches), (1, 2));
        // Going idle, by contrast, does pull the waiter over.
        k.free_context(yielder);
        assert!(matches!(
            k.meta[waiter.index()].state,
            TState::Running { cpu: 0, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "pin target")]
    fn pin_out_of_range_rejected() {
        let mut k = Kernel::new(MachineConfig::small(2, 1));
        k.add_task_meta("t".into(), Some(5));
    }
}
