//! The simulation-thread task: the ROSS main loop plus the GVT round and
//! demand-driven scheduling state machine, for all six system
//! configurations.
//!
//! Each [`machine::Task::step`] call performs one slice — a main-loop cycle,
//! a GVT phase, a barrier arrival, a deactivation — on *real* Time Warp data
//! structures, and returns its modeled cost. The phase structure follows
//! §4.1: Wait-Free GVT rounds run phases A → Send → B → Aware → End;
//! activation happens in Aware (pseudo-controller), deactivation in End;
//! synchronous rounds use three blocking barrier points instead
//! (Bar0 → A → Bar1 → Aware → Bar2 → End). Every transition of the round
//! itself is a call on `pdes_core::sched::Round`, the code `thread-rt` runs.

use crate::config::{AffinityPolicy, GvtMode, Scheduler, SystemConfig};
use crate::shared::{Arrive, Op, Shared};
use machine::{Ctx, Step, Task, WorkTag};
use pdes_core::{
    CkptSink, EngineConfig, GvtBackoff, IdleTracker, Model, Msg, Outbound, Phase, ThreadEngine,
};
use std::cell::RefCell;
use std::rc::Rc;
use telemetry::{EventKind, Tracer};

/// One simulation thread.
pub struct SimThreadTask<M: Model> {
    tid: usize,
    engine: ThreadEngine<M>,
    shared: Rc<RefCell<Shared<M::Payload>>>,
    sys: SystemConfig,
    ecfg: EngineConfig,

    /// Where the thread is in its control loop ([`Phase::Cycle`] includes
    /// nothing of the round; `SendA`/`SendB` are the Wait-Free *Send* spins).
    phase: Phase,
    /// Cycles since the thread last joined a GVT round (drives the paper's
    /// 1-in-200-cycles trigger).
    cycles_since_gvt: u64,
    /// Algorithm 1's idle count and thread-local `active` flag.
    idle: IdleTracker,
    /// Consecutive idle polls whether or not events are pending beyond the
    /// window (the yield tier's notion of blocked).
    idle_polls: u64,
    /// Round id this thread last joined.
    joined_round: Option<u64>,
    /// Wall time when the thread joined the current round.
    round_enter_ns: u64,
    /// Liveness watchdog: last observed (gvt_rounds, gvt).
    wd_last: (u64, pdes_core::VirtualTime),
    /// Virtual time of the last watchdog observation change.
    wd_last_change_ns: u64,
    inbox: Vec<Msg<M::Payload>>,
    outbox: Vec<Outbound<M::Payload>>,
    /// ROSS 7 O'clock no-change backoff of the round interval (inert unless
    /// `ecfg.gvt_max_no_change > 0`).
    backoff: GvtBackoff,
    /// Scratch for kernel ops queued while `shared` is borrowed.
    ops: Vec<Op>,
    /// Checkpoint deposit store (shared by all sim threads of the run).
    ckpt: Rc<CkptSink<M>>,
    /// Work cycles completed — the clock scripted worker kills fire on.
    total_cycles: u64,
    /// Telemetry tracer (no-op unless the run enabled telemetry).
    /// Timestamps here are *virtual* nanoseconds (`ctx.now()`).
    tracer: Tracer,
    /// Virtual time the current GVT phase started.
    ph_ns: u64,
    /// Virtual time the thread parked (for the Park span).
    park_ns: u64,
    /// The yield tier fired on the last cycle: the next step — after the
    /// phase-A fold, when that cycle also joined a round — is [`Step::Yield`].
    yield_pending: bool,
}

impl<M: Model> SimThreadTask<M> {
    pub fn new(
        tid: usize,
        engine: ThreadEngine<M>,
        shared: Rc<RefCell<Shared<M::Payload>>>,
        sys: SystemConfig,
        ecfg: EngineConfig,
        ckpt: Rc<CkptSink<M>>,
    ) -> Self {
        let tracer = shared.borrow().telemetry.tracer(tid);
        let idle = IdleTracker::new(ecfg.zero_counter_threshold);
        SimThreadTask {
            tid,
            engine,
            shared,
            sys,
            ecfg,
            phase: Phase::Cycle,
            cycles_since_gvt: 0,
            idle,
            idle_polls: 0,
            joined_round: None,
            round_enter_ns: 0,
            wd_last: (0, pdes_core::VirtualTime::ZERO),
            wd_last_change_ns: 0,
            inbox: Vec::new(),
            outbox: Vec::new(),
            backoff: GvtBackoff::default(),
            ops: Vec::new(),
            ckpt,
            total_cycles: 0,
            tracer,
            ph_ns: 0,
            park_ns: 0,
            yield_pending: false,
        }
    }

    /// Virtual-time liveness watchdog: trip when neither `gvt_rounds` nor
    /// `gvt` has changed within the configured bound of virtual time.
    /// Returns `true` when this call tripped — the run is then torn down
    /// (dump captured, everyone woken, this task heading to `Finishing`).
    fn watchdog_check(&mut self, sh: &mut Shared<M::Payload>, now: u64, ctx: &Ctx<'_>) -> bool {
        let Some(bound) = sh.watchdog_ns else {
            return false;
        };
        let obs = (sh.round.rounds(), sh.round.gvt());
        if obs != self.wd_last {
            self.wd_last = obs;
            self.wd_last_change_ns = now;
            return false;
        }
        if sh.round.terminated() || now.saturating_sub(self.wd_last_change_ns) <= bound {
            return false;
        }
        let sem_tokens: Vec<u32> = sh.sems.iter().map(|&s| ctx.sem_state(s).0).collect();
        let reason = format!(
            "no GVT progress for {} virtual ns (bound {bound})",
            now - self.wd_last_change_ns
        );
        sh.stall = Some(sh.build_stall_dump(&reason, &sem_tokens));
        self.tear_down(sh);
        self.phase = Phase::Finishing;
        true
    }

    /// Is the run over — final GVT, teardown, or a watchdog trip on this very
    /// check? Then this task is heading to `Finishing`.
    fn run_over(&mut self, sh: &mut Shared<M::Payload>, now: u64, ctx: &Ctx<'_>) -> bool {
        if sh.round.terminated() {
            self.phase = Phase::Finishing;
            return true;
        }
        self.watchdog_check(sh, now, ctx)
    }

    /// Emergency drain (watchdog trip, scripted kill): end the run and wake
    /// *every* sibling — including one wrongly marked active by a lost
    /// wake-up, which the normal termination broadcast (inactive threads
    /// only) would strand in `sem_wait`.
    fn tear_down(&mut self, sh: &mut Shared<M::Payload>) {
        sh.round.terminate();
        sh.controller_exit = true;
        let me = self.tid;
        self.ops
            .extend((0..sh.num_threads).filter(|&i| i != me).map(Op::Post));
    }

    /// Advance this task's work-cycle counter and ask the fault injector
    /// whether a scripted kill fires at the new count.
    fn tick_kill_clock(&mut self, sh: &Shared<M::Payload>) -> bool {
        self.total_cycles += 1;
        sh.plane.faults.should_kill(self.tid, self.total_cycles)
    }

    /// Drain the input queue (chaos-exempt when `clean`) and deliver it into
    /// the engine; what delivery sends waits in the outbox for
    /// [`Self::route`]. Returns (messages received, events rolled back).
    fn receive(&mut self, sh: &Shared<M::Payload>, clean: bool) -> (u64, u64) {
        self.inbox.clear();
        let n = if clean {
            sh.plane.drain_clean(self.tid, &mut self.inbox)
        } else {
            sh.plane.drain(self.tid, &mut self.inbox)
        };
        let mut rolled = 0u64;
        self.outbox.clear();
        for m in self.inbox.drain(..) {
            rolled += self.engine.deliver(m, &mut self.outbox).rolled_back as u64;
        }
        (n as u64, rolled)
    }

    /// Push the outbox into the destination queues; returns how many.
    fn route(&mut self, sh: &Shared<M::Payload>) -> u64 {
        let sends = self.outbox.len() as u64;
        for (dst, msg) in self.outbox.drain(..) {
            sh.plane.push_msg(self.tid, dst.index(), msg);
        }
        sends
    }

    /// One main-loop cycle: drain the input queue, process a batch, route
    /// sends. Returns (cost, cycles_advanced, useful, give_up) — the last is
    /// the yield tier's verdict on the cycle.
    fn do_cycle(&mut self, sh: &mut Shared<M::Payload>, now: u64) -> (u64, u64, bool, bool) {
        let c = sh.cost.clone();
        let (n_msgs, mut rolled) = self.receive(sh, false);
        let batch = self
            .engine
            .process_batch(self.ecfg.batch_size, &mut self.outbox);
        let sends = self.route(sh);
        rolled += batch.rolled_back as u64;

        let idle = n_msgs == 0 && batch.processed == 0;
        // Algorithm 1, read_message_count: track consecutive empty cycles.
        let cycles = if idle {
            c.idle_polls_per_step.max(1)
        } else {
            1
        };
        let polls = if idle { cycles } else { 0 };
        self.idle.observe(polls, !self.engine.has_live_pending());
        self.idle_polls = if idle { self.idle_polls + cycles } else { 0 };

        let cost = c.poll * cycles
            + c.recv_msg * n_msgs
            + c.proc_event * batch.processed as u64
            + c.send_msg * sends
            + c.rollback_event * rolled;
        if self.tracer.enabled() {
            // The cycle occupies [now, now + cost] in virtual time.
            if batch.processed > 0 {
                self.tracer.span(
                    EventKind::EventBatch,
                    now,
                    now + cost,
                    batch.processed as u64,
                );
            }
            if rolled > 0 {
                self.tracer
                    .span(EventKind::Rollback, now, now + cost, rolled);
            }
        }
        let give_up = sh
            .yield_tier
            .should_yield(self.idle_polls, batch.processed as u64, rolled);
        (cost, cycles, !idle, give_up)
    }

    /// Enact the yield tier: the `sched_yield` call is charged to the
    /// current slice (returned) and the next step hands the context over.
    fn arm_yield(&mut self, sh: &mut Shared<M::Payload>) -> u64 {
        self.yield_pending = true;
        sh.dbg_yields[self.tid] += 1;
        sh.cost.sched_op
    }

    /// Drain + fold the engine minimum into the open round.
    fn drain_and_fold(&mut self, sh: &mut Shared<M::Payload>) -> u64 {
        let c = sh.cost.clone();
        let (n, rolled) = self.receive(sh, false);
        let sends = self.route(sh);
        let local = self.engine.local_min();
        sh.round.fold(&sh.plane, self.tid, local);
        if self.tracer.enabled() {
            sh.board.publish(self.tid, local, self.engine.stats());
        }
        c.gvt_phase + c.recv_msg * n + c.send_msg * sends + c.rollback_event * rolled
    }

    /// Pseudo-controller duties at Aware: new GVT, termination, activation.
    /// Returns the cost.
    fn aware_duties(&mut self, sh: &mut Shared<M::Payload>) -> u64 {
        let c = sh.cost.clone();
        let mut cost = c.gvt_phase;
        sh.round.publish(&sh.plane, &sh.demand);
        // Admit scripted external arrivals against the floor just published
        // (same Aware-phase slot as the real runtimes' ingest pump).
        let injected = sh.pump_ingest();
        cost += c.recv_msg * injected;
        sh.round.ckpt_publish(sh.members.id);
        if sh.round.terminated() {
            sh.release_all_for_termination(&mut self.ops);
            cost += c.sched_op * self.ops.len() as u64;
        } else if matches!(self.sys.scheduler, Scheduler::GgPdes) {
            // Algorithm 2 — the scan itself costs per entry.
            let activated = sh.activate_queued(&mut self.ops);
            cost += c.scan_per_thread / 4 * sh.num_threads as u64 + c.sched_op * activated as u64;
        }
        cost
    }

    /// Phase End, shared by both GVT modes. Returns the follow-up step
    /// (work, or the blocking step of a deactivation).
    fn end_duties(&mut self, sh: &mut Shared<M::Payload>, now: u64) -> Step {
        let c = sh.cost.clone();
        let mut cost = c.gvt_phase;
        let trace = self.tracer.enabled();
        // The one rule the machine does not share with real threads (DESIGN
        // §17): an armed round whose GVT ends the run deposits no cut — it is
        // redundant, and charging for it would move every pinned virtual time.
        if sh.round.ckpt_armed_for(sh.members.id) && !sh.round.terminated() {
            debug_assert!(sh.round.ckpt_ready(), "Aware precedes End");
            let cw0 = cost;
            // Armed round: this thread's share of the consistent cut. The
            // claimant published the round's GVT before any participant can
            // reach End (single-threaded machine), so it is final here. Drain
            // the input queue chaos-exempt and deliver, so every in-flight
            // message below the cut is inside the engine before the
            // snapshot; messages at or above GVT are delivered too but
            // excluded from the cut (their senders re-send them
            // deterministically after a restore).
            let (n, _) = self.receive(sh, true);
            self.route(sh);
            let g = sh.round.gvt();
            self.engine.fossil_collect(g);
            let part = self.engine.snapshot_at_gvt(g);
            cost += c.gvt_phase + c.recv_msg * n + c.proc_event * part.0.len() as u64;
            if let Err(e) = self.ckpt.deposit(
                sh.members.id,
                g,
                sh.round.rounds(),
                part,
                sh.members.participants,
                sh.plane.faults.cursor(),
            ) {
                eprintln!("[checkpoint] {e} (run continues)");
            }
            if trace {
                // The snapshot occupies [now + cw0, now + cost] virtually.
                self.tracer.span(
                    EventKind::CheckpointWrite,
                    now + cw0,
                    now + cost,
                    sh.members.id,
                );
            }
        } else {
            self.engine.fossil_collect(sh.round.gvt());
        }
        sh.gvt_wall_in_round += now.saturating_sub(self.round_enter_ns);
        self.backoff
            .observe(sh.round.gvt().ticks(), self.ecfg.gvt_max_no_change);
        let parkable = !self.engine.has_live_pending();
        let deact = self
            .idle
            .wants_park(self.sys, &sh.round, &sh.plane, self.tid, parkable);
        let rid = sh.members.id;
        if trace {
            // Refresh this thread's counters so a closing snapshot reflects
            // post-round totals.
            sh.board
                .publish(self.tid, self.engine.local_min(), self.engine.stats());
        }
        let closed = sh.end_phase();
        if closed {
            sh.tel_round_snapshot(rid, now);
        }
        if closed && self.sys.affinity == AffinityPolicy::Dynamic && !sh.round.terminated() {
            // Algorithm 4: the table decides, the kernel ops enact.
            let mut pins = Vec::new();
            let demand = &sh.demand;
            let scanned = sh.aff.assign(|t| demand.is_active(t), &mut pins);
            let pinned = pins.len() as u64;
            self.ops
                .extend(pins.into_iter().map(|(t, core)| Op::Pin(t, core)));
            cost += c.affinity_op * pinned + (scanned as u64) * 8;
            if trace && pinned > 0 {
                self.tracer.instant(EventKind::Migrate, now + cost, pinned);
            }
        }
        if trace {
            self.tracer
                .span(EventKind::GvtEnd, self.ph_ns, now + cost, rid);
        }
        if sh.round.terminated() {
            self.phase = Phase::Finishing;
            return Step::work(cost, WorkTag::Gvt);
        }
        self.cycles_since_gvt = 0;
        if deact {
            match self.sys.scheduler {
                Scheduler::GgPdes => {
                    // Lock-free: phase coupling makes this safe (§4.1.4).
                    if sh.deactivate_self(self.tid, rid) {
                        self.note_parked(sh, now + cost);
                        self.phase = Phase::Parked;
                        return Step::SemWait(sh.sems[self.tid]);
                    }
                }
                Scheduler::DdPdes => {
                    // Serialized through the controller's global lock; leave
                    // the GVT group first so no round waits on us while we
                    // block on the mutex.
                    sh.dd_unsubscribe(self.tid);
                    self.phase = Phase::DdDeact;
                    let m = sh.dd_mutex.expect("DD systems have the lock");
                    return Step::MutexLock(m);
                }
                Scheduler::Baseline => unreachable!("baseline never deactivates"),
            }
        }
        self.phase = Phase::Cycle;
        Step::work(cost, WorkTag::Gvt)
    }

    /// A deactivation succeeded: when tracing, record where the Park span
    /// starts and an idle (∞) LVT.
    fn note_parked(&mut self, sh: &mut Shared<M::Payload>, span_start: u64) {
        if self.tracer.enabled() {
            self.park_ns = span_start;
            let idle = pdes_core::VirtualTime::INFINITY;
            sh.board.publish(self.tid, idle, self.engine.stats());
        }
    }

    /// Close the trace span `kind` of round `id` at `end_ns` and start the
    /// next one there (the tracer drops the record when tracing is off).
    fn mark(&mut self, kind: EventKind, end_ns: u64, id: u64) {
        self.tracer.span(kind, self.ph_ns, end_ns, id);
        self.ph_ns = end_ns;
    }

    /// Apply queued kernel ops through the machine context.
    fn apply_ops(&mut self, ctx: &mut Ctx<'_>) {
        for op in self.ops.drain(..) {
            match op {
                Op::Post(t) => {
                    let sem = self.shared.borrow().sems[t];
                    ctx.sem_post(sem);
                }
                Op::Pin(t, core) => {
                    ctx.set_affinity(machine::TaskId(t as u32), Some(core));
                }
            }
        }
    }
}

impl<M: Model> Task for SimThreadTask<M> {
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
        // A thread that joined a round on the cycle it gave up folds first:
        // that fold is what every peer of the round is blocked on.
        if self.yield_pending && self.phase != Phase::A {
            self.yield_pending = false;
            return Step::Yield;
        }
        let now = ctx.now();
        let shared = Rc::clone(&self.shared);
        let mut sh = shared.borrow_mut();
        debug_assert!(self.ops.is_empty());
        let phase = self.phase;
        sh.dbg_phase[self.tid] = phase;
        let sync = self.sys.gvt == GvtMode::Sync;
        let step = match phase {
            Phase::Cycle => {
                if self.run_over(&mut sh, now, ctx) {
                    Step::work(sh.cost.phase_check, WorkTag::Gvt)
                } else if self.tick_kill_clock(&sh) {
                    // Scripted worker death: tear the run down exactly as a
                    // crash would — uncommitted work on this thread is lost,
                    // siblings are woken to drain, and the runner reports the
                    // attempt as failed so a supervisor can recover it.
                    sh.killed = Some(self.tid);
                    self.tear_down(&mut sh);
                    self.phase = Phase::Dead;
                    Step::work(sh.cost.phase_check, WorkTag::Sched)
                } else {
                    let (mut cost, cycles, useful, give_up) = self.do_cycle(&mut sh, now);
                    self.cycles_since_gvt += cycles;
                    let mut tag = if useful { WorkTag::Sim } else { WorkTag::Spin };
                    // GVT trigger: the thread's own 1-in-`gvt_interval`
                    // counter, or an in-flight round whose participant
                    // snapshot is waiting for this thread.
                    let round_waiting = sh
                        .members
                        .waiting_for(self.tid)
                        .is_some_and(|id| self.joined_round != Some(id));
                    let interval = self
                        .ecfg
                        .round_interval(self.engine.history_len(), &self.backoff);
                    if (self.cycles_since_gvt >= interval as u64 || round_waiting)
                        && sh.members.subscribed[self.tid]
                    {
                        let participate = sh.ensure_round_open(self.tid, &mut self.ops);
                        let fresh = self.joined_round != Some(sh.members.id);
                        if participate && fresh {
                            self.joined_round = Some(sh.members.id);
                            sh.dbg_joined[self.tid] = self.joined_round;
                            self.round_enter_ns = now;
                            self.ph_ns = now;
                            self.phase = if sync { Phase::Bar0 } else { Phase::A };
                            tag = WorkTag::Gvt;
                        }
                    }
                    if give_up {
                        cost += self.arm_yield(&mut sh);
                    }
                    Step::work(cost, tag)
                }
            }

            // ---- the GVT round (Wait-Free, and Barrier between its bars) ----
            Phase::A => {
                assert!(
                    sh.members.waiting_for(self.tid) == self.joined_round
                        && self.joined_round.is_some(),
                    "t{} stale fold: joined={:?} {:?} {:?}",
                    self.tid,
                    self.joined_round,
                    sh.members,
                    sh.round,
                );
                let cost = self.drain_and_fold(&mut sh);
                self.mark(EventKind::GvtA, now + cost, sh.members.id);
                self.phase = if sync {
                    Phase::Bar1
                } else {
                    sh.round.arrive_a();
                    Phase::SendA
                };
                Step::work(cost, WorkTag::Gvt)
            }
            // Only an abnormal abort (watchdog trip, poisoned run) can terminate
            // while a participant still waits mid-round — normal termination
            // requires every `b_done` first. Escape instead of spinning on a
            // count that will never arrive. The watchdog check also lives
            // here: this *is* the stall loop under a lost wake-up (the
            // round's snapshot includes a thread that is parked and will
            // never fold).
            Phase::SendA | Phase::SendB if self.run_over(&mut sh, now, ctx) => {
                Step::work(sh.cost.phase_check, WorkTag::Gvt)
            }
            Phase::SendA | Phase::SendB => {
                // The *Send* phase: keep simulating while peers catch up.
                let (mut cost, _, useful, give_up) = self.do_cycle(&mut sh, now);
                let check = sh.cost.phase_check;
                let (done, kind, next) = if phase == Phase::SendA {
                    (sh.round.a_done(), EventKind::GvtSendA, Phase::B)
                } else {
                    (sh.round.b_done(), EventKind::GvtSendB, Phase::Aware)
                };
                if done == sh.members.participants {
                    self.mark(kind, now + cost, sh.members.id);
                    self.phase = next;
                } else if give_up {
                    cost += self.arm_yield(&mut sh);
                }
                let tag = if useful { WorkTag::Sim } else { WorkTag::Gvt };
                Step::work(cost + check, tag)
            }
            Phase::B => {
                let cost = self.drain_and_fold(&mut sh);
                sh.round.arrive_b();
                self.mark(EventKind::GvtB, now + cost, sh.members.id);
                self.phase = Phase::SendB;
                Step::work(cost, WorkTag::Gvt)
            }
            Phase::Aware => {
                if sync {
                    // As in thread-rt, the reduction-barrier wait is the B
                    // lane and the controller slice is Aware.
                    self.mark(EventKind::GvtB, now, sh.members.id);
                }
                let cost = if sh.round.claim_aware() {
                    self.aware_duties(&mut sh)
                } else {
                    sh.cost.phase_check
                };
                self.mark(EventKind::GvtAware, now + cost, sh.members.id);
                self.phase = if sync { Phase::Bar2 } else { Phase::End };
                Step::work(cost, WorkTag::Sched)
            }
            Phase::End => {
                if sync {
                    // The exit-barrier wait maps onto Send-B.
                    self.mark(EventKind::GvtSendB, now, sh.members.id);
                }
                self.end_duties(&mut sh, now)
            }
            Phase::Bar0 | Phase::Bar1 | Phase::Bar2 => {
                let (idx, next) = match phase {
                    Phase::Bar0 => (0, Phase::A),
                    Phase::Bar1 => (1, Phase::Aware),
                    _ => (2, Phase::End),
                };
                self.phase = next;
                match sh.barrier_arrive(self.tid, idx, &mut self.ops) {
                    Arrive::Proceed => Step::work(sh.cost.gvt_phase, WorkTag::Gvt),
                    Arrive::Park => Step::SemWait(sh.sems[self.tid]),
                }
            }

            // ---- demand-driven blocking paths ----------------------------
            Phase::DdDeact => {
                // Holding the DD global lock. `Round::deactivate` refuses if
                // the simulation terminated while we waited for it (the
                // wake-everyone broadcast has already run — finish instead)
                // or an armed checkpoint round force-subscribed us meanwhile
                // (its participant snapshot includes this thread, so parking
                // would wedge it — go fold into it instead); either way the
                // refusal undoes `dd_unsubscribe`.
                let m = sh.dd_mutex.expect("DD lock exists");
                let joined = self.joined_round.expect("deactivates at a round's End");
                let ok = sh.deactivate_self(self.tid, joined);
                if ok {
                    self.note_parked(&mut sh, now);
                }
                let (sem, over, cost) =
                    (sh.sems[self.tid], sh.round.terminated(), sh.cost.sched_op);
                drop(sh);
                ctx.mutex_unlock(m);
                if ok {
                    self.phase = Phase::Parked;
                    return Step::SemWait(sem);
                }
                self.phase = if over { Phase::Finishing } else { Phase::Cycle };
                return Step::work(cost, WorkTag::Sched);
            }
            Phase::Parked => {
                // A wake token proves nothing by itself: a fault plan may
                // post a parked thread without activating it (spurious
                // wake-up). Re-park unless the activator marked us active
                // or the run is over.
                if !sh.round.terminated() && !sh.demand.is_active(self.tid) {
                    let sem = sh.sems[self.tid];
                    drop(sh);
                    return Step::SemWait(sem);
                }
                // Woken: either reactivated (Algorithm 1 lines 14–17; the
                // activator already set the flags) or the simulation ended.
                if self.tracer.enabled() {
                    self.tracer
                        .span(EventKind::Park, self.park_ns, now, self.tid as u64);
                    self.tracer.instant(EventKind::Unpark, now, self.tid as u64);
                }
                self.idle.reintegrate();
                // `joined_round` stays untouched: it records the last round
                // this thread folded into. If the currently open round's
                // snapshot includes us (we were re-activated just before it
                // opened) its id is newer and we join it; if we already
                // completed the open round before parking, the ids match and
                // we correctly skip it.
                self.cycles_since_gvt = 0;
                self.phase = if sh.round.terminated() {
                    Phase::Finishing
                } else {
                    Phase::Cycle
                };
                Step::work(sh.cost.sched_op, WorkTag::Sched)
            }

            Phase::Finishing => {
                self.engine.finalize();
                sh.final_stats[self.tid] = Some(self.engine.stats().clone());
                sh.final_digests[self.tid] = self.engine.state_digests();
                sh.telemetry
                    .deposit(std::mem::replace(&mut self.tracer, Tracer::disabled()));
                Step::Done
            }
            Phase::Dead | Phase::Done => Step::Done,
        };
        drop(sh);
        self.apply_ops(ctx);
        step
    }
}
