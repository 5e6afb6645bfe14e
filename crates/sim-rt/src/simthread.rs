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

use crate::config::{AffinityPolicy, GvtMode, Scheduler};
use crate::shared::{Arrive, Op, Shared};
use machine::{Ctx, Step, Task, WorkTag};
use pdes_core::{CkptSink, EngineConfig, Model, Participant, Phase, ThreadEngine, YieldCause};
use std::cell::RefCell;
use std::rc::Rc;
use telemetry::{EventKind, Tracer};

/// One simulation thread.
pub struct SimThreadTask<M: Model> {
    tid: usize,
    /// This thread's half of the round: engine, buffers, idle bookkeeping
    /// and the steps `thread-rt` runs too.
    p: Participant<M>,
    shared: Rc<RefCell<Shared<M::Payload>>>,

    /// Where the thread is in its control loop ([`Phase::Cycle`] includes
    /// nothing of the round; `SendA`/`SendB` are the Wait-Free *Send* spins).
    phase: Phase,
    /// Consecutive idle polls whether or not events are pending beyond the
    /// window (the yield tier's notion of blocked).
    idle_polls: u64,
    /// Wall time when the thread joined the current round.
    round_enter_ns: u64,
    /// Liveness watchdog: last observed (gvt_rounds, gvt).
    wd_last: (u64, pdes_core::VirtualTime),
    /// Virtual time of the last watchdog observation change.
    wd_last_change_ns: u64,
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
        engine: ThreadEngine<M>,
        shared: Rc<RefCell<Shared<M::Payload>>>,
        ecfg: EngineConfig,
        ckpt: Rc<CkptSink<M>>,
    ) -> Self {
        let tid = engine.tid().index();
        let tracer = shared.borrow().telemetry.tracer(tid);
        SimThreadTask {
            tid,
            p: Participant::new(engine, ecfg, false),
            shared,
            phase: Phase::Cycle,
            idle_polls: 0,
            round_enter_ns: 0,
            wd_last: (0, pdes_core::VirtualTime::ZERO),
            wd_last_change_ns: 0,
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

    /// One main-loop cycle: drain the input queue, process a batch, land
    /// sends. Returns (cost, cycles_advanced, useful, give_up) — the last is
    /// the yield tier's verdict on the cycle.
    fn do_cycle(
        &mut self,
        sh: &mut Shared<M::Payload>,
        now: u64,
    ) -> (u64, u64, bool, Option<YieldCause>) {
        let c = sh.cost.clone();
        let (n_msgs, mut rolled) = self.p.receive(&sh.plane, false);
        let batch = self
            .p
            .engine
            .process_batch(self.p.ecfg.batch_size, &mut self.p.outbox);
        let sends = self.p.land(&sh.plane);
        rolled += batch.rolled_back as u64;

        let idle = n_msgs == 0 && batch.processed == 0;
        // Algorithm 1, read_message_count: track consecutive empty cycles.
        let cycles = if idle {
            c.idle_polls_per_step.max(1)
        } else {
            1
        };
        let polls = if idle { cycles } else { 0 };
        self.p.observe_idle(polls);
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
        self.p.turnover.processed(batch.processed as u64);
        let give_up = sh.yield_tier.should_yield(
            self.idle_polls,
            batch.processed as u64,
            rolled,
            self.p.turnover,
        );
        (cost, cycles, !idle, give_up)
    }

    /// Enact the yield tier: the `sched_yield` call is charged to the
    /// current slice (returned) and the next step hands the context over.
    fn arm_yield(&mut self, sh: &mut Shared<M::Payload>, cause: YieldCause) -> u64 {
        self.yield_pending = true;
        self.p.turnover.restart(self.p.engine.pending_len());
        sh.dbg_yields[self.tid].count(cause);
        sh.cost.sched_op
    }

    /// A phase fold, priced.
    fn drain_and_fold(&mut self, sh: &mut Shared<M::Payload>) -> u64 {
        let board = self.tracer.enabled().then_some(&sh.board);
        let (n, rolled, sends) = self.p.fold(&sh.plane, &sh.plane, &sh.round, board);
        let c = &sh.cost;
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
        // The final GVT stops the DD controller too.
        sh.controller_exit |= sh.round.terminated();
        let (plane, ops) = (&sh.plane, &mut self.ops);
        let activated = sh.round.aware_tail(
            sh.sys,
            &mut sh.members,
            &sh.demand,
            &plane.faults,
            |i| plane.len(i) > 0,
            |i| ops.push(Op::Post(i)),
        );
        if sh.round.terminated() {
            cost += c.sched_op * self.ops.len() as u64;
        } else if matches!(sh.sys.scheduler, Scheduler::GgPdes) {
            // Algorithm 2 — the scan itself costs per entry.
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
            // reach End (single-threaded machine), so it is final here.
            let (plane, members) = (&sh.plane, sh.members.participants);
            let (n, lps) = self.p.cut(plane, plane, &sh.round, members, &self.ckpt);
            cost += c.gvt_phase + c.recv_msg * n + c.proc_event * lps;
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
            self.p.engine.fossil_collect(sh.round.gvt());
        }
        sh.gvt_wall_in_round += now.saturating_sub(self.round_enter_ns);
        let board = trace.then_some(&sh.board);
        let deact = self.p.end_tail(sh.sys, &sh.plane, &sh.round, board);
        let rid = sh.members.id;
        let closed = sh.end_phase();
        if closed {
            // The closer stamps the round's counter snapshot (no-op when
            // telemetry is off); `now` is virtual time here.
            sh.telemetry.close_round(
                &sh.board,
                rid,
                sh.round.gvt().ticks(),
                now,
                sh.demand.num_active(),
                (0..sh.num_threads).map(|i| sh.plane.len(i)),
                sh.ingest.as_ref().map(|ing| &ing.port),
            );
        }
        if closed && sh.sys.affinity == AffinityPolicy::Dynamic && !sh.round.terminated() {
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
        if deact {
            match sh.sys.scheduler {
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
        self.park_ns = span_start;
        let board = self.tracer.enabled().then_some(&sh.board);
        self.p.publish(board, pdes_core::VirtualTime::INFINITY);
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
        let sync = sh.sys.gvt == GvtMode::Sync;
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
                    let mut tag = if useful { WorkTag::Sim } else { WorkTag::Spin };
                    if self.p.round_due(cycles, &sh.members) && sh.members.subscribed[self.tid] {
                        let participate = sh.ensure_round_open(self.tid, &mut self.ops);
                        if self.p.join(participate, sh.members.id) {
                            sh.dbg_joined[self.tid] = self.p.joined();
                            self.round_enter_ns = now;
                            self.ph_ns = now;
                            self.phase = if sync { Phase::Bar0 } else { Phase::A };
                            tag = WorkTag::Gvt;
                        }
                    }
                    if let Some(cause) = give_up {
                        cost += self.arm_yield(&mut sh, cause);
                    }
                    Step::work(cost, tag)
                }
            }

            // ---- the GVT round (Wait-Free, and Barrier between its bars) ----
            Phase::A => {
                assert!(
                    sh.members.waiting_for(self.tid) == self.p.joined()
                        && self.p.joined().is_some(),
                    "t{} stale fold: joined={:?} {:?} {:?}",
                    self.tid,
                    self.p.joined(),
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
                } else if let Some(cause) = give_up {
                    cost += self.arm_yield(&mut sh, cause);
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
                let joined = self.p.joined().expect("deactivates at a round's End");
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
                // The span's `arg` is the round at whose End the thread
                // parked, as on real threads.
                let rid = self.p.joined().expect("parks at a round's End");
                self.tracer.span(EventKind::Park, self.park_ns, now, rid);
                self.tracer.instant(EventKind::Unpark, now, rid);
                self.p.woke();
                self.phase = if sh.round.terminated() {
                    Phase::Finishing
                } else {
                    Phase::Cycle
                };
                Step::work(sh.cost.sched_op, WorkTag::Sched)
            }

            Phase::Finishing => {
                sh.finals[self.tid] = Some(self.p.finish());
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
