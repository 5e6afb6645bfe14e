//! The per-thread worker: the ROSS main loop plus GVT rounds and
//! demand-driven scheduling, executed inline on a real OS thread. Generic
//! over the synchronisation [`Protocol`]; everything protocol-specific goes
//! through that trait's hooks.

use crate::affinity::{current_tid, num_cores, pin_or_count, OsTid};
use crate::protocol::Protocol;
use crate::runner::RtRunConfig;
use crate::shared::RtShared;
use pdes_core::plane::lock;
use pdes_core::{
    AffinityPolicy, CkptSink, GvtMode, Model, Participant, Phase, Round, Scheduler, SystemConfig,
    ThreadEngine, ThreadResult, VirtualTime,
};
use std::sync::atomic::Ordering;
use std::time::Instant;
use telemetry::{EventKind, Tracer};

/// Simulation thread `me`: its half of the round ([`Participant`]: engine,
/// buffers, the send batcher, idle bookkeeping and the steps the virtual
/// machine runs too) plus what real threads add — the tracer's wall clock,
/// the idle ladder.
struct Worker<'a, M: Model, P: Protocol<M>> {
    me: usize,
    p: Participant<M>,
    sh: &'a RtShared<M::Payload>,
    proto: &'a P,
    tracer: Tracer,
    /// Where the trace span being timed began (see [`Self::mark`]).
    span_start: u64,
    idle_spins: u32,
}

impl<'a, M: Model, P: Protocol<M>> Worker<'a, M, P> {
    /// One main-loop cycle; returns whether it did useful work.
    fn cycle(&mut self) -> bool {
        let (me, sh) = (self.me, self.sh);
        // Tracing a cycle costs two clock reads and two counter loads, paid
        // only when telemetry is on (the tracer's own calls are branches).
        let trace = self.tracer.enabled();
        let (t0, rb0) = if trace {
            (sh.now_ns(), self.p.engine.stats().rolled_back)
        } else {
            (0, 0)
        };
        let horizon = self.proto.horizon(me, sh);
        let (n, _) = self.p.receive(sh, false);
        let batch = self.proto.process(
            me,
            horizon,
            &mut self.p.engine,
            self.p.ecfg.batch_size,
            &mut self.p.outbox,
        );
        // Flush at the cycle boundary: the batch above either advanced LVT
        // (processed events) or the thread is about to go idle — in both
        // cases the peer must see this cycle's sends now. Batch-full
        // overflow within the cycle already flushed inline.
        self.p.land(sh);
        if trace {
            let undone = self.p.engine.stats().rolled_back - rb0;
            if batch.processed > 0 || undone > 0 {
                let t1 = sh.now_ns();
                if batch.processed > 0 {
                    self.tracer
                        .span(EventKind::EventBatch, t0, t1, batch.processed as u64);
                }
                if undone > 0 {
                    self.tracer.span(EventKind::Rollback, t0, t1, undone);
                }
            }
        }
        let idle = n == 0 && batch.processed == 0;
        self.p.observe_idle(idle as u64);
        if idle {
            // A blocked thread (live pending beyond its horizon) is just as
            // idle as an empty one: it is waiting on a peer to move a GVT
            // phase or a channel clock forward. On an oversubscribed host a
            // hard spin here costs the peer a full scheduler slice per
            // handoff, which dwarfs the event work — so escalate spin →
            // yield → timed park and give the slice back.
            self.idle_spins += 1;
            if self.idle_spins >= 1024 {
                std::thread::park_timeout(std::time::Duration::from_micros(50));
            } else if self.idle_spins.is_multiple_of(64) {
                // This worker is the slot's only writer; the stall dump and
                // the run's metrics read it.
                sh.yields[me].fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        } else {
            self.idle_spins = 0;
        }
        !idle
    }

    /// Close the trace span `kind` of round `id` at now and start the next
    /// one there (no-op when tracing is off).
    fn mark(&mut self, kind: EventKind, id: u64) {
        if self.tracer.enabled() {
            let now = self.sh.now_ns();
            self.tracer.span(kind, self.span_start, now, id);
            self.span_start = now;
        }
    }

    /// Record this thread's minimum (pending set + send window) in round
    /// `id`; `kind` is the phase span the fold closes.
    fn fold(&mut self, kind: EventKind, id: u64) {
        let sh = self.sh;
        self.p.fold(sh, &sh.round, self.board());
        self.mark(kind, id);
    }

    /// The round board, when tracing (nothing publishes to it otherwise).
    fn board(&self) -> Option<&'a telemetry::RoundBoard> {
        self.tracer.enabled().then_some(&self.sh.board)
    }

    /// Phase Send: simulate while peers record their minima. Escapes on
    /// `terminated` so a watchdog trip (or poisoned sibling) cannot strand
    /// this spin forever.
    fn simulate_until(&mut self, done: fn(&Round) -> usize, parts: usize) {
        while done(&self.sh.round) < parts && !self.sh.round.terminated() {
            self.cycle();
        }
    }

    /// Phase Aware: the first thread through becomes pseudo-controller and
    /// publishes the GVT, admits ingest, then runs the round's Aware tail
    /// (release checkpoint snapshotters; broadcast termination or activate).
    fn aware(&mut self, sys: SystemConfig, id: u64) {
        let sh = self.sh;
        if sh.round.claim_aware() {
            sh.compute_gvt();
            // Admit external events against the floor just published —
            // before the checkpoint handshake, so an armed round's cut
            // either drains the injected event into an engine (where
            // `send_time = cut GVT` keeps it out of the snapshot) or journal
            // replay covers it; either way exactly one copy survives a
            // restore.
            sh.pump_ingest();
            // The tail unblocks End-phase snapshotters even when this GVT
            // also terminates the run — the final cut is still a valid (if
            // redundant) checkpoint — and the final GVT stops the DD
            // controller too.
            if sh.round.terminated() {
                sh.controller_exit.store(true, Ordering::Release);
            }
            sh.round.aware_tail(
                sys,
                &mut lock(&sh.membership),
                &sh.demand,
                &sh.faults,
                |i| self.proto.has_demand(sh, i),
                |i| sh.sems[i].post(),
            );
        }
        self.mark(EventKind::GvtAware, id);
    }

    /// The GVT round proper, from the first fold to the published GVT.
    fn gvt_round(&mut self, sys: SystemConfig, id: u64) {
        let (me, sh) = (self.me, self.sh);
        match sys.gvt {
            GvtMode::Async => {
                sh.set_phase(me, Phase::A);
                self.fold(EventKind::GvtA, id);
                sh.round.arrive_a();
                let parts = sh.participants();
                sh.set_phase(me, Phase::SendA);
                self.simulate_until(Round::a_done, parts);
                sh.set_phase(me, Phase::B);
                self.mark(EventKind::GvtSendA, id);
                self.fold(EventKind::GvtB, id);
                sh.round.arrive_b();
                sh.set_phase(me, Phase::SendB);
                self.simulate_until(Round::b_done, parts);
                sh.set_phase(me, Phase::Aware);
                self.mark(EventKind::GvtSendB, id);
                self.aware(sys, id);
            }
            GvtMode::Sync => {
                // Sync mode has no Send spins; map the three barriers onto
                // the same phase lanes so one trace vocabulary covers both
                // modes: fold = A, reduction barrier = B, controller = Aware,
                // exit barrier = Send-B.
                sh.set_phase(me, Phase::Bar0);
                sh.bars[0].wait();
                sh.set_phase(me, Phase::A);
                self.fold(EventKind::GvtA, id);
                sh.set_phase(me, Phase::Bar1);
                sh.bars[1].wait();
                sh.set_phase(me, Phase::Aware);
                self.mark(EventKind::GvtB, id);
                self.aware(sys, id);
                sh.set_phase(me, Phase::Bar2);
                sh.bars[2].wait();
                self.mark(EventKind::GvtSendB, id);
            }
        }
    }

    /// Phase End, first half: fossil-collect at the published GVT and, when
    /// round `id` was armed for a checkpoint at open time (with every thread
    /// force-woken into the participant set), capture this thread's share
    /// of a consistent cut.
    fn collect(&mut self, id: u64, ckpt: &CkptSink<M>) {
        let sh = self.sh;
        if !sh.ckpt_await(id) {
            self.p.engine.fossil_collect(sh.round.gvt());
            return;
        }
        let trace = self.tracer.enabled();
        let cw0 = if trace { sh.now_ns() } else { 0 };
        // The participant count is read (and the membership lock dropped)
        // before the cut: the lock is never held across a drain or a deposit.
        let participants = sh.participants();
        self.p.cut(sh, &sh.round, participants, ckpt);
        if trace {
            self.tracer
                .span(EventKind::CheckpointWrite, cw0, sh.now_ns(), id);
        }
    }

    /// Algorithm 1: de-schedule this thread until the activation scan finds
    /// demand for it again. Returns `false` when the run ended meanwhile.
    fn park(&mut self, sys: SystemConfig, id: u64) -> bool {
        let (me, sh) = (self.me, self.sh);
        if P::PARKS_WITH_PENDING {
            // Publish the pending floor *before* the membership transition:
            // any round opened after we unsubscribe acquires the membership
            // lock after us and therefore reads the floor — the reduction
            // can never overshoot events only we know about.
            sh.demand.set_park_min(me, self.p.engine.local_min());
        }
        let parked = match sys.scheduler {
            Scheduler::GgPdes => sh.deactivate_self(me, id),
            Scheduler::DdPdes => {
                sh.set_phase(me, Phase::DdDeact);
                let _g = lock(&sh.dd_lock);
                sh.deactivate_self(me, id)
            }
            Scheduler::Baseline => unreachable!("baseline never deactivates"),
        };
        if parked {
            sh.set_phase(me, Phase::Parked);
            let trace = self.tracer.enabled();
            let park0 = if trace { sh.now_ns() } else { 0 };
            self.p.publish(self.board(), VirtualTime::INFINITY);
            sh.sems[me].wait();
            // A wake token proves nothing by itself: a fault plan may post a
            // parked thread *without* activating it (spurious wake-up). Only
            // `active[me]` — set by the activator before the post — or
            // termination legitimises leaving the park.
            while !sh.demand.is_active(me) && !sh.round.terminated() {
                sh.sems[me].wait();
            }
            self.p.woke();
            if trace {
                let now = sh.now_ns();
                self.tracer.span(EventKind::Park, park0, now, id);
                self.tracer.instant(EventKind::Unpark, now, id);
            }
        }
        if P::PARKS_WITH_PENDING {
            // Woken, or refused (last active thread, or a newer round
            // already counts us): withdraw the floor, or the reduction
            // would be pinned below a thread that keeps running.
            sh.demand.clear_park_min(me);
        }
        !sh.round.terminated()
    }
}

/// Run simulation thread `me` to completion.
pub fn worker_loop<M: Model, P: Protocol<M>>(
    me: usize,
    engine: ThreadEngine<M>,
    sh: &RtShared<M::Payload>,
    proto: &P,
    rc: &RtRunConfig,
    ckpt: &CkptSink<M>,
) -> ThreadResult {
    let sys = rc.system;
    sh.os_tids[me].store(current_tid().0, Ordering::Release);
    let mut tracer = sh.telemetry.tracer(me);
    if sys.affinity == AffinityPolicy::Constant {
        // Algorithm 3: round-robin constant pinning at setup.
        let core = me % num_cores();
        if pin_or_count(current_tid(), core, &sh.pin_failures) {
            tracer.instant(EventKind::Pin, sh.now_ns(), core as u64);
        }
    }

    let mut w = Worker {
        me,
        p: Participant::new(engine, rc.engine.clone(), P::PARKS_WITH_PENDING),
        sh,
        proto,
        tracer,
        span_start: 0,
        idle_spins: 0,
    };
    let mut total_cycles: u64 = 0;

    loop {
        sh.set_phase(me, Phase::Cycle);
        if sh.round.terminated() {
            break;
        }
        total_cycles += 1;
        if sh.faults.should_kill(me, total_cycles) {
            // Scripted worker death: the panic unwinds through the runner's
            // catch guard, which poisons the shared state and reports
            // `RunError::WorkerPanicked` for the supervisor to recover from.
            panic!("fault-injected worker kill (thread {me}, cycle {total_cycles})");
        }
        w.cycle();

        // The membership lock covers the peek at the open round only.
        if !w.p.round_due(1, &lock(&sh.membership)) {
            continue;
        }
        let (participate, id) = sh.try_join_round(me);
        if !w.p.join(participate, id) {
            continue;
        }
        sh.note_joined(me, id);
        let enter = Instant::now();
        let trace = w.tracer.enabled();
        if trace {
            w.span_start = sh.now_ns();
        }
        w.gvt_round(sys, id);

        // Phase End.
        sh.set_phase(me, Phase::End);
        w.collect(id, ckpt);
        sh.gvt_wall_ns
            .fetch_add(enter.elapsed().as_nanos() as u64, Ordering::AcqRel);
        let terminated = sh.round.terminated();
        let wants_deact = w.p.end_tail(sys, sh, &sh.round, w.board());
        // The End tail is two calls around the close, so the membership
        // lock holds `Round::end_phase` and nothing else.
        let closed = sh.end_phase();
        if closed {
            // The closer stamps the per-round counter snapshot (no-op when
            // telemetry is off).
            sh.telemetry.close_round(
                &sh.board,
                id,
                sh.round.gvt().ticks(),
                sh.now_ns(),
                sh.demand.num_active(),
                (0..sh.num_threads).map(|i| sh.len(i)),
                sh.ingest.as_ref(),
            );
            if trace {
                proto.round_instants(sh, &mut w.tracer);
            }
        }
        if closed && sys.affinity == AffinityPolicy::Dynamic && !terminated {
            // Algorithm 4: the table decides, `sched_setaffinity` enacts.
            let mut pins = Vec::new();
            lock(&sh.aff).assign(|t| sh.demand.is_active(t), &mut pins);
            for &(t, core) in &pins {
                let tid = OsTid(sh.os_tids[t].load(Ordering::Acquire));
                pin_or_count(tid, core, &sh.pin_failures);
            }
            if trace && !pins.is_empty() {
                // Migration lands on the closer's lane: it repins siblings.
                w.tracer
                    .instant(EventKind::Migrate, sh.now_ns(), pins.len() as u64);
            }
        }
        w.mark(EventKind::GvtEnd, id);
        if terminated {
            break;
        }
        if wants_deact && !w.park(sys, id) {
            break;
        }
    }

    sh.set_phase(me, Phase::Done);
    let result = w.p.finish();
    sh.telemetry.deposit(w.tracer);
    result
}

/// The DD-PDES controller loop (dedicated thread).
pub(crate) fn controller_loop<P>(sh: &RtShared<P>) {
    loop {
        if sh.controller_exit.load(Ordering::Acquire) {
            return;
        }
        {
            let _g = lock(&sh.dd_lock);
            sh.activate_where(|i| sh.len(i) > 0);
        }
        std::thread::yield_now();
    }
}
