//! The per-thread worker: the ROSS main loop plus GVT rounds and
//! demand-driven scheduling, executed inline on a real OS thread. Generic
//! over the synchronisation [`Protocol`]; everything protocol-specific goes
//! through that trait's hooks.

use crate::affinity::{current_tid, pin_or_count, OsTid};
use crate::batch::SendBatcher;
use crate::protocol::Protocol;
use crate::runner::RtRunConfig;
use crate::shared::RtShared;
use pdes_core::plane::lock;
use pdes_core::{
    AffinityPolicy, CkptSink, EngineConfig, GvtBackoff, GvtMode, IdleTracker, LpId, Model, Msg,
    Outbound, Phase, Round, Scheduler, SystemConfig, ThreadEngine, VirtualTime,
};
use std::sync::atomic::Ordering;
use std::time::Instant;
use telemetry::{EventKind, Tracer};

/// Result of one worker thread.
pub struct WorkerResult {
    pub stats: pdes_core::ThreadStats,
    pub digests: Vec<(LpId, u64)>,
}

/// Simulation thread `me`: its engine, its buffers and its idle bookkeeping.
struct Worker<'a, M: Model, P: Protocol<M>> {
    me: usize,
    engine: ThreadEngine<M>,
    sh: &'a RtShared<M::Payload>,
    proto: &'a P,
    ecfg: &'a EngineConfig,
    inbox: Vec<Msg<M::Payload>>,
    outbox: Vec<Outbound<M::Payload>>,
    /// Outgoing messages accumulate here and land as one bulk push per
    /// destination; see `crate::batch` for the coverage argument and the
    /// flush policy (cycle end, batch-full, before every GVT fold).
    batcher: SendBatcher<M::Payload>,
    tracer: Tracer,
    /// Where the trace span being timed began (see [`Self::mark`]).
    span_start: u64,
    /// Algorithm 1's idle count and `active` flag.
    idle: IdleTracker,
    idle_spins: u32,
}

impl<M: Model, P: Protocol<M>> Worker<'_, M, P> {
    /// One main-loop cycle; returns whether it did useful work.
    fn cycle(&mut self) -> bool {
        let (me, sh) = (self.me, self.sh);
        // Tracing a cycle costs two clock reads and two counter loads, paid
        // only when telemetry is on (the tracer's own calls are branches).
        let trace = self.tracer.enabled();
        let (t0, rb0) = if trace {
            (sh.now_ns(), self.engine.stats().rolled_back)
        } else {
            (0, 0)
        };
        let horizon = self.proto.horizon(me, sh);
        let n = self.receive(false);
        let batch = self.proto.process(
            me,
            horizon,
            &mut self.engine,
            self.ecfg.batch_size,
            &mut self.outbox,
        );
        // Flush at the cycle boundary: the batch above either advanced LVT
        // (processed events) or the thread is about to go idle — in both
        // cases the peer must see this cycle's sends now. Batch-full
        // overflow within the cycle already flushed inline.
        self.send();
        if trace {
            let undone = self.engine.stats().rolled_back - rb0;
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
        self.idle.observe(idle as u64, self.parkable());
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

    /// May this thread count idle polls toward parking, and park? Not while
    /// it holds live pending events, unless the protocol parks with them.
    fn parkable(&self) -> bool {
        P::PARKS_WITH_PENDING || !self.engine.has_live_pending()
    }

    /// Drain the input queue (chaos-exempt when `clean`: a checkpoint cut
    /// must pull in every cut-crossing message) and deliver it; what
    /// delivery sends waits in the outbox for [`Self::send`]. Returns the
    /// number of messages received.
    fn receive(&mut self, clean: bool) -> usize {
        self.inbox.clear();
        let n = if clean {
            self.sh.drain_clean(self.me, &mut self.inbox)
        } else {
            self.sh.drain(self.me, &mut self.inbox)
        };
        self.outbox.clear();
        for m in self.inbox.drain(..) {
            self.engine.deliver(m, &mut self.outbox);
        }
        n
    }

    /// Land the outbox in the destination queues, through the batcher.
    fn send(&mut self) {
        for (dst, msg) in self.outbox.drain(..) {
            self.batcher.buffer(self.sh, self.me, dst.index(), msg);
        }
        self.batcher.flush(self.sh);
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
        // The fold resets this thread's send window: everything buffered
        // must be in a queue before then.
        self.receive(false);
        self.send();
        let local = self.engine.local_min();
        self.sh.round.fold(self.sh, self.me, local);
        if self.tracer.enabled() {
            self.sh.board.publish(self.me, local, self.engine.stats());
        }
        self.mark(kind, id);
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
    /// publishes the GVT, admits ingest, releases checkpoint snapshotters,
    /// then broadcasts termination or (Algorithm 2) activates.
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
            // Unblock End-phase snapshotters even when this GVT also
            // terminates the run — the final cut is still a valid (if
            // redundant) checkpoint.
            sh.round.ckpt_publish(id);
            if sh.round.terminated() {
                sh.release_all_for_termination();
            } else if matches!(sys.scheduler, Scheduler::GgPdes) {
                sh.activate_where(|i| self.proto.has_demand(sh, i));
            }
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
            self.engine.fossil_collect(sh.round.gvt());
            return;
        }
        // A chaos-exempt drain first pulls in every cut-crossing message
        // (all of them are queued by now — any event processed after the
        // phase-B folds has recv ≥ GVT, so its sends do too), fossil
        // collection pins the committed state at the cut, and the snapshot
        // is deposited for assembly.
        let trace = self.tracer.enabled();
        let cw0 = if trace { sh.now_ns() } else { 0 };
        self.receive(true);
        self.send();
        let g = sh.round.gvt();
        self.engine.fossil_collect(g);
        let part = self.engine.snapshot_at_gvt(g);
        let cursor = sh.faults.cursor();
        if let Err(e) = ckpt.deposit(id, g, sh.round.rounds(), part, sh.participants(), cursor) {
            eprintln!("[checkpoint] {e} (run continues)");
        }
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
            sh.demand.set_park_min(me, self.engine.local_min());
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
            if trace {
                // An idle LVT is ∞: round snapshots render it as such.
                sh.board
                    .publish(me, VirtualTime::INFINITY, self.engine.stats());
            }
            sh.sems[me].wait();
            // A wake token proves nothing by itself: a fault plan may post a
            // parked thread *without* activating it (spurious wake-up). Only
            // `active[me]` — set by the activator before the post — or
            // termination legitimises leaving the park.
            while !sh.demand.is_active(me) && !sh.round.terminated() {
                sh.sems[me].wait();
            }
            self.idle.reintegrate();
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
) -> WorkerResult {
    let (sys, ecfg) = (rc.system, &rc.engine);
    sh.os_tids[me].store(current_tid().0, Ordering::Release);
    let mut tracer = sh.telemetry.tracer(me);
    if sys.affinity == AffinityPolicy::Constant {
        // Algorithm 3: round-robin constant pinning at setup.
        let core = me % rc.pin_cores.max(1);
        if pin_or_count(current_tid(), core, &sh.pin_failures) {
            tracer.instant(EventKind::Pin, sh.now_ns(), core as u64);
        }
    }

    let mut w = Worker {
        me,
        engine,
        sh,
        proto,
        ecfg,
        inbox: Vec::new(),
        outbox: Vec::new(),
        batcher: SendBatcher::new(sh.num_threads, 64),
        tracer,
        span_start: 0,
        idle: IdleTracker::new(ecfg.zero_counter_threshold),
        idle_spins: 0,
    };
    let mut cycles_since_gvt: u64 = 0;
    let mut total_cycles: u64 = 0;
    let mut joined: Option<u64> = None;
    // ROSS 7 O'clock no-change backoff: widen the round interval while GVT
    // stands still (inert unless `ecfg.gvt_max_no_change > 0`).
    let mut backoff = GvtBackoff::default();

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
        cycles_since_gvt += 1;

        let round_waiting = sh
            .round_waiting_for(me)
            .is_some_and(|id| joined != Some(id));
        let interval = ecfg.round_interval(w.engine.history_len(), &backoff);
        if cycles_since_gvt < interval as u64 && !round_waiting {
            continue;
        }
        let (participate, id) = sh.try_join_round(me);
        if !participate || joined == Some(id) {
            continue;
        }
        joined = Some(id);
        sh.note_joined(me, id);
        cycles_since_gvt = 0;
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
        backoff.observe(sh.round.gvt().ticks(), ecfg.gvt_max_no_change);
        let terminated = sh.round.terminated();
        let wants_deact = w.idle.wants_park(sys, &sh.round, sh, me, w.parkable());
        if trace {
            // Refresh this thread's counters so the snapshot the round closer
            // takes reflects post-round totals, not the phase-B fold.
            sh.board.publish(me, w.engine.local_min(), w.engine.stats());
        }
        let closed = sh.end_phase();
        if closed {
            // The closer stamps the per-round counter snapshot (no-op when
            // telemetry is off).
            sh.tel_round_snapshot(id);
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
    w.engine.finalize();
    sh.telemetry.deposit(w.tracer);
    WorkerResult {
        stats: w.engine.stats().clone(),
        digests: w.engine.state_digests(),
    }
}

/// The DD-PDES controller loop (dedicated thread).
pub fn controller_loop<P>(sh: &RtShared<P>) {
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
