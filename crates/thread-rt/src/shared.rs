//! Shared state of the real-thread runtime.
//!
//! The control plane — input queues with their GVT coverage minima, round
//! membership, the demand-driven bookkeeping, the affinity table, the
//! ingest port and the telemetry board — is `pdes-core`'s and `telemetry`'s,
//! the same code the virtual machine runs. What lives here is what only
//! real threads need: the semaphores and barriers they wait on, the round's
//! phase counters as atomics, the checkpoint handshake, the DD-PDES lock,
//! and the poison/watchdog teardown.
//!
//! One documented deviation from the paper's fully lock-free design: round
//! *membership* transitions (open-snapshot, subscribe, unsubscribe) take a
//! small mutex, which buys a provable absence of the
//! snapshot-vs-deactivation race on real hardware (see DESIGN.md §17; the
//! virtual machine holds the same `Membership` without it).

use crate::sync::{DynBarrier, Semaphore};
use parking_lot::Mutex;
use pdes_core::{
    ckpt_round_due, AffinityTable, Demand, FaultInjector, IngestPort, Membership, MessagePlane,
    Msg, RoundDump, StallDump, ThreadDump, VirtualTime,
};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{RoundBoard, Telemetry};

/// Control-loop phase labels published by workers for stall diagnostics;
/// [`RtShared::dbg_phase`] holds indices into this table.
pub const PHASE_NAMES: [&str; 13] = [
    "cycle",
    "gvt-a",
    "gvt-send-a",
    "gvt-b",
    "gvt-send-b",
    "gvt-aware",
    "gvt-end",
    "parked",
    "done",
    "sync-bar0",
    "sync-bar1",
    "sync-bar2",
    "dd-deact",
];
/// Index of `"done"`: the worker is past every blocking primitive.
pub const PHASE_DONE: usize = 8;

/// Shared state of one real-thread simulation run. Dereferences to its
/// [`MessagePlane`]: `drain`, `publish_window`, `queue_len`, `faults`, … are
/// the plane's own.
pub struct RtShared<P> {
    pub num_threads: usize,
    pub end_time: VirtualTime,
    plane: MessagePlane<P>,

    // ---- demand-driven scheduling ----
    pub demand: Demand,
    pub sems: Vec<Semaphore>,
    pub os_tids: Vec<AtomicI64>,

    // ---- GVT round ----
    pub membership: Mutex<Membership>,
    pub a_done: AtomicUsize,
    pub b_done: AtomicUsize,
    pub end_done: AtomicUsize,
    pub aware_claimed: AtomicBool,
    min_fold: AtomicU64,
    gvt: AtomicU64,
    pub gvt_rounds: AtomicU64,
    pub terminated: AtomicBool,
    /// Synchronous-mode rendezvous points (three per round).
    pub bars: [DynBarrier; 3],

    // ---- GVT-aligned checkpointing ----
    /// Checkpoint cadence in GVT rounds (0 = disabled).
    ckpt_every: u64,
    /// Round id armed for a checkpoint, stored as `id + 1` (0 = none).
    ckpt_armed: AtomicU64,
    /// Set by the round's pseudo-controller once the checkpoint GVT is
    /// published; End-phase participants wait on it before snapshotting.
    ckpt_ready: AtomicBool,

    // ---- DD-PDES ----
    pub dd_lock: Mutex<()>,
    pub controller_exit: AtomicBool,

    /// External-event ingest, installed before the shared state is published
    /// to worker threads; `None` for runs with no live ingest (the common
    /// case — every hook below is one branch). With a port installed
    /// [`Self::compute_gvt`] fences GVT publication through its gate.
    pub ingest: Option<IngestPort<P>>,

    // ---- affinity (dynamic) ----
    pub aff: Mutex<AffinityTable>,
    /// `sched_setaffinity` rejections (the pin is still *recorded* in the
    /// table so placement stays deterministic; only the syscall failed,
    /// leaving the thread on kernel scheduling).
    pub pin_failures: AtomicU64,

    // ---- metrics ----
    pub gvt_wall_ns: AtomicU64,
    pub gvt_regressions: AtomicU64,

    // ---- telemetry ----
    /// Tracer registry + round-snapshot sink (a disabled registry by
    /// default, so untraced runs never take the round-snapshot path; the
    /// runner installs a live one before publishing the shared state).
    pub telemetry: Arc<Telemetry>,
    /// Per-thread LVT and counters for the round closer's snapshot; only
    /// written when telemetry is enabled.
    pub board: RoundBoard,
    /// Common clock epoch for trace timestamps.
    tel_t0: Instant,

    // ---- liveness diagnostics ----
    /// Set once the liveness watchdog fired (the run's result becomes an
    /// error carrying the stall dump).
    pub watchdog_tripped: AtomicBool,
    /// Set by [`Self::poison_all`]: the run is being torn down (watchdog
    /// trip or worker panic), as opposed to `terminated` by a final GVT.
    poisoned: AtomicBool,
    /// Last control-loop phase each worker reported (index into
    /// [`PHASE_NAMES`]).
    pub dbg_phase: Vec<AtomicUsize>,
    /// Round id each worker last folded into, stored as `id + 1`
    /// (0 = never joined).
    pub dbg_joined: Vec<AtomicU64>,
    /// Times each worker's idle ladder gave the core away with `yield_now`
    /// (written by that worker only; summed into the run's metrics).
    pub yields: Vec<AtomicU64>,
}

impl<P> std::ops::Deref for RtShared<P> {
    type Target = MessagePlane<P>;
    fn deref(&self) -> &MessagePlane<P> {
        &self.plane
    }
}

impl<P> RtShared<P> {
    pub fn new(num_threads: usize, num_cores: usize, end_time: VirtualTime) -> Self {
        RtShared {
            num_threads,
            end_time,
            plane: MessagePlane::new(num_threads),
            demand: Demand::new(num_threads),
            sems: (0..num_threads).map(|_| Semaphore::new(0, 1)).collect(),
            os_tids: (0..num_threads).map(|_| AtomicI64::new(0)).collect(),
            membership: Mutex::new(Membership::new(num_threads)),
            a_done: AtomicUsize::new(0),
            b_done: AtomicUsize::new(0),
            end_done: AtomicUsize::new(0),
            aware_claimed: AtomicBool::new(false),
            min_fold: AtomicU64::new(u64::MAX),
            gvt: AtomicU64::new(0),
            gvt_rounds: AtomicU64::new(0),
            terminated: AtomicBool::new(false),
            ckpt_every: 0,
            ckpt_armed: AtomicU64::new(0),
            ckpt_ready: AtomicBool::new(false),
            bars: [
                DynBarrier::new(num_threads),
                DynBarrier::new(num_threads),
                DynBarrier::new(num_threads),
            ],
            dd_lock: Mutex::new(()),
            controller_exit: AtomicBool::new(false),
            ingest: None,
            aff: Mutex::new(AffinityTable::new(num_cores, num_threads)),
            pin_failures: AtomicU64::new(0),
            gvt_wall_ns: AtomicU64::new(0),
            gvt_regressions: AtomicU64::new(0),
            telemetry: Telemetry::off(),
            board: RoundBoard::new(num_threads, num_threads),
            tel_t0: Instant::now(),
            watchdog_tripped: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            dbg_phase: (0..num_threads).map(|_| AtomicUsize::new(0)).collect(),
            dbg_joined: (0..num_threads).map(|_| AtomicU64::new(0)).collect(),
            yields: (0..num_threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Install the fault injector (before the shared state is published to
    /// worker threads).
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.plane.faults = faults;
    }

    /// Configure the checkpoint cadence in GVT rounds (0 disables; before
    /// the shared state is published to worker threads).
    pub fn set_checkpoint_every(&mut self, every: u64) {
        self.ckpt_every = every;
    }

    /// Seed GVT state from a checkpoint (before the shared state is
    /// published to worker threads): restored runs resume both the GVT
    /// estimate and the round counter so the checkpoint cadence continues.
    pub fn seed_gvt(&mut self, gvt: VirtualTime, rounds: u64) {
        self.gvt = AtomicU64::new(gvt.ticks());
        self.gvt_rounds = AtomicU64::new(rounds);
    }

    /// Nanoseconds since the run's common clock epoch — the timestamp base
    /// every worker's tracer uses.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.tel_t0.elapsed().as_nanos() as u64
    }

    /// Round closer: record round `id`'s counter snapshot (no-op when
    /// telemetry is off).
    pub fn tel_round_snapshot(&self, id: u64) {
        if self.telemetry.enabled() {
            self.telemetry.record_round(
                self.board.snapshot(
                    id,
                    self.gvt().ticks(),
                    self.now_ns(),
                    self.demand.num_active(),
                    (0..self.num_threads).map(|i| self.len(i)).collect(),
                    self.ingest
                        .as_ref()
                        .map_or((0, 0, 0, 0), IngestPort::totals),
                ),
            );
        }
    }

    /// Participant half of the checkpoint handshake: whether round `id` was
    /// armed at open time and its cut GVT is published. Waits for the
    /// publish; only a teardown ([`Self::poison_all`], which a controller
    /// dying before the publish also runs) ends the wait early. A final GVT
    /// sets `terminated` an instant before the controller releases the
    /// snapshotters, and escaping on that would drop this thread's share of
    /// the final cut (which then never assembles).
    pub fn ckpt_await(&self, id: u64) -> bool {
        if !self.ckpt_armed_for(id) {
            return false;
        }
        while !self.ckpt_ready.load(Ordering::Acquire) && !self.poisoned.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        self.ckpt_ready.load(Ordering::Acquire)
    }

    fn ckpt_armed_for(&self, id: u64) -> bool {
        self.ckpt_armed.load(Ordering::Acquire) == id + 1
    }

    /// Pseudo-controller half of the checkpoint handshake: after
    /// `compute_gvt`, release the End-phase participants of an armed round.
    pub fn ckpt_publish_if_armed(&self, id: u64) {
        if self.ckpt_armed_for(id) {
            self.ckpt_ready.store(true, Ordering::Release);
        }
    }

    /// Publish the worker's control-loop phase (index into [`PHASE_NAMES`]).
    #[inline]
    pub fn set_phase(&self, me: usize, phase: usize) {
        self.dbg_phase[me].store(phase, Ordering::Relaxed);
    }

    /// Workers past every blocking primitive (phase `done`): the liveness
    /// watchdog's progress signal once the final GVT is out.
    pub fn workers_done(&self) -> usize {
        self.dbg_phase
            .iter()
            .filter(|p| p.load(Ordering::Relaxed) == PHASE_DONE)
            .count()
    }

    /// Publish the round id the worker last folded into.
    #[inline]
    pub fn note_joined(&self, me: usize, id: u64) {
        self.dbg_joined[me].store(id + 1, Ordering::Relaxed);
    }

    /// Current GVT estimate.
    pub fn gvt(&self) -> VirtualTime {
        VirtualTime::from_ticks(self.gvt.load(Ordering::Acquire))
    }

    /// [`MessagePlane::push_msg`] behind the bounded-queue wait.
    pub fn push_msg(&self, sender: usize, dst: usize, msg: Msg<P>) {
        self.backpressure_wait(dst);
        self.plane.push_msg(sender, dst, msg);
    }

    /// [`MessagePlane::push_batch`] behind the bounded-queue wait.
    pub fn push_batch(&self, dst: usize, msgs: &mut Vec<Msg<P>>) {
        if !msgs.is_empty() {
            self.backpressure_wait(dst);
            self.plane.push_batch(dst, msgs);
        }
    }

    /// Under a backpressure fault plan the destination queue is bounded: a
    /// sender over capacity retries with escalating backoff before pushing
    /// anyway (messages are never dropped, so correctness is unaffected).
    /// How to wait is this runtime's business, so the loop lives here and
    /// not in the plane.
    fn backpressure_wait(&self, dst: usize) {
        if let Some(bp) = self.faults.backpressure() {
            let mut retries = 0u64;
            for attempt in 0..bp.max_retries {
                if self.len(dst) < bp.capacity || self.terminated.load(Ordering::Acquire) {
                    break;
                }
                retries += 1;
                if attempt < 2 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(10u64 << attempt.min(10)));
                }
            }
            self.faults.note_backpressure_retries(retries);
        }
    }

    /// Fold a thread's local minimum and its send window into the round.
    pub fn fold_min(&self, me: usize, local: VirtualTime) {
        let m = local.min(self.plane.take_window(me));
        self.min_fold.fetch_min(m.ticks(), Ordering::AcqRel);
    }

    /// Pseudo-controller: fold the transient coverage and publish the new
    /// GVT. Returns it.
    ///
    /// With an ingest gate installed the whole computation runs under the
    /// gate's fence: no external admission can interleave between reading
    /// the queue minima and raising the admission floor, so the published
    /// GVT never overshoots an admitted timestamp (see
    /// `pdes_core::ingest` module docs).
    pub fn compute_gvt(&self) -> VirtualTime {
        match &self.ingest {
            Some(port) => port.gate.fence_gvt(|| self.compute_gvt_unfenced()),
            None => self.compute_gvt_unfenced(),
        }
    }

    fn compute_gvt_unfenced(&self) -> VirtualTime {
        let g = VirtualTime::from_ticks(self.min_fold.load(Ordering::Acquire))
            .min(self.plane.transient_min())
            .min(self.demand.parked_floor());
        if g < self.gvt() {
            self.gvt_regressions.fetch_add(1, Ordering::AcqRel);
        } else {
            self.gvt.store(g.ticks(), Ordering::Release);
        }
        self.gvt_rounds.fetch_add(1, Ordering::AcqRel);
        let gvt = self.gvt();
        if gvt >= self.end_time {
            self.terminated.store(true, Ordering::Release);
        }
        gvt
    }

    /// Open a round if none is open; returns whether `me` participates in
    /// the open round and its id.
    pub fn try_join_round(&self, me: usize) -> (bool, u64) {
        let mut m = self.membership.lock();
        if !m.open {
            // No round opens after the final one: its participants are
            // leaving or gone. A thread the DD controller woke during the
            // final round was not part of it and can get here before it
            // sees the flag; the round it opened would wait at a barrier
            // for ever. (The flag was set before the closing `end_phase`
            // released this lock, so it is visible here.)
            if self.terminated.load(Ordering::Acquire) {
                return (false, m.id);
            }
            // Arm a checkpoint round on cadence: force-wake every parked
            // thread first, so the round's participant set — and therefore
            // the cut — covers every engine's committed state.
            if ckpt_round_due(self.ckpt_every, self.gvt_rounds.load(Ordering::Acquire)) {
                self.demand.wake_all(Some(&mut m), |i| self.sems[i].post());
                self.ckpt_ready.store(false, Ordering::Release);
                self.ckpt_armed.store(m.id + 1, Ordering::Release);
            }
            m.open_round();
            self.a_done.store(0, Ordering::Release);
            self.b_done.store(0, Ordering::Release);
            self.end_done.store(0, Ordering::Release);
            self.aware_claimed.store(false, Ordering::Release);
            self.min_fold.store(u64::MAX, Ordering::Release);
            for b in &self.bars {
                b.set_expected(m.participants.max(1));
            }
        }
        (m.participant[me], m.id)
    }

    /// Peek the open round without opening one.
    pub fn round_waiting_for(&self, me: usize) -> Option<u64> {
        self.membership.lock().waiting_for(me)
    }

    /// Number of participants of the current round.
    pub fn participants(&self) -> usize {
        self.membership.lock().participants
    }

    /// Complete the End phase; the last participant closes the round.
    ///
    /// The count is taken under the membership lock: counted outside it, a
    /// participant descheduled between the increment and the lock could
    /// compare its stale count against the *next* round's participant total
    /// (the closer and an opener both got in between) and close a round
    /// whose members are still folding.
    pub fn end_phase(&self) -> bool {
        let mut m = self.membership.lock();
        m.end_phase(self.end_done.fetch_add(1, Ordering::AcqRel) + 1)
    }

    /// Algorithm 2: wake the inactive threads `demand` holds for. Must be
    /// called by the round's pseudo-controller (Phase Aware) or the DD-PDES
    /// controller.
    pub fn activate_where(&self, demand: impl Fn(usize) -> bool) -> usize {
        if self.demand.all_active() {
            return 0; // the common case takes no lock
        }
        let mut m = self.membership.lock();
        self.demand
            .activate(&mut m, &self.faults, demand, |i| self.sems[i].post())
    }

    /// Algorithm 1 bookkeeping: de-schedule `me` (the caller then blocks on
    /// its semaphore). Refuses once the run has terminated, for the last
    /// active thread, and when a round other than `completed_round` is open
    /// with `me` in its participant snapshot — parking then would strand
    /// the round.
    pub fn deactivate_self(&self, me: usize, completed_round: u64) -> bool {
        let mut m = self.membership.lock();
        // Termination's wake-up scan runs under this lock too: either it
        // already ran (then this refuses) or it will see `me` inactive and
        // post — a thread can never park past the end of the run.
        if self.terminated.load(Ordering::Acquire) {
            return false;
        }
        if m.waiting_for(me).is_some_and(|id| id != completed_round) {
            return false;
        }
        self.demand.deactivate(&mut m, &mut self.aff.lock(), me)
    }

    /// Wake everyone for termination and stop the DD controller.
    pub fn release_all_for_termination(&self) {
        self.controller_exit.store(true, Ordering::Release);
        // Serialised against `deactivate_self` (see there).
        let _m = self.membership.lock();
        self.demand.wake_all(None, |i| self.sems[i].post());
    }

    /// Emergency drain: mark the run terminated and make every blocking
    /// primitive permanently non-blocking, so all workers can observe
    /// `terminated` and exit. Called by the liveness watchdog on a trip and
    /// by the panic guard of a dying worker.
    pub fn poison_all(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.terminated.store(true, Ordering::Release);
        self.controller_exit.store(true, Ordering::Release);
        for s in &self.sems {
            s.poison();
        }
        for b in &self.bars {
            b.poison();
        }
    }

    /// Snapshot everything a stall post-mortem needs.
    pub fn build_stall_dump(&self, reason: &str, system: &str) -> StallDump {
        let m = self.membership.lock();
        StallDump {
            reason: reason.into(),
            system: system.into(),
            gvt: self.gvt().to_string(),
            gvt_rounds: self.gvt_rounds.load(Ordering::Acquire),
            num_active: self.demand.num_active(),
            terminated: self.terminated.load(Ordering::Acquire),
            round: RoundDump {
                open: m.open,
                id: m.id,
                participants: m.participants,
                a_done: self.a_done.load(Ordering::Acquire),
                b_done: self.b_done.load(Ordering::Acquire),
                end_done: self.end_done.load(Ordering::Acquire),
                aware_claimed: self.aware_claimed.load(Ordering::Acquire),
            },
            threads: (0..self.num_threads)
                .map(|i| {
                    let phase = self.dbg_phase[i].load(Ordering::Relaxed);
                    ThreadDump {
                        yields: self.yields[i].load(Ordering::Relaxed),
                        ..ThreadDump::new(
                            i,
                            PHASE_NAMES[phase.min(PHASE_NAMES.len() - 1)],
                            self.dbg_joined[i].load(Ordering::Relaxed).checked_sub(1),
                            &self.plane,
                            &self.demand,
                            m.subscribed[i],
                            self.sems[i].tokens(),
                        )
                    }
                })
                .collect(),
            fault_counts: self.faults.counts(),
            last_round: self.telemetry.last_round(),
        }
    }
}

impl<P: Clone + serde::Serialize> RtShared<P> {
    /// Admit queued external submissions — called by the round's
    /// pseudo-controller right after [`Self::compute_gvt`]. Returns the
    /// number injected.
    pub fn pump_ingest(&self) -> u64 {
        self.ingest.as_ref().map_or(0, |port| {
            port.pump(|dst, ev| self.push_msg(0, dst, Msg::Event(ev)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdes_core::{EventKey, EventUid, LpId};

    fn msg(t: f64) -> Msg<()> {
        Msg::Anti(EventKey {
            recv_time: VirtualTime::from_f64(t),
            dst: LpId(0),
            uid: EventUid::new(LpId(0), t.to_bits()),
        })
    }

    fn shared(n: usize) -> RtShared<()> {
        RtShared::new(n, 2, VirtualTime::from_f64(100.0))
    }

    #[test]
    fn gvt_covers_parked_queue() {
        let s = shared(2);
        s.try_join_round(0);
        s.fold_min(0, VirtualTime::from_f64(10.0));
        s.push_msg(0, 1, msg(4.0));
        // Sent after the fold: covered by the destination's queue minimum
        // and the sender's residual window, not by the folded minimum.
        assert_eq!(s.compute_gvt(), VirtualTime::from_f64(4.0));
        assert_eq!(s.gvt_regressions.load(Ordering::Acquire), 0);
    }

    #[test]
    fn a_parked_floor_pins_gvt_until_withdrawn() {
        let s = shared(2);
        s.demand.set_park_min(1, VirtualTime::from_f64(2.0));
        s.try_join_round(0);
        s.fold_min(0, VirtualTime::from_f64(10.0));
        assert_eq!(s.compute_gvt(), VirtualTime::from_f64(2.0));
    }

    #[test]
    fn rounds_open_and_close() {
        let s = shared(2);
        let (p0, id0) = s.try_join_round(0);
        assert!(p0);
        let (p1, _) = s.try_join_round(1);
        assert!(p1);
        assert_eq!(s.participants(), 2);
        assert!(!s.end_phase());
        assert!(s.end_phase());
        let (_, id1) = s.try_join_round(0);
        assert_eq!(id1, id0 + 1);
    }

    #[test]
    fn deactivate_then_activate_flow() {
        let s = shared(3);
        assert!(s.deactivate_self(2, 0));
        assert_eq!(s.demand.num_active(), 2);
        assert_eq!(s.activate_where(|i| s.len(i) > 0), 0, "no demand");
        // A message arrives for the parked thread.
        s.push_msg(0, 2, msg(1.0));
        assert_eq!(s.activate_where(|i| s.len(i) > 0), 1);
        assert_eq!(s.demand.num_active(), 3);
        // The semaphore now holds the wake token.
        assert!(s.sems[2].try_wait());
    }

    #[test]
    fn an_armed_round_wakes_and_counts_every_thread() {
        let mut s = shared(3);
        s.set_checkpoint_every(1);
        assert!(s.deactivate_self(2, 0));
        let (_, id) = s.try_join_round(0);
        assert_eq!(s.participants(), 3, "the cut must cover the parked engine");
        assert!(s.demand.is_active(2) && s.sems[2].try_wait());
        s.compute_gvt();
        s.ckpt_publish_if_armed(id);
        assert!(s.ckpt_await(id));
    }

    #[test]
    fn nobody_parks_once_the_run_has_terminated() {
        // The termination wake-up scan runs once; a thread that de-scheduled
        // itself after it would sleep forever.
        let s = shared(3);
        s.terminated.store(true, Ordering::Release);
        assert!(!s.deactivate_self(2, 0));
        assert!(s.demand.is_active(2));
    }

    #[test]
    fn no_round_opens_once_the_run_has_terminated() {
        // A thread activated during the final round is not one of its
        // participants; reaching the round trigger before it sees
        // `terminated`, it must not open a round nobody else will join.
        let s = shared(2);
        let (_, id) = s.try_join_round(0);
        s.terminated.store(true, Ordering::Release);
        assert!(!s.end_phase() && s.end_phase(), "the final round closes");
        assert_eq!(s.try_join_round(1), (false, id + 1));
        assert_eq!(s.round_waiting_for(1), None, "nothing was opened");
    }

    #[test]
    fn deactivation_refused_while_a_fresh_round_waits() {
        let s = shared(3);
        let (_, id) = s.try_join_round(0);
        // Thread 0 completed round `id`, may park while it is still open…
        assert!(s.deactivate_self(0, id));
        // …but thread 1 may not park for a round it has not completed.
        assert!(!s.deactivate_self(1, id.wrapping_sub(1)));
    }

    #[test]
    fn stall_dump_reflects_shared_state() {
        let s = shared(2);
        s.try_join_round(0);
        s.push_msg(0, 1, msg(2.5));
        s.set_phase(1, 7); // parked
        s.note_joined(1, 4);
        let d = s.build_stall_dump("test stall", "GG-PDES-Async");
        assert_eq!(d.round.participants, 2);
        assert!(d.round.open);
        assert_eq!(d.threads[1].phase, "parked");
        assert_eq!(d.threads[1].joined_round, Some(4));
        assert_eq!(d.threads[1].queue_len, 1);
        assert_eq!(d.threads[0].joined_round, None);
        assert_eq!(d.threads[0].queue_min, "inf");
        assert_ne!(d.threads[0].window_min, "inf");
        let text = d.to_string();
        assert!(text.contains("test stall"));
        assert!(text.contains("qlen=1"));
    }

    #[test]
    fn poison_all_unblocks_everything() {
        let s = std::sync::Arc::new(shared(2));
        let s2 = std::sync::Arc::clone(&s);
        let h = std::thread::spawn(move || {
            s2.sems[0].wait();
            s2.bars[0].wait()
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        s.poison_all();
        h.join().expect("join");
        assert!(s.terminated.load(Ordering::Acquire));
    }

    #[test]
    fn gvt_terminates_past_end() {
        let s = shared(1);
        s.try_join_round(0);
        s.fold_min(0, VirtualTime::INFINITY);
        let g = s.compute_gvt();
        assert!(g.is_infinite());
        assert!(s.terminated.load(Ordering::Acquire));
    }
}
