//! Shared state of the real-thread runtime.
//!
//! The control plane — input queues with their GVT coverage minima, the GVT
//! round with its membership and transition rules, the demand-driven
//! bookkeeping, the affinity table, the ingest port and the telemetry board
//! — is `pdes-core`'s and `telemetry`'s, the same code the virtual machine
//! runs. What lives here is what only real threads need: the
//! semaphores and barriers they wait on, the membership mutex (every
//! [`Round`] transition that touches [`Membership`] locks it, then
//! delegates), the ingest fence around the GVT publish, the snapshotters'
//! wait for the cut, the DD-PDES lock, and the poison/watchdog teardown.
//!
//! One documented deviation from the paper's fully lock-free design: round
//! *membership* transitions (open-snapshot, subscribe, unsubscribe) take a
//! small mutex, which buys a provable absence of the
//! snapshot-vs-deactivation race on real hardware (see DESIGN.md §17; the
//! virtual machine holds the same `Membership` without it).

use crate::sync::{DynBarrier, Semaphore};
use pdes_core::plane::lock;
use pdes_core::{
    AffinityTable, Demand, FaultInjector, IngestPort, Membership, MessagePlane, Msg, Phase, Round,
    SendSink, StallDump, VirtualTime,
};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use telemetry::{RoundBoard, Telemetry};

/// Shared state of one real-thread simulation run. Dereferences to its
/// [`MessagePlane`]: `drain`, `publish_window`, `queue_len`, `faults`, … are
/// the plane's own.
pub struct RtShared<P> {
    pub num_threads: usize,
    plane: MessagePlane<P>,

    // ---- demand-driven scheduling ----
    pub demand: Demand,
    pub sems: Vec<Semaphore>,
    pub os_tids: Vec<AtomicI64>,

    // ---- GVT round ----
    pub round: Round,
    pub membership: Mutex<Membership>,
    /// Synchronous-mode rendezvous points (three per round).
    pub bars: [DynBarrier; 3],

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
    /// Set by [`Self::poison_all`]: the run is being torn down (watchdog
    /// trip or worker panic), as opposed to `terminated` by a final GVT.
    poisoned: AtomicBool,
    /// Last control-loop phase each worker reported (`Phase as u8`).
    pub dbg_phase: Vec<AtomicU8>,
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
            plane: MessagePlane::new(num_threads),
            demand: Demand::new(num_threads),
            sems: (0..num_threads).map(|_| Semaphore::new(0, 1)).collect(),
            os_tids: (0..num_threads).map(|_| AtomicI64::new(0)).collect(),
            round: Round::new(end_time),
            membership: Mutex::new(Membership::new(num_threads)),
            bars: std::array::from_fn(|_| DynBarrier::new(num_threads)),
            dd_lock: Mutex::new(()),
            controller_exit: AtomicBool::new(false),
            ingest: None,
            aff: Mutex::new(AffinityTable::new(num_cores, num_threads)),
            pin_failures: AtomicU64::new(0),
            gvt_wall_ns: AtomicU64::new(0),
            telemetry: Telemetry::off(),
            board: RoundBoard::new(num_threads, num_threads),
            tel_t0: Instant::now(),
            poisoned: AtomicBool::new(false),
            dbg_phase: (0..num_threads).map(|_| AtomicU8::new(0)).collect(),
            dbg_joined: (0..num_threads).map(|_| AtomicU64::new(0)).collect(),
            yields: (0..num_threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Install the fault injector (before the shared state is published to
    /// worker threads).
    pub(crate) fn set_faults(&mut self, faults: FaultInjector) {
        self.plane.faults = faults;
    }

    /// Nanoseconds since the run's common clock epoch — the timestamp base
    /// every worker's tracer uses.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.tel_t0.elapsed().as_nanos() as u64
    }

    /// Participant half of the checkpoint handshake: whether round `id` was
    /// armed at open time and its cut GVT is published. Waits for the
    /// publish; only a teardown ([`Self::poison_all`], which a controller
    /// dying before the publish also runs) ends the wait early. A final GVT
    /// sets `terminated` an instant before the controller releases the
    /// snapshotters, and escaping on that would drop this thread's share of
    /// the final cut (which then never assembles).
    pub fn ckpt_await(&self, id: u64) -> bool {
        if !self.round.ckpt_armed_for(id) {
            return false;
        }
        while !self.round.ckpt_ready() && !self.poisoned.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        self.round.ckpt_ready()
    }

    /// Publish the worker's control-loop phase.
    #[inline]
    pub(crate) fn set_phase(&self, me: usize, phase: Phase) {
        self.dbg_phase[me].store(phase as u8, Ordering::Relaxed);
    }

    /// Workers past every blocking primitive: the liveness watchdog's
    /// progress signal once the final GVT is out.
    pub(crate) fn workers_done(&self) -> usize {
        self.dbg_phase
            .iter()
            .filter(|p| p.load(Ordering::Relaxed) == Phase::Done as u8)
            .count()
    }

    /// Publish the round id the worker last folded into.
    #[inline]
    pub(crate) fn note_joined(&self, me: usize, id: u64) {
        self.dbg_joined[me].store(id + 1, Ordering::Relaxed);
    }

    /// One message through the [`SendSink`] seam, as a batch of one. No
    /// runtime sends through it (they land through a
    /// [`SendBatcher`](pdes_core::SendBatcher)); the benchmark's stepped
    /// executor seeds its queues with it.
    pub fn push_msg(&self, sender: usize, dst: usize, msg: Msg<P>) {
        self.publish_window(sender, msg.recv_time());
        self.push_batch(dst, &mut vec![msg]);
    }

    /// The plane's [`SendSink::push_batch`] behind the bounded-queue wait.
    pub fn push_batch(&self, dst: usize, msgs: &mut Vec<Msg<P>>) {
        if !msgs.is_empty() {
            self.backpressure_wait(dst);
            (&self.plane).push_batch(dst, msgs);
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
                if self.len(dst) < bp.capacity || self.round.terminated() {
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

    /// Pseudo-controller: [`Round::publish`] the new GVT. Returns it.
    ///
    /// With an ingest gate installed the whole computation runs under the
    /// gate's fence: no external admission can interleave between reading
    /// the queue minima and raising the admission floor, so the published
    /// GVT never overshoots an admitted timestamp (see
    /// `pdes_core::ingest` module docs).
    pub fn compute_gvt(&self) -> VirtualTime {
        let publish = || self.round.publish(&self.plane, &self.demand);
        match &self.ingest {
            Some(port) => port.gate.fence_gvt(publish),
            None => publish(),
        }
    }

    /// [`Round::open`] a round if none is open; returns whether `me`
    /// participates in the open round and its id.
    pub fn try_join_round(&self, me: usize) -> (bool, u64) {
        let mut m = lock(&self.membership);
        let was_open = m.open;
        let joined = self
            .round
            .open(&mut m, &self.demand, me, |i| self.sems[i].post());
        if m.open && !was_open {
            for b in &self.bars {
                b.set_expected(m.participants.max(1));
            }
        }
        joined
    }

    /// Number of participants of the current round.
    pub fn participants(&self) -> usize {
        lock(&self.membership).participants
    }

    /// [`Round::end_phase`]; the last participant closes the round.
    pub fn end_phase(&self) -> bool {
        self.round.end_phase(&mut lock(&self.membership))
    }

    /// Algorithm 2 outside a round: the DD-PDES controller wakes the inactive
    /// threads `demand` holds for.
    pub(crate) fn activate_where(&self, demand: impl Fn(usize) -> bool) -> usize {
        if self.demand.all_active() {
            return 0; // the common case takes no lock
        }
        let mut m = lock(&self.membership);
        self.demand
            .activate(&mut m, &self.faults, demand, |i| self.sems[i].post())
    }

    /// Algorithm 1 bookkeeping, [`Round::deactivate`]: de-schedule `me`
    /// (the caller then blocks on its semaphore) unless a refusal applies.
    pub fn deactivate_self(&self, me: usize, completed_round: u64) -> bool {
        let mut m = lock(&self.membership);
        self.round.deactivate(
            &mut m,
            &self.demand,
            &mut lock(&self.aff),
            me,
            completed_round,
        )
    }

    /// Emergency drain: mark the run terminated and make every blocking
    /// primitive permanently non-blocking, so all workers can observe
    /// `terminated` and exit. Called by the liveness watchdog on a trip and
    /// by the panic guard of a dying worker.
    pub fn poison_all(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.round.terminate();
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
        let m = lock(&self.membership);
        let thread = |i: usize| {
            (
                Phase::from_index(self.dbg_phase[i].load(Ordering::Relaxed)),
                self.dbg_joined[i].load(Ordering::Relaxed).checked_sub(1),
                self.sems[i].tokens(),
                self.yields[i].load(Ordering::Relaxed),
            )
        };
        StallDump {
            last_round: self.telemetry.last_round(),
            ..StallDump::capture(
                reason,
                system.into(),
                &self.round,
                &m,
                &self.plane,
                &self.demand,
                thread,
            )
        }
    }
}

impl<P: Clone + serde::Serialize> RtShared<P> {
    /// Admit queued external submissions — called by the round's
    /// pseudo-controller right after [`Self::compute_gvt`]. Returns the
    /// number injected.
    pub fn pump_ingest(&self) -> u64 {
        self.ingest.as_ref().map_or(0, |port| port.pump(self))
    }
}

/// The plane's seam with the bounded-queue wait in front of the push.
impl<P> SendSink<P> for &RtShared<P> {
    fn cover(&mut self, me: usize, t: VirtualTime) {
        self.publish_window(me, t);
    }

    fn push_batch(&mut self, dst: usize, msgs: &mut Vec<Msg<P>>) {
        RtShared::push_batch(self, dst, msgs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdes_core::{EventKey, EventUid, LpId, SendBatcher};

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

    /// A one-message landing: a buffer plus a flush.
    fn send(s: &RtShared<()>, from: usize, dst: usize, m: Msg<()>) {
        let mut b = SendBatcher::new(s.num_threads, 64);
        b.buffer(s, from, dst, m);
        b.flush(s);
    }

    proptest::proptest! {
        /// The seam: one buffer/flush schedule landed through a bare
        /// `MessagePlane` and through `RtShared` leaves the same queues,
        /// lengths, queue minima and send windows, between flushes and at
        /// the end.
        #[test]
        fn a_schedule_lands_the_same_through_the_plane_and_rt_shared(
            ops in proptest::collection::vec((0..4usize, 0..3usize, 0..3usize, 0..50u64), 0..80),
            cap in 1usize..6,
        ) {
            let (plane, sh) = (MessagePlane::new(3), shared(3));
            let (mut a, mut b) = (SendBatcher::new(3, cap), SendBatcher::new(3, cap));
            let same = |plane: &MessagePlane<()>, sh: &RtShared<()>| {
                (0..3).all(|i| plane.len(i) == sh.len(i) && plane.minima(i) == sh.minima(i))
            };
            for (seq, (op, from, dst, t)) in ops.into_iter().enumerate() {
                if op == 0 {
                    a.flush(&plane);
                    b.flush(&sh);
                } else {
                    let key = EventKey {
                        recv_time: VirtualTime::from_ticks(10 + t),
                        dst: LpId(dst as u32),
                        uid: EventUid::new(LpId(from as u32), seq as u64),
                    };
                    a.buffer(&plane, from, dst, Msg::Anti(key));
                    b.buffer(&sh, from, dst, Msg::Anti(key));
                }
                proptest::prop_assert!(same(&plane, &sh));
            }
            a.flush(&plane);
            b.flush(&sh);
            proptest::prop_assert!(same(&plane, &sh));
            for i in 0..3 {
                let (mut x, mut y) = (Vec::new(), Vec::new());
                plane.drain(i, &mut x);
                sh.drain(i, &mut y);
                let keys = |v: &[Msg<()>]| v.iter().map(Msg::key).collect::<Vec<_>>();
                proptest::prop_assert_eq!(keys(&x), keys(&y), "queue {}", i);
            }
        }
    }

    // The round's own rules are specified once, against `Round`
    // (pdes-core/tests/control_plane.rs); what is checked here is what real
    // threads add: wake tokens, the cut wait, the dump and the teardown.

    #[test]
    fn gvt_covers_parked_queue() {
        let s = shared(2);
        s.try_join_round(0);
        s.round.fold(&s, 0, VirtualTime::from_f64(10.0));
        send(&s, 0, 1, msg(4.0));
        // Sent after the fold: covered by the destination's queue minimum
        // and the sender's residual window, not by the folded minimum.
        assert_eq!(s.compute_gvt(), VirtualTime::from_f64(4.0));
        assert_eq!(s.round.regressions(), 0);
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
        send(&s, 0, 2, msg(1.0));
        assert_eq!(s.activate_where(|i| s.len(i) > 0), 1);
        assert_eq!(s.demand.num_active(), 3);
        // The semaphore now holds the wake token.
        assert!(s.sems[2].try_wait());
    }

    #[test]
    fn an_armed_round_wakes_and_counts_every_thread() {
        let mut s = shared(3);
        s.round.set_checkpoint_every(1);
        assert!(s.deactivate_self(2, 0));
        let (_, id) = s.try_join_round(0);
        assert_eq!(s.participants(), 3, "the cut must cover the parked engine");
        assert!(s.demand.is_active(2) && s.sems[2].try_wait());
        s.compute_gvt();
        s.round.ckpt_publish(id);
        assert!(s.ckpt_await(id));
    }

    #[test]
    fn stall_dump_reflects_shared_state() {
        let s = shared(2);
        s.try_join_round(0);
        send(&s, 0, 1, msg(2.5));
        s.set_phase(1, Phase::Parked);
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
        assert!(s.round.terminated());
    }
}
