//! Shared state of the real-thread runtime.
//!
//! The hot arrays mirror the paper's layout: per-thread input queues (the
//! vendored `SegQueue`, a mutex-guarded `VecDeque` locked once per bulk push
//! or drain), the `active_threads` flags and `sem_locks` semaphores, all
//! cache-line padded. GVT round *counters* are plain
//! atomics; only round membership transitions (open-snapshot, subscribe,
//! unsubscribe) take a small mutex — a documented deviation from the paper's
//! fully lock-free design that buys a provable absence of the
//! snapshot-vs-deactivation race on real hardware (see DESIGN.md; the
//! lock-free variant's behaviour is what `sim-rt` models and measures).

use crate::sync::{DynBarrier, Semaphore};
use crossbeam::queue::SegQueue;
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use pdes_core::{
    chaos_filter, FaultInjector, IngestError, IngestGate, LpMap, Msg, RoundDump, StallDump,
    ThreadDump, VirtualTime,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{RoundTotals, Telemetry};

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

/// Atomic fetch-min over `VirtualTime` ticks.
fn fetch_min(cell: &AtomicU64, t: VirtualTime) {
    cell.fetch_min(t.ticks(), Ordering::AcqRel);
}

fn load_vt(cell: &AtomicU64) -> VirtualTime {
    VirtualTime::from_ticks(cell.load(Ordering::Acquire))
}

/// The ingest-plane wiring of one run: the shared admission gate, the
/// LP → thread map that routes admitted events, the previous-round counter
/// snapshot behind the round closer's telemetry instants, and the first
/// journal failure a pump observed (surfaced as the run's error).
pub struct IngestPlane<P> {
    pub gate: Arc<IngestGate<P>>,
    map: LpMap,
    prev: Mutex<(u64, u64, u64, u64)>,
    error: Mutex<Option<IngestError>>,
}

/// Round state guarded by [`RtShared::membership`].
#[derive(Debug)]
pub struct Membership {
    pub open: bool,
    pub id: u64,
    pub participant: Vec<bool>,
    pub participants: usize,
    pub subscribed: Vec<bool>,
}

/// Shared state of one real-thread simulation run.
pub struct RtShared<P> {
    pub num_threads: usize,
    pub end_time: VirtualTime,

    // ---- message plane ----
    pub queues: Vec<SegQueue<Msg<P>>>,
    pub queue_len: Vec<CachePadded<AtomicUsize>>,
    queue_min: Vec<CachePadded<AtomicU64>>,
    window_min: Vec<CachePadded<AtomicU64>>,

    // ---- demand-driven scheduling ----
    pub active: Vec<CachePadded<AtomicBool>>,
    pub num_active: AtomicUsize,
    pub sems: Vec<Semaphore>,
    pub os_tids: Vec<AtomicI64>,
    /// Pending-set floor a thread publishes *before* parking with live
    /// pending work, folded into every GVT/LBTS computation (`u64::MAX`
    /// while running). The optimistic workers never park with live pending
    /// and never write it; the conservative runtime (`cons-rt`) parks
    /// threads whose channels cannot advance, and this floor keeps their
    /// invisible pending events inside the reduction so the published bound
    /// can never overshoot them.
    park_min: Vec<CachePadded<AtomicU64>>,

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
    /// Armed rounds force-wake every parked thread so the cut covers all
    /// engines.
    ckpt_armed: AtomicU64,
    /// Set by the round's pseudo-controller once the checkpoint GVT is
    /// published; End-phase participants wait on it before snapshotting.
    ckpt_ready: AtomicBool,

    // ---- DD-PDES ----
    pub dd_lock: Mutex<()>,
    pub controller_exit: AtomicBool,

    // ---- external-event ingest ----
    /// Installed by [`Self::set_ingest`]; `None` for runs with no live
    /// ingest (the common case — every hook below is one branch).
    ingest: Option<IngestPlane<P>>,

    // ---- affinity (dynamic) ----
    pub aff: Mutex<crate::affinity::AffinityState>,

    // ---- metrics ----
    pub gvt_wall_ns: AtomicU64,
    pub max_descheduled: AtomicUsize,
    pub gvt_regressions: AtomicU64,

    // ---- telemetry ----
    /// Tracer registry + round-snapshot sink (a disabled registry by
    /// default, so untraced runs never take the round-snapshot path; the
    /// runner installs a live one before publishing the shared state).
    pub telemetry: Arc<Telemetry>,
    /// Per-thread published LVT ticks (`u64::MAX` = idle); only written when
    /// telemetry is enabled, read by the round closer's snapshot.
    tel_lvt: Vec<CachePadded<AtomicU64>>,
    /// Per-thread cumulative committed/processed/rolled-back, published at
    /// each round's End phase when telemetry is enabled.
    tel_committed: Vec<CachePadded<AtomicU64>>,
    tel_processed: Vec<CachePadded<AtomicU64>>,
    tel_rolled_back: Vec<CachePadded<AtomicU64>>,
    /// Common clock epoch for trace timestamps.
    tel_t0: Instant,

    // ---- fault injection & liveness diagnostics ----
    /// The chaos hooks (inert unless a fault plan was configured).
    pub faults: FaultInjector,
    /// Per-thread chaos hold-back buffer: messages deferred by a faulty
    /// drain wait here and are delivered at the *front* of the next drain.
    /// They stay inside `queue_len`/`queue_min` accounting, and — being
    /// older than anything still in the queue — redelivering them first
    /// preserves per-uid FIFO order. Only thread `i` touches `held[i]`, so
    /// the mutex is uncontended.
    held: Vec<CachePadded<Mutex<VecDeque<Msg<P>>>>>,
    /// Set once the liveness watchdog fired (the run's result becomes an
    /// error carrying the stall dump).
    pub watchdog_tripped: AtomicBool,
    /// Set by [`Self::poison_all`]: the run is being torn down (watchdog
    /// trip or worker panic), as opposed to `terminated` by a final GVT.
    poisoned: AtomicBool,
    /// Last control-loop phase each worker reported (index into
    /// [`PHASE_NAMES`]).
    pub dbg_phase: Vec<CachePadded<AtomicUsize>>,
    /// Round id each worker last folded into, stored as `id + 1`
    /// (0 = never joined).
    pub dbg_joined: Vec<AtomicU64>,
}

impl<P> RtShared<P> {
    pub fn new(num_threads: usize, num_cores: usize, end_time: VirtualTime) -> Self {
        RtShared {
            num_threads,
            end_time,
            queues: (0..num_threads).map(|_| SegQueue::new()).collect(),
            queue_len: (0..num_threads)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
            queue_min: (0..num_threads)
                .map(|_| CachePadded::new(AtomicU64::new(u64::MAX)))
                .collect(),
            window_min: (0..num_threads)
                .map(|_| CachePadded::new(AtomicU64::new(u64::MAX)))
                .collect(),
            active: (0..num_threads)
                .map(|_| CachePadded::new(AtomicBool::new(true)))
                .collect(),
            num_active: AtomicUsize::new(num_threads),
            sems: (0..num_threads).map(|_| Semaphore::new(0, 1)).collect(),
            os_tids: (0..num_threads).map(|_| AtomicI64::new(0)).collect(),
            park_min: (0..num_threads)
                .map(|_| CachePadded::new(AtomicU64::new(u64::MAX)))
                .collect(),
            membership: Mutex::new(Membership {
                open: false,
                id: 0,
                participant: vec![false; num_threads],
                participants: 0,
                subscribed: vec![true; num_threads],
            }),
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
            aff: Mutex::new(crate::affinity::AffinityState::new(num_cores, num_threads)),
            gvt_wall_ns: AtomicU64::new(0),
            max_descheduled: AtomicUsize::new(0),
            gvt_regressions: AtomicU64::new(0),
            telemetry: Telemetry::off(),
            tel_lvt: (0..num_threads)
                .map(|_| CachePadded::new(AtomicU64::new(u64::MAX)))
                .collect(),
            tel_committed: (0..num_threads)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            tel_processed: (0..num_threads)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            tel_rolled_back: (0..num_threads)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            tel_t0: Instant::now(),
            faults: FaultInjector::disabled(),
            held: (0..num_threads)
                .map(|_| CachePadded::new(Mutex::new(VecDeque::new())))
                .collect(),
            watchdog_tripped: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            dbg_phase: (0..num_threads)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
            dbg_joined: (0..num_threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Install the fault injector (before the shared state is published to
    /// worker threads).
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Install the external-event ingest gate (before the shared state is
    /// published to worker threads). `map` routes admitted events to the
    /// thread owning their destination LP; [`Self::compute_gvt`] fences GVT
    /// publication through the gate from then on.
    pub fn set_ingest(&mut self, gate: Arc<IngestGate<P>>, map: LpMap) {
        self.ingest = Some(IngestPlane {
            gate,
            map,
            prev: Mutex::new((0, 0, 0, 0)),
            error: Mutex::new(None),
        });
    }

    /// Take the first journal failure a pump observed (the runner surfaces
    /// it as the run's error: accepted events must be durable).
    pub fn take_ingest_error(&self) -> Option<IngestError> {
        self.ingest.as_ref().and_then(|p| p.error.lock().take())
    }

    /// Per-round ingest counter deltas (admitted, rejected, shed, busy) for
    /// the round closer's telemetry instants; `None` when no gate is
    /// installed.
    pub fn ingest_round_deltas(&self) -> Option<(u64, u64, u64, u64)> {
        let plane = self.ingest.as_ref()?;
        let s = plane.gate.stats();
        let now = (s.admitted, s.rejected, s.shed, s.busy);
        let mut prev = plane.prev.lock();
        let d = (
            now.0.saturating_sub(prev.0),
            now.1.saturating_sub(prev.1),
            now.2.saturating_sub(prev.2),
            now.3.saturating_sub(prev.3),
        );
        *prev = now;
        Some(d)
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

    /// Whether tracing is live (one inlined bool behind the `Arc`).
    #[inline]
    pub fn tel_enabled(&self) -> bool {
        self.telemetry.enabled()
    }

    /// Nanoseconds since the run's common clock epoch — the timestamp base
    /// every worker's tracer uses.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.tel_t0.elapsed().as_nanos() as u64
    }

    /// Publish this thread's LVT and cumulative engine counters for the
    /// round closer's snapshot. Call only when telemetry is enabled.
    pub fn tel_publish(&self, me: usize, lvt: VirtualTime, stats: &pdes_core::ThreadStats) {
        self.tel_lvt[me].store(lvt.ticks(), Ordering::Relaxed);
        self.tel_committed[me].store(stats.committed, Ordering::Relaxed);
        self.tel_processed[me].store(stats.processed, Ordering::Relaxed);
        self.tel_rolled_back[me].store(stats.rolled_back, Ordering::Relaxed);
    }

    /// Round closer: record round `id`'s counter snapshot (cumulative totals
    /// summed over the published per-thread counters; the registry turns
    /// consecutive totals into per-round deltas).
    pub fn tel_round_snapshot(&self, id: u64) {
        if !self.telemetry.enabled() {
            return;
        }
        let sum = |v: &[CachePadded<AtomicU64>]| -> u64 {
            v.iter().map(|c| c.load(Ordering::Relaxed)).sum()
        };
        self.telemetry.record_round(RoundTotals {
            round: id,
            gvt_ticks: self.gvt().ticks(),
            ts_ns: self.now_ns(),
            committed: sum(&self.tel_committed),
            processed: sum(&self.tel_processed),
            rolled_back: sum(&self.tel_rolled_back),
            active_threads: self.num_active.load(Ordering::Acquire),
            members: self.tel_lvt.len() as u64,
            lvt_ticks: self
                .tel_lvt
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            queue_depths: self
                .queue_len
                .iter()
                .map(|c| c.load(Ordering::Acquire))
                .collect(),
            ingest: self
                .ingest
                .as_ref()
                .map(|p| {
                    let s = p.gate.stats();
                    (s.admitted, s.rejected, s.shed, s.busy)
                })
                .unwrap_or((0, 0, 0, 0)),
        });
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

    /// Publish the round id the worker last folded into.
    #[inline]
    pub fn note_joined(&self, me: usize, id: u64) {
        self.dbg_joined[me].store(id + 1, Ordering::Relaxed);
    }

    /// Current GVT estimate.
    pub fn gvt(&self) -> VirtualTime {
        load_vt(&self.gvt)
    }

    /// Send a message: the window minimum is published *before* the push so
    /// the event is covered by GVT accounting at every instant — in the
    /// sender's window until its next fold, in the destination's queue
    /// minimum from the push on (DESIGN.md §8, "Transient-message coverage").
    ///
    /// Under a backpressure fault plan the destination queue is bounded: a
    /// sender over capacity retries with escalating backoff before pushing
    /// anyway (messages are never dropped, so correctness is unaffected).
    pub fn push_msg(&self, sender: usize, dst: usize, msg: Msg<P>) {
        let t = msg.recv_time();
        fetch_min(&self.window_min[sender], t);
        self.backpressure_wait(dst);
        self.queues[dst].push(msg);
        fetch_min(&self.queue_min[dst], t);
        self.queue_len[dst].fetch_add(1, Ordering::AcqRel);
    }

    /// Under a backpressure fault plan, wait (bounded) for the destination
    /// queue to fall below capacity; messages are never dropped.
    fn backpressure_wait(&self, dst: usize) {
        if let Some(bp) = self.faults.backpressure() {
            let mut retries = 0u64;
            for attempt in 0..bp.max_retries {
                if self.queue_len[dst].load(Ordering::Acquire) < bp.capacity
                    || self.terminated.load(Ordering::Acquire)
                {
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

    /// Publish `t` into thread `me`'s send window *without* enqueueing — the
    /// coverage half of [`Self::push_msg`], used by the send batcher at
    /// buffer time. A message buffered locally is invisible to the
    /// destination's `queue_min`, so it must stay covered by the sender's
    /// window until the flush lands it in a queue. The window is only reset
    /// by this thread's own [`Self::fold_min`], and the worker flushes
    /// before every fold, so coverage never lapses.
    #[inline]
    pub fn publish_window(&self, me: usize, t: VirtualTime) {
        fetch_min(&self.window_min[me], t);
    }

    /// Bulk enqueue on thread `dst`: one queue lock and one length update for
    /// the whole batch, preserving order.
    ///
    /// Callers must have already published every message into their send
    /// window via [`Self::publish_window`] — this method only re-covers the
    /// batch on the destination's `queue_min` after the push, exactly like
    /// the per-message path.
    pub fn push_batch(&self, dst: usize, msgs: &mut Vec<Msg<P>>) {
        if msgs.is_empty() {
            return;
        }
        self.backpressure_wait(dst);
        let n = msgs.len();
        let mut t = VirtualTime::INFINITY;
        for m in msgs.iter() {
            t = t.min(m.recv_time());
        }
        self.queues[dst].push_batch(msgs);
        fetch_min(&self.queue_min[dst], t);
        self.queue_len[dst].fetch_add(n, Ordering::AcqRel);
    }

    /// Drain the input queue of `me` into `out`; returns the count.
    pub fn drain(&self, me: usize, out: &mut Vec<Msg<P>>) -> usize {
        // Reset the minimum first: pushes racing with this drain re-publish
        // their minimum afterwards (or are covered by the sender's window).
        self.queue_min[me].store(u64::MAX, Ordering::Release);
        if self.faults.is_enabled() {
            return self.drain_with_faults(me, out);
        }
        let n = self.queues[me].drain_into(out);
        if n > 0 {
            self.queue_len[me].fetch_sub(n, Ordering::AcqRel);
        }
        n
    }

    /// Chaos drain: [`chaos_filter`] decides what of the queue's content
    /// delivers now and what is held back in `held[me]` for the next drain.
    ///
    /// Held messages cannot simply be re-pushed onto the `SegQueue`, where
    /// they would land *behind* concurrently pushed newer messages and could
    /// be overtaken by a same-uid successor (a re-sent positive passing its
    /// deferred anti). They never leave `queue_len`/`queue_min` accounting,
    /// so GVT keeps covering them; only `me` drains this queue, so the
    /// reset-then-restore of `queue_min` cannot race another drain.
    fn drain_with_faults(&self, me: usize, out: &mut Vec<Msg<P>>) -> usize {
        let mut held = self.held[me].lock();
        let mut batch = Vec::new();
        let taken = held.len() + self.queues[me].drain_into(&mut batch);
        chaos_filter(&self.faults, &mut batch, &mut held);
        for m in held.iter() {
            fetch_min(&self.queue_min[me], m.recv_time());
        }
        let delivered = taken - held.len();
        if delivered > 0 {
            self.queue_len[me].fetch_sub(delivered, Ordering::AcqRel);
        }
        out.append(&mut batch);
        delivered
    }

    /// Chaos-exempt drain for checkpoint cuts: flush the hold-back buffer
    /// and the whole input queue into `out`, with no deferral, reordering,
    /// or straggler holds. Every message sent before the cut GVT was folded
    /// into that GVT (send windows publish before the push), so after this
    /// drain the engine holds every cut-crossing event; anything pushed
    /// later carries a send time at or above the cut and stays queued for
    /// the ongoing run.
    pub fn drain_clean(&self, me: usize, out: &mut Vec<Msg<P>>) -> usize {
        self.queue_min[me].store(u64::MAX, Ordering::Release);
        let mut n = 0;
        {
            let mut held = self.held[me].lock();
            n += held.len();
            out.extend(held.drain(..));
        }
        n += self.queues[me].drain_into(out);
        if n > 0 {
            self.queue_len[me].fetch_sub(n, Ordering::AcqRel);
        }
        n
    }

    /// Fold a thread's local minimum and its send window into the round.
    pub fn fold_min(&self, me: usize, local: VirtualTime) {
        let w = self.window_min[me].swap(u64::MAX, Ordering::AcqRel);
        let m = local.ticks().min(w);
        self.min_fold.fetch_min(m, Ordering::AcqRel);
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
            Some(plane) => plane.gate.fence_gvt(|| self.compute_gvt_unfenced()),
            None => self.compute_gvt_unfenced(),
        }
    }

    fn compute_gvt_unfenced(&self) -> VirtualTime {
        let mut g = self.min_fold.load(Ordering::Acquire);
        for i in 0..self.num_threads {
            g = g
                .min(self.window_min[i].load(Ordering::Acquire))
                .min(self.queue_min[i].load(Ordering::Acquire))
                .min(self.park_min[i].load(Ordering::Acquire));
        }
        let old = self.gvt.load(Ordering::Acquire);
        if g < old {
            self.gvt_regressions.fetch_add(1, Ordering::AcqRel);
        } else {
            self.gvt.store(g, Ordering::Release);
        }
        self.gvt_rounds.fetch_add(1, Ordering::AcqRel);
        let gvt = load_vt(&self.gvt);
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
            m.open = true;
            // Arm a checkpoint round on cadence: force-wake every parked
            // thread first, so the round's participant set — and therefore
            // the cut — covers every engine's committed state. The wake-ups
            // are exempt from wake-up faults, like termination wake-ups:
            // losing one would wedge the armed round rather than exercise
            // anything interesting.
            let arm = self.ckpt_every > 0
                && !self.terminated.load(Ordering::Acquire)
                && (self.gvt_rounds.load(Ordering::Acquire) + 1).is_multiple_of(self.ckpt_every);
            if arm {
                for i in 0..self.num_threads {
                    if !m.subscribed[i] {
                        m.subscribed[i] = true;
                    }
                    if !self.active[i].load(Ordering::Acquire) {
                        self.active[i].store(true, Ordering::Release);
                        self.num_active.fetch_add(1, Ordering::AcqRel);
                        self.sems[i].post();
                    }
                }
                self.ckpt_ready.store(false, Ordering::Release);
                self.ckpt_armed.store(m.id + 1, Ordering::Release);
            }
            let subscribed = m.subscribed.clone();
            m.participant.copy_from_slice(&subscribed);
            m.participants = subscribed.iter().filter(|&&s| s).count();
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
        let m = self.membership.lock();
        if m.open && m.participant[me] {
            Some(m.id)
        } else {
            None
        }
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
        let done = self.end_done.fetch_add(1, Ordering::AcqRel) + 1;
        if done == m.participants {
            m.open = false;
            m.id += 1;
            true
        } else {
            false
        }
    }

    /// Algorithm 2: wake inactive threads with queued input. Must be called
    /// by the round's pseudo-controller (Phase Aware).
    pub fn activate(&self) -> usize {
        let mut n = 0;
        if self.num_active.load(Ordering::Acquire) < self.num_threads {
            let mut m = self.membership.lock();
            for i in 0..self.num_threads {
                if !self.active[i].load(Ordering::Acquire)
                    && self.queue_len[i].load(Ordering::Acquire) > 0
                {
                    self.active[i].store(true, Ordering::Release);
                    m.subscribed[i] = true;
                    self.num_active.fetch_add(1, Ordering::AcqRel);
                    if self.faults.lose_wakeup() {
                        // Lost wake-up: the thread is marked active but its
                        // semaphore is never posted — it stays parked, the
                        // round it now belongs to can never complete, and
                        // the liveness watchdog must catch the stall.
                    } else {
                        self.sems[i].post();
                    }
                    n += 1;
                }
            }
            // Spurious wake-up: post a thread that was *not* activated; the
            // worker's parked loop must re-check its active flag and go back
            // to sleep.
            if self.faults.spurious_wakeup() {
                if let Some(i) =
                    (0..self.num_threads).find(|&i| !self.active[i].load(Ordering::Acquire))
                {
                    self.sems[i].post();
                }
            }
        }
        n
    }

    /// `true` when `me` has no unfolded send window (its last sends are
    /// already folded into GVT accounting) — part of the deactivation
    /// condition.
    pub fn window_is_clear(&self, me: usize) -> bool {
        self.window_min[me].load(Ordering::Acquire) == u64::MAX
    }

    /// Publish `me`'s pending-set floor before parking with live pending
    /// work (conservative runtime): folded into every subsequent GVT/LBTS
    /// computation until [`Self::clear_park_min`]. Must be called *before*
    /// [`Self::deactivate_self`], so the membership-lock handoff orders the
    /// store ahead of any round that excludes `me`.
    pub fn set_park_min(&self, me: usize, floor: VirtualTime) {
        self.park_min[me].store(floor.ticks(), Ordering::Release);
    }

    /// Withdraw `me`'s parked floor after waking (conservative runtime).
    pub fn clear_park_min(&self, me: usize) {
        self.park_min[me].store(u64::MAX, Ordering::Release);
    }

    /// `me`'s parked pending-set floor in ticks (`u64::MAX` = not parked
    /// with live pending). The conservative round closer reads peers' floors
    /// to decide which parked threads the new bound lets advance.
    pub fn park_min_ticks(&self, i: usize) -> u64 {
        self.park_min[i].load(Ordering::Acquire)
    }

    /// Algorithm 1 bookkeeping: de-schedule `me` (the caller then blocks on
    /// its semaphore). Refuses once the run has terminated, for the last
    /// active thread, and when a round other than `completed_round` is open
    /// with `me` in its participant snapshot — parking then would strand
    /// the round.
    pub fn deactivate_self(&self, me: usize, completed_round: u64) -> bool {
        let mut m = self.membership.lock();
        // Termination's wake-up scan runs under this lock too: either it
        // already ran (then this refuses) or it will see `active[me]` false
        // and post — a thread can never park past the end of the run.
        if self.terminated.load(Ordering::Acquire) || self.num_active.load(Ordering::Acquire) <= 1 {
            return false;
        }
        if m.open && m.participant[me] && m.id != completed_round {
            return false;
        }
        self.aff.lock().clear(me);
        self.active[me].store(false, Ordering::Release);
        m.subscribed[me] = false;
        self.num_active.fetch_sub(1, Ordering::AcqRel);
        let parked = self.num_threads - self.num_active.load(Ordering::Acquire);
        self.max_descheduled.fetch_max(parked, Ordering::AcqRel);
        true
    }

    /// Wake everyone for termination and stop the DD controller.
    ///
    /// Termination wake-ups are exempt from wake-up faults: losing them
    /// would turn every completed chaos run into a watchdog trip and mask
    /// the interesting (mid-run) stalls.
    pub fn release_all_for_termination(&self) {
        self.controller_exit.store(true, Ordering::Release);
        // Serialised against `deactivate_self` (see there).
        let _m = self.membership.lock();
        for i in 0..self.num_threads {
            if !self.active[i].load(Ordering::Acquire) {
                self.sems[i].post();
            }
        }
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
        let fmt_vt = |cell: &AtomicU64| {
            let v = cell.load(Ordering::Acquire);
            if v == u64::MAX {
                "inf".to_string()
            } else {
                VirtualTime::from_ticks(v).to_string()
            }
        };
        StallDump {
            reason: reason.into(),
            system: system.into(),
            gvt: self.gvt().to_string(),
            gvt_rounds: self.gvt_rounds.load(Ordering::Acquire),
            num_active: self.num_active.load(Ordering::Acquire),
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
                .map(|i| ThreadDump {
                    thread: i,
                    phase: PHASE_NAMES[self.dbg_phase[i]
                        .load(Ordering::Relaxed)
                        .min(PHASE_NAMES.len() - 1)]
                    .into(),
                    joined_round: match self.dbg_joined[i].load(Ordering::Relaxed) {
                        0 => None,
                        id => Some(id - 1),
                    },
                    queue_len: self.queue_len[i].load(Ordering::Acquire),
                    active: self.active[i].load(Ordering::Acquire),
                    subscribed: m.subscribed[i],
                    sem_tokens: self.sems[i].tokens(),
                    window_min: fmt_vt(&self.window_min[i]),
                    queue_min: fmt_vt(&self.queue_min[i]),
                })
                .collect(),
            fault_counts: self.faults.counts(),
            last_round: self.telemetry.last_round(),
        }
    }
}

impl<P: Clone + serde::Serialize> RtShared<P> {
    /// Admit queued external submissions — called by the round's
    /// pseudo-controller right after [`Self::compute_gvt`]. Each admitted
    /// event is journaled and pushed to the thread owning its destination
    /// LP *inside* the gate lock, so the admission check, the durability
    /// append, and the queue-accounting publish are one atomic step with
    /// respect to the next GVT fence. Returns the number injected.
    pub fn pump_ingest(&self) -> u64 {
        let Some(plane) = &self.ingest else {
            return 0;
        };
        let res = plane.gate.pump(|_| true, &mut |ev| {
            let dst = plane.map.thread_of(ev.key.dst).index();
            self.push_msg(0, dst, Msg::Event(ev));
        });
        match res {
            Ok(out) => out.injected,
            Err(e) => {
                // Durability is gone for this admission: park the error for
                // the runner (the run fails rather than silently accepting
                // events a crash would lose).
                let mut slot = plane.error.lock();
                if slot.is_none() {
                    *slot = Some(e);
                }
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdes_core::{EventKey, EventUid, LpId};

    fn msg(t: f64) -> Msg<()> {
        // Distinct uid per timestamp: chaos filters deliberately refuse to
        // split or reorder same-uid messages, which is not what these tests
        // exercise.
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
    fn push_drain_roundtrip() {
        let s = shared(2);
        s.push_msg(0, 1, msg(5.0));
        s.push_msg(0, 1, msg(3.0));
        assert_eq!(s.queue_len[1].load(Ordering::Acquire), 2);
        let mut out = Vec::new();
        assert_eq!(s.drain(1, &mut out), 2);
        assert_eq!(s.queue_len[1].load(Ordering::Acquire), 0);
    }

    #[test]
    fn gvt_covers_parked_queue() {
        let s = shared(2);
        s.try_join_round(0);
        s.fold_min(0, VirtualTime::from_f64(10.0));
        s.push_msg(0, 1, msg(4.0));
        let g = s.compute_gvt();
        // window of sender (reset by fold? fold happened before push) —
        // covered by queue_min and the sender's residual window.
        assert!(g <= VirtualTime::from_f64(4.0));
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
        assert_eq!(s.num_active.load(Ordering::Acquire), 2);
        // A message arrives for the parked thread.
        s.push_msg(0, 2, msg(1.0));
        assert_eq!(s.activate(), 1);
        assert_eq!(s.num_active.load(Ordering::Acquire), 3);
        // The semaphore now holds the wake token.
        assert!(s.sems[2].try_wait());
    }

    #[test]
    fn last_active_thread_cannot_deactivate() {
        let s = shared(2);
        assert!(s.deactivate_self(0, 0));
        assert!(!s.deactivate_self(1, 0));
    }

    #[test]
    fn nobody_parks_once_the_run_has_terminated() {
        // The termination wake-up scan runs once; a thread that de-scheduled
        // itself after it would sleep forever.
        let s = shared(3);
        s.terminated.store(true, Ordering::Release);
        assert!(!s.deactivate_self(2, 0));
        assert!(s.active[2].load(Ordering::Acquire));
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
    fn faulty_drain_keeps_deferred_messages_covered() {
        let mut s = shared(2);
        s.set_faults(pdes_core::FaultInjector::new(pdes_core::FaultPlan {
            seed: 1,
            delay: Some(pdes_core::DelayFault { prob: 1.0 }),
            ..pdes_core::FaultPlan::default()
        }));
        s.push_msg(0, 1, msg(5.0));
        s.push_msg(0, 1, msg(3.0));
        let mut out = Vec::new();
        // Everything defers: nothing delivered, queue accounting intact.
        assert_eq!(s.drain(1, &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(s.queue_len[1].load(Ordering::Acquire), 2);
        // The held-back minimum still pins GVT.
        s.try_join_round(0);
        s.fold_min(0, VirtualTime::INFINITY);
        assert!(s.compute_gvt() <= VirtualTime::from_f64(3.0));
    }

    #[test]
    fn straggler_hold_keeps_minimum_resident() {
        let mut s = shared(2);
        s.set_faults(pdes_core::FaultInjector::new(pdes_core::FaultPlan {
            seed: 2,
            straggler: Some(pdes_core::StragglerFault {
                prob: 1.0,
                max_storms: 1,
            }),
            ..pdes_core::FaultPlan::default()
        }));
        s.push_msg(0, 1, msg(5.0));
        s.push_msg(0, 1, msg(3.0));
        s.push_msg(0, 1, msg(7.0));
        let mut out = Vec::new();
        assert_eq!(s.drain(1, &mut out), 2, "minimum held back");
        assert!(out
            .iter()
            .all(|m| m.recv_time() > VirtualTime::from_f64(3.5)));
        assert_eq!(s.queue_len[1].load(Ordering::Acquire), 1);
        // Budget exhausted: the straggler delivers on the next drain.
        out.clear();
        assert_eq!(s.drain(1, &mut out), 1);
        assert_eq!(out[0].recv_time(), VirtualTime::from_f64(3.0));
    }

    #[test]
    fn lost_wakeup_leaves_thread_parked_but_active() {
        let mut s = shared(3);
        s.set_faults(pdes_core::FaultInjector::new(pdes_core::FaultPlan {
            seed: 3,
            wakeup: Some(pdes_core::WakeupFault {
                lose_prob: 1.0,
                spurious_prob: 0.0,
                max_lost: 8,
            }),
            ..pdes_core::FaultPlan::default()
        }));
        assert!(s.deactivate_self(2, 0));
        s.push_msg(0, 2, msg(1.0));
        assert_eq!(s.activate(), 1);
        assert!(s.active[2].load(Ordering::Acquire), "marked active");
        assert!(!s.sems[2].try_wait(), "but the wake token was lost");
    }

    #[test]
    fn cancel_then_resend_pairs_keep_their_order() {
        // An anti-message followed by the re-sent positive twin (same uid)
        // models rollback's cancel-then-resend on one channel. No chaos
        // filter may swap them: the pending set panics on a positive that
        // arrives twice without its anti in between.
        let mut s = shared(2);
        s.set_faults(pdes_core::FaultInjector::new(pdes_core::FaultPlan {
            seed: 4,
            delay: Some(pdes_core::DelayFault { prob: 0.5 }),
            reorder: Some(pdes_core::ReorderFault { prob: 1.0 }),
            ..pdes_core::FaultPlan::default()
        }));
        let k = EventKey {
            recv_time: VirtualTime::from_f64(2.0),
            dst: LpId(0),
            uid: EventUid::new(LpId(1), 9),
        };
        for round in 0..32u64 {
            s.push_msg(0, 1, msg(100.0 + round as f64)); // distinct-uid decoy
            s.push_msg(0, 1, Msg::Anti(k));
            s.push_msg(
                0,
                1,
                Msg::Event(pdes_core::Event {
                    key: k,
                    send_time: VirtualTime::from_f64(0.0),
                    payload: (),
                }),
            );
            let mut seen = Vec::new();
            for _ in 0..8 {
                let mut out = Vec::new();
                s.drain(1, &mut out);
                seen.extend(out.iter().filter(|m| m.key() == k).map(|m| m.is_anti()));
                if seen.len() == 2 {
                    break;
                }
            }
            assert_eq!(
                seen,
                [true, false],
                "round {round}: anti must precede its re-sent positive"
            );
        }
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
