//! State shared between simulation-thread tasks on the virtual machine:
//! input queues, the demand-driven scheduling arrays (`active_threads`,
//! semaphores), the GVT round protocol, and the dynamic-affinity tables.
//!
//! In the real system these are concurrently-accessed arrays ("padded and
//! aligned to cache lines", §4.1.4); on the single-threaded virtual machine
//! they live behind one `Rc<RefCell<…>>`, but the *protocol* — who may touch
//! what in which GVT phase — is exactly the paper's, and is exercised as
//! such by the thread-rt implementation with real atomics.

use crate::config::{SimCost, SystemConfig};
use machine::{MutexId, SemId};
use metrics::RunMetrics;
use pdes_core::{
    chaos_filter, FaultInjector, IngestGate, IngestRequest, LpMap, Msg, ReplySlot, RoundDump,
    StallDump, ThreadDump, ThreadStats, VirtualTime,
};
use std::collections::VecDeque;

/// Deferred kernel operations produced while the shared state is borrowed;
/// the task applies them through [`machine::Ctx`] after releasing the borrow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `sem_post(sem_locks[thread])` — schedule the thread in.
    Post(usize),
    /// Pin `thread` to `core` (`sched_setaffinity`).
    Pin(usize, usize),
}

/// Outcome of arriving at the dynamic barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrive {
    /// This arrival completed the generation; wake the parked threads (the
    /// `Op::Post`s are already queued) and proceed.
    Proceed,
    /// Park: the caller must `sem_wait` on its own semaphore.
    Park,
}

/// Per-round GVT protocol state.
#[derive(Debug, Clone)]
pub struct Round {
    pub open: bool,
    pub id: u64,
    /// Participation snapshot taken when the round opened.
    pub participant: Vec<bool>,
    pub participants: usize,
    /// Wait-free phase counters.
    pub a_done: usize,
    pub b_done: usize,
    pub end_done: usize,
    /// Set once a thread claimed the pseudo-controller role (Phase Aware).
    pub aware_claimed: bool,
    /// Folded minimum (pending-set mins + send windows).
    pub min_fold: VirtualTime,
    /// Synchronous-mode barrier state: three arrival points per round.
    pub bar_arrived: [usize; 3],
    pub bar_parked: [Vec<usize>; 3],
}

impl Round {
    fn new(n: usize) -> Self {
        Round {
            open: false,
            id: 0,
            participant: vec![false; n],
            participants: 0,
            a_done: 0,
            b_done: 0,
            end_done: 0,
            aware_claimed: false,
            min_fold: VirtualTime::INFINITY,
            bar_arrived: [0; 3],
            bar_parked: [Vec::new(), Vec::new(), Vec::new()],
        }
    }
}

/// Dynamic CPU-affinity tables (§4.2), stored exactly as the paper does:
/// `core_of` is `affinity_table_inv` (`-1` = unpinned) and `core_load`
/// summarizes `affinity_table` per core (how many active threads are pinned
/// there) — the quantity the SMT-aware search minimizes.
#[derive(Debug, Clone)]
pub struct AffinityTables {
    pub core_load: Vec<i32>,
    pub core_of: Vec<i32>,
}

impl AffinityTables {
    pub fn new(num_cores: usize, num_threads: usize) -> Self {
        AffinityTables {
            core_load: vec![0; num_cores],
            core_of: vec![-1; num_threads],
        }
    }

    /// Core the thread is pinned to, if any.
    #[inline]
    pub fn core_of(&self, thread: usize) -> Option<usize> {
        let c = self.core_of[thread];
        (c >= 0).then_some(c as usize)
    }

    /// Pin `thread` to `core` in the tables.
    pub fn pin(&mut self, thread: usize, core: usize) {
        debug_assert_eq!(self.core_of[thread], -1, "double pin");
        self.core_of[thread] = core as i32;
        self.core_load[core] += 1;
    }

    /// Clear a deactivating thread's assignment (Algorithm 1, lines 9–10).
    pub fn clear(&mut self, thread: usize) {
        let c = self.core_of[thread];
        if c >= 0 {
            self.core_load[c as usize] -= 1;
            self.core_of[thread] = -1;
        }
    }

    /// Memory footprint in bytes. With the paper's layout (one `int` per
    /// core plus one per thread) this is ~16.6 KB at 4096 threads / 64
    /// cores — the paper quotes ~17 KB (§6.6).
    pub fn footprint_bytes(&self) -> usize {
        (self.core_load.len() + self.core_of.len()) * std::mem::size_of::<i32>()
    }
}

/// Scripted external-event ingest for the deterministic virtual machine:
/// the gate, the LP → thread routing map, and a script of submissions keyed
/// by the GVT round at which the client "arrives" with them. The VM has no
/// real client threads, so arrivals are replayed from the script at the
/// round's Aware phase — the same admission/pump path the real runtimes use,
/// with bit-identical verdicts.
pub struct SimIngest<P> {
    pub gate: std::sync::Arc<IngestGate<P>>,
    pub map: LpMap,
    /// `(gvt_round, request)` pairs, sorted by round.
    pub script: Vec<(u64, IngestRequest<P>)>,
    /// Script cursor.
    pub next: usize,
}

/// Everything the tasks share.
pub struct Shared<P> {
    pub num_threads: usize,
    pub num_cores: usize,
    pub end_time: VirtualTime,
    pub sys: SystemConfig,
    pub cost: SimCost,

    /// Per-thread input queues.
    pub queues: Vec<VecDeque<Msg<P>>>,
    /// Per-thread chaos hold-back buffer: messages a faulty drain deferred,
    /// delivered at the front of the next one. They count as queued (see
    /// [`Self::queue_len`]) and stay under `queue_min`, so neither GVT nor
    /// the activation scan loses sight of them.
    held: Vec<VecDeque<Msg<P>>>,
    /// Minimum receive time currently in each queue (∞ when empty) —
    /// transient-message coverage for GVT.
    pub queue_min: Vec<VirtualTime>,
    /// Residual send-window minimum per thread (folded each round).
    pub window_send_min: Vec<VirtualTime>,

    /// The paper's `active_threads` array.
    pub active: Vec<bool>,
    pub num_active: usize,
    /// GVT-round participation (deactivated threads unsubscribe).
    pub subscribed: Vec<bool>,
    /// The paper's `sem_locks`: one binary semaphore per thread.
    pub sems: Vec<SemId>,

    pub gvt: VirtualTime,
    pub gvt_rounds: u64,
    pub terminated: bool,
    pub round: Round,

    /// Take a GVT-aligned checkpoint every this many rounds (0 = disabled).
    pub ckpt_every: u64,
    /// Round id currently armed for a checkpoint, if any. Every thread is
    /// force-subscribed into an armed round so the cut covers all engines.
    pub ckpt_round: Option<u64>,
    /// Thread felled by a scripted [`pdes_core::FaultKind::WorkerKill`];
    /// the run is torn down and reported as failed for the supervisor.
    pub killed: Option<usize>,

    pub aff: AffinityTables,

    /// DD-PDES global scheduling lock.
    pub dd_mutex: Option<MutexId>,
    pub controller_exit: bool,

    // ---- metrics ----
    /// Σ over threads of wall time spent inside GVT rounds (ns).
    pub gvt_wall_in_round: u64,
    pub max_descheduled: usize,
    /// Would-be monotonicity violations (must stay 0).
    pub gvt_regressions: u64,
    /// Final per-thread engine stats, filled as tasks finish.
    pub final_stats: Vec<Option<ThreadStats>>,
    /// Final per-thread (lp, state-digest) lists.
    pub final_digests: Vec<Vec<(pdes_core::LpId, u64)>>,
    /// Debug: (round id, round open, a_done, b_done) at each thread's last
    /// window write.
    pub dbg_window_write: Vec<(u64, bool, usize, usize)>,
    /// Debug: last observed control-loop phase per thread.
    pub dbg_phase: Vec<&'static str>,
    /// Debug: last round id each thread joined.
    pub dbg_joined: Vec<Option<u64>>,
    /// Scripted external-event ingest (`None` = no live ingest).
    pub ingest: Option<SimIngest<P>>,
    /// Fault-injection plan (inert by default).
    pub faults: FaultInjector,
    /// Virtual-time liveness bound: abort when GVT makes no progress for
    /// this many virtual ns (`None` disables the watchdog).
    pub watchdog_ns: Option<u64>,
    /// Set by the virtual-time liveness watchdog when it aborts the run.
    pub stall: Option<StallDump>,
    /// Activity timeline: `(virtual ns, thread, scheduled-in?)` transitions,
    /// recorded at de-scheduling and reactivation (capped; see
    /// [`TIMELINE_CAP`]).
    pub timeline: Vec<(u64, usize, bool)>,

    // ---- telemetry ----
    /// Live telemetry registry (an inert `off()` registry by default).
    pub telemetry: std::sync::Arc<telemetry::Telemetry>,
    /// Latest published per-thread LVT ticks (`u64::MAX` = idle/∞).
    pub tel_lvt: Vec<u64>,
    /// Latest published per-thread cumulative counters.
    pub tel_committed: Vec<u64>,
    pub tel_processed: Vec<u64>,
    pub tel_rolled_back: Vec<u64>,
}

/// Maximum recorded timeline transitions (memory bound for long runs).
pub const TIMELINE_CAP: usize = 262_144;

impl<P> Shared<P> {
    pub fn new(
        num_threads: usize,
        num_cores: usize,
        end_time: VirtualTime,
        sys: SystemConfig,
        cost: SimCost,
    ) -> Self {
        Shared {
            num_threads,
            num_cores,
            end_time,
            sys,
            cost,
            queues: (0..num_threads).map(|_| VecDeque::new()).collect(),
            held: (0..num_threads).map(|_| VecDeque::new()).collect(),
            queue_min: vec![VirtualTime::INFINITY; num_threads],
            window_send_min: vec![VirtualTime::INFINITY; num_threads],
            active: vec![true; num_threads],
            num_active: num_threads,
            subscribed: vec![true; num_threads],
            sems: Vec::new(),
            gvt: VirtualTime::ZERO,
            gvt_rounds: 0,
            terminated: false,
            round: Round::new(num_threads),
            ckpt_every: 0,
            ckpt_round: None,
            killed: None,
            aff: AffinityTables::new(num_cores, num_threads),
            dd_mutex: None,
            controller_exit: false,
            gvt_wall_in_round: 0,
            max_descheduled: 0,
            gvt_regressions: 0,
            final_stats: vec![None; num_threads],
            final_digests: vec![Vec::new(); num_threads],
            dbg_window_write: vec![(0, false, 0, 0); num_threads],
            dbg_phase: vec!["init"; num_threads],
            dbg_joined: vec![None; num_threads],
            ingest: None,
            faults: FaultInjector::disabled(),
            watchdog_ns: None,
            stall: None,
            timeline: Vec::new(),
            telemetry: telemetry::Telemetry::off(),
            tel_lvt: vec![u64::MAX; num_threads],
            tel_committed: vec![0; num_threads],
            tel_processed: vec![0; num_threads],
            tel_rolled_back: vec![0; num_threads],
        }
    }

    /// Attach a scripted ingest plane (before the run starts). `script`
    /// holds `(gvt_round, request)` arrivals; it is sorted here so the pump
    /// can consume it with a cursor.
    pub fn set_ingest(
        &mut self,
        gate: std::sync::Arc<IngestGate<P>>,
        map: LpMap,
        mut script: Vec<(u64, IngestRequest<P>)>,
    ) {
        script.sort_by_key(|(round, _)| *round);
        self.ingest = Some(SimIngest {
            gate,
            map,
            script,
            next: 0,
        });
    }

    /// Whether telemetry collection is on for this run.
    #[inline]
    pub fn tel_enabled(&self) -> bool {
        self.telemetry.enabled()
    }

    /// Publish thread `me`'s LVT and cumulative engine counters for the
    /// next round snapshot (pass `VirtualTime::INFINITY` when idle).
    pub fn tel_publish(&mut self, me: usize, lvt: VirtualTime, stats: &ThreadStats) {
        self.tel_lvt[me] = if lvt.is_infinite() {
            u64::MAX
        } else {
            lvt.ticks()
        };
        self.tel_committed[me] = stats.committed;
        self.tel_processed[me] = stats.processed;
        self.tel_rolled_back[me] = stats.rolled_back;
    }

    /// Stamp the per-round counter snapshot at round `id`'s End phase
    /// (no-op when telemetry is off). `now_ns` is virtual time here.
    pub fn tel_round_snapshot(&self, id: u64, now_ns: u64) {
        if !self.telemetry.enabled() {
            return;
        }
        self.telemetry.record_round(telemetry::RoundTotals {
            round: id,
            gvt_ticks: self.gvt.ticks(),
            ts_ns: now_ns,
            committed: self.tel_committed.iter().sum(),
            processed: self.tel_processed.iter().sum(),
            rolled_back: self.tel_rolled_back.iter().sum(),
            active_threads: self.num_active,
            members: self.tel_lvt.len() as u64,
            lvt_ticks: self.tel_lvt.clone(),
            queue_depths: (0..self.num_threads).map(|i| self.queue_len(i)).collect(),
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

    // ---- message routing --------------------------------------------------

    /// Enqueue a message for `dst`, maintaining the queue minimum and the
    /// sender's send-window minimum.
    pub fn push_msg(&mut self, sender: usize, dst: usize, msg: Msg<P>) {
        let t = msg.recv_time();
        if t < self.queue_min[dst] {
            self.queue_min[dst] = t;
        }
        if t < self.window_send_min[sender] {
            self.window_send_min[sender] = t;
            self.dbg_window_write[sender] = (
                self.round.id,
                self.round.open,
                self.round.a_done,
                self.round.b_done,
            );
        }
        self.queues[dst].push_back(msg);
    }

    /// Messages waiting for thread `i`: queued plus held back by chaos.
    pub fn queue_len(&self, i: usize) -> usize {
        self.queues[i].len() + self.held[i].len()
    }

    /// Take every queued message for `me` (the queue minimum resets — the
    /// messages are about to enter the pending set, covered by the thread's
    /// own fold from now on). Under a fault plan [`chaos_filter`] holds some
    /// back; their `queue_min` coverage is restored *within this call*,
    /// before any GVT computation can observe the reset — so the deferral
    /// is invisible to the transient-message invariant (trivially, here: the
    /// virtual machine is single-threaded).
    pub fn drain(&mut self, me: usize) -> VecDeque<Msg<P>> {
        self.queue_min[me] = VirtualTime::INFINITY;
        let out = std::mem::take(&mut self.queues[me]);
        if !self.faults.is_enabled() {
            return out;
        }
        let mut batch = Vec::from(out);
        chaos_filter(&self.faults, &mut batch, &mut self.held[me]);
        for m in &self.held[me] {
            self.queue_min[me] = self.queue_min[me].min(m.recv_time());
        }
        batch.into()
    }

    // ---- GVT round protocol ------------------------------------------------

    /// Take every queued message for `me` *without* the chaos filter — the
    /// checkpoint drain at Phase End of an armed round must capture every
    /// in-flight message below the cut, so scripted deferral is exempt here
    /// (exactly as the real-thread runtime's clean drain).
    pub fn drain_clean(&mut self, me: usize) -> VecDeque<Msg<P>> {
        self.queue_min[me] = VirtualTime::INFINITY;
        let mut out = std::mem::take(&mut self.held[me]);
        out.append(&mut self.queues[me]);
        out
    }

    /// Open a new round if none is open; snapshot the participant set.
    /// Returns whether `me` participates in the (now) open round.
    ///
    /// When the checkpoint cadence lands on the opening round, every thread
    /// is force-subscribed (and parked threads force-woken, chaos-exempt)
    /// *before* the participant snapshot, so the armed round's cut covers
    /// every engine.
    pub fn ensure_round_open(&mut self, me: usize, ops: &mut Vec<Op>) -> bool {
        if !self.round.open {
            let arm = self.ckpt_every > 0
                && !self.terminated
                && (self.gvt_rounds + 1).is_multiple_of(self.ckpt_every);
            if arm {
                for i in 0..self.num_threads {
                    self.subscribed[i] = true;
                    if !self.active[i] {
                        self.active[i] = true;
                        self.num_active += 1;
                        ops.push(Op::Post(i));
                    }
                }
                self.ckpt_round = Some(self.round.id);
            }
            self.round.open = true;
            self.round.participant.copy_from_slice(&self.subscribed);
            self.round.participants = self.subscribed.iter().filter(|&&s| s).count();
            self.round.a_done = 0;
            self.round.b_done = 0;
            self.round.end_done = 0;
            self.round.aware_claimed = false;
            self.round.min_fold = VirtualTime::INFINITY;
            self.round.bar_arrived = [0; 3];
            for p in &mut self.round.bar_parked {
                p.clear();
            }
        }
        self.round.participant[me]
    }

    /// Fold a thread's local minimum and its send window into the round.
    pub fn fold_min(&mut self, me: usize, local_min: VirtualTime) {
        let w = std::mem::replace(&mut self.window_send_min[me], VirtualTime::INFINITY);
        let m = local_min.min(w);
        if m < self.round.min_fold {
            self.round.min_fold = m;
        }
    }

    /// Compute the new GVT (pseudo-controller, Phase Aware): the folded
    /// minima plus every residual send window and every parked queue
    /// minimum — the conservative transient-message coverage.
    pub fn compute_gvt(&mut self) -> VirtualTime {
        let mut g = self.round.min_fold;
        for i in 0..self.num_threads {
            g = g.min(self.window_send_min[i]).min(self.queue_min[i]);
        }
        if g < self.gvt {
            // Must never happen — counted so tests can assert on it.
            self.gvt_regressions += 1;
        } else {
            self.gvt = g;
        }
        self.gvt_rounds += 1;
        if self.gvt >= self.end_time {
            self.terminated = true;
        }
        self.gvt
    }

    /// Arrive at sync-mode barrier `idx` (0, 1, or 2 within the round).
    pub fn barrier_arrive(&mut self, me: usize, idx: usize, ops: &mut Vec<Op>) -> Arrive {
        debug_assert!(self.round.open && self.round.participant[me]);
        self.round.bar_arrived[idx] += 1;
        debug_assert!(self.round.bar_arrived[idx] <= self.round.participants);
        if self.round.bar_arrived[idx] == self.round.participants {
            for &t in &self.round.bar_parked[idx] {
                ops.push(Op::Post(t));
            }
            self.round.bar_parked[idx].clear();
            Arrive::Proceed
        } else {
            self.round.bar_parked[idx].push(me);
            Arrive::Park
        }
    }

    /// Claim the pseudo-controller role for this round. First caller wins.
    pub fn claim_aware(&mut self, _me: usize) -> bool {
        if self.round.aware_claimed {
            return false;
        }
        self.round.aware_claimed = true;
        true
    }

    /// Complete the End phase for one participant; the last one closes the
    /// round. Returns `true` if this call closed it.
    pub fn end_phase(&mut self) -> bool {
        self.round.end_done += 1;
        if self.round.end_done == self.round.participants {
            self.round.open = false;
            self.round.id += 1;
            true
        } else {
            false
        }
    }

    // ---- demand-driven scheduling (Algorithms 1 & 2) ------------------------

    /// Algorithm 2: scan for inactive threads with pending input and wake
    /// them. Returns the number of activations (the `Op::Post`s are queued).
    pub fn activate(&mut self, ops: &mut Vec<Op>) -> usize {
        let mut n = 0;
        if self.num_active < self.num_threads {
            for i in 0..self.num_threads {
                if !self.active[i] && self.queue_len(i) > 0 {
                    self.active[i] = true;
                    self.subscribed[i] = true;
                    self.num_active += 1;
                    // Lost wake-up fault: the bookkeeping above happened but
                    // the `sem_post` never goes out — the thread stays parked
                    // while the protocol believes it is running. (Termination
                    // wake-ups in `release_all_for_termination` are exempt.)
                    if !self.faults.lose_wakeup() {
                        ops.push(Op::Post(i));
                    }
                    n += 1;
                }
            }
            if self.faults.spurious_wakeup() {
                // Post a thread that was *not* activated: its task must
                // re-park rather than trust the token.
                if let Some(i) = (0..self.num_threads).find(|&i| !self.active[i]) {
                    ops.push(Op::Post(i));
                }
            }
        }
        n
    }

    /// Algorithm 1 (lines 9–12): bookkeeping for a thread de-scheduling
    /// itself. The caller must then `sem_wait`. Refuses to deactivate the
    /// last active thread — someone must remain to run GVT rounds and
    /// reactivate the others (see DESIGN.md §5.6).
    pub fn deactivate_self(&mut self, me: usize) -> bool {
        if self.num_active <= 1 {
            return false;
        }
        assert!(
            self.window_send_min[me].is_infinite(),
            "thread {me} deactivating with unfolded send window {} (round open={} id={} a_done={} b_done={} participants={})",
            self.window_send_min[me],
            self.round.open,
            self.round.id,
            self.round.a_done,
            self.round.b_done,
            self.round.participants,
        );
        self.aff.clear(me);
        self.active[me] = false;
        self.subscribed[me] = false;
        self.num_active -= 1;
        let parked = self.num_threads - self.num_active;
        if parked > self.max_descheduled {
            self.max_descheduled = parked;
        }
        true
    }

    /// DD-PDES, step 1 of deactivation (at Phase End, lock-free):
    /// unsubscribe from GVT rounds so an opening round does not wait on a
    /// thread that is about to block on the scheduling lock.
    pub fn dd_unsubscribe(&mut self, me: usize) {
        self.subscribed[me] = false;
    }

    /// DD-PDES, step 2 (holding the global lock): the actual bookkeeping.
    /// Refuses (and re-subscribes) if this is the last active thread.
    pub fn dd_finalize_deact(&mut self, me: usize) -> bool {
        if self.num_active <= 1 {
            self.subscribed[me] = true;
            return false;
        }
        assert!(
            self.window_send_min[me].is_infinite(),
            "thread {me} DD-deactivating with unfolded send window {} (written at {:?}; now round id={} open={} a={} b={} end={} participant={})",
            self.window_send_min[me],
            self.dbg_window_write[me],
            self.round.id,
            self.round.open,
            self.round.a_done,
            self.round.b_done,
            self.round.end_done,
            self.round.participant[me],
        );
        self.aff.clear(me);
        self.active[me] = false;
        self.num_active -= 1;
        let parked = self.num_threads - self.num_active;
        if parked > self.max_descheduled {
            self.max_descheduled = parked;
        }
        true
    }

    /// Wake-side bookkeeping (Algorithm 1, lines 14–17) — under GG the
    /// pseudo-controller already set the flags in [`Self::activate`]; this
    /// is a consistency check plus reactivation of termination stragglers.
    pub fn on_wake(&mut self, me: usize) {
        if !self.terminated {
            debug_assert!(self.active[me], "woken thread must be marked active");
        }
    }

    // ---- Dynamic CPU affinity (Algorithm 4) ---------------------------------

    /// Pin every active-but-unpinned thread to the least-loaded core.
    /// Returns (threads pinned, table entries scanned) for cost accounting.
    pub fn set_cpu_affinity(&mut self, ops: &mut Vec<Op>) -> (usize, usize) {
        let mut pinned = 0;
        let mut scanned = 0;
        for t in 0..self.num_threads {
            scanned += 1;
            if !self.active[t] || self.aff.core_of(t).is_some() {
                continue;
            }
            // SMT-aware search: the core with the fewest active pinned
            // threads (ties → lowest index).
            let mut best = 0;
            for c in 1..self.num_cores {
                scanned += 1;
                if self.aff.core_load[c] < self.aff.core_load[best] {
                    best = c;
                }
            }
            self.aff.pin(t, best);
            ops.push(Op::Pin(t, best));
            pinned += 1;
        }
        (pinned, scanned)
    }

    // ---- termination --------------------------------------------------------

    /// Wake every de-scheduled thread so it can observe `terminated` and
    /// finish; also tells the DD controller to exit.
    pub fn release_all_for_termination(&mut self, ops: &mut Vec<Op>) {
        debug_assert!(self.terminated);
        self.controller_exit = true;
        for i in 0..self.num_threads {
            if !self.active[i] {
                ops.push(Op::Post(i));
            }
        }
    }

    /// Snapshot everything a stall post-mortem needs. `sem_tokens[i]` is the
    /// token count of thread `i`'s scheduling semaphore (gathered by the
    /// caller, which can reach the kernel).
    pub fn build_stall_dump(&self, reason: &str, sem_tokens: &[u32]) -> StallDump {
        let fmt_vt = |t: VirtualTime| {
            if t.is_infinite() {
                "inf".to_string()
            } else {
                t.to_string()
            }
        };
        StallDump {
            reason: reason.into(),
            system: self.sys.name(),
            gvt: self.gvt.to_string(),
            gvt_rounds: self.gvt_rounds,
            num_active: self.num_active,
            terminated: self.terminated,
            round: RoundDump {
                open: self.round.open,
                id: self.round.id,
                participants: self.round.participants,
                a_done: self.round.a_done,
                b_done: self.round.b_done,
                end_done: self.round.end_done,
                aware_claimed: self.round.aware_claimed,
            },
            threads: (0..self.num_threads)
                .map(|i| ThreadDump {
                    thread: i,
                    phase: self.dbg_phase[i].into(),
                    joined_round: self.dbg_joined[i],
                    queue_len: self.queue_len(i),
                    active: self.active[i],
                    subscribed: self.subscribed[i],
                    sem_tokens: sem_tokens.get(i).copied().unwrap_or(0),
                    window_min: fmt_vt(self.window_send_min[i]),
                    queue_min: fmt_vt(self.queue_min[i]),
                })
                .collect(),
            fault_counts: self.faults.counts(),
            last_round: self.telemetry.last_round(),
        }
    }

    /// Record an activity transition for the timeline.
    pub fn record_transition(&mut self, now_ns: u64, thread: usize, scheduled_in: bool) {
        if self.timeline.len() < TIMELINE_CAP {
            self.timeline.push((now_ns, thread, scheduled_in));
        }
    }

    // ---- final metrics -------------------------------------------------------

    /// Aggregate the per-thread stats into a [`RunMetrics`] skeleton (wall
    /// time and work totals are filled from the machine report by the
    /// runner).
    pub fn collect_metrics(&self) -> RunMetrics {
        let mut total = ThreadStats::default();
        for s in self.final_stats.iter().flatten() {
            total.merge(s);
        }
        RunMetrics {
            system: self.sys.name(),
            threads: self.num_threads,
            committed: total.committed,
            processed: total.processed,
            rolled_back: total.rolled_back,
            rollbacks: total.rollbacks,
            antis_sent: total.antis_sent,
            gvt_rounds: self.gvt_rounds,
            gvt_cpu_secs: self.gvt_wall_in_round as f64 * 1e-9,
            max_descheduled: self.max_descheduled,
            commit_digest: total.commit_digest,
            protocol: "optimistic".into(),
            ..Default::default()
        }
    }
}

impl<P: Clone + serde::Serialize> Shared<P> {
    /// Replay due scripted arrivals, raise the admission floor to the GVT
    /// just computed, and inject every admitted event — called by the
    /// pseudo-controller right after `compute_gvt`. The machine is
    /// single-threaded, so "under the gate lock" is trivially satisfied:
    /// nothing can interleave between the floor update, the admission check,
    /// and the queue publish. Returns the number injected.
    pub fn pump_ingest(&mut self) -> u64 {
        let Some(ing) = &mut self.ingest else {
            return 0;
        };
        let round = self.gvt_rounds;
        let gate = std::sync::Arc::clone(&ing.gate);
        while ing.next < ing.script.len() && ing.script[ing.next].0 <= round {
            let req = ing.script[ing.next].1.clone();
            ing.next += 1;
            let _ = gate.submit(req, ReplySlot::None);
        }
        gate.set_floor(self.gvt);
        let map = ing.map.clone();
        let mut buf = Vec::new();
        if gate.pump(|_| true, &mut |ev| buf.push(ev)).is_err() {
            // The VM journals to memory only (no path), so an append failure
            // is unreachable; a future journaled config would surface it.
            return 0;
        }
        let n = buf.len() as u64;
        for ev in buf {
            let dst = map.thread_of(ev.key.dst).index();
            self.push_msg(0, dst, Msg::Event(ev));
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AffinityPolicy, GvtMode, Scheduler};
    use pdes_core::{EventKey, EventUid, LpId};

    fn mk(n: usize, cores: usize) -> Shared<()> {
        Shared::new(
            n,
            cores,
            VirtualTime::from_f64(100.0),
            SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant),
            SimCost::default(),
        )
    }

    fn msg(t: f64) -> Msg<()> {
        Msg::Anti(EventKey {
            recv_time: VirtualTime::from_f64(t),
            dst: LpId(0),
            uid: EventUid::new(LpId(0), 0),
        })
    }

    #[test]
    fn push_and_drain_maintain_queue_min() {
        let mut s = mk(2, 2);
        s.push_msg(0, 1, msg(5.0));
        s.push_msg(0, 1, msg(3.0));
        assert_eq!(s.queue_min[1], VirtualTime::from_f64(3.0));
        assert_eq!(s.window_send_min[0], VirtualTime::from_f64(3.0));
        let drained = s.drain(1);
        assert_eq!(drained.len(), 2);
        assert_eq!(s.queue_min[1], VirtualTime::INFINITY);
    }

    #[test]
    fn round_snapshot_freezes_participants() {
        let mut s = mk(4, 2);
        s.subscribed[3] = false;
        assert!(s.ensure_round_open(0, &mut Vec::new()));
        assert_eq!(s.round.participants, 3);
        // Subscribing mid-round does not join the current round.
        s.subscribed[3] = true;
        assert!(!s.round.participant[3]);
    }

    #[test]
    fn gvt_includes_parked_queue_and_windows() {
        let mut s = mk(3, 2);
        s.ensure_round_open(0, &mut Vec::new());
        s.fold_min(0, VirtualTime::from_f64(10.0));
        s.fold_min(1, VirtualTime::from_f64(12.0));
        // Thread 2 is inactive with a parked message at t=4.
        s.push_msg(0, 2, msg(4.0));
        // Thread 0's post-fold send leaves a residual window at 6.
        s.window_send_min[0] = VirtualTime::from_f64(6.0);
        let g = s.compute_gvt();
        assert_eq!(g, VirtualTime::from_f64(4.0));
        assert_eq!(s.gvt_regressions, 0);
    }

    #[test]
    fn gvt_regression_is_counted_not_applied() {
        let mut s = mk(1, 1);
        s.ensure_round_open(0, &mut Vec::new());
        s.fold_min(0, VirtualTime::from_f64(10.0));
        s.compute_gvt();
        s.ensure_round_open(0, &mut Vec::new());
        s.fold_min(0, VirtualTime::from_f64(5.0));
        let g = s.compute_gvt();
        assert_eq!(g, VirtualTime::from_f64(10.0), "gvt must not regress");
        assert_eq!(s.gvt_regressions, 1);
    }

    #[test]
    fn gvt_past_end_terminates() {
        let mut s = mk(1, 1);
        s.ensure_round_open(0, &mut Vec::new());
        let g = s.compute_gvt(); // everything empty → ∞
        assert!(g.is_infinite());
        assert!(s.terminated);
    }

    #[test]
    fn barrier_parks_until_last_arrival() {
        let mut s = mk(3, 2);
        for i in 0..3 {
            s.ensure_round_open(i, &mut Vec::new());
        }
        let mut ops = Vec::new();
        assert_eq!(s.barrier_arrive(0, 0, &mut ops), Arrive::Park);
        assert_eq!(s.barrier_arrive(1, 0, &mut ops), Arrive::Park);
        assert!(ops.is_empty());
        assert_eq!(s.barrier_arrive(2, 0, &mut ops), Arrive::Proceed);
        assert_eq!(ops, vec![Op::Post(0), Op::Post(1)]);
    }

    #[test]
    fn aware_claim_is_exclusive_per_round() {
        let mut s = mk(2, 2);
        s.ensure_round_open(0, &mut Vec::new());
        assert!(s.claim_aware(0));
        assert!(!s.claim_aware(1));
        // End closes; next round claimable again.
        assert!(!s.end_phase());
        assert!(s.end_phase());
        s.ensure_round_open(0, &mut Vec::new());
        assert!(s.claim_aware(1));
    }

    #[test]
    fn activate_wakes_only_queued_inactive_threads() {
        let mut s = mk(3, 2);
        s.active[1] = false;
        s.active[2] = false;
        s.subscribed[1] = false;
        s.subscribed[2] = false;
        s.num_active = 1;
        s.push_msg(0, 2, msg(4.0));
        let mut ops = Vec::new();
        assert_eq!(s.activate(&mut ops), 1);
        assert_eq!(ops, vec![Op::Post(2)]);
        assert!(s.active[2] && s.subscribed[2]);
        assert!(!s.active[1]);
        assert_eq!(s.num_active, 2);
    }

    #[test]
    fn deactivate_refuses_last_active_thread() {
        let mut s = mk(2, 2);
        assert!(s.deactivate_self(0));
        assert!(!s.deactivate_self(1), "last active thread must stay");
        assert_eq!(s.num_active, 1);
        assert_eq!(s.max_descheduled, 1);
    }

    #[test]
    fn dynamic_affinity_spreads_across_cores() {
        let mut s = mk(4, 2);
        let mut ops = Vec::new();
        let (pinned, _) = s.set_cpu_affinity(&mut ops);
        assert_eq!(pinned, 4);
        // 4 threads over 2 cores → 2 each.
        assert_eq!(s.aff.core_load, vec![2, 2]);
        // Deactivate thread 0 (core 0) → its slot clears.
        s.deactivate_self(0);
        assert_eq!(s.aff.core_load, vec![1, 2]);
        // A reactivated thread 0 re-pins to the now-least-loaded core 0.
        s.active[0] = true;
        ops.clear();
        s.set_cpu_affinity(&mut ops);
        assert_eq!(ops, vec![Op::Pin(0, 0)]);
    }

    #[test]
    fn affinity_footprint_is_small() {
        let aff = AffinityTables::new(64, 4096);
        // §6.6: ~17 KB at 4096 threads on 64 cores.
        assert!(aff.footprint_bytes() < 70 * 1024);
    }

    #[test]
    fn termination_release_posts_all_inactive() {
        let mut s = mk(3, 2);
        s.deactivate_self(1);
        s.deactivate_self(2);
        s.terminated = true;
        let mut ops = Vec::new();
        s.release_all_for_termination(&mut ops);
        assert_eq!(ops, vec![Op::Post(1), Op::Post(2)]);
        assert!(s.controller_exit);
    }
}
