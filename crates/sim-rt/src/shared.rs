//! State shared between simulation-thread tasks on the virtual machine.
//!
//! The control plane — input queues with their GVT coverage minima, round
//! membership, the demand-driven bookkeeping (`active_threads`), the
//! affinity table, the ingest port and the telemetry board — is
//! `pdes-core`'s and `telemetry`'s: the very code `thread-rt` runs on real
//! atomics, so the machine's deterministic chaos and recovery suites test
//! it. It differs from `thread-rt` in one place only: [`Membership`] is
//! held bare, without the mutex (the machine is single-threaded, so this is
//! the paper's lock-free protocol). What lives here is what only the machine
//! needs: the cost model, the round's phase counters and barrier park
//! lists as plain integers, kill/stall/timeline records and final stats.

use crate::config::{SimCost, SystemConfig};
use machine::{MutexId, SemId};
use metrics::RunMetrics;
use pdes_core::{
    ckpt_round_due, AffinityTable, Demand, IngestGate, IngestPort, IngestRequest, LpMap,
    Membership, MessagePlane, Msg, ReplySlot, RoundDump, StallDump, ThreadDump, ThreadStats,
    VirtualTime, YieldTier,
};
use telemetry::RoundBoard;

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

/// The open round's progress (who takes part is [`Shared::members`]).
#[derive(Debug, Clone)]
pub struct Round {
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
    fn new() -> Self {
        Round {
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

/// Scripted external-event ingest for the deterministic virtual machine:
/// the port every runtime pumps, plus a script of submissions keyed by the
/// GVT round at which the client "arrives" with them. The VM has no real
/// client threads, so arrivals are replayed from the script at the round's
/// Aware phase — the same admission/pump path the real runtimes use, with
/// bit-identical verdicts.
pub struct SimIngest<P> {
    pub port: IngestPort<P>,
    /// `(gvt_round, request)` pairs, sorted by round.
    script: Vec<(u64, IngestRequest<P>)>,
    /// Script cursor.
    next: usize,
}

/// Everything the tasks share.
pub struct Shared<P> {
    pub num_threads: usize,
    pub end_time: VirtualTime,
    pub sys: SystemConfig,
    pub cost: SimCost,

    /// Input queues, coverage minima, chaos hold-back and the fault plan.
    pub plane: MessagePlane<P>,
    /// The paper's `active_threads` array and its census.
    pub demand: Demand,
    /// GVT-round participation (deactivated threads unsubscribe).
    pub members: Membership,
    /// When a thread gives its context away without parking (unarmed unless
    /// the runner finds GG-PDES on an over-subscribed machine).
    pub yield_tier: YieldTier,
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

    pub aff: AffinityTable,

    /// DD-PDES global scheduling lock.
    pub dd_mutex: Option<MutexId>,
    pub controller_exit: bool,

    // ---- metrics ----
    /// Σ over threads of wall time spent inside GVT rounds (ns).
    pub gvt_wall_in_round: u64,
    /// Would-be monotonicity violations (must stay 0).
    pub gvt_regressions: u64,
    /// Final per-thread engine stats, filled as tasks finish.
    pub final_stats: Vec<Option<ThreadStats>>,
    /// Final per-thread (lp, state-digest) lists.
    pub final_digests: Vec<Vec<(pdes_core::LpId, u64)>>,
    /// Debug: last observed control-loop phase per thread.
    pub dbg_phase: Vec<&'static str>,
    /// Debug: last round id each thread joined.
    pub dbg_joined: Vec<Option<u64>>,
    /// Debug: yield-tier yields per thread.
    pub dbg_yields: Vec<u64>,
    /// Scripted external-event ingest (`None` = no live ingest).
    pub ingest: Option<SimIngest<P>>,
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
    /// Latest published per-thread LVT and cumulative counters.
    pub board: RoundBoard,
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
            end_time,
            sys,
            cost,
            plane: MessagePlane::new(num_threads),
            demand: Demand::new(num_threads),
            members: Membership::new(num_threads),
            yield_tier: YieldTier::default(),
            sems: Vec::new(),
            gvt: VirtualTime::ZERO,
            gvt_rounds: 0,
            terminated: false,
            round: Round::new(),
            ckpt_every: 0,
            ckpt_round: None,
            killed: None,
            aff: AffinityTable::new(num_cores, num_threads),
            dd_mutex: None,
            controller_exit: false,
            gvt_wall_in_round: 0,
            gvt_regressions: 0,
            final_stats: vec![None; num_threads],
            final_digests: vec![Vec::new(); num_threads],
            dbg_phase: vec!["init"; num_threads],
            dbg_joined: vec![None; num_threads],
            dbg_yields: vec![0; num_threads],
            ingest: None,
            watchdog_ns: None,
            stall: None,
            timeline: Vec::new(),
            telemetry: telemetry::Telemetry::off(),
            board: RoundBoard::new(num_threads, num_threads),
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
            port: IngestPort::new(gate, map),
            script,
            next: 0,
        });
    }

    /// Stamp the per-round counter snapshot at round `id`'s End phase
    /// (no-op when telemetry is off). `now_ns` is virtual time here.
    pub fn tel_round_snapshot(&self, id: u64, now_ns: u64) {
        if self.telemetry.enabled() {
            self.telemetry.record_round(
                self.board.snapshot(
                    id,
                    self.gvt.ticks(),
                    now_ns,
                    self.demand.num_active(),
                    (0..self.num_threads).map(|i| self.plane.len(i)).collect(),
                    self.ingest
                        .as_ref()
                        .map_or((0, 0, 0, 0), |ing| ing.port.totals()),
                ),
            );
        }
    }

    // ---- GVT round protocol ------------------------------------------------

    /// Open a new round if none is open; snapshot the participant set.
    /// Returns whether `me` participates in the (now) open round.
    ///
    /// When the checkpoint cadence lands on the opening round, every thread
    /// is force-subscribed (and parked threads force-woken, chaos-exempt)
    /// *before* the participant snapshot, so the armed round's cut covers
    /// every engine.
    pub fn ensure_round_open(&mut self, me: usize, ops: &mut Vec<Op>) -> bool {
        if !self.members.open {
            if !self.terminated && ckpt_round_due(self.ckpt_every, self.gvt_rounds) {
                self.demand
                    .wake_all(Some(&mut self.members), |i| ops.push(Op::Post(i)));
                self.ckpt_round = Some(self.members.id);
            }
            self.members.open_round();
            self.round = Round::new();
        }
        self.members.participant[me]
    }

    /// Fold a thread's local minimum and its send window into the round.
    pub fn fold_min(&mut self, me: usize, local_min: VirtualTime) {
        let m = local_min.min(self.plane.take_window(me));
        self.round.min_fold = self.round.min_fold.min(m);
    }

    /// Compute the new GVT (pseudo-controller, Phase Aware): the folded
    /// minima plus every residual send window and every parked queue
    /// minimum — the conservative transient-message coverage.
    pub fn compute_gvt(&mut self) -> VirtualTime {
        let g = self.round.min_fold.min(self.plane.transient_min());
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
        debug_assert!(self.members.waiting_for(me).is_some());
        self.round.bar_arrived[idx] += 1;
        debug_assert!(self.round.bar_arrived[idx] <= self.members.participants);
        if self.round.bar_arrived[idx] == self.members.participants {
            ops.extend(self.round.bar_parked[idx].drain(..).map(Op::Post));
            Arrive::Proceed
        } else {
            self.round.bar_parked[idx].push(me);
            Arrive::Park
        }
    }

    /// Claim the pseudo-controller role for this round. First caller wins.
    pub fn claim_aware(&mut self) -> bool {
        !std::mem::replace(&mut self.round.aware_claimed, true)
    }

    /// Complete the End phase for one participant; the last one closes the
    /// round. Returns `true` if this call closed it.
    pub fn end_phase(&mut self) -> bool {
        self.round.end_done += 1;
        self.members.end_phase(self.round.end_done)
    }

    // ---- demand-driven scheduling (Algorithms 1 & 2) ------------------------

    /// Algorithm 2: wake the inactive threads with queued input. Returns the
    /// number of activations (the `Op::Post`s are queued).
    pub fn activate_queued(&mut self, ops: &mut Vec<Op>) -> usize {
        let plane = &self.plane;
        self.demand.activate(
            &mut self.members,
            &plane.faults,
            |i| plane.len(i) > 0,
            |i| ops.push(Op::Post(i)),
        )
    }

    /// Algorithm 1 (lines 9–12): bookkeeping for a thread de-scheduling
    /// itself; the caller must then `sem_wait`. Under DD-PDES the thread
    /// [`Self::dd_unsubscribe`]d first and holds the global lock here; a
    /// refusal (last active thread) re-subscribes it.
    pub fn deactivate_self(&mut self, me: usize) -> bool {
        assert!(
            self.plane.window_is_clear(me),
            "thread {me} deactivating with unfolded send window {} ({:?} {:?})",
            self.plane.minima(me).0,
            self.members,
            self.round,
        );
        let parked = self.demand.deactivate(&mut self.members, &mut self.aff, me);
        self.members.subscribed[me] = !parked;
        parked
    }

    /// DD-PDES, step 1 of deactivation (at Phase End, lock-free):
    /// unsubscribe from GVT rounds so an opening round does not wait on a
    /// thread that is about to block on the scheduling lock.
    pub fn dd_unsubscribe(&mut self, me: usize) {
        self.members.subscribed[me] = false;
    }

    // ---- termination --------------------------------------------------------

    /// Wake every de-scheduled thread so it can observe `terminated` and
    /// finish; also tells the DD controller to exit.
    pub fn release_all_for_termination(&mut self, ops: &mut Vec<Op>) {
        debug_assert!(self.terminated);
        self.controller_exit = true;
        self.demand.wake_all(None, |i| ops.push(Op::Post(i)));
    }

    /// Snapshot everything a stall post-mortem needs. `sem_tokens[i]` is the
    /// token count of thread `i`'s scheduling semaphore (gathered by the
    /// caller, which can reach the kernel).
    pub fn build_stall_dump(&self, reason: &str, sem_tokens: &[u32]) -> StallDump {
        StallDump {
            reason: reason.into(),
            system: self.sys.name(),
            gvt: self.gvt.to_string(),
            gvt_rounds: self.gvt_rounds,
            num_active: self.demand.num_active(),
            terminated: self.terminated,
            round: RoundDump {
                open: self.members.open,
                id: self.members.id,
                participants: self.members.participants,
                a_done: self.round.a_done,
                b_done: self.round.b_done,
                end_done: self.round.end_done,
                aware_claimed: self.round.aware_claimed,
            },
            threads: (0..self.num_threads)
                .map(|i| ThreadDump {
                    yields: self.dbg_yields[i],
                    ..ThreadDump::new(
                        i,
                        self.dbg_phase[i],
                        self.dbg_joined[i],
                        &self.plane,
                        &self.demand,
                        self.members.subscribed[i],
                        sem_tokens.get(i).copied().unwrap_or(0),
                    )
                })
                .collect(),
            fault_counts: self.plane.faults.counts(),
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
            max_descheduled: self.demand.max_descheduled(),
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
    /// single-threaded, so nothing can interleave between the floor update,
    /// the admission check, and the queue publish. Returns the number
    /// injected.
    pub fn pump_ingest(&mut self) -> u64 {
        let Some(ing) = &mut self.ingest else {
            return 0;
        };
        while let Some((round, req)) = ing.script.get(ing.next) {
            if *round > self.gvt_rounds {
                break;
            }
            let _ = ing.port.gate.submit(req.clone(), ReplySlot::None);
            ing.next += 1;
        }
        ing.port.gate.set_floor(self.gvt);
        // The VM journals to memory only, so a pump cannot fail; the port
        // would park the error of a future journaled configuration.
        let plane = &self.plane;
        ing.port
            .pump(|dst, ev| plane.push_msg(0, dst, Msg::Event(ev)))
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
    fn gvt_includes_parked_queue_and_windows() {
        let mut s = mk(3, 2);
        s.ensure_round_open(0, &mut Vec::new());
        s.fold_min(0, VirtualTime::from_f64(10.0));
        s.fold_min(1, VirtualTime::from_f64(12.0));
        // Thread 2 is inactive with a parked message at t=4; the send
        // leaves thread 0 a post-fold residual window as well.
        s.plane.push_msg(0, 2, msg(4.0));
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
        assert!(s.end_phase());
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
        assert!(s.claim_aware());
        assert!(!s.claim_aware());
        // End closes; next round claimable again.
        assert!(!s.end_phase());
        assert!(s.end_phase());
        s.ensure_round_open(0, &mut Vec::new());
        assert!(s.claim_aware());
    }

    #[test]
    fn activation_posts_exactly_the_queued_parked_threads() {
        let mut s = mk(3, 2);
        assert!(s.deactivate_self(1) && s.deactivate_self(2));
        s.plane.push_msg(0, 2, msg(4.0));
        let mut ops = Vec::new();
        assert_eq!(s.activate_queued(&mut ops), 1);
        assert_eq!(ops, vec![Op::Post(2)]);
        assert!(s.demand.is_active(2) && s.members.subscribed[2]);
        assert!(!s.demand.is_active(1));
    }

    #[test]
    fn a_refused_dd_deactivation_resubscribes() {
        let mut s = mk(2, 2);
        assert!(s.deactivate_self(0));
        s.dd_unsubscribe(1);
        assert!(!s.deactivate_self(1), "last active thread must stay");
        assert!(s.members.subscribed[1]);
        assert_eq!(s.demand.max_descheduled(), 1);
    }

    #[test]
    fn an_armed_round_posts_and_counts_the_parked() {
        let mut s = mk(3, 2);
        s.ckpt_every = 1;
        assert!(s.deactivate_self(2));
        let mut ops = Vec::new();
        assert!(s.ensure_round_open(0, &mut ops));
        assert_eq!(ops, vec![Op::Post(2)]);
        assert_eq!((s.members.participants, s.ckpt_round), (3, Some(0)));
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
