//! State shared between simulation-thread tasks on the virtual machine.
//!
//! The control plane — input queues with their GVT coverage minima, the GVT
//! round ([`Round`]) with its membership and transition rules, the
//! demand-driven bookkeeping (`active_threads`), the affinity table, the
//! ingest port and the telemetry board — is `pdes-core`'s and `telemetry`'s:
//! the very code `thread-rt` runs, so the machine's deterministic chaos and
//! recovery suites test it. It differs from `thread-rt` in one place only:
//! [`Membership`] is held bare, without the mutex (the machine is
//! single-threaded, so this is the paper's lock-free protocol). What lives
//! here is what only the machine needs: the cost model, the barrier park
//! lists, the ingest arrival script, kill/stall records and final
//! stats.

use crate::config::{SimCost, SystemConfig};
use machine::{MutexId, SemId};
use pdes_core::{
    AffinityTable, Demand, IngestGate, IngestPort, IngestRequest, LpMap, Membership, MessagePlane,
    Phase, ReplySlot, Round, StallDump, ThreadResult, VirtualTime, YieldCounts, YieldTier,
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
    pub sys: SystemConfig,
    pub cost: SimCost,

    /// Input queues, coverage minima, chaos hold-back and the fault plan.
    pub plane: MessagePlane<P>,
    /// The paper's `active_threads` array and its census.
    pub demand: Demand,
    /// GVT-round participation (deactivated threads unsubscribe), held bare.
    pub members: Membership,
    /// The round's progress, GVT, `terminated` and the checkpoint handshake.
    pub round: Round,
    /// Synchronous-mode barriers: the threads parked at each of a round's
    /// three arrival points (the arrival completing one empties it).
    bar_parked: [Vec<usize>; 3],
    /// When a thread gives its context away without parking (unarmed unless
    /// the runner finds GG-PDES on an over-subscribed machine).
    pub yield_tier: YieldTier,
    /// The paper's `sem_locks`: one binary semaphore per thread.
    pub sems: Vec<SemId>,

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
    /// Final per-thread engine stats and state digests, filled as tasks
    /// finish (a killed thread leaves `None`).
    pub finals: Vec<Option<ThreadResult>>,
    /// Debug: last observed control-loop phase per thread.
    pub dbg_phase: Vec<Phase>,
    /// Debug: last round id each thread joined.
    pub dbg_joined: Vec<Option<u64>>,
    /// Yield-tier yields per thread, by cause.
    pub dbg_yields: Vec<YieldCounts>,
    /// Scripted external-event ingest (`None` = no live ingest).
    pub ingest: Option<SimIngest<P>>,
    /// Virtual-time liveness bound: abort when GVT makes no progress for
    /// this many virtual ns (`None` disables the watchdog).
    pub watchdog_ns: Option<u64>,
    /// Set by the virtual-time liveness watchdog when it aborts the run.
    pub stall: Option<StallDump>,

    // ---- telemetry ----
    /// Live telemetry registry (an inert `off()` registry by default).
    pub telemetry: std::sync::Arc<telemetry::Telemetry>,
    /// Latest published per-thread LVT and cumulative counters.
    pub board: RoundBoard,
}

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
            sys,
            cost,
            plane: MessagePlane::new(num_threads),
            demand: Demand::new(num_threads),
            members: Membership::new(num_threads),
            round: Round::new(end_time),
            bar_parked: Default::default(),
            yield_tier: YieldTier::default(),
            sems: Vec::new(),
            killed: None,
            aff: AffinityTable::new(num_cores, num_threads),
            dd_mutex: None,
            controller_exit: false,
            gvt_wall_in_round: 0,
            finals: vec![None; num_threads],
            dbg_phase: vec![Phase::default(); num_threads],
            dbg_joined: vec![None; num_threads],
            dbg_yields: vec![YieldCounts::default(); num_threads],
            ingest: None,
            watchdog_ns: None,
            stall: None,
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

    // ---- GVT round protocol ------------------------------------------------

    /// [`Round::open`] a round if none is open. Returns whether `me`
    /// participates in the (now) open round.
    pub fn ensure_round_open(&mut self, me: usize, ops: &mut Vec<Op>) -> bool {
        let post = |i| ops.push(Op::Post(i));
        self.round.open(&mut self.members, &self.demand, me, post).0
    }

    /// Arrive at sync-mode barrier `idx` (0, 1, or 2 within the round).
    pub fn barrier_arrive(&mut self, me: usize, idx: usize, ops: &mut Vec<Op>) -> Arrive {
        debug_assert!(self.members.waiting_for(me).is_some());
        debug_assert!(self.bar_parked[idx].len() < self.members.participants);
        if self.bar_parked[idx].len() + 1 == self.members.participants {
            ops.extend(self.bar_parked[idx].drain(..).map(Op::Post));
            Arrive::Proceed
        } else {
            self.bar_parked[idx].push(me);
            Arrive::Park
        }
    }

    /// [`Round::end_phase`] for one participant; the last one closes the
    /// round. Returns `true` if this call closed it.
    pub fn end_phase(&mut self) -> bool {
        self.round.end_phase(&mut self.members)
    }

    // ---- demand-driven scheduling (Algorithms 1 & 2) ------------------------

    /// Algorithm 2 outside a round (the DD-PDES controller): wake the inactive
    /// threads with queued input. Returns the number of activations (the
    /// `Op::Post`s are queued).
    pub fn activate_queued(&mut self, ops: &mut Vec<Op>) -> usize {
        let plane = &self.plane;
        self.demand.activate(
            &mut self.members,
            &plane.faults,
            |i| plane.len(i) > 0,
            |i| ops.push(Op::Post(i)),
        )
    }

    /// Algorithm 1 (lines 9–12), [`Round::deactivate`] at the End of
    /// `completed_round`: bookkeeping for a thread de-scheduling itself; the
    /// caller must then `sem_wait`. Under DD-PDES the thread
    /// [`Self::dd_unsubscribe`]d first and holds the global lock here; a
    /// refusal re-subscribes it.
    pub fn deactivate_self(&mut self, me: usize, completed_round: u64) -> bool {
        assert!(
            self.plane.window_is_clear(me),
            "thread {me} deactivating with unfolded send window {} ({:?} {:?})",
            self.plane.minima(me).0,
            self.members,
            self.round,
        );
        let parked = self.round.deactivate(
            &mut self.members,
            &self.demand,
            &mut self.aff,
            me,
            completed_round,
        );
        self.members.subscribed[me] = !parked;
        parked
    }

    /// DD-PDES, step 1 of deactivation (at Phase End, lock-free):
    /// unsubscribe from GVT rounds so an opening round does not wait on a
    /// thread that is about to block on the scheduling lock.
    pub fn dd_unsubscribe(&mut self, me: usize) {
        self.members.subscribed[me] = false;
    }

    /// Snapshot everything a stall post-mortem needs. `sem_tokens[i]` is the
    /// token count of thread `i`'s scheduling semaphore (gathered by the
    /// caller, which can reach the kernel).
    pub fn build_stall_dump(&self, reason: &str, sem_tokens: &[u32]) -> StallDump {
        let thread = |i: usize| {
            (
                self.dbg_phase[i],
                self.dbg_joined[i],
                sem_tokens.get(i).copied().unwrap_or(0),
                self.dbg_yields[i].total(),
            )
        };
        let mut dump = StallDump {
            last_round: self.telemetry.last_round(),
            ..StallDump::capture(
                reason,
                self.sys.name(),
                &self.round,
                &self.members,
                &self.plane,
                &self.demand,
                thread,
            )
        };
        for (t, by) in dump.threads.iter_mut().zip(&self.dbg_yields) {
            t.yields_by_cause = Some(*by);
        }
        dump
    }
}

impl<P: Clone + serde::Serialize> Shared<P> {
    /// Replay due scripted arrivals, raise the admission floor to the GVT
    /// just computed, and inject every admitted event — called by the
    /// pseudo-controller right after [`Round::publish`]. The machine is
    /// single-threaded, so nothing can interleave between the floor update,
    /// the admission check, and the queue publish. Returns the number
    /// injected.
    pub fn pump_ingest(&mut self) -> u64 {
        let Some(ing) = &mut self.ingest else {
            return 0;
        };
        while let Some((round, req)) = ing.script.get(ing.next) {
            if *round > self.round.rounds() {
                break;
            }
            let _ = ing.port.gate.submit(req.clone(), ReplySlot::None);
            ing.next += 1;
        }
        ing.port.gate.set_floor(self.round.gvt());
        // The VM journals to memory only, so a pump cannot fail; the port
        // would park the error of a future journaled configuration.
        ing.port.pump(&self.plane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AffinityPolicy, GvtMode, Scheduler};
    use pdes_core::{EventKey, EventUid, LpId, Msg, SendBatcher};

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

    // The round's own rules are specified once, against `Round`
    // (pdes-core/tests/control_plane.rs); these cover what the machine adds.

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
    fn activation_posts_exactly_the_queued_parked_threads() {
        let mut s = mk(3, 2);
        assert!(s.deactivate_self(1, 0) && s.deactivate_self(2, 0));
        // A one-message landing: a buffer plus a flush.
        let mut one = SendBatcher::new(3, 64);
        one.buffer(&s.plane, 0, 2, msg(4.0));
        one.flush(&s.plane);
        let mut ops = Vec::new();
        assert_eq!(s.activate_queued(&mut ops), 1);
        assert_eq!(ops, vec![Op::Post(2)]);
        assert!(s.demand.is_active(2) && s.members.subscribed[2]);
        assert!(!s.demand.is_active(1));
    }

    #[test]
    fn a_refused_dd_deactivation_resubscribes() {
        let mut s = mk(2, 2);
        assert!(s.deactivate_self(0, 0));
        s.dd_unsubscribe(1);
        assert!(!s.deactivate_self(1, 0), "last active thread must stay");
        assert!(s.members.subscribed[1]);
        assert_eq!(s.demand.max_descheduled(), 1);
    }

    #[test]
    fn an_armed_round_posts_and_counts_the_parked() {
        let mut s = mk(3, 2);
        s.round.set_checkpoint_every(1);
        assert!(s.deactivate_self(2, 0));
        let mut ops = Vec::new();
        assert!(s.ensure_round_open(0, &mut ops));
        assert_eq!(ops, vec![Op::Post(2)]);
        assert_eq!(s.members.participants, 3);
        assert!(s.round.ckpt_armed_for(0));
    }

    #[test]
    fn termination_release_posts_all_inactive() {
        let mut s = mk(3, 2);
        s.deactivate_self(1, 0);
        s.deactivate_self(2, 0);
        s.round.terminate();
        let mut ops = Vec::new();
        let (faults, post) = (&s.plane.faults, |i| ops.push(Op::Post(i)));
        s.round
            .aware_tail(s.sys, &mut s.members, &s.demand, faults, |_| false, post);
        assert_eq!(ops, vec![Op::Post(1), Op::Post(2)]);
    }
}
