//! One simulation thread's half of the GVT round: the thread-local
//! counterpart of [`Round`].
//!
//! A [`Participant`] owns what a thread carries through its control loop and
//! holds the steps that are the same on real threads and on the virtual
//! machine: receive, the round trigger, the folds, the checkpoint cut, the
//! End tail, parking. It lands its own sends through its [`SendBatcher`],
//! into whichever [`SendSink`] the runtime hands it. What differs comes in
//! as arguments or stays with the runtime: the sink, which lock guards
//! [`Membership`], how a thread waits, what a step costs (the steps return
//! the counts the machine prices), which clock stamps a span.

use crate::batch::{SendBatcher, SendSink, CAP};
use crate::board::RoundBoard;
use crate::config::EngineConfig;
use crate::engine::{Outbound, ThreadEngine};
use crate::event::Msg;
use crate::ids::LpId;
use crate::model::Model;
use crate::plane::MessagePlane;
use crate::recovery::CkptSink;
use crate::sched::{IdleTracker, Membership, Round, Turnover};
use crate::stats::ThreadStats;
use crate::system::SystemConfig;
use crate::time::VirtualTime;

/// An inbox buffer larger than this, filled to less than an eighth by the
/// drain it came back from, was grown by a burst that is over (the initial
/// events): `receive` hands back all but twice that drain's room. The
/// benchmark workloads' steady-state buffers stay below it, so they are
/// not shrunk and regrown.
const BURST_BYTES: usize = 64 << 10;

/// One simulation thread's state and steps through its control loop.
pub struct Participant<M: Model> {
    me: usize,
    pub engine: ThreadEngine<M>,
    inbox: Vec<Msg<M::Payload>>,
    /// What delivery and the batch want sent, until [`Self::land`].
    pub outbox: Vec<Outbound<M::Payload>>,
    /// Lands the outbox: one bulk push per destination.
    batcher: SendBatcher<M::Payload>,
    idle: IdleTracker,
    /// The yield tier's count (DESIGN §5.8): `receive` and `woke` restart
    /// it; the runtime that enacts the tier adds what its cycles process and
    /// restarts it at a yield.
    pub turnover: Turnover,
    /// Round this thread last folded into. Parking leaves it alone: a woken
    /// thread joins the open round iff its id is newer.
    joined: Option<u64>,
    /// Main-loop cycles since then (the paper's 1-in-200 trigger).
    cycles_since: u64,
    /// The run's engine parameters (batch size, round interval).
    pub ecfg: EngineConfig,
    /// `thread_rt::Protocol::PARKS_WITH_PENDING`: a conservative thread may.
    parks_with_pending: bool,
}

impl<M: Model> Participant<M> {
    pub fn new(engine: ThreadEngine<M>, ecfg: EngineConfig, parks_with_pending: bool) -> Self {
        Participant {
            me: engine.tid().index(),
            batcher: SendBatcher::new(engine.map().num_threads as usize, CAP),
            engine,
            inbox: Vec::new(),
            outbox: Vec::new(),
            idle: IdleTracker::new(ecfg.zero_counter_threshold),
            turnover: Turnover::default(),
            joined: None,
            cycles_since: 0,
            ecfg,
            parks_with_pending,
        }
    }

    pub fn joined(&self) -> Option<u64> {
        self.joined
    }

    /// Drain the input queue (chaos-exempt when `clean`) and deliver it; what
    /// delivery sends waits in the outbox. Returns (messages received, events
    /// rolled back).
    pub fn receive(&mut self, plane: &MessagePlane<M::Payload>, clean: bool) -> (u64, u64) {
        self.inbox.clear();
        let n = if clean {
            plane.drain_clean(self.me, &mut self.inbox)
        } else {
            plane.drain(self.me, &mut self.inbox)
        };
        let mut rolled = 0;
        self.outbox.clear();
        for m in self.inbox.drain(..) {
            rolled += self.engine.deliver(m, &mut self.outbox).rolled_back as u64;
        }
        // The inbox and the input queue swap buffers at a drain, so without
        // this a burst's buffers would circulate at its size all run.
        let room = self.inbox.capacity();
        if room * std::mem::size_of::<Msg<M::Payload>>() > BURST_BYTES && room > 8 * n {
            self.inbox.shrink_to(2 * n);
        }
        if n > 0 {
            self.turnover.restart(self.engine.pending_len());
        }
        (n as u64, rolled)
    }

    /// May this thread count idle polls toward parking, and park? Not while
    /// it holds live pending events, unless the protocol parks with them.
    fn parkable(&self) -> bool {
        self.parks_with_pending || !self.engine.has_live_pending()
    }

    /// Algorithm 1, `read_message_count`: account a main-loop cycle that
    /// spent `idle_polls` polls receiving and processing nothing.
    pub fn observe_idle(&mut self, idle_polls: u64) {
        self.idle.observe(idle_polls, self.parkable());
    }

    /// The round trigger, after `cycles` more main-loop cycles: the thread's
    /// own 1-in-`gvt_interval` counter, or an open round whose participant
    /// snapshot is waiting for this thread.
    pub fn round_due(&mut self, cycles: u64, m: &Membership) -> bool {
        self.cycles_since += cycles;
        let waiting = m.waiting_for(self.me);
        self.cycles_since >= self.ecfg.gvt_interval as u64
            || waiting.is_some_and(|id| self.joined != Some(id))
    }

    /// Join round `id` — [`Round::open`] said whether this thread is one of
    /// its participants — unless it already folded into it.
    pub fn join(&mut self, participate: bool, id: u64) -> bool {
        let fresh = participate && self.joined != Some(id);
        if fresh {
            self.joined = Some(id);
            self.cycles_since = 0;
        }
        fresh
    }

    /// Land the outbox in the destination queues: the cycle boundary's
    /// flush. Returns the number of messages sent.
    pub fn land(&mut self, sink: impl SendSink<M::Payload>) -> u64 {
        let sends = self.outbox.len() as u64;
        self.batcher.land(sink, self.me, &mut self.outbox);
        sends
    }

    /// A phase fold: record this thread's minimum (pending set + send
    /// window) in the open round. The fold resets the send window, so
    /// everything received from `plane` is delivered and everything to send
    /// is landed in `sink` before then. `board` is given when tracing.
    /// Returns (messages received, events rolled back, messages sent).
    pub fn fold(
        &mut self,
        sink: impl SendSink<M::Payload>,
        plane: &MessagePlane<M::Payload>,
        round: &Round,
        board: Option<&RoundBoard>,
    ) -> (u64, u64, u64) {
        let (n, rolled) = self.receive(plane, false);
        let sends = self.land(sink);
        let local = self.engine.local_min();
        round.fold(plane, self.me, local);
        self.publish(board, local);
        (n, rolled, sends)
    }

    /// Phase End of an armed round: this thread's share of the consistent
    /// cut at the published GVT. A chaos-exempt drain of `plane` pulls in every
    /// cut-crossing message (all are queued by now: an event processed after
    /// the phase-B folds has recv ≥ GVT, so its sends do too, and the cut
    /// excludes them), fossil collection pins the committed state at the
    /// cut, and the snapshot is deposited for assembly by the last of
    /// `participants`. Returns (messages received, LPs snapshotted).
    pub fn cut(
        &mut self,
        sink: impl SendSink<M::Payload>,
        plane: &MessagePlane<M::Payload>,
        round: &Round,
        participants: usize,
        ckpt: &CkptSink<M>,
    ) -> (u64, u64) {
        let id = self.joined.expect("a cut is taken at a joined round's End");
        let (n, _) = self.receive(plane, true);
        self.land(sink);
        let g = round.gvt();
        self.engine.fossil_collect(g);
        let part = self.engine.snapshot_at_gvt(g);
        let lps = part.0.len() as u64;
        let cursor = plane.faults.cursor();
        if let Err(e) = ckpt.deposit(id, g, round.rounds(), part, participants, cursor) {
            eprintln!("[checkpoint] {e} (run continues)");
        }
        (n, lps)
    }

    /// Phase End, before [`Round::end_phase`]: ask Algorithm 1 whether to
    /// park after the close (returned) and, when tracing, refresh the board
    /// so the closer's snapshot reflects post-round totals, not the phase-B
    /// fold.
    pub fn end_tail(
        &mut self,
        sys: SystemConfig,
        plane: &MessagePlane<M::Payload>,
        round: &Round,
        board: Option<&RoundBoard>,
    ) -> bool {
        self.publish(board, self.engine.local_min());
        let parkable = self.parkable();
        self.idle.wants_park(sys, round, plane, self.me, parkable)
    }

    /// Publish this thread's LVT (∞ once de-scheduled: round snapshots
    /// render an idle thread so) and counters to `board`, given when tracing.
    pub fn publish(&self, board: Option<&RoundBoard>, lvt: VirtualTime) {
        if let Some(board) = board {
            board.publish(self.me, lvt, self.engine.stats());
        }
    }

    /// Algorithm 1 lines 14–17: woken from a park.
    pub fn woke(&mut self) {
        self.idle.reintegrate();
        self.turnover.restart(self.engine.pending_len());
    }

    /// The run is over: commit what is left and report.
    pub fn finish(&mut self) -> ThreadResult {
        self.engine.finalize();
        ThreadResult {
            stats: self.engine.stats().clone(),
            digests: self.engine.state_digests(),
        }
    }
}

/// What one simulation thread reports when the run is over.
#[derive(Debug, Clone)]
pub struct ThreadResult {
    pub stats: ThreadStats,
    pub digests: Vec<(LpId, u64)>,
}

impl ThreadResult {
    /// Fold a run's per-thread results (`None` = the thread died): the
    /// summed stats, every reported LP's state digest in LP order, and the
    /// per-thread committed loads the supervisor's LP remap weighs (they
    /// outlive a failed attempt; a dead thread reports 0).
    pub fn merge(results: &[Option<ThreadResult>]) -> (ThreadStats, Vec<u64>, Vec<u64>) {
        let mut total = ThreadStats::default();
        let mut digests = Vec::new();
        for r in results.iter().flatten() {
            total.merge(&r.stats);
            digests.extend(r.digests.iter().copied());
        }
        digests.sort_by_key(|&(lp, _)| lp);
        let digests = digests.into_iter().map(|(_, d)| d).collect();
        let loads = results
            .iter()
            .map(|r| r.as_ref().map_or(0, |r| r.stats.committed));
        (total, digests, loads.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::faults::{DelayFault, FaultInjector, FaultPlan};
    use crate::recovery::build_engines;
    use crate::sched::Demand;
    use crate::sequential::tests::Ring;
    use crate::sequential::{run_sequential, run_sequential_with};
    use crate::system::{AffinityPolicy, GvtMode, Scheduler};
    use std::sync::Arc;

    /// `threads` participants of an 8-LP ring over `plane`, initial events
    /// landed.
    fn ring(
        cfg: &EngineConfig,
        plane: &MessagePlane<()>,
        threads: usize,
    ) -> (Arc<Ring>, crate::LpMap, Vec<Participant<Ring>>) {
        let model = Arc::new(Ring { n: 8 });
        let (map, engines) = build_engines(&model, cfg, threads, None, None, plane);
        let ps = engines
            .into_iter()
            .map(|e| Participant::new(e, cfg.clone(), false));
        (model, map, ps.collect())
    }

    #[test]
    fn cut_pulls_a_message_chaos_would_hold_into_the_engine_before_the_snapshot() {
        let cfg = EngineConfig::default().with_end_time(30.0).with_seed(11);
        let mut plane = MessagePlane::new(2);
        // Every freshly drained message waits for the next drain.
        plane.faults = FaultInjector::new(FaultPlan {
            seed: 3,
            delay: Some(DelayFault { prob: 1.0 }),
            ..FaultPlan::default()
        });
        let plane = &plane;
        let (model, map, mut ps) = ring(&cfg, plane, 2);
        let cycle = |p: &mut Participant<Ring>, max: usize| {
            p.receive(plane, false);
            p.engine.process_batch(max, &mut p.outbox);
            p.land(plane);
        };
        for _ in 0..10 {
            ps.iter_mut().for_each(|p| cycle(p, 4));
        }
        // Settle: with nothing in flight and the send windows folded away,
        // the pending minima are the truth.
        while plane.len(0) + plane.len(1) > 0 {
            ps.iter_mut().for_each(|p| cycle(p, 0));
        }
        for p in &ps {
            plane.take_window(p.me);
        }
        let late = usize::from(ps[1].engine.local_min() < ps[0].engine.local_min());
        let early = 1 - late;
        let t_e = ps[late].engine.local_min();

        // An armed round. `late` processes the globally lowest event just
        // before its phase-A fold and sends the successor to `early`, whose
        // phase-B drain — its last before the cut — holds it back.
        let mut round = Round::new(cfg.end_time);
        round.set_checkpoint_every(1);
        let (mut m, demand) = (Membership::new(2), Demand::new(2));
        for p in &mut ps {
            let (participate, id) = round.open(&mut m, &demand, p.me, |_| {});
            assert!(p.join(participate, id));
        }
        ps[early].fold(plane, plane, &round, None);
        let p = &mut ps[late];
        p.receive(plane, false);
        assert_eq!(p.engine.process_batch(1, &mut p.outbox).processed, 1);
        let crossing = p.outbox[0].1.key();
        p.land(plane);
        p.fold(plane, plane, &round, None);
        for t in [early, late] {
            ps[t].fold(plane, plane, &round, None);
        }
        assert!(round.claim_aware());
        let gvt = round.publish(plane, &demand);
        let sys = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
        round.aware_tail(sys, &mut m, &demand, &plane.faults, |_| false, |_| {});
        assert!(round.ckpt_ready() && !round.terminated());
        // The successor crosses the cut, and chaos holds it outside the
        // engine it is bound for.
        assert!(t_e < gvt && gvt <= crossing.recv_time);
        assert_eq!((plane.len(early), plane.len(late)), (1, 0));

        let sink: CkptSink<Ring> = CkptSink::new(None, map);
        for p in &mut ps {
            p.cut(plane, plane, &round, m.participants, &sink);
        }
        assert_eq!(plane.len(early), 0);
        let cut = sink
            .latest()
            .expect("both shares deposited: the cut assembles");
        assert_eq!((cut.gvt, cut.gvt_rounds), (gvt, 1));
        assert!(cut.events.iter().any(|ev| ev.key == crossing));
        assert_eq!(
            run_sequential_with(&model, &cfg, Some(&cut), &[], None),
            run_sequential(&model, &cfg, None)
        );
    }

    #[test]
    fn a_receive_that_delivers_and_a_wake_restart_the_turnover_count() {
        let cfg = EngineConfig::default().with_end_time(30.0).with_seed(11);
        let plane = MessagePlane::new(2);
        let (_, _, mut ps) = ring(&cfg, &plane, 2);
        let p = &mut ps[0];
        let turned_over = |p: &mut Participant<Ring>| {
            p.turnover.processed(p.engine.pending_len() as u64 + 1);
            assert!(p.turnover.complete());
        };
        // The initial events are queued: this receive delivers them.
        assert!(p.receive(&plane, false).0 > 0 && p.engine.pending_len() > 0);
        turned_over(p);
        // Hearing nothing leaves the count alone.
        assert_eq!(p.receive(&plane, false).0, 0);
        assert!(p.turnover.complete());
        p.woke();
        assert!(!p.turnover.complete());
        turned_over(p);
        let anti = Msg::Anti(crate::EventKey {
            recv_time: VirtualTime::from_f64(1.0),
            dst: LpId(0),
            uid: crate::EventUid::new(LpId(2), 99),
        });
        let mut one = SendBatcher::new(2, CAP);
        one.buffer(&plane, 1, 0, anti);
        one.flush(&plane);
        assert_eq!(p.receive(&plane, false).0, 1);
        assert!(!p.turnover.complete());
    }

    #[test]
    fn the_round_trigger_is_the_interval_or_an_open_round_waiting_for_me_unjoined() {
        let cfg = EngineConfig::default().with_gvt_interval(25);
        let plane = MessagePlane::new(1);
        let (_, _, mut ps) = ring(&cfg, &plane, 1);
        let p = &mut ps[0];
        // (cycles since the last join, interval, the open round if it
        // counts me, the round I last joined) → due?
        let table = [
            (0, 25, None, None, false),
            (24, 25, None, Some(2), false),
            (25, 25, None, Some(2), true),
            (1, 25, Some(3), None, true),
            (1, 25, Some(3), Some(2), true),
            (1, 25, Some(3), Some(3), false),
            // The counter fires regardless; `join` then refuses round 3.
            (25, 25, Some(3), Some(3), true),
            (25, 26, None, Some(2), false),
        ];
        for (cycles, interval, waiting, joined, due) in table {
            p.ecfg.gvt_interval = interval;
            let mut m = Membership::new(1);
            if let Some(id) = waiting {
                m.id = id;
                m.open_round();
            }
            (p.cycles_since, p.joined) = (0, joined);
            let row = (cycles, interval, waiting, joined);
            assert_eq!(p.round_due(cycles, &m), due, "{row:?}");
            let fresh = waiting.is_some() && joined != Some(3);
            assert_eq!(p.join(waiting.is_some(), 3), fresh, "{row:?}");
            assert_eq!(p.cycles_since, if fresh { 0 } else { cycles }, "{row:?}");
        }
        // An open round that does not count me is nobody's trigger.
        let mut m = Membership::new(1);
        m.subscribed[0] = false;
        m.open_round();
        (p.cycles_since, p.joined) = (0, None);
        p.ecfg.gvt_interval = 25;
        assert!(!p.round_due(1, &m));
        // Cycles accumulate across calls.
        assert!(!p.round_due(23, &m));
        assert!(p.round_due(1, &m));
    }
}
