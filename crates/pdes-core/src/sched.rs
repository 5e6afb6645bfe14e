//! Demand-driven scheduling state: the GVT round ([`Round`]) and its
//! membership, Algorithms 1 and 2 (de-scheduling and the activation scan),
//! the yield tier below them, Algorithm 4 (dynamic affinity) and the
//! checkpoint cadence.
//!
//! Everything here is *bookkeeping* — who is scheduled in, who takes part in
//! the next round, how far the open round got, which core a thread belongs
//! on. How a thread waits (a real semaphore, a virtual-machine `sem_wait`
//! step) stays with the runtime: the scans take a `post(thread)` callback
//! and nothing else.
//!
//! The phase coupling that makes this safe is the paper's (§4.1.4), and
//! [`Round`]'s methods are where it is written down: a round's participant
//! set is frozen when it opens ([`Round::open`]), activation runs in its
//! Aware phase by the one thread that wins [`Round::claim_aware`],
//! deactivation in its End phase by the thread itself
//! ([`Round::deactivate`]), and nothing opens or parks after the final GVT.
//! `thread-rt` additionally serialises every [`Membership`] transition
//! behind one mutex (DESIGN.md §17); the virtual machine, single-threaded,
//! holds it bare.

use crate::faults::FaultInjector;
use crate::plane::{padded, CachePadded, MessagePlane};
use crate::stall::RoundDump;
use crate::system::{GvtMode, Scheduler, SystemConfig};
use crate::time::VirtualTime;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Who takes part in GVT rounds: the standing subscription list and the
/// snapshot of it the open round froze.
#[derive(Debug)]
pub struct Membership {
    pub open: bool,
    pub id: u64,
    /// Participation snapshot taken when the round opened.
    pub participant: Vec<bool>,
    pub participants: usize,
    /// De-scheduled threads unsubscribe; an opening round copies this.
    pub subscribed: Vec<bool>,
}

impl Membership {
    pub fn new(num_threads: usize) -> Self {
        Membership {
            open: false,
            id: 0,
            participant: vec![false; num_threads],
            participants: 0,
            subscribed: vec![true; num_threads],
        }
    }

    /// Open round `id`, freezing the current subscribers as its
    /// participants: subscribing later does not join it.
    pub fn open_round(&mut self) {
        self.open = true;
        self.participant.copy_from_slice(&self.subscribed);
        self.participants = self.subscribed.iter().filter(|&&s| s).count();
    }

    /// The open round's id, if `me` is one of its participants.
    pub fn waiting_for(&self, me: usize) -> Option<u64> {
        (self.open && self.participant[me]).then_some(self.id)
    }

    /// One participant completed the End phase, `done` counting it; the
    /// last one closes the round. Returns whether this call closed it.
    pub fn end_phase(&mut self, done: usize) -> bool {
        let last = done == self.participants;
        if last {
            self.open = false;
            self.id += 1;
        }
        last
    }
}

/// `true` when the round about to open is a checkpoint round: every
/// `every`-th completed round (0 disables). Armed rounds force-wake every
/// parked thread first ([`Demand::wake_all`]) so the cut covers all engines.
pub fn ckpt_round_due(every: u64, rounds_done: u64) -> bool {
    every > 0 && (rounds_done + 1).is_multiple_of(every)
}

/// One GVT round's progress plus the run-long state it feeds — GVT, the
/// round count, `terminated`, the checkpoint handshake — with the round's
/// transition rules as methods. Atomics on every runtime, like [`Demand`].
/// Calls that touch [`Membership`] take it `&mut`, so whatever guards it
/// (thread-rt's mutex, the machine's single thread) orders them.
#[derive(Debug, Default)]
pub struct Round {
    end_time: VirtualTime,
    /// Participants of the open round past their phase-A fold, their
    /// phase-B fold, Phase End.
    a_done: AtomicUsize,
    b_done: AtomicUsize,
    end_done: AtomicUsize,
    /// Set once a thread claimed the pseudo-controller role (Phase Aware).
    aware_claimed: AtomicBool,
    /// Folded minimum (pending-set minima and send windows), in ticks.
    min_fold: AtomicU64,
    gvt: AtomicU64,
    gvt_rounds: AtomicU64,
    /// Would-be monotonicity violations (must stay 0).
    gvt_regressions: AtomicU64,
    terminated: AtomicBool,
    /// Checkpoint cadence in GVT rounds (0 = disabled).
    ckpt_every: u64,
    /// Round id armed for a checkpoint, stored as `id + 1` (0 = none).
    ckpt_armed: AtomicU64,
    /// The armed round's cut GVT is published: snapshotters may proceed.
    ckpt_ready: AtomicBool,
}

impl Round {
    pub fn new(end_time: VirtualTime) -> Self {
        Round {
            end_time,
            min_fold: AtomicU64::new(u64::MAX),
            ..Round::default()
        }
    }

    /// Checkpoint every `every`-th round (0 disables).
    pub fn set_checkpoint_every(&mut self, every: u64) {
        self.ckpt_every = every;
    }

    /// Resume from a checkpoint: the GVT estimate and the round count —
    /// hence the checkpoint cadence — continue.
    pub fn seed(&mut self, gvt: VirtualTime, rounds: u64) {
        self.gvt = AtomicU64::new(gvt.ticks());
        self.gvt_rounds = AtomicU64::new(rounds);
    }

    /// Current GVT estimate.
    pub fn gvt(&self) -> VirtualTime {
        VirtualTime::from_ticks(self.gvt.load(Ordering::Acquire))
    }

    /// GVT rounds published so far.
    pub fn rounds(&self) -> u64 {
        self.gvt_rounds.load(Ordering::Acquire)
    }

    pub fn regressions(&self) -> u64 {
        self.gvt_regressions.load(Ordering::Acquire)
    }

    /// The final GVT is out (or the run is being torn down).
    #[inline]
    pub fn terminated(&self) -> bool {
        self.terminated.load(Ordering::Acquire)
    }

    /// End the run: by [`Self::publish`], or without a final GVT by a
    /// teardown (the caller then wakes whoever is blocked).
    pub fn terminate(&self) {
        self.terminated.store(true, Ordering::Release);
    }

    /// Open a round if none is open, freezing its participants; returns
    /// whether `me` takes part in the open round, and its id.
    ///
    /// No round opens after the final one: its participants are leaving or
    /// gone, and a thread that read `terminated` just before it was set
    /// would open a round nobody else joins. (The flag is set before the
    /// closing [`Self::end_phase`] gives `m` up, so it is visible here.)
    ///
    /// A round the checkpoint cadence lands on is *armed*: every parked
    /// thread is force-woken and re-subscribed first, so the participant
    /// set — and therefore the cut — covers every engine.
    pub fn open(
        &self,
        m: &mut Membership,
        demand: &Demand,
        me: usize,
        post: impl FnMut(usize),
    ) -> (bool, u64) {
        if !m.open {
            if self.terminated() {
                return (false, m.id);
            }
            if ckpt_round_due(self.ckpt_every, self.rounds()) {
                demand.wake_all(Some(m), post);
                self.ckpt_ready.store(false, Ordering::Release);
                self.ckpt_armed.store(m.id + 1, Ordering::Release);
            }
            m.open_round();
            for done in [&self.a_done, &self.b_done, &self.end_done] {
                done.store(0, Ordering::Release);
            }
            self.aware_claimed.store(false, Ordering::Release);
            self.min_fold.store(u64::MAX, Ordering::Release);
        }
        (m.participant[me], m.id)
    }

    /// Fold `me`'s local minimum and its send window into the round.
    pub fn fold<P>(&self, plane: &MessagePlane<P>, me: usize, local: VirtualTime) {
        let m = local.min(plane.take_window(me));
        self.min_fold.fetch_min(m.ticks(), Ordering::AcqRel);
    }

    /// The caller is past its phase-A (phase-B) fold.
    pub fn arrive_a(&self) {
        self.a_done.fetch_add(1, Ordering::AcqRel);
    }

    pub fn arrive_b(&self) {
        self.b_done.fetch_add(1, Ordering::AcqRel);
    }

    pub fn a_done(&self) -> usize {
        self.a_done.load(Ordering::Acquire)
    }

    pub fn b_done(&self) -> usize {
        self.b_done.load(Ordering::Acquire)
    }

    /// Claim the round's pseudo-controller role. First caller wins.
    pub fn claim_aware(&self) -> bool {
        !self.aware_claimed.swap(true, Ordering::AcqRel)
    }

    /// Pseudo-controller: publish the round's GVT — the folded minima, every
    /// residual send window and queued or held-back message, every parked
    /// floor — and return it. GVT never moves back (a would-be regression is
    /// counted, not applied); reaching the end time terminates the run.
    pub fn publish<P>(&self, plane: &MessagePlane<P>, demand: &Demand) -> VirtualTime {
        let g = VirtualTime::from_ticks(self.min_fold.load(Ordering::Acquire))
            .min(plane.transient_min())
            .min(demand.parked_floor());
        if g < self.gvt() {
            self.gvt_regressions.fetch_add(1, Ordering::AcqRel);
        } else {
            self.gvt.store(g.ticks(), Ordering::Release);
        }
        self.gvt_rounds.fetch_add(1, Ordering::AcqRel);
        let gvt = self.gvt();
        if gvt >= self.end_time {
            self.terminate();
        }
        gvt
    }

    /// One participant completed Phase End; the last one closes the round.
    /// Returns whether this call closed it.
    ///
    /// The count is taken with `m` held: counted before, a participant
    /// descheduled in between could compare its stale count against the
    /// *next* round's participant total (the closer and an opener both got
    /// in) and close a round whose members are still folding.
    pub fn end_phase(&self, m: &mut Membership) -> bool {
        m.end_phase(self.end_done.fetch_add(1, Ordering::AcqRel) + 1)
    }

    /// Algorithm 1 (lines 9–12) at the End of `completed_round`:
    /// de-schedule `me`, after which the caller blocks on its semaphore.
    /// Refuses once the run has terminated (ordered against
    /// [`Self::release_for_termination`] through `m`: either its scan
    /// already ran, or it will see `me` inactive and post — nobody parks
    /// past the end of the run); when a round other than `completed_round`
    /// is open with `me` in its snapshot (parking would strand it); and for
    /// the last active thread ([`Demand::deactivate`]).
    pub fn deactivate(
        &self,
        m: &mut Membership,
        demand: &Demand,
        aff: &mut AffinityTable,
        me: usize,
        completed_round: u64,
    ) -> bool {
        if self.terminated() || m.waiting_for(me).is_some_and(|id| id != completed_round) {
            return false;
        }
        demand.deactivate(m, aff, me)
    }

    /// Pseudo-controller of the final round: wake every de-scheduled thread
    /// so it can see `terminated` and leave. `_m` is only held — see
    /// [`Self::deactivate`].
    pub fn release_for_termination(
        &self,
        _m: &mut Membership,
        demand: &Demand,
        post: impl FnMut(usize),
    ) {
        debug_assert!(self.terminated());
        demand.wake_all(None, post);
    }

    /// The pseudo-controller's Aware tail, after [`Self::publish`] and the
    /// runtime's ingest pump: release the open round's End-phase
    /// snapshotters ([`Self::ckpt_publish`]), then wake everyone for the
    /// final GVT ([`Self::release_for_termination`]) or, under GG-PDES, run
    /// Algorithm 2 over `has_demand`. Returns how many threads Algorithm 2
    /// scheduled in.
    pub fn aware_tail(
        &self,
        sys: SystemConfig,
        m: &mut Membership,
        demand: &Demand,
        faults: &FaultInjector,
        has_demand: impl Fn(usize) -> bool,
        post: impl FnMut(usize),
    ) -> usize {
        self.ckpt_publish(m.id);
        if self.terminated() {
            self.release_for_termination(m, demand, post);
        } else if sys.scheduler == Scheduler::GgPdes {
            return demand.activate(m, faults, has_demand, post);
        }
        0
    }

    /// Was round `id` armed for a checkpoint when it opened?
    pub fn ckpt_armed_for(&self, id: u64) -> bool {
        self.ckpt_armed.load(Ordering::Acquire) == id + 1
    }

    /// Pseudo-controller, after [`Self::publish`]: release the End-phase
    /// snapshotters of round `id` if it is armed.
    pub fn ckpt_publish(&self, id: u64) {
        if self.ckpt_armed_for(id) {
            self.ckpt_ready.store(true, Ordering::Release);
        }
    }

    /// The armed round's cut GVT is published.
    pub fn ckpt_ready(&self) -> bool {
        self.ckpt_ready.load(Ordering::Acquire)
    }

    /// The round's state for a stall dump.
    pub fn dump(&self, m: &Membership) -> RoundDump {
        RoundDump {
            open: m.open,
            id: m.id,
            participants: m.participants,
            a_done: self.a_done(),
            b_done: self.b_done(),
            end_done: self.end_done.load(Ordering::Acquire),
            aware_claimed: self.aware_claimed.load(Ordering::Acquire),
        }
    }
}

/// Where a simulation thread is in its control loop — what both runtimes
/// publish for stall dumps, and the virtual machine's task state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Phase {
    /// Main-loop cycling.
    #[default]
    Cycle,
    /// Phase-A fold (Barrier GVT: the fold between barriers 0 and 1).
    A,
    /// Wait-Free *Send*: simulating until every participant folded A.
    SendA,
    B,
    SendB,
    /// Pseudo-controller claim and, for the winner, its duties.
    Aware,
    End,
    /// Barrier GVT's three arrival points.
    Bar0,
    Bar1,
    Bar2,
    /// DD-PDES: taking the global lock to deactivate.
    DdDeact,
    /// De-scheduled, blocked on its own semaphore.
    Parked,
    /// Virtual machine: committing what is left and reporting stats.
    Finishing,
    /// Virtual machine: felled by a scripted kill.
    Dead,
    /// Real threads: past every blocking primitive.
    Done,
}

impl Phase {
    /// Every phase with its stall-dump word; `TABLE[p as usize].0 == p`.
    const TABLE: [(Phase, &'static str); 15] = [
        (Phase::Cycle, "cycle"),
        (Phase::A, "gvt-a"),
        (Phase::SendA, "gvt-send-a"),
        (Phase::B, "gvt-b"),
        (Phase::SendB, "gvt-send-b"),
        (Phase::Aware, "gvt-aware"),
        (Phase::End, "gvt-end"),
        (Phase::Bar0, "sync-bar0"),
        (Phase::Bar1, "sync-bar1"),
        (Phase::Bar2, "sync-bar2"),
        (Phase::DdDeact, "dd-deact"),
        (Phase::Parked, "parked"),
        (Phase::Finishing, "finishing"),
        (Phase::Dead, "dead"),
        (Phase::Done, "done"),
    ];

    pub fn name(self) -> &'static str {
        Self::TABLE[self as usize].1
    }

    /// The phase a runtime published as `phase as u8`.
    pub fn from_index(i: u8) -> Phase {
        Self::TABLE[i as usize].0
    }
}

/// The paper's `active_threads` array with its census, plus the floor a
/// thread parked with live pending work leaves behind.
pub struct Demand {
    active: Vec<CachePadded<AtomicBool>>,
    num_active: AtomicUsize,
    /// Pending-set floor a thread publishes *before* parking with live
    /// pending work, folded into every GVT/LBTS computation (`u64::MAX`
    /// while running). Optimistic threads never park with live pending and
    /// never write it; the conservative protocol parks threads whose
    /// channels cannot advance, and this floor keeps their invisible
    /// pending events inside the reduction.
    park_min: Vec<CachePadded<AtomicU64>>,
    max_descheduled: AtomicUsize,
}

impl Demand {
    pub fn new(num_threads: usize) -> Self {
        Demand {
            active: padded(num_threads, || AtomicBool::new(true)),
            num_active: AtomicUsize::new(num_threads),
            park_min: padded(num_threads, || AtomicU64::new(u64::MAX)),
            max_descheduled: AtomicUsize::new(0),
        }
    }

    #[inline]
    pub fn is_active(&self, i: usize) -> bool {
        self.active[i].load(Ordering::Acquire)
    }

    pub fn num_active(&self) -> usize {
        self.num_active.load(Ordering::Acquire)
    }

    /// Nobody is de-scheduled: the activation scan has nothing to find.
    pub fn all_active(&self) -> bool {
        self.num_active() == self.active.len()
    }

    /// Most threads ever de-scheduled at once.
    pub fn max_descheduled(&self) -> usize {
        self.max_descheduled.load(Ordering::Acquire)
    }

    /// Algorithm 2, run by a round's pseudo-controller (or the DD-PDES
    /// controller): schedule in every inactive thread `demand` holds for,
    /// re-subscribe it to GVT rounds and `post` it. Returns how many.
    ///
    /// Wake-up faults act here and only here: a *lost* wake-up does all the
    /// bookkeeping but never posts (the thread stays parked while the
    /// protocol believes it runs — the liveness watchdog must catch it); a
    /// *spurious* one posts a thread that was not activated (its parked
    /// loop must re-check its flag and go back to sleep).
    pub fn activate(
        &self,
        m: &mut Membership,
        faults: &FaultInjector,
        demand: impl Fn(usize) -> bool,
        mut post: impl FnMut(usize),
    ) -> usize {
        if self.all_active() {
            return 0;
        }
        let mut n = 0;
        for i in 0..self.active.len() {
            if !self.is_active(i) && demand(i) {
                self.active[i].store(true, Ordering::Release);
                m.subscribed[i] = true;
                self.num_active.fetch_add(1, Ordering::AcqRel);
                if !faults.lose_wakeup() {
                    post(i);
                }
                n += 1;
            }
        }
        if faults.spurious_wakeup() {
            if let Some(i) = (0..self.active.len()).find(|&i| !self.is_active(i)) {
                post(i);
            }
        }
        n
    }

    /// Algorithm 1 (lines 9–12): de-schedule `me` — clear its core, leave
    /// the GVT group — after which the caller blocks on its semaphore.
    /// Refuses the last active thread: someone must remain to run rounds
    /// and reactivate the others (DESIGN.md §5.6).
    pub fn deactivate(&self, m: &mut Membership, aff: &mut AffinityTable, me: usize) -> bool {
        if self.num_active() <= 1 {
            return false;
        }
        aff.clear(me);
        self.active[me].store(false, Ordering::Release);
        m.subscribed[me] = false;
        let left = self.num_active.fetch_sub(1, Ordering::AcqRel) - 1;
        self.max_descheduled
            .fetch_max(self.active.len() - left, Ordering::AcqRel);
        true
    }

    /// `post` every de-scheduled thread, exempt from wake-up faults (losing
    /// one of these would wedge an armed round, or turn every completed
    /// chaos run into a watchdog trip). With `rejoin` — an armed checkpoint
    /// round about to open — the threads are also scheduled back in and
    /// everyone re-subscribed, so the round's participant set covers every
    /// engine; without it — termination — they only wake to see the flag.
    pub fn wake_all(&self, rejoin: Option<&mut Membership>, mut post: impl FnMut(usize)) {
        let rejoining = rejoin.is_some();
        if let Some(m) = rejoin {
            m.subscribed.fill(true);
        }
        for i in 0..self.active.len() {
            if !self.is_active(i) {
                if rejoining {
                    self.active[i].store(true, Ordering::Release);
                    self.num_active.fetch_add(1, Ordering::AcqRel);
                }
                post(i);
            }
        }
    }

    /// Publish `me`'s pending-set floor before parking with live pending
    /// work. Must precede [`Self::deactivate`], so whatever orders
    /// membership transitions orders the store ahead of any round that
    /// excludes `me`.
    pub fn set_park_min(&self, me: usize, floor: VirtualTime) {
        self.park_min[me].store(floor.ticks(), Ordering::Release);
    }

    /// Withdraw `me`'s parked floor after waking (or a refused park).
    pub fn clear_park_min(&self, me: usize) {
        self.set_park_min(me, VirtualTime::INFINITY);
    }

    /// Thread `i`'s parked floor (∞ = not parked with live pending).
    pub fn park_min(&self, i: usize) -> VirtualTime {
        VirtualTime::from_ticks(self.park_min[i].load(Ordering::Acquire))
    }

    /// The minimum over every parked floor — a term of each reduction.
    pub fn parked_floor(&self) -> VirtualTime {
        (0..self.park_min.len())
            .map(|i| self.park_min(i))
            .min()
            .unwrap_or(VirtualTime::INFINITY)
    }
}

/// The yield tier of demand-driven scheduling (DESIGN.md §5.8): the rung
/// below Algorithm 1's park. Parking takes `zero_counter_threshold` idle
/// polls, empty queues and a closed round; a thread that is *blocked*, whose
/// cycle was *net-negative*, or that has *turned over* its whole event
/// population without hearing from a peer gives its hardware context to a
/// runnable peer and stays runnable itself.
///
/// Armed only for GG-PDES (Baseline and DD-PDES stay the paper's spinning
/// references) and only when simulation threads outnumber the hardware
/// contexts they may run on (with a context each there is nobody to yield
/// to, and the run stays what it was without the tier). Barrier GVT keeps
/// the net-negative trigger only: a thread there already gives its context
/// back at three barriers a round, and an extra yield on the way only
/// delays the arrival everybody else is blocked on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct YieldTier {
    net_negative: bool,
    /// The blocked and turned-over triggers (Wait-Free GVT only).
    wait_free: bool,
}

/// Why the yield tier gave a context away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldCause {
    /// The cycle received and processed nothing.
    Blocked,
    /// The cycle undid at least as many events as it processed.
    NetNegative,
    /// As many events processed as were pending at the last receive.
    TurnedOver,
}

/// Yields counted by [`YieldCause`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct YieldCounts {
    pub blocked: u64,
    pub net_negative: u64,
    pub turned_over: u64,
}

impl YieldCounts {
    pub fn count(&mut self, cause: YieldCause) {
        match cause {
            YieldCause::Blocked => self.blocked += 1,
            YieldCause::NetNegative => self.net_negative += 1,
            YieldCause::TurnedOver => self.turned_over += 1,
        }
    }

    pub fn total(&self) -> u64 {
        self.blocked + self.net_negative + self.turned_over
    }
}

impl std::iter::Sum for YieldCounts {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(YieldCounts::default(), |a, b| YieldCounts {
            blocked: a.blocked + b.blocked,
            net_negative: a.net_negative + b.net_negative,
            turned_over: a.turned_over + b.turned_over,
        })
    }
}

impl std::fmt::Display for YieldCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "blocked {}, net-negative {}, turned-over {}",
            self.blocked, self.net_negative, self.turned_over
        )
    }
}

impl YieldTier {
    pub fn new(system: SystemConfig, threads: usize, contexts: usize) -> Self {
        let armed = system.scheduler == Scheduler::GgPdes && threads > contexts;
        YieldTier {
            net_negative: armed,
            wait_free: armed && system.gvt == GvtMode::Async,
        }
    }

    /// Should the thread yield after a main-loop cycle that processed
    /// `processed` events and undid `rolled_back`, the last of `idle_polls`
    /// consecutive polls that received and processed nothing (0 after a
    /// cycle that did either), with `turnover` counted up to and including
    /// it? Yes, and why, when the cycle was idle — the thread waits on a
    /// peer that cannot run while it holds the context; when the cycle undid
    /// at least as many events as it processed — it runs so far ahead of
    /// that peer that its work does not survive; or when the thread has
    /// processed its whole event population once since it last heard from
    /// anybody — what it would run next descends from its own speculation
    /// alone, while the peer that owes it stragglers cannot run.
    #[inline]
    pub fn should_yield(
        self,
        idle_polls: u64,
        processed: u64,
        rolled_back: u64,
        turnover: Turnover,
    ) -> Option<YieldCause> {
        if self.wait_free && idle_polls > 0 {
            Some(YieldCause::Blocked)
        } else if self.net_negative && rolled_back >= processed.max(1) {
            Some(YieldCause::NetNegative)
        } else if self.wait_free && turnover.complete() {
            Some(YieldCause::TurnedOver)
        } else {
            None
        }
    }
}

/// The yield tier's thread-local count: how many events the thread held
/// when it last heard from a peer, and how many it has processed since.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Turnover {
    held: u64,
    since: u64,
}

impl Turnover {
    /// Start over from a pending set of `held` events: a receive delivered
    /// something, the thread yielded, or it woke from a park.
    pub fn restart(&mut self, held: usize) {
        *self = Turnover {
            held: held as u64,
            since: 0,
        };
    }

    /// Account a cycle that processed `n` events.
    pub fn processed(&mut self, n: u64) {
        self.since += n;
    }

    /// Has the thread processed as many events as it held (one at least)?
    pub fn complete(self) -> bool {
        self.since >= self.held.max(1)
    }
}

/// Algorithm 1's thread-local half: the run of idle polls (`zero_counter`)
/// and the `active` flag it clears, which the thread consults at a round's
/// End to decide whether to de-schedule itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdleTracker {
    zero_counter: u64,
    active: bool,
    threshold: u64,
}

impl IdleTracker {
    pub fn new(zero_counter_threshold: u32) -> Self {
        IdleTracker {
            zero_counter: 0,
            active: true,
            threshold: zero_counter_threshold as u64,
        }
    }

    /// Account one main-loop cycle: `idle_polls` polls that received and
    /// processed nothing (0 after a cycle that did either). They count
    /// toward parking only while the thread is `parkable` — an optimistic
    /// thread holding live pending events is blocked, not out of work.
    pub fn observe(&mut self, idle_polls: u64, parkable: bool) {
        if idle_polls > 0 && parkable {
            // Past the threshold the count says nothing more (and a finite
            // state is what lets `round_explorer` enumerate it).
            if self.active {
                self.zero_counter += idle_polls;
                self.active = self.zero_counter <= self.threshold;
            }
        } else {
            self.reintegrate();
        }
    }

    /// Algorithm 1 lines 14–17: woken from a park.
    pub fn reintegrate(&mut self) {
        self.zero_counter = 0;
        self.active = true;
    }

    /// Algorithm 1 line 8, asked at a round's End: should `me` de-schedule
    /// itself? Only a demand-driven system parks, only a thread idle past
    /// the threshold with nothing queued and nothing runnable, and — §3
    /// defines inactive as "LPs have not received **or sent** an event
    /// message in a predefined period" — only with its send window folded:
    /// an unfolded one is a recent send whose timestamp still backs the GVT
    /// bound, and the thread stays one more round (its next phase-A fold
    /// clears it).
    pub fn wants_park<P>(
        &self,
        sys: SystemConfig,
        round: &Round,
        plane: &MessagePlane<P>,
        me: usize,
        parkable: bool,
    ) -> bool {
        sys.demand_driven()
            && !round.terminated()
            && !self.active
            && plane.len(me) == 0
            && parkable
            && plane.window_is_clear(me)
    }
}

/// Dynamic CPU-affinity tables (§4.2), stored as the paper does: `core_of`
/// is `affinity_table_inv` (`-1` = unpinned) and `core_load` summarises
/// `affinity_table` per core — how many active threads are pinned there,
/// the quantity the SMT-aware search minimises.
#[derive(Debug, Clone)]
pub struct AffinityTable {
    core_load: Vec<i32>,
    core_of: Vec<i32>,
}

impl AffinityTable {
    pub fn new(num_cores: usize, num_threads: usize) -> Self {
        AffinityTable {
            core_load: vec![0; num_cores.max(1)],
            core_of: vec![-1; num_threads],
        }
    }

    /// Core `thread` is pinned to, if any.
    pub fn core_of(&self, thread: usize) -> Option<usize> {
        usize::try_from(self.core_of[thread]).ok()
    }

    /// Active threads pinned per core.
    pub fn core_load(&self) -> &[i32] {
        &self.core_load
    }

    /// Clear a deactivating thread's assignment (Algorithm 1, lines 9–10).
    pub fn clear(&mut self, thread: usize) {
        if let Some(c) = self.core_of(thread) {
            self.core_load[c] -= 1;
            self.core_of[thread] = -1;
        }
    }

    /// Algorithm 4: record a pin for every active-but-unpinned thread on the
    /// core with the fewest pinned threads (ties → lowest index, so sibling
    /// hyperthreads fill up last), appending `(thread, core)` to `pins` for
    /// the caller to enact. Returns the table entries scanned — what the
    /// search costs.
    pub fn assign(
        &mut self,
        active: impl Fn(usize) -> bool,
        pins: &mut Vec<(usize, usize)>,
    ) -> usize {
        let mut scanned = 0;
        for t in 0..self.core_of.len() {
            scanned += 1;
            if !active(t) || self.core_of[t] >= 0 {
                continue;
            }
            let mut best = 0;
            for c in 1..self.core_load.len() {
                scanned += 1;
                if self.core_load[c] < self.core_load[best] {
                    best = c;
                }
            }
            self.core_of[t] = best as i32;
            self.core_load[best] += 1;
            pins.push((t, best));
        }
        scanned
    }

    /// Memory footprint in bytes. With the paper's layout (one `int` per
    /// core plus one per thread) this is ~16.6 KB at 4096 threads / 64
    /// cores — the paper quotes ~17 KB (§6.6).
    pub fn footprint_bytes(&self) -> usize {
        (self.core_load.len() + self.core_of.len()) * std::mem::size_of::<i32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Invariant: `core_load` is exactly the inverse of `core_of`.
    fn check_tables(a: &AffinityTable) {
        for (c, &load) in a.core_load.iter().enumerate() {
            let pinned = a.core_of.iter().filter(|&&co| co == c as i32).count();
            assert_eq!(load as usize, pinned, "core {c}: load {load} vs {pinned}");
        }
    }

    #[test]
    fn round_snapshot_freezes_participants() {
        let mut m = Membership::new(4);
        m.subscribed[3] = false;
        m.open_round();
        assert_eq!(m.participants, 3);
        assert_eq!(m.waiting_for(0), Some(0));
        // Subscribing mid-round does not join the current round.
        m.subscribed[3] = true;
        assert_eq!(m.waiting_for(3), None);
        assert!(!m.end_phase(1));
        assert!(!m.end_phase(2));
        assert!(m.end_phase(3), "the last participant closes");
        assert_eq!((m.open, m.id), (false, 1));
        m.open_round();
        assert_eq!(m.waiting_for(3), Some(1));
    }

    #[test]
    fn deactivate_refuses_the_last_active_thread() {
        let d = Demand::new(2);
        let mut m = Membership::new(2);
        let mut aff = AffinityTable::new(2, 2);
        assert!(d.deactivate(&mut m, &mut aff, 0));
        assert!(!m.subscribed[0] && !d.is_active(0));
        assert!(!d.deactivate(&mut m, &mut aff, 1), "last one stays");
        assert!(d.is_active(1) && m.subscribed[1]);
        assert_eq!((d.num_active(), d.max_descheduled()), (1, 1));
    }

    fn gg(gvt: GvtMode) -> SystemConfig {
        SystemConfig::new(Scheduler::GgPdes, gvt, crate::AffinityPolicy::Constant)
    }

    /// A count of `since` events processed since `held` were pending.
    fn turnover(held: usize, since: u64) -> Turnover {
        let mut t = Turnover::default();
        t.restart(held);
        t.processed(since);
        t
    }

    #[test]
    fn yield_tier_gives_up_blocked_and_net_negative_cycles_only() {
        use YieldCause::{Blocked, NetNegative};
        let fresh = turnover(8, 0);
        let t = YieldTier::new(gg(GvtMode::Async), 2, 1);
        assert_eq!(t.should_yield(1, 0, 0, fresh), Some(Blocked), "first idle");
        assert_eq!(t.should_yield(32, 0, 0, fresh), Some(Blocked));
        assert_eq!(t.should_yield(0, 0, 1, fresh), Some(NetNegative));
        assert_eq!(t.should_yield(0, 4, 4, fresh), Some(NetNegative));
        assert_eq!(
            t.should_yield(0, 0, 0, fresh),
            None,
            "receiving is progress"
        );
        assert_eq!(t.should_yield(0, 8, 0, fresh), None, "productive cycle");
        assert_eq!(t.should_yield(0, 8, 7, fresh), None, "net-positive cycle");
        // Barrier GVT keeps the net-negative trigger only.
        let t = YieldTier::new(gg(GvtMode::Sync), 2, 1);
        assert_eq!(t.should_yield(u64::MAX, 0, 0, fresh), None);
        assert_eq!(t.should_yield(0, 8, 0, turnover(8, 8)), None);
        assert_eq!(t.should_yield(0, 4, 4, fresh), Some(NetNegative));
    }

    #[test]
    fn yield_tier_gives_up_once_the_thread_turned_its_events_over() {
        let t = YieldTier::new(gg(GvtMode::Async), 2, 1);
        // (held at the last receive, processed since) → turned over?
        let table = [
            (8, 0, false),
            (8, 7, false),
            (8, 8, true),
            (8, 9, true),
            (1, 1, true),
            // An empty pending set turns over with the first event, not before.
            (0, 0, false),
            (0, 1, true),
            (256, 200, false),
        ];
        for (held, since, over) in table {
            let cause = t.should_yield(0, since.min(8), 0, turnover(held, since));
            let want = over.then_some(YieldCause::TurnedOver);
            assert_eq!(cause, want, "held {held} since {since}");
        }
        // The other two causes are named first: they say more.
        let over = turnover(4, 4);
        assert_eq!(t.should_yield(0, 4, 4, over), Some(YieldCause::NetNegative));
        assert_eq!(t.should_yield(1, 0, 0, over), Some(YieldCause::Blocked));
    }

    #[test]
    fn the_turnover_count_restarts_on_receive_yield_and_wake() {
        let mut c = Turnover::default();
        assert!(!c.complete(), "nothing processed yet");
        c.restart(3);
        c.processed(2);
        assert!(!c.complete());
        // Heard from a peer (or yielded, or woke) holding 5: start over.
        c.restart(5);
        assert_eq!(c, turnover(5, 0));
        c.processed(3);
        c.processed(2);
        assert!(c.complete(), "counts accumulate across cycles");
        c.restart(5);
        assert!(!c.complete());
    }

    #[test]
    fn yield_tier_is_armed_for_oversubscribed_gg_pdes_only() {
        let never = |t: YieldTier| {
            let quiet = |idle, done, undone| t.should_yield(idle, done, undone, turnover(0, 9));
            quiet(u64::MAX, 0, 0).is_none() && quiet(0, 0, 9).is_none() && quiet(0, 9, 0).is_none()
        };
        assert!(never(YieldTier::default()));
        for gvt in [GvtMode::Async, GvtMode::Sync] {
            assert!(never(YieldTier::new(gg(gvt), 8, 8)));
            assert!(!never(YieldTier::new(gg(gvt), 9, 8)));
            for scheduler in [Scheduler::Baseline, Scheduler::DdPdes] {
                let sys = SystemConfig {
                    scheduler,
                    ..gg(gvt)
                };
                assert!(never(YieldTier::new(sys, 8, 1)), "{}", sys.name());
            }
        }
    }

    /// Three threads, 1 and 2 de-scheduled.
    fn two_parked() -> (Demand, Membership) {
        let (d, mut m) = (Demand::new(3), Membership::new(3));
        let mut aff = AffinityTable::new(1, 3);
        assert!(d.deactivate(&mut m, &mut aff, 1) && d.deactivate(&mut m, &mut aff, 2));
        (d, m)
    }

    #[test]
    fn activate_wakes_only_inactive_threads_the_predicate_holds_for() {
        let (d, mut m) = two_parked();
        let mut posted = Vec::new();
        // Demand for 0 (already active: skipped) and 2; none for 1.
        let n = d.activate(
            &mut m,
            &FaultInjector::disabled(),
            |i| i != 1,
            |i| posted.push(i),
        );
        assert_eq!((n, posted), (1, vec![2]));
        assert!(d.is_active(2) && m.subscribed[2]);
        assert!(!d.is_active(1) && !m.subscribed[1]);
        assert_eq!(d.num_active(), 2);
    }

    #[test]
    fn lost_wakeup_leaves_thread_parked_but_active() {
        let (d, mut m) = two_parked();
        let mut posted = Vec::new();
        let faults = FaultInjector::new(crate::FaultPlan {
            seed: 3,
            wakeup: Some(crate::WakeupFault {
                lose_prob: 1.0,
                spurious_prob: 0.0,
                max_lost: 8,
            }),
            ..crate::FaultPlan::default()
        });
        let n = d.activate(&mut m, &faults, |i| i == 2, |i| posted.push(i));
        assert_eq!(n, 1, "the activation is counted");
        assert!(d.is_active(2) && m.subscribed[2], "marked active");
        assert!(posted.is_empty(), "but the wake token was lost");
    }

    #[test]
    fn assign_prefers_core_with_fewest_hardware_threads() {
        let mut a = AffinityTable::new(4, 1);
        // Cores 0 and 2 already carry pinned siblings; 1 and 3 are empty.
        a.core_load = vec![2, 0, 1, 0];
        let mut pins = Vec::new();
        a.assign(|_| true, &mut pins);
        assert_eq!(pins, [(0, 1)], "least-loaded core wins (tie → lowest id)");
        assert_eq!(a.core_load, [2, 1, 1, 0]);
    }

    #[test]
    fn assign_fills_empty_cores_before_doubling_up() {
        let mut a = AffinityTable::new(4, 6);
        let mut pins = Vec::new();
        a.assign(|t| t < 4, &mut pins);
        // First wave: one thread per core, no SMT sharing.
        assert_eq!(pins, [(0, 0), (1, 1), (2, 2), (3, 3)]);
        // Second wave: only now do cores take a second hardware thread.
        a.assign(|_| true, &mut pins);
        assert_eq!(a.core_load, [2, 2, 1, 1]);
        check_tables(&a);
    }

    #[test]
    fn assign_skips_inactive_and_pinned_threads_and_counts_its_scan() {
        let mut a = AffinityTable::new(2, 3);
        let mut pins = Vec::new();
        // Three table rows, one search over the second core.
        assert_eq!(a.assign(|t| t == 1, &mut pins), 3 + 1);
        assert_eq!(pins, [(1, 0)]);
        assert_eq!(a.core_of(0), None);
        // Re-assigning neither moves nor re-pins thread 1, and scans rows only.
        assert_eq!(a.assign(|t| t == 1, &mut pins), 3);
        assert_eq!(pins.len(), 1);
        check_tables(&a);
    }

    #[test]
    fn clear_is_idempotent_and_a_reactivated_thread_repins_least_loaded() {
        let mut a = AffinityTable::new(2, 4);
        let mut pins = Vec::new();
        a.assign(|_| true, &mut pins);
        assert_eq!(a.core_load, [2, 2]);
        a.clear(0);
        a.clear(0); // clearing an unpinned thread is a no-op
        assert_eq!(a.core_load, [1, 2]);
        pins.clear();
        a.assign(|_| true, &mut pins);
        assert_eq!(pins, [(0, 0)], "back onto the now-least-loaded core");
        check_tables(&a);
    }

    #[test]
    fn tables_stay_consistent_after_activate_deactivate_churn() {
        let mut a = AffinityTable::new(3, 8);
        let mut active = [false; 8];
        let mut rng: u64 = 0x5EED;
        let mut pins = Vec::new();
        for step in 0..500 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = (rng >> 33) as usize % 8;
            active[t] = !active[t];
            if !active[t] {
                a.clear(t);
            }
            a.assign(|i| active[i], &mut pins);
            check_tables(&a);
            // Every active thread is pinned, every inactive one is not.
            for (i, &on) in active.iter().enumerate() {
                assert_eq!(a.core_of(i).is_some(), on, "step {step}, thread {i}");
            }
        }
    }

    #[test]
    fn affinity_footprint_is_small() {
        // §6.6: ~17 KB at 4096 threads on 64 cores.
        assert!(AffinityTable::new(64, 4096).footprint_bytes() < 70 * 1024);
    }
}
