//! Interleaving explorer over the one GVT round (`pdes_core::sched::Round`).
//!
//! Two and three logical GG-PDES/Wait-Free threads run `thread-rt`'s worker
//! loop as step functions: every step is one call on `Round`, `Membership`,
//! `Demand` or `MessagePlane` — the granularity `thread-rt` makes atomic (a
//! membership transition is one step because its mutex makes it one) — with
//! the thread-local decisions around it. A token bounces between the threads
//! (processing it at `t` sends it to the next thread at `t + 1` until it
//! reaches the end time), so exactly one thread has work, the others park,
//! and every hop is demand for a possibly parked thread.
//!
//! Every schedule is enumerated depth-first: the first choice at a state
//! continues on the live world, each further one re-executes the schedule so
//! far on a fresh world (the shared state is atomics and cannot be cloned);
//! a state seen before is not explored again, and a schedule is cut when it
//! would open round `MAX_ROUNDS`. Checked on every schedule:
//!
//! * never a state where no thread can step and not all are done (a thread
//!   parked after `terminated`, a round nobody else joins);
//! * every opened round closes, and nothing is published after the final GVT;
//! * the published GVT is ≤ every undelivered message and every thread's
//!   local clock;
//! * when a round's Aware has run Algorithm 2, no de-scheduled thread is left
//!   holding queued input.
//!
//! Deleting either of two refusals makes it fail (CHANGES.md, PR 17, has the
//! schedules): "no round opens once terminated" in `Round::open` and "no park
//! while a newer round counts you" in `Round::deactivate`.

use pdes_core::{
    AffinityPolicy, AffinityTable, Demand, EventKey, EventUid, GvtMode, IdleTracker, LpId,
    Membership, MessagePlane, Msg, Round, Scheduler, SendBatcher, SystemConfig, VirtualTime,
};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// The token stops being processed — and GVT ends the run — at this time.
const END: u64 = 4;
/// Rounds 0, 1 and 2 may open.
const MAX_ROUNDS: u64 = 3;

/// Where a logical thread is in `worker_loop`; the step it takes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    /// Loop head: leave once `terminated`.
    Top,
    /// One main-loop cycle: drain the input queue…
    Cycle,
    /// …and process the token, which sends it on.
    Send,
    /// The round trigger: `Round::open`.
    Join,
    /// Phase A or B (`second`): drain, fold, count, then wait for the peers
    /// while simulating (the *Send* phase).
    Drain,
    Fold,
    Arrive,
    Wait,
    /// Phase Aware: claim; the winner publishes, then releases or activates.
    Claim,
    Publish,
    Activate,
    Release,
    /// Phase End: read `terminated` and decide on parking, count, park.
    EndRead,
    EndCount,
    Deactivate,
    Parked,
    Done,
}

#[derive(Clone, Hash)]
struct Thread {
    pc: Pc,
    /// In phase B rather than A.
    second: bool,
    joined: Option<u64>,
    /// The joined round's participant count.
    parts: usize,
    /// Timestamps of received, unprocessed events: the local clock is their
    /// minimum.
    pending: Vec<u64>,
    idle: IdleTracker,
    /// Phase End's reads, acted on after the count.
    saw_terminated: bool,
    wants_park: bool,
}

struct World {
    round: Round,
    m: Membership,
    d: Demand,
    plane: MessagePlane<()>,
    /// Lands every send: a one-message landing (a buffer plus a flush) is
    /// one atomic step, whichever thread takes it.
    batcher: SendBatcher<()>,
    aff: AffinityTable,
    /// One binary semaphore per thread.
    sems: Vec<bool>,
    threads: Vec<Thread>,
    /// `(timestamp, destination)` of every pushed, undrained message.
    in_flight: Vec<(u64, usize)>,
}

const GG_ASYNC: SystemConfig = SystemConfig {
    scheduler: Scheduler::GgPdes,
    gvt: GvtMode::Async,
    affinity: AffinityPolicy::Constant,
};

impl World {
    fn new(n: usize) -> Self {
        let thread = Thread {
            pc: Pc::Top,
            second: false,
            joined: None,
            parts: 0,
            pending: Vec::new(),
            // Parks after a single idle poll: the most eager Algorithm 1.
            idle: IdleTracker::new(0),
            saw_terminated: false,
            wants_park: false,
        };
        let mut threads = vec![thread; n];
        threads[0].pending.push(1);
        World {
            round: Round::new(VirtualTime::from_ticks(END)),
            m: Membership::new(n),
            d: Demand::new(n),
            plane: MessagePlane::new(n),
            batcher: SendBatcher::new(n, 64),
            aff: AffinityTable::new(1, n),
            sems: vec![false; n],
            threads,
            in_flight: Vec::new(),
        }
    }

    fn replay(n: usize, schedule: &[usize]) -> Self {
        let mut w = World::new(n);
        for &t in schedule {
            w.step(t).expect("this prefix passed before");
        }
        w
    }

    /// The token, if `t` holds it and may still process it.
    fn runnable(&self, t: usize) -> Option<usize> {
        self.threads[t].pending.iter().position(|&ts| ts < END)
    }

    fn can_step(&self, t: usize) -> bool {
        let th = &self.threads[t];
        match th.pc {
            Pc::Done => false,
            Pc::Parked => self.sems[t],
            Pc::Wait => {
                self.phase_complete(th)
                    || self.round.terminated()
                    || self.plane.len(t) > 0
                    || self.runnable(t).is_some()
            }
            _ => true,
        }
    }

    fn phase_complete(&self, th: &Thread) -> bool {
        let done = if th.second {
            self.round.b_done()
        } else {
            self.round.a_done()
        };
        done >= th.parts
    }

    fn drain(&mut self, t: usize) -> usize {
        let mut inbox = Vec::new();
        let n = self.plane.drain_clean(t, &mut inbox);
        for msg in inbox {
            let ts = msg.recv_time().ticks();
            let at = self.in_flight.iter().position(|&f| f == (ts, t));
            self.in_flight
                .swap_remove(at.expect("drained what was pushed"));
            self.threads[t].pending.push(ts);
        }
        n
    }

    fn send(&mut self, t: usize, token: usize) {
        let ts = self.threads[t].pending.swap_remove(token) + 1;
        let dst = (t + 1) % self.threads.len();
        let key = EventKey {
            recv_time: VirtualTime::from_ticks(ts),
            dst: LpId(dst as u32),
            uid: EventUid::new(LpId(t as u32), ts),
        };
        self.in_flight.push((ts, dst));
        self.batcher.buffer(&self.plane, t, dst, Msg::Anti(key));
        self.batcher.flush(&self.plane);
    }

    /// Thread `t`'s next step. `Err` is a violated property.
    fn step(&mut self, t: usize) -> Result<(), String> {
        let next = match self.threads[t].pc {
            Pc::Top if self.round.terminated() => Pc::Done,
            Pc::Top => Pc::Cycle,
            Pc::Cycle => {
                let received = self.drain(t);
                let token = self.runnable(t);
                let th = &mut self.threads[t];
                let idle = received == 0 && token.is_none();
                th.idle.observe(idle as u64, th.pending.is_empty());
                if token.is_some() {
                    Pc::Send
                } else {
                    Pc::Join
                }
            }
            Pc::Send => {
                let token = self.runnable(t).expect("only the holder sends");
                self.send(t, token);
                Pc::Join
            }
            Pc::Join => {
                let sems = &mut self.sems;
                let joined = self.round.open(&mut self.m, &self.d, t, |i| sems[i] = true);
                let (participate, id) = joined;
                let th = &mut self.threads[t];
                if !participate || th.joined == Some(id) {
                    Pc::Top
                } else {
                    th.joined = Some(id);
                    th.second = false;
                    Pc::Drain
                }
            }
            Pc::Drain => {
                self.drain(t);
                Pc::Fold
            }
            Pc::Fold => {
                let local = self.threads[t].pending.iter().min();
                let local = local.map_or(VirtualTime::INFINITY, |&ts| VirtualTime::from_ticks(ts));
                self.round.fold(&self.plane, t, local);
                Pc::Arrive
            }
            Pc::Arrive => {
                let th = &mut self.threads[t];
                if th.second {
                    self.round.arrive_b();
                } else {
                    self.round.arrive_a();
                }
                th.parts = self.m.participants;
                Pc::Wait
            }
            Pc::Wait if self.phase_complete(&self.threads[t]) || self.round.terminated() => {
                let th = &mut self.threads[t];
                th.second = !th.second;
                if th.second {
                    Pc::Drain
                } else {
                    Pc::Claim
                }
            }
            // The Send phase: a main-loop cycle, one shared call at a time.
            Pc::Wait if self.plane.len(t) > 0 => {
                self.drain(t);
                Pc::Wait
            }
            Pc::Wait => {
                let token = self.runnable(t).expect("enabled only with work");
                self.send(t, token);
                Pc::Wait
            }
            Pc::Claim if self.round.claim_aware() => Pc::Publish,
            Pc::Claim => Pc::EndRead,
            Pc::Publish => {
                if self.round.terminated() {
                    return Err("a round was published after the final GVT".into());
                }
                self.round.publish(&self.plane, &self.d);
                if self.round.terminated() {
                    Pc::Release
                } else {
                    Pc::Activate
                }
            }
            Pc::Activate => {
                let (plane, sems) = (&self.plane, &mut self.sems);
                let queued = |i: usize| plane.len(i) > 0;
                self.d
                    .activate(&mut self.m, &plane.faults, queued, |i| sems[i] = true);
                let n = self.threads.len();
                if let Some(i) = (0..n).find(|&i| !self.d.is_active(i) && queued(i)) {
                    return Err(format!("Aware left t{i} de-scheduled with queued input"));
                }
                Pc::EndRead
            }
            Pc::Release => {
                let sems = &mut self.sems;
                self.round
                    .release_for_termination(&mut self.m, &self.d, |i| sems[i] = true);
                Pc::EndRead
            }
            Pc::EndRead => {
                let th = &mut self.threads[t];
                th.saw_terminated = self.round.terminated();
                let parkable = th.pending.is_empty();
                th.wants_park = th
                    .idle
                    .wants_park(GG_ASYNC, &self.round, &self.plane, t, parkable);
                Pc::EndCount
            }
            Pc::EndCount => {
                self.round.end_phase(&mut self.m);
                let th = &self.threads[t];
                match (th.saw_terminated, th.wants_park) {
                    (true, _) => Pc::Done,
                    (false, true) => Pc::Deactivate,
                    (false, false) => Pc::Top,
                }
            }
            Pc::Deactivate => {
                let completed = self.threads[t].joined.expect("parks at a round's End");
                let (m, aff) = (&mut self.m, &mut self.aff);
                if self.round.deactivate(m, &self.d, aff, t, completed) {
                    Pc::Parked
                } else {
                    Pc::Top
                }
            }
            Pc::Parked => {
                self.sems[t] = false;
                // A token alone proves nothing; the flag or the end does.
                if self.d.is_active(t) || self.round.terminated() {
                    self.threads[t].idle.reintegrate();
                    Pc::Top
                } else {
                    Pc::Parked
                }
            }
            Pc::Done => unreachable!("a finished thread is never scheduled"),
        };
        self.threads[t].pc = next;
        self.check_gvt()
    }

    /// GVT ≤ every undelivered message and every thread's local clock.
    fn check_gvt(&self) -> Result<(), String> {
        let pending = self
            .threads
            .iter()
            .flat_map(|th| th.pending.iter().copied());
        let floor = pending.chain(self.in_flight.iter().map(|f| f.0)).min();
        match floor {
            Some(floor) if self.round.gvt().ticks() > floor => Err(format!(
                "GVT {} overshoots an unprocessed event at {floor}",
                self.round.gvt().ticks()
            )),
            _ => Ok(()),
        }
    }

    /// Nobody can step: then everybody is done and no round is left open.
    fn check_final(&self) -> Result<(), String> {
        let stuck: Vec<String> = (0..self.threads.len())
            .filter(|&t| self.threads[t].pc != Pc::Done)
            .map(|t| format!("t{t} in {:?}", self.threads[t].pc))
            .collect();
        if !stuck.is_empty() {
            return Err(format!("no thread can step, but {}", stuck.join(", ")));
        }
        if self.m.open {
            return Err(format!("round {} was opened and never closed", self.m.id));
        }
        Ok(())
    }

    /// Everything the future depends on, hashed.
    fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (t, th) in self.threads.iter().enumerate() {
            let mut th = th.clone();
            th.pending.sort_unstable();
            th.hash(&mut h);
            (self.sems[t], self.d.is_active(t), self.plane.len(t)).hash(&mut h);
            self.plane.minima(t).hash(&mut h);
        }
        let mut in_flight = self.in_flight.clone();
        in_flight.sort_unstable();
        in_flight.hash(&mut h);
        format!("{:?} {:?}", self.round, self.m).hash(&mut h);
        h.finish()
    }
}

#[derive(Default)]
struct Explorer {
    seen: HashSet<u64>,
    schedule: Vec<usize>,
    complete: usize,
    cut: usize,
}

impl Explorer {
    fn explore(&mut self, w: World) -> Result<(), String> {
        if !self.seen.insert(w.fingerprint()) {
            return Ok(());
        }
        if w.m.open && w.m.id >= MAX_ROUNDS {
            self.cut += 1;
            return Ok(());
        }
        let n = w.threads.len();
        let enabled: Vec<usize> = (0..n).filter(|&t| w.can_step(t)).collect();
        if enabled.is_empty() {
            self.complete += 1;
            return w.check_final();
        }
        let mut live = Some(w);
        for t in enabled {
            let mut w = live
                .take()
                .unwrap_or_else(|| World::replay(n, &self.schedule));
            self.schedule.push(t);
            w.step(t)?;
            self.explore(w)?;
            self.schedule.pop();
        }
        Ok(())
    }
}

/// Explore every schedule of `n` threads; on a violation, panic with the
/// schedule that reaches it.
fn explore_all(n: usize) -> Explorer {
    let mut ex = Explorer::default();
    if let Err(violation) = ex.explore(World::new(n)) {
        let mut w = World::new(n);
        let mut trace = Vec::new();
        for &t in &ex.schedule {
            trace.push(format!("t{t}:{:?}", w.threads[t].pc));
            let _ = w.step(t);
        }
        panic!(
            "{n} threads: {violation}\nafter {} steps: {}",
            trace.len(),
            trace.join(" ")
        );
    }
    assert!(ex.complete > 0, "no schedule ran to completion");
    println!(
        "{n} threads: {} states, {} schedules completed, {} cut at round {MAX_ROUNDS}",
        ex.seen.len(),
        ex.complete,
        ex.cut
    );
    ex
}

#[test]
fn two_threads_every_interleaving() {
    explore_all(2);
}

#[test]
fn three_threads_every_interleaving() {
    explore_all(3);
}
