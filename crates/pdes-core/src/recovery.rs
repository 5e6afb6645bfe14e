//! The recovery chassis every runtime shares.
//!
//! Checkpointing, restart and supervision do not depend on how a runtime
//! moves messages or time, so they exist once, here:
//!
//! * [`CkptSink`] — where the participants of an armed GVT round deposit
//!   their share of the cut; the deposit completing the round assembles the
//!   validated [`Checkpoint`], keeps it for the supervisor and (when a path
//!   is configured) persists it atomically.
//! * [`build_engines`] — the set-up of one attempt: the LP map (formula or
//!   restored), one engine per thread, and either the pre-routed initial
//!   events or each engine's share of the cut plus the ingest suffix.
//! * [`supervise`] — the bounded retry → restore → remap → degrade loop,
//!   generic over a closure that runs one attempt. The closure is all a
//!   runtime contributes: the real-thread runtimes (both protocols) and the
//!   virtual machine recover through the same code, which is what makes
//!   their recovery behaviour comparable.

use crate::batch::{SendBatcher, SendSink, CAP};
use crate::checkpoint::{Checkpoint, CutSnapshot, SupervisorConfig};
use crate::config::EngineConfig;
use crate::engine::ThreadEngine;
use crate::event::Msg;
use crate::faults::{FaultCursor, FaultInjector, FaultPlan};
use crate::ids::SimThreadId;
use crate::ingest::IngestGate;
use crate::mapping::LpMap;
use crate::model::Model;
use crate::sequential::{run_sequential_with, SequentialResult};
use crate::time::VirtualTime;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

struct SinkState<M: Model> {
    /// Round id the partial deposits belong to.
    round: u64,
    parts: Vec<CutSnapshot<M::State, M::Payload>>,
    latest: Option<Checkpoint<M::State, M::Payload>>,
}

/// Checkpoint sink of one run attempt. The virtual machine shares it behind
/// an `Rc`; its single host thread never contends the mutex.
pub struct CkptSink<M: Model> {
    /// Destination for atomic on-disk checkpoints (`None` = memory only).
    path: Option<PathBuf>,
    map: LpMap,
    state: Mutex<SinkState<M>>,
}

impl<M: Model> CkptSink<M> {
    pub fn new(path: Option<PathBuf>, map: LpMap) -> Self {
        CkptSink {
            path,
            map,
            state: Mutex::new(SinkState {
                round: 0,
                parts: Vec::new(),
                latest: None,
            }),
        }
    }

    /// Deposit one participant's cut for the armed round `round`. The
    /// depositor completing the set (`expected` participants) assembles and
    /// publishes the checkpoint; returns whether this call published one.
    ///
    /// Rounds are serialized, so a deposit with a newer round id means the
    /// round being assembled died (a participant was lost mid-round): its
    /// parts are discarded. A straggler from an *older* round is dropped
    /// rather than clobbering the assembly in progress. A completed set that
    /// does not cover every LP of the map exactly once is an `Err` — the
    /// participants disagreed about the cut, and restoring from it would be
    /// silently wrong — and the previous checkpoint stays the newest.
    pub fn deposit(
        &self,
        round: u64,
        gvt: VirtualTime,
        gvt_rounds: u64,
        part: CutSnapshot<M::State, M::Payload>,
        expected: usize,
        cursor: Option<FaultCursor>,
    ) -> Result<bool, String> {
        let mut st = self.state.lock().expect("a depositor panicked");
        if round < st.round {
            return Ok(false);
        }
        if st.round != round {
            st.parts.clear();
            st.round = round;
        }
        st.parts.push(part);
        if st.parts.len() < expected {
            return Ok(false);
        }
        let parts = std::mem::take(&mut st.parts);
        // `assemble` sorts: deposit order is a thread race, the checkpoint
        // must be identical across runs.
        let ckpt = Checkpoint::assemble(gvt, gvt_rounds, self.map.clone(), parts, cursor)
            .map_err(|e| format!("round {round} cut rejected: {e}"))?;
        if let Some(path) = &self.path {
            // Persisting is best-effort; the in-memory cut still counts.
            if let Err(e) = ckpt.write_atomic(path) {
                eprintln!("[checkpoint] write failed (run continues): {e}");
            }
        }
        st.latest = Some(ckpt);
        Ok(true)
    }

    /// The newest fully assembled checkpoint of this attempt, if any.
    pub fn latest(&self) -> Option<Checkpoint<M::State, M::Payload>> {
        self.state
            .lock()
            .expect("a depositor panicked")
            .latest
            .clone()
    }
}

/// Set up one attempt on `threads` threads: returns the LP → thread map and
/// one engine per thread. Messages land in `sink` through a
/// [`SendBatcher`].
///
/// A fresh run uses the formula map and pre-routes the initial events. A
/// resumed run uses the checkpoint's map — `threads` must match it, and the
/// weak-scaling divisibility requirement is waived (recovered maps are
/// deliberately uneven) — and restores each engine's share of the cut
/// (initial events are already part of the checkpoint's history).
///
/// With an `ingest` gate, its accepted-but-uncut events are re-routed before
/// any worker starts: a cut at `c.gvt` holds every accepted event with
/// `send_time < c.gvt`, the complement is replayed here, so each accepted
/// idempotency id commits exactly once across the restore. A fresh start
/// (or a restart from genesis) has an empty cut, so everything ever accepted
/// is replayed, a resumed journal included — the gate dedups client retries
/// as `Duplicate`, so nothing else will carry those ids back in.
pub fn build_engines<M: Model>(
    model: &Arc<M>,
    ecfg: &EngineConfig,
    threads: usize,
    resume: Option<&Checkpoint<M::State, M::Payload>>,
    ingest: Option<&IngestGate<M::Payload>>,
    sink: &impl SendSink<M::Payload>,
) -> (LpMap, Vec<ThreadEngine<M>>) {
    let map = match resume {
        Some(c) => {
            assert_eq!(
                c.map.num_threads as usize, threads,
                "checkpoint map threads must match the run config"
            );
            c.map.clone()
        }
        None => {
            assert!(
                model.num_lps().is_multiple_of(threads),
                "weak scaling requires LPs ({}) divisible by threads ({threads})",
                model.num_lps()
            );
            LpMap::new(model.num_lps(), threads, ecfg.mapping)
        }
    };
    let mut engines = Vec::with_capacity(threads);
    let mut batcher = SendBatcher::new(threads, CAP);
    for t in 0..threads {
        let mut eng =
            ThreadEngine::new(Arc::clone(model), map.clone(), SimThreadId(t as u32), ecfg);
        let mut init = eng.take_init_events();
        match resume {
            Some(c) => eng.restore(&c.lps, &c.events, c.gvt),
            None => batcher.land(sink, t, &mut init),
        }
        engines.push(eng);
    }
    if let Some(g) = ingest {
        let cut = resume.map_or(VirtualTime::ZERO, |c| c.gvt);
        g.reinject_after_restore(cut, &mut |ev| {
            let dst = map.thread_of(ev.key.dst).index();
            batcher.buffer(sink, 0, dst, Msg::Event(ev));
        });
        batcher.flush(sink);
    }
    (map, engines)
}

/// Why an attempt did not complete.
#[derive(Debug, Clone)]
pub struct AttemptFailure {
    /// The worker that died, when the failure was a worker death (a stall
    /// or a journal failure has none).
    pub dead_thread: Option<usize>,
    /// One line for the supervisor's log.
    pub reason: String,
}

/// One attempt of a (possibly supervised) run: the outcome plus everything
/// needed to recover from a failure — the newest checkpoint the attempt
/// assembled and the per-thread committed-event loads, which survive even
/// when the attempt itself failed (joined worker state is *not* discarded on
/// failure; the load vector drives the LP remap onto survivors). `O` is the
/// runtime's own outcome type; [`supervise`] takes it as a `Result` whose
/// error side has an [`AttemptFailure`] summary.
pub struct Attempt<M: Model, O> {
    pub outcome: O,
    pub checkpoint: Option<Checkpoint<M::State, M::Payload>>,
    pub thread_loads: Vec<u64>,
}

/// What a run's supervisor did, kept once for every runtime: the VM and
/// real-thread supervisor ([`supervise`]) and dist-rt's cluster fill the
/// same books.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryBooks {
    /// Recoveries performed: one per entry of `recovered`, plus one per
    /// restart that replaced no one (after a stall or an ingest-journal
    /// failure).
    pub recoveries: u32,
    /// The worker (or shard) each recovery replaced, in recovery order.
    pub recovered: Vec<usize>,
    /// Recoveries that restored only the dead shard(s) from the latest cut
    /// while the survivors replayed their send logs in place (dist).
    pub partial_recoveries: u32,
    /// Whether any recovery restored from an assembled checkpoint cut (as
    /// opposed to replaying from the start).
    pub used_checkpoint: bool,
    /// Whether recovery was exhausted and the sequential engine finished
    /// the run from the last cut (or from genesis).
    pub degraded: bool,
    /// Membership reshapes performed (dist's joins, leaves and
    /// degradations).
    pub membership_epoch: u64,
    /// Threads (shards) in the run when it finished.
    pub shards_final: usize,
    /// One line per failed attempt, for operators and tests.
    pub log: Vec<String>,
}

/// Run `attempt` under supervision, starting on `threads` threads with
/// fault plan `plan`. Never returns an error — a supervised run completes:
///
/// 1. `attempt(threads, resume, injector)` runs one attempt, checkpointing
///    on its configured cadence.
/// 2. On failure the newest checkpoint is restored. If a worker died and a
///    checkpoint exists, the dead thread's LPs are remapped onto the
///    survivors (least-loaded first, by the committed counts the survivors
///    reported) and the run resumes one thread smaller; a pre-checkpoint
///    death restarts from genesis on the original map. The fault streams
///    resume at the checkpoint's cursor, and the scripted kill that felled
///    the attempt is consumed so it does not re-fire on them.
/// 3. Retries are bounded by `sup.max_recoveries`, with exponential
///    `sup.backoff` between them. When the budget is exhausted the run
///    *degrades*: the sequential engine finishes from the last consistent
///    cut (or from genesis), and its result is the `Err` side.
///
/// Returns how the run finished and the supervisor's books, which the
/// runtime folds into its outcome.
///
/// An `ingest` gate outlives every failed attempt. Every start replays its
/// accepted-but-uncut events ([`IngestGate::reinject_after_restore`]): each
/// attempt in [`build_engines`], and the degraded path (which then closes
/// the gate) into the sequential engine's pending set — so even a fully
/// exhausted run commits every accepted event exactly once.
pub fn supervise<M: Model, R, E: Into<AttemptFailure>>(
    model: &Arc<M>,
    ecfg: &EngineConfig,
    mut threads: usize,
    plan: &FaultPlan,
    sup: &SupervisorConfig,
    ingest: Option<&IngestGate<M::Payload>>,
    mut attempt: impl FnMut(
        usize,
        Option<&Checkpoint<M::State, M::Payload>>,
        FaultInjector,
    ) -> Attempt<M, Result<R, E>>,
) -> (Result<R, SequentialResult>, RecoveryBooks) {
    let mut ckpt: Option<Checkpoint<M::State, M::Payload>> = None;
    // Kills consumed since the newest checkpoint's fault cursor was taken.
    // A checkpoint's cursor already embeds every consumption applied before
    // the attempt that produced it, so the list resets whenever a fresher
    // checkpoint arrives — replaying it on top would consume twice.
    let mut consumed: Vec<usize> = Vec::new();
    let mut books = RecoveryBooks::default();
    loop {
        let injector = match ckpt.as_ref().and_then(|c| c.cursor.as_ref()) {
            Some(cur) => FaultInjector::with_cursor(plan.clone(), cur),
            None => FaultInjector::new(plan.clone()),
        };
        for &t in &consumed {
            injector.consume_kill(t);
        }
        let a = attempt(threads, ckpt.as_ref(), injector);
        if let Some(c) = a.checkpoint {
            ckpt = Some(c);
            consumed.clear();
        }
        books.shards_final = threads;
        let failure = match a.outcome {
            Ok(r) => return (Ok(r), books),
            Err(e) => e.into(),
        };
        books.log.push(format!(
            "attempt {} failed: {}",
            books.recoveries + 1,
            failure.reason
        ));
        if books.recoveries >= sup.max_recoveries {
            let cut = ckpt.as_ref().map_or(VirtualTime::ZERO, |c| c.gvt);
            let mut extra = Vec::new();
            if let Some(g) = ingest {
                g.reinject_after_restore(cut, &mut |ev| extra.push(ev));
                g.close();
            }
            let seq = run_sequential_with(model, ecfg, ckpt.as_ref(), &extra, None);
            books
                .log
                .push("recovery budget exhausted; degraded to sequential".into());
            books.degraded = true;
            books.used_checkpoint |= ckpt.is_some();
            return (Err(seq), books);
        }
        books.recoveries += 1;
        books.used_checkpoint |= ckpt.is_some();
        if let Some(dead) = failure.dead_thread {
            books.recovered.push(dead);
            consumed.push(dead);
            // Remap only when there is a checkpoint to resume under the new
            // map and a survivor to take the load; otherwise the thread
            // slot is simply respawned.
            if threads > 1 {
                if let Some(c) = &mut ckpt {
                    c.map = c
                        .map
                        .rebalanced_without(SimThreadId(dead as u32), &a.thread_loads);
                    threads -= 1;
                }
            }
        }
        std::thread::sleep(sup.backoff * (1u32 << (books.recoveries - 1).min(16)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LpId;
    use crate::ingest::{IngestRequest, ReplySlot};
    use crate::mapping::MapKind;
    use crate::sequential::tests::Ring;

    type Cut = Checkpoint<u64, ()>;
    type Fake = Attempt<Ring, Result<u32, AttemptFailure>>;
    const LOADS: [u64; 4] = [10, 20, 30, 40];

    fn cfg() -> EngineConfig {
        EngineConfig::default().with_end_time(30.0).with_seed(11)
    }

    fn patient(max: u32) -> SupervisorConfig {
        SupervisorConfig::new(max).with_backoff(std::time::Duration::ZERO)
    }

    /// A real mid-run cut of an 8-LP ring, stamped with a `threads`-thread
    /// map (the LP snapshots and crossing events of a cut are map-free).
    fn cut(model: &Arc<Ring>, threads: usize, cursor: Option<FaultCursor>) -> Cut {
        let one = LpMap::new(8, 1, MapKind::RoundRobin);
        let mut eng = ThreadEngine::new(Arc::clone(model), one, SimThreadId(0), &cfg());
        let mut out = Vec::new();
        for (_, m) in eng.take_init_events() {
            eng.deliver(m, &mut out);
        }
        for _ in 0..5 {
            eng.process_batch(16, &mut out);
        }
        let gvt = eng.local_min();
        eng.fossil_collect(gvt);
        let map = LpMap::new(8, threads, MapKind::RoundRobin);
        Checkpoint::assemble(gvt, 3, map, vec![eng.snapshot_at_gvt(gvt)], cursor).expect("cut")
    }

    /// An attempt in which worker `dead` was killed.
    fn killed(dead: usize, checkpoint: Option<Cut>) -> Fake {
        Attempt {
            outcome: Err(AttemptFailure {
                dead_thread: Some(dead),
                reason: "killed".into(),
            }),
            checkpoint,
            thread_loads: LOADS.to_vec(),
        }
    }

    fn completed() -> Fake {
        Attempt {
            outcome: Ok(7),
            checkpoint: None,
            thread_loads: Vec::new(),
        }
    }

    #[test]
    fn a_kill_before_the_first_cut_restarts_from_genesis_and_one_after_it_resumes_remapped() {
        let model = Arc::new(Ring { n: 8 });
        let c = cut(&model, 4, None);
        let plan = FaultPlan::default();
        let mut seen = Vec::new();
        let (run, books) = supervise(
            &model,
            &cfg(),
            4,
            &plan,
            &patient(3),
            None,
            |n, resume, _| {
                seen.push((n, resume.map(|r| r.map.clone())));
                match seen.len() {
                    1 => killed(1, None),
                    2 => killed(1, Some(c.clone())),
                    _ => completed(),
                }
            },
        );
        assert_eq!(seen[1], (4, None), "no cut yet: genesis, original map");
        let remap = c.map.rebalanced_without(SimThreadId(1), &LOADS);
        assert_eq!(seen[2], (3, Some(remap)), "one thread smaller, remapped");
        assert!(run.is_ok() && !books.degraded);
        assert_eq!((books.recoveries, books.log.len()), (2, 2));
        assert_eq!(books.recovered, [1, 1]);
        assert!(books.used_checkpoint && books.shards_final == 3);
    }

    #[test]
    fn a_fresher_checkpoint_clears_the_consumed_kill_list() {
        let model = Arc::new(Ring { n: 8 });
        let plan = (0..3).fold(FaultPlan::default(), |p, _| p.with_kill(0, 1));
        let mut attempts = 0;
        let (_, books) = supervise(&model, &cfg(), 4, &plan, &patient(3), None, |_, _, inj| {
            attempts += 1;
            match attempts {
                1 => {
                    assert!(inj.should_kill(0, 1), "first kill fires");
                    killed(0, None)
                }
                2 => {
                    // The cut's cursor already embeds the consumed first kill.
                    let c = cut(&model, 4, inj.cursor());
                    assert!(inj.should_kill(0, 1), "second kill fires");
                    killed(0, Some(c))
                }
                _ => {
                    // Consuming `[0, 0]` on top of that cursor would eat the
                    // third kill too; exactly one must be left.
                    assert!(inj.should_kill(0, 1) && !inj.should_kill(0, 1));
                    completed()
                }
            }
        });
        assert_eq!((books.recoveries, books.recovered), (2, vec![0, 0]));
    }

    #[test]
    fn a_restart_that_replaces_no_one_is_still_counted() {
        let model = Arc::new(Ring { n: 8 });
        let mut attempts = 0;
        let (run, books) = supervise(
            &model,
            &cfg(),
            4,
            &FaultPlan::default(),
            &patient(3),
            None,
            |_, _, _| {
                attempts += 1;
                match attempts {
                    1 => Attempt {
                        outcome: Err(AttemptFailure {
                            dead_thread: None,
                            reason: "stalled".into(),
                        }),
                        checkpoint: None,
                        thread_loads: LOADS.to_vec(),
                    },
                    2 => killed(2, None),
                    _ => completed(),
                }
            },
        );
        assert!(run.is_ok() && !books.degraded);
        assert_eq!((books.recoveries, books.recovered), (2, vec![2]));
        assert_eq!(books.log.len(), 2);
    }

    #[test]
    fn an_exhausted_budget_degrades_from_the_cut_with_only_the_ingest_suffix() {
        let model = Arc::new(Ring { n: 8 });
        let c = cut(&model, 4, None);
        let gate: IngestGate<()> = IngestGate::new(0);
        // Accepted events are stamped `send_time = floor`: id 1 predates the
        // cut (a real cut would hold it), id 2 is the suffix.
        for (id, floor) in [(1, VirtualTime::ZERO), (2, c.gvt)] {
            gate.set_floor(floor);
            let at = c.gvt.saturating_add(VirtualTime::from_f64(2.0));
            let req = IngestRequest {
                source: 1,
                id,
                at,
                dst: LpId(0),
                payload: (),
            };
            gate.submit(req, ReplySlot::None);
            gate.pump(|_| true, &mut |_| {}).expect("memory journal");
        }
        let plan = FaultPlan::default();
        let (run, books) = supervise(
            &model,
            &cfg(),
            4,
            &plan,
            &patient(1),
            Some(&gate),
            |_, _, _| killed(2, Some(c.clone())),
        );
        assert!(books.degraded && books.recoveries == 1, "{:?}", books.log);
        assert_eq!(books.recovered, [2]);
        let Err(seq) = run else {
            panic!("degraded runs finish sequentially")
        };
        let all = gate.accepted_events();
        let suffix = [all[1].clone()];
        assert!(all[0].send_time < c.gvt && suffix[0].send_time >= c.gvt);
        assert_eq!(
            seq,
            run_sequential_with(&model, &cfg(), Some(&c), &suffix, None)
        );
        assert_ne!(
            seq,
            run_sequential_with(&model, &cfg(), Some(&c), &all, None)
        );
    }

    #[test]
    fn the_sink_discards_a_dead_rounds_deposits_and_refuses_a_bad_cover() {
        let model = Arc::new(Ring { n: 8 });
        let c = cut(&model, 2, None);
        let half = |t: u32| -> CutSnapshot<u64, ()> {
            let mine = |l: &&crate::LpCheckpoint<u64>| c.map.thread_of(l.lp).0 == t;
            (c.lps.iter().filter(mine).cloned().collect(), Vec::new())
        };
        let sink: CkptSink<Ring> = CkptSink::new(None, c.map.clone());
        // Round 4 loses a participant after one deposit; round 5 must
        // complete without inheriting it.
        assert_eq!(sink.deposit(4, c.gvt, 4, half(0), 2, None), Ok(false));
        assert_eq!(sink.deposit(5, c.gvt, 5, half(0), 2, None), Ok(false));
        // Round 4's lost participant turns up late: ignored, round 5's
        // assembly is neither completed nor clobbered by it.
        assert_eq!(sink.deposit(4, c.gvt, 4, half(1), 2, None), Ok(false));
        assert!(sink.latest().is_none());
        assert_eq!(sink.deposit(5, c.gvt, 5, half(1), 2, None), Ok(true));
        assert_eq!(sink.latest().expect("round 5 assembled").lps, c.lps);
        // Round 6 doubles thread 0's LPs and misses thread 1's: the caller
        // is told, and the last good cut stays the newest.
        assert_eq!(sink.deposit(6, c.gvt, 6, half(0), 2, None), Ok(false));
        let err = sink.deposit(6, c.gvt, 6, half(0), 2, None).unwrap_err();
        assert!(
            err.contains("round 6") && err.contains("two shard cuts"),
            "{err}"
        );
        assert_eq!(sink.latest().expect("kept").gvt_rounds, 5);
    }
}
