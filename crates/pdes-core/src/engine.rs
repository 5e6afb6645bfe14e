//! The per-simulation-thread Time Warp engine.
//!
//! [`ThreadEngine`] owns a thread's LPs and pending set and implements the
//! platform-independent mechanics: optimistic processing, straggler
//! detection, rollback cascades, anti-message annihilation, and fossil
//! collection. The two runtimes (`sim-rt` on the virtual machine, `thread-rt`
//! on real threads) wrap it with queues, scheduling, GVT protocols, and cost
//! accounting — the *event semantics* live here and are identical in both.

use crate::checkpoint::{CutSnapshot, LpCheckpoint};
use crate::config::EngineConfig;
use crate::event::{Event, EventKey, Msg};
use crate::ids::{LpId, SimThreadId};
use crate::lp::{key_digest, HistoryBytes, HistoryStore, LpCore, Snapshot};
use crate::mapping::LpMap;
use crate::model::Model;
use crate::pending::{CancelOutcome, InsertOutcome, PendingSet};
use crate::slab::NIL;
use crate::stats::ThreadStats;
use crate::time::VirtualTime;
use std::sync::Arc;

/// A message addressed to another simulation thread.
pub type Outbound<P> = (SimThreadId, Msg<P>);

/// Result of one batch-processing step.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Events executed in this batch.
    pub processed: u32,
    /// Positive events sent (local + remote).
    pub sent: u32,
    /// Remote messages produced (positive + anti).
    pub remote_msgs: u32,
    /// Events undone by rollbacks triggered inside the batch
    /// (zero-delay self-straggler cascades).
    pub rolled_back: u32,
}

/// Result of delivering one incoming message.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeliverOutcome {
    /// Events undone by the rollback this message triggered (0 if none).
    pub rolled_back: u32,
    /// Anti-messages emitted by the rollback.
    pub antis: u32,
    /// `true` if the message annihilated against its twin.
    pub annihilated: bool,
}

/// Per-thread Time Warp engine.
pub struct ThreadEngine<M: Model> {
    tid: SimThreadId,
    model: Arc<M>,
    map: LpMap,
    /// Owned LPs in ascending id order: an LP's place here is its local
    /// index.
    lps: Vec<LpCore<M>>,
    /// Local index of every LP of the run by id; `NIL` for another
    /// thread's.
    local_of: Vec<u32>,
    /// The uncommitted history of every owned LP.
    store: HistoryStore<M>,
    pending: PendingSet<M::Payload>,
    stats: ThreadStats,
    end_time: VirtualTime,
    /// Bounded-optimism window (virtual-time ticks beyond the GVT hint).
    optimism_window: Option<VirtualTime>,
    /// Last GVT this engine saw (updated at fossil collection).
    gvt_hint: VirtualTime,
    /// Local indices of the LPs a fossil sweep must visit: listed when they
    /// first process an event, dropped when a sweep leaves them no history.
    with_history: Vec<u32>,
    /// `listed[i]`: LP `i` is in `with_history` (it may have lost its
    /// history to a rollback since; the next sweep finds out).
    listed: Vec<bool>,
    /// Reused worklist for local anti-message cascades in [`Self::deliver`].
    work: Vec<Msg<M::Payload>>,
    /// Reused results of a rollback in [`Self::deliver`]: the undone
    /// events and the antis of their sends.
    undone: Vec<Event<M::Payload>>,
    antis: Vec<EventKey>,
    /// Reused send buffer for the batch loops — handler sends land here and
    /// are routed out, so steady-state processing allocates nothing.
    send_buf: Vec<Event<M::Payload>>,
}

impl<M: Model> ThreadEngine<M> {
    /// Build the engine for `tid`, creating all of its LPs.
    pub fn new(model: Arc<M>, map: LpMap, tid: SimThreadId, cfg: &EngineConfig) -> Self {
        let lp_ids = map.lps_of(tid);
        let mut local_of = vec![NIL; map.num_lps as usize];
        for (at, lp) in lp_ids.iter().enumerate() {
            local_of[lp.index()] = at as u32;
        }
        let lps = lp_ids
            .iter()
            .map(|&lp| LpCore::new(model.as_ref(), lp, cfg.seed))
            .collect();
        ThreadEngine {
            tid,
            model,
            map,
            listed: vec![false; lp_ids.len()],
            lps,
            local_of,
            store: HistoryStore::new(cfg.snapshot_period),
            pending: PendingSet::new(),
            stats: ThreadStats::default(),
            end_time: cfg.end_time,
            optimism_window: cfg.optimism_window.map(VirtualTime::from_f64),
            gvt_hint: VirtualTime::ZERO,
            with_history: Vec::new(),
            work: Vec::new(),
            undone: Vec::new(),
            antis: Vec::new(),
            send_buf: Vec::new(),
        }
    }

    #[inline]
    pub fn tid(&self) -> SimThreadId {
        self.tid
    }

    #[inline]
    pub fn map(&self) -> &LpMap {
        &self.map
    }

    #[inline]
    pub fn stats(&self) -> &ThreadStats {
        &self.stats
    }

    #[inline]
    pub fn num_lps(&self) -> usize {
        self.lps.len()
    }

    /// Number of unprocessed events in the pending set.
    #[inline]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The thread's contribution to GVT: receive time of its lowest
    /// unprocessed event (input-queue contents are the runtime's business).
    #[inline]
    pub fn local_min(&self) -> VirtualTime {
        self.pending.min_time()
    }

    /// `true` while the thread still holds events below the end time —
    /// events it will actually process (a run covers `[0, end)`). A thread
    /// whose only pending events lie at or beyond the end time is as idle
    /// as an empty one (demand-driven deactivation condition).
    #[inline]
    pub fn has_live_pending(&self) -> bool {
        self.pending.min_time() < self.end_time
    }

    /// Local index of an owned LP.
    #[inline]
    fn local(&self, lp: LpId) -> usize {
        match self.local_of.get(lp.index()) {
            Some(&at) if at != NIL => at as usize,
            _ => panic!("{lp} not owned by thread {}", self.tid),
        }
    }

    /// Bytes of the owned LPs' uncommitted history.
    pub fn history_bytes(&self) -> HistoryBytes {
        self.store.bytes()
    }

    /// Run every owned LP's initial-event hook. Returned messages must be
    /// routed by the caller (initial events may target any LP, including
    /// this thread's own — route them back through [`Self::deliver`]).
    pub fn take_init_events(&mut self) -> Vec<Outbound<M::Payload>> {
        let mut out = Vec::new();
        for lp in &mut self.lps {
            for ev in lp.init_events(self.model.as_ref()) {
                out.push((self.map.thread_of(ev.dst()), Msg::Event(ev)));
            }
        }
        self.stats.events_sent += out.len() as u64;
        out
    }

    /// Deliver one incoming message, resolving any rollback it triggers.
    /// Anti-messages produced by the rollback are appended to `outbox`
    /// (local ones are applied recursively; only remote ones are emitted).
    pub fn deliver(
        &mut self,
        msg: Msg<M::Payload>,
        outbox: &mut Vec<Outbound<M::Payload>>,
    ) -> DeliverOutcome {
        let mut outcome = DeliverOutcome::default();
        // Local anti-message cascades are resolved with a worklist; the
        // buffer is engine-owned and reused (empty again by loop exit).
        self.work.push(msg);
        while let Some(m) = self.work.pop() {
            let key = m.key();
            let at = self.local(key.dst);
            let lp = &mut self.lps[at];
            // What the message undoes: a straggler every later event
            // (`Some(false)`), an anti-message for a processed event that
            // event and every later one (`Some(true)`).
            let undo = match m {
                Msg::Event(_) => lp.is_straggler(&self.store, &key).then(|| {
                    self.stats.stragglers += 1;
                    false
                }),
                Msg::Anti(_) => {
                    self.stats.antis_received += 1;
                    // A pending twin orders after the LP's last processed
                    // event, so asking the history first costs one read of
                    // its tail. Otherwise the twin is pending (removed
                    // here) or in transit (the parked anti annihilates it).
                    if lp.has_processed(&self.store, &key) {
                        Some(true)
                    } else {
                        if self.pending.cancel(&key) == CancelOutcome::Removed {
                            outcome.annihilated = true;
                            self.stats.annihilations += 1;
                        }
                        None
                    }
                }
            };
            if let Some(inclusive) = undo {
                self.stats.rollbacks += 1;
                let undone = lp.rollback_into(
                    &mut self.store,
                    &key,
                    inclusive,
                    &mut self.undone,
                    &mut self.antis,
                );
                outcome.rolled_back += undone as u32;
                self.stats.rolled_back += undone as u64;
                outcome.antis += self.antis.len() as u32;
                // Local antis join the worklist, remote ones the outbox.
                for anti in self.antis.drain(..) {
                    self.stats.antis_sent += 1;
                    let dst_thread = self.map.thread_of(anti.dst);
                    if dst_thread == self.tid {
                        self.work.push(Msg::Anti(anti));
                    } else {
                        outbox.push((dst_thread, Msg::Anti(anti)));
                    }
                }
                for undone in self.undone.drain(..) {
                    if undone.key == key {
                        // The cancelled event: annihilated.
                        self.stats.annihilations += 1;
                        outcome.annihilated = true;
                        continue;
                    }
                    // Re-inserted events cannot collide: they were just
                    // removed from "processed", not pending.
                    let r = self.pending.insert(undone);
                    debug_assert_eq!(r, InsertOutcome::Inserted);
                }
            }
            if let Msg::Event(ev) = m {
                match self.pending.insert(ev) {
                    InsertOutcome::Inserted => {}
                    InsertOutcome::Annihilated => {
                        outcome.annihilated = true;
                        self.stats.annihilations += 1;
                    }
                }
            }
        }
        outcome
    }

    /// Process up to `max` pending events (one ROSS main-loop batch).
    /// Remote sends are appended to `outbox`; local sends are delivered
    /// immediately (and may extend the work available to this same batch).
    pub fn process_batch(
        &mut self,
        max: usize,
        outbox: &mut Vec<Outbound<M::Payload>>,
    ) -> BatchOutcome {
        // Bounded optimism: never speculate past gvt + window (the event
        // *at* that horizon runs, so the GVT frontier always progresses).
        let end = self.end_time;
        let horizon = match self.optimism_window {
            Some(w) => self.gvt_hint.saturating_add(w),
            None => VirtualTime::INFINITY,
        };
        self.process_while(max, outbox, |t| t < end && t <= horizon)
    }

    /// Conservative (Chandy–Misra–Bryant) batch: process up to `max`
    /// pending events whose receive time is **strictly below** `bound`
    /// (and below the end time). The caller guarantees no event
    /// below `bound` can still arrive, so — unlike
    /// [`process_batch`](Self::process_batch) — nothing here is speculative
    /// and nothing will ever roll back.
    /// Remote sends are appended to `outbox`; local sends are delivered
    /// immediately and may extend the work available to this same batch.
    pub fn process_conservative(
        &mut self,
        bound: VirtualTime,
        max: usize,
        outbox: &mut Vec<Outbound<M::Payload>>,
    ) -> BatchOutcome {
        let end = self.end_time;
        self.process_while(max, outbox, |t| t < bound && t < end)
    }

    /// The batch loop both protocols share: pop and execute up to `max`
    /// pending events for as long as `may_run` admits the pending minimum's
    /// receive time. The protocols differ only in that stop test.
    #[inline]
    fn process_while(
        &mut self,
        max: usize,
        outbox: &mut Vec<Outbound<M::Payload>>,
        may_run: impl Fn(VirtualTime) -> bool,
    ) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        let mut sends = std::mem::take(&mut self.send_buf);
        for _ in 0..max {
            let Some(min) = self.pending.min_key() else {
                break;
            };
            if !may_run(min.recv_time) {
                break;
            }
            let ev = self.pending.pop_min().expect("min exists");
            let at = self.local(ev.dst());
            if !std::mem::replace(&mut self.listed[at], true) {
                self.with_history.push(at as u32);
            }
            sends.clear();
            let n = self.lps[at].process_into(&mut self.store, self.model.as_ref(), ev, &mut sends);
            self.stats.coasted += std::mem::take(&mut self.store.coasted);
            self.stats.processed += 1;
            out.processed += 1;
            out.sent += n as u32;
            self.stats.events_sent += n as u64;
            for ev in sends.drain(..) {
                let dst_thread = self.map.thread_of(ev.dst());
                if dst_thread == self.tid {
                    let d = self.deliver(Msg::Event(ev), outbox);
                    out.rolled_back += d.rolled_back;
                } else {
                    outbox.push((dst_thread, Msg::Event(ev)));
                }
            }
        }
        self.send_buf = sends;
        out.remote_msgs = outbox.len() as u32;
        out
    }

    /// Fossil-collect every LP below `gvt`; returns newly committed events.
    pub fn fossil_collect(&mut self, gvt: VirtualTime) -> u64 {
        self.gvt_hint = self.gvt_hint.max(gvt.min(self.end_time));
        self.sweep(gvt)
    }

    /// Commit all remaining history (simulation end).
    pub fn finalize(&mut self) -> u64 {
        self.sweep(VirtualTime::INFINITY)
    }

    /// Fossil-collect the LPs that have history — the others have nothing
    /// to commit — and stop listing those left with none. The thread's
    /// commit digest moves by what each LP's did.
    fn sweep(&mut self, gvt: VirtualTime) -> u64 {
        let Self {
            model,
            lps,
            store,
            with_history,
            listed,
            stats,
            ..
        } = self;
        let mut n = 0;
        with_history.retain(|&at| {
            let lp = &mut lps[at as usize];
            let before = lp.commit_digest;
            n += lp.fossil_collect(store, model.as_ref(), gvt);
            stats.commit_digest ^= before ^ lp.commit_digest;
            listed[at as usize] = lp.history_len() > 0;
            listed[at as usize]
        });
        stats.committed += n;
        stats.coasted += std::mem::take(&mut store.coasted);
        n
    }

    /// This engine's contribution to a GVT-aligned checkpoint. **Must run
    /// right after `fossil_collect(gvt)`** so every LP's committed frontier
    /// sits exactly at the cut.
    ///
    /// Returns the committed snapshot of every owned LP plus all events
    /// crossing the cut (`send_time < gvt ≤ recv_time`): their senders are
    /// committed and will never re-send them. Events with `send_time ≥ gvt`
    /// are deliberately *excluded* — the restored run re-executes their
    /// senders and deterministically re-sends them with identical UIDs.
    ///
    /// Cut-crossing events are **copied**, not pooled or moved, and that is
    /// load-bearing: the checkpoint escapes the engine (serialized to disk /
    /// shipped to the assembler on another thread) while the live run keeps
    /// executing — the originals stay in the pending set to be processed and
    /// in the processed lists to back future rollbacks. A moved event would
    /// have to be re-inserted on the hot path after assembly, re-introducing
    /// per-event bookkeeping on every commit to pay for the rare checkpoint.
    /// `copies_cut_events_and_leaves_engine_untouched` pins this down. The
    /// copies are sorted by key: the pending set iterates its slab, in slot
    /// order rather than key order, and a checkpoint's byte stream must be
    /// deterministic for digest comparison and replay.
    pub fn snapshot_at_gvt(&self, gvt: VirtualTime) -> CutSnapshot<M::State, M::Payload> {
        let mut lps = Vec::with_capacity(self.lps.len());
        let mut events = Vec::new();
        for lp in &self.lps {
            debug_assert!(
                lp.history(&self.store)
                    .next()
                    .is_none_or(|e| e.key.recv_time >= gvt),
                "snapshot_at_gvt requires fossil_collect({gvt}) first"
            );
            let snap = lp.committed_snapshot(&self.store);
            lps.push(LpCheckpoint {
                lp: lp.id,
                state: snap.state,
                rng: snap.rng,
                send_seq: snap.send_seq,
                committed: lp.committed,
                commit_digest: lp.commit_digest,
                lvt: lp.committed_lvt,
            });
            // Uncommitted-but-processed events whose senders are committed:
            // the restored run cannot regenerate them.
            for ev in lp.history(&self.store) {
                if ev.send_time < gvt {
                    events.push(ev.clone());
                }
            }
        }
        for ev in self.pending.iter() {
            if ev.send_time < gvt {
                events.push(ev.clone());
            }
        }
        events.sort_unstable_by_key(|e| e.key);
        (lps, events)
    }

    /// Reset this engine to a checkpointed cut at `gvt`: every owned LP is
    /// restored from its [`LpCheckpoint`] and the pending set is re-seeded
    /// with the cut-crossing events owned by this thread (`events` may hold
    /// the whole checkpoint's list — others are skipped). The engine's map
    /// decides ownership, so a recovery can restore under a *different*
    /// (rebalanced) map than the one the checkpoint was taken with.
    ///
    /// Commit counters and digests continue from the cut, so a recovered
    /// run's totals line up with an uninterrupted one.
    pub fn restore(
        &mut self,
        lps: &[LpCheckpoint<M::State>],
        events: &[Event<M::Payload>],
        gvt: VirtualTime,
    ) {
        for lck in lps {
            if self.map.thread_of(lck.lp) != self.tid {
                continue;
            }
            let at = self.local(lck.lp);
            self.lps[at].restore_from(
                &mut self.store,
                Snapshot {
                    state: lck.state.clone(),
                    rng: lck.rng.clone(),
                    send_seq: lck.send_seq,
                },
                lck.committed,
                lck.commit_digest,
                lck.lvt,
            );
        }
        self.pending = PendingSet::new();
        for ev in events {
            if self.map.thread_of(ev.dst()) != self.tid {
                continue;
            }
            let r = self.pending.insert(ev.clone());
            debug_assert_eq!(r, InsertOutcome::Inserted);
        }
        self.gvt_hint = gvt.min(self.end_time);
        self.stats = ThreadStats::default();
        self.stats.committed = self.lps.iter().map(|lp| lp.committed).sum();
        self.stats.commit_digest = self.lps.iter().fold(0, |d, lp| d ^ lp.commit_digest);
        self.with_history.clear();
        for (at, lp) in self.lps.iter().enumerate() {
            self.listed[at] = lp.history_len() > 0;
            if self.listed[at] {
                self.with_history.push(at as u32);
            }
        }
    }

    /// Annihilate every *uncommitted* input that originated at one of
    /// `dead_lps` (sorted ascending) with `send_time ≥ since_send` and
    /// `recv_time ≥ floor_recv` — the events a partially recovered peer will
    /// deterministically regenerate and re-send from its restored cut, which
    /// would otherwise arrive as duplicates. Pending twins are removed;
    /// processed ones trigger ordinary rollbacks whose cascade antis land in
    /// `outbox`. Returns how many dead-origin events were purged.
    ///
    /// `since_send` is the cut's GVT (older sends are committed at the dead
    /// peer and never re-sent); `floor_recv` is this shard's current GVT
    /// (older receives are committed here, and the regenerated duplicates
    /// are dropped at the link instead).
    pub fn purge_inputs_from(
        &mut self,
        dead_lps: &[LpId],
        since_send: VirtualTime,
        floor_recv: VirtualTime,
        outbox: &mut Vec<Outbound<M::Payload>>,
    ) -> u64 {
        debug_assert!(dead_lps.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        let doomed = |src: LpId, send: VirtualTime, recv: VirtualTime| {
            dead_lps.binary_search(&src).is_ok() && send >= since_send && recv >= floor_recv
        };
        let mut keys: Vec<EventKey> = Vec::new();
        for ev in self.pending.iter() {
            if doomed(ev.key.uid.src, ev.send_time, ev.key.recv_time) {
                keys.push(ev.key);
            }
        }
        for lp in &self.lps {
            for ev in lp.history(&self.store) {
                if doomed(ev.key.uid.src, ev.send_time, ev.key.recv_time) {
                    keys.push(ev.key);
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let purged = keys.len() as u64;
        for key in keys {
            // A later rollback may already have moved the twin back into
            // pending (or annihilated it); `deliver` handles every case.
            self.deliver(Msg::Anti(key), outbox);
        }
        purged
    }

    /// Digest of every owned LP's final state, in LP order.
    pub fn state_digests(&self) -> Vec<(LpId, u64)> {
        self.lps
            .iter()
            .map(|lp| (lp.id, lp.state_digest(self.model.as_ref())))
            .collect()
    }

    /// Unprocessed-event digest — used by tests to confirm two executions
    /// left the same events unprocessed past the end time.
    pub fn pending_digest(&self) -> u64 {
        self.pending.iter().fold(0, |d, e| d ^ key_digest(&e.key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::model::SendCtx;

    /// Total uncommitted history length across LPs.
    fn history_len<M: Model>(eng: &ThreadEngine<M>) -> usize {
        eng.lps.iter().map(|lp| lp.history_len()).sum()
    }

    /// Ping model: LP i forwards each event to (i+1) % n after delay 1, and
    /// accumulates the hop count in its state.
    struct Ping {
        n: usize,
    }
    impl Model for Ping {
        type State = u64;
        type Payload = u64;
        fn num_lps(&self) -> usize {
            self.n
        }
        fn init_state(&self, _lp: LpId) -> u64 {
            0
        }
        fn init_events(&self, lp: LpId, _s: &mut u64, ctx: &mut SendCtx<'_, u64>) {
            if lp == LpId(0) {
                ctx.send(LpId(0), 1.0, 0);
            }
        }
        fn handle_event(&self, lp: LpId, s: &mut u64, p: &u64, ctx: &mut SendCtx<'_, u64>) {
            *s += p + 1;
            let next = LpId((lp.0 + 1) % self.n as u32);
            ctx.send(next, 1.0, p + 1);
        }
        fn state_digest(&self, s: &u64) -> u64 {
            *s
        }
    }

    fn cfg(end: f64) -> EngineConfig {
        EngineConfig::default().with_end_time(end)
    }

    fn single_thread_run(n_lps: usize, end: f64) -> ThreadEngine<Ping> {
        let model = Arc::new(Ping { n: n_lps });
        let map = LpMap::new(n_lps, 1, crate::mapping::MapKind::RoundRobin);
        let c = cfg(end);
        let mut eng = ThreadEngine::new(model, map, SimThreadId(0), &c);
        let mut outbox = Vec::new();
        for (_, msg) in eng.take_init_events() {
            eng.deliver(msg, &mut outbox);
        }
        assert!(outbox.is_empty());
        loop {
            let b = eng.process_batch(8, &mut outbox);
            assert!(outbox.is_empty(), "single-thread run has no remote sends");
            if b.processed == 0 {
                break;
            }
        }
        eng.finalize();
        eng
    }

    #[test]
    fn single_thread_ping_processes_expected_events() {
        let eng = single_thread_run(4, 10.0);
        // One event per integer time 1..10: the run covers [0, end).
        assert_eq!(eng.stats().processed, 9);
        assert_eq!(eng.stats().committed, 9);
        assert_eq!(eng.stats().rolled_back, 0);
        // The event stamped exactly at the end time stays pending.
        assert_eq!(eng.pending_len(), 1);
        assert_eq!(eng.local_min(), VirtualTime::from_f64(10.0));
        assert!(!eng.has_live_pending());
    }

    #[test]
    fn deliver_straggler_rolls_back_and_emits_antis() {
        // Two threads: LPs 0,2 on T0 and 1,3 on T1 (round robin).
        let model = Arc::new(Ping { n: 4 });
        let map = LpMap::new(4, 2, crate::mapping::MapKind::RoundRobin);
        let c = cfg(100.0);
        let mut t0 = ThreadEngine::new(Arc::clone(&model), map, SimThreadId(0), &c);
        let mut outbox = Vec::new();

        // Feed LP0 an event at t=5 and let it process (sends to LP1 on T1).
        let mut seq = 1000u64;
        let mut mk = |t: f64, dst: u32| {
            seq += 1;
            Msg::Event(Event {
                key: EventKey {
                    recv_time: VirtualTime::from_f64(t),
                    dst: LpId(dst),
                    uid: crate::ids::EventUid::new(LpId(99), seq),
                },
                send_time: VirtualTime::ZERO,
                payload: 1,
            })
        };
        t0.deliver(mk(5.0, 0), &mut outbox);
        t0.process_batch(8, &mut outbox);
        assert_eq!(outbox.len(), 1, "LP0 sent to LP1 (remote)");
        outbox.clear();

        // Straggler at t=2 for LP0 → rollback of the t=5 execution, one anti.
        let d = t0.deliver(mk(2.0, 0), &mut outbox);
        assert_eq!(d.rolled_back, 1);
        assert_eq!(d.antis, 1);
        assert_eq!(outbox.len(), 1);
        assert!(matches!(outbox[0].1, Msg::Anti(_)));
        assert_eq!(t0.stats().stragglers, 1);
        // Both events (t=2 straggler and re-inserted t=5) now pending.
        assert_eq!(t0.pending_len(), 2);
    }

    /// A rollback restores the LP's send counter, so the re-execution
    /// re-issues sequence numbers already spent: one `EventUid` can name
    /// two different events of one run, told apart only by the rest of the
    /// key.
    #[test]
    fn a_rollback_reissues_a_spent_uid_under_a_different_key() {
        // LP 0 on T0, LP 1 on T1: every send of LP 0 is remote.
        let model = Arc::new(Ping { n: 2 });
        let map = LpMap::new(2, 2, crate::mapping::MapKind::RoundRobin);
        let mut t0 = ThreadEngine::new(model, map, SimThreadId(0), &cfg(100.0));
        let mut outbox = Vec::new();
        let ev = |t: f64, seq: u64| {
            Msg::Event(Event {
                key: EventKey {
                    recv_time: VirtualTime::from_f64(t),
                    dst: LpId(0),
                    uid: crate::ids::EventUid::new(LpId(99), seq),
                },
                send_time: VirtualTime::ZERO,
                payload: 0,
            })
        };
        // E@5 sends (6, LP 1, (LP 0, 0)).
        t0.deliver(ev(5.0, 1), &mut outbox);
        t0.process_batch(8, &mut outbox);
        let sent = outbox.pop().expect("E's send").1.key();
        assert_eq!(sent.uid, crate::ids::EventUid::new(LpId(0), 0));
        // The straggler S@3 undoes E and cancels its send...
        t0.deliver(ev(3.0, 2), &mut outbox);
        let Some((_, Msg::Anti(anti))) = outbox.pop() else {
            panic!("the rollback's anti-message");
        };
        assert_eq!(anti, sent);
        // ...and S's own send, processed next, reuses the cancelled uid.
        t0.process_batch(1, &mut outbox);
        let fresh = outbox.pop().expect("S's send").1.key();
        assert_eq!(fresh.uid, anti.uid);
        assert_ne!(fresh, anti);
        assert_eq!(fresh.recv_time, VirtualTime::from_f64(4.0));
    }

    #[test]
    fn anti_for_processed_event_causes_inclusive_rollback() {
        let model = Arc::new(Ping { n: 2 });
        let map = LpMap::new(2, 2, crate::mapping::MapKind::RoundRobin);
        let c = cfg(100.0);
        let mut t0 = ThreadEngine::new(Arc::clone(&model), map, SimThreadId(0), &c);
        let mut outbox = Vec::new();

        let ev = Event {
            key: EventKey {
                recv_time: VirtualTime::from_f64(3.0),
                dst: LpId(0),
                uid: crate::ids::EventUid::new(LpId(1), 7),
            },
            send_time: VirtualTime::ZERO,
            payload: 1,
        };
        t0.deliver(Msg::Event(ev.clone()), &mut outbox);
        t0.process_batch(8, &mut outbox);
        assert_eq!(t0.stats().processed, 1);
        outbox.clear();

        let d = t0.deliver(Msg::Anti(ev.key), &mut outbox);
        assert_eq!(d.rolled_back, 1);
        assert!(d.annihilated);
        // The rolled-back event was annihilated, not re-inserted.
        assert_eq!(t0.pending_len(), 0);
        // The anti for LP0→LP1's send goes out.
        assert_eq!(outbox.len(), 1);
        // The rollback consumed the anti; none was parked, so the same key
        // delivered again is pending, not annihilated.
        let d = t0.deliver(Msg::Event(ev), &mut outbox);
        assert!(!d.annihilated);
        assert_eq!(t0.pending_len(), 1);
    }

    #[test]
    fn anti_for_in_transit_event_parks_and_annihilates() {
        let model = Arc::new(Ping { n: 2 });
        let map = LpMap::new(2, 2, crate::mapping::MapKind::RoundRobin);
        let c = cfg(100.0);
        let mut t0 = ThreadEngine::new(model, map, SimThreadId(0), &c);
        let mut outbox = Vec::new();
        let ev = Event {
            key: EventKey {
                recv_time: VirtualTime::from_f64(3.0),
                dst: LpId(0),
                uid: crate::ids::EventUid::new(LpId(1), 7),
            },
            send_time: VirtualTime::ZERO,
            payload: 1,
        };
        let d = t0.deliver(Msg::Anti(ev.key), &mut outbox);
        assert!(!d.annihilated);
        let d = t0.deliver(Msg::Event(ev), &mut outbox);
        assert!(d.annihilated);
        assert_eq!(t0.pending_len(), 0);
        assert_eq!(t0.stats().annihilations, 1);
    }

    #[test]
    fn fossil_collect_then_finalize_commits_everything_once() {
        let model = Arc::new(Ping { n: 2 });
        let map = LpMap::new(2, 1, crate::mapping::MapKind::RoundRobin);
        let c = cfg(10.0);
        let mut eng = ThreadEngine::new(model, map, SimThreadId(0), &c);
        let mut outbox = Vec::new();
        for (_, msg) in eng.take_init_events() {
            eng.deliver(msg, &mut outbox);
        }
        loop {
            if eng.process_batch(8, &mut outbox).processed == 0 {
                break;
            }
        }
        let early = eng.fossil_collect(VirtualTime::from_f64(5.0));
        assert!(early > 0);
        let rest = eng.finalize();
        assert_eq!(early + rest, eng.stats().committed);
        assert_eq!(eng.stats().committed, eng.stats().processed);
        assert_eq!(history_len(&eng), 0);
    }

    #[test]
    fn snapshot_restore_resumes_identical_run() {
        let model = Arc::new(Ping { n: 4 });
        let map = LpMap::new(4, 1, crate::mapping::MapKind::RoundRobin);
        let c = cfg(10.0);

        // Uninterrupted reference run.
        let reference = single_thread_run(4, 10.0);

        // Interrupted run: process a few batches, checkpoint at GVT = the
        // pending minimum, then throw the engine away.
        let mut eng = ThreadEngine::new(Arc::clone(&model), map.clone(), SimThreadId(0), &c);
        let mut outbox = Vec::new();
        for (_, msg) in eng.take_init_events() {
            eng.deliver(msg, &mut outbox);
        }
        for _ in 0..2 {
            eng.process_batch(2, &mut outbox);
        }
        let gvt = eng.local_min();
        assert!(gvt > VirtualTime::ZERO && gvt < VirtualTime::from_f64(10.0));
        eng.fossil_collect(gvt);
        let (lcks, events) = eng.snapshot_at_gvt(gvt);
        assert_eq!(lcks.len(), 4);
        drop(eng);

        // A fresh engine restored from the checkpoint finishes the run and
        // matches the reference bit-for-bit.
        let mut eng = ThreadEngine::new(model, map, SimThreadId(0), &c);
        eng.restore(&lcks, &events, gvt);
        assert_eq!(
            eng.stats().committed,
            lcks.iter().map(|l| l.committed).sum::<u64>()
        );
        loop {
            if eng.process_batch(8, &mut outbox).processed == 0 {
                break;
            }
        }
        assert!(outbox.is_empty());
        eng.finalize();
        assert_eq!(eng.stats().committed, reference.stats().committed);
        assert_eq!(eng.stats().commit_digest, reference.stats().commit_digest);
        assert_eq!(eng.state_digests(), reference.state_digests());
        assert_eq!(eng.pending_digest(), reference.pending_digest());
    }

    #[test]
    fn copies_cut_events_and_leaves_engine_untouched() {
        // Checkpoint assembly must deep-copy cut-crossing events: the live
        // engine keeps running with the originals (pending events get
        // processed, processed entries back rollbacks), so the cut cannot
        // steal them — and the copies must come out key-sorted even though
        // the pending set iterates unordered.
        let model = Arc::new(Ping { n: 4 });
        let map = LpMap::new(4, 1, crate::mapping::MapKind::RoundRobin);
        let c = cfg(10.0);
        let mut eng = ThreadEngine::new(Arc::clone(&model), map, SimThreadId(0), &c);
        let mut outbox = Vec::new();
        for (_, msg) in eng.take_init_events() {
            eng.deliver(msg, &mut outbox);
        }
        for _ in 0..2 {
            eng.process_batch(2, &mut outbox);
        }
        let gvt = eng.local_min();
        eng.fossil_collect(gvt);
        let before_pending = eng.pending_len();
        let before_history = history_len(&eng);
        let before_digest = eng.pending_digest();

        let (_, events) = eng.snapshot_at_gvt(gvt);
        assert!(
            events.windows(2).all(|w| w[0].key < w[1].key),
            "cut events must be key-sorted for a deterministic byte stream"
        );

        // The cut took copies: nothing moved out of the engine...
        assert_eq!(eng.pending_len(), before_pending);
        assert_eq!(history_len(&eng), before_history);
        assert_eq!(eng.pending_digest(), before_digest);

        // ...and the live run continues to completion as if no checkpoint
        // had been taken.
        let reference = single_thread_run(4, 10.0);
        loop {
            if eng.process_batch(8, &mut outbox).processed == 0 {
                break;
            }
        }
        eng.finalize();
        assert_eq!(eng.stats().commit_digest, reference.stats().commit_digest);
        assert_eq!(eng.state_digests(), reference.state_digests());
    }

    /// Self-loop model: the LPs in `active` each keep one event going to
    /// themselves; every other LP never sees one.
    struct Loops {
        n: usize,
        active: Vec<u32>,
    }
    impl Model for Loops {
        type State = u64;
        type Payload = ();
        fn num_lps(&self) -> usize {
            self.n
        }
        fn init_state(&self, _lp: LpId) -> u64 {
            0
        }
        fn init_events(&self, lp: LpId, _s: &mut u64, ctx: &mut SendCtx<'_, ()>) {
            if self.active.contains(&lp.0) {
                ctx.send(lp, 1.0, ());
            }
        }
        fn handle_event(&self, lp: LpId, s: &mut u64, _p: &(), ctx: &mut SendCtx<'_, ()>) {
            *s += 1;
            ctx.send(lp, 1.0, ());
        }
        fn state_digest(&self, s: &u64) -> u64 {
            *s
        }
    }

    #[test]
    fn sweep_visits_only_lps_with_history() {
        let model = Arc::new(Loops {
            n: 512,
            active: vec![0, 100, 511],
        });
        let map = LpMap::new(512, 1, crate::mapping::MapKind::RoundRobin);
        let mut eng = ThreadEngine::new(model, map, SimThreadId(0), &cfg(50.0));
        let mut outbox = Vec::new();
        for (_, msg) in eng.take_init_events() {
            eng.deliver(msg, &mut outbox);
        }
        assert_eq!(eng.with_history.len(), 0, "nothing processed yet");
        for round in 1..=4u32 {
            // Two events per active LP, at t = 2·round − 1 and 2·round.
            eng.process_batch(6, &mut outbox);
            assert_eq!(
                eng.with_history.len(),
                3,
                "round {round}: 3 of 512 LPs swept"
            );
            // A cut that commits part of each history keeps all three listed.
            assert!(eng.fossil_collect(VirtualTime::from_f64(2.0 * f64::from(round))) >= 3);
            assert_eq!(eng.with_history.len(), 3);
        }
        // A sweep that leaves an LP no history stops listing it...
        assert_eq!(eng.finalize(), 3);
        assert_eq!(eng.with_history.len(), 0);
        assert_eq!(eng.stats().committed, eng.stats().processed);
        // ...until it processes again.
        eng.process_batch(1, &mut outbox);
        assert_eq!(eng.with_history.len(), 1);
    }

    #[test]
    fn commit_stats_track_the_lps_through_rollback_sweep_and_restore() {
        let model = Arc::new(Ping { n: 6 });
        let map = LpMap::new(6, 1, crate::mapping::MapKind::RoundRobin);
        let mut eng = ThreadEngine::new(model, map, SimThreadId(0), &cfg(1e6));
        let mut outbox = Vec::new();
        for (_, msg) in eng.take_init_events() {
            eng.deliver(msg, &mut outbox);
        }
        let mut rng = crate::rng::DetRng::seed_from_u64(24);
        let mut gvt = VirtualTime::ZERO;
        let (mut rollbacks, mut emptied, mut restores) = (0, 0, 0);
        for step in 0..400u64 {
            match rng.next_below(4) {
                // A straggler at the committed horizon: undoes everything
                // its LP still holds, and the cascade more.
                0 => {
                    let dst = LpId(rng.next_below(6) as u32);
                    let at = eng.local(dst);
                    let held = eng.lps[at].history_len();
                    let d = eng.deliver(
                        Msg::Event(Event {
                            key: EventKey {
                                recv_time: gvt,
                                dst,
                                uid: crate::ids::EventUid::new(LpId(99), step),
                            },
                            send_time: gvt,
                            payload: 0,
                        }),
                        &mut outbox,
                    );
                    rollbacks += u64::from(d.rolled_back > 0);
                    emptied += u64::from(held > 0 && eng.lps[at].history_len() == 0);
                }
                1 => {
                    let span = eng.local_min().ticks() - gvt.ticks();
                    gvt = VirtualTime::from_ticks(gvt.ticks() + rng.next_below(span + 1));
                    eng.fossil_collect(gvt);
                    if rng.next_below(4) == 0 {
                        let (lcks, events) = eng.snapshot_at_gvt(gvt);
                        eng.restore(&lcks, &events, gvt);
                        restores += 1;
                    }
                }
                _ => {
                    eng.process_batch(1 + rng.next_below(8) as usize, &mut outbox);
                }
            }
            assert!(outbox.is_empty(), "one thread owns every LP");
            let lps = &eng.lps;
            assert_eq!(
                eng.stats().commit_digest,
                lps.iter().fold(0, |d, lp| d ^ lp.commit_digest),
                "step {step}"
            );
            assert_eq!(
                eng.stats().committed,
                lps.iter().map(|lp| lp.committed).sum::<u64>(),
                "step {step}"
            );
            // Every LP with history is listed, and listed once.
            let mut swept = eng.with_history.clone();
            swept.sort_unstable();
            let flagged: Vec<u32> = (0..6).filter(|&at| eng.listed[at as usize]).collect();
            assert_eq!(swept, flagged, "step {step}");
            assert!(lps
                .iter()
                .zip(&eng.listed)
                .all(|(lp, &listed)| listed || lp.history_len() == 0));
        }
        assert!(rollbacks > 20 && emptied > 5 && restores > 5);
        assert!(eng.stats().committed > 100);
    }

    /// LP 0 folds an RNG draw into its state and sends to LP 1, which
    /// another thread owns: every send and anti leaves through the outbox.
    struct Draw;
    impl Model for Draw {
        type State = u64;
        type Payload = u64;
        fn num_lps(&self) -> usize {
            2
        }
        fn init_state(&self, _lp: LpId) -> u64 {
            1
        }
        fn init_events(&self, _lp: LpId, _s: &mut u64, _ctx: &mut SendCtx<'_, u64>) {}
        fn handle_event(&self, _lp: LpId, s: &mut u64, p: &u64, ctx: &mut SendCtx<'_, u64>) {
            *s = s
                .wrapping_mul(31)
                .wrapping_add(*p ^ ctx.rng().next_below(1 << 16));
            let d = 0.5 + ctx.rng().next_f64();
            ctx.send(LpId(1), d, *p);
        }
        fn state_digest(&self, s: &u64) -> u64 {
            *s
        }
    }

    /// What [`stale_schedule`] observed.
    type StaleRun = (
        CutSnapshot<u64, u64>,
        Vec<(LpId, u64)>,
        (u64, u64, u64),
        Vec<Outbound<u64>>,
    );

    /// Back-to-back stragglers and antis on LP 0, a fossil collection, a
    /// cut, a restore from it and a finalize, under snapshot period
    /// `period`; asserts LP 0 is stale at each step iff `period > 1`.
    fn stale_schedule(period: u32) -> StaleRun {
        let map = LpMap::new(2, 2, crate::mapping::MapKind::RoundRobin);
        let c = cfg(100.0).with_snapshot_period(period);
        let mut eng = ThreadEngine::new(Arc::new(Draw), map, SimThreadId(0), &c);
        let stale = |eng: &ThreadEngine<Draw>| eng.lps[0].is_stale();
        let mut outbox = Vec::new();
        let ev = |t: f64, seq: u64| Event {
            key: EventKey {
                recv_time: VirtualTime::from_f64(t),
                dst: LpId(0),
                uid: crate::ids::EventUid::new(LpId(99), seq),
            },
            send_time: VirtualTime::ZERO,
            payload: seq,
        };
        let run = |eng: &mut ThreadEngine<Draw>, outbox: &mut Vec<_>| {
            while eng.process_batch(8, outbox).processed > 0 {}
        };
        // Ten entries at t = 1..=10; a period of 4 snapshots t = 1, 5, 9.
        for i in 1..=10 {
            eng.deliver(Msg::Event(ev(i as f64, i)), &mut outbox);
        }
        run(&mut eng, &mut outbox);
        let stale_at = |eng: &ThreadEngine<Draw>, what: &str| {
            assert_eq!(stale(eng), period > 1, "{what} at period {period}");
        };
        // A straggler undoes t = 7..=10, whose first entry has no snapshot;
        // an anti undoes t = 6; another straggler lands past the tail.
        let d = eng.deliver(Msg::Event(ev(6.5, 20)), &mut outbox);
        assert_eq!(d.rolled_back, 4);
        stale_at(&eng, "straggler");
        let d = eng.deliver(Msg::Anti(ev(6.0, 6).key), &mut outbox);
        assert_eq!((d.rolled_back, d.annihilated), (1, true));
        stale_at(&eng, "anti");
        eng.deliver(Msg::Event(ev(5.5, 21)), &mut outbox);
        // The cut lands mid-gap: t = 1..=3 commit, t = 4 and 5 remain.
        assert_eq!(eng.fossil_collect(VirtualTime::from_f64(3.5)), 3);
        stale_at(&eng, "fossil collection");
        let cut = eng.snapshot_at_gvt(VirtualTime::from_f64(3.5));
        stale_at(&eng, "cut");
        eng.restore(&cut.0, &cut.1, VirtualTime::from_f64(3.5));
        assert!(!stale(&eng), "a restore leaves nothing stale");
        // Everything again from the cut, then an anti for t = 8, which has
        // no snapshot under either period's pattern from the restore on.
        run(&mut eng, &mut outbox);
        let d = eng.deliver(Msg::Anti(ev(8.0, 8).key), &mut outbox);
        assert_eq!((d.rolled_back, d.annihilated), (3, true));
        stale_at(&eng, "anti after the restore");
        eng.finalize();
        assert!(!stale(&eng), "finalize commits everything");
        let s = eng.stats();
        assert_eq!(s.coasted > 0, period > 1, "coasted {}", s.coasted);
        let counts = (s.committed, s.commit_digest, eng.pending_digest());
        (cut, eng.state_digests(), counts, outbox)
    }

    /// A stale LP goes through fossil collection, a cut, a restore and a
    /// finalize exactly as one that was rebuilt at once: snapshot period 1
    /// never leaves one stale.
    #[test]
    fn a_stale_lp_cuts_restores_and_finalizes_like_a_dense_one() {
        let dense = stale_schedule(1);
        for period in [4, 8] {
            assert_eq!(stale_schedule(period), dense, "period {period}");
        }
    }

    #[test]
    fn batch_respects_end_time() {
        let model = Arc::new(Ping { n: 2 });
        let map = LpMap::new(2, 1, crate::mapping::MapKind::RoundRobin);
        let c = cfg(0.5); // end before the first event at t=1
        let mut eng = ThreadEngine::new(model, map, SimThreadId(0), &c);
        let mut outbox = Vec::new();
        for (_, msg) in eng.take_init_events() {
            eng.deliver(msg, &mut outbox);
        }
        let b = eng.process_batch(8, &mut outbox);
        assert_eq!(b.processed, 0);
        assert_eq!(eng.pending_len(), 1);
    }
}

#[cfg(test)]
mod window_tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::mapping::MapKind;
    use crate::model::SendCtx;

    /// Chain model: one event at t sends the next at t+1 on the same LP.
    struct Chain;
    impl Model for Chain {
        type State = u64;
        type Payload = ();
        fn num_lps(&self) -> usize {
            1
        }
        fn init_state(&self, _lp: LpId) -> u64 {
            0
        }
        fn init_events(&self, lp: LpId, _s: &mut u64, ctx: &mut SendCtx<'_, ()>) {
            ctx.send(lp, 1.0, ());
        }
        fn handle_event(&self, lp: LpId, s: &mut u64, _p: &(), ctx: &mut SendCtx<'_, ()>) {
            *s += 1;
            ctx.send(lp, 1.0, ());
        }
        fn state_digest(&self, s: &u64) -> u64 {
            *s
        }
    }

    fn engine(window: Option<f64>) -> ThreadEngine<Chain> {
        let cfg = EngineConfig::default()
            .with_end_time(100.0)
            .with_optimism_window(window);
        let map = LpMap::new(1, 1, MapKind::RoundRobin);
        let mut eng = ThreadEngine::new(Arc::new(Chain), map, SimThreadId(0), &cfg);
        let mut outbox = Vec::new();
        for (_, msg) in eng.take_init_events() {
            eng.deliver(msg, &mut outbox);
        }
        eng
    }

    #[test]
    fn unbounded_engine_races_ahead() {
        let mut eng = engine(None);
        let mut outbox = Vec::new();
        for _ in 0..10 {
            eng.process_batch(8, &mut outbox);
        }
        assert_eq!(eng.stats().processed, 80, "no throttle: full batches");
    }

    #[test]
    fn window_throttles_past_gvt() {
        // Window of 3 time units, GVT at 0: only events at t ≤ 3 process.
        let mut eng = engine(Some(3.0));
        let mut outbox = Vec::new();
        for _ in 0..10 {
            eng.process_batch(8, &mut outbox);
        }
        assert_eq!(eng.stats().processed, 3, "t = 1, 2, 3 only");
        // GVT advances → the horizon moves.
        eng.fossil_collect(VirtualTime::from_f64(4.0));
        for _ in 0..10 {
            eng.process_batch(8, &mut outbox);
        }
        assert_eq!(eng.stats().processed, 7, "now up to t = 4 + 3");
    }

    #[test]
    fn window_never_blocks_the_gvt_frontier() {
        // Even with an absurdly small window the event *at* the horizon is
        // processable, so progress is guaranteed.
        let mut eng = engine(Some(1.0));
        let mut outbox = Vec::new();
        for round in 1..20u64 {
            eng.process_batch(8, &mut outbox);
            eng.fossil_collect(eng.local_min());
            assert!(
                eng.stats().processed >= round.min(19),
                "round {round}: {}",
                eng.stats().processed
            );
        }
    }
}
