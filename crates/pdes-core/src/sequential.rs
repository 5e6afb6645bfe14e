//! Sequential reference engine — the correctness oracle.
//!
//! Processes every event in global key order with no speculation. Because
//! models are deterministic and the event order is total, *any* correct Time
//! Warp execution must commit exactly the same set of events and leave every
//! LP in the same final state. Integration tests compare the digests
//! produced here with those of `sim-rt` and `thread-rt` runs.
//!
//! The oracle runs the model directly: per LP it keeps the state, the RNG
//! stream and the send counter (a [`Snapshot`]) and calls `handle_event`
//! through a [`SendCtx`], nothing else. It never rolls back, so it takes no
//! snapshots, keeps no history and commits as it goes; it shares only the
//! [`EventQueue`] and [`SendCtx`] with the engines, which keeps it an
//! independent check of their state saving rather than a second user of it.

use crate::checkpoint::Checkpoint;
use crate::config::EngineConfig;
use crate::event::{Event, EventKey};
use crate::ids::LpId;
use crate::lp::{key_digest, Snapshot};
use crate::model::{Model, SendCtx};
use crate::pending::EventQueue;
use crate::rng::DetRng;
use crate::time::VirtualTime;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Outcome of a sequential run: everything needed to validate a parallel run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SequentialResult {
    /// Total events processed (== committed: nothing is ever rolled back).
    pub committed: u64,
    /// XOR-fold of committed event-key digests.
    pub commit_digest: u64,
    /// Final state digest per LP, in LP order.
    pub state_digests: Vec<u64>,
    /// XOR-fold of keys of events left unprocessed at or past the end time.
    pub pending_digest: u64,
    /// Receive time of the last committed event.
    pub final_lvt: VirtualTime,
}

/// Run `model` sequentially over `[0, cfg.end_time)`.
///
/// `max_events` caps the run as a safety valve against models that generate
/// unbounded zero-delay cascades; `None` means no cap.
pub fn run_sequential<M: Model>(
    model: &Arc<M>,
    cfg: &EngineConfig,
    max_events: Option<u64>,
) -> SequentialResult {
    run_sequential_with(model, cfg, None, &[], max_events)
}

/// [`run_sequential`], resumed from the GVT-aligned cut `from` when one is
/// given, with `extra` events merged into the pending set.
///
/// - Resuming is the graceful degradation path: when supervised parallel
///   recovery is exhausted, the run still completes from the last
///   consistent cut with no speculation at all. The committed totals
///   continue from the cut, so the result equals an uninterrupted run's.
/// - `extra` makes it the oracle for runs that accepted external events
///   through the ingest plane: feed it the gate's accepted events (exact
///   uids and stamps; from a cut, those with `send_time ≥` its GVT, since
///   older ones are inside it) and the merged-stream execution must match
///   the live run's digests.
pub fn run_sequential_with<M: Model>(
    model: &Arc<M>,
    cfg: &EngineConfig,
    from: Option<&Checkpoint<M::State, M::Payload>>,
    extra: &[Event<M::Payload>],
    max_events: Option<u64>,
) -> SequentialResult {
    let num_lps = model.num_lps();
    // The oracle never cancels (nothing is rolled back), so it drains the
    // engines' queue without their per-LP chains.
    let mut pending = EventQueue::new();
    // Each LP's state, RNG and send counter, and the committed position the
    // run starts from: events committed, their digest and the receive time
    // of the last one.
    let (mut lps, (mut committed, mut commit_digest, mut final_lvt)) = match from {
        None => {
            // Each LP's initial events, in LP order, sent at time zero.
            let mut sends = Vec::new();
            let lps: Vec<_> = (0..num_lps)
                .map(|i| {
                    let id = LpId(i as u32);
                    let mut lp = Snapshot {
                        state: model.init_state(id),
                        rng: DetRng::for_lp(cfg.seed, id),
                        send_seq: 0,
                    };
                    let mut ctx = SendCtx::new(
                        id,
                        VirtualTime::ZERO,
                        &mut lp.rng,
                        &mut lp.send_seq,
                        &mut sends,
                    );
                    model.init_events(id, &mut lp.state, &mut ctx);
                    lp
                })
                .collect();
            for ev in sends {
                pending.push(ev);
            }
            (lps, (0, 0, VirtualTime::ZERO))
        }
        Some(ckpt) => {
            assert!(
                ckpt.lps.len() == num_lps
                    && ckpt.lps.iter().enumerate().all(|(i, l)| l.lp.index() == i),
                "checkpoint must hold the model's {num_lps} LPs once each, in LP order"
            );
            let lps = ckpt
                .lps
                .iter()
                .map(|l| Snapshot {
                    state: l.state.clone(),
                    rng: l.rng.clone(),
                    send_seq: l.send_seq,
                })
                .collect();
            for ev in &ckpt.events {
                pending.push(ev.clone());
            }
            let lvt = ckpt
                .lps
                .iter()
                .map(|l| l.lvt)
                .max()
                .unwrap_or(VirtualTime::ZERO);
            (lps, (ckpt.total_committed(), ckpt.commit_digest(), lvt))
        }
    };
    for ev in extra {
        pending.push(ev.clone());
    }
    // One send buffer reused across the whole run: the loop below is
    // allocation-free per event after warmup (see tests/alloc_regression.rs).
    let mut sends = Vec::new();
    let mut last: Option<EventKey> = None;
    loop {
        if let Some(cap) = max_events {
            if committed >= cap {
                break;
            }
        }
        let Some(ev) = pending.peek() else {
            break;
        };
        let key = ev.key;
        if key.recv_time >= cfg.end_time {
            break;
        }
        debug_assert!(last < Some(key), "sequential run cannot regress");
        last = Some(key);
        // The hold: the handler runs on the event where it is queued, and
        // its first send takes the event's place in the queue.
        let lp = &mut lps[key.dst.index()];
        let mut ctx = SendCtx::new(
            key.dst,
            key.recv_time,
            &mut lp.rng,
            &mut lp.send_seq,
            &mut sends,
        );
        model.handle_event(key.dst, &mut lp.state, &ev.payload, &mut ctx);
        let mut sent = sends.drain(..);
        match sent.next() {
            Some(first) => pending.replace_min(first),
            None => drop(pending.pop()),
        }
        for rest in sent {
            pending.push(rest);
        }
        committed += 1;
        commit_digest ^= key_digest(&key);
        final_lvt = key.recv_time;
    }

    let pending_digest = pending.iter().fold(0, |d, e| d ^ key_digest(&e.key));
    SequentialResult {
        committed,
        commit_digest,
        state_digests: lps.iter().map(|lp| model.state_digest(&lp.state)).collect(),
        pending_digest,
        final_lvt,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Ring model: LP i forwards to (i+1) % n with delay drawn from its RNG.
    pub(crate) struct Ring {
        pub(crate) n: usize,
    }
    impl Model for Ring {
        type State = u64;
        type Payload = ();
        fn num_lps(&self) -> usize {
            self.n
        }
        fn init_state(&self, _lp: LpId) -> u64 {
            0
        }
        fn init_events(&self, lp: LpId, _s: &mut u64, ctx: &mut SendCtx<'_, ()>) {
            let d = 0.5 + ctx.rng().next_f64();
            ctx.send(lp, d, ());
        }
        fn handle_event(&self, lp: LpId, s: &mut u64, _p: &(), ctx: &mut SendCtx<'_, ()>) {
            *s += 1;
            let d = 0.5 + ctx.rng().next_f64();
            ctx.send(LpId((lp.0 + 1) % self.n as u32), d, ());
        }
        fn state_digest(&self, s: &u64) -> u64 {
            *s
        }
    }

    #[test]
    fn sequential_is_deterministic() {
        let model = Arc::new(Ring { n: 8 });
        let cfg = EngineConfig::default().with_end_time(50.0).with_seed(11);
        let a = run_sequential(&model, &cfg, None);
        let b = run_sequential(&model, &cfg, None);
        assert_eq!(a, b);
        assert!(a.committed > 0);
    }

    #[test]
    fn different_seed_changes_trace() {
        let model = Arc::new(Ring { n: 8 });
        let a = run_sequential(
            &model,
            &EngineConfig::default().with_end_time(50.0).with_seed(1),
            None,
        );
        let b = run_sequential(
            &model,
            &EngineConfig::default().with_end_time(50.0).with_seed(2),
            None,
        );
        assert_ne!(a.commit_digest, b.commit_digest);
    }

    #[test]
    fn event_count_matches_population_dynamics() {
        // Ring keeps exactly `n` events in flight (each LP seeds one and each
        // processed event sends exactly one).
        let model = Arc::new(Ring { n: 4 });
        let cfg = EngineConfig::default().with_end_time(100.0).with_seed(3);
        let r = run_sequential(&model, &cfg, None);
        // Mean delay = 1.0 → ~100 hops per chain, 4 chains.
        assert!(r.committed > 200, "committed {}", r.committed);
        assert!(r.committed < 800, "committed {}", r.committed);
        // Exactly n events remain pending past the end time.
        assert_ne!(r.pending_digest, 0);
    }

    #[test]
    fn max_events_caps_run() {
        let model = Arc::new(Ring { n: 4 });
        let cfg = EngineConfig::default().with_end_time(1e6);
        let r = run_sequential(&model, &cfg, Some(100));
        assert_eq!(r.committed, 100);
    }

    #[test]
    fn resume_from_checkpoint_matches_uninterrupted_run() {
        use crate::engine::ThreadEngine;
        use crate::ids::SimThreadId;
        use crate::mapping::{LpMap, MapKind};

        let model = Arc::new(Ring { n: 8 });
        let cfg = EngineConfig::default().with_end_time(50.0).with_seed(11);
        let full = run_sequential(&model, &cfg, None);

        // Build a mid-run checkpoint with a single-thread engine.
        let map = LpMap::new(8, 1, MapKind::RoundRobin);
        let mut eng = ThreadEngine::new(Arc::clone(&model), map.clone(), SimThreadId(0), &cfg);
        let mut outbox = Vec::new();
        for (_, msg) in eng.take_init_events() {
            eng.deliver(msg, &mut outbox);
        }
        for _ in 0..5 {
            eng.process_batch(16, &mut outbox);
        }
        let gvt = eng.local_min();
        assert!(gvt < cfg.end_time, "checkpoint must be mid-run");
        eng.fossil_collect(gvt);
        let (lps, events) = eng.snapshot_at_gvt(gvt);
        let ckpt = Checkpoint {
            gvt,
            gvt_rounds: 1,
            lps,
            events,
            map,
            cursor: None,
        };
        assert!(ckpt.total_committed() > 0, "cut must not be at genesis");

        let resumed = run_sequential_with(&model, &cfg, Some(&ckpt), &[], None);
        assert_eq!(resumed, full);
    }

    #[test]
    fn state_sum_equals_committed() {
        // Each processed event increments exactly one LP state by 1.
        let model = Arc::new(Ring { n: 4 });
        let cfg = EngineConfig::default().with_end_time(30.0);
        let r = run_sequential(&model, &cfg, None);
        let sum: u64 = r.state_digests.iter().sum();
        assert_eq!(sum, r.committed);
    }
}
