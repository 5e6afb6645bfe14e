//! Differential property test of the sequential oracle.
//!
//! The oracle (`pdes_core::sequential`) runs each handler directly on its
//! LP's state, RNG stream and send counter. The reference below is the loop
//! it replaced, which drove every event through Time Warp's state-saving
//! path: an `Lp` per LP, `process_into`, and a fossil collection whenever
//! an LP's history reached one snapshot period. Its pending events sit in a
//! `BTreeMap` keyed by `EventKey`, not in the oracle's
//! `pdes_core::pending::EventQueue`, so the comparison shares no queue code
//! with what it checks. Both must agree on every field of
//! `SequentialResult` for any LP count, seed, snapshot period, event cap,
//! merged `extra` events and resume point.
//!
//! The test model sends 0–2 events per handler call after whole-unit
//! delays, so receive times tie all the time and the `dst` / `uid`
//! tie-breaks of the key order decide which event runs first; the state
//! folds in every payload and RNG draw, so any reordering, lost draw or
//! reissued uid changes a digest.

use pdes_core::lp::{key_digest, Lp, Snapshot};
use pdes_core::mapping::{LpMap, MapKind};
use pdes_core::{
    run_sequential_from_with, run_sequential_with, Checkpoint, EngineConfig, Event, EventKey,
    EventUid, LpId, Model, SendCtx, SequentialResult, SimThreadId, ThreadEngine, VirtualTime,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// `n` LPs; each handler folds the payload into the state and sends 0–2
/// events to random LPs after 1–3 whole time units.
struct Branch {
    n: usize,
}
impl Model for Branch {
    type State = (u64, u32);
    type Payload = u64;
    fn num_lps(&self) -> usize {
        self.n
    }
    fn init_state(&self, lp: LpId) -> (u64, u32) {
        (u64::from(lp.0) << 32, 0)
    }
    fn init_events(&self, lp: LpId, s: &mut (u64, u32), ctx: &mut SendCtx<'_, u64>) {
        for _ in 0..2 {
            let delay = 1 + ctx.rng().next_below(3);
            ctx.send(lp, delay as f64, s.0);
        }
    }
    fn handle_event(&self, _lp: LpId, s: &mut (u64, u32), p: &u64, ctx: &mut SendCtx<'_, u64>) {
        s.0 = s.0.rotate_left(7) ^ p ^ ctx.now().ticks();
        s.1 += 1;
        for _ in 0..ctx.rng().next_below(3) {
            let dst = LpId(ctx.rng().next_below(self.n as u64) as u32);
            let delay = 1 + ctx.rng().next_below(3);
            ctx.send(dst, delay as f64, s.0 ^ u64::from(s.1));
        }
    }
    fn state_digest(&self, s: &(u64, u32)) -> u64 {
        s.0 ^ (u64::from(s.1) << 48)
    }
}

/// The reference oracle's event loop: the engines' `Lp` with sparse state
/// saving, fossil-collected once per snapshot period. `reset_send_seq`
/// zeroes the LP's send counter before each event — a defect the
/// comparison must catch.
fn finish_reference<M: Model>(
    model: &Arc<M>,
    cfg: &EngineConfig,
    max_events: Option<u64>,
    mut lps: Vec<Lp<M>>,
    mut pending: Pending<M::Payload>,
    reset_send_seq: bool,
) -> SequentialResult {
    let mut committed: u64 = lps.iter().map(|lp| lp.committed).sum();
    let mut commit_digest: u64 = lps.iter().fold(0, |d, lp| d ^ lp.commit_digest);
    let mut final_lvt: VirtualTime = lps
        .iter()
        .map(|lp| lp.committed_lvt)
        .max()
        .unwrap_or(VirtualTime::ZERO);
    let mut sends = Vec::new();
    loop {
        if let Some(cap) = max_events {
            if committed >= cap {
                break;
            }
        }
        let Some(min) = pending.first_key_value().map(|(k, _)| k) else {
            break;
        };
        if min.recv_time >= cfg.end_time {
            break;
        }
        let (key, ev) = pending.pop_first().expect("min exists");
        let lp = &mut lps[key.dst.index()];
        debug_assert!(!lp.is_straggler(&key), "sequential run cannot regress");
        if reset_send_seq {
            lp.send_seq = 0;
        }
        sends.clear();
        lp.process_into(model.as_ref(), ev, &mut sends);
        for sent in sends.drain(..) {
            pending.insert(sent.key, sent);
        }
        committed += 1;
        commit_digest ^= key_digest(&key);
        final_lvt = key.recv_time;
        if lp.history_len() >= cfg.snapshot_period as usize {
            lp.fossil_collect(model.as_ref(), VirtualTime::INFINITY);
        }
    }

    let pending_digest = pending.keys().fold(0, |d, k| d ^ key_digest(k));
    SequentialResult {
        committed,
        commit_digest,
        state_digests: lps
            .iter()
            .map(|lp| lp.state_digest(model.as_ref()))
            .collect(),
        pending_digest,
        final_lvt,
    }
}

/// The reference's pending events, in key order.
type Pending<P> = BTreeMap<EventKey, Event<P>>;

/// The reference's LPs before any event, each with the config's period.
fn fresh_lps<M: Model>(model: &M, cfg: &EngineConfig) -> Vec<Lp<M>> {
    (0..model.num_lps())
        .map(|i| Lp::with_snapshot_period(model, LpId(i as u32), cfg.seed, cfg.snapshot_period))
        .collect()
}

/// The reference `run_sequential_with`.
fn reference_with<M: Model>(
    model: &Arc<M>,
    cfg: &EngineConfig,
    extra: &[Event<M::Payload>],
    max_events: Option<u64>,
    reset_send_seq: bool,
) -> SequentialResult {
    let mut lps = fresh_lps(model.as_ref(), cfg);
    let mut pending = Pending::new();
    for lp in &mut lps {
        for ev in lp.init_events(model.as_ref()) {
            pending.insert(ev.key, ev);
        }
    }
    for ev in extra {
        pending.insert(ev.key, ev.clone());
    }
    finish_reference(model, cfg, max_events, lps, pending, reset_send_seq)
}

/// The reference `run_sequential_from_with`.
fn reference_from_with<M: Model>(
    model: &Arc<M>,
    cfg: &EngineConfig,
    ckpt: &Checkpoint<M::State, M::Payload>,
    extra: &[Event<M::Payload>],
    max_events: Option<u64>,
) -> SequentialResult {
    let mut lps = fresh_lps(model.as_ref(), cfg);
    for lck in &ckpt.lps {
        lps[lck.lp.index()].restore_from(
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
    let mut pending = Pending::new();
    for ev in ckpt.events.iter().chain(extra) {
        pending.insert(ev.key, ev.clone());
    }
    finish_reference(model, cfg, max_events, lps, pending, false)
}

/// A mid-run cut of a one-thread engine after `batches` batches of 4
/// events, or `None` when the run is over by then.
fn cut(
    model: &Arc<Branch>,
    cfg: &EngineConfig,
    batches: usize,
) -> Option<Checkpoint<(u64, u32), u64>> {
    let map = LpMap::new(model.n, 1, MapKind::RoundRobin);
    let mut eng = ThreadEngine::new(Arc::clone(model), map.clone(), SimThreadId(0), cfg);
    let mut outbox = Vec::new();
    for (_, msg) in eng.take_init_events() {
        eng.deliver(msg, &mut outbox);
    }
    for _ in 0..batches {
        eng.process_batch(4, &mut outbox);
    }
    assert!(outbox.is_empty(), "one thread owns every LP");
    let gvt = eng.local_min();
    if gvt >= cfg.end_time {
        return None;
    }
    eng.fossil_collect(gvt);
    let (lps, events) = eng.snapshot_at_gvt(gvt);
    Some(Checkpoint {
        gvt,
        gvt_rounds: 1,
        lps,
        events,
        map,
        cursor: None,
    })
}

/// External events: `(lp, whole time unit)` pairs, uids clear of the model's.
fn extra_events(n: usize, at: &[(u32, u8)]) -> Vec<Event<u64>> {
    at.iter()
        .enumerate()
        .map(|(i, &(lp, t))| Event {
            key: EventKey {
                recv_time: VirtualTime::from_f64(f64::from(t)),
                dst: LpId(lp % n as u32),
                uid: EventUid::new(LpId(0), (1 << 40) + i as u64),
            },
            send_time: VirtualTime::ZERO,
            payload: 0xE0 + i as u64,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn oracle_matches_the_lp_driven_reference(
        n in 1usize..=16,
        seed in any::<u64>(),
        period in prop::sample::select(vec![1u32, 2, 8]),
        end in 4u8..24,
        cap in prop::option::of(0u64..120),
        extra in prop::collection::vec((any::<u32>(), 0u8..24), 0..6),
        batches in 1usize..12,
    ) {
        let model = Arc::new(Branch { n });
        let cfg = EngineConfig::default()
            .with_end_time(f64::from(end))
            .with_seed(seed)
            .with_snapshot_period(period);
        let extra = extra_events(n, &extra);

        let oracle = run_sequential_with(&model, &cfg, &extra, cap);
        prop_assert_eq!(&oracle, &reference_with(&model, &cfg, &extra, cap, false));

        if let Some(ckpt) = cut(&model, &cfg, batches) {
            // Accepted events sent before the cut are inside it already.
            let late: Vec<_> = extra
                .iter()
                .filter(|e| e.key.recv_time >= ckpt.gvt)
                .cloned()
                .collect();
            let resumed = run_sequential_from_with(&model, &cfg, &ckpt, &late, cap);
            prop_assert_eq!(&resumed, &reference_from_with(&model, &cfg, &ckpt, &late, cap));
            if late.len() == extra.len() && cap.is_none() {
                prop_assert_eq!(&resumed, &oracle);
            }
        }
    }
}

/// The comparison is not vacuous: a reference that restarts each LP's send
/// counter before every event reissues uids, and the oracle disagrees.
#[test]
fn a_send_counter_reset_is_caught() {
    let model = Arc::new(Branch { n: 4 });
    for seed in 0..8 {
        let cfg = EngineConfig::default().with_end_time(16.0).with_seed(seed);
        let oracle = run_sequential_with(&model, &cfg, &[], None);
        assert!(oracle.committed > 0, "seed {seed} ran events");
        assert_ne!(
            oracle,
            reference_with(&model, &cfg, &[], None, true),
            "seed {seed}: a reset send counter went unnoticed"
        );
    }
}
