//! Allocation regression gate for the per-event hot path.
//!
//! The engines' per-LP hot path, distilled into one loop (pop-min →
//! `process_into` → re-insert sends → fossil once per snapshot period), is
//! what every Time Warp runtime runs per event: after warmup, all its
//! buffers — the reused send vector, the pending set's queue and chains, the
//! LP's history, sent-key and snapshot queues — have reached steady-state
//! capacity, so processing one more event must hit the heap **zero** times.
//! This test locks that in with a counting global allocator: any future
//! change that re-introduces a per-event allocation (a clone on the
//! snapshot path, a fresh `Vec` per handler call, a map that grows per
//! insert) fails here with a count, not as a silent throughput regression.
//!
//! The second test rolls back every 64 events through
//! `ThreadEngine::deliver`, the call every runtime makes, on a one-thread
//! engine: a straggler, then an anti-message whose twin was processed. The
//! undone events and antis land in the engine's reused buffers, and the
//! anti is never parked: neither rollback allocates.
//!
//! The third cancels and re-sends one pending event every 8 events, so
//! the pending set's tombstones pass the compaction threshold again and
//! again: cancel, compaction and the re-insert allocate nothing either. Its
//! second input, a ring of 4,096 LPs, keeps the queue's rung up: each
//! send is cancelled and re-sent twice, so thousands of tombstones sit in
//! the rung's buckets and the top when compaction comes.
//!
//! The fourth test holds the round's thread-local steps to the same bar:
//! two [`Participant`]s over a [`MessagePlane`] cycle (`receive`, an event,
//! `land`) and run whole GVT rounds (`fold` twice, publish, fossil-collect)
//! on inbox / outbox / batcher scratch that stopped growing during warmup.
//!
//! The fifth holds the sequential oracle, which runs handlers without an
//! `Lp`, to a run-length bar: its allocation count at `end_time` T and at
//! 4T is the same, since the ring's population, and so its queue, is
//! constant — on eight LPs, where the queue is a heap alone, and on 4,096,
//! where it rebuilds its rung about once per time unit.
//!
//! The sixth holds a thread's history to its live size: an engine over
//! 4,096 LPs, every one of which processes and is fossil-collected, makes
//! far fewer allocations than it has LPs (one history store per thread, no
//! buffer per LP), and the store keeps at most twice the most history that
//! was ever live at once, plus a constant.
//!
//! The seventh holds a pending set over 4,096 LPs, fed alone — pop the
//! minimum, send one event on, cancel and re-send every fourth — to the
//! same two bars: nothing allocates after warmup, and a run of 4T events
//! allocates exactly what a run of T does. Its per-LP chains grow with the
//! queue's slab and the largest LP seen, never with the run.
//!
//! Kept as its own integration binary so the `#[global_allocator]` swap
//! cannot perturb (or be perturbed by) unrelated tests.

use pdes_core::lp::{key_digest, Lp};
use pdes_core::pending::{CancelOutcome, PendingSet};
use pdes_core::{
    build_engines, run_sequential, Demand, EngineConfig, Event, EventKey, EventUid, LpId, LpMap,
    MapKind, Membership, MessagePlane, Model, Msg, Participant, Round, SendCtx, SimThreadId,
    ThreadEngine, VirtualTime,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation *and* reallocation (a growing `Vec` is as much
/// a hot-path regression as a fresh one) of the calling thread — the tests
/// of this binary run side by side. Frees are not counted: dropping a
/// warmup-phase buffer during measurement is harmless.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Ring model with heap-free state: every event mutates a `u64`, draws
/// from the RNG, and forwards exactly one event — constant population,
/// the same shape as the phold hot path.
struct Ring {
    n: usize,
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
        *s = s.wrapping_add(1);
        let d = 0.5 + ctx.rng().next_f64();
        ctx.send(LpId((lp.0 + 1) % self.n as u32), d, ());
    }
    fn state_digest(&self, s: &u64) -> u64 {
        *s
    }
}

const SNAPSHOT_PERIOD: u32 = 4;

/// The ring's LPs and their initial events.
fn ring(model: &Ring) -> (Vec<Lp<Ring>>, PendingSet<()>) {
    let mut lps: Vec<Lp<Ring>> = (0..model.n)
        .map(|i| Lp::with_snapshot_period(model, LpId(i as u32), 42, SNAPSHOT_PERIOD))
        .collect();
    let mut pending = PendingSet::new();
    for lp in &mut lps {
        for ev in lp.init_events(model) {
            pending.insert(ev);
        }
    }
    (lps, pending)
}

/// Execute the lowest pending event; returns its key.
fn step(
    model: &Ring,
    lps: &mut [Lp<Ring>],
    pending: &mut PendingSet<()>,
    sends: &mut Vec<Event<()>>,
) -> EventKey {
    let ev = pending.pop_min().expect("ring population is constant");
    let key = ev.key;
    sends.clear();
    lps[key.dst.index()].process_into(model, ev, sends);
    for sent in sends.drain(..) {
        pending.insert(sent);
    }
    key
}

/// Drive `count` events through the engines' per-LP hot path in key order,
/// collecting each LP's history once per snapshot period, and return the
/// commit-digest fold so the work cannot be optimized away.
fn pump(
    model: &Ring,
    lps: &mut [Lp<Ring>],
    pending: &mut PendingSet<()>,
    sends: &mut Vec<Event<()>>,
    count: u64,
) -> u64 {
    let mut digest = 0u64;
    for _ in 0..count {
        let key = step(model, lps, pending, sends);
        digest ^= key_digest(&key);
        let lp = &mut lps[key.dst.index()];
        if lp.history_len() >= SNAPSHOT_PERIOD as usize {
            lp.fossil_collect(model, VirtualTime::INFINITY);
        }
    }
    digest
}

#[test]
fn steady_state_event_loop_does_not_allocate() {
    let model = Ring { n: 8 };
    let (mut lps, mut pending) = ring(&model);
    let mut sends: Vec<Event<()>> = Vec::new();

    // Warmup: let every buffer, queue, and map reach steady-state capacity.
    // 5000 events ≈ 150 fossil cycles per LP — far past any growth curve.
    let warm_digest = pump(&model, &mut lps, &mut pending, &mut sends, 5000);
    assert_ne!(warm_digest, 0, "warmup actually processed events");

    let before = allocs();
    let digest = pump(&model, &mut lps, &mut pending, &mut sends, 2000);
    let after = allocs();

    assert_ne!(digest, 0, "measured phase actually processed events");
    assert_eq!(
        after - before,
        0,
        "hot path allocated {} times across 2000 steady-state events \
         (expected zero: every per-event buffer must be reused)",
        after - before
    );
}

/// A one-thread engine over the ring, its initial events delivered.
fn ring_engine(n: usize) -> ThreadEngine<Ring> {
    let cfg = EngineConfig::default()
        .with_end_time(1e9)
        .with_seed(42)
        .with_snapshot_period(SNAPSHOT_PERIOD);
    let map = LpMap::new(n, 1, MapKind::RoundRobin);
    let mut eng = ThreadEngine::new(std::sync::Arc::new(Ring { n }), map, SimThreadId(0), &cfg);
    let mut outbox = Vec::new();
    for (_, msg) in eng.take_init_events() {
        eng.deliver(msg, &mut outbox);
    }
    eng
}

/// `rounds` rounds on a one-thread ring engine: a fossil collection at the
/// pending minimum and 64 events; then a straggler one tick before the
/// newest event, on that event's LP, and once the straggler is processed,
/// its anti-message. Each rolls back one event through `deliver`, and the
/// anti of that event's pending send cancels it. `next` numbers the
/// stragglers. Returns the allocations inside the engine's calls.
fn rollback_rounds(eng: &mut ThreadEngine<Ring>, rounds: u64, next: &mut u64) -> u64 {
    let mut outbox = Vec::new();
    let mut inside = 0;
    for _ in 0..rounds {
        let before = allocs();
        eng.fossil_collect(eng.local_min());
        for _ in 0..63 {
            eng.process_batch(1, &mut outbox);
        }
        let now = eng.local_min();
        inside += allocs() - before;
        // The newest event's LP is the one whose count moves.
        let counts = eng.state_digests();
        let before = allocs();
        eng.process_batch(1, &mut outbox);
        inside += allocs() - before;
        let mut moved = eng.state_digests().into_iter().zip(counts);
        let ((lp, _), _) = moved.find(|(a, b)| a != b).expect("one LP moved");
        let straggler = Event {
            key: EventKey {
                recv_time: VirtualTime::from_ticks(now.ticks() - 1),
                dst: lp,
                uid: EventUid::new(LpId(0), (1 << 40) + *next),
            },
            send_time: VirtualTime::ZERO,
            payload: (),
        };
        *next += 1;
        let key = straggler.key;
        let before = allocs();
        let d = eng.deliver(Msg::Event(straggler), &mut outbox);
        assert_eq!(d.rolled_back, 1, "a straggler undoes the newest event");
        assert_eq!(eng.process_batch(1, &mut outbox).processed, 1);
        let d = eng.deliver(Msg::Anti(key), &mut outbox);
        assert_eq!(d.rolled_back, 1, "the anti undoes the processed straggler");
        assert!(d.annihilated);
        inside += allocs() - before;
    }
    assert!(outbox.is_empty(), "one thread owns every LP");
    inside
}

#[test]
fn steady_state_rollback_does_not_allocate() {
    let mut eng = ring_engine(8);
    let mut next = 0;
    rollback_rounds(&mut eng, 80, &mut next);
    let rounds = 30;
    let inside = rollback_rounds(&mut eng, rounds, &mut next);
    assert_eq!(eng.stats().rollbacks, 2 * (80 + rounds));
    assert_eq!(
        inside, 0,
        "{inside} allocations across {rounds} steady-state rounds of a \
         straggler and an anti-message rollback (expected zero: the undone \
         events and antis land in reused buffers)"
    );
}

/// Far-future events parked beside the ring: they never pop, so the
/// tombstone a cancel leaves behind for one of them never surfaces.
const PARKED: u64 = 24;

fn parked(i: u64) -> Event<()> {
    Event {
        key: EventKey {
            recv_time: VirtualTime::from_f64(1e9 + i as f64),
            dst: LpId(0),
            uid: EventUid::new(LpId(0), (1 << 40) + i),
        },
        send_time: VirtualTime::ZERO,
        payload: (),
    }
}

/// `count` events of the steady-state loop; after every eighth, the next
/// parked event is cancelled and re-sent with the same key
/// (anti-then-resend). Its buried tombstone stays until compaction drops
/// it — with 32 live events, every 33 cancels — so a heap, slab or free
/// list that failed to reuse its capacity would keep growing.
fn pump_with_cancels(
    model: &Ring,
    lps: &mut [Lp<Ring>],
    pending: &mut PendingSet<()>,
    sends: &mut Vec<Event<()>>,
    count: u64,
    next: &mut u64,
) {
    for _ in 0..count / 8 {
        pump(model, lps, pending, sends, 8);
        let ev = parked(*next % PARKED);
        *next += 1;
        assert_eq!(pending.cancel(&ev.key), CancelOutcome::Removed);
        pending.insert(ev);
    }
}

/// `count` events of the steady-state loop, each of whose one send is
/// then cancelled and re-sent twice (anti-then-resend): its two tombstones
/// wait in whichever tier of the queue the send landed in until they
/// surface or compaction drops them.
fn pump_with_resends(
    model: &Ring,
    lps: &mut [Lp<Ring>],
    pending: &mut PendingSet<()>,
    sends: &mut Vec<Event<()>>,
    count: u64,
) {
    for _ in 0..count {
        let ev = pending.pop_min().expect("ring population is constant");
        let lp = &mut lps[ev.key.dst.index()];
        sends.clear();
        lp.process_into(model, ev, sends);
        for sent in sends.drain(..) {
            for _ in 0..2 {
                pending.insert(sent.clone());
                assert_eq!(pending.cancel(&sent.key), CancelOutcome::Removed);
            }
            pending.insert(sent);
        }
        if lp.history_len() >= SNAPSHOT_PERIOD as usize {
            lp.fossil_collect(model, VirtualTime::INFINITY);
        }
    }
}

#[test]
fn steady_state_cancels_and_compaction_do_not_allocate() {
    // Eight LPs and the parked events: the queue is a heap alone.
    let model = Ring { n: 8 };
    let (mut lps, mut pending) = ring(&model);
    for i in 0..PARKED {
        pending.insert(parked(i));
    }
    let mut sends: Vec<Event<()>> = Vec::new();
    let mut next = 0;
    pump_with_cancels(&model, &mut lps, &mut pending, &mut sends, 5000, &mut next);

    let before = allocs();
    pump_with_cancels(&model, &mut lps, &mut pending, &mut sends, 4000, &mut next);
    let after = allocs();

    assert_eq!(pending.len(), 8 + PARKED as usize, "population is constant");
    assert_eq!(
        after - before,
        0,
        "cancel / re-insert / compaction allocated {} times across 4000 \
         steady-state events (expected zero: tombstones, the free list and \
         the in-place sort reuse capacity)",
        after - before
    );

    // 4,096 LPs: the rung is up, and with two tombstones per send
    // compaction runs about every 2,000 events.
    let model = Ring { n: 4096 };
    let (mut lps, mut pending) = ring(&model);
    pump_with_resends(&model, &mut lps, &mut pending, &mut sends, 50_000);

    let before = allocs();
    pump_with_resends(&model, &mut lps, &mut pending, &mut sends, 20_000);
    let after = allocs();

    assert_eq!(pending.len(), model.n, "population is constant");
    assert_eq!(
        after - before,
        0,
        "cancel / re-send / compaction over a rung allocated {} times across \
         20000 steady-state events (expected zero: buckets and the top chain \
         through the slab's links, the bucket array sized by the slab)",
        after - before
    );
}

/// `rounds` GVT rounds of two participants, sixteen main-loop cycles before
/// each round's folds. A cycle executes the globally lowest event only, so
/// nothing rolls back. Returns (events committed, allocations inside
/// `receive`, `land` and `fold`).
fn run_rounds(
    ps: &mut [Participant<Ring>],
    plane: &MessagePlane<()>,
    round: &Round,
    m: &mut Membership,
    rounds: u64,
) -> (u64, u64) {
    let demand = Demand::new(ps.len());
    let (mut committed, mut in_steps) = (0, 0);
    for _ in 0..rounds {
        for (me, p) in ps.iter_mut().enumerate() {
            let (participate, id) = round.open(m, &demand, me, |_| {});
            assert!(p.join(participate, id));
        }
        for _ in 0..16 {
            let before = allocs();
            for p in ps.iter_mut() {
                assert_eq!(p.receive(plane, false).1, 0, "nothing rolls back");
            }
            in_steps += allocs() - before;
            let me = usize::from(ps[1].engine.local_min() < ps[0].engine.local_min());
            let p = &mut ps[me];
            p.engine.process_batch(1, &mut p.outbox);
            let before = allocs();
            p.land(plane);
            in_steps += allocs() - before;
        }
        let before = allocs();
        for _phase in ["A", "B"] {
            for p in ps.iter_mut() {
                p.fold(plane, plane, round, None);
            }
        }
        in_steps += allocs() - before;
        let gvt = round.publish(plane, &demand);
        for p in ps.iter_mut() {
            committed += p.engine.fossil_collect(gvt);
            round.end_phase(m);
        }
    }
    (committed, in_steps)
}

#[test]
fn steady_state_receive_and_fold_do_not_allocate() {
    let model = std::sync::Arc::new(Ring { n: 8 });
    let cfg = EngineConfig::default().with_end_time(1e9).with_seed(42);
    let plane = MessagePlane::new(2);
    let (_, engines) = build_engines(&model, &cfg, 2, None, None, &plane);
    let mut ps: Vec<_> = engines
        .into_iter()
        .map(|e| Participant::new(e, cfg.clone(), false))
        .collect();
    let round = Round::new(cfg.end_time);
    let mut m = Membership::new(2);

    let (warm, growing) = run_rounds(&mut ps, &plane, &round, &mut m, 100);
    assert!(warm > 0, "warmup actually committed events");
    assert!(growing > 0, "the counter sees the scratch buffers grow");

    let (committed, in_steps) = run_rounds(&mut ps, &plane, &round, &mut m, 100);
    assert!(committed > 0, "measured phase actually committed events");
    assert_eq!(
        in_steps, 0,
        "receive / land / fold allocated {in_steps} times across 100 steady-state \
         rounds (expected zero: inbox, outbox and batcher must be reused)"
    );
}

#[test]
fn oracle_allocations_do_not_grow_with_run_length() {
    // Eight LPs keep the queue a heap alone; 4,096 raise its rung, which is
    // rebuilt about once per time unit.
    for (n, end) in [(8, 500.0), (4096, 20.0)] {
        let model = std::sync::Arc::new(Ring { n });
        let run = |end: f64| {
            let cfg = EngineConfig::default().with_end_time(end).with_seed(42);
            let before = allocs();
            let committed = run_sequential(&model, &cfg, None).committed;
            (allocs() - before, committed)
        };
        let (short, events) = run(end);
        let (long, more) = run(4.0 * end);
        assert!(
            more > 3 * events,
            "{n} LPs: 4T ran {more} events against {events}"
        );
        assert_eq!(
            long, short,
            "{n} LPs: the oracle allocated {long} times over {more} events and \
             {short} over {events} (expected the same: no buffer may grow with \
             the run)"
        );
    }
}

#[test]
fn history_footprint_follows_the_live_history_not_the_lp_count() {
    const LPS: usize = 4096;
    let model = std::sync::Arc::new(Ring { n: LPS });
    let cfg = EngineConfig::default()
        .with_end_time(1e9)
        .with_seed(42)
        .with_snapshot_period(SNAPSHOT_PERIOD);
    let map = LpMap::new(LPS, 1, MapKind::RoundRobin);
    let mut eng = ThreadEngine::new(model, map, SimThreadId(0), &cfg);
    let mut outbox = Vec::new();
    for (_, msg) in eng.take_init_events() {
        eng.deliver(msg, &mut outbox);
    }

    // One event per step, so no peak of the live history goes unseen; a
    // fossil collection at the pending minimum (the one thread's GVT)
    // every 512 events.
    let before = allocs();
    let mut high_water = 0;
    for _ in 0..64 {
        for _ in 0..512 {
            assert_eq!(eng.process_batch(1, &mut outbox).processed, 1);
            high_water = high_water.max(eng.history_bytes().live);
        }
        eng.fossil_collect(eng.local_min());
    }
    let allocations = allocs() - before;

    assert!(outbox.is_empty(), "one thread owns every LP");
    assert!(
        eng.state_digests().iter().all(|&(_, events)| events >= 2),
        "every LP processed"
    );
    assert!(eng.stats().committed > 30_000, "and committed");
    assert!(
        allocations <= 64,
        "{allocations} allocations over {LPS} LPs with history \
         (expected a few dozen: the store's slabs doubling, nothing per LP)"
    );
    let bytes = eng.history_bytes();
    assert!(
        bytes.reserved <= 2 * high_water + 4096,
        "the store holds {} bytes for a live high-water of {high_water}",
        bytes.reserved
    );
}

/// A pending set over `LPS` LPs, one event each, run `warmup` then
/// `measured` steps of the hold model: pop the minimum, send one event on
/// to another LP, and cancel and re-send every fourth send
/// (anti-then-resend). Returns the allocations of each phase.
fn pending_hold(warmup: u64, measured: u64) -> (u64, u64) {
    const LPS: u64 = 4096;
    let event = |t: u64, dst: u64, seq: u64| Event {
        key: EventKey {
            recv_time: VirtualTime::from_ticks(t),
            dst: LpId(dst as u32),
            uid: EventUid::new(LpId(0), seq),
        },
        send_time: VirtualTime::ZERO,
        payload: (),
    };
    let before = allocs();
    let mut pending = PendingSet::new();
    for lp in 0..LPS {
        pending.insert(event(lp * 97 % 1024, lp, lp));
    }
    let mut at_warm = 0;
    for step in 0..warmup + measured {
        if step == warmup {
            at_warm = allocs();
        }
        let ev = pending.pop_min().expect("the population is constant");
        let (t, dst) = (ev.key.recv_time.ticks(), ev.key.dst.0 as u64);
        let sent = event(
            t + 1 + step * 7_919 % 2_048,
            (dst * 5 + 3) % LPS,
            LPS + step,
        );
        pending.insert(sent.clone());
        if step % 4 == 0 {
            assert_eq!(pending.cancel(&sent.key), CancelOutcome::Removed);
            pending.insert(sent);
        }
    }
    assert_eq!(pending.len(), LPS as usize, "the population is constant");
    (at_warm - before, allocs() - at_warm)
}

#[test]
fn pending_chains_over_4096_lps_do_not_allocate_in_steady_state() {
    const T: u64 = 20_000;
    const WARMUP: u64 = 20_000;
    let (warm, steady) = pending_hold(WARMUP, T);
    assert_eq!(
        steady, 0,
        "insert / pop / cancel over 4,096 LPs allocated {steady} times across \
         {T} steady-state steps (expected zero: the chains grow with the slab)"
    );
    let (warm_4t, steady_4t) = pending_hold(WARMUP, 4 * T);
    assert_eq!(
        steady_4t,
        0,
        "{steady_4t} allocations across {} steps",
        4 * T
    );
    assert_eq!(
        warm + steady,
        warm_4t + steady_4t,
        "a run of 4T allocates what a run of T does"
    );
}
