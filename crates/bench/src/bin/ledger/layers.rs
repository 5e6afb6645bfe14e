//! Isolated layer timings: each calls one public function in a loop, on
//! inputs taken from the workload itself (its model, its event trace, its
//! pending-set population), so a regression localises to one layer.
//!
//! Every figure is the median over blocks of a few thousand calls; set-up
//! between blocks (cloning inputs, rebuilding state) is never timed.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cons_rt::ConsPlane;
use dist_rt::{wire, Frame, Inbox, MemTx, Packet, ReliableLink};
use pdes_core::lp::Lp;
use pdes_core::pending::PendingSet;
use pdes_core::{
    DetRng, EngineConfig, Event, EventKey, LpId, LpMap, Model, Msg, SendCtx, SimThreadId,
    VirtualTime,
};
use thread_rt::{RtShared, Semaphore, SendBatcher};

use crate::stats::median;
use crate::workloads::PARTS;

/// Messages per batch everywhere a batch is needed: the engine batch size
/// and the size of the `Frame::SimBatch` the wire metrics encode.
const BATCH: usize = 8;
/// Events in the recorded trace.
const TRACE_LEN: usize = 32_768;

fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

/// Median ns per op of `N` operations measured together, over blocks run
/// until `budget` is spent (at least three, after one discarded warm-up
/// block). A block does its own untimed preparation and returns, per
/// operation, `(timed duration, ops)`.
fn per_ops<const N: usize>(
    budget: Duration,
    mut block: impl FnMut() -> [(Duration, u64); N],
) -> [f64; N] {
    block();
    let start = Instant::now();
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    while samples[0].len() < 3 || start.elapsed() < budget {
        for (i, (d, ops)) in block().into_iter().enumerate() {
            samples[i].push(d.as_nanos() as f64 / ops.max(1) as f64);
        }
    }
    samples.map(|s| median(&s))
}

/// [`per_ops`] for a single operation.
fn per_op(budget: Duration, mut block: impl FnMut() -> (Duration, u64)) -> f64 {
    per_ops(budget, || [block()])[0]
}

/// The first events the workload processes, in processing order, plus its
/// initial event population.
pub struct Recorded<M: Model> {
    pub initial: Vec<Event<M::Payload>>,
    pub trace: Vec<Event<M::Payload>>,
}

fn fresh_lps<M: Model>(model: &M, ecfg: &EngineConfig) -> (Vec<Lp<M>>, Vec<Event<M::Payload>>) {
    let mut initial = Vec::new();
    let lps = (0..model.num_lps())
        .map(|i| {
            let mut lp =
                Lp::with_snapshot_period(model, LpId(i as u32), ecfg.seed, ecfg.snapshot_period);
            initial.extend(lp.init_events(model));
            lp
        })
        .collect();
    (lps, initial)
}

/// Run the model sequentially for [`TRACE_LEN`] events and keep them.
pub fn record<M: Model>(model: &M, ecfg: &EngineConfig) -> Recorded<M> {
    let (mut lps, initial) = fresh_lps(model, ecfg);
    let mut pending = PendingSet::new();
    for ev in &initial {
        pending.insert(ev.clone());
    }
    let mut trace = Vec::with_capacity(TRACE_LEN);
    let mut sends = Vec::new();
    while trace.len() < TRACE_LEN {
        let Some(ev) = pending.pop_min() else { break };
        trace.push(ev.clone());
        let now = ev.recv_time();
        lps[ev.dst().index()].process_into(model, ev, &mut sends);
        for s in sends.drain(..) {
            pending.insert(s);
        }
        if trace.len() % 4096 == 0 {
            for lp in &mut lps {
                lp.fossil_collect(model, now);
            }
        }
    }
    Recorded { initial, trace }
}

/// `model.handler.ns_per_event`: `handle_event` through `SendCtx::new`,
/// replaying the recorded trace on fresh states.
pub fn model_handler<M: Model>(
    model: &M,
    ecfg: &EngineConfig,
    rec: &Recorded<M>,
    budget: Duration,
) -> f64 {
    let n = model.num_lps();
    per_op(budget, || {
        let mut states: Vec<M::State> = (0..n).map(|i| model.init_state(LpId(i as u32))).collect();
        let mut rngs: Vec<DetRng> = (0..n)
            .map(|i| DetRng::for_lp(ecfg.seed, LpId(i as u32)))
            .collect();
        let mut seqs = vec![0u64; n];
        let mut out = Vec::new();
        for i in 0..n {
            let lp = LpId(i as u32);
            let mut ctx = SendCtx::new(lp, VirtualTime::ZERO, &mut rngs[i], &mut seqs[i], &mut out);
            model.init_events(lp, &mut states[i], &mut ctx);
        }
        out.clear();
        let (d, ()) = timed(|| {
            for ev in &rec.trace {
                let i = ev.dst().index();
                let mut ctx = SendCtx::new(
                    ev.dst(),
                    ev.recv_time(),
                    &mut rngs[i],
                    &mut seqs[i],
                    &mut out,
                );
                model.handle_event(ev.dst(), &mut states[i], &ev.payload, &mut ctx);
                out.clear();
            }
        });
        black_box(&states);
        (d, rec.trace.len() as u64)
    })
}

/// The initial events one simulation thread owns: the workload's pending
/// population.
fn thread_population<M: Model>(
    model: &M,
    ecfg: &EngineConfig,
    rec: &Recorded<M>,
) -> Vec<Event<M::Payload>> {
    let map = LpMap::new(model.num_lps(), PARTS, ecfg.mapping);
    rec.initial
        .iter()
        .filter(|e| map.thread_of(e.dst()) == SimThreadId(0))
        .cloned()
        .collect()
}

/// `pending.insert_pop.ns_per_op`: the hold model — pop the minimum and put
/// it back later in time — at the workload's per-thread population. One op
/// is one pop plus one insert.
pub fn pending_hold<M: Model>(
    model: &M,
    ecfg: &EngineConfig,
    rec: &Recorded<M>,
    budget: Duration,
) -> f64 {
    const STEPS: u64 = 4096;
    let population = thread_population(model, ecfg, rec);
    let mut set = PendingSet::new();
    for ev in &population {
        set.insert(ev.clone());
    }
    let mut rng = DetRng::seed_from_u64(ecfg.seed);
    let mut next_seq = 1u64 << 40; // above any sequence number the trace uses
    per_op(budget, || {
        let delays: Vec<VirtualTime> = (0..STEPS)
            .map(|_| VirtualTime::from_f64(0.1 + rng.next_exp(0.9)))
            .collect();
        let (d, ()) = timed(|| {
            for delay in &delays {
                let mut ev = set.pop_min().expect("population is constant");
                ev.key.recv_time = ev.key.recv_time.saturating_add(*delay);
                ev.key.uid.seq = next_seq;
                next_seq += 1;
                set.insert(ev);
            }
        });
        (d, STEPS)
    })
}

/// `pending.cancel.ns_per_op`: anti-message cancellation of events sitting
/// in a pending set of the workload's population.
pub fn pending_cancel<M: Model>(
    model: &M,
    ecfg: &EngineConfig,
    rec: &Recorded<M>,
    budget: Duration,
) -> f64 {
    let population = thread_population(model, ecfg, rec);
    // Victims: trace events of other threads' LPs would do as well; any
    // events with fresh keys model the cancelled sends.
    let victims: Vec<Event<M::Payload>> = rec
        .trace
        .iter()
        .take(population.len().clamp(8, 1024))
        .cloned()
        .collect();
    per_op(budget, || {
        let mut set = PendingSet::new();
        for ev in &population {
            set.insert(ev.clone());
        }
        let mut keys: Vec<EventKey> = Vec::with_capacity(victims.len());
        for (i, ev) in victims.iter().enumerate() {
            let mut ev = ev.clone();
            ev.key.uid.seq = (1u64 << 41) + i as u64;
            keys.push(ev.key);
            set.insert(ev);
        }
        let (d, ()) = timed(|| {
            for key in &keys {
                black_box(set.cancel(key));
            }
        });
        (d, keys.len() as u64)
    })
}

/// ns per op of the three `Lp` operations the engine drives.
pub struct LpCosts {
    pub process_into: f64,
    pub rollback: f64,
    pub fossil: f64,
}

/// `lp.process_into`, `lp.rollback`, `lp.fossil`: replay the trace chunk by
/// chunk through fresh `Lp`s; each chunk is processed (timed), rolled back
/// whole (timed), processed again and fossil-collected (timed). A chunk is
/// about eight events per LP, i.e. one snapshot period, so the rollbacks
/// cross a coast-forward gap as they do in a live run.
pub fn lp_costs<M: Model>(
    model: &M,
    ecfg: &EngineConfig,
    rec: &Recorded<M>,
    budget: Duration,
) -> LpCosts {
    let chunk_len = (model.num_lps() * 8).clamp(64, 4096);
    let n = rec.trace.len() as u64;
    let [process_into, rollback, fossil] = per_ops(budget, || {
        let (mut lps, _) = fresh_lps(model, ecfg);
        let mut sends = Vec::new();
        let mut spent = [Duration::ZERO; 3];
        for chunk in rec.trace.chunks(chunk_len) {
            // First key each LP sees in this chunk: its rollback target.
            let mut firsts: Vec<(usize, EventKey)> = Vec::new();
            let mut seen = vec![false; lps.len()];
            for ev in chunk {
                let i = ev.dst().index();
                if !std::mem::replace(&mut seen[i], true) {
                    firsts.push((i, ev.key));
                }
            }
            let mut process = |lps: &mut Vec<Lp<M>>| {
                let evs = chunk.to_vec();
                timed(|| {
                    for ev in evs {
                        lps[ev.dst().index()].process_into(model, ev, &mut sends);
                        sends.clear();
                    }
                })
                .0
            };
            spent[0] += process(&mut lps);
            spent[1] += timed(|| {
                for (i, key) in &firsts {
                    black_box(lps[*i].rollback(model, key, true));
                }
            })
            .0;
            spent[0] += process(&mut lps);
            let horizon = chunk
                .last()
                .expect("chunks are non-empty")
                .recv_time()
                .saturating_add(VirtualTime::from_ticks(1));
            spent[2] += timed(|| {
                for (i, _) in &firsts {
                    black_box(lps[*i].fossil_collect(model, horizon));
                }
            })
            .0;
        }
        [(spent[0], 2 * n), (spent[1], n), (spent[2], n)]
    });
    LpCosts {
        process_into,
        rollback,
        fossil,
    }
}

fn messages<M: Model>(rec: &Recorded<M>, n: usize) -> Vec<Msg<M::Payload>> {
    rec.trace
        .iter()
        .cycle()
        .take(n)
        .map(|e| Msg::Event(e.clone()))
        .collect()
}

/// ns per message through the inter-thread queue, one thread.
pub struct QueueCosts {
    pub push_batch: f64,
    pub drain: f64,
    pub buffer_flush: f64,
}

/// `queue.push_batch`, `queue.drain`, `batcher.buffer_flush`: 64 batches of
/// eight land in one `RtShared` queue and are drained in one go.
pub fn queue_costs<M: Model>(rec: &Recorded<M>, budget: Duration) -> QueueCosts {
    const BATCHES: usize = 64;
    let sh: RtShared<M::Payload> = RtShared::new(PARTS, 1, VirtualTime::INFINITY);
    let template = messages(rec, BATCHES * BATCH);
    let mut out: Vec<Msg<M::Payload>> = Vec::new();
    let n = template.len() as u64;
    let [push_batch, drain] = per_ops(budget / 2, || {
        let mut bufs: Vec<Vec<Msg<M::Payload>>> =
            template.chunks(BATCH).map(<[_]>::to_vec).collect();
        let (d_push, ()) = timed(|| {
            for buf in &mut bufs {
                sh.push_batch(1, buf);
            }
        });
        out.clear();
        let (d_drain, drained) = timed(|| sh.drain(1, &mut out));
        assert_eq!(drained as u64, n);
        [(d_push, n), (d_drain, n)]
    });
    let mut batcher: SendBatcher<M::Payload> = SendBatcher::new(PARTS, 64);
    let buffer_flush = per_op(budget / 2, || {
        let mut msgs = template.clone().into_iter();
        let (d, ()) = timed(|| {
            for _ in 0..BATCHES {
                for m in msgs.by_ref().take(BATCH) {
                    batcher.buffer(&sh, 0, 1, m);
                }
                batcher.flush(&sh);
            }
        });
        out.clear();
        sh.drain(1, &mut out);
        (d, n)
    });
    QueueCosts {
        push_batch,
        drain,
        buffer_flush,
    }
}

/// `queue.transit.ns_per_msg`: a producer thread streams batches of eight
/// into one `RtShared` queue while a consumer thread drains it; at most
/// 1024 messages are in flight.
pub fn queue_transit<M: Model>(rec: &Recorded<M>, budget: Duration) -> f64 {
    const TOTAL: usize = 1 << 16;
    const IN_FLIGHT: usize = 1024;
    let sh: RtShared<M::Payload> = RtShared::new(PARTS, 1, VirtualTime::INFINITY);
    let template = messages(rec, BATCH);
    per_op(budget, || {
        let (d, ()) = timed(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    let mut got = 0;
                    while got < TOTAL {
                        let n = sh.drain(1, &mut out);
                        got += n;
                        out.clear();
                        if n == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
                let mut buf = Vec::with_capacity(BATCH);
                for _ in 0..TOTAL / BATCH {
                    while sh.queue_len[1].load(Ordering::Acquire) >= IN_FLIGHT {
                        std::thread::yield_now();
                    }
                    buf.extend(template.iter().cloned());
                    sh.push_batch(1, &mut buf);
                }
            });
        });
        (d, TOTAL as u64)
    })
}

/// `sync.post_wait.ns`: an uncontended `Semaphore` post followed by the wait
/// that consumes it.
pub fn sem_post_wait(budget: Duration) -> f64 {
    const CALLS: u64 = 4096;
    let sem = Semaphore::new(0, 1);
    per_op(budget, || {
        let (d, ()) = timed(|| {
            for _ in 0..CALLS {
                sem.post();
                sem.wait();
            }
        });
        (d, CALLS)
    })
}

/// `sync.park_unpark.us`: µs from `Semaphore::post` to the thread parked
/// in `wait` running again — the latency of one demand-driven activation.
/// The poster first sleeps long enough for the peer to be parked for real,
/// so every sample pays the full wake-up.
pub fn sem_wakeup_us(budget: Duration) -> f64 {
    const WAKEUPS: u64 = 64;
    let ping = Semaphore::new(0, 1);
    let pong = Semaphore::new(0, 1);
    let stop = AtomicBool::new(false);
    let base = Instant::now();
    let woke_ns = AtomicU64::new(0);
    let ns = std::thread::scope(|s| {
        s.spawn(|| loop {
            ping.wait();
            woke_ns.store(base.elapsed().as_nanos() as u64, Ordering::Release);
            if stop.load(Ordering::Acquire) {
                return;
            }
            pong.post();
        });
        let ns = per_op(budget, || {
            let mut latency = Duration::ZERO;
            for _ in 0..WAKEUPS {
                std::thread::sleep(Duration::from_micros(50));
                let posted = base.elapsed();
                ping.post();
                pong.wait();
                latency +=
                    Duration::from_nanos(woke_ns.load(Ordering::Acquire)).saturating_sub(posted);
            }
            (latency, WAKEUPS)
        });
        stop.store(true, Ordering::Release);
        ping.post();
        ns
    });
    ns / 1000.0
}

/// `plane.publish_bound.ns_per_op`: one null-message publication plus the
/// peer's input-bound read on a two-thread `ConsPlane`.
pub fn plane_publish_bound(lookahead: f64, budget: Duration) -> f64 {
    const CALLS: u64 = 4096;
    let plane = ConsPlane::new(PARTS, VirtualTime::from_f64(lookahead));
    let mut t = 0u64;
    per_op(budget, || {
        let (d, ()) = timed(|| {
            for _ in 0..CALLS {
                t += 1;
                plane.publish(0, VirtualTime::from_ticks(t));
                black_box(plane.input_bound(1));
            }
        });
        (d, CALLS)
    })
}

/// Costs of the distributed wire path, without sockets.
pub struct WireCosts {
    pub encode_ns_per_msg: f64,
    pub decode_ns_per_msg: f64,
    pub bytes_per_msg: f64,
    pub packet_codec_ns_per_frame: f64,
    pub link_roundtrip_ns_per_frame: f64,
}

/// `wire.*`, `packet.codec`, `link.roundtrip`: an eight-message
/// `Frame::SimBatch` through `wire::to_bytes` / `from_bytes`, the packet
/// header codec, and a `ReliableLink` pair over memory links (send →
/// `on_packet` → ack → `pump`).
pub fn wire_costs<M: Model>(rec: &Recorded<M>, budget: Duration) -> WireCosts {
    const CALLS: u64 = 256;
    let frame: Frame<M::State, M::Payload> = Frame::SimBatch {
        msgs: messages(rec, BATCH)
            .into_iter()
            .enumerate()
            .map(|(i, m)| (i as u64 / 4, m))
            .collect(),
    };
    let bytes = wire::to_bytes(&frame);
    let share = budget / 4;
    let encode = per_op(share, || {
        let (d, ()) = timed(|| {
            for _ in 0..CALLS {
                black_box(wire::to_bytes(black_box(&frame)));
            }
        });
        (d, CALLS * BATCH as u64)
    });
    let decode = per_op(share, || {
        let (d, ()) = timed(|| {
            for _ in 0..CALLS {
                let f: Frame<M::State, M::Payload> =
                    wire::from_bytes(black_box(&bytes)).expect("round trip");
                black_box(f);
            }
        });
        (d, CALLS * BATCH as u64)
    });
    let packet = per_op(share, || {
        let (d, ()) = timed(|| {
            for seq in 0..CALLS {
                let pkt = Packet::Data {
                    seq,
                    payload: bytes.clone(),
                }
                .encode();
                black_box(Packet::decode(&pkt).expect("round trip"));
            }
        });
        (d, CALLS)
    });
    let (inbox_a, inbox_b) = (Inbox::new(), Inbox::new());
    let mut a = ReliableLink::new(
        Box::new(MemTx {
            peer_inbox: Arc::clone(&inbox_b),
            from: 0,
        }),
        None,
    );
    let mut b = ReliableLink::new(
        Box::new(MemTx {
            peer_inbox: Arc::clone(&inbox_a),
            from: 1,
        }),
        None,
    );
    let link = per_op(share, || {
        let (d, ()) = timed(|| {
            for _ in 0..CALLS {
                a.send(&bytes).expect("memory link");
                for (_, pkt) in inbox_b.drain() {
                    black_box(b.on_packet(&pkt).expect("well-formed"));
                }
                b.pump().expect("memory link");
                for (_, pkt) in inbox_a.drain() {
                    a.on_packet(&pkt).expect("well-formed");
                }
                a.pump().expect("memory link");
            }
        });
        assert!(a.drained(), "every frame acknowledged");
        (d, CALLS)
    });
    WireCosts {
        encode_ns_per_msg: encode,
        decode_ns_per_msg: decode,
        bytes_per_msg: bytes.len() as f64 / BATCH as f64,
        packet_codec_ns_per_frame: packet,
        link_roundtrip_ns_per_frame: link,
    }
}
