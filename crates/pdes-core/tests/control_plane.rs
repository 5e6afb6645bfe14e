//! Properties and API-level tests of the shared control plane
//! (`MessagePlane`, `Round`, `Demand`, `Membership`, `AffinityTable`): what
//! `thread-rt`, `cons-rt` and `sim-rt` all rely on, checked once. The
//! `Round` section is the one specification of the GVT round's transition
//! rules (both runtimes used to test their own copy of them).
//!
//! The plane's load-bearing contract is **transient-message coverage**
//! (`plane.rs` module docs, DESIGN.md §8): no message that is queued, held
//! back by chaos, or buffered under its sender's window is ever below
//! `transient_min()`. The property below drives arbitrary interleavings of
//! one-message landings, buffered sends, flushes, folds and clean/chaos
//! drains against a model of what is in flight — every message enters a
//! queue through a `SendBatcher`, as in every runtime — and additionally
//! checks what the
//! engine needs from delivery: nothing lost or duplicated, `queue_len`
//! exact, per-(sender, destination) FIFO on clean planes and per-uid order
//! under chaos (an anti-message never overtakes its positive twin).

use pdes_core::{
    ckpt_round_due, AffinityPolicy, AffinityTable, Demand, Event, EventKey, EventUid,
    FaultInjector, FaultPlan, GvtMode, IdleTracker, LpId, Membership, MessagePlane, Msg, Phase,
    Round, Scheduler, SendBatcher, SystemConfig, VirtualTime, WakeupFault,
};
use proptest::prelude::*;

const N: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    /// `from` sends to `dst` at `10 + dt`; `pair` follows it with the
    /// anti-message of the same uid. A `buffered` send waits in `from`'s
    /// batcher for a flush or fold; any other is a one-message landing (a
    /// buffer plus a flush), which lands what `from` buffered before it.
    Send {
        from: usize,
        dst: usize,
        dt: u64,
        pair: bool,
        buffered: bool,
    },
    /// Land everything `from` has buffered.
    Flush(usize),
    /// `me`'s GVT fold: flush (the batcher's one hard rule), then take the
    /// window.
    Fold(usize),
    Drain {
        me: usize,
        clean: bool,
    },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Listed twice: half of all operations are sends.
    let send = || {
        (0..N, 0..N, 0u64..500, any::<bool>(), any::<bool>()).prop_map(
            |(from, dst, dt, pair, buffered)| Op::Send {
                from,
                dst,
                dt,
                pair,
                buffered,
            },
        )
    };
    prop::collection::vec(
        prop_oneof![
            send(),
            send(),
            (0..N).prop_map(Op::Flush),
            (0..N).prop_map(Op::Fold),
            (0..N, any::<bool>()).prop_map(|(me, clean)| Op::Drain { me, clean }),
        ],
        0..150,
    )
}

/// `(sender, serial, is_anti)` — unique per message of a run.
type Ident = (u32, u64, bool);

fn ident(m: &Msg<u8>) -> Ident {
    (m.key().uid.src.0, m.key().uid.seq, m.is_anti())
}

/// A batcher that never lands on its own: only a flush does.
fn batcher() -> SendBatcher<u8> {
    SendBatcher::new(N, usize::MAX)
}

/// A one-message landing through `from`'s batcher: a buffer plus a flush.
fn land_one(
    b: &mut SendBatcher<u8>,
    plane: &MessagePlane<u8>,
    from: usize,
    dst: usize,
    m: Msg<u8>,
) {
    b.buffer(plane, from, dst, m);
    b.flush(plane);
}

struct Harness {
    plane: MessagePlane<u8>,
    /// One batcher per sender.
    batchers: Vec<SendBatcher<u8>>,
    /// `buffered[from]`: published under `from`'s window, not yet pushed.
    buffered: Vec<Vec<Ident>>,
    /// Sent and not yet handed out by a drain: `(t, dst, landed, ident)`.
    in_flight: Vec<(u64, usize, bool, Ident)>,
    sent: Vec<Vec<Ident>>,
    got: Vec<Vec<Ident>>,
    serial: u64,
}

impl Harness {
    fn send(&mut self, from: usize, dst: usize, msg: Msg<u8>, buffered: bool) {
        let t = msg.recv_time().ticks();
        self.sent[dst].push(ident(&msg));
        self.in_flight.push((t, dst, false, ident(&msg)));
        self.buffered[from].push(ident(&msg));
        self.batchers[from].buffer(&self.plane, from, dst, msg);
        if !buffered {
            self.flush(from);
        }
    }

    fn flush(&mut self, from: usize) {
        for id in self.buffered[from].drain(..) {
            let slot = self.in_flight.iter_mut().find(|f| f.3 == id);
            slot.expect("buffered message is in flight").2 = true;
        }
        self.batchers[from].flush(&self.plane);
    }

    fn drain(&mut self, me: usize, clean: bool) {
        let mut out = Vec::new();
        let n = if clean {
            self.plane.drain_clean(me, &mut out)
        } else {
            self.plane.drain(me, &mut out)
        };
        assert_eq!(n, out.len(), "the return value is the number delivered");
        for m in &out {
            let id = ident(m);
            self.in_flight.retain(|f| f.3 != id);
            self.got[me].push(id);
        }
    }

    /// The two accounting invariants, after every operation.
    fn check(&self) {
        if let Some(floor) = self.in_flight.iter().map(|f| f.0).min() {
            assert!(
                self.plane.transient_min().ticks() <= floor,
                "transient_min {} above an in-flight message at {floor}",
                self.plane.transient_min().ticks()
            );
        }
        for dst in 0..N {
            let landed = self.in_flight.iter().filter(|f| f.1 == dst && f.2).count();
            assert_eq!(self.plane.len(dst), landed, "queue_len[{dst}]");
        }
    }
}

proptest! {
    #[test]
    fn no_in_flight_message_is_ever_below_transient_min(
        ops in arb_ops(),
        chaos in prop::option::of(0u64..1024),
    ) {
        let mut plane = MessagePlane::new(N);
        if let Some(seed) = chaos {
            plane.faults = FaultInjector::new(FaultPlan::chaos(seed));
        }
        let mut h = Harness {
            plane,
            batchers: (0..N).map(|_| batcher()).collect(),
            buffered: vec![Vec::new(); N],
            in_flight: Vec::new(),
            sent: vec![Vec::new(); N],
            got: vec![Vec::new(); N],
            serial: 0,
        };
        for op in ops {
            match op {
                Op::Send { from, dst, dt, pair, buffered } => {
                    let key = EventKey {
                        recv_time: VirtualTime::from_ticks(10 + dt),
                        dst: LpId(dst as u32),
                        uid: EventUid::new(LpId(from as u32), h.serial),
                    };
                    h.serial += 1;
                    let ev = Event { key, send_time: VirtualTime::ZERO, payload: 0 };
                    h.send(from, dst, Msg::Event(ev), buffered);
                    if pair {
                        h.send(from, dst, Msg::Anti(key), buffered);
                    }
                }
                Op::Flush(from) => h.flush(from),
                Op::Fold(me) => {
                    h.flush(me);
                    h.plane.take_window(me);
                }
                Op::Drain { me, clean } => h.drain(me, clean),
            }
            h.check();
        }
        // Wind down: land and deliver everything. A chaos drain may hold
        // messages back, so `queue_len` reaching zero — not a zero return —
        // is the emptiness signal.
        for t in 0..N {
            h.flush(t);
        }
        for me in 0..N {
            let mut rounds = 0;
            while h.plane.len(me) > 0 {
                h.drain(me, false);
                rounds += 1;
                prop_assert!(rounds < 100_000, "dst {}: drain never emptied", me);
            }
        }
        h.check();
        prop_assert!(h.in_flight.is_empty(), "lost: {:?}", h.in_flight);
        for dst in 0..N {
            let (mut want, mut have) = (h.sent[dst].clone(), h.got[dst].clone());
            want.sort_unstable();
            have.sort_unstable();
            prop_assert_eq!(have, want, "dst {}: lost or duplicated messages", dst);
            for from in 0..N as u32 {
                let of = |v: &[Ident]| -> Vec<Ident> {
                    v.iter().filter(|i| i.0 == from).copied().collect()
                };
                for &(src, seq, anti) in &of(&h.got[dst]) {
                    if anti {
                        let pos = h.got[dst].iter().position(|x| *x == (src, seq, false));
                        let neg = h.got[dst].iter().position(|x| *x == (src, seq, true));
                        prop_assert!(
                            pos.is_some() && pos < neg,
                            "dst {}: anti of uid {}/{} overtook its twin", dst, src, seq
                        );
                    }
                }
            }
        }
    }

    /// Clean planes: a destination drains each sender's one-message
    /// landings in send order, whatever the interleaving with other senders
    /// and drains.
    #[test]
    fn clean_drains_are_fifo_per_sender(ops in arb_ops()) {
        let plane: MessagePlane<u8> = MessagePlane::new(N);
        let mut batchers: Vec<_> = (0..N).map(|_| batcher()).collect();
        let mut sent = vec![Vec::new(); N];
        let mut got = vec![Vec::new(); N];
        let mut out = Vec::new();
        for (serial, op) in ops.into_iter().enumerate() {
            match op {
                Op::Send { from, dst, dt, .. } => {
                    let key = EventKey {
                        recv_time: VirtualTime::from_ticks(10 + dt),
                        dst: LpId(dst as u32),
                        uid: EventUid::new(LpId(from as u32), serial as u64),
                    };
                    sent[dst].push(ident(&Msg::<u8>::Anti(key)));
                    land_one(&mut batchers[from], &plane, from, dst, Msg::Anti(key));
                }
                Op::Drain { me, .. } => {
                    out.clear();
                    plane.drain(me, &mut out);
                    got[me].extend(out.iter().map(ident));
                }
                Op::Flush(_) | Op::Fold(_) => {}
            }
        }
        for me in 0..N {
            out.clear();
            plane.drain(me, &mut out);
            got[me].extend(out.iter().map(ident));
            prop_assert_eq!(&got[me], &sent[me], "dst {}", me);
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
fn spurious_wakeup_posts_a_thread_it_did_not_activate() {
    let (d, mut m) = two_parked();
    let faults = FaultInjector::new(FaultPlan {
        seed: 3,
        wakeup: Some(WakeupFault {
            lose_prob: 0.0,
            spurious_prob: 1.0,
            max_lost: 8,
        }),
        ..FaultPlan::default()
    });
    let mut posted = Vec::new();
    let n = d.activate(&mut m, &faults, |i| i == 2, |i| posted.push(i));
    assert_eq!(n, 1);
    assert_eq!(posted, [2, 1], "2 activated; 1 posted while still inactive");
    assert!(!d.is_active(1) && !m.subscribed[1]);
    assert_eq!(d.num_active(), 2);
}

#[test]
fn wake_all_rejoins_for_armed_rounds_and_only_posts_for_termination() {
    let (d, mut m) = two_parked();
    let mut posted = Vec::new();
    d.wake_all(None, |i| posted.push(i));
    assert_eq!(posted, [1, 2]);
    assert_eq!(d.num_active(), 1, "termination leaves the census alone");
    assert!(!m.subscribed[1]);
    posted.clear();
    d.wake_all(Some(&mut m), |i| posted.push(i));
    assert_eq!(posted, [1, 2]);
    assert!(d.all_active() && m.subscribed.iter().all(|&s| s));
    assert_eq!(d.max_descheduled(), 2, "the high-water mark stays");
}

#[test]
fn parked_floors_enter_the_reduction_until_cleared() {
    let d = Demand::new(2);
    assert_eq!(d.parked_floor(), VirtualTime::INFINITY);
    d.set_park_min(1, VirtualTime::from_f64(3.0));
    assert_eq!(d.parked_floor(), VirtualTime::from_f64(3.0));
    d.clear_park_min(1);
    assert_eq!(d.park_min(1), VirtualTime::INFINITY);
}

#[test]
fn checkpoint_cadence_lands_on_every_nth_round() {
    assert!(!ckpt_round_due(0, 0), "0 disables");
    let due: Vec<u64> = (0..9).filter(|&r| ckpt_round_due(3, r)).collect();
    assert_eq!(due, [2, 5, 8], "the 3rd, 6th and 9th rounds to complete");
    assert!(ckpt_round_due(1, 0));
}

#[test]
fn affinity_scan_count_is_rows_plus_one_search_per_pin() {
    let mut a = AffinityTable::new(4, 5);
    let mut pins = Vec::new();
    // Five rows; threads 1 and 3 each search the three cores beyond core 0.
    assert_eq!(a.assign(|t| t % 2 == 1, &mut pins), 5 + 2 * 3);
    assert_eq!(pins, [(1, 0), (3, 1)], "ties break to the lowest core");
    // Nothing to pin: the scan is the five rows alone.
    assert_eq!(a.assign(|t| t % 2 == 1, &mut pins), 5);
    // A single-core table never searches.
    assert_eq!(AffinityTable::new(1, 3).assign(|_| true, &mut pins), 3);
}

// ---- Round: the GVT round's transition rules -------------------------------

fn anti(t: f64) -> Msg<u8> {
    Msg::Anti(EventKey {
        recv_time: VirtualTime::from_f64(t),
        dst: LpId(0),
        uid: EventUid::new(LpId(0), t.to_bits()),
    })
}

fn vt(t: f64) -> VirtualTime {
    VirtualTime::from_f64(t)
}

/// Everything a round touches, for a run of `n` threads ending at 100.
struct Rig {
    round: Round,
    m: Membership,
    d: Demand,
    plane: MessagePlane<u8>,
    aff: AffinityTable,
    posted: Vec<usize>,
}

fn rig(n: usize) -> Rig {
    Rig {
        round: Round::new(vt(100.0)),
        m: Membership::new(n),
        d: Demand::new(n),
        plane: MessagePlane::new(n),
        aff: AffinityTable::new(2, n),
        posted: Vec::new(),
    }
}

impl Rig {
    fn open(&mut self, me: usize) -> (bool, u64) {
        let posted = &mut self.posted;
        self.round
            .open(&mut self.m, &self.d, me, |i| posted.push(i))
    }

    fn park(&mut self, me: usize, completed: u64) -> bool {
        self.round
            .deactivate(&mut self.m, &self.d, &mut self.aff, me, completed)
    }

    fn publish(&self) -> VirtualTime {
        self.round.publish(&self.plane, &self.d)
    }

    /// Every participant completes Phase End; the last call must close.
    fn close(&mut self) {
        for k in 1..=self.m.participants {
            let last = k == self.m.participants;
            assert_eq!(self.round.end_phase(&mut self.m), last);
        }
    }
}

#[test]
fn gvt_covers_a_message_sent_after_the_folds() {
    let mut r = rig(3);
    r.open(0);
    r.round.fold(&r.plane, 0, vt(10.0));
    r.round.fold(&r.plane, 1, vt(12.0));
    // Thread 2 is inactive with a message at t=4, sent after the folds: it
    // is covered by the destination's queue minimum and the sender's
    // residual window, not by the folded minimum.
    land_one(&mut batcher(), &r.plane, 0, 2, anti(4.0));
    assert_eq!(r.publish(), vt(4.0));
    assert_eq!((r.round.gvt(), r.round.rounds()), (vt(4.0), 1));
    assert_eq!(r.round.regressions(), 0);
}

#[test]
fn a_parked_floor_pins_gvt_until_withdrawn() {
    let mut r = rig(2);
    r.d.set_park_min(1, vt(2.0));
    r.open(0);
    r.round.fold(&r.plane, 0, vt(10.0));
    assert_eq!(r.publish(), vt(2.0));
    r.close();
    r.d.clear_park_min(1);
    r.open(0);
    r.round.fold(&r.plane, 0, vt(10.0));
    assert_eq!(r.publish(), vt(10.0));
}

#[test]
fn gvt_regression_is_counted_not_applied() {
    let mut r = rig(1);
    r.open(0);
    r.round.fold(&r.plane, 0, vt(10.0));
    r.publish();
    r.close();
    r.open(0);
    r.round.fold(&r.plane, 0, vt(5.0));
    assert_eq!(r.publish(), vt(10.0), "gvt must not regress");
    assert_eq!((r.round.regressions(), r.round.rounds()), (1, 2));
}

#[test]
fn gvt_terminates_past_end() {
    let mut r = rig(1);
    r.open(0);
    assert!(!r.round.terminated());
    r.round.fold(&r.plane, 0, VirtualTime::INFINITY);
    assert!(r.publish().is_infinite(), "everything empty");
    assert!(r.round.terminated());
}

#[test]
fn a_round_counts_its_phases_and_the_last_end_closes_it() {
    let mut r = rig(2);
    let (p0, id0) = r.open(0);
    let (p1, _) = r.open(1);
    assert!(p0 && p1);
    assert_eq!(r.m.participants, 2);
    r.round.arrive_a();
    assert_eq!((r.round.a_done(), r.round.b_done()), (1, 0));
    r.close();
    assert_eq!(r.open(0), (true, id0 + 1));
    assert_eq!(r.round.a_done(), 0, "a fresh round starts from zero");
    assert_eq!(r.round.dump(&r.m).participants, 2);
}

#[test]
fn aware_claim_is_exclusive_per_round() {
    let mut r = rig(2);
    r.open(0);
    assert!(r.round.claim_aware());
    assert!(!r.round.claim_aware());
    assert!(r.round.dump(&r.m).aware_claimed);
    // End closes; the next round is claimable again.
    r.close();
    r.open(0);
    assert!(r.round.claim_aware());
}

#[test]
fn an_armed_round_wakes_the_parked_and_gates_the_cut() {
    let mut r = rig(3);
    r.round.set_checkpoint_every(1);
    assert!(r.park(2, 0));
    let (_, id) = r.open(0);
    assert_eq!(r.posted, [2], "force-woken");
    assert_eq!(r.m.participants, 3, "the cut must cover the parked engine");
    assert!(r.d.is_active(2) && r.m.subscribed[2]);
    assert!(r.round.ckpt_armed_for(id) && !r.round.ckpt_armed_for(id + 1));
    // The snapshotters' release comes after the cut GVT, and only for the
    // armed round.
    r.publish();
    r.round.ckpt_publish(id + 1);
    assert!(!r.round.ckpt_ready());
    r.round.ckpt_publish(id);
    assert!(r.round.ckpt_ready());
}

#[test]
fn nobody_parks_once_the_run_has_terminated() {
    // The termination wake-up scan runs once; a thread that de-scheduled
    // itself after it would sleep forever.
    let mut r = rig(3);
    r.round.terminate();
    assert!(!r.park(2, 0));
    assert!(r.d.is_active(2));
    let (round, d) = (&r.round, &r.d);
    round.release_for_termination(&mut r.m, d, |i| panic!("nobody is parked, posted {i}"));
}

#[test]
fn no_round_opens_once_the_run_has_terminated() {
    // A thread activated during the final round is not one of its
    // participants; reaching the round trigger before it sees `terminated`,
    // it must not open a round nobody else will join.
    let mut r = rig(2);
    let (_, id) = r.open(0);
    r.round.terminate();
    r.close();
    assert_eq!(r.open(1), (false, id + 1));
    assert_eq!(r.m.waiting_for(1), None, "nothing was opened");
}

#[test]
fn deactivation_refused_while_a_fresh_round_waits() {
    let mut r = rig(3);
    let (_, id) = r.open(0);
    // Thread 0 completed round `id`, may park while it is still open…
    assert!(r.park(0, id));
    // …but thread 1 may not park for a round it has not completed.
    assert!(!r.park(1, id.wrapping_sub(1)));
    assert!(r.d.is_active(1) && r.m.subscribed[1]);
}

#[test]
fn idle_tracker_parks_only_idle_empty_folded_demand_driven_threads() {
    let gg = SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant);
    let r = rig(2);
    let wants = |t: &IdleTracker, sys, parkable| t.wants_park(sys, &r.round, &r.plane, 0, parkable);
    let mut t = IdleTracker::new(3);
    t.observe(3, true);
    assert!(!wants(&t, gg, true), "at the threshold, not past it");
    t.observe(1, true);
    assert!(wants(&t, gg, true));
    let baseline = SystemConfig {
        scheduler: Scheduler::Baseline,
        ..gg
    };
    assert!(
        !wants(&t, baseline, true),
        "only demand-driven systems park"
    );
    assert!(!wants(&t, gg, false), "live pending work is runnable");
    // Queued input, or a send the thread has not folded yet, keeps it in.
    land_one(&mut batcher(), &r.plane, 1, 0, anti(5.0));
    assert!(!wants(&t, gg, true));
    r.plane.drain_clean(0, &mut Vec::new());
    land_one(&mut batcher(), &r.plane, 0, 1, anti(6.0));
    assert!(!wants(&t, gg, true), "unfolded send window");
    r.plane.take_window(0);
    assert!(wants(&t, gg, true));
    // A cycle that did work, or could not count, starts over; so does a wake.
    for (polls, parkable) in [(0, true), (1, false)] {
        t.observe(9, true);
        t.observe(polls, parkable);
        assert!(!wants(&t, gg, true));
    }
    t.observe(9, true);
    t.reintegrate();
    assert!(!wants(&t, gg, true));
    t.observe(9, true);
    r.round.terminate();
    assert!(!wants(&t, gg, true), "nobody parks after the final GVT");
}

#[test]
fn phase_indices_round_trip_and_names_are_distinct() {
    let all: Vec<Phase> = (0..15).map(Phase::from_index).collect();
    for (i, p) in all.iter().enumerate() {
        assert_eq!(*p as usize, i);
        assert!(
            all[..i].iter().all(|q| q.name() != p.name()),
            "{}",
            p.name()
        );
    }
    assert_eq!(
        (Phase::default(), Phase::Done.name()),
        (Phase::Cycle, "done")
    );
}
