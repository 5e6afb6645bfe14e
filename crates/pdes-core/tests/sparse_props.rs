//! Property tests of sparse (periodic) state saving against the dense
//! copy-state-saving oracle.
//!
//! The contract under test: an LP running with `snapshot_period = k` is
//! *observationally indistinguishable* from one running with `k = 1` —
//! after any rollback the restored state, RNG stream, and send-sequence
//! counter are byte-identical, and the rollback itself reports the same
//! undone events and anti-messages. The schedule space includes the two
//! edge cases that historically break sparse saving implementations:
//! rollback all the way to the base snapshot (entry 0), and rollback to
//! the first retained entry right after a fossil cut (whose snapshot was
//! materialized by replay rather than recorded at process time). The
//! third property interleaves every operation of the history — process,
//! exclusive and inclusive rollback, fossil cuts at arbitrary mid-gap
//! points, reprocess — and compares after each step.

use pdes_core::lp::Lp;
use pdes_core::{Event, EventKey, EventUid, LpId, Model, SendCtx, VirtualTime};
use proptest::prelude::*;

/// Handler with data-dependent RNG draws, state mutation, and fan-out
/// sends — any divergence between replayed and original execution shows
/// up in all three observables.
struct Churn;
impl Model for Churn {
    type State = Vec<u64>;
    type Payload = u32;
    fn num_lps(&self) -> usize {
        4
    }
    fn init_state(&self, _lp: LpId) -> Vec<u64> {
        vec![0xC0FFEE]
    }
    fn init_events(&self, _lp: LpId, _s: &mut Vec<u64>, _ctx: &mut SendCtx<'_, u32>) {}
    fn handle_event(&self, _lp: LpId, s: &mut Vec<u64>, p: &u32, ctx: &mut SendCtx<'_, u32>) {
        let draws = (ctx.rng().next_below(3) + 1) as usize;
        for _ in 0..draws {
            let x = ctx.rng().next_below(u32::MAX as u64);
            s.push(x ^ (*p as u64));
            let dst = LpId(ctx.rng().next_below(4) as u32);
            let d = 0.1 + ctx.rng().next_f64();
            ctx.send(dst, d, p + 1);
        }
        if s.len() > 8 {
            s.remove(0);
        }
    }
    fn state_digest(&self, s: &Vec<u64>) -> u64 {
        s.iter().fold(0u64, |a, &x| a.rotate_left(7) ^ x)
    }
}

fn ev(i: usize) -> Event<u32> {
    Event {
        key: EventKey {
            recv_time: VirtualTime::from_f64(i as f64 + 1.0),
            dst: LpId(1),
            uid: EventUid::new(LpId(0), i as u64),
        },
        send_time: VirtualTime::ZERO,
        payload: i as u32,
    }
}

proptest! {
    /// Dense (k=1) and sparse (k) LPs fed the same schedule — n events, an
    /// optional fossil cut, then a rollback to an arbitrary surviving depth
    /// — agree byte-for-byte on restored state, RNG, send counter, the
    /// rollback's reinserted events and antis, and the final committed
    /// digest after replaying the undone suffix.
    ///
    /// `fossil_at = 0` covers rollback-to-base-0 (no commit, restore from
    /// the very first snapshot); `target = fossil_at` covers
    /// rollback-across-the-fossil-boundary (the replay base is the
    /// snapshot `fossil_collect` materialized, not a recorded one).
    #[test]
    fn sparse_rollback_matches_dense_oracle(
        seed in any::<u64>(),
        n in 2usize..24,
        period in 2u32..9,
        fossil_frac in 0.0f64..1.0,
        target_frac in 0.0f64..1.0,
    ) {
        let m = Churn;
        // Fossil cut commits events [0, fossil_at); the rollback targets
        // events [target, n), which must survive the cut.
        let fossil_at = (fossil_frac * n as f64) as usize; // 0..n
        let target = fossil_at + (target_frac * (n - fossil_at) as f64) as usize;
        prop_assume!(target < n);

        let mut dense: Lp<Churn> = Lp::with_snapshot_period(&m, LpId(1), seed, 1);
        let mut sparse: Lp<Churn> = Lp::with_snapshot_period(&m, LpId(1), seed, period);

        let mut dense_sends = Vec::new();
        let mut sparse_sends = Vec::new();
        for i in 0..n {
            dense.process_into(&m, ev(i), &mut dense_sends);
            sparse.process_into(&m, ev(i), &mut sparse_sends);
        }
        prop_assert_eq!(&dense_sends, &sparse_sends, "forward sends diverge");

        if fossil_at > 0 {
            // Cut strictly below event `fossil_at`'s receive time.
            let gvt = ev(fossil_at).key.recv_time;
            let cd = dense.fossil_collect(&m, gvt);
            let cs = sparse.fossil_collect(&m, gvt);
            prop_assert_eq!(cd, cs, "commit counts diverge at the cut");
        }

        // Roll back events [target, n) — inclusive of `target` itself.
        let rb_d = dense.rollback(&m, &ev(target).key, true);
        let rb_s = sparse.rollback(&m, &ev(target).key, true);
        prop_assert_eq!(rb_d.undone, n - target);
        prop_assert_eq!(rb_s.undone, n - target);
        prop_assert_eq!(&rb_d.reinserted, &rb_s.reinserted, "reinserted events diverge");
        prop_assert_eq!(&rb_d.antis, &rb_s.antis, "anti-messages diverge");

        // Restored execution context is byte-identical.
        prop_assert_eq!(&dense.state, &sparse.state, "restored state diverges");
        prop_assert_eq!(&dense.rng, &sparse.rng, "restored RNG diverges");
        prop_assert_eq!(dense.send_seq, sparse.send_seq, "send counter diverges");

        // Replaying the undone suffix reconverges to the original run.
        let mut rd = Vec::new();
        let mut rs = Vec::new();
        for e in rb_d.reinserted {
            dense.process_into(&m, e, &mut rd);
        }
        for e in rb_s.reinserted {
            sparse.process_into(&m, e, &mut rs);
        }
        prop_assert_eq!(&rd, &rs, "replayed sends diverge");
        dense.commit_all(&m);
        sparse.commit_all(&m);
        prop_assert_eq!(&dense.state, &sparse.state, "final state diverges");
        prop_assert_eq!(dense.commit_digest, sparse.commit_digest);
        prop_assert_eq!(dense.committed, sparse.committed);
    }

    /// Interleaved rollback storms: several rollback/replay cycles at
    /// decreasing-then-increasing depths with fossil cuts between them,
    /// sparse vs dense, each cycle checked for byte-identity.
    #[test]
    fn repeated_rollbacks_stay_byte_identical(
        seed in any::<u64>(),
        period in 2u32..9,
        depths in prop::collection::vec((0usize..12, any::<bool>()), 1..6),
    ) {
        let m = Churn;
        let n = 12usize;
        let mut dense: Lp<Churn> = Lp::with_snapshot_period(&m, LpId(1), seed, 1);
        let mut sparse: Lp<Churn> = Lp::with_snapshot_period(&m, LpId(1), seed, period);
        let mut buf_d = Vec::new();
        let mut buf_s = Vec::new();
        for i in 0..n {
            dense.process_into(&m, ev(i), &mut buf_d);
            sparse.process_into(&m, ev(i), &mut buf_s);
        }

        let mut committed_below = 0usize;
        for (raw, fossil_first) in depths {
            if fossil_first && committed_below + 1 < n {
                committed_below += 1;
                let gvt = ev(committed_below).key.recv_time;
                let cd = dense.fossil_collect(&m, gvt);
                prop_assert_eq!(cd, sparse.fossil_collect(&m, gvt));
            }
            // Rollback depth clamped to the uncommitted tail.
            let target = committed_below + raw % (n - committed_below);
            let rb_d = dense.rollback(&m, &ev(target).key, true);
            let rb_s = sparse.rollback(&m, &ev(target).key, true);
            prop_assert_eq!(&rb_d.antis, &rb_s.antis);
            prop_assert_eq!(&dense.state, &sparse.state);
            prop_assert_eq!(&dense.rng, &sparse.rng);
            prop_assert_eq!(dense.send_seq, sparse.send_seq);
            for e in rb_d.reinserted {
                dense.process_into(&m, e, &mut buf_d);
            }
            for e in rb_s.reinserted {
                sparse.process_into(&m, e, &mut buf_s);
            }
            buf_d.clear();
            buf_s.clear();
        }
        dense.commit_all(&m);
        sparse.commit_all(&m);
        prop_assert_eq!(&dense.state, &sparse.state);
        prop_assert_eq!(dense.commit_digest, sparse.commit_digest);
    }

    /// Arbitrary interleavings of the four things a history is asked to do
    /// — process the next event, roll back (exclusively or inclusively) to
    /// an arbitrary retained depth, fossil-collect at an arbitrary cut, and
    /// reprocess what a rollback undid — on a dense and a sparse LP side by
    /// side. After every step the two agree on state, RNG, send counter and
    /// committed snapshot; every rollback on antis *in order* and
    /// reinserted events; the end on the committed digests.
    #[test]
    fn interleaved_history_ops_match_dense_oracle(
        seed in any::<u64>(),
        period in prop::sample::select(vec![1u32, 2, 3, 5, 8, 16]),
        ops in prop::collection::vec((0u8..8, 0.0f64..1.0), 1..60),
    ) {
        let m = Churn;
        let mut dense: Lp<Churn> = Lp::with_snapshot_period(&m, LpId(1), seed, 1);
        let mut sparse: Lp<Churn> = Lp::with_snapshot_period(&m, LpId(1), seed, period);
        // Events `[done, next)` are in both histories; `[next, ..)` are not
        // yet processed (or were undone and wait to be reprocessed).
        let (mut done, mut next) = (0usize, 0usize);
        let (mut sd, mut ss) = (Vec::new(), Vec::new());
        for (op, frac) in ops {
            // An index into the retained history, `done ..= next`.
            let at = done + (frac * (next - done + 1) as f64) as usize;
            match op {
                // Roll back to `at`: inclusive undoes event `at` itself,
                // exclusive everything after the gap below it.
                0 | 1 if at < next => {
                    let inclusive = op == 0;
                    let mut key = ev(at).key;
                    if !inclusive {
                        key.recv_time = VirtualTime::from_f64(at as f64 + 0.5);
                    }
                    let rb_d = dense.rollback(&m, &key, inclusive);
                    let rb_s = sparse.rollback(&m, &key, inclusive);
                    prop_assert_eq!(rb_d.undone, next - at);
                    prop_assert_eq!(rb_s.undone, next - at);
                    prop_assert_eq!(&rb_d.antis, &rb_s.antis, "antis diverge");
                    prop_assert_eq!(&rb_d.reinserted, &rb_s.reinserted);
                    let undone: Vec<_> = (at..next).map(ev).collect();
                    prop_assert_eq!(&rb_s.reinserted, &undone);
                    next = at;
                }
                // Commit events `[done, at)`: a cut anywhere in the history,
                // mid-gap more often than not.
                2 if at > done => {
                    let gvt = ev(at).key.recv_time;
                    let cd = dense.fossil_collect(&m, gvt);
                    prop_assert_eq!(cd, sparse.fossil_collect(&m, gvt));
                    prop_assert_eq!(cd as usize, at - done);
                    done = at;
                }
                // Process (or reprocess) the next event.
                _ => {
                    sd.clear();
                    ss.clear();
                    dense.process_into(&m, ev(next), &mut sd);
                    sparse.process_into(&m, ev(next), &mut ss);
                    prop_assert_eq!(&sd, &ss, "sends diverge");
                    next += 1;
                }
            }
            prop_assert_eq!(&dense.state, &sparse.state, "state diverges");
            prop_assert_eq!(&dense.rng, &sparse.rng, "RNG diverges");
            prop_assert_eq!(dense.send_seq, sparse.send_seq);
            prop_assert_eq!(sparse.history_len(), next - done);
            let (cd, cs) = (dense.committed_snapshot(), sparse.committed_snapshot());
            prop_assert_eq!(&cd.state, &cs.state, "committed state diverges");
            prop_assert_eq!(&cd.rng, &cs.rng);
            prop_assert_eq!(cd.send_seq, cs.send_seq);
            prop_assert_eq!(dense.commit_digest, sparse.commit_digest);
        }
        dense.commit_all(&m);
        sparse.commit_all(&m);
        prop_assert_eq!(&dense.state, &sparse.state, "final state diverges");
        prop_assert_eq!(dense.commit_digest, sparse.commit_digest);
        prop_assert_eq!(dense.committed, sparse.committed);
        prop_assert_eq!(dense.committed as usize, next);
    }
}
