//! The model-facing API: what a simulation application implements.

use crate::event::{Event, EventKey};
use crate::ids::{EventUid, LpId};
use crate::rng::DetRng;
use crate::time::VirtualTime;

/// Context handed to model code while it initializes an LP or processes an
/// event. Sends are buffered and routed by the engine after the handler
/// returns; the RNG and send-sequence counter live in the LP's rolled-back
/// state, so a re-executed handler reproduces its draws and event UIDs.
pub struct SendCtx<'a, P> {
    lp: LpId,
    now: VirtualTime,
    rng: &'a mut DetRng,
    send_seq: &'a mut u64,
    out: &'a mut Vec<Event<P>>,
}

impl<'a, P> SendCtx<'a, P> {
    /// Construct a context manually. Used by the engines; also handy for
    /// unit-testing model handlers in isolation.
    pub fn new(
        lp: LpId,
        now: VirtualTime,
        rng: &'a mut DetRng,
        send_seq: &'a mut u64,
        out: &'a mut Vec<Event<P>>,
    ) -> Self {
        SendCtx {
            lp,
            now,
            rng,
            send_seq,
            out,
        }
    }

    /// The LP this context belongs to.
    #[inline]
    pub fn self_lp(&self) -> LpId {
        self.lp
    }

    /// Current local virtual time (the receive time of the event being
    /// processed, or `0` during initialization).
    #[inline]
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// The LP's private, rollback-aware RNG stream.
    #[inline]
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Schedule `payload` for `dst` at `now + delay`.
    ///
    /// # Panics
    /// Panics if `delay` is negative (via [`VirtualTime::from_f64`]) — zero
    /// delay is allowed and ordered after the current event by the tie-break
    /// on [`EventUid`].
    pub fn send(&mut self, dst: LpId, delay: f64, payload: P) {
        self.send_at(
            dst,
            self.now.saturating_add(VirtualTime::from_f64(delay)),
            payload,
        );
    }

    /// Schedule `payload` for `dst` at the absolute time `at` (≥ now).
    pub fn send_at(&mut self, dst: LpId, at: VirtualTime, payload: P) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let uid = EventUid::new(self.lp, *self.send_seq);
        *self.send_seq += 1;
        self.out.push(Event {
            key: EventKey {
                recv_time: at,
                dst,
                uid,
            },
            send_time: self.now,
            payload,
        });
    }
}

/// A discrete-event simulation model: a fixed population of LPs exchanging
/// time-stamped events.
///
/// Implementations must be *deterministic*: given the same state, RNG state,
/// and event, `handle_event` must make the same draws and sends. All
/// randomness must come from `ctx.rng()`.
pub trait Model: Send + Sync + 'static {
    /// Per-LP mutable state. Cloned into rollback snapshots and serialized
    /// into GVT-aligned checkpoints (see [`crate::checkpoint`]).
    type State: Clone + Send + std::fmt::Debug + serde::Serialize + serde::Deserialize + 'static;
    /// Event payload. Serialized with the above-GVT pending events of a
    /// checkpoint.
    type Payload: Clone + Send + std::fmt::Debug + serde::Serialize + serde::Deserialize + 'static;

    /// Total number of LPs in the simulation.
    fn num_lps(&self) -> usize;

    /// Construct the initial state of `lp`.
    fn init_state(&self, lp: LpId) -> Self::State;

    /// Schedule the initial events of `lp` (called once, at time zero).
    /// May target any LP.
    fn init_events(&self, lp: LpId, state: &mut Self::State, ctx: &mut SendCtx<'_, Self::Payload>);

    /// Process one event at `lp`. `ctx.now()` is the event's receive time.
    fn handle_event(
        &self,
        lp: LpId,
        state: &mut Self::State,
        payload: &Self::Payload,
        ctx: &mut SendCtx<'_, Self::Payload>,
    );

    /// A 64-bit digest of an LP state, used by cross-runtime correctness
    /// oracles (sequential vs Time Warp executions must agree).
    fn state_digest(&self, state: &Self::State) -> u64;

    /// The model's *lookahead*: a lower bound on the virtual-time delay of
    /// every send, promised for the whole run. An event processed at time
    /// `t` may only schedule events at `t + lookahead` or later (in every
    /// handler and in `init_events` from time zero).
    ///
    /// Optimistic runtimes ignore it. The conservative null-message runtime
    /// (`cons-rt`) requires it to be strictly positive — Chandy–Misra–Bryant
    /// deadlock avoidance advances channel clocks by exactly this margin,
    /// and a zero bound cannot break cyclic waits. The default of `0.0`
    /// means "no promise": such models run conservatively only with an
    /// explicit structured error.
    fn lookahead(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_assigns_sequential_uids_and_times() {
        let mut rng = DetRng::seed_from_u64(1);
        let mut seq = 5u64;
        let mut out = Vec::new();
        let mut ctx = SendCtx::new(
            LpId(3),
            VirtualTime::from_f64(10.0),
            &mut rng,
            &mut seq,
            &mut out,
        );
        ctx.send(LpId(4), 1.5, "a");
        ctx.send(LpId(5), 0.0, "b");
        #[allow(clippy::drop_non_drop)] // end the ctx borrow explicitly
        drop(ctx);
        assert_eq!(seq, 7);
        assert_eq!(out[0].key.uid, EventUid::new(LpId(3), 5));
        assert_eq!(out[0].key.recv_time, VirtualTime::from_f64(11.5));
        assert_eq!(out[0].send_time, VirtualTime::from_f64(10.0));
        assert_eq!(out[1].key.recv_time, VirtualTime::from_f64(10.0));
        assert_eq!(out[1].key.dst, LpId(5));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn send_at_past_panics() {
        let mut rng = DetRng::seed_from_u64(1);
        let mut seq = 0u64;
        let mut out: Vec<Event<()>> = Vec::new();
        let mut ctx = SendCtx::new(
            LpId(0),
            VirtualTime::from_f64(10.0),
            &mut rng,
            &mut seq,
            &mut out,
        );
        ctx.send_at(LpId(0), VirtualTime::from_f64(9.0), ());
    }
}
