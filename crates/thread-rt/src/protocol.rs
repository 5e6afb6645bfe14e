//! The synchronisation-protocol seam of the real-thread runtime.
//!
//! The worker loop, the GVT round (phases A → Send → B → Aware → End), the
//! checkpoint cut, parking and the attempt runner exist once, in this crate.
//! What an optimistic (Time Warp) and a conservative (null-message) run
//! disagree on is the *update rule* — which pending events may execute this
//! step — and the handful of places that rule leaks into the chassis. Those
//! places are the items of [`Protocol`]; `worker_loop` and
//! `run_threads_attempt` are generic over it and monomorphised per protocol,
//! so nothing on the per-cycle path is dispatched dynamically.

use crate::runner::RtRunConfig;
use crate::shared::RtShared;
use metrics::RunMetrics;
use pdes_core::{BatchOutcome, Model, Outbound, ThreadEngine, VirtualTime};
use telemetry::Tracer;

/// One attempt's synchronisation protocol: its shared state (if any) plus
/// the six points where the worker loop and the runner defer to it.
pub trait Protocol<M: Model>: Sized + Send + Sync {
    /// Hooks 1 and 3 — may a thread sit idle, and park, while it still holds
    /// live pending events? An optimistic thread may not (pending work is
    /// always runnable, so it vetoes both the idle count and the park). A
    /// conservative thread may: pending events blocked below its bound are
    /// as good as absent, so it counts idle cycles regardless and, before
    /// de-scheduling, publishes its pending floor with
    /// [`pdes_core::Demand::set_park_min`] so no reduction overshoots it
    /// (withdrawn again on wake-up or refusal).
    const PARKS_WITH_PENDING: bool;

    /// Hook 5 — build the protocol state of one attempt (`rc.num_threads`
    /// threads). Called once per attempt, before any worker spawns: a
    /// restored attempt must never inherit the failed one's state. Protocols
    /// with preconditions refuse inadmissible runs at their front door,
    /// before the first attempt (see `cons_rt::run_cons`).
    fn start(model: &M, rc: &RtRunConfig) -> Self;

    /// Hook 1 — the bound of this cycle's batch, read *before* the input
    /// queue is drained.
    fn horizon(&self, me: usize, sh: &RtShared<M::Payload>) -> VirtualTime;

    /// Hook 1 — execute one batch of at most `max` events after the drained
    /// input was delivered, appending remote sends to `outbox`.
    fn process(
        &self,
        me: usize,
        horizon: VirtualTime,
        engine: &mut ThreadEngine<M>,
        max: usize,
        outbox: &mut Vec<Outbound<M::Payload>>,
    ) -> BatchOutcome;

    /// Hook 2 — Algorithm 2's demand rule: is there work again for parked
    /// thread `i`? The scan itself is `RtShared::activate_where`.
    fn has_demand(&self, sh: &RtShared<M::Payload>, i: usize) -> bool;

    /// Hook 4 — the round closer's per-round trace instants (called only
    /// when tracing is on).
    fn round_instants(&self, sh: &RtShared<M::Payload>, tracer: &mut Tracer);

    /// Hook 6 — stamp the protocol's fields onto the finished run's metrics.
    fn tag_metrics(&self, m: &mut RunMetrics);

    /// Hook 6 — the liveness watchdog's trip reason.
    fn stall_reason(idle_secs: f64, bound_secs: f64) -> String;
}

/// Time Warp: speculate up to the engine's optimism horizon, roll back on
/// stragglers.
pub struct Optimistic;

impl<M: Model> Protocol<M> for Optimistic {
    const PARKS_WITH_PENDING: bool = false;

    fn start(_model: &M, _rc: &RtRunConfig) -> Self {
        Optimistic
    }

    /// The engine bounds its own optimism (`gvt + window`, capped at the end
    /// time), so there is nothing to read here.
    #[inline]
    fn horizon(&self, _me: usize, _sh: &RtShared<M::Payload>) -> VirtualTime {
        VirtualTime::INFINITY
    }

    #[inline]
    fn process(
        &self,
        _me: usize,
        _horizon: VirtualTime,
        engine: &mut ThreadEngine<M>,
        max: usize,
        outbox: &mut Vec<Outbound<M::Payload>>,
    ) -> BatchOutcome {
        engine.process_batch(max, outbox)
    }

    /// Queued input is the only demand: pending work never parks.
    fn has_demand(&self, sh: &RtShared<M::Payload>, i: usize) -> bool {
        sh.len(i) > 0
    }

    /// Ingest verdicts land as per-round instants on the closer's lane (only
    /// rounds with activity emit anything).
    fn round_instants(&self, sh: &RtShared<M::Payload>, tracer: &mut Tracer) {
        if let Some(port) = &sh.ingest {
            tracer.ingest_instants(sh.now_ns(), port.round_deltas());
        }
    }

    fn tag_metrics(&self, m: &mut RunMetrics) {
        m.protocol = "optimistic".into();
    }

    fn stall_reason(idle_secs: f64, bound_secs: f64) -> String {
        format!("no GVT progress for {idle_secs:.1}s (bound {bound_secs:.1}s)")
    }
}
