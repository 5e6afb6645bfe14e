//! The conservative policy: Chandy–Misra–Bryant null messages as a
//! [`Protocol`] on `thread_rt`'s worker loop.
//!
//! The loop, the round phases, the tracer spans, the park/unpark machinery
//! and the checkpoint handshake are `thread_rt`'s own — so every downstream
//! consumer (trace_check, round-stream exporters, stall dumps, checkpoint
//! assembly, the supervisor) works on conservative runs unchanged, and the
//! periodic wait-free reduction the optimistic protocol calls a GVT round
//! doubles as an LBTS round here. Only the update rule differs: instead of
//! speculating and rolling back, a cycle computes a processing bound from
//! the null-message plane and the published GVT, publishes its own outgoing
//! guarantee, and executes strictly below the bound. The rollback machinery
//! underneath stays cold (and doubles as a loud safety net: a model that
//! breaks its declared lookahead shows up as a nonzero rollback count, not
//! silent corruption).
//!
//! ## Why the bound is safe
//!
//! A cycle reads its clock row and the GVT *before* draining, then processes
//! strictly below `bound = max(row min, GVT + lookahead)`. Two independent
//! arguments cover the two halves (full sketch in DESIGN.md §15):
//!
//! * **Channels.** A clock raise is an `AcqRel` RMW; events the sender pushed
//!   before a raise we observed are visible to our subsequent drain, and
//!   events pushed after it are stamped at or above the raised value.
//! * **Rounds.** Every event a thread processes sits at or above its own
//!   phase-A fold, and the round's GVT is at or below every fold — so sends
//!   produced after a fold are at or above `GVT + lookahead`, while pushes
//!   from before the fold happen-before the GVT's publication (fold →
//!   `a_done` RMW → controller's acquire → GVT release-store → our acquire
//!   read) and are therefore visible to the post-read drain. Parked threads
//!   pin their pending floor into the reduction via `park_min`, which closes
//!   the same argument for threads that resume mid-round.
//!
//! Under `GvtMode::Sync` the one fold between the entry and the reduction
//! barrier plays phase A's part and the reduction barrier the `a_done`
//! RMW's; nobody processes between the barriers, so the argument holds as
//! it stands. It does depend on who wakes a parked thread: the round's
//! pseudo-controller, asking [`Protocol::has_demand`]. `Scheduler::DdPdes`
//! delegates waking to a dedicated controller that only knows "queued
//! input", not "pending floor below the new bound", and would strand a
//! thread parked with live pending — [`Conservative::admit`] refuses it.

use crate::plane::ConsPlane;
use metrics::{RunMetrics, RunOutcome};
use pdes_core::{BatchOutcome, Model, Outbound, Scheduler, ThreadEngine, VirtualTime};
use std::sync::Arc;
use telemetry::{EventKind, Tracer};
use thread_rt::{run_threads_attempt, Protocol, RtRunConfig, RtShared, RunError};

/// Configuration of a conservative run: the real-thread run configuration
/// (`faults` may script worker kills; message faults are refused).
pub type ConsRunConfig = RtRunConfig;

/// Why a conservative run refused to start, or failed to complete.
#[derive(Debug)]
pub enum ConsError {
    /// The model declared a non-positive lookahead. Null-message deadlock
    /// avoidance needs a strictly positive one, so the run is refused before
    /// any thread spawns rather than left to spin until the watchdog fires.
    ZeroLookahead { lookahead: f64 },
    /// `Scheduler::DdPdes`: its dedicated controller cannot see parked
    /// pending floors (see the module docs).
    DedicatedController,
    /// The fault plan delays, reorders or loses deliveries. Without rollback
    /// a held-back message is an unrecoverable causality break.
    MessageFaults,
    /// The run started and failed: a stall (the watchdog is the backstop
    /// behind the static lookahead check — a model that *declares* a
    /// positive lookahead but breaks the contract at runtime surfaces as a
    /// stall dump or a nonzero rollback count, never as a silent hang) or a
    /// worker panic.
    Run(RunError),
}

impl std::fmt::Display for ConsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsError::ZeroLookahead { lookahead } => write!(
                f,
                "conservative runtime requires strictly positive lookahead \
                 (model declared {lookahead}): without it null messages cannot \
                 break the send/receive cycle and the run would deadlock"
            ),
            ConsError::DedicatedController => write!(
                f,
                "conservative runtime does not support the DD-PDES scheduler: \
                 its dedicated controller only wakes threads with queued input \
                 and would strand one parked below a newly opened bound \
                 (use gg or baseline)"
            ),
            ConsError::MessageFaults => write!(
                f,
                "conservative runtime cannot run under delay, reorder, \
                 straggler or wake-up faults: it never rolls back"
            ),
            ConsError::Run(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConsError {}

/// The conservative protocol state of one attempt.
pub struct Conservative {
    plane: ConsPlane,
}

impl Conservative {
    /// Check everything a conservative run of `model` under `rc` requires;
    /// returns the model's lookahead. Every front door ([`run_cons`], the
    /// CLI's supervised path) calls this before the first attempt.
    pub fn admit<M: Model>(model: &M, rc: &RtRunConfig) -> Result<VirtualTime, ConsError> {
        let la = model.lookahead();
        // NaN must land in the refusal branch too, hence the explicit check
        // rather than a plain `la <= 0.0`.
        if la <= 0.0 || la.is_nan() {
            return Err(ConsError::ZeroLookahead { lookahead: la });
        }
        if matches!(rc.system.scheduler, Scheduler::DdPdes) {
            return Err(ConsError::DedicatedController);
        }
        let f = &rc.faults;
        if f.delay.is_some() || f.reorder.is_some() || f.straggler.is_some() || f.wakeup.is_some() {
            return Err(ConsError::MessageFaults);
        }
        Ok(VirtualTime::from_f64(la))
    }
}

impl<M: Model> Protocol<M> for Conservative {
    const PARKS_WITH_PENDING: bool = true;

    /// A fresh plane per attempt: clocks raised by a failed attempt promise
    /// times a restored cut has not reached yet.
    fn start(model: &M, rc: &RtRunConfig) -> Self {
        let lookahead =
            Self::admit(model, rc).expect("inadmissible conservative run (admit it first)");
        Conservative {
            plane: ConsPlane::new(rc.num_threads, lookahead),
        }
    }

    /// Bound sources are read before the drain: anything pushed before the
    /// clock raise / GVT publication we observe here is visible to the
    /// drain that follows, anything pushed after is at or above the bound.
    #[inline]
    fn horizon(&self, me: usize, sh: &RtShared<M::Payload>) -> VirtualTime {
        let round_bound = sh.round.gvt().saturating_add(self.plane.lookahead());
        self.plane.input_bound(me).max(round_bound)
    }

    /// Publish, then process. Outgoing promise: batch sends are at or above
    /// pending-min + lookahead; later arrivals we might forward are at or
    /// above bound + lookahead. Publishing *before* the batch runs keeps the
    /// guarantee ahead of every send the batch can emit, mirroring the
    /// window-min-before-push invariant of the optimistic send path.
    #[inline]
    fn process(
        &self,
        me: usize,
        bound: VirtualTime,
        engine: &mut ThreadEngine<M>,
        max: usize,
        outbox: &mut Vec<Outbound<M::Payload>>,
    ) -> BatchOutcome {
        let guarantee = engine
            .local_min()
            .min(bound)
            .saturating_add(self.plane.lookahead());
        self.plane.publish(me, guarantee);
        engine.process_conservative(bound, max, outbox)
    }

    /// Queued input is demand exactly as in the optimistic protocol, and
    /// additionally a parked pending floor strictly below the thread's
    /// processing bound means its blocked channels have opened.
    fn has_demand(&self, sh: &RtShared<M::Payload>, i: usize) -> bool {
        sh.len(i) > 0 || sh.demand.park_min(i) < <Self as Protocol<M>>::horizon(self, i, sh)
    }

    fn round_instants(&self, sh: &RtShared<M::Payload>, tracer: &mut Tracer) {
        let d = self.plane.null_round_delta();
        if d > 0 {
            tracer.instant(EventKind::NullMsg, sh.now_ns(), d);
        }
    }

    fn tag_metrics(&self, m: &mut RunMetrics) {
        m.protocol = "conservative".into();
        m.null_messages_sent = self.plane.null_messages();
        m.lbts_rounds = m.gvt_rounds;
    }

    fn stall_reason(idle_secs: f64, bound_secs: f64) -> String {
        format!(
            "no LBTS progress for {idle_secs:.1}s (bound {bound_secs:.1}s) — \
             null-message protocol wedged"
        )
    }
}

/// Run `model` conservatively on real threads. Blocks until the simulation
/// completes, a worker panics, or the watchdog trips — never hangs while the
/// watchdog is armed. Inadmissible runs are refused before anything spawns.
/// The outcome's metrics carry `protocol: "conservative"`,
/// `null_messages_sent` and `lbts_rounds`.
pub fn run_cons<M: Model>(model: &Arc<M>, rc: &ConsRunConfig) -> Result<RunOutcome, ConsError> {
    Conservative::admit(model.as_ref(), rc)?;
    run_threads_attempt::<M, Conservative>(model, rc, None, None, None)
        .outcome
        .map_err(ConsError::Run)
}
