//! # ggpdes-core — platform-independent Time Warp PDES primitives
//!
//! This crate implements the optimistic (Time Warp) discrete-event core that
//! the GG-PDES runtimes are built on, following the ROSS shared-memory design
//! described in *GVT-Guided Demand-Driven Scheduling in Parallel Discrete
//! Event Simulation* (Eker et al., ICPP 2021), §2:
//!
//! * [`time::VirtualTime`] — fixed-point virtual time with total ordering;
//! * [`model::Model`] — the application interface (LP states + handlers);
//! * [`lp::LpCore`] — per-LP state saving, rollback, fossil collection, on
//!   history kept in one store per thread; [`lp::Lp`] — an LP with a store
//!   of its own;
//! * [`pending::EventQueue`] — the one event queue, a one-rung ladder
//!   queue (a bottom heap, a rung of buckets, an unsorted top) with O(1)
//!   amortised operations, drained by the oracle; [`pending::PendingSet`]
//!   — the per-thread pending event set on it, with anti-message
//!   annihilation through a chain of pending events per destination LP;
//!   both it and the history store keep their values in the crate's one
//!   slab (`slab.rs`: `u32` handles, a free chain);
//! * [`engine::ThreadEngine`] — the per-simulation-thread engine combining
//!   the above: optimistic batches, straggler rollbacks, anti-message
//!   cascades;
//! * [`sequential`] — the correctness oracle: handlers in global key order
//!   on each LP's state, RNG and send counter alone, with no `Lp` or history;
//! * [`plane::MessagePlane`] and [`sched`] — the control plane the
//!   shared-memory runtimes run on: input queues with their GVT coverage
//!   minima, round membership, Algorithms 1, 2 and 4; [`batch::SendBatcher`]
//!   — the one way a message enters an input queue;
//! * [`participant::Participant`] — one thread's half of a GVT round, the
//!   steps both of those runtimes' loops are sequences of;
//! * [`recovery`] — the checkpoint sink, attempt set-up and supervisor loop
//!   every runtime recovers through.
//!
//! Everything here is deterministic: RNG streams are per-LP and part of the
//! rolled-back state, event ordering is total, and no wall-clock or
//! hash-iteration order leaks into results.

pub mod batch;
pub mod board;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod event;
pub mod faults;
pub mod ids;
pub mod ingest;
pub mod lp;
pub mod mapping;
pub mod model;
pub mod participant;
pub mod pending;
pub mod plane;
pub mod recovery;
pub mod rng;
pub mod sched;
pub mod sequential;
mod slab;
pub mod stall;
pub mod stats;
pub mod system;
pub mod time;

pub use batch::{SendBatcher, SendSink};
pub use board::{RoundBoard, RoundTotals};
pub use checkpoint::{Checkpoint, CheckpointError, CutSnapshot, LpCheckpoint, SupervisorConfig};
pub use config::EngineConfig;
pub use engine::{BatchOutcome, DeliverOutcome, Outbound, ThreadEngine};
pub use event::{Event, EventKey, Msg};
pub use faults::{
    chaos_filter, BackpressureFault, DelayFault, FaultCounts, FaultCursor, FaultInjector,
    FaultKind, FaultPlan, ReorderFault, StragglerFault, WakeupFault,
};
pub use ids::{EventUid, LpId, SimThreadId};
pub use ingest::{
    IngestError, IngestGate, IngestJournal, IngestPort, IngestReply, IngestRequest, IngestStats,
    JournalRecord, PumpOutcome, ReplySlot, INGEST_SRC,
};
pub use mapping::{LpMap, MapKind};
pub use model::{Model, SendCtx};
pub use participant::{Participant, ThreadResult};
pub use plane::{CachePadded, MessagePlane};
pub use recovery::{
    build_engines, supervise, Attempt, AttemptFailure, CkptSink, CommitTrace, Recovered,
    SupervisedRun,
};
pub use rng::DetRng;
pub use sched::{
    ckpt_round_due, AffinityTable, Demand, IdleTracker, Membership, Phase, Round, Turnover,
    YieldCause, YieldCounts, YieldTier,
};
pub use sequential::{
    run_sequential, run_sequential_from, run_sequential_from_with, run_sequential_with,
    SequentialResult,
};
pub use stall::{RoundDump, StallDump, ThreadDump};
pub use stats::{RoundCounters, ThreadStats};
pub use system::{AffinityPolicy, GvtMode, Scheduler, SystemConfig};
pub use time::VirtualTime;
