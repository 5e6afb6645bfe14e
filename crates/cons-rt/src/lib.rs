//! # ggpdes-cons-rt — the conservative null-message runtime
//!
//! Chandy–Misra–Bryant synchronization as a policy on the real-thread
//! runtime: `thread_rt` owns the worker loop, the rounds, parking,
//! checkpoints, telemetry and the attempt runner; this crate supplies
//! [`policy::Conservative`] — the `thread_rt::Protocol` that processes
//! strictly below a bound and never rolls back — and [`plane::ConsPlane`],
//! the channel clocks that replace explicit null messages on shared memory.
//!
//! The protocol in one paragraph: every model declares a strictly positive
//! **lookahead** (`Model::lookahead`) — a floor on the delay between
//! processing an event and any event it schedules. Each thread continuously
//! publishes `min(pending, bound) + lookahead` to its peers' channel clocks
//! (a `fetch_max`; each raise is the shared-memory form of a null message)
//! and processes strictly below `max(min input clock, LBTS + lookahead)`.
//! The periodic wait-free reduction the optimistic runtimes call a GVT round
//! doubles as an **LBTS round** here: same phases, same trace spans, same
//! checkpoint cuts, but the published value bounds the future instead of
//! ratifying the past. Positive lookahead guarantees every round strictly
//! advances the bound, so the protocol cannot deadlock; zero lookahead is
//! refused up front with [`ConsError::ZeroLookahead`], and the
//! liveness watchdog backstops models that break their declared contract.
//!
//! See DESIGN.md §15 for the safety argument and the deviations from
//! textbook CMB.

pub mod plane;
pub mod policy;

pub use plane::ConsPlane;
pub use policy::{run_cons, ConsError, ConsRunConfig, Conservative};
