//! # ggpdes-dist-rt — the engine across shards
//!
//! A multi-shard distributed runtime: the simulation is partitioned into
//! `N` shards, each running a [`pdes_core::ThreadEngine`] over its slice of
//! LPs and exchanging remote events / anti-messages over length-prefixed
//! frames on TCP sockets (or in-memory links for deterministic tests).
//!
//! The pieces, bottom-up:
//!
//! - [`wire`] — a compact binary codec over the vendored serde data model
//!   plus `u32`-length-prefixed framing.
//! - [`link`] — a reliable, in-order link layer (sequence numbers, cumulative
//!   acks, retransmission, dedup) over an unreliable packet transport. Link
//!   faults ([`LinkFaultPlan`]) — delay, drop, duplicate — are
//!   injected *below* this layer, so the retransmission machinery is what
//!   keeps the simulation correct under them.
//! - `gvt` — the shard's half of asynchronous Mattern-style distributed
//!   GVT: an epoch-colored cut per round and two white counters per peer,
//!   sends and receives — no global barrier, and shards keep processing
//!   while a round is in flight.
//! - [`node`] — one shard: pumps links, delivers remote messages into its
//!   engine, processes batches, participates in GVT rounds, contributes
//!   per-shard cuts to distributed checkpoints, and de-schedules itself when
//!   it holds no live work (demand-driven throttling at shard granularity).
//!   Three jobs have private owners it reaches through their methods: the
//!   `IngestRelay` (admission fence, forwarded submissions), the
//!   `PeerFences` (send log, round and replay fences of a partial
//!   recovery) and the `ShardTrace` (shard clock, park episodes, round
//!   close). On shard 0 it also holds the coordinator's side of the run
//!   (`Coord`): the GVT round itself — open, match the counters, re-poll
//!   (waves) until they do, publish — its pacing, the
//!   [`pdes_core::CkptSink`] the cut parts assemble in, the `Done` fold and
//!   the `FailureDetector`'s leases.
//! - [`launcher`] — one `Cluster` (mesh + nodes) that also makes the one
//!   decision a failure needs — restore the dead *partially* from the
//!   newest cut while the survivors replay their send logs, else restart
//!   every shard; degrade, join or leave by relaunching from a cut under a
//!   rebalanced map — and keeps the run's recovery books. Two drivers feed
//!   it: the threaded supervisor ([`run_loopback`]) and the deterministic
//!   single-threaded [`SteppedCluster`]; a third entry point runs one shard
//!   of a real multi-process mesh. Each starts with [`DistConfig::check`]
//!   (or [`ProcessOpts::check`]): a bad configuration is a
//!   [`DistError::Config`] before anything is built, not a panic.
//!
//! ## Correctness contract
//!
//! Every distributed run must commit the exact sequential-oracle trace:
//! identical commit digest, per-LP state digests, and pending digest — at
//! any shard count, under link faults, and across a kill-and-recover.
//! The distributed GVT is monotonically non-decreasing and never exceeds
//! the true global minimum (a delivered message below the published GVT is
//! a protocol error, not a silent wrong answer).

mod coord;
mod detector;
pub mod faults;
mod fences;
mod gvt;
pub mod launcher;
pub mod link;
pub mod node;
pub mod proto;
mod relay;
mod sendlog;
mod trace;
pub mod wire;

pub use coord::NodeOutcome;
pub use detector::HeartbeatConfig;
pub use faults::LinkFaultPlan;
pub use launcher::{
    run_loopback, run_loopback_ingest, run_shard_process, DistConfig, IngestGates, ProcessOpts,
    SteppedCluster, Transport,
};
pub use link::{Backoff, Inbox, MemTx, Packet, ReliableLink};
pub use node::{DistError, ReshapeAction};
pub use proto::Frame;
pub use wire::WireError;
