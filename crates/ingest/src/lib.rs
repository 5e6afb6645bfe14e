//! # ggpdes-ingest — the client-facing external-event ingest plane
//!
//! [`pdes_core::ingest`] is the *runtime-side* half of the ingest plane:
//! admission control against the committed GVT floor, bounded per-source
//! queues with backpressure, and a crash-durable journal replayed
//! exactly-once across restores. This crate is the *client-facing* half —
//! everything a process feeding live events into a running simulation
//! needs:
//!
//! - [`client`] — a retrying submission client. On
//!   [`pdes_core::IngestReply::Rejected`] it re-stamps the event one tick
//!   above the returned floor and retries; on `Busy` it
//!   honors the server's retry hint under seeded capped-exponential
//!   backoff ([`dist_rt::Backoff`] — the same jitter the link layer uses);
//!   `Duplicate` is success (idempotency ids make retries safe); only
//!   `Closed` or [`client::MAX_ATTEMPTS`] spent ends a send.
//! - [`server`] — a TCP ingest server: one `u32`-length-prefixed
//!   [`dist_rt::wire`] frame per [`pdes_core::IngestRequest`], one frame
//!   per [`pdes_core::IngestReply`], bridging remote clients onto a local
//!   gate. [`server::TcpEndpoint`] is the matching client transport.
//! - [`source`] — event sources: JSONL script files (one request per
//!   line) and a deterministic seeded generator, plus a drive loop that
//!   pushes a whole script through a client and reports the outcomes.
//!
//! ## Correctness contract
//!
//! Every event a client is told was `Accepted` commits exactly once — in
//! the same position of the committed trace as a sequential oracle run fed
//! the merged (seeded + accepted) event stream — across worker kills,
//! shard kills, link chaos, and crash-restart from the journal. Every
//! rejection carries the floor it was judged against, so a client can
//! always make forward progress by re-stamping.

pub mod client;
pub mod server;
pub mod source;

pub use client::{
    local_endpoint, submit_and_wait, ClientError, IngestClient, SendOutcome, MAX_ATTEMPTS,
};
pub use server::{IngestServer, TcpEndpoint};
pub use source::{drive, parse_script, render_script, synth_requests, DriveReport};
