//! # ggpdes-telemetry — live observability for every GG-PDES runtime
//!
//! The paper's argument is about *when* things happen — when threads are
//! scheduled in and out, how long each GVT phase takes, where rollback time
//! clusters — yet end-of-run aggregates (`RunMetrics`) flatten all of that
//! away. This crate is the shared substrate that records timelines instead:
//!
//! * [`ring::TraceRing`] — a fixed-capacity, power-of-two, drop-oldest ring
//!   of [`event::TraceRecord`]s. Each simulation thread owns its ring
//!   exclusively, so the hot path is a masked store and a counter bump — no
//!   locks, no atomics, no allocation (the "lock-free tracer").
//! * [`event::EventKind`] — the typed span/instant taxonomy: event batches,
//!   rollback episodes, the five GVT phases (A / Send / B / Aware / End),
//!   park/unpark, pin/migration, checkpoint writes, link retransmits.
//! * [`registry::Telemetry`] — the per-run registry: hands out tracers,
//!   collects them back at thread exit (off the hot path, behind a mutex),
//!   and accumulates per-GVT-round [`pdes_core::RoundCounters`] snapshots
//!   emitted at each round's End phase.
//! * [`RoundBoard`] (`pdes_core`'s, re-exported) — the per-thread LVT /
//!   counter cells every runtime publishes into and its round closer sums
//!   into one [`RoundTotals`] through [`Telemetry::close_round`], so
//!   `lvt_ticks[]` means the same thing everywhere.
//! * [`chrome`] — a Chrome `trace_event` JSON exporter (loadable in
//!   Perfetto / `chrome://tracing`) and a JSONL round-stream exporter.
//!
//! Everything is **off by default**: a disabled [`TelemetryConfig`] hands
//! out no-op tracers whose record calls are a single branch, so untraced
//! runs pay nothing measurable.
//!
//! Timestamps are caller-provided `u64` nanoseconds on whatever clock the
//! runtime lives on: monotonic wall time for `thread-rt`/`dist-rt`, virtual
//! time for `sim-rt`. `dist-rt` forwards each shard's [`TelemetryData`] to
//! the coordinator over the reliable link layer, where it is merged under a
//! per-shard clock-offset estimate (see [`TelemetryData::merge_shard`]).

pub mod chrome;
pub mod config;
pub mod event;
pub mod registry;
pub mod ring;

pub use chrome::{chrome_trace_json, round_stream_jsonl};
pub use config::TelemetryConfig;
pub use event::{EventKind, TraceRecord};
pub use pdes_core::{RoundBoard, RoundTotals};
pub use registry::{Telemetry, TelemetryData, ThreadTrace, Tracer};
pub use ring::TraceRing;
