//! External-event ingest: admission control, backpressure, and a
//! crash-durable journal.
//!
//! The gate is the runtime-side half of the ingest plane (`crates/ingest`
//! holds the client half). Externally-sourced, timestamped events enter a
//! *running* simulation through an [`IngestGate`]:
//!
//! * **Admission.** GVT is the irrevocable commit floor, so an external
//!   event is only admissible strictly above the last published GVT (plus a
//!   configurable lookahead guard band). Anything at or below the floor is
//!   refused with [`IngestReply::Rejected`] carrying the floor it was judged
//!   against — the client re-stamps and retries. Admission happens under the
//!   same mutex that fences GVT publication ([`IngestGate::fence_gvt`]), so
//!   an admitted event is either visible to a GVT computation (its receive
//!   time bounds the new GVT from below) or was judged against the *new*
//!   floor — the published GVT can never overshoot an admitted timestamp.
//! * **Backpressure.** Per-source queue occupancy is bounded: an over-quota
//!   source gets [`IngestReply::Busy`] with a retry hint. Above a global
//!   high-watermark the gate sheds the newest arrivals
//!   ([`IngestReply::Shed`]) instead of letting the backlog stall GVT
//!   rounds — admission work per round is capped by `max_per_pump`.
//! * **Durability.** Accepted events are appended to a JSONL journal
//!   (flushed per record, compacted with the same temp-file + rename
//!   discipline as [`crate::checkpoint`]) keyed by the client-supplied
//!   idempotency id, *before* they are injected. An admitted event is
//!   stamped `send_time = floor`; a checkpoint cut at GVT `G` includes
//!   exactly the pending events with `send_time < G`, so after a restore the
//!   journal suffix with `send_time ≥ G` is the exact complement — replaying
//!   it re-injects every accepted-but-uncommitted event exactly once.
//!   Duplicate submissions (client retries after a lost reply) are dropped
//!   against the journal-backed idempotency map.

use crate::event::{Event, EventKey};
use crate::ids::{EventUid, LpId};
use crate::mapping::LpMap;
use crate::time::VirtualTime;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The reserved source LP for ingest event uids: no model LP can be
/// `u32::MAX` (maps are dense from 0), so ingest uids never collide with
/// model-generated ones.
pub const INGEST_SRC: LpId = LpId(u32::MAX);

/// Per-shard uid namespace width: the shard id occupies the top 16 bits of
/// the 64-bit sequence, so shards mint disjoint ingest uids.
const SHARD_SHIFT: u32 = 48;

/// One externally-sourced event submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestRequest<P> {
    /// Client/source identifier (scopes the idempotency id and the
    /// per-source backpressure quota).
    pub source: u32,
    /// Client-supplied idempotency id, unique per source. Retries reuse it;
    /// the gate admits each `(source, id)` at most once.
    pub id: u64,
    /// Requested receive (virtual) time.
    pub at: VirtualTime,
    /// Destination LP.
    pub dst: LpId,
    pub payload: P,
}

/// Structured verdict on one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IngestReply {
    /// Journaled and injected; will commit exactly once.
    Accepted,
    /// Timestamp at or below the admission floor (GVT + guard band) it was
    /// judged against — re-stamp above `floor_ticks` and retry.
    Rejected { floor_ticks: u64 },
    /// The source is over its queue quota; retry after the hint.
    Busy { retry_after_ms: u64 },
    /// Global high-watermark reached; the newest arrival is shed.
    Shed,
    /// This `(source, id)` was already accepted (or is already queued).
    Duplicate,
    /// The gate is closed (simulation finished or shutting down).
    Closed,
}

/// Gate tuning knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestConfig {
    /// Lookahead guard band in ticks above the floor: admissible means
    /// `at > floor + guard_ticks`.
    pub guard_ticks: u64,
    /// Per-source queued-submission cap (`Busy` beyond it).
    pub source_capacity: usize,
    /// Global queued-submission cap (`Shed` beyond it).
    pub high_watermark: usize,
    /// Admissions processed per pump, so one flooded round cannot stall GVT.
    pub max_per_pump: usize,
    /// Retry hint returned with `Busy`.
    pub retry_after_ms: u64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            guard_ticks: 0,
            source_capacity: 64,
            high_watermark: 256,
            max_per_pump: 64,
            retry_after_ms: 1,
        }
    }
}

/// Gate counters (cumulative; snapshotted into telemetry round records).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestStats {
    pub submitted: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub busy: u64,
    pub shed: u64,
    pub duplicate: u64,
    /// Journal records re-injected after a restore.
    pub replayed: u64,
}

/// Why a journal operation failed (mirrors [`crate::CheckpointError`]).
#[derive(Debug)]
pub enum IngestError {
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    Corrupt {
        path: PathBuf,
        detail: String,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io { path, source } => {
                write!(f, "ingest journal {}: {source}", path.display())
            }
            IngestError::Corrupt { path, detail } => {
                write!(
                    f,
                    "ingest journal {}: not a valid journal ({detail})",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io { source, .. } => Some(source),
            IngestError::Corrupt { .. } => None,
        }
    }
}

/// One journal line: the idempotency key plus the exact admitted event
/// (uid and send stamp included, so a replay reconstructs it bit-identical).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord<P> {
    pub source: u32,
    pub id: u64,
    pub event: Event<P>,
}

/// Append-only JSONL journal of accepted events. Appends are flushed per
/// record; a torn final line (crash mid-append) is tolerated on read;
/// compaction rewrites through a temp file + rename.
pub struct IngestJournal {
    path: PathBuf,
    file: std::fs::File,
}

impl IngestJournal {
    /// Open (creating if absent) for appending.
    pub fn open(path: &Path) -> Result<Self, IngestError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|source| IngestError::Io {
                path: path.to_path_buf(),
                source,
            })?;
        Ok(IngestJournal {
            path: path.to_path_buf(),
            file,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record and flush it to the OS.
    pub fn append<P: Serialize>(&mut self, rec: &JournalRecord<P>) -> Result<(), IngestError> {
        let io_err = |source| IngestError::Io {
            path: self.path.clone(),
            source,
        };
        let mut line = serde_json::to_string(rec).expect("journal serialization is infallible");
        line.push('\n');
        self.file.write_all(line.as_bytes()).map_err(io_err)?;
        self.file.flush().map_err(io_err)
    }

    /// Read every record from `path`. A missing file reads as empty (a run
    /// that never accepted anything has no journal); an unparsable *final*
    /// line is a torn append and is dropped; an unparsable interior line is
    /// `Corrupt`.
    pub fn read_all<P: Deserialize>(path: &Path) -> Result<Vec<JournalRecord<P>>, IngestError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(source) => {
                return Err(IngestError::Io {
                    path: path.to_path_buf(),
                    source,
                })
            }
        };
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut out = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            match serde_json::from_str::<JournalRecord<P>>(line) {
                Ok(rec) => out.push(rec),
                Err(_) if i + 1 == lines.len() => break, // torn tail
                Err(e) => {
                    return Err(IngestError::Corrupt {
                        path: path.to_path_buf(),
                        detail: format!("line {}: {e}", i + 1),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Rewrite `path` to exactly `keep`, atomically (temp file + rename —
    /// the same discipline as `Checkpoint::write_atomic`).
    pub fn compact<P: Serialize>(
        path: &Path,
        keep: &[JournalRecord<P>],
    ) -> Result<(), IngestError> {
        let io_err = |source| IngestError::Io {
            path: path.to_path_buf(),
            source,
        };
        let mut text = String::new();
        for rec in keep {
            text.push_str(&serde_json::to_string(rec).expect("journal serialization"));
            text.push('\n');
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, text).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)
    }
}

/// Where an eventual verdict for a queued submission goes.
pub enum ReplySlot {
    /// Fire-and-forget (feeders that don't track outcomes).
    None,
    /// Local callback, invoked exactly once when the verdict is known.
    Local(Box<dyn FnOnce(IngestReply) + Send>),
    /// The submission was forwarded from another shard: the verdict must be
    /// sent back to `peer` tagged with the origin's `key`.
    Remote { peer: u64, key: u64 },
}

/// A queued submission awaiting a pump.
pub struct PendingEntry<P> {
    pub req: IngestRequest<P>,
    pub slot: ReplySlot,
}

/// What one [`IngestGate::pump`] produced beyond locally injected events.
#[derive(Default)]
pub struct PumpOutcome<P> {
    /// Events handed to the sink (already injected).
    pub injected: u64,
    /// Submissions for LPs this gate's runtime does not own — the caller
    /// routes them to the owning shard (empty outside `dist-rt`).
    pub forward: Vec<PendingEntry<P>>,
    /// Verdicts for forwarded submissions: `(peer, key, reply)`.
    pub remote_replies: Vec<(u64, u64, IngestReply)>,
}

impl<P> PumpOutcome<P> {
    fn new() -> Self {
        PumpOutcome {
            injected: 0,
            forward: Vec::new(),
            remote_replies: Vec::new(),
        }
    }
}

struct GateInner<P> {
    cfg: IngestConfig,
    /// Admission floor in ticks: the last GVT this gate was fenced with
    /// (monotone — never lowered, not even by a restore).
    floor_ticks: u64,
    closed: bool,
    queue: VecDeque<PendingEntry<P>>,
    queued_ids: HashSet<(u32, u64)>,
    per_source: HashMap<u32, usize>,
    /// Idempotency map: every admitted `(source, id)` with its exact event.
    accepted: HashMap<(u32, u64), Event<P>>,
    /// Cross-process replay suffix staged by [`IngestGate::stage_replay`];
    /// the next pump drains it straight to the sink ahead of the queue.
    staged_replay: Vec<Event<P>>,
    journal: Option<IngestJournal>,
    next_seq: u64,
    uid_base: u64,
    stats: IngestStats,
    /// Test hook: simulate a crash in the window between the journal append
    /// and the engine injection — the next admission journals its record,
    /// then the pump returns without injecting or replying.
    fail_after_append: bool,
}

/// The runtime-side ingest gate. One mutex serializes submission triage,
/// admission pumping, and GVT fencing — see the module docs for why that
/// mutual exclusion is the admission-safety argument.
pub struct IngestGate<P> {
    inner: Mutex<GateInner<P>>,
}

impl<P> IngestGate<P> {
    /// A gate with no journal (events are not durable across a process
    /// crash; in-process recovery still replays from the accepted map).
    pub fn new(cfg: IngestConfig, shard: u64) -> Self {
        IngestGate {
            inner: Mutex::new(GateInner {
                cfg,
                floor_ticks: 0,
                closed: false,
                queue: VecDeque::new(),
                queued_ids: HashSet::new(),
                per_source: HashMap::new(),
                accepted: HashMap::new(),
                staged_replay: Vec::new(),
                journal: None,
                next_seq: 0,
                uid_base: shard << SHARD_SHIFT,
                stats: IngestStats::default(),
                fail_after_append: false,
            }),
        }
    }

    /// A gate journaling to `path` (fresh run: an existing journal is left
    /// in place and appended to; use [`Self::recover`] to replay one).
    pub fn with_journal(cfg: IngestConfig, shard: u64, path: &Path) -> Result<Self, IngestError> {
        let gate = Self::new(cfg, shard);
        gate.lock().journal = Some(IngestJournal::open(path)?);
        Ok(gate)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateInner<P>> {
        // A panic while holding the gate lock (worker kill chaos) must not
        // wedge every later submission: the inner state is consistent at
        // every await-free step, so poisoning is survivable.
        crate::plane::lock(&self.inner)
    }

    /// Submit one request. `Some(reply)` is an immediate verdict (the slot
    /// is dropped unused); `None` means the request is queued and `slot`
    /// will receive the verdict at a later pump.
    pub fn submit(&self, req: IngestRequest<P>, slot: ReplySlot) -> Option<IngestReply> {
        let mut g = self.lock();
        g.stats.submitted += 1;
        if g.closed {
            return Some(IngestReply::Closed);
        }
        let key = (req.source, req.id);
        if g.accepted.contains_key(&key) || g.queued_ids.contains(&key) {
            g.stats.duplicate += 1;
            return Some(IngestReply::Duplicate);
        }
        // The floor is monotone, so a timestamp inadmissible now can never
        // become admissible: reject at the door with the current floor.
        if req.at.ticks() <= g.floor_ticks.saturating_add(g.cfg.guard_ticks) {
            g.stats.rejected += 1;
            return Some(IngestReply::Rejected {
                floor_ticks: g.floor_ticks,
            });
        }
        if g.queue.len() >= g.cfg.high_watermark {
            g.stats.shed += 1;
            return Some(IngestReply::Shed);
        }
        let used = g.per_source.get(&req.source).copied().unwrap_or(0);
        if used >= g.cfg.source_capacity {
            g.stats.busy += 1;
            return Some(IngestReply::Busy {
                retry_after_ms: g.cfg.retry_after_ms,
            });
        }
        g.per_source.insert(req.source, used + 1);
        g.queued_ids.insert(key);
        g.queue.push_back(PendingEntry { req, slot });
        None
    }

    /// Record a newly published GVT as the admission floor, computed *under
    /// the gate lock* so no admission can interleave with it.
    pub fn fence_gvt(&self, compute: impl FnOnce() -> VirtualTime) -> VirtualTime {
        let mut g = self.lock();
        let gvt = compute();
        g.floor_ticks = g.floor_ticks.max(gvt.ticks());
        gvt
    }

    /// Raise the admission floor (single-threaded runtimes where GVT
    /// adoption and admission cannot race).
    pub fn set_floor(&self, gvt: VirtualTime) {
        let mut g = self.lock();
        g.floor_ticks = g.floor_ticks.max(gvt.ticks());
    }

    /// Current admission floor in ticks.
    pub fn floor_ticks(&self) -> u64 {
        self.lock().floor_ticks
    }

    fn resolve(out: &mut PumpOutcome<P>, slot: ReplySlot, reply: IngestReply) {
        match slot {
            ReplySlot::None => {}
            ReplySlot::Local(f) => f(reply),
            ReplySlot::Remote { peer, key } => out.remote_replies.push((peer, key, reply)),
        }
    }

    /// Number of distinct accepted idempotency ids.
    pub fn accepted_count(&self) -> usize {
        self.lock().accepted.len()
    }

    /// Whether `(source, id)` was admitted.
    pub fn was_accepted(&self, source: u32, id: u64) -> bool {
        self.lock().accepted.contains_key(&(source, id))
    }

    /// Queued submissions right now (bounded by `high_watermark`).
    pub fn queued_len(&self) -> usize {
        self.lock().queue.len()
    }

    pub fn stats(&self) -> IngestStats {
        self.lock().stats
    }

    /// Refuse all future submissions and fail the queued ones with `Closed`.
    pub fn close(&self) {
        let mut g = self.lock();
        g.closed = true;
        let mut out = PumpOutcome::new();
        while let Some(entry) = g.queue.pop_front() {
            let key = (entry.req.source, entry.req.id);
            g.queued_ids.remove(&key);
            Self::resolve(&mut out, entry.slot, IngestReply::Closed);
        }
        g.per_source.clear();
        // Remote slots have no transport here; the dist node drains its
        // forward map on shutdown instead.
    }

    /// Arm the crash-window test hook (see `GateInner::fail_after_append`).
    pub fn set_fail_after_append(&self, on: bool) {
        self.lock().fail_after_append = on;
    }

    /// Stage the replay suffix returned by [`IngestGate::recover`] for
    /// injection at the next pump of a **fresh** run. The events are
    /// already journaled and in the accepted map, so they bypass admission
    /// and go straight to the sink — exactly once, ahead of any new
    /// admission. (Per-shard journals only ever hold locally-owned events —
    /// forwarding happens before admission — so staged events never need
    /// re-routing under an unchanged LP map.)
    pub fn stage_replay(&self, replay: Vec<Event<P>>) {
        self.lock().staged_replay.extend(replay);
    }
}

impl<P: Clone + Serialize> IngestGate<P> {
    /// Admit queued submissions against the current floor. `owned` says
    /// whether this runtime hosts the destination LP (always true outside
    /// `dist-rt`); `sink` receives each admitted event *while the gate lock
    /// is held*, so no GVT fence can interleave between the admission check
    /// and the injection. At most `max_per_pump` entries are processed.
    pub fn pump(
        &self,
        mut owned: impl FnMut(LpId) -> bool,
        sink: &mut dyn FnMut(Event<P>),
    ) -> Result<PumpOutcome<P>, IngestError> {
        let mut g = self.lock();
        let mut out = PumpOutcome::new();
        // Staged cross-process replay first: pre-admitted, pre-journaled,
        // not charged against `max_per_pump` (a one-time, journal-bounded
        // burst that must land before any fresh admission can outrun it).
        for ev in std::mem::take(&mut g.staged_replay) {
            out.injected += 1;
            sink(ev);
        }
        for _ in 0..g.cfg.max_per_pump {
            let Some(entry) = g.queue.pop_front() else {
                break;
            };
            let key = (entry.req.source, entry.req.id);
            g.queued_ids.remove(&key);
            if let Some(n) = g.per_source.get_mut(&entry.req.source) {
                *n = n.saturating_sub(1);
            }
            let admissible = entry.req.at.ticks() > g.floor_ticks.saturating_add(g.cfg.guard_ticks);
            if !admissible {
                g.stats.rejected += 1;
                let floor = g.floor_ticks;
                Self::resolve(
                    &mut out,
                    entry.slot,
                    IngestReply::Rejected { floor_ticks: floor },
                );
                continue;
            }
            if !owned(entry.req.dst) {
                out.forward.push(entry);
                continue;
            }
            let seq = g.next_seq;
            g.next_seq += 1;
            let ev = Event {
                key: EventKey {
                    recv_time: entry.req.at,
                    dst: entry.req.dst,
                    uid: EventUid::new(INGEST_SRC, g.uid_base | seq),
                },
                send_time: VirtualTime::from_ticks(g.floor_ticks),
                payload: entry.req.payload.clone(),
            };
            if let Some(journal) = &mut g.journal {
                journal.append(&JournalRecord {
                    source: entry.req.source,
                    id: entry.req.id,
                    event: ev.clone(),
                })?;
            }
            g.accepted.insert(key, ev.clone());
            g.stats.admitted += 1;
            if g.fail_after_append {
                // Crash-window simulation: journaled, never injected, no
                // reply — exactly what a kill between append and injection
                // leaves behind.
                return Ok(out);
            }
            out.injected += 1;
            sink(ev);
            Self::resolve(&mut out, entry.slot, IngestReply::Accepted);
        }
        Ok(out)
    }

    /// Every admitted event so far, in key order — feeds the merged-stream
    /// sequential oracle.
    pub fn accepted_events(&self) -> Vec<Event<P>> {
        let g = self.lock();
        let mut evs: Vec<Event<P>> = g.accepted.values().cloned().collect();
        evs.sort_by_key(|e| e.key);
        evs
    }

    /// Re-inject after an **in-process** restore from a cut at `cut_gvt`:
    /// the cut holds every accepted event with `send_time < cut_gvt`, so the
    /// complement (`send_time ≥ cut_gvt`) is handed back to `sink` — exactly
    /// once, from the accepted map the surviving gate still holds. A restart
    /// from genesis passes `cut_gvt = 0` and gets everything ever accepted.
    /// Any staged cross-process replay suffix is discarded: it is a subset
    /// of what `sink` receives here, and letting the next pump inject it
    /// too would commit those ids twice.
    pub fn reinject_after_restore(&self, cut_gvt: VirtualTime, sink: &mut dyn FnMut(Event<P>)) {
        let mut g = self.lock();
        // `recover` pre-charged `stats.replayed` for the staged suffix; the
        // discard hands those events to `sink` below instead, so drop the
        // pre-charge rather than count them twice.
        let discarded = g.staged_replay.len() as u64;
        g.staged_replay.clear();
        g.stats.replayed = g.stats.replayed.saturating_sub(discarded);
        g.floor_ticks = g.floor_ticks.max(cut_gvt.ticks());
        let mut evs: Vec<Event<P>> = g
            .accepted
            .values()
            .filter(|e| e.send_time >= cut_gvt)
            .cloned()
            .collect();
        evs.sort_by_key(|e| e.key);
        g.stats.replayed += evs.len() as u64;
        for ev in evs {
            sink(ev);
        }
    }
}

impl<P: Clone + Serialize + Deserialize> IngestGate<P> {
    /// Rebuild a gate from its journal after a **cross-process** restore
    /// from a cut at `cut_gvt`. The accepted map is reloaded from every
    /// journal record (so client retries still dedup), the floor starts at
    /// the cut, and the returned events — the journal suffix with
    /// `send_time ≥ cut_gvt` — must be re-injected by the caller, exactly
    /// once, in the returned (key) order.
    pub fn recover(
        cfg: IngestConfig,
        shard: u64,
        path: &Path,
        cut_gvt: VirtualTime,
    ) -> Result<(Self, Vec<Event<P>>), IngestError> {
        let records = IngestJournal::read_all::<P>(path)?;
        let gate = Self::new(cfg, shard);
        let mut replay = Vec::new();
        {
            let mut g = gate.lock();
            g.floor_ticks = cut_gvt.ticks();
            for rec in records {
                // Resume the uid sequence past every minted seq so new
                // admissions never collide with journaled ones.
                let seq = rec.event.key.uid.seq & !(u64::MAX << SHARD_SHIFT);
                g.next_seq = g.next_seq.max(seq + 1);
                if rec.event.send_time >= cut_gvt {
                    replay.push(rec.event.clone());
                }
                g.accepted.insert((rec.source, rec.id), rec.event);
            }
            g.stats.replayed = replay.len() as u64;
            g.journal = Some(IngestJournal::open(path)?);
        }
        replay.sort_by_key(|e| e.key);
        Ok((gate, replay))
    }
}

/// The ingest wiring of one run — what every runtime's round closer holds:
/// the shared admission gate, the LP → thread map that routes admitted
/// events, the previous round's counters (for per-round deltas) and the
/// first journal failure a pump met.
pub struct IngestPort<P> {
    pub gate: Arc<IngestGate<P>>,
    map: LpMap,
    prev: Mutex<(u64, u64, u64, u64)>,
    error: Mutex<Option<IngestError>>,
}

impl<P> IngestPort<P> {
    pub fn new(gate: Arc<IngestGate<P>>, map: LpMap) -> Self {
        IngestPort {
            gate,
            map,
            prev: Mutex::new((0, 0, 0, 0)),
            error: Mutex::new(None),
        }
    }

    /// Cumulative gate counters `(admitted, rejected, shed, busy)` — the
    /// `ingest` field of a round snapshot.
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        let s = self.gate.stats();
        (s.admitted, s.rejected, s.shed, s.busy)
    }

    /// [`Self::totals`] since the previous call: the round closer's four
    /// telemetry instants.
    pub fn round_deltas(&self) -> (u64, u64, u64, u64) {
        let now = self.totals();
        let mut prev = crate::plane::lock(&self.prev);
        let d = (
            now.0.saturating_sub(prev.0),
            now.1.saturating_sub(prev.1),
            now.2.saturating_sub(prev.2),
            now.3.saturating_sub(prev.3),
        );
        *prev = now;
        d
    }

    /// Take the first journal failure a pump met (the runner surfaces it as
    /// the run's error: accepted events must be durable).
    pub fn take_error(&self) -> Option<IngestError> {
        crate::plane::lock(&self.error).take()
    }
}

impl<P: Clone + Serialize> IngestPort<P> {
    /// Admit queued submissions — called by a round's pseudo-controller
    /// right after it published the GVT. `route(thread, event)` receives
    /// each admitted event, already journaled, *inside* the gate lock, so
    /// the admission check, the durability append and the caller's
    /// queue-accounting publish are one atomic step with respect to the
    /// next GVT fence. Returns the number injected; a journal failure parks
    /// the error for [`Self::take_error`] (the run fails rather than
    /// silently accepting events a crash would lose).
    pub fn pump(&self, mut route: impl FnMut(usize, Event<P>)) -> u64 {
        let map = &self.map;
        let res = self.gate.pump(|_| true, &mut |ev| {
            route(map.thread_of(ev.key.dst).index(), ev)
        });
        match res {
            Ok(out) => out.injected,
            Err(e) => {
                crate::plane::lock(&self.error).get_or_insert(e);
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(source: u32, id: u64, at: f64) -> IngestRequest<u32> {
        IngestRequest {
            source,
            id,
            at: VirtualTime::from_f64(at),
            dst: LpId(0),
            payload: id as u32,
        }
    }

    fn pump_all(gate: &IngestGate<u32>) -> Vec<Event<u32>> {
        let mut got = Vec::new();
        gate.pump(|_| true, &mut |ev| got.push(ev)).expect("pump");
        got
    }

    #[test]
    fn staged_replay_drains_once_ahead_of_fresh_admissions() {
        let dir = std::env::temp_dir().join(format!("ggpdes-ingest-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("stage-replay.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let gate: IngestGate<u32> =
                IngestGate::with_journal(IngestConfig::default(), 0, &path).expect("journal");
            gate.submit(req(1, 1, 2.0), ReplySlot::None);
            gate.submit(req(1, 2, 3.0), ReplySlot::None);
            assert_eq!(pump_all(&gate).len(), 2);
        }
        let (gate, replay) =
            IngestGate::<u32>::recover(IngestConfig::default(), 0, &path, VirtualTime::ZERO)
                .expect("recover");
        assert_eq!(replay.len(), 2);
        gate.stage_replay(replay);
        // A fresh admission queued behind the staged suffix.
        gate.submit(req(1, 3, 4.0), ReplySlot::None);
        let got = pump_all(&gate);
        assert_eq!(got.len(), 3, "staged pair + fresh admission in one pump");
        assert_eq!(got[2].key.recv_time, VirtualTime::from_f64(4.0));
        // Drained exactly once.
        assert!(pump_all(&gate).is_empty());
        // Retries of replayed ids still dedup against the recovered map.
        assert_eq!(
            gate.submit(req(1, 2, 3.0), ReplySlot::None),
            Some(IngestReply::Duplicate)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejection_carries_the_floor_it_was_judged_against() {
        let gate: IngestGate<u32> = IngestGate::new(IngestConfig::default(), 0);
        gate.set_floor(VirtualTime::from_f64(10.0));
        let r = gate.submit(req(1, 1, 5.0), ReplySlot::None);
        assert_eq!(
            r,
            Some(IngestReply::Rejected {
                floor_ticks: VirtualTime::from_f64(10.0).ticks()
            })
        );
    }

    #[test]
    fn admission_is_strictly_above_floor_plus_guard() {
        let cfg = IngestConfig {
            guard_ticks: VirtualTime::from_f64(1.0).ticks(),
            ..Default::default()
        };
        let gate: IngestGate<u32> = IngestGate::new(cfg, 0);
        gate.set_floor(VirtualTime::from_f64(10.0));
        assert!(matches!(
            gate.submit(req(1, 1, 11.0), ReplySlot::None),
            Some(IngestReply::Rejected { .. })
        ));
        assert_eq!(gate.submit(req(1, 2, 11.5), ReplySlot::None), None);
        let got = pump_all(&gate);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].key.recv_time, VirtualTime::from_f64(11.5));
        assert_eq!(got[0].send_time, VirtualTime::from_f64(10.0));
        assert_eq!(got[0].key.uid.src, INGEST_SRC);
    }

    #[test]
    fn duplicate_ids_admit_once() {
        let gate: IngestGate<u32> = IngestGate::new(IngestConfig::default(), 0);
        assert_eq!(gate.submit(req(1, 7, 5.0), ReplySlot::None), None);
        assert_eq!(
            gate.submit(req(1, 7, 6.0), ReplySlot::None),
            Some(IngestReply::Duplicate)
        );
        pump_all(&gate);
        assert_eq!(
            gate.submit(req(1, 7, 8.0), ReplySlot::None),
            Some(IngestReply::Duplicate)
        );
        assert_eq!(gate.accepted_count(), 1);
        // A different source may reuse the id.
        assert_eq!(gate.submit(req(2, 7, 8.0), ReplySlot::None), None);
    }

    #[test]
    fn per_source_quota_yields_busy_and_watermark_sheds() {
        let cfg = IngestConfig {
            source_capacity: 2,
            high_watermark: 3,
            ..Default::default()
        };
        let gate: IngestGate<u32> = IngestGate::new(cfg, 0);
        assert_eq!(gate.submit(req(1, 1, 5.0), ReplySlot::None), None);
        assert_eq!(gate.submit(req(1, 2, 5.0), ReplySlot::None), None);
        assert_eq!(
            gate.submit(req(1, 3, 5.0), ReplySlot::None),
            Some(IngestReply::Busy { retry_after_ms: 1 })
        );
        assert_eq!(gate.submit(req(2, 1, 5.0), ReplySlot::None), None);
        assert_eq!(
            gate.submit(req(3, 1, 5.0), ReplySlot::None),
            Some(IngestReply::Shed),
            "high watermark sheds the newest arrival"
        );
        assert_eq!(gate.queued_len(), 3);
        let s = gate.stats();
        assert_eq!((s.busy, s.shed), (1, 1));
    }

    #[test]
    fn pump_rejects_entries_the_floor_overtook() {
        let gate: IngestGate<u32> = IngestGate::new(IngestConfig::default(), 0);
        let got_reply = std::sync::Arc::new(Mutex::new(None));
        let gr = std::sync::Arc::clone(&got_reply);
        assert_eq!(
            gate.submit(
                req(1, 1, 5.0),
                ReplySlot::Local(Box::new(move |r| *gr.lock().unwrap() = Some(r)))
            ),
            None
        );
        // The floor advances past the queued timestamp before the pump.
        gate.set_floor(VirtualTime::from_f64(9.0));
        let got = pump_all(&gate);
        assert!(got.is_empty());
        assert_eq!(
            *got_reply.lock().unwrap(),
            Some(IngestReply::Rejected {
                floor_ticks: VirtualTime::from_f64(9.0).ticks()
            })
        );
        // The id is free again for a re-stamped retry.
        assert_eq!(gate.submit(req(1, 1, 12.0), ReplySlot::None), None);
    }

    #[test]
    fn non_owned_destinations_are_forwarded() {
        let gate: IngestGate<u32> = IngestGate::new(IngestConfig::default(), 0);
        let mut r = req(1, 1, 5.0);
        r.dst = LpId(3);
        gate.submit(r, ReplySlot::None);
        let out = gate
            .pump(|lp| lp != LpId(3), &mut |_| panic!("must not inject"))
            .expect("pump");
        assert_eq!(out.forward.len(), 1);
        assert_eq!(out.forward[0].req.dst, LpId(3));
        assert_eq!(gate.accepted_count(), 0);
    }

    #[test]
    fn journal_roundtrip_and_recovery_replays_suffix_exactly() {
        let dir = std::env::temp_dir().join(format!("ingest-j-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal-roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let gate: IngestGate<u32> =
                IngestGate::with_journal(IngestConfig::default(), 0, &path).expect("open");
            gate.submit(req(1, 1, 5.0), ReplySlot::None);
            pump_all(&gate); // send_time = 0 (< cut)
            gate.set_floor(VirtualTime::from_f64(8.0));
            gate.submit(req(1, 2, 9.0), ReplySlot::None);
            pump_all(&gate); // send_time = 8 (≥ cut)
        }
        let cut = VirtualTime::from_f64(8.0);
        let (gate2, replay) =
            IngestGate::<u32>::recover(IngestConfig::default(), 0, &path, cut).expect("recover");
        assert_eq!(replay.len(), 1, "only the suffix above the cut replays");
        assert_eq!(replay[0].key.recv_time, VirtualTime::from_f64(9.0));
        // The idempotency map survives for both records.
        assert!(gate2.was_accepted(1, 1));
        assert!(gate2.was_accepted(1, 2));
        assert_eq!(
            gate2.submit(req(1, 2, 20.0), ReplySlot::None),
            Some(IngestReply::Duplicate)
        );
        // New admissions mint fresh uids past the journaled ones.
        gate2.submit(req(1, 3, 20.0), ReplySlot::None);
        let got = pump_all(&gate2);
        assert!(got[0].key.uid.seq > replay[0].key.uid.seq);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_tolerated_interior_corruption_is_not() {
        let dir = std::env::temp_dir().join(format!("ingest-j-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal-torn.jsonl");
        let rec = JournalRecord {
            source: 1,
            id: 1,
            event: Event {
                key: EventKey {
                    recv_time: VirtualTime::from_f64(5.0),
                    dst: LpId(0),
                    uid: EventUid::new(INGEST_SRC, 0),
                },
                send_time: VirtualTime::ZERO,
                payload: 1u32,
            },
        };
        let line = serde_json::to_string(&rec).unwrap();
        std::fs::write(&path, format!("{line}\n{line}\n{{\"torn")).unwrap();
        let back = IngestJournal::read_all::<u32>(&path).expect("torn tail tolerated");
        assert_eq!(back.len(), 2);
        std::fs::write(&path, format!("{line}\n{{broken}}\n{line}\n")).unwrap();
        assert!(matches!(
            IngestJournal::read_all::<u32>(&path),
            Err(IngestError::Corrupt { .. })
        ));
        IngestJournal::compact(&path, std::slice::from_ref(&rec)).expect("compact");
        let back = IngestJournal::read_all::<u32>(&path).expect("compacted");
        assert_eq!(back, vec![rec]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_between_append_and_inject_replays_exactly_once() {
        let dir = std::env::temp_dir().join(format!("ingest-j-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal-crashwin.jsonl");
        let _ = std::fs::remove_file(&path);
        let cut;
        {
            let gate: IngestGate<u32> =
                IngestGate::with_journal(IngestConfig::default(), 0, &path).expect("open");
            gate.set_floor(VirtualTime::from_f64(3.0));
            cut = VirtualTime::from_f64(3.0);
            gate.set_fail_after_append(true);
            gate.submit(req(1, 1, 5.0), ReplySlot::None);
            let got = pump_all(&gate);
            assert!(got.is_empty(), "crashed before injection");
        }
        // The newest cut G precedes the append (no publish ran in between),
        // so send_time = floor-at-append ≥ G and the record replays.
        let (_, replay) =
            IngestGate::<u32>::recover(IngestConfig::default(), 0, &path, cut).expect("recover");
        assert_eq!(replay.len(), 1);
        // …and only once: a second recovery from a later cut *above* the
        // send stamp means the event committed before that cut.
        let (_, replay2) = IngestGate::<u32>::recover(
            IngestConfig::default(),
            0,
            &path,
            VirtualTime::from_f64(4.0),
        )
        .expect("recover");
        assert!(replay2.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn close_fails_queued_submissions() {
        let gate: IngestGate<u32> = IngestGate::new(IngestConfig::default(), 0);
        let got = std::sync::Arc::new(Mutex::new(None));
        let g2 = std::sync::Arc::clone(&got);
        gate.submit(
            req(1, 1, 5.0),
            ReplySlot::Local(Box::new(move |r| *g2.lock().unwrap() = Some(r))),
        );
        gate.close();
        assert_eq!(*got.lock().unwrap(), Some(IngestReply::Closed));
        assert_eq!(
            gate.submit(req(1, 2, 5.0), ReplySlot::None),
            Some(IngestReply::Closed)
        );
    }
}
