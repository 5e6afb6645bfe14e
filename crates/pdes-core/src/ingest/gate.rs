//! The admission gate: submission triage, the per-round admission pump, the
//! GVT fence and journal-backed recovery, all under one mutex.

use super::journal::{IngestJournal, JournalRecord};
use super::{IngestError, IngestReply, IngestRequest, IngestStats};
use super::{INGEST_SRC, SHARD_SHIFT};
use crate::event::{Event, EventKey};
use crate::ids::{EventUid, LpId, SimThreadId};
use crate::mapping::LpMap;
use crate::plane::lock;
use crate::time::VirtualTime;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;
use std::sync::Mutex;

/// Queued submissions one source may hold (`Busy` beyond it).
pub const SOURCE_CAPACITY: usize = 64;
/// Queued submissions across all sources (`Shed` beyond it): the gate's
/// memory bound, whatever the number of clients.
pub const HIGH_WATERMARK: usize = 256;
/// Admissions one pump processes, so one flooded round cannot stall GVT.
pub const MAX_PER_PUMP: usize = 64;

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
    /// Admission floor in ticks: the last GVT this gate was fenced with
    /// (monotone — never lowered, not even by a restore).
    floor_ticks: u64,
    closed: bool,
    queue: VecDeque<PendingEntry<P>>,
    queued_ids: HashSet<(u32, u64)>,
    per_source: HashMap<u32, usize>,
    /// Idempotency map: every admitted `(source, id)` with its exact event.
    accepted: HashMap<(u32, u64), Event<P>>,
    journal: Option<IngestJournal>,
    /// The LPs this gate admits for, where others exist (see
    /// [`IngestGate::set_owner`]); `None`: every LP.
    owner: Option<(LpMap, SimThreadId)>,
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
    /// Taken through [`lock`]: a panic while holding it (worker-kill chaos)
    /// must not wedge every later submission, and the state is consistent
    /// at every step, so poisoning is survivable.
    inner: Mutex<GateInner<P>>,
}

impl<P> IngestGate<P> {
    /// A gate with no journal (events are not durable across a process
    /// crash; in-process recovery still replays from the accepted map).
    pub fn new(shard: u64) -> Self {
        IngestGate {
            inner: Mutex::new(GateInner {
                floor_ticks: 0,
                closed: false,
                queue: VecDeque::new(),
                queued_ids: HashSet::new(),
                per_source: HashMap::new(),
                accepted: HashMap::new(),
                journal: None,
                owner: None,
                next_seq: 0,
                uid_base: shard << SHARD_SHIFT,
                stats: IngestStats::default(),
                fail_after_append: false,
            }),
        }
    }

    /// Submit one request. `Some(reply)` is an immediate verdict (the slot
    /// is dropped unused); `None` means the request is queued and `slot`
    /// will receive the verdict at a later pump.
    pub fn submit(&self, req: IngestRequest<P>, slot: ReplySlot) -> Option<IngestReply> {
        let mut g = lock(&self.inner);
        g.stats.submitted += 1;
        if g.closed {
            return Some(IngestReply::Closed);
        }
        let key = (req.source, req.id);
        // Only the destination's owner knows whether the id was admitted,
        // and judges it against its own floor.
        let owned = (g.owner.as_ref()).is_none_or(|(map, shard)| map.owns(*shard, req.dst));
        if owned && (g.accepted.contains_key(&key) || g.queued_ids.contains(&key)) {
            g.stats.duplicate += 1;
            return Some(IngestReply::Duplicate);
        }
        // The floor is monotone, so a timestamp inadmissible now can never
        // become admissible: reject at the door with the current floor.
        if owned && req.at.ticks() <= g.floor_ticks {
            g.stats.rejected += 1;
            return Some(IngestReply::Rejected {
                floor_ticks: g.floor_ticks,
            });
        }
        if g.queue.len() >= HIGH_WATERMARK {
            g.stats.shed += 1;
            return Some(IngestReply::Shed);
        }
        let used = g.per_source.get(&req.source).copied().unwrap_or(0);
        if used >= SOURCE_CAPACITY {
            /// The retry hint `Busy` carries.
            const RETRY_AFTER_MS: u64 = 1;
            g.stats.busy += 1;
            return Some(IngestReply::Busy {
                retry_after_ms: RETRY_AFTER_MS,
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
        let mut g = lock(&self.inner);
        let gvt = compute();
        g.floor_ticks = g.floor_ticks.max(gvt.ticks());
        gvt
    }

    /// Raise the admission floor (single-threaded runtimes where GVT
    /// adoption and admission cannot race).
    pub fn set_floor(&self, gvt: VirtualTime) {
        let mut g = lock(&self.inner);
        g.floor_ticks = g.floor_ticks.max(gvt.ticks());
    }

    /// Admit only for the LPs `map` gives `shard` (a shard of a
    /// distributed run): a submission for another LP is queued unjudged,
    /// for [`Self::pump`] to forward to its owner's gate.
    pub fn set_owner(&self, map: LpMap, shard: SimThreadId) {
        lock(&self.inner).owner = Some((map, shard));
    }

    /// Current admission floor in ticks.
    pub fn floor_ticks(&self) -> u64 {
        lock(&self.inner).floor_ticks
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
        lock(&self.inner).accepted.len()
    }

    /// Whether `(source, id)` was admitted.
    pub fn was_accepted(&self, source: u32, id: u64) -> bool {
        lock(&self.inner).accepted.contains_key(&(source, id))
    }

    /// Queued submissions right now (bounded by [`HIGH_WATERMARK`]).
    pub fn queued_len(&self) -> usize {
        lock(&self.inner).queue.len()
    }

    pub fn stats(&self) -> IngestStats {
        lock(&self.inner).stats
    }

    /// Refuse all future submissions and fail the queued ones with `Closed`.
    pub fn close(&self) {
        let mut g = lock(&self.inner);
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
        lock(&self.inner).fail_after_append = on;
    }
}

impl<P: Clone + Serialize> IngestGate<P> {
    /// Admit queued submissions against the current floor. `owned` says
    /// whether this runtime hosts the destination LP (always true outside
    /// `dist-rt`); `sink` receives each admitted event *while the gate lock
    /// is held*, so no GVT fence can interleave between the admission check
    /// and the injection. At most [`MAX_PER_PUMP`] entries are processed.
    pub fn pump(
        &self,
        mut owned: impl FnMut(LpId) -> bool,
        sink: &mut dyn FnMut(Event<P>),
    ) -> Result<PumpOutcome<P>, IngestError> {
        let mut g = lock(&self.inner);
        let mut out = PumpOutcome::new();
        for _ in 0..MAX_PER_PUMP {
            let Some(entry) = g.queue.pop_front() else {
                break;
            };
            let key = (entry.req.source, entry.req.id);
            g.queued_ids.remove(&key);
            if let Some(n) = g.per_source.get_mut(&entry.req.source) {
                *n = n.saturating_sub(1);
            }
            // Its owner judges the floor of a forwarded submission.
            if !owned(entry.req.dst) {
                out.forward.push(entry);
                continue;
            }
            if entry.req.at.ticks() <= g.floor_ticks {
                g.stats.rejected += 1;
                let floor = g.floor_ticks;
                Self::resolve(
                    &mut out,
                    entry.slot,
                    IngestReply::Rejected { floor_ticks: floor },
                );
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
        let g = lock(&self.inner);
        let mut evs: Vec<Event<P>> = g.accepted.values().cloned().collect();
        evs.sort_by_key(|e| e.key);
        evs
    }

    /// Every run start calls this once: it hands `sink`, in key order, each
    /// accepted event the start does not hold. A restore from a cut at
    /// `cut_gvt` holds those with `send_time < cut_gvt`, so the complement
    /// goes; a fresh start (or a restart from genesis) passes 0 and gets all
    /// of them, a journal resumed by [`Self::with_journal`] included. The
    /// admission floor rises to the cut.
    pub fn reinject_after_restore(&self, cut_gvt: VirtualTime, sink: &mut dyn FnMut(Event<P>)) {
        let mut g = lock(&self.inner);
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
    /// A gate journaling to `path`, resuming what the journal holds: its
    /// records join the accepted map (retries of their ids are `Duplicate`,
    /// and [`Self::reinject_after_restore`] replays them) and the uid
    /// sequence continues past them. A torn last record (a crash mid-append)
    /// is dropped by rewriting the journal before anything is appended.
    pub fn with_journal(shard: u64, path: &Path) -> Result<Self, IngestError> {
        let (records, torn) = IngestJournal::read::<P>(path)?;
        if torn {
            IngestJournal::compact(path, &records)?;
        }
        let gate = Self::new(shard);
        {
            let mut g = lock(&gate.inner);
            for rec in records {
                let seq = rec.event.key.uid.seq & !(u64::MAX << SHARD_SHIFT);
                g.next_seq = g.next_seq.max(seq + 1);
                g.accepted.insert((rec.source, rec.id), rec.event);
            }
            g.journal = Some(IngestJournal::open(path)?);
        }
        Ok(gate)
    }
}
