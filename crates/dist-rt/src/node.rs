//! One shard of the distributed runtime.
//!
//! A [`ShardNode`] owns a [`ThreadEngine`] over its slice of LPs and a
//! [`ReliableLink`] per peer. Its [`ShardNode::step`] is one cycle of the
//! main loop — drain the inbox, drive GVT rounds (coordinator only),
//! process a batch, pump the links — and is public so the deterministic
//! [`crate::launcher::SteppedCluster`] can interleave shards round-robin.
//! [`ShardNode::run`] wraps `step` with inbox parking and a wall-clock
//! GVT-liveness watchdog for real (threaded / multi-process) runs.
//!
//! ## Demand-driven shard throttling
//!
//! On every GVT publish the node re-evaluates demand: a shard whose engine
//! holds no live pending work parks itself — it stops taking batches (and,
//! under [`ShardNode::run`], blocks on its inbox) until an inbound event
//! re-creates demand. This is the paper's demand-driven deactivation
//! applied at shard granularity: quiet inbound links and an empty pending
//! set mean the shard consumes no CPU until a remote event arrives.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pdes_core::{
    ckpt_round_due, Checkpoint, EngineConfig, Event, EventKey, IngestError, IngestGate, IngestPort,
    IngestReply, IngestRequest, LpCheckpoint, LpId, LpMap, Model, Msg, Outbound, ReplySlot,
    ThreadEngine, ThreadStats, VirtualTime,
};
use telemetry::{EventKind, RoundBoard, Telemetry, TelemetryConfig, TelemetryData, Tracer};

use crate::gvt::{Coordinator, GvtTracker, RoundClosure, ShardReport};
use crate::link::{Inbox, ReliableLink};
use crate::proto::Frame;
use crate::wire::{self, WireError};

/// Why a distributed run stopped before producing a result.
#[derive(Debug)]
pub enum DistError {
    /// Transport failure (socket error, peer hangup mid-run).
    Io(std::io::Error),
    /// Frame/packet decoding failure.
    Wire(WireError),
    /// Protocol invariant violated — includes GVT overshoot (a delivered
    /// message below the published GVT), the one error that must never be
    /// silent.
    Protocol { shard: usize, detail: String },
    /// The GVT-liveness watchdog expired: no round completed in time.
    Stalled { shard: usize, detail: String },
    /// Scripted fault: this shard was killed at its programmed cycle.
    Killed { shard: usize },
    /// Another shard in the cohort failed; this one aborted cleanly.
    Aborted { shard: usize },
    /// Mesh setup gave up: a peer never accepted/connected in time.
    ConnectTimeout { shard: usize, detail: String },
    /// The recovery supervisor ran out of attempts.
    RecoveryExhausted { attempts: u32, last: String },
    /// The failure detector declared `shard` dead: either its heartbeat
    /// lease expired at the coordinator, or its TCP streams hung up mid-run.
    PeerDead { shard: usize, detail: String },
    /// Control-flow signal, not a failure: a scripted membership change is
    /// due at the freshly assembled checkpoint cut — the supervisor tears
    /// the cohort down and rebuilds it around the new [`ReshapeAction`].
    Reshape { action: ReshapeAction },
    /// The ingest journal failed (durability would be silently lost).
    Ingest(IngestError),
}

/// A membership change the coordinator requests at a GVT cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshapeAction {
    /// Admit one new shard, splitting load off the heaviest donors.
    Join,
    /// Drain this shard out: its LPs are absorbed by the survivors.
    Leave(usize),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "link i/o error: {e}"),
            DistError::Wire(e) => write!(f, "wire error: {e}"),
            DistError::Protocol { shard, detail } => {
                write!(f, "protocol violation on shard {shard}: {detail}")
            }
            DistError::Stalled { shard, detail } => {
                write!(f, "shard {shard} stalled: {detail}")
            }
            DistError::Killed { shard } => write!(f, "shard {shard} killed (scripted fault)"),
            DistError::Aborted { shard } => write!(f, "shard {shard} aborted"),
            DistError::ConnectTimeout { shard, detail } => {
                write!(f, "shard {shard} mesh setup timed out: {detail}")
            }
            DistError::RecoveryExhausted { attempts, last } => {
                write!(
                    f,
                    "recovery exhausted after {attempts} attempts; last error: {last}"
                )
            }
            DistError::PeerDead { shard, detail } => {
                write!(f, "shard {shard} declared dead: {detail}")
            }
            DistError::Reshape { action } => write!(f, "membership reshape due: {action:?}"),
            DistError::Ingest(e) => write!(f, "ingest plane failed: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<WireError> for DistError {
    fn from(e: WireError) -> Self {
        DistError::Wire(e)
    }
}

impl From<IngestError> for DistError {
    fn from(e: IngestError) -> Self {
        DistError::Ingest(e)
    }
}

/// Lifecycle phase of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    /// Normal simulation: batches, GVT rounds, checkpoints.
    Running,
    /// `Publish{terminate}` seen: no more batches, but keep pumping and
    /// delivering until the coordinator proves the links drained.
    Draining,
    /// `Finish` seen, engine finalized, `Done` sent: flush remaining acks.
    Flushing,
    /// All done.
    Done,
}

/// What one [`ShardNode::step`] accomplished (parking hint for `run`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// Frames handled or events processed — keep going.
    Progress,
    /// Nothing to do this cycle — safe to block on the inbox briefly.
    Idle,
    /// The node's role in the run is complete.
    Finished,
}

/// A worker's final contribution, also assembled by the coordinator.
#[derive(Debug, Clone)]
struct DoneData {
    stats: ThreadStats,
    digests: Vec<(LpId, u64)>,
    pending_digest: u64,
    parked: u64,
}

/// The coordinator's assembled outcome of a whole distributed run.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// Per-shard stats merged into totals.
    pub totals: ThreadStats,
    /// Final per-LP state digests, ascending by LP.
    pub state_digests: Vec<(LpId, u64)>,
    /// XOR-fold of per-shard pending digests.
    pub pending_digest: u64,
    /// GVT rounds completed.
    pub gvt_rounds: u64,
    /// Final published GVT (ticks).
    pub gvt: u64,
    /// Raw-minimum regressions clamped by the coordinator (should be 0).
    pub regressions: u64,
    /// Maximum shards simultaneously parked by demand throttling (lower
    /// bound: folded from per-shard episode counts).
    pub max_parked: u64,
    /// Merged telemetry from every shard (present when tracing was on),
    /// mapped onto the coordinator's clock.
    pub telemetry: Option<TelemetryData>,
}

/// Heartbeat/lease failure detection, run by the coordinator over the
/// existing reliable links. Workers beacon [`Frame::Heartbeat`] on a
/// wall-clock cadence; the coordinator treats *any* inbound packet as life.
/// Suspicion is phi-style: a peer whose silence exceeds `phi_threshold`
/// times its mean inter-arrival gap gets a [`EventKind::HeartbeatMiss`]
/// telemetry instant (reset on the next arrival); only a full lease expiry
/// (`interval * miss_threshold` of silence) declares it dead.
#[derive(Debug, Clone)]
pub struct HeartbeatConfig {
    /// Wall-clock cadence of worker heartbeats.
    pub interval: Duration,
    /// Declare a peer dead after this many intervals of silence.
    pub miss_threshold: u32,
    /// Suspect (but don't kill) a peer whose silence exceeds this multiple
    /// of its mean inter-arrival gap.
    pub phi_threshold: f64,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_millis(25),
            miss_threshold: 40,
            phi_threshold: 8.0,
        }
    }
}

/// Tuning knobs a node needs beyond the engine's own [`EngineConfig`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Cycles between GVT round starts (coordinator pacing).
    pub gvt_interval_cycles: u64,
    /// Cycles between wave re-polls within a round.
    pub wave_interval_cycles: u64,
    /// Take a checkpoint cut every this many GVT rounds (0 = never).
    pub ckpt_every_rounds: u64,
    /// Wall-clock GVT-liveness watchdog for [`ShardNode::run`].
    pub watchdog: Option<Duration>,
    /// Scripted fault: die upon observing the `n`th GVT publish. Counted in
    /// protocol progress, not step cycles, so the kill lands at the same
    /// point of the simulation regardless of host speed or scheduling.
    pub kill_at: Option<u64>,
    /// Scripted kill dies *silently* (no cohort abort flag): the failure
    /// must be discovered by the heartbeat detector or a TCP hang-up.
    pub kill_silent: bool,
    /// Heartbeat failure detection (`None` = off; stepped runs leave it
    /// off because wall clocks have no meaning there).
    pub heartbeat: Option<HeartbeatConfig>,
    /// Scripted transient partitions on this node's outgoing links:
    /// `(peer, for_rounds)` — every frame to `peer` is swallowed until this
    /// node has run `for_rounds * gvt_interval_cycles` cycles, then the
    /// link heals and retransmission resumes delivery. Healing is clocked
    /// on the sender's own cycles (not GVT publishes) so a partition that
    /// stalls the GVT cannot deadlock its own heal.
    pub partitions: Vec<(usize, u64)>,
    /// Coordinator-only script: admit a joining shard at the first
    /// checkpoint cut assembled at or after the `n`th GVT publish.
    pub join_at: Option<u64>,
    /// Coordinator-only script: drain shard `.0` out at the first cut
    /// assembled at or after the `.1`th GVT publish.
    pub leave_at: Option<(usize, u64)>,
    /// Live tracing / round-snapshot collection (off by default).
    pub telemetry: TelemetryConfig,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            gvt_interval_cycles: 32,
            wave_interval_cycles: 4,
            ckpt_every_rounds: 0,
            watchdog: Some(Duration::from_secs(10)),
            kill_at: None,
            kill_silent: false,
            heartbeat: None,
            partitions: Vec::new(),
            join_at: None,
            leave_at: None,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Shared slot the coordinator publishes assembled checkpoints into; the
/// launcher's recovery path restores every shard from it.
pub type CkptSlot<M> = Arc<Mutex<Option<Checkpoint<<M as Model>::State, <M as Model>::Payload>>>>;

/// One shard's contribution to a checkpoint cut: its LP checkpoints plus
/// the in-flight events it owns at the cut.
type ShardCut<M> = (
    Vec<LpCheckpoint<<M as Model>::State>>,
    Vec<Event<<M as Model>::Payload>>,
);

/// One shard: engine + links + GVT tracker (+ coordinator on shard 0).
pub struct ShardNode<M: Model> {
    pub shard: usize,
    n: usize,
    engine: ThreadEngine<M>,
    /// `links[p]` is the reliable link to shard `p` (`None` for self).
    links: Vec<Option<ReliableLink>>,
    inbox: Arc<Inbox>,
    tracker: GvtTracker,
    coord: Option<Coordinator>,
    cfg: NodeConfig,
    end_ticks: u64,
    /// Last published GVT (ticks) as seen by this node.
    gvt: u64,
    cycles: u64,
    /// GVT publishes this node has observed (scripted-kill clock).
    publishes_seen: u64,
    phase: Phase,
    /// Demand throttle: parked shards take no batches.
    parked: bool,
    parked_episodes: u64,
    /// Set while a `Publish{terminate}` has been seen by the coordinator.
    terminated: bool,
    /// Coordinator: round the terminate was published in.
    terminate_round: Option<u64>,
    // Round pacing (cycle counters, deterministic in stepped mode).
    round_due_at: u64,
    wave_due_at: Option<u64>,
    pending_wave: Option<(u64, u64)>, // (round, wave) to broadcast when due
    // Coordinator: checkpoint assembly.
    cut_parts: Vec<Option<ShardCut<M>>>,
    cut_round: Option<(u64, u64)>, // (round, gvt_ticks)
    last_cut_done: Option<u64>,
    ckpt_slot: Option<CkptSlot<M>>,
    flat_map: LpMap,
    // Coordinator: done collection.
    dones: Vec<Option<DoneData>>,
    outcome: Option<NodeOutcome>,
    /// Cohort-wide abort flag (set by a dying shard, checked by all).
    abort: Option<Arc<AtomicBool>>,
    // Watchdog.
    last_liveness: Instant,
    /// Cycles of ack-flushing after `Done` before calling it quits.
    flush_left: u64,
    outbox: Vec<Outbound<M::Payload>>,
    // Telemetry: per-shard registry, this node's (single) tracer and the
    // one-slot board its engine publishes into.
    tel: Arc<Telemetry>,
    tracer: Tracer,
    board: RoundBoard,
    /// Monotonic origin of this node's trace timestamps.
    t0: Instant,
    /// Wall time the current park episode began (trace only).
    park_t0: u64,
    /// Per-link retransmit counts already traced.
    retx_seen: Vec<u64>,
    /// Coordinator: telemetry merged from every shard's forward.
    tel_merged: TelemetryData,
    // Elastic membership.
    /// Per-peer log of every Sim message sent since the second-newest
    /// armed cut, keyed by send time (events) / twin receive time (antis).
    /// Replayed to a partially restored peer; maintained only when
    /// checkpoints are armed (`ckpt_every_rounds > 0`).
    send_log: Vec<Vec<(u64, Msg<M::Payload>)>>,
    /// Per-peer scratch for [`Self::route_outbox`]: one engine step's
    /// outbox grouped by destination, shipped as one [`Frame::SimBatch`]
    /// per peer. Kept on the node so the buffers' capacity survives steps.
    batch_bufs: Vec<Vec<(u64, Msg<M::Payload>)>>,
    /// GVT of the previous armed cut — the send-log retention horizon
    /// (recovery never restores from anything older than two cuts back).
    prev_armed_gvt: u64,
    /// Frames carrying a round number below this predate a recovery point
    /// and are dropped (stale Starts/Publishes/Reports/CutParts).
    min_valid_round: u64,
    /// Per peer: a partially restored peer is re-executing below our GVT;
    /// its duplicate sub-GVT messages are counted (for the white-counter
    /// match) but not delivered (we committed them long ago).
    replaying_from: Vec<bool>,
    /// The coordinator's published GVT at the moment partial recovery began.
    /// Publishes propagate asynchronously, so a survivor's own adopted GVT
    /// can lag the coordinator's floor; purging and duplicate-dropping must
    /// both key off the *global* floor or a lagging survivor rolls back into
    /// the committed window and re-sends below the coordinator's GVT.
    recovery_floor: u64,
    /// Per peer: its TCP reader pushed the hang-up sentinel.
    hung_up: Vec<bool>,
    // Heartbeat failure detection.
    last_hb_sent: Instant,
    hb_last_heard: Vec<Instant>,
    /// EWMA of inter-arrival gaps in ms (0 = no sample yet).
    hb_mean_ms: Vec<f64>,
    hb_suspected: Vec<bool>,
    // External-event ingest plane.
    /// This shard's admission gate (shared with the client-facing server)
    /// behind the port every runtime's round closer holds.
    ingest: Option<IngestPort<M::Payload>>,
    /// Set between a round's wave-0 epoch cut and its publish: injecting
    /// then could land an event below the frozen pending minimum, letting
    /// the round's GVT overshoot it. The pump waits for the publish.
    cut_open: bool,
    /// Reply slots for submissions this shard forwarded to their owners,
    /// keyed by the `key` echoed in [`Frame::IngestReply`].
    forward_slots: HashMap<u64, ReplySlot>,
    next_fwd_key: u64,
}

impl<M: Model> ShardNode<M> {
    /// Build one shard node. `flat_map` maps every LP to its owning shard
    /// (`SimThreadId(shard)`); `links[p]` must be `Some` exactly for
    /// `p != shard`. Shard 0 becomes the coordinator and needs `ckpt_slot`
    /// when checkpoints are armed.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        model: Arc<M>,
        flat_map: LpMap,
        shard: usize,
        num_shards: usize,
        ecfg: &EngineConfig,
        ncfg: NodeConfig,
        links: Vec<Option<ReliableLink>>,
        inbox: Arc<Inbox>,
        ckpt_slot: Option<CkptSlot<M>>,
        abort: Option<Arc<AtomicBool>>,
    ) -> ShardNode<M> {
        assert_eq!(links.len(), num_shards);
        assert!(links[shard].is_none(), "no link to self");
        let engine = ThreadEngine::new(
            Arc::clone(&model),
            flat_map.clone(),
            pdes_core::SimThreadId(shard as u32),
            ecfg,
        );
        let tel = Telemetry::new(ncfg.telemetry.clone());
        let tracer = tel.tracer(0);
        let mut links = links;
        // Scripted partitions are live from the first cycle.
        for &(to, _) in &ncfg.partitions {
            if let Some(l) = links[to].as_mut() {
                l.set_partitioned(true);
            }
        }
        ShardNode {
            shard,
            n: num_shards,
            engine,
            links,
            inbox,
            tracker: GvtTracker::new(num_shards),
            coord: (shard == 0).then(|| Coordinator::new(num_shards)),
            cfg: ncfg,
            end_ticks: ecfg.end_time.ticks(),
            gvt: 0,
            cycles: 0,
            publishes_seen: 0,
            phase: Phase::Running,
            parked: false,
            parked_episodes: 0,
            terminated: false,
            terminate_round: None,
            round_due_at: 0,
            wave_due_at: None,
            pending_wave: None,
            cut_parts: vec![None; num_shards],
            cut_round: None,
            last_cut_done: None,
            ckpt_slot,
            flat_map,
            dones: vec![None; num_shards],
            outcome: None,
            abort,
            last_liveness: Instant::now(),
            flush_left: 0,
            outbox: Vec::new(),
            tel,
            tracer,
            board: RoundBoard::new(1, num_shards),
            t0: Instant::now(),
            park_t0: 0,
            retx_seen: vec![0; num_shards],
            tel_merged: TelemetryData::default(),
            send_log: vec![Vec::new(); num_shards],
            batch_bufs: vec![Vec::new(); num_shards],
            prev_armed_gvt: 0,
            min_valid_round: 0,
            replaying_from: vec![false; num_shards],
            recovery_floor: 0,
            hung_up: vec![false; num_shards],
            last_hb_sent: Instant::now(),
            hb_last_heard: vec![Instant::now(); num_shards],
            hb_mean_ms: vec![0.0; num_shards],
            hb_suspected: vec![false; num_shards],
            ingest: None,
            cut_open: false,
            forward_slots: HashMap::new(),
            next_fwd_key: 0,
        }
    }

    /// Attach this shard's ingest gate. Must be called before
    /// [`Self::restore`] so a restored node replays the gate's
    /// accepted-but-uncut suffix into the rebuilt engine.
    pub fn set_ingest(&mut self, gate: Arc<IngestGate<M::Payload>>) {
        gate.set_floor(VirtualTime::from_ticks(self.gvt));
        self.ingest = Some(IngestPort::new(gate, self.flat_map.clone()));
    }

    /// Raise the gate's admission floor (recovery: the coordinator's
    /// published GVT may exceed what this node has adopted locally).
    pub fn raise_ingest_floor(&self, floor: u64) {
        if let Some(port) = &self.ingest {
            port.gate.set_floor(VirtualTime::from_ticks(floor));
        }
    }

    /// Nanoseconds on this node's own monotonic trace clock.
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Park the shard (demand throttling), tracing the episode start.
    fn park_shard(&mut self) {
        self.parked = true;
        self.parked_episodes += 1;
        if self.tracer.enabled() {
            self.park_t0 = self.now_ns();
        }
    }

    /// Un-park the shard and close the traced park span.
    fn unpark_shard(&mut self) {
        self.parked = false;
        if self.tracer.enabled() {
            let now = self.now_ns();
            self.tracer
                .span(EventKind::Park, self.park_t0, now, self.shard as u64);
            self.tracer
                .instant(EventKind::Unpark, now, self.shard as u64);
        }
    }

    /// Published GVT (ticks) as seen by this node.
    pub fn gvt(&self) -> u64 {
        self.gvt
    }

    /// The engine's pending minimum (ticks) — for invariant checks.
    pub fn local_min_ticks(&self) -> u64 {
        self.engine.local_min().ticks()
    }

    /// `true` once the node's role in the run is complete.
    pub fn finished(&self) -> bool {
        self.phase == Phase::Done
    }

    /// The coordinator's assembled run outcome (present after it finishes).
    pub fn take_outcome(&mut self) -> Option<NodeOutcome> {
        self.outcome.take()
    }

    /// Restore this shard from a checkpointed global cut (recovery path).
    /// The engine filters `ck.lps` / `ck.events` by ownership itself. An
    /// attached ingest gate replays its accepted-but-uncut suffix
    /// (`send_time >= cut`) back into the engine — the exact complement of
    /// what the cut preserved, so every accepted event survives exactly
    /// once.
    pub fn restore(&mut self, ck: &Checkpoint<M::State, M::Payload>) -> Result<(), DistError> {
        self.engine.restore(&ck.lps, &ck.events, ck.gvt);
        self.gvt = ck.gvt.ticks();
        if let Some(c) = &mut self.coord {
            c.gvt = ck.gvt.ticks();
            c.rounds_done = ck.gvt_rounds;
        }
        self.round_due_at = self.cfg.gvt_interval_cycles;
        self.cut_open = false;
        if let Some(port) = &self.ingest {
            let mut replay = Vec::new();
            port.gate
                .reinject_after_restore(ck.gvt, &mut |ev| replay.push(ev));
            for ev in replay {
                // Admission is owned-only, so these are normally local; a
                // reshape may have moved the LP, in which case the event
                // ships to its new owner like any other simulation message.
                if self.flat_map.thread_of(ev.key.dst).index() == self.shard {
                    let mut outbox = std::mem::take(&mut self.outbox);
                    self.engine.deliver(Msg::Event(ev), &mut outbox);
                    self.outbox = outbox;
                } else {
                    let dst = self.flat_map.thread_of(ev.key.dst);
                    self.outbox.push((dst, Msg::Event(ev)));
                }
            }
            self.route_outbox()?;
        }
        Ok(())
    }

    /// `true` while the node is in its normal simulating phase (partial
    /// recovery is only safe for survivors that haven't begun teardown).
    pub fn is_running(&self) -> bool {
        self.phase == Phase::Running
    }

    /// The round number the coordinator will open next (recovery fencing).
    pub fn upcoming_round(&self) -> u64 {
        self.coord
            .as_ref()
            .map(|c| c.upcoming_round())
            .unwrap_or(self.min_valid_round)
    }

    /// Swap in a fresh cohort-wide abort flag for the next attempt.
    pub fn set_abort(&mut self, abort: Option<Arc<AtomicBool>>) {
        self.abort = abort;
    }

    /// Replace the link to `peer` (recovery: the peer was rebuilt, so its
    /// seq/ack state restarted from zero).
    pub fn replace_link(&mut self, peer: usize, link: ReliableLink) {
        self.links[peer] = Some(link);
        self.retx_seen[peer] = 0;
    }

    /// Sever the transport under the link to `peer` (recovery prep, TCP):
    /// a socket shutdown reaches *both* ends' reader threads, so the dead
    /// node's blocked reader unblocks and this node's own reader pushes its
    /// hang-up sentinel.
    pub fn hangup_link(&mut self, peer: usize) {
        if let Some(l) = self.links[peer].as_mut() {
            l.hangup();
        }
    }

    /// Emit a supervisor-originated telemetry instant (membership events)
    /// onto this node's trace clock.
    pub fn trace_instant(&mut self, kind: EventKind, arg: u64) {
        if self.tracer.enabled() {
            let now = self.now_ns();
            self.tracer.instant(kind, now, arg);
        }
    }

    /// Recovery prep: drop every queued raw packet. Anything dropped here
    /// was never run through [`ReliableLink::on_packet`], hence never
    /// acked — the sender's retransmission redelivers it. Sentinels are
    /// recorded, not dropped.
    pub fn drain_inbox_dropping(&mut self) {
        for (peer, bytes) in self.inbox.drain() {
            if bytes.is_empty() {
                self.hung_up[peer] = true;
            }
        }
    }

    /// Recovery prep (TCP): wait until the dead peer's *old* reader thread
    /// pushes its hang-up sentinel, so it cannot be mistaken for the fresh
    /// link's hang-up later. Drops everything drained along the way (see
    /// [`Self::drain_inbox_dropping`]). Returns `false` on timeout.
    pub fn await_hangup(&mut self, peer: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.hung_up[peer] {
            self.drain_inbox_dropping();
            if self.hung_up[peer] {
                break;
            }
            if Instant::now() >= deadline {
                return false;
            }
            self.inbox.wait_nonempty(Duration::from_millis(2));
        }
        true
    }

    /// Survivor-side entry into partial recovery, called by the supervisor
    /// between thread runs (never concurrently with [`Self::step`]):
    /// - void every GVT counter shared with the dead peers (their fresh
    ///   incarnations restart those pairs from zero);
    /// - mark them `replaying_from` so their re-executed sub-GVT duplicates
    ///   are counted but not re-delivered;
    /// - fence stale round traffic below `min_valid_round`;
    /// - adopt `floor` (the coordinator's published GVT) as the recovery
    ///   floor — a survivor whose own adopted GVT lags the coordinator's
    ///   (the final pre-kill publish may still be in flight) must purge and
    ///   duplicate-drop against the global floor, not its stale local one;
    /// - abandon any cut assembly in progress (coordinator) and enter GVT
    ///   recovery mode.
    pub fn begin_peer_recovery(&mut self, dead: &[usize], min_valid_round: u64, floor: u64) {
        for &d in dead {
            self.tracker.reset_peer(d);
            self.replaying_from[d] = true;
            self.hung_up[d] = false;
            self.hb_mean_ms[d] = 0.0;
            self.hb_suspected[d] = false;
        }
        self.min_valid_round = min_valid_round;
        self.recovery_floor = self.recovery_floor.max(floor).max(self.gvt);
        // Any wave-0 cut in flight is abandoned with the round; admissions
        // stay fenced anyway until the replay window closes.
        self.cut_open = false;
        self.raise_ingest_floor(self.recovery_floor);
        self.pending_wave = None;
        self.wave_due_at = None;
        self.cut_round = None;
        self.cut_parts = vec![None; self.n];
        self.round_due_at = self.cycles + self.cfg.gvt_interval_cycles;
        self.last_liveness = Instant::now();
        self.hb_last_heard = vec![Instant::now(); self.n];
        if let Some(c) = &mut self.coord {
            c.begin_recovery();
        }
    }

    /// Replay this node's send log to a partially restored `peer`: ship
    /// every logged event with `send_time >= since_send` (the cut GVT —
    /// older sends are inside the checkpoint the peer restored from), and
    /// every anti-message whose twin was shipped. The log is kept — a later
    /// failure replays again from a newer cut. Returns the messages shipped.
    pub fn replay_log_to(&mut self, peer: usize, since_send: u64) -> Result<u64, DistError> {
        let mut replayed: Vec<EventKey> = Vec::new();
        let mut msgs = Vec::new();
        for (_, msg) in &self.send_log[peer] {
            let ship = match msg {
                Msg::Event(e) => {
                    let s = e.send_time.ticks() >= since_send;
                    if s {
                        replayed.push(e.key);
                    }
                    s
                }
                Msg::Anti(k) => replayed.contains(k),
            };
            if ship {
                msgs.push((self.tracker.note_sent(peer), msg.clone()));
            }
        }
        let shipped = msgs.len() as u64;
        if shipped > 0 {
            self.send_frame(peer, &Frame::SimBatch { msgs })?;
        }
        Ok(shipped)
    }

    /// Purge every input this engine took from the dead shards' LPs in the
    /// window the restored peer will re-execute (`send >= cut GVT` and
    /// `recv >= recovery floor` — inputs received below the coordinator's
    /// published GVT are globally fixed and the peer's re-sent duplicates
    /// are dropped at the link instead). Cascade anti-messages are routed
    /// normally (and logged, so they reach the restored peer in order after
    /// the replay).
    pub fn purge_dead_inputs(
        &mut self,
        dead_lps: &[LpId],
        since_send: u64,
    ) -> Result<u64, DistError> {
        let mut outbox = std::mem::take(&mut self.outbox);
        let purged = self.engine.purge_inputs_from(
            dead_lps,
            VirtualTime::from_ticks(since_send),
            VirtualTime::from_ticks(self.recovery_floor.max(self.gvt)),
            &mut outbox,
        );
        self.outbox = outbox;
        self.route_outbox()?;
        Ok(purged)
    }

    /// Route this shard's initial events (fresh starts only — a restored
    /// run's events live in the checkpoint).
    pub fn bootstrap(&mut self) -> Result<(), DistError> {
        let init = self.engine.take_init_events();
        for (tid, msg) in init {
            let dst = tid.index();
            if dst == self.shard {
                let mut outbox = std::mem::take(&mut self.outbox);
                self.engine.deliver(msg, &mut outbox);
                self.outbox = outbox;
            } else {
                self.outbox.push((tid, msg));
            }
        }
        self.route_outbox()
    }

    fn send_frame(
        &mut self,
        peer: usize,
        frame: &Frame<M::State, M::Payload>,
    ) -> Result<(), DistError> {
        let bytes = wire::to_bytes(frame);
        let shard = self.shard;
        let Some(link) = self.links[peer].as_mut() else {
            return Err(DistError::Protocol {
                shard,
                detail: format!("no link {shard} -> {peer} for {} frame", frame.kind()),
            });
        };
        match link.send(&bytes) {
            Ok(()) => Ok(()),
            // A broken pipe while flushing final acks is not an error: the
            // peer already finished and hung up.
            Err(_) if self.phase >= Phase::Flushing => Ok(()),
            Err(e) => Err(DistError::Io(e)),
        }
    }

    /// Drop send-log entries that no reachable recovery can need: events
    /// sent below the previous armed cut (a restore always uses one of the
    /// two newest cuts) and anti-messages whose twin was dropped.
    fn prune_send_logs(&mut self, keep_from: u64) {
        for log in &mut self.send_log {
            let mut kept: Vec<EventKey> = log
                .iter()
                .filter_map(|(t, m)| match m {
                    Msg::Event(e) if *t >= keep_from => Some(e.key),
                    _ => None,
                })
                .collect();
            kept.sort_unstable();
            log.retain(|(t, m)| match m {
                Msg::Event(_) => *t >= keep_from,
                Msg::Anti(k) => kept.binary_search(k).is_ok(),
            });
        }
    }

    /// Drain the engine outbox: color and ship remote messages. Send order
    /// MUST be preserved per peer — an anti-message overtaking the re-send
    /// of its twin (or vice versa) would insert a duplicate key at the
    /// receiver. The drain groups messages by destination (stable within
    /// each peer) and ships each group as a single [`Frame::SimBatch`]: one
    /// serialize and one wire write per peer per step instead of one per
    /// event — the hot-path fix that takes the TCP shard runtime off a
    /// syscall-per-event budget. Epoch tags and the recovery send-log are
    /// maintained per message.
    fn route_outbox(&mut self) -> Result<(), DistError> {
        let mut out = std::mem::take(&mut self.outbox);
        if out.is_empty() {
            return Ok(());
        }
        let mut batches = std::mem::take(&mut self.batch_bufs);
        for (tid, msg) in out.drain(..) {
            let dst = tid.index();
            debug_assert_ne!(dst, self.shard, "engine outbox never holds local msgs");
            if self.cfg.ckpt_every_rounds > 0 {
                let t = match &msg {
                    Msg::Event(e) => e.send_time.ticks(),
                    Msg::Anti(k) => k.recv_time.ticks(),
                };
                self.send_log[dst].push((t, msg.clone()));
            }
            let tag = self.tracker.note_sent(dst);
            batches[dst].push((tag, msg));
        }
        self.outbox = out;
        let mut res = Ok(());
        for (peer, batch) in batches.iter_mut().enumerate() {
            if batch.is_empty() || res.is_err() {
                continue;
            }
            let msgs = std::mem::take(batch);
            res = self.send_frame(peer, &Frame::SimBatch { msgs });
        }
        self.batch_bufs = batches;
        res
    }

    fn protocol_err(&self, detail: impl Into<String>) -> DistError {
        DistError::Protocol {
            shard: self.shard,
            detail: detail.into(),
        }
    }

    /// Admit queued external submissions against the current floor. Owned
    /// destinations inject straight into the engine (inside the gate lock,
    /// so no fence interleaves); submissions for LPs another shard owns are
    /// forwarded as [`Frame::Ingest`]; verdicts for submissions *we* host on
    /// behalf of another shard go back as [`Frame::IngestReply`].
    ///
    /// Fencing: no injection while this round's wave-0 cut epoch is open
    /// (the frozen pending minimum would not cover the new event) or while
    /// a partially restored peer is still re-executing below the recovery
    /// floor (admissions are floor-fenced, but survivors stay quiet until
    /// the cohort is back on a matched round).
    fn pump_ingest(&mut self) -> Result<u64, DistError> {
        let Some(gate) = self.ingest.as_ref().map(|port| Arc::clone(&port.gate)) else {
            return Ok(0);
        };
        if self.phase != Phase::Running || self.cut_open || self.replaying_from.iter().any(|&r| r) {
            return Ok(0);
        }
        let map = &self.flat_map;
        let shard = self.shard;
        let engine = &mut self.engine;
        let mut outbox = std::mem::take(&mut self.outbox);
        let out = gate.pump(
            |lp| lp.0 < map.num_lps && map.thread_of(lp).index() == shard,
            &mut |ev| {
                engine.deliver(Msg::Event(ev), &mut outbox);
            },
        );
        self.outbox = outbox;
        let out = out.map_err(DistError::Ingest)?;
        self.route_outbox()?;
        if out.injected > 0 && self.parked {
            // External demand re-activates a demand-throttled shard, same
            // as an inbound remote event.
            self.unpark_shard();
        }
        for (peer, key, reply) in out.remote_replies {
            self.send_frame(peer as usize, &Frame::IngestReply { key, reply })?;
        }
        for entry in out.forward {
            let dst = entry.req.dst;
            if dst.0 >= self.flat_map.num_lps {
                // No such LP in this model: shed rather than panic deeper in
                // the mapping (the client-facing server validates upstream).
                self.resolve_forward_slot(entry.slot, IngestReply::Shed)?;
                continue;
            }
            let owner = self.flat_map.thread_of(dst).index();
            if owner == self.shard {
                // Raced an ownership change; retry through the gate next
                // pump rather than special-casing here.
                self.resolve_forward_slot(entry.slot, IngestReply::Shed)?;
                continue;
            }
            let key = self.next_fwd_key;
            self.next_fwd_key += 1;
            self.forward_slots.insert(key, entry.slot);
            self.send_frame(
                owner,
                &Frame::Ingest {
                    origin: self.shard as u64,
                    key,
                    req: entry.req,
                },
            )?;
        }
        Ok(out.injected)
    }

    /// Deliver a verdict to a slot outside the gate (forwarding paths).
    fn resolve_forward_slot(
        &mut self,
        slot: ReplySlot,
        reply: IngestReply,
    ) -> Result<(), DistError> {
        match slot {
            ReplySlot::None => Ok(()),
            ReplySlot::Local(f) => {
                f(reply);
                Ok(())
            }
            ReplySlot::Remote { peer, key } => {
                self.send_frame(peer as usize, &Frame::IngestReply { key, reply })
            }
        }
    }

    /// A peer forwarded an external submission for an LP this shard owns:
    /// run it through the local gate; immediate verdicts bounce straight
    /// back, queued ones answer at a later pump via the remote slot.
    fn handle_ingest(
        &mut self,
        origin: usize,
        key: u64,
        req: IngestRequest<M::Payload>,
    ) -> Result<(), DistError> {
        let verdict = match &self.ingest {
            Some(port) => port.gate.submit(
                req,
                ReplySlot::Remote {
                    peer: origin as u64,
                    key,
                },
            ),
            None => Some(IngestReply::Closed),
        };
        match verdict {
            Some(reply) => self.send_frame(origin, &Frame::IngestReply { key, reply }),
            None => Ok(()),
        }
    }

    /// The owning shard's verdict for a submission we forwarded.
    fn handle_ingest_reply(&mut self, key: u64, reply: IngestReply) -> Result<(), DistError> {
        if let Some(slot) = self.forward_slots.remove(&key) {
            self.resolve_forward_slot(slot, reply)?;
        }
        Ok(())
    }

    /// One main-loop cycle.
    pub fn step(&mut self) -> Result<StepStatus, DistError> {
        if self.phase == Phase::Done {
            return Ok(StepStatus::Finished);
        }
        if let Some(abort) = &self.abort {
            if abort.load(Ordering::Relaxed)
                && self.cfg.kill_at.is_none_or(|at| self.publishes_seen < at)
            {
                return Err(DistError::Aborted { shard: self.shard });
            }
        }
        self.cycles += 1;

        let mut progress = false;

        // 0. Scripted partitions heal on this node's own cycle clock.
        for i in 0..self.cfg.partitions.len() {
            let (to, rounds) = self.cfg.partitions[i];
            if self.cycles >= rounds.saturating_mul(self.cfg.gvt_interval_cycles) {
                if let Some(l) = self.links[to].as_mut() {
                    l.set_partitioned(false);
                }
            }
        }

        // 1. Drain the inbox through the reliable links into frame handling.
        for (peer, bytes) in self.inbox.drain() {
            progress = true;
            if bytes.is_empty() {
                // Link-closed sentinel from a TCP reader.
                self.hung_up[peer] = true;
                if self.phase >= Phase::Draining {
                    continue;
                }
                if let Some(abort) = &self.abort {
                    abort.store(true, Ordering::Relaxed);
                }
                return Err(DistError::PeerDead {
                    shard: peer,
                    detail: format!("shard {peer} hung up mid-run"),
                });
            }
            if self.links[peer].is_none() {
                return Err(self.protocol_err(format!("packet from unlinked peer {peer}")));
            }
            // Any inbound packet is proof of life for the failure detector.
            if self.cfg.heartbeat.is_some() && self.coord.is_some() {
                let gap_ms = self.hb_last_heard[peer].elapsed().as_secs_f64() * 1000.0;
                self.hb_last_heard[peer] = Instant::now();
                self.hb_mean_ms[peer] = if self.hb_mean_ms[peer] > 0.0 {
                    0.9 * self.hb_mean_ms[peer] + 0.1 * gap_ms
                } else {
                    gap_ms
                };
                self.hb_suspected[peer] = false;
            }
            let link = self.links[peer].as_mut().expect("checked above");
            let frames = link.on_packet(&bytes)?;
            for fb in frames {
                let frame: Frame<M::State, M::Payload> = wire::from_bytes(&fb)?;
                self.handle_frame(peer, frame)?;
            }
        }

        // 1b. Heartbeats: workers beacon on a wall-clock cadence; the
        // coordinator audits every peer's lease.
        if let Some(interval) = self.cfg.heartbeat.as_ref().map(|h| h.interval) {
            if self.shard != 0
                && self.phase <= Phase::Draining
                && self.last_hb_sent.elapsed() >= interval
            {
                self.last_hb_sent = Instant::now();
                self.send_frame(
                    0,
                    &Frame::Heartbeat {
                        shard: self.shard as u64,
                    },
                )?;
            }
        }
        self.check_peer_liveness()?;

        // 2. Coordinator: drive rounds.
        self.drive_rounds()?;

        // 2b. Admit external events between rounds (never while a wave-0
        // cut epoch is open or a restored peer is replaying).
        if self.pump_ingest()? > 0 {
            progress = true;
        }

        // 3. Simulate.
        if self.phase == Phase::Running && !self.parked {
            let trace = self.tracer.enabled();
            let b0 = if trace { self.now_ns() } else { 0 };
            let rb0 = self.engine.stats().rolled_back;
            let mut outbox = std::mem::take(&mut self.outbox);
            let out = self.engine.process_batch(self.engine_batch(), &mut outbox);
            self.outbox = outbox;
            self.route_outbox()?;
            if out.processed > 0 {
                progress = true;
                if trace {
                    let now = self.now_ns();
                    self.tracer
                        .span(EventKind::EventBatch, b0, now, out.processed as u64);
                    let rb = self.engine.stats().rolled_back;
                    if rb > rb0 {
                        self.tracer.instant(EventKind::Rollback, now, rb - rb0);
                    }
                }
            }
            // Demand check between publishes: new local work un-parks; a
            // shard that just went empty waits for the next publish to park
            // (publish is the scheduling decision point).
        } else if self.phase == Phase::Running && self.parked && self.engine.has_live_pending() {
            self.unpark_shard();
            progress = true;
        }

        // 4. Pump every link (acks, retransmits, delayed releases).
        for p in 0..self.n {
            let mut retx = None;
            if let Some(link) = self.links[p].as_mut() {
                match link.pump() {
                    Ok(()) => {}
                    Err(_) if self.phase >= Phase::Flushing => {}
                    Err(e) => return Err(DistError::Io(e)),
                }
                retx = Some(link.retransmits);
            }
            if let Some(rx) = retx {
                if rx > self.retx_seen[p] && self.tracer.enabled() {
                    // arg packs (peer, episodes-since-last-trace).
                    let delta = rx - self.retx_seen[p];
                    let now = self.now_ns();
                    self.tracer
                        .instant(EventKind::LinkRetransmit, now, ((p as u64) << 32) | delta);
                }
                self.retx_seen[p] = rx.max(self.retx_seen[p]);
            }
        }

        // 5. Flushing: stay until every outgoing frame is acked (the `Done`
        // must reach the coordinator; the coordinator must collect all of
        // them), plus a short grace for reactive acks to peers.
        if self.phase == Phase::Flushing {
            self.flush_left = self.flush_left.saturating_sub(1);
            let drained = self.links.iter().flatten().all(|l| l.drained());
            if drained && self.flush_left == 0 && (self.coord.is_none() || self.outcome.is_some()) {
                self.phase = Phase::Done;
                return Ok(StepStatus::Finished);
            }
            return Ok(StepStatus::Progress);
        }

        Ok(if progress {
            StepStatus::Progress
        } else {
            StepStatus::Idle
        })
    }

    fn engine_batch(&self) -> usize {
        // The engine already bounds optimism by gvt_hint + window; the batch
        // size only controls how often the node services its links.
        64
    }

    /// Coordinator-only failure detector: suspect a peer (telemetry) when
    /// its silence is phi-anomalous; declare it dead when its lease runs
    /// out. Death aborts the cohort so the supervisor can recover.
    fn check_peer_liveness(&mut self) -> Result<(), DistError> {
        let Some(hb) = self.cfg.heartbeat.clone() else {
            return Ok(());
        };
        if self.coord.is_none() || self.phase != Phase::Running {
            return Ok(());
        }
        for p in 0..self.n {
            if p == self.shard {
                continue;
            }
            let elapsed = self.hb_last_heard[p].elapsed();
            let mean_ms = if self.hb_mean_ms[p] > 0.0 {
                self.hb_mean_ms[p]
            } else {
                hb.interval.as_secs_f64() * 1000.0
            };
            let phi = elapsed.as_secs_f64() * 1000.0 / mean_ms.max(0.01);
            if phi > hb.phi_threshold && !self.hb_suspected[p] {
                self.hb_suspected[p] = true;
                if self.tracer.enabled() {
                    let now = self.now_ns();
                    self.tracer.instant(EventKind::HeartbeatMiss, now, p as u64);
                }
            }
            if elapsed >= hb.interval * hb.miss_threshold {
                if let Some(abort) = &self.abort {
                    abort.store(true, Ordering::Relaxed);
                }
                return Err(DistError::PeerDead {
                    shard: p,
                    detail: format!(
                        "lease expired: silent for {:.0} ms ({} x {} ms)",
                        elapsed.as_secs_f64() * 1000.0,
                        hb.miss_threshold,
                        hb.interval.as_millis()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Coordinator-only: open rounds on schedule, re-poll waves when due.
    fn drive_rounds(&mut self) -> Result<(), DistError> {
        if self.coord.is_none() || self.phase > Phase::Draining {
            return Ok(());
        }
        // Broadcast a due wave re-poll.
        if let (Some((round, wave)), Some(due)) = (self.pending_wave, self.wave_due_at) {
            if self.cycles >= due {
                self.pending_wave = None;
                self.wave_due_at = None;
                self.broadcast_start(round, wave)?;
            }
        }
        let (in_flight, recovering, rounds_done) = match self.coord.as_ref() {
            Some(c) => (c.round.is_some(), c.recovering, c.rounds_done),
            None => return Ok(()), // unreachable: gated above
        };
        if !in_flight && self.cycles >= self.round_due_at {
            // No cut while a restored shard is still re-executing below the
            // floor — its engine is not yet on any consistent global cut.
            let armed = self.phase == Phase::Running
                && !recovering
                && ckpt_round_due(self.cfg.ckpt_every_rounds, rounds_done);
            let round = match self.coord.as_mut() {
                Some(c) => c.start_round(armed),
                None => return Ok(()),
            };
            self.broadcast_start(round, 0)?;
        }
        Ok(())
    }

    fn broadcast_start(&mut self, round: u64, wave: u64) -> Result<(), DistError> {
        let armed = match self.coord.as_ref() {
            Some(c) => c.armed,
            None => return Err(self.protocol_err("broadcast_start on a non-coordinator")),
        };
        let f = Frame::Start { round, wave, armed };
        for p in 0..self.n {
            if p != self.shard {
                self.send_frame(p, &f)?;
            }
        }
        // The coordinator is also a shard: handle its own Start inline.
        self.handle_frame(self.shard, f)
    }

    fn handle_frame(
        &mut self,
        peer: usize,
        frame: Frame<M::State, M::Payload>,
    ) -> Result<(), DistError> {
        match frame {
            Frame::Hello { .. } => Err(self.protocol_err("Hello inside the reliable stream")),
            Frame::SimBatch { msgs } => {
                // In-batch order is send order; delivering in sequence
                // preserves the per-peer FIFO contract.
                for (tag, msg) in msgs {
                    self.handle_sim(peer, tag, msg)?;
                }
                Ok(())
            }
            Frame::Start { round, wave, .. } => self.handle_start(round, wave),
            Frame::Report {
                round,
                wave,
                shard,
                pending_min,
                late_min,
                white_sent,
                white_recvd,
            } => self.handle_report(
                round,
                shard as usize,
                ShardReport {
                    wave,
                    pending_min,
                    late_min,
                    white_sent,
                    white_recvd,
                },
            ),
            Frame::Publish {
                round,
                gvt,
                armed,
                terminate,
                recovering,
            } => self.handle_publish(round, gvt, armed, terminate, recovering),
            // Pure liveness beacon: its arrival already fed the detector.
            Frame::Heartbeat { .. } => Ok(()),
            Frame::Finish => self.handle_finish(),
            Frame::CutPart {
                round,
                shard,
                lps,
                events,
            } => self.handle_cut_part(round, shard as usize, lps, events),
            Frame::Done {
                shard,
                stats,
                digests,
                pending_digest,
                parked,
            } => self.handle_done(
                shard as usize,
                DoneData {
                    stats,
                    digests,
                    pending_digest,
                    parked,
                },
            ),
            Frame::Ingest { origin, key, req } => self.handle_ingest(origin as usize, key, req),
            Frame::IngestReply { key, reply } => self.handle_ingest_reply(key, reply),
            Frame::Telemetry {
                shard,
                sent_at_ns,
                data,
            } => self.handle_telemetry(shard, sent_at_ns, data),
        }
    }

    fn handle_sim(&mut self, peer: usize, tag: u64, msg: Msg<M::Payload>) -> Result<(), DistError> {
        let recv_ticks = msg.recv_time().ticks();
        self.tracker.note_recvd(peer, tag, recv_ticks);
        // A partially restored peer deterministically re-sends what is
        // already fixed below the recovery floor: count it (the
        // white-counter match needs every arrival) but do not re-deliver —
        // the copies we hold below the floor are identical by deterministic
        // re-execution.
        if self.replaying_from[peer] && recv_ticks < self.recovery_floor.max(self.gvt) {
            return Ok(());
        }
        match self.phase {
            Phase::Running | Phase::Draining => {
                // THE safety check: a message below the published GVT means
                // the distributed GVT overshot the true global minimum.
                if recv_ticks < self.gvt {
                    return Err(self.protocol_err(format!(
                        "GVT overshoot: message (tag {tag}) from shard {peer} at t={recv_ticks} \
                         below published gvt={}",
                        self.gvt
                    )));
                }
                if self.parked {
                    // Inbound demand re-activates a parked shard.
                    self.parked = false;
                }
                let mut outbox = std::mem::take(&mut self.outbox);
                self.engine.deliver(msg, &mut outbox);
                self.outbox = outbox;
                self.route_outbox()
            }
            // After finalize, nothing may touch the engine; the drain round
            // proved no such message can exist.
            Phase::Flushing | Phase::Done => {
                Err(self.protocol_err(format!("Sim frame from shard {peer} after Finish")))
            }
        }
    }

    fn handle_start(&mut self, round: u64, wave: u64) -> Result<(), DistError> {
        if round < self.min_valid_round {
            return Ok(()); // stale: predates a recovery point
        }
        // Round traffic counts as liveness: long multi-wave rounds must not
        // trip a participant's watchdog.
        self.last_liveness = Instant::now();
        let trace = self.tracer.enabled();
        let ph0 = if trace { self.now_ns() } else { 0 };
        if wave == 0 {
            // The epoch cut freezes this round's pending minimum: no ingest
            // injection until the publish, or the new event could sit below
            // the frozen minimum and the round's GVT overshoot it.
            self.cut_open = true;
            self.tracker
                .take_cut(round, self.engine.local_min().ticks());
        }
        let (pending_min, late_min, white_sent, white_recvd) = self.tracker.report();
        let rep = Frame::Report {
            round,
            wave,
            shard: self.shard as u64,
            pending_min,
            late_min,
            white_sent,
            white_recvd,
        };
        // Trace mapping: the cut + report build is Phase A, the report
        // dispatch is Send-A. On the coordinator the report is self-handled
        // (and may close the round inline), so its Send-A is a point span.
        let t1 = if trace {
            let t1 = self.now_ns();
            self.tracer.span(EventKind::GvtA, ph0, t1, round);
            t1
        } else {
            0
        };
        if self.shard == 0 {
            if trace {
                self.tracer.span(EventKind::GvtSendA, t1, t1, round);
            }
            self.handle_frame(0, rep)
        } else {
            let r = self.send_frame(0, &rep);
            if trace {
                self.tracer
                    .span(EventKind::GvtSendA, t1, self.now_ns(), round);
            }
            r
        }
    }

    fn handle_report(
        &mut self,
        round: u64,
        shard: usize,
        rep: ShardReport,
    ) -> Result<(), DistError> {
        if round < self.min_valid_round {
            return Ok(()); // stale: predates a recovery point
        }
        let Some(coord) = self.coord.as_mut() else {
            return Err(self.protocol_err("Report received by non-coordinator"));
        };
        match coord.on_report(round, shard, rep) {
            RoundClosure::Pending => Ok(()),
            RoundClosure::NextWave(wave) => {
                // Pace the re-poll: give late whites a few cycles to land.
                self.pending_wave = Some((round, wave));
                self.wave_due_at = Some(self.cycles + self.cfg.wave_interval_cycles);
                Ok(())
            }
            RoundClosure::Publish { gvt } => {
                let armed = coord.armed;
                // Read *after* on_report: the round that lifts the raw
                // minimum back to the floor clears recovery inline, and its
                // own publish is already a normal one.
                let recovering = coord.recovering;
                let was_terminated = self.terminated;
                let terminate = gvt >= self.end_ticks;
                self.terminated = self.terminated || terminate;
                if terminate && self.terminate_round.is_none() {
                    self.terminate_round = Some(round);
                }
                self.round_due_at = self.cycles + self.cfg.gvt_interval_cycles;
                // A matched round that started after termination proves the
                // links are drained: nobody processed during it, so nothing
                // is in flight any more. Publish, then Finish.
                let drained = was_terminated && self.terminate_round.is_some_and(|tr| round > tr);
                let pub_frame = Frame::Publish {
                    round,
                    gvt,
                    armed,
                    terminate,
                    recovering,
                };
                for p in 1..self.n {
                    self.send_frame(p, &pub_frame)?;
                }
                self.handle_frame(self.shard, pub_frame)?;
                if drained {
                    // Every data frame is proven delivered; run teardown on
                    // the clean transport so it converges under any fault
                    // plan.
                    for link in self.links.iter_mut().flatten() {
                        link.clear_faults();
                    }
                    for p in 1..self.n {
                        self.send_frame(p, &Frame::Finish)?;
                    }
                    self.handle_frame(self.shard, Frame::Finish)?;
                } else if self.terminated {
                    // Drain round: start immediately, no pacing needed.
                    self.round_due_at = self.cycles;
                }
                Ok(())
            }
        }
    }

    fn handle_publish(
        &mut self,
        round: u64,
        gvt: u64,
        armed: bool,
        terminate: bool,
        recovering: bool,
    ) -> Result<(), DistError> {
        if round < self.min_valid_round {
            return Ok(()); // stale: predates a recovery point
        }
        self.publishes_seen += 1;
        // The scripted kill dies on *receipt* of the fatal publish, before
        // applying it — deterministic in protocol progress, not wall clock.
        if self.cfg.kill_at.is_some_and(|at| self.publishes_seen >= at)
            && self.phase == Phase::Running
        {
            if !self.cfg.kill_silent {
                if let Some(abort) = &self.abort {
                    abort.store(true, Ordering::Relaxed);
                }
            }
            return Err(DistError::Killed { shard: self.shard });
        }
        self.last_liveness = Instant::now();
        if recovering {
            // The floor is re-published while a restored shard re-executes
            // below it. A survivor already sits at (or, restored, below)
            // the floor: keep counting rounds but skip adoption, fossil
            // collection, parking, and cuts until a normal publish.
            return Ok(());
        }
        if gvt < self.gvt {
            return Err(self.protocol_err(format!("published GVT regressed: {gvt} < {}", self.gvt)));
        }
        // First normal publish after a recovery: the matched round proves
        // nothing the restored peers re-sent is still in flight.
        if self.replaying_from.iter().any(|&r| r) {
            self.replaying_from.iter_mut().for_each(|r| *r = false);
            self.recovery_floor = 0;
        }
        self.gvt = gvt;
        // The round is closed: admission resumes against the new floor.
        self.cut_open = false;
        self.raise_ingest_floor(gvt);
        // Trace mapping for the publish side of a round: GVT adoption +
        // fossil collection is Phase B, the checkpoint cut + park/unpark
        // decision is Aware, and the round-snapshot bookkeeping is End.
        let trace = self.tracer.enabled();
        let mut ph = if trace { self.now_ns() } else { 0 };
        let vt = VirtualTime::from_ticks(gvt);
        self.engine.fossil_collect(vt);
        if trace {
            let now = self.now_ns();
            self.tracer.span(EventKind::GvtB, ph, now, round);
            ph = now;
        }
        if armed && self.phase == Phase::Running {
            // Every white of this round was delivered before the publish,
            // and every red is above the cut's minima — the engine sits
            // exactly on a consistent global cut at `gvt`.
            let cw0 = if trace { self.now_ns() } else { 0 };
            let (lps, events) = self.engine.snapshot_at_gvt(vt);
            let part = Frame::CutPart {
                round,
                shard: self.shard as u64,
                lps,
                events,
            };
            if self.shard == 0 {
                self.handle_frame(0, part)?;
            } else {
                self.send_frame(0, &part)?;
            }
            if trace {
                self.tracer
                    .span(EventKind::CheckpointWrite, cw0, self.now_ns(), round);
            }
            // Recovery restores from one of the two newest cuts: sends
            // below the previous armed cut can never need replaying again.
            let keep_from = self.prev_armed_gvt;
            self.prune_send_logs(keep_from);
            self.prev_armed_gvt = gvt;
        }
        if terminate {
            self.phase = Phase::Draining;
        } else if self.phase == Phase::Running {
            // The GVT publish is the demand-driven scheduling point: a
            // shard with no live work parks until an event re-creates
            // demand.
            let demand = self.engine.has_live_pending();
            if !demand && !self.parked {
                self.park_shard();
            } else if demand && self.parked {
                self.unpark_shard();
            }
        }
        if trace {
            let now = self.now_ns();
            self.tracer.span(EventKind::GvtAware, ph, now, round);
            ph = now;
            self.board
                .publish(0, self.engine.local_min(), self.engine.stats());
            self.tel.record_round(
                self.board.snapshot(
                    round,
                    gvt,
                    now,
                    usize::from(!self.parked),
                    vec![self.engine.pending_len()],
                    self.ingest
                        .as_ref()
                        .map_or((0, 0, 0, 0), IngestPort::totals),
                ),
            );
            if let Some(port) = &self.ingest {
                self.tracer.ingest_instants(now, port.round_deltas());
            }
            self.tracer
                .span(EventKind::GvtEnd, ph, self.now_ns(), round);
        }
        Ok(())
    }

    fn handle_cut_part(
        &mut self,
        round: u64,
        shard: usize,
        lps: Vec<LpCheckpoint<M::State>>,
        events: Vec<Event<M::Payload>>,
    ) -> Result<(), DistError> {
        if round < self.min_valid_round {
            return Ok(()); // stale: predates a recovery point
        }
        if self.coord.is_none() {
            return Err(self.protocol_err("CutPart received by non-coordinator"));
        }
        match self.cut_round {
            Some((r, _)) if r == round => {}
            // A straggler part of an older, abandoned cut: drop it rather
            // than clobbering the assembly in progress.
            Some((r, _)) if r > round => return Ok(()),
            _ if self.last_cut_done.is_some_and(|r| round <= r) => return Ok(()),
            _ => {
                self.cut_round = Some((round, self.gvt));
                self.cut_parts = vec![None; self.n];
            }
        }
        if self.cut_parts[shard].replace((lps, events)).is_some() {
            return Err(
                self.protocol_err(format!("shard {shard} sent two CutParts for round {round}"))
            );
        }
        if self.cut_parts.iter().all(|p| p.is_some()) {
            let (r, gvt_ticks) = self
                .cut_round
                .take()
                .ok_or_else(|| self.protocol_err("cut assembly completed with no cut open"))?;
            self.last_cut_done = Some(r);
            let parts = std::mem::take(&mut self.cut_parts)
                .into_iter()
                .flatten()
                .collect();
            let rounds = match self.coord.as_ref() {
                Some(c) => c.rounds_done,
                None => return Err(self.protocol_err("cut assembly on a non-coordinator")),
            };
            let ck = Checkpoint::assemble(
                VirtualTime::from_ticks(gvt_ticks),
                rounds,
                self.flat_map.clone(),
                parts,
                None,
            )
            .map_err(|e| self.protocol_err(format!("inconsistent cut: {e}")))?;
            self.cut_parts = vec![None; self.n];
            if let Some(slot) = &self.ckpt_slot {
                // Poison-survivable: a recovered supervisor still needs the
                // newest cut even if an earlier attempt died mid-lock.
                *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(ck);
            }
            // Scripted membership changes land exactly on an assembled cut:
            // the supervisor rebuilds the cluster from this checkpoint.
            if let Some(action) = self.due_reshape() {
                if let Some(abort) = &self.abort {
                    abort.store(true, Ordering::Relaxed);
                }
                return Err(DistError::Reshape { action });
            }
        }
        Ok(())
    }

    /// Coordinator: is a scripted join/leave due (by GVT publish count)?
    fn due_reshape(&self) -> Option<ReshapeAction> {
        if self.cfg.join_at.is_some_and(|at| self.publishes_seen >= at) {
            return Some(ReshapeAction::Join);
        }
        if let Some((s, at)) = self.cfg.leave_at {
            if self.publishes_seen >= at {
                return Some(ReshapeAction::Leave(s));
            }
        }
        None
    }

    fn handle_finish(&mut self) -> Result<(), DistError> {
        if self.phase != Phase::Draining {
            return Err(self.protocol_err(format!("Finish in phase {:?}", self.phase)));
        }
        for link in self.links.iter_mut().flatten() {
            link.clear_faults();
        }
        // The run is over: refuse further submissions, fail queued ones —
        // and the orphaned forward slots — with `Closed`.
        if let Some(port) = &self.ingest {
            port.gate.close();
        }
        for (_, slot) in self.forward_slots.drain() {
            if let ReplySlot::Local(f) = slot {
                f(IngestReply::Closed);
            }
        }
        self.engine.finalize();
        // Forward collected telemetry ahead of `Done`: the in-order link
        // guarantees the coordinator merges it before assembling the
        // outcome. A parked shard's open episode closes here.
        if self.tel.enabled() {
            if self.parked {
                self.unpark_shard();
            }
            let tracer = std::mem::replace(&mut self.tracer, Tracer::disabled());
            self.tel.deposit(tracer);
            let data = self.tel.take();
            let tf = Frame::Telemetry {
                shard: self.shard as u64,
                sent_at_ns: self.now_ns(),
                data,
            };
            if self.shard == 0 {
                self.handle_frame(0, tf)?;
            } else {
                self.send_frame(0, &tf)?;
            }
        }
        let done = Frame::Done {
            shard: self.shard as u64,
            stats: self.engine.stats().clone(),
            digests: self.engine.state_digests(),
            pending_digest: self.engine.pending_digest(),
            parked: self.parked_episodes,
        };
        self.phase = Phase::Flushing;
        self.flush_left = 16;
        if self.shard == 0 {
            self.handle_frame(0, done)
        } else {
            self.send_frame(0, &done)
        }
    }

    /// Coordinator: merge a shard's forwarded telemetry onto the local
    /// clock, offset-estimated as `now - sent_at_ns` (the forwarding
    /// frame's one-way latency is assumed small against the trace span).
    fn handle_telemetry(
        &mut self,
        shard: u64,
        sent_at_ns: u64,
        data: TelemetryData,
    ) -> Result<(), DistError> {
        if self.coord.is_none() {
            return Err(self.protocol_err("Telemetry received by non-coordinator"));
        }
        let offset_ns = self.now_ns() as i64 - sent_at_ns as i64;
        self.tel_merged.merge_shard(data, shard, offset_ns);
        Ok(())
    }

    fn handle_done(&mut self, shard: usize, d: DoneData) -> Result<(), DistError> {
        let Some(coord) = self.coord.as_ref() else {
            return Err(self.protocol_err("Done received by non-coordinator"));
        };
        if self.dones[shard].replace(d).is_some() {
            return Err(self.protocol_err(format!("shard {shard} reported Done twice")));
        }
        if self.dones.iter().all(|d| d.is_some()) {
            let mut totals = ThreadStats::default();
            let mut state_digests = Vec::new();
            let mut pending_digest = 0u64;
            let mut max_parked = 0u64;
            for d in self.dones.iter().flatten() {
                totals.merge(&d.stats);
                state_digests.extend(d.digests.iter().copied());
                pending_digest ^= d.pending_digest;
                max_parked = max_parked.max(d.parked);
            }
            state_digests.sort_by_key(|(lp, _)| *lp);
            let (gvt_rounds, gvt, regressions) = (coord.rounds_done, coord.gvt, coord.regressions);
            self.outcome = Some(NodeOutcome {
                totals,
                state_digests,
                pending_digest,
                gvt_rounds,
                gvt,
                regressions,
                max_parked,
                telemetry: self
                    .tel
                    .enabled()
                    .then(|| std::mem::take(&mut self.tel_merged)),
            });
        }
        Ok(())
    }

    /// Threaded main loop: step until finished, parking on the inbox when
    /// idle and enforcing the GVT-liveness watchdog.
    pub fn run(&mut self) -> Result<(), DistError> {
        self.last_liveness = Instant::now();
        // Fresh leases: supervisor orchestration (recovery) between runs
        // must not count as peer silence.
        self.hb_last_heard = vec![Instant::now(); self.n];
        self.last_hb_sent = Instant::now();
        loop {
            if let Some(limit) = self.cfg.watchdog {
                if self.last_liveness.elapsed() > limit {
                    // When tracing is on, stamp the stall report with the
                    // last round snapshot — the dist-rt analogue of the
                    // thread runtimes' `StallDump::last_round`.
                    let last_round = self
                        .tel
                        .last_round()
                        .map(|r| format!(", last round {} at gvt={}", r.round, r.gvt_ticks))
                        .unwrap_or_default();
                    return Err(DistError::Stalled {
                        shard: self.shard,
                        detail: format!(
                            "no GVT liveness for {:.1}s (gvt={}, phase {:?}{last_round})",
                            limit.as_secs_f64(),
                            self.gvt,
                            self.phase
                        ),
                    });
                }
            }
            match self.step()? {
                StepStatus::Finished => return Ok(()),
                StepStatus::Progress => {}
                StepStatus::Idle => {
                    // Park briefly: woken by any inbound packet. The short
                    // coordinator timeout keeps round pacing alive.
                    let wait = if self.coord.is_some() {
                        Duration::from_micros(200)
                    } else {
                        Duration::from_millis(2)
                    };
                    self.inbox.wait_nonempty(wait);
                }
            }
        }
    }
}
