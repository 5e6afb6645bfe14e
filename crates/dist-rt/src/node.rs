//! One shard of the distributed runtime.
//!
//! A [`ShardNode`] owns a [`ThreadEngine`] over its slice of LPs, a
//! [`ReliableLink`] per peer and its `GvtTracker`; shard 0 also holds the
//! coordinator's side of the run (`coord.rs`). Three jobs live in owners of
//! their own, used only through their methods: the ingest relay
//! (`relay.rs`), the peer-recovery fences and send log (`fences.rs`) and
//! the shard clock with its park episodes (`trace.rs`). Its
//! [`ShardNode::step`] is one cycle of the main loop — drain the inbox,
//! drive GVT rounds (coordinator only), process a batch, pump the links —
//! and is public so the deterministic [`crate::launcher::SteppedCluster`]
//! can interleave shards round-robin.
//! [`ShardNode::run`] puts the shard clock on wall time and wraps `step`
//! with inbox parking and a GVT-liveness watchdog for real runs.
//!
//! ## Demand-driven shard throttling
//!
//! On every GVT publish the node re-evaluates demand: a shard whose engine
//! holds no live pending work parks itself — it stops taking batches (and,
//! under [`ShardNode::run`], blocks on its inbox) until an inbound event
//! re-creates demand. This is the paper's demand-driven deactivation
//! applied at shard granularity: quiet inbound links and an empty pending
//! set mean the shard consumes no CPU until a remote event arrives.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pdes_core::{
    Checkpoint, CutSnapshot, EngineConfig, IngestError, IngestGate, LpId, LpMap, Model, Msg,
    Outbound, SimThreadId, ThreadEngine, VirtualTime,
};
use telemetry::EventKind;

use crate::coord::{Coord, NodeOutcome};
use crate::detector::Lease;
use crate::fences::PeerFences;
use crate::gvt::{GvtTracker, ShardReport};
use crate::launcher::DistConfig;
use crate::link::{Inbox, ReliableLink};
use crate::proto::Frame;
use crate::relay::{IngestRelay, Outgoing};
use crate::trace::ShardTrace;
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
    /// The run's [`DistConfig`] / [`ProcessOpts`](crate::ProcessOpts) cannot
    /// describe a cluster; refused before anything is built.
    Config(String),
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
            DistError::Config(why) => write!(f, "bad dist configuration: {why}"),
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

/// Events the engine takes per step. The engine already bounds optimism by
/// `gvt_hint + window`; this only controls how often the node services its
/// links.
const BATCH: usize = 64;

/// The frames of a run of model `M`.
pub(crate) type FrameOf<M> = Frame<<M as Model>::State, <M as Model>::Payload>;

/// A coordinator-only frame reached a shard that does not coordinate.
fn stray(shard: usize, kind: &str) -> DistError {
    DistError::Protocol {
        shard,
        detail: format!("{kind} received by non-coordinator"),
    }
}

/// One shard: engine + links + GVT tracker (+ coordinator state on shard 0),
/// with its ingest relay, peer-recovery fences and shard clock.
pub struct ShardNode<M: Model> {
    pub shard: usize,
    engine: ThreadEngine<M>,
    /// `links[p]` is the reliable link to shard `p` (`None` for self).
    links: Vec<Option<ReliableLink>>,
    inbox: Arc<Inbox>,
    tracker: GvtTracker,
    /// Shard 0 coordinates.
    co: Option<Coord<M>>,
    /// The run's configuration, as it stood when this node was built.
    cfg: DistConfig,
    flat_map: LpMap,
    /// The run's `EngineConfig::gvt_interval`: scripted partitions heal on it.
    gvt_interval: u64,
    /// Last published GVT (ticks) as seen by this node.
    gvt: u64,
    /// GVT publishes this node has observed (scripted-kill clock).
    publishes_seen: u64,
    phase: Phase,
    /// Cohort-wide abort flag (see [`Self::set_abort`]).
    abort: Option<Arc<AtomicBool>>,
    /// Watchdog: the shard clock (ns) at the last sign of GVT progress.
    last_liveness: u64,
    outbox: Vec<Outbound<M::Payload>>,
    /// Worker side of the failure detector: the clock (ns) at the last beacon.
    last_hb_sent: u64,
    relay: IngestRelay<M>,
    fences: PeerFences<M::Payload>,
    trace: ShardTrace,
}

impl<M: Model> ShardNode<M> {
    /// Build one shard node of the run `dcfg` describes. `flat_map` maps
    /// every LP to its owning shard (`SimThreadId(shard)`); `links[p]` must
    /// be `Some` exactly for `p != shard`. Shard 0 becomes the coordinator.
    pub fn new(
        model: Arc<M>,
        flat_map: LpMap,
        shard: usize,
        ecfg: &EngineConfig,
        dcfg: &DistConfig,
        mut links: Vec<Option<ReliableLink>>,
        inbox: Arc<Inbox>,
    ) -> ShardNode<M> {
        let n = links.len();
        assert!(links[shard].is_none(), "no link to self");
        let engine = ThreadEngine::new(model, flat_map.clone(), SimThreadId(shard as u32), ecfg);
        // Scripted partitions are live from the first cycle.
        for &(from, to, _) in &dcfg.partitions {
            if from == shard {
                if let Some(l) = links[to].as_mut() {
                    l.set_partitioned(true);
                }
            }
        }
        ShardNode {
            shard,
            engine,
            links,
            inbox,
            tracker: GvtTracker::new(n),
            co: (shard == 0).then(|| Coord::new(n, flat_map.clone(), ecfg, dcfg)),
            cfg: dcfg.clone(),
            flat_map,
            gvt_interval: ecfg.gvt_interval.into(),
            gvt: 0,
            publishes_seen: 0,
            phase: Phase::Running,
            abort: None,
            last_liveness: 0,
            outbox: Vec::new(),
            last_hb_sent: 0,
            relay: IngestRelay::new(),
            fences: PeerFences::new(n, dcfg.ckpt_every_rounds > 0),
            trace: ShardTrace::new(&dcfg.telemetry, n),
        }
    }

    /// Attach this shard's ingest gate. Must be called before
    /// [`Self::restore`] so a restored node replays the gate's
    /// accepted-but-uncut suffix into the rebuilt engine.
    pub fn set_ingest(&mut self, gate: Arc<IngestGate<M::Payload>>) {
        self.relay.attach(gate, self.flat_map.clone(), self.gvt);
    }

    /// Raise the gate's admission floor (recovery: the coordinator's
    /// published GVT may exceed what this node has adopted locally). A
    /// restored node has no round open, so this only moves the floor.
    pub fn raise_ingest_floor(&mut self, floor: u64) {
        self.relay.close_cut(floor);
    }

    /// Join a cohort: its abort flag is raised (by the supervisor's thread
    /// wrapper) when any shard's [`Self::run`] fails, and checked by all.
    pub fn set_abort(&mut self, abort: Option<Arc<AtomicBool>>) {
        self.abort = abort;
    }

    /// Emit a telemetry instant onto this node's clock (the
    /// supervisor stamps membership events through this too).
    pub fn trace_instant(&mut self, kind: EventKind, arg: u64) {
        self.trace.instant(kind, arg);
    }

    /// Scripted fault: die upon observing this many GVT publishes. Counted in
    /// protocol progress, not step cycles, so the kill lands at the same
    /// point of the simulation regardless of host speed or scheduling.
    fn kill_at(&self) -> Option<u64> {
        let mine = self.cfg.kills.iter().find(|k| k.0 == self.shard);
        mine.map(|k| k.1)
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
        self.co.as_mut()?.outcome.take()
    }

    /// The newest checkpoint cut the coordinator assembled (the supervisor
    /// restores from it).
    pub fn latest_cut(&self) -> Option<Checkpoint<M::State, M::Payload>> {
        self.co.as_ref()?.sink.latest()
    }

    /// Hand a message to its owner: this engine, or the outbox to ship.
    fn place(&mut self, dst: SimThreadId, msg: Msg<M::Payload>) {
        if dst.index() == self.shard {
            self.engine.deliver(msg, &mut self.outbox);
        } else {
            self.outbox.push((dst, msg));
        }
    }

    /// Restore this shard from a checkpointed global cut (recovery path).
    /// The engine filters `ck.lps` / `ck.events` by ownership itself. An
    /// attached ingest gate's accepted-but-uncut suffix is placed again, so
    /// every accepted event survives exactly once: admission is owned-only,
    /// but a reshape may have moved the LP to another shard.
    pub fn restore(&mut self, ck: &Checkpoint<M::State, M::Payload>) -> Result<(), DistError> {
        self.engine.restore(&ck.lps, &ck.events, ck.gvt);
        self.gvt = ck.gvt.ticks();
        if let Some(co) = &mut self.co {
            co.restore(ck);
        }
        for ev in self.relay.restore(ck.gvt) {
            self.place(self.flat_map.thread_of(ev.key.dst), Msg::Event(ev));
        }
        self.route_outbox()
    }

    /// `true` while the node is in its normal simulating phase (partial
    /// recovery is only safe for survivors that haven't begun teardown).
    pub fn is_running(&self) -> bool {
        self.phase == Phase::Running
    }

    /// The round number the coordinator will open next (recovery fencing;
    /// 0 on a shard that does not coordinate).
    pub fn upcoming_round(&self) -> u64 {
        self.co.as_ref().map_or(0, Coord::upcoming_round)
    }

    /// Replace the link to `peer` (recovery: the peer was rebuilt, so its
    /// seq/ack state restarted from zero).
    pub fn replace_link(&mut self, peer: usize, link: ReliableLink) {
        self.links[peer] = Some(link);
        self.trace.relink(peer);
    }

    /// Recovery prep on a survivor: cut the `dead` peers off and forget what
    /// is queued. Over TCP the transport under each of their links is
    /// severed — a socket shutdown reaches *both* ends' reader threads, so
    /// the dead node's blocked reader unblocks — and this node waits
    /// (bounded) for its own old readers' hang-up sentinels, so they cannot
    /// be mistaken for the fresh links' hang-ups later. Every raw packet
    /// queued meanwhile is dropped: none was run through
    /// [`ReliableLink::on_packet`], hence none was acked — a survivor's is
    /// redelivered by retransmission, the dead peers' die here.
    pub fn sever(&mut self, dead: &[usize], tcp: bool) {
        if tcp {
            for &d in dead {
                if let Some(link) = self.links[d].as_mut() {
                    link.hangup();
                }
            }
        }
        let deadline = self.trace.now_ns() + 2_000_000_000; // 2 s
        loop {
            for (peer, bytes) in self.inbox.drain() {
                if bytes.is_empty() {
                    self.fences.hang_up(peer);
                }
            }
            if !tcp || self.fences.hangups_seen(dead) || self.trace.now_ns() >= deadline {
                return;
            }
            self.inbox.wait_nonempty(Duration::from_millis(2));
        }
    }

    /// Survivor-side partial recovery, called by the supervisor between
    /// thread runs (never concurrently with [`Self::step`]). The `dead`
    /// shards, owners of `dead_lps`, were rebuilt from the cut at `cut`:
    /// - void every GVT counter shared with them (their fresh incarnations
    ///   restart those pairs from zero);
    /// - fence them (`PeerFences::recover`): their re-executed sub-GVT
    ///   duplicates are counted but not re-delivered, round traffic below
    ///   `first_valid_round` is dropped, and `floor` (the coordinator's
    ///   published GVT) becomes the recovery floor;
    /// - abandon any cut assembly in progress (coordinator) and enter GVT
    ///   recovery mode;
    /// - replay the send log to them from the cut on (they lost those
    ///   inputs, see `SendLog::replay`);
    /// - purge every input this engine took from their LPs in the window
    ///   they will re-execute (`send >= cut` and `recv >=` the recovery
    ///   floor — inputs received below the coordinator's published GVT are
    ///   globally fixed and the re-sent duplicates are dropped at the link
    ///   instead). Cascade anti-messages are routed normally (and logged,
    ///   so they reach the restored peer in order after the replay).
    pub fn recover_peers(
        &mut self,
        dead: &[usize],
        dead_lps: &[LpId],
        cut: u64,
        first_valid_round: u64,
        floor: u64,
    ) -> Result<(), DistError> {
        for &d in dead {
            self.tracker.reset_peer(d);
        }
        let floor = floor.max(self.gvt);
        let floor = self.fences.recover(dead, first_valid_round, floor);
        // Any wave-0 cut in flight is abandoned with the round; admissions
        // stay fenced anyway until the replay window closes.
        self.relay.close_cut(floor);
        self.last_liveness = self.trace.now_ns();
        if let Some(co) = &mut self.co {
            co.begin_recovery(dead, self.trace.cycles(), self.last_liveness);
        }
        for &d in dead {
            let msgs = self.fences.replay(d, cut).into_iter();
            let msgs: Vec<_> = msgs.map(|m| (self.tracker.note_sent(d), m)).collect();
            if !msgs.is_empty() {
                self.send_frame(d, &Frame::SimBatch { msgs })?;
            }
        }
        self.engine.purge_inputs_from(
            dead_lps,
            VirtualTime::from_ticks(cut),
            VirtualTime::from_ticks(floor),
            &mut self.outbox,
        );
        self.route_outbox()
    }

    /// Route this shard's initial events (fresh starts only — a restored
    /// run's events live in the checkpoint).
    pub fn bootstrap(&mut self) -> Result<(), DistError> {
        for (dst, msg) in self.engine.take_init_events() {
            self.place(dst, msg);
        }
        self.route_outbox()
    }

    fn send_frame(&mut self, peer: usize, frame: &FrameOf<M>) -> Result<(), DistError> {
        let bytes = wire::to_bytes(frame);
        let shard = self.shard;
        let Some(link) = self.links[peer].as_mut() else {
            return Err(DistError::Protocol {
                shard,
                detail: format!("no link {shard} -> {peer}"),
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

    /// Send the frames a relay method returned, in order.
    fn send_all(&mut self, frames: impl IntoIterator<Item = Outgoing<M>>) -> Result<(), DistError> {
        for (peer, frame) in frames {
            self.send_frame(peer, &frame)?;
        }
        Ok(())
    }

    /// Shard → coordinator. The coordinator is also a shard: it handles its
    /// own frame inline.
    fn tell_coordinator(&mut self, frame: FrameOf<M>) -> Result<(), DistError> {
        if self.shard == 0 {
            self.handle_frame(0, frame)
        } else {
            self.send_frame(0, &frame)
        }
    }

    /// Coordinator → all, its own copy handled inline last.
    fn broadcast(&mut self, frame: FrameOf<M>) -> Result<(), DistError> {
        for p in 1..self.links.len() {
            self.send_frame(p, &frame)?;
        }
        self.handle_frame(0, frame)
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
        if self.outbox.is_empty() {
            return Ok(());
        }
        let mut batches = vec![Vec::new(); self.links.len()];
        for (tid, msg) in self.outbox.drain(..) {
            let dst = tid.index();
            debug_assert_ne!(dst, self.shard, "engine outbox never holds local msgs");
            self.fences.record(dst, &msg);
            batches[dst].push((self.tracker.note_sent(dst), msg));
        }
        for (peer, msgs) in batches.into_iter().enumerate() {
            if !msgs.is_empty() {
                self.send_frame(peer, &Frame::SimBatch { msgs })?;
            }
        }
        Ok(())
    }

    fn protocol_err(&self, detail: impl Into<String>) -> DistError {
        DistError::Protocol {
            shard: self.shard,
            detail: detail.into(),
        }
    }

    /// Worker side of the failure detector: send shard 0 a heartbeat once
    /// the cadence has passed since the last one.
    fn beacon(&mut self) -> Result<(), DistError> {
        let Some(interval) = self.cfg.heartbeat.as_ref().map(|h| h.interval) else {
            return Ok(());
        };
        let now = self.trace.now_ns();
        if self.shard != 0
            && self.phase <= Phase::Draining
            && now.saturating_sub(self.last_hb_sent) >= interval.as_nanos() as u64
        {
            self.last_hb_sent = now;
            let shard = self.shard as u64;
            self.send_frame(0, &Frame::Heartbeat { shard })?;
        }
        Ok(())
    }

    /// One main-loop cycle.
    pub fn step(&mut self) -> Result<StepStatus, DistError> {
        if self.phase == Phase::Done {
            return Ok(StepStatus::Finished);
        }
        let aborted = self
            .abort
            .as_ref()
            .is_some_and(|a| a.load(Ordering::Relaxed));
        if aborted && self.kill_at().is_none_or(|at| self.publishes_seen < at) {
            return Err(DistError::Aborted { shard: self.shard });
        }
        let cycle = self.trace.tick();

        let mut progress = false;

        // 0. Scripted partitions of this node's outgoing links heal on its
        // own cycle clock (not GVT publishes), so a partition that stalls
        // the GVT cannot deadlock its own heal.
        for &(from, to, rounds) in &self.cfg.partitions {
            if from == self.shard && cycle >= rounds.saturating_mul(self.gvt_interval) {
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
                self.fences.hang_up(peer);
                if self.phase >= Phase::Draining {
                    continue;
                }
                return Err(DistError::PeerDead {
                    shard: peer,
                    detail: format!("shard {peer} hung up mid-run"),
                });
            }
            // Any inbound packet is proof of life for the failure detector.
            if let Some(det) = self.co.as_mut().and_then(|c| c.detector.as_mut()) {
                det.heard(peer, self.trace.now_ns());
            }
            let Some(link) = self.links[peer].as_mut() else {
                return Err(self.protocol_err(format!("packet from unlinked peer {peer}")));
            };
            for fb in link.on_packet(&bytes)? {
                let frame: FrameOf<M> = wire::from_bytes(&fb)?;
                self.handle_frame(peer, frame)?;
            }
            // A long drain must not outlast this shard's lease.
            self.beacon()?;
        }

        // 1b. Heartbeats: workers beacon on their clock's cadence; the
        // coordinator audits every peer's lease.
        self.beacon()?;
        self.check_peer_liveness()?;

        // 2. Coordinator: drive rounds.
        self.drive_rounds()?;

        // 2b. Admit external events between rounds (the relay holds them
        // while a wave-0 cut epoch is open or a restored peer is replaying).
        if self.phase == Phase::Running {
            let replaying = self.fences.replaying();
            let (engine, outbox) = (&mut self.engine, &mut self.outbox);
            let (injected, sends) = self.relay.pump(replaying, &self.flat_map, engine, outbox)?;
            self.route_outbox()?;
            if injected > 0 {
                // External demand re-activates a demand-throttled shard,
                // same as an inbound remote event.
                self.trace.unpark();
                progress = true;
            }
            self.send_all(sends)?;
        }

        // 3. Simulate.
        if self.phase == Phase::Running && !self.trace.parked() {
            let b0 = self.trace.stamp();
            let rb0 = self.engine.stats().rolled_back;
            let out = self.engine.process_batch(BATCH, &mut self.outbox);
            self.route_outbox()?;
            if out.processed > 0 {
                progress = true;
                let rolled_back = self.engine.stats().rolled_back - rb0;
                self.trace.batch(b0, out.processed as u64, rolled_back);
            }
            // Demand check between publishes: new local work un-parks; a
            // shard that just went empty waits for the next publish to park
            // (publish is the scheduling decision point).
        } else if self.phase == Phase::Running && self.engine.has_live_pending() {
            self.trace.unpark();
            progress = true;
        }

        // 4. Pump every link (acks, retransmits, delayed releases).
        for p in 0..self.links.len() {
            let Some(link) = self.links[p].as_mut() else {
                continue;
            };
            match link.pump() {
                Ok(()) => {}
                Err(_) if self.phase >= Phase::Flushing => {}
                Err(e) => return Err(DistError::Io(e)),
            }
            self.trace.retransmits(p, link.retransmits);
        }

        // 5. Flushing: stay until the frames that still matter are acked —
        // a worker until its `Done` is acked by the coordinator, the
        // coordinator until every link is drained (its `Finish` reached
        // every worker) and every `Done` is folded. A worker does not wait
        // on its links to other workers: what it sent them before `Finish`
        // is proven delivered, and a peer that finished first acks nothing
        // any more.
        if self.phase == Phase::Flushing {
            let awaited = if self.shard == 0 { self.links.len() } else { 1 };
            let drained = self.links[..awaited].iter().flatten().all(|l| l.drained());
            let collected = self.co.as_ref().is_none_or(|c| c.outcome.is_some());
            if drained && collected {
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

    /// Coordinator-only failure detector: suspect a peer (telemetry) when
    /// its silence is phi-anomalous; declare it dead when its lease runs
    /// out. Death aborts the cohort so the supervisor can recover.
    fn check_peer_liveness(&mut self) -> Result<(), DistError> {
        if self.phase != Phase::Running {
            return Ok(());
        }
        for p in 1..self.links.len() {
            let Some(det) = self.co.as_mut().and_then(|c| c.detector.as_mut()) else {
                return Ok(());
            };
            match det.audit(p, self.trace.now_ns()) {
                Lease::Live => {}
                Lease::Suspect => self.trace.instant(EventKind::HeartbeatMiss, p as u64),
                Lease::Expired(silent) => {
                    return Err(DistError::PeerDead {
                        shard: p,
                        detail: format!("lease expired: silent for {} ms", silent.as_millis()),
                    });
                }
            }
        }
        Ok(())
    }

    /// Coordinator-only: re-poll a wave when due, open rounds on schedule.
    fn drive_rounds(&mut self) -> Result<(), DistError> {
        if self.phase > Phase::Draining {
            return Ok(());
        }
        let cycle = self.trace.cycles();
        if let Some(start) = self.co.as_mut().and_then(|c| c.due_wave(cycle)) {
            self.broadcast(start)?;
        }
        let running = self.phase == Phase::Running;
        if let Some(start) = self.co.as_mut().and_then(|c| c.due_round(cycle, running)) {
            self.broadcast(start)?;
        }
        Ok(())
    }

    fn handle_frame(&mut self, peer: usize, frame: FrameOf<M>) -> Result<(), DistError> {
        // Round traffic from before a recovery point is stale.
        if let Frame::Start { round, .. }
        | Frame::Report { round, .. }
        | Frame::Publish { round, .. }
        | Frame::CutPart { round, .. } = &frame
        {
            if self.fences.stale(*round) {
                return Ok(());
            }
        }
        match frame {
            Frame::SimBatch { msgs } => {
                // In-batch order is send order; delivering in sequence
                // preserves the per-peer FIFO contract. A send-log replay
                // can take longer to deliver than a lease: keep beaconing.
                for (tag, msg) in msgs {
                    self.handle_sim(peer, tag, msg)?;
                    self.beacon()?;
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
                round, lps, events, ..
            } => self.handle_cut_part(round, (lps, events)),
            Frame::Done {
                shard,
                stats,
                digests,
                pending_digest,
                parked,
            } => {
                let co = self.co.as_mut().ok_or_else(|| stray(self.shard, "Done"))?;
                co.on_done(shard as usize, &stats, digests, pending_digest, parked)
                    .map_err(|e| self.protocol_err(e))
            }
            Frame::Ingest { origin, key, req } => {
                let reply = self.relay.on_ingest(origin as usize, key, req);
                self.send_all(reply)
            }
            Frame::IngestReply { key, reply } => {
                let resolved = self.relay.on_reply(key, reply);
                self.send_all(resolved)
            }
            Frame::Telemetry {
                shard,
                sent_at_ns,
                data,
            } => {
                // The clock offset is estimated as `now - sent_at_ns` (the
                // forwarding frame's one-way latency is assumed small
                // against the trace span).
                let offset_ns = self.trace.now_ns() as i64 - sent_at_ns as i64;
                let co = self.co.as_mut();
                let out = &mut co.ok_or_else(|| stray(self.shard, "Telemetry"))?.folding;
                let merged = out.telemetry.get_or_insert_default();
                merged.merge_shard(data, shard, offset_ns);
                Ok(())
            }
        }
    }

    fn handle_sim(&mut self, peer: usize, tag: u64, msg: Msg<M::Payload>) -> Result<(), DistError> {
        let recv_ticks = msg.recv_time().ticks();
        self.tracker.note_recvd(peer, tag, recv_ticks);
        // A replaying peer's duplicate is counted (the white-counter match
        // needs every arrival) but not re-delivered.
        if self.fences.replayed(peer, recv_ticks, self.gvt) {
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
                // Inbound demand re-activates a parked shard.
                self.trace.unpark();
                self.engine.deliver(msg, &mut self.outbox);
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
        // Round traffic counts as liveness: long multi-wave rounds must not
        // trip a participant's watchdog.
        self.last_liveness = self.trace.now_ns();
        let ph0 = self.trace.stamp();
        if wave == 0 {
            // The epoch cut freezes this round's pending minimum: no ingest
            // injection until the publish, or the new event could sit below
            // the frozen minimum and the round's GVT overshoot it.
            self.relay.open_cut();
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
        let t1 = self.trace.span(EventKind::GvtA, ph0, round);
        if self.shard == 0 {
            self.trace.point(EventKind::GvtSendA, t1, round);
        }
        let sent = self.tell_coordinator(rep);
        if self.shard != 0 {
            self.trace.span(EventKind::GvtSendA, t1, round);
        }
        sent
    }

    fn handle_report(
        &mut self,
        round: u64,
        shard: usize,
        rep: ShardReport,
    ) -> Result<(), DistError> {
        let co = self
            .co
            .as_mut()
            .ok_or_else(|| stray(self.shard, "Report"))?;
        let Some((publish, drained)) = co.on_report(round, shard, rep, self.trace.cycles()) else {
            return Ok(());
        };
        self.broadcast(publish)?;
        if drained {
            // Every data frame is proven delivered; run teardown on the
            // clean transport so it converges under any fault plan.
            for link in self.links.iter_mut().flatten() {
                link.clear_faults();
            }
            self.broadcast(Frame::Finish)?;
        }
        Ok(())
    }

    fn handle_publish(
        &mut self,
        round: u64,
        gvt: u64,
        armed: bool,
        terminate: bool,
        recovering: bool,
    ) -> Result<(), DistError> {
        self.publishes_seen += 1;
        // The scripted kill dies on *receipt* of the fatal publish, before
        // applying it — deterministic in protocol progress, not wall clock.
        // A dead node never steps again.
        if self.kill_at().is_some_and(|at| self.publishes_seen >= at)
            && self.phase == Phase::Running
        {
            self.phase = Phase::Done;
            return Err(DistError::Killed { shard: self.shard });
        }
        self.last_liveness = self.trace.now_ns();
        if recovering {
            // A restored shard re-executes below the floor; `gvt` is the
            // round's raw minimum, the true GVT. Collecting at it moves the
            // restored shard's optimism horizon along (a no-op on survivors);
            // adoption, parking and cuts wait for a normal publish.
            self.engine.fossil_collect(VirtualTime::from_ticks(gvt));
            return Ok(());
        }
        if gvt < self.gvt {
            return Err(self.protocol_err(format!("published GVT regressed: {gvt} < {}", self.gvt)));
        }
        // The first normal publish after a recovery lifts its fences.
        self.fences.lift();
        self.gvt = gvt;
        // The round is closed: admission resumes against the new floor.
        self.relay.close_cut(gvt);
        // GVT adoption + fossil collection is the round's Phase B.
        let ph = self.trace.stamp();
        let vt = VirtualTime::from_ticks(gvt);
        self.engine.fossil_collect(vt);
        let ph = self.trace.span(EventKind::GvtB, ph, round);
        if armed && self.phase == Phase::Running {
            // Every white of this round was delivered before the publish,
            // and every red is above the cut's minima — the engine sits
            // exactly on a consistent global cut at `gvt`.
            let cw0 = self.trace.stamp();
            let (lps, events) = self.engine.snapshot_at_gvt(vt);
            self.tell_coordinator(Frame::CutPart {
                round,
                shard: self.shard as u64,
                lps,
                events,
            })?;
            self.trace.span(EventKind::CheckpointWrite, cw0, round);
            self.fences.on_cut(gvt);
        }
        if terminate {
            self.phase = Phase::Draining;
        } else if self.phase == Phase::Running {
            // The GVT publish is the demand-driven scheduling point.
            self.trace.reschedule(self.engine.has_live_pending(), round);
        }
        let port = self.relay.port();
        self.trace.close_round(round, gvt, ph, &self.engine, port);
        Ok(())
    }

    /// Coordinator: one shard's part of an armed round's cut.
    fn handle_cut_part(
        &mut self,
        round: u64,
        part: CutSnapshot<M::State, M::Payload>,
    ) -> Result<(), DistError> {
        let co = self
            .co
            .as_mut()
            .ok_or_else(|| stray(self.shard, "CutPart"))?;
        let assembled = co
            .on_cut_part(round, part)
            .map_err(|e| self.protocol_err(format!("inconsistent cut: {e}")))?;
        if !assembled {
            return Ok(());
        }
        // Scripted membership changes land exactly on an assembled cut (the
        // first one at or after the scripted GVT publish): the supervisor
        // rebuilds the cluster from this checkpoint.
        let due = |at: u64| self.publishes_seen >= at;
        let action = if self.cfg.join_at.is_some_and(due) {
            ReshapeAction::Join
        } else if let Some((s, _)) = self.cfg.leave_at.filter(|&(_, at)| due(at)) {
            ReshapeAction::Leave(s)
        } else {
            return Ok(());
        };
        Err(DistError::Reshape { action })
    }

    fn handle_finish(&mut self) -> Result<(), DistError> {
        if self.phase != Phase::Draining {
            return Err(self.protocol_err(format!("Finish in phase {:?}", self.phase)));
        }
        for link in self.links.iter_mut().flatten() {
            link.clear_faults();
        }
        self.relay.close();
        self.engine.finalize();
        // Forward collected telemetry ahead of `Done`: the in-order link
        // guarantees the coordinator merges it before assembling the
        // outcome. A parked shard's open episode closes here.
        if let Some(data) = self.trace.hand_off() {
            self.tell_coordinator(Frame::Telemetry {
                shard: self.shard as u64,
                sent_at_ns: self.trace.now_ns(),
                data,
            })?;
        }
        let done = Frame::Done {
            shard: self.shard as u64,
            stats: self.engine.stats().clone(),
            digests: self.engine.state_digests(),
            pending_digest: self.engine.pending_digest(),
            parked: self.trace.episodes(),
        };
        self.phase = Phase::Flushing;
        self.tell_coordinator(done)
    }

    /// Threaded main loop on wall time: step until finished, parking on the
    /// inbox when idle and enforcing the GVT-liveness watchdog.
    pub fn run(&mut self) -> Result<(), DistError> {
        self.trace.start_wall_clock();
        self.last_liveness = self.trace.now_ns();
        self.last_hb_sent = self.last_liveness;
        // Fresh leases: supervisor orchestration (recovery) between runs
        // must not count as peer silence.
        if let Some(co) = &mut self.co {
            co.renew_leases(&[], self.last_liveness);
        }
        loop {
            let quiet = self.trace.now_ns().saturating_sub(self.last_liveness);
            if let Some(limit) = self.cfg.watchdog.filter(|l| quiet > l.as_nanos() as u64) {
                let last_round = self.trace.last_round();
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
            match self.step()? {
                StepStatus::Finished => return Ok(()),
                StepStatus::Progress => {}
                StepStatus::Idle => {
                    // Park briefly: woken by any inbound packet. The short
                    // coordinator timeout keeps round pacing alive.
                    let wait = if self.co.is_some() {
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
