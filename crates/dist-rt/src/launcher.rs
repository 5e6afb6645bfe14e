//! Cluster launchers: loopback (threads over memory or TCP links), an
//! elastic-membership supervisor (heartbeat-discovered failures, partial
//! recovery, join/leave at GVT cuts, graceful degradation), the
//! deterministic stepped harness, and the single-shard entry point for
//! real multi-process runs.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use metrics::RunMetrics;
use pdes_core::{Checkpoint, EngineConfig, IngestGate, LpId, LpMap, Model, SimThreadId};
use telemetry::EventKind;

use crate::coord::NodeOutcome;
use crate::detector::HeartbeatConfig;
use crate::faults::{LinkFaultPlan, LinkFaults};
use crate::link::{
    read_hello, spawn_tcp_reader, write_hello, Backoff, Inbox, MemTx, ReliableLink, TcpTx,
};
use crate::node::{Cut, DistError, ReshapeAction, ShardNode};

/// How loopback shards talk to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process memory links (deterministic-friendly, TSan-friendly).
    Mem,
    /// Real TCP sockets on localhost.
    Tcp,
}

/// Configuration of a whole distributed run.
#[derive(Debug, Clone)]
pub struct DistConfig {
    pub shards: usize,
    pub transport: Transport,
    /// Per-directed-link fault plan (delay / drop / duplicate), seeded.
    pub link_faults: Option<LinkFaultPlan>,
    /// Scripted shard kills: `(shard, nth GVT publish observed)` — counted
    /// in protocol progress so the kill is deterministic across hosts.
    pub kills: Vec<(usize, u64)>,
    /// Heartbeat failure detection (`None` = off).
    pub heartbeat: Option<HeartbeatConfig>,
    /// Scripted transient partitions: `(from, to, for_rounds)` — shard
    /// `from`'s outgoing link to `to` swallows every frame until `from` has
    /// run `for_rounds * EngineConfig::gvt_interval` cycles, then heals and
    /// lets retransmission resume delivery.
    pub partitions: Vec<(usize, usize, u64)>,
    /// Admit one joining shard at the first checkpoint cut assembled at or
    /// after the `n`th GVT publish.
    pub join_at: Option<u64>,
    /// Drain shard `.0` out of the cluster at the first cut assembled at or
    /// after the `.1`th GVT publish.
    pub leave_at: Option<(usize, u64)>,
    /// Recovery attempts the supervisor may spend on kills.
    pub max_recoveries: u32,
    /// When recovery attempts are exhausted but a checkpoint cut exists,
    /// shrink the cluster around the dead shard(s) instead of failing the
    /// run (graceful degradation).
    pub degrade: bool,
    /// Checkpoint cut every this many GVT rounds (0 = never).
    pub ckpt_every_rounds: u64,
    /// GVT-liveness watchdog per shard.
    pub watchdog: Option<Duration>,
    /// TCP mesh setup deadline.
    pub mesh_timeout: Duration,
    /// Live tracing / round-snapshot collection (off by default). Each
    /// shard collects locally and forwards to the coordinator at Finish.
    pub telemetry: telemetry::TelemetryConfig,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            shards: 2,
            transport: Transport::Mem,
            link_faults: None,
            kills: Vec::new(),
            heartbeat: None,
            partitions: Vec::new(),
            join_at: None,
            leave_at: None,
            max_recoveries: 0,
            degrade: false,
            ckpt_every_rounds: 0,
            watchdog: Some(Duration::from_secs(10)),
            mesh_timeout: Duration::from_secs(10),
            telemetry: telemetry::TelemetryConfig::default(),
        }
    }
}

impl DistConfig {
    /// What must hold of a run's configuration whoever built it. Every
    /// launcher calls this before it builds anything, so a bad script is a
    /// [`DistError::Config`], never a panic or an index out of range in the
    /// middle of a run. (The coordinator is a legal kill target here —
    /// `dist_equiv` recovers from it; front ends may be stricter.)
    pub fn check(&self) -> Result<(), DistError> {
        let n = self.shards;
        let bad = |why: String| Err(DistError::Config(why));
        if n == 0 {
            return bad("need at least one shard".into());
        }
        let named = (self.kills.iter().map(|k| ("kill", k.0)))
            .chain(self.leave_at.map(|l| ("leave", l.0)))
            .chain(self.partitions.iter().map(|p| ("partition", p.0.max(p.1))));
        for (what, shard) in named {
            if shard >= n {
                return bad(format!("{what} names shard {shard} of {n}"));
            }
        }
        if let Some(p) = self.partitions.iter().find(|p| p.0 == p.1) {
            return bad(format!("partition {}:{} is not a link", p.0, p.1));
        }
        if let Some(hb) = &self.heartbeat {
            if hb.interval.is_zero() || hb.miss_threshold == 0 {
                return bad("heartbeat interval and miss threshold must be positive".into());
            }
        }
        if self.mesh_timeout.is_zero() {
            return bad("mesh timeout must be positive".into());
        }
        // A reshape lands only on an assembled cut and degradation restarts
        // from one: without a cadence no round is armed, so they would never
        // happen.
        let reshape = (self.join_at.map(|_| "join"))
            .or(self.leave_at.map(|_| "leave"))
            .or(self.degrade.then_some("degrade"));
        if let Some(what) = reshape.filter(|_| self.ckpt_every_rounds == 0) {
            return bad(format!(
                "{what} needs checkpoint cuts (--checkpoint-every-gvt N, N > 0)"
            ));
        }
        Ok(())
    }
}

/// The assembled outcome of a distributed run.
#[derive(Debug, Clone, Default)]
pub struct DistResult {
    pub metrics: RunMetrics,
    /// Final per-LP state digests, ascending by LP.
    pub state_digests: Vec<(LpId, u64)>,
    /// XOR-fold of per-shard unprocessed-event digests.
    pub pending_digest: u64,
    /// Final published GVT (ticks).
    pub gvt: u64,
    /// Clamped GVT regressions (should be 0).
    pub regressions: u64,
    /// The shard each kill recovery (full restart or partial restore)
    /// replaced, in recovery order: its length counts them.
    pub recovered: Vec<usize>,
    /// Recoveries that restored only the dead shard(s) from the latest cut
    /// while the survivors replayed their send logs in place.
    pub partial_recoveries: u32,
    /// Whether any recovery restored from an assembled checkpoint cut
    /// (as opposed to replaying from the start).
    pub used_checkpoint: bool,
    /// Shards in the membership when the run finished (join/leave/degrade
    /// change this from `DistConfig::shards`).
    pub shards_final: usize,
    /// Membership reshapes performed (joins + leaves + degradations).
    pub membership_epoch: u64,
    /// Merged telemetry across all shards (when tracing was enabled),
    /// mapped onto the coordinator's clock. Full-restart recoveries start a
    /// fresh collection; this is the final (successful) attempt's data.
    pub telemetry: Option<telemetry::TelemetryData>,
}

fn link_faults_for(plan: &Option<LinkFaultPlan>, src: usize, dst: usize) -> Option<LinkFaults> {
    plan.as_ref()
        .filter(|p| p.is_active())
        .map(|p| LinkFaults::new(p, src, dst))
}

/// Full-mesh TCP handshake for shard `shard`: connect to every lower shard
/// at `connect_addrs` (one per lower shard, as [`ProcessOpts::check`]
/// requires) under the [`Backoff`] policy, accept from every higher one,
/// exchanging the raw `Hello` version + shard-id preamble. Returns one
/// stream per peer.
fn tcp_mesh(
    shard: usize,
    num_shards: usize,
    listener: TcpListener,
    connect_addrs: &[SocketAddr],
    timeout: Duration,
) -> Result<Vec<Option<TcpStream>>, DistError> {
    let deadline = Instant::now() + timeout;
    let mut streams: Vec<Option<TcpStream>> = (0..num_shards).map(|_| None).collect();
    let timeout_err = |what: String| DistError::ConnectTimeout {
        shard,
        detail: what,
    };
    for (j, addr) in connect_addrs.iter().enumerate().take(shard) {
        let mut backoff = Backoff::standard(0x6D65_7368 ^ ((shard as u64) << 8) ^ j as u64);
        let mut stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(timeout_err(format!(
                            "shard {j} at {addr} never accepted after {} attempts: {e}",
                            backoff.attempts()
                        )));
                    }
                    std::thread::sleep(backoff.next_delay());
                }
            }
        };
        stream.set_nodelay(true)?;
        write_hello(&mut stream, shard)?;
        streams[j] = Some(stream);
    }
    listener.set_nonblocking(true)?;
    let mut expected = num_shards - shard - 1;
    let mut backoff = Backoff::standard(0x6163_6370 ^ shard as u64);
    while expected > 0 {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_secs(5)))?;
                stream.set_nonblocking(false)?;
                let peer = read_hello(&mut stream)?;
                if peer <= shard || peer >= num_shards {
                    return Err(DistError::Protocol {
                        shard,
                        detail: format!("bogus Hello from shard {peer}"),
                    });
                }
                stream.set_read_timeout(None)?;
                if streams[peer].replace(stream).is_some() {
                    return Err(DistError::Protocol {
                        shard,
                        detail: format!("shard {peer} connected twice"),
                    });
                }
                expected -= 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(timeout_err(format!(
                        "{expected} higher shard(s) never connected"
                    )));
                }
                std::thread::sleep(backoff.next_delay());
            }
            Err(e) => return Err(DistError::Io(e)),
        }
    }
    Ok(streams)
}

/// One loopback TCP connection between shards `lo < hi`, handshaked with
/// the same versioned `Hello` preamble as the real mesh. Returns
/// `(lo's stream, hi's stream)`.
fn tcp_pair(lo: usize, hi: usize) -> Result<(TcpStream, TcpStream), DistError> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let mut connector = TcpStream::connect(addr)?;
    let (mut acceptor, _) = listener.accept()?;
    connector.set_nodelay(true)?;
    acceptor.set_nodelay(true)?;
    write_hello(&mut connector, hi)?;
    let peer = read_hello(&mut acceptor)?;
    if peer != hi {
        return Err(DistError::Protocol {
            shard: lo,
            detail: format!("loopback pair announced shard {peer}, expected {hi}"),
        });
    }
    Ok((acceptor, connector))
}

/// Wrap one endpoint of a TCP connection into a reliable link, spawning
/// its reader thread into `inbox`.
fn tcp_link(
    me: usize,
    peer: usize,
    stream: TcpStream,
    inbox: &Arc<Inbox>,
    plan: &Option<LinkFaultPlan>,
) -> Result<ReliableLink, DistError> {
    let reader = stream.try_clone()?;
    spawn_tcp_reader(reader, peer, Arc::clone(inbox));
    Ok(ReliableLink::new(
        Box::new(TcpTx { stream }),
        link_faults_for(plan, me, peer),
    ))
}

/// Assemble the coordinator's [`NodeOutcome`] of a run started at `t0` into
/// a [`DistResult`] on `books` (the membership and its recoveries).
fn assemble_result(out: NodeOutcome, lps: usize, t0: Instant, books: DistResult) -> DistResult {
    let telemetry = out.telemetry;
    let mut metrics = RunMetrics::of_run(
        "GG-PDES-Dist".to_string(),
        books.shards_final,
        lps,
        &out.totals,
        out.gvt_rounds,
        out.max_parked as usize,
        telemetry.as_ref(),
    );
    metrics.wall_secs = t0.elapsed().as_secs_f64();
    DistResult {
        metrics,
        state_digests: out.state_digests,
        pending_digest: out.pending_digest,
        gvt: out.gvt,
        regressions: out.regressions,
        telemetry,
        ..books
    }
}

/// Per-shard ingest gates, indexed by shard id. The gates outlive every
/// attempt (the supervisor holds the `Arc`s), so admissions, idempotency
/// state, and journals survive kills and reshapes.
pub type IngestGates<M> = Vec<Arc<IngestGate<<M as Model>::Payload>>>;

/// A loopback cluster: what every node of the run is built from, one
/// [`ShardNode`] per shard, their inboxes (a dead shard's links are rebuilt
/// on fresh ones) and the run's recovery books. Both drivers — the threaded
/// supervisor and [`SteppedCluster`] — hand it their failures
/// ([`Self::recover`]) and take their result from it ([`Self::finish`]).
struct Cluster<M: Model> {
    model: Arc<M>,
    ecfg: EngineConfig,
    dcfg: DistConfig,
    map: LpMap,
    nodes: Vec<ShardNode<M>>,
    inboxes: Vec<Arc<Inbox>>,
    /// The cut the nodes were restored from — the newest one until the
    /// coordinator assembles its own.
    restored: Option<Cut<M>>,
    gates: Option<IngestGates<M>>,
    /// Cohort-wide abort flag of a threaded cluster; a stepped one runs on
    /// the caller's thread and has nobody to tell.
    abort: Option<Arc<AtomicBool>>,
    /// `recovered`, `partial_recoveries`, `used_checkpoint` and
    /// `membership_epoch` so far; [`Self::finish`] fills in the rest.
    books: DistResult,
    t0: Instant,
}

impl<M: Model> Cluster<M> {
    /// Check `dcfg`, then build the whole cluster supervisor-side.
    fn build(
        model: Arc<M>,
        ecfg: &EngineConfig,
        dcfg: &DistConfig,
        gates: Option<IngestGates<M>>,
        abort: Option<Arc<AtomicBool>>,
    ) -> Result<Cluster<M>, DistError> {
        dcfg.check()?;
        let mut cl = Cluster {
            map: LpMap::new(model.num_lps(), dcfg.shards, ecfg.mapping),
            model,
            ecfg: ecfg.clone(),
            dcfg: dcfg.clone(),
            nodes: Vec::new(),
            inboxes: Vec::new(),
            restored: None,
            gates,
            abort,
            books: DistResult::default(),
            t0: Instant::now(),
        };
        cl.rebuild(None)?;
        // Scripted partitions fire once, on the first generation's links.
        cl.dcfg.partitions.clear();
        Ok(cl)
    }

    /// (Re)start the run as `dcfg.shards` shards under `self.map`: the full link
    /// mesh (memory or handshaked TCP pairs) and one node per shard, each
    /// restored from `restore` or, without one, started fresh.
    fn rebuild(&mut self, restore: Option<Cut<M>>) -> Result<(), DistError> {
        let n = self.dcfg.shards;
        // The old generation hangs up before the new one dials.
        self.nodes.clear();
        self.inboxes.resize_with(n, Inbox::new);
        self.restored = restore;
        let everyone: Vec<usize> = (0..n).collect();
        for (i, links) in self.rewire(&everyone)?.into_iter().enumerate() {
            let node = self.spawn(i, links, self.restored.as_ref())?;
            self.nodes.push(node);
        }
        Ok(())
    }

    /// The newest checkpoint cut this run holds.
    fn latest_cut(&self) -> Option<Cut<M>> {
        self.nodes[0].latest_cut().or_else(|| self.restored.clone())
    }

    /// Both ends of the connection between shards `a` and `b`: `(a's link to
    /// b, b's link to a)`.
    fn link_pair(&self, a: usize, b: usize) -> Result<(ReliableLink, ReliableLink), DistError> {
        let (plan, inboxes) = (&self.dcfg.link_faults, &self.inboxes);
        Ok(match self.dcfg.transport {
            Transport::Mem => {
                let end = |from: usize, to: usize| {
                    let peer_inbox = Arc::clone(&inboxes[to]);
                    let tx = Box::new(MemTx { peer_inbox, from });
                    ReliableLink::new(tx, link_faults_for(plan, from, to))
                };
                (end(a, b), end(b, a))
            }
            Transport::Tcp => {
                let (sa, sb) = tcp_pair(a, b)?;
                (
                    tcp_link(a, b, sa, &inboxes[a], plan)?,
                    tcp_link(b, a, sb, &inboxes[b], plan)?,
                )
            }
        })
    }

    /// Fresh inboxes for the `fresh` shards and a fresh connection wherever
    /// one of them is an end. A standing node's end is swapped in place;
    /// the `fresh` shards' ends are returned, one link row per shard, for
    /// the nodes about to be built on them.
    fn rewire(&mut self, fresh: &[usize]) -> Result<Vec<Vec<Option<ReliableLink>>>, DistError> {
        let n = self.dcfg.shards;
        for &f in fresh {
            self.inboxes[f] = Inbox::new();
        }
        let mut rows: Vec<Vec<Option<ReliableLink>>> = fresh
            .iter()
            .map(|_| (0..n).map(|_| None).collect())
            .collect();
        for a in 0..n {
            for b in a + 1..n {
                if !fresh.contains(&a) && !fresh.contains(&b) {
                    continue;
                }
                let (la, lb) = self.link_pair(a, b)?;
                for (me, peer, link) in [(a, b, la), (b, a, lb)] {
                    match fresh.iter().position(|&f| f == me) {
                        Some(row) => rows[row][peer] = Some(link),
                        None => self.nodes[me].replace_link(peer, link),
                    }
                }
            }
        }
        Ok(rows)
    }

    /// A new node for `shard` on `links`, restored from `ck` or started fresh.
    fn spawn(
        &self,
        shard: usize,
        links: Vec<Option<ReliableLink>>,
        ck: Option<&Cut<M>>,
    ) -> Result<ShardNode<M>, DistError> {
        let mut node = ShardNode::new(
            Arc::clone(&self.model),
            self.map.clone(),
            shard,
            &self.ecfg,
            &self.dcfg,
            links,
            Arc::clone(&self.inboxes[shard]),
        );
        node.set_abort(self.abort.clone());
        // Attach the gate before the start: a started node replays the
        // gate's accepted-but-uncut events into its engine.
        if let Some(g) = self.gates.as_ref().and_then(|gs| gs.get(shard)) {
            node.set_ingest(Arc::clone(g));
        }
        node.start(ck)?;
        Ok(node)
    }

    /// Whether the `dead` shards can be restored on their own: the
    /// coordinator cannot be, and a survivor that already began teardown
    /// cannot take part.
    fn can_partially_recover(&self, dead: &[usize]) -> bool {
        let n = self.nodes.len();
        !dead.is_empty()
            && !dead.contains(&0)
            && dead.iter().all(|&d| d < n)
            && (0..n).all(|i| dead.contains(&i) || self.nodes[i].is_running())
    }

    /// Restore only the dead shards from `ck` and stitch them back into the
    /// live cluster: survivors keep their engines, GVT counters (minus the
    /// dead peers' columns) and send logs; each dead shard gets a fresh
    /// node on fresh links.
    fn partial_recover(&mut self, dead: &[usize], ck: &Cut<M>) -> Result<(), DistError> {
        let n = self.nodes.len();
        debug_assert!(self.can_partially_recover(dead));
        let survivors: Vec<usize> = (0..n).filter(|i| !dead.contains(i)).collect();
        // 1. Sever the dead shards' transports, flush in-flight raw packets.
        for &s in &survivors {
            self.nodes[s].sever(dead, self.dcfg.transport == Transport::Tcp);
        }
        // 2. Fence: any frame for a round the coordinator already abandoned
        //    is stale pre-failure traffic. The coordinator's published GVT
        //    is the authoritative recovery floor — a survivor that missed
        //    the final pre-kill publish still holds an older one.
        let min_round = self.nodes[0].upcoming_round();
        let floor = self.nodes[0].gvt();
        // 3. Fresh inboxes + links for the dead shards (both directions),
        //    and fresh nodes on them, restored from the cut, their gates'
        //    admission floors fenced to the recovery floor: below it they
        //    re-execute the pre-failure history exactly, and the survivors
        //    drop what they re-send there as duplicates at the link.
        for (&d, links) in dead.iter().zip(self.rewire(dead)?) {
            let mut node = self.spawn(d, links, Some(ck))?;
            node.raise_ingest_floor(floor);
            node.trace_instant(EventKind::PartialRestore, ck.gvt.ticks());
            self.nodes[d] = node;
        }
        // 4. Survivors void the dead peers' GVT counters, fence stale rounds,
        //    replay their send logs from the cut and purge what the restored
        //    shards will re-send.
        for &s in &survivors {
            self.nodes[s].recover_peers(dead, ck.gvt.ticks(), min_round, floor)?;
        }
        Ok(())
    }

    /// Act on the failures of one attempt (a threaded run's joined shards,
    /// or one failed stepped step), rebuilding from the newest cut (from the
    /// start before the first one): the dead alone when they can be restored
    /// partially, else every shard — as the next generation, under a new
    /// map, when an exhausted budget degrades around the dead (`degrade`)
    /// or a reshape is due. Returns the shards it rebuilt, or the first
    /// other error, unchanged.
    fn recover(
        &mut self,
        failed: impl IntoIterator<Item = DistError>,
    ) -> Result<Vec<usize>, DistError> {
        let n = self.nodes.len();
        let (mut dead, mut reshape, mut hard_err) = (Vec::new(), None, None);
        for e in failed {
            match e {
                DistError::Killed { shard } | DistError::PeerDead { shard, .. } => dead.push(shard),
                DistError::Reshape { action } => reshape = Some(action),
                // Collateral of a kill/reshape elsewhere.
                DistError::Aborted { .. } => {}
                e => hard_err = hard_err.or(Some(e)),
            }
        }
        dead.sort_unstable();
        dead.dedup();
        let ck = self.latest_cut();
        // Shards leaving the membership at the cut, and the membership
        // instants to stamp onto the next generation's trace.
        let (mut leaving, mut instants) = (Vec::new(), Vec::new());
        if !dead.is_empty() {
            self.books.recovered.extend_from_slice(&dead);
            let recoveries = self.books.recovered.len() as u32;
            // A fired kill does not repeat.
            self.dcfg.kills.retain(|(s, _)| !dead.contains(s));
            if recoveries > self.dcfg.max_recoveries {
                if ck.is_none() || !self.dcfg.degrade || dead.contains(&0) {
                    return Err(DistError::RecoveryExhausted {
                        attempts: recoveries,
                        last: format!("shard(s) {dead:?} dead"),
                    });
                }
                // Graceful degradation: the survivors absorb the dead.
                leaving = dead;
            } else if let Some(ck) = ck
                .as_ref()
                .filter(|_| self.dcfg.ckpt_every_rounds > 0 && self.can_partially_recover(&dead))
            {
                self.partial_recover(&dead, ck)?;
                self.books.partial_recoveries += 1;
                self.books.used_checkpoint = true;
                return Ok(dead);
            }
            // Otherwise: a full restore-all restart under the same map.
        } else if let Some(action) = reshape {
            let ck = ck.as_ref().ok_or(DistError::Protocol {
                shard: 0,
                detail: "membership reshape without an assembled cut".to_string(),
            })?;
            match action {
                ReshapeAction::Join => {
                    self.map = ck.map.rebalanced_with_joiner(&load_from_cut(ck, &ck.map));
                    self.dcfg.shards = n + 1;
                    self.dcfg.join_at = None;
                    self.books.membership_epoch += 1;
                    instants.push((EventKind::ShardJoin, n as u64));
                }
                ReshapeAction::Leave(s) => {
                    self.dcfg.leave_at = None;
                    leaving.push(s);
                }
            }
        } else {
            return Err(hard_err.unwrap_or(DistError::Protocol {
                shard: 0,
                detail: "attempt failed with no classified error".to_string(),
            }));
        }
        // The leavers' LPs go to the survivors by load, their scripted
        // kills with them; every shard id above a leaver shifts down.
        if let Some(ck) = ck.as_ref().filter(|_| !leaving.is_empty()) {
            self.map = ck.map.clone();
            for &d in leaving.iter().rev() {
                let load = load_from_cut(ck, &self.map);
                self.map = self.map.rebalanced_without(SimThreadId(d as u32), &load);
                renumber_kills(&mut self.dcfg.kills, d);
                instants.push((EventKind::ShardLeave, d as u64));
            }
            self.dcfg.shards = n - leaving.len();
            self.books.membership_epoch += leaving.len() as u64;
        }
        self.books.used_checkpoint |= ck.is_some();
        self.rebuild(ck)?;
        for (kind, arg) in instants {
            self.nodes[0].trace_instant(kind, arg);
        }
        Ok((0..self.nodes.len()).collect())
    }

    /// The coordinator's outcome, once every shard finished.
    fn outcome(&mut self) -> Result<NodeOutcome, DistError> {
        self.nodes[0].take_outcome().ok_or(DistError::Protocol {
            shard: 0,
            detail: "coordinator finished without an outcome".to_string(),
        })
    }

    /// The finished run's [`DistResult`]: the coordinator's outcome and the
    /// recovery books.
    fn finish(&mut self) -> Result<DistResult, DistError> {
        let out = self.outcome()?;
        self.books.shards_final = self.nodes.len();
        let books = std::mem::take(&mut self.books);
        Ok(assemble_result(out, self.model.num_lps(), self.t0, books))
    }

    /// Run every node to completion on its own thread; returns how the failed
    /// ones failed. A failing node flips the cohort abort flag — except a
    /// kill that dies silently, which the coordinator's detector must
    /// discover itself (lease expiry, or a TCP hang-up).
    fn run_attempt(&mut self) -> Vec<DistError> {
        let (abort, dcfg) = (self.abort.as_ref(), &self.dcfg);
        if let Some(abort) = abort {
            abort.store(false, Ordering::Relaxed);
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .nodes
                .iter_mut()
                .map(|node| {
                    s.spawn(move || {
                        let r = node.run();
                        if let (Err(e), Some(abort)) = (&r, abort) {
                            if !dies_silently(dcfg, e) {
                                abort.store(true, Ordering::Relaxed);
                            }
                        }
                        r
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .filter_map(|(shard, h)| {
                    h.join()
                        .unwrap_or_else(|_| {
                            // A panicking shard thread is reported like any other
                            // shard failure so the supervisor can recover it.
                            Err(DistError::Protocol {
                                shard,
                                detail: "shard thread panicked".to_string(),
                            })
                        })
                        .err()
                })
                .collect()
        })
    }
}

/// Whether `e` is a kill nobody announces: the abort flag stands in for the
/// detector, which watches every worker (but not the coordinator) when on.
fn dies_silently(dcfg: &DistConfig, e: &DistError) -> bool {
    matches!(e, DistError::Killed { shard } if *shard != 0 && dcfg.heartbeat.is_some())
}

/// Per-old-thread relative load estimate from a checkpoint cut: committed
/// events per shard, `+1` so an idle shard still counts as alive.
fn load_from_cut<S, P>(ck: &Checkpoint<S, P>, map: &LpMap) -> Vec<u64> {
    let mut load = vec![1u64; map.num_threads as usize];
    for lp in &ck.lps {
        load[map.thread_of(lp.lp).index()] += lp.committed;
    }
    load
}

/// Shard `gone` left: its scripted kills go, the ids above it shift down.
fn renumber_kills(kills: &mut Vec<(usize, u64)>, gone: usize) {
    kills.retain(|k| k.0 != gone);
    for k in kills.iter_mut().filter(|k| k.0 > gone) {
        k.0 -= 1;
    }
}

/// Run the whole simulation as `dcfg.shards` loopback shards (one thread
/// each) under an elastic-membership supervisor: a killed or
/// heartbeat-declared-dead shard is restored *partially* from the latest
/// cut when possible, else every shard restarts; joins, leaves and (with
/// `degrade`) an exhausted `max_recoveries` relaunch from a cut under a
/// load-rebalanced map.
pub fn run_loopback<M: Model>(
    model: Arc<M>,
    ecfg: &EngineConfig,
    dcfg: &DistConfig,
) -> Result<DistResult, DistError> {
    run_loopback_ingest(model, ecfg, dcfg, None)
}

/// [`run_loopback`] with per-shard ingest gates attached (`gates[i]` goes
/// to shard `i`). The gates outlive kills, partial recoveries, and
/// membership reshapes: accepted-but-uncut events replay after every
/// restore, and admission floors follow the coordinator's published GVT.
/// After a reshape shrinks the cluster, gates beyond the new membership are
/// simply unattached (their clients see `Closed` once the run finishes).
pub fn run_loopback_ingest<M: Model>(
    model: Arc<M>,
    ecfg: &EngineConfig,
    dcfg: &DistConfig,
    gates: Option<IngestGates<M>>,
) -> Result<DistResult, DistError> {
    let abort = Arc::new(AtomicBool::new(false));
    let mut cl = Cluster::build(model, ecfg, dcfg, gates, Some(abort))?;
    loop {
        let failed = cl.run_attempt();
        if failed.is_empty() {
            return cl.finish();
        }
        cl.recover(failed)?;
    }
}

/// One shard of a real multi-process run (the CLI's `--listen/--connect`
/// path). Shard `shard` connects to `connect` (the listen addresses of
/// shards `0..shard`, in order) and accepts the higher shards on `listen`.
/// Returns the assembled [`DistResult`] on the coordinator, `None` on
/// workers.
#[derive(Debug, Clone, Default)]
pub struct ProcessOpts {
    pub shard: usize,
    pub listen: String,
    pub connect: Vec<String>,
    /// The whole cluster's configuration (`dcfg.shards` processes).
    pub dcfg: DistConfig,
}

impl ProcessOpts {
    /// [`DistConfig::check`], plus what one process of the mesh needs: a
    /// shard id inside the cluster, one `connect` per lower shard, and
    /// endpoints that resolve. [`run_shard_process`] calls this first.
    pub fn check(&self) -> Result<(), DistError> {
        self.resolve().map(|_| ())
    }

    /// The checks of [`Self::check`]; returns the resolved `connect` list.
    fn resolve(&self) -> Result<Vec<SocketAddr>, DistError> {
        self.dcfg.check()?;
        let (shard, n) = (self.shard, self.dcfg.shards);
        if shard >= n {
            return Err(DistError::Config(format!("shard id {shard} of {n}")));
        }
        if self.connect.len() != shard {
            return Err(DistError::Config(format!(
                "shard {shard} needs exactly {shard} connect address(es) — the listen \
                 addresses of shards 0..{shard}, in order — got {}",
                self.connect.len()
            )));
        }
        let endpoint = |what: &str, addr: &String| {
            let found = addr.to_socket_addrs().ok().and_then(|mut i| i.next());
            found.ok_or_else(|| {
                DistError::Config(format!(
                    "{what} '{addr}' is not a valid endpoint (want HOST:PORT)"
                ))
            })
        };
        endpoint("listen", &self.listen)?;
        self.connect
            .iter()
            .map(|a| endpoint("connect", a))
            .collect()
    }
}

/// Run this process's shard. With an ingest `gate` (shared with the
/// client-facing server) the node replays what the gate already accepted at
/// its start, pumps it between GVT rounds and forwards non-owned
/// submissions to their owning shards.
pub fn run_shard_process<M: Model>(
    model: Arc<M>,
    ecfg: &EngineConfig,
    opts: &ProcessOpts,
    gate: Option<Arc<IngestGate<M::Payload>>>,
) -> Result<Option<DistResult>, DistError> {
    let addrs = opts.resolve()?;
    let n = opts.dcfg.shards;
    let num_lps = model.num_lps();
    let flat_map = LpMap::new(num_lps, n, ecfg.mapping);
    let listener = TcpListener::bind(&opts.listen)?;
    let t0 = Instant::now();
    let streams = tcp_mesh(opts.shard, n, listener, &addrs, opts.dcfg.mesh_timeout)?;
    let inbox = Inbox::new();
    let plan = &opts.dcfg.link_faults;
    let links = (streams.into_iter().enumerate())
        .map(|(peer, s)| {
            s.map(|s| tcp_link(opts.shard, peer, s, &inbox, plan))
                .transpose()
        })
        .collect::<Result<_, _>>()?;
    let mut node = ShardNode::new(model, flat_map, opts.shard, ecfg, &opts.dcfg, links, inbox);
    if let Some(g) = gate {
        node.set_ingest(g);
    }
    node.start(None)?;
    node.run()?;
    let books = DistResult {
        shards_final: n,
        ..DistResult::default()
    };
    Ok(node
        .take_outcome()
        .map(|out| assemble_result(out, num_lps, t0, books)))
}

/// Deterministic single-threaded cluster over memory links: every sweep
/// steps each shard once, round-robin, and checks the GVT safety invariant
/// (`published GVT <= every engine's pending minimum`) after every step. A
/// failed step goes to the threaded supervisor's own decision on the spot,
/// so kills, restarts, degradation, joins and leaves run without threads or
/// wall clocks. Each node's clock is its step count, so the coordinator's
/// lease declares a silently killed worker dead at a reproducible sweep.
pub struct SteppedCluster<M: Model> {
    cluster: Cluster<M>,
    /// Per-shard history of published GVT values (monotonicity checks).
    pub gvt_history: Vec<Vec<u64>>,
}

impl<M: Model> SteppedCluster<M> {
    pub fn new(
        model: Arc<M>,
        ecfg: &EngineConfig,
        dcfg: &DistConfig,
    ) -> Result<SteppedCluster<M>, DistError> {
        Self::new_with_ingest(model, ecfg, dcfg, None)
    }

    /// [`Self::new`] with per-shard ingest gates attached: the test driver
    /// submits through `gates[i]` and shard `i` pumps admissions between
    /// its deterministic sweeps.
    pub fn new_with_ingest(
        model: Arc<M>,
        ecfg: &EngineConfig,
        dcfg: &DistConfig,
        gates: Option<IngestGates<M>>,
    ) -> Result<SteppedCluster<M>, DistError> {
        if dcfg.transport != Transport::Mem {
            return Err(DistError::Config(
                "stepped clusters are memory-linked".into(),
            ));
        }
        let cluster = Cluster::build(model, ecfg, dcfg, gates, None)?;
        Ok(SteppedCluster {
            gvt_history: vec![Vec::new(); cluster.nodes.len()],
            cluster,
        })
    }

    /// Step every unfinished shard once. Returns `true` when all are done. A
    /// shard that died silently is finished: it is neither stepped nor
    /// checked again until the coordinator's lease declares it dead. Any
    /// other failed step ends the sweep: the supervisor's decision rebuilds
    /// what it decides, or its error is returned.
    pub fn sweep(&mut self) -> Result<bool, DistError> {
        let mut all_done = true;
        for i in 0..self.cluster.nodes.len() {
            let node = &mut self.cluster.nodes[i];
            if node.finished() {
                continue;
            }
            match node.step() {
                Ok(_) => {}
                Err(e) if dies_silently(&self.cluster.dcfg, &e) => continue,
                Err(e) => return self.recover([e]).map(|()| false),
            }
            // Safety: the published GVT never exceeds the true minimum —
            // in particular never this engine's own pending minimum.
            let (gvt, lmin) = (node.gvt(), node.local_min_ticks());
            if gvt > lmin {
                return Err(DistError::Protocol {
                    shard: i,
                    detail: format!("GVT {gvt} exceeds shard pending minimum {lmin}"),
                });
            }
            match self.gvt_history[i].last() {
                Some(&prev) if prev > gvt => {
                    return Err(DistError::Protocol {
                        shard: i,
                        detail: format!("GVT regressed {prev} -> {gvt}"),
                    });
                }
                Some(&prev) if prev == gvt => {}
                _ => self.gvt_history[i].push(gvt),
            }
            if !node.finished() {
                all_done = false;
            }
        }
        Ok(all_done)
    }

    /// [`Cluster::recover`]; a rebuilt shard restarts its GVT view.
    fn recover(&mut self, failed: impl IntoIterator<Item = DistError>) -> Result<(), DistError> {
        let rebuilt = self.cluster.recover(failed)?;
        self.gvt_history
            .resize_with(self.cluster.nodes.len(), Vec::new);
        for s in rebuilt {
            self.gvt_history[s].clear();
        }
        Ok(())
    }

    /// Kill the given (non-coordinator) shards right now, as a scripted
    /// kill would, once they can be restored partially from the latest
    /// assembled cut. Returns `false` — without touching the cluster — while
    /// that is not possible (no cut assembled, or a shard already left its
    /// running phase). The kill is charged to `max_recoveries`.
    pub fn partial_recover(&mut self, dead: &[usize]) -> Result<bool, DistError> {
        let can = self.cluster.latest_cut().is_some() && self.cluster.can_partially_recover(dead);
        if can {
            self.recover(dead.iter().map(|&shard| DistError::Killed { shard }))?;
        }
        Ok(can)
    }

    /// The coordinator's assembled outcome, once every shard finished.
    pub fn take_outcome(&mut self) -> Option<NodeOutcome> {
        self.cluster.nodes[0].take_outcome()
    }

    /// The finished run's [`DistResult`], built as [`run_loopback`] builds
    /// it (instead of [`Self::take_outcome`]).
    pub fn result(&mut self) -> Result<DistResult, DistError> {
        self.cluster.finish()
    }

    /// The recovery books so far: `recovered`, `partial_recoveries`,
    /// `used_checkpoint` and `membership_epoch` (the rest is default).
    pub fn books(&self) -> &DistResult {
        &self.cluster.books
    }

    /// Sweep to completion (bounded) and return the coordinator's outcome.
    pub fn run_to_completion(&mut self, max_sweeps: u64) -> Result<NodeOutcome, DistError> {
        for _ in 0..max_sweeps {
            if self.sweep()? {
                return self.cluster.outcome();
            }
        }
        Err(DistError::Stalled {
            shard: 0,
            detail: format!("not finished after {max_sweeps} sweeps"),
        })
    }

    /// The latest assembled checkpoint, if any round was armed.
    pub fn latest_checkpoint(&self) -> Option<Checkpoint<M::State, M::Payload>> {
        self.cluster.latest_cut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shards: usize) -> DistConfig {
        DistConfig {
            shards,
            ..DistConfig::default()
        }
    }

    fn refused(r: Result<(), DistError>, why: &str) {
        match r {
            Err(DistError::Config(msg)) => assert!(msg.contains(why), "'{msg}' lacks '{why}'"),
            other => panic!("want a Config refusal mentioning '{why}', got {other:?}"),
        }
    }

    #[test]
    fn dist_config_check_refuses_each_inconsistency_once() {
        refused(cfg(0).check(), "at least one shard");
        let with = |edit: fn(&mut DistConfig)| {
            let mut c = cfg(3);
            edit(&mut c);
            c.check()
        };
        refused(with(|c| c.kills = vec![(3, 1)]), "kill names shard 3 of 3");
        refused(with(|c| c.leave_at = Some((7, 1))), "leave names shard 7");
        refused(
            with(|c| c.partitions = vec![(0, 3, 1)]),
            "partition names shard 3",
        );
        refused(with(|c| c.partitions = vec![(1, 1, 1)]), "not a link");
        let hb = |interval_ms, miss_threshold| HeartbeatConfig {
            interval: Duration::from_millis(interval_ms),
            miss_threshold,
        };
        let mut c = cfg(3);
        c.heartbeat = Some(hb(0, 4));
        refused(c.check(), "heartbeat");
        c.heartbeat = Some(hb(5, 0));
        refused(c.check(), "heartbeat");
        refused(with(|c| c.mesh_timeout = Duration::ZERO), "mesh timeout");
        refused(with(|c| c.join_at = Some(3)), "join needs checkpoint cuts");
        refused(
            with(|c| c.leave_at = Some((1, 3))),
            "leave needs checkpoint cuts",
        );
        refused(with(|c| c.degrade = true), "--checkpoint-every-gvt");
    }

    /// What `dist_equiv`, `dist_elastic` and `dist_golden` script: the
    /// library keeps taking a coordinator kill ("not a worker shard" is the
    /// CLI's rule) and every join / leave / partition those suites run.
    #[test]
    fn dist_config_check_accepts_what_the_suites_script() {
        let accepted: [fn(&mut DistConfig); 8] = [
            |_| {},
            |c| c.kills = vec![(0, 2), (1, 2)],
            |c| c.kills = vec![(3, 5)],
            |c| c.partitions = vec![(1, 2, 2)],
            |c| {
                c.ckpt_every_rounds = 2;
                c.join_at = Some(4);
            },
            |c| {
                c.ckpt_every_rounds = 2;
                c.leave_at = Some((3, 4));
            },
            |c| c.link_faults = Some(LinkFaultPlan::chaos(7)),
            |c| {
                c.heartbeat = Some(HeartbeatConfig::default());
                c.ckpt_every_rounds = 3;
                c.degrade = true;
            },
        ];
        for (i, edit) in accepted.iter().enumerate() {
            let mut c = cfg(4);
            edit(&mut c);
            c.check().unwrap_or_else(|e| panic!("script {i}: {e}"));
        }
        cfg(1).check().expect("a one-shard cluster is a cluster");
    }

    #[test]
    fn process_opts_check_refuses_each_inconsistency_once() {
        let opts = |shard: usize, listen: &str, connect: &[&str]| ProcessOpts {
            shard,
            listen: listen.into(),
            connect: connect.iter().map(|s| s.to_string()).collect(),
            dcfg: cfg(2),
        };
        let ok = "127.0.0.1:7100";
        opts(0, ok, &[]).check().expect("coordinator dials nobody");
        opts(1, ok, &[ok]).check().expect("one connect per lower");
        refused(opts(2, ok, &[ok, ok]).check(), "shard id 2 of 2");
        refused(opts(1, ok, &[]).check(), "exactly 1 connect");
        refused(opts(0, ok, &[ok]).check(), "exactly 0 connect");
        refused(opts(1, "nowhere", &[ok]).check(), "listen 'nowhere'");
        refused(opts(1, ok, &["bogus:::"]).check(), "connect 'bogus:::'");
        let mut bad_cluster = opts(0, ok, &[]);
        bad_cluster.dcfg.shards = 0;
        refused(bad_cluster.check(), "at least one shard");
    }

    /// The launchers return the refusal instead of panicking.
    #[test]
    fn launchers_return_config_errors() {
        let model = || Arc::new(models::Phold::new(models::PholdConfig::balanced(2, 2)));
        let ecfg = EngineConfig::default();
        let r = run_loopback(model(), &ecfg, &cfg(0));
        refused(r.map(|_| ()), "at least one shard");
        let tcp = DistConfig {
            transport: Transport::Tcp,
            ..cfg(2)
        };
        let r = SteppedCluster::new(model(), &ecfg, &tcp);
        refused(r.map(|_| ()), "memory-linked");
    }

    /// The coordinator leaves once it has folded every `Done` and its own
    /// frames are acked; the ack of a worker's `Done` can die with its
    /// socket. The worker, flushing, then hears only the coordinator's
    /// hang-up, and that must finish it.
    #[test]
    fn a_flushing_worker_finishes_on_the_coordinators_hang_up() {
        let model = Arc::new(models::Phold::new(models::PholdConfig::balanced(2, 2)));
        let ecfg = EngineConfig::default().with_end_time(5.0);
        let mut sc = SteppedCluster::new(model, &ecfg, &cfg(2)).expect("cluster");
        let nodes = &mut sc.cluster.nodes;
        for _ in 0..100_000 {
            nodes[0].step().expect("coordinator step");
            if nodes[0].finished() {
                break;
            }
            nodes[1].step().expect("worker step");
        }
        assert!(nodes[0].finished() && !nodes[1].finished());
        // Lose what the coordinator sent last — the ack of the `Done`.
        sc.cluster.inboxes[1].drain();
        for _ in 0..50 {
            nodes[1].step().expect("worker step");
        }
        assert!(!nodes[1].finished(), "without its ack the worker waits");
        sc.cluster.inboxes[1].push(0, Vec::new());
        let status = nodes[1].step().expect("worker step");
        assert_eq!(status, crate::node::StepStatus::Finished);
        assert!(nodes[1].finished());
    }
}
