//! Cluster launchers: loopback (threads over memory or TCP links), an
//! elastic-membership supervisor (heartbeat-discovered failures, partial
//! recovery, join/leave at GVT cuts, graceful degradation), the
//! deterministic stepped harness, and the single-shard entry point for
//! real multi-process runs.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use metrics::RunMetrics;
use pdes_core::{
    Checkpoint, EngineConfig, IngestGate, LinkFaultPlan, LinkFaults, LpId, LpMap, Model,
    SimThreadId,
};
use telemetry::EventKind;

use crate::link::{
    read_hello, spawn_tcp_reader, write_hello, Backoff, Inbox, MemTx, ReliableLink, TcpTx,
};
use crate::node::{
    CkptSlot, DistError, HeartbeatConfig, NodeConfig, NodeOutcome, ReshapeAction, ShardNode,
};

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
    /// Scripted kills die *silently* (no cohort abort flag): the failure
    /// must be discovered by the heartbeat detector or a TCP hang-up.
    pub kill_silent: bool,
    /// Heartbeat failure detection (`None` = off).
    pub heartbeat: Option<HeartbeatConfig>,
    /// Scripted transient partitions: `(from, to, for_rounds)` — shard
    /// `from`'s outgoing link to `to` swallows every frame until `from` has
    /// run `for_rounds * gvt_interval_cycles` cycles, then heals and lets
    /// retransmission resume delivery.
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
    /// Cycles between GVT round starts.
    pub gvt_interval_cycles: u64,
    /// Cycles between wave re-polls.
    pub wave_interval_cycles: u64,
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
            kill_silent: false,
            heartbeat: None,
            partitions: Vec::new(),
            join_at: None,
            leave_at: None,
            max_recoveries: 0,
            degrade: false,
            ckpt_every_rounds: 0,
            gvt_interval_cycles: 32,
            wave_interval_cycles: 4,
            watchdog: Some(Duration::from_secs(10)),
            mesh_timeout: Duration::from_secs(10),
            telemetry: telemetry::TelemetryConfig::default(),
        }
    }
}

/// The assembled outcome of a distributed run.
#[derive(Debug, Clone)]
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
    /// Kill recoveries performed (full restarts + partial restores).
    pub recoveries: u32,
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

fn node_cfg(dcfg: &DistConfig, shard: usize) -> NodeConfig {
    NodeConfig {
        gvt_interval_cycles: dcfg.gvt_interval_cycles,
        wave_interval_cycles: dcfg.wave_interval_cycles,
        ckpt_every_rounds: dcfg.ckpt_every_rounds,
        watchdog: dcfg.watchdog,
        kill_at: dcfg
            .kills
            .iter()
            .find(|(s, _)| *s == shard)
            .map(|(_, at)| *at),
        kill_silent: dcfg.kill_silent,
        heartbeat: dcfg.heartbeat.clone(),
        partitions: dcfg
            .partitions
            .iter()
            .filter(|(from, _, _)| *from == shard)
            .map(|(_, to, rounds)| (*to, *rounds))
            .collect(),
        join_at: (shard == 0).then_some(dcfg.join_at).flatten(),
        leave_at: (shard == 0).then_some(dcfg.leave_at).flatten(),
        telemetry: dcfg.telemetry.clone(),
    }
}

fn link_faults_for(plan: &Option<LinkFaultPlan>, src: usize, dst: usize) -> Option<LinkFaults> {
    plan.as_ref()
        .filter(|p| p.is_active())
        .map(|p| LinkFaults::new(p, src, dst))
}

/// Build shard `i`'s links over shared in-memory inboxes.
fn mem_links(
    i: usize,
    inboxes: &[Arc<Inbox>],
    plan: &Option<LinkFaultPlan>,
) -> Vec<Option<ReliableLink>> {
    (0..inboxes.len())
        .map(|j| {
            (j != i).then(|| {
                ReliableLink::new(
                    Box::new(MemTx {
                        peer_inbox: Arc::clone(&inboxes[j]),
                        from: i,
                    }),
                    link_faults_for(plan, i, j),
                )
            })
        })
        .collect()
}

/// Full-mesh TCP handshake for shard `shard`: connect to every lower shard
/// (with the same capped-exponential-backoff policy the runtime uses for
/// reconnects), accept from every higher one, exchanging the raw `Hello`
/// version + shard-id preamble. Returns one stream per peer.
pub fn tcp_mesh(
    shard: usize,
    num_shards: usize,
    listener: TcpListener,
    connect_addrs: &[SocketAddr],
    timeout: Duration,
) -> Result<Vec<Option<TcpStream>>, DistError> {
    assert!(
        connect_addrs.len() >= shard,
        "need an address per lower shard"
    );
    let deadline = Instant::now() + timeout;
    let mut streams: Vec<Option<TcpStream>> = (0..num_shards).map(|_| None).collect();
    let timeout_err = |what: String| DistError::ConnectTimeout {
        shard,
        detail: what,
    };
    for (j, addr) in connect_addrs.iter().enumerate().take(shard) {
        let mut backoff = Backoff::standard(0x6D65_7368 ^ ((shard as u64) << 8) ^ j as u64);
        let stream = loop {
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
        let mut stream = stream;
        write_hello(&mut stream, shard)?;
        streams[j] = Some(stream);
    }
    listener.set_nonblocking(true)?;
    let mut expected = num_shards - shard - 1;
    let mut backoff = Backoff::standard(0x6163_6370 ^ shard as u64);
    while expected > 0 {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_secs(5)))?;
                stream.set_nonblocking(false)?;
                let mut stream = stream;
                let peer = read_hello(&mut stream)?;
                if peer <= shard || peer >= num_shards {
                    return Err(DistError::Protocol {
                        shard,
                        detail: format!("bogus Hello from shard {peer}"),
                    });
                }
                if streams[peer].replace(stream).is_some() {
                    return Err(DistError::Protocol {
                        shard,
                        detail: format!("shard {peer} connected twice"),
                    });
                }
                stream_clear_timeout(&mut streams, peer)?;
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

fn stream_clear_timeout(streams: &mut [Option<TcpStream>], peer: usize) -> Result<(), DistError> {
    streams[peer]
        .as_ref()
        .expect("just inserted")
        .set_read_timeout(None)?;
    Ok(())
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

/// Turn handshake streams into reliable links + reader threads feeding
/// `inbox`.
fn tcp_links(
    i: usize,
    streams: Vec<Option<TcpStream>>,
    inbox: &Arc<Inbox>,
    plan: &Option<LinkFaultPlan>,
) -> Result<Vec<Option<ReliableLink>>, DistError> {
    let mut links = Vec::with_capacity(streams.len());
    for (j, s) in streams.into_iter().enumerate() {
        match s {
            None => links.push(None),
            Some(stream) => links.push(Some(tcp_link(i, j, stream, inbox, plan)?)),
        }
    }
    Ok(links)
}

/// Assemble the coordinator's [`NodeOutcome`] into a [`DistResult`].
fn assemble_result(out: NodeOutcome, shards: usize, lps: usize, wall_secs: f64) -> DistResult {
    let telemetry = out.telemetry;
    let metrics = RunMetrics {
        system: "GG-PDES-Dist".to_string(),
        threads: shards,
        lps,
        wall_secs,
        committed: out.totals.committed,
        processed: out.totals.processed,
        rolled_back: out.totals.rolled_back,
        rollbacks: out.totals.rollbacks,
        antis_sent: out.totals.antis_sent,
        gvt_rounds: out.gvt_rounds,
        max_descheduled: out.max_parked as usize,
        commit_digest: out.totals.commit_digest,
        last_round: telemetry.as_ref().and_then(|d| d.last_round().cloned()),
        protocol: "optimistic".into(),
        ..Default::default()
    };
    DistResult {
        metrics,
        state_digests: out.state_digests,
        pending_digest: out.pending_digest,
        gvt: out.gvt,
        regressions: out.regressions,
        recoveries: 0,
        partial_recoveries: 0,
        used_checkpoint: false,
        shards_final: shards,
        membership_epoch: 0,
        telemetry,
    }
}

/// A built cluster: one node per shard plus the shared inboxes (needed
/// again at partial-recovery time to rebuild a dead shard's links).
type Cluster<M> = (Vec<ShardNode<M>>, Vec<Arc<Inbox>>);

/// Per-shard ingest gates, indexed by shard id. The gates outlive every
/// attempt (the supervisor holds the `Arc`s), so admissions, idempotency
/// state, and journals survive kills and reshapes.
pub type IngestGates<M> = Vec<Arc<IngestGate<<M as Model>::Payload>>>;

/// Build a whole loopback cluster supervisor-side: shared inboxes, the full
/// link mesh (memory or handshaked TCP pairs), and one [`ShardNode`] per
/// shard, each bootstrapped or restored from `restore`.
#[allow(clippy::too_many_arguments)]
fn build_cluster<M: Model>(
    model: &Arc<M>,
    ecfg: &EngineConfig,
    dcfg: &DistConfig,
    flat_map: &LpMap,
    slot: &CkptSlot<M>,
    abort: &Arc<AtomicBool>,
    restore: Option<&Checkpoint<M::State, M::Payload>>,
    stepped: bool,
    gates: Option<&IngestGates<M>>,
) -> Result<Cluster<M>, DistError> {
    let n = dcfg.shards;
    let inboxes: Vec<Arc<Inbox>> = (0..n).map(|_| Inbox::new()).collect();
    let mut link_rows: Vec<Vec<Option<ReliableLink>>> = match dcfg.transport {
        Transport::Mem => (0..n)
            .map(|i| mem_links(i, &inboxes, &dcfg.link_faults))
            .collect(),
        Transport::Tcp => {
            let mut rows: Vec<Vec<Option<ReliableLink>>> =
                (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
            for i in 0..n {
                for j in i + 1..n {
                    let (si, sj) = tcp_pair(i, j)?;
                    rows[i][j] = Some(tcp_link(i, j, si, &inboxes[i], &dcfg.link_faults)?);
                    rows[j][i] = Some(tcp_link(j, i, sj, &inboxes[j], &dcfg.link_faults)?);
                }
            }
            rows
        }
    };
    let mut nodes = Vec::with_capacity(n);
    for (i, links) in link_rows.drain(..).enumerate() {
        let mut ncfg = node_cfg(dcfg, i);
        if stepped {
            ncfg.watchdog = None; // wall clock has no meaning there
        }
        let mut node = ShardNode::new(
            Arc::clone(model),
            flat_map.clone(),
            i,
            n,
            ecfg,
            ncfg,
            links,
            Arc::clone(&inboxes[i]),
            (i == 0).then(|| Arc::clone(slot)),
            (!stepped).then(|| Arc::clone(abort)),
        );
        // Attach the gate before restore: a restored node replays the
        // gate's accepted-but-uncut suffix into its rebuilt engine.
        if let Some(g) = gates.and_then(|gs| gs.get(i)) {
            node.set_ingest(Arc::clone(g));
        }
        match restore {
            Some(ck) => node.restore(ck)?,
            None => node.bootstrap()?,
        }
        nodes.push(node);
    }
    Ok((nodes, inboxes))
}

/// Run every node to completion on its own thread. A failing node flips
/// the cohort abort flag — except a *silent* scripted kill, whose whole
/// point is that the survivors must discover it themselves (heartbeat
/// lease expiry or TCP hang-up).
fn run_attempt<M: Model>(
    nodes: &mut [ShardNode<M>],
    abort: &Arc<AtomicBool>,
    kill_silent: bool,
) -> Vec<Result<(), DistError>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = nodes
            .iter_mut()
            .map(|node| {
                let abort = Arc::clone(abort);
                s.spawn(move || {
                    let r = node.run();
                    if let Err(e) = &r {
                        let silent = kill_silent && matches!(e, DistError::Killed { .. });
                        if !silent {
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
            .map(|(shard, h)| {
                h.join().unwrap_or_else(|_| {
                    // A panicking shard thread is reported like any other
                    // shard failure so the supervisor can recover it.
                    Err(DistError::Protocol {
                        shard,
                        detail: "shard thread panicked".to_string(),
                    })
                })
            })
            .collect()
    })
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

/// Restore only the dead shards from `ck` and stitch them back into the
/// live cluster: survivors keep their engines, GVT counters (minus the dead
/// peers' columns) and send logs; each dead shard gets a fresh node, fresh
/// links on both sides, the survivors replay their cut-crossing send logs
/// to it and purge every input the restored shard will re-send.
#[allow(clippy::too_many_arguments)]
fn partial_recover<M: Model>(
    model: &Arc<M>,
    ecfg: &EngineConfig,
    dcfg: &DistConfig,
    flat_map: &LpMap,
    nodes: &mut [ShardNode<M>],
    inboxes: &mut [Arc<Inbox>],
    dead: &[usize],
    ck: &Checkpoint<M::State, M::Payload>,
    abort: Option<&Arc<AtomicBool>>,
    stepped: bool,
    gates: Option<&IngestGates<M>>,
) -> Result<(), DistError> {
    let n = nodes.len();
    debug_assert!(
        !dead.contains(&0),
        "the coordinator cannot be restored partially"
    );
    let survivors: Vec<usize> = (0..n).filter(|i| !dead.contains(i)).collect();
    // 1. Sever the dead shards' transports and flush in-flight raw packets.
    //    Dropped survivor packets were never acked, so retransmission
    //    redelivers them; the dead peers' packets must die here.
    if dcfg.transport == Transport::Tcp {
        for &s in &survivors {
            for &d in dead {
                nodes[s].hangup_link(d);
            }
        }
        for &s in &survivors {
            for &d in dead {
                nodes[s].await_hangup(d, Duration::from_secs(2));
            }
        }
    }
    for &s in &survivors {
        nodes[s].drain_inbox_dropping();
    }
    // 2. Fence: any frame for a round the coordinator already abandoned is
    //    stale pre-failure traffic. The coordinator's published GVT is the
    //    authoritative recovery floor — a survivor that missed the final
    //    pre-kill publish still holds an older one.
    let min_round = nodes[0].upcoming_round();
    let floor = nodes[0].gvt();
    // 3. Fresh inboxes + links for the dead shards (both directions).
    for &d in dead {
        inboxes[d] = Inbox::new();
    }
    let mut dead_links: Vec<Vec<Option<ReliableLink>>> = dead
        .iter()
        .map(|_| (0..n).map(|_| None).collect())
        .collect();
    let slot_of = |d: usize| dead.iter().position(|&x| x == d).expect("dead shard");
    match dcfg.transport {
        Transport::Mem => {
            for &s in &survivors {
                for &d in dead {
                    nodes[s].replace_link(
                        d,
                        ReliableLink::new(
                            Box::new(MemTx {
                                peer_inbox: Arc::clone(&inboxes[d]),
                                from: s,
                            }),
                            link_faults_for(&dcfg.link_faults, s, d),
                        ),
                    );
                }
            }
            for &d in dead {
                dead_links[slot_of(d)] = mem_links(d, inboxes, &dcfg.link_faults);
            }
        }
        Transport::Tcp => {
            for a in 0..n {
                for b in a + 1..n {
                    if !dead.contains(&a) && !dead.contains(&b) {
                        continue;
                    }
                    let (sa, sb) = tcp_pair(a, b)?;
                    let la = tcp_link(a, b, sa, &inboxes[a], &dcfg.link_faults)?;
                    let lb = tcp_link(b, a, sb, &inboxes[b], &dcfg.link_faults)?;
                    if dead.contains(&a) {
                        dead_links[slot_of(a)][b] = Some(la);
                    } else {
                        nodes[a].replace_link(b, la);
                    }
                    if dead.contains(&b) {
                        dead_links[slot_of(b)][a] = Some(lb);
                    } else {
                        nodes[b].replace_link(a, lb);
                    }
                }
            }
        }
    }
    // 4. Fresh nodes for the dead shards, restored from the cut. They
    //    deterministically re-execute from `ck.gvt` up to where they died;
    //    everything they re-send below the recovery floor is a duplicate
    //    the survivors drop at the link.
    for &d in dead {
        let links = std::mem::take(&mut dead_links[slot_of(d)]);
        let mut ncfg = node_cfg(dcfg, d);
        if stepped {
            ncfg.watchdog = None;
        }
        let mut node = ShardNode::new(
            Arc::clone(model),
            flat_map.clone(),
            d,
            n,
            ecfg,
            ncfg,
            links,
            Arc::clone(&inboxes[d]),
            None,
            abort.map(Arc::clone),
        );
        // The surviving gate (held by the supervisor) re-attaches: its
        // accepted suffix replays in restore, and its admission floor is
        // fenced to the coordinator's published GVT — below it, the
        // restored shard must deterministically re-execute the pre-failure
        // history so survivors can drop its re-sends as duplicates.
        if let Some(g) = gates.and_then(|gs| gs.get(d)) {
            node.set_ingest(Arc::clone(g));
        }
        node.restore(ck)?;
        node.raise_ingest_floor(floor);
        node.trace_instant(EventKind::PartialRestore, ck.gvt.ticks());
        nodes[d] = node;
    }
    // 5. Survivors enter recovery: void the dead peers' GVT counters, fence
    //    stale rounds, replay their send logs from the cut forward (the
    //    restored shard lost those inputs) and purge every input taken from
    //    the dead shards in the window being re-executed.
    let mut dead_lps: Vec<LpId> = dead
        .iter()
        .flat_map(|&d| flat_map.lps_of(SimThreadId(d as u32)))
        .collect();
    dead_lps.sort_unstable_by_key(|lp| lp.0);
    for &s in &survivors {
        nodes[s].begin_peer_recovery(dead, min_round, floor);
        if let Some(a) = abort {
            nodes[s].set_abort(Some(Arc::clone(a)));
        }
        for &d in dead {
            nodes[s].replay_log_to(d, ck.gvt.ticks())?;
        }
        nodes[s].purge_dead_inputs(&dead_lps, ck.gvt.ticks())?;
    }
    Ok(())
}

/// Run the whole simulation as `dcfg.shards` loopback shards (one thread
/// each) under an elastic-membership supervisor:
///
/// - a killed or heartbeat-declared-dead shard is restored *partially*
///   from the latest assembled checkpoint cut when possible (survivors keep
///   running state and replay their send logs), falling back to a full
///   restore-all restart otherwise;
/// - scripted joins/leaves reshape the membership at a GVT cut: the run is
///   re-launched from the cut under a load-rebalanced LP map with one shard
///   more or fewer;
/// - with `degrade` set, exhausting `max_recoveries` shrinks the cluster
///   around the dead shard(s) instead of failing the run.
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
    let mut dcfg = dcfg.clone();
    assert!(dcfg.shards >= 1, "need at least one shard");
    let num_lps = model.num_lps();
    let mut flat_map = LpMap::new(num_lps, dcfg.shards, ecfg.mapping);
    let slot: CkptSlot<M> = Arc::new(Mutex::new(None));
    let t0 = Instant::now();
    let mut recoveries = 0u32;
    let mut partial_recoveries = 0u32;
    let mut membership_epoch = 0u64;
    let mut used_checkpoint = false;
    // Membership instants to stamp onto the next generation's trace clock.
    let mut pending_instants: Vec<(EventKind, u64)> = Vec::new();
    'generations: loop {
        let n = dcfg.shards;
        let restore: Option<Checkpoint<M::State, M::Payload>> =
            slot.lock().unwrap_or_else(|e| e.into_inner()).clone();
        if (recoveries > 0 || membership_epoch > 0) && restore.is_some() {
            used_checkpoint = true;
        }
        let mut abort = Arc::new(AtomicBool::new(false));
        let (mut nodes, mut inboxes) = build_cluster(
            &model,
            ecfg,
            &dcfg,
            &flat_map,
            &slot,
            &abort,
            restore.as_ref(),
            false,
            gates.as_ref(),
        )?;
        for (kind, arg) in pending_instants.drain(..) {
            nodes[0].trace_instant(kind, arg);
        }
        // Scripted partitions fire once, on the first generation's links.
        dcfg.partitions.clear();
        loop {
            let results = run_attempt(&mut nodes, &abort, dcfg.kill_silent);
            let mut dead: Vec<usize> = Vec::new();
            let mut reshape: Option<ReshapeAction> = None;
            let mut hard_err: Option<DistError> = None;
            let mut all_ok = true;
            for r in results {
                match r {
                    Ok(()) => {}
                    Err(e) => {
                        all_ok = false;
                        match e {
                            DistError::Killed { shard } | DistError::PeerDead { shard, .. } => {
                                if !dead.contains(&shard) {
                                    dead.push(shard);
                                }
                            }
                            DistError::Reshape { action } => reshape = Some(action),
                            // Collateral of a kill/reshape elsewhere.
                            DistError::Aborted { .. } => {}
                            e => {
                                if hard_err.is_none() {
                                    hard_err = Some(e);
                                }
                            }
                        }
                    }
                }
            }
            if all_ok {
                let out = nodes[0].take_outcome().ok_or(DistError::Protocol {
                    shard: 0,
                    detail: "coordinator finished without an outcome".to_string(),
                })?;
                let mut res = assemble_result(out, n, num_lps, t0.elapsed().as_secs_f64());
                res.recoveries = recoveries;
                res.partial_recoveries = partial_recoveries;
                res.used_checkpoint = used_checkpoint;
                res.shards_final = n;
                res.membership_epoch = membership_epoch;
                return Ok(res);
            }
            if !dead.is_empty() {
                dead.sort_unstable();
                recoveries += dead.len() as u32;
                // A fired kill does not repeat.
                dcfg.kills.retain(|(s, _)| !dead.contains(s));
                let ck: Option<Checkpoint<M::State, M::Payload>> =
                    slot.lock().unwrap_or_else(|e| e.into_inner()).clone();
                if recoveries > dcfg.max_recoveries {
                    if let Some(ck) = ck.as_ref().filter(|_| dcfg.degrade && !dead.contains(&0)) {
                        // Graceful degradation: absorb the dead shards'
                        // LPs into the survivors and restart from the cut
                        // with a smaller cluster.
                        let mut map = ck.map.clone();
                        for &d in dead.iter().rev() {
                            let load = load_from_cut(ck, &map);
                            map = map.rebalanced_without(SimThreadId(d as u32), &load);
                        }
                        flat_map = map;
                        dcfg.shards = n - dead.len();
                        membership_epoch += dead.len() as u64;
                        for &d in dead.iter().rev() {
                            for k in dcfg.kills.iter_mut() {
                                if k.0 > d {
                                    k.0 -= 1;
                                }
                            }
                            pending_instants.push((EventKind::ShardLeave, d as u64));
                        }
                        continue 'generations;
                    }
                    return Err(DistError::RecoveryExhausted {
                        attempts: recoveries,
                        last: format!("shard(s) {dead:?} dead"),
                    });
                }
                let partial_ok = dcfg.ckpt_every_rounds > 0
                    && ck.is_some()
                    && !dead.contains(&0)
                    && (0..n)
                        .filter(|i| !dead.contains(i))
                        .all(|i| nodes[i].is_running());
                if !partial_ok {
                    // Full restore-all restart (or replay from the start
                    // when no cut exists yet).
                    continue 'generations;
                }
                abort = Arc::new(AtomicBool::new(false));
                let Some(ck) = ck.as_ref() else {
                    return Err(DistError::Protocol {
                        shard: 0,
                        detail: "partial recovery chosen without a cut".to_string(),
                    });
                };
                partial_recover(
                    &model,
                    ecfg,
                    &dcfg,
                    &flat_map,
                    &mut nodes,
                    &mut inboxes,
                    &dead,
                    ck,
                    Some(&abort),
                    false,
                    gates.as_ref(),
                )?;
                partial_recoveries += 1;
                used_checkpoint = true;
                continue;
            }
            if let Some(action) = reshape {
                let ck: Checkpoint<M::State, M::Payload> = slot
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone()
                    .ok_or(DistError::Protocol {
                        shard: 0,
                        detail: "membership reshape without an assembled cut".to_string(),
                    })?;
                let load = load_from_cut(&ck, &ck.map);
                match action {
                    ReshapeAction::Join => {
                        flat_map = ck.map.rebalanced_with_joiner(&load);
                        dcfg.shards = n + 1;
                        dcfg.join_at = None;
                        pending_instants.push((EventKind::ShardJoin, n as u64));
                    }
                    ReshapeAction::Leave(s) => {
                        flat_map = ck.map.rebalanced_without(SimThreadId(s as u32), &load);
                        dcfg.shards = n - 1;
                        dcfg.leave_at = None;
                        // Shard ids above the leaver shift down by one.
                        dcfg.kills.retain(|(k, _)| *k != s);
                        for k in dcfg.kills.iter_mut() {
                            if k.0 > s {
                                k.0 -= 1;
                            }
                        }
                        pending_instants.push((EventKind::ShardLeave, s as u64));
                    }
                }
                membership_epoch += 1;
                continue 'generations;
            }
            return Err(hard_err.unwrap_or(DistError::Protocol {
                shard: 0,
                detail: "attempt failed with no classified error".to_string(),
            }));
        }
    }
}

/// One shard of a real multi-process run (the CLI's `--listen/--connect`
/// path). Shard `shard` connects to `connect` (the listen addresses of
/// shards `0..shard`, in order) and accepts the higher shards on `listen`.
/// Returns the assembled [`DistResult`] on the coordinator, `None` on
/// workers.
pub struct ProcessOpts {
    pub shards: usize,
    pub shard: usize,
    pub listen: String,
    pub connect: Vec<String>,
    pub dcfg: DistConfig,
}

/// Run this process's shard. With an ingest `gate` (handed in by the
/// client-facing server or a journal recovery) the node pumps it between GVT
/// rounds and forwards non-owned submissions to their owning shards.
pub fn run_shard_process<M: Model>(
    model: Arc<M>,
    ecfg: &EngineConfig,
    opts: &ProcessOpts,
    gate: Option<Arc<IngestGate<M::Payload>>>,
) -> Result<Option<DistResult>, DistError> {
    let n = opts.shards;
    assert!(opts.shard < n, "shard id out of range");
    assert_eq!(
        opts.connect.len(),
        opts.shard,
        "need exactly one --connect per lower shard"
    );
    let num_lps = model.num_lps();
    let flat_map = LpMap::new(num_lps, n, ecfg.mapping);
    let listener = TcpListener::bind(&opts.listen)?;
    let mut addrs = Vec::with_capacity(opts.connect.len());
    for a in &opts.connect {
        let resolved = a.to_socket_addrs()?.next().ok_or_else(|| {
            DistError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{a} resolves to no address"),
            ))
        })?;
        addrs.push(resolved);
    }
    let t0 = Instant::now();
    let streams = tcp_mesh(opts.shard, n, listener, &addrs, opts.dcfg.mesh_timeout)?;
    let inbox = Inbox::new();
    let links = tcp_links(opts.shard, streams, &inbox, &opts.dcfg.link_faults)?;
    let slot: CkptSlot<M> = Arc::new(Mutex::new(None));
    let mut node = ShardNode::new(
        model,
        flat_map,
        opts.shard,
        n,
        ecfg,
        node_cfg(&opts.dcfg, opts.shard),
        links,
        inbox,
        (opts.shard == 0).then(|| Arc::clone(&slot)),
        None,
    );
    if let Some(g) = gate {
        node.set_ingest(g);
    }
    node.bootstrap()?;
    node.run()?;
    Ok(node
        .take_outcome()
        .map(|out| assemble_result(out, n, num_lps, t0.elapsed().as_secs_f64())))
}

/// Deterministic single-threaded cluster over memory links: every sweep
/// steps each shard once, round-robin, and checks the GVT safety invariant
/// (`published GVT <= every engine's pending minimum`) after every step.
/// This is the harness the GVT and membership property tests drive; it can
/// also perform a [`SteppedCluster::partial_recover`] mid-run to exercise
/// the elastic-membership recovery path without threads or wall clocks.
pub struct SteppedCluster<M: Model> {
    model: Arc<M>,
    ecfg: EngineConfig,
    dcfg: DistConfig,
    flat_map: LpMap,
    nodes: Vec<ShardNode<M>>,
    inboxes: Vec<Arc<Inbox>>,
    slot: CkptSlot<M>,
    gates: Option<IngestGates<M>>,
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
        assert_eq!(
            dcfg.transport,
            Transport::Mem,
            "stepped clusters are memory-linked"
        );
        let n = dcfg.shards;
        let num_lps = model.num_lps();
        let flat_map = LpMap::new(num_lps, n, ecfg.mapping);
        let slot: CkptSlot<M> = Arc::new(Mutex::new(None));
        let abort = Arc::new(AtomicBool::new(false));
        let (nodes, inboxes) = build_cluster(
            &model,
            ecfg,
            dcfg,
            &flat_map,
            &slot,
            &abort,
            None,
            true,
            gates.as_ref(),
        )?;
        Ok(SteppedCluster {
            model,
            ecfg: ecfg.clone(),
            dcfg: dcfg.clone(),
            flat_map,
            gvt_history: vec![Vec::new(); nodes.len()],
            nodes,
            inboxes,
            slot,
            gates,
        })
    }

    /// Step every unfinished shard once. Returns `true` when all are done.
    pub fn sweep(&mut self) -> Result<bool, DistError> {
        let mut all_done = true;
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if node.finished() {
                continue;
            }
            node.step()?;
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

    /// Kill the given (non-coordinator) shards right now and restore them
    /// partially from the latest assembled cut, exactly as the threaded
    /// supervisor would. Returns `false` — without touching the cluster —
    /// when partial recovery is not possible yet (no cut assembled, or a
    /// shard already left its running phase).
    pub fn partial_recover(&mut self, dead: &[usize]) -> Result<bool, DistError> {
        let ck = match self.latest_checkpoint() {
            Some(ck) => ck,
            None => return Ok(false),
        };
        if dead.is_empty() || dead.contains(&0) {
            return Ok(false);
        }
        let n = self.nodes.len();
        if dead.iter().any(|&d| d >= n) {
            return Ok(false);
        }
        if (0..n)
            .filter(|i| !dead.contains(i))
            .any(|i| !self.nodes[i].is_running())
        {
            return Ok(false);
        }
        let mut dead = dead.to_vec();
        dead.sort_unstable();
        dead.dedup();
        partial_recover(
            &self.model,
            &self.ecfg,
            &self.dcfg,
            &self.flat_map,
            &mut self.nodes,
            &mut self.inboxes,
            &dead,
            &ck,
            None,
            true,
            self.gates.as_ref(),
        )?;
        for &d in &dead {
            // The restored shard restarts its GVT view from the cut.
            self.gvt_history[d].clear();
        }
        Ok(true)
    }

    /// The coordinator's assembled outcome, once every shard finished.
    pub fn take_outcome(&mut self) -> Option<NodeOutcome> {
        self.nodes[0].take_outcome()
    }

    /// Sweep to completion (bounded) and return the coordinator's outcome.
    pub fn run_to_completion(&mut self, max_sweeps: u64) -> Result<NodeOutcome, DistError> {
        for _ in 0..max_sweeps {
            if self.sweep()? {
                let out = self.nodes[0].take_outcome().ok_or(DistError::Protocol {
                    shard: 0,
                    detail: "finished without a coordinator outcome".to_string(),
                })?;
                return Ok(out);
            }
        }
        Err(DistError::Stalled {
            shard: 0,
            detail: format!("not finished after {max_sweeps} sweeps"),
        })
    }

    /// The latest assembled checkpoint, if any round was armed.
    pub fn latest_checkpoint(&self) -> Option<Checkpoint<M::State, M::Payload>> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}
