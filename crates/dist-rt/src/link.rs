//! Reliable, in-order links over unreliable packet transports.
//!
//! The simulation protocol ([`crate::proto`]) assumes exactly-once in-order
//! delivery per directed link. This layer provides it over two transports:
//!
//! - [`MemTx`] — pushes packet bytes straight into the peer's [`Inbox`]
//!   (in-process nodes; deterministic under [`crate::launcher::SteppedCluster`]).
//! - `TcpTx` — writes `u32`-length-prefixed packets to a `TcpStream`; a
//!   reader thread per stream pushes received packets into the node's inbox.
//!
//! Link faults ([`LinkFaults`]) are applied at the *sender*, below the
//! reliability machinery: a dropped packet simply stays unacked and is
//! retransmitted, a duplicate is discarded by the receiver's sequence
//! window, a delayed packet sits in the sender's delay buffer for a few
//! pumps. Faults apply to retransmissions and acks too — the drop/duplicate
//! budgets in [`crate::LinkFaultPlan`] are what keep the link live.

use crate::faults::LinkFaults;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::wire::{read_frame, write_frame, WireError};

/// Retransmit all unacked packets after this many pumps without progress.
const RETRANSMIT_EVERY: u64 = 8;

/// One packet on the unreliable transport: either sequenced data (a wire
/// frame) or a cumulative ack ("I have delivered every seq `< upto`").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    Data { seq: u64, payload: Vec<u8> },
    Ack { upto: u64 },
}

impl Packet {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Packet::Data { seq, payload } => {
                let mut out = Vec::with_capacity(9 + payload.len());
                out.push(0u8);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(payload);
                out
            }
            Packet::Ack { upto } => {
                let mut out = Vec::with_capacity(9);
                out.push(1u8);
                out.extend_from_slice(&upto.to_le_bytes());
                out
            }
        }
    }

    pub fn decode(bytes: &[u8]) -> Result<Packet, WireError> {
        let (&tag, rest) = bytes
            .split_first()
            .ok_or_else(|| WireError("empty packet".into()))?;
        if rest.len() < 8 {
            return Err(WireError("truncated packet header".into()));
        }
        let n = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
        match tag {
            0 => Ok(Packet::Data {
                seq: n,
                payload: rest[8..].to_vec(),
            }),
            1 if rest.len() == 8 => Ok(Packet::Ack { upto: n }),
            1 => Err(WireError("ack packet with trailing bytes".into())),
            other => Err(WireError(format!("unknown packet tag {other}"))),
        }
    }
}

/// A node's shared receive queue: `(peer, packet bytes)` pairs pushed by
/// memory links or TCP reader threads. An empty byte vector is the
/// link-closed sentinel (peer hung up / reader errored).
#[derive(Debug, Default)]
pub struct Inbox {
    q: Mutex<VecDeque<(usize, Vec<u8>)>>,
    cv: Condvar,
}

impl Inbox {
    pub fn new() -> Arc<Inbox> {
        Arc::new(Inbox::default())
    }

    pub fn push(&self, peer: usize, bytes: Vec<u8>) {
        self.q
            .lock()
            .expect("inbox poisoned")
            .push_back((peer, bytes));
        self.cv.notify_all();
    }

    /// Take everything queued right now (never blocks).
    pub fn drain(&self) -> Vec<(usize, Vec<u8>)> {
        self.q.lock().expect("inbox poisoned").drain(..).collect()
    }

    /// Block until something arrives or `timeout` elapses, leaving the
    /// queue intact. Returns `true` if packets are waiting.
    pub fn wait_nonempty(&self, timeout: Duration) -> bool {
        let g = self.q.lock().expect("inbox poisoned");
        let (g, _) = self
            .cv
            .wait_timeout_while(g, timeout, |q| q.is_empty())
            .expect("inbox poisoned");
        !g.is_empty()
    }
}

/// The unreliable packet transmitter a [`ReliableLink`] writes to.
pub trait FrameTx: Send {
    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Sever the underlying transport. Socket transports shut the socket
    /// down at the OS level so *every* clone of it (including blocked
    /// reader threads on both ends) sees EOF; default is a no-op.
    fn hangup(&mut self) {}
}

/// In-memory transport: packets land directly in the peer's inbox, tagged
/// with the sending shard's id.
pub struct MemTx {
    pub peer_inbox: Arc<Inbox>,
    pub from: usize,
}

impl FrameTx for MemTx {
    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.peer_inbox.push(self.from, bytes.to_vec());
        Ok(())
    }
}

/// TCP transport: packets are written as `u32`-length-prefixed frames.
pub(crate) struct TcpTx {
    pub stream: TcpStream,
}

impl FrameTx for TcpTx {
    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        write_frame(&mut self.stream, bytes)
    }

    fn hangup(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Spawn the reader thread for one TCP peer: pushes every received packet
/// into `inbox` tagged with `peer`; pushes the empty-bytes closed sentinel
/// and exits on EOF or error.
pub fn spawn_tcp_reader(
    mut stream: TcpStream,
    peer: usize,
    inbox: Arc<Inbox>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("dist-rx-{peer}"))
        .spawn(move || loop {
            match read_frame(&mut stream) {
                Ok(Some(bytes)) => inbox.push(peer, bytes),
                Ok(None) | Err(_) => {
                    inbox.push(peer, Vec::new());
                    return;
                }
            }
        })
        .expect("spawn reader thread")
}

/// Raw `Hello` preamble, written by the connecting side before the reliable
/// layer starts: `[magic u32][protocol version u32][shard u32]`, all
/// little-endian. The magic rejects strangers (port scanners, a mis-typed
/// endpoint) and the version rejects mismatched builds with a clear error
/// instead of a decode failure mid-run.
pub(crate) fn write_hello(stream: &mut TcpStream, shard: usize) -> std::io::Result<()> {
    let mut buf = [0u8; 12];
    buf[..4].copy_from_slice(&crate::proto::HELLO_MAGIC.to_le_bytes());
    buf[4..8].copy_from_slice(&crate::proto::PROTOCOL_VERSION.to_le_bytes());
    buf[8..].copy_from_slice(&(shard as u32).to_le_bytes());
    stream.write_all(&buf)
}

pub(crate) fn read_hello(stream: &mut TcpStream) -> std::io::Result<usize> {
    let mut buf = [0u8; 12];
    stream.read_exact(&mut buf)?;
    let magic = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
    let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if magic != crate::proto::HELLO_MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("not a ggpdes peer (bad hello magic {magic:#x})"),
        ));
    }
    if version != crate::proto::PROTOCOL_VERSION {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "protocol version mismatch: peer speaks v{version}, this build speaks v{}",
                crate::proto::PROTOCOL_VERSION
            ),
        ));
    }
    Ok(u32::from_le_bytes(buf[8..].try_into().expect("4 bytes")) as usize)
}

/// Capped exponential backoff with deterministic jitter, shared by the
/// startup mesh handshake and the ingest client so both retry policies stay
/// identical. Delays grow `base × 2^attempt` up to `cap`, each stretched by
/// a ±25% splitmix64 jitter keyed on `(seed, attempt)`. (The one mid-run
/// reconnect, a partial recovery's loopback `tcp_pair`, does not retry.)
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// The policy every retrying connect uses: 2 ms doubling to a 200 ms
    /// cap.
    pub fn standard(seed: u64) -> Backoff {
        Backoff {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(200),
            seed,
            attempt: 0,
        }
    }

    /// Next delay to sleep before retrying (advances the attempt counter).
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(20);
        self.attempt = self.attempt.saturating_add(1);
        let raw = self
            .base
            .saturating_mul(1u32 << exp.min(16))
            .min(self.cap)
            .as_nanos() as u64;
        // Jitter in [0.75, 1.25): keyed, so retry schedules are reproducible.
        let mut key = self.seed.wrapping_add(u64::from(self.attempt));
        let j = pdes_core::rng::splitmix64(&mut key);
        let num = 750_000 + (j % 500_000);
        Duration::from_nanos(raw / 1_000_000 * num + (raw % 1_000_000) * num / 1_000_000)
    }

    /// Attempts made so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

/// One direction of a reliable link: sequences outgoing frames, retransmits
/// until cumulatively acked, and reorders/dedups incoming ones.
pub struct ReliableLink {
    tx: Box<dyn FrameTx>,
    faults: Option<LinkFaults>,
    /// Scripted transient partition: while set, *nothing* leaves this side —
    /// data, retransmissions, and acks all vanish on the floor. Unacked
    /// frames are retained, so retransmission resumes delivery on heal.
    partitioned: bool,
    // Sender side.
    send_next: u64,
    unacked: VecDeque<(u64, Vec<u8>)>, // (seq, encoded Data packet)
    delayed: Vec<(u64, Vec<u8>)>,      // (release_pump, encoded packet)
    // Receiver side.
    recv_next: u64,
    ooo: BTreeMap<u64, Vec<u8>>,
    last_acked_out: u64,
    need_ack: bool,
    // Pump clock.
    pumps: u64,
    last_progress: u64,
    /// Retransmission episodes (diagnostics).
    pub retransmits: u64,
}

impl ReliableLink {
    pub fn new(tx: Box<dyn FrameTx>, faults: Option<LinkFaults>) -> ReliableLink {
        ReliableLink {
            tx,
            faults,
            partitioned: false,
            send_next: 0,
            unacked: VecDeque::new(),
            delayed: Vec::new(),
            recv_next: 0,
            ooo: BTreeMap::new(),
            last_acked_out: 0,
            need_ack: false,
            pumps: 0,
            last_progress: 0,
            retransmits: 0,
        }
    }

    /// Queue one wire frame for reliable delivery and transmit it (subject
    /// to link faults).
    pub fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let seq = self.send_next;
        self.send_next += 1;
        let pkt = Packet::Data {
            seq,
            payload: frame.to_vec(),
        }
        .encode();
        self.unacked.push_back((seq, pkt.clone()));
        self.transmit(pkt)
    }

    /// Start or heal a scripted partition on this direction of the link.
    pub fn set_partitioned(&mut self, on: bool) {
        self.partitioned = on;
    }

    /// Sever the underlying transport (recovery teardown of a dead peer's
    /// links): socket-level, so blocked readers on both ends unblock.
    pub fn hangup(&mut self) {
        self.tx.hangup();
    }

    /// Push one packet through the fault decider and (maybe) the transport.
    fn transmit(&mut self, pkt: Vec<u8>) -> std::io::Result<()> {
        use crate::faults::LinkAction::*;
        if self.partitioned {
            return Ok(()); // data stays unacked; acks are regenerated
        }
        match self.faults.as_mut().map_or(Deliver, |f| f.decide()) {
            Deliver => self.tx.send(&pkt),
            Drop => Ok(()), // stays unacked; retransmission recovers it
            Duplicate => {
                self.tx.send(&pkt)?;
                self.tx.send(&pkt)
            }
            Delay(pumps) => {
                self.delayed.push((self.pumps + pumps as u64, pkt));
                Ok(())
            }
        }
    }

    /// Handle one packet received from the peer. Returns the wire frames
    /// now deliverable **in order**.
    pub fn on_packet(&mut self, bytes: &[u8]) -> Result<Vec<Vec<u8>>, WireError> {
        match Packet::decode(bytes)? {
            Packet::Data { seq, payload } => {
                let mut out = Vec::new();
                self.need_ack = true;
                if seq >= self.recv_next {
                    self.ooo.insert(seq, payload);
                    while let Some(p) = self.ooo.remove(&self.recv_next) {
                        self.recv_next += 1;
                        out.push(p);
                    }
                }
                // seq < recv_next: duplicate — discard, but re-ack so a
                // lost ack does not stall the sender forever.
                Ok(out)
            }
            Packet::Ack { upto } => {
                let before = self.unacked.len();
                while self.unacked.front().is_some_and(|(s, _)| *s < upto) {
                    self.unacked.pop_front();
                }
                if self.unacked.len() != before {
                    self.last_progress = self.pumps;
                }
                Ok(Vec::new())
            }
        }
    }

    /// Advance the link one tick: release due delayed packets, retransmit
    /// stalled unacked ones, and send a cumulative ack if owed.
    pub fn pump(&mut self) -> std::io::Result<()> {
        self.pumps += 1;
        if !self.delayed.is_empty() {
            let due: Vec<Vec<u8>> = {
                let pumps = self.pumps;
                let mut rest = Vec::new();
                let mut due = Vec::new();
                for (at, pkt) in self.delayed.drain(..) {
                    if at <= pumps {
                        due.push(pkt);
                    } else {
                        rest.push((at, pkt));
                    }
                }
                self.delayed = rest;
                due
            };
            for pkt in due {
                if self.partitioned {
                    continue; // swallowed; retransmission recovers data
                }
                self.tx.send(&pkt)?; // already rolled its fault at send time
            }
        }
        if !self.unacked.is_empty() && self.pumps - self.last_progress >= RETRANSMIT_EVERY {
            self.last_progress = self.pumps;
            self.retransmits += 1;
            let pkts: Vec<Vec<u8>> = self.unacked.iter().map(|(_, p)| p.clone()).collect();
            for pkt in pkts {
                self.transmit(pkt)?;
            }
        }
        if !self.partitioned && (self.need_ack || self.recv_next > self.last_acked_out) {
            self.need_ack = false;
            self.last_acked_out = self.recv_next;
            let ack = Packet::Ack {
                upto: self.recv_next,
            }
            .encode();
            self.transmit(ack)?;
        }
        Ok(())
    }

    /// `true` when nothing is awaiting ack or sitting in the delay buffer.
    pub fn drained(&self) -> bool {
        self.unacked.is_empty() && self.delayed.is_empty()
    }

    /// Stop injecting faults (teardown: once the GVT machinery has proven
    /// every data frame delivered, the remaining ack/`Done` exchange runs
    /// on the clean underlying transport so termination converges).
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::LinkFaultPlan;

    #[test]
    fn packet_codec_round_trips() {
        for p in [
            Packet::Data {
                seq: 7,
                payload: vec![1, 2, 3],
            },
            Packet::Data {
                seq: 0,
                payload: vec![],
            },
            Packet::Ack { upto: 99 },
        ] {
            assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
        }
        assert!(Packet::decode(&[]).is_err());
        assert!(Packet::decode(&[0, 1, 2]).is_err());
        assert!(Packet::decode(&[9, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    /// Two endpoints, each with an inbox; pump both until quiescent.
    struct Pair {
        a: ReliableLink,
        b: ReliableLink,
        inbox_a: Arc<Inbox>,
        inbox_b: Arc<Inbox>,
    }

    impl Pair {
        fn new(faults_ab: Option<LinkFaults>, faults_ba: Option<LinkFaults>) -> Pair {
            let inbox_a = Inbox::new();
            let inbox_b = Inbox::new();
            let a = ReliableLink::new(
                Box::new(MemTx {
                    peer_inbox: Arc::clone(&inbox_b),
                    from: 0,
                }),
                faults_ab,
            );
            let b = ReliableLink::new(
                Box::new(MemTx {
                    peer_inbox: Arc::clone(&inbox_a),
                    from: 1,
                }),
                faults_ba,
            );
            Pair {
                a,
                b,
                inbox_a,
                inbox_b,
            }
        }

        /// One full exchange step; returns frames delivered at each side.
        fn step(&mut self) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
            let mut at_a = Vec::new();
            let mut at_b = Vec::new();
            for (_, bytes) in self.inbox_b.drain() {
                at_b.extend(self.b.on_packet(&bytes).expect("decode at b"));
            }
            for (_, bytes) in self.inbox_a.drain() {
                at_a.extend(self.a.on_packet(&bytes).expect("decode at a"));
            }
            self.a.pump().unwrap();
            self.b.pump().unwrap();
            (at_a, at_b)
        }
    }

    #[test]
    fn clean_link_delivers_in_order() {
        let mut pair = Pair::new(None, None);
        for i in 0..10u8 {
            pair.a.send(&[i]).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..5 {
            let (_, at_b) = pair.step();
            got.extend(at_b);
        }
        assert_eq!(got, (0..10u8).map(|i| vec![i]).collect::<Vec<_>>());
        assert!(pair.a.drained(), "acks must clear the unacked queue");
        assert_eq!(pair.a.retransmits, 0);
    }

    #[test]
    fn chaos_link_still_delivers_everything_in_order() {
        for seed in 0..8u64 {
            let plan = LinkFaultPlan::chaos(seed);
            let mut pair = Pair::new(
                Some(LinkFaults::new(&plan, 0, 1)),
                Some(LinkFaults::new(&plan, 1, 0)),
            );
            let n = 200u64;
            for i in 0..n {
                pair.a.send(&i.to_le_bytes()).unwrap();
                // Cross-traffic so acks themselves ride a faulty link.
                if i % 3 == 0 {
                    pair.b.send(&[0xAB]).unwrap();
                }
            }
            let mut got = Vec::new();
            for _ in 0..2000 {
                let (_, at_b) = pair.step();
                got.extend(at_b);
                if got.len() == n as usize && pair.a.drained() && pair.b.drained() {
                    break;
                }
            }
            let want: Vec<Vec<u8>> = (0..n).map(|i| i.to_le_bytes().to_vec()).collect();
            assert_eq!(got, want, "seed {seed}: loss or reordering leaked through");
            assert!(
                pair.a.drained() && pair.b.drained(),
                "seed {seed}: not drained"
            );
        }
    }

    #[test]
    fn duplicate_packets_are_discarded_and_reacked() {
        let mut pair = Pair::new(None, None);
        pair.a.send(b"x").unwrap();
        let pkts = pair.inbox_b.drain();
        assert_eq!(pkts.len(), 1);
        // Deliver the same data packet three times.
        let delivered: usize = (0..3)
            .map(|_| pair.b.on_packet(&pkts[0].1).unwrap().len())
            .sum();
        assert_eq!(delivered, 1, "duplicates must not re-deliver");
        pair.b.pump().unwrap();
        // The re-ack reaches a and clears its unacked queue.
        for (_, bytes) in pair.inbox_a.drain() {
            pair.a.on_packet(&bytes).unwrap();
        }
        assert!(pair.a.drained());
    }

    #[test]
    fn partition_swallows_everything_until_heal_then_retransmit_recovers() {
        let mut pair = Pair::new(None, None);
        pair.a.set_partitioned(true);
        for i in 0..5u8 {
            pair.a.send(&[i]).unwrap();
        }
        for _ in 0..(RETRANSMIT_EVERY as usize * 3) {
            let (_, at_b) = pair.step();
            assert!(at_b.is_empty(), "nothing may cross a partition");
        }
        assert!(!pair.a.drained(), "unacked frames survive the partition");
        pair.a.set_partitioned(false);
        let mut got = Vec::new();
        for _ in 0..(RETRANSMIT_EVERY as usize * 3) {
            let (_, at_b) = pair.step();
            got.extend(at_b);
            if got.len() == 5 && pair.a.drained() {
                break;
            }
        }
        assert_eq!(got, (0..5u8).map(|i| vec![i]).collect::<Vec<_>>());
        assert!(
            pair.a.drained(),
            "heal must resume seq/ack state, not reset"
        );
        assert!(pair.a.retransmits >= 1);
    }

    #[test]
    fn backoff_grows_to_the_cap_with_bounded_jitter() {
        let mut b = Backoff::standard(42);
        let mut prev = Duration::ZERO;
        for i in 0..12 {
            let d = b.next_delay();
            assert!(
                d <= Duration::from_millis(250),
                "attempt {i}: {d:?} above cap+jitter"
            );
            if i < 4 {
                assert!(d >= prev / 2, "roughly non-decreasing early on");
            }
            prev = d;
        }
        assert_eq!(b.attempts(), 12);
        // Same seed replays the same schedule; different seeds jitter apart.
        let s1: Vec<Duration> = (0..8).map(|_| Backoff::standard(7).next_delay()).collect();
        let mut b7 = Backoff::standard(7);
        let s2: Vec<Duration> = (0..8).map(|_| b7.next_delay()).collect();
        assert_eq!(s1[0], s2[0]);
        let mut b8 = Backoff::standard(8);
        let s3: Vec<Duration> = (0..8).map(|_| b8.next_delay()).collect();
        assert_ne!(s2, s3);
    }

    #[test]
    fn hello_rejects_bad_magic_and_version_mismatch() {
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        // Good hello round-trips the shard id.
        let mut c = TcpStream::connect(addr).unwrap();
        write_hello(&mut c, 3).unwrap();
        let (mut s, _) = listener.accept().unwrap();
        assert_eq!(read_hello(&mut s).unwrap(), 3);

        // Wrong protocol version: clear mismatch error naming both versions.
        let mut c = TcpStream::connect(addr).unwrap();
        let bogus_version = crate::proto::PROTOCOL_VERSION + 1;
        let mut buf = Vec::new();
        buf.extend_from_slice(&crate::proto::HELLO_MAGIC.to_le_bytes());
        buf.extend_from_slice(&bogus_version.to_le_bytes());
        buf.extend_from_slice(&7u32.to_le_bytes());
        c.write_all(&buf).unwrap();
        let (mut s, _) = listener.accept().unwrap();
        let err = read_hello(&mut s).unwrap_err().to_string();
        assert!(err.contains("protocol version mismatch"), "got: {err}");
        assert!(err.contains(&format!("v{bogus_version}")), "got: {err}");

        // Garbage preamble: rejected on the magic, not a decode error later.
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(&[0xDEu8; 12]).unwrap();
        let (mut s, _) = listener.accept().unwrap();
        let err = read_hello(&mut s).unwrap_err().to_string();
        assert!(err.contains("bad hello magic"), "got: {err}");
    }

    #[test]
    fn retransmission_recovers_a_silently_dropped_packet() {
        let mut pair = Pair::new(None, None);
        pair.a.send(b"lost").unwrap();
        pair.inbox_b.drain(); // the packet vanishes on the wire
        let mut got = Vec::new();
        for _ in 0..(RETRANSMIT_EVERY as usize + 4) {
            let (_, at_b) = pair.step();
            got.extend(at_b);
        }
        assert_eq!(got, vec![b"lost".to_vec()]);
        assert!(pair.a.retransmits >= 1);
        assert!(pair.a.drained());
    }
}
