//! A shard's send side: `Peers`, the [`SendSink`] its `SendBatcher` lands
//! the engine's outbox into. It holds the link to every peer, the Mattern
//! colouring of each message and the send log a partially restored peer,
//! which lost every input it took after its cut, is replayed from. Recovery
//! only ever restores from one of the two newest cuts, which bounds the log.

use std::io;

use pdes_core::{EventKey, Model, Msg, SendSink, VirtualTime};

use crate::gvt::GvtTracker;
use crate::link::ReliableLink;
use crate::node::FrameOf;
use crate::proto::Frame;
use crate::wire;

/// The shard's links, send colouring and send log.
///
/// The node only ever `land`s into it, and a landing flushes before it
/// returns: no message stays buffered across a frame, a cut or a report.
/// Mattern's colours count a message from its `push_batch` on, so `cover`
/// has nothing to do.
pub(crate) struct Peers<M: Model> {
    /// `links[p]` is the reliable link to shard `p` (`None` for self).
    pub(crate) links: Vec<Option<ReliableLink>>,
    pub(crate) tracker: GvtTracker,
    /// What each peer was sent, in send order; kept when checkpoints are armed.
    log: Option<Vec<Vec<Msg<M::Payload>>>>,
    /// GVT of the previous armed cut — the log's retention horizon.
    prev_cut: u64,
    /// The first send that failed since the last [`Self::landed`].
    failed: Option<io::Error>,
}

impl<M: Model> Peers<M> {
    pub(crate) fn new(links: Vec<Option<ReliableLink>>, armed: bool) -> Peers<M> {
        let n = links.len();
        Peers {
            links,
            tracker: GvtTracker::new(n),
            log: armed.then(|| vec![Vec::new(); n]),
            prev_cut: 0,
            failed: None,
        }
    }

    pub(crate) fn send(&mut self, peer: usize, frame: &FrameOf<M>) -> io::Result<()> {
        let link = self.links[peer]
            .as_mut()
            .ok_or(io::ErrorKind::NotConnected)?;
        link.send(&wire::to_bytes(frame))
    }

    /// Tag each message with the current epoch and ship them as one frame.
    fn ship(&mut self, peer: usize, msgs: impl Iterator<Item = Msg<M::Payload>>) -> io::Result<()> {
        let msgs: Vec<_> = msgs.map(|m| (self.tracker.note_sent(peer), m)).collect();
        if msgs.is_empty() {
            return Ok(());
        }
        self.send(peer, &Frame::SimBatch { msgs })
    }

    /// The first send of the landing that failed, if one did.
    pub(crate) fn landed(&mut self) -> io::Result<()> {
        self.failed.take().map_or(Ok(()), Err)
    }

    /// An armed cut was taken at `gvt`: events sent below the *previous*
    /// armed cut can never need replaying again, and an anti-message is
    /// worth keeping exactly as long as the event it cancels is.
    pub(crate) fn on_cut(&mut self, gvt: u64) {
        let keep_from = std::mem::replace(&mut self.prev_cut, gvt);
        for log in self.log.iter_mut().flatten() {
            let mut kept: Vec<EventKey> = log
                .iter()
                .filter_map(|m| match m {
                    Msg::Event(e) if e.send_time.ticks() >= keep_from => Some(e.key),
                    _ => None,
                })
                .collect();
            kept.sort_unstable();
            log.retain(|m| match m {
                Msg::Event(e) => e.send_time.ticks() >= keep_from,
                Msg::Anti(k) => kept.binary_search(k).is_ok(),
            });
        }
    }

    /// Ship `peer`, restored from the cut at `cut` (ticks), what it is
    /// missing, ahead of whatever lands next: every logged event with
    /// `send_time >= cut` — older sends are inside the checkpoint it restored
    /// from — and every anti-message whose twin is among them, in send
    /// order. The log is neither written nor consumed: a later failure
    /// replays again from a newer cut.
    pub(crate) fn replay(&mut self, peer: usize, cut: u64) -> io::Result<()> {
        let mut shipped: Vec<EventKey> = Vec::new();
        let mut out = Vec::new();
        for msg in self.log.iter().flat_map(|log| &log[peer]) {
            let ship = match msg {
                Msg::Event(e) if e.send_time.ticks() >= cut => {
                    shipped.push(e.key);
                    true
                }
                Msg::Event(_) => false,
                Msg::Anti(k) => shipped.contains(k),
            };
            if ship {
                out.push(msg.clone());
            }
        }
        self.ship(peer, out.into_iter())
    }
}

impl<M: Model> SendSink<M::Payload> for Peers<M> {
    fn cover(&mut self, _: usize, _: VirtualTime) {}

    fn push_batch(&mut self, peer: usize, msgs: &mut Vec<Msg<M::Payload>>) {
        if let Some(log) = &mut self.log {
            log[peer].extend(msgs.iter().cloned());
        }
        if let Err(e) = self.ship(peer, msgs.drain(..)) {
            self.failed.get_or_insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Inbox, MemTx, Packet};
    use pdes_core::{Event, EventUid, LpId, SendBatcher, SimThreadId};
    use std::sync::Arc;

    fn key(uid: u64, recv: u64) -> EventKey {
        EventKey {
            recv_time: VirtualTime::from_ticks(recv),
            dst: LpId(1),
            uid: EventUid {
                src: LpId(0),
                seq: uid,
            },
        }
    }

    fn ev(uid: u64, send: u64) -> Msg<()> {
        Msg::Event(Event {
            key: key(uid, send + 5),
            send_time: VirtualTime::from_ticks(send),
            payload: (),
        })
    }

    fn anti(uid: u64, send: u64) -> Msg<()> {
        Msg::Anti(key(uid, send + 5))
    }

    type M = models::Phold;

    /// Armed peers whose log to peer 1 holds events sent at 10, 20, 30, each
    /// later cancelled except the one at 20, and to peer 2 one event at 10.
    /// Their landings are drained from the inboxes.
    fn log() -> (Peers<M>, Vec<Arc<Inbox>>) {
        let (mut p, inboxes) = peers(true);
        let to_1 = [ev(1, 10), ev(2, 20), anti(1, 10), ev(3, 30), anti(3, 30)];
        let mut out: Vec<_> = to_1.into_iter().map(|m| (SimThreadId(1), m)).collect();
        out.push((SimThreadId(2), ev(4, 10)));
        land(&mut p, &mut out);
        inboxes.iter().for_each(|i| drop(i.drain()));
        (p, inboxes)
    }

    /// What `peers` logged for `peer` (nothing when unarmed).
    fn logged(peers: &Peers<M>, peer: usize) -> Vec<Msg<()>> {
        peers
            .log
            .as_ref()
            .map_or_else(Vec::new, |l| l[peer].clone())
    }

    /// What a replay to `peer` from `cut` ships, untagged.
    fn replayed(p: &mut Peers<M>, inboxes: &[Arc<Inbox>], peer: usize, cut: u64) -> Vec<Msg<()>> {
        p.replay(peer, cut).expect("memory links never fail");
        let shipped = batches(&inboxes[peer]).into_iter().flatten();
        shipped.map(|(_, m)| m).collect()
    }

    #[test]
    fn pruning_lags_one_cut_and_keeps_an_anti_iff_its_twin_is_kept() {
        let (mut p, _inboxes) = log();
        // First armed cut at 15: the horizon is the *previous* cut (none),
        // so nothing goes yet.
        p.on_cut(15);
        assert_eq!(logged(&p, 1).len(), 5);
        // Second cut at 25: everything sent below 15 goes — event 1 and,
        // with it, its anti; event 3's anti stays because event 3 does.
        p.on_cut(25);
        assert_eq!(logged(&p, 1), vec![ev(2, 20), ev(3, 30), anti(3, 30)]);
        assert!(logged(&p, 2).is_empty());
        // Third cut: the horizon moves to 25.
        p.on_cut(40);
        assert_eq!(logged(&p, 1), vec![ev(3, 30), anti(3, 30)]);
    }

    #[test]
    fn replay_ships_events_from_the_cut_on_and_only_their_antis_in_send_order() {
        let (mut p, inboxes) = log();
        let mut replay = |peer, cut| replayed(&mut p, &inboxes, peer, cut);
        // Restored from the cut at 20: the send at 10 is inside the
        // checkpoint, so neither it nor its anti travels.
        assert_eq!(replay(1, 20), vec![ev(2, 20), ev(3, 30), anti(3, 30)]);
        assert_eq!(
            replay(1, 0),
            vec![ev(1, 10), ev(2, 20), anti(1, 10), ev(3, 30), anti(3, 30)]
        );
        assert!(replay(2, 11).is_empty());
        // Replaying does not consume the log.
        assert_eq!(replay(2, 10), vec![ev(4, 10)]);
        assert_eq!(replay(2, 10), vec![ev(4, 10)]);
    }

    /// Shard 0's peers over memory links to shards 1 and 2, with their
    /// inboxes.
    fn peers(armed: bool) -> (Peers<M>, Vec<Arc<Inbox>>) {
        let inboxes: Vec<_> = (0..3).map(|_| Inbox::new()).collect();
        let links = (0..3)
            .map(|p| {
                let tx = MemTx {
                    peer_inbox: Arc::clone(&inboxes[p]),
                    from: 0,
                };
                (p != 0).then(|| ReliableLink::new(Box::new(tx), None))
            })
            .collect();
        (Peers::new(links, armed), inboxes)
    }

    /// The `SimBatch` frames waiting in `inbox`, in arrival order.
    fn batches(inbox: &Inbox) -> Vec<Vec<(u64, Msg<()>)>> {
        let frames = inbox.drain().into_iter().map(|(from, bytes)| {
            assert_eq!(from, 0);
            let Ok(Packet::Data { payload, .. }) = Packet::decode(&bytes) else {
                panic!("a data packet");
            };
            wire::from_bytes::<FrameOf<M>>(&payload).expect("a frame")
        });
        let batch = |f| match f {
            Frame::SimBatch { msgs } => msgs,
            other => panic!("not a SimBatch: {other:?}"),
        };
        frames.map(batch).collect()
    }

    fn land(peers: &mut Peers<M>, out: &mut Vec<(SimThreadId, Msg<()>)>) {
        SendBatcher::new(3, usize::MAX).land(&mut *peers, 0, out);
        peers.landed().expect("memory links never fail");
    }

    #[test]
    fn a_landing_ships_one_tagged_batch_per_peer_in_send_order() {
        let (mut p, inboxes) = peers(true);
        p.tracker.take_cut(3, 0);
        let anti = anti(1, 10);
        let to = |s: u32, m: Msg<()>| (SimThreadId(s), m);
        let mut out = vec![
            to(1, ev(1, 10)),
            to(2, ev(2, 11)),
            to(1, anti.clone()),
            to(2, ev(3, 12)),
            to(1, ev(4, 13)),
        ];
        land(&mut p, &mut out);
        assert!(out.is_empty());
        let tagged = |ms: &[Msg<()>]| ms.iter().map(|m| (4, m.clone())).collect::<Vec<_>>();
        let to_1 = [ev(1, 10), anti, ev(4, 13)];
        let to_2 = [ev(2, 11), ev(3, 12)];
        assert_eq!(batches(&inboxes[1]), vec![tagged(&to_1)]);
        assert_eq!(batches(&inboxes[2]), vec![tagged(&to_2)]);
        assert_eq!(
            (logged(&p, 1), logged(&p, 2)),
            (to_1.to_vec(), to_2.to_vec())
        );
    }

    #[test]
    fn the_send_log_records_only_when_checkpoints_are_armed() {
        for armed in [false, true] {
            let (mut p, _inboxes) = peers(armed);
            land(&mut p, &mut vec![(SimThreadId(1), ev(1, 10))]);
            p.on_cut(5);
            let want = if armed { vec![ev(1, 10)] } else { Vec::new() };
            assert_eq!(logged(&p, 1), want);
        }
    }

    /// A survivor's partial recovery replays the log to the restored peer,
    /// then lands the purge's cascade anti-messages after it.
    #[test]
    fn a_replay_reaches_the_peer_before_the_cascade_and_is_not_logged_again() {
        let (mut p, inboxes) = peers(true);
        land(&mut p, &mut vec![(SimThreadId(1), ev(1, 10))]);
        land(&mut p, &mut vec![(SimThreadId(1), ev(2, 20))]);
        inboxes[1].drain();
        p.replay(1, 15).expect("memory links never fail");
        assert_eq!(logged(&p, 1).len(), 2, "the replay is not logged");
        let cascade = anti(2, 20);
        land(&mut p, &mut vec![(SimThreadId(1), cascade.clone())]);
        let got = batches(&inboxes[1]);
        assert_eq!(got, vec![vec![(0, ev(2, 20))], vec![(0, cascade)]]);
        assert_eq!(logged(&p, 1).len(), 3, "the cascade is logged");
    }
}
