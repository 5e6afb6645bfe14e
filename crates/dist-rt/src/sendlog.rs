//! The per-peer log of simulation messages a shard has sent since the
//! second-newest armed cut. A partially restored peer lost every input it
//! took after the cut it was restored from; the survivors replay those from
//! here. Recovery only ever restores from one of the two newest cuts, which
//! is what bounds the log.

use pdes_core::{EventKey, Msg};

/// What this shard sent to each peer, in send order.
#[derive(Debug)]
pub struct SendLog<P> {
    logs: Vec<Vec<Msg<P>>>,
    /// GVT of the previous armed cut — the retention horizon.
    prev_cut: u64,
}

impl<P: Clone> SendLog<P> {
    pub fn new(peers: usize) -> SendLog<P> {
        SendLog {
            logs: vec![Vec::new(); peers],
            prev_cut: 0,
        }
    }

    pub fn record(&mut self, peer: usize, msg: &Msg<P>) {
        self.logs[peer].push(msg.clone());
    }

    /// An armed cut was taken at `gvt`: events sent below the *previous*
    /// armed cut can never need replaying again, and an anti-message is
    /// worth keeping exactly as long as the event it cancels is.
    pub fn on_cut(&mut self, gvt: u64) {
        let keep_from = std::mem::replace(&mut self.prev_cut, gvt);
        for log in &mut self.logs {
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

    /// What `peer`, restored from the cut at `cut` (ticks), is missing: every
    /// logged event with `send_time >= cut` — older sends are inside the
    /// checkpoint it restored from — and every anti-message whose twin is
    /// among them, in send order. The log is kept: a later failure replays
    /// again from a newer cut.
    pub fn replay(&self, peer: usize, cut: u64) -> Vec<Msg<P>> {
        let mut shipped: Vec<EventKey> = Vec::new();
        let mut out = Vec::new();
        for msg in &self.logs[peer] {
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
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdes_core::{Event, EventUid, LpId, VirtualTime};

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

    /// Peer 1's log: events sent at 10, 20, 30, each later cancelled except
    /// the one at 20; peer 2's log holds one event at 10.
    fn log() -> SendLog<()> {
        let mut l = SendLog::new(3);
        for m in [ev(1, 10), ev(2, 20), anti(1, 10), ev(3, 30), anti(3, 30)] {
            l.record(1, &m);
        }
        l.record(2, &ev(4, 10));
        l
    }

    #[test]
    fn pruning_lags_one_cut_and_keeps_an_anti_iff_its_twin_is_kept() {
        let mut l = log();
        // First armed cut at 15: the horizon is the *previous* cut (none),
        // so nothing goes yet.
        l.on_cut(15);
        assert_eq!(l.logs[1].len(), 5);
        // Second cut at 25: everything sent below 15 goes — event 1 and,
        // with it, its anti; event 3's anti stays because event 3 does.
        l.on_cut(25);
        assert_eq!(l.logs[1], vec![ev(2, 20), ev(3, 30), anti(3, 30)]);
        assert!(l.logs[2].is_empty());
        // Third cut: the horizon moves to 25.
        l.on_cut(40);
        assert_eq!(l.logs[1], vec![ev(3, 30), anti(3, 30)]);
    }

    #[test]
    fn replay_ships_events_from_the_cut_on_and_only_their_antis_in_send_order() {
        let l = log();
        // Restored from the cut at 20: the send at 10 is inside the
        // checkpoint, so neither it nor its anti travels.
        assert_eq!(l.replay(1, 20), vec![ev(2, 20), ev(3, 30), anti(3, 30)]);
        assert_eq!(
            l.replay(1, 0),
            vec![ev(1, 10), ev(2, 20), anti(1, 10), ev(3, 30), anti(3, 30)]
        );
        assert!(l.replay(2, 11).is_empty());
        // Replaying does not consume the log.
        assert_eq!(l.replay(2, 10), vec![ev(4, 10)]);
        assert_eq!(l.replay(2, 10), vec![ev(4, 10)]);
    }
}
