//! A shard's external-event ingest relay: its admission gate, the fence
//! that holds injections while a round's cut is open, and the reply slots
//! of submissions forwarded to their owners. Frames it must send are
//! returned as `(peer, frame)` for the node to ship.

use std::collections::HashMap;
use std::sync::Arc;

use pdes_core::ingest::PendingEntry;
use pdes_core::{
    Event, IngestGate, IngestPort, IngestReply, IngestRequest, LpMap, Model, Msg, Outbound,
    ReplySlot, SimThreadId, ThreadEngine, VirtualTime,
};

use crate::node::{DistError, FrameOf};
use crate::proto::Frame;

pub(crate) type Outgoing<M> = (usize, FrameOf<M>);

pub(crate) struct IngestRelay<M: Model> {
    shard: SimThreadId,
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

impl<M: Model> IngestRelay<M> {
    pub(crate) fn new(shard: SimThreadId) -> IngestRelay<M> {
        IngestRelay {
            shard,
            ingest: None,
            cut_open: false,
            forward_slots: HashMap::new(),
            next_fwd_key: 0,
        }
    }

    /// Attach this shard's gate, its admission floor at `gvt`.
    pub(crate) fn attach(&mut self, gate: Arc<IngestGate<M::Payload>>, map: LpMap, gvt: u64) {
        gate.set_floor(VirtualTime::from_ticks(gvt));
        gate.set_owner(map.clone(), self.shard);
        self.ingest = Some(IngestPort::new(gate, map));
    }

    pub(crate) fn port(&self) -> Option<&IngestPort<M::Payload>> {
        self.ingest.as_ref()
    }

    /// The wave-0 cut froze this round's pending minimum.
    pub(crate) fn open_cut(&mut self) {
        self.cut_open = true;
    }

    /// The round is over — published, or abandoned by a recovery — at
    /// `floor`: admission resumes against it.
    pub(crate) fn close_cut(&mut self, floor: u64) {
        self.cut_open = false;
        if let Some(port) = &self.ingest {
            port.gate.set_floor(VirtualTime::from_ticks(floor));
        }
    }

    /// A start at `cut` (0 when fresh) abandons any open round. Returns the
    /// gate's accepted-but-uncut suffix (`send_time >= cut`) — the exact
    /// complement of what the cut preserved — for the node to place.
    pub(crate) fn restore(&mut self, cut: VirtualTime) -> Vec<Event<M::Payload>> {
        self.cut_open = false;
        let mut evs = Vec::new();
        if let Some(port) = &self.ingest {
            port.gate
                .reinject_after_restore(cut, &mut |ev| evs.push(ev));
        }
        evs
    }

    /// Admit queued external submissions against the current floor. Owned
    /// destinations inject straight into `engine` (inside the gate lock, so
    /// no fence interleaves); submissions for LPs another shard owns are
    /// forwarded as [`Frame::Ingest`]; verdicts for submissions *we* host on
    /// behalf of another shard go back as [`Frame::IngestReply`]. Returns
    /// the number injected and the frames to send, in order.
    ///
    /// Fencing: nothing is admitted while this round's wave-0 cut is open
    /// (the frozen pending minimum would not cover the new event) or while
    /// a partially restored peer is still `replaying` below the recovery
    /// floor (admissions are floor-fenced, but survivors stay quiet until
    /// the cohort is back on a matched round).
    pub(crate) fn pump(
        &mut self,
        replaying: bool,
        map: &LpMap,
        engine: &mut ThreadEngine<M>,
        outbox: &mut Vec<Outbound<M::Payload>>,
    ) -> Result<(u64, Vec<Outgoing<M>>), DistError> {
        let Some(port) = self
            .ingest
            .as_ref()
            .filter(|_| !self.cut_open && !replaying)
        else {
            return Ok((0, Vec::new()));
        };
        let shard = self.shard.index();
        let owned = |lp| map.owns(self.shard, lp);
        let mut inject = |ev| {
            engine.deliver(Msg::Event(ev), outbox);
        };
        let out = port
            .gate
            .pump(owned, &mut inject)
            .map_err(DistError::Ingest)?;
        let replies = out.remote_replies.into_iter();
        let mut sends: Vec<_> = replies
            .map(|(peer, key, reply)| (peer as usize, Frame::IngestReply { key, reply }))
            .collect();
        for PendingEntry { req, slot } in out.forward {
            // No such LP in this model: shed rather than panic deeper in
            // the mapping (the client-facing server validates upstream).
            if req.dst.0 >= map.num_lps {
                sends.extend(Self::resolve(slot, IngestReply::Shed));
                continue;
            }
            let (key, origin) = (self.next_fwd_key, shard as u64);
            self.next_fwd_key += 1;
            self.forward_slots.insert(key, slot);
            sends.push((
                map.thread_of(req.dst).index(),
                Frame::Ingest { origin, key, req },
            ));
        }
        Ok((out.injected, sends))
    }

    /// Deliver a verdict to a slot outside the gate (forwarding paths).
    fn resolve(slot: ReplySlot, reply: IngestReply) -> Option<Outgoing<M>> {
        match slot {
            ReplySlot::None => None,
            ReplySlot::Local(f) => {
                f(reply);
                None
            }
            ReplySlot::Remote { peer, key } => {
                Some((peer as usize, Frame::IngestReply { key, reply }))
            }
        }
    }

    /// A peer forwarded an external submission for an LP this shard owns:
    /// run it through the local gate; an immediate verdict bounces straight
    /// back, a queued one answers at a later pump via the remote slot.
    pub(crate) fn on_ingest(
        &self,
        origin: usize,
        key: u64,
        req: IngestRequest<M::Payload>,
    ) -> Option<Outgoing<M>> {
        let slot = ReplySlot::Remote {
            peer: origin as u64,
            key,
        };
        let verdict = match &self.ingest {
            Some(port) => port.gate.submit(req, slot),
            None => Some(IngestReply::Closed),
        };
        verdict.map(|reply| (origin, Frame::IngestReply { key, reply }))
    }

    /// The owning shard's verdict for a submission we forwarded.
    pub(crate) fn on_reply(&mut self, key: u64, reply: IngestReply) -> Option<Outgoing<M>> {
        Self::resolve(self.forward_slots.remove(&key)?, reply)
    }

    /// The run is over: refuse further submissions, fail queued ones — and
    /// the orphaned forward slots — with `Closed`.
    pub(crate) fn close(&mut self) {
        if let Some(port) = &self.ingest {
            port.gate.close();
        }
        // No frame goes out any more: only local slots hear of it.
        for (_, slot) in self.forward_slots.drain() {
            Self::resolve(slot, IngestReply::Closed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::{Phold, PholdConfig};
    use pdes_core::{EngineConfig, LpId, MapKind, SimThreadId};
    use std::sync::Mutex;

    /// Shard 0 of two over 8 LPs; LP 7 is shard 1's.
    fn shard0() -> (IngestRelay<Phold>, LpMap, ThreadEngine<Phold>) {
        let model = Arc::new(Phold::new(PholdConfig::balanced(2, 4)));
        let map = LpMap::new(8, 2, MapKind::Block);
        let engine =
            ThreadEngine::new(model, map.clone(), SimThreadId(0), &EngineConfig::default());
        (IngestRelay::new(SimThreadId(0)), map, engine)
    }

    fn req(id: u64, dst: u32) -> IngestRequest<()> {
        let at = VirtualTime::from_f64(5.0);
        IngestRequest {
            source: 1,
            id,
            at,
            dst: LpId(dst),
            payload: (),
        }
    }

    #[test]
    fn an_unanswered_forward_resolves_closed_when_the_relay_closes() {
        let (mut relay, map, mut engine) = shard0();
        let gate = Arc::new(IngestGate::new(0));
        relay.attach(Arc::clone(&gate), map.clone(), 0);
        let got = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&got);
        let local = ReplySlot::Local(Box::new(move |r| *slot.lock().unwrap() = Some(r)));
        assert!(gate.submit(req(1, 7), local).is_none(), "queued");
        let mut outbox = Vec::new();
        // Fenced while a cut is open or a peer replays, then forwarded to
        // LP 7's owner.
        relay.open_cut();
        let (injected, sends) = relay.pump(false, &map, &mut engine, &mut outbox).unwrap();
        assert_eq!((injected, sends.len()), (0, 0));
        relay.close_cut(0);
        let (injected, sends) = relay.pump(true, &map, &mut engine, &mut outbox).unwrap();
        assert_eq!((injected, sends.len()), (0, 0));
        let (injected, sends) = relay.pump(false, &map, &mut engine, &mut outbox).unwrap();
        assert_eq!(injected, 0);
        assert!(matches!(
            sends.as_slice(),
            [(
                1,
                Frame::Ingest {
                    origin: 0,
                    key: 0,
                    ..
                }
            )]
        ));
        assert!(got.lock().unwrap().is_none(), "no verdict yet");
        relay.close();
        assert_eq!(*got.lock().unwrap(), Some(IngestReply::Closed));
    }

    /// On a resumed run the entry shard's floor can have passed an id its
    /// peer admitted in the first run. Only the owner knows the id: the
    /// entry forwards it unjudged, and the client hears `Duplicate`, not a
    /// `Rejected` that would have it re-stamp and retry.
    #[test]
    fn a_peer_owned_admitted_id_below_the_entry_floor_is_a_duplicate() {
        let (mut entry, map, mut engine0) = shard0();
        let model = Arc::new(Phold::new(PholdConfig::balanced(2, 4)));
        let ecfg = EngineConfig::default();
        let mut engine1 = ThreadEngine::new(model, map.clone(), SimThreadId(1), &ecfg);
        let mut owner: IngestRelay<Phold> = IngestRelay::new(SimThreadId(1));
        let owner_gate = Arc::new(IngestGate::new(1));
        owner.attach(Arc::clone(&owner_gate), map.clone(), 0);
        let mut outbox = Vec::new();
        assert!(owner_gate.submit(req(1, 7), ReplySlot::None).is_none());
        let (injected, _) = owner.pump(false, &map, &mut engine1, &mut outbox).unwrap();
        assert_eq!(injected, 1, "LP 7's owner admitted id 1");

        let entry_gate = Arc::new(IngestGate::new(0));
        let floor = VirtualTime::from_f64(9.0).ticks();
        entry.attach(Arc::clone(&entry_gate), map.clone(), floor);
        let got = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&got);
        let local = ReplySlot::Local(Box::new(move |r| *slot.lock().unwrap() = Some(r)));
        let at_the_door = entry_gate.submit(req(1, 7), local);
        assert!(
            at_the_door.is_none(),
            "judged by the entry: {at_the_door:?}"
        );
        let (_, mut sends) = entry.pump(false, &map, &mut engine0, &mut outbox).unwrap();
        let Some((1, Frame::Ingest { origin, key, req })) = sends.pop() else {
            panic!("not forwarded to LP 7's owner");
        };
        let Some((0, Frame::IngestReply { key, reply })) =
            owner.on_ingest(origin as usize, key, req)
        else {
            panic!("the owner answers at once");
        };
        assert!(entry.on_reply(key, reply).is_none());
        assert_eq!(*got.lock().unwrap(), Some(IngestReply::Duplicate));
        assert_eq!(entry_gate.stats().rejected, 0);
    }

    #[test]
    fn a_reply_for_an_unknown_key_is_ignored() {
        let (mut relay, _, _) = shard0();
        assert!(relay.on_reply(3, IngestReply::Accepted).is_none());
    }

    #[test]
    fn a_forward_reaching_a_shard_without_a_gate_gets_closed() {
        let (relay, _, _) = shard0();
        let out = relay.on_ingest(1, 9, req(2, 3));
        assert!(matches!(
            out,
            Some((
                1,
                Frame::IngestReply {
                    key: 9,
                    reply: IngestReply::Closed
                }
            ))
        ));
    }
}
