//! The ingest wiring a runtime's round closer holds.

use super::gate::IngestGate;
use super::IngestError;
use crate::batch::{SendBatcher, SendSink, CAP};
use crate::event::Msg;
use crate::mapping::LpMap;
use serde::Serialize;
use std::sync::{Arc, Mutex};

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
    /// Admit queued submissions into `sink` — called by a round's
    /// pseudo-controller right after it published the GVT. Each admitted
    /// event, already journaled, is buffered as a send of thread 0 *inside*
    /// the gate lock, so the admission check, the durability append and the
    /// window publish are one atomic step with respect to the next GVT
    /// fence; the batch lands before this returns. Returns the number
    /// injected; a journal failure parks the error for [`Self::take_error`]
    /// (the run fails rather than silently accepting events a crash would
    /// lose).
    pub fn pump(&self, mut sink: impl SendSink<P>) -> u64 {
        let map = &self.map;
        let mut batcher = SendBatcher::new(map.num_threads as usize, CAP);
        let res = self.gate.pump(|_| true, &mut |ev| {
            let dst = map.thread_of(ev.key.dst).index();
            batcher.buffer(&mut sink, 0, dst, Msg::Event(ev));
        });
        batcher.flush(sink);
        match res {
            Ok(out) => out.injected,
            Err(e) => {
                crate::plane::lock(&self.error).get_or_insert(e);
                0
            }
        }
    }
}
