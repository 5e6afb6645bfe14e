//! # ggpdes-models — simulation applications for the GG-PDES study
//!
//! Three models drive the paper's evaluation (§2.3):
//!
//! * [`phold::Phold`] — the classic synthetic benchmark, in a balanced
//!   variant and `1-k` imbalanced variants with shifting activity windows;
//! * [`epidemics::Epidemics`] — a location-aware SEIR household model with
//!   rotating lock-down regions;
//! * [`traffic::Traffic`] — a torus grid of intersections with inverse-power
//!   density around a city centre and Burr-distributed travel times.
//!
//! All models implement [`pdes_core::Model`], so they run unchanged on the
//! sequential oracle, the virtual-machine runtime, and the real-thread
//! runtime. [`locality::ActivitySchedule`] centralizes the shifting-window
//! logic (including the *linear* vs *non-linear* thread-grouping patterns of
//! the affinity study, Fig. 7).

pub mod burr;
pub mod epidemics;
pub mod locality;
pub mod phold;
pub mod traffic;

pub use burr::Burr;
pub use epidemics::{EpiEvent, Epidemics, EpidemicsConfig, Household, Stage};
pub use locality::{ActivitySchedule, LocalityPattern};
pub use phold::{Phold, PholdConfig};
pub use traffic::{Dir, Intersection, Traffic, TrafficConfig, TrafficEvent};

#[cfg(test)]
mod tests {
    use super::*;
    use pdes_core::lp::LpCore;
    use pdes_core::pending::EventQueue;

    /// Per pending event, each shipped payload takes at most 48 bytes in
    /// its thread's event queue and, once processed, at most 64 in its
    /// history store: the slab's free-slot tag shares the room of the
    /// queue's live/dead tag, so sharing one slab grew neither slot.
    #[test]
    fn queue_and_history_slots_fit_every_shipped_payload() {
        let slots = [
            (
                "phold",
                EventQueue::<()>::SLOT_BYTES,
                LpCore::<Phold>::HISTORY_SLOT_BYTES,
            ),
            (
                "traffic",
                EventQueue::<TrafficEvent>::SLOT_BYTES,
                LpCore::<Traffic>::HISTORY_SLOT_BYTES,
            ),
            (
                "epidemics",
                EventQueue::<EpiEvent>::SLOT_BYTES,
                LpCore::<Epidemics>::HISTORY_SLOT_BYTES,
            ),
        ];
        for (model, queue, history) in slots {
            assert!(queue <= 48, "{model}: a queue slot of {queue} B");
            assert!(history <= 64, "{model}: a history slot of {history} B");
        }
    }
}
