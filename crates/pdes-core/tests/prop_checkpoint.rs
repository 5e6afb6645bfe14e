//! Property-based serde round-trips for the recovery artifacts: arbitrary
//! [`Checkpoint`]s and [`FaultPlan`]s survive a JSON round trip bit-for-bit,
//! and *any* strict prefix of a checkpoint file parses to a clear
//! [`CheckpointError::Corrupt`] — never a panic, never a silently wrong cut.

use pdes_core::faults::{
    BackpressureFault, DelayFault, FaultCursor, FaultKind, ReorderFault, StragglerFault,
    WakeupFault,
};
use pdes_core::{
    Checkpoint, CheckpointError, DetRng, Event, EventKey, EventUid, FaultPlan, LpCheckpoint, LpId,
    LpMap, MapKind, VirtualTime,
};
use proptest::prelude::*;

fn arb_rng() -> impl Strategy<Value = DetRng> {
    (any::<u64>(), 0usize..32).prop_map(|(seed, advance)| {
        let mut rng = DetRng::seed_from_u64(seed);
        for _ in 0..advance {
            rng.next_f64(); // move the stream position off the seed point
        }
        rng
    })
}

fn arb_lp_ckpt() -> impl Strategy<Value = LpCheckpoint<u64>> {
    (
        (0u32..64, any::<u64>(), arb_rng()),
        (any::<u64>(), 0u64..10_000, any::<u64>(), 0u64..1_000_000),
    )
        .prop_map(
            |((lp, state, rng), (send_seq, committed, commit_digest, lvt))| LpCheckpoint {
                lp: LpId(lp),
                state,
                rng,
                send_seq,
                committed,
                commit_digest,
                lvt: VirtualTime::from_ticks(lvt),
            },
        )
}

fn arb_event() -> impl Strategy<Value = Event<u32>> {
    (0u64..1000, 0u32..64, 0u32..64, 0u64..256, any::<u32>()).prop_map(
        |(t, dst, src, seq, payload)| Event {
            key: EventKey {
                recv_time: VirtualTime::from_ticks(t + 1),
                dst: LpId(dst),
                uid: EventUid::new(LpId(src), seq),
            },
            send_time: VirtualTime::from_ticks(t),
            payload,
        },
    )
}

fn arb_cursor() -> impl Strategy<Value = FaultCursor> {
    (
        prop::collection::vec(any::<u64>(), 0..12),
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(any::<bool>(), 0..6),
    )
        .prop_map(|(seq, storms_left, lost_left, kills_fired)| FaultCursor {
            seq,
            storms_left,
            lost_left,
            kills_fired,
        })
}

fn arb_checkpoint() -> impl Strategy<Value = Checkpoint<u64, u32>> {
    (
        0u64..1_000_000,
        any::<u64>(),
        prop::collection::vec(arb_lp_ckpt(), 1..12),
        prop::collection::vec(arb_event(), 0..16),
        (1usize..64, 1usize..8),
        prop::option::of(arb_cursor()),
    )
        .prop_map(|(gvt, gvt_rounds, lps, events, (nl, nt), cursor)| {
            let (nl, nt) = (nl.max(nt), nt);
            Checkpoint {
                gvt: VirtualTime::from_ticks(gvt),
                gvt_rounds,
                lps,
                events,
                map: LpMap::new(nl, nt, MapKind::RoundRobin),
                cursor,
            }
        })
}

fn arb_kills() -> impl Strategy<Value = Vec<FaultKind>> {
    prop::collection::vec(
        (0usize..16, 0u64..10_000)
            .prop_map(|(thread, at_cycle)| FaultKind::WorkerKill { thread, at_cycle }),
        0..6,
    )
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (
            any::<u64>(),
            prop::option::of((0.0f64..1.0).prop_map(|prob| DelayFault { prob })),
            prop::option::of((0.0f64..1.0).prop_map(|prob| ReorderFault { prob })),
        ),
        (
            prop::option::of(
                (0.0f64..1.0, 0u64..100)
                    .prop_map(|(prob, max_storms)| StragglerFault { prob, max_storms }),
            ),
            prop::option::of((0.0f64..0.5, 0.0f64..0.5, 0u64..100).prop_map(
                |(lose_prob, spurious_prob, max_lost)| WakeupFault {
                    lose_prob,
                    spurious_prob,
                    max_lost,
                },
            )),
            prop::option::of(
                (1usize..1024, 0u32..16).prop_map(|(capacity, max_retries)| BackpressureFault {
                    capacity,
                    max_retries,
                }),
            ),
            prop::option::of(arb_kills()),
        ),
    )
        .prop_map(
            |((seed, delay, reorder), (straggler, wakeup, backpressure, kills))| FaultPlan {
                seed,
                delay,
                reorder,
                straggler,
                wakeup,
                backpressure,
                kills,
            },
        )
}

proptest! {
    /// Any checkpoint survives a JSON round trip exactly, including the
    /// RNG stream positions and the fault cursor.
    #[test]
    fn checkpoint_json_round_trips(ck in arb_checkpoint()) {
        let back = Checkpoint::<u64, u32>::from_json(&ck.to_json())
            .expect("serialized checkpoint must parse");
        prop_assert_eq!(&back, &ck);
        prop_assert_eq!(back.total_committed(), ck.total_committed());
        prop_assert_eq!(back.commit_digest(), ck.commit_digest());
    }

    /// `write_atomic` + `read` is a lossless disk round trip.
    #[test]
    fn checkpoint_disk_round_trips(ck in arb_checkpoint(), tag in 0u64..1024) {
        let dir = std::env::temp_dir().join("ggpdes-ckpt-prop");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("prop-{tag}.ckpt"));
        ck.write_atomic(&path).expect("write");
        let back = Checkpoint::<u64, u32>::read(&path).expect("read");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back, ck);
    }

    /// Any *strict* prefix of a checkpoint file — a torn or truncated write
    /// — is rejected as `Corrupt` with a non-empty detail, never a panic
    /// and never a silently shortened checkpoint.
    #[test]
    fn truncated_checkpoint_is_corrupt(ck in arb_checkpoint(), frac in 0.0f64..1.0) {
        let full = ck.to_json();
        let cut = ((full.len() as f64 * frac) as usize).min(full.len() - 1);
        // Cut on a char boundary (the JSON here is ASCII, but stay safe).
        let mut cut = cut;
        while !full.is_char_boundary(cut) {
            cut -= 1;
        }
        let dir = std::env::temp_dir().join("ggpdes-ckpt-prop");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trunc-{}.ckpt", full.len()));
        std::fs::write(&path, &full[..cut]).unwrap();
        let got = Checkpoint::<u64, u32>::read(&path);
        std::fs::remove_file(&path).ok();
        match got {
            Err(CheckpointError::Corrupt { detail, .. }) => prop_assert!(!detail.is_empty()),
            other => prop_assert!(false, "expected Corrupt, got {:?}", other.map(|c| c.gvt)),
        }
    }

    /// Any fault plan — probabilistic chaos plus scripted kills — survives
    /// a JSON round trip exactly, so `--chaos-plan` files and the fault
    /// cursor embedded in checkpoints are faithful.
    #[test]
    fn fault_plan_json_round_trips(plan in arb_plan()) {
        let text = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&text).expect("parse");
        prop_assert_eq!(back, plan);
    }

    /// The chaos preset itself round-trips (the form users generate with
    /// `--chaos-seed` and then tweak by hand).
    #[test]
    fn chaos_preset_round_trips(seed in any::<u64>(), thread in 0usize..8, cycle in 1u64..500) {
        let plan = FaultPlan::chaos(seed).with_kill(thread, cycle);
        let text = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&text).expect("parse");
        prop_assert_eq!(back, plan);
    }
}
