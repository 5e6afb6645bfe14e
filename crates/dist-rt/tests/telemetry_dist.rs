//! Telemetry across shards: every shard's trace and round stream must reach
//! the coordinator, stamped with its shard id and merged onto one clock.

use dist_rt::{run_loopback, DistConfig, Transport};
use models::{LocalityPattern, Phold, PholdConfig};
use pdes_core::EngineConfig;
use std::sync::Arc;
use telemetry::{EventKind, TelemetryConfig};

fn engine_cfg() -> EngineConfig {
    EngineConfig::default()
        .with_end_time(4.0)
        .with_seed(909)
        .with_gvt_interval(16)
        .with_zero_counter_threshold(100)
}

fn dcfg(shards: usize, traced: bool) -> DistConfig {
    DistConfig {
        shards,
        transport: Transport::Mem,
        telemetry: if traced {
            TelemetryConfig::on()
        } else {
            TelemetryConfig::default()
        },
        ..DistConfig::default()
    }
}

#[test]
fn dist_telemetry_is_off_by_default() {
    let shards = 2;
    let model = Arc::new(Phold::new(PholdConfig::balanced(shards, 4)));
    let r = run_loopback(Arc::clone(&model), &engine_cfg(), &dcfg(shards, false))
        .expect("loopback run");
    assert!(r.telemetry.is_none());
    assert!(r.metrics.last_round.is_none());
}

#[test]
fn coordinator_merges_every_shards_trace_and_rounds() {
    let shards = 3;
    let model = Arc::new(Phold::new(PholdConfig::balanced(shards, 4)));
    let r =
        run_loopback(Arc::clone(&model), &engine_cfg(), &dcfg(shards, true)).expect("loopback run");
    let data = r.telemetry.expect("merged telemetry");

    // One trace lane per shard, each stamped with its shard id.
    let mut shard_ids: Vec<u64> = data.threads.iter().map(|t| t.shard).collect();
    shard_ids.sort_unstable();
    shard_ids.dedup();
    assert_eq!(
        shard_ids,
        vec![0, 1, 2],
        "missing shard lanes: {shard_ids:?}"
    );
    for t in &data.threads {
        assert_eq!(
            t.dropped + t.records.len() as u64,
            t.emitted,
            "shard {} ring accounting leaked",
            t.shard
        );
    }

    // Every shard's round stream is present and per-shard GVT is monotone.
    for shard in 0..shards as u64 {
        let gvts: Vec<u64> = data
            .rounds
            .iter()
            .filter(|r| r.shard == shard)
            .map(|r| r.gvt_ticks)
            .collect();
        assert!(!gvts.is_empty(), "shard {shard} recorded no rounds");
        for w in gvts.windows(2) {
            assert!(w[1] >= w[0], "shard {shard} GVT regressed in snapshots");
        }
    }

    // The merged set satisfies the exporter + the trace_check phase set.
    let json = telemetry::chrome_trace_json(&data);
    serde_json::parse(&json).expect("valid Chrome trace JSON");
    let mut names: Vec<&str> = data
        .threads
        .iter()
        .flat_map(|t| t.records.iter())
        .map(|r| r.kind.name())
        .collect();
    names.sort_unstable();
    names.dedup();
    for required in ["gvt-a", "gvt-b", "gvt-aware", "gvt-end", "gvt-send-a"] {
        assert!(names.contains(&required), "{required} missing: {names:?}");
    }

    // And the newest snapshot feeds the coordinator's metrics.
    assert!(r.metrics.last_round.is_some());
}

/// De-scheduling must be readable off the trace: a park episode ended by an
/// inbound remote event (the common case) closes its `Park` span like one
/// ended by local demand, an ingest admission or the end of the run.
#[test]
fn every_park_episode_reaches_the_trace() {
    let (shards, end) = (4, 200.0);
    let model = Arc::new(Phold::new(PholdConfig::imbalanced(
        shards,
        4,
        4,
        end,
        LocalityPattern::Linear,
    )));
    let ecfg = EngineConfig::default()
        .with_end_time(end)
        .with_seed(909)
        .with_gvt_interval(16);
    let r = run_loopback(model, &ecfg, &dcfg(shards, true)).expect("loopback run");
    let data = r.telemetry.expect("merged telemetry");
    assert_eq!(data.total_dropped(), 0, "ring too small for this run");
    let count = |shard: usize, kind: EventKind| {
        let lanes = data.threads.iter().filter(|t| t.shard == shard as u64);
        lanes
            .flat_map(|t| &t.records)
            .filter(|r| r.kind == kind)
            .count()
    };
    // A shard's `Park` spans are its park episodes: `max_descheduled` is the
    // largest per-shard episode count the shards reported in `Done`.
    let parks: Vec<usize> = (0..shards).map(|s| count(s, EventKind::Park)).collect();
    for (s, &p) in parks.iter().enumerate() {
        assert_eq!(p, count(s, EventKind::Unpark), "shard {s}: {parks:?}");
    }
    // `arg` is the publish round that parked the shard (the lane already
    // says which shard): the park begins inside that round's GvtAware span.
    for lane in &data.threads {
        let parked = |r: &&telemetry::TraceRecord| r.kind == EventKind::Park;
        for p in lane.records.iter().filter(parked) {
            let publish = lane.records.iter().find(|r| {
                r.kind == EventKind::GvtAware && (r.ts_ns..=r.ts_ns + r.dur_ns).contains(&p.ts_ns)
            });
            let publish = publish.unwrap_or_else(|| panic!("shard {}: {p:?}", lane.shard));
            assert_eq!(p.arg, publish.arg, "shard {}: {p:?}", lane.shard);
            let wake = (EventKind::Unpark, p.ts_ns + p.dur_ns, p.arg);
            let woke = |r: &telemetry::TraceRecord| (r.kind, r.ts_ns, r.arg) == wake;
            assert!(lane.records.iter().any(woke), "shard {}: {p:?}", lane.shard);
        }
    }
    let most = parks.iter().copied().max().unwrap_or(0);
    assert!(most >= 1, "the imbalance must park a shard");
    assert_eq!(most, r.metrics.max_descheduled, "per shard: {parks:?}");
}

#[test]
fn wire_round_trips_a_shard_telemetry_frame() {
    // The Frame::Telemetry payload must survive the wire codec unchanged —
    // this is the path every worker shard's trace takes to the coordinator.
    use telemetry::{EventKind, TelemetryData, ThreadTrace, TraceRecord};
    let data = TelemetryData {
        threads: vec![ThreadTrace {
            tid: 0,
            shard: 0,
            emitted: 3,
            dropped: 1,
            records: vec![
                TraceRecord {
                    kind: EventKind::GvtA,
                    ts_ns: 10,
                    dur_ns: 4,
                    arg: 1,
                },
                TraceRecord {
                    kind: EventKind::LinkRetransmit,
                    ts_ns: 20,
                    dur_ns: 0,
                    arg: (2u64 << 32) | 1,
                },
            ],
        }],
        rounds: vec![pdes_core::RoundCounters {
            round: 1,
            gvt_ticks: 500,
            ts_ns: 30,
            lvt_ticks: vec![600],
            queue_depths: vec![2],
            ..Default::default()
        }],
    };
    let frame: dist_rt::proto::Frame<u32, u8> = dist_rt::proto::Frame::Telemetry {
        shard: 1,
        sent_at_ns: 99,
        data,
    };
    let bytes = dist_rt::wire::to_bytes(&frame);
    let back: dist_rt::proto::Frame<u32, u8> = dist_rt::wire::from_bytes(&bytes).expect("decode");
    assert_eq!(format!("{frame:?}"), format!("{back:?}"));
}
