//! Scripted ingest on the deterministic virtual machine: submissions
//! "arrive" at scripted GVT rounds, travel the same admission/pump path as
//! the real runtimes, and the committed trace equals the merged-stream
//! sequential oracle — bit-for-bit reproducibly across repeated runs.

use std::sync::Arc;

use models::{Phold, PholdConfig};
use pdes_core::{
    run_sequential_with, EngineConfig, IngestGate, IngestRequest, LpId, Model, VirtualTime,
};
use sim_rt::{run_sim_attempt, RunConfig, SystemConfig};

fn model() -> Arc<Phold> {
    Arc::new(Phold::new(PholdConfig::balanced(8, 4)))
}

fn ecfg(end: f64) -> EngineConfig {
    EngineConfig::default()
        .with_end_time(end)
        .with_seed(42)
        .with_gvt_interval(25)
        .with_zero_counter_threshold(250)
}

/// Arrivals spread over the first rounds; timestamps above the likely
/// floor at arrival so most are admitted, some deliberately low so the
/// rejection path runs too.
fn script(num_lps: u32, end: f64) -> Vec<(u64, IngestRequest<()>)> {
    (0..24u64)
        .map(|id| {
            let round = id % 6;
            let at = if id % 7 == 0 {
                // Candidate rejections: may sit below the floor by the
                // time their round arrives.
                VirtualTime::from_f64(0.05)
            } else {
                VirtualTime::from_f64(0.4 + (id as f64 * 0.37) % (end * 0.7))
            };
            (
                round,
                IngestRequest {
                    source: 1,
                    id,
                    at,
                    dst: LpId((id % num_lps as u64) as u32),
                    payload: (),
                },
            )
        })
        .collect()
}

#[test]
fn scripted_ingest_on_the_vm_matches_merged_oracle_deterministically() {
    let model = model();
    let ecfg = ecfg(8.0);
    let rc = RunConfig::new(8, ecfg.clone(), SystemConfig::ALL_SIX[5])
        .with_machine(machine::MachineConfig::small(4, 2));

    let mut digests = Vec::new();
    for _ in 0..2 {
        let gate: Arc<IngestGate<()>> = Arc::new(IngestGate::new(0));
        let arrivals = script(model.num_lps() as u32, 8.0);
        let ingest = Some((Arc::clone(&gate), arrivals));
        let r = run_sim_attempt(&model, &rc, None, None, ingest).outcome;
        assert!(r.completed, "VM run finished");
        assert_eq!(r.invariants.gvt_regressions, 0);
        assert!(gate.accepted_count() > 0, "some arrivals were admitted");

        let accepted = gate.accepted_events();
        let oracle = run_sequential_with(&model, &ecfg, None, &accepted, None);
        assert_eq!(r.metrics.committed, oracle.committed, "committed");
        assert_eq!(r.metrics.commit_digest, oracle.commit_digest, "digest");
        assert_eq!(r.digests, oracle.state_digests, "states");
        digests.push((r.metrics.commit_digest, gate.stats()));
    }
    // The VM is deterministic: same script, same admissions, same trace.
    assert_eq!(digests[0], digests[1], "VM ingest must be reproducible");
}

#[test]
fn vm_admission_floor_rejects_stale_arrivals_across_systems() {
    let model = model();
    let ecfg = ecfg(6.0);
    // Arrivals stamped one tick after genesis but scheduled for rounds
    // where GVT has already moved: the floor must reject them. (A round-0
    // arrival would still be admissible — the floor is genesis then —
    // which is why the script starts at round 2.)
    let stale: Vec<(u64, IngestRequest<()>)> = (0..6u64)
        .map(|id| {
            (
                2 + id % 3,
                IngestRequest {
                    source: 2,
                    id,
                    at: VirtualTime::from_ticks(1),
                    dst: LpId(0),
                    payload: (),
                },
            )
        })
        .collect();

    for sys in [SystemConfig::ALL_SIX[0], SystemConfig::ALL_SIX[5]] {
        let rc =
            RunConfig::new(8, ecfg.clone(), sys).with_machine(machine::MachineConfig::small(4, 2));
        let gate: Arc<IngestGate<()>> = Arc::new(IngestGate::new(0));
        let ingest = Some((Arc::clone(&gate), stale.clone()));
        let r = run_sim_attempt(&model, &rc, None, None, ingest).outcome;
        assert!(r.completed);
        assert!(
            gate.stats().rejected > 0,
            "{}: the moved floor must reject stale arrivals (stats {:?})",
            sys.name(),
            gate.stats()
        );
        // Whatever was (not) admitted, the trace equals the merged oracle.
        let accepted = gate.accepted_events();
        let oracle = run_sequential_with(&model, &ecfg, None, &accepted, None);
        assert_eq!(
            r.metrics.commit_digest,
            oracle.commit_digest,
            "{}",
            sys.name()
        );
        assert_eq!(r.digests, oracle.state_digests, "{}", sys.name());
    }
}
