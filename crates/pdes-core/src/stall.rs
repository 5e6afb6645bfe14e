//! Stall diagnostics: the structured dump a liveness watchdog emits instead
//! of hanging — who was where, what the GVT round looked like, and which
//! queues still held work.

use crate::faults::FaultCounts;
use serde::Serialize;

/// GVT round state at the moment of a stall.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RoundDump {
    pub open: bool,
    pub id: u64,
    pub participants: usize,
    pub a_done: usize,
    pub b_done: usize,
    pub end_done: usize,
    pub aware_claimed: bool,
}

/// Per-thread state at the moment of a stall.
#[derive(Debug, Clone, Serialize)]
pub struct ThreadDump {
    pub thread: usize,
    /// Last control-loop phase the thread reported.
    pub phase: String,
    /// Round id the thread last folded into (`None` before its first round).
    pub joined_round: Option<u64>,
    pub queue_len: usize,
    pub active: bool,
    pub subscribed: bool,
    /// Wake tokens currently held by the thread's scheduling semaphore.
    pub sem_tokens: u32,
    /// Times the thread gave its context away under the yield tier
    /// (`ThreadDump::new` leaves it 0; the runtime fills it in).
    pub yields: u64,
    /// The same by cause, where the yield tier made them (the VM).
    pub yields_by_cause: Option<crate::sched::YieldCounts>,
    /// Residual send-window minimum (rendered; `"inf"` when clear).
    pub window_min: String,
    /// Queue minimum (rendered; `"inf"` when empty).
    pub queue_min: String,
}

impl ThreadDump {
    /// Thread `thread`'s row of a stall dump: queue length, coverage minima
    /// and the active flag are read off the control plane; phase, last
    /// round, subscription and semaphore state are the runtime's to say.
    pub fn new<P>(
        thread: usize,
        phase: crate::sched::Phase,
        joined_round: Option<u64>,
        plane: &crate::plane::MessagePlane<P>,
        demand: &crate::sched::Demand,
        subscribed: bool,
        sem_tokens: u32,
    ) -> Self {
        let fmt = |t: crate::time::VirtualTime| {
            if t.is_infinite() {
                "inf".to_string()
            } else {
                t.to_string()
            }
        };
        let (window_min, queue_min) = plane.minima(thread);
        ThreadDump {
            thread,
            phase: phase.name().into(),
            joined_round,
            queue_len: plane.len(thread),
            active: demand.is_active(thread),
            subscribed,
            sem_tokens,
            yields: 0,
            yields_by_cause: None,
            window_min: fmt(window_min),
            queue_min: fmt(queue_min),
        }
    }
}

/// The structured diagnostic a liveness watchdog emits instead of hanging:
/// who was where, what the GVT round looked like, and which queues still
/// held work.
#[derive(Debug, Clone, Serialize)]
pub struct StallDump {
    /// Human-readable trigger, e.g. `"no GVT progress for 2.0s"`.
    pub reason: String,
    pub system: String,
    pub gvt: String,
    pub gvt_rounds: u64,
    pub num_active: usize,
    pub terminated: bool,
    pub round: RoundDump,
    pub threads: Vec<ThreadDump>,
    /// Fault injections performed up to the stall.
    pub fault_counts: FaultCounts,
    /// The last GVT round the telemetry subsystem saw complete (per-round
    /// deltas + per-thread LVTs), when tracing was enabled. A stalled run
    /// thus reports *where progress stopped*, not just that it stopped.
    pub last_round: Option<crate::stats::RoundCounters>,
}

impl StallDump {
    /// Snapshot the control plane for a stall post-mortem (`last_round` is
    /// left for the caller's telemetry). Everything the shared state knows
    /// is read here; `thread(i)` supplies what only the runtime can say
    /// about thread `i`: its published phase, the round it last folded into,
    /// its semaphore's wake tokens and how often it yielded.
    pub fn capture<P>(
        reason: &str,
        system: String,
        round: &crate::sched::Round,
        m: &crate::sched::Membership,
        plane: &crate::plane::MessagePlane<P>,
        demand: &crate::sched::Demand,
        mut thread: impl FnMut(usize) -> (crate::sched::Phase, Option<u64>, u32, u64),
    ) -> Self {
        StallDump {
            reason: reason.into(),
            system,
            gvt: round.gvt().to_string(),
            gvt_rounds: round.rounds(),
            num_active: demand.num_active(),
            terminated: round.terminated(),
            round: round.dump(m),
            threads: (0..m.subscribed.len())
                .map(|i| {
                    let (phase, joined, sem_tokens, yields) = thread(i);
                    ThreadDump {
                        yields,
                        ..ThreadDump::new(
                            i,
                            phase,
                            joined,
                            plane,
                            demand,
                            m.subscribed[i],
                            sem_tokens,
                        )
                    }
                })
                .collect(),
            fault_counts: plane.faults.counts(),
            last_round: None,
        }
    }
}

impl std::fmt::Display for StallDump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "=== liveness watchdog: {} ===", self.reason)?;
        writeln!(
            f,
            "system={} gvt={} rounds={} active={} terminated={}",
            self.system, self.gvt, self.gvt_rounds, self.num_active, self.terminated
        )?;
        writeln!(
            f,
            "round: open={} id={} participants={} a={} b={} end={} aware={}",
            self.round.open,
            self.round.id,
            self.round.participants,
            self.round.a_done,
            self.round.b_done,
            self.round.end_done,
            self.round.aware_claimed
        )?;
        for t in &self.threads {
            writeln!(
                f,
                "  t{}: phase={} joined={} qlen={} active={} subscribed={} sem={} yields={}{} \
                 window={} qmin={}",
                t.thread,
                t.phase,
                t.joined_round.map_or_else(|| "-".into(), |r| r.to_string()),
                t.queue_len,
                t.active,
                t.subscribed,
                t.sem_tokens,
                t.yields,
                t.yields_by_cause
                    .map_or_else(String::new, |by| format!(" ({by})")),
                t.window_min,
                t.queue_min
            )?;
        }
        if let Some(r) = &self.last_round {
            let lvts: Vec<String> = r
                .lvt_ticks
                .iter()
                .map(|&t| {
                    if t == u64::MAX {
                        "inf".into()
                    } else {
                        t.to_string()
                    }
                })
                .collect();
            writeln!(
                f,
                "last completed round: id={} gvt_ticks={} committed+={} processed+={} \
                 rolled_back+={} active={} lvt=[{}]",
                r.round,
                r.gvt_ticks,
                r.committed_delta,
                r.processed_delta,
                r.rolled_back_delta,
                r.active_threads,
                lvts.join(",")
            )?;
        }
        write!(
            f,
            "faults: delayed={} reordered={} stragglers={} lost={} spurious={} bp_retries={} kills={}",
            self.fault_counts.delayed,
            self.fault_counts.reordered,
            self.fault_counts.stragglers,
            self.fault_counts.lost_wakeups,
            self.fault_counts.spurious_wakeups,
            self.fault_counts.backpressure_retries,
            self.fault_counts.kills
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_dump_renders_every_section() {
        let dump = StallDump {
            reason: "no GVT progress for 2.0s".into(),
            system: "GG-PDES-Async".into(),
            gvt: "1.25".into(),
            gvt_rounds: 17,
            num_active: 3,
            terminated: false,
            round: RoundDump {
                open: true,
                id: 18,
                participants: 4,
                a_done: 3,
                b_done: 0,
                end_done: 0,
                aware_claimed: false,
            },
            threads: vec![ThreadDump {
                thread: 2,
                phase: "parked".into(),
                joined_round: Some(17),
                queue_len: 5,
                active: true,
                subscribed: true,
                sem_tokens: 0,
                yields: 12,
                yields_by_cause: None,
                window_min: "inf".into(),
                queue_min: "1.5".into(),
            }],
            fault_counts: FaultCounts {
                lost_wakeups: 1,
                ..FaultCounts::default()
            },
            last_round: Some(crate::stats::RoundCounters {
                round: 17,
                gvt_ticks: 1250,
                committed_delta: 40,
                active_threads: 3,
                lvt_ticks: vec![1300, u64::MAX],
                ..Default::default()
            }),
        };
        let s = dump.to_string();
        assert!(s.contains("liveness watchdog"));
        assert!(s.contains("t2: phase=parked joined=17 qlen=5"));
        assert!(s.contains("sem=0 yields=12 window=inf"));
        assert!(s.contains("lost=1"));
        assert!(s.contains("participants=4 a=3"));
        assert!(s.contains("last completed round: id=17 gvt_ticks=1250"));
        assert!(s.contains("lvt=[1300,inf]"));
    }
}
