//! A deterministic two-engine executor for the traced pass.
//!
//! One OS thread steps two `ThreadEngine`s through a real `RtShared` and
//! `SendBatcher` on a fixed lopsided schedule: engine 0 gets four
//! `process_batch` calls per cycle, engine 1 one. Engine 0 therefore runs
//! ahead in virtual time and is rolled back by engine 1's sends — always by
//! the same events, so every count repeats exactly and the committed trace
//! must equal the sequential oracle's. Each call into a layer is wrapped in
//! a span; with the log disabled the same code is the untraced reference.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use pdes_core::{
    EngineConfig, LpMap, Model, Msg, Outbound, SimThreadId, ThreadEngine, ThreadStats, VirtualTime,
};
use thread_rt::{RtShared, SendBatcher};

use crate::spans::SpanLog;

/// `(engine, process_batch calls per cycle)`.
const SCHEDULE: [(usize, usize); 2] = [(0, 4), (1, 1)];

#[derive(Debug, Clone, PartialEq)]
pub struct SteppedOut {
    pub wall_s: f64,
    /// Both engines' counters merged (`committed`, `commit_digest`, …).
    pub stats: ThreadStats,
    /// Messages (events and anti-messages) that crossed between engines.
    pub remote_msgs: u64,
    /// Messages drained from the input queues and delivered (the remote
    /// ones plus the initial events, which are routed through the queues).
    pub delivered_msgs: u64,
    /// Events committed by `fossil_collect` (the rest commit at `finalize`).
    pub fossil_commits: u64,
    pub gvt_rounds: u64,
}

impl SteppedOut {
    /// The deterministic part: everything but the wall time.
    pub fn counts(&self) -> (&ThreadStats, u64, u64, u64, u64) {
        (
            &self.stats,
            self.remote_msgs,
            self.delivered_msgs,
            self.fossil_commits,
            self.gvt_rounds,
        )
    }
}

struct Stepper<'a, M: Model> {
    engines: Vec<ThreadEngine<M>>,
    sh: RtShared<M::Payload>,
    batchers: Vec<SendBatcher<M::Payload>>,
    inbox: Vec<Msg<M::Payload>>,
    outbox: Vec<Outbound<M::Payload>>,
    batch: usize,
    remote_msgs: u64,
    delivered_msgs: u64,
    log: &'a mut SpanLog,
}

impl<M: Model> Stepper<'_, M> {
    /// Drain engine `e`'s input queue into it.
    fn receive(&mut self, e: usize) {
        self.log.open("queue.drain");
        self.inbox.clear();
        let n = self.sh.drain(e, &mut self.inbox);
        self.log.close();
        if n > 0 {
            self.log.open("engine.deliver");
            for m in self.inbox.drain(..) {
                self.engines[e].deliver(m, &mut self.outbox);
            }
            self.log.close();
            self.delivered_msgs += n as u64;
        }
    }

    /// Hand engine `e`'s outbox to its batcher and land it in the queues.
    fn send(&mut self, e: usize) {
        if !self.outbox.is_empty() {
            self.remote_msgs += self.outbox.len() as u64;
            self.log.open("batcher.buffer");
            for (dst, msg) in self.outbox.drain(..) {
                self.batchers[e].buffer(&self.sh, e, dst.index(), msg);
            }
            self.log.close();
        }
        self.log.open("batcher.flush");
        self.batchers[e].flush(&self.sh);
        self.log.close();
    }

    /// One main-loop cycle of engine `e`, as thread-rt's worker runs it.
    fn cycle(&mut self, e: usize) {
        self.outbox.clear();
        self.receive(e);
        self.log.open("engine.process_batch");
        self.engines[e].process_batch(self.batch, &mut self.outbox);
        self.log.close();
        self.send(e);
    }

    /// Deliver until no message is queued or buffered anywhere, so the
    /// engines' pending minima are the whole truth about virtual time.
    fn settle(&mut self) {
        loop {
            for e in 0..self.engines.len() {
                self.outbox.clear();
                self.receive(e);
                self.send(e);
            }
            let queued: usize = self
                .sh
                .queue_len
                .iter()
                .map(|l| l.load(Ordering::Acquire))
                .sum();
            if queued == 0 {
                return;
            }
        }
    }
}

/// Run `model` to `ecfg.end_time` on the stepped executor.
pub fn run_stepped<M: Model>(model: &Arc<M>, ecfg: &EngineConfig, log: &mut SpanLog) -> SteppedOut {
    let n = SCHEDULE.len();
    let map = LpMap::new(model.num_lps(), n, ecfg.mapping);
    let sh: RtShared<M::Payload> = RtShared::new(n, 1, ecfg.end_time);
    let mut engines: Vec<ThreadEngine<M>> = (0..n)
        .map(|t| ThreadEngine::new(Arc::clone(model), map.clone(), SimThreadId(t as u32), ecfg))
        .collect();
    for (t, eng) in engines.iter_mut().enumerate() {
        for (dst, msg) in eng.take_init_events() {
            sh.push_msg(t, dst.index(), msg);
        }
    }
    let mut st = Stepper {
        engines,
        batchers: (0..n).map(|_| SendBatcher::new(n, 64)).collect(),
        sh,
        inbox: Vec::new(),
        outbox: Vec::new(),
        batch: ecfg.batch_size,
        remote_msgs: 0,
        delivered_msgs: 0,
        log,
    };
    let mut fossil_commits = 0;
    let mut gvt_rounds = 0;

    let t0 = Instant::now();
    st.log.open("stepped");
    loop {
        for _ in 0..ecfg.gvt_interval {
            for (e, calls) in SCHEDULE {
                for _ in 0..calls {
                    st.cycle(e);
                }
            }
        }
        st.log.open("gvt");
        st.settle();
        let gvt = st
            .engines
            .iter()
            .map(|e| e.local_min())
            .min()
            .unwrap_or(VirtualTime::INFINITY);
        gvt_rounds += 1;
        for eng in &mut st.engines {
            st.log.open("engine.fossil");
            fossil_commits += eng.fossil_collect(gvt);
            st.log.close();
        }
        st.log.close();
        if gvt >= ecfg.end_time {
            break;
        }
    }
    st.log.open("engine.finalize");
    for eng in &mut st.engines {
        eng.finalize();
    }
    st.log.close();
    st.log.close();
    let wall_s = t0.elapsed().as_secs_f64();

    let mut stats = ThreadStats::default();
    for eng in &st.engines {
        stats.merge(eng.stats());
    }
    SteppedOut {
        wall_s,
        stats,
        remote_msgs: st.remote_msgs,
        delivered_msgs: st.delivered_msgs,
        fossil_commits,
        gvt_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{by_name, self_times};
    use models::{Phold, PholdConfig};
    use pdes_core::run_sequential;

    fn small() -> (Arc<Phold>, EngineConfig) {
        let model = Arc::new(Phold::new(PholdConfig::balanced(2, 4)));
        let ecfg = EngineConfig::default()
            .with_end_time(200.0)
            .with_seed(7)
            .with_batch_size(8)
            .with_gvt_interval(25)
            .with_snapshot_period(8)
            .with_optimism_window(Some(16.0));
        (model, ecfg)
    }

    #[test]
    fn commits_the_oracle_trace_and_rolls_back() {
        let (model, ecfg) = small();
        let oracle = run_sequential(&model, &ecfg, None);
        let out = run_stepped(&model, &ecfg, &mut SpanLog::new(false));
        assert_eq!(out.stats.committed, oracle.committed);
        assert_eq!(out.stats.commit_digest, oracle.commit_digest);
        assert!(
            out.stats.rolled_back > 0,
            "the lopsided schedule must roll back"
        );
        assert!(out.remote_msgs > 0);
        assert_eq!(
            out.stats.processed,
            out.stats.committed + out.stats.rolled_back
        );
    }

    #[test]
    fn counts_repeat_exactly_traced_or_not() {
        let (model, ecfg) = small();
        let plain = run_stepped(&model, &ecfg, &mut SpanLog::new(false));
        let mut log = SpanLog::new(true);
        let traced = run_stepped(&model, &ecfg, &mut log);
        assert_eq!(plain.counts(), traced.counts());

        let spans = log.spans();
        assert_eq!(spans[0].name, "stepped");
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.parent.is_some()));
        let total: u64 = self_times(spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns());
        let rows = by_name(spans);
        assert_eq!(rows["gvt"].count, traced.gvt_rounds);
        assert_eq!(rows["engine.fossil"].count, 2 * traced.gvt_rounds);
    }
}
