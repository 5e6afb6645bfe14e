//! The per-layer pass: timed rounds of every runtime with the counters they
//! return, one traced stepped run, and the isolated layer timings. It never
//! feeds the end-to-end metrics — those are taken in `timed`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dist_rt::{DistConfig, SteppedCluster, Transport};
use metrics::RunMetrics;
use pdes_core::{EngineConfig, Model};
use serde::Value;

use crate::layers;
use crate::report::{obj, string, Metric};
use crate::runtimes::{Horizon, Rt, RunOut};
use crate::spans::{by_name, LayerTime, SpanLog};
use crate::stats::summarize;
use crate::stepped::run_stepped;
use crate::timed::{Session, Setup};
use crate::workloads::PARTS;

/// The metrics of the pass, in the order they are printed.
struct Ledger(Vec<Metric>);

impl Ledger {
    fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric::exact(name, unit, value));
    }

    /// A metric with nothing behind it — every run that feeds it failed —
    /// is left out. The failures are already counted and fail the run; a
    /// placeholder 0 would read as the best value a cost can have.
    fn put_some(&mut self, name: &'static str, unit: &'static str, value: Option<f64>) {
        if let Some(value) = value {
            self.put(name, unit, value);
        }
    }
}

impl Ledger {
    /// A timing: the median of `f` over `runs`, shown with its spread.
    fn timing(
        &mut self,
        name: &'static str,
        unit: &'static str,
        runs: &[RunOut],
        f: impl Fn(&RunOut) -> f64,
    ) {
        let samples: Vec<f64> = runs.iter().map(f).collect();
        self.0.extend(Metric::timing(name, unit, &samples));
    }
}

/// Median of `f` over `runs`; `None` when no run succeeded.
fn med(runs: &[RunOut], f: impl Fn(&RunOut) -> f64) -> Option<f64> {
    summarize(&runs.iter().map(f).collect::<Vec<_>>()).map(|s| s.median)
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    Some(num? / den?)
}

fn ns_per_event(o: &RunOut) -> f64 {
    o.wall_s * 1e9 / o.metrics.committed.max(1) as f64
}

fn per_kevent(count: u64, m: &RunMetrics) -> f64 {
    1000.0 * count as f64 / m.committed.max(1) as f64
}

fn efficiency(m: &RunMetrics) -> f64 {
    m.committed as f64 / m.processed.max(1) as f64
}

/// Everything about a VM run that must repeat exactly.
fn vm_counts(m: &RunMetrics) -> (u64, u64, u64, u64, u64, usize, u64) {
    (
        m.committed,
        m.processed,
        m.rolled_back,
        m.rollbacks,
        m.gvt_rounds,
        m.max_descheduled,
        m.wall_secs.to_bits(),
    )
}

/// The runtimes of a timed round, in canonical order.
const ROUND: [Rt; 7] = [
    Rt::Seq,
    Rt::Thread,
    Rt::ThreadTraced,
    Rt::Cons,
    Rt::DistMem,
    Rt::DistTcp,
    Rt::Vm,
];

/// Host wall time per committed event of every runtime, and the counters
/// of their own `RunMetrics`, from `rounds` rounds of [`ROUND`] (tracing
/// off, except on `thread_traced`). The order rotates from round to round
/// so no runtime always follows the same neighbour; the VM's counts must
/// repeat exactly. Returns the run order and run lengths for `--out`.
fn runtime_rounds<M: Model>(
    s: &mut Session<M>,
    st: Option<&Setup>,
    rounds: usize,
    l: &mut Ledger,
) -> Vec<(&'static str, Value)> {
    let mut runs: HashMap<Rt, Vec<RunOut>> = HashMap::new();
    let mut order_log = Vec::new();
    for i in 0..rounds {
        let mut order = ROUND;
        order.rotate_left(i % ROUND.len());
        order_log.push(string(order.map(Rt::name).join(",")));
        for rt in order {
            if let Some(out) = s.run(rt) {
                runs.entry(rt).or_default().push(out);
            }
        }
    }
    let of = |rt: Rt| runs.get(&rt).map_or(&[][..], Vec::as_slice);
    let (seq, plain, traced) = (of(Rt::Seq), of(Rt::Thread), of(Rt::ThreadTraced));
    let (cons, mem, tcp, vm) = (of(Rt::Cons), of(Rt::DistMem), of(Rt::DistTcp), of(Rt::Vm));
    if let Some(pair) = vm
        .windows(2)
        .find(|p| vm_counts(&p[0].metrics) != vm_counts(&p[1].metrics))
    {
        s.mismatch(format!(
            "vm counts did not repeat: {:?} then {:?}",
            vm_counts(&pair[0].metrics),
            vm_counts(&pair[1].metrics)
        ));
    }

    l.timing("seq.ns_per_event", "ns", seq, ns_per_event);
    l.timing("thread.ns_per_event", "ns", plain, ns_per_event);
    l.timing("thread.cpu_ns_per_event", "ns", plain, |o| {
        o.cpu_s * 1e9 / o.metrics.committed.max(1) as f64
    });
    l.put_some(
        "thread.efficiency",
        "ratio",
        med(plain, |o| efficiency(&o.metrics)),
    );
    l.put_some(
        "thread.rollbacks_per_kevent",
        "1/kevent",
        med(plain, |o| per_kevent(o.metrics.rollbacks, &o.metrics)),
    );
    l.put_some(
        "thread.gvt_rounds_per_kevent",
        "1/kevent",
        med(plain, |o| per_kevent(o.metrics.gvt_rounds, &o.metrics)),
    );
    l.put_some(
        "thread.gvt_us_per_round",
        "us",
        med(plain, |o| 1e6 * o.metrics.gvt_secs_per_round()),
    );
    l.put_some(
        "thread.gvt_cpu_share",
        "ratio",
        med(plain, |o| o.metrics.gvt_cpu_secs / o.cpu_s.max(1e-9)),
    );
    l.put_some(
        "thread.max_descheduled",
        "count",
        med(plain, |o| o.metrics.max_descheduled as f64),
    );
    l.put_some(
        "thread.cpu_per_wall",
        "ratio",
        med(plain, |o| o.cpu_s / o.wall_s),
    );
    l.put_some(
        "telemetry.on_over_off",
        "ratio",
        ratio(med(traced, ns_per_event), med(plain, ns_per_event)),
    );

    l.timing("cons.ns_per_event", "ns", cons, ns_per_event);
    l.put_some(
        "cons.null_per_event",
        "1/event",
        med(cons, |o| {
            o.metrics.null_messages_sent as f64 / o.metrics.committed.max(1) as f64
        }),
    );
    l.put_some(
        "cons.lbts_rounds_per_kevent",
        "1/kevent",
        med(cons, |o| per_kevent(o.metrics.lbts_rounds, &o.metrics)),
    );
    l.put_some(
        "cons.max_descheduled",
        "count",
        med(cons, |o| o.metrics.max_descheduled as f64),
    );

    l.put_some(
        "dist.efficiency",
        "ratio",
        med(mem, |o| efficiency(&o.metrics)),
    );
    l.put_some(
        "dist.gvt_rounds_per_kevent",
        "1/kevent",
        med(mem, |o| per_kevent(o.metrics.gvt_rounds, &o.metrics)),
    );
    l.timing("dist_mem.ns_per_event", "ns", mem, ns_per_event);
    l.timing("dist_tcp.ns_per_event", "ns", tcp, ns_per_event);
    l.put_some(
        "dist.tcp_over_mem",
        "ratio",
        ratio(med(tcp, ns_per_event), med(mem, ns_per_event)),
    );

    l.timing("vm.ns_per_event", "ns", vm, ns_per_event);
    let v = vm.first().map(|o| &o.metrics);
    l.put_some("vm.efficiency", "ratio", v.map(efficiency));
    l.put_some("vm.gvt_rounds", "count", v.map(|v| v.gvt_rounds as f64));
    l.put_some(
        "vm.max_descheduled",
        "count",
        v.map(|v| v.max_descheduled as f64),
    );
    l.put_some(
        "vm.virtual_secs_baseline",
        "s_virtual",
        st.map(|st| st.vm_baseline_virtual_s),
    );

    // How long single runs lasted: the sizing rule is that none is shorter
    // than half a second.
    let walls = ROUND
        .iter()
        .filter_map(|rt| {
            let walls: Vec<f64> = of(*rt).iter().map(|o| o.wall_s).collect();
            let median = summarize(&walls)?.median;
            let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
            Some((
                rt.name(),
                obj(vec![
                    ("median", Value::Float(median)),
                    ("min", Value::Float(min)),
                ]),
            ))
        })
        .collect();
    vec![
        ("rounds", Value::UInt(rounds as u64)),
        ("run_order", Value::Array(order_log)),
        ("run_wall_s", obj(walls)),
    ]
}

/// The stepped executor, untraced then traced: both must commit the oracle
/// trace and agree on every count. Returns the traced run's spans and their
/// per-name table.
fn stepped_ledger<M: Model>(
    s: &mut Session<M>,
    l: &mut Ledger,
) -> (SpanLog, BTreeMap<&'static str, LayerTime>) {
    let (model, ecfg) = (Arc::clone(&s.model), s.engine(Horizon::Main));
    let Some((untraced, traced, log)) = s.guard("stepped", move || {
        let untraced = run_stepped(&model, &ecfg, &mut SpanLog::new(false));
        let mut log = SpanLog::new(true);
        let traced = run_stepped(&model, &ecfg, &mut log);
        Ok((untraced, traced, log))
    }) else {
        return (SpanLog::new(false), BTreeMap::new());
    };
    for run in [&untraced, &traced] {
        let got = (run.stats.committed, run.stats.commit_digest);
        let want = s.oracle(Horizon::Main);
        s.count(if want == Some(got) {
            Ok(())
        } else {
            Err(format!(
                "stepped executor committed {got:?}, oracle {want:?}"
            ))
        });
    }
    if untraced.counts() != traced.counts() {
        s.mismatch("stepped counts differ between the untraced and the traced run".into());
    }

    let rows = by_name(log.spans());
    let row = |name: &str| rows.get(name).copied().unwrap_or_default();
    let wall_ns = row("stepped").total_ns.max(1) as f64;
    let k = &traced.stats;
    l.put(
        "engine.process_batch.ns_per_event",
        "ns",
        row("engine.process_batch").self_ns as f64 / k.processed.max(1) as f64,
    );
    l.put(
        "engine.deliver.ns_per_msg",
        "ns",
        row("engine.deliver").self_ns as f64 / traced.delivered_msgs.max(1) as f64,
    );
    l.put(
        "engine.fossil.ns_per_commit",
        "ns",
        row("engine.fossil").self_ns as f64 / traced.fossil_commits.max(1) as f64,
    );
    l.put("engine.processed", "count", k.processed as f64);
    l.put("engine.rolled_back", "count", k.rolled_back as f64);
    l.put("engine.rollbacks", "count", k.rollbacks as f64);
    l.put("engine.antis_sent", "count", k.antis_sent as f64);
    l.put("engine.efficiency", "ratio", k.efficiency());
    l.put(
        "engine.remote_share",
        "ratio",
        traced.remote_msgs as f64 / (k.events_sent + k.antis_sent).max(1) as f64,
    );
    l.put(
        "stepped.ns_per_event",
        "ns",
        untraced.wall_s * 1e9 / untraced.stats.committed.max(1) as f64,
    );
    l.put(
        "stepped.residual_share",
        "ratio",
        row("stepped").self_ns as f64 / wall_ns,
    );
    l.put(
        "stepped.trace_overhead",
        "ratio",
        traced.wall_s / untraced.wall_s.max(1e-9),
    );
    (log, rows)
}

/// dist-rt's own deterministic cluster over memory links, swept to
/// completion on one thread.
fn dist_stepped<M: Model>(s: &mut Session<M>, l: &mut Ledger) {
    let (model, ecfg) = (Arc::clone(&s.model), s.engine(Horizon::Dist));
    let Some((out, sweeps, wall_s)) = s.guard("dist stepped cluster", move || {
        let dcfg = DistConfig {
            shards: PARTS,
            transport: Transport::Mem,
            ..DistConfig::default()
        };
        let brief = |e| format!("{e:?}").chars().take(200).collect::<String>();
        let t0 = Instant::now();
        let mut cluster = SteppedCluster::new(model, &ecfg, &dcfg).map_err(brief)?;
        // A sweep steps every shard once.
        let mut sweeps = 0u64;
        while !cluster.sweep().map_err(brief)? {
            sweeps += 1;
        }
        let out = cluster
            .take_outcome()
            .ok_or("finished without an outcome")?;
        Ok((out, sweeps, t0.elapsed().as_secs_f64()))
    }) else {
        return;
    };
    let got = (out.totals.committed, out.totals.commit_digest);
    let want = s.oracle(Horizon::Dist);
    s.count(if want == Some(got) {
        Ok(())
    } else {
        Err(format!(
            "dist stepped cluster committed {got:?}, oracle {want:?}"
        ))
    });
    l.put(
        "dist.stepped.ns_per_event",
        "ns",
        wall_s * 1e9 / got.0.max(1) as f64,
    );
    l.put("dist.stepped.sweeps", "count", sweeps as f64);
}

/// Isolated layer timings on the workload's own inputs, `budget` each.
fn isolated<M: Model>(model: &M, ecfg: &EngineConfig, budget: Duration) -> Vec<Metric> {
    let mut l = Ledger(Vec::new());
    let rec = layers::record(model, ecfg);
    l.put(
        "model.handler.ns_per_event",
        "ns",
        layers::model_handler(model, ecfg, &rec, budget),
    );
    l.put(
        "model.state_bytes",
        "B",
        std::mem::size_of::<M::State>() as f64,
    );
    l.put(
        "pending.insert_pop.ns_per_op",
        "ns",
        layers::pending_hold(model, ecfg, &rec, budget),
    );
    l.put(
        "pending.cancel.ns_per_op",
        "ns",
        layers::pending_cancel(model, ecfg, &rec, budget),
    );
    let lp = layers::lp_costs(model, ecfg, &rec, budget);
    l.put("lp.process_into.ns_per_event", "ns", lp.process_into);
    l.put("lp.rollback.ns_per_undone", "ns", lp.rollback);
    l.put("lp.fossil.ns_per_commit", "ns", lp.fossil);
    let q = layers::queue_costs(&rec, budget);
    l.put("queue.push_batch.ns_per_msg", "ns", q.push_batch);
    l.put("queue.drain.ns_per_msg", "ns", q.drain);
    l.put("batcher.buffer_flush.ns_per_msg", "ns", q.buffer_flush);
    l.put(
        "queue.transit.ns_per_msg",
        "ns",
        layers::queue_transit(&rec, budget),
    );
    l.put("sync.post_wait.ns", "ns", layers::sem_post_wait(budget));
    l.put("sync.park_unpark.us", "us", layers::sem_wakeup_us(budget));
    l.put(
        "plane.publish_bound.ns_per_op",
        "ns",
        layers::plane_publish_bound(model.lookahead(), budget),
    );
    let w = layers::wire_costs(&rec, budget);
    l.put("wire.encode.ns_per_msg", "ns", w.encode_ns_per_msg);
    l.put("wire.decode.ns_per_msg", "ns", w.decode_ns_per_msg);
    l.put("wire.bytes_per_msg", "B", w.bytes_per_msg);
    l.put(
        "packet.codec.ns_per_frame",
        "ns",
        w.packet_codec_ns_per_frame,
    );
    l.put(
        "link.roundtrip.ns_per_frame",
        "ns",
        w.link_roundtrip_ns_per_frame,
    );
    l.0
}

/// Per-layer metrics of a session that has been set up, plus what `--out`
/// records about the pass (run order, run lengths, the span table) and the
/// raw spans of the traced stepped run (for `--spans`).
pub fn per_layer<M: Model>(
    s: &mut Session<M>,
    st: Option<&Setup>,
    seconds: f64,
) -> (Vec<Metric>, Vec<(&'static str, Value)>, SpanLog) {
    let mut l = Ledger(Vec::new());
    // Two rounds are the least that can show the VM repeating exactly.
    let mut record = runtime_rounds(s, st, if s.quick { 2 } else { 3 }, &mut l);
    // thread-rt's footprint, each time in a process of its own. How far one
    // thread's history runs ahead of the other's depends on scheduling, and
    // that only ever inflates the figure (13–33 MiB for one seed of
    // `traffic-grid`, most runs near 14), so the smallest of three stands
    // for both threads keeping pace.
    let rss = (0..if s.quick { 1 } else { 3 })
        .filter_map(|_| s.probe(Rt::Thread))
        .map(|p| p.peak_rss_mib)
        .reduce(f64::min);
    l.put_some("thread.peak_rss_mb", "MiB", rss);
    let (log, rows) = stepped_ledger(s, &mut l);
    dist_stepped(s, &mut l);
    // Each isolated timing gets an equal slice; thirteen of them fit in
    // about a quarter of the run, and at a second each well inside the
    // guard's deadline.
    let budget = Duration::from_secs_f64(if s.quick {
        0.02
    } else {
        (seconds / 60.0).min(1.0)
    });
    let (model, ecfg) = (Arc::clone(&s.model), s.engine(Horizon::Main));
    let timings = s.guard("isolated layer timings", move || {
        Ok(isolated(model.as_ref(), &ecfg, budget))
    });
    l.0.extend(timings.unwrap_or_default());

    let wall_ns = rows.get("stepped").map_or(1, |r| r.total_ns.max(1)) as f64;
    let table = Value::Array(
        rows.iter()
            .map(|(name, r)| {
                obj(vec![
                    ("span", string(*name)),
                    ("count", Value::UInt(r.count)),
                    ("total_ns", Value::UInt(r.total_ns)),
                    ("self_ns", Value::UInt(r.self_ns)),
                    ("self_share", Value::Float(r.self_ns as f64 / wall_ns)),
                ])
            })
            .collect(),
    );
    record.push(("stepped_spans", table));
    (l.0, record, log)
}
