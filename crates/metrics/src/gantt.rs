//! ASCII activity gantt: render per-thread scheduled-in/out intervals the
//! way the paper's Figure 1 sketches them.
//!
//! Input is the transition list [`transitions_from_trace`] derives from a
//! collected trace: `(time, thread, scheduled_in)`. Threads start
//! scheduled-in.

use telemetry::{EventKind, TelemetryData};

/// Derive the gantt transition list from a collected trace: every `Park`
/// span on a thread is a de-scheduled interval `[ts, ts + dur]`, so it
/// contributes a scheduled-out transition at its start and a scheduled-in
/// one at its end. A thread with no park spans never descheduled and stays
/// solid. Transitions come back time-sorted, ready for [`render_gantt`].
pub fn transitions_from_trace(data: &TelemetryData, num_threads: usize) -> Vec<(u64, usize, bool)> {
    let mut out = Vec::new();
    for t in &data.threads {
        if t.tid >= num_threads {
            continue;
        }
        for r in &t.records {
            if r.kind == EventKind::Park {
                out.push((r.ts_ns, t.tid, false));
                out.push((r.ts_ns + r.dur_ns, t.tid, true));
            }
        }
    }
    out.sort_unstable();
    out
}

/// The latest timestamp any record in the trace covers (gantt horizon).
pub fn trace_horizon(data: &TelemetryData) -> u64 {
    data.threads
        .iter()
        .flat_map(|t| t.records.iter())
        .map(|r| r.ts_ns + r.dur_ns)
        .max()
        .unwrap_or(0)
}

/// Render an activity gantt. `width` columns cover `[0, horizon]`;
/// `█` = scheduled in, `·` = de-scheduled.
pub fn render_gantt(
    transitions: &[(u64, usize, bool)],
    num_threads: usize,
    horizon: u64,
    width: usize,
) -> String {
    assert!(width >= 2 && num_threads >= 1);
    let horizon = horizon.max(1);
    // Per-thread sorted transition times.
    let mut per: Vec<Vec<(u64, bool)>> = vec![Vec::new(); num_threads];
    for &(t, th, s) in transitions {
        if th < num_threads {
            per[th].push((t, s));
        }
    }
    let mut out = String::new();
    let label_w = num_threads.saturating_sub(1).to_string().len().max(1);
    for (th, trs) in per.iter().enumerate() {
        let mut row = format!("T{th:<label_w$} ");
        let mut idx = 0;
        let mut state = true; // threads start scheduled-in
        for col in 0..width {
            // Time at the *end* of this column's slot.
            let t = (col as u64 + 1) * horizon / width as u64;
            while idx < trs.len() && trs[idx].0 <= t {
                state = trs[idx].1;
                idx += 1;
            }
            row.push(if state { '█' } else { '·' });
        }
        out.push_str(&row);
        out.push('\n');
    }
    let mut axis = format!("{:label_w$}  0", "");
    // Nanoseconds in, milliseconds on the axis — virtual on the vm
    // runtime, wall clock on the others.
    let horizon_ms = horizon as f64 * 1e-6;
    let tail = format!("{horizon_ms:.1} ms");
    let pad = (width + 1).saturating_sub(1 + tail.len());
    axis.push_str(&" ".repeat(pad));
    axis.push_str(&tail);
    out.push_str(&axis);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_schedule_out_and_in() {
        // Thread 1 parks at 50% and returns at 75%.
        let transitions = vec![(500u64, 1usize, false), (750, 1, true)];
        let g = render_gantt(&transitions, 2, 1000, 8);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "T0 ████████");
        // A transition landing exactly on a column boundary applies to that
        // column (the column shows the state at its end time).
        assert_eq!(lines[1], "T1 ███··███");
    }

    #[test]
    fn threads_without_transitions_stay_active() {
        let g = render_gantt(&[], 3, 100, 4);
        for line in g.lines().take(3) {
            assert!(line.ends_with("████"), "{line}");
        }
    }

    #[test]
    fn out_of_range_threads_are_ignored() {
        let g = render_gantt(&[(10, 99, false)], 1, 100, 4);
        assert!(g.lines().next().expect("row").contains("████"));
    }

    #[test]
    fn axis_shows_horizon() {
        let g = render_gantt(&[], 1, 2_000_000, 10);
        assert!(g.contains("2.0 ms"), "{g}");
    }

    fn trace_with_parks(parks: &[(usize, u64, u64)], quiet_tid: usize) -> TelemetryData {
        use telemetry::{ThreadTrace, TraceRecord};
        let mut threads: Vec<ThreadTrace> = Vec::new();
        for &(tid, ts, dur) in parks {
            threads.push(ThreadTrace {
                tid,
                shard: 0,
                emitted: 1,
                dropped: 0,
                records: vec![TraceRecord {
                    kind: EventKind::Park,
                    ts_ns: ts,
                    dur_ns: dur,
                    arg: 0,
                }],
            });
        }
        // The quiet thread traced work but never a park span.
        threads.push(ThreadTrace {
            tid: quiet_tid,
            shard: 0,
            emitted: 1,
            dropped: 0,
            records: vec![TraceRecord {
                kind: EventKind::EventBatch,
                ts_ns: 10,
                dur_ns: 20,
                arg: 3,
            }],
        });
        TelemetryData {
            threads,
            rounds: Vec::new(),
        }
    }

    #[test]
    fn trace_park_spans_become_out_in_pairs() {
        let data = trace_with_parks(&[(1, 500, 250)], 0);
        let trs = transitions_from_trace(&data, 2);
        assert_eq!(trs, vec![(500, 1, false), (750, 1, true)]);
        let g = render_gantt(&trs, 2, 1000, 8);
        assert_eq!(g.lines().nth(1).expect("row T1"), "T1 ███··███");
    }

    #[test]
    fn thread_that_never_parks_renders_solid() {
        // Figure-1 sanity: a thread with no Park spans never deschedules,
        // so its lane is solid across the whole horizon.
        let data = trace_with_parks(&[(1, 200, 100)], 0);
        let trs = transitions_from_trace(&data, 2);
        assert!(trs.iter().all(|&(_, th, _)| th != 0));
        let g = render_gantt(&trs, 2, trace_horizon(&data).max(1000), 10);
        let row0 = g.lines().next().expect("row T0");
        assert_eq!(row0, "T0 ██████████");
    }

    #[test]
    fn trace_horizon_spans_longest_record() {
        let data = trace_with_parks(&[(1, 500, 250)], 0);
        assert_eq!(trace_horizon(&data), 750);
        assert_eq!(trace_horizon(&TelemetryData::default()), 0);
    }

    #[test]
    fn out_of_range_tids_in_trace_are_dropped() {
        let data = trace_with_parks(&[(7, 100, 50)], 0);
        assert!(transitions_from_trace(&data, 2).is_empty());
    }
}
