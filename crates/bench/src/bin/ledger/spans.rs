//! In-memory spans around the calls into each layer.
//!
//! A span is `(name, start, end, parent)`. Spans are pushed to a vector
//! while the traced pass runs and only summarised or written out after it
//! has ended. A layer's *self time* is its span's duration minus the part
//! its child spans cover, so self times add up to the root span exactly and
//! whatever the root keeps for itself is the ledger's residual.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Recorder for one pass. A disabled log costs one branch per call, so the
/// traced and untraced passes run the same code.
pub struct SpanLog {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    #[inline]
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
        });
    }

    /// Close the innermost open span.
    #[inline]
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("close() without a matching open()");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        debug_assert!(self.open.is_empty(), "spans still open");
        &self.spans
    }
}

/// Raw spans, one JSON object per line (for `--spans`).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut text = String::new();
    for sp in spans {
        // Span names are identifiers from this crate: nothing to escape.
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
            sp.name, sp.start_ns, sp.end_ns
        ));
    }
    text
}

/// Per-span self time: duration minus the durations of direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// One row of the per-layer table: all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregate spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let own = self_times(spans);
    let mut rows: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let row = rows.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.duration_ns();
        row.self_ns += own_ns;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,60) ⊃ b [20,30); root ⊃ c [70,90)
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let spans = [
            span("root", 5, 1005, None),
            span("x", 10, 400, Some(0)),
            span("y", 20, 30, Some(1)),
            span("y", 40, 90, Some(1)),
            span("x", 500, 900, Some(0)),
            span("z", 600, 700, Some(4)),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns());
        let rows = by_name(&spans);
        assert_eq!(
            rows["x"],
            LayerTime {
                count: 2,
                total_ns: 790,
                self_ns: 790 - 60 - 100
            }
        );
        assert_eq!(rows["y"].count, 2);
        assert_eq!(rows["root"].self_ns, 1000 - 790);
        let by_rows: u64 = rows.values().map(|r| r.self_ns).sum();
        assert_eq!(by_rows, 1000);
    }

    #[test]
    fn log_nests_and_disabled_log_records_nothing() {
        let mut log = SpanLog::new(true);
        log.open("root");
        log.open("child");
        log.open("leaf");
        log.close();
        log.close();
        log.open("child");
        log.close();
        log.close();
        let s = log.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            vec![None, Some(0), Some(1), Some(0)]
        );
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = SpanLog::new(false);
        off.open("root");
        off.close();
        assert!(off.spans().is_empty());
    }
}
