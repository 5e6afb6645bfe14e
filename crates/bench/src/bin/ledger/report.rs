//! What a run reports: named metrics with units and spreads, the host they
//! were taken on, and the two renderings — a table for people and JSON for
//! the driver and `--out`.

use serde::{Serialize, Value};

use crate::stats::summarize;

/// One named number. A timing is the median of its samples and is shown
/// with their count and quartiles.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Every sample behind a timing, in run order (empty for exact values).
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: Vec::new(),
        }
    }

    /// A timing: the value is the median of its repeats. `None` when
    /// `samples` is empty.
    pub fn timing(name: &'static str, unit: &'static str, samples: &[f64]) -> Option<Metric> {
        Some(Metric {
            name,
            unit,
            value: summarize(samples)?.median,
            samples: samples.to_vec(),
        })
    }

    pub fn row(&self) -> String {
        match summarize(&self.samples) {
            Some(s) => format!(
                "{:<36} {:>14.4} {:<12} n={} p25={:.4} p75={:.4} spread={:.1}%",
                self.name,
                self.value,
                self.unit,
                s.n,
                s.p25,
                s.p75,
                100.0 * s.spread()
            ),
            None => format!("{:<36} {:>14.4} {:<12}", self.name, self.value, self.unit),
        }
    }

    fn to_json(&self, with_spread: bool) -> Value {
        let mut fields = vec![
            ("value".to_string(), Value::Float(self.value)),
            ("unit".to_string(), Value::String(self.unit.to_string())),
        ];
        if let (true, Some(s)) = (with_spread, summarize(&self.samples)) {
            fields.push(("n".to_string(), Value::UInt(s.n as u64)));
            fields.push(("p25".to_string(), Value::Float(s.p25)));
            fields.push(("p75".to_string(), Value::Float(s.p75)));
            let samples = self.samples.iter().map(|v| Value::Float(*v)).collect();
            fields.push(("samples".to_string(), Value::Array(samples)));
        }
        Value::Object(fields)
    }
}

/// `{name: {value, unit[, n, p25, p75]}}` in insertion order.
pub fn metrics_json(metrics: &[Metric], with_spread: bool) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.to_json(with_spread)))
            .collect(),
    )
}

/// A `Value` tree is its own serialization.
struct Tree<'a>(&'a Value);

impl Serialize for Tree<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

pub fn to_json_line(v: &Value) -> String {
    serde_json::to_string(&Tree(v)).expect("value trees always serialize")
}

pub fn to_json_pretty(v: &Value) -> String {
    serde_json::to_string_pretty(&Tree(v)).expect("value trees always serialize")
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn string(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host the numbers were taken on. Anything that cannot be read is
/// recorded as `"unknown"` (a bare checkout has no git commit).
pub fn host_json() -> Value {
    let unknown = || "unknown".to_string();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| unknown());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    obj(vec![
        ("nproc", Value::UInt(nproc)),
        ("cpu_model", string(cpu_model)),
        ("kernel", string(kernel)),
        (
            "rustc",
            string(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            string(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
    ])
}
