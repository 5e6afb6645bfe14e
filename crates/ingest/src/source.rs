//! Event sources: script files, synthetic generators, and the drive loop.
//!
//! A *script* is a plain `Vec<IngestRequest<P>>`; the file form is JSONL —
//! one request per line, blank lines and `#` comments skipped — so
//! operators can craft feeds by hand and the CLI can replay captures.

use pdes_core::rng::splitmix64;
use pdes_core::{IngestRequest, LpId, VirtualTime};
use serde::{Deserialize, Serialize};

use crate::client::{ClientError, IngestClient};

/// Parse a JSONL script: one JSON-encoded [`IngestRequest`] per line.
/// Returns the line number (1-based) with the first malformed entry.
pub fn parse_script<P: Deserialize>(text: &str) -> Result<Vec<IngestRequest<P>>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match serde_json::from_str::<IngestRequest<P>>(line) {
            Ok(req) => out.push(req),
            Err(e) => return Err(format!("script line {}: {e:?}", idx + 1)),
        }
    }
    Ok(out)
}

/// Render a script back to JSONL (inverse of [`parse_script`]).
pub fn render_script<P: Serialize>(reqs: &[IngestRequest<P>]) -> String {
    let mut out = String::new();
    for req in reqs {
        out.push_str(&serde_json::to_string(req).expect("ingest requests are plain data"));
        out.push('\n');
    }
    out
}

/// A deterministic synthetic script: `n` requests from `source`, ids
/// `0..n`, destinations uniform over `0..num_lps`, timestamps uniform over
/// `[lo_ticks, hi_ticks)`. `payload(id)` supplies each payload.
pub fn synth_requests<P>(
    seed: u64,
    source: u32,
    n: usize,
    num_lps: u32,
    lo_ticks: u64,
    hi_ticks: u64,
    mut payload: impl FnMut(u64) -> P,
) -> Vec<IngestRequest<P>> {
    assert!(num_lps > 0 && hi_ticks > lo_ticks);
    let mut state = seed ^ 0xD1F3_5C1E_0E77_AC42;
    (0..n as u64)
        .map(|id| {
            let dst = LpId((splitmix64(&mut state) % num_lps as u64) as u32);
            let span = hi_ticks - lo_ticks;
            let at = VirtualTime::from_ticks(lo_ticks + splitmix64(&mut state) % span);
            IngestRequest {
                source,
                id,
                at,
                dst,
                payload: payload(id),
            }
        })
        .collect()
}

/// What driving a script through a client produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveReport {
    /// Sends that ended `Accepted`.
    pub accepted: u64,
    /// Sends that ended `Duplicate` (an earlier attempt already landed).
    pub duplicate: u64,
    /// Sends abandoned after the attempt budget (`GaveUp`).
    pub gave_up: u64,
    /// Sends refused because the gate closed mid-script.
    pub closed: u64,
    /// Sends that died on a transport error.
    pub transport_failed: u64,
    /// Total submission attempts across the script.
    pub attempts: u64,
    /// Rejections absorbed by re-stamping across the script.
    pub restamped: u64,
}

impl DriveReport {
    /// Sends that definitely landed in the simulation.
    pub fn landed(&self) -> u64 {
        self.accepted + self.duplicate
    }
}

/// Push every request of `script` through `client`, tallying outcomes.
/// `Closed` stops the drive (everything after it would meet the same
/// verdict); other failures move on to the next request.
pub fn drive<P, F>(client: &mut IngestClient<P, F>, script: Vec<IngestRequest<P>>) -> DriveReport
where
    F: FnMut(&IngestRequest<P>) -> Result<pdes_core::IngestReply, ClientError>,
{
    let mut report = DriveReport::default();
    for req in script {
        match client.send(req) {
            Ok(outcome) => {
                report.attempts += u64::from(outcome.attempts);
                report.restamped += u64::from(outcome.restamped);
                if outcome.duplicate {
                    report.duplicate += 1;
                } else {
                    report.accepted += 1;
                }
            }
            Err(ClientError::Closed) => {
                report.closed += 1;
                break;
            }
            Err(ClientError::GaveUp { attempts, .. }) => {
                report.attempts += u64::from(attempts);
                report.gave_up += 1;
            }
            Err(ClientError::Transport(_)) => {
                report.transport_failed += 1;
            }
        }
    }
    report
}
