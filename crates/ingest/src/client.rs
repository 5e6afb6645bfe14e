//! The retrying submission client.
//!
//! A client owns an *endpoint* — any `FnMut(&IngestRequest<P>) ->
//! Result<IngestReply, ClientError>` — so the same retry machinery drives
//! an in-process gate ([`local_endpoint`]) and a TCP connection
//! ([`crate::server::TcpEndpoint`]). The retry loop implements the
//! protocol the gate's verdicts prescribe:
//!
//! | verdict      | client reaction                                       |
//! |--------------|-------------------------------------------------------|
//! | `Accepted`   | done                                                  |
//! | `Duplicate`  | done — an earlier attempt with this id already landed |
//! | `Rejected`   | re-stamp to `floor + 1`, retry                        |
//! | `Busy`       | sleep `max(hint, backoff)`, retry with the same stamp |
//! | `Shed`       | sleep a backoff delay, retry with the same stamp      |
//! | `Closed`     | give up — the simulation is over                      |
//!
//! Retries always reuse the idempotency id, so a verdict lost in transit
//! (crash between journal append and reply) resolves to `Duplicate` on the
//! retry instead of a double admission.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use dist_rt::Backoff;
use pdes_core::{IngestGate, IngestReply, IngestRequest, ReplySlot, VirtualTime};

/// Why a send ended without an admission.
#[derive(Debug)]
pub enum ClientError {
    /// The gate reported `Closed`: the simulation finished or is shutting
    /// down. Not retryable.
    Closed,
    /// The attempt budget ran out; `last` is the final verdict seen.
    GaveUp { attempts: u32, last: IngestReply },
    /// The transport failed (socket error, lost reply, codec mismatch).
    Transport(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Closed => write!(f, "ingest gate closed"),
            ClientError::GaveUp { attempts, last } => {
                write!(
                    f,
                    "gave up after {attempts} attempts (last verdict: {last:?})"
                )
            }
            ClientError::Transport(detail) => write!(f, "ingest transport failed: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Submission attempts per send, the first try included.
pub const MAX_ATTEMPTS: u32 = 64;

/// What a successful send looked like.
#[derive(Debug, Clone, Copy)]
pub struct SendOutcome {
    /// The timestamp that was finally admitted (differs from the requested
    /// one when the floor forced re-stamps).
    pub at: VirtualTime,
    /// Attempts used (1 = admitted on the first try).
    pub attempts: u32,
    /// Rejections absorbed by re-stamping.
    pub restamped: u32,
    /// `true` when the final verdict was `Duplicate` — an earlier attempt
    /// (possibly one whose reply was lost) already admitted this id.
    pub duplicate: bool,
}

/// A retrying ingest client over an arbitrary endpoint.
pub struct IngestClient<P, F>
where
    F: FnMut(&IngestRequest<P>) -> Result<IngestReply, ClientError>,
{
    endpoint: F,
    backoff: Backoff,
    _payload: std::marker::PhantomData<fn(P)>,
}

impl<P, F> IngestClient<P, F>
where
    F: FnMut(&IngestRequest<P>) -> Result<IngestReply, ClientError>,
{
    /// A client over `endpoint`; `seed` feeds the backoff jitter.
    pub fn new(endpoint: F, seed: u64) -> Self {
        IngestClient {
            endpoint,
            backoff: Backoff::standard(seed),
            _payload: std::marker::PhantomData,
        }
    }

    /// Submit `req` until it is admitted, a duplicate, closed, or
    /// [`MAX_ATTEMPTS`] run out. Rejections re-stamp the request above the
    /// floor the gate judged it against; the id never changes.
    pub fn send(&mut self, mut req: IngestRequest<P>) -> Result<SendOutcome, ClientError> {
        // The cap on any one backoff sleep, whatever the server's hint:
        // keeps shutdowns snappy.
        const SLEEP_CAP: Duration = Duration::from_millis(50);
        let mut attempts = 0u32;
        let mut restamped = 0u32;
        loop {
            attempts += 1;
            let reply = (self.endpoint)(&req)?;
            match reply {
                IngestReply::Accepted => {
                    return Ok(SendOutcome {
                        at: req.at,
                        attempts,
                        restamped,
                        duplicate: false,
                    })
                }
                IngestReply::Duplicate => {
                    return Ok(SendOutcome {
                        at: req.at,
                        attempts,
                        restamped,
                        duplicate: true,
                    })
                }
                IngestReply::Closed => return Err(ClientError::Closed),
                IngestReply::Rejected { floor_ticks } => {
                    if attempts >= MAX_ATTEMPTS {
                        return Err(ClientError::GaveUp {
                            attempts,
                            last: reply,
                        });
                    }
                    restamped += 1;
                    // Admissible means `at > floor`; land the re-stamp at
                    // floor + 1. A stamp already above that was rejected by
                    // a raced, newer floor — the next round trip sees it and
                    // lifts again.
                    let target = floor_ticks.saturating_add(1);
                    if req.at.ticks() < target {
                        req.at = VirtualTime::from_ticks(target);
                    }
                }
                IngestReply::Busy { retry_after_ms } => {
                    if attempts >= MAX_ATTEMPTS {
                        return Err(ClientError::GaveUp {
                            attempts,
                            last: reply,
                        });
                    }
                    let hint = Duration::from_millis(retry_after_ms);
                    std::thread::sleep(self.backoff.next_delay().max(hint).min(SLEEP_CAP));
                }
                IngestReply::Shed => {
                    if attempts >= MAX_ATTEMPTS {
                        return Err(ClientError::GaveUp {
                            attempts,
                            last: reply,
                        });
                    }
                    std::thread::sleep(self.backoff.next_delay().min(SLEEP_CAP));
                }
            }
        }
    }
}

/// Submit one request to an in-process gate and wait for its verdict.
/// Immediate verdicts (reject/busy/shed/duplicate/closed) return at once;
/// a queued submission parks on a channel until the runtime's next pump
/// resolves it. `timeout` bounds that wait — a run that dies without
/// closing its gate must not hang the client forever.
pub fn submit_and_wait<P>(
    gate: &IngestGate<P>,
    req: IngestRequest<P>,
    timeout: Duration,
) -> Result<IngestReply, ClientError> {
    let (tx, rx) = mpsc::channel();
    let slot = ReplySlot::Local(Box::new(move |reply| {
        let _ = tx.send(reply);
    }));
    match gate.submit(req, slot) {
        Some(reply) => Ok(reply),
        None => rx
            .recv_timeout(timeout)
            .map_err(|_| ClientError::Transport("timed out waiting for a verdict".to_string())),
    }
}

/// An endpoint over an in-process gate (shared-memory runtimes and tests).
pub fn local_endpoint<P: Clone>(
    gate: Arc<IngestGate<P>>,
    verdict_timeout: Duration,
) -> impl FnMut(&IngestRequest<P>) -> Result<IngestReply, ClientError> {
    move |req| submit_and_wait(&gate, req.clone(), verdict_timeout)
}
