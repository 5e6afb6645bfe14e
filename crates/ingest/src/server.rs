//! The TCP ingest server and its matching client transport.
//!
//! Protocol: the client writes one `u32`-length-prefixed
//! [`dist_rt::wire`]-encoded [`IngestRequest`] per frame and reads one
//! framed [`IngestReply`] back, strictly request/reply on one connection.
//! A malformed frame closes the connection — backpressure and admission
//! verdicts are in-band, codec violations are not.
//!
//! The server holds the gate only through an `Arc`, so it can front any
//! runtime's gate (thread-rt supervisor, a dist-rt shard's gate) without
//! knowing which; verdicts for queued submissions arrive when that
//! runtime's controller pumps the gate at its next GVT publish.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dist_rt::wire;
use pdes_core::plane::lock;
use pdes_core::{IngestGate, IngestReply, IngestRequest};
use serde::{Deserialize, Serialize};

use crate::client::{submit_and_wait, ClientError};

/// Bound on how long one connection waits for a queued verdict before
/// failing the request as `Closed` — a runtime that died without closing
/// its gate must not pin server threads forever.
const VERDICT_TIMEOUT: Duration = Duration::from_secs(30);

/// How often an idle connection handler wakes to check the stop flag, so
/// shutdown is bounded even while clients keep their connections open.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// A listening ingest server feeding one gate.
pub struct IngestServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl IngestServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve submissions into
    /// `gate` until [`IngestServer::shutdown`] (or drop).
    pub fn spawn<P>(gate: Arc<IngestGate<P>>, addr: &str) -> std::io::Result<IngestServer>
    where
        P: Clone + Send + Serialize + Deserialize + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || loop {
                let (stream, _) = match listener.accept() {
                    Ok(conn) => conn,
                    Err(_) => {
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        continue;
                    }
                };
                if stop.load(Ordering::Acquire) {
                    // The shutdown poke (or a late client); either way,
                    // stop accepting.
                    return;
                }
                let gate = Arc::clone(&gate);
                let conn_stop = Arc::clone(&stop);
                let handle = std::thread::spawn(move || serve_conn(gate, stream, conn_stop));
                lock(&conns).push(handle);
            })
        };
        Ok(IngestServer {
            addr: local,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, join every connection handler, and return. Open
    /// connections end at their next request boundary or within one idle
    /// poll interval; requests already in flight get their verdicts first.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Poke the blocking accept() awake so the thread sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = lock(&self.conns).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_conn<P>(gate: Arc<IngestGate<P>>, mut stream: TcpStream, stop: Arc<AtomicBool>)
where
    P: Clone + Serialize + Deserialize,
{
    // Idle reads wake every IDLE_POLL so a shutdown can join this thread
    // without waiting for the client to hang up. A timeout that fires
    // mid-frame leaves the stream desynced (read_exact consumed an
    // unspecified prefix) — the next decode then closes the connection,
    // which is the documented answer to a peer that stalls inside a frame.
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    loop {
        let buf = match wire::read_frame(&mut stream) {
            Ok(Some(buf)) => buf,
            // Clean EOF: the client is gone.
            Ok(None) => return,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            // A dead socket.
            Err(_) => return,
        };
        let Ok(req) = wire::from_bytes::<IngestRequest<P>>(&buf) else {
            // Codec violation: this peer speaks a different protocol;
            // dropping the connection is the only safe answer.
            return;
        };
        let reply = submit_and_wait(&gate, req, VERDICT_TIMEOUT).unwrap_or(IngestReply::Closed);
        if wire::write_frame(&mut stream, &wire::to_bytes(&reply)).is_err() {
            return;
        }
    }
}

/// The client side of the TCP protocol: a connected stream usable as an
/// [`crate::IngestClient`] endpoint.
pub struct TcpEndpoint {
    stream: TcpStream,
}

impl TcpEndpoint {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TcpEndpoint> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(VERDICT_TIMEOUT + Duration::from_secs(5)))?;
        Ok(TcpEndpoint { stream })
    }

    /// One request/reply round trip.
    pub fn submit<P: Serialize>(
        &mut self,
        req: &IngestRequest<P>,
    ) -> Result<IngestReply, ClientError> {
        wire::write_frame(&mut self.stream, &wire::to_bytes(req))
            .map_err(|e| ClientError::Transport(format!("send failed: {e}")))?;
        match wire::read_frame(&mut self.stream) {
            Ok(Some(buf)) => wire::from_bytes::<IngestReply>(&buf)
                .map_err(|e| ClientError::Transport(format!("bad reply frame: {e}"))),
            Ok(None) => Err(ClientError::Transport(
                "server closed the connection".to_string(),
            )),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Err(ClientError::Transport("reply timed out".to_string()))
            }
            Err(e) => Err(ClientError::Transport(format!("recv failed: {e}"))),
        }
    }

    /// Adapt into an [`crate::IngestClient`] endpoint closure.
    pub fn into_endpoint<P: Serialize>(
        mut self,
    ) -> impl FnMut(&IngestRequest<P>) -> Result<IngestReply, ClientError> {
        move |req| self.submit(req)
    }
}
