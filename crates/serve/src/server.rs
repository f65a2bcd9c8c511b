//! The resident daemon: TCP accept loop, per-connection keep-alive
//! handling, the single fit-worker thread, and graceful shutdown.
//!
//! Threading model: one accept thread, one fit worker (fits themselves
//! parallelize internally via the core worker pool), and one short
//! thread per live connection. Shutdown (`POST /v1/shutdown` or
//! [`ServerHandle::shutdown`]) flips the draining flag, drops the job
//! queue's sender — so the worker drains everything already queued and
//! exits — wakes the accept loop with a self-connection, and joins
//! every thread. In-flight requests complete; new fits get 503.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use proclus_obs::Recorder;

use crate::error::ServeError;
use crate::http::{read_request, ParseError, Response};
use crate::router;
use crate::state::{lock, AppState, ServeConfig};

/// How long a connection may sit idle (or dribble a request) before
/// the server gives up on it, and how long a reply may stall on a peer
/// that stops reading. Bounds the damage of a client that sends half a
/// request and walks away, or never collects its answer — either would
/// otherwise pin its handler, and graceful shutdown joins every one.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A running server and the handles needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    accept: Option<JoinHandle<()>>,
    worker: Option<JoinHandle<()>>,
}

/// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), open the
/// registry, and start serving in background threads.
///
/// # Errors
///
/// [`ServeError::Bind`] when the address cannot be bound,
/// [`ServeError::Registry`] when the registry directory is unusable
/// (corrupt *entries* are recovered, not errors — see
/// [`AppState::recovery_report`]).
pub fn start(
    addr: &str,
    config: ServeConfig,
    recorder: Arc<dyn Recorder + Send>,
) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(addr).map_err(|e| ServeError::Bind {
        addr: addr.to_string(),
        source: e,
    })?;
    let local = listener.local_addr().map_err(|e| ServeError::Bind {
        addr: addr.to_string(),
        source: e,
    })?;
    let (state, jobs_rx) = AppState::new(config, recorder)?;
    state.set_listen_addr(local);

    let worker_state = state.clone();
    let worker = std::thread::spawn(move || fit_worker(&worker_state, &jobs_rx));

    let accept_state = state.clone();
    let accept = std::thread::spawn(move || accept_loop(&listener, &accept_state));

    Ok(ServerHandle {
        addr: local,
        state,
        accept: Some(accept),
        worker: Some(worker),
    })
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests use this to inspect jobs and recovery).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Block until the server stops serving — i.e. until something
    /// (the `/v1/shutdown` endpoint, or [`ServerHandle::shutdown`]
    /// from another thread) begins the drain. Queued jobs are drained
    /// before this returns.
    pub fn wait(mut self) {
        self.join();
    }

    /// Begin draining and block until every thread has exited.
    pub fn shutdown(mut self) {
        self.state.begin_shutdown();
        self.join();
    }

    fn join(&mut self) {
        // The accept loop may be blocked in accept(); a throwaway
        // self-connection wakes it so it can observe the drain flag.
        // (Harmless when shutdown came via the endpoint: the loop is
        // already awake.) This nudge is best-effort by design.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.worker.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.state.begin_shutdown();
        self.join();
    }
}

/// The fit worker: drain the queue until every sender is gone, then
/// exit. Dropping the sender (in `begin_shutdown`) is therefore the
/// graceful-drain signal — jobs already queued still run.
fn fit_worker(state: &Arc<AppState>, rx: &Receiver<u64>) {
    while let Ok(seq) = rx.recv() {
        state.run_job(seq);
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<AppState>) {
    // Connection threads are joined on exit so shutdown leaves nothing
    // mid-write; finished handles are reaped opportunistically to keep
    // the vector from growing with total (not concurrent) connections.
    let handles: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    for stream in listener.incoming() {
        if state.is_draining() {
            break;
        }
        let Ok(stream) = stream else {
            continue;
        };
        let conn_state = state.clone();
        let handle = std::thread::spawn(move || handle_connection(&conn_state, stream));
        let mut hs = lock(&handles);
        hs.retain(|h| !h.is_finished());
        hs.push(handle);
    }
    for h in lock(&handles).drain(..) {
        let _ = h.join();
    }
}

/// Serve one connection: requests in sequence (keep-alive) until the
/// peer closes, errors out, or sends a request we answer with
/// `Connection: close`. Protocol faults never panic and never take
/// down anything but this one connection.
fn handle_connection(state: &Arc<AppState>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(ReplyWriter {
        stream,
        deadline: None,
        timeout: READ_TIMEOUT,
    });
    loop {
        match read_request(&mut reader, &mut writer) {
            Ok(Some(req)) => {
                let resp = router::handle(state, &req);
                let keep_alive = req.keep_alive && !state.is_draining();
                if resp.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            // Clean close between requests: normal keep-alive teardown.
            Ok(None) => return,
            // Torn request / premature disconnect / timeout: nobody to
            // answer — count it and drop the connection.
            Err(ParseError::Io(_)) => {
                state.recorder().counter("serve.protocol_errors", 1);
                return;
            }
            // Parseable-enough-to-answer protocol faults: answer with
            // the mapped status, then close — after a framing error the
            // byte stream can no longer be trusted for a next request.
            Err(e) => {
                state.recorder().counter("serve.protocol_errors", 1);
                if let Some(status) = e.status() {
                    let resp = Response::error(status, &e.message());
                    let _ = resp.write_to(&mut writer, false);
                    let _ = writer.flush();
                }
                return;
            }
        }
    }
}

/// The write half of a connection, giving each reply one deadline.
///
/// The socket's write timeout bounds a single `write` call only. A peer
/// that stops reading but whose kernel still takes a few bytes now and
/// then would let every call make a little progress, so a reply, and
/// the shutdown that joins its handler, could wait far longer than
/// [`READ_TIMEOUT`]. Here a reply starts at its first write and ends at
/// `flush`; all its writes together get `READ_TIMEOUT`, plus at most
/// one second of slack so the fast path sets no socket option.
struct ReplyWriter {
    stream: TcpStream,
    deadline: Option<Instant>,
    /// The write timeout currently set on `stream`.
    timeout: Duration,
}

impl Write for ReplyWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let deadline = *self
            .deadline
            .get_or_insert_with(|| Instant::now() + READ_TIMEOUT);
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "reply not taken within the write timeout",
            ));
        }
        if left + Duration::from_secs(1) < self.timeout {
            self.stream.set_write_timeout(Some(left))?;
            self.timeout = left;
        }
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()?;
        self.deadline = None;
        if self.timeout != READ_TIMEOUT {
            self.stream.set_write_timeout(Some(READ_TIMEOUT))?;
            self.timeout = READ_TIMEOUT;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proclus_obs::NoopRecorder;
    use std::io::{BufRead, Read};

    /// A reply past its deadline fails at once instead of blocking for
    /// another write timeout; `flush` ends the reply, so the next one
    /// gets a fresh deadline.
    #[test]
    fn reply_writer_enforces_one_deadline_per_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let mut w = ReplyWriter {
            stream,
            deadline: Some(Instant::now()),
            timeout: READ_TIMEOUT,
        };
        let err = w.write(b"late").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        w.flush().unwrap();
        assert_eq!(w.deadline, None);
        w.write_all(b"on time").unwrap();
        assert!(w.deadline.is_some());
        w.flush().unwrap();
        let mut got = [0u8; 7];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"on time");
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("proclus-serve-srv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn start_server(tag: &str) -> ServerHandle {
        start(
            "127.0.0.1:0",
            ServeConfig {
                registry_dir: tmp_dir(tag),
                queue_capacity: 2,
                threads: 1,
            },
            Arc::new(NoopRecorder),
        )
        .unwrap()
    }

    fn request(addr: SocketAddr, raw: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_health_and_survives_garbage() {
        let server = start_server("health");
        let addr = server.addr();
        let resp = request(addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");

        // Garbage gets a 400 and a closed connection…
        let resp = request(addr, b"\x01\x02garbage\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        // …and the server is still listening.
        let resp = request(addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let server = start_server("keepalive");
        let mut s = TcpStream::connect(server.addr()).unwrap();
        for _ in 0..3 {
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            let mut status = String::new();
            r.read_line(&mut status).unwrap();
            assert!(status.starts_with("HTTP/1.1 200"), "{status}");
            // Drain headers + body using Content-Length framing.
            let mut len = 0usize;
            loop {
                let mut line = String::new();
                r.read_line(&mut line).unwrap();
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    len = v.trim().parse().unwrap();
                }
                if line == "\r\n" {
                    break;
                }
            }
            let mut body = vec![0u8; len];
            r.read_exact(&mut body).unwrap();
        }
        drop(s);
        server.shutdown();
    }

    #[test]
    fn shutdown_endpoint_stops_the_server() {
        let server = start_server("stop");
        let addr = server.addr();
        let resp = request(
            addr,
            b"POST /v1/shutdown HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 202"), "{resp}");
        server.wait();
        // The listener is gone: connects may still succeed briefly at
        // the OS level, but the state is draining.
    }
}
