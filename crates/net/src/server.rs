//! The TCP front door: blocking `std::net` threads around one
//! [`Pool`].
//!
//! # Threading model
//!
//! * One **accept** thread owns the listener. Per accepted socket it
//!   enforces the connection cap, stamps `net.accepted`, and spawns a
//!   reader.
//! * One **reader** thread per connection reads bounded lines, decodes
//!   frames, and submits to the pool under a brief mutex hold.
//!   Responses the reader can produce *immediately* — `ping`, `hello`,
//!   `health`, `stats`, protocol errors, `busy` rejections — it writes
//!   itself. `health` and `stats` read only state the replicas share with
//!   the router, so they answer while a replica is paused or wedged.
//! * One **writer** thread per connection drains a channel of pool
//!   tickets **in submission order** and writes their responses. This
//!   is what makes the protocol pipelined: the reader never blocks on
//!   an engine evaluation, so a client may have many statements in
//!   flight, capped by [`NetConfig::max_in_flight`].
//!
//! The ordering contract follows: responses to pool-accepted requests
//! arrive in request order; immediate responses may overtake them.
//! Request ids disambiguate (DESIGN.md §15).
//!
//! # Drain
//!
//! [`NetServer::drain`] stops accepting, shuts down the read half of
//! every live socket (readers see EOF mid-pipeline, writers finish the
//! tickets already in their channels), joins every thread, and returns
//! the inner [`Pool`] so callers can inspect or keep using it. Nothing
//! accepted is dropped: a request that got a ticket gets its response
//! before its connection closes.

use crate::proto::{self, Command, DEFAULT_MAX_FRAME_BYTES};
use polyview::obs::jsonl::ObjectBuilder;
use polyview::obs::{
    Clock, Counter, EventRecord, EventSink, Gauge, Histogram, HistogramSnapshot, Registry,
    WallClock, WindowView,
};
use polyview_pool::{HealthReport, Pool, PoolConfig, Submit, Ticket};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration. Admission control is two-tier: a cap on open
/// connections (checked at accept) and a per-connection cap on
/// pipelined requests awaiting responses (checked at submit), on top
/// of the pool's own bounded queues.
#[derive(Clone)]
pub struct NetConfig {
    /// Configuration for the pool the server fronts; the server owns
    /// the pool it builds from this.
    pub pool: PoolConfig,
    /// Maximum simultaneously open connections. Excess connects get a
    /// single `{"busy":true}` line and are closed.
    pub max_conns: usize,
    /// Maximum pool-accepted requests a single connection may have
    /// awaiting responses. Excess frames get `{"id":N,"busy":true}`;
    /// the connection stays open.
    pub max_in_flight: usize,
    /// Longest accepted wire line in bytes (excluding the newline).
    pub max_frame_bytes: usize,
    /// Longest a single response write may block on a client that has
    /// stopped draining its socket before the connection is declared
    /// dead and closed (the writer-queue bound — reads are bounded by
    /// `max_frame_bytes`, writes by this). `0` disables the timeout.
    pub write_timeout_ms: u64,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            pool: PoolConfig::default(),
            max_conns: 64,
            max_in_flight: 32,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            write_timeout_ms: 5_000,
        }
    }
}

impl NetConfig {
    pub fn pool(mut self, cfg: PoolConfig) -> Self {
        self.pool = cfg;
        self
    }

    pub fn max_conns(mut self, n: usize) -> Self {
        self.max_conns = n;
        self
    }

    pub fn max_in_flight(mut self, n: usize) -> Self {
        self.max_in_flight = n.max(1);
        self
    }

    pub fn max_frame_bytes(mut self, n: usize) -> Self {
        self.max_frame_bytes = n.max(2);
        self
    }

    pub fn write_timeout_ms(mut self, ms: u64) -> Self {
        self.write_timeout_ms = ms;
        self
    }
}

/// Server-side counters, backed by a [`Registry`] so
/// [`NetServer::metrics_json`] renders them alongside the pool's.
struct Metrics {
    registry: Registry,
    conns_open: Gauge,
    conns_accepted: Counter,
    rejected_busy: Counter,
    frames_decoded: Counter,
    frames_invalid: Counter,
    responses: Counter,
    watch_pushes: Counter,
    write_errors: Counter,
    read_to_decode_ns: Histogram,
}

impl Metrics {
    fn new() -> Metrics {
        let registry = Registry::new();
        Metrics {
            conns_open: registry.gauge("net.conns_open"),
            conns_accepted: registry.counter("net.conns_accepted"),
            rejected_busy: registry.counter("net.rejected_busy"),
            frames_decoded: registry.counter("net.frames_decoded"),
            frames_invalid: registry.counter("net.frames_invalid"),
            responses: registry.counter("net.responses"),
            watch_pushes: registry.counter("net.watch_pushes"),
            write_errors: registry.counter("net.write_errors"),
            read_to_decode_ns: registry.histogram("net.read_to_decode_ns"),
            registry,
        }
    }

    fn stats(&self) -> NetStats {
        NetStats {
            conns_open: self.conns_open.get(),
            conns_accepted: self.conns_accepted.get(),
            rejected_busy: self.rejected_busy.get(),
            frames_decoded: self.frames_decoded.get(),
            frames_invalid: self.frames_invalid.get(),
            responses: self.responses.get(),
            watch_pushes: self.watch_pushes.get(),
            write_errors: self.write_errors.get(),
            read_to_decode: self.read_to_decode_ns.snapshot(),
        }
    }
}

/// Point-in-time snapshot of the server's own counters (the pool's
/// live separately in [`polyview_pool::PoolStats`]).
#[derive(Clone, Debug)]
pub struct NetStats {
    /// Connections currently open.
    pub conns_open: u64,
    /// Connections ever accepted (excludes cap rejections).
    pub conns_accepted: u64,
    /// Requests refused by admission control: connection cap,
    /// in-flight cap, or a full pool queue.
    pub rejected_busy: u64,
    /// Frames decoded and dispatched.
    pub frames_decoded: u64,
    /// Lines that failed to decode (malformed JSON, bad shape,
    /// oversized).
    pub frames_invalid: u64,
    /// Response lines written.
    pub responses: u64,
    /// Server-initiated `watch` pushes written.
    pub watch_pushes: u64,
    /// Writes that failed or timed out (each one closes its
    /// connection).
    pub write_errors: u64,
    /// Socket-read to frame-decoded latency.
    pub read_to_decode: HistogramSnapshot,
}

impl std::fmt::Display for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "net: {} open / {} accepted connections",
            self.conns_open, self.conns_accepted
        )?;
        writeln!(
            f,
            "     {} decoded, {} invalid, {} busy-rejected, {} responses",
            self.frames_decoded, self.frames_invalid, self.rejected_busy, self.responses
        )?;
        writeln!(
            f,
            "     {} watch pushes, {} write errors",
            self.watch_pushes, self.write_errors
        )?;
        write!(
            f,
            "     read→decode ns: p50={} p95={} p99={} (n={})",
            self.read_to_decode.quantile(0.50),
            self.read_to_decode.quantile(0.95),
            self.read_to_decode.quantile(0.99),
            self.read_to_decode.count
        )
    }
}

/// Clock + sink pair for `net.*` trace events; present only when the
/// pool's telemetry is on, so the disabled path stays a no-op.
struct NetTelemetry {
    clock: Arc<dyn Clock>,
    sink: Arc<dyn EventSink>,
}

impl NetTelemetry {
    fn emit(&self, name: &str, trace_id: u64, start_ns: u64, dur_ns: u64, conn: u64) {
        self.sink.emit(&EventRecord {
            name: name.to_string(),
            trace_id,
            parent: None,
            start_ns,
            dur_ns,
            attrs: vec![("conn".to_string(), conn)],
        });
    }
}

/// Everything a connection's threads share with the server.
struct Shared {
    pool: Mutex<Pool>,
    metrics: Metrics,
    telemetry: Option<NetTelemetry>,
    /// Time source for the read→decode histogram. Aliases the pool's
    /// telemetry clock when telemetry is on (deterministic tests see
    /// manual time everywhere); otherwise a private wall clock.
    clock: Arc<dyn Clock>,
    max_in_flight: usize,
    max_frame_bytes: usize,
    /// Per-write bound on a non-draining client ([`NetConfig::write_timeout_ms`]).
    write_timeout: Option<Duration>,
}

struct ConnHandle {
    /// Kept solely so drain can `Shutdown::Read` a live reader.
    stream: TcpStream,
    join: JoinHandle<()>,
}

/// The TCP front door. Construct with [`NetServer::bind`]; stop with
/// [`NetServer::drain`] (keep the pool) or [`NetServer::shutdown`]
/// (tear everything down).
pub struct NetServer {
    local_addr: SocketAddr,
    /// `Some` until [`NetServer::drain`] takes the pool out.
    shared: Option<Arc<Shared>>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<ConnHandle>>>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port), build the pool
    /// from `cfg.pool`, and start accepting.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: NetConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let pool = Pool::new(cfg.pool.clone());
        let telemetry = if pool.telemetry_enabled() {
            Some(NetTelemetry {
                clock: pool.telemetry_clock(),
                sink: pool.event_sink(),
            })
        } else {
            None
        };
        let clock: Arc<dyn Clock> = match &telemetry {
            Some(t) => Arc::clone(&t.clock),
            None => Arc::new(WallClock::new()),
        };
        let shared = Arc::new(Shared {
            pool: Mutex::new(pool),
            metrics: Metrics::new(),
            telemetry,
            clock,
            max_in_flight: cfg.max_in_flight.max(1),
            max_frame_bytes: cfg.max_frame_bytes.max(2),
            write_timeout: (cfg.write_timeout_ms > 0)
                .then(|| Duration::from_millis(cfg.write_timeout_ms)),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<ConnHandle>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let max_conns = cfg.max_conns;
            std::thread::Builder::new()
                .name("net-accept".to_string())
                .spawn(move || accept_loop(listener, shared, stop, conns, max_conns))?
        };
        Ok(NetServer {
            local_addr,
            shared: Some(shared),
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Run `f` against the pool under the server's mutex. This is the
    /// only pool access the server exposes while serving — handing out
    /// the lock, not the pool, keeps [`NetServer::drain`]'s single
    /// ownership intact. Tests use it to reach deterministic hooks
    /// like [`Pool::pause_worker`].
    pub fn with_pool<R>(&self, f: impl FnOnce(&mut Pool) -> R) -> R {
        let mut guard = lock(&self.shared().pool);
        f(&mut guard)
    }

    fn shared(&self) -> &Arc<Shared> {
        self.shared.as_ref().expect("server not drained")
    }

    /// Snapshot the server's own counters.
    pub fn stats(&self) -> NetStats {
        self.shared().metrics.stats()
    }

    /// The introspection object the `stats` wire op serves, as one JSON
    /// object on one line — exactly the frame payload, so
    /// `pool_server --stats-interval` can emit it verbatim. Ticks the
    /// pool's stats window first (windowing is pull-driven; see
    /// [`polyview_pool::Pool::tick_window`]).
    pub fn stats_json(&self) -> String {
        stats_object(self.shared())
    }

    /// The pool health verdict ([`polyview_pool::Pool::health`]): a
    /// brief lock, no worker round-trip — safe while every queue is
    /// full.
    pub fn health(&self) -> HealthReport {
        self.with_pool(|p| p.health())
    }

    /// `net.*` and pool metrics as JSON lines (one object per line,
    /// same shape as [`polyview_pool::Pool::metrics_json`]). A brief
    /// lock, no worker round-trip — safe while a replica is paused.
    pub fn metrics_json(&self) -> String {
        let mut out = self.shared().metrics.registry.to_json_lines();
        out.push_str(&self.with_pool(|p| p.metrics_json()));
        out
    }

    /// Graceful drain: stop accepting, let every in-flight request
    /// finish and flush its response, close all connections, and
    /// return the pool (its workers still running).
    pub fn drain(mut self) -> Pool {
        self.drain_threads();
        let shared = self.shared.take().expect("server not drained");
        match Arc::try_unwrap(shared) {
            Ok(s) => s.pool.into_inner().unwrap_or_else(|e| e.into_inner()),
            Err(_) => unreachable!("all connection threads joined; no pool clones remain"),
        }
    }

    /// Drain, then shut the pool down too.
    pub fn shutdown(self) {
        let mut pool = self.drain();
        let _ = pool.drain();
        pool.shutdown();
    }

    /// Stop accepting and join every thread. Idempotent.
    fn drain_threads(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            // The accept thread blocks in `listener.incoming()`; a
            // throwaway local connection wakes it so it can observe
            // the stop flag. If it already exited, the connect just
            // fails — fine either way.
            let _ = TcpStream::connect(self.local_addr);
            let _ = accept.join();
        }
        let handles: Vec<ConnHandle> = lock(&self.conns).drain(..).collect();
        for conn in &handles {
            // EOF for the reader without killing queued responses: the
            // write half stays open until the writer thread finishes.
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        for conn in handles {
            let _ = conn.join.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // `drain`/`shutdown` already joined everything; this makes a
        // plain drop equally safe (no detached threads holding the
        // pool).
        self.drain_threads();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<ConnHandle>>>,
    max_conns: usize,
) {
    let mut next_conn: u64 = 0;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Reap finished connections so the cap counts live ones only.
        lock(&conns).retain(|c| !c.join.is_finished());
        if shared.metrics.conns_open.get() >= max_conns as u64 {
            shared.metrics.rejected_busy.inc();
            let mut line = proto::busy_line(None);
            line.push('\n');
            let _ = stream.write_all(line.as_bytes());
            continue; // dropping the stream closes it
        }
        let conn_id = next_conn;
        next_conn += 1;
        let reader_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        shared.metrics.conns_accepted.inc();
        shared.metrics.conns_open.add(1);
        if let Some(t) = &shared.telemetry {
            // No request yet, so no trace id: conn attr is the join
            // key until the first frame's `net.read` lands.
            let now = t.clock.now_ns();
            t.emit("net.accepted", 0, now, 0, conn_id);
        }
        let conn_shared = Arc::clone(&shared);
        let join = match std::thread::Builder::new()
            .name(format!("net-conn-{conn_id}"))
            .spawn(move || conn_main(conn_id, reader_stream, conn_shared))
        {
            Ok(j) => j,
            Err(_) => {
                shared.metrics.conns_open.sub(1);
                continue;
            }
        };
        lock(&conns).push(ConnHandle { stream, join });
    }
}

/// What travels from reader to writer: pool-accepted requests, plus the
/// `watch`/`unwatch` controls — routed through the writer (not answered
/// as immediates) so their acks keep submission order relative to the
/// tickets around them, and so the watch interval can live as plain
/// writer-local state.
enum PendingReply {
    /// A `stmt` or `batch` frame's ticket; `batch` picks the reply line.
    Serve {
        id: u64,
        ticket: Ticket,
        batch: bool,
    },
    Watch {
        id: u64,
        interval_ms: u64,
    },
    Unwatch {
        id: u64,
    },
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line is in the buffer (CR trimmed, LF consumed).
    Line,
    /// The line exceeded the frame bound; it was consumed and
    /// discarded up to and including its LF.
    TooLong,
    /// Clean end of stream.
    Eof,
}

/// Read one `\n`-terminated line into `buf`, never holding more than
/// `max` payload bytes: once a line overflows the bound the rest of it
/// is consumed in discard mode, so a hostile megabyte line costs
/// bounded memory and one `proto` error, not a disconnect.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineRead> {
    buf.clear();
    let mut discarding = false;
    loop {
        let (newline_at, chunk_len) = {
            let chunk = match reader.fill_buf() {
                Ok(c) => c,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                // EOF. A trailing unterminated line still counts.
                return Ok(if discarding {
                    LineRead::TooLong
                } else if buf.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line
                });
            }
            let newline_at = chunk.iter().position(|&b| b == b'\n');
            let take = newline_at.unwrap_or(chunk.len());
            if !discarding {
                buf.extend_from_slice(&chunk[..take]);
                if buf.len() > max {
                    discarding = true;
                    buf.clear();
                }
            }
            (newline_at, chunk.len())
        };
        match newline_at {
            Some(pos) => {
                reader.consume(pos + 1);
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                return Ok(if discarding {
                    LineRead::TooLong
                } else {
                    LineRead::Line
                });
            }
            None => reader.consume(chunk_len),
        }
    }
}

fn write_line(out: &Mutex<TcpStream>, line: &str) -> std::io::Result<()> {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    let mut stream = lock(out);
    // Under [`NetConfig::write_timeout_ms`] a client that has stopped
    // draining its socket turns this into an error once the kernel
    // buffer fills; the caller treats any error as connection-dead.
    stream.write_all(framed.as_bytes())
}

/// Write a reader-side immediate response, counting it. An error means
/// the peer is unreachable: the caller abandons the connection.
fn send_immediate(shared: &Shared, out: &Mutex<TcpStream>, line: &str) -> std::io::Result<()> {
    match write_line(out, line) {
        Ok(()) => {
            shared.metrics.responses.inc();
            Ok(())
        }
        Err(e) => {
            shared.metrics.write_errors.inc();
            Err(e)
        }
    }
}

fn conn_main(conn_id: u64, stream: TcpStream, shared: Arc<Shared>) {
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            shared.metrics.conns_open.sub(1);
            return;
        }
    };
    // Bound every write the way reads are bounded: a client that stops
    // draining makes writes fail instead of buffering unboundedly.
    if let Some(t) = shared.write_timeout {
        let _ = write_half.set_write_timeout(Some(t));
    }
    // Immediate responses (reader) and ticket responses (writer) share
    // the socket through this mutex; each line is written whole.
    let out = Arc::new(Mutex::new(write_half));
    let in_flight = Arc::new(AtomicU64::new(0));
    let (pending_tx, pending_rx) = channel::<PendingReply>();
    let writer = {
        let out = Arc::clone(&out);
        let shared = Arc::clone(&shared);
        let in_flight = Arc::clone(&in_flight);
        std::thread::Builder::new()
            .name(format!("net-write-{conn_id}"))
            .spawn(move || writer_main(pending_rx, out, shared, in_flight))
    };
    let writer = match writer {
        Ok(w) => w,
        Err(_) => {
            shared.metrics.conns_open.sub(1);
            return;
        }
    };

    // Until a `hello` pins one, every connection gets a private
    // session id: affinity groups its own statements, and the high bit
    // keeps it clear of small hand-picked ids.
    let mut session: u64 = (1 << 63) | conn_id;
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match read_bounded_line(&mut reader, &mut buf, shared.max_frame_bytes) {
            Err(_) | Ok(LineRead::Eof) => break,
            Ok(LineRead::TooLong) => {
                shared.metrics.frames_invalid.inc();
                let msg = format!("frame exceeds {} bytes", shared.max_frame_bytes);
                if send_immediate(&shared, &out, &proto::err_line(None, "proto", &msg)).is_err() {
                    break;
                }
            }
            Ok(LineRead::Line) => {
                let line = String::from_utf8_lossy(&buf);
                if line.trim().is_empty() {
                    continue; // blank keep-alive lines are free
                }
                let read_ns = shared.clock.now_ns();
                let served = handle_frame(
                    &shared,
                    &out,
                    &pending_tx,
                    &in_flight,
                    conn_id,
                    &mut session,
                    &line,
                    read_ns,
                );
                if served.is_err() {
                    // The write half is gone; stop reading too.
                    break;
                }
            }
        }
    }
    drop(pending_tx); // writer drains remaining tickets, then exits
    let _ = writer.join();
    shared.metrics.conns_open.sub(1);
}

#[allow(clippy::too_many_arguments)]
fn handle_frame(
    shared: &Arc<Shared>,
    out: &Mutex<TcpStream>,
    pending_tx: &Sender<PendingReply>,
    in_flight: &AtomicU64,
    conn_id: u64,
    session: &mut u64,
    line: &str,
    read_ns: u64,
) -> std::io::Result<()> {
    let frame = match proto::decode_frame(line) {
        Ok(f) => f,
        Err(e) => {
            shared.metrics.frames_invalid.inc();
            return send_immediate(shared, out, &proto::err_line(e.id, "proto", &e.message));
        }
    };
    let decoded_ns = shared.clock.now_ns();
    shared
        .metrics
        .read_to_decode_ns
        .observe(decoded_ns.saturating_sub(read_ns));
    shared.metrics.frames_decoded.inc();
    let id = frame.id;
    // Control commands answer here; a `stmt` is a `batch` of one and both
    // fall through to the one submit below.
    let (stmts, batch) = match frame.cmd {
        Command::Ping => return send_immediate(shared, out, &proto::ok_line(id, "pong")),
        Command::Hello { session: s } => {
            *session = s;
            return send_immediate(shared, out, &proto::ok_line(id, &format!("session {s}")));
        }
        Command::Health => {
            // An immediate like `ping`: `Pool::health` reads shared
            // replica state under a brief mutex hold (the pool lock is
            // never held across a blocking operation), so this answers
            // even while every pool queue is full.
            let report = lock(&shared.pool).health();
            return send_immediate(shared, out, &proto::health_line(id, &report));
        }
        Command::Stats => {
            let obj = stats_object(shared);
            return send_immediate(shared, out, &proto::stats_line(id, &obj));
        }
        Command::Watch { interval_ms } => {
            // Through the writer, not an immediate: the ack lands in
            // submission order, and pushes are writer-local state.
            let _ = pending_tx.send(PendingReply::Watch { id, interval_ms });
            return Ok(());
        }
        Command::Unwatch => {
            let _ = pending_tx.send(PendingReply::Unwatch { id });
            return Ok(());
        }
        Command::Stmt { src } => (vec![src], false),
        Command::Batch { stmts } => (stmts, true),
    };
    if in_flight.load(Ordering::SeqCst) >= shared.max_in_flight as u64 {
        return reject_busy(shared, out, id);
    }
    let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
    let submitted = lock(&shared.pool).submit_batch(*session, &refs);
    match submitted {
        Err(e) => send_immediate(
            shared,
            out,
            &proto::err_line(Some(id), proto::error_kind(&e), &e.to_string()),
        ),
        Ok(Submit::Full) => reject_busy(shared, out, id),
        Ok(Submit::Queued(ticket)) => {
            emit_frame_events(shared, ticket.trace_id(), conn_id, read_ns, decoded_ns);
            in_flight.fetch_add(1, Ordering::SeqCst);
            let _ = pending_tx.send(PendingReply::Serve { id, ticket, batch });
            Ok(())
        }
    }
}

fn reject_busy(shared: &Shared, out: &Mutex<TcpStream>, id: u64) -> std::io::Result<()> {
    shared.metrics.rejected_busy.inc();
    send_immediate(shared, out, &proto::busy_line(Some(id)))
}

/// Stamp `net.read` and `net.decoded` with the trace id the pool
/// minted at submit, so one id spans socket → router → worker →
/// engine. Emitted *after* submit because the id does not exist
/// earlier; the events' own timestamps restore wire order.
fn emit_frame_events(
    shared: &Shared,
    trace_id: Option<u64>,
    conn_id: u64,
    read_ns: u64,
    decoded_ns: u64,
) {
    if let (Some(t), Some(trace_id)) = (&shared.telemetry, trace_id) {
        t.emit("net.read", trace_id, read_ns, 0, conn_id);
        t.emit(
            "net.decoded",
            trace_id,
            read_ns,
            decoded_ns.saturating_sub(read_ns),
            conn_id,
        );
    }
}

fn writer_main(
    pending: Receiver<PendingReply>,
    out: Arc<Mutex<TcpStream>>,
    shared: Arc<Shared>,
    in_flight: Arc<AtomicU64>,
) {
    // Watch state is writer-local: the interval, the next push
    // deadline, and the per-connection push sequence number.
    let mut watch: Option<Duration> = None;
    let mut next_push: Option<Instant> = None;
    let mut push_seq: u64 = 0;
    // Once a write fails the peer is unreachable: shut the socket (the
    // reader sees EOF and exits), stop watching, and keep draining the
    // channel so every accepted ticket still releases its in-flight
    // slot (the results are discarded — there is nowhere to send them).
    let mut dead = false;
    loop {
        let reply = match next_push {
            Some(deadline) if !dead => {
                let now = Instant::now();
                if now >= deadline {
                    // A push is due. Pushes are generated only here —
                    // when the ticket channel is idle — so pool replies
                    // always take priority and a slow interval *sheds*
                    // missed pushes rather than queueing them: the next
                    // deadline counts from after this write finishes.
                    push_seq += 1;
                    let obj = stats_object(&shared);
                    match write_line(&out, &proto::push_line(push_seq, &obj)) {
                        Ok(()) => {
                            shared.metrics.watch_pushes.inc();
                            next_push = watch.map(|i| Instant::now() + i);
                        }
                        Err(_) => {
                            shared.metrics.write_errors.inc();
                            dead = true;
                            watch = None;
                            next_push = None;
                            let _ = lock(&out).shutdown(Shutdown::Both);
                        }
                    }
                    continue;
                }
                match pending.recv_timeout(deadline - now) {
                    Ok(r) => r,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            _ => match pending.recv() {
                Ok(r) => r,
                Err(_) => break,
            },
        };
        let line = match reply {
            PendingReply::Serve { id, ticket, batch } => {
                if dead {
                    drop(ticket); // the worker's reply send is a no-op
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                let line = if batch {
                    ticket
                        .wait_all()
                        .map(|results| proto::results_line(id, &results))
                } else {
                    ticket.wait().map(|v| proto::ok_line(id, &v))
                }
                .unwrap_or_else(|e| {
                    proto::err_line(Some(id), proto::error_kind(&e), &e.to_string())
                });
                // Release the slot *before* the write, not after: the
                // client may observe the response and pipeline its next
                // request faster than this thread runs, and a late
                // release would answer that compliant request `busy`.
                // A non-draining client is still bounded — its tickets
                // hold slots until this thread reaches them (the
                // channel never holds more than `max_in_flight`), and a
                // write stuck on its full socket trips the write
                // timeout below.
                in_flight.fetch_sub(1, Ordering::SeqCst);
                line
            }
            PendingReply::Watch { id, interval_ms } => {
                if dead {
                    continue;
                }
                let interval = Duration::from_millis(interval_ms);
                watch = Some(interval);
                next_push = Some(Instant::now() + interval);
                proto::ok_line(id, &format!("watch {interval_ms}ms"))
            }
            PendingReply::Unwatch { id } => {
                if dead {
                    continue;
                }
                watch = None;
                next_push = None;
                proto::ok_line(id, "unwatch")
            }
        };
        match write_line(&out, &line) {
            Ok(()) => shared.metrics.responses.inc(),
            Err(_) => {
                shared.metrics.write_errors.inc();
                dead = true;
                watch = None;
                next_push = None;
                let _ = lock(&out).shutdown(Shutdown::Both);
            }
        }
    }
}

/// Build the one-object `stats` payload: verdict + windowed view +
/// cumulative registries + per-worker rows + the slow ring + `net.*`
/// counters. One brief pool lock copies everything out; serialization
/// happens after the lock drops.
fn stats_object(shared: &Shared) -> String {
    let at_ns = shared.clock.now_ns();
    let (report, window, cumulative, slow) = {
        let mut pool = lock(&shared.pool);
        // Windowing is pull-driven: serving `stats` is what ticks it.
        pool.tick_window();
        (
            pool.health(),
            pool.window(),
            pool.registry_snapshot(at_ns),
            pool.slow_requests(),
        )
    };

    let window_obj = match &window {
        None => "null".to_string(),
        Some(w) => window_object(w),
    };

    let mut cum_hists = ObjectBuilder::new();
    for (name, h) in &cumulative.histograms {
        cum_hists = cum_hists.field_raw(name, &hist_object(h));
    }
    let cumulative_obj = ObjectBuilder::new()
        .field_raw("counters", &u64_map_object(&cumulative.counters))
        .field_raw("gauges", &u64_map_object(&cumulative.gauges))
        .field_raw("histograms", &cum_hists.finish())
        .finish();

    let mut workers_arr = String::from("[");
    for (i, r) in report.per_worker.iter().enumerate() {
        if i > 0 {
            workers_arr.push(',');
        }
        workers_arr.push_str(
            &ObjectBuilder::new()
                .field_u64("worker", r.worker as u64)
                .field_u64("generation", r.generation)
                .field_bool("live", r.live)
                .field_u64("applied", r.applied)
                .field_u64("replay_lag", r.replay_lag)
                .field_u64("queue_depth", r.queue_depth)
                .field_u64("replay_errors", r.replay_errors)
                .finish(),
        );
    }
    workers_arr.push(']');

    let mut slow_arr = String::from("[");
    for (i, s) in slow.iter().enumerate() {
        if i > 0 {
            slow_arr.push(',');
        }
        slow_arr.push_str(
            &ObjectBuilder::new()
                .field_u64("id", s.id)
                .field_u64("session", s.session)
                .field_u64("worker", s.worker as u64)
                .field_u64("generation", s.generation)
                .field_str("class", &s.class.to_string())
                .field_u64("e2e_ns", s.e2e_ns)
                .field_u64("queue_wait_ns", s.queue_wait_ns)
                .field_u64("catchup_ns", s.catchup_ns)
                .field_str("src", &s.src)
                .finish(),
        );
    }
    slow_arr.push(']');

    let n = shared.metrics.stats();
    let net_obj = ObjectBuilder::new()
        .field_u64("conns_open", n.conns_open)
        .field_u64("conns_accepted", n.conns_accepted)
        .field_u64("rejected_busy", n.rejected_busy)
        .field_u64("frames_decoded", n.frames_decoded)
        .field_u64("frames_invalid", n.frames_invalid)
        .field_u64("responses", n.responses)
        .field_u64("watch_pushes", n.watch_pushes)
        .field_u64("write_errors", n.write_errors)
        .field_raw("read_to_decode_ns", &hist_object(&n.read_to_decode))
        .finish();

    ObjectBuilder::new()
        .field_u64("at_ns", at_ns)
        .field_str("health", report.health.as_str())
        .field_str_array("health_reasons", report.health.reasons())
        .field_u64("workers", report.workers as u64)
        .field_u64("log_len", report.log_len)
        .field_u64("max_replay_lag", report.max_replay_lag)
        .field_u64("max_queue_depth", report.max_queue_depth)
        .field_raw("busy_rate", &proto::json_f64(report.busy_rate))
        .field_raw("error_rate", &proto::json_f64(report.error_rate))
        .field_raw("window", &window_obj)
        .field_raw("cumulative", &cumulative_obj)
        .field_raw("per_worker", &workers_arr)
        .field_raw("slow", &slow_arr)
        .field_raw("net", &net_obj)
        .finish()
}

/// The windowed section: counter deltas, per-second rates, latest gauge
/// levels, and windowed histogram quantiles.
fn window_object(w: &WindowView) -> String {
    let mut rates = ObjectBuilder::new();
    for name in w.counters.keys() {
        rates = rates.field_raw(name, &proto::json_f64(w.rate_per_sec(name)));
    }
    let mut hists = ObjectBuilder::new();
    for (name, h) in &w.histograms {
        hists = hists.field_raw(name, &hist_object(h));
    }
    ObjectBuilder::new()
        .field_u64("from_ns", w.from_ns)
        .field_u64("to_ns", w.to_ns)
        .field_u64("span_ns", w.span_ns())
        .field_raw("counters", &u64_map_object(&w.counters))
        .field_raw("rates", &rates.finish())
        .field_raw("gauges", &u64_map_object(&w.gauges))
        .field_raw("histograms", &hists.finish())
        .finish()
}

fn u64_map_object(map: &BTreeMap<String, u64>) -> String {
    let mut b = ObjectBuilder::new();
    for (name, &v) in map {
        b = b.field_u64(name, v);
    }
    b.finish()
}

fn hist_object(h: &HistogramSnapshot) -> String {
    ObjectBuilder::new()
        .field_u64("count", h.count)
        .field_u64("sum", h.sum)
        .field_u64("min", if h.count == 0 { 0 } else { h.min })
        .field_u64("max", h.max)
        .field_u64("p50", h.quantile(0.50))
        .field_u64("p95", h.quantile(0.95))
        .field_u64("p99", h.quantile(0.99))
        .finish()
}
