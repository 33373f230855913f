//! Server side of wire protocol v2: a per-connection demultiplexer that
//! accepts N in-flight requests and streams responses back tagged by
//! request id, completing **out of order** — a read routed to one shard
//! never serializes behind a read parked on another shard's lock.
//!
//! Shape per connection:
//!
//! * the connection thread reads frames and answers protocol traffic
//!   (`Hello`, `Ping`, `Prepare`, `Goodbye`) inline;
//! * `Command`/`Call`/`Execute` requests are dispatched to a small
//!   worker pool over a channel — each worker runs the request through
//!   the same admission gate + readers-writer lock discipline as the v1
//!   path (`server::run_line`/`server::run_call`) and
//!   writes its response frame under the shared writer mutex whenever it
//!   finishes;
//! * recoverable decode errors (unknown opcode, malformed payload, bad
//!   version) answer an [`opcode::ERROR`] frame and the connection keeps
//!   serving — the checksummed header kept the stream in sync. Fatal
//!   framing errors close the connection.
//!
//! Prepared statements are per-connection: `Prepare` registers a command
//! template with `?` placeholders, `Execute` substitutes typed
//! positional arguments and runs it like a framed command line.

use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{self, mpsc, Arc, Condvar};
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use procdb_obs::TraceContext;

/// One demux job: request id, decoded request, the trace context the
/// reader attached (client-chosen or sampled), and the client's deadline
/// budget (from the `FLAG_DEADLINE` frame extension), if any.
type DemuxJob = (u64, Request, Option<TraceContext>, Option<Duration>);
use procdb_query::Value;
use procdb_wire::{errcode, opcode, read_frame, write_response, Request, Response, WireError};

use crate::server::{panic_message, run_call, run_line_deadline, Response as LineResponse, Shared};

/// Workers per v2 connection: the in-connection parallelism that lets
/// pipelined requests complete out of order. Small and fixed — the
/// session admission gate is the real throttle.
const WORKERS: usize = 4;

/// Largest pipeline depth acknowledged in the handshake (advisory; the
/// server never refuses deeper pipelining, the admission gate sheds).
const MAX_PIPELINE: u32 = 256;

/// Wire-protocol observability, hung off the server's `Shared` state and
/// created eagerly at startup so every `procdb_wire_*` series is present
/// in the `metrics` exposition from the first scrape.
pub(crate) struct WireMetrics {
    /// `procdb_wire_connections_total{proto=v1|v2}`.
    pub(crate) conns_v1: procdb_obs::Counter,
    /// See [`WireMetrics::conns_v1`].
    pub(crate) conns_v2: procdb_obs::Counter,
    active_v1_gauge: procdb_obs::Gauge,
    active_v2_gauge: procdb_obs::Gauge,
    active_v1: AtomicUsize,
    active_v2: AtomicUsize,
    /// `procdb_wire_requests_total{opcode=...}`, one per request opcode.
    requests: Vec<(u8, procdb_obs::Counter)>,
    /// Recoverable decode errors answered with an ERROR frame.
    pub(crate) decode_errors: procdb_obs::Counter,
    max_pipeline_gauge: procdb_obs::Gauge,
    max_pipeline: AtomicUsize,
}

impl WireMetrics {
    pub(crate) fn new(reg: &procdb_obs::Registry) -> WireMetrics {
        let ops = [
            (opcode::HELLO, "hello"),
            (opcode::COMMAND, "command"),
            (opcode::CALL, "call"),
            (opcode::PREPARE, "prepare"),
            (opcode::EXECUTE, "execute"),
            (opcode::PING, "ping"),
            (opcode::GOODBYE, "goodbye"),
        ];
        WireMetrics {
            conns_v1: reg.counter("procdb_wire_connections_total", &[("proto", "v1")]),
            conns_v2: reg.counter("procdb_wire_connections_total", &[("proto", "v2")]),
            active_v1_gauge: reg.gauge("procdb_wire_active_connections", &[("proto", "v1")]),
            active_v2_gauge: reg.gauge("procdb_wire_active_connections", &[("proto", "v2")]),
            active_v1: AtomicUsize::new(0),
            active_v2: AtomicUsize::new(0),
            requests: ops
                .iter()
                .map(|(op, label)| {
                    (
                        *op,
                        reg.counter("procdb_wire_requests_total", &[("opcode", label)]),
                    )
                })
                .collect(),
            decode_errors: reg.counter("procdb_wire_decode_errors_total", &[]),
            max_pipeline_gauge: reg.gauge("procdb_wire_max_pipeline_depth", &[]),
            max_pipeline: AtomicUsize::new(0),
        }
    }

    /// Record a connection opening; the returned guard closes it.
    pub(crate) fn conn_open(&self, v2: bool) -> ConnOpenGuard<'_> {
        let (total, active, gauge) = if v2 {
            (&self.conns_v2, &self.active_v2, &self.active_v2_gauge)
        } else {
            (&self.conns_v1, &self.active_v1, &self.active_v1_gauge)
        };
        total.inc();
        let n = active.fetch_add(1, Ordering::SeqCst) + 1;
        gauge.set(n as f64);
        ConnOpenGuard { active, gauge }
    }

    /// Count one request frame by opcode (unknown opcodes are not
    /// counted here; they land in `decode_errors`).
    pub(crate) fn count_request(&self, op: u8) {
        if let Some((_, c)) = self.requests.iter().find(|(o, _)| *o == op) {
            c.inc();
        }
    }

    /// Track the largest pipeline depth (requests simultaneously in
    /// flight on one connection) ever observed.
    pub(crate) fn observe_depth(&self, depth: usize) {
        let mut seen = self.max_pipeline.load(Ordering::Relaxed);
        while depth > seen {
            match self.max_pipeline.compare_exchange_weak(
                seen,
                depth,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.max_pipeline_gauge.set(depth as f64);
                    break;
                }
                Err(now) => seen = now,
            }
        }
    }

    /// Protocol-mix lines appended to the `stats` command's output.
    pub(crate) fn mix_text(&self) -> String {
        let mut s = format!(
            "wire: v1 connections={} (active {}), v2 connections={} (active {}), \
             max pipeline depth={}\n",
            self.conns_v1.get(),
            self.active_v1.load(Ordering::SeqCst),
            self.conns_v2.get(),
            self.active_v2.load(Ordering::SeqCst),
            self.max_pipeline.load(Ordering::SeqCst),
        );
        let ops: Vec<String> = self
            .requests
            .iter()
            .filter(|(_, c)| c.get() > 0)
            .map(|(op, c)| format!("{}={}", op_label(*op), c.get()))
            .collect();
        if ops.is_empty() {
            s.push_str("wire requests by opcode: (none)");
        } else {
            s.push_str(&format!("wire requests by opcode: {}", ops.join(" ")));
        }
        s
    }
}

fn op_label(op: u8) -> &'static str {
    match op {
        opcode::HELLO => "hello",
        opcode::COMMAND => "command",
        opcode::CALL => "call",
        opcode::PREPARE => "prepare",
        opcode::EXECUTE => "execute",
        opcode::PING => "ping",
        opcode::GOODBYE => "goodbye",
        _ => "other",
    }
}

/// Decrements the per-proto active-connection count on drop.
pub(crate) struct ConnOpenGuard<'a> {
    active: &'a AtomicUsize,
    gauge: &'a procdb_obs::Gauge,
}

impl Drop for ConnOpenGuard<'_> {
    fn drop(&mut self) {
        let n = self.active.fetch_sub(1, Ordering::SeqCst) - 1;
        self.gauge.set(n as f64);
    }
}

/// A `Read` adapter over the 25ms-timeout socket: retries timeouts while
/// checking the shutdown and connection-close flags, so `read_frame` can
/// block "forever" without ever missing a shutdown.
struct PatientReader<'a> {
    inner: &'a mut BufReader<TcpStream>,
    shutdown: &'a AtomicBool,
    closing: &'a AtomicBool,
}

impl Read for PatientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted =>
                {
                    if self.shutdown.load(Ordering::SeqCst) || self.closing.load(Ordering::SeqCst) {
                        // Surface as a clean EOF: `read_frame` maps a
                        // zero-byte read at a frame boundary to `Closed`.
                        return Ok(0);
                    }
                    continue;
                }
                other => return other,
            }
        }
    }
}

/// Per-connection mutable state shared between the reader thread and the
/// worker pool.
struct ConnState {
    /// Serializes response frames onto the socket.
    writer: Mutex<TcpStream>,
    /// Requests dispatched but not yet answered (pipeline depth).
    in_flight: AtomicUsize,
    /// `drained` is signalled under `drain` when `in_flight` drops to 0;
    /// the `Goodbye` barrier waits on it.
    drain: sync::Mutex<()>,
    drained: Condvar,
    /// Set when a worker saw `quit` (Closed) — the reader drains and
    /// closes.
    closing: AtomicBool,
    /// Prepared statements: id → template text.
    prepared: Mutex<HashMap<u32, String>>,
    next_stmt: AtomicUsize,
}

impl ConnState {
    fn write(&self, request_id: u64, resp: &Response) {
        let mut w = self.writer.lock();
        let _ = write_response(&mut *w, request_id, resp);
        let _ = w.flush();
    }

    /// A worker answered one request: count it out of the pipeline and
    /// wake the drain barrier if that was the last one.
    fn answered(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _drain = self.drain.lock().unwrap_or_else(|e| e.into_inner());
            self.drained.notify_all();
        }
    }

    /// Wait until no request is in flight or `drain_by` has passed;
    /// returns how many are still in flight (0: drained). The count is
    /// read under `drain`, which [`Self::answered`] takes to notify, so
    /// the last answer cannot slip between the read and the wait.
    fn wait_drained(&self, drain_by: Instant) -> usize {
        let mut drain = self.drain.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let left = self.in_flight.load(Ordering::SeqCst);
            let now = Instant::now();
            if left == 0 || now >= drain_by {
                return left;
            }
            drain = match self.drained.wait_timeout(drain, drain_by - now) {
                Ok((drain, _)) => drain,
                Err(e) => e.into_inner().0,
            };
        }
    }
}

/// Serve one sniffed-as-v2 connection. `reader` still holds the first
/// (magic) byte buffered; `writer` is a second handle to the same
/// socket. Returns when the client says goodbye, the stream dies, or the
/// server shuts down.
pub(crate) fn serve_v2(mut reader: BufReader<TcpStream>, writer: TcpStream, shared: Arc<Shared>) {
    let _active = shared.wire.conn_open(true);
    let state = Arc::new(ConnState {
        writer: Mutex::new(writer),
        in_flight: AtomicUsize::new(0),
        drain: sync::Mutex::new(()),
        drained: Condvar::new(),
        closing: AtomicBool::new(false),
        prepared: Mutex::new(HashMap::new()),
        next_stmt: AtomicUsize::new(1),
    });

    // Worker pool: a shared receiver behind a mutex; whichever worker is
    // free picks up the next dispatched request, so slow requests never
    // block fast ones behind them.
    let (tx, rx) = mpsc::channel::<DemuxJob>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let rx = rx.clone();
            let shared = shared.clone();
            let state = state.clone();
            thread::Builder::new()
                .name("procdb-wire-worker".to_string())
                .spawn(move || worker_loop(&rx, &shared, &state))
        })
        .filter_map(|h| h.ok())
        .collect();

    reader_loop(&mut reader, &shared, &state, &tx);

    // Hang up: close the channel so idle workers exit, then join them
    // (any request already picked up still writes its response first).
    drop(tx);
    for h in workers {
        let _ = h.join();
    }
}

fn reader_loop(
    reader: &mut BufReader<TcpStream>,
    shared: &Arc<Shared>,
    state: &Arc<ConnState>,
    tx: &mpsc::Sender<DemuxJob>,
) {
    loop {
        let frame = {
            let mut patient = PatientReader {
                inner: reader,
                shutdown: &shared.shutdown,
                closing: &state.closing,
            };
            match read_frame(&mut patient) {
                Ok(f) => f,
                Err(WireError::Closed) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        state.write(
                            0,
                            &Response::Error {
                                code: errcode::SHUTDOWN,
                                message: "server shutting down".to_string(),
                            },
                        );
                    }
                    return;
                }
                // Fatal framing error: the byte stream can no longer be
                // trusted; close without guessing.
                Err(_) => return,
            }
        };
        let request_id = frame.request_id;
        let (req, client_trace, budget_ms) = match Request::decode_ext(&frame) {
            Ok(pair) => pair,
            Err(e) if e.is_recoverable() => {
                // The checksummed header kept the stream in sync: answer
                // a typed error and keep serving this connection.
                shared.wire.decode_errors.inc();
                let code = match e {
                    WireError::UnknownOpcode(_) => errcode::UNKNOWN_OPCODE,
                    _ => errcode::MALFORMED,
                };
                state.write(
                    request_id,
                    &Response::Error {
                        code,
                        message: e.to_string(),
                    },
                );
                continue;
            }
            Err(_) => return,
        };
        shared.wire.count_request(frame.opcode);
        // A client budget never extends the server's own patience: the
        // effective deadline is min(client budget, server deadline).
        let budget = budget_ms.map(|ms| Duration::from_millis(u64::from(ms)).min(shared.deadline));
        match req {
            // Protocol traffic is answered inline — no engine access.
            Request::Hello { pipeline, .. } => {
                state.write(
                    request_id,
                    &Response::HelloAck {
                        banner: "procdb-server wire v2+trace".to_string(),
                        max_pipeline: pipeline.clamp(1, MAX_PIPELINE),
                    },
                );
            }
            Request::Ping => state.write(request_id, &Response::Pong),
            Request::Prepare { template } => {
                let resp = match validate_template(&template) {
                    Ok(()) => {
                        let stmt = state.next_stmt.fetch_add(1, Ordering::SeqCst) as u32;
                        state.prepared.lock().insert(stmt, template);
                        Response::Prepared { stmt }
                    }
                    Err(msg) => Response::Error {
                        code: errcode::PARSE,
                        message: msg,
                    },
                };
                state.write(request_id, &resp);
            }
            Request::Goodbye => {
                // Drain the pipeline so every admitted request answers
                // before the farewell, then close. The drain barrier is
                // bounded: the client's budget (if sent) or the server's
                // own deadline caps the wait, so a wedged request cannot
                // hold the connection hostage — the farewell degrades to
                // a typed DEADLINE error and the connection closes.
                let drain_by = Instant::now() + budget.unwrap_or(shared.deadline);
                let resp = match state.wait_drained(drain_by) {
                    0 => Response::Bye,
                    left => Response::Error {
                        code: errcode::DEADLINE,
                        message: format!(
                            "DEADLINE (goodbye drain barrier expired with \
                             {left} request(s) still in flight)"
                        ),
                    },
                };
                state.write(request_id, &resp);
                return;
            }
            // Engine-touching requests go to the worker pool and may
            // complete out of submission order.
            req @ (Request::Command { .. } | Request::Call { .. } | Request::Execute { .. }) => {
                // Trace context is decided here, before the request can
                // overtake its neighbours in the worker pool: a
                // client-supplied id always traces; otherwise the
                // deterministic sampler decides.
                let ctx = match client_trace {
                    Some(tid) => Some(TraceContext::root(tid)),
                    None => procdb_obs::global().sample_request(),
                };
                let depth = state.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                shared.wire.observe_depth(depth);
                if tx.send((request_id, req, ctx, budget)).is_err() {
                    // Workers are gone (shutdown); undo and close.
                    state.in_flight.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
            }
        }
        if state.closing.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn worker_loop(
    rx: &Arc<Mutex<mpsc::Receiver<DemuxJob>>>,
    shared: &Arc<Shared>,
    state: &Arc<ConnState>,
) {
    loop {
        // Hold the receiver lock only to pull one job.
        let job = rx.lock().recv();
        let Ok((request_id, req, ctx, budget)) = job else {
            return;
        };
        let op = req.opcode();
        let resp = catch_unwind(AssertUnwindSafe(|| {
            // Root the request's span tree on this worker thread; every
            // span opened below (session, shard workers via explicit
            // capture, storage) links under it.
            let reg = procdb_obs::global();
            let _ctx = ctx.map(|c| reg.install_context(c));
            let _root = procdb_obs::span!(reg, "wire.request", proto = 2, opcode = op);
            handle_request(shared, state, req, budget)
        }))
        .unwrap_or_else(|panic| Response::Error {
            code: errcode::INTERNAL,
            message: panic_message(&*panic).replace('\n', "; "),
        });
        if matches!(resp, Response::Bye) {
            state.closing.store(true, Ordering::SeqCst);
        }
        state.write(request_id, &resp);
        state.answered();
    }
}

fn handle_request(
    shared: &Arc<Shared>,
    state: &Arc<ConnState>,
    req: Request,
    budget: Option<Duration>,
) -> Response {
    match req {
        Request::Command { line } => {
            // `shutdown` is a server-level verb handled above `run_line`
            // on the v1 path; mirror that here so v2 clients can stop
            // the server too.
            if line.trim().eq_ignore_ascii_case("shutdown") {
                shared.shutdown.store(true, Ordering::SeqCst);
                return Response::OkText {
                    text: "shutting down".to_string(),
                };
            }
            line_to_wire(run_line_deadline(shared, &line, budget))
        }
        Request::Call { name, args } => {
            // Same budget discipline as the command path: install the
            // client deadline so lock waits and shard workers inherit
            // the remaining budget.
            let _dl = budget.map(|b| procdb_obs::install_deadline(Instant::now() + b));
            match run_call(shared, &name, &args) {
                Ok((outcome, _)) => Response::CallOk {
                    text: outcome.text,
                    out: outcome.out,
                    rows: outcome.rows,
                },
                Err(resp) => line_to_wire(resp),
            }
        }
        Request::Execute { stmt, args } => {
            let template = match state.prepared.lock().get(&stmt) {
                Some(t) => t.clone(),
                None => {
                    return Response::Error {
                        code: errcode::UNKNOWN_STMT,
                        message: format!("no prepared statement {stmt}"),
                    }
                }
            };
            match substitute(&template, &args) {
                Ok(line) => line_to_wire(run_line_deadline(shared, &line, budget)),
                Err(msg) => Response::Error {
                    code: errcode::PARSE,
                    message: msg,
                },
            }
        }
        // Protocol traffic never reaches the workers.
        Request::Hello { .. } | Request::Prepare { .. } | Request::Ping | Request::Goodbye => {
            Response::Error {
                code: errcode::INTERNAL,
                message: "protocol request dispatched to a worker".to_string(),
            }
        }
    }
}

/// Map a v1 execution result onto the wire. BUSY, DEADLINE, and FENCED
/// sheds get their own codes so pipelined clients can retry them
/// specifically (FENCED retries route to the newly promoted primary).
fn line_to_wire(resp: LineResponse) -> Response {
    match resp {
        LineResponse::Data(text) => Response::OkText { text },
        LineResponse::Silent => Response::OkText {
            text: String::new(),
        },
        LineResponse::Error(msg) => {
            let code = if msg.starts_with("BUSY") {
                errcode::BUSY
            } else if msg.starts_with("DEADLINE") {
                errcode::DEADLINE
            } else if msg.starts_with("FENCED") {
                errcode::FENCED
            } else {
                errcode::EXEC
            };
            Response::Error { code, message: msg }
        }
        LineResponse::Closed => Response::Bye,
    }
}

/// A template must contain at least one placeholder-or-text and no raw
/// newline (one frame is one command).
fn validate_template(template: &str) -> Result<(), String> {
    if template.trim().is_empty() {
        return Err("empty template".to_string());
    }
    if template.contains('\n') {
        return Err("template must be a single line".to_string());
    }
    Ok(())
}

/// Substitute positional `?` placeholders with typed arguments. Ints
/// render as decimal literals; byte strings as double-quoted literals
/// (rejecting embedded quotes/newlines — the line grammar cannot escape
/// them, so substitution refuses rather than desyncing the parse).
fn substitute(template: &str, args: &[Value]) -> Result<String, String> {
    let slots = template.matches('?').count();
    if slots != args.len() {
        return Err(format!(
            "template has {slots} placeholder(s), {} argument(s) given",
            args.len()
        ));
    }
    let mut out = String::with_capacity(template.len() + 16 * args.len());
    let mut next = 0;
    for ch in template.chars() {
        if ch != '?' {
            out.push(ch);
            continue;
        }
        match &args[next] {
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Bytes(b) => {
                let s = std::str::from_utf8(b)
                    .map_err(|_| "byte-string argument is not UTF-8".to_string())?;
                if s.contains('"') || s.contains('\n') {
                    return Err(
                        "byte-string argument may not contain quotes or newlines".to_string()
                    );
                }
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
        }
        next += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substitution_renders_typed_args() {
        assert_eq!(
            substitute("update ? -> ?", &[Value::Int(5), Value::Int(99)]).unwrap(),
            "update 5 -> 99"
        );
        assert_eq!(
            substitute(
                "insert EMP (?, ?, ?)",
                &[
                    Value::Int(1),
                    Value::Int(2),
                    Value::Bytes(b"Programmer".to_vec())
                ]
            )
            .unwrap(),
            r#"insert EMP (1, 2, "Programmer")"#
        );
    }

    #[test]
    fn substitution_rejects_mismatch_and_injection() {
        let e = substitute("update ? -> ?", &[Value::Int(5)]).unwrap_err();
        assert!(e.contains("2 placeholder(s), 1 argument(s)"), "{e}");
        let e = substitute("access ?", &[Value::Bytes(b"V\"; shutdown".to_vec())]).unwrap_err();
        assert!(e.contains("may not contain quotes"), "{e}");
        let e = substitute("access ?", &[Value::Bytes(vec![0xFF, 0xFE])]).unwrap_err();
        assert!(e.contains("not UTF-8"), "{e}");
    }

    #[test]
    fn template_validation() {
        assert!(validate_template("update ? -> ?").is_ok());
        assert!(validate_template("  ").is_err());
        assert!(validate_template("a\nb").is_err());
    }
}
