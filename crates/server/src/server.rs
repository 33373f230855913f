//! The TCP server: thread-per-connection over a shared [`Session`]
//! behind a readers-writer lock.
//!
//! * `access` and `update` run under the **shared read lock**
//!   ([`Session::access_shared`], [`Session::update_shared`]): the
//!   engine's own per-shard locks are the concurrency control, and a
//!   read that must write (an invalidated Cache & Invalidate entry
//!   refilling — the network analogue of a CI access re-acquiring its
//!   i-locks) escalates inside its shard, not here.
//! * every other command (inserts, DDL, strategy and layout switches,
//!   admin) takes the write lock, as does the very first access or
//!   update, which builds the engine.
//! * a panic while executing a command is caught and reported as
//!   `err internal: …`; the connection (and server) stay up.
//!
//! Wire protocol: one command per line; each response is zero or more
//! data lines followed by a terminator line starting with `ok` or
//! `err`. `quit` closes the connection, `shutdown` stops the server,
//! and connections over the configured limit are refused with
//! `err server busy`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::command::{parse, Command};
use crate::exec::{execute, Outcome};
use crate::procedures::{CallOutcome, ProcedureRegistry};
use crate::session::Session;
use crate::wire_server::{self, WireMetrics};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Port to bind on localhost (0 picks an ephemeral port).
    pub port: u16,
    /// Maximum simultaneous connections; extras are refused with
    /// `err server busy`.
    pub max_conns: usize,
    /// Admission gate: commands admitted to the session at once.
    /// A command arriving above this bound is shed with `err BUSY …`
    /// instead of queueing on the lock — clients retry with backoff.
    pub max_in_flight: usize,
    /// Per-command wall-clock deadline on acquiring the session lock;
    /// expiry answers `err DEADLINE …` instead of waiting forever
    /// behind a stalled writer.
    pub deadline: Duration,
}

/// Default admission bound (`max_in_flight`).
pub const DEFAULT_MAX_IN_FLIGHT: usize = 32;
/// Default per-command lock deadline.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(5);

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            port: crate::command::DEFAULT_PORT,
            max_conns: crate::command::DEFAULT_MAX_CONNS,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            deadline: DEFAULT_DEADLINE,
        }
    }
}

/// How often blocked readers re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

pub(crate) struct Shared {
    pub(crate) session: RwLock<Session>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) active: AtomicUsize,
    pub(crate) max_conns: usize,
    /// Commands currently admitted past the gate.
    pub(crate) in_flight: AtomicUsize,
    pub(crate) max_in_flight: usize,
    pub(crate) deadline: Duration,
    pub(crate) m_busy: procdb_obs::Counter,
    pub(crate) m_deadline: procdb_obs::Counter,
    /// Wire-protocol counters (per-proto connections, per-opcode
    /// requests, pipeline depth) — created eagerly at startup so the
    /// `metrics` exposition always carries them.
    pub(crate) wire: WireMetrics,
    /// The front result cache, shared with the session (which keeps it
    /// configured and invalidated). Consulted on the access path
    /// *before* the admission gate and the session lock, so a hit
    /// costs no engine locking at all.
    pub(crate) cache: Arc<procdb_cache::ResultCache>,
}

/// Releases one admission-gate slot when a command finishes, however it
/// finishes.
pub(crate) struct GateGuard<'a>(pub(crate) &'a Shared);

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running server; [`Server::stop`] shuts it down and hands the
/// session back.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind on localhost and start accepting connections over `session`.
    pub fn start(mut session: Session, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let reg = procdb_obs::global();
        // One front cache per server, attached before any connection can
        // reach the session: the session keeps it configured and feeds
        // it the write stream; the server serves hits from it with no
        // session lock. Disabled until a client runs `cache on`.
        let cache = Arc::new(procdb_cache::ResultCache::new());
        session.attach_cache(cache.clone());
        let shared = Arc::new(Shared {
            session: RwLock::new(session),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            max_conns: cfg.max_conns.max(1),
            in_flight: AtomicUsize::new(0),
            max_in_flight: cfg.max_in_flight.max(1),
            deadline: cfg.deadline,
            m_busy: reg.counter("procdb_server_busy_sheds_total", &[]),
            m_deadline: reg.counter("procdb_server_deadline_expired_total", &[]),
            wire: WireMetrics::new(reg),
            cache,
        });
        let accept_shared = shared.clone();
        let accept = thread::Builder::new()
            .name("procdb-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a `shutdown` wire command has been received.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Currently active connections.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Block until a `shutdown` wire command arrives, then stop.
    pub fn run_until_shutdown(self) -> Session {
        while !self.shutdown_requested() {
            thread::sleep(POLL);
        }
        self.stop()
    }

    /// Stop accepting, drain connection threads, and return the session.
    pub fn stop(mut self) -> Session {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            // The acceptor is parked in `accept`: one loopback connection
            // wakes it to see the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
        // Connection threads observe the flag within one read-timeout
        // tick and exit, dropping their `Arc`s.
        let mut shared = self.shared;
        loop {
            match Arc::try_unwrap(shared) {
                Ok(s) => return s.session.into_inner(),
                Err(still_shared) => {
                    shared = still_shared;
                    thread::sleep(POLL);
                }
            }
        }
    }
}

/// Accept connections until `shutdown` is set. `accept` blocks: a client
/// is greeted as soon as it connects, and [`Server::stop`] wakes the
/// thread with a connection of its own once the flag is set.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    // Reap finished connection threads as we go; join the rest on exit
    // so `stop` sees the last `Arc` clones dropped promptly.
    let conns: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let n = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
                if n > shared.max_conns {
                    shared.active.fetch_sub(1, Ordering::SeqCst);
                    refuse(stream, shared.max_conns);
                    continue;
                }
                let conn_shared = shared.clone();
                match thread::Builder::new()
                    .name("procdb-conn".to_string())
                    .spawn(move || handle_connection(stream, conn_shared))
                {
                    Ok(h) => {
                        let mut guard = conns.lock();
                        guard.retain(|h| !h.is_finished());
                        guard.push(h);
                    }
                    Err(_) => {
                        shared.active.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            // Out of descriptors or the like: back off, then retry.
            Err(_) => thread::sleep(POLL),
        }
    }
    for h in conns.into_inner() {
        let _ = h.join();
    }
}

fn refuse(mut stream: TcpStream, max: usize) {
    let _ = writeln!(stream, "err server busy ({max} connections)");
}

/// Decrement the active-connection count when the thread exits, however
/// it exits.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _guard = ConnGuard(shared.clone());
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Every connection is greeted in v1 text first (v1 clients block on
    // it); the protocol is then sniffed from the first *client* byte.
    if writeln!(
        writer,
        "procdb-server: database procedures over TCP (type 'help')\nok ready"
    )
    .is_err()
    {
        return;
    }
    // First-bytes detection: 0xAF (the v2 frame magic's first byte, a
    // UTF-8 continuation byte that can never start a text command)
    // routes the connection to the binary demultiplexer; anything else
    // stays on the v1 line protocol.
    loop {
        match reader.fill_buf() {
            Ok([]) => return, // client hung up before its first byte
            Ok(buf) if buf[0] == procdb_wire::MAGIC[0] => {
                wire_server::serve_v2(reader, writer, shared);
                return;
            }
            Ok(_) => break, // v1 text
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    let _ = writeln!(writer, "err server shutting down");
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
    }
    let _active = shared.wire.conn_open(false);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return, // client hung up between commands
            Ok(_) => {
                if !line.ends_with('\n') {
                    // EOF mid-command: the client died partway through a
                    // line. Never execute a truncated command (a cut-off
                    // `update 5 -> 99` would apply a *different* update);
                    // just close quietly.
                    return;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                // Timeout while idle or mid-line: `line` keeps any
                // partial bytes already read; re-check shutdown, retry.
                if shared.shutdown.load(Ordering::SeqCst) {
                    let _ = writeln!(writer, "err server shutting down");
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let done = match respond(&shared, &line, &mut writer) {
            Ok(keep_open) => !keep_open,
            Err(_) => true,
        };
        if done {
            return;
        }
        line.clear();
    }
}

/// Handle one request line; `Ok(false)` closes the connection.
fn respond(shared: &Arc<Shared>, line: &str, writer: &mut TcpStream) -> io::Result<bool> {
    if line.trim().eq_ignore_ascii_case("shutdown") {
        shared.shutdown.store(true, Ordering::SeqCst);
        writeln!(writer, "ok shutting down")?;
        return Ok(false);
    }
    // Wire input is untrusted and the engine is rich: treat any panic as
    // a command failure, not a dead connection. The lock stubs recover
    // from poisoning, so other connections keep working too.
    let result = catch_unwind(AssertUnwindSafe(|| run_line(shared, line)));
    match result {
        Ok(Response::Closed) => {
            writeln!(writer, "ok bye")?;
            Ok(false)
        }
        Ok(Response::Silent) => {
            writeln!(writer, "ok")?;
            Ok(true)
        }
        Ok(Response::Data(text)) => {
            for data_line in text.lines() {
                writeln!(writer, "{data_line}")?;
            }
            writeln!(writer, "ok")?;
            Ok(true)
        }
        Ok(Response::Error(msg)) => {
            writeln!(writer, "err {}", msg.replace('\n', "; "))?;
            Ok(true)
        }
        Err(panic) => {
            let msg = panic_message(&panic);
            writeln!(writer, "err internal: {}", msg.replace('\n', "; "))?;
            Ok(true)
        }
    }
}

#[derive(Debug)]
pub(crate) enum Response {
    /// Data lines to print before the bare `ok` terminator.
    Data(String),
    /// Nothing to print; respond `ok`.
    Silent,
    /// Respond `err <msg>`.
    Error(String),
    /// `quit` — respond `ok bye` and close.
    Closed,
}

/// Acquire the session read lock before `deadline`, or give up.
pub(crate) fn read_by(
    shared: &Shared,
    deadline: Instant,
) -> Option<parking_lot::RwLockReadGuard<'_, Session>> {
    let session = &shared.session;
    procdb_obs::yield_then_block(
        || session.try_read().map(Some),
        || session.try_read_until(deadline),
    )
}

/// Acquire the session write lock before `deadline`, or give up.
fn write_by(
    shared: &Shared,
    deadline: Instant,
) -> Option<parking_lot::RwLockWriteGuard<'_, Session>> {
    let session = &shared.session;
    procdb_obs::yield_then_block(
        || session.try_write().map(Some),
        || session.try_write_until(deadline),
    )
}

pub(crate) fn deadline_expired(shared: &Shared) -> Response {
    shared.m_deadline.inc();
    Response::Error(format!(
        "DEADLINE (no session lock within {}ms; retry)",
        shared.deadline.as_millis()
    ))
}

/// Run one procedure call under the admission gate and the shared read
/// lock (handlers are read-only). Returns the typed outcome *and* its
/// text rendering (done under the lock, where the session is at hand) —
/// the v1 path sends the text, the v2 path sends the typed parts.
pub(crate) fn run_call(
    shared: &Arc<Shared>,
    name: &str,
    args: &[procdb_query::Value],
) -> Result<(CallOutcome, String), Response> {
    let admitted = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
    let _gate = GateGuard(shared);
    if admitted > shared.max_in_flight {
        shared.m_busy.inc();
        return Err(Response::Error(format!(
            "BUSY ({admitted} commands in flight, limit {}; retry with backoff)",
            shared.max_in_flight
        )));
    }
    let deadline = lock_deadline(shared);
    let Some(session) = read_by(shared, deadline) else {
        return Err(deadline_expired(shared));
    };
    match ProcedureRegistry::global().call(&session, name, args) {
        Ok(outcome) => {
            let text = outcome.render(&session);
            Ok((outcome, text))
        }
        Err(msg) => Err(Response::Error(msg)),
    }
}

/// The wall-clock instant by which this command must acquire the
/// session lock: the server's per-command deadline, tightened by any
/// request budget already installed on the thread (see
/// [`run_line_deadline`] — the installed deadline is always the min of
/// the client budget and the server cap, so it wins outright).
fn lock_deadline(shared: &Shared) -> Instant {
    procdb_obs::current_deadline().unwrap_or_else(|| Instant::now() + shared.deadline)
}

/// Run one line under an explicit time budget (the v2 `FLAG_DEADLINE`
/// extension). The effective deadline — the client budget capped by the
/// server's own per-command deadline — is installed on the thread so
/// every layer below (session lock acquisition, shard scatter-gather,
/// engine lock escalation) sees the same remaining budget and answers a
/// typed `DEADLINE` error once it is exhausted.
pub(crate) fn run_line_deadline(
    shared: &Arc<Shared>,
    line: &str,
    budget: Option<Duration>,
) -> Response {
    match budget {
        None => run_line(shared, line),
        Some(budget) => {
            let effective = budget.min(shared.deadline);
            let _dl = procdb_obs::install_deadline(Instant::now() + effective);
            run_line(shared, line)
        }
    }
}

pub(crate) fn run_line(shared: &Arc<Shared>, line: &str) -> Response {
    // v1 text lines carry no client trace id, so the sampling decision
    // is made here — unless a context is already installed, which means
    // the v2 worker (or `explain analyze`) rooted the tree upstream and
    // this call is the framed-command body of that request.
    let reg = procdb_obs::global();
    if reg.trace_sample() != 0 && reg.current_context().is_none() {
        if let Some(ctx) = reg.sample_request() {
            let _ctx = reg.install_context(ctx);
            let _root = procdb_obs::span!(reg, "wire.request", proto = 1);
            return run_line_inner(shared, line);
        }
    }
    run_line_inner(shared, line)
}

fn run_line_inner(shared: &Arc<Shared>, line: &str) -> Response {
    let cmd = match parse(line) {
        Ok(None) => return Response::Silent,
        Ok(Some(cmd)) => cmd,
        Err(msg) => return Response::Error(msg),
    };
    // Lock-free commands bypass the admission gate: a client can always
    // leave, and help costs nothing.
    match &cmd {
        Command::Quit => return Response::Closed,
        Command::Help => return Response::Data(crate::command::HELP.to_string()),
        _ => {}
    }
    // Front-cache hit: before the admission gate, before the session
    // lock, before any shard engine lock. The guard lattice inside the
    // cache (per-shard epoch + LSN vs the delta stream) is the whole
    // correctness argument — see `procdb-cache`.
    if let Command::Access(view) = &cmd {
        if let Some(body) = shared.cache.lookup(view) {
            return Response::Data(body);
        }
    }
    // Procedure calls gate and lock inside `run_call` (shared with the
    // v2 wire path, which wants the typed outcome, not text).
    if let Command::Call { name, args } = &cmd {
        return match run_call(shared, name, args) {
            Ok((_, text)) if text.is_empty() => Response::Silent,
            Ok((_, text)) => Response::Data(text),
            Err(resp) => resp,
        };
    }
    // Admission gate: bounded in-flight work. Above the bound, shed with
    // BUSY instead of queueing on the lock — the client retries with
    // backoff, and the commands already admitted keep their latency.
    let admitted = shared.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
    let _gate = GateGuard(shared);
    if admitted > shared.max_in_flight {
        shared.m_busy.inc();
        return Response::Error(format!(
            "BUSY ({admitted} commands in flight, limit {}; retry with backoff)",
            shared.max_in_flight
        ));
    }
    let deadline = lock_deadline(shared);
    if let Command::Access(view) = &cmd {
        // Cache fill ticket: the guard snapshot must predate the engine
        // read (even the lock acquisition), so a delta racing this
        // access makes the fill invalid rather than stale.
        let ticket = shared.cache.begin_fill();
        // Concurrent reads under the shared lock. `None` means the
        // engine is not built yet — fall through to the exclusive path,
        // which builds it.
        let Some(session) = read_by(shared, deadline) else {
            return deadline_expired(shared);
        };
        match session.access_shared(view) {
            Err(msg) => return Response::Error(msg),
            Ok(Some((rows, ms))) => {
                let text = session.render_access(&rows, ms);
                if let Some(ticket) = ticket {
                    shared
                        .cache
                        .try_fill(view, &ticket, text.clone(), rows.len());
                }
                return Response::Data(text);
            }
            Ok(None) => {} // not built: escalate below
        }
    }
    if let Command::Update(victim, new_key) = &cmd {
        // The per-shard engine locks are the real concurrency control,
        // so an update only needs the session *read* lock — updates to
        // different shards run concurrently with each other and with
        // accesses. `None` means the engine is not built yet: fall
        // through to the exclusive path below, which builds it.
        let Some(session) = read_by(shared, deadline) else {
            return deadline_expired(shared);
        };
        match session.update_shared(*victim, *new_key) {
            Err(msg) => return Response::Error(msg),
            Ok(Some((n, ms))) => {
                return Response::Data(format!(
                    "{n} tuple(s) re-keyed {victim} -> {new_key}; maintenance {ms:.1} model-ms"
                ))
            }
            Ok(None) => {} // not built: escalate below
        }
    }
    if matches!(cmd, Command::Metrics | Command::Shards(None)) {
        // A metrics or shard-status scrape must not stall behind
        // writers' queue turns: it only reads atomics, so serve it
        // under the shared lock.
        let Some(session) = read_by(shared, deadline) else {
            return deadline_expired(shared);
        };
        let text = if matches!(cmd, Command::Metrics) {
            session.metrics_text()
        } else {
            session.shards_text()
        };
        return Response::Data(text.trim_end().to_string());
    }
    let is_stats = matches!(cmd, Command::Stats);
    let Some(mut session) = write_by(shared, deadline) else {
        return deadline_expired(shared);
    };
    match execute(&mut session, cmd) {
        Ok(Outcome::Quit) => Response::Closed,
        Ok(Outcome::Text(t)) if t.is_empty() => Response::Silent,
        Ok(Outcome::Text(t)) if is_stats => {
            // `stats` also reports the wire-protocol mix: connections
            // per protocol version and per-opcode request counts.
            Response::Data(format!("{t}\n{}", shared.wire.mix_text()))
        }
        Ok(Outcome::Text(t)) => Response::Data(t),
        Err(msg) => Response::Error(msg),
    }
}

pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read one full response: data lines up to an `ok`/`err` terminator.
    fn read_response(reader: &mut impl BufRead) -> (Vec<String>, String) {
        let mut data = Vec::new();
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
            let line = line.trim_end().to_string();
            if line == "ok" || line.starts_with("ok ") || line.starts_with("err") {
                return (data, line);
            }
            data.push(line);
        }
    }

    fn send(stream: &mut TcpStream, reader: &mut impl BufRead, cmd: &str) -> (Vec<String>, String) {
        writeln!(stream, "{cmd}").unwrap();
        read_response(reader)
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (_greeting, term) = read_response(&mut reader);
        assert_eq!(term, "ok ready");
        (stream, reader)
    }

    #[test]
    fn end_to_end_script_over_the_wire() {
        let server = Server::start(
            Session::new(),
            ServerConfig {
                port: 0,
                max_conns: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let (mut s, mut r) = connect(addr);
        let (_, t) = send(
            &mut s,
            &mut r,
            "create table EMP (eid int, dept int) btree eid",
        );
        assert_eq!(t, "ok");
        for i in 0..8 {
            let (_, t) = send(&mut s, &mut r, &format!("insert EMP ({i}, 0)"));
            assert_eq!(t, "ok");
        }
        let (_, t) = send(
            &mut s,
            &mut r,
            "define view V (EMP.all) where EMP.eid >= 2 and EMP.eid <= 5",
        );
        assert_eq!(t, "ok");
        let (data, t) = send(&mut s, &mut r, "access V");
        assert_eq!(t, "ok");
        assert!(data[0].starts_with("4 rows"), "{data:?}");
        assert_eq!(data.len(), 5, "header + 4 tuples: {data:?}");
        let (_, t) = send(&mut s, &mut r, "update 3 -> 99");
        assert_eq!(t, "ok");
        let (data, _) = send(&mut s, &mut r, "access V");
        assert!(data[0].starts_with("3 rows"), "{data:?}");
        let (_, t) = send(&mut s, &mut r, "nonsense");
        assert!(t.starts_with("err"), "{t}");
        let (data, t) = send(&mut s, &mut r, "stats");
        assert_eq!(t, "ok");
        assert!(data.iter().any(|l| l.contains("V: 2 accesses")), "{data:?}");
        let (_, t) = send(&mut s, &mut r, "quit");
        assert_eq!(t, "ok bye");
        let session = server.stop();
        assert_eq!(session.scan_base().unwrap().len(), 8);
    }

    #[test]
    fn observability_over_the_wire() {
        let server = Server::start(
            Session::new(),
            ServerConfig {
                port: 0,
                max_conns: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let (mut s, mut r) = connect(addr);
        send(
            &mut s,
            &mut r,
            "create table EMP (eid int, dept int) btree eid",
        );
        for i in 0..8 {
            send(&mut s, &mut r, &format!("insert EMP ({i}, 0)"));
        }
        send(
            &mut s,
            &mut r,
            "define view V (EMP.all) where EMP.eid >= 2 and EMP.eid <= 5",
        );
        let (data, t) = send(&mut s, &mut r, "explain analyze access V");
        assert_eq!(t, "ok");
        assert!(data.iter().any(|l| l.starts_with("trace ")), "{data:?}");
        let (data, t) = send(&mut s, &mut r, "explain V");
        assert_eq!(t, "ok");
        assert!(
            data.iter().any(|l| l.contains("recent spans")),
            "explain should dump spans: {data:?}"
        );
        assert!(
            data.iter()
                .any(|l| l.contains("access") && l.contains("observed_ms")),
            "{data:?}"
        );
        let (data, t) = send(&mut s, &mut r, "metrics");
        assert_eq!(t, "ok");
        assert!(
            data.iter()
                .any(|l| l.starts_with("procdb_engine_accesses_total")),
            "{data:?}"
        );
        assert!(
            data.iter().any(|l| l.starts_with("# TYPE")),
            "exposition format: {data:?}"
        );
        assert!(
            !data.iter().any(|l| l.contains("NaN")),
            "no NaN in exposition: {data:?}"
        );
        send(&mut s, &mut r, "quit");
        server.stop();
    }

    #[test]
    fn connection_limit_refuses_extras() {
        let server = Server::start(
            Session::new(),
            ServerConfig {
                port: 0,
                max_conns: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let (_s1, _r1) = connect(addr);
        // Second connection must be refused with a busy error.
        let s2 = TcpStream::connect(addr).unwrap();
        let mut r2 = BufReader::new(s2);
        let mut line = String::new();
        r2.read_line(&mut line).unwrap();
        assert!(line.starts_with("err server busy"), "{line}");
        drop((_s1, _r1));
        // The slot frees up; a later connection succeeds.
        for _ in 0..100 {
            if server.active_connections() == 0 {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        let (_s3, _r3) = connect(addr);
        server.stop();
    }

    /// A `Shared` with no listener behind it, for driving `run_line`
    /// directly: admission and deadline behavior is deterministic this
    /// way, where a wire-level race would be flaky.
    fn test_shared(max_in_flight: usize, deadline: Duration) -> Arc<Shared> {
        let reg = procdb_obs::global();
        let cache = Arc::new(procdb_cache::ResultCache::new());
        let mut session = Session::new();
        session.attach_cache(cache.clone());
        Arc::new(Shared {
            session: RwLock::new(session),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            max_conns: 4,
            in_flight: AtomicUsize::new(0),
            max_in_flight,
            deadline,
            m_busy: reg.counter("procdb_server_busy_sheds_total", &[]),
            m_deadline: reg.counter("procdb_server_deadline_expired_total", &[]),
            wire: WireMetrics::new(reg),
            cache,
        })
    }

    #[test]
    fn admission_gate_sheds_above_the_bound() {
        let shared = test_shared(1, Duration::from_secs(1));
        // One command already in flight fills the whole gate.
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let before = shared.m_busy.get();
        match run_line(&shared, "show") {
            Response::Error(msg) => assert!(msg.starts_with("BUSY"), "{msg}"),
            _ => panic!("expected a BUSY shed"),
        }
        assert_eq!(
            shared.in_flight.load(Ordering::SeqCst),
            1,
            "shed command must release its gate slot"
        );
        assert_eq!(shared.m_busy.get(), before + 1);
        // Lock-free commands bypass the gate even when it is full.
        match run_line(&shared, "help") {
            Response::Data(t) => assert!(t.contains("fault inject"), "{t}"),
            _ => panic!("help must bypass the gate"),
        }
        // Once the in-flight command finishes, the same command is
        // admitted.
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        match run_line(&shared, "show") {
            Response::Data(t) => assert!(t.contains("strategy:"), "{t}"),
            _ => panic!("expected admission below the bound"),
        }
        assert_eq!(shared.in_flight.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn deadline_expires_behind_a_stalled_writer() {
        let shared = test_shared(8, Duration::from_millis(20));
        let before = shared.m_deadline.get();
        {
            let _stalled = shared.session.write();
            match run_line(&shared, "show") {
                Response::Error(msg) => assert!(msg.starts_with("DEADLINE"), "{msg}"),
                _ => panic!("expected a DEADLINE expiry behind a held write lock"),
            }
            // The read-path fast lane expires too: a writer blocks
            // readers.
            match run_line(&shared, "metrics") {
                Response::Error(msg) => assert!(msg.starts_with("DEADLINE"), "{msg}"),
                _ => panic!("expected a DEADLINE expiry on the read path"),
            }
        }
        assert_eq!(shared.m_deadline.get(), before + 2);
        // Lock released: the next command proceeds normally.
        match run_line(&shared, "show") {
            Response::Data(t) => assert!(t.contains("strategy:"), "{t}"),
            _ => panic!("expected success after the writer released"),
        }
    }

    #[test]
    fn a_command_queued_behind_a_writer_answers_once_it_releases() {
        let shared = test_shared(8, Duration::from_secs(10));
        let stalled = shared.session.write();
        thread::scope(|s| {
            let queued = s.spawn(|| run_line(&shared, "show"));
            // Admitted through the gate: the command now waits on the
            // session lock.
            while shared.in_flight.load(Ordering::SeqCst) == 0 {
                thread::yield_now();
            }
            drop(stalled);
            match queued.join().unwrap() {
                Response::Data(t) => assert!(t.contains("strategy:"), "{t}"),
                other => panic!("expected data once the writer released: {other:?}"),
            }
        });
    }

    #[test]
    fn client_budget_tightens_the_server_deadline() {
        // A generous server deadline, but a tiny client budget: the
        // budget wins, and the command expires behind a stalled writer
        // well before the server's own cap.
        let shared = test_shared(8, Duration::from_secs(5));
        {
            let _stalled = shared.session.write();
            let t0 = Instant::now();
            match run_line_deadline(&shared, "show", Some(Duration::from_millis(10))) {
                Response::Error(msg) => assert!(msg.starts_with("DEADLINE"), "{msg}"),
                _ => panic!("expected the client budget to expire the command"),
            }
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "budget must beat the 5s server deadline"
            );
        }
        // Without contention the same budget is plenty.
        match run_line_deadline(&shared, "show", Some(Duration::from_millis(250))) {
            Response::Data(t) => assert!(t.contains("strategy:"), "{t}"),
            _ => panic!("expected success within the budget"),
        }
        // No budget at all degrades to the plain path.
        match run_line_deadline(&shared, "show", None) {
            Response::Data(_) => {}
            _ => panic!("expected the no-budget path to behave like run_line"),
        }
    }

    #[test]
    fn updates_run_under_the_read_lock() {
        let shared = test_shared(8, Duration::from_millis(50));
        for line in [
            "create table EMP (eid int, dept int) btree eid",
            "define view V (EMP.all) where EMP.eid >= 2 and EMP.eid <= 9",
        ] {
            expect_data(&shared, line);
        }
        for i in 0..20 {
            run_line(&shared, &format!("insert EMP ({i}, 0)"));
        }
        // One shard with one replica first, then two shards: the update
        // path is the same either way.
        for (shards, victim, rows_after) in [(1, 3, 7), (2, 4, 6)] {
            expect_data(&shared, &format!("shards {shards}"));
            expect_data(&shared, "access V");
            {
                // A held *read* lock starves writers, so this proves the
                // update path never takes the session write lock — the
                // per-shard engine locks carry the isolation instead.
                let _reader = shared.session.read();
                let t = expect_data(&shared, &format!("update {victim} -> 9{victim}"));
                assert!(t.contains("1 tuple(s) re-keyed"), "{t}");
                // Shard status is served read-only too.
                let t = expect_data(&shared, "shards");
                assert!(t.starts_with(&format!("shards: {shards}")), "{t}");
            }
            // The moved key is visible to later accesses.
            let t = expect_data(&shared, "access V");
            assert!(t.contains(&format!("{rows_after} rows")), "{t}");
        }
        // Before the engine is (re)built the first update escalates to
        // the write lock to build it, and expires behind the reader.
        expect_data(&shared, "shards 1");
        {
            let _reader = shared.session.read();
            match run_line(&shared, "update 5 -> 95") {
                Response::Error(msg) => assert!(msg.starts_with("DEADLINE"), "{msg}"),
                other => panic!("the build must need the write lock: {other:?}"),
            }
        }
    }

    /// Drive `run_line` and expect Data, panicking with the error text
    /// otherwise.
    fn expect_data(shared: &Arc<Shared>, line: &str) -> String {
        match run_line(shared, line) {
            Response::Data(t) => t,
            Response::Silent => String::new(),
            other => panic!("{line:?} failed: {other:?}"),
        }
    }

    fn cache_demo_shared() -> Arc<Shared> {
        let shared = test_shared(8, Duration::from_millis(50));
        expect_data(&shared, "create table EMP (eid int, dept int) btree eid");
        expect_data(
            &shared,
            "define view V (EMP.all) where EMP.eid >= 2 and EMP.eid <= 9",
        );
        for i in 0..16 {
            run_line(&shared, &format!("insert EMP ({i}, 0)"));
        }
        expect_data(&shared, "cache on");
        shared
    }

    #[test]
    fn cache_hit_serves_without_session_or_engine_locks() {
        let shared = cache_demo_shared();
        // First access misses and fills.
        let first = expect_data(&shared, "access V");
        assert!(first.contains("8 rows"), "{first}");
        {
            // The acceptance proof: the session *write* lock is held —
            // every locked path (even the read fast path) would expire
            // with DEADLINE — and the gate is full on top. A cache hit
            // is served anyway, byte-identical to the filled response.
            let _writer = shared.session.write();
            shared.in_flight.fetch_add(100, Ordering::SeqCst);
            let hit = expect_data(&shared, "access V");
            assert_eq!(hit, first, "hit must serve the cached bytes");
            shared.in_flight.fetch_sub(100, Ordering::SeqCst);
            // A view that is not cached proves the control: it needs the
            // lock and expires behind the held writer.
            match run_line(&shared, "access NOPE") {
                Response::Error(msg) => assert!(msg.starts_with("DEADLINE"), "{msg}"),
                other => panic!("uncached access should block: {other:?}"),
            }
        }
    }

    #[test]
    fn cache_invalidates_on_overlapping_update_only() {
        let shared = cache_demo_shared();
        let first = expect_data(&shared, "access V");
        let inv0 = shared.cache.stats().invalidations;
        // Overlapping re-key: the entry dies, the next access recomputes
        // and observes the moved tuple.
        expect_data(&shared, "update 3 -> 99");
        assert!(
            shared.cache.stats().invalidations > inv0,
            "overlapping update must invalidate"
        );
        let after = expect_data(&shared, "access V");
        assert!(after.contains("7 rows"), "{after}");
        assert_ne!(after, first);
        // Non-overlapping re-key (outside [2, 9] both sides): the fresh
        // entry survives and keeps serving.
        let inv1 = shared.cache.stats().invalidations;
        expect_data(&shared, "update 99 -> 98");
        assert_eq!(
            shared.cache.stats().invalidations,
            inv1,
            "non-overlapping update must not invalidate"
        );
        let again = expect_data(&shared, "access V");
        assert_eq!(again, after, "entry survived as a hit");
    }

    #[test]
    fn cache_commands_and_stats_render() {
        let shared = cache_demo_shared();
        expect_data(&shared, "access V");
        expect_data(&shared, "access V"); // hit
        let stats = expect_data(&shared, "cache stats");
        assert!(stats.starts_with("cache: enabled=true"), "{stats}");
        assert!(stats.contains("stale_served=0"), "{stats}");
        assert!(stats.contains("cache_shard 0:"), "{stats}");
        let full = expect_data(&shared, "stats");
        assert!(full.contains("cache: on"), "{full}");
        // The db.cache() builtin reports the same counters plus a
        // per-entry occupancy breakdown.
        let intro = expect_data(&shared, "call db.cache()");
        assert!(intro.contains("totals: hits="), "{intro}");
        assert!(intro.contains("entry V: rows=8"), "{intro}");
        // Off: lookups stop serving; the entry count is retained but
        // no hit is possible.
        expect_data(&shared, "cache off");
        assert!(shared.cache.lookup("V").is_none());
        let stats = expect_data(&shared, "cache stats");
        assert!(stats.starts_with("cache: enabled=false"), "{stats}");
        // Bad syntax is a parse error, not a panic.
        match run_line(&shared, "cache sideways") {
            Response::Error(msg) => assert!(msg.contains("cache on|off|stats"), "{msg}"),
            other => panic!("expected parse error: {other:?}"),
        }
    }

    #[test]
    fn cache_survives_sharded_rebuild_and_promotion_fences() {
        let shared = cache_demo_shared();
        expect_data(&shared, "replicas 2");
        expect_data(&shared, "shards 2");
        let first = expect_data(&shared, "access V");
        assert!(first.contains("8 rows"), "{first}");
        expect_data(&shared, "access V"); // fill after rebuild
        {
            let _writer = shared.session.write();
            let hit = expect_data(&shared, "access V");
            assert!(hit.contains("8 rows"), "sharded hit under held write lock");
        }
        // A promotion bumps shard 0's epoch: its guard is fenced, so the
        // next access recomputes (serving identical rows from the new
        // primary).
        expect_data(&shared, "promote 0");
        let refilled = expect_data(&shared, "access V");
        assert!(refilled.contains("8 rows"), "{refilled}");
        let s = shared.cache.stats();
        assert_eq!(s.stale_served, 0);
        assert!(s.per_shard[0].epoch >= 2, "cache tracked the epoch bump");
    }

    #[test]
    fn io_fault_window_degrades_gracefully_over_the_wire() {
        let server = Server::start(
            Session::new(),
            ServerConfig {
                port: 0,
                max_conns: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let (mut s, mut r) = connect(addr);
        send(
            &mut s,
            &mut r,
            "create table EMP (eid int, dept int) btree eid",
        );
        for i in 0..8 {
            send(&mut s, &mut r, &format!("insert EMP ({i}, 0)"));
        }
        send(
            &mut s,
            &mut r,
            "define view V (EMP.all) where EMP.eid >= 2 and EMP.eid <= 5",
        );
        let (data, t) = send(&mut s, &mut r, "access V");
        assert_eq!(t, "ok");
        assert!(data[0].starts_with("4 rows"), "{data:?}");
        // 100% I/O failure: every charged access errors per-command —
        // no panic terminator, no dead connection — until the window is
        // lifted.
        let (_, t) = send(&mut s, &mut r, "fault inject --io-reads 1 --io-writes 1");
        assert_eq!(t, "ok");
        for _ in 0..3 {
            let (_, t) = send(&mut s, &mut r, "access V");
            assert!(t.starts_with("err"), "{t}");
            assert!(!t.contains("internal"), "typed error, not a panic: {t}");
        }
        let (_, t) = send(&mut s, &mut r, "fault off");
        assert_eq!(t, "ok");
        let (data, t) = send(&mut s, &mut r, "access V");
        assert_eq!(t, "ok");
        assert!(data[0].starts_with("4 rows"), "service resumed: {data:?}");
        // Crash/recover over the wire keeps working afterwards too.
        let (_, t) = send(&mut s, &mut r, "crash");
        assert!(t == "ok", "{t}");
        let (_, t) = send(&mut s, &mut r, "recover");
        assert!(t == "ok", "{t}");
        let (data, t) = send(&mut s, &mut r, "access V");
        assert_eq!(t, "ok");
        assert!(data[0].starts_with("4 rows"), "{data:?}");
        send(&mut s, &mut r, "quit");
        server.stop();
    }

    /// The acceptor blocks in `accept`; `stop` wakes it whether or not a
    /// client ever connected, and every cycle greets its client.
    #[test]
    fn stop_wakes_the_parked_acceptor() {
        let cfg = ServerConfig {
            port: 0,
            max_conns: 4,
            ..ServerConfig::default()
        };
        let mut session = Server::start(Session::new(), cfg.clone()).unwrap().stop();
        for cycle in 0..4 {
            let server = Server::start(session, cfg.clone()).unwrap();
            let (mut s, mut r) = connect(server.addr());
            let (_, t) = send(
                &mut s,
                &mut r,
                &format!("create table T{cycle} (k int) btree k"),
            );
            assert_eq!(t, "ok", "cycle {cycle}");
            drop((s, r));
            session = server.stop();
            assert_eq!(session.tables().len(), cycle + 1);
        }
    }

    #[test]
    fn shutdown_command_stops_the_server() {
        let server = Server::start(
            Session::new(),
            ServerConfig {
                port: 0,
                max_conns: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let (mut s, mut r) = connect(addr);
        let (_, t) = send(&mut s, &mut r, "shutdown");
        assert_eq!(t, "ok shutting down");
        let session = server.run_until_shutdown();
        assert_eq!(session.tables().len(), 0);
        // The port is closed: new connections fail or are reset promptly.
        thread::sleep(Duration::from_millis(50));
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(stream) => {
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                // A raced connect gets EOF or an error, never "ok ready".
                let n = reader.read_line(&mut line).unwrap_or(0);
                assert!(n == 0 || !line.contains("ok ready"), "{line}");
            }
        }
    }
}
