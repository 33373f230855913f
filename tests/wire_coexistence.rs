//! Protocol coexistence: v1 text clients and v2 pipelined binary
//! clients drive **one** server (2 shards × 2 replicas per shard)
//! concurrently. Updates are constructed to commute (disjoint victims
//! and targets), so whatever interleaving the demultiplexer picks, the
//! final view must be byte-identical to a serial replay — and neither
//! protocol may see a single cross-protocol failure.
//!
//! Also covers the wire-v2 feature surface end to end (CALL with OUT
//! params, prepare/execute, out-of-order pipelining, typed errors) and
//! the line-protocol regression: a client hanging up mid-command (bytes
//! but no newline) must close cleanly without executing the fragment or
//! leaking an admission slot.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::Duration;

use procdb_core::StrategyKind;
use procdb_query::{FieldType, Organization, Schema, Value};
use procdb_server::{Server, ServerConfig, Session};
use procdb_wire::{errcode, Request, Response, WireClient};

const ROWS: i64 = 16;
const V1_UPDATERS: usize = 2;
const V2_UPDATERS: usize = 2;
const UPDATES_PER_CLIENT: i64 = ROWS / (V1_UPDATERS + V2_UPDATERS) as i64;
const PIPELINE_WINDOW: usize = 8;

fn build_session(strategy: StrategyKind) -> Session {
    let mut s = Session::new();
    s.create_table(
        "EMP",
        Schema::new(vec![("eid", FieldType::Int), ("grp", FieldType::Int)]),
        Organization::BTree { key_field: 0 },
    )
    .unwrap();
    for i in 0..ROWS {
        s.insert("EMP", vec![Value::Int(i), Value::Int(i % 4)])
            .unwrap();
    }
    s.define_view("define view V (EMP.all) where EMP.eid >= 0 and EMP.eid <= 5000")
        .unwrap();
    s.set_shards(2).unwrap();
    s.set_replicas(2).unwrap();
    s.set_strategy(strategy).unwrap();
    s.prepare().unwrap();
    s
}

/// Client `u` (numbered across both protocols) owns victims
/// `[u*k, (u+1)*k)`, re-keyed to `victim + 1000`.
fn updates_for(u: usize) -> Vec<(i64, i64)> {
    (u as i64 * UPDATES_PER_CLIENT..(u as i64 + 1) * UPDATES_PER_CLIENT)
        .map(|k| (k, k + 1000))
        .collect()
}

// ---- v1 text client ----------------------------------------------------

struct V1Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl V1Client {
    fn connect(addr: std::net::SocketAddr) -> V1Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let writer = stream.try_clone().unwrap();
        let mut c = V1Client {
            writer,
            reader: BufReader::new(stream),
        };
        let (_greeting, term) = c.read_response();
        assert_eq!(term, "ok ready");
        c
    }

    fn read_response(&mut self) -> (Vec<String>, String) {
        let mut data = Vec::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).unwrap();
            assert!(n > 0, "server hung up mid-response");
            let line = line.trim_end().to_string();
            if line == "ok" || line.starts_with("ok ") || line.starts_with("err") {
                return (data, line);
            }
            data.push(line);
        }
    }

    fn cmd(&mut self, line: &str) -> (Vec<String>, String) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        self.read_response()
    }

    /// Retry BUSY/DEADLINE sheds — expected under admission pressure.
    fn cmd_retry(&mut self, line: &str) -> (Vec<String>, String) {
        for _ in 0..200 {
            let (data, term) = self.cmd(line);
            if term.starts_with("err BUSY") || term.starts_with("err DEADLINE") {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            return (data, term);
        }
        panic!("command {line:?} shed 200 times");
    }
}

fn v1_access_rows(client: &mut V1Client) -> Vec<String> {
    let (mut data, term) = client.cmd_retry("access V");
    assert_eq!(term, "ok", "access failed: {data:?}");
    let header = data.remove(0);
    assert!(header.contains(" rows in "), "garbled header: {header:?}");
    data.sort();
    data
}

// ---- v2 pipelined client ----------------------------------------------

/// Run `updates` through a windowed pipeline: keep up to
/// [`PIPELINE_WINDOW`] requests in flight, match responses by id in
/// whatever order they complete, and re-enqueue BUSY/DEADLINE sheds.
fn v2_pipelined_updates(addr: std::net::SocketAddr, updates: &[(i64, i64)]) {
    let mut client = WireClient::connect(addr, PIPELINE_WINDOW as u32).unwrap();
    let mut queue: VecDeque<(i64, i64, usize)> = updates.iter().map(|&(v, t)| (v, t, 0)).collect();
    let mut pending: HashMap<u64, (i64, i64, usize)> = HashMap::new();
    while !queue.is_empty() || !pending.is_empty() {
        while pending.len() < PIPELINE_WINDOW {
            let Some((v, t, tries)) = queue.pop_front() else {
                break;
            };
            let id = client
                .send(&Request::Command {
                    line: format!("update {v} -> {t}"),
                })
                .unwrap();
            pending.insert(id, (v, t, tries));
        }
        let (id, resp) = client.recv().unwrap();
        let (v, t, tries) = pending.remove(&id).expect("response for unknown id");
        match resp {
            Response::OkText { text } => {
                assert!(
                    text.starts_with("1 tuple(s) re-keyed"),
                    "update {v} -> {t} dropped: {text:?}"
                );
            }
            Response::Error { code, message }
                if code == errcode::BUSY || code == errcode::DEADLINE =>
            {
                assert!(tries < 200, "update {v} shed 200 times: {message}");
                std::thread::sleep(Duration::from_millis(2));
                queue.push_back((v, t, tries + 1));
            }
            other => panic!("update {v} -> {t}: unexpected response {other:?}"),
        }
    }
    client.close().unwrap();
}

/// A v2 reader interleaving framed commands and procedure calls.
fn v2_reader(addr: std::net::SocketAddr) {
    let mut client = WireClient::connect(addr, 4).unwrap();
    for _ in 0..4 {
        match retry_shed(&mut client, || Request::Command {
            line: "access V".to_string(),
        }) {
            Response::OkText { text } => {
                assert!(text.contains(" rows in "), "garbled access: {text:?}");
            }
            other => panic!("access V: unexpected response {other:?}"),
        }
        match retry_shed(&mut client, || Request::Call {
            name: "db.stats".to_string(),
            args: vec![],
        }) {
            Response::CallOk { text, .. } => {
                assert!(text.contains("operations"), "garbled stats: {text:?}");
            }
            other => panic!("db.stats: unexpected response {other:?}"),
        }
    }
    client.close().unwrap();
}

fn retry_shed(client: &mut WireClient, req: impl Fn() -> Request) -> Response {
    for _ in 0..200 {
        match client.roundtrip(&req()).unwrap() {
            Response::Error { code, .. } if code == errcode::BUSY || code == errcode::DEADLINE => {
                std::thread::sleep(Duration::from_millis(2))
            }
            other => return other,
        }
    }
    panic!("request shed 200 times");
}

// ---- the coexistence run ----------------------------------------------

fn run_strategy(strategy: StrategyKind) {
    let session = build_session(strategy);
    let server = Server::start(
        session,
        ServerConfig {
            port: 0,
            max_conns: 16,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let parties = V1_UPDATERS + V2_UPDATERS + 2;
    let barrier = Barrier::new(parties);
    std::thread::scope(|scope| {
        // v1 text updaters.
        for u in 0..V1_UPDATERS {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = V1Client::connect(addr);
                barrier.wait();
                for (victim, target) in updates_for(u) {
                    let (data, term) = client.cmd_retry(&format!("update {victim} -> {target}"));
                    assert_eq!(term, "ok", "v1 update {victim} failed: {data:?}");
                    assert!(
                        data[0].starts_with("1 tuple(s) re-keyed"),
                        "v1 update {victim} dropped: {data:?}"
                    );
                }
                client.cmd("quit");
            });
        }
        // v2 pipelined updaters.
        for u in V1_UPDATERS..V1_UPDATERS + V2_UPDATERS {
            let barrier = &barrier;
            scope.spawn(move || {
                let updates = updates_for(u);
                barrier.wait();
                v2_pipelined_updates(addr, &updates);
            });
        }
        // One reader per protocol.
        {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = V1Client::connect(addr);
                barrier.wait();
                for _ in 0..4 {
                    // Mid-flight snapshots can catch a cross-shard
                    // re-key between its delete and insert halves — in
                    // either order, since scatter-gather visits the two
                    // shards at different instants — so a row may
                    // transiently appear zero times (source read after
                    // the delete, target before the insert) or twice
                    // (source before the delete, target after the
                    // insert). Only well-formedness and a generous
                    // cardinality envelope hold here; the final-state
                    // oracle below is the exact check.
                    let rows = v1_access_rows(&mut client);
                    assert!(
                        rows.len() <= 2 * ROWS as usize,
                        "implausibly many rows: {rows:?}"
                    );
                    for r in &rows {
                        assert!(
                            r.starts_with("  (") && r.ends_with(')'),
                            "garbled row: {r:?}"
                        );
                    }
                }
                client.cmd("quit");
            });
        }
        {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                v2_reader(addr);
            });
        }
    });

    // Final state over the v1 wire…
    let mut control = V1Client::connect(addr);
    let concurrent_rows = v1_access_rows(&mut control);
    // …and the protocol mix is visible in `stats`.
    let (stats, term) = control.cmd_retry("stats");
    assert_eq!(term, "ok");
    let mix = stats
        .iter()
        .find(|l| l.starts_with("wire:"))
        .unwrap_or_else(|| panic!("stats missing the wire mix: {stats:?}"));
    assert!(mix.contains("v2 connections="), "garbled mix: {mix:?}");
    control.cmd("quit");
    server.stop();

    // …must equal a serial replay of the same (commuting) updates.
    let mut serial = build_session(strategy);
    for u in 0..V1_UPDATERS + V2_UPDATERS {
        for (victim, target) in updates_for(u) {
            let (n, _) = serial.update(victim, target).unwrap();
            assert_eq!(n, 1);
        }
    }
    let (rows, _) = serial.access_batch("V").unwrap();
    let mut serial_rows: Vec<String> = serial
        .render_rows(&rows, rows.len())
        .lines()
        .map(|l| l.to_string())
        .collect();
    serial_rows.sort();
    assert_eq!(
        concurrent_rows, serial_rows,
        "{strategy}: v1+v2 concurrent final state diverged from serial replay"
    );
}

#[test]
fn v1_and_v2_coexist_always_recompute() {
    run_strategy(StrategyKind::AlwaysRecompute);
}

#[test]
fn v1_and_v2_coexist_update_cache_rvm() {
    run_strategy(StrategyKind::UpdateCacheRvm);
}

// ---- v2 feature surface -----------------------------------------------

#[test]
fn v2_calls_procedures_with_out_params() {
    let server = Server::start(
        build_session(StrategyKind::AlwaysRecompute),
        ServerConfig {
            port: 0,
            max_conns: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = WireClient::connect(server.addr(), 8).unwrap();
    assert!(client.banner().contains("wire v2"));

    // P1 with IN bounds and OUT counters, typed rows.
    match client
        .call("P1", vec![Value::Int(3), Value::Int(7)])
        .unwrap()
    {
        Response::CallOk { out, rows, .. } => {
            assert_eq!(rows.len(), 5);
            assert_eq!(out[0], ("matched".to_string(), Value::Int(5)));
            assert_eq!(out[1], ("scanned".to_string(), Value::Int(ROWS)));
            assert_eq!(rows[0][0], Value::Int(3));
        }
        other => panic!("P1: unexpected response {other:?}"),
    }

    // db.procedures lists the registry.
    match client.call("db.procedures", vec![]).unwrap() {
        Response::CallOk { text, .. } => {
            assert!(text.contains("P1(in lo:int"), "{text}");
            assert!(text.contains("db.shards()"), "{text}");
        }
        other => panic!("db.procedures: unexpected response {other:?}"),
    }

    // Typed argument validation travels as a typed error.
    match client.call("P1", vec![Value::Int(1)]).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, errcode::EXEC);
            assert!(message.contains("expected"), "{message}");
        }
        other => panic!("bad arity: unexpected response {other:?}"),
    }
    client.close().unwrap();
}

#[test]
fn v2_prepare_execute_and_typed_errors() {
    let server = Server::start(
        build_session(StrategyKind::UpdateCacheAvm),
        ServerConfig {
            port: 0,
            max_conns: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = WireClient::connect(server.addr(), 8).unwrap();

    let stmt = match client
        .roundtrip(&Request::Prepare {
            template: "update ? -> ?".to_string(),
        })
        .unwrap()
    {
        Response::Prepared { stmt } => stmt,
        other => panic!("prepare: unexpected response {other:?}"),
    };
    match client
        .roundtrip(&Request::Execute {
            stmt,
            args: vec![Value::Int(5), Value::Int(2005)],
        })
        .unwrap()
    {
        Response::OkText { text } => {
            assert!(text.starts_with("1 tuple(s) re-keyed"), "{text}")
        }
        other => panic!("execute: unexpected response {other:?}"),
    }
    // Unknown statement id and argument-count mismatch are typed.
    match client
        .roundtrip(&Request::Execute {
            stmt: 999,
            args: vec![],
        })
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, errcode::UNKNOWN_STMT),
        other => panic!("unknown stmt: unexpected response {other:?}"),
    }
    match client
        .roundtrip(&Request::Execute {
            stmt,
            args: vec![Value::Int(1)],
        })
        .unwrap()
    {
        Response::Error { code, message } => {
            assert_eq!(code, errcode::PARSE);
            assert!(message.contains("placeholder"), "{message}");
        }
        other => panic!("arity mismatch: unexpected response {other:?}"),
    }
    // Ping answers Pong; a parse error on a framed command is typed.
    match client.roundtrip(&Request::Ping).unwrap() {
        Response::Pong => {}
        other => panic!("ping: unexpected response {other:?}"),
    }
    match client.command("no such verb").unwrap() {
        Response::Error { code, .. } => assert_eq!(code, errcode::EXEC),
        other => panic!("bad verb: unexpected response {other:?}"),
    }
    client.close().unwrap();
}

#[test]
fn v2_pipelined_responses_match_by_id() {
    let server = Server::start(
        build_session(StrategyKind::AlwaysRecompute),
        ServerConfig {
            port: 0,
            max_conns: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = WireClient::connect(server.addr(), 16).unwrap();

    // Queue a burst of reads without waiting; every response must carry
    // a known id and each id must answer exactly once, whatever order
    // the worker pool finishes in.
    let mut expect: HashMap<u64, ()> = HashMap::new();
    for _ in 0..12 {
        let id = client
            .send(&Request::Command {
                line: "access V".to_string(),
            })
            .unwrap();
        expect.insert(id, ());
    }
    while !expect.is_empty() {
        let (id, resp) = client.recv().unwrap();
        assert!(expect.remove(&id).is_some(), "duplicate or unknown id {id}");
        match resp {
            Response::OkText { text } => {
                assert!(text.contains(" rows in "), "garbled access: {text:?}")
            }
            Response::Error { code, message }
                if code == errcode::BUSY || code == errcode::DEADLINE =>
            {
                // Shed under pressure is legal; it still answers the id.
                assert!(!message.is_empty());
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    client.close().unwrap();
}

// ---- one access body, whichever path served it -------------------------

/// An `access` body does not depend on the path that served it: the
/// first access after an engine rebuild (the exclusive path, which
/// builds the engine), the next one (the shared read, which fills the
/// front cache) and a front-cache hit all answer the same text, with no
/// trailing newline — like every other `OkText` body.
#[test]
fn v2_access_bodies_do_not_depend_on_the_serving_path() {
    let mut session = Session::new();
    session
        .create_table(
            "EMP",
            Schema::new(vec![("eid", FieldType::Int), ("grp", FieldType::Int)]),
            Organization::BTree { key_field: 0 },
        )
        .unwrap();
    for i in 0..30 {
        session
            .insert("EMP", vec![Value::Int(i), Value::Int(i % 4)])
            .unwrap();
    }
    session
        .define_view("define view V (EMP.all) where EMP.eid >= 0 and EMP.eid <= 5000")
        .unwrap();
    let server = Server::start(
        session,
        ServerConfig {
            port: 0,
            max_conns: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = WireClient::connect(server.addr(), 4).unwrap();
    let mut text = |line: &str| match retry_shed(&mut client, || Request::Command {
        line: line.to_string(),
    }) {
        Response::OkText { text } => text,
        other => panic!("{line}: unexpected response {other:?}"),
    };
    text("cache on");
    // A strategy switch drops the engine: the next access rebuilds it.
    text("strategy ci");
    let bodies: Vec<String> = (0..3).map(|_| text("access V")).collect();
    assert!(
        bodies[0].starts_with("30 rows in ") && bodies[0].ends_with("  ... 10 more"),
        "{:?}",
        bodies[0]
    );
    assert_eq!(bodies[1], bodies[0], "shared read vs rebuild");
    assert_eq!(bodies[2], bodies[0], "front-cache hit vs rebuild");
    let stats = text("cache stats");
    assert!(
        stats.contains(" hits=1 "),
        "the third access must hit: {stats}"
    );
    client.close().unwrap();
}

// ---- v2 goodbye drain barrier under a deadline ------------------------

/// Satellite: `GOODBYE`'s drain barrier honors a client deadline. With
/// the worker pool wedged on chaos-delayed writes, a goodbye carrying a
/// tiny budget must answer the typed `DEADLINE` error (naming the
/// requests still in flight) instead of blocking until the drain
/// completes; with nothing in flight the same budgeted goodbye answers
/// `BYE` as usual.
#[test]
fn v2_goodbye_drain_barrier_honors_the_client_deadline() {
    let server = Server::start(
        build_session(StrategyKind::CacheInvalidate),
        ServerConfig {
            port: 0,
            max_conns: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Wedge every replicated write: the chaos delay fate sleeps each
    // delta ship 40-80ms, so in-flight updates cannot drain in 5ms.
    let mut control = V1Client::connect(addr);
    let (_, term) = control.cmd("chaos inject --delay 1 --delay-ms 40 80");
    assert!(term.starts_with("ok"), "chaos inject failed: {term}");

    let mut client = WireClient::connect(addr, 16).unwrap();
    let mut pending: HashMap<u64, ()> = HashMap::new();
    for i in 0..8 {
        let id = client
            .send(&Request::Command {
                line: format!("update {i} -> {}", i + 3000),
            })
            .unwrap();
        pending.insert(id, ());
    }
    // Goodbye with a 5ms budget: the barrier must expire, typed.
    let bye_id = client
        .send_with_deadline(&Request::Goodbye, 5, None)
        .unwrap();
    loop {
        let (id, resp) = client.recv().unwrap();
        if id != bye_id {
            // A fast update may still beat the barrier; fine.
            assert!(pending.remove(&id).is_some(), "unknown id {id}");
            continue;
        }
        match resp {
            Response::Error { code, message } => {
                assert_eq!(code, errcode::DEADLINE, "{message}");
                assert!(
                    message.contains("drain barrier"),
                    "the expiry must say what it was waiting on: {message}"
                );
                assert!(
                    message.contains("in flight"),
                    "the expiry must count the stragglers: {message}"
                );
            }
            other => panic!("goodbye under pressure: unexpected response {other:?}"),
        }
        break;
    }
    // The server closed the connection after the expired goodbye; the
    // wedged updates finish server-side into the void.
    drop(client);

    let (_, term) = control.cmd("chaos off");
    assert!(term.starts_with("ok"), "chaos off failed: {term}");
    control.cmd("quit");

    // Same budgeted goodbye with nothing in flight: a clean BYE.
    let mut client = WireClient::connect(addr, 4).unwrap();
    let bye_id = client
        .send_with_deadline(&Request::Goodbye, 50, None)
        .unwrap();
    let (id, resp) = client.recv().unwrap();
    assert_eq!(id, bye_id);
    assert!(
        matches!(resp, Response::Bye),
        "idle goodbye under a budget must still answer BYE: {resp:?}"
    );
    server.stop();
}

// ---- line-protocol EOF regression -------------------------------------

#[test]
fn v1_eof_mid_command_closes_clean_without_executing() {
    let server = Server::start(
        build_session(StrategyKind::AlwaysRecompute),
        ServerConfig {
            port: 0,
            max_conns: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Hang up mid-command, several times: bytes on the wire, no newline.
    for _ in 0..4 {
        let mut c = V1Client::connect(addr);
        c.writer.write_all(b"update 0 -> 7777").unwrap();
        drop(c); // close without the terminating newline
    }
    // Give the server a beat to reap the closed connections.
    std::thread::sleep(Duration::from_millis(100));

    // The fragment must not have executed…
    let mut control = V1Client::connect(addr);
    let rows = v1_access_rows(&mut control);
    assert_eq!(rows.len(), ROWS as usize);
    assert!(
        rows.iter().any(|r| r.starts_with("  (0,")),
        "truncated command executed! rows: {rows:?}"
    );
    // …and no admission slot leaked: the gate still admits a full burst
    // of sequential commands.
    for _ in 0..40 {
        let (_, term) = control.cmd_retry("access V");
        assert_eq!(term, "ok");
    }
    control.cmd("quit");
    server.stop();
}
