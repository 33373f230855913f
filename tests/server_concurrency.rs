//! Concurrency test for `procdb-server`: eight clients hammer one
//! served session — four readers stream `access` while four updaters
//! re-key disjoint tuples — and the final view contents must equal a
//! serial replay of the same updates, for all four strategies.
//!
//! The updates are constructed to commute (disjoint victim keys,
//! disjoint fresh target keys), so *any* interleaving the server picks
//! must land in the same final state; a lost or doubly-applied update
//! shows up as a row-set mismatch.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;

use procdb_core::StrategyKind;
use procdb_query::{FieldType, Organization, Schema, Value};
use procdb_server::{Server, ServerConfig, Session};

const ROWS: i64 = 16;
const UPDATERS: usize = 4;
const READERS: usize = 4;
const UPDATES_PER_CLIENT: i64 = ROWS / UPDATERS as i64;

/// Base table + one view covering both original and re-keyed tuples.
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
    s.set_strategy(strategy).unwrap();
    s.prepare().unwrap();
    s
}

/// Updater `u` owns victims `[u*k, (u+1)*k)`, re-keyed to `victim + 1000`
/// — disjoint from every other victim and target, so updates commute.
fn updates_for(u: usize) -> Vec<(i64, i64)> {
    (u as i64 * UPDATES_PER_CLIENT..(u as i64 + 1) * UPDATES_PER_CLIENT)
        .map(|k| (k, k + 1000))
        .collect()
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let writer = stream.try_clone().unwrap();
        let mut c = Client {
            writer,
            reader: BufReader::new(stream),
        };
        let (_greeting, term) = c.read_response();
        assert_eq!(term, "ok ready");
        c
    }

    /// Data lines up to the `ok`/`err` terminator line.
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
}

/// Sorted rendered rows of `access V` (16 rows fits the display limit,
/// so the response is complete).
fn access_rows(client: &mut Client) -> Vec<String> {
    let (mut data, term) = client.cmd("access V");
    assert_eq!(term, "ok", "access failed: {data:?}");
    assert!(!data.is_empty(), "access returned no header");
    let header = data.remove(0);
    assert!(
        header.contains(" rows in "),
        "garbled access header: {header:?}"
    );
    data.sort();
    data
}

fn run_strategy(strategy: StrategyKind) {
    let session = build_session(strategy);
    let server = Server::start(
        session,
        ServerConfig {
            port: 0,
            max_conns: UPDATERS + READERS + 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let barrier = Barrier::new(UPDATERS + READERS);
    std::thread::scope(|scope| {
        for u in 0..UPDATERS {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                barrier.wait();
                for (victim, target) in updates_for(u) {
                    let (data, term) = client.cmd(&format!("update {victim} -> {target}"));
                    assert_eq!(term, "ok", "update {victim} failed");
                    assert_eq!(data.len(), 1, "garbled update response: {data:?}");
                    assert!(
                        data[0].starts_with("1 tuple(s) re-keyed"),
                        "update {victim} -> {target} dropped: {data:?}"
                    );
                }
                client.cmd("quit");
            });
        }
        for _ in 0..READERS {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                barrier.wait();
                for _ in 0..6 {
                    let rows = access_rows(&mut client);
                    // Concurrent snapshots vary in contents but never in
                    // cardinality (updates re-key, they don't add/remove),
                    // and every row must be well-formed.
                    assert_eq!(rows.len(), ROWS as usize, "dropped rows: {rows:?}");
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
    });

    // Final state over the wire…
    let mut control = Client::connect(addr);
    let concurrent_rows = access_rows(&mut control);
    let (stats, term) = control.cmd("stats");
    assert_eq!(term, "ok");
    assert!(
        stats.iter().any(|l| l.contains("V:")),
        "stats missing the view: {stats:?}"
    );
    control.cmd("quit");
    let final_session = server.stop();

    // …must equal a serial replay of the same (commuting) updates.
    let mut serial = build_session(strategy);
    for u in 0..UPDATERS {
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
        "{strategy}: concurrent final state diverged from serial replay"
    );

    // The mirror the server hands back agrees too.
    assert_eq!(final_session.scan_base().unwrap().len(), ROWS as usize);
}

#[test]
fn concurrent_clients_always_recompute() {
    run_strategy(StrategyKind::AlwaysRecompute);
}

#[test]
fn concurrent_clients_cache_invalidate() {
    run_strategy(StrategyKind::CacheInvalidate);
}

#[test]
fn concurrent_clients_update_cache_avm() {
    run_strategy(StrategyKind::UpdateCacheAvm);
}

#[test]
fn concurrent_clients_update_cache_rvm() {
    run_strategy(StrategyKind::UpdateCacheRvm);
}
