//! Front-cache consistency, fuzzed end to end over TCP: a served
//! session with the result cache **on** replays a seeded schedule of
//! accesses, re-keys, crashes, promotions, and message-chaos windows,
//! and every `access` response must be row-identical to a cache-off
//! serial oracle server replaying the same schedule — for all four
//! maintenance strategies, 1–4 shards, and 1–3 replicas per group.
//!
//! The property this pins down: delta-stream invalidation may *miss* a
//! hit (a conservative flash costs a recompute) but may never *serve* a
//! stale body. Accordingly the closing scrape asserts
//! `stale_served == 0` while `invalidations > 0` — the schedule ends
//! with a deterministic fill-then-overlapping-update leg so every case
//! actually exercises the invalidation path rather than vacuously
//! passing on an idle cache.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use proptest::prelude::*;

use procdb_server::{Server, ServerConfig, Session};

/// Tuples in the base relation; every view stays below the renderer's
/// truncation threshold even if re-keys pile all of them into one
/// window.
const ROWS: i64 = 18;
/// Re-key target space. The three view windows tile it completely, so
/// every applied re-key overlaps at least one cached view.
const KEY_SPACE: i64 = 42;
/// Ops per schedule (before the deterministic closing leg).
const OPS: usize = 32;
const MAX_RETRIES: usize = 400;

/// The three windows tiling `[0, KEY_SPACE)`.
const WINDOWS: [(i64, i64); 3] = [(0, 13), (14, 27), (28, 41)];

/// One splitmix64 step; deterministic schedule choices per seed.
fn next(rng: &mut u64) -> u64 {
    let out = procdb_obs::splitmix64(*rng);
    *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
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

    /// Run a command, retrying the flow-control sheds (`BUSY`,
    /// `DEADLINE`, `FENCED`) the way a real client would; any other
    /// `err` is a test failure.
    fn cmd_ok(&mut self, line: &str) -> Vec<String> {
        for _ in 0..MAX_RETRIES {
            let (data, term) = self.cmd(line);
            if term.starts_with("err BUSY")
                || term.starts_with("err DEADLINE")
                || term.starts_with("err FENCED")
            {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            assert!(!term.starts_with("err"), "{line:?} failed: {term}");
            return data;
        }
        panic!("{line:?} still shed after {MAX_RETRIES} retries");
    }

    /// Sorted data rows of `access NAME`, header stripped.
    fn access_rows(&mut self, view: &str) -> Vec<String> {
        let mut data = self.cmd_ok(&format!("access {view}"));
        assert!(!data.is_empty(), "access {view} returned no header");
        let header = data.remove(0);
        assert!(
            header.contains(" rows in "),
            "garbled access header: {header:?}"
        );
        data.sort();
        data
    }
}

/// Boot a server and build the shared fixture over the wire: `EMP` with
/// `ROWS` tuples, three views tiling the key space, the requested
/// topology and strategy, and the front cache forced on or off.
fn start(strategy: &str, shards: usize, replicas: usize, cache_on: bool) -> (Server, Client) {
    let server = Server::start(
        Session::new(),
        ServerConfig {
            port: 0,
            max_conns: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.addr());
    c.cmd_ok("create table EMP (eid int, grp int) btree eid");
    for eid in 0..ROWS {
        c.cmd_ok(&format!("insert EMP ({eid}, {})", eid % 3));
    }
    for (i, (lo, hi)) in WINDOWS.iter().enumerate() {
        c.cmd_ok(&format!(
            "define view V{i} (EMP.all) where EMP.eid >= {lo} and EMP.eid <= {hi}"
        ));
    }
    if shards > 1 {
        c.cmd_ok(&format!("shards {shards}"));
    }
    if replicas > 1 {
        c.cmd_ok(&format!("replicas {replicas}"));
    }
    c.cmd_ok(&format!("strategy {strategy}"));
    c.cmd_ok(if cache_on { "cache on" } else { "cache off" });
    (server, c)
}

/// Parse `k=v` counters off the `totals:` line of `cache stats`.
fn cache_totals(c: &mut Client) -> std::collections::HashMap<String, u64> {
    let data = c.cmd_ok("cache stats");
    let totals = data
        .iter()
        .find_map(|l| l.strip_prefix("totals:"))
        .expect("cache stats has a totals line");
    totals
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| v.parse::<u64>().ok().map(|v| (k.to_string(), v)))
        .collect()
}

fn run_schedule(strategy: &str, shards: usize, replicas: usize, seed: u64) {
    let ctx = format!("strategy={strategy} shards={shards} replicas={replicas} seed={seed}");
    let (sut_server, mut sut) = start(strategy, shards, replicas, true);
    // The oracle is the simplest correct server: one engine, no
    // replicas, no cache, always-recompute.
    let (oracle_server, mut oracle) = start("recompute", 1, 1, false);

    let mut rng = seed;
    // Live keys, so re-keys stay collision-free and both servers agree
    // on which tuple moved.
    let mut keys: Vec<i64> = (0..ROWS).collect();
    let mut chaos_on = false;

    let check_view = |sut: &mut Client, oracle: &mut Client, v: usize| {
        let got = sut.access_rows(&format!("V{v}"));
        let want = oracle.access_rows(&format!("V{v}"));
        assert_eq!(got, want, "{ctx}: V{v} diverged from the serial oracle");
    };
    let update_both =
        |sut: &mut Client, oracle: &mut Client, keys: &mut Vec<i64>, rng: &mut u64| {
            let at = (next(rng) % keys.len() as u64) as usize;
            let victim = keys[at];
            let mut new_key = next(rng) as i64 % KEY_SPACE;
            while keys.contains(&new_key) {
                new_key = (new_key + 1) % KEY_SPACE;
            }
            sut.cmd_ok(&format!("update {victim} -> {new_key}"));
            oracle.cmd_ok(&format!("update {victim} -> {new_key}"));
            keys[at] = new_key;
        };

    for _ in 0..OPS {
        match next(&mut rng) % 100 {
            // Reads dominate: that is what keeps the cache populated in
            // the window every other leg tries to make stale.
            0..=54 => {
                let v = (next(&mut rng) % WINDOWS.len() as u64) as usize;
                check_view(&mut sut, &mut oracle, v);
            }
            55..=79 => update_both(&mut sut, &mut oracle, &mut keys, &mut rng),
            80..=89 if replicas >= 2 => {
                // Failure leg: crash a shard's primary (a follower is
                // promoted in-line), rejoin it, sometimes force one
                // more promotion. Epoch fences must flash the affected
                // cached guards, never serve across them.
                let s = next(&mut rng) % shards as u64;
                sut.cmd_ok(&format!("crash {s}"));
                sut.cmd_ok(&format!("recover {s}"));
                if next(&mut rng).is_multiple_of(2) {
                    sut.cmd_ok(&format!("promote {s}"));
                }
            }
            90..=99 if replicas >= 2 => {
                if chaos_on {
                    sut.cmd_ok("chaos off");
                    sut.cmd_ok("resync");
                } else {
                    sut.cmd_ok(&format!(
                        "chaos inject --seed {seed} --delay 0.25 --delay-ms 0 1 \
                         --drop 0.05 --dup 0.1 --reorder 0.1 --fence 0.05"
                    ));
                }
                chaos_on = !chaos_on;
            }
            _ => {
                let v = (next(&mut rng) % WINDOWS.len() as u64) as usize;
                check_view(&mut sut, &mut oracle, v);
            }
        }
    }
    if chaos_on {
        sut.cmd_ok("chaos off");
        sut.cmd_ok("resync");
    }

    // Deterministic closing leg: fill every view, re-key a live tuple
    // (the windows tile the key space, so some cached view must be
    // invalidated), and re-check everything. This guarantees the
    // stale_served==0 assertion below is tested against a cache that
    // demonstrably invalidated something.
    for v in 0..WINDOWS.len() {
        check_view(&mut sut, &mut oracle, v);
    }
    update_both(&mut sut, &mut oracle, &mut keys, &mut rng);
    for v in 0..WINDOWS.len() {
        check_view(&mut sut, &mut oracle, v);
    }

    let totals = cache_totals(&mut sut);
    assert_eq!(
        totals.get("stale_served"),
        Some(&0),
        "{ctx}: cache served a stale body: {totals:?}"
    );
    assert!(
        totals.get("invalidations").copied().unwrap_or(0) > 0,
        "{ctx}: schedule never exercised invalidation: {totals:?}"
    );
    assert!(
        totals.get("hits").copied().unwrap_or(0) > 0,
        "{ctx}: schedule never hit the cache: {totals:?}"
    );

    let _ = sut.cmd("quit");
    let _ = oracle.cmd("quit");
    sut_server.stop();
    oracle_server.stop();
}

proptest! {
    // Each case replays the schedule on all four strategies — two TCP
    // servers per strategy — so keep the case budget modest (matches
    // the partition-chaos fuzz).
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn cached_reads_match_the_serial_oracle(
        seed in 0u64..1_000_000,
        shards in 1usize..=4,
        replicas in 1usize..=3,
    ) {
        for strategy in ["recompute", "cache", "avm", "rvm"] {
            run_schedule(strategy, shards, replicas, seed);
        }
    }
}

/// Pinned regression: the exact shape the paper's Model 1 cares about —
/// one shard, no replicas, cache on — must invalidate on an
/// overlapping re-key and keep serving hits on the untouched windows.
#[test]
fn overlapping_rekey_invalidates_only_the_touched_windows() {
    let (server, mut c) = start("recompute", 1, 1, true);
    for v in 0..WINDOWS.len() {
        let _ = c.access_rows(&format!("V{v}"));
    }
    let before = cache_totals(&mut c);
    // 0 lives in V0's window; 20 lands in V1's. V2 is untouched.
    c.cmd_ok("update 0 -> 20");
    let _ = c.access_rows("V2");
    let after = cache_totals(&mut c);
    assert!(
        after["invalidations"] > before["invalidations"],
        "overlapping re-key must invalidate: {before:?} -> {after:?}"
    );
    assert!(
        after["hits"] > before["hits"],
        "untouched window must still hit: {before:?} -> {after:?}"
    );
    assert_eq!(after["stale_served"], 0);
    let _ = c.cmd("quit");
    server.stop();
}
