//! `loadgen`: a closed-loop load generator for `procdb-server`.
//!
//! Drives N concurrent client connections with the paper's operation
//! mix — accesses with probability `1 − P` under a `Z` locality skew,
//! update transactions of `l` tuples with probability `P` — and reports
//! throughput and latency percentiles per strategy.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--clients 1,4,8] [--ops 200] [--rows 400]
//!         [--views 8] [--p-update 0.2] [--l 4] [--z 0.25] [--seed 1]
//!         [--shards S] [--replicas R] [--chaos] [--net-chaos]
//!         [--strategies ar,ci,avm,rvm] [--proto v1,v2] [--pipeline N]
//!         [--sessions M] [--read-heavy] [--cache]
//!         [--json PATH] [--metrics-json] [--max-in-flight N]
//!         [--trace-sample N]
//! ```
//!
//! `--sessions M` deals the workload as `M` logical sessions, each
//! camped on an affinity procedure it re-reads ~80% of the time
//! (multiplexed round-robin over the client connections); `--read-heavy`
//! forces an update probability of 0.03 — together they model the
//! fleet-of-dashboards shape the front result cache is built for.
//! `--cache` measures each configuration twice with the identical dealt
//! workload — front cache off, then on, with the relation's key set
//! walked back to its seeded state in between so both passes do the
//! same effective re-key work — scrapes `cache stats` deltas (hits,
//! misses, fills, invalidations, stale reads, invalidation lag), and
//! reports the on-vs-off throughput ratio as `cache_speedup_vs_off`.
//! Without `--cache` the front cache is disabled for every run so the
//! strategy columns keep measuring the view-maintenance engines.
//!
//! `--chaos` drives a crash/recover/promote schedule concurrent with
//! every measured run; `--net-chaos` layers *message* chaos on top: a
//! seeded `chaos inject` plan delays, drops, duplicates, and reorders
//! the replica delta ships (plus occasional commit-point fences) while
//! the same crash/promote schedule runs. Clients treat the resulting
//! typed `FENCED` errors as retryable — the retry lands on the newly
//! promoted primary — and the run verifies afterwards that no committed
//! write was lost or duplicated (the row count is conserved) and every
//! replica rejoined at lag zero after the closing `resync`.
//!
//! `--proto` selects the wire protocol(s) to measure: `v1` is the
//! classic line protocol (one command per round-trip), `v2` the binary
//! framed protocol driven **pipelined** — each client keeps up to
//! `--pipeline` requests in flight and matches responses by request id
//! in whatever order the server's demultiplexer completes them. Both
//! protocols replay the identical dealt workload, so a v2-vs-v1 row
//! pair isolates the protocol cost.
//!
//! With `--metrics-json` (requires `--json`), the server's `metrics`
//! exposition is scraped before and after every run and the per-run
//! counter deltas — accesses, invalidations, maintenance work, pager
//! traffic, buffer hit ratio — are embedded in the JSON report under
//! `server_metrics`.
//!
//! Without `--addr` an in-process server is started on an ephemeral
//! port, loaded with a dense integer relation split into per-view key
//! windows, and shut down afterwards — a self-contained benchmark.
//! Each client is closed-loop: it issues one wire command, waits for
//! the `ok`/`err` terminator, records the round-trip, and only then
//! issues the next. `BUSY`/`DEADLINE` sheds are retried with capped
//! exponential backoff and reported per run; `--max-in-flight` lowers
//! the in-process server's admission bound (set it below the client
//! count to exercise the shed/backoff path).

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use procdb_bench::LatencySummary;
use procdb_server::{Server, ServerConfig, Session};
use procdb_wire::{errcode, Request, Response, WireClient};
use procdb_workload::{
    generate_stream, session_stream, split_session_stream, split_stream, Op, StreamSpec,
};

#[derive(Debug, Clone)]
struct Config {
    addr: Option<String>,
    clients: Vec<usize>,
    ops: usize,
    rows: usize,
    views: usize,
    p_update: f64,
    l: usize,
    z: f64,
    seed: u64,
    /// Partition `R1` across this many shard engines (`shards N` over
    /// the wire).
    shards: usize,
    /// Run each shard as a replica group of this many engines
    /// (`replicas R` over the wire); 1 keeps shards unreplicated.
    replicas: usize,
    /// Drive a chaos schedule concurrent with every measured run: crash
    /// shard 0's primary (a follower is promoted in-line), rejoin the
    /// ex-primary, then force one extra promotion. Requires
    /// `--replicas >= 2` — failover should be invisible to clients.
    chaos: bool,
    /// Layer message chaos over the crash/promote schedule: install a
    /// seeded `chaos inject` plan (delta-ship delays, drops, duplicates,
    /// reorders, commit-point fences) for the duration of every measured
    /// run, then `chaos off` + `resync` and verify zero lost/duplicated
    /// committed writes. Requires `--replicas >= 2`.
    net_chaos: bool,
    strategies: Vec<(String, String)>, // (label, wire name)
    /// Wire protocols to measure (`v1` line, `v2` framed pipelined).
    protos: Vec<String>,
    /// Pipeline depth per v2 client (ignored for v1 runs).
    pipeline: usize,
    json: Option<String>,
    metrics_json: bool,
    /// Admission bound for the in-process server (ignored with `--addr`);
    /// lower it below the client count to exercise BUSY shedding + the
    /// clients' exponential backoff.
    max_in_flight: Option<usize>,
    /// Request-trace sampling: trace 1 in N requests (0 = tracing off).
    /// When set, every measured run is preceded by an identical
    /// tracing-off pass and the throughput delta is reported as
    /// `trace_overhead_pct`.
    trace_sample: u64,
    /// Deal the workload as this many logical sessions with per-session
    /// procedure affinity (0 = classic unskewed dealing). Sessions are
    /// multiplexed round-robin over the client connections.
    sessions: usize,
    /// Force a read-heavy mix (update probability 0.03, overriding
    /// `--p-update`) — the shape the front cache is measured against.
    read_heavy: bool,
    /// Measure every configuration cache-off then cache-on with the
    /// identical dealt workload and report the throughput ratio.
    cache: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            addr: None,
            clients: vec![1, 4, 8],
            ops: 200,
            rows: 400,
            views: 8,
            p_update: 0.2,
            l: 4,
            z: 0.25,
            seed: 1,
            shards: 1,
            replicas: 1,
            chaos: false,
            net_chaos: false,
            strategies: all_strategies(),
            protos: vec!["v1".to_string()],
            pipeline: 16,
            json: None,
            metrics_json: false,
            max_in_flight: None,
            trace_sample: 0,
            sessions: 0,
            read_heavy: false,
            cache: false,
        }
    }
}

fn all_strategies() -> Vec<(String, String)> {
    [
        ("ar", "recompute"),
        ("ci", "cache"),
        ("avm", "avm"),
        ("rvm", "rvm"),
    ]
    .iter()
    .map(|(a, b)| (a.to_string(), b.to_string()))
    .collect()
}

fn strategy_by_label(label: &str) -> Option<(String, String)> {
    all_strategies().into_iter().find(|(l, _)| l == label)
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--clients 1,4,8] [--ops N] [--rows N] \
         [--views N] [--p-update P] [--l N] [--z Z] [--seed N] [--shards S] \
         [--replicas R] [--chaos] [--net-chaos] [--strategies ar,ci,avm,rvm] \
         [--proto v1,v2] [--pipeline N] [--sessions M] [--read-heavy] [--cache] \
         [--json PATH] [--metrics-json] [--max-in-flight N] [--trace-sample N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config::default();
    let mut args = std::env::args().skip(1);
    fn val(args: &mut impl Iterator<Item = String>) -> String {
        args.next().unwrap_or_else(|| usage())
    }
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => cfg.addr = Some(val(&mut args)),
            "--clients" => {
                cfg.clients = val(&mut args)
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
                if cfg.clients.is_empty() || cfg.clients.contains(&0) {
                    usage();
                }
            }
            "--ops" => cfg.ops = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--rows" => cfg.rows = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--views" => cfg.views = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--p-update" => cfg.p_update = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--l" => cfg.l = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--z" => cfg.z = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--shards" => {
                cfg.shards = val(&mut args).parse().unwrap_or_else(|_| usage());
                if cfg.shards == 0 {
                    usage();
                }
            }
            "--replicas" => {
                cfg.replicas = val(&mut args).parse().unwrap_or_else(|_| usage());
                if cfg.replicas == 0 {
                    usage();
                }
            }
            "--chaos" => cfg.chaos = true,
            "--net-chaos" => cfg.net_chaos = true,
            "--strategies" => {
                cfg.strategies = val(&mut args)
                    .split(',')
                    .map(|s| strategy_by_label(s).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--proto" => {
                cfg.protos = val(&mut args).split(',').map(|s| s.to_string()).collect();
                if cfg.protos.is_empty() || cfg.protos.iter().any(|p| p != "v1" && p != "v2") {
                    usage();
                }
            }
            "--pipeline" => {
                cfg.pipeline = val(&mut args).parse().unwrap_or_else(|_| usage());
                if cfg.pipeline == 0 {
                    usage();
                }
            }
            "--json" => cfg.json = Some(val(&mut args)),
            "--metrics-json" => cfg.metrics_json = true,
            "--max-in-flight" => {
                let n: usize = val(&mut args).parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage();
                }
                cfg.max_in_flight = Some(n);
            }
            "--trace-sample" => {
                cfg.trace_sample = val(&mut args).parse().unwrap_or_else(|_| usage());
            }
            "--sessions" => {
                cfg.sessions = val(&mut args).parse().unwrap_or_else(|_| usage());
                if cfg.sessions == 0 {
                    usage();
                }
            }
            "--read-heavy" => cfg.read_heavy = true,
            "--cache" => cfg.cache = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if cfg.rows == 0 || cfg.views == 0 || cfg.views > cfg.rows || cfg.ops == 0 {
        usage();
    }
    if cfg.read_heavy {
        cfg.p_update = 0.03;
    }
    if cfg.metrics_json && cfg.json.is_none() {
        eprintln!("loadgen: --metrics-json requires --json PATH");
        std::process::exit(2);
    }
    if cfg.chaos && cfg.replicas < 2 {
        eprintln!("loadgen: --chaos needs --replicas >= 2 (a lone primary cannot fail over)");
        std::process::exit(2);
    }
    if cfg.net_chaos && cfg.replicas < 2 {
        eprintln!("loadgen: --net-chaos needs --replicas >= 2 (message chaos targets delta ships)");
        std::process::exit(2);
    }
    cfg
}

/// First backoff step after a `BUSY`/`DEADLINE` shed or a refused
/// connection; doubles per consecutive failure up to [`MAX_BACKOFF`].
const BASE_BACKOFF: Duration = Duration::from_millis(1);
/// Backoff ceiling.
const MAX_BACKOFF: Duration = Duration::from_millis(64);
/// Give up on a command (count it as an error) after this many sheds.
const MAX_RETRIES_PER_CMD: usize = 50;
/// Give up connecting after this many refusals.
const MAX_CONNECT_RETRIES: usize = 200;

/// splitmix64: cheap seeded PRNG for backoff jitter (no rand crate).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Pick this step's jittered delay — uniform in `[cap/2, cap]` — and
/// double the cap toward [`MAX_BACKOFF`]. Without jitter every client
/// shed by the same `BUSY` burst sleeps the identical doubling sequence
/// and the whole cohort retries in lockstep, re-creating the burst it
/// backed off from; the half-cap floor keeps the expected wait within
/// 2x of the unjittered schedule.
fn backoff_delay(backoff: &mut Duration, rng: &mut u64) -> Duration {
    let cap = backoff.as_nanos() as u64;
    let floor = cap / 2;
    let delay = Duration::from_nanos(floor + splitmix64(rng) % (cap - floor + 1));
    *backoff = (*backoff * 2).min(MAX_BACKOFF);
    delay
}

fn backoff_step(backoff: &mut Duration, rng: &mut u64) {
    std::thread::sleep(backoff_delay(backoff, rng));
}

/// One wire-protocol client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut c = Client {
            writer,
            reader: BufReader::new(stream),
        };
        let (_greeting, term) = c.read_response()?;
        if term != "ok ready" {
            return Err(format!("unexpected greeting terminator {term:?}"));
        }
        Ok(c)
    }

    /// Data lines up to (and excluding) the `ok`/`err` terminator.
    fn read_response(&mut self) -> Result<(Vec<String>, String), String> {
        let mut data = Vec::new();
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".to_string());
            }
            let line = line.trim_end().to_string();
            if line == "ok" || line.starts_with("ok ") || line.starts_with("err") {
                return Ok((data, line));
            }
            data.push(line);
        }
    }

    fn cmd(&mut self, line: &str) -> Result<(Vec<String>, String), String> {
        // One write per command: a split command + newline would cross
        // two TCP segments and pay a Nagle round-trip per op.
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.read_response()
    }

    /// Run a command that must succeed (setup/control path).
    fn expect_ok(&mut self, line: &str) -> Result<(), String> {
        let (_, term) = self.cmd(line)?;
        if term.starts_with("err") {
            return Err(format!("{line:?} failed: {term}"));
        }
        Ok(())
    }

    /// Connect, retrying refused/busy attempts with jittered
    /// exponential backoff. Returns the client and how many retries it
    /// took.
    fn connect_with_retry(addr: &str, rng: &mut u64) -> Result<(Client, usize), String> {
        let mut backoff = BASE_BACKOFF;
        let mut retries = 0usize;
        loop {
            match Client::connect(addr) {
                Ok(c) => return Ok((c, retries)),
                Err(e) => {
                    retries += 1;
                    if retries >= MAX_CONNECT_RETRIES {
                        return Err(format!("giving up after {retries} connect retries: {e}"));
                    }
                    backoff_step(&mut backoff, rng);
                }
            }
        }
    }
}

fn view_names(cfg: &Config) -> Vec<String> {
    (0..cfg.views).map(|i| format!("V{i}")).collect()
}

/// Create the relation and the per-view key windows over the wire.
fn setup_schema(control: &mut Client, cfg: &Config) -> Result<(), String> {
    control.expect_ok("create table EMP (eid int, grp int, pad bytes 16) btree eid")?;
    for eid in 0..cfg.rows {
        control.expect_ok(&format!("insert EMP ({eid}, {}, \"pad\")", eid % cfg.views))?;
    }
    let window = cfg.rows / cfg.views;
    for (i, name) in view_names(cfg).iter().enumerate() {
        let lo = i * window;
        let hi = if i + 1 == cfg.views {
            cfg.rows - 1
        } else {
            (i + 1) * window - 1
        };
        control.expect_ok(&format!(
            "define view {name} (EMP.all) where EMP.eid >= {lo} and EMP.eid <= {hi}"
        ))?;
    }
    if cfg.shards > 1 {
        control.expect_ok(&format!("shards {}", cfg.shards))?;
    }
    if cfg.replicas > 1 {
        control.expect_ok(&format!("replicas {}", cfg.replicas))?;
    }
    // Front cache off by default so the strategy columns keep measuring
    // the maintenance engines; `--cache` turns it on per measured pass.
    // Best-effort: an older external server has no `cache` command.
    let _ = control.cmd("cache off")?;
    Ok(())
}

/// One shard's counters from the `shards` wire command.
#[derive(Debug, Clone, Copy, Default)]
struct ShardSnapshot {
    shard: usize,
    accesses: f64,
    updates: f64,
    escalations: f64,
    hits: f64,
    faults: f64,
    access_ms: f64,
    r1_rows: f64,
    /// Replica-group size (level; 1 on an unreplicated backend).
    replicas: f64,
    /// Live replicas right now (level).
    live: f64,
    /// Largest follower lag behind the shard's delta-log head (level).
    max_lag: f64,
    /// Primary promotions on this shard (counter).
    failovers: f64,
    /// Replica-group epoch: bumped once per promotion (level).
    epoch: f64,
    /// Stale-primary writes rejected at the commit point (counter).
    fenced: f64,
}

impl ShardSnapshot {
    fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.faults;
        if total == 0.0 {
            0.0
        } else {
            self.hits / total
        }
    }

    fn conflict_rate(&self) -> f64 {
        if self.accesses == 0.0 {
            0.0
        } else {
            self.escalations / self.accesses
        }
    }

    /// Per-run counter deltas; rows, replica counts, and lag are
    /// levels, not counters.
    fn since(&self, before: &ShardSnapshot) -> ShardSnapshot {
        ShardSnapshot {
            shard: self.shard,
            accesses: self.accesses - before.accesses,
            updates: self.updates - before.updates,
            escalations: self.escalations - before.escalations,
            hits: self.hits - before.hits,
            faults: self.faults - before.faults,
            access_ms: self.access_ms - before.access_ms,
            r1_rows: self.r1_rows,
            replicas: self.replicas,
            live: self.live,
            max_lag: self.max_lag,
            failovers: self.failovers - before.failovers,
            epoch: self.epoch,
            fenced: self.fenced - before.fenced,
        }
    }
}

/// Scrape the `shards` command into per-shard snapshots.
fn fetch_shards(control: &mut Client) -> Result<Vec<ShardSnapshot>, String> {
    let (data, term) = control.cmd("shards")?;
    if term.starts_with("err") {
        return Err(format!("shards scrape failed: {term}"));
    }
    let mut out = Vec::new();
    for line in data {
        let Some(rest) = line.strip_prefix("shard ") else {
            continue;
        };
        let Some((id, fields)) = rest.split_once(':') else {
            continue;
        };
        let mut snap = ShardSnapshot {
            shard: id
                .trim()
                .parse()
                .map_err(|_| format!("bad shard id in {line:?}"))?,
            ..ShardSnapshot::default()
        };
        for kv in fields.split_whitespace() {
            let Some((k, v)) = kv.split_once('=') else {
                continue;
            };
            let Ok(v) = v.parse::<f64>() else { continue };
            match k {
                "accesses" => snap.accesses = v,
                "updates" => snap.updates = v,
                "escalations" => snap.escalations = v,
                "hits" => snap.hits = v,
                "faults" => snap.faults = v,
                "access_ms" => snap.access_ms = v,
                "r1_rows" => snap.r1_rows = v,
                "replicas" => snap.replicas = v,
                "live" => snap.live = v,
                "max_lag" => snap.max_lag = v,
                "failovers" => snap.failovers = v,
                "epoch" => snap.epoch = v,
                "fenced" => snap.fenced = v,
                _ => {}
            }
        }
        out.push(snap);
    }
    if out.is_empty() {
        return Err("shards scrape returned no per-shard lines".to_string());
    }
    Ok(out)
}

/// The front result cache's counters from the `cache stats` wire
/// command (`totals:` line plus per-shard watermark lines).
#[derive(Debug, Clone, Copy, Default)]
struct CacheSnapshot {
    hits: f64,
    misses: f64,
    fills: f64,
    invalidations: f64,
    stale_served: f64,
    /// Cached result bodies right now (level).
    entries: f64,
    /// Bytes held by cached bodies right now (level).
    bytes: f64,
    /// Worst per-shard invalidation lag — engine deltas committed that
    /// the cache has not seen (level; synchronous taps keep it 0).
    max_lag: f64,
}

impl CacheSnapshot {
    fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0.0 {
            0.0
        } else {
            self.hits / total
        }
    }

    /// Stale results served as a fraction of all cache-served results.
    fn stale_rate(&self) -> f64 {
        if self.hits == 0.0 {
            0.0
        } else {
            self.stale_served / self.hits
        }
    }

    /// Per-run counter deltas; occupancy and lag are levels.
    fn since(&self, before: &CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            fills: self.fills - before.fills,
            invalidations: self.invalidations - before.invalidations,
            stale_served: self.stale_served - before.stale_served,
            entries: self.entries,
            bytes: self.bytes,
            max_lag: self.max_lag,
        }
    }
}

/// Scrape `cache stats`. Returns `None` when the server has no front
/// cache (an older external server), so `--addr` runs stay usable.
fn fetch_cache(control: &mut Client) -> Result<Option<CacheSnapshot>, String> {
    let (data, term) = control.cmd("cache stats")?;
    if term.starts_with("err") {
        return Ok(None);
    }
    let mut snap = CacheSnapshot::default();
    for line in data {
        if let Some(rest) = line.strip_prefix("totals:") {
            for kv in rest.split_whitespace() {
                let Some((k, v)) = kv.split_once('=') else {
                    continue;
                };
                let Ok(v) = v.parse::<f64>() else { continue };
                match k {
                    "hits" => snap.hits = v,
                    "misses" => snap.misses = v,
                    "fills" => snap.fills = v,
                    "invalidations" => snap.invalidations = v,
                    "stale_served" => snap.stale_served = v,
                    "entries" => snap.entries = v,
                    "bytes" => snap.bytes = v,
                    _ => {}
                }
            }
        } else if line.starts_with("cache_shard ") {
            for kv in line.split_whitespace() {
                if let Some(v) = kv.strip_prefix("lag=") {
                    if let Ok(v) = v.parse::<f64>() {
                        snap.max_lag = snap.max_lag.max(v);
                    }
                }
            }
        }
    }
    Ok(Some(snap))
}

#[derive(Debug, Clone)]
struct RunResult {
    strategy: String,
    /// Wire protocol this run measured (`v1` line, `v2` framed).
    proto: String,
    /// In-flight window per client (always 1 for v1).
    pipeline: usize,
    clients: usize,
    commands: usize,
    counters: ClientCounters,
    elapsed: Duration,
    latency: LatencySummary,
    /// Per-run deltas of server-side `_total` counters (plus a derived
    /// `buffer_hit_ratio`), scraped via the `metrics` command when
    /// `--metrics-json` is on. Empty otherwise.
    server_metrics: Vec<(String, f64)>,
    /// Per-shard counter deltas for this run, scraped via the `shards`
    /// wire command (one entry per shard).
    shards: Vec<ShardSnapshot>,
    /// Throughput cost of tracing at `--trace-sample N`: percent drop
    /// from the tracing-off baseline pass (`None` without the knob).
    /// Negative values are run-to-run noise.
    trace_overhead_pct: Option<f64>,
    /// p99 latency (µs) over the samples completed while the
    /// `--net-chaos` plan was installed (`None` without the knob or when
    /// no sample landed in the window).
    p99_during_chaos_us: Option<f64>,
    /// Front-cache counter deltas for the measured (cache-on) pass
    /// (`None` without `--cache`).
    cache: Option<CacheSnapshot>,
    /// Cache-on vs cache-off throughput over the identical dealt
    /// workload (`None` without `--cache`).
    cache_speedup_vs_off: Option<f64>,
}

impl RunResult {
    fn throughput(&self) -> f64 {
        self.commands as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Commands that ultimately failed, as a fraction of all commands.
    fn error_rate(&self) -> f64 {
        if self.commands == 0 {
            0.0
        } else {
            self.counters.errors as f64 / self.commands as f64
        }
    }
}

/// Per-client shed/retry accounting.
#[derive(Debug, Clone, Copy, Default)]
struct ClientCounters {
    /// Commands that ultimately failed (after retries, for retryable
    /// errors).
    errors: usize,
    /// Total retry attempts (sheds re-sent plus connect retries).
    retries: usize,
    /// `err BUSY` admission-gate sheds observed.
    busy_sheds: usize,
    /// `err DEADLINE` lock-deadline expiries observed.
    deadline_expiries: usize,
    /// `err FENCED` stale-primary rejections observed (each retry landed
    /// on the newly promoted primary).
    fenced_retries: usize,
}

impl ClientCounters {
    fn absorb(&mut self, other: ClientCounters) {
        self.errors += other.errors;
        self.retries += other.retries;
        self.busy_sheds += other.busy_sheds;
        self.deadline_expiries += other.deadline_expiries;
        self.fenced_retries += other.fenced_retries;
    }
}

/// Per-client measurement: latencies (µs), the subset of those samples
/// recorded while message chaos was active, wall-clock elapsed,
/// counters.
type ClientRun = Result<(Vec<f64>, Vec<f64>, Duration, ClientCounters), String>;

/// Folded result of `drive_clients`: merged latencies (µs), the
/// during-chaos subset, the slowest client's wall-clock, the total
/// command count, and the merged shed/retry counters.
type DriveOutcome = Result<(Vec<f64>, Vec<f64>, Duration, usize, ClientCounters), String>;

/// One client's closed loop: issue every wire line of every op in its
/// stream, one at a time, timing each round-trip. `BUSY`, `DEADLINE`,
/// and `FENCED` sheds are retried with exponential backoff (they are
/// flow control, not failures — a fenced write was rejected before any
/// state change and the retry routes to the new primary); the retry
/// wait is included in the command's latency, which is what a caller of
/// a shedding server actually experiences.
fn run_client(
    addr: &str,
    lines: &[String],
    barrier: &Barrier,
    seed: u64,
    chaos_active: &AtomicBool,
) -> ClientRun {
    let mut rng = seed;
    let (mut client, connect_retries) = Client::connect_with_retry(addr, &mut rng)?;
    let mut latencies = Vec::with_capacity(lines.len());
    let mut chaos_latencies = Vec::new();
    let mut counters = ClientCounters {
        retries: connect_retries,
        ..ClientCounters::default()
    };
    barrier.wait();
    let start = Instant::now();
    for line in lines {
        let t = Instant::now();
        let mut backoff = BASE_BACKOFF;
        let mut attempts = 0usize;
        loop {
            let (_, term) = client.cmd(line)?;
            let shed = if term.starts_with("err BUSY") {
                counters.busy_sheds += 1;
                true
            } else if term.starts_with("err DEADLINE") {
                counters.deadline_expiries += 1;
                true
            } else if term.starts_with("err FENCED") {
                counters.fenced_retries += 1;
                true
            } else {
                if term.starts_with("err") {
                    counters.errors += 1;
                }
                false
            };
            if !shed {
                break;
            }
            attempts += 1;
            if attempts >= MAX_RETRIES_PER_CMD {
                counters.errors += 1;
                break;
            }
            counters.retries += 1;
            backoff_step(&mut backoff, &mut rng);
        }
        let lat = t.elapsed().as_secs_f64() * 1e6;
        if chaos_active.load(Ordering::Relaxed) {
            chaos_latencies.push(lat);
        }
        latencies.push(lat);
    }
    let elapsed = start.elapsed();
    let _ = client.cmd("quit");
    Ok((latencies, chaos_latencies, elapsed, counters))
}

/// One client's **pipelined** v2 loop: keep up to `window` framed
/// commands in flight, match responses by request id in completion
/// order, and re-enqueue `BUSY`/`DEADLINE`/`FENCED` sheds. A command's
/// latency runs from its *first* send to its final response — the same
/// retry-inclusive semantics as the v1 loop — so v1/v2 latency columns
/// compare like for like.
fn run_client_v2(
    addr: &str,
    lines: &[String],
    barrier: &Barrier,
    seed: u64,
    window: usize,
    chaos_active: &AtomicBool,
) -> ClientRun {
    let mut rng = seed;
    let mut client = {
        let mut backoff = BASE_BACKOFF;
        let mut retries = 0usize;
        loop {
            match WireClient::connect(addr, window as u32) {
                Ok(c) => break c,
                Err(e) => {
                    retries += 1;
                    if retries >= MAX_CONNECT_RETRIES {
                        return Err(format!("giving up after {retries} connect retries: {e}"));
                    }
                    backoff_step(&mut backoff, &mut rng);
                }
            }
        }
    };
    let mut counters = ClientCounters::default();
    let mut latencies = vec![0.0f64; lines.len()];
    let mut chaos_latencies = Vec::new();
    let mut started: Vec<Option<Instant>> = vec![None; lines.len()];
    let mut attempts = vec![0usize; lines.len()];
    // Work queue of line indices; `pending` maps in-flight request ids
    // back to them.
    let mut queue: VecDeque<usize> = (0..lines.len()).collect();
    let mut pending: HashMap<u64, usize> = HashMap::new();
    barrier.wait();
    let start = Instant::now();
    while !queue.is_empty() || !pending.is_empty() {
        while pending.len() < window {
            let Some(idx) = queue.pop_front() else { break };
            let id = client
                .send(&Request::Command {
                    line: lines[idx].clone(),
                })
                .map_err(|e| format!("send: {e}"))?;
            started[idx].get_or_insert_with(Instant::now);
            pending.insert(id, idx);
        }
        let (id, resp) = client.recv().map_err(|e| format!("recv: {e}"))?;
        let idx = pending
            .remove(&id)
            .ok_or_else(|| format!("response for unknown request id {id}"))?;
        let shed = match resp {
            Response::OkText { .. } => false,
            Response::Error { code, .. } if code == errcode::BUSY => {
                counters.busy_sheds += 1;
                true
            }
            Response::Error { code, .. } if code == errcode::DEADLINE => {
                counters.deadline_expiries += 1;
                true
            }
            Response::Error { code, .. } if code == errcode::FENCED => {
                counters.fenced_retries += 1;
                true
            }
            Response::Error { .. } => {
                counters.errors += 1;
                false
            }
            other => {
                return Err(format!(
                    "unexpected response opcode {:#04x}",
                    other.opcode()
                ))
            }
        };
        if shed {
            attempts[idx] += 1;
            if attempts[idx] >= MAX_RETRIES_PER_CMD {
                counters.errors += 1;
            } else {
                counters.retries += 1;
                queue.push_back(idx);
                // Only stall for backoff when nothing else is in flight;
                // otherwise keep draining responses — the re-enqueued
                // command naturally waits its turn behind the window.
                if pending.is_empty() {
                    let mut backoff = BASE_BACKOFF;
                    backoff_step(&mut backoff, &mut rng);
                }
                continue;
            }
        }
        let lat = started[idx]
            .expect("completed command was never started")
            .elapsed()
            .as_secs_f64()
            * 1e6;
        if chaos_active.load(Ordering::Relaxed) {
            chaos_latencies.push(lat);
        }
        latencies[idx] = lat;
    }
    let elapsed = start.elapsed();
    let _ = client.close();
    Ok((latencies, chaos_latencies, elapsed, counters))
}

/// Run a control-plane command that must eventually succeed, retrying
/// `BUSY`/`DEADLINE`/`FENCED` sheds like a regular client would.
fn cmd_ok_with_retry(client: &mut Client, line: &str, rng: &mut u64) -> Result<(), String> {
    let mut backoff = BASE_BACKOFF;
    for _ in 0..MAX_RETRIES_PER_CMD {
        let (_, term) = client.cmd(line)?;
        if term.starts_with("err BUSY")
            || term.starts_with("err DEADLINE")
            || term.starts_with("err FENCED")
        {
            backoff_step(&mut backoff, rng);
            continue;
        }
        if term.starts_with("err") {
            return Err(format!("{line:?} failed: {term}"));
        }
        return Ok(());
    }
    Err(format!(
        "{line:?} still shed after {MAX_RETRIES_PER_CMD} retries"
    ))
}

/// The chaos schedule driven concurrently with a measured run: crash
/// shard 0's primary (a live follower is promoted in-line by the
/// engine), rejoin the ex-primary via `recover`, then force one extra
/// promotion. With `--replicas >= 2` every client operation must still
/// succeed — failover is supposed to be invisible to the workload.
fn chaos_schedule(addr: &str) -> Result<(), String> {
    let mut rng = 0xC0FFEE;
    let (mut client, _) = Client::connect_with_retry(addr, &mut rng)?;
    let pause = Duration::from_millis(20);
    std::thread::sleep(pause);
    cmd_ok_with_retry(&mut client, "crash 0", &mut rng)?;
    std::thread::sleep(pause);
    cmd_ok_with_retry(&mut client, "recover 0", &mut rng)?;
    std::thread::sleep(pause);
    cmd_ok_with_retry(&mut client, "promote 0", &mut rng)?;
    let _ = client.cmd("quit");
    Ok(())
}

/// The `--net-chaos` schedule: install a seeded message-chaos plan on
/// the delta-shipping path (delays, drops, duplicates, reorders, and
/// occasional commit-point fences), run the same crash/recover/promote
/// cycle *under* that plan, then lift it and `resync` so every dropped
/// follower rejoins by delta-log replay. `chaos_active` brackets the
/// window for the clients' during-chaos latency bucketing.
fn net_chaos_schedule(
    addr: &str,
    seed: u64,
    barrier: &Barrier,
    chaos_active: &AtomicBool,
) -> Result<(), String> {
    let mut rng = seed ^ 0xDE1_7A5;
    let pause = Duration::from_millis(20);
    // Arm fences on every write *before* the clients start: the first
    // updates each shard commits are guaranteed to race a real
    // promotion and surface the typed FENCED retry, so every run
    // demonstrably exercises the fencing path (the CI gate counts on
    // it) instead of leaving it to the mixed plan's dice.
    let armed: Result<Client, String> = (|| {
        let (mut client, _) = Client::connect_with_retry(addr, &mut rng)?;
        cmd_ok_with_retry(
            &mut client,
            &format!("chaos inject --seed {seed} --fence 1"),
            &mut rng,
        )?;
        Ok(client)
    })();
    chaos_active.store(true, Ordering::SeqCst);
    // Release the measured clients even when arming failed — leaving
    // them parked on the barrier would wedge the whole run; the error
    // surfaces right after instead.
    barrier.wait();
    let mut client = armed?;
    std::thread::sleep(pause);
    cmd_ok_with_retry(
        &mut client,
        &format!(
            "chaos inject --seed {seed} --delay 0.25 --delay-ms 0 2 --drop 0.05 \
             --dup 0.15 --reorder 0.15 --heartbeat 0.1 --fence 0.05"
        ),
        &mut rng,
    )?;
    std::thread::sleep(pause);
    cmd_ok_with_retry(&mut client, "crash 0", &mut rng)?;
    std::thread::sleep(pause);
    cmd_ok_with_retry(&mut client, "recover 0", &mut rng)?;
    std::thread::sleep(pause);
    // Force one extra promotion. Chaos drops may have marked every
    // follower of shard 0 down at this instant; `resync` first and
    // tolerate a few "no live follower" rounds rather than treating the
    // transient as fatal.
    let mut backoff = BASE_BACKOFF;
    let mut promoted = false;
    for _ in 0..MAX_RETRIES_PER_CMD {
        cmd_ok_with_retry(&mut client, "resync 0", &mut rng)?;
        let (_, term) = client.cmd("promote 0")?;
        if !term.starts_with("err") {
            promoted = true;
            break;
        }
        if !(term.contains("no live follower")
            || term.starts_with("err BUSY")
            || term.starts_with("err DEADLINE")
            || term.starts_with("err FENCED"))
        {
            return Err(format!("\"promote 0\" failed: {term}"));
        }
        backoff_step(&mut backoff, &mut rng);
    }
    if !promoted {
        return Err("\"promote 0\" still refused after resync retries".to_string());
    }
    std::thread::sleep(pause);
    chaos_active.store(false, Ordering::SeqCst);
    cmd_ok_with_retry(&mut client, "chaos off", &mut rng)?;
    // Heal: every follower the plan marked down rejoins by replay (or
    // full copy if the bounded delta log wrapped past it).
    cmd_ok_with_retry(&mut client, "resync", &mut rng)?;
    let _ = client.cmd("quit");
    Ok(())
}

/// Scrape the server's `metrics` exposition into (name{labels}, value)
/// pairs, skipping `# HELP`/`# TYPE` comment lines.
fn fetch_metrics(control: &mut Client) -> Result<Vec<(String, f64)>, String> {
    let (data, term) = control.cmd("metrics")?;
    if term.starts_with("err") {
        return Err(format!("metrics scrape failed: {term}"));
    }
    let mut out = Vec::new();
    for line in data {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        if let Some((key, val)) = line.rsplit_once(' ') {
            if let Ok(v) = val.parse::<f64>() {
                out.push((key.to_string(), v));
            }
        }
    }
    Ok(out)
}

/// Counter deltas between two scrapes: every `_total` series that moved,
/// plus `buffer_hit_ratio` derived from the pager hit/fault deltas.
fn metric_deltas(before: &[(String, f64)], after: &[(String, f64)]) -> Vec<(String, f64)> {
    let base: std::collections::BTreeMap<&str, f64> =
        before.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut deltas = Vec::new();
    let mut hits = 0.0;
    let mut faults = 0.0;
    for (key, v) in after {
        if !key.contains("_total") {
            continue;
        }
        let d = v - base.get(key.as_str()).copied().unwrap_or(0.0);
        if d <= 0.0 {
            continue;
        }
        if key.starts_with("procdb_pager_buffer_hits_total") {
            hits += d;
        }
        if key.starts_with("procdb_pager_buffer_faults_total") {
            faults += d;
        }
        deltas.push((key.clone(), d));
    }
    if hits + faults > 0.0 {
        deltas.push(("buffer_hit_ratio".to_string(), hits / (hits + faults)));
    }
    deltas
}

/// Drive every client thread (plus the optional chaos schedules) over
/// the dealt streams and fold the per-client measurements together.
/// Returns `(latencies µs, during-chaos latencies µs, wall-clock of the
/// slowest client, command count, shed/retry counters)`.
fn drive_clients(addr: &str, cfg: &Config, proto: &str, streams: &[Vec<String>]) -> DriveOutcome {
    // The net-chaos schedule takes a barrier slot too: it arms the
    // opening fence window *before* the clients fire their first op,
    // so even a run that finishes in milliseconds overlaps the chaos.
    let barrier = Barrier::new(streams.len() + usize::from(cfg.net_chaos));
    let chaos_active = AtomicBool::new(false);
    type ScheduleResult = Option<Result<(), String>>;
    let (results, chaos_result, net_result): (Vec<ClientRun>, ScheduleResult, ScheduleResult) =
        std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(c, lines)| {
                    let barrier = &barrier;
                    let chaos_active = &chaos_active;
                    // Distinct per-client seeds decorrelate the backoff
                    // jitter; the workload itself is already dealt.
                    let seed = cfg.seed.wrapping_add(1 + c as u64);
                    let pipeline = cfg.pipeline;
                    s.spawn(move || {
                        if proto == "v2" {
                            run_client_v2(addr, lines, barrier, seed, pipeline, chaos_active)
                        } else {
                            run_client(addr, lines, barrier, seed, chaos_active)
                        }
                    })
                })
                .collect();
            let chaos = cfg.chaos.then(|| s.spawn(|| chaos_schedule(addr)));
            let net = cfg
                .net_chaos
                .then(|| s.spawn(|| net_chaos_schedule(addr, cfg.seed, &barrier, &chaos_active)));
            let results = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".to_string()))
                })
                .collect();
            let chaos_result = chaos.map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("chaos thread panicked".to_string()))
            });
            let net_result = net.map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("net-chaos thread panicked".to_string()))
            });
            (results, chaos_result, net_result)
        });
    if let Some(r) = chaos_result {
        r.map_err(|e| format!("chaos schedule: {e}"))?;
    }
    if let Some(r) = net_result {
        r.map_err(|e| format!("net-chaos schedule: {e}"))?;
    }
    let mut all_latencies = Vec::new();
    let mut chaos_latencies = Vec::new();
    let mut max_elapsed = Duration::ZERO;
    let mut commands = 0usize;
    let mut counters = ClientCounters::default();
    for r in results {
        let (lat, chaos_lat, elapsed, c) = r?;
        commands += lat.len();
        counters.absorb(c);
        all_latencies.extend(lat);
        chaos_latencies.extend(chaos_lat);
        max_elapsed = max_elapsed.max(elapsed);
    }
    Ok((
        all_latencies,
        chaos_latencies,
        max_elapsed,
        commands,
        counters,
    ))
}

/// Walk the relation's key set back to its seeded state by replaying
/// every re-key's inverse in reverse global order. Re-keys drift the
/// key set, so a second pass over the same seeded stream would mostly
/// no-op its updates; restoring between passes keeps back-to-back
/// passes (cache-off baseline, then measured cache-on) doing the same
/// effective work. Inverses of re-keys that themselves no-opped (their
/// victim had already moved) no-op harmlessly here too.
fn undo_updates(control: &mut Client, cfg: &Config, spec: &StreamSpec) -> Result<(), String> {
    let ops = if cfg.sessions > 0 {
        session_stream(spec, cfg.views, cfg.rows as i64, cfg.sessions)
    } else {
        generate_stream(spec, cfg.views, cfg.rows as i64)
    };
    for op in ops.iter().rev() {
        if let Op::Update(mods) = op {
            for (victim, new_key) in mods.iter().rev() {
                control.expect_ok(&format!("update {new_key} -> {victim}"))?;
            }
        }
    }
    Ok(())
}

fn run_one(
    addr: &str,
    control: &mut Client,
    cfg: &Config,
    label: &str,
    wire: &str,
    proto: &str,
    n_clients: usize,
) -> Result<RunResult, String> {
    control.expect_ok(&format!("strategy {wire}"))?;
    // Warm exclusively: the first access builds the engine and fills
    // every cache, so the measured loop sees steady state.
    for name in view_names(cfg) {
        control.expect_ok(&format!("access {name}"))?;
    }
    let names = view_names(cfg);
    // One seeded RNG generates the *global* operation sequence and the
    // ops are dealt round-robin to the clients: every client count (and
    // shard count) replays the identical global workload, so runs are
    // comparable. Per-client seeds (`seed + c * prime`) would give each
    // configuration a different workload.
    let spec = StreamSpec {
        p_update: cfg.p_update,
        l: cfg.l,
        z: cfg.z,
        ops: cfg.ops * n_clients,
        seed: cfg.seed,
    };
    let streams: Vec<Vec<String>> = if cfg.sessions > 0 {
        // M logical sessions, each camped on an affinity procedure,
        // multiplexed round-robin over the client connections: client
        // `c` replays sessions `c, c+n, c+2n, …` back to back.
        let per_session = split_session_stream(&spec, cfg.views, cfg.rows as i64, cfg.sessions);
        let mut per_client: Vec<Vec<String>> = vec![Vec::new(); n_clients];
        for (s, ops) in per_session.iter().enumerate() {
            per_client[s % n_clients].extend(ops.iter().flat_map(|op| op.to_wire_lines(&names)));
        }
        per_client
    } else {
        split_stream(&spec, cfg.views, cfg.rows as i64, n_clients)
            .iter()
            .map(|ops| ops.iter().flat_map(|op| op.to_wire_lines(&names)).collect())
            .collect()
    };
    // Tracing-off baseline pass: same dealt workload, sampling forced
    // off, so the traced pass right after isolates the tracing cost.
    let baseline_throughput = if cfg.trace_sample > 0 {
        control.expect_ok("trace sample 0")?;
        let (_, _, elapsed, commands, _) = drive_clients(addr, cfg, proto, &streams)?;
        control.expect_ok(&format!("trace sample {}", cfg.trace_sample))?;
        // Threshold 0: every traced request's tree is retained in the
        // slow log, so the smoke checks have material to inspect.
        control.expect_ok("trace slow 0")?;
        Some(commands as f64 / elapsed.as_secs_f64().max(1e-9))
    } else {
        None
    };
    // `--cache`: the cache-off baseline runs first over the identical
    // dealt streams, then the relation is restored by replaying the
    // update stream's inverse — so the measured cache-on pass sees the
    // same starting state and its re-keys are just as effective (a
    // naive replay would mostly no-op on the drifted key set, zeroing
    // the invalidation counts and flattering the hit ratio).
    let off_throughput = if cfg.cache {
        control.expect_ok("cache off")?;
        let (_, _, elapsed, commands, _) = drive_clients(addr, cfg, proto, &streams)?;
        undo_updates(control, cfg, &spec)?;
        control.expect_ok("cache on")?;
        // Warm under the cache so the measured pass starts from a
        // filled cache, the steady state a long-lived server is in.
        for name in &names {
            control.expect_ok(&format!("access {name}"))?;
        }
        Some(commands as f64 / elapsed.as_secs_f64().max(1e-9))
    } else {
        None
    };
    let metrics_before = if cfg.metrics_json {
        fetch_metrics(control)?
    } else {
        Vec::new()
    };
    let cache_before = if cfg.cache {
        fetch_cache(control)?
    } else {
        None
    };
    let shards_before = fetch_shards(control)?;
    let (mut all_latencies, mut chaos_latencies, max_elapsed, commands, counters) =
        drive_clients(addr, cfg, proto, &streams)?;
    let latency = LatencySummary::from_samples(&mut all_latencies)
        .ok_or_else(|| "no samples recorded".to_string())?;
    let p99_during_chaos_us = LatencySummary::from_samples(&mut chaos_latencies).map(|s| s.p99_us);
    let server_metrics = if cfg.metrics_json {
        metric_deltas(&metrics_before, &fetch_metrics(control)?)
    } else {
        Vec::new()
    };
    let cache = match cache_before {
        Some(before) => fetch_cache(control)?.map(|after| after.since(&before)),
        None => None,
    };
    let shards_after = fetch_shards(control)?;
    if shards_after.len() != shards_before.len() {
        return Err(format!(
            "shard count changed mid-run ({} -> {})",
            shards_before.len(),
            shards_after.len()
        ));
    }
    if cfg.net_chaos {
        // No committed write may be lost or duplicated by message chaos:
        // the workload only accesses and re-keys, so the total row count
        // is an exact conservation invariant.
        let rows_now: f64 = shards_after.iter().map(|s| s.r1_rows).sum();
        if rows_now as usize != cfg.rows {
            return Err(format!(
                "net-chaos: committed writes lost or duplicated — {} rows survive, \
                 {} were committed",
                rows_now, cfg.rows
            ));
        }
        // The closing `resync` must have healed every chaos-dropped
        // follower back to lockstep.
        for sh in &shards_after {
            if sh.live < sh.replicas || sh.max_lag > 0.0 {
                return Err(format!(
                    "net-chaos: shard {} not healed after resync ({}/{} live, lag {})",
                    sh.shard, sh.live, sh.replicas, sh.max_lag
                ));
            }
        }
    }
    let shards = shards_after
        .iter()
        .zip(&shards_before)
        .map(|(a, b)| a.since(b))
        .collect();
    let cache_speedup_vs_off = match off_throughput {
        Some(off) => {
            // Walk the relation back and drop to cache-off so the next
            // strategy's run starts from the same seeded state this one
            // did.
            undo_updates(control, cfg, &spec)?;
            control.expect_ok("cache off")?;
            let on = commands as f64 / max_elapsed.as_secs_f64().max(1e-9);
            Some(on / off.max(1e-9))
        }
        None => None,
    };
    let trace_overhead_pct = baseline_throughput.map(|base| {
        let traced = commands as f64 / max_elapsed.as_secs_f64().max(1e-9);
        (base - traced) / base.max(1e-9) * 100.0
    });
    Ok(RunResult {
        strategy: label.to_string(),
        proto: proto.to_string(),
        pipeline: if proto == "v2" { cfg.pipeline } else { 1 },
        clients: n_clients,
        commands,
        counters,
        elapsed: max_elapsed,
        latency,
        server_metrics,
        shards,
        trace_overhead_pct,
        p99_during_chaos_us,
        cache,
        cache_speedup_vs_off,
    })
}

/// Slow-query retention observed in-process after all traced runs:
/// `(trees retained, deepest tree)`. Only available when the server ran
/// in this process.
type TraceStats = (usize, usize);

fn render_json(cfg: &Config, runs: &[RunResult], trace: Option<TraceStats>) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"procdb-server loadgen (closed loop)\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"ops_per_client\": {}, \"rows\": {}, \"views\": {}, \
         \"p_update\": {}, \"l\": {}, \"z\": {}, \"seed\": {}, \"shards\": {}, \
         \"replicas\": {}, \"chaos\": {}, \"net_chaos\": {}, \"protos\": [{}], \
         \"pipeline\": {}, \"sessions\": {}, \"read_heavy\": {}, \"cache\": {}}},\n",
        cfg.ops,
        cfg.rows,
        cfg.views,
        cfg.p_update,
        cfg.l,
        cfg.z,
        cfg.seed,
        cfg.shards,
        cfg.replicas,
        cfg.chaos,
        cfg.net_chaos,
        cfg.protos
            .iter()
            .map(|p| format!("\"{p}\""))
            .collect::<Vec<_>>()
            .join(", "),
        cfg.pipeline,
        cfg.sessions,
        cfg.read_heavy,
        cfg.cache
    ));
    if let Some((retained, depth)) = trace {
        out.push_str(&format!(
            "  \"trace\": {{\"sample\": {}, \"slow_retained\": {retained},              \"max_depth\": {depth}}},\n",
            cfg.trace_sample
        ));
    }
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"strategy\": \"{}\", \"proto\": \"{}\", \"pipeline\": {}, \
             \"clients\": {}, \"commands\": {}, \
             \"errors\": {}, \"error_rate\": {:.6}, \"retries\": {}, \
             \"busy_sheds\": {}, \"deadline_expiries\": {}, \"fenced_retries\": {}, \
             \"elapsed_s\": {:.4}, \"throughput_cmds_per_s\": {:.1}, \
             \"latency_us\": {{\"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}, \
             \"p999\": {:.1}, \"mean\": {:.1}, \"max\": {:.1}}}, \
             \"p99_during_chaos_us\": {}",
            r.strategy,
            r.proto,
            r.pipeline,
            r.clients,
            r.commands,
            r.counters.errors,
            r.error_rate(),
            r.counters.retries,
            r.counters.busy_sheds,
            r.counters.deadline_expiries,
            r.counters.fenced_retries,
            r.elapsed.as_secs_f64(),
            r.throughput(),
            r.latency.p50_us,
            r.latency.p95_us,
            r.latency.p99_us,
            r.latency.p999_us,
            r.latency.mean_us,
            r.latency.max_us,
            r.p99_during_chaos_us
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "null".to_string()),
        ));
        if let Some(pct) = r.trace_overhead_pct {
            out.push_str(&format!(", \"trace_overhead_pct\": {pct:.2}"));
        }
        if let Some(c) = &r.cache {
            out.push_str(&format!(
                ", \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_ratio\": {:.4}, \
                 \"fills\": {}, \"invalidations\": {}, \"stale_served\": {}, \
                 \"stale_rate\": {:.6}, \"entries\": {}, \"bytes\": {}, \
                 \"max_invalidation_lag\": {}}}",
                c.hits,
                c.misses,
                c.hit_ratio(),
                c.fills,
                c.invalidations,
                c.stale_served,
                c.stale_rate(),
                c.entries,
                c.bytes,
                c.max_lag,
            ));
        }
        if let Some(speedup) = r.cache_speedup_vs_off {
            out.push_str(&format!(", \"cache_speedup_vs_off\": {speedup:.3}"));
        }
        if !r.server_metrics.is_empty() {
            out.push_str(", \"server_metrics\": {");
            for (j, (key, v)) in r.server_metrics.iter().enumerate() {
                // Metric keys carry label syntax (`name{k="v"}`); escape
                // the embedded quotes so the key stays one JSON string.
                let escaped = key.replace('\\', "\\\\").replace('"', "\\\"");
                out.push_str(&format!(
                    "\"{}\": {}{}",
                    escaped,
                    v,
                    if j + 1 == r.server_metrics.len() {
                        ""
                    } else {
                        ", "
                    }
                ));
            }
            out.push('}');
        }
        out.push_str(", \"shards\": [");
        for (j, sh) in r.shards.iter().enumerate() {
            let ops = sh.accesses + sh.updates;
            out.push_str(&format!(
                "{{\"shard\": {}, \"accesses\": {}, \"updates\": {}, \
                 \"escalations\": {}, \"buffer_hits\": {}, \"buffer_faults\": {}, \
                 \"hit_ratio\": {:.4}, \"conflict_rate\": {:.4}, \
                 \"ops_per_s\": {:.1}, \"access_ms\": {:.3}, \"r1_rows\": {}, \
                 \"replicas\": {}, \"live_replicas\": {}, \"max_replica_lag\": {}, \
                 \"failovers\": {}, \"epoch\": {}, \"fenced\": {}}}{}",
                sh.shard,
                sh.accesses,
                sh.updates,
                sh.escalations,
                sh.hits,
                sh.faults,
                sh.hit_ratio(),
                sh.conflict_rate(),
                ops / r.elapsed.as_secs_f64().max(1e-9),
                sh.access_ms,
                sh.r1_rows,
                sh.replicas,
                sh.live,
                sh.max_lag,
                sh.failovers,
                sh.epoch,
                sh.fenced,
                if j + 1 == r.shards.len() { "" } else { ", " }
            ));
        }
        out.push(']');
        out.push_str(&format!(
            "}}{}\n",
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn run(cfg: &Config) -> Result<(Vec<RunResult>, Option<TraceStats>), String> {
    // Spawn an in-process server unless pointed at an external one.
    let max_clients = cfg.clients.iter().copied().max().unwrap_or(1);
    let server = match &cfg.addr {
        Some(_) => None,
        None => Some(
            Server::start(
                Session::new(),
                ServerConfig {
                    port: 0,
                    max_conns: max_clients + 2,
                    max_in_flight: cfg
                        .max_in_flight
                        .unwrap_or(ServerConfig::default().max_in_flight),
                    ..ServerConfig::default()
                },
            )
            .map_err(|e| format!("start server: {e}"))?,
        ),
    };
    let addr = match &cfg.addr {
        Some(a) => a.clone(),
        None => server
            .as_ref()
            .map(|s| s.addr().to_string())
            .unwrap_or_default(),
    };
    let mut control = Client::connect(&addr)?;
    setup_schema(&mut control, cfg)?;
    println!(
        "loadgen: {} rows, {} views, P={}, l={}, Z={}, {} ops/client, {} shard(s) x {} \
         replica(s){} @ {}",
        cfg.rows,
        cfg.views,
        cfg.p_update,
        cfg.l,
        cfg.z,
        cfg.ops,
        cfg.shards,
        cfg.replicas,
        match (cfg.chaos, cfg.net_chaos) {
            (_, true) => " [net-chaos]",
            (true, false) => " [chaos]",
            (false, false) => "",
        },
        addr
    );
    println!(
        "{:>9} {:>6} {:>5} {:>8} {:>9} {:>7} {:>8} {:>11} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "strategy",
        "proto",
        "pipe",
        "clients",
        "commands",
        "errors",
        "retries",
        "cmds/s",
        "p50(us)",
        "p95(us)",
        "p99(us)",
        "p999(us)",
        "max(us)"
    );
    let mut runs = Vec::new();
    for (label, wire) in &cfg.strategies {
        for proto in &cfg.protos {
            for &n in &cfg.clients {
                let r = run_one(&addr, &mut control, cfg, label, wire, proto, n)?;
                println!(
                    "{:>9} {:>6} {:>5} {:>8} {:>9} {:>7} {:>8} {:>11.1} {:>9.0} {:>9.0} {:>9.0} \
                 {:>9.0} {:>9.0}",
                    r.strategy,
                    r.proto,
                    r.pipeline,
                    r.clients,
                    r.commands,
                    r.counters.errors,
                    r.counters.retries,
                    r.throughput(),
                    r.latency.p50_us,
                    r.latency.p95_us,
                    r.latency.p99_us,
                    r.latency.p999_us,
                    r.latency.max_us
                );
                if let Some(c) = &r.cache {
                    println!(
                        "          cache: {} hits / {} misses (hit ratio {:.2}), {} fills, \
                         {} invalidations, {} stale, speedup {}x vs off",
                        c.hits,
                        c.misses,
                        c.hit_ratio(),
                        c.fills,
                        c.invalidations,
                        c.stale_served,
                        r.cache_speedup_vs_off
                            .map(|s| format!("{s:.2}"))
                            .unwrap_or_else(|| "?".to_string()),
                    );
                }
                if cfg.shards > 1 || cfg.replicas > 1 {
                    for sh in &r.shards {
                        let replica_note = if cfg.replicas > 1 {
                            format!(
                                ", {}/{} live, {} failover(s), lag {}, epoch {}, {} fenced",
                                sh.live, sh.replicas, sh.failovers, sh.max_lag, sh.epoch, sh.fenced
                            )
                        } else {
                            String::new()
                        };
                        println!(
                            "          shard {}: {} accesses ({} escalated), {} updates, \
                         hit ratio {:.2}, {:.1} ops/s{}",
                            sh.shard,
                            sh.accesses,
                            sh.escalations,
                            sh.updates,
                            sh.hit_ratio(),
                            (sh.accesses + sh.updates) / r.elapsed.as_secs_f64().max(1e-9),
                            replica_note,
                        );
                    }
                }
                runs.push(r);
            }
        }
    }
    let _ = control.cmd("quit");
    // The in-process server shares this process's span registry, so the
    // slow-query log can be inspected directly once the runs are done.
    let trace_stats = (cfg.trace_sample > 0 && cfg.addr.is_none()).then(|| {
        let slow = procdb_obs::global().slow_traces();
        let retained = slow.len();
        let depth = slow.iter().map(|t| t.depth()).max().unwrap_or(0);
        println!(
            "tracing: sample 1/{} — {} slow tree(s) retained, max depth {}",
            cfg.trace_sample, retained, depth
        );
        (retained, depth)
    });
    if let Some(server) = server {
        server.stop();
    }
    Ok((runs, trace_stats))
}

fn main() {
    let cfg = parse_args();
    match run(&cfg) {
        Ok((runs, trace_stats)) => {
            if let Some(path) = &cfg.json {
                let json = render_json(&cfg, &runs, trace_stats);
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("write {path}: {e}");
                    std::process::exit(1);
                }
                println!("wrote {path}");
            }
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite check for the jittered backoff: each delay stays in
    /// `[cap/2, cap]`, the cap still doubles to the ceiling, and two
    /// clients seeded differently do not sleep in lockstep.
    #[test]
    fn backoff_jitter_spreads_and_still_doubles() {
        let mut rng = 42u64;
        let mut backoff = BASE_BACKOFF;
        let mut caps = Vec::new();
        for _ in 0..32 {
            let cap = backoff;
            let d = backoff_delay(&mut backoff, &mut rng);
            assert!(
                d >= cap / 2 && d <= cap,
                "delay {d:?} outside [{:?}, {cap:?}]",
                cap / 2
            );
            caps.push(cap);
        }
        assert_eq!(caps[0], BASE_BACKOFF);
        assert_eq!(caps[1], BASE_BACKOFF * 2);
        assert_eq!(*caps.last().unwrap(), MAX_BACKOFF);

        // Fixed cap, many draws: the jitter must actually spread...
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut rng = seed;
            (0..16)
                .map(|_| {
                    let mut b = MAX_BACKOFF;
                    backoff_delay(&mut b, &mut rng)
                })
                .collect()
        };
        let a = schedule(1);
        assert!(
            a.iter().collect::<std::collections::BTreeSet<_>>().len() > 4,
            "jitter collapsed onto too few distinct delays: {a:?}"
        );
        // ...and distinct seeds must decorrelate the schedules, else a
        // shed cohort thunders back in step.
        assert_ne!(a, schedule(2), "seeds must decorrelate backoff");
    }
}
