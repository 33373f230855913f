//! The traced run: one client replays one seeded operation stream at
//! successive depths — over TCP, then in process on an identically built
//! session — while the benchmark records a span around each call into a
//! layer. Every per-layer metric comes from here; no end-to-end metric
//! does.
//!
//! The in-process depth re-enacts the server's front path
//! (`run_line_inner`) from the crates' public functions, so its bodies
//! must equal the TCP bodies byte for byte. Spans are recorded here, from
//! outside; spans inside the program are a later issue.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use procdb_cache::ResultCache;
use procdb_core::DeltaOp;
use procdb_server::{execute, parse, Command, Outcome, Session};
use procdb_wire::{read_frame, write_request, write_response, Request, Response};

use crate::client::{reply_is_correct, Conn, Reply};
use crate::json::Json;
use crate::rig::{build_session, counters, delta, setup};
use crate::stats::percentile;
use crate::workload::{ClientGen, Op, Proto, Row, ViewSpec, Workload};

/// Most operations the traced TCP phase records (and the in-process
/// depth replays): bounds memory and the trace file.
const TRACE_OPS_CAP: usize = 20_000;
/// Operations of the replay whose counter movement is read per
/// operation, so page reads and delta tuples are charged to the right
/// operation type.
const ATTRIBUTED_OPS: usize = 400;
/// Request/response pairs the codec timings run over.
const CODEC_PAIRS: usize = 2_000;
/// Operations replayed on the unsharded twin for `shard.overhead_us`.
const SHARD_TWIN_OPS: usize = 4_000;
/// Calls per standalone front-cache timing.
const CACHE_CALLS: usize = 20_000;
/// `sysconf(_SC_CLK_TCK)` on Linux.
const TICKS_PER_SEC: f64 = 100.0;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// The operation this call served; shared by all its spans.
    pub op_id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
}

impl Span {
    fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Spans, kept in memory until the run ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<usize>,
        call: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now();
        let out = call();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns,
            end_ns,
        });
        out
    }
}

/// The server's front path, re-enacted in process over a session built
/// exactly like the served one.
struct InProc {
    session: Session,
    /// Attached like `Server::start` attaches one to every session; it
    /// serves only once `cache on` enables it.
    cache: Arc<ResultCache>,
}

impl InProc {
    /// Build, switch the cache, and read every view once — the steps
    /// `rig::setup` performs over TCP.
    fn build(w: &Workload, population: &[Row], views: &[ViewSpec]) -> Result<InProc, String> {
        let mut session = build_session(w, population)?;
        let cache = Arc::new(ResultCache::new());
        session.attach_cache(cache.clone());
        let mut inproc = InProc { session, cache };
        let mut quiet = Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        };
        let switch = if w.cache { "cache on" } else { "cache off" };
        for line in std::iter::once(switch.to_string())
            .chain(views.iter().map(|v| format!("access {}", v.name)))
        {
            let reply = inproc.run(&line, &mut quiet, 0, None);
            if !reply.ok {
                return Err(format!("in-process {line:?} failed: {}", reply.body));
            }
        }
        Ok(inproc)
    }

    fn run(&mut self, line: &str, t: &mut Tracer, op_id: u64, parent: Option<usize>) -> Reply {
        match self.front_path(line, t, op_id, parent) {
            Ok(text) => Reply {
                ok: true,
                body: text.trim_end_matches('\n').to_string(),
            },
            Err(message) => Reply {
                ok: false,
                body: message,
            },
        }
    }

    fn front_path(
        &mut self,
        line: &str,
        t: &mut Tracer,
        op_id: u64,
        parent: Option<usize>,
    ) -> Result<String, String> {
        let cmd = t
            .time("server.parse", op_id, parent, || parse(line))?
            .ok_or_else(|| "empty line".to_string())?;
        let session = &mut self.session;
        let cache = &*self.cache;
        match &cmd {
            Command::Access(view) => {
                if cache.is_enabled() {
                    if let Some(body) = t.time("cache.lookup", op_id, parent, || cache.lookup(view))
                    {
                        return Ok(body);
                    }
                }
                let ticket = cache.begin_fill();
                let shared = t.time("server.session", op_id, parent, || {
                    session.access_shared(view)
                })?;
                if let Some((rows, ms)) = shared {
                    let text = t.time("server.render", op_id, parent, || {
                        let mut text = format!("{} rows in {ms:.1} model-ms:\n", rows.len());
                        text.push_str(&session.render_rows(&rows, 20));
                        text
                    });
                    if let Some(ticket) = ticket {
                        t.time("cache.fill", op_id, parent, || {
                            cache.try_fill(view, &ticket, text.clone(), rows.len())
                        });
                    }
                    return Ok(text);
                }
            }
            Command::Update(victim, new_key) => {
                let shared = t.time("server.session", op_id, parent, || {
                    session.update_shared(*victim, *new_key)
                })?;
                if let Some((n, ms)) = shared {
                    return Ok(format!(
                        "{n} tuple(s) re-keyed {victim} -> {new_key}; maintenance {ms:.1} model-ms"
                    ));
                }
            }
            _ => {}
        }
        // The exclusive path: the server takes the write lock and runs
        // `execute`, which renders inside the call.
        match t.time("server.session", op_id, parent, || execute(session, cmd))? {
            Outcome::Text(text) => Ok(text),
            Outcome::Quit => Err("quit".to_string()),
        }
    }
}

/// `(utime, stime)` of this process in seconds, from `/proc/self/stat`.
fn cpu_seconds() -> Result<(f64, f64), String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name: state is field 3.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => Ok((u / TICKS_PER_SEC, s / TICKS_PER_SEC)),
        _ => Err("cannot parse /proc/self/stat".to_string()),
    }
}

fn encode_v1(line: &str, reply: &Reply, buf: &mut Vec<u8>) {
    buf.clear();
    let _ = writeln!(buf, "{line}");
    if reply.ok {
        for data in reply.body.lines() {
            let _ = writeln!(buf, "{data}");
        }
        let _ = writeln!(buf, "ok");
    } else {
        let _ = writeln!(buf, "err {}", reply.body);
    }
}

/// Read `buf` back line by line, as both ends of a v1 connection do.
fn decode_v1(buf: &[u8], line: &mut String) -> usize {
    let mut cursor = buf;
    let mut lines = 0;
    loop {
        line.clear();
        match cursor.read_line(line) {
            Ok(0) | Err(_) => return lines,
            Ok(_) => lines += 1,
        }
    }
}

fn v2_messages(line: &str, reply: &Reply) -> (Request, Response) {
    let request = Request::Command {
        line: line.to_string(),
    };
    let response = if reply.ok {
        Response::OkText {
            text: format!("{}\n", reply.body),
        }
    } else {
        Response::Error {
            code: procdb_wire::errcode::EXEC,
            message: reply.body.clone(),
        }
    };
    (request, response)
}

fn encode_v2(request: &Request, response: &Response, buf: &mut Vec<u8>) -> Result<(), String> {
    buf.clear();
    write_request(buf, 1, request).map_err(|e| e.to_string())?;
    write_response(buf, 1, response).map_err(|e| e.to_string())
}

fn decode_v2(buf: &[u8]) -> Result<(Request, Response), String> {
    let mut cursor = buf;
    let request = read_frame(&mut cursor)
        .and_then(|f| Request::decode(&f))
        .map_err(|e| e.to_string())?;
    let response = read_frame(&mut cursor)
        .and_then(|f| Response::decode(&f))
        .map_err(|e| e.to_string())?;
    Ok((request, response))
}

/// Codec cost over recorded pairs, both protocols:
/// `(v1 ns per line, v2 encode ns per frame, v2 decode ns per frame,
/// v1 bytes per op, v2 bytes per op)`.
fn codec_costs(pairs: &[(Op, String, Reply)]) -> Result<(f64, f64, f64, f64, f64), String> {
    let mut buf = Vec::new();
    let mut scratch = String::new();
    let (mut v1_ns, mut v1_lines, mut v1_bytes) = (0u128, 0usize, 0usize);
    for (_, line, reply) in pairs {
        let t0 = Instant::now();
        encode_v1(line, reply, &mut buf);
        v1_lines += decode_v1(&buf, &mut scratch);
        v1_ns += t0.elapsed().as_nanos();
        v1_bytes += buf.len();
    }
    let (mut enc_ns, mut dec_ns, mut v2_bytes) = (0u128, 0u128, 0usize);
    for (_, line, reply) in pairs {
        let (request, response) = v2_messages(line, reply);
        let t0 = Instant::now();
        encode_v2(&request, &response, &mut buf)?;
        let t1 = Instant::now();
        let decoded = decode_v2(&buf)?;
        dec_ns += t1.elapsed().as_nanos();
        enc_ns += (t1 - t0).as_nanos();
        if decoded != (request, response) {
            return Err(format!("v2 codec did not round-trip {line:?}"));
        }
        v2_bytes += buf.len();
    }
    let ops = pairs.len().max(1) as f64;
    Ok((
        v1_ns as f64 / v1_lines.max(1) as f64,
        enc_ns as f64 / (2.0 * ops),
        dec_ns as f64 / (2.0 * ops),
        v1_bytes as f64 / ops,
        v2_bytes as f64 / ops,
    ))
}

/// Mean ns of a hit, a fill and an invalidation on a standalone cache
/// registered with the workload's windows.
fn cache_costs(views: &[ViewSpec], keyspace: i64, body: &str) -> (f64, f64, f64) {
    let cache = ResultCache::new();
    let procs: Vec<(String, i64, i64)> =
        views.iter().map(|v| (v.name.clone(), v.lo, v.hi)).collect();
    cache.configure(&[1], 0, &procs);
    cache.set_enabled(true);
    let per_call = |t0: Instant| t0.elapsed().as_nanos() as f64 / CACHE_CALLS as f64;
    let t0 = Instant::now();
    for i in 0..CACHE_CALLS {
        let view = &views[i % views.len()].name;
        if let Some(ticket) = cache.begin_fill() {
            std::hint::black_box(cache.try_fill(view, &ticket, body.to_string(), 1));
        }
    }
    let fill = per_call(t0);
    let t0 = Instant::now();
    for i in 0..CACHE_CALLS {
        std::hint::black_box(cache.lookup(&views[i % views.len()].name));
    }
    let lookup = per_call(t0);
    let t0 = Instant::now();
    for i in 0..CACHE_CALLS as i64 {
        let victim = (i * 7919) % keyspace;
        cache.note_local_write(&DeltaOp::Rekey(vec![(victim, (victim + 1) % keyspace)]));
    }
    (lookup, fill, per_call(t0))
}

/// What the traced run measured.
pub struct TraceOutcome {
    /// Every per-layer metric by name.
    pub metrics: BTreeMap<String, f64>,
    /// Operations sent over TCP.
    pub attempted: usize,
    /// Wrong or refused answers, gate mismatches, and in-process bodies
    /// that differ from the TCP bodies.
    pub failed: usize,
    /// Descriptions of the failures.
    pub problems: Vec<String>,
    /// Where the spans were written.
    pub trace_file: std::path::PathBuf,
}

fn p50(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, 0.5).unwrap_or(0.0)
}

/// p50, over the operations `wanted` selects, of the time their spans
/// called `name` took. An operation that escalates to the exclusive path
/// has two `server.session` spans; they count as one duration.
fn span_p50(spans: &[Span], name: &str, wanted: impl Fn(u64) -> bool) -> f64 {
    let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name && wanted(s.op_id)) {
        *per_op.entry(s.op_id).or_default() += s.micros();
    }
    p50(per_op.into_values().collect())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run the traced run of workload `w`. `seconds` bounds the two TCP
/// phases together; the in-process depths add about as much again.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Result<TraceOutcome, String> {
    let (mut rig, _) = setup(w, seed)?;
    let views = rig.views.clone();
    let population = rig.population.clone();
    let mut gen = ClientGen::new(w, &population, seed, 0, 1, 1);
    let v2 = matches!(w.proto, Proto::V2 { .. });
    let mut conn = Conn::connect(&rig.addr, v2.then_some(1))?;
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut problems = Vec::new();
    let check = |op: &Op, line: &str, reply: &Reply, problems: &mut Vec<String>| {
        if !reply_is_correct(op, reply) {
            problems.push(format!("{line:?} -> {:?}", reply.body.lines().next()));
        }
    };

    // Depth 1, traced: every round trip is a root span.
    let counters_before = counters();
    let cpu_before = cpu_seconds()?;
    let phase = Duration::from_secs_f64(seconds / 2.0);
    let mut recorded: Vec<(Op, String, Reply)> = Vec::new();
    let mut reply = Reply::default();
    let t0 = Instant::now();
    while t0.elapsed() < phase && recorded.len() < TRACE_OPS_CAP {
        let op = gen.next_op();
        let line = op.line(&views);
        let op_id = recorded.len() as u64;
        tracer.time("client.roundtrip", op_id, None, || {
            conn.command(&line, &mut reply)
        })?;
        check(&op, &line, &reply, &mut problems);
        recorded.push((op, line, reply.clone()));
    }
    let traced_ops = recorded.len();

    // The same client, untraced, continuing the stream: the baseline the
    // tracing overhead is measured against.
    let mut untraced_us = Vec::new();
    let mut untraced_updates = 0usize;
    let mut line = String::new();
    let t0 = Instant::now();
    while t0.elapsed() < phase {
        let op = gen.next_op();
        line.clear();
        op.write_line(&views, &mut line);
        let sent = Instant::now();
        conn.command(&line, &mut reply)?;
        untraced_us.push(sent.elapsed().as_secs_f64() * 1e6);
        untraced_updates += usize::from(matches!(op, Op::Update { .. }));
        check(&op, &line, &reply, &mut problems);
    }
    let cpu_after = cpu_seconds()?;
    let counters_after = counters();
    conn.close();
    let tcp_ops = traced_ops + untraced_us.len();
    let lag = rig
        .control
        .expect_ok("shards")?
        .split_whitespace()
        .filter_map(|kv| kv.strip_prefix("max_lag=")?.parse::<f64>().ok())
        .fold(0.0, f64::max);
    problems.extend(rig.gate(std::slice::from_ref(&gen))?);

    // In process, on an identically built session.
    let mut inproc = InProc::build(w, &population, &views)?;
    let mut attributed: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let (mut access_ms, mut update_ms) = (0.0, 0.0);
    let mut buf = Vec::new();
    let mut scratch = String::new();
    for (i, (op, line, tcp_reply)) in recorded.iter().enumerate() {
        let parent = Some(i);
        let op_id = i as u64;
        let probe = (i < ATTRIBUTED_OPS).then(counters);
        let cost0 = inproc.session.total_cost_ms();
        let reply = inproc.run(line, &mut tracer, op_id, parent);
        let cost = inproc.session.total_cost_ms() - cost0;
        let is_update = matches!(op, Op::Update { .. });
        *(if is_update {
            &mut update_ms
        } else {
            &mut access_ms
        }) += cost;
        if let Some(before) = probe {
            let after = counters();
            for name in [
                "procdb_pager_reads_total",
                "procdb_pager_writes_total",
                "procdb_ci_invalidations_total",
                "procdb_avm_delta_tuples_total",
                "procdb_rete_tokens_total",
            ] {
                let slot = attributed.entry(name).or_default();
                let moved = delta(&before, &after, name);
                if is_update {
                    slot.1 += moved;
                } else {
                    slot.0 += moved;
                }
            }
        }
        if v2 {
            let (request, response) = v2_messages(line, &reply);
            tracer.time("wire.encode", op_id, parent, || {
                encode_v2(&request, &response, &mut buf)
            })?;
            tracer.time("wire.decode", op_id, parent, || decode_v2(&buf))?;
        } else {
            tracer.time("wire.encode", op_id, parent, || {
                encode_v1(line, &reply, &mut buf)
            });
            tracer.time("wire.decode", op_id, parent, || {
                decode_v1(&buf, &mut scratch)
            });
        }
        if reply != *tcp_reply {
            problems.push(format!(
                "{line:?}: in-process body differs from the TCP body ({:?} vs {:?})",
                reply.body.lines().next(),
                tcp_reply.body.lines().next()
            ));
        }
    }

    // Fold the spans into per-layer metrics.
    let (roundtrips, inproc_spans) = tracer.spans.split_at(traced_ops);
    let is_update = |op_id: u64| matches!(recorded[op_id as usize].0, Op::Update { .. });
    let mut covered = vec![0.0; traced_ops];
    for span in inproc_spans {
        covered[span.op_id as usize] += span.micros();
    }
    let layer_p50 = |name: &str, updates: Option<bool>| {
        span_p50(inproc_spans, name, |op_id| {
            updates.is_none_or(|u| is_update(op_id) == u)
        })
    };
    let split = |updates: bool| -> Vec<f64> {
        roundtrips
            .iter()
            .filter(|s| is_update(s.op_id) == updates)
            .map(Span::micros)
            .collect()
    };
    let self_us = p50(roundtrips
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.micros() - c)
        .collect());
    let roundtrip_us = p50(roundtrips.iter().map(Span::micros).collect());
    let access_roundtrip_us = p50(split(false));
    let accesses = recorded.len() - split(true).len();
    let updates = split(true).len();

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    let core_access = layer_p50("server.session", Some(false));
    let core_update = layer_p50("server.session", Some(true));
    put("server.front_self_us", self_us);
    put("server.front_self_share", ratio(self_us, roundtrip_us));
    put("server.parse_ns", layer_p50("server.parse", None) * 1e3);
    put("server.render_us", layer_p50("server.render", None));
    put("core.access_us", core_access);
    put("core.update_us", core_update);
    put("core.access_share", ratio(core_access, access_roundtrip_us));
    put(
        "core.model_ms_per_access",
        ratio(access_ms, accesses as f64),
    );
    put("core.model_ms_per_update", ratio(update_ms, updates as f64));

    let sampled = recorded.len().min(ATTRIBUTED_OPS);
    let sampled_updates = recorded[..sampled]
        .iter()
        .filter(|r| matches!(r.0, Op::Update { .. }))
        .count() as f64;
    let sampled_accesses = sampled as f64 - sampled_updates;
    let per_update = |name| ratio(attributed.get(name).map_or(0.0, |a| a.1), sampled_updates);
    let per_access = |name| ratio(attributed.get(name).map_or(0.0, |a| a.0), sampled_accesses);
    put(
        "storage.page_reads_per_access",
        per_access("procdb_pager_reads_total"),
    );
    put(
        "storage.page_writes_per_update",
        per_update("procdb_pager_writes_total"),
    );
    put(
        "ilock.invalidations_per_update",
        per_update("procdb_ci_invalidations_total"),
    );
    put(
        "avm.delta_tuples_per_update",
        per_update("procdb_avm_delta_tuples_total"),
    );
    put(
        "rete.tokens_per_update",
        per_update("procdb_rete_tokens_total"),
    );

    // Counters the served run moved, read from the obs registry.
    let moved = |name: &str| delta(&counters_before, &counters_after, name);
    let tcp_updates = (updates + untraced_updates) as f64;
    let (hits, misses) = (
        moved("procdb_cache_hits_total"),
        moved("procdb_cache_misses_total"),
    );
    put("cache.hit_ratio", ratio(hits, hits + misses));
    put(
        "cache.invalidations_per_update",
        ratio(moved("procdb_cache_invalidations_total"), tcp_updates),
    );
    put(
        "cache.fills_per_miss",
        ratio(moved("procdb_cache_fills_total"), misses),
    );
    put(
        "cache.stale_served",
        moved("procdb_cache_stale_served_total"),
    );
    put(
        "ci.recompute_share",
        ratio(
            moved("procdb_engine_cache_refills_total"),
            moved("procdb_engine_accesses_total"),
        ),
    );
    let (buffer_hits, buffer_faults) = (
        moved("procdb_pager_buffer_hits_total"),
        moved("procdb_pager_buffer_faults_total"),
    );
    put(
        "storage.buffer_hit_ratio",
        ratio(buffer_hits, buffer_hits + buffer_faults),
    );
    put(
        "server.shed_total",
        moved("procdb_server_busy_sheds_total") + moved("procdb_server_deadline_expired_total"),
    );
    put(
        "server.cpu_user_us_per_op",
        (cpu_after.0 - cpu_before.0) * 1e6 / tcp_ops as f64,
    );
    put(
        "server.cpu_sys_us_per_op",
        (cpu_after.1 - cpu_before.1) * 1e6 / tcp_ops as f64,
    );
    put(
        "shard.cross_moves_per_update",
        ratio(moved("procdb_shard_cross_moves_total"), tcp_updates),
    );
    put("shard.failovers", moved("procdb_failover_total"));
    put("shard.max_replica_lag", lag);
    let failed = problems.len();
    put("failed_share", failed as f64 / tcp_ops.max(1) as f64);
    let untraced_p50 = p50(untraced_us);
    put(
        "trace_overhead_pct",
        ratio(roundtrip_us - untraced_p50, untraced_p50) * 100.0,
    );

    // The sharded workload against its unsharded twin.
    let (mut shard_access, mut shard_update, mut overhead) = (0.0, 0.0, 0.0);
    if w.shards > 1 || w.replicas > 1 {
        let twin = Workload {
            shards: 1,
            replicas: 1,
            ..*w
        };
        let mut inproc = InProc::build(&twin, &population, &views)?;
        let mut twin_tracer = Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        };
        let prefix = &recorded[..recorded.len().min(SHARD_TWIN_OPS)];
        for (i, (_, line, _)) in prefix.iter().enumerate() {
            inproc.run(line, &mut twin_tracer, i as u64, None);
        }
        let twin_p50 = |updates: bool| {
            span_p50(&twin_tracer.spans, "server.session", |op_id| {
                is_update(op_id) == updates
            })
        };
        shard_access = core_access;
        shard_update = core_update;
        let mix = ratio(updates as f64, recorded.len() as f64);
        overhead =
            (core_access - twin_p50(false)) * (1.0 - mix) + (core_update - twin_p50(true)) * mix;
    }
    put("shard.access_us", shard_access);
    put("shard.update_us", shard_update);
    put("shard.overhead_us", overhead);

    // Codecs and the front cache on their own.
    let (v1_line, v2_enc, v2_dec, v1_bytes, v2_bytes) =
        codec_costs(&recorded[..recorded.len().min(CODEC_PAIRS)])?;
    put("wire.v1_line_ns", v1_line);
    put("wire.v2_encode_ns", v2_enc);
    put("wire.v2_decode_ns", v2_dec);
    put("wire.bytes_per_op", if v2 { v2_bytes } else { v1_bytes });
    let sample_body = recorded
        .iter()
        .find(|r| matches!(r.0, Op::Access(_)))
        .map_or("", |r| r.2.body.as_str());
    let (lookup, fill, invalidate) = cache_costs(&views, w.keyspace(), sample_body);
    put("cache.lookup_ns", lookup);
    put("cache.fill_ns", fill);
    put("cache.invalidate_ns", invalidate);

    let trace_file = write_trace(w, seed, &tracer.spans, &counters_before, &counters_after)?;
    Ok(TraceOutcome {
        metrics: m,
        attempted: tcp_ops,
        failed,
        problems,
        trace_file,
    })
}

/// Write the spans, then the obs-counter deltas of the served phases, to
/// `benchmark/out/trace-<workload>.jsonl`.
fn write_trace(
    w: &Workload,
    seed: u64,
    spans: &[Span],
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.jsonl", w.name));
    let file =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let num = |n: u64| Json::Num(n as f64);
    let header = Json::obj([
        ("workload", Json::Str(w.name.to_string())),
        ("seed", num(seed)),
        ("spans", num(spans.len() as u64)),
    ]);
    let span_lines = spans.iter().enumerate().map(|(id, s)| {
        Json::obj([
            ("id", num(id as u64)),
            ("span", Json::Str(s.name.to_string())),
            ("op_id", num(s.op_id)),
            ("parent", s.parent.map_or(Json::Null, |p| num(p as u64))),
            ("start_ns", num(s.start_ns)),
            ("end_ns", num(s.end_ns)),
        ])
    });
    let counter_deltas = Json::obj([(
        "counter_deltas",
        Json::obj(
            after
                .keys()
                .map(|name| (name.clone(), Json::Num(delta(before, after, name))))
                .filter(|(_, moved)| *moved != Json::Num(0.0)),
        ),
    )]);
    for line in std::iter::once(header)
        .chain(span_lines)
        .chain(std::iter::once(counter_deltas))
    {
        writeln!(out, "{}", line.render()).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    Ok(path)
}
