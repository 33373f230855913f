//! Live clients over TCP through crash, promotion, and message chaos.
//!
//! Two v1 clients and two pipelined v2 clients run accesses and re-keys
//! against a 2-shard × 3-replica server while a control connection arms
//! commit-point fences, installs a mixed delay/drop/dup/reorder/fence
//! plan, crashes and recovers shard 0's primary, forces a promotion,
//! then lifts the plan and resyncs. Clients retry `BUSY`, `DEADLINE`
//! and `FENCED` (each answered before the command touches any state).
//! Afterwards: no client error is left; the shards still hold every
//! loaded row once; every group is healed; writes were fenced and
//! primaries failed over; every view equals a serial always-recompute
//! replay of the acked re-keys; every `metrics` sample is finite, ≥ 0.
//!
//! The control steps advance on the clients' completed-operation count,
//! and the clients wait for the steps, so every step runs beside client
//! work on any machine, with no wall-clock windows.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Condvar, Mutex, PoisonError};

use procdb_core::StrategyKind;
use procdb_query::{FieldType, Organization, Schema, Tuple, Value};
use procdb_server::{Server, ServerConfig, Session};
use procdb_wire::{errcode, Request, Response, WireClient};

/// Loaded keys `0..ROWS`; every one is re-keyed once.
const ROWS: i64 = 240;
/// Views tile `[-ROWS, 2 * ROWS)` in windows of this many keys, so a
/// victim's old key and its new key both fall inside some view.
const WINDOW: i64 = 60;
const VIEWS: i64 = 3 * ROWS / WINDOW;
const SHARDS: usize = 2;
const REPLICAS: usize = 3;
const V1_CLIENTS: usize = 2;
const CLIENTS: usize = V1_CLIENTS + 2;
/// Each victim costs three operations: access, re-key, access.
const TOTAL_OPS: usize = 3 * ROWS as usize;
const PIPELINE_WINDOW: usize = 8;
/// A command still shed after this many attempts counts as an error.
const MAX_ATTEMPTS: usize = 10_000;
const SEED: u64 = 29;

/// Ships delayed, dropped, duplicated, reordered; heartbeats delayed;
/// commit-point fences.
const MIXED_PLAN: &str = "chaos inject --seed 29 --delay 0.25 --delay-ms 0 2 --drop 0.05 \
                          --dup 0.15 --reorder 0.15 --heartbeat 0.1 --fence 0.05";
/// The mixed plan without drops and fences: it cannot take a follower
/// out of a group, so the crash below always has one to promote.
const LINK_SAFE_PLAN: &str = "chaos inject --seed 29 --delay 0.25 --delay-ms 0 2 \
                              --dup 0.15 --reorder 0.15 --heartbeat 0.1";

fn build_session(strategy: StrategyKind, shards: usize, replicas: usize) -> Session {
    let mut s = Session::new();
    s.create_table(
        "EMP",
        Schema::new(vec![("eid", FieldType::Int), ("grp", FieldType::Int)]),
        Organization::BTree { key_field: 0 },
    )
    .unwrap();
    for i in 0..ROWS {
        s.insert("EMP", vec![Value::Int(i), Value::Int(i % 7)])
            .unwrap();
    }
    for v in 0..VIEWS {
        let lo = -ROWS + v * WINDOW;
        s.define_view(&format!(
            "define view V{v} (EMP.all) where EMP.eid >= {lo} and EMP.eid <= {}",
            lo + WINDOW - 1
        ))
        .unwrap();
    }
    s.set_shards(shards).unwrap();
    s.set_replicas(replicas).unwrap();
    s.set_strategy(strategy).unwrap();
    s.prepare().unwrap();
    s
}

#[derive(Clone, Copy)]
enum Op {
    Access(i64),
    Rekey(i64, i64),
}

impl Op {
    fn line(self) -> String {
        match self {
            Op::Access(v) => format!("access V{v}"),
            Op::Rekey(victim, new_key) => format!("update {victim} -> {new_key}"),
        }
    }
}

/// Client `c` owns victims `c, c + CLIENTS, …`, each bracketed by
/// accesses of seeded views. Even victims move below zero and odd ones
/// above `ROWS`, mixing same-shard and cross-shard moves. Victims and
/// targets are all distinct, so the re-keys commute: any interleaving
/// ends where a serial replay does.
fn stream(c: usize) -> Vec<Op> {
    let mut rng = SEED ^ (c as u64 + 1);
    let mut view = || {
        let out = procdb_obs::splitmix64(rng);
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (out % VIEWS as u64) as i64
    };
    (c as i64..ROWS)
        .step_by(CLIENTS)
        .flat_map(|k| {
            let target = if k % 2 == 0 { -1 - k } else { k + ROWS };
            [Op::Access(view()), Op::Rekey(k, target), Op::Access(view())]
        })
        .collect()
}

/// Steps in [`SCHEDULE`].
const STEPS: usize = 5;
/// The workload is cut into this many equal phases; step `k` fires
/// once `k` of them have completed.
const PHASES: usize = 8;

/// The shared phase clock: `(operations completed, steps completed)`.
/// Control step `k` waits for `k` phases of operations; a client's
/// operation in phase `p` of its stream waits for step `p - 1`. So
/// every step fires with up to a phase of work still allowed to run
/// beside it, and no client finishes before the last step.
struct Phases {
    state: Mutex<(usize, usize)>,
    moved: Condvar,
}

impl Phases {
    fn update(&self, f: impl FnOnce(&mut (usize, usize))) {
        f(&mut self.state.lock().unwrap_or_else(PoisonError::into_inner));
        self.moved.notify_all();
    }

    fn steps(&self) -> usize {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).1
    }

    fn wait_until(&self, ready: impl Fn(&(usize, usize)) -> bool) {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        drop(self.moved.wait_while(state, |s| !ready(s)));
    }
}

/// The control steps operation `idx` of a `len`-long stream waits for.
fn steps_before(idx: usize, len: usize) -> usize {
    (idx * PHASES / len).saturating_sub(1).min(STEPS)
}

/// What a thread still owes the clock. Paid on drop — also when the
/// thread panics — so nobody waits on progress that will not come.
struct Owed<'a> {
    phases: &'a Phases,
    ops: usize,
    steps: usize,
}

impl Owed<'_> {
    fn op_done(&mut self) {
        self.ops -= 1;
        self.phases.update(|s| s.0 += 1);
    }

    fn step_done(&mut self) {
        self.steps -= 1;
        self.phases.update(|s| s.1 += 1);
    }
}

impl Drop for Owed<'_> {
    fn drop(&mut self) {
        let (ops, steps) = (self.ops, self.steps);
        self.phases.update(|s| *s = (s.0 + ops, s.1 + steps));
    }
}

/// What one client saw.
#[derive(Default)]
struct Outcome {
    acked: Vec<(i64, i64)>,
    errors: Vec<String>,
}

impl Outcome {
    fn settle(&mut self, op: Op, answer: Result<String, String>) {
        match (op, answer) {
            (Op::Access(_), Ok(text)) if text.contains(" rows in ") => {}
            (Op::Rekey(victim, new_key), Ok(text)) if text.starts_with("1 tuple(s) re-keyed") => {
                self.acked.push((victim, new_key))
            }
            (_, answer) => self.errors.push(format!("{}: {answer:?}", op.line())),
        }
    }
}

struct V1Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl V1Client {
    fn connect(addr: SocketAddr) -> V1Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut c = V1Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        };
        assert_eq!(c.read().1, "ok ready");
        c
    }

    /// One response: its data lines, and its `ok`/`err` terminator.
    fn read(&mut self) -> (String, String) {
        let mut data = String::new();
        loop {
            let mut line = String::new();
            assert!(self.reader.read_line(&mut line).unwrap() > 0, "hung up");
            let line = line.trim_end();
            if line == "ok" || line.starts_with("ok ") || line.starts_with("err") {
                return (data, line.to_string());
            }
            data.push_str(line);
            data.push('\n');
        }
    }

    /// Run `line`, retrying sheds: the data lines, or the `err` line.
    fn cmd(&mut self, line: &str) -> Result<String, String> {
        for _ in 0..MAX_ATTEMPTS {
            self.writer
                .write_all(format!("{line}\n").as_bytes())
                .unwrap();
            let (data, term) = self.read();
            if ["err BUSY", "err DEADLINE", "err FENCED"]
                .iter()
                .any(|p| term.starts_with(p))
            {
                std::thread::yield_now();
            } else if term.starts_with("err") {
                return Err(term);
            } else {
                return Ok(data);
            }
        }
        Err(format!("shed {MAX_ATTEMPTS} times"))
    }

    /// A control command that must succeed.
    fn control(&mut self, line: &str) -> String {
        self.cmd(line)
            .unwrap_or_else(|e| panic!("{line:?} failed: {e}"))
    }
}

fn run_v1(addr: SocketAddr, ops: &[Op], phases: &Phases) -> Outcome {
    let mut owed = Owed {
        phases,
        ops: ops.len(),
        steps: 0,
    };
    let mut client = V1Client::connect(addr);
    let mut out = Outcome::default();
    for (idx, &op) in ops.iter().enumerate() {
        let due = steps_before(idx, ops.len());
        phases.wait_until(|s| s.1 >= due);
        out.settle(op, client.cmd(&op.line()));
        owed.op_done();
    }
    out
}

/// Keep up to [`PIPELINE_WINDOW`] commands in flight, match answers by
/// request id, and re-enqueue sheds. A command waits for its control
/// step only once nothing else is in flight: its predecessors' answers
/// are what lets the step fire.
fn run_v2(addr: SocketAddr, ops: &[Op], phases: &Phases) -> Outcome {
    let mut owed = Owed {
        phases,
        ops: ops.len(),
        steps: 0,
    };
    let mut client = WireClient::connect(addr, PIPELINE_WINDOW as u32).unwrap();
    let mut out = Outcome::default();
    let mut queue: VecDeque<(usize, usize)> = (0..ops.len()).map(|idx| (idx, 0)).collect();
    let mut pending: HashMap<u64, (usize, usize)> = HashMap::new();
    while !queue.is_empty() || !pending.is_empty() {
        while let Some(&(idx, tries)) = queue.front() {
            let due = steps_before(idx, ops.len());
            if pending.is_empty() {
                phases.wait_until(|s| s.1 >= due);
            } else if pending.len() >= PIPELINE_WINDOW || phases.steps() < due {
                break;
            }
            queue.pop_front();
            let line = ops[idx].line();
            pending.insert(
                client.send(&Request::Command { line }).unwrap(),
                (idx, tries),
            );
        }
        let (id, resp) = client.recv().unwrap();
        let (idx, tries) = pending.remove(&id).expect("answer for an unknown id");
        let answer = match resp {
            Response::Error { code, .. }
                if [errcode::BUSY, errcode::DEADLINE, errcode::FENCED].contains(&code)
                    && tries + 1 < MAX_ATTEMPTS =>
            {
                queue.push_front((idx, tries + 1));
                continue;
            }
            Response::OkText { text } => Ok(text),
            other => Err(format!("{other:?}")),
        };
        out.settle(ops[idx], answer);
        owed.op_done();
    }
    client.close().unwrap();
    out
}

/// The chaos schedule, in order; step `k` (from 1) fires once `k`
/// phases of operations have completed.
const SCHEDULE: [fn(&mut V1Client); STEPS] = [
    |c| {
        c.control(MIXED_PLAN);
        // Rejoin the followers the armed fences took out, so the mixed
        // plan has links to break.
        c.control("resync");
    },
    |c| {
        c.control(LINK_SAFE_PLAN);
        c.control("resync 0");
        let crashed = c.control("crash 0");
        assert!(crashed.contains("promoted"), "no failover: {crashed}");
        c.control(MIXED_PLAN);
    },
    |c| {
        c.control("recover 0");
    },
    |c| {
        // Drops may leave shard 0 without a live follower at any
        // instant; resync and try again until the promotion lands.
        let promoted = (0..MAX_ATTEMPTS).any(|_| {
            c.control("resync 0");
            match c.cmd("promote 0") {
                Ok(_) => true,
                Err(e) if e.contains("no live follower") => false,
                Err(e) => panic!("promote 0 failed: {e}"),
            }
        });
        assert!(promoted, "promote 0 never found a live follower");
    },
    |c| {
        c.control("chaos off");
        c.control("resync");
    },
];

fn control(addr: SocketAddr, phases: &Phases) {
    let mut owed = Owed {
        phases,
        ops: 0,
        steps: STEPS,
    };
    let mut c = V1Client::connect(addr);
    for (k, step) in SCHEDULE.iter().enumerate() {
        phases.wait_until(|s| s.0 >= TOTAL_OPS * (k + 1) / PHASES);
        step(&mut c);
        owed.step_done();
    }
}

fn sorted_rows(session: &mut Session, view: &str) -> Vec<Tuple> {
    let mut rows = session.access(view).unwrap().0;
    rows.sort();
    rows
}

fn run(strategy: StrategyKind) {
    let server = Server::start(
        build_session(strategy, SHARDS, REPLICAS),
        ServerConfig {
            port: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let mut admin = V1Client::connect(addr);
    // Fence every write while a follower is left to promote: the first
    // re-keys each shard commits race a real promotion.
    admin.control(&format!("chaos inject --seed {SEED} --fence 1"));

    let phases = Phases {
        state: Mutex::new((0, 0)),
        moved: Condvar::new(),
    };
    let outcomes: Vec<Outcome> = std::thread::scope(|s| {
        let phases = &phases;
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let ops = stream(c);
                s.spawn(move || {
                    if c < V1_CLIENTS {
                        run_v1(addr, &ops, phases)
                    } else {
                        run_v2(addr, &ops, phases)
                    }
                })
            })
            .collect();
        control(addr, phases);
        clients.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let errors: Vec<&String> = outcomes.iter().flat_map(|o| &o.errors).collect();
    assert!(errors.is_empty(), "{strategy}: client errors: {errors:?}");
    let acked: Vec<(i64, i64)> = outcomes.iter().flat_map(|o| o.acked.clone()).collect();
    assert_eq!(acked.len(), ROWS as usize, "{strategy}: unacked re-keys");

    let text = admin.control("shards");
    let shards: Vec<HashMap<&str, f64>> = text
        .lines()
        .filter_map(|l| l.strip_prefix("shard "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|kv| kv.split_once('='))
                .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
                .collect()
        })
        .collect();
    assert_eq!(shards.len(), SHARDS, "{strategy}: {shards:?}");
    let sum = |key: &str| shards.iter().map(|s| s[key]).sum::<f64>();
    assert_eq!(
        sum("r1_rows"),
        ROWS as f64,
        "{strategy}: rows lost or doubled"
    );
    for s in &shards {
        let healed = s["live"] == REPLICAS as f64 && s["replicas"] == REPLICAS as f64;
        assert!(
            healed && s["max_lag"] == 0.0,
            "{strategy}: not healed: {s:?}"
        );
    }
    assert!(sum("fenced") > 0.0, "{strategy}: no write was fenced");
    assert!(sum("failovers") > 0.0, "{strategy}: no failover happened");
    for line in admin.control("metrics").lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let value = line
            .rsplit_once(' ')
            .and_then(|(_, v)| v.parse::<f64>().ok());
        assert!(
            value.is_some_and(|v| v.is_finite() && v >= 0.0),
            "{strategy}: bad metrics line {line:?}"
        );
    }
    admin.control("quit");

    let mut served = server.stop();
    let mut oracle = build_session(StrategyKind::AlwaysRecompute, 1, 1);
    for &(victim, new_key) in &acked {
        assert_eq!(oracle.update(victim, new_key).unwrap().0, 1);
    }
    for v in 0..VIEWS {
        let name = format!("V{v}");
        assert_eq!(
            sorted_rows(&mut served, &name),
            sorted_rows(&mut oracle, &name),
            "{strategy}: view {name} diverged from the serial oracle"
        );
    }
}

#[test]
fn ci_clients_ride_out_crash_promote_and_message_chaos() {
    run(StrategyKind::CacheInvalidate);
}

#[test]
fn rvm_clients_ride_out_crash_promote_and_message_chaos() {
    run(StrategyKind::UpdateCacheRvm);
}
