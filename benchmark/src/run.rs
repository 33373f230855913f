//! The measured run: closed-loop clients over real TCP, tracing off,
//! several repetitions inside one server lifetime, then the correctness
//! gate. Every end-to-end metric comes from here.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

use procdb_wire::{Request, WireClient};

use crate::client::{reply_is_correct, reply_of, Conn, LineClient, Reply};
use crate::rig::{counters, delta, setup};
use crate::stats::{percentile, tail, Summary};
use crate::workload::{ClientGen, Op, Proto, ViewSpec, Workload};

/// How often set-up runs in one invocation; `setup_s` is the median.
pub const SETUP_SAMPLES: usize = 5;
/// Unmeasured traffic before the first repetition.
pub const WARM_UP: Duration = Duration::from_secs(1);

/// Settings of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds, split evenly over the repetitions.
    pub seconds: f64,
    /// Repetitions.
    pub reps: usize,
    /// Client connections, at most `nproc`.
    pub clients: usize,
}

/// Where an operation falls on the run's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warm,
    Rep(usize),
}

#[derive(Debug, Clone, Copy)]
struct Clock {
    start: Instant,
    rep: Duration,
    reps: usize,
}

impl Clock {
    /// The phase an operation sent at `now` belongs to; `None` once the
    /// last repetition is over.
    fn phase(&self, now: Instant) -> Option<Phase> {
        let since = now.saturating_duration_since(self.start);
        if since < WARM_UP {
            return Some(Phase::Warm);
        }
        let rep = ((since - WARM_UP).as_nanos() / self.rep.as_nanos()) as usize;
        (rep < self.reps).then_some(Phase::Rep(rep))
    }
}

/// One repetition's samples from one client.
#[derive(Debug, Clone, Default)]
struct RepLog {
    access_us: Vec<f64>,
    update_us: Vec<f64>,
    failed: usize,
}

struct ClientLog {
    reps: Vec<RepLog>,
    /// The first few wrong answers, for the report.
    wrong: Vec<String>,
}

impl ClientLog {
    fn new(reps: usize) -> ClientLog {
        ClientLog {
            reps: vec![RepLog::default(); reps],
            wrong: Vec::new(),
        }
    }

    fn record(&mut self, phase: Phase, op: &Op, views: &[ViewSpec], reply: &Reply, us: f64) {
        let good = reply_is_correct(op, reply);
        if !good && self.wrong.len() < 5 {
            let first = reply.body.lines().next().unwrap_or("");
            self.wrong
                .push(format!("{:?} -> {first:?}", op.line(views)));
        }
        let Phase::Rep(i) = phase else { return };
        let log = &mut self.reps[i];
        match op {
            Op::Access(_) => log.access_us.push(us),
            Op::Update { .. } => log.update_us.push(us),
        }
        log.failed += usize::from(!good);
    }
}

fn drive_v1(
    mut client: LineClient,
    gen: &mut ClientGen,
    views: &[ViewSpec],
    clock: Clock,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::new(clock.reps);
    let mut line = String::new();
    let mut reply = Reply::default();
    loop {
        let t0 = Instant::now();
        let Some(phase) = clock.phase(t0) else { break };
        let op = gen.next_op();
        line.clear();
        op.write_line(views, &mut line);
        client.command(&line, &mut reply)?;
        let us = t0.elapsed().as_secs_f64() * 1e6;
        log.record(phase, &op, views, &reply, us);
    }
    let _ = client.command("quit", &mut reply);
    Ok(log)
}

/// Keep up to `depth` requests in flight, never running more than `depth`
/// operations ahead of the oldest unanswered one: that is the lag the
/// generator's resting keys rely on.
fn drive_v2(
    mut client: WireClient,
    depth: usize,
    gen: &mut ClientGen,
    views: &[ViewSpec],
    clock: Clock,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::new(clock.reps);
    let mut in_flight: HashMap<u64, (u64, Instant, Phase, Op)> = HashMap::new();
    let mut unanswered: BTreeSet<u64> = BTreeSet::new();
    let mut next_seq = 0u64;
    let mut sending = true;
    loop {
        while sending && next_seq < unanswered.first().copied().unwrap_or(next_seq) + depth as u64 {
            let t0 = Instant::now();
            let Some(phase) = clock.phase(t0) else {
                sending = false;
                break;
            };
            let op = gen.next_op();
            let id = client
                .send(&Request::Command {
                    line: op.line(views),
                })
                .map_err(|e| format!("send: {e}"))?;
            in_flight.insert(id, (next_seq, t0, phase, op));
            unanswered.insert(next_seq);
            next_seq += 1;
        }
        if in_flight.is_empty() {
            break;
        }
        let (id, resp) = client.recv().map_err(|e| format!("recv: {e}"))?;
        let (seq, t0, phase, op) = in_flight
            .remove(&id)
            .ok_or_else(|| format!("response for unknown request id {id}"))?;
        unanswered.remove(&seq);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        log.record(phase, &op, views, &reply_of(resp)?, us);
    }
    let _ = client.close();
    Ok(log)
}

/// What one untraced run measured.
pub struct RunOutcome {
    /// Every end-to-end metric by name.
    pub metrics: BTreeMap<String, Summary>,
    /// Operations attempted in the repetitions.
    pub attempted: usize,
    /// Of those, the ones answered wrongly or refused, plus the gate's
    /// mismatches.
    pub failed: usize,
    /// Descriptions of the first failures and of every gate mismatch.
    pub problems: Vec<String>,
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Run workload `w` untraced: set it up, warm up, measure the repetitions,
/// run the gate; then set it up [`SETUP_SAMPLES`]` − 1` more times for the
/// median set-up time.
pub fn run(w: &Workload, s: &Settings) -> Result<RunOutcome, String> {
    let (rig, first_setup) = setup(w, s.seed)?;
    let mut setups = vec![first_setup];

    let depth = w.proto.depth();
    let mut gens: Vec<ClientGen> = (0..s.clients)
        .map(|c| ClientGen::new(w, &rig.population, s.seed, c, s.clients, depth))
        .collect();
    let v2_depth = matches!(w.proto, Proto::V2 { .. }).then_some(depth);
    let connections = (0..s.clients)
        .map(|_| Conn::connect(&rig.addr, v2_depth))
        .collect::<Result<Vec<_>, _>>()?;

    let before = counters();
    let clock = Clock {
        start: Instant::now(),
        rep: Duration::from_secs_f64(s.seconds / s.reps as f64),
        reps: s.reps,
    };
    let views = &rig.views;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .into_iter()
            .zip(gens.iter_mut())
            .map(|(conn, gen)| {
                scope.spawn(move || match conn {
                    Conn::V1(c) => drive_v1(c, gen, views, clock),
                    Conn::V2(c) => drive_v2(*c, depth, gen, views, clock),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let after = counters();

    let mut problems: Vec<String> = logs.iter().flat_map(|l| l.wrong.clone()).collect();
    let stale = delta(&before, &after, "procdb_cache_stale_served_total");
    if stale > 0.0 {
        problems.push(format!("front cache served {stale} stale bodies"));
    }
    let gate = rig.gate(&gens)?;
    let mut failed = gate.len() + usize::from(stale > 0.0);
    problems.extend(gate);

    // Each repetition's latencies, the clients' samples pooled and sorted.
    let pooled: Vec<(Vec<f64>, Vec<f64>)> = (0..s.reps)
        .map(|i| {
            let mut access_us: Vec<f64> = Vec::new();
            let mut update_us: Vec<f64> = Vec::new();
            for log in &logs {
                access_us.extend(&log.reps[i].access_us);
                update_us.extend(&log.reps[i].update_us);
                failed += log.reps[i].failed;
            }
            access_us.sort_by(f64::total_cmp);
            update_us.sort_by(f64::total_cmp);
            (access_us, update_us)
        })
        .collect();
    let accesses: usize = pooled.iter().map(|(a, _)| a.len()).sum();
    let updates: usize = pooled.iter().map(|(_, u)| u.len()).sum();
    let attempted = accesses + updates;
    let rep_secs = clock.rep.as_secs_f64();
    let mut metrics = BTreeMap::new();
    type PerRep<'a> = &'a dyn Fn(&[f64], &[f64]) -> Option<f64>;
    let mut summarize = |name: &str, samples: usize, per_rep: PerRep| {
        let values: Vec<f64> = pooled.iter().filter_map(|(a, u)| per_rep(a, u)).collect();
        if values.len() < s.reps {
            return Err(format!(
                "{name}: only {} of {} repetitions produced a sample; lengthen the run",
                values.len(),
                s.reps
            ));
        }
        let summary = Summary::of(&values, samples).expect("at least one repetition");
        metrics.insert(name.to_string(), summary);
        Ok(())
    };
    summarize("ops_per_s", attempted, &|a, u| {
        Some((a.len() + u.len()) as f64 / rep_secs)
    })?;
    summarize("access_p50_us", accesses, &|a, _| percentile(a, 0.5))?;
    summarize("update_p50_us", updates, &|_, u| percentile(u, 0.5))?;
    summarize("access_p99_us", accesses, &|a, _| tail(a))?;
    summarize("update_p99_us", updates, &|_, u| tail(u))?;
    // Memory is read before the remaining set-ups run, so it is the peak of
    // one loaded system under traffic, not of several built in turn.
    let rss = peak_rss_mb()?;
    metrics.insert(
        "peak_rss_mb".to_string(),
        Summary::of(&[rss], 1).expect("one value"),
    );
    for _ in 1..SETUP_SAMPLES {
        let (again, secs) = setup(w, s.seed)?;
        setups.push(secs);
        drop(again.server.stop());
    }
    metrics.insert(
        "setup_s".to_string(),
        Summary::of(&setups, setups.len()).expect("SETUP_SAMPLES is at least 1"),
    );
    Ok(RunOutcome {
        metrics,
        attempted,
        failed,
        problems,
    })
}
