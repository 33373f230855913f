//! The four workloads, the seeded population they share, and the
//! per-client operation generators with their key models.
//!
//! Everything here is a pure function of `(workload, seed)`: the server
//! only ever sees inputs generated in this file.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

use crate::rng::Rng;

/// Wire protocol a workload's clients speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// v1 line protocol, one command in flight per connection.
    V1,
    /// v2 framed protocol with up to `depth` requests in flight per
    /// connection.
    V2 {
        /// Pipeline depth per connection.
        depth: usize,
    },
}

impl Proto {
    /// Requests one connection keeps in flight.
    pub fn depth(self) -> usize {
        match self {
            Proto::V1 => 1,
            Proto::V2 { depth } => depth,
        }
    }
}

/// One named workload. Names are stable: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Stable name (`--workload`).
    pub name: &'static str,
    /// Wire protocol and pipeline depth.
    pub proto: Proto,
    /// Session-affine logical users multiplexed over the connections
    /// (0 = every access is a plain `Z`-skew draw).
    pub sessions: usize,
    /// Share of operations that are updates (the paper's `P`).
    pub p_update: f64,
    /// Front result cache on?
    pub cache: bool,
    /// Shard engines.
    pub shards: usize,
    /// Replicas per shard.
    pub replicas: usize,
    /// Strategy, by its wire name.
    pub strategy: &'static str,
    /// Tuples in `EMP`.
    pub rows: usize,
    /// Selection views; there are as many join views.
    pub views_per_kind: usize,
    /// How many times narrower a join window is than a selection window.
    /// Above 1 only where objects are recomputed on access: a join probes
    /// `DEPT` once per selected tuple, which costs about twenty times a
    /// scanned tuple, and with equal windows the joins would hold the
    /// session lock three quarters of the time and make every other
    /// latency bimodal.
    pub join_shrink: usize,
}

/// Client connections (and generator threads): the machine has two cores.
pub const CLIENTS: usize = 2;
/// Locality skew: a share `Z` of the views draws `1 − Z` of the accesses.
pub const Z: f64 = 0.2;
/// Probability a logical session re-reads its affinity view.
pub const AFFINITY_P: f64 = 0.8;
/// Rows in `DEPT`; `floor` is 1 for even `dname`, 2 for odd.
pub const DEPTS: i64 = 64;

/// The workload table. Why each exists is recorded in `BENCHMARK.json`
/// and `benchmark/README.md`.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hot_reads_cached",
        proto: Proto::V1,
        sessions: 32,
        p_update: 0.03,
        cache: true,
        shards: 1,
        replicas: 1,
        strategy: "cache",
        rows: 8_000,
        views_per_kind: 16,
        join_shrink: 1,
    },
    Workload {
        name: "update_storm_single",
        proto: Proto::V1,
        sessions: 0,
        p_update: 0.80,
        cache: false,
        shards: 1,
        replicas: 1,
        strategy: "avm",
        rows: 20_000,
        views_per_kind: 8,
        join_shrink: 1,
    },
    Workload {
        name: "recompute_scan",
        proto: Proto::V1,
        sessions: 0,
        p_update: 0.05,
        cache: false,
        shards: 1,
        replicas: 1,
        strategy: "recompute",
        rows: 40_000,
        views_per_kind: 8,
        join_shrink: 20,
    },
    Workload {
        name: "pipelined_sharded",
        proto: Proto::V2 { depth: 16 },
        sessions: 0,
        p_update: 0.20,
        cache: false,
        shards: 2,
        replicas: 2,
        strategy: "rvm",
        rows: 20_000,
        views_per_kind: 8,
        join_shrink: 1,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One procedure: a key window over `EMP`, joined with `DEPT` or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewSpec {
    /// `S{i}` (selection) or `J{i}` (join).
    pub name: String,
    /// Smallest `eid` selected.
    pub lo: i64,
    /// Largest `eid` selected.
    pub hi: i64,
    /// P2 join with `DEPT` on `floor = 1`?
    pub join: bool,
}

/// One `EMP` tuple as loaded. `tag` (the key it was loaded under) rides
/// in `pad`, so a tuple stays recognisable through every re-key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Initial `eid`.
    pub tag: i64,
    /// `grp`, the join column.
    pub grp: i64,
}

impl Workload {
    /// Keys live in `[0, keyspace)`: a fifth of them is always free.
    pub fn keyspace(&self) -> i64 {
        (5 * self.rows / 4) as i64
    }

    /// The views, tiling the key space in definition order: the selections
    /// `S0..`, then the joins `J0..`, so every key lies in exactly one view.
    /// The hot fifth is therefore all selections and the joins draw about
    /// 13 % of the accesses: the median access is a selection and the tail
    /// a join. An even split would put the median between two modes, where
    /// it flips from run to run.
    pub fn views(&self) -> Vec<ViewSpec> {
        let k = self.views_per_kind as i64;
        let join_width = self.keyspace() / (k * (self.join_shrink as i64 + 1));
        let sel_width = join_width * self.join_shrink as i64;
        (0..2 * k)
            .map(|j| {
                let (lo, width) = if j < k {
                    (j * sel_width, sel_width)
                } else {
                    (k * sel_width + (j - k) * join_width, join_width)
                };
                ViewSpec {
                    name: if j < k {
                        format!("S{j}")
                    } else {
                        format!("J{}", j - k)
                    },
                    lo,
                    hi: if j + 1 == 2 * k {
                        self.keyspace() - 1
                    } else {
                        lo + width - 1
                    },
                    join: j >= k,
                }
            })
            .collect()
    }

    /// The initial `EMP` rows: a seeded uniform sample of `rows` distinct
    /// keys, in sampled order, each with a seeded `grp`.
    pub fn population(&self, seed: u64) -> Vec<Row> {
        let mut rng = Rng::new(seed, 0xB0B);
        let mut keys: Vec<i64> = (0..self.keyspace()).collect();
        (0..self.rows)
            .map(|i| {
                let j = i + rng.below(keys.len() - i);
                keys.swap(i, j);
                Row {
                    tag: keys[i],
                    grp: rng.below(DEPTS as usize) as i64,
                }
            })
            .collect()
    }

    /// Command lines that declare the schema, load the population, define
    /// the views and choose the backend. They run through the session
    /// before the server starts.
    pub fn setup_lines(&self, population: &[Row]) -> Vec<String> {
        let mut lines = vec![
            "create table EMP (eid int, grp int, pad bytes 16) btree eid".to_string(),
            "create table DEPT (dname int, floor int) hash dname".to_string(),
        ];
        lines.extend(
            population
                .iter()
                .map(|r| format!("insert EMP ({}, {}, \"t{}\")", r.tag, r.grp, r.tag)),
        );
        lines.extend((0..DEPTS).map(|d| format!("insert DEPT ({d}, {})", 1 + d % 2)));
        for v in self.views() {
            let window = format!("EMP.eid >= {} and EMP.eid <= {}", v.lo, v.hi);
            lines.push(if v.join {
                format!(
                    "define view {} (EMP.all, DEPT.all) where {window} \
                     and EMP.grp = DEPT.dname and DEPT.floor = 1",
                    v.name
                )
            } else {
                format!("define view {} (EMP.all) where {window}", v.name)
            });
        }
        lines.push(format!("strategy {}", self.strategy));
        lines.push(format!("shards {}", self.shards));
        lines.push(format!("replicas {}", self.replicas));
        lines
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read view number `.0`.
    Access(usize),
    /// Re-key the tuple at `victim` (live) to `new_key` (free).
    Update {
        /// A key that holds a tuple.
        victim: i64,
        /// A key that holds none.
        new_key: i64,
    },
}

impl Op {
    /// Append the wire command line (no newline) to `out`.
    pub fn write_line(&self, views: &[ViewSpec], out: &mut String) {
        match self {
            Op::Access(v) => {
                let _ = write!(out, "access {}", views[*v].name);
            }
            Op::Update { victim, new_key } => {
                let _ = write!(out, "update {victim} -> {new_key}");
            }
        }
    }

    /// The command line as a fresh string.
    pub fn line(&self, views: &[ViewSpec]) -> String {
        let mut s = String::new();
        self.write_line(views, &mut s);
        s
    }
}

/// How many of `n_views` views are hot.
fn hot_views(n_views: usize) -> usize {
    ((n_views as f64 * Z).ceil() as usize).clamp(1, n_views)
}

/// Draw a view under the `Z` skew: the first `⌈z·n⌉` views are hot and
/// receive a share `1 − z` of the draws.
fn pick_view(rng: &mut Rng, n_views: usize) -> usize {
    let hot = hot_views(n_views);
    if hot == n_views {
        rng.below(n_views)
    } else if rng.chance(1.0 - Z) {
        rng.below(hot)
    } else {
        hot + rng.below(n_views - hot)
    }
}

/// One client's operation stream and its model of the keys it owns.
///
/// Client `c` of `n` owns the keys `≡ c (mod n)`, so models never race.
/// Every update re-keys a *live* key to a *free* one and is therefore
/// effective. A key an update touched rests for `lag` operations before
/// the generator uses it again: a pipelined connection completes requests
/// out of order, and two in-flight updates must not name the same key.
#[derive(Debug, Clone)]
pub struct ClientGen {
    rng: Rng,
    n_views: usize,
    p_update: f64,
    /// Affinity view of each logical session this client carries.
    sessions: Vec<usize>,
    lag: u64,
    seq: u64,
    live: Vec<i64>,
    free: Vec<i64>,
    /// `(sequence number to release at, key now live, key now free)`.
    resting: VecDeque<(u64, i64, i64)>,
    /// Current key of every tuple this client owns → index into the
    /// population.
    row_of: HashMap<i64, u32>,
}

impl ClientGen {
    /// Generator for client `client` of `clients` over `population`.
    pub fn new(
        w: &Workload,
        population: &[Row],
        seed: u64,
        client: usize,
        clients: usize,
        lag: usize,
    ) -> ClientGen {
        let owns = |key: i64| key as usize % clients == client;
        let row_of: HashMap<i64, u32> = population
            .iter()
            .enumerate()
            .filter(|(_, r)| owns(r.tag))
            .map(|(i, r)| (r.tag, i as u32))
            .collect();
        let (live, free) = (0..w.keyspace())
            .filter(|&k| owns(k))
            .partition(|k| row_of.contains_key(k));
        // Affinities are dealt, not drawn: four sessions in five camp on the
        // hot views in turn and the fifth on the cold ones, so the share of
        // cache hits does not depend on the seed.
        let n_views = 2 * w.views_per_kind;
        let hot = hot_views(n_views);
        let sessions = (0..w.sessions)
            .filter(|s| s % clients == client)
            .map(|s| {
                if s % 5 == 4 && hot < n_views {
                    hot + (s / 5) % (n_views - hot)
                } else {
                    (s - s / 5) % hot
                }
            })
            .collect();
        ClientGen {
            rng: Rng::new(seed, 1 + client as u64),
            n_views,
            p_update: w.p_update,
            sessions,
            lag: lag.max(1) as u64,
            seq: 0,
            live,
            free,
            resting: VecDeque::new(),
            row_of,
        }
    }

    /// Generate the next operation and apply it to the model.
    pub fn next_op(&mut self) -> Op {
        while self.resting.front().is_some_and(|r| r.0 <= self.seq) {
            let (_, now_live, now_free) = self.resting.pop_front().expect("checked non-empty");
            self.live.push(now_live);
            self.free.push(now_free);
        }
        let seq = self.seq;
        self.seq += 1;
        if self.rng.chance(self.p_update) {
            let victim = self.live.swap_remove(self.rng.below(self.live.len()));
            let new_key = self.free.swap_remove(self.rng.below(self.free.len()));
            let row = self.row_of.remove(&victim).expect("live key has a tuple");
            self.row_of.insert(new_key, row);
            self.resting.push_back((seq + self.lag, new_key, victim));
            return Op::Update { victim, new_key };
        }
        if !self.sessions.is_empty() {
            let affinity = self.sessions[seq as usize % self.sessions.len()];
            if self.rng.chance(AFFINITY_P) {
                return Op::Access(affinity);
            }
        }
        Op::Access(pick_view(&mut self.rng, self.n_views))
    }

    /// `(current key, population index)` of every tuple this client owns.
    pub fn tuples(&self) -> impl Iterator<Item = (i64, u32)> + '_ {
        self.row_of.iter().map(|(k, r)| (*k, *r))
    }

    /// Keys that hold a tuple and keys that hold none, resting keys
    /// included, each sorted: the model's whole state, for tests.
    pub fn key_sets(&self) -> (Vec<i64>, Vec<i64>) {
        let mut live: Vec<i64> = self.row_of.keys().copied().collect();
        let mut free: Vec<i64> = self.free.clone();
        free.extend(self.resting.iter().map(|r| r.2));
        live.sort_unstable();
        free.sort_unstable();
        (live, free)
    }
}

/// The rows every view and the base table must hold, rendered the way
/// the server renders them, given the clients' models.
pub struct Expected {
    /// Per view, in view order: the rendered rows, sorted.
    pub views: Vec<Vec<String>>,
    /// The rendered `EMP` rows, sorted.
    pub base: Vec<String>,
}

impl Expected {
    /// Compute from the union of `(current key, population index)` pairs.
    pub fn of(
        views: &[ViewSpec],
        population: &[Row],
        tuples: impl Iterator<Item = (i64, u32)>,
    ) -> Expected {
        let mut out = Expected {
            views: vec![Vec::new(); views.len()],
            base: Vec::new(),
        };
        for (key, idx) in tuples {
            let Row { tag, grp } = population[idx as usize];
            let base = format!("  ({key}, {grp}, \"t{tag}\")");
            // The views tile the key space in order of `lo`.
            let j = views.partition_point(|v| v.lo <= key) - 1;
            if !views[j].join {
                out.views[j].push(base.clone());
            } else if grp % 2 == 0 {
                out.views[j].push(format!("  ({key}, {grp}, \"t{tag}\", {grp}, 1)"));
            }
            out.base.push(base);
        }
        out.views.iter_mut().for_each(|v| v.sort_unstable());
        out.base.sort_unstable();
        out
    }
}
