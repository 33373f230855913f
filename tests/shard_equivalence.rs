//! Scatter-gather correctness, fuzzed: for arbitrary seeded schedules of
//! procedure accesses, re-keying updates, and per-shard crash/recover
//! cycles, a [`procdb::shard::ShardedEngine`] must serve **byte-identical**
//! answers to a single-engine serial oracle replaying the same schedule —
//! for all four strategies and both procedure models (`P1` selection-only
//! and `P2` join procedures), under the range placement the engine runs:
//! the per-shard slices come from the same [`procdb::shard::Router`].
//! A procedure whose window fits in one shard must be served by that
//! shard alone.
//!
//! The oracle comparison is on [`procdb::core::Engine::normalize`] output
//! (schema-encoded, sorted bytes), so any divergence in routing, merge
//! order, cross-shard moves, or per-shard recovery shows up as a byte
//! mismatch rather than a flaky row-order difference.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use procdb::avm::{JoinStep, ViewDef};
use procdb::core::{Engine, EngineOptions, ProcedureDef, StrategyKind};
use procdb::query::{
    Catalog, CompOp, FieldType, Organization, Predicate, Schema, Table, Term, Value,
};
use procdb::shard::{Router, ShardedEngine};
use procdb::storage::{AccountingMode, CostConstants, Pager, PagerConfig};

const R1_ROWS: i64 = 120;
const R2_ROWS: i64 = 20;
const KEY_SPACE: i64 = 240;

/// One splitmix64 step; deterministic schedule choices per seed.
fn next(rng: &mut u64) -> u64 {
    let out = procdb_obs::splitmix64(*rng);
    *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

/// The key window of `p3`: the placement keeps it inside one shard for
/// every shard count the fuzz draws.
const P3_WINDOW: (i64, i64) = (30, 49);

/// The procedures every engine registers. `P1` is a pure selection whose
/// window crosses the split; `P2` pipelines a selection over the whole
/// key range into a replicated-inner hash join, so its partials always
/// merge across shards; `p3` is a selection that one shard answers.
fn procs() -> Vec<ProcedureDef> {
    vec![
        ProcedureDef::new(
            0,
            "p1".to_string(),
            ViewDef {
                base: "R1".into(),
                selection: Predicate::int_range(0, 10, 79),
                joins: vec![],
            },
        ),
        ProcedureDef::new(
            1,
            "p2".to_string(),
            ViewDef {
                base: "R1".into(),
                selection: Predicate::int_range(0, 0, 149),
                joins: vec![JoinStep {
                    inner: "R2".into(),
                    outer_key_field: 1,
                    residual: Predicate {
                        terms: vec![Term::new(4, CompOp::Eq, 0i64)],
                    },
                }],
            },
        ),
        ProcedureDef::new(
            2,
            "p3".to_string(),
            ViewDef {
                base: "R1".into(),
                selection: Predicate::int_range(0, P3_WINDOW.0, P3_WINDOW.1),
                joins: vec![],
            },
        ),
    ]
}

const N_PROCS: usize = 3;

/// Shard counters live in the process-global registry, labeled by shard
/// id only, so the tests in this binary must not interleave their
/// accesses or one would count the other's.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// The placement the engine runs: split over the loaded keys and the
/// procedures' key windows.
fn router(shards: usize, keys: &[i64]) -> Router {
    let procs = procs();
    Router::split_for(
        shards,
        keys.iter().copied(),
        procs.iter().map(|p| &p.view.selection),
        0,
    )
}

/// `R1(skey, a)` holding exactly `keys` (the full relation or one
/// shard's slice) and the replicated inner `R2(b, c, f2sel)`. Crash
/// simulation needs physical accounting, mirroring the chaos harness.
fn build_engine(kind: StrategyKind, keys: &[i64], shard: Option<u32>) -> Engine {
    let pager = Pager::new(PagerConfig {
        page_size: 512,
        buffer_capacity: 4096,
        mode: AccountingMode::Physical,
    });
    pager.set_charging(false);
    let r1s = Schema::new(vec![("skey", FieldType::Int), ("a", FieldType::Int)]);
    let r2s = Schema::new(vec![
        ("b", FieldType::Int),
        ("c", FieldType::Int),
        ("f2sel", FieldType::Int),
    ]);
    let mut r1 = Table::create(
        pager.clone(),
        "R1",
        r1s,
        Organization::BTree { key_field: 0 },
        0,
    )
    .unwrap();
    let mut r2 = Table::create(
        pager.clone(),
        "R2",
        r2s,
        Organization::Hash { key_field: 0 },
        R2_ROWS as usize,
    )
    .unwrap();
    for &k in keys {
        r1.insert(&vec![Value::Int(k), Value::Int(k % R2_ROWS)])
            .unwrap();
    }
    for j in 0..R2_ROWS {
        r2.insert(&vec![Value::Int(j), Value::Int(j % 10), Value::Int(j % 3)])
            .unwrap();
    }
    let mut cat = Catalog::new();
    cat.add(r1);
    cat.add(r2);
    pager.ledger().reset();
    pager.set_charging(true);
    Engine::new(
        Arc::clone(&pager),
        cat,
        procs(),
        kind,
        EngineOptions {
            shard,
            ..EngineOptions::default()
        },
    )
    .unwrap()
}

fn run_schedule(kind: StrategyKind, shards: usize, schedule_seed: u64) {
    let _serial = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = CostConstants::default();
    let keys: Vec<i64> = (0..R1_ROWS).collect();
    let mut oracle = build_engine(kind, &keys, None);
    let placement = router(shards, &keys);
    let sharded = ShardedEngine::new(placement.clone(), |sid| {
        let slice: Vec<i64> = keys
            .iter()
            .copied()
            .filter(|&k| placement.shard_of(k) == sid)
            .collect();
        Ok::<Engine, String>(build_engine(kind, &slice, Some(sid as u32)))
    })
    .unwrap();
    oracle.warm_up().unwrap();
    sharded.warm_up().unwrap();
    let ctx = format!("{kind} shards={shards} seed={schedule_seed}");
    let router = sharded.router();
    assert_eq!(router, &placement);
    let p3_shards = router.shards_for(P3_WINDOW.0, P3_WINDOW.1);
    assert_eq!(p3_shards.len(), 1, "{ctx}: p3 must fit in one shard");
    assert_eq!(
        router.shards_for(0, 149).len(),
        shards,
        "{ctx}: p2 must span every shard"
    );
    let mut rng = schedule_seed;
    for op in 0..30 {
        match next(&mut rng) % 4 {
            // Half the schedule is accesses: every model, every time.
            0 | 1 => {
                for i in 0..N_PROCS {
                    let before = sharded.shard_stats();
                    let expect = oracle.access(i).unwrap();
                    let (got, _ms) = sharded.access(i, &c).unwrap();
                    assert_eq!(
                        oracle.normalize(i, &got),
                        oracle.normalize(i, &expect),
                        "{ctx} op {op}: sharded access diverged on proc {i}"
                    );
                    if i == 2 {
                        // The pruned scatter asked p3's shard alone.
                        for (b, a) in before.iter().zip(sharded.shard_stats()) {
                            let asked = p3_shards.contains(&a.shard);
                            assert_eq!(
                                a.accesses - b.accesses,
                                u64::from(asked),
                                "{ctx} op {op}: shard {} served p3 {} time(s)",
                                a.shard,
                                a.accesses - b.accesses
                            );
                        }
                    }
                }
            }
            2 => {
                let victim = (next(&mut rng) % KEY_SPACE as u64) as i64;
                let new_key = (next(&mut rng) % KEY_SPACE as u64) as i64;
                let n_oracle = oracle.apply_update(&[(victim, new_key)]).unwrap();
                let (n_sharded, _ms) = sharded.apply_update(&[(victim, new_key)], &c).unwrap();
                assert_eq!(
                    n_oracle, n_sharded,
                    "{ctx} op {op}: update {victim}->{new_key} re-keyed a \
                     different tuple count"
                );
            }
            _ => {
                // Crash one shard (or everything) and recover it; the
                // oracle crashes whole — answers must survive either way.
                let sel = if next(&mut rng).is_multiple_of(2) {
                    Some((next(&mut rng) % shards as u64) as usize)
                } else {
                    None
                };
                sharded.crash(sel);
                let recovered = sharded.recover(sel);
                assert_eq!(
                    recovered.len(),
                    sel.map_or(shards, |_| 1),
                    "{ctx} op {op}: recovery must cover exactly the crashed shards"
                );
                oracle.crash();
                oracle.recover();
            }
        }
    }
    // Final sweep: every shard recovered, every procedure still
    // byte-identical, and the merged base relation matches the oracle's
    // row count.
    for i in 0..N_PROCS {
        let expect = oracle.expected_rows(i).unwrap();
        let (got, _ms) = sharded.access(i, &c).unwrap();
        assert_eq!(
            oracle.normalize(i, &got),
            oracle.normalize(i, &expect),
            "{ctx}: final state diverged on proc {i}"
        );
    }
    assert_eq!(
        sharded.scan_r1().unwrap().len(),
        R1_ROWS as usize,
        "{ctx}: re-keying must conserve tuples across shards"
    );
}

proptest! {
    // Each case replays a 30-op schedule on 4 × (1 + S) engines; keep
    // the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_schedules_match_the_serial_oracle(
        schedule_seed in 0u64..1_000_000,
        shards in 2usize..=4,
    ) {
        for kind in StrategyKind::ALL {
            run_schedule(kind, shards, schedule_seed);
        }
    }
}

/// The degenerate one-shard deployment is exactly the single engine.
#[test]
fn one_shard_is_the_single_engine() {
    run_schedule(StrategyKind::CacheInvalidate, 1, 42);
}
