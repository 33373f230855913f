//! The serial-oracle fixture shared by the sharding and replication
//! suites: the `R1`/`R2` relations every engine loads, the range
//! placement the engine runs, and the oracle and group-consistency
//! checks. Each suite passes its own procedure list.

// Each suite uses part of this module.
#![allow(dead_code)]

use std::sync::Arc;

use procdb::avm::{JoinStep, ViewDef};
use procdb::core::{Engine, EngineOptions, ProcedureDef, Role, StrategyKind};
use procdb::query::{
    Catalog, CompOp, FieldType, Organization, Predicate, Schema, Table, Term, Value,
};
use procdb::shard::{ReplicaRole, Router, ShardedEngine};
use procdb::storage::{AccountingMode, CostConstants, Pager, PagerConfig};

pub const R1_ROWS: i64 = 120;
pub const R2_ROWS: i64 = 20;
pub const KEY_SPACE: i64 = 240;

/// One splitmix64 step; deterministic schedule choices per seed.
pub fn next(rng: &mut u64) -> u64 {
    let out = procdb_obs::splitmix64(*rng);
    *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

/// A pure selection over the key window `lo..=hi` of `R1`.
pub fn selection(id: u32, name: &str, lo: i64, hi: i64) -> ProcedureDef {
    let view = ViewDef {
        base: "R1".into(),
        selection: Predicate::int_range(0, lo, hi),
        joins: vec![],
    };
    ProcedureDef::new(id, name.to_string(), view)
}

/// A selection over `R1` keys `0..=149` pipelined into a hash join with
/// the replicated inner `R2` on `a = b`, keeping `f2sel = 0`: its
/// partials always merge across shards.
pub fn join(id: u32, name: &str) -> ProcedureDef {
    let view = ViewDef {
        base: "R1".into(),
        selection: Predicate::int_range(0, 0, 149),
        joins: vec![JoinStep {
            inner: "R2".into(),
            outer_key_field: 1,
            residual: Predicate {
                terms: vec![Term::new(4, CompOp::Eq, 0i64)],
            },
        }],
    };
    ProcedureDef::new(id, name.to_string(), view)
}

/// The placement the engine runs: split over the loaded keys and the
/// procedures' key windows.
pub fn router(shards: usize, keys: &[i64], procs: &[ProcedureDef]) -> Router {
    Router::split_for(
        shards,
        keys.iter().copied(),
        procs.iter().map(|p| &p.view.selection),
        0,
    )
}

/// `R1(skey, a)` holding exactly `keys` (the full relation or one
/// shard's slice) and the replicated inner `R2(b, c, f2sel)`, so every
/// replica of a group is built identically. Crash simulation needs
/// physical accounting: a base write is flushed before the update
/// returns.
pub fn build_engine(
    kind: StrategyKind,
    keys: &[i64],
    shard: Option<u32>,
    procs: &[ProcedureDef],
) -> Engine {
    build_replica(kind, keys, shard, procs, Role::Primary)
}

/// [`build_engine`] in `role`: a follower loads the same relations and
/// leaves its derived state pending rebuild.
pub fn build_replica(
    kind: StrategyKind,
    keys: &[i64],
    shard: Option<u32>,
    procs: &[ProcedureDef],
    role: Role,
) -> Engine {
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
    Engine::with_role(
        Arc::clone(&pager),
        cat,
        procs.to_vec(),
        kind,
        EngineOptions {
            shard,
            ..EngineOptions::default()
        },
        role,
    )
    .unwrap()
}

/// `shards` replica groups of `replicas` engines over `R1_ROWS` keys,
/// each group loaded with the slice the placement assigns it.
pub fn build_replicated(
    kind: StrategyKind,
    shards: usize,
    replicas: usize,
    procs: &[ProcedureDef],
) -> ShardedEngine {
    let keys: Vec<i64> = (0..R1_ROWS).collect();
    let router = router(shards, &keys, procs);
    ShardedEngine::new_replicated(router.clone(), replicas, |sid, role| {
        let slice = shard_keys(&router, &keys, sid);
        Ok::<Engine, String>(build_replica(kind, &slice, Some(sid as u32), procs, role))
    })
    .unwrap()
}

/// The keys of `keys` the placement assigns to shard `sid`.
pub fn shard_keys(router: &Router, keys: &[i64], sid: usize) -> Vec<i64> {
    keys.iter()
        .copied()
        .filter(|&k| router.shard_of(k) == sid)
        .collect()
}

/// Does `e` hold its strategy's derived state as a follower does: no
/// valid cache, every view and the Rete network pending rebuild?
pub fn derived_state_pending(e: &Engine) -> bool {
    match e.strategy() {
        StrategyKind::AlwaysRecompute => true,
        StrategyKind::CacheInvalidate => e.valid_fraction() == Some(0.0),
        StrategyKind::UpdateCacheAvm => e.rebuilds_pending() == e.procedures().len(),
        StrategyKind::UpdateCacheRvm => e.rebuilds_pending() == 1,
    }
}

/// `e`'s `R1` rows in key order, read uncharged.
pub fn r1_rows(e: &Engine) -> procdb::query::EncodedRows {
    let _uncharged = e.pager().uncharged();
    e.catalog().get("R1").unwrap().scan_encoded().unwrap()
}

/// Every procedure answers through the sharded engine exactly as the
/// serial oracle does.
pub fn assert_matches_oracle(
    oracle: &mut Engine,
    sharded: &ShardedEngine,
    c: &CostConstants,
    ctx: &str,
) {
    for i in 0..sharded.n_procs() {
        let expect = oracle.access(i).unwrap();
        let (got, _ms) = sharded.access(i, c).unwrap();
        assert_eq!(
            got.normalized(),
            expect.normalized(),
            "{ctx}: sharded access diverged from the oracle on proc {i}"
        );
    }
}

/// Every replica of every group is live and holds its primary's base
/// data: each procedure's uncharged fresh recompute (`expected_rows`)
/// equals the primary's, so resync really restored the data, not just
/// the liveness bit. The primary's `access` answers exactly that, and
/// every follower holds the base only, its derived state pending.
pub fn assert_groups_consistent(sharded: &ShardedEngine, ctx: &str) {
    for st in sharded.shard_stats() {
        let s = st.shard;
        let primary = st.primary_replica;
        for rs in &st.replica_status {
            assert_ne!(
                rs.role,
                ReplicaRole::Down,
                "{ctx}: shard {s} replica {} still down after resync",
                rs.replica
            );
            if rs.role == ReplicaRole::Follower {
                assert!(
                    sharded.with_replica_engine(s, rs.replica, derived_state_pending),
                    "{ctx}: shard {s} follower {} holds derived state",
                    rs.replica
                );
            }
            for i in 0..sharded.n_procs() {
                let norm_here = sharded
                    .with_replica_engine(s, rs.replica, |e| e.expected_rows(i))
                    .unwrap()
                    .normalized();
                if rs.role == ReplicaRole::Primary {
                    let norm_got = sharded
                        .with_replica_engine_mut(s, primary, |e| e.access(i))
                        .unwrap()
                        .normalized();
                    assert_eq!(
                        norm_got,
                        norm_here,
                        "{ctx}: shard {s} primary proc {i} access ({} rows) diverged \
                         from its own fresh recompute ({} rows)",
                        norm_got.len(),
                        norm_here.len()
                    );
                }
                let norm_primary = sharded
                    .with_replica_engine_mut(s, primary, |e| {
                        e.expected_rows(i).map(|r| r.normalized())
                    })
                    .unwrap();
                assert_eq!(
                    norm_here, norm_primary,
                    "{ctx}: shard {s} replica {} proc {i} holds different base data \
                     than the primary after resync",
                    rs.replica
                );
            }
        }
    }
}
