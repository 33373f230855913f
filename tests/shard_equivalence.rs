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
//! The oracle comparison is on [`procdb::query::RowBatch::normalized`]
//! output (encoded rows, sorted), so any divergence in routing, merge
//! contents, cross-shard moves, or per-shard recovery shows up as a byte
//! mismatch rather than a flaky row-order difference. Row *order* is
//! pinned separately, on the text a session renders for `access`: the
//! serial engine's order over one shard, byte order over several.

mod common;

use std::sync::Mutex;

use proptest::prelude::*;

use common::{build_engine, join, next, router, selection, KEY_SPACE, R1_ROWS};
use procdb::core::{Engine, EngineOptions, ProcedureDef, StrategyKind};
use procdb::query::{Catalog, FieldType, Organization, Schema, Table, Tuple, Value};
use procdb::shard::ShardedEngine;
use procdb::storage::{AccountingMode, CostConstants, Pager, PagerConfig};
use procdb_server::{execute, parse, Outcome, Session};

/// The key window of `p3`: the placement keeps it inside one shard for
/// every shard count the fuzz draws.
const P3_WINDOW: (i64, i64) = (30, 49);

/// The procedures every engine registers. `P1` is a pure selection whose
/// window crosses the split; `P2` pipelines a selection over the whole
/// key range into a replicated-inner hash join, so its partials always
/// merge across shards; `p3` is a selection that one shard answers.
fn procs() -> Vec<ProcedureDef> {
    vec![
        selection(0, "p1", 10, 79),
        join(1, "p2"),
        selection(2, "p3", P3_WINDOW.0, P3_WINDOW.1),
    ]
}

const N_PROCS: usize = 3;

/// Shard counters live in the process-global registry, labeled by shard
/// id only, so the tests in this binary must not interleave their
/// accesses or one would count the other's.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn run_schedule(kind: StrategyKind, shards: usize, schedule_seed: u64) {
    let _serial = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = CostConstants::default();
    let keys: Vec<i64> = (0..R1_ROWS).collect();
    let mut oracle = build_engine(kind, &keys, None, &procs());
    let placement = router(shards, &keys, &procs());
    let sharded = ShardedEngine::new(placement.clone(), |sid| {
        let slice: Vec<i64> = keys
            .iter()
            .copied()
            .filter(|&k| placement.shard_of(k) == sid)
            .collect();
        Ok::<Engine, String>(build_engine(kind, &slice, Some(sid as u32), &procs()))
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
                        got.normalized(),
                        expect.normalized(),
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
            got.normalized(),
            expect.normalized(),
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

// ---- rendered order ------------------------------------------------------

/// `EMP` rows for the rendered-order test. Keys are multiples of 37 up
/// to 2,220, so their little-endian bytes sort differently from their
/// values, and `name` is a short string NUL-padded to 8 bytes.
const EMP_ROWS: i64 = 61;

fn emp_row(r: i64) -> Tuple {
    vec![
        Value::Int(r * 37),
        Value::Int(r % 9),
        Value::Bytes(format!("e{r}").into_bytes()),
    ]
}

/// Views of 0, 7 and 61 rows. Every window covers the whole key range,
/// so with several shards every view merges partials from all of them.
const RENDER_VIEWS: [(&str, usize); 3] = [
    (
        "define view NONE (EMP.all) where EMP.eid >= 0 and EMP.eid <= 3000 and EMP.grp = 100",
        0,
    ),
    (
        "define view SEVEN (EMP.all) where EMP.eid >= 0 and EMP.eid <= 3000 and EMP.grp = 3",
        7,
    ),
    (
        "define view MANY (EMP.all) where EMP.eid >= 0 and EMP.eid <= 3000",
        61,
    ),
];

/// Re-keys applied to both sides between checks: they move rows inside
/// the stored copies and, with several shards, across shards.
const RENDER_UPDATES: [(i64, i64); 3] = [(185, 2900), (1480, 1), (0, 2999)];

fn render_session(kind: StrategyKind, shards: usize) -> Session {
    let mut s = Session::new();
    s.create_table(
        "EMP",
        Schema::new(vec![
            ("eid", FieldType::Int),
            ("grp", FieldType::Int),
            ("name", FieldType::Bytes(8)),
        ]),
        Organization::BTree { key_field: 0 },
    )
    .unwrap();
    // Insert out of key order, so storage order is the engine's doing.
    for r in 0..EMP_ROWS {
        s.insert("EMP", emp_row(r * 17 % EMP_ROWS)).unwrap();
    }
    for (stmt, _) in RENDER_VIEWS {
        s.define_view(stmt).unwrap();
    }
    s.set_shards(shards).unwrap();
    s.set_strategy(kind).unwrap();
    s
}

/// The serial oracle: one bare engine over the session's declared rows
/// and views, built the way the session builds each shard's engine.
fn render_oracle(kind: StrategyKind, session: &Session) -> Engine {
    let pager = Pager::new(PagerConfig {
        page_size: 4000,
        buffer_capacity: 16 * 1024,
        mode: AccountingMode::Physical,
    });
    pager.set_charging(false);
    let spec = &session.tables()[0];
    let mut emp = Table::create(pager.clone(), "EMP", spec.schema.clone(), spec.org, 0).unwrap();
    for row in spec.rows.decode(&spec.schema) {
        emp.insert(&row).unwrap();
    }
    let mut cat = Catalog::new();
    cat.add(emp);
    pager.set_charging(true);
    let procs = session
        .view_defs()
        .iter()
        .enumerate()
        .map(|(i, (name, def))| ProcedureDef::new(i as u32, name.clone(), def.clone()))
        .collect();
    let mut e = Engine::new(
        pager,
        cat,
        procs,
        kind,
        EngineOptions {
            r1: "EMP".into(),
            rvm_base_probe_field: 0,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    e.warm_up().unwrap();
    e
}

/// `got` must be `want`'s rendering: the row count, then the rows (the
/// first 20, then `... N more`), with no trailing newline.
fn assert_body(ctx: &str, session: &Session, got: &str, want: &[Tuple]) {
    let (header, rows) = got.split_once('\n').unwrap_or((got, ""));
    assert!(
        header.starts_with(&format!("{} rows in ", want.len())) && header.ends_with(" model-ms:"),
        "{ctx}: header {header:?}"
    );
    assert_eq!(
        rows,
        session.render_rows(want, 20).trim_end_matches('\n'),
        "{ctx}: rendered rows differ from the oracle's"
    );
}

#[test]
fn rendered_access_bodies_follow_the_oracle_order() {
    let _serial = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for shards in 1..=3 {
        for kind in StrategyKind::ALL {
            let mut session = render_session(kind, shards);
            let mut oracle = render_oracle(kind, &session);
            let schema = session.tables()[0].schema.clone();
            for step in 0..=RENDER_UPDATES.len() {
                if step > 0 {
                    let (victim, new_key) = RENDER_UPDATES[step - 1];
                    assert_eq!(session.update(victim, new_key).unwrap().0, 1);
                    assert_eq!(oracle.apply_update(&[(victim, new_key)]).unwrap(), 1);
                }
                for (i, (stmt, n)) in RENDER_VIEWS.iter().enumerate() {
                    let view = stmt.split_whitespace().nth(2).unwrap();
                    let ctx = format!("{kind} shards={shards} step={step} {view}");
                    let mut want = oracle.access(i).unwrap().decode();
                    assert_eq!(want.len(), *n, "{ctx}: oracle row count");
                    if shards > 1 {
                        want.sort_by_cached_key(|t| schema.encode(t));
                    }
                    // The exclusive path (it builds the engine on the
                    // first step), then the shared path.
                    let cmd = parse(&format!("access {view}")).unwrap().unwrap();
                    let Outcome::Text(body) = execute(&mut session, cmd).unwrap() else {
                        panic!("{ctx}: access ended the session");
                    };
                    assert_body(&ctx, &session, &body, &want);
                    let (rows, ms) = session
                        .access_shared(view)
                        .unwrap()
                        .expect("engine is live");
                    assert_body(&ctx, &session, &session.render_access(&rows, ms), &want);
                }
            }
        }
    }
}
