//! Chaos harness: seeded fault schedules (I/O failures, torn writes, a
//! deterministic failure window) interleaved with a workload and at
//! least two whole-engine crash/recover cycles, over all four
//! strategies. The recovered engine's answers must equal the fault-free
//! serial oracle ([`Engine::expected_rows`], which recomputes uncharged
//! and is therefore immune to injected faults), and every crash and
//! recovery pass must be visible in the `procdb-obs` registry.
//!
//! Reproduces the paper's §3 reliability ranking as an executable
//! property: Always Recompute recovers with zero WAL replay, Cache &
//! Invalidate replays its validity WAL (conservatively invalidating the
//! unforced window), and Update Cache rebuilds derived state on first
//! access.

use std::sync::Arc;

use procdb::avm::{JoinStep, ViewDef};
use procdb::core::{Engine, EngineOptions, ProcedureDef, StrategyKind};
use procdb::query::{
    Catalog, CompOp, FieldType, Organization, Predicate, Schema, Table, Term, Value,
};
use procdb::storage::{AccountingMode, FaultPlan, Pager, PagerConfig};

const SEEDS: [u64; 3] = [11, 23, 47];
const OPS_PER_CYCLE: usize = 12;
const CRASH_CYCLES: u64 = 2;

/// One splitmix64 step; deterministic workload choices per seed.
fn next(rng: &mut u64) -> u64 {
    let out = procdb_obs::splitmix64(*rng);
    *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

/// R1(skey, a, pad) 200 rows, R2(b, c, f2sel) 20 rows. Built uncharged,
/// mirroring the engine's own test fixtures.
fn catalog(pager: &Arc<Pager>) -> Catalog {
    pager.set_charging(false);
    let r1s = Schema::new(vec![
        ("skey", FieldType::Int),
        ("a", FieldType::Int),
        ("pad", FieldType::Bytes(4)),
    ]);
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
        20,
    )
    .unwrap();
    for i in 0..200i64 {
        r1.insert(&vec![
            Value::Int(i),
            Value::Int(i % 20),
            Value::Bytes(vec![0; 4]),
        ])
        .unwrap();
    }
    for j in 0..20i64 {
        r2.insert(&vec![Value::Int(j), Value::Int(j % 10), Value::Int(j % 3)])
            .unwrap();
    }
    let mut cat = Catalog::new();
    cat.add(r1);
    cat.add(r2);
    pager.ledger().reset();
    pager.set_charging(true);
    cat
}

fn p1(id: u32, lo: i64, hi: i64) -> ProcedureDef {
    ProcedureDef::new(
        id,
        format!("p1-{id}"),
        ViewDef {
            base: "R1".into(),
            selection: Predicate::int_range(0, lo, hi),
            joins: vec![],
        },
    )
}

fn p2(id: u32, lo: i64, hi: i64) -> ProcedureDef {
    ProcedureDef::new(
        id,
        format!("p2-{id}"),
        ViewDef {
            base: "R1".into(),
            selection: Predicate::int_range(0, lo, hi),
            joins: vec![JoinStep {
                inner: "R2".into(),
                outer_key_field: 1,
                residual: Predicate {
                    terms: vec![Term::new(5, CompOp::Eq, 0i64)],
                },
            }],
        },
    )
}

/// Crash simulation needs physical accounting with buffer clears at
/// operation boundaries: each operation is durable before the next, so
/// `Engine::crash` models volatility rather than data loss.
fn engine_physical(kind: StrategyKind) -> (Arc<Pager>, Engine) {
    let pg = Pager::new(PagerConfig {
        page_size: 512,
        buffer_capacity: 4096,
        mode: AccountingMode::Physical,
    });
    let cat = catalog(&pg);
    let procs = vec![p1(0, 10, 29), p2(1, 0, 49)];
    let e = Engine::new(pg.clone(), cat, procs, kind, EngineOptions::default()).unwrap();
    (pg, e)
}

fn assert_oracle(e: &mut Engine, i: usize, ctx: &str) {
    let got = e
        .access(i)
        .unwrap_or_else(|err| panic!("{ctx}: fault-free access failed: {err}"));
    let expect = e.expected_rows(i).unwrap();
    assert_eq!(
        e.normalize(i, &got),
        e.normalize(i, &expect),
        "{ctx}: proc {i} diverged from the serial oracle"
    );
}

/// One chaos run: two crash cycles, each under a fresh seeded fault plan
/// (probabilistic I/O + torn faults plus a short deterministic failure
/// window so every run injects at least one fault), then a fault-free
/// oracle verification of the recovered engine.
fn run_chaos(kind: StrategyKind, seed: u64) {
    let (pg, mut e) = engine_physical(kind);
    e.warm_up().unwrap();
    let mut rng = seed;
    let mut faulted_ops = 0usize;
    for cycle in 0..CRASH_CYCLES {
        // A fresh plan per cycle: the previous cycle's recovery spent any
        // crash latch, and re-seeding keeps the schedule deterministic.
        let plan = FaultPlan::new(seed ^ (cycle.wrapping_mul(0x9e37_79b9) | 1))
            .io_reads(0.03)
            .io_writes(0.03)
            .torn_writes(0.03)
            .fail_window(1 + cycle * 9, 3 + cycle * 9);
        pg.install_faults(plan);
        for op in 0..OPS_PER_CYCLE {
            if next(&mut rng).is_multiple_of(2) {
                // Base mutations are uncharged and therefore always apply;
                // only the charged *maintenance* may fault, which marks the
                // derived state untrusted and surfaces a typed error.
                let victim = (next(&mut rng) % 200) as i64;
                let new_key = (next(&mut rng) % 400) as i64;
                if e.apply_update(&[(victim, new_key)]).is_err() {
                    faulted_ops += 1;
                }
            } else {
                let i = (next(&mut rng) % 2) as usize;
                match e.access(i) {
                    Ok(rows) => {
                        // Even mid-chaos, a *successful* access must never
                        // serve a wrong answer.
                        let expect = e.expected_rows(i).unwrap();
                        assert_eq!(
                            e.normalize(i, &rows),
                            e.normalize(i, &expect),
                            "{kind} seed {seed} cycle {cycle} op {op}: \
                             successful access served a wrong answer"
                        );
                    }
                    Err(_) => faulted_ops += 1,
                }
            }
        }
        e.crash();
        let rep = e.recover().into_report().expect("crashed, so it recovers");
        assert_eq!(rep.crash_epoch, cycle + 1, "{kind} seed {seed}");
        if kind == StrategyKind::AlwaysRecompute {
            assert_eq!(rep.wal_records_replayed, 0, "AR replays no WAL (§3)");
            assert_eq!(rep.wal_bytes_replayed, 0);
            assert_eq!(rep.conservative_invalidations, 0);
            assert_eq!(rep.rebuilds_pending, 0);
        }
        // Recovery is idempotent: a second pass is a typed no-op rather
        // than a repeat replay.
        assert_eq!(
            e.recover(),
            procdb::core::RecoveryOutcome::NotCrashed,
            "{kind}: recovering a running engine must be a typed no-op"
        );
        // Fault-free verification of the recovered engine.
        pg.clear_faults();
        for i in 0..2 {
            assert_oracle(&mut e, i, &format!("{kind} seed {seed} cycle {cycle}"));
        }
    }
    // The deterministic failure windows guarantee injected faults showed
    // up as command errors, not just as metric noise.
    assert!(
        faulted_ops > 0,
        "{kind} seed {seed}: no operation ever observed an injected fault"
    );
}

/// Registry deltas for one strategy's recovery counters across a closure.
fn recovery_counter_deltas(kind: StrategyKind, f: impl FnOnce()) -> (u64, u64) {
    let reg = procdb::obs::global();
    let labels: &[(&str, &str)] = &[("strategy", kind.metric_label())];
    let crashes = reg.counter("procdb_recovery_crashes_total", labels);
    let passes = reg.counter("procdb_recovery_passes_total", labels);
    let (c0, p0) = (crashes.get(), passes.get());
    f();
    (crashes.get() - c0, passes.get() - p0)
}

#[test]
fn chaos_always_recompute() {
    let (crashes, passes) = recovery_counter_deltas(StrategyKind::AlwaysRecompute, || {
        for seed in SEEDS {
            run_chaos(StrategyKind::AlwaysRecompute, seed);
        }
    });
    assert!(crashes >= SEEDS.len() as u64 * CRASH_CYCLES);
    assert!(passes >= SEEDS.len() as u64 * CRASH_CYCLES);
}

#[test]
fn chaos_cache_invalidate() {
    let (crashes, passes) = recovery_counter_deltas(StrategyKind::CacheInvalidate, || {
        for seed in SEEDS {
            run_chaos(StrategyKind::CacheInvalidate, seed);
        }
    });
    assert!(crashes >= SEEDS.len() as u64 * CRASH_CYCLES);
    assert!(passes >= SEEDS.len() as u64 * CRASH_CYCLES);
}

#[test]
fn chaos_update_cache_avm() {
    let (crashes, passes) = recovery_counter_deltas(StrategyKind::UpdateCacheAvm, || {
        for seed in SEEDS {
            run_chaos(StrategyKind::UpdateCacheAvm, seed);
        }
    });
    assert!(crashes >= SEEDS.len() as u64 * CRASH_CYCLES);
    assert!(passes >= SEEDS.len() as u64 * CRASH_CYCLES);
}

#[test]
fn chaos_update_cache_rvm() {
    let (crashes, passes) = recovery_counter_deltas(StrategyKind::UpdateCacheRvm, || {
        for seed in SEEDS {
            run_chaos(StrategyKind::UpdateCacheRvm, seed);
        }
    });
    assert!(crashes >= SEEDS.len() as u64 * CRASH_CYCLES);
    assert!(passes >= SEEDS.len() as u64 * CRASH_CYCLES);
}

#[test]
fn injected_faults_are_counted() {
    // `procdb_faults_injected_total` is kind-labeled and process-global;
    // a deterministic failure window guarantees growth.
    let reg = procdb::obs::global();
    let io = reg.counter("procdb_faults_injected_total", &[("kind", "io")]);
    let before = io.get();
    let (pg, mut e) = engine_physical(StrategyKind::AlwaysRecompute);
    e.warm_up().unwrap();
    pg.install_faults(FaultPlan::new(1).fail_window(1, 4));
    assert!(e.access(0).is_err(), "the failure window must surface");
    pg.clear_faults();
    assert!(io.get() > before, "injected I/O faults must be counted");
    e.access(0).unwrap();
}

#[test]
fn kill_point_crash_recover_cycle_matches_oracle() {
    // A numbered kill-point mid-workload: the engine reports Crashed on
    // every charged transfer until `crash` + `recover`, after which the
    // answers match the oracle — for every strategy.
    for kind in StrategyKind::ALL {
        let (pg, mut e) = engine_physical(kind);
        e.warm_up().unwrap();
        pg.install_faults(FaultPlan::new(7).kill_at(5));
        let mut killed = false;
        for op in 0..8 {
            let r = if op % 2 == 0 {
                e.access(op / 2 % 2).map(|_| ())
            } else {
                e.apply_update(&[(30 + op as i64, 300 + op as i64)])
                    .map(|_| ())
            };
            if r.is_err() {
                killed = true;
            }
        }
        assert!(killed, "{kind}: the kill-point never fired");
        e.crash();
        let rep = e.recover().into_report().expect("crashed, so it recovers");
        assert_eq!(rep.crash_epoch, 1);
        pg.clear_faults();
        for i in 0..2 {
            assert_oracle(&mut e, i, &format!("{kind} post-kill recovery"));
        }
    }
}
