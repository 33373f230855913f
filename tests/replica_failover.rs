//! Replication correctness, fuzzed: for arbitrary seeded schedules of
//! procedure accesses, re-keying updates, injected **primary crashes**,
//! operator promotions, and replica resyncs, a replicated
//! [`procdb::shard::ShardedEngine`] must serve **byte-identical**
//! answers to a single-engine serial oracle replaying the same schedule
//! — for all four strategies, 1–4 shards, and 1–3 replicas per shard.
//!
//! Three properties beyond plain shard equivalence:
//!
//! * **Failover is invisible** — with a live follower, crashing a
//!   primary never surfaces an error: the very next access answers
//!   correctly from the promoted follower, no recovery step in between.
//! * **Resync restores equivalence** — a rejoined replica (delta-log
//!   replay or conservative full rebuild after truncation) answers
//!   exactly like a freshly rebuilt engine over the same base slice.
//! * **Cross-shard moves survive kill-points** (satellite): a crash
//!   mid delete-take/insert move leaves the re-keyed row on exactly
//!   one shard after recovery — never zero, never two.
//! * **A dead shard fails only the accesses that need it** — an access
//!   whose key window lies in live shards answers while another shard's
//!   lone primary is down.
//!
//! The per-shard slices come from the engine's own range placement.

mod common;

use proptest::prelude::*;

use common::{
    assert_groups_consistent, assert_matches_oracle, build_engine, build_replicated, join, next,
    selection, KEY_SPACE, R1_ROWS,
};
use procdb::core::{ProcedureDef, StrategyKind};
use procdb::query::Value;
use procdb::storage::{CostConstants, FaultKind, FaultPlan};

/// The procedures every engine registers: `p1` and `p2` cross the
/// split, `p3` fits in one shard (shard 0 when `S = 2`).
fn procs() -> Vec<ProcedureDef> {
    vec![
        selection(0, "p1", 10, 79),
        join(1, "p2"),
        selection(2, "p3", 30, 49),
    ]
}

const N_PROCS: usize = 3;

fn run_schedule(kind: StrategyKind, shards: usize, replicas: usize, schedule_seed: u64) {
    let c = CostConstants::default();
    let keys: Vec<i64> = (0..R1_ROWS).collect();
    let mut oracle = build_engine(kind, &keys, None, &procs());
    let sharded = build_replicated(kind, shards, replicas, &procs());
    // A third of the runs shrink the delta log so that resync-by-replay
    // outruns retention and the conservative full rebuild gets fuzzed
    // too, not just the happy tail-replay path.
    if schedule_seed.is_multiple_of(3) {
        sharded.set_delta_log_cap(3);
    }
    oracle.warm_up().unwrap();
    sharded.warm_up().unwrap();
    let ctx = format!("{kind} shards={shards} replicas={replicas} seed={schedule_seed}");
    let mut rng = schedule_seed;
    for op in 0..24 {
        let octx = format!("{ctx} op {op}");
        match next(&mut rng) % 5 {
            0 | 1 => assert_matches_oracle(&mut oracle, &sharded, &c, &octx),
            2 => {
                let victim = (next(&mut rng) % KEY_SPACE as u64) as i64;
                let new_key = (next(&mut rng) % KEY_SPACE as u64) as i64;
                let n_oracle = oracle.apply_update(&[(victim, new_key)]).unwrap();
                let (n_sharded, _ms) = sharded.apply_update(&[(victim, new_key)], &c).unwrap();
                assert_eq!(
                    n_oracle, n_sharded,
                    "{octx}: update {victim}->{new_key} re-keyed a different tuple count"
                );
            }
            3 => {
                // Primary crash. With a follower the group promotes and
                // keeps answering with zero intervening recovery; the
                // ex-primary then rejoins (recover or explicit resync).
                let s = (next(&mut rng) % shards as u64) as usize;
                sharded.crash(Some(s));
                if replicas > 1 {
                    assert_matches_oracle(&mut oracle, &sharded, &c, &octx);
                    if next(&mut rng).is_multiple_of(2) {
                        let recovered = sharded.recover(Some(s));
                        assert_eq!(recovered.len(), 1, "{octx}: recover must cover shard {s}");
                    } else {
                        sharded
                            .resync(Some(s))
                            .unwrap_or_else(|e| panic!("{octx}: resync failed: {e}"));
                    }
                } else {
                    // A lone primary is the unreplicated engine: crash
                    // stops service until recover, like the oracle.
                    let recovered = sharded.recover(Some(s));
                    assert_eq!(recovered.len(), 1);
                    oracle.crash();
                    oracle.recover();
                }
            }
            _ => {
                // Forced promotion drill (no crash). Errs without a live
                // follower — fine, that is the single-replica answer.
                let s = (next(&mut rng) % shards as u64) as usize;
                let promoted = sharded.promote(s);
                assert_eq!(
                    promoted.is_ok(),
                    replicas > 1,
                    "{octx}: promote must succeed exactly when a follower exists"
                );
                assert_matches_oracle(&mut oracle, &sharded, &c, &octx);
            }
        }
    }
    // Final sweep: everything recovered and resynced, answers still
    // byte-identical, tuples conserved, every replica equal to a fresh
    // rebuild of its slice.
    sharded.recover(None);
    sharded.resync(None).unwrap();
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
    assert_groups_consistent(&sharded, &ctx);
}

proptest! {
    // Each case replays a 24-op schedule on 4 strategies x (1 + S*R)
    // engines; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn replicated_schedules_match_the_serial_oracle(
        schedule_seed in 0u64..1_000_000,
        shards in 1usize..=4,
        replicas in 1usize..=3,
    ) {
        for kind in StrategyKind::ALL {
            run_schedule(kind, shards, replicas, schedule_seed);
        }
    }
}

/// The degenerate 1x1 deployment is exactly the single engine.
#[test]
fn one_shard_one_replica_is_the_single_engine() {
    run_schedule(StrategyKind::CacheInvalidate, 1, 1, 42);
}

/// Crashing every primary at once with followers present is still
/// invisible: each group promotes and the cluster answers without any
/// recovery step. (The acceptance property behind `crash N` answering
/// every access without `err` when replicas >= 2.)
#[test]
fn whole_cluster_primary_crash_is_invisible_with_followers() {
    let c = CostConstants::default();
    let keys: Vec<i64> = (0..R1_ROWS).collect();
    for kind in StrategyKind::ALL {
        let mut oracle = build_engine(kind, &keys, None, &procs());
        let sharded = build_replicated(kind, 2, 2, &procs());
        oracle.warm_up().unwrap();
        sharded.warm_up().unwrap();
        sharded.apply_update(&[(5, 200)], &c).unwrap();
        oracle.apply_update(&[(5, 200)]).unwrap();
        sharded.crash(None);
        // Every group promoted away from the initial primary (replica 0)
        // and is serving with the ex-primary down. (`failovers()` reads a
        // process-global registry counter, so assert topology instead.)
        for st in sharded.shard_stats() {
            assert_eq!(
                st.primary_replica, 1,
                "{kind}: shard {} must have promoted its follower",
                st.shard
            );
            assert_eq!(st.live_replicas, 1, "{kind}: the ex-primary is down");
        }
        assert_matches_oracle(&mut oracle, &sharded, &c, &format!("{kind} post-crash"));
        // Updates keep flowing to the new primaries too.
        sharded.apply_update(&[(7, 201)], &c).unwrap();
        oracle.apply_update(&[(7, 201)]).unwrap();
        assert_matches_oracle(
            &mut oracle,
            &sharded,
            &c,
            &format!("{kind} post-crash update"),
        );
        // Ex-primaries rejoin and the groups converge again.
        sharded.recover(None);
        assert_groups_consistent(&sharded, &format!("{kind} after rejoin"));
    }
}

/// Delta-log truncation forces the conservative path: a replica left
/// behind past the retention window reports `full_rebuild` (not replay)
/// and still converges to the primary's exact content.
#[test]
fn truncated_log_forces_full_rebuild_resync() {
    let c = CostConstants::default();
    let sharded = build_replicated(StrategyKind::CacheInvalidate, 2, 2, &procs());
    sharded.warm_up().unwrap();
    sharded.set_delta_log_cap(2);
    // Take shard 0's replica 0 down via a primary crash (the follower
    // is promoted), then push enough mutations through every shard to
    // blow past the 2-op retention window.
    sharded.crash(Some(0));
    for k in 0..8 {
        sharded.apply_update(&[(k, k + 300)], &c).unwrap();
    }
    let reports = sharded.resync(Some(0)).unwrap();
    let ex_primary = reports
        .iter()
        .find(|r| r.replica == 0)
        .expect("the crashed ex-primary must be resynced");
    assert!(
        ex_primary.full_rebuild,
        "a replica behind a truncated log must take the snapshot path, got {ex_primary:?}"
    );
    assert_eq!(ex_primary.replayed, 0);
    assert_groups_consistent(&sharded, "post truncation resync");
    // A promptly-resynced follower, by contrast, replays.
    sharded.set_delta_log_cap(256);
    sharded.crash(Some(0));
    sharded.apply_update(&[(301, 5)], &c).unwrap();
    let reports = sharded.resync(Some(0)).unwrap();
    assert!(
        reports.iter().any(|r| !r.full_rebuild),
        "a replica within the retention window should catch up by replay: {reports:?}"
    );
    assert_groups_consistent(&sharded, "post replay resync");
}

/// Satellite: a kill-point firing **mid cross-shard move** (after the
/// source shard's delete-take, during its maintenance) must not lose or
/// duplicate the moving row — after recovery it lives on exactly the
/// destination shard, exactly once.
#[test]
fn kill_point_mid_cross_shard_move_leaves_row_on_exactly_one_shard() {
    let shards = 2;
    for kind in StrategyKind::ALL {
        let c = CostConstants::default();
        let sharded = build_replicated(kind, shards, 1, &procs());
        sharded.warm_up().unwrap();
        // Pick a victim and a new key on *different* shards.
        let router = sharded.router();
        let victim = (0..R1_ROWS)
            .find(|&k| router.shard_of(k) == 0)
            .expect("shard 0 owns some key");
        let new_key = (R1_ROWS..KEY_SPACE)
            .find(|&k| router.shard_of(k) == 1)
            .expect("shard 1 owns some spare key");
        let src_pager = sharded.with_engine(0, |e| e.pager().clone());
        // The next charged transfer on the source shard dies: the
        // delete-take's base effect is durable, its maintenance crashes.
        // Whether the latch springs at all depends on the strategy —
        // AlwaysRecompute and CacheInvalidate maintain deletes without
        // touching the pager (nothing to maintain / validity bits only),
        // so for them the move simply succeeds. Either way the placement
        // invariant below must hold.
        let injector = src_pager.install_faults(FaultPlan::new(7).kill_at(1));
        let res = sharded.apply_update(&[(victim, new_key)], &c);
        let sprung = injector.count(FaultKind::Kill) > 0;
        assert_eq!(
            res.is_err(),
            sprung,
            "{kind}: a sprung kill-point must surface as a maintenance \
             error, an un-sprung one as success (got {res:?})"
        );
        src_pager.clear_faults();
        let recovered = sharded.recover(Some(0));
        assert_eq!(recovered.len(), 1);
        // Exactly one copy of the moved row, on the destination shard.
        let all = sharded.scan_r1().unwrap().decode();
        assert_eq!(all.len(), R1_ROWS as usize, "{kind}: tuples not conserved");
        let moved = all
            .iter()
            .filter(|row| row[0] == Value::Int(new_key))
            .count();
        let stale = all
            .iter()
            .filter(|row| row[0] == Value::Int(victim))
            .count();
        assert_eq!(moved, 1, "{kind}: the re-keyed row must exist exactly once");
        assert_eq!(stale, 0, "{kind}: the old key must be gone");
        let on_dst = sharded.with_engine(1, |e| {
            let _uncharged = e.pager().uncharged();
            let rows = e.catalog().get("R1").unwrap().scan_all().unwrap();
            rows.iter().filter(|r| r[0] == Value::Int(new_key)).count()
        });
        assert_eq!(
            on_dst, 1,
            "{kind}: the moved row must live on the destination shard"
        );
        // And the recovered cluster still answers like a fresh rebuild.
        for i in 0..N_PROCS {
            let (got, _ms) = sharded.access(i, &c).unwrap();
            let expect = sharded.expected_rows(i).unwrap();
            assert_eq!(
                got.normalized(),
                expect.normalized(),
                "{kind}: post-recovery answers diverged"
            );
        }
    }
}

/// An access asks only the shards its key window overlaps, so a dead
/// shard outside the window cannot fail it: with `S = 2`, `R = 1` and
/// shard 1's lone primary crashed, `p3` (held by shard 0) still answers
/// like the oracle, while `p1`, which crosses the split, still errors.
#[test]
fn a_crashed_shard_outside_the_window_does_not_fail_the_access() {
    let c = CostConstants::default();
    let keys: Vec<i64> = (0..R1_ROWS).collect();
    for kind in StrategyKind::ALL {
        let mut oracle = build_engine(kind, &keys, None, &procs());
        let sharded = build_replicated(kind, 2, 1, &procs());
        oracle.warm_up().unwrap();
        sharded.warm_up().unwrap();
        assert_eq!(sharded.router().shards_for(30, 49), 0..1, "p3 is shard 0's");
        assert_eq!(sharded.router().shards_for(10, 79), 0..2, "p1 crosses");
        // Crash shard 1 with no follower to promote, and latch its pager
        // so that every page it would read back fails.
        let pager = sharded.with_engine(1, |e| e.pager().clone());
        pager.install_faults(FaultPlan::new(11).kill_at(1));
        sharded.crash(Some(1));
        let expect = oracle.access(2).unwrap();
        let (got, _ms) = sharded
            .access(2, &c)
            .unwrap_or_else(|e| panic!("{kind}: p3 must not need shard 1: {e}"));
        assert_eq!(
            got.normalized(),
            expect.normalized(),
            "{kind}: p3 diverged while shard 1 was down"
        );
        assert!(
            sharded.access(0, &c).is_err(),
            "{kind}: p1 needs the crashed shard and must fail"
        );
        pager.clear_faults();
        assert_eq!(sharded.recover(Some(1)).len(), 1);
        assert_matches_oracle(&mut oracle, &sharded, &c, &format!("{kind} after recover"));
    }
}
