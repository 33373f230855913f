//! Followers keep the base, not the views: with `S = 2` shards of
//! `R = 2` replicas, for all four strategies,
//!
//! * after set-up every follower holds its primary's `R1` rows and its
//!   derived state pending rebuild, and keeps it pending through updates;
//! * after `promote` on each shard the first access answers like the
//!   serial oracle, and later updates are maintained;
//! * a demoted, resynced or rejoined replica is again a follower
//!   without derived state;
//! * the groups built concurrently answer like a one-shard-at-a-time
//!   build.

mod common;

use common::{
    assert_groups_consistent, assert_matches_oracle, build_engine, build_replica, build_replicated,
    derived_state_pending, join, r1_rows, router, selection, shard_keys, R1_ROWS,
};
use procdb::core::{ProcedureDef, Role, StrategyKind};
use procdb::shard::ShardedEngine;
use procdb::storage::CostConstants;

const SHARDS: usize = 2;
const REPLICAS: usize = 2;

fn procs() -> Vec<ProcedureDef> {
    vec![
        selection(0, "p1", 10, 79),
        join(1, "p2"),
        selection(2, "p3", 30, 49),
    ]
}

const UPDATES: [(i64, i64); 6] = [(5, 200), (70, 3), (33, 150), (110, 41), (41, 42), (3, 71)];

/// Every follower of every shard holds its primary's `R1` rows and no
/// derived state.
fn assert_followers_hold_the_base(sharded: &ShardedEngine, ctx: &str) {
    for s in 0..sharded.shards() {
        let p = sharded.primary_of(s);
        let base = sharded.with_replica_engine(s, p, r1_rows);
        for r in (0..sharded.replicas()).filter(|&r| r != p) {
            sharded.with_replica_engine(s, r, |e| {
                assert_eq!(r1_rows(e), base, "{ctx}: shard {s} follower {r} R1");
                assert!(
                    derived_state_pending(e),
                    "{ctx}: shard {s} follower {r} holds derived state"
                );
            });
        }
    }
}

fn oracle_and_sharded(kind: StrategyKind) -> (procdb::core::Engine, ShardedEngine) {
    let keys: Vec<i64> = (0..R1_ROWS).collect();
    let mut oracle = build_engine(kind, &keys, None, &procs());
    let sharded = build_replicated(kind, SHARDS, REPLICAS, &procs());
    oracle.warm_up().unwrap();
    sharded.warm_up().unwrap();
    (oracle, sharded)
}

#[test]
fn followers_hold_the_primary_base_and_no_derived_state() {
    let c = CostConstants::default();
    for kind in StrategyKind::ALL {
        let (_, sharded) = oracle_and_sharded(kind);
        assert_followers_hold_the_base(&sharded, &format!("{kind} set-up"));
        for s in 0..SHARDS {
            let (primary_pages, primary_pending) = sharded.with_replica_engine(s, 0, |e| {
                (e.pager().total_pages(), derived_state_pending(e))
            });
            let follower_pages = sharded.with_replica_engine(s, 1, |e| e.pager().total_pages());
            if kind == StrategyKind::AlwaysRecompute {
                assert_eq!(follower_pages, primary_pages, "{kind}: no derived pages");
            } else {
                assert!(
                    !primary_pending,
                    "{kind}: shard {s} primary is built and warm"
                );
                assert!(
                    follower_pages < primary_pages,
                    "{kind}: shard {s} follower holds {follower_pages} pages, \
                     its primary {primary_pages}"
                );
            }
        }
        for pair in UPDATES {
            sharded.apply_update(&[pair], &c).unwrap();
        }
        assert_followers_hold_the_base(&sharded, &format!("{kind} after updates"));
    }
}

#[test]
fn promoted_followers_answer_like_the_oracle_and_keep_maintaining() {
    let c = CostConstants::default();
    for kind in StrategyKind::ALL {
        let (mut oracle, sharded) = oracle_and_sharded(kind);
        for pair in &UPDATES[..3] {
            sharded.apply_update(&[*pair], &c).unwrap();
            oracle.apply_update(&[*pair]).unwrap();
        }
        for s in 0..SHARDS {
            assert_eq!(sharded.promote(s), Ok(1), "{kind}: shard {s}");
            assert!(
                sharded.with_engine(s, derived_state_pending),
                "{kind}: shard {s}'s new primary builds on first access"
            );
        }
        // The demoted primaries stay on as followers, without views.
        assert_followers_hold_the_base(&sharded, &format!("{kind} after promote"));
        assert_matches_oracle(&mut oracle, &sharded, &c, &format!("{kind} first access"));
        if kind != StrategyKind::AlwaysRecompute {
            for s in 0..SHARDS {
                let pending = sharded.with_engine(s, derived_state_pending);
                assert!(!pending, "{kind}: shard {s} rebuilt on first access");
            }
        }
        for pair in &UPDATES[3..] {
            sharded.apply_update(&[*pair], &c).unwrap();
            oracle.apply_update(&[*pair]).unwrap();
        }
        assert_matches_oracle(&mut oracle, &sharded, &c, &format!("{kind} maintained"));
        assert_followers_hold_the_base(&sharded, &format!("{kind} after maintenance"));
    }
}

#[test]
fn resynced_and_rejoined_replicas_are_followers_again() {
    let c = CostConstants::default();
    for kind in StrategyKind::ALL {
        let (mut oracle, sharded) = oracle_and_sharded(kind);
        // Replica 0 of each shard served (and built its views) as the
        // primary; a crash promotes replica 1 and a recover rejoins 0.
        assert_matches_oracle(&mut oracle, &sharded, &c, &format!("{kind} before"));
        sharded.crash(None);
        for pair in UPDATES {
            sharded.apply_update(&[pair], &c).unwrap();
            oracle.apply_update(&[pair]).unwrap();
        }
        sharded.recover(None);
        assert_groups_consistent(&sharded, &format!("{kind} rejoined by replay"));
        assert_followers_hold_the_base(&sharded, &format!("{kind} rejoined by replay"));
        // Past the log's retention the rejoin takes the snapshot path.
        sharded.set_delta_log_cap(1);
        assert_matches_oracle(&mut oracle, &sharded, &c, &format!("{kind} primary 1"));
        sharded.crash(None);
        for pair in UPDATES.iter().rev() {
            let back = (pair.1, pair.0);
            sharded.apply_update(&[back], &c).unwrap();
            oracle.apply_update(&[back]).unwrap();
        }
        let reports = sharded.resync(None).unwrap();
        assert!(
            reports.iter().any(|r| r.full_rebuild),
            "{kind}: {reports:?}"
        );
        assert_groups_consistent(&sharded, &format!("{kind} rejoined by snapshot"));
        assert_followers_hold_the_base(&sharded, &format!("{kind} rejoined by snapshot"));
        assert_matches_oracle(&mut oracle, &sharded, &c, &format!("{kind} after rejoin"));
    }
}

#[test]
fn concurrent_build_answers_like_a_one_shard_at_a_time_build() {
    const MANY: usize = 4;
    let keys: Vec<i64> = (0..R1_ROWS).collect();
    for kind in StrategyKind::ALL {
        let sharded = build_replicated(kind, MANY, REPLICAS, &procs());
        let placement = router(MANY, &keys, &procs());
        for s in 0..MANY {
            let slice = shard_keys(&placement, &keys, s);
            let mut serial = build_replica(kind, &slice, Some(s as u32), &procs(), Role::Primary);
            let follower = build_replica(kind, &slice, Some(s as u32), &procs(), Role::Follower);
            sharded.with_replica_engine(s, 1, |e| {
                assert_eq!(r1_rows(e), r1_rows(&follower), "{kind}: shard {s} follower");
                assert_eq!(e.pager().total_pages(), follower.pager().total_pages());
            });
            for i in 0..procs().len() {
                let want = serial.access(i).unwrap().normalized();
                let got = sharded.with_engine_mut(s, |e| e.access(i)).unwrap();
                assert_eq!(got.normalized(), want, "{kind}: shard {s} proc {i}");
            }
        }
    }
}
