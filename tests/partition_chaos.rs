//! Failure containment under **message chaos**, fuzzed: with a seeded
//! [`procdb::shard::ChaosPlan`] delaying, dropping, duplicating, and
//! reordering delta ships — and firing mid-commit fences — a replicated
//! [`procdb::shard::ShardedEngine`] must still serve byte-identical
//! answers to a single-engine serial oracle replaying the same schedule
//! of accesses, updates, crashes, promotions, and resyncs, for all four
//! strategies, 1–4 shards, and 2–3 replicas per group.
//!
//! Properties beyond plain replica equivalence:
//!
//! * **Zero acked-then-lost writes** — an update the cluster
//!   acknowledged re-keys exactly the tuples the oracle re-keyed, and
//!   the final sweep conserves every tuple; chaos may delay or dupe the
//!   ships, never the commit.
//! * **Every stale-primary write is fenced** — a write racing a
//!   promotion surfaces as the typed `FENCED` error (never a silent
//!   drop, never a panic), and the bounded retry lands on the new
//!   primary.
//! * **Exactly one epoch bump per promotion** — a manual `promote`
//!   racing a supervisor tick over the same dead primary serializes on
//!   the group-epoch compare-exchange (the satellite regression).
//! * **Resync mid-failover is safe** — `resync` rejoins a fenced
//!   ex-primary as a follower at the new epoch; it never resurrects it
//!   as primary and never panics, even racing fenced writes.

mod common;

use std::sync::mpsc;
use std::time::Duration;

use proptest::prelude::*;

use common::{
    assert_groups_consistent, assert_matches_oracle, build_engine, build_replicated, join, next,
    selection, KEY_SPACE, R1_ROWS,
};
use procdb::core::{ProcedureDef, StrategyKind};
use procdb::shard::{ChaosKind, ChaosPlan, ShardedEngine};
use procdb::storage::{CostConstants, StorageError};

/// Bound on fenced-write retries per update: each fence fires at most
/// once per live follower (firing downs the then-primary), so a bound
/// far above the replica count means "stuck" and fails loudly.
const MAX_FENCE_RETRIES: usize = 64;

/// The procedures every engine registers: a selection and a join.
fn procs() -> Vec<ProcedureDef> {
    vec![selection(0, "p1", 10, 79), join(1, "p2")]
}

/// Apply one re-keying update through the cluster, retrying the typed
/// `FENCED` rejection (the promotion landed mid-commit; the op was
/// refused *before* touching state, so the retry is exact-once).
/// Returns `(rows_rekeyed, fences_survived)`.
fn apply_with_fence_retry(
    sharded: &ShardedEngine,
    pair: (i64, i64),
    c: &CostConstants,
    ctx: &str,
) -> (usize, usize) {
    let mut fenced = 0usize;
    loop {
        match sharded.apply_update(&[pair], c) {
            Ok((n, _ms)) => return (n, fenced),
            Err(StorageError::Fenced { .. }) => {
                fenced += 1;
                assert!(
                    fenced < MAX_FENCE_RETRIES,
                    "{ctx}: update {pair:?} fenced {fenced} times in a row"
                );
            }
            Err(e) => panic!("{ctx}: update {pair:?} failed non-retryably: {e}"),
        }
    }
}

/// One fuzzed chaos schedule: install a seeded all-fates plan, run the
/// replica-failover op mix against the serial oracle, then heal and
/// check full-group convergence plus the fencing ledger.
fn run_chaos_schedule(kind: StrategyKind, shards: usize, replicas: usize, schedule_seed: u64) {
    let c = CostConstants::default();
    let keys: Vec<i64> = (0..R1_ROWS).collect();
    let mut oracle = build_engine(kind, &keys, None, &procs());
    let sharded = build_replicated(kind, shards, replicas, &procs());
    // A third of the runs shrink the delta log so chaos-induced lag
    // (dropped ships) pushes resync onto the conservative full-rebuild
    // path, not just tail replay.
    if schedule_seed.is_multiple_of(3) {
        sharded.set_delta_log_cap(3);
    }
    oracle.warm_up().unwrap();
    sharded.warm_up().unwrap();
    let plan = ChaosPlan::new(schedule_seed ^ 0x000c_4a05)
        .delays(0.3)
        .delay_window_ms(0, 2)
        .drops(0.15)
        .duplicates(0.2)
        .reorders(0.2)
        .fences(0.1);
    sharded.install_chaos(plan);
    let ctx = format!("{kind} shards={shards} replicas={replicas} seed={schedule_seed}");
    let mut rng = schedule_seed;
    let mut fences_seen = 0usize;
    for op in 0..24 {
        let octx = format!("{ctx} op {op}");
        match next(&mut rng) % 5 {
            0 | 1 => assert_matches_oracle(&mut oracle, &sharded, &c, &octx),
            2 => {
                let victim = (next(&mut rng) % KEY_SPACE as u64) as i64;
                let new_key = (next(&mut rng) % KEY_SPACE as u64) as i64;
                let n_oracle = oracle.apply_update(&[(victim, new_key)]).unwrap();
                let (n_sharded, fenced) =
                    apply_with_fence_retry(&sharded, (victim, new_key), &c, &octx);
                fences_seen += fenced;
                assert_eq!(
                    n_oracle, n_sharded,
                    "{octx}: update {victim}->{new_key} re-keyed a different tuple count"
                );
            }
            3 => {
                // Primary crash under chaos. Fences may already have
                // downed followers, so revive the group first — the
                // crash then always finds a live follower to promote.
                let s = (next(&mut rng) % shards as u64) as usize;
                sharded
                    .resync(Some(s))
                    .unwrap_or_else(|e| panic!("{octx}: pre-crash resync failed: {e}"));
                sharded.crash(Some(s));
                assert_matches_oracle(&mut oracle, &sharded, &c, &octx);
                if next(&mut rng).is_multiple_of(2) {
                    let recovered = sharded.recover(Some(s));
                    assert_eq!(recovered.len(), 1, "{octx}: recover must cover shard {s}");
                } else {
                    sharded
                        .resync(Some(s))
                        .unwrap_or_else(|e| panic!("{octx}: resync failed: {e}"));
                }
            }
            _ => {
                // Forced promotion drill. After a revive there is always
                // a live follower, chaos or not.
                let s = (next(&mut rng) % shards as u64) as usize;
                sharded
                    .resync(Some(s))
                    .unwrap_or_else(|e| panic!("{octx}: pre-promote resync failed: {e}"));
                sharded
                    .promote(s)
                    .unwrap_or_else(|e| panic!("{octx}: promote failed after resync: {e}"));
                assert_matches_oracle(&mut oracle, &sharded, &c, &octx);
            }
        }
    }
    // Heal: chaos off, every replica recovered and resynced. Every
    // typed FENCED error the client saw must be accounted for by the
    // injector's ledger (the ledger may run ahead: a fence on the
    // destination leg of a cross-shard move is retried *inside*
    // `apply_update` and never surfaces to the client).
    let fenced = sharded
        .chaos_off()
        .expect("chaos was installed")
        .count(ChaosKind::Fence);
    assert!(
        fenced as usize >= fences_seen,
        "{ctx}: client saw {} typed FENCED errors but the injector only fired {}",
        fences_seen,
        fenced
    );
    sharded.recover(None);
    sharded.resync(None).unwrap();
    for i in 0..2 {
        let expect = oracle.expected_rows(i).unwrap();
        let (got, _ms) = sharded.access(i, &c).unwrap();
        assert_eq!(
            got.normalized(),
            expect.normalized(),
            "{ctx}: final state diverged on proc {i}"
        );
    }
    // Zero acked-then-lost (and zero duplicated) committed writes:
    // every tuple the oracle holds survives exactly once.
    assert_eq!(
        sharded.scan_r1().unwrap().len(),
        R1_ROWS as usize,
        "{ctx}: chaos lost or duplicated committed writes"
    );
    assert_groups_consistent(&sharded, &ctx);
}

proptest! {
    // Each case replays a 24-op schedule on 4 strategies x (1 + S*R)
    // engines under an active chaos injector; keep the case count
    // modest (matches the replica-failover fuzz budget).
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn chaos_schedules_match_the_serial_oracle(
        schedule_seed in 0u64..1_000_000,
        shards in 1usize..=4,
        replicas in 2usize..=3,
    ) {
        for kind in StrategyKind::ALL {
            run_chaos_schedule(kind, shards, replicas, schedule_seed);
        }
    }
}

/// Satellite regression: a manual `promote` racing a supervisor tick
/// over the same dead primary bumps the group epoch **exactly once**.
///
/// The race window is opened deterministically: the primary's engine is
/// crashed while its write lock stays held, so the supervisor's
/// `try_read` liveness probe reads "busy, not dead" and skips the slot,
/// and the operator `promote` blocks on its crash check. Releasing the
/// lock lets both promoters reach the group-epoch compare-exchange in
/// the same instant — whoever wins, the epoch moves by one.
#[test]
fn concurrent_promote_and_supervisor_tick_bump_the_epoch_exactly_once() {
    let sharded = build_replicated(StrategyKind::CacheInvalidate, 1, 3, &procs());
    sharded.warm_up().unwrap();
    let pidx = sharded.primary_of(0);
    let epoch0 = sharded.epoch_of(0);
    sharded.start_supervisor(Duration::from_millis(1));
    let winner = std::thread::scope(|scope| {
        let (held_tx, held_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let sharded_ref = &sharded;
        let holder = scope.spawn(move || {
            sharded_ref.with_replica_engine_mut(0, pidx, |e| {
                e.crash();
                held_tx.send(()).unwrap();
                // Hold the write lock: the primary is dead but looks
                // busy, so no promoter can act yet.
                release_rx.recv().unwrap();
            });
        });
        held_rx.recv().unwrap();
        // The supervisor ticks every 1ms the whole time; a busy-looking
        // primary must never be failed over.
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(
            sharded.epoch_of(0),
            epoch0,
            "a held write lock means busy, not dead — no promotion yet"
        );
        let promoter = scope.spawn(move || sharded_ref.promote(0));
        // Let the operator promote reach its (blocked) crash check,
        // then spring the trap: supervisor tick and operator promote
        // now race on the same dead primary.
        std::thread::sleep(Duration::from_millis(10));
        release_tx.send(()).unwrap();
        let winner = promoter.join().unwrap().expect("a live follower exists");
        holder.join().unwrap();
        // Give the supervisor a few more ticks to (wrongly) double-act.
        std::thread::sleep(Duration::from_millis(10));
        winner
    });
    sharded.stop_supervisor();
    assert_eq!(
        sharded.epoch_of(0),
        epoch0 + 1,
        "concurrent promote + supervisor tick must yield exactly one epoch bump"
    );
    assert_ne!(
        winner, pidx,
        "the dead primary cannot win its own succession"
    );
    assert_eq!(
        sharded.primary_of(0),
        winner,
        "the loser of the CAS must report the actual winner"
    );
    // The group heals and converges as usual afterwards.
    sharded.recover(Some(0));
    sharded.resync(Some(0)).unwrap();
    assert_groups_consistent(&sharded, "post promote race");
}

/// Satellite: `resync [N]` issued mid-failover — after a fence demoted
/// the primary — rejoins the fenced ex-primary as a **follower** at the
/// new epoch. It never resurrects it as primary, never double-bumps the
/// epoch, and the fenced write's retry lands exactly once.
#[test]
fn resync_mid_failover_rejoins_the_fenced_ex_primary_as_follower() {
    let c = CostConstants::default();
    let sharded = build_replicated(StrategyKind::UpdateCacheRvm, 1, 3, &procs());
    sharded.warm_up().unwrap();
    let epoch0 = sharded.epoch_of(0);
    let old_primary = sharded.primary_of(0);
    // Every write attempt is fenced: the promotion verdict lands
    // mid-commit, the freshest live follower takes over for real, and
    // the op is refused before touching any state.
    sharded.install_chaos(ChaosPlan::new(11).fences(1.0));
    let err = sharded.apply_update(&[(1, 131)], &c).unwrap_err();
    assert!(
        matches!(err, StorageError::Fenced { .. }),
        "want the typed fence, got: {err}"
    );
    assert!(
        err.to_string().starts_with("FENCED"),
        "the fence must render with its wire-classifiable prefix: {err}"
    );
    assert_eq!(
        sharded.epoch_of(0),
        epoch0 + 1,
        "the fence is a real promotion"
    );
    let new_primary = sharded.primary_of(0);
    assert_ne!(new_primary, old_primary, "the stale primary was demoted");
    sharded.chaos_off();
    // Mid-failover resync: the fenced ex-primary is down and must come
    // back as a follower under the new primary's epoch.
    let reports = sharded.resync(Some(0)).unwrap();
    assert!(
        reports.iter().any(|r| r.replica == old_primary),
        "resync must cover the fenced ex-primary: {reports:?}"
    );
    assert_eq!(
        sharded.primary_of(0),
        new_primary,
        "resync must never resurrect a fenced replica as primary"
    );
    assert_eq!(
        sharded.epoch_of(0),
        epoch0 + 1,
        "resync applies against the new epoch, it does not bump it"
    );
    // The rejected write's retry lands exactly once on the new primary.
    let (n, _ms) = sharded.apply_update(&[(1, 131)], &c).unwrap();
    assert_eq!(
        n, 1,
        "the fenced write must not have left partial state behind"
    );
    sharded.resync(Some(0)).unwrap();
    assert_eq!(sharded.scan_r1().unwrap().len(), R1_ROWS as usize);
    assert_groups_consistent(&sharded, "post fence resync");
}

/// A fence needs a live follower to promote: once fences have demoted
/// the group down to a single live replica, writes go through — chaos
/// can degrade a group, never wedge it.
#[test]
fn a_fence_without_a_live_follower_cannot_fire() {
    let c = CostConstants::default();
    let sharded = build_replicated(StrategyKind::CacheInvalidate, 1, 2, &procs());
    sharded.warm_up().unwrap();
    sharded.install_chaos(ChaosPlan::new(23).fences(1.0));
    // First write: fenced (the lone follower is promoted, the
    // ex-primary is dropped from the group).
    let err = sharded.apply_update(&[(2, 132)], &c).unwrap_err();
    assert!(matches!(err, StorageError::Fenced { .. }), "{err}");
    // Retry: fences still armed, but no live follower remains — the
    // trap cannot spring and the write commits on the lone primary.
    let (n, _ms) = sharded.apply_update(&[(2, 132)], &c).unwrap();
    assert_eq!(n, 1);
    sharded.chaos_off();
    sharded.resync(Some(0)).unwrap();
    assert_eq!(sharded.scan_r1().unwrap().len(), R1_ROWS as usize);
    assert_groups_consistent(&sharded, "post degraded-group fence");
}

/// Stress the satellite's "never panics" clause: `resync` loops racing
/// fenced writes (fences + drops active) must only ever produce typed,
/// retryable outcomes, and the group converges once chaos lifts.
#[test]
fn resync_racing_fenced_writes_never_panics() {
    let c = CostConstants::default();
    let sharded = build_replicated(StrategyKind::CacheInvalidate, 1, 3, &procs());
    sharded.warm_up().unwrap();
    sharded.install_chaos(
        ChaosPlan::new(47)
            .delays(0.2)
            .delay_window_ms(0, 1)
            .drops(0.2)
            .fences(0.3),
    );
    std::thread::scope(|scope| {
        let sharded_ref = &sharded;
        let writer = scope.spawn(move || {
            for i in 0..50i64 {
                let pair = (i % KEY_SPACE, (i * 7) % KEY_SPACE);
                apply_with_fence_retry(sharded_ref, pair, &c, "chaos stress writer");
            }
        });
        let resyncer = scope.spawn(move || {
            for _ in 0..50 {
                // Mid-failover resyncs may surface retryable errors;
                // they must never panic or wedge the group.
                let _ = sharded_ref.resync(Some(0));
                std::thread::yield_now();
            }
        });
        writer.join().expect("writer must not panic");
        resyncer.join().expect("resyncer must not panic");
    });
    sharded.chaos_off();
    sharded.recover(None);
    sharded.resync(None).unwrap();
    assert_eq!(sharded.scan_r1().unwrap().len(), R1_ROWS as usize);
    assert_groups_consistent(&sharded, "post resync/write race");
}
