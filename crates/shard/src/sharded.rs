//! The partitioned engine: `S` shards — each a **replica group** of `R`
//! independent [`Engine`]s behind per-replica readers-writer locks — a
//! [`Router`] that places every `R1` tuple by key range, and a
//! [`WorkerPool`] that fans procedure accesses out across shards.
//!
//! ## Routing
//!
//! * **Accesses** go only to the shards the procedure's key window
//!   overlaps (every shard for a procedure with no bound on the key),
//!   computed once per procedure when the engine is built. Each asked
//!   shard's *primary* computes its partial answer over its `R1` slice
//!   (shared lock; escalated to exclusive only when the shard's strategy
//!   must write — refill a cache, fold maintenance, rebuild after a
//!   crash) as one encoded batch, and the partial batches merge by
//!   sorting their rows' bytes (a lone partial is its own merge). The
//!   last shard's job runs on the calling thread, so a view that fits
//!   in one shard costs no thread hop and no merge. A shard outside the window holds no row the
//!   selection can pass, so the merged multiset is exactly the serial
//!   engine's answer.
//! * **Updates** route to the shard owning the victim key; the shard's
//!   primary applies the mutation first and stamps the routed
//!   [`DeltaOp`] into the shard's delta log, then synchronously notifies
//!   each live follower, which applies the log from its own LSN up to
//!   the new entry. A follower holds the base relations only
//!   ([`Role::Follower`]): its derived state stays empty and pending
//!   rebuild, so it applies the base delta and no maintenance. A re-key
//!   whose new key falls in another shard's range becomes a
//!   *cross-shard move*: delete-take on the source group, rewrite the
//!   key, insert on the destination group — never holding two shard
//!   groups' mutation locks at once, so shard locks cannot deadlock.
//! * **Inner-relation updates** (`R2`/`R3` are replicated) broadcast to
//!   every shard group.
//!
//! ## Set-up
//!
//! [`ShardedEngine::new_replicated`] builds the shard groups on scoped
//! threads, at most one per available core; each thread builds its
//! shard's primary, then its followers. Each shard has its own pager,
//! so the builds share no lock. Views are built on the `S` primaries
//! only, never on the followers.
//!
//! ## Failover & resync
//!
//! A crashed primary (an injected kill-point latch, or an operator
//! `crash N`) is **promoted away from**: the freshest live follower (by
//! last-applied delta LSN; synchronous fan-out keeps live followers at
//! the head) becomes primary, the scatter-gather paths re-point, and
//! the in-flight operation retries on the new primary — so with
//! `replicas ≥ 2` a primary failure costs latency, not availability.
//! The promoted follower first applies whatever log entries it has not
//! (a withheld notification), so no committed op is lost to the swap,
//! and pays its strategy's §3 recovery on first access: nothing for
//! Always Recompute, cache refills for Cache & Invalidate, a rebuild
//! from base for AVM and RVM.
//! Promotion is triggered synchronously by the failing access/update
//! path, immediately by [`ShardedEngine::crash`], by an operator
//! [`ShardedEngine::promote`], or by the optional background
//! *supervisor* thread that health-checks primaries. The demoted
//! ex-primary is marked suspect: it may have applied half an operation,
//! so its position in the delta stream is ambiguous.
//!
//! Notification, promotion and resync move a replica the same way: one
//! `advance` applies the shard log's entries past the replica's applied
//! LSN under its engine write lock. A replica that turns follower again
//! (a healthy primary demoted by [`ShardedEngine::promote`], or any
//! replica rejoining) sheds its derived state
//! ([`Engine::shed_derived_state`]). A rejoining replica
//! ([`ShardedEngine::resync`], also run by [`ShardedEngine::recover`])
//! first recovers its engine, then advances to the log head; when the
//! log has been truncated past its position — or its stream position is
//! ambiguous — it falls back to the conservative path: a
//! full `R1` snapshot install from the current primary.
//!
//! ## Failure containment
//!
//! Every replica group carries a monotonically increasing **epoch**,
//! bumped exactly once per promotion at the single serialization point
//! (the compare-exchange on the primary pointer). Every shipped delta
//! is stamped `(epoch, LSN)`; followers keep an epoch watermark and
//! refuse stale-epoch ships, and a primary that observes the epoch
//! moving past it mid-commit rejects the write with the typed
//! [`StorageError::Fenced`] error and demotes itself into resync — so a
//! dual-primary window can never commit divergent state. An installed
//! [`ChaosPlan`] perturbs the shipping path (delayed, dropped, repeated
//! and withheld notifications) and the supervisor heartbeat, and can
//! spring the fencing trap on demand.
//!
//! The access path is guarded by a per-shard **circuit breaker**
//! ([`BreakerState`]): consecutive failures trip it open, shedding
//! requests fast with the typed [`StorageError::Busy`] error until a
//! cooldown admits a half-open probe. A request deadline installed via
//! [`procdb_obs::install_deadline`] propagates into every scatter
//! worker; an exhausted budget surfaces as the typed
//! [`StorageError::Deadline`] error instead of queueing behind a slow
//! shard.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use procdb_core::{
    DeltaObserver, DeltaOp, Engine, RecoveryOutcome, RecoveryReport, Role, ShippedDelta,
    StrategyKind,
};
use procdb_obs::{Counter, Gauge, Histogram};
use procdb_query::{RowBatch, Tuple, Value};
use procdb_storage::{CostConstants, CostSnapshot, Result, StorageError};

use crate::chaos::{ChaosInjector, ChaosPlan, ShipFate};
use crate::pool::WorkerPool;
use crate::replica::{
    DeltaLog, Replica, ReplicaRole, ReplicaStatus, ResyncReport, DEFAULT_LOG_CAP,
};
use crate::router::Router;

/// A boxed per-shard access task handed to the [`WorkerPool`]: runs one
/// shard's share of a scatter and returns `(partial batch, priced ms)`.
type AccessJob = Box<dyn FnOnce() -> Result<(RowBatch, f64)> + Send>;

/// Total time an access job may spend retrying one shard through
/// failovers before surfacing the error (the bounded failover window).
const FAILOVER_WINDOW: Duration = Duration::from_secs(2);

/// Consecutive access failures that trip a shard's circuit breaker.
const BREAKER_TRIP_AFTER: u32 = 5;

/// How long an open breaker sheds before admitting a half-open probe.
const BREAKER_COOLDOWN: Duration = Duration::from_millis(250);

/// Circuit-breaker state of one shard's access path (exported as the
/// `procdb_breaker_state{shard=}` gauge: 0 closed, 1 open, 2 half-open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: accesses flow normally.
    Closed,
    /// Tripped: accesses shed fast with the typed `BUSY` error until the
    /// cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe access is admitted; its
    /// outcome closes or re-opens the breaker.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

struct BreakerInner {
    state: BreakerState,
    failures: u32,
    opened_at: Option<Instant>,
    probing: bool,
}

/// Per-shard circuit breaker on the access path: [`BREAKER_TRIP_AFTER`]
/// consecutive failures open it, shedding further accesses fast (the
/// shard is degraded; queueing behind it just converts one slow shard
/// into whole-request latency); after [`BREAKER_COOLDOWN`] a single
/// probe is admitted, and its outcome closes or re-opens the breaker.
struct Breaker {
    inner: Mutex<BreakerInner>,
    state_gauge: Gauge,
    trips: Counter,
    sheds: Counter,
}

impl Breaker {
    fn new(labels: &[(&str, &str)]) -> Breaker {
        let reg = procdb_obs::global();
        let state_gauge = reg.gauge("procdb_breaker_state", labels);
        state_gauge.set(0.0);
        Breaker {
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                failures: 0,
                opened_at: None,
                probing: false,
            }),
            state_gauge,
            trips: reg.counter("procdb_breaker_trips_total", labels),
            sheds: reg.counter("procdb_breaker_sheds_total", labels),
        }
    }

    fn publish(&self, s: BreakerState) {
        self.state_gauge.set(match s {
            BreakerState::Closed => 0.0,
            BreakerState::Open => 1.0,
            BreakerState::HalfOpen => 2.0,
        });
    }

    /// May this access proceed? `false` = shed fast with `BUSY`.
    fn admit(&self) -> bool {
        let mut b = self.inner.lock();
        let admitted = match b.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if b.opened_at.is_some_and(|t| t.elapsed() >= BREAKER_COOLDOWN) {
                    b.state = BreakerState::HalfOpen;
                    b.probing = true;
                    self.publish(BreakerState::HalfOpen);
                    true
                } else {
                    false
                }
            }
            // Half-open: one probe in flight at a time.
            BreakerState::HalfOpen => {
                if b.probing {
                    false
                } else {
                    b.probing = true;
                    true
                }
            }
        };
        if !admitted {
            self.sheds.inc();
        }
        admitted
    }

    fn on_success(&self) {
        let mut b = self.inner.lock();
        b.failures = 0;
        b.probing = false;
        if b.state != BreakerState::Closed {
            b.state = BreakerState::Closed;
            b.opened_at = None;
            self.publish(BreakerState::Closed);
        }
    }

    fn on_failure(&self) {
        let mut b = self.inner.lock();
        b.probing = false;
        b.failures += 1;
        let trip = match b.state {
            BreakerState::HalfOpen => true, // failed probe re-opens
            BreakerState::Closed => b.failures >= BREAKER_TRIP_AFTER,
            BreakerState::Open => false,
        };
        if trip {
            b.state = BreakerState::Open;
            b.opened_at = Some(Instant::now());
            self.trips.inc();
            self.publish(BreakerState::Open);
        }
    }

    fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    fn shed_count(&self) -> u64 {
        self.sheds.get()
    }
}

/// One shard: a replica group behind per-replica readers-writer locks,
/// a mutation mutex that orders the shard's delta stream, the delta
/// log, and the shard-labeled service metrics (each engine's own
/// metric series already carry the `shard` label via
/// `EngineOptions::shard`; replicas of one shard share that label).
struct ShardSlot {
    id: usize,
    replicas: Vec<Arc<Replica>>,
    /// Index into `replicas` of the current primary.
    primary: AtomicUsize,
    /// Replica-group promotion counter, starting at 1. Bumped exactly
    /// once per promotion by the winner of the compare-exchange on
    /// `primary`; the committed delta stream is stamped with it so
    /// fenced ex-primaries are refused everywhere.
    epoch: AtomicU64,
    /// Orders mutations (and their log appends + fan-out) per shard.
    mutation: Mutex<()>,
    log: Mutex<DeltaLog>,
    /// Optional tap on the committed delta stream (the front result
    /// cache): notified synchronously at the commit point, before the
    /// mutation returns, and on every epoch bump.
    observer: RwLock<Option<Arc<dyn DeltaObserver>>>,
    breaker: Breaker,
    accesses: Counter,
    updates: Counter,
    escalations: Counter,
    access_ms: Histogram,
    failovers: Counter,
    replica_applied: Counter,
    replica_drops: Counter,
    resync_replayed: Counter,
    resync_full: Counter,
    fenced: Counter,
}

impl ShardSlot {
    fn new(id: usize, engines: Vec<Engine>) -> ShardSlot {
        let reg = procdb_obs::global();
        let id_str = id.to_string();
        let labels: &[(&str, &str)] = &[("shard", id_str.as_str())];
        ShardSlot {
            id,
            replicas: engines
                .into_iter()
                .enumerate()
                .map(|(r, e)| Arc::new(Replica::new(r, e)))
                .collect(),
            primary: AtomicUsize::new(0),
            epoch: AtomicU64::new(1),
            mutation: Mutex::new(()),
            log: Mutex::new(DeltaLog::new(DEFAULT_LOG_CAP)),
            observer: RwLock::new(None),
            breaker: Breaker::new(labels),
            accesses: reg.counter("procdb_shard_accesses_total", labels),
            updates: reg.counter("procdb_shard_updates_total", labels),
            escalations: reg.counter("procdb_shard_escalations_total", labels),
            access_ms: reg.histogram("procdb_shard_access_ms", labels),
            failovers: reg.counter("procdb_failover_total", labels),
            replica_applied: reg.counter("procdb_replica_applied_total", labels),
            replica_drops: reg.counter("procdb_replica_drops_total", labels),
            resync_replayed: reg.counter("procdb_replica_resync_replayed_total", labels),
            resync_full: reg.counter("procdb_replica_resync_full_total", labels),
            fenced: reg.counter("procdb_fenced_total", labels),
        }
    }

    fn primary_idx(&self) -> usize {
        self.primary.load(Ordering::Relaxed)
    }

    /// Take the mutation lock on the update path: up to 64 rounds of
    /// try + yield, then the mutex's own blocking `lock()`
    /// ([`procdb_obs::yield_then_block`]). The lock is held for one
    /// engine update, about 25 µs on `update_storm_single`, which is
    /// less than a park and wake-up costs. Measured on that workload
    /// (2-core machine): parking at once raised the median update round
    /// trip from 59 to ~110 µs, yielding alone ~75 µs; and on
    /// `pipelined_sharded`, 25 s benchmark pairs, parking with no yield
    /// phase or a yield phase inside every vendored lock raised the
    /// median update round trip by 9–34 %. After the yields the waiter
    /// blocks rather than sleeps, so the release wakes it: sleeping
    /// 50 µs between tries instead put `update_storm_single`'s update
    /// p99 at 306 µs against 198 µs (ten pairs of 25 s runs).
    ///
    /// Untimed on purpose: once a cross-shard move has taken its row
    /// from the source group, the destination half must not time out,
    /// or the row is lost.
    fn lock_mutation(&self) -> parking_lot::MutexGuard<'_, ()> {
        procdb_obs::yield_then_block(|| self.mutation.try_lock(), || self.mutation.lock())
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    fn has_live_follower(&self, of: usize) -> bool {
        self.freshest_follower(of).is_some()
    }

    /// The live replica other than `of` with the highest applied LSN.
    fn freshest_follower(&self, of: usize) -> Option<&Replica> {
        let live = self.replicas.iter().filter(|r| r.idx != of && r.is_alive());
        live.max_by_key(|r| r.applied_lsn()).map(|r| &**r)
    }

    /// Notify the delta-stream tap (if any) of one committed op.
    fn notify_delta(&self, d: &ShippedDelta) {
        if let Some(obs) = self.observer.read().as_ref() {
            obs.on_delta(self.id, d.epoch, d.lsn, &d.op);
        }
    }

    /// Notify the delta-stream tap (if any) of an epoch bump.
    fn notify_epoch(&self, epoch: u64) {
        if let Some(obs) = self.observer.read().as_ref() {
            obs.on_epoch_bump(self.id, epoch);
        }
    }
}

/// Promote the freshest live follower away from `from`, dropping `from`
/// from the group at what the *caller* judged to be an op boundary (an
/// operator crash or a read-path failure never moves the delta stream,
/// so `from`'s applied LSN stays exact and resync may replay; a caller
/// that watched `from` die **mid-apply** marks it suspect itself before
/// failing over). Lock-free against concurrent promotions: the primary
/// pointer swaps by compare-exchange, and a lost race returns whoever
/// won. `None` when no live follower exists.
fn failover(slot: &ShardSlot, from: usize) -> Option<usize> {
    let cur = slot.primary_idx();
    if cur != from {
        return Some(cur); // someone already promoted past `from`
    }
    let best = slot.freshest_follower(from)?;
    if promote_cas(slot, from, best.idx) {
        slot.replicas[from].mark_down();
        Some(best.idx)
    } else {
        Some(slot.primary_idx())
    }
}

/// The single serialization point for promotions: swing the primary
/// pointer `from -> to` by compare-exchange and, only on the winning
/// swap, bump the group epoch (fencing `from`), seed the new primary's
/// epoch watermark and advance it to the log head. Concurrent promoters
/// — a supervisor tick, a failing access path, an operator `promote` —
/// race on the CAS, so one promotion bumps the epoch exactly once no
/// matter how many callers observed the same failure.
///
/// The advance matters: a live follower can trail the head (a chaos
/// hold withheld its notification), and a primary is never notified, so
/// without it that op would never reach the new primary — an acked
/// write lost, or a cross-shard move applied on one side only. A log
/// truncated past the follower cannot be replayed; it then serves what
/// it has, as it did before it was promoted.
fn promote_cas(slot: &ShardSlot, from: usize, to: usize) -> bool {
    if slot
        .primary
        .compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return false;
    }
    let epoch = slot.epoch.fetch_add(1, Ordering::AcqRel) + 1;
    let rep = &slot.replicas[to];
    rep.note_epoch(epoch);
    let head = slot.log.lock().last_lsn();
    advance(slot, rep, head);
    slot.failovers.inc();
    slot.notify_epoch(epoch);
    true
}

/// Stamp `op`, just applied on the primary `prim` (whose engine guard
/// the caller holds), into the shard log under `epoch` and note its LSN
/// as the primary's position.
fn commit(
    slot: &ShardSlot,
    prim: &Replica,
    eng: &mut Engine,
    op: DeltaOp,
    epoch: u64,
) -> Arc<ShippedDelta> {
    let delta = slot.log.lock().append(op, epoch);
    eng.note_applied_lsn(delta.lsn);
    prim.applied.store(delta.lsn, Ordering::Relaxed);
    delta
}

/// How one [`advance`] ended.
enum Advance {
    /// The replica stands at (or past) the target LSN; `applied` log
    /// entries were applied on the way, charging `spent` on its ledger.
    CaughtUp { applied: usize, spent: CostSnapshot },
    /// The log no longer holds the replica's next entry: only a
    /// snapshot install can bring it back.
    Truncated,
    /// The engine crashed mid-apply. Its base effect may have landed
    /// without the LSN being noted, so the replica is marked suspect.
    Died,
}

/// The one way a replica's state moves forward: apply the shard log's
/// entries `applied + 1 ..= to_lsn` in order. The applied LSN is read
/// under the replica's engine write lock, so two advances that race on
/// one replica (a fan-out and a promotion) serialize and the loser
/// finds nothing left to do. A maintenance fault that leaves the engine
/// running keeps the position exact — the base effect is durable and
/// the derived state dirty-marked — so the advance goes on. Lock order:
/// replica engine, then log.
fn advance(slot: &ShardSlot, rep: &Replica, to_lsn: u64) -> Advance {
    let mut eng = rep.engine.write();
    let before = eng.ledger().snapshot();
    let mut applied = 0;
    for lsn in eng.applied_lsn() + 1..=to_lsn {
        let Some(d) = slot.log.lock().entry(lsn) else {
            return Advance::Truncated;
        };
        if eng.apply_delta_op(&d.op).is_err() && eng.is_crashed() {
            rep.mark_suspect();
            return Advance::Died;
        }
        eng.note_applied_lsn(lsn);
        rep.applied.store(lsn, Ordering::Relaxed);
        applied += 1;
    }
    Advance::CaughtUp {
        applied,
        spent: eng.ledger().snapshot().since(&before),
    }
}

/// Notify follower `rep` that the log holds every entry through `lsn`,
/// committed under `epoch`. A notification stamped older than an epoch
/// the follower has already seen came from a fenced ex-primary and is
/// refused (`None`); any other advances the follower, so a repeated or
/// overtaken notification is a no-op.
fn notify(slot: &ShardSlot, rep: &Replica, epoch: u64, lsn: u64) -> Option<Advance> {
    rep.note_epoch(epoch).then(|| advance(slot, rep, lsn))
}

/// Serve one access on one replica: shared path first, escalating to
/// the exclusive lock when the strategy must write. Returns
/// `(batch, priced_ms, escalated)`. With a request deadline installed on
/// the worker thread, the exclusive-lock acquisition is budgeted: a
/// lock that stays contended past the deadline surfaces the typed
/// [`StorageError::Deadline`] error instead of queueing indefinitely.
fn serve_on(
    rep: &Replica,
    shard: usize,
    i: usize,
    c: &CostConstants,
) -> Result<(RowBatch, f64, bool)> {
    {
        let eng = rep.engine.read();
        let before = eng.ledger().snapshot();
        if let Some(rows) = eng.access_shared(i)? {
            let ms = eng.ledger().snapshot().since(&before).priced(c);
            return Ok((rows, ms, false));
        }
    }
    let mut eng = match procdb_obs::current_deadline() {
        None => rep.engine.write(),
        Some(deadline) => procdb_obs::yield_then_block(
            || rep.engine.try_write().map(Some),
            || rep.engine.try_write_until(deadline),
        )
        .ok_or(StorageError::Deadline { shard })?,
    };
    let before = eng.ledger().snapshot();
    let rows = eng.access(i)?;
    let ms = eng.ledger().snapshot().since(&before).priced(c);
    Ok((rows, ms, true))
}

/// Build `shards` replica groups with `build(shard_id)`, several at once:
/// at most [`std::thread::available_parallelism`] scoped threads, each
/// taking the next unbuilt shard until none is left. One shard builds on
/// the calling thread. The lowest failing shard's error wins.
fn build_groups<T: Send, E: Send>(
    shards: usize,
    build: impl Fn(usize) -> std::result::Result<T, E> + Sync,
) -> std::result::Result<Vec<T>, E> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(shards);
    if threads <= 1 {
        return (0..shards).map(build).collect();
    }
    let next = AtomicUsize::new(0);
    let mut built: Vec<(usize, std::result::Result<T, E>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        if id >= shards {
                            break mine;
                        }
                        mine.push((id, build(id)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    built.sort_by_key(|&(id, _)| id);
    built.into_iter().map(|(_, group)| group).collect()
}

/// The background health-checker: promotes away from crashed primaries
/// so failover is bounded even with no traffic on the failed shard.
struct Supervisor {
    shutdown: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

/// A point-in-time summary of one shard, for `stats`/`metrics`
/// reporting and the per-shard bench section.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard id (dense, `0..shards`).
    pub shard: usize,
    /// Procedure accesses this shard served (partials count once each).
    pub accesses: u64,
    /// Update transactions routed to (or broadcast through) this shard.
    pub updates: u64,
    /// Accesses that could not finish under the shared lock and
    /// re-ran under the exclusive one (lock-conflict proxy).
    pub escalations: u64,
    /// Buffer-pool hits on the primary's private pager.
    pub buffer_hits: u64,
    /// Buffer-pool faults (misses) on the primary's private pager.
    pub buffer_faults: u64,
    /// Crashes simulated on the current primary so far.
    pub crash_epoch: u64,
    /// Derived-state rebuilds still deferred to first access (primary).
    pub rebuilds_pending: usize,
    /// What the primary's most recent crash recovery did, if it ran one.
    pub last_recovery: Option<RecoveryReport>,
    /// Validity-WAL sizes `(log bytes, bytes past the checkpoint)` on
    /// the primary (CI only).
    pub wal_bytes: Option<(usize, usize)>,
    /// Fraction of caches currently valid (CI only; primary).
    pub valid_fraction: Option<f64>,
    /// `R1` tuples this shard owns (primary's copy).
    pub r1_rows: u64,
    /// Total wall-clock milliseconds spent in accesses on this shard.
    pub access_ms_sum: f64,
    /// Replica-group size (1 = unreplicated).
    pub replicas: usize,
    /// Replicas currently live (primary included).
    pub live_replicas: usize,
    /// Index of the current primary within the group.
    pub primary_replica: usize,
    /// Head of the shard's delta log (last stamped LSN).
    pub last_lsn: u64,
    /// Worst last-applied-LSN delta among live followers (0 = fresh).
    pub max_replica_lag: u64,
    /// Promotions (automatic failovers + operator `promote`) so far.
    pub failovers: u64,
    /// Replica-group epoch (starts at 1; bumps once per promotion).
    pub epoch: u64,
    /// Writes rejected by epoch fencing on this shard.
    pub fenced: u64,
    /// Access-path circuit-breaker state right now.
    pub breaker: BreakerState,
    /// Accesses shed fast because the breaker was open.
    pub breaker_sheds: u64,
    /// Per-replica role and lag, for the `stats` columns.
    pub replica_status: Vec<ReplicaStatus>,
}

impl ShardStats {
    /// Buffer hit ratio on this shard's pager (0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.buffer_hits + self.buffer_faults;
        if total == 0 {
            0.0
        } else {
            self.buffer_hits as f64 / total as f64
        }
    }

    /// Fraction of accesses that escalated to the exclusive lock.
    pub fn conflict_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.escalations as f64 / self.accesses as f64
        }
    }
}

/// `S` range-partitioned replica groups with pruned scatter-gather
/// procedure access and supervised failover.
///
/// All methods take `&self`: concurrency control is per shard, not
/// global. Two updates to different shards run in parallel; an access
/// shares each asked shard's primary lock with other accesses and only
/// excludes the updates touching the same shard.
pub struct ShardedEngine {
    slots: Vec<Arc<ShardSlot>>,
    router: Router,
    /// Per procedure, the shards its key window overlaps.
    targets: Vec<Range<usize>>,
    pool: WorkerPool,
    r1: String,
    key_field: usize,
    kind: StrategyKind,
    cross_moves: Counter,
    partials: Counter,
    supervisor: Mutex<Option<Supervisor>>,
    /// Active message-chaos injector, shared with the supervisor thread.
    chaos: Arc<Mutex<Option<Arc<ChaosInjector>>>>,
}

impl ShardedEngine {
    /// Build one unreplicated engine per shard of `router` via
    /// `build(shard_id)` — identical to [`ShardedEngine::new_replicated`]
    /// with one replica per shard.
    pub fn new<E: Send>(
        router: Router,
        build: impl Fn(usize) -> std::result::Result<Engine, E> + Sync,
    ) -> std::result::Result<Self, E> {
        Self::new_replicated(router, 1, |s, _role| build(s))
    }

    /// Build one replica group of `replicas` engines per shard of
    /// `router` via `build(shard_id, role)`: replica 0 of each shard is
    /// built as the [`Role::Primary`], the rest as [`Role::Follower`]s
    /// (pass the role to [`Engine::with_role`]). Every replica of a
    /// shard must load the **same** `R1` slice (the rows
    /// [`Router::shard_of`] assigns to that shard; use
    /// [`Router::partition_rows`]) and full copies of the inner
    /// relations; every engine must share the strategy, `R1` name, key
    /// field, and procedure list. The groups build concurrently
    /// (`build_groups`). Generic over the builder's error type so
    /// callers keep their own error domain; the lowest failing shard's
    /// error is returned.
    pub fn new_replicated<E: Send>(
        router: Router,
        replicas: usize,
        build: impl Fn(usize, Role) -> std::result::Result<Engine, E> + Sync,
    ) -> std::result::Result<Self, E> {
        let shards = router.shards();
        assert!(replicas > 0, "a replica group needs at least one engine");
        let roles = || std::iter::once(Role::Primary).chain(vec![Role::Follower; replicas - 1]);
        let groups = build_groups(shards, |id| roles().map(|role| build(id, role)).collect())?;
        let slots: Vec<Arc<ShardSlot>> = (0..)
            .zip(groups)
            .map(|(id, engines)| Arc::new(ShardSlot::new(id, engines)))
            .collect();
        let (r1, key_field, targets, kind) = {
            let eng = slots[0].replicas[0].engine.read();
            let key_field = eng.options().r1_key_field;
            let targets: Vec<Range<usize>> = eng
                .procedures()
                .iter()
                .map(|p| router.targets(&p.view.selection, key_field))
                .collect();
            (eng.options().r1.clone(), key_field, targets, eng.strategy())
        };
        for slot in &slots {
            let primary_rows = slot.replicas[0]
                .engine
                .read()
                .catalog()
                .get(&r1)
                .map(|t| t.len());
            for rep in &slot.replicas {
                let eng = rep.engine.read();
                assert_eq!(eng.options().r1, r1, "replicas must agree on R1");
                assert_eq!(
                    eng.options().r1_key_field,
                    key_field,
                    "replicas must agree on the partition key field"
                );
                assert_eq!(
                    eng.procedures().len(),
                    targets.len(),
                    "replicas must register identical procedures"
                );
                assert_eq!(eng.strategy(), kind, "replicas must share the strategy");
                assert_eq!(
                    eng.catalog().get(&r1).map(|t| t.len()),
                    primary_rows,
                    "replicas of one shard must load the same R1 slice"
                );
            }
        }
        Ok(ShardedEngine {
            pool: WorkerPool::new(shards),
            router,
            targets,
            slots,
            r1,
            key_field,
            kind,
            cross_moves: procdb_obs::global().counter("procdb_shard_cross_moves_total", &[]),
            partials: procdb_obs::global().counter("procdb_shard_partials_total", &[]),
            supervisor: Mutex::new(None),
            chaos: Arc::new(Mutex::new(None)),
        })
    }

    /// Install (replacing any prior plan) seeded message chaos on the
    /// delta-shipping and supervisor-heartbeat paths. Returns the live
    /// injector so callers can render the plan or read its tallies.
    pub fn install_chaos(&self, plan: ChaosPlan) -> Arc<ChaosInjector> {
        let inj = ChaosInjector::new(plan);
        *self.chaos.lock() = Some(Arc::clone(&inj));
        inj
    }

    /// Remove the chaos plan; returns the retired injector (its plan
    /// and final tallies) if one was active.
    pub fn chaos_off(&self) -> Option<Arc<ChaosInjector>> {
        self.chaos.lock().take()
    }

    /// The active chaos injector (its plan and running tallies), if any.
    pub fn chaos(&self) -> Option<Arc<ChaosInjector>> {
        self.chaos.lock().clone()
    }

    /// Current replica-group epoch of one shard.
    pub fn epoch_of(&self, shard: usize) -> u64 {
        self.slots[shard].epoch()
    }

    /// Install (or clear) the tap on every shard's committed delta
    /// stream. The observer is invoked synchronously at each commit
    /// point and on each epoch bump — see [`DeltaObserver`].
    pub fn set_delta_observer(&self, observer: Option<Arc<dyn DeltaObserver>>) {
        for slot in &self.slots {
            *slot.observer.write() = observer.clone();
        }
    }

    /// Writes rejected by epoch fencing, summed over shards.
    pub fn fenced_writes(&self) -> u64 {
        self.slots.iter().map(|s| s.fenced.get()).sum()
    }

    /// Circuit-breaker state of one shard's access path.
    pub fn breaker_state(&self, shard: usize) -> BreakerState {
        self.slots[shard].breaker.state()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// Replica-group size (identical on every shard; 1 = unreplicated).
    pub fn replicas(&self) -> usize {
        self.slots[0].replicas.len()
    }

    /// Number of registered procedures (identical on every shard).
    pub fn n_procs(&self) -> usize {
        self.targets.len()
    }

    /// The strategy every shard runs.
    pub fn strategy(&self) -> StrategyKind {
        self.kind
    }

    /// The placement policy (key ranges of `R1`).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// `R1` re-keys that moved a tuple across the partition boundary.
    pub fn cross_moves(&self) -> u64 {
        self.cross_moves.get()
    }

    /// Promotions performed so far, summed over shards.
    pub fn failovers(&self) -> u64 {
        self.slots.iter().map(|s| s.failovers.get()).sum()
    }

    /// Current primary replica index of one shard.
    pub fn primary_of(&self, shard: usize) -> usize {
        self.slots[shard].primary_idx()
    }

    /// Cap every shard's delta-log retention at `cap` ops (truncating
    /// immediately). A replica further behind than the retained window
    /// resyncs by conservative full rebuild instead of replay.
    pub fn set_delta_log_cap(&self, cap: usize) {
        for slot in &self.slots {
            slot.log.lock().set_cap(cap);
        }
    }

    /// Start the supervisor thread: every `interval`, promote away from
    /// any crashed primary with a live follower. Idempotent.
    pub fn start_supervisor(&self, interval: Duration) {
        let mut sup = self.supervisor.lock();
        if sup.is_some() {
            return;
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let slots = self.slots.clone();
        let chaos = Arc::clone(&self.chaos);
        let handle = std::thread::Builder::new()
            .name("procdb-replica-supervisor".into())
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    for slot in &slots {
                        // A chaos-delayed heartbeat skips this slot's
                        // liveness check for the tick, widening the
                        // failover window the way a slow network would.
                        let delayed = chaos
                            .lock()
                            .as_ref()
                            .is_some_and(|ch| ch.heartbeat_delayed());
                        if delayed {
                            continue;
                        }
                        let pidx = slot.primary_idx();
                        // try_read: a held write lock means busy, not dead.
                        let crashed = slot.replicas[pidx]
                            .engine
                            .try_read()
                            .map(|eng| eng.is_crashed());
                        if crashed == Some(true) && slot.has_live_follower(pidx) {
                            failover(slot, pidx);
                        }
                    }
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn replica supervisor");
        *sup = Some(Supervisor { shutdown, handle });
    }

    /// Stop (and join) the supervisor thread, if running.
    pub fn stop_supervisor(&self) {
        let sup = self.supervisor.lock().take();
        if let Some(s) = sup {
            s.shutdown.store(true, Ordering::Relaxed);
            let _ = s.handle.join();
        }
    }

    /// Run `f` against one shard's **primary** engine under the shared
    /// lock.
    pub fn with_engine<R>(&self, shard: usize, f: impl FnOnce(&Engine) -> R) -> R {
        let slot = &self.slots[shard];
        f(&slot.replicas[slot.primary_idx()].engine.read())
    }

    /// Run `f` against one shard's **primary** engine under the
    /// exclusive lock.
    pub fn with_engine_mut<R>(&self, shard: usize, f: impl FnOnce(&mut Engine) -> R) -> R {
        let slot = &self.slots[shard];
        f(&mut slot.replicas[slot.primary_idx()].engine.write())
    }

    /// Run `f` against one specific replica's engine under the shared
    /// lock (test/verification support).
    pub fn with_replica_engine<R>(
        &self,
        shard: usize,
        replica: usize,
        f: impl FnOnce(&Engine) -> R,
    ) -> R {
        f(&self.slots[shard].replicas[replica].engine.read())
    }

    /// Run `f` against one specific replica's engine under the
    /// exclusive lock (test/verification support).
    pub fn with_replica_engine_mut<R>(
        &self,
        shard: usize,
        replica: usize,
        f: impl FnOnce(&mut Engine) -> R,
    ) -> R {
        f(&mut self.slots[shard].replicas[replica].engine.write())
    }

    /// Access procedure `i`: scatter to the shards its key window
    /// overlaps on the worker pool, merge the partial batches
    /// ([`RowBatch::merge`]: partition disjointness makes concatenation
    /// the right multiset, and sorting the rows by their bytes fixes the
    /// order whichever shard reported first; a lone partial keeps its
    /// engine's order), and return `(batch, priced_ms)` where the cost
    /// sums each asked shard's ledger delta — the work a serial engine
    /// would have done, even though wall-clock overlaps it. A shard
    /// outside the window is not asked, so its locks, its breaker and
    /// its liveness do not matter here.
    ///
    /// Each shard serves from its primary — shared lock first,
    /// escalating to exclusive only when the strategy must write. A
    /// crashed primary is promoted away from and the access **retries
    /// on the new primary** within a bounded failover window, so with
    /// live followers a dying primary costs latency, not an error.
    pub fn access(&self, i: usize, c: &CostConstants) -> Result<(RowBatch, f64)> {
        assert!(i < self.targets.len(), "procedure index out of range");
        let c = *c;
        // The pool's worker threads are long-lived, so the request's
        // trace context and deadline do not follow implicitly — capture
        // them here and re-install them inside each job so every
        // shard's span links under the calling request's tree and the
        // remaining budget keeps counting down.
        let trace_ctx = procdb_obs::global().current_context();
        let deadline = procdb_obs::current_deadline();
        let targets = self.targets[i].clone();
        let jobs: Vec<AccessJob> = self.slots[targets.clone()]
            .iter()
            .zip(targets)
            .map(|(slot, shard_id)| {
                let slot = Arc::clone(slot);
                let job: AccessJob = Box::new(move || {
                    let reg = procdb_obs::global();
                    let _ctx = trace_ctx.map(|ctx| reg.install_context(ctx));
                    let _dl = deadline.map(procdb_obs::install_deadline);
                    let mut sp = procdb_obs::span!(reg, "shard.worker", shard = shard_id);
                    if !slot.breaker.admit() {
                        sp.field("shed", 1.0);
                        return Err(StorageError::Busy { shard: shard_id });
                    }
                    let start = Instant::now();
                    let mut attempts = 0;
                    let res = loop {
                        attempts += 1;
                        if procdb_obs::deadline_expired() {
                            break Err(StorageError::Deadline { shard: shard_id });
                        }
                        let pidx = slot.primary_idx();
                        match serve_on(&slot.replicas[pidx], shard_id, i, &c) {
                            Ok((rows, ms, escalated)) => {
                                if escalated {
                                    slot.escalations.inc();
                                }
                                slot.accesses.inc();
                                slot.access_ms.observe(start.elapsed().as_secs_f64() * 1e3);
                                sp.field("role", pidx as f64);
                                if escalated {
                                    sp.field("escalated", 1.0);
                                }
                                if attempts > 1 {
                                    sp.field("failovers", (attempts - 1) as f64);
                                }
                                break Ok((rows, ms));
                            }
                            Err(e) => {
                                let crashed = slot.replicas[pidx].engine.read().is_crashed();
                                if crashed
                                    && attempts <= slot.replicas.len()
                                    && start.elapsed() < FAILOVER_WINDOW
                                    && failover(&slot, pidx).is_some()
                                {
                                    continue; // retry on the promoted follower
                                }
                                break Err(e);
                            }
                        }
                    };
                    // Feed the breaker: a served access closes it, a
                    // failed one counts toward (or confirms) the trip.
                    match &res {
                        Ok(_) => slot.breaker.on_success(),
                        Err(_) => slot.breaker.on_failure(),
                    }
                    res
                });
                job
            })
            .collect();
        self.partials.add(jobs.len() as u64);
        let mut partials = Vec::with_capacity(jobs.len());
        let mut total_ms = 0.0;
        for out in self.pool.scatter(jobs) {
            let (rows, ms) = out?;
            partials.push(rows);
            total_ms += ms;
        }
        Ok((RowBatch::merge(partials), total_ms))
    }

    /// Notify every live follower of `slot` that the log now holds the
    /// op stamped `(epoch, lsn)` (already applied on the primary), each
    /// notification running the installed chaos plan's gauntlet: a
    /// *dropped* ship kills the link — the follower is marked down at an
    /// exact op boundary (its LSN stays replayable by resync, so an
    /// acked write is never lost to a later promotion: down followers
    /// are not promotion candidates); a *delayed* ship sleeps; a *held*
    /// ship is not notified this time, and a later notification (or a
    /// promotion) advances the follower past it; a *duplicated* ship is
    /// notified twice, and the second advance finds nothing to apply. A
    /// follower's derived state is pending rebuild, so an advance applies
    /// base deltas only: no Rete, AVM or i-lock work runs here, on the
    /// writer's thread. A follower whose apply *crashed* leaves the group
    /// suspect. A follower that fell behind the log's retention window
    /// resyncs from the primary's snapshot on the spot.
    ///
    /// A follower whose epoch watermark has moved past the ship's
    /// epoch means this primary was superseded between its commit point
    /// and the ship (the op is in the shared log, so the promoted
    /// follower has it — but the fencing is counted).
    fn fan_out(&self, slot: &ShardSlot, epoch: u64, lsn: u64, c: &CostConstants) -> f64 {
        let chaos = self.chaos();
        let pidx = slot.primary_idx();
        let mut ms = 0.0;
        for rep in &slot.replicas {
            if rep.idx == pidx || !rep.is_alive() {
                continue;
            }
            let fate = chaos
                .as_deref()
                .map(|ch| ch.decide_ship())
                .unwrap_or(ShipFate::CLEAN);
            if fate.drop {
                // Dead link at an op boundary: the follower leaves the
                // group with an exact LSN and rejoins by replay.
                rep.mark_down();
                slot.replica_drops.inc();
                continue;
            }
            if let Some(d) = fate.delay {
                std::thread::sleep(d);
            }
            if fate.hold {
                continue;
            }
            // A duplicated ship is notified twice; the repeat finds the
            // follower already at `lsn`.
            for resend in 0..=usize::from(fate.duplicate) {
                let Some(outcome) = notify(slot, rep, epoch, lsn) else {
                    break; // stale epoch: refused at the door
                };
                if resend == 0 && rep.last_epoch.load(Ordering::Relaxed) > epoch {
                    slot.fenced.inc();
                }
                match outcome {
                    Advance::CaughtUp { applied, spent } => {
                        slot.replica_applied.add(applied as u64);
                        ms += spent.priced(c);
                    }
                    Advance::Truncated => {
                        // A failed resync leaves the follower down,
                        // visible in stats: conservative by construction.
                        if self.resync_replica(slot, rep).is_err() {
                            rep.mark_down();
                        }
                    }
                    Advance::Died => {
                        slot.replica_drops.inc();
                        break;
                    }
                }
            }
        }
        ms
    }

    /// Apply one routed mutation to a shard's replica group: primary
    /// first (with promote-and-retry if the primary turns out crashed),
    /// then log-stamp and fan out to live followers. Returns
    /// `(modified, priced_ms)`; a maintenance fault on a live primary
    /// still ships the (durable) base effect to followers before the
    /// error surfaces.
    fn replicated_apply(
        &self,
        shard: usize,
        op: DeltaOp,
        c: &CostConstants,
    ) -> Result<(usize, f64)> {
        let slot = &self.slots[shard];
        let _sp = procdb_obs::span!(procdb_obs::global(), "shard.apply", shard = shard);
        let _m = slot.lock_mutation();
        // Chaos fence trap: models a supervisor whose promotion verdict
        // lands mid-commit — the freshest live follower is promoted for
        // real (a genuine epoch bump; the now-stale primary is dropped
        // from the group at an exact op boundary) and this op is
        // rejected with the typed fence *before* it touches any state,
        // so the retry lands cleanly on the new primary.
        if let Some(ch) = self.chaos() {
            if ch.fence_fires() {
                let pidx = slot.primary_idx();
                if slot.has_live_follower(pidx) && failover(slot, pidx).is_some() {
                    ch.note_fenced();
                    slot.fenced.inc();
                    return Err(StorageError::Fenced {
                        shard,
                        epoch: slot.epoch(),
                    });
                }
            }
        }
        let mut total_ms = 0.0;
        let mut attempts = 0;
        let (n, delta, maint_err) = loop {
            attempts += 1;
            let pidx = slot.primary_idx();
            let epoch0 = slot.epoch();
            let prim = &slot.replicas[pidx];
            let mut eng = prim.engine.write();
            let before = eng.ledger().snapshot();
            let res = eng.apply_delta_op(&op);
            total_ms += eng.ledger().snapshot().since(&before).priced(c);
            let res = match res {
                Err(e) if eng.is_crashed() => {
                    drop(eng);
                    // Died mid-apply: its base effect may have landed
                    // without the LSN being noted — ambiguous position,
                    // whoever ends up promoting past it.
                    prim.mark_suspect();
                    if attempts <= slot.replicas.len() && failover(slot, pidx).is_some() {
                        continue; // retry the op on the promoted follower
                    }
                    return Err(e);
                }
                res => res,
            };
            // Commit-point fence: if a concurrent promotion moved the
            // epoch (or the primary pointer) while we were applying, our
            // apply is an unstamped orphan — the group never logged it.
            // Self-demote into the conservative resync path (which
            // discards it) and surface the typed fence instead of acking
            // a write the new primary will never have, or stamping the
            // log under a stale epoch.
            if slot.epoch() != epoch0 || slot.primary_idx() != pidx {
                drop(eng);
                prim.mark_suspect();
                slot.fenced.inc();
                return Err(StorageError::Fenced {
                    shard,
                    epoch: epoch0,
                });
            }
            // A maintenance fault on a live primary leaves the uncharged
            // base effect durable and the dirty marks set, so the delta
            // still ships before the error surfaces.
            let delta = commit(slot, prim, &mut eng, op, epoch0);
            break match res {
                Ok(n) => (n, delta, None),
                Err(e) => (0, delta, Some(e)),
            };
        };
        slot.updates.inc();
        // Commit point: the op is applied and log-stamped. Tap the
        // stream before fan-out so a front cache is invalidated before
        // any client can observe this write's acknowledgement.
        slot.notify_delta(&delta);
        total_ms += self.fan_out(slot, delta.epoch, delta.lsn, c);
        match maint_err {
            Some(e) => Err(e),
            None => Ok((n, total_ms)),
        }
    }

    /// The delete-take half of a cross-shard move, replicated: the
    /// primary takes the rows, the followers see the same keyed delete.
    /// The taken rows are returned **even when maintenance faults** —
    /// the base deletion is durable, so the move must still complete on
    /// the destination or the tuple would be lost.
    fn replicated_delete_take(
        &self,
        shard: usize,
        keys: &[i64],
        c: &CostConstants,
    ) -> (Vec<Tuple>, f64, Result<usize>) {
        let slot = &self.slots[shard];
        let _m = slot.lock_mutation();
        let mut total_ms = 0.0;
        let mut attempts = 0;
        loop {
            attempts += 1;
            let pidx = slot.primary_idx();
            let prim = &slot.replicas[pidx];
            let mut eng = prim.engine.write();
            let before = eng.ledger().snapshot();
            let (taken, res) = eng.apply_delete_take(keys);
            total_ms += eng.ledger().snapshot().since(&before).priced(c);
            let crashed = eng.is_crashed();
            match res {
                Err(e) if crashed => {
                    drop(eng);
                    // The ex-primary's base delete may or may not have
                    // landed — suspect either way.
                    prim.mark_suspect();
                    if attempts <= slot.replicas.len() && failover(slot, pidx).is_some() {
                        // The promoted follower has not seen this op —
                        // retry there.
                        continue;
                    }
                    // No follower to fail over to: the rows (if any) are
                    // gone from this engine; surface them so the caller
                    // can still complete the move.
                    slot.updates.inc();
                    return (taken, total_ms, Err(e));
                }
                res => {
                    // No fence trap here: the delete-take is half of a
                    // cross-shard move, and rejecting it after the take
                    // (or fencing the other half) could strand the row.
                    let op = DeltaOp::Delete(keys.to_vec());
                    let delta = commit(slot, prim, &mut eng, op, slot.epoch());
                    drop(eng);
                    slot.updates.inc();
                    slot.notify_delta(&delta);
                    total_ms += self.fan_out(slot, delta.epoch, delta.lsn, c);
                    return (taken, total_ms, res);
                }
            }
        }
    }

    /// Apply one `R1` update transaction, routing each `(victim,
    /// new_key)` re-key to the shard owning the victim. Pairs apply in
    /// order, so a later pair observes an earlier pair's effect exactly
    /// as in a single engine. Returns `(tuples_modified, priced_ms)`.
    pub fn apply_update(
        &self,
        modifications: &[(i64, i64)],
        c: &CostConstants,
    ) -> Result<(usize, f64)> {
        let mut modified = 0;
        let mut total_ms = 0.0;
        for &(victim, new_key) in modifications {
            let src = self.router.shard_of(victim);
            let dst = self.router.shard_of(new_key);
            if src == dst {
                let (n, ms) =
                    self.replicated_apply(src, DeltaOp::Rekey(vec![(victim, new_key)]), c)?;
                modified += n;
                total_ms += ms;
            } else {
                // Cross-shard move. One group's mutation lock at a time:
                // delete-take on the source, then insert on the
                // destination. The destination insert happens even when
                // the source's maintenance faulted — the base delete is
                // durable, so skipping the insert would lose the row.
                let (taken, ms, take_res) = self.replicated_delete_take(src, &[victim], c);
                total_ms += ms;
                let mut maint_err = take_res.err();
                if let Some(mut row) = taken.into_iter().next() {
                    row[self.key_field] = Value::Int(new_key);
                    // The source delete is durable, so the destination
                    // insert must land or the row is lost. A fence
                    // rejects the insert *before* it touches state, so
                    // retrying against the freshly promoted primary is
                    // always safe; each fence drops a replica from the
                    // destination group, so the retries are bounded.
                    let mut res = self.replicated_apply(dst, DeltaOp::Insert(vec![row.clone()]), c);
                    while matches!(res, Err(StorageError::Fenced { .. })) {
                        res = self.replicated_apply(dst, DeltaOp::Insert(vec![row.clone()]), c);
                    }
                    match res {
                        Ok((_, ms)) => total_ms += ms,
                        Err(e) => maint_err = Some(maint_err.unwrap_or(e)),
                    }
                    self.cross_moves.inc();
                    modified += 1;
                }
                if let Some(e) = maint_err {
                    return Err(e);
                }
            }
        }
        Ok((modified, total_ms))
    }

    /// Insert new `R1` tuples, each on the shard owning its key.
    pub fn apply_insert(&self, rows: &[Tuple], c: &CostConstants) -> Result<(usize, f64)> {
        let parts = self.router.partition_rows(rows.to_vec(), self.key_field);
        let mut inserted = 0;
        let mut total_ms = 0.0;
        for (s, part) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let (n, ms) = self.replicated_apply(s, DeltaOp::Insert(part), c)?;
            inserted += n;
            total_ms += ms;
        }
        Ok((inserted, total_ms))
    }

    /// Delete (up to) one `R1` tuple per listed key, each on its owning
    /// shard. Duplicates of a key all live on one shard in insertion
    /// order, so the tuple removed matches the single-engine choice.
    pub fn apply_delete(&self, keys: &[i64], c: &CostConstants) -> Result<(usize, f64)> {
        let mut per_shard: Vec<Vec<i64>> = vec![Vec::new(); self.slots.len()];
        for &k in keys {
            per_shard[self.router.shard_of(k)].push(k);
        }
        let mut deleted = 0;
        let mut total_ms = 0.0;
        for (s, part) in per_shard.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let (n, ms) = self.replicated_apply(s, DeltaOp::Delete(part), c)?;
            deleted += n;
            total_ms += ms;
        }
        Ok((deleted, total_ms))
    }

    /// Update any relation by name. `R1` routes through
    /// [`ShardedEngine::apply_update`]; an inner relation is replicated,
    /// so the transaction broadcasts to every shard group and the
    /// modified count (identical on each copy) is reported once.
    pub fn apply_update_to(
        &self,
        relation: &str,
        modifications: &[(i64, i64)],
        c: &CostConstants,
    ) -> Result<(usize, f64)> {
        if relation == self.r1 {
            return self.apply_update(modifications, c);
        }
        let mut modified = 0;
        let mut total_ms = 0.0;
        for s in 0..self.slots.len() {
            let op = DeltaOp::RekeyIn {
                relation: relation.to_string(),
                mods: modifications.to_vec(),
            };
            let (n, ms) = self.replicated_apply(s, op, c)?;
            total_ms += ms;
            if s == 0 {
                modified = n;
            }
        }
        Ok((modified, total_ms))
    }

    /// The shards a command names: one, or every shard with `None`.
    fn covered(&self, shard: Option<usize>) -> Range<usize> {
        shard.map_or(0..self.slots.len(), |s| s..s + 1)
    }

    /// Crash one shard's **primary** (or every shard's, with `None`).
    /// When the group has a live follower, the freshest one is promoted
    /// immediately — the supervised-failover path for an operator-
    /// injected crash — and the service keeps answering; the crashed
    /// ex-primary rejoins on [`ShardedEngine::recover`].
    pub fn crash(&self, shard: Option<usize>) {
        for slot in &self.slots[self.covered(shard)] {
            // Serialize with in-flight commits: a promotion between a
            // commit's log stamp and its fan-out would leave the new
            // primary refusing (as stale) a ship the log already holds.
            let _m = slot.mutation.lock();
            let pidx = slot.primary_idx();
            slot.replicas[pidx].engine.write().crash();
            if slot.has_live_follower(pidx) {
                failover(slot, pidx);
            }
        }
    }

    /// Operator promotion: make the freshest live follower of `shard`
    /// the primary (a forced failover drill). The demoted ex-primary
    /// stays a live follower when healthy; a crashed one is marked
    /// suspect for resync. Errors when no live follower exists.
    ///
    /// Serialized with the supervisor and with inline failover on the
    /// group epoch: all promoters go through the same compare-exchange,
    /// so a `promote` racing a supervisor tick over the same dead
    /// primary yields exactly one promotion and one epoch bump — the
    /// loser observes the winner's result and reports it.
    pub fn promote(&self, shard: usize) -> std::result::Result<usize, String> {
        assert!(shard < self.slots.len(), "shard index out of range");
        let slot = &self.slots[shard];
        let _m = slot.mutation.lock();
        let pidx = slot.primary_idx();
        let Some(best) = slot.freshest_follower(pidx) else {
            return Err(format!("shard {shard} has no live follower to promote"));
        };
        let old = &slot.replicas[pidx];
        let old_crashed = old.engine.read().is_crashed();
        if promote_cas(slot, pidx, best.idx) {
            if old_crashed {
                // An operator crash is an op-boundary crash: position exact,
                // so the drop stays replayable (a mid-apply death was already
                // marked suspect by the mutation path that observed it).
                old.mark_down();
            } else if old.engine.write().shed_derived_state().is_err() {
                // A healthy ex-primary stays on as a follower; one that
                // cannot shed its views rejoins through resync instead.
                old.mark_down();
            }
            Ok(best.idx)
        } else {
            // A concurrent failover won the swap first — its epoch bump
            // is the only one; report whoever it promoted.
            Ok(slot.primary_idx())
        }
    }

    /// Recover one shard's replica group (or every group, with `None`):
    /// recover each crashed engine, then resync every non-primary
    /// replica (replay or conservative rebuild) and revive it. Returns
    /// one outcome per covered shard — the primary's when it actually
    /// recovered, else the first replica that did, else `NotCrashed`.
    pub fn recover(&self, shard: Option<usize>) -> Vec<(usize, RecoveryOutcome)> {
        self.covered(shard)
            .map(|s| (s, self.recover_group(s)))
            .collect()
    }

    fn recover_group(&self, s: usize) -> RecoveryOutcome {
        let slot = &self.slots[s];
        let _m = slot.mutation.lock(); // freeze the delta stream during resync
        let pidx = slot.primary_idx();
        let prim = &slot.replicas[pidx];
        let mut outcome = prim.engine.write().recover();
        // A recovered primary is authoritative for its shard again — it
        // may have been dropped or marked suspect when every follower
        // was also dead and no promotion was possible.
        let prim_was_suspect = prim.needs_full_resync.load(Ordering::Relaxed);
        prim.applied
            .store(prim.engine.read().applied_lsn(), Ordering::Relaxed);
        prim.needs_full_resync.store(false, Ordering::Relaxed);
        prim.note_epoch(slot.epoch());
        prim.alive.store(true, Ordering::Relaxed);
        for rep in &slot.replicas {
            if rep.idx == pidx {
                continue;
            }
            let o = rep.engine.write().recover();
            if o.is_recovered() && !outcome.is_recovered() {
                outcome = o;
            }
            if prim_was_suspect {
                // A suspect primary died mid-apply: its durable base may
                // hold an op the log never stamped, so replay cannot
                // reconstruct it — every follower must snapshot instead.
                rep.needs_full_resync.store(true, Ordering::Relaxed);
            }
            // A replica whose resync fails stays down (visible in stats);
            // conservative by construction.
            let _ = self.resync_replica(slot, rep);
        }
        outcome
    }

    /// Resync every non-primary replica of `shard` (or of every shard,
    /// with `None`) that is down or lagging: recover its engine if
    /// crashed, then replay the delta-log tail past its last applied
    /// LSN — or conservatively reinstall the primary's `R1` snapshot
    /// (full derived-state invalidation) when the log has been
    /// truncated past its position or its stream position is ambiguous.
    /// Returns one report per replica resynced.
    pub fn resync(&self, shard: Option<usize>) -> Result<Vec<ResyncReport>> {
        let mut reports = Vec::new();
        for slot in &self.slots[self.covered(shard)] {
            let _m = slot.mutation.lock();
            let pidx = slot.primary_idx();
            let target = slot.log.lock().last_lsn();
            for rep in &slot.replicas {
                if rep.idx == pidx {
                    continue;
                }
                let needs = !rep.is_alive() || rep.applied_lsn() < target;
                if !needs {
                    continue;
                }
                {
                    let mut eng = rep.engine.write();
                    let _ = eng.recover();
                }
                reports.push(self.resync_replica(slot, rep)?);
            }
        }
        Ok(reports)
    }

    /// Catch one replica up to the shard's log head as a follower: it
    /// sheds its derived state first, so the replay applies base deltas
    /// only. Caller holds the shard's mutation lock and has already
    /// recovered the engine.
    fn resync_replica(&self, slot: &ShardSlot, rep: &Replica) -> Result<ResyncReport> {
        rep.engine.write().shed_derived_state()?;
        let target = slot.log.lock().last_lsn();
        let replayed = if rep.needs_full_resync.load(Ordering::Relaxed) {
            None
        } else {
            match advance(slot, rep, target) {
                Advance::CaughtUp { applied, .. } => Some(applied),
                Advance::Truncated => None,
                Advance::Died => {
                    let _ = rep.engine.write().recover();
                    None
                }
            }
        };
        match replayed {
            Some(n) => slot.resync_replayed.add(n as u64),
            None => {
                let snapshot = self.scan_r1_of(&slot.replicas[slot.primary_idx()].engine.read())?;
                let mut eng = rep.engine.write();
                eng.install_r1_snapshot(&snapshot.into_rows())?;
                eng.note_applied_lsn(target);
                slot.resync_full.inc();
            }
        }
        rep.applied
            .store(rep.engine.read().applied_lsn(), Ordering::Relaxed);
        rep.needs_full_resync.store(false, Ordering::Relaxed);
        // A fenced replica rejoining the group adopts the current epoch.
        rep.note_epoch(slot.epoch());
        rep.alive.store(true, Ordering::Relaxed);
        Ok(ResyncReport {
            shard: slot.id,
            replica: rep.idx,
            replayed: replayed.unwrap_or(0),
            full_rebuild: replayed.is_none(),
        })
    }

    /// Warm every primary's caches (uncharged), so first measured
    /// accesses are steady-state — the sharded analogue of
    /// [`Engine::warm_up`]. Followers keep no caches to warm.
    pub fn warm_up(&self) -> Result<()> {
        for slot in &self.slots {
            slot.replicas[slot.primary_idx()].engine.write().warm_up()?;
        }
        Ok(())
    }

    /// Reference answer for procedure `i`: every shard primary's
    /// uncharged fresh recompute, merged. Test/verification support.
    pub fn expected_rows(&self, i: usize) -> Result<RowBatch> {
        let mut partials = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            partials.push(
                slot.replicas[slot.primary_idx()]
                    .engine
                    .read()
                    .expected_rows(i)?,
            );
        }
        Ok(RowBatch::merge(partials))
    }

    /// One engine's `R1` rows in key order, read with page charging
    /// suspended: snapshots are setup work, not priced query cost.
    fn scan_r1_of(&self, eng: &Engine) -> Result<RowBatch> {
        let r1 = self.r1_table(eng);
        let _uncharged = eng.pager().uncharged();
        let rows = r1.scan_encoded()?;
        Ok(RowBatch::new(Arc::new(r1.schema().clone()), rows))
    }

    fn r1_table<'e>(&self, eng: &'e Engine) -> &'e procdb_query::Table {
        eng.catalog().get(&self.r1).expect("R1 exists on shards")
    }

    /// All `R1` tuples across shard primaries, uncharged, merged like
    /// an access's partials: byte order over several shards, the
    /// engine's own key order over one. The session reads the base table
    /// back through this when it takes the rows over from a live engine.
    pub fn scan_r1(&self) -> Result<RowBatch> {
        let mut partials = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let eng = slot.replicas[slot.primary_idx()].engine.read();
            partials.push(self.scan_r1_of(&eng)?);
        }
        Ok(RowBatch::merge(partials))
    }

    /// Point-in-time per-shard summaries (allocation-light on the hot
    /// path: counters are relaxed atomics, the primary engine is
    /// read-locked only to read sizes).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.slots
            .iter()
            .map(|slot| {
                let pidx = slot.primary_idx();
                let last_lsn = slot.log.lock().last_lsn();
                let replica_status: Vec<ReplicaStatus> = slot
                    .replicas
                    .iter()
                    .map(|r| {
                        let role = if r.idx == pidx {
                            ReplicaRole::Primary
                        } else if r.is_alive() {
                            ReplicaRole::Follower
                        } else {
                            ReplicaRole::Down
                        };
                        let applied = r.applied_lsn();
                        ReplicaStatus {
                            replica: r.idx,
                            role,
                            applied_lsn: applied,
                            lag: last_lsn.saturating_sub(applied),
                        }
                    })
                    .collect();
                let max_replica_lag = replica_status
                    .iter()
                    .filter(|st| st.role == ReplicaRole::Follower)
                    .map(|st| st.lag)
                    .max()
                    .unwrap_or(0);
                let live_replicas = slot.replicas.iter().filter(|r| r.is_alive()).count();
                let eng = slot.replicas[pidx].engine.read();
                let (hits, faults) = eng.pager().buffer_stats();
                ShardStats {
                    shard: slot.id,
                    accesses: slot.accesses.get(),
                    updates: slot.updates.get(),
                    escalations: slot.escalations.get(),
                    buffer_hits: hits,
                    buffer_faults: faults,
                    crash_epoch: eng.crash_epoch(),
                    rebuilds_pending: eng.rebuilds_pending(),
                    last_recovery: eng.last_recovery(),
                    wal_bytes: eng.wal_stats(),
                    valid_fraction: eng.valid_fraction(),
                    r1_rows: self.r1_table(&eng).len(),
                    access_ms_sum: slot.access_ms.sum(),
                    replicas: slot.replicas.len(),
                    live_replicas,
                    primary_replica: pidx,
                    last_lsn,
                    max_replica_lag,
                    failovers: slot.failovers.get(),
                    epoch: slot.epoch(),
                    fenced: slot.fenced.get(),
                    breaker: slot.breaker.state(),
                    breaker_sheds: slot.breaker.shed_count(),
                    replica_status,
                }
            })
            .collect()
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        self.stop_supervisor();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procdb_avm::ViewDef;
    use procdb_core::{EngineOptions, ProcedureDef};
    use procdb_query::{Catalog, FieldType, Organization, Predicate, Schema, Table};
    use procdb_storage::{AccountingMode, Pager, PagerConfig};

    /// An engine in `role` over `R1(k)` loaded with keys `0..rows`, one
    /// procedure per `(lo, hi)` key window. Physical accounting, so a base
    /// write is flushed before the update returns and survives a crash.
    fn engine(kind: StrategyKind, rows: i64, windows: &[(i64, i64)], role: Role) -> Result<Engine> {
        let mode = AccountingMode::Physical;
        let pager = Pager::new(PagerConfig {
            mode,
            ..PagerConfig::default()
        });
        let schema = Schema::new(vec![("k", FieldType::Int)]);
        let org = Organization::BTree { key_field: 0 };
        let mut r1 = Table::create(pager.clone(), "R1", schema, org, 0)?;
        for k in 0..rows {
            r1.insert(&vec![Value::Int(k)])?;
        }
        let mut cat = Catalog::new();
        cat.add(r1);
        let procs = (0..).zip(windows).map(|(i, &(lo, hi))| {
            let selection = Predicate::int_range(0, lo, hi);
            let view = ViewDef {
                base: "R1".into(),
                selection,
                joins: vec![],
            };
            ProcedureDef::new(i, format!("p{i}"), view)
        });
        Engine::with_role(
            pager,
            cat,
            procs.collect(),
            kind,
            EngineOptions::default(),
            role,
        )
    }

    /// The tests below all drive shard 0, whose counters are the
    /// process-global `shard="0"` series, and one of them counts its own
    /// escalation: they take turns.
    static SHARD_0: Mutex<()> = Mutex::new(());

    /// One shard, one replica, cache-and-invalidate over `R1(k)` with one
    /// selection: its cache starts invalid, so the first access must
    /// escalate to the engine write lock to fill it.
    fn invalid_ci_engine() -> ShardedEngine {
        let router = Router::split(1, 0..8, &[]);
        ShardedEngine::new(router, |_| {
            engine(StrategyKind::CacheInvalidate, 8, &[(2, 5)], Role::Primary)
        })
        .unwrap()
    }

    /// A chaos hold withholds a notification; a promotion must still
    /// bring the new primary to the log head. Every ship is held here,
    /// so the promoted follower has applied nothing when the primary
    /// crashes. Then a duplicated notification applies nothing twice,
    /// and a stale-epoch one applies nothing at all.
    #[test]
    fn promotion_advances_past_withheld_notifications() {
        let _turn = SHARD_0.lock();
        const WINDOWS: [(i64, i64); 3] = [(0, 9), (8, 30), (20, 60)];
        let c = CostConstants::default();
        for kind in StrategyKind::ALL {
            let build = |role| engine(kind, 32, &WINDOWS, role);
            let router = Router::split(1, 0..32, &[]);
            let sharded = ShardedEngine::new_replicated(router, 3, |_, role| build(role)).unwrap();
            let mut oracle = build(Role::Primary).unwrap();
            let slot = &sharded.slots[0];
            let mut run = |plan: ChaosPlan, pairs: &[(i64, i64)]| {
                sharded.install_chaos(plan);
                for &pair in pairs {
                    oracle.apply_update(&[pair]).unwrap();
                    sharded.apply_update(&[pair], &c).unwrap();
                }
                for i in 0..WINDOWS.len() {
                    let want = oracle.access(i).unwrap().normalized();
                    assert_eq!(
                        sharded.access(i, &c).unwrap().0.normalized(),
                        want,
                        "{kind}"
                    );
                }
            };
            let lsns = || {
                slot.replicas
                    .iter()
                    .map(|r| r.applied_lsn())
                    .collect::<Vec<_>>()
            };

            let held = [(1, 40), (9, 3), (12, 50), (40, 2), (25, 7)];
            run(ChaosPlan::new(1).reorders(1.0), &held);
            assert_eq!(lsns(), [5, 0, 0], "{kind}: every notification withheld");
            sharded.crash(Some(0)); // the access below reads the promoted follower
            let p = sharded.primary_of(0);
            assert!(p != 0 && lsns()[p] == 5, "{kind}: promoted at {:?}", lsns());
            run(ChaosPlan::new(1), &[]);

            sharded.recover(Some(0));
            assert_eq!(lsns(), [5, 5, 5], "{kind}: healed");
            let applied = slot.replica_applied.get();
            let duplicated = [(3, 70), (70, 4), (30, 31)];
            run(ChaosPlan::new(1).duplicates(1.0), &duplicated);
            let followers = slot.replicas.len() as u64 - 1;
            let once = duplicated.len() as u64 * followers;
            assert_eq!(slot.replica_applied.get() - applied, once, "{kind}");

            // One more withheld op leaves both followers one entry behind.
            run(ChaosPlan::new(1).reorders(1.0), &[(31, 5)]);
            let f = &slot.replicas[if p == 1 { 2 } else { 1 }];
            let epoch = slot.epoch();
            assert!(
                notify(slot, f, epoch - 1, 9).is_none(),
                "{kind}: stale epoch"
            );
            assert_eq!(f.applied_lsn(), 8, "{kind}: a stale epoch applied");
            let caught_up = notify(slot, f, epoch, 9);
            assert!(matches!(
                caught_up,
                Some(Advance::CaughtUp { applied: 1, .. })
            ));
            let r1 = |rep: &Replica| sharded.scan_r1_of(&rep.engine.read()).unwrap();
            assert_eq!(r1(f).normalized(), r1(&slot.replicas[p]).normalized());

            // Withheld past the log's retention: the next notification
            // finds the follower's entry gone and installs the snapshot.
            sharded.set_delta_log_cap(2);
            run(
                ChaosPlan::new(1).reorders(1.0),
                &[(5, 80), (80, 6), (6, 81)],
            );
            let full = slot.resync_full.get();
            run(ChaosPlan::new(1), &[(81, 9)]);
            assert_eq!(slot.resync_full.get() - full, 2, "{kind}: both followers");
            assert_eq!(lsns(), [13, 13, 13], "{kind}: live at the head");
        }
    }

    #[test]
    fn escalation_behind_a_held_engine_lock_honors_the_deadline() {
        let _turn = SHARD_0.lock();
        let sharded = invalid_ci_engine();
        let c = CostConstants::default();
        let engine = &sharded.slots[0].replicas[0].engine;
        // A held read guard lets the shared path in and blocks the
        // escalation to the write lock.
        let held = engine.read();
        let deadline = Instant::now() + Duration::from_millis(20);
        {
            let _dl = procdb_obs::install_deadline(deadline);
            match sharded.access(0, &c) {
                Err(StorageError::Deadline { shard: 0 }) => {}
                other => panic!("expected a shard-0 deadline, got {other:?}"),
            }
        }
        assert!(Instant::now() >= deadline, "gave up before the deadline");
        let escalations = sharded.slots[0].escalations.get();
        // The same escalation with a long budget waits for the release.
        std::thread::scope(|s| {
            let access = s.spawn(|| {
                let _dl = procdb_obs::install_deadline(Instant::now() + Duration::from_secs(10));
                sharded.access(0, &c)
            });
            drop(held);
            let (rows, _ms) = access.join().unwrap().expect("served after the release");
            assert_eq!(rows.len(), 4);
        });
        assert_eq!(sharded.slots[0].escalations.get(), escalations + 1);
    }
}
