//! Replica groups: the per-shard building blocks of replication.
//!
//! Each shard of a replicated [`ShardedEngine`] is a group of `R`
//! engines — one **primary** plus followers — kept in lockstep by one
//! stream of [`DeltaOp`]s (see [`procdb_core::replication`]). The
//! group's [`DeltaLog`] stamps every committed op with a log-sequence
//! number, and a follower only ever moves by applying the log's entries
//! from its own applied LSN upwards: a ship is a notification of the new
//! head, a promotion and a resync advance the same way. When the log
//! has been truncated past a replica's position, or its last apply was
//! ambiguous, it takes the conservative full resync from the current
//! primary's slice instead.
//!
//! [`ShardedEngine`]: crate::ShardedEngine
//! [`DeltaOp`]: procdb_core::DeltaOp

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use procdb_core::{DeltaOp, Engine, ShippedDelta};

/// One member of a shard's replica group.
///
/// `alive`/`applied`/`needs_full_resync` mirror engine state as relaxed
/// atomics so promotion decisions and lag reporting never need the
/// engine lock (the engine's own [`Engine::applied_lsn`] stays the
/// authoritative value for resync).
pub(crate) struct Replica {
    /// Stable index of this replica within its group (0 = the initial
    /// primary).
    pub idx: usize,
    pub engine: RwLock<Engine>,
    /// Serving? Cleared when a replica is dropped from the group after a
    /// failed apply or a primary failover; set again by resync.
    pub alive: AtomicBool,
    /// Last delta LSN applied (mirror of the engine's counter).
    pub applied: AtomicU64,
    /// The replica's position in the delta stream is ambiguous (it died
    /// mid-apply): log replay could double-apply, so resync must take
    /// the conservative snapshot path.
    pub needs_full_resync: AtomicBool,
    /// Highest group epoch this replica has seen on a notification. A
    /// ship stamped with an older epoch came from a fenced primary and
    /// is refused at the door.
    pub last_epoch: AtomicU64,
}

impl Replica {
    pub fn new(idx: usize, engine: Engine) -> Replica {
        Replica {
            idx,
            engine: RwLock::new(engine),
            alive: AtomicBool::new(true),
            applied: AtomicU64::new(0),
            needs_full_resync: AtomicBool::new(false),
            last_epoch: AtomicU64::new(0),
        }
    }

    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }

    pub fn applied_lsn(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// Drop this replica from the group at a clean op boundary: its
    /// last applied LSN is exact, so a later resync may catch up by
    /// delta-log replay.
    pub fn mark_down(&self) {
        self.alive.store(false, Ordering::Relaxed);
    }

    /// Mark this replica dead with an **ambiguous** stream position (it
    /// died mid-apply, so the base effect of its in-flight op may have
    /// landed without the LSN being noted): replay could double-apply,
    /// forcing resync down the conservative snapshot path.
    pub fn mark_suspect(&self) {
        self.alive.store(false, Ordering::Relaxed);
        self.needs_full_resync.store(true, Ordering::Relaxed);
    }

    /// Record a notification's epoch stamp. Returns `false` when the stamp
    /// is *older* than an epoch this replica has already seen — the
    /// ship came from a fenced ex-primary and must be refused.
    pub fn note_epoch(&self, epoch: u64) -> bool {
        note_epoch_watermark(&self.last_epoch, epoch)
    }
}

/// Advance an epoch watermark; `false` means `epoch` is stale (older
/// than one already observed) and the notification carrying it must be
/// refused.
pub(crate) fn note_epoch_watermark(last: &AtomicU64, epoch: u64) -> bool {
    let prev = last.fetch_max(epoch, Ordering::Relaxed);
    epoch >= prev
}

/// A bounded in-memory delta log: `(epoch, lsn, op)` entries, LSNs
/// dense from 1, each behind an `Arc` so a follower's apply borrows the
/// op the primary committed instead of copying it.
///
/// The cap models log truncation: once more than `cap` ops are retained
/// the oldest are discarded, and a replica whose next LSN falls before
/// the retained window can no longer catch up by replay —
/// [`DeltaLog::entry`] answers `None` and the caller falls back to a
/// full resync.
pub(crate) struct DeltaLog {
    entries: VecDeque<Arc<ShippedDelta>>,
    next_lsn: u64,
    cap: usize,
}

/// Default retained-ops cap: large enough that a promptly-resynced
/// replica always replays, small enough that tests can outrun it.
pub(crate) const DEFAULT_LOG_CAP: usize = 256;

impl DeltaLog {
    pub fn new(cap: usize) -> DeltaLog {
        DeltaLog {
            entries: VecDeque::new(),
            next_lsn: 1,
            cap: cap.max(1),
        }
    }

    /// Stamp and retain one op under the committing primary's epoch;
    /// returns the stamped entry.
    pub fn append(&mut self, op: DeltaOp, epoch: u64) -> Arc<ShippedDelta> {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let entry = Arc::new(ShippedDelta::new(epoch, lsn, op));
        self.entries.push_back(Arc::clone(&entry));
        self.truncate();
        entry
    }

    /// Highest LSN stamped so far (0 = empty log).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Change the retention cap (truncating immediately if lower).
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap.max(1);
        self.truncate();
    }

    fn truncate(&mut self) {
        while self.entries.len() > self.cap {
            self.entries.pop_front();
        }
    }

    /// The entry stamped `lsn` — or `None` when it is not retained:
    /// truncated away (replay cannot reconstruct the stream; full
    /// resync required), or not stamped yet.
    pub fn entry(&self, lsn: u64) -> Option<Arc<ShippedDelta>> {
        let first = self.next_lsn - self.entries.len() as u64;
        let i = lsn.checked_sub(first)?;
        self.entries.get(usize::try_from(i).ok()?).cloned()
    }
}

/// A replica's role within its group, as reported by `stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Currently serving reads and taking writes first.
    Primary,
    /// Live, applying the primary's delta stream.
    Follower,
    /// Dropped from the group; needs resync to rejoin.
    Down,
}

impl std::fmt::Display for ReplicaRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReplicaRole::Primary => "primary",
            ReplicaRole::Follower => "follower",
            ReplicaRole::Down => "down",
        })
    }
}

/// Point-in-time status of one replica (for `stats` role/lag columns).
#[derive(Debug, Clone, Copy)]
pub struct ReplicaStatus {
    /// Replica index within its shard's group.
    pub replica: usize,
    /// Role right now.
    pub role: ReplicaRole,
    /// Last delta LSN this replica applied.
    pub applied_lsn: u64,
    /// How many deltas behind the shard's log head (0 = fresh).
    pub lag: u64,
}

/// What one replica's resync did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResyncReport {
    /// Shard the replica belongs to.
    pub shard: usize,
    /// Replica index within the group.
    pub replica: usize,
    /// Ops replayed from the delta log (anti-entropy catch-up).
    pub replayed: usize,
    /// Fell back to the conservative snapshot install (log truncated,
    /// or the replica's stream position was ambiguous).
    pub full_rebuild: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_stamps_dense_lsns_and_replays_tails() {
        let mut log = DeltaLog::new(8);
        assert_eq!(log.last_lsn(), 0);
        for i in 0..5 {
            assert_eq!(log.append(DeltaOp::Delete(vec![i]), 1).lsn, (i + 1) as u64);
        }
        // A replica at LSN 2 replays entries 3..=5, in order.
        let tail: Vec<_> = (3..=5)
            .map(|lsn| log.entry(lsn).expect("retained"))
            .collect();
        assert_eq!(
            tail.iter().map(|d| d.lsn).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert!(tail.iter().all(|d| d.epoch == 1), "epoch stamps retained");
        assert_eq!(tail[0].op, DeltaOp::Delete(vec![2]));
        // Nothing past the head: a caught-up replica has nothing to read.
        assert!(log.entry(6).is_none());
        assert!(log.entry(9).is_none());
        assert!(log.entry(0).is_none(), "LSNs start at 1");
    }

    #[test]
    fn truncation_surfaces_as_a_gap() {
        let mut log = DeltaLog::new(3);
        for i in 0..10i64 {
            log.append(DeltaOp::Delete(vec![i]), 1);
        }
        // Retained: LSNs 8..=10. A replica at LSN 7 can still replay...
        assert!((8..=10).all(|lsn| log.entry(lsn).is_some()), "contiguous");
        // ...but one at LSN 4 cannot: ops 5..=7 are gone.
        assert!(log.entry(5).is_none(), "gap must force full resync");
        log.set_cap(1);
        assert!(log.entry(9).is_none(), "cap shrink truncates");
        assert_eq!(log.entry(10).expect("head retained").lsn, 10);
    }

    #[test]
    fn epoch_watermark_refuses_stale_ships() {
        let last = AtomicU64::new(0);
        assert!(note_epoch_watermark(&last, 1), "first epoch accepted");
        assert!(note_epoch_watermark(&last, 1), "same epoch accepted");
        assert!(note_epoch_watermark(&last, 3), "newer epoch accepted");
        assert!(
            !note_epoch_watermark(&last, 2),
            "older epoch refused: fenced primary"
        );
        assert_eq!(last.load(Ordering::Relaxed), 3);
    }
}
