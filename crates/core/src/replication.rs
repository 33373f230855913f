//! Routed replication deltas.
//!
//! A replica group keeps `R` engines in lockstep by shipping every base
//! mutation to each live follower as a [`DeltaOp`] — the *logical*
//! operation, not the physical pages. Each follower runs the op through
//! its own strategy machinery ([`Engine::apply_delta_op`]), so an AVM or
//! Rete follower maintains its own view state and a Cache & Invalidate
//! follower maintains its own i-locks: failover preserves each
//! strategy's §3 recovery class instead of flattening everything to a
//! page-shipped cache.
//!
//! Ops are stamped with a log-sequence number (LSN) by the shard's delta
//! log; an engine remembers the last LSN it applied
//! ([`Engine::applied_lsn`]), and a follower — notified of a ship,
//! promoted, or rejoining — moves only by applying the log's entries
//! past that LSN. When the log has been truncated past its position (or
//! its last apply was ambiguous) it falls back to the
//! conservative path: [`Engine::install_r1_snapshot`] from the current
//! primary plus full derived-state invalidation, the same marks a crash
//! leaves (Łopuszański-style: a cache whose update feed has gaps must be
//! distrusted wholesale).
//!
//! [`Engine`]: crate::engine::Engine
//! [`Engine::apply_delta_op`]: crate::engine::Engine::apply_delta_op
//! [`Engine::applied_lsn`]: crate::engine::Engine::applied_lsn
//! [`Engine::install_r1_snapshot`]: crate::engine::Engine::install_r1_snapshot

use procdb_query::Tuple;

/// One routed base-relation mutation, in replayable logical form.
///
/// This is exactly the granularity the sharded router already works at:
/// a same-shard re-key, a partitioned insert/delete slice, or a
/// broadcast inner-relation update. Cross-shard moves decompose into a
/// `Delete` on the source group and an `Insert` on the destination
/// group, so each shard's log stays self-contained.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Re-key `R1` tuples in place: `(victim_key, new_key)` pairs.
    Rekey(Vec<(i64, i64)>),
    /// Insert new `R1` tuples.
    Insert(Vec<Tuple>),
    /// Delete (up to) one `R1` tuple per listed key.
    Delete(Vec<i64>),
    /// Re-key tuples of a (replicated) inner relation by name.
    RekeyIn {
        /// Inner-relation name (`R2`/`R3`).
        relation: String,
        /// `(victim_key, new_key)` pairs.
        mods: Vec<(i64, i64)>,
    },
}

impl DeltaOp {
    /// Short tag for logs and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            DeltaOp::Rekey(_) => "rekey",
            DeltaOp::Insert(_) => "insert",
            DeltaOp::Delete(_) => "delete",
            DeltaOp::RekeyIn { .. } => "rekey_in",
        }
    }

    /// Number of tuples (or pairs) the op carries.
    pub fn len(&self) -> usize {
        match self {
            DeltaOp::Rekey(mods) => mods.len(),
            DeltaOp::Insert(rows) => rows.len(),
            DeltaOp::Delete(keys) => keys.len(),
            DeltaOp::RekeyIn { mods, .. } => mods.len(),
        }
    }

    /// Is the op empty (applies to no tuple)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One entry of a shard's delta log: the op plus the (epoch, LSN) stamp
/// under which the primary committed it.
///
/// The epoch is the replica group's promotion counter. A follower
/// remembers the highest epoch it has seen and refuses notifications
/// stamped with an older one — the ship came from a primary that has
/// since been fenced, and applying it would let a dual-primary window
/// commit divergent state.
#[derive(Debug, Clone, PartialEq)]
pub struct ShippedDelta {
    /// Group epoch the shipping primary held when it committed the op.
    pub epoch: u64,
    /// Dense log-sequence number stamped by the shard's delta log.
    pub lsn: u64,
    /// The logical mutation itself.
    pub op: DeltaOp,
}

impl ShippedDelta {
    /// Stamp an op for the log.
    pub fn new(epoch: u64, lsn: u64, op: DeltaOp) -> ShippedDelta {
        ShippedDelta { epoch, lsn, op }
    }
}

/// A consumer of a replica group's committed delta stream.
///
/// The replication layer already ships every committed base mutation as
/// an `(epoch, LSN)`-stamped [`DeltaOp`]; an observer taps that same
/// stream *synchronously at the commit point* — after the primary has
/// applied and log-stamped the op, before the mutation call returns —
/// so a consumer that invalidates derived state (the front result
/// cache) is always at least as fresh as any acknowledgement the client
/// can see. Epoch bumps (promotions) are delivered too, so a consumer
/// can distrust everything a fenced ex-primary might have told it.
///
/// Implementations must be cheap and must never call back into the
/// engine: they run under the shard's mutation lock.
pub trait DeltaObserver: Send + Sync {
    /// One committed delta on `shard`, stamped `(epoch, lsn)`.
    fn on_delta(&self, shard: usize, epoch: u64, lsn: u64, op: &DeltaOp);

    /// `shard`'s replica group moved to `epoch` (a promotion happened).
    fn on_epoch_bump(&self, shard: usize, epoch: u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use procdb_query::Value;

    #[test]
    fn kinds_and_lengths() {
        assert_eq!(DeltaOp::Rekey(vec![(1, 2)]).kind(), "rekey");
        assert_eq!(DeltaOp::Insert(vec![vec![Value::Int(1)]]).len(), 1);
        assert!(DeltaOp::Delete(vec![]).is_empty());
        let op = DeltaOp::RekeyIn {
            relation: "R2".into(),
            mods: vec![(3, 4), (5, 6)],
        };
        assert_eq!((op.kind(), op.len()), ("rekey_in", 2));
    }
}
