//! # procdb-shard
//!
//! A partitioned parallel engine over `procdb-core`: split the
//! updatable base relation `R1` by key range across `S` shard engines —
//! each owning its own pager, heap files, i-lock table, AVM state, and
//! Rete subnetwork — and answer procedure accesses by **pruned
//! scatter-gather**: send the access to the shards the procedure's key
//! window overlaps (one, for a view that fits in a shard, run on the
//! caller), collect their partial results (selection partials for `P1`,
//! partitioned join partials for `P2`), and merge them
//! deterministically. [`Router::split`] places the boundaries at
//! equal-count quantiles of the loaded keys, snapped to nearby view
//! window starts so a view that fits in one shard is not cut.
//!
//! Correctness rests on two invariants:
//!
//! * **Partitioning** — every `R1` tuple lives on exactly the shard
//!   [`Router::shard_of`] assigns to its clustering key, so the union of
//!   the overlapped shards' partials is the global answer and no tuple
//!   is counted twice. Updates that re-key a tuple across a range
//!   boundary become a delete on the owning shard plus an insert on the
//!   receiving shard ([`procdb_core::Engine::apply_delete_take`]).
//! * **Replication** — inner relations (`R2`, `R3`) are replicated on
//!   every shard, so each shard's join partial over its `R1` slice is
//!   exact; inner-relation updates broadcast to all replicas.
//!
//! Because every shard runs the *same* strategy machinery the paper
//! analyzes (AR/CI/AVM/RVM), the sharded engine preserves the exact
//! delta semantics of the UC strategies, and its merged answers are
//! byte-identical (as normalized multisets) to a single-engine oracle —
//! a property test in `tests/shard_equivalence.rs` fuzzes exactly this,
//! crash/recover cycles included.
//!
//! ## Per-shard replication
//!
//! Each shard can additionally be a **replica group** of `R` engines
//! (primary + followers, [`ShardedEngine::new_replicated`]): every
//! routed mutation applies to the primary and ships as a logical
//! [`procdb_core::DeltaOp`] to each live follower, so every replica
//! maintains its *own* derived state and failover preserves each
//! strategy's recovery class. A crashed primary is promoted away from
//! — synchronously by the failing access/update, immediately by
//! `crash`, by an operator [`ShardedEngine::promote`], or by the
//! background supervisor — and rejoining replicas resync by delta-log
//! replay with a conservative full-rebuild fallback
//! ([`ShardedEngine::resync`]). `tests/replica_failover.rs` fuzzes
//! oracle equivalence under injected primary crashes, promotions, and
//! resyncs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod pool;
mod replica;
mod router;
mod sharded;

pub use chaos::{ChaosInjector, ChaosPlan, ChaosStatus};
pub use pool::WorkerPool;
pub use replica::{ReplicaRole, ReplicaStatus, ResyncReport};
pub use router::Router;
pub use sharded::{BreakerState, ShardStats, ShardedEngine};
