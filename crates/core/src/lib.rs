//! # procdb-core
//!
//! The database-procedure engine of the `procdb` reproduction of:
//!
//! > Eric N. Hanson, *Processing Queries Against Database Procedures: A
//! > Performance Analysis*, SIGMOD 1988 (UCB/ERL M87/68).
//!
//! A database procedure is a stored retrieve query. This crate offers one
//! engine API with the paper's four interchangeable processing
//! strategies:
//!
//! | [`StrategyKind`] | mechanism |
//! |------------------|-----------|
//! | `AlwaysRecompute` | run the precompiled plan on every access |
//! | `CacheInvalidate` | result cache + i-lock rule indexing |
//! | `UpdateCacheAvm` | algebraic differential maintenance (non-shared) |
//! | `UpdateCacheRvm` | shared Rete network maintenance |
//!
//! Every unit of work the paper prices — page I/O (`C2`), predicate
//! screens (`C1`), delta bookkeeping (`C3`), invalidation recording
//! (`C_inval`) — is observable on the engine's [`Engine::ledger`], so a
//! simulated workload can be priced with the same constants the
//! analytical model uses and compared against it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod ddl;
pub mod engine;
pub mod procedure;
pub mod replication;
pub mod rete_planner;
pub mod stats;

pub use advisor::{recommend, Recommendation};
pub use ddl::{parse_define_view, DdlError, DefineView};
pub use engine::{Engine, EngineOptions, RecoveryOutcome, RecoveryReport, Role};
pub use procedure::{ProcId, ProcedureDef, StrategyKind};
pub use replication::{DeltaObserver, DeltaOp, ShippedDelta};
pub use rete_planner::{choose_spec, maintenance_cost, UpdateFrequencies};
pub use stats::{decide_one, DecisionInput, WorkloadObserver};
