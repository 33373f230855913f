//! # procdb
//!
//! A from-scratch Rust reproduction of:
//!
//! > Eric N. Hanson, *Processing Queries Against Database Procedures: A
//! > Performance Analysis*. SIGMOD 1988 (UCB/ERL Memorandum M87/68).
//!
//! A **database procedure** is a stored query. The paper compares four
//! ways to answer "what does this procedure currently return?":
//!
//! * **Always Recompute** — run the stored, precompiled plan on every
//!   access;
//! * **Cache and Invalidate** — cache the last result; i-locks (rule
//!   indexing) invalidate it when updates conflict; recompute on miss;
//! * **Update Cache (AVM)** — keep the cache permanently current with
//!   algebraic differential view maintenance;
//! * **Update Cache (RVM)** — keep it current with a shared Rete network.
//!
//! This crate is a facade over the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`costmodel`] | every closed-form cost formula of the paper |
//! | [`obs`] | metrics registry, span tracing, Prometheus exposition |
//! | [`storage`] | pages, buffer pool, heap files, the cost ledger |
//! | [`index`] | clustered B+-tree and hash-file organizations |
//! | [`query`] | tuples, predicates, plans, cost-accounted executor |
//! | [`ilock`] | invalidation locks (rule indexing) |
//! | [`avm`] | algebraic (non-shared) view maintenance |
//! | [`rete`] | the shared Rete network |
//! | [`core`] | the procedure engine with the four strategies |
//! | [`shard`] | key-range-partitioned parallel engines, pruned scatter-gather access |
//! | [`workload`] | database/procedure/stream generators + simulator |
//!
//! ## Quick start
//!
//! ```
//! use procdb::core::{Engine, EngineOptions, ProcedureDef, StrategyKind};
//! use procdb::avm::ViewDef;
//! use procdb::query::{Catalog, FieldType, Organization, Predicate, Schema, Table, Value};
//! use procdb::storage::Pager;
//!
//! // A tiny EMP relation, clustered by employee id.
//! let pager = Pager::new_default();
//! pager.set_charging(false); // loading is setup, not measured work
//! let schema = Schema::new(vec![("id", FieldType::Int), ("dept", FieldType::Int)]);
//! let mut emp = Table::create(pager.clone(), "R1", schema,
//!                             Organization::BTree { key_field: 0 }, 0).unwrap();
//! for i in 0..100i64 {
//!     emp.insert(&vec![Value::Int(i), Value::Int(i % 7)]).unwrap();
//! }
//! pager.set_charging(true);
//! let mut catalog = Catalog::new();
//! catalog.add(emp);
//!
//! // A stored database procedure: employees 10..=19.
//! let proc_def = ProcedureDef::new(0, "tens", ViewDef {
//!     base: "R1".into(),
//!     selection: Predicate::int_range(0, 10, 19),
//!     joins: vec![],
//! });
//!
//! // Serve it with the Update Cache (Rete) strategy.
//! let mut engine = Engine::new(pager, catalog, vec![proc_def],
//!                              StrategyKind::UpdateCacheRvm,
//!                              EngineOptions::default()).unwrap();
//! assert_eq!(engine.access(0).unwrap().len(), 10);
//! // An in-place key update is maintained differentially:
//! engine.apply_update(&[(15, 500)]).unwrap();
//! assert_eq!(engine.access(0).unwrap().len(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use procdb_avm as avm;
pub use procdb_core as core;
pub use procdb_costmodel as costmodel;
pub use procdb_ilock as ilock;
pub use procdb_index as index;
pub use procdb_obs as obs;
pub use procdb_query as query;
pub use procdb_rete as rete;
pub use procdb_shard as shard;
pub use procdb_storage as storage;
pub use procdb_workload as workload;
