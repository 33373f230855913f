//! # procdb-avm
//!
//! Algebraic (non-shared) differential view maintenance \[BLT86\] — the
//! paper's **AVM** variant of the Update Cache strategy.
//!
//! Each update transaction yields a [`Delta`] (`A_net` appended tuples,
//! `D_net` deleted tuples). For a view `V` over the changed relation:
//!
//! ```text
//! V(R1 ∪ a − d, B) = V(R1, B) ∪ V(a, B) − V(d, B)
//! ```
//!
//! The stored copy *is* `V(R1, B)`; only the delta expressions are
//! evaluated, which is usually far cheaper than recomputing `V`. The plan
//! for the delta expressions is compiled in advance — this is a
//! *statically optimized* algorithm with no run-time planning cost.
//!
//! Every unit of work the paper prices is charged to the storage ledger:
//! screens at `C1`, page touches at `C2`, delta bookkeeping at `C3`.
//!
//! ```
//! use procdb_avm::{Delta, MaterializedView, ViewDef};
//! use procdb_query::{Catalog, FieldType, Organization, Predicate, Schema, Table, Value};
//! use procdb_storage::Pager;
//!
//! let pager = Pager::new_default();
//! let schema = Schema::new(vec![("id", FieldType::Int), ("dept", FieldType::Int)]);
//! let mut emp = Table::create(pager.clone(), "EMP", schema,
//!                             Organization::BTree { key_field: 0 }, 0).unwrap();
//! for i in 0..20i64 { emp.insert(&vec![Value::Int(i), Value::Int(i % 2)]).unwrap(); }
//! let mut cat = Catalog::new();
//! cat.add(emp);
//!
//! let def = ViewDef { base: "EMP".into(),
//!                     selection: Predicate::int_range(0, 0, 9), joins: vec![] };
//! let mut view = MaterializedView::new(pager, def, &cat);
//! view.recompute_full(&cat).unwrap();
//! assert_eq!(view.len(), 10);
//!
//! // Employee 3 re-keys to 15 (leaves the window): one differential patch.
//! let old = vec![Value::Int(3), Value::Int(1)];
//! let new = vec![Value::Int(15), Value::Int(1)];
//! view.apply_delta(&Delta::from_modifications([(old, new)]), &cat).unwrap();
//! assert_eq!(view.len(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod view;

pub use delta::Delta;
pub use view::{JoinStep, MaintStats, MaterializedView, ViewDef};
