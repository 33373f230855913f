//! # procdb-query
//!
//! The relational engine for the `procdb` reproduction of Hanson
//! (SIGMOD 1988): typed tuples with a fixed-width encoding, selection
//! predicates, physically organized [`Table`]s, a cost-accounted
//! executor over precompiled [`Plan`]s, and [`StoredRows`], the keyed
//! page store that holds every derived relation (AVM views, Rete
//! memories).
//!
//! ```
//! use procdb_query::{execute, Catalog, Organization, Plan, Predicate,
//!                    FieldType, Schema, Table, Value};
//! use procdb_storage::Pager;
//!
//! let pager = Pager::new_default();
//! let schema = Schema::new(vec![("skey", FieldType::Int), ("v", FieldType::Int)]);
//! let mut r1 = Table::create(pager, "R1", schema,
//!                            Organization::BTree { key_field: 0 }, 0).unwrap();
//! for k in 0..100i64 {
//!     r1.insert(&vec![Value::Int(k), Value::Int(k * 2)]).unwrap();
//! }
//! let mut cat = Catalog::new();
//! cat.add(r1);
//!
//! // A stored, precompiled "database procedure" body:
//! let plan = Plan::select("R1", Predicate::int_range(0, 10, 19));
//! assert_eq!(execute(&plan, &cat).unwrap().len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod predicate;
pub mod stored;
pub mod table;
pub mod value;

pub use exec::{execute, execute_encoded, select_encoded, EncodedRows, Plan, RowBatch};
pub use predicate::{CompOp, Predicate, Term};
pub use stored::StoredRows;
pub use table::{Catalog, Organization, Table};
pub use value::{Field, FieldType, Schema, Tuple, Value};
