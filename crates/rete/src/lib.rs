//! # procdb-rete
//!
//! Rete view maintenance (**RVM**) \[Han87b\] — the *shared* Update Cache
//! variant of Hanson (SIGMOD 1988).
//!
//! A Rete network \[For82\] is a discrimination network whose node types
//! the paper enumerates:
//!
//! * **root** — receives all change tokens and dispatches them;
//! * **t-const** — tests `attribute op constant` conditions;
//! * **α-memory** — materializes the tuples passing a t-const chain;
//! * **and** — joins tokens against the opposite memory;
//! * **β-memory** — materializes and-node output.
//!
//! α/β memories are *views*: the contents of a memory node equal the
//! value of the view whose qualification its ancestors encode. Each is a
//! [`procdb_query::StoredRows`] keyed on its probe field, the store AVM
//! views use too. Procedures
//! with a common selection share one α-memory (the paper's sharing factor
//! `SF`); in the three-way-join model a precomputed β-memory lets RVM do
//! one join per delta tuple where AVM needs two.
//!
//! Tokens are tagged `+` (insert) or `−` (delete); in-place modifications
//! are a `−` of the old value followed by a `+` of the new one.
//!
//! ```
//! use procdb_rete::{Rete, ReteSpec, Token};
//! use procdb_query::{Catalog, FieldType, Organization, Predicate, Schema, Table, Value};
//! use procdb_storage::Pager;
//!
//! // EMP(id, dept); maintain "employees 0..=9" in an α-memory.
//! let pager = Pager::new_default();
//! let schema = Schema::new(vec![("id", FieldType::Int), ("dept", FieldType::Int)]);
//! let mut emp = Table::create(pager.clone(), "EMP", schema.clone(),
//!                             Organization::BTree { key_field: 0 }, 0).unwrap();
//! for i in 0..30i64 { emp.insert(&vec![Value::Int(i), Value::Int(i % 3)]).unwrap(); }
//! let mut cat = Catalog::new();
//! cat.add(emp);
//!
//! let mut rete = Rete::new(pager);
//! let view = rete.add_view(&ReteSpec::Select {
//!     relation: "EMP".into(),
//!     schema,
//!     predicate: Predicate::int_range(0, 0, 9),
//!     probe_field: 1,
//!     dispatch_field: Some(0),
//! });
//! rete.initialize(&cat).unwrap();
//! assert_eq!(rete.memory(view).len(), 10);
//!
//! // A new employee appears in range: one token, one maintained view.
//! rete.submit("EMP", Token::plus(vec![Value::Int(5), Value::Int(1)])).unwrap();
//! assert_eq!(rete.memory(view).len(), 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod network;

pub use network::{NodeId, Rete, ReteSpec, ReteStats, Side, Sign, Token};
