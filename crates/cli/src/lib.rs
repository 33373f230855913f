//! # procdb-cli
//!
//! An interactive shell over the `procdb` database-procedure engine:
//! declare relations, load rows, define procedures in the paper's own
//! `define view` syntax, flip between the four processing strategies, and
//! watch the model-priced cost of every access and update on the ledger.
//!
//! The command language, session, and executor live in `procdb-server`
//! (the same code answers over TCP — see the `serve` command); this
//! crate re-exports them so `procdb_cli::{Session, parse, …}` keeps
//! working, and ships the `procdb-cli` REPL binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use procdb_server::command::{parse, Command, HELP};
pub use procdb_server::exec::{execute, Outcome};
pub use procdb_server::session::{Session, SessionError, TableSpec};
