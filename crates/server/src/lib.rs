//! # procdb-server
//!
//! `procdb` over the network: a concurrent TCP service speaking the
//! shell's command language as a line-oriented wire protocol, over the
//! same [`Session`] the interactive shell uses.
//!
//! ## Protocol
//!
//! One command per line (exactly the shell grammar — `access V`,
//! `update 5 -> 99`, `strategy rvm`, `show`, `costs`, `stats`, …).
//! Every response is zero or more data lines followed by a terminator
//! line starting with `ok` or `err`:
//!
//! ```text
//! $ nc localhost 7878
//! procdb-server: database procedures over TCP (type 'help')
//! ok ready
//! access PROGS
//! (1, 0, "Programmer")
//! ok 1 rows 12.0 ms
//! ```
//!
//! Clients read until the terminator; `quit` closes the connection,
//! `shutdown` stops the whole server.
//!
//! ## Concurrency
//!
//! Connections share one [`Session`] behind a readers-writer lock, and
//! the session's engine is always a [`procdb_shard::ShardedEngine`]
//! (one shard with one replica by default) whose own per-shard locks
//! are the network analogue of the paper's i-lock protocol. `access`
//! and `update` both run under the session's shared read lock: an
//! access shares its shard's lock whenever the strategy's read path
//! needs no engine mutation (Always Recompute, AVM, RVM, and a *valid*
//! Cache & Invalidate entry — see
//! [`procdb_core::Engine::access_shared`]) and escalates to that
//! shard's exclusive lock otherwise, exactly as a CI access that must
//! refill its cache re-acquires locks; an update excludes only the
//! shard it routes to. DDL, admin commands, and the first build of the
//! engine take the session write lock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod command;
pub mod exec;
pub mod procedures;
pub mod server;
pub mod session;
pub mod wire_server;

pub use command::{parse, Command, Injection, HELP};
pub use exec::{execute, Outcome};
pub use procedures::{CallOutcome, ProcedureRegistry};
pub use server::{Server, ServerConfig};
pub use session::{RenderRows, Session, SessionError, TableSpec};
