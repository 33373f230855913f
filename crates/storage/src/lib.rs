//! # procdb-storage
//!
//! The paged storage substrate for the `procdb` reproduction of Hanson's
//! *Processing Queries Against Database Procedures* (SIGMOD 1988).
//!
//! The paper prices everything in page I/Os (`C2` = 30 ms each) and
//! per-record CPU work (`C1` = 1 ms per predicate screen). This crate
//! provides the machinery that makes those quantities *observable* in a
//! running system rather than assumed:
//!
//! * [`disk::Disk`] — an in-memory simulated disk of fixed-size pages,
//!   each a shared [`disk::Page`] handle;
//! * [`ledger::CostLedger`] — shared counters for page reads/writes,
//!   predicate screens, delta bookkeeping, and invalidations, priced by
//!   [`ledger::CostConstants`];
//! * [`pager::Pager`] — buffer-managed access with *logical* (paper-parity)
//!   or *physical* (buffer-aware) accounting;
//! * [`slotted`] — the slotted-page record layout;
//! * [`heap::HeapFile`] — unordered record files with stable [`heap::Rid`]s;
//! * [`fault::FaultInjector`] — seeded storage faults over the
//!   [`fate`] core that replication chaos shares.
//!
//! ```
//! use procdb_storage::{HeapFile, Pager};
//!
//! let pager = Pager::new_default();
//! let mut emp = HeapFile::create(pager.clone());
//! let rid = emp.insert(b"susan|28|accounting").unwrap();
//! assert_eq!(emp.get(rid).unwrap(), b"susan|28|accounting");
//! // Every page touch was counted:
//! assert!(pager.ledger().snapshot().page_ios() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod error;
pub mod fate;
pub mod fault;
pub mod heap;
pub mod ledger;
pub mod pager;
pub mod slotted;

pub use disk::{Disk, FileId, Page, PageId};
pub use error::{Result, StorageError};
pub use fate::{FateKinds, FateStream, Tally};
pub use fault::{FaultDecision, FaultInjector, FaultKind, FaultPlan, TransferKind};
pub use heap::{HeapFile, Rid, RidIndex};
pub use ledger::{CostConstants, CostLedger, CostSnapshot};
pub use pager::{AccountingMode, Pager, PagerConfig, Uncharged};
