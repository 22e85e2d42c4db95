//! Per-shard transaction plumbing: row keys, row locks and commit
//! durability.
//!
//! Rows themselves live behind `mantle_engine::StorageEngine`; this crate
//! holds what every engine and every shard shares:
//!
//! * [`RowKey`] — the composite `(pid, name, ts)` primary key of Figure
//!   2's/Figure 8's schema: metadata tables are keyed by parent directory
//!   id and entry name, and delta records extend the key with the
//!   transaction timestamp `ts` (the base attribute row has `ts = 0`);
//!   [`RowKeyView`] is the same key with a borrowed name, and
//!   [`KeyParts`] is what both are probed, ordered and hashed through, so
//!   lookups, unlocks and scan bounds build no owned key;
//! * [`LockManager`] — transaction row locks with *no-wait* conflict
//!   handling: a conflicting lock acquisition fails immediately and the
//!   transaction aborts and retries, which is the abort/retry behaviour the
//!   paper measures under contention (§3.2, Figure 4b);
//! * [`GroupCommitWal`] — commit durability; concurrent committers share
//!   one injected fsync, and the batching can be disabled to reproduce the
//!   un-amortized baseline.

pub mod key;
pub mod locks;
pub mod wal;

pub use key::{KeyParts, RowKey, RowKeyView};
pub use locks::{LockManager, LockMode};
pub use wal::GroupCommitWal;
