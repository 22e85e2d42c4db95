//! TafDB: the scalable, sharded metadata database (§4, §5.2.1).
//!
//! TafDB stores *all* metadata of every namespace as one logical table
//! keyed `(pid, name, ts)` and partitioned by `pid` across shards, each
//! shard living on its own simulated server. It provides:
//!
//! * **single-shard reads** — entry lookups, `dirstat` (merging delta
//!   records), `readdir` — each one proxy RPC to the owning shard;
//! * **distributed transactions** — two-phase commit with no-wait row
//!   locking; conflicting transactions abort and retry, which is the
//!   contention behaviour the paper measures (§3.2, Figure 4b);
//! * **delta records** (§5.2.1) — under sustained contention on a
//!   directory's attribute row, in-place updates are replaced by
//!   conflict-free appends keyed `(dir, "/_ATTR", ts_txn)`; the append that
//!   brings a directory's count on a shard to a fixed bound folds them into
//!   the base row under a shared latch (TafDB runs no thread of its own);
//! * **one write vocabulary, three executors** — a front-end describes a
//!   mutation as the [`TxnOp`]s of a [`recipe`] and picks how they run:
//!   [`TafDb::execute`] (one transaction), [`TafDb::execute_relaxed`] (§6.1's
//!   independent single-row writes, the parent-attribute update serialized
//!   by a blocking latch as §6.3 describes for Tectonic and LocoFS) or
//!   [`TafDb::bulk_apply`] (a free load); what a resolved parent turns
//!   into — object create/delete/stat, `dirstat`, listings, the bulk
//!   loader — is written once for every system, in [`front`];
//! * **dynamic shard splitting** (§5.3) — an epoch-versioned, range-
//!   partitioned [`ShardMap`] replaces the fixed `pid` hash; the placement
//!   tick a caller drives ([`TafDb::rebalance_once`]) observes per-shard
//!   busy time, splits hot ranges (down to *within* a single hot
//!   directory), migrates them to cold shards under a short write
//!   quiescence, and merges cold neighbours back. Stale routing
//!   snapshots are rejected with `MetaError::StaleRoute` and retried after
//!   a map refresh;
//! * **pluggable storage engines** (DESIGN.md §4.12) — each shard's row
//!   organisation sits behind [`mantle_engine::StorageEngine`]: the
//!   default `btree` engine preserves the historical reader-writer-locked
//!   structure, while the `mvcc` engine serves `readdir`/`list`/`dirstat`
//!   scans from pinned copy-on-write snapshots so they never block (or are
//!   blocked by) the write path. Select via [`TafDbOptions::engine`]
//!   (whose default follows `MANTLE_ENGINE`).
//!
//! The implementation is layered accordingly: [`db`] (core + options),
//! [`recipe`] (which ops make a mutation), [`front`] (the post-resolve
//! plane every TafDB-schema front-end shares), `shard` (per-shard runtime,
//! the relaxed and bulk executors), `router` (map routing + reads), `plan`
//! and `exec` (a transaction's routed steps, and running them), and
//! `migrate` (placement plane).

pub mod db;
mod exec;
pub mod front;
mod metrics;
mod migrate;
mod plan;
pub mod recipe;
mod router;
pub mod schema;
mod shard;
pub mod shardmap;
pub mod txn;

pub use db::{DbCounters, TafDb, TafDbOptions};
pub use front::Front;
pub use mantle_engine::EngineKind;
pub use schema::{attr_key, attr_view, entry_key, entry_view, Row, StoredRow};
pub use shardmap::{dir_region, place_of, ShardMap};
pub use txn::{Prepared, TxnOp};
