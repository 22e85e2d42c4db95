//! The IndexNode: Mantle's per-namespace directory index (§4, §5.1, §5.2.2).
//!
//! An IndexNode consolidates the *access metadata* of every directory of one
//! namespace (about 100 bytes each, short names inline) so the proxy can
//! resolve any path — and check permissions along it — in a **single RPC**
//! instead of one RPC per level.
//! The crate implements the full §5 design:
//!
//! * [`table::IndexTable`] — the `(pid, dirname) → (id, permission, lock)`
//!   hash index of Figure 6, including the rename lock bit;
//! * [`cache::TopDirPathCache`] — the static prefix cache of §5.1.1: paths
//!   are truncated `k` levels above the leaf and only the prefix resolution
//!   is cached, because "most directory rename operations occur near the
//!   leaf nodes";
//! * the **Invalidator** (§5.1.2) — here the Raft apply path, not a
//!   thread: `RenameCommit`, `SetPermission` and `RemoveDir` range-query the
//!   [`mantle_sync::PrefixTree`] and evict the stale cache entries inline in
//!   [`sm::IndexSm`]'s `apply`, before the modification's
//!   [`mantle_sync::RemovalList`] entry is lifted; while an entry is listed,
//!   lookups of affected paths bypass the cache and their fills are
//!   rejected, so nothing is left for a poller to find;
//! * **Raft-replicated updates** with follower/learner lookups (§5.1.3):
//!   every IndexTable mutation is a Raft command; followers serve lookups
//!   after a batched ReadIndex, and invalidation information rides the
//!   replicated log so every replica's cache stays coherent;
//! * **rename coordination** (§5.2.2, Figure 9): loop detection and lock
//!   acquisition for cross-directory renames happen in one RPC against the
//!   leader's local index, with client-UUID re-entry for proxy failover
//!   (§5.3).

pub mod cache;
pub mod node;
pub mod sm;
pub mod table;

pub use cache::{CacheStats, TopDirPathCache};
pub use node::{IndexNode, IndexOptions, RenameGrant};
pub use sm::{IndexCmd, IndexSm, ResolveOutcome};
pub use table::{IndexEntry, IndexTable};
