//! Identifiers used across the metadata service.

use std::fmt;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Identifier of a directory or object inode.
///
/// Directory ids are what the paper calls `id` in the IndexTable and `pid`
/// when used as a parent reference (Figure 6).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InodeId(pub u64);

/// The id of the namespace root directory (`/`).
pub const ROOT_ID: InodeId = InodeId(1);

/// The sentinel parent id of the root directory.
pub const ROOT_PARENT_ID: InodeId = InodeId(0);

impl InodeId {
    /// Returns the raw numeric id.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Whether this id refers to the namespace root.
    #[inline]
    pub fn is_root(self) -> bool {
        self == ROOT_ID
    }
}

impl fmt::Debug for InodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ino:{}", self.0)
    }
}

impl fmt::Display for InodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Monotonic inode id allocator shared by a metadata service instance.
///
/// Real deployments allocate ids from a database sequence; a process-wide
/// atomic preserves the only property the algorithms rely on: uniqueness.
#[derive(Debug)]
pub struct IdAllocator {
    next: AtomicU64,
}

impl IdAllocator {
    /// Creates an allocator whose first issued id follows the root id.
    pub fn new() -> Self {
        Self {
            next: AtomicU64::new(ROOT_ID.0 + 1),
        }
    }

    /// Allocates a fresh, unique inode id.
    #[inline]
    pub fn alloc(&self) -> InodeId {
        InodeId(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Returns how many ids have been issued (root excluded).
    pub fn issued(&self) -> u64 {
        self.next.load(Ordering::Relaxed) - ROOT_ID.0 - 1
    }
}

impl Default for IdAllocator {
    fn default() -> Self {
        Self::new()
    }
}

/// Identifier of a (distributed) transaction in TafDB.
///
/// Also used as the timestamp component `TS_txn` of delta-record keys
/// (§5.2.1, Figure 8): delta records for a directory are ordered by the
/// transaction timestamp, and `TxnId(0)` addresses the primary attribute row.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct TxnId(pub u64);

impl TxnId {
    /// The reserved timestamp of the primary (non-delta) attribute record.
    pub const BASE: TxnId = TxnId(0);
}

/// Client-generated unique request id used for idempotent retry (§5.3).
///
/// When a proxy fails mid-operation, the client resubmits the request with
/// the same uuid; lock owners are compared against it so a retry re-enters
/// locks held by the failed attempt instead of deadlocking.
///
/// Nonzero, so a rename lock bit (`Option<ClientUuid>`) takes 8 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClientUuid(pub NonZeroU64);

static UUID_COUNTER: AtomicU64 = AtomicU64::new(1);

impl ClientUuid {
    /// Generates a process-unique request id: a process counter, starting
    /// at 1, stands in for a real UUIDv4; the recovery protocol only needs
    /// uniqueness within the cluster.
    pub fn generate() -> Self {
        let c = UUID_COUNTER.fetch_add(1, Ordering::Relaxed);
        ClientUuid(NonZeroU64::new(c).expect("the counter starts at 1 and does not wrap"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn allocator_issues_unique_ascending_ids() {
        let a = IdAllocator::new();
        let first = a.alloc();
        let second = a.alloc();
        assert!(first.raw() > ROOT_ID.raw());
        assert!(second.raw() > first.raw());
        assert_eq!(a.issued(), 2);
    }

    #[test]
    fn allocator_is_thread_safe() {
        let a = std::sync::Arc::new(IdAllocator::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let a = a.clone();
                std::thread::spawn(move || (0..100).map(|_| a.alloc()).collect::<Vec<_>>())
            })
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(seen.insert(id), "duplicate id {id:?}");
            }
        }
        assert_eq!(seen.len(), 800);
    }

    #[test]
    fn uuid_generation_is_unique() {
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(ClientUuid::generate()));
        }
    }

    #[test]
    fn root_constants() {
        assert!(ROOT_ID.is_root());
        assert!(!ROOT_PARENT_ID.is_root());
        assert_eq!(TxnId::BASE, TxnId(0));
    }
}
