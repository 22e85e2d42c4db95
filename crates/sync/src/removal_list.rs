//! The RemovalList: in-flight directory-modification tracking (§5.1.2).
//!
//! When a directory modification that can invalidate cached lookups begins
//! (`dirrename`, `setattr`), the target directory's full path is inserted
//! here. Every lookup first scans the list for recorded paths that are
//! prefixes of the requested path; if one is found the lookup bypasses the
//! TopDirPathCache and resolves through the IndexTable, avoiding stale
//! cached results. The modification itself evicts the affected cache
//! entries when it applies, and only then removes its path from the list
//! (the Raft apply path is §5.1.2's Invalidator; there is no drain thread).
//!
//! The list is "empty most of the time" (paper's words), so the hot path is
//! a single relaxed atomic load. A version counter implements the
//! "conventional timestamp mechanism" the paper uses to detect lookups that
//! raced with a modification: a lookup snapshots [`RemovalList::version`]
//! before resolving and only caches its result if the version is unchanged
//! after.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::RwLock;

use mantle_types::MetaPath;

/// Concurrent set of full paths of directories currently being modified.
#[derive(Default)]
pub struct RemovalList {
    /// Fast-path emptiness check; kept in sync with `paths.len()`.
    len: AtomicUsize,
    /// Bumped on every insertion (timestamp conflict detection).
    version: AtomicU64,
    /// Ordered so prefix scans can bound their range.
    paths: RwLock<Vec<MetaPath>>,
}

impl RemovalList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `path` as being modified. Duplicate insertions are allowed
    /// (two concurrent renames of *different* sources can share an
    /// ancestor); each insert must be paired with one [`remove`].
    ///
    /// [`remove`]: RemovalList::remove
    pub fn insert(&self, path: MetaPath) {
        let mut paths = self.paths.write();
        paths.push(path);
        self.len.store(paths.len(), Ordering::Release);
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Removes one occurrence of `path`. Returns whether one was present.
    pub fn remove(&self, path: &MetaPath) -> bool {
        let mut paths = self.paths.write();
        if let Some(pos) = paths.iter().position(|p| p == path) {
            paths.swap_remove(pos);
            self.len.store(paths.len(), Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Whether the list is empty — the lock-free lookup fast path.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }

    /// Number of recorded paths.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Monotonic timestamp; changes whenever a modification is recorded.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Whether any recorded path is a prefix of `path` (i.e. the requested
    /// path may be invalidated by an in-flight modification).
    ///
    /// Returns `false` without locking when the list is empty.
    pub fn conflicts_with(&self, path: &MetaPath) -> bool {
        if self.is_empty() {
            return false;
        }
        self.paths.read().iter().any(|p| p.is_prefix_of(path))
    }

    /// Snapshot of all recorded paths (state-machine snapshot / restore).
    pub fn snapshot(&self) -> Vec<MetaPath> {
        self.paths.read().clone()
    }
}

impl std::fmt::Debug for RemovalList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RemovalList(len={}, v={})", self.len(), self.version())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn p(s: &str) -> MetaPath {
        MetaPath::parse(s).unwrap()
    }

    #[test]
    fn empty_fast_path() {
        let list = RemovalList::new();
        assert!(list.is_empty());
        assert!(!list.conflicts_with(&p("/a/b")));
    }

    #[test]
    fn prefix_conflicts_detected() {
        let list = RemovalList::new();
        list.insert(p("/a/b"));
        assert!(list.conflicts_with(&p("/a/b")));
        assert!(list.conflicts_with(&p("/a/b/c/d")));
        assert!(!list.conflicts_with(&p("/a/c")));
        assert!(!list.conflicts_with(&p("/a")));
    }

    #[test]
    fn version_bumps_on_insert_only() {
        let list = RemovalList::new();
        let v0 = list.version();
        list.insert(p("/x"));
        let v1 = list.version();
        assert!(v1 > v0);
        list.remove(&p("/x"));
        assert_eq!(list.version(), v1);
        assert!(list.is_empty());
    }

    #[test]
    fn duplicate_inserts_require_paired_removes() {
        let list = RemovalList::new();
        list.insert(p("/a"));
        list.insert(p("/a"));
        assert_eq!(list.len(), 2);
        assert!(list.remove(&p("/a")));
        assert!(list.conflicts_with(&p("/a/x")));
        assert!(list.remove(&p("/a")));
        assert!(!list.conflicts_with(&p("/a/x")));
        assert!(!list.remove(&p("/a")));
    }

    #[test]
    fn concurrent_insert_remove_is_consistent() {
        let list = Arc::new(RemovalList::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let list = list.clone();
                std::thread::spawn(move || {
                    let path = p(&format!("/dir{t}"));
                    for _ in 0..200 {
                        list.insert(path.clone());
                        assert!(list.conflicts_with(&path.child("leaf")));
                        assert!(list.remove(&path));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(list.is_empty());
        assert_eq!(list.version(), 8 * 200);
    }
}
