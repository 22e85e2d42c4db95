//! TopDirPathCache (§5.1.1) and its invalidation bookkeeping (§5.1.2).
//!
//! The cache maps a *truncated path prefix* (the final `k` levels removed)
//! to the prefix directory's id and the aggregated permission along the
//! prefix. It is deliberately static: no promotion/demotion machinery —
//! entries are only ever filled after a miss and removed by invalidation.
//!
//! Coherence protocol (the "conventional timestamp mechanism" of §5.1.2):
//! a lookup snapshots the RemovalList version before resolving and the
//! cache only accepts the fill if no directory modification was recorded
//! in between; the check and the insert happen under the same fill lock an
//! invalidation holds while evicting, closing the race completely. §5.1.2's
//! Invalidator is the Raft apply path here: every `IndexSm::apply` arm that
//! can stale a cached prefix calls [`TopDirPathCache::invalidate_subtree`]
//! itself, before it lifts its RemovalList entry — no background thread.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::{Mutex, RwLock};

use mantle_sync::PrefixTree;
use mantle_types::{InodeId, MetaPath, Permission};

/// A cached prefix resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CachedPrefix {
    /// Id of the directory the prefix resolves to.
    pub pid: InodeId,
    /// Aggregated (intersected) permission along the prefix.
    pub permission: Permission,
}

/// Point-in-time cache statistics (Figure 18's memory axis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cached prefixes.
    pub entries: usize,
    /// Approximate resident bytes (path strings + table overhead).
    pub bytes: usize,
    /// Fills accepted.
    pub fills: u64,
    /// Fills rejected by the version check.
    pub rejected_fills: u64,
    /// Entries evicted by invalidation.
    pub invalidated: u64,
}

/// The static prefix cache.
pub struct TopDirPathCache {
    k: usize,
    enabled: bool,
    map: RwLock<HashMap<MetaPath, CachedPrefix>>,
    /// Mirror of every cached path for range invalidation.
    tree: PrefixTree,
    /// Serializes fills against invalidation (lookups never take this).
    fill_lock: Mutex<()>,
    bytes: AtomicUsize,
    /// `index_cache_fills_total`; this cache's own cell is `stats().fills`.
    fills: mantle_obs::Counter,
    rejected_fills: AtomicU64,
    /// `index_cache_evictions_total`; own cell is `stats().invalidated`.
    invalidated: mantle_obs::Counter,
}

impl TopDirPathCache {
    /// Creates a cache truncating `k` leaf levels; `enabled = false` turns
    /// every probe into a miss (the Mantle-base ablation configuration).
    pub fn new(k: usize, enabled: bool) -> Self {
        TopDirPathCache {
            k,
            enabled,
            map: RwLock::new(HashMap::new()),
            tree: PrefixTree::new(),
            fill_lock: Mutex::new(()),
            bytes: AtomicUsize::new(0),
            fills: mantle_obs::counter("index_cache_fills_total", &[]),
            rejected_fills: AtomicU64::new(0),
            invalidated: mantle_obs::counter("index_cache_evictions_total", &[]),
        }
    }

    /// The truncation distance `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether caching is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The cacheable prefix of `path`, if deep enough.
    pub fn prefix_of(&self, path: &MetaPath) -> Option<MetaPath> {
        if !self.enabled {
            return None;
        }
        path.truncate_leaf(self.k)
    }

    /// Probes the cache for a prefix.
    pub fn get(&self, prefix: &MetaPath) -> Option<CachedPrefix> {
        if !self.enabled {
            return None;
        }
        self.map.read().get(prefix).copied()
    }

    /// Attempts to cache a resolved prefix. `version_ok` re-reads the
    /// RemovalList version under the fill lock; the fill is dropped when a
    /// modification raced the resolution.
    pub fn try_fill(
        &self,
        prefix: MetaPath,
        value: CachedPrefix,
        version_ok: impl FnOnce() -> bool,
    ) -> bool {
        if !self.enabled {
            return false;
        }
        let _fill = self.fill_lock.lock();
        if !version_ok() {
            self.rejected_fills.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // The caller's prefix is usually a view of the path it resolved;
        // the key must not keep that path's leaf components alive.
        let prefix = prefix.compact();
        let mut map = self.map.write();
        if map.insert(prefix.clone(), value).is_none() {
            self.bytes
                .fetch_add(Self::entry_bytes(&prefix), Ordering::Relaxed);
            self.tree.insert(&prefix);
        }
        self.fills.inc();
        true
    }

    /// Evicts every cached prefix under `path` (inclusive). Returns how
    /// many entries were removed.
    pub fn invalidate_subtree(&self, path: &MetaPath) -> usize {
        if !self.enabled {
            return 0;
        }
        let _fill = self.fill_lock.lock();
        let stale = self.tree.remove_subtree(path);
        if stale.is_empty() {
            return 0;
        }
        let mut map = self.map.write();
        for p in &stale {
            if map.remove(p).is_some() {
                self.bytes
                    .fetch_sub(Self::entry_bytes(p), Ordering::Relaxed);
            }
        }
        self.invalidated.add(stale.len() as u64);
        stale.len()
    }

    fn entry_bytes(prefix: &MetaPath) -> usize {
        // What one entry keeps: a hash-map slot holding the key and the
        // cached value, and, for a key too long to hold its text inline,
        // that text (`/` + name per component) in a buffer of its own with
        // its two reference counts. The Figure 18 memory axis.
        let text = prefix.components().map(|c| 1 + c.len()).sum::<usize>();
        let shared = usize::from(text > MetaPath::INLINE_CAP);
        shared * (text + 2 * std::mem::size_of::<usize>())
            + std::mem::size_of::<(MetaPath, CachedPrefix)>()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.read().len(),
            bytes: self.bytes.load(Ordering::Relaxed),
            fills: self.fills.get(),
            rejected_fills: self.rejected_fills.load(Ordering::Relaxed),
            invalidated: self.invalidated.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> MetaPath {
        MetaPath::parse(s).unwrap()
    }

    fn v(id: u64) -> CachedPrefix {
        CachedPrefix {
            pid: InodeId(id),
            permission: Permission::ALL,
        }
    }

    #[test]
    fn fill_and_probe() {
        let c = TopDirPathCache::new(3, true);
        let prefix = c.prefix_of(&p("/a/b/c/d/e")).unwrap();
        assert_eq!(prefix, p("/a/b"));
        assert!(c.get(&prefix).is_none());
        assert!(c.try_fill(prefix.clone(), v(9), || true));
        assert_eq!(c.get(&prefix).unwrap().pid, InodeId(9));
        assert_eq!(c.stats().entries, 1);
        assert!(c.stats().bytes > 0);
    }

    #[test]
    fn shallow_paths_are_never_cached() {
        let c = TopDirPathCache::new(3, true);
        assert!(c.prefix_of(&p("/a/b/c")).is_none());
        assert!(c.prefix_of(&p("/a")).is_none());
        assert!(c.prefix_of(&MetaPath::root()).is_none());
    }

    #[test]
    fn version_check_rejects_racing_fill() {
        let c = TopDirPathCache::new(1, true);
        assert!(!c.try_fill(p("/a"), v(1), || false));
        assert!(c.get(&p("/a")).is_none());
        assert_eq!(c.stats().rejected_fills, 1);
    }

    #[test]
    fn invalidate_subtree_removes_descendants_only() {
        let c = TopDirPathCache::new(1, true);
        for (s, id) in [("/a", 1), ("/a/b", 2), ("/a/b/c", 3), ("/x", 4)] {
            assert!(c.try_fill(p(s), v(id), || true));
        }
        let removed = c.invalidate_subtree(&p("/a/b"));
        assert_eq!(removed, 2);
        assert!(c.get(&p("/a")).is_some());
        assert!(c.get(&p("/a/b")).is_none());
        assert!(c.get(&p("/a/b/c")).is_none());
        assert!(c.get(&p("/x")).is_some());
        let stats = c.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.invalidated, 2);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let c = TopDirPathCache::new(3, false);
        assert!(c.prefix_of(&p("/a/b/c/d/e")).is_none());
        assert!(!c.try_fill(p("/a"), v(1), || true));
        assert!(c.get(&p("/a")).is_none());
        assert_eq!(c.invalidate_subtree(&MetaPath::root()), 0);
    }

    #[test]
    fn byte_accounting_balances() {
        let c = TopDirPathCache::new(1, true);
        for i in 0..10 {
            c.try_fill(p(&format!("/dir{i}")), v(i), || true);
        }
        let full = c.stats().bytes;
        assert!(full > 0);
        c.invalidate_subtree(&MetaPath::root());
        assert_eq!(c.stats().bytes, 0);
        assert_eq!(c.stats().entries, 0);
        assert!(full > 0);

        // A prefix filled from a shared view of a resolved path (one too
        // long to be held inline) is stored (and accounted) at its own
        // size: the leaf components die with the caller's path.
        let dir = format!("/{}", "d".repeat(MetaPath::INLINE_CAP));
        let resolved = p(&format!("{dir}/a/b/c/some-long-leaf-name"));
        let view = resolved.truncate_leaf(4).unwrap();
        c.try_fill(view.clone(), v(1), || true);
        assert_eq!(
            c.stats().bytes,
            TopDirPathCache::entry_bytes(&p(&dir)),
            "accounting describes the stored key, not the caller's buffer"
        );
        assert!(!view.is_compact());
        assert!(
            c.map.read().keys().all(MetaPath::is_compact),
            "a cached prefix must not keep the resolved path's leaf alive"
        );
        assert!(c.get(&p(&dir)).is_some());
    }
}
