//! The PrefixTree: the mirror of every cached path (§5.1.2).
//!
//! TopDirPathCache and the path-lease cache are hash tables and cannot
//! range-scan, so each keeps this mirror of the paths it holds. The mirror
//! is one ordered set: [`MetaPath`] orders paths component by component, so
//! a directory and everything cached under it are one contiguous range,
//! and `remove_subtree("/a/b")` walks that range and returns it for the
//! caller to delete from its hash table. A removed path leaves nothing
//! behind, so the mirror is never larger than the cache it mirrors.
//!
//! Concurrency: one lock over the set. Both callers already serialize every
//! access to their mirror (the lease cache under its mutex, TopDirPathCache
//! under its fill lock) and no lookup reads it, so the lock is never
//! contended and lookups proceed while an invalidation runs.

use std::collections::BTreeSet;

use parking_lot::Mutex;

use mantle_types::MetaPath;

/// The set of cached paths, ordered so that subtrees are ranges.
#[derive(Default)]
pub struct PrefixTree {
    paths: Mutex<BTreeSet<MetaPath>>,
}

impl PrefixTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `path`. Returns `false` if it was already present.
    pub fn insert(&self, path: &MetaPath) -> bool {
        self.paths.lock().insert(path.clone())
    }

    /// Whether `path` is present.
    pub fn contains(&self, path: &MetaPath) -> bool {
        self.paths.lock().contains(path)
    }

    /// Removes an exact path. Returns whether it was present.
    pub fn remove(&self, path: &MetaPath) -> bool {
        self.paths.lock().remove(path)
    }

    /// Removes and returns every present path that has `prefix` as a
    /// (non-strict) prefix, in path order — the Invalidator's range query.
    pub fn remove_subtree(&self, prefix: &MetaPath) -> Vec<MetaPath> {
        let mut paths = self.paths.lock();
        let under: Vec<MetaPath> = paths
            .range(prefix..)
            .take_while(|p| prefix.is_prefix_of(p))
            .cloned()
            .collect();
        for p in &under {
            paths.remove(p);
        }
        under
    }

    /// Number of present paths.
    pub fn len(&self) -> usize {
        self.paths.lock().len()
    }

    /// Whether no path is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for PrefixTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PrefixTree(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn p(s: &str) -> MetaPath {
        MetaPath::parse(s).unwrap()
    }

    #[test]
    fn insert_contains_remove() {
        let t = PrefixTree::new();
        assert!(t.insert(&p("/a/b/c")));
        assert!(!t.insert(&p("/a/b/c")));
        assert!(t.contains(&p("/a/b/c")));
        assert!(!t.contains(&p("/a/b")));
        assert_eq!(format!("{t:?}"), "PrefixTree(len=1)");
        assert!(t.remove(&p("/a/b/c")));
        assert!(!t.remove(&p("/a/b/c")));
        assert!(t.is_empty());
    }

    #[test]
    fn interior_and_leaf_can_both_be_present() {
        let t = PrefixTree::new();
        t.insert(&p("/a"));
        t.insert(&p("/a/b"));
        assert_eq!(t.len(), 2);
        assert!(t.contains(&p("/a")));
        assert!(t.contains(&p("/a/b")));
    }

    #[test]
    fn remove_subtree_returns_descendants() {
        let t = PrefixTree::new();
        for s in ["/a", "/a/b", "/a/b/c", "/a/x", "/d"] {
            t.insert(&p(s));
        }
        let removed = t.remove_subtree(&p("/a/b"));
        assert_eq!(removed, vec![p("/a/b"), p("/a/b/c")]);
        assert_eq!(t.len(), 3);
        assert!(t.contains(&p("/a")));
        assert!(t.contains(&p("/a/x")));
        assert!(!t.contains(&p("/a/b")));
        assert!(!t.contains(&p("/a/b/c")));
    }

    #[test]
    fn remove_subtree_skips_names_that_sort_below_the_separator() {
        // In plain byte order `/a-x`, `/a.b` and `/a b` sort between `/a`
        // and `/a/b`; none of them is under `/a`.
        let t = PrefixTree::new();
        for s in ["/a", "/a b", "/a-x", "/a.b", "/a/b", "/a/b/c", "/ab"] {
            t.insert(&p(s));
        }
        assert_eq!(
            t.remove_subtree(&p("/a")),
            vec![p("/a"), p("/a/b"), p("/a/b/c")]
        );
        assert_eq!(t.len(), 4);
        assert!(t.contains(&p("/a-x")) && t.contains(&p("/ab")));
    }

    #[test]
    fn remove_subtree_of_root_clears_everything() {
        let t = PrefixTree::new();
        for s in ["/a", "/b/c", "/d/e/f"] {
            t.insert(&p(s));
        }
        let removed = t.remove_subtree(&MetaPath::root());
        assert_eq!(removed.len(), 3);
        assert!(t.is_empty());
        // The tree remains usable after a full clear.
        assert!(t.insert(&p("/a")));
        assert!(t.contains(&p("/a")));
    }

    #[test]
    fn remove_subtree_missing_prefix_is_empty() {
        let t = PrefixTree::new();
        t.insert(&p("/a/b"));
        assert!(t.remove_subtree(&p("/z/q")).is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let t = std::sync::Arc::new(PrefixTree::new());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for j in 0..100 {
                        t.insert(&p(&format!("/top{i}/mid{j}/leaf")));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 800);
        for i in 0..8 {
            let removed = t.remove_subtree(&p(&format!("/top{i}")));
            assert_eq!(removed.len(), 100);
        }
        assert!(t.is_empty());
    }

    #[test]
    fn concurrent_insert_same_branch_no_duplicates() {
        let t = std::sync::Arc::new(PrefixTree::new());
        let inserted = std::sync::Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (t, inserted) = (t.clone(), inserted.clone());
                std::thread::spawn(move || {
                    for j in 0..50 {
                        if t.insert(&p(&format!("/shared/n{j}"))) {
                            inserted.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(inserted.load(Ordering::SeqCst), 50);
        assert_eq!(t.len(), 50);
    }
}
