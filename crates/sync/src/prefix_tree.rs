//! The PrefixTree: a concurrent tree over path components (§5.1.2).
//!
//! TopDirPathCache is a hash table and cannot range-scan, so the cache
//! keeps this tree as a mirror of every cached path. Invalidating a
//! directory becomes a subtree detach: `remove_subtree("/a/b")` unhooks the
//! branch in O(depth) and returns every cached path underneath it so the
//! caller can delete the corresponding hash-table entries.
//!
//! Concurrency: each node guards its child map with its own reader-writer
//! lock, so readers and writers touching disjoint branches never contend and
//! readers take only short per-node shared locks. Callers must ensure that
//! inserts under a prefix do not race with `remove_subtree` of that prefix
//! (the IndexNode guarantees this via the RemovalList timestamp protocol —
//! a lookup never caches a result if a modification of an ancestor was
//! in flight).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use mantle_types::MetaPath;

#[derive(Default)]
struct Node {
    /// Whether the path ending at this node is itself cached.
    present: AtomicBool,
    children: RwLock<HashMap<Arc<str>, Arc<Node>>>,
}

/// A concurrent prefix tree over [`MetaPath`] components.
pub struct PrefixTree {
    root: Arc<Node>,
    len: AtomicUsize,
}

impl Default for PrefixTree {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        PrefixTree {
            root: Arc::new(Node::default()),
            len: AtomicUsize::new(0),
        }
    }

    fn descend(&self, path: &MetaPath) -> Option<Arc<Node>> {
        let mut node = self.root.clone();
        for comp in path.components() {
            let next = node.children.read().get(comp).cloned()?;
            node = next;
        }
        Some(node)
    }

    /// Marks `path` as present, creating interior nodes as needed.
    /// Returns `false` if it was already present.
    pub fn insert(&self, path: &MetaPath) -> bool {
        let mut node = self.root.clone();
        for comp in path.components() {
            let existing = node.children.read().get(comp).cloned();
            let next = match existing {
                Some(n) => n,
                None => {
                    let mut children = node.children.write();
                    children
                        .entry(Arc::<str>::from(comp))
                        .or_insert_with(|| Arc::new(Node::default()))
                        .clone()
                }
            };
            node = next;
        }
        let was_present = node.present.swap(true, Ordering::AcqRel);
        if !was_present {
            self.len.fetch_add(1, Ordering::AcqRel);
        }
        !was_present
    }

    /// Whether `path` is present.
    pub fn contains(&self, path: &MetaPath) -> bool {
        self.descend(path)
            .is_some_and(|n| n.present.load(Ordering::Acquire))
    }

    /// Unmarks an exact path. Interior nodes are left in place (they are
    /// bounded by the set of cached prefixes and re-used by re-inserts).
    /// Returns whether the path was present.
    pub fn remove(&self, path: &MetaPath) -> bool {
        let Some(node) = self.descend(path) else {
            return false;
        };
        let was_present = node.present.swap(false, Ordering::AcqRel);
        if was_present {
            self.len.fetch_sub(1, Ordering::AcqRel);
        }
        was_present
    }

    /// Detaches the subtree rooted at `prefix` and returns every present
    /// path that had `prefix` as a (non-strict) prefix — the Invalidator's
    /// range query.
    pub fn remove_subtree(&self, prefix: &MetaPath) -> Vec<MetaPath> {
        // Detach the branch from its parent first so concurrent readers
        // stop finding it, then harvest the detached nodes.
        let detached: Arc<Node> = if prefix.is_root() {
            let mut children = self.root.children.write();
            let old = Arc::new(Node {
                present: AtomicBool::new(self.root.present.swap(false, Ordering::AcqRel)),
                children: RwLock::new(std::mem::take(&mut *children)),
            });
            drop(children);
            old
        } else {
            let parent = match self.descend(&prefix.parent().expect("non-root has parent")) {
                Some(p) => p,
                None => return Vec::new(),
            };
            let name = prefix.name().expect("non-root has name");
            let removed = parent.children.write().remove(name);
            match removed {
                Some(n) => n,
                None => return Vec::new(),
            }
        };

        let mut out = Vec::new();
        Self::collect(&detached, prefix.clone(), &mut out);
        self.len.fetch_sub(out.len(), Ordering::AcqRel);
        out
    }

    fn collect(node: &Arc<Node>, path: MetaPath, out: &mut Vec<MetaPath>) {
        if node.present.swap(false, Ordering::AcqRel) {
            out.push(path.clone());
        }
        let children = node.children.read();
        for (name, child) in children.iter() {
            Self::collect(child, path.child(name), out);
        }
    }

    /// Number of present paths.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
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
        assert_eq!(t.len(), 1);
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
        let mut removed = t.remove_subtree(&p("/a/b"));
        removed.sort();
        assert_eq!(removed, vec![p("/a/b"), p("/a/b/c")]);
        assert_eq!(t.len(), 3);
        assert!(t.contains(&p("/a")));
        assert!(t.contains(&p("/a/x")));
        assert!(!t.contains(&p("/a/b")));
        assert!(!t.contains(&p("/a/b/c")));
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
