//! Property tests: PrefixTree and RemovalList against reference models.

use std::collections::BTreeSet;

use mantle_sync::{PrefixTree, RemovalList};
use mantle_types::MetaPath;
use proptest::prelude::*;

/// A small alphabet keeps paths colliding so prefix logic is exercised. It
/// holds byte-prefix pairs (`a`, `ab`) and names with `-`, `.` and a space,
/// which sort below `/` byte-wise: `/a-x` falls between `/a` and `/a/b` in
/// plain byte order, so a range index ordered that way would lose it.
fn arb_path() -> impl Strategy<Value = MetaPath> {
    let names = vec!["a", "a-x", "a.b", "ab", "a b", "b"];
    prop::collection::vec(prop::sample::select(names), 1..5)
        .prop_map(|comps| MetaPath::parse(&format!("/{}", comps.join("/"))).unwrap())
}

#[derive(Clone, Debug)]
enum TreeOp {
    Insert(MetaPath),
    Remove(MetaPath),
    RemoveSubtree(MetaPath),
}

fn arb_tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        3 => arb_path().prop_map(TreeOp::Insert),
        1 => arb_path().prop_map(TreeOp::Remove),
        1 => arb_path().prop_map(TreeOp::RemoveSubtree),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// PrefixTree behaves like a set of paths where `remove_subtree(p)`
    /// removes exactly the paths having `p` as prefix.
    #[test]
    fn prefix_tree_matches_model(ops in prop::collection::vec(arb_tree_op(), 1..60)) {
        let tree = PrefixTree::new();
        let mut model: BTreeSet<MetaPath> = BTreeSet::new();
        for op in ops {
            match op {
                TreeOp::Insert(p) => {
                    let fresh = tree.insert(&p);
                    prop_assert_eq!(fresh, model.insert(p));
                }
                TreeOp::Remove(p) => {
                    let had = tree.remove(&p);
                    prop_assert_eq!(had, model.remove(&p));
                }
                TreeOp::RemoveSubtree(p) => {
                    let mut removed = tree.remove_subtree(&p);
                    removed.sort();
                    let expected: Vec<MetaPath> = model
                        .iter()
                        .filter(|m| p.is_prefix_of(m))
                        .cloned()
                        .collect();
                    for e in &expected {
                        model.remove(e);
                    }
                    prop_assert_eq!(removed, expected);
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }
        for m in &model {
            prop_assert!(tree.contains(m));
        }
    }

    /// RemovalList conflict detection equals "some recorded path is a
    /// prefix of the probe".
    #[test]
    fn removal_list_matches_model(
        recorded in prop::collection::vec(arb_path(), 0..8),
        probes in prop::collection::vec(arb_path(), 1..8),
    ) {
        let list = RemovalList::new();
        for r in &recorded {
            list.insert(r.clone());
        }
        for probe in &probes {
            let expected = recorded.iter().any(|r| r.is_prefix_of(probe));
            prop_assert_eq!(list.conflicts_with(probe), expected);
        }
        for r in &recorded {
            prop_assert!(list.remove(r));
        }
        prop_assert!(list.is_empty());
    }

    /// truncate_leaf / prefix algebra used by TopDirPathCache.
    #[test]
    fn truncate_leaf_is_prefix(path in arb_path(), k in 0usize..6) {
        match path.truncate_leaf(k) {
            Some(prefix) => {
                prop_assert!(prefix.is_prefix_of(&path));
                prop_assert_eq!(prefix.depth() + k, path.depth());
                prop_assert!(k == 0 || prefix.is_ancestor_of(&path));
            }
            None => prop_assert!(path.depth() <= k),
        }
    }
}
