//! The resolve vocabulary: the four rules every front-end's read side
//! obeys, each stated once (DESIGN.md §4.3; the read-side twin of
//! `mantle_tafdb::recipe`).
//!
//! * [`walk`] — path resolution "performs a permission check at every
//!   level" (§2.3): a directory is entered only through an aggregated mask
//!   that allows traversal, and the mask of a path is the intersection of
//!   the masks along it.
//! * [`MetaPath::split_leaf`] — an operation on an entry names its parent
//!   directory and a leaf; the root has neither.
//! * [`ResolvedPath::require`] — an operation states the permission it
//!   needs on the directory it resolved.
//! * [`MetaPath::rename_precheck`] — what a `rename_dir` refuses on the two
//!   paths alone.
//!
//! What differs between the systems — where a level's entry comes from and
//! what reading it costs — is the `step` closure each passes to [`walk`].

use crate::error::{MetaError, Result};
use crate::id::InodeId;
use crate::path::MetaPath;
use crate::perm::Permission;
use crate::record::ResolvedPath;

/// Walks the components of `path` below its first `skip`, starting from the
/// state `from` (the directory those `skip` components resolve to, with the
/// mask aggregated that far).
///
/// `step(level, at, comp)` returns the id and own mask of the directory
/// `comp` — component `level` of `path` — under `at.id`, or `None` when
/// there is none; `at` is the state the walk steps from. The walk applies
/// the permission rule and names the whole `path` in what it refuses.
///
/// # Errors
///
/// [`MetaError::PermissionDenied`] when the mask aggregated so far forbids
/// traversal (the level is not stepped), [`MetaError::NotFound`] when `step`
/// finds no entry; an error `step` returns passes through.
pub fn walk(
    path: &MetaPath,
    skip: usize,
    from: ResolvedPath,
    mut step: impl FnMut(usize, ResolvedPath, &str) -> Result<Option<(InodeId, Permission)>>,
) -> Result<ResolvedPath> {
    let mut at = from;
    for (level, comp) in path.components().enumerate().skip(skip) {
        if !at.permission.allows_traverse() {
            return Err(MetaError::PermissionDenied(path.to_string()));
        }
        let Some((id, own)) = step(level, at, comp)? else {
            return Err(MetaError::NotFound(path.to_string()));
        };
        at = ResolvedPath {
            id,
            permission: at.permission.intersect(own),
        };
    }
    Ok(at)
}

impl ResolvedPath {
    /// Checks that the aggregated permission of this resolved directory
    /// allows `need`, for the operation on `path`.
    ///
    /// # Errors
    ///
    /// [`MetaError::PermissionDenied`] naming `path`.
    pub fn require(&self, need: Permission, path: &MetaPath) -> Result<()> {
        if self.permission.allows(need) {
            Ok(())
        } else {
            Err(MetaError::PermissionDenied(path.to_string()))
        }
    }
}

impl MetaPath {
    /// The parent directory and the final component of a non-root path.
    ///
    /// # Errors
    ///
    /// [`MetaError::InvalidPath`] for the root.
    pub fn split_leaf(&self) -> Result<(MetaPath, &str)> {
        self.parent()
            .zip(self.name())
            .ok_or_else(|| MetaError::InvalidPath("operation on root".into()))
    }

    /// What a rename of the directory `self` to `dst` refuses before it
    /// resolves anything.
    ///
    /// # Errors
    ///
    /// [`MetaError::InvalidRename`] when either path is the root or the two
    /// are equal, [`MetaError::RenameLoop`] when `dst` lies inside `self`.
    pub fn rename_precheck(&self, dst: &MetaPath) -> Result<()> {
        if self.is_root() || dst.is_root() {
            Err(MetaError::InvalidRename("root cannot be renamed".into()))
        } else if self == dst {
            Err(MetaError::InvalidRename("source equals destination".into()))
        } else if self.is_ancestor_of(dst) {
            Err(MetaError::RenameLoop {
                src: self.to_string(),
                dst: dst.to_string(),
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ROOT_ID;

    fn p(s: &str) -> MetaPath {
        MetaPath::parse(s).unwrap()
    }

    const ROOT: ResolvedPath = ResolvedPath {
        id: ROOT_ID,
        permission: Permission::ALL,
    };

    /// A chain `/c0/c1/..` with ids 10, 11, .. whose level-`i` directory
    /// has mask `masks[i]`; records the levels stepped.
    fn chain(
        path: &MetaPath,
        masks: &[Permission],
        stepped: &mut Vec<usize>,
    ) -> Result<ResolvedPath> {
        walk(path, 0, ROOT, |level, at, comp| {
            stepped.push(level);
            assert_eq!(comp, format!("c{level}"));
            let expected_parent = if level == 0 {
                ROOT_ID
            } else {
                InodeId(9 + level as u64)
            };
            assert_eq!(at.id, expected_parent);
            Ok(masks
                .get(level)
                .map(|mask| (InodeId(10 + level as u64), *mask)))
        })
    }

    #[test]
    fn walk_intersects_masks_and_steps_every_level() {
        let mut stepped = Vec::new();
        let masks = [Permission::ALL, Permission(0b101), Permission(0b011)];
        let at = chain(&p("/c0/c1/c2"), &masks, &mut stepped).unwrap();
        assert_eq!(at.id, InodeId(12));
        assert_eq!(at.permission, Permission(0b001));
        assert_eq!(stepped, [0, 1, 2]);
        // The root walks nothing and is the state it started from.
        assert_eq!(chain(&MetaPath::root(), &[], &mut stepped).unwrap(), ROOT);
        assert_eq!(stepped.len(), 3);
    }

    #[test]
    fn refused_traverse_names_the_full_path_and_stops_stepping() {
        let mut stepped = Vec::new();
        // c1 lacks EXEC: entering c2 is refused, c1 itself resolves.
        let masks = [
            Permission::ALL,
            Permission(0b110),
            Permission::ALL,
            Permission::ALL,
        ];
        let refused = chain(&p("/c0/c1/c2/c3"), &masks, &mut stepped);
        assert_eq!(
            refused,
            Err(MetaError::PermissionDenied("/c0/c1/c2/c3".into()))
        );
        assert_eq!(stepped, [0, 1], "levels 2 and 3 are never stepped");
        stepped.clear();
        let at = chain(&p("/c0/c1"), &masks, &mut stepped).unwrap();
        assert_eq!(at.permission, Permission(0b110));
    }

    #[test]
    fn missing_component_names_the_full_path() {
        let mut stepped = Vec::new();
        let missing = chain(&p("/c0/c1/c2"), &[Permission::ALL], &mut stepped);
        assert_eq!(missing, Err(MetaError::NotFound("/c0/c1/c2".into())));
        assert_eq!(stepped, [0, 1]);
    }

    #[test]
    fn walk_resumes_below_a_known_prefix_and_passes_step_errors_through() {
        let from = ResolvedPath {
            id: InodeId(7),
            permission: Permission(0b101),
        };
        let mut seen = Vec::new();
        let at = walk(&p("/a/b/c/d"), 2, from, |level, at, comp| {
            seen.push((level, at.id, comp.to_string()));
            Ok(Some((InodeId(at.id.0 + 1), Permission::ALL)))
        })
        .unwrap();
        assert_eq!(
            seen,
            [
                (2, InodeId(7), "c".to_string()),
                (3, InodeId(8), "d".to_string())
            ]
        );
        assert_eq!(
            at,
            ResolvedPath {
                id: InodeId(9),
                permission: Permission(0b101)
            }
        );
        let failed = walk(&p("/a"), 0, ROOT, |_, _, _| {
            Err(MetaError::NotADirectory("/a".into()))
        });
        assert_eq!(failed, Err(MetaError::NotADirectory("/a".into())));
    }

    #[test]
    fn split_leaf_of_the_root_is_invalid() {
        assert_eq!(p("/a/b").split_leaf().unwrap(), (p("/a"), "b"));
        assert_eq!(p("/a").split_leaf().unwrap(), (MetaPath::root(), "a"));
        assert!(matches!(
            MetaPath::root().split_leaf(),
            Err(MetaError::InvalidPath(_))
        ));
    }

    #[test]
    fn require_names_the_operand_path() {
        let read_only = ResolvedPath {
            id: InodeId(3),
            permission: Permission(0b101),
        };
        assert_eq!(read_only.require(Permission::READ, &p("/d/o")), Ok(()));
        assert_eq!(
            read_only.require(Permission::WRITE, &p("/d/o")),
            Err(MetaError::PermissionDenied("/d/o".into()))
        );
    }

    #[test]
    fn rename_precheck_table() {
        #[derive(Debug, PartialEq)]
        enum Verdict {
            Ok,
            Invalid,
            Loop,
        }
        let cases = [
            ("/", "/a", Verdict::Invalid),
            ("/a", "/", Verdict::Invalid),
            ("/a", "/a", Verdict::Invalid),
            ("/a/b", "/a/b", Verdict::Invalid),
            ("/a", "/a/b", Verdict::Loop),
            ("/a", "/a/b/c", Verdict::Loop),
            // A shared byte prefix is not an ancestor.
            ("/a", "/ab", Verdict::Ok),
            ("/a", "/ab/c", Verdict::Ok),
            // Moving up, or across, is fine.
            ("/a/b", "/a", Verdict::Ok),
            ("/a/b", "/c", Verdict::Ok),
            ("/a/b", "/a/c", Verdict::Ok),
        ];
        for (src, dst, want) in cases {
            let got = match p(src).rename_precheck(&p(dst)) {
                Ok(()) => Verdict::Ok,
                Err(MetaError::InvalidRename(_)) => Verdict::Invalid,
                Err(MetaError::RenameLoop { .. }) => Verdict::Loop,
                Err(other) => panic!("{src} -> {dst}: {other:?}"),
            };
            assert_eq!(got, want, "{src} -> {dst}");
        }
    }
}
