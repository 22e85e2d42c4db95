//! The replicated IndexNode state machine and its lookup workflow.

use mantle_raft::StateMachine;
use mantle_sync::RemovalList;
use mantle_types::{
    resolve,
    ClientUuid,
    InodeId,
    MetaPath,
    Name,
    Permission,
    ResolvedPath,
    Result,
    SimConfig,
    ROOT_ID, //
};

use crate::cache::{CachedPrefix, TopDirPathCache};
use crate::table::{IndexEntry, IndexTable};

/// A Raft-replicated IndexTable mutation.
///
/// Every command is deterministic: the leader validates before proposing,
/// so apply never fails; cache-invalidation information travels inside the
/// command ("operations requiring cache invalidation append the full paths
/// of affected directories to the Raft logs", §5.1.3).
#[derive(Clone, Debug)]
pub enum IndexCmd {
    /// Raft term-start barrier; applies as a no-op.
    Noop,
    /// mkdir: register a new directory's access metadata.
    InsertDir {
        /// Parent directory id.
        pid: InodeId,
        /// Directory name.
        name: Name,
        /// New directory id.
        id: InodeId,
        /// Permission mask.
        permission: Permission,
    },
    /// rmdir: drop a directory's access metadata.
    ///
    /// §5.1.2 argues rmdir needs no RemovalList entry (an empty directory
    /// cannot be the prefix of a live deeper path); we still invalidate the
    /// exact cached prefix so a later re-creation under the same name can
    /// never resurrect a stale id.
    RemoveDir {
        /// Parent directory id.
        pid: InodeId,
        /// Directory name.
        name: Name,
        /// Full path, for cache invalidation.
        path: MetaPath,
    },
    /// setattr: change a directory's permission mask (invalidates every
    /// cached prefix underneath, since aggregated permissions changed).
    SetPermission {
        /// Parent directory id.
        pid: InodeId,
        /// Directory name.
        name: Name,
        /// New permission mask.
        permission: Permission,
        /// Full path, for cache invalidation.
        path: MetaPath,
    },
    /// dirrename step 4+5 (Figure 9): record the source path in the
    /// RemovalList and set its lock bit.
    RenamePrepare {
        /// Source parent id.
        src_pid: InodeId,
        /// Source name.
        src_name: Name,
        /// Owning request (idempotent re-entry on proxy failover, §5.3).
        uuid: ClientUuid,
        /// Full source path.
        src_path: MetaPath,
    },
    /// dirrename step 8b: move the access-metadata edge, clear the lock
    /// ("released when the access metadata of the source directory is
    /// deleted"), invalidate, and drop the RemovalList entry.
    RenameCommit {
        /// Source parent id.
        src_pid: InodeId,
        /// Source name.
        src_name: Name,
        /// Destination parent id.
        dst_pid: InodeId,
        /// Destination name.
        dst_name: Name,
        /// Owning request.
        uuid: ClientUuid,
        /// Full source path.
        src_path: MetaPath,
    },
    /// dirrename failure path: release the lock and the RemovalList entry.
    RenameAbort {
        /// Source parent id.
        src_pid: InodeId,
        /// Source name.
        src_name: Name,
        /// Owning request.
        uuid: ClientUuid,
        /// Full source path.
        src_path: MetaPath,
    },
}

/// The outcome of one local path resolution.
#[derive(Clone, Debug)]
pub struct ResolveOutcome {
    /// The resolution result.
    pub result: Result<ResolvedPath>,
    /// Whether the TopDirPathCache served the prefix.
    pub cache_hit: bool,
    /// Whether the path was deep enough to consult the cache at all.
    pub cacheable: bool,
    /// IndexTable levels walked.
    pub levels_walked: usize,
    /// Namespace version of the leaf entry when resolution succeeded
    /// (0 for the root, which has no entry and never moves). Stamped onto
    /// leased resolution replies (DESIGN.md §4.13).
    pub leaf_version: u64,
}

/// Per-replica IndexNode state: IndexTable + TopDirPathCache + RemovalList.
pub struct IndexSm {
    /// The directory access-metadata index.
    pub table: IndexTable,
    /// The prefix cache.
    pub cache: TopDirPathCache,
    /// In-flight-modification list guarding the cache.
    pub removal: RemovalList,
    config: SimConfig,
    /// The namespace root's directory id (multi-namespace deployments give
    /// each namespace a distinct root inside the shared TafDB, §7.1).
    root: InodeId,
}

/// A decoded snapshot image: the table's entries and the in-flight markers.
type Image = (Vec<(InodeId, Name, IndexEntry)>, Vec<MetaPath>);

impl IndexSm {
    /// Creates an empty state machine. `k`/`cache_enabled` configure the
    /// TopDirPathCache (§5.1.1).
    pub fn new(config: SimConfig, k: usize, cache_enabled: bool) -> Self {
        Self::with_root(config, k, cache_enabled, ROOT_ID)
    }

    /// What a snapshot image holds, or `None` — never a panic — when it is
    /// not exactly what [`StateMachine::snapshot`] writes.
    fn decode(image: &[u8]) -> Option<Image> {
        use mantle_types::snapshot::SnapshotReader;
        let mut r = SnapshotReader::new(image);
        let entries = IndexTable::decode(&mut r)?;
        let paths = (0..r.checked(8, SnapshotReader::u64)?)
            .map(|_| MetaPath::parse(&r.checked_str()?).ok())
            .collect::<Option<Vec<_>>>()?;
        r.is_empty().then_some((entries, paths))
    }

    /// Creates a state machine whose walks start at `root` instead of the
    /// default namespace root.
    pub fn with_root(config: SimConfig, k: usize, cache_enabled: bool, root: InodeId) -> Self {
        IndexSm {
            table: IndexTable::new(),
            cache: TopDirPathCache::new(k, cache_enabled),
            removal: RemovalList::new(),
            config,
            root,
        }
    }

    /// The namespace root id this replica resolves from.
    pub fn root(&self) -> InodeId {
        self.root
    }

    /// The state every walk from the namespace root starts in.
    fn root_state(&self) -> ResolvedPath {
        ResolvedPath {
            id: self.root,
            permission: Permission::ALL,
        }
    }

    /// Resolves a *directory* path against this replica's local state —
    /// Figure 7's workflow: RemovalList scan, TopDirPathCache probe,
    /// IndexTable walk, conditional cache fill.
    pub fn resolve(&self, path: &MetaPath) -> ResolveOutcome {
        let seen = self.observe_removals(path);
        self.resolve_observed(path, seen)
    }

    /// Step 1 of [`IndexSm::resolve`]: what the lookup sees of the
    /// RemovalList before it resolves — `(version, conflict)`, lock-free
    /// when the list is empty. The version is loaded *first*: a
    /// modification recorded after it fails the fill's version check, one
    /// recorded before it is seen by this scan or has already invalidated.
    /// (Scan first and a `RenamePrepare` landing between the two loads
    /// would pass the version check once its commit lifted the entry.)
    fn observe_removals(&self, path: &MetaPath) -> (u64, bool) {
        let version = self.removal.version();
        (version, self.removal.conflicts_with(path))
    }

    /// Steps 2–3 of [`IndexSm::resolve`], under the observation
    /// [`IndexSm::observe_removals`] took. (The root has no prefix to cache
    /// and no level to walk: it resolves to the state the walk starts in.)
    fn resolve_observed(&self, path: &MetaPath, seen: (u64, bool)) -> ResolveOutcome {
        let (version, conflict) = seen;
        let prefix = self.cache.prefix_of(path);
        let cacheable = prefix.is_some();
        let prefix = prefix.filter(|_| !conflict);
        let prefix_depth = prefix.as_ref().map(MetaPath::depth);

        // Step 2: probe TopDirPathCache with the truncated prefix.
        let hit = prefix.as_ref().and_then(|prefix| self.cache.get(prefix));
        let (skip, from) = match (hit, prefix_depth) {
            (Some(hit), Some(depth)) => (
                depth,
                ResolvedPath {
                    id: hit.pid,
                    permission: hit.permission,
                },
            ),
            _ => (0, self.root_state()),
        };

        // Step 3: level-by-level walk through the IndexTable, in one pass —
        // below the cached prefix on a hit, the whole path on a miss.
        let (result, levels, mut leaf_version, at_prefix) =
            self.walk_table(path, skip, from, prefix_depth);
        self.charge_levels(levels);

        if hit.is_some() {
            if levels == 0 && result.is_ok() {
                // k = 0 caches the full path: the walk touched no entry,
                // so re-derive the leaf's version from the table.
                leaf_version = self.walk_table(path, 0, self.root_state(), None).2;
            }
        } else if let (Some(prefix), Ok(resolved)) = (prefix, &result) {
            // Cache fill: only when the prefix was cacheable, resolution
            // succeeded, and no modification raced us (timestamp check).
            // With k = 0 the prefix is the path and its state the result.
            let at = at_prefix.unwrap_or(*resolved);
            self.cache.try_fill(
                prefix,
                CachedPrefix {
                    pid: at.id,
                    permission: at.permission,
                },
                || self.removal.version() == version && !self.removal.conflicts_with(path),
            );
        }
        ResolveOutcome {
            result,
            cache_hit: hit.is_some(),
            cacheable,
            levels_walked: levels,
            leaf_version,
        }
    }

    /// One uncharged pass of [`resolve::walk`] over the IndexTable, keeping
    /// what the pass has in hand: the result, the levels stepped, the
    /// namespace version of the last entry read (the leaf's on success; 0
    /// when the walk ends where it started) and the state the walk was in
    /// at `note_depth`, if it stepped from there.
    fn walk_table(
        &self,
        path: &MetaPath,
        skip: usize,
        from: ResolvedPath,
        note_depth: Option<usize>,
    ) -> (Result<ResolvedPath>, usize, u64, Option<ResolvedPath>) {
        let (mut levels, mut version, mut noted) = (0, 0, None);
        let result = resolve::walk(path, skip, from, |level, at, comp| {
            levels += 1;
            if note_depth == Some(level) {
                noted = Some(at);
            }
            Ok(self.table.get(at.id, comp).map(|entry| {
                version = entry.version;
                (entry.id, entry.permission)
            }))
        });
        (result, levels, version, noted)
    }

    /// Injects the per-level CPU cost of the local IndexTable accesses
    /// (§5.1) as one delay: micro-sleeps per level would overshoot the OS
    /// timer resolution by an order of magnitude and distort the model.
    fn charge_levels(&self, levels: usize) {
        mantle_rpc::inject_delay(std::time::Duration::from_micros(
            self.config.index_level_micros * levels as u64,
        ));
    }
}

impl StateMachine for IndexSm {
    type Command = IndexCmd;

    fn apply(&self, _index: u64, cmd: &IndexCmd) {
        match cmd {
            IndexCmd::Noop => {}
            IndexCmd::InsertDir {
                pid,
                name,
                id,
                permission,
            } => {
                self.table.insert(
                    *pid,
                    name,
                    IndexEntry {
                        id: *id,
                        permission: *permission,
                        lock: None,
                        version: 1,
                    },
                );
            }
            IndexCmd::RemoveDir { pid, name, path } => {
                self.table.remove(*pid, name);
                self.cache.invalidate_subtree(path);
            }
            IndexCmd::SetPermission {
                pid,
                name,
                permission,
                path,
            } => {
                // Block cache use for the subtree while the change lands,
                // exactly the dirrename dance but without a lock bit.
                self.removal.insert(path.clone());
                self.table.update(*pid, name, |e| {
                    e.permission = *permission;
                    e.version += 1;
                });
                self.cache.invalidate_subtree(path);
                self.removal.remove(path);
            }
            IndexCmd::RenamePrepare {
                src_pid,
                src_name,
                uuid,
                src_path,
            } => {
                self.removal.insert(src_path.clone());
                self.table.try_lock(*src_pid, src_name, *uuid);
            }
            IndexCmd::RenameCommit {
                src_pid,
                src_name,
                dst_pid,
                dst_name,
                uuid: _,
                src_path,
            } => {
                if let Some(mut entry) = self.table.remove(*src_pid, src_name) {
                    entry.lock = None;
                    // The moved directory's leases must all revalidate.
                    entry.version += 1;
                    self.table.insert(*dst_pid, dst_name, entry);
                }
                self.cache.invalidate_subtree(src_path);
                self.removal.remove(src_path);
            }
            IndexCmd::RenameAbort {
                src_pid,
                src_name,
                uuid,
                src_path,
            } => {
                self.table.unlock(*src_pid, src_name, *uuid);
                self.removal.remove(src_path);
            }
        }
    }

    fn barrier() -> IndexCmd {
        IndexCmd::Noop
    }

    fn snapshot(&self) -> Vec<u8> {
        use mantle_types::snapshot::SnapshotWriter;
        let mut w = SnapshotWriter::new();
        self.table.encode(&mut w);
        // In-flight rename/setattr markers are part of the replicated state
        // (a snapshot can land between RenamePrepare and RenameCommit).
        let mut paths: Vec<String> = self
            .removal
            .snapshot()
            .iter()
            .map(|p| p.to_string())
            .collect();
        paths.sort();
        w.u64(paths.len() as u64);
        for p in &paths {
            w.str(p);
        }
        w.finish()
    }

    /// Installs an image only once all of it has decoded: a bad one
    /// leaves the state machine untouched.
    fn restore(&self, image: &[u8]) {
        let Some((entries, paths)) = Self::decode(image) else {
            return;
        };
        self.table.replace(entries);
        for p in self.removal.snapshot() {
            self.removal.remove(&p);
        }
        // The TopDirPathCache is derived state: dropping it entirely is
        // always safe (misses refill it, from the table restored above).
        self.cache.invalidate_subtree(&MetaPath::root());
        for p in paths {
            self.removal.insert(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_types::MetaError;

    fn p(s: &str) -> MetaPath {
        MetaPath::parse(s).unwrap()
    }

    fn sm(k: usize, cache: bool) -> IndexSm {
        let sm = IndexSm::new(SimConfig::instant(), k, cache);
        // Build /a/b/c/d/e with ids 2..=6.
        let names = ["a", "b", "c", "d", "e"];
        let mut pid = ROOT_ID;
        for (i, name) in names.iter().enumerate() {
            let id = InodeId(2 + i as u64);
            sm.apply(
                0,
                &IndexCmd::InsertDir {
                    pid,
                    name: Name::new(name),
                    id,
                    permission: Permission::ALL,
                },
            );
            pid = id;
        }
        sm
    }

    #[test]
    fn resolve_walks_to_leaf() {
        let sm = sm(3, true);
        let out = sm.resolve(&p("/a/b/c/d/e"));
        assert_eq!(out.result.unwrap().id, InodeId(6));
        assert!(!out.cache_hit);
        assert_eq!(out.levels_walked, 5);
        assert!(out.cacheable);
    }

    #[test]
    fn second_resolve_hits_cache_and_walks_less() {
        let sm = sm(3, true);
        sm.resolve(&p("/a/b/c/d/e"));
        assert_eq!(sm.cache.stats().entries, 1);
        let out = sm.resolve(&p("/a/b/c/d/e"));
        assert!(out.cache_hit);
        assert_eq!(out.levels_walked, 3);
        assert_eq!(out.result.unwrap().id, InodeId(6));
    }

    #[test]
    fn root_resolves_trivially() {
        let sm = sm(3, true);
        let out = sm.resolve(&MetaPath::root());
        assert_eq!(out.result.unwrap().id, ROOT_ID);
        assert_eq!(out.levels_walked, 0);
    }

    #[test]
    fn missing_component_is_not_found() {
        let sm = sm(3, true);
        assert!(matches!(
            sm.resolve(&p("/a/b/zzz/d/e")).result,
            Err(MetaError::NotFound(_))
        ));
        // The failed resolution must not have polluted the cache.
        assert_eq!(sm.cache.stats().entries, 0);
    }

    #[test]
    fn permission_aggregation_denies_traversal() {
        let sm = sm(3, true);
        // Remove exec from /a/b.
        sm.apply(
            0,
            &IndexCmd::SetPermission {
                pid: InodeId(2),
                name: Name::new("b"),
                permission: Permission(0b110),
                path: p("/a/b"),
            },
        );
        assert!(matches!(
            sm.resolve(&p("/a/b/c/d/e")).result,
            Err(MetaError::PermissionDenied(_))
        ));
        // /a/b itself still resolves (traversal checks apply to ancestors).
        let out = sm.resolve(&p("/a/b")).result.unwrap();
        assert_eq!(out.id, InodeId(3));
        assert!(!out.permission.allows(Permission::EXEC));
    }

    #[test]
    fn removal_list_conflict_bypasses_cache() {
        let sm = sm(3, true);
        sm.resolve(&p("/a/b/c/d/e")); // Fill cache with /a/b.
        sm.removal.insert(p("/a/b"));
        let out = sm.resolve(&p("/a/b/c/d/e"));
        assert!(!out.cache_hit, "conflicting lookup must bypass the cache");
        assert_eq!(out.levels_walked, 5);
        sm.removal.remove(&p("/a/b"));
        assert!(sm.resolve(&p("/a/b/c/d/e")).cache_hit);
    }

    #[test]
    fn fill_is_rejected_when_a_rename_lands_after_the_observation() {
        let sm = sm(3, true);
        sm.apply(
            0,
            &IndexCmd::InsertDir {
                pid: InodeId(4),
                name: Name::new("x"),
                id: InodeId(7),
                permission: Permission::ALL,
            },
        );
        let path = p("/a/b/c/d/e");
        // A lookup observes the RemovalList, then a whole rename (prepare
        // and commit) applies before the lookup walks and fills.
        let seen = sm.observe_removals(&path);
        let uuid = ClientUuid::generate();
        sm.apply(
            0,
            &IndexCmd::RenamePrepare {
                src_pid: InodeId(4),
                src_name: Name::new("x"),
                uuid,
                src_path: p("/a/b/c/x"),
            },
        );
        sm.apply(
            0,
            &IndexCmd::RenameCommit {
                src_pid: InodeId(4),
                src_name: Name::new("x"),
                dst_pid: ROOT_ID,
                dst_name: Name::new("moved"),
                uuid,
                src_path: p("/a/b/c/x"),
            },
        );
        assert!(sm.removal.is_empty(), "the commit lifted its entry");
        let out = sm.resolve_observed(&path, seen);
        assert_eq!(out.result.unwrap().id, InodeId(6));
        let stats = sm.cache.stats();
        assert_eq!(
            (stats.rejected_fills, stats.fills, stats.entries),
            (1, 0, 0)
        );
        assert!(matches!(
            sm.resolve(&p("/a/b/c/x")).result,
            Err(MetaError::NotFound(_))
        ));
        // A lookup that observes after the rename fills as usual.
        sm.resolve(&path);
        assert_eq!(sm.cache.stats().fills, 1);
    }

    #[test]
    fn rename_moves_edge_and_invalidates() {
        let sm = sm(2, true);
        // Cache a prefix under the soon-to-move directory.
        sm.resolve(&p("/a/b/c/d/e"));
        assert_eq!(sm.cache.stats().entries, 1);
        let uuid = ClientUuid::generate();
        sm.apply(
            0,
            &IndexCmd::RenamePrepare {
                src_pid: InodeId(3),
                src_name: Name::new("c"),
                uuid,
                src_path: p("/a/b/c"),
            },
        );
        assert!(sm.table.is_locked(InodeId(3), "c"));
        assert!(sm.removal.conflicts_with(&p("/a/b/c/d")));
        sm.apply(
            0,
            &IndexCmd::RenameCommit {
                src_pid: InodeId(3),
                src_name: Name::new("c"),
                dst_pid: ROOT_ID,
                dst_name: Name::new("moved"),
                uuid,
                src_path: p("/a/b/c"),
            },
        );
        // Commit scrubbed the stale prefix before any new lookup ran.
        assert_eq!(sm.cache.stats().entries, 0);
        // Old path gone, new path resolves, lock cleared.
        assert!(matches!(
            sm.resolve(&p("/a/b/c")).result,
            Err(MetaError::NotFound(_))
        ));
        assert_eq!(sm.resolve(&p("/moved/d/e")).result.unwrap().id, InodeId(6));
        // The moved directory's leases must revalidate: its version moved.
        assert_eq!(sm.resolve(&p("/moved")).leaf_version, 2);
        assert!(!sm.table.is_locked(ROOT_ID, "moved"));
        assert!(sm.removal.is_empty());
        // The successful lookup of the new location refilled the cache.
        assert_eq!(sm.cache.stats().entries, 1);
    }

    #[test]
    fn full_path_hit_reports_the_version_a_rename_bumped() {
        // k = 0 caches the full path: a hit walks nothing, and still has to
        // stamp the leaf's current namespace version on the reply.
        let sm = sm(0, true);
        let uuid = ClientUuid::generate();
        for cmd in [
            IndexCmd::RenamePrepare {
                src_pid: InodeId(3),
                src_name: Name::new("c"),
                uuid,
                src_path: p("/a/b/c"),
            },
            IndexCmd::RenameCommit {
                src_pid: InodeId(3),
                src_name: Name::new("c"),
                dst_pid: InodeId(2),
                dst_name: Name::new("moved"),
                uuid,
                src_path: p("/a/b/c"),
            },
        ] {
            sm.apply(0, &cmd);
        }
        let miss = sm.resolve(&p("/a/moved"));
        assert_eq!((miss.cache_hit, miss.levels_walked), (false, 2));
        assert_eq!(miss.leaf_version, 2);
        let hit = sm.resolve(&p("/a/moved"));
        assert!(hit.cache_hit);
        assert_eq!(hit.levels_walked, 0);
        assert_eq!(hit.result.unwrap().id, InodeId(4));
        assert_eq!(hit.leaf_version, 2);
    }

    #[test]
    fn rename_abort_releases_lock_and_removal() {
        let sm = sm(3, true);
        let uuid = ClientUuid::generate();
        sm.apply(
            0,
            &IndexCmd::RenamePrepare {
                src_pid: InodeId(3),
                src_name: Name::new("c"),
                uuid,
                src_path: p("/a/b/c"),
            },
        );
        sm.apply(
            0,
            &IndexCmd::RenameAbort {
                src_pid: InodeId(3),
                src_name: Name::new("c"),
                uuid,
                src_path: p("/a/b/c"),
            },
        );
        assert!(!sm.table.is_locked(InodeId(3), "c"));
        assert!(sm.removal.is_empty());
        // The directory is still where it was.
        assert_eq!(sm.resolve(&p("/a/b/c")).result.unwrap().id, InodeId(4));
    }

    #[test]
    fn remove_dir_invalidates_exact_prefix() {
        let sm = sm(2, true);
        sm.resolve(&p("/a/b/c/d/e")); // Caches /a/b/c.
        assert_eq!(sm.cache.stats().entries, 1);
        sm.apply(
            0,
            &IndexCmd::RemoveDir {
                pid: InodeId(3),
                name: Name::new("c"),
                path: p("/a/b/c"),
            },
        );
        assert_eq!(sm.cache.stats().entries, 0);
        assert!(matches!(
            sm.resolve(&p("/a/b/c")).result,
            Err(MetaError::NotFound(_))
        ));
    }

    #[test]
    fn snapshot_restore_round_trips_state() {
        let a = sm(3, true);
        // Leave an in-flight rename marker so locks and the RemovalList are
        // exercised by the image.
        a.apply(
            0,
            &IndexCmd::RenamePrepare {
                src_pid: InodeId(3),
                src_name: Name::new("c"),
                uuid: ClientUuid::generate(),
                src_path: p("/a/b/c"),
            },
        );
        let img = a.snapshot();
        let b = IndexSm::new(SimConfig::instant(), 3, true);
        b.restore(&img);
        assert_eq!(
            b.snapshot(),
            img,
            "restore must reproduce a byte-identical image"
        );
        assert!(b.table.is_locked(InodeId(3), "c"));
        assert!(b.removal.conflicts_with(&p("/a/b/c/d")));
        assert_eq!(b.resolve(&p("/a/b")).result.unwrap().id, InodeId(3));
    }

    proptest::proptest! {
        /// A truncated image is refused and random bytes are refused or
        /// installed whole: whatever `restore` does not install leaves the
        /// state machine as it was, and nothing panics.
        #[test]
        fn hostile_images_leave_the_state_untouched(
            cut in 0usize..4096,
            at in 0usize..4096,
            byte in proptest::prelude::any::<u8>(),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
        ) {
            let a = sm(3, true);
            a.apply(0, &IndexCmd::RenamePrepare {
                src_pid: InodeId(3),
                src_name: Name::new("c"),
                uuid: ClientUuid::generate(),
                src_path: p("/a/b/c"),
            });
            let img = a.snapshot();
            let mut flipped = img.clone();
            flipped[at % img.len()] = byte;
            let truncated = &img[..cut % img.len()];
            proptest::prop_assert!(IndexSm::decode(truncated).is_none());
            for image in [truncated, &flipped, &noise] {
                let b = sm(2, true);
                let before = b.snapshot();
                b.restore(image);
                if IndexSm::decode(image).is_none() {
                    proptest::prop_assert_eq!(b.snapshot(), before);
                }
            }
        }
    }

    #[test]
    fn disabled_cache_never_hits() {
        let sm = sm(3, false);
        sm.resolve(&p("/a/b/c/d/e"));
        let out = sm.resolve(&p("/a/b/c/d/e"));
        assert!(!out.cache_hit);
        assert!(!out.cacheable);
        assert_eq!(out.levels_walked, 5);
    }
}
