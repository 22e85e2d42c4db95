//! Metadata records: the access/attribute split of §4 (Figure 6).
//!
//! Mantle partitions directory metadata into *access metadata* (what path
//! resolution and rename coordination need: parent id, name, own id,
//! permission, rename-lock bit) and *attribute metadata* (everything else:
//! timestamps, link counts, owner). TafDB stores both; the IndexNode stores
//! only the access part: a 72-byte slot per directory, about 100 bytes with
//! its hash map's free slots, the name inline when it is 22 bytes or less.

use serde::{Deserialize, Serialize};

use crate::id::InodeId;
use crate::perm::Permission;

/// Reserved name component that keys attribute/delta rows in TafDB
/// (§5.2.1, Figure 8).
pub const ATTR_ROW_NAME: &str = "/_ATTR";

/// The kind of a namespace entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum EntryKind {
    /// A directory.
    Dir,
    /// An object (file).
    Object,
}

/// Access metadata of a directory — the IndexTable row (Figure 6).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirAccessMeta {
    /// Parent directory id.
    pub pid: InodeId,
    /// Entry name under the parent.
    pub name: String,
    /// This directory's id.
    pub id: InodeId,
    /// Permission mask of this directory.
    pub permission: Permission,
}

/// Attribute metadata of a directory — stored only in TafDB.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirAttrMeta {
    /// Link count (number of child directories + 2 by POSIX convention).
    pub nlink: i64,
    /// Number of direct child entries (objects + directories).
    pub entries: i64,
    /// Creation time, seconds since an arbitrary epoch.
    pub ctime: u64,
    /// Last modification time.
    pub mtime: u64,
    /// Owner id.
    pub owner: u32,
}

impl DirAttrMeta {
    /// A fresh directory's attributes at creation time `now`.
    pub fn new(now: u64, owner: u32) -> Self {
        DirAttrMeta {
            nlink: 2,
            entries: 0,
            ctime: now,
            mtime: now,
            owner,
        }
    }

    /// Applies a delta record produced by a concurrent directory mutation.
    pub fn apply_delta(&mut self, delta: &AttrDelta) {
        self.nlink += delta.nlink;
        self.entries += delta.entries;
        self.mtime = self.mtime.max(delta.mtime);
    }
}

/// A signed attribute delta, the payload of a delta record (§5.2.1).
///
/// `mkdir` under `/A` appends `{nlink: +1, entries: +1}`; `rmdir` appends
/// `{nlink: -1, entries: -1}`; object create/delete appends `{entries: ±1}`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttrDelta {
    /// Link-count change.
    pub nlink: i64,
    /// Direct-entry-count change.
    pub entries: i64,
    /// Modification timestamp carried by the mutation.
    pub mtime: u64,
}

impl AttrDelta {
    /// The general form — what the row codec decodes. A mutation uses one
    /// of the five named deltas below.
    pub fn new(nlink: i64, entries: i64, mtime: u64) -> Self {
        AttrDelta {
            nlink,
            entries,
            mtime,
        }
    }

    /// A child directory was linked under the parent (`mkdir`, rename in).
    pub fn dir_linked(now: u64) -> Self {
        Self::new(1, 1, now)
    }

    /// A child directory was unlinked (`rmdir`, rename out).
    pub fn dir_unlinked(now: u64) -> Self {
        Self::new(-1, -1, now)
    }

    /// An object was created under the parent.
    pub fn entry_added(now: u64) -> Self {
        Self::new(0, 1, now)
    }

    /// An object was deleted.
    pub fn entry_removed(now: u64) -> Self {
        Self::new(0, -1, now)
    }

    /// Only the modification time moves (a rename within one parent).
    pub fn touch(now: u64) -> Self {
        Self::new(0, 0, now)
    }

    /// Folds `other` into this delta: applying the result equals applying
    /// both, in either order.
    pub fn merge(&mut self, other: &AttrDelta) {
        self.nlink += other.nlink;
        self.entries += other.entries;
        self.mtime = self.mtime.max(other.mtime);
    }
}

/// Object metadata (the green rows of Figure 2).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectMeta {
    /// Parent directory id.
    pub pid: InodeId,
    /// Object name under the parent.
    pub name: String,
    /// Object id.
    pub id: InodeId,
    /// Object size in bytes.
    pub size: u64,
    /// Location handle in the data service.
    pub blob: u64,
    /// Creation time.
    pub ctime: u64,
    /// Permission mask.
    pub permission: Permission,
}

impl ObjectMeta {
    /// A new object `name` under `pid`, created at `now` with every
    /// permission bit set.
    pub fn new(pid: InodeId, name: &str, id: InodeId, size: u64, blob: u64, now: u64) -> Self {
        ObjectMeta {
            pid,
            name: name.to_string(),
            id,
            size,
            blob,
            ctime: now,
            permission: Permission::ALL,
        }
    }
}

/// A `readdir` result row.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirEntry {
    /// Entry name.
    pub name: String,
    /// Entry kind.
    pub kind: EntryKind,
    /// Entry id.
    pub id: InodeId,
}

/// The product of path resolution: the resolved directory id plus the
/// aggregated permission along the path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedPath {
    /// Id of the final directory of the resolved path.
    pub id: InodeId,
    /// Intersection of permissions along the path (Lazy-Hybrid, §5.1.1).
    pub permission: Permission,
}

/// A versioned path-resolution reply (DESIGN.md §4.13): the resolved
/// target plus the namespace version of its leaf entry and the lease
/// duration the resolving service grants. Clients stamp
/// `expires = now + lease_ttl` on their own virtual clock at fill time;
/// an expired entry must be revalidated (one version-check RPC) before
/// the cached id may be used again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeasedPath {
    /// The resolved target.
    pub resolved: ResolvedPath,
    /// Monotonic namespace version of the leaf entry at resolution time
    /// (bumped by rename/chmod of the entry; see DESIGN.md §4.13).
    pub version: u64,
    /// Lease duration granted by the resolver.
    pub lease_ttl: std::time::Duration,
}

/// A full directory status (base attributes merged with pending deltas).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirStat {
    /// Directory id.
    pub id: InodeId,
    /// Merged attribute metadata.
    pub attrs: DirAttrMeta,
    /// Permission mask of the directory itself.
    pub permission: Permission,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_delta_application() {
        let mut attrs = DirAttrMeta::new(100, 0);
        attrs.apply_delta(&AttrDelta::dir_linked(120));
        attrs.apply_delta(&AttrDelta::entry_added(110));
        attrs.apply_delta(&AttrDelta::dir_unlinked(105));
        assert_eq!(attrs.nlink, 2);
        assert_eq!(attrs.entries, 1);
        assert_eq!(attrs.mtime, 120);
        assert_eq!(attrs.ctime, 100);
    }

    #[test]
    fn fresh_dir_attrs() {
        let attrs = DirAttrMeta::new(7, 42);
        assert_eq!(attrs.nlink, 2);
        assert_eq!(attrs.entries, 0);
        assert_eq!(attrs.owner, 42);
    }

    #[test]
    fn attr_row_name_is_not_a_valid_path_component() {
        assert!(crate::path::MetaPath::parse("/a/_ATTR").is_err());
    }
}
