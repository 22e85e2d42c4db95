//! The relaxed-consistency object and directory-read operations Tectonic
//! and InfiniFS share (§6.1): once the parent is resolved — the part that
//! differs between the two — an object create/delete is an independent
//! single-row write plus a blocking-latch parent-attribute update, and
//! `dirstat`/`readdir`/`list` are plain reads of the ordered shard store.

use std::sync::atomic::{AtomicU64, Ordering};

use mantle_tafdb::{attr_key, entry_key, Row, TafDb};
use mantle_types::{
    id::IdAllocator, AttrDelta, DirEntry, DirStat, InodeId, MetaError, MetaPath, ObjectMeta,
    Permission, Phase, RequestCtx, ResolvedPath, Result,
};

/// A baseline's table, id allocator and logical clock, borrowed for one
/// operation.
pub(crate) struct Relaxed<'a> {
    pub(crate) db: &'a TafDb,
    pub(crate) ids: &'a IdAllocator,
    pub(crate) clock: &'a AtomicU64,
}

impl Relaxed<'_> {
    /// Logical timestamp for mtime/ctime fields.
    pub(crate) fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn create(
        &self,
        path: &MetaPath,
        parent: ResolvedPath,
        name: String,
        size: u64,
        stats: &mut RequestCtx,
    ) -> Result<InodeId> {
        stats.time(Phase::Execute, |stats| {
            if !parent.permission.allows(Permission::WRITE) {
                return Err(MetaError::PermissionDenied(path.to_string()));
            }
            let id = self.ids.alloc();
            let now = self.now();
            let key = entry_key(parent.id, &name);
            self.db.insert_row(
                key,
                Row::Object(ObjectMeta {
                    pid: parent.id,
                    name,
                    id,
                    size,
                    blob: 0,
                    ctime: now,
                    permission: Permission::ALL,
                }),
                stats,
            )?;
            self.db.update_attr_latched(
                parent.id,
                AttrDelta {
                    nlink: 0,
                    entries: 1,
                    mtime: now,
                },
                stats,
            )?;
            Ok(id)
        })
    }

    pub(crate) fn delete(
        &self,
        parent: ResolvedPath,
        name: &str,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        stats.time(Phase::Execute, |stats| {
            self.db.get_object(parent.id, name, stats)?;
            let now = self.now();
            self.db.delete_row(entry_key(parent.id, name), stats)?;
            self.db.update_attr_latched(
                parent.id,
                AttrDelta {
                    nlink: 0,
                    entries: -1,
                    mtime: now,
                },
                stats,
            )?;
            Ok(())
        })
    }

    pub(crate) fn dirstat(&self, dir: ResolvedPath, stats: &mut RequestCtx) -> Result<DirStat> {
        stats.time(Phase::Execute, |stats| {
            let attrs = self.db.dir_stat(dir.id, stats)?;
            Ok(DirStat {
                id: dir.id,
                attrs,
                permission: dir.permission,
            })
        })
    }

    pub(crate) fn readdir(
        &self,
        dir: ResolvedPath,
        stats: &mut RequestCtx,
    ) -> Result<Vec<DirEntry>> {
        stats.time(Phase::Execute, |stats| self.db.readdir(dir.id, stats))
    }

    /// The shard store is ordered, so a page is a bounded engine range scan
    /// — not the default full-readdir-then-slice fallback.
    pub(crate) fn list(
        &self,
        dir: ResolvedPath,
        start_after: Option<&str>,
        limit: usize,
        stats: &mut RequestCtx,
    ) -> Result<(Vec<DirEntry>, bool)> {
        stats.time(Phase::Execute, |stats| {
            self.db.readdir_page(dir.id, start_after, limit, stats)
        })
    }

    /// Bulk-loads one object row under the (already bulk-loaded) directory
    /// `pid`, bypassing RPC accounting.
    pub(crate) fn bulk_object(&self, pid: InodeId, name: &str, size: u64) {
        let id = self.ids.alloc();
        let now = self.now();
        self.db.raw_put(
            entry_key(pid, name),
            Row::Object(ObjectMeta {
                pid,
                name: name.to_string(),
                id,
                size,
                blob: 0,
                ctime: now,
                permission: Permission::ALL,
            }),
        );
        if let Some(Row::DirAttr(mut attrs)) = self.db.raw_get(&attr_key(pid)) {
            attrs.apply_delta(&AttrDelta {
                nlink: 0,
                entries: 1,
                mtime: now,
            });
            self.db.raw_put(attr_key(pid), Row::DirAttr(attrs));
        }
    }
}
