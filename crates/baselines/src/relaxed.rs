//! The relaxed-consistency operations Tectonic and InfiniFS share (§6.1):
//! once the parent is resolved — the part that differs between the two —
//! an object create/delete or an rmdir is its recipe run by the relaxed
//! executor (independent single-row writes, the parent-attribute update
//! under a blocking latch), `dirstat`/`readdir`/`list` are plain reads of
//! the ordered shard store, and a bulk load is the same recipes applied
//! for free. A level of either system's walk is [`dir_step`].

use std::sync::atomic::{AtomicU64, Ordering};

use mantle_tafdb::{entry_view, recipe, Row, TafDb};
use mantle_types::{
    id::IdAllocator, DirEntry, DirStat, InodeId, MetaError, MetaPath, Permission, Phase,
    RequestCtx, ResolvedPath, Result, ROOT_ID,
};

/// Where every baseline's walk starts: the one namespace root.
pub(crate) const ROOT: ResolvedPath = ResolvedPath {
    id: ROOT_ID,
    permission: Permission::ALL,
};

/// One level of a DBtable walk of `path`, as `resolve::walk` takes it:
/// [`TafDb::resolve_step`]'s verdict, with a missing entry as `None` and an
/// object in the way — the kind only a system that reads rows can tell —
/// naming the whole path.
pub(crate) fn dir_step(
    step: Result<(InodeId, Permission)>,
    path: &MetaPath,
) -> Result<Option<(InodeId, Permission)>> {
    match step {
        Ok(entry) => Ok(Some(entry)),
        Err(MetaError::NotFound(_)) => Ok(None),
        Err(MetaError::NotADirectory(_)) => Err(MetaError::NotADirectory(path.to_string())),
        Err(other) => Err(other),
    }
}

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
        name: &str,
        size: u64,
        stats: &mut RequestCtx,
    ) -> Result<InodeId> {
        stats.time(Phase::Execute, |stats| {
            parent.require(Permission::WRITE, path)?;
            let id = self.ids.alloc();
            let ops = recipe::create(parent.id, name, id, size, 0, self.now());
            self.db.execute_relaxed(&ops, stats)?;
            Ok(id)
        })
    }

    pub(crate) fn delete(
        &self,
        path: &MetaPath,
        parent: ResolvedPath,
        name: &str,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        stats.time(Phase::Execute, |stats| {
            parent.require(Permission::WRITE, path)?;
            self.db.get_object(parent.id, name, stats)?;
            let ops = recipe::delete(parent.id, name, self.now());
            self.db.execute_relaxed(&ops, stats)
        })
    }

    /// `rmdir` of the resolved directory `dir`: the read that checks it is
    /// empty, then the recipe's three writes. (`ExpectEmptyDir` is the
    /// transactional form of that read and has no single-row one.)
    pub(crate) fn rmdir(
        &self,
        path: &MetaPath,
        parent: ResolvedPath,
        name: &str,
        dir: InodeId,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        parent.require(Permission::WRITE, path)?;
        if !self.db.readdir(dir, stats)?.is_empty() {
            return Err(MetaError::NotEmpty(path.to_string()));
        }
        // Entry first: with no transaction around the writes, the directory
        // must stop being reachable before its attribute row goes.
        let [attr, _expect_empty, entry, unlink] = recipe::rmdir(parent.id, name, dir, self.now());
        self.db.execute_relaxed(&[entry, attr, unlink], stats)
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

    /// Bulk-loads `path` and its missing ancestors; `new_id` names each
    /// directory created, given `path` and that directory's depth in it.
    pub(crate) fn bulk_dir(
        &self,
        path: &MetaPath,
        mut new_id: impl FnMut(&MetaPath, usize) -> InodeId,
    ) -> InodeId {
        let mut pid = ROOT_ID;
        for (depth, comp) in path.components().enumerate() {
            match self.db.raw_get(&entry_view(pid, comp)) {
                Some(Row::DirAccess { id, .. }) => pid = id,
                Some(_) => panic!("bulk_dir crosses an object in {path}"),
                None => {
                    let id = new_id(path, depth + 1);
                    self.db.bulk_apply(recipe::mkdir(pid, comp, id, self.now()));
                    pid = id;
                }
            }
        }
        pid
    }

    /// Bulk-loads one object row under the (already bulk-loaded) directory
    /// `pid`.
    pub(crate) fn bulk_object(&self, pid: InodeId, name: &str, size: u64) {
        let id = self.ids.alloc();
        self.db
            .bulk_apply(recipe::create(pid, name, id, size, 0, self.now()));
    }
}
