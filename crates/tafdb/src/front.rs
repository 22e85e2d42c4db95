//! The table plane: what a front-end does with a *resolved* parent. TafDB
//! holds every row and the IndexNode only shortens resolution (§4,
//! Figure 5), and §6.1 re-implements Tectonic and InfiniFS over the same
//! table — so once the parent directory is known, an object
//! create/delete/stat, a `dirstat`, a listing and a bulk load are the same
//! rows in every system. [`recipe`] says which rows make a mutation; a
//! [`Front`] says what a resolved parent turns into: it states the
//! permission the operation needs ([`ResolvedPath::require`]), builds the
//! recipe and hands it to the executor its system was built with
//! (DESIGN.md §4.3). How a directory is resolved, and `mkdir` / `rmdir` /
//! `rename_dir`, are what differ between the systems: `mantle_core::Shell`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mantle_types::{
    id::IdAllocator, DirEntry, DirStat, InodeId, MetaPath, ObjectMeta, Permission, Phase,
    RequestCtx, ResolvedPath, Result,
};

use crate::schema::{entry_view, Row};
use crate::txn::TxnOp;
use crate::{recipe, TafDb};

/// How a system runs the ops of an object mutation: [`TafDb::execute`]'s
/// one transaction (Mantle) or [`TafDb::execute_relaxed`]'s independent
/// writes (§6.1's Tectonic and InfiniFS).
pub type Executor = fn(&TafDb, &[TxnOp], &mut RequestCtx) -> Result<()>;

/// One front-end's table, id allocator and logical clock, with the executor
/// its object mutations run under.
pub struct Front {
    db: Arc<TafDb>,
    ids: Arc<IdAllocator>,
    clock: AtomicU64,
    run: Executor,
}

impl Front {
    /// A plane over `db` drawing ids from `ids` (region-wide when namespaces
    /// share a table, §7.1) whose object mutations run under `run`.
    pub fn new(db: Arc<TafDb>, ids: Arc<IdAllocator>, run: Executor) -> Self {
        Front {
            db,
            ids,
            clock: AtomicU64::new(1),
            run,
        }
    }

    /// The table.
    pub fn db(&self) -> &Arc<TafDb> {
        &self.db
    }

    /// A fresh inode id.
    pub fn alloc(&self) -> InodeId {
        self.ids.alloc()
    }

    /// Logical timestamp for mtime/ctime fields.
    pub fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Creates object `name` (the leaf of `path`) under `parent`.
    pub fn create(
        &self,
        path: &MetaPath,
        parent: ResolvedPath,
        name: &str,
        size: u64,
        stats: &mut RequestCtx,
    ) -> Result<InodeId> {
        stats.time(Phase::Execute, |stats| {
            parent.require(Permission::WRITE, path)?;
            let id = self.alloc();
            let ops = recipe::create(parent.id, name, id, size, 0, self.now());
            (self.run)(&self.db, &ops, stats)?;
            Ok(id)
        })
    }

    /// Deletes object `name` under `parent`, after the read that checks it
    /// is an object and not a directory.
    pub fn delete(
        &self,
        path: &MetaPath,
        parent: ResolvedPath,
        name: &str,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        stats.time(Phase::Execute, |stats| {
            parent.require(Permission::WRITE, path)?;
            self.db.expect_object(parent.id, name, stats)?;
            let ops = recipe::delete(parent.id, name, self.now());
            (self.run)(&self.db, &ops, stats)
        })
    }

    /// Reads object `name` under `parent`, charged to `phase`: InfiniFS
    /// answers an `objstat` inside its lookup phase (§6.3), everyone else
    /// in `Execute`.
    pub fn objstat(
        &self,
        phase: Phase,
        path: &MetaPath,
        parent: ResolvedPath,
        name: &str,
        stats: &mut RequestCtx,
    ) -> Result<ObjectMeta> {
        stats.time(phase, |stats| {
            parent.require(Permission::READ, path)?;
            self.db.get_object(parent.id, name, stats)
        })
    }

    /// The attributes of the resolved directory `dir`, delta records merged.
    pub fn dirstat(&self, dir: ResolvedPath, stats: &mut RequestCtx) -> Result<DirStat> {
        stats.time(Phase::Execute, |stats| {
            let attrs = self.db.dir_stat(dir.id, stats)?;
            Ok(DirStat {
                id: dir.id,
                attrs,
                permission: dir.permission,
            })
        })
    }

    /// One page of `dir`'s children. The shard store is ordered, so a page
    /// is a bounded engine range scan — not the default
    /// full-readdir-then-slice fallback.
    pub fn list(
        &self,
        path: &MetaPath,
        dir: ResolvedPath,
        start_after: Option<&str>,
        limit: usize,
        stats: &mut RequestCtx,
    ) -> Result<(Vec<DirEntry>, bool)> {
        stats.time(Phase::Execute, |stats| {
            dir.require(Permission::READ, path)?;
            self.db.readdir_page(dir.id, start_after, limit, stats)
        })
    }

    /// Bulk-loads `path` and its missing ancestors below `root`, for free.
    /// `new_dir(pid, name, depth)` names each directory created — `depth` is
    /// its depth in `path` — and is where a system mirrors it elsewhere
    /// (Mantle's IndexNode).
    ///
    /// # Panics
    ///
    /// When an object sits where `path` needs a directory.
    pub fn bulk_dir(
        &self,
        root: InodeId,
        path: &MetaPath,
        mut new_dir: impl FnMut(InodeId, &str, usize) -> InodeId,
    ) -> InodeId {
        let mut pid = root;
        for (depth, comp) in path.components().enumerate() {
            match self.db.raw_get(&entry_view(pid, comp)) {
                Some(Row::DirAccess { id, .. }) => pid = id,
                Some(_) => panic!("bulk_dir crosses an object at {}", path.prefix(depth + 1)),
                None => {
                    let id = new_dir(pid, comp, depth + 1);
                    self.db
                        .bulk_apply(recipe::mkdir(pid, comp.into(), id, self.now()));
                    pid = id;
                }
            }
        }
        pid
    }

    /// Bulk-loads one object row under the (already bulk-loaded) directory
    /// `pid`.
    pub fn bulk_object(&self, pid: InodeId, name: &str, size: u64, blob: u64) {
        let id = self.alloc();
        self.db
            .bulk_apply(recipe::create(pid, name, id, size, blob, self.now()));
    }
}
