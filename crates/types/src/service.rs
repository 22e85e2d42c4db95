//! The metadata operation set every evaluated system implements.
//!
//! §6.3 evaluates seven operations — `create`, `delete`, `objstat`,
//! `dirstat`, `mkdir`, `rmdir`, `dirrename` (mdtest naming) — plus the raw
//! `lookup` primitive that Figure 17 sweeps. Mantle, Tectonic, InfiniFS and
//! LocoFS all implement this trait so workloads and benchmark harnesses are
//! generic over the system under test.

use crate::ctx::RequestCtx;
use crate::error::Result;
use crate::id::InodeId;
use crate::path::MetaPath;
use crate::record::{DirEntry, DirStat, ObjectMeta, ResolvedPath};

/// A hierarchical metadata service as seen from the COSS proxy layer.
///
/// Every method takes a [`RequestCtx`]; implementations charge simulated time
/// to the appropriate [`crate::Phase`] on its embedded stats recorder,
/// count RPCs, honour the propagated deadline and draw on its retry
/// budget, so the harnesses can regenerate the paper's latency breakdowns
/// and overload figures.
pub trait MetadataService: Send + Sync {
    /// Short system name used in benchmark output ("mantle", "tectonic", …).
    fn name(&self) -> &'static str;

    /// Resolves `path` to its directory id and aggregated permission.
    ///
    /// For a path naming an object, resolves the *parent* chain; services
    /// resolve all non-final components and check traversal permission at
    /// each level (§2.3).
    fn lookup(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<ResolvedPath>;

    /// Creates a directory. Parents must already exist (COSS mkdir is not
    /// recursive).
    fn mkdir(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<InodeId>;

    /// Removes an empty directory.
    fn rmdir(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<()>;

    /// Creates an object of `size` bytes, failing if it already exists.
    fn create(&self, path: &MetaPath, size: u64, ctx: &mut RequestCtx) -> Result<InodeId>;

    /// Deletes an object.
    fn delete(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<()>;

    /// Reads an object's metadata.
    fn objstat(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<ObjectMeta>;

    /// Reads a directory's merged attribute metadata.
    fn dirstat(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<DirStat>;

    /// Lists a directory's direct children.
    fn readdir(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<Vec<DirEntry>>;

    /// Atomically renames directory `src` to `dst` (dst must not exist),
    /// including across parents. Must reject renames that would create a
    /// loop (dst inside src).
    fn rename_dir(&self, src: &MetaPath, dst: &MetaPath, ctx: &mut RequestCtx) -> Result<()>;

    /// Paged listing, the COSS `LIST` API shape: up to `limit` children of
    /// `path` whose names sort strictly after `start_after` (ascending).
    /// Returns the page and whether more entries follow.
    ///
    /// The default implementation pages over [`Self::readdir`]; backends
    /// with ordered storage override it with a bounded range scan.
    fn list(
        &self,
        path: &MetaPath,
        start_after: Option<&str>,
        limit: usize,
        ctx: &mut RequestCtx,
    ) -> Result<(Vec<DirEntry>, bool)> {
        let mut entries = self.readdir(path, ctx)?;
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let skip = match start_after {
            Some(after) => entries.partition_point(|e| e.name.as_str() <= after),
            None => 0,
        };
        let truncated = entries.len() - skip > limit;
        let page = entries.into_iter().skip(skip).take(limit).collect();
        Ok((page, truncated))
    }
}

/// Bulk namespace population, bypassing simulated delays.
///
/// §6.1 populates each system with a billion entries before measuring; the
/// scaled-down equivalent still needs to skip per-entry network/fsync
/// delays. Every evaluated system implements this as the moral equivalent
/// of restoring from a snapshot.
pub trait BulkLoad {
    /// Ensures every directory on `path` exists (no simulated cost) and
    /// returns the final directory's id.
    fn bulk_dir(&self, path: &MetaPath) -> InodeId;

    /// Registers an object of `size` bytes at `path`, creating parent
    /// directories as needed (no simulated cost).
    fn bulk_object(&self, path: &MetaPath, size: u64);
}

impl<S: BulkLoad + ?Sized> BulkLoad for std::sync::Arc<S> {
    fn bulk_dir(&self, path: &MetaPath) -> InodeId {
        (**self).bulk_dir(path)
    }

    fn bulk_object(&self, path: &MetaPath, size: u64) {
        (**self).bulk_object(path, size)
    }
}

/// Blanket implementation so `Arc<S>` is itself a service.
impl<S: MetadataService + ?Sized> MetadataService for std::sync::Arc<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn lookup(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<ResolvedPath> {
        (**self).lookup(path, ctx)
    }

    fn mkdir(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<InodeId> {
        (**self).mkdir(path, ctx)
    }

    fn rmdir(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<()> {
        (**self).rmdir(path, ctx)
    }

    fn create(&self, path: &MetaPath, size: u64, ctx: &mut RequestCtx) -> Result<InodeId> {
        (**self).create(path, size, ctx)
    }

    fn delete(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<()> {
        (**self).delete(path, ctx)
    }

    fn objstat(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<ObjectMeta> {
        (**self).objstat(path, ctx)
    }

    fn dirstat(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<DirStat> {
        (**self).dirstat(path, ctx)
    }

    fn readdir(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<Vec<DirEntry>> {
        (**self).readdir(path, ctx)
    }

    fn rename_dir(&self, src: &MetaPath, dst: &MetaPath, ctx: &mut RequestCtx) -> Result<()> {
        (**self).rename_dir(src, dst, ctx)
    }

    fn list(
        &self,
        path: &MetaPath,
        start_after: Option<&str>,
        limit: usize,
        ctx: &mut RequestCtx,
    ) -> Result<(Vec<DirEntry>, bool)> {
        (**self).list(path, start_after, limit, ctx)
    }
}
