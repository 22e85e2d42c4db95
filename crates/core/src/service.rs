//! The operation set every evaluated system serves (§6.3's seven mdtest ops
//! plus Figure 17's `lookup`), so workloads and harnesses are generic over
//! the system, and the one shell Mantle, Tectonic and InfiniFS serve it
//! through. The paper runs every op as a lookup phase, then an execution
//! phase (§4, Figure 5), and §6.1 puts the baselines on Mantle's table, so
//! those three differ only in how they resolve a directory and mutate one:
//! each is a [`Shell`]. LocoFS splits its rows between a directory server
//! and the object DB (§3.3) and keeps an implementation of its own.

use std::sync::Arc;

use mantle_obs::Counter;
use mantle_tafdb::Front;
use mantle_types::{
    DirEntry, DirStat, InodeId, MetaPath, ObjectMeta, Permission, Phase, RequestCtx, ResolvedPath,
    Result,
};

/// A hierarchical metadata service as seen from the COSS proxy layer.
///
/// Every method takes a [`RequestCtx`]; implementations charge simulated time
/// to the appropriate [`Phase`] on its embedded stats recorder, count RPCs,
/// honour the propagated deadline and draw on its retry budget, so the
/// harnesses can regenerate the paper's latency breakdowns and overload
/// figures.
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

/// Blanket implementation so `Arc<S>` is itself a service.
impl<S: MetadataService + ?Sized> MetadataService for Arc<S> {
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

/// Per-operation service counters (`service_ops_total{system,op}`): each
/// system counts an op once, on entry, into the handle named after the
/// [`MetadataService`] method. Created once per service so the per-op cost
/// is a single atomic increment. These nine every system serves; Mantle's
/// `setattr` is held, from [`SvcMetrics::op`], by the one system that
/// serves it, so no system registers a series it never counts.
pub struct SvcMetrics {
    pub lookup: Counter,
    pub mkdir: Counter,
    pub rmdir: Counter,
    pub create: Counter,
    pub delete: Counter,
    pub objstat: Counter,
    pub dirstat: Counter,
    pub readdir: Counter,
    pub rename_dir: Counter,
    /// `list`, held by the systems that serve it under that name — every
    /// [`Shell`]. LocoFS pages `list` over `readdir` and holds none.
    pub list: Option<Counter>,
}

impl SvcMetrics {
    /// The nine counters of `system` (the service's `name()`), no `list`.
    pub fn new(system: &str) -> Self {
        let op = |o| Self::op(system, o);
        SvcMetrics {
            lookup: op("lookup"),
            mkdir: op("mkdir"),
            rmdir: op("rmdir"),
            create: op("create"),
            delete: op("delete"),
            objstat: op("objstat"),
            dirstat: op("dirstat"),
            readdir: op("readdir"),
            rename_dir: op("rename_dir"),
            list: None,
        }
    }

    /// [`SvcMetrics::new`] plus `list`: the counter set of a [`Shell`].
    pub fn with_list(system: &str) -> Self {
        SvcMetrics {
            list: Some(Self::op(system, "list")),
            ..Self::new(system)
        }
    }

    /// The handle of `service_ops_total{system,op}`.
    pub fn op(system: &str, op: &str) -> Counter {
        mantle_obs::counter("service_ops_total", &[("system", system), ("op", op)])
    }
}

/// What a table-backed system supplies: how it resolves a directory and how
/// it mutates one. Everything else an op does — counting it, the
/// `Lookup`/`Execute` phases, the `WRITE` a `mkdir` states, and what a
/// resolved parent turns into on the table — is the one
/// [`MetadataService`] implementation over it.
pub trait Shell: Send + Sync {
    /// The system's name, as [`MetadataService::name`] reports it.
    const NAME: &'static str;

    /// The phase an `objstat`'s object read is charged to: InfiniFS answers
    /// it inside its lookup phase (§6.3), everyone else in `Execute`.
    const OBJSTAT: Phase = Phase::Execute;

    /// The system's table plane.
    fn front(&self) -> &Front;

    /// The system's `service_ops_total` handles ([`SvcMetrics::with_list`]).
    fn ops(&self) -> &SvcMetrics;

    /// Resolves the directory `dir` (charged to `Lookup` by the caller).
    fn resolve(&self, dir: &MetaPath, ctx: &mut RequestCtx) -> Result<ResolvedPath>;

    /// Resolves the parent directory of `path`: `(parent, leaf name)`.
    fn resolve_parent<'p>(
        &self,
        path: &'p MetaPath,
        ctx: &mut RequestCtx,
    ) -> Result<(ResolvedPath, &'p str)> {
        let (parent, name) = path.split_leaf()?;
        Ok((self.resolve(&parent, ctx)?, name))
    }

    /// Creates directory `name` (the leaf of `path`) under `parent`, which
    /// was resolved under `Lookup` and holds `WRITE`; runs under `Execute`.
    fn mkdir_in(
        &self,
        path: &MetaPath,
        parent: ResolvedPath,
        name: &str,
        ctx: &mut RequestCtx,
    ) -> Result<InodeId>;

    /// The whole of [`MetadataService::rmdir`] after its count: the systems
    /// resolve the removed directory in different phases.
    fn rmdir_at(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<()>;

    /// The whole of [`MetadataService::rename_dir`] after its count: Mantle
    /// merges the lookup into loop detection, InfiniFS takes a coordinator
    /// lock, Tectonic reads the directory id under `Lookup`.
    fn rename(&self, src: &MetaPath, dst: &MetaPath, ctx: &mut RequestCtx) -> Result<()>;
}

impl<S: Shell> MetadataService for S {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn lookup(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<ResolvedPath> {
        self.ops().lookup.inc();
        ctx.time(Phase::Lookup, |ctx| self.resolve(path, ctx))
    }

    fn mkdir(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<InodeId> {
        self.ops().mkdir.inc();
        let (parent, name) = ctx.time(Phase::Lookup, |ctx| self.resolve_parent(path, ctx))?;
        ctx.time(Phase::Execute, |ctx| {
            parent.require(Permission::WRITE, path)?;
            self.mkdir_in(path, parent, name, ctx)
        })
    }

    fn rmdir(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<()> {
        self.ops().rmdir.inc();
        self.rmdir_at(path, ctx)
    }

    fn create(&self, path: &MetaPath, size: u64, ctx: &mut RequestCtx) -> Result<InodeId> {
        self.ops().create.inc();
        let (parent, name) = ctx.time(Phase::Lookup, |ctx| self.resolve_parent(path, ctx))?;
        self.front().create(path, parent, name, size, ctx)
    }

    fn delete(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<()> {
        self.ops().delete.inc();
        let (parent, name) = ctx.time(Phase::Lookup, |ctx| self.resolve_parent(path, ctx))?;
        self.front().delete(path, parent, name, ctx)
    }

    fn objstat(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<ObjectMeta> {
        self.ops().objstat.inc();
        let (parent, name) = ctx.time(Phase::Lookup, |ctx| self.resolve_parent(path, ctx))?;
        self.front().objstat(S::OBJSTAT, path, parent, name, ctx)
    }

    fn dirstat(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<DirStat> {
        self.ops().dirstat.inc();
        let dir = ctx.time(Phase::Lookup, |ctx| self.resolve(path, ctx))?;
        self.front().dirstat(dir, ctx)
    }

    fn readdir(&self, path: &MetaPath, ctx: &mut RequestCtx) -> Result<Vec<DirEntry>> {
        self.ops().readdir.inc();
        let dir = ctx.time(Phase::Lookup, |ctx| self.resolve(path, ctx))?;
        let (entries, _) = self.front().list(path, dir, None, usize::MAX, ctx)?;
        Ok(entries)
    }

    fn rename_dir(&self, src: &MetaPath, dst: &MetaPath, ctx: &mut RequestCtx) -> Result<()> {
        self.ops().rename_dir.inc();
        self.rename(src, dst, ctx)
    }

    fn list(
        &self,
        path: &MetaPath,
        start_after: Option<&str>,
        limit: usize,
        ctx: &mut RequestCtx,
    ) -> Result<(Vec<DirEntry>, bool)> {
        if let Some(list) = &self.ops().list {
            list.inc();
        }
        let dir = ctx.time(Phase::Lookup, |ctx| self.resolve(path, ctx))?;
        self.front().list(path, dir, start_after, limit, ctx)
    }
}
