//! The Tectonic-style DBtable baseline (§2.3, Figure 2).
//!
//! Path resolution traverses the hierarchy level by level, one RPC to the
//! owning shard per component ("multi-RPC path resolution"). Directory
//! modifications follow §6.1's re-implementation note: consistency is
//! relaxed — no distributed transactions; each row is written
//! independently, and the parent directory's attribute row is updated
//! under a blocking per-row latch (which is what serializes `mkdir-s`).

use std::sync::Arc;

use crate::{dir_step, relaxed_rmdir, ROOT};
use mantle_core::{Shell, SvcMetrics};
use mantle_tafdb::{recipe, Front, TafDb, TafDbOptions, TxnOp};
use mantle_types::{
    id::IdAllocator, resolve, BulkLoad, InodeId, MetaError, MetaPath, Permission, Phase,
    RequestCtx, ResolvedPath, Result, SimConfig,
};

/// Tectonic deployment options.
#[derive(Clone, Copy, Debug)]
pub struct TectonicOptions {
    /// Metadata shards. Table 2 gives Tectonic 21 metadata servers where
    /// the two-layer systems get 18 + 3; the scaled default keeps the
    /// ratio (10 vs 8).
    pub db_shards: usize,
    /// Use full distributed transactions for directory modifications.
    ///
    /// `false` (default) is the paper's §6.1 re-implementation: "we relax
    /// the consistency and avoid using distributed transactions". `true`
    /// models Baidu's original DBtable service, whose 2PC aborts under
    /// contention produce the Figure 4b collapse.
    pub transactional: bool,
}

impl Default for TectonicOptions {
    fn default() -> Self {
        TectonicOptions {
            db_shards: 10,
            transactional: false,
        }
    }
}

/// The DBtable-based metadata service.
pub struct Tectonic {
    /// The shared table plane; object ops stay relaxed in both flavours.
    front: Front,
    transactional: bool,
    ops: SvcMetrics,
}

impl Tectonic {
    /// Builds a Tectonic-style service over a fresh sharded table.
    pub fn new(sim: SimConfig, opts: TectonicOptions) -> Arc<Self> {
        let db_opts = TafDbOptions {
            n_shards: opts.db_shards,
            // No delta records: contended attribute updates serialize on
            // the row latch instead (§6.3).
            delta_records: false,
            ..TafDbOptions::default()
        };
        Arc::new(Tectonic {
            front: Front::new(
                TafDb::new(sim, db_opts),
                Arc::new(IdAllocator::new()),
                TafDb::execute_relaxed,
            ),
            transactional: opts.transactional,
            ops: SvcMetrics::with_list(Self::NAME),
        })
    }

    /// The underlying sharded table (inspection).
    pub fn db(&self) -> &Arc<TafDb> {
        self.front.db()
    }

    /// Installs (or clears) a fault plan on the underlying shards, so the
    /// chaos harness exercises baselines under the same fault profile.
    pub fn install_faults(&self, plan: Option<Arc<mantle_rpc::FaultPlan>>) {
        self.db().install_faults(plan);
    }

    /// Runs a directory modification's ops under this deployment's
    /// consistency model: the original DBtable service's one distributed
    /// transaction (Figure 2 steps 4a/4b, aborting on conflicts), or §6.1's
    /// independent writes.
    fn run(&self, ops: &[TxnOp], stats: &mut RequestCtx) -> Result<()> {
        if self.transactional {
            self.db().execute(ops, stats).map(drop)
        } else {
            self.db().execute_relaxed(ops, stats)
        }
    }
}

impl Shell for Tectonic {
    const NAME: &'static str = "tectonic";

    fn front(&self) -> &Front {
        &self.front
    }

    fn ops(&self) -> &SvcMetrics {
        &self.ops
    }

    /// Level-by-level traversal: one RPC per component (the dotted arrows
    /// of Figure 2), with a permission check at each step.
    fn resolve(&self, dir: &MetaPath, stats: &mut RequestCtx) -> Result<ResolvedPath> {
        resolve::walk(dir, 0, ROOT, |_, at, comp| {
            dir_step(self.db().resolve_step(at.id, comp, stats), dir)
        })
    }

    fn mkdir_in(
        &self,
        _: &MetaPath,
        parent: ResolvedPath,
        name: &str,
        stats: &mut RequestCtx,
    ) -> Result<InodeId> {
        let id = self.front.alloc();
        let ops = recipe::mkdir(parent.id, name.into(), id, self.front.now());
        self.run(&ops, stats)?;
        Ok(id)
    }

    fn rmdir_at(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<()> {
        let (dir, parent, name) = stats.time(Phase::Lookup, |stats| {
            let (parent, name) = self.resolve_parent(path, stats)?;
            let (id, _) = self.db().resolve_step(parent.id, name, stats)?;
            Ok::<_, MetaError>((id, parent, name))
        })?;
        stats.time(Phase::Execute, |stats| {
            relaxed_rmdir(&self.front, path, parent, name, dir, stats)
        })
    }

    fn rename(&self, src: &MetaPath, dst: &MetaPath, stats: &mut RequestCtx) -> Result<()> {
        // Proxy-side loop detection on the (unlocked) paths — the relaxed
        // consistency of the re-implementation.
        src.rename_precheck(dst)?;
        let (src_parent, src_name, dst_parent, dst_name) = stats.time(Phase::Lookup, |stats| {
            let (sp, sn) = self.resolve_parent(src, stats)?;
            let (dp, dn) = self.resolve_parent(dst, stats)?;
            Ok::<_, MetaError>((sp, sn, dp, dn))
        })?;
        stats.time(Phase::Execute, |stats| {
            src_parent.require(Permission::WRITE, src)?;
            dst_parent.require(Permission::WRITE, dst)?;
            let (src_id, src_perm) = self.db().resolve_step(src_parent.id, src_name, stats)?;
            let (mut ops, n) = recipe::rename(
                (src_parent.id, Arc::from(src_name)),
                (dst_parent.id, Arc::from(dst_name)),
                src_id,
                src_perm,
                self.front.now(),
            );
            if !self.transactional {
                // Destination first: stopped between the two writes, the
                // directory is reachable twice rather than not at all.
                ops.swap(0, 1);
            }
            self.run(&ops[..n], stats).inspect_err(|e| {
                mantle_obs::flight::annotate_with(|| format!("tectonic:rename err={e}"));
            })
        })
    }
}

impl BulkLoad for Tectonic {
    fn bulk_dir(&self, path: &MetaPath) -> InodeId {
        self.front
            .bulk_dir(ROOT.id, path, |_, _, _| self.front.alloc())
    }

    fn bulk_object(&self, path: &MetaPath, size: u64) {
        let (parent, name) = path.split_leaf().expect("objects cannot be the root");
        self.front
            .bulk_object(self.bulk_dir(&parent), name, size, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_core::MetadataService;

    fn p(s: &str) -> MetaPath {
        MetaPath::parse(s).unwrap()
    }

    fn svc() -> Arc<Tectonic> {
        Tectonic::new(SimConfig::instant(), TectonicOptions::default())
    }

    #[test]
    fn lookup_costs_one_rpc_per_level() {
        let t = svc();
        t.bulk_dir(&p("/a/b/c/d/e"));
        let mut lstats = RequestCtx::new();
        let resolved = t.lookup(&p("/a/b/c/d/e"), &mut lstats).unwrap();
        assert!(resolved.id.raw() > 1);
        assert_eq!(
            lstats.rpcs, 5,
            "level-by-level resolution: one RPC per level"
        );
    }

    #[test]
    fn object_lifecycle() {
        let t = svc();
        let mut stats = RequestCtx::new();
        t.mkdir(&p("/d"), &mut stats).unwrap();
        t.create(&p("/d/o"), 64, &mut stats).unwrap();
        assert_eq!(t.objstat(&p("/d/o"), &mut stats).unwrap().size, 64);
        assert_eq!(t.dirstat(&p("/d"), &mut stats).unwrap().attrs.entries, 1);
        t.delete(&p("/d/o"), &mut stats).unwrap();
        t.rmdir(&p("/d"), &mut stats).unwrap();
        assert!(t.lookup(&p("/d"), &mut stats).is_err());
    }

    #[test]
    fn rename_moves_subtree() {
        let t = svc();
        let mut stats = RequestCtx::new();
        t.bulk_dir(&p("/x/y"));
        t.bulk_object(&p("/x/y/o"), 7);
        t.bulk_dir(&p("/z"));
        t.rename_dir(&p("/x/y"), &p("/z/y2"), &mut stats).unwrap();
        assert_eq!(t.objstat(&p("/z/y2/o"), &mut stats).unwrap().size, 7);
        assert!(t.objstat(&p("/x/y/o"), &mut stats).is_err());
        assert!(matches!(
            t.rename_dir(&p("/z"), &p("/z/y2/inside"), &mut stats),
            Err(MetaError::RenameLoop { .. })
        ));
    }

    #[test]
    fn rmdir_nonempty_rejected() {
        let t = svc();
        let mut stats = RequestCtx::new();
        t.bulk_dir(&p("/d"));
        t.bulk_object(&p("/d/o"), 1);
        assert!(matches!(
            t.rmdir(&p("/d"), &mut stats),
            Err(MetaError::NotEmpty(_))
        ));
    }
}
