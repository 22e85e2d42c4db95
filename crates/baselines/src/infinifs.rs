//! The InfiniFS baseline: speculative parallel path resolution, CFS-style
//! relaxed directory modifications, a rename coordinator, and the optional
//! proxy-side path-lease cache standing in for AM-Cache (§3.3, §6.1).
//!
//! Directory ids are *predicted*: a directory's id is a hash of its full
//! path, so the proxy can issue the lookups of every level concurrently
//! without waiting for parents. A rename leaves the moved subtree's ids in
//! place, so predictions under a renamed prefix mispredict and resolution
//! falls back to sequential steps — InfiniFS's documented behaviour.
//!
//! A resolution issues its level-queries in rounds of up to
//! `MAX_PARALLEL`, each round behind a single injected round trip, so a
//! 10-level path takes one round whatever the client count. No shared
//! resolver pool is modeled: the "7.4 RTTs with 512 threads"
//! oversubscription effect of §3.3 is not reproduced (EXPERIMENTS.md,
//! Fig 17).

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{dir_step, relaxed_rmdir, ROOT};
use mantle_core::pathcache::{PathLeaseCache, PathLeaseConfig};
use mantle_core::{MantleConfig, Shell, SvcMetrics};
use mantle_rpc::{RetryPolicy, SimNode};
use mantle_tafdb::{attr_key, recipe, Front, Row, TafDb, TafDbOptions, TxnOp};
use mantle_types::{
    id::IdAllocator, resolve, BulkLoad, DirAttrMeta, InodeId, LeasedPath, MetaError, MetaPath,
    Name, Permission, Phase, RequestCtx, ResolvedPath, Result, RetryClass, SimConfig, ROOT_ID,
    SCALED_DB_SHARDS,
};

/// InfiniFS deployment options.
#[derive(Clone, Copy, Debug)]
pub struct InfiniFsOptions {
    /// Metadata shards (Table 2: 18 servers, scaled to 8).
    pub db_shards: usize,
}

impl Default for InfiniFsOptions {
    fn default() -> Self {
        InfiniFsOptions {
            db_shards: SCALED_DB_SHARDS,
        }
    }
}

/// Most speculative queries a single resolution issues per round.
const MAX_PARALLEL: usize = 16;

/// FNV-1a offset basis: the running hash of the empty path.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// The running FNV-1a hash `h` of a path, extended by one component and its
/// separator byte (which keeps `/ab` and `/a/b` apart).
fn hash_component(mut h: u64, comp: &str) -> u64 {
    for b in comp.bytes().chain([b'/']) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The directory id a running path hash predicts (high bit set so it can
/// never collide with the root id).
fn predicted_id(h: u64) -> InodeId {
    InodeId(h | (1 << 63))
}

/// Predicted directory id: a hash of the full path.
fn predict(path: &MetaPath) -> InodeId {
    predicted_id(path.components().fold(FNV_OFFSET, hash_component))
}

/// The InfiniFS-style metadata service.
pub struct InfiniFs {
    /// The shared table plane, relaxed.
    front: Front,
    config: SimConfig,
    coordinator: SimNode,
    /// Rename coordinator lock table: source paths of in-flight renames.
    rename_locks: Mutex<HashSet<MetaPath>>,
    /// Client-side path-lease cache — the same cache Mantle's proxy gets
    /// (Table-1 fairness; Figure 20's proxy-side metadata cache).
    pcache: PathLeaseCache,
    ops: SvcMetrics,
    /// `infinifs_mispredictions_total` — speculative levels that fell back
    /// to a sequential step (renamed ancestor).
    mispredictions: mantle_obs::Counter,
}

impl InfiniFs {
    /// Builds an InfiniFS-style service whose path-lease cache follows
    /// `MANTLE_PATH_CACHE`, like Mantle's default configuration.
    pub fn new(sim: SimConfig, opts: InfiniFsOptions) -> Arc<Self> {
        Self::with_path_cache(sim, opts, MantleConfig::default().pcache)
    }

    /// [`InfiniFs::new`] with an explicit path-lease cache configuration
    /// (Figure 20's cache-on/off legs).
    pub fn with_path_cache(
        sim: SimConfig,
        opts: InfiniFsOptions,
        pcache: PathLeaseConfig,
    ) -> Arc<Self> {
        let db_opts = TafDbOptions {
            n_shards: opts.db_shards,
            // No delta records: rename transactions conflict in place, the
            // source of its dirrename-s retry storms (§6.2).
            delta_records: false,
            ..TafDbOptions::default()
        };
        Arc::new(InfiniFs {
            front: Front::new(
                TafDb::new(sim, db_opts),
                Arc::new(IdAllocator::new()),
                TafDb::execute_relaxed,
            ),
            config: sim,
            coordinator: SimNode::new("infinifs-coord", sim.index_node_permits, sim),
            rename_locks: Mutex::new(HashSet::new()),
            pcache: PathLeaseCache::new(pcache, Self::NAME),
            ops: SvcMetrics::with_list(Self::NAME),
            mispredictions: mantle_obs::counter("infinifs_mispredictions_total", &[]),
        })
    }

    /// The underlying sharded table (inspection).
    pub fn db(&self) -> &Arc<TafDb> {
        self.front.db()
    }

    /// Installs (or clears) a fault plan on the shards and the rename
    /// coordinator node.
    pub fn install_faults(&self, plan: Option<Arc<mantle_rpc::FaultPlan>>) {
        self.db().install_faults(plan.clone());
        self.coordinator.set_faults(plan.clone());
        self.pcache.install_faults(plan);
    }

    /// The client-side path-lease cache (statistics, test inspection).
    pub fn path_cache(&self) -> &PathLeaseCache {
        &self.pcache
    }

    /// Speculative parallel resolution with sequential fallback on
    /// misprediction.
    fn speculative_resolve(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<ResolvedPath> {
        // Fire the speculative queries in rounds of up to MAX_PARALLEL, each
        // level under the parent id its prefix predicts (hashed once, as a
        // running hash; the first level hangs off the root).
        let mut rows: Vec<(InodeId, Option<Row>)> = Vec::with_capacity(path.depth());
        let (mut hash, mut pred_parent) = (FNV_OFFSET, ROOT_ID);
        for (level, comp) in path.components().enumerate() {
            if level % MAX_PARALLEL == 0 {
                // One injected round trip covers the whole parallel round.
                mantle_rpc::net_round_trip(&self.config);
            }
            let row = self.db().get_entry_batched(pred_parent, comp, stats)?;
            rows.push((pred_parent, row));
            hash = hash_component(hash, comp);
            pred_parent = predicted_id(hash);
        }

        // Validate the chain; mispredicted levels resolve sequentially.
        resolve::walk(path, 0, ROOT, |level, at, comp| {
            let (pred_parent, row) = &rows[level];
            if at.id == *pred_parent {
                return match row {
                    Some(Row::DirAccess { id, permission }) => Ok(Some((*id, *permission))),
                    Some(_) => Err(MetaError::NotADirectory(path.to_string())),
                    None => Ok(None),
                };
            }
            // Misprediction (renamed ancestor): sequential fallback.
            self.mispredictions.inc();
            mantle_obs::flight::annotate_with(|| format!("infinifs:mispredict level={level}"));
            dir_step(self.db().resolve_step(at.id, comp, stats), path)
        })
    }

    /// Acquires the coordinator's rename lock on `src` (one RPC).
    fn coordinator_lock(
        &self,
        src: &MetaPath,
        dst: &MetaPath,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        self.coordinator
            .try_rpc_named(stats, "coordinator_lock", || {
                let mut locks = self.rename_locks.lock();
                let conflict = locks.iter().any(|locked| {
                    locked.is_prefix_of(src)
                        || src.is_prefix_of(locked)
                        || locked.is_prefix_of(dst)
                        || dst.is_prefix_of(locked)
                });
                if conflict {
                    return Err(MetaError::RenameLocked(src.to_string()));
                }
                locks.insert(src.clone());
                Ok(())
            })?
    }

    /// Releases the rename lock. Must-deliver: the rename is already
    /// decided, and a lost unlock would wedge the subtree forever. It books
    /// on the op's own ctx: `deliver_named` lifts the deadline for the send.
    fn coordinator_unlock(&self, src: &MetaPath, stats: &mut RequestCtx) {
        mantle_rpc::deliver_named(stats, &self.coordinator, "coordinator_unlock", || {
            self.rename_locks.lock().remove(src);
        });
    }
}

impl Shell for InfiniFs {
    const NAME: &'static str = "infinifs";
    // InfiniFS "bypasses the execution phase for objstat, handling it in
    // the lookup phase" (§6.3): the final level rides the same speculative
    // fan-out.
    const OBJSTAT: Phase = Phase::Lookup;

    fn front(&self) -> &Front {
        &self.front
    }

    fn ops(&self) -> &SvcMetrics {
        &self.ops
    }

    /// The root short-circuit, then the path-lease cache when it is on,
    /// then speculative resolution.
    fn resolve(&self, dir: &MetaPath, stats: &mut RequestCtx) -> Result<ResolvedPath> {
        if dir.is_root() {
            return Ok(ROOT);
        }
        if self.pcache.enabled() {
            // No namespace-version metadata here: a revalidation is a full
            // speculative re-resolve whose pid is compared (version 0 on
            // both sides), so leases save RPCs only while live.
            let leased = |stats: &mut RequestCtx| {
                self.speculative_resolve(dir, stats)
                    .map(|resolved| LeasedPath {
                        resolved,
                        version: 0,
                        lease_ttl: self.pcache.config().lease_ttl,
                    })
            };
            return self
                .pcache
                .resolve(dir, "infinifs-proxy", stats, leased, leased);
        }
        self.speculative_resolve(dir, stats)
    }

    fn mkdir_in(
        &self,
        path: &MetaPath,
        parent: ResolvedPath,
        name: &str,
        stats: &mut RequestCtx,
    ) -> Result<InodeId> {
        let mut id = predict(path);
        let now = self.front.now();
        // CFS two-transaction strategy, sequenced by hand: (1) the new
        // directory's own attribute row, single shard, and as an
        // *insert* — a taken key is how a stale prediction shows;
        // (2) the entry under the parent plus the parent-attribute
        // bump, single shard, serialized by an atomic primitive (latch)
        // instead of aborting.
        let attr_row = |id| {
            [TxnOp::InsertUnique {
                key: attr_key(id),
                row: Row::DirAttr(DirAttrMeta::new(now, 0)),
            }]
        };
        let db = self.db();
        if let Err(MetaError::AlreadyExists(_)) = db.execute_relaxed(&attr_row(id), stats) {
            // The predicted id is taken: a directory created earlier at
            // this path was renamed away and kept its id. Fall back to
            // an unpredictable id — lookups below this directory will
            // mispredict and resolve sequentially, which is InfiniFS's
            // documented post-rename behaviour.
            id = self.front.alloc();
            db.execute_relaxed(&attr_row(id), stats)?;
        }
        let [entry, _attr_put, link] = recipe::mkdir(parent.id, name.into(), id, now);
        if let Err(e) = db.execute_relaxed(&[entry], stats) {
            let undo = TxnOp::Delete { key: attr_key(id) };
            let _ = db.execute_relaxed(&[undo], stats);
            return Err(e);
        }
        db.execute_relaxed(&[link], stats)?;
        // Scrub any cached NotFound verdict for the new directory.
        self.pcache.invalidate_exact(path);
        Ok(id)
    }

    fn rmdir_at(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<()> {
        let (parent, name) = stats.time(Phase::Lookup, |stats| self.resolve_parent(path, stats))?;
        stats.time(Phase::Execute, |stats| {
            let (dir, _) = self.db().resolve_step(parent.id, name, stats)?;
            relaxed_rmdir(&self.front, path, parent, name, dir, stats)?;
            self.pcache.invalidate_subtree(path);
            Ok(())
        })
    }

    fn rename(&self, src: &MetaPath, dst: &MetaPath, stats: &mut RequestCtx) -> Result<()> {
        src.rename_precheck(dst)?;
        let (src_parent, src_name, dst_parent, dst_name) = stats.time(Phase::Lookup, |stats| {
            let (sp, sn) = self.resolve_parent(src, stats)?;
            let (dp, dn) = self.resolve_parent(dst, stats)?;
            Ok::<_, MetaError>((sp, sn, dp, dn))
        })?;
        src_parent.require(Permission::WRITE, src)?;
        dst_parent.require(Permission::WRITE, dst)?;

        // Coordinator lock with retry (the paper's rename coordinator runs
        // on its own servers; conflicts abort and retry). Only
        // `RenameLocked` re-arms the lock attempt — everything else
        // (including conflicts from the metadata transaction below) aborts.
        RetryPolicy::rename().run(
            stats,
            |e| matches!(e, MetaError::RenameLocked(_)).then_some(RetryClass::Rename),
            |_, _| {},
            |stats| {
                stats.time(Phase::LoopDetect, |stats| {
                    self.coordinator_lock(src, dst, stats)
                })
            },
        )?;

        let out = stats.time(Phase::Execute, |stats| {
            let (src_id, src_perm) = self.db().resolve_step(src_parent.id, src_name, stats)?;
            let (ops, n) = recipe::rename(
                (src_parent.id, Name::new(src_name)),
                (dst_parent.id, Name::new(dst_name)),
                src_id,
                src_perm,
                self.front.now(),
            );
            // Distributed transaction with in-place attribute updates: the
            // no-wait conflicts under dirrename-s retry inside execute().
            self.db().execute(&ops[..n], stats)?;
            self.pcache.invalidate_subtree(src);
            self.pcache.invalidate_subtree(dst);
            Ok(())
        });
        self.coordinator_unlock(src, stats);
        out
    }
}

impl BulkLoad for InfiniFs {
    fn bulk_dir(&self, path: &MetaPath) -> InodeId {
        // Directory ids must match the speculative prediction.
        self.front
            .bulk_dir(ROOT_ID, path, |_, _, depth| predict(&path.prefix(depth)))
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

    fn svc() -> Arc<InfiniFs> {
        InfiniFs::new(SimConfig::instant(), InfiniFsOptions::default())
    }

    #[test]
    fn prediction_is_stable_and_collision_safe_for_root() {
        assert_eq!(predict(&p("/a/b")), predict(&p("/a/b")));
        assert_ne!(predict(&p("/a/b")), predict(&p("/a/c")));
        assert_ne!(predict(&p("/a")), ROOT_ID);
        // Concatenation ambiguity is broken by the separator byte.
        assert_ne!(predict(&p("/ab")), predict(&p("/a/b")));
    }

    #[test]
    fn speculative_lookup_resolves_unrenamed_chain() {
        let f = svc();
        f.bulk_dir(&p("/a/b/c/d/e"));
        let mut stats = RequestCtx::new();
        let resolved = f.lookup(&p("/a/b/c/d/e"), &mut stats).unwrap();
        assert_eq!(resolved.id, predict(&p("/a/b/c/d/e")));
        // All five levels queried (speculatively), none sequentially re-run.
        assert_eq!(stats.rpcs, 5);
    }

    #[test]
    fn concurrent_deep_resolves_take_one_round_each() {
        use mantle_types::clock::{self, TimeCategory};
        // Cache off whatever MANTLE_PATH_CACHE says: every lookup resolves.
        let f = InfiniFs::with_path_cache(
            SimConfig::default(),
            InfiniFsOptions::default(),
            PathLeaseConfig::default(),
        );
        let path = p("/l0/l1/l2/l3/l4/l5/l6/l7/l8/l9");
        f.bulk_dir(&path);
        // No resolver pool is shared between clients, so 16 concurrent
        // depth-10 resolutions are each exactly one round: one round trip
        // covering ten batched level-queries.
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    let before = clock::thread_time_stats();
                    let mut stats = RequestCtx::new();
                    f.lookup(&path, &mut stats).unwrap();
                    let spent = clock::thread_time_stats().saturating_sub(&before);
                    assert_eq!(spent.count(TimeCategory::Rtt), 1);
                    assert_eq!(spent.count(TimeCategory::Queue), 0);
                    assert_eq!(stats.rpcs, 10);
                });
            }
        });
    }

    #[test]
    fn rename_causes_misprediction_then_fallback_still_resolves() {
        let f = svc();
        f.bulk_dir(&p("/a/b/c"));
        f.bulk_dir(&p("/z"));
        let mut stats = RequestCtx::new();
        f.rename_dir(&p("/a/b"), &p("/z/b2"), &mut stats).unwrap();
        // The moved directory kept its old id (= predict("/a/b")), so the
        // speculative query for level "c" under predict("/z/b2") misses and
        // resolution falls back to sequential steps — but still succeeds.
        let mut lstats = RequestCtx::new();
        let resolved = f.lookup(&p("/z/b2/c"), &mut lstats).unwrap();
        assert_eq!(resolved.id, predict(&p("/a/b/c")));
        assert!(
            lstats.rpcs > 3,
            "misprediction must add sequential fallback RPCs, got {}",
            lstats.rpcs
        );
    }

    #[test]
    fn object_lifecycle_with_cfs_mkdir() {
        let f = svc();
        let mut stats = RequestCtx::new();
        f.mkdir(&p("/d"), &mut stats).unwrap();
        f.mkdir(&p("/d/e"), &mut stats).unwrap();
        f.create(&p("/d/e/o"), 11, &mut stats).unwrap();
        assert_eq!(f.objstat(&p("/d/e/o"), &mut stats).unwrap().size, 11);
        assert_eq!(f.dirstat(&p("/d/e"), &mut stats).unwrap().attrs.entries, 1);
        f.delete(&p("/d/e/o"), &mut stats).unwrap();
        f.rmdir(&p("/d/e"), &mut stats).unwrap();
        assert!(f.lookup(&p("/d/e"), &mut stats).is_err());
    }

    #[test]
    fn concurrent_renames_of_same_source_conflict_on_coordinator() {
        let f = svc();
        f.bulk_dir(&p("/s"));
        f.bulk_dir(&p("/t1"));
        f.bulk_dir(&p("/t2"));
        // Hold the lock manually, then observe the conflict.
        let mut stats = RequestCtx::new();
        f.coordinator_lock(&p("/s"), &p("/t1/x"), &mut stats)
            .unwrap();
        assert!(matches!(
            f.coordinator_lock(&p("/s"), &p("/t2/y"), &mut stats),
            Err(MetaError::RenameLocked(_))
        ));
        f.coordinator_unlock(&p("/s"), &mut stats);
        f.coordinator_lock(&p("/s"), &p("/t2/y"), &mut stats)
            .unwrap();
        f.coordinator_unlock(&p("/s"), &mut stats);
    }

    #[test]
    fn path_lease_hits_skip_rpcs() {
        let f = InfiniFs::with_path_cache(
            SimConfig::instant(),
            InfiniFsOptions::default(),
            PathLeaseConfig::enabled(),
        );
        f.bulk_dir(&p("/a/b/c"));
        let mut s1 = RequestCtx::new();
        f.lookup(&p("/a/b/c"), &mut s1).unwrap();
        assert_eq!(f.path_cache().stats().misses, 1);
        assert_eq!(s1.rpcs, 3);
        let mut s2 = RequestCtx::new();
        f.lookup(&p("/a/b/c"), &mut s2).unwrap();
        assert_eq!(f.path_cache().stats().hits, 1);
        assert_eq!(s2.rpcs, 0, "a live lease should bypass all metadata RPCs");
    }
}
