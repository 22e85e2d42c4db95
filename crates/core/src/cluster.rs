//! The Mantle proxy logic: every metadata operation, coordinated across
//! IndexNode and TafDB.

use std::sync::Arc;

use mantle_index::{IndexNode, IndexOptions};
use mantle_rpc::{classify_failover, classify_rename, RetryPolicy};
use mantle_tafdb::{recipe, Front, TafDb, TafDbOptions};
use mantle_types::{
    id::IdAllocator,
    ClientUuid,
    EnvConfig,
    InodeId,
    MetaError,
    MetaPath,
    Name,
    Permission,
    Phase,
    RequestCtx,
    ResolvedPath,
    Result,
    SimConfig, //
};

use crate::data::DataService;
use crate::pathcache::{PathCacheStats, PathLeaseCache, PathLeaseConfig};
use crate::service::{Shell, SvcMetrics};

/// Full configuration of a Mantle deployment.
#[derive(Clone, Copy, Debug)]
pub struct MantleConfig {
    /// Substrate timing/capacity.
    pub sim: SimConfig,
    /// IndexNode options (k, caching, follower reads, replication).
    pub index: IndexOptions,
    /// TafDB options (shards, delta records, group commit).
    pub db: TafDbOptions,
    /// Data-service node count.
    pub data_nodes: usize,
    /// Proxy-level retries for transient unavailability (leader failover).
    pub unavailable_retries: u32,
    /// Client-side path-lease cache (DESIGN.md §4.13; also the proxy-side
    /// metadata cache of the Figure 20 experiment). On by default iff
    /// `EnvConfig::path_cache` (`MANTLE_PATH_CACHE`) — off unless opted in,
    /// which keeps the cache-off latency pins byte-identical.
    pub pcache: PathLeaseConfig,
}

impl Default for MantleConfig {
    fn default() -> Self {
        MantleConfig {
            sim: SimConfig::default(),
            index: IndexOptions::default(),
            db: TafDbOptions::default(),
            data_nodes: 4,
            unavailable_retries: 600,
            pcache: PathLeaseConfig {
                enabled: EnvConfig::get().path_cache,
                ..PathLeaseConfig::default()
            },
        }
    }
}

impl MantleConfig {
    /// A configuration using `sim` everywhere, with `db_shards` TafDB
    /// shards.
    pub fn with_sim(sim: SimConfig, db_shards: usize) -> Self {
        let mut config = MantleConfig {
            sim,
            ..MantleConfig::default()
        };
        config.db.n_shards = db_shards;
        config
    }
}

/// A complete Mantle metadata-service deployment for one namespace.
pub struct MantleCluster {
    config: MantleConfig,
    /// The shared table plane, transactional: object ops, reads, the loader.
    front: Front,
    index: Arc<IndexNode>,
    data: Arc<DataService>,
    /// This namespace's root directory id (distinct per namespace when a
    /// region shares one TafDB across namespaces, §7.1).
    root: InodeId,
    /// Client-side path-lease cache (DESIGN.md §4.13).
    pcache: PathLeaseCache,
    ops: SvcMetrics,
    setattr_ops: mantle_obs::Counter,
}

impl MantleCluster {
    /// Builds a cluster from an explicit configuration.
    pub fn with_config(config: MantleConfig) -> Arc<Self> {
        let db = TafDb::new(config.sim, config.db);
        let data = Arc::new(DataService::new(config.sim, config.data_nodes));
        Self::with_shared(
            config,
            db,
            data,
            Arc::new(IdAllocator::new()),
            mantle_types::ROOT_ID,
        )
    }

    /// Builds a namespace over a *shared* TafDB/data service (§7.1: within
    /// a cluster "all namespaces share a common TafDB deployment"). The
    /// caller provides the region-wide id allocator and this namespace's
    /// root id, whose attribute row must already exist in `db`.
    pub fn with_shared(
        mut config: MantleConfig,
        db: Arc<TafDb>,
        data: Arc<DataService>,
        ids: Arc<IdAllocator>,
        root: InodeId,
    ) -> Arc<Self> {
        config.index.root = root;
        let index = Arc::new(IndexNode::new(config.sim, config.index));
        Arc::new(MantleCluster {
            config,
            front: Front::new(db, ids, |db, ops, stats| db.execute(ops, stats).map(drop)),
            index,
            data,
            root,
            pcache: PathLeaseCache::new(config.pcache, Self::NAME),
            ops: SvcMetrics::with_list(Self::NAME),
            setattr_ops: SvcMetrics::op(Self::NAME, "setattr"),
        })
    }

    /// This namespace's root directory id.
    pub fn root(&self) -> InodeId {
        self.root
    }

    /// Convenience constructor: timing `sim`, `db_shards` TafDB shards,
    /// defaults everywhere else.
    pub fn build(sim: SimConfig, db_shards: usize) -> Arc<Self> {
        Self::with_config(MantleConfig::with_sim(sim, db_shards))
    }

    /// A handle usable as a [`crate::MetadataService`] trait object.
    pub fn service(self: &Arc<Self>) -> Arc<Self> {
        Arc::clone(self)
    }

    /// The shared TafDB.
    pub fn db(&self) -> &Arc<TafDb> {
        self.front.db()
    }

    /// The namespace's IndexNode.
    pub fn index(&self) -> &Arc<IndexNode> {
        &self.index
    }

    /// The data service.
    pub fn data(&self) -> &Arc<DataService> {
        &self.data
    }

    /// The cluster configuration.
    pub fn config(&self) -> &MantleConfig {
        &self.config
    }

    /// Changes a directory's permission mask: replicated through the
    /// IndexNode (which invalidates affected cache prefixes, §5.1.2) and
    /// persisted in the TafDB entry row.
    pub fn setattr(
        &self,
        path: &MetaPath,
        permission: Permission,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        self.setattr_ops.inc();
        let (parent, name) = stats.time(Phase::Lookup, |stats| self.resolve_parent(path, stats))?;
        stats.time(Phase::Execute, |stats| {
            // Persist in TafDB first (source of truth), under the entry's
            // row lock, then refresh the IndexNode's access metadata.
            self.db()
                .execute(&recipe::setattr(parent.id, name, permission), stats)?;
            self.with_failover(stats, |stats| {
                self.index
                    .set_permission(parent.id, name, permission, path, stats)
            })?;
            // Aggregated permissions changed for everything underneath.
            self.pcache.invalidate_subtree(path);
            Ok(())
        })
    }

    /// Logical timestamp for mtime/ctime fields.
    pub fn now(&self) -> u64 {
        self.front.now()
    }

    /// Retries `f` across transient unavailability (IndexNode leader
    /// failover re-election windows) and injected transient faults, with
    /// bounded exponential backoff (200µs doubling, capped at 5ms).
    ///
    /// Safe to retry blindly: injected faults are request-loss only (the
    /// guarded work never ran), and multi-step operations carry a client
    /// UUID so server-side replays stay idempotent.
    fn with_failover<R>(
        &self,
        stats: &mut RequestCtx,
        f: impl FnMut(&mut RequestCtx) -> Result<R>,
    ) -> Result<R> {
        // StaleRoute: the DB's shard map moved under the op; the retry
        // re-routes against the refreshed snapshot. The engine books the
        // per-class retry stat and paces (modeled backoff plus real pacing,
        // since leader re-election runs on the real-time control plane).
        RetryPolicy::failover(self.config.unavailable_retries).run(
            stats,
            classify_failover,
            |_, e| {
                mantle_obs::flight::annotate_with(|| match e {
                    MetaError::Unavailable(at) => format!("failover:unavailable at={at}"),
                    MetaError::Transient { kind, at } => {
                        format!("failover:transient kind={kind} at={at}")
                    }
                    MetaError::Overloaded(at) => format!("failover:overloaded at={at}"),
                    _ => "failover:stale_route".to_string(),
                });
            },
            f,
        )
    }

    fn try_rename(
        &self,
        src: &MetaPath,
        dst: &MetaPath,
        uuid: ClientUuid,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        // Figure 9 steps 1–7: resolution + lock + loop detection, one RPC.
        // Mantle "records zero lookup time in dirrename since it is merged
        // with loop detection" (§6.3) — charged to the LoopDetect phase.
        let grant = stats.time(Phase::LoopDetect, |stats| {
            self.with_failover(stats, |stats| {
                self.index.rename_prepare(src, dst, uuid, stats)
            })
        })?;

        stats.time(Phase::Execute, |stats| {
            let dst_name = Name::new(dst.name().expect("non-root"));
            let now = self.now();
            let (ops, n) = recipe::rename(
                (grant.src_pid, grant.src_name.clone()),
                (grant.dst_pid, dst_name.clone()),
                grant.src_id,
                grant.permission,
                now,
            );
            match self.db().execute(&ops[..n], stats) {
                Ok(_) => {
                    self.with_failover(stats, |stats| {
                        self.index
                            .rename_commit(&grant, src, dst_name.clone(), uuid, stats)
                    })?;
                    // Both subtrees: sources go stale, and the destination
                    // side may hold negative verdicts for paths that exist
                    // now that the subtree moved in.
                    self.pcache.invalidate_subtree(src);
                    self.pcache.invalidate_subtree(dst);
                    Ok(())
                }
                Err(e) => {
                    self.with_failover(stats, |stats| {
                        self.index.rename_abort(&grant, src, uuid, stats)
                    })?;
                    Err(e)
                }
            }
        })
    }

    /// Installs a deterministic fault plan across every component: the
    /// IndexNode's Raft replicas (RPC + WAL + crash hooks), every TafDB
    /// shard (RPC + WAL + 2PC), and the data nodes.
    pub fn install_faults(&self, plan: &Arc<mantle_rpc::FaultPlan>) {
        self.index.install_faults(Some(plan.clone()));
        self.db().install_faults(Some(plan.clone()));
        self.data.install_faults(Some(plan.clone()));
        self.pcache.install_faults(Some(plan.clone()));
    }

    /// Removes a previously installed fault plan from every component.
    pub fn clear_faults(&self) {
        self.index.install_faults(None);
        self.db().install_faults(None);
        self.data.install_faults(None);
        self.pcache.install_faults(None);
    }

    /// The client-side path-lease cache (statistics, test inspection).
    pub fn path_cache(&self) -> &PathLeaseCache {
        &self.pcache
    }

    /// Path-lease cache statistics snapshot.
    pub fn path_cache_stats(&self) -> PathCacheStats {
        self.pcache.stats()
    }
}

impl Shell for MantleCluster {
    const NAME: &'static str = "mantle";

    fn front(&self) -> &Front {
        &self.front
    }

    fn ops(&self) -> &SvcMetrics {
        &self.ops
    }

    /// One IndexNode resolution, optionally short-circuited by the
    /// proxy-side path-lease cache (DESIGN.md §4.13).
    fn resolve(&self, dir: &MetaPath, stats: &mut RequestCtx) -> Result<ResolvedPath> {
        if self.pcache.enabled() {
            let ttl = self.pcache.config().lease_ttl;
            return self.pcache.resolve(
                dir,
                "proxy",
                stats,
                |stats| {
                    self.with_failover(stats, |stats| self.index.lookup_leased(dir, ttl, stats))
                },
                |stats| self.with_failover(stats, |stats| self.index.lease_check(dir, ttl, stats)),
            );
        }
        self.with_failover(stats, |stats| self.index.lookup(dir, stats))
    }

    fn mkdir_in(
        &self,
        path: &MetaPath,
        parent: ResolvedPath,
        name: &str,
        stats: &mut RequestCtx,
    ) -> Result<InodeId> {
        let id = self.front.alloc();
        let now = self.now();
        let name = Name::new(name);
        let ops = recipe::mkdir(parent.id, name.clone(), id, now);
        self.db().execute(&ops, stats)?;
        // Refresh the IndexNode's access metadata (Figure 5: "TafDB
        // updates all metadata while IndexNode refreshes access data").
        self.with_failover(stats, |stats| {
            self.index
                .insert_dir_shared(parent.id, name.clone(), id, Permission::ALL, stats)
        })?;
        // Scrub any cached NotFound verdict for the new directory.
        self.pcache.invalidate_exact(path);
        Ok(id)
    }

    fn rmdir_at(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<()> {
        let (dir, parent, name) = stats.time(Phase::Lookup, |stats| {
            let dir = self.with_failover(stats, |stats| self.index.lookup(path, stats))?;
            let (parent, name) = self.resolve_parent(path, stats)?;
            Ok::<_, MetaError>((dir, parent, name))
        })?;
        stats.time(Phase::Execute, |stats| {
            parent.require(Permission::WRITE, path)?;
            let now = self.now();
            let name = Name::new(name);
            let ops = recipe::rmdir(parent.id, name.clone(), dir.id, now);
            self.db().execute(&ops, stats)?;
            self.with_failover(stats, |stats| {
                self.index.remove_dir(parent.id, name.clone(), path, stats)
            })?;
            self.pcache.invalidate_subtree(path);
            Ok(())
        })
    }

    fn rename(&self, src: &MetaPath, dst: &MetaPath, stats: &mut RequestCtx) -> Result<()> {
        // Each retry of the whole operation keeps the same client UUID so a
        // lock left by an earlier (failed) attempt is re-entered (§5.3).
        let uuid = ClientUuid::generate();
        // The engine's rename pacing charges the modeled backoff to this
        // client's timeline and yields so the conflicting client can release
        // the lock in real time (or plain yields when RTT is zero).
        RetryPolicy::rename().run(
            stats,
            classify_rename,
            |_, e| {
                if matches!(
                    e,
                    MetaError::RenameLocked(_) | MetaError::TxnConflict { .. }
                ) {
                    mantle_obs::flight::annotate("rename:lock_conflict");
                }
            },
            |stats| self.try_rename(src, dst, uuid, stats),
        )
    }
}

impl mantle_types::BulkLoad for MantleCluster {
    fn bulk_dir(&self, path: &MetaPath) -> InodeId {
        self.front.bulk_dir(self.root, path, |pid, name, _| {
            let id = self.front.alloc();
            self.index.raw_insert_dir(pid, name, id, Permission::ALL);
            id
        })
    }

    fn bulk_object(&self, path: &MetaPath, size: u64) {
        let (parent, name) = path.split_leaf().expect("objects cannot be the root");
        let pid = self.bulk_dir(&parent);
        self.front
            .bulk_object(pid, name, size, self.data.raw_write(size));
    }
}
