//! The IndexNode service facade: the Raft group and the proxy-facing
//! single-RPC operations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use mantle_raft::{RaftError, RaftGroup, RaftOptions, RaftReplica};
use mantle_rpc::SimNode;
use mantle_types::{
    ClientUuid, InodeId, LeasedPath, MetaError, MetaPath, Permission, RequestCtx, ResolvedPath,
    Result, SimConfig,
};

use crate::cache::CacheStats;
use crate::sm::{IndexCmd, IndexSm, ResolveOutcome};

/// IndexNode deployment options.
#[derive(Clone, Copy, Debug)]
pub struct IndexOptions {
    /// TopDirPathCache truncation distance; the paper settles on `k = 3`
    /// (§5.1.1, Figure 18).
    pub k: usize,
    /// Enable TopDirPathCache (`false` = Mantle-base of Figure 16).
    pub path_cache: bool,
    /// Serve lookups from followers/learners via batched ReadIndex
    /// (§5.1.3; `false` = pre-`+follower read` ablation).
    pub follower_reads: bool,
    /// Additional learner (read-only) replicas.
    pub learners: usize,
    /// Raft tuning (log batching etc.).
    pub raft: RaftOptions,
    /// The namespace root's directory id (distinct per namespace when
    /// several namespaces share one TafDB, §7.1).
    pub root: InodeId,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            k: 3,
            path_cache: true,
            follower_reads: true,
            learners: 0,
            raft: RaftOptions::default(),
            root: mantle_types::ROOT_ID,
        }
    }
}

/// Voting replicas: the paper deploys 3 IndexNode servers.
const VOTERS: usize = 3;

/// The reply to a successful rename prepare (Figure 9 step 7): everything
/// the proxy needs to run the metadata transaction.
#[derive(Clone, Debug)]
pub struct RenameGrant {
    /// Source parent directory id.
    pub src_pid: InodeId,
    /// The moving directory's id.
    pub src_id: InodeId,
    /// The moving directory's permission mask.
    pub permission: Permission,
    /// Destination parent directory id.
    pub dst_pid: InodeId,
}

/// A per-namespace IndexNode: a Raft group of [`IndexSm`] replicas.
pub struct IndexNode {
    group: RaftGroup<IndexSm>,
    opts: IndexOptions,
    /// Leader-local reservations for renames whose lock-bit replication is
    /// still in flight. Validation runs under this short mutex (so two
    /// renames cannot validate against each other's pre-lock state), while
    /// the Raft propose itself proceeds concurrently — without this split,
    /// every rename in the namespace would serialize behind one
    /// replication round trip. A list, probed by `&str`: it holds only the
    /// renames in flight at this instant.
    pending_renames: Mutex<Vec<(InodeId, Arc<str>, ClientUuid)>>,
    /// Round-robin cursor for follower reads.
    rr: AtomicUsize,
    metrics: IndexMetrics,
}

/// IndexNode obs handles, created once so the lookup hot path stays cheap.
struct IndexMetrics {
    /// `index_cache_hits_total` — lookups answered from the TopDirPathCache.
    topdir_hits: mantle_obs::Counter,
    /// `index_cache_misses_total` — cacheable lookups that walked the index.
    topdir_misses: mantle_obs::Counter,
    /// `index_follower_reads_total` — lookups served by a non-leader replica
    /// (each pays a ReadIndex round).
    follower_reads: mantle_obs::Counter,
    /// `index_resolve_levels` — directory levels walked per resolve.
    resolve_levels: mantle_obs::HistogramMetric,
}

impl IndexMetrics {
    fn new() -> Self {
        IndexMetrics {
            topdir_hits: mantle_obs::counter("index_cache_hits_total", &[]),
            topdir_misses: mantle_obs::counter("index_cache_misses_total", &[]),
            follower_reads: mantle_obs::counter("index_follower_reads_total", &[]),
            resolve_levels: mantle_obs::histogram("index_resolve_levels", &[]),
        }
    }
}

impl IndexNode {
    /// Builds the replication group (`voters + learners` simulated servers).
    pub fn new(config: SimConfig, opts: IndexOptions) -> Self {
        let nodes: Vec<Arc<SimNode>> = (0..VOTERS + opts.learners)
            .map(|i| {
                Arc::new(SimNode::new(
                    format!("index{i}"),
                    config.index_node_permits,
                    config,
                ))
            })
            .collect();
        let group = RaftGroup::new(config, opts.raft, nodes, VOTERS, |_| {
            IndexSm::with_root(config, opts.k, opts.path_cache, opts.root)
        });

        IndexNode {
            group,
            opts,
            pending_renames: Mutex::new(Vec::new()),
            rr: AtomicUsize::new(0),
            metrics: IndexMetrics::new(),
        }
    }

    /// The underlying Raft group (failure injection, inspection).
    pub fn group(&self) -> &RaftGroup<IndexSm> {
        &self.group
    }

    /// Installs (or clears) a fault plan on every replica — transport
    /// faults on the `index*` nodes, fsync faults on their Raft logs, and
    /// crash/restart hooks so `FaultPlan::crash_node("index0")` downs the
    /// replica like `RaftGroup::crash` would.
    pub fn install_faults(&self, plan: Option<Arc<mantle_rpc::FaultPlan>>) {
        self.group.install_faults(plan);
    }

    fn leader(&self) -> Result<Arc<RaftReplica<IndexSm>>> {
        self.group.leader().ok_or_else(|| {
            mantle_obs::flight::annotate("index:no_leader");
            MetaError::Unavailable("no IndexNode leader".into())
        })
    }

    fn map_raft(e: RaftError) -> MetaError {
        if e == RaftError::DeadlineExceeded {
            return MetaError::DeadlineExceeded("IndexNode raft read path".into());
        }
        mantle_obs::flight::annotate_with(|| format!("index:raft_unavailable err={e}"));
        MetaError::Unavailable(format!("IndexNode raft: {e}"))
    }

    /// Picks the replica to serve a lookup: the leader when follower reads
    /// are off, round-robin across live replicas otherwise (§5.1.3).
    fn pick_read_replica(&self) -> Result<Arc<RaftReplica<IndexSm>>> {
        if !self.opts.follower_reads {
            return self.leader();
        }
        let replicas = self.group.replicas();
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        for i in 0..replicas.len() {
            let r = &replicas[(start + i) % replicas.len()];
            if r.alive() {
                return Ok(Arc::clone(r));
            }
        }
        Err(MetaError::Unavailable("no live IndexNode replica".into()))
    }

    /// Single-RPC path lookup (§5.1): resolves a directory path and returns
    /// its id plus the aggregated permission.
    ///
    /// # Errors
    ///
    /// Resolution errors pass through; [`MetaError::Unavailable`] when no
    /// replica can serve consistently.
    pub fn lookup(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<ResolvedPath> {
        self.resolve_rpc(path, "resolve", Duration::ZERO, stats)
            .map(|leased| leased.resolved)
    }

    /// [`Self::lookup`] stamped with the leaf's namespace version and a
    /// client-supplied lease TTL (DESIGN.md §4.13). Same single RPC.
    pub fn lookup_leased(
        &self,
        path: &MetaPath,
        lease_ttl: Duration,
        stats: &mut RequestCtx,
    ) -> Result<LeasedPath> {
        self.resolve_rpc(path, "resolve", lease_ttl, stats)
    }

    /// Revalidates an expired path lease with a single version-check RPC:
    /// the server re-resolves the full path (so renamed *ancestors* are
    /// caught even though only the moved entry's version bumps) and returns
    /// a fresh lease. The client compares `(pid, version)` against its
    /// cached entry: a match renews, a mismatch invalidates the subtree.
    pub fn lease_check(
        &self,
        path: &MetaPath,
        lease_ttl: Duration,
        stats: &mut RequestCtx,
    ) -> Result<LeasedPath> {
        self.resolve_rpc(path, "lease_check", lease_ttl, stats)
    }

    /// One resolution RPC named `rpc_name`, its reply stamped as a lease.
    fn resolve_rpc(
        &self,
        path: &MetaPath,
        rpc_name: &'static str,
        lease_ttl: Duration,
        stats: &mut RequestCtx,
    ) -> Result<LeasedPath> {
        let replica = self.pick_read_replica()?;
        // A serving leader answers from one lock, no RPC. A follower waits
        // for the leader's commit index; a leader that has not yet applied
        // its term-start barrier refuses, which `with_failover` retries.
        if !replica.is_leader() {
            replica.read_index(stats).map_err(Self::map_raft)?;
            self.metrics.follower_reads.inc();
        }
        let outcome: ResolveOutcome = replica
            .node()
            .try_rpc_named(stats, rpc_name, || replica.state_machine().resolve(path))?;
        if outcome.cacheable {
            if outcome.cache_hit {
                self.metrics.topdir_hits.inc();
            } else {
                self.metrics.topdir_misses.inc();
            }
        }
        self.metrics
            .resolve_levels
            .record(outcome.levels_walked as u64);
        outcome.result.map(|resolved| LeasedPath {
            resolved,
            version: outcome.leaf_version,
            lease_ttl,
        })
    }

    /// Replicates a directory insertion (mkdir's IndexTable refresh).
    pub fn insert_dir(
        &self,
        pid: InodeId,
        name: &str,
        id: InodeId,
        permission: Permission,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        self.propose(
            IndexCmd::InsertDir {
                pid,
                name: Arc::from(name),
                id,
                permission,
            },
            stats,
        )
    }

    /// Replicates a directory removal (rmdir).
    pub fn remove_dir(
        &self,
        pid: InodeId,
        name: &str,
        path: &MetaPath,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        self.propose(
            IndexCmd::RemoveDir {
                pid,
                name: Arc::from(name),
                path: path.clone(),
            },
            stats,
        )
    }

    /// Replicates a permission change (setattr).
    pub fn set_permission(
        &self,
        pid: InodeId,
        name: &str,
        permission: Permission,
        path: &MetaPath,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        self.propose(
            IndexCmd::SetPermission {
                pid,
                name: Arc::from(name),
                permission,
                path: path.clone(),
            },
            stats,
        )
    }

    fn propose(&self, cmd: IndexCmd, stats: &mut RequestCtx) -> Result<()> {
        let leader = self.leader()?;
        // Admission + CPU inside the node's capacity envelope; the wait for
        // replication is I/O and does not occupy a core — the Raft
        // pipeline itself (bounded AppendEntries batches over the injected
        // network/fsync delays) is the write-throughput ceiling.
        leader.node().try_rpc_named(stats, "index_propose", || ())?;
        leader.propose(cmd).map_err(Self::map_raft)?;
        Ok(())
    }

    /// The rename coordination RPC (Figure 9 steps 1–7): resolves both
    /// paths, performs loop detection against the local index, sets the
    /// source lock bit (replicated), and returns the ids the proxy needs.
    ///
    /// # Errors
    ///
    /// What [`MetaPath::rename_precheck`] refuses ([`MetaError::InvalidRename`],
    /// [`MetaError::RenameLoop`]); [`MetaError::PermissionDenied`] without
    /// `WRITE` on either parent; [`MetaError::RenameLocked`] when a conflicting rename holds a lock on
    /// the source or on the LCA→destination chain (the caller aborts and
    /// retries, §5.2.2); resolution errors pass through. Re-invocation with
    /// the same `uuid` re-enters an already-held lock (§5.3).
    pub fn rename_prepare(
        &self,
        src: &MetaPath,
        dst: &MetaPath,
        uuid: ClientUuid,
        stats: &mut RequestCtx,
    ) -> Result<RenameGrant> {
        let leader = self.leader()?;
        let (grant, src_name) = leader
            .node()
            .try_rpc_named(stats, "rename_prepare", || {
                let sm = leader.state_machine();

                // On the paths alone: the root does not move, and a rename
                // creating `dst` inside `src` would detach the subtree into
                // a cycle.
                src.rename_precheck(dst)?;
                let (src_parent, src_name) = src.split_leaf()?;
                let (dst_parent, dst_name) = dst.split_leaf()?;
                // Owned once: the reservation and the replicated command
                // share it.
                let src_name: Arc<str> = Arc::from(src_name);

                // Resolve both parents *outside* the pending lock — resolution
                // carries the per-level CPU cost and must not serialize
                // unrelated renames. The lock-bit examination below re-reads
                // the entries it cares about.
                let src_parent_res = sm.resolve(&src_parent).result?;
                let dst_parent_res = sm.resolve(&dst_parent).result?;
                // Unlinking from one directory and linking into the other
                // are writes to both; a refused rename reserves nothing.
                src_parent_res.require(Permission::WRITE, src)?;
                dst_parent_res.require(Permission::WRITE, dst)?;

                // Validation + reservation under the short pending lock; the
                // replication of the lock bit happens outside it so
                // non-conflicting renames replicate concurrently.
                let grant = {
                    let mut pending = self.pending_renames.lock();
                    let locked_by_other = |pid: InodeId, name: &str| -> bool {
                        let replicated = sm
                            .table
                            .get(pid, name)
                            .and_then(|e| e.lock)
                            .is_some_and(|h| h != uuid);
                        let reserved = pending
                            .iter()
                            .any(|(p, n, h)| *p == pid && **n == *name && *h != uuid);
                        replicated || reserved
                    };

                    let Some(src_entry) = sm.table.get(src_parent_res.id, &src_name) else {
                        return Err(MetaError::NotFound(src.to_string()));
                    };
                    if locked_by_other(src_parent_res.id, &src_name) {
                        return Err(MetaError::RenameLocked(src.to_string()));
                    }

                    // Destination must not be a directory already (object
                    // collisions surface in the metadata transaction).
                    if sm.table.get(dst_parent_res.id, dst_name).is_some() {
                        return Err(MetaError::AlreadyExists(dst.to_string()));
                    }

                    // Examine lock bits (replicated or reserved) from the least
                    // common ancestor down to the destination parent (Figure 9
                    // step 6): a locked directory on that chain means a
                    // concurrent rename could re-parent us into a loop.
                    let lca_depth = src.lca_depth(dst);
                    let mut pid = sm.root();
                    for (depth, comp) in dst_parent.components().enumerate() {
                        let Some(entry) = sm.table.get(pid, comp) else {
                            return Err(MetaError::NotFound(dst_parent.to_string()));
                        };
                        if depth >= lca_depth && locked_by_other(pid, comp) {
                            return Err(MetaError::RenameLocked(
                                dst_parent.prefix(depth + 1).to_string(),
                            ));
                        }
                        pid = entry.id;
                    }

                    // Anyone else's reservation was refused above, so one found
                    // here is this request's own, re-entered.
                    let reserved = |(p, n, _): &(InodeId, Arc<str>, ClientUuid)| {
                        *p == src_parent_res.id && *n == src_name
                    };
                    if !pending.iter().any(reserved) {
                        pending.push((src_parent_res.id, src_name.clone(), uuid));
                    }
                    RenameGrant {
                        src_pid: src_parent_res.id,
                        src_id: src_entry.id,
                        permission: src_entry.permission,
                        dst_pid: dst_parent_res.id,
                    }
                };
                Ok((grant, src_name))
            })
            .and_then(|r| r)?;

        // Replicate the lock bit outside the RPC handler (replication is
        // I/O); the reservation covers the window until apply sets the
        // bit in every replica's IndexTable.
        let proposed = leader.propose(IndexCmd::RenamePrepare {
            src_pid: grant.src_pid,
            src_name: src_name.clone(),
            uuid,
            src_path: src.clone(),
        });
        self.pending_renames
            .lock()
            .retain(|(p, n, _)| !(*p == grant.src_pid && *n == src_name));
        proposed.map_err(Self::map_raft)?;
        Ok(grant)
    }

    /// Finalizes a granted rename: moves the access-metadata edge and
    /// releases the lock (Figure 9 step 8b).
    pub fn rename_commit(
        &self,
        grant: &RenameGrant,
        src: &MetaPath,
        dst: &MetaPath,
        uuid: ClientUuid,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        self.propose(
            IndexCmd::RenameCommit {
                src_pid: grant.src_pid,
                src_name: Arc::from(src.name().expect("non-root")),
                dst_pid: grant.dst_pid,
                dst_name: Arc::from(dst.name().expect("non-root")),
                uuid,
                src_path: src.clone(),
            },
            stats,
        )
    }

    /// Rolls back a granted rename whose metadata transaction failed.
    pub fn rename_abort(
        &self,
        grant: &RenameGrant,
        src: &MetaPath,
        uuid: ClientUuid,
        stats: &mut RequestCtx,
    ) -> Result<()> {
        self.propose(
            IndexCmd::RenameAbort {
                src_pid: grant.src_pid,
                src_name: Arc::from(src.name().expect("non-root")),
                uuid,
                src_path: src.clone(),
            },
            stats,
        )
    }

    // --- population / inspection -------------------------------------------

    /// Installs a directory entry directly into every replica's state
    /// machine, bypassing Raft — bulk namespace population only (equivalent
    /// to restoring replicas from a common snapshot).
    pub fn raw_insert_dir(&self, pid: InodeId, name: &str, id: InodeId, permission: Permission) {
        for r in self.group.replicas() {
            r.state_machine().table.insert(
                pid,
                name,
                crate::table::IndexEntry {
                    id,
                    permission,
                    lock: None,
                    version: 1,
                },
            );
        }
    }

    /// Directory count on the leader replica.
    pub fn table_len(&self) -> usize {
        self.group
            .leader()
            .map(|l| l.state_machine().table.len())
            .unwrap_or(0)
    }

    /// `(hits, misses)` of the TopDirPathCache over this node's cacheable
    /// lookups: its own `index_cache_{hits,misses}_total` cells.
    pub fn cache_outcomes(&self) -> (u64, u64) {
        (
            self.metrics.topdir_hits.get(),
            self.metrics.topdir_misses.get(),
        )
    }

    /// Aggregated TopDirPathCache statistics across replicas
    /// `(leader, per-replica)`.
    pub fn cache_stats(&self) -> Vec<CacheStats> {
        self.group
            .replicas()
            .iter()
            .map(|r| r.state_machine().cache.stats())
            .collect()
    }
}
