//! The LocoFS baseline: tiered metadata with a centralized directory
//! server (§3.3, §6.1).
//!
//! All directory metadata (tree structure *and* attributes) lives on one
//! Raft-replicated directory server that resolves full paths locally in a
//! single RPC; object metadata lives in the sharded DB. The documented
//! weaknesses emerge structurally:
//!
//! * the directory server is a single node with no prefix cache and no
//!   follower reads, so lookups saturate its CPU envelope (Figure 12's
//!   ceiling, Figure 17's knee at depth ≈ 6);
//! * every directory mutation funnels through one Raft group (Figure 14's
//!   mkdir-e floor);
//! * object creation needs the directory server (duplicate-check + parent
//!   attribute update) *and* the object DB — the cross-component
//!   coordination overhead called out in §3.3.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::ROOT;
use mantle_core::{MetadataService, SvcMetrics};
use mantle_index::{IndexEntry, IndexTable};
use mantle_raft::{RaftGroup, RaftOptions, RaftReplica, StateMachine};
use mantle_rpc::SimNode;
use mantle_tafdb::{recipe, TafDb, TafDbOptions};
use mantle_types::{
    id::IdAllocator, resolve, AttrDelta, BulkLoad, DirAttrMeta, DirEntry, DirStat, EntryKind,
    InodeId, MetaError, MetaPath, Name, ObjectMeta, Permission, Phase, RequestCtx, ResolvedPath,
    Result, SimConfig, ROOT_ID, SCALED_DB_SHARDS,
};

/// LocoFS deployment options.
#[derive(Clone, Copy, Debug)]
pub struct LocoFsOptions {
    /// Object-metadata shards (Table 2: 18 servers, scaled to 8).
    pub db_shards: usize,
    /// Directory-server Raft replicas (Table 2: 3 servers).
    pub dir_replicas: usize,
    /// Raft tuning for the directory server.
    pub raft: RaftOptions,
}

impl Default for LocoFsOptions {
    fn default() -> Self {
        LocoFsOptions {
            db_shards: SCALED_DB_SHARDS,
            dir_replicas: 3,
            // LocoFS predates batched Raft pipelines; §6.3 attributes its
            // worst-in-class mkdir throughput to being "throttled by the
            // Raft throughput" — modelled as unbatched, depth-1 replication.
            raft: RaftOptions {
                log_batching: false,
                max_batch: 1,
                ..RaftOptions::default()
            },
        }
    }
}

/// Replicated directory-server commands.
#[derive(Clone, Debug)]
pub enum LocoCmd {
    /// Raft term-start barrier.
    Noop,
    /// Create a directory (entry + attributes + parent bump).
    Mkdir {
        /// Parent id.
        pid: InodeId,
        /// Name.
        name: Name,
        /// New directory id.
        id: InodeId,
        /// Creation time.
        now: u64,
    },
    /// Remove an (empty) directory.
    Rmdir {
        /// Parent id.
        pid: InodeId,
        /// Name.
        name: Name,
        /// The directory's id.
        id: InodeId,
        /// Time.
        now: u64,
    },
    /// Move a directory edge.
    Rename {
        /// Source parent.
        src_pid: InodeId,
        /// Source name.
        src_name: Name,
        /// Destination parent.
        dst_pid: InodeId,
        /// Destination name.
        dst_name: Name,
        /// Time.
        now: u64,
    },
    /// Bump a directory's attributes (object create/delete).
    Bump {
        /// Directory.
        dir: InodeId,
        /// Delta.
        delta: AttrDelta,
    },
}

/// The directory server's replicated state.
pub struct LocoSm {
    table: IndexTable,
    attrs: Mutex<HashMap<InodeId, DirAttrMeta>>,
    children: Mutex<HashMap<InodeId, Vec<(String, InodeId)>>>,
    config: SimConfig,
}

impl LocoSm {
    fn new(config: SimConfig) -> Self {
        let attrs = HashMap::from([(ROOT_ID, DirAttrMeta::new(0, 0))]);
        LocoSm {
            table: IndexTable::new(),
            attrs: Mutex::new(attrs),
            children: Mutex::new(HashMap::new()),
            config,
        }
    }

    /// Full-path resolution, local to the directory server. Pays the same
    /// per-level CPU cost as the IndexNode's table walk — but with no
    /// TopDirPathCache in front of it.
    fn resolve(&self, path: &MetaPath) -> Result<ResolvedPath> {
        // One charge for the whole walk: `depth` levels of resolution CPU.
        mantle_rpc::inject_delay(std::time::Duration::from_micros(
            self.config.index_level_micros * path.depth() as u64,
        ));
        resolve::walk(path, 0, ROOT, |_, at, comp| {
            Ok(self.table.get(at.id, comp).map(|e| (e.id, e.permission)))
        })
    }

    fn bump(&self, dir: InodeId, delta: &AttrDelta) {
        if let Some(attrs) = self.attrs.lock().get_mut(&dir) {
            attrs.apply_delta(delta);
        }
    }

    fn insert_dir(&self, pid: InodeId, name: &str, id: InodeId, now: u64) {
        self.table.insert(
            pid,
            name,
            IndexEntry {
                id,
                permission: Permission::ALL,
                lock: None,
                version: 1,
            },
        );
        self.attrs.lock().insert(id, DirAttrMeta::new(now, 0));
        self.children
            .lock()
            .entry(pid)
            .or_default()
            .push((name.to_string(), id));
        self.bump(pid, &AttrDelta::dir_linked(now));
    }
}

impl StateMachine for LocoSm {
    type Command = LocoCmd;

    fn apply(&self, _index: u64, cmd: &LocoCmd) {
        match cmd {
            LocoCmd::Noop => {}
            LocoCmd::Mkdir { pid, name, id, now } => {
                // Racing proposals validate before replication; the second
                // arrival must not double-create.
                if self.table.get(*pid, name).is_none() {
                    self.insert_dir(*pid, name, *id, *now);
                }
            }
            LocoCmd::Rmdir { pid, name, id, now } => {
                if self.table.get(*pid, name).map(|e| e.id) != Some(*id) {
                    return;
                }
                self.table.remove(*pid, name);
                self.attrs.lock().remove(id);
                if let Some(list) = self.children.lock().get_mut(pid) {
                    list.retain(|(n, _)| n != name.as_ref());
                }
                self.bump(*pid, &AttrDelta::dir_unlinked(*now));
            }
            LocoCmd::Rename {
                src_pid,
                src_name,
                dst_pid,
                dst_name,
                now,
            } => {
                if self.table.get(*dst_pid, dst_name).is_some() {
                    return; // A racing rename/mkdir took the destination.
                }
                if let Some(entry) = self.table.remove(*src_pid, src_name) {
                    let id = entry.id;
                    self.table.insert(*dst_pid, dst_name, entry);
                    let mut children = self.children.lock();
                    if let Some(list) = children.get_mut(src_pid) {
                        list.retain(|(n, _)| n != src_name.as_ref());
                    }
                    children
                        .entry(*dst_pid)
                        .or_default()
                        .push((dst_name.to_string(), id));
                    drop(children);
                    if src_pid == dst_pid {
                        self.bump(*src_pid, &AttrDelta::touch(*now));
                    } else {
                        self.bump(*src_pid, &AttrDelta::dir_unlinked(*now));
                        self.bump(*dst_pid, &AttrDelta::dir_linked(*now));
                    }
                }
            }
            LocoCmd::Bump { dir, delta } => self.bump(*dir, delta),
        }
    }

    fn barrier() -> LocoCmd {
        LocoCmd::Noop
    }

    fn snapshot(&self) -> Vec<u8> {
        use mantle_types::snapshot::SnapshotWriter;
        let mut w = SnapshotWriter::new();
        self.table.encode(&mut w);
        // HashMaps iterate in arbitrary order; sort for byte determinism.
        let attrs = self.attrs.lock();
        let mut ids: Vec<InodeId> = attrs.keys().copied().collect();
        ids.sort_unstable();
        w.u64(ids.len() as u64);
        for id in ids {
            let a = &attrs[&id];
            w.u64(id.0);
            w.i64(a.nlink);
            w.i64(a.entries);
            w.u64(a.ctime);
            w.u64(a.mtime);
            w.u32(a.owner);
        }
        drop(attrs);
        let children = self.children.lock();
        let mut pids: Vec<InodeId> = children.keys().copied().collect();
        pids.sort_unstable();
        w.u64(pids.len() as u64);
        for pid in pids {
            let mut list = children[&pid].clone();
            list.sort();
            w.u64(pid.0);
            w.u64(list.len() as u64);
            for (name, id) in &list {
                w.str(name);
                w.u64(id.0);
            }
        }
        w.finish()
    }

    fn restore(&self, image: &[u8]) {
        use mantle_types::snapshot::SnapshotReader;
        let mut r = SnapshotReader::new(image);
        self.table
            .replace(IndexTable::decode(&mut r).expect("a LocoSm image holds a table"));
        let mut attrs = HashMap::new();
        for _ in 0..r.u64() {
            let id = InodeId(r.u64());
            attrs.insert(
                id,
                DirAttrMeta {
                    nlink: r.i64(),
                    entries: r.i64(),
                    ctime: r.u64(),
                    mtime: r.u64(),
                    owner: r.u32(),
                },
            );
        }
        *self.attrs.lock() = attrs;
        let mut children: HashMap<InodeId, Vec<(String, InodeId)>> = HashMap::new();
        for _ in 0..r.u64() {
            let pid = InodeId(r.u64());
            let len = r.u64() as usize;
            let mut list = Vec::with_capacity(len);
            for _ in 0..len {
                let name = r.str();
                let id = InodeId(r.u64());
                list.push((name, id));
            }
            children.insert(pid, list);
        }
        *self.children.lock() = children;
        debug_assert!(r.is_empty(), "trailing bytes in LocoSm snapshot");
    }
}

/// The LocoFS-style tiered metadata service.
pub struct LocoFs {
    dir_server: RaftGroup<LocoSm>,
    /// The directory server takes one tree mutation at a time, from its
    /// validation to the apply of what it proposed: `LocoSm::apply` declines
    /// a command whose precondition a racer took in between, and a proposer
    /// cannot tell a declined command from an applied one. Real-time order
    /// only — no modeled cost.
    tree_mutation: Mutex<()>,
    db: Arc<TafDb>,
    ids: IdAllocator,
    clock: std::sync::atomic::AtomicU64,
    ops: SvcMetrics,
}

impl LocoFs {
    /// Builds a LocoFS-style deployment.
    pub fn new(sim: SimConfig, opts: LocoFsOptions) -> Arc<Self> {
        let nodes: Vec<Arc<SimNode>> = (0..opts.dir_replicas)
            .map(|i| {
                Arc::new(SimNode::new(
                    format!("locodir{i}"),
                    sim.index_node_permits,
                    sim,
                ))
            })
            .collect();
        let dir_server = RaftGroup::new(sim, opts.raft, nodes, opts.dir_replicas, |_| {
            LocoSm::new(sim)
        });
        let db_opts = TafDbOptions {
            n_shards: opts.db_shards,
            delta_records: false,
            ..TafDbOptions::default()
        };
        Arc::new(LocoFs {
            dir_server,
            tree_mutation: Mutex::new(()),
            db: TafDb::new(sim, db_opts),
            ids: IdAllocator::new(),
            clock: std::sync::atomic::AtomicU64::new(1),
            ops: SvcMetrics::new("locofs"),
        })
    }

    fn now(&self) -> u64 {
        self.clock
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    fn leader(&self) -> Result<Arc<RaftReplica<LocoSm>>> {
        self.dir_server.leader().ok_or_else(|| {
            mantle_obs::flight::annotate("locofs:no_dir_leader");
            MetaError::Unavailable("no directory-server leader".into())
        })
    }

    /// Installs (or clears) a fault plan on the directory server's Raft
    /// group and the file-metadata shards.
    pub fn install_faults(&self, plan: Option<Arc<mantle_rpc::FaultPlan>>) {
        self.dir_server.install_faults(plan.clone());
        self.db.install_faults(plan);
    }

    /// One RPC to the directory server running `f` against its local state.
    fn dir_rpc<R>(
        &self,
        stats: &mut RequestCtx,
        f: impl FnOnce(&Arc<RaftReplica<LocoSm>>) -> Result<R>,
    ) -> Result<R> {
        let leader = self.leader()?;
        leader
            .node()
            .try_rpc_named(stats, "dir_rpc", || f(&leader))?
    }

    /// Like [`Self::dir_rpc`], but additionally proposes `cmd` *after* the
    /// handler: validation is the request's service time on the directory
    /// server, the replication wait is I/O bounded by the (unbatched) Raft
    /// pipeline.
    fn dir_rpc_propose<R>(
        &self,
        stats: &mut RequestCtx,
        f: impl FnOnce(&Arc<RaftReplica<LocoSm>>) -> Result<(R, LocoCmd)>,
    ) -> Result<R> {
        let leader = self.leader()?;
        let (out, cmd) = leader
            .node()
            .try_rpc_named(stats, "dir_rpc", || f(&leader))??;
        Self::propose(&leader, cmd)?;
        Ok(out)
    }

    fn propose(leader: &Arc<RaftReplica<LocoSm>>, cmd: LocoCmd) -> Result<()> {
        leader
            .propose(cmd)
            .map_err(|e| MetaError::Unavailable(format!("dir server raft: {e}")))?;
        Ok(())
    }
}

impl MetadataService for LocoFs {
    fn name(&self) -> &'static str {
        "locofs"
    }

    fn lookup(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<ResolvedPath> {
        self.ops.lookup.inc();
        stats.time(Phase::Lookup, |stats| {
            self.dir_rpc(stats, |l| l.state_machine().resolve(path))
        })
    }

    fn mkdir(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<InodeId> {
        self.ops.mkdir.inc();
        let (parent, name) = path.split_leaf()?;
        // LocoFS performs resolution and mutation in the same directory-
        // server visit; the whole visit is the execute phase (§6.3).
        stats.time(Phase::Execute, |stats| {
            let _turn = self.tree_mutation.lock();
            let id = self.ids.alloc();
            let now = self.now();
            let pid = self.dir_rpc(stats, |l| {
                let sm = l.state_machine();
                let parent_res = sm.resolve(&parent)?;
                parent_res.require(Permission::WRITE, path)?;
                if sm.table.get(parent_res.id, name).is_some() {
                    return Err(MetaError::AlreadyExists(path.to_string()));
                }
                Ok(parent_res.id)
            })?;
            // Cross-component check: an object of this name in the object
            // DB also blocks the mkdir.
            if self.db.read_entry(pid, name, stats, |_| ())?.is_some() {
                return Err(MetaError::AlreadyExists(path.to_string()));
            }
            let leader = self.leader()?;
            Self::propose(
                &leader,
                LocoCmd::Mkdir {
                    pid,
                    name: Name::new(name),
                    id,
                    now,
                },
            )?;
            Ok(id)
        })
    }

    fn rmdir(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<()> {
        self.ops.rmdir.inc();
        let (parent, name) = path.split_leaf()?;
        stats.time(Phase::Execute, |stats| {
            let _turn = self.tree_mutation.lock();
            self.dir_rpc_propose(stats, |l| {
                let sm = l.state_machine();
                let parent_res = sm.resolve(&parent)?;
                parent_res.require(Permission::WRITE, path)?;
                let Some(entry) = sm.table.get(parent_res.id, name) else {
                    return Err(MetaError::NotFound(path.to_string()));
                };
                let attrs = sm.attrs.lock();
                let meta = attrs
                    .get(&entry.id)
                    .ok_or_else(|| MetaError::Internal("missing attrs".into()))?;
                if meta.entries != 0 {
                    return Err(MetaError::NotEmpty(path.to_string()));
                }
                drop(attrs);
                let cmd = LocoCmd::Rmdir {
                    pid: parent_res.id,
                    name: Name::new(name),
                    id: entry.id,
                    now: self.now(),
                };
                Ok(((), cmd))
            })
        })
    }

    fn create(&self, path: &MetaPath, size: u64, stats: &mut RequestCtx) -> Result<InodeId> {
        self.ops.create.inc();
        let (parent, name) = path.split_leaf()?;
        // Cross-component coordination (§3.3): the directory server
        // resolves the parent and applies the attribute bump, the object DB
        // holds the object row (and the duplicate check).
        let pid = stats.time(Phase::Lookup, |stats| {
            self.dir_rpc(stats, |l| {
                let sm = l.state_machine();
                let parent_res = sm.resolve(&parent)?;
                parent_res.require(Permission::WRITE, path)?;
                // The duplicate-name check "must go through the directory
                // node" (§3.3): a directory with this name shadows it.
                if sm.table.get(parent_res.id, name).is_some() {
                    return Err(MetaError::AlreadyExists(path.to_string()));
                }
                Ok(parent_res.id)
            })
        })?;
        stats.time(Phase::Execute, |stats| {
            let id = self.ids.alloc();
            let now = self.now();
            // The recipe's second half, the parent's attributes, lives on
            // the directory server, not in the object DB.
            let [insert, _] = recipe::create(pid, name, id, size, 0, now);
            self.db.execute_relaxed(&[insert], stats)?;
            let delta = AttrDelta::entry_added(now);
            self.dir_rpc_propose(stats, |_| Ok(((), LocoCmd::Bump { dir: pid, delta })))?;
            Ok(id)
        })
    }

    fn delete(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<()> {
        self.ops.delete.inc();
        let (parent, name) = path.split_leaf()?;
        let pid = stats.time(Phase::Lookup, |stats| {
            self.dir_rpc(stats, |l| {
                let parent_res = l.state_machine().resolve(&parent)?;
                parent_res.require(Permission::WRITE, path)?;
                Ok(parent_res.id)
            })
        })?;
        stats.time(Phase::Execute, |stats| {
            self.db.expect_object(pid, name, stats)?;
            let now = self.now();
            let [remove, _] = recipe::delete(pid, name, now);
            self.db.execute_relaxed(&[remove], stats)?;
            let delta = AttrDelta::entry_removed(now);
            self.dir_rpc_propose(stats, |_| Ok(((), LocoCmd::Bump { dir: pid, delta })))
        })
    }

    fn objstat(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<ObjectMeta> {
        self.ops.objstat.inc();
        let (parent, name) = path.split_leaf()?;
        let pid = stats.time(Phase::Lookup, |stats| {
            self.dir_rpc(stats, |l| l.state_machine().resolve(&parent))
                .map(|r| r.id)
        })?;
        stats.time(Phase::Execute, |stats| self.db.get_object(pid, name, stats))
    }

    fn dirstat(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<DirStat> {
        self.ops.dirstat.inc();
        // Resolution happens inside the directory-server visit — LocoFS
        // "resolves paths during the execution phase for directory
        // operations" (§6.3).
        stats.time(Phase::Execute, |stats| {
            self.dir_rpc(stats, |l| {
                let sm = l.state_machine();
                let resolved = sm.resolve(path)?;
                let attrs = sm
                    .attrs
                    .lock()
                    .get(&resolved.id)
                    .cloned()
                    .ok_or_else(|| MetaError::Internal("missing attrs".into()))?;
                Ok(DirStat {
                    id: resolved.id,
                    attrs,
                    permission: resolved.permission,
                })
            })
        })
    }

    // `list` keeps the default page-over-readdir implementation: LocoFS
    // splits a listing across the Raft state machine (subdirectories) and
    // the object DB, so there is no single ordered store to range-scan —
    // the merge below is the real cost of its layout.
    fn readdir(&self, path: &MetaPath, stats: &mut RequestCtx) -> Result<Vec<DirEntry>> {
        self.ops.readdir.inc();
        let (dir, mut entries) = stats.time(Phase::Execute, |stats| {
            self.dir_rpc(stats, |l| {
                let sm = l.state_machine();
                let resolved = sm.resolve(path)?;
                let dirs: Vec<DirEntry> = sm
                    .children
                    .lock()
                    .get(&resolved.id)
                    .map(|list| {
                        list.iter()
                            .map(|(n, id)| DirEntry {
                                name: n.clone(),
                                kind: EntryKind::Dir,
                                id: *id,
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                Ok((resolved.id, dirs))
            })
        })?;
        // Objects live in the object DB.
        let objects = stats.time(Phase::Execute, |stats| self.db.readdir(dir, stats))?;
        entries.extend(objects.into_iter().filter(|e| e.kind == EntryKind::Object));
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(entries)
    }

    fn rename_dir(&self, src: &MetaPath, dst: &MetaPath, stats: &mut RequestCtx) -> Result<()> {
        self.ops.rename_dir.inc();
        stats.time(Phase::LoopDetect, |stats| {
            let _turn = self.tree_mutation.lock();
            let (dst_pid, dst_name, cmd) = self.dir_rpc(stats, |l| {
                let sm = l.state_machine();
                // Loop detection is local (and serialized by the leader).
                src.rename_precheck(dst)?;
                let (src_parent, src_name) = src.split_leaf()?;
                let (dst_parent, dst_name) = dst.split_leaf()?;
                let src_parent = sm.resolve(&src_parent)?;
                src_parent.require(Permission::WRITE, src)?;
                if sm.table.get(src_parent.id, src_name).is_none() {
                    return Err(MetaError::NotFound(src.to_string()));
                }
                let dst_parent = sm.resolve(&dst_parent)?;
                dst_parent.require(Permission::WRITE, dst)?;
                if sm.table.get(dst_parent.id, dst_name).is_some() {
                    return Err(MetaError::AlreadyExists(dst.to_string()));
                }
                let cmd = LocoCmd::Rename {
                    src_pid: src_parent.id,
                    src_name: Name::new(src_name),
                    dst_pid: dst_parent.id,
                    dst_name: Name::new(dst_name),
                    now: self.now(),
                };
                Ok((dst_parent.id, dst_name, cmd))
            })?;
            // Cross-component check, as in mkdir: an object of the
            // destination name in the object DB blocks the rename too, and
            // asking costs an RPC (§3.3).
            let taken = self.db.read_entry(dst_pid, dst_name, stats, |_| ())?;
            if taken.is_some() {
                return Err(MetaError::AlreadyExists(dst.to_string()));
            }
            Self::propose(&self.leader()?, cmd)
        })
    }
}

impl BulkLoad for LocoFs {
    fn bulk_dir(&self, path: &MetaPath) -> InodeId {
        let mut pid = ROOT_ID;
        for comp in path.components() {
            let existing = self
                .dir_server
                .replica(0)
                .state_machine()
                .table
                .get(pid, comp);
            match existing {
                Some(e) => pid = e.id,
                None => {
                    let id = self.ids.alloc();
                    let now = self.now();
                    for r in self.dir_server.replicas() {
                        r.state_machine().insert_dir(pid, comp, id, now);
                    }
                    pid = id;
                }
            }
        }
        pid
    }

    fn bulk_object(&self, path: &MetaPath, size: u64) {
        let (parent, name) = path.split_leaf().expect("objects cannot be the root");
        let pid = self.bulk_dir(&parent);
        let id = self.ids.alloc();
        let now = self.now();
        let [insert, _] = recipe::create(pid, name, id, size, 0, now);
        self.db.bulk_apply([insert]);
        for r in self.dir_server.replicas() {
            r.state_machine().bump(pid, &AttrDelta::entry_added(now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> MetaPath {
        MetaPath::parse(s).unwrap()
    }

    fn svc() -> Arc<LocoFs> {
        LocoFs::new(SimConfig::instant(), LocoFsOptions::default())
    }

    #[test]
    fn lookup_is_single_rpc() {
        let l = svc();
        l.bulk_dir(&p("/a/b/c/d/e"));
        let mut stats = RequestCtx::new();
        l.lookup(&p("/a/b/c/d/e"), &mut stats).unwrap();
        assert_eq!(stats.rpcs, 1);
    }

    #[test]
    fn object_lifecycle_spans_both_components() {
        let l = svc();
        let mut stats = RequestCtx::new();
        l.mkdir(&p("/d"), &mut stats).unwrap();
        let mut cstats = RequestCtx::new();
        l.create(&p("/d/o"), 33, &mut cstats).unwrap();
        // Dir-server resolve + DB insert + dir-server bump = 3 RPCs, the
        // cross-component coordination overhead of §3.3.
        assert_eq!(cstats.rpcs, 3);
        assert_eq!(l.objstat(&p("/d/o"), &mut stats).unwrap().size, 33);
        assert_eq!(l.dirstat(&p("/d"), &mut stats).unwrap().attrs.entries, 1);
        l.delete(&p("/d/o"), &mut stats).unwrap();
        assert_eq!(l.dirstat(&p("/d"), &mut stats).unwrap().attrs.entries, 0);
        l.rmdir(&p("/d"), &mut stats).unwrap();
        assert!(l.lookup(&p("/d"), &mut stats).is_err());
    }

    #[test]
    fn readdir_merges_dirs_and_objects() {
        let l = svc();
        let mut stats = RequestCtx::new();
        l.bulk_dir(&p("/d/sub"));
        l.bulk_object(&p("/d/obj"), 1);
        let names: Vec<String> = l
            .readdir(&p("/d"), &mut stats)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["obj", "sub"]);
    }

    #[test]
    fn rename_moves_subtree_and_detects_loops() {
        let l = svc();
        let mut stats = RequestCtx::new();
        l.bulk_dir(&p("/x/y"));
        l.bulk_object(&p("/x/y/o"), 5);
        l.bulk_dir(&p("/z"));
        assert!(matches!(
            l.rename_dir(&p("/x"), &p("/x/y/in"), &mut stats),
            Err(MetaError::RenameLoop { .. })
        ));
        l.rename_dir(&p("/x/y"), &p("/z/y2"), &mut stats).unwrap();
        assert_eq!(l.objstat(&p("/z/y2/o"), &mut stats).unwrap().size, 5);
        assert!(l.lookup(&p("/x/y"), &mut stats).is_err());
        // Entry counts moved.
        assert_eq!(l.dirstat(&p("/x"), &mut stats).unwrap().attrs.entries, 0);
        assert_eq!(l.dirstat(&p("/z"), &mut stats).unwrap().attrs.entries, 1);
    }

    #[test]
    fn snapshot_restore_round_trips_state() {
        let a = LocoSm::new(SimConfig::instant());
        let mkdir = |pid, name, id| LocoCmd::Mkdir {
            pid: InodeId(pid),
            name: Name::new(name),
            id: InodeId(id),
            now: id,
        };
        let rename = LocoCmd::Rename {
            src_pid: ROOT_ID,
            src_name: Name::new("z"),
            dst_pid: InodeId(5),
            dst_name: Name::new("z2"),
            now: 9,
        };
        let bump = LocoCmd::Bump {
            dir: InodeId(6),
            delta: AttrDelta::entry_added(10),
        };
        let cmds = [
            mkdir(1, "a", 5),
            mkdir(5, "b", 6),
            mkdir(1, "z", 7),
            rename,
            bump,
        ];
        for (i, cmd) in cmds.iter().enumerate() {
            a.apply(i as u64, cmd);
        }
        let img = a.snapshot();
        let b = LocoSm::new(SimConfig::instant());
        b.restore(&img);
        assert_eq!(
            b.snapshot(),
            img,
            "restore must reproduce a byte-identical image"
        );
        assert_eq!(b.resolve(&p("/a/z2")).unwrap().id, InodeId(7));
        assert!(b.resolve(&p("/z")).is_err());
        assert_eq!(b.attrs.lock()[&InodeId(6)].entries, 1);
        assert_eq!(b.attrs.lock()[&InodeId(5)].entries, 2);
        assert_eq!(b.children.lock()[&InodeId(5)].len(), 2);
    }

    #[test]
    fn rmdir_nonempty_rejected_via_attr_counts() {
        let l = svc();
        let mut stats = RequestCtx::new();
        l.bulk_dir(&p("/d"));
        l.bulk_object(&p("/d/o"), 1);
        assert!(matches!(
            l.rmdir(&p("/d"), &mut stats),
            Err(MetaError::NotEmpty(_))
        ));
    }
}
