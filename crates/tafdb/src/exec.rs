//! The transaction plane: routing ops into per-shard groups, the
//! single-RPC fast path, and two-phase commit with no-wait row locks.
//!
//! Transactions snapshot the shard map once, route against the snapshot,
//! and validate `epoch` at every participant's prepare; a mismatch (or an
//! active migration marker on the shard) rejects the attempt with
//! [`MetaError::StaleRoute`], which the [`TafDb::execute`] retry loop
//! absorbs by re-snapshotting.

use std::sync::atomic::Ordering;

use mantle_rpc::{classify_txn, FaultKind, RetryPolicy};
use mantle_store::{LockMode, RowKey};
use mantle_types::record::ATTR_ROW_NAME;
use mantle_types::{AttrDelta, InodeId, MetaError, RequestCtx, Result, RetryClass, TxnId};

use crate::db::TafDb;
use crate::schema::{attr_key, delta_key};
use crate::shard::InFlight;
use crate::shardmap::{dir_region, place_of, ShardMap};
use crate::txn::{Prepared, ShardPrepared, TxnOp, WriteCmd};

/// An op already routed to one shard (the unit [`TafDb::prepare_on_shard`]
/// executes). The hot/cold decision for `AttrUpdate` is made once, at
/// routing time, so the TTL-refresh dynamics of `is_hot` match the
/// pre-placement behaviour exactly.
pub(crate) enum ShardOp<'a> {
    /// A transaction op executing on its owner shard.
    Op(&'a TxnOp),
    /// Hot-directory attribute update: append a delta record locally, with
    /// a shared fence lock on the base attribute row at its owner.
    HotAttr { dir: InodeId, delta: AttrDelta },
    /// rmdir companion for non-base region owners: retire this shard's
    /// delta records of `dir`.
    Purge(InodeId),
}

impl TafDb {
    /// Runs `ops` as one transaction with transparent retry on conflicts
    /// (exponential backoff) and on stale shard-map routes (map refresh),
    /// using the single-RPC fast path when every op routes to one shard and
    /// 2PC otherwise.
    ///
    /// # Errors
    ///
    /// Validation errors pass through; [`MetaError::TxnConflict`] is
    /// returned once retries are exhausted.
    pub fn execute(&self, ops: &[TxnOp], stats: &mut RequestCtx) -> Result<TxnId> {
        let policy = RetryPolicy::txn(self.opts.max_txn_retries, self.config.rtt_micros == 0);
        let (outcome, attempts) = policy.run_counted(
            stats,
            classify_txn,
            |_, e| {
                // The engine books the per-op retry stat; stale routes also
                // bump the db-wide counters and yield to the migrator.
                if matches!(e, MetaError::StaleRoute { .. }) {
                    self.note_stale_effects();
                }
            },
            |stats| {
                let txn = self.begin();
                let m = self.shard_map();
                let groups = self.group_ops(&m, txn, ops);
                if groups.len() == 1 {
                    self.execute_single_shard(txn, m.epoch(), &groups[0], stats)
                } else {
                    let p = self.prepare_groups(txn, m.epoch(), &groups, stats)?;
                    self.commit(p, stats);
                    Ok(txn)
                }
            },
        );
        match outcome {
            Err(MetaError::TxnConflict { .. }) => Err(MetaError::TxnConflict { retries: attempts }),
            other => other,
        }
    }

    /// Routes `ops` against map snapshot `m` into per-shard groups,
    /// preserving op order within each shard (first-touch group order).
    /// Also decides hot/cold for `AttrUpdate` (once per attempt) and
    /// expands region-wide ops (`ExpectEmptyDir`, attr-row `Delete`) to
    /// every owner of the directory's region.
    fn group_ops<'a>(
        &self,
        m: &ShardMap,
        txn: TxnId,
        ops: &'a [TxnOp],
    ) -> Vec<(usize, Vec<ShardOp<'a>>)> {
        let mut groups: Vec<(usize, Vec<ShardOp<'a>>)> = Vec::new();
        fn push<'a>(groups: &mut Vec<(usize, Vec<ShardOp<'a>>)>, shard: usize, sop: ShardOp<'a>) {
            match groups.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, v)) => v.push(sop),
                None => groups.push((shard, vec![sop])),
            }
        }
        for op in ops {
            match op {
                TxnOp::AttrUpdate { dir, delta } => {
                    let base_place = place_of(&attr_key(*dir));
                    let base_owner = m.owner(base_place);
                    if self.opts.delta_records && self.shards[base_owner].is_hot(*dir, &self.opts) {
                        // Hot: the delta record routes by its (unique) txn
                        // timestamp, spreading a hot directory's appends
                        // across a split region.
                        let dplace = place_of(&delta_key(*dir, txn));
                        m.record_hit(dplace);
                        push(
                            &mut groups,
                            m.owner(dplace),
                            ShardOp::HotAttr {
                                dir: *dir,
                                delta: *delta,
                            },
                        );
                    } else {
                        m.record_hit(base_place);
                        push(&mut groups, base_owner, ShardOp::Op(op));
                    }
                }
                TxnOp::Delete { key } if key.name.as_ref() == ATTR_ROW_NAME => {
                    let place = place_of(key);
                    m.record_hit(place);
                    let owner = m.owner(place);
                    push(&mut groups, owner, ShardOp::Op(op));
                    // Delta records of the dying directory may live on other
                    // region owners; each purges its own.
                    let (rs, re) = dir_region(key.pid);
                    for o in m.owners_of(rs, re) {
                        if o != owner {
                            push(&mut groups, o, ShardOp::Purge(key.pid));
                        }
                    }
                }
                TxnOp::ExpectEmptyDir { dir } => {
                    let (rs, re) = dir_region(*dir);
                    for o in m.owners_of(rs, re) {
                        push(&mut groups, o, ShardOp::Op(op));
                    }
                }
                TxnOp::InsertUnique { key, .. }
                | TxnOp::Put { key, .. }
                | TxnOp::Delete { key }
                | TxnOp::ExpectExists { key } => {
                    let place = place_of(key);
                    m.record_hit(place);
                    push(&mut groups, m.owner(place), ShardOp::Op(op));
                }
            }
        }
        groups
    }

    /// Prepare phase of 2PC: validates `ops` and acquires their row locks on
    /// every participating shard (one parallel RPC fan-out).
    ///
    /// # Errors
    ///
    /// On any failure all acquired locks are released and the error is
    /// returned; [`MetaError::TxnConflict`] signals a retryable conflict,
    /// [`MetaError::StaleRoute`] a shard-map change since `txn` routed.
    pub fn prepare(&self, txn: TxnId, ops: &[TxnOp], stats: &mut RequestCtx) -> Result<Prepared> {
        let m = self.shard_map();
        let groups = self.group_ops(&m, txn, ops);
        self.prepare_groups(txn, m.epoch(), &groups, stats)
    }

    fn prepare_groups(
        &self,
        txn: TxnId,
        epoch: u64,
        groups: &[(usize, Vec<ShardOp<'_>>)],
        stats: &mut RequestCtx,
    ) -> Result<Prepared> {
        // One fan-out round trip covers the parallel per-shard prepares.
        mantle_rpc::net_round_trip(&self.config);
        let plan = self.faults.get();
        let mut prepared = Vec::with_capacity(groups.len());
        for (shard_idx, shard_ops) in groups {
            let shard = &self.shards[*shard_idx];
            // An injected participant failure during prepare: nothing was
            // committed anywhere, so releasing the locks acquired so far
            // and surfacing a retryable Transient is always safe.
            let result = if plan
                .as_ref()
                .is_some_and(|p| p.fires(FaultKind::TxnPrepare, shard.node.name()))
            {
                Err(MetaError::Transient {
                    kind: "txn_prepare".to_string(),
                    at: shard.node.name().to_string(),
                })
            } else {
                // The round trip was already injected once for the fan-out.
                shard
                    .node
                    .try_rpc_batched(stats, "txn_prepare", || {
                        self.prepare_on_shard(*shard_idx, txn, epoch, shard_ops)
                    })
                    .and_then(|r| r)
            };
            match result {
                Ok(sp) => prepared.push(sp),
                Err(e) => {
                    self.release_prepared(&prepared, txn, stats);
                    self.metrics.txns_aborted.inc();
                    return Err(e);
                }
            }
        }
        Ok(Prepared {
            txn,
            shards: prepared,
        })
    }

    fn prepare_on_shard(
        &self,
        shard_idx: usize,
        txn: TxnId,
        epoch: u64,
        ops: &[ShardOp<'_>],
    ) -> Result<ShardPrepared> {
        let shard = &self.shards[shard_idx];
        // The in-flight window spans validation through lock acquisition;
        // once locks are held, migration quiescence waits on them instead.
        let _g = InFlight::enter(&shard.in_flight);
        {
            let current = self.map.read().epoch();
            if shard.mig_active.load(Ordering::Acquire) || current != epoch {
                return Err(MetaError::StaleRoute {
                    seen: epoch,
                    current,
                });
            }
        }
        let mut locks: Vec<RowKey> = Vec::new();
        let mut remote_locks: Vec<(usize, RowKey)> = Vec::new();
        let mut writes: Vec<WriteCmd> = Vec::new();

        let fail = |locks: &[RowKey], remote: &[(usize, RowKey)], err: MetaError| -> MetaError {
            shard.locks.unlock_all(locks, txn);
            for (s, k) in remote {
                self.shards[*s].locks.unlock(k, txn);
            }
            if matches!(err, MetaError::TxnConflict { .. }) {
                self.metrics.lock_conflicts.inc();
                mantle_obs::flight::annotate("tafdb:txn_conflict");
            }
            err
        };

        for sop in ops {
            match sop {
                ShardOp::Op(op) => match op {
                    TxnOp::InsertUnique { key, row } => {
                        if shard.locks.try_lock(key, txn, LockMode::Exclusive).is_err() {
                            return Err(fail(
                                &locks,
                                &remote_locks,
                                MetaError::TxnConflict { retries: 0 },
                            ));
                        }
                        locks.push(key.clone());
                        if shard.engine.contains(key) {
                            return Err(fail(
                                &locks,
                                &remote_locks,
                                MetaError::AlreadyExists(key.name.to_string()),
                            ));
                        }
                        writes.push(WriteCmd::Put(key.clone(), row.clone()));
                    }
                    TxnOp::Put { key, row } => {
                        if shard.locks.try_lock(key, txn, LockMode::Exclusive).is_err() {
                            return Err(fail(
                                &locks,
                                &remote_locks,
                                MetaError::TxnConflict { retries: 0 },
                            ));
                        }
                        locks.push(key.clone());
                        writes.push(WriteCmd::Put(key.clone(), row.clone()));
                    }
                    TxnOp::Delete { key } => {
                        if shard.locks.try_lock(key, txn, LockMode::Exclusive).is_err() {
                            if key.name.as_ref() == ATTR_ROW_NAME {
                                shard.record_abort(key.pid, &self.opts);
                            }
                            return Err(fail(
                                &locks,
                                &remote_locks,
                                MetaError::TxnConflict { retries: 0 },
                            ));
                        }
                        locks.push(key.clone());
                        if !shard.engine.contains(key) {
                            return Err(fail(
                                &locks,
                                &remote_locks,
                                MetaError::NotFound(key.name.to_string()),
                            ));
                        }
                        writes.push(WriteCmd::Delete(key.clone()));
                    }
                    TxnOp::ExpectExists { key } => {
                        if shard.locks.try_lock(key, txn, LockMode::Shared).is_err() {
                            return Err(fail(
                                &locks,
                                &remote_locks,
                                MetaError::TxnConflict { retries: 0 },
                            ));
                        }
                        locks.push(key.clone());
                        if !shard.engine.contains(key) {
                            return Err(fail(
                                &locks,
                                &remote_locks,
                                MetaError::NotFound(key.name.to_string()),
                            ));
                        }
                    }
                    TxnOp::ExpectEmptyDir { dir } => {
                        // Region-expanded: every owner checks its own slice.
                        let has_children =
                            mantle_engine::scan_dir(&*shard.engine, *dir, "", usize::MAX)
                                .iter()
                                .any(|(k, _)| k.name.as_ref() != ATTR_ROW_NAME);
                        if has_children {
                            return Err(fail(
                                &locks,
                                &remote_locks,
                                MetaError::NotEmpty(format!("dir {dir}")),
                            ));
                        }
                    }
                    TxnOp::AttrUpdate { dir, delta } => {
                        // Cold path (group_ops already peeled off hot ones):
                        // exclusive lock + in-place merge at the base owner.
                        let key = attr_key(*dir);
                        if shard
                            .locks
                            .try_lock(&key, txn, LockMode::Exclusive)
                            .is_err()
                        {
                            shard.record_abort(*dir, &self.opts);
                            return Err(fail(
                                &locks,
                                &remote_locks,
                                MetaError::TxnConflict { retries: 0 },
                            ));
                        }
                        locks.push(key.clone());
                        if !shard.engine.contains(&key) {
                            return Err(fail(
                                &locks,
                                &remote_locks,
                                MetaError::NotFound(format!("dir {dir}")),
                            ));
                        }
                        writes.push(WriteCmd::MergeAttr(key, *delta));
                    }
                },
                ShardOp::HotAttr { dir, delta } => {
                    // Exclusive lock on the (unique-ts) delta key: conflict-
                    // free, but it makes the in-flight append visible to
                    // migration quiescence on this shard.
                    let dkey = delta_key(*dir, txn);
                    if shard
                        .locks
                        .try_lock(&dkey, txn, LockMode::Exclusive)
                        .is_err()
                    {
                        return Err(fail(
                            &locks,
                            &remote_locks,
                            MetaError::TxnConflict { retries: 0 },
                        ));
                    }
                    locks.push(dkey);
                    // Fence: a shared lock on the base attribute row at its
                    // owner, so rmdir's exclusive lock excludes in-flight
                    // appends. Modeled as a lock service colocated with the
                    // base row — no extra RPC (and on an unsplit region it
                    // IS the local lock manager, the historical hot path).
                    let akey = attr_key(*dir);
                    let base_owner = self.map.read().owner(place_of(&akey));
                    let base = &self.shards[base_owner];
                    if base.locks.try_lock(&akey, txn, LockMode::Shared).is_err() {
                        return Err(fail(
                            &locks,
                            &remote_locks,
                            MetaError::TxnConflict { retries: 0 },
                        ));
                    }
                    if base_owner == shard_idx {
                        locks.push(akey.clone());
                    } else {
                        remote_locks.push((base_owner, akey.clone()));
                    }
                    if !base.engine.contains(&akey) {
                        return Err(fail(
                            &locks,
                            &remote_locks,
                            MetaError::NotFound(format!("dir {dir}")),
                        ));
                    }
                    writes.push(WriteCmd::AppendDelta(*dir, txn, *delta));
                }
                ShardOp::Purge(dir) => {
                    // Lock every local delta record of the dying directory;
                    // the base owner's exclusive attr lock (same txn) blocks
                    // new appends, so the set is stable through commit.
                    let local: Vec<RowKey> =
                        mantle_engine::scan_versions(&*shard.engine, *dir, ATTR_ROW_NAME)
                            .into_iter()
                            .filter(|(k, _)| k.ts != TxnId::BASE)
                            .map(|(k, _)| k)
                            .collect();
                    for k in local {
                        if shard.locks.try_lock(&k, txn, LockMode::Exclusive).is_err() {
                            return Err(fail(
                                &locks,
                                &remote_locks,
                                MetaError::TxnConflict { retries: 0 },
                            ));
                        }
                        locks.push(k);
                    }
                    writes.push(WriteCmd::PurgeDeltas(*dir));
                }
            }
        }
        Ok(ShardPrepared {
            shard: shard_idx,
            locks,
            remote_locks,
            writes,
        })
    }

    /// Commit phase of 2PC: applies planned writes, makes them durable, and
    /// releases locks (one parallel RPC fan-out).
    pub fn commit(&self, prepared: Prepared, stats: &mut RequestCtx) {
        mantle_rpc::net_round_trip(&self.config);
        let plan = self.faults.get();
        for sp in &prepared.shards {
            let shard = &self.shards[sp.shard];
            if plan
                .as_ref()
                .is_some_and(|p| p.fires(FaultKind::TxnCommit, shard.node.name()))
            {
                // The commit decision is already durable: the participant
                // missed the first delivery and the coordinator re-sends —
                // one extra round trip, the transaction still commits
                // exactly once (2PC commit-phase retry semantics).
                stats.note_retry(RetryClass::Transient);
                stats.rpc();
                mantle_rpc::net_round_trip(&self.config);
            }
            // Must-deliver: the decision is made, so a lost or shed commit
            // message is re-sent until the participant applies it.
            mantle_rpc::deliver_batched(stats, &shard.node, "txn_commit", || {
                for w in &sp.writes {
                    self.apply_write(sp.shard, w);
                }
                if !sp.writes.is_empty() {
                    shard.wal.append();
                }
                shard.locks.unlock_all(&sp.locks, prepared.txn);
                for (s, k) in &sp.remote_locks {
                    self.shards[*s].locks.unlock(k, prepared.txn);
                }
            });
        }
        self.metrics.txns_committed.inc();
    }

    /// Aborts a prepared transaction, releasing every acquired lock.
    pub fn abort(&self, prepared: Prepared, stats: &mut RequestCtx) {
        self.release_prepared(&prepared.shards, prepared.txn, stats);
        self.metrics.txns_aborted.inc();
    }

    fn release_prepared(&self, shards: &[ShardPrepared], txn: TxnId, stats: &mut RequestCtx) {
        if shards.is_empty() {
            return;
        }
        mantle_rpc::net_round_trip(&self.config);
        for sp in shards {
            let shard = &self.shards[sp.shard];
            mantle_rpc::deliver_batched(stats, &shard.node, "txn_abort", || {
                shard.locks.unlock_all(&sp.locks, txn);
                for (s, k) in &sp.remote_locks {
                    self.shards[*s].locks.unlock(k, txn);
                }
            });
        }
    }

    fn execute_single_shard(
        &self,
        txn: TxnId,
        epoch: u64,
        group: &(usize, Vec<ShardOp<'_>>),
        stats: &mut RequestCtx,
    ) -> Result<TxnId> {
        let (shard_idx, ops) = group;
        let shard = &self.shards[*shard_idx];
        shard.node.try_rpc_named(stats, "txn_1shard", || {
            let sp = match self.prepare_on_shard(*shard_idx, txn, epoch, ops) {
                Ok(sp) => sp,
                Err(e) => {
                    self.metrics.txns_aborted.inc();
                    return Err(e);
                }
            };
            for w in &sp.writes {
                self.apply_write(*shard_idx, w);
            }
            if !sp.writes.is_empty() {
                shard.wal.append();
            }
            shard.locks.unlock_all(&sp.locks, txn);
            for (s, k) in &sp.remote_locks {
                self.shards[*s].locks.unlock(k, txn);
            }
            self.metrics.txns_committed.inc();
            Ok(txn)
        })?
    }
}
