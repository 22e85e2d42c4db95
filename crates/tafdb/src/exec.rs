//! The transaction plane: routing ops into per-shard runs of steps
//! (`crate::plan`), the single-RPC fast path, and two-phase commit with
//! no-wait row locks. The plan copies nothing out of the ops: what a step
//! locks, writes and releases is read back from the op it names.
//!
//! Transactions snapshot the shard map once, route against the snapshot,
//! and validate `epoch` at every participant's prepare; a mismatch (or an
//! active migration marker on the shard) rejects the attempt with
//! [`MetaError::StaleRoute`], which the [`TafDb::execute`] retry loop
//! absorbs by re-snapshotting.

use std::ops::{Bound, ControlFlow};
use std::sync::atomic::Ordering;

use mantle_engine::{dir_end, versions_end, KeyBound};
use mantle_rpc::{classify_txn, FaultKind, RetryPolicy};
use mantle_store::{KeyParts, LockMode, RowKeyView};
use mantle_types::record::ATTR_ROW_NAME;
use mantle_types::{InodeId, MetaError, RequestCtx, Result, RetryClass, TxnId};

use crate::db::TafDb;
use crate::plan::{Extras, How, Step, Steps};
use crate::schema::{attr_view, delta_key, delta_view, StoredRow};
use crate::shard::{InFlight, Shard};
use crate::shardmap::{dir_region, place_of, ShardMap};
use crate::txn::{Prepared, TxnOp};

/// One attempt of a transaction: its timestamp and the caller's ops, which
/// every phase reads through the plan's steps.
struct Attempt<'a> {
    txn: TxnId,
    ops: &'a [TxnOp],
}

fn conflict() -> MetaError {
    MetaError::TxnConflict { retries: 0 }
}

/// Whether directory `dir` has a live child on `shard`: the first row on
/// either side of its `(dir, "/_ATTR", *)` version range answers, so a
/// refused rmdir reads at most two rows however large the directory.
/// (Both sides: `-x`, `.y` or ` z` sort *before* `/_ATTR`.)
fn has_children(shard: &Shard, dir: InodeId) -> bool {
    let any_in = |lo: KeyBound<'_>, hi: KeyBound<'_>| {
        let mut any = false;
        shard.engine.scan(lo, hi, &mut |_, _| {
            any = true;
            ControlFlow::Break(())
        });
        any
    };
    any_in(
        Bound::Included(&RowKeyView::base(dir, "")),
        Bound::Excluded(&attr_view(dir)),
    ) || any_in(
        Bound::Excluded(&versions_end(dir, ATTR_ROW_NAME)),
        Bound::Excluded(&dir_end(dir)),
    )
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
                let t = Attempt {
                    txn: self.begin(),
                    ops,
                };
                let m = self.shard_map();
                let steps = self.route_ops(&m, &t);
                let mut groups = steps.groups();
                match (groups.next(), groups.next()) {
                    (Some(only), None) => self.execute_single_shard(&t, m.epoch(), only, stats)?,
                    _ => {
                        let extras = self.prepare_steps(&t, m.epoch(), &steps, stats)?;
                        self.commit_steps(&t, &steps, &extras, stats);
                    }
                }
                Ok(t.txn)
            },
        );
        match outcome {
            Err(MetaError::TxnConflict { .. }) => Err(MetaError::TxnConflict { retries: attempts }),
            other => other,
        }
    }

    /// Routes `t.ops` against map snapshot `m` into the plan's steps,
    /// preserving op order within each shard (first-touch shard order).
    /// Also decides hot/cold for `AttrUpdate` (once per attempt, so the
    /// TTL-refresh dynamics of `is_hot` match the pre-placement behaviour
    /// exactly) and expands region-wide ops (`ExpectEmptyDir`, attr-row
    /// `Delete`) to every owner of the directory's region.
    fn route_ops(&self, m: &ShardMap, t: &Attempt<'_>) -> Steps {
        let mut steps = Steps::new();
        for (op, txn_op) in t.ops.iter().enumerate() {
            let mut push = |shard, how| steps.push(Step { shard, op, how });
            match txn_op {
                TxnOp::AttrUpdate { dir, .. } => {
                    let base_place = place_of(&attr_view(*dir));
                    let base_owner = m.owner(base_place);
                    if self.opts.delta_records && self.shards[base_owner].is_hot(*dir, &self.opts) {
                        // Hot: the delta record routes by its (unique) txn
                        // timestamp, spreading a hot directory's appends
                        // across a split region.
                        let dplace = place_of(&delta_view(*dir, t.txn));
                        m.record_hit(dplace);
                        push(m.owner(dplace), How::Hot);
                    } else {
                        m.record_hit(base_place);
                        push(base_owner, How::Plain);
                    }
                }
                TxnOp::Delete { key } if key.name.as_ref() == ATTR_ROW_NAME => {
                    let place = place_of(key);
                    m.record_hit(place);
                    let owner = m.owner(place);
                    push(owner, How::Plain);
                    // Delta records of the dying directory may live on other
                    // region owners; each purges its own.
                    let (rs, re) = dir_region(key.pid);
                    for o in m.owners_of(rs, re) {
                        if o != owner {
                            push(o, How::Purge);
                        }
                    }
                }
                TxnOp::ExpectEmptyDir { dir } => {
                    let (rs, re) = dir_region(*dir);
                    for o in m.owners_of(rs, re) {
                        push(o, How::Plain);
                    }
                }
                TxnOp::InsertUnique { key, .. }
                | TxnOp::Put { key, .. }
                | TxnOp::Delete { key }
                | TxnOp::ExpectExists { key }
                | TxnOp::SetPermission { key, .. } => {
                    let place = place_of(key);
                    m.record_hit(place);
                    push(m.owner(place), How::Plain);
                }
            }
        }
        steps
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
        let t = Attempt { txn, ops };
        let steps = self.route_ops(&m, &t);
        let extras = self.prepare_steps(&t, m.epoch(), &steps, stats)?;
        Ok(Prepared {
            txn,
            ops: ops.to_vec(),
            steps,
            extras,
        })
    }

    fn prepare_steps(
        &self,
        t: &Attempt<'_>,
        epoch: u64,
        steps: &Steps,
        stats: &mut RequestCtx,
    ) -> Result<Extras> {
        // One fan-out round trip covers the parallel per-shard prepares.
        mantle_rpc::net_round_trip(&self.config);
        let plan = self.faults.get();
        let mut extras = Extras::default();
        for (n_prepared, group) in steps.groups().enumerate() {
            let shard = &self.shards[group[0].shard];
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
                        self.prepare_on_shard(t, epoch, group, &mut extras)
                    })
                    .and_then(|r| r)
            };
            if let Err(e) = result {
                self.release_groups(t, steps.groups().take(n_prepared), &extras, stats);
                self.metrics.txns_aborted.inc();
                return Err(e);
            }
        }
        Ok(extras)
    }

    /// Validates one shard's steps and takes their row locks, in order. On
    /// a failure at step `i` the locks of steps `0..=i` are released again
    /// (release is idempotent, so a step that failed before or between its
    /// own acquisitions needs no case of its own).
    fn prepare_on_shard(
        &self,
        t: &Attempt<'_>,
        epoch: u64,
        group: &[Step],
        extras: &mut Extras,
    ) -> Result<()> {
        let shard = &self.shards[group[0].shard];
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
        for (i, step) in group.iter().enumerate() {
            if let Err(err) = self.prepare_step(t, *step, extras) {
                self.unlock_steps(t, &group[..=i], extras);
                if matches!(err, MetaError::TxnConflict { .. }) {
                    self.metrics.lock_conflicts.inc();
                    mantle_obs::flight::annotate("tafdb:txn_conflict");
                }
                return Err(err);
            }
        }
        Ok(())
    }

    fn prepare_step(&self, t: &Attempt<'_>, step: Step, extras: &mut Extras) -> Result<()> {
        let shard = &self.shards[step.shard];
        let lock = |key: &dyn KeyParts, mode| {
            shard
                .locks
                .try_lock(key, t.txn, mode)
                .map_err(|_| conflict())
        };
        match (step.how, &t.ops[step.op]) {
            (How::Plain, TxnOp::InsertUnique { key, .. }) => {
                lock(key, LockMode::Exclusive)?;
                if shard.engine.contains(key) {
                    return Err(MetaError::AlreadyExists(key.name.to_string()));
                }
            }
            (How::Plain, TxnOp::Put { key, .. }) => lock(key, LockMode::Exclusive)?,
            (How::Plain, TxnOp::Delete { key }) => {
                if let Err(e) = lock(key, LockMode::Exclusive) {
                    if key.name.as_ref() == ATTR_ROW_NAME {
                        shard.record_abort(key.pid, &self.opts);
                    }
                    return Err(e);
                }
                if !shard.engine.contains(key) {
                    return Err(MetaError::NotFound(key.name.to_string()));
                }
            }
            (How::Plain, TxnOp::ExpectExists { key }) => {
                lock(key, LockMode::Shared)?;
                if !shard.engine.contains(key) {
                    return Err(MetaError::NotFound(key.name.to_string()));
                }
            }
            (How::Plain, TxnOp::SetPermission { key, .. }) => {
                lock(key, LockMode::Exclusive)?;
                match shard.engine.get(key) {
                    Some(StoredRow::DirAccess { .. }) => {}
                    Some(_) => return Err(MetaError::NotADirectory(key.name.to_string())),
                    None => return Err(MetaError::NotFound(key.name.to_string())),
                }
            }
            (How::Plain, TxnOp::ExpectEmptyDir { dir }) => {
                // Region-expanded: every owner checks its own slice.
                if has_children(shard, *dir) {
                    return Err(MetaError::NotEmpty(format!("dir {dir}")));
                }
            }
            (How::Plain, TxnOp::AttrUpdate { dir, .. }) => {
                // Cold path (route_ops already peeled off hot ones):
                // exclusive lock + in-place merge at the base owner.
                let key = attr_view(*dir);
                if let Err(e) = lock(&key, LockMode::Exclusive) {
                    shard.record_abort(*dir, &self.opts);
                    return Err(e);
                }
                if !shard.engine.contains(&key) {
                    return Err(MetaError::NotFound(format!("dir {dir}")));
                }
            }
            (How::Hot, TxnOp::AttrUpdate { dir, .. }) => {
                // Exclusive lock on the (unique-ts) delta key: conflict-
                // free, but it makes the in-flight append visible to
                // migration quiescence on this shard.
                lock(&delta_view(*dir, t.txn), LockMode::Exclusive)?;
                // Fence: a shared lock on the base attribute row at its
                // owner, so rmdir's exclusive lock excludes in-flight
                // appends. Modeled as a lock service colocated with the
                // base row — no extra RPC (and on an unsplit region it
                // IS the local lock manager, the historical hot path).
                let akey = attr_view(*dir);
                let base_owner = self.map.read().owner(place_of(&akey));
                let base = &self.shards[base_owner];
                base.locks
                    .try_lock(&akey, t.txn, LockMode::Shared)
                    .map_err(|_| conflict())?;
                if base_owner != step.shard {
                    extras.remote_fences.push((step.shard, base_owner, *dir));
                }
                if !base.engine.contains(&akey) {
                    return Err(MetaError::NotFound(format!("dir {dir}")));
                }
            }
            (How::Purge, TxnOp::Delete { key }) => {
                // Lock every local delta record of the dying directory;
                // the base owner's exclusive attr lock (same txn) blocks
                // new appends, so the set is stable through commit.
                // Recorded, then locked: `unlock_steps` skips one not held.
                let from = extras.purged.len();
                shard.attr_rows(key.pid, &mut |k, _| {
                    if k.ts != TxnId::BASE {
                        extras.purged.push((step.shard, k.clone()));
                    }
                    ControlFlow::Continue(())
                });
                for (_, k) in &extras.purged[from..] {
                    lock(k, LockMode::Exclusive)?;
                }
            }
            (how, op) => unreachable!("route_ops never routes {op:?} as {how:?}"),
        }
        Ok(())
    }

    /// Releases what `steps` (one shard's, or a prefix of them) hold for
    /// `t.txn`: the row each step's op names, and whatever `extras`
    /// recorded for the shard.
    fn unlock_steps(&self, t: &Attempt<'_>, steps: &[Step], extras: &Extras) {
        let Some(first) = steps.first() else { return };
        let shard = &self.shards[first.shard];
        let unlock = |key: &dyn KeyParts| shard.locks.unlock(key, t.txn);
        for step in steps {
            match (step.how, &t.ops[step.op]) {
                (How::Purge, _) | (_, TxnOp::ExpectEmptyDir { .. }) => {}
                (How::Hot, TxnOp::AttrUpdate { dir, .. }) => {
                    unlock(&delta_view(*dir, t.txn));
                    // The fence, when the base row lives here; when it does
                    // not, `extras` has it and this finds nothing to release.
                    unlock(&attr_view(*dir));
                }
                (_, TxnOp::AttrUpdate { dir, .. }) => unlock(&attr_view(*dir)),
                (
                    _,
                    TxnOp::InsertUnique { key, .. }
                    | TxnOp::Put { key, .. }
                    | TxnOp::Delete { key }
                    | TxnOp::ExpectExists { key }
                    | TxnOp::SetPermission { key, .. },
                ) => unlock(key),
            }
        }
        for (_, at, dir) in extras.remote_fences.iter().filter(|f| f.0 == first.shard) {
            self.shards[*at].locks.unlock(&attr_view(*dir), t.txn);
        }
        for (_, key) in extras.purged.iter().filter(|p| p.0 == first.shard) {
            unlock(key);
        }
    }

    /// Applies one prepared step's write to its shard's engine; returns
    /// whether it wrote (a check-only step does not, and a group of them
    /// logs nothing).
    fn apply_step(&self, t: &Attempt<'_>, step: Step) -> bool {
        let shard = &self.shards[step.shard];
        match (step.how, &t.ops[step.op]) {
            (How::Plain, TxnOp::InsertUnique { key, row } | TxnOp::Put { key, row }) => {
                shard.engine.put(key.clone(), row.into());
            }
            (How::Plain, TxnOp::Delete { key }) => {
                Self::delete_with_deltas(shard, key);
            }
            (How::Plain, TxnOp::AttrUpdate { dir, delta }) => {
                // In place: the row is exclusively locked from prepare
                // through commit.
                shard.merge_attr(*dir, delta);
                self.metrics.inplace_updates.inc();
            }
            (How::Plain, TxnOp::SetPermission { key, permission }) => {
                // Only the mask: whatever id the (locked) row holds stays.
                let permission = *permission;
                shard.engine.update(key, &mut |cur| match cur {
                    Some(&StoredRow::DirAccess { id, .. }) => {
                        (Some(StoredRow::DirAccess { id, permission }), true)
                    }
                    other => (other.copied(), true),
                });
            }
            (How::Hot, TxnOp::AttrUpdate { dir, delta }) => {
                shard
                    .engine
                    .put(delta_key(*dir, t.txn), StoredRow::Delta(*delta));
                shard.delta_dirs.lock().insert(*dir);
                self.metrics.delta_appends.inc();
            }
            (How::Purge, TxnOp::Delete { key }) => Self::purge_deltas(shard, key.pid),
            _ => return false,
        }
        true
    }

    /// The participant's side of a commit: applies its steps' writes, logs
    /// them and releases its locks.
    fn commit_group(&self, t: &Attempt<'_>, group: &[Step], extras: &Extras) {
        let mut wrote = false;
        for step in group {
            wrote |= self.apply_step(t, *step);
        }
        if wrote {
            self.shards[group[0].shard].wal.append();
        }
        self.unlock_steps(t, group, extras);
    }

    /// Commit phase of 2PC: applies planned writes, makes them durable, and
    /// releases locks (one parallel RPC fan-out).
    pub fn commit(&self, prepared: Prepared, stats: &mut RequestCtx) {
        let t = Attempt {
            txn: prepared.txn,
            ops: &prepared.ops,
        };
        self.commit_steps(&t, &prepared.steps, &prepared.extras, stats);
    }

    fn commit_steps(
        &self,
        t: &Attempt<'_>,
        steps: &Steps,
        extras: &Extras,
        stats: &mut RequestCtx,
    ) {
        mantle_rpc::net_round_trip(&self.config);
        let plan = self.faults.get();
        for group in steps.groups() {
            let shard = &self.shards[group[0].shard];
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
                self.commit_group(t, group, extras)
            });
        }
        self.metrics.txns_committed.inc();
    }

    /// Aborts a prepared transaction, releasing every acquired lock.
    pub fn abort(&self, prepared: Prepared, stats: &mut RequestCtx) {
        let t = Attempt {
            txn: prepared.txn,
            ops: &prepared.ops,
        };
        self.release_groups(&t, prepared.steps.groups(), &prepared.extras, stats);
        self.metrics.txns_aborted.inc();
    }

    fn release_groups<'s>(
        &self,
        t: &Attempt<'_>,
        groups: impl Iterator<Item = &'s [Step]>,
        extras: &Extras,
        stats: &mut RequestCtx,
    ) {
        let mut groups = groups.peekable();
        if groups.peek().is_none() {
            return;
        }
        mantle_rpc::net_round_trip(&self.config);
        for group in groups {
            let shard = &self.shards[group[0].shard];
            mantle_rpc::deliver_batched(stats, &shard.node, "txn_abort", || {
                self.unlock_steps(t, group, extras)
            });
        }
    }

    fn execute_single_shard(
        &self,
        t: &Attempt<'_>,
        epoch: u64,
        group: &[Step],
        stats: &mut RequestCtx,
    ) -> Result<()> {
        let shard = &self.shards[group[0].shard];
        shard.node.try_rpc_named(stats, "txn_1shard", || {
            let mut extras = Extras::default();
            if let Err(e) = self.prepare_on_shard(t, epoch, group, &mut extras) {
                self.metrics.txns_aborted.inc();
                return Err(e);
            }
            self.commit_group(t, group, &extras);
            self.metrics.txns_committed.inc();
            Ok(())
        })?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{entry_key, Row, TafDbOptions};
    use mantle_types::{Permission, SimConfig};

    /// What a failed prepare releases is re-derived from its steps: a
    /// three-op transaction whose *second* lock conflicts must leave its
    /// first lock free and the holder's alone. Staged twice: the contended
    /// row on the first op's shard (the participant undoes steps `0..=1`
    /// itself) and on another (the coordinator aborts the prepared group).
    #[test]
    fn a_conflict_on_the_second_lock_leaves_no_lock_with_the_loser() {
        let db = TafDb::new(
            SimConfig::instant(),
            TafDbOptions {
                max_txn_retries: 0,
                ..TafDbOptions::default()
            },
        );
        let row = Row::DirAccess {
            id: InodeId(9),
            permission: Permission::ALL,
        };
        let put = |dir: InodeId, name: &str| TxnOp::Put {
            key: entry_key(dir, name),
            row: row.clone(),
        };
        let any_lock = || db.shards.iter().any(|s| s.locks.any_held(|_| true));
        let here = InodeId(2);
        let elsewhere = (3..100)
            .map(InodeId)
            .find(|d| db.shard_of(*d) != db.shard_of(here))
            .expect("some id maps to a different shard");
        for contended in [here, elsewhere] {
            let mut ctx = RequestCtx::new();
            let holder = db
                .prepare(db.begin(), &[put(contended, "held")], &mut ctx)
                .unwrap();
            let loser = [
                put(here, "first"),
                put(contended, "held"),
                put(here, "third"),
            ];
            assert!(matches!(
                db.execute(&loser, &mut ctx),
                Err(MetaError::TxnConflict { .. })
            ));
            assert!(any_lock(), "the loser's undo released the holder's lock");
            db.commit(holder, &mut ctx);
            assert!(!any_lock(), "the loser still holds a lock");
            assert!(db.raw_get(&entry_key(here, "first")).is_none());
        }

        // A step refused *after* it took its own lock gives that back too.
        db.bulk_apply([put(here, "taken")]);
        let dup = TxnOp::InsertUnique {
            key: entry_key(here, "taken"),
            row: row.clone(),
        };
        assert!(matches!(
            db.execute(&[put(here, "first"), dup], &mut RequestCtx::new()),
            Err(MetaError::AlreadyExists(_))
        ));
        assert!(!any_lock(), "a refused insert kept its lock");
    }
}
