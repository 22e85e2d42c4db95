//! The per-shard runtime: engine + row locks + WAL + fault points.
//!
//! A [`Shard`] bundles one [`StorageEngine`] with everything TafDB layers
//! above it: the no-wait row-lock table and latches (transaction
//! isolation), the group-commit WAL (durability), the simulated server
//! (RPC cost modeling and admission), contention tracking for delta-mode
//! activation, and the migration marker. This module also owns the
//! engine-facing write plumbing — applying prepared writes, the
//! delta-dragging delete, delta folds, and checkpoint/restore — plus
//! the relaxed single-row executor and the bulk loader's.

use std::collections::HashMap;
use std::ops::{Bound, ControlFlow};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use mantle_engine::{versions_end, KeyBound, ScanFn, StorageEngine, WriteOp};
use mantle_rpc::{FaultKind, SimNode};
use mantle_store::{GroupCommitWal, LockManager, RowKey};
use mantle_sync::LatchTable;
use mantle_types::record::ATTR_ROW_NAME;
use mantle_types::{AttrDelta, InodeId, MetaError, RequestCtx, Result, TxnId};

use crate::db::{TafDb, TafDbOptions};
use crate::schema::{attr_key, attr_view, Row, StoredRow};
use crate::shardmap::place_of;
use crate::txn::TxnOp;

/// Delta records of one directory on one shard at which the append that
/// brings the count there folds them (§5.2.1).
const FOLD_AT: u32 = 64;

// Contention tracking is cross-thread shared state, so it stays on wall
// time: per-thread virtual timestamps from different writers are not
// comparable, and abort bursts are a real-concurrency phenomenon either
// way (see DESIGN.md "Time model").
#[derive(Default)]
pub(crate) struct HotState {
    pub(crate) aborts: u32,
    pub(crate) window_start: Option<Instant>,
    pub(crate) hot_until: Option<Instant>,
}

pub(crate) struct Shard {
    /// The pluggable row organisation (DESIGN.md §4.12), holding each row
    /// in its stored form. Everything below the trait — structure,
    /// versioning, scan consistency — is the engine's business; everything
    /// above stays in this runtime.
    pub(crate) engine: Arc<dyn StorageEngine<StoredRow>>,
    pub(crate) locks: LockManager,
    pub(crate) latches: LatchTable,
    pub(crate) wal: GroupCommitWal,
    pub(crate) node: Arc<SimNode>,
    /// Delta records per directory on this shard, counted as they are
    /// appended: the count may run ahead of the rows, never behind them.
    pub(crate) delta_dirs: Mutex<HashMap<InodeId, u32>>,
    /// Contention tracker for selective delta activation (kept on the shard
    /// owning the directory's base attribute row; migrations move it).
    pub(crate) hot: Mutex<HashMap<InodeId, HotState>>,
    /// Writes currently between marker-check and engine mutation. Migration
    /// quiescence waits for this to drain once after raising the marker.
    pub(crate) in_flight: AtomicU64,
    /// Fast flag: a range migration off this shard is in progress; writes
    /// bounce with `StaleRoute` until it completes or aborts.
    pub(crate) mig_active: AtomicBool,
    /// Latest known-good checkpoint image (framed; DESIGN.md §4.11). Only
    /// replaced by a fully written, WAL-acknowledged successor.
    pub(crate) snap: Mutex<Option<Arc<Vec<u8>>>>,
}

impl Shard {
    pub(crate) fn record_abort(&self, dir: InodeId, opts: &TafDbOptions) {
        let mut hot = self.hot.lock();
        let state = hot.entry(dir).or_default();
        let now = Instant::now();
        match state.window_start {
            Some(w) if now.duration_since(w) <= opts.hot_window => state.aborts += 1,
            _ => {
                state.window_start = Some(now);
                state.aborts = 1;
            }
        }
        if state.aborts >= opts.delta_abort_threshold {
            state.hot_until = Some(now + opts.hot_ttl);
        }
    }

    /// Whether `dir` is in delta mode; refreshes the mode's TTL when it is
    /// (delta mode persists while the directory keeps being updated).
    pub(crate) fn is_hot(&self, dir: InodeId, opts: &TafDbOptions) -> bool {
        let mut hot = self.hot.lock();
        let Some(state) = hot.get_mut(&dir) else {
            return false;
        };
        let now = Instant::now();
        match state.hot_until {
            Some(until) if until > now => {
                state.hot_until = Some(now + opts.hot_ttl);
                true
            }
            _ => false,
        }
    }

    /// Visits `dir`'s attribute row and delta records on this shard, in
    /// place and in timestamp order.
    pub(crate) fn attr_rows(&self, dir: InodeId, f: &mut ScanFn<'_, StoredRow>) {
        let last = versions_end(dir, ATTR_ROW_NAME);
        self.engine
            .scan(Bound::Included(&attr_view(dir)), Bound::Included(&last), f);
    }

    /// Removes `dir`'s attribute rows on this shard from `from` through its
    /// last delta record as one engine write, so a concurrent dirstat scan
    /// never sees part of them gone; `true` when the base row was one.
    fn drop_attr_rows(&self, dir: InodeId, from: KeyBound<'_>) -> bool {
        let (last, mut dropped_base) = (versions_end(dir, ATTR_ROW_NAME), false);
        let hi: KeyBound<'_> = Bound::Included(&last);
        self.engine
            .delete_range(from, hi, &mut |k| dropped_base |= k.ts == TxnId::BASE);
        dropped_base
    }

    /// Outstanding delta records of `dir` on this shard.
    pub(crate) fn deltas(&self, dir: InodeId) -> usize {
        let mut n = 0;
        self.attr_rows(dir, &mut |k, _| {
            n += usize::from(k.ts != TxnId::BASE);
            ControlFlow::Continue(())
        });
        n
    }

    /// Merges `delta` into `dir`'s base attribute row in place; `false`
    /// (and no write) when the row is not there.
    pub(crate) fn merge_attr(&self, dir: InodeId, delta: &AttrDelta) -> bool {
        self.engine
            .update(&attr_view(dir), &mut |cur| match cur.map(|s| s.row(dir)) {
                Some(Row::DirAttr(mut attrs)) => {
                    attrs.apply_delta(delta);
                    (Some(StoredRow::from(&Row::DirAttr(attrs))), true)
                }
                _ => (cur.copied(), false),
            })
    }
}

/// Adds the delta records among `rows` to a shard's registry counts.
pub(crate) fn count_deltas(reg: &mut HashMap<InodeId, u32>, rows: &[(RowKey, StoredRow)]) {
    for (k, _) in rows {
        if k.ts != TxnId::BASE && k.name.as_ref() == ATTR_ROW_NAME {
            *reg.entry(k.pid).or_default() += 1;
        }
    }
}

/// RAII increment of a shard's in-flight write counter.
pub(crate) struct InFlight<'a>(&'a AtomicU64);

impl<'a> InFlight<'a> {
    pub(crate) fn enter(counter: &'a AtomicU64) -> Self {
        counter.fetch_add(1, Ordering::AcqRel);
        InFlight(counter)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl TafDb {
    // --- the relaxed and the bulk executor ----------------------------------

    /// Runs `ops` as independent single-row writes, in slice order, one RPC
    /// and one WAL append each and no transaction around them — §6.1's
    /// "we relax the consistency and avoid using distributed transactions",
    /// the executor the Tectonic, InfiniFS and LocoFS front-ends hand their
    /// recipes to. Stops at the first error; earlier writes stay.
    ///
    /// # Errors
    ///
    /// [`MetaError::AlreadyExists`] from an `InsertUnique` whose key is
    /// taken, [`MetaError::NotFound`] from a `Delete` or `AttrUpdate` whose
    /// row is gone, [`MetaError::Internal`] for an op with no single-row
    /// form (the `Expect*` checks, `SetPermission`).
    pub fn execute_relaxed(&self, ops: &[TxnOp], stats: &mut RequestCtx) -> Result<()> {
        ops.iter().try_for_each(|op| self.write_relaxed(op, stats))
    }

    /// One relaxed write under its RPC name (the names the baselines'
    /// traces and the chaos fault sites have always seen).
    fn write_relaxed(&self, op: &TxnOp, stats: &mut RequestCtx) -> Result<()> {
        self.live_writes.fetch_add(1, Ordering::Release);
        match op {
            TxnOp::InsertUnique { key, row } => {
                self.routed_write(stats, "insert_row", place_of(key), None, |shard| {
                    if shard.engine.put_if_absent(key.clone(), row.into()) {
                        Ok(())
                    } else {
                        Err(MetaError::AlreadyExists(key.name.to_string()))
                    }
                })
            }
            TxnOp::Put { key, row } => {
                self.routed_write(stats, "insert_row", place_of(key), None, |shard| {
                    shard.engine.put(key.clone(), row.into());
                    Ok(())
                })
            }
            TxnOp::Delete { key } => {
                self.routed_write(stats, "delete_row", place_of(key), None, |shard| {
                    if Self::delete_with_deltas(shard, key) {
                        Ok(())
                    } else {
                        Err(MetaError::NotFound(key.name.to_string()))
                    }
                })
            }
            TxnOp::AttrUpdate { dir, delta } => {
                // Under the blocking latch the paper attributes to Tectonic
                // and LocoFS under mkdir-s (§6.3): updates of one parent
                // serialize, WAL append included, instead of aborting.
                let place = place_of(&attr_view(*dir));
                self.routed_write(stats, "update_attr", place, Some(*dir), |shard| {
                    if !shard.merge_attr(*dir, delta) {
                        return Err(MetaError::NotFound(format!("dir {dir}")));
                    }
                    self.metrics.latched_updates.inc();
                    Ok(())
                })
            }
            other => Err(MetaError::Internal(format!(
                "{other:?} has no single-row form"
            ))),
        }
    }

    /// The one relaxed routing loop: one RPC to the owner of `place`
    /// running `write` and, when it succeeds, a WAL append — both under
    /// `latched`'s exclusive latch when there is one; re-routed while the
    /// shard map moves underneath it.
    fn routed_write(
        &self,
        stats: &mut RequestCtx,
        rpc: &str,
        place: u64,
        latched: Option<InodeId>,
        write: impl Fn(&Shard) -> Result<()>,
    ) -> Result<()> {
        loop {
            let (owner, epoch) = self.route(place);
            let shard = &self.shards[owner];
            let out = shard.node.try_rpc_named(stats, rpc, || {
                let _g = InFlight::enter(&shard.in_flight);
                self.check_route(owner, place, epoch)?;
                let _latch = latched.map(|dir| shard.latches.exclusive(&dir.raw()));
                write(shard)?;
                shard.wal.append();
                Ok(())
            })?;
            match out {
                Err(MetaError::StaleRoute { .. }) => self.note_stale(stats),
                other => return other,
            }
        }
    }

    /// Loads `ops` (by value: nothing is copied) straight into the engines:
    /// no RPC, row lock, WAL append or virtual time, and no existence check
    /// (an insert overwrites) — the free executor every
    /// [`mantle_types::BulkLoad`] impl populates a namespace with before an
    /// experiment, from the same recipe its live path runs.
    ///
    /// # Panics
    ///
    /// On an op that loads nothing (a check, a delete, a `setattr`).
    pub fn bulk_apply(&self, ops: impl IntoIterator<Item = TxnOp>) {
        for op in ops {
            match op {
                TxnOp::InsertUnique { key, row } | TxnOp::Put { key, row } => {
                    self.shards[self.owner_of(&key)]
                        .engine
                        .load_row(key, (&row).into());
                }
                TxnOp::AttrUpdate { dir, delta } => {
                    self.shards[self.owner_of(&attr_view(dir))].merge_attr(dir, &delta);
                }
                other => panic!("bulk_apply: {other:?} loads nothing"),
            }
        }
    }

    // --- engine-facing write plumbing --------------------------------------

    /// Deletes every delta record of `dir` stored on `shard` — the rmdir
    /// companion run by region owners other than the one holding the base
    /// attribute row (whose [`TafDb::delete_with_deltas`] retires its local
    /// deltas itself).
    pub(crate) fn purge_deltas(shard: &Shard, dir: InodeId) {
        shard.delta_dirs.lock().remove(&dir);
        shard.drop_attr_rows(dir, Bound::Excluded(&attr_view(dir)));
    }

    /// Deletes `key`; when it is an attribute row, its directory's delta
    /// records *on this shard* and its contention state go with it (under
    /// the compaction latch). Returns whether the base row existed.
    pub(crate) fn delete_with_deltas(shard: &Shard, key: &RowKey) -> bool {
        if key.name.as_ref() != ATTR_ROW_NAME {
            return shard.engine.delete(key);
        }
        let _latch = shard.latches.exclusive(&key.pid.raw());
        shard.delta_dirs.lock().remove(&key.pid);
        shard.hot.lock().remove(&key.pid);
        shard.drop_attr_rows(key.pid, Bound::Included(key))
    }

    // --- compaction --------------------------------------------------------

    /// Counts the delta record of `dir` just appended on shard `i`. The
    /// append that brings the count to [`FOLD_AT`] folds them itself: real
    /// cost on that op, no modeled time, as the paper's background
    /// compactor charges no client. A fold skipped for a migration is
    /// retried by the next append.
    pub(crate) fn count_delta(&self, i: usize, dir: InodeId) {
        let n = {
            let mut reg = self.shards[i].delta_dirs.lock();
            let n = reg.entry(dir).or_default();
            *n += 1;
            *n
        };
        if n >= FOLD_AT {
            if let Some(_no_migration) = self.migration_lock.try_read() {
                self.fold(i, dir);
            }
        }
    }

    /// One sweep folding every registered directory on every shard; none
    /// while a migration holds the migration lock. Public so tests and
    /// benches can force a deterministic fold.
    pub fn compact_once(&self) {
        let Some(_no_migration) = self.migration_lock.try_read() else {
            return;
        };
        for (i, shard) in self.shards.iter().enumerate() {
            let dirs: Vec<InodeId> = shard.delta_dirs.lock().keys().copied().collect();
            for dir in dirs {
                self.fold(i, dir);
            }
        }
    }

    /// Folds `dir`'s delta records on shard `i` (§5.2.1): on the owner of
    /// the base attribute row into that row; on another owner of a split
    /// region into the earliest local record, so garbage stays bounded
    /// without a cross-shard write. Then recounts the registry.
    ///
    /// The caller holds `migration_lock` shared. A range migration stages
    /// uncommitted copies on its target and deletes them by key if it
    /// aborts: delta records summed out of (or into) a staged copy would
    /// survive that abort. Migrations hold the lock exclusively from before
    /// the first staged row to the map swap, so a fold runs between
    /// migrations or not at all.
    fn fold(&self, i: usize, dir: InodeId) {
        let shard = &self.shards[i];
        let owns_base = self.map.read().owner(place_of(&attr_view(dir))) == i;
        // Shared latch: deletion of the directory is excluded while
        // folding, but concurrent delta appends proceed.
        let _latch = shard.latches.shared(&dir.raw());
        let mut folded = 0usize;
        let (first, last) = (attr_view(dir), versions_end(dir, ATTR_ROW_NAME));
        let (lo, hi): (KeyBound, KeyBound) = (Bound::Included(&first), Bound::Included(&last));
        shard.engine.update_range(lo, hi, &mut |rows| {
            let deltas: Vec<(RowKey, AttrDelta)> = rows
                .iter()
                .filter_map(|(k, v)| match v {
                    StoredRow::Delta(d) if k.ts != TxnId::BASE => Some((k.clone(), *d)),
                    _ => None,
                })
                .collect();
            if owns_base {
                let base = attr_key(dir);
                let Some(Row::DirAttr(mut attrs)) = rows
                    .iter()
                    .find(|(k, _)| k == &base)
                    .map(|(_, v)| v.row(dir))
                else {
                    return Vec::new();
                };
                if deltas.is_empty() {
                    return Vec::new();
                }
                for (_, d) in &deltas {
                    attrs.apply_delta(d);
                }
                folded = deltas.len();
                let mut ops = vec![WriteOp::Put(base, (&Row::DirAttr(attrs)).into())];
                ops.extend(deltas.iter().map(|(k, _)| WriteOp::Delete(k.clone())));
                ops
            } else {
                // Base row lives elsewhere: coalesce into the first local
                // delta (its key already routes here, so the placement
                // invariant holds).
                if deltas.len() <= 1 {
                    return Vec::new();
                }
                let mut sum = deltas[0].1;
                for (_, d) in &deltas[1..] {
                    sum.merge(d);
                }
                folded = deltas.len() - 1;
                let first = deltas[0].0.clone();
                let mut ops = vec![WriteOp::Put(first, StoredRow::Delta(sum))];
                ops.extend(deltas[1..].iter().map(|(k, _)| WriteOp::Delete(k.clone())));
                ops
            }
        });
        if folded > 0 {
            self.metrics.compactions.inc();
        }
        // An append counts itself after its row lands, so the rows left
        // here include every append counted so far: the count may run
        // ahead of them afterwards, never behind.
        let mut reg = shard.delta_dirs.lock();
        match shard.deltas(dir) {
            0 => reg.remove(&dir),
            left => reg.insert(dir, u32::try_from(left).unwrap_or(u32::MAX)),
        };
    }

    // --- checkpoint / restore ----------------------------------------------

    /// Checkpoints shard `i` (DESIGN.md §4.11): the engine serializes every
    /// live row into a checksummed image ([`StorageEngine::checkpoint`]),
    /// the WAL acknowledges it with a checkpoint record (recovery then
    /// truncates the shard's log to it), and the image is retained as the
    /// shard's recovery point. Returns the rows captured.
    ///
    /// # Errors
    ///
    /// [`MetaError::Transient`] when an injected `snap_write` fault crashes
    /// the image write or the checkpoint record's fsync is torn; either way
    /// the previous checkpoint stays authoritative — the same
    /// discard-on-abort discipline as range migration.
    pub fn checkpoint_shard(&self, i: usize) -> Result<usize> {
        let shard = &self.shards[i];
        let _span = mantle_obs::trace::span(
            "shard_checkpoint",
            shard.node.name(),
            mantle_obs::trace::SpanKind::Local,
        );
        let framed = shard.engine.checkpoint();
        let n = mantle_engine::image_row_count(&framed).expect("self-framed image") as usize;
        if self
            .faults
            .get()
            .is_some_and(|p| p.fires(FaultKind::SnapshotWrite, shard.node.name()))
        {
            self.metrics.checkpoint_aborts.inc();
            mantle_obs::flight::annotate_with(|| {
                format!("tafdb:checkpoint phase=abort_write shard={i}")
            });
            return Err(MetaError::Transient {
                kind: "snap_write".to_string(),
                at: shard.node.name().to_string(),
            });
        }
        shard.wal.append_checkpoint(n as u64)?;
        *shard.snap.lock() = Some(Arc::new(framed));
        self.metrics.checkpoints.inc();
        mantle_obs::flight::annotate_with(|| format!("tafdb:checkpoint shard={i} rows={n}"));
        Ok(n)
    }

    /// Checkpoints every shard; returns the total rows captured across the
    /// shards that succeeded and the index of any shard whose checkpoint
    /// aborted on an injected fault.
    pub fn checkpoint_all(&self) -> (usize, Vec<usize>) {
        let mut total = 0;
        let mut failed = Vec::new();
        for i in 0..self.shards.len() {
            match self.checkpoint_shard(i) {
                Ok(n) => total += n,
                Err(_) => failed.push(i),
            }
        }
        (total, failed)
    }

    /// Restores shard `i` from its latest known-good checkpoint, replacing
    /// the live rows and recounting the delta-record registry from the
    /// restored keys. Returns `false` (leaving the shard untouched) when no
    /// checkpoint exists or the image fails checksum validation (a torn
    /// write) — the caller falls back to full WAL replay.
    pub fn restore_shard(&self, i: usize) -> bool {
        let shard = &self.shards[i];
        let Some(framed) = shard.snap.lock().clone() else {
            return false;
        };
        let Some(rows) = shard.engine.restore(&framed) else {
            self.metrics.checkpoint_aborts.inc();
            return false;
        };
        self.live_writes.fetch_add(1, Ordering::Release);
        let mut reg = shard.delta_dirs.lock();
        reg.clear();
        count_deltas(&mut reg, &rows);
        mantle_obs::flight::annotate_with(|| format!("tafdb:checkpoint_restore shard={i}"));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe;
    use crate::shardmap::{dir_region, DIR_REGION_SPAN};
    use mantle_types::{SimConfig, ROOT_ID};

    /// A migration's target holds uncommitted copies until the map swap,
    /// and an abort deletes them by key: a sweep that summed them with the
    /// target's own delta records would outlive the abort. Staged: a hot
    /// directory with delta records on two owners, the migration lock held
    /// as `migrate_range` holds it.
    #[test]
    fn compaction_stands_aside_while_a_migration_holds_the_lock() {
        let db = TafDb::new(SimConfig::instant(), TafDbOptions::default());
        let dir = InodeId(77);
        db.bulk_apply(recipe::root(dir));
        let (rs, _) = dir_region(dir);
        let mid = rs + DIR_REGION_SPAN / 2;
        assert!(db.split_range(rs, mid));
        let elsewhere = (db.shard_map().owner(mid) + 1) % db.n_shards();
        db.migrate_range(mid, elsewhere).unwrap();
        db.force_hot(dir);
        for now in 0..16 {
            let bump = TxnOp::AttrUpdate {
                dir,
                delta: AttrDelta::entry_added(now),
            };
            db.execute(&[bump], &mut RequestCtx::new()).unwrap();
        }
        let holders = db
            .shards
            .iter()
            .filter(|s| s.delta_dirs.lock().contains_key(&dir))
            .count();
        assert_eq!(holders, 2, "delta records on both owners");
        let (pending, compactions) = (db.pending_deltas(dir), db.counters().compactions);
        assert_eq!(pending, 16);

        let migrating = db.migration_lock.write();
        db.compact_once();
        assert_eq!(db.counters().compactions, compactions);
        assert_eq!(db.pending_deltas(dir), pending);
        drop(migrating);

        db.compact_once();
        assert_eq!(db.counters().compactions, compactions + 2);
        // The base owner folded its share away; the other owner's became one.
        assert_eq!(db.pending_deltas(dir), 1);
    }

    /// An rmdir takes its directory's contention state with it: inode ids
    /// are never reused, so an entry left behind would never be read again.
    #[test]
    fn rmdir_drops_the_directory_hot_state() {
        let db = TafDb::new(SimConfig::instant(), TafDbOptions::default());
        let (dir, name) = (InodeId(77), mantle_types::Name::from("d"));
        let mut ctx = RequestCtx::new();
        db.execute(&recipe::mkdir(ROOT_ID, name.clone(), dir, 1), &mut ctx)
            .unwrap();
        db.force_hot(dir);
        let holds = |db: &TafDb| db.shards.iter().any(|s| s.hot.lock().contains_key(&dir));
        assert!(holds(&db));
        db.execute(&recipe::rmdir(ROOT_ID, name, dir, 2), &mut ctx)
            .unwrap();
        assert!(!holds(&db), "hot state outlived its directory");
    }
}
