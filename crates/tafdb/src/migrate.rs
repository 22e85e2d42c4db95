//! The placement plane: metadata-only range splits/merges, online range
//! migration (marker → quiesce → engine-checkpoint copy → map swap), and
//! the load-balancing controller tick.
//!
//! Range migration: install a marker (new writes on the shard bounce with
//! `StaleRoute`), drain in-flight prepares (`in_flight` counter), wait for
//! row locks in the moving range to release, snapshot the moving rows
//! through [`mantle_engine::StorageEngine::checkpoint_filtered`], replay the image onto
//! the target in WAL-logged batches, swap the map (the commit point), then
//! delete the source copies. Crash points before the swap leave the source
//! authoritative and drop every staged row (plus its engine versions) from
//! the target; the `split_prepare`/`split_commit` fault hooks exercise
//! exactly those windows.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use mantle_engine::WriteOp;
use mantle_rpc::FaultKind;
use mantle_store::RowKey;
use mantle_types::record::ATTR_ROW_NAME;
use mantle_types::{InodeId, MetaError, Result, TxnId};

use crate::db::TafDb;
use crate::schema::StoredRow;
use crate::shard::Shard;
use crate::shardmap::{place_of, DIR_REGION_SPAN};

/// Narrowest range the controller will split further (placement-key span).
const MIN_SPLIT_SPAN: u64 = 1 << 16;

/// Rows copied per WAL-logged migration batch.
const MIGRATION_BATCH: usize = 256;

impl TafDb {
    /// Metadata-only range split at `at` within the range owning `place`
    /// (both halves keep their shard; no rows move). Returns whether the
    /// split happened — `false` when `at` no longer falls strictly inside
    /// the range (a concurrent mutation got there first).
    pub fn split_range(&self, place: u64, at: u64) -> bool {
        let _mg = self.migration_lock.write();
        let changed = {
            let mut w = self.map.write();
            let idx = w.range_index(place);
            let r = w.range(idx);
            if at <= r.start || at > r.end {
                false
            } else {
                let new = w.with_split(idx, at);
                new.check_invariants();
                *w = Arc::new(new);
                true
            }
        };
        if changed {
            self.metrics.shard_splits.inc();
        }
        changed
    }

    /// Metadata-only cuts isolating the directory region around `place`
    /// inside its current range, so the hot region becomes its own range.
    fn isolate_region(&self, place: u64) -> bool {
        let rs = place & !(DIR_REGION_SPAN - 1);
        let re = rs | (DIR_REGION_SPAN - 1);
        let _mg = self.migration_lock.write();
        let cut_count = {
            let mut w = self.map.write();
            let idx = w.range_index(place);
            let r = w.range(idx);
            let mut cuts = Vec::new();
            if r.start < rs && rs <= r.end {
                cuts.push(rs);
            }
            // (re < r.end also rules out re == u64::MAX, so re + 1 is safe.)
            if re < r.end {
                cuts.push(re + 1);
            }
            if cuts.is_empty() {
                0
            } else {
                let new = w.with_cuts(idx, &cuts);
                new.check_invariants();
                *w = Arc::new(new);
                cuts.len() as u64
            }
        };
        if cut_count > 0 {
            self.metrics.shard_splits.add(cut_count);
        }
        cut_count > 0
    }

    /// Merges the range owning `place` with its right neighbour when both
    /// are on the same shard (metadata-only).
    fn merge_at(&self, place: u64) -> bool {
        let _mg = self.migration_lock.write();
        let merged = {
            let mut w = self.map.write();
            let idx = w.range_index(place);
            match w.with_merge(idx) {
                Some(new) => {
                    new.check_invariants();
                    *w = Arc::new(new);
                    true
                }
                None => false,
            }
        };
        if merged {
            self.metrics.shard_merges.inc();
        }
        merged
    }

    /// Waits for writes on `src` to drain after the migration marker went
    /// up: one observation of `in_flight == 0` proves no prepare is between
    /// marker-check and lock acquisition; after that, the remaining lock
    /// holders (pre-marker transactions) release at commit/abort. Bounded;
    /// returns `false` on timeout.
    fn quiesce(src: &Shard, start: u64, end: u64) -> bool {
        let in_range = |k: &RowKey| {
            let p = place_of(k);
            start <= p && p <= end
        };
        for _ in 0..5_000_000u64 {
            if src.in_flight.load(Ordering::Acquire) == 0 && !src.locks.any_held(in_range) {
                return true;
            }
            std::thread::yield_now();
        }
        false
    }

    /// Migrates the whole range owning `place` to shard `to`: marker →
    /// quiesce → engine-checkpoint snapshot → WAL-logged batched replay →
    /// map swap (epoch bump, the commit point) → source delete. The copy
    /// rides [`mantle_engine::StorageEngine::checkpoint_filtered`], so the bytes shipped
    /// are exactly a (filtered) shard checkpoint image and the target
    /// ingests them engine-agnostically. Crash hooks `split_prepare`
    /// (before any row copies) and `split_commit` (after the copy, before
    /// the swap) abort the migration with the source left fully
    /// authoritative and the target's staged rows — including any engine-
    /// internal versions they created — discarded.
    ///
    /// # Errors
    ///
    /// [`MetaError::Transient`] on an injected crash or a quiescence
    /// timeout; the migration is rolled back and can simply be retried.
    pub fn migrate_range(&self, place: u64, to: usize) -> Result<usize> {
        let _mg = self.migration_lock.write();
        let m = self.map.read().clone();
        let idx = m.range_index(place);
        let r = m.range(idx);
        let (start, end, from) = (r.start, r.end, r.shard);
        if from == to || to >= self.shards.len() {
            return Ok(0);
        }
        let src = &self.shards[from];
        let tgt = &self.shards[to];

        mantle_obs::flight::annotate_with(|| {
            format!(
                "tafdb:migrate from={} to={}",
                src.node.name(),
                tgt.node.name()
            )
        });
        // Raise the marker: new writes on the source bounce with StaleRoute.
        src.mig_active.store(true, Ordering::Release);
        src.wal.append(); // durable migration intent
        let clear = || src.mig_active.store(false, Ordering::Release);

        let plan = self.faults.get();
        if plan
            .as_ref()
            .is_some_and(|p| p.fires(FaultKind::SplitPrepare, src.node.name()))
        {
            clear();
            return Err(MetaError::Transient {
                kind: "split_prepare".to_string(),
                at: src.node.name().to_string(),
            });
        }

        if !Self::quiesce(src, start, end) {
            clear();
            return Err(MetaError::Transient {
                kind: "split_quiesce".to_string(),
                at: src.node.name().to_string(),
            });
        }

        // One consistent snapshot of the moving rows, as a filtered
        // checkpoint image (place ranges are not contiguous in key order,
        // so the filter runs per key).
        let image = src.engine.checkpoint_filtered(&|k: &RowKey| {
            let p = place_of(k);
            start <= p && p <= end
        });
        let rows: Vec<(RowKey, StoredRow)> =
            mantle_engine::decode_image(&image).expect("freshly encoded image");
        let keys: Vec<RowKey> = rows.iter().map(|(k, _)| k.clone()).collect();

        // WAL-logged batched replay of the image onto the target.
        for chunk in rows.chunks(MIGRATION_BATCH) {
            mantle_rpc::net_round_trip(&self.config);
            tgt.engine.apply(
                chunk
                    .iter()
                    .map(|(k, v)| WriteOp::Put(k.clone(), *v))
                    .collect(),
            );
            tgt.wal.append();
        }

        if plan
            .as_ref()
            .is_some_and(|p| p.fires(FaultKind::SplitCommit, src.node.name()))
        {
            // Abort: discard the staged target copies and let the target
            // engine retire whatever versions staging created; the map
            // never changed, so the source stayed authoritative throughout.
            tgt.engine
                .apply(keys.iter().map(|k| WriteOp::Delete(k.clone())).collect());
            tgt.engine.gc();
            tgt.wal.append();
            clear();
            return Err(MetaError::Transient {
                kind: "split_commit".to_string(),
                at: src.node.name().to_string(),
            });
        }

        // Register moved delta records with the target's compactor (only on
        // the commit path — an abort must leave no staged state behind).
        let moved_delta_dirs: HashSet<InodeId> = rows
            .iter()
            .filter(|(k, _)| k.ts != TxnId::BASE && k.name.as_ref() == ATTR_ROW_NAME)
            .map(|(k, _)| k.pid)
            .collect();
        if !moved_delta_dirs.is_empty() {
            tgt.delta_dirs
                .lock()
                .extend(moved_delta_dirs.iter().copied());
        }

        // Hand over contention state for directories whose base attribute
        // row moved (delta-mode decisions consult the base owner).
        let moved_attr_dirs: Vec<InodeId> = rows
            .iter()
            .filter(|(k, _)| k.ts == TxnId::BASE && k.name.as_ref() == ATTR_ROW_NAME)
            .map(|(k, _)| k.pid)
            .collect();
        if !moved_attr_dirs.is_empty() {
            let mut sh = src.hot.lock();
            let mut th = tgt.hot.lock();
            for d in moved_attr_dirs {
                if let Some(state) = sh.remove(&d) {
                    th.insert(d, state);
                }
            }
        }

        // Commit point: swap the map. Readers that raced the swap validate
        // ownership after reading and retry; the source rows are only
        // deleted afterwards.
        {
            let mut w = self.map.write();
            let new = w.with_reassign(idx, to);
            new.check_invariants();
            *w = Arc::new(new);
        }
        src.wal.append();
        src.engine
            .apply(keys.iter().map(|k| WriteOp::Delete(k.clone())).collect());
        src.engine.gc();
        clear();

        self.metrics.range_migrations.inc();
        self.metrics.rows_migrated.add(keys.len() as u64);
        Ok(keys.len())
    }

    /// One placement-controller tick: refresh per-shard load gauges from
    /// busy-time deltas; when the max/mean ratio exceeds the configured
    /// threshold, act on the hottest shard's hottest range — isolate the
    /// sampled hot directory region (metadata-only), halve the range and
    /// migrate the upper half to the coldest shard, or move the whole range
    /// when it is too narrow to split. When balanced, opportunistically
    /// merge the coldest same-shard neighbour pair. Public so tests and
    /// benches can drive the controller deterministically.
    ///
    /// Returns the max/mean busy-time ratio observed this tick (`1.0` when
    /// there was no load), so callers can drive ticks to convergence — the
    /// busy deltas fold in real contention waits, making any single tick's
    /// view noisy.
    pub fn rebalance_once(&self) -> f64 {
        let n = self.shards.len();
        let busy: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.node.snapshot().busy_nanos)
            .collect();
        let deltas: Vec<u64> = {
            let mut last = self.last_busy.lock();
            let d = busy
                .iter()
                .zip(last.iter())
                .map(|(b, l)| b.saturating_sub(*l))
                .collect();
            *last = busy;
            d
        };
        for (i, d) in deltas.iter().enumerate() {
            self.metrics.shard_load[i].set(*d as i64);
        }
        let total: u64 = deltas.iter().sum();
        if total == 0 || n < 2 {
            return 1.0;
        }
        let mean = total as f64 / n as f64;
        let (hot_shard, &max_d) = deltas
            .iter()
            .enumerate()
            .max_by_key(|(_, d)| **d)
            .expect("n >= 2");
        let cold_shard = deltas
            .iter()
            .enumerate()
            .min_by_key(|(_, d)| **d)
            .map(|(i, _)| i)
            .expect("n >= 2");
        let m = self.shard_map();

        let ratio = max_d as f64 / mean;
        if ratio < self.opts.placement.imbalance_threshold {
            // Balanced: shrink the map back while it stays balanced.
            if m.n_ranges() > n {
                let coldest_pair = m
                    .ranges()
                    .windows(2)
                    .filter(|w| w[0].shard == w[1].shard)
                    .min_by_key(|w| w[0].hits() + w[1].hits())
                    .map(|w| w[0].start);
                if let Some(place) = coldest_pair {
                    self.merge_at(place);
                }
            }
            return ratio;
        }

        let Some(r) = m
            .ranges()
            .iter()
            .filter(|r| r.shard == hot_shard)
            .max_by_key(|r| r.hits())
        else {
            return ratio;
        };
        if r.hits() == 0 {
            return ratio;
        }
        let place = r.hot_place();
        let (rs, re) = (
            place & !(DIR_REGION_SPAN - 1),
            place | (DIR_REGION_SPAN - 1),
        );
        if (r.start < rs || re < r.end) && m.n_ranges() < self.opts.placement.max_ranges {
            // The range spans more than the sampled hot directory region:
            // carve the region out first so the next tick acts on it alone.
            self.isolate_region(place);
            return ratio;
        }
        if cold_shard == hot_shard {
            return ratio;
        }
        if r.end - r.start >= MIN_SPLIT_SPAN && m.n_ranges() < self.opts.placement.max_ranges {
            // Halve the hot range — down to *within* a single directory —
            // and move the upper half to the coldest shard.
            let mid = r.start + (r.end - r.start) / 2 + 1;
            if self.split_range(r.start, mid) {
                let _ = self.migrate_range(mid, cold_shard);
            }
        } else {
            // Too narrow to split further: move it wholesale.
            let _ = self.migrate_range(r.start, cold_shard);
        }
        ratio
    }
}
