//! TafDB's counters: the handles behind [`crate::DbCounters`] and the
//! `tafdb_*` registry series.

use mantle_obs::{Counter, Gauge};

/// The database's only counts. [`crate::TafDb::counters`] reads the first
/// eleven handles' own cells; the rest (lock conflicts, checkpoints, engine
/// range-scan volume) are read through the registry only.
pub(crate) struct DbMetrics {
    pub(crate) txns_committed: Counter,
    pub(crate) txns_aborted: Counter,
    pub(crate) delta_appends: Counter,
    pub(crate) inplace_updates: Counter,
    pub(crate) compactions: Counter,
    pub(crate) latched_updates: Counter,
    pub(crate) lock_conflicts: Counter,
    pub(crate) shard_splits: Counter,
    pub(crate) shard_merges: Counter,
    pub(crate) range_migrations: Counter,
    pub(crate) rows_migrated: Counter,
    pub(crate) stale_routes: Counter,
    pub(crate) checkpoints: Counter,
    pub(crate) checkpoint_aborts: Counter,
    /// Rows returned by engine range scans serving `readdir`/`list`/
    /// `dirstat` (the scan volume the MVCC engine keeps off the write
    /// path).
    pub(crate) range_scan_rows: Counter,
    /// Per-shard busy-time delta over the last controller tick.
    pub(crate) shard_load: Vec<Gauge>,
}

impl DbMetrics {
    pub(crate) fn new(n_shards: usize) -> Self {
        DbMetrics {
            txns_committed: mantle_obs::counter("tafdb_txns_committed_total", &[]),
            txns_aborted: mantle_obs::counter("tafdb_txns_aborted_total", &[]),
            delta_appends: mantle_obs::counter("tafdb_delta_appends_total", &[]),
            inplace_updates: mantle_obs::counter("tafdb_inplace_updates_total", &[]),
            compactions: mantle_obs::counter("tafdb_compactions_total", &[]),
            latched_updates: mantle_obs::counter("tafdb_latched_updates_total", &[]),
            lock_conflicts: mantle_obs::counter("tafdb_lock_conflicts_total", &[]),
            shard_splits: mantle_obs::counter("tafdb_shard_splits_total", &[]),
            shard_merges: mantle_obs::counter("tafdb_shard_merges_total", &[]),
            range_migrations: mantle_obs::counter("tafdb_range_migrations_total", &[]),
            rows_migrated: mantle_obs::counter("tafdb_rows_migrated_total", &[]),
            stale_routes: mantle_obs::counter("tafdb_stale_routes_total", &[]),
            checkpoints: mantle_obs::counter("tafdb_checkpoints_total", &[]),
            checkpoint_aborts: mantle_obs::counter("tafdb_checkpoint_aborts_total", &[]),
            range_scan_rows: mantle_obs::counter("engine_range_scan_rows_total", &[]),
            shard_load: (0..n_shards)
                .map(|i| mantle_obs::gauge("tafdb_shard_load", &[("shard", &i.to_string())]))
                .collect(),
        }
    }
}
