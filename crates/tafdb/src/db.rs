//! The database core: options, counters, shard construction, and direct
//! (population/test) access. TafDB is layered (DESIGN.md §4.12):
//!
//! - `crate::shard` — the per-shard runtime: a pluggable
//!   [`mantle_engine::StorageEngine`] plus row locks, latches, the
//!   group-commit WAL, checkpoint/restore, and contention tracking;
//! - `crate::router` — epoch-versioned [`ShardMap`] routing, the
//!   `StaleRoute` bounce, and every read path;
//! - `crate::exec` — transaction grouping, the single-shard fast path,
//!   and two-phase commit;
//! - `crate::migrate` — the placement plane: splits, merges, online
//!   range migration over checkpoint images, and the rebalancing tick.

use std::collections::HashMap;
use std::ops::{Bound, ControlFlow};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use mantle_engine::EngineKind;
use mantle_rpc::faults::{FaultPlan, FaultSlot};
use mantle_rpc::SimNode;
use mantle_store::{GroupCommitWal, KeyParts, LockManager};
use mantle_sync::LatchTable;
use mantle_types::{
    EnvConfig,
    InodeId,
    PlacementConfig,
    SimConfig,
    TxnId,
    ROOT_ID,
    SCALED_DB_SHARDS, //
};

use crate::metrics::DbMetrics;
use crate::schema::{attr_view, Row, StoredRow};
use crate::shard::Shard;
use crate::shardmap::{place_of, ShardMap};

/// TafDB tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct TafDbOptions {
    /// Number of shards (one per simulated DB server). The paper deploys 18
    /// TafDB servers; the scaled default is [`SCALED_DB_SHARDS`].
    pub n_shards: usize,
    /// The storage engine backing every shard (DESIGN.md §4.12). The
    /// default honours the `MANTLE_ENGINE` environment knob ("btree",
    /// "mvcc"); set explicitly to pin an engine regardless of environment.
    pub engine: EngineKind,
    /// Master switch for delta records (§5.2.1); off reproduces the
    /// pre-`+delta record` ablation baseline of Figure 16.
    pub delta_records: bool,
    /// Aborts within [`Self::hot_window`] that flip a directory into delta
    /// mode ("activated only under sustained contention").
    pub delta_abort_threshold: u32,
    /// Window over which aborts are counted.
    pub hot_window: Duration,
    /// How long a directory stays in delta mode after its last use.
    pub hot_ttl: Duration,
    /// Share WAL fsyncs across concurrent commits.
    pub group_commit: bool,
    /// Transparent retries for retryable (conflict) errors.
    pub max_txn_retries: u32,
    /// Thresholds of [`TafDb::rebalance_once`], the placement tick a caller
    /// drives: until one runs, routing stays equivalent to the fixed hash.
    pub placement: PlacementConfig,
}

impl Default for TafDbOptions {
    fn default() -> Self {
        TafDbOptions {
            n_shards: SCALED_DB_SHARDS,
            engine: EnvConfig::get().engine.into(),
            delta_records: true,
            delta_abort_threshold: 3,
            hot_window: Duration::from_millis(100),
            hot_ttl: Duration::from_secs(2),
            group_commit: true,
            max_txn_retries: 10_000,
            placement: PlacementConfig::default(),
        }
    }
}

/// Snapshot of TafDB's internal counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DbCounters {
    /// Committed transactions.
    pub txns_committed: u64,
    /// Aborted prepare attempts (lock conflicts, validation failures).
    pub txns_aborted: u64,
    /// Delta records appended.
    pub delta_appends: u64,
    /// In-place attribute merges.
    pub inplace_updates: u64,
    /// Compactor folds (directories compacted).
    pub compactions: u64,
    /// Blocking latched attribute updates (baseline path).
    pub latched_updates: u64,
    /// Shard-map range splits (including hot-region isolation cuts).
    pub shard_splits: u64,
    /// Shard-map range merges.
    pub shard_merges: u64,
    /// Completed range migrations.
    pub range_migrations: u64,
    /// Rows copied by completed migrations.
    pub rows_migrated: u64,
    /// Operations rejected with a stale shard-map epoch and retried.
    pub stale_routes: u64,
}

/// The sharded metadata database.
pub struct TafDb {
    pub(crate) shards: Vec<Shard>,
    pub(crate) map: RwLock<Arc<ShardMap>>,
    /// Serializes every shard-map mutation (split/merge/migrate), each
    /// holding it exclusively; a delta fold runs under a shared hold or not
    /// at all, so it never meets a migration's uncommitted copies.
    pub(crate) migration_lock: RwLock<()>,
    /// Previous rebalancing tick's cumulative per-shard busy nanos.
    pub(crate) last_busy: Mutex<Vec<u64>>,
    oracle: AtomicU64,
    /// Bumped (`Release`) by every committed write, relaxed write and shard
    /// restore, after or before the write; read (`Acquire`) by a bulk
    /// loader to tell whether rows it remembers may have changed.
    pub(crate) live_writes: AtomicU64,
    pub(crate) config: SimConfig,
    pub(crate) opts: TafDbOptions,
    pub(crate) metrics: DbMetrics,
    pub(crate) faults: FaultSlot,
}

impl TafDb {
    /// Builds a database with `opts.n_shards` shards (each backed by a
    /// fresh `opts.engine` storage engine) and bootstraps the namespace
    /// root's attribute row. The database runs no thread of its own: a
    /// directory's delta records fold on the append that brings their count
    /// on a shard to a fixed bound, and the shard map moves only when a
    /// caller ticks [`TafDb::rebalance_once`].
    pub fn new(config: SimConfig, opts: TafDbOptions) -> Arc<Self> {
        assert!(opts.n_shards >= 1);
        let shards = (0..opts.n_shards)
            .map(|i| Shard {
                engine: opts.engine.build::<StoredRow>(),
                locks: LockManager::new(1024),
                latches: LatchTable::new(1024),
                wal: GroupCommitWal::new_scoped(config, opts.group_commit, "tafdb"),
                node: Arc::new(SimNode::new(
                    format!("tafdb{i}"),
                    config.db_node_permits,
                    config,
                )),
                delta_dirs: Mutex::new(HashMap::new()),
                hot: Mutex::new(HashMap::new()),
                in_flight: AtomicU64::new(0),
                mig_active: AtomicBool::new(false),
                snap: Mutex::new(None),
            })
            .collect();
        let db = Arc::new(TafDb {
            shards,
            map: RwLock::new(Arc::new(ShardMap::uniform(opts.n_shards))),
            migration_lock: RwLock::new(()),
            last_busy: Mutex::new(vec![0; opts.n_shards]),
            oracle: AtomicU64::new(1),
            live_writes: AtomicU64::new(0),
            config,
            opts,
            metrics: DbMetrics::new(opts.n_shards),
            faults: FaultSlot::new(),
        });
        db.bulk_apply(crate::recipe::root(ROOT_ID));
        db
    }

    // --- accessors ----------------------------------------------------------

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The simulated server of shard `i` (for load inspection).
    pub fn shard_node(&self, i: usize) -> &Arc<SimNode> {
        &self.shards[i].node
    }

    /// The database's timing configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Name of the storage engine backing the shards ("btree", "mvcc").
    pub fn engine_name(&self) -> &'static str {
        self.opts.engine.name()
    }

    /// Live rows on shard `i`.
    pub fn shard_rows(&self, i: usize) -> usize {
        self.shards[i].engine.len()
    }

    /// Versions retained by shard `i`'s engine (equals [`Self::shard_rows`]
    /// on the btree engine; on MVCC the excess is reclaimable garbage).
    pub fn shard_versions(&self, i: usize) -> usize {
        self.shards[i].engine.version_count()
    }

    /// Real nanoseconds writers and scans spent blocked on engine-internal
    /// latches, summed over shards. Deliberately *outside* the virtual
    /// clock: it measures actual cross-thread contention, is zero in
    /// single-threaded runs, and never perturbs deterministic latency pins.
    pub fn engine_lock_wait_nanos(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.lock_wait_nanos()).sum()
    }

    /// Number of contended engine-latch acquisitions, summed over shards.
    pub fn engine_lock_waits(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.lock_waits()).sum()
    }

    /// Installs (or, with `None`, clears) a fault plan on the database:
    /// every shard node (transport faults), every shard WAL (fsync faults)
    /// and the 2PC coordinator (prepare/commit faults) consult it, as does
    /// the migration path (`split_prepare`/`split_commit`).
    pub fn install_faults(&self, plan: Option<Arc<FaultPlan>>) {
        for shard in &self.shards {
            shard.node.set_faults(plan.clone());
            shard.wal.set_faults(plan.clone());
        }
        self.faults.install(plan);
    }

    /// What *this* database counted (the `tafdb_*_total` registry series
    /// sum over every database in the process).
    pub fn counters(&self) -> DbCounters {
        let m = &self.metrics;
        DbCounters {
            txns_committed: m.txns_committed.get(),
            txns_aborted: m.txns_aborted.get(),
            delta_appends: m.delta_appends.get(),
            inplace_updates: m.inplace_updates.get(),
            compactions: m.compactions.get(),
            latched_updates: m.latched_updates.get(),
            shard_splits: m.shard_splits.get(),
            shard_merges: m.shard_merges.get(),
            range_migrations: m.range_migrations.get(),
            rows_migrated: m.rows_migrated.get(),
            stale_routes: m.stale_routes.get(),
        }
    }

    /// Allocates a transaction timestamp.
    pub fn begin(&self) -> TxnId {
        TxnId(self.oracle.fetch_add(1, Ordering::Relaxed))
    }

    // --- direct (population / test) access --------------------------------

    /// Reads a row directly (tests, diagnostics, and a bulk loader's
    /// does-this-directory-exist probe).
    pub fn raw_get(&self, key: &dyn KeyParts) -> Option<Row> {
        self.shards[self.owner_of(key)]
            .engine
            .get(key)
            .map(|s| s.row(key.view().pid))
    }

    /// Total rows across shards.
    pub fn total_rows(&self) -> usize {
        self.shards.iter().map(|s| s.engine.len()).sum()
    }

    /// Forces `dir` into delta mode as if the abort-rate heuristic had
    /// fired. Test hook: under the virtual clock injected fsyncs are
    /// instant, so the lock-hold windows that make real conflicts (and
    /// thus heuristic activation) accumulate do not exist. The state lands
    /// on the current base-attribute owner; callers racing migrations
    /// should re-force periodically.
    pub fn force_hot(&self, dir: InodeId) {
        let shard = &self.shards[self.owner_of(&attr_view(dir))];
        let mut hot = shard.hot.lock();
        let state = hot.entry(dir).or_default();
        state.hot_until = Some(Instant::now() + self.opts.hot_ttl);
    }

    /// Number of outstanding delta records for `dir`, summed over every
    /// shard (split regions spread them).
    pub fn pending_deltas(&self, dir: InodeId) -> usize {
        self.shards.iter().map(|shard| shard.deltas(dir)).sum()
    }

    /// Live rows on shard `i` whose placement key falls in
    /// `start..=end` (chaos-test visibility into staged migration state).
    pub fn shard_rows_in_place_range(&self, i: usize, start: u64, end: u64) -> usize {
        let mut n = 0;
        let all = Bound::Unbounded;
        self.shards[i].engine.scan(all, all, &mut |k, _| {
            n += usize::from((start..=end).contains(&place_of(k)));
            ControlFlow::Continue(())
        });
        n
    }
}
