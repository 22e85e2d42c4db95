//! Counts the layers keep, read through their public accessors before and
//! after a workload's measured passes.

use mantle::core::pathcache::PathCacheStats;
use mantle::tafdb::DbCounters;

use crate::world::World;

/// Every raw count the per-layer metrics are ratios of.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Client RPCs that entered an `index*` / a `tafdb*` node.
    pub index_rpcs: u64,
    pub tafdb_rpcs: u64,
    /// Modeled busy time of each IndexNode replica, and which of them led
    /// when the counters were read.
    pub index_busy: Vec<u64>,
    pub index_leader: Option<usize>,
    pub raft_appends: u64,
    pub raft_wal_fsyncs: u64,
    pub topdir_hits: u64,
    pub topdir_misses: u64,
    pub follower_reads: u64,
    pub resolves: u64,
    pub path_cache: PathCacheStats,
    pub db: DbCounters,
    /// Every write-ahead log in the process (TafDB shards and Raft logs).
    pub wal_fsyncs: u64,
    pub wal_appends: u64,
    pub engine_lock_wait_nanos: u64,
    pub engine_lock_waits: u64,
}

fn node_is(labels: &[(String, String)], prefix: &str) -> bool {
    labels
        .iter()
        .any(|(k, v)| k == "node" && v.starts_with(prefix))
}

impl Counters {
    pub fn read(world: &World) -> Counters {
        let cluster = &world.cluster;
        let registry = mantle::obs::snapshot();
        let rpcs_into = |prefix: &str| -> u64 {
            registry
                .counters
                .iter()
                .filter(|c| c.name == "simnode_rpcs_total" && node_is(&c.labels, prefix))
                .map(|c| c.value)
                .sum()
        };
        let replicas = cluster.index().group().replicas();
        Counters {
            index_rpcs: rpcs_into("index"),
            tafdb_rpcs: rpcs_into("tafdb"),
            index_busy: replicas
                .iter()
                .map(|r| r.node().snapshot().busy_nanos)
                .collect(),
            index_leader: replicas.iter().position(|r| r.is_leader()),
            raft_appends: registry.counter_total("raft_appends_total"),
            raft_wal_fsyncs: replicas.iter().map(|r| r.wal_fsyncs()).sum(),
            topdir_hits: registry.counter_total("index_cache_hits_total"),
            topdir_misses: registry.counter_total("index_cache_misses_total"),
            follower_reads: registry.counter_total("index_follower_reads_total"),
            resolves: registry.histogram_count("index_resolve_levels"),
            path_cache: cluster.path_cache_stats(),
            db: cluster.db().counters(),
            wal_fsyncs: registry.counter_total("wal_fsyncs_total"),
            wal_appends: registry.counter_total("wal_appends_total"),
            engine_lock_wait_nanos: cluster.db().engine_lock_wait_nanos(),
            engine_lock_waits: cluster.db().engine_lock_waits(),
        }
    }
}

/// `a / b`, and 0 when nothing was counted.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The per-layer metrics that are counter deltas over the measured passes
/// of `ops` ops lasting `secs` seconds: `(name, unit, value)`.
pub fn layer_metrics(
    before: &Counters,
    after: &Counters,
    ops: u64,
    secs: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let d = |f: fn(&Counters) -> u64| f(after).saturating_sub(f(before));
    let per_op = |n: u64| ratio(n, ops);
    let per_kop = |n: u64| 1e3 * ratio(n, ops);
    // The share of the replica that leads at the end. Read per replica,
    // so an election between the two readings moves the number to the
    // new leader's share and does not zero it.
    let busy = |replica: usize| after.index_busy[replica] - before.index_busy[replica];
    let leader_busy = after.index_leader.map_or(0, busy);
    let all_busy: u64 = (0..after.index_busy.len()).map(busy).sum();
    let hits = d(|c| c.topdir_hits);
    let lease_hits = d(|c| c.path_cache.hits);
    vec![
        (
            "rpc.index_rpcs_per_op",
            "count",
            per_op(d(|c| c.index_rpcs)),
        ),
        (
            "rpc.tafdb_rpcs_per_op",
            "count",
            per_op(d(|c| c.tafdb_rpcs)),
        ),
        (
            "rpc.index_leader_busy_frac",
            "fraction",
            ratio(leader_busy, all_busy),
        ),
        (
            "raft.appends_per_op",
            "count",
            per_op(d(|c| c.raft_appends)),
        ),
        (
            "raft.wal_fsyncs_per_op",
            "count",
            per_op(d(|c| c.raft_wal_fsyncs)),
        ),
        (
            "index.topdir_hit_rate",
            "fraction",
            ratio(hits, hits + d(|c| c.topdir_misses)),
        ),
        (
            "index.follower_read_frac",
            "fraction",
            ratio(d(|c| c.follower_reads), d(|c| c.resolves)),
        ),
        (
            "core.pathcache_hit_rate",
            "fraction",
            ratio(lease_hits, lease_hits + d(|c| c.path_cache.misses)),
        ),
        (
            "core.pathcache_evictions_per_kop",
            "count",
            per_kop(d(|c| c.path_cache.evictions)),
        ),
        (
            "core.pathcache_revalidations_per_kop",
            "count",
            per_kop(d(|c| c.path_cache.revalidations)),
        ),
        (
            "tafdb.txn_aborts_per_kop",
            "count",
            per_kop(d(|c| c.db.txns_aborted)),
        ),
        (
            "tafdb.delta_appends_per_op",
            "count",
            per_op(d(|c| c.db.delta_appends)),
        ),
        (
            "tafdb.compactions_per_s",
            "1/s",
            d(|c| c.db.compactions) as f64 / secs,
        ),
        (
            "store.wal_fsyncs_per_op",
            "count",
            per_op(d(|c| c.wal_fsyncs)),
        ),
        (
            "store.wal_appends_per_fsync",
            "count",
            ratio(d(|c| c.wal_appends), d(|c| c.wal_fsyncs)),
        ),
        (
            "engine.lock_wait_ns_per_op",
            "ns",
            per_op(d(|c| c.engine_lock_wait_nanos)),
        ),
        (
            "engine.lock_waits_per_kop",
            "count",
            per_kop(d(|c| c.engine_lock_waits)),
        ),
    ]
}
