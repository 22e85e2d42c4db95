//! Client-side path-lease cache (DESIGN.md §4.13).
//!
//! A bounded LRU of `path → (pid, permission, version)` consulted by the
//! proxy *before* any IndexNode/TafDB resolution, so warm lookups cost zero
//! round trips. Coherence is layered:
//!
//! * **Synchronous invalidation** — every mutation through the same proxy
//!   drops the affected subtree right after its commit, mirroring the
//!   AM-Cache sites. A client never observes its own rename stale.
//! * **Versioned leases** — every entry carries the leaf's namespace
//!   version (`IndexEntry::version`, bumped when the IndexNode applies a
//!   rename commit or a chmod) and an
//!   expiry stamped on the simulated clock. An expired entry is not
//!   dropped: it is *revalidated* with a single version-check RPC that
//!   re-resolves the full path server-side. A matching `(pid, version)`
//!   renews the lease; a mismatch invalidates the whole cached subtree
//!   (renames move subtrees, §5.2) before the fresh result is re-inserted.
//! * **Negative entries** — `NotFound` resolutions are cached under a
//!   shorter TTL so repeated misses also skip the network; creations
//!   scrub the exact path so a new directory is visible immediately.
//!
//! The cache is inert unless `MANTLE_PATH_CACHE` opts in: default-off keeps
//! every cache-off latency pin byte-identical (zero extra RPCs, zero clock
//! charges, zero fault-roll consumption).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use mantle_rpc::{FaultKind, FaultPlan, FaultSlot};
use mantle_sync::PrefixTree;
use mantle_types::{
    clock::{self, SimInstant},
    InodeId,
    LeasedPath,
    MetaError,
    MetaPath,
    OpStats,
    Permission,
    RequestCtx,
    ResolvedPath,
    Result,
    RetryClass, //
};

/// Path-lease cache configuration.
#[derive(Clone, Copy, Debug)]
pub struct PathLeaseConfig {
    /// Master switch; `false` makes every probe return
    /// [`LeaseProbe::Disabled`] without touching any state.
    pub enabled: bool,
    /// Maximum resident entries (positive + negative) before LRU eviction.
    pub capacity: usize,
    /// Positive-entry lease duration on the simulated clock.
    pub lease_ttl: Duration,
    /// Negative-entry lease duration (shorter: absence is cheap to refetch
    /// and staleness in the creation direction is the annoying kind).
    pub negative_ttl: Duration,
}

impl Default for PathLeaseConfig {
    fn default() -> Self {
        PathLeaseConfig {
            enabled: false,
            capacity: 16_384,
            lease_ttl: Duration::from_millis(500),
            negative_ttl: Duration::from_millis(50),
        }
    }
}

impl PathLeaseConfig {
    /// An enabled configuration with the default bounds (tests).
    pub fn enabled() -> Self {
        PathLeaseConfig {
            enabled: true,
            ..PathLeaseConfig::default()
        }
    }
}

/// One cached positive resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CachedLease {
    /// The directory's id.
    pub pid: InodeId,
    /// Aggregated permission along the path.
    pub permission: Permission,
    /// Leaf namespace version the lease was granted against.
    pub version: u64,
}

#[derive(Clone, Copy, Debug)]
enum LeaseValue {
    Positive(CachedLease),
    Negative,
}

/// The entry a granted lease is cached as.
fn positive(lease: &LeasedPath) -> LeaseValue {
    LeaseValue::Positive(CachedLease {
        pid: lease.resolved.id,
        permission: lease.resolved.permission,
        version: lease.version,
    })
}

struct LeaseEntry {
    value: LeaseValue,
    /// Expiry on the simulated clock of the *stamping* thread. Timelines
    /// are per-thread under the virtual clock, so expiry is a heuristic
    /// refresh trigger — correctness never rests on it (synchronous
    /// invalidation + revalidation do).
    expires: SimInstant,
    /// LRU sequence; key into `order`.
    seq: u64,
}

/// The outcome of one cache probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaseProbe {
    /// The cache is disabled; resolve as if it did not exist.
    Disabled,
    /// No entry; resolve fully and [`PathLeaseCache::fill`] the result.
    Miss,
    /// A live positive entry: resolution complete, zero RPCs.
    Hit(CachedLease),
    /// A live negative entry: `NotFound`, zero RPCs.
    NegativeHit,
    /// An expired (or fault-expired) positive entry:
    /// [`PathLeaseCache::resolve`] revalidates it with a single
    /// version-check RPC and renews or replaces it by the verdict.
    Expired(CachedLease),
}

/// Point-in-time cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathCacheStats {
    /// Resident entries (positive + negative).
    pub entries: usize,
    /// Probe hits (positive + negative).
    pub hits: u64,
    /// Probe misses.
    pub misses: u64,
    /// Leases renewed by a matching version check.
    pub revalidations: u64,
    /// Entries dropped by subtree/exact invalidation.
    pub invalidations: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Fills rejected because an invalidation raced the resolution.
    pub rejected_fills: u64,
}

struct Inner {
    map: HashMap<MetaPath, LeaseEntry>,
    /// LRU order: seq → path. `BTreeMap` keeps eviction O(log n).
    order: BTreeMap<u64, MetaPath>,
    /// Mirror of every cached path for subtree invalidation.
    tree: PrefixTree,
    next_seq: u64,
    /// Invalidation epoch: bumped on every subtree/exact invalidation. A
    /// fill carries the epoch snapshotted *before* its resolution RPC and
    /// is dropped when the epoch moved — the resolved value may predate a
    /// mutation that already ran its synchronous invalidation (the same
    /// race the server-side cache closes with its RemovalList timestamp).
    epoch: u64,
    evictions: u64,
    rejected_fills: u64,
}

impl Inner {
    /// Books a rejected fill: the cache-wide counter plus the op's own
    /// [`RetryClass::RejectedFill`] stat, so per-op aggregates can tell
    /// which requests raced an invalidation.
    fn reject_fill(&mut self, stats: &mut OpStats) {
        self.rejected_fills += 1;
        stats.note_retry(RetryClass::RejectedFill);
    }

    fn touch(&mut self, path: &MetaPath) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(e) = self.map.get_mut(path) {
            self.order.remove(&e.seq);
            e.seq = seq;
            self.order.insert(seq, path.clone());
        }
    }

    fn remove(&mut self, path: &MetaPath) -> bool {
        match self.map.remove(path) {
            Some(e) => {
                self.order.remove(&e.seq);
                self.tree.remove(path);
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, path: MetaPath, value: LeaseValue, expires: SimInstant) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(prev) = self.map.insert(
            path.clone(),
            LeaseEntry {
                value,
                expires,
                seq,
            },
        ) {
            self.order.remove(&prev.seq);
        } else {
            self.tree.insert(&path);
        }
        self.order.insert(seq, path);
    }

    fn invalidate_subtree_locked(&mut self, path: &MetaPath, metrics: &PathCacheMetrics) -> usize {
        self.epoch += 1;
        let stale = self.tree.remove_subtree(path);
        for p in &stale {
            if let Some(e) = self.map.remove(p) {
                self.order.remove(&e.seq);
            }
        }
        let n = stale.len();
        if n > 0 {
            metrics.invalidations.add(n as u64);
        }
        n
    }

    fn evict_to_capacity(&mut self, capacity: usize) {
        while self.map.len() > capacity {
            let Some((&seq, _)) = self.order.iter().next() else {
                return;
            };
            let path = self.order.remove(&seq).expect("seq present");
            self.map.remove(&path);
            self.tree.remove(&path);
            self.evictions += 1;
        }
    }
}

/// The per-client path-lease cache. One instance per proxy; shared by every
/// client thread driving that proxy (single short mutex on the probe path).
pub struct PathLeaseCache {
    config: PathLeaseConfig,
    inner: Mutex<Inner>,
    metrics: PathCacheMetrics,
    /// Fault plan driving the `LeaseExpire`/`StaleRead` probe faults (a
    /// proxy has no `SimNode` of its own to carry one).
    faults: FaultSlot,
}

/// The `path_cache_*_total{system}` handles, created once so the probe hot
/// path stays cheap; their own cells are what [`PathLeaseCache::stats`]
/// reports for this cache.
struct PathCacheMetrics {
    hits: mantle_obs::Counter,
    misses: mantle_obs::Counter,
    revalidations: mantle_obs::Counter,
    invalidations: mantle_obs::Counter,
}

impl PathCacheMetrics {
    fn new(system: &str) -> Self {
        let c = |name: &'static str| mantle_obs::counter(name, &[("system", system)]);
        PathCacheMetrics {
            hits: c("path_cache_hits_total"),
            misses: c("path_cache_misses_total"),
            revalidations: c("path_cache_revalidations_total"),
            invalidations: c("path_cache_invalidations_total"),
        }
    }
}

impl PathLeaseCache {
    /// Creates a cache for the proxy of `system` (the metric label).
    pub fn new(config: PathLeaseConfig, system: &str) -> Self {
        PathLeaseCache {
            config,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                tree: PrefixTree::new(),
                next_seq: 0,
                epoch: 0,
                evictions: 0,
                rejected_fills: 0,
            }),
            metrics: PathCacheMetrics::new(system),
            faults: FaultSlot::new(),
        }
    }

    /// Installs (or, with `None`, clears) the plan behind the probe faults
    /// of [`PathLeaseCache::resolve`].
    pub fn install_faults(&self, plan: Option<Arc<FaultPlan>>) {
        self.faults.install(plan);
    }

    /// The active configuration.
    pub fn config(&self) -> &PathLeaseConfig {
        &self.config
    }

    /// Whether the cache participates in resolution at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// One resolution of `path` through the cache: a live entry answers
    /// with zero RPCs; an expired one is checked with `revalidate` (one
    /// version-check round for Mantle, a full re-resolve for InfiniFS) and
    /// renewed when `(pid, version)` still match; a miss runs `resolve`
    /// and installs a lease. `NotFound` verdicts are cached negatively.
    /// Both closures run under a [`PathLeaseCache::begin`] token, so a
    /// result that raced an invalidation is returned but not cached.
    ///
    /// `fault_site` names this proxy to the installed fault plan: the
    /// `LeaseExpire` fault demotes live hits and `StaleRead` vetoes
    /// matching revalidations — both only *add* coherence work, never skip
    /// it.
    pub fn resolve(
        &self,
        path: &MetaPath,
        fault_site: &str,
        ctx: &mut RequestCtx,
        resolve: impl FnOnce(&mut RequestCtx) -> Result<LeasedPath>,
        revalidate: impl FnOnce(&mut RequestCtx) -> Result<LeasedPath>,
    ) -> Result<ResolvedPath> {
        let force_expire = self
            .faults
            .get()
            .is_some_and(|plan| plan.fires(FaultKind::LeaseExpire, fault_site));
        match self.probe(path, force_expire) {
            LeaseProbe::Hit(lease) => Ok(ResolvedPath {
                id: lease.pid,
                permission: lease.permission,
            }),
            LeaseProbe::NegativeHit => Err(MetaError::NotFound(path.to_string())),
            LeaseProbe::Expired(old) => {
                let token = self.begin();
                match revalidate(ctx) {
                    Ok(fresh) => {
                        let stale_read = self
                            .faults
                            .get()
                            .is_some_and(|plan| plan.fires(FaultKind::StaleRead, fault_site));
                        let matched = fresh.resolved.id == old.pid
                            && fresh.version == old.version
                            && !stale_read;
                        self.revalidated(path, matched, &fresh, token, ctx);
                        Ok(fresh.resolved)
                    }
                    Err(e @ MetaError::NotFound(_)) => {
                        // The directory is gone: the lease (and anything
                        // cached beneath it) is dead.
                        self.revalidated_gone(path, token, ctx);
                        Err(e)
                    }
                    Err(e) => Err(e),
                }
            }
            LeaseProbe::Miss | LeaseProbe::Disabled => {
                let token = self.begin();
                match resolve(ctx) {
                    Ok(fresh) => {
                        self.fill(path, &fresh, token, ctx);
                        Ok(fresh.resolved)
                    }
                    Err(e @ MetaError::NotFound(_)) => {
                        self.fill_negative(path, token, ctx);
                        Err(e)
                    }
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// Probes the cache. `force_expire` (the `LeaseExpire` fault) demotes a
    /// live positive hit into [`LeaseProbe::Expired`], forcing the
    /// revalidation round trip without ever skipping a coherence step.
    pub fn probe(&self, path: &MetaPath, force_expire: bool) -> LeaseProbe {
        if !self.config.enabled {
            return LeaseProbe::Disabled;
        }
        let now = clock::now();
        let mut inner = self.inner.lock();
        let Some(entry) = inner.map.get(path) else {
            self.metrics.misses.inc();
            return LeaseProbe::Miss;
        };
        let expired = now > entry.expires;
        let probe = match entry.value {
            LeaseValue::Positive(lease) if !expired && !force_expire => LeaseProbe::Hit(lease),
            LeaseValue::Positive(lease) => LeaseProbe::Expired(lease),
            LeaseValue::Negative if !expired => LeaseProbe::NegativeHit,
            LeaseValue::Negative => {
                // Expired absence is not worth a revalidation RPC: drop it
                // and let the full resolve refresh the verdict.
                inner.remove(path);
                self.metrics.misses.inc();
                return LeaseProbe::Miss;
            }
        };
        match probe {
            LeaseProbe::Hit(_) | LeaseProbe::NegativeHit => {
                self.metrics.hits.inc();
                inner.touch(path);
            }
            _ => {}
        }
        probe
    }

    /// Snapshots the invalidation epoch. Call *before* issuing the
    /// resolution RPC and pass the token to the fill: a fill whose token is
    /// stale is dropped, because a mutation committed (and ran its
    /// synchronous invalidation) while the resolution was in flight.
    pub fn begin(&self) -> u64 {
        if !self.config.enabled {
            return 0;
        }
        self.inner.lock().epoch
    }

    /// The one token-guarded install. Stamps the expiry on this thread's
    /// clock; with `drop_subtree` (a revalidation that came back different)
    /// first drops everything cached under `path` — removal is always safe.
    /// `value` then goes in, evicting to capacity, only if no invalidation
    /// ran since `token` was taken other than the one just made here (which
    /// bumped the epoch by exactly one); otherwise the resolution may predate
    /// a racing mutation and the fill is booked as rejected. Returns the
    /// number of entries dropped.
    fn install(
        &self,
        path: &MetaPath,
        value: LeaseValue,
        ttl: Duration,
        token: u64,
        drop_subtree: bool,
        stats: &mut OpStats,
    ) -> usize {
        if !self.config.enabled {
            return 0;
        }
        let expires = clock::now() + ttl;
        let mut inner = self.inner.lock();
        let (mut dropped, mut unraced) = (0, token);
        if drop_subtree {
            dropped = inner.invalidate_subtree_locked(path, &self.metrics);
            unraced += 1;
        }
        if inner.epoch == unraced {
            inner.insert(path.clone(), value, expires);
            inner.evict_to_capacity(self.config.capacity);
        } else {
            inner.reject_fill(stats);
        }
        dropped
    }

    /// Caches a fresh positive resolution obtained under `token`.
    pub fn fill(&self, path: &MetaPath, lease: &LeasedPath, token: u64, stats: &mut OpStats) {
        self.install(path, positive(lease), lease.lease_ttl, token, false, stats);
    }

    /// Caches a fresh `NotFound` verdict (obtained under `token`) with the
    /// negative TTL.
    fn fill_negative(&self, path: &MetaPath, token: u64, stats: &mut OpStats) {
        let ttl = self.config.negative_ttl;
        self.install(path, LeaseValue::Negative, ttl, token, false, stats);
    }

    /// Applies a revalidation verdict obtained under `token`: `matched`
    /// renews the lease in place (skipped under a stale token — the verdict
    /// may predate a racing mutation); a mismatch drops the whole cached
    /// subtree (renames move subtrees) and installs the fresh result.
    /// Returns the number of entries invalidated.
    fn revalidated(
        &self,
        path: &MetaPath,
        matched: bool,
        fresh: &LeasedPath,
        token: u64,
        stats: &mut OpStats,
    ) -> usize {
        if !matched {
            let n = self.install(path, positive(fresh), fresh.lease_ttl, token, true, stats);
            mantle_obs::flight::annotate_with(|| {
                format!("pathcache:revalidate_mismatch path={path} dropped={n}")
            });
            return n;
        }
        let expires = clock::now() + fresh.lease_ttl;
        let mut inner = self.inner.lock();
        if inner.epoch != token {
            inner.reject_fill(stats);
            return 0;
        }
        self.metrics.revalidations.inc();
        if let Some(e) = inner.map.get_mut(path) {
            e.value = positive(fresh);
            e.expires = expires;
        }
        inner.touch(path);
        0
    }

    /// Handles a revalidation (obtained under `token`) that came back
    /// `NotFound`: the directory is gone, so the subtree drops and a
    /// negative verdict takes its place.
    fn revalidated_gone(&self, path: &MetaPath, token: u64, stats: &mut OpStats) {
        let ttl = self.config.negative_ttl;
        self.install(path, LeaseValue::Negative, ttl, token, true, stats);
    }

    /// Drops every cached entry under `path` (inclusive); returns how many
    /// were removed. Always advances the epoch, so in-flight resolutions
    /// that may predate the mutation cannot install their result.
    pub fn invalidate_subtree(&self, path: &MetaPath) -> usize {
        if !self.config.enabled {
            return 0;
        }
        self.inner
            .lock()
            .invalidate_subtree_locked(path, &self.metrics)
    }

    /// Drops the exact entry for `path` (creation scrubbing a stale
    /// negative verdict); returns whether one existed. Always advances the
    /// epoch.
    pub fn invalidate_exact(&self, path: &MetaPath) -> bool {
        if !self.config.enabled {
            return false;
        }
        let mut inner = self.inner.lock();
        inner.epoch += 1;
        let removed = inner.remove(path);
        if removed {
            self.metrics.invalidations.inc();
        }
        removed
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> PathCacheStats {
        let inner = self.inner.lock();
        PathCacheStats {
            entries: inner.map.len(),
            hits: self.metrics.hits.get(),
            misses: self.metrics.misses.get(),
            revalidations: self.metrics.revalidations.get(),
            invalidations: self.metrics.invalidations.get(),
            evictions: inner.evictions,
            rejected_fills: inner.rejected_fills,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_types::ResolvedPath;

    fn p(s: &str) -> MetaPath {
        MetaPath::parse(s).unwrap()
    }

    fn lease(id: u64, version: u64, ttl_ms: u64) -> LeasedPath {
        LeasedPath {
            resolved: ResolvedPath {
                id: InodeId(id),
                permission: Permission::ALL,
            },
            version,
            lease_ttl: Duration::from_millis(ttl_ms),
        }
    }

    fn cache(capacity: usize) -> PathLeaseCache {
        PathLeaseCache::new(
            PathLeaseConfig {
                capacity,
                ..PathLeaseConfig::enabled()
            },
            "test",
        )
    }

    #[test]
    fn disabled_cache_is_inert() {
        let c = PathLeaseCache::new(PathLeaseConfig::default(), "test");
        assert_eq!(c.probe(&p("/a"), false), LeaseProbe::Disabled);
        c.fill(&p("/a"), &lease(1, 1, 1000), c.begin(), &mut OpStats::new());
        assert_eq!(c.probe(&p("/a"), false), LeaseProbe::Disabled);
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn fill_then_hit() {
        let c = cache(8);
        assert_eq!(c.probe(&p("/a/b"), false), LeaseProbe::Miss);
        c.fill(
            &p("/a/b"),
            &lease(7, 3, 1_000),
            c.begin(),
            &mut OpStats::new(),
        );
        match c.probe(&p("/a/b"), false) {
            LeaseProbe::Hit(l) => {
                assert_eq!(l.pid, InodeId(7));
                assert_eq!(l.version, 3);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn expiry_demotes_to_revalidation() {
        let c = cache(8);
        c.fill(&p("/a"), &lease(7, 1, 1), c.begin(), &mut OpStats::new());
        clock::sleep(Duration::from_millis(5));
        assert!(matches!(c.probe(&p("/a"), false), LeaseProbe::Expired(_)));
        // A matching revalidation renews the lease in place.
        assert_eq!(
            c.revalidated(
                &p("/a"),
                true,
                &lease(7, 1, 1_000),
                c.begin(),
                &mut OpStats::new()
            ),
            0
        );
        assert!(matches!(c.probe(&p("/a"), false), LeaseProbe::Hit(_)));
        assert_eq!(c.stats().revalidations, 1);
    }

    #[test]
    fn force_expire_fault_demotes_live_entry() {
        let c = cache(8);
        c.fill(
            &p("/a"),
            &lease(7, 1, 60_000),
            c.begin(),
            &mut OpStats::new(),
        );
        assert!(matches!(c.probe(&p("/a"), true), LeaseProbe::Expired(_)));
    }

    #[test]
    fn mismatch_invalidates_subtree_and_reinserts() {
        let c = cache(8);
        c.fill(&p("/a"), &lease(1, 1, 1), c.begin(), &mut OpStats::new());
        c.fill(
            &p("/a/b"),
            &lease(2, 1, 60_000),
            c.begin(),
            &mut OpStats::new(),
        );
        c.fill(
            &p("/a/b/c"),
            &lease(3, 1, 60_000),
            c.begin(),
            &mut OpStats::new(),
        );
        c.fill(
            &p("/x"),
            &lease(9, 1, 60_000),
            c.begin(),
            &mut OpStats::new(),
        );
        clock::sleep(Duration::from_millis(5));
        // /a was renamed elsewhere: version check mismatches, the whole
        // subtree drops, the fresh mapping is re-cached.
        let dropped = c.revalidated(
            &p("/a"),
            false,
            &lease(11, 2, 60_000),
            c.begin(),
            &mut OpStats::new(),
        );
        assert_eq!(dropped, 3);
        assert!(matches!(c.probe(&p("/a/b"), false), LeaseProbe::Miss));
        assert!(matches!(c.probe(&p("/x"), false), LeaseProbe::Hit(_)));
        match c.probe(&p("/a"), false) {
            LeaseProbe::Hit(l) => assert_eq!((l.pid, l.version), (InodeId(11), 2)),
            other => panic!("expected fresh hit, got {other:?}"),
        }
        assert_eq!(c.stats().invalidations, 3);
    }

    #[test]
    fn negative_entries_serve_not_found_then_expire() {
        let c = PathLeaseCache::new(
            PathLeaseConfig {
                negative_ttl: Duration::from_millis(2),
                ..PathLeaseConfig::enabled()
            },
            "test",
        );
        c.fill_negative(&p("/ghost"), c.begin(), &mut OpStats::new());
        assert_eq!(c.probe(&p("/ghost"), false), LeaseProbe::NegativeHit);
        clock::sleep(Duration::from_millis(5));
        // Expired absence is a plain miss, not a revalidation.
        assert_eq!(c.probe(&p("/ghost"), false), LeaseProbe::Miss);
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn creation_scrubs_negative_entry() {
        let c = cache(8);
        c.fill_negative(&p("/new"), c.begin(), &mut OpStats::new());
        assert!(c.invalidate_exact(&p("/new")));
        assert_eq!(c.probe(&p("/new"), false), LeaseProbe::Miss);
    }

    #[test]
    fn lru_evicts_oldest() {
        let c = cache(3);
        for i in 0..3 {
            c.fill(
                &p(&format!("/d{i}")),
                &lease(i, 1, 60_000),
                c.begin(),
                &mut OpStats::new(),
            );
        }
        // Touch /d0 so /d1 is the LRU victim.
        assert!(matches!(c.probe(&p("/d0"), false), LeaseProbe::Hit(_)));
        c.fill(
            &p("/d3"),
            &lease(3, 1, 60_000),
            c.begin(),
            &mut OpStats::new(),
        );
        assert_eq!(c.stats().entries, 3);
        assert!(matches!(c.probe(&p("/d1"), false), LeaseProbe::Miss));
        assert!(matches!(c.probe(&p("/d0"), false), LeaseProbe::Hit(_)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn stats_balance_across_churn() {
        let c = cache(64);
        for i in 0..10 {
            c.fill(
                &p(&format!("/a/d{i}")),
                &lease(i, 1, 60_000),
                c.begin(),
                &mut OpStats::new(),
            );
        }
        assert_eq!(c.invalidate_subtree(&p("/a")), 10);
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().invalidations, 10);
        assert_eq!(c.invalidate_subtree(&p("/a")), 0);
    }

    #[test]
    fn racing_invalidation_rejects_stale_fill() {
        let c = cache(8);
        // A resolution starts (token snapshot), then a rename invalidates
        // the subtree before the result comes back: the fill must be
        // dropped, else the cache would serve the pre-rename pid forever.
        let token = c.begin();
        c.invalidate_subtree(&p("/a"));
        c.fill(&p("/a/b"), &lease(7, 1, 60_000), token, &mut OpStats::new());
        assert_eq!(c.probe(&p("/a/b"), false), LeaseProbe::Miss);
        assert_eq!(c.stats().rejected_fills, 1);
        // Same for a NotFound verdict racing a creation of the path.
        let token = c.begin();
        c.invalidate_exact(&p("/new"));
        c.fill_negative(&p("/new"), token, &mut OpStats::new());
        assert_eq!(c.probe(&p("/new"), false), LeaseProbe::Miss);
        assert_eq!(c.stats().rejected_fills, 2);
        // A fresh token fills normally.
        c.fill(
            &p("/a/b"),
            &lease(7, 1, 60_000),
            c.begin(),
            &mut OpStats::new(),
        );
        assert!(matches!(c.probe(&p("/a/b"), false), LeaseProbe::Hit(_)));
    }

    #[test]
    fn racing_invalidation_rejects_stale_renewal() {
        let c = cache(8);
        c.fill(&p("/a"), &lease(7, 1, 1), c.begin(), &mut OpStats::new());
        clock::sleep(Duration::from_millis(5));
        assert!(matches!(c.probe(&p("/a"), false), LeaseProbe::Expired(_)));
        let token = c.begin();
        // Rename drops /a while the version-check RPC is in flight; the
        // matching verdict is stale and must not resurrect the entry.
        c.invalidate_subtree(&p("/a"));
        assert_eq!(
            c.revalidated(
                &p("/a"),
                true,
                &lease(7, 1, 60_000),
                token,
                &mut OpStats::new()
            ),
            0
        );
        assert_eq!(c.probe(&p("/a"), false), LeaseProbe::Miss);
        assert_eq!(c.stats().rejected_fills, 1);
    }

    #[test]
    fn stale_matching_revalidation_is_rejected_not_renewed() {
        let c = cache(8);
        c.fill(&p("/a"), &lease(7, 1, 1), c.begin(), &mut OpStats::new());
        clock::sleep(Duration::from_millis(5));
        // A mutation invalidates /a while the version check is in flight:
        // the verdict still matches, but its token is stale.
        let unused = |_: &mut RequestCtx| -> Result<LeasedPath> { unreachable!("/a is cached") };
        let racing = |_: &mut RequestCtx| {
            c.invalidate_subtree(&p("/a"));
            Ok(lease(7, 1, 60_000))
        };
        let mut ctx = RequestCtx::new();
        c.resolve(&p("/a"), "test", &mut ctx, unused, racing)
            .unwrap();
        let s = c.stats();
        assert_eq!((s.revalidations, s.rejected_fills), (0, 1));
        assert_eq!(ctx.retry_count(RetryClass::RejectedFill), 1);
    }
}
