//! Per-operation phase accounting.
//!
//! The paper's latency-breakdown figures (Figures 4a, 13, 15) split every
//! metadata operation into three phases: *lookup* (path resolution), *loop
//! detection* (dirrename only), and *execution*. Every service in this
//! reproduction threads an [`OpStats`] through its code paths and charges
//! simulated time (see [`crate::clock`]) to the active phase, which the
//! benchmark harnesses then aggregate.

use std::time::Duration;

use crate::clock::{self, SimInstant};

/// The phases of a metadata operation (§6.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Path resolution: obtaining the parent directory id.
    Lookup,
    /// Rename loop detection (dirrename only).
    LoopDetect,
    /// Reading or updating metadata using the resolved id.
    Execute,
}

impl Phase {
    /// All phases in breakdown order.
    pub const ALL: [Phase; 3] = [Phase::Lookup, Phase::LoopDetect, Phase::Execute];

    #[inline]
    fn idx(self) -> usize {
        match self {
            Phase::Lookup => 0,
            Phase::LoopDetect => 1,
            Phase::Execute => 2,
        }
    }

    /// Human-readable label used in harness output.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Lookup => "lookup",
            Phase::LoopDetect => "loop_detect",
            Phase::Execute => "execute",
        }
    }
}

/// Why an operation retried (or had work rejected) at some layer.
///
/// [`OpStats`] and [`OpStatsAgg`] each keep one counter per class, read
/// through `retry_count(class)`; the retry policy engine (`mantle-rpc`)
/// keys its backoff curves off the same enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RetryClass {
    /// Transaction abort (write-write or lock conflict).
    Txn,
    /// Dirrename lock conflict (same-UUID retry loop).
    Rename,
    /// Transient transport fault (injected drop/timeout/partition)
    /// absorbed by a retry loop.
    Transient,
    /// Component unavailability (leader down, re-election window) absorbed
    /// by the failover loop.
    Unavailable,
    /// Stale shard-map rejection absorbed by a map refresh + retry.
    StaleRoute,
    /// Request shed by a node's bounded admission queue and retried.
    Overload,
    /// Path-cache fill/revalidation rejected (lease raced an
    /// invalidation) — work discarded, resolution falls through uncached.
    RejectedFill,
}

impl RetryClass {
    /// All classes in display order.
    pub const ALL: [RetryClass; 7] = [
        RetryClass::Txn,
        RetryClass::Rename,
        RetryClass::Transient,
        RetryClass::Unavailable,
        RetryClass::StaleRoute,
        RetryClass::Overload,
        RetryClass::RejectedFill,
    ];

    /// Number of classes (size of the per-op counter map).
    pub const COUNT: usize = Self::ALL.len();

    #[inline]
    fn idx(self) -> usize {
        match self {
            RetryClass::Txn => 0,
            RetryClass::Rename => 1,
            RetryClass::Transient => 2,
            RetryClass::Unavailable => 3,
            RetryClass::StaleRoute => 4,
            RetryClass::Overload => 5,
            RetryClass::RejectedFill => 6,
        }
    }

    /// Stable label used in metrics and harness output.
    pub fn label(self) -> &'static str {
        match self {
            RetryClass::Txn => "txn",
            RetryClass::Rename => "rename",
            RetryClass::Transient => "transient",
            RetryClass::Unavailable => "unavailable",
            RetryClass::StaleRoute => "stale_route",
            RetryClass::Overload => "overload",
            RetryClass::RejectedFill => "rejected_fill",
        }
    }
}

/// Accumulated statistics for one metadata operation.
#[derive(Clone, Debug, Default)]
pub struct OpStats {
    phase_nanos: [u64; 3],
    /// RPC round trips issued (proxy <-> metadata servers).
    pub rpcs: u32,
    /// Retries by [`RetryClass`] (see [`OpStats::retry_count`]).
    retries: [u32; RetryClass::COUNT],
    /// TopDirPathCache (or AM-Cache / path-lease-cache) hits.
    pub cache_hits: u32,
    /// Cache misses.
    pub cache_misses: u32,
    /// Expired path-lease entries revalidated with a version-check RPC.
    pub cache_revalidations: u32,
    /// Cached path entries dropped by a subtree invalidation.
    pub cache_invalidations: u32,
    current: Option<(usize, SimInstant)>,
}

impl OpStats {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts charging time to `phase`, ending any phase in progress.
    pub fn begin(&mut self, phase: Phase) {
        self.end();
        self.current = Some((phase.idx(), clock::now()));
    }

    /// Stops the phase in progress, if any.
    pub fn end(&mut self) {
        if let Some((idx, start)) = self.current.take() {
            self.phase_nanos[idx] += start.elapsed().as_nanos() as u64;
        }
    }

    /// Index of the phase in progress, if any (for save/restore in
    /// `RequestCtx::time`).
    pub(crate) fn current_idx(&self) -> Option<usize> {
        self.current.map(|(idx, _)| idx)
    }

    /// Restarts the phase saved by [`OpStats::current_idx`] at the current
    /// sim time. No-op for `None`.
    pub(crate) fn resume_idx(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            self.current = Some((idx, clock::now()));
        }
    }

    /// Nanoseconds charged to `phase` so far.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.idx()]
    }

    /// Total nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.phase_nanos.iter().sum()
    }

    /// Total duration across all phases.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_nanos())
    }

    /// Records one RPC round trip.
    #[inline]
    pub fn rpc(&mut self) {
        self.rpcs += 1;
    }

    /// Records one retry (or rejected fill) of the given class.
    #[inline]
    pub fn note_retry(&mut self, class: RetryClass) {
        self.retries[class.idx()] += 1;
    }

    /// Retries recorded for `class`.
    #[inline]
    pub fn retry_count(&self, class: RetryClass) -> u32 {
        self.retries[class.idx()]
    }

    /// Retries recorded across every class.
    pub fn total_retries(&self) -> u32 {
        self.retries.iter().sum()
    }

    /// Merges another recorder's counters into this one (phase times add;
    /// used when an operation internally retries).
    ///
    /// Any phase `self` still has in progress is ended first, charging its
    /// in-flight time — previously that slice was silently dropped when the
    /// merged totals were read before the next [`OpStats::end`]. `other` is
    /// expected to be fully ended: its in-flight slice cannot be observed
    /// through a shared reference (debug builds assert this).
    pub fn absorb(&mut self, other: &OpStats) {
        self.end();
        debug_assert!(
            other.current.is_none(),
            "absorb() of an OpStats with a phase still in progress drops its in-flight time; \
             call end() on it first"
        );
        for i in 0..3 {
            self.phase_nanos[i] += other.phase_nanos[i];
        }
        self.rpcs += other.rpcs;
        for i in 0..RetryClass::COUNT {
            self.retries[i] += other.retries[i];
        }
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_revalidations += other.cache_revalidations;
        self.cache_invalidations += other.cache_invalidations;
    }
}

/// Aggregate of many operations' [`OpStats`], used by the figure harnesses.
#[derive(Clone, Debug, Default)]
pub struct OpStatsAgg {
    /// Number of operations aggregated.
    pub count: u64,
    /// Sum of per-phase nanoseconds.
    pub phase_nanos: [u64; 3],
    /// Sum of RPC counts.
    pub rpcs: u64,
    /// Sum of retries by [`RetryClass`].
    retries: [u64; RetryClass::COUNT],
    /// Sum of cache hits.
    pub cache_hits: u64,
    /// Sum of cache misses.
    pub cache_misses: u64,
    /// Sum of path-lease revalidations.
    pub cache_revalidations: u64,
    /// Sum of path-lease invalidations.
    pub cache_invalidations: u64,
}

impl OpStatsAgg {
    /// Adds one operation's stats.
    pub fn add(&mut self, s: &OpStats) {
        self.count += 1;
        for (i, p) in Phase::ALL.iter().enumerate() {
            self.phase_nanos[i] += s.phase_nanos(*p);
        }
        self.rpcs += s.rpcs as u64;
        for (sum, n) in self.retries.iter_mut().zip(s.retries) {
            *sum += n as u64;
        }
        self.cache_hits += s.cache_hits as u64;
        self.cache_misses += s.cache_misses as u64;
        self.cache_revalidations += s.cache_revalidations as u64;
        self.cache_invalidations += s.cache_invalidations as u64;
    }

    /// Merges another aggregate (for combining per-thread aggregates).
    pub fn merge(&mut self, other: &OpStatsAgg) {
        self.count += other.count;
        for i in 0..3 {
            self.phase_nanos[i] += other.phase_nanos[i];
        }
        self.rpcs += other.rpcs;
        for (sum, n) in self.retries.iter_mut().zip(other.retries) {
            *sum += n;
        }
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_revalidations += other.cache_revalidations;
        self.cache_invalidations += other.cache_invalidations;
    }

    /// Sum of retries recorded for `class`.
    pub fn retry_count(&self, class: RetryClass) -> u64 {
        self.retries[class.idx()]
    }

    /// Mean nanoseconds per op charged to `phase`.
    pub fn mean_phase_nanos(&self, phase: Phase) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.phase_nanos[phase.idx()] as f64 / self.count as f64
    }

    /// Mean RPCs per operation.
    pub fn mean_rpcs(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.rpcs as f64 / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::RequestCtx;

    #[test]
    fn phases_accumulate_independently() {
        let mut s = RequestCtx::new();
        s.time(Phase::Lookup, |_| clock::sleep(Duration::from_millis(2)));
        s.time(Phase::Execute, |_| clock::sleep(Duration::from_millis(1)));
        // Simulated time is exact: no scheduler jitter in the phases.
        assert_eq!(s.phase_nanos(Phase::Lookup), 2_000_000);
        assert_eq!(s.phase_nanos(Phase::Execute), 1_000_000);
        assert_eq!(s.phase_nanos(Phase::LoopDetect), 0);
        assert_eq!(s.total_nanos(), 3_000_000);
    }

    #[test]
    fn nested_time_restores_outer_phase() {
        let mut s = RequestCtx::new();
        s.begin(Phase::Execute);
        clock::sleep(Duration::from_millis(1));
        s.time(Phase::Lookup, |_| clock::sleep(Duration::from_millis(1)));
        clock::sleep(Duration::from_millis(1));
        s.end();
        assert_eq!(s.phase_nanos(Phase::Execute), 2_000_000);
        assert_eq!(s.phase_nanos(Phase::Lookup), 1_000_000);
    }

    #[test]
    fn retry_classes_count_independently() {
        let mut s = OpStats::new();
        s.note_retry(RetryClass::Txn);
        s.note_retry(RetryClass::Txn);
        s.note_retry(RetryClass::StaleRoute);
        assert_eq!(s.retry_count(RetryClass::Txn), 2);
        assert_eq!(s.retry_count(RetryClass::StaleRoute), 1);
        assert_eq!(s.retry_count(RetryClass::Rename), 0);
        assert_eq!(s.total_retries(), 3);
        for c in RetryClass::ALL {
            assert!(!c.label().is_empty());
        }
    }

    #[test]
    fn absorb_adds_counters() {
        let mut a = OpStats::new();
        a.rpc();
        let mut b = OpStats::new();
        b.rpc();
        b.note_retry(RetryClass::Txn);
        b.note_retry(RetryClass::Txn);
        b.note_retry(RetryClass::Overload);
        a.absorb(&b);
        assert_eq!(a.rpcs, 2);
        assert_eq!(a.retry_count(RetryClass::Txn), 2);
        assert_eq!(a.retry_count(RetryClass::Overload), 1);
    }

    #[test]
    fn aggregation_means() {
        let mut agg = OpStatsAgg::default();
        for _ in 0..4 {
            let mut s = OpStats::new();
            s.rpc();
            s.rpc();
            agg.add(&s);
        }
        assert_eq!(agg.count, 4);
        assert!((agg.mean_rpcs() - 2.0).abs() < f64::EPSILON);

        let mut other = OpStatsAgg::default();
        other.add(&OpStats::new());
        agg.merge(&other);
        assert_eq!(agg.count, 5);
    }

    #[test]
    fn aggregation_sums_retry_classes() {
        let mut s = OpStats::new();
        s.note_retry(RetryClass::Transient);
        s.note_retry(RetryClass::RejectedFill);
        let mut agg = OpStatsAgg::default();
        agg.add(&s);
        let mut other = OpStatsAgg::default();
        other.add(&s);
        agg.merge(&other);
        assert_eq!(agg.retry_count(RetryClass::Transient), 2);
        assert_eq!(agg.retry_count(RetryClass::RejectedFill), 2);
        assert_eq!(agg.retry_count(RetryClass::Txn), 0);
    }

    #[test]
    fn end_without_begin_is_noop() {
        let mut s = OpStats::new();
        s.end();
        assert_eq!(s.total_nanos(), 0);
    }

    #[test]
    fn absorb_mid_phase_charges_in_flight_time() {
        let mut a = OpStats::new();
        a.begin(Phase::Execute);
        clock::sleep(Duration::from_millis(2));
        let mut b = OpStats::new();
        b.begin(Phase::Lookup);
        clock::sleep(Duration::from_millis(1));
        b.end();
        a.absorb(&b);
        // The execute slice running when absorb() was called must be
        // charged, not dropped. (The nested `b` sleep also advances this
        // thread's timeline, so the in-flight slice spans both sleeps.)
        assert!(
            a.phase_nanos(Phase::Execute) >= 2_000_000,
            "in-flight execute time dropped by absorb: {}ns",
            a.phase_nanos(Phase::Execute)
        );
        assert!(a.phase_nanos(Phase::Lookup) >= 1_000_000);
        // absorb() ends the current phase; later time is not charged.
        let after = a.phase_nanos(Phase::Execute);
        clock::sleep(Duration::from_millis(1));
        a.end();
        assert_eq!(a.phase_nanos(Phase::Execute), after);
    }
}
