//! The epoch-versioned, range-partitioned shard map (placement plane).
//!
//! Every row is assigned a 64-bit **placement key**: the high 32 bits
//! identify the row's *directory region* (a fibonacci hash of its `pid`),
//! the low 32 bits spread the directory's rows within the region (a hash of
//! the entry name, or of the transaction timestamp for delta records). The
//! map partitions the full `u64` placement space into contiguous ranges,
//! each owned by one shard, and carries a monotonically increasing
//! **epoch**: any split, merge or reassignment produces a *new* map with
//! `epoch + 1`, so routing snapshots are cheap (`Arc` clone) and staleness
//! is detectable (`MetaError::StaleRoute`).
//!
//! Two properties matter:
//!
//! * **Totality / non-overlap** — ranges are sorted, contiguous and cover
//!   the whole space, so every placement key routes to exactly one shard at
//!   every epoch ([`ShardMap::check_invariants`], enforced by a property
//!   test).
//! * **Static equivalence** — the initial [`ShardMap::uniform`] partition
//!   aligns every boundary to a directory-region boundary (a multiple of
//!   2^32), so while no split has happened all rows of one directory
//!   colocate on one shard and routing is a pure function of `pid` —
//!   exactly the historical fixed-hash behaviour.
//!
//! Splitting *inside* a directory region is what lets a single hot parent
//! spread across shards: its entry inserts and delta appends carry distinct
//! low-32 subkeys, so a range boundary inside the region divides the
//! directory's own traffic (see DESIGN.md §5.6).

use std::sync::atomic::{AtomicU64, Ordering};

use mantle_store::KeyParts;
use mantle_types::{InodeId, TxnId};

/// Width of one directory region in the placement space.
pub const DIR_REGION_SPAN: u64 = 1 << 32;

fn fib32(x: u64) -> u64 {
    // Fibonacci hashing: top 32 bits of the golden-ratio multiply.
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

fn name32(name: &str) -> u64 {
    // FNV-1a folded to 32 bits.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) & 0xFFFF_FFFF
}

fn spread32(ts: u64) -> u64 {
    // splitmix64-style finalizer folded to 32 bits.
    let mut h = ts.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 29;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    (h ^ (h >> 32)) & 0xFFFF_FFFF
}

/// The inclusive placement-key interval `[start, end]` of `pid`'s
/// directory region.
pub fn dir_region(pid: InodeId) -> (u64, u64) {
    let start = fib32(pid.0) << 32;
    (start, start | (DIR_REGION_SPAN - 1))
}

/// The placement key of a row. Derivable from the key alone, so migration
/// can decide row ownership without any side lookup: base rows place by
/// `(pid, name)`, delta records spread by their transaction timestamp.
pub fn place_of(key: &dyn KeyParts) -> u64 {
    let key = key.view();
    let hi = fib32(key.pid.0) << 32;
    let lo = if key.ts == TxnId::BASE {
        name32(key.name)
    } else {
        spread32(key.ts.0)
    };
    hi | lo
}

/// One contiguous placement range owned by a shard.
#[derive(Debug)]
pub struct RangeEntry {
    /// First placement key of the range (inclusive).
    pub start: u64,
    /// Last placement key of the range (inclusive).
    pub end: u64,
    /// Owning shard index.
    pub shard: usize,
    /// Ops routed through this range since the map was installed.
    hits: AtomicU64,
    /// Placement key of the most recent hit (hotspot sample).
    hot_place: AtomicU64,
}

impl RangeEntry {
    fn new(start: u64, end: u64, shard: usize) -> Self {
        RangeEntry {
            start,
            end,
            shard,
            hits: AtomicU64::new(0),
            hot_place: AtomicU64::new(start),
        }
    }

    fn carry(&self) -> Self {
        RangeEntry {
            start: self.start,
            end: self.end,
            shard: self.shard,
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            hot_place: AtomicU64::new(self.hot_place.load(Ordering::Relaxed)),
        }
    }

    /// Ops routed through this range since the map was installed.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Placement key of the most recent hit (hotspot sample).
    pub fn hot_place(&self) -> u64 {
        self.hot_place.load(Ordering::Relaxed)
    }
}

/// An immutable routing table: sorted, contiguous, total over `u64`.
///
/// Mutations (`with_split`, `with_merge`, `with_reassign`) build a *new*
/// map with `epoch + 1`; the owning [`crate::TafDb`] swaps it in atomically
/// behind an `RwLock<Arc<ShardMap>>`, which is the migration commit point.
#[derive(Debug)]
pub struct ShardMap {
    epoch: u64,
    n_shards: usize,
    ranges: Vec<RangeEntry>,
}

impl ShardMap {
    /// The initial uniform partition: `n_shards` equal ranges with every
    /// boundary aligned to a directory-region boundary, so each directory's
    /// rows colocate and routing matches the historical fixed hash.
    pub fn uniform(n_shards: usize) -> Self {
        assert!(n_shards >= 1);
        let n = n_shards.min(1 << 32) as u128;
        let mut ranges = Vec::with_capacity(n as usize);
        let mut prev: u64 = 0;
        for i in 1..=n {
            // Boundary aligned down to a region boundary; distinct for
            // n <= 2^32.
            let end = if i == n {
                u64::MAX
            } else {
                (((i << 64) / n) as u64 & !(DIR_REGION_SPAN - 1)).wrapping_sub(1)
            };
            ranges.push(RangeEntry::new(prev, end, (i - 1) as usize));
            prev = end.wrapping_add(1);
        }
        ShardMap {
            epoch: 0,
            n_shards,
            ranges,
        }
    }

    /// The map's epoch (bumped by every mutation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards the map routes to.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Number of ranges.
    pub fn n_ranges(&self) -> usize {
        self.ranges.len()
    }

    /// The range containing `place` (total: always exists).
    pub fn range_index(&self, place: u64) -> usize {
        // Last range whose start <= place.
        match self.ranges.binary_search_by(|r| r.start.cmp(&place)) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// The range at `idx`.
    pub fn range(&self, idx: usize) -> &RangeEntry {
        &self.ranges[idx]
    }

    /// All ranges.
    pub fn ranges(&self) -> &[RangeEntry] {
        &self.ranges
    }

    /// The shard owning `place`.
    pub fn owner(&self, place: u64) -> usize {
        self.ranges[self.range_index(place)].shard
    }

    /// Records one routed op on the range owning `place` (load sample for
    /// the placement controller).
    pub fn record_hit(&self, place: u64) {
        let r = &self.ranges[self.range_index(place)];
        r.hits.fetch_add(1, Ordering::Relaxed);
        r.hot_place.store(place, Ordering::Relaxed);
    }

    /// Distinct shards owning any part of `[start, end]`, in range order.
    /// Builds nothing: a region spans a handful of ranges (one, until it is
    /// split), so "already yielded" is a look back over the ranges passed.
    pub fn owners_of(&self, start: u64, end: u64) -> impl Iterator<Item = usize> + '_ {
        let from = &self.ranges[self.range_index(start)..];
        let covering = &from[..from.iter().take_while(|r| r.start <= end).count()];
        covering.iter().enumerate().filter_map(move |(i, r)| {
            let seen = covering[..i].iter().any(|p| p.shard == r.shard);
            (!seen).then_some(r.shard)
        })
    }

    /// A new map (epoch + 1) with range `idx` split at `at`: `[start, at-1]`
    /// and `[at, end]`, both still owned by the original shard (metadata
    /// only — no row moves).
    pub fn with_split(&self, idx: usize, at: u64) -> ShardMap {
        let r = &self.ranges[idx];
        assert!(r.start < at && at <= r.end, "split point inside range");
        let mut ranges: Vec<RangeEntry> = Vec::with_capacity(self.ranges.len() + 1);
        for (i, e) in self.ranges.iter().enumerate() {
            if i == idx {
                ranges.push(RangeEntry::new(e.start, at - 1, e.shard));
                ranges.push(RangeEntry::new(at, e.end, e.shard));
            } else {
                ranges.push(e.carry());
            }
        }
        ShardMap {
            epoch: self.epoch + 1,
            n_shards: self.n_shards,
            ranges,
        }
    }

    /// A new map (epoch + 1) with range `idx` cut at every boundary in
    /// `cuts` (ascending, strictly inside the range). Used to isolate a hot
    /// directory region in one step.
    pub fn with_cuts(&self, idx: usize, cuts: &[u64]) -> ShardMap {
        let mut ranges: Vec<RangeEntry> = Vec::with_capacity(self.ranges.len() + cuts.len());
        for (i, e) in self.ranges.iter().enumerate() {
            if i == idx {
                let mut prev = e.start;
                for &c in cuts {
                    assert!(prev < c && c <= e.end, "cut inside range");
                    ranges.push(RangeEntry::new(prev, c - 1, e.shard));
                    prev = c;
                }
                ranges.push(RangeEntry::new(prev, e.end, e.shard));
            } else {
                ranges.push(e.carry());
            }
        }
        ShardMap {
            epoch: self.epoch + 1,
            n_shards: self.n_shards,
            ranges,
        }
    }

    /// A new map (epoch + 1) with range `idx` owned by shard `to`.
    pub fn with_reassign(&self, idx: usize, to: usize) -> ShardMap {
        assert!(to < self.n_shards);
        let mut ranges: Vec<RangeEntry> = self.ranges.iter().map(|e| e.carry()).collect();
        let e = &self.ranges[idx];
        ranges[idx] = RangeEntry::new(e.start, e.end, to);
        ShardMap {
            epoch: self.epoch + 1,
            n_shards: self.n_shards,
            ranges,
        }
    }

    /// A new map (epoch + 1) with ranges `idx` and `idx + 1` merged.
    /// Returns `None` unless both exist and share a shard (merging across
    /// shards would need a data move — reassign first).
    pub fn with_merge(&self, idx: usize) -> Option<ShardMap> {
        let a = self.ranges.get(idx)?;
        let b = self.ranges.get(idx + 1)?;
        if a.shard != b.shard {
            return None;
        }
        let mut ranges: Vec<RangeEntry> = Vec::with_capacity(self.ranges.len() - 1);
        for (i, e) in self.ranges.iter().enumerate() {
            if i == idx {
                ranges.push(RangeEntry::new(a.start, b.end, a.shard));
            } else if i != idx + 1 {
                ranges.push(e.carry());
            }
        }
        Some(ShardMap {
            epoch: self.epoch + 1,
            n_shards: self.n_shards,
            ranges,
        })
    }

    /// Panics unless the map is sorted, contiguous, total over `u64`, and
    /// every range routes to a valid shard. The property test drives this
    /// after arbitrary mutation sequences.
    pub fn check_invariants(&self) {
        assert!(!self.ranges.is_empty(), "map must have at least one range");
        assert_eq!(self.ranges[0].start, 0, "first range must start at 0");
        assert_eq!(
            self.ranges.last().unwrap().end,
            u64::MAX,
            "last range must end at u64::MAX"
        );
        for w in self.ranges.windows(2) {
            assert!(
                w[0].end.wrapping_add(1) == w[1].start && w[0].end < w[1].start,
                "ranges must be contiguous and sorted: {:#x}..{:#x} then {:#x}",
                w[0].start,
                w[0].end,
                w[1].start
            );
        }
        for r in &self.ranges {
            assert!(r.start <= r.end, "range must be non-empty");
            assert!(r.shard < self.n_shards, "shard index in bounds");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_store::RowKey;

    #[test]
    fn uniform_is_total_and_region_aligned() {
        for n in [1, 2, 3, 8, 10, 16] {
            let m = ShardMap::uniform(n);
            m.check_invariants();
            assert_eq!(m.n_ranges(), n);
            for r in m.ranges() {
                assert_eq!(r.start % DIR_REGION_SPAN, 0, "boundary region-aligned");
            }
        }
    }

    #[test]
    fn unsplit_region_has_one_owner() {
        let m = ShardMap::uniform(8);
        for pid in 0..500u64 {
            let (s, e) = dir_region(InodeId(pid));
            assert_eq!(m.owner(s), m.owner(e), "pid {pid} region spans shards");
            assert!(m.owners_of(s, e).eq([m.owner(s)]));
        }
    }

    #[test]
    fn place_is_key_derived_and_region_bound() {
        let pid = InodeId(42);
        let (s, e) = dir_region(pid);
        for key in [
            RowKey::base(pid, "some-entry"),
            RowKey::base(pid, "/_ATTR"),
            RowKey::delta(pid, "/_ATTR", TxnId(7)),
        ] {
            let p = place_of(&key);
            assert!((s..=e).contains(&p), "row places inside its dir region");
            assert_eq!(p, place_of(&key.clone()), "placement is deterministic");
        }
        // Distinct subkeys so an in-region split can separate them.
        assert_ne!(
            place_of(&RowKey::base(pid, "a")),
            place_of(&RowKey::base(pid, "b"))
        );
        assert_ne!(
            place_of(&RowKey::delta(pid, "/_ATTR", TxnId(1))),
            place_of(&RowKey::delta(pid, "/_ATTR", TxnId(2)))
        );
    }

    #[test]
    fn split_reassign_merge_round_trip() {
        let m = ShardMap::uniform(4);
        let idx = m.range_index(1 << 62);
        let at = m.range(idx).start + (1 << 40);
        let m2 = m.with_split(idx, at);
        m2.check_invariants();
        assert_eq!(m2.epoch(), 1);
        assert_eq!(m2.n_ranges(), 5);
        let m3 = m2.with_reassign(idx + 1, 0);
        m3.check_invariants();
        assert_eq!(m3.owner(at), 0);
        // Merge refuses while shards differ, succeeds once reassigned back.
        assert!(m3.with_merge(idx).is_none());
        let m4 = m3.with_reassign(idx + 1, m3.range(idx).shard);
        let m5 = m4.with_merge(idx).expect("same-shard neighbours merge");
        m5.check_invariants();
        assert_eq!(m5.n_ranges(), 4);
    }

    #[test]
    fn cuts_isolate_a_region() {
        let m = ShardMap::uniform(2);
        let (s, e) = dir_region(InodeId(1234));
        let idx = m.range_index(s);
        let r = m.range(idx);
        let mut cuts = Vec::new();
        if r.start < s {
            cuts.push(s);
        }
        if e < r.end {
            cuts.push(e + 1);
        }
        let m2 = m.with_cuts(idx, &cuts);
        m2.check_invariants();
        let ri = m2.range_index(s);
        assert_eq!(m2.range(ri).start, s);
        assert_eq!(m2.range(ri).end, e);
    }

    #[test]
    fn record_hit_tracks_load_and_sample() {
        let m = ShardMap::uniform(4);
        let p = place_of(&RowKey::base(InodeId(9), "x"));
        m.record_hit(p);
        m.record_hit(p);
        let r = m.range(m.range_index(p));
        assert_eq!(r.hits(), 2);
        assert_eq!(r.hot_place(), p);
    }
}
