//! The MVCC engine: copy-on-write version chains with snapshot reads.
//!
//! Every write appends a `(seq, value)` version to its key's chain instead
//! of overwriting in place. A scan *pins* the current commit sequence and
//! walks the tree in short chunks, releasing the latch between chunks —
//! the pinned versions, not the lock, provide the consistent point-in-time
//! view, so writers never wait behind a long `readdir`. This is the MIDAS
//! "keep hot-directory scans off the write path" idea applied to the
//! shard store.
//!
//! # Read protocol
//!
//! 1. `pin()`: under the pin-registry mutex, read the published commit
//!    sequence `s` and register it. Writers publish their sequence under
//!    the same mutex *before* computing the prune floor, so a version
//!    readable at any registered (or future) pin is never reclaimed.
//! 2. Chunked walk: take the shared latch, lend the visitor each of up to
//!    `CHUNK` keys' chain resolved at `s` (newest version with `seq <= s`)
//!    under it, release, resume at the first key not visited.
//! 3. `unpin(s)`: deregister; the next write prunes what `s` kept alive.
//!
//! A write publishes its sequence and takes the floor first, then descends
//! once (an `entry` on its owned key) to the chain it appends to and prunes.
//!
//! # Garbage
//!
//! Writes prune the chains they touch inline (versions superseded by a
//! newer version at-or-below the floor `min(pins, seq)`; a tombstone at
//! the floor is dropped entirely). [`StorageEngine::gc`] sweeps every
//! chain — shard migration calls it on abort so no staged versions
//! outlive the rollback — and [`StorageEngine::version_count`] exposes
//! what is still stored so operators can watch accumulation.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use mantle_store::{KeyParts, RowKey};

use crate::{
    EngineValue, KeyBound, RangeFn, ScanFn, StorageEngine, UpdateFn, WaitCounters, WriteOp,
};

/// Keys visited per latch hold during a snapshot scan. Large enough to
/// keep reacquisition overhead negligible on big directories, small
/// enough that a chunk hold stays microseconds — a writer never waits
/// behind more than one chunk.
const CHUNK: usize = 512;

/// One key's version chain, ascending by sequence. `None` is a tombstone.
struct Chain<V> {
    vs: Vec<(u64, Option<V>)>,
}

impl<V> Chain<V> {
    fn new() -> Self {
        Chain { vs: Vec::new() }
    }

    /// The value visible at snapshot `s`: the newest version with
    /// `seq <= s`.
    fn read_at(&self, s: u64) -> Option<&V> {
        self.vs
            .iter()
            .rev()
            .find(|(seq, _)| *seq <= s)
            .and_then(|(_, v)| v.as_ref())
    }

    /// The currently-live value (newest version).
    fn head(&self) -> Option<&V> {
        self.vs.last().and_then(|(_, v)| v.as_ref())
    }

    /// Drops versions no snapshot at or above `floor` can read; returns
    /// how many were removed. May leave the chain empty (a fully reclaimed
    /// tombstone) — the caller removes empty chains from the map.
    fn prune(&mut self, floor: u64) -> usize {
        let Some(i) = self.vs.iter().rposition(|(seq, _)| *seq <= floor) else {
            return 0;
        };
        // Versions before `i` are superseded for every reachable snapshot;
        // a tombstone at `i` reads the same as no version at all.
        let cut = if self.vs[i].1.is_none() { i + 1 } else { i };
        if cut == 0 {
            return 0;
        }
        self.vs.drain(..cut);
        cut
    }
}

struct Inner<V> {
    map: BTreeMap<RowKey, Chain<V>>,
    counts: Counts,
}

/// The tallies, beside the map so a write can hold a chain and them at once.
#[derive(Default)]
struct Counts {
    /// Keys whose chain head is a live value.
    live: usize,
    /// Total versions stored (live + not-yet-reclaimed garbage).
    versions: usize,
    /// Last committed write sequence.
    seq: u64,
}

impl Counts {
    /// Appends `value` (a tombstone when `None`) to `chain` as version `seq`.
    fn append<V>(&mut self, chain: &mut Chain<V>, value: Option<V>) {
        match (chain.head().is_some(), value.is_some()) {
            (false, true) => self.live += 1,
            (true, false) => self.live -= 1,
            _ => {}
        }
        chain.vs.push((self.seq, value));
        self.versions += 1;
    }

    /// Prunes `chain` at `floor`; `true` when it emptied (the caller unlinks).
    fn prune<V>(&mut self, chain: &mut Chain<V>, floor: u64) -> bool {
        self.versions -= chain.prune(floor);
        chain.vs.is_empty()
    }
}

/// Copy-on-write MVCC engine (`MANTLE_ENGINE=mvcc`).
pub struct MvccEngine<V> {
    inner: RwLock<Inner<V>>,
    /// Snapshot registry: pinned sequence -> pin count.
    pins: Mutex<BTreeMap<u64, usize>>,
    /// Commit sequence as visible to `pin()`; published under the `pins`
    /// mutex so a racing pin either sees the new sequence or is counted
    /// into the prune floor.
    published: AtomicU64,
    wait: WaitCounters,
}

impl<V> Default for MvccEngine<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> MvccEngine<V> {
    /// Creates an empty engine.
    pub fn new() -> Self {
        MvccEngine {
            inner: RwLock::new(Inner {
                map: BTreeMap::new(),
                counts: Counts::default(),
            }),
            pins: Mutex::new(BTreeMap::new()),
            published: AtomicU64::new(0),
            wait: WaitCounters::default(),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Inner<V>> {
        if let Some(g) = self.inner.try_read() {
            return g;
        }
        let start = Instant::now();
        let g = self.inner.read();
        self.wait.record(start.elapsed());
        g
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner<V>> {
        if let Some(g) = self.inner.try_write() {
            return g;
        }
        let start = Instant::now();
        let g = self.inner.write();
        self.wait.record(start.elapsed());
        g
    }

    /// Registers a snapshot at the current published sequence.
    fn pin(&self) -> u64 {
        let mut pins = self.pins.lock();
        let s = self.published.load(Ordering::Acquire);
        *pins.entry(s).or_insert(0) += 1;
        s
    }

    fn unpin(&self, s: u64) {
        let mut pins = self.pins.lock();
        if let Some(c) = pins.get_mut(&s) {
            *c -= 1;
            if *c == 0 {
                pins.remove(&s);
            }
        }
    }

    /// Publishes commit sequence `seq` and returns the prune floor:
    /// nothing at or below `min(oldest pin, seq)` may supersede-prune a
    /// version a pinned (or about-to-pin) snapshot still reads. Must be
    /// called with the inner write lock held.
    fn publish_floor(&self, seq: u64) -> u64 {
        let pins = self.pins.lock();
        self.published.store(seq, Ordering::Release);
        pins.keys().next().copied().unwrap_or(u64::MAX).min(seq)
    }

    /// Applies `ops` in order as one write (the shared tail of `apply` and
    /// `update_range`): the floor is published at the batch's last
    /// sequence, then each op descends once, by its owned key.
    fn apply_ops(&self, inner: &mut Inner<V>, ops: Vec<WriteOp<V>>) {
        let Inner { map, counts } = inner;
        let floor = self.publish_floor(counts.seq + ops.len() as u64);
        for op in ops {
            counts.seq += 1;
            match op {
                WriteOp::Put(k, v) => {
                    let chain = map.entry(k).or_insert_with(Chain::new);
                    counts.append(chain, Some(v));
                    counts.prune(chain, floor);
                }
                WriteOp::Delete(k) => {
                    if let Entry::Occupied(mut e) = map.entry(k) {
                        if e.get().head().is_some() {
                            counts.append(e.get_mut(), None);
                        }
                        if counts.prune(e.get_mut(), floor) {
                            e.remove();
                        }
                    }
                }
            }
        }
    }
}

impl<V: EngineValue> StorageEngine<V> for MvccEngine<V> {
    fn name(&self) -> &'static str {
        "mvcc"
    }

    fn get_with(&self, key: &dyn KeyParts, f: &mut dyn FnMut(&V)) {
        if let Some(v) = self.read().map.get(key).and_then(Chain::head) {
            f(v);
        }
    }

    fn scan(&self, lo: KeyBound<'_>, hi: KeyBound<'_>, f: &mut ScanFn<'_, V>) {
        let snap = self.pin();
        // The first key the previous chunk left unvisited.
        let mut next: Option<RowKey> = None;
        loop {
            let g = self.read();
            let from = next.as_ref().map_or(lo, |k| Bound::Included(k));
            let mut keys = g.map.range::<dyn KeyParts, _>((from, hi));
            let mut chunk = keys.by_ref().take(CHUNK);
            if chunk.any(|(k, c)| c.read_at(snap).is_some_and(|v| f(k, v).is_break())) {
                break;
            }
            match keys.next() {
                Some((k, _)) => next = Some(k.clone()),
                None => break,
            }
        }
        self.unpin(snap);
    }

    fn put(&self, key: RowKey, value: V) -> Option<V> {
        let mut inner = self.write();
        let Inner { map, counts } = &mut *inner;
        counts.seq += 1;
        let floor = self.publish_floor(counts.seq);
        let chain = map.entry(key).or_insert_with(Chain::new);
        let prev = chain.head().cloned();
        counts.append(chain, Some(value));
        counts.prune(chain, floor); // a live head is never reclaimed
        prev
    }

    fn put_if_absent(&self, key: RowKey, value: V) -> bool {
        let mut inner = self.write();
        let Inner { map, counts } = &mut *inner;
        let chain = match map.entry(key) {
            Entry::Occupied(e) if e.get().head().is_some() => return false,
            e => e.or_insert_with(Chain::new),
        };
        counts.seq += 1;
        let floor = self.publish_floor(counts.seq);
        counts.append(chain, Some(value));
        counts.prune(chain, floor);
        true
    }

    fn update(&self, key: &dyn KeyParts, f: &mut UpdateFn<'_, V>) -> bool {
        let mut inner = self.write();
        let Inner { map, counts } = &mut *inner;
        let (next, out) = f(map.get(key).and_then(Chain::head));
        // An owned key is made only for a key without a chain.
        let chain = match map.get_mut(key) {
            Some(chain) if next.is_some() || chain.head().is_some() => chain,
            None if next.is_some() => map.entry(key.to_key()).or_insert_with(Chain::new),
            _ => return out,
        };
        counts.seq += 1;
        let floor = self.publish_floor(counts.seq);
        counts.append(chain, next);
        if counts.prune(chain, floor) {
            map.remove(key);
        }
        out
    }

    fn apply(&self, batch: Vec<WriteOp<V>>) {
        self.apply_ops(&mut self.write(), batch);
    }

    fn update_range(&self, lo: KeyBound<'_>, hi: KeyBound<'_>, f: &mut RangeFn<'_, V>) {
        let mut inner = self.write();
        let rows: Vec<(RowKey, V)> = inner
            .map
            .range::<dyn KeyParts, _>((lo, hi))
            .filter_map(|(k, c)| c.head().map(|v| (k.clone(), v.clone())))
            .collect();
        self.apply_ops(&mut inner, f(&rows));
    }

    fn delete_range(&self, lo: KeyBound<'_>, hi: KeyBound<'_>, f: &mut dyn FnMut(&RowKey)) {
        let mut inner = self.write();
        let Inner { map, counts } = &mut *inner;
        // `apply`'s tombstones, one sequence each, the floor published at the
        // last before any lands; each pass finds the next live key from `lo`.
        let live = map
            .range::<dyn KeyParts, _>((lo, hi))
            .filter(|(_, c)| c.head().is_some())
            .count();
        let floor = self.publish_floor(counts.seq + live as u64);
        while let Some((key, chain)) = map
            .range_mut::<dyn KeyParts, _>((lo, hi))
            .find(|(_, c)| c.head().is_some())
        {
            let key = key.clone();
            counts.seq += 1;
            counts.append(chain, None);
            if counts.prune(chain, floor) {
                map.remove(&key);
            }
            f(&key);
        }
    }

    fn replace_all(&self, rows: Vec<(RowKey, V)>) {
        let mut inner = self.write();
        let seq = inner.counts.seq + 1;
        inner.counts = Counts {
            live: rows.len(),
            versions: rows.len(),
            seq,
        };
        inner.map = rows
            .into_iter()
            .map(|(k, v)| {
                (
                    k,
                    Chain {
                        vs: vec![(seq, Some(v))],
                    },
                )
            })
            .collect();
        // Publish the new sequence so later pins read the restored state.
        let _ = self.publish_floor(seq);
    }

    fn len(&self) -> usize {
        self.read().counts.live
    }

    fn version_count(&self) -> usize {
        self.read().counts.versions
    }

    fn gc(&self) -> usize {
        let mut inner = self.write();
        let Inner { map, counts } = &mut *inner;
        let floor = self.publish_floor(counts.seq);
        let before = counts.versions;
        map.retain(|_, chain| !counts.prune(chain, floor));
        before - counts.versions
    }

    fn lock_wait_nanos(&self) -> u64 {
        self.wait.nanos()
    }

    fn lock_waits(&self) -> u64 {
        self.wait.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_types::InodeId;

    fn key(pid: u64, name: &str) -> RowKey {
        RowKey::base(InodeId(pid), name)
    }

    #[test]
    fn pinned_scan_reads_a_consistent_snapshot() {
        let e = MvccEngine::<u64>::new();
        for i in 0..5 {
            e.put(key(1, &format!("n{i}")), i);
        }
        let snap = e.pin();
        // Writes after the pin are invisible at `snap`, and the versions
        // they supersede stay readable.
        e.put(key(1, "n0"), 100);
        e.delete(&key(1, "n3"));
        e.put(key(1, "zz"), 7);
        let g = e.read();
        assert_eq!(g.map.get(&key(1, "n0")).unwrap().read_at(snap), Some(&0));
        assert_eq!(g.map.get(&key(1, "n3")).unwrap().read_at(snap), Some(&3));
        assert_eq!(g.map.get(&key(1, "zz")).unwrap().read_at(snap), None);
        drop(g);
        e.unpin(snap);
        // With the pin gone the next write's prune floor advances; gc
        // reclaims everything superseded.
        e.gc();
        assert_eq!(e.version_count(), e.len());
        assert_eq!(e.get(&key(1, "n0")), Some(100));
        assert!(e.get(&key(1, "n3")).is_none());
    }

    #[test]
    fn chunked_scan_resumes_across_latch_drops() {
        let e = MvccEngine::<u64>::new();
        let n = CHUNK * 3 + 17;
        for i in 0..n {
            e.put(key(1, &format!("{i:06}")), i as u64);
        }
        let rows = e.scan_range(Bound::Unbounded, Bound::Unbounded, usize::MAX);
        assert_eq!(rows.len(), n);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(
            e.scan_range(Bound::Unbounded, Bound::Unbounded, 10).len(),
            10
        );
    }

    #[test]
    fn tombstones_do_not_leak_into_scans_or_counts() {
        let e = MvccEngine::<u64>::new();
        e.put(key(1, "a"), 1);
        e.put(key(1, "b"), 2);
        e.delete(&key(1, "a"));
        assert_eq!(e.len(), 1);
        let rows = e.scan_range(Bound::Unbounded, Bound::Unbounded, usize::MAX);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, 2);
        // The unpinned delete reclaimed the whole chain inline.
        assert_eq!(e.version_count(), 1);
    }
}
