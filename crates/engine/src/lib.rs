//! Pluggable ordered-KV storage engines (DESIGN.md §4.12).
//!
//! [`StorageEngine`] is the boundary between TafDB's shard runtime (row
//! locks, WAL, fault points, RPC modeling — all above this trait) and the
//! physical row organisation below it. Two engines ship:
//!
//! * [`btree::BTreeEngine`] — a reader-writer lock around a B-tree, the
//!   historical structure and the default. Range scans hold the shared
//!   lock for the whole scan, so writers wait behind long scans.
//! * [`mvcc::MvccEngine`] — copy-on-write version chains. Scans pin a
//!   snapshot sequence number and walk the tree in short chunks, releasing
//!   the latch between chunks; consistency comes from the pinned versions,
//!   not from holding the lock, so writers overtake long scans.
//!
//! Both engines expose the same checkpoint **image format** (a framed,
//! checksummed row dump — byte-identical for identical logical contents),
//! so WAL checkpoint records, Raft shard restore and online shard
//! migration work unchanged regardless of the engine underneath.
//!
//! Engines also self-report *lock-wait* time: real nanoseconds threads
//! spent blocked acquiring the engine's internal latch (fast-path
//! `try_lock` first, so the uncontended case records nothing). This is
//! deliberately kept out of the virtual-clock ledger — it is a wall-time
//! contention measurement, zero in deterministic single-threaded runs —
//! and is what the repo benchmark's `engine.lock_wait_ns_per_op` reads.

use std::ops::{Bound, ControlFlow};

use mantle_store::{KeyParts, RowKey, RowKeyView};
use mantle_types::snapshot::{frame, unframe, SnapshotReader, SnapshotWriter};
use mantle_types::{EngineName, InodeId, TxnId};

pub mod btree;
pub mod mvcc;

pub use btree::BTreeEngine;
pub use mvcc::MvccEngine;

/// A value storable by an engine: cloneable, shareable, and serializable
/// into the checkpoint image format.
pub trait EngineValue: Clone + Send + Sync + 'static {
    /// Appends this value (tag + payload) to a checkpoint image.
    fn encode(&self, w: &mut SnapshotWriter);
    /// Reads one value written by [`EngineValue::encode`]; `None` — never a
    /// panic — on an unknown tag or a payload the image is too short for.
    fn decode(r: &mut SnapshotReader<'_>) -> Option<Self>;
}

/// One mutation of an atomic write batch.
#[derive(Clone, Debug)]
pub enum WriteOp<V> {
    /// Insert or replace.
    Put(RowKey, V),
    /// Remove (a no-op if the key is absent).
    Delete(RowKey),
}

/// Read-modify-write closure for [`StorageEngine::update`]: sees the
/// current value, returns `(next value — None deletes, caller result)`.
pub type UpdateFn<'a, V> = dyn FnMut(Option<&V>) -> (Option<V>, bool) + 'a;

/// Range-transform closure for [`StorageEngine::update_range`]: sees every
/// live row in the bounds, returns the mutations to apply atomically.
pub type RangeFn<'a, V> = dyn FnMut(&[(RowKey, V)]) -> Vec<WriteOp<V>> + 'a;

/// Visitor of [`StorageEngine::scan`]: sees each row in place, in key
/// order, and breaks to end the scan.
pub type ScanFn<'a, V> = dyn FnMut(&RowKey, &V) -> ControlFlow<()> + 'a;

/// A scan bound: a borrowed key, so bounding a scan builds none.
pub type KeyBound<'a> = Bound<&'a dyn KeyParts>;

/// An ordered key-value storage engine: point reads and writes, atomic
/// batches, bounded range scans, and checkpoint/restore byte images.
///
/// Reads *lend*: an engine implements [`Self::get_with`] and [`Self::scan`],
/// which hand each stored row to a closure in place, under the engine's
/// latch (which the closure must not re-enter); the cloning forms `get`,
/// `scan_range` and `export_rows` are provided over them.
///
/// Probes and scan bounds take the key as [`KeyParts`] — `&RowKey` and
/// `&RowKeyView` both coerce — and the engines search their trees through
/// `RowKey: Borrow<dyn KeyParts>`; only what is *stored* is an owned
/// [`RowKey`] (DESIGN.md §4.12).
///
/// Thread safety: every method is `&self`; implementations synchronise
/// internally. Transaction-level isolation (row locks, 2PC) lives above
/// this trait — an engine only promises that each *method call* is atomic
/// and that scans return a consistent point-in-time view.
pub trait StorageEngine<V: EngineValue>: Send + Sync {
    /// Engine name as selected by `MANTLE_ENGINE` ("btree", "mvcc").
    fn name(&self) -> &'static str;

    /// Runs `f` on the row at `key`, in place; not at all when there is
    /// none.
    fn get_with(&self, key: &dyn KeyParts, f: &mut dyn FnMut(&V));

    /// Visits the live rows with keys in the given bounds, in key order,
    /// in place, from one consistent point-in-time view, until `f` breaks.
    fn scan(&self, lo: KeyBound<'_>, hi: KeyBound<'_>, f: &mut ScanFn<'_, V>);

    /// A copy of the row at `key`.
    fn get(&self, key: &dyn KeyParts) -> Option<V> {
        let mut row = None;
        self.get_with(key, &mut |v| row = Some(v.clone()));
        row
    }

    /// Whether a row exists at `key`.
    fn contains(&self, key: &dyn KeyParts) -> bool {
        let mut found = false;
        self.get_with(key, &mut |_| found = true);
        found
    }

    /// Inserts or replaces a row, returning the previous value.
    fn put(&self, key: RowKey, value: V) -> Option<V>;

    /// Inserts a row only if absent; returns `false` (without writing)
    /// when the key already exists.
    fn put_if_absent(&self, key: RowKey, value: V) -> bool;

    /// Removes a row; returns whether it existed.
    fn delete(&self, key: &dyn KeyParts) -> bool {
        let mut existed = false;
        let at = Bound::Included(key);
        self.delete_range(at, at, &mut |_| existed = true);
        existed
    }

    /// Atomic read-modify-write of one row. `f` sees the current value and
    /// returns `(next value — None deletes, caller result)`; the caller
    /// result is returned. An owned key is made only when `f` creates the
    /// row.
    fn update(&self, key: &dyn KeyParts, f: &mut UpdateFn<'_, V>) -> bool;

    /// Applies puts and deletes as one atomic batch: a concurrent scan
    /// sees all of the batch or none of it.
    fn apply(&self, batch: Vec<WriteOp<V>>);

    /// Copies of up to `limit` live rows with keys in the given bounds, in
    /// key order, from one consistent point-in-time view.
    fn scan_range(&self, lo: KeyBound<'_>, hi: KeyBound<'_>, limit: usize) -> Vec<(RowKey, V)> {
        let mut rows = Vec::new();
        self.scan(lo, hi, &mut |k, v| {
            if rows.len() == limit {
                return ControlFlow::Break(());
            }
            rows.push((k.clone(), v.clone()));
            ControlFlow::Continue(())
        });
        rows
    }

    /// Atomic range transform: `f` sees every live row in the bounds (key
    /// order) and returns mutations applied atomically with the read —
    /// the engine-neutral form of "fold these delta records into the base
    /// row invisibly to concurrent scans".
    fn update_range(&self, lo: KeyBound<'_>, hi: KeyBound<'_>, f: &mut RangeFn<'_, V>);

    /// Removes every live row with a key in the given bounds as one atomic
    /// write — a concurrent scan sees all of them or none — and shows `f`
    /// each removed key, in key order, in place: nothing is copied out.
    fn delete_range(&self, lo: KeyBound<'_>, hi: KeyBound<'_>, f: &mut dyn FnMut(&RowKey));

    /// Copies of every live row in key order — one consistent snapshot.
    fn export_rows(&self) -> Vec<(RowKey, V)> {
        self.scan_range(Bound::Unbounded, Bound::Unbounded, usize::MAX)
    }

    /// Replaces the entire contents (checkpoint restore). Version history,
    /// if any, is discarded.
    fn replace_all(&self, rows: Vec<(RowKey, V)>);

    /// Number of live rows.
    fn len(&self) -> usize;

    /// Whether the engine holds no live rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of stored versions, counting superseded ones an MVCC engine
    /// has not yet garbage-collected. Equals [`StorageEngine::len`] for
    /// engines without version history.
    fn version_count(&self) -> usize {
        self.len()
    }

    /// Drops superseded versions no snapshot can still read; returns how
    /// many were reclaimed. A no-op for engines without version history.
    fn gc(&self) -> usize {
        0
    }

    /// Real nanoseconds threads spent blocked on the engine's internal
    /// latch (scan-vs-write contention; zero when uncontended).
    fn lock_wait_nanos(&self) -> u64;

    /// Number of blocked latch acquisitions behind the nanos above.
    fn lock_waits(&self) -> u64;

    /// Serializes the rows selected by `keep` into a framed, checksummed
    /// checkpoint image — one consistent snapshot (DESIGN.md §4.11). Two
    /// engines holding the same logical rows produce identical bytes.
    fn checkpoint_filtered(&self, keep: &dyn Fn(&RowKey) -> bool) -> Vec<u8> {
        let mut rows = Vec::new();
        self.scan(Bound::Unbounded, Bound::Unbounded, &mut |k, v| {
            if keep(k) {
                rows.push((k.clone(), v.clone()));
            }
            ControlFlow::Continue(())
        });
        encode_image(&rows)
    }

    /// Serializes every live row into a framed checkpoint image.
    fn checkpoint(&self) -> Vec<u8> {
        self.checkpoint_filtered(&|_| true)
    }

    /// Replaces the contents from a checkpoint image. Returns the restored
    /// rows, or `None` — leaving the engine untouched — when the image is
    /// torn (fails checksum validation).
    fn restore(&self, framed: &[u8]) -> Option<Vec<(RowKey, V)>> {
        let rows = decode_image::<V>(framed)?;
        self.replace_all(rows.clone());
        Some(rows)
    }
}

/// Serializes rows into the framed checkpoint image format: row count,
/// then `(pid, name, ts, value)` per row in the given order.
pub fn encode_image<V: EngineValue>(rows: &[(RowKey, V)]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.u64(rows.len() as u64);
    for (k, v) in rows {
        w.u64(k.pid.0);
        w.str(&k.name);
        w.u64(k.ts.0);
        v.encode(&mut w);
    }
    frame(w.finish())
}

/// Decodes a framed checkpoint image; `None` on checksum failure (a torn
/// write) and on any image [`encode_image`] would not have written — a
/// row count the payload cannot hold, an undecodable row, trailing bytes.
pub fn decode_image<V: EngineValue>(framed: &[u8]) -> Option<Vec<(RowKey, V)>> {
    let mut r = SnapshotReader::new(unframe(framed)?);
    let n = usize::try_from(r.checked(8, SnapshotReader::u64)?).ok()?;
    // A key takes at least 24 bytes: a hostile count reserves only those.
    let mut rows = Vec::with_capacity(n.min(r.remaining() / 24));
    for _ in 0..n {
        let pid = InodeId(r.checked(8, SnapshotReader::u64)?);
        let name = r.checked_str()?;
        let ts = TxnId(r.checked(8, SnapshotReader::u64)?);
        rows.push((RowKey::delta(pid, &name, ts), V::decode(&mut r)?));
    }
    r.is_empty().then_some(rows)
}

/// Number of rows in a framed checkpoint image (cheap: reads the header).
pub fn image_row_count(framed: &[u8]) -> Option<u64> {
    SnapshotReader::new(unframe(framed)?).checked(8, SnapshotReader::u64)
}

/// The first key of directory `pid`'s successor: the exclusive upper bound
/// of every key of `pid`.
pub fn dir_end(pid: InodeId) -> RowKeyView<'static> {
    RowKeyView::base(InodeId(pid.0 + 1), "")
}

/// The last key of the `(pid, name, *)` version range.
pub fn versions_end(pid: InodeId, name: &str) -> RowKeyView<'_> {
    RowKeyView::delta(pid, name, TxnId(u64::MAX))
}

/// All rows of directory `pid` with names in `[name_from, ..)`, capped at
/// `limit` (the shape of `readdir`/`list` page scans).
pub fn scan_dir<V: EngineValue>(
    engine: &dyn StorageEngine<V>,
    pid: InodeId,
    name_from: &str,
    limit: usize,
) -> Vec<(RowKey, V)> {
    engine.scan_range(
        Bound::Included(&RowKeyView::base(pid, name_from)),
        Bound::Excluded(&dir_end(pid)),
        limit,
    )
}

/// All rows `(pid, name, *)` — the base row and every delta record of one
/// logical entry, in timestamp order.
pub fn scan_versions<V: EngineValue>(
    engine: &dyn StorageEngine<V>,
    pid: InodeId,
    name: &str,
) -> Vec<(RowKey, V)> {
    engine.scan_range(
        Bound::Included(&RowKeyView::base(pid, name)),
        Bound::Included(&versions_end(pid, name)),
        usize::MAX,
    )
}

/// Which engine implementation backs a shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Reader-writer-locked B-tree (the default; historical behaviour).
    Btree,
    /// Copy-on-write version chains with snapshot-pinned chunked scans.
    Mvcc,
}

impl From<EngineName> for EngineKind {
    fn from(name: EngineName) -> Self {
        match name {
            EngineName::Btree => EngineKind::Btree,
            EngineName::Mvcc => EngineKind::Mvcc,
        }
    }
}

impl EngineKind {
    /// Builds an engine of this kind.
    pub fn build<V: EngineValue>(self) -> std::sync::Arc<dyn StorageEngine<V>> {
        match self {
            EngineKind::Btree => std::sync::Arc::new(BTreeEngine::new()),
            EngineKind::Mvcc => std::sync::Arc::new(MvccEngine::new()),
        }
    }

    /// The name `MANTLE_ENGINE` would select this kind by.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Btree => "btree",
            EngineKind::Mvcc => "mvcc",
        }
    }
}

/// Blocked-acquisition accounting shared by the engine implementations.
#[derive(Default)]
pub(crate) struct WaitCounters {
    nanos: std::sync::atomic::AtomicU64,
    count: std::sync::atomic::AtomicU64,
}

impl WaitCounters {
    pub(crate) fn record(&self, waited: std::time::Duration) {
        use std::sync::atomic::Ordering;
        self.nanos
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn nanos(&self) -> u64 {
        self.nanos.load(std::sync::atomic::Ordering::Relaxed)
    }

    pub(crate) fn count(&self) -> u64 {
        self.count.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EngineValue for u64 {
        fn encode(&self, w: &mut SnapshotWriter) {
            w.u64(*self);
        }
        fn decode(r: &mut SnapshotReader<'_>) -> Option<Self> {
            r.checked(8, SnapshotReader::u64)
        }
    }

    fn key(pid: u64, name: &str) -> RowKey {
        RowKey::base(InodeId(pid), name)
    }

    fn engines() -> Vec<std::sync::Arc<dyn StorageEngine<u64>>> {
        vec![EngineKind::Btree.build(), EngineKind::Mvcc.build()]
    }

    #[test]
    fn point_ops_round_trip_on_both_engines() {
        for e in engines() {
            assert!(e.put(key(1, "a"), 10).is_none());
            assert_eq!(e.put(key(1, "a"), 11), Some(10));
            assert_eq!(e.get(&key(1, "a")), Some(11));
            assert!(e.contains(&key(1, "a")));
            assert!(e.put_if_absent(key(1, "b"), 2));
            assert!(!e.put_if_absent(key(1, "b"), 3));
            assert_eq!(e.len(), 2);
            assert!(e.delete(&key(1, "a")));
            assert!(!e.delete(&key(1, "a")));
            assert_eq!(e.len(), 1);
            assert!(!e.is_empty());
        }
    }

    #[test]
    fn scan_dir_and_versions_match_kvstore_semantics() {
        for e in engines() {
            e.put(key(1, "a"), 1);
            e.put(key(1, "b"), 2);
            e.put(key(2, "a"), 3);
            e.put(RowKey::delta(InodeId(1), "a", TxnId(7)), 4);
            let rows = scan_dir(&*e, InodeId(1), "", 10);
            assert_eq!(rows.len(), 3, "{}", e.name());
            let rows = scan_dir(&*e, InodeId(1), "b", 10);
            assert_eq!(rows.len(), 1);
            assert_eq!(scan_dir(&*e, InodeId(1), "", 1).len(), 1);
            let vs = scan_versions(&*e, InodeId(1), "a");
            let ts: Vec<u64> = vs.iter().map(|(k, _)| k.ts.0).collect();
            assert_eq!(ts, vec![0, 7]);
        }
    }

    #[test]
    fn checkpoint_images_are_engine_independent() {
        let [a, b] = [EngineKind::Btree.build(), EngineKind::Mvcc.build()];
        for e in [&a, &b] {
            e.put(key(1, "a"), 1);
            e.put(key(1, "b"), 2);
            e.put(key(1, "b"), 20); // mvcc: superseded version must not leak
            e.delete(&key(1, "a"));
            e.put(key(3, "z"), 9);
        }
        assert_eq!(a.checkpoint(), b.checkpoint());
        let filtered = |e: &std::sync::Arc<dyn StorageEngine<u64>>| {
            e.checkpoint_filtered(&|k| k.pid == InodeId(1))
        };
        assert_eq!(filtered(&a), filtered(&b));
        assert_ne!(filtered(&a), a.checkpoint());
    }

    #[test]
    fn restore_rejects_torn_images() {
        for e in engines() {
            e.put(key(1, "a"), 1);
            e.put(key(2, "b"), 2);
            let mut img = e.checkpoint();
            let restored = e.restore(&img).expect("intact image restores");
            assert_eq!(restored.len(), 2);
            let last = img.len() - 1;
            img[last] ^= 0xFF;
            assert!(e.restore(&img).is_none(), "{}", e.name());
            assert_eq!(e.len(), 2, "torn restore must leave contents intact");
        }
    }

    #[test]
    fn update_range_is_atomic_fold() {
        for e in engines() {
            e.put(key(5, "/_ATTR"), 100);
            e.put(RowKey::delta(InodeId(5), "/_ATTR", TxnId(1)), 1);
            e.put(RowKey::delta(InodeId(5), "/_ATTR", TxnId(2)), 2);
            e.put(key(5, "other"), 7);
            let mut seen = 0;
            let (lo, hi) = (key(5, "/_ATTR"), versions_end(InodeId(5), "/_ATTR"));
            e.update_range(Bound::Included(&lo), Bound::Included(&hi), &mut |rows| {
                seen = rows.len();
                let sum: u64 = rows.iter().map(|(_, v)| v).sum();
                let mut ops = vec![WriteOp::Put(key(5, "/_ATTR"), sum)];
                ops.extend(
                    rows.iter()
                        .filter(|(k, _)| k.ts != TxnId::BASE)
                        .map(|(k, _)| WriteOp::Delete(k.clone())),
                );
                ops
            });
            assert_eq!(seen, 3);
            assert_eq!(e.get(&key(5, "/_ATTR")), Some(103));
            assert_eq!(scan_versions(&*e, InodeId(5), "/_ATTR").len(), 1);
            assert_eq!(e.get(&key(5, "other")), Some(7));
        }
    }

    #[test]
    fn mvcc_gc_reclaims_superseded_versions() {
        let e = MvccEngine::<u64>::new();
        for i in 0..10 {
            e.put(key(1, "a"), i);
        }
        e.put(key(1, "b"), 1);
        e.delete(&key(1, "b"));
        assert_eq!(e.len(), 1);
        assert_eq!(e.version_count(), 1, "writes prune inline when unpinned");
        // A pinned scan keeps versions alive until it finishes.
        assert!(e.gc() == 0);
    }

    #[test]
    fn engine_kind_names() {
        assert_eq!(EngineKind::Btree.name(), "btree");
        assert_eq!(EngineKind::Mvcc.name(), "mvcc");
        assert_eq!(EngineKind::Btree.build::<u64>().name(), "btree");
        assert_eq!(EngineKind::Mvcc.build::<u64>().name(), "mvcc");
    }
}
