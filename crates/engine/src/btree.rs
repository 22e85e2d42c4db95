//! The default engine: a reader-writer lock around B-trees.
//!
//! This is the historical TafDB shard structure: a write moves its row in,
//! a read lends each row to its closure under the shared lock, and a range
//! scan holds that lock for the whole scan — which is precisely why
//! writers stall behind `readdir` of a large directory (the contention the
//! MVCC engine removes). The only addition is lock-wait accounting on the
//! slow path.
//!
//! Rows live in three maps, each key in at most one (DESIGN.md §4.12
//! "Packed loads"): loaded rows in full nodes (`packed`), rows loaded since
//! the last merge (`staged`) and keys live writes created (`fresh`), so a
//! live write never splits a full leaf.

use std::collections::BTreeMap;
use std::time::Instant;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use mantle_store::{KeyParts, RowKey};

use crate::{
    EngineValue, KeyBound, RangeFn, ScanFn, StorageEngine, UpdateFn, WaitCounters, WriteOp,
};

/// The fewest staged rows that are merged into `packed`.
const MERGE_AT: usize = 1_024;

/// Reader-writer-locked B-tree engine (the `MANTLE_ENGINE=btree` default).
pub struct BTreeEngine<V> {
    maps: RwLock<Maps<V>>,
    wait: WaitCounters,
}

/// `fresh`, `packed` and `staged`, in the order a probe tries them.
struct Maps<V>([BTreeMap<RowKey, V>; 3]);

const FRESH: usize = 0;

impl<V> Maps<V> {
    fn get(&self, key: &dyn KeyParts) -> Option<&V> {
        self.0.iter().find_map(|m| m.get(key))
    }

    fn get_mut(&mut self, key: &dyn KeyParts) -> Option<&mut V> {
        self.0.iter_mut().find_map(|m| m.get_mut(key))
    }

    fn remove(&mut self, key: &dyn KeyParts) -> Option<V> {
        self.0.iter_mut().find_map(|m| m.remove(key))
    }

    /// A live write: in place where the key is, else into `fresh` (whose
    /// `insert` also replaces a row already there).
    fn put(&mut self, key: RowKey, value: V) -> Option<V> {
        let [fresh, packed, staged] = &mut self.0;
        match packed.get_mut(&key).or_else(|| staged.get_mut(&key)) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => fresh.insert(key, value),
        }
    }

    /// A loaded row: in place where the key is, else into `staged`, which
    /// merges into `packed` when it has grown enough (std's `append`
    /// rebuilds the merged tree from both sorted runs with full nodes).
    fn load(&mut self, key: RowKey, value: V) {
        let [fresh, packed, staged] = &mut self.0;
        if let Some(slot) = fresh.get_mut(&key).or_else(|| packed.get_mut(&key)) {
            *slot = value;
            return;
        }
        staged.insert(key, value);
        if staged.len() >= MERGE_AT.max(packed.len() / 2) {
            packed.append(staged);
        }
    }

    fn write(&mut self, op: WriteOp<V>) {
        match op {
            WriteOp::Put(k, v) => _ = self.put(k, v),
            WriteOp::Delete(k) => _ = self.remove(&k),
        }
    }

    /// The rows of all three maps in the bounds, in key order.
    fn range<'a>(
        &'a self,
        lo: KeyBound<'_>,
        hi: KeyBound<'_>,
    ) -> impl Iterator<Item = (&'a RowKey, &'a V)> {
        let mut runs = (self.0.each_ref()).map(|m| m.range::<dyn KeyParts, _>((lo, hi)).peekable());
        std::iter::from_fn(move || {
            let (_, next) = (runs.iter_mut().enumerate())
                .filter_map(|(i, run)| run.peek().map(|&(k, _)| (k, i)))
                .min()?;
            runs[next].next()
        })
    }
}

impl<V> Default for BTreeEngine<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> BTreeEngine<V> {
    /// Creates an empty engine.
    pub fn new() -> Self {
        BTreeEngine {
            maps: RwLock::new(Maps(Default::default())),
            wait: WaitCounters::default(),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Maps<V>> {
        if let Some(g) = self.maps.try_read() {
            return g;
        }
        let start = Instant::now();
        let g = self.maps.read();
        self.wait.record(start.elapsed());
        g
    }

    fn write(&self) -> RwLockWriteGuard<'_, Maps<V>> {
        if let Some(g) = self.maps.try_write() {
            return g;
        }
        let start = Instant::now();
        let g = self.maps.write();
        self.wait.record(start.elapsed());
        g
    }
}

impl<V: EngineValue> StorageEngine<V> for BTreeEngine<V> {
    fn name(&self) -> &'static str {
        "btree"
    }

    fn get_with(&self, key: &dyn KeyParts, f: &mut dyn FnMut(&V)) {
        if let Some(v) = self.read().get(key) {
            f(v);
        }
    }

    fn scan(&self, lo: KeyBound<'_>, hi: KeyBound<'_>, f: &mut ScanFn<'_, V>) {
        let _ = self.read().range(lo, hi).try_for_each(|(k, v)| f(k, v));
    }

    fn put(&self, key: RowKey, value: V) -> Option<V> {
        self.write().put(key, value)
    }

    fn load_row(&self, key: RowKey, value: V) {
        self.write().load(key, value);
    }

    fn put_if_absent(&self, key: RowKey, value: V) -> bool {
        let mut maps = self.write();
        if maps.get(&key).is_some() {
            return false;
        }
        maps.0[FRESH].insert(key, value);
        true
    }

    fn delete(&self, key: &dyn KeyParts) -> bool {
        self.write().remove(key).is_some()
    }

    fn update(&self, key: &dyn KeyParts, f: &mut UpdateFn<'_, V>) -> bool {
        let mut maps = self.write();
        match maps.get_mut(key) {
            Some(slot) => {
                let (next, out) = f(Some(slot));
                match next {
                    Some(v) => *slot = v,
                    None => {
                        maps.remove(key);
                    }
                }
                out
            }
            None => {
                let (next, out) = f(None);
                if let Some(v) = next {
                    maps.0[FRESH].insert(key.to_key(), v);
                }
                out
            }
        }
    }

    fn apply(&self, batch: Vec<WriteOp<V>>) {
        let mut maps = self.write();
        for op in batch {
            maps.write(op);
        }
    }

    fn update_range(&self, lo: KeyBound<'_>, hi: KeyBound<'_>, f: &mut RangeFn<'_, V>) {
        let mut maps = self.write();
        let rows: Vec<(RowKey, V)> = (maps.range(lo, hi))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for op in f(&rows) {
            maps.write(op);
        }
    }

    fn delete_range(&self, lo: KeyBound<'_>, hi: KeyBound<'_>, f: &mut dyn FnMut(&RowKey)) {
        let mut maps = self.write();
        // A refcount: the sweep copies no name or row.
        loop {
            let Some(key) = maps.range(lo, hi).next().map(|(k, _)| k.clone()) else {
                break;
            };
            maps.remove(&key);
            f(&key);
        }
    }

    fn replace_all(&self, rows: Vec<(RowKey, V)>) {
        let mut maps = self.write();
        maps.0.iter_mut().for_each(BTreeMap::clear);
        let [_, packed, _] = &mut maps.0;
        *packed = rows.into_iter().collect();
    }

    fn len(&self) -> usize {
        self.read().0.iter().map(BTreeMap::len).sum()
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
    use std::ops::{Bound, ControlFlow};

    use super::*;
    use mantle_types::InodeId;

    fn key(i: u64) -> RowKey {
        RowKey::base(InodeId(1), &format!("n{i:05}"))
    }

    /// How many rows `packed`, `staged` and `fresh` hold.
    fn sizes(e: &BTreeEngine<u64>) -> [usize; 3] {
        let [fresh, packed, staged] = &e.read().0;
        [packed.len(), staged.len(), fresh.len()]
    }

    /// 4,000 loads merge three times, each at 1,024 staged rows (half of
    /// `packed` is no more until then), and leave 928 staged; live writes
    /// leave a loaded row where it is and put a new key in `fresh` only.
    #[test]
    fn loads_merge_and_live_writes_stay_beside_them() {
        let e = BTreeEngine::new();
        // Odd keys, in an order that is not sorted.
        for i in 0..4_000u64 {
            e.load_row(key((i * 7_919) % 4_000 * 2 + 1), i);
        }
        assert_eq!(sizes(&e), [3 * 1_024, 4_000 - 3 * 1_024, 0]);
        // Keys 1 and 7,839 were loaded first, so they are packed.
        e.put(key(1), 0);
        e.put(key(2), 0);
        assert!(!e.put_if_absent(key(3), 0) && e.put_if_absent(key(4), 0));
        assert!(e.delete(&key(7_839)));
        e.load_row(key(2), 1);
        assert_eq!(sizes(&e), [3 * 1_024 - 1, 4_000 - 3 * 1_024, 2]);
        let mut seen = Vec::new();
        e.scan(Bound::Unbounded, Bound::Unbounded, &mut |k, _| {
            seen.push(k.clone());
            ControlFlow::Continue(())
        });
        assert_eq!(seen.len(), 4_001);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "scans in key order");
        e.replace_all(e.export_rows());
        assert_eq!(sizes(&e), [4_001, 0, 0]);
    }
}
