//! The default engine: a reader-writer lock around a B-tree.
//!
//! This is the historical TafDB shard structure: a write moves its row in,
//! a read lends each row to its closure under the shared lock, and a range
//! scan holds that lock for the whole scan — which is precisely why
//! writers stall behind `readdir` of a large directory (the contention the
//! MVCC engine removes). The only addition is lock-wait accounting on the
//! slow path.

use std::collections::BTreeMap;
use std::time::Instant;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use mantle_store::{KeyParts, RowKey};

use crate::{
    EngineValue, KeyBound, RangeFn, ScanFn, StorageEngine, UpdateFn, WaitCounters, WriteOp,
};

/// Reader-writer-locked B-tree engine (the `MANTLE_ENGINE=btree` default).
pub struct BTreeEngine<V> {
    map: RwLock<BTreeMap<RowKey, V>>,
    wait: WaitCounters,
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
            map: RwLock::new(BTreeMap::new()),
            wait: WaitCounters::default(),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<RowKey, V>> {
        if let Some(g) = self.map.try_read() {
            return g;
        }
        let start = Instant::now();
        let g = self.map.read();
        self.wait.record(start.elapsed());
        g
    }

    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<RowKey, V>> {
        if let Some(g) = self.map.try_write() {
            return g;
        }
        let start = Instant::now();
        let g = self.map.write();
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
        let _ = self
            .read()
            .range::<dyn KeyParts, _>((lo, hi))
            .try_for_each(|(k, v)| f(k, v));
    }

    fn put(&self, key: RowKey, value: V) -> Option<V> {
        self.write().insert(key, value)
    }

    fn put_if_absent(&self, key: RowKey, value: V) -> bool {
        let mut map = self.write();
        if map.contains_key(&key) {
            return false;
        }
        map.insert(key, value);
        true
    }

    fn delete(&self, key: &dyn KeyParts) -> bool {
        self.write().remove(key).is_some()
    }

    fn update(&self, key: &dyn KeyParts, f: &mut UpdateFn<'_, V>) -> bool {
        let mut map = self.write();
        match map.get_mut(key) {
            Some(slot) => {
                let (next, out) = f(Some(slot));
                match next {
                    Some(v) => *slot = v,
                    None => {
                        map.remove(key);
                    }
                }
                out
            }
            None => {
                let (next, out) = f(None);
                if let Some(v) = next {
                    map.insert(key.to_key(), v);
                }
                out
            }
        }
    }

    fn apply(&self, batch: Vec<WriteOp<V>>) {
        let mut map = self.write();
        for op in batch {
            match op {
                WriteOp::Put(k, v) => {
                    map.insert(k, v);
                }
                WriteOp::Delete(k) => {
                    map.remove(&k);
                }
            }
        }
    }

    fn update_range(&self, lo: KeyBound<'_>, hi: KeyBound<'_>, f: &mut RangeFn<'_, V>) {
        let mut map = self.write();
        let rows: Vec<(RowKey, V)> = map
            .range::<dyn KeyParts, _>((lo, hi))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for op in f(&rows) {
            match op {
                WriteOp::Put(k, v) => {
                    map.insert(k, v);
                }
                WriteOp::Delete(k) => {
                    map.remove(&k);
                }
            }
        }
    }

    fn delete_range(&self, lo: KeyBound<'_>, hi: KeyBound<'_>, f: &mut dyn FnMut(&RowKey)) {
        let mut map = self.write();
        while let Some((key, _)) = map.range::<dyn KeyParts, _>((lo, hi)).next() {
            let key = key.clone(); // a refcount: the sweep copies no name or row
            map.remove(&key);
            f(&key);
        }
    }

    fn replace_all(&self, rows: Vec<(RowKey, V)>) {
        let mut map = self.write();
        map.clear();
        map.extend(rows);
    }

    fn len(&self) -> usize {
        self.read().len()
    }

    fn lock_wait_nanos(&self) -> u64 {
        self.wait.nanos()
    }

    fn lock_waits(&self) -> u64 {
        self.wait.count()
    }
}
