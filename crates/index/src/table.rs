//! The IndexTable: `(pid, dirname) → (id, permission, lock bit)` (Figure 6).

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::RwLock;

use mantle_types::snapshot::{SnapshotReader, SnapshotWriter};
use mantle_types::{ClientUuid, InodeId, Name, Permission};

/// Access metadata of one directory, as stored on the IndexNode (32 bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// The directory's id.
    pub id: InodeId,
    /// The directory's permission mask.
    pub permission: Permission,
    /// Rename lock bit: the UUID of the request holding it (§5.2.2/§5.3).
    pub lock: Option<ClientUuid>,
    /// Monotonic namespace version of this entry (DESIGN.md §4.13): starts
    /// at 1 on insert and bumps on every committed rename/chmod of the
    /// directory. Stamped onto path-resolution replies so client path-lease
    /// caches can revalidate `(pid, version)` with a single RPC.
    pub version: u64,
}

/// What a key is compared and hashed by: `(pid, name)` and their hash
/// under the table's hasher, computed once per operation.
///
/// Stored keys own their name and probes borrow it; the maps are searched
/// through this trait (`Key: Borrow<dyn KeyParts>`), so a probe builds no
/// owned key.
trait KeyParts {
    fn parts(&self) -> (u64, InodeId, &str);
}

struct Key {
    hash: u64,
    pid: InodeId,
    name: Name,
}

struct Probe<'a> {
    hash: u64,
    pid: InodeId,
    name: &'a str,
}

impl KeyParts for Key {
    fn parts(&self) -> (u64, InodeId, &str) {
        (self.hash, self.pid, &self.name)
    }
}

impl KeyParts for Probe<'_> {
    fn parts(&self) -> (u64, InodeId, &str) {
        (self.hash, self.pid, self.name)
    }
}

impl<'a> Borrow<dyn KeyParts + 'a> for Key {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}

impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyParts + '_ {}

impl Hash for dyn KeyParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.parts().0);
    }
}

// `Borrow` requires a key and its borrowed form to agree.
impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hands the map the hash its key already carries.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("IndexTable keys hash as one u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type Stripe = RwLock<HashMap<Key, IndexEntry, BuildHasherDefault<Prehashed>>>;

/// A striped concurrent hash index over directory access metadata.
///
/// Lookups take a short shared lock on one stripe; Raft apply takes an
/// exclusive lock on one stripe. 64 stripes keep reader contention
/// negligible at lookup rates.
pub struct IndexTable {
    stripes: Vec<Stripe>,
    mask: usize,
    len: AtomicUsize,
    /// Randomly keyed: directory names come from clients.
    hasher: RandomState,
}

impl Default for IndexTable {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexTable {
    /// Creates an empty table with 64 stripes.
    pub fn new() -> Self {
        let n = 64;
        IndexTable {
            stripes: (0..n).map(|_| Stripe::default()).collect(),
            mask: n - 1,
            len: AtomicUsize::new(0),
            hasher: RandomState::new(),
        }
    }

    /// Hashes `(pid, name)` once; the hash picks the stripe and is the
    /// stripe map's hash as well.
    fn locate<'a>(&self, pid: InodeId, name: &'a str) -> (&Stripe, Probe<'a>) {
        let hash = self.hasher.hash_one((pid, name));
        // The map indexes by the low bits and tags by the top seven; the
        // stripe takes bits from between, so keys of one stripe still
        // spread over its map.
        let stripe = &self.stripes[(hash >> 32) as usize & self.mask];
        (stripe, Probe { hash, pid, name })
    }

    /// Reads the entry of `name` under `pid`.
    pub fn get(&self, pid: InodeId, name: &str) -> Option<IndexEntry> {
        let (stripe, probe) = self.locate(pid, name);
        stripe.read().get(&probe as &dyn KeyParts).cloned()
    }

    /// Inserts or replaces an entry.
    pub fn insert(&self, pid: InodeId, name: &str, entry: IndexEntry) {
        let (stripe, Probe { hash, .. }) = self.locate(pid, name);
        let key = Key {
            hash,
            pid,
            name: Name::new(name),
        };
        let prev = stripe.write().insert(key, entry);
        if prev.is_none() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Removes an entry, returning it.
    pub fn remove(&self, pid: InodeId, name: &str) -> Option<IndexEntry> {
        let (stripe, probe) = self.locate(pid, name);
        let removed = stripe.write().remove(&probe as &dyn KeyParts);
        if removed.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Updates an entry in place, returning what `f` returns; `None` when
    /// absent.
    fn update_with<R>(
        &self,
        pid: InodeId,
        name: &str,
        f: impl FnOnce(&mut IndexEntry) -> R,
    ) -> Option<R> {
        let (stripe, probe) = self.locate(pid, name);
        let mut map = stripe.write();
        map.get_mut(&probe as &dyn KeyParts).map(f)
    }

    /// Updates an entry in place; returns `false` when absent.
    pub fn update(&self, pid: InodeId, name: &str, f: impl FnOnce(&mut IndexEntry)) -> bool {
        self.update_with(pid, name, f).is_some()
    }

    /// Sets the rename lock bit if it is clear or already held by `uuid`
    /// (idempotent re-entry after proxy failover, §5.3). Returns whether the
    /// lock is now held by `uuid`.
    pub fn try_lock(&self, pid: InodeId, name: &str, uuid: ClientUuid) -> bool {
        self.update_with(pid, name, |e| *e.lock.get_or_insert(uuid) == uuid)
            .unwrap_or(false)
    }

    /// Clears the lock bit if held by `uuid`.
    pub fn unlock(&self, pid: InodeId, name: &str, uuid: ClientUuid) {
        self.update(pid, name, |e| {
            if e.lock == Some(uuid) {
                e.lock = None;
            }
        });
    }

    /// Whether the entry's lock bit is set (by anyone).
    pub fn is_locked(&self, pid: InodeId, name: &str) -> bool {
        self.get(pid, name).is_some_and(|e| e.lock.is_some())
    }

    /// Every entry, sorted by `(pid, name)` — the deterministic iteration
    /// order snapshot serialization requires (two replicas that applied the
    /// same log prefix must produce byte-identical images).
    fn sorted_entries(&self) -> Vec<(InodeId, Name, IndexEntry)> {
        let mut all: Vec<(InodeId, Name, IndexEntry)> = self
            .stripes
            .iter()
            .flat_map(|s| {
                s.read()
                    .iter()
                    .map(|(key, e)| (key.pid, key.name.clone(), e.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        all
    }

    /// Writes the table into a state machine's snapshot image.
    pub fn encode(&self, w: &mut SnapshotWriter) {
        let entries = self.sorted_entries();
        w.u64(entries.len() as u64);
        for (pid, name, e) in entries {
            w.u64(pid.0);
            w.str(&name);
            w.u64(e.id.0);
            w.u16(e.permission.0);
            w.u64(e.version);
            match e.lock {
                Some(uuid) => {
                    w.u8(1);
                    w.u64(uuid.0.get());
                }
                None => w.u8(0),
            }
        }
    }

    /// Reads the entries [`IndexTable::encode`] wrote; `None` — never a
    /// panic — when the image is too short for them or a lock byte is
    /// neither 0 nor a 1 followed by a nonzero holder.
    pub fn decode(r: &mut SnapshotReader<'_>) -> Option<Vec<(InodeId, Name, IndexEntry)>> {
        let mut entries = Vec::new();
        for _ in 0..r.checked(8, SnapshotReader::u64)? {
            let pid = InodeId(r.checked(8, SnapshotReader::u64)?);
            let name = Name::new(&r.checked_str()?);
            let (id, permission, version) = r.checked(18, |r| (r.u64(), r.u16(), r.u64()))?;
            let lock = match r.checked(1, SnapshotReader::u8)? {
                0 => None,
                1 => Some(
                    r.checked(8, SnapshotReader::u64)
                        .and_then(NonZeroU64::new)?,
                ),
                _ => return None,
            };
            let entry = IndexEntry {
                id: InodeId(id),
                permission: Permission(permission),
                version,
                lock: lock.map(ClientUuid),
            };
            entries.push((pid, name, entry));
        }
        Some(entries)
    }

    /// Replaces the table's contents with `entries`.
    pub fn replace(&self, entries: Vec<(InodeId, Name, IndexEntry)>) {
        self.clear();
        for (pid, name, entry) in entries {
            self.insert(pid, &name, entry);
        }
    }

    /// Removes every entry.
    fn clear(&self) {
        let mut removed = 0;
        for s in &self.stripes {
            let mut m = s.write();
            removed += m.len();
            m.clear();
        }
        self.len.fetch_sub(removed, Ordering::Relaxed);
    }

    /// Number of entries (≈ directories in the namespace).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_types::ROOT_ID;

    fn entry(id: u64) -> IndexEntry {
        IndexEntry {
            id: InodeId(id),
            permission: Permission::ALL,
            lock: None,
            version: 1,
        }
    }

    #[test]
    fn insert_get_remove() {
        let t = IndexTable::new();
        t.insert(ROOT_ID, "a", entry(5));
        assert_eq!(t.get(ROOT_ID, "a").unwrap().id, InodeId(5));
        assert!(t.get(ROOT_ID, "b").is_none());
        assert_eq!(t.len(), 1);
        // Replacing does not change len.
        t.insert(ROOT_ID, "a", entry(6));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(ROOT_ID, "a").unwrap().id, InodeId(6));
        assert!(t.is_empty());
    }

    #[test]
    fn probes_find_what_was_inserted_across_map_growth() {
        // Growing a stripe's map re-places every key by the hash the key
        // carries; a probe must compute the same one.
        let t = IndexTable::new();
        let names: Vec<String> = (0..10_000).map(|i| format!("d{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            t.insert(InodeId(i as u64 % 7), name, entry(i as u64));
        }
        assert_eq!(t.len(), names.len());
        for (i, name) in names.iter().enumerate() {
            let pid = InodeId(i as u64 % 7);
            assert_eq!(t.get(pid, name).unwrap().id, InodeId(i as u64));
            // Same name under another parent, and a name it is a prefix of.
            assert!(t.get(InodeId(7), name).is_none());
            assert!(t.get(pid, &format!("{name}x")).is_none());
        }
        for (i, name) in names.iter().enumerate().step_by(2) {
            assert!(t.remove(InodeId(i as u64 % 7), name).is_some());
        }
        assert_eq!(t.len(), names.len() / 2);
        assert!(t.get(InodeId(0), "d0").is_none());
        assert!(t.update(InodeId(1), "d1", |e| e.version = 9));
        assert_eq!(t.get(InodeId(1), "d1").unwrap().version, 9);
    }

    #[test]
    fn lock_bit_semantics() {
        let t = IndexTable::new();
        t.insert(ROOT_ID, "d", entry(5));
        let u1 = ClientUuid::generate();
        let u2 = ClientUuid::generate();
        assert!(t.try_lock(ROOT_ID, "d", u1));
        // Re-entry by the same uuid succeeds (proxy failover retry).
        assert!(t.try_lock(ROOT_ID, "d", u1));
        // Another request is refused.
        assert!(!t.try_lock(ROOT_ID, "d", u2));
        assert!(t.is_locked(ROOT_ID, "d"));
        // Only the holder's unlock clears it.
        t.unlock(ROOT_ID, "d", u2);
        assert!(t.is_locked(ROOT_ID, "d"));
        t.unlock(ROOT_ID, "d", u1);
        assert!(!t.is_locked(ROOT_ID, "d"));
        assert!(t.try_lock(ROOT_ID, "d", u2));
    }

    #[test]
    fn lock_on_missing_entry_fails() {
        let t = IndexTable::new();
        assert!(!t.try_lock(ROOT_ID, "ghost", ClientUuid::generate()));
    }

    #[test]
    fn concurrent_inserts_count_correctly() {
        let t = std::sync::Arc::new(IndexTable::new());
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let t = t.clone();
                s.spawn(move || {
                    for j in 0..100u64 {
                        t.insert(InodeId(i), &format!("n{j}"), entry(i * 1000 + j));
                    }
                });
            }
        });
        assert_eq!(t.len(), 800);
    }
}
