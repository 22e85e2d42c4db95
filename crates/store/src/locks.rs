//! Transaction row locks with no-wait conflict handling.
//!
//! The DBtable-based service's collapse under contention (§3.2) comes from
//! distributed transactions aborting and retrying when they collide on the
//! parent directory's attribute row. This lock manager reproduces that
//! behaviour: acquisitions are *no-wait* — a conflict fails immediately with
//! the owning transaction id, and the caller aborts, releases, backs off
//! and retries. Shared (read) locks are compatible with each other;
//! exclusive locks conflict with everything.

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::key::{KeyParts, RowKey};
use mantle_types::TxnId;

/// Lock mode for a row.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Shared: compatible with other shared holders.
    Shared,
    /// Exclusive: conflicts with every other holder.
    Exclusive,
}

#[derive(Debug)]
enum Entry {
    Shared(Vec<TxnId>),
    Exclusive(TxnId),
}

/// A striped table of row locks.
pub struct LockManager {
    stripes: Vec<Mutex<HashMap<RowKey, Entry>>>,
    mask: usize,
}

impl LockManager {
    /// Creates a manager with `stripes` internal partitions (rounded up to a
    /// power of two).
    pub fn new(stripes: usize) -> Self {
        let n = stripes.next_power_of_two().max(1);
        LockManager {
            stripes: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: n - 1,
        }
    }

    fn stripe(&self, key: &dyn KeyParts) -> &Mutex<HashMap<RowKey, Entry>> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.stripes[(h.finish() as usize) & self.mask]
    }

    /// Attempts to lock `key` for `txn` in `mode`. The table is probed by
    /// the key's parts; an owned key is made only for a new entry.
    ///
    /// Re-entrant: a transaction already holding the row in a compatible or
    /// stronger mode succeeds (shared→exclusive upgrade succeeds only when
    /// the transaction is the sole shared holder).
    ///
    /// # Errors
    ///
    /// Returns the conflicting owner on failure; the caller is expected to
    /// abort and retry (no-wait).
    pub fn try_lock(&self, key: &dyn KeyParts, txn: TxnId, mode: LockMode) -> Result<(), TxnId> {
        let mut map = self.stripe(key).lock();
        match map.get_mut(key) {
            None => {
                let entry = match mode {
                    LockMode::Shared => Entry::Shared(vec![txn]),
                    LockMode::Exclusive => Entry::Exclusive(txn),
                };
                map.insert(key.to_key(), entry);
                Ok(())
            }
            Some(Entry::Exclusive(owner)) => {
                if *owner == txn {
                    Ok(())
                } else {
                    Err(*owner)
                }
            }
            Some(Entry::Shared(holders)) => match mode {
                LockMode::Shared => {
                    if !holders.contains(&txn) {
                        holders.push(txn);
                    }
                    Ok(())
                }
                LockMode::Exclusive => {
                    if holders.len() == 1 && holders[0] == txn {
                        *map.get_mut(key).expect("entry exists") = Entry::Exclusive(txn);
                        Ok(())
                    } else {
                        Err(*holders.iter().find(|h| **h != txn).expect("conflict"))
                    }
                }
            },
        }
    }

    /// Releases `txn`'s hold on `key` (all modes). Unknown keys are ignored
    /// (release is idempotent, simplifying abort paths).
    pub fn unlock(&self, key: &dyn KeyParts, txn: TxnId) {
        let mut map = self.stripe(key).lock();
        match map.get_mut(key) {
            Some(Entry::Exclusive(owner)) if *owner == txn => {
                map.remove(key);
            }
            Some(Entry::Shared(holders)) => {
                holders.retain(|h| *h != txn);
                if holders.is_empty() {
                    map.remove(key);
                }
            }
            _ => {}
        }
    }

    /// Whether any transaction holds `key` (test/diagnostic helper).
    pub fn is_locked(&self, key: &dyn KeyParts) -> bool {
        self.stripe(key).lock().contains_key(key)
    }

    /// Whether any currently held lock's key satisfies `pred`. Scans every
    /// stripe (one at a time, so concurrent acquisitions are not blocked
    /// globally); shard migration uses this to wait for in-flight
    /// transactions on the moving range to drain before copying rows.
    pub fn any_held(&self, pred: impl Fn(&RowKey) -> bool) -> bool {
        self.stripes.iter().any(|s| s.lock().keys().any(&pred))
    }
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_types::InodeId;
    use std::sync::Arc;

    fn key(pid: u64, name: &str) -> RowKey {
        RowKey::base(InodeId(pid), name)
    }

    #[test]
    fn exclusive_conflicts_reported_no_wait() {
        let lm = LockManager::new(4);
        assert!(lm
            .try_lock(&key(1, "a"), TxnId(1), LockMode::Exclusive)
            .is_ok());
        assert_eq!(
            lm.try_lock(&key(1, "a"), TxnId(2), LockMode::Exclusive),
            Err(TxnId(1))
        );
        lm.unlock(&key(1, "a"), TxnId(1));
        assert!(lm
            .try_lock(&key(1, "a"), TxnId(2), LockMode::Exclusive)
            .is_ok());
    }

    #[test]
    fn shared_locks_are_compatible() {
        let lm = LockManager::new(4);
        assert!(lm
            .try_lock(&key(1, "a"), TxnId(1), LockMode::Shared)
            .is_ok());
        assert!(lm
            .try_lock(&key(1, "a"), TxnId(2), LockMode::Shared)
            .is_ok());
        assert_eq!(
            lm.try_lock(&key(1, "a"), TxnId(3), LockMode::Exclusive),
            Err(TxnId(1))
        );
        lm.unlock(&key(1, "a"), TxnId(1));
        lm.unlock(&key(1, "a"), TxnId(2));
        assert!(!lm.is_locked(&key(1, "a")));
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lm = LockManager::new(4);
        assert!(lm
            .try_lock(&key(1, "a"), TxnId(1), LockMode::Exclusive)
            .is_ok());
        assert!(lm
            .try_lock(&key(1, "a"), TxnId(1), LockMode::Exclusive)
            .is_ok());
        assert!(lm
            .try_lock(&key(1, "a"), TxnId(1), LockMode::Shared)
            .is_ok());
        // Sole shared holder upgrades.
        assert!(lm
            .try_lock(&key(2, "b"), TxnId(5), LockMode::Shared)
            .is_ok());
        assert!(lm
            .try_lock(&key(2, "b"), TxnId(5), LockMode::Exclusive)
            .is_ok());
        assert_eq!(
            lm.try_lock(&key(2, "b"), TxnId(6), LockMode::Shared),
            Err(TxnId(5))
        );
        // Upgrade with another shared holder fails.
        assert!(lm
            .try_lock(&key(3, "c"), TxnId(7), LockMode::Shared)
            .is_ok());
        assert!(lm
            .try_lock(&key(3, "c"), TxnId(8), LockMode::Shared)
            .is_ok());
        assert!(lm
            .try_lock(&key(3, "c"), TxnId(7), LockMode::Exclusive)
            .is_err());
    }

    #[test]
    fn any_held_sees_live_locks_only() {
        let lm = LockManager::new(4);
        assert!(!lm.any_held(|_| true));
        lm.try_lock(&key(9, "x"), TxnId(1), LockMode::Shared)
            .unwrap();
        assert!(lm.any_held(|k| k.pid == InodeId(9)));
        assert!(!lm.any_held(|k| k.pid == InodeId(8)));
        lm.unlock(&key(9, "x"), TxnId(1));
        assert!(!lm.any_held(|_| true));
    }

    #[test]
    fn concurrent_contention_exactly_one_winner() {
        let lm = Arc::new(LockManager::new(16));
        let winners = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let (lm, winners) = (lm.clone(), winners.clone());
                std::thread::spawn(move || {
                    if lm
                        .try_lock(&key(7, "hot"), TxnId(i as u64 + 1), LockMode::Exclusive)
                        .is_ok()
                    {
                        winners.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(winners.load(std::sync::atomic::Ordering::SeqCst), 1);
    }
}
