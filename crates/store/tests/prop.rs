//! Property tests: the LockManager compatibility matrix, and a borrowed
//! key view ordering, comparing and hashing exactly like its owned key.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use mantle_store::{KeyParts, LockManager, LockMode, RowKey, RowKeyView};
use mantle_types::{InodeId, TxnId};
use proptest::prelude::*;

/// Parts of a key from the corners of the order: the empty name, names
/// that sort before `/_ATTR`, a prefix pair, a multi-byte name, names of
/// exactly the inline capacity (22 bytes) and past it, one a prefix of the
/// other; the base timestamp, the first delta and the last.
fn arb_parts() -> impl Strategy<Value = (u64, &'static str, u64)> {
    (
        prop::sample::select(vec![0, 1, 2, u64::MAX]),
        prop::sample::select(vec![
            "",
            "-x",
            "/_ATTR",
            "a",
            "ab",
            "é",
            "abcdefghijklmnopqrstuv",
            "abcdefghijklmnopqrstuvw",
            "abcdefghijklmnopqrstu-",
            "abcdefghijklmnopqrstuv-part-00000.parquet",
        ]),
        prop::sample::select(vec![0, 1, u64::MAX]),
    )
}

fn hash_of(key: &(impl Hash + ?Sized)) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lock manager's compatibility matrix: shared/shared compatible,
    /// anything with exclusive incompatible — across arbitrary interleaved
    /// acquisitions and releases.
    #[test]
    fn lock_manager_compatibility(
        steps in prop::collection::vec(
            ((0u64..3), (1u64..5), any::<bool>(), any::<bool>()), 1..60
        )
    ) {
        let lm = LockManager::new(8);
        // (key, txn) -> mode currently held.
        let mut held: BTreeMap<(u64, u64), LockMode> = BTreeMap::new();
        for (key_id, txn, exclusive, release) in steps {
            let key = RowKey::base(InodeId(key_id), "row");
            let txn_id = TxnId(txn);
            if release {
                lm.unlock(&key, txn_id);
                held.remove(&(key_id, txn));
                continue;
            }
            let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
            let result = lm.try_lock(&key, txn_id, mode);
            // Expected: grant iff no *other* txn holds an incompatible mode
            // (and for upgrades, we are the sole holder).
            let others: Vec<LockMode> = held
                .iter()
                .filter(|((k, t), _)| *k == key_id && *t != txn)
                .map(|(_, m)| *m)
                .collect();
            let own = held.get(&(key_id, txn)).copied();
            let expect_grant = match mode {
                LockMode::Shared => {
                    own == Some(LockMode::Exclusive)
                        || !others.contains(&LockMode::Exclusive)
                }
                LockMode::Exclusive => others.is_empty(),
            };
            prop_assert_eq!(result.is_ok(), expect_grant, "key {} txn {} mode {:?} others {:?} own {:?}", key_id, txn, mode, others, own);
            if result.is_ok() {
                // Shared after exclusive keeps the stronger mode.
                let stored = match (own, mode) {
                    (Some(LockMode::Exclusive), LockMode::Shared) => LockMode::Exclusive,
                    _ => mode,
                };
                held.insert((key_id, txn), stored);
            }
        }
    }

    /// The `Borrow` contract of the maps probed through `KeyParts`: two
    /// views order, compare and hash as their two owned keys do, and a key
    /// equals its own view. (Swap `pid` and `name` in `RowKeyView`'s field
    /// order and the first assertion fails.)
    #[test]
    fn a_view_orders_compares_and_hashes_like_its_key(a in arb_parts(), b in arb_parts()) {
        let view = |(pid, name, ts)| RowKeyView::delta(InodeId(pid), name, TxnId(ts));
        let (va, vb) = (view(a), view(b));
        let (ka, kb) = (va.to_key(), vb.to_key());
        let (da, db): (&dyn KeyParts, &dyn KeyParts) = (&va, &vb);
        prop_assert_eq!(da.cmp(db), ka.cmp(&kb));
        prop_assert_eq!(da == db, ka == kb);
        prop_assert_eq!(hash_of(da), hash_of(&ka));
        // Stored key against probing view, the pairing a lookup makes.
        let stored: &dyn KeyParts = &ka;
        prop_assert_eq!(stored.cmp(db), ka.cmp(&kb));
        prop_assert_eq!(stored.cmp(da), std::cmp::Ordering::Equal);
        prop_assert_eq!(ka.view(), va);
    }
}
