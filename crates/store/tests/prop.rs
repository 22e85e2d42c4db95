//! Property test: the LockManager compatibility matrix.

use std::collections::BTreeMap;

use mantle_store::{LockManager, LockMode, RowKey};
use mantle_types::{InodeId, TxnId};
use proptest::prelude::*;

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
}
