//! The composite row key shared by the lock manager and the storage engines.

use std::sync::Arc;

use mantle_types::{InodeId, TxnId};

/// Composite primary key of a metadata row: `(pid, name, ts)`.
///
/// `ts` is [`TxnId::BASE`] (zero) for ordinary rows; delta records carry
/// their transaction timestamp (§5.2.1, Figure 8). Ordering is
/// lexicographic over the tuple, so all rows of one directory are adjacent
/// (directory locality, §2.3) and all delta records of one attribute row
/// are adjacent after it.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RowKey {
    /// Parent directory id.
    pub pid: InodeId,
    /// Entry name (or the reserved `/_ATTR` for attribute/delta rows).
    pub name: Arc<str>,
    /// Transaction timestamp; zero for base rows.
    pub ts: TxnId,
}

impl RowKey {
    /// A base (non-delta) row key.
    pub fn base(pid: InodeId, name: &str) -> Self {
        RowKey {
            pid,
            name: Arc::from(name),
            ts: TxnId::BASE,
        }
    }

    /// A delta-record key.
    pub fn delta(pid: InodeId, name: &str, ts: TxnId) -> Self {
        RowKey {
            pid,
            name: Arc::from(name),
            ts,
        }
    }
}
