//! Transaction operations and prepared state for two-phase commit.

use mantle_store::RowKey;
use mantle_types::{AttrDelta, InodeId, Permission, TxnId};

use crate::plan::{Extras, Steps};
use crate::schema::Row;

/// A logical operation inside a TafDB transaction.
///
/// Operations are validated (and their row locks acquired, no-wait) during
/// the prepare phase, in the order given; writes apply atomically at commit.
#[derive(Clone, Debug)]
pub enum TxnOp {
    /// Insert a row that must not already exist (entry/object creation).
    InsertUnique {
        /// Row key.
        key: RowKey,
        /// Row payload.
        row: Row,
    },
    /// Unconditional insert/replace.
    Put {
        /// Row key.
        key: RowKey,
        /// Row payload.
        row: Row,
    },
    /// Delete a row that must exist. Deleting a directory's attribute row
    /// also retires any remaining delta records of that directory.
    Delete {
        /// Row key.
        key: RowKey,
    },
    /// Assert a row exists (takes a shared lock so it cannot vanish before
    /// commit).
    ExpectExists {
        /// Row key.
        key: RowKey,
    },
    /// Assert directory `dir` has no live children (rmdir precondition);
    /// must be ordered *after* an exclusive-locking op on the directory's
    /// attribute row so concurrent creations are excluded.
    ExpectEmptyDir {
        /// Directory id.
        dir: InodeId,
    },
    /// Apply an attribute change to directory `dir`'s attribute row.
    ///
    /// Contention-adaptive (§5.2.1): on a cold directory this takes an
    /// exclusive lock and merges in place; on a hot directory it takes a
    /// *shared* lock and appends a conflict-free delta record instead.
    AttrUpdate {
        /// Directory whose attributes change.
        dir: InodeId,
        /// Signed attribute delta.
        delta: AttrDelta,
    },
    /// Rewrite the permission of the directory entry at `key`, whatever id
    /// it holds, under the row's exclusive lock (`setattr`). Fails with
    /// `NotFound` when the row is absent and `NotADirectory` when it is an
    /// object's.
    SetPermission {
        /// Entry row key.
        key: RowKey,
        /// The new permission mask.
        permission: Permission,
    },
}

/// A successfully prepared transaction, ready to commit or abort: the ops,
/// their routed steps, and the few locks the steps cannot name again.
///
/// Dropping a `Prepared` without committing leaks its row locks; always
/// pass it back to [`crate::TafDb::commit`] or [`crate::TafDb::abort`].
#[derive(Debug)]
pub struct Prepared {
    pub(crate) txn: TxnId,
    /// A copy of the caller's ops: this staged form outlives the call that
    /// prepared it. [`crate::TafDb::execute`] borrows the ops instead.
    pub(crate) ops: Vec<TxnOp>,
    pub(crate) steps: Steps,
    pub(crate) extras: Extras,
}

impl Prepared {
    /// The transaction's timestamp.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// Number of shards participating (2PC fan-out).
    pub fn n_shards(&self) -> usize {
        self.steps.groups().count()
    }
}
