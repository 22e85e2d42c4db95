//! The row recipes: which [`TxnOp`]s, in which order, make each namespace
//! mutation (Figure 6 — an entry row under the parent, an `/_ATTR` row, a
//! ±1 on the parent's attributes). Every front-end builds its writes here
//! and differs only in the executor it hands them to (DESIGN.md §4.3):
//! [`TafDb::execute`](crate::TafDb::execute) runs them as one transaction,
//! [`TafDb::execute_relaxed`](crate::TafDb::execute_relaxed) as independent
//! single-row writes, [`TafDb::bulk_apply`](crate::TafDb::bulk_apply) as a
//! free load. The order inside a recipe is the transaction's lock order.

use mantle_store::RowKey;
use mantle_types::{AttrDelta, DirAttrMeta, InodeId, Name, ObjectMeta, Permission, TxnId};

use crate::schema::{attr_key, entry_key, Row};
use crate::txn::TxnOp;

/// A namespace root: its attribute row (it has no entry row).
pub fn root(root: InodeId) -> [TxnOp; 1] {
    [TxnOp::Put {
        key: attr_key(root),
        row: Row::DirAttr(DirAttrMeta::new(0, 0)),
    }]
}

/// `mkdir`: the entry under `pid`, the new directory's attribute row, and
/// the parent's link and entry counts. Directory recipes take names owned,
/// for their keys to share with Mantle's IndexNode commands.
pub fn mkdir(pid: InodeId, name: Name, id: InodeId, now: u64) -> [TxnOp; 3] {
    [
        TxnOp::InsertUnique {
            key: shared_entry_key(pid, name),
            row: Row::DirAccess {
                id,
                permission: Permission::ALL,
            },
        },
        TxnOp::Put {
            key: attr_key(id),
            row: Row::DirAttr(DirAttrMeta::new(now, 0)),
        },
        TxnOp::AttrUpdate {
            dir: pid,
            delta: AttrDelta::dir_linked(now),
        },
    ]
}

/// `rmdir` of directory `dir`, entry `name` under `pid`. The attribute row
/// goes first: its exclusive lock excludes creations while `ExpectEmptyDir`
/// looks. (A relaxed front-end checks emptiness itself and leaves that op
/// out — it has no single-row form.)
pub fn rmdir(pid: InodeId, name: Name, dir: InodeId, now: u64) -> [TxnOp; 4] {
    [
        TxnOp::Delete { key: attr_key(dir) },
        TxnOp::ExpectEmptyDir { dir },
        TxnOp::Delete {
            key: shared_entry_key(pid, name),
        },
        TxnOp::AttrUpdate {
            dir: pid,
            delta: AttrDelta::dir_unlinked(now),
        },
    ]
}

/// Object `create`: the object row and the parent's entry count. The row's
/// `name` is empty: an object's name lives in its key only (DESIGN.md §4.3).
pub fn create(pid: InodeId, name: &str, id: InodeId, size: u64, blob: u64, now: u64) -> [TxnOp; 2] {
    [
        TxnOp::InsertUnique {
            key: entry_key(pid, name),
            row: Row::Object(ObjectMeta::new(pid, "", id, size, blob, now)),
        },
        TxnOp::AttrUpdate {
            dir: pid,
            delta: AttrDelta::entry_added(now),
        },
    ]
}

/// Object `delete`.
pub fn delete(pid: InodeId, name: &str, now: u64) -> [TxnOp; 2] {
    [
        TxnOp::Delete {
            key: entry_key(pid, name),
        },
        TxnOp::AttrUpdate {
            dir: pid,
            delta: AttrDelta::entry_removed(now),
        },
    ]
}

/// Directory rename: the entry of directory `id` moves from `src` to `dst`
/// (each a `(parent, name)`) with its permission, in the first `n` of `(ops,
/// n)`. Within one parent the counts stand and only its mtime moves.
pub fn rename(
    src: (InodeId, Name),
    dst: (InodeId, Name),
    id: InodeId,
    permission: Permission,
    now: u64,
) -> ([TxnOp; 4], usize) {
    let bump = |dir, delta| TxnOp::AttrUpdate { dir, delta };
    let within = src.0 == dst.0;
    let ops = [
        TxnOp::Delete {
            key: shared_entry_key(src.0, src.1),
        },
        TxnOp::InsertUnique {
            key: shared_entry_key(dst.0, dst.1),
            row: Row::DirAccess { id, permission },
        },
        match within {
            true => bump(src.0, AttrDelta::touch(now)),
            false => bump(src.0, AttrDelta::dir_unlinked(now)),
        },
        bump(dst.0, AttrDelta::dir_linked(now)),
    ];
    (ops, if within { 3 } else { 4 })
}

/// An entry key that keeps its owned name (shared, when long).
fn shared_entry_key(pid: InodeId, name: Name) -> RowKey {
    RowKey {
        pid,
        name,
        ts: TxnId::BASE,
    }
}

/// `setattr`: rewrite the permission of directory entry `name` under `pid`.
pub fn setattr(pid: InodeId, name: &str, permission: Permission) -> [TxnOp; 1] {
    [TxnOp::SetPermission {
        key: entry_key(pid, name),
        permission,
    }]
}
