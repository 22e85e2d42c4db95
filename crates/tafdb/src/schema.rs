//! The MetaTable schema (Figure 2 / Figure 8).

use mantle_store::{KeyParts, RowKey, RowKeyView};
use mantle_types::record::ATTR_ROW_NAME;
use mantle_types::{AttrDelta, DirAttrMeta, InodeId, ObjectMeta, Permission, TxnId};

/// One MetaTable row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Row {
    /// A directory *entry* under its parent: key `(pid, name, 0)`.
    /// Holds the access metadata (id + permission); Figure 6.
    DirAccess {
        /// The directory's own id.
        id: InodeId,
        /// The directory's permission mask.
        permission: Permission,
    },
    /// A directory's *attribute* row: key `(dir, "/_ATTR", 0)`.
    DirAttr(DirAttrMeta),
    /// A delta record: key `(dir, "/_ATTR", ts_txn)` (§5.2.1).
    Delta(AttrDelta),
    /// An object's metadata row: key `(pid, name, 0)`.
    Object(ObjectMeta),
}

impl Row {
    /// The attribute payload of a `DirAttr` row.
    pub fn as_dir_attr(&self) -> Option<&DirAttrMeta> {
        match self {
            Row::DirAttr(a) => Some(a),
            _ => None,
        }
    }

    /// The object payload of an `Object` row.
    pub fn as_object(&self) -> Option<&ObjectMeta> {
        match self {
            Row::Object(o) => Some(o),
            _ => None,
        }
    }
}

/// Key of the entry row of `name` under directory `pid`.
pub fn entry_key(pid: InodeId, name: &str) -> RowKey {
    entry_view(pid, name).to_key()
}

/// Key of the attribute row of directory `dir`.
pub fn attr_key(dir: InodeId) -> RowKey {
    attr_view(dir).to_key()
}

/// Key of a delta record of directory `dir` stamped by transaction `ts`.
pub fn delta_key(dir: InodeId, ts: TxnId) -> RowKey {
    delta_view(dir, ts).to_key()
}

/// [`entry_key`] borrowed: what a probe, an unlock or a placement takes.
/// The owned forms are for keys that get *stored* — an engine row, a
/// lock-table entry, a caller's [`crate::TxnOp`].
pub fn entry_view(pid: InodeId, name: &str) -> RowKeyView<'_> {
    RowKeyView::base(pid, name)
}

/// [`attr_key`] borrowed.
pub fn attr_view(dir: InodeId) -> RowKeyView<'static> {
    RowKeyView::base(dir, ATTR_ROW_NAME)
}

/// [`delta_key`] borrowed.
pub fn delta_view(dir: InodeId, ts: TxnId) -> RowKeyView<'static> {
    RowKeyView::delta(dir, ATTR_ROW_NAME, ts)
}

/// [`Row`]'s checkpoint-image codec (DESIGN.md §4.11): a tag byte plus
/// the variant payload, in a fixed layout so two engines holding the same
/// rows produce byte-identical images regardless of internal structure.
impl mantle_engine::EngineValue for Row {
    fn encode(&self, w: &mut mantle_types::snapshot::SnapshotWriter) {
        match self {
            Row::DirAccess { id, permission } => {
                w.u8(0);
                w.u64(id.0);
                w.u16(permission.0);
            }
            Row::DirAttr(a) => {
                w.u8(1);
                w.i64(a.nlink);
                w.i64(a.entries);
                w.u64(a.ctime);
                w.u64(a.mtime);
                w.u32(a.owner);
            }
            Row::Delta(d) => {
                w.u8(2);
                w.i64(d.nlink);
                w.i64(d.entries);
                w.u64(d.mtime);
            }
            Row::Object(o) => {
                w.u8(3);
                w.u64(o.pid.0);
                w.str(&o.name);
                w.u64(o.id.0);
                w.u64(o.size);
                w.u64(o.blob);
                w.u64(o.ctime);
                w.u16(o.permission.0);
            }
        }
    }

    fn decode(r: &mut mantle_types::snapshot::SnapshotReader<'_>) -> Self {
        match r.u8() {
            0 => Row::DirAccess {
                id: InodeId(r.u64()),
                permission: Permission(r.u16()),
            },
            1 => Row::DirAttr(DirAttrMeta {
                nlink: r.i64(),
                entries: r.i64(),
                ctime: r.u64(),
                mtime: r.u64(),
                owner: r.u32(),
            }),
            2 => Row::Delta(AttrDelta::new(r.i64(), r.i64(), r.u64())),
            3 => Row::Object(ObjectMeta {
                pid: InodeId(r.u64()),
                name: r.str(),
                id: InodeId(r.u64()),
                size: r.u64(),
                blob: r.u64(),
                ctime: r.u64(),
                permission: Permission(r.u16()),
            }),
            tag => unreachable!("unknown row tag {tag} in checkpoint image"),
        }
    }
}

/// Serializes one `(key, row)` pair into a shard checkpoint image.
pub fn write_row(w: &mut mantle_types::snapshot::SnapshotWriter, key: &RowKey, row: &Row) {
    use mantle_engine::EngineValue as _;
    mantle_engine::write_key(w, key);
    row.encode(w);
}

/// Reads one `(key, row)` pair written by [`write_row`].
pub fn read_row(r: &mut mantle_types::snapshot::SnapshotReader<'_>) -> (RowKey, Row) {
    use mantle_engine::EngineValue as _;
    let key = mantle_engine::read_key(r);
    let row = Row::decode(r);
    (key, row)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_attr_rows_before_entries() {
        // `/_ATTR` must sort before any user-visible name so scans can skip
        // it cheaply ('/' < '0' < 'A' in ASCII).
        let dir = InodeId(7);
        assert!(attr_key(dir) < entry_key(dir, "0"));
        assert!(attr_key(dir) < entry_key(dir, "a"));
        assert!(attr_key(dir) < delta_key(dir, TxnId(1)));
        assert!(delta_key(dir, TxnId(1)) < delta_key(dir, TxnId(2)));
    }

    #[test]
    fn row_codec_round_trips() {
        use mantle_types::snapshot::{SnapshotReader, SnapshotWriter};
        let rows = vec![
            (
                entry_key(InodeId(1), "a"),
                Row::DirAccess {
                    id: InodeId(2),
                    permission: Permission::ALL,
                },
            ),
            (attr_key(InodeId(2)), Row::DirAttr(DirAttrMeta::new(5, 1))),
            (
                delta_key(InodeId(2), TxnId(9)),
                Row::Delta(AttrDelta::dir_linked(7)),
            ),
            (
                entry_key(InodeId(1), "obj"),
                Row::Object(ObjectMeta::new(InodeId(1), "obj", InodeId(3), 10, 4, 2)),
            ),
        ];
        let mut w = SnapshotWriter::new();
        for (k, row) in &rows {
            write_row(&mut w, k, row);
        }
        let img = w.finish();
        let mut r = SnapshotReader::new(&img);
        for (k, row) in &rows {
            let (k2, row2) = read_row(&mut r);
            assert_eq!(&k2, k);
            assert_eq!(&row2, row);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn row_accessors() {
        let access = Row::DirAccess {
            id: InodeId(3),
            permission: Permission::ALL,
        };
        assert!(access.as_dir_attr().is_none());
        assert!(access.as_object().is_none());

        let attr = Row::DirAttr(DirAttrMeta::new(1, 0));
        assert!(attr.as_dir_attr().is_some());
    }
}
