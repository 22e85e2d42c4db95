//! The MetaTable schema (Figure 2 / Figure 8).

use mantle_engine::EngineValue;
use mantle_store::{KeyParts, RowKey, RowKeyView};
use mantle_types::record::ATTR_ROW_NAME;
use mantle_types::snapshot::{SnapshotReader, SnapshotWriter};
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

/// How a shard stores a [`Row`] (DESIGN.md §4.12): only what the row's key
/// does not already say, in 40 bytes. An object keeps neither its `pid` nor
/// its name — both are its key's (DESIGN.md §4.3) — and the attribute
/// fields sit flat beside the tag: a nested `DirAttrMeta`, 40 bytes with its
/// tail padding, would make every stored row 48. A row converts where it
/// enters an engine ([`StoredRow::from`]) and readers project it back from
/// its key ([`StoredRow::row`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoredRow {
    /// [`Row::DirAccess`].
    DirAccess { id: InodeId, permission: Permission },
    /// [`Row::DirAttr`], flat.
    DirAttr {
        nlink: i64,
        entries: i64,
        ctime: u64,
        mtime: u64,
        owner: u32,
    },
    /// [`Row::Delta`].
    Delta(AttrDelta),
    /// [`Row::Object`] without its key's `pid` and name.
    Object {
        id: InodeId,
        size: u64,
        blob: u64,
        ctime: u64,
        permission: Permission,
    },
}

impl From<&Row> for StoredRow {
    fn from(row: &Row) -> Self {
        match *row {
            Row::DirAccess { id, permission } => StoredRow::DirAccess { id, permission },
            Row::DirAttr(ref a) => StoredRow::DirAttr {
                nlink: a.nlink,
                entries: a.entries,
                ctime: a.ctime,
                mtime: a.mtime,
                owner: a.owner,
            },
            Row::Delta(d) => StoredRow::Delta(d),
            Row::Object(ref o) => StoredRow::Object {
                id: o.id,
                size: o.size,
                blob: o.blob,
                ctime: o.ctime,
                permission: o.permission,
            },
        }
    }
}

impl StoredRow {
    /// The row stored under a key of parent `pid`, without allocating: an
    /// object's `pid` is the key's and its name is empty.
    pub fn row(self, pid: InodeId) -> Row {
        match self {
            StoredRow::DirAccess { id, permission } => Row::DirAccess { id, permission },
            StoredRow::DirAttr {
                nlink,
                entries,
                ctime,
                mtime,
                owner,
            } => Row::DirAttr(DirAttrMeta {
                nlink,
                entries,
                ctime,
                mtime,
                owner,
            }),
            StoredRow::Delta(d) => Row::Delta(d),
            StoredRow::Object {
                id,
                size,
                blob,
                ctime,
                permission,
            } => Row::Object(ObjectMeta {
                pid,
                name: String::new(),
                id,
                size,
                blob,
                ctime,
                permission,
            }),
        }
    }
}

/// What follows each [`StoredRow`] tag in a checkpoint image, in bytes.
const PAYLOAD_BYTES: [usize; 4] = [10, 36, 24, 34];

/// The checkpoint-image codec of a shard (DESIGN.md §4.11): a tag byte plus
/// the variant's fields, in a fixed layout so two engines holding the same
/// rows produce byte-identical images regardless of internal structure.
impl EngineValue for StoredRow {
    fn encode(&self, w: &mut SnapshotWriter) {
        match self.row(InodeId(0)) {
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
                w.u64(o.id.0);
                w.u64(o.size);
                w.u64(o.blob);
                w.u64(o.ctime);
                w.u16(o.permission.0);
            }
        }
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Option<Self> {
        let tag = r.checked(1, SnapshotReader::u8)?;
        let width = *PAYLOAD_BYTES.get(usize::from(tag))?;
        r.checked(width, |r| match tag {
            0 => StoredRow::DirAccess {
                id: InodeId(r.u64()),
                permission: Permission(r.u16()),
            },
            1 => StoredRow::DirAttr {
                nlink: r.i64(),
                entries: r.i64(),
                ctime: r.u64(),
                mtime: r.u64(),
                owner: r.u32(),
            },
            2 => StoredRow::Delta(AttrDelta::new(r.i64(), r.i64(), r.u64())),
            _ => StoredRow::Object {
                id: InodeId(r.u64()),
                size: r.u64(),
                blob: r.u64(),
                ctime: r.u64(),
                permission: Permission(r.u16()),
            },
        })
    }
}

/// A [`Row`] outside a shard (the benchmark's bare engines, the engine
/// tests) encodes as its [`StoredRow`], an object's `pid` and name after.
impl EngineValue for Row {
    fn encode(&self, w: &mut SnapshotWriter) {
        StoredRow::from(self).encode(w);
        if let Row::Object(o) = self {
            w.u64(o.pid.0);
            w.str(&o.name);
        }
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Option<Self> {
        let mut row = StoredRow::decode(r)?.row(InodeId(0));
        if let Row::Object(o) = &mut row {
            o.pid = InodeId(r.checked(8, SnapshotReader::u64)?);
            o.name = r.checked_str()?;
        }
        Some(row)
    }
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
        let image = mantle_engine::encode_image(&rows);
        assert_eq!(mantle_engine::decode_image::<Row>(&image), Some(rows));
    }

    #[test]
    fn payload_widths_match_the_encoder() {
        let rows = [
            Row::DirAccess {
                id: InodeId(2),
                permission: Permission::ALL,
            },
            Row::DirAttr(DirAttrMeta::new(5, 1)),
            Row::Delta(AttrDelta::dir_linked(7)),
            Row::Object(ObjectMeta::new(InodeId(1), "", InodeId(3), 10, 4, 2)),
        ];
        for (tag, row) in rows.iter().enumerate() {
            let mut w = SnapshotWriter::new();
            StoredRow::from(row).encode(&mut w);
            let bytes = w.finish();
            assert_eq!((bytes[0], bytes.len() - 1), (tag as u8, PAYLOAD_BYTES[tag]));
        }
    }
}
