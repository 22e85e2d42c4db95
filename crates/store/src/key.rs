//! The composite row key shared by the lock manager and the storage engines.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

use mantle_types::{InodeId, Name, TxnId};

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
    /// Entry name (or the reserved `/_ATTR` for attribute/delta rows),
    /// inline when short.
    pub name: Name,
    /// Transaction timestamp; zero for base rows.
    pub ts: TxnId,
}

impl RowKey {
    /// A base (non-delta) row key.
    pub fn base(pid: InodeId, name: &str) -> Self {
        RowKey::delta(pid, name, TxnId::BASE)
    }

    /// A delta-record key.
    pub fn delta(pid: InodeId, name: &str, ts: TxnId) -> Self {
        RowKeyView::delta(pid, name, ts).to_key()
    }
}

/// A [`RowKey`] that borrows its name: what probes, unlocks, scan bounds
/// and placement are computed from, so none of them builds an owned key.
///
/// Field order is the key's, so the derived `Ord`, `Eq` and `Hash` agree
/// with `RowKey`'s — the contract `Borrow` demands of the maps searched
/// through [`KeyParts`] (`crates/store/tests/prop.rs` holds it).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RowKeyView<'a> {
    /// Parent directory id.
    pub pid: InodeId,
    /// Entry name.
    pub name: &'a str,
    /// Transaction timestamp; zero for base rows.
    pub ts: TxnId,
}

impl<'a> RowKeyView<'a> {
    /// A base (non-delta) row key view.
    pub fn base(pid: InodeId, name: &'a str) -> Self {
        RowKeyView::delta(pid, name, TxnId::BASE)
    }

    /// A delta-record key view.
    pub fn delta(pid: InodeId, name: &'a str, ts: TxnId) -> Self {
        RowKeyView { pid, name, ts }
    }
}

/// What a row key is compared, hashed and placed by. Stored keys own their
/// name and probes borrow it; the engines' trees and the lock table are
/// searched through this trait (`RowKey: Borrow<dyn KeyParts>`), and
/// `&RowKey` and `&RowKeyView` both coerce to `&dyn KeyParts`.
pub trait KeyParts {
    /// The key's parts, borrowed.
    fn view(&self) -> RowKeyView<'_>;

    /// The owned key, for where one is *stored* (an engine row, a lock-table
    /// entry, a caller's transaction op): a clone when `self` already is
    /// one.
    fn to_key(&self) -> RowKey {
        let RowKeyView { pid, name, ts } = self.view();
        RowKey {
            pid,
            name: Name::new(name),
            ts,
        }
    }
}

// `#[inline]` from here down: these run once per key a tree descent or a
// hash probe passes, from other crates' monomorphized searches. Left as
// opaque calls (the workspace builds without LTO) they cost the bulk
// loader a third of its time; inlined, the stored side's `view` resolves
// statically and one indirect call per comparison remains, the probe's.
impl KeyParts for RowKey {
    #[inline]
    fn view(&self) -> RowKeyView<'_> {
        RowKeyView {
            pid: self.pid,
            name: &self.name,
            ts: self.ts,
        }
    }

    fn to_key(&self) -> RowKey {
        self.clone()
    }
}

impl KeyParts for RowKeyView<'_> {
    #[inline]
    fn view(&self) -> RowKeyView<'_> {
        *self
    }
}

impl<'a> Borrow<dyn KeyParts + 'a> for RowKey {
    #[inline]
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}

impl PartialEq for dyn KeyParts + '_ {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for dyn KeyParts + '_ {}

impl PartialOrd for dyn KeyParts + '_ {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn KeyParts + '_ {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.view().cmp(&other.view())
    }
}

impl Hash for dyn KeyParts + '_ {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}
