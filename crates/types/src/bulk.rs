//! Bulk namespace population: how every evaluated system is loaded before
//! it is measured.

use crate::id::InodeId;
use crate::path::MetaPath;

/// Bulk namespace population, bypassing simulated delays.
///
/// §6.1 populates each system with a billion entries before measuring; the
/// scaled-down equivalent still needs to skip per-entry network/fsync
/// delays. Every evaluated system implements this as the moral equivalent
/// of restoring from a snapshot.
pub trait BulkLoad {
    /// Ensures every directory on `path` exists (no simulated cost) and
    /// returns the final directory's id.
    fn bulk_dir(&self, path: &MetaPath) -> InodeId;

    /// Registers an object of `size` bytes at `path`, creating parent
    /// directories as needed (no simulated cost).
    fn bulk_object(&self, path: &MetaPath, size: u64);
}

impl<S: BulkLoad + ?Sized> BulkLoad for std::sync::Arc<S> {
    fn bulk_dir(&self, path: &MetaPath) -> InodeId {
        (**self).bulk_dir(path)
    }

    fn bulk_object(&self, path: &MetaPath, size: u64) {
        (**self).bulk_object(path, size)
    }
}
