//! Permission masks and aggregated path permissions.
//!
//! Path resolution performs a permission check at every level (§2.3). The
//! TopDirPathCache stores a single *aggregated* permission per cached prefix
//! computed by intersecting the masks along the path, following the
//! Lazy-Hybrid approach the paper cites (§5.1.1).

use std::fmt;

use serde::{Deserialize, Serialize};

/// A directory/object permission mask.
///
/// Only the owner-class bits matter for the reproduction; the aggregation
/// semantics (bitwise intersection along the path) are what the algorithms
/// depend on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Permission(pub u16);

impl Permission {
    /// Read permission bit.
    pub const READ: Permission = Permission(0b100);
    /// Write permission bit.
    pub const WRITE: Permission = Permission(0b010);
    /// Execute/traverse permission bit.
    pub const EXEC: Permission = Permission(0b001);
    /// All bits set; the identity of path aggregation.
    pub const ALL: Permission = Permission(0b111);
    /// No permissions.
    pub const NONE: Permission = Permission(0);

    /// Whether every bit in `required` is present in `self`.
    #[inline]
    pub fn allows(self, required: Permission) -> bool {
        self.0 & required.0 == required.0
    }

    /// Intersects the permission with one more path component's mask.
    #[inline]
    pub fn intersect(self, other: Permission) -> Permission {
        Permission(self.0 & other.0)
    }

    /// Aggregates a whole chain of per-level masks into the unified path
    /// permission.
    pub fn aggregate<I: IntoIterator<Item = Permission>>(levels: I) -> Permission {
        levels
            .into_iter()
            .fold(Permission::ALL, Permission::intersect)
    }

    /// Whether traversal through a directory with this mask is allowed.
    #[inline]
    pub fn allows_traverse(self) -> bool {
        self.allows(Permission::EXEC)
    }
}

impl Default for Permission {
    fn default() -> Self {
        Permission::ALL
    }
}

impl fmt::Debug for Permission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.allows(Permission::READ) {
                'r'
            } else {
                '-'
            },
            if self.allows(Permission::WRITE) {
                'w'
            } else {
                '-'
            },
            if self.allows(Permission::EXEC) {
                'x'
            } else {
                '-'
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_is_intersection() {
        let agg = Permission::aggregate([Permission::ALL, Permission(0b110), Permission(0b011)]);
        assert_eq!(agg, Permission(0b010));
        assert_eq!(Permission::aggregate([]), Permission::ALL);
    }

    #[test]
    fn allows_checks_subset() {
        assert!(Permission::ALL.allows(Permission::READ));
        assert!(!Permission::NONE.allows(Permission::READ));
        assert!(Permission(0b101).allows(Permission::EXEC));
        assert!(!Permission(0b101).allows(Permission::WRITE));
    }

    #[test]
    fn traverse_requires_exec() {
        assert!(Permission::ALL.allows_traverse());
        assert!(!Permission(0b110).allows_traverse());
    }

    #[test]
    fn debug_renders_rwx() {
        assert_eq!(format!("{:?}", Permission::ALL), "rwx");
        assert_eq!(format!("{:?}", Permission(0b100)), "r--");
    }
}
