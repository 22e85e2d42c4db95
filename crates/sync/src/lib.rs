//! Concurrency substrates for the Mantle reproduction.
//!
//! The paper's IndexNode relies on two specialised concurrent structures
//! (§5.1.2):
//!
//! * a **RemovalList** recording the full paths of directories being
//!   modified — scanned at the start of every lookup, "empty most of the
//!   time";
//! * a **PrefixTree** rebuilding the directory tree of all cached paths so
//!   invalidation can range-query the descendants of a modified directory.
//!
//! The paper implements both lock-free. This reproduction uses fine-grained
//! reader-writer locking with a lock-free fast path instead (an atomic
//! emptiness/version check lets lookups skip the RemovalList without
//! touching a lock, and PrefixTree readers only take short per-node shared
//! locks), which preserves the property the design depends on: lookups are
//! never blocked behind directory modifications for more than a node-local
//! critical section. DESIGN.md §2 documents this substitution.
//!
//! The crate also provides the one generic piece TafDB needs: a
//! [`LatchTable`] of striped row latches.

pub mod latch;
pub mod prefix_tree;
pub mod removal_list;

pub use latch::LatchTable;
pub use prefix_tree::PrefixTree;
pub use removal_list::RemovalList;
