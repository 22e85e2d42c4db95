//! Concurrency substrates for the Mantle reproduction.
//!
//! The paper's IndexNode relies on two specialised concurrent structures
//! (§5.1.2):
//!
//! * a **RemovalList** recording the full paths of directories being
//!   modified — scanned at the start of every lookup, "empty most of the
//!   time";
//! * a **PrefixTree** mirroring all cached paths so invalidation can
//!   range-query the descendants of a modified directory.
//!
//! The paper implements both lock-free. This reproduction uses a
//! lock-ordered list with a lock-free fast path for the RemovalList (an
//! atomic emptiness/version check lets lookups skip it without touching a
//! lock) and an ordered set behind one lock for the PrefixTree, which no
//! lookup reads. That preserves the property the design depends on: lookups
//! are never blocked behind directory modifications. DESIGN.md §2 documents
//! this substitution.
//!
//! The crate also provides the one generic piece TafDB needs: a
//! [`LatchTable`] of striped row latches.

pub mod latch;
pub mod prefix_tree;
pub mod removal_list;

pub use latch::LatchTable;
pub use prefix_tree::PrefixTree;
pub use removal_list::RemovalList;
