//! The Mantle metadata service (§4–§5): the paper's primary contribution.
//!
//! A [`MantleCluster`] wires together the two-layer architecture:
//!
//! * a shared, sharded [`mantle_tafdb::TafDb`] holding *all* metadata
//!   (access + attribute) of the namespace, and
//! * a per-namespace [`mantle_index::IndexNode`] holding only directory
//!   *access* metadata, replicated by Raft.
//!
//! The proxy logic in [`cluster`] implements every metadata operation with
//! the paper's division of responsibility (Figure 5):
//!
//! | operation  | lookup          | execution                            |
//! |------------|-----------------|--------------------------------------|
//! | `lookup`   | IndexNode, 1 RPC| —                                    |
//! | `objstat`  | IndexNode       | TafDB object row                     |
//! | `create`   | IndexNode       | TafDB txn (entry + parent attr)      |
//! | `delete`   | IndexNode       | TafDB txn                            |
//! | `dirstat`  | IndexNode       | TafDB attr row + delta merge         |
//! | `readdir`  | IndexNode       | TafDB directory scan                 |
//! | `mkdir`    | IndexNode       | TafDB txn, then IndexNode refresh    |
//! | `rmdir`    | IndexNode       | TafDB txn, then IndexNode refresh    |
//! | `dirrename`| merged into loop detection on IndexNode (Figure 9), then TafDB txn + IndexNode commit |
//!
//! What every op does around a system's resolve and directory mutations is
//! written once, in [`service`]: `MantleCluster`, like the Tectonic and
//! InfiniFS baselines, is a [`Shell`].
//!
//! The crate also provides the [`data::DataService`] used by the
//! application-level experiments (Figure 10b); namespaces are bulk-loaded
//! without simulated delays through `MantleCluster`'s
//! [`mantle_types::BulkLoad`] implementation.

pub mod cluster;
pub mod data;
pub mod pathcache;
pub mod region;
pub mod service;

pub use cluster::{MantleCluster, MantleConfig};
pub use data::DataService;
pub use pathcache::{PathLeaseCache, PathLeaseConfig};
pub use region::MantleRegion;
pub use service::{MetadataService, Shell, SvcMetrics};
