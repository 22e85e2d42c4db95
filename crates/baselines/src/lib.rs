//! Re-implementations of the paper's three baselines (§6.1).
//!
//! The originals are not public, so — exactly as the paper did — we
//! re-implement each system's metadata path faithfully enough that its
//! published performance characteristics emerge from the same mechanisms:
//!
//! * [`tectonic::Tectonic`] — the DBtable-based approach (Figure 2):
//!   level-by-level multi-RPC path resolution over the sharded table, and
//!   — as §6.1 states — *relaxed consistency*: directory modifications are
//!   independent single-row writes plus a blocking-latch parent-attribute
//!   update, not distributed transactions.
//! * [`infinifs::InfiniFs`] — speculative parallel path resolution with
//!   hash-predicted directory ids, a bounded resolver pool (whose
//!   oversubscription under high concurrency reproduces the 7.4-RTT
//!   effect, §3.3), CFS-style relaxed single-shard directory modifications,
//!   a dedicated rename coordinator, and an optional proxy-side path-lease
//!   cache (Figure 20).
//! * [`locofs::LocoFs`] — the tiered design: *all* directory metadata on a
//!   single Raft-replicated directory server that resolves full paths
//!   locally, object metadata in the sharded DB, with object creation
//!   forced through the directory server for the parent update (its
//!   cross-component coordination overhead, §3.3).
//!
//! All three implement [`mantle_types::MetadataService`] and
//! [`mantle_types::BulkLoad`], so every workload and figure harness runs
//! unmodified against any system.

pub mod infinifs;
pub mod locofs;
mod relaxed;
pub mod tectonic;

pub use infinifs::{InfiniFs, InfiniFsOptions};
pub use locofs::{LocoFs, LocoFsOptions};
pub use tectonic::{Tectonic, TectonicOptions};
