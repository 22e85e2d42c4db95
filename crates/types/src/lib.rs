//! Common types shared by every crate in the Mantle reproduction.
//!
//! This crate defines the vocabulary of the system described in the paper
//! *Mantle: Efficient Hierarchical Metadata Management for Cloud Object
//! Storage Services* (SOSP '25):
//!
//! * [`id`] — identifiers for directories, objects, transactions and client
//!   requests.
//! * [`Name`] — an owned entry name, stored inline when short, as every
//!   key and command holds one.
//! * [`MetaPath`] — normalized hierarchical paths with the prefix and
//!   truncation operations the IndexNode needs (§5.1.1).
//! * [`perm::Permission`] — permission masks and the Lazy-Hybrid style
//!   aggregated path permission.
//! * [`record`] — the access/attribute metadata split of §4 (Figure 6).
//! * [`resolve`] — the resolve vocabulary: the per-level permission walk,
//!   the parent/leaf split, the stated permission and the rename precheck.
//! * [`MetaError`] — the error surface of every metadata service.
//! * [`OpStats`] — per-operation phase accounting (lookup / loop detection /
//!   execution) used to regenerate the latency-breakdown figures.
//! * [`hist::Histogram`] — log-bucketed latency histogram for the CDF
//!   figures.
//! * [`SimConfig`] — timing constants of the simulated substrate.
//! * [`clock`] — the per-thread virtual simulation clock every
//!   injected delay and timestamp flows through.
//! * [`BulkLoad`] — bulk namespace population for every evaluated system
//!   (the operation set they serve is `mantle_core::MetadataService`).

pub mod bulk;
pub mod clock;
pub mod config;
pub mod ctx;
pub mod error;
pub mod hist;
pub mod id;
pub mod name;
pub mod path;
pub mod perm;
pub mod record;
pub mod resolve;
pub mod snapshot;
pub mod stats;

pub use bulk::BulkLoad;
pub use clock::{SimInstant, TimeCategory, TimeStats};
pub use config::{
    EngineName, EnvConfig, PlacementConfig, ScalePreset, SimConfig, SCALED_DB_SHARDS,
};
pub use ctx::RequestCtx;
pub use error::{MetaError, Result};
pub use id::{ClientUuid, InodeId, TxnId, ROOT_ID, ROOT_PARENT_ID};
pub use name::Name;
pub use path::MetaPath;
pub use perm::Permission;
pub use record::{
    AttrDelta,
    DirAccessMeta,
    DirAttrMeta,
    DirEntry,
    DirStat,
    EntryKind,
    LeasedPath,
    ObjectMeta,
    ResolvedPath, //
};
pub use stats::{OpStats, OpStatsAgg, Phase, RetryClass};
