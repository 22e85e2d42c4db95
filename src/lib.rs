//! Facade crate for the Mantle reproduction.
//!
//! Re-exports the public API of every workspace crate so downstream users
//! (and the examples/integration tests in this repository) can depend on a
//! single `mantle` crate.
//!
//! # Quickstart
//!
//! ```
//! use mantle::prelude::*;
//!
//! let cluster = MantleCluster::build(SimConfig::instant(), 4);
//! let svc = cluster.service();
//! let mut stats = RequestCtx::new();
//! svc.mkdir(&MetaPath::parse("/data").unwrap(), &mut stats).unwrap();
//! svc.create(&MetaPath::parse("/data/obj0").unwrap(), 4096, &mut stats).unwrap();
//! let meta = svc.objstat(&MetaPath::parse("/data/obj0").unwrap(), &mut stats).unwrap();
//! assert_eq!(meta.size, 4096);
//! ```

pub use mantle_baselines as baselines;
pub use mantle_core as core;
pub use mantle_index as index;
pub use mantle_obs as obs;
pub use mantle_raft as raft;
pub use mantle_rpc as rpc;
pub use mantle_store as store;
pub use mantle_sync as sync;
pub use mantle_tafdb as tafdb;
pub use mantle_types as types;
pub use mantle_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use mantle_baselines::{infinifs::InfiniFs, locofs::LocoFs, tectonic::Tectonic};
    pub use mantle_core::{MantleCluster, MantleConfig, MetadataService};
    pub use mantle_rpc::{FaultPlan, FaultProfile};
    pub use mantle_types::{
        MetaError, MetaPath, OpStats, Permission, Phase, RequestCtx, Result, RetryClass, SimConfig,
    };
}
