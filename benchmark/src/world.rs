//! The system under test, as every workload configures it.

use std::sync::Arc;

use mantle::core::{DataService, MantleCluster, MantleConfig, PathLeaseConfig};
use mantle::prelude::{MetaPath, SimConfig};
use mantle::tafdb::{EngineKind, TafDb};
use mantle::types::id::IdAllocator;
use mantle::types::{BulkLoad, ROOT_ID};

/// A Mantle deployment plus the handles the mirror needs.
pub struct World {
    pub cluster: Arc<MantleCluster>,
    /// The cluster's inode allocator. `MantleCluster` keeps its own handle
    /// private; building through `with_shared` lets the mirror allocate
    /// from the same sequence the real `create`/`mkdir` use.
    pub ids: Arc<IdAllocator>,
}

/// The configuration every workload runs: `SimConfig::default()` and
/// `MantleConfig::default()` (follower reads on), with the two settings
/// those defaults take from the environment pinned instead.
pub fn config(path_cache: bool) -> MantleConfig {
    let mut config = MantleConfig {
        sim: SimConfig::default(),
        pcache: if path_cache {
            PathLeaseConfig::enabled()
        } else {
            PathLeaseConfig::default()
        },
        ..MantleConfig::default()
    };
    config.db.engine = EngineKind::Btree;
    config
}

impl World {
    /// What `MantleCluster::with_config` does, keeping the allocator.
    pub fn build(config: MantleConfig) -> World {
        let db = TafDb::new(config.sim, config.db);
        let data = Arc::new(DataService::new(config.sim, config.data_nodes));
        let ids = Arc::new(IdAllocator::new());
        let cluster = MantleCluster::with_shared(config, db, data, Arc::clone(&ids), ROOT_ID);
        World { cluster, ids }
    }

    /// Bulk-loads directory `path` (and its ancestors), free of modeled
    /// cost.
    pub fn load_dir(&self, path: &str) {
        self.cluster
            .bulk_dir(&MetaPath::parse(path).expect("generated path"));
    }

    /// Bulk-loads an object, creating its ancestors.
    pub fn load_object(&self, path: &str, size: u64) {
        self.cluster
            .bulk_object(&MetaPath::parse(path).expect("generated path"), size);
    }
}
