//! Multi-namespace deployments (§7.1).
//!
//! In production, Mantle hosts many namespaces per cluster: "within each
//! cluster, all namespaces share a common TafDB deployment", while every
//! namespace gets its own IndexNode replication group, co-located on a
//! shared server pool. A [`MantleRegion`] reproduces that topology: one
//! TafDB, one data service, one region-wide inode allocator, and one
//! [`MantleCluster`] handle per namespace with a distinct root directory
//! id.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use mantle_tafdb::{recipe, TafDb};
use mantle_types::{id::IdAllocator, InodeId, MetaError, Result};

use crate::cluster::{MantleCluster, MantleConfig};
use crate::data::DataService;

/// A cluster-wide Mantle deployment hosting many namespaces.
pub struct MantleRegion {
    config: MantleConfig,
    db: Arc<TafDb>,
    data: Arc<DataService>,
    ids: Arc<IdAllocator>,
    namespaces: RwLock<HashMap<String, Arc<MantleCluster>>>,
}

impl MantleRegion {
    /// Builds the shared substrate. `config.index` is used as the template
    /// for every namespace's IndexNode (its `root` is overridden per
    /// namespace).
    pub fn new(config: MantleConfig) -> Arc<Self> {
        Arc::new(MantleRegion {
            config,
            db: TafDb::new(config.sim, config.db),
            data: Arc::new(DataService::new(config.sim, config.data_nodes)),
            ids: Arc::new(IdAllocator::new()),
            namespaces: RwLock::new(HashMap::new()),
        })
    }

    /// Creates a namespace: allocates its root directory, bootstraps the
    /// root's attribute row in the shared TafDB, and spins up a dedicated
    /// IndexNode replication group.
    ///
    /// # Errors
    ///
    /// [`MetaError::AlreadyExists`] when the name is taken.
    pub fn create_namespace(&self, name: &str) -> Result<Arc<MantleCluster>> {
        let mut namespaces = self.namespaces.write();
        if namespaces.contains_key(name) {
            return Err(MetaError::AlreadyExists(format!("namespace {name}")));
        }
        let root = self.ids.alloc();
        self.db.bulk_apply(recipe::root(root));
        let cluster = MantleCluster::with_shared(
            self.config,
            Arc::clone(&self.db),
            Arc::clone(&self.data),
            Arc::clone(&self.ids),
            root,
        );
        namespaces.insert(name.to_string(), Arc::clone(&cluster));
        Ok(cluster)
    }

    /// Looks up an existing namespace by name.
    pub fn namespace(&self, name: &str) -> Option<Arc<MantleCluster>> {
        self.namespaces.read().get(name).cloned()
    }

    /// Names of all hosted namespaces.
    pub fn namespace_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.namespaces.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// The shared TafDB.
    pub fn db(&self) -> &Arc<TafDb> {
        &self.db
    }

    /// The shared data service.
    pub fn data(&self) -> &Arc<DataService> {
        &self.data
    }

    /// The root directory id of a namespace (diagnostics).
    pub fn namespace_root(&self, name: &str) -> Option<InodeId> {
        self.namespaces.read().get(name).map(|c| c.root())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_types::RequestCtx;
    use mantle_types::{BulkLoad, MetaPath, MetadataService, SimConfig};

    fn p(s: &str) -> MetaPath {
        MetaPath::parse(s).unwrap()
    }

    fn region() -> Arc<MantleRegion> {
        MantleRegion::new(MantleConfig::with_sim(SimConfig::instant(), 4))
    }

    #[test]
    fn namespaces_share_tafdb_but_are_isolated() {
        let region = region();
        let ns_a = region.create_namespace("tenant-a").unwrap();
        let ns_b = region.create_namespace("tenant-b").unwrap();
        assert_ne!(ns_a.root(), ns_b.root());

        let mut stats = RequestCtx::new();
        // The same path in both namespaces holds different content.
        ns_a.mkdir(&p("/data"), &mut stats).unwrap();
        ns_a.create(&p("/data/obj"), 111, &mut stats).unwrap();
        ns_b.mkdir(&p("/data"), &mut stats).unwrap();
        ns_b.create(&p("/data/obj"), 222, &mut stats).unwrap();

        assert_eq!(ns_a.objstat(&p("/data/obj"), &mut stats).unwrap().size, 111);
        assert_eq!(ns_b.objstat(&p("/data/obj"), &mut stats).unwrap().size, 222);

        // Entries of both namespaces live in one shared MetaTable.
        assert!(Arc::ptr_eq(ns_a.db(), ns_b.db()));
        assert!(region.db().total_rows() >= 6);

        // Deleting in one namespace does not disturb the other.
        ns_a.delete(&p("/data/obj"), &mut stats).unwrap();
        assert!(ns_a.objstat(&p("/data/obj"), &mut stats).is_err());
        assert_eq!(ns_b.objstat(&p("/data/obj"), &mut stats).unwrap().size, 222);
    }

    #[test]
    fn duplicate_namespace_rejected_and_lookup_by_name_works() {
        let region = region();
        region.create_namespace("ns").unwrap();
        assert!(matches!(
            region.create_namespace("ns"),
            Err(MetaError::AlreadyExists(_))
        ));
        assert!(region.namespace("ns").is_some());
        assert!(region.namespace("ghost").is_none());
        assert_eq!(region.namespace_names(), vec!["ns"]);
        assert!(region.namespace_root("ns").unwrap().raw() > 1);
    }

    #[test]
    fn bulk_load_and_rename_respect_namespace_roots() {
        let region = region();
        let ns_a = region.create_namespace("a").unwrap();
        let ns_b = region.create_namespace("b").unwrap();
        let mut stats = RequestCtx::new();

        ns_a.bulk_dir(&p("/x/y/z"));
        ns_a.bulk_object(&p("/x/y/z/o"), 5);
        assert!(
            ns_b.lookup(&p("/x"), &mut stats).is_err(),
            "no cross-namespace leakage"
        );

        ns_a.mkdir(&p("/dst"), &mut stats).unwrap();
        ns_a.rename_dir(&p("/x/y"), &p("/dst/y2"), &mut stats)
            .unwrap();
        assert_eq!(ns_a.objstat(&p("/dst/y2/z/o"), &mut stats).unwrap().size, 5);
        assert!(ns_b.lookup(&p("/dst"), &mut stats).is_err());
    }

    #[test]
    fn concurrent_tenants_do_not_interfere() {
        let region = region();
        let tenants: Vec<_> = (0..3)
            .map(|i| region.create_namespace(&format!("t{i}")).unwrap())
            .collect();
        std::thread::scope(|s| {
            for (i, ns) in tenants.iter().enumerate() {
                s.spawn(move || {
                    let mut stats = RequestCtx::new();
                    ns.mkdir(&p("/w"), &mut stats).unwrap();
                    for j in 0..30 {
                        ns.create(&p(&format!("/w/o{j}")), (i * 100 + j) as u64, &mut stats)
                            .unwrap();
                    }
                });
            }
        });
        let mut stats = RequestCtx::new();
        for ns in &tenants {
            assert_eq!(ns.dirstat(&p("/w"), &mut stats).unwrap().attrs.entries, 30);
        }
    }
}
