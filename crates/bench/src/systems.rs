//! The four systems under test, behind one object-safe surface.

use std::sync::Arc;

use mantle_baselines::{
    InfiniFs, InfiniFsOptions, LocoFs, LocoFsOptions, Tectonic, TectonicOptions,
};
use mantle_core::{MantleCluster, MantleConfig, MetadataService};
use mantle_types::{BulkLoad, SimConfig};

/// Everything a harness needs from a system under test.
pub trait Evaluated: MetadataService + BulkLoad + Send + Sync {}

impl<S: MetadataService + BulkLoad + Send + Sync> Evaluated for S {}

/// Which system to build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemKind {
    /// The paper's system.
    Mantle,
    /// DBtable baseline.
    Tectonic,
    /// Speculative-resolution baseline.
    InfiniFs,
    /// Tiered baseline.
    LocoFs,
}

impl SystemKind {
    /// All four, in the paper's usual ordering (worst-to-best on reads).
    pub const ALL: [SystemKind; 4] = [
        SystemKind::Tectonic,
        SystemKind::InfiniFs,
        SystemKind::LocoFs,
        SystemKind::Mantle,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Mantle => "mantle",
            SystemKind::Tectonic => "tectonic",
            SystemKind::InfiniFs => "infinifs",
            SystemKind::LocoFs => "locofs",
        }
    }
}

/// A built system plus its handle for special accesses (ablation knobs,
/// data service).
pub struct SystemUnderTest {
    kind: SystemKind,
    svc: Arc<dyn Evaluated>,
    mantle: Option<Arc<MantleCluster>>,
}

impl SystemUnderTest {
    /// Builds `kind` with its Table 2-equivalent scaled deployment.
    pub fn build(kind: SystemKind, sim: SimConfig) -> Self {
        match kind {
            SystemKind::Mantle => Self::mantle(MantleConfig {
                sim,
                ..MantleConfig::default()
            }),
            SystemKind::Tectonic => {
                Self::baseline(kind, Tectonic::new(sim, TectonicOptions::default()))
            }
            SystemKind::InfiniFs => {
                Self::baseline(kind, InfiniFs::new(sim, InfiniFsOptions::default()))
            }
            SystemKind::LocoFs => Self::baseline(kind, LocoFs::new(sim, LocoFsOptions::default())),
        }
    }

    /// Wraps a custom-configured baseline (Figure 20's InfiniFS cache
    /// legs, [`SystemUnderTest::dbtable`]).
    pub fn baseline(kind: SystemKind, svc: Arc<dyn Evaluated>) -> Self {
        SystemUnderTest {
            kind,
            svc,
            mantle: None,
        }
    }

    /// The transactional DBtable service Baidu ran before Mantle (§3.2):
    /// Tectonic's schema under full distributed transactions, unlike the
    /// relaxed §6.1 baseline. Figure 4 characterizes it; its commit storm
    /// is Figure 10's Analytics motivation.
    pub fn dbtable(sim: SimConfig) -> Self {
        let options = TectonicOptions {
            transactional: true,
            ..TectonicOptions::default()
        };
        Self::baseline(SystemKind::Tectonic, Tectonic::new(sim, options))
    }

    /// Builds Mantle with an explicit configuration (ablations, k-sweeps,
    /// follower/learner variants).
    pub fn mantle(config: MantleConfig) -> Self {
        let cluster = MantleCluster::with_config(config);
        SystemUnderTest {
            kind: SystemKind::Mantle,
            svc: cluster.clone(),
            mantle: Some(cluster),
        }
    }

    /// The system kind.
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        self.kind.label()
    }

    /// The service under test.
    pub fn svc(&self) -> &Arc<dyn Evaluated> {
        &self.svc
    }

    /// The Mantle cluster handle, when this system is Mantle.
    pub fn mantle_cluster(&self) -> Option<&Arc<MantleCluster>> {
        self.mantle.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_types::{MetaPath, RequestCtx};

    #[test]
    fn all_four_systems_serve_the_same_workload() {
        for kind in SystemKind::ALL {
            let sut = SystemUnderTest::build(kind, SimConfig::instant());
            let svc = sut.svc();
            let mut stats = RequestCtx::new();
            let dir = MetaPath::parse("/a/b/c").unwrap();
            svc.bulk_dir(&dir);
            svc.bulk_object(&dir.child("o"), 5);
            assert!(svc.lookup(&dir, &mut stats).is_ok(), "{kind:?}");
            assert_eq!(
                svc.objstat(&dir.child("o"), &mut stats).unwrap().size,
                5,
                "{kind:?}"
            );
            assert_eq!(svc.name(), kind.label());
        }
    }
}
