//! The full mdtest operation × system matrix with small non-zero modeled
//! delays (`SimConfig::fast`): every operation, every conflict mode, every
//! system — zero failures, exact op counts, sane accounting. Non-zero
//! delays keep the phase-time assertions meaningful under the virtual
//! clock, where an all-zero model measures exactly zero.

use mantle::baselines::{
    infinifs::{InfiniFs, InfiniFsOptions},
    locofs::{LocoFs, LocoFsOptions},
    tectonic::{Tectonic, TectonicOptions},
};
use mantle::prelude::*;
use mantle::types::{BulkLoad, Phase};
use mantle::workloads::mdtest::{run, ConflictMode, MdOp, MdtestConfig};

fn matrix<S: MetadataService + BulkLoad + Sync>(
    mut fresh: impl FnMut() -> std::sync::Arc<S>,
    expected_min_rpcs: f64,
) {
    let ops = [
        (MdOp::Create, ConflictMode::Exclusive),
        (MdOp::Create, ConflictMode::Shared),
        (MdOp::Delete, ConflictMode::Exclusive),
        (MdOp::ObjStat, ConflictMode::Exclusive),
        (MdOp::DirStat, ConflictMode::Exclusive),
        (MdOp::Lookup, ConflictMode::Exclusive),
        (MdOp::Mkdir, ConflictMode::Exclusive),
        (MdOp::Mkdir, ConflictMode::Shared),
        (MdOp::Rmdir, ConflictMode::Exclusive),
        (MdOp::DirRename, ConflictMode::Exclusive),
        (MdOp::DirRename, ConflictMode::Shared),
    ];
    for (op, conflict) in ops {
        // mdtest assumes a fresh namespace per run (names collide across
        // op types otherwise), exactly like the paper's per-run re-setup.
        let svc = fresh();
        let svc = &*svc;
        let config = MdtestConfig {
            threads: 4,
            ops_per_thread: 12,
            depth: 7,
            op,
            conflict,
            working_set: 48,
            seed: 3,
            hotspot: None,
            open_loop: None,
        };
        let report = run(svc, config);
        assert_eq!(report.failed, 0, "{} {op:?}/{conflict:?}", svc.name());
        assert_eq!(report.completed, 48, "{} {op:?}/{conflict:?}", svc.name());
        assert!(report.latency.count() == 48);
        if op == MdOp::Lookup {
            // The per-level RPC floors document each system's *uncached*
            // resolution cost; the opt-in path-lease cache (DESIGN.md
            // §4.13) exists precisely to beat them, so they only hold
            // while it is off.
            if !mantle::types::EnvConfig::get().path_cache {
                assert!(
                    report.agg.mean_rpcs() >= expected_min_rpcs,
                    "{}: lookup rpcs {} < {expected_min_rpcs}",
                    svc.name(),
                    report.agg.mean_rpcs()
                );
            }
            assert!(report.agg.mean_phase_nanos(Phase::Lookup) > 0.0);
        }
    }
}

#[test]
fn mantle_full_matrix() {
    matrix(|| MantleCluster::build(SimConfig::fast(), 4), 1.0);
}

#[test]
fn tectonic_full_matrix() {
    // Level-by-level: a depth-7 lookup costs 7 RPCs.
    matrix(
        || Tectonic::new(SimConfig::fast(), TectonicOptions::default()),
        7.0,
    );
}

#[test]
fn tectonic_transactional_full_matrix() {
    matrix(
        || {
            Tectonic::new(
                SimConfig::fast(),
                TectonicOptions {
                    transactional: true,
                    ..TectonicOptions::default()
                },
            )
        },
        7.0,
    );
}

#[test]
fn infinifs_full_matrix() {
    // Speculation still issues one query per level.
    matrix(
        || InfiniFs::new(SimConfig::fast(), InfiniFsOptions::default()),
        7.0,
    );
}

#[test]
fn locofs_full_matrix() {
    // Central directory server: single-RPC resolution.
    matrix(
        || LocoFs::new(SimConfig::fast(), LocoFsOptions::default()),
        1.0,
    );
}

/// Phase accounting sanity across systems: a dirrename on Mantle charges
/// loop-detection, on Tectonic it does not (proxy-side path check only).
#[test]
fn phase_attribution_differs_by_design() {
    let run_rename = |svc: &dyn MetadataService, bulk: &dyn Fn(&MetaPath)| -> OpStats {
        let mut stats = RequestCtx::new();
        bulk(&MetaPath::parse("/s/a").unwrap());
        bulk(&MetaPath::parse("/t").unwrap());
        svc.rename_dir(
            &MetaPath::parse("/s/a").unwrap(),
            &MetaPath::parse("/t/b").unwrap(),
            &mut stats,
        )
        .unwrap();
        stats.stats
    };

    let mantle = MantleCluster::build(SimConfig::fast(), 4);
    let stats = run_rename(&*mantle, &|p| {
        mantle.bulk_dir(p);
    });
    assert!(
        stats.phase_nanos(Phase::LoopDetect) > 0,
        "Mantle: loop detection on IndexNode"
    );

    let tectonic = Tectonic::new(SimConfig::fast(), TectonicOptions::default());
    let stats = run_rename(&*tectonic, &|p| {
        tectonic.bulk_dir(p);
    });
    assert_eq!(
        stats.phase_nanos(Phase::LoopDetect),
        0,
        "Tectonic: no coordinator"
    );
    assert!(stats.phase_nanos(Phase::Lookup) > 0);
}
