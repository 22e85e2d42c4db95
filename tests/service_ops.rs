//! `service_ops_total{system,op}` is counted once per op, by the service's
//! own front-end, on all four systems (the workload driver adds nothing).
//!
//! One test in this file: the registry is process-wide and the assertion is
//! exact.

use mantle::baselines::{
    infinifs::{InfiniFs, InfiniFsOptions},
    locofs::{LocoFs, LocoFsOptions},
    tectonic::{Tectonic, TectonicOptions},
};
use mantle::prelude::*;
use mantle::types::BulkLoad;
use mantle::workloads::mdtest::{run, ConflictMode, MdOp, MdtestConfig};

/// Every `service_ops_total` series of `system`, as `(op, count)`.
fn service_ops(system: &str) -> Vec<(String, u64)> {
    let label = |c: &mantle::obs::metrics::CounterSample, key: &str| {
        let (_, v) = c.labels.iter().find(|(k, _)| k == key).expect("label");
        v.clone()
    };
    mantle::obs::snapshot()
        .counters
        .iter()
        .filter(|c| c.name == "service_ops_total" && label(c, "system") == system)
        .map(|c| (label(c, "op"), c.value))
        .collect()
}

/// Runs `f` on `svc` and asserts it moved `svc`'s `label` series by exactly
/// one and every other series by nothing.
fn moves_once<S: MetadataService>(svc: &S, label: &str, f: impl FnOnce(&S)) {
    let before = service_ops(svc.name());
    f(svc);
    let count =
        |ops: &[(String, u64)], l: &str| ops.iter().find(|(o, _)| o == l).map_or(0, |(_, n)| *n);
    for (o, after) in service_ops(svc.name()) {
        let moved = after - count(&before, &o);
        assert_eq!(moved, u64::from(o == label), "{} op={o}", svc.name());
    }
}

fn one_op_counts_once<S: MetadataService + BulkLoad + Sync>(svc: &S, op: MdOp, label: &str) {
    moves_once(svc, label, |svc| {
        let report = run(
            svc,
            MdtestConfig {
                threads: 1,
                ops_per_thread: 1,
                depth: 4,
                op,
                conflict: ConflictMode::Exclusive,
                working_set: 4,
                seed: 1,
                hotspot: None,
                open_loop: None,
            },
        );
        assert_eq!((report.completed, report.failed), (1, 0), "{}", svc.name());
    });
}

/// A direct `readdir` and a direct `list` each count once: `list` under its
/// own name where the system serves it, under `readdir` where it pages over
/// one (`list_label`).
fn listings_count_once<S: MetadataService + BulkLoad>(svc: &S, list_label: &str) {
    let dir = MetaPath::parse("/listed").unwrap();
    svc.bulk_object(&dir.child("o"), 1);
    moves_once(svc, "readdir", |svc| {
        let entries = svc.readdir(&dir, &mut RequestCtx::new()).unwrap();
        assert_eq!(entries.len(), 1, "{}", svc.name());
    });
    moves_once(svc, list_label, |svc| {
        let (page, _) = svc.list(&dir, None, 10, &mut RequestCtx::new()).unwrap();
        assert_eq!(page.len(), 1, "{}", svc.name());
    });
}

#[test]
fn one_op_moves_its_series_by_exactly_one_on_every_system() {
    let sim = SimConfig::instant();
    // mdtest bulk-loads its setup, so each op is one service call.
    for (op, label) in [
        (MdOp::Create, "create"),
        (MdOp::DirStat, "dirstat"),
        (MdOp::Delete, "delete"),
        (MdOp::ObjStat, "objstat"),
        (MdOp::Mkdir, "mkdir"),
        (MdOp::Rmdir, "rmdir"),
        (MdOp::DirRename, "rename_dir"),
        (MdOp::Lookup, "lookup"),
    ] {
        one_op_counts_once(&*MantleCluster::build(sim, 2), op, label);
        one_op_counts_once(&*Tectonic::new(sim, TectonicOptions::default()), op, label);
        one_op_counts_once(&*InfiniFs::new(sim, InfiniFsOptions::default()), op, label);
        one_op_counts_once(&*LocoFs::new(sim, LocoFsOptions::default()), op, label);
    }
    listings_count_once(&*MantleCluster::build(sim, 2), "list");
    listings_count_once(&*Tectonic::new(sim, TectonicOptions::default()), "list");
    listings_count_once(&*InfiniFs::new(sim, InfiniFsOptions::default()), "list");
    // LocoFS pages `list` over its own `readdir`.
    listings_count_once(&*LocoFs::new(sim, LocoFsOptions::default()), "readdir");
    // A system registers only the ops it serves under their own name.
    let has = |system, op| service_ops(system).iter().any(|(o, _)| o == op);
    assert!(has("mantle", "setattr") && !has("tectonic", "setattr"));
    assert!(has("tectonic", "list") && !has("locofs", "list"));
}
