//! Write-path pins for every system, not just Mantle: the mdtest rows of
//! `tests/virtual_time.rs` and the repo benchmark only ever run Mantle, so
//! this file is what holds the
//! Tectonic (relaxed and transactional), InfiniFS and LocoFS write paths
//! still while the code that spells them moves. One client,
//! `SimConfig::default()`, path-lease cache off, one op at a time: the RPCs
//! booked, the modeled latency, the ordered RPC span names of a forced
//! trace, and `dirstat` of both parents afterwards. The literals were
//! recorded on PR 19's parent, before the row recipes were shared; a line
//! moves only when a PR says which modeled quantity it meant to move (so
//! far: LocoFS `rename_dir`, which PR 19 made pay for its object-DB check).
//!
//! Second half: a loader/live equivalence case per system — the same small
//! tree built through `bulk_dir`/`bulk_object` and through `mkdir`/`create`
//! answers `dirstat`/`readdir`/`objstat` alike (ids, timestamps and blob
//! handles aside), which is what sharing one recipe between the bulk and
//! the live executors buys.

use std::sync::Arc;

use mantle::baselines::{
    infinifs::{InfiniFs, InfiniFsOptions},
    locofs::{LocoFs, LocoFsOptions},
    tectonic::{Tectonic, TectonicOptions},
};
use mantle::core::PathLeaseConfig;
use mantle::obs::trace::{self, SpanKind};
use mantle::prelude::*;
use mantle::types::{BulkLoad, EntryKind};

fn p(s: &str) -> MetaPath {
    MetaPath::parse(s).unwrap()
}

/// Runs one op under a forced trace with a context of its own; returns
/// `"<op>: <n> rpcs, <modeled> ns: <RPC span names in issue order>"`.
fn measured(op: &str, f: impl FnOnce(&mut RequestCtx) -> Result<()>) -> String {
    let mut ctx = RequestCtx::new();
    let guard = trace::start_forced(op).expect("no trace active on this thread");
    f(&mut ctx).unwrap_or_else(|e| panic!("{op}: {e}"));
    let t = guard.finish();
    let chain: Vec<&str> = t
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Rpc)
        .map(|s| s.op.as_str())
        .collect();
    let (rpcs, nanos) = (ctx.rpcs, ctx.total_nanos());
    format!("{op}: {rpcs} rpcs, {nanos} ns: {}", chain.join(" "))
}

/// `(entries, nlink)` of `path`.
fn counts(svc: &dyn MetadataService, path: &str) -> (i64, i64) {
    let attrs = svc.dirstat(&p(path), &mut RequestCtx::new()).unwrap().attrs;
    (attrs.entries, attrs.nlink)
}

/// The script every system runs: each write op once, both rename shapes.
fn write_script(svc: &dyn MetadataService) -> Vec<String> {
    let sys = svc.name();
    let mut pins = vec![
        measured("mkdir /a", |c| svc.mkdir(&p("/a"), c).map(|_| ())),
        measured("mkdir /b", |c| svc.mkdir(&p("/b"), c).map(|_| ())),
        measured("mkdir /a/d", |c| svc.mkdir(&p("/a/d"), c).map(|_| ())),
        measured("create /a/d/o", |c| {
            svc.create(&p("/a/d/o"), 7, c).map(|_| ())
        }),
    ];
    assert_eq!(counts(svc, "/a/d"), (1, 2), "{sys}");
    pins.push(measured("delete /a/d/o", |c| svc.delete(&p("/a/d/o"), c)));
    assert_eq!(counts(svc, "/a/d"), (0, 2), "{sys}");
    pins.push(measured("rename /a/d /a/e", |c| {
        svc.rename_dir(&p("/a/d"), &p("/a/e"), c)
    }));
    assert_eq!(counts(svc, "/a"), (1, 3), "{sys}");
    pins.push(measured("rename /a/e /b/f", |c| {
        svc.rename_dir(&p("/a/e"), &p("/b/f"), c)
    }));
    assert_eq!(counts(svc, "/a"), (0, 2), "{sys}");
    assert_eq!(counts(svc, "/b"), (1, 3), "{sys}");
    pins.push(measured("rmdir /b/f", |c| svc.rmdir(&p("/b/f"), c)));
    assert_eq!(counts(svc, "/a"), (0, 2), "{sys}");
    assert_eq!(counts(svc, "/b"), (0, 2), "{sys}");
    assert_eq!(counts(svc, "/"), (2, 4), "{sys}");
    pins
}

fn mantle() -> Arc<MantleCluster> {
    let mut config = MantleConfig::with_sim(SimConfig::default(), 4);
    config.pcache = PathLeaseConfig::default();
    MantleCluster::with_config(config)
}

fn tectonic(transactional: bool) -> Arc<Tectonic> {
    Tectonic::new(
        SimConfig::default(),
        TectonicOptions {
            transactional,
            ..TectonicOptions::default()
        },
    )
}

fn infinifs() -> Arc<InfiniFs> {
    InfiniFs::with_path_cache(
        SimConfig::default(),
        InfiniFsOptions::default(),
        PathLeaseConfig::default(),
    )
}

fn locofs() -> Arc<LocoFs> {
    LocoFs::new(SimConfig::default(), LocoFsOptions::default())
}

const MANTLE: &[&str] = &[
    "mkdir /a: 6 rpcs, 1330000 ns: resolve txn_prepare txn_prepare txn_commit txn_commit index_propose",
    "mkdir /b: 7 rpcs, 1535000 ns: read_index resolve txn_prepare txn_prepare txn_commit txn_commit index_propose",
    "mkdir /a/d: 7 rpcs, 1537000 ns: read_index resolve txn_prepare txn_prepare txn_commit txn_commit index_propose",
    "create /a/d/o: 2 rpcs, 514000 ns: resolve txn_1shard",
    "delete /a/d/o: 4 rpcs, 924000 ns: read_index resolve get_entry txn_1shard",
    "rename /a/d /a/e: 3 rpcs, 1319000 ns: rename_prepare txn_1shard index_propose",
    "rename /a/e /b/f: 6 rpcs, 1634000 ns: rename_prepare txn_prepare txn_prepare txn_commit txn_commit index_propose",
    "rmdir /b/f: 9 rpcs, 1951000 ns: read_index resolve read_index resolve txn_prepare txn_prepare txn_commit txn_commit index_propose",
];

const TECTONIC_RELAXED: &[&str] = &[
    "mkdir /a: 3 rpcs, 915000 ns: insert_row insert_row update_attr",
    "mkdir /b: 3 rpcs, 915000 ns: insert_row insert_row update_attr",
    "mkdir /a/d: 4 rpcs, 1120000 ns: get_entry insert_row insert_row update_attr",
    "create /a/d/o: 4 rpcs, 1020000 ns: get_entry get_entry insert_row update_attr",
    "delete /a/d/o: 5 rpcs, 1225000 ns: get_entry get_entry get_entry delete_row update_attr",
    "rename /a/d /a/e: 6 rpcs, 1530000 ns: get_entry get_entry get_entry insert_row delete_row update_attr",
    "rename /a/e /b/f: 7 rpcs, 1835000 ns: get_entry get_entry get_entry insert_row delete_row update_attr update_attr",
    "rmdir /b/f: 6 rpcs, 1530000 ns: get_entry get_entry readdir delete_row delete_row update_attr",
];

const TECTONIC_TRANSACTIONAL: &[&str] = &[
    "mkdir /a: 4 rpcs, 620000 ns: txn_prepare txn_prepare txn_commit txn_commit",
    "mkdir /b: 4 rpcs, 620000 ns: txn_prepare txn_prepare txn_commit txn_commit",
    "mkdir /a/d: 5 rpcs, 825000 ns: get_entry txn_prepare txn_prepare txn_commit txn_commit",
    "create /a/d/o: 4 rpcs, 1020000 ns: get_entry get_entry insert_row update_attr",
    "delete /a/d/o: 5 rpcs, 1225000 ns: get_entry get_entry get_entry delete_row update_attr",
    "rename /a/d /a/e: 4 rpcs, 920000 ns: get_entry get_entry get_entry txn_1shard",
    "rename /a/e /b/f: 7 rpcs, 1235000 ns: get_entry get_entry get_entry txn_prepare txn_prepare txn_commit txn_commit",
    "rmdir /b/f: 6 rpcs, 1530000 ns: get_entry get_entry readdir delete_row delete_row update_attr",
];

const INFINIFS: &[&str] = &[
    "mkdir /a: 3 rpcs, 915000 ns: insert_row insert_row update_attr",
    "mkdir /b: 3 rpcs, 915000 ns: insert_row insert_row update_attr",
    "mkdir /a/d: 4 rpcs, 1120000 ns: get_entry insert_row insert_row update_attr",
    "create /a/d/o: 4 rpcs, 820000 ns: get_entry get_entry insert_row update_attr",
    "delete /a/d/o: 5 rpcs, 1025000 ns: get_entry get_entry get_entry delete_row update_attr",
    "rename /a/d /a/e: 6 rpcs, 1125000 ns: get_entry get_entry coordinator_lock get_entry txn_1shard coordinator_unlock",
    "rename /a/e /b/f: 6 rpcs, 1125000 ns: get_entry get_entry coordinator_lock get_entry txn_1shard coordinator_unlock",
    "rmdir /b/f: 6 rpcs, 1530000 ns: get_entry get_entry readdir delete_row delete_row update_attr",
];

const LOCOFS: &[&str] = &[
    "mkdir /a: 2 rpcs, 710000 ns: dir_rpc get_entry",
    "mkdir /b: 2 rpcs, 710000 ns: dir_rpc get_entry",
    "mkdir /a/d: 2 rpcs, 712000 ns: dir_rpc get_entry",
    "create /a/d/o: 3 rpcs, 1019000 ns: dir_rpc insert_row dir_rpc",
    "delete /a/d/o: 4 rpcs, 1224000 ns: dir_rpc get_entry delete_row dir_rpc",
    // Parent: "1 rpcs, 509000 ns: dir_rpc" — the object-DB check was a free
    // `raw_get`; PR 19 made it the `get_entry` RPC `mkdir` pays (+1 RTT).
    "rename /a/d /a/e: 2 rpcs, 714000 ns: dir_rpc get_entry",
    "rename /a/e /b/f: 2 rpcs, 714000 ns: dir_rpc get_entry",
    "rmdir /b/f: 1 rpcs, 507000 ns: dir_rpc",
];

#[test]
fn mantle_write_paths_are_pinned() {
    assert_eq!(write_script(&*mantle()), MANTLE);
}

#[test]
fn tectonic_relaxed_write_paths_are_pinned() {
    assert_eq!(write_script(&*tectonic(false)), TECTONIC_RELAXED);
}

#[test]
fn tectonic_transactional_write_paths_are_pinned() {
    assert_eq!(write_script(&*tectonic(true)), TECTONIC_TRANSACTIONAL);
}

#[test]
fn infinifs_write_paths_are_pinned() {
    assert_eq!(write_script(&*infinifs()), INFINIFS);
}

#[test]
fn locofs_write_paths_are_pinned() {
    assert_eq!(write_script(&*locofs()), LOCOFS);
}

/// What a client can see of the small tree, ids and times aside.
fn visible(svc: &dyn MetadataService) -> Vec<String> {
    let mut ctx = RequestCtx::new();
    let mut out = Vec::new();
    for dir in ["/", "/t", "/t/x", "/t/x/deep", "/t/y"] {
        let attrs = svc.dirstat(&p(dir), &mut ctx).unwrap().attrs;
        let names: Vec<String> = svc
            .readdir(&p(dir), &mut ctx)
            .unwrap()
            .into_iter()
            .map(|e| {
                let kind = match e.kind {
                    EntryKind::Dir => 'd',
                    EntryKind::Object => 'o',
                };
                format!("{kind}:{}", e.name)
            })
            .collect();
        out.push(format!(
            "{dir} entries={} nlink={} [{}]",
            attrs.entries,
            attrs.nlink,
            names.join(" ")
        ));
    }
    for obj in ["/t/x/o1", "/t/x/o2", "/t/y/o3"] {
        let o = svc.objstat(&p(obj), &mut ctx).unwrap();
        out.push(format!(
            "{obj} name={} size={} perm={:?}",
            o.name, o.size, o.permission
        ));
    }
    out
}

fn assert_loader_matches_live<S: MetadataService + BulkLoad>(fresh: impl Fn() -> Arc<S>) {
    let loaded = fresh();
    loaded.bulk_dir(&p("/t/x/deep"));
    loaded.bulk_object(&p("/t/x/o1"), 5);
    loaded.bulk_object(&p("/t/x/o2"), 6);
    // The loader creates an object's missing ancestors itself.
    loaded.bulk_object(&p("/t/y/o3"), 7);

    let live = fresh();
    let mut ctx = RequestCtx::new();
    for dir in ["/t", "/t/x", "/t/x/deep", "/t/y"] {
        live.mkdir(&p(dir), &mut ctx).unwrap();
    }
    for (obj, size) in [("/t/x/o1", 5), ("/t/x/o2", 6), ("/t/y/o3", 7)] {
        live.create(&p(obj), size, &mut ctx).unwrap();
    }
    assert_eq!(visible(&*loaded), visible(&*live), "{}", live.name());
}

#[test]
fn bulk_loaded_and_live_built_trees_answer_alike() {
    assert_loader_matches_live(mantle);
    assert_loader_matches_live(|| tectonic(false));
    assert_loader_matches_live(|| tectonic(true));
    assert_loader_matches_live(infinifs);
    assert_loader_matches_live(locofs);
}
