//! Permission changes (`setattr`): persistence, aggregation along paths,
//! and cache invalidation (§5.1.2 lists setattr with dirrename as the
//! RemovalList-protected modifications).

use mantle::obs::trace::{self, SpanKind};
use mantle::prelude::*;
use mantle::tafdb::{entry_key, Row, TxnOp};
use mantle::types::clock::TimeCategory;

fn p(s: &str) -> MetaPath {
    MetaPath::parse(s).unwrap()
}

#[test]
fn setattr_changes_aggregated_permissions() {
    let cluster = MantleCluster::build(SimConfig::instant(), 4);
    let svc = cluster.service();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/a"), &mut stats).unwrap();
    svc.mkdir(&p("/a/b"), &mut stats).unwrap();
    svc.mkdir(&p("/a/b/c"), &mut stats).unwrap();
    svc.create(&p("/a/b/c/o"), 1, &mut stats).unwrap();

    // Remove traversal from /a/b: everything beneath becomes unreachable.
    cluster
        .setattr(&p("/a/b"), Permission(0b110), &mut stats)
        .unwrap();
    assert!(matches!(
        svc.lookup(&p("/a/b/c"), &mut stats),
        Err(MetaError::PermissionDenied(_))
    ));
    assert!(matches!(
        svc.objstat(&p("/a/b/c/o"), &mut stats),
        Err(MetaError::PermissionDenied(_))
    ));
    // /a/b itself still resolves; its own mask lost EXEC.
    let resolved = svc.lookup(&p("/a/b"), &mut stats).unwrap();
    assert!(!resolved.permission.allows(Permission::EXEC));

    // Restore and everything comes back.
    cluster
        .setattr(&p("/a/b"), Permission::ALL, &mut stats)
        .unwrap();
    assert_eq!(svc.objstat(&p("/a/b/c/o"), &mut stats).unwrap().size, 1);
}

#[test]
fn setattr_invalidates_warm_cache_on_every_replica() {
    let mut config = MantleConfig::with_sim(SimConfig::instant(), 4);
    config.index.k = 1;
    config.index.learners = 1;
    let cluster = MantleCluster::with_config(config);
    let svc = cluster.service();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/a"), &mut stats).unwrap();
    svc.mkdir(&p("/a/b"), &mut stats).unwrap();
    svc.mkdir(&p("/a/b/c"), &mut stats).unwrap();

    // Warm every replica's cache through round-robin lookups.
    for _ in 0..12 {
        svc.lookup(&p("/a/b/c"), &mut stats).unwrap();
    }
    assert!(cluster.index().cache_stats().iter().any(|s| s.entries > 0));

    cluster
        .setattr(&p("/a"), Permission(0b110), &mut stats)
        .unwrap();
    // No replica may serve the stale aggregated permission.
    for _ in 0..12 {
        assert!(matches!(
            svc.lookup(&p("/a/b/c"), &mut stats),
            Err(MetaError::PermissionDenied(_))
        ));
    }
}

#[test]
fn setattr_on_missing_or_object_path_fails() {
    let cluster = MantleCluster::build(SimConfig::instant(), 4);
    let svc = cluster.service();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/d"), &mut stats).unwrap();
    svc.create(&p("/d/o"), 1, &mut stats).unwrap();
    assert!(matches!(
        cluster.setattr(&p("/ghost"), Permission::ALL, &mut stats),
        Err(MetaError::NotFound(_))
    ));
    // Objects have no directory access metadata to update.
    assert!(matches!(
        cluster.setattr(&p("/d/o"), Permission::ALL, &mut stats),
        Err(MetaError::NotADirectory(_))
    ));
}

/// The permission matrix of the namespace operations, decided on the
/// resolved mask (`ResolvedPath::require`): a refusal spends no TafDB RPC
/// and changes nothing. Under an `r-x` parent every namespace write —
/// `rename_dir` out of it and into it included — is refused and every read
/// served; under a `-wx` directory the reads that need `READ` are refused.
#[test]
fn permission_matrix_is_decided_on_the_resolved_mask() {
    type Op = fn(&MantleCluster, &mut RequestCtx) -> Result<(), MetaError>;
    let cluster = MantleCluster::build(SimConfig::instant(), 4);
    let mut stats = RequestCtx::new();
    for dir in ["/d", "/d/x", "/e", "/e/y", "/w"] {
        cluster.mkdir(&p(dir), &mut stats).unwrap();
    }
    for object in ["/d/o", "/w/o"] {
        cluster.create(&p(object), 1, &mut stats).unwrap();
    }
    let set = |dir: &str, mask: u16| {
        cluster
            .setattr(&p(dir), Permission(mask), &mut RequestCtx::new())
            .unwrap();
    };
    set("/d", 0b101);
    set("/w", 0b011);
    let dirstats = |stats: &mut RequestCtx| {
        ["/d", "/e"].map(|dir| cluster.dirstat(&p(dir), stats).unwrap().attrs)
    };
    let before = dirstats(&mut stats);

    let matrix: [(&str, bool, Op); 12] = [
        ("mkdir under r-x", false, |c, s| {
            c.mkdir(&p("/d/new"), s).map(|_| ())
        }),
        ("create under r-x", false, |c, s| {
            c.create(&p("/d/o2"), 1, s).map(|_| ())
        }),
        ("delete under r-x", false, |c, s| c.delete(&p("/d/o"), s)),
        ("rmdir under r-x", false, |c, s| c.rmdir(&p("/d/x"), s)),
        ("rename out of r-x", false, |c, s| {
            c.rename_dir(&p("/d/x"), &p("/e/x"), s)
        }),
        ("rename into r-x", false, |c, s| {
            c.rename_dir(&p("/e/y"), &p("/d/y"), s)
        }),
        ("lookup under r-x", true, |c, s| {
            c.lookup(&p("/d/x"), s).map(|_| ())
        }),
        ("objstat under r-x", true, |c, s| {
            c.objstat(&p("/d/o"), s).map(|_| ())
        }),
        ("dirstat of r-x", true, |c, s| {
            c.dirstat(&p("/d"), s).map(|_| ())
        }),
        ("readdir of -wx", false, |c, s| {
            c.readdir(&p("/w"), s).map(|_| ())
        }),
        ("list of -wx", false, |c, s| {
            c.list(&p("/w"), None, 10, s).map(|_| ())
        }),
        ("objstat under -wx", false, |c, s| {
            c.objstat(&p("/w/o"), s).map(|_| ())
        }),
    ];
    for (what, allowed, op) in matrix {
        let guard = trace::start_forced("matrix").expect("no trace active on this thread");
        let got = op(&cluster, &mut stats);
        let t = guard.finish();
        if allowed {
            assert_eq!(got, Ok(()), "{what}");
            continue;
        }
        assert!(
            matches!(got, Err(MetaError::PermissionDenied(_))),
            "{what}: {got:?}"
        );
        let tafdb_rpcs = t
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Rpc && s.node.starts_with("tafdb"))
            .count();
        assert_eq!(tafdb_rpcs, 0, "{what}: {}", t.render());
    }

    // Nothing refused left a mark: both rename sources still resolve where
    // they were, and neither parent's attributes moved.
    cluster.lookup(&p("/d/x"), &mut stats).unwrap();
    cluster.lookup(&p("/e/y"), &mut stats).unwrap();
    assert_eq!(dirstats(&mut stats), before);

    // Everything refused for want of WRITE goes through once it is back.
    set("/d", 0b111);
    cluster.delete(&p("/d/o"), &mut stats).unwrap();
    cluster
        .rename_dir(&p("/d/x"), &p("/e/x"), &mut stats)
        .unwrap();
    cluster
        .rename_dir(&p("/e/y"), &p("/d/y"), &mut stats)
        .unwrap();
}

/// The TafDB half of `setattr` goes through the request plane: one
/// single-shard transaction (row lock, engine write, WAL append) and no
/// separate read.
#[test]
fn setattr_is_one_locked_logged_tafdb_write() {
    let cluster = MantleCluster::build(SimConfig::default(), 4);
    cluster.mkdir(&p("/d"), &mut RequestCtx::new()).unwrap();
    let committed = cluster.db().counters().txns_committed;

    let guard = trace::start_forced("setattr").expect("no trace active on this thread");
    cluster
        .setattr(&p("/d"), Permission(0b110), &mut RequestCtx::new())
        .unwrap();
    let t = guard.finish();
    let tafdb: Vec<_> = t
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Rpc && s.node.starts_with("tafdb"))
        .collect();
    assert_eq!(tafdb.len(), 1, "{}", t.render());
    assert_eq!(tafdb[0].op, "txn_1shard", "{}", t.render());
    assert_eq!(
        tafdb[0].phases.count(TimeCategory::Fsync),
        1,
        "one WAL fsync"
    );
    assert_eq!(cluster.db().counters().txns_committed, committed + 1);
}

/// `setattr` takes the entry's exclusive row lock: it cannot slip between
/// an `rmdir`'s prepare and commit, and once the entry is gone it reports
/// that instead of writing the row back.
#[test]
fn setattr_waits_out_a_prepared_delete_and_cannot_resurrect_the_entry() {
    let cluster = MantleCluster::build(SimConfig::instant(), 4);
    let db = cluster.db();
    cluster.mkdir(&p("/d"), &mut RequestCtx::new()).unwrap();
    let entry = entry_key(cluster.root(), "d");
    let before = db.raw_get(&entry);
    assert!(matches!(before, Some(Row::DirAccess { .. })));

    let delete = [TxnOp::Delete { key: entry.clone() }];
    let removal = db
        .prepare(db.begin(), &delete, &mut RequestCtx::new())
        .unwrap();
    // No retry budget, so the conflict surfaces instead of being retried.
    let mut no_retry = RequestCtx::new().with_budget(0);
    assert!(matches!(
        cluster.setattr(&p("/d"), Permission(0b110), &mut no_retry),
        Err(MetaError::TxnConflict { .. })
    ));
    assert_eq!(db.raw_get(&entry), before, "a refused setattr wrote");

    db.commit(removal, &mut RequestCtx::new());
    assert!(matches!(
        cluster.setattr(&p("/d"), Permission(0b110), &mut RequestCtx::new()),
        Err(MetaError::NotFound(_))
    ));
    assert_eq!(db.raw_get(&entry), None, "setattr resurrected the entry");
}
