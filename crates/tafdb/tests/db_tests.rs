//! TafDB behaviour tests: transactions, contention, delta records,
//! compaction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mantle_tafdb::{attr_key, entry_key, EngineKind, Row, TafDb, TafDbOptions, TxnOp};
use mantle_types::{
    AttrDelta, DirAttrMeta, InodeId, MetaError, Permission, RequestCtx, SimConfig, ROOT_ID,
};

fn db_with(opts: TafDbOptions) -> Arc<TafDb> {
    TafDb::new(SimConfig::instant(), opts)
}

fn db() -> Arc<TafDb> {
    db_with(TafDbOptions::default())
}

/// Seeds one row through the loader's door.
fn put(db: &TafDb, key: mantle_store::RowKey, row: Row) {
    db.bulk_apply([TxnOp::Put { key, row }]);
}

#[test]
fn mkdir_txn_commits_all_rows() {
    let db = db();
    let mut stats = RequestCtx::new();
    let ops = vec![
        TxnOp::InsertUnique {
            key: entry_key(ROOT_ID, "a"),
            row: Row::DirAccess {
                id: InodeId(100),
                permission: Permission::ALL,
            },
        },
        TxnOp::Put {
            key: attr_key(InodeId(100)),
            row: Row::DirAttr(DirAttrMeta::new(1, 0)),
        },
        TxnOp::AttrUpdate {
            dir: ROOT_ID,
            delta: AttrDelta {
                nlink: 1,
                entries: 1,
                mtime: 1,
            },
        },
    ];
    db.execute(&ops, &mut stats).unwrap();
    assert!(db.raw_get(&entry_key(ROOT_ID, "a")).is_some());
    assert!(db.raw_get(&attr_key(InodeId(100))).is_some());
    let attrs = db.dir_stat(ROOT_ID, &mut stats).unwrap();
    assert_eq!(attrs.nlink, 3);
    assert_eq!(attrs.entries, 1);
    assert_eq!(db.counters().txns_committed, 1);
}

#[test]
fn duplicate_insert_fails_with_already_exists() {
    let db = db();
    let mut stats = RequestCtx::new();
    let op = |id: u64| {
        vec![TxnOp::InsertUnique {
            key: entry_key(ROOT_ID, "dup"),
            row: Row::DirAccess {
                id: InodeId(id),
                permission: Permission::ALL,
            },
        }]
    };
    db.execute(&op(1), &mut stats).unwrap();
    match db.execute(&op(2), &mut stats) {
        Err(MetaError::AlreadyExists(_)) => {}
        other => panic!("expected AlreadyExists, got {other:?}"),
    }
}

#[test]
fn attr_update_on_missing_dir_is_not_found() {
    let db = db();
    let mut stats = RequestCtx::new();
    let ops = vec![TxnOp::AttrUpdate {
        dir: InodeId(999),
        delta: AttrDelta {
            nlink: 1,
            entries: 1,
            mtime: 0,
        },
    }];
    assert!(matches!(
        db.execute(&ops, &mut stats),
        Err(MetaError::NotFound(_))
    ));
}

#[test]
fn cross_shard_txn_uses_two_phase_commit() {
    let db = db();
    let mut stats = RequestCtx::new();
    // Find two directories living on different shards.
    let a = InodeId(2);
    let b = (3..100)
        .map(InodeId)
        .find(|x| db.shard_of(*x) != db.shard_of(a))
        .expect("some id maps to a different shard");
    put(&db, attr_key(a), Row::DirAttr(DirAttrMeta::new(0, 0)));
    put(&db, attr_key(b), Row::DirAttr(DirAttrMeta::new(0, 0)));

    let before = stats.rpcs;
    let ops = vec![
        TxnOp::AttrUpdate {
            dir: a,
            delta: AttrDelta {
                nlink: 0,
                entries: 1,
                mtime: 5,
            },
        },
        TxnOp::AttrUpdate {
            dir: b,
            delta: AttrDelta {
                nlink: 0,
                entries: 1,
                mtime: 5,
            },
        },
    ];
    db.execute(&ops, &mut stats).unwrap();
    // 2 shards x (prepare + commit) = 4 RPCs.
    assert_eq!(stats.rpcs - before, 4);
    assert_eq!(db.dir_stat(a, &mut stats).unwrap().entries, 1);
    assert_eq!(db.dir_stat(b, &mut stats).unwrap().entries, 1);
}

/// Phase 2 is must-deliver: commit messages lost to a drop storm or
/// stopped by a partition are re-sent until every participant applied its
/// writes exactly once and released its locks.
#[test]
fn lost_commit_messages_are_resent_until_applied_exactly_once() {
    use mantle_rpc::{FaultPlan, FaultProfile};
    use mantle_types::RetryClass;

    let db = db_with(TafDbOptions {
        delta_records: false,
        ..TafDbOptions::default()
    });
    let a = InodeId(2);
    let b = (3..100)
        .map(InodeId)
        .find(|x| db.shard_of(*x) != db.shard_of(a))
        .expect("some id maps to a different shard");
    put(&db, attr_key(a), Row::DirAttr(DirAttrMeta::new(0, 0)));
    put(&db, attr_key(b), Row::DirAttr(DirAttrMeta::new(0, 0)));
    let bump = |dir| TxnOp::AttrUpdate {
        dir,
        delta: AttrDelta {
            nlink: 0,
            entries: 1,
            mtime: 5,
        },
    };
    let ops = [bump(a), bump(b)];

    // Drop storm: half of all requests to every shard are lost.
    let mut profile = FaultProfile::zeroed();
    profile.rpc_drop_prob = 0.5;
    let plan = FaultPlan::new(3, profile);
    db.install_faults(Some(plan.clone()));
    const TXNS: u64 = 20;
    let mut stats = RequestCtx::new();
    for _ in 0..TXNS {
        db.execute(&ops, &mut stats).unwrap();
    }
    assert!(
        stats.retry_count(RetryClass::Transient) > 0,
        "the storm never hit a commit message"
    );

    // Partition: the decision is made while both participants are cut off;
    // commit waits for the heal instead of delivering through the cut.
    db.install_faults(Some(FaultPlan::new(4, FaultProfile::zeroed())));
    let plan = db.shard_node(0).faults().expect("plan installed");
    let prepared = db.prepare(db.begin(), &ops, &mut stats).unwrap();
    plan.partition("client", "tafdb*");
    let mut commit_stats = RequestCtx::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            plan.heal_all();
        });
        db.commit(prepared, &mut commit_stats);
    });
    assert!(
        commit_stats.retry_count(RetryClass::Transient) > 0,
        "commit was delivered through the partition"
    );
    db.install_faults(None);

    // Exactly once, everywhere.
    let total = TXNS as i64 + 1;
    assert_eq!(db.dir_stat(a, &mut stats).unwrap().entries, total);
    assert_eq!(db.dir_stat(b, &mut stats).unwrap().entries, total);
    assert_eq!(db.counters().txns_committed, TXNS + 1);

    // Every lock released: with no-wait locks and no retries allowed, a
    // leaked lock would surface as a conflict.
    let mut strict = RequestCtx::new().with_budget(0);
    db.execute(&ops, &mut strict).unwrap();
    assert_eq!(strict.total_retries(), 0);
}

#[test]
fn single_shard_txn_is_one_rpc() {
    let db = db();
    let mut stats = RequestCtx::new();
    let ops = vec![TxnOp::AttrUpdate {
        dir: ROOT_ID,
        delta: AttrDelta {
            nlink: 0,
            entries: 0,
            mtime: 9,
        },
    }];
    db.execute(&ops, &mut stats).unwrap();
    assert_eq!(stats.rpcs, 1);
}

const BUMP_ROOT: TxnOp = TxnOp::AttrUpdate {
    dir: ROOT_ID,
    delta: AttrDelta {
        nlink: 0,
        entries: 1,
        mtime: 1,
    },
};

/// Staged contention on the root attribute row: a prepared transaction
/// holds the row's (shared) lock, so a contending `AttrUpdate` — which
/// wants it exclusively — aborts on every cold attempt. Returns the db,
/// the still-prepared holder, the contender's outcome and its ctx.
fn contend_on_held_attr_row(
    delta_records: bool,
) -> (
    Arc<TafDb>,
    mantle_tafdb::Prepared,
    Result<mantle_types::TxnId, MetaError>,
    RequestCtx,
) {
    let db = db_with(TafDbOptions {
        delta_records,
        delta_abort_threshold: 2,
        max_txn_retries: 10,
        // The abort window and the compactor run on real time; keep both
        // out of the staging.
        hot_window: std::time::Duration::from_secs(3600),
        compact_interval: std::time::Duration::from_secs(3600),
        ..TafDbOptions::default()
    });
    let mut holder_ctx = RequestCtx::new();
    let holder = db
        .prepare(
            db.begin(),
            &[TxnOp::ExpectExists {
                key: attr_key(ROOT_ID),
            }],
            &mut holder_ctx,
        )
        .unwrap();
    let mut ctx = RequestCtx::new();
    let outcome = db.execute(&[BUMP_ROOT], &mut ctx);
    (db, holder, outcome, ctx)
}

#[test]
fn contention_activates_delta_records_and_compaction_folds() {
    use mantle_types::RetryClass;

    let (db, holder, outcome, ctx) = contend_on_held_attr_row(true);
    // Exactly `delta_abort_threshold` cold attempts abort; that turns the
    // directory hot, and the next attempt commits as a delta record under
    // the lock that is still held.
    outcome.unwrap();
    assert_eq!(ctx.retry_count(RetryClass::Txn), 2);
    let counters = db.counters();
    assert_eq!(counters.txns_aborted, 2);
    assert_eq!(counters.delta_appends, 1);
    assert_eq!(counters.inplace_updates, 0);
    assert_eq!(db.pending_deltas(ROOT_ID), 1);

    // Hot mode persists: further updates append without a single abort.
    let mut stats = RequestCtx::new();
    for _ in 0..5 {
        db.execute(&[BUMP_ROOT], &mut stats).unwrap();
    }
    assert_eq!(stats.total_retries(), 0);
    assert_eq!(db.counters().delta_appends, 6);
    db.commit(holder, &mut stats);

    // dirstat merges base + outstanding deltas: the count is exact
    // regardless of compaction progress.
    assert_eq!(db.dir_stat(ROOT_ID, &mut stats).unwrap().entries, 6);

    // After an explicit fold, no deltas remain and the stat is unchanged.
    db.compact_once();
    assert_eq!(db.pending_deltas(ROOT_ID), 0);
    assert_eq!(db.dir_stat(ROOT_ID, &mut stats).unwrap().entries, 6);
    assert_eq!(db.counters().compactions, 1);
}

#[test]
fn delta_disabled_keeps_conflicting_but_stays_correct() {
    use mantle_types::RetryClass;

    // Same staging, delta records off: the contender never leaves the cold
    // path, so it conflicts on every attempt until its retries run out.
    let (db, holder, outcome, ctx) = contend_on_held_attr_row(false);
    assert_eq!(outcome, Err(MetaError::TxnConflict { retries: 10 }));
    assert_eq!(ctx.retry_count(RetryClass::Txn), 10);
    let counters = db.counters();
    assert_eq!(counters.txns_aborted, 11);
    assert_eq!(counters.delta_appends, 0);

    // Once the holder lets go the same update goes through, in place.
    let mut stats = RequestCtx::new();
    db.commit(holder, &mut stats);
    db.execute(&[BUMP_ROOT], &mut stats).unwrap();
    assert_eq!(stats.total_retries(), 0);
    assert_eq!(db.counters().inplace_updates, 1);

    // Concurrent updaters stay exact with or without delta records.
    for delta_records in [true, false] {
        let db = db_with(TafDbOptions {
            delta_records,
            delta_abort_threshold: 2,
            ..TafDbOptions::default()
        });
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut stats = RequestCtx::new();
                    for _ in 0..30 {
                        db.execute(&[BUMP_ROOT], &mut stats).unwrap();
                    }
                });
            }
        });
        let mut stats = RequestCtx::new();
        assert_eq!(db.dir_stat(ROOT_ID, &mut stats).unwrap().entries, 240);
    }
}

#[test]
fn rmdir_deletes_attr_row_and_lingering_deltas() {
    let db = db();
    let mut stats = RequestCtx::new();
    let dir = InodeId(50);
    put(
        &db,
        entry_key(ROOT_ID, "d"),
        Row::DirAccess {
            id: dir,
            permission: Permission::ALL,
        },
    );
    put(&db, attr_key(dir), Row::DirAttr(DirAttrMeta::new(0, 0)));
    // Simulate lingering (committed) deltas.
    put(
        &db,
        mantle_store::RowKey::delta(dir, "/_ATTR", mantle_types::TxnId(77)),
        Row::Delta(AttrDelta {
            nlink: 1,
            entries: 1,
            mtime: 0,
        }),
    );
    assert_eq!(db.pending_deltas(dir), 1);

    let ops = vec![
        TxnOp::Delete { key: attr_key(dir) },
        TxnOp::ExpectEmptyDir { dir },
        TxnOp::Delete {
            key: entry_key(ROOT_ID, "d"),
        },
    ];
    db.execute(&ops, &mut stats).unwrap();
    assert!(db.raw_get(&attr_key(dir)).is_none());
    assert_eq!(db.pending_deltas(dir), 0);
    assert!(db.raw_get(&entry_key(ROOT_ID, "d")).is_none());
}

const ENGINES: [EngineKind; 2] = [EngineKind::Btree, EngineKind::Mvcc];

/// The emptiness check reads the first row on either side of the
/// directory's attribute rows: `-x` sorts before `/_ATTR`, `zz` after.
#[test]
fn expect_empty_dir_blocks_rmdir_of_populated_dir() {
    for (engine, child) in ENGINES.into_iter().flat_map(|e| [(e, "-x"), (e, "zz")]) {
        let db = db_with(TafDbOptions {
            engine,
            ..TafDbOptions::default()
        });
        let mut stats = RequestCtx::new();
        let dir = InodeId(60);
        put(&db, attr_key(dir), Row::DirAttr(DirAttrMeta::new(0, 0)));
        put(
            &db,
            entry_key(dir, child),
            Row::DirAccess {
                id: InodeId(61),
                permission: Permission::ALL,
            },
        );
        let ops = vec![
            TxnOp::Delete { key: attr_key(dir) },
            TxnOp::ExpectEmptyDir { dir },
        ];
        assert!(
            matches!(db.execute(&ops, &mut stats), Err(MetaError::NotEmpty(_))),
            "{}: only child {child:?}",
            engine.name()
        );
        // The abort released locks; the attr row survives.
        assert!(db.raw_get(&attr_key(dir)).is_some());
    }
}

/// A directory holding only its attribute row and delta records is empty,
/// with the neighbouring directories' rows right before and behind them
/// (one shard, so the neighbours share an engine).
#[test]
fn expect_empty_dir_passes_over_attr_and_delta_rows() {
    for engine in ENGINES {
        let db = db_with(TafDbOptions {
            engine,
            n_shards: 1,
            ..TafDbOptions::default()
        });
        let mut stats = RequestCtx::new();
        let dir = InodeId(60);
        put(&db, attr_key(dir), Row::DirAttr(DirAttrMeta::new(0, 0)));
        for ts in [7, 8, 9] {
            put(
                &db,
                mantle_store::RowKey::delta(dir, "/_ATTR", mantle_types::TxnId(ts)),
                Row::Delta(AttrDelta::default()),
            );
        }
        for (neighbour, name) in [(59, "zz"), (61, "")] {
            put(
                &db,
                entry_key(InodeId(neighbour), name),
                Row::DirAttr(DirAttrMeta::new(0, 0)),
            );
        }
        let ops = vec![
            TxnOp::Delete { key: attr_key(dir) },
            TxnOp::ExpectEmptyDir { dir },
        ];
        db.execute(&ops, &mut stats).unwrap();
        assert!(db.raw_get(&attr_key(dir)).is_none(), "{}", engine.name());
        assert_eq!(db.pending_deltas(dir), 0);
    }
}

#[test]
fn readdir_lists_children_and_skips_attr_rows() {
    let db = db();
    let mut stats = RequestCtx::new();
    put(
        &db,
        entry_key(ROOT_ID, "dir1"),
        Row::DirAccess {
            id: InodeId(5),
            permission: Permission::ALL,
        },
    );
    put(
        &db,
        entry_key(ROOT_ID, "obj1"),
        Row::Object(mantle_types::ObjectMeta {
            pid: ROOT_ID,
            name: "obj1".into(),
            id: InodeId(6),
            size: 10,
            blob: 0,
            ctime: 0,
            permission: Permission::ALL,
        }),
    );
    let mut names: Vec<String> = db
        .readdir(ROOT_ID, &mut stats)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    names.sort();
    assert_eq!(names, vec!["dir1", "obj1"]);
}

#[test]
fn latched_update_serializes_without_aborts() {
    let db = db();
    let done = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for _ in 0..8 {
            let (db, done) = (&db, done.clone());
            s.spawn(move || {
                let mut stats = RequestCtx::new();
                for _ in 0..50 {
                    let bump = TxnOp::AttrUpdate {
                        dir: ROOT_ID,
                        delta: AttrDelta::entry_added(1),
                    };
                    db.execute_relaxed(&[bump], &mut stats).unwrap();
                    done.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    assert_eq!(done.load(Ordering::SeqCst), 400);
    let mut stats = RequestCtx::new();
    assert_eq!(db.dir_stat(ROOT_ID, &mut stats).unwrap().entries, 400);
    assert_eq!(db.counters().txns_aborted, 0);
    assert_eq!(db.counters().latched_updates, 400);
}

#[test]
fn insert_and_delete_row_roundtrip() {
    let db = db();
    let mut stats = RequestCtx::new();
    let key = entry_key(ROOT_ID, "x");
    let insert = |id| TxnOp::InsertUnique {
        key: key.clone(),
        row: Row::DirAccess {
            id: InodeId(id),
            permission: Permission::ALL,
        },
    };
    let delete = [TxnOp::Delete { key: key.clone() }];
    db.execute_relaxed(&[insert(9)], &mut stats).unwrap();
    assert!(matches!(
        db.execute_relaxed(&[insert(10)], &mut stats),
        Err(MetaError::AlreadyExists(_))
    ));
    db.execute_relaxed(&delete, &mut stats).unwrap();
    assert!(matches!(
        db.execute_relaxed(&delete, &mut stats),
        Err(MetaError::NotFound(_))
    ));
    // A check has no single-row form: refused, loudly, before any RPC.
    let rpcs = stats.rpcs;
    assert!(matches!(
        db.execute_relaxed(&[TxnOp::ExpectEmptyDir { dir: ROOT_ID }], &mut stats),
        Err(MetaError::Internal(_))
    ));
    assert_eq!(stats.rpcs, rpcs);
}

#[test]
fn resolve_step_distinguishes_kinds() {
    let db = db();
    let mut stats = RequestCtx::new();
    put(
        &db,
        entry_key(ROOT_ID, "d"),
        Row::DirAccess {
            id: InodeId(5),
            permission: Permission::ALL,
        },
    );
    put(
        &db,
        entry_key(ROOT_ID, "o"),
        Row::Object(mantle_types::ObjectMeta {
            pid: ROOT_ID,
            name: "o".into(),
            id: InodeId(6),
            size: 1,
            blob: 0,
            ctime: 0,
            permission: Permission::ALL,
        }),
    );
    assert_eq!(
        db.resolve_step(ROOT_ID, "d", &mut stats).unwrap().0,
        InodeId(5)
    );
    assert!(matches!(
        db.resolve_step(ROOT_ID, "o", &mut stats),
        Err(MetaError::NotADirectory(_))
    ));
    assert!(matches!(
        db.resolve_step(ROOT_ID, "zzz", &mut stats),
        Err(MetaError::NotFound(_))
    ));
    assert!(db.get_object(ROOT_ID, "o", &mut stats).is_ok());
    assert!(matches!(
        db.get_object(ROOT_ID, "d", &mut stats),
        Err(MetaError::IsADirectory(_))
    ));
}

#[test]
fn checkpoint_restore_round_trips_shard_state() {
    let db = db_with(TafDbOptions {
        n_shards: 1,
        ..TafDbOptions::default()
    });
    let mut stats = RequestCtx::new();
    let ops = vec![
        TxnOp::InsertUnique {
            key: entry_key(ROOT_ID, "kept"),
            row: Row::DirAccess {
                id: InodeId(100),
                permission: Permission::ALL,
            },
        },
        TxnOp::Put {
            key: attr_key(InodeId(100)),
            row: Row::DirAttr(DirAttrMeta::new(1, 0)),
        },
        TxnOp::AttrUpdate {
            dir: ROOT_ID,
            delta: AttrDelta {
                nlink: 1,
                entries: 1,
                mtime: 1,
            },
        },
    ];
    db.execute(&ops, &mut stats).unwrap();
    let before = db.dir_stat(ROOT_ID, &mut stats).unwrap();

    let (rows, failed) = db.checkpoint_all();
    assert!(failed.is_empty());
    assert!(rows > 0, "checkpoint captured no rows");

    // Mutate past the checkpoint, then restore: the later write vanishes,
    // the checkpointed state (including folded attributes) survives.
    db.execute(
        &[TxnOp::InsertUnique {
            key: entry_key(ROOT_ID, "after"),
            row: Row::DirAccess {
                id: InodeId(200),
                permission: Permission::ALL,
            },
        }],
        &mut stats,
    )
    .unwrap();
    assert!(db.raw_get(&entry_key(ROOT_ID, "after")).is_some());

    assert!(db.restore_shard(0));
    assert!(db.raw_get(&entry_key(ROOT_ID, "after")).is_none());
    assert!(db.raw_get(&entry_key(ROOT_ID, "kept")).is_some());
    let after = db.dir_stat(ROOT_ID, &mut stats).unwrap();
    assert_eq!(after.nlink, before.nlink);
    assert_eq!(after.entries, before.entries);
}

#[test]
fn aborted_checkpoint_leaves_previous_one_authoritative() {
    use mantle_rpc::faults::{FaultKind, FaultPlan, FaultProfile};

    let db = db_with(TafDbOptions {
        n_shards: 1,
        ..TafDbOptions::default()
    });
    let mut stats = RequestCtx::new();
    db.execute(
        &[TxnOp::InsertUnique {
            key: entry_key(ROOT_ID, "v1"),
            row: Row::DirAccess {
                id: InodeId(1),
                permission: Permission::ALL,
            },
        }],
        &mut stats,
    )
    .unwrap();
    let (_, failed) = db.checkpoint_all();
    assert!(failed.is_empty());

    db.execute(
        &[TxnOp::InsertUnique {
            key: entry_key(ROOT_ID, "v2"),
            row: Row::DirAccess {
                id: InodeId(2),
                permission: Permission::ALL,
            },
        }],
        &mut stats,
    )
    .unwrap();

    // The next checkpoint crashes mid-write: it must not replace the good
    // image, so restore falls back to the v1 state.
    let plan = FaultPlan::new(7, FaultProfile::zeroed());
    plan.force(FaultKind::SnapshotWrite, "tafdb0", 1);
    db.install_faults(Some(plan));
    let (_, failed) = db.checkpoint_all();
    assert_eq!(failed, vec![0]);
    db.install_faults(None);

    assert!(db.restore_shard(0));
    assert!(db.raw_get(&entry_key(ROOT_ID, "v1")).is_some());
    assert!(db.raw_get(&entry_key(ROOT_ID, "v2")).is_none());
}

#[test]
fn restore_without_checkpoint_is_refused() {
    let db = db_with(TafDbOptions {
        n_shards: 1,
        ..TafDbOptions::default()
    });
    assert!(!db.restore_shard(0));
}

#[test]
fn two_databases_count_alone_and_the_registry_series_sums_them() {
    let put = |db: &TafDb, name: &str| {
        let ops = [TxnOp::Put {
            key: entry_key(ROOT_ID, name),
            row: Row::DirAttr(DirAttrMeta::new(1, 0)),
        }];
        db.execute(&ops, &mut RequestCtx::new()).unwrap();
    };
    let series = || mantle_obs::snapshot().counter_total("tafdb_txns_committed_total");
    let before = series();
    let (a, b) = (db(), db());
    put(&a, "x");
    put(&a, "y");
    put(&b, "z");
    assert_eq!(a.counters().txns_committed, 2);
    assert_eq!(b.counters().txns_committed, 1);
    // The series is process-wide (other tests' databases commit too) and
    // keeps what a dropped database counted.
    assert!(series() >= before + 3);
    drop(a);
    assert!(series() >= before + 3);
    assert_eq!(b.counters().txns_committed, 1);
}

/// An object row keeps its name in its key only: `recipe::create` stores
/// it with an empty `name`, and `get_object` answers with the name it
/// probed by. A row stored with its name — the shape of a hand-built
/// `Row::Object`, as the repo benchmark's mirror writes — reads back the
/// same. Both survive a checkpoint restore and a split migration, on both
/// engines.
#[test]
fn object_rows_round_trip_without_a_stored_name() {
    use mantle_tafdb::shardmap::DIR_REGION_SPAN;
    use mantle_tafdb::{dir_region, place_of, recipe};
    use mantle_types::ObjectMeta;

    for engine in ENGINES {
        let db = db_with(TafDbOptions {
            engine,
            n_shards: 2,
            ..TafDbOptions::default()
        });
        let mut stats = RequestCtx::new();
        db.execute(
            &recipe::create(ROOT_ID, "made", InodeId(50), 4_096, 3, 7),
            &mut stats,
        )
        .unwrap();
        let named = ObjectMeta::new(ROOT_ID, "named", InodeId(51), 8, 0, 9);
        let [_, bump] = recipe::create(ROOT_ID, "named", InodeId(51), 8, 0, 9);
        let insert = TxnOp::InsertUnique {
            key: entry_key(ROOT_ID, "named"),
            row: Row::Object(named.clone()),
        };
        db.execute(&[insert, bump], &mut stats).unwrap();
        let want = [
            ObjectMeta::new(ROOT_ID, "made", InodeId(50), 4_096, 3, 7),
            named,
        ];
        let stored = db.raw_get(&entry_key(ROOT_ID, "made"));
        assert!(
            matches!(&stored, Some(Row::Object(o)) if o.name.is_empty()),
            "{}: {stored:?}",
            engine.name()
        );
        let read_back = |when: &str| {
            for want in &want {
                let got = db.get_object(ROOT_ID, &want.name, &mut RequestCtx::new());
                assert_eq!(got.as_ref(), Ok(want), "{} {when}", engine.name());
            }
        };
        read_back("as written");

        let (_, failed) = db.checkpoint_all();
        assert!(failed.is_empty());
        for i in 0..db.n_shards() {
            assert!(db.restore_shard(i));
        }
        read_back("after a restore");

        let (rs, _) = dir_region(ROOT_ID);
        assert!(db.split_range(rs, rs + DIR_REGION_SPAN / 2));
        for o in &want {
            let place = place_of(&entry_key(ROOT_ID, &o.name));
            let to = (db.shard_map().owner(place) + 1) % db.n_shards();
            db.migrate_range(place, to).unwrap();
            assert_eq!(db.shard_map().owner(place), to);
        }
        read_back("after a split migration");
    }
}

/// A shard image of objects created through the recipe holds each name
/// once, in its key: a shard stores a row as a `StoredRow`, which has no
/// name or `pid` to hold, and projected back from its key every object row
/// names the key's parent and has an empty `name`.
#[test]
fn object_images_carry_no_row_names() {
    use mantle_tafdb::{recipe, StoredRow};

    const N: u64 = 64;
    for engine in ENGINES {
        let store = engine.build::<StoredRow>();
        for i in 0..N {
            let [insert, _] = recipe::create(ROOT_ID, &format!("o{i}"), InodeId(100 + i), 1, 0, i);
            let TxnOp::InsertUnique { key, row } = insert else {
                unreachable!("create's first op inserts the object row")
            };
            store.put(key, StoredRow::from(&row));
        }
        let rows = mantle_engine::decode_image::<StoredRow>(&store.checkpoint()).unwrap();
        assert_eq!(rows.len() as u64, N);
        for (key, stored) in rows {
            let Row::Object(o) = stored.row(key.pid) else {
                panic!("{}: {key:?} is not an object row", engine.name())
            };
            assert!(key.name.starts_with('o'));
            assert_eq!((o.pid, o.name.as_str()), (ROOT_ID, ""), "{}", engine.name());
        }
    }
}
