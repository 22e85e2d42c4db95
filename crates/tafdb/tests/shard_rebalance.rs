//! Placement-plane tests: ShardMap routing properties (proptest), online
//! split/migrate correctness under concurrent writers, and split-crash
//! chaos (no lost or duplicated acknowledged rows, seeds 0..7).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;

use mantle_rpc::faults::{FaultKind, FaultPlan, FaultProfile};
use mantle_tafdb::shardmap::DIR_REGION_SPAN;
use mantle_tafdb::{
    attr_key, dir_region, entry_key, place_of, EngineKind, Row, ShardMap, TafDb, TafDbOptions,
    TxnOp,
};
use mantle_types::{AttrDelta, DirAttrMeta, InodeId, MetaError, Permission, RequestCtx, SimConfig};

// --- property: routing is total and non-overlapping at every epoch ---------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn shardmap_routing_total_and_nonoverlapping_at_every_epoch(
        n_shards in 1usize..12,
        muts in prop::collection::vec((0u8..3, any::<u64>(), 0usize..12), 0..40),
        pids in prop::collection::vec(any::<u64>(), 8..16),
    ) {
        let mut m = ShardMap::uniform(n_shards);
        m.check_invariants();
        let mut last_epoch = m.epoch();
        for (kind, key, to) in muts {
            let idx = m.range_index(key);
            let next = match kind {
                0 => {
                    let r = m.range(idx);
                    if r.start < r.end {
                        let span = r.end - r.start;
                        // A cut uniformly inside (start, end].
                        Some(m.with_split(idx, r.start + 1 + key % span))
                    } else {
                        None
                    }
                }
                1 => Some(m.with_reassign(idx, to % n_shards)),
                _ => m.with_merge(idx),
            };
            if let Some(next) = next {
                // check_invariants asserts sorted + contiguous + total over
                // u64 + in-bounds shards: no key can have zero or two owners.
                next.check_invariants();
                prop_assert!(next.epoch() > last_epoch, "epoch strictly increases");
                last_epoch = next.epoch();
                m = next;
            }
            for &pid in &pids {
                let (s, e) = dir_region(InodeId(pid));
                let owners: Vec<usize> = m.owners_of(s, e).collect();
                prop_assert!(!owners.is_empty());
                prop_assert!(owners.iter().all(|&o| o < n_shards));
                // Each owner is named once, however its ranges interleave.
                prop_assert!((1..owners.len()).all(|i| !owners[..i].contains(&owners[i])));
                // The attr row's owner is one of the region's owners.
                let ap = place_of(&attr_key(InodeId(pid)));
                prop_assert!(owners.contains(&m.owner(ap)));
            }
        }
    }
}

// --- helpers ----------------------------------------------------------------

fn mkdir(db: &TafDb, dir: InodeId) {
    let mut stats = RequestCtx::new();
    db.execute(
        &[TxnOp::Put {
            key: attr_key(dir),
            row: Row::DirAttr(DirAttrMeta::new(2, 0)),
        }],
        &mut stats,
    )
    .unwrap();
}

fn create(db: &TafDb, dir: InodeId, name: &str) -> Result<(), MetaError> {
    let mut stats = RequestCtx::new();
    db.execute(
        &[
            TxnOp::InsertUnique {
                key: entry_key(dir, name),
                row: Row::DirAccess {
                    id: InodeId(0xF000 + name.len() as u64),
                    permission: Permission::ALL,
                },
            },
            TxnOp::AttrUpdate {
                dir,
                delta: AttrDelta {
                    nlink: 0,
                    entries: 1,
                    mtime: 1,
                },
            },
        ],
        &mut stats,
    )
    .map(|_| ())
}

/// Every acked name must be readable exactly once, `dir_stat` must count
/// exactly the acked creates, and no shard may hold a row the map does not
/// route to it (no stragglers from an aborted or completed migration).
fn verify_exactly_once(db: &TafDb, dir: InodeId, acked: &HashSet<String>) {
    let mut stats = RequestCtx::new();
    for name in acked {
        assert!(
            db.get_entry(dir, name, &mut stats).unwrap().is_some(),
            "acked create of {name} lost"
        );
    }
    let listed = db.readdir(dir, &mut stats).unwrap();
    let mut seen = HashSet::new();
    for e in &listed {
        assert!(seen.insert(e.name.clone()), "row {} duplicated", e.name);
    }
    assert_eq!(seen.len(), acked.len(), "listing vs acked set");
    db.compact_once();
    let attrs = db.dir_stat(dir, &mut stats).unwrap();
    assert_eq!(attrs.entries as usize, acked.len(), "dirstat entry count");
}

// --- online split + migrate under concurrent writers ------------------------

#[test]
fn split_and_migrate_preserve_rows_under_concurrent_writers() {
    let db = TafDb::new(SimConfig::instant(), TafDbOptions::default());
    let dir = InodeId(77);
    mkdir(&db, dir);
    db.force_hot(dir);
    let (rs, re) = dir_region(dir);

    let stop = AtomicBool::new(false);
    let acked: HashSet<String> = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..4 {
            let db = &db;
            let stop = &stop;
            workers.push(scope.spawn(move || {
                let mut acked = HashSet::new();
                let mut i = 0usize;
                while !stop.load(Ordering::Acquire) || i < 50 {
                    let name = format!("w{t}_{i}");
                    if create(db, dir, &name).is_ok() {
                        acked.insert(name);
                    }
                    i += 1;
                    if i >= 400 {
                        break;
                    }
                }
                acked
            }));
        }

        // Concurrently: isolate the hot region, split it down the middle,
        // and bounce both halves across shards.
        let n = db.n_shards();
        for round in 0..6 {
            let mid = rs + DIR_REGION_SPAN / 2;
            db.split_range(rs, mid);
            let _ = db.migrate_range(rs, (db.shard_map().owner(rs) + 1) % n);
            let _ = db.migrate_range(mid, (db.shard_map().owner(mid) + round) % n);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);

        let mut acked = HashSet::new();
        for w in workers {
            acked.extend(w.join().unwrap());
        }
        acked
    });

    assert!(!acked.is_empty());
    assert!(db.counters().shard_splits > 0, "splits must have happened");
    assert!(db.counters().range_migrations > 0, "rows must have moved");
    // Hot-region ownership really is spread or at least well-defined.
    let m = db.shard_map();
    m.check_invariants();
    assert!(m.owners_of(rs, re).all(|o| o < db.n_shards()));
    verify_exactly_once(&db, dir, &acked);
}

// --- chaos: split racing a crash at split_prepare / split_commit ------------

#[test]
fn split_crash_chaos_loses_and_duplicates_nothing() {
    for seed in 0..8u64 {
        let db = TafDb::new(SimConfig::instant(), TafDbOptions::default());
        let dir = InodeId(4096 + seed);
        mkdir(&db, dir);
        db.force_hot(dir);
        let (rs, _) = dir_region(dir);
        let mid = rs + DIR_REGION_SPAN / 2;
        assert!(db.split_range(rs, mid), "seed {seed}: initial split");

        let plan = FaultPlan::new(seed, FaultProfile::zeroed());
        db.install_faults(Some(plan.clone()));

        let stop = AtomicBool::new(false);
        let acked: HashSet<String> = std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for t in 0..3 {
                let db = &db;
                let stop = &stop;
                workers.push(scope.spawn(move || {
                    let mut acked = HashSet::new();
                    let mut i = 0usize;
                    while !stop.load(Ordering::Acquire) || i < 30 {
                        let name = format!("c{t}_{i}");
                        if create(db, dir, &name).is_ok() {
                            acked.insert(name);
                        }
                        i += 1;
                        if i >= 300 {
                            break;
                        }
                    }
                    acked
                }));
            }

            let n = db.n_shards();
            for round in 0..4u64 {
                let place = if round % 2 == 0 { rs } else { mid };
                let src = db.shard_map().owner(place);
                let tgt = (src + 1 + (seed as usize % (n - 1))) % n;
                let site = format!("tafdb{src}");
                // Crash the migration at alternating hooks: the copy must
                // be discarded and the source stay authoritative.
                if (seed + round) % 2 == 0 {
                    plan.force(FaultKind::SplitPrepare, &site, 1);
                } else {
                    plan.force(FaultKind::SplitCommit, &site, 1);
                }
                match db.migrate_range(place, tgt) {
                    Err(MetaError::Transient { kind, .. }) => {
                        assert!(
                            kind.starts_with("split_"),
                            "seed {seed}: unexpected transient {kind}"
                        );
                    }
                    other => panic!("seed {seed}: forced crash not surfaced: {other:?}"),
                }
                // The aborted copy must leave no staged rows on the target:
                // the migrating range routes wholly to the source, so any
                // row of it on the target is a straggler.
                let (mr_start, mr_end) = {
                    let m = db.shard_map();
                    let r = m.range(m.range_index(place));
                    (r.start, r.end)
                };
                if db.shard_map().owner(place) != tgt {
                    assert_eq!(
                        db.shard_rows_in_place_range(tgt, mr_start, mr_end),
                        0,
                        "seed {seed}: aborted migration left staged rows on target"
                    );
                }
                // Retry until clean: quiescence can transiently fail while
                // writers hammer the range, but the forced crash is spent,
                // so the migration itself must eventually go through.
                loop {
                    match db.migrate_range(place, tgt) {
                        Ok(_) => break,
                        Err(MetaError::Transient { ref kind, .. }) if kind == "split_quiesce" => {
                            std::thread::yield_now();
                        }
                        Err(e) => panic!("seed {seed}: clean retry failed: {e}"),
                    }
                }
            }
            stop.store(true, Ordering::Release);

            let mut acked = HashSet::new();
            for w in workers {
                acked.extend(w.join().unwrap());
            }
            acked
        });

        db.install_faults(None);
        assert!(!acked.is_empty(), "seed {seed}: no progress");
        assert!(
            db.counters().range_migrations >= 4,
            "seed {seed}: clean retries must have completed"
        );
        verify_exactly_once(&db, dir, &acked);

        // Delta records spread by txn ts must also have survived intact:
        // nothing pending after compaction on any shard.
        db.compact_once();
        assert_eq!(
            db.pending_deltas(dir),
            0,
            "seed {seed}: deltas left dangling"
        );
    }
}

// --- migration abort drops staged engine state, on both engines --------------

/// Single-threaded and deterministic: crash a migration at `split_commit`
/// (after the whole copy staged onto the target) and check, for each
/// engine, that the abort discarded every staged row AND every engine-
/// internal version the staging created — then that a clean retry works.
#[test]
fn migration_abort_drops_staged_engine_state_on_both_engines() {
    for engine in [EngineKind::Btree, EngineKind::Mvcc] {
        let opts = TafDbOptions {
            engine,
            ..TafDbOptions::default()
        };
        let db = TafDb::new(SimConfig::instant(), opts);
        let dir = InodeId(9001);
        mkdir(&db, dir);
        for i in 0..40 {
            create(&db, dir, &format!("e{i}")).unwrap();
        }
        let mut stats = RequestCtx::new();
        let listing_before = db.readdir(dir, &mut stats).unwrap();
        assert_eq!(listing_before.len(), 40);

        let (rs, _) = dir_region(dir);
        let src = db.shard_map().owner(rs);
        let tgt = (src + 1) % db.n_shards();
        let (mr_start, mr_end) = {
            let m = db.shard_map();
            let r = m.range(m.range_index(rs));
            (r.start, r.end)
        };
        let tgt_rows_before = db.shard_rows(tgt);

        let plan = FaultPlan::new(3, FaultProfile::zeroed());
        db.install_faults(Some(plan.clone()));
        plan.force(FaultKind::SplitCommit, &format!("tafdb{src}"), 1);
        match db.migrate_range(rs, tgt) {
            Err(MetaError::Transient { kind, .. }) => assert_eq!(
                kind,
                "split_commit",
                "{}: expected the forced commit crash",
                engine.name()
            ),
            other => panic!("{}: forced crash not surfaced: {other:?}", engine.name()),
        }
        db.install_faults(None);

        // Staged rows are gone from the target...
        assert_eq!(
            db.shard_rows_in_place_range(tgt, mr_start, mr_end),
            0,
            "{}: staged rows survived the abort",
            engine.name()
        );
        assert_eq!(
            db.shard_rows(tgt),
            tgt_rows_before,
            "{}: target live-row count changed across an aborted migration",
            engine.name()
        );
        // ...and so are the versions staging created (the abort path runs
        // the engine's GC; with nothing pinned, retained versions must
        // collapse to exactly the live rows).
        assert_eq!(
            db.shard_versions(tgt),
            db.shard_rows(tgt),
            "{}: aborted staging left garbage versions on the target",
            engine.name()
        );

        // The source stayed authoritative throughout.
        assert_eq!(db.readdir(dir, &mut stats).unwrap(), listing_before);

        // The crash is spent: a clean retry migrates for real.
        let moved = db.migrate_range(rs, tgt).expect("clean retry");
        assert!(moved > 0, "{}: retry moved no rows", engine.name());
        assert_eq!(db.shard_map().owner(rs), tgt);
        assert_eq!(db.readdir(dir, &mut stats).unwrap(), listing_before);
        // Post-commit the *source* ran its GC too: no residue there either.
        assert_eq!(
            db.shard_rows_in_place_range(src, mr_start, mr_end),
            0,
            "{}: committed migration left rows on the source",
            engine.name()
        );
        assert_eq!(db.shard_versions(src), db.shard_rows(src));
    }
}
