//! Concurrent cross-engine equivalence: scans and inserts that share one
//! shard — maximum engine-latch contention, no transactional conflict —
//! leave the same op results and the same readable state on `btree` and
//! `mvcc`, whichever way the threads interleaved. This is what the retired
//! perf gate's two `Mixed[*]` rows checked (EXPERIMENTS.md has the row →
//! test table); their counts and modeled floors are pinned here exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use mantle_tafdb::{dir_region, entry_key, EngineKind, Row, TafDb, TafDbOptions, TxnOp};
use mantle_types::{clock, DirEntry, InodeId, Permission, RequestCtx, SimConfig};

/// Entries in the scanned directory: enough that a full-directory scan
/// holds the shard latch across scheduler timeslices, so scans and inserts
/// really interleave on it.
const ENTRIES: usize = 20_000;
const SCANS: usize = 8;
const CREATES: usize = 200;
/// Scanner threads, and creator threads.
const THREADS: usize = 4;

/// What one run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    completed: u64,
    failed: u64,
    rpcs: u64,
    /// Order-independent digest of every scan result plus the creators'
    /// final listings.
    checksum: u64,
    /// Fastest scan and fastest insert, modeled nanoseconds.
    floors: (u64, u64),
}

fn digest(entries: &[DirEntry]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in entries {
        for b in e.name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        h = (h ^ e.id.0).wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn dir_access(id: u64) -> Row {
    Row::DirAccess {
        id: InodeId(id),
        permission: Permission::ALL,
    }
}

fn run_mixed(engine: EngineKind) -> Outcome {
    let opts = TafDbOptions {
        n_shards: 4,
        engine,
        // Every insert pays its own fsync, so the insert floor is a pure
        // function of the model (who shares a group commit is not).
        group_commit: false,
        ..Default::default()
    };
    let db = TafDb::new(SimConfig::default(), opts);
    let map = db.shard_map();

    let scan_pid = InodeId(1);
    let (rs, re) = dir_region(scan_pid);
    let owners: Vec<usize> = map.owners_of(rs, re).collect();
    assert_eq!(owners.len(), 1, "scan dir region must be unsplit");
    // Private creator directories routed to the scan directory's shard.
    let creator_pids: Vec<InodeId> = (scan_pid.0 + 1..)
        .map(InodeId)
        .filter(|&pid| {
            let (s, e) = dir_region(pid);
            map.owners_of(s, e).eq([owners[0]])
        })
        .take(THREADS)
        .collect();

    db.bulk_apply((0..ENTRIES).map(|i| TxnOp::Put {
        key: entry_key(scan_pid, &format!("e{i:05}")),
        row: dir_access(1_000 + i as u64),
    }));

    let [completed, failed, rpcs, checksum] = [(); 4].map(|()| AtomicU64::new(0));
    let [scan_floor, insert_floor] = [(); 2].map(|()| AtomicU64::new(u64::MAX));
    let barrier = Barrier::new(2 * THREADS);
    // One op: its own context, timed on the calling thread's virtual clock.
    let op = |floor: &AtomicU64, f: &mut dyn FnMut(&mut RequestCtx) -> Option<u64>| {
        let mut ctx = RequestCtx::new();
        let begin = clock::now();
        match f(&mut ctx) {
            Some(sum) => {
                floor.fetch_min(begin.elapsed().as_nanos() as u64, Ordering::Relaxed);
                checksum.fetch_add(sum, Ordering::Relaxed);
                rpcs.fetch_add(ctx.rpcs as u64, Ordering::Relaxed);
                completed.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                barrier.wait();
                for _ in 0..SCANS {
                    op(&scan_floor, &mut |ctx| {
                        db.readdir(scan_pid, ctx).ok().map(|e| digest(&e))
                    });
                }
            });
        }
        for (t, &cpid) in creator_pids.iter().enumerate() {
            let (op, barrier, db, insert_floor) = (&op, &barrier, &db, &insert_floor);
            scope.spawn(move || {
                barrier.wait();
                for i in 0..CREATES {
                    let insert = TxnOp::InsertUnique {
                        key: entry_key(cpid, &format!("c{t}_{i:05}")),
                        row: dir_access(100_000 + (t * CREATES + i) as u64),
                    };
                    op(insert_floor, &mut |ctx| {
                        db.execute_relaxed(std::slice::from_ref(&insert), ctx)
                            .ok()
                            .map(|()| 0)
                    });
                }
            });
        }
    });

    // Identical acknowledged writes must leave identical readable state.
    let mut checksum = checksum.into_inner();
    for &cpid in &creator_pids {
        let entries = db.readdir(cpid, &mut RequestCtx::new()).unwrap();
        assert_eq!(entries.len(), CREATES);
        checksum = checksum.wrapping_add(digest(&entries));
    }
    Outcome {
        completed: completed.into_inner(),
        failed: failed.into_inner(),
        rpcs: rpcs.into_inner(),
        checksum,
        floors: (scan_floor.into_inner(), insert_floor.into_inner()),
    }
}

#[test]
fn concurrent_scans_and_inserts_agree_across_engines_and_passes() {
    let btree = run_mixed(EngineKind::Btree);
    // 4 x 8 scans + 4 x 200 inserts, one RPC each; a scan is one round trip
    // plus service, an insert adds its WAL fsync.
    assert_eq!(
        (btree.completed, btree.failed, btree.rpcs, btree.floors),
        (832, 0, 832, (205_000, 305_000))
    );
    assert_eq!(btree, run_mixed(EngineKind::Btree), "btree, second pass");
    assert_eq!(btree, run_mixed(EngineKind::Mvcc), "mvcc vs btree");
    assert_eq!(btree, run_mixed(EngineKind::Mvcc), "mvcc, second pass");
}
