//! Allocation budgets of the read path and of each mutation.
//!
//! One normalized-path parse is one allocation, and resolution adds none:
//! prefixes are views of the parsed buffer and `IndexTable` probes borrow
//! their key. A TafDB read adds its owned reply and nothing else (the
//! engines are probed through borrowed key views and lend each row in
//! place, so a check or a fold copies nothing and a listing copies each
//! entry's name once); a mutation adds the rows it stores, and nothing
//! more: not its keys (a name of up to 22 bytes lives inline in the key or
//! command that stores it, and a longer one is one shared block), not a
//! plan (the steps are held inline and name the ops), not a row list for
//! rmdir's attribute sweep (the engine deletes the range in place), and not
//! a `Vec` for the Raft quorum (counted in place). What is stored keeps no
//! block per name either: an `IndexTable` or a B-tree of N1's directories
//! holds its own tables and nodes. The counts are exact, so the budgets
//! hold on any host; `benchmark/` reports the same numbers as
//! `allocs_per_op` and `core.op.*_allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mantle::core::PathLeaseConfig;
use mantle::prelude::*;
use mantle::types::{BulkLoad, InodeId, ROOT_ID};

thread_local! {
    // Const-initialised plain integers: no lazy init and no destructor, so
    // touching them from inside the allocator never allocates.
    static COUNT: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread allocated minus blocks it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts the calling thread's heap requests, live blocks and live bytes;
/// tests run on threads of their own, so they do not see each other or the
/// cluster's background threads.
struct Counting;

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
}

fn live(blocks: i64, bytes: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + blocks));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and only adds counting, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        live(1, layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        live(1, layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        live(0, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-1, -(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const DIR: &str = "/d0/d1/d2/d3/d4/d5/d6/d7/d8";
const OBJECT: &str = "/d0/d1/d2/d3/d4/d5/d6/d7/d8/obj";

/// A default cluster (follower reads on) holding one depth-9 directory
/// with one object in it.
fn cluster(pcache: PathLeaseConfig) -> std::sync::Arc<MantleCluster> {
    // A sampled trace allocates its spans; the budget is the unsampled op.
    mantle::obs::set_sample_rate(0.0);
    let cluster = MantleCluster::with_config(MantleConfig {
        pcache,
        ..MantleConfig::default()
    });
    cluster.bulk_object(&MetaPath::parse(OBJECT).unwrap(), 7);
    cluster
}

/// The most heap requests one `parse + op` makes once warm: every replica
/// has served the path (follower reads rotate over them) and filled its
/// TopDirPathCache. `undo` runs after each op, uncounted, and puts back
/// what the op changed.
fn worst_allocs_undone<R>(
    text: &str,
    op: impl Fn(&MetaPath, &mut RequestCtx) -> Result<R>,
    undo: impl Fn(&MetaPath, &mut RequestCtx),
) -> u64 {
    let run = || {
        let before = COUNT.with(Cell::get);
        let path = MetaPath::parse(text).unwrap();
        let mut ctx = RequestCtx::new();
        let reply = op(&path, &mut ctx);
        let allocs = COUNT.with(Cell::get) - before;
        reply.expect("op on a loaded path");
        undo(&path, &mut RequestCtx::new());
        allocs
    };
    for _ in 0..64 {
        run();
    }
    (0..256).map(|_| run()).max().unwrap()
}

fn worst_allocs<R>(text: &str, op: impl Fn(&MetaPath, &mut RequestCtx) -> Result<R>) -> u64 {
    worst_allocs_undone(text, op, |_, _| {})
}

/// A budget that differs by engine: the CI matrix runs this file under both.
fn per_engine(c: &MantleCluster, btree: u64, mvcc: u64) -> u64 {
    match c.config().db.engine {
        mantle::tafdb::EngineKind::Btree => btree,
        mantle::tafdb::EngineKind::Mvcc => mvcc,
    }
}

#[test]
fn lookup_depth9_allocates_only_the_parse() {
    let c = cluster(PathLeaseConfig::default());
    let allocs = worst_allocs(DIR, |p, ctx| c.lookup(p, ctx));
    assert!(allocs <= 2, "parse + lookup: {allocs} allocations");
}

#[test]
fn objstat_depth10_budget() {
    let c = cluster(PathLeaseConfig::default());
    let allocs = worst_allocs(OBJECT, |p, ctx| c.objstat(p, ctx));
    assert!(allocs <= 2, "parse + objstat: {allocs} allocations");
}

#[test]
fn dirstat_budget() {
    let c = cluster(PathLeaseConfig::default());
    let allocs = worst_allocs(DIR, |p, ctx| c.dirstat(p, ctx));
    // The base row and its deltas fold in the engine's visitor.
    assert!(allocs <= 1, "parse + dirstat: {allocs} allocations");
}

#[test]
fn path_lease_hit_budget() {
    let c = cluster(PathLeaseConfig::enabled());
    let allocs = worst_allocs(DIR, |p, ctx| c.lookup(p, ctx));
    assert!(allocs <= 1, "parse + leased lookup: {allocs} allocations");
    assert!(c.path_cache_stats().hits >= 256, "the lookups were hits");
}

/// The heap requests of `parse + lookup` of `text`.
fn lookup_allocs(c: &MantleCluster, text: &str) -> u64 {
    let before = COUNT.with(Cell::get);
    let path = MetaPath::parse(text).unwrap();
    c.lookup(&path, &mut RequestCtx::new())
        .expect("a loaded directory");
    COUNT.with(Cell::get) - before
}

/// A lease cache held full: a hit relinks the LRU list and a fill reuses
/// the slot its eviction freed, so neither adds to the parse, and what
/// the cache keeps does not grow with how many paths it has seen. The
/// names are scattered through path order, as the benchmark's Zipf draws
/// are; fills in ascending path order would split the mirror's last B-tree
/// leaf every few fills.
#[test]
fn full_lease_cache_budgets() {
    const CAPACITY: usize = 1_024;
    const FRESH: usize = 10_000;
    let c = cluster(PathLeaseConfig {
        capacity: CAPACITY,
        lease_ttl: std::time::Duration::from_secs(3_600),
        ..PathLeaseConfig::enabled()
    });
    // An odd multiplier permutes 0..65,536: distinct names, shuffled.
    let dir = |i: usize| format!("/full/d{}", i * 40_503 % 65_536);
    for i in 0..CAPACITY + FRESH {
        c.bulk_dir(&MetaPath::parse(&dir(i)).unwrap());
    }
    for i in 0..CAPACITY {
        lookup_allocs(&c, &dir(i));
    }
    assert_eq!(c.path_cache_stats().entries, CAPACITY);

    // Hits in LRU order: every one moves the least recently used entry to
    // the front.
    let hits = (0..2 * CAPACITY).map(|i| lookup_allocs(&c, &dir(i % CAPACITY)));
    let worst = hits.max().unwrap();
    assert!(
        worst <= 1,
        "parse + hit in a full cache: {worst} allocations"
    );

    let (evictions, live) = (c.path_cache_stats().evictions, LIVE.with(Cell::get));
    let fills: u64 = (CAPACITY..CAPACITY + FRESH)
        .map(|i| lookup_allocs(&c, &dir(i)))
        .sum();
    let kept = LIVE.with(Cell::get) - live;
    let stats = c.path_cache_stats();
    assert_eq!(
        stats.evictions - evictions,
        FRESH as u64,
        "every fill evicted"
    );
    assert_eq!(stats.entries, CAPACITY);
    let mean = fills as f64 / FRESH as f64;
    assert!(
        mean <= 1.1,
        "parse + fill that evicts: {mean:.3} allocations"
    );
    assert!(
        kept <= 64,
        "{FRESH} fresh fills left {kept} live allocations"
    );
}

#[test]
fn create_delete_pair_budget() {
    let c = cluster(PathLeaseConfig::default());
    let sibling = format!("{DIR}/tmp");
    let allocs = worst_allocs(&sibling, |p, ctx| {
        c.create(p, 7, ctx)?;
        c.delete(p, ctx)
    });
    // Parse (mvcc: the chain): the two ops' keys hold the name inline. A
    // committed delete reads no row back to learn what it removed, and its
    // type check copies nothing out of the row it reads.
    assert!(
        allocs <= per_engine(&c, 1, 2),
        "parse + create + delete: {allocs} allocations"
    );
}

#[test]
fn create_budget() {
    let c = cluster(PathLeaseConfig::default());
    let allocs = worst_allocs_undone(
        &format!("{DIR}/tmp"),
        |p, ctx| c.create(p, 7, ctx),
        |p, ctx| c.delete(p, ctx).unwrap(),
    );
    // Parse; mvcc: the chain. The stored row keeps the name in its key
    // only, and the key holds it inline.
    assert!(
        allocs <= per_engine(&c, 1, 2),
        "parse + create: {allocs} allocations"
    );
}

#[test]
fn delete_budget() {
    let c = cluster(PathLeaseConfig::default());
    let allocs = worst_allocs_undone(
        OBJECT,
        |p, ctx| c.delete(p, ctx),
        |p, ctx| c.create(p, 7, ctx).map(drop).unwrap(),
    );
    // Parse: the key holds the name inline and the type check reads the
    // row in place.
    assert!(allocs <= 1, "parse + delete: {allocs} allocations");
}

#[test]
fn mkdir_budget() {
    let c = cluster(PathLeaseConfig::default());
    let allocs = worst_allocs_undone(
        &format!("{DIR}/sub"),
        |p, ctx| c.mkdir(p, ctx),
        |p, ctx| c.rmdir(p, ctx).unwrap(),
    );
    // Parse; the entry key and the IndexNode proposal hold the name inline,
    // and a fresh key opens a lock-table stripe now and then; mvcc: two
    // chains.
    assert!(
        allocs <= per_engine(&c, 2, 4),
        "parse + mkdir: {allocs} allocations"
    );
}

#[test]
fn rmdir_budget() {
    let c = cluster(PathLeaseConfig::default());
    let sub = format!("{DIR}/sub");
    c.mkdir(&MetaPath::parse(&sub).unwrap(), &mut RequestCtx::new())
        .unwrap();
    let allocs = worst_allocs_undone(
        &sub,
        |p, ctx| c.rmdir(p, ctx),
        |p, ctx| c.mkdir(p, ctx).map(drop).unwrap(),
    );
    // As mkdir, on both engines: the attribute rows go in one in-place
    // range delete, and mvcc's tombstones land in chains that exist.
    assert!(allocs <= 2, "parse + rmdir: {allocs} allocations");
}

#[test]
fn rename_dir_budget() {
    let c = cluster(PathLeaseConfig::default());
    let (from, to) = (format!("{DIR}/from"), "/d0/to");
    c.mkdir(&MetaPath::parse(&from).unwrap(), &mut RequestCtx::new())
        .unwrap();
    let to = MetaPath::parse(to).unwrap();
    let allocs = worst_allocs_undone(
        &from,
        |p, ctx| c.rename_dir(p, &to, ctx),
        |p, ctx| c.rename_dir(&to, p, ctx).unwrap(),
    );
    // Parse; the grant, the keys and the commit proposal hold both names
    // inline. mvcc: the new entry's chain.
    assert!(
        allocs <= per_engine(&c, 1, 2),
        "parse + rename_dir: {allocs} allocations"
    );
}

/// One iteration of the benchmark's `dir_mutate` workload on a default
/// cluster — mkdir, lookup, a rename to another parent, dirstat of that
/// parent, rmdir, each op parsing its own path — pinned as one sum, so the
/// claimed workload has a tier-1 floor. Six of its allocations are the
/// parses; the rest come with the fresh names each iteration stores (btree:
/// 6 to 9 per iteration over the pinned run, mostly 9).
#[test]
fn dir_mutate_iteration_budget() {
    let c = cluster(PathLeaseConfig::default());
    let other = "/d0/d1/d2/d3/d4/d5/d6/q7";
    c.bulk_dir(&MetaPath::parse(other).unwrap());
    let iteration = |i: usize| {
        let (a, b) = (format!("{DIR}/a{i}"), format!("{other}/b{i}"));
        let before = COUNT.with(Cell::get);
        let path = |text: &str| MetaPath::parse(text).unwrap();
        c.mkdir(&path(&a), &mut RequestCtx::new()).unwrap();
        c.lookup(&path(&a), &mut RequestCtx::new()).unwrap();
        c.rename_dir(&path(&a), &path(&b), &mut RequestCtx::new())
            .unwrap();
        c.dirstat(&path(other), &mut RequestCtx::new()).unwrap();
        c.rmdir(&path(&b), &mut RequestCtx::new()).unwrap();
        COUNT.with(Cell::get) - before
    };
    for i in 0..64 {
        iteration(i);
    }
    let worst = (64..320).map(iteration).max().unwrap();
    // Six parses (the rename's two) and up to three stripes; mvcc: three
    // chains.
    assert!(
        worst <= per_engine(&c, 9, 12),
        "one dir_mutate iteration: {worst} allocations"
    );
}

/// A refused `rmdir` answers from the first child it finds: the count does
/// not grow with the directory (2,000 entries here; the emptiness check
/// used to copy every one of them).
#[test]
fn refused_rmdir_of_a_large_directory_allocates_a_small_constant() {
    use mantle::tafdb::{EngineKind, TafDbOptions};

    mantle::obs::set_sample_rate(0.0);
    for engine in [EngineKind::Btree, EngineKind::Mvcc] {
        let c = MantleCluster::with_config(MantleConfig {
            db: TafDbOptions {
                engine,
                ..TafDbOptions::default()
            },
            ..MantleConfig::default()
        });
        for i in 0..2_000 {
            c.bulk_object(&MetaPath::parse(&format!("{DIR}/o{i:04}")).unwrap(), 7);
        }
        let allocs = worst_allocs(DIR, |p, ctx| match c.rmdir(p, ctx) {
            Err(MetaError::NotEmpty(_)) => Ok(()),
            other => panic!("rmdir of a populated directory: {other:?}"),
        });
        // Parse and the error's text: the entry key holds its name inline,
        // and the one row read is seen in place.
        assert!(
            allocs <= 2,
            "{}: refused rmdir: {allocs} allocations",
            engine.name()
        );
    }
}

/// A listing copies out each entry's name and nothing else: the engine
/// lends every row to the page scan, so there is no row list between them
/// and no second copy of a name. What is left is the parse and the reply
/// `Vec` doubling as it fills (nine steps to 1,000 entries, six to 100).
#[test]
fn listing_allocates_the_names_it_returns() {
    use mantle::tafdb::{EngineKind, TafDbOptions};

    mantle::obs::set_sample_rate(0.0);
    for engine in [EngineKind::Btree, EngineKind::Mvcc] {
        let c = MantleCluster::with_config(MantleConfig {
            db: TafDbOptions {
                engine,
                ..TafDbOptions::default()
            },
            ..MantleConfig::default()
        });
        let entries = 1_000;
        for i in 0..entries {
            c.bulk_object(&MetaPath::parse(&format!("{DIR}/o{i:04}")).unwrap(), 7);
        }
        let readdir = worst_allocs(DIR, |p, ctx| {
            let listed = c.readdir(p, ctx)?;
            assert_eq!(listed.len(), entries);
            Ok(())
        });
        assert!(
            readdir <= entries as u64 + 10,
            "{}: parse + readdir of {entries}: {readdir} allocations",
            engine.name()
        );
        let list = worst_allocs(DIR, |p, ctx| {
            let (page, more) = c.list(p, None, 100, ctx)?;
            assert!(page.len() == 100 && more);
            Ok(())
        });
        assert!(
            list <= 107,
            "{}: parse + list of 100: {list} allocations",
            engine.name()
        );
    }
}

/// The stored layouts the namespace's memory is made of: an `IndexEntry`
/// (its rename lock is an 8-byte `Option<ClientUuid>`), a TafDB row key,
/// the name both keep inline, and the form a TafDB shard stores a row in.
#[test]
fn stored_layouts_are_pinned() {
    use std::mem::size_of;
    assert_eq!(size_of::<mantle::index::IndexEntry>(), 32);
    assert_eq!(size_of::<mantle::store::RowKey>(), 40);
    assert_eq!(size_of::<mantle::types::Name>(), 24);
    assert_eq!(size_of::<mantle::tafdb::StoredRow>(), 40);
}

/// The benchmark's read namespace N1: 95,572 directories over nine levels
/// (fan-out 4·4·4·4·4·4·2·2·4), each named `<level letter><sibling><3 hex
/// digits>`, five bytes. `(pid, name, id)`, parents before children.
fn n1_dirs() -> Vec<(InodeId, String, InodeId)> {
    const FANOUT: [u64; 9] = [4, 4, 4, 4, 4, 4, 2, 2, 4];
    let (mut dirs, mut level, mut next) = (Vec::new(), vec![ROOT_ID], 2);
    for (depth, fanout) in FANOUT.into_iter().enumerate() {
        let letter = char::from(b'a' + depth as u8);
        let mut below = Vec::new();
        for pid in level {
            for i in 0..fanout {
                let name = format!("{letter}{i}{:03x}", (next * 0x9e37) & 0xfff);
                dirs.push((pid, name, InodeId(next)));
                below.push(InodeId(next));
                next += 1;
            }
        }
        level = below;
    }
    dirs
}

/// What `build` leaves allocated on this thread: its value, live blocks
/// and live bytes.
fn kept<T>(build: impl FnOnce() -> T) -> (T, i64, i64) {
    let (blocks, bytes) = (LIVE.with(Cell::get), LIVE_BYTES.with(Cell::get));
    let value = build();
    let blocks = LIVE.with(Cell::get) - blocks;
    (value, blocks, LIVE_BYTES.with(Cell::get) - bytes)
}

/// One replica's IndexTable holding N1 keeps its 64 stripe tables and the
/// stripe list, not a block per name: a short name lives in its key.
#[test]
fn index_table_keeps_no_block_per_name() {
    use mantle::index::{IndexEntry, IndexTable};

    let dirs = n1_dirs();
    assert_eq!(dirs.len(), 95_572);
    let (table, blocks, bytes) = kept(|| {
        let table = IndexTable::new();
        for (pid, name, id) in &dirs {
            let entry = IndexEntry {
                id: *id,
                permission: Permission::ALL,
                lock: None,
                version: 1,
            };
            table.insert(*pid, name, entry);
        }
        table
    });
    assert_eq!(table.len(), dirs.len());
    assert!(blocks <= 65, "{blocks} live blocks");
    let per_dir = bytes as f64 / dirs.len() as f64;
    assert!(per_dir <= 101.0, "{per_dir:.1} live bytes per directory");
}

/// The same for the btree engine's rows: its tree nodes, and no block per
/// stored key.
#[test]
fn btree_engine_keeps_no_block_per_name() {
    use mantle::tafdb::{entry_key, EngineKind, Row};

    let dirs = n1_dirs();
    let (engine, blocks, _) = kept(|| {
        let engine = EngineKind::Btree.build::<Row>();
        for (pid, name, id) in &dirs {
            let row = Row::DirAccess {
                id: *id,
                permission: Permission::ALL,
            };
            engine.put(entry_key(*pid, name), row);
        }
        engine
    });
    assert_eq!(engine.len(), dirs.len());
    assert!(
        blocks < dirs.len() as i64 / 4,
        "{blocks} live blocks for {} rows",
        dirs.len()
    );
}

/// A name longer than the inline capacity costs one shared block, so
/// `create` and `mkdir` of a 40-byte name make exactly one allocation more
/// than a short name's (DESIGN.md §4.12).
#[test]
fn long_names_allocate_as_before() {
    let c = cluster(PathLeaseConfig::default());
    let long = format!("{DIR}/{}", "n".repeat(40));
    let create = worst_allocs_undone(
        &long,
        |p, ctx| c.create(p, 7, ctx),
        |p, ctx| c.delete(p, ctx).unwrap(),
    );
    let mkdir = worst_allocs_undone(
        &long,
        |p, ctx| c.mkdir(p, ctx),
        |p, ctx| c.rmdir(p, ctx).unwrap(),
    );
    assert_eq!(
        (create, mkdir),
        (per_engine(&c, 2, 3), per_engine(&c, 3, 5)),
        "parse + (create, mkdir) of a 40-byte name"
    );
}

/// A TafDB holding N1, bulk-loaded as the benchmark loads it: every
/// directory is an entry row under its parent plus an attribute row of its
/// own, 191,144 rows over eight shards. A stored row is its 40-byte key
/// beside a 40-byte `StoredRow` (DESIGN.md §4.12); the rest of what a row
/// costs is tree slack, as ascending bulk inserts leave leaves about half
/// full, and on mvcc each row's version chain. Measured 151.4 B per row on
/// btree and 314.1 on mvcc (210.0 and 442.1 while shards stored `Row`).
#[test]
fn tafdb_rows_cost_their_measured_bytes() {
    use mantle::tafdb::{recipe, EngineKind, TafDb, TafDbOptions};

    let dirs = n1_dirs();
    for (engine, budget) in [(EngineKind::Btree, 152.0), (EngineKind::Mvcc, 315.0)] {
        let opts = TafDbOptions {
            engine,
            ..TafDbOptions::default()
        };
        let db = TafDb::new(SimConfig::instant(), opts);
        let before = db.total_rows();
        let (_, _, bytes) = kept(|| {
            for (pid, name, id) in &dirs {
                db.bulk_apply(recipe::mkdir(*pid, name.as_str().into(), *id, 0));
            }
        });
        let rows = db.total_rows() - before;
        assert_eq!(rows, 2 * dirs.len());
        let per_row = bytes as f64 / rows as f64;
        assert!(
            per_row <= budget,
            "{}: {per_row:.1} live bytes per row",
            engine.name()
        );
    }
}
