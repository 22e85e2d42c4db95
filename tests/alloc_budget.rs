//! Allocation budgets of the read path and of each mutation.
//!
//! One normalized-path parse is one allocation, and resolution adds none:
//! prefixes are views of the parsed buffer and `IndexTable` probes borrow
//! their key. A TafDB read adds its owned reply and nothing else (the
//! engines are probed through borrowed key views); a transaction adds the
//! keys and rows its ops carry and the rows it stores, not a plan (the
//! steps are held inline and name the ops), and a directory mutation adds
//! its Raft proposal. The counts are exact, so the budgets hold on any
//! host; `benchmark/` reports the same numbers as `allocs_per_op` and
//! `core.op.*_allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mantle::core::PathLeaseConfig;
use mantle::prelude::*;
use mantle::types::BulkLoad;

thread_local! {
    // Const-initialised plain integer: no lazy init and no destructor, so
    // touching it from inside the allocator never allocates.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Counts the calling thread's heap requests; tests run on threads of
/// their own, so they do not see each other or the cluster's background
/// threads.
struct Counting;

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and only adds counting, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
    assert!(allocs <= 2, "parse + dirstat: {allocs} allocations");
}

#[test]
fn path_lease_hit_budget() {
    let c = cluster(PathLeaseConfig::enabled());
    let allocs = worst_allocs(DIR, |p, ctx| c.lookup(p, ctx));
    assert!(allocs <= 2, "parse + leased lookup: {allocs} allocations");
    assert!(c.path_cache_stats().hits >= 256, "the lookups were hits");
}

#[test]
fn create_delete_pair_budget() {
    let c = cluster(PathLeaseConfig::default());
    let sibling = format!("{DIR}/tmp");
    let allocs = worst_allocs(&sibling, |p, ctx| {
        c.create(p, 7, ctx)?;
        c.delete(p, ctx)
    });
    // A committed delete reads no row back to learn what it removed: that
    // row was one more than these.
    assert!(
        allocs <= per_engine(&c, 6, 7),
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
    // Parse, key, `ObjectMeta::name`, the stored row; mvcc: its chain.
    assert!(
        allocs <= per_engine(&c, 4, 5),
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
    // Parse, the type check's reply, key.
    assert!(allocs <= 3, "parse + delete: {allocs} allocations");
}

#[test]
fn mkdir_budget() {
    let c = cluster(PathLeaseConfig::default());
    let allocs = worst_allocs_undone(
        &format!("{DIR}/sub"),
        |p, ctx| c.mkdir(p, ctx),
        |p, ctx| c.rmdir(p, ctx).unwrap(),
    );
    assert!(
        allocs <= per_engine(&c, 5, 7),
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
    assert!(
        allocs <= per_engine(&c, 7, 8),
        "parse + rmdir: {allocs} allocations"
    );
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
    assert!(
        allocs <= per_engine(&c, 9, 10),
        "parse + rename_dir: {allocs} allocations"
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
        // Parse, the entry key, the one row read, and the error's text.
        assert!(
            allocs <= 5,
            "{}: refused rmdir: {allocs} allocations",
            engine.name()
        );
    }
}
