//! Allocation budget of the read path, and of one object create + delete.
//!
//! One normalized-path parse is one allocation, and resolution adds none:
//! prefixes are views of the parsed buffer and `IndexTable` probes borrow
//! their key. What remains per read is the TafDB read (row key, owned
//! reply); a write adds its transaction (keys, rows, lock set, WAL).
//! The counts are exact, so the budgets hold on any host; `benchmark/`
//! reports the same numbers as `allocs_per_op` and `core.op.*_allocs`.

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
/// TopDirPathCache.
fn worst_allocs<R>(text: &str, op: impl Fn(&MetaPath, &mut RequestCtx) -> Result<R>) -> u64 {
    let run = || {
        let before = COUNT.with(Cell::get);
        let path = MetaPath::parse(text).unwrap();
        let mut ctx = RequestCtx::new();
        let reply = op(&path, &mut ctx);
        ctx.end();
        let allocs = COUNT.with(Cell::get) - before;
        reply.expect("op on a loaded path");
        allocs
    };
    for _ in 0..64 {
        run();
    }
    (0..256).map(|_| run()).max().unwrap()
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
    assert!(allocs <= 4, "parse + objstat: {allocs} allocations");
}

#[test]
fn dirstat_budget() {
    let c = cluster(PathLeaseConfig::default());
    let allocs = worst_allocs(DIR, |p, ctx| c.dirstat(p, ctx));
    assert!(allocs <= 7, "parse + dirstat: {allocs} allocations");
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
    // row was one more than these. One budget per engine, since the CI
    // matrix runs this file under both.
    let budget = match c.config().db.engine {
        mantle::tafdb::EngineKind::Btree => 22,
        mantle::tafdb::EngineKind::Mvcc => 23,
    };
    assert!(
        allocs <= budget,
        "parse + create + delete: {allocs} allocations"
    );
}
