//! IndexNode end-to-end tests: replicated updates, single-RPC lookups,
//! follower reads, rename coordination.

use mantle_index::{IndexNode, IndexOptions};
use mantle_types::{ClientUuid, InodeId, MetaError, MetaPath, Permission, RequestCtx, SimConfig};

fn p(s: &str) -> MetaPath {
    MetaPath::parse(s).unwrap()
}

fn node_with(opts: IndexOptions) -> IndexNode {
    IndexNode::new(SimConfig::instant(), opts)
}

fn node() -> IndexNode {
    node_with(IndexOptions::default())
}

/// Builds `/a/b/c/d` through the replicated write path, returning the ids.
fn build_chain(node: &IndexNode, stats: &mut RequestCtx) -> Vec<InodeId> {
    let names = ["a", "b", "c", "d"];
    let mut pid = mantle_types::ROOT_ID;
    let mut ids = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let id = InodeId(10 + i as u64);
        node.insert_dir(pid, name, id, Permission::ALL, stats)
            .unwrap();
        ids.push(id);
        pid = id;
    }
    ids
}

#[test]
fn insert_then_lookup_single_rpc() {
    let node = node();
    let mut stats = RequestCtx::new();
    build_chain(&node, &mut stats);

    let mut lstats = RequestCtx::new();
    let resolved = node.lookup(&p("/a/b/c/d"), &mut lstats).unwrap();
    assert_eq!(resolved.id, InodeId(13));
    // Leader lookup: exactly one RPC, no matter the depth.
    assert_eq!(lstats.rpcs, 1);
}

#[test]
fn follower_lookup_is_consistent_after_write() {
    let opts = IndexOptions {
        learners: 2,
        ..IndexOptions::default()
    };
    let node = node_with(opts);
    let mut stats = RequestCtx::new();
    build_chain(&node, &mut stats);
    // Round-robin will hit followers and learners; every replica must serve
    // the committed directory chain (ReadIndex waits for apply).
    for _ in 0..20 {
        let mut lstats = RequestCtx::new();
        let resolved = node.lookup(&p("/a/b/c/d"), &mut lstats).unwrap();
        assert_eq!(resolved.id, InodeId(13));
    }
}

#[test]
fn lookup_missing_path_not_found() {
    let node = node();
    let mut stats = RequestCtx::new();
    build_chain(&node, &mut stats);
    assert!(matches!(
        node.lookup(&p("/a/b/zzz"), &mut stats),
        Err(MetaError::NotFound(_))
    ));
}

#[test]
fn cache_hit_counted_on_deep_paths() {
    let opts = IndexOptions {
        follower_reads: false,
        k: 2,
        ..IndexOptions::default()
    };
    let node = node_with(opts);
    let mut stats = RequestCtx::new();
    build_chain(&node, &mut stats);

    node.lookup(&p("/a/b/c/d"), &mut RequestCtx::new()).unwrap();
    assert_eq!(node.cache_outcomes(), (0, 1));
    node.lookup(&p("/a/b/c/d"), &mut RequestCtx::new()).unwrap();
    assert_eq!(node.cache_outcomes(), (1, 1));
}

#[test]
fn remove_dir_then_lookup_fails() {
    let node = node();
    let mut stats = RequestCtx::new();
    let ids = build_chain(&node, &mut stats);
    node.remove_dir(ids[2], "d", &p("/a/b/c/d"), &mut stats)
        .unwrap();
    assert!(matches!(
        node.lookup(&p("/a/b/c/d"), &mut stats),
        Err(MetaError::NotFound(_))
    ));
    assert!(node.lookup(&p("/a/b/c"), &mut stats).is_ok());
}

#[test]
fn rename_prepare_commit_moves_subtree() {
    let node = node();
    let mut stats = RequestCtx::new();
    build_chain(&node, &mut stats);
    node.insert_dir(
        mantle_types::ROOT_ID,
        "target",
        InodeId(99),
        Permission::ALL,
        &mut stats,
    )
    .unwrap();

    let uuid = ClientUuid::generate();
    let grant = node
        .rename_prepare(&p("/a/b"), &p("/target/b2"), uuid, &mut stats)
        .unwrap();
    assert_eq!(grant.src_pid, InodeId(10));
    assert_eq!(grant.src_id, InodeId(11));
    assert_eq!(grant.dst_pid, InodeId(99));
    node.rename_commit(&grant, &p("/a/b"), &p("/target/b2"), uuid, &mut stats)
        .unwrap();

    assert!(matches!(
        node.lookup(&p("/a/b/c/d"), &mut stats),
        Err(MetaError::NotFound(_))
    ));
    let moved = node.lookup(&p("/target/b2/c/d"), &mut stats).unwrap();
    assert_eq!(moved.id, InodeId(13));
}

#[test]
fn rename_loop_detected() {
    let node = node();
    let mut stats = RequestCtx::new();
    build_chain(&node, &mut stats);
    let uuid = ClientUuid::generate();
    assert!(matches!(
        node.rename_prepare(&p("/a/b"), &p("/a/b/c/inside"), uuid, &mut stats),
        Err(MetaError::RenameLoop { .. })
    ));
    // Nothing was locked.
    let uuid2 = ClientUuid::generate();
    let grant = node
        .rename_prepare(&p("/a/b"), &p("/moved"), uuid2, &mut stats)
        .unwrap();
    node.rename_abort(&grant, &p("/a/b"), uuid2, &mut stats)
        .unwrap();
}

#[test]
fn conflicting_rename_sees_lock_and_retry_after_abort() {
    let node = node();
    let mut stats = RequestCtx::new();
    build_chain(&node, &mut stats);

    let u1 = ClientUuid::generate();
    let grant1 = node
        .rename_prepare(&p("/a/b"), &p("/b_moved"), u1, &mut stats)
        .unwrap();

    // A second rename of the same source conflicts on the lock bit.
    let u2 = ClientUuid::generate();
    assert!(matches!(
        node.rename_prepare(&p("/a/b"), &p("/elsewhere"), u2, &mut stats),
        Err(MetaError::RenameLocked(_))
    ));

    // A rename whose destination chain crosses the locked directory
    // strictly below the LCA also conflicts (Figure 9 step 6): /a/b could
    // be re-parented under /x before this rename commits, forming a loop.
    let u3 = ClientUuid::generate();
    node.insert_dir(
        mantle_types::ROOT_ID,
        "x",
        InodeId(70),
        Permission::ALL,
        &mut stats,
    )
    .unwrap();
    assert!(matches!(
        node.rename_prepare(&p("/x"), &p("/a/b/c/x2"), u3, &mut stats),
        Err(MetaError::RenameLocked(_))
    ));
    // Whereas a rename entirely inside the locked subtree is safe: the
    // locked directory is a common ancestor (at the LCA), so the relative
    // topology cannot change.
    let u4 = ClientUuid::generate();
    let inner = node
        .rename_prepare(&p("/a/b/c/d"), &p("/a/b/d2"), u4, &mut stats)
        .unwrap();
    node.rename_abort(&inner, &p("/a/b/c/d"), u4, &mut stats)
        .unwrap();

    // Same-uuid retry (proxy failover) re-enters the lock instead of
    // deadlocking (§5.3).
    let grant_retry = node
        .rename_prepare(&p("/a/b"), &p("/b_moved"), u1, &mut stats)
        .unwrap();
    assert_eq!(grant_retry.src_id, grant1.src_id);

    node.rename_abort(&grant1, &p("/a/b"), u1, &mut stats)
        .unwrap();
    // After the abort the second rename succeeds.
    let grant2 = node
        .rename_prepare(&p("/a/b"), &p("/elsewhere"), u2, &mut stats)
        .unwrap();
    node.rename_commit(&grant2, &p("/a/b"), &p("/elsewhere"), u2, &mut stats)
        .unwrap();
    assert!(node.lookup(&p("/elsewhere/c"), &mut stats).is_ok());
}

#[test]
fn rename_to_existing_destination_rejected() {
    let node = node();
    let mut stats = RequestCtx::new();
    build_chain(&node, &mut stats);
    node.insert_dir(
        mantle_types::ROOT_ID,
        "occupied",
        InodeId(50),
        Permission::ALL,
        &mut stats,
    )
    .unwrap();
    assert!(matches!(
        node.rename_prepare(
            &p("/a/b"),
            &p("/occupied"),
            ClientUuid::generate(),
            &mut stats
        ),
        Err(MetaError::AlreadyExists(_))
    ));
}

#[test]
fn rename_invalidates_follower_caches() {
    let opts = IndexOptions {
        k: 1,
        learners: 1,
        ..IndexOptions::default()
    };
    let node = node_with(opts);
    let mut stats = RequestCtx::new();
    build_chain(&node, &mut stats);

    // Warm every replica's cache via round-robin lookups.
    for _ in 0..12 {
        node.lookup(&p("/a/b/c/d"), &mut stats).unwrap();
    }
    let warmed: usize = node.cache_stats().iter().map(|s| s.entries).sum();
    assert!(warmed > 0);

    let uuid = ClientUuid::generate();
    let grant = node
        .rename_prepare(&p("/a/b"), &p("/nb"), uuid, &mut stats)
        .unwrap();
    node.rename_commit(&grant, &p("/a/b"), &p("/nb"), uuid, &mut stats)
        .unwrap();

    // Every replica must now resolve the new path and reject the old one.
    for _ in 0..12 {
        assert!(node.lookup(&p("/nb/c/d"), &mut stats).is_ok());
        assert!(node.lookup(&p("/a/b/c/d"), &mut stats).is_err());
    }
}

#[test]
fn leader_crash_lookup_fails_over_to_new_leader() {
    let node = node();
    let mut stats = RequestCtx::new();
    build_chain(&node, &mut stats);

    let leader = node.group().leader().unwrap();
    node.group().crash(leader.id());
    node.group()
        .await_leader(std::time::Duration::from_secs(5))
        .unwrap();
    // Lookups and writes proceed against the new leader.
    let resolved = node.lookup(&p("/a/b/c/d"), &mut stats).unwrap();
    assert_eq!(resolved.id, InodeId(13));
    node.insert_dir(InodeId(13), "e", InodeId(77), Permission::ALL, &mut stats)
        .unwrap();
    assert_eq!(
        node.lookup(&p("/a/b/c/d/e"), &mut stats).unwrap().id,
        InodeId(77)
    );
}

#[test]
fn raw_insert_matches_replicated_insert() {
    let node = node();
    let mut stats = RequestCtx::new();
    node.raw_insert_dir(mantle_types::ROOT_ID, "bulk", InodeId(5), Permission::ALL);
    assert_eq!(node.lookup(&p("/bulk"), &mut stats).unwrap().id, InodeId(5));
    assert_eq!(node.table_len(), 1);
}
