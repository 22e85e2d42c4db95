//! End-to-end Mantle metadata service tests across IndexNode and TafDB.

use std::sync::Arc;

use mantle_core::{MantleCluster, MantleConfig, MetadataService};
use mantle_types::{MetaError, MetaPath, Phase, RequestCtx, SimConfig};

fn p(s: &str) -> MetaPath {
    MetaPath::parse(s).unwrap()
}

fn cluster() -> Arc<MantleCluster> {
    MantleCluster::build(SimConfig::instant(), 4)
}

#[test]
fn full_object_lifecycle() {
    let svc = cluster();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/data"), &mut stats).unwrap();
    svc.create(&p("/data/obj"), 4096, &mut stats).unwrap();
    let meta = svc.objstat(&p("/data/obj"), &mut stats).unwrap();
    assert_eq!(meta.size, 4096);
    assert_eq!(
        svc.dirstat(&p("/data"), &mut stats).unwrap().attrs.entries,
        1
    );
    svc.delete(&p("/data/obj"), &mut stats).unwrap();
    assert!(matches!(
        svc.objstat(&p("/data/obj"), &mut stats),
        Err(MetaError::NotFound(_))
    ));
    assert_eq!(
        svc.dirstat(&p("/data"), &mut stats).unwrap().attrs.entries,
        0
    );
    svc.rmdir(&p("/data"), &mut stats).unwrap();
    assert!(svc.lookup(&p("/data"), &mut stats).is_err());
}

#[test]
fn mkdir_requires_existing_parent() {
    let svc = cluster();
    let mut stats = RequestCtx::new();
    assert!(matches!(
        svc.mkdir(&p("/missing/child"), &mut stats),
        Err(MetaError::NotFound(_))
    ));
}

#[test]
fn duplicate_mkdir_and_create_rejected() {
    let svc = cluster();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/d"), &mut stats).unwrap();
    assert!(matches!(
        svc.mkdir(&p("/d"), &mut stats),
        Err(MetaError::AlreadyExists(_))
    ));
    svc.create(&p("/d/o"), 1, &mut stats).unwrap();
    assert!(matches!(
        svc.create(&p("/d/o"), 2, &mut stats),
        Err(MetaError::AlreadyExists(_))
    ));
}

#[test]
fn rmdir_of_non_empty_dir_fails() {
    let svc = cluster();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/d"), &mut stats).unwrap();
    svc.create(&p("/d/o"), 1, &mut stats).unwrap();
    assert!(matches!(
        svc.rmdir(&p("/d"), &mut stats),
        Err(MetaError::NotEmpty(_))
    ));
    svc.delete(&p("/d/o"), &mut stats).unwrap();
    svc.rmdir(&p("/d"), &mut stats).unwrap();
}

#[test]
fn delete_of_directory_and_objstat_of_dir_rejected() {
    let svc = cluster();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/d"), &mut stats).unwrap();
    assert!(matches!(
        svc.delete(&p("/d"), &mut stats),
        Err(MetaError::IsADirectory(_))
    ));
    assert!(matches!(
        svc.objstat(&p("/d"), &mut stats),
        Err(MetaError::IsADirectory(_))
    ));
}

#[test]
fn deep_lookup_is_single_rpc_for_metadata() {
    // Disable follower reads so the round-robin cannot add the (batched)
    // commit-index query a follower read pays; the leader path is the
    // paper's canonical single-RPC lookup.
    // Non-zero modeled delays so the phase-time assertion below is
    // meaningful under the virtual clock (an all-zero model measures
    // exactly zero phase time).
    let mut config = MantleConfig::with_sim(SimConfig::fast(), 4);
    config.index.follower_reads = false;
    let svc = MantleCluster::with_config(config);
    let mut stats = RequestCtx::new();
    let mut path = MetaPath::root();
    for i in 0..10 {
        path = path.child(&format!("level{i}"));
        svc.mkdir(&path, &mut stats).unwrap();
    }
    let mut lstats = RequestCtx::new();
    let resolved = svc.lookup(&path, &mut lstats).unwrap();
    assert!(resolved.id.raw() > 1);
    assert_eq!(lstats.rpcs, 1, "10-level lookup must be a single RPC");
    assert!(lstats.phase_nanos(Phase::Lookup) > 0);
    assert_eq!(lstats.phase_nanos(Phase::Execute), 0);
}

#[test]
fn rename_moves_directory_across_parents() {
    // Non-zero modeled delays: the LoopDetect phase assertion needs
    // modeled time under the virtual clock.
    let svc = MantleCluster::build(SimConfig::fast(), 4);
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/src"), &mut stats).unwrap();
    svc.mkdir(&p("/src/inner"), &mut stats).unwrap();
    svc.create(&p("/src/inner/obj"), 9, &mut stats).unwrap();
    svc.mkdir(&p("/dst"), &mut stats).unwrap();

    svc.rename_dir(&p("/src/inner"), &p("/dst/moved"), &mut stats)
        .unwrap();

    // The whole subtree follows the rename.
    assert_eq!(
        svc.objstat(&p("/dst/moved/obj"), &mut stats).unwrap().size,
        9
    );
    assert!(matches!(
        svc.objstat(&p("/src/inner/obj"), &mut stats),
        Err(MetaError::NotFound(_))
    ));
    // Entry counts moved from /src to /dst.
    assert_eq!(
        svc.dirstat(&p("/src"), &mut stats).unwrap().attrs.entries,
        0
    );
    assert_eq!(
        svc.dirstat(&p("/dst"), &mut stats).unwrap().attrs.entries,
        1
    );
    // Loop-detection phase was charged, lookup phase was not (§6.3).
    assert!(stats.phase_nanos(Phase::LoopDetect) > 0);
}

#[test]
fn rename_into_own_subtree_rejected() {
    let svc = cluster();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/a"), &mut stats).unwrap();
    svc.mkdir(&p("/a/b"), &mut stats).unwrap();
    assert!(matches!(
        svc.rename_dir(&p("/a"), &p("/a/b/c"), &mut stats),
        Err(MetaError::RenameLoop { .. })
    ));
}

#[test]
fn rename_onto_existing_object_aborts_and_unlocks() {
    let svc = cluster();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/a"), &mut stats).unwrap();
    svc.mkdir(&p("/b"), &mut stats).unwrap();
    svc.create(&p("/b/taken"), 1, &mut stats).unwrap();
    // Destination name exists as an *object*: the IndexNode cannot see it,
    // the metadata transaction aborts, and the rename lock is rolled back.
    assert!(matches!(
        svc.rename_dir(&p("/a"), &p("/b/taken"), &mut stats),
        Err(MetaError::AlreadyExists(_))
    ));
    // The source is unlocked and still movable.
    svc.rename_dir(&p("/a"), &p("/b/fresh"), &mut stats)
        .unwrap();
    assert!(svc.lookup(&p("/b/fresh"), &mut stats).is_ok());
}

#[test]
fn concurrent_creates_in_shared_directory_all_succeed() {
    let svc = cluster();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/shared"), &mut stats).unwrap();
    std::thread::scope(|s| {
        for t in 0..8 {
            let svc = &svc;
            s.spawn(move || {
                let mut stats = RequestCtx::new();
                for i in 0..25 {
                    svc.create(&p(&format!("/shared/obj_{t}_{i}")), 1, &mut stats)
                        .unwrap();
                }
            });
        }
    });
    assert_eq!(
        svc.dirstat(&p("/shared"), &mut stats)
            .unwrap()
            .attrs
            .entries,
        200
    );
    assert_eq!(svc.readdir(&p("/shared"), &mut stats).unwrap().len(), 200);
}

#[test]
fn concurrent_renames_into_shared_target_serialize_correctly() {
    // The Spark-analytics commit pattern: every task renames its temp dir
    // into one shared output directory (§3.2).
    let svc = cluster();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/out"), &mut stats).unwrap();
    for t in 0..8 {
        svc.mkdir(&p(&format!("/tmp{t}")), &mut stats).unwrap();
        svc.create(&p(&format!("/tmp{t}/part")), 1, &mut stats)
            .unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..8 {
            let svc = &svc;
            s.spawn(move || {
                let mut stats = RequestCtx::new();
                svc.rename_dir(
                    &p(&format!("/tmp{t}")),
                    &p(&format!("/out/task{t}")),
                    &mut stats,
                )
                .unwrap();
            });
        }
    });
    let listing = svc.readdir(&p("/out"), &mut stats).unwrap();
    assert_eq!(listing.len(), 8);
    for t in 0..8 {
        assert_eq!(
            svc.objstat(&p(&format!("/out/task{t}/part")), &mut stats)
                .unwrap()
                .size,
            1
        );
    }
    assert_eq!(
        svc.dirstat(&p("/out"), &mut stats).unwrap().attrs.entries,
        8
    );
}

#[test]
fn index_leader_failover_is_transparent() {
    let mut config = MantleConfig::with_sim(SimConfig::instant(), 4);
    config.index.raft.election_timeout_min = std::time::Duration::from_millis(50);
    config.index.raft.election_timeout_max = std::time::Duration::from_millis(100);
    let svc = MantleCluster::with_config(config);
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/d"), &mut stats).unwrap();
    svc.create(&p("/d/o"), 7, &mut stats).unwrap();

    let leader = svc.index().group().leader().unwrap();
    svc.index().group().crash(leader.id());

    // Operations retry through the re-election window and then succeed.
    assert_eq!(svc.objstat(&p("/d/o"), &mut stats).unwrap().size, 7);
    svc.mkdir(&p("/d/after_failover"), &mut stats).unwrap();
    assert!(svc.lookup(&p("/d/after_failover"), &mut stats).is_ok());
}

#[test]
fn data_service_round_trip_with_metadata() {
    let svc = cluster();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/d"), &mut stats).unwrap();
    svc.create(&p("/d/o"), 128, &mut stats).unwrap();
    let blob = svc.data().raw_write(128);
    assert_eq!(svc.data().read(blob, &mut stats).unwrap(), 128);
}
