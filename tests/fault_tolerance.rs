//! Fault-tolerance integration tests (§5.3): leader failures, proxy
//! failures mid-rename, and recovery.

use std::time::Duration;

use mantle::prelude::*;
use mantle::types::ClientUuid;

fn fast_failover_cluster() -> std::sync::Arc<MantleCluster> {
    let mut config = MantleConfig::with_sim(SimConfig::instant(), 4);
    config.index.raft.election_timeout_min = Duration::from_millis(40);
    config.index.raft.election_timeout_max = Duration::from_millis(80);
    config.index.raft.heartbeat_interval = Duration::from_millis(10);
    MantleCluster::with_config(config)
}

fn p(s: &str) -> MetaPath {
    MetaPath::parse(s).unwrap()
}

#[test]
fn operations_survive_repeated_leader_crashes() {
    let cluster = fast_failover_cluster();
    let svc = cluster.service();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/work"), &mut stats).unwrap();

    for round in 0..3 {
        let leader = cluster.index().group().leader().expect("leader");
        cluster.index().group().crash(leader.id());
        // Writes and reads keep succeeding through the election window.
        for i in 0..5 {
            svc.mkdir(&p(&format!("/work/r{round}_{i}")), &mut stats)
                .unwrap();
            svc.create(&p(&format!("/work/r{round}_{i}/o")), 1, &mut stats)
                .unwrap();
        }
        assert!(svc
            .lookup(&p(&format!("/work/r{round}_0")), &mut stats)
            .is_ok());
        cluster.index().group().recover(leader.id());
    }
    // All 15 directories and their objects exist.
    let listing = svc.readdir(&p("/work"), &mut stats).unwrap();
    assert_eq!(listing.len(), 15);
    assert_eq!(
        svc.dirstat(&p("/work"), &mut stats).unwrap().attrs.entries,
        15
    );
}

#[test]
fn recovered_replica_catches_up_and_serves_reads() {
    let cluster = fast_failover_cluster();
    let svc = cluster.service();
    let mut stats = RequestCtx::new();

    let victim = cluster.index().group().leader().unwrap();
    cluster.index().group().crash(victim.id());
    for i in 0..10 {
        svc.mkdir(&p(&format!("/d{i}")), &mut stats).unwrap();
    }
    cluster.index().group().recover(victim.id());

    // The recovered replica applies the missed log within a bounded time:
    // wait on the apply signal rather than polling.
    let leader_applied = cluster
        .index()
        .group()
        .await_leader(Duration::from_secs(5))
        .expect("leader after recovery")
        .last_applied();
    assert!(leader_applied > 0);
    assert!(
        victim.wait_for_applied(leader_applied, Duration::from_secs(5)),
        "replica never caught up"
    );
    assert_eq!(victim.state_machine().table.len(), 10);
}

#[test]
fn proxy_failure_mid_rename_is_recovered_by_uuid_retry() {
    // §5.3: a proxy crash between the IndexNode prepare and the metadata
    // transaction leaves the rename lock held. The client's retry reuses
    // the request UUID and re-enters the lock instead of deadlocking.
    let cluster = fast_failover_cluster();
    let svc = cluster.service();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/src"), &mut stats).unwrap();
    svc.mkdir(&p("/src/victim"), &mut stats).unwrap();
    svc.mkdir(&p("/dst"), &mut stats).unwrap();

    let uuid = ClientUuid::generate();
    // Proxy #1 performs the prepare (steps 1-7 of Figure 9)… and dies.
    let grant = cluster
        .index()
        .rename_prepare(&p("/src/victim"), &p("/dst/moved"), uuid, &mut stats)
        .unwrap();

    // A different request cannot move the locked directory.
    assert!(matches!(
        cluster.index().rename_prepare(
            &p("/src/victim"),
            &p("/dst/other"),
            ClientUuid::generate(),
            &mut stats
        ),
        Err(MetaError::RenameLocked(_))
    ));

    // Proxy #2 retries the same client request (same UUID): it re-enters
    // the lock and completes the rename — the metadata transaction (step
    // 8a) followed by the IndexNode commit (step 8b).
    let grant2 = cluster
        .index()
        .rename_prepare(&p("/src/victim"), &p("/dst/moved"), uuid, &mut stats)
        .unwrap();
    assert_eq!(grant.src_id, grant2.src_id);
    use mantle::tafdb::{entry_key, Row, TxnOp};
    use mantle::types::{AttrDelta, Permission};
    let ops = [
        TxnOp::Delete {
            key: entry_key(grant2.src_pid, "victim"),
        },
        TxnOp::InsertUnique {
            key: entry_key(grant2.dst_pid, "moved"),
            row: Row::DirAccess {
                id: grant2.src_id,
                permission: Permission::ALL,
            },
        },
        TxnOp::AttrUpdate {
            dir: grant2.src_pid,
            delta: AttrDelta {
                nlink: -1,
                entries: -1,
                mtime: 1,
            },
        },
        TxnOp::AttrUpdate {
            dir: grant2.dst_pid,
            delta: AttrDelta {
                nlink: 1,
                entries: 1,
                mtime: 1,
            },
        },
    ];
    cluster.db().execute(&ops, &mut stats).unwrap();
    cluster
        .index()
        .rename_commit(&grant2, &p("/src/victim"), "moved".into(), uuid, &mut stats)
        .unwrap();

    assert!(cluster.index().lookup(&p("/dst/moved"), &mut stats).is_ok());
    assert!(cluster
        .index()
        .lookup(&p("/src/victim"), &mut stats)
        .is_err());
    // The lock died with the source entry; new renames of the moved dir work.
    svc.rename_dir(&p("/dst/moved"), &p("/src/back"), &mut stats)
        .unwrap();
}

#[test]
fn tafdb_transactions_unaffected_by_index_failover() {
    let cluster = fast_failover_cluster();
    let svc = cluster.service();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/d"), &mut stats).unwrap();

    let leader = cluster.index().group().leader().unwrap();
    cluster.index().group().crash(leader.id());

    // Object creation only needs the parent resolution (retried through
    // failover) plus TafDB — which has its own availability story.
    std::thread::scope(|s| {
        for t in 0..4 {
            let svc = &svc;
            s.spawn(move || {
                let mut stats = RequestCtx::new();
                for i in 0..10 {
                    svc.create(&p(&format!("/d/o_{t}_{i}")), 1, &mut stats)
                        .unwrap();
                }
            });
        }
    });
    assert_eq!(svc.dirstat(&p("/d"), &mut stats).unwrap().attrs.entries, 40);
}
