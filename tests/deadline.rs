//! Deadline propagation through the request plane (DESIGN.md §4.14).
//!
//! A [`RequestCtx`] deadline travels with the op across every hop. The
//! contract under test:
//!
//! * the first server-side admission check that sees the deadline expired
//!   aborts the op with [`MetaError::DeadlineExceeded`] — *mid-chain*: RPCs
//!   issued before expiry complete normally,
//! * no further downstream RPCs are issued after the abort (the aborted op
//!   performs strictly fewer RPCs than its uncontended twin),
//! * `simnode_deadline_aborts_total` accounts every abort exactly once —
//!   including aborts decided on the Raft read path (a follower refusing to
//!   issue a ReadIndex round for an already-expired request),
//! * every RPC site is covered: directory scans (`list`, `readdir`) and the
//!   IndexNode propose admit through the same check as point reads,
//! * retry engines never retry past an expired deadline,
//! * the whole experiment is deterministic under the virtual clock.

use std::time::Duration;

use mantle::core::{MantleCluster, MantleConfig};
use mantle::prelude::*;
use mantle::types::InodeId;

fn cluster(follower_reads: bool) -> std::sync::Arc<MantleCluster> {
    let mut config = MantleConfig::with_sim(SimConfig::default(), 4);
    config.index.follower_reads = follower_reads;
    MantleCluster::with_config(config)
}

/// Sums `(shed, deadline_aborts)` over every simulated server in the
/// cluster, plus the per-replica abort counts by node name.
fn admission_counters(cluster: &MantleCluster) -> (u64, u64, Vec<(String, u64)>) {
    let mut shed = 0;
    let mut aborts = 0;
    let mut per_node = Vec::new();
    for r in cluster.index().group().replicas() {
        let s = r.node().snapshot();
        shed += s.shed;
        aborts += s.deadline_aborts;
        per_node.push((s.name, s.deadline_aborts));
    }
    for i in 0..cluster.db().n_shards() {
        let s = cluster.db().shard_node(i).snapshot();
        shed += s.shed;
        aborts += s.deadline_aborts;
        per_node.push((s.name, s.deadline_aborts));
    }
    (shed, aborts, per_node)
}

/// Creates the parent chain `/a/b/c`, then runs the final
/// `mkdir /a/b/c/d` with `deadline` and returns `(result, ctx)`.
fn mkdir_chain(
    cluster: &std::sync::Arc<MantleCluster>,
    deadline: Option<Duration>,
) -> (Result<mantle::types::InodeId>, RequestCtx) {
    let svc = cluster.service();
    for p in ["/a", "/a/b", "/a/b/c"] {
        svc.mkdir(&MetaPath::parse(p).unwrap(), &mut RequestCtx::new())
            .unwrap();
    }
    let mut ctx = match deadline {
        Some(d) => RequestCtx::new().with_deadline_in(d),
        None => RequestCtx::new(),
    };
    let result = svc.mkdir(&MetaPath::parse("/a/b/c/d").unwrap(), &mut ctx);
    (result, ctx)
}

#[test]
fn mid_chain_abort_stops_downstream_rpcs_and_accounts_once() {
    // Uncontended twin: the same op with no deadline, on an identical
    // fresh cluster, fixes the full RPC chain length.
    let free = cluster(false);
    let (ok, full_ctx) = mkdir_chain(&free, None);
    ok.expect("uncontended mkdir must succeed");
    let (shed, aborts, _) = admission_counters(&free);
    assert_eq!((shed, aborts), (0, 0), "no deadline, no admission activity");
    let full_rpcs = full_ctx.rpcs;
    assert!(full_rpcs >= 3, "mkdir chain is multi-RPC, saw {full_rpcs}");

    // One network round trip is 200us (SimConfig::default), so a 300us
    // deadline admits the first hop (clock at ~200us on arrival) and has
    // expired by the second — a genuinely mid-chain server-side abort.
    let strict = cluster(false);
    let (res, ctx) = mkdir_chain(&strict, Some(Duration::from_micros(300)));
    assert!(
        matches!(res, Err(MetaError::DeadlineExceeded(_))),
        "expected DeadlineExceeded, got {res:?}"
    );
    assert!(
        ctx.rpcs >= 2,
        "abort must be mid-chain (first hop admitted), saw {} RPCs",
        ctx.rpcs
    );
    assert!(
        ctx.rpcs < full_rpcs,
        "no downstream RPCs after the abort: {} must be < uncontended {full_rpcs}",
        ctx.rpcs
    );
    let (shed, aborts, _) = admission_counters(&strict);
    assert_eq!(shed, 0, "a deadline abort is not a shed");
    assert_eq!(aborts, 1, "exactly one server decides the abort");

    // Deterministic: a fresh rerun reproduces the abort point exactly.
    let again = cluster(false);
    let (res2, ctx2) = mkdir_chain(&again, Some(Duration::from_micros(300)));
    assert!(matches!(res2, Err(MetaError::DeadlineExceeded(_))));
    assert_eq!(ctx2.rpcs, ctx.rpcs, "abort point moved between reruns");
    assert_eq!(admission_counters(&again).1, 1);
}

#[test]
fn raft_read_path_accounts_expired_deadlines() {
    // Follower reads on (the default): lookups round-robin across the
    // three replicas, so three expired lookups hit every replica once.
    // Followers abort *before* the ReadIndex round (the Raft read path),
    // the leader aborts in admission — every abort must be accounted.
    let cluster = cluster(true);
    let svc = cluster.service();
    for p in ["/d0", "/d1", "/d2"] {
        svc.mkdir(&MetaPath::parse(p).unwrap(), &mut RequestCtx::new())
            .unwrap();
    }
    let (_, before, _) = admission_counters(&cluster);
    assert_eq!(before, 0);

    for p in ["/d0", "/d1", "/d2"] {
        let mut ctx = RequestCtx::new().with_deadline_in(Duration::ZERO);
        let res = svc.lookup(&MetaPath::parse(p).unwrap(), &mut ctx);
        assert!(
            matches!(res, Err(MetaError::DeadlineExceeded(_))),
            "expired lookup of {p} must abort, got {res:?}"
        );
        assert_eq!(
            ctx.total_retries(),
            0,
            "no retry engine may retry past an expired deadline"
        );
    }

    let (shed, aborts, per_node) = admission_counters(&cluster);
    assert_eq!(shed, 0);
    assert_eq!(aborts, 3, "every expired lookup aborts exactly once");
    // Round-robin spreads the three aborts across the index replicas: at
    // least two distinct servers (so at least one non-leader) decided an
    // abort, proving the Raft read path accounts too.
    let deciders = per_node
        .iter()
        .filter(|(name, n)| name.starts_with("index") && *n > 0)
        .count();
    assert!(
        deciders >= 2,
        "aborts concentrated on one replica: {per_node:?}"
    );
}

#[test]
fn expired_deadline_aborts_scans_and_proposes_server_side() {
    // A warm path lease resolves `/scan` with zero RPCs, so the TafDB scan
    // is the first server an already-expired request reaches.
    let mut config = MantleConfig::with_sim(SimConfig::default(), 4);
    config.index.follower_reads = false;
    config.pcache = mantle::core::PathLeaseConfig::enabled();
    let cluster = MantleCluster::with_config(config);
    let svc = cluster.service();
    let dir = MetaPath::parse("/scan").unwrap();
    let id = svc.mkdir(&dir, &mut RequestCtx::new()).unwrap();
    svc.create(&dir.child("o"), 1, &mut RequestCtx::new())
        .unwrap();
    svc.lookup(&dir, &mut RequestCtx::new()).unwrap();
    assert_eq!(admission_counters(&cluster).1, 0);

    let expired = || RequestCtx::new().with_deadline_in(Duration::ZERO);
    let mut aborts = 0;
    let mut check = |what: &str, res: Result<()>, ctx: &RequestCtx| {
        assert!(
            matches!(res, Err(MetaError::DeadlineExceeded(_))),
            "expired {what} must abort server-side, got {res:?}"
        );
        assert_eq!(ctx.rpcs, 1, "{what}: the aborting hop is the only RPC");
        assert_eq!(ctx.total_retries(), 0, "{what}: no retry past a deadline");
        aborts += 1;
        let (shed, seen, _) = admission_counters(&cluster);
        assert_eq!(
            (shed, seen),
            (0, aborts),
            "{what}: exactly one accounted abort"
        );
    };

    let mut ctx = expired();
    let res = svc.list(&dir, None, 10, &mut ctx).map(|_| ());
    check("list", res, &ctx);

    let mut ctx = expired();
    let res = svc.readdir(&dir, &mut ctx).map(|_| ());
    check("readdir", res, &ctx);

    // mkdir's last hop: the IndexNode propose admits on the leader.
    let mut ctx = expired();
    let res = cluster
        .index()
        .insert_dir(id, "sub", InodeId(9_999), Permission::ALL, &mut ctx);
    check("index propose", res, &ctx);
    assert!(
        svc.lookup(&dir.child("sub"), &mut RequestCtx::new())
            .is_err(),
        "an aborted propose must not replicate"
    );
}
