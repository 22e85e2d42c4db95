//! Chaos tests: mdtest-style workloads under seeded fault storms
//! (DESIGN.md §4.9).
//!
//! Every test builds a [`FaultPlan`] from an explicit seed, installs it on
//! a full cluster (or a single subsystem) and asserts the safety
//! properties the paper's fault-tolerance story depends on (§5.3):
//!
//! * **no lost acks** — an operation the service acknowledged survives
//!   every injected fault;
//! * **no duplicate applies** — client retries of dropped/timed-out
//!   requests never double-apply (request-loss injection + client-UUID
//!   idempotency);
//! * **consistent dirstat counts** — directory statistics match the
//!   acknowledged namespace exactly after the storm heals.
//!
//! The seed sweep is driven by `MANTLE_FAULT_SEED` (one seed per process,
//! as the nightly chaos CI job does for seeds 0..63; the 32..47 band
//! selects the snapshot-storm profile and 48..63 the lease-storm profile
//! with the path-lease cache forced on) and defaults to a
//! small fixed set for plain `cargo test`. On failure the panic reporter
//! prints the seed + profile, and `MANTLE_CHAOS_BUNDLE_DIR` captures a
//! repro bundle. Every storm run writes its fault timeline to (captured)
//! stderr; `make chaos SEED=n` runs with `--nocapture` and shows it.

use std::sync::Arc;
use std::time::Duration;

use mantle::prelude::*;
use mantle::rpc::{faults, FaultKind};
use mantle::store::GroupCommitWal;
use mantle::tafdb::{attr_key, entry_key, Row, TafDb, TafDbOptions, TxnOp};
use mantle::types::{AttrDelta, DirAttrMeta, EnvConfig, InodeId, Permission as Perm, ROOT_ID};

fn p(s: &str) -> MetaPath {
    MetaPath::parse(s).unwrap()
}

/// Seeds exercised by this process: the CI matrix pins one via
/// `MANTLE_FAULT_SEED`; plain `cargo test` sweeps a fixed default set.
fn seeds_under_test() -> Vec<u64> {
    match EnvConfig::get().fault_seed {
        Some(seed) => vec![seed],
        None => vec![0, 1, 2],
    }
}

/// Storm profile for a seed: the nightly sweep's seed bands select the
/// fault mix. 0..32 runs the base storm; 32..48 layers snapshot-write and
/// snapshot-install crashes on top (§4.11's discard-on-abort windows);
/// 48..64 runs the lease storm, which adds forced lease expiry and
/// stale-read vetoes against the path-lease cache (DESIGN.md §4.13) —
/// coherence-only faults that are inert while the cache is off.
fn storm_profile(seed: u64) -> FaultProfile {
    if seed >= 48 {
        FaultProfile::lease_storm()
    } else if seed >= 32 {
        FaultProfile::snapshot_storm()
    } else {
        FaultProfile::storm()
    }
}

/// A cluster with fast elections so crash storms resolve quickly, and
/// aggressive snapshotting so storms overlap compaction windows.
fn chaos_cluster() -> Arc<MantleCluster> {
    chaos_cluster_for(0)
}

/// Seed-aware variant: the lease-storm band forces the path-lease cache on
/// (it is what those seeds' faults target), regardless of the environment.
fn chaos_cluster_for(seed: u64) -> Arc<MantleCluster> {
    let mut config = MantleConfig::with_sim(SimConfig::instant(), 4);
    config.index.raft.election_timeout_min = Duration::from_millis(40);
    config.index.raft.election_timeout_max = Duration::from_millis(80);
    config.index.raft.heartbeat_interval = Duration::from_millis(10);
    config.index.raft.snapshot_every = 64;
    if seed >= 48 {
        config.pcache = mantle::core::PathLeaseConfig::enabled();
    }
    MantleCluster::with_config(config)
}

/// Client-side retry: injected faults are request-loss only, so retrying
/// any retryable error is safe (acknowledged work is never duplicated).
fn retry<R>(mut f: impl FnMut(&mut RequestCtx) -> Result<R>) -> R {
    let mut stats = RequestCtx::new();
    for _ in 0..20_000 {
        match f(&mut stats) {
            Ok(r) => return r,
            Err(e) if e.is_retryable() => std::thread::sleep(Duration::from_micros(200)),
            Err(e) => panic!("non-retryable error under chaos: {e}"),
        }
    }
    panic!("operation did not succeed within the retry budget");
}

/// The tentpole end-to-end test: an mdtest-style create workload racing a
/// fault storm (probabilistic drops/timeouts/spikes/fsync/2PC faults plus
/// an index-leader crash and a client→shard partition), asserting no lost
/// acks, no duplicate applies, and consistent dirstat counts.
#[test]
fn chaos_storm_preserves_acknowledged_namespace() {
    for seed in seeds_under_test() {
        let cluster = chaos_cluster_for(seed);
        let svc = cluster.service();
        let mut stats = RequestCtx::new();
        svc.mkdir(&p("/w"), &mut stats).unwrap();

        let plan = FaultPlan::new(seed, storm_profile(seed)).activate();
        cluster.install_faults(&plan);

        const WORKERS: usize = 4;
        const DIRS_PER_WORKER: usize = 20;
        std::thread::scope(|s| {
            for t in 0..WORKERS {
                let svc = &svc;
                s.spawn(move || {
                    for i in 0..DIRS_PER_WORKER {
                        let dir = format!("/w/t{t}_d{i}");
                        retry(|stats| svc.mkdir(&p(&dir), stats));
                        retry(|stats| svc.create(&p(&format!("{dir}/obj")), 1, stats));
                    }
                });
            }
            // The storm driver: crash the index leader mid-workload (its
            // registered hook downs the Raft replica), then partition the
            // client from one TafDB shard, then heal everything.
            let plan = &plan;
            let cluster = &cluster;
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                let leader = cluster
                    .index()
                    .group()
                    .leader()
                    .map(|l| l.node().name().to_string());
                if let Some(name) = leader {
                    plan.crash_node(&name);
                    std::thread::sleep(Duration::from_millis(50));
                    plan.restart_node(&name);
                }
                std::thread::sleep(Duration::from_millis(5));
                plan.partition("client", "tafdb0");
                std::thread::sleep(Duration::from_millis(20));
                plan.heal_all();
            });
        });
        plan.heal_all();

        // Post-heal verification: every acknowledged directory and object
        // is present exactly once, and the counters agree.
        let total = WORKERS * DIRS_PER_WORKER;
        let listing = retry(|stats| svc.readdir(&p("/w"), stats));
        assert_eq!(listing.len(), total, "seed {seed}: lost or duplicated acks");
        let mut names: Vec<_> = listing.iter().map(|e| e.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "seed {seed}: duplicate readdir entries");
        let stat = retry(|stats| svc.dirstat(&p("/w"), stats));
        assert_eq!(
            stat.attrs.entries, total as i64,
            "seed {seed}: dirstat drifted from acknowledged namespace"
        );
        for t in 0..WORKERS {
            for i in 0..DIRS_PER_WORKER {
                let dir = format!("/w/t{t}_d{i}");
                retry(|stats| svc.lookup(&p(&dir), stats));
                let ds = retry(|stats| svc.dirstat(&p(&dir), stats));
                assert_eq!(ds.attrs.entries, 1, "seed {seed}: {dir} lost its object");
            }
        }
        assert!(
            !plan.events().is_empty(),
            "seed {seed}: the storm never injected a fault"
        );
        eprintln!("{}", plan.timeline());
        cluster.clear_faults();
    }
}

/// Acceptance criterion: a zeroed profile must be indistinguishable from
/// no plan at all — nothing injected, nothing recorded, no retries.
#[test]
fn zeroed_profile_injects_nothing() {
    let cluster = chaos_cluster();
    let svc = cluster.service();
    let plan = FaultPlan::new(7, FaultProfile::zeroed());
    cluster.install_faults(&plan);

    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/quiet"), &mut stats).unwrap();
    for i in 0..20 {
        svc.create(&p(&format!("/quiet/o{i}")), 1, &mut stats)
            .unwrap();
    }
    svc.rename_dir(&p("/quiet"), &p("/calm"), &mut stats)
        .unwrap();
    assert_eq!(
        svc.dirstat(&p("/calm"), &mut stats).unwrap().attrs.entries,
        20
    );

    assert!(plan.events().is_empty(), "zeroed profile injected a fault");
    assert_eq!(stats.retry_count(RetryClass::Transient), 0);
}

/// Builds a quiet TafDB whose only fault-roll consumer is the test thread:
/// TafDB runs no thread of its own, and with `delta_records` off no op
/// appends a delta record, so no op folds any either.
fn deterministic_db() -> Arc<TafDb> {
    let opts = TafDbOptions {
        n_shards: 4,
        delta_records: false,
        group_commit: false,
        ..TafDbOptions::default()
    };
    TafDb::new(SimConfig::instant(), opts)
}

/// Runs a fixed single-threaded workload against a fresh TafDB under
/// `seed` and returns the plan's fault event log.
fn fault_log_for(seed: u64) -> Vec<mantle::rpc::FaultEvent> {
    let db = deterministic_db();
    let plan = FaultPlan::new(seed, FaultProfile::storm());
    db.install_faults(Some(plan.clone()));
    let mut stats = RequestCtx::new();
    let dirs: Vec<InodeId> = (1..6).map(|i| InodeId(i * 97)).collect();
    db.bulk_apply(dirs.iter().map(|&dir| TxnOp::Put {
        key: attr_key(dir),
        row: Row::DirAttr(DirAttrMeta::new(0, 0)),
    }));
    for round in 0..40 {
        for (d, dir) in dirs.iter().enumerate() {
            let name = format!("o{round}");
            // Cross-shard transaction: entry on `dir`'s shard, attr deltas
            // on the root's — exercises 2PC prepare/commit fault rolls.
            let ops = [
                TxnOp::InsertUnique {
                    key: entry_key(*dir, &name),
                    row: Row::DirAccess {
                        id: InodeId(1_000 + (round * 10 + d) as u64),
                        permission: Perm::ALL,
                    },
                },
                TxnOp::AttrUpdate {
                    dir: ROOT_ID,
                    delta: AttrDelta {
                        nlink: 0,
                        entries: 1,
                        mtime: round as u64,
                    },
                },
            ];
            db.execute(&ops, &mut stats).unwrap();
            let _ = db.get_entry(*dir, &name, &mut stats);
            // dir_stat is a fallible read: a rolled drop surfaces as
            // Transient. Retrying consumes further rolls, which is still
            // deterministic in this single-threaded workload.
            while db.dir_stat(ROOT_ID, &mut stats).is_err() {}
        }
    }
    db.install_faults(None);
    plan.events()
}

/// Acceptance criterion: the same seed + profile against the same workload
/// yields an *identical* fault event sequence; a different seed diverges.
#[test]
fn same_seed_same_fault_event_sequence() {
    let first = fault_log_for(11);
    let second = fault_log_for(11);
    assert!(
        !first.is_empty(),
        "storm profile must fire on this workload"
    );
    assert_eq!(first, second, "fault sequence is not deterministic");
    let other = fault_log_for(12);
    assert_ne!(first, other, "different seeds should diverge");
}

/// WAL recovery (satellite): fsync failures mid-append tear the tail; a
/// restart must keep every acknowledged record and drop every torn one.
#[test]
fn wal_recovery_keeps_acked_drops_torn_records() {
    for seed in seeds_under_test() {
        let scope = format!("chaoswal{seed}");
        let wal = GroupCommitWal::new_scoped(SimConfig::instant(), false, &scope);
        let mut profile = FaultProfile::zeroed();
        profile.wal_fsync_fail_prob = 0.2;
        let plan = FaultPlan::new(seed, profile);
        wal.set_faults(Some(plan.clone()));

        let mut acked = Vec::new();
        let mut torn = 0u32;
        for payload in 0..200u64 {
            match wal.append_record(payload) {
                Ok(_) => acked.push(payload),
                Err(MetaError::Transient { .. }) => torn += 1,
                Err(e) => panic!("unexpected WAL error: {e}"),
            }
        }
        assert!(torn > 0, "seed {seed}: fsync faults never fired");
        // Crash + restart: recovery discards at most the torn tail.
        wal.recover();
        assert_eq!(
            wal.durable_records(),
            acked,
            "seed {seed}: acked records lost or torn records replayed"
        );
    }
}

/// Rename atomicity under partition (§5.3 satellite): while the renaming
/// proxy is partitioned from every TafDB shard mid cross-shard rename, the
/// namespace shows the old path XOR the new path — never both, never
/// neither — and the rename completes after the partition heals.
#[test]
fn rename_under_partition_is_atomic() {
    let cluster = chaos_cluster();
    let svc = cluster.service();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/a"), &mut stats).unwrap();
    svc.mkdir(&p("/a/d"), &mut stats).unwrap();
    svc.mkdir(&p("/b"), &mut stats).unwrap();

    let plan = FaultPlan::new(5, FaultProfile::zeroed());
    cluster.install_faults(&plan);
    // Only the renaming proxy loses the shards; this test's checker thread
    // (fault-plane identity "client") still sees the whole cluster.
    plan.partition("renamer", "tafdb*");

    std::thread::scope(|s| {
        let svc2 = svc.clone();
        let renamer = s.spawn(move || {
            let _id = faults::as_node("renamer");
            let mut stats = RequestCtx::new();
            svc2.rename_dir(&p("/a/d"), &p("/b/d"), &mut stats).unwrap();
        });

        // While the rename is wedged on the partition, the namespace must
        // show exactly one of the two paths.
        for _ in 0..50 {
            let mut stats = RequestCtx::new();
            let old = svc.lookup(&p("/a/d"), &mut stats).is_ok();
            let new = svc.lookup(&p("/b/d"), &mut stats).is_ok();
            assert!(
                old ^ new,
                "rename not atomic: old={old} new={new} (both or neither visible)"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        plan.heal_all();
        renamer.join().unwrap();
    });

    // After healing, the rename is complete and counts are consistent.
    assert!(svc.lookup(&p("/b/d"), &mut stats).is_ok());
    assert!(svc.lookup(&p("/a/d"), &mut stats).is_err());
    assert_eq!(svc.dirstat(&p("/a"), &mut stats).unwrap().attrs.entries, 0);
    assert_eq!(svc.dirstat(&p("/b"), &mut stats).unwrap().attrs.entries, 1);
}

/// Directory scans sit on the same request path as point reads: a
/// `client → tafdb*` partition fails them with a retryable `Transient`
/// instead of serving through the cut, and they recover once it heals.
#[test]
fn partitioned_shards_fail_scans_until_healed() {
    let cluster = chaos_cluster();
    let svc = cluster.service();
    let mut stats = RequestCtx::new();
    svc.mkdir(&p("/cut"), &mut stats).unwrap();
    svc.create(&p("/cut/o"), 1, &mut stats).unwrap();

    let plan = FaultPlan::new(9, FaultProfile::zeroed());
    cluster.install_faults(&plan);
    plan.partition("client", "tafdb*");
    let mut ctx = RequestCtx::new();
    assert!(matches!(
        svc.readdir(&p("/cut"), &mut ctx),
        Err(MetaError::Transient { .. })
    ));
    assert!(matches!(
        svc.list(&p("/cut"), None, 10, &mut ctx),
        Err(MetaError::Transient { .. })
    ));

    plan.heal_all();
    assert_eq!(svc.readdir(&p("/cut"), &mut ctx).unwrap().len(), 1);
    cluster.clear_faults();
}

/// The fault plane also covers the baselines: a storm over InfiniFS-style
/// resolution must not corrupt its namespace either.
#[test]
fn baseline_survives_storm() {
    use mantle::baselines::infinifs::InfiniFsOptions;
    for seed in seeds_under_test().into_iter().take(1) {
        let fs = InfiniFs::new(SimConfig::instant(), InfiniFsOptions::default());
        let svc: Arc<dyn MetadataService> = fs.clone();
        let mut stats = RequestCtx::new();
        svc.mkdir(&p("/base"), &mut stats).unwrap();

        let plan = FaultPlan::new(seed, FaultProfile::storm());
        fs.install_faults(Some(plan.clone()));
        for i in 0..40 {
            // InfiniFS creates are not one transaction (insert + separate
            // attr update), so a fault between the two steps makes a blind
            // retry observe AlreadyExists — the baseline's weaker
            // idempotency story, accepted here as a committed create.
            let mut stats = RequestCtx::new();
            loop {
                match svc.create(&p(&format!("/base/o{i}")), 1, &mut stats) {
                    Ok(_) | Err(MetaError::AlreadyExists(_)) => break,
                    Err(e) if e.is_retryable() => continue,
                    Err(e) => panic!("unexpected baseline error: {e}"),
                }
            }
        }
        fs.install_faults(None);
        assert_eq!(retry(|stats| svc.readdir(&p("/base"), stats)).len(), 40);
    }
}

// --- snapshot crash windows (DESIGN.md §4.11) ---------------------------

mod snapshot_chaos {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use mantle::raft::{RaftGroup, RaftOptions, StateMachine};
    use mantle::rpc::SimNode;
    use mantle::types::snapshot::{SnapshotReader, SnapshotWriter};

    /// Order-sensitive state: a count plus a rolling hash chain over the
    /// applied commands. Two replicas agree on the chain iff they executed
    /// the exact same history — any lost ack diverges it.
    #[derive(Default)]
    struct ChainSm {
        count: AtomicU64,
        chain: AtomicU64,
    }

    impl StateMachine for ChainSm {
        type Command = u64;

        fn apply(&self, _index: u64, cmd: &u64) {
            if *cmd == u64::MAX {
                return; // Term-start barrier.
            }
            self.count.fetch_add(1, Ordering::SeqCst);
            // The apply thread is the sole mutator, so load+store is safe.
            let prev = self.chain.load(Ordering::SeqCst);
            self.chain
                .store(prev.wrapping_mul(0x100_0000_01b3) ^ *cmd, Ordering::SeqCst);
        }

        fn barrier() -> u64 {
            u64::MAX
        }

        fn snapshot(&self) -> Vec<u8> {
            let mut w = SnapshotWriter::new();
            w.u64(self.count.load(Ordering::SeqCst));
            w.u64(self.chain.load(Ordering::SeqCst));
            w.finish()
        }

        fn restore(&self, image: &[u8]) {
            let mut r = SnapshotReader::new(image);
            self.count.store(r.u64(), Ordering::SeqCst);
            self.chain.store(r.u64(), Ordering::SeqCst);
        }
    }

    fn raft_group(prefix: &str) -> RaftGroup<ChainSm> {
        let config = SimConfig::instant();
        let nodes = (0..3)
            .map(|i| Arc::new(SimNode::new(format!("{prefix}{i}"), usize::MAX, config)))
            .collect();
        let opts = RaftOptions {
            heartbeat_interval: Duration::from_millis(5),
            election_timeout_min: Duration::from_millis(100),
            election_timeout_max: Duration::from_millis(200),
            snapshot_every: 256,
            snapshot_keep_entries: 32,
            ..RaftOptions::default()
        };
        RaftGroup::new(config, opts, nodes, 3, |_| ChainSm::default())
    }

    /// Crash during the snapshot *write*: the torn image must fail checksum
    /// validation on recovery, the previous snapshot stays authoritative,
    /// and every acknowledged entry survives the replay.
    #[test]
    fn torn_snapshot_write_falls_back_without_losing_acks() {
        for seed in seeds_under_test() {
            let prefix = format!("snapw{seed}_");
            let g = raft_group(&prefix);
            let leader = g.leader().expect("bootstrap leader");
            let plan = FaultPlan::new(seed, FaultProfile::zeroed());
            g.install_faults(Some(plan.clone()));

            // First snapshot completes everywhere (applied crosses 256).
            for i in 0..300u64 {
                leader.propose(seed.wrapping_mul(1_000_003) ^ i).unwrap();
            }
            let follower = g.replica(1).clone();
            assert!(follower.wait_for_applied(leader.last_applied(), Duration::from_secs(5)));
            assert!(follower.snapshots_taken() >= 1, "seed {seed}");

            // The follower's *next* snapshot write tears mid-file.
            plan.force(FaultKind::SnapshotWrite, &format!("{prefix}1"), 1);
            let mut last = 0;
            for i in 300..600u64 {
                last = leader.propose(seed.wrapping_mul(1_000_003) ^ i).unwrap();
            }
            assert!(follower.wait_for_applied(last, Duration::from_secs(5)));
            assert!(
                plan.events().iter().any(|e| e.kind == "snap_write"),
                "seed {seed}: the torn-write fault never fired"
            );

            // Crash + recover: checksum rejects the torn image, recovery
            // anchors on the previous snapshot and replays the suffix.
            g.crash(1);
            g.recover(1);
            let fin = leader.propose(seed.wrapping_mul(1_000_003) ^ 600).unwrap();
            assert!(
                follower.wait_for_applied(fin, Duration::from_secs(10)),
                "seed {seed}: recovery from torn snapshot did not converge"
            );
            assert_eq!(
                follower.state_machine().snapshot(),
                leader.state_machine().snapshot(),
                "seed {seed}: acknowledged entries lost across torn-snapshot recovery"
            );
        }
    }

    /// Crash during snapshot *install*: the receiver aborts the transfer,
    /// keeps its old state authoritative, and the leader's retry converges.
    #[test]
    fn crash_during_install_retries_and_converges() {
        for seed in seeds_under_test() {
            let prefix = format!("snapi{seed}_");
            let g = raft_group(&prefix);
            let leader = g.leader().expect("bootstrap leader");
            let plan = FaultPlan::new(seed, FaultProfile::zeroed());
            g.install_faults(Some(plan.clone()));

            for i in 0..100u64 {
                leader.propose(seed.wrapping_mul(999_983) ^ i).unwrap();
            }
            let lagger = g.replica(2).clone();
            for r in g.replicas() {
                assert!(r.wait_for_applied(leader.last_applied(), Duration::from_secs(5)));
            }
            g.crash(2);
            // Open a gap far past the retained suffix so catch-up *must*
            // go through InstallSnapshot.
            let mut last = 0;
            for i in 100..1_600u64 {
                last = leader.propose(seed.wrapping_mul(999_983) ^ i).unwrap();
            }
            assert!(leader.snapshot_index() > 100 + 32, "seed {seed}");

            // The first install attempt dies on the receiver mid-restore.
            plan.force(FaultKind::SnapshotInstall, &format!("{prefix}2"), 1);
            g.recover(2);
            assert!(
                lagger.wait_for_applied(last, Duration::from_secs(10)),
                "seed {seed}: install retry did not converge"
            );
            assert!(
                plan.events().iter().any(|e| e.kind == "snap_install"),
                "seed {seed}: the install-crash fault never fired"
            );
            assert!(
                lagger.snapshot_installs_applied() >= 1,
                "seed {seed}: catch-up should have gone through InstallSnapshot"
            );
            assert_eq!(
                lagger.state_machine().snapshot(),
                leader.state_machine().snapshot(),
                "seed {seed}: state diverged across aborted install"
            );
        }
    }
}
