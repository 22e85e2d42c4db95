//! Snapshotting, log compaction and bounded crash recovery (DESIGN.md
//! §4.11): a long-lagging follower catches up from snapshot + suffix with
//! state byte-identical to a full replay; a short gap never pays for a
//! snapshot transfer; and compaction keeps the retained log bounded.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use mantle_raft::{RaftGroup, RaftOptions, StateMachine};
use mantle_rpc::SimNode;
use mantle_types::snapshot::{SnapshotReader, SnapshotWriter};
use mantle_types::SimConfig;

/// Records every applied command; the snapshot is the exact applied
/// sequence, so two replicas with byte-identical images provably executed
/// the same history.
struct RecordingSm {
    applied: Mutex<Vec<u64>>,
    count: AtomicU64,
}

impl RecordingSm {
    fn new() -> Self {
        RecordingSm {
            applied: Mutex::new(Vec::new()),
            count: AtomicU64::new(0),
        }
    }
}

impl StateMachine for RecordingSm {
    type Command = u64;

    fn apply(&self, _index: u64, cmd: &u64) {
        if *cmd == u64::MAX {
            return; // Term-start barrier.
        }
        self.applied.lock().push(*cmd);
        self.count.fetch_add(1, Ordering::SeqCst);
    }

    fn barrier() -> u64 {
        u64::MAX
    }

    fn snapshot(&self) -> Vec<u8> {
        let applied = self.applied.lock();
        let mut w = SnapshotWriter::new();
        w.u64(self.count.load(Ordering::SeqCst));
        w.u64(applied.len() as u64);
        for v in applied.iter() {
            w.u64(*v);
        }
        w.finish()
    }

    fn restore(&self, image: &[u8]) {
        let mut r = SnapshotReader::new(image);
        let count = r.u64();
        let n = r.u64() as usize;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(r.u64());
        }
        *self.applied.lock() = v;
        self.count.store(count, Ordering::SeqCst);
    }
}

fn group(opts: RaftOptions, n: usize) -> RaftGroup<RecordingSm> {
    let config = SimConfig::instant();
    let nodes = (0..n)
        .map(|i| Arc::new(SimNode::new(format!("raft{i}"), usize::MAX, config)))
        .collect();
    RaftGroup::new(config, opts, nodes, n, |_| RecordingSm::new())
}

fn snappy_opts() -> RaftOptions {
    RaftOptions {
        heartbeat_interval: Duration::from_millis(5),
        election_timeout_min: Duration::from_millis(100),
        election_timeout_max: Duration::from_millis(200),
        snapshot_every: 512,
        snapshot_keep_entries: 64,
        ..RaftOptions::default()
    }
}

/// Deterministic per-seed command stream (splitmix64).
fn cmd_stream(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % u64::MAX // Never the barrier sentinel.
    }
}

/// The acceptance run: a follower that missed 10k entries while crashed
/// catches up through an InstallSnapshot (the leader compacted far past its
/// match point) and ends byte-identical to the leader's full replay, on
/// eight different seeds.
#[test]
fn recovered_follower_catches_up_via_snapshot_after_10k_entry_gap() {
    for seed in 0..8u64 {
        let mut next = cmd_stream(seed);
        let g = group(snappy_opts(), 3);
        let leader = g.leader().expect("bootstrap leader");
        for _ in 0..32 {
            leader.propose(next()).unwrap();
        }
        let lagger = g.replica(2).clone();
        let lag_watch = g
            .replicas()
            .iter()
            .find(|r| r.id() != leader.id() && r.id() != 2)
            .unwrap()
            .clone();
        lagger.wait_for_applied(leader.last_applied(), Duration::from_secs(5));
        g.crash(2);

        let mut last = 0;
        for _ in 0..10_000 {
            last = leader.propose(next()).unwrap();
        }
        assert!(
            leader.snapshot_index() > 32 + 64,
            "seed {seed}: leader must have compacted past the crashed \
             follower's match point (snapshot_index={})",
            leader.snapshot_index()
        );
        // The healthy follower kept up through the log, never a snapshot.
        assert_eq!(lag_watch.snapshot_installs_applied(), 0);

        g.recover(2);
        assert!(
            lagger.wait_for_applied(last, Duration::from_secs(10)),
            "seed {seed}: recovered follower failed to catch up"
        );
        assert!(
            lagger.snapshot_installs_applied() >= 1,
            "seed {seed}: a 10k gap must catch up via InstallSnapshot"
        );
        assert_eq!(
            lagger.state_machine().snapshot(),
            leader.state_machine().snapshot(),
            "seed {seed}: snapshot+suffix state diverged from full replay"
        );
    }
}

/// Regression test for short-gap recovery: a follower missing ONE entry
/// must catch up from the retained log suffix — zero InstallSnapshot RPCs
/// — even on a group that snapshots aggressively.
#[test]
fn one_entry_gap_recovers_from_log_suffix_without_snapshot_transfer() {
    let opts = RaftOptions {
        snapshot_every: 8,
        ..snappy_opts()
    };
    let g = group(opts, 3);
    let leader = g.leader().expect("bootstrap leader");
    let mut next = cmd_stream(42);
    for _ in 0..100 {
        leader.propose(next()).unwrap();
    }
    // Both followers fully caught up before the crash: from here on the
    // leader can never compact past either one's match point (only one
    // more entry is proposed, and commit needs replica 1 in the quorum).
    let follower = g.replica(2).clone();
    for r in g.replicas() {
        assert!(r.wait_for_applied(leader.last_applied(), Duration::from_secs(5)));
    }
    g.crash(2);
    let last = leader.propose(next()).unwrap();
    g.recover(2);
    assert!(
        follower.wait_for_applied(last, Duration::from_secs(5)),
        "follower failed to re-apply the suffix"
    );
    assert_eq!(
        leader.snapshot_installs_sent(),
        0,
        "a 1-entry gap must not trigger a snapshot transfer"
    );
    assert_eq!(follower.snapshot_installs_applied(), 0);
    assert_eq!(
        follower.state_machine().snapshot(),
        leader.state_machine().snapshot()
    );
}

/// The log-bytes watermark bounds retained log memory: after a 100k-op
/// seeded run every replica's retained log stays within 2x the compaction
/// watermark (the acceptance bound for `raft_log_bytes`).
#[test]
fn log_bytes_stay_bounded_by_watermark_under_100k_ops() {
    const WATERMARK: u64 = 64 << 10;
    let opts = RaftOptions {
        // Count trigger effectively off; the bytes watermark drives
        // compaction alone.
        snapshot_every: u64::MAX / 4,
        log_watermark_bytes: WATERMARK,
        snapshot_keep_entries: 64,
        ..snappy_opts()
    };
    let g = group(opts, 3);
    let leader = g.leader().expect("bootstrap leader");
    let mut next = cmd_stream(7);
    let mut last = 0;
    for _ in 0..100_000 {
        last = leader.propose(next()).unwrap();
    }
    for r in g.replicas() {
        assert!(r.wait_for_applied(last, Duration::from_secs(10)));
    }
    for r in g.replicas() {
        assert!(
            r.snapshots_taken() > 0,
            "replica {} never compacted",
            r.id()
        );
        assert!(
            r.log_bytes() <= 2 * WATERMARK,
            "replica {} retains {} bytes, over 2x the {} watermark",
            r.id(),
            r.log_bytes(),
            WATERMARK
        );
    }
}

/// Crash/recover with snapshots enabled is bounded: recovery replays only
/// the suffix past the snapshot, and the recovered state matches the
/// leader's byte-for-byte even when the crash lands between snapshots.
#[test]
fn crash_recover_replays_only_the_suffix() {
    let g = group(snappy_opts(), 3);
    let leader = g.leader().expect("bootstrap leader");
    let mut next = cmd_stream(3);
    for _ in 0..1_500 {
        leader.propose(next()).unwrap();
    }
    let follower = g.replica(1).clone();
    assert!(follower.wait_for_applied(leader.last_applied(), Duration::from_secs(5)));
    let snap_before = follower.snapshot_index();
    assert!(snap_before >= 1024, "follower should have snapshotted");

    g.crash(1);
    g.recover(1);
    let last = leader.propose(next()).unwrap();
    assert!(follower.wait_for_applied(last, Duration::from_secs(5)));
    assert_eq!(
        follower.state_machine().snapshot(),
        leader.state_machine().snapshot()
    );
    // Bounded recovery: the local snapshot anchored the replay; no full
    // history transfer happened.
    assert!(follower.snapshot_index() >= snap_before);
    assert_eq!(follower.snapshot_installs_applied(), 0);
}

/// A proposer that wakes after its entry was applied *and compacted away*
/// must still hear `Ok`: on a leader that never left the proposing term an
/// index behind the snapshot cannot have been overwritten. Aggressive
/// snapshots with no retained suffix put almost every waking proposer in
/// that position; `Superseded` here is a committed command reported as
/// failed (and re-proposed by `with_failover`, so applied twice).
#[test]
fn proposers_behind_the_snapshot_on_a_stable_leader_all_succeed_exactly_once() {
    const PROPOSERS: u64 = 4;
    const EACH: u64 = 100;
    let opts = RaftOptions {
        snapshot_every: 4,
        snapshot_keep_entries: 0,
        ..snappy_opts()
    };
    let g = group(opts, 3);
    let leader = g.leader().expect("bootstrap leader");
    let barrier = std::sync::Barrier::new(PROPOSERS as usize);
    std::thread::scope(|scope| {
        for t in 0..PROPOSERS {
            let (leader, barrier) = (&leader, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for i in 0..EACH {
                    let cmd = t * EACH + i;
                    leader
                        .propose(cmd)
                        .unwrap_or_else(|e| panic!("propose({cmd}) on a stable leader: {e}"));
                }
            });
        }
    });
    assert!(leader.snapshots_taken() > 0, "the run must have compacted");
    let mut applied = leader.state_machine().applied.lock().clone();
    applied.sort_unstable();
    assert_eq!(applied, (0..PROPOSERS * EACH).collect::<Vec<_>>());
}
