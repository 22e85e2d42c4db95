//! ReadIndex on a freshly elected leader (§5.1.3): until the leader's
//! term-start barrier is applied its state machine may lack writes its
//! predecessor acknowledged, so it must refuse reads — and not answer to
//! `RaftGroup::leader` — instead of serving them stale.
//!
//! One test in this file: it stages the window through process-wide hooks.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mantle_raft::{RaftError, RaftGroup, RaftOptions, Role, StateMachine};
use mantle_rpc::{FaultPlan, FaultProfile, SimNode};
use mantle_types::snapshot::{SnapshotReader, SnapshotWriter};
use mantle_types::{RequestCtx, SimConfig};

const BARRIER: u64 = u64::MAX;
const NODES: [&str; 3] = ["ri0", "ri1", "ri2"];
/// Entries the old leader acknowledges before it crashes.
const ACKED: u64 = 8;

/// When armed, the next leader to take office is cut off from every peer
/// at the instant it builds its barrier entry — after it won the vote,
/// before its replicators exist — so that barrier cannot commit.
static ISOLATE_NEXT_LEADER: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);
static ISOLATED: AtomicBool = AtomicBool::new(false);
/// Opens the gate of [`CountSm::gated`]; set when the test body ends,
/// however it ends, so a failed assertion does not leave an apply thread
/// waiting.
static RELEASE: AtomicBool = AtomicBool::new(false);

struct ReleaseOnDrop;

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        RELEASE.store(true, Ordering::SeqCst);
    }
}

/// Counts applied commands.
struct CountSm {
    applied: AtomicU64,
    /// Holds the last acknowledged entry back until [`RELEASE`]: the
    /// replica that will lead next must not have applied it when it takes
    /// office, whether or not one of the old leader's heartbeats told it
    /// the entry is committed.
    gated: bool,
}

impl StateMachine for CountSm {
    type Command = u64;

    fn apply(&self, _index: u64, cmd: &u64) {
        if *cmd == BARRIER {
            return;
        }
        while self.gated && *cmd == ACKED - 1 && !RELEASE.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.applied.fetch_add(1, Ordering::SeqCst);
    }

    fn barrier() -> u64 {
        if let Some(plan) = ISOLATE_NEXT_LEADER.lock().unwrap().take() {
            for (i, a) in NODES.iter().enumerate() {
                for b in &NODES[i + 1..] {
                    plan.partition_both(a, b);
                }
            }
            ISOLATED.store(true, Ordering::SeqCst);
        }
        BARRIER
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.u64(self.applied.load(Ordering::SeqCst));
        w.finish()
    }

    fn restore(&self, image: &[u8]) {
        self.applied
            .store(SnapshotReader::new(image).u64(), Ordering::SeqCst);
    }
}

#[test]
fn fresh_leader_refuses_reads_until_its_barrier_is_applied() {
    let config = SimConfig::instant();
    let nodes = NODES
        .iter()
        .map(|name| Arc::new(SimNode::new(*name, usize::MAX, config)))
        .collect();
    // A heartbeat far longer than the test's own steps: as a rule no
    // follower learns the commit of the last acknowledged entry before the
    // crash. (The gate on replica 1 covers the heartbeat that does fire
    // between that entry's acknowledgement and the cut.)
    let opts = RaftOptions {
        heartbeat_interval: Duration::from_millis(300),
        election_timeout_min: Duration::from_millis(600),
        election_timeout_max: Duration::from_millis(900),
        ..RaftOptions::default()
    };
    let group = RaftGroup::new(config, opts, nodes, 3, |id| CountSm {
        applied: AtomicU64::new(0),
        gated: id == 1,
    });
    let release = ReleaseOnDrop;
    let plan = FaultPlan::new(0, FaultProfile::zeroed());
    group.install_faults(Some(plan.clone()));

    // The last acknowledged entry reaches replica 1 only, without its
    // commit index; replica 2 lacks it and so cannot win the election.
    let old = group.leader().expect("bootstrap leader");
    assert_eq!(old.id(), 0);
    for i in 0..ACKED - 1 {
        old.propose(i).expect("acknowledged");
    }
    plan.partition(NODES[0], NODES[2]);
    old.propose(ACKED - 1).expect("acknowledged");
    // (The crash wakes the old leader's replicators for one last send.)
    plan.partition(NODES[0], NODES[1]);
    *ISOLATE_NEXT_LEADER.lock().unwrap() = Some(plan.clone());
    group.crash(0);

    // Replica 1 wins the election and is isolated as it takes office.
    let patience = Instant::now() + Duration::from_secs(20);
    while !ISOLATED.load(Ordering::SeqCst) {
        assert!(Instant::now() < patience, "no election after the crash");
        std::thread::sleep(Duration::from_millis(1));
    }
    let fresh = group.replica(1);
    assert_eq!(fresh.role(), Role::Leader);
    assert!(
        fresh.state_machine().applied.load(Ordering::SeqCst) < ACKED,
        "staging: the new leader has not applied every acknowledged entry"
    );
    let mut ctx = RequestCtx::new();
    assert_eq!(fresh.read_index(&mut ctx), Err(RaftError::Unavailable));
    assert!(!fresh.is_leader());
    assert!(group.leader().is_none());
    assert_eq!(ctx.rpcs, 0);

    // Healed, some leader's barrier commits; whoever then answers as
    // leader serves every acknowledged entry.
    drop(release);
    plan.heal_all();
    let leader = group
        .await_leader(Duration::from_secs(20))
        .expect("a leader after the heal");
    leader.read_index(&mut ctx).expect("a serving leader reads");
    assert_eq!(leader.state_machine().applied.load(Ordering::SeqCst), ACKED);
}
