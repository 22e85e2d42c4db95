//! Isolated timing loops: one public function of one layer at a time.
//!
//! Each metric is the minimum over nine batches of the mean time of one
//! call, after a warm-up batch; the median absolute deviation of the nine
//! is printed beside it as the noise band. They do not depend on the
//! workload and are reported once per traced run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mantle::baselines::{
    InfiniFs, InfiniFsOptions, LocoFs, LocoFsOptions, Tectonic, TectonicOptions,
};
use mantle::core::pathcache::LeaseProbe;
use mantle::core::{PathLeaseCache, PathLeaseConfig};
use mantle::index::cache::CachedPrefix;
use mantle::index::{IndexEntry, IndexSm, IndexTable, TopDirPathCache};
use mantle::prelude::{MetaPath, MetadataService, OpStats, Permission, RequestCtx, SimConfig};
use mantle::raft::{RaftGroup, RaftOptions, RaftReplica, StateMachine};
use mantle::rpc::{classify_failover, RetryPolicy, SimNode};
use mantle::store::{GroupCommitWal, LockManager, LockMode};
use mantle::sync::{PrefixTree, RemovalList};
use mantle::tafdb::{attr_key, entry_key, EngineKind, Row, TxnOp};
use mantle::types::stats::OpStatsAgg;
use mantle::types::{
    AttrDelta, BulkLoad, DirAttrMeta, InodeId, LeasedPath, ObjectMeta, ResolvedPath, TxnId, ROOT_ID,
};
use mantle_engine::{scan_dir, StorageEngine};

use crate::alloc;
use crate::gen::Rng;
use crate::ops::{self, Op};
use crate::stats::{mad, percentile};
use crate::world::{self, World};

/// One isolated metric.
pub struct Isolated {
    pub name: String,
    pub unit: &'static str,
    /// Minimum over the batches.
    pub value: f64,
    /// Median absolute deviation over the batches, same unit.
    pub mad: f64,
}

/// Batch pacing. `quick` is for smoke runs.
#[derive(Clone, Copy)]
struct Pace {
    batches: usize,
    batch: Duration,
}

struct Bench {
    pace: Pace,
    out: Vec<Isolated>,
}

impl Bench {
    /// Times `batch(iters)`, which runs the measured call `iters` times
    /// and returns the time those calls took (so it can set things up,
    /// untimed, between them). A batch is at least `min_calls` calls: a
    /// call whose time has two modes (a read right after a write either
    /// finds the follower caught up or waits for the next heartbeat)
    /// needs several per batch, or the minimum over batches would report
    /// the lucky mode alone.
    fn custom(
        &mut self,
        name: &str,
        unit: &'static str,
        min_calls: u64,
        mut batch: impl FnMut(u64) -> Duration,
    ) {
        let per_unit = match unit {
            "ns" => 1.0,
            "us" => 1e3,
            other => panic!("isolated metrics are times, not {other}"),
        };
        // Grow the batch until it lasts long enough; the batches this
        // takes are the warm-up.
        batch(1);
        let mut iters = min_calls.max(1);
        loop {
            let took = batch(iters);
            if took >= self.pace.batch / 2 || iters >= 1 << 22 {
                break;
            }
            let short_by = self.pace.batch.as_nanos() as f64 / took.as_nanos().max(1) as f64;
            iters = (iters as f64 * short_by.clamp(2.0, 100.0)).ceil() as u64;
        }
        let per_call: Vec<f64> = (0..self.pace.batches)
            .map(|_| batch(iters).as_nanos() as f64 / iters as f64 / per_unit)
            .collect();
        self.out.push(Isolated {
            name: name.to_string(),
            unit,
            value: percentile(&per_call, 0.0),
            mad: mad(&per_call),
        });
    }

    /// Times back-to-back calls of `f`.
    fn tight<R>(&mut self, name: &str, unit: &'static str, mut f: impl FnMut() -> R) {
        self.custom(name, unit, 1, |iters| {
            let started = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            started.elapsed()
        });
    }
}

fn path_of_depth(depth: usize, tag: &str) -> String {
    (0..depth).map(|i| format!("/{tag}{i}")).collect()
}

fn types_and_obs(b: &mut Bench) {
    let deep = path_of_depth(10, "dir");
    b.tight("types.path_parse_d10_ns", "ns", || {
        MetaPath::parse(black_box(&deep))
    });
    let parent = MetaPath::parse(&path_of_depth(9, "dir")).expect("valid");
    b.tight("types.path_child_ns", "ns", || {
        parent.child(black_box("leaf"))
    });
    let mut agg = OpStatsAgg::default();
    b.tight("types.ctx_new_end_agg_ns", "ns", || {
        let mut ctx = RequestCtx::new();
        ctx.end();
        agg.add(&ctx);
    });

    let counter = mantle::obs::counter("benchmark_isolated_total", &[]);
    b.tight("obs.counter_inc_ns", "ns", || counter.inc());
    let hist = mantle::obs::histogram("benchmark_isolated_nanos", &[]);
    let mut v = 1u64;
    b.tight("obs.hist_record_ns", "ns", || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        hist.record(v >> 40)
    });
    // The recorder is not armed in benchmark runs: this is the cost every
    // harness op pays for asking.
    b.tight("obs.flight_op_scope_ns", "ns", || {
        mantle::obs::flight::op_scope("mantle", "objstat", 10)
    });
    mantle::obs::set_sample_rate(0.0);
    b.tight("obs.trace_start_unsampled_ns", "ns", || {
        mantle::obs::start("objstat")
    });
    mantle::obs::set_sample_rate(0.01);
}

fn sync_layer(b: &mut Bench) {
    let tree = PrefixTree::new();
    let paths: Vec<MetaPath> = (0..4_096)
        .map(|i| {
            let s = format!(
                "/a{}/b{}/c{}/d{}/e{}/f{}",
                i % 4,
                i % 16,
                i % 64,
                i % 256,
                i % 1024,
                i
            );
            MetaPath::parse(&s).expect("valid")
        })
        .collect();
    for p in &paths {
        tree.insert(p);
    }
    let mut i = 0;
    b.tight("sync.prefix_tree_contains_d6_ns", "ns", || {
        i = (i + 1) % paths.len();
        tree.contains(&paths[i])
    });
    let extra = MetaPath::parse("/a0/b0/c0/d0/e0/new").expect("valid");
    b.tight("sync.prefix_tree_insert_remove_ns", "ns", || {
        tree.insert(&extra);
        tree.remove(&extra)
    });
    let removal = RemovalList::new();
    b.tight("sync.removal_list_conflicts_empty_ns", "ns", || {
        removal.conflicts_with(&paths[7])
    });
}

fn rpc_layer(b: &mut Bench) {
    let node = SimNode::new("bench0", 8, SimConfig::default());
    let mut ctx = RequestCtx::new();
    b.tight("rpc.simnode_rpc_noop_ns", "ns", || {
        node.try_rpc_named(&mut ctx, "noop", || ())
    });
    let policy = RetryPolicy::failover(600);
    b.tight("rpc.retry_run_ok_ns", "ns", || {
        policy.run(
            &mut ctx,
            classify_failover,
            |_, _| {},
            |_| Ok(black_box(1u64)),
        )
    });
}

/// The smallest replicated state: a sum.
struct SumSm(std::sync::atomic::AtomicU64);

impl StateMachine for SumSm {
    type Command = u64;

    fn apply(&self, _index: u64, cmd: &u64) {
        self.0.fetch_add(*cmd, std::sync::atomic::Ordering::Relaxed);
    }

    fn barrier() -> u64 {
        0
    }

    fn snapshot(&self) -> Vec<u8> {
        self.0
            .load(std::sync::atomic::Ordering::Relaxed)
            .to_le_bytes()
            .to_vec()
    }

    fn restore(&self, image: &[u8]) {
        let mut word = [0u8; 8];
        word.copy_from_slice(&image[..8]);
        self.0.store(
            u64::from_le_bytes(word),
            std::sync::atomic::Ordering::Relaxed,
        );
    }
}

fn raft_group(voters: usize) -> RaftGroup<SumSm> {
    let config = SimConfig::default();
    let nodes = (0..voters)
        .map(|i| {
            Arc::new(SimNode::new(
                format!("braft{i}"),
                config.index_node_permits,
                config,
            ))
        })
        .collect();
    let group = RaftGroup::new(config, RaftOptions::default(), nodes, voters, |_| {
        SumSm(std::sync::atomic::AtomicU64::new(0))
    });
    group
        .await_leader(Duration::from_secs(5))
        .expect("bootstrap leader");
    group
}

fn raft_layer(b: &mut Bench) {
    let single = raft_group(1);
    let leader = single.leader().expect("leader");
    b.tight("raft.propose_1v_us", "us", || leader.propose(1));
    drop(leader);
    drop(single);

    let group = raft_group(3);
    let leader = group.leader().expect("leader");
    let follower: Arc<RaftReplica<SumSm>> = group
        .replicas()
        .iter()
        .find(|r| !r.is_leader())
        .cloned()
        .expect("follower");
    let mut ctx = RequestCtx::new();
    b.tight("raft.propose_3v_us", "us", || leader.propose(1));
    b.tight("raft.read_index_leader_ns", "ns", || {
        leader.read_index(&mut ctx)
    });
    // Nothing in flight: let the last proposal reach the follower first.
    let settled = leader.commit_index();
    follower.wait_for_applied(settled, Duration::from_secs(5));
    b.tight("raft.read_index_follower_idle_us", "us", || {
        follower.read_index(&mut ctx)
    });
    // The read a client issues right after its own write: the follower
    // has to learn of the commit first.
    b.custom("raft.follower_read_after_write_us", "us", 8, |iters| {
        let mut waited = Duration::ZERO;
        for _ in 0..iters {
            let _ = leader.propose(1);
            let started = Instant::now();
            let _ = black_box(follower.read_index(&mut ctx));
            waited += started.elapsed();
        }
        waited
    });
}

fn entry(id: u64) -> IndexEntry {
    IndexEntry {
        id: InodeId(id),
        permission: Permission::ALL,
        lock: None,
        version: 1,
    }
}

/// A state machine holding one chain of `depth` directories below the
/// root; returns it with the chain's path.
fn chain_sm(depth: usize, cache: bool) -> (IndexSm, MetaPath) {
    let sm = IndexSm::with_root(SimConfig::default(), 3, cache, ROOT_ID);
    let mut pid = ROOT_ID;
    for level in 0..depth {
        let id = 100 + level as u64;
        sm.table.insert(pid, &format!("n{level}"), entry(id));
        pid = InodeId(id);
    }
    let path = MetaPath::parse(&path_of_depth(depth, "n")).expect("valid");
    (sm, path)
}

fn index_layer(b: &mut Bench) {
    let table = IndexTable::new();
    let names: Vec<String> = (0..100_000).map(|i| format!("dir{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        table.insert(
            InodeId(2 + (i as u64 % 1_000)),
            name,
            entry(10_000 + i as u64),
        );
    }
    let mut rng = Rng::new(1);
    b.tight("index.table_get_ns", "ns", || {
        let i = rng.below(names.len());
        table.get(InodeId(2 + (i as u64 % 1_000)), &names[i])
    });

    let cache = TopDirPathCache::new(3, true);
    let prefixes: Vec<MetaPath> = (0..4_096)
        .map(|i| MetaPath::parse(&format!("/a{}/b{}/c{}", i % 16, i % 256, i)).expect("valid"))
        .collect();
    for (i, p) in prefixes.iter().enumerate() {
        cache.try_fill(
            p.clone(),
            CachedPrefix {
                pid: InodeId(i as u64 + 2),
                permission: Permission::ALL,
            },
            || true,
        );
    }
    b.tight("index.topdir_get_ns", "ns", || {
        cache.get(&prefixes[rng.below(prefixes.len())])
    });

    for (name, depth, cached) in [
        ("index.sm_resolve_d1_ns", 1, true),
        ("index.sm_resolve_d10_ns", 10, true),
        ("index.sm_resolve_d20_ns", 20, true),
        ("index.sm_resolve_d10_nocache_ns", 10, false),
    ] {
        let (sm, path) = chain_sm(depth, cached);
        b.tight(name, "ns", || sm.resolve(&path));
    }

    // The read path of one replica, as `IndexNode::lookup` runs it once it
    // has picked the replica: ReadIndex on a follower, then the resolve
    // RPC against the local state machine.
    let world = World::build(world::config(false));
    let dir = path_of_depth(9, "d");
    world.load_dir(&dir);
    let path = MetaPath::parse(&dir).expect("valid");
    let index = world.cluster.index();
    let replicas = index.group().replicas();
    let mut ctx = RequestCtx::new();
    for (name, want_leader) in [
        ("index.node_lookup_leader_ns", true),
        ("index.node_lookup_follower_ns", false),
    ] {
        let replica = replicas
            .iter()
            .find(|r| r.is_leader() == want_leader)
            .expect("replica");
        b.tight(name, "ns", || {
            if !replica.is_leader() {
                let _ = replica.read_index(&mut ctx);
            }
            replica.node().try_rpc_named(&mut ctx, "resolve", || {
                replica.state_machine().resolve(&path)
            })
        });
    }
    let mut next = 1u64 << 32;
    b.tight("index.node_insert_dir_us", "us", || {
        next += 1;
        index.insert_dir(
            ROOT_ID,
            &format!("x{next}"),
            InodeId(next),
            Permission::ALL,
            &mut ctx,
        )
    });
}

fn lease(id: u64) -> LeasedPath {
    LeasedPath {
        resolved: ResolvedPath {
            id: InodeId(id),
            permission: Permission::ALL,
        },
        version: 1,
        lease_ttl: Duration::from_millis(500),
    }
}

fn pathcache(b: &mut Bench) {
    let config = PathLeaseConfig::enabled();
    let cache = PathLeaseCache::new(config, "benchmark");
    let mut stats = OpStats::new();
    // 4,096 depth-6 prefixes with four leaves each: exactly the capacity.
    let paths: Vec<MetaPath> = (0..config.capacity)
        .map(|i| {
            let p = i / 4;
            let s = format!(
                "/a{}/b{}/c{}/d{}/e{}/f{p}/g{i}",
                p % 4,
                p % 16,
                p % 64,
                p % 256,
                p % 1024
            );
            MetaPath::parse(&s).expect("valid")
        })
        .collect();
    for (i, p) in paths.iter().enumerate() {
        cache.fill(p, &lease(i as u64 + 2), cache.begin(), &mut stats);
    }
    let mut rng = Rng::new(2);
    b.tight("core.pathcache_probe_hit_ns", "ns", || {
        let probe = cache.probe(&paths[rng.below(paths.len())], false);
        debug_assert!(matches!(probe, LeaseProbe::Hit(_)));
        probe
    });
    b.custom("core.pathcache_invalidate_subtree_us", "us", 1, |iters| {
        let mut spent = Duration::ZERO;
        for _ in 0..iters {
            let at = rng.below(paths.len()) / 4 * 4;
            let prefix = paths[at].parent().expect("depth 7");
            let started = Instant::now();
            black_box(cache.invalidate_subtree(&prefix));
            spent += started.elapsed();
            for (i, p) in paths.iter().enumerate().skip(at).take(4) {
                cache.fill(p, &lease(i as u64 + 2), cache.begin(), &mut stats);
            }
        }
        spent
    });
    // At capacity, so every fill of a new path evicts the oldest.
    let mut n = 0u64;
    b.tight("core.pathcache_fill_evict_ns", "ns", || {
        n += 1;
        let fresh = paths[0].child(&format!("n{n}"));
        cache.fill(&fresh, &lease(n), cache.begin(), &mut stats)
    });
}

/// Leaf directories and objects of the small namespace whole ops run on
/// ("1,000 objects": warm, everything in the CPU caches).
const SMALL_DIRS: usize = 250;
/// Entries of the one big directory `list100` and `readdir1k` read.
const BIG_DIR: usize = 1_000;

struct SmallWorld {
    world: World,
    dirs: Vec<String>,
    big: String,
    scratch: String,
}

fn small_world() -> SmallWorld {
    let world = World::build(world::config(false));
    let dirs: Vec<String> = (0..SMALL_DIRS)
        .map(|i| format!("{}/s{i}", path_of_depth(8, "w")))
        .collect();
    for dir in &dirs {
        for k in 0..4 {
            world.load_object(&format!("{dir}/o{k}"), 4_096);
        }
    }
    let big = format!("{}/big", path_of_depth(8, "w"));
    for n in 0..BIG_DIR {
        world.load_object(&format!("{big}/e{n:04}"), 4_096);
    }
    let scratch = format!("{}/scratch", path_of_depth(8, "w"));
    world.load_dir(&scratch);
    SmallWorld {
        world,
        dirs,
        big,
        scratch,
    }
}

/// Times `measured(i)` over a batch, running `before(i)` untimed ahead of
/// each call and `after(i)` untimed behind it, and books the time and the
/// allocation count per call as `core.op.<kind>_us` / `_allocs`.
fn whole_op(
    b: &mut Bench,
    small: &SmallWorld,
    kind: &str,
    mut before: impl FnMut(u64, &mut String),
    mut measured: impl for<'a> FnMut(u64, &'a str, &'a str) -> Op<'a>,
    mut after: impl FnMut(u64, &str),
) {
    let mut serial = 0u64;
    let mut allocs = 0u64;
    let mut calls = 0u64;
    let mut a = String::new();
    let mut other = String::new();
    b.custom(&format!("core.op.{kind}_us"), "us", 4, |iters| {
        let mut spent = Duration::ZERO;
        for _ in 0..iters {
            serial += 1;
            before(serial, &mut a);
            other.clear();
            other.push_str(&a);
            other.push_str("_to");
            let op = measured(serial, &a, &other);
            let allocs0 = alloc::thread_totals().0;
            let timed = ops::timed(&small.world, &op, None);
            allocs += alloc::thread_totals().0 - allocs0;
            calls += 1;
            spent += Duration::from_nanos(timed.real_nanos);
            assert!(timed.result.is_ok(), "{op:?}: {:?}", timed.result);
            after(
                serial,
                if matches!(op, Op::RenameDir(..)) {
                    &other
                } else {
                    &a
                },
            );
        }
        spent
    });
    b.out.push(Isolated {
        name: format!("core.op.{kind}_allocs"),
        unit: "count",
        value: allocs as f64 / calls as f64,
        mad: 0.0,
    });
}

fn whole_ops(b: &mut Bench, small: &SmallWorld) {
    let w = &small.world;
    let run = |op: Op<'_>| {
        let out = ops::direct(w, &op, &mut RequestCtx::new());
        assert!(out.is_ok(), "{op:?}: {out:?}");
    };
    let nothing = |_: u64, _: &str| {};
    let dir_of = |i: u64| &small.dirs[i as usize % SMALL_DIRS];
    let object = |i: u64, buf: &mut String| {
        buf.clear();
        buf.push_str(dir_of(i));
        buf.push_str("/o");
        buf.push((b'0' + (i % 4) as u8) as char);
    };
    let dir = |i: u64, buf: &mut String| {
        buf.clear();
        buf.push_str(dir_of(i));
    };
    let fresh = |i: u64, buf: &mut String| {
        buf.clear();
        buf.push_str(&small.scratch);
        buf.push_str(&format!("/n{i}"));
    };
    whole_op(
        b,
        small,
        "objstat",
        object,
        |_, p, _| Op::Objstat(p),
        nothing,
    );
    whole_op(b, small, "lookup", dir, |_, p, _| Op::Lookup(p), nothing);
    whole_op(b, small, "dirstat", dir, |_, p, _| Op::Dirstat(p), nothing);
    whole_op(
        b,
        small,
        "create",
        fresh,
        |_, p, _| Op::Create(p, 4_096),
        |_, p| run(Op::Delete(p)),
    );
    whole_op(
        b,
        small,
        "delete",
        |i, buf| {
            fresh(i, buf);
            run(Op::Create(buf, 4_096));
        },
        |_, p, _| Op::Delete(p),
        nothing,
    );
    whole_op(
        b,
        small,
        "mkdir",
        fresh,
        |_, p, _| Op::Mkdir(p),
        |_, p| run(Op::Rmdir(p)),
    );
    whole_op(
        b,
        small,
        "rmdir",
        |i, buf| {
            fresh(i, buf);
            run(Op::Mkdir(buf));
        },
        |_, p, _| Op::Rmdir(p),
        nothing,
    );
    whole_op(
        b,
        small,
        "rename_dir",
        |i, buf| {
            fresh(i, buf);
            run(Op::Mkdir(buf));
        },
        |_, src, dst| Op::RenameDir(src, dst),
        |_, p| run(Op::Rmdir(p)),
    );
    let big = |_: u64, buf: &mut String| {
        buf.clear();
        buf.push_str(&small.big);
    };
    whole_op(
        b,
        small,
        "list100",
        big,
        |_, p, _| Op::List(p, 100),
        nothing,
    );
    whole_op(
        b,
        small,
        "readdir1k",
        big,
        |_, p, _| Op::Readdir(p),
        nothing,
    );
}

fn tafdb_layer(b: &mut Bench, small: &SmallWorld) {
    let cluster = &small.world.cluster;
    let db = cluster.db();
    let mut ctx = RequestCtx::new();
    let mut id_of = |dir: &str| -> InodeId {
        cluster
            .lookup(&MetaPath::parse(dir).expect("valid"), &mut ctx)
            .expect("loaded directory")
            .id
    };
    let pids: Vec<InodeId> = small.dirs.iter().map(|d| id_of(d)).collect();
    let big = id_of(&small.big);
    let scratch = id_of(&small.scratch);
    let mut rng = Rng::new(3);
    let mut ctx = RequestCtx::new();
    b.tight("tafdb.get_object_ns", "ns", || {
        db.get_object(pids[rng.below(pids.len())], "o1", &mut ctx)
    });
    b.tight("tafdb.get_entry_ns", "ns", || {
        db.get_entry(pids[rng.below(pids.len())], "o2", &mut ctx)
    });
    b.tight("tafdb.dir_stat_ns", "ns", || {
        db.dir_stat(pids[rng.below(pids.len())], &mut ctx)
    });
    b.tight("tafdb.readdir_page100_us", "us", || {
        db.readdir_page(big, None, 100, &mut ctx)
    });

    let mut serial = 0u64;
    let create_shaped = |serial: u64| -> [TxnOp; 2] {
        let name = format!("t{serial}");
        [
            TxnOp::InsertUnique {
                key: entry_key(scratch, &name),
                row: Row::Object(ObjectMeta {
                    pid: scratch,
                    name,
                    id: InodeId((1 << 40) + serial),
                    size: 4_096,
                    blob: 0,
                    ctime: serial,
                    permission: Permission::ALL,
                }),
            },
            TxnOp::AttrUpdate {
                dir: scratch,
                delta: AttrDelta {
                    nlink: 0,
                    entries: 1,
                    mtime: serial,
                },
            },
        ]
    };
    b.custom("tafdb.txn_1shard_us", "us", 1, |iters| {
        let mut spent = Duration::ZERO;
        for _ in 0..iters {
            serial += 1;
            let txn = create_shaped(serial);
            let started = Instant::now();
            let out = db.execute(&txn, &mut ctx);
            spent += started.elapsed();
            assert!(out.is_ok(), "{out:?}");
        }
        spent
    });
    b.custom("tafdb.txn_2pc_us", "us", 1, |iters| {
        let mut spent = Duration::ZERO;
        for _ in 0..iters {
            serial += 1;
            // The new directory's attribute row routes by its own id, so
            // this spans the parent's shard and (seven times in eight)
            // another: mkdir's two-phase commit.
            let id = InodeId((1 << 41) + serial);
            let txn = [
                TxnOp::InsertUnique {
                    key: entry_key(scratch, &format!("m{serial}")),
                    row: Row::DirAccess {
                        id,
                        permission: Permission::ALL,
                    },
                },
                TxnOp::Put {
                    key: attr_key(id),
                    row: Row::DirAttr(DirAttrMeta::new(serial, 0)),
                },
                TxnOp::AttrUpdate {
                    dir: scratch,
                    delta: AttrDelta {
                        nlink: 1,
                        entries: 1,
                        mtime: serial,
                    },
                },
            ];
            let started = Instant::now();
            let out = db.execute(&txn, &mut ctx);
            spent += started.elapsed();
            assert!(out.is_ok(), "{out:?}");
        }
        spent
    });
    // One sweep folding eight delta records of one hot directory.
    b.custom("tafdb.compact_once_us", "us", 1, |iters| {
        let mut spent = Duration::ZERO;
        for _ in 0..iters {
            db.force_hot(scratch);
            for _ in 0..8 {
                serial += 1;
                let out = db.execute(&create_shaped(serial), &mut ctx);
                assert!(out.is_ok(), "{out:?}");
            }
            let started = Instant::now();
            db.compact_once();
            spent += started.elapsed();
        }
        spent
    });
}

fn store_and_engine(b: &mut Bench) {
    let locks = LockManager::new(1_024);
    let keys: Vec<_> = (0..1_024)
        .map(|i| entry_key(InodeId(2 + i % 64), &format!("row{i}")))
        .collect();
    let mut i = 0;
    b.tight("store.lock_try_unlock_ns", "ns", || {
        i = (i + 1) % keys.len();
        let got = locks.try_lock(&keys[i], TxnId(7), LockMode::Exclusive);
        locks.unlock(&keys[i], TxnId(7));
        got
    });
    let wal = GroupCommitWal::new(SimConfig::default(), true);
    b.tight("store.wal_append_ns", "ns", || wal.append());

    // 2,000 directories of 100 rows.
    const DIRS: u64 = 2_000;
    const ROWS: u64 = 100;
    let names: Vec<String> = (0..ROWS).map(|n| format!("obj{n:03}")).collect();
    let row = |pid: u64, n: u64| {
        Row::Object(ObjectMeta {
            pid: InodeId(pid),
            name: format!("obj{n:03}"),
            id: InodeId(pid * ROWS + n),
            size: 4_096,
            blob: 0,
            ctime: 1,
            permission: Permission::ALL,
        })
    };
    for kind in [EngineKind::Btree, EngineKind::Mvcc] {
        let engine: Arc<dyn StorageEngine<Row>> = kind.build::<Row>();
        for pid in 2..2 + DIRS {
            for n in 0..ROWS {
                engine.put(entry_key(InodeId(pid), &names[n as usize]), row(pid, n));
            }
        }
        let mut rng = Rng::new(4);
        let mut pick = move || {
            (
                2 + rng.below(DIRS as usize) as u64,
                rng.below(ROWS as usize) as u64,
            )
        };
        let label = kind.name();
        b.tight(&format!("engine.{label}.get_ns"), "ns", || {
            let (pid, n) = pick();
            engine.get(&entry_key(InodeId(pid), &names[n as usize]))
        });
        b.tight(&format!("engine.{label}.put_ns"), "ns", || {
            let (pid, n) = pick();
            engine.put(entry_key(InodeId(pid), &names[n as usize]), row(pid, n))
        });
        b.tight(&format!("engine.{label}.scan100_ns"), "ns", || {
            let (pid, _) = pick();
            scan_dir(&*engine, InodeId(pid), "", 100)
        });
    }
}

fn baseline<S: MetadataService + BulkLoad>(b: &mut Bench, label: &str, svc: &S) {
    let dir = path_of_depth(9, "b");
    let objects: Vec<MetaPath> = (0..100)
        .map(|n| MetaPath::parse(&format!("{dir}/o{n}")).expect("valid"))
        .collect();
    for object in &objects {
        svc.bulk_object(object, 4_096);
    }
    let mut i = 0;
    b.tight(&format!("baselines.{label}.objstat_us"), "us", || {
        i = (i + 1) % objects.len();
        let mut ctx = RequestCtx::new();
        let out = svc.objstat(&objects[i], &mut ctx);
        ctx.end();
        debug_assert!(out.is_ok());
        out
    });
    let parent = MetaPath::parse(&dir).expect("valid");
    let mut n = 0u64;
    b.tight(&format!("baselines.{label}.mkdir_us"), "us", || {
        n += 1;
        let mut ctx = RequestCtx::new();
        let out = svc.mkdir(&parent.child(&format!("m{n}")), &mut ctx);
        ctx.end();
        debug_assert!(out.is_ok());
        out
    });
}

/// Runs every isolated loop. Ten to thirteen seconds; `quick` cuts the
/// batches for smoke use.
pub fn run_all(quick: bool) -> Vec<Isolated> {
    alloc::mark_client_thread();
    let pace = if quick {
        Pace {
            batches: 3,
            batch: Duration::from_micros(300),
        }
    } else {
        Pace {
            batches: 9,
            batch: Duration::from_millis(2),
        }
    };
    let mut b = Bench {
        pace,
        out: Vec::new(),
    };
    types_and_obs(&mut b);
    sync_layer(&mut b);
    rpc_layer(&mut b);
    raft_layer(&mut b);
    index_layer(&mut b);
    pathcache(&mut b);
    {
        let small = small_world();
        whole_ops(&mut b, &small);
        tafdb_layer(&mut b, &small);
    }
    store_and_engine(&mut b);
    let sim = SimConfig::default();
    baseline(
        &mut b,
        "tectonic",
        &*Tectonic::new(sim, TectonicOptions::default()),
    );
    baseline(
        &mut b,
        "infinifs",
        &*InfiniFs::new(sim, InfiniFsOptions::default()),
    );
    baseline(
        &mut b,
        "locofs",
        &*LocoFs::new(sim, LocoFsOptions::default()),
    );
    b.out
}
