//! Acceptance tests for the observability subsystem (mantle-obs): RPC-chain
//! trace fidelity against the paper's Table 1, instrumentation overhead, and
//! the metrics registry populating under a quickstart-style workload.
//!
//! The metrics registry is process-global and cumulative across tests in
//! this binary, so assertions are on non-zero/delta values, never exact
//! totals.

use std::sync::{Arc, Mutex, PoisonError};

use mantle::baselines::{InfiniFs, InfiniFsOptions};
use mantle::obs::flight::{self, FlightRecorder};
use mantle::obs::trace;
use mantle::prelude::*;
use mantle::tafdb::{attr_key, entry_key, Row, TafDb, TafDbOptions, TxnOp};
use mantle::types::clock;
use mantle::types::{AttrDelta, DirAttrMeta, InodeId, Permission as Perm, ROOT_ID};
use mantle::workloads::mdtest::{self, ConflictMode, MdOp, MdtestConfig};

/// The trace sample rate is process-global, and two tests zero it for their
/// timing loops: overlapped, one's restore re-enables sampling under the
/// other. Both hold this for as long as they need the rate at zero.
static SAMPLE_RATE: Mutex<()> = Mutex::new(());

/// Builds `/d0/d1/.../d{depth-1}` on `svc` and returns the leaf path.
fn deep_path<S: MetadataService + ?Sized>(svc: &S, depth: usize) -> MetaPath {
    let mut stats = RequestCtx::new();
    let mut path = MetaPath::root();
    for i in 0..depth {
        path = path.child(&format!("d{i}"));
        svc.mkdir(&path, &mut stats).expect("mkdir");
    }
    path
}

/// Table 1 fidelity: resolving a depth-10 path records one RPC span per
/// path component on InfiniFS (speculative batch validation touches every
/// level), while Mantle's flat index needs a constant number of RPCs
/// regardless of depth.
#[test]
fn trace_records_table1_rpc_counts() {
    let depth = 10;

    let infinifs = InfiniFs::new(SimConfig::default(), InfiniFsOptions::default());
    let path = deep_path(&*infinifs, depth);
    let mut stats = RequestCtx::new();
    let guard = trace::start_forced("lookup").expect("no active trace");
    infinifs.lookup(&path, &mut stats).expect("lookup");
    let t = guard.finish();
    assert_eq!(
        t.rpc_count(),
        depth,
        "InfiniFS depth-{depth} resolve should record {depth} RPC spans:\n{}",
        t.render()
    );

    let cluster = MantleCluster::build(SimConfig::default(), 4);
    let svc = cluster.service();
    let path = deep_path(&*svc, depth);
    let mut stats = RequestCtx::new();
    let guard = trace::start_forced("lookup").expect("no active trace");
    svc.lookup(&path, &mut stats).expect("lookup");
    let t = guard.finish();
    assert!(
        t.rpc_count() <= 3,
        "Mantle resolve should be O(1) RPCs regardless of depth, got {}:\n{}",
        t.rpc_count(),
        t.render()
    );
    // Spans carry enough to reconstruct the chain: op + node per RPC.
    for span in t.spans.iter().skip(1) {
        assert!(!span.op.is_empty());
        assert!(!span.node.is_empty());
    }
}

/// Overhead: with tracing sampled out (rate 0), the per-operation cost of
/// the instrumentation primitives an op executes (a handful of counter
/// increments, gauge updates, histogram records, plus the sampling check)
/// must stay far below 5% of the simulated per-RPC floor (5% of the
/// default 200us RTT = 10us per op).
#[test]
fn instrumentation_primitives_are_cheap() {
    let _rate = SAMPLE_RATE.lock().unwrap_or_else(PoisonError::into_inner);
    trace::set_sample_rate(0.0);
    let counter = mantle::obs::counter("overhead_test_total", &[("node", "n0")]);
    let gauge = mantle::obs::gauge("overhead_test_depth", &[("node", "n0")]);
    let hist = mantle::obs::histogram("overhead_test_nanos", &[("node", "n0")]);

    let iters = 100_000u64;
    let started = std::time::Instant::now();
    for i in 0..iters {
        // Roughly what one simulated RPC executes: sampling check, four
        // counter bumps, symmetric gauge update, two histogram records.
        assert!(trace::start("op").is_none(), "sampling disabled");
        counter.inc();
        counter.inc();
        counter.inc();
        counter.inc();
        gauge.add(1);
        gauge.add(-1);
        hist.record(i);
        hist.record(i);
    }
    let per_op_nanos = started.elapsed().as_nanos() as f64 / iters as f64;
    trace::set_sample_rate(0.01);
    assert!(
        per_op_nanos < 10_000.0,
        "instrumentation costs {per_op_nanos:.0}ns/op, over the 10us (5% of RTT) budget"
    );
    assert_eq!(counter.get(), 4 * iters);
    assert_eq!(hist.count(), 2 * iters);
}

/// Quickstart workload populates every subsystem's metrics, and the
/// snapshot serializes to valid JSON.
#[test]
fn workload_populates_registry_and_snapshot_serializes() {
    let cluster = MantleCluster::build(SimConfig::instant(), 4);
    let svc = cluster.service();
    for (op, working_set) in [(MdOp::Create, 64), (MdOp::Lookup, 16)] {
        let report = mdtest::run(
            &*svc,
            MdtestConfig {
                threads: 4,
                ops_per_thread: 16,
                depth: 6,
                op,
                conflict: ConflictMode::Exclusive,
                working_set,
                seed: 7,
                hotspot: None,
                open_loop: None,
            },
        );
        assert_eq!(report.failed, 0, "{op:?}");
    }

    let snap = mantle::obs::snapshot();
    for name in [
        "tafdb_txns_committed_total",
        "raft_appends_total",
        "index_cache_hits_total",
        "service_ops_total",
        "simnode_rpcs_total",
    ] {
        assert!(snap.counter_total(name) > 0, "{name} is zero");
    }

    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    let value: serde_json::Value = serde_json::from_str(&json).expect("snapshot JSON parses");
    let counters = value
        .get("counters")
        .and_then(|c| c.as_array())
        .expect("counters array");
    assert!(!counters.is_empty());
    let text = snap.to_prometheus_text();
    assert!(text.contains("# TYPE tafdb_txns_committed_total counter"));
}

/// A quiet TafDB (no delta compaction RPCs, no group commit) whose only
/// fault-roll consumer is the test thread, with non-zero RTT/fsync so op
/// latencies are meaningful — the deterministic-workload idiom from
/// tests/chaos.rs.
fn quiet_db() -> Arc<TafDb> {
    let sim = SimConfig {
        rtt_micros: 200,
        fsync_micros: 100,
        device_micros: 0,
        service_micros: 0,
        index_level_micros: 0,
        db_node_permits: usize::MAX,
        index_node_permits: usize::MAX,
        queue_cap: 0,
    };
    let opts = TafDbOptions {
        n_shards: 4,
        delta_records: false,
        group_commit: false,
        ..TafDbOptions::default()
    };
    TafDb::new(sim, opts)
}

/// Runs a fixed single-threaded TafDB workload under a seeded fault storm
/// with a fresh thread-local flight recorder, returning the recorder's
/// slow-op log and rendered attribution summaries.
fn flight_run(seed: u64) -> (String, String) {
    clock::reset_thread_clock();
    // Fixed threshold: capture decisions depend only on the virtual
    // timeline, not warmup, so the whole pipeline is exercised.
    let recorder = Arc::new(FlightRecorder::with_fixed_threshold(500_000));
    let _guard = flight::install_thread_recorder(recorder.clone());

    let db = quiet_db();
    let plan = FaultPlan::new(seed, FaultProfile::storm());
    db.install_faults(Some(plan));
    let mut stats = RequestCtx::new();
    let dirs: Vec<InodeId> = (1..6).map(|i| InodeId(i * 97)).collect();
    db.bulk_apply(dirs.iter().map(|&dir| TxnOp::Put {
        key: attr_key(dir),
        row: Row::DirAttr(DirAttrMeta::new(0, 0)),
    }));
    for round in 0..40 {
        for (d, dir) in dirs.iter().enumerate() {
            let scope = flight::op_scope("tafdb", "execute", 1);
            let name = format!("o{round}");
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
            drop(scope);
            let scope = flight::op_scope("tafdb", "dir_stat", 0);
            // A rolled drop surfaces as Transient; retrying consumes
            // further rolls deterministically and charges backoff time
            // into this op's attribution.
            while db.dir_stat(ROOT_ID, &mut stats).is_err() {}
            drop(scope);
        }
    }
    db.install_faults(None);

    let slow = recorder.slow_log();
    let explain = recorder
        .explain_all()
        .iter()
        .map(|r| r.render())
        .collect::<Vec<_>>()
        .join("\n");
    (slow, explain)
}

/// Acceptance criterion (ISSUE 6): identical seeds under the virtual clock
/// produce byte-identical slow-op logs and attribution summaries; a
/// different seed diverges.
#[test]
fn flight_recorder_is_deterministic_under_identical_seeds() {
    let first = flight_run(11);
    let second = flight_run(11);
    assert!(
        !first.0.is_empty(),
        "storm workload must force-capture at least one slow op"
    );
    assert_eq!(first.0, second.0, "slow-op logs diverged across runs");
    assert_eq!(first.1, second.1, "attribution summaries diverged");
    let other = flight_run(12);
    assert_ne!(
        first.0, other.0,
        "different seeds should produce different slow-op logs"
    );
}

/// Acceptance criterion (ISSUE 6): a seeded chaos sweep (seeds 0..7)
/// force-captures slow-op traces whose critical-path attribution sums to
/// the op's end-to-end virtual latency within 1%, while `/metrics` serves
/// valid Prometheus text mid-run.
#[test]
fn chaos_sweep_attributes_slow_ops_and_serves_live_metrics() {
    let server = mantle::obs::http::serve("127.0.0.1:0").expect("bind scrape endpoint");
    let mut captured = 0u64;
    for seed in 0..8u64 {
        clock::reset_thread_clock();
        let recorder = Arc::new(FlightRecorder::new());
        let _guard = flight::install_thread_recorder(recorder.clone());
        // Fast elections so the mid-run leader crash resolves quickly.
        let mut config = MantleConfig::with_sim(SimConfig::default(), 4);
        config.index.raft.election_timeout_min = std::time::Duration::from_millis(40);
        config.index.raft.election_timeout_max = std::time::Duration::from_millis(80);
        config.index.raft.heartbeat_interval = std::time::Duration::from_millis(10);
        // Pin the path-lease cache off regardless of MANTLE_PATH_CACHE: the
        // manufactured outlier relies on creates paying failover retries
        // through the index, which cached parent resolution would skip.
        config.pcache = mantle::core::PathLeaseConfig::default();
        let cluster = MantleCluster::with_config(config);
        let svc = cluster.service();
        let mut stats = RequestCtx::new();
        svc.mkdir(&MetaPath::parse("/w").unwrap(), &mut stats)
            .unwrap();
        let plan = FaultPlan::new(seed, FaultProfile::storm()).activate();
        cluster.install_faults(&plan);
        for i in 0..120 {
            if i == 80 {
                // The chaos event that manufactures the genuine outlier
                // (after the 64-op adaptive-threshold warmup): ops racing
                // the election pay failover retries.
                if let Some(name) = cluster
                    .index()
                    .group()
                    .leader()
                    .map(|l| l.node().name().to_string())
                {
                    plan.crash_node(&name);
                }
            }
            let path = MetaPath::parse(&format!("/w/o{i}")).unwrap();
            let scope = flight::op_scope("mantle", "create", path.depth() as u32);
            let mut attempts = 0;
            loop {
                match svc.create(&path, 1, &mut stats) {
                    Ok(_) | Err(MetaError::AlreadyExists(_)) => break,
                    Err(e) if e.is_retryable() && attempts < 20_000 => {
                        attempts += 1;
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    Err(e) => panic!("seed {seed}: unexpected error under storm: {e}"),
                }
            }
            drop(scope);
        }
        plan.heal_all();
        // Scrape while the storm is still installed: the run is in flight.
        if seed == 0 {
            let text =
                mantle::obs::http::get(server.local_addr(), "/metrics").expect("scrape /metrics");
            for line in text
                .lines()
                .filter(|l| !l.starts_with('#') && !l.is_empty())
            {
                let value = line.rsplit(' ').next().expect("sample line has a value");
                assert!(
                    value.parse::<f64>().is_ok(),
                    "unparseable Prometheus sample: {line:?}"
                );
            }
            assert!(text.contains("# TYPE"), "no TYPE headers in /metrics");
            let slow_json = mantle::obs::http::get(server.local_addr(), "/slow").expect("/slow");
            let parsed: serde_json::Value =
                serde_json::from_str(&slow_json).expect("/slow serves JSON");
            assert!(parsed.get("captured_total").is_some());
        }
        cluster.clear_faults();
        for op in recorder.slow_recent(usize::MAX) {
            captured += 1;
            let total = op.phases.total_nanos();
            let latency = op.latency_nanos;
            let tolerance = latency / 100;
            assert!(
                total.abs_diff(latency) <= tolerance,
                "seed {seed}: attribution {total}ns vs end-to-end {latency}ns \
                 differs by more than 1%: {}",
                op.log_line()
            );
        }
    }
    assert!(
        captured >= 1,
        "chaos sweep over seeds 0..7 captured no slow ops"
    );
}

/// Overhead regression: with the flight recorder armed on this thread,
/// wrapping an op in a scope (detached trace + threshold check + histogram
/// records) plus a hot-path annotation stays under the 10us/op budget.
#[test]
fn flight_recorder_overhead_is_cheap() {
    let _rate = SAMPLE_RATE.lock().unwrap_or_else(PoisonError::into_inner);
    trace::set_sample_rate(0.0);
    let recorder = Arc::new(FlightRecorder::new());
    let _guard = flight::install_thread_recorder(recorder.clone());

    let iters = 100_000u64;
    let started = std::time::Instant::now();
    for _ in 0..iters {
        let scope = flight::op_scope("bench", "noop", 3);
        flight::annotate("hot-path note");
        drop(scope);
    }
    let per_op_nanos = started.elapsed().as_nanos() as f64 / iters as f64;
    trace::set_sample_rate(0.01);
    println!("armed flight recorder: {per_op_nanos:.0} ns/op (scope + annotation)");
    assert!(
        per_op_nanos < 10_000.0,
        "armed flight recorder costs {per_op_nanos:.0}ns/op, over the 10us budget"
    );
    let reports = recorder.explain("noop");
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].ops, iters);
}
