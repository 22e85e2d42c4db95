//! The CI perf-regression gate (`make perf-gate`).
//!
//! Runs a seed-pinned mdtest suite under the virtual clock **twice**,
//! checks the two passes agree (the virtual clock makes op results and RPC
//! counts a pure function of the workload), writes the measurement to
//! `BENCH_ci.json`, and fails — exit code 1 — when virtual-clock op
//! latency or per-op RPC count regresses more than 10% against the
//! checked-in baseline `ci/perf_baseline.json`.
//!
//! The baseline is intentionally a committed artifact: a PR that changes
//! the modeled cost of an operation must also refresh the baseline (run
//! with `--update-baseline`) so the regression is visible in
//! review rather than absorbed silently. See README "CI".

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use serde::Serialize;

use mantle_core::{MantleCluster, MantleConfig, PathLeaseConfig};
use mantle_tafdb::{dir_region, entry_key, EngineKind, Row, TafDb, TafDbOptions, TxnOp};
use mantle_types::hist::Histogram;
use mantle_types::stats::OpStatsAgg;
use mantle_types::{clock, EnvConfig, InodeId, Permission, RequestCtx, SimConfig};
use mantle_workloads::mdtest::{run, ConflictMode, MdOp, MdtestConfig, OpenLoop};

/// Committed baseline, resolved relative to the repo root.
const BASELINE_PATH: &str = "ci/perf_baseline.json";
/// Output snapshot for CI artifacts.
const OUTPUT_PATH: &str = "BENCH_ci.json";
/// Allowed relative regression before the gate fails.
const TOLERANCE: f64 = 0.10;

/// One measured workload of the gate suite.
#[derive(Serialize, Clone, PartialEq, Debug)]
struct GateRow {
    op: String,
    threads: usize,
    completed: u64,
    failed: u64,
    /// Total client-observed RPCs (exact, deterministic).
    rpcs: u64,
    /// Mean virtual-clock end-to-end latency (µs).
    mean_us: f64,
    /// p99 virtual-clock latency (µs).
    p99_us: f64,
    /// Ops shed by a bounded admission queue. Zero everywhere except the
    /// `Overload` row, where sheds are the point of the experiment.
    shed: u64,
}

impl GateRow {
    fn rpcs_per_op(&self) -> f64 {
        self.rpcs as f64 / self.completed.max(1) as f64
    }
}

/// The pinned suite. `Exclusive` working sets and leader-only reads keep RPC counts and
/// modeled latencies a pure function of the workload; mkdir runs
/// single-threaded because inode-allocation order decides shard routing.
fn run_suite() -> Vec<GateRow> {
    let suite = [
        (MdOp::Lookup, 8, 150),
        (MdOp::Create, 8, 100),
        (MdOp::Mkdir, 1, 300),
    ];
    let mut rows = Vec::new();
    for (op, threads, ops_per_thread) in suite {
        let mut config = MantleConfig::with_sim(SimConfig::default(), 4);
        config.index.follower_reads = false;
        let cluster = MantleCluster::with_config(config);
        let report = run(
            &*cluster.service(),
            MdtestConfig {
                threads,
                ops_per_thread,
                depth: 6,
                op,
                conflict: ConflictMode::Exclusive,
                working_set: 64,
                seed: 7,
                hotspot: None,
                open_loop: None,
            },
        );
        rows.push(GateRow {
            op: format!("{op:?}"),
            threads,
            completed: report.completed,
            failed: report.failed,
            rpcs: report.agg.rpcs,
            mean_us: report.mean_latency_micros(),
            p99_us: report.latency.quantile(0.99) as f64 / 1_000.0,
            shed: 0,
        });
    }
    rows
}

// --- path-lease cache workloads (DESIGN.md §4.13) --------------------------

/// Minimum cache hit rate the warm stat workload must sustain.
const CACHE_HIT_RATE_FLOOR: f64 = 0.90;

/// A gate cluster with the path-lease cache forced on or off, independent
/// of `MANTLE_PATH_CACHE`. The on-config pins a long lease so the row
/// measures warm hits, not TTL churn.
fn cache_config(enabled: bool) -> MantleConfig {
    let mut config = MantleConfig::with_sim(SimConfig::default(), 4);
    config.index.follower_reads = false;
    config.pcache = if enabled {
        PathLeaseConfig {
            lease_ttl: std::time::Duration::from_secs(60),
            ..PathLeaseConfig::enabled()
        }
    } else {
        PathLeaseConfig::default()
    };
    config
}

/// The two cache rows plus their contract failures:
///
/// * `WarmStat[cache]` — a stat-heavy workload over a small working set
///   with the cache on and warm. Contract: hit rate above
///   [`CACHE_HIT_RATE_FLOOR`], and mean RPCs/op strictly below a
///   cache-off twin of the same workload (the cache must actually remove
///   round trips, not just exist). Baseline-gated like every row.
/// * `RenameInval[cache]` — a rename-heavy workload with the cache on:
///   every op invalidates, so this row pins the coherence overhead.
///   Single-threaded, because cross-thread invalidation interleaving
///   would break the two-pass determinism contract. Baseline-gated: a
///   >10% regression in its latency or RPCs fails the gate.
fn run_cache_rows() -> (Vec<GateRow>, Vec<String>) {
    let mut failures = Vec::new();
    let stat_cfg = MdtestConfig {
        threads: 8,
        ops_per_thread: 150,
        depth: 6,
        op: MdOp::ObjStat,
        conflict: ConflictMode::Exclusive,
        working_set: 64,
        seed: 7,
        hotspot: None,
        open_loop: None,
    };
    let off = {
        let cluster = MantleCluster::with_config(cache_config(false));
        run(&*cluster.service(), stat_cfg)
    };
    let cluster = MantleCluster::with_config(cache_config(true));
    // Every path shares one parent directory. Take its lease with a single
    // op first: eight threads released onto a cold cache all miss until
    // the first fill lands, a scheduler-dependent 1..=8 extra RPCs that
    // broke the two-pass contract. The measured run is then all hits.
    let warm_up = MdtestConfig {
        threads: 1,
        ops_per_thread: 1,
        ..stat_cfg
    };
    run(&*cluster.service(), warm_up);
    let on = run(&*cluster.service(), stat_cfg);
    let cache = cluster.path_cache_stats();
    let probes = (cache.hits + cache.misses).max(1);
    let hit_rate = cache.hits as f64 / probes as f64;
    let off_rpcs = off.agg.rpcs as f64 / off.completed.max(1) as f64;
    let on_rpcs = on.agg.rpcs as f64 / on.completed.max(1) as f64;
    println!(
        "WarmStat[cache]: hit rate {:.1}% ({}h/{}m), rpcs/op {on_rpcs:.2} on vs {off_rpcs:.2} off",
        hit_rate * 100.0,
        cache.hits,
        cache.misses
    );
    if hit_rate < CACHE_HIT_RATE_FLOOR {
        failures.push(format!(
            "warm-stat cache hit rate {:.1}% is below the {:.0}% floor",
            hit_rate * 100.0,
            CACHE_HIT_RATE_FLOOR * 100.0
        ));
    }
    if on_rpcs >= off_rpcs {
        failures.push(format!(
            "warm-stat rpcs/op with the cache on ({on_rpcs:.2}) does not \
             beat cache-off ({off_rpcs:.2})"
        ));
    }
    let mut rows = vec![GateRow {
        op: "WarmStat[cache]".to_string(),
        threads: stat_cfg.threads,
        completed: on.completed,
        failed: on.failed,
        rpcs: on.agg.rpcs,
        mean_us: on.mean_latency_micros(),
        p99_us: on.latency.quantile(0.99) as f64 / 1_000.0,
        shed: 0,
    }];

    let rename_cfg = MdtestConfig {
        threads: 1,
        ops_per_thread: 200,
        depth: 6,
        op: MdOp::DirRename,
        conflict: ConflictMode::Exclusive,
        working_set: 64,
        seed: 7,
        hotspot: None,
        open_loop: None,
    };
    let cluster = MantleCluster::with_config(cache_config(true));
    let rn = run(&*cluster.service(), rename_cfg);
    rows.push(GateRow {
        op: "RenameInval[cache]".to_string(),
        threads: rename_cfg.threads,
        completed: rn.completed,
        failed: rn.failed,
        rpcs: rn.agg.rpcs,
        mean_us: rn.mean_latency_micros(),
        p99_us: rn.latency.quantile(0.99) as f64 / 1_000.0,
        shed: 0,
    });
    (rows, failures)
}

// --- mixed scan+create workload (engine comparison row) --------------------

/// Entries bulk-loaded into the scanned directory. Sized so a btree
/// full-directory scan holds the shard latch for multiple scheduler
/// timeslices, so scans and creates really interleave on the latch.
const MIX_ENTRIES: usize = 20_000;
/// `readdir` calls per scanner thread / inserts per creator thread.
const MIX_SCANS: usize = 8;
const MIX_CREATES: usize = 200;
/// Scanner threads and creator threads (each).
const MIX_THREADS: usize = 4;

struct MixedOutcome {
    row: GateRow,
    /// Order-independent digest of every op result (scan contents +
    /// final listings) — must match across engines exactly.
    checksum: u64,
}

fn digest(entries: &[mantle_types::DirEntry]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in entries {
        for b in e.name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        h = (h ^ e.id.0).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs the mixed scan+create workload on one engine: scanner threads
/// repeatedly `readdir` one large static directory while creator threads
/// insert into private directories that live on the *same shard* — maximum
/// engine-latch contention with zero transactional conflicts, so op
/// results stay a pure function of the workload while the engines differ
/// only in how long the threads block on each other.
fn run_mixed(engine: EngineKind) -> MixedOutcome {
    let opts = TafDbOptions {
        n_shards: 4,
        engine,
        ..Default::default()
    };
    let db = TafDb::new(SimConfig::default(), opts);
    let map = db.shard_map();

    let scan_pid = InodeId(1);
    let (rs, re) = dir_region(scan_pid);
    let owners: Vec<usize> = map.owners_of(rs, re).collect();
    assert_eq!(owners.len(), 1, "scan dir region must be unsplit");
    let target = owners[0];
    // Private creator directories routed to the scan directory's shard.
    let mut creator_pids = Vec::new();
    let mut pid = scan_pid.0 + 1;
    while creator_pids.len() < MIX_THREADS {
        let (s, e) = dir_region(InodeId(pid));
        if map.owners_of(s, e).eq([target]) {
            creator_pids.push(InodeId(pid));
        }
        pid += 1;
    }

    db.bulk_apply((0..MIX_ENTRIES).map(|i| TxnOp::Put {
        key: entry_key(scan_pid, &format!("e{i:05}")),
        row: Row::DirAccess {
            id: InodeId(1_000 + i as u64),
            permission: Permission::ALL,
        },
    }));

    let completed = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let checksum = AtomicU64::new(0);
    let merged: Mutex<(OpStatsAgg, Histogram)> =
        Mutex::new((OpStatsAgg::default(), Histogram::new()));
    let barrier = Barrier::new(2 * MIX_THREADS);

    let (db, completed, failed, checksum, merged, barrier) =
        (&db, &completed, &failed, &checksum, &merged, &barrier);
    std::thread::scope(|scope| {
        for _ in 0..MIX_THREADS {
            scope.spawn(move || {
                let mut agg = OpStatsAgg::default();
                let mut hist = Histogram::new();
                barrier.wait();
                for _ in 0..MIX_SCANS {
                    let mut stats = RequestCtx::new();
                    let begin = clock::now();
                    let entries = db
                        .readdir(scan_pid, &mut stats)
                        .expect("no fault plan installed");
                    stats.end();
                    hist.record(begin.elapsed().as_nanos() as u64);
                    agg.add(&stats);
                    checksum.fetch_add(digest(&entries), Ordering::Relaxed);
                    completed.fetch_add(1, Ordering::Relaxed);
                }
                let mut m = merged.lock().unwrap();
                m.0.merge(&agg);
                m.1.merge(&hist);
            });
        }
        for (t, &cpid) in creator_pids.iter().enumerate() {
            scope.spawn(move || {
                let mut agg = OpStatsAgg::default();
                let mut hist = Histogram::new();
                barrier.wait();
                for i in 0..MIX_CREATES {
                    let mut stats = RequestCtx::new();
                    let begin = clock::now();
                    let insert = TxnOp::InsertUnique {
                        key: entry_key(cpid, &format!("c{t}_{i:05}")),
                        row: Row::DirAccess {
                            id: InodeId(100_000 + (t * MIX_CREATES + i) as u64),
                            permission: Permission::ALL,
                        },
                    };
                    let out = db.execute_relaxed(&[insert], &mut stats);
                    stats.end();
                    match out {
                        Ok(()) => {
                            hist.record(begin.elapsed().as_nanos() as u64);
                            agg.add(&stats);
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                let mut m = merged.lock().unwrap();
                m.0.merge(&agg);
                m.1.merge(&hist);
            });
        }
    });

    // Fold the final listings in too: identical acknowledged writes must
    // leave identical readable state on both engines.
    let mut end_stats = RequestCtx::new();
    for &cpid in &creator_pids {
        let entries = db
            .readdir(cpid, &mut end_stats)
            .expect("no fault plan installed");
        checksum.fetch_add(digest(&entries), Ordering::Relaxed);
    }

    let (agg, hist) = {
        let m = merged.lock().unwrap();
        (m.0.clone(), m.1.clone())
    };
    MixedOutcome {
        row: GateRow {
            op: format!("Mixed[{}]", engine.name()),
            threads: 2 * MIX_THREADS,
            completed: completed.load(Ordering::Relaxed),
            failed: failed.load(Ordering::Relaxed),
            rpcs: agg.rpcs,
            // The raw TafDB calls open no `Phase`, so the aggregate's phase
            // mean is zero; the histogram has the end-to-end latency.
            mean_us: hist.mean() / 1_000.0,
            p99_us: hist.quantile(0.99) as f64 / 1_000.0,
            shed: 0,
        },
        checksum: checksum.load(Ordering::Relaxed),
    }
}

fn write_json(path: &str, payload: &serde_json::Value) {
    let mut f = std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    writeln!(
        f,
        "{}",
        serde_json::to_string_pretty(payload).expect("json")
    )
    .expect("write json");
}

/// One gated metric comparison; returns a failure description on
/// regression beyond [`TOLERANCE`].
fn check(op: &str, metric: &str, measured: f64, baseline: f64) -> Result<String, String> {
    let delta = if baseline > 0.0 {
        (measured - baseline) / baseline
    } else if measured > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    let line = format!(
        "{op:<8} {metric:<12} baseline {baseline:>10.2}  measured {measured:>10.2}  \
         ({:+.1}%)",
        delta * 100.0
    );
    if delta > TOLERANCE {
        Err(line)
    } else {
        Ok(line)
    }
}

// --- overload row (DESIGN.md §4.14) ----------------------------------------

/// Bounded admission-queue depth for the overload row.
const OVERLOAD_CAP: usize = 64;
/// Offered operations (single-threaded, open loop).
const OVERLOAD_OPS: usize = 200;
/// Goodput floor under 2x offered load with this cap/run length.
const OVERLOAD_GOODPUT_FLOOR: f64 = 0.80;

/// The `Overload` row: single-threaded open-loop Lookup offered at twice
/// the index leader's modeled service capacity, against a bounded
/// admission queue. Sheds are expected (and reported in the `shed`
/// column); any failure that is not a clean shed or deadline abort fails
/// the gate. Deterministic under the virtual clock: arrivals are pure
/// stamps and the modeled backlog is a ratchet, so two passes must agree
/// byte-for-byte on counts.
fn run_overload() -> GateRow {
    let sim = SimConfig {
        queue_cap: OVERLOAD_CAP,
        ..SimConfig::default()
    };
    let mut config = MantleConfig::with_sim(sim, 4);
    config.index.follower_reads = false;
    let cluster = MantleCluster::with_config(config);
    // Each Lookup costs the leader one service time; offering one op every
    // half service time is 2x capacity.
    let interarrival = (sim.service().as_nanos() as u64 / 2).max(1);
    let report = run(
        &*cluster.service(),
        MdtestConfig {
            threads: 1,
            ops_per_thread: OVERLOAD_OPS,
            depth: 6,
            op: MdOp::Lookup,
            conflict: ConflictMode::Exclusive,
            working_set: 64,
            seed: 7,
            hotspot: None,
            open_loop: Some(OpenLoop {
                interarrival_nanos: interarrival,
                retry_budget: 0,
            }),
        },
    );
    assert!(
        report.shed > 0,
        "Overload: expected nonzero sheds at 2x load"
    );
    assert_eq!(
        report.failed,
        report.shed + report.deadline_aborted,
        "Overload: {} failures were neither sheds nor deadline aborts",
        report.failed - report.shed - report.deadline_aborted
    );
    let offered = report.completed + report.failed;
    let goodput = report.completed as f64 / offered.max(1) as f64;
    assert!(
        goodput >= OVERLOAD_GOODPUT_FLOOR,
        "Overload: goodput {goodput:.3} below {OVERLOAD_GOODPUT_FLOOR}"
    );
    GateRow {
        op: "Overload".to_string(),
        threads: 1,
        completed: report.completed,
        // Every failure was asserted above to be a clean shed/abort; the
        // gate-wide failed==0 invariant stays meaningful.
        failed: 0,
        rpcs: report.agg.rpcs,
        mean_us: report.mean_latency_micros(),
        p99_us: report.latency.quantile(0.99) as f64 / 1_000.0,
        shed: report.shed,
    }
}

fn main() {
    EnvConfig::get();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let update_baseline = match args.as_slice() {
        [] => false,
        [flag] if flag == "--update-baseline" => true,
        _ => {
            eprintln!("usage: perf_gate [--update-baseline]");
            std::process::exit(2);
        }
    };
    println!("=== perf_gate: virtual-clock perf-regression gate ===");

    // Two passes: the virtual clock must make the measurement reproducible
    // within the process. Counts must match exactly; take the per-metric
    // minimum of the two latency readings to shave scheduler noise.
    let first = run_suite();
    let second = run_suite();
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            (a.completed, a.failed, a.rpcs),
            (b.completed, b.failed, b.rpcs),
            "{}: op results differ between passes — the suite is not \
             deterministic and cannot gate",
            a.op
        );
    }
    let mut rows: Vec<GateRow> = first
        .iter()
        .zip(&second)
        .map(|(a, b)| GateRow {
            mean_us: a.mean_us.min(b.mean_us),
            p99_us: a.p99_us.min(b.p99_us),
            ..a.clone()
        })
        .collect();

    // Mixed scan+create comparison row, once per engine. Same two-pass
    // determinism contract for op results.
    let mut mixed = Vec::new();
    for engine in [EngineKind::Btree, EngineKind::Mvcc] {
        let a = run_mixed(engine);
        let b = run_mixed(engine);
        assert_eq!(
            (a.row.completed, a.row.failed, a.row.rpcs, a.checksum),
            (b.row.completed, b.row.failed, b.row.rpcs, b.checksum),
            "Mixed[{}]: op results differ between passes",
            engine.name()
        );
        mixed.push(MixedOutcome {
            row: GateRow {
                mean_us: a.row.mean_us.min(b.row.mean_us),
                p99_us: a.row.p99_us.min(b.row.p99_us),
                ..a.row.clone()
            },
            checksum: a.checksum,
        });
    }
    // Engine independence: identical ops must produce identical results
    // and identical readable state whichever engine serves them.
    assert_eq!(
        (
            mixed[0].row.completed,
            mixed[0].row.failed,
            mixed[0].row.rpcs,
            mixed[0].checksum
        ),
        (
            mixed[1].row.completed,
            mixed[1].row.failed,
            mixed[1].row.rpcs,
            mixed[1].checksum
        ),
        "btree and mvcc disagree on mixed-workload op results"
    );
    rows.extend(mixed.into_iter().map(|m| m.row));

    // Path-lease cache rows, same two-pass determinism contract.
    let (cache_a, cache_failures) = run_cache_rows();
    let (cache_b, _) = run_cache_rows();
    for (a, b) in cache_a.iter().zip(&cache_b) {
        assert_eq!(
            (a.completed, a.failed, a.rpcs),
            (b.completed, b.failed, b.rpcs),
            "{}: op results differ between passes — the cache workload is \
             not deterministic and cannot gate",
            a.op
        );
    }
    rows.extend(cache_a.iter().zip(&cache_b).map(|(a, b)| GateRow {
        mean_us: a.mean_us.min(b.mean_us),
        p99_us: a.p99_us.min(b.p99_us),
        ..a.clone()
    }));

    // Overload row, same two-pass determinism contract (shed counts
    // included: the admission model must be a pure function of the
    // offered arrival schedule).
    let over_a = run_overload();
    let over_b = run_overload();
    assert_eq!(
        (over_a.completed, over_a.failed, over_a.shed, over_a.rpcs),
        (over_b.completed, over_b.failed, over_b.shed, over_b.rpcs),
        "Overload: op results differ between passes"
    );
    rows.push(GateRow {
        mean_us: over_a.mean_us.min(over_b.mean_us),
        p99_us: over_a.p99_us.min(over_b.p99_us),
        ..over_a.clone()
    });

    if update_baseline {
        let payload = serde_json::json!({
            "tolerance": TOLERANCE,
            "rows": rows,
        });
        write_json(BASELINE_PATH, &payload);
        println!("[baseline updated: {BASELINE_PATH}]");
        return;
    }

    let text = std::fs::read_to_string(BASELINE_PATH).unwrap_or_else(|e| {
        panic!(
            "cannot read {BASELINE_PATH}: {e}\n(first run? create it with \
             --update-baseline)"
        )
    });
    let baseline: serde_json::Value = serde_json::from_str(&text).expect("baseline json");
    let base_rows = baseline
        .get("rows")
        .and_then(|r| r.as_array())
        .expect("baseline rows");

    let mut failures = Vec::new();
    let mut lines = Vec::new();
    for row in &rows {
        assert_eq!(row.failed, 0, "{}: gate workload had failed ops", row.op);
        let base = base_rows
            .iter()
            .find(|b| {
                b.get("op").and_then(|v| v.as_str()) == Some(&row.op)
                    && b.get("threads").and_then(|v| v.as_u64()) == Some(row.threads as u64)
            })
            .unwrap_or_else(|| {
                panic!(
                    "baseline has no row for {} x{} — refresh it with \
                     --update-baseline",
                    row.op, row.threads
                )
            });
        let f = |key: &str| base.get(key).and_then(|v| v.as_f64()).expect("metric");
        let base_rpcs = f("rpcs")
            / base
                .get("completed")
                .and_then(|v| v.as_f64())
                .expect("completed");
        for result in [
            check(&row.op, "mean_us", row.mean_us, f("mean_us")),
            check(&row.op, "p99_us", row.p99_us, f("p99_us")),
            check(&row.op, "rpcs_per_op", row.rpcs_per_op(), base_rpcs),
        ] {
            match result {
                Ok(line) => lines.push(line),
                Err(line) => {
                    lines.push(format!("{line}  <-- REGRESSION"));
                    failures.push(row.op.clone());
                }
            }
        }
    }
    for line in &lines {
        println!("{line}");
    }

    for msg in &cache_failures {
        println!("CACHE CHECK FAILED: {msg}");
        failures.push("WarmStat[cache]".into());
    }

    let payload = serde_json::json!({
        "bench": "perf_gate",
        "tolerance": TOLERANCE,
        "baseline": BASELINE_PATH,
        "rows": rows,
        "regressions": failures,
    });
    write_json(OUTPUT_PATH, &payload);
    println!("[snapshot written to {OUTPUT_PATH}]");

    if failures.is_empty() {
        println!("perf gate OK: all metrics within {:.0}%", TOLERANCE * 100.0);
    } else {
        failures.dedup();
        eprintln!(
            "perf gate FAILED: {} regressed beyond {:.0}% — if intentional, \
             refresh ci/perf_baseline.json with `make perf-gate UPDATE=1` \
             and justify in the PR",
            failures.join(", "),
            TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
}
