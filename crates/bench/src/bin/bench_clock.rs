//! Virtual-clock speedup benchmark (`BENCH_virtual_clock.json`).
//!
//! Runs a representative mdtest suite at the *default* `SimConfig` twice:
//! once in this process under the (default) virtual clock, and once in a
//! re-exec'd child under `MANTLE_WALL_CLOCK=1`, where every modeled delay
//! is a real `thread::sleep`. The two runs must produce identical op
//! results and RPC counts (the clock changes *when*, never *what*), and
//! the virtual run must be at least 10× faster in wall-clock terms.
//!
//! The snapshot is written to `BENCH_virtual_clock.json` in the working
//! directory (run from the repo root: `cargo run --release -p mantle-bench
//! --bin bench_clock`).

use std::io::Write as _;
use std::time::Instant;

use serde::Serialize;

use mantle_core::{MantleCluster, MantleConfig};
use mantle_types::{clock, RetryClass, SimConfig};
use mantle_workloads::mdtest::{run, ConflictMode, MdOp, MdtestConfig};

/// Set in the re-exec'd wall-clock child; switches `main` to "run the
/// suite and print one JSON line on stdout" mode.
const CHILD_ENV: &str = "MANTLE_BENCH_CLOCK_CHILD";
/// Prefix of the child's result line (everything else on stdout is noise).
const RESULT_PREFIX: &str = "BENCH_CLOCK_RESULT ";

/// One workload of the suite: mode-independent results plus the wall-clock
/// seconds the whole run (cluster build + setup + measured ops) took.
#[derive(Serialize, Clone, PartialEq, Debug)]
struct OpResult {
    op: String,
    threads: usize,
    completed: u64,
    failed: u64,
    rpcs: u64,
    txn_retries: u64,
}

#[derive(Serialize)]
struct SuiteResult {
    clock: String,
    elapsed_secs: f64,
    ops: Vec<OpResult>,
}

/// The representative suite: the three mdtest op kinds at the default
/// timing model. `Exclusive` working sets and leader-only reads keep the
/// RPC counts a pure function of the workload (no conflict retries, no
/// timing-dependent read-index batching), so they can be compared across
/// clock modes bit-for-bit. Mkdir runs single-threaded: each mkdir
/// allocates the new directory's inode from a global counter, and the
/// *allocation order* across racing threads decides which TafDB shard the
/// attr row routes to — and with it the 2PC fan-out's RPC count.
fn run_suite() -> SuiteResult {
    let started = Instant::now();
    let suite = [
        (MdOp::Lookup, 8, 100),
        (MdOp::Create, 8, 100),
        (MdOp::Mkdir, 1, 400),
    ];
    let mut ops = Vec::new();
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
        ops.push(OpResult {
            op: format!("{op:?}"),
            threads,
            completed: report.completed,
            failed: report.failed,
            rpcs: report.agg.rpcs,
            txn_retries: report.agg.retry_count(RetryClass::Txn),
        });
    }
    SuiteResult {
        clock: if clock::is_virtual() {
            "virtual".into()
        } else {
            "wall".into()
        },
        elapsed_secs: started.elapsed().as_secs_f64(),
        ops,
    }
}

fn main() {
    if std::env::var_os(CHILD_ENV).is_some() {
        // Wall-clock child: run the suite, emit the result, done.
        assert!(
            !clock::is_virtual(),
            "child must run under MANTLE_WALL_CLOCK=1"
        );
        let result = run_suite();
        println!(
            "{RESULT_PREFIX}{}",
            serde_json::to_string(&result).expect("serializable result")
        );
        return;
    }

    assert!(
        clock::is_virtual(),
        "run bench_clock without MANTLE_WALL_CLOCK (it re-execs itself for \
         the wall-clock half)"
    );
    println!("=== bench_clock: virtual-clock suite speedup at default SimConfig ===");
    let virt = run_suite();
    println!("virtual clock: {:.3}s", virt.elapsed_secs);

    let exe = std::env::current_exe().expect("own path");
    let out = std::process::Command::new(exe)
        .env("MANTLE_WALL_CLOCK", "1")
        .env(CHILD_ENV, "1")
        .output()
        .expect("spawn wall-clock child");
    assert!(
        out.status.success(),
        "wall-clock child failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(RESULT_PREFIX))
        .expect("child result line");
    // The vendored serde_json stub only deserializes to `Value`; compare
    // the op results by their (deterministic) compact rendering.
    let wall: serde_json::Value = serde_json::from_str(line).expect("child result json");
    let wall_secs = wall
        .get("elapsed_secs")
        .and_then(|v| v.as_f64())
        .expect("child elapsed_secs");
    println!("wall clock:    {wall_secs:.3}s");

    let wall_ops = serde_json::to_string(wall.get("ops").expect("child ops")).expect("json");
    let virt_ops = serde_json::to_string(&virt.ops).expect("json");
    assert_eq!(
        virt_ops, wall_ops,
        "op results and RPC counts must be identical across clock modes"
    );
    let speedup = wall_secs / virt.elapsed_secs;
    println!("speedup:       {speedup:.1}x");
    for op in &virt.ops {
        println!(
            "  {:<8} completed={} failed={} rpcs={} txn_retries={}",
            op.op, op.completed, op.failed, op.rpcs, op.txn_retries
        );
    }

    let payload = serde_json::json!({
        "bench": "virtual_clock",
        "sim": SimConfig::default(),
        "suite": virt.ops,
        "virtual_secs": virt.elapsed_secs,
        "wall_secs": wall_secs,
        "speedup": speedup,
        "identical_across_modes": true,
    });
    let path = "BENCH_virtual_clock.json";
    let mut f = std::fs::File::create(path).expect("create snapshot");
    writeln!(
        f,
        "{}",
        serde_json::to_string_pretty(&payload).expect("json")
    )
    .expect("write");
    println!("[snapshot written to {path}]");

    assert!(
        speedup >= 10.0,
        "virtual clock must be >=10x faster than wall clock, got {speedup:.1}x"
    );
}
