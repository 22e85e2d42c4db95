//! The mdtest-style metadata benchmark (§6.1, §6.3).
//!
//! N client threads issue one operation type against the service under
//! test; paths sit at a configurable depth (the paper uses 10). Directory
//! modifications run in two modes: `-e` (exclusive: each thread works in
//! its own parent directory) and `-s` (shared: every thread hammers one
//! parent — the Spark commit pattern of §3.2).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mantle_types::clock;
use mantle_types::hist::Histogram;
use mantle_types::stats::OpStatsAgg;
use mantle_types::{BulkLoad, MetaPath, MetadataService, Phase, RequestCtx};

/// The operation a run exercises (mdtest naming, §6.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MdOp {
    /// Object creation.
    Create,
    /// Object deletion.
    Delete,
    /// Object metadata retrieval.
    ObjStat,
    /// Directory metadata retrieval.
    DirStat,
    /// Directory creation.
    Mkdir,
    /// Directory removal.
    Rmdir,
    /// Cross-directory rename.
    DirRename,
    /// Raw path resolution (Figure 17).
    Lookup,
}

impl MdOp {
    /// Label used in harness output.
    pub fn label(self) -> &'static str {
        match self {
            MdOp::Create => "create",
            MdOp::Delete => "delete",
            MdOp::ObjStat => "objstat",
            MdOp::DirStat => "dirstat",
            MdOp::Mkdir => "mkdir",
            MdOp::Rmdir => "rmdir",
            MdOp::DirRename => "dirrename",
            MdOp::Lookup => "lookup",
        }
    }
}

/// Conflict mode for directory modifications (§6.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConflictMode {
    /// `-e`: each thread uses an exclusive parent directory.
    Exclusive,
    /// `-s`: all threads share one parent directory.
    Shared,
}

/// Skewed parent selection: instead of the [`ConflictMode`] parent, every
/// operation Zipf-samples its parent directory from a pool, concentrating
/// load on the first few (the "hot parent" pattern driving the dynamic
/// shard-splitting experiments; the paper's motivating ingest bursts).
#[derive(Clone, Copy, Debug)]
pub struct Hotspot {
    /// Size of the parent-directory pool.
    pub parents: usize,
    /// Zipf exponent (≈1.2 makes parent 0 dominate).
    pub s: f64,
}

/// Open-loop arrival schedule for overload experiments: every op is
/// stamped with a deterministic virtual arrival time (`base + k * Δ`
/// across all threads) instead of arriving whenever the previous op
/// finished, so a node with a bounded admission queue sees a growing
/// modeled backlog it can shed against (DESIGN.md §4.14).
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// Spacing between successive arrivals, across all threads.
    pub interarrival_nanos: u64,
    /// Retry budget stamped on each op (0 = fail fast when shed).
    pub retry_budget: u32,
}

/// One benchmark run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct MdtestConfig {
    /// Client threads.
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Path depth of the touched entries (paper: 10).
    pub depth: usize,
    /// The operation under test.
    pub op: MdOp,
    /// Conflict mode (directory modifications only).
    pub conflict: ConflictMode,
    /// Working-set size for read operations (paths sampled uniformly).
    pub working_set: usize,
    /// RNG seed.
    pub seed: u64,
    /// Zipf-skewed parent selection (create/mkdir) and read-path sampling;
    /// `None` keeps the classic uniform mdtest behaviour.
    pub hotspot: Option<Hotspot>,
    /// Open-loop arrival stamping; `None` keeps the classic closed loop.
    pub open_loop: Option<OpenLoop>,
}

impl Default for MdtestConfig {
    fn default() -> Self {
        MdtestConfig {
            threads: 8,
            ops_per_thread: 64,
            depth: 10,
            op: MdOp::ObjStat,
            conflict: ConflictMode::Exclusive,
            working_set: 1024,
            seed: 7,
            hotspot: None,
            open_loop: None,
        }
    }
}

/// Results of one run.
#[derive(Clone, Debug)]
pub struct MdtestReport {
    /// The configuration measured.
    pub config: MdtestConfig,
    /// Completed operations.
    pub completed: u64,
    /// Failed operations (must be zero in healthy runs; in overload runs
    /// every failure should be a shed or a deadline abort).
    pub failed: u64,
    /// Failures shed by a bounded admission queue (`MetaError::Overloaded`).
    pub shed: u64,
    /// Failures aborted server-side on an expired deadline
    /// (`MetaError::DeadlineExceeded`).
    pub deadline_aborted: u64,
    /// Simulated makespan of the measured section: the longest per-thread
    /// timeline.
    pub wall: std::time::Duration,
    /// Aggregate operation statistics (phases, RPCs, retries).
    pub agg: OpStatsAgg,
    /// End-to-end latency histogram (nanoseconds).
    pub latency: Histogram,
}

impl MdtestReport {
    /// Operations per second.
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Mean latency in microseconds.
    pub fn mean_latency_micros(&self) -> f64 {
        self.latency.mean() / 1_000.0
    }

    /// Mean time per op charged to `phase`, in microseconds.
    pub fn phase_micros(&self, phase: Phase) -> f64 {
        self.agg.mean_phase_nanos(phase) / 1_000.0
    }
}

/// A deep per-thread parent path `/L0/L1/.../L{depth-2}/<leaf>`.
fn deep_parent(tag: &str, depth: usize) -> MetaPath {
    let mut path = MetaPath::root();
    for i in 0..depth.saturating_sub(1).max(1) {
        path = path.child(&format!("L{i}"));
    }
    path.child(tag)
}

/// The parent a create/mkdir targets: a Zipf-sampled pool member under a
/// [`Hotspot`], otherwise the conflict-mode parent.
fn mutation_parent(
    config: &MdtestConfig,
    t: usize,
    pick: &mut impl FnMut(&mut StdRng, usize) -> usize,
    rng: &mut StdRng,
) -> MetaPath {
    if let Some(h) = config.hotspot {
        let k = pick(rng, h.parents.max(1));
        deep_parent(&format!("h{k}"), config.depth - 1)
    } else {
        match config.conflict {
            ConflictMode::Shared => deep_parent("shared", config.depth - 1),
            ConflictMode::Exclusive => deep_parent(&format!("p{t}"), config.depth - 1),
        }
    }
}

/// Runs one mdtest configuration against `svc`.
///
/// The working set is bulk-loaded first (no simulated cost); only the
/// operation loop is timed.
pub fn run<S: MetadataService + BulkLoad + ?Sized + Sync>(
    svc: &S,
    config: MdtestConfig,
) -> MdtestReport {
    let threads = config.threads;
    let ops = config.ops_per_thread;

    // --- setup (untimed) --------------------------------------------------
    // Read workloads sample from a pre-populated working set; mutation
    // workloads get pre-created parents (and victims for delete/rmdir).
    let mut read_paths: Vec<MetaPath> = Vec::new();
    match config.op {
        MdOp::ObjStat => {
            let parent = deep_parent("st", config.depth - 1);
            for i in 0..config.working_set {
                let p = parent.child(&format!("o{i}"));
                svc.bulk_object(&p, 4096);
                read_paths.push(p);
            }
        }
        MdOp::DirStat | MdOp::Lookup => {
            let parent = deep_parent("st", config.depth - 1);
            for i in 0..config.working_set {
                let p = parent.child(&format!("d{i}"));
                svc.bulk_dir(&p);
                read_paths.push(p);
            }
        }
        MdOp::Create | MdOp::Mkdir => {
            if let Some(h) = config.hotspot {
                for k in 0..h.parents.max(1) {
                    svc.bulk_dir(&deep_parent(&format!("h{k}"), config.depth - 1));
                }
            } else {
                match config.conflict {
                    ConflictMode::Shared => {
                        svc.bulk_dir(&deep_parent("shared", config.depth - 1));
                    }
                    ConflictMode::Exclusive => {
                        for t in 0..threads {
                            svc.bulk_dir(&deep_parent(&format!("p{t}"), config.depth - 1));
                        }
                    }
                };
            }
        }
        MdOp::Delete => {
            for t in 0..threads {
                let parent = deep_parent(&format!("p{t}"), config.depth - 1);
                for i in 0..ops {
                    svc.bulk_object(&parent.child(&format!("v{i}")), 1);
                }
            }
        }
        MdOp::Rmdir => {
            for t in 0..threads {
                let parent = deep_parent(&format!("p{t}"), config.depth - 1);
                for i in 0..ops {
                    svc.bulk_dir(&parent.child(&format!("v{i}")));
                }
            }
        }
        MdOp::DirRename => {
            // Sources are per-thread; destinations are per-thread (-e) or
            // one shared output directory (-s), the §3.2 commit pattern.
            for t in 0..threads {
                let src_parent = deep_parent(&format!("src{t}"), config.depth - 1);
                for i in 0..ops {
                    svc.bulk_dir(&src_parent.child(&format!("v{i}")));
                }
                if config.conflict == ConflictMode::Exclusive {
                    svc.bulk_dir(&deep_parent(&format!("dstp{t}"), config.depth - 1));
                }
            }
            if config.conflict == ConflictMode::Shared {
                svc.bulk_dir(&deep_parent("dshared", config.depth - 1));
            }
        }
    }

    // --- measured section ---------------------------------------------------
    let barrier = Barrier::new(threads);
    let failed = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let deadline_aborted = AtomicU64::new(0);
    let merged: Mutex<(OpStatsAgg, Histogram)> =
        Mutex::new((OpStatsAgg::default(), Histogram::new()));
    let wall = Mutex::new(std::time::Duration::ZERO);

    std::thread::scope(|scope| {
        for t in 0..threads {
            let barrier = &barrier;
            let failed = &failed;
            let shed = &shed;
            let deadline_aborted = &deadline_aborted;
            let merged = &merged;
            let wall = &wall;
            let read_paths = &read_paths;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(config.seed ^ (t as u64) << 17);
                let zipf = config
                    .hotspot
                    .map(|h| crate::zipf::Zipf::new(h.parents.max(1), h.s));
                let mut pick = |rng: &mut StdRng, n: usize| -> usize {
                    match &zipf {
                        Some(z) => z.sample(rng) % n.max(1),
                        None => rng.gen_range(0..n.max(1)),
                    }
                };
                let mut agg = OpStatsAgg::default();
                let mut hist = Histogram::new();
                barrier.wait();
                let thread_start = clock::now();
                let base_nanos = thread_start.as_nanos();
                for i in 0..ops {
                    let mut stats = RequestCtx::new();
                    if let Some(ol) = config.open_loop {
                        let k = (i * threads + t) as u64;
                        stats = stats
                            .with_arrival_nanos(base_nanos + k * ol.interarrival_nanos)
                            .with_budget(ol.retry_budget);
                    }
                    // Flight-recorder scope: when a recorder is effective it
                    // runs the op under a detached trace (and keeps feeding
                    // the sampled ring itself); otherwise fall back to plain
                    // sampled RPC-chain tracing.
                    let _flight = mantle_obs::flight::op_scope(
                        svc.name(),
                        config.op.label(),
                        config.depth as u32,
                    );
                    let _trace = if _flight.is_some() {
                        None
                    } else {
                        mantle_obs::trace::start(config.op.label())
                    };
                    let begin = clock::now();
                    let outcome: Result<(), mantle_types::MetaError> = match config.op {
                        MdOp::ObjStat => {
                            let p = &read_paths[pick(&mut rng, read_paths.len())];
                            svc.objstat(p, &mut stats).map(|_| ())
                        }
                        MdOp::DirStat => {
                            let p = &read_paths[pick(&mut rng, read_paths.len())];
                            svc.dirstat(p, &mut stats).map(|_| ())
                        }
                        MdOp::Lookup => {
                            let p = &read_paths[pick(&mut rng, read_paths.len())];
                            svc.lookup(p, &mut stats).map(|_| ())
                        }
                        MdOp::Create => {
                            let parent = mutation_parent(&config, t, &mut pick, &mut rng);
                            svc.create(
                                &parent.child(&format!("n_{}_{t}_{i}", config.seed)),
                                4096,
                                &mut stats,
                            )
                            .map(|_| ())
                        }
                        MdOp::Mkdir => {
                            let parent = mutation_parent(&config, t, &mut pick, &mut rng);
                            svc.mkdir(
                                &parent.child(&format!("n_{}_{t}_{i}", config.seed)),
                                &mut stats,
                            )
                            .map(|_| ())
                        }
                        MdOp::Delete => {
                            let parent = deep_parent(&format!("p{t}"), config.depth - 1);
                            svc.delete(&parent.child(&format!("v{i}")), &mut stats)
                        }
                        MdOp::Rmdir => {
                            let parent = deep_parent(&format!("p{t}"), config.depth - 1);
                            svc.rmdir(&parent.child(&format!("v{i}")), &mut stats)
                        }
                        MdOp::DirRename => {
                            let src = deep_parent(&format!("src{t}"), config.depth - 1)
                                .child(&format!("v{i}"));
                            let dst = match config.conflict {
                                ConflictMode::Shared => deep_parent("dshared", config.depth - 1)
                                    .child(&format!("n_{}_{t}_{i}", config.seed)),
                                ConflictMode::Exclusive => {
                                    deep_parent(&format!("dstp{t}"), config.depth - 1)
                                        .child(&format!("n_{}_{t}_{i}", config.seed))
                                }
                            };
                            svc.rename_dir(&src, &dst, &mut stats)
                        }
                    };
                    stats.end();
                    match outcome {
                        Ok(()) => {
                            hist.record(begin.elapsed().as_nanos() as u64);
                            agg.add(&stats);
                        }
                        Err(e) => {
                            match &e {
                                mantle_types::MetaError::Overloaded(_) => {
                                    shed.fetch_add(1, Ordering::Relaxed);
                                }
                                mantle_types::MetaError::DeadlineExceeded(_) => {
                                    deadline_aborted.fetch_add(1, Ordering::Relaxed);
                                }
                                _ => {}
                            }
                            if failed.fetch_add(1, Ordering::Relaxed) == 0 {
                                eprintln!("mdtest {} first failure: {e}", config.op.label());
                            }
                        }
                    }
                }
                let mut m = merged.lock();
                m.0.merge(&agg);
                m.1.merge(&hist);
                drop(m);
                // The makespan is the longest per-thread timeline: each
                // worker carries its own logical clock.
                let elapsed = thread_start.elapsed();
                let mut w = wall.lock();
                *w = (*w).max(elapsed);
            });
        }
    });

    let (agg, latency) = {
        let m = merged.lock();
        (m.0.clone(), m.1.clone())
    };
    let wall = *wall.lock();
    MdtestReport {
        config,
        completed: agg.count,
        failed: failed.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        deadline_aborted: deadline_aborted.load(Ordering::Relaxed),
        wall,
        agg,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_core::MantleCluster;
    use mantle_types::SimConfig;

    fn check_with(sim: SimConfig, op: MdOp, conflict: ConflictMode) -> MdtestReport {
        let cluster = MantleCluster::build(sim, 4);
        let config = MdtestConfig {
            threads: 4,
            ops_per_thread: 16,
            depth: 6,
            op,
            conflict,
            working_set: 64,
            seed: 1,
            hotspot: None,
            open_loop: None,
        };
        let report = run(&*cluster, config);
        assert_eq!(report.failed, 0, "{op:?}/{conflict:?} had failures");
        assert_eq!(report.completed, 64);
        assert!(report.throughput() > 0.0);
        report
    }

    fn check(op: MdOp, conflict: ConflictMode) -> MdtestReport {
        check_with(SimConfig::instant(), op, conflict)
    }

    #[test]
    fn every_operation_runs_clean() {
        for op in [
            MdOp::Create,
            MdOp::Delete,
            MdOp::ObjStat,
            MdOp::DirStat,
            MdOp::Lookup,
            MdOp::Mkdir,
            MdOp::Rmdir,
        ] {
            check(op, ConflictMode::Exclusive);
        }
    }

    #[test]
    fn shared_mode_mutations_run_clean() {
        check(MdOp::Mkdir, ConflictMode::Shared);
        check(MdOp::Create, ConflictMode::Shared);
        check(MdOp::DirRename, ConflictMode::Shared);
        check(MdOp::DirRename, ConflictMode::Exclusive);
    }

    #[test]
    fn report_phases_populated_for_reads() {
        // Non-zero modeled delays: under the virtual clock phase time is
        // purely modeled, so an all-zero config measures exactly zero.
        let report = check_with(SimConfig::fast(), MdOp::ObjStat, ConflictMode::Exclusive);
        assert!(report.agg.mean_phase_nanos(Phase::Lookup) > 0.0);
        assert!(report.agg.mean_rpcs() >= 1.0);
        assert!(report.latency.count() == 64);
    }
}
