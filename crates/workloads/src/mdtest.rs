//! The mdtest-style metadata benchmark (§6.1, §6.3).
//!
//! N client threads issue one operation type against the service under
//! test; paths sit at a configurable depth (the paper uses 10). Directory
//! modifications run in two modes: `-e` (exclusive: each thread works in
//! its own parent directory) and `-s` (shared: every thread hammers one
//! parent — the Spark commit pattern of §3.2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mantle_types::hist::Histogram;
use mantle_types::stats::OpStatsAgg;
use mantle_types::{BulkLoad, MetaPath, MetadataService, Phase};

pub use crate::driver::OpenLoop;
use crate::driver::{drive, OpRecord};

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

/// Runs one mdtest configuration against `svc`.
///
/// The working set is bulk-loaded first (no simulated cost); only the
/// operation loop is timed.
pub fn run<S: MetadataService + BulkLoad + ?Sized + Sync>(
    svc: &S,
    config: MdtestConfig,
) -> MdtestReport {
    let (threads, ops) = (config.threads, config.ops_per_thread);
    let shared = config.conflict == ConflictMode::Shared;
    let dir = |tag: String| deep_parent(&tag, config.depth - 1);
    let per_thread = |prefix: &str| -> Vec<MetaPath> {
        (0..threads).map(|t| dir(format!("{prefix}{t}"))).collect()
    };

    // --- setup (untimed) --------------------------------------------------
    // Read workloads sample from a pre-populated working set. Mutation
    // workloads get the directories they work in — `parents[t]` is thread
    // `t`'s, unless one shared directory (`-s`) or a hotspot pool stands in
    // — with victims `v{i}` for delete/rmdir/dirrename, and `dsts` to
    // rename into.
    let mut read_paths: Vec<MetaPath> = Vec::new();
    let (mut parents, mut dsts) = (Vec::new(), Vec::new());
    match config.op {
        MdOp::ObjStat => {
            let parent = dir("st".into());
            for i in 0..config.working_set {
                let p = parent.child(&format!("o{i}"));
                svc.bulk_object(&p, 4096);
                read_paths.push(p);
            }
        }
        MdOp::DirStat | MdOp::Lookup => {
            let parent = dir("st".into());
            for i in 0..config.working_set {
                let p = parent.child(&format!("d{i}"));
                svc.bulk_dir(&p);
                read_paths.push(p);
            }
        }
        MdOp::Create | MdOp::Mkdir => {
            parents = match config.hotspot {
                Some(h) => (0..h.parents.max(1))
                    .map(|k| dir(format!("h{k}")))
                    .collect(),
                None if shared => vec![dir("shared".into())],
                None => per_thread("p"),
            };
            for parent in &parents {
                svc.bulk_dir(parent);
            }
        }
        MdOp::Delete | MdOp::Rmdir => {
            parents = per_thread("p");
            for parent in &parents {
                for i in 0..ops {
                    let victim = parent.child(&format!("v{i}"));
                    if config.op == MdOp::Delete {
                        svc.bulk_object(&victim, 1);
                    } else {
                        svc.bulk_dir(&victim);
                    }
                }
            }
        }
        MdOp::DirRename => {
            // Sources are per-thread; destinations are per-thread (-e) or
            // one shared output directory (-s), the §3.2 commit pattern.
            parents = per_thread("src");
            dsts = if shared {
                vec![dir("dshared".into())]
            } else {
                per_thread("dstp")
            };
            for (t, src) in parents.iter().enumerate() {
                for i in 0..ops {
                    svc.bulk_dir(&src.child(&format!("v{i}")));
                }
                if !shared {
                    svc.bulk_dir(&dsts[t]);
                }
            }
            if shared {
                svc.bulk_dir(&dsts[0]);
            }
        }
    }

    // --- measured section ---------------------------------------------------
    let label = config.op.label();
    let mut outcome = drive(svc.name(), threads, config.open_loop, |client| {
        let t = client.thread();
        let mut rng = StdRng::seed_from_u64(config.seed ^ (t as u64) << 17);
        let zipf = config
            .hotspot
            .map(|h| crate::zipf::Zipf::new(h.parents.max(1), h.s));
        let mut pick = |n: usize| -> usize {
            match &zipf {
                Some(z) => z.sample(&mut rng) % n.max(1),
                None => rng.gen_range(0..n.max(1)),
            }
        };
        for i in 0..ops {
            let fresh = || format!("n_{}_{t}_{i}", config.seed);
            client.op(label, config.depth, |stats| match config.op {
                MdOp::ObjStat => {
                    let p = &read_paths[pick(read_paths.len())];
                    svc.objstat(p, stats).map(|_| ())
                }
                MdOp::DirStat => {
                    let p = &read_paths[pick(read_paths.len())];
                    svc.dirstat(p, stats).map(|_| ())
                }
                MdOp::Lookup => {
                    let p = &read_paths[pick(read_paths.len())];
                    svc.lookup(p, stats).map(|_| ())
                }
                MdOp::Create | MdOp::Mkdir => {
                    let parent = match config.hotspot {
                        Some(_) => &parents[pick(parents.len())],
                        None if shared => &parents[0],
                        None => &parents[t],
                    };
                    match config.op {
                        MdOp::Create => {
                            svc.create(&parent.child(&fresh()), 4096, stats).map(|_| ())
                        }
                        _ => svc.mkdir(&parent.child(&fresh()), stats).map(|_| ()),
                    }
                }
                MdOp::Delete => svc.delete(&parents[t].child(&format!("v{i}")), stats),
                MdOp::Rmdir => svc.rmdir(&parents[t].child(&format!("v{i}")), stats),
                MdOp::DirRename => {
                    let dst = &dsts[if shared { 0 } else { t }];
                    let src = parents[t].child(&format!("v{i}"));
                    svc.rename_dir(&src, &dst.child(&fresh()), stats)
                }
            });
        }
    });

    let OpRecord { latency, agg } = outcome.take(label);
    MdtestReport {
        config,
        completed: agg.count,
        failed: outcome.failed,
        shed: outcome.shed,
        deadline_aborted: outcome.deadline_aborted,
        wall: outcome.makespan,
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
