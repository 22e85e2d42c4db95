//! The two real-world application drivers of §6.2, as bodies over the
//! shared client loop ([`crate::driver`]): every metadata op and every
//! data-plane access is one [`Client::op`](crate::driver::Client::op).
//! Tasks are partitioned statically — task `k` runs on worker
//! `k mod threads` — so the task → worker map never depends on which OS
//! thread won a claim.

use std::collections::HashMap;
use std::time::Duration;

use mantle_core::{DataService, MetadataService};
use mantle_types::hist::Histogram;
use mantle_types::{BulkLoad, MetaPath};

use crate::driver::{drive, Outcome};

/// Results of one application run.
#[derive(Debug)]
pub struct AppReport {
    /// End-to-end completion time (the Figure 10 metric): the longest
    /// per-worker simulated timeline.
    pub completion: Duration,
    /// Per-operation latency histograms (nanoseconds) for the CDFs of
    /// Figure 11 ("mkdir", "dirrename", "objstat", "create"), plus
    /// "data_write" / "data_read" when the data service is touched.
    pub op_latency: HashMap<&'static str, Histogram>,
    /// Operations that failed (must be zero).
    pub failed: u64,
}

impl AppReport {
    /// Mean modeled latency over every timed op, in microseconds (0 when
    /// nothing was recorded).
    pub fn mean_op_micros(&self) -> f64 {
        let (ops, nanos) = self.op_latency.values().fold((0.0, 0.0), |(n, t), h| {
            (n + h.count() as f64, t + h.mean() * h.count() as f64)
        });
        if ops == 0.0 {
            0.0
        } else {
            nanos / ops / 1e3
        }
    }
}

impl From<Outcome> for AppReport {
    fn from(outcome: Outcome) -> Self {
        AppReport {
            completion: outcome.makespan,
            op_latency: outcome
                .ops
                .into_iter()
                .map(|(label, record)| (label, record.latency))
                .collect(),
            failed: outcome.failed,
        }
    }
}

/// Interactive Spark analytics (§3.2, §6.2): each query spawns tasks that
/// write parts into private temporary directories and then *atomically
/// rename them into one shared output directory* — the contention pattern
/// that melts DBtable-based services.
#[derive(Clone, Copy, Debug)]
pub struct AnalyticsConfig {
    /// Queries to run.
    pub queries: usize,
    /// Tasks per query (each task = one temp dir + one rename).
    pub tasks_per_query: usize,
    /// Part objects each task writes.
    pub parts_per_task: usize,
    /// Worker threads executing tasks.
    pub threads: usize,
    /// Part object size in bytes.
    pub part_size: u64,
    /// Whether to touch the data service (Figure 10b vs 10a).
    pub data_access: bool,
}

/// Runs the Analytics workload. `data` supplies the object data path when
/// `config.data_access` is set. Only the task → worker map is
/// deterministic: the commits contend for real on the shared output
/// directory, so `completion` still moves with how the renames interleave.
pub fn run_analytics<S: MetadataService + BulkLoad + ?Sized + Sync>(
    svc: &S,
    data: Option<&DataService>,
    config: AnalyticsConfig,
) -> AppReport {
    // Shared output directories exist up front.
    svc.bulk_dir(&MetaPath::parse("/warehouse/tmp").expect("static path"));
    for q in 0..config.queries {
        svc.bulk_dir(&MetaPath::parse(&format!("/warehouse/out/q{q}")).expect("static path"));
    }

    let total_tasks = config.queries * config.tasks_per_query;
    drive(svc.name(), config.threads, None, |client| {
        for task in client.share_of(total_tasks) {
            let q = task / config.tasks_per_query;
            let tmp =
                MetaPath::parse(&format!("/warehouse/tmp/q{q}_t{task}")).expect("static path");
            // 1. Private temp directory.
            client.op("mkdir", tmp.depth(), |ctx| svc.mkdir(&tmp, ctx));
            // 2. Write parts (metadata + optional data).
            for part in 0..config.parts_per_task {
                let path = tmp.child(&format!("part{part}"));
                client.op("create", path.depth(), |ctx| {
                    svc.create(&path, config.part_size, ctx)
                });
                if let Some(data) = data {
                    client.op("data_write", 0, |ctx| data.write(config.part_size, ctx));
                }
            }
            // 3. Atomic commit: rename into the shared output dir.
            let out =
                MetaPath::parse(&format!("/warehouse/out/q{q}/t{task}")).expect("static path");
            client.op("dirrename", out.depth(), |ctx| {
                svc.rename_dir(&tmp, &out, ctx)
            });
        }
    })
    .into()
}

/// AI audio preprocessing (§6.2): long inputs are scanned and split into
/// seconds-long segment objects. Entirely non-conflicting — it isolates
/// path-resolution performance.
#[derive(Clone, Copy, Debug)]
pub struct AudioConfig {
    /// Input audio files.
    pub files: usize,
    /// Segment objects produced per file.
    pub segments_per_file: usize,
    /// Worker threads.
    pub threads: usize,
    /// Segment size in bytes (small objects, §3).
    pub segment_size: u64,
    /// Directory depth of the dataset (deep, per Figure 3b).
    pub depth: usize,
    /// Whether to touch the data service.
    pub data_access: bool,
}

/// Runs the Audio workload. Conflict-free by construction, so with the
/// static task partition `completion` and every histogram are a pure
/// function of `config` on a service whose own choices are (the test
/// below lists what that takes of Mantle).
pub fn run_audio<S: MetadataService + BulkLoad + ?Sized + Sync>(
    svc: &S,
    data: Option<&DataService>,
    config: AudioConfig,
) -> AppReport {
    // Deep dataset layout: /audio/L1/.../batch{b}/file{f}.
    let mut base = MetaPath::parse("/audio").expect("static path");
    for i in 0..config.depth.saturating_sub(3) {
        base = base.child(&format!("L{i}"));
    }
    // Each input's bytes live in the data service the run reads from: the
    // handle in `svc`'s own row names a blob of `svc`'s data service (if it
    // has one), which is not the service a harness passes in here.
    const INPUT_SIZE: u64 = 64 << 20;
    let inputs: Vec<(MetaPath, u64)> = (0..config.files)
        .map(|f| {
            let dir = base.child(&format!("batch{}", f % 8));
            let path = dir.child(&format!("file{f}.wav"));
            svc.bulk_object(&path, INPUT_SIZE);
            svc.bulk_dir(&dir.child(&format!("file{f}.seg")));
            (path, data.map_or(0, |d| d.raw_write(INPUT_SIZE)))
        })
        .collect();

    drive(svc.name(), config.threads, None, |client| {
        for f in client.share_of(inputs.len()) {
            // Scan + split (§3): each segment re-stats the input (range
            // metadata) before emitting the segment object.
            let (input, blob) = &inputs[f];
            let seg_dir = input
                .parent()
                .expect("input paths are deep")
                .child(&format!("file{f}.seg"));
            for s in 0..config.segments_per_file {
                let meta = client.op("objstat", input.depth(), |ctx| svc.objstat(input, ctx));
                if let (Some(_), Some(data)) = (meta, data) {
                    client.op("data_read", 0, |ctx| data.read(*blob, ctx));
                }
                let seg = seg_dir.child(&format!("seg{s}"));
                client.op("create", seg.depth(), |ctx| {
                    svc.create(&seg, config.segment_size, ctx)
                });
                if let Some(data) = data {
                    client.op("data_write", 0, |ctx| data.write(config.segment_size, ctx));
                }
            }
        }
    })
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_core::MantleCluster;
    use mantle_types::{RequestCtx, SimConfig};

    #[test]
    fn analytics_completes_without_failures() {
        let cluster = MantleCluster::build(SimConfig::instant(), 4);
        let config = AnalyticsConfig {
            queries: 2,
            tasks_per_query: 8,
            parts_per_task: 2,
            threads: 4,
            part_size: 1024,
            data_access: false,
        };
        let report = run_analytics(&*cluster, None, config);
        assert_eq!(report.failed, 0);
        assert_eq!(report.op_latency["mkdir"].count(), 16);
        assert_eq!(report.op_latency["dirrename"].count(), 16);
        assert_eq!(report.op_latency["create"].count(), 32);
        // Every task's parts landed in the shared output directory.
        let mut stats = RequestCtx::new();
        for task in 0..8 {
            let p = MetaPath::parse(&format!("/warehouse/out/q0/t{task}/part0")).unwrap();
            cluster.objstat(&p, &mut stats).unwrap();
        }
    }

    #[test]
    fn audio_completes_without_failures() {
        let cluster = MantleCluster::build(SimConfig::instant(), 4);
        let config = AudioConfig {
            files: 16,
            segments_per_file: 4,
            threads: 4,
            segment_size: 1024,
            depth: 8,
            data_access: false,
        };
        let report = run_audio(&*cluster, None, config);
        assert_eq!(report.failed, 0);
        assert_eq!(report.op_latency["objstat"].count(), 64);
        assert_eq!(report.op_latency["create"].count(), 64);
    }

    #[test]
    fn data_access_mode_touches_data_service() {
        let cluster = MantleCluster::build(SimConfig::instant(), 4);
        let config = AudioConfig {
            files: 4,
            segments_per_file: 2,
            threads: 2,
            segment_size: 512,
            depth: 6,
            data_access: true,
        };
        let before = cluster.data().len();
        let report = run_audio(&*cluster, Some(cluster.data()), config);
        assert_eq!(report.failed, 0);
        assert!(cluster.data().len() > before);
    }

    #[test]
    fn audio_is_a_pure_function_of_its_config() {
        let run = || {
            // What still depends on scheduling in a conflict-free run is the
            // service's, so it is pinned off: which follower serves a read
            // (a cross-thread round robin), who shares a WAL fsync and who
            // pays the IndexNode prefix-cache miss.
            let mut mantle = mantle_core::MantleConfig::with_sim(SimConfig::default(), 4);
            mantle.index.follower_reads = false;
            mantle.index.path_cache = false;
            mantle.db.group_commit = false;
            let cluster = MantleCluster::with_config(mantle);
            let config = AudioConfig {
                files: 13,
                segments_per_file: 3,
                threads: 4,
                segment_size: 1024,
                depth: 8,
                data_access: true,
            };
            let report = run_audio(&*cluster, Some(cluster.data()), config);
            assert_eq!(report.failed, 0);
            let mut hists: Vec<_> = report
                .op_latency
                .iter()
                .map(|(op, h)| (*op, h.count(), h.cdf_points()))
                .collect();
            hists.sort_by_key(|(op, ..)| *op);
            (report.completion, hists)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn failed_data_reads_count_like_failed_data_writes() {
        let cluster = MantleCluster::build(SimConfig::instant(), 4);
        let data = DataService::new(SimConfig::instant(), 2);
        let drop_all = mantle_rpc::FaultProfile {
            rpc_drop_prob: 1.0,
            ..mantle_rpc::FaultProfile::zeroed()
        };
        data.install_faults(Some(mantle_rpc::FaultPlan::new(1, drop_all).activate()));
        let config = AudioConfig {
            files: 4,
            segments_per_file: 2,
            threads: 2,
            segment_size: 1024,
            depth: 6,
            data_access: true,
        };
        let report = run_audio(&*cluster, Some(&data), config);
        assert_eq!(report.failed, 2 * 4 * 2, "one read and one write a segment");
    }

    #[test]
    fn mean_op_micros_of_an_empty_run_is_zero_not_nan() {
        let config = AudioConfig {
            files: 0,
            segments_per_file: 1,
            threads: 2,
            segment_size: 1024,
            depth: 6,
            data_access: false,
        };
        let cluster = MantleCluster::build(SimConfig::instant(), 4);
        assert_eq!(run_audio(&*cluster, None, config).mean_op_micros(), 0.0);
    }
}
