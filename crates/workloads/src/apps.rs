//! The two real-world application drivers of §6.2.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use mantle_core::DataService;
use mantle_types::clock;
use mantle_types::hist::Histogram;
use mantle_types::{BulkLoad, MetaPath, MetadataService, RequestCtx};

/// Results of one application run.
#[derive(Debug)]
pub struct AppReport {
    /// End-to-end completion time (the Figure 10 metric): the longest
    /// per-worker simulated timeline.
    pub completion: Duration,
    /// Per-operation latency histograms (nanoseconds) for the CDFs of
    /// Figure 11 ("mkdir", "dirrename", "objstat", "create").
    pub op_latency: HashMap<&'static str, Histogram>,
    /// Operations that failed (must be zero).
    pub failed: u64,
}

#[derive(Default)]
struct Recorder {
    hists: Mutex<HashMap<&'static str, Histogram>>,
    failed: AtomicU64,
}

impl Recorder {
    fn time<R, E>(&self, op: &'static str, f: impl FnOnce() -> Result<R, E>) -> Option<R> {
        let begin = clock::now();
        match f() {
            Ok(r) => {
                self.hists
                    .lock()
                    .entry(op)
                    .or_default()
                    .record(begin.elapsed().as_nanos() as u64);
                Some(r)
            }
            Err(_) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Counts a failed step that has no latency row of its own (the
    /// data-plane writes riding along with a timed metadata op).
    fn check<R, E>(&self, result: Result<R, E>) {
        if result.is_err() {
            self.failed.fetch_add(1, Ordering::Relaxed);
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

impl Default for AnalyticsConfig {
    fn default() -> Self {
        AnalyticsConfig {
            queries: 4,
            tasks_per_query: 32,
            parts_per_task: 2,
            threads: 8,
            part_size: 1 << 20,
            data_access: false,
        }
    }
}

/// Runs the Analytics workload. `data` supplies the object data path when
/// `config.data_access` is set.
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

    let recorder = Recorder::default();
    let next_task = AtomicUsize::new(0);
    let total_tasks = config.queries * config.tasks_per_query;

    // Completion time is the longest per-worker timeline (per-thread
    // virtual clocks).
    let makespan_nanos = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..config.threads {
            let recorder = &recorder;
            let next_task = &next_task;
            let makespan_nanos = &makespan_nanos;
            scope.spawn(move || {
                let begin = clock::now();
                let mut stats = RequestCtx::new();
                loop {
                    let task = next_task.fetch_add(1, Ordering::Relaxed);
                    if task >= total_tasks {
                        break;
                    }
                    let q = task / config.tasks_per_query;
                    let tmp = MetaPath::parse(&format!("/warehouse/tmp/q{q}_t{task}"))
                        .expect("static path");
                    // 1. Private temp directory.
                    recorder.time("mkdir", || svc.mkdir(&tmp, &mut stats));
                    // 2. Write parts (metadata + optional data).
                    for part in 0..config.parts_per_task {
                        let path = tmp.child(&format!("part{part}"));
                        recorder.time("create", || svc.create(&path, config.part_size, &mut stats));
                        if let Some(data) = data {
                            recorder.check(data.write(config.part_size, &mut stats));
                        }
                    }
                    // 3. Atomic commit: rename into the shared output dir.
                    let out = MetaPath::parse(&format!("/warehouse/out/q{q}/t{task}"))
                        .expect("static path");
                    recorder.time("dirrename", || svc.rename_dir(&tmp, &out, &mut stats));
                }
                makespan_nanos.fetch_max(begin.elapsed().as_nanos() as u64, Ordering::Relaxed);
            });
        }
    });

    AppReport {
        completion: Duration::from_nanos(makespan_nanos.into_inner()),
        op_latency: recorder.hists.into_inner(),
        failed: recorder.failed.load(Ordering::Relaxed),
    }
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

impl Default for AudioConfig {
    fn default() -> Self {
        AudioConfig {
            files: 64,
            segments_per_file: 8,
            threads: 8,
            segment_size: 256 * 1024,
            depth: 10,
            data_access: false,
        }
    }
}

/// Runs the Audio workload.
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
    let inputs: Vec<MetaPath> = (0..config.files)
        .map(|f| {
            let dir = base.child(&format!("batch{}", f % 8));
            let path = dir.child(&format!("file{f}.wav"));
            svc.bulk_object(&path, 64 << 20);
            svc.bulk_dir(&dir.child(&format!("file{f}.seg")));
            path
        })
        .collect();

    let recorder = Recorder::default();
    let next = AtomicUsize::new(0);

    let makespan_nanos = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..config.threads {
            let recorder = &recorder;
            let next = &next;
            let inputs = &inputs;
            let makespan_nanos = &makespan_nanos;
            scope.spawn(move || {
                let begin = clock::now();
                let mut stats = RequestCtx::new();
                loop {
                    let f = next.fetch_add(1, Ordering::Relaxed);
                    if f >= inputs.len() {
                        break;
                    }
                    // Scan + split (§3): each segment re-stats the input
                    // (range metadata) before emitting the segment object.
                    let input = &inputs[f];
                    let seg_dir = input
                        .parent()
                        .expect("input paths are deep")
                        .child(&format!("file{f}.seg"));
                    for s in 0..config.segments_per_file {
                        let meta = recorder.time("objstat", || svc.objstat(input, &mut stats));
                        if let (Some(meta), Some(data)) = (meta.as_ref(), data) {
                            let _ = data.read(meta.blob, &mut stats);
                        }
                        let seg = seg_dir.child(&format!("seg{s}"));
                        recorder.time("create", || {
                            svc.create(&seg, config.segment_size, &mut stats)
                        });
                        if let Some(data) = data {
                            recorder.check(data.write(config.segment_size, &mut stats));
                        }
                    }
                }
                makespan_nanos.fetch_max(begin.elapsed().as_nanos() as u64, Ordering::Relaxed);
            });
        }
    });

    AppReport {
        completion: Duration::from_nanos(makespan_nanos.into_inner()),
        op_latency: recorder.hists.into_inner(),
        failed: recorder.failed.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_core::MantleCluster;
    use mantle_types::SimConfig;

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
}
