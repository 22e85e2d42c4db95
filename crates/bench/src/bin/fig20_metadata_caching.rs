//! Figure 20: effect of adding proxy-side metadata caching (the paper's
//! AM-Cache; here the coherent path-lease cache of DESIGN.md §4.13) to
//! InfiniFS and to Mantle, on both application workloads.
//!
//! Expected shape: caching barely moves the Analytics workload (dominated
//! by directory modification contention), helps InfiniFS substantially on
//! Audio, and helps Mantle only a little — its single-RPC lookup leaves
//! less to save.
//!
//! `completion_ms` is the paper's metric (longest worker timeline), but
//! workers claim tasks in real time, so at small scales it mostly shows how
//! unevenly tasks were claimed. `mean_op_us`, the mean modeled latency of
//! every timed metadata op, does not depend on who ran what.

use serde::Serialize;

use mantle_baselines::{InfiniFs, InfiniFsOptions};
use mantle_bench::report::fmt_us;
use mantle_bench::{Report, Scale, SystemUnderTest};
use mantle_core::{MantleConfig, PathLeaseConfig};
use mantle_types::{EnvConfig, SimConfig};
use mantle_workloads::apps::{run_analytics, run_audio};
use mantle_workloads::{AnalyticsConfig, AudioConfig};

#[derive(Serialize)]
struct Row {
    system: &'static str,
    cache: bool,
    workload: &'static str,
    completion_ms: f64,
    mean_op_us: f64,
}

fn build(system: &'static str, cache: bool, sim: SimConfig) -> SystemUnderTest {
    // Pinned both ways, whatever MANTLE_PATH_CACHE says.
    let pcache = if cache {
        PathLeaseConfig::enabled()
    } else {
        PathLeaseConfig::default()
    };
    match system {
        "infinifs" => SystemUnderTest::infinifs_custom(InfiniFs::with_path_cache(
            sim,
            InfiniFsOptions::default(),
            pcache,
        )),
        "mantle" => SystemUnderTest::mantle(MantleConfig {
            sim,
            pcache,
            ..MantleConfig::default()
        }),
        _ => unreachable!(),
    }
}

fn main() {
    let scale = Scale::from(EnvConfig::get().scale);
    let sim = SimConfig::default();
    let mut report = Report::new("fig20", "impact of adding metadata caching (AM-Cache)");
    for system in ["infinifs", "mantle"] {
        for cache in [false, true] {
            for workload in ["analytics", "audio"] {
                let sut = build(system, cache, sim);
                let app = match workload {
                    "analytics" => run_analytics(
                        sut.svc().as_ref(),
                        None,
                        AnalyticsConfig {
                            queries: 4,
                            tasks_per_query: scale.app_tasks / 4,
                            parts_per_task: 2,
                            threads: scale.threads.min(64),
                            part_size: 1 << 20,
                            data_access: false,
                        },
                    ),
                    _ => run_audio(
                        sut.svc().as_ref(),
                        None,
                        AudioConfig {
                            files: scale.app_tasks,
                            segments_per_file: 8,
                            threads: scale.threads.min(64),
                            segment_size: 256 * 1024,
                            depth: scale.depth,
                            data_access: false,
                        },
                    ),
                };
                let (ops, nanos) = app.op_latency.values().fold((0.0, 0.0), |(n, t), h| {
                    (n + h.count() as f64, t + h.mean() * h.count() as f64)
                });
                let row = Row {
                    system,
                    cache,
                    workload,
                    completion_ms: app.completion.as_secs_f64() * 1e3,
                    mean_op_us: nanos / ops / 1e3,
                };
                report.line(format!(
                    "{:<9} cache={:<5} {:<10} completion {:>10}  mean op {:>10}",
                    row.system,
                    row.cache,
                    row.workload,
                    fmt_us(row.completion_ms * 1e3),
                    fmt_us(row.mean_op_us)
                ));
                report.row(&row);
            }
        }
    }
    report.finish();
}
