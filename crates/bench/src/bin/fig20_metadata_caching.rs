//! Figure 20: effect of adding proxy-side metadata caching (the paper's
//! AM-Cache; here the coherent path-lease cache of DESIGN.md §4.13) to
//! InfiniFS and to Mantle, on both application workloads.
//!
//! Expected shape: caching barely moves the Analytics workload (dominated
//! by directory modification contention), helps InfiniFS substantially on
//! Audio, and helps Mantle only a little — its single-RPC lookup leaves
//! less to save.
//!
//! `completion_ms` is the paper's metric (longest worker timeline);
//! `mean_op_us` is the mean modeled latency of every timed metadata op.

use serde::Serialize;

use mantle_baselines::{InfiniFs, InfiniFsOptions};
use mantle_bench::report::fmt_us;
use mantle_bench::{Report, Scale, SystemKind, SystemUnderTest};
use mantle_core::{MantleConfig, PathLeaseConfig};
use mantle_types::{EnvConfig, SimConfig};
use mantle_workloads::apps::{run_analytics, run_audio};

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
        "infinifs" => SystemUnderTest::baseline(
            SystemKind::InfiniFs,
            InfiniFs::with_path_cache(sim, InfiniFsOptions::default(), pcache),
        ),
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
                    "analytics" => run_analytics(sut.svc().as_ref(), None, scale.analytics(false)),
                    _ => run_audio(sut.svc().as_ref(), None, scale.audio(false)),
                };
                let row = Row {
                    system,
                    cache,
                    workload,
                    completion_ms: app.completion.as_secs_f64() * 1e3,
                    mean_op_us: app.mean_op_micros(),
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
