//! Figure 16: effect of each optimization, enabled progressively.
//!
//! Configurations, cumulative: Mantle-base → +pathcache → +raftlogbatch →
//! +delta record → +follower read; workloads dirstat, mkdir-e, dirrename-s.
//! Throughput is reported normalized to Mantle-base, as in the paper.

use serde::Serialize;

use mantle_bench::runner::measure;
use mantle_bench::{Report, Scale, SystemUnderTest};
use mantle_core::MantleConfig;
use mantle_types::{EnvConfig, SimConfig};
use mantle_workloads::{ConflictMode, MdOp};

#[derive(Serialize)]
struct Row {
    config: &'static str,
    op: String,
    mode: String,
    throughput: f64,
    normalized: f64,
}

fn variant(sim: SimConfig, stage: usize) -> MantleConfig {
    let mut config = MantleConfig {
        sim,
        ..MantleConfig::default()
    };
    config.index.path_cache = stage >= 1;
    config.index.raft.log_batching = stage >= 2;
    config.db.delta_records = stage >= 3;
    config.db.group_commit = stage >= 2;
    config.index.follower_reads = stage >= 4;
    config
}

fn main() {
    let scale = Scale::from(EnvConfig::get().scale);
    // Per-level resolution CPU at the paper's magnitude (DESIGN.md §1.1), so
    // what the path cache saves is visible as latency. Follower reads have
    // no leader ceiling to relieve in this model; they cost a ReadIndex.
    let sim = SimConfig {
        index_level_micros: 25,
        ..SimConfig::default()
    };
    let stages = [
        "mantle-base",
        "+pathcache",
        "+raftlogbatch",
        "+delta record",
        "+follower read",
    ];
    let mut report = Report::new("fig16", "effects of individual optimizations (normalized)");
    for (op, conflict) in [
        (MdOp::DirStat, ConflictMode::Exclusive),
        (MdOp::Mkdir, ConflictMode::Exclusive),
        (MdOp::DirRename, ConflictMode::Shared),
    ] {
        let suffix = if conflict == ConflictMode::Shared {
            "s"
        } else {
            "e"
        };
        report.line(format!("-- {}-{} --", op.label(), suffix));
        let mut base = 0.0f64;
        for (stage, name) in stages.iter().enumerate() {
            let sut = SystemUnderTest::mantle(variant(sim, stage));
            let m = measure(&sut, op, conflict, scale);
            if stage == 0 {
                base = m.throughput;
            }
            let row = Row {
                config: name,
                op: op.label().to_string(),
                mode: suffix.to_string(),
                throughput: m.throughput,
                normalized: m.throughput / base.max(1e-9),
            };
            report.line(format!(
                "{:<15} {:>10.0} ops/s  normalized {:>5.2}x",
                row.config, row.throughput, row.normalized
            ));
            report.row(&row);
        }
    }
    report.finish();
}
