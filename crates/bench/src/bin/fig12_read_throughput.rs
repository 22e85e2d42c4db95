//! Figures 12 and 13: throughput, and latency breakdown (lookup /
//! loop-detection / execution), of object operations and directory read
//! operations (create, delete, objstat, dirstat) across the four systems.
//! One measurement, written as `results/fig12.json` and `fig13.json`.
//!
//! Expected throughput ordering (worst → best): Tectonic, InfiniFS, LocoFS,
//! Mantle, which should also show the lowest lookup share at every
//! operation.

use mantle_bench::runner::measure;
use mantle_bench::{Report, Scale, SystemKind, SystemUnderTest};
use mantle_types::{EnvConfig, SimConfig};
use mantle_workloads::{ConflictMode, MdOp};

fn main() {
    let scale = Scale::from(EnvConfig::get().scale);
    // CPU-faithful envelope (DESIGN.md §1): per-level resolution CPU at the
    // paper's measured magnitude, with a scaled-down core budget, so the
    // central-node saturation that orders these curves (LocoFS's directory
    // server ceiling vs Mantle's cache + follower spread) binds below the
    // simulation host's own ceiling.
    let sim = SimConfig {
        index_node_permits: 4,
        index_level_micros: 25,
        ..SimConfig::default()
    };
    let mut report = Report::new("fig12", "object + directory read operation throughput")
        .also_as("fig13", "latency breakdown of read operations");
    for op in [MdOp::Create, MdOp::Delete, MdOp::ObjStat, MdOp::DirStat] {
        report.line(format!("-- {} --", op.label()));
        for kind in SystemKind::ALL {
            let sut = SystemUnderTest::build(kind, sim);
            let row = measure(&sut, op, ConflictMode::Exclusive, scale);
            report.line(row.pretty());
            report.row(&row);
        }
    }
    report.finish();
}
