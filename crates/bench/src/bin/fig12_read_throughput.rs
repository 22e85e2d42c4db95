//! Figures 12 and 13: throughput, and latency breakdown (lookup /
//! loop-detection / execution), of object operations and directory read
//! operations (create, delete, objstat, dirstat) across the four systems.
//! One measurement, written as `results/fig12.json` and `fig13.json`.
//!
//! The paper's throughput ordering (worst → best: Tectonic, InfiniFS,
//! LocoFS, Mantle) comes from central-node saturation, which this model
//! does not have (DESIGN.md §1): expect the per-op latency ordering
//! instead, with Mantle's lookup a single RPC at every operation.

use mantle_bench::runner::measure;
use mantle_bench::{Report, Scale, SystemKind, SystemUnderTest};
use mantle_types::{EnvConfig, SimConfig};
use mantle_workloads::{ConflictMode, MdOp};

fn main() {
    let scale = Scale::from(EnvConfig::get().scale);
    // Per-level resolution CPU at the paper's measured magnitude (DESIGN.md
    // §1.1). It shows as latency only: no modeled node saturates, so
    // neither LocoFS's directory server nor the IndexNode leader is a
    // ceiling, and throughput is threads / modeled latency.
    let sim = SimConfig {
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
