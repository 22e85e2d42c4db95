//! Figures 14 and 15: throughput, and latency breakdown, of directory
//! modification operations (mkdir-e, mkdir-s, dirrename-e, dirrename-s)
//! across the four systems. One measurement, written as
//! `results/fig14.json` and `fig15.json`.
//!
//! The headline: Mantle's delta records keep the `-s` (all threads in one
//! shared directory) throughput close to `-e`, while the baselines collapse
//! (latch serialization for Tectonic/LocoFS, transaction retries for
//! InfiniFS's dirrename). In the breakdown Mantle merges lookup into loop
//! detection for dirrename (zero lookup time, §6.3); the baselines pay
//! multi-RPC lookups plus contended execution.

use mantle_bench::runner::measure;
use mantle_bench::{Report, Scale, SystemKind, SystemUnderTest};
use mantle_types::{EnvConfig, SimConfig};
use mantle_workloads::{ConflictMode, MdOp};

fn main() {
    let scale = Scale::from(EnvConfig::get().scale);
    let sim = SimConfig::default();
    let mut report = Report::new("fig14", "directory modification throughput")
        .also_as("fig15", "latency breakdown of directory modifications");
    for op in [MdOp::Mkdir, MdOp::DirRename] {
        for conflict in [ConflictMode::Exclusive, ConflictMode::Shared] {
            let suffix = if conflict == ConflictMode::Exclusive {
                "e"
            } else {
                "s"
            };
            report.line(format!("-- {}-{} --", op.label(), suffix));
            for kind in SystemKind::ALL {
                let sut = SystemUnderTest::build(kind, sim);
                let row = measure(&sut, op, conflict, scale);
                report.line(row.pretty());
                report.row(&row);
            }
        }
    }
    report.finish();
}
