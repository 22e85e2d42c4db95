//! Figure 4: performance analysis of the DBtable-based metadata service.
//!
//! (a) Latency breakdown of objstat / dirstat / delete — the lookup phase
//!     should dominate (paper: 89.9 %, 91.2 %, 63.1 %).
//! (b) mkdir / dirrename throughput with no conflicts vs all threads
//!     writing one directory — the paper reports 99.7 % / 99.4 % drops.

use mantle_bench::runner::{measure, OpRow};
use mantle_bench::{Report, Scale, SystemUnderTest};
use mantle_types::{EnvConfig, SimConfig};
use mantle_workloads::{ConflictMode, MdOp};

fn main() {
    let scale = Scale::from(EnvConfig::get().scale);
    let sim = SimConfig::default();
    let mut report = Report::new(
        "fig04",
        "DBtable-based service bottlenecks (Tectonic baseline)",
    );

    report.line("-- (a) latency breakdown: lookup should dominate --");
    for op in [MdOp::ObjStat, MdOp::DirStat, MdOp::Delete] {
        let sut = SystemUnderTest::dbtable(sim);
        let row = measure(&sut, op, ConflictMode::Exclusive, scale);
        let total = row.lookup_us + row.loop_detect_us + row.execute_us;
        report.line(format!(
            "{}   -> lookup share {:.1}%",
            row.pretty(),
            100.0 * row.lookup_us / total.max(1e-9)
        ));
        report.row(&row);
    }

    report.line("-- (b) directory modification under contention --");
    let mut pairs: Vec<(MdOp, f64, f64)> = Vec::new();
    for op in [MdOp::Mkdir, MdOp::DirRename] {
        let mut thpt = [0.0f64; 2];
        for (i, conflict) in [ConflictMode::Exclusive, ConflictMode::Shared]
            .iter()
            .enumerate()
        {
            let sut = SystemUnderTest::dbtable(sim);
            let row: OpRow = measure(&sut, op, *conflict, scale);
            thpt[i] = row.throughput;
            report.line(row.pretty());
            report.row(&row);
        }
        pairs.push((op, thpt[0], thpt[1]));
    }
    for (op, no_conflict, all_conflict) in pairs {
        report.line(format!(
            "{}: no-conflict {:.0} ops/s -> all-conflict {:.0} ops/s ({:.1}% reduction; paper: ~99%)",
            op.label(),
            no_conflict,
            all_conflict,
            100.0 * (1.0 - all_conflict / no_conflict.max(1e-9))
        ));
    }
    report.finish();
}
