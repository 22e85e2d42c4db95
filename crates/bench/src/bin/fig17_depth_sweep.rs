//! Figure 17: impact of directory depth on path-resolution latency.
//!
//! Tectonic grows linearly with depth (one RPC per level); InfiniFS grows
//! under concurrency (resolver-pool oversubscription); LocoFS and Mantle
//! stay near one round trip, with Mantle's 10-level latency only slightly
//! above its 1-level latency (paper: 1.09x).

use serde::Serialize;

use mantle_bench::report::fmt_us;
use mantle_bench::runner::measure;
use mantle_bench::{Report, Scale, SystemKind, SystemUnderTest};
use mantle_types::{EnvConfig, SimConfig};
use mantle_workloads::{ConflictMode, MdOp};

#[derive(Serialize)]
struct Row {
    system: &'static str,
    depth: usize,
    mean_us: f64,
    p99_us: f64,
    rpcs: f64,
    throughput: f64,
}

fn main() {
    let scale = Scale::from(EnvConfig::get().scale);
    let sim = SimConfig::default();
    let mut report = Report::new("fig17", "path-resolution latency vs directory depth");
    for kind in SystemKind::ALL {
        let mut depth1 = 0.0f64;
        for depth in [1usize, 2, 4, 6, 8, 10] {
            let sut = SystemUnderTest::build(kind, sim);
            let at_depth = Scale { depth, ..scale };
            let m = measure(&sut, MdOp::Lookup, ConflictMode::Exclusive, at_depth);
            if depth == 1 {
                depth1 = m.mean_us;
            }
            let row = Row {
                system: kind.label(),
                depth,
                mean_us: m.mean_us,
                p99_us: m.p99_us,
                rpcs: m.rpcs,
                throughput: m.throughput,
            };
            report.line(format!(
                "{:<9} depth {:>2}  mean {:>9}  p99 {:>9}  rpc {:>4.1}  ({:.2}x of depth-1)",
                row.system,
                row.depth,
                fmt_us(row.mean_us),
                fmt_us(row.p99_us),
                row.rpcs,
                row.mean_us / depth1.max(1e-9)
            ));
            report.row(&row);
        }
    }
    report.finish();
}
