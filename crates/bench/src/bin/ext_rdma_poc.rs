//! Extension (§7.2, "Optimization potential"): the paper's proof-of-concept
//! shows that moving the RPC framework to RDMA roughly doubles per-node
//! path-resolution throughput (500 K → 1 M ops/s). RDMA's effect on the
//! metadata path is a cheaper per-request software stack: lower effective
//! round-trip cost and less CPU per request. This harness sweeps the RPC
//! cost downward and reports the per-node resolution throughput at each
//! point.

use serde::Serialize;

use mantle_bench::report::fmt_ops;
use mantle_bench::runner::measure;
use mantle_bench::{Report, Scale, SystemUnderTest};
use mantle_core::MantleConfig;
use mantle_types::{EnvConfig, SimConfig};
use mantle_workloads::{ConflictMode, MdOp};

#[derive(Serialize)]
struct Row {
    stack: &'static str,
    rtt_micros: u64,
    service_micros: u64,
    throughput: f64,
    mean_us: f64,
}

fn main() {
    let scale = Scale::from(EnvConfig::get().scale);
    let mut report = Report::new(
        "ext_rdma",
        "§7.2 PoC: RDMA-style RPC stack vs per-node resolution throughput",
    );
    // (label, rtt, per-request service, per-level CPU): the RPC framework's
    // software stack is charged per request *and* per resolution level; a
    // kernel-bypass stack halves-to-quarters all three. No node saturates
    // (DESIGN.md §1): what the sweep shows is threads / per-lookup latency
    // as the stack gets cheaper.
    let stacks: [(&'static str, u64, u64, u64); 3] = [
        ("kernel-tcp", 200, 10, 25),
        ("busy-poll", 100, 6, 15),
        ("rdma", 50, 4, 10),
    ];
    for (stack, rtt, service, level) in stacks {
        let sim = SimConfig {
            rtt_micros: rtt,
            service_micros: service,
            index_level_micros: level,
            ..SimConfig::default()
        };
        // Single-replica reads: measure *per-node* capacity like the PoC.
        let mut config = MantleConfig {
            sim,
            ..MantleConfig::default()
        };
        config.index.follower_reads = false;
        // Raw resolution capacity, as in the PoC: no prefix cache in front.
        config.index.path_cache = false;
        let sut = SystemUnderTest::mantle(config);
        let m = measure(&sut, MdOp::Lookup, ConflictMode::Exclusive, scale);
        let row = Row {
            stack,
            rtt_micros: rtt,
            service_micros: service + level,
            throughput: m.throughput,
            mean_us: m.mean_us,
        };
        report.line(format!(
            "{:<11} rtt {:>4}us service {:>2}us -> {:>9} lookups/s (mean {:.0}us)",
            row.stack,
            row.rtt_micros,
            row.service_micros,
            fmt_ops(row.throughput),
            row.mean_us
        ));
        report.row(&row);
    }
    report.line("(paper PoC: 500K -> 1M per-node lookups/s when adopting RDMA)");
    report.finish();
}
