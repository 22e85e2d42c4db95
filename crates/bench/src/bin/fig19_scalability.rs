//! Figure 19: Mantle's scalability.
//!
//! (a) Throughput vs namespace size (objstat + create): flat — every
//!     operation is O(depth), not O(entries).
//! (b) Throughput vs client threads for objstat without follower reads,
//!     with 2 followers, and with 2 extra learners; plus create. In the
//!     paper follower and learner reads push the single-node lookup
//!     ceiling out; this model has no such ceiling (DESIGN.md §1).

use serde::Serialize;

use mantle_bench::report::fmt_ops;
use mantle_bench::runner::measure;
use mantle_bench::{Report, Scale, SystemUnderTest};
use mantle_core::MantleConfig;
use mantle_types::{EnvConfig, SimConfig};
use mantle_workloads::{ConflictMode, MdOp, NamespaceHandle, NamespaceSpec};

#[derive(Serialize)]
struct SizeRow {
    entries: usize,
    op: &'static str,
    throughput: f64,
}

#[derive(Serialize)]
struct ThreadRow {
    variant: &'static str,
    threads: usize,
    throughput: f64,
}

fn main() {
    let scale = Scale::from(EnvConfig::get().scale);
    let sim = SimConfig::default();
    let mut report = Report::new(
        "fig19",
        "Mantle scalability: namespace size and client threads",
    );

    report.line("-- (a) throughput vs namespace size --");
    for &entries in scale.size_sweep {
        let sut = SystemUnderTest::mantle(MantleConfig {
            sim,
            ..MantleConfig::default()
        });
        let mut spec = NamespaceSpec::tiny();
        spec.entries = entries;
        spec.seed = 5;
        NamespaceHandle::populate(sut.svc().as_ref(), spec);
        for op in [MdOp::ObjStat, MdOp::Create] {
            let m = measure(&sut, op, ConflictMode::Exclusive, scale);
            let row = SizeRow {
                entries,
                op: op.label(),
                throughput: m.throughput,
            };
            report.line(format!(
                "entries {:>9}  {:<8} {:>10} ops/s",
                row.entries,
                row.op,
                fmt_ops(row.throughput)
            ));
            report.row(&row);
        }
    }

    report.line("-- (b) throughput vs client threads --");
    // On the paper's testbed one replica's resolution capacity binds (§7.2:
    // "Mantle's scalability is currently constrained by the CPU resource of
    // IndexNode") and follower/learner reads raise it. Here no node queue
    // is modeled, so no ceiling exists and every variant scales linearly in
    // threads (DESIGN.md §1) until ROADMAP 1(b) models the queue; the
    // per-level CPU cost is kept so the rows stay comparable then.
    let mut cpu_sim = sim;
    cpu_sim.index_level_micros = 25;
    type BuildFn = Box<dyn Fn() -> SystemUnderTest>;
    let variants: [(&'static str, BuildFn); 4] = [
        ("objstat", {
            Box::new(move || {
                let mut config = MantleConfig {
                    sim: cpu_sim,
                    ..MantleConfig::default()
                };
                config.index.follower_reads = false;
                SystemUnderTest::mantle(config)
            })
        }),
        ("objstat+followers", {
            Box::new(move || {
                let mut config = MantleConfig {
                    sim: cpu_sim,
                    ..MantleConfig::default()
                };
                config.index.follower_reads = true;
                SystemUnderTest::mantle(config)
            })
        }),
        ("objstat+learners", {
            Box::new(move || {
                let mut config = MantleConfig {
                    sim: cpu_sim,
                    ..MantleConfig::default()
                };
                config.index.follower_reads = true;
                config.index.learners = 2;
                SystemUnderTest::mantle(config)
            })
        }),
        ("create", {
            Box::new(move || {
                SystemUnderTest::mantle(MantleConfig {
                    sim,
                    ..MantleConfig::default()
                })
            })
        }),
    ];
    for (name, build) in &variants {
        let op = if *name == "create" {
            MdOp::Create
        } else {
            MdOp::ObjStat
        };
        for &threads in scale.thread_sweep {
            let sut = build();
            let m = measure(
                &sut,
                op,
                ConflictMode::Exclusive,
                Scale { threads, ..scale },
            );
            let row = ThreadRow {
                variant: name,
                threads,
                throughput: m.throughput,
            };
            report.line(format!(
                "{:<18} threads {:>4}  {:>10} ops/s",
                row.variant,
                row.threads,
                fmt_ops(row.throughput)
            ));
            report.row(&row);
        }
    }
    report.finish();
}
