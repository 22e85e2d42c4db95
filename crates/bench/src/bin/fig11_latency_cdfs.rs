//! Figure 11: latency CDFs of representative metadata operations inside
//! the application workloads (metadata only): mkdir and dirrename from
//! Analytics, objstat and create from Audio.

use serde::Serialize;

use mantle_bench::report::fmt_us;
use mantle_bench::{Report, Scale, SystemKind, SystemUnderTest};
use mantle_types::hist::Histogram;
use mantle_types::{EnvConfig, SimConfig};
use mantle_workloads::apps::{run_analytics, run_audio};

#[derive(Serialize)]
struct Row {
    workload: &'static str,
    op: String,
    system: &'static str,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    max_us: f64,
    cdf: Vec<(u64, f64)>,
}

fn summarize(
    report: &mut Report,
    workload: &'static str,
    system: &'static str,
    op: &str,
    h: &Histogram,
) {
    let row = Row {
        workload,
        op: op.to_string(),
        system,
        p50_us: h.quantile(0.5) as f64 / 1e3,
        p90_us: h.quantile(0.9) as f64 / 1e3,
        p99_us: h.quantile(0.99) as f64 / 1e3,
        max_us: h.max() as f64 / 1e3,
        cdf: h.cdf_points(),
    };
    report.line(format!(
        "{:<10} {:<10} {:<9} p50 {:>9}  p90 {:>9}  p99 {:>9}  max {:>9}",
        row.workload,
        row.op,
        row.system,
        fmt_us(row.p50_us),
        fmt_us(row.p90_us),
        fmt_us(row.p99_us),
        fmt_us(row.max_us)
    ));
    report.row(&row);
}

fn main() {
    let scale = Scale::from(EnvConfig::get().scale);
    let sim = SimConfig::default();
    let mut report = Report::new(
        "fig11",
        "latency CDFs of metadata operations in applications",
    );

    for kind in SystemKind::ALL {
        let sut = SystemUnderTest::build(kind, sim);
        let a = run_analytics(sut.svc().as_ref(), None, scale.analytics(false));
        for op in ["mkdir", "dirrename"] {
            if let Some(h) = a.op_latency.get(op) {
                summarize(&mut report, "analytics", kind.label(), op, h);
            }
        }

        let sut = SystemUnderTest::build(kind, sim);
        let b = run_audio(sut.svc().as_ref(), None, scale.audio(false));
        for op in ["objstat", "create"] {
            if let Some(h) = b.op_latency.get(op) {
                summarize(&mut report, "audio", kind.label(), op, h);
            }
        }
    }
    report.finish();
}
