//! Figure 10: completion time of the two real-world workloads across the
//! four systems, (a) metadata only and (b) with data access enabled.

use serde::Serialize;

use mantle_bench::report::fmt_us;
use mantle_bench::{Report, Scale, SystemKind, SystemUnderTest};
use mantle_core::DataService;
use mantle_types::{EnvConfig, SimConfig};
use mantle_workloads::apps::{run_analytics, run_audio};

#[derive(Serialize)]
struct Row {
    workload: &'static str,
    system: &'static str,
    data_access: bool,
    completion_ms: f64,
    failed: u64,
}

/// The four §6.1 systems plus the transactional DBtable variant (what the
/// paper's production system ran before Mantle, §3.2 — its commit storm is
/// the Analytics motivation).
fn systems(sim: mantle_types::SimConfig) -> Vec<(&'static str, SystemUnderTest)> {
    let mut all: Vec<(&'static str, SystemUnderTest)> = SystemKind::ALL
        .into_iter()
        .map(|kind| (kind.label(), SystemUnderTest::build(kind, sim)))
        .collect();
    all.insert(0, ("dbtable", SystemUnderTest::dbtable(sim)));
    all
}

fn main() {
    let scale = Scale::from(EnvConfig::get().scale);
    let sim = SimConfig::default();
    let mut report = Report::new("fig10", "application completion time (Analytics, Audio)");

    for data_access in [false, true] {
        report.line(format!(
            "-- data access {} --",
            if data_access {
                "enabled (Fig 10b)"
            } else {
                "disabled (Fig 10a)"
            }
        ));
        for (label, sut) in systems(sim) {
            let data = DataService::new(sim, 4);
            let data_ref = data_access.then_some(&data);
            let a = run_analytics(sut.svc().as_ref(), data_ref, scale.analytics(data_access));
            let row = Row {
                workload: "analytics",
                system: label,
                data_access,
                completion_ms: a.completion.as_secs_f64() * 1e3,
                failed: a.failed,
            };
            report.line(format!(
                "{:<10} {:<9} completion {:>10}  (failed {})",
                row.workload,
                row.system,
                fmt_us(row.completion_ms * 1e3),
                row.failed
            ));
            report.row(&row);

            let b = run_audio(sut.svc().as_ref(), data_ref, scale.audio(data_access));
            let row = Row {
                workload: "audio",
                system: label,
                data_access,
                completion_ms: b.completion.as_secs_f64() * 1e3,
                failed: b.failed,
            };
            report.line(format!(
                "{:<10} {:<9} completion {:>10}  (failed {})",
                row.workload,
                row.system,
                fmt_us(row.completion_ms * 1e3),
                row.failed
            ));
            report.row(&row);
        }
    }
    report.finish();
}
