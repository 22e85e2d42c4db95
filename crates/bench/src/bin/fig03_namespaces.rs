//! Figure 3: characteristics of five real-world namespaces.
//!
//! Regenerates synthetic ns1–ns5 shaped to the published statistics and
//! reports the measured entry counts, object/directory split, and the
//! access-depth distribution (mean + CDF milestones).

use serde::Serialize;

use mantle_bench::{Report, Scale, SystemKind, SystemUnderTest};
use mantle_types::{EnvConfig, SimConfig};
use mantle_workloads::{NamespaceHandle, NamespaceSpec};

#[derive(Serialize)]
struct Row {
    namespace: &'static str,
    paper_entries_billions: f64,
    entries: usize,
    objects: usize,
    dirs: usize,
    object_fraction: f64,
    paper_mean_depth: f64,
    mean_depth: f64,
    max_depth: usize,
    p50_depth: usize,
    p90_depth: usize,
}

fn main() {
    let scale = Scale::from(EnvConfig::get().scale);
    let mut report = Report::new("fig03", "characteristics of five real-world namespaces");
    report.line(format!(
        "{:<5} {:>12} {:>9} {:>8} {:>7} {:>8} {:>11} {:>10} {:>9} {:>9}",
        "ns",
        "paper(B)",
        "entries",
        "objects",
        "dirs",
        "obj%",
        "paper depth",
        "mean depth",
        "p50",
        "p90"
    ));
    let spec_scale = scale.namespace_entries as f64 / 20_000.0;
    for spec in NamespaceSpec::figure3(spec_scale) {
        // Population exercises the real metadata layout; the instant config
        // keeps it fast (shape, not timing, is measured here).
        let sut = SystemUnderTest::build(SystemKind::Mantle, SimConfig::instant());
        let paper_mean = spec.mean_depth;
        let paper_entries = spec.paper_entries;
        let ns = NamespaceHandle::populate(sut.svc().as_ref(), spec.clone());
        let stats = ns.stats();
        let cum: Vec<usize> = stats
            .depth_histogram
            .iter()
            .scan(0, |acc, c| {
                *acc += c;
                Some(*acc)
            })
            .collect();
        let quantile = |q: f64| {
            let target = (q * stats.objects as f64) as usize;
            cum.iter().position(|&c| c >= target).unwrap_or(0)
        };
        let row = Row {
            namespace: spec.name,
            paper_entries_billions: paper_entries / 1e9,
            entries: stats.entries,
            objects: stats.objects,
            dirs: stats.dirs,
            object_fraction: stats.objects as f64 / stats.entries as f64,
            paper_mean_depth: paper_mean,
            mean_depth: stats.mean_object_depth,
            max_depth: stats.max_object_depth,
            p50_depth: quantile(0.5),
            p90_depth: quantile(0.9),
        };
        report.line(format!(
            "{:<5} {:>12.1} {:>9} {:>8} {:>7} {:>7.1}% {:>11.1} {:>10.1} {:>9} {:>9}",
            row.namespace,
            row.paper_entries_billions,
            row.entries,
            row.objects,
            row.dirs,
            row.object_fraction * 100.0,
            row.paper_mean_depth,
            row.mean_depth,
            row.p50_depth,
            row.p90_depth
        ));
        report.row(&row);
    }
    report.finish();
}
