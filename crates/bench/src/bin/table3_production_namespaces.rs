//! Table 3: characteristics of the five Cluster-C production namespaces,
//! plus a peak-throughput probe (lookup and mkdir) against each populated
//! namespace.
//!
//! Paper values for reference: 0.075–3.2 B objects, 9–194 M directories,
//! 28–62 % small objects, peak lookup 175–400 Kop/s, peak mkdir 9–24 Kop/s.

use serde::Serialize;

use mantle_bench::report::fmt_ops;
use mantle_bench::runner::measure;
use mantle_bench::{Report, Scale, SystemUnderTest};
use mantle_core::MantleConfig;
use mantle_types::{EnvConfig, SimConfig};
use mantle_workloads::{ConflictMode, MdOp, NamespaceHandle, NamespaceSpec};

#[derive(Serialize)]
struct Row {
    namespace: &'static str,
    objects: usize,
    dirs: usize,
    small_object_fraction: f64,
    peak_lookup_ops: f64,
    peak_mkdir_ops: f64,
}

fn main() {
    let scale = Scale::from(EnvConfig::get().scale);
    let sim = SimConfig::default();
    let mut report = Report::new(
        "table3",
        "Cluster-C namespaces: shape + peak throughput probes",
    );
    report.line(format!(
        "{:<4} {:>9} {:>8} {:>8} {:>12} {:>12}",
        "ns", "objects", "dirs", "small%", "peak lookup", "peak mkdir"
    ));
    for spec in NamespaceSpec::table3(scale.namespace_entries as f64 / 20_000.0) {
        let sut = SystemUnderTest::mantle(MantleConfig {
            sim,
            ..MantleConfig::default()
        });
        let ns = NamespaceHandle::populate(sut.svc().as_ref(), spec.clone());
        let stats = ns.stats();
        let lookup = measure(&sut, MdOp::Lookup, ConflictMode::Exclusive, scale);
        let mkdir = measure(&sut, MdOp::Mkdir, ConflictMode::Exclusive, scale);
        let row = Row {
            namespace: spec.name,
            objects: stats.objects,
            dirs: stats.dirs,
            small_object_fraction: stats.small_object_fraction,
            peak_lookup_ops: lookup.throughput,
            peak_mkdir_ops: mkdir.throughput,
        };
        report.line(format!(
            "{:<4} {:>9} {:>8} {:>7.1}% {:>12} {:>12}",
            row.namespace,
            row.objects,
            row.dirs,
            row.small_object_fraction * 100.0,
            fmt_ops(row.peak_lookup_ops),
            fmt_ops(row.peak_mkdir_ops)
        ));
        report.row(&row);
    }
    report.finish();
}
