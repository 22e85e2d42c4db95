//! Figure 18: impact of the truncation distance `k` in TopDirPathCache.
//!
//! Follower reads are disabled (as in the paper); an ns4-shaped namespace
//! is populated and looked up with each `k` in 1..=5. Larger `k` trades a
//! slower lookup (more IndexTable levels per request) for a much smaller
//! cache (fewer distinct prefixes). The paper picks k = 3: ~12 % of the
//! k = 1 memory at a modest latency penalty.

use std::collections::HashSet;

use serde::Serialize;

use mantle_bench::report::fmt_us;
use mantle_bench::{Report, Scale, SystemUnderTest};
use mantle_core::{MantleConfig, MetadataService};
use mantle_types::{EnvConfig, SimConfig};
use mantle_workloads::driver::drive;
use mantle_workloads::{NamespaceHandle, NamespaceSpec};

#[derive(Serialize)]
struct Row {
    k: usize,
    mean_us: f64,
    p99_us: f64,
    cache_entries: usize,
    cache_bytes: usize,
    distinct_prefixes: usize,
    bytes_vs_k1: f64,
    latency_vs_k1: f64,
}

fn main() {
    let scale = Scale::from(EnvConfig::get().scale);
    // CPU-faithful envelope: the paper's IndexNode spends ~100 µs of CPU on
    // a full 10-level resolution (500 K lookups/s on 64 cores, §7.2). The
    // default substrate under-charges per-level CPU (2 µs) to keep
    // latency-oriented figures clean; this figure measures exactly that
    // CPU trade-off, so it restores the faithful per-level cost.
    let sim = SimConfig {
        index_level_micros: 50,
        ..SimConfig::default()
    };
    let mut report = Report::new(
        "fig18",
        "impact of k in TopDirPathCache (ns4-shaped namespace)",
    );

    let mut spec = NamespaceSpec::figure3(scale.namespace_entries as f64 / 20_000.0)
        .into_iter()
        .find(|s| s.name == "ns4")
        .expect("ns4 preset");
    spec.entries = spec.entries.min(scale.namespace_entries);

    let mut k1 = (0.0f64, 0.0f64); // (latency, bytes)
    for k in 1..=5usize {
        let mut config = MantleConfig {
            sim,
            ..MantleConfig::default()
        };
        config.index.follower_reads = false;
        config.index.k = k;
        let sut = SystemUnderTest::mantle(config);
        let ns = NamespaceHandle::populate(sut.svc().as_ref(), spec.clone());
        let parents: Vec<_> = ns
            .objects
            .iter()
            .step_by(7)
            .map(|o| o.parent().expect("objects are non-root"))
            .collect();
        let distinct: HashSet<_> = parents.iter().filter_map(|p| p.truncate_leaf(k)).collect();

        // Warm + measure lookups: lookup `i` of the round runs on client
        // `i mod threads`.
        let svc = sut.svc();
        let total = scale.threads * scale.ops_per_thread;
        let hist = drive(svc.name(), scale.threads, None, |client| {
            for i in client.share_of(total) {
                let p = &parents[i % parents.len()];
                client.op("lookup", p.depth(), |ctx| svc.lookup(p, ctx));
            }
        })
        .take("lookup")
        .latency;
        let cache = sut
            .mantle_cluster()
            .expect("mantle SUT")
            .index()
            .cache_stats();
        let leader_cache = &cache[0];
        if k == 1 {
            k1 = (hist.mean() / 1e3, leader_cache.bytes.max(1) as f64);
        }
        let row = Row {
            k,
            mean_us: hist.mean() / 1e3,
            p99_us: hist.quantile(0.99) as f64 / 1e3,
            cache_entries: leader_cache.entries,
            cache_bytes: leader_cache.bytes,
            distinct_prefixes: distinct.len(),
            bytes_vs_k1: leader_cache.bytes as f64 / k1.1,
            latency_vs_k1: (hist.mean() / 1e3) / k1.0.max(1e-9),
        };
        report.line(format!(
            "k={}  mean {:>9}  p99 {:>9}  cache {:>6} entries / {:>8} B  ({:.0}% of k=1 memory, {:.2}x k=1 latency)",
            row.k,
            fmt_us(row.mean_us),
            fmt_us(row.p99_us),
            row.cache_entries,
            row.cache_bytes,
            row.bytes_vs_k1 * 100.0,
            row.latency_vs_k1
        ));
        report.row(&row);
    }
    report.finish();
}
