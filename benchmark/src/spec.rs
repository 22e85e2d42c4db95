//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` is this file rendered
//! (`mantle-benchmark manifest`), and a run refuses to report a metric
//! that is not listed here.

/// `(name, why)`.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "read_deep",
        "headline read path over 65,536 depth-9 dirs: one IndexNode resolve RPC (follower ReadIndex) plus one TafDB point read; no txn, WAL or propose; path cache off",
    ),
    (
        "read_leased",
        "same reads, Zipf(0.99) over 4x the path-lease cache: hits bypass IndexNode, so cache-protocol and per-op overhead changes show here and index gains do not",
    ),
    (
        "obj_churn",
        "create/objstat/delete in exclusive ~1k-entry dirs: single-shard TafDB txns, row locks, WAL group commit, engine put/delete, compactor; Raft propose never called",
    ),
    (
        "dir_mutate",
        "one client: mkdir, lookup, cross-parent rename, dirstat, rmdir; Raft propose, rename coordination, cross-shard 2PC and reads right after writes (follower catch-up)",
    ),
    (
        "mixed_objects",
        "reads, list/readdir scans, creates and deletes share shards, engine latches and hot-directory attribute rows, so a gain for one use that costs another shows",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Reported for every workload by a `--trace 0` run.
///
/// Every metric here repeats from run to run to within a third of its
/// bound on the 2-core sandbox (README, "Spread"; `peak_rss_mb` has
/// levels on two workloads and its bound is set by them). The three
/// real-time readings of a workload — `ops_per_s`, `p50_us`,
/// `cpu_us_per_op` — do not (7–21 % between runs of the same code), so
/// they carry no bound and are listed with the per-layer metrics below.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("allocs_per_op", "count", Better::Lower, 0.02),
    e2e("alloc_bytes_per_op", "bytes", Better::Lower, 0.02),
    e2e("modeled_mean_us", "us", Better::Lower, 0.02),
    e2e("rpcs_per_op", "count", Better::Lower, 0.01),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// The real-time readings of a whole workload. An untraced run prints
/// them too (from all its passes); only a traced run reports them to the
/// contract, from its untraced passes.
pub const REAL_TIME: [&str; 3] = ["ops_per_s", "p50_us", "cpu_us_per_op"];

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// Reported by a `--trace 1` run: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, Better); 102] = [
    // types
    ("types.path_parse_d10_ns", "ns", L),
    ("types.path_child_ns", "ns", L),
    ("types.ctx_new_end_agg_ns", "ns", L),
    ("trace.types_self_us", "us", L),
    // obs
    ("obs.counter_inc_ns", "ns", L),
    ("obs.hist_record_ns", "ns", L),
    ("obs.flight_op_scope_ns", "ns", L),
    ("obs.trace_start_unsampled_ns", "ns", L),
    // sync
    ("sync.prefix_tree_contains_d6_ns", "ns", L),
    ("sync.prefix_tree_insert_remove_ns", "ns", L),
    ("sync.removal_list_conflicts_empty_ns", "ns", L),
    // rpc
    ("rpc.simnode_rpc_noop_ns", "ns", L),
    ("rpc.retry_run_ok_ns", "ns", L),
    ("rpc.index_rpcs_per_op", "count", L),
    ("rpc.tafdb_rpcs_per_op", "count", L),
    ("rpc.index_leader_busy_frac", "fraction", L),
    // raft
    ("raft.propose_3v_us", "us", L),
    ("raft.propose_1v_us", "us", L),
    ("raft.read_index_leader_ns", "ns", L),
    ("raft.read_index_follower_idle_us", "us", L),
    ("raft.follower_read_after_write_us", "us", L),
    ("raft.appends_per_op", "count", L),
    ("raft.wal_fsyncs_per_op", "count", L),
    // index
    ("index.table_get_ns", "ns", L),
    ("index.topdir_get_ns", "ns", L),
    ("index.sm_resolve_d1_ns", "ns", L),
    ("index.sm_resolve_d10_ns", "ns", L),
    ("index.sm_resolve_d20_ns", "ns", L),
    ("index.sm_resolve_d10_nocache_ns", "ns", L),
    ("index.node_lookup_leader_ns", "ns", L),
    ("index.node_lookup_follower_ns", "ns", L),
    ("index.node_insert_dir_us", "us", L),
    ("trace.index_us", "us", L),
    ("trace.index_propose_us", "us", L),
    ("index.topdir_hit_rate", "fraction", H),
    ("index.follower_read_frac", "fraction", H),
    // core
    ("core.pathcache_probe_hit_ns", "ns", L),
    ("core.pathcache_fill_evict_ns", "ns", L),
    ("core.pathcache_invalidate_subtree_us", "us", L),
    ("core.op.objstat_us", "us", L),
    ("core.op.lookup_us", "us", L),
    ("core.op.dirstat_us", "us", L),
    ("core.op.create_us", "us", L),
    ("core.op.delete_us", "us", L),
    ("core.op.mkdir_us", "us", L),
    ("core.op.rmdir_us", "us", L),
    ("core.op.rename_dir_us", "us", L),
    ("core.op.list100_us", "us", L),
    ("core.op.readdir1k_us", "us", L),
    ("core.op.objstat_allocs", "count", L),
    ("core.op.lookup_allocs", "count", L),
    ("core.op.dirstat_allocs", "count", L),
    ("core.op.create_allocs", "count", L),
    ("core.op.delete_allocs", "count", L),
    ("core.op.mkdir_allocs", "count", L),
    ("core.op.rmdir_allocs", "count", L),
    ("core.op.rename_dir_allocs", "count", L),
    ("core.op.list100_allocs", "count", L),
    ("core.op.readdir1k_allocs", "count", L),
    ("trace.core_self_us", "us", L),
    ("core.pathcache_hit_rate", "fraction", H),
    ("core.pathcache_evictions_per_kop", "count", L),
    ("core.pathcache_revalidations_per_kop", "count", L),
    // tafdb
    ("tafdb.get_object_ns", "ns", L),
    ("tafdb.get_entry_ns", "ns", L),
    ("tafdb.dir_stat_ns", "ns", L),
    ("tafdb.readdir_page100_us", "us", L),
    ("tafdb.txn_1shard_us", "us", L),
    ("tafdb.txn_2pc_us", "us", L),
    ("tafdb.compact_once_us", "us", L),
    ("trace.tafdb_read_us", "us", L),
    ("trace.tafdb_txn_us", "us", L),
    ("tafdb.txn_aborts_per_kop", "count", L),
    ("tafdb.delta_appends_per_op", "count", L),
    ("tafdb.compactions_per_s", "1/s", L),
    // store
    ("store.lock_try_unlock_ns", "ns", L),
    ("store.wal_append_ns", "ns", L),
    ("store.wal_fsyncs_per_op", "count", L),
    ("store.wal_appends_per_fsync", "count", H),
    // engine
    ("engine.btree.get_ns", "ns", L),
    ("engine.btree.put_ns", "ns", L),
    ("engine.btree.scan100_ns", "ns", L),
    ("engine.mvcc.get_ns", "ns", L),
    ("engine.mvcc.put_ns", "ns", L),
    ("engine.mvcc.scan100_ns", "ns", L),
    ("engine.lock_wait_ns_per_op", "ns", L),
    ("engine.lock_waits_per_kop", "count", L),
    // baselines
    ("baselines.tectonic.objstat_us", "us", L),
    ("baselines.tectonic.mkdir_us", "us", L),
    ("baselines.infinifs.objstat_us", "us", L),
    ("baselines.infinifs.mkdir_us", "us", L),
    ("baselines.locofs.objstat_us", "us", L),
    ("baselines.locofs.mkdir_us", "us", L),
    // client: the workload as a whole
    ("ops_per_s", "1/s", H),
    ("p50_us", "us", L),
    ("cpu_us_per_op", "us", L),
    ("client.real_p99_us", "us", L),
    ("client.real_p999_us", "us", L),
    ("client.bg_cpu_frac", "fraction", L),
    ("client.bg_allocs_per_s", "1/s", L),
    ("trace.coverage_frac", "fraction", H),
    ("trace.overhead_frac", "fraction", L),
];

/// What a run measures for when it is not told.
pub const RUN_SECONDS: u64 = 16;
pub const DEFAULT_SEED: u64 = 1;

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}\n",
            better.label()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_manifest_is_inside_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| name_ok(n)), "a name breaks the rules");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.1)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n') && !w.1.contains('"')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(manifest().len() < 64 * 1024);
        assert_eq!(
            WORKLOADS.map(|w| w.0),
            crate::workloads::NAMES,
            "spec and workloads disagree"
        );
    }

    #[test]
    fn benchmark_json_is_the_rendered_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with `run.sh manifest`");
    }
}
