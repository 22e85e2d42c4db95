//! Figure-harness smoke test: a tiny mdtest through the same
//! `measure` path the figure binaries use must complete every
//! operation (`OpRow.failed == 0`), leave a non-empty metrics snapshot
//! behind, and that snapshot must serialize to valid JSON — the
//! `MANTLE_METRICS=1` persistence path depends on it.

use mantle_bench::runner::measure;
use mantle_bench::systems::{SystemKind, SystemUnderTest};
use mantle_bench::Scale;
use mantle_types::SimConfig;
use mantle_workloads::mdtest::{ConflictMode, MdOp, MdtestConfig};

#[test]
fn tiny_mdtest_has_zero_failed_ops_and_populates_metrics() {
    let ops = [
        MdOp::Mkdir,
        MdOp::Create,
        MdOp::ObjStat,
        MdOp::DirStat,
        MdOp::Lookup,
        MdOp::Delete,
        MdOp::Rmdir,
        MdOp::DirRename,
    ];
    for kind in [SystemKind::Mantle, SystemKind::InfiniFs] {
        for op in ops {
            // mdtest assumes a fresh namespace per run: names collide
            // across op types otherwise, exactly like the paper's
            // per-run re-setup.
            let sut = SystemUnderTest::build(kind, SimConfig::instant());
            let tiny = Scale {
                threads: 2,
                ops_per_thread: 8,
                depth: 4,
                ..Scale::smoke()
            };
            let row = measure(&sut, op, ConflictMode::Exclusive, tiny);
            assert_eq!(row.failed, 0, "{} {op:?} had failed ops", sut.label());
            assert!(row.throughput > 0.0, "{} {op:?}", sut.label());
        }
    }

    let snap = mantle_obs::snapshot();
    assert!(snap.counter_total("simnode_rpcs_total") > 0);
    assert!(snap.counter_total("tafdb_txns_committed_total") > 0);
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    let value: serde_json::Value = serde_json::from_str(&json).expect("snapshot JSON parses");
    assert!(value.get("counters").is_some());
    assert!(value.get("histograms").is_some());
}

// `MdtestConfig` is what the figure binaries feed `mdtest::run` directly
// (bypassing `measure`); keep its construction covered here too so a
// field rename breaks loudly in tests rather than in a figure binary.
#[test]
fn mdtest_config_matches_harness_expectations() {
    let config = MdtestConfig {
        threads: 2,
        ops_per_thread: 4,
        depth: 3,
        op: MdOp::Create,
        conflict: ConflictMode::Exclusive,
        working_set: 8,
        seed: 1,
        hotspot: None,
        open_loop: None,
    };
    assert_eq!(config.threads * config.ops_per_thread, 8);
}
