//! Quickstart: build a Mantle deployment, create a small hierarchy, and
//! watch where the time goes.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mantle::prelude::*;

fn main() -> Result<()> {
    // A full deployment: 3-replica IndexNode + 8-shard TafDB + data nodes,
    // with realistic simulated datacenter timings (200 µs RPC round trips,
    // 100 µs fsyncs).
    let cluster = MantleCluster::build(SimConfig::default(), 8);
    let svc = cluster.service();
    let mut stats = RequestCtx::new();

    // Build a small hierarchy.
    svc.mkdir(&MetaPath::parse("/datasets")?, &mut stats)?;
    svc.mkdir(&MetaPath::parse("/datasets/train")?, &mut stats)?;
    svc.mkdir(&MetaPath::parse("/datasets/train/batch0")?, &mut stats)?;
    for i in 0..5 {
        svc.create(
            &MetaPath::parse(&format!("/datasets/train/batch0/sample{i}.bin"))?,
            4096 * (i + 1),
            &mut stats,
        )?;
    }

    // Single-RPC path lookup, no matter the depth.
    let mut lookup_stats = RequestCtx::new();
    let resolved = svc.lookup(
        &MetaPath::parse("/datasets/train/batch0")?,
        &mut lookup_stats,
    )?;
    println!(
        "lookup(/datasets/train/batch0) -> id {} in {} RPC ({:?})",
        resolved.id,
        lookup_stats.rpcs,
        lookup_stats.total()
    );

    // Directory stats merge any outstanding delta records.
    let st = svc.dirstat(&MetaPath::parse("/datasets/train/batch0")?, &mut stats)?;
    println!(
        "dirstat: {} entries, nlink {}",
        st.attrs.entries, st.attrs.nlink
    );

    // Atomic cross-directory rename with loop detection on the IndexNode.
    svc.mkdir(&MetaPath::parse("/archive")?, &mut stats)?;
    svc.rename_dir(
        &MetaPath::parse("/datasets/train/batch0")?,
        &MetaPath::parse("/archive/batch0")?,
        &mut stats,
    )?;
    let meta = svc.objstat(&MetaPath::parse("/archive/batch0/sample0.bin")?, &mut stats)?;
    println!(
        "after rename: /archive/batch0/sample0.bin is {} bytes",
        meta.size
    );

    // Renames that would create a loop are rejected.
    let loop_err = svc.rename_dir(
        &MetaPath::parse("/archive")?,
        &MetaPath::parse("/archive/batch0/inside")?,
        &mut stats,
    );
    println!("loop rename rejected: {}", loop_err.unwrap_err());

    println!(
        "total: {} RPCs, {} txn retries across the session",
        stats.rpcs,
        stats.retry_count(RetryClass::Txn)
    );
    Ok(())
}
