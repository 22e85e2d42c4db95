//! Critical-path attribution: where an operation's time actually went.
//!
//! Every advance of the simulated timeline passes through
//! [`mantle_types::clock::sleep_as`], which charges a
//! [`mantle_types::clock::TimeCategory`] in the per-thread ledger. Every
//! span of a trace carries the ledger *delta* across its lifetime (a
//! [`TimeStats`]), so the per-category nanoseconds of a region sum
//! **exactly** to its end-to-end latency. [`per_node`] folds a finished
//! [`Trace`] into *exclusive* per-node ledgers (each span's delta minus its
//! children's), which is what the placement controller consumes per shard.

use mantle_types::clock::TimeStats;

use crate::trace::Trace;

/// Folds a finished trace into *exclusive* per-node attributions: each
/// span's ledger delta minus its direct children's, grouped by serving
/// node and sorted by node name. Client-local work (spans with an empty
/// node, including the root) appears under `"client"`.
pub fn per_node(trace: &Trace) -> Vec<(String, TimeStats)> {
    let spans = &trace.spans;
    // Sum of children's (inclusive) attributions per parent.
    let mut child_sums = vec![TimeStats::default(); spans.len()];
    for span in spans.iter() {
        if let Some(p) = span.parent {
            child_sums[p as usize].add(&span.phases);
        }
    }
    let mut by_node: std::collections::BTreeMap<String, TimeStats> =
        std::collections::BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let exclusive = span.phases.saturating_sub(&child_sums[i]);
        if exclusive.is_empty() {
            continue;
        }
        let node = if span.node.is_empty() {
            "client".to_string()
        } else {
            span.node.clone()
        };
        by_node.entry(node).or_default().add(&exclusive);
    }
    by_node.into_iter().collect()
}
