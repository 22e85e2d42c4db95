//! Critical-path attribution: where an operation's time actually went.
//!
//! Every advance of the simulated timeline passes through
//! [`mantle_types::clock::sleep_as`], which charges a [`TimeCategory`] in
//! the per-thread ledger. A [`PhaseAttribution`] is the
//! ledger *delta* across a region of interest — an operation, a trace, a
//! single span — so the per-phase nanoseconds sum
//! **exactly** to the region's end-to-end latency (the property the
//! acceptance tests pin to within 1%).
//!
//! Two entry points:
//! * [`PhaseAttribution::from_delta`] — fold two ledger snapshots.
//! * [`per_node`] — fold a finished [`Trace`] into *exclusive* per-node
//!   attributions (each span's delta minus its children's), which is what
//!   the placement controller consumes per shard.

use mantle_types::clock::{TimeCategory, TimeStats};
use serde::{Serialize, Value};

use crate::trace::Trace;

/// Number of attribution phases (one per [`TimeCategory`]).
pub const N_PHASES: usize = TimeCategory::ALL.len();

/// Per-phase `(count, nanos)` breakdown of a region of simulated time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseAttribution {
    counts: [u64; N_PHASES],
    nanos: [u64; N_PHASES],
}

impl PhaseAttribution {
    /// The ledger growth between two snapshots of one thread's
    /// [`TimeStats`] (`before` taken at region entry, `after` at exit).
    pub fn from_delta(before: &TimeStats, after: &TimeStats) -> Self {
        let d = after.delta_since(before);
        let mut out = PhaseAttribution::default();
        for (i, cat) in TimeCategory::ALL.iter().enumerate() {
            out.counts[i] = d.count(*cat);
            out.nanos[i] = d.nanos(*cat);
        }
        out
    }

    /// Charges recorded under `cat`.
    pub fn count(&self, cat: TimeCategory) -> u64 {
        self.counts[TimeCategory::ALL.iter().position(|c| *c == cat).unwrap()]
    }

    /// Nanoseconds attributed to `cat`.
    pub fn nanos(&self, cat: TimeCategory) -> u64 {
        self.nanos[TimeCategory::ALL.iter().position(|c| *c == cat).unwrap()]
    }

    /// Total nanoseconds across all phases. Under the virtual clock this
    /// equals the region's end-to-end latency exactly.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// True when nothing was charged.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|c| *c == 0) && self.nanos.iter().all(|n| *n == 0)
    }

    /// Folds another attribution in (aggregation across ops / windows).
    pub fn add(&mut self, other: &PhaseAttribution) {
        for i in 0..N_PHASES {
            self.counts[i] += other.counts[i];
            self.nanos[i] += other.nanos[i];
        }
    }

    /// `self - other`, clamped at zero per phase (used to subtract child
    /// spans from a parent for exclusive attribution).
    pub fn saturating_sub(&self, other: &PhaseAttribution) -> PhaseAttribution {
        let mut out = *self;
        for i in 0..N_PHASES {
            out.counts[i] = out.counts[i].saturating_sub(other.counts[i]);
            out.nanos[i] = out.nanos[i].saturating_sub(other.nanos[i]);
        }
        out
    }

    /// Phases sorted by time spent, descending, zero phases omitted.
    pub fn ranked(&self) -> Vec<(TimeCategory, u64)> {
        let mut v: Vec<(TimeCategory, u64)> = TimeCategory::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| self.nanos[*i] > 0)
            .map(|(i, c)| (*c, self.nanos[i]))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.label().cmp(b.0.label())));
        v
    }

    /// Human summary: `"62% fsync, 21% queue, 17% rtt"` (phases under 1%
    /// folded into a trailing `…`). Empty attribution renders as `"idle"`.
    pub fn render(&self) -> String {
        let total = self.total_nanos();
        if total == 0 {
            return "idle".to_string();
        }
        let mut parts = Vec::new();
        let mut folded = 0u64;
        for (cat, nanos) in self.ranked() {
            let pct = nanos as f64 * 100.0 / total as f64;
            if pct >= 1.0 {
                parts.push(format!("{:.0}% {}", pct, cat.label()));
            } else {
                folded += nanos;
            }
        }
        if folded > 0 {
            parts.push("…".to_string());
        }
        parts.join(", ")
    }

    /// Canonical machine form, `phase=nanos/count` pairs in ledger order
    /// with zero phases omitted — byte-stable across identical seeded runs
    /// (the determinism tests compare these strings).
    pub fn canonical(&self) -> String {
        let mut parts = Vec::new();
        for (i, cat) in TimeCategory::ALL.iter().enumerate() {
            if self.counts[i] > 0 || self.nanos[i] > 0 {
                parts.push(format!(
                    "{}={}/{}",
                    cat.label(),
                    self.nanos[i],
                    self.counts[i]
                ));
            }
        }
        parts.join(" ")
    }
}

impl Serialize for PhaseAttribution {
    /// Serializes as a map `label → {nanos, count}`, zero phases omitted.
    fn to_json(&self) -> Value {
        let mut pairs = Vec::new();
        for (i, cat) in TimeCategory::ALL.iter().enumerate() {
            if self.counts[i] > 0 || self.nanos[i] > 0 {
                pairs.push((
                    cat.label().to_string(),
                    Value::Object(vec![
                        ("nanos".to_string(), Value::U64(self.nanos[i])),
                        ("count".to_string(), Value::U64(self.counts[i])),
                    ]),
                ));
            }
        }
        Value::Object(pairs)
    }
}

/// Folds a finished trace into *exclusive* per-node attributions: each
/// span's ledger delta minus its direct children's, grouped by serving
/// node and sorted by node name. Client-local work (spans with an empty
/// node, including the root) appears under `"client"`.
pub fn per_node(trace: &Trace) -> Vec<(String, PhaseAttribution)> {
    let spans = &trace.spans;
    // Sum of children's (inclusive) attributions per parent.
    let mut child_sums = vec![PhaseAttribution::default(); spans.len()];
    for span in spans.iter() {
        if let Some(p) = span.parent {
            child_sums[p as usize].add(&span.phases);
        }
    }
    let mut by_node: std::collections::BTreeMap<String, PhaseAttribution> =
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

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_types::clock::{self};
    use std::time::Duration;

    #[test]
    fn delta_attribution_sums_to_elapsed_virtual_time() {
        let before = clock::thread_time_stats();
        let t0 = clock::now();
        clock::sleep_as(TimeCategory::Rtt, Duration::from_micros(200));
        clock::sleep_as(TimeCategory::Fsync, Duration::from_micros(100));
        clock::sleep_as(TimeCategory::Rtt, Duration::from_micros(200));
        let attr = PhaseAttribution::from_delta(&before, &clock::thread_time_stats());
        assert_eq!(attr.count(TimeCategory::Rtt), 2);
        assert_eq!(attr.nanos(TimeCategory::Rtt), 400_000);
        assert_eq!(attr.nanos(TimeCategory::Fsync), 100_000);
        assert_eq!(attr.total_nanos(), t0.elapsed().as_nanos() as u64);
        assert!(attr.render().contains("80% rtt"), "{}", attr.render());
        assert_eq!(attr.canonical(), "rtt=400000/2 fsync=100000/1");
    }

    #[test]
    fn add_sub_and_ranked() {
        let mut a = PhaseAttribution::default();
        let mut b = PhaseAttribution::default();
        a.counts[0] = 1;
        a.nanos[0] = 100;
        b.counts[0] = 2;
        b.nanos[0] = 50;
        b.counts[1] = 1;
        b.nanos[1] = 500;
        a.add(&b);
        assert_eq!(a.nanos(TimeCategory::Rtt), 150);
        assert_eq!(a.ranked()[0].0, TimeCategory::Fsync);
        let c = a.saturating_sub(&b);
        assert_eq!(c.nanos(TimeCategory::Rtt), 100);
        assert_eq!(c.nanos(TimeCategory::Fsync), 0);
        assert!(PhaseAttribution::default().is_empty());
        assert_eq!(PhaseAttribution::default().render(), "idle");
    }

    #[test]
    fn serializes_as_labelled_map() {
        let mut a = PhaseAttribution::default();
        a.counts[1] = 3;
        a.nanos[1] = 900;
        let v = serde_json::to_value(a).unwrap();
        let fsync = v.get("fsync").expect("fsync present");
        assert_eq!(fsync.get("nanos").and_then(Value::as_u64), Some(900));
        assert_eq!(fsync.get("count").and_then(Value::as_u64), Some(3));
        assert!(v.get("rtt").is_none(), "zero phases omitted");
    }
}
