//! Simulated datacenter substrate.
//!
//! The paper evaluates on a 53-server cluster. This crate replaces that
//! hardware with in-process [`SimNode`]s (DESIGN.md §1):
//!
//! * an RPC to a node costs one injected network round trip
//!   ([`SimConfig::rtt_micros`]) — the quantity every lookup-latency figure
//!   in the paper is really measuring (Table 1 counts RTTs);
//! * each request pays an injected service time on its caller's timeline.
//!   A node has one queue model, the modeled single-server backlog behind
//!   the bounded admission queue (`queue_cap`, DESIGN.md §4.14); with the
//!   default `queue_cap = 0` no modeled node saturates, so the single-node
//!   ceilings of Figures 12, 14 and 19b are *not* reproduced (DESIGN.md §1;
//!   the k-server queue that consumes a node's configured server count is
//!   ROADMAP 1(b));
//! * every RPC is counted into the caller's [`mantle_types::OpStats`] so
//!   harnesses can report RPCs per operation.
//!
//! Durability (fsync) and storage-device delays are provided as free
//! functions used by the Raft log and the data service.

pub mod faults;
pub mod node;
pub mod retry;

pub use faults::{splitmix64, FaultEvent, FaultKind, FaultPlan, FaultProfile, FaultSlot, RpcFault};
pub use node::{NodeSnapshot, SimNode};
pub use retry::{
    classify_failover, classify_rename, classify_txn, deliver_batched, deliver_named, Pacing,
    RetryPolicy,
};

use std::time::Duration;

use mantle_types::clock::{self, TimeCategory};
use mantle_types::SimConfig;

/// Advances simulated time by `d` (categorized as
/// [`TimeCategory::Other`]), skipping the charge entirely for zero
/// durations (the unit-test configuration). Costs no wall time.
#[inline]
pub fn inject_delay(d: Duration) {
    if !d.is_zero() {
        clock::sleep(d);
    }
}

/// Injects one network round trip. Like the other categorized charges
/// below, a zero duration is still *counted* in the per-thread ledger (an
/// RPC with a zero RTT is still an RPC) but advances no time.
#[inline]
pub fn net_round_trip(config: &SimConfig) {
    clock::sleep_as(TimeCategory::Rtt, config.rtt());
}

/// Injects one log/WAL fsync.
#[inline]
pub fn fsync(config: &SimConfig) {
    clock::sleep_as(TimeCategory::Fsync, config.fsync());
}

/// Injects one storage-device (SSD) access.
#[inline]
pub fn device_access(config: &SimConfig) {
    clock::sleep_as(TimeCategory::Device, config.device());
}

/// Injects one unit of per-request CPU service time on a node.
#[inline]
pub fn service_time(config: &SimConfig) {
    clock::sleep_as(TimeCategory::Service, config.service());
}
