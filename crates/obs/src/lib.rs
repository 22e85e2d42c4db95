//! # mantle-obs — cluster-wide observability
//!
//! Two halves, wired through every subsystem in the workspace:
//!
//! * [`metrics`] — a sharded registry of named counters, gauges and
//!   histograms with Prometheus-style labels (`node="tafdb3"`), snapshot
//!   export as Prometheus text or JSON. Subsystems grab handles once at
//!   construction; the hot path is one atomic op.
//! * [`trace`] — RPC-chain tracing. A thread-local span stack follows a
//!   request across SimNode RPC hops; finished traces
//!   land in a bounded ring buffer and render as a tree whose RPC count can
//!   be checked against the paper's Table 1 RTT analysis.
//!
//! On top of those sit the v2 pieces:
//!
//! * [`critpath`] — critical-path attribution: folds the per-thread
//!   [`TimeCategory`](mantle_types::clock::TimeCategory) ledger into
//!   per-phase breakdowns whose totals equal end-to-end virtual latency
//!   exactly, per trace and per node.
//! * [`flight`] — the always-on flight recorder: ops slower than a
//!   per-op-type adaptive threshold (trailing p99 × k) are force-captured
//!   into a bounded slow-op ring with their full trace, shard set and
//!   fault/retry annotations.
//! * [`http`] — a dependency-free scrape endpoint (`/metrics`, `/slow`,
//!   `/traces/recent`, `/attribution`) gated by `MANTLE_OBS_ADDR`.
//!
//! See DESIGN.md §Observability for the metric taxonomy and trace format.

#![warn(missing_docs)]

pub mod critpath;
pub mod flight;
pub mod http;
pub mod metrics;
pub mod trace;

pub use flight::{FlightConfig, FlightRecorder, SlowOp};
pub use metrics::{
    counter, gauge, histogram, snapshot, Counter, Gauge, HistogramMetric, MetricsSnapshot, Registry,
};
pub use trace::{
    rpc_span, set_sample_rate, span, start, start_forced, take_recent, Span, SpanKind, SpanScope,
    Trace, TraceGuard,
};
