//! # mantle-obs — cluster-wide observability
//!
//! Wired through every subsystem in the workspace:
//!
//! * [`metrics`] — a sharded registry of named counters, gauges and
//!   histograms with Prometheus-style labels (`node="tafdb3"`), snapshot
//!   export as Prometheus text or JSON. Subsystems grab handles once at
//!   construction; the hot path is one atomic op.
//! * [`trace`] — the op in flight: one thread-local slot holding a span
//!   tree that follows a request across SimNode RPC hops, each span
//!   carrying its [`TimeCategory`](mantle_types::clock::TimeCategory)
//!   ledger delta (so per-phase and per-node breakdowns total to the
//!   end-to-end virtual latency exactly), and the one commit that routes a
//!   finished op — to the bounded sampled ring, to a flight recorder, or
//!   both.
//! * [`flight`] — the always-on flight recorder a finished op is handed
//!   to: ops slower than a per-op-type adaptive threshold (trailing p99 ×
//!   k) keep their full trace, shard set and fault/retry annotations in a
//!   bounded slow-op ring.
//! * [`http`] — a dependency-free scrape endpoint (`/metrics`, `/slow`,
//!   `/traces/recent`, `/attribution`) gated by `MANTLE_OBS_ADDR`.
//!
//! See DESIGN.md §Observability for the metric taxonomy and trace format.

#![warn(missing_docs)]

pub mod flight;
pub mod http;
pub mod metrics;
mod ring;
pub mod trace;

pub use flight::{FlightRecorder, SlowOp};
pub use metrics::{
    counter, gauge, histogram, snapshot, Counter, Gauge, HistogramMetric, MetricsSnapshot, Registry,
};
pub use trace::{
    rpc_span, set_sample_rate, span, start, start_forced, take_recent, Span, SpanKind, SpanScope,
    Trace, TraceGuard,
};
