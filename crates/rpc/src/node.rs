//! Simulated metadata/storage server nodes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mantle_obs::{trace, Counter, HistogramMetric};
use mantle_types::clock::{self, TimeCategory};
use mantle_types::{MetaError, RequestCtx, SimConfig};

use crate::faults::{self, FaultPlan, FaultSlot, RpcFault};

/// Per-node metric handles, created once at [`SimNode::new`] so the hot path
/// is a handful of atomic ops. The counters are this node's only counts:
/// [`SimNode::snapshot`] reads the handles' own cells.
struct NodeMetrics {
    /// `simnode_rpcs_total{node=...}` — remote requests entering this node.
    rpcs: Counter,
    /// `simnode_served_total{node=...}` — requests completed (local + remote).
    served: Counter,
    /// `simnode_permit_wait_nanos{node=...}` — modeled admission-queue
    /// wait, recorded by [`SimNode::admit`] for a request that waited.
    permit_wait: HistogramMetric,
    /// `simnode_shed_total{node=...}` — requests rejected by the bounded
    /// admission queue (`MetaError::Overloaded`).
    shed: Counter,
    /// `simnode_deadline_aborts_total{node=...}` — requests aborted
    /// server-side because their propagated deadline had expired.
    deadline_aborts: Counter,
}

impl NodeMetrics {
    fn new(node: &str) -> Self {
        let labels = [("node", node)];
        NodeMetrics {
            rpcs: mantle_obs::counter("simnode_rpcs_total", &labels),
            served: mantle_obs::counter("simnode_served_total", &labels),
            permit_wait: mantle_obs::histogram("simnode_permit_wait_nanos", &labels),
            shed: mantle_obs::counter("simnode_shed_total", &labels),
            deadline_aborts: mantle_obs::counter("simnode_deadline_aborts_total", &labels),
        }
    }
}

/// One simulated server.
///
/// A node is addressed by in-process method calls;
/// [`SimNode::try_rpc_named`] makes a call look like a remote request
/// (network round trip + admission queue + service time), while
/// [`SimNode::execute`] models node-local work (service time only).
pub struct SimNode {
    name: String,
    config: SimConfig,
    /// Configured server count. Nothing consumes it yet: the one queue
    /// model below is single-server, and ROADMAP item 1(b) generalises it
    /// to this many.
    permits: usize,
    busy_nanos: AtomicU64,
    /// The node's one queue model: the modeled single-server busy-until
    /// time (nanos on the simulation clock) used by bounded admission. Each
    /// admitted request ratchets it forward by one service time, so the
    /// backlog ahead of an arrival is `(next_free - arrival) / service`.
    /// Untouched when `queue_cap == 0`.
    vq_next_free: AtomicU64,
    metrics: NodeMetrics,
    faults: FaultSlot,
}

impl SimNode {
    /// Creates a node modeling `permits` servers (recorded, not yet
    /// enforced: see [`NodeSnapshot::permits`]).
    pub fn new(name: impl Into<String>, permits: usize, config: SimConfig) -> Self {
        let name = name.into();
        let metrics = NodeMetrics::new(&name);
        SimNode {
            name,
            config,
            permits,
            busy_nanos: AtomicU64::new(0),
            vq_next_free: AtomicU64::new(0),
            metrics,
            faults: FaultSlot::new(),
        }
    }

    /// Installs (or, with `None`, clears) this node's fault plan. Costs one
    /// relaxed atomic load per RPC when empty.
    pub fn set_faults(&self, plan: Option<Arc<FaultPlan>>) {
        self.faults.install(plan);
    }

    /// The node's installed fault plan, if any.
    pub fn faults(&self) -> Option<Arc<FaultPlan>> {
        self.faults.get()
    }

    /// The node's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The substrate timing configuration this node was built with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Executes `f` as a *remote* request against this node: one network
    /// round trip, admission control and the service time, with the RPC recorded in `ctx` and as a trace span named `op`.
    ///
    /// The installed [`FaultPlan`] is consulted first (topology *and*
    /// probabilistic faults) and an injected fault surfaces as
    /// [`MetaError::Transient`] **before** `f` executes, so a caller retry
    /// never duplicates work (request-loss semantics). Admission sheds
    /// ([`MetaError::Overloaded`]) and expired deadlines
    /// ([`MetaError::DeadlineExceeded`]) likewise reject before any service
    /// time is charged.
    pub fn try_rpc_named<R>(
        &self,
        ctx: &mut RequestCtx,
        op: &str,
        f: impl FnOnce() -> R,
    ) -> Result<R, MetaError> {
        self.call(ctx, op, true, f)
    }

    /// [`SimNode::try_rpc_named`] for one leg of a batch whose network
    /// round trip the caller pays once for all legs: recorded in `ctx` and
    /// on the trace, but injects no network delay of its own.
    pub fn try_rpc_batched<R>(
        &self,
        ctx: &mut RequestCtx,
        op: &str,
        f: impl FnOnce() -> R,
    ) -> Result<R, MetaError> {
        self.call(ctx, op, false, f)
    }

    /// The one request path behind both public names; `own_round_trip`
    /// selects whether this request injects its own network round trip.
    #[inline]
    fn call<R>(
        &self,
        ctx: &mut RequestCtx,
        op: &str,
        own_round_trip: bool,
        f: impl FnOnce() -> R,
    ) -> Result<R, MetaError> {
        ctx.rpc();
        self.metrics.rpcs.inc();
        let _span = trace::rpc_span(op, &self.name);
        if let Some(fault) = self.decide_fault(op) {
            match fault {
                RpcFault::Deny { kind, wait } => {
                    mantle_obs::flight::annotate_with(|| {
                        format!(
                            "fault:deny kind={} node={} op={op}",
                            kind.label(),
                            self.name
                        )
                    });
                    clock::sleep_as(TimeCategory::Fault, wait);
                    return Err(MetaError::Transient {
                        kind: kind.label().to_string(),
                        at: self.name.clone(),
                    });
                }
                RpcFault::Spike { extra } => {
                    mantle_obs::flight::annotate_with(|| {
                        format!("fault:spike node={} op={op}", self.name)
                    });
                    trace::note_injected_on_current(extra.as_nanos() as u64);
                    clock::sleep_as(TimeCategory::Fault, extra);
                }
            }
        }
        if own_round_trip {
            trace::note_injected_on_current(self.config.rtt().as_nanos() as u64);
            crate::net_round_trip(&self.config);
        }
        self.admit(ctx, op)?;
        Ok(self.execute(f))
    }

    /// Full fault decision (topology + probabilistic) for one attempt
    /// against this node, from the current thread's caller identity.
    fn decide_fault(&self, op: &str) -> Option<RpcFault> {
        let plan = self.faults.get()?;
        plan.rpc_fault(&faults::current_caller(), &self.name, op)
    }

    /// Admission control for every RPC, in DESIGN.md §4.14
    /// order: bounded-queue shed check, then deadline check, both *before*
    /// any service time is charged.
    ///
    /// With `queue_cap == 0` (the default) and no deadline on the request
    /// this is a branch and nothing else — no clock reads, no atomics — so
    /// the legacy configuration stays byte-identical.
    ///
    /// The queue bound uses a modeled single-server backlog: every
    /// admitted request ratchets `vq_next_free` forward by one service
    /// time, and a new arrival is shed when the work already admitted
    /// ahead of it exceeds `queue_cap` service times. The arrival instant
    /// is the open-loop driver's offered stamp when present
    /// ([`RequestCtx::arrival_nanos`]), else the calling thread's current
    /// sim time; the model therefore sees *offered* load even though the
    /// simulation is driven by closed-loop threads.
    fn admit(&self, ctx: &RequestCtx, op: &str) -> Result<(), MetaError> {
        let cap = self.config.queue_cap;
        if cap == 0 && ctx.deadline.is_none() {
            return Ok(());
        }
        if cap != 0 {
            let service = self.config.service().as_nanos() as u64;
            let arrival = ctx.arrival_nanos.unwrap_or_else(|| clock::now().as_nanos());
            let backlog = self
                .vq_next_free
                .load(Ordering::Relaxed)
                .saturating_sub(arrival)
                .checked_div(service)
                .unwrap_or(0);
            if backlog >= cap as u64 {
                self.metrics.shed.inc();
                mantle_obs::flight::annotate_with(|| {
                    format!("admission:shed node={} op={op}", self.name)
                });
                return Err(MetaError::Overloaded(self.name.clone()));
            }
            self.check_deadline(ctx, op)?;
            if service > 0 {
                // Admitted: ratchet the modeled server forward and charge
                // this request its modeled queue wait.
                let mut wait = 0u64;
                let _ =
                    self.vq_next_free
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |nf| {
                            let start = nf.max(arrival);
                            wait = start - arrival;
                            Some(start + service)
                        });
                if wait > 0 {
                    let waited = std::time::Duration::from_nanos(wait);
                    clock::sleep_as(TimeCategory::Queue, waited);
                    self.metrics.permit_wait.record(wait);
                    trace::note_queue_on_current(wait);
                }
            }
            return Ok(());
        }
        self.check_deadline(ctx, op)
    }

    /// The deadline half of [`SimNode::admit`]: aborts server-side (and
    /// accounts the abort) when the request's propagated deadline has
    /// already passed on the simulation clock.
    fn check_deadline(&self, ctx: &RequestCtx, op: &str) -> Result<(), MetaError> {
        if ctx.deadline_expired() {
            return Err(self.note_deadline_abort(op));
        }
        Ok(())
    }

    /// Records a server-side deadline abort decided by this node and returns
    /// the error to propagate. Exposed so layers that abort outside
    /// `SimNode::admit` (e.g. the Raft read path refusing to issue a
    /// ReadIndex query for an already-expired request) keep
    /// `simnode_deadline_aborts_total` authoritative for every abort.
    pub fn note_deadline_abort(&self, op: &str) -> MetaError {
        self.metrics.deadline_aborts.inc();
        mantle_obs::flight::annotate_with(|| {
            format!("admission:deadline_abort node={} op={op}", self.name)
        });
        MetaError::DeadlineExceeded(self.name.clone())
    }

    /// Executes `f` as *node-local* work: the service time, no network
    /// round trip, no admission and no RPC accounting. Nothing here waits:
    /// queueing is modeled in `admit` (on the RPC path) and nowhere else.
    pub fn execute<R>(&self, f: impl FnOnce() -> R) -> R {
        let sim_start = clock::now();
        trace::note_injected_on_current(self.config.service().as_nanos() as u64);
        crate::service_time(&self.config);
        let out = f();
        self.metrics.served.inc();
        self.busy_nanos
            .fetch_add(sim_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// A point-in-time view of the node's accounting counters.
    pub fn snapshot(&self) -> NodeSnapshot {
        NodeSnapshot {
            name: self.name.clone(),
            served: self.metrics.served.get(),
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
            permits: self.permits,
            queue_cap: self.config.queue_cap,
            shed: self.metrics.shed.get(),
            deadline_aborts: self.metrics.deadline_aborts.get(),
        }
    }
}

impl std::fmt::Debug for SimNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimNode({}, served={})",
            self.name,
            self.metrics.served.get()
        )
    }
}

/// Accounting snapshot of a [`SimNode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// Node name.
    pub name: String,
    /// Requests completed.
    pub served: u64,
    /// Cumulative simulated time spent inside requests (service time plus
    /// whatever the handler itself advanced).
    pub busy_nanos: u64,
    /// Configured server count: recorded at construction, enforced by
    /// nothing today. The modeled k-server queue of ROADMAP item 1(b) is
    /// its consumer.
    pub permits: usize,
    /// Configured admission-queue depth cap (0 = unbounded).
    pub queue_cap: usize,
    /// Requests shed by the bounded admission queue.
    pub shed: u64,
    /// Requests aborted server-side on an expired deadline.
    pub deadline_aborts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_types::OpStats;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn rpc_counts_and_serves() {
        let node = SimNode::new("db0", usize::MAX, SimConfig::instant());
        let mut stats = RequestCtx::new();
        let out = node.try_rpc_named(&mut stats, "seven", || 7);
        assert_eq!(out, Ok(7));
        assert_eq!(stats.rpcs, 1);
        assert_eq!(node.snapshot().served, 1);
    }

    #[test]
    fn execute_does_not_count_rpc() {
        let node = SimNode::new("db0", usize::MAX, SimConfig::instant());
        let mut stats = OpStats::new();
        node.execute(|| ());
        assert_eq!(stats.rpcs, 0);
        stats.end();
        assert_eq!(node.snapshot().served, 1);
    }

    #[test]
    fn rpc_injects_round_trip_delay() {
        let mut config = SimConfig::instant();
        config.rtt_micros = 2_000;
        let node = SimNode::new("db0", usize::MAX, config);
        let mut stats = RequestCtx::new();
        let t0 = clock::now();
        node.try_rpc_named(&mut stats, "ping", || ()).unwrap();
        // Exactly one round trip, nothing else, no jitter.
        assert_eq!(t0.elapsed(), Duration::from_micros(2_000));
    }

    #[test]
    fn rpc_batched_counts_without_round_trip() {
        let mut config = SimConfig::instant();
        config.rtt_micros = 50_000;
        let node = SimNode::new("db0", usize::MAX, config);
        let mut stats = RequestCtx::new();
        let t0 = clock::now();
        let out = node.try_rpc_batched(&mut stats, "get_entry", || 3);
        assert_eq!(out, Ok(3));
        assert_eq!(stats.rpcs, 1);
        assert!(
            t0.elapsed() < Duration::from_micros(50_000),
            "batched rpc must not pay its own round trip"
        );
    }

    #[test]
    fn rpc_records_trace_span() {
        let node = SimNode::new("db7", usize::MAX, SimConfig::instant());
        let mut stats = RequestCtx::new();
        let guard = mantle_obs::trace::start_forced("test_op").expect("trace starts");
        node.try_rpc_named(&mut stats, "ping", || ()).unwrap();
        node.try_rpc_batched(&mut stats, "ping_batched", || ())
            .unwrap();
        let trace = guard.finish();
        assert_eq!(trace.rpc_count(), 2);
        assert!(trace
            .spans
            .iter()
            .any(|s| s.op == "ping" && s.node == "db7"));
    }

    #[test]
    fn saturated_node_queues_requests() {
        let mut config = SimConfig::instant();
        config.service_micros = 5_000;
        // One server, eight concurrent requests, queue_cap = 0: nothing is
        // waited on in real time, so every request elapses exactly its
        // service time on its own timeline whatever the host schedules.
        let node = Arc::new(SimNode::new("dir0", 1, config));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let node = node.clone();
                std::thread::spawn(move || {
                    let t0 = clock::now();
                    node.execute(|| ());
                    let queued = clock::thread_time_stats().count(TimeCategory::Queue);
                    (t0.elapsed(), queued)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), (Duration::from_micros(5_000), 0));
        }
        assert_eq!(node.snapshot().served, 8);
        assert_eq!(node.snapshot().permits, 1);
    }

    #[test]
    fn bounded_queue_charges_modeled_wait_and_records_it() {
        let mut config = SimConfig::instant();
        config.service_micros = 100;
        config.queue_cap = 8;
        let node = SimNode::new("capped0", 1, config);
        let waits_before = node.metrics.permit_wait.count();
        let queue_before = clock::thread_time_stats();
        // Two requests offered at the same instant: the second waits out
        // the first's service time on the modeled server.
        for _ in 0..2 {
            let mut ctx = RequestCtx::new();
            ctx.arrival_nanos = Some(0);
            node.try_rpc_named(&mut ctx, "ping", || ()).unwrap();
        }
        let queued = clock::thread_time_stats().saturating_sub(&queue_before);
        assert_eq!(queued.count(TimeCategory::Queue), 1);
        assert_eq!(queued.nanos(TimeCategory::Queue), 100_000);
        assert_eq!(node.metrics.permit_wait.count(), waits_before + 1);
    }
}
