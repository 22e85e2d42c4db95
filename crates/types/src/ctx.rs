//! The per-request context threaded through the whole op path.
//!
//! Every metadata operation — whatever the system under test — carries one
//! [`RequestCtx`] from the workload driver down through the proxy layer,
//! the simulated RPC substrate and the storage stack. It bundles the things
//! a request plane needs to make admission and retry decisions *at every
//! hop* without side channels:
//!
//! * an optional **deadline** on the simulation clock, propagated to
//!   servers so they can abort server-side instead of burning service time
//!   on a request the client has already given up on,
//! * a **retry budget** decremented by the `RetryPolicy` engine
//!   (`mantle-rpc`) so one op cannot retry without bound across layers,
//! * an optional **offered-arrival stamp** used by open-loop drivers so the
//!   bounded-admission model in `SimNode` sees the *offered* load rather
//!   than the closed-loop completion rate,
//! * the owned [`OpStats`] recorder that used to be passed around bare.
//!
//! `RequestCtx` derefs to [`OpStats`], so accounting-only layers keep
//! `&mut OpStats` signatures and receive the context by deref coercion.

use std::ops::{Deref, DerefMut};
use std::time::Duration;

use crate::clock::{self, SimInstant};
use crate::stats::{OpStats, Phase};

/// Per-operation request context (see module docs).
#[derive(Clone, Debug)]
pub struct RequestCtx {
    /// Absolute simulation-clock deadline. `None` = no deadline. Servers
    /// check this *after* admission and *before* charging service time.
    pub deadline: Option<SimInstant>,
    /// Remaining transparent retries across every layer and class. The
    /// retry-policy engine refuses further retries once this hits zero;
    /// per-site attempt caps usually bind first (default budget is
    /// effectively unbounded).
    pub retry_budget: u32,
    /// Offered arrival time (nanos on the simulation clock) stamped by
    /// open-loop drivers. When set, `SimNode`'s admission model measures
    /// queue depth against this arrival instead of the caller's (later)
    /// thread time.
    pub arrival_nanos: Option<u64>,
    /// The per-operation phase/counter recorder.
    pub stats: OpStats,
}

impl Default for RequestCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestCtx {
    /// A fresh context: no deadline, effectively unbounded retry budget,
    /// empty stats.
    pub fn new() -> Self {
        RequestCtx {
            deadline: None,
            retry_budget: u32::MAX,
            arrival_nanos: None,
            stats: OpStats::new(),
        }
    }

    /// Builder: absolute deadline.
    pub fn with_deadline(mut self, deadline: SimInstant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder: deadline `d` from the calling thread's current sim time.
    pub fn with_deadline_in(self, d: Duration) -> Self {
        let now = clock::now();
        self.with_deadline(now + d)
    }

    /// Builder: retry budget.
    pub fn with_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Builder: offered arrival stamp (open-loop drivers).
    pub fn with_arrival_nanos(mut self, nanos: u64) -> Self {
        self.arrival_nanos = Some(nanos);
        self
    }

    /// Whether the deadline (if any) has passed on the calling thread's
    /// simulation clock.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| clock::now() >= d)
    }

    /// Time left until the deadline (`None` when no deadline is set;
    /// `Some(ZERO)` once expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(clock::now()))
    }

    /// Consumes one unit of retry budget. Returns `false` (and leaves the
    /// budget at zero) when exhausted — the caller must stop retrying.
    pub fn try_charge_retry(&mut self) -> bool {
        if self.retry_budget == 0 {
            return false;
        }
        self.retry_budget -= 1;
        true
    }

    /// Runs `f` with its simulated time charged to `phase`, then restores
    /// the previously active phase (if any). The closure gets the whole
    /// context, so nested calls keep propagating it.
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.stats.current_idx();
        self.stats.begin(phase);
        let out = f(self);
        self.stats.end();
        self.stats.resume_idx(prev);
        out
    }
}

impl Deref for RequestCtx {
    type Target = OpStats;

    fn deref(&self) -> &OpStats {
        &self.stats
    }
}

impl DerefMut for RequestCtx {
    fn deref_mut(&mut self) -> &mut OpStats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_deadline_by_default() {
        let ctx = RequestCtx::new();
        assert!(ctx.deadline.is_none());
        assert!(!ctx.deadline_expired());
        assert!(ctx.remaining().is_none());
    }

    #[test]
    fn deadline_expiry_tracks_sim_clock() {
        let ctx = RequestCtx::new().with_deadline_in(Duration::from_micros(50));
        assert!(!ctx.deadline_expired());
        clock::sleep(Duration::from_micros(100));
        assert!(ctx.deadline_expired());
        assert_eq!(ctx.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn retry_budget_decrements_to_zero() {
        let mut ctx = RequestCtx::new().with_budget(2);
        assert!(ctx.try_charge_retry());
        assert!(ctx.try_charge_retry());
        assert!(!ctx.try_charge_retry());
        assert_eq!(ctx.retry_budget, 0);
    }

    #[test]
    fn derefs_to_stats() {
        let mut ctx = RequestCtx::new();
        ctx.rpc();
        assert_eq!(ctx.stats.rpcs, 1);
    }

    #[test]
    fn ctx_time_restores_outer_phase() {
        let mut ctx = RequestCtx::new();
        ctx.stats.begin(Phase::Execute);
        clock::sleep(Duration::from_millis(1));
        ctx.time(Phase::Lookup, |c| {
            clock::sleep(Duration::from_millis(1));
            c.rpc();
        });
        clock::sleep(Duration::from_millis(1));
        ctx.stats.end();
        assert_eq!(ctx.stats.phase_nanos(Phase::Execute), 2_000_000);
        assert_eq!(ctx.stats.phase_nanos(Phase::Lookup), 1_000_000);
    }
}
