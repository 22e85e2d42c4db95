//! The one retry-policy engine behind every transparent-retry site.
//!
//! Before this module, four hand-rolled loops had accreted across the
//! workspace — `MantleCluster::with_failover`, the dirrename same-UUID
//! loop (Mantle and InfiniFS), the TafDB transaction-conflict loop, and
//! the stale-route re-resolution loops — each with its own backoff curve,
//! pacing rules and counter bookkeeping. [`RetryPolicy`] replaces them
//! with one engine:
//!
//! * **class-keyed curves** — a policy is constructed per site from the
//!   same closed-form curves the loops used (`failover`: 200 µs doubling
//!   capped at 5 ms; `rename`/`txn`: 100 µs doubling capped at 3 ms), so
//!   seeded runs stay byte-identical;
//! * **budget decrement from [`RequestCtx`]** — every retry, whatever the
//!   layer, draws on the op's budget, so one op cannot retry without bound
//!   across stacked loops;
//! * **deadline awareness** — an op whose propagated deadline has expired
//!   stops retrying immediately instead of burning backoff;
//! * **no jitter** — a backoff is a pure function of the attempt number,
//!   so virtual-clock latency pins hold exactly.
//!
//! Beside it live [`deliver_named`] / [`deliver_batched`], the one
//! must-deliver send under the two RPC names: messages that
//! carry a decision already made are re-sent until served instead of
//! surfacing an error the sender could do nothing with.

use std::time::Duration;

use mantle_types::clock::{self, TimeCategory};
use mantle_types::{MetaError, RequestCtx, Result, RetryClass};

use crate::node::SimNode;

/// How the engine waits out a backoff. The distinction matters because
/// the virtual clock charges modeled waits instantly while the thing being
/// waited out makes progress in *real* time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// Charge the backoff to the simulated timeline, then sleep it for
    /// real, because the thing being waited out (leader re-election) runs
    /// on the real-time control plane. (`with_failover`.)
    ChargeAndPaceReal,
    /// Charge the backoff, then yield so the conflicting client can
    /// release its lock in real time. (Rename same-UUID loops; TafDB
    /// transaction conflicts on a substrate with injected delays.)
    ChargeAndYield,
    /// Yield only; no simulated time is charged. (Stale-route rereads,
    /// which re-route against a refreshed in-memory shard map; TafDB
    /// transaction conflicts on a zero-delay substrate.)
    YieldOnly,
}

/// A per-site retry policy: attempt cap, backoff curve, pacing. Construct
/// via the named constructors so curves stay centralized; `run` executes a
/// fallible closure under the policy.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum transparent retries (not counting the first attempt).
    pub max_attempts: u32,
    /// Backoff numerator: `(base << min(attempt, 6)).min(cap)` µs.
    pub base_micros: u64,
    /// Upper bound on one backoff, in microseconds.
    pub cap_micros: u64,
    /// How backoffs are waited out.
    pub pacing: Pacing,
}

impl RetryPolicy {
    /// The failover curve: 200 µs doubling, capped at 5 ms, paced for
    /// real against the control plane (`MantleCluster::with_failover`).
    pub fn failover(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_micros: 100,
            cap_micros: 5_000,
            pacing: Pacing::ChargeAndPaceReal,
        }
    }

    /// The rename-lock curve: 100 µs doubling, capped at 3 ms, yielding to
    /// the conflicting client, up to 10,000 times (the dirrename same-UUID
    /// loops of Mantle and InfiniFS).
    pub fn rename() -> Self {
        RetryPolicy {
            max_attempts: 10_000,
            base_micros: 50,
            cap_micros: 3_000,
            pacing: Pacing::ChargeAndYield,
        }
    }

    /// The transaction-conflict curve: 100 µs doubling, capped at 3 ms;
    /// pure yield on a zero-delay substrate (`rtt_micros == 0`), whose
    /// latency pins must not see backoff (TafDB execute loop).
    pub fn txn(max_attempts: u32, zero_delay: bool) -> Self {
        RetryPolicy {
            max_attempts,
            base_micros: 50,
            cap_micros: 3_000,
            pacing: if zero_delay {
                Pacing::YieldOnly
            } else {
                Pacing::ChargeAndYield
            },
        }
    }

    /// The backoff before retry number `attempt` (1-based), per the
    /// policy's curve.
    pub fn backoff(&self, attempt: u32) -> Duration {
        Duration::from_micros((self.base_micros << attempt.min(6)).min(self.cap_micros))
    }

    /// Waits out the backoff before retry number `attempt` (1-based)
    /// according to the policy's pacing rules.
    pub fn pause(&self, attempt: u32) {
        let backoff = self.backoff(attempt);
        match self.pacing {
            Pacing::ChargeAndPaceReal => {
                clock::sleep_as(TimeCategory::Backoff, backoff);
                // The modeled backoff above was instant, but leader
                // re-election runs on the real-time control plane; pace
                // the retry loop against it.
                std::thread::sleep(backoff);
            }
            Pacing::ChargeAndYield => {
                clock::sleep_as(TimeCategory::Backoff, backoff);
                std::thread::yield_now();
            }
            Pacing::YieldOnly => std::thread::yield_now(),
        }
    }

    /// Runs `f` under this policy. See [`RetryPolicy::run_counted`].
    pub fn run<R>(
        &self,
        ctx: &mut RequestCtx,
        classify: impl FnMut(&MetaError) -> Option<RetryClass>,
        on_retry: impl FnMut(&mut RequestCtx, &MetaError),
        f: impl FnMut(&mut RequestCtx) -> Result<R>,
    ) -> Result<R> {
        self.run_counted(ctx, classify, on_retry, f).0
    }

    /// Runs `f`, transparently retrying errors that `classify` maps to a
    /// [`RetryClass`], and returns the result plus the number of retries
    /// consumed. Each retry:
    ///
    /// 1. stops if the per-site attempt cap, the op's retry budget
    ///    ([`RequestCtx::try_charge_retry`]), or the op's deadline is
    ///    exhausted — the last error is returned as-is;
    /// 2. records the class on the op's [`RetryClass`] counter map;
    /// 3. runs `on_retry` for site-specific bookkeeping (flight
    ///    annotations, global gauges);
    /// 4. waits out the policy backoff ([`RetryPolicy::pause`]).
    pub fn run_counted<R>(
        &self,
        ctx: &mut RequestCtx,
        mut classify: impl FnMut(&MetaError) -> Option<RetryClass>,
        mut on_retry: impl FnMut(&mut RequestCtx, &MetaError),
        mut f: impl FnMut(&mut RequestCtx) -> Result<R>,
    ) -> (Result<R>, u32) {
        let mut attempts = 0u32;
        loop {
            match f(ctx) {
                Ok(v) => return (Ok(v), attempts),
                Err(e) => {
                    let Some(class) = classify(&e) else {
                        return (Err(e), attempts);
                    };
                    if attempts >= self.max_attempts
                        || ctx.deadline_expired()
                        || !ctx.try_charge_retry()
                    {
                        return (Err(e), attempts);
                    }
                    ctx.note_retry(class);
                    on_retry(ctx, &e);
                    attempts += 1;
                    self.pause(attempts);
                }
            }
        }
    }
}

/// Re-sends after which [`deliver_named`] stops waiting for the network (about
/// five seconds of failover-paced real time, far past any injected partition).
const MAX_RESENDS: u32 = 1_000;

/// Must-deliver send, for messages that carry a decision already made (2PC
/// commit/abort, a rename-coordinator unlock): the sender cannot give up,
/// so a request lost to an injected fault or shed by admission is re-sent
/// until it is served. Each re-send books one more RPC and one
/// [`RetryClass::Transient`] retry on `ctx` and is paced like
/// [`RetryPolicy::failover`], so a partition has real time to heal. The
/// op's deadline and offered-arrival stamp describe the client's request,
/// not this message, and are lifted for the delivery.
///
/// Bounded as a hang backstop: the simulation has no recovery protocol for
/// a participant that never becomes reachable, so after `MAX_RESENDS` the
/// work runs on `node` without a network leg rather than leaking locks.
///
/// This is the [`SimNode::try_rpc_named`] form (each send pays its own
/// round trip); [`deliver_batched`] is the [`SimNode::try_rpc_batched`] one.
pub fn deliver_named<R>(ctx: &mut RequestCtx, node: &SimNode, op: &str, f: impl FnMut() -> R) -> R {
    deliver(ctx, node, op, f, |ctx, f| node.try_rpc_named(ctx, op, f))
}

/// [`deliver_named`] for one leg of a batch whose round trip the caller
/// pays once for all legs.
pub fn deliver_batched<R>(
    ctx: &mut RequestCtx,
    node: &SimNode,
    op: &str,
    f: impl FnMut() -> R,
) -> R {
    deliver(ctx, node, op, f, |ctx, f| node.try_rpc_batched(ctx, op, f))
}

fn deliver<R, F: FnMut() -> R>(
    ctx: &mut RequestCtx,
    node: &SimNode,
    op: &str,
    mut f: F,
    send: impl Fn(&mut RequestCtx, &mut F) -> Result<R>,
) -> R {
    let deadline = ctx.deadline.take();
    let arrival = ctx.arrival_nanos.take();
    let pacing = RetryPolicy::failover(MAX_RESENDS);
    let mut resends = 0;
    let out = loop {
        match send(ctx, &mut f) {
            Ok(out) => break out,
            Err(_) if resends < MAX_RESENDS => {
                resends += 1;
                ctx.note_retry(RetryClass::Transient);
                mantle_obs::flight::annotate_with(|| {
                    format!("fault:resend node={} op={op}", node.name())
                });
                pacing.pause(resends);
            }
            Err(_) => break node.execute(&mut f),
        }
    };
    ctx.deadline = deadline;
    ctx.arrival_nanos = arrival;
    out
}

/// Classifier for the failover loop: unavailability, transient transport
/// faults, stale routes and admission sheds are absorbed; everything else
/// surfaces.
pub fn classify_failover(e: &MetaError) -> Option<RetryClass> {
    match e {
        MetaError::Unavailable(_) => Some(RetryClass::Unavailable),
        MetaError::Transient { .. } => Some(RetryClass::Transient),
        MetaError::StaleRoute { .. } => Some(RetryClass::StaleRoute),
        MetaError::Overloaded(_) => Some(RetryClass::Overload),
        _ => None,
    }
}

/// Classifier for the dirrename same-UUID loops: lock and transaction
/// conflicts both count as rename retries (the lock is re-entered under
/// the same client UUID), transport faults and stale routes keep their
/// own class.
pub fn classify_rename(e: &MetaError) -> Option<RetryClass> {
    match e {
        MetaError::RenameLocked(_) | MetaError::TxnConflict { .. } => Some(RetryClass::Rename),
        MetaError::Transient { .. } => Some(RetryClass::Transient),
        MetaError::StaleRoute { .. } => Some(RetryClass::StaleRoute),
        _ => None,
    }
}

/// Classifier for the TafDB transaction loop: stale routes re-resolve,
/// every other retryable error counts as a transaction retry. Deadline
/// expiry is never retryable.
pub fn classify_txn(e: &MetaError) -> Option<RetryClass> {
    match e {
        MetaError::StaleRoute { .. } => Some(RetryClass::StaleRoute),
        e if e.is_retryable() => Some(RetryClass::Txn),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_match_the_legacy_loops() {
        let f = RetryPolicy::failover(600);
        // (100 << min(a, 6)).min(5000) µs
        assert_eq!(f.backoff(1), Duration::from_micros(200));
        assert_eq!(f.backoff(5), Duration::from_micros(3_200));
        assert_eq!(f.backoff(6), Duration::from_micros(5_000));
        assert_eq!(f.backoff(100), Duration::from_micros(5_000));

        let r = RetryPolicy::rename();
        // (50 << min(a, 6)).min(3000) µs
        assert_eq!(r.backoff(1), Duration::from_micros(100));
        assert_eq!(r.backoff(5), Duration::from_micros(1_600));
        assert_eq!(r.backoff(7), Duration::from_micros(3_000));

        let t = RetryPolicy::txn(10_000, true);
        assert_eq!(t.backoff(2), Duration::from_micros(200));
    }

    #[test]
    fn run_retries_until_success_and_counts_class() {
        let mut ctx = RequestCtx::new();
        let mut left = 3;
        let policy = RetryPolicy::txn(10, true);
        let (out, attempts) = policy.run_counted(
            &mut ctx,
            classify_txn,
            |_, _| {},
            |_| {
                if left > 0 {
                    left -= 1;
                    Err(MetaError::TxnConflict { retries: 0 })
                } else {
                    Ok(7)
                }
            },
        );
        assert_eq!(out.unwrap(), 7);
        assert_eq!(attempts, 3);
        assert_eq!(ctx.retry_count(RetryClass::Txn), 3);
    }

    #[test]
    fn run_respects_attempt_cap() {
        let mut ctx = RequestCtx::new();
        let policy = RetryPolicy::txn(2, true);
        let (out, attempts) = policy.run_counted(
            &mut ctx,
            classify_txn,
            |_, _| {},
            |_| Err::<(), _>(MetaError::TxnConflict { retries: 0 }),
        );
        assert!(matches!(out, Err(MetaError::TxnConflict { .. })));
        assert_eq!(attempts, 2);
    }

    #[test]
    fn run_respects_ctx_budget() {
        let mut ctx = RequestCtx::new().with_budget(1);
        let policy = RetryPolicy::txn(100, true);
        let (out, attempts) = policy.run_counted(
            &mut ctx,
            classify_txn,
            |_, _| {},
            |_| Err::<(), _>(MetaError::TxnConflict { retries: 0 }),
        );
        assert!(out.is_err());
        assert_eq!(attempts, 1, "budget of 1 allows exactly one retry");
        assert_eq!(ctx.retry_budget, 0);
    }

    #[test]
    fn run_stops_at_expired_deadline() {
        let mut ctx = RequestCtx::new().with_deadline(clock::now());
        let policy = RetryPolicy::txn(100, true);
        let (out, attempts) = policy.run_counted(
            &mut ctx,
            classify_txn,
            |_, _| {},
            |_| Err::<(), _>(MetaError::TxnConflict { retries: 0 }),
        );
        assert!(out.is_err());
        assert_eq!(
            attempts, 0,
            "expired deadline must stop retries immediately"
        );
    }

    #[test]
    fn non_retryable_errors_pass_through() {
        let mut ctx = RequestCtx::new();
        let policy = RetryPolicy::failover(600);
        let (out, attempts) = policy.run_counted(
            &mut ctx,
            classify_failover,
            |_, _| {},
            |_| Err::<(), _>(MetaError::NotFound("/x".into())),
        );
        assert!(matches!(out, Err(MetaError::NotFound(_))));
        assert_eq!(attempts, 0);
    }

    #[test]
    fn deliver_resends_until_served_and_ignores_the_deadline() {
        use crate::faults::{FaultPlan, FaultProfile};
        use mantle_types::SimConfig;

        let node = SimNode::new("deliver0", usize::MAX, SimConfig::instant());
        let mut profile = FaultProfile::zeroed();
        profile.rpc_drop_prob = 0.7;
        node.set_faults(Some(FaultPlan::new(1, profile)));

        // An expired deadline would abort an ordinary request in admission.
        let mut ctx = RequestCtx::new().with_deadline(clock::now());
        let mut ran = 0;
        for i in 0..20 {
            deliver_batched(&mut ctx, &node, "commit", || ran += 1);
            assert_eq!(ran, i + 1, "delivered work must run exactly once");
        }
        let resends = ctx.retry_count(RetryClass::Transient);
        assert!(resends > 0, "the drop storm never fired");
        assert_eq!(ctx.rpcs, 20 + resends, "one RPC booked per (re-)send");
        assert!(ctx.deadline.is_some(), "the op's deadline is restored");
        assert_eq!(node.snapshot().deadline_aborts, 0);
    }

    #[test]
    fn classifiers_cover_their_legacy_sets() {
        assert_eq!(
            classify_failover(&MetaError::Overloaded("n0".into())),
            Some(RetryClass::Overload)
        );
        assert_eq!(
            classify_failover(&MetaError::RenameLocked("/a".into())),
            None
        );
        assert_eq!(
            classify_rename(&MetaError::TxnConflict { retries: 1 }),
            Some(RetryClass::Rename)
        );
        assert_eq!(
            classify_txn(&MetaError::DeadlineExceeded("n0".into())),
            None,
            "deadline expiry must not be retried"
        );
    }
}
