//! The one client loop every workload runs on.
//!
//! [`drive`] spawns the client threads, releases them together, merges
//! what they recorded and takes the makespan (the longest thread timeline:
//! each thread carries its own virtual clock). Inside, a per-thread
//! [`Client`] owns everything one operation needs around the service call —
//! a fresh [`RequestCtx`] (with open-loop arrival and budget stamps), the
//! flight-recorder scope or else a sampled trace, the virtual-clock timing,
//! the per-label histogram and [`OpStatsAgg`], and the failure classes — so
//! a workload is just the body that decides *which* operation comes next.
//! Work is partitioned statically (thread `t` of `n` takes items `t`,
//! `t + n`, …, see [`Client::share_of`]): which OS thread wins a race never
//! decides who runs what.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use parking_lot::Mutex;

use mantle_types::clock;
use mantle_types::hist::Histogram;
use mantle_types::stats::OpStatsAgg;
use mantle_types::{MetaError, RequestCtx, Result};

/// Series counting failed ops the harness did not ask for, process-wide;
/// see [`unexpected_failures`].
const UNEXPECTED_FAILURES: &str = "workload_unexpected_failures_total";

/// Open-loop arrival schedule for overload experiments: every op is
/// stamped with a deterministic virtual arrival time (`base + k * Δ`
/// across all threads) instead of arriving whenever the previous op
/// finished, so a node with a bounded admission queue sees a growing
/// modeled backlog it can shed against (DESIGN.md §4.14).
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// Spacing between successive arrivals, across all threads.
    pub interarrival_nanos: u64,
    /// Retry budget stamped on each op (0 = fail fast when shed).
    pub retry_budget: u32,
}

/// What the successful ops of one label recorded.
#[derive(Clone, Default)]
pub struct OpRecord {
    /// End-to-end latency (nanoseconds on the virtual clock).
    pub latency: Histogram,
    /// Phases, RPCs and retries.
    pub agg: OpStatsAgg,
}

/// The merged result of one [`drive`].
#[derive(Default)]
pub struct Outcome {
    /// Per-label records of the ops that succeeded.
    pub ops: HashMap<&'static str, OpRecord>,
    /// Ops that failed, for any reason.
    pub failed: u64,
    /// Failures shed by a bounded admission queue.
    pub shed: u64,
    /// Failures aborted server-side on an expired deadline.
    pub deadline_aborted: u64,
    /// The longest per-thread timeline.
    pub makespan: Duration,
}

impl Outcome {
    fn merge(&mut self, other: Outcome) {
        for (label, record) in other.ops {
            let mine = self.ops.entry(label).or_default();
            mine.latency.merge(&record.latency);
            mine.agg.merge(&record.agg);
        }
        self.failed += other.failed;
        self.shed += other.shed;
        self.deadline_aborted += other.deadline_aborted;
        self.makespan = self.makespan.max(other.makespan);
    }

    /// The record of `label` (empty when no such op succeeded).
    pub fn take(&mut self, label: &str) -> OpRecord {
        self.ops.remove(label).unwrap_or_default()
    }
}

/// One client thread of a [`drive`].
pub struct Client<'a> {
    system: &'static str,
    thread: usize,
    threads: usize,
    open_loop: Option<OpenLoop>,
    /// This thread's clock when the run was released.
    base_nanos: u64,
    issued: u64,
    failure_printed: &'a AtomicBool,
    out: Outcome,
}

impl Client<'_> {
    /// This client's index in `0..threads`.
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// This client's static share of `0..total`: `t`, `t + n`, `t + 2n`, ….
    pub fn share_of(&self, total: usize) -> impl Iterator<Item = usize> {
        (self.thread..total).step_by(self.threads)
    }

    /// Runs one operation under a context of its own and records it under
    /// `label`; `depth` is the target path's depth (the flight recorder
    /// keys its thresholds on it). `None` when the op failed.
    pub fn op<R>(
        &mut self,
        label: &'static str,
        depth: usize,
        f: impl FnOnce(&mut RequestCtx) -> Result<R>,
    ) -> Option<R> {
        let mut ctx = RequestCtx::new();
        if let Some(ol) = self.open_loop {
            let k = self.issued * self.threads as u64 + self.thread as u64;
            ctx = ctx
                .with_arrival_nanos(self.base_nanos + k * ol.interarrival_nanos)
                .with_budget(ol.retry_budget);
        }
        self.issued += 1;
        // When a flight recorder is effective its scope runs the op under a
        // detached trace (and keeps feeding the sampled ring itself);
        // otherwise fall back to plain sampled RPC-chain tracing.
        let flight = mantle_obs::flight::op_scope(self.system, label, depth as u32);
        let _trace = match flight {
            Some(_) => None,
            None => mantle_obs::trace::start(label),
        };
        let begin = clock::now();
        let result = f(&mut ctx);
        match result {
            Ok(value) => {
                let record = self.out.ops.entry(label).or_default();
                record.latency.record(begin.elapsed().as_nanos() as u64);
                record.agg.add(&ctx);
                Some(value)
            }
            Err(e) => {
                self.out.failed += 1;
                // An open-loop run offers more than the node admits on
                // purpose: its sheds and deadline aborts are the result.
                let asked_for = match e {
                    MetaError::Overloaded(_) => {
                        self.out.shed += 1;
                        self.open_loop.is_some()
                    }
                    MetaError::DeadlineExceeded(_) => {
                        self.out.deadline_aborted += 1;
                        self.open_loop.is_some()
                    }
                    _ => false,
                };
                if !asked_for {
                    mantle_obs::counter(UNEXPECTED_FAILURES, &[("system", self.system)]).inc();
                    if !self.failure_printed.swap(true, Ordering::Relaxed) {
                        eprintln!("{} {label} first failure: {e}", self.system);
                    }
                }
                None
            }
        }
    }
}

/// Runs `body` on `threads` client threads against the service named
/// `system` and returns their merged records.
pub fn drive(
    system: &'static str,
    threads: usize,
    open_loop: Option<OpenLoop>,
    body: impl Fn(&mut Client<'_>) + Sync,
) -> Outcome {
    let barrier = Barrier::new(threads);
    let failure_printed = AtomicBool::new(false);
    let merged = Mutex::new(Outcome::default());
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let (barrier, failure_printed, merged, body) =
                (&barrier, &failure_printed, &merged, &body);
            scope.spawn(move || {
                barrier.wait();
                let start = clock::now();
                let mut client = Client {
                    system,
                    thread,
                    threads,
                    open_loop,
                    base_nanos: start.as_nanos(),
                    issued: 0,
                    failure_printed,
                    out: Outcome::default(),
                };
                body(&mut client);
                client.out.makespan = start.elapsed();
                merged.lock().merge(client.out);
            });
        }
    });
    merged.into_inner()
}

/// Failed ops, over every [`drive`] of this process, that no harness asked
/// for (anything but a shed or deadline abort of an open-loop run). A
/// figure binary with a non-zero count exits non-zero.
pub fn unexpected_failures() -> u64 {
    mantle_obs::snapshot().counter_total(UNEXPECTED_FAILURES)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The series of one made-up system: other tests of this process fail
    /// ops too, so the process-wide sum is not theirs to assert on.
    fn unexpected(system: &str) -> u64 {
        let of_system = |c: &&mantle_obs::metrics::CounterSample| {
            c.name == UNEXPECTED_FAILURES && c.labels.iter().any(|(_, v)| v == system)
        };
        let counters = mantle_obs::snapshot().counters;
        counters.iter().filter(of_system).map(|c| c.value).sum()
    }

    #[test]
    fn a_failed_op_is_counted_and_never_timed() {
        let mut out = drive("test-fail", 2, None, |client| {
            for i in client.share_of(5) {
                client.op("probe", 0, |_| match i % 2 {
                    0 => Ok(()),
                    _ => Err(MetaError::NotFound(format!("/{i}"))),
                });
            }
        });
        assert_eq!((out.failed, out.shed, out.deadline_aborted), (2, 0, 0));
        assert_eq!(out.take("probe").latency.count(), 3);
        assert_eq!(unexpected("test-fail"), 2);
        assert!(unexpected_failures() >= 2);
    }

    #[test]
    fn open_loop_sheds_are_asked_for_and_closed_loop_sheds_are_not() {
        let shed_all = |system, open_loop| {
            let out = drive(system, 1, open_loop, |client| {
                client.op("probe", 0, |_| -> Result<()> {
                    Err(MetaError::Overloaded("n".into()))
                });
            });
            assert_eq!((out.failed, out.shed), (1, 1));
            unexpected(system)
        };
        let open = OpenLoop {
            interarrival_nanos: 1,
            retry_budget: 0,
        };
        assert_eq!(shed_all("test-open", Some(open)), 0);
        assert_eq!(shed_all("test-closed", None), 1);
    }
}
