//! The simulation clock: per-thread virtual time.
//!
//! Every latency claim in the paper is a claim about RPC counts times an
//! injected round trip (Table 1, Figures 12–17), so modeled delays are
//! never slept on real time: [`sleep_as`] advances a thread-local offset
//! instantly and [`now`] returns that offset as a [`SimInstant`]. Modeled
//! delays cost zero wall time and latency reports are deterministic
//! functions of the RPC/fsync model.
//!
//! Virtual time is deliberately **per-thread**: each simulated client
//! carries its own timeline, which is exactly the quantity the per-op
//! latency figures plot. Cross-thread coordination (raft heartbeats,
//! background compaction, condvar waits) stays on real time — those are
//! liveness mechanisms, not modeled latency. Whatever a client should
//! observe from such a wait is the modeled cost of another thread's work
//! (the quorum round trip a raft client waited out on a condvar), added to
//! its timeline at the wait site with a plain [`sleep_as`]; no measured
//! real duration ever enters a timeline.
//!
//! Each thread additionally keeps a per-[`TimeCategory`] `(count, nanos)`
//! ledger so tests can assert the closed-form decomposition of an
//! operation's latency (`rpc_count × rtt + fsync_count × fsync`) exactly.

use std::cell::RefCell;
use std::time::Duration;

use serde::{Serialize, Value};

/// What a span of simulated time was spent on. Used for the per-thread
/// ledger that backs the Table-1 closed-form fidelity tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum TimeCategory {
    /// Network round trip between proxy and a metadata/index node.
    Rtt,
    /// WAL fsync latency.
    Fsync,
    /// Storage device access (SSD read/write).
    Device,
    /// Per-request CPU service time on a `SimNode`.
    Service,
    /// Injected fault delay (deny-wait, latency spike).
    Fault,
    /// Contention backoff before a retry.
    Backoff,
    /// Modeled admission wait behind a `SimNode`'s bounded queue
    /// (`queue_cap > 0`); never a measured real wait.
    Queue,
    /// Modeled replication/commit latency folded in at a cross-thread
    /// wait site (raft quorum commit).
    Commit,
    /// Everything else (test sleeps, misc waits).
    Other,
}

const N_CATEGORIES: usize = 9;

impl TimeCategory {
    /// Every category, in ledger order (the order breakdowns render in).
    pub const ALL: [TimeCategory; N_CATEGORIES] = [
        TimeCategory::Rtt,
        TimeCategory::Fsync,
        TimeCategory::Device,
        TimeCategory::Service,
        TimeCategory::Fault,
        TimeCategory::Backoff,
        TimeCategory::Queue,
        TimeCategory::Commit,
        TimeCategory::Other,
    ];

    /// Stable lower-case label used in attribution output and metric labels.
    pub fn label(self) -> &'static str {
        match self {
            TimeCategory::Rtt => "rtt",
            TimeCategory::Fsync => "fsync",
            TimeCategory::Device => "device",
            TimeCategory::Service => "service",
            TimeCategory::Fault => "fault",
            TimeCategory::Backoff => "backoff",
            TimeCategory::Queue => "queue",
            TimeCategory::Commit => "commit",
            TimeCategory::Other => "other",
        }
    }
}

/// The `(count, nanos)` ledger of simulated time, indexed by
/// [`TimeCategory`]: each thread keeps one that only grows, and the ledger
/// of a region — an operation, a trace, one span — is the difference of two
/// snapshots ([`TimeStats::saturating_sub`]), so a region's categories sum
/// **exactly** to its end-to-end latency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeStats {
    entries: [(u64, u64); N_CATEGORIES],
}

impl TimeStats {
    /// Number of charges recorded under `cat`.
    pub fn count(&self, cat: TimeCategory) -> u64 {
        self.entries[cat as usize].0
    }

    /// Total nanoseconds charged under `cat`.
    pub fn nanos(&self, cat: TimeCategory) -> u64 {
        self.entries[cat as usize].1
    }

    /// Total nanoseconds across all categories.
    pub fn total_nanos(&self) -> u64 {
        self.entries.iter().map(|e| e.1).sum()
    }

    /// True when nothing was charged.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|e| *e == (0, 0))
    }

    /// Folds another ledger in (aggregation across ops / windows / spans).
    pub fn add(&mut self, other: &TimeStats) {
        for (e, o) in self.entries.iter_mut().zip(&other.entries) {
            e.0 += o.0;
            e.1 += o.1;
        }
    }

    /// `self - other` per category, clamped at zero: the growth of a thread
    /// ledger since an `other` snapshot taken earlier (a ledger reset in
    /// between yields zeros rather than wrapping), or a span's ledger less
    /// its children's.
    pub fn saturating_sub(&self, other: &TimeStats) -> TimeStats {
        let mut out = *self;
        for (e, o) in out.entries.iter_mut().zip(&other.entries) {
            e.0 = e.0.saturating_sub(o.0);
            e.1 = e.1.saturating_sub(o.1);
        }
        out
    }

    /// The categories something was charged under, in ledger order.
    fn charged(&self) -> impl Iterator<Item = (TimeCategory, u64, u64)> + '_ {
        TimeCategory::ALL
            .iter()
            .zip(&self.entries)
            .filter(|(_, e)| **e != (0, 0))
            .map(|(cat, e)| (*cat, e.0, e.1))
    }

    /// Categories sorted by time spent, descending, zero ones omitted.
    pub fn ranked(&self) -> Vec<(TimeCategory, u64)> {
        let mut v: Vec<(TimeCategory, u64)> = self
            .charged()
            .filter(|(_, _, nanos)| *nanos > 0)
            .map(|(cat, _, nanos)| (cat, nanos))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.label().cmp(b.0.label())));
        v
    }

    /// Human summary: `"62% fsync, 21% queue, 17% rtt"` (categories under
    /// 1% folded into a trailing `…`). An empty ledger renders as `"idle"`.
    pub fn render(&self) -> String {
        let total = self.total_nanos();
        if total == 0 {
            return "idle".to_string();
        }
        let mut parts = Vec::new();
        let mut folded = false;
        for (cat, nanos) in self.ranked() {
            let pct = nanos as f64 * 100.0 / total as f64;
            if pct >= 1.0 {
                parts.push(format!("{:.0}% {}", pct, cat.label()));
            } else {
                folded = true;
            }
        }
        if folded {
            parts.push("…".to_string());
        }
        parts.join(", ")
    }

    /// Canonical machine form, `category=nanos/count` pairs in ledger order
    /// with zero categories omitted — byte-stable across identical seeded
    /// runs (the determinism tests compare these strings).
    pub fn canonical(&self) -> String {
        let parts: Vec<String> = self
            .charged()
            .map(|(cat, count, nanos)| format!("{}={nanos}/{count}", cat.label()))
            .collect();
        parts.join(" ")
    }
}

impl Serialize for TimeStats {
    /// Serializes as a map `label → {nanos, count}`, zero categories
    /// omitted.
    fn to_json(&self) -> Value {
        Value::Object(
            self.charged()
                .map(|(cat, count, nanos)| {
                    let entry = vec![
                        ("nanos".to_string(), Value::U64(nanos)),
                        ("count".to_string(), Value::U64(count)),
                    ];
                    (cat.label().to_string(), Value::Object(entry))
                })
                .collect(),
        )
    }
}

struct ThreadClock {
    /// Virtual nanoseconds advanced on this thread.
    offset_nanos: u64,
    stats: TimeStats,
}

thread_local! {
    static THREAD_CLOCK: RefCell<ThreadClock> = const {
        RefCell::new(ThreadClock { offset_nanos: 0, stats: TimeStats { entries: [(0, 0); N_CATEGORIES] } })
    };
}

/// A point on the simulated timeline: the calling thread's logical offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimInstant {
    nanos: u64,
}

impl SimInstant {
    /// The simulated-time origin (useful as an "unset" sentinel).
    pub const ZERO: SimInstant = SimInstant { nanos: 0 };

    /// Nanoseconds since the simulated-time origin.
    pub fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Simulated time elapsed since `self` on the calling thread.
    pub fn elapsed(self) -> Duration {
        now().saturating_duration_since(self)
    }

    /// `self - earlier`, clamped to zero.
    pub fn saturating_duration_since(self, earlier: SimInstant) -> Duration {
        Duration::from_nanos(self.nanos.saturating_sub(earlier.nanos))
    }
}

impl std::ops::Add<Duration> for SimInstant {
    type Output = SimInstant;
    fn add(self, d: Duration) -> SimInstant {
        SimInstant {
            nanos: self.nanos.saturating_add(d.as_nanos() as u64),
        }
    }
}

impl std::ops::Sub<SimInstant> for SimInstant {
    type Output = Duration;
    fn sub(self, earlier: SimInstant) -> Duration {
        self.saturating_duration_since(earlier)
    }
}

/// The current point on the simulated timeline for the calling thread.
pub fn now() -> SimInstant {
    SimInstant {
        nanos: THREAD_CLOCK.with(|c| c.borrow().offset_nanos),
    }
}

/// Advance the calling thread's simulated time by `d`, attributed to
/// `cat`. Costs no real time; a zero-duration sleep is still counted in
/// the ledger.
pub fn sleep_as(cat: TimeCategory, d: Duration) {
    let nanos = d.as_nanos() as u64;
    THREAD_CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        let e = &mut c.stats.entries[cat as usize];
        e.0 += 1;
        e.1 += nanos;
        c.offset_nanos = c.offset_nanos.saturating_add(nanos);
    });
}

/// [`sleep_as`] with [`TimeCategory::Other`].
pub fn sleep(d: Duration) {
    sleep_as(TimeCategory::Other, d);
}

/// Snapshot of the calling thread's per-category ledger.
pub fn thread_time_stats() -> TimeStats {
    THREAD_CLOCK.with(|c| c.borrow().stats)
}

/// Reset the calling thread's ledger and offset. Tests use this to
/// isolate the cost of a single operation.
pub fn reset_thread_clock() {
    THREAD_CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        c.stats = TimeStats::default();
        c.offset_nanos = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_advances_thread_timeline_exactly() {
        reset_thread_clock();
        let t0 = now();
        sleep_as(TimeCategory::Rtt, Duration::from_micros(200));
        sleep_as(TimeCategory::Fsync, Duration::from_micros(100));
        assert_eq!(t0.elapsed(), Duration::from_micros(300));
        let stats = thread_time_stats();
        assert_eq!(stats.count(TimeCategory::Rtt), 1);
        assert_eq!(stats.nanos(TimeCategory::Rtt), 200_000);
        assert_eq!(stats.count(TimeCategory::Fsync), 1);
        assert_eq!(stats.nanos(TimeCategory::Fsync), 100_000);
    }

    #[test]
    fn timelines_are_per_thread() {
        reset_thread_clock();
        sleep_as(TimeCategory::Other, Duration::from_millis(5));
        let here = now();
        let there = std::thread::spawn(|| {
            reset_thread_clock();
            now()
        })
        .join()
        .unwrap();
        assert_eq!(here.as_nanos(), 5_000_000);
        assert_eq!(there, SimInstant::ZERO);
    }

    #[test]
    fn region_ledger_sums_to_elapsed_virtual_time() {
        let before = thread_time_stats();
        let t0 = now();
        sleep_as(TimeCategory::Rtt, Duration::from_micros(200));
        sleep_as(TimeCategory::Fsync, Duration::from_micros(100));
        sleep_as(TimeCategory::Rtt, Duration::from_micros(200));
        let region = thread_time_stats().saturating_sub(&before);
        assert_eq!(region.count(TimeCategory::Rtt), 2);
        assert_eq!(region.nanos(TimeCategory::Rtt), 400_000);
        assert_eq!(region.nanos(TimeCategory::Fsync), 100_000);
        assert_eq!(region.total_nanos(), t0.elapsed().as_nanos() as u64);
        assert!(region.render().contains("80% rtt"), "{}", region.render());
        assert_eq!(region.canonical(), "rtt=400000/2 fsync=100000/1");
    }

    #[test]
    fn add_sub_and_ranked() {
        let mut a = TimeStats::default();
        let mut b = TimeStats::default();
        a.entries[0] = (1, 100);
        b.entries[0] = (2, 50);
        b.entries[1] = (1, 500);
        a.add(&b);
        assert_eq!(a.nanos(TimeCategory::Rtt), 150);
        assert_eq!(a.ranked()[0].0, TimeCategory::Fsync);
        let c = a.saturating_sub(&b);
        assert_eq!(c.nanos(TimeCategory::Rtt), 100);
        assert_eq!(c.nanos(TimeCategory::Fsync), 0);
        assert!(TimeStats::default().is_empty());
        assert_eq!(TimeStats::default().render(), "idle");
    }

    #[test]
    fn serializes_as_labelled_map() {
        let mut a = TimeStats::default();
        a.entries[1] = (3, 900);
        let v = a.to_json();
        let fsync = v.get("fsync").expect("fsync present");
        assert_eq!(fsync.get("nanos").and_then(Value::as_u64), Some(900));
        assert_eq!(fsync.get("count").and_then(Value::as_u64), Some(3));
        assert!(v.get("rtt").is_none(), "zero categories omitted");
    }

    #[test]
    fn sim_instant_arithmetic_saturates() {
        let a = SimInstant { nanos: 100 };
        let b = SimInstant { nanos: 300 };
        assert_eq!(b - a, Duration::from_nanos(200));
        assert_eq!(a - b, Duration::ZERO);
        assert_eq!((a + Duration::from_nanos(50)).as_nanos(), 150);
    }
}
