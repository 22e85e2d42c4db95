//! Always-on flight recorder: force-capture of anomalously slow operations.
//!
//! Sampled tracing ([`crate::trace::start`]) answers "what does a *typical*
//! op look like"; it is useless for the op that mattered — the p99.9 outlier
//! that a retry storm or an fsync stall produced — because at a 1% sample
//! rate the outlier is almost never selected. The flight recorder closes
//! that gap: while one is effective every operation wrapped in [`op_scope`]
//! fills the thread's op slot ([`crate::trace`]), and when its end-to-end
//! latency exceeds a per-`(system, op)` adaptive threshold (trailing p99 × 4)
//! the finished trace moves into a bounded slow-op ring inside a structured
//! [`SlowOp`] event (path depth, shard set, retry/fault annotations from the
//! capture points, per-phase attribution).
//!
//! Everything the recorder emits is a deterministic function of the seeded
//! workload under the virtual clock: latencies are virtual, thresholds are
//! recomputed at fixed op counts, and [`SlowOp::log_line`] deliberately
//! excludes nondeterministic identifiers (trace ids), so identical seeds
//! produce byte-identical slow-op logs (pinned by tests).
//!
//! The recorder also folds every observed trace into *exclusive per-node*
//! attributions ([`Trace::per_node`]): [`FlightRecorder::node_phases`],
//! served by `/attribution`, says not just *that* a node is hot but *which
//! phase* (fsync vs queueing vs injected faults) is burning its time.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mantle_types::clock::{TimeCategory, TimeStats};
use mantle_types::hist::Histogram;
use parking_lot::Mutex;
use serde::Serialize;

use crate::metrics::{Counter, HistogramMetric};
use crate::ring::Ring;
use crate::trace::{self, fmt_nanos, Trace, TraceGuard};

/// Slow-op events retained in a recorder's ring (oldest evicted, counted in
/// `obs_slow_dropped_total`).
const SLOW_CAPACITY: usize = 256;

/// `k` in the adaptive threshold `trailing_p99 × k`.
const THRESHOLD_MULT: f64 = 4.0;

/// Ops observed per `(system, op)` before the adaptive threshold arms
/// (until then nothing is flagged — a trailing p99 of 3 samples is
/// meaningless).
const WARMUP_OPS: u64 = 64;

/// The adaptive threshold is recomputed every this many ops (a fixed
/// cadence keeps the decision deterministic under identical seeds).
const RECOMPUTE_EVERY: u64 = 32;

/// Ops per attribution window; [`ExplainReport::recent`] covers the
/// trailing windows.
const WINDOW_OPS: u64 = 256;

/// Completed attribution windows retained per `(system, op)`.
const MAX_WINDOWS: usize = 8;

/// Annotations retained per op before the rest are counted as elided.
const MAX_ANNOTATIONS: usize = 32;

/// One force-captured slow operation.
#[derive(Clone, Debug, Serialize)]
pub struct SlowOp {
    /// Capture sequence number within this recorder instance (1-based,
    /// deterministic under identical seeds).
    pub seq: u64,
    /// Service that ran the op (`mantle`, `infinifs`, …).
    pub system: String,
    /// Operation label (`create`, `lookup`, …).
    pub op: String,
    /// End-to-end latency on the simulated timeline, in nanoseconds.
    pub latency_nanos: u64,
    /// The threshold the op exceeded, in nanoseconds.
    pub threshold_nanos: u64,
    /// Path depth of the operation's target.
    pub path_depth: u32,
    /// RPC spans in the captured trace.
    pub rpcs: usize,
    /// Distinct serving nodes the op touched, sorted (the "shard set").
    pub shards: Vec<String>,
    /// Capture-point annotations (fault denies, stale-route retries,
    /// fsync retries, failovers …) in the order they happened.
    pub annotations: Vec<String>,
    /// Annotations dropped after the first 32.
    pub annotations_elided: u32,
    /// Per-phase attribution of the whole op; under the virtual clock its
    /// total equals `latency_nanos` exactly.
    pub phases: TimeStats,
    /// The full force-captured trace. Always `Some`: the op and its trace
    /// share one slot (the `Option` is the shape readers already match on).
    pub trace: Option<Trace>,
}

impl SlowOp {
    /// Canonical one-line form of the event. Byte-stable across identical
    /// seeded runs: everything in it is a deterministic function of the
    /// workload (notably *no* trace ids, which are process-global).
    pub fn log_line(&self) -> String {
        let joined = |items: &[String], sep| match items {
            [] => "-".to_string(),
            _ => items.join(sep),
        };
        format!(
            "slow seq={} system={} op={} depth={} latency_nanos={} threshold_nanos={} rpcs={} shards={} notes={} elided={} phases[{}]",
            self.seq,
            self.system,
            self.op,
            self.path_depth,
            self.latency_nanos,
            self.threshold_nanos,
            self.rpcs,
            joined(&self.shards, ","),
            joined(&self.annotations, ";"),
            self.annotations_elided,
            self.phases.canonical(),
        )
    }
}

/// Aggregated view of one `(system, op)` pair, for `mantle-cli explain`.
#[derive(Clone, Debug, Serialize)]
pub struct ExplainReport {
    /// Service name.
    pub system: String,
    /// Operation label.
    pub op: String,
    /// Ops observed.
    pub ops: u64,
    /// Median latency, nanoseconds.
    pub p50_nanos: u64,
    /// Trailing p99 latency, nanoseconds.
    pub p99_nanos: u64,
    /// Worst observed latency, nanoseconds.
    pub max_nanos: u64,
    /// Current slow threshold (`None` while still warming up).
    pub threshold_nanos: Option<u64>,
    /// Slow ops captured for this pair.
    pub slow: u64,
    /// Attribution over every observed op.
    pub total: TimeStats,
    /// Attribution over the trailing windows only (recent behaviour).
    pub recent: TimeStats,
}

impl ExplainReport {
    /// Human summary, e.g.
    /// `mantle/create: n=1024 p50=412.0us p99=1.8ms max=9.6ms (2 slow): 62% fsync, 21% queue`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}/{}: n={} p50={} p99={} max={}",
            self.system,
            self.op,
            self.ops,
            fmt_nanos(self.p50_nanos),
            fmt_nanos(self.p99_nanos),
            fmt_nanos(self.max_nanos),
        );
        match self.threshold_nanos {
            Some(t) => out.push_str(&format!(
                " (threshold {}, {} slow)",
                fmt_nanos(t),
                self.slow
            )),
            None => out.push_str(" (warming up)"),
        }
        out.push_str(&format!(": {}", self.total.render()));
        if self.recent != self.total && !self.recent.is_empty() {
            out.push_str(&format!("\n  recent: {}", self.recent.render()));
        }
        out
    }
}

/// Per-`(system, op)` trailing state.
struct OpTypeState {
    hist: Histogram,
    total: TimeStats,
    window: TimeStats,
    window_ops: u64,
    windows: VecDeque<TimeStats>,
    /// `u64::MAX` while warming up (nothing flags).
    threshold: u64,
    /// `obs_slow_ops_total{system,op}`; this state's own cell is the
    /// pair's slow count since the last [`FlightRecorder::reset`].
    slow: Counter,
    phase_hists: [HistogramMetric; TimeCategory::ALL.len()],
}

impl OpTypeState {
    fn new(system: &str, op: &str, threshold: u64) -> Self {
        let phase_hists = TimeCategory::ALL.map(|cat| {
            crate::metrics::histogram(
                "obs_phase_nanos",
                &[("system", system), ("op", op), ("phase", cat.label())],
            )
        });
        OpTypeState {
            hist: Histogram::new(),
            total: TimeStats::default(),
            window: TimeStats::default(),
            window_ops: 0,
            windows: VecDeque::new(),
            threshold,
            slow: crate::metrics::counter("obs_slow_ops_total", &[("system", system), ("op", op)]),
            phase_hists,
        }
    }

    fn recent(&self) -> TimeStats {
        let mut out = self.window;
        for w in &self.windows {
            out.add(w);
        }
        out
    }
}

/// The flight recorder: per-op-type adaptive slow thresholds, a bounded
/// slow-op ring with drop accounting, and cumulative per-node phase
/// attribution. One process-global instance ([`global`]) serves production;
/// tests install private instances per thread
/// ([`install_thread_recorder`]) for deterministic isolation.
pub struct FlightRecorder {
    /// Overrides the adaptive threshold entirely, from the first op on.
    fixed_threshold: Option<u64>,
    armed: AtomicBool,
    seq: AtomicU64,
    states: Mutex<BTreeMap<(String, String), OpTypeState>>,
    slow: Mutex<Ring<SlowOp>>,
    node_phases: Mutex<BTreeMap<String, TimeStats>>,
}

fn slow_ring() -> Ring<SlowOp> {
    Ring::new(
        SLOW_CAPACITY,
        crate::metrics::counter("obs_slow_dropped_total", &[]),
    )
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// Creates a recorder with the adaptive threshold, initially disarmed.
    pub fn new() -> Self {
        FlightRecorder {
            fixed_threshold: None,
            armed: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            states: Mutex::default(),
            slow: Mutex::new(slow_ring()),
            node_phases: Mutex::default(),
        }
    }

    /// A recorder that flags every op slower than `nanos`, the first
    /// included: capture decisions depend on the virtual timeline alone
    /// (the determinism tests' seam).
    pub fn with_fixed_threshold(nanos: u64) -> Self {
        FlightRecorder {
            fixed_threshold: Some(nanos),
            ..Self::new()
        }
    }

    /// Whether [`op_scope`] captures through this recorder.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Starts capturing.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Clears all trailing state, the slow ring and its drop count,
    /// per-node attribution and the capture sequence — the determinism
    /// tests call this between runs.
    pub fn reset(&self) {
        self.states.lock().clear();
        *self.slow.lock() = slow_ring();
        self.node_phases.lock().clear();
        self.seq.store(0, Ordering::Relaxed);
    }

    /// Clones up to `n` of the most recent slow-op events, newest last.
    pub fn slow_recent(&self, n: usize) -> Vec<SlowOp> {
        self.slow.lock().recent(n)
    }

    /// The canonical slow-op log: one [`SlowOp::log_line`] per retained
    /// event, newest last, newline-terminated. Byte-identical across
    /// identical seeded runs.
    pub fn slow_log(&self) -> String {
        let mut out = String::new();
        for ev in self.slow.lock().iter() {
            out.push_str(&ev.log_line());
            out.push('\n');
        }
        out
    }

    /// Slow ops captured since creation (or [`FlightRecorder::reset`]),
    /// including any evicted from the ring.
    pub fn slow_captured_total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Slow ops evicted unread from the full ring.
    pub fn slow_dropped_total(&self) -> u64 {
        self.slow.lock().evicted()
    }

    /// Cumulative exclusive per-node phase attribution across every
    /// observed trace, sorted by node name: tells a fsync-bound node from a
    /// queue-bound one.
    pub fn node_phases(&self) -> Vec<(String, TimeStats)> {
        self.node_phases
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Reports for every `(system, op)` pair whose label matches `op`
    /// (exact match), sorted by system for stable output.
    pub fn explain(&self, op: &str) -> Vec<ExplainReport> {
        self.explain_all()
            .into_iter()
            .filter(|r| r.op == op)
            .collect()
    }

    /// Reports for every observed `(system, op)` pair, sorted.
    pub fn explain_all(&self) -> Vec<ExplainReport> {
        let states = self.states.lock();
        states
            .iter()
            .map(|((system, op), st)| ExplainReport {
                system: system.clone(),
                op: op.clone(),
                ops: st.hist.count(),
                p50_nanos: st.hist.quantile(0.5),
                p99_nanos: st.hist.quantile(0.99),
                max_nanos: st.hist.max(),
                threshold_nanos: (st.threshold != u64::MAX).then_some(st.threshold),
                slow: st.slow.get(),
                total: st.total,
                recent: st.recent(),
            })
            .collect()
    }
}

/// The recorder's side of an op in flight, carried in the thread's op slot
/// from [`op_scope`] to the commit.
pub(crate) struct OpMeta {
    recorder: Arc<FlightRecorder>,
    system: String,
    path_depth: u32,
    annotations: Vec<String>,
    annotations_elided: u32,
    /// The sampler also picked this op: its trace goes to the sampled ring
    /// as well. Decided when the slot is filled.
    pub(crate) sampled: bool,
}

impl OpMeta {
    /// Folds the finished `trace` into the recorder — latency, phases, RPC
    /// count and shard set are the trace's own — and moves it into a
    /// [`SlowOp`] when it exceeded the trailing threshold. Returns the trace
    /// the sampled ring is owed, if the sampler picked the op (a clone only
    /// when it was also slow).
    pub(crate) fn observe(self, trace: Trace) -> Option<Trace> {
        let rec = &*self.recorder;
        {
            let mut np = rec.node_phases.lock();
            for (node, attr) in trace.per_node() {
                np.entry(node).or_default().add(&attr);
            }
        }
        let (latency_nanos, phases) = (trace.total_nanos(), trace.phases);

        let mut states = rec.states.lock();
        let st = states
            .entry((self.system.clone(), trace.op.clone()))
            .or_insert_with(|| {
                let threshold = rec.fixed_threshold.unwrap_or(u64::MAX);
                OpTypeState::new(&self.system, &trace.op, threshold)
            });

        // Flag against the *trailing* threshold (computed from prior ops),
        // then fold this op in and recompute on cadence.
        let threshold = st.threshold;
        let is_slow = latency_nanos > threshold;

        st.hist.record(latency_nanos);
        st.total.add(&phases);
        st.window.add(&phases);
        st.window_ops += 1;
        if st.window_ops >= WINDOW_OPS {
            if st.windows.len() == MAX_WINDOWS {
                st.windows.pop_front();
            }
            let full = st.window;
            st.windows.push_back(full);
            st.window = TimeStats::default();
            st.window_ops = 0;
        }
        for (i, cat) in TimeCategory::ALL.iter().enumerate() {
            let nanos = phases.nanos(*cat);
            if nanos > 0 {
                st.phase_hists[i].record(nanos);
            }
        }

        let n = st.hist.count();
        if rec.fixed_threshold.is_none() && n >= WARMUP_OPS && n.is_multiple_of(RECOMPUTE_EVERY) {
            let p99 = st.hist.quantile(0.99);
            st.threshold = (p99 as f64 * THRESHOLD_MULT) as u64;
        }

        if !is_slow {
            return self.sampled.then_some(trace);
        }
        st.slow.inc();
        drop(states);

        let for_sampled_ring = self.sampled.then(|| trace.clone());
        let event = SlowOp {
            seq: rec.seq.fetch_add(1, Ordering::Relaxed) + 1,
            system: self.system,
            op: trace.op.clone(),
            latency_nanos,
            threshold_nanos: threshold,
            path_depth: self.path_depth,
            rpcs: trace.rpc_count(),
            shards: trace.nodes(),
            annotations: self.annotations,
            annotations_elided: self.annotations_elided,
            phases,
            trace: Some(trace),
        };
        rec.slow.lock().push(event);
        for_sampled_ring
    }
}

/// The process-global recorder, disarmed until [`FlightRecorder::arm`]:
/// harness entry points and the CLI arm it once at startup.
pub fn global() -> &'static Arc<FlightRecorder> {
    static GLOBAL: OnceLock<Arc<FlightRecorder>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(FlightRecorder::new()))
}

thread_local! {
    static THREAD_RECORDER: RefCell<Option<Arc<FlightRecorder>>> = const { RefCell::new(None) };
}

/// Routes the current thread's [`op_scope`] calls to `recorder` (armed or
/// not) until the returned guard drops — deterministic isolation for tests
/// that must not share trailing state with the rest of the process.
pub fn install_thread_recorder(recorder: Arc<FlightRecorder>) -> ThreadRecorderGuard {
    let prev = THREAD_RECORDER.with(|cell| cell.borrow_mut().replace(recorder));
    ThreadRecorderGuard { prev }
}

/// Restores the previously installed thread recorder (if any) on drop.
pub struct ThreadRecorderGuard {
    prev: Option<Arc<FlightRecorder>>,
}

impl Drop for ThreadRecorderGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        THREAD_RECORDER.with(|cell| *cell.borrow_mut() = prev);
    }
}

/// The recorder [`op_scope`] would capture through right now: the thread
/// override if installed, else the global recorder if armed.
fn effective_recorder() -> Option<Arc<FlightRecorder>> {
    if let Some(r) = THREAD_RECORDER.with(|cell| cell.borrow().clone()) {
        return Some(r);
    }
    let g = global();
    g.is_armed().then(|| Arc::clone(g))
}

/// Opens the thread's op slot for one recorded operation: `system` names
/// the service (`mantle`, `infinifs`, …), `op` the operation label, and
/// `path_depth` the target's depth. Returns `None` when no recorder is
/// effective or an op is already in flight on this thread (the outer op
/// owns the slot). When the guard drops the recorder decides whether the op
/// was slow.
pub fn op_scope(system: &str, op: &str, path_depth: u32) -> Option<TraceGuard> {
    let recorder = effective_recorder()?;
    trace::open(
        op,
        Some(OpMeta {
            recorder,
            system: system.to_string(),
            path_depth,
            annotations: Vec::new(),
            annotations_elided: 0,
            sampled: false,
        }),
    )
}

/// Attaches a note to the in-flight op, if a recorder is following it —
/// fault denies, stale-route retries, fsync retries, failovers. Notes ride
/// along on the [`SlowOp`] event if the op is flagged slow. No-op (one
/// thread-local read) otherwise.
pub fn annotate(note: &str) {
    annotate_with(|| note.to_string());
}

/// [`annotate`] with lazy construction: the closure only runs when a
/// recorded op is actually in flight, so capture sites pay nothing for the
/// format when the recorder is disarmed.
pub fn annotate_with(f: impl FnOnce() -> String) {
    trace::with_op_meta(|meta| {
        if meta.annotations.len() < MAX_ANNOTATIONS {
            meta.annotations.push(f());
        } else {
            meta.annotations_elided += 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::SAMPLE_RATE;
    use mantle_types::clock;
    use std::sync::{MutexGuard, PoisonError};
    use std::time::Duration;

    /// Installs `rec` on this thread and takes this test's turn at the
    /// process-global sampler, which every `op_scope` consults.
    fn install(
        rec: FlightRecorder,
    ) -> (
        Arc<FlightRecorder>,
        (ThreadRecorderGuard, MutexGuard<'static, ()>),
    ) {
        let turn = SAMPLE_RATE.lock().unwrap_or_else(PoisonError::into_inner);
        let rec = Arc::new(rec);
        let installed = install_thread_recorder(Arc::clone(&rec));
        (rec, (installed, turn))
    }

    #[test]
    fn fast_ops_are_not_captured_slow_ones_are() {
        let (rec, _g) = install(FlightRecorder::new());
        // Warm up with uniform 100us ops: threshold settles near 400us.
        for _ in 0..WARMUP_OPS {
            let s = op_scope("mantle", "lookup", 4).expect("scope");
            clock::sleep_as(TimeCategory::Rtt, Duration::from_micros(100));
            drop(s);
        }
        assert_eq!(rec.slow_captured_total(), 0, "uniform ops must not flag");

        // One 10x outlier with annotations.
        {
            let s = op_scope("mantle", "lookup", 4).expect("scope");
            clock::sleep_as(TimeCategory::Rtt, Duration::from_micros(100));
            annotate("fault:deny site=wal_fsync");
            clock::sleep_as(TimeCategory::Fault, Duration::from_micros(900));
            drop(s);
        }
        assert_eq!(rec.slow_captured_total(), 1);
        let slow = rec.slow_recent(8);
        assert_eq!(slow.len(), 1);
        let ev = &slow[0];
        assert_eq!(ev.seq, 1);
        assert_eq!(ev.latency_nanos, 1_000_000);
        assert_eq!(
            ev.phases.total_nanos(),
            ev.latency_nanos,
            "attribution closes"
        );
        assert_eq!(ev.annotations, vec!["fault:deny site=wal_fsync"]);
        assert!(ev.trace.is_some(), "trace force-captured");
        assert!(ev.log_line().contains("notes=fault:deny site=wal_fsync"));

        let reports = rec.explain("lookup");
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].ops, WARMUP_OPS + 1);
        assert_eq!(reports[0].slow, 1);
        assert!(reports[0].render().contains("mantle/lookup"));
    }

    #[test]
    fn warmup_blocks_capture_and_fixed_threshold_bypasses_it() {
        let (rec, g) = install(FlightRecorder::new());
        {
            let s = op_scope("mantle", "mkdir", 1).expect("scope");
            clock::sleep_as(TimeCategory::Other, Duration::from_secs(1));
            drop(s);
        }
        assert_eq!(
            rec.slow_captured_total(),
            0,
            "nothing flags during warmup without a fixed threshold"
        );
        drop(g);

        let (rec, _g) = install(FlightRecorder::with_fixed_threshold(1_000));
        for _ in 0..2 {
            let s = op_scope("mantle", "mkdir", 1).expect("scope");
            clock::sleep_as(TimeCategory::Other, Duration::from_micros(50));
            drop(s);
        }
        // The fixed value is the threshold from the first op on.
        assert_eq!(rec.slow_captured_total(), 2);
    }

    #[test]
    fn slow_ring_evicts_with_drop_accounting() {
        let (rec, _g) = install(FlightRecorder::with_fixed_threshold(0));
        let ops = SLOW_CAPACITY as u64 + 3;
        for _ in 0..ops {
            let s = op_scope("mantle", "rm", 2).expect("scope");
            clock::sleep_as(TimeCategory::Other, Duration::from_micros(10));
            drop(s);
        }
        // Every op flags; the ring keeps its capacity and drops the rest.
        assert_eq!(rec.slow_captured_total(), ops);
        assert_eq!(rec.slow_recent(usize::MAX).len(), SLOW_CAPACITY);
        assert_eq!(rec.slow_dropped_total(), 3);
        let last = rec.slow_recent(1).remove(0);
        assert_eq!(last.seq, ops);
    }

    #[test]
    fn scopes_do_not_nest_and_reset_clears() {
        let (rec, _g) = install(FlightRecorder::with_fixed_threshold(0));
        let outer = op_scope("mantle", "mv", 3).expect("outer");
        assert!(op_scope("mantle", "mv", 3).is_none(), "no nesting");
        clock::sleep_as(TimeCategory::Other, Duration::from_micros(1));
        drop(outer);
        assert!(op_scope("mantle", "mv", 3).is_some(), "slot released");

        assert!(rec.slow_captured_total() > 0 || !rec.explain_all().is_empty());
        rec.reset();
        assert_eq!(rec.slow_captured_total(), 0);
        assert_eq!(rec.slow_dropped_total(), 0);
        assert!(rec.explain_all().is_empty());
        assert!(rec.slow_log().is_empty());
    }

    /// One op, one capture: a sampled slow op is measured once and its one
    /// trace reaches both rings.
    #[test]
    fn a_sampled_slow_op_is_captured_once_into_both_rings() {
        let (rec, _g) = install(FlightRecorder::with_fixed_threshold(0));
        trace::set_sample_rate(1.0);
        {
            let _op = op_scope("mantle", "create", 2).expect("scope");
            let _outer = trace::rpc_span("resolve", "index0").expect("recorded ops have spans");
            clock::sleep_as(TimeCategory::Rtt, Duration::from_micros(200));
            annotate("index:no_leader");
            let _inner = trace::rpc_span("txn_commit", "tafdb1").expect("nested span");
            clock::sleep_as(TimeCategory::Fsync, Duration::from_micros(50));
        }
        trace::set_sample_rate(0.0);

        assert_eq!(rec.slow_captured_total(), 1);
        let event = rec.slow_recent(8).remove(0);
        let captured = event.trace.as_ref().expect("trace moved into the event");
        let sampled: Vec<Trace> = trace::peek_recent(usize::MAX)
            .into_iter()
            .filter(|t| t.trace_id == captured.trace_id)
            .collect();
        assert_eq!(sampled.len(), 1, "one copy in the sampled ring");
        assert_eq!(sampled[0].spans, captured.spans);
        assert_eq!(captured.spans.len(), 3);
        assert_eq!(captured.spans[2].parent, Some(1));

        assert_eq!(event.latency_nanos, captured.total_nanos());
        assert_eq!(event.latency_nanos, 250_000);
        assert_eq!(event.phases, captured.phases);
        assert_eq!(event.rpcs, captured.rpc_count());
        assert_eq!(event.shards, captured.nodes());
        assert_eq!(event.shards, vec!["index0", "tafdb1"]);
        assert_eq!(event.annotations, vec!["index:no_leader"]);
    }

    #[test]
    fn the_slot_holds_one_op_whichever_door_opened_it() {
        let (rec, _g) = install(FlightRecorder::with_fixed_threshold(0));

        let outer = op_scope("mantle", "mv", 3).expect("outer");
        assert!(trace::start_forced("inner").is_none());
        assert!(op_scope("mantle", "mv", 3).is_none());
        drop(outer);
        assert_eq!(rec.explain("mv")[0].ops, 1);

        let forced = trace::start_forced("forced").expect("slot free again");
        assert!(op_scope("mantle", "mv", 3).is_none());
        // No recorder follows a forced trace: the note goes nowhere.
        annotate("dropped");
        let trace = forced.finish();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(
            rec.explain("mv")[0].ops,
            1,
            "the refused scope observed nothing"
        );
        assert!(rec.explain("forced").is_empty());
        assert!(rec.slow_recent(8).iter().all(|e| e.annotations.is_empty()));
    }
}
