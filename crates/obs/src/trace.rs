//! The operation in flight and its span tree.
//!
//! One thread-local slot holds the op a thread is running: its span tree,
//! the stack of open spans and — when a flight recorder follows it — the
//! recorder's side of it. Three doors fill the slot: [`start`] (the ~1%
//! sampler picked the op), [`start_forced`] (CLI `trace`, tests) and
//! [`flight::op_scope`](crate::flight::op_scope) (every op while a recorder
//! is armed); the simulator runs a request's RPC legs on the calling thread,
//! so a second open while the slot is taken returns `None`. Each RPC entry
//! point opens a [`SpanScope`]; nested scopes become child spans, so a path
//! resolve dumps as an RPC tree whose per-hop count can be checked against
//! the paper's Table 1 RTT analysis (InfiniFS: one `get_entry` RPC per
//! component; Mantle: O(1) lookups off the index).
//!
//! Every advance of the simulated timeline charges a
//! [`TimeCategory`](mantle_types::clock::TimeCategory) in the per-thread
//! ledger, and every span carries the ledger *delta* across its lifetime, so
//! the per-category nanoseconds of a span sum **exactly** to its duration;
//! [`Trace::per_node`] folds them into *exclusive* per-node ledgers.
//!
//! One [`TraceGuard`] ends whatever opened. Its commit closes the root span
//! and routes the [`Trace`]: to the op's flight recorder if it has one, and
//! to the bounded sampled ring ([`take_recent`], [`peek_recent`]) if it was
//! forced or sampled ([`set_sample_rate`], `MANTLE_TRACE_SAMPLE`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use mantle_types::clock::{self, SimInstant, TimeStats};
use mantle_types::EnvConfig;
use parking_lot::Mutex;
use serde::Serialize;

use crate::flight::OpMeta;
use crate::ring::Ring;

/// Spans kept per trace before truncation; bounds worst-case memory for a
/// runaway recursive resolve.
const MAX_SPANS_PER_TRACE: usize = 4096;

/// Finished traces retained in the sampled ring.
const RING_CAPACITY: usize = 256;

/// What a span represents, for rendering and for counting RPC hops.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum SpanKind {
    /// The root operation (e.g. `lookup /a/b/c`).
    Op,
    /// One simulated RPC to a node (counts toward the RTT budget).
    Rpc,
    /// Local work worth showing in the tree (cache probe, index walk).
    Local,
}

/// One timed region inside a trace.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Span {
    /// Index of this span within the trace.
    pub id: u32,
    /// Index of the parent span, or `None` for the root.
    pub parent: Option<u32>,
    /// Operation label (e.g. `get_entry_batched`).
    pub op: String,
    /// Node that served the span (empty for client-local work).
    pub node: String,
    /// Kind of work this span represents.
    pub kind: SpanKind,
    /// Start offset from the trace start, in nanoseconds.
    pub start_nanos: u64,
    /// Simulated duration, in nanoseconds.
    pub dur_nanos: u64,
    /// Modeled admission-queue wait at the serving node, in nanoseconds.
    pub queue_nanos: u64,
    /// Simulated latency injected by the SimNode, in nanoseconds.
    pub injected_nanos: u64,
    /// Per-phase ledger delta across the span (inclusive of children; see
    /// [`Trace::per_node`] for exclusive attribution).
    pub phases: TimeStats,
}

/// A finished trace: the span tree of one operation.
#[derive(Clone, Debug, Serialize)]
pub struct Trace {
    /// Unique id assigned at trace start.
    pub trace_id: u64,
    /// Root operation label.
    pub op: String,
    /// Spans in creation order; parents precede children.
    pub spans: Vec<Span>,
    /// Whether spans were dropped after the per-trace cap.
    pub truncated: bool,
    /// Per-phase attribution of the whole operation (the thread ledger's
    /// delta from trace start to commit). Under the virtual clock its
    /// total equals [`Trace::total_nanos`] exactly.
    pub phases: TimeStats,
}

impl Trace {
    /// Number of RPC spans — the metric the fidelity tests compare against
    /// the paper's RTT counts.
    pub fn rpc_count(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Rpc)
            .count()
    }

    /// Total simulated duration (root span duration), in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.spans.first().map_or(0, |s| s.dur_nanos)
    }

    /// The distinct serving nodes touched by this trace, sorted.
    pub fn nodes(&self) -> Vec<String> {
        let mut nodes: Vec<String> = self
            .spans
            .iter()
            .filter(|s| !s.node.is_empty())
            .map(|s| s.node.clone())
            .collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Folds the trace into *exclusive* per-node attributions: each span's
    /// ledger delta minus its direct children's, grouped by serving node
    /// and sorted by node name. Client-local work (spans with an empty
    /// node, including the root) appears under `"client"`.
    pub fn per_node(&self) -> Vec<(String, TimeStats)> {
        // Sum of children's (inclusive) attributions per parent.
        let mut child_sums = vec![TimeStats::default(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_sums[p as usize].add(&span.phases);
            }
        }
        let mut by_node: BTreeMap<String, TimeStats> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_sums) {
            let exclusive = span.phases.saturating_sub(children);
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

    /// Renders the span tree, one line per span:
    ///
    /// ```text
    /// lookup /a/b (trace 42, 3 rpcs, 612.0us)
    /// └─ resolve_index [index0] rpc 200.1us (queue 0ns, injected 200.0us)
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} (trace {}, {} rpcs, {})\n",
            self.op,
            self.trace_id,
            self.rpc_count(),
            fmt_nanos(self.total_nanos())
        );
        // Children of span 0 render at depth 1, their children deeper.
        for (i, span) in self.spans.iter().enumerate().skip(1) {
            let depth = self.depth_of(i as u32);
            let kind = match span.kind {
                SpanKind::Op => "op",
                SpanKind::Rpc => "rpc",
                SpanKind::Local => "local",
            };
            let node = if span.node.is_empty() {
                String::new()
            } else {
                format!(" [{}]", span.node)
            };
            out.push_str(&format!(
                "{}└─ {}{} {} {} (queue {}, injected {})\n",
                "   ".repeat(depth.saturating_sub(1)),
                span.op,
                node,
                kind,
                fmt_nanos(span.dur_nanos),
                fmt_nanos(span.queue_nanos),
                fmt_nanos(span.injected_nanos),
            ));
        }
        if self.truncated {
            out.push_str("… trace truncated\n");
        }
        if !self.phases.is_empty() {
            out.push_str(&format!("critical path: {}\n", self.phases.render()));
        }
        out
    }

    fn depth_of(&self, mut id: u32) -> usize {
        let mut depth = 0;
        while let Some(parent) = self.spans.get(id as usize).and_then(|s| s.parent) {
            depth += 1;
            id = parent;
        }
        depth
    }
}

pub(crate) fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.1}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}us", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

/// The operation in flight on the current thread.
struct ActiveOp {
    trace_id: u64,
    epoch: SimInstant,
    spans: Vec<Span>,
    /// Open spans, innermost last, each with the thread ledger at its open.
    stack: Vec<(u32, TimeStats)>,
    truncated: bool,
    /// The recorder's side of the op; `None` for a sampled or forced trace
    /// opened while no recorder was effective.
    flight: Option<OpMeta>,
}

impl ActiveOp {
    /// Opens a span under the innermost open one.
    fn push_span(&mut self, op: &str, node: &str, kind: SpanKind) -> Option<u32> {
        if self.spans.len() >= MAX_SPANS_PER_TRACE {
            self.truncated = true;
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().map(|&(parent, _)| parent),
            op: op.to_string(),
            node: node.to_string(),
            kind,
            start_nanos: self.epoch.elapsed().as_nanos() as u64,
            dur_nanos: 0,
            queue_nanos: 0,
            injected_nanos: 0,
            phases: TimeStats::default(),
        });
        self.stack.push((id, clock::thread_time_stats()));
        Some(id)
    }

    /// Closes span `id`, and with it any span left open underneath. The one
    /// place a duration and a ledger delta are taken, for the root span (the
    /// op itself) as for every other.
    fn close_span(&mut self, id: u32) -> Option<()> {
        let at = self.stack.iter().rposition(|&(open, _)| open == id)?;
        let (_, ledger0) = self.stack[at];
        self.stack.truncate(at);
        let span = &mut self.spans[id as usize];
        let now_nanos = self.epoch.elapsed().as_nanos() as u64;
        span.dur_nanos = now_nanos.saturating_sub(span.start_nanos);
        span.phases = clock::thread_time_stats().saturating_sub(&ledger0);
        Some(())
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveOp>> = const { RefCell::new(None) };
}

/// Runs `f` on the op in flight, if any (one thread-local read otherwise).
fn with_active<R>(f: impl FnOnce(&mut ActiveOp) -> Option<R>) -> Option<R> {
    ACTIVE.with(|cell| cell.borrow_mut().as_mut().and_then(f))
}

struct Collector {
    next_trace_id: AtomicU64,
    /// Sampling interval: an op is selected when `started % interval == 0`.
    /// `0` disables sampling entirely.
    interval: AtomicU64,
    started: AtomicU64,
    /// The sampled ring; evictions count into `obs_traces_dropped_total`.
    ring: Mutex<Ring<Trace>>,
}

impl Collector {
    /// The sampling decision, one per candidate op.
    fn selects(&self) -> bool {
        let interval = self.interval.load(Ordering::Relaxed);
        interval != 0
            && self
                .started
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(interval)
    }
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        next_trace_id: AtomicU64::new(1),
        interval: AtomicU64::new(rate_to_interval(EnvConfig::get().trace_sample)),
        started: AtomicU64::new(0),
        ring: Mutex::new(Ring::new(
            RING_CAPACITY,
            crate::metrics::counter("obs_traces_dropped_total", &[]),
        )),
    })
}

fn rate_to_interval(rate: f64) -> u64 {
    if rate <= 0.0 {
        0
    } else if rate >= 1.0 {
        1
    } else {
        (1.0 / rate).round() as u64
    }
}

/// Sets the sampling rate (`0.0` = off, `1.0` = every operation). The
/// default is `EnvConfig::trace_sample` (`MANTLE_TRACE_SAMPLE`; 1% if unset).
pub fn set_sample_rate(rate: f64) {
    collector()
        .interval
        .store(rate_to_interval(rate), Ordering::Relaxed);
}

/// Starts a trace for `op` if the sampler selects this operation and no
/// op is already in flight on this thread. Hold the returned guard for the
/// duration of the operation; the trace is committed when it drops.
pub fn start(op: &str) -> Option<TraceGuard> {
    if !collector().selects() {
        return None;
    }
    open(op, None)
}

/// Starts a trace unconditionally (CLI `trace` command, tests). Returns
/// `None` only if an op is already in flight on this thread.
pub fn start_forced(op: &str) -> Option<TraceGuard> {
    open(op, None)
}

/// Fills the thread's slot with a new op, or returns `None` when it is
/// taken. `flight` is the recorder's side of an [`op_scope`] op; without it
/// the caller has already decided the trace goes to the sampled ring.
///
/// [`op_scope`]: crate::flight::op_scope
pub(crate) fn open(op: &str, mut flight: Option<OpMeta>) -> Option<TraceGuard> {
    ACTIVE.with(|cell| {
        let mut active = cell.borrow_mut();
        if active.is_some() {
            return None;
        }
        let c = collector();
        if let Some(meta) = &mut flight {
            // A recorded op takes its turn at the sampler too, so arming a
            // recorder does not starve the sampled ring.
            meta.sampled = c.selects();
        }
        let mut opened = ActiveOp {
            trace_id: c.next_trace_id.fetch_add(1, Ordering::Relaxed),
            epoch: clock::now(),
            spans: Vec::with_capacity(16),
            stack: Vec::with_capacity(8),
            truncated: false,
            flight,
        };
        opened.push_span(op, "", SpanKind::Op);
        *active = Some(opened);
        Some(TraceGuard { _priv: () })
    })
}

/// RAII handle for the op in flight, whichever door opened it. Dropping it
/// (or calling [`TraceGuard::finish`]) closes the root span and commits the
/// op: to its flight recorder when it has one, to the sampled ring when it
/// was sampled or forced.
pub struct TraceGuard {
    _priv: (),
}

impl TraceGuard {
    /// Ends the op and returns a copy of its trace, for callers that want
    /// to render it immediately.
    pub fn finish(self) -> Trace {
        std::mem::forget(self);
        commit(true).expect("op in flight while its guard is held")
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        commit(false);
    }
}

/// The one place an op ends: its root span closes and the finished trace
/// is routed. Returns a copy when asked to.
fn commit(want_copy: bool) -> Option<Trace> {
    let mut finished = ACTIVE.with(|cell| cell.borrow_mut().take())?;
    finished.close_span(0);
    let trace = Trace {
        trace_id: finished.trace_id,
        op: finished.spans[0].op.clone(),
        phases: finished.spans[0].phases,
        spans: finished.spans,
        truncated: finished.truncated,
    };
    let copy = want_copy.then(|| trace.clone());
    let sampled = match finished.flight {
        Some(meta) => meta.observe(trace),
        None => Some(trace),
    };
    if let Some(trace) = sampled {
        collector().ring.lock().push(trace);
    }
    copy
}

/// Drains up to `n` of the most recent finished traces, newest last.
/// Anything older than the last `n` is discarded (and **not** counted as
/// dropped — the caller chose to skip it); use [`peek_recent`] for a
/// non-destructive view.
pub fn take_recent(n: usize) -> Vec<Trace> {
    collector().ring.lock().drain(n)
}

/// Clones up to `n` of the most recent finished traces, newest last,
/// leaving the ring intact (the `/traces/recent` endpoint's read path).
pub fn peek_recent(n: usize) -> Vec<Trace> {
    collector().ring.lock().recent(n)
}

/// Traces evicted unread from the full ring since process start (also
/// exported as `obs_traces_dropped_total`).
pub fn dropped_total() -> u64 {
    collector().ring.lock().evicted()
}

/// Opens a span under the op in flight. Returns `None` (with zero cost
/// beyond a thread-local read) when there is none.
pub fn span(op: &str, node: &str, kind: SpanKind) -> Option<SpanScope> {
    with_active(|active| active.push_span(op, node, kind)).map(|id| SpanScope { id })
}

/// Convenience wrapper: an RPC span served by `node`.
pub fn rpc_span(op: &str, node: &str) -> Option<SpanScope> {
    span(op, node, SpanKind::Rpc)
}

/// Adds queue-wait time to the innermost open span, if any. Lets deep
/// plumbing (`SimNode` admission) annotate the span its caller opened.
pub fn note_queue_on_current(nanos: u64) {
    note_on_current(|span| span.queue_nanos += nanos);
}

/// Adds injected simulated latency to the innermost open span, if any.
pub fn note_injected_on_current(nanos: u64) {
    note_on_current(|span| span.injected_nanos += nanos);
}

fn note_on_current(f: impl FnOnce(&mut Span)) {
    with_active(|active| {
        let &(top, _) = active.stack.last()?;
        f(&mut active.spans[top as usize]);
        Some(())
    });
}

/// Runs `f` on the recorder's side of the op in flight, if it has one
/// (what [`flight::annotate_with`](crate::flight::annotate_with) reads).
pub(crate) fn with_op_meta(f: impl FnOnce(&mut OpMeta)) {
    with_active(|active| active.flight.as_mut().map(f));
}

/// RAII handle for an open span; closes the span on drop.
pub struct SpanScope {
    id: u32,
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        with_active(|active| active.close_span(self.id));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::PoisonError;

    /// The sample rate and the sampled ring are process-global: tests that
    /// set the one or drain the other take turns.
    pub(crate) static SAMPLE_RATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn spans_nest_and_commit() {
        let _rate = SAMPLE_RATE.lock().unwrap_or_else(PoisonError::into_inner);
        set_sample_rate(0.0);
        assert!(start("nope").is_none(), "sampling off blocks start()");

        let guard = start_forced("lookup /a/b").expect("forced trace");
        {
            let _outer = rpc_span("resolve", "index0").unwrap();
            note_injected_on_current(200_000);
            {
                let _inner = span("cache_probe", "", SpanKind::Local).unwrap();
            }
        }
        {
            let _s = rpc_span("get_attr", "tafdb1").unwrap();
            note_queue_on_current(5_000);
        }
        let trace = guard.finish();
        assert_eq!(trace.rpc_count(), 2);
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(trace.spans[3].parent, Some(0));
        assert_eq!(trace.spans[1].injected_nanos, 200_000);
        assert_eq!(trace.spans[3].queue_nanos, 5_000);
        assert!(!trace.truncated);

        let rendered = trace.render();
        assert!(rendered.contains("2 rpcs"));
        assert!(rendered.contains("[index0]"));
        assert!(rendered.contains("cache_probe"));

        let recent = take_recent(8);
        assert!(recent.iter().any(|t| t.trace_id == trace.trace_id));
    }

    #[test]
    fn no_active_trace_means_no_spans() {
        assert!(span("x", "", SpanKind::Local).is_none());
    }

    #[test]
    fn only_one_trace_per_thread() {
        let g = start_forced("outer").unwrap();
        assert!(start_forced("inner").is_none());
        drop(g);
        assert!(start_forced("next").is_some());
    }

    #[test]
    fn sampling_interval_selects_subset() {
        let _rate = SAMPLE_RATE.lock().unwrap_or_else(PoisonError::into_inner);
        // Rate 0.5 → interval 2 → roughly half of starts are selected.
        set_sample_rate(0.5);
        let mut hits = 0;
        for _ in 0..10 {
            if let Some(g) = start("sampled") {
                hits += 1;
                drop(g);
            }
        }
        set_sample_rate(0.0);
        assert!(
            (4..=6).contains(&hits),
            "expected ~half sampled, got {hits}"
        );
    }

    #[test]
    fn truncation_sets_flag() {
        let g = start_forced("deep").unwrap();
        for _ in 0..MAX_SPANS_PER_TRACE + 10 {
            let _s = span("leg", "n", SpanKind::Rpc);
        }
        let t = g.finish();
        assert!(t.truncated);
        assert!(t.spans.len() <= MAX_SPANS_PER_TRACE);
    }

    #[test]
    fn trace_serializes_to_json() {
        let g = start_forced("ser").unwrap();
        drop(span("leg", "n0", SpanKind::Rpc));
        let t = g.finish();
        let text = serde_json::to_string(&t).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v.get("op").and_then(serde_json::Value::as_str), Some("ser"));
        assert_eq!(
            v.get("spans")
                .and_then(serde_json::Value::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }
}
