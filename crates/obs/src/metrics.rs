//! Cluster-wide metrics: a cheap, sharded registry of named counters,
//! gauges and histograms.
//!
//! Handle acquisition (`counter()`, `gauge()`, `histogram()`) takes a
//! shard lock and hashes the (name, labels) key; subsystems do it once at
//! construction and store the returned handle. The handles themselves are
//! `Arc`s around atomics (or a mutex-wrapped [`Histogram`]), so the hot
//! path is a single atomic RMW — cheap enough to leave enabled during the
//! figure harnesses (see the overhead test in `tests/observability.rs`).
//!
//! A [`Counter`] is the one count of an event: every handle
//! [`Registry::counter`] returns owns a cell of its own, so `handle.get()`
//! is what *that* holder counted (what `TafDb::counters()` or
//! `SimNode::snapshot()` report), and the registry series is the sum of
//! its cells. Gauges and histograms stay shared by name.
//!
//! Per-node scoping uses labels, Prometheus-style:
//! `simnode_served_total{node="tafdb3"}`. [`Registry::snapshot`] freezes
//! every metric into a [`MetricsSnapshot`] that renders as Prometheus
//! exposition text or serializes to JSON (vendored serde).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mantle_types::hist::Histogram;
use parking_lot::Mutex;
use serde::Serialize;

/// Number of registry shards; keys are spread by hash to keep handle
/// acquisition contention low when many nodes register at once.
const SHARDS: usize = 16;

/// A monotonically increasing counter: one cell of a registry series. A
/// clone shares its cell; a second [`Registry::counter`] call for the same
/// series gets a cell of its own.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// What this handle (and its clones) counted.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// The registry side of one counter series: the cells of its live handles
/// plus what dropped handles had counted, so the series never goes back.
#[derive(Default)]
struct CounterSeries {
    cells: Vec<Arc<AtomicU64>>,
    retired: u64,
}

impl CounterSeries {
    /// The series' value. Cells whose every handle is gone are folded into
    /// `retired` on the way.
    fn total(&mut self) -> u64 {
        let (mut live, retired) = (0, &mut self.retired);
        self.cells.retain(|cell| {
            let held = Arc::strong_count(cell) > 1;
            if held {
                live += cell.load(Ordering::Relaxed);
            } else {
                // Only the registry holds this cell and no `Weak` exists,
                // so its value is final. The fence pairs with the `Release`
                // decrement of the last handle's drop: that holder's
                // increments happen before this load.
                fence(Ordering::Acquire);
                *retired += cell.load(Ordering::Relaxed);
            }
            held
        });
        self.retired + live
    }

    fn attach(&mut self) -> Counter {
        // For its pruning: handles made and dropped per event (by-name
        // `counter(..).inc()`) must not pile cells up.
        self.total();
        let counter = Counter::default();
        self.cells.push(Arc::clone(&counter.cell));
        counter
    }
}

/// A gauge: a value that can move both ways, plus a high-water-mark helper.
#[derive(Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A latency/size distribution backed by [`mantle_types::hist::Histogram`]
/// (log-bucketed, ~4.6% relative error).
#[derive(Clone, Default)]
pub struct HistogramMetric {
    value: Arc<Mutex<Histogram>>,
}

impl HistogramMetric {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.value.lock().record(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.value.lock().count()
    }

    /// A point-in-time copy of the distribution.
    pub fn freeze(&self) -> Histogram {
        self.value.lock().clone()
    }
}

/// Label set: sorted key/value pairs, e.g. `[("node", "tafdb3")]`.
pub type Labels = Vec<(String, String)>;

#[derive(Clone, PartialEq, Eq, Hash)]
struct MetricKey {
    name: &'static str,
    labels: Labels,
}

enum Metric {
    Counter(CounterSeries),
    Gauge(Gauge),
    Histogram(HistogramMetric),
}

/// The sharded metric registry. Most callers use the process-wide
/// [`global()`] instance through the free functions in this module.
#[derive(Default)]
pub struct Registry {
    shards: [Mutex<HashMap<MetricKey, Metric>>; SHARDS],
}

fn owned_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl Registry {
    /// Creates an empty registry (tests; production uses [`global()`]).
    pub fn new() -> Self {
        Registry::default()
    }

    fn shard(&self, key: &MetricKey) -> &Mutex<HashMap<MetricKey, Metric>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Looks `name{labels}` up, creating it with `make` on first use, and
    /// returns what `pick` takes from it. `pick` declining means the key was
    /// registered with another metric type — a naming bug worth a panic.
    fn get_or_create<H>(
        &self,
        name: &'static str,
        labels: &[(&str, &str)],
        make: fn() -> Metric,
        pick: fn(&mut Metric) -> Option<H>,
    ) -> H {
        let key = MetricKey {
            name,
            labels: owned_labels(labels),
        };
        let mut shard = self.shard(&key).lock();
        pick(shard.entry(key).or_insert_with(make))
            .unwrap_or_else(|| panic!("metric {name} already registered with a different type"))
    }

    /// Returns a new handle on the counter series `name{labels}`, creating
    /// the series on first use. The handle counts into a cell of its own;
    /// the series reports the sum over every handle ever returned.
    ///
    /// Panics (as do [`Registry::gauge`] and [`Registry::histogram`]) if the
    /// same key was registered earlier with a different metric type.
    pub fn counter(&self, name: &'static str, labels: &[(&str, &str)]) -> Counter {
        let make = || Metric::Counter(CounterSeries::default());
        self.get_or_create(name, labels, make, |m| match m {
            Metric::Counter(series) => Some(series.attach()),
            _ => None,
        })
    }

    /// Returns the gauge `name{labels}`, creating it on first use.
    pub fn gauge(&self, name: &'static str, labels: &[(&str, &str)]) -> Gauge {
        let make = || Metric::Gauge(Gauge::default());
        self.get_or_create(name, labels, make, |m| match m {
            Metric::Gauge(g) => Some(g.clone()),
            _ => None,
        })
    }

    /// Returns the histogram `name{labels}`, creating it on first use.
    pub fn histogram(&self, name: &'static str, labels: &[(&str, &str)]) -> HistogramMetric {
        let make = || Metric::Histogram(HistogramMetric::default());
        self.get_or_create(name, labels, make, |m| match m {
            Metric::Histogram(h) => Some(h.clone()),
            _ => None,
        })
    }

    /// Freezes every registered metric into a serializable snapshot,
    /// sorted by name then labels for stable output.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for shard in &self.shards {
            for (key, metric) in shard.lock().iter_mut() {
                let name = key.name.to_string();
                let labels = key.labels.clone();
                match metric {
                    Metric::Counter(series) => counters.push(CounterSample {
                        name,
                        labels,
                        value: series.total(),
                    }),
                    Metric::Gauge(g) => gauges.push(GaugeSample {
                        name,
                        labels,
                        value: g.get(),
                    }),
                    Metric::Histogram(h) => {
                        let hist = h.freeze();
                        histograms.push(HistogramSample {
                            name,
                            labels,
                            count: hist.count(),
                            mean: hist.mean(),
                            min: if hist.count() > 0 { hist.min() } else { 0 },
                            max: hist.max(),
                            p50: hist.quantile(0.50),
                            p90: hist.quantile(0.90),
                            p99: hist.quantile(0.99),
                        });
                    }
                }
            }
        }
        counters.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        gauges.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        histograms.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// One counter at snapshot time.
#[derive(Clone, Debug, Serialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// Counter value.
    pub value: u64,
}

/// One gauge at snapshot time.
#[derive(Clone, Debug, Serialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// Gauge value.
    pub value: i64,
}

/// One histogram at snapshot time (summary quantiles, not raw buckets).
#[derive(Clone, Debug, Serialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// Number of samples.
    pub count: u64,
    /// Mean sample value.
    pub mean: f64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// A point-in-time copy of every metric in a registry.
#[derive(Clone, Debug, Serialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by (name, labels).
    pub counters: Vec<CounterSample>,
    /// All gauges, sorted by (name, labels).
    pub gauges: Vec<GaugeSample>,
    /// All histograms, sorted by (name, labels).
    pub histograms: Vec<HistogramSample>,
}

fn render_labels(labels: &Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", pairs.join(","))
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote and newline (in that order, so the escape
/// character itself is escaped first).
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    /// Histograms are emitted as summaries (`_count`, `_sum`-less
    /// quantile series) since the registry keeps log-bucketed quantiles,
    /// not cumulative buckets.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        // Series are sorted by name, so one `# TYPE` line heads each
        // metric family even when it has many label sets.
        let mut last = String::new();
        for c in &self.counters {
            if c.name != last {
                out.push_str(&format!("# TYPE {} counter\n", c.name));
                last.clone_from(&c.name);
            }
            out.push_str(&format!(
                "{}{} {}\n",
                c.name,
                render_labels(&c.labels),
                c.value
            ));
        }
        last.clear();
        for g in &self.gauges {
            if g.name != last {
                out.push_str(&format!("# TYPE {} gauge\n", g.name));
                last.clone_from(&g.name);
            }
            out.push_str(&format!(
                "{}{} {}\n",
                g.name,
                render_labels(&g.labels),
                g.value
            ));
        }
        last.clear();
        for h in &self.histograms {
            if h.name != last {
                out.push_str(&format!("# TYPE {} summary\n", h.name));
                last.clone_from(&h.name);
            }
            for (q, v) in [(0.5, h.p50), (0.9, h.p90), (0.99, h.p99)] {
                let mut labels = h.labels.clone();
                labels.push(("quantile".to_string(), format!("{q}")));
                out.push_str(&format!("{}{} {}\n", h.name, render_labels(&labels), v));
            }
            out.push_str(&format!(
                "{}_count{} {}\n",
                h.name,
                render_labels(&h.labels),
                h.count
            ));
        }
        out
    }

    /// Sum of a counter across every label set (0 if absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Total sample count of a histogram across every label set.
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.histograms
            .iter()
            .filter(|h| h.name == name)
            .map(|h| h.count)
            .sum()
    }
}

/// The process-wide registry every subsystem reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Counter `name{labels}` in the global registry.
pub fn counter(name: &'static str, labels: &[(&str, &str)]) -> Counter {
    global().counter(name, labels)
}

/// Gauge `name{labels}` in the global registry.
pub fn gauge(name: &'static str, labels: &[(&str, &str)]) -> Gauge {
    global().gauge(name, labels)
}

/// Histogram `name{labels}` in the global registry.
pub fn histogram(name: &'static str, labels: &[(&str, &str)]) -> HistogramMetric {
    global().histogram(name, labels)
}

/// Snapshot of the global registry.
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_count_alone_and_the_series_is_their_sum() {
        let r = Registry::new();
        let a = r.counter("x_total", &[("node", "n0")]);
        let b = r.counter("x_total", &[("node", "n0")]);
        a.inc();
        b.add(2);
        assert_eq!((a.get(), b.get()), (1, 2));
        let other = r.counter("x_total", &[("node", "n1")]);
        other.inc();
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 2, "one series per label set");
        assert_eq!(snap.counters[0].value, 3);
        assert_eq!(snap.counter_total("x_total"), 4);
    }

    #[test]
    fn a_dropped_handle_keeps_its_count_in_the_series() {
        let r = Registry::new();
        let kept = r.counter("y_total", &[]);
        kept.inc();
        r.counter("y_total", &[]).add(5);
        assert_eq!(r.snapshot().counter_total("y_total"), 6);
        // A later handle starts from zero; the series does not go back.
        let late = r.counter("y_total", &[]);
        assert_eq!(late.get(), 0);
        late.inc();
        drop(kept);
        assert_eq!(r.snapshot().counter_total("y_total"), 7);
        assert_eq!(r.snapshot().counter_total("y_total"), 7);
    }

    #[test]
    fn a_clone_shares_its_cell() {
        let r = Registry::new();
        let a = r.counter("z_total", &[]);
        let b = a.clone();
        a.inc();
        b.inc();
        assert_eq!((a.get(), b.get()), (2, 2));
        drop(a);
        // The clone keeps the cell live: still counted once, still counting.
        b.inc();
        assert_eq!(r.snapshot().counter_total("z_total"), 3);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.counter("dual", &[]);
        r.gauge("dual", &[]);
    }

    #[test]
    fn snapshot_sorted_and_serializable() {
        let r = Registry::new();
        r.counter("b_total", &[]).inc();
        r.counter("a_total", &[("node", "z")]).inc();
        r.counter("a_total", &[("node", "a")]).inc();
        let h = r.histogram("lat_nanos", &[]);
        for v in [10, 20, 30, 40] {
            h.record(v);
        }
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a_total", "a_total", "b_total"]);
        assert_eq!(snap.counters[0].labels[0].1, "a");

        let json = serde_json::to_string_pretty(&snap).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(parsed.get("counters").is_some());

        let text = snap.to_prometheus_text();
        assert!(text.contains("a_total{node=\"a\"} 1"));
        assert!(text.contains("# TYPE lat_nanos summary"));
        assert!(text.contains("lat_nanos_count 4"));
    }

    #[test]
    fn hostile_label_values_escape_and_round_trip() {
        let r = Registry::new();
        // Backslash, double quote and newline — every character the
        // exposition format requires escaping, plus a benign unicode tail.
        let hostile = "a\\b\"c\nd→e";
        r.counter("hostile_total", &[("path", hostile)]).inc();
        let text = r.snapshot().to_prometheus_text();
        let line = text
            .lines()
            .find(|l| l.starts_with("hostile_total{"))
            .expect("sample line present");
        assert_eq!(
            line, "hostile_total{path=\"a\\\\b\\\"c\\nd→e\"} 1",
            "escaping must cover backslash, quote and newline"
        );
        // No label value may leak a raw newline or unescaped quote: every
        // emitted line must still be `name{labels} value`.
        for l in text.lines() {
            assert!(
                l.starts_with('#') || l.ends_with(" 1"),
                "malformed exposition line: {l:?}"
            );
        }
        // Round-trip: un-escaping the rendered value restores the original.
        let start = line.find('"').unwrap() + 1;
        let end = line.rfind('"').unwrap();
        let rendered = &line[start..end];
        let mut restored = String::new();
        let mut chars = rendered.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('\\') => restored.push('\\'),
                    Some('"') => restored.push('"'),
                    Some('n') => restored.push('\n'),
                    other => panic!("unknown escape \\{other:?}"),
                }
            } else {
                restored.push(c);
            }
        }
        assert_eq!(restored, hostile);
    }

    #[test]
    fn histogram_metric_records() {
        let r = Registry::new();
        let h = r.histogram("h_nanos", &[("node", "n")]);
        h.record(100);
        h.record(200);
        assert_eq!(h.count(), 2);
        let snap = r.snapshot();
        assert_eq!(snap.histogram_count("h_nanos"), 2);
        let s = &snap.histograms[0];
        assert!(s.min >= 100 && s.max >= 190 && s.mean > 0.0);
    }
}
