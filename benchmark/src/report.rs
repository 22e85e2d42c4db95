//! Turns a run's observations into named metrics and prints them.

use serde_json::Value;

use crate::counters;
use crate::driver::{PassSummary, RunData};
use crate::isolated::Isolated;
use crate::mirror::{Layer, N_LAYERS};
use crate::spec;
use crate::stats::{iqr_share, median, LogHist};

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The per-pass values `value` is the median of; empty for a metric
    /// pooled over the passes.
    pub passes: Vec<f64>,
    /// Free-form remark for the text report (sample counts, noise bands).
    pub note: String,
}

impl Metric {
    fn pooled(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            passes: Vec::new(),
            note: String::new(),
        }
    }

    fn median_of(name: &str, unit: &'static str, passes: Vec<f64>) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: median(&passes),
            note: format!(
                "median of {} passes, spread {:.1}%",
                passes.len(),
                100.0 * iqr_share(&passes)
            ),
            passes,
        }
    }

    fn noted(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

fn per_pass(passes: &[&PassSummary], f: impl Fn(&PassSummary) -> f64) -> Vec<f64> {
    passes.iter().map(|p| f(p)).collect()
}

fn total(passes: &[&PassSummary], f: impl Fn(&PassSummary) -> u64) -> u64 {
    passes.iter().map(|p| f(p)).sum()
}

/// The three real-time readings of the workload as a whole, each the
/// median over `passes` of the per-pass value, in `spec::REAL_TIME` order.
fn real_time(passes: &[&PassSummary]) -> Vec<Metric> {
    vec![
        Metric::median_of(
            "ops_per_s",
            "1/s",
            per_pass(passes, |p| p.sum.completed() as f64 / p.wall_secs),
        ),
        Metric::median_of(
            "p50_us",
            "us",
            per_pass(passes, |p| p.sum.real.quantile(0.5) / 1e3),
        ),
        Metric::median_of(
            "cpu_us_per_op",
            "us",
            per_pass(passes, |p| 1e6 * p.cpu_secs / p.sum.completed() as f64),
        ),
    ]
}

/// The end-to-end metrics, in `spec::END_TO_END` order, and what an
/// untraced run prints besides: the real-time readings (unbounded: they
/// follow the host, see the README) and the modeled percentiles and
/// `failed_frac` (exact functions of the model, or zero, which the
/// contract does not take as metrics).
pub fn end_to_end(data: &RunData) -> (Vec<Metric>, Vec<Metric>) {
    let passes: Vec<&PassSummary> = data.passes.iter().filter(|p| !p.traced).collect();
    let attempted = total(&passes, |p| p.sum.attempted);
    let metrics = vec![
        Metric::median_of(
            "allocs_per_op",
            "count",
            per_pass(&passes, |p| p.sum.allocs as f64 / p.sum.attempted as f64),
        ),
        Metric::median_of(
            "alloc_bytes_per_op",
            "bytes",
            per_pass(&passes, |p| {
                p.sum.alloc_bytes as f64 / p.sum.attempted as f64
            }),
        ),
        Metric::pooled(
            "modeled_mean_us",
            "us",
            total(&passes, |p| p.sum.modeled_nanos) as f64 / attempted as f64 / 1e3,
        )
        .noted(format!("pooled over {attempted} ops")),
        Metric::pooled(
            "rpcs_per_op",
            "count",
            total(&passes, |p| p.sum.rpcs) as f64 / attempted as f64,
        ),
        Metric::pooled("peak_rss_mb", "MB", data.peak_rss_mb),
        Metric::median_of("setup_s", "s", data.setup_secs.clone())
            .noted(format!("median of {} set-ups", data.setup_secs.len())),
    ];
    let beyond = data.modeled.samples_beyond(0.99);
    let mut extra = real_time(&passes);
    extra.extend([
        Metric::pooled("modeled_p50_us", "us", data.modeled.quantile(0.5) / 1e3),
        Metric::pooled("modeled_p99_us", "us", data.modeled.quantile(0.99) / 1e3).noted(format!(
            "{} samples, {beyond} beyond it",
            data.modeled.count()
        )),
        Metric::pooled(
            "failed_frac",
            "fraction",
            failed(data) as f64 / attempted_with_checks(data) as f64,
        ),
    ]);
    (metrics, extra)
}

/// Ops attempted in measured passes plus final checks made.
pub fn attempted_with_checks(data: &RunData) -> u64 {
    data.passes.iter().map(|p| p.sum.attempted).sum::<u64>() + data.verdict.checks
}

/// Ops that returned `Err`, replies found wrong, and final checks failed.
pub fn failed(data: &RunData) -> u64 {
    data.passes
        .iter()
        .map(|p| p.sum.errored + p.sum.wrong)
        .sum::<u64>()
        + data.verdict.failures
}

/// Ops of the kinds the mirror decomposes (`objstat` … `mkdir`).
const MIRRORED_KINDS: std::ops::Range<usize> = 0..6;

/// The isolated timing loops as metrics.
pub fn isolated(loops: Vec<Isolated>) -> Vec<Metric> {
    loops
        .into_iter()
        .map(|i| {
            let note = if i.unit == "count" {
                String::new()
            } else {
                format!("min of batches, MAD {:.3}", i.mad)
            };
            Metric::pooled(&i.name, i.unit, i.value).noted(note)
        })
        .collect()
}

/// The per-layer metrics a traced run measures inside the workload
/// (counter deltas, spans, the client's own readings), in no particular
/// order.
pub fn per_layer(data: &RunData) -> Vec<Metric> {
    let (before, after) = &data.counters;
    let plain: Vec<&PassSummary> = data.passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&PassSummary> = data.passes.iter().filter(|p| p.traced).collect();
    let mut out: Vec<Metric> = Vec::new();

    let all_ops: u64 = data.passes.iter().map(|p| p.sum.attempted).sum();
    for (name, unit, value) in counters::layer_metrics(before, after, all_ops, data.measured_secs) {
        out.push(Metric::pooled(name, unit, value));
    }

    // Spans. Per mirrored op, in µs.
    let mut span_nanos = [0u64; N_LAYERS];
    let mut mirrored_ops = 0u64;
    for tracer in &data.tracers {
        for (sum, n) in span_nanos.iter_mut().zip(tracer.span_nanos) {
            *sum += n;
        }
        mirrored_ops += tracer.mirrored_ops;
    }
    let per_op_us = |layer: Layer| counters::ratio(span_nanos[layer as usize], mirrored_ops) / 1e3;
    let layers_us: f64 = [
        Layer::Types,
        Layer::Index,
        Layer::IndexPropose,
        Layer::TafdbRead,
        Layer::TafdbTxn,
    ]
    .map(per_op_us)
    .iter()
    .sum();
    let kinds_nanos = |passes: &[&PassSummary]| -> (u64, u64) {
        let nanos = passes
            .iter()
            .map(|p| p.sum.nanos_by_kind[MIRRORED_KINDS].iter().sum::<u64>())
            .sum();
        let ops = passes
            .iter()
            .map(|p| p.sum.by_kind[MIRRORED_KINDS].iter().sum::<u64>())
            .sum();
        (nanos, ops)
    };
    let (plain_nanos, plain_ops) = kinds_nanos(&plain);
    let untraced_us = counters::ratio(plain_nanos, plain_ops) / 1e3;
    out.push(Metric::pooled(
        "trace.types_self_us",
        "us",
        per_op_us(Layer::Types),
    ));
    out.push(Metric::pooled(
        "trace.index_us",
        "us",
        per_op_us(Layer::Index),
    ));
    out.push(Metric::pooled(
        "trace.index_propose_us",
        "us",
        per_op_us(Layer::IndexPropose),
    ));
    out.push(Metric::pooled(
        "trace.tafdb_read_us",
        "us",
        per_op_us(Layer::TafdbRead),
    ));
    out.push(Metric::pooled(
        "trace.tafdb_txn_us",
        "us",
        per_op_us(Layer::TafdbTxn),
    ));
    // `core` is what the layers beneath it do not account for: the
    // untraced whole op minus their spans. A `core_resolve` span (path
    // cache on) is core's own time and stays in the remainder.
    out.push(
        Metric::pooled("trace.core_self_us", "us", untraced_us - layers_us).noted(format!(
            "untraced mirrored-kind op {untraced_us:.3} us minus layer spans {layers_us:.3} us"
        )),
    );
    let covered_us = layers_us + per_op_us(Layer::CoreResolve);
    out.push(
        Metric::pooled(
            "trace.coverage_frac",
            "fraction",
            if untraced_us > 0.0 {
                covered_us / untraced_us
            } else {
                0.0
            },
        )
        .noted(format!("{mirrored_ops} mirrored ops")),
    );
    let pooled_hist = |passes: &[&PassSummary]| -> LogHist {
        let mut h = LogHist::new();
        passes.iter().for_each(|p| h.merge(&p.sum.real));
        h
    };
    let (plain_hist, traced_hist) = (pooled_hist(&plain), pooled_hist(&traced));
    out.extend(real_time(&plain));
    out.push(Metric::pooled(
        "trace.overhead_frac",
        "fraction",
        traced_hist.quantile(0.5) / plain_hist.quantile(0.5) - 1.0,
    ));
    out.push(
        Metric::pooled("client.real_p99_us", "us", plain_hist.quantile(0.99) / 1e3).noted(format!(
            "{} samples, {} beyond it",
            plain_hist.count(),
            plain_hist.samples_beyond(0.99)
        )),
    );
    out.push(
        Metric::pooled(
            "client.real_p999_us",
            "us",
            plain_hist.quantile(0.999) / 1e3,
        )
        .noted(format!("{} beyond it", plain_hist.samples_beyond(0.999))),
    );
    out.push(Metric::pooled(
        "client.bg_cpu_frac",
        "fraction",
        (1.0 - data.client_cpu_secs / data.process_cpu_secs).clamp(0.0, 1.0),
    ));
    out.push(Metric::pooled(
        "client.bg_allocs_per_s",
        "1/s",
        data.bg_allocs as f64 / data.measured_secs,
    ));
    out
}

/// Orders `metrics` as the spec lists them and fails on a metric the spec
/// does not list or lists with another unit. With `complete`, also on a
/// listed metric that was not measured, so that what the contract form
/// prints is exactly what `BENCHMARK.json` promises.
pub fn in_spec_order(
    metrics: Vec<Metric>,
    traced: bool,
    complete: bool,
) -> Result<Vec<Metric>, String> {
    let wanted: Vec<(&str, &str)> = if traced {
        spec::PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    if let Some(stray) = metrics
        .iter()
        .find(|m| !wanted.iter().any(|(name, _)| m.name == *name))
    {
        return Err(format!("metric {} is not in the spec", stray.name));
    }
    let mut ordered = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        match metrics.iter().find(|m| m.name == name) {
            Some(found) if found.unit != unit => {
                return Err(format!(
                    "metric {name} measured in {}, spec says {unit}",
                    found.unit
                ));
            }
            Some(found) => ordered.push(found.clone()),
            None if complete => return Err(format!("metric {name} was not measured")),
            None => {}
        }
    }
    Ok(ordered)
}

fn number(v: f64) -> Value {
    // The contract wants a number in every slot; a ratio of two zero
    // counts is reported as 0.
    Value::F64(if v.is_finite() { v } else { 0.0 })
}

/// `{name: {value, unit[, passes]}}`.
pub fn metrics_object(metrics: &[Metric], with_passes: bool) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), number(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ];
                if with_passes {
                    fields.push((
                        "passes".to_string(),
                        Value::Array(m.passes.iter().map(|&p| number(p)).collect()),
                    ));
                }
                (m.name.clone(), Value::Object(fields))
            })
            .collect(),
    )
}

/// The contract's result object: the last line of standard output.
pub fn contract_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let doc = Value::Object(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::U64(attempted.max(1))),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), metrics_object(metrics, false)),
    ]);
    serde_json::to_string(&doc).expect("serializable")
}

/// The detail record a suite run keeps per workload: the metrics with
/// their per-pass values (what `compare` judges spread by) and the extras.
pub fn detail(
    workload: &str,
    seed: u64,
    traced: bool,
    data: &RunData,
    metrics: &[Metric],
    extra: &[Metric],
) -> Value {
    Value::Object(vec![
        ("workload".to_string(), Value::Str(workload.to_string())),
        ("seed".to_string(), Value::U64(seed)),
        ("traced".to_string(), Value::Bool(traced)),
        (
            "attempted".to_string(),
            Value::U64(attempted_with_checks(data)),
        ),
        ("failed".to_string(), Value::U64(failed(data))),
        (
            "first_error".to_string(),
            data.first_error
                .as_ref()
                .map_or(Value::Null, |e| Value::Str(e.clone())),
        ),
        ("metrics".to_string(), metrics_object(metrics, true)),
        ("extra".to_string(), metrics_object(extra, true)),
    ])
}

/// Prints every metric by name with its unit.
pub fn print_table(workload: &str, metrics: &[Metric], extra: &[Metric]) {
    for m in metrics.iter().chain(extra) {
        let direction = spec::END_TO_END
            .iter()
            .find(|e| e.name == m.name)
            .map(|e| (e.better, Some(e.bound)))
            .or_else(|| {
                spec::PER_LAYER
                    .iter()
                    .find(|l| l.0 == m.name)
                    .map(|l| (l.2, None))
            });
        let tail = match direction {
            Some((better, Some(bound))) => {
                format!("{} is better, bound {:.0}%", better.label(), 100.0 * bound)
            }
            Some((better, None)) => format!("{} is better", better.label()),
            None => "not in the contract".to_string(),
        };
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("; {}", m.note)
        };
        println!(
            "{workload:<14} {:<40} {:>16.4} {:<9} ({tail}{note})",
            m.name, m.value, m.unit
        );
    }
}
