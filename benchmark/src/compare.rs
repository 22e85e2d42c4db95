//! `compare A B`: applies the bounds row by row to two sets of runs.
//!
//! A side is every untraced result in one suite file, or in all the suite
//! files under a directory, so a side can hold several runs of a workload
//! (`run.sh --runs K`, or alternating runs of two builds written to two
//! directories). A row's value is the median over the side's runs and its
//! spread the distance between their quartiles over that median.

use std::path::Path;

use serde_json::Value;

use crate::spec::{self, Better};
use crate::stats::{iqr_share, median};

/// Runs a side needs before the spread between them means anything: the
/// quartiles of fewer than five values are their extremes, and one stray
/// run would then decide the row.
const MIN_RUNS: usize = 5;

/// Member `key` of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// The untraced results of one side, from every file it names.
pub struct Side {
    results: Vec<Value>,
}

impl Side {
    /// Parses the text of suite files.
    pub fn parse<'a>(texts: impl IntoIterator<Item = &'a str>) -> Result<Side, String> {
        let mut results = Vec::new();
        for text in texts {
            let doc: Value =
                serde_json::from_str(text).map_err(|e| format!("not a result file: {e}"))?;
            let Some(Value::Array(items)) = field(&doc, "results") else {
                return Err("not a result file: no `results`".into());
            };
            results.extend(
                items
                    .iter()
                    .filter(|r| field(r, "traced") == Some(&Value::Bool(false)))
                    .cloned(),
            );
        }
        Ok(Side { results })
    }

    /// Reads a suite file, or every `.json` file under a directory.
    pub fn read(path: &Path) -> Result<Side, String> {
        let mut files = Vec::new();
        collect_json(path, &mut files)?;
        if files.is_empty() {
            return Err(format!("{}: no result files", path.display()));
        }
        files.sort();
        let texts = files
            .iter()
            .map(|f| std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display())))
            .collect::<Result<Vec<String>, String>>()?;
        Side::parse(texts.iter().map(String::as_str))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    fn runs_of(&self, workload: &str) -> Vec<&Value> {
        self.results
            .iter()
            .filter(|r| matches!(field(r, "workload"), Some(Value::Str(w)) if w == workload))
            .collect()
    }
}

fn collect_json(path: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    if !path.is_dir() {
        // A file named outright is read whatever it is called.
        std::fs::metadata(path).map_err(err)?;
        out.push(path.to_path_buf());
        return Ok(());
    }
    for entry in std::fs::read_dir(path).map_err(err)? {
        let child = entry.map_err(err)?.path();
        if child.is_dir() {
            collect_json(&child, out)?;
        } else if child.extension().is_some_and(|x| x == "json")
            && child
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("run-"))
        {
            out.push(child);
        }
    }
    Ok(())
}

/// By what share of `before` is `after` worse.
fn worse_by(before: f64, after: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (after - before) / before.abs(),
        Better::Higher => (before - after) / before.abs(),
    }
}

/// One metric on one side: a value per run.
struct Column {
    values: Vec<f64>,
}

impl Column {
    /// `group` is `metrics` (the contract's) or `extra` (printed only).
    fn of(runs: &[&Value], group: &str, metric: &str) -> Option<Column> {
        let values = runs
            .iter()
            .map(|r| as_f64(field(field(field(r, group)?, metric)?, "value")?))
            .collect::<Option<Vec<f64>>>()?;
        Some(Column { values })
    }

    fn median(&self) -> f64 {
        median(&self.values)
    }

    /// Spread between the runs, or `None` when there are too few to say.
    fn spread(&self) -> Option<f64> {
        (self.values.len() >= MIN_RUNS).then(|| iqr_share(&self.values))
    }
}

fn failed_frac(runs: &[&Value]) -> f64 {
    let sum = |key| -> f64 {
        runs.iter()
            .map(|r| field(r, key).and_then(as_f64).unwrap_or(0.0))
            .sum()
    };
    sum("failed") / sum("attempted").max(1.0)
}

fn pct(share: Option<f64>) -> String {
    share.map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s))
}

/// Compares side B with side A; returns the report and whether anything
/// is `worse` or `missing`.
pub fn compare(a: &Side, b: &Side) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut bad = false;
    let mut compared = 0;
    out.push_str(&format!(
        "{:<14} {:<20} {:>5} {:>13} {:>13} {:>8} {:>7} {:>7}  verdict\n",
        "workload", "metric", "runs", "A", "B", "change", "spread", "bound"
    ));
    for (workload, _) in spec::WORKLOADS {
        let (ra, rb) = (a.runs_of(workload), b.runs_of(workload));
        match (ra.is_empty(), rb.is_empty()) {
            (true, true) => continue,
            (false, false) => {}
            (a_lacks, _) => {
                bad = true;
                out.push_str(&format!(
                    "{workload:<14} missing from {}\n",
                    if a_lacks { "A" } else { "B" }
                ));
                continue;
            }
        }
        compared += 1;
        let runs = format!("{}/{}", ra.len(), rb.len());
        let mut row = |name: &str, group: &str, better: Better, bound: Option<f64>| {
            let (Some(ca), Some(cb)) = (Column::of(&ra, group, name), Column::of(&rb, group, name))
            else {
                return Err(format!("{workload}: {name} is missing from a run"));
            };
            let change = worse_by(ca.median(), cb.median(), better);
            // The wider of the two sides; unknown if either has too few runs.
            let spread = ca.spread().zip(cb.spread()).map(|(x, y)| x.max(y));
            let verdict = match (bound, spread) {
                // A bounded row: the runs of one side must agree among
                // themselves to within the bound before a verdict is
                // given. With too few runs to tell, the medians decide,
                // as they do for the driver.
                (Some(bound), Some(spread)) if spread > bound => "unresolved",
                (Some(bound), _) if change > bound => {
                    bad = true;
                    "worse"
                }
                (Some(_), _) => "ok",
                // A real-time row has no bound. It is shown with its spread
                // and not judged: whether a difference is real depends on
                // how the runs were ordered (alternating, or one side
                // after the other and so minutes of host drift apart),
                // which the files do not say.
                (None, _) => "not judged",
            };
            out.push_str(&format!(
                "{workload:<14} {name:<20} {runs:>5} {:>13.4} {:>13.4} {:>+7.1}% {:>7} {:>7}  {verdict}\n",
                ca.median(),
                cb.median(),
                100.0 * change,
                pct(spread),
                pct(bound),
            ));
            Ok(())
        };
        for m in &spec::END_TO_END {
            row(m.name, "metrics", m.better, Some(m.bound))?;
        }
        for name in spec::REAL_TIME {
            let better = spec::PER_LAYER
                .iter()
                .find(|l| l.0 == name)
                .map(|l| l.2)
                .expect("real-time metrics are per-layer metrics");
            row(name, "extra", better, None)?;
        }
        let (fa, fb) = (failed_frac(&ra), failed_frac(&rb));
        let verdict = if fb > fa + 0.001 {
            bad = true;
            "worse"
        } else {
            "ok"
        };
        out.push_str(&format!(
            "{workload:<14} {:<20} {runs:>5} {fa:>13.6} {fb:>13.6} {:>8} {:>7} {:>7}  {verdict}\n",
            "failed_frac", "", "", "+0.001"
        ));
    }
    if compared == 0 {
        return Err("the two sides have no workload in common".into());
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One untraced result: every contract metric reads 10 except
    /// `allocs_per_op`, every real-time reading 5 except `ops_per_s`.
    fn result(workload: &str, allocs: f64, ops: f64, failed: u64) -> String {
        let metrics: Vec<String> = spec::END_TO_END
            .iter()
            .map(|m| {
                let value = if m.name == "allocs_per_op" {
                    allocs
                } else {
                    10.0
                };
                format!(
                    "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let extra: Vec<String> = spec::REAL_TIME
            .iter()
            .map(|name| {
                let value = if *name == "ops_per_s" { ops } else { 5.0 };
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"x\"}}")
            })
            .collect();
        format!(
            "{{\"workload\":\"{workload}\",\"traced\":false,\"attempted\":1000,\"failed\":{failed},\"metrics\":{{{}}},\"extra\":{{{}}}}}",
            metrics.join(","),
            extra.join(",")
        )
    }

    /// A side holding `results`.
    fn side(results: &[String]) -> Side {
        Side::parse([format!("{{\"results\":[{}]}}", results.join(",")).as_str()]).unwrap()
    }

    /// A side holding one `read_deep` run per `(allocs_per_op, ops_per_s)`.
    fn reads(runs: &[(f64, f64)]) -> Side {
        let results: Vec<String> = runs
            .iter()
            .map(|&(allocs, ops)| result("read_deep", allocs, ops, 0))
            .collect();
        side(&results)
    }

    fn verdict_of(a: &Side, b: &Side, metric: &str) -> (String, bool) {
        let (report, bad) = compare(a, b).unwrap();
        let line = report
            .lines()
            .find(|l| l.contains(metric))
            .unwrap_or_else(|| panic!("no {metric} row in\n{report}"));
        let verdict = line.split_whitespace().last().unwrap().to_string();
        (verdict, bad)
    }

    #[test]
    fn bounded_rows_follow_the_bounds() {
        let bound = spec::END_TO_END[0].bound;
        assert_eq!(spec::END_TO_END[0].name, "allocs_per_op");
        let base = reads(&[(100.0, 1e5)]);
        let inside = reads(&[(100.0 + 50.0 * bound, 1e5)]);
        assert_eq!(
            verdict_of(&base, &inside, "allocs_per_op"),
            ("ok".into(), false)
        );
        let beyond = 100.0 + 150.0 * bound;
        assert_eq!(
            verdict_of(&base, &reads(&[(beyond, 1e5)]), "allocs_per_op"),
            ("worse".into(), true)
        );
        // Runs of one side that disagree by more than the bound: no verdict.
        let steady = reads(&[(100.0, 1e5); 5]);
        let wild = reads(&[
            (60.0, 1e5),
            (80.0, 1e5),
            (beyond, 1e5),
            (140.0, 1e5),
            (180.0, 1e5),
        ]);
        assert_eq!(
            verdict_of(&steady, &wild, "allocs_per_op"),
            ("unresolved".into(), false)
        );
        // Too few runs to know the spread: the medians decide.
        assert_eq!(
            verdict_of(
                &base,
                &reads(&[(60.0, 1e5), (beyond, 1e5), (180.0, 1e5)]),
                "allocs_per_op"
            ),
            ("worse".into(), true)
        );
        // Failures count absolutely.
        let failing = side(&[result("read_deep", 100.0, 1e5, 5)]);
        assert_eq!(
            verdict_of(&base, &failing, "failed_frac"),
            ("worse".into(), true)
        );
    }

    #[test]
    fn real_time_rows_are_shown_and_never_judged() {
        let a = reads(&[(100.0, 1e5); 5]);
        let half = reads(&[(100.0, 5e4); 5]);
        assert_eq!(verdict_of(&a, &half, "ops_per_s"), ("judged".into(), false));
        let (report, _) = compare(&a, &half).unwrap();
        assert!(report.contains("+50.0%") && report.contains("not judged"));
    }

    #[test]
    fn a_workload_on_one_side_only_fails_the_comparison() {
        let both = side(&[
            result("read_deep", 100.0, 1e5, 0),
            result("obj_churn", 100.0, 1e5, 0),
        ]);
        let one = reads(&[(100.0, 1e5)]);
        let (report, bad) = compare(&both, &one).unwrap();
        assert!(
            bad && report.contains("obj_churn      missing from B"),
            "{report}"
        );
        let (report, bad) = compare(&one, &both).unwrap();
        assert!(bad && report.contains("missing from A"), "{report}");
        assert!(compare(&side(&[]), &side(&[])).is_err());
        assert!(Side::parse(["nonsense"]).is_err());
    }
}
