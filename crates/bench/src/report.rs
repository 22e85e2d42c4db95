//! Table printing and JSON result persistence.

use std::io::Write;
use std::path::PathBuf;

use mantle_types::EnvConfig;
use serde::Serialize;

/// Collects printable rows and persists them to `results/<name>.json`.
pub struct Report {
    /// `(name, title)` of every figure the rows are persisted as; the
    /// first names the run's metrics and slow-op artifacts.
    figures: Vec<(&'static str, &'static str)>,
    rows: Vec<serde_json::Value>,
    /// Live scrape endpoint held for the duration of the run (with
    /// `MANTLE_OBS_ADDR` set); [`Report::finish`] stops it explicitly,
    /// after the result artifacts are on disk.
    obs_server: Option<mantle_obs::http::ObsServer>,
}

impl Report {
    /// Starts a report for one figure/table. This is every harness's entry
    /// point, so it also arms the flight recorder and starts the scrape
    /// endpoint when `MANTLE_OBS_ADDR` is set.
    pub fn new(name: &'static str, title: &'static str) -> Self {
        println!("=== {name}: {title} ===");
        mantle_obs::flight::global().arm();
        Report {
            figures: vec![(name, title)],
            rows: Vec::new(),
            obs_server: mantle_obs::http::serve_if_configured(),
        }
    }

    /// Persists the same rows as a second figure too: a throughput figure
    /// and its latency breakdown are two readings of one measurement.
    pub fn also_as(mut self, name: &'static str, title: &'static str) -> Self {
        println!("=== {name}: {title} ===");
        self.figures.push((name, title));
        self
    }

    /// Records one result row (also used for the JSON dump).
    pub fn row<T: Serialize>(&mut self, row: &T) {
        self.rows
            .push(serde_json::to_value(row).expect("serializable row"));
    }

    /// Prints a free-form line (it is not persisted).
    pub fn line(&self, text: impl AsRef<str>) {
        println!("{}", text.as_ref());
    }

    /// Writes `results/<name>.json` and prints the path. With
    /// `MANTLE_METRICS=on` a snapshot of the global metrics registry is also
    /// persisted to `results/<name>.metrics.json` (see DESIGN.md
    /// §Observability). Then, if any op of the run failed for a reason the
    /// harness did not ask for, exits the process non-zero: a figure drawn
    /// over failed ops is not a result.
    pub fn finish(mut self) {
        self.write_artifacts();
        self.stop_obs_server();
        let failed = mantle_workloads::driver::unexpected_failures();
        if failed > 0 {
            eprintln!(
                "{}: {failed} ops failed (first failure above)",
                self.figures[0].0
            );
            std::process::exit(1);
        }
    }

    fn write_artifacts(&self) {
        let dir = PathBuf::from("results");
        if std::fs::create_dir_all(&dir).is_err() {
            eprintln!("warning: cannot create results/; skipping JSON dump");
            return;
        }
        for (name, title) in &self.figures {
            let path = dir.join(format!("{name}.json"));
            let payload = serde_json::json!({
                "figure": name,
                "title": title,
                "rows": self.rows,
            });
            match write_json(&path, &payload) {
                Ok(()) => println!("[results written to {}]", path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
        }
        let name = self.figures[0].0;
        if EnvConfig::get().metrics {
            let mpath = dir.join(format!("{name}.metrics.json"));
            let snapshot = serde_json::to_value(mantle_obs::snapshot()).expect("snapshot");
            match write_json(&mpath, &snapshot) {
                Ok(()) => println!("[metrics written to {}]", mpath.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", mpath.display()),
            }
        }
        // Any force-captured slow ops ride along as a post-mortem artifact.
        let recorder = mantle_obs::flight::global();
        if recorder.slow_captured_total() > 0 {
            let spath = dir.join(format!("{name}.slow.json"));
            let payload = serde_json::json!({
                "captured_total": recorder.slow_captured_total(),
                "dropped_total": recorder.slow_dropped_total(),
                "events": recorder.slow_recent(64),
                "attribution": recorder.explain_all(),
            });
            match write_json(&spath, &payload) {
                Ok(()) => println!("[slow ops written to {}]", spath.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", spath.display()),
            }
        }
    }

    /// Stops the scrape endpoint, last: every artifact is on disk before
    /// the port goes away, so a scraper that saw the results line can no
    /// longer race a half-written run, and one mid-request gets served
    /// (drop joins the acceptor rather than aborting it).
    fn stop_obs_server(&mut self) {
        if let Some(server) = self.obs_server.take() {
            let addr = server.local_addr();
            drop(server);
            eprintln!("mantle-obs: stopped scrape endpoint on http://{addr}");
        }
    }
}

/// Writes pretty-printed JSON, propagating (rather than discarding) the
/// I/O error so `finish` can report a full disk or unwritable path.
fn write_json(path: &std::path::Path, payload: &serde_json::Value) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "{}",
        serde_json::to_string_pretty(payload).expect("json")
    )?;
    f.flush()
}

/// Formats an ops/s figure compactly ("58.8K", "1.89M").
pub fn fmt_ops(ops: f64) -> String {
    if ops >= 1e6 {
        format!("{:.2}M", ops / 1e6)
    } else if ops >= 1e3 {
        format!("{:.1}K", ops / 1e3)
    } else {
        format!("{ops:.0}")
    }
}

/// Formats microseconds.
pub fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2}s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2}ms", us / 1e3)
    } else {
        format!("{us:.0}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_ops(1_890_000.0), "1.89M");
        assert_eq!(fmt_ops(58_800.0), "58.8K");
        assert_eq!(fmt_ops(42.0), "42");
        assert_eq!(fmt_us(250.0), "250us");
        assert_eq!(fmt_us(5_200.0), "5.20ms");
        assert_eq!(fmt_us(2_000_000.0), "2.00s");
    }
}
