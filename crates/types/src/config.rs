//! Timing constants of the simulated substrate, and the process
//! environment ([`EnvConfig`]).
//!
//! The paper evaluates on a 53-server cluster with a 25 Gbps network and
//! NVMe SSDs. This reproduction replaces the hardware with injected delays
//! (see DESIGN.md §1): every cross-node RPC costs one network round trip,
//! every durable Raft append costs one fsync, and every data-service access
//! costs one device access. Unit tests run with [`SimConfig::instant`] so
//! the suite stays fast; the figure harnesses use [`SimConfig::default`].

use std::fmt;
use std::io::Write;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Scaled-down TafDB shard count used across the workspace.
///
/// The paper deploys 18 TafDB servers; this reproduction scales the cluster
/// to 8 shards (DESIGN.md §1). `TafDbOptions::default`, the LocoFS and
/// InfiniFS baselines, and the bench harnesses all derive their shard count
/// from this constant so tests and figures cannot silently diverge.
pub const SCALED_DB_SHARDS: usize = 8;

/// Knobs of TafDB's placement tick, `TafDb::rebalance_once` (dynamic shard
/// management), which a caller drives: Fig 19a′ ticks it between warmup
/// chunks. Until a tick runs, the shard map stays at its initial uniform
/// range partition and routing is bit-identical to the historical fixed
/// hash. A tick splits hot ranges, migrates them to the least-loaded shard
/// and merges cold neighbours (DESIGN.md §5.6).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlacementConfig {
    /// Max/mean shard busy-time ratio above which a tick acts on the
    /// hottest shard.
    pub imbalance_threshold: f64,
    /// Upper bound on shard-map ranges; beyond it a tick prefers merging
    /// cold neighbours over further splits.
    pub max_ranges: usize,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            imbalance_threshold: 1.5,
            max_ranges: 64,
        }
    }
}

/// Timing and capacity parameters of the simulated cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// One network round trip between proxy and a metadata server, in
    /// microseconds. Default 200 µs (datacenter RPC incl. software stack).
    pub rtt_micros: u64,
    /// One fsync of the Raft log / DB WAL, in microseconds. Default 100 µs
    /// (NVMe flush).
    pub fsync_micros: u64,
    /// One data-service (SSD) access, in microseconds (§3: "a single RPC
    /// plus tens of microseconds for device access"). Default 50 µs.
    pub device_micros: u64,
    /// CPU service time a metadata server spends per request, in
    /// microseconds. Charged on the caller's timeline.
    pub service_micros: u64,
    /// Extra CPU time the IndexNode spends per path level resolved through
    /// the IndexTable, in microseconds. This is what makes deep uncached
    /// resolutions CPU-bound (§5.1: "the single-RPC lookup still breaks
    /// down into several local accesses") and what the TopDirPathCache
    /// saves (Figures 16 and 18).
    pub index_level_micros: u64,
    /// Server count of a sharded-DB node (models a 32-core server, scaled
    /// down). Recorded on the node and enforced by nothing today; the
    /// modeled k-server queue of ROADMAP item 1(b) is its consumer.
    pub db_node_permits: usize,
    /// Server count of the single "big" nodes (IndexNode leader, LocoFS
    /// directory server, InfiniFS rename coordinator; the paper gives these
    /// 64-core machines). Recorded, not enforced, like `db_node_permits`.
    pub index_node_permits: usize,
    /// Admission-queue depth cap per simulated node. `0` (the default)
    /// means unbounded queueing — the pre-admission-control behaviour.
    /// When non-zero, a node sheds requests with `MetaError::Overloaded`
    /// once its modeled backlog reaches the cap (DESIGN.md §4.14).
    pub queue_cap: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            rtt_micros: 200,
            fsync_micros: 100,
            device_micros: 50,
            service_micros: 5,
            index_level_micros: 2,
            db_node_permits: 16,
            index_node_permits: 8,
            queue_cap: 0,
        }
    }
}

impl SimConfig {
    /// A configuration with all injected delays set to zero — used by unit
    /// and property tests.
    pub fn instant() -> Self {
        SimConfig {
            rtt_micros: 0,
            fsync_micros: 0,
            device_micros: 0,
            service_micros: 0,
            index_level_micros: 0,
            db_node_permits: usize::MAX,
            index_node_permits: usize::MAX,
            queue_cap: 0,
        }
    }

    /// A configuration with small but non-zero delays, for integration
    /// tests that need timing-sensitive behaviour without full-scale cost.
    pub fn fast() -> Self {
        SimConfig {
            rtt_micros: 20,
            fsync_micros: 10,
            device_micros: 5,
            service_micros: 1,
            index_level_micros: 1,
            db_node_permits: 16,
            index_node_permits: 32,
            queue_cap: 0,
        }
    }

    /// The network round-trip delay.
    pub fn rtt(&self) -> Duration {
        Duration::from_micros(self.rtt_micros)
    }

    /// The fsync delay.
    pub fn fsync(&self) -> Duration {
        Duration::from_micros(self.fsync_micros)
    }

    /// The storage-device access delay.
    pub fn device(&self) -> Duration {
        Duration::from_micros(self.device_micros)
    }

    /// The per-request CPU service time.
    pub fn service(&self) -> Duration {
        Duration::from_micros(self.service_micros)
    }
}

/// The storage engine `MANTLE_ENGINE` names (`mantle-engine`'s
/// `EngineKind` is built from it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineName {
    /// Reader-writer-locked B-tree.
    Btree,
    /// Copy-on-write version chains.
    Mvcc,
}

/// The harness run size `MANTLE_SCALE` names (`mantle-bench`'s `Scale` is
/// built from it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalePreset {
    /// Minutes on one core.
    Quick,
    /// Closer to the paper's client counts.
    Full,
    /// Seconds; exercises every code path, curves are meaningless.
    Smoke,
}

/// Every `MANTLE_*` environment variable the workspace reads, parsed in one
/// place. These are *ambient defaults*: what `TafDbOptions::default()`,
/// `MantleConfig::default()`, the harnesses and the test matrix pick up
/// when the caller sets nothing. An explicit struct field always wins.
/// README.md ("Environment") has the table of names.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvConfig {
    /// `MANTLE_ENGINE`: engine behind `TafDbOptions::default()`.
    pub engine: EngineName,
    /// `MANTLE_PATH_CACHE`: whether `MantleConfig::default()` and
    /// `InfiniFs::new` enable the client path-lease cache.
    pub path_cache: bool,
    /// `MANTLE_FAULT_SEED`: the one seed the chaos tests run (unset: a
    /// small fixed sweep).
    pub fault_seed: Option<u64>,
    /// `MANTLE_CHAOS_BUNDLE_DIR`: where a panic under an active fault plan
    /// writes its repro bundle.
    pub chaos_bundle_dir: Option<PathBuf>,
    /// `MANTLE_OBS_ADDR`: `host:port` of the live scrape endpoint.
    pub obs_addr: Option<String>,
    /// `MANTLE_SCALE`: harness run size.
    pub scale: ScalePreset,
    /// `MANTLE_TRACE_SAMPLE`: share of operations traced, in `[0, 1]`.
    pub trace_sample: f64,
}

impl Default for EnvConfig {
    /// What an environment without any `MANTLE_*` variable parses to.
    fn default() -> Self {
        EnvConfig {
            engine: EngineName::Btree,
            path_cache: false,
            fault_seed: None,
            chaos_bundle_dir: None,
            obs_addr: None,
            scale: ScalePreset::Quick,
            trace_sample: 0.01,
        }
    }
}

const BOOL_VALUES: &str = "1|on|true or 0|off|false";

fn parse_bool(value: &str) -> Option<bool> {
    match value {
        "1" | "on" | "true" => Some(true),
        "0" | "off" | "false" => Some(false),
        _ => None,
    }
}

fn is_host_port(value: &str) -> bool {
    value
        .rsplit_once(':')
        .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok())
}

impl EnvConfig {
    /// The names [`EnvConfig::from_vars`] accepts.
    pub const NAMES: [&'static str; 7] = [
        "MANTLE_CHAOS_BUNDLE_DIR",
        "MANTLE_ENGINE",
        "MANTLE_FAULT_SEED",
        "MANTLE_OBS_ADDR",
        "MANTLE_PATH_CACHE",
        "MANTLE_SCALE",
        "MANTLE_TRACE_SAMPLE",
    ];

    /// Parses `(name, value)` pairs. Names outside `MANTLE_*` are ignored;
    /// an unknown `MANTLE_*` name or a malformed value is an error naming
    /// the variable and what it accepts, so a typo cannot silently run the
    /// default. Enumerated values match ASCII-case-insensitively.
    pub fn from_vars<K, V>(vars: impl IntoIterator<Item = (K, V)>) -> Result<Self, String>
    where
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let mut cfg = EnvConfig::default();
        for (name, value) in vars {
            let (name, value) = (name.as_ref(), value.as_ref());
            if !name.starts_with("MANTLE_") {
                continue;
            }
            let word = value.to_ascii_lowercase();
            let bad = |accepted: &str| format!("{name}={value:?}: expected {accepted}");
            match name {
                "MANTLE_ENGINE" => {
                    cfg.engine = match word.as_str() {
                        "btree" => EngineName::Btree,
                        "mvcc" => EngineName::Mvcc,
                        _ => return Err(bad("btree|mvcc")),
                    }
                }
                "MANTLE_PATH_CACHE" => {
                    cfg.path_cache = parse_bool(&word).ok_or_else(|| bad(BOOL_VALUES))?
                }
                "MANTLE_FAULT_SEED" => {
                    let seed = value.parse().map_err(|_| bad("a decimal u64"))?;
                    cfg.fault_seed = Some(seed);
                }
                "MANTLE_CHAOS_BUNDLE_DIR" => {
                    if value.is_empty() {
                        return Err(bad("a directory path"));
                    }
                    cfg.chaos_bundle_dir = Some(PathBuf::from(value));
                }
                "MANTLE_OBS_ADDR" => {
                    if !is_host_port(value) {
                        return Err(bad("host:port"));
                    }
                    cfg.obs_addr = Some(value.to_string());
                }
                "MANTLE_SCALE" => {
                    cfg.scale = match word.as_str() {
                        "quick" => ScalePreset::Quick,
                        "full" => ScalePreset::Full,
                        "smoke" => ScalePreset::Smoke,
                        _ => return Err(bad("quick|full|smoke")),
                    }
                }
                "MANTLE_TRACE_SAMPLE" => {
                    cfg.trace_sample = value
                        .parse()
                        .ok()
                        .filter(|rate| (0.0..=1.0).contains(rate))
                        .ok_or_else(|| bad("a number in [0, 1]"))?
                }
                _ => {
                    return Err(format!(
                        "{name}: unknown variable; the MANTLE_* names are {}",
                        Self::NAMES.join(", ")
                    ))
                }
            }
        }
        Ok(cfg)
    }

    /// The process environment, parsed on first use. A rejected variable
    /// ends the process (status 2) with the parse error: binaries call this
    /// first in `main`, so that happens before any work.
    pub fn get() -> &'static EnvConfig {
        static CONFIG: OnceLock<EnvConfig> = OnceLock::new();
        CONFIG.get_or_init(|| {
            let vars = std::env::vars_os().filter_map(|(name, value)| {
                Some((
                    name.into_string().ok()?,
                    value.to_string_lossy().into_owned(),
                ))
            });
            EnvConfig::from_vars(vars).unwrap_or_else(|e| {
                // Not `eprintln!`: the test harness captures that, and the
                // capture dies with the process.
                let _ = writeln!(std::io::stderr(), "mantle: {e}");
                std::process::exit(2)
            })
        })
    }
}

/// One `NAME=value` line per variable (what `mantle-cli stats` prints).
impl fmt::Display for EnvConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn or_unset<T: fmt::Display>(value: Option<T>) -> String {
            value.map_or("(unset)".to_string(), |v| v.to_string())
        }
        // The enum variants are the accepted words, capitalised.
        let word = |variant: &dyn fmt::Debug| format!("{variant:?}").to_lowercase();
        writeln!(f, "MANTLE_ENGINE={}", word(&self.engine))?;
        writeln!(f, "MANTLE_PATH_CACHE={}", self.path_cache)?;
        writeln!(f, "MANTLE_FAULT_SEED={}", or_unset(self.fault_seed))?;
        let bundle_dir = self.chaos_bundle_dir.as_ref().map(|d| d.display());
        writeln!(f, "MANTLE_CHAOS_BUNDLE_DIR={}", or_unset(bundle_dir))?;
        writeln!(f, "MANTLE_OBS_ADDR={}", or_unset(self.obs_addr.as_ref()))?;
        writeln!(f, "MANTLE_SCALE={}", word(&self.scale))?;
        writeln!(f, "MANTLE_TRACE_SAMPLE={}", self.trace_sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Result<EnvConfig, String> {
        EnvConfig::from_vars(vars.iter().copied())
    }

    #[test]
    fn empty_environment_is_the_defaults() {
        let cfg = parse(&[("PATH", "/bin"), ("HOME", "/root")]).unwrap();
        assert_eq!(cfg.engine, EngineName::Btree);
        assert!(!cfg.path_cache);
        assert_eq!(cfg.scale, ScalePreset::Quick);
        assert_eq!(cfg.trace_sample, 0.01);
        assert_eq!(
            (cfg.fault_seed, cfg.chaos_bundle_dir, cfg.obs_addr),
            (None, None, None)
        );
    }

    #[test]
    fn every_name_takes_each_accepted_spelling() {
        let engine = |v| parse(&[("MANTLE_ENGINE", v)]).unwrap().engine;
        assert_eq!(engine("btree"), EngineName::Btree);
        assert_eq!(engine("mvcc"), EngineName::Mvcc);
        assert_eq!(engine("MVCC"), EngineName::Mvcc);

        for (spelling, want) in [
            ("1", true),
            ("on", true),
            ("true", true),
            ("ON", true),
            ("0", false),
            ("off", false),
            ("false", false),
        ] {
            let cfg = parse(&[("MANTLE_PATH_CACHE", spelling)]).unwrap();
            assert_eq!(cfg.path_cache, want, "{spelling}");
        }

        let scale = |v| parse(&[("MANTLE_SCALE", v)]).unwrap().scale;
        assert_eq!(scale("quick"), ScalePreset::Quick);
        assert_eq!(scale("full"), ScalePreset::Full);
        assert_eq!(scale("smoke"), ScalePreset::Smoke);

        let cfg = parse(&[
            ("MANTLE_FAULT_SEED", "48"),
            ("MANTLE_CHAOS_BUNDLE_DIR", "target/chaos"),
            ("MANTLE_OBS_ADDR", "127.0.0.1:9925"),
            ("MANTLE_TRACE_SAMPLE", "0.5"),
        ])
        .unwrap();
        assert_eq!(cfg.fault_seed, Some(48));
        assert_eq!(cfg.chaos_bundle_dir, Some(PathBuf::from("target/chaos")));
        assert_eq!(cfg.obs_addr.as_deref(), Some("127.0.0.1:9925"));
        assert_eq!(cfg.trace_sample, 0.5);
        for (rate, want) in [("0", 0.0), ("1", 1.0), ("1e-3", 0.001)] {
            let cfg = parse(&[("MANTLE_TRACE_SAMPLE", rate)]).unwrap();
            assert_eq!(cfg.trace_sample, want);
        }
        assert!(parse(&[("MANTLE_OBS_ADDR", "[::1]:0")]).is_ok());
    }

    #[test]
    fn the_printed_config_parses_back() {
        let cfg = parse(&[
            ("MANTLE_ENGINE", "mvcc"),
            ("MANTLE_PATH_CACHE", "on"),
            ("MANTLE_SCALE", "smoke"),
            ("MANTLE_FAULT_SEED", "7"),
            ("MANTLE_TRACE_SAMPLE", "0.25"),
        ])
        .unwrap();
        let printed = cfg.to_string();
        assert_eq!(printed.lines().count(), EnvConfig::NAMES.len());
        let set = printed
            .lines()
            .map(|line| line.split_once('=').expect("NAME=value"))
            .filter(|(_, value)| *value != "(unset)");
        assert_eq!(EnvConfig::from_vars(set), Ok(cfg));
    }

    #[test]
    fn unknown_and_retired_names_are_rejected_by_name() {
        // A typo, then the retired names. Spelled without the prefix so a
        // grep for the prefix keeps listing exactly the names in use.
        for suffix in [
            "ENGNE",
            "QUEUE_CAP",
            "DEFAULT_DEADLINE_MS",
            "SLOW_K",
            "SLOW_FLOOR_NANOS",
            "SLOW_THRESHOLD_NANOS",
            "FLIGHT",
            "CHAOS_TIMELINE",
            "SMOKE",
            "PERF_UPDATE_BASELINE",
            "WALL_CLOCK",
            "METRICS",
        ] {
            let name = format!("MANTLE_{suffix}");
            let err = parse(&[(name.as_str(), "1")]).unwrap_err();
            assert!(err.starts_with(&name), "{err}");
            assert!(err.contains("MANTLE_ENGINE, MANTLE_FAULT_SEED"), "{err}");
        }
    }

    #[test]
    fn malformed_values_are_rejected_with_name_and_grammar() {
        for (name, value, accepted) in [
            ("MANTLE_ENGINE", "mvc", "btree|mvcc"),
            ("MANTLE_PATH_CACHE", "yes", "1|on|true or 0|off|false"),
            ("MANTLE_FAULT_SEED", "1x", "a decimal u64"),
            ("MANTLE_FAULT_SEED", "-1", "a decimal u64"),
            ("MANTLE_CHAOS_BUNDLE_DIR", "", "a directory path"),
            ("MANTLE_OBS_ADDR", "9925", "host:port"),
            ("MANTLE_OBS_ADDR", "", "host:port"),
            ("MANTLE_SCALE", "huge", "quick|full|smoke"),
            ("MANTLE_TRACE_SAMPLE", "garbage", "a number in [0, 1]"),
            ("MANTLE_TRACE_SAMPLE", "1.5", "a number in [0, 1]"),
            ("MANTLE_TRACE_SAMPLE", "NaN", "a number in [0, 1]"),
        ] {
            let err = parse(&[(name, value)]).unwrap_err();
            assert_eq!(err, format!("{name}={value:?}: expected {accepted}"));
        }
    }

    #[test]
    fn instant_config_has_no_delays() {
        let c = SimConfig::instant();
        assert_eq!(c.rtt(), Duration::ZERO);
        assert_eq!(c.fsync(), Duration::ZERO);
        assert_eq!(c.device(), Duration::ZERO);
    }

    #[test]
    fn queue_cap_defaults_to_unbounded() {
        assert_eq!(SimConfig::default().queue_cap, 0);
        assert_eq!(SimConfig::instant().queue_cap, 0);
        assert_eq!(SimConfig::fast().queue_cap, 0);
    }

    #[test]
    fn default_matches_design_doc() {
        let c = SimConfig::default();
        assert_eq!(c.rtt_micros, 200);
        assert_eq!(c.fsync_micros, 100);
        assert_eq!(c.device_micros, 50);
        assert_eq!(c.index_node_permits, 8);
    }
}
