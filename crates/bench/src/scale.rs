//! Run-size presets.
//!
//! The paper drives 512–2048 mdtest clients from 32 machines; this
//! reproduction runs everything on one machine, so harnesses scale thread
//! counts and op counts down while keeping ratios intact. `MANTLE_SCALE`
//! names the preset (README.md "Environment").

use mantle_types::ScalePreset;
use mantle_workloads::{AnalyticsConfig, AudioConfig};

/// Harness run sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Client threads for throughput experiments (paper: 512).
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Path depth (paper: 10).
    pub depth: usize,
    /// Entries for namespace-shape experiments.
    pub namespace_entries: usize,
    /// Thread sweep for Figure 19b.
    pub thread_sweep: &'static [usize],
    /// Namespace-size sweep for Figure 19a.
    pub size_sweep: &'static [usize],
    /// Application workload multiplier.
    pub app_tasks: usize,
}

impl Scale {
    /// Quick preset (default): finishes in a few minutes on one core.
    pub fn quick() -> Self {
        Scale {
            threads: 64,
            ops_per_thread: 30,
            depth: 10,
            namespace_entries: 20_000,
            thread_sweep: &[8, 16, 32, 64, 128, 256],
            size_sweep: &[10_000, 50_000, 100_000, 200_000],
            app_tasks: 64,
        }
    }

    /// Full preset: closer to the paper's client counts.
    pub fn full() -> Self {
        Scale {
            threads: 256,
            ops_per_thread: 60,
            depth: 10,
            namespace_entries: 200_000,
            thread_sweep: &[16, 32, 64, 128, 256, 512],
            size_sweep: &[50_000, 200_000, 500_000, 1_000_000],
            app_tasks: 192,
        }
    }

    /// Smoke preset: seconds-scale runs for the CI bench-smoke lane. The
    /// numbers only need to exercise every code path and emit parseable
    /// JSON, not produce meaningful curves.
    pub fn smoke() -> Self {
        Scale {
            threads: 4,
            ops_per_thread: 8,
            depth: 6,
            namespace_entries: 2_000,
            thread_sweep: &[2, 4],
            size_sweep: &[1_000, 2_000],
            app_tasks: 8,
        }
    }
}

impl Scale {
    /// The Analytics workload of Figures 10, 11 and 20 at this scale.
    pub fn analytics(&self, data_access: bool) -> AnalyticsConfig {
        AnalyticsConfig {
            queries: 4,
            tasks_per_query: self.app_tasks / 4,
            parts_per_task: 2,
            threads: self.threads.min(64),
            part_size: 1 << 20,
            data_access,
        }
    }

    /// The Audio workload of Figures 10, 11 and 20 at this scale.
    pub fn audio(&self, data_access: bool) -> AudioConfig {
        AudioConfig {
            files: self.app_tasks,
            segments_per_file: 8,
            threads: self.threads.min(64),
            segment_size: 256 * 1024,
            depth: self.depth,
            data_access,
        }
    }
}

impl From<ScalePreset> for Scale {
    fn from(preset: ScalePreset) -> Self {
        match preset {
            ScalePreset::Quick => Scale::quick(),
            ScalePreset::Full => Scale::full(),
            ScalePreset::Smoke => Scale::smoke(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered() {
        let q = Scale::quick();
        let f = Scale::full();
        assert!(f.threads > q.threads);
        assert!(f.namespace_entries > q.namespace_entries);
        assert_eq!(q.depth, 10);
    }
}
