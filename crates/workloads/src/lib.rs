//! Workload generators for the Mantle evaluation (§6.1–§6.3).
//!
//! * [`namespace`] — synthetic namespaces whose shape matches the paper's
//!   production characterization (Figure 3, Table 3): billion-scale entry
//!   counts (scaled down), 10:1 object:directory ratios, deep hierarchies
//!   with average access depth ≈ 10–12.
//! * [`mdtest`] — the mdtest-style metadata benchmark: `create`, `delete`,
//!   `objstat`, `dirstat`, `mkdir`, `rmdir`, `dirrename` and raw `lookup`,
//!   each in exclusive (`-e`) or shared/conflicting (`-s`) mode, driven by
//!   N client threads against any [`mantle_types::MetadataService`].
//! * [`apps`] — the two real-world application drivers: interactive Spark
//!   **Analytics** (per-task temporary directories atomically renamed into
//!   a shared output directory, §3.2) and AI **Audio** preprocessing
//!   (non-conflicting scan + create of many small segment objects, §6.2).
//! * [`zipf`] — a Zipf sampler for skewed access patterns.
//! * [`driver`] — the one client loop both of the above (and the Figure 18
//!   lookup sweep) are bodies over: threads, per-op context, tracing,
//!   timing, histograms, failure classes, makespan.

pub mod apps;
pub mod driver;
pub mod mdtest;
pub mod namespace;
pub mod zipf;

pub use apps::{AnalyticsConfig, AppReport, AudioConfig};
pub use mdtest::{ConflictMode, Hotspot, MdOp, MdtestConfig, MdtestReport};
pub use namespace::{NamespaceHandle, NamespaceSpec, NamespaceStats};
pub use zipf::Zipf;
