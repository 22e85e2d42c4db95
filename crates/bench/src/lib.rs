//! Figure/table reproduction harnesses (§6 of the paper).
//!
//! One binary per table/figure lives in `src/bin/`; run them as
//!
//! ```text
//! cargo run --release -p mantle-bench --bin fig12_read_throughput
//! ```
//!
//! Every harness prints a paper-style table and writes machine-readable
//! rows to `results/<figure>.json`. The environment variable `MANTLE_SCALE`
//! selects the run size: `quick` (default; minutes on a laptop core),
//! `full` (closer to the paper's thread counts; slower) or `smoke`
//! (seconds; CI).

pub mod report;
pub mod runner;
pub mod scale;
pub mod systems;

pub use report::Report;
pub use runner::OpRow;
pub use scale::Scale;
pub use systems::{SystemKind, SystemUnderTest};
