//! The mdtest measurement the figure binaries share.

use serde::Serialize;

use mantle_types::{Phase, RetryClass};
use mantle_workloads::mdtest::{self, ConflictMode, MdOp, MdtestConfig, MdtestReport};

use crate::report::{fmt_ops, fmt_us};
use crate::scale::Scale;
use crate::systems::SystemUnderTest;

/// One mdtest measurement, flattened for tables and JSON.
#[derive(Clone, Debug, Serialize)]
pub struct OpRow {
    /// System label.
    pub system: String,
    /// Operation label.
    pub op: String,
    /// Conflict mode ("e"/"s"/"-").
    pub mode: String,
    /// Client threads.
    pub threads: usize,
    /// Throughput in ops/s.
    pub throughput: f64,
    /// Mean end-to-end latency (µs).
    pub mean_us: f64,
    /// p99 latency (µs).
    pub p99_us: f64,
    /// Mean lookup-phase time (µs).
    pub lookup_us: f64,
    /// Mean loop-detection time (µs).
    pub loop_detect_us: f64,
    /// Mean execute-phase time (µs).
    pub execute_us: f64,
    /// Mean RPCs per op.
    pub rpcs: f64,
    /// Transaction retries per op.
    pub txn_retries: f64,
    /// Rename-lock retries per op.
    pub rename_retries: f64,
    /// Failed operations (expected 0).
    pub failed: u64,
}

impl OpRow {
    /// Flattens one mdtest report.
    pub fn from_report(system: &str, report: &MdtestReport) -> Self {
        let n = report.agg.count.max(1) as f64;
        OpRow {
            system: system.to_string(),
            op: report.config.op.label().to_string(),
            mode: match (report.config.op, report.config.conflict) {
                (
                    MdOp::Mkdir | MdOp::Rmdir | MdOp::DirRename | MdOp::Create,
                    ConflictMode::Shared,
                ) => "s".into(),
                (
                    MdOp::Mkdir | MdOp::Rmdir | MdOp::DirRename | MdOp::Create,
                    ConflictMode::Exclusive,
                ) => "e".into(),
                _ => "-".into(),
            },
            threads: report.config.threads,
            throughput: report.throughput(),
            mean_us: report.mean_latency_micros(),
            p99_us: report.latency.quantile(0.99) as f64 / 1_000.0,
            lookup_us: report.phase_micros(Phase::Lookup),
            loop_detect_us: report.phase_micros(Phase::LoopDetect),
            execute_us: report.phase_micros(Phase::Execute),
            rpcs: report.agg.mean_rpcs(),
            txn_retries: report.agg.retry_count(RetryClass::Txn) as f64 / n,
            rename_retries: report.agg.retry_count(RetryClass::Rename) as f64 / n,
            failed: report.failed,
        }
    }

    /// Paper-style one-liner.
    pub fn pretty(&self) -> String {
        format!(
            "{:<9} {:<10}{:<2} {:>8} ops/s  mean {:>9}  p99 {:>9}  [lookup {:>8} | loop {:>8} | exec {:>8}]  rpc {:>4.1}  retries {:.2}",
            self.system,
            self.op,
            self.mode,
            fmt_ops(self.throughput),
            fmt_us(self.mean_us),
            fmt_us(self.p99_us),
            fmt_us(self.lookup_us),
            fmt_us(self.loop_detect_us),
            fmt_us(self.execute_us),
            self.rpcs,
            self.txn_retries + self.rename_retries,
        )
    }
}

/// Runs one mdtest config against a system and returns the flattened row.
/// `scale` supplies threads, ops per thread and depth; a sweep overrides
/// one with struct-update syntax (`Scale { depth, ..scale }`).
pub fn measure(sut: &SystemUnderTest, op: MdOp, conflict: ConflictMode, scale: Scale) -> OpRow {
    let config = MdtestConfig {
        threads: scale.threads,
        ops_per_thread: scale.ops_per_thread,
        depth: scale.depth,
        op,
        conflict,
        working_set: 1024,
        seed: 11,
        hotspot: None,
        open_loop: None,
    };
    let report = mdtest::run(sut.svc().as_ref(), config);
    OpRow::from_report(sut.label(), &report)
}
