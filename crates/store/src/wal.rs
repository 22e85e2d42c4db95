//! Write-ahead log with group commit.
//!
//! Durable commits pay an fsync. Under load, many transactions commit
//! concurrently; group commit lets them share a single flush: the first
//! committer becomes the batch leader, performs one injected fsync for
//! every waiter that joined while the previous flush was in flight, and
//! wakes them. This is the same amortization Mantle applies to the
//! IndexNode's Raft log (§5.2.3, "batched Raft submissions"); TafDB shards
//! use it for transaction durability.

use std::sync::Arc;

use mantle_obs::{Counter, HistogramMetric};
use parking_lot::{Condvar, Mutex};

use mantle_rpc::faults::{FaultKind, FaultPlan, FaultSlot};
use mantle_types::{MetaError, SimConfig};

/// WAL metric handles, labeled by the owning subsystem (`scope="raft"`,
/// `scope="tafdb"`, ...).
struct WalMetrics {
    /// `wal_appends_total{scope=...}` — records appended.
    appends: Counter,
    /// `wal_fsyncs_total{scope=...}` — physical fsyncs performed.
    fsyncs: Counter,
    /// `wal_fsync_retries_total{scope=...}` — injected fsync failures the
    /// WAL absorbed by retrying before acknowledging.
    fsync_retries: Counter,
    /// `wal_batch_records{scope=...}` — records made durable per fsync.
    batch: HistogramMetric,
}

impl WalMetrics {
    fn new(scope: &str) -> Self {
        let labels = [("scope", scope)];
        WalMetrics {
            appends: mantle_obs::counter("wal_appends_total", &labels),
            fsyncs: mantle_obs::counter("wal_fsyncs_total", &labels),
            fsync_retries: mantle_obs::counter("wal_fsync_retries_total", &labels),
            batch: mantle_obs::histogram("wal_batch_records", &labels),
        }
    }
}

#[derive(Default)]
struct State {
    /// Sequence number of the last durable batch.
    flushed: u64,
    /// Sequence number of the last enqueued record.
    enqueued: u64,
    /// Whether a leader is currently flushing.
    flushing: bool,
}

/// One record in the fault-visible record log (see
/// [`GroupCommitWal::append_record`]).
#[derive(Clone, Copy)]
struct Record {
    payload: u64,
    /// Checkpoint marker ([`GroupCommitWal::append_checkpoint`]): recovery
    /// truncates everything before the latest durable checkpoint.
    checkpoint: bool,
}

#[derive(Default)]
struct RecordLog {
    /// Records in append order; the tail past `durable` is *torn* (written
    /// but never fsynced) and is discarded by recovery.
    entries: Vec<Record>,
    /// Number of leading entries that are durable.
    durable: usize,
}

/// A WAL whose appends share injected fsyncs when `group_commit` is on.
pub struct GroupCommitWal {
    state: Mutex<State>,
    cv: Condvar,
    config: SimConfig,
    group_commit: bool,
    scope: String,
    metrics: WalMetrics,
    faults: FaultSlot,
    records: Mutex<RecordLog>,
}

impl GroupCommitWal {
    /// Creates a WAL. With `group_commit = false` every append pays its own
    /// fsync (the un-batched baseline of Figure 16).
    pub fn new(config: SimConfig, group_commit: bool) -> Self {
        Self::new_scoped(config, group_commit, "wal")
    }

    /// [`GroupCommitWal::new`] with a metric label naming the owning
    /// subsystem (`wal_appends_total{scope="raft"}` vs `scope="tafdb"`).
    pub fn new_scoped(config: SimConfig, group_commit: bool, scope: &str) -> Self {
        GroupCommitWal {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            config,
            group_commit,
            scope: scope.to_string(),
            metrics: WalMetrics::new(scope),
            faults: FaultSlot::new(),
            records: Mutex::new(RecordLog::default()),
        }
    }

    /// Installs (or clears) the fault plan whose `wal_fsync` faults this
    /// WAL consults. Costs one relaxed atomic load per fsync when empty.
    pub fn set_faults(&self, plan: Option<Arc<FaultPlan>>) {
        self.faults.install(plan);
    }

    /// Appends one record and returns once it is durable.
    pub fn append(&self) {
        self.metrics.appends.inc();
        if !self.group_commit {
            self.metrics.fsyncs.inc();
            self.metrics.batch.record(1);
            self.fsync_retrying();
            return;
        }

        let mut state = self.state.lock();
        state.enqueued += 1;
        let my_seq = state.enqueued;
        loop {
            if state.flushed >= my_seq {
                return;
            }
            if !state.flushing {
                // Become the batch leader: flush everything enqueued so far.
                state.flushing = true;
                let flush_to = state.enqueued;
                let batch = flush_to - state.flushed;
                drop(state);

                self.metrics.fsyncs.inc();
                self.metrics.batch.record(batch);
                self.fsync_retrying();

                state = self.state.lock();
                state.flushed = state.flushed.max(flush_to);
                state.flushing = false;
                self.cv.notify_all();
                if state.flushed >= my_seq {
                    return;
                }
            } else {
                self.cv.wait(&mut state);
            }
        }
    }

    /// One *successful* fsync for the infallible [`GroupCommitWal::append`]
    /// path: an injected `wal_fsync` fault burns the device time and is
    /// retried before acknowledging (the storage engine absorbs transient
    /// write errors internally), so durability guarantees are unchanged.
    fn fsync_retrying(&self) {
        for _ in 0..10_000 {
            if let Some(plan) = self.faults.get() {
                if plan.fires(FaultKind::WalFsync, &self.scope) {
                    self.metrics.fsync_retries.inc();
                    mantle_obs::flight::annotate_with(|| {
                        format!("wal:fsync_retry scope={}", self.scope)
                    });
                    mantle_rpc::fsync(&self.config);
                    continue;
                }
            }
            mantle_rpc::fsync(&self.config);
            return;
        }
    }

    /// One fsync attempt that *surfaces* an injected failure instead of
    /// retrying. Returns `false` on failure (the device time is still
    /// burned).
    fn fsync_once(&self) -> bool {
        let failed = self
            .faults
            .get()
            .map(|plan| plan.fires(FaultKind::WalFsync, &self.scope))
            .unwrap_or(false);
        if failed {
            mantle_obs::flight::annotate_with(|| format!("wal:fsync_torn scope={}", self.scope));
        }
        mantle_rpc::fsync(&self.config);
        !failed
    }

    /// Appends `payload` to the fault-visible record log and returns its
    /// index once durable.
    ///
    /// Unlike [`GroupCommitWal::append`], an injected fsync failure here is
    /// *not* absorbed: the record stays in the log tail as a **torn**
    /// record — written but never acknowledged — and the caller gets
    /// [`MetaError::Transient`]. Recovery ([`GroupCommitWal::recover`])
    /// discards the torn tail, so an `Ok` from this method is a durability
    /// acknowledgment and an `Err` guarantees the record will not be
    /// replayed.
    pub fn append_record(&self, payload: u64) -> Result<u64, MetaError> {
        self.push_record(payload, false)
    }

    /// Appends a **checkpoint** record: an acknowledgment that all state up
    /// to `payload` (an applied log index, a snapshot id, ...) is captured
    /// elsewhere, so everything logged before it is dead weight. Recovery
    /// ([`GroupCommitWal::recover`]) truncates the log to the latest durable
    /// checkpoint. Same torn-record semantics as
    /// [`GroupCommitWal::append_record`]: an `Err` means the checkpoint was
    /// never acknowledged and recovery will not truncate on it.
    pub fn append_checkpoint(&self, payload: u64) -> Result<u64, MetaError> {
        self.push_record(payload, true)
    }

    fn push_record(&self, payload: u64, checkpoint: bool) -> Result<u64, MetaError> {
        self.metrics.appends.inc();
        let mut log = self.records.lock();
        // After a failed fsync the writer re-seeks to the durable frontier
        // (as real WAL writers do after EIO), so a torn record can never be
        // made durable by a *later* record's fsync.
        let durable = log.durable;
        log.entries.truncate(durable);
        log.entries.push(Record {
            payload,
            checkpoint,
        });
        self.metrics.fsyncs.inc();
        if !self.fsync_once() {
            // Torn: the bytes may be on disk, but no ack was given and the
            // durable frontier did not advance.
            return Err(MetaError::Transient {
                kind: "wal_fsync".to_string(),
                at: self.scope.clone(),
            });
        }
        log.durable = log.entries.len();
        self.metrics.batch.record(1);
        Ok((log.durable - 1) as u64)
    }

    /// Simulates a crash + restart of the owning store: the torn tail of
    /// the record log (appended but never successfully fsynced) is
    /// discarded, exactly as physical log recovery drops records that fail
    /// their checksum, and the log is truncated to its latest durable
    /// checkpoint (replaying records already captured by a checkpointed
    /// snapshot would be O(history) recovery). Returns the number of torn
    /// records dropped.
    pub fn recover(&self) -> usize {
        let mut log = self.records.lock();
        let torn = log.entries.len() - log.durable;
        let durable = log.durable;
        log.entries.truncate(durable);
        if let Some(ck) = log.entries.iter().rposition(|r| r.checkpoint) {
            // The checkpoint record itself is kept as the truncation anchor.
            log.entries.drain(..ck);
            log.durable = log.entries.len();
        }
        torn
    }

    /// The acknowledged (durable) non-checkpoint records, in append order.
    pub fn durable_records(&self) -> Vec<u64> {
        let log = self.records.lock();
        log.entries[..log.durable]
            .iter()
            .filter(|r| !r.checkpoint)
            .map(|r| r.payload)
            .collect()
    }

    /// Payload of the latest durable checkpoint record, if any.
    pub fn last_checkpoint(&self) -> Option<u64> {
        let log = self.records.lock();
        log.entries[..log.durable]
            .iter()
            .rev()
            .find(|r| r.checkpoint)
            .map(|r| r.payload)
    }

    /// Number of physical fsyncs this WAL performed.
    pub fn fsyncs(&self) -> u64 {
        self.metrics.fsyncs.get()
    }

    /// Number of records appended to this WAL.
    pub fn appends(&self) -> u64 {
        self.metrics.appends.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ungrouped_wal_fsyncs_every_append() {
        let wal = GroupCommitWal::new(SimConfig::instant(), false);
        for _ in 0..10 {
            wal.append();
        }
        assert_eq!(wal.fsyncs(), 10);
        assert_eq!(wal.appends(), 10);
    }

    /// Parks `n` appenders behind a flush staged as in flight, releases
    /// them together and returns the fsyncs their appends cost.
    fn fsyncs_for_appends_joining_one_flush(group_commit: bool, n: u64) -> u64 {
        let wal = GroupCommitWal::new(SimConfig::instant(), group_commit);
        wal.state.lock().flushing = true;
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| wal.append());
            }
            if group_commit {
                // An appender holds the state lock from its enqueue until
                // its condvar wait, so once all `n` are enqueued all are
                // parked behind the staged flush.
                let mut state = wal.state.lock();
                while state.enqueued < n {
                    drop(state);
                    std::thread::yield_now();
                    state = wal.state.lock();
                }
                state.flushing = false;
                wal.cv.notify_all();
            }
        });
        assert_eq!(wal.appends(), n);
        wal.fsyncs()
    }

    #[test]
    fn appends_that_join_during_a_flush_share_one_fsync() {
        assert_eq!(fsyncs_for_appends_joining_one_flush(true, 16), 1);
        assert_eq!(fsyncs_for_appends_joining_one_flush(false, 16), 16);
    }

    #[test]
    fn grouped_wal_single_thread_still_durable() {
        let wal = GroupCommitWal::new(SimConfig::instant(), true);
        for _ in 0..5 {
            wal.append();
        }
        // Sequential appends cannot batch; each becomes its own leader.
        assert_eq!(wal.fsyncs(), 5);
    }

    #[test]
    fn append_absorbs_injected_fsync_failures() {
        use mantle_rpc::faults::{FaultPlan, FaultProfile};
        let wal = GroupCommitWal::new_scoped(SimConfig::instant(), false, "waltest_absorb");
        let plan = FaultPlan::new(1, FaultProfile::zeroed());
        plan.force(FaultKind::WalFsync, "waltest_absorb", 3);
        wal.set_faults(Some(plan));
        // Plain append retries through the failures and still acknowledges.
        wal.append();
        wal.append();
        assert_eq!(wal.appends(), 2);
    }

    #[test]
    fn torn_record_is_not_replayed_after_recovery() {
        use mantle_rpc::faults::{FaultPlan, FaultProfile};
        let wal = GroupCommitWal::new_scoped(SimConfig::instant(), false, "waltest_torn");
        let plan = FaultPlan::new(1, FaultProfile::zeroed());
        wal.set_faults(Some(plan.clone()));

        assert_eq!(wal.append_record(100), Ok(0));
        plan.force(FaultKind::WalFsync, "waltest_torn", 1);
        assert!(matches!(
            wal.append_record(200),
            Err(MetaError::Transient { .. })
        ));
        // The next append re-seeks past the torn record: 200 is gone for
        // good, it cannot ride along on 300's fsync.
        assert_eq!(wal.append_record(300), Ok(1));
        assert_eq!(wal.durable_records(), vec![100, 300]);
        assert_eq!(wal.recover(), 0, "no torn tail after a successful append");

        // Crash with a torn record still in the tail.
        plan.force(FaultKind::WalFsync, "waltest_torn", 1);
        assert!(wal.append_record(400).is_err());
        assert_eq!(wal.recover(), 1, "torn tail dropped by recovery");
        assert_eq!(wal.durable_records(), vec![100, 300]);
    }

    #[test]
    fn recovery_truncates_before_latest_durable_checkpoint() {
        use mantle_rpc::faults::{FaultPlan, FaultProfile};
        let wal = GroupCommitWal::new_scoped(SimConfig::instant(), false, "waltest_ckpt");
        let plan = FaultPlan::new(1, FaultProfile::zeroed());
        wal.set_faults(Some(plan.clone()));

        wal.append_record(1).unwrap();
        wal.append_record(2).unwrap();
        wal.append_checkpoint(2).unwrap();
        wal.append_record(3).unwrap();
        assert_eq!(wal.last_checkpoint(), Some(2));
        assert_eq!(wal.durable_records(), vec![1, 2, 3]);

        // Recovery drops everything the checkpoint already captured; the
        // suffix past it survives and so does the checkpoint anchor.
        assert_eq!(wal.recover(), 0);
        assert_eq!(wal.durable_records(), vec![3]);
        assert_eq!(wal.last_checkpoint(), Some(2));

        // A torn checkpoint is no acknowledgment: recovery must not
        // truncate on it.
        wal.append_record(4).unwrap();
        plan.force(FaultKind::WalFsync, "waltest_ckpt", 1);
        assert!(wal.append_checkpoint(4).is_err());
        assert_eq!(wal.recover(), 1);
        assert_eq!(wal.durable_records(), vec![3, 4]);
        assert_eq!(wal.last_checkpoint(), Some(2));
    }
}
