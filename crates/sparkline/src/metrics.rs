//! Runtime metrics: task/stage counters and per-shuffle detail.
//!
//! The evaluation in the paper argues about *data shuffled*; these metrics
//! make every plan's shuffle volume observable so the benchmark harness and
//! the plan-shape tests can assert it.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Detail record for one shuffle dependency that was materialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShuffleDetail {
    /// Monotonically increasing shuffle id within a [`crate::Context`].
    pub shuffle_id: u64,
    /// Human-readable operator name (e.g. `reduceByKey`, `cogroup.left`).
    pub operator: String,
    /// Bytes written by all map tasks: the exact framed wire length of their
    /// buckets ([`crate::wire::encoded_len`]), traced or not.
    pub bytes_written: u64,
    /// Records written after map-side combining (if enabled).
    pub records_written: u64,
    /// Records fed into the map side before combining.
    pub records_in: u64,
    /// Number of map partitions.
    pub map_partitions: usize,
    /// Number of reduce partitions.
    pub reduce_partitions: usize,
}

/// Shared, thread-safe metrics sink for a [`crate::Context`].
#[derive(Default)]
pub struct Metrics {
    tasks_launched: AtomicU64,
    tasks_failed: AtomicU64,
    stages_run: AtomicU64,
    shuffle_bytes: AtomicU64,
    shuffle_records: AtomicU64,
    shuffles: Mutex<Vec<ShuffleDetail>>,
}

/// A point-in-time copy of the counters, suitable for diffing around a job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub tasks_launched: u64,
    pub tasks_failed: u64,
    pub stages_run: u64,
    pub shuffle_bytes: u64,
    pub shuffle_records: u64,
    pub shuffle_count: u64,
}

impl MetricsSnapshot {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_launched: self.tasks_launched.saturating_sub(earlier.tasks_launched),
            tasks_failed: self.tasks_failed.saturating_sub(earlier.tasks_failed),
            stages_run: self.stages_run.saturating_sub(earlier.stages_run),
            shuffle_bytes: self.shuffle_bytes.saturating_sub(earlier.shuffle_bytes),
            shuffle_records: self.shuffle_records.saturating_sub(earlier.shuffle_records),
            shuffle_count: self.shuffle_count.saturating_sub(earlier.shuffle_count),
        }
    }
}

impl Metrics {
    pub(crate) fn task_launched(&self) {
        self.tasks_launched.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn task_failed(&self) {
        self.tasks_failed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stage_run(&self) {
        self.stages_run.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shuffle(&self, detail: ShuffleDetail) {
        self.shuffle_bytes
            .fetch_add(detail.bytes_written, Ordering::Relaxed);
        self.shuffle_records
            .fetch_add(detail.records_written, Ordering::Relaxed);
        self.shuffles.lock().push(detail);
    }

    /// Copy of the scalar counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_launched: self.tasks_launched.load(Ordering::Relaxed),
            tasks_failed: self.tasks_failed.load(Ordering::Relaxed),
            stages_run: self.stages_run.load(Ordering::Relaxed),
            shuffle_bytes: self.shuffle_bytes.load(Ordering::Relaxed),
            shuffle_records: self.shuffle_records.load(Ordering::Relaxed),
            shuffle_count: self.shuffles.lock().len() as u64,
        }
    }

    /// Detail for every shuffle materialized so far, in materialization order.
    pub fn shuffle_details(&self) -> Vec<ShuffleDetail> {
        self.shuffles.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff() {
        let m = Metrics::default();
        m.task_launched();
        m.task_launched();
        let a = m.snapshot();
        m.task_launched();
        m.stage_run();
        let b = m.snapshot();
        let d = b.since(&a);
        assert_eq!(d.tasks_launched, 1);
        assert_eq!(d.stages_run, 1);
        assert_eq!(d.shuffle_bytes, 0);
    }

    #[test]
    fn shuffle_detail_is_accumulated() {
        let m = Metrics::default();
        m.record_shuffle(ShuffleDetail {
            shuffle_id: 0,
            operator: "reduceByKey".into(),
            bytes_written: 128,
            records_written: 4,
            records_in: 16,
            map_partitions: 2,
            reduce_partitions: 2,
        });
        let s = m.snapshot();
        assert_eq!(s.shuffle_bytes, 128);
        assert_eq!(s.shuffle_records, 4);
        assert_eq!(s.shuffle_count, 1);
        assert_eq!(m.shuffle_details()[0].operator, "reduceByKey");
    }
}
