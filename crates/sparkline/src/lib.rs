//! # sparkline — a Spark-like in-process distributed dataflow runtime
//!
//! This crate is the execution substrate for the SAC reproduction. The paper
//! ("Scalable Linear Algebra Programming for Big Data Analysis", EDBT 2021)
//! compiles array comprehensions to Apache Spark RDD programs; `sparkline`
//! provides the same programming and execution model in-process:
//!
//! * [`Dataset<T>`] — a lazy, immutable, partitioned collection (an RDD).
//!   Transformations build a DAG; actions (`collect`, `count`, `reduce`)
//!   trigger execution.
//! * **Narrow transformations** (`map`, `flat_map`, `filter`,
//!   `map_partitions_stream`, `map_values`) run pipelined inside one task per
//!   partition: operators exchange pull-based [`PartitionStream`]s, so a
//!   narrow chain fuses into one iterator per task with no intermediate
//!   collection, and sources/cached blocks are handed out as zero-copy
//!   shared views.
//! * **Wide transformations** (`reduce_by_key`, `group_by_key`, `join`,
//!   `cogroup`, `partition_by`) introduce a shuffle: map tasks bucket their
//!   output by a [`KeyPartitioner`], reduce tasks merge the buckets. Shuffled
//!   bytes and record counts go on the traced event stream
//!   ([`Context::trace`], folded by [`JobProfile`]) so the cost claims of the
//!   paper (e.g. `reduceByKey` shuffles less than `groupByKey` thanks to
//!   map-side combining) are observable, not just asserted.
//! * **Caching** is one mechanism in one tier: [`Dataset::persist`] stores
//!   partitions in memory in the context's budgeted [`BlockManager`], an
//!   evicted block is recomputed from lineage, and the blocks die with the
//!   last dataset that can read them (Spark's `cache()` is
//!   `persist(MEMORY_ONLY)`).
//! * **Executors** are logical fault domains, one per worker thread; every
//!   stage's tasks are scheduled onto them, and failed tasks are retried from
//!   lineage (narrow chains recompute, shuffle outputs are reused). Losing an
//!   executor ([`Context::kill_executor`], or a seeded [`ChaosPlan`]) loses
//!   the shuffle map outputs and cached blocks it owned; the scheduler
//!   resubmits only the missing map tasks and recomputes lost blocks from
//!   lineage — all of which is exercised by the chaos tests.
//!
//! The runtime is intentionally faithful to Spark semantics where the paper
//! relies on them:
//!
//! * `reduce_by_key` performs **map-side combining** (Spark's combiner), so a
//!   tile-level `reduceByKey` plan writes one partially-reduced tile per key
//!   per map task rather than one record per product.
//! * `join`/`cogroup` of two datasets that are **co-partitioned** (same
//!   [`KeyPartitioner`] descriptor and partition count) execute as a narrow
//!   zip of partitions without any shuffle, mirroring Spark's
//!   partitioner-aware joins.
//! * Nested datasets are not allowed inside task closures, matching Spark's
//!   "no nested RDDs" rule that §4 of the paper designs around. The rule is
//!   enforced: every stage starts on a driver thread (an action runs the
//!   shuffles it reads before its own stage), and an action or
//!   [`Context::run_tasks`] called from inside a task fails that task.
//!
//! A failed job is a value, [`JobError`]: a task attempt ends as `Failed`
//! (a panic or an injected fault, retried), `Deterministic`
//! ([`fail_deterministic`], never retried) or `Cancelled`. The fallible
//! actions ([`Dataset::try_collect`], [`Dataset::try_count`]) return it;
//! the others panic with its text.

// Generic dataflow signatures (`Dataset<(K, (Vec<V>, Vec<W>))>`, boxed
// combiner closures) spell out the shuffle contract; aliases would hide it.
#![allow(clippy::type_complexity)]

pub mod chaos;
pub mod context;
pub mod dataset;
pub mod events;
pub mod json;
pub mod ops;
pub mod partitioner;
mod pool;
pub mod profile;
pub mod service;
pub mod shuffle;
pub mod storage;
pub mod stream;
mod sync;
pub mod transport;
pub mod wire;

pub use chaos::{ChaosEvent, ChaosPlan, WireFault, CHAOS_ENV};
pub use context::{
    expect_job, fail_deterministic, Cause, Context, ContextBuilder, ExecutorStatus, JobError,
    STORAGE_BUDGET_ENV, WORKER_PROCS_ENV,
};
pub use dataset::Dataset;
pub use events::{Event, EventCollector};
pub use partitioner::{GridCells, KeyPartitioner};
pub use profile::{
    CacheStats, JobProfile, JobSummary, OperatorStats, PlanChoice, RecoveryStats, ServiceStats,
    StageProfile,
};
pub use service::{AdmissionGuard, CancelToken, FairScheduler};
pub use storage::{BlockManager, CacheRead, SpillCodec, StorageStatus, TenantStorage};
pub use stream::PartitionStream;
pub use transport::{WorkerClient, WorkerGroup};
pub use wire::WireError;

/// Marker bound for element types stored in datasets.
///
/// Everything that flows through the runtime must be shareable across worker
/// threads and clonable (records are duplicated at shuffle boundaries, as
/// serialization would do on a real cluster).
pub trait Data: Send + Sync + Clone + 'static {}
impl<T: Send + Sync + Clone + 'static> Data for T {}
