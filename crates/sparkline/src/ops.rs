//! Physical operator DAG nodes (the "RDD" objects behind a [`crate::Dataset`]).

use crate::context::Context;
use crate::stream::{instrument, PartitionStream};
use crate::Data;
use std::sync::Arc;

/// A node in the operator DAG. `compute` produces one partition as a
/// pull-based [`PartitionStream`]; narrow operators call their parent's
/// `compute` recursively and stack lazy adapters onto the stream (pipelining
/// within the same task, no intermediate collections), wide operators
/// materialize a shuffle first and hand out zero-copy shared views of it.
///
/// Streams are re-creatable: every `compute` call rebuilds from lineage, so
/// task retries and cache recomputation see identical data.
pub trait Op<T: Data>: Send + Sync + 'static {
    /// Number of partitions this operator produces.
    fn num_partitions(&self) -> usize;

    /// Produce partition `part` as a stream.
    fn compute(&self, part: usize, ctx: &Context) -> PartitionStream<T>;

    /// Descriptor of the key partitioner this output is partitioned by, if
    /// any — `Some` only for key-value datasets that went through a
    /// partitioner-aware shuffle. Used for co-partitioned narrow joins.
    fn partitioner_descriptor(&self) -> Option<(String, usize)> {
        None
    }

    /// Block-manager dataset id, `Some` only for persist nodes — how
    /// [`crate::Dataset::unpersist`] finds the blocks to drop.
    fn cache_id(&self) -> Option<u64> {
        None
    }

    /// Operator name for debugging / plan explanation.
    fn name(&self) -> String;
}

/// Leaf: an in-memory collection split into near-equal chunks.
pub struct SourceOp<T> {
    parts: Vec<Arc<Vec<T>>>,
}

impl<T: Data> SourceOp<T> {
    pub fn new(data: Vec<T>, partitions: usize) -> Self {
        let partitions = partitions.max(1);
        let total = data.len();
        let chunk = total.div_ceil(partitions).max(1);
        let mut parts: Vec<Arc<Vec<T>>> = Vec::with_capacity(partitions);
        let mut it = data.into_iter();
        for _ in 0..partitions {
            let p: Vec<T> = it.by_ref().take(chunk).collect();
            parts.push(Arc::new(p));
        }
        SourceOp { parts }
    }
}

impl<T: Data> Op<T> for SourceOp<T> {
    fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    fn compute(&self, part: usize, ctx: &Context) -> PartitionStream<T> {
        // Zero-copy: every task attempt (retries included) reads the same
        // shared block; no per-task clone.
        instrument(
            PartitionStream::shared(self.parts[part].clone()),
            "source",
            part,
            ctx,
        )
    }

    fn name(&self) -> String {
        format!("source[{}]", self.parts.len())
    }
}

/// Narrow transformation: partition-at-a-time function over the parent's
/// stream. Implements `map`, `flat_map`, `filter`, `map_partitions_stream`,
/// `map_values` — all as lazy stream adapters, so chained narrow ops fuse
/// into one pipeline per task.
pub struct MapPartitionsOp<T: Data, U: Data> {
    pub(crate) parent: Arc<dyn Op<T>>,
    pub(crate) f: Arc<dyn Fn(usize, PartitionStream<T>) -> PartitionStream<U> + Send + Sync>,
    /// If true, the output keeps the parent's partitioner descriptor (legal
    /// only when keys are not changed, e.g. `map_values`).
    pub(crate) preserves_partitioning: bool,
    pub(crate) label: String,
}

impl<T: Data, U: Data> Op<U> for MapPartitionsOp<T, U> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn compute(&self, part: usize, ctx: &Context) -> PartitionStream<U> {
        let input = self.parent.compute(part, ctx);
        instrument((self.f)(part, input), &self.label, part, ctx)
    }

    fn partitioner_descriptor(&self) -> Option<(String, usize)> {
        if self.preserves_partitioning {
            self.parent.partitioner_descriptor()
        } else {
            None
        }
    }

    fn name(&self) -> String {
        format!("{} <- {}", self.label, self.parent.name())
    }
}

/// Concatenation of two datasets; partitions of `left` come first.
pub struct UnionOp<T: Data> {
    pub(crate) left: Arc<dyn Op<T>>,
    pub(crate) right: Arc<dyn Op<T>>,
}

impl<T: Data> Op<T> for UnionOp<T> {
    fn num_partitions(&self) -> usize {
        self.left.num_partitions() + self.right.num_partitions()
    }

    fn compute(&self, part: usize, ctx: &Context) -> PartitionStream<T> {
        let nl = self.left.num_partitions();
        if part < nl {
            self.left.compute(part, ctx)
        } else {
            self.right.compute(part - nl, ctx)
        }
    }

    fn name(&self) -> String {
        format!("union({}, {})", self.left.name(), self.right.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_splits_evenly() {
        let op = SourceOp::new((0..10).collect::<Vec<i32>>(), 3);
        assert_eq!(op.num_partitions(), 3);
        let ctx = Context::new();
        let all: Vec<i32> = (0..3)
            .flat_map(|p| op.compute(p, &ctx).into_vec())
            .collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn source_with_more_partitions_than_items() {
        let op = SourceOp::new(vec![1, 2], 5);
        assert_eq!(op.num_partitions(), 5);
        let ctx = Context::new();
        let total: usize = (0..5).map(|p| op.compute(p, &ctx).count()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn source_serves_shared_views_not_copies() {
        let op = SourceOp::new((0..100).collect::<Vec<i64>>(), 1);
        let ctx = Context::new();
        let a = op.compute(0, &ctx);
        let b = op.compute(0, &ctx);
        let (block_a, _) = a.as_shared().expect("source must stream shared");
        let (block_b, _) = b.as_shared().expect("source must stream shared");
        assert!(
            Arc::ptr_eq(block_a, block_b),
            "two tasks must observe the same backing allocation"
        );
    }
}
