//! The public [`Dataset`] API — the RDD analog.

use crate::context::{Context, StageMeta};
use crate::ops::{MapPartitionsOp, Op, SourceOp, UnionOp};
use crate::partitioner::KeyPartitioner;
use crate::shuffle::{Aggregator, CoGroupOp, ShuffleOp};
use crate::storage::{BlockLease, PersistOp, SpillCodec};
use crate::stream::PartitionStream;
use crate::Data;
use std::hash::Hash;
use std::sync::Arc;

/// A lazy, immutable, partitioned distributed collection.
///
/// Transformations (`map`, `filter`, `join`, ...) are lazy and build an
/// operator DAG; actions (`collect`, `count`, `reduce`) run the DAG on the
/// executor pool of the owning [`Context`].
pub struct Dataset<T: Data> {
    ctx: Context,
    op: Arc<dyn Op<T>>,
    /// Leases of the persisted datasets this one reads directly (itself, if
    /// persisted): their blocks live while it does.
    leases: Vec<Arc<BlockLease>>,
}

impl<T: Data> Clone for Dataset<T> {
    fn clone(&self) -> Self {
        self.derived(self.op.clone(), &[])
    }
}

impl<T: Data> Dataset<T> {
    pub(crate) fn from_vec(ctx: Context, data: Vec<T>, partitions: usize) -> Self {
        Dataset {
            ctx,
            op: Arc::new(SourceOp::new(data, partitions)),
            leases: Vec::new(),
        }
    }

    /// A dataset of `op`, built on this one and on the datasets whose
    /// `leases` are given: it reads what they read.
    fn derived<U: Data>(&self, op: Arc<dyn Op<U>>, leases: &[Arc<BlockLease>]) -> Dataset<U> {
        let mut all = self.leases.clone();
        for lease in leases {
            if !all.iter().any(|held| Arc::ptr_eq(held, lease)) {
                all.push(lease.clone());
            }
        }
        Dataset {
            ctx: self.ctx.clone(),
            op,
            leases: all,
        }
    }

    /// The context this dataset belongs to.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// The underlying operator node.
    pub fn op(&self) -> &Arc<dyn Op<T>> {
        &self.op
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.op.num_partitions()
    }

    /// Descriptor of the partitioner, if this dataset is the output of a
    /// partitioner-aware shuffle.
    pub fn partitioner_descriptor(&self) -> Option<(String, usize)> {
        self.op.partitioner_descriptor()
    }

    /// Operator DAG description, innermost source last.
    pub fn describe(&self) -> String {
        self.op.name()
    }

    fn narrow<U: Data>(
        &self,
        label: &str,
        preserves: bool,
        f: impl Fn(usize, PartitionStream<T>) -> PartitionStream<U> + Send + Sync + 'static,
    ) -> Dataset<U> {
        let op = MapPartitionsOp {
            parent: self.op.clone(),
            f: Arc::new(f),
            preserves_partitioning: preserves,
            label: label.to_string(),
        };
        self.derived(Arc::new(op), &[])
    }

    /// Element-wise transformation. Lazy in two senses: nothing runs until an
    /// action, and at run time the transform fuses onto the parent's stream
    /// (no intermediate collection within a task).
    pub fn map<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Dataset<U> {
        self.map_named("map", f)
    }

    /// [`Dataset::map`] with an explicit operator label, so traces attribute
    /// the stream to a specific plan region (e.g. `fused_eltwise`) instead
    /// of a generic `map` row in `StageProfile::operators`.
    pub fn map_named<U: Data>(
        &self,
        label: &str,
        f: impl Fn(T) -> U + Send + Sync + 'static,
    ) -> Dataset<U> {
        let f = Arc::new(f);
        self.narrow(label, false, move |_, s| {
            let f = f.clone();
            s.map(move |t| f(t))
        })
    }

    /// Element-to-many transformation.
    pub fn flat_map<U: Data, I: IntoIterator<Item = U>>(
        &self,
        f: impl Fn(T) -> I + Send + Sync + 'static,
    ) -> Dataset<U> {
        let f = Arc::new(f);
        self.narrow("flatMap", false, move |_, s| {
            let f = f.clone();
            s.flat_map(move |t| f(t))
        })
    }

    /// Keep elements satisfying the predicate.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Dataset<T> {
        let f = Arc::new(f);
        self.narrow("filter", true, move |_, s| {
            let f = f.clone();
            s.filter(move |t| f(t))
        })
    }

    /// Partition-at-a-time transformation over the raw
    /// [`PartitionStream`]; `f` receives the partition index. `f` must
    /// return a stream re-creatable from its input (it is re-invoked on
    /// task retry).
    pub fn map_partitions_stream<U: Data>(
        &self,
        f: impl Fn(usize, PartitionStream<T>) -> PartitionStream<U> + Send + Sync + 'static,
    ) -> Dataset<U> {
        self.narrow("mapPartitions", false, f)
    }

    /// [`Dataset::map_partitions_stream`] for a keyed dataset whose `f` keeps
    /// every record in the partition its key belongs to under this dataset's
    /// partitioner (Spark's `mapPartitions(f, preservesPartitioning = true)`),
    /// so the output stays co-partitioned with it and later joins on that
    /// partitioner are narrow. `f` may change keys — only where they land is
    /// promised — and nothing checks the promise: a record emitted from the
    /// wrong partition is silently missed by a narrow join.
    pub fn map_partitions_preserving<U: Data>(
        &self,
        label: &str,
        f: impl Fn(usize, PartitionStream<T>) -> PartitionStream<U> + Send + Sync + 'static,
    ) -> Dataset<U> {
        self.narrow(label, true, f)
    }

    /// Concatenate two datasets.
    pub fn union(&self, other: &Dataset<T>) -> Dataset<T> {
        let op = UnionOp {
            left: self.op.clone(),
            right: other.op.clone(),
        };
        self.derived(Arc::new(op), &other.leases)
    }

    /// Distinct elements (the `set` builder of §5.2's image sets): a
    /// deduplicating shuffle keyed by the element itself.
    pub fn distinct(&self, partitions: usize) -> Dataset<T>
    where
        T: std::hash::Hash + Eq + SpillCodec,
    {
        self.map(|x| (x, ()))
            .reduce_by_key(partitions, |_, _| ())
            .map(|(x, ())| x)
    }

    /// Persist partitions in the context's memory-budgeted block manager
    /// (Spark's `persist(MEMORY_ONLY)`). Partitions are stored on first
    /// computation and served from storage afterwards; evicted partitions
    /// are transparently recomputed from lineage. The blocks are removed
    /// when the last dataset reading them — this one, a clone, or one built
    /// on it up to another `persist` that has computed every partition — is
    /// dropped.
    pub fn persist(&self) -> Dataset<T>
    where
        T: SpillCodec,
    {
        let upstream = self.leases.clone();
        let (op, lease) = PersistOp::new(&self.ctx, self.op.clone(), upstream);
        Dataset {
            ctx: self.ctx.clone(),
            op: Arc::new(op),
            leases: vec![lease],
        }
    }

    /// Drop this dataset's persisted blocks from the block manager now,
    /// rather than when the last reader drops; a later read recomputes them.
    /// Returns the number of blocks removed; 0 when the dataset is not the
    /// direct result of [`Dataset::persist`].
    pub fn unpersist(&self) -> usize {
        match self.op.cache_id() {
            Some(id) => self.ctx.storage().remove_dataset(id),
            None => 0,
        }
    }

    /// Run the action's final stage as a traced job named `label`.
    fn action_stage<R: Send>(&self, label: &str, f: impl Fn(usize) -> R + Send + Sync) -> Vec<R> {
        self.ctx.job_scope(label, || {
            self.ctx
                .run_stage(
                    self.op.num_partitions(),
                    || StageMeta::action(label, self.op.name()),
                    f,
                )
                .0
        })
    }

    /// Action: materialize every partition and concatenate.
    pub fn collect(&self) -> Vec<T> {
        let parts = self.action_stage("collect", |p| self.op.compute(p, &self.ctx).into_vec());
        parts.into_iter().flatten().collect()
    }

    /// Action: number of elements. Shared partitions (sources, cached
    /// blocks, shuffle outputs) answer from their length without touching a
    /// single element; lazy chains drain without collecting.
    pub fn count(&self) -> usize {
        self.action_stage("count", |p| self.op.compute(p, &self.ctx).count())
            .into_iter()
            .sum()
    }

    /// Action: reduce all elements with an associative function. Returns
    /// `None` on an empty dataset.
    pub fn reduce(&self, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> Option<T> {
        let partials: Vec<Option<T>> = self.action_stage("reduce", |p| {
            self.op.compute(p, &self.ctx).into_iter().reduce(&f)
        });
        partials.into_iter().flatten().reduce(f)
    }

    /// Action: fold with a zero value and an associative combine.
    pub fn fold<A: Data>(
        &self,
        zero: A,
        fold: impl Fn(A, T) -> A + Send + Sync + 'static,
        combine: impl Fn(A, A) -> A + Send + Sync + 'static,
    ) -> A {
        let z = zero.clone();
        let partials: Vec<A> = self.action_stage("fold", |p| {
            self.op
                .compute(p, &self.ctx)
                .into_iter()
                .fold(z.clone(), &fold)
        });
        partials.into_iter().fold(zero, combine)
    }
}

impl<K, V> Dataset<(K, V)>
where
    K: Data + Hash + Eq,
    V: Data,
{
    /// Transform values, keeping keys (and therefore partitioning).
    pub fn map_values<U: Data>(
        &self,
        f: impl Fn(V) -> U + Send + Sync + 'static,
    ) -> Dataset<(K, U)> {
        let f = Arc::new(f);
        self.narrow("mapValues", true, move |_, s| {
            let f = f.clone();
            s.map(move |(k, val)| (k, f(val)))
        })
    }

    /// Spark's `reduceByKey`: merge values per key with map-side combining.
    pub fn reduce_by_key(
        &self,
        partitions: usize,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
    ) -> Dataset<(K, V)>
    where
        K: SpillCodec,
        V: SpillCodec,
    {
        self.reduce_by_key_with(KeyPartitioner::hash(partitions), f)
    }

    /// `reduceByKey` with an explicit partitioner.
    pub fn reduce_by_key_with(
        &self,
        partitioner: KeyPartitioner<K>,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
    ) -> Dataset<(K, V)>
    where
        K: SpillCodec,
        V: SpillCodec,
    {
        self.shuffle(partitioner, Aggregator::reducing(f), "reduceByKey")
    }

    /// `reduceByKey` folding values in place (avoids cloning large combiners
    /// such as tiles).
    pub fn reduce_by_key_in_place(
        &self,
        partitions: usize,
        f: impl Fn(&mut V, V) + Send + Sync + 'static,
    ) -> Dataset<(K, V)>
    where
        K: SpillCodec,
        V: SpillCodec,
    {
        self.shuffle(
            KeyPartitioner::hash(partitions),
            Aggregator::reducing_in_place(f),
            "reduceByKey",
        )
    }

    /// Spark's `groupByKey`: collect all values per key into a list. No
    /// map-side combining, so every record crosses the shuffle.
    pub fn group_by_key(&self, partitions: usize) -> Dataset<(K, Vec<V>)>
    where
        K: SpillCodec,
        V: SpillCodec,
    {
        self.group_by_key_with(KeyPartitioner::hash(partitions))
    }

    /// `groupByKey` with an explicit partitioner.
    pub fn group_by_key_with(&self, partitioner: KeyPartitioner<K>) -> Dataset<(K, Vec<V>)>
    where
        K: SpillCodec,
        V: SpillCodec,
    {
        self.shuffle(partitioner, Aggregator::grouping(), "groupByKey")
    }

    /// Generic combine-by-key shuffle (Spark's `combineByKey`). Keys and
    /// combiners must be wire-encodable ([`SpillCodec`]): in multi-process
    /// mode every bucket crosses a process boundary as a checksummed frame.
    pub fn shuffle<C: Data + SpillCodec>(
        &self,
        partitioner: KeyPartitioner<K>,
        agg: Aggregator<V, C>,
        operator: &str,
    ) -> Dataset<(K, C)>
    where
        K: SpillCodec,
    {
        let op = ShuffleOp::new(&self.ctx, self.op.clone(), partitioner, agg, operator);
        self.derived(Arc::new(op), &[])
    }

    /// Redistribute records by a partitioner without combining; duplicate
    /// keys are preserved. A no-op (narrow) if already co-partitioned.
    pub fn partition_by(&self, partitioner: KeyPartitioner<K>) -> Dataset<(K, V)>
    where
        K: SpillCodec,
        V: SpillCodec,
    {
        let target = (
            partitioner.descriptor().to_string(),
            partitioner.partitions(),
        );
        if self.op.partitioner_descriptor().as_ref() == Some(&target) {
            return self.clone();
        }
        self.shuffle(partitioner, Aggregator::pass_through(), "partitionBy")
    }

    /// Cogroup with another keyed dataset: all values for each key from both
    /// sides. Narrow (no shuffle) for sides already co-partitioned with the
    /// chosen partitioner.
    pub fn cogroup<W: Data + SpillCodec>(
        &self,
        other: &Dataset<(K, W)>,
        partitions: usize,
    ) -> Dataset<(K, (Vec<V>, Vec<W>))>
    where
        K: SpillCodec,
        V: SpillCodec,
    {
        self.cogroup_with(other, KeyPartitioner::hash(partitions))
    }

    /// Cogroup with an explicit partitioner. If either input is already
    /// partitioned by an equal partitioner it is not re-shuffled.
    pub fn cogroup_with<W: Data + SpillCodec>(
        &self,
        other: &Dataset<(K, W)>,
        partitioner: KeyPartitioner<K>,
    ) -> Dataset<(K, (Vec<V>, Vec<W>))>
    where
        K: SpillCodec,
        V: SpillCodec,
    {
        let op = CoGroupOp::new(
            &self.ctx,
            self.op.clone(),
            other.op.clone(),
            partitioner,
            "cogroup",
        );
        self.derived(Arc::new(op), &other.leases)
    }

    /// Inner join: one output record per matching pair of values.
    pub fn join<W: Data + SpillCodec>(
        &self,
        other: &Dataset<(K, W)>,
        partitions: usize,
    ) -> Dataset<(K, (V, W))>
    where
        K: SpillCodec,
        V: SpillCodec,
    {
        self.join_with(other, KeyPartitioner::hash(partitions))
    }

    /// Inner join with an explicit partitioner.
    pub fn join_with<W: Data + SpillCodec>(
        &self,
        other: &Dataset<(K, W)>,
        partitioner: KeyPartitioner<K>,
    ) -> Dataset<(K, (V, W))>
    where
        K: SpillCodec,
        V: SpillCodec,
    {
        self.cogroup_with(other, partitioner)
            .flat_map(|(k, (vs, ws))| {
                if ws.is_empty() {
                    return Vec::new();
                }
                let mut out = Vec::with_capacity(vs.len() * ws.len());
                for v in vs {
                    // Pair v with all but its last match by clone, then move
                    // v into the final pair — the build side (often a large
                    // tile) is cloned len(ws)-1 times, not len(ws).
                    for w in &ws[..ws.len() - 1] {
                        out.push((k.clone(), (v.clone(), w.clone())));
                    }
                    out.push((k.clone(), (v, ws[ws.len() - 1].clone())));
                }
                out
            })
    }

    /// Map-side (broadcast) inner join against a driver-resident small
    /// table: no shuffle stage at all. The table is typically built with
    /// [`crate::Context::broadcast`] over a collected dataset, e.g.
    /// `ctx.broadcast(small.collect_map())`; keys absent from the table are
    /// dropped, matching [`Dataset::join`]'s inner semantics. Partitioning is
    /// preserved (keys are unchanged), so downstream co-partitioned joins
    /// stay narrow.
    pub fn join_broadcast<W: Data>(
        &self,
        table: Arc<std::collections::HashMap<K, W>>,
    ) -> Dataset<(K, (V, W))> {
        self.narrow("broadcastJoin", true, move |_, s| {
            let table = table.clone();
            PartitionStream::from_iter(
                s.into_iter()
                    .filter_map(move |(k, v)| table.get(&k).cloned().map(|w| (k, (v, w)))),
            )
        })
    }

    /// Action: collect into a `HashMap` (later values win for duplicates).
    pub fn collect_map(&self) -> std::collections::HashMap<K, V> {
        self.collect().into_iter().collect()
    }

    /// Look up all values for a key (full scan; for tests and small data).
    pub fn lookup(&self, key: &K) -> Vec<V> {
        let key = key.clone();
        self.filter(move |(k, _)| *k == key)
            .collect()
            .into_iter()
            .map(|(_, v)| v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::builder().workers(4).default_parallelism(4).build()
    }

    /// For tests asserting blocks stay resident: ample pinned budget
    /// (builder beats the SPARKLINE_STORAGE_BUDGET env knob).
    fn cache_ctx() -> Context {
        Context::builder()
            .workers(4)
            .default_parallelism(4)
            .storage_memory(64 << 20)
            .build()
    }

    #[test]
    fn map_filter_collect() {
        let c = ctx();
        let d = c.parallelize((0..100).collect(), 8);
        let out = d.map(|x| x * 2).filter(|x| x % 3 == 0).collect();
        let expected: Vec<i32> = (0..100).map(|x| x * 2).filter(|x| x % 3 == 0).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn flat_map_and_count() {
        let c = ctx();
        let d = c.parallelize(vec![1, 2, 3], 2);
        assert_eq!(d.flat_map(|x| vec![x; x as usize]).count(), 6);
    }

    #[test]
    fn reduce_and_fold() {
        let c = ctx();
        let d = c.parallelize((1..=10).collect(), 3);
        assert_eq!(d.reduce(|a, b| a + b), Some(55));
        assert_eq!(d.fold(0, |a, b| a + b, |a, b| a + b), 55);
        let empty: Dataset<i32> = c.parallelize(vec![], 2);
        assert_eq!(empty.reduce(|a, b| a + b), None);
    }

    #[test]
    fn reduce_by_key_sums() {
        let c = ctx();
        let d = c.parallelize(vec![(1, 10), (2, 20), (1, 1), (2, 2), (3, 3)], 3);
        let mut out = d.reduce_by_key(4, |a, b| a + b).collect();
        out.sort();
        assert_eq!(out, vec![(1, 11), (2, 22), (3, 3)]);
    }

    #[test]
    fn group_by_key_collects_all_values() {
        let c = ctx();
        let d = c.parallelize(vec![(1, 1), (1, 2), (1, 3), (2, 9)], 2);
        let mut out = d.group_by_key(2).collect();
        out.sort();
        let (k1, mut v1) = out[0].clone();
        v1.sort();
        assert_eq!((k1, v1), (1, vec![1, 2, 3]));
        assert_eq!(out[1], (2, vec![9]));
    }

    #[test]
    fn join_broadcast_matches_shuffle_join_with_zero_shuffles() {
        let c = ctx();
        let big = c.parallelize(vec![(1, -1), (2, -2), (3, -3), (4, -4)], 3);
        let small = c.parallelize(vec![(1, 10), (3, 30), (9, 90)], 2);
        let mut want = big.join(&small, 4).collect();
        want.sort();
        let table = c.broadcast(small.collect_map());
        c.trace();
        let mut got = big.join_broadcast(table).collect();
        got.sort();
        assert_eq!(got, want);
        assert_eq!(
            c.take_profile().shuffle_stage_count(),
            0,
            "broadcast join must not shuffle"
        );
    }

    #[test]
    fn reduce_by_key_shuffles_fewer_records_than_group_by_key() {
        // chaos_off: a resubmitted map stage would write its records twice.
        let c = Context::builder().workers(4).chaos_off().build();
        let data: Vec<(i32, i64)> = (0..1000).map(|i| (i % 10, i as i64)).collect();
        let d = c.parallelize(data, 8);
        let written = |p: crate::JobProfile| {
            let records = p
                .stages
                .iter()
                .map(|s| s.shuffle_records_written)
                .sum::<u64>();
            (records, p.total_shuffle_bytes_written())
        };
        c.trace();
        d.reduce_by_key(4, |a, b| a + b).collect();
        let rbk = written(c.take_profile());
        d.group_by_key(4).collect();
        let gbk = written(c.take_profile());
        // reduceByKey writes at most keys*maps records, groupByKey all 1000.
        assert!(rbk.0 <= 80, "rbk: {rbk:?}");
        assert_eq!(gbk.0, 1000, "gbk: {gbk:?}");
        assert!(rbk.1 < gbk.1);
    }

    #[test]
    fn join_matches_pairs() {
        let c = ctx();
        let a = c.parallelize(
            vec![(1, "a".to_string()), (2, "b".into()), (2, "bb".into())],
            2,
        );
        let b = c.parallelize(vec![(2, 20.0), (3, 30.0)], 2);
        let mut out = a.join(&b, 2).collect();
        out.sort_by_key(|(k, (v, _))| (*k, v.clone()));
        assert_eq!(
            out,
            vec![(2, ("b".to_string(), 20.0)), (2, ("bb".to_string(), 20.0))]
        );
    }

    #[test]
    fn cogroup_keeps_unmatched_keys() {
        let c = ctx();
        let a = c.parallelize(vec![(1, 10)], 2);
        let b = c.parallelize(vec![(2, 20)], 2);
        let mut out = a.cogroup(&b, 2).collect();
        out.sort();
        assert_eq!(out, vec![(1, (vec![10], vec![])), (2, (vec![], vec![20]))]);
    }

    #[test]
    fn co_partitioned_join_is_narrow() {
        let c = ctx();
        let p = KeyPartitioner::<i64>::hash(4);
        let a = c
            .parallelize((0..100i64).map(|i| (i, i)).collect(), 4)
            .partition_by(p.clone());
        let b = c
            .parallelize((0..100i64).map(|i| (i, i * 2)).collect(), 4)
            .partition_by(p.clone());
        // Materialize both shuffles.
        a.count();
        b.count();
        c.trace();
        let out = a.join_with(&b, p).collect();
        assert_eq!(out.len(), 100);
        assert_eq!(
            c.take_profile().shuffle_stage_count(),
            0,
            "co-partitioned join must not shuffle"
        );
    }

    #[test]
    fn partition_by_preserves_duplicates_and_sets_partitioner() {
        let c = ctx();
        let d = c.parallelize(vec![(1, 1), (1, 2), (1, 3)], 2);
        let p = d.partition_by(KeyPartitioner::hash(3));
        assert_eq!(p.count(), 3);
        assert_eq!(p.partitioner_descriptor(), Some(("hash(3)".into(), 3)));
        // Re-partitioning by the same partitioner is a no-op.
        let q = p.partition_by(KeyPartitioner::hash(3));
        c.trace();
        q.count();
        assert_eq!(c.take_profile().shuffle_stage_count(), 0);
    }

    #[test]
    fn map_values_preserves_partitioning() {
        let c = ctx();
        let d = c
            .parallelize(vec![(1i64, 1i64), (2, 2)], 2)
            .partition_by(KeyPartitioner::hash(2));
        let m = d.map_values(|v| v * 10);
        assert_eq!(m.partitioner_descriptor(), Some(("hash(2)".into(), 2)));
        let mut out = m.collect();
        out.sort();
        assert_eq!(out, vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn map_partitions_preserving_keeps_the_partitioner_across_a_key_change() {
        let c = ctx();
        let p = KeyPartitioner::new(2, "parity", |k: &i64| *k as usize);
        let d = c
            .parallelize((0..8i64).map(|i| (i, i)).collect(), 3)
            .partition_by(p.clone());
        // `k -> k + 2` keeps parity, so every record stays where it is.
        let shifted = d.map_partitions_preserving("shift", |_, s| s.map(|(k, v)| (k + 2, v)));
        assert_eq!(shifted.partitioner_descriptor(), Some(("parity".into(), 2)));
        shifted.count();
        c.trace();
        let mut joined = shifted.join_with(&d, p).collect();
        assert_eq!(c.take_profile().shuffle_stage_count(), 0);
        joined.sort();
        let want: Vec<_> = (2..8i64).map(|k| (k, (k - 2, k))).collect();
        assert_eq!(joined, want);
    }

    #[test]
    fn distinct_deduplicates() {
        let c = ctx();
        let d = c.parallelize(vec![1, 2, 2, 3, 1, 1], 3);
        let mut out = d.distinct(2).collect();
        out.sort();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn union_concatenates() {
        let c = ctx();
        let a = c.parallelize(vec![1, 2], 1);
        let b = c.parallelize(vec![3], 1);
        assert_eq!(a.union(&b).collect(), vec![1, 2, 3]);
    }

    #[test]
    fn persist_computes_lineage_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let c = cache_ctx();
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = calls.clone();
        let d = c
            .parallelize((0..10i64).collect(), 2)
            .map(move |x| {
                calls2.fetch_add(1, Ordering::SeqCst);
                x * 3
            })
            .persist();
        let expected: Vec<i64> = (0..10).map(|x| x * 3).collect();
        assert_eq!(d.collect(), expected);
        assert_eq!(d.collect(), expected);
        assert_eq!(calls.load(Ordering::SeqCst), 10, "second pass must hit");
        assert_eq!(c.storage_status().blocks_in_memory, 2);
    }

    #[test]
    fn persist_under_tiny_budget_still_correct() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A budget of one and a half 10-element blocks holds exactly one of
        // the four partitions, forcing eviction and lineage recomputation on
        // every pass.
        let block = crate::wire::encoded_len(&vec![0i64; 10]) as usize;
        let c = Context::builder()
            .workers(4)
            .storage_memory(block + block / 2)
            .build();
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = calls.clone();
        let d = c
            .parallelize((0..40i64).collect(), 4)
            .map(move |x| {
                calls2.fetch_add(1, Ordering::SeqCst);
                x + 1
            })
            .persist();
        let expected: Vec<i64> = (1..=40).collect();
        assert_eq!(d.collect(), expected);
        assert_eq!(d.collect(), expected);
        assert!(
            calls.load(Ordering::SeqCst) > 40,
            "thrashing budget must force recomputation"
        );
        assert!(c.storage_status().evictions > 0);
    }

    #[test]
    fn unpersist_drops_blocks_and_recomputes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let c = cache_ctx();
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = calls.clone();
        let d = c
            .parallelize((0..6i64).collect(), 2)
            .map(move |x| {
                calls2.fetch_add(1, Ordering::SeqCst);
                x
            })
            .persist();
        d.collect();
        assert_eq!(d.unpersist(), 2);
        assert_eq!(c.storage_status().blocks_in_memory, 0);
        d.collect();
        assert_eq!(calls.load(Ordering::SeqCst), 12, "unpersist forces rerun");
        // Non-persisted datasets have nothing to unpersist.
        assert_eq!(c.parallelize(vec![1], 1).unpersist(), 0);
    }

    #[test]
    fn persisted_blocks_die_with_their_executor_and_recompute() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // One executor owns every block: killing it must drop them from the
        // block manager (storage is executor-scoped), and the next read must
        // transparently recompute from lineage and re-store.
        let c = Context::builder()
            .workers(1)
            .storage_memory(64 << 20)
            .chaos_off()
            .build();
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = calls.clone();
        let d = c
            .parallelize((0..8i64).collect(), 2)
            .map(move |x| {
                calls2.fetch_add(1, Ordering::SeqCst);
                x * 7
            })
            .persist();
        let expected: Vec<i64> = (0..8).map(|x| x * 7).collect();
        assert_eq!(d.collect(), expected);
        assert_eq!(c.storage_status().blocks_in_memory, 2);

        assert!(c.kill_executor(0));
        assert_eq!(
            c.storage_status().blocks_in_memory,
            0,
            "blocks die with their executor"
        );
        assert_eq!(d.collect(), expected, "lost blocks recompute from lineage");
        assert_eq!(calls.load(Ordering::SeqCst), 16);
        assert_eq!(
            c.storage_status().blocks_in_memory,
            2,
            "recomputed blocks are re-stored by the restarted incarnation"
        );
    }

    /// Ample pinned budget and no chaos: the lifetime tests count blocks.
    fn lifetime_ctx() -> Context {
        Context::builder()
            .workers(4)
            .storage_memory(64 << 20)
            .chaos_off()
            .build()
    }

    fn blocks(c: &Context) -> usize {
        c.storage_status().blocks_in_memory
    }

    #[test]
    fn dropping_the_last_handle_of_a_persisted_dataset_frees_its_blocks() {
        let c = lifetime_ctx();
        let d = c.parallelize((0..40i64).collect(), 4).persist();
        d.count();
        assert_eq!(blocks(&c), 4);
        drop(d);
        assert_eq!(blocks(&c), 0);
    }

    #[test]
    fn a_clone_or_a_dataset_built_on_it_keeps_the_blocks_alive() {
        let c = lifetime_ctx();
        let d = c.parallelize((0..40i64).collect(), 4).persist();
        d.count();
        let (clone, built) = (d.clone(), d.map(|x| x + 1));
        drop(d);
        assert_eq!(blocks(&c), 4);
        c.trace();
        assert_eq!(built.count(), 40);
        assert_eq!(
            c.take_profile().cache_totals().hits,
            4,
            "`built` reads them"
        );
        drop(built);
        assert_eq!(blocks(&c), 4, "the clone still holds them");
        drop(clone);
        assert_eq!(blocks(&c), 0);
    }

    #[test]
    fn a_persisted_dataset_reads_its_inputs_blocks_until_it_has_its_own() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let c = lifetime_ctx();
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = calls.clone();
        let a = c
            .parallelize((0..40i64).collect(), 4)
            .map(move |x| {
                calls2.fetch_add(1, Ordering::SeqCst);
                x
            })
            .persist();
        a.count();
        let b = a.map(|x| x + 1).persist();
        drop(a);
        assert_eq!(b.count(), 40);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            40,
            "`b` computed from `a`'s blocks"
        );
        assert_eq!(blocks(&c), 4, "which then go");
    }

    #[test]
    fn a_persist_loop_keeps_one_generation_of_blocks() {
        // The iterative shape of `examples/matrix_factorization.rs`: each
        // generation is persisted, materialized, then replaces the last.
        let c = lifetime_ctx();
        let mut x = c.parallelize((0..40i64).collect(), 4).persist();
        x.count();
        for _ in 0..5 {
            let next = x.map(|v| v + 1).persist();
            next.count();
            x = next;
            assert_eq!(blocks(&c), 4);
        }
        assert_eq!(x.collect(), (5..45).collect::<Vec<_>>());
    }

    #[test]
    fn no_block_outlives_a_drop_after_an_executor_kill() {
        let c = Context::builder()
            .workers(2)
            .storage_memory(64 << 20)
            .chaos_off()
            .build();
        let d = c.parallelize((0..40i64).collect(), 4).persist();
        d.count();
        assert!(c.kill_executor(0));
        assert_eq!(d.count(), 40, "lost blocks recompute and are stored again");
        assert_eq!(blocks(&c), 4);
        drop(d);
        assert_eq!(blocks(&c), 0);
    }

    #[test]
    fn persist_preserves_partitioning() {
        let c = ctx();
        let d = c
            .parallelize(vec![(1i64, 1i64), (2, 2)], 2)
            .partition_by(KeyPartitioner::hash(2))
            .persist();
        assert_eq!(d.partitioner_descriptor(), Some(("hash(2)".into(), 2)));
    }

    #[test]
    fn lookup_finds_all_values() {
        let c = ctx();
        let d = c.parallelize(vec![(1, 10), (2, 20), (1, 11)], 3);
        let mut vs = d.lookup(&1);
        vs.sort();
        assert_eq!(vs, vec![10, 11]);
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let mk = |workers| {
            let c = Context::builder().workers(workers).build();
            let d = c.parallelize((0..500i64).map(|i| (i % 7, i)).collect(), 8);
            d.reduce_by_key(3, |a, b| a + b).collect()
        };
        assert_eq!(mk(1), mk(8));
    }

    #[test]
    fn failure_injection_still_produces_correct_results() {
        // Extends any `SPARKLINE_CHAOS` schedule rather than replacing it;
        // five attempts outlast both plans' failures on one task.
        let seed = std::env::var(crate::CHAOS_ENV).unwrap_or_default();
        let plan = crate::ChaosPlan::from_env(&seed, 4).unwrap_or_default();
        let c = Context::builder()
            .workers(4)
            .default_parallelism(4)
            .max_task_attempts(5)
            .chaos(plan.with_task_failures(2, 2))
            .build();
        c.trace();
        let d = c.parallelize((0..100i64).map(|i| (i % 5, 1i64)).collect(), 4);
        let mut out = d.reduce_by_key(2, |a, b| a + b).collect();
        out.sort();
        assert_eq!(out, (0..5).map(|k| (k, 20)).collect::<Vec<_>>());
        assert!(c.take_profile().total_failed_attempts() >= 2);
    }
}
