//! Pull-based partition streams — the zero-copy execution currency of the
//! runtime.
//!
//! Every [`crate::ops::Op::compute`] returns a [`PartitionStream`] instead of
//! an owned `Vec`. A stream is either:
//!
//! * [`PartitionStream::Iter`] — a lazy boxed iterator chain. Narrow
//!   operators (`map`, `filter`, `flat_map`, ...) stack adapters onto it, so
//!   a `map → filter → map` task pulls records through one fused pipeline
//!   with **no intermediate `Vec` between operators** (Spark's pipelined
//!   narrow stages, which §4–5 of the paper compile comprehensions into).
//! * [`PartitionStream::Shared`] — a zero-copy `(Arc<Vec<T>>, Range)` view of
//!   an already-materialized block: a source partition, a cached/persisted
//!   block, or a materialized shuffle output. Handing the partition to a task
//!   is a refcount bump; consumers that only iterate never copy the backing
//!   allocation, and [`PartitionStream::count`] doesn't even touch it.
//!
//! **Ownership rules.** Operators may consume a stream exactly once. An
//! operator may collect (materialize) only when its semantics require
//! ownership of the whole partition at once — cache/persist stores, shuffle
//! bucket fills, sort/group builds. [`PartitionStream::into_vec`] recovers
//! the backing allocation of an exclusively-held full-range `Shared` for
//! free (`Arc::try_unwrap`), so "collect" after a fused chain costs exactly
//! one materialization. A `Shared` view consumed **by value** (`into_iter`,
//! and so every fused `map`/`filter`/`flat_map`, or `into_vec` of a block
//! someone else still holds) clones each record on demand; what that costs
//! is the record type's business, not the stream's — `T: Clone` is all the
//! stream knows. Large payloads are therefore expected to be cheap to clone:
//! a tile (`tiled::DenseMatrix`) is a shared copy-on-write buffer, so reading
//! it out of a source, cache, broadcast or shuffle-output partition is a
//! refcount bump and the payload pointer survives the whole pipeline.
//! Consumers that only inspect records can skip even that with
//! [`PartitionStream::for_each_ref`].
//!
//! Streams are **re-creatable from lineage, not single-shot**: `compute`
//! builds a fresh stream each call, so task retries and cache
//! recomputation replay identically (chaos semantics are
//! bit-identical to the eager runtime).
//!
//! When tracing is on, `instrument` threads per-operator `rows_out` /
//! `bytes_out` counters through the stream: `Shared` outputs (length known)
//! emit an [`Event::OperatorOutput`] immediately and pass through untouched
//! (preserving `Arc` identity for the no-copy guarantees); `Iter` outputs are
//! wrapped in a counting adapter that emits when the task drops it, so
//! partially-drained pipelines report what actually flowed.

use crate::context::Context;
use crate::events::Event;
use crate::Data;
use std::ops::Range;
use std::sync::Arc;

/// One partition's worth of records, pulled lazily or borrowed zero-copy.
pub enum PartitionStream<T: Data> {
    /// Lazy iterator chain; narrow operators fuse into it.
    Iter(Box<dyn Iterator<Item = T> + Send>),
    /// Zero-copy view of a shared, already-materialized block.
    Shared(Arc<Vec<T>>, Range<usize>),
}

impl<T: Data> PartitionStream<T> {
    /// Stream over an owned vector (becomes a full-range exclusive `Shared`,
    /// so a downstream [`PartitionStream::into_vec`] gets it back for free).
    pub fn from_vec(data: Vec<T>) -> Self {
        let len = data.len();
        PartitionStream::Shared(Arc::new(data), 0..len)
    }

    /// Lazy stream over an iterator.
    ///
    /// Not `FromIterator`: that trait would force eager collection to name
    /// the concrete iterator type, and this constructor must stay lazy.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I>(iter: I) -> Self
    where
        I: Iterator<Item = T> + Send + 'static,
    {
        PartitionStream::Iter(Box::new(iter))
    }

    /// Zero-copy view of a whole shared block (cache hit, source partition,
    /// materialized shuffle output): a refcount bump, never a copy.
    pub fn shared(data: Arc<Vec<T>>) -> Self {
        let len = data.len();
        PartitionStream::Shared(data, 0..len)
    }

    /// Zero-copy view of a sub-range of a shared block.
    pub fn shared_range(data: Arc<Vec<T>>, range: Range<usize>) -> Self {
        debug_assert!(range.end <= data.len());
        PartitionStream::Shared(data, range)
    }

    /// The empty stream.
    pub fn empty() -> Self {
        PartitionStream::Iter(Box::new(std::iter::empty()))
    }

    /// Exact length when known without draining (`Shared` views).
    pub fn len_hint(&self) -> Option<usize> {
        match self {
            PartitionStream::Iter(_) => None,
            PartitionStream::Shared(_, range) => Some(range.len()),
        }
    }

    /// The backing shared block and view range, if this stream is a
    /// zero-copy view — lets tests assert allocation identity
    /// (`Arc::ptr_eq`) and lets consumers borrow without cloning.
    pub fn as_shared(&self) -> Option<(&Arc<Vec<T>>, &Range<usize>)> {
        match self {
            PartitionStream::Iter(_) => None,
            PartitionStream::Shared(data, range) => Some((data, range)),
        }
    }

    /// Materialize the stream. Lazy chains collect; an exclusively-held
    /// full-range `Shared` recovers its allocation without copying
    /// (`Arc::try_unwrap`); shared views clone only their range.
    pub fn into_vec(self) -> Vec<T> {
        match self {
            PartitionStream::Iter(iter) => iter.collect(),
            PartitionStream::Shared(data, range) => {
                if range.start == 0 && range.end == data.len() {
                    match Arc::try_unwrap(data) {
                        Ok(v) => v,
                        Err(shared) => shared[..].to_vec(),
                    }
                } else {
                    data[range].to_vec()
                }
            }
        }
    }

    /// Number of records. `Shared` views answer from the range without
    /// touching (or cloning) a single element; lazy chains drain.
    pub fn count(self) -> usize {
        match self {
            PartitionStream::Iter(iter) => iter.count(),
            PartitionStream::Shared(_, range) => range.len(),
        }
    }

    /// Consume the stream read-only. `Shared` views are visited **by
    /// reference** — no per-element clone at all — and lazy chains are
    /// drained; use this when the consumer only inspects records (e.g.
    /// building an aggregate from borrowed tiles).
    pub fn for_each_ref(self, mut f: impl FnMut(&T)) {
        match self {
            PartitionStream::Iter(iter) => {
                for t in iter {
                    f(&t);
                }
            }
            PartitionStream::Shared(data, range) => {
                for t in &data[range] {
                    f(t);
                }
            }
        }
    }

    /// Fused element-wise transform (lazy; no intermediate collection).
    pub fn map<U: Data>(self, f: impl Fn(T) -> U + Send + 'static) -> PartitionStream<U> {
        PartitionStream::Iter(Box::new(self.into_iter().map(f)))
    }

    /// Fused filter (lazy).
    pub fn filter(self, f: impl Fn(&T) -> bool + Send + 'static) -> PartitionStream<T> {
        PartitionStream::Iter(Box::new(self.into_iter().filter(move |t| f(t))))
    }

    /// Fused element-to-many transform (lazy). Each element's expansion is
    /// buffered individually; no whole-partition collection happens.
    pub fn flat_map<U: Data, I: IntoIterator<Item = U>>(
        self,
        f: impl Fn(T) -> I + Send + 'static,
    ) -> PartitionStream<U> {
        PartitionStream::Iter(Box::new(
            self.into_iter()
                .flat_map(move |t| f(t).into_iter().collect::<Vec<U>>()),
        ))
    }
}

/// Iterator over a shared block view, cloning elements on demand (the
/// backing allocation itself is never copied; the per-element cost is
/// `T::clone`'s — a refcount bump for tiles).
pub struct SharedIter<T> {
    data: Arc<Vec<T>>,
    range: Range<usize>,
}

impl<T: Clone> Iterator for SharedIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let i = self.range.next()?;
        Some(self.data[i].clone())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl<T: Data> IntoIterator for PartitionStream<T> {
    type Item = T;
    type IntoIter = Box<dyn Iterator<Item = T> + Send>;

    fn into_iter(self) -> Self::IntoIter {
        match self {
            PartitionStream::Iter(iter) => iter,
            PartitionStream::Shared(data, range) => Box::new(SharedIter { data, range }),
        }
    }
}

// ---------------------------------------------------------------------------
// Per-operator cardinality instrumentation
// ---------------------------------------------------------------------------

/// In-memory bytes of `rows` records of `T` — what the `bytes_out` counters
/// report (narrow operators carry no codec bound on their element types, so
/// unlike shuffle and cache figures this is not a wire length).
fn bytes_estimate<T>(rows: u64) -> u64 {
    rows * std::mem::size_of::<T>() as u64
}

/// Iterator adapter counting what actually flows through a lazy pipeline;
/// emits one [`Event::OperatorOutput`] when the consumer drops it, so
/// partial drains report partial counts.
struct CountingIter<T> {
    inner: Box<dyn Iterator<Item = T> + Send>,
    rows: u64,
    operator: String,
    part: usize,
    ctx: Context,
}

impl<T> Iterator for CountingIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let item = self.inner.next();
        if item.is_some() {
            self.rows += 1;
        }
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<T> Drop for CountingIter<T> {
    fn drop(&mut self) {
        // A task unwinding mid-drain (cooperative cancellation, any in-task
        // panic) did not complete: its partial
        // counts describe work that is discarded and retried, and emitting
        // them would pollute `StageProfile::operators` with phantom rows.
        // Successful tasks that legitimately stop early (e.g. `take`) drop
        // without panicking and still report what actually flowed.
        if std::thread::panicking() {
            return;
        }
        self.ctx.events().emit(Event::OperatorOutput {
            stage_id: crate::context::current_stage(),
            task: self.part,
            operator: std::mem::take(&mut self.operator),
            rows: self.rows,
            bytes: bytes_estimate::<T>(self.rows),
        });
    }
}

/// Thread `rows_out` / `bytes_out` counters onto a stream when tracing.
///
/// `Shared` streams have a known length: the event is emitted immediately
/// and the stream passes through **untouched**, preserving `Arc` identity
/// (the zero-copy guarantees stay observable under tracing). Lazy streams
/// are wrapped in a counting adapter that emits on drop. With tracing off
/// this is a no-op.
pub(crate) fn instrument<T: Data>(
    stream: PartitionStream<T>,
    operator: &str,
    part: usize,
    ctx: &Context,
) -> PartitionStream<T> {
    if !ctx.events().is_enabled() {
        return stream;
    }
    match stream {
        PartitionStream::Shared(data, range) => {
            let rows = range.len() as u64;
            ctx.events().emit(Event::OperatorOutput {
                stage_id: crate::context::current_stage(),
                task: part,
                operator: operator.to_string(),
                rows,
                bytes: bytes_estimate::<T>(rows),
            });
            PartitionStream::Shared(data, range)
        }
        PartitionStream::Iter(inner) => PartitionStream::Iter(Box::new(CountingIter {
            inner,
            rows: 0,
            operator: operator.to_string(),
            part,
            ctx: ctx.clone(),
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_into_vec_recovers_allocation_without_copy() {
        let v = vec![1, 2, 3];
        let ptr = v.as_ptr();
        let s = PartitionStream::from_vec(v);
        let back = s.into_vec();
        assert_eq!(back, vec![1, 2, 3]);
        assert_eq!(back.as_ptr(), ptr, "exclusive full-range view must move");
    }

    #[test]
    fn shared_view_never_steals_the_block() {
        let block = Arc::new(vec![10, 20, 30, 40]);
        let s = PartitionStream::shared(block.clone());
        assert_eq!(s.len_hint(), Some(4));
        assert_eq!(s.into_vec(), vec![10, 20, 30, 40]);
        assert_eq!(Arc::strong_count(&block), 1, "view released its refcount");
    }

    #[test]
    fn shared_range_clones_only_its_window() {
        let block = Arc::new(vec![0, 1, 2, 3, 4, 5]);
        let s = PartitionStream::shared_range(block.clone(), 2..5);
        assert_eq!(s.len_hint(), Some(3));
        assert_eq!(s.into_vec(), vec![2, 3, 4]);
    }

    #[test]
    fn count_on_shared_is_range_len() {
        let s = PartitionStream::shared(Arc::new(vec![1u8; 1000]));
        assert_eq!(s.count(), 1000);
    }

    #[test]
    fn adapters_fuse_lazily() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pulled = Arc::new(AtomicUsize::new(0));
        let p = pulled.clone();
        let s = PartitionStream::from_iter((0..100).inspect(move |_| {
            p.fetch_add(1, Ordering::SeqCst);
        }))
        .map(|x| x * 2)
        .filter(|x| x % 4 == 0)
        .flat_map(|x| [x, x + 1]);
        // Building the chain pulls nothing.
        assert_eq!(pulled.load(Ordering::SeqCst), 0);
        let mut it = s.into_iter();
        assert_eq!(it.next(), Some(0));
        assert_eq!(it.next(), Some(1));
        // Pulling two outputs consumed at most two source elements (x=0 maps
        // to 0, keeps; x=1 maps to 2, filtered on the third pull).
        assert!(pulled.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn empty_stream_is_empty() {
        assert_eq!(PartitionStream::<i32>::empty().count(), 0);
        assert!(PartitionStream::<i32>::empty().into_vec().is_empty());
    }

    #[test]
    fn instrument_counts_lazy_and_shared_streams() {
        let ctx = Context::new();
        ctx.trace();
        let lazy = instrument(PartitionStream::from_iter(0..5i64), "map", 0, &ctx);
        assert_eq!(lazy.into_vec(), vec![0, 1, 2, 3, 4]);
        let block = Arc::new(vec![7i64, 8]);
        let shared = instrument(PartitionStream::shared(block.clone()), "source", 1, &ctx);
        // Shared streams pass through untouched: same backing allocation.
        let (seen, _) = shared.as_shared().expect("still shared");
        assert!(Arc::ptr_eq(seen, &block));
        drop(shared);
        let events = ctx.take_events();
        let outputs: Vec<(&str, u64, u64)> = events
            .iter()
            .filter_map(|e| match e {
                Event::OperatorOutput {
                    operator,
                    rows,
                    bytes,
                    ..
                } => Some((operator.as_str(), *rows, *bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(outputs, vec![("map", 5, 40), ("source", 2, 16)]);
    }

    #[test]
    fn panicking_drop_suppresses_operator_output() {
        let ctx = Context::new();
        ctx.trace();
        let inner = ctx.clone();
        // A consumer that drains part of the pipeline and then dies: the
        // counting adapter is dropped during the unwind and must not report
        // the partial count as if the task had completed.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut it =
                instrument(PartitionStream::from_iter(0..100i64), "map", 0, &inner).into_iter();
            it.next();
            it.next();
            panic!("task died mid-drain");
        }));
        assert!(unwound.is_err());
        assert!(
            ctx.take_events()
                .iter()
                .all(|e| !matches!(e, Event::OperatorOutput { .. })),
            "partially-consumed pipeline of a failed task must not emit stats"
        );
        // A non-panicking partial drain still reports (the documented
        // partial-drain semantics).
        let mut it = instrument(PartitionStream::from_iter(0..100i64), "map", 0, &ctx).into_iter();
        it.next();
        it.next();
        drop(it);
        let rows: Vec<u64> = ctx
            .take_events()
            .iter()
            .filter_map(|e| match e {
                Event::OperatorOutput { rows, .. } => Some(*rows),
                _ => None,
            })
            .collect();
        assert_eq!(rows, vec![2]);
    }

    #[test]
    fn instrument_reports_partial_drains() {
        let ctx = Context::new();
        ctx.trace();
        let s = instrument(PartitionStream::from_iter(0..100i32), "map", 3, &ctx);
        let mut it = s.into_iter();
        it.next();
        it.next();
        drop(it);
        let events = ctx.take_events();
        let rows: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::OperatorOutput { rows, .. } => Some(*rows),
                _ => None,
            })
            .collect();
        assert_eq!(rows, vec![2]);
    }

    #[test]
    fn instrument_is_a_no_op_untraced() {
        let ctx = Context::new();
        let block = Arc::new(vec![1, 2, 3]);
        let s = instrument(PartitionStream::shared(block.clone()), "source", 0, &ctx);
        let (seen, _) = s.as_shared().expect("shared passes through");
        assert!(Arc::ptr_eq(seen, &block));
        assert!(ctx.take_events().is_empty());
    }
}
