//! Wide (shuffle) operators: the machinery behind `reduce_by_key`,
//! `group_by_key`, `partition_by`, `cogroup` and `join`.
//!
//! A shuffle materializes in two stages, as in Spark:
//!
//! 1. **Map stage** — one task per parent partition computes the parent
//!    partition, routes each record to a reduce bucket with the
//!    [`KeyPartitioner`], optionally combining values per key on the map side
//!    (Spark's combiner; this is what makes `reduceByKey` cheaper than
//!    `groupByKey`, the distinction §4 of the paper builds on). Bucket sizes
//!    go on the trace as `ShuffleWrite` events.
//! 2. **Reduce stage** — one task per reduce partition merges the buckets
//!    destined to it, combining per key (or simply concatenating for
//!    `partition_by`).
//!
//! Merging uses insertion-ordered maps so results are deterministic across
//! runs and worker counts.
//!
//! **Map-output store.** Between the two stages a shuffle's buckets wait in
//! a private `MapOutputStore`: an in-process grid of live `Vec<(K, C)>`
//! buckets, or — with worker processes — SPKL frames PUT to the workers'
//! sockets and (external shuffle service) spooled to a driver-visible
//! directory. `store` / `take_column` / `clear` hide which; the map and
//! reduce tasks are written once over them. Every byte figure either variant
//! reports is [`wire::encoded_len`], the exact framed length — the same
//! number traced or not, one process or many; frames are only built when they
//! are sent.
//!
//! **Fault tolerance.** Each map output is owned by the logical executor that
//! produced it, recorded in the [`MapOutputTracker`]. When an executor dies
//! its outputs are marked lost; reduce tasks then surface a fetch failure
//! (instead of panicking), and the materialization loop resubmits a map
//! stage covering *only the missing partitions* — bounded by
//! `max_stage_attempts`, with exponential backoff — before retrying the
//! outstanding reduce partitions. Results are bit-identical to a fault-free
//! run because every stage recomputes deterministically from lineage.

use crate::chaos::{splitmix64, WireFault};
use crate::context::{current_executor, Context, StageMeta};
use crate::events::Event;
use crate::ops::Op;
use crate::partitioner::KeyPartitioner;
use crate::storage::SpillCodec;
use crate::stream::PartitionStream;
use crate::sync::Mutex;
use crate::transport::WorkerGroup;
use crate::{wire, Data};
use std::collections::HashMap;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Exponential backoff with deterministic jitter, used for both stage
/// resubmission and shuffle-fetch retries.
///
/// `delay(attempt, salt)` for attempt `n` (0-based) is
/// `min(base · multiplierⁿ, cap)`, then shrunk by up to `jitter` of itself
/// using a hash of `(attempt, salt)` — deterministic, so chaos runs with the
/// same seed reproduce the same schedule, but de-synchronized across
/// shuffles/tasks (different salts) to avoid retry stampedes.
struct BackoffPolicy {
    /// Delay before the first retry.
    base: Duration,
    /// Growth factor per attempt (≥ 1.0).
    multiplier: f64,
    /// Upper bound on any single delay.
    cap: Duration,
    /// Fraction of each delay randomized away, in `[0, 1]`. 0 = fully
    /// deterministic delays.
    jitter: f64,
}

/// Between attempts of a resubmitted shuffle map stage: 200µs doubling to
/// 10ms, no jitter — keeps recovery fast in tests.
const RESUBMIT_BACKOFF: BackoffPolicy = BackoffPolicy {
    base: Duration::from_micros(200),
    multiplier: 2.0,
    cap: Duration::from_millis(10),
    jitter: 0.0,
};

/// Between retries of one shuffle fetch. Retries are cheap loopback
/// round-trips; back off hard enough to ride out a worker respawn, but stay
/// well under the cost of resubmitting the map stage.
const FETCH_BACKOFF: BackoffPolicy = BackoffPolicy {
    base: Duration::from_micros(100),
    multiplier: 2.0,
    cap: Duration::from_millis(5),
    jitter: 0.25,
};

/// Retries per shuffle fetch (beyond the first attempt) before the fetch
/// escalates to `FetchFailed` handling.
const FETCH_RETRIES: u32 = 3;

impl BackoffPolicy {
    /// Delay before retry number `attempt` (0-based). `salt` decorrelates
    /// independent retry loops (pass e.g. the shuffle id or task index).
    fn delay(&self, attempt: u32, salt: u64) -> Duration {
        let base = self.base.as_micros() as f64;
        let cap = self.cap.as_micros() as f64;
        let raw = (base * self.multiplier.powi(attempt.min(64) as i32)).min(cap);
        let jitter = self.jitter.clamp(0.0, 1.0);
        let micros = if jitter == 0.0 {
            raw
        } else {
            // Deterministic "randomness": hash of (attempt, salt).
            let mut state = salt ^ (u64::from(attempt) << 32) ^ 0x9e37_79b9_7f4a_7c15;
            let frac = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            raw * (1.0 - jitter * frac)
        };
        Duration::from_micros(micros as u64)
    }
}

/// Who produced (and therefore owns) one shuffle map output.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OutputOwner {
    /// Owned by a logical executor at a specific epoch; dies with it.
    Executor { executor: usize, epoch: u64 },
    /// Produced on a driver thread (no executor): survives every kill.
    Driver,
    /// Written through the external shuffle service (a driver-visible
    /// directory): survives the death of the executor (and worker process)
    /// that produced it. The producing executor is kept so chaos plans can
    /// still target "the owner of map output p".
    External { executor: usize },
}

/// Driver-side registry of which executor owns each shuffle map output —
/// sparkline's `MapOutputTracker`. Pure bookkeeping over `(shuffle,
/// map_partition)`: epoch validity is judged by callers, who know the live
/// epochs; [`Context::kill_executor`](crate::Context::kill_executor) sweeps
/// an executor's outputs when it dies.
#[derive(Default)]
pub struct MapOutputTracker {
    state: Mutex<HashMap<u64, Vec<Option<OutputOwner>>>>,
}

impl MapOutputTracker {
    /// Ensure `shuffle` is tracked with `n_map` (initially missing) outputs.
    pub(crate) fn register_shuffle(&self, shuffle: u64, n_map: usize) {
        self.state
            .lock()
            .entry(shuffle)
            .or_insert_with(|| vec![None; n_map]);
    }

    /// Record who produced map output `part`.
    pub(crate) fn register(&self, shuffle: u64, part: usize, owner: OutputOwner) {
        if let Some(parts) = self.state.lock().get_mut(&shuffle) {
            parts[part] = Some(owner);
        }
    }

    /// Mark one output lost (fetch failure / half-consumed merge input).
    pub(crate) fn unregister(&self, shuffle: u64, part: usize) {
        if let Some(parts) = self.state.lock().get_mut(&shuffle) {
            parts[part] = None;
        }
    }

    /// Map partitions of `shuffle` with no live output, in partition order.
    pub(crate) fn missing(&self, shuffle: u64) -> Vec<usize> {
        self.state
            .lock()
            .get(&shuffle)
            .map_or_else(Vec::new, |parts| {
                parts
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.is_none())
                    .map(|(p, _)| p)
                    .collect()
            })
    }

    /// Some live output of `shuffle`, if any — the victim for an injected
    /// fetch failure.
    pub(crate) fn any_live(&self, shuffle: u64) -> Option<usize> {
        self.state
            .lock()
            .get(&shuffle)
            .and_then(|parts| parts.iter().position(Option::is_some))
    }

    /// Executor that produced map output `part`, if executor-produced
    /// (including outputs parked in the external shuffle service, so chaos
    /// plans can target the producer even when its output would survive it).
    pub fn owner(&self, shuffle: u64, part: usize) -> Option<usize> {
        match self.state.lock().get(&shuffle)?.get(part)? {
            Some(OutputOwner::Executor { executor, .. })
            | Some(OutputOwner::External { executor }) => Some(*executor),
            _ => None,
        }
    }

    /// True if map output `part` lives in the external shuffle service.
    pub(crate) fn is_external(&self, shuffle: u64, part: usize) -> bool {
        matches!(
            self.state.lock().get(&shuffle).and_then(|p| p.get(part)),
            Some(Some(OutputOwner::External { .. }))
        )
    }

    /// Live outputs registered for `shuffle` (diagnostics).
    pub fn live_outputs(&self, shuffle: u64) -> usize {
        self.state
            .lock()
            .get(&shuffle)
            .map_or(0, |parts| parts.iter().filter(|o| o.is_some()).count())
    }

    /// Sweep every output owned by `executor` up to and including
    /// `dead_epoch` (older incarnations are just as dead; outputs registered
    /// by the restarted incarnation survive). Outputs parked in the external
    /// shuffle service are *not* swept — surviving executor death is the
    /// point of that mode. Returns how many outputs were lost.
    pub(crate) fn remove_executor(&self, executor: usize, dead_epoch: u64) -> usize {
        let mut lost = 0;
        for parts in self.state.lock().values_mut() {
            for slot in parts.iter_mut() {
                if matches!(
                    slot,
                    Some(OutputOwner::Executor { executor: e, epoch }) if *e == executor && *epoch <= dead_epoch
                ) {
                    *slot = None;
                    lost += 1;
                }
            }
        }
        lost
    }

    /// Forget `shuffle` entirely — called once its reduce output is
    /// materialized and cached on the driver, after which map outputs can no
    /// longer be lost.
    pub(crate) fn drop_shuffle(&self, shuffle: u64) {
        self.state.lock().remove(&shuffle);
    }
}

/// What one map task reports back to the materialization loop.
struct MapOutput {
    /// Wire bytes of the buckets it parked in the store.
    bytes: u64,
    /// Records after map-side combining.
    records_written: u64,
    owner: OutputOwner,
}

/// One reduce partition's merged output and its shuffle-read volume
/// `(bytes, records)`, filled by the attempt that fetched and merged it.
type ReducedSlot<K, C> = Mutex<Option<(Vec<(K, C)>, u64, u64)>>;

/// How map-side values become reduce-side combiners.
pub struct Aggregator<V, C> {
    /// Make the initial combiner from the first value of a key.
    pub create: Arc<dyn Fn(V) -> C + Send + Sync>,
    /// Fold one more value into a combiner (map side).
    pub merge_value: Arc<dyn Fn(&mut C, V) + Send + Sync>,
    /// Merge two combiners (reduce side).
    pub merge_combiners: Arc<dyn Fn(&mut C, C) + Send + Sync>,
    /// Combine per key on the map side before writing shuffle output.
    pub map_side_combine: bool,
    /// Merge combiners per key on the reduce side. `false` for
    /// `partition_by`, which must preserve duplicate keys.
    pub merge_on_reduce: bool,
}

impl<V, C> Clone for Aggregator<V, C> {
    fn clone(&self) -> Self {
        Aggregator {
            create: self.create.clone(),
            merge_value: self.merge_value.clone(),
            merge_combiners: self.merge_combiners.clone(),
            map_side_combine: self.map_side_combine,
            merge_on_reduce: self.merge_on_reduce,
        }
    }
}

impl<V: Data> Aggregator<V, V> {
    /// Aggregator for `reduce_by_key(f)`: the combiner is the running value.
    pub fn reducing(f: impl Fn(V, V) -> V + Send + Sync + 'static) -> Self {
        let f = Arc::new(f);
        let f2 = f.clone();
        Aggregator {
            create: Arc::new(|v| v),
            merge_value: Arc::new(move |c: &mut V, v| {
                let old = c.clone();
                *c = f(old, v);
            }),
            merge_combiners: Arc::new(move |c: &mut V, o| {
                let old = c.clone();
                *c = f2(old, o);
            }),
            map_side_combine: true,
            merge_on_reduce: true,
        }
    }

    /// Like [`Aggregator::reducing`] but folding in place, avoiding the clone
    /// of the running combiner — important when values are large tiles.
    pub fn reducing_in_place(f: impl Fn(&mut V, V) + Send + Sync + 'static) -> Self {
        let f = Arc::new(f);
        let f2 = f.clone();
        Aggregator {
            create: Arc::new(|v| v),
            merge_value: Arc::new(move |c: &mut V, v| f(c, v)),
            merge_combiners: Arc::new(move |c: &mut V, o| f2(c, o)),
            map_side_combine: true,
            merge_on_reduce: true,
        }
    }

    /// Aggregator for `partition_by`: no combining anywhere, duplicate keys
    /// are preserved.
    pub fn pass_through() -> Self {
        Aggregator {
            create: Arc::new(|v| v),
            merge_value: Arc::new(|_c: &mut V, _v| unreachable!("pass_through never combines")),
            merge_combiners: Arc::new(|_c: &mut V, _o| unreachable!("pass_through never combines")),
            map_side_combine: false,
            merge_on_reduce: false,
        }
    }
}

impl<V: Data> Aggregator<V, Vec<V>> {
    /// Aggregator for `group_by_key`: the combiner is the list of values.
    /// No map-side combine — grouping on the map side saves nothing, which is
    /// exactly why the paper prefers `reduceByKey` plans (§4, §5.3).
    pub fn grouping() -> Self {
        Aggregator {
            create: Arc::new(|v| vec![v]),
            merge_value: Arc::new(|c: &mut Vec<V>, v| c.push(v)),
            merge_combiners: Arc::new(|c: &mut Vec<V>, mut o| c.append(&mut o)),
            map_side_combine: false,
            merge_on_reduce: true,
        }
    }
}

/// Insertion-ordered key → combiner map, so shuffle output order is
/// deterministic regardless of hash iteration order.
pub(crate) struct OrderedMerge<K, C> {
    index: HashMap<K, usize>,
    entries: Vec<(K, C)>,
}

impl<K: Data + Hash + Eq, C> OrderedMerge<K, C> {
    pub(crate) fn new() -> Self {
        OrderedMerge {
            index: HashMap::new(),
            entries: Vec::new(),
        }
    }

    /// Fold a map-side value into the combiner for `key`.
    pub(crate) fn fold_value<V>(&mut self, key: K, value: V, agg: &Aggregator<V, C>) {
        match self.index.get(&key) {
            Some(&i) => (agg.merge_value)(&mut self.entries[i].1, value),
            None => {
                let c = (agg.create)(value);
                self.index.insert(key.clone(), self.entries.len());
                self.entries.push((key, c));
            }
        }
    }

    /// Merge a reduce-side combiner into the combiner for `key`.
    pub(crate) fn fold_combiner<V>(&mut self, key: K, comb: C, agg: &Aggregator<V, C>) {
        match self.index.get(&key) {
            Some(&i) => (agg.merge_combiners)(&mut self.entries[i].1, comb),
            None => {
                self.index.insert(key.clone(), self.entries.len());
                self.entries.push((key, comb));
            }
        }
    }

    pub(crate) fn into_entries(self) -> Vec<(K, C)> {
        self.entries
    }
}

/// One shuffle's map outputs between its map and reduce stages. The variants
/// hide the format the buckets wait in; both account [`wire::encoded_len`]
/// bytes, so a figure never depends on which one ran.
enum MapOutputStore<'a, K, C> {
    /// In-process: `grid[p][r]` is the live bucket map partition `p` wrote
    /// for reduce partition `r`. Resubmitted map tasks overwrite their row;
    /// reduce tasks consume their column.
    Grid(Vec<Vec<Mutex<Option<Vec<(K, C)>>>>>),
    /// Worker processes: every bucket travels as an SPKL frame.
    Workers(WorkerFrames<'a>),
}

/// The worker-process side of the store: frames PUT to the worker hosting
/// their producer (executor `e` on worker `e % n`), fetched back by reduce
/// tasks.
struct WorkerFrames<'a> {
    ctx: &'a Context,
    shuffle_id: u64,
    n_map: usize,
    group: Arc<WorkerGroup>,
    /// External-shuffle-service directory the frames are also parked in, so
    /// they survive their worker; `None` when the service is off.
    spool: Option<PathBuf>,
}

impl<'a, K: Data + SpillCodec, C: Data + SpillCodec> MapOutputStore<'a, K, C> {
    fn new(ctx: &'a Context, shuffle_id: u64, n_map: usize, n_red: usize) -> Self {
        match ctx.worker_group() {
            Some(group) => MapOutputStore::Workers(WorkerFrames {
                ctx,
                shuffle_id,
                n_map,
                group,
                spool: ctx.external_shuffle_path(shuffle_id),
            }),
            None => MapOutputStore::Grid(
                (0..n_map)
                    .map(|_| (0..n_red).map(|_| Mutex::new(None)).collect())
                    .collect(),
            ),
        }
    }

    /// Park map partition `p`'s buckets (one per reduce partition), produced
    /// by `producer` — `(executor, epoch)` at task launch, `None` on a driver
    /// thread. Returns their wire bytes and who now owns the output.
    fn store(
        &self,
        p: usize,
        producer: Option<(usize, u64)>,
        buckets: Vec<Vec<(K, C)>>,
    ) -> (u64, OutputOwner) {
        let bytes = buckets.iter().map(wire::encoded_len).sum();
        let spooled = match self {
            MapOutputStore::Grid(grid) => {
                for (slot, bucket) in grid[p].iter().zip(buckets) {
                    *slot.lock() = Some(bucket);
                }
                false
            }
            MapOutputStore::Workers(workers) => workers.put(
                p,
                producer,
                buckets.iter().map(wire::encode_frame).collect(),
            ),
        };
        let owner = match producer {
            Some((executor, _)) if spooled => OutputOwner::External { executor },
            Some((executor, epoch)) => OutputOwner::Executor { executor, epoch },
            None => OutputOwner::Driver,
        };
        (bytes, owner)
    }

    /// Consume reduce partition `r`'s column: every map partition's bucket
    /// for `r`, in map-partition order, and the wire bytes read. `Err` lists
    /// the map partitions whose bucket is gone — half-consumed by an attempt
    /// that crashed mid-merge, or unreachable after fetch retries and the
    /// spool fallback — for the caller to recompute from lineage.
    fn take_column(&self, r: usize) -> Result<(Vec<Vec<(K, C)>>, u64), Vec<usize>> {
        match self {
            MapOutputStore::Grid(grid) => {
                let gone: Vec<usize> = (0..grid.len())
                    .filter(|&p| grid[p][r].lock().is_none())
                    .collect();
                if !gone.is_empty() {
                    return Err(gone);
                }
                let buckets: Vec<Vec<(K, C)>> = grid
                    .iter()
                    .map(|row| {
                        row[r]
                            .lock()
                            .take()
                            .expect("checked present under the fetch lock")
                    })
                    .collect();
                let bytes = buckets.iter().map(wire::encoded_len).sum();
                Ok((buckets, bytes))
            }
            MapOutputStore::Workers(workers) => {
                let mut buckets = Vec::with_capacity(workers.n_map);
                let (mut bytes, mut lost) = (0u64, Vec::new());
                for p in 0..workers.n_map {
                    match workers.fetch(p, r) {
                        Some((bucket, frame_len)) => {
                            bytes += frame_len;
                            buckets.push(bucket);
                        }
                        None => lost.push(p),
                    }
                }
                if lost.is_empty() {
                    Ok((buckets, bytes))
                } else {
                    Err(lost)
                }
            }
        }
    }

    /// Drop whatever outlives this value: worker-held frames and the spool
    /// directory, best-effort.
    fn clear(&self) {
        if let MapOutputStore::Workers(workers) = self {
            workers.group.drop_shuffle(workers.shuffle_id);
            if let Some(dir) = &workers.spool {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

impl WorkerFrames<'_> {
    /// PUT map partition `p`'s frames (one per reduce partition) to the
    /// producer's worker. Returns whether they were also spooled — the spool
    /// is an optimisation of recovery, not a precondition: on a full or
    /// unwritable temp dir the output stays worker-owned and is recovered by
    /// resubmission.
    fn put(&self, p: usize, producer: Option<(usize, u64)>, frames: Vec<Vec<u8>>) -> bool {
        let spooled = self.spool.as_deref().is_some_and(|dir| {
            let write = |(r, frame)| std::fs::write(dir.join(format!("m{p}.r{r}")), frame);
            std::fs::create_dir_all(dir).is_ok()
                && frames.iter().enumerate().try_for_each(write).is_ok()
        });
        let worker = producer.map_or(p, |(executor, _)| executor) % self.group.len();
        for (r, frame) in frames.into_iter().enumerate() {
            let put = self
                .group
                .put(worker, self.shuffle_id, p as u64, r as u64, frame);
            if put.is_err() {
                // The worker died under us (connection refused, timeout):
                // kill it for certain and respawn it, which sweeps the
                // executors it hosted and bumps their epochs, so the
                // scheduler discards and requeues this very task.
                self.ctx.kill_worker(worker);
                break;
            }
        }
        spooled
    }

    /// Fetch one map-output bucket over the wire, with bounded retry +
    /// exponential backoff + jitter, wire-level chaos faults, and the spool
    /// fallback. Returns the decoded bucket and the framed wire length
    /// actually transferred, or `None` when the output is genuinely
    /// unreachable (the caller escalates to a fetch failure).
    fn fetch<T: SpillCodec>(&self, p: usize, r: usize) -> Option<(T, u64)> {
        let (ctx, shuffle_id) = (self.ctx, self.shuffle_id);
        let tracker = &ctx.inner.map_outputs;
        let worker = tracker.owner(shuffle_id, p).unwrap_or(p) % self.group.len();
        let salt = shuffle_id ^ ((p as u64) << 20) ^ ((r as u64) << 4);
        let decode = |frame: Vec<u8>| {
            wire::decode_frame::<T>(&frame).map(|bucket| (bucket, frame.len() as u64))
        };
        let mut attempt = 0u32;
        loop {
            let fault = ctx.chaos_wire_fault();
            let fetched: Result<Vec<u8>, String> = match fault {
                Some(WireFault::Drop) => Err("chaos: fetch stream dropped".into()),
                other => {
                    if let Some(WireFault::Delay(micros)) = other {
                        std::thread::sleep(Duration::from_micros(micros));
                    }
                    let mut res = self.group.fetch(worker, shuffle_id, p as u64, r as u64);
                    if let (Ok(bytes), Some(WireFault::Garble)) = (&mut res, other) {
                        // Flip the payload's middle byte: the frame CRC must
                        // catch it. The last byte would fall in the CRC's
                        // table-driven tail; the middle of a tile-sized
                        // payload lies in the blocks it folds.
                        let mid =
                            wire::HEADER_LEN + bytes.len().saturating_sub(wire::HEADER_LEN) / 2;
                        if let Some(b) = bytes.get_mut(mid) {
                            *b ^= 0x40;
                        }
                    }
                    res
                }
            };
            match fetched.and_then(|frame| decode(frame).map_err(|e| e.to_string())) {
                Ok(out) => return Some(out),
                Err(_) if attempt < FETCH_RETRIES => {
                    if ctx.is_tracing() {
                        ctx.events().emit(Event::FetchRetry {
                            shuffle_id,
                            reduce_task: r,
                            map_partition: p,
                            attempt,
                        });
                    }
                    self.group.note_retry();
                    std::thread::sleep(FETCH_BACKOFF.delay(attempt, salt));
                    attempt += 1;
                }
                // Retries exhausted. A spooled frame survives its worker in
                // the driver-visible dir.
                Err(_) => {
                    let spooled = tracker.is_external(shuffle_id, p);
                    let dir = self.spool.as_deref().filter(|_| spooled)?;
                    let frame = std::fs::read(dir.join(format!("m{p}.r{r}"))).ok()?;
                    return decode(frame).ok();
                }
            }
        }
    }
}

/// Wide operator producing `(K, C)` pairs partitioned by a [`KeyPartitioner`].
pub struct ShuffleOp<K: Data, V: Data, C: Data> {
    parent: Arc<dyn Op<(K, V)>>,
    partitioner: KeyPartitioner<K>,
    agg: Aggregator<V, C>,
    operator: String,
    shuffle_id: u64,
    /// Plan-node tag in effect when this node was *constructed* — the DAG is
    /// built while the planner runs, so the tag is captured here and replayed
    /// into the trace when the shuffle materializes later.
    tag: Option<String>,
    /// One `Arc` per reduce partition so downstream tasks get zero-copy
    /// shared views of exactly their partition.
    state: Mutex<Option<Vec<Arc<Vec<(K, C)>>>>>,
}

impl<K, V, C> ShuffleOp<K, V, C>
where
    K: Data + Hash + Eq + SpillCodec,
    V: Data,
    C: Data + SpillCodec,
{
    pub fn new(
        ctx: &Context,
        parent: Arc<dyn Op<(K, V)>>,
        partitioner: KeyPartitioner<K>,
        agg: Aggregator<V, C>,
        operator: impl Into<String>,
    ) -> Self {
        ShuffleOp {
            parent,
            partitioner,
            agg,
            operator: operator.into(),
            shuffle_id: ctx.next_shuffle_id(),
            tag: ctx.current_tag(),
            state: Mutex::new(None),
        }
    }

    /// Run the map and reduce stages once; later calls reuse the output
    /// (Spark keeps shuffle files, so retried downstream tasks re-read them).
    ///
    /// The body is a recovery loop: fill in missing map outputs (the first
    /// pass computes all of them; later passes are resubmissions covering
    /// only what an executor took down with it), then reduce the partitions
    /// still outstanding. Reduce tasks that find an output lost report a
    /// fetch failure instead of panicking; the loop then unwinds back to the
    /// map side. Bounded by `max_stage_attempts` with exponential backoff.
    fn materialized_partition(&self, part: usize, ctx: &Context) -> Arc<Vec<(K, C)>> {
        let mut state = self.state.lock();
        if let Some(parts) = state.as_ref() {
            return parts[part].clone();
        }
        let n_map = self.parent.num_partitions();
        let n_red = self.partitioner.partitions();
        let tracing = ctx.is_tracing();
        let tracker = &ctx.inner.map_outputs;
        tracker.register_shuffle(self.shuffle_id, n_map);
        let store = MapOutputStore::new(ctx, self.shuffle_id, n_map, n_red);
        // The scheduler runs one attempt of a task at a time, so no two
        // attempts ever fetch or fill the same slot at once.
        let reduced_slots: Vec<ReducedSlot<K, C>> = (0..n_red).map(|_| Mutex::new(None)).collect();
        let mut resubmits = 0u32;
        let mut first_map_stage = true;

        loop {
            let missing = tracker.missing(self.shuffle_id);
            if !missing.is_empty() {
                if !first_map_stage {
                    resubmits += 1;
                    if resubmits >= ctx.max_stage_attempts() {
                        panic!(
                            "sparkline: shuffle {} ({}) still missing {} map outputs after \
                             {} stage attempts",
                            self.shuffle_id,
                            self.operator,
                            missing.len(),
                            resubmits,
                        );
                    }
                    // Exponential backoff: repeated faults on the same
                    // shuffle back off before burning another attempt.
                    std::thread::sleep(RESUBMIT_BACKOFF.delay(resubmits - 1, self.shuffle_id));
                    if tracing {
                        ctx.events().emit(Event::StageResubmitted {
                            shuffle_id: self.shuffle_id,
                            attempt: resubmits,
                            missing_tasks: missing.len() as u64,
                        });
                    }
                }
                // Map stage over exactly the missing partitions. Each task
                // parks its buckets in the store and reports who owns them
                // now, so ownership lands in the tracker.
                let (map_outputs, map_stage): (Vec<MapOutput>, u64) = ctx.run_stage(
                    missing.len(),
                    || StageMeta {
                        label: if first_map_stage {
                            format!("shuffle.map({})", self.operator)
                        } else {
                            format!("shuffle.resubmit({})", self.operator)
                        },
                        tag: self.tag.clone(),
                        lineage: Some(self.parent.name()),
                    },
                    |idx| {
                        let p = missing[idx];
                        let producer = current_executor().map(|e| (e, ctx.executor_epoch(e)));
                        // Drain the parent's stream straight into the write
                        // buckets: no intermediate partition Vec.
                        let input = self.parent.compute(p, ctx);
                        let buckets: Vec<Vec<(K, C)>> = if self.agg.map_side_combine {
                            let mut merges: Vec<OrderedMerge<K, C>> =
                                (0..n_red).map(|_| OrderedMerge::new()).collect();
                            for (k, v) in input {
                                let b = self.partitioner.partition(&k);
                                merges[b].fold_value(k, v, &self.agg);
                            }
                            merges.into_iter().map(OrderedMerge::into_entries).collect()
                        } else {
                            let mut buckets: Vec<Vec<(K, C)>> =
                                (0..n_red).map(|_| Vec::new()).collect();
                            for (k, v) in input {
                                let b = self.partitioner.partition(&k);
                                buckets[b].push((k, (self.agg.create)(v)));
                            }
                            buckets
                        };
                        let records_written = buckets.iter().map(Vec::len).sum::<usize>() as u64;
                        let (bytes, owner) = store.store(p, producer, buckets);
                        MapOutput {
                            bytes,
                            records_written,
                            owner,
                        }
                    },
                );
                first_map_stage = false;

                for (idx, output) in map_outputs.into_iter().enumerate() {
                    let p = missing[idx];
                    // Register, then re-check the epoch: a kill racing this
                    // registration may have swept before we registered.
                    // Spooled outputs survive executor death, so no epoch
                    // check applies to them.
                    tracker.register(self.shuffle_id, p, output.owner);
                    if let OutputOwner::Executor { executor, epoch } = output.owner {
                        if ctx.executor_epoch(executor) != epoch {
                            tracker.unregister(self.shuffle_id, p);
                            continue;
                        }
                    }
                    if tracing {
                        ctx.events().emit(Event::ShuffleWrite {
                            stage_id: map_stage,
                            shuffle_id: self.shuffle_id,
                            operator: self.operator.clone(),
                            task: p,
                            bytes: output.bytes,
                            records: output.records_written,
                        });
                    }
                }
                // Anything lost between launch and registration is still
                // missing; go around and resubmit.
                if !tracker.missing(self.shuffle_id).is_empty() {
                    continue;
                }
            }

            let pending: Vec<usize> = (0..n_red)
                .filter(|&r| reduced_slots[r].lock().is_none())
                .collect();
            if pending.is_empty() {
                break;
            }

            // The map→reduce barrier: the deterministic point where chaos
            // schedules can kill the owner of a specific map output. Crossed
            // once per materialization in a fault-free run, once more per
            // recovery round.
            ctx.chaos_barrier(self.shuffle_id);
            if !tracker.missing(self.shuffle_id).is_empty() {
                continue;
            }

            // Reduce stage over the outstanding partitions: fetch (check
            // availability, consume the column) and merge. Lost inputs are
            // *reported*, not panicked on — the loop resubmits and retries.
            // A task returns the map partitions it found lost, or `Ok` once
            // its partition sits merged in its slot.
            let (outcomes, reduce_stage): (Vec<Result<(), Vec<usize>>>, u64) = ctx.run_stage(
                pending.len(),
                || StageMeta {
                    label: format!("shuffle.reduce({})", self.operator),
                    tag: self.tag.clone(),
                    lineage: Some(format!("{} <~ {}", self.operator, self.parent.name())),
                },
                |idx| {
                    let r = pending[idx];
                    if reduced_slots[r].lock().is_some() {
                        // An earlier attempt merged this partition, then its
                        // executor was lost before the result gate and the
                        // task was requeued. Its column is consumed; the
                        // merge it left is the result.
                        return Ok(());
                    }
                    // Chaos: a failed fetch drops one live map output, so
                    // recovery has real recomputation to do.
                    if ctx.chaos_fetch_should_fail() {
                        if let Some(p) = tracker.any_live(self.shuffle_id) {
                            tracker.unregister(self.shuffle_id, p);
                            return Err(vec![p]);
                        }
                    }
                    // Availability check: outputs an executor took down are
                    // unreadable even if stale bytes linger in the store.
                    let lost = tracker.missing(self.shuffle_id);
                    if !lost.is_empty() {
                        return Err(lost);
                    }
                    let (buckets, bytes) = store.take_column(r).inspect_err(|lost| {
                        for &p in lost {
                            tracker.unregister(self.shuffle_id, p);
                        }
                    })?;
                    let records = buckets.iter().map(Vec::len).sum::<usize>() as u64;
                    let merged = if self.agg.merge_on_reduce {
                        let mut merge = OrderedMerge::new();
                        for (k, c) in buckets.into_iter().flatten() {
                            merge.fold_combiner(k, c, &self.agg);
                        }
                        merge.into_entries()
                    } else {
                        buckets.into_iter().flatten().collect()
                    };
                    *reduced_slots[r].lock() = Some((merged, bytes, records));
                    Ok(())
                },
            );
            if tracing {
                for (idx, outcome) in outcomes.iter().enumerate() {
                    let r = pending[idx];
                    match outcome {
                        Err(lost) => ctx.events().emit(Event::FetchFailed {
                            shuffle_id: self.shuffle_id,
                            stage_id: reduce_stage,
                            reduce_task: r,
                            lost_map_outputs: lost.len() as u64,
                        }),
                        Ok(()) => {
                            let slot = reduced_slots[r].lock();
                            let (_, bytes, records) = slot
                                .as_ref()
                                .expect("an accepted reduce task filled its slot");
                            ctx.events().emit(Event::ShuffleRead {
                                stage_id: reduce_stage,
                                shuffle_id: self.shuffle_id,
                                operator: self.operator.clone(),
                                task: r,
                                bytes: *bytes,
                                records: *records,
                            });
                        }
                    }
                }
            }
        }

        // Materialized: the reduced output now lives on the driver, beyond
        // the reach of executor loss.
        tracker.drop_shuffle(self.shuffle_id);
        store.clear();
        let reduced: Vec<Arc<Vec<(K, C)>>> = reduced_slots
            .into_iter()
            .map(|slot| Arc::new(slot.into_inner().expect("reduce partition materialized").0))
            .collect();
        let out = reduced[part].clone();
        *state = Some(reduced);
        out
    }
}

impl<K, V, C> Op<(K, C)> for ShuffleOp<K, V, C>
where
    K: Data + Hash + Eq + SpillCodec,
    V: Data,
    C: Data + SpillCodec,
{
    fn num_partitions(&self) -> usize {
        self.partitioner.partitions()
    }

    fn compute(&self, part: usize, ctx: &Context) -> PartitionStream<(K, C)> {
        // The materialized reduce output is driver-held; every downstream
        // task reads a zero-copy shared view of its partition.
        PartitionStream::shared(self.materialized_partition(part, ctx))
    }

    fn partitioner_descriptor(&self) -> Option<(String, usize)> {
        Some((
            self.partitioner.descriptor().to_string(),
            self.partitioner.partitions(),
        ))
    }

    fn name(&self) -> String {
        format!("{} <~ {}", self.operator, self.parent.name())
    }
}

/// One side of a cogroup: either already grouped by the right partitioner
/// (narrow) or re-shuffled into groups.
pub(crate) enum CoGroupSide<K: Data, V: Data> {
    /// The parent is co-partitioned with the cogroup's partitioner; its
    /// partitions are read directly and grouped in-task.
    Narrow(Arc<dyn Op<(K, V)>>),
    /// The parent is shuffled into per-key groups first.
    Shuffled(Arc<ShuffleOp<K, V, Vec<V>>>),
}

impl<K, V> CoGroupSide<K, V>
where
    K: Data + Hash + Eq + SpillCodec,
    V: Data + SpillCodec,
{
    fn grouped_partition(&self, part: usize, ctx: &Context) -> PartitionStream<(K, Vec<V>)> {
        match self {
            CoGroupSide::Narrow(op) => {
                // Fold the parent's stream straight into the group build —
                // the one place cogroup legitimately needs ownership.
                let agg = Aggregator::<V, Vec<V>>::grouping();
                let mut merge = OrderedMerge::new();
                for (k, v) in op.compute(part, ctx) {
                    merge.fold_value(k, v, &agg);
                }
                PartitionStream::from_vec(merge.into_entries())
            }
            CoGroupSide::Shuffled(op) => op.compute(part, ctx),
        }
    }

    fn was_shuffled(&self) -> bool {
        matches!(self, CoGroupSide::Shuffled(_))
    }
}

/// Cogroup of two keyed datasets: `(K, (Vec<V>, Vec<W>))`, one output record
/// per key present on either side.
pub struct CoGroupOp<K: Data, V: Data, W: Data> {
    pub(crate) left: CoGroupSide<K, V>,
    pub(crate) right: CoGroupSide<K, W>,
    pub(crate) partitioner: KeyPartitioner<K>,
}

impl<K, V, W> CoGroupOp<K, V, W>
where
    K: Data + Hash + Eq + SpillCodec,
    V: Data + SpillCodec,
    W: Data + SpillCodec,
{
    /// Build a cogroup, shuffling only the sides that are not already
    /// co-partitioned with `partitioner`.
    pub fn new(
        ctx: &Context,
        left: Arc<dyn Op<(K, V)>>,
        right: Arc<dyn Op<(K, W)>>,
        partitioner: KeyPartitioner<K>,
        operator: &str,
    ) -> Self {
        let target = (
            partitioner.descriptor().to_string(),
            partitioner.partitions(),
        );
        let left = if left.partitioner_descriptor().as_ref() == Some(&target) {
            CoGroupSide::Narrow(left)
        } else {
            CoGroupSide::Shuffled(Arc::new(ShuffleOp::new(
                ctx,
                left,
                partitioner.clone(),
                Aggregator::grouping(),
                format!("{operator}.left"),
            )))
        };
        let right = if right.partitioner_descriptor().as_ref() == Some(&target) {
            CoGroupSide::Narrow(right)
        } else {
            CoGroupSide::Shuffled(Arc::new(ShuffleOp::new(
                ctx,
                right,
                partitioner.clone(),
                Aggregator::grouping(),
                format!("{operator}.right"),
            )))
        };
        CoGroupOp {
            left,
            right,
            partitioner,
        }
    }

    /// True if either input required a shuffle (used by plan-shape tests).
    pub fn shuffles(&self) -> bool {
        self.left.was_shuffled() || self.right.was_shuffled()
    }
}

impl<K, V, W> Op<(K, (Vec<V>, Vec<W>))> for CoGroupOp<K, V, W>
where
    K: Data + Hash + Eq + SpillCodec,
    V: Data + SpillCodec,
    W: Data + SpillCodec,
{
    fn num_partitions(&self) -> usize {
        self.partitioner.partitions()
    }

    fn compute(&self, part: usize, ctx: &Context) -> PartitionStream<(K, (Vec<V>, Vec<W>))> {
        let lhs = self.left.grouped_partition(part, ctx);
        let rhs = self.right.grouped_partition(part, ctx);
        // Merge by key, keeping left-then-right first-seen order. The merge
        // build needs ownership, so this is a legitimate collect point.
        let mut index: HashMap<K, usize> = HashMap::new();
        let mut out: Vec<(K, (Vec<V>, Vec<W>))> = Vec::with_capacity(lhs.len_hint().unwrap_or(0));
        for (k, vs) in lhs {
            index.insert(k.clone(), out.len());
            out.push((k, (vs, Vec::new())));
        }
        for (k, ws) in rhs {
            match index.get(&k) {
                Some(&i) => out[i].1 .1 = ws,
                None => {
                    index.insert(k.clone(), out.len());
                    out.push((k, (Vec::new(), ws)));
                }
            }
        }
        PartitionStream::from_vec(out)
    }

    fn partitioner_descriptor(&self) -> Option<(String, usize)> {
        Some((
            self.partitioner.descriptor().to_string(),
            self.partitioner.partitions(),
        ))
    }

    fn name(&self) -> String {
        "cogroup".into()
    }
}

#[cfg(test)]
mod tests {
    use crate::context::current_executor;
    use crate::{Context, Event};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A reduce task that merged its partition and then lost its executor
    /// before the result gate is requeued; the rerun keeps that merge, and
    /// the trace still reports the shuffle read it did.
    #[test]
    fn a_partition_merged_before_its_executor_died_still_reports_its_read() {
        let ctx = Context::builder().workers(1).chaos_off().build();
        // Every key once per map partition, so the merge closure runs only
        // on the reduce side.
        let data: Vec<(u64, u64)> = (0..2).flat_map(|_| (0..8).map(|k| (k, k))).collect();
        let killed = Arc::new(AtomicBool::new(false));
        let (victim, once) = (ctx.clone(), killed.clone());
        ctx.trace();
        let mut out = ctx
            .parallelize(data, 2)
            .reduce_by_key(4, move |a, b| {
                if !once.swap(true, Ordering::SeqCst) {
                    victim.kill_executor(current_executor().expect("merges run on an executor"));
                }
                a + b
            })
            .collect();
        out.sort();
        assert_eq!(out, (0..8).map(|k| (k, 2 * k)).collect::<Vec<_>>());
        assert!(killed.load(Ordering::SeqCst), "no merge ran");
        let events = ctx.take_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::ExecutorLost { .. })));
        let read: BTreeSet<usize> = events
            .iter()
            .filter_map(|e| match e {
                Event::ShuffleRead { task, .. } => Some(*task),
                _ => None,
            })
            .collect();
        assert_eq!(read, (0..4).collect(), "every reduce partition's read");
    }
}
