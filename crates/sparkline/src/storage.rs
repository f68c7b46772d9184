//! Memory-budgeted block storage — sparkline's analog of Spark's
//! `BlockManager`.
//!
//! Persisted datasets ([`crate::Dataset::persist`]) store their computed
//! partitions here as *blocks* keyed by `(dataset id, partition)`. The
//! manager enforces a byte budget over all blocks (a block's size is the
//! exact length of its SPKL frame, [`crate::wire::encoded_len`] — the same
//! number the shuffle layer accounts): inserting a block past the budget
//! evicts the least-recently-used blocks. There is one tier, memory. A block
//! that is evicted, or lost with its executor, is gone, and the persist
//! operator recomputes it from lineage on the next read — Spark's
//! `MEMORY_ONLY`. This is the runtime's only cache, and a block lives no
//! longer than the last dataset that can read it.
//!
//! Every cache interaction emits a structured event on the listener bus
//! (hit/miss/evict/recompute, see [`crate::events::Event`]) so the
//! fault-injection harness and [`crate::profile::JobProfile`] can prove
//! blocks are computed exactly as often as the budget implies.

use crate::context::Context;
use crate::events::Event;
use crate::ops::Op;
use crate::stream::PartitionStream;
use crate::sync::Mutex;
use crate::Data;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

// ---------------------------------------------------------------------------
// Spill codec
// ---------------------------------------------------------------------------

/// The fixed little-endian binary codec behind every serialized byte in the
/// runtime — shuffle frames, the external shuffle spool, the worker protocol
/// (the build has no serde) — and, through [`SpillCodec::encoded_len`],
/// behind every byte *figure* it reports.
///
/// `decode` advances `pos` past the consumed bytes and returns `None` on a
/// truncated or malformed buffer.
pub trait SpillCodec: Sized {
    /// `Some(n)` when every value of the type encodes to exactly `n` bytes,
    /// so a `Vec` of them knows its length without walking its items.
    const FIXED_LEN: Option<usize> = None;

    fn encode(&self, out: &mut Vec<u8>);
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self>;

    /// Exactly the number of bytes [`SpillCodec::encode`] appends, computed
    /// without serializing or allocating.
    fn encoded_len(&self) -> usize;
}

macro_rules! codec_fixed {
    ($($t:ty),* $(,)?) => {
        $(impl SpillCodec for $t {
            const FIXED_LEN: Option<usize> = Some(std::mem::size_of::<$t>());
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
                const N: usize = std::mem::size_of::<$t>();
                let bytes: [u8; N] = buf.get(*pos..*pos + N)?.try_into().ok()?;
                *pos += N;
                Some(<$t>::from_le_bytes(bytes))
            }
        })*
    };
}

codec_fixed!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// Types that travel as another fixed-width primitive.
macro_rules! codec_via {
    ($($t:ty => $wire:ty, $back:expr;)*) => {
        $(impl SpillCodec for $t {
            const FIXED_LEN: Option<usize> = <$wire>::FIXED_LEN;
            fn encode(&self, out: &mut Vec<u8>) {
                (*self as $wire).encode(out);
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$wire>()
            }
            fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
                <$wire>::decode(buf, pos).and_then($back)
            }
        })*
    };
}

codec_via! {
    usize => u64, |v| Some(v as usize);
    isize => i64, |v| Some(v as isize);
    bool => u8, |b| Some(b != 0);
    char => u32, char::from_u32;
}

impl SpillCodec for () {
    const FIXED_LEN: Option<usize> = Some(0);
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_buf: &[u8], _pos: &mut usize) -> Option<Self> {
        Some(())
    }
    fn encoded_len(&self) -> usize {
        0
    }
}

impl SpillCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let len = u64::decode(buf, pos)? as usize;
        let bytes = buf.get(*pos..*pos + len)?;
        *pos += len;
        String::from_utf8(bytes.to_vec()).ok()
    }
    fn encoded_len(&self) -> usize {
        8 + self.len()
    }
}

impl<T: SpillCodec> SpillCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        match u8::decode(buf, pos)? {
            0 => Some(None),
            1 => T::decode(buf, pos).map(Some),
            _ => None,
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, T::encoded_len)
    }
}

impl<T: SpillCodec> SpillCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let len = u64::decode(buf, pos)? as usize;
        // Guard the pre-allocation against corrupt lengths: each element
        // takes at least one byte in every codec except `()`.
        let mut out = Vec::with_capacity(len.min(buf.len().saturating_sub(*pos) + 1));
        for _ in 0..len {
            out.push(T::decode(buf, pos)?);
        }
        Some(out)
    }
    fn encoded_len(&self) -> usize {
        8 + match T::FIXED_LEN {
            Some(n) => n * self.len(),
            None => self.iter().map(T::encoded_len).sum(),
        }
    }
}

macro_rules! codec_tuple {
    ($($name:ident),+) => {
        impl<$($name: SpillCodec),+> SpillCodec for ($($name,)+) {
            const FIXED_LEN: Option<usize> = {
                let mut total = Some(0usize);
                $(total = match (total, $name::FIXED_LEN) {
                    (Some(t), Some(n)) => Some(t + n),
                    _ => None,
                };)+
                total
            };
            #[allow(non_snake_case)]
            fn encode(&self, out: &mut Vec<u8>) {
                let ($($name,)+) = self;
                $($name.encode(out);)+
            }
            #[allow(non_snake_case)]
            fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
                $(let $name = $name::decode(buf, pos)?;)+
                Some(($($name,)+))
            }
            #[allow(non_snake_case)]
            fn encoded_len(&self) -> usize {
                let ($($name,)+) = self;
                0 $(+ $name.encoded_len())+
            }
        }
    };
}

codec_tuple!(A);
codec_tuple!(A, B);
codec_tuple!(A, B, C);
codec_tuple!(A, B, C, D);
codec_tuple!(A, B, C, D, E);
codec_tuple!(A, B, C, D, E, F);

// ---------------------------------------------------------------------------
// Block manager
// ---------------------------------------------------------------------------

struct BlockEntry {
    /// The partition's framed length, [`crate::wire::encoded_len`].
    bytes: usize,
    /// LRU clock value of the last touch.
    tick: u64,
    data: Arc<dyn Any + Send + Sync>,
    /// Executor that computed the block (`None` for driver-side puts).
    /// Blocks die with their executor: [`BlockManager::remove_executor`]
    /// sweeps them so lineage recomputes on healthy executors.
    executor: Option<usize>,
    /// Tenant whose job computed the block (`None` outside tenant scopes).
    /// Its bytes are charged to the tenant's quota; the blocks can be swept
    /// together with [`BlockManager::remove_tenant`].
    tenant: Option<u32>,
}

#[derive(Default)]
struct State {
    entries: HashMap<(u64, usize), BlockEntry>,
    /// Total bytes of resident blocks.
    memory_used: usize,
    evictions: u64,
    /// Resident bytes per tenant (subset of `memory_used`; untagged blocks
    /// belong to no tenant). Entries are dropped at zero.
    tenant_used: HashMap<u32, usize>,
    /// Per-tenant memory quotas in bytes; absent means unbounded (only the
    /// global budget applies).
    quotas: HashMap<u32, usize>,
}

impl State {
    /// Forget one block and release its bytes.
    fn remove(&mut self, key: (u64, usize)) -> Option<BlockEntry> {
        let entry = self.entries.remove(&key)?;
        self.memory_used -= entry.bytes;
        if let Some(t) = entry.tenant {
            if let Some(used) = self.tenant_used.get_mut(&t) {
                *used = used.saturating_sub(entry.bytes);
                if *used == 0 {
                    self.tenant_used.remove(&t);
                }
            }
        }
        Some(entry)
    }

    /// Evict the least-recently-used block among those `eligible` accepts
    /// and record it in `evicted`; false when no block is eligible.
    fn evict_lru(
        &mut self,
        evicted: &mut Vec<Evicted>,
        eligible: impl Fn(&BlockEntry) -> bool,
    ) -> bool {
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| eligible(e))
            .min_by_key(|(_, e)| e.tick)
            .map(|(k, _)| *k);
        let Some(key) = victim else { return false };
        let entry = self.remove(key).expect("the victim is resident");
        self.evictions += 1;
        evicted.push(Evicted {
            dataset: key.0,
            partition: key.1,
            bytes: entry.bytes as u64,
        });
        true
    }

    /// Bytes currently charged to `tenant`.
    fn tenant_bytes(&self, tenant: u32) -> usize {
        self.tenant_used.get(&tenant).copied().unwrap_or(0)
    }
}

/// One block evicted to make room for an insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted {
    pub dataset: u64,
    pub partition: usize,
    pub bytes: u64,
}

/// What [`BlockManager::put`] did with the offered block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutOutcome {
    /// The block is now resident.
    pub stored: bool,
    /// Blocks evicted to make room, in eviction order.
    pub evicted: Vec<Evicted>,
}

/// A successful cache read.
pub struct CacheRead<T> {
    pub data: Arc<Vec<T>>,
    /// The block's framed length ([`crate::wire::encoded_len`]).
    pub bytes: u64,
}

/// Per-tenant slice of the storage accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStorage {
    /// Service-assigned tenant id (see [`Context::scoped_tenant`]).
    pub tenant: u32,
    /// Bytes currently charged to the tenant.
    pub memory_used: u64,
    /// The tenant's memory quota, `None` if unbounded.
    pub quota: Option<u64>,
}

/// Point-in-time storage accounting, [`Context::storage_status`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageStatus {
    /// Memory budget in bytes; `None` means unlimited.
    pub budget: Option<u64>,
    pub memory_used: u64,
    pub blocks_in_memory: usize,
    /// Lifetime eviction count.
    pub evictions: u64,
    /// Per-tenant usage and quotas, sorted by tenant id. Tenants appear once
    /// they hold resident bytes or have a quota set.
    pub tenants: Vec<TenantStorage>,
}

/// Memory-budgeted store for persisted dataset partitions.
///
/// Owned by a [`Context`]; all persisted datasets of that context share one
/// budget, like executors sharing `spark.memory.storageFraction`.
pub struct BlockManager {
    /// Budget in bytes over all blocks; `usize::MAX` = unlimited.
    budget: usize,
    state: Mutex<State>,
    tick: AtomicU64,
}

impl BlockManager {
    pub fn new(budget: usize) -> Self {
        BlockManager {
            budget,
            state: Mutex::new(State::default()),
            tick: AtomicU64::new(0),
        }
    }

    /// The memory budget, `None` if unlimited.
    pub fn budget(&self) -> Option<u64> {
        (self.budget != usize::MAX).then_some(self.budget as u64)
    }

    /// Cap `tenant`'s resident bytes at `bytes`. A put that would take the
    /// tenant over its quota first evicts the tenant's own LRU blocks, so one
    /// tenant filling the cache cannot evict another tenant's working set
    /// through the shared budget alone.
    pub fn set_tenant_quota(&self, tenant: u32, bytes: usize) {
        self.state.lock().quotas.insert(tenant, bytes);
    }

    /// The quota set for `tenant`, if any.
    pub fn tenant_quota(&self, tenant: u32) -> Option<usize> {
        self.state.lock().quotas.get(&tenant).copied()
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up a block: a hit clones the shared `Arc`, never the data.
    pub fn get<T: Data>(&self, dataset: u64, partition: usize) -> Option<CacheRead<T>> {
        let tick = self.next_tick();
        let mut state = self.state.lock();
        let entry = state.entries.get_mut(&(dataset, partition))?;
        entry.tick = tick;
        let data = entry.data.clone().downcast::<Vec<T>>().ok()?;
        Some(CacheRead {
            data,
            bytes: entry.bytes as u64,
        })
    }

    /// Store a computed partition, evicting LRU blocks to fit the budget.
    pub fn put<T: Data + SpillCodec>(
        &self,
        dataset: u64,
        partition: usize,
        data: Arc<Vec<T>>,
    ) -> PutOutcome {
        let bytes = crate::wire::encoded_len(data.as_ref()) as usize;
        let tick = self.next_tick();
        let executor = crate::context::current_executor();
        let tenant = crate::context::current_tenant();
        let mut outcome = PutOutcome {
            stored: false,
            evicted: Vec::new(),
        };
        let mut state = self.state.lock();

        // Oversized block: never evict the whole cache for one block that
        // cannot fit anyway — it is simply not stored. The same treatment
        // applies to a block larger than its tenant's whole quota.
        let tenant_quota = tenant.and_then(|t| state.quotas.get(&t).copied());
        if bytes > self.budget || tenant_quota.is_some_and(|q| bytes > q) {
            return outcome;
        }

        if state.entries.contains_key(&(dataset, partition)) {
            // A concurrent computation of the same partition won the race;
            // keep the resident copy.
            outcome.stored = true;
            return outcome;
        }

        // Per-tenant quota first: a tenant over its own cap evicts its own
        // LRU blocks, leaving other tenants' working sets alone. Then the
        // global budget evicts LRU blocks of anyone until the new one fits.
        if let (Some(t), Some(quota)) = (tenant, tenant_quota) {
            while state.tenant_bytes(t) + bytes > quota
                && state.evict_lru(&mut outcome.evicted, |e| e.tenant == Some(t))
            {}
        }
        while state.memory_used + bytes > self.budget
            && state.evict_lru(&mut outcome.evicted, |_| true)
        {}

        state.memory_used += bytes;
        if let Some(t) = tenant {
            *state.tenant_used.entry(t).or_insert(0) += bytes;
        }
        state.entries.insert(
            (dataset, partition),
            BlockEntry {
                bytes,
                tick,
                data,
                executor,
                tenant,
            },
        );
        outcome.stored = true;
        outcome
    }

    /// Drop every block `doomed` selects; returns how many went.
    fn sweep(&self, doomed: impl Fn(u64, &BlockEntry) -> bool) -> usize {
        let mut state = self.state.lock();
        let keys: Vec<(u64, usize)> = state
            .entries
            .iter()
            .filter(|((dataset, _), e)| doomed(*dataset, e))
            .map(|(k, _)| *k)
            .collect();
        for key in &keys {
            state.remove(*key);
        }
        keys.len()
    }

    /// Drop every block of a dataset. Returns the number of blocks removed.
    pub fn remove_dataset(&self, dataset: u64) -> usize {
        self.sweep(|d, _| d == dataset)
    }

    /// Drop every block computed by `executor`. Driver-computed blocks
    /// survive. Returns the number of blocks removed.
    pub(crate) fn remove_executor(&self, executor: usize) -> usize {
        self.sweep(|_, e| e.executor == Some(executor))
    }

    /// Drop every block charged to `tenant` and return the number of blocks
    /// removed. The tenant's quota, if any, survives. Used when a tenant's
    /// last in-flight job is cancelled or a tenant is retired, so its memory
    /// frees immediately instead of aging out through LRU.
    pub fn remove_tenant(&self, tenant: u32) -> usize {
        self.sweep(|_, e| e.tenant == Some(tenant))
    }

    /// Current storage accounting.
    pub fn status(&self) -> StorageStatus {
        let state = self.state.lock();
        let mut ids: Vec<u32> = state
            .tenant_used
            .keys()
            .chain(state.quotas.keys())
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let tenants = ids
            .into_iter()
            .map(|tenant| TenantStorage {
                tenant,
                memory_used: state.tenant_bytes(tenant) as u64,
                quota: state.quotas.get(&tenant).map(|q| *q as u64),
            })
            .collect();
        StorageStatus {
            budget: self.budget(),
            memory_used: state.memory_used as u64,
            blocks_in_memory: state.entries.len(),
            evictions: state.evictions,
            tenants,
        }
    }
}

// ---------------------------------------------------------------------------
// Persist operator
// ---------------------------------------------------------------------------

/// A persisted dataset's hold on its blocks. Every [`crate::Dataset`] that
/// reads the persisted node directly — the persisted dataset, its clones, the
/// datasets built on it up to another persist — holds the lease; when the
/// last one drops, the blocks go. A dataset persisted downstream holds its
/// input's leases until it has computed every partition once, then its reads
/// stop at its own blocks: an iterative `x = f(x).persist()` keeps one
/// generation resident, not all of them.
pub(crate) struct BlockLease {
    ctx: Context,
    id: u64,
}

impl Drop for BlockLease {
    fn drop(&mut self) {
        self.ctx.storage().remove_dataset(self.id);
    }
}

/// Dataset node backed by the context's [`BlockManager`]: partitions are
/// served from storage when resident and recomputed from the parent lineage
/// when missed or evicted (Spark's `persist`). Once its lease is gone the
/// node stays in lineage as a pass-through that stores nothing.
pub(crate) struct PersistOp<T: Data> {
    parent: Arc<dyn Op<T>>,
    id: u64,
    lease: Weak<BlockLease>,
    /// The leases of the datasets `parent` reads, released once every
    /// partition has been computed, and the count of those still to come.
    upstream: Mutex<Vec<Arc<BlockLease>>>,
    uncomputed: AtomicUsize,
    /// Per-partition guard held across lookup + compute + store, so two
    /// tasks needing the same missing partition compute it once.
    guards: Vec<Mutex<()>>,
    /// Whether the partition has ever been stored — distinguishes first
    /// computation ([`Event::CacheMiss`]) from eviction-forced recomputation
    /// ([`Event::CacheRecompute`]).
    computed: Vec<AtomicBool>,
}

impl<T: Data> PersistOp<T> {
    /// The node over `parent`, whose readers hold `upstream`, and the lease
    /// its own readers hold.
    pub(crate) fn new(
        ctx: &Context,
        parent: Arc<dyn Op<T>>,
        upstream: Vec<Arc<BlockLease>>,
    ) -> (Self, Arc<BlockLease>) {
        let n = parent.num_partitions();
        let id = ctx.next_dataset_id();
        let lease = Arc::new(BlockLease {
            ctx: ctx.clone(),
            id,
        });
        let op = PersistOp {
            parent,
            id,
            lease: Arc::downgrade(&lease),
            upstream: Mutex::new(upstream),
            uncomputed: AtomicUsize::new(n),
            guards: (0..n).map(|_| Mutex::new(())).collect(),
            computed: (0..n).map(|_| AtomicBool::new(false)).collect(),
        };
        (op, lease)
    }
}

/// Emit a cache event with the innermost running stage attached, skipping
/// payload construction when tracing is off.
fn emit_cache_event(ctx: &Context, build: impl FnOnce(Option<u64>) -> Event) {
    if ctx.events().is_enabled() {
        ctx.events().emit(build(crate::context::current_stage()));
    }
}

impl<T: Data + SpillCodec> Op<T> for PersistOp<T> {
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn compute(&self, part: usize, ctx: &Context) -> PartitionStream<T> {
        // Held until the block is stored, so a lease dropping meanwhile
        // removes the block after the store, not before it.
        let Some(_lease) = self.lease.upgrade() else {
            return self.parent.compute(part, ctx);
        };
        let _guard = self.guards[part].lock();
        let storage = ctx.storage();
        if let Some(read) = storage.get::<T>(self.id, part) {
            emit_cache_event(ctx, |stage_id| Event::CacheHit {
                dataset: self.id,
                partition: part,
                bytes: read.bytes,
                stage_id,
            });
            // A hit is a refcount bump on the stored block, never a copy:
            // every consumer of this partition shares one allocation.
            return PartitionStream::shared(read.data);
        }
        let recompute = self.computed[part].load(Ordering::Relaxed);
        emit_cache_event(ctx, |stage_id| {
            if recompute {
                Event::CacheRecompute {
                    dataset: self.id,
                    partition: part,
                    stage_id,
                }
            } else {
                Event::CacheMiss {
                    dataset: self.id,
                    partition: part,
                    stage_id,
                }
            }
        });
        let data = Arc::new(self.parent.compute(part, ctx).into_vec());
        let outcome = storage.put(self.id, part, data.clone());
        for victim in &outcome.evicted {
            emit_cache_event(ctx, |stage_id| Event::CacheEvict {
                dataset: victim.dataset,
                partition: victim.partition,
                bytes: victim.bytes,
                stage_id,
            });
        }
        self.computed[part].store(true, Ordering::Relaxed);
        if !recompute && self.uncomputed.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.upstream.lock().clear();
        }
        PartitionStream::shared(data)
    }

    fn partitioner_descriptor(&self) -> Option<(String, usize)> {
        self.parent.partitioner_descriptor()
    }

    fn cache_id(&self) -> Option<u64> {
        Some(self.id)
    }

    fn name(&self) -> String {
        format!("persist#{} <- {}", self.id, self.parent.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(values: &[i64]) -> Arc<Vec<i64>> {
        Arc::new(values.to_vec())
    }

    /// Accounted size of an `n`-element `i64` block: its framed length.
    fn block_bytes(n: usize) -> usize {
        crate::wire::encoded_len(&vec![0i64; n]) as usize
    }

    #[test]
    fn codec_round_trips_compound_values() {
        let v: Vec<(i64, Option<String>, Vec<f64>)> = vec![
            (1, Some("alpha".into()), vec![1.5, -2.0]),
            (-7, None, vec![]),
        ];
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut pos = 0;
        let back = Vec::<(i64, Option<String>, Vec<f64>)>::decode(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back, v);
    }

    /// `encoded_len` (and `FIXED_LEN`, where set) against what `encode`
    /// really appends.
    fn exact<T: SpillCodec>(v: &T) -> bool {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        v.encoded_len() == buf.len() && T::FIXED_LEN.is_none_or(|n| n == buf.len())
    }

    proptest::proptest! {
        /// The byte rule, over every codec impl: all primitives, `String`,
        /// `Option`, nested `Vec`s, tuples of every arity the macro covers.
        #[test]
        fn prop_encoded_len_is_exact(
            narrow in (0u8..=u8::MAX, i8::MIN..=i8::MAX, 0u16..=u16::MAX,
                       i16::MIN..=i16::MAX, 0u32..=u32::MAX, i32::MIN..=i32::MAX),
            wide in (0u64..=u64::MAX, i64::MIN..=i64::MAX, 0usize..=usize::MAX,
                     isize::MIN..=isize::MAX, proptest::bool::ANY),
            bits in (0u32..=u32::MAX, 0u64..=u64::MAX),
            text in proptest::collection::vec(0u32..0x11_0000, 0..12),
            nested in proptest::collection::vec(
                proptest::collection::vec(proptest::option::of(0i64..9), 0..5), 0..5),
        ) {
            let floats = (f32::from_bits(bits.0), f64::from_bits(bits.1), ());
            let chars: Vec<char> = text.into_iter().filter_map(char::from_u32).collect();
            let string: String = chars.iter().collect();
            proptest::prop_assert!(exact(&narrow) && exact(&wide) && exact(&floats));
            proptest::prop_assert!(exact(&chars) && exact(&string) && exact(&nested));
            proptest::prop_assert!(exact(&(string.clone(),)) && exact(&(wide, nested.clone())));
            proptest::prop_assert!(exact(&vec![(string, floats, chars, nested); 2]));
        }
    }

    #[test]
    fn codec_rejects_truncation() {
        let mut buf = Vec::new();
        vec![1u64, 2, 3].encode(&mut buf);
        buf.truncate(buf.len() - 1);
        let mut pos = 0;
        assert!(Vec::<u64>::decode(&buf, &mut pos).is_none());
    }

    #[test]
    fn put_get_and_accounting() {
        let m = BlockManager::new(10_000);
        let out = m.put(1, 0, part(&[1, 2, 3]));
        assert!(out.stored && out.evicted.is_empty());
        let read = m.get::<i64>(1, 0).expect("hit");
        assert_eq!(*read.data, vec![1, 2, 3]);
        // Frame header + 8-byte length + 3 * 8: the block's SPKL frame.
        assert_eq!(read.bytes, (crate::wire::HEADER_LEN + 8 + 24) as u64);
        let status = m.status();
        assert_eq!(status.memory_used, read.bytes);
        assert_eq!(status.blocks_in_memory, 1);
        assert_eq!(status.budget, Some(10_000));
    }

    #[test]
    fn lru_eviction_drops_coldest_block() {
        // The budget fits two 3-element blocks, not three.
        let block = block_bytes(3);
        let m = BlockManager::new(2 * block + block / 2);
        m.put(1, 0, part(&[1, 1, 1]));
        m.put(1, 1, part(&[2, 2, 2]));
        // Touch block 0 so block 1 is the LRU victim.
        m.get::<i64>(1, 0).unwrap();
        let out = m.put(1, 2, part(&[3, 3, 3]));
        assert_eq!(
            out.evicted,
            vec![Evicted {
                dataset: 1,
                partition: 1,
                bytes: block as u64,
            }]
        );
        assert!(m.get::<i64>(1, 1).is_none(), "evicted block must miss");
        assert!(m.get::<i64>(1, 0).is_some());
        assert!(m.get::<i64>(1, 2).is_some());
        assert_eq!(m.status().evictions, 1);
    }

    #[test]
    fn zero_budget_stores_nothing() {
        let m = BlockManager::new(0);
        let out = m.put(1, 0, part(&[1]));
        assert!(!out.stored);
        assert!(m.get::<i64>(1, 0).is_none());
        assert_eq!(m.status().memory_used, 0);
    }

    #[test]
    fn remove_dataset_forgets_all_its_blocks() {
        let m = BlockManager::new(usize::MAX);
        m.put(3, 0, part(&[1]));
        m.put(3, 1, part(&[2]));
        m.put(4, 0, part(&[3]));
        assert_eq!(m.remove_dataset(3), 2);
        assert!(m.get::<i64>(3, 0).is_none());
        assert!(m.get::<i64>(3, 1).is_none());
        assert!(m.get::<i64>(4, 0).is_some());
    }

    #[test]
    fn unlimited_budget_never_evicts() {
        let m = BlockManager::new(usize::MAX);
        for p in 0..64 {
            let out = m.put(9, p, part(&[p as i64; 100]));
            assert!(out.stored && out.evicted.is_empty());
        }
        assert_eq!(m.status().evictions, 0);
        assert_eq!(m.budget(), None);
    }

    #[test]
    fn wrong_type_read_is_a_miss() {
        let m = BlockManager::new(usize::MAX);
        m.put(1, 0, part(&[1, 2]));
        assert!(m.get::<f64>(1, 0).is_none());
        assert!(m.get::<i64>(1, 0).is_some());
    }

    #[test]
    fn tenant_quota_evicts_same_tenant_lru_first() {
        let ctx = Context::builder().workers(1).chaos_off().build();
        // Global budget unlimited: only tenant 1's quota (two 3-element
        // blocks) forces eviction, and only among tenant 1's blocks.
        let block = block_bytes(3);
        let quota = 2 * block + block / 2;
        let m = BlockManager::new(usize::MAX);
        m.set_tenant_quota(1, quota);
        ctx.scoped_tenant(2, || {
            m.put(9, 0, part(&[7, 7, 7]));
        });
        ctx.scoped_tenant(1, || {
            m.put(1, 0, part(&[1, 1, 1]));
            m.put(1, 1, part(&[2, 2, 2]));
            let out = m.put(1, 2, part(&[3, 3, 3]));
            assert_eq!(
                out.evicted,
                vec![Evicted {
                    dataset: 1,
                    partition: 0,
                    bytes: block as u64,
                }]
            );
        });
        assert!(
            m.get::<i64>(9, 0).is_some(),
            "other tenant's block must survive"
        );
        let status = m.status();
        let t1 = status.tenants.iter().find(|t| t.tenant == 1).unwrap();
        assert_eq!(
            (t1.memory_used, t1.quota),
            (2 * block as u64, Some(quota as u64))
        );
        let t2 = status.tenants.iter().find(|t| t.tenant == 2).unwrap();
        assert_eq!((t2.memory_used, t2.quota), (block as u64, None));
        assert_eq!(m.tenant_quota(1), Some(quota));
    }

    #[test]
    fn block_larger_than_tenant_quota_behaves_like_oversized() {
        let ctx = Context::builder().workers(1).chaos_off().build();
        let m = BlockManager::new(usize::MAX);
        m.set_tenant_quota(3, 10);
        ctx.scoped_tenant(3, || {
            let out = m.put(1, 0, part(&[1, 2, 3]));
            assert!(!out.stored);
        });
        assert!(m.get::<i64>(1, 0).is_none());
    }

    #[test]
    fn remove_tenant_frees_only_that_tenants_blocks() {
        let ctx = Context::builder().workers(1).chaos_off().build();
        let m = BlockManager::new(usize::MAX);
        ctx.scoped_tenant(1, || {
            m.put(1, 0, part(&[1]));
            m.put(1, 1, part(&[2]));
        });
        ctx.scoped_tenant(2, || {
            m.put(2, 0, part(&[3]));
        });
        assert_eq!(m.remove_tenant(1), 2);
        assert!(m.get::<i64>(1, 0).is_none());
        assert!(m.get::<i64>(1, 1).is_none());
        assert!(m.get::<i64>(2, 0).is_some());
        let status = m.status();
        assert!(status.tenants.iter().all(|t| t.tenant != 1));
        assert_eq!(
            status.memory_used,
            status.tenants.iter().map(|t| t.memory_used).sum::<u64>()
        );
    }

    #[test]
    fn untagged_puts_are_charged_to_no_tenant() {
        let m = BlockManager::new(usize::MAX);
        m.put(5, 0, part(&[1, 2]));
        let status = m.status();
        assert!(status.tenants.is_empty());
        assert!(status.memory_used > 0);
    }

    #[test]
    fn persisted_partitions_are_served_as_one_shared_allocation() {
        // Two consumers of a persisted dataset must observe the *same*
        // underlying allocation: a cache hit is a refcount bump, not a
        // double-buffered copy of the stored block.
        let ctx = Context::builder()
            .workers(2)
            .storage_memory(64 << 20)
            .chaos_off()
            .build();
        let src: Arc<dyn Op<i64>> = Arc::new(crate::ops::SourceOp::new((0..100).collect(), 2));
        let (persist, _lease) = PersistOp::new(&ctx, src, Vec::new());
        // First compute stores the block; the returned stream shares it.
        let first = persist.compute(0, &ctx);
        let (block_first, _) = first.as_shared().expect("persist store must be shared");
        let stored = ctx
            .storage()
            .get::<i64>(persist.cache_id().unwrap(), 0)
            .expect("block resident")
            .data;
        assert!(Arc::ptr_eq(block_first, &stored));
        // Two subsequent consumers both see that same allocation.
        let a = persist.compute(0, &ctx);
        let b = persist.compute(0, &ctx);
        let (block_a, _) = a.as_shared().expect("hit must be shared");
        let (block_b, _) = b.as_shared().expect("hit must be shared");
        assert!(Arc::ptr_eq(block_a, block_b));
        assert!(Arc::ptr_eq(block_a, &stored));
    }
}
