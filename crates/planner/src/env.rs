//! The planning environment: what each free variable of a comprehension is
//! bound to — a distributed array, or a driver-side scalar.

use comp::Value;
use sparkline::Context;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use tiled::{DenseMatrix, TiledMatrix, TiledVector};

/// A distributed array a comprehension can range over or produce.
#[derive(Clone)]
pub enum DistArray {
    /// A block (tiled) matrix — the paper's main storage (§5).
    Matrix(TiledMatrix),
    /// A block vector (Fig. 1).
    Vector(TiledVector),
}

impl DistArray {
    /// Short kind name for plan explanations.
    pub fn kind(&self) -> &'static str {
        match self {
            DistArray::Matrix(_) => "tiled matrix",
            DistArray::Vector(_) => "tiled vector",
        }
    }

    pub fn as_matrix(&self) -> Option<&TiledMatrix> {
        match self {
            DistArray::Matrix(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_vector(&self) -> Option<&TiledVector> {
        match self {
            DistArray::Vector(v) => Some(v),
            _ => None,
        }
    }

    /// Identity of the underlying dataset lineage (thin pointer of the root
    /// operator's `Arc`). Two arrays share an identity iff they wrap the
    /// same operator DAG node, so a persisted overlay built for one is valid
    /// for the other.
    pub(crate) fn lineage_identity(&self) -> usize {
        match self {
            DistArray::Matrix(m) => Arc::as_ptr(m.tiles().op()) as *const () as usize,
            DistArray::Vector(v) => Arc::as_ptr(v.blocks().op()) as *const () as usize,
        }
    }

    /// The context the array's blocks live in.
    pub(crate) fn context(&self) -> &Context {
        match self {
            DistArray::Matrix(m) => m.tiles().context(),
            DistArray::Vector(v) => v.blocks().context(),
        }
    }

    /// A persisted (block-manager backed) variant of this array.
    fn persisted(&self) -> DistArray {
        match self {
            DistArray::Matrix(m) => DistArray::Matrix(m.persist()),
            DistArray::Vector(v) => DistArray::Vector(v.persist()),
        }
    }
}

/// Per-array statistics for the planner's cost model: logical dimensions,
/// tile grid, and estimated resident bytes.
///
/// Stats are metadata-derived — collecting them never runs a job. Every
/// tile is priced dense, because every tile ships dense: a zero-heavy
/// matrix costs what a full one does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayStats {
    pub rows: i64,
    pub cols: i64,
    /// Tile side length (matrices) or block size (vectors).
    pub tile_size: usize,
    pub block_rows: i64,
    pub block_cols: i64,
    /// Estimated resident bytes of the distributed representation.
    pub estimated_bytes: u64,
}

impl ArrayStats {
    /// Encoded bytes of one shuffled tile record: the `(i64, i64)` coordinate
    /// plus the [`tiled::DenseMatrix`] payload.
    pub fn dense_tile_bytes(tile_size: usize) -> u64 {
        (16 + DenseMatrix::encoded_len_of(tile_size, tile_size)) as u64
    }

    /// Encoded bytes of one vector-block record of `block_size` elements.
    pub fn vector_block_bytes(block_size: usize) -> u64 {
        TiledVector::block_record_len(block_size) as u64
    }

    /// Stats for a tiled matrix, from metadata alone.
    pub fn matrix(rows: i64, cols: i64, tile_size: usize) -> ArrayStats {
        let block_rows = div_ceil_i64(rows, tile_size as i64);
        let block_cols = div_ceil_i64(cols, tile_size as i64);
        ArrayStats {
            rows,
            cols,
            tile_size,
            block_rows,
            block_cols,
            estimated_bytes: (block_rows * block_cols) as u64
                * ArrayStats::dense_tile_bytes(tile_size),
        }
    }

    /// Stats for a tiled (block) vector: a single-column grid of blocks.
    pub fn vector(len: i64, block_size: usize) -> ArrayStats {
        let blocks = div_ceil_i64(len, block_size as i64);
        ArrayStats {
            rows: len,
            cols: 1,
            tile_size: block_size,
            block_rows: blocks,
            block_cols: 1,
            estimated_bytes: blocks as u64 * ArrayStats::vector_block_bytes(block_size),
        }
    }

    /// Number of tiles in the grid.
    pub fn num_tiles(&self) -> u64 {
        (self.block_rows * self.block_cols) as u64
    }
}

fn div_ceil_i64(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

/// Metadata-derived statistics for an array (no jobs run).
fn derived_stats(array: &DistArray) -> ArrayStats {
    match array {
        DistArray::Matrix(m) => ArrayStats::matrix(m.rows(), m.cols(), m.tile_size()),
        DistArray::Vector(v) => ArrayStats::vector(v.len(), v.block_size()),
    }
}

/// Free-variable bindings available while planning a comprehension.
#[derive(Clone, Default)]
pub struct PlanEnv {
    arrays: HashMap<String, DistArray>,
    stats: HashMap<String, ArrayStats>,
    scalars: HashMap<String, Value>,
    /// Auto-persist overlays: name -> (lineage identity of the source
    /// array, its persisted wrapper). Shared across clones so repeated
    /// executions (iterative algorithms) reuse the same cached blocks.
    persist_cache: Arc<Mutex<HashMap<String, (usize, DistArray)>>>,
}

impl PlanEnv {
    pub fn new() -> Self {
        PlanEnv::default()
    }

    /// Register a distributed array under a name. Rebinding a name to a
    /// different lineage drops the superseded auto-persist overlay's blocks
    /// from the block manager.
    pub fn set_array(&mut self, name: impl Into<String>, array: DistArray) {
        let name = name.into();
        let mut cache = self.lock_persist_cache();
        if let Some((id, old)) = cache.get(&name) {
            if array.lineage_identity() != *id {
                unpersist_array(old);
                cache.remove(&name);
            }
        }
        drop(cache);
        self.stats.insert(name.clone(), derived_stats(&array));
        self.arrays.insert(name, array);
    }

    /// Statistics for the array bound to `name`, if any.
    pub fn stats(&self, name: &str) -> Option<&ArrayStats> {
        self.stats.get(name)
    }

    /// Overlay the statistics of an already-registered array — a test's
    /// deliberately wrong ones: the plan-time choice reads them as given.
    pub fn set_stats(&mut self, name: impl Into<String>, stats: ArrayStats) {
        self.stats.insert(name.into(), stats);
    }

    /// Bind `name` directly, without touching the auto-persist cache. Used
    /// by the executor to substitute a persisted overlay for its source in a
    /// transient clone of the environment ([`PlanEnv::set_array`] would
    /// treat the overlay as a rebind and drop its own cache entry).
    pub(crate) fn overlay_array(&mut self, name: &str, array: DistArray) {
        self.arrays.insert(name.to_string(), array);
    }

    /// A block-manager-persisted overlay of the array bound to `name`,
    /// built on first use and cached for subsequent executions; a binding
    /// that is already persisted is its own overlay. Returns `None` when the
    /// name is unbound.
    pub fn persisted_array(&self, name: &str) -> Option<DistArray> {
        let array = self.arrays.get(name)?;
        let identity = array.lineage_identity();
        let mut cache = self.lock_persist_cache();
        match cache.get(name) {
            // Bound to the overlay's source, or to the overlay itself
            // (`persist_array`).
            Some((id, overlay)) if *id == identity || overlay.lineage_identity() == identity => {
                Some(overlay.clone())
            }
            _ => {
                let overlay = array.persisted();
                if let Some((_, old)) = cache.insert(name.to_string(), (identity, overlay.clone()))
                {
                    unpersist_array(&old);
                }
                Some(overlay)
            }
        }
    }

    /// Persist the array bound to `name` in place: the binding is replaced
    /// by a block-manager-backed overlay, so *every* later plan referencing
    /// the name (not just those that reference it twice) reads cached
    /// blocks. Returns false when the name is unbound.
    pub fn persist_array(&mut self, name: &str) -> bool {
        match self.persisted_array(name) {
            Some(overlay) => {
                self.overlay_array(name, overlay);
                true
            }
            None => false,
        }
    }

    /// Drop the persisted blocks associated with `name` (both the
    /// auto-persist overlay and an explicitly persisted binding); returns
    /// the number of blocks removed from the block manager.
    pub fn unpersist_array(&mut self, name: &str) -> usize {
        let mut dropped = 0;
        let mut cache = self.lock_persist_cache();
        if let Some((_, old)) = cache.remove(name) {
            dropped += unpersist_array(&old);
        }
        drop(cache);
        if let Some(a) = self.arrays.get(name) {
            dropped += unpersist_array(a);
        }
        dropped
    }

    fn lock_persist_cache(&self) -> std::sync::MutexGuard<'_, HashMap<String, (usize, DistArray)>> {
        // A poisoned lock only means another thread panicked mid-update of
        // this advisory cache; the map itself is still usable.
        self.persist_cache
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Register a driver-side scalar (dimension, learning rate, ...).
    pub fn set_scalar(&mut self, name: impl Into<String>, value: Value) {
        self.scalars.insert(name.into(), value);
    }

    pub fn set_int(&mut self, name: impl Into<String>, value: i64) {
        self.set_scalar(name, Value::Int(value));
    }

    pub fn set_float(&mut self, name: impl Into<String>, value: f64) {
        self.set_scalar(name, Value::Float(value));
    }

    pub fn array(&self, name: &str) -> Option<&DistArray> {
        self.arrays.get(name)
    }

    pub fn scalar(&self, name: &str) -> Option<&Value> {
        self.scalars.get(name)
    }

    /// Integer scalar lookup for index-expression compilation.
    pub fn int_scalar(&self, name: &str) -> Option<i64> {
        match self.scalars.get(name) {
            Some(Value::Int(n)) => Some(*n),
            _ => None,
        }
    }
}

/// Drop a persisted overlay's blocks from its context's block manager.
fn unpersist_array(a: &DistArray) -> usize {
    match a {
        DistArray::Matrix(m) => m.unpersist(),
        DistArray::Vector(v) => v.unpersist(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline::Context;
    use tiled::LocalMatrix;

    #[test]
    fn scalar_lookups() {
        let mut env = PlanEnv::new();
        env.set_int("n", 4);
        env.set_float("gamma", 0.5);
        assert_eq!(env.int_scalar("n"), Some(4));
        assert_eq!(env.scalar("gamma"), Some(&Value::Float(0.5)));
        assert_eq!(env.int_scalar("gamma"), None);
        assert_eq!(env.int_scalar("missing"), None);
    }

    #[test]
    fn persisted_overlay_is_cached_and_dropped_on_rebind() {
        // Ample pinned budget (builder beats SPARKLINE_STORAGE_BUDGET): the
        // test asserts overlay blocks stay resident until rebind drops them.
        let ctx = Context::builder()
            .workers(2)
            .storage_memory(64 << 20)
            .build();
        let m = LocalMatrix::from_fn(4, 4, |i, j| (i + j) as f64);
        let mut env = PlanEnv::new();
        env.set_array(
            "M",
            DistArray::Matrix(TiledMatrix::from_local(&ctx, &m, 2, 2)),
        );
        let p1 = env.persisted_array("M").unwrap();
        let p2 = env.persisted_array("M").unwrap();
        // Same overlay both times: same persist node, so same cache id.
        let id = |a: &DistArray| a.as_matrix().unwrap().tiles().op().cache_id();
        assert!(id(&p1).is_some());
        assert_eq!(id(&p1), id(&p2));
        // Clones share the cache.
        assert_eq!(id(&env.clone().persisted_array("M").unwrap()), id(&p1));
        // Materialize, then rebind the name to a new lineage: the old
        // overlay's blocks must be dropped.
        p1.as_matrix().unwrap().to_local();
        assert!(ctx.storage_status().blocks_in_memory > 0);
        env.set_array(
            "M",
            DistArray::Matrix(TiledMatrix::from_local(&ctx, &m, 2, 2)),
        );
        assert_eq!(ctx.storage_status().blocks_in_memory, 0);
        let p3 = env.persisted_array("M").unwrap();
        assert_ne!(id(&p3), id(&p1), "rebinding must build a fresh overlay");
        assert!(env.persisted_array("missing").is_none());
        // Persisted in place, the binding is its own overlay: a plan reading
        // it twice keeps its blocks.
        assert!(env.persist_array("M"));
        p3.as_matrix().unwrap().to_local();
        let blocks = ctx.storage_status().blocks_in_memory;
        assert_eq!(id(&env.persisted_array("M").unwrap()), id(&p3));
        assert_eq!(ctx.storage_status().blocks_in_memory, blocks);
    }

    #[test]
    fn registration_derives_stats_from_metadata() {
        let ctx = Context::builder().workers(2).build();
        let m = LocalMatrix::from_fn(6, 6, |i, j| if i == j { 1.0 } else { 0.0 });
        let mut env = PlanEnv::new();
        env.set_array(
            "M",
            DistArray::Matrix(TiledMatrix::from_local(&ctx, &m, 4, 2)),
        );
        let s = *env.stats("M").unwrap();
        assert_eq!((s.rows, s.cols, s.tile_size), (6, 6, 4));
        assert_eq!((s.block_rows, s.block_cols), (2, 2));
        assert_eq!(s.num_tiles(), 4);
        assert_eq!(s.estimated_bytes, 4 * ArrayStats::dense_tile_bytes(4));
        assert!(env.stats("missing").is_none());
    }

    #[test]
    fn tile_byte_closed_forms_match_the_codec() {
        use sparkline::SpillCodec;
        for n in [0usize, 1, 4, 7] {
            let tile = ((0i64, 0i64), DenseMatrix::zeros(n, n));
            assert_eq!(ArrayStats::dense_tile_bytes(n), tile.encoded_len() as u64);
            let block = (0i64, vec![0.0f64; n]);
            assert_eq!(
                ArrayStats::vector_block_bytes(n),
                block.encoded_len() as u64
            );
        }
    }

    #[test]
    fn arrays_register_and_report_kind() {
        let ctx = Context::builder().workers(2).build();
        let m = LocalMatrix::from_fn(4, 4, |i, j| (i + j) as f64);
        let mut env = PlanEnv::new();
        env.set_array(
            "M",
            DistArray::Matrix(TiledMatrix::from_local(&ctx, &m, 2, 2)),
        );
        assert_eq!(env.array("M").unwrap().kind(), "tiled matrix");
        assert!(env.array("M").unwrap().as_matrix().is_some());
        assert!(env.array("M").unwrap().as_vector().is_none());
    }
}
