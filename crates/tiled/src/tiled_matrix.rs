//! Distributed tiled matrices — the paper's `Tiled` class (§5):
//! `case class Tiled(rows, cols, tiles: RDD[((Long,Long), Array[Double])])`.
//!
//! Tiles are fixed-size `N x N` dense blocks; the matrix element `(i, j)`
//! lives in tile `(i/N, j/N)` at in-tile position `(i%N, j%N)`. Edge tiles
//! are zero-padded to the full tile size, and the logical `rows`/`cols`
//! record where the padding starts.

use crate::local::LocalMatrix;
use crate::tile::DenseMatrix;
use crate::{TileCoord, TileSet};
use rand::Rng;
use sparkline::{expect_job, Context, JobError, KeyPartitioner};

/// A distributed matrix stored as a grid of dense tiles.
#[derive(Clone)]
pub struct TiledMatrix {
    rows: i64,
    cols: i64,
    tile_size: usize,
    tiles: TileSet,
}

impl TiledMatrix {
    /// Wrap an existing tile dataset.
    ///
    /// # Panics
    /// If `rows`, `cols` or `tile_size` is non-positive.
    pub fn new(rows: i64, cols: i64, tile_size: usize, tiles: TileSet) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert!(tile_size > 0, "tile size must be positive");
        TiledMatrix {
            rows,
            cols,
            tile_size,
            tiles,
        }
    }

    /// Number of logical rows.
    pub fn rows(&self) -> i64 {
        self.rows
    }

    /// Number of logical columns.
    pub fn cols(&self) -> i64 {
        self.cols
    }

    /// Tile side length `N`.
    pub fn tile_size(&self) -> usize {
        self.tile_size
    }

    /// The tile dataset.
    pub fn tiles(&self) -> &TileSet {
        &self.tiles
    }

    /// Rows of the tile grid: `ceil(rows / N)`.
    pub fn block_rows(&self) -> i64 {
        div_ceil(self.rows, self.tile_size as i64)
    }

    /// Columns of the tile grid: `ceil(cols / N)`.
    pub fn block_cols(&self) -> i64 {
        div_ceil(self.cols, self.tile_size as i64)
    }

    /// Cut a local matrix into tiles and distribute it. Each tile is cut
    /// straight from `local`'s rows; the matrix itself is never copied.
    pub fn from_local(
        ctx: &Context,
        local: &LocalMatrix,
        tile_size: usize,
        partitions: usize,
    ) -> Self {
        let brows = local.rows.div_ceil(tile_size);
        let bcols = local.cols.div_ceil(tile_size);
        let mut tiles: Vec<(TileCoord, DenseMatrix)> = Vec::with_capacity(brows * bcols);
        for bi in 0..brows {
            for bj in 0..bcols {
                let tile = DenseMatrix::cut(
                    local.data(),
                    (local.rows, local.cols),
                    (bi * tile_size, bj * tile_size),
                    (tile_size, tile_size),
                );
                tiles.push(((bi as i64, bj as i64), tile));
            }
        }
        TiledMatrix::new(
            local.rows as i64,
            local.cols as i64,
            tile_size,
            ctx.parallelize(tiles, partitions),
        )
    }

    /// Build each element from a function of its global `(row, col)` index.
    /// Tile construction happens distributed, one task per tile row band.
    pub fn from_fn(
        ctx: &Context,
        rows: i64,
        cols: i64,
        tile_size: usize,
        partitions: usize,
        f: impl Fn(i64, i64) -> f64 + Send + Sync + 'static,
    ) -> Self {
        let brows = div_ceil(rows, tile_size as i64);
        let bcols = div_ceil(cols, tile_size as i64);
        let coords: Vec<TileCoord> = (0..brows)
            .flat_map(|bi| (0..bcols).map(move |bj| (bi, bj)))
            .collect();
        let n = tile_size as i64;
        let tiles = ctx.parallelize(coords, partitions).map(move |(bi, bj)| {
            let tile = DenseMatrix::from_fn(tile_size, tile_size, |ti, tj| {
                let (gi, gj) = (bi * n + ti as i64, bj * n + tj as i64);
                if gi < rows && gj < cols {
                    f(gi, gj)
                } else {
                    0.0
                }
            });
            ((bi, bj), tile)
        });
        TiledMatrix::new(rows, cols, tile_size, tiles)
    }

    /// Dense random matrix with entries in `[lo, hi)`, seeded per tile so the
    /// result is deterministic for a given `seed`.
    #[allow(clippy::too_many_arguments)]
    pub fn random(
        ctx: &Context,
        rows: i64,
        cols: i64,
        tile_size: usize,
        partitions: usize,
        lo: f64,
        hi: f64,
        seed: u64,
    ) -> Self {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let bcols = div_ceil(cols, tile_size as i64) as u64;
        let brows = div_ceil(rows, tile_size as i64);
        let coords: Vec<TileCoord> = (0..brows)
            .flat_map(|bi| (0..bcols as i64).map(move |bj| (bi, bj)))
            .collect();
        let n = tile_size as i64;
        let tiles = ctx.parallelize(coords, partitions).map(move |(bi, bj)| {
            let mut rng = StdRng::seed_from_u64(seed ^ (bi as u64 * bcols + bj as u64));
            let tile = DenseMatrix::from_fn(tile_size, tile_size, |ti, tj| {
                let (gi, gj) = (bi * n + ti as i64, bj * n + tj as i64);
                let v = rng.gen_range(lo..hi);
                if gi < rows && gj < cols {
                    v
                } else {
                    0.0
                }
            });
            ((bi, bj), tile)
        });
        TiledMatrix::new(rows, cols, tile_size, tiles)
    }

    /// All-zero tiled matrix.
    pub fn zeros(ctx: &Context, rows: i64, cols: i64, tile_size: usize, partitions: usize) -> Self {
        TiledMatrix::from_fn(ctx, rows, cols, tile_size, partitions, |_, _| 0.0)
    }

    /// Collect all tiles and assemble the local matrix (clipping padding):
    /// each element is copied once, tile row by tile row, into the buffer the
    /// result keeps. Or the error of the job that failed.
    pub fn try_to_local(&self) -> Result<LocalMatrix, JobError> {
        let mut dense = DenseMatrix::zeros(self.rows as usize, self.cols as usize);
        let n = self.tile_size;
        for ((bi, bj), tile) in self.tiles.try_collect()? {
            dense.paste(bi as usize * n, bj as usize * n, &tile);
        }
        Ok(LocalMatrix::from(dense))
    }

    /// [`TiledMatrix::try_to_local`], panicking with the text of a failed job.
    pub fn to_local(&self) -> LocalMatrix {
        expect_job(self.try_to_local())
    }

    /// Cache the tiles for iterative algorithms: [`TiledMatrix::persist`],
    /// as Spark's `cache()` is `persist(MEMORY_ONLY)`.
    pub fn cache(&self) -> TiledMatrix {
        self.persist()
    }

    /// Persist the tiles through the context's memory-budgeted block
    /// manager: cached tiles are served without recomputation, evicted ones
    /// are transparently recomputed from lineage.
    pub fn persist(&self) -> TiledMatrix {
        TiledMatrix {
            rows: self.rows,
            cols: self.cols,
            tile_size: self.tile_size,
            tiles: self.tiles.persist(),
        }
    }

    /// Drop this matrix's tiles from the block manager; returns the number
    /// of blocks removed (0 if the matrix was never persisted).
    pub fn unpersist(&self) -> usize {
        self.tiles.unpersist()
    }

    /// Re-partition tiles by MLlib's grid partitioner, enabling narrow
    /// (shuffle-free) joins between identically partitioned matrices.
    pub fn partition_by_grid(&self, partitions: usize) -> TiledMatrix {
        let p = KeyPartitioner::grid(
            self.block_rows() as usize,
            self.block_cols() as usize,
            partitions,
        );
        TiledMatrix {
            rows: self.rows,
            cols: self.cols,
            tile_size: self.tile_size,
            tiles: self.tiles.partition_by(p),
        }
    }

    /// The grid partitioner matching this matrix's tile grid.
    pub fn grid_partitioner(&self, partitions: usize) -> KeyPartitioner<TileCoord> {
        KeyPartitioner::grid(
            self.block_rows() as usize,
            self.block_cols() as usize,
            partitions,
        )
    }

    /// Number of materialized tiles (an action).
    pub fn num_tiles(&self) -> usize {
        self.tiles.count()
    }

    /// True if the two matrices have identical dimensions and tiling.
    pub fn same_shape(&self, other: &TiledMatrix) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.tile_size == other.tile_size
    }
}

pub(crate) fn div_ceil(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> Context {
        Context::builder().workers(4).build()
    }

    #[test]
    fn local_roundtrip_exact_multiple() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let m = LocalMatrix::random(8, 8, 0.0, 10.0, &mut rng);
        let t = TiledMatrix::from_local(&c, &m, 4, 4);
        assert_eq!(t.block_rows(), 2);
        assert_eq!(t.num_tiles(), 4);
        assert_eq!(t.to_local(), m);
    }

    #[test]
    fn local_roundtrip_with_padding() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let m = LocalMatrix::random(7, 5, -1.0, 1.0, &mut rng);
        let t = TiledMatrix::from_local(&c, &m, 3, 4);
        assert_eq!(t.block_rows(), 3);
        assert_eq!(t.block_cols(), 2);
        assert_eq!(t.to_local(), m);
    }

    #[test]
    fn from_fn_matches_local() {
        let c = ctx();
        let t = TiledMatrix::from_fn(&c, 6, 9, 4, 4, |i, j| (i * 100 + j) as f64);
        let expected = LocalMatrix::from_fn(6, 9, |i, j| (i * 100 + j) as f64);
        assert_eq!(t.to_local(), expected);
    }

    #[test]
    fn padding_is_zero() {
        let c = ctx();
        let t = TiledMatrix::from_fn(&c, 5, 5, 4, 2, |_, _| 1.0);
        for ((bi, bj), tile) in t.tiles().collect() {
            if bi == 1 && bj == 1 {
                // Only (4,4) element in range; rest padding.
                assert_eq!(tile.get(0, 0), 1.0);
                assert_eq!(tile.get(0, 1), 0.0);
                assert_eq!(tile.get(1, 0), 0.0);
            }
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let c = ctx();
        let a = TiledMatrix::random(&c, 9, 9, 4, 4, 0.0, 10.0, 42).to_local();
        let b = TiledMatrix::random(&c, 9, 9, 4, 4, 0.0, 10.0, 42).to_local();
        let d = TiledMatrix::random(&c, 9, 9, 4, 4, 0.0, 10.0, 43).to_local();
        assert_eq!(a, b);
        assert_ne!(a, d);
    }

    #[test]
    fn random_pads_edges_with_zero() {
        let c = ctx();
        let t = TiledMatrix::random(&c, 5, 5, 4, 2, 1.0, 2.0, 7);
        for ((bi, bj), tile) in t.tiles().collect() {
            if (bi, bj) == (1, 1) {
                assert_eq!(tile.get(1, 1), 0.0, "padding must be zero");
                assert!(tile.get(0, 0) >= 1.0);
            }
        }
    }

    #[test]
    fn grid_partitioning_co_partitions_equal_shapes() {
        let c = ctx();
        let a = TiledMatrix::from_fn(&c, 8, 8, 4, 2, |i, j| (i + j) as f64).partition_by_grid(4);
        let b = TiledMatrix::from_fn(&c, 8, 8, 4, 2, |i, j| (i * j) as f64).partition_by_grid(4);
        assert_eq!(
            a.tiles().partitioner_descriptor(),
            b.tiles().partitioner_descriptor()
        );
        assert!(a.tiles().partitioner_descriptor().is_some());
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn rejects_empty_matrix() {
        let c = ctx();
        let _ = TiledMatrix::new(0, 4, 2, c.parallelize(vec![], 1));
    }

    #[test]
    fn persist_roundtrip_and_unpersist() {
        // Ample pinned budget (builder beats SPARKLINE_STORAGE_BUDGET): the
        // test asserts persisted blocks stay resident.
        let c = Context::builder()
            .workers(4)
            .storage_memory(64 << 20)
            .build();
        let t = TiledMatrix::from_fn(&c, 8, 8, 4, 4, |i, j| (i * 8 + j) as f64).persist();
        let first = t.to_local();
        assert_eq!(t.to_local(), first, "cached read must match");
        assert!(c.storage_status().blocks_in_memory > 0);
        assert!(t.unpersist() > 0);
        assert_eq!(c.storage_status().blocks_in_memory, 0);
        assert_eq!(t.to_local(), first, "recomputed read must match");
    }

    #[test]
    fn persist_under_eviction_pressure_matches_unpersisted() {
        // Budget far below the matrix size: every pass thrashes, results
        // must still be identical to the uncached evaluation.
        let c = Context::builder().workers(4).storage_memory(200).build();
        let plain = TiledMatrix::from_fn(&c, 10, 10, 4, 4, |i, j| (i * 31 + j * 7) as f64);
        let persisted = plain.persist();
        assert_eq!(persisted.to_local(), plain.to_local());
        assert_eq!(persisted.to_local(), plain.to_local());
    }
}
