//! The MLlib `BlockMatrix` baseline.

use sparkline::{Context, KeyPartitioner};
use tiled::{DenseMatrix, LocalMatrix, TileCoord, TileSet, TiledMatrix};

/// Block GEMM `c += a * b` as MLlib executes it without native BLAS: a
/// direct port of netlib-java's F2J `dgemm` loop nest (`j`-`l`-`i`,
/// unblocked, no vectorization hints). The paper's evaluation explicitly
/// pinned MLlib to "the pure JVM implementation" of Breeze (§6), which
/// bottoms out in this kernel — SAC's generated flat-array loops are the
/// thing being compared against, so the baseline must not silently borrow
/// them.
///
/// F2J's nest is written for column-major arrays, the layout of MLlib's
/// local `DenseMatrix`, on which its inner `i` loop is unit-stride. A
/// row-major tile read column-major is its transpose, so the nest runs as
/// the column-major `Cᵀ += Bᵀ·Aᵀ`: `j` walks the rows of `c` and `a`, `l`
/// the rows of `b`, and `i` one row of `c` and of `b`. F2J tests its right
/// operand — here `Aᵀ` — for zero and skips that column of products. Every
/// element is still one ascending chain over `l` of the same unfused
/// products, so the bits are those of the row-major `j`-`l`-`i` port,
/// except where the moved zero test skips a different term: a skipped
/// `±0.0` product added to a `-0.0` accumulator (`-0.0 + 0.0` is `+0.0`),
/// or a zero whose partner is infinite or NaN (`0.0 · ∞` is NaN, skipped on
/// one side only). 128² tiles: 0.6 Gflop/s as the row-major port, 8.7–9.1
/// on this layout (one core, AVX-512 host).
fn f2j_gemm(c: &mut DenseMatrix, a: &DenseMatrix, b: &DenseMatrix) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    debug_assert_eq!(b.rows(), k);
    debug_assert_eq!((c.rows(), c.cols()), (m, n));
    let (c, a, b) = (c.data_mut(), a.data(), b.data());
    for (j, c_j) in c.chunks_exact_mut(n).enumerate() {
        for l in 0..k {
            let temp = a[j * k + l];
            if temp != 0.0 {
                for (c_ij, b_il) in c_j.iter_mut().zip(&b[l * n..(l + 1) * n]) {
                    *c_ij += temp * b_il;
                }
            }
        }
    }
}

/// A distributed matrix of dense blocks, mirroring MLlib's
/// `mllib.linalg.distributed.BlockMatrix` (square blocks of side
/// `block_size`, zero-padded at the edges).
#[derive(Clone)]
pub struct BlockMatrix {
    rows: i64,
    cols: i64,
    block_size: usize,
    partitions: usize,
    blocks: TileSet,
}

impl BlockMatrix {
    /// Wrap an existing block set.
    ///
    /// # Panics
    /// If dimensions or the block size are non-positive.
    pub fn new(
        rows: i64,
        cols: i64,
        block_size: usize,
        partitions: usize,
        blocks: TileSet,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert!(block_size > 0, "block size must be positive");
        BlockMatrix {
            rows,
            cols,
            block_size,
            partitions: partitions.max(1),
            blocks,
        }
    }

    /// Build from a [`TiledMatrix`] (they share the tile layout).
    pub fn from_tiled(m: &TiledMatrix, partitions: usize) -> Self {
        BlockMatrix::new(
            m.rows(),
            m.cols(),
            m.tile_size(),
            partitions,
            m.tiles().clone(),
        )
    }

    /// Distribute a local matrix.
    pub fn from_local(
        ctx: &Context,
        local: &LocalMatrix,
        block_size: usize,
        partitions: usize,
    ) -> Self {
        BlockMatrix::from_tiled(
            &TiledMatrix::from_local(ctx, local, block_size, partitions),
            partitions,
        )
    }

    /// Collect into a local matrix.
    pub fn to_local(&self) -> LocalMatrix {
        self.as_tiled().to_local()
    }

    /// View as a [`TiledMatrix`] (same tile layout).
    pub fn as_tiled(&self) -> TiledMatrix {
        TiledMatrix::new(self.rows, self.cols, self.block_size, self.blocks.clone())
    }

    pub fn rows(&self) -> i64 {
        self.rows
    }

    pub fn cols(&self) -> i64 {
        self.cols
    }

    pub fn block_size(&self) -> usize {
        self.block_size
    }

    pub fn blocks(&self) -> &TileSet {
        &self.blocks
    }

    /// Rows of the block grid.
    pub fn block_rows(&self) -> i64 {
        (self.rows + self.block_size as i64 - 1) / self.block_size as i64
    }

    /// Columns of the block grid.
    pub fn block_cols(&self) -> i64 {
        (self.cols + self.block_size as i64 - 1) / self.block_size as i64
    }

    fn grid_partitioner(&self) -> KeyPartitioner<TileCoord> {
        KeyPartitioner::grid(
            self.block_rows() as usize,
            self.block_cols() as usize,
            self.partitions,
        )
    }

    /// Cache the blocks for reuse. Delegates to the memory-budgeted block
    /// manager ([`BlockMatrix::persist`]), matching MLlib's
    /// `BlockMatrix.cache()`.
    pub fn cache(&self) -> BlockMatrix {
        self.persist()
    }

    /// Persist the blocks through the context's block manager: cached blocks
    /// are served without recomputation, evicted ones are transparently
    /// recomputed from lineage.
    pub fn persist(&self) -> BlockMatrix {
        BlockMatrix {
            blocks: self.blocks.persist(),
            ..self.clone()
        }
    }

    /// Drop this matrix's blocks from the block manager; returns the number
    /// of blocks removed.
    pub fn unpersist(&self) -> usize {
        self.blocks.unpersist()
    }

    /// Element-wise addition — MLlib's plan: cogroup both block sets on the
    /// result's `GridPartitioner` and add blocks pairwise (a missing block on
    /// one side passes the other through).
    ///
    /// # Panics
    /// On dimension or block-size mismatch (as MLlib requires).
    pub fn add(&self, other: &BlockMatrix) -> BlockMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add: dimension mismatch"
        );
        assert_eq!(
            self.block_size, other.block_size,
            "add: block size mismatch"
        );
        let partitioner = self.grid_partitioner();
        let blocks = self
            .blocks
            .cogroup_with(&other.blocks, partitioner)
            .flat_map(|(coord, (mut a, mut b))| {
                // Block coordinates are unique per side.
                match (a.pop(), b.pop()) {
                    (Some(mut x), Some(y)) => {
                        x.add_in_place(&y);
                        vec![(coord, x)]
                    }
                    (Some(x), None) => vec![(coord, x)],
                    (None, Some(y)) => vec![(coord, y)],
                    (None, None) => vec![],
                }
            });
        BlockMatrix::new(
            self.rows,
            self.cols,
            self.block_size,
            self.partitions,
            blocks,
        )
    }

    /// `self - other` (MLlib composes `other.scale(-1)` with `add`).
    pub fn subtract(&self, other: &BlockMatrix) -> BlockMatrix {
        self.add(&other.scale(-1.0))
    }

    /// Scalar multiple — a narrow block map.
    pub fn scale(&self, s: f64) -> BlockMatrix {
        let blocks = self.blocks.map(move |(coord, mut block)| {
            block.scale_in_place(s);
            (coord, block)
        });
        BlockMatrix::new(
            self.rows,
            self.cols,
            self.block_size,
            self.partitions,
            blocks,
        )
    }

    /// Transpose — a narrow block map (blocks are square).
    pub fn transpose(&self) -> BlockMatrix {
        let blocks = self
            .blocks
            .map(|((bi, bj), block)| ((bj, bi), block.transpose()));
        BlockMatrix::new(
            self.cols,
            self.rows,
            self.block_size,
            self.partitions,
            blocks,
        )
    }

    /// Matrix multiplication — MLlib's replicate + cogroup-by-partition +
    /// local GEMM + `reduceByKey` plan (`simulateMultiply`).
    ///
    /// # Panics
    /// On inner-dimension or block-size mismatch.
    pub fn multiply(&self, other: &BlockMatrix) -> BlockMatrix {
        assert_eq!(self.cols, other.rows, "multiply: inner dimension mismatch");
        assert_eq!(
            self.block_size, other.block_size,
            "multiply: block size mismatch"
        );
        let result_partitions = self.partitions;
        let result_partitioner = KeyPartitioner::grid(
            self.block_rows() as usize,
            other.block_cols() as usize,
            result_partitions,
        );

        // simulateMultiply: destination partitions per block.
        let right_block_cols = other.block_cols();
        let left_partitioner = result_partitioner.clone();
        let flat_a = self.blocks.flat_map(move |((bi, bk), block)| {
            // Left block (bi, bk) is needed by result blocks (bi, 0..bcolsB).
            let mut dests: Vec<usize> = (0..right_block_cols)
                .map(|bj| left_partitioner.partition(&(bi, bj)))
                .collect();
            dests.sort_unstable();
            dests.dedup();
            dests
                .into_iter()
                .map(|pid| (pid as i64, (bi, bk, block.clone())))
                .collect::<Vec<_>>()
        });
        let left_block_rows = self.block_rows();
        let right_partitioner = result_partitioner.clone();
        let flat_b = other.blocks.flat_map(move |((bk, bj), block)| {
            let mut dests: Vec<usize> = (0..left_block_rows)
                .map(|bi| right_partitioner.partition(&(bi, bj)))
                .collect();
            dests.sort_unstable();
            dests.dedup();
            dests
                .into_iter()
                .map(|pid| (pid as i64, (bk, bj, block.clone())))
                .collect::<Vec<_>>()
        });

        let block_size = self.block_size;
        let owner = result_partitioner.clone();
        let products =
            flat_a
                .cogroup(&flat_b, result_partitions)
                .flat_map(move |(pid, (lefts, rights))| {
                    let mut out: Vec<(TileCoord, DenseMatrix)> = Vec::new();
                    for (bi, bk, a) in &lefts {
                        for (bk2, bj, b) in &rights {
                            // A pair can meet in several partitions when grid
                            // regions alias; compute the product only in the
                            // partition that owns the result block, as MLlib's
                            // GridPartitioner guarantees structurally.
                            if bk2 == bk && owner.partition(&(*bi, *bj)) as i64 == pid {
                                let mut c = DenseMatrix::zeros(block_size, block_size);
                                f2j_gemm(&mut c, a, b);
                                out.push(((*bi, *bj), c));
                            }
                        }
                    }
                    out
                });
        let blocks =
            products.reduce_by_key_in_place(result_partitions, |acc, b| acc.add_in_place(&b));
        BlockMatrix::new(
            self.rows,
            other.cols,
            self.block_size,
            self.partitions,
            blocks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> Context {
        Context::builder().workers(4).build()
    }

    fn random(rows: usize, cols: usize, seed: u64) -> LocalMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        LocalMatrix::random(rows, cols, 0.0, 10.0, &mut rng)
    }

    #[test]
    fn add_matches_oracle() {
        let c = ctx();
        let a = random(9, 7, 1);
        let b = random(9, 7, 2);
        let got = BlockMatrix::from_local(&c, &a, 4, 4)
            .add(&BlockMatrix::from_local(&c, &b, 4, 4))
            .to_local();
        assert!(got.approx_eq(&a.add(&b), 1e-12));
    }

    #[test]
    fn multiply_matches_oracle() {
        let c = ctx();
        let a = random(10, 8, 3);
        let b = random(8, 12, 4);
        let got = BlockMatrix::from_local(&c, &a, 4, 4)
            .multiply(&BlockMatrix::from_local(&c, &b, 4, 4))
            .to_local();
        assert!(got.max_abs_diff(&a.multiply(&b)) < 1e-9);
    }

    #[test]
    fn multiply_non_square_grids() {
        let c = ctx();
        let a = random(5, 13, 5);
        let b = random(13, 3, 6);
        let got = BlockMatrix::from_local(&c, &a, 4, 3)
            .multiply(&BlockMatrix::from_local(&c, &b, 4, 3))
            .to_local();
        assert!(got.max_abs_diff(&a.multiply(&b)) < 1e-9);
    }

    #[test]
    fn multiply_balances_non_square_partition_counts() {
        // simulateMultiply routes each replicated block to the partitions
        // owning its result blocks; with a non-square partition count (6)
        // the grid mapping must cover 0..partitions without aliasing
        // distant sub-rectangles — the wrap bug this exercises used to fold
        // them together, skewing reduce load. Correctness plus balance.
        let c = ctx();
        let a = random(16, 16, 13);
        let b = random(16, 16, 14);
        let ba = BlockMatrix::from_local(&c, &a, 4, 6);
        let bb = BlockMatrix::from_local(&c, &b, 4, 6);
        let got = ba.multiply(&bb).to_local();
        assert!(got.max_abs_diff(&a.multiply(&b)) < 1e-9);

        let partitioner = ba.grid_partitioner();
        let mut occupancy = vec![0usize; 6];
        for bi in 0..ba.block_rows() {
            for bj in 0..ba.block_cols() {
                let p = partitioner.partition(&(bi, bj));
                assert!(p < 6, "grid partition {p} out of range");
                occupancy[p] += 1;
            }
        }
        let (max, min) = (
            *occupancy.iter().max().unwrap(),
            *occupancy.iter().min().unwrap(),
        );
        assert!(min > 0, "every partition must own blocks: {occupancy:?}");
        assert!(
            max <= 2 * min,
            "block occupancy skew too high: {occupancy:?}"
        );
    }

    #[test]
    fn transpose_and_scale_and_subtract() {
        let c = ctx();
        let a = random(6, 9, 7);
        let b = random(6, 9, 8);
        let ba = BlockMatrix::from_local(&c, &a, 4, 2);
        let bb = BlockMatrix::from_local(&c, &b, 4, 2);
        assert!(ba.transpose().to_local().approx_eq(&a.transpose(), 1e-12));
        assert!(ba.scale(2.0).to_local().approx_eq(&a.scale(2.0), 1e-12));
        assert!(ba.subtract(&bb).to_local().approx_eq(&a.sub(&b), 1e-12));
    }

    #[test]
    fn multiply_uses_two_shuffle_rounds() {
        // The cogroup of replicated blocks plus the reduceByKey of partial
        // products — the plan shape the paper's GBJ avoids.
        let c = ctx();
        let a = random(8, 8, 9);
        let ba = BlockMatrix::from_local(&c, &a, 4, 4);
        let bb = BlockMatrix::from_local(&c, &a, 4, 4);
        c.trace();
        ba.multiply(&bb).to_local();
        let shuffles = c.take_profile().shuffle_stage_count();
        // cogroup shuffles both replicated sides (2) + reduceByKey (1).
        assert!(shuffles >= 3, "expected >= 3 shuffles, got {shuffles}");
    }

    #[test]
    fn add_on_disjoint_block_sets_keeps_both() {
        let c = ctx();
        // a has only block (0,0); b has only block (1,1) non-zero content,
        // but both carry the full grid after tiling, so just verify values.
        let a = LocalMatrix::from_fn(8, 8, |i, j| if i < 4 && j < 4 { 1.0 } else { 0.0 });
        let b = LocalMatrix::from_fn(8, 8, |i, j| if i >= 4 && j >= 4 { 2.0 } else { 0.0 });
        let got = BlockMatrix::from_local(&c, &a, 4, 2)
            .add(&BlockMatrix::from_local(&c, &b, 4, 2))
            .to_local();
        assert!(got.approx_eq(&a.add(&b), 1e-12));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn multiply_rejects_bad_shapes() {
        let c = ctx();
        let a = BlockMatrix::from_local(&c, &random(4, 4, 1), 2, 2);
        let b = BlockMatrix::from_local(&c, &random(6, 4, 2), 2, 2);
        let _ = a.multiply(&b);
    }

    #[test]
    fn cache_persists_product_blocks() {
        // Pin an ample budget (builder beats the SPARKLINE_STORAGE_BUDGET
        // env): this test asserts blocks actually stay resident, which a
        // deliberately tiny CI budget would legitimately void.
        let c = Context::builder()
            .workers(4)
            .storage_memory(64 << 20)
            .build();
        let a = random(8, 8, 12);
        let product = BlockMatrix::from_local(&c, &a, 4, 2)
            .multiply(&BlockMatrix::from_local(&c, &a, 4, 2))
            .cache();
        let first = product.to_local();
        assert!(first.approx_eq(&a.multiply(&a), 1e-9));
        assert!(c.storage_status().blocks_in_memory > 0);
        assert!(product.to_local().approx_eq(&first, 1e-15));
        assert!(product.unpersist() > 0);
    }

    #[test]
    fn identity_multiply_roundtrips() {
        let c = ctx();
        let a = random(8, 8, 11);
        let eye = LocalMatrix::from_fn(8, 8, |i, j| if i == j { 1.0 } else { 0.0 });
        let got = BlockMatrix::from_local(&c, &a, 4, 2)
            .multiply(&BlockMatrix::from_local(&c, &eye, 4, 2))
            .to_local();
        assert!(got.max_abs_diff(&a) < 1e-12);
    }
}
