//! Distributed block vectors — `RDD[(Int, Array[Double])]` in the paper
//! (Fig. 1): fixed-size dense blocks keyed by their block coordinate.

use crate::local::LocalMatrix;
use crate::tiled_matrix::div_ceil;
use sparkline::{Context, Dataset};

/// A distributed vector stored as fixed-size dense blocks.
#[derive(Clone)]
pub struct TiledVector {
    len: i64,
    block_size: usize,
    blocks: Dataset<(i64, Vec<f64>)>,
}

impl TiledVector {
    /// Wrap an existing block dataset.
    ///
    /// # Panics
    /// If `len` or `block_size` is non-positive.
    pub fn new(len: i64, block_size: usize, blocks: Dataset<(i64, Vec<f64>)>) -> Self {
        assert!(len > 0, "vector length must be positive");
        assert!(block_size > 0, "block size must be positive");
        TiledVector {
            len,
            block_size,
            blocks,
        }
    }

    pub fn len(&self) -> i64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks: `ceil(len / block_size)`.
    pub fn num_blocks(&self) -> i64 {
        div_ceil(self.len, self.block_size as i64)
    }

    pub fn blocks(&self) -> &Dataset<(i64, Vec<f64>)> {
        &self.blocks
    }

    /// Encoded length of one `(block index, block)` record of `len`
    /// elements — the `i64` key and the length-prefixed `f64` payload — as a
    /// closed form for cost models.
    pub const fn block_record_len(len: usize) -> usize {
        8 + 8 + 8 * len
    }

    /// Distribute a local vector, zero-padding the last block.
    pub fn from_local(ctx: &Context, data: &[f64], block_size: usize, partitions: usize) -> Self {
        let len = data.len() as i64;
        assert!(len > 0, "vector length must be positive");
        let blocks: Vec<(i64, Vec<f64>)> = data
            .chunks(block_size)
            .enumerate()
            .map(|(b, chunk)| {
                let mut v = chunk.to_vec();
                v.resize(block_size, 0.0);
                (b as i64, v)
            })
            .collect();
        TiledVector::new(len, block_size, ctx.parallelize(blocks, partitions))
    }

    /// Collect blocks and assemble the local vector (clipping padding).
    pub fn to_local(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len as usize];
        for (b, block) in self.blocks.collect() {
            let start = (b as usize * self.block_size).min(out.len());
            let valid = block.len().min(out.len() - start);
            out[start..start + valid].copy_from_slice(&block[..valid]);
        }
        out
    }

    /// Build each element from its global index.
    pub fn from_fn(
        ctx: &Context,
        len: i64,
        block_size: usize,
        partitions: usize,
        f: impl Fn(i64) -> f64 + Send + Sync + 'static,
    ) -> Self {
        let nblocks = div_ceil(len, block_size as i64);
        let blocks = ctx
            .parallelize((0..nblocks).collect(), partitions)
            .map(move |b| {
                let block: Vec<f64> = (0..block_size as i64)
                    .map(|off| {
                        let i = b * block_size as i64 + off;
                        if i < len {
                            f(i)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                (b, block)
            });
        TiledVector::new(len, block_size, blocks)
    }

    /// As a single-column [`LocalMatrix`] (for oracle comparisons).
    pub fn to_local_matrix(&self) -> LocalMatrix {
        let v = self.to_local();
        LocalMatrix::from_fn(v.len(), 1, |i, _| v[i])
    }

    /// Persist the blocks through the memory-budgeted block manager (see
    /// [`sparkline::Dataset::persist`]).
    pub fn persist(&self) -> TiledVector {
        TiledVector {
            len: self.len,
            block_size: self.block_size,
            blocks: self.blocks.persist(),
        }
    }

    /// Drop this vector's blocks from the block manager; returns the number
    /// of blocks removed.
    pub fn unpersist(&self) -> usize {
        self.blocks.unpersist()
    }
}

/// Pairwise block addition — the `addVectors` monoid of Fig. 1.
pub fn add_vectors(mut a: Vec<f64>, b: Vec<f64>) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "block length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::builder().workers(2).build()
    }

    #[test]
    fn roundtrip_with_padding() {
        let c = ctx();
        let data: Vec<f64> = (0..13).map(|i| i as f64).collect();
        let v = TiledVector::from_local(&c, &data, 4, 2);
        assert_eq!(v.num_blocks(), 4);
        assert_eq!(v.to_local(), data);
    }

    #[test]
    fn from_fn_matches() {
        let c = ctx();
        let v = TiledVector::from_fn(&c, 10, 3, 2, |i| (i * i) as f64);
        assert_eq!(
            v.to_local(),
            (0..10).map(|i| (i * i) as f64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn add_vectors_is_pairwise() {
        assert_eq!(
            add_vectors(vec![1.0, 2.0], vec![10.0, 20.0]),
            vec![11.0, 22.0]
        );
    }

    #[test]
    #[should_panic(expected = "block length mismatch")]
    fn add_vectors_rejects_mismatch() {
        add_vectors(vec![1.0], vec![1.0, 2.0]);
    }

    #[test]
    fn persist_roundtrip_and_unpersist() {
        // Ample pinned budget (builder beats SPARKLINE_STORAGE_BUDGET): the
        // test asserts persisted blocks stay resident.
        let c = Context::builder()
            .workers(2)
            .storage_memory(64 << 20)
            .build();
        let data: Vec<f64> = (0..13).map(|i| i as f64).collect();
        let v = TiledVector::from_local(&c, &data, 4, 2).persist();
        assert_eq!(v.to_local(), data);
        assert_eq!(v.to_local(), data);
        assert!(c.storage_status().blocks_in_memory > 0);
        assert!(v.unpersist() > 0);
        assert_eq!(v.to_local(), data);
    }

    #[test]
    fn last_block_is_padded() {
        let c = ctx();
        let v = TiledVector::from_local(&c, &[1.0, 2.0, 3.0], 2, 1);
        let blocks = v.blocks().collect();
        let last = blocks.iter().find(|(b, _)| *b == 1).unwrap();
        assert_eq!(last.1, vec![3.0, 0.0]);
    }
}
