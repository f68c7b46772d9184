//! Sparsifiers and builders — the storage/abstraction mappings of §1.1.
//!
//! The paper's two-layer design represents every abstract array as an
//! association list of `(index, value)` pairs; a **sparsifier** converts a
//! concrete storage structure into that list and a **builder** does the
//! inverse. The compiler fuses these functions into comprehensions; this
//! module implements them directly so the fused plans can be validated
//! against the unfused (sparsify → compute → build) path.
//!
//! Implemented mappings:
//!
//! * §2's row-major local matrix ↔ association list.
//! * §5's tiled matrix ↔ distributed association list (the `Tiled`
//!   sparsifier/builder, including the `group by (i/N, j/N)` tile builder).
//! * Fig. 1's block vector ↔ distributed association list.

use crate::local::LocalMatrix;
use crate::tile::DenseMatrix;
use crate::tiled_matrix::{div_ceil, TiledMatrix};
use crate::tiled_vector::TiledVector;
use crate::CooMatrix;
use sparkline::Dataset;

/// §2 sparsifier: local row-major matrix → association list (all elements,
/// including zeros — the "dense" association list of the formal semantics).
pub fn sparsify_local(m: &LocalMatrix) -> Vec<((i64, i64), f64)> {
    m.to_triplets()
}

/// §2 builder `matrix(n, m)(L)`: association list → local matrix. Entries
/// outside the `n x m` bounds are discarded, exactly as the paper's builder
/// guards (`i≥0, i<n, j≥0, j<m`) do.
pub fn build_local(rows: usize, cols: usize, list: &[((i64, i64), f64)]) -> LocalMatrix {
    let mut out = LocalMatrix::zeros(rows, cols);
    for &((i, j), v) in list {
        if i >= 0 && (i as usize) < rows && j >= 0 && (j as usize) < cols {
            out.set(i as usize, j as usize, v);
        }
    }
    out
}

/// §5 tile sparsifier: tiled matrix → distributed association list
///
/// ```text
/// [ ((ii*N+i, jj*N+j), a(i*N+j)) | ((ii,jj),a) <- S.tiles,
///                                  i <- 0 until N, j <- 0 until N ]
/// ```
///
/// Padding elements (outside the logical bounds) are skipped.
pub fn sparsify_tiled(m: &TiledMatrix) -> CooMatrix {
    let n = m.tile_size() as i64;
    let (rows, cols) = (m.rows(), m.cols());
    let entries: Dataset<((i64, i64), f64)> = m.tiles().flat_map(move |((ii, jj), tile)| {
        let mut out = Vec::with_capacity((n * n) as usize);
        for i in 0..n {
            for j in 0..n {
                let (gi, gj) = (ii * n + i, jj * n + j);
                if gi < rows && gj < cols {
                    out.push(((gi, gj), tile.get(i as usize, j as usize)));
                }
            }
        }
        out
    });
    CooMatrix::new(rows, cols, entries)
}

/// §5 tiled builder: distributed association list → tiled matrix
///
/// ```text
/// rdd[ ((ii,jj), array(N*N)(w)) | ((i,j),v) <- L, let ii = i/N, let jj = j/N,
///                                 let w = ((i%N)*N + (j%N), v),
///                                 group by (ii,jj) ]
/// ```
///
/// The group-by compiles to a `groupByKey` shuffle in the general case — the
/// paper (§5) notes exactly this, and eliminates it when tiling is preserved.
/// Missing elements become zeros.
pub fn build_tiled(
    rows: i64,
    cols: i64,
    tile_size: usize,
    list: &CooMatrix,
    partitions: usize,
) -> TiledMatrix {
    let n = tile_size as i64;
    let tiles = list
        .entries()
        .map(move |((i, j), v)| ((i / n, j / n), ((i % n) * n + j % n, v)))
        .group_by_key(partitions)
        .map_values(move |w| {
            let mut tile = DenseMatrix::zeros(tile_size, tile_size);
            let data = tile.data_mut();
            for (pos, v) in w {
                data[pos as usize] = v;
            }
            tile
        });
    TiledMatrix::new(rows, cols, tile_size, tiles)
}

/// Fig. 1 block-vector sparsifier: block vector → `(index, value)` list.
pub fn sparsify_vector(v: &TiledVector) -> Dataset<(i64, f64)> {
    let n = v.block_size() as i64;
    let len = v.len();
    v.blocks().flat_map(move |(b, block)| {
        block
            .into_iter()
            .enumerate()
            .filter_map(|(off, val)| {
                let i = b * n + off as i64;
                (i < len).then_some((i, val))
            })
            .collect::<Vec<_>>()
    })
}

/// Fig. 1 block-vector builder:
///
/// ```text
/// rdd[ (i/N, vector(N)(w)) | (i,v) <- L, let w = (i%N, v), group by i/N ]
/// ```
pub fn build_vector(
    len: i64,
    block_size: usize,
    list: &Dataset<(i64, f64)>,
    partitions: usize,
) -> TiledVector {
    let n = block_size as i64;
    let blocks = list
        .map(move |(i, v)| (i / n, (i % n, v)))
        .group_by_key(partitions)
        .map_values(move |w| {
            let mut block = vec![0.0; block_size];
            for (off, v) in w {
                block[off as usize] = v;
            }
            block
        });
    TiledVector::new(len, block_size, blocks)
}

/// Round-trip helper: re-tile a matrix through the association list (used by
/// property tests to check `build ∘ sparsify = id`).
pub fn retile(m: &TiledMatrix, partitions: usize) -> TiledMatrix {
    build_tiled(
        m.rows(),
        m.cols(),
        m.tile_size(),
        &sparsify_tiled(m),
        partitions,
    )
}

/// Number of tiles the builder would create for the given dimensions.
pub fn expected_tiles(rows: i64, cols: i64, tile_size: usize) -> i64 {
    div_ceil(rows, tile_size as i64) * div_ceil(cols, tile_size as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sparkline::Context;

    fn ctx() -> Context {
        Context::builder().workers(4).build()
    }

    #[test]
    fn local_sparsify_build_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LocalMatrix::random(6, 5, 0.0, 10.0, &mut rng);
        assert_eq!(build_local(6, 5, &sparsify_local(&m)), m);
    }

    #[test]
    fn build_local_discards_out_of_bounds() {
        let m = build_local(2, 2, &[((0, 0), 1.0), ((5, 5), 9.0), ((-1, 0), 9.0)]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.data().iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn tiled_sparsify_skips_padding() {
        let c = ctx();
        let t = TiledMatrix::from_fn(&c, 5, 5, 4, 2, |_, _| 1.0);
        let coo = sparsify_tiled(&t);
        assert_eq!(coo.nnz(), 25, "only logical elements, no padding");
    }

    #[test]
    fn tiled_roundtrip_via_association_list() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let m = LocalMatrix::random(7, 9, -5.0, 5.0, &mut rng);
        let t = TiledMatrix::from_local(&c, &m, 4, 3);
        let back = retile(&t, 3);
        assert_eq!(back.to_local(), m);
        assert_eq!(
            back.num_tiles() as i64,
            expected_tiles(7, 9, 4),
            "builder must create the full tile grid"
        );
    }

    #[test]
    fn vector_roundtrip() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<f64> = (0..11).map(|_| rng.gen_range(0.0..1.0)).collect();
        let v = TiledVector::from_local(&c, &data, 4, 2);
        let back = build_vector(11, 4, &sparsify_vector(&v), 2);
        assert_eq!(back.to_local(), data);
    }

    #[test]
    fn tiled_builder_group_by_uses_shuffle() {
        let c = ctx();
        let m = LocalMatrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
        let coo = CooMatrix::from_local(&c, &m, 4);
        c.trace();
        let t = build_tiled(8, 8, 4, &coo, 4);
        t.num_tiles();
        assert!(
            c.take_profile().shuffle_stage_count() >= 1,
            "general tile builder requires a groupByKey shuffle (§5)"
        );
        assert_eq!(t.to_local(), m);
    }
}
