//! Compressed-sparse-column tiles — the §8 "future work" storage extension.
//!
//! The paper's conclusion proposes tiled arrays "where each tile is stored in
//! the compressed sparse column format". [`CscTile`] is that storage, with
//! the two kernels block plans need: CSC x dense GEMM and pairwise addition.
//! The extension example and the ablation bench use it to show the layered
//! sparsifier/builder design is storage-agnostic.

use crate::kernel;
use crate::kernel::Backend;
use crate::tile::DenseMatrix;
use sparkline::SpillCodec;

/// A sparse matrix tile in compressed-sparse-column format.
#[derive(Clone, Debug, PartialEq)]
pub struct CscTile {
    rows: usize,
    cols: usize,
    /// `col_ptr[j]..col_ptr[j+1]` indexes the entries of column `j`.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SpillCodec for CscTile {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rows.encode(out);
        self.cols.encode(out);
        self.col_ptr.encode(out);
        self.row_idx.encode(out);
        self.values.encode(out);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let rows = usize::decode(buf, pos)?;
        let cols = usize::decode(buf, pos)?;
        let col_ptr = Vec::<usize>::decode(buf, pos)?;
        let row_idx = Vec::<usize>::decode(buf, pos)?;
        let values = Vec::<f64>::decode(buf, pos)?;
        if col_ptr.len() != cols + 1
            || row_idx.len() != values.len()
            || col_ptr.last() != Some(&values.len())
        {
            return None;
        }
        Some(CscTile {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        })
    }

    fn encoded_len(&self) -> usize {
        Self::encoded_len_of(self.cols, self.values.len())
    }
}

impl CscTile {
    /// Encoded length of any tile with `cols` columns and `nnz` stored
    /// entries — two `usize` dimensions and the three length-prefixed arrays
    /// (`cols + 1` column pointers, `nnz` row indices, `nnz` values).
    pub const fn encoded_len_of(cols: usize, nnz: usize) -> usize {
        8 + 8 + (8 + 8 * (cols + 1)) + (8 + 8 * nnz) + (8 + 8 * nnz)
    }

    /// Compress a dense tile, dropping zeros.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        let (rows, cols) = (d.rows(), d.cols());
        let mut col_ptr = Vec::with_capacity(cols + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for j in 0..cols {
            for i in 0..rows {
                let v = d.get(i, j);
                if v != 0.0 {
                    row_idx.push(i);
                    values.push(v);
                }
            }
            col_ptr.push(values.len());
        }
        CscTile {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Assemble from raw CSC arrays. Crate-internal: the fused sparsifier
    /// builds pruned tiles directly without a dense intermediate.
    pub(crate) fn from_raw(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(col_ptr.len(), cols + 1);
        debug_assert_eq!(row_idx.len(), values.len());
        debug_assert_eq!(col_ptr.last().copied(), Some(values.len()));
        CscTile {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Apply a single-slot fused program over the stored non-zeros only —
    /// one pass, no densify. Requires [`crate::FusedProgram::preserves_zero`]
    /// (structural zeros must map to bit-exact `+0.0`) and a program reading
    /// at most slot 0; computed zeros are dropped so the result stays
    /// canonical (no explicit zeros). Bit-identical to densify → fused dense
    /// pass → re-compress, because every surviving element runs the same
    /// postfix chain and CSC order is preserved.
    ///
    /// # Panics
    /// If the program reads more than one slot or does not preserve zero.
    pub fn map_fused(&self, prog: &crate::fused::FusedProgram, backend: Backend) -> CscTile {
        assert!(
            prog.n_slots() <= 1,
            "CscTile::map_fused: program reads {} slots, sparse tiles carry one",
            prog.n_slots()
        );
        assert!(
            prog.preserves_zero(),
            "CscTile::map_fused: program does not map 0.0 to +0.0"
        );
        let mapped = crate::fused::fused_eltwise(prog, &[&self.values], self.values.len(), backend);
        let mut col_ptr = Vec::with_capacity(self.cols + 1);
        let mut row_idx = Vec::with_capacity(self.row_idx.len());
        let mut values = Vec::with_capacity(mapped.len());
        col_ptr.push(0);
        for j in 0..self.cols {
            let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
            for (&r, &v) in self.row_idx[lo..hi].iter().zip(&mapped[lo..hi]) {
                if v != 0.0 {
                    row_idx.push(r);
                    values.push(v);
                }
            }
            col_ptr.push(values.len());
        }
        CscTile {
            rows: self.rows,
            cols: self.cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Decompress into a dense tile.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = vec![0.0; self.rows * self.cols];
        for j in 0..self.cols {
            for e in self.col_ptr[j]..self.col_ptr[j + 1] {
                out[self.row_idx[e] * self.cols + j] = self.values[e];
            }
        }
        DenseMatrix::from_vec(self.rows, self.cols, out)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `out += self * dense` — the CSC × dense-panel kernel. The dense
    /// operand is processed in cache-sized column panels; within each panel
    /// every stored entry `(i, k, v)` issues one SIMD-dispatched
    /// [`kernel::axpy`] of `v · B[k, panel]` into `C[i, panel]`, so B's
    /// active panel rows stay hot while the non-zeros stream. Contributions
    /// to each output element arrive in ascending-k (CSC column) order with
    /// one fused multiply-add per non-zero — bit-identical to the dense
    /// ascending-k chain for finite inputs, since the skipped structural
    /// zeros contribute exact no-op additions there.
    ///
    /// # Panics
    /// On dimension mismatch.
    pub fn spmm_acc(&self, dense: &DenseMatrix, out: &mut DenseMatrix) {
        self.spmm_acc_with(dense, out, kernel::Backend::active());
    }

    /// [`CscTile::spmm_acc`] with an explicit kernel backend — the entry the
    /// dispatch-pinning tests drive directly.
    pub fn spmm_acc_with(
        &self,
        dense: &DenseMatrix,
        out: &mut DenseMatrix,
        backend: kernel::Backend,
    ) {
        assert_eq!(self.cols, dense.rows(), "spmm: inner dimension mismatch");
        assert_eq!(
            (out.rows(), out.cols()),
            (self.rows, dense.cols()),
            "spmm: output dimension mismatch"
        );
        let m = dense.cols();
        // Column-panel width: B panel rows and the touched C segments stay
        // cache-resident even when entries scatter across many C rows.
        const PANEL: usize = 512;
        // One uniqueness check for the whole call, not one per stored entry.
        let c = out.data_mut();
        for c0 in (0..m).step_by(PANEL) {
            let width = PANEL.min(m - c0);
            for j in 0..self.cols {
                let brow = &dense.row(j)[c0..c0 + width];
                for e in self.col_ptr[j]..self.col_ptr[j + 1] {
                    let i = self.row_idx[e];
                    let v = self.values[e];
                    let crow = &mut c[i * m + c0..i * m + c0 + width];
                    kernel::axpy(v, brow, crow, backend);
                }
            }
        }
    }

    /// Pairwise addition (dense result; sparsity rarely survives addition).
    pub fn add(&self, other: &CscTile) -> CscTile {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add: dimension mismatch"
        );
        let mut dense = self.to_dense();
        dense.add_in_place(&other.to_dense());
        CscTile::from_dense(&dense)
    }

    /// Fraction of entries stored, `nnz / (rows * cols)`.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.rows * self.cols) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sparse_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        use crate::local::LocalMatrix;
        let mut rng = StdRng::seed_from_u64(seed);
        LocalMatrix::sparse_random(rows, cols, 0.2, &mut rng).to_dense()
    }

    #[test]
    fn dense_roundtrip() {
        let d = sparse_dense(9, 7, 1);
        let csc = CscTile::from_dense(&d);
        assert_eq!(csc.to_dense(), d);
        assert_eq!(csc.nnz(), d.data().iter().filter(|&&x| x != 0.0).count());
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        let a = sparse_dense(8, 6, 2);
        let b = DenseMatrix::from_fn(6, 5, |i, j| (i + j) as f64 * 0.5);
        let mut got = DenseMatrix::zeros(8, 5);
        CscTile::from_dense(&a).spmm_acc(&b, &mut got);
        assert!(got.approx_eq(&a.multiply(&b), 1e-12));
    }

    #[test]
    fn spmm_accumulates_into_output() {
        let a = DenseMatrix::identity(3);
        let b = DenseMatrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let mut out = b.clone();
        CscTile::from_dense(&a).spmm_acc(&b, &mut out);
        assert!(out.approx_eq(&b.map(|x| 2.0 * x), 1e-12));
    }

    #[test]
    fn add_matches_dense() {
        let a = sparse_dense(6, 6, 3);
        let b = sparse_dense(6, 6, 4);
        let got = CscTile::from_dense(&a).add(&CscTile::from_dense(&b));
        let mut want = a.clone();
        want.add_in_place(&b);
        assert_eq!(got.to_dense(), want);
    }

    #[test]
    fn encoded_smaller_than_dense_when_sparse() {
        let d = sparse_dense(32, 32, 5);
        let csc = CscTile::from_dense(&d);
        assert!(csc.encoded_len() < d.encoded_len());
        assert!(csc.density() < 0.3);
    }

    #[test]
    fn empty_tile() {
        let z = DenseMatrix::zeros(4, 4);
        let csc = CscTile::from_dense(&z);
        assert_eq!(csc.nnz(), 0);
        assert_eq!(csc.to_dense(), z);
    }

    #[test]
    fn spill_codec_roundtrip() {
        let csc = CscTile::from_dense(&sparse_dense(9, 7, 6));
        let mut buf = Vec::new();
        csc.encode(&mut buf);
        let mut pos = 0;
        assert_eq!(csc.encoded_len(), buf.len());
        assert_eq!(CscTile::decode(&buf, &mut pos), Some(csc));
        assert_eq!(pos, buf.len());
        let mut pos = 0;
        assert_eq!(CscTile::decode(&buf[..buf.len() - 2], &mut pos), None);
    }
}
