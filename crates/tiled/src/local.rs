//! Naive local reference matrices — the test oracle.
//!
//! [`LocalMatrix`] intentionally uses the most literal triple-loop / nested
//! index algorithms so the distributed block plans and the optimized tile
//! kernels are checked against an *independent* implementation rather than
//! against themselves.

use crate::tile::DenseMatrix;
use rand::Rng;

/// A driver-side dense matrix with naive algorithms.
#[derive(Clone, Debug, PartialEq)]
pub struct LocalMatrix {
    pub rows: usize,
    pub cols: usize,
    data: Vec<f64>,
}

impl LocalMatrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        LocalMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        LocalMatrix { rows, cols, data }
    }

    /// Uniform random entries in `[lo, hi)` — the paper's dense workloads use
    /// random values in `[0, 10)`.
    pub fn random(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut impl Rng) -> Self {
        LocalMatrix::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
    }

    /// Sparse random matrix: each entry is non-zero with probability
    /// `density`, drawing integer values in `0..=5` — the paper's rating
    /// matrix R for matrix factorization (§6).
    pub fn sparse_random(rows: usize, cols: usize, density: f64, rng: &mut impl Rng) -> Self {
        LocalMatrix::from_fn(rows, cols, |_, _| {
            if rng.gen_bool(density) {
                rng.gen_range(0..=5) as f64
            } else {
                0.0
            }
        })
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Naive i-j-k triple loop multiplication.
    pub fn multiply(&self, other: &LocalMatrix) -> LocalMatrix {
        assert_eq!(self.cols, other.rows, "multiply: dimension mismatch");
        let mut out = LocalMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += self.get(i, k) * other.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    pub fn add(&self, other: &LocalMatrix) -> LocalMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add: dimension mismatch"
        );
        LocalMatrix::from_fn(self.rows, self.cols, |i, j| {
            self.get(i, j) + other.get(i, j)
        })
    }

    pub fn sub(&self, other: &LocalMatrix) -> LocalMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "sub: dimension mismatch"
        );
        LocalMatrix::from_fn(self.rows, self.cols, |i, j| {
            self.get(i, j) - other.get(i, j)
        })
    }

    pub fn scale(&self, s: f64) -> LocalMatrix {
        LocalMatrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j) * s)
    }

    pub fn transpose(&self) -> LocalMatrix {
        LocalMatrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    pub fn map(&self, f: impl Fn(f64) -> f64) -> LocalMatrix {
        LocalMatrix::from_fn(self.rows, self.cols, |i, j| f(self.get(i, j)))
    }

    /// Row sums: the paper's running example `V_i = Σ_j M_ij` (Fig. 1).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self.get(i, j)).sum())
            .collect()
    }

    /// 3x3 neighborhood smoothing with boundary clipping — the paper's
    /// matrix-smoothing comprehension (§3).
    pub fn smooth(&self) -> LocalMatrix {
        let mut sums = LocalMatrix::zeros(self.rows, self.cols);
        let mut counts = LocalMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows as i64 {
            for j in 0..self.cols as i64 {
                for ii in i - 1..=i + 1 {
                    for jj in j - 1..=j + 1 {
                        if ii >= 0 && ii < self.rows as i64 && jj >= 0 && jj < self.cols as i64 {
                            let (iu, ju) = (ii as usize, jj as usize);
                            sums.set(iu, ju, sums.get(iu, ju) + self.get(i as usize, j as usize));
                            counts.set(iu, ju, counts.get(iu, ju) + 1.0);
                        }
                    }
                }
            }
        }
        LocalMatrix::from_fn(self.rows, self.cols, |i, j| {
            sums.get(i, j) / counts.get(i, j)
        })
    }

    /// Association-list (COO) view: `((i, j), value)` for every element,
    /// including explicit zeros — the paper's abstract array representation.
    pub fn to_triplets(&self) -> Vec<((i64, i64), f64)> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.push(((i as i64, j as i64), self.get(i, j)));
            }
        }
        out
    }

    /// Build from an association list; missing entries are zero.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[((i64, i64), f64)]) -> Self {
        let mut m = LocalMatrix::zeros(rows, cols);
        for &((i, j), v) in triplets {
            assert!(
                i >= 0 && (i as usize) < rows && j >= 0 && (j as usize) < cols,
                "triplet ({i},{j}) out of bounds {rows}x{cols}"
            );
            m.set(i as usize, j as usize, v);
        }
        m
    }

    /// Convert to a [`DenseMatrix`] (the optimized representation).
    pub fn to_dense(&self) -> DenseMatrix {
        DenseMatrix::from_vec(self.rows, self.cols, self.data.clone())
    }

    /// Convert from a borrowed [`DenseMatrix`], copying its buffer; the
    /// `From<DenseMatrix>` impl takes one by value without the copy.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        LocalMatrix::from(d.clone())
    }

    pub fn approx_eq(&self, other: &LocalMatrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }

    /// Largest absolute element difference; NaN when any difference is NaN
    /// (`f64::max` would drop it), so a NaN fails every `< tol` check.
    pub fn max_abs_diff(&self, other: &LocalMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, |max, d| if d > max || d.is_nan() { d } else { max })
    }
}

/// Take a [`DenseMatrix`]'s buffer: the allocation itself when the matrix is
/// its sole owner (an assembled result), a copy when the payload is shared.
impl From<DenseMatrix> for LocalMatrix {
    fn from(d: DenseMatrix) -> Self {
        LocalMatrix {
            rows: d.rows(),
            cols: d.cols(),
            data: d.into_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn naive_multiply_known_result() {
        let a = LocalMatrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64 + 1.0); // [[1,2],[3,4]]
        let b = a.clone();
        let c = a.multiply(&b);
        assert_eq!(c.data(), &[7.0, 10.0, 15.0, 22.0]);
    }

    #[test]
    fn naive_matches_optimized_kernel() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = LocalMatrix::random(33, 21, -1.0, 1.0, &mut rng);
        let b = LocalMatrix::random(21, 17, -1.0, 1.0, &mut rng);
        let naive = a.multiply(&b);
        let fast = LocalMatrix::from_dense(&a.to_dense().multiply(&b.to_dense()));
        assert!(naive.approx_eq(&fast, 1e-10));
    }

    #[test]
    fn triplets_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = LocalMatrix::random(5, 4, 0.0, 10.0, &mut rng);
        let back = LocalMatrix::from_triplets(5, 4, &a.to_triplets());
        assert_eq!(a, back);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_triplets_rejects_out_of_bounds() {
        let _ = LocalMatrix::from_triplets(2, 2, &[((2, 0), 1.0)]);
    }

    #[test]
    fn row_sums_match_definition() {
        let m = LocalMatrix::from_fn(3, 4, |i, j| (i + j) as f64);
        assert_eq!(m.row_sums(), vec![6.0, 10.0, 14.0]);
    }

    #[test]
    fn smooth_interior_is_neighborhood_mean() {
        let m = LocalMatrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let s = m.smooth();
        // Interior cell (1,1): mean of all nine values 0..9 = 4.
        assert!((s.get(1, 1) - 4.0).abs() < 1e-12);
        // Corner (0,0): mean of {0,1,3,4} = 2.
        assert!((s.get(0, 0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_random_density_is_plausible() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = LocalMatrix::sparse_random(100, 100, 0.1, &mut rng);
        let nnz = m.data().iter().filter(|&&x| x != 0.0).count();
        assert!(nnz > 500 && nnz < 1500, "nnz = {nnz}");
    }

    #[test]
    fn max_abs_diff_reports_a_nan_difference() {
        let m = LocalMatrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        let mut other = m.clone();
        other.set(0, 1, 3.5);
        assert_eq!(m.max_abs_diff(&other), 2.5);
        for at in [(0, 0), (1, 1)] {
            let mut nan = other.clone();
            nan.set(at.0, at.1, f64::NAN);
            assert!(m.max_abs_diff(&nan).is_nan(), "NaN at {at:?}");
            assert!(nan.max_abs_diff(&m).is_nan(), "NaN at {at:?}");
        }
    }

    #[test]
    fn transpose_and_scale() {
        let m = LocalMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.get(2, 1), m.get(1, 2));
        assert_eq!(m.scale(2.0).get(1, 2), 10.0);
    }
}
