//! Coordinate-format (COO) distributed matrices.
//!
//! This is the storage the paper's earlier DIABLO system generated code for
//! (§1.1, §4): an `RDD[((Long, Long), Double)]` where every element carries
//! its indices. The paper argues block arrays beat this format because COO
//! "occupies more space and therefore requires more data shuffling" — the
//! ablation benchmark reproduces that comparison, so this module implements
//! the §4 coordinate-format plans verbatim (join + `reduceByKey` for
//! multiplication).

use crate::local::LocalMatrix;
use sparkline::{Context, Dataset};

/// A distributed sparse matrix in coordinate format: one record per non-zero.
#[derive(Clone)]
pub struct CooMatrix {
    rows: i64,
    cols: i64,
    entries: Dataset<((i64, i64), f64)>,
}

impl CooMatrix {
    /// Wrap an existing entry dataset.
    ///
    /// # Panics
    /// If dimensions are non-positive.
    pub fn new(rows: i64, cols: i64, entries: Dataset<((i64, i64), f64)>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        CooMatrix {
            rows,
            cols,
            entries,
        }
    }

    pub fn rows(&self) -> i64 {
        self.rows
    }

    pub fn cols(&self) -> i64 {
        self.cols
    }

    pub fn entries(&self) -> &Dataset<((i64, i64), f64)> {
        &self.entries
    }

    /// Distribute a local matrix, keeping only non-zero entries.
    pub fn from_local(ctx: &Context, local: &LocalMatrix, partitions: usize) -> Self {
        let entries: Vec<((i64, i64), f64)> = local
            .to_triplets()
            .into_iter()
            .filter(|(_, v)| *v != 0.0)
            .collect();
        CooMatrix::new(
            local.rows as i64,
            local.cols as i64,
            ctx.parallelize(entries, partitions),
        )
    }

    /// Collect and assemble the local matrix.
    pub fn to_local(&self) -> LocalMatrix {
        LocalMatrix::from_triplets(
            self.rows as usize,
            self.cols as usize,
            &self.entries.collect(),
        )
    }

    /// Number of stored entries (an action).
    pub fn nnz(&self) -> usize {
        self.entries.count()
    }

    /// Element-wise addition — §4 plan: union of the entry sets followed by
    /// a `reduceByKey` summing collisions.
    ///
    /// # Panics
    /// On dimension mismatch.
    pub fn add(&self, other: &CooMatrix, partitions: usize) -> CooMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add: dimension mismatch"
        );
        let sum = self
            .entries
            .union(&other.entries)
            .reduce_by_key(partitions, |a, b| a + b);
        CooMatrix::new(self.rows, self.cols, sum)
    }

    /// Matrix multiplication — the §4 coordinate-format plan, verbatim:
    ///
    /// ```text
    /// A.map{ ((i,k),a) => (k,(i,a)) }
    ///  .join( B.map{ ((kk,j),b) => (kk,(j,b)) } )
    ///  .map{ (_,((i,a),(j,b))) => ((i,j), a*b) }
    ///  .reduceByKey(_+_)
    /// ```
    ///
    /// This shuffles both operands for the join and every elementary product
    /// for the reduce — the cost the paper's block arrays avoid.
    ///
    /// # Panics
    /// On inner dimension mismatch.
    pub fn multiply(&self, other: &CooMatrix, partitions: usize) -> CooMatrix {
        assert_eq!(self.cols, other.rows, "multiply: inner dimension mismatch");
        let lhs = self.entries.map(|((i, k), a)| (k, (i, a)));
        let rhs = other.entries.map(|((kk, j), b)| (kk, (j, b)));
        let products = lhs
            .join(&rhs, partitions)
            .map(|(_, ((i, a), (j, b)))| ((i, j), a * b));
        let result = products.reduce_by_key(partitions, |a, b| a + b);
        CooMatrix::new(self.rows, other.cols, result)
    }

    /// Transpose: a narrow map over entries.
    pub fn transpose(&self) -> CooMatrix {
        CooMatrix::new(
            self.cols,
            self.rows,
            self.entries.map(|((i, j), v)| ((j, i), v)),
        )
    }

    /// Scalar multiplication: a narrow map.
    pub fn scale(&self, s: f64) -> CooMatrix {
        CooMatrix::new(
            self.rows,
            self.cols,
            self.entries.map(move |(k, v)| (k, v * s)),
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

    #[test]
    fn roundtrip_drops_zeros() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(5);
        let m = LocalMatrix::sparse_random(10, 8, 0.3, &mut rng);
        let coo = CooMatrix::from_local(&c, &m, 3);
        let dense_count = m.data().iter().filter(|&&x| x != 0.0).count();
        assert_eq!(coo.nnz(), dense_count);
        assert_eq!(coo.to_local(), m);
    }

    #[test]
    fn add_matches_oracle() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(6);
        let a = LocalMatrix::sparse_random(9, 9, 0.4, &mut rng);
        let b = LocalMatrix::sparse_random(9, 9, 0.4, &mut rng);
        let got = CooMatrix::from_local(&c, &a, 3)
            .add(&CooMatrix::from_local(&c, &b, 3), 4)
            .to_local();
        assert!(got.approx_eq(&a.add(&b), 1e-12));
    }

    #[test]
    fn multiply_matches_oracle() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(7);
        let a = LocalMatrix::random(12, 9, -1.0, 1.0, &mut rng);
        let b = LocalMatrix::random(9, 7, -1.0, 1.0, &mut rng);
        let got = CooMatrix::from_local(&c, &a, 4)
            .multiply(&CooMatrix::from_local(&c, &b, 4), 4)
            .to_local();
        assert!(got.approx_eq(&a.multiply(&b), 1e-10));
    }

    #[test]
    fn transpose_and_scale() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(8);
        let a = LocalMatrix::sparse_random(6, 4, 0.5, &mut rng);
        let coo = CooMatrix::from_local(&c, &a, 2);
        assert!(coo.transpose().to_local().approx_eq(&a.transpose(), 1e-12));
        assert!(coo.scale(2.5).to_local().approx_eq(&a.scale(2.5), 1e-12));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn multiply_rejects_mismatched_shapes() {
        let c = ctx();
        let a = CooMatrix::new(2, 3, c.parallelize(vec![], 1));
        let b = CooMatrix::new(2, 3, c.parallelize(vec![], 1));
        let _ = a.multiply(&b, 2);
    }
}
