//! Key partitioners for shuffles.
//!
//! A [`KeyPartitioner`] maps keys to reduce partitions. Two datasets whose
//! partitioners have equal descriptors and partition counts are
//! *co-partitioned*: joins and cogroups between them are narrow (no shuffle),
//! exactly as in Spark. The descriptor string is how partitioner identity is
//! compared, since closures cannot be.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// A partitioner over keys of type `K`.
pub struct KeyPartitioner<K: ?Sized> {
    partitions: usize,
    descriptor: String,
    func: Arc<dyn Fn(&K) -> usize + Send + Sync>,
}

impl<K: ?Sized> Clone for KeyPartitioner<K> {
    fn clone(&self) -> Self {
        KeyPartitioner {
            partitions: self.partitions,
            descriptor: self.descriptor.clone(),
            func: self.func.clone(),
        }
    }
}

impl<K: ?Sized> std::fmt::Debug for KeyPartitioner<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KeyPartitioner({})", self.descriptor)
    }
}

impl<K: ?Sized> KeyPartitioner<K> {
    /// Build a partitioner from an arbitrary function. The `descriptor` must
    /// uniquely identify the partitioning scheme: equal descriptors (and
    /// partition counts) are treated as co-partitioned.
    pub fn new(
        partitions: usize,
        descriptor: impl Into<String>,
        func: impl Fn(&K) -> usize + Send + Sync + 'static,
    ) -> Self {
        let partitions = partitions.max(1);
        KeyPartitioner {
            partitions,
            descriptor: descriptor.into(),
            func: Arc::new(func),
        }
    }

    /// Number of reduce partitions.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Identity descriptor used for co-partitioning checks.
    pub fn descriptor(&self) -> &str {
        &self.descriptor
    }

    /// The reduce partition for `key`. Always in `0..partitions()`.
    pub fn partition(&self, key: &K) -> usize {
        (self.func)(key) % self.partitions
    }

    /// Co-partitioning check: same scheme and same partition count.
    pub fn same_as(&self, other: &KeyPartitioner<K>) -> bool {
        self.partitions == other.partitions && self.descriptor == other.descriptor
    }
}

fn hash_one<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

impl<K: Hash + ?Sized> KeyPartitioner<K> {
    /// Spark's default `HashPartitioner`.
    pub fn hash(partitions: usize) -> Self {
        let partitions = partitions.max(1);
        KeyPartitioner::new(partitions, format!("hash({partitions})"), move |k: &K| {
            hash_one(k) as usize
        })
    }
}

/// The `pr x pc` sub-grid of reduce cells MLlib's `GridPartitioner` lays over
/// a `block_rows x block_cols` block grid: cell `(bi, bj)` owns a contiguous
/// band of block rows and a contiguous band of block columns, and is reduce
/// partition `bi + bj * pr`. [`KeyPartitioner::grid`] is this mapping, and a
/// plan that routes blocks to reducers (the §5.4 group-by-join, which sends
/// each operand block to its row or column band and reads the bands of a
/// cell with [`crate::Dataset::cross_bands`]) and the cost model that prices
/// it read the bands from here, so the three cannot drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridCells {
    block_rows: usize,
    block_cols: usize,
    pr: usize,
    pc: usize,
}

impl GridCells {
    /// Split at most `partitions` cells over the block grid: `pr <=
    /// block_rows`, `pc <= block_cols`, `pr * pc` as large as fits, the most
    /// square of the largest (and of two equally square, the one with fewer
    /// row groups). Clamping to the block grid is what keeps every cell
    /// non-empty: an unclamped `2 x 4` over a `16 x 1` grid would leave six
    /// of eight partitions without a block.
    pub fn new(block_rows: usize, block_cols: usize, partitions: usize) -> Self {
        let (block_rows, block_cols) = (block_rows.max(1), block_cols.max(1));
        let partitions = partitions.max(1);
        let (mut pr, mut pc) = (1, 1);
        for rows in 1..=block_rows.min(partitions) {
            let cols = (partitions / rows).min(block_cols);
            let better = (rows * cols).cmp(&(pr * pc)).then_with(|| {
                // Fewer cells apart is more square.
                (pr.abs_diff(pc)).cmp(&rows.abs_diff(cols))
            });
            if better.is_gt() {
                (pr, pc) = (rows, cols);
            }
        }
        GridCells {
            block_rows,
            block_cols,
            pr,
            pc,
        }
    }

    /// `(pr, pc)`: cells per column and per row of the sub-grid.
    pub fn shape(&self) -> (usize, usize) {
        (self.pr, self.pc)
    }

    /// Number of cells, which is the partition count of the partitioner.
    pub fn cells(&self) -> usize {
        self.pr * self.pc
    }

    /// The cell (reduce partition) owning block `(i, j)`: the crossing of
    /// the block row's row band and the block column's column band.
    pub fn cell_of(&self, (i, j): (i64, i64)) -> usize {
        self.row_band(i) + self.col_band(j) * self.pr
    }

    /// The row band of block row `i`. Proportional split: band `bi` covers
    /// rows `[bi*block_rows/pr, (bi+1)*block_rows/pr)` rounded up —
    /// contiguous, none empty, near-even occupancy when the grid does not
    /// divide evenly. Coordinates outside the grid clamp to its edge.
    fn row_band(&self, i: i64) -> usize {
        (i.max(0) as usize).min(self.block_rows - 1) * self.pr / self.block_rows
    }

    /// The column band of block column `j`, split as the rows are.
    fn col_band(&self, j: i64) -> usize {
        (j.max(0) as usize).min(self.block_cols - 1) * self.pc / self.block_cols
    }

    /// The row band and the column band cell `cell` crosses:
    /// `(cell % pr, cell / pr)`.
    pub(crate) fn bands_of(&self, cell: usize) -> (usize, usize) {
        (cell % self.pr, cell / self.pr)
    }

    /// The block rows and block columns cell `cell` owns.
    pub fn bands(&self, cell: usize) -> (Range<i64>, Range<i64>) {
        let band = |group: usize, groups: usize, blocks: usize| {
            let edge = |g: usize| (g * blocks).div_ceil(groups) as i64;
            edge(group)..edge(group + 1)
        };
        let (row_band, col_band) = self.bands_of(cell);
        (
            band(row_band, self.pr, self.block_rows),
            band(col_band, self.pc, self.block_cols),
        )
    }

    /// The descriptor of [`GridCells::partitioner_by`]'s partitioners, and
    /// of a dataset [`crate::Dataset::cross_bands`] lays over these cells.
    pub(crate) fn descriptor(&self) -> String {
        format!(
            "grid({}x{},{}x{})",
            self.block_rows, self.block_cols, self.pr, self.pc
        )
    }

    /// The partitioner sending a key to the row band — one of `pr`
    /// partitions — of the block row `row` reads off it.
    pub fn row_bands_by<K: ?Sized>(
        self,
        row: impl Fn(&K) -> i64 + Send + Sync + 'static,
    ) -> KeyPartitioner<K> {
        let desc = format!("rows of {}", self.descriptor());
        KeyPartitioner::new(self.pr, desc, move |k: &K| self.row_band(row(k)))
    }

    /// The partitioner sending a key to the column band — one of `pc`
    /// partitions — of the block column `col` reads off it.
    pub fn col_bands_by<K: ?Sized>(
        self,
        col: impl Fn(&K) -> i64 + Send + Sync + 'static,
    ) -> KeyPartitioner<K> {
        let desc = format!("columns of {}", self.descriptor());
        KeyPartitioner::new(self.pc, desc, move |k: &K| self.col_band(col(k)))
    }

    /// The partitioner sending a key to the cell of the block coordinate
    /// `coord` reads off it. Equal grids give equal descriptors whatever the
    /// key type, so datasets keyed differently over one grid co-partition.
    pub fn partitioner_by<K: ?Sized>(
        self,
        coord: impl Fn(&K) -> (i64, i64) + Send + Sync + 'static,
    ) -> KeyPartitioner<K> {
        let desc = self.descriptor();
        KeyPartitioner::new(self.cells(), desc, move |k: &K| self.cell_of(coord(k)))
    }
}

impl KeyPartitioner<(i64, i64)> {
    /// MLlib's `GridPartitioner` over block coordinates `(row, col)` of a
    /// `rows x cols` block grid: contiguous rectangles of blocks map to the
    /// same partition, which keeps a block row/column on few partitions. It
    /// has [`GridCells::cells`] partitions — at most `partitions`, fewer when
    /// the block grid cannot be cut that many ways.
    pub fn grid(block_rows: usize, block_cols: usize, partitions: usize) -> Self {
        GridCells::new(block_rows, block_cols, partitions).partitioner_by(|&coord| coord)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_in_range_and_deterministic() {
        let p = KeyPartitioner::<i64>::hash(7);
        for k in -100i64..100 {
            let a = p.partition(&k);
            assert!(a < 7);
            assert_eq!(a, p.partition(&k));
        }
    }

    #[test]
    fn same_descriptor_means_co_partitioned() {
        let a = KeyPartitioner::<i64>::hash(4);
        let b = KeyPartitioner::<i64>::hash(4);
        let c = KeyPartitioner::<i64>::hash(8);
        assert!(a.same_as(&b));
        assert!(!a.same_as(&c));
    }

    #[test]
    fn grid_partitioner_covers_range() {
        let p = KeyPartitioner::grid(10, 10, 6);
        let mut seen = std::collections::HashSet::new();
        for i in 0..10i64 {
            for j in 0..10i64 {
                let part = p.partition(&(i, j));
                assert!(part < 6);
                seen.insert(part);
            }
        }
        assert!(
            seen.len() > 1,
            "grid should spread blocks across partitions"
        );
    }

    #[test]
    fn grid_partitioner_keeps_neighbors_close() {
        let p = KeyPartitioner::grid(8, 8, 4);
        // Blocks in the same sub-rectangle share a partition.
        assert_eq!(p.partition(&(0, 0)), p.partition(&(1, 1)));
    }

    #[test]
    fn grid_partitioner_balances_non_square_counts() {
        // Regression: the old `ceil(sqrt(partitions))`-per-side mapping
        // produced indices in 0..9 for 6 partitions, and the fold-back modulo
        // tripled the load on partitions 0..2 (24 blocks vs 8). The divisor
        // factorization must keep max/min occupancy within 2x.
        for &(rows, cols, parts) in &[
            (10usize, 10usize, 6usize),
            (12, 12, 6),
            (9, 9, 5),
            (16, 4, 6),
            (10, 10, 7),
        ] {
            let p = KeyPartitioner::grid(rows, cols, parts);
            let mut counts = vec![0usize; parts];
            for i in 0..rows as i64 {
                for j in 0..cols as i64 {
                    counts[p.partition(&(i, j))] += 1;
                }
            }
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            assert!(
                min > 0,
                "grid({rows}x{cols},{parts}): empty partition in {counts:?}"
            );
            assert!(
                max <= 2 * min,
                "grid({rows}x{cols},{parts}): occupancy skew {counts:?}"
            );
        }
    }

    #[test]
    fn grid_sub_grid_is_clamped_to_the_block_grid() {
        // Regression: `grid(16, 1, 8)` factored 8 as 2 x 4 whatever the block
        // grid's shape and sent every block of a one-column grid to column
        // group 0 — two of eight partitions held all sixteen blocks.
        for &(rows, cols, parts, shape) in &[
            (16usize, 1usize, 8usize, (8usize, 1usize)),
            (1, 16, 8, (1, 8)),
            (3, 3, 8, (2, 3)),
            (16, 16, 8, (2, 4)),
            (2, 2, 9, (2, 2)),
        ] {
            let cells = GridCells::new(rows, cols, parts);
            assert_eq!(cells.shape(), shape, "grid({rows}x{cols},{parts})");
            let p = KeyPartitioner::grid(rows, cols, parts);
            assert_eq!(p.partitions(), cells.cells());
            let mut counts = vec![0usize; p.partitions()];
            for i in 0..rows as i64 {
                for j in 0..cols as i64 {
                    let cell = p.partition(&(i, j));
                    let (band_rows, band_cols) = cells.bands(cell);
                    assert!(band_rows.contains(&i) && band_cols.contains(&j));
                    counts[cell] += 1;
                }
            }
            assert!(
                counts.iter().all(|&n| n > 0),
                "grid({rows}x{cols},{parts}): empty partition in {counts:?}"
            );
        }
    }

    #[test]
    fn band_partitioners_cut_the_grid_along_its_cells() {
        // A cell is the crossing of its row band and its column band: every
        // block lands in the row band and the column band of its cell.
        for &(rows, cols, parts) in &[(16usize, 16usize, 8usize), (3, 3, 8), (7, 5, 6), (1, 9, 4)] {
            let cells = GridCells::new(rows, cols, parts);
            let (pr, pc) = cells.shape();
            let by_row = cells.row_bands_by(|&(i, _): &(i64, i64)| i);
            let by_col = cells.col_bands_by(|&(_, j): &(i64, i64)| j);
            assert_eq!((by_row.partitions(), by_col.partitions()), (pr, pc));
            assert!(!by_row.same_as(&KeyPartitioner::grid(rows, cols, parts)));
            for i in 0..rows as i64 {
                for j in 0..cols as i64 {
                    let cell = cells.cell_of((i, j));
                    let bands = (by_row.partition(&(i, j)), by_col.partition(&(i, j)));
                    assert_eq!(cells.bands_of(cell), bands, "grid({rows}x{cols},{parts})");
                }
            }
        }
    }

    #[test]
    fn zero_partitions_clamped_to_one() {
        let p = KeyPartitioner::<i64>::hash(0);
        assert_eq!(p.partitions(), 1);
        assert_eq!(p.partition(&42), 0);
    }

    #[test]
    fn custom_partitioner() {
        let p = KeyPartitioner::new(3, "mod3", |k: &i64| *k as usize);
        assert_eq!(p.partition(&4), 1);
        assert_eq!(p.descriptor(), "mod3");
    }
}
