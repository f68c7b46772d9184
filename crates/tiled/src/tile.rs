//! Dense row-major matrices: the tile type and its compute kernels.
//!
//! The paper's generated tile code (Fig. 1, §5.1, §5.3) is a pair of loops
//! over a flat `Array[Double]`, with the outer loop parallelized via Scala's
//! parallel collections. [`DenseMatrix`] is that flat array plus the kernels
//! the generated programs need: accumulate-GEMM, pairwise add, transpose, and
//! element-wise maps. Every GEMM entry runs on packed operands
//! ([`DenseMatrix::pack_left`], [`DenseMatrix::pack_right`]) through the
//! register-blocked microkernels in [`crate::kernel`], one thread each; the
//! cluster layer's executor threads run tiles' tasks in parallel, and
//! [`crate::kernel::gemm`] splits one product's rows over threads. The
//! naive triple loop survives as [`DenseMatrix::gemm_acc_naive`], the
//! independent oracle the property tests and the kernel perf gate pin the
//! packed path against (bit-for-bit — see the determinism contract in
//! [`crate::kernel`]).
//!
//! **Ownership.** A tile's payload is an immutable shared buffer,
//! copy-on-write: `clone()` is a refcount bump, so everything the cluster
//! layer does with a tile — join/cogroup replication, the §5.2 remap's
//! `flat_map`, the §5.4 bands, `cache()`/`persist`, broadcast tables, the in-process
//! map-output store, `collect()` — moves a pointer, and bytes are produced
//! only when a frame is encoded at a process boundary. Every `&mut self`
//! method takes a unique buffer first ([`DenseMatrix::data_mut`]): free for
//! the sole owner, one payload copy for a shared tile. That check is an
//! atomic read-modify-write, so it is paid **once per kernel call, never per
//! element**: a loop that writes many elements hoists one `data_mut()` and
//! indexes the slice; [`DenseMatrix::set`] is for one-off writes.
//!
//! A payload's life cycle is owned here too: tile memory is recycled, not
//! re-faulted. A payload of tile-sized length — 1 Ki to 256 Ki elements, a
//! 32² to a 512² tile — comes from one process-wide free list, keyed by
//! exact length, and goes back to it when the last [`DenseMatrix`] holding
//! it drops. A payload another matrix still shares is never returned; it
//! returns when its last holder drops. Every tile-sized buffer of this crate
//! and of the planner's tasks is drawn from the list: [`DenseMatrix::zeros`]
//! (contraction accumulators, completed grids, index-remap landing tiles),
//! [`DenseMatrix::from_fn`], `transpose`, `sub`, `map`, `decode`,
//! [`crate::TiledMatrix::from_local`]'s tiles, the fused executor's output
//! ([`crate::kernel::fused_eltwise`]), the GEMM's packed panels, and the
//! copy [`DenseMatrix::data_mut`] makes of a shared payload. Only
//! [`DenseMatrix::from_vec`] adopts a buffer from outside.
//!
//! A recycled buffer still holds its last owner's values. It goes only to a
//! writer that overwrites every element (a decode, a copy, an element map,
//! the fused executor, a panel pack); every other caller gets it filled with
//! `+0.0`, so no stale value can reach a result. The list holds at most
//! 256 MiB; a payload returned past that is freed. There is one list, not
//! one per executor: a query's output tiles die on the driver thread that
//! collected them, while the next query's tiles are born on executor
//! threads, so a per-executor list would never get its own buffers back.

use crate::kernel::{self, Backend, PackedLeft, PackedRight};
use sparkline::SpillCodec;
use std::sync::Arc;

/// The free list behind every tile payload (see the module docs).
pub(crate) mod pool {
    use std::collections::BTreeMap;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Payload lengths, in elements, the list keeps: a 32² to a 512² tile.
    pub(super) const TILE_LENS: std::ops::RangeInclusive<usize> = (1 << 10)..=(1 << 18);
    /// Bytes the list may hold; a buffer returned past them is freed.
    pub(super) const CAP_BYTES: usize = 256 << 20;

    /// Idle buffers by exact length, and the bytes they hold.
    pub(super) struct FreeList {
        by_len: BTreeMap<usize, Vec<Vec<f64>>>,
        bytes: usize,
    }

    impl FreeList {
        pub(super) const fn new() -> FreeList {
            FreeList {
                by_len: BTreeMap::new(),
                bytes: 0,
            }
        }

        fn take(&mut self, len: usize) -> Option<Vec<f64>> {
            let buf = self.by_len.get_mut(&len)?.pop()?;
            self.bytes -= bytes_of(&buf);
            Some(buf)
        }

        /// Keep `buf` if it fits under `cap`; hand it back otherwise, so the
        /// caller frees it outside the lock.
        pub(super) fn put(&mut self, buf: Vec<f64>, cap: usize) -> Option<Vec<f64>> {
            let bytes = bytes_of(&buf);
            if self.bytes + bytes > cap {
                return Some(buf);
            }
            self.bytes += bytes;
            self.by_len.entry(buf.len()).or_default().push(buf);
            None
        }

        #[cfg(test)]
        pub(super) fn bytes(&self) -> usize {
            self.bytes
        }

        /// Idle buffers of exactly `len` elements.
        #[cfg(test)]
        pub(super) fn held(&self, len: usize) -> usize {
            self.by_len.get(&len).map_or(0, Vec::len)
        }

        /// Empty the list.
        #[cfg(test)]
        pub(super) fn clear(&mut self) {
            *self = FreeList::new();
        }
    }

    fn bytes_of(buf: &Vec<f64>) -> usize {
        buf.capacity() * std::mem::size_of::<f64>()
    }

    static FREE: Mutex<FreeList> = Mutex::new(FreeList::new());

    /// The list, locked. A poisoned lock is recovered: no update can leave
    /// the list half-done (a panic in `take` or `put` is an allocation
    /// failure, which aborts), and `Drop for DenseMatrix` must not panic.
    pub(super) fn list() -> MutexGuard<'static, FreeList> {
        FREE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn reuse(len: usize) -> Option<Vec<f64>> {
        TILE_LENS.contains(&len).then(|| list().take(len)).flatten()
    }

    /// `len` elements with unspecified contents — a recycled buffer keeps
    /// its last owner's values. Only for a writer that overwrites every
    /// element.
    pub(crate) fn stale(len: usize) -> Vec<f64> {
        reuse(len).unwrap_or_else(|| vec![0.0; len])
    }

    /// `len` elements of `+0.0`.
    pub(crate) fn zeroed(len: usize) -> Vec<f64> {
        match reuse(len) {
            Some(mut buf) => {
                buf.fill(0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Give `buf` to the list: kept if it is tile-sized and fits under the
    /// cap, freed otherwise.
    pub(crate) fn recycle(buf: Vec<f64>) {
        if TILE_LENS.contains(&buf.len()) {
            let refused = list().put(buf, CAP_BYTES);
            drop(refused);
        }
    }
}

/// A dense `rows x cols` matrix of `f64` stored row-major in one flat,
/// shared, copy-on-write buffer (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    /// `Arc<Vec<_>>`, not `Arc<[_]>`: adopting an owned `Vec` (a recycled
    /// buffer, `from_vec`, kernel outputs) must not copy the payload, and a
    /// sole owner hands the `Vec` back to the free list when it drops.
    data: Arc<Vec<f64>>,
}

impl SpillCodec for DenseMatrix {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rows.encode(out);
        self.cols.encode(out);
        self.data.encode(out);
    }

    /// Straight into a recycled payload: the dimensions, the payload's
    /// length prefix and the bytes behind it are checked before a buffer is
    /// taken.
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let rows = usize::decode(buf, pos)?;
        let cols = usize::decode(buf, pos)?;
        let len = usize::decode(buf, pos)?;
        if len != rows.checked_mul(cols)? {
            return None;
        }
        let end = len.checked_mul(8)?.checked_add(*pos)?;
        let bytes = buf.get(*pos..end)?;
        *pos = end;
        Some(DenseMatrix::filled(rows, cols, |out| {
            for (x, le) in out.iter_mut().zip(bytes.chunks_exact(8)) {
                let mut word = [0; 8];
                word.copy_from_slice(le);
                *x = f64::from_le_bytes(word);
            }
        }))
    }

    fn encoded_len(&self) -> usize {
        Self::encoded_len_of(self.rows, self.cols)
    }
}

impl DenseMatrix {
    /// Encoded length of any `rows x cols` tile — two `usize` dimensions and
    /// the length-prefixed `f64` payload — as a closed form, so cost models
    /// can size tiles they have not built.
    pub const fn encoded_len_of(rows: usize, cols: usize) -> usize {
        8 + 8 + 8 + 8 * rows * cols
    }

    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix::from_vec(rows, cols, pool::zeroed(rows * cols))
    }

    /// A `rows x cols` matrix whose payload `fill` writes. The payload may
    /// be a recycled buffer holding its last owner's values, so `fill` must
    /// overwrite every element.
    fn filled(rows: usize, cols: usize, fill: impl FnOnce(&mut [f64])) -> Self {
        let mut data = pool::stale(rows * cols);
        fill(&mut data);
        DenseMatrix::from_vec(rows, cols, data)
    }

    /// Build from a function of the (row, col) index, called in row-major
    /// order.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        DenseMatrix::filled(rows, cols, |out| {
            for (i, row) in out.chunks_exact_mut(cols.max(1)).enumerate() {
                for (j, x) in row.iter_mut().enumerate() {
                    *x = f(i, j);
                }
            }
        })
    }

    /// Wrap an existing row-major buffer; the buffer is adopted, not copied.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match dimensions");
        DenseMatrix {
            rows,
            cols,
            data: Arc::new(data),
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        DenseMatrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The flat row-major buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The flat buffer, made unique first: a shared payload is copied once
    /// here, a sole owner pays one atomic check. Hoist the call out of any
    /// element loop.
    pub fn data_mut(&mut self) -> &mut [f64] {
        if Arc::get_mut(&mut self.data).is_none() {
            let mut copy = pool::stale(self.data.len());
            copy.copy_from_slice(&self.data);
            self.data = Arc::new(copy);
        }
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// The flat buffer by value: the allocation itself when this tile is its
    /// sole owner, a copy otherwise. Either way it leaves the free list.
    pub(crate) fn into_vec(mut self) -> Vec<f64> {
        match Arc::get_mut(&mut self.data) {
            Some(data) => std::mem::take(data),
            None => self.data.to_vec(),
        }
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// One-off element write; loops index a hoisted [`DenseMatrix::data_mut`].
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        let at = i * self.cols + j;
        self.data_mut()[at] = v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// `self += other`, element-wise.
    ///
    /// # Panics
    /// On dimension mismatch.
    pub fn add_in_place(&mut self, other: &DenseMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add: dimension mismatch"
        );
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// `self - other` as a new matrix.
    pub fn sub(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "sub: dimension mismatch"
        );
        DenseMatrix::filled(self.rows, self.cols, |out| {
            for (x, (a, b)) in out.iter_mut().zip(self.data.iter().zip(other.data())) {
                *x = a - b;
            }
        })
    }

    /// `self * scalar`, in place.
    pub fn scale_in_place(&mut self, scalar: f64) {
        for a in self.data_mut() {
            *a *= scalar;
        }
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> DenseMatrix {
        DenseMatrix::filled(self.rows, self.cols, |out| {
            for (x, &a) in out.iter_mut().zip(self.data.iter()) {
                *x = f(a);
            }
        })
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        DenseMatrix::filled(self.cols, self.rows, |out| {
            for i in 0..self.rows {
                for (j, &v) in self.row(i).iter().enumerate() {
                    out[j * self.rows + i] = v;
                }
            }
        })
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Approximate element-wise equality within `tol`.
    pub fn approx_eq(&self, other: &DenseMatrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data())
                .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }

    /// `self += a * b` — the accumulate-GEMM kernel at the heart of the
    /// paper's generated matmul code (§3, §5.3): both operands packed once
    /// and multiplied by [`DenseMatrix::gemm_acc_packed`].
    ///
    /// # Panics
    /// On dimension mismatch.
    pub fn gemm_acc(&mut self, a: &DenseMatrix, b: &DenseMatrix) {
        self.gemm_acc_packed(&a.pack_left(false), &b.pack_right(false));
    }

    /// `(rows, cols)` of this matrix, or of its transpose iff `transposed`.
    fn oriented(&self, transposed: bool) -> (usize, usize) {
        if transposed {
            (self.cols, self.rows)
        } else {
            (self.rows, self.cols)
        }
    }

    /// This tile as the left operand of many products, packed once: read
    /// transposed where it lies iff `transposed`.
    pub fn pack_left(&self, transposed: bool) -> PackedLeft {
        let dims = self.oriented(transposed);
        PackedLeft::new((&self.data, transposed), dims, Backend::active())
    }

    /// This tile as the right operand of many products, packed once: read
    /// transposed where it lies iff `transposed`.
    pub fn pack_right(&self, transposed: bool) -> PackedRight {
        let dims = self.oriented(transposed);
        PackedRight::new((&self.data, transposed), dims, Backend::active())
    }

    /// `self += op(a) * op(b)` from packed operands
    /// ([`kernel::gemm_packed`]): the contraction's tile kernel, with the
    /// bits of [`DenseMatrix::gemm_acc_naive`] on the tiles they were packed
    /// from — and so of transposing a transposed one first.
    ///
    /// # Panics
    /// On dimension mismatch.
    pub fn gemm_acc_packed(&mut self, a: &PackedLeft, b: &PackedRight) {
        let ((n, _), (_, m)) = (a.dims(), b.dims());
        assert_eq!(
            (self.rows, self.cols),
            (n, m),
            "gemm: output dimension mismatch"
        );
        kernel::gemm_packed(self.data_mut(), a, b);
    }

    /// `self += a * b` through the retained naive i-k-j triple loop — the
    /// reference the microkernel is benched and bit-exactness-tested
    /// against. Runs the identical ascending-k accumulation chain per
    /// element, so it agrees with [`DenseMatrix::gemm_acc`] bit-for-bit.
    ///
    /// # Panics
    /// On dimension mismatch.
    pub fn gemm_acc_naive(&mut self, a: &DenseMatrix, b: &DenseMatrix) {
        assert_eq!(a.cols, b.rows, "gemm: inner dimension mismatch");
        assert_eq!(
            (self.rows, self.cols),
            (a.rows, b.cols),
            "gemm: output dimension mismatch"
        );
        gemm_rows(self.data_mut(), &a.data, &b.data, 0..a.rows, a.cols, b.cols);
    }

    /// `a * b` as a new matrix.
    pub fn multiply(&self, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, b.cols);
        out.gemm_acc(self, b);
        out
    }

    /// Matrix-vector product `self * v`, one packed [`kernel::dot`] per row
    /// (bit-identical across the SIMD and scalar backends).
    ///
    /// # Panics
    /// If `v.len() != self.cols`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        self.matvec_with(v, Backend::active())
    }

    /// [`DenseMatrix::matvec`] with an explicit kernel backend — the entry
    /// the dispatch-pinning tests drive directly.
    pub fn matvec_with(&self, v: &[f64], backend: Backend) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec: dimension mismatch");
        (0..self.rows)
            .map(|i| kernel::dot(self.row(i), v, backend))
            .collect()
    }

    /// `selfᵀ * v`, read where `self` lies. Each column runs [`kernel::dot`]'s
    /// lane order — four fused multiply-add chains over rows `4t + p`,
    /// combined `(s0 + s2) + (s1 + s3)`, then the tail rows in order — so it
    /// is `self.transpose().matvec(v)` bit-for-bit, without the copy. The
    /// chains advance one row at a time across all columns, so the loop
    /// reads `self` row by row.
    ///
    /// # Panics
    /// If `v.len() != self.rows`.
    pub fn matvec_t(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "matvec_t: dimension mismatch");
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("fma") {
                // SAFETY: guarded by the runtime FMA check above.
                return unsafe { matvec_t_fma(self, v) };
            }
        }
        matvec_t_body(self, v)
    }

    /// Copy `other` into this matrix with its top-left corner at `(r0, c0)`,
    /// clipping to this matrix's bounds, one row slice at a time. Used to
    /// assemble a matrix from its (padded) tiles.
    pub fn paste(&mut self, r0: usize, c0: usize, other: &DenseMatrix) {
        let cols = self.cols;
        let rmax = (r0 + other.rows).min(self.rows);
        let width = (c0 + other.cols).min(cols).saturating_sub(c0);
        if width == 0 {
            return;
        }
        let data = self.data_mut();
        for i in r0..rmax {
            data[i * cols + c0..i * cols + c0 + width].copy_from_slice(&other.row(i - r0)[..width]);
        }
    }

    /// The `rows x cols` window at `(r0, c0)` of the row-major `src`, a
    /// `src_rows x src_cols` matrix, zero padding past its edges: one row
    /// slice copy and one padding fill per output row. Used to cut tiles
    /// out of a local matrix without copying it first.
    pub(crate) fn cut(
        src: &[f64],
        (src_rows, src_cols): (usize, usize),
        (r0, c0): (usize, usize),
        (rows, cols): (usize, usize),
    ) -> DenseMatrix {
        let width = (c0 + cols).min(src_cols).saturating_sub(c0);
        DenseMatrix::filled(rows, cols, |out| {
            for (i, row) in out.chunks_exact_mut(cols.max(1)).enumerate() {
                let copied = if r0 + i < src_rows { width } else { 0 };
                if copied > 0 {
                    let from = (r0 + i) * src_cols + c0;
                    row[..copied].copy_from_slice(&src[from..from + copied]);
                }
                row[copied..].fill(0.0);
            }
        })
    }
}

/// A sole owner's payload goes back to the free list; a shared one stays
/// with its other holders.
impl Drop for DenseMatrix {
    fn drop(&mut self) {
        if let Some(data) = Arc::get_mut(&mut self.data) {
            pool::recycle(std::mem::take(data));
        }
    }
}

/// Compute `c[0..rows) += a[0..rows) * b` where all buffers are row-major,
/// `a` is `rows x k` and `b` is `k x m` — the retained naive oracle. The
/// i-k-j loop runs exactly one correctly-rounded fused multiply-add per
/// (element, k) step in ascending-k order, which is the reference chain the
/// packed microkernels reproduce bit-for-bit (no zero-skipping — see the
/// determinism contract in [`crate::kernel`]). On x86_64 with hardware FMA
/// the body is re-dispatched under `target_feature(enable = "fma")` so the
/// compiler emits `vfmadd` instead of a libm call; `fma` is exactly
/// specified, so both paths produce the same bits.
fn gemm_rows(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    rows: std::ops::Range<usize>,
    k: usize,
    m: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: guarded by the runtime FMA check above.
            unsafe { gemm_rows_fma(c, a, b, rows, k, m) };
            return;
        }
    }
    gemm_rows_body(c, a, b, rows, k, m);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn gemm_rows_fma(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    rows: std::ops::Range<usize>,
    k: usize,
    m: usize,
) {
    gemm_rows_body(c, a, b, rows, k, m);
}

#[inline(always)]
fn gemm_rows_body(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    rows: std::ops::Range<usize>,
    k: usize,
    m: usize,
) {
    for i in rows {
        let crow = &mut c[i * m..(i + 1) * m];
        let arow = &a[i * k..(i + 1) * k];
        for (l, &aval) in arow.iter().enumerate() {
            let brow = &b[l * m..(l + 1) * m];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv = aval.mul_add(bv, *cv);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn matvec_t_fma(a: &DenseMatrix, v: &[f64]) -> Vec<f64> {
    matvec_t_body(a, v)
}

#[inline(always)]
fn matvec_t_body(a: &DenseMatrix, v: &[f64]) -> Vec<f64> {
    let (rows, cols) = (a.rows, a.cols);
    let n4 = rows / 4 * 4;
    let mut lanes = [(); 4].map(|_| vec![0.0f64; cols]);
    for t in (0..n4).step_by(4) {
        for (p, lane) in lanes.iter_mut().enumerate() {
            let x = v[t + p];
            for (s, &av) in lane.iter_mut().zip(a.row(t + p)) {
                *s = av.mul_add(x, *s);
            }
        }
    }
    let [s0, s1, s2, s3] = &lanes;
    let mut y: Vec<f64> = (0..cols)
        .map(|j| (s0[j] + s2[j]) + (s1[j] + s3[j]))
        .collect();
    for (r, &x) in v.iter().enumerate().skip(n4) {
        for (yj, &av) in y.iter_mut().zip(a.row(r)) {
            *yj = av.mul_add(x, *yj);
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(rows: usize, cols: usize) -> DenseMatrix {
        DenseMatrix::from_fn(rows, cols, |i, j| (i * cols + j) as f64)
    }

    #[test]
    fn construction_and_indexing() {
        let m = seq(3, 4);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(2, 3), 11.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "buffer does not match")]
    fn from_vec_checks_len() {
        let _ = DenseMatrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn identity_multiplication_is_noop() {
        let m = seq(4, 4);
        let i = DenseMatrix::identity(4);
        assert!(m.multiply(&i).approx_eq(&m, 1e-12));
        assert!(i.multiply(&m).approx_eq(&m, 1e-12));
    }

    #[test]
    fn gemm_matches_hand_computation() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DenseMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.multiply(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn gemm_acc_accumulates() {
        let a = DenseMatrix::identity(3);
        let b = seq(3, 3);
        let mut c = seq(3, 3);
        c.gemm_acc(&a, &b);
        let expected = seq(3, 3).map(|x| 2.0 * x);
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn parallel_gemm_bit_identical_to_sequential() {
        // 2·256·96·688 flops: enough for `kernel::gemm` to fork 8 bands.
        let (n, k, m) = (256, 96, 688);
        let a = DenseMatrix::from_fn(n, k, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let b = DenseMatrix::from_fn(k, m, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let mut seq_out = DenseMatrix::zeros(n, m);
        seq_out.gemm_acc(&a, &b);
        for threads in [1, 2, 3, 8] {
            let mut par_out = DenseMatrix::zeros(n, m);
            let (c, backend) = (par_out.data_mut(), Backend::active());
            kernel::gemm(c, a.data(), b.data(), n, k, m, threads, backend);
            assert_eq!(par_out, seq_out, "threads={threads}");
        }
    }

    #[test]
    fn packed_gemm_bit_identical_to_naive_oracle() {
        let a = DenseMatrix::from_fn(67, 41, |i, j| ((i * 13 + j * 7) % 17) as f64 * 0.25 - 2.0);
        let b = DenseMatrix::from_fn(41, 29, |i, j| ((i * 5 + j * 11) % 19) as f64 * 0.125 - 1.0);
        let mut naive = DenseMatrix::from_fn(67, 29, |i, j| (i + j) as f64 * 0.5);
        let mut packed = naive.clone();
        naive.gemm_acc_naive(&a, &b);
        packed.gemm_acc(&a, &b);
        assert_eq!(packed, naive);
    }

    #[test]
    fn transpose_involution() {
        let m = seq(3, 5);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(4, 2), m.get(2, 4));
    }

    #[test]
    fn add_sub_scale() {
        let mut a = seq(2, 2);
        let b = DenseMatrix::identity(2);
        a.add_in_place(&b);
        assert_eq!(a.data(), &[1.0, 1.0, 2.0, 4.0]);
        let d = a.sub(&b);
        assert_eq!(d.data(), &[0.0, 1.0, 2.0, 3.0]);
        a.scale_in_place(0.5);
        assert_eq!(a.data(), &[0.5, 0.5, 1.0, 2.0]);
    }

    #[test]
    fn map_is_elementwise() {
        let a = seq(2, 2);
        assert_eq!(a.map(|x| x + 1.0).data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn matvec_t_is_the_transposed_matvec_bit_for_bit() {
        for (rows, cols) in [(1, 1), (3, 5), (4, 4), (9, 2), (13, 7)] {
            let a = DenseMatrix::from_fn(rows, cols, |i, j| {
                ((i * 7 + j * 3) % 11) as f64 * 0.37 - 1.3
            });
            let v: Vec<f64> = (0..rows).map(|i| (i as f64).sin()).collect();
            let want: Vec<u64> = a
                .transpose()
                .matvec(&v)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let got: Vec<u64> = a.matvec_t(&v).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{rows}x{cols}");
        }
    }

    #[test]
    fn matvec_matches_gemm() {
        let a = seq(3, 4);
        let v = vec![1.0, -1.0, 2.0, 0.5];
        let via_gemm = a.multiply(&DenseMatrix::from_vec(4, 1, v.clone()));
        assert_eq!(a.matvec(&v), via_gemm.data());
    }

    #[test]
    fn paste_and_cut_roundtrip() {
        let m = seq(5, 7);
        let t = DenseMatrix::cut(m.data(), (5, 7), (3, 5), (4, 4));
        // Bottom-right 2x2 of m lands in t's top-left; the rest is padding.
        assert_eq!(t.get(0, 0), m.get(3, 5));
        assert_eq!(t.get(1, 1), m.get(4, 6));
        assert_eq!(t.get(2, 2), 0.0);
        let mut back = DenseMatrix::zeros(5, 7);
        back.paste(3, 5, &t);
        assert_eq!(back.get(4, 6), m.get(4, 6));
        assert_eq!(back.get(0, 0), 0.0);
    }

    proptest::proptest! {
        /// `cut` copies any window of a matrix, hanging past its edges or
        /// not, and pads the rest with zeros.
        #[test]
        fn cut_is_the_padded_window(rows in 1usize..10, cols in 1usize..10,
                                    r0 in 0usize..6, c0 in 0usize..6, win in 1usize..8) {
            // No element is zero, so a padding slip shows.
            let m = DenseMatrix::from_fn(rows, cols, |i, j| (i * cols + j + 1) as f64);
            let tile = DenseMatrix::cut(m.data(), (rows, cols), (r0, c0), (win, win));
            for i in 0..win {
                for j in 0..win {
                    let expected = if r0 + i < rows && c0 + j < cols {
                        m.get(r0 + i, c0 + j)
                    } else {
                        0.0
                    };
                    proptest::prop_assert_eq!(tile.get(i, j), expected);
                }
            }
        }
    }

    #[test]
    fn norms_and_sums() {
        let a = DenseMatrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.sum(), 7.0);
    }

    #[test]
    fn spill_codec_roundtrip() {
        let m = seq(3, 5);
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let mut pos = 0;
        assert_eq!(m.encoded_len(), buf.len());
        assert_eq!(DenseMatrix::decode(&buf, &mut pos), Some(m));
        assert_eq!(pos, buf.len());
        // A truncated buffer must fail cleanly, not panic.
        let mut pos = 0;
        assert_eq!(DenseMatrix::decode(&buf[..buf.len() - 1], &mut pos), None);
        // Inconsistent dimensions must be rejected.
        let mut bad = Vec::new();
        4usize.encode(&mut bad);
        4usize.encode(&mut bad);
        vec![1.0f64; 3].encode(&mut bad);
        let mut pos = 0;
        assert_eq!(DenseMatrix::decode(&bad, &mut pos), None);
    }

    /// The wire format of a shuffled tile record, pinned byte for byte: the
    /// `encode_frame` bytes of one fixed `(TileCoord, DenseMatrix)` record,
    /// hashed with FNV-1a. The payload salts in NaNs with payloads, signed
    /// zeros, infinities and subnormals. Any change to the hash is a wire
    /// format change, which needs a `wire::VERSION` bump.
    #[test]
    fn golden_tile_record_frame() {
        let specials = [
            f64::from_bits(0x7ff0_0000_dead_beef),
            f64::from_bits(0xfff8_0000_0000_0001),
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
        ];
        let tile = DenseMatrix::from_fn(128, 128, |i, j| {
            let k = i * 128 + j;
            specials
                .get(k % 97)
                .copied()
                .unwrap_or(k as f64 * 0.37 - 1234.5)
        });
        let record: (crate::TileCoord, DenseMatrix) = ((3, -5), tile);
        let frame = sparkline::wire::encode_frame(&record);
        let fnv1a = frame.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(frame.len(), sparkline::wire::HEADER_LEN + 16 + 131_096);
        assert_eq!(fnv1a, 0x708b_2240_b0d3_ba84, "frame hash {fnv1a:#018x}");
        let back: (crate::TileCoord, DenseMatrix) = sparkline::wire::decode_frame(&frame).unwrap();
        assert_eq!(sparkline::wire::encode_frame(&back), frame);
    }

    /// Serializes the tests that empty the process-wide list or count what
    /// it holds.
    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
        TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// What no constructor may pass on: NaNs with payloads and both signs,
    /// `-0.0` and `±∞`, cycling.
    fn poison(len: usize) -> Vec<f64> {
        let specials = [
            f64::from_bits(0x7ff8_dead_beef_0001),
            f64::from_bits(0xfff4_0000_0000_0042),
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        (0..len).map(|k| specials[k % specials.len()]).collect()
    }

    fn bits(data: &[f64]) -> Vec<u64> {
        data.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_poisoned_free_list_changes_no_bit() {
        use crate::fused::{ElemwiseOp, FusedProgram};
        let _turn = exclusive();
        // A 40 x 33 tile (1 320 elements, transposed the same length), a
        // 32 x 40 window of it hanging over two edges (1 280), and a fused
        // pass over a ragged 1 025 elements.
        let a = DenseMatrix::from_fn(40, 33, |i, j| ((i * 33 + j) as f64).sin() * 1e3);
        let b = DenseMatrix::from_fn(40, 33, |i, j| ((i * 7 + j * 5) % 4) as f64 - 1.5);
        let mut frame = Vec::new();
        a.encode(&mut frame);
        let prog = FusedProgram::new(vec![
            ElemwiseOp::Slot(0),
            ElemwiseOp::Slot(1),
            ElemwiseOp::Const(0.5),
            ElemwiseOp::Mul,
            ElemwiseOp::Sub,
        ])
        .expect("balanced program");
        let outputs = || -> Vec<(&str, Vec<u64>)> {
            let mut out = vec![
                ("zeros", bits(DenseMatrix::zeros(40, 33).data())),
                (
                    "from_fn",
                    bits(DenseMatrix::from_fn(40, 33, |i, j| (i * j) as f64 - 7.5).data()),
                ),
                ("transpose", bits(a.transpose().data())),
                (
                    "cut",
                    bits(DenseMatrix::cut(a.data(), (40, 33), (20, 10), (32, 40)).data()),
                ),
                ("sub", bits(a.sub(&b).data())),
                ("map", bits(a.map(|x| x * 0.25).data())),
                ("decode", {
                    let decoded = DenseMatrix::decode(&frame, &mut 0).expect("frame");
                    bits(decoded.data())
                }),
            ];
            for backend in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
                for len in [1025, 1320] {
                    let fused =
                        crate::fused::fused_eltwise(&prog, &[a.data(), b.data()], len, backend);
                    out.push(("fused_eltwise", bits(&fused)));
                }
            }
            out
        };
        pool::list().clear();
        let clean = outputs();
        pool::list().clear();
        for len in [1025, 1280, 1320] {
            for _ in 0..16 {
                pool::recycle(poison(len));
            }
        }
        for ((name, want), (_, got)) in clean.iter().zip(outputs()) {
            assert!(got == *want, "{name}: a recycled buffer's values showed");
        }
    }

    #[test]
    fn the_free_list_never_holds_more_than_its_cap() {
        let len = 1 << 10;
        let bytes = len * std::mem::size_of::<f64>();
        // Room for three buffers and half of a fourth.
        let cap = 3 * bytes + bytes / 2;
        let mut list = pool::FreeList::new();
        for k in 0..5 {
            let refused = list.put(vec![0.0; len], cap);
            assert_eq!(refused.is_some(), k >= 3, "buffer {k}");
            assert!(list.bytes() <= cap);
        }
        assert_eq!(list.held(len), 3);
        assert!(pool::list().bytes() <= pool::CAP_BYTES);
    }

    #[test]
    fn a_shared_payload_is_never_returned() {
        let _turn = exclusive();
        // A length no other test builds.
        let len = (1 << 10) + 7;
        let held = || pool::list().held(len);
        let before = held();
        let m = DenseMatrix::from_fn(1, len, |_, j| j as f64);
        let shared = m.clone();
        drop(m);
        assert_eq!(held(), before, "returned while another matrix holds it");
        let mut written = shared.clone();
        written.data_mut()[0] = -1.0; // copies: `shared` keeps its payload
        assert!(shared
            .data()
            .iter()
            .enumerate()
            .all(|(j, &x)| x == j as f64));
        drop(shared);
        assert_eq!(held(), before + 1, "the last holder returns it");
        drop(written);
        assert_eq!(held(), before + 2);
    }
}
