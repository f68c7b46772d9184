//! Packed, cache-blocked GEMM microkernels — the faer-style layering under
//! every dense tile operation.
//!
//! The public entry points ([`gemm`], [`gemm_packed`], [`dot`]) sit
//! on top of three specialized layers:
//!
//! 1. **Packing** — A is repacked into `MR`-row strips (k-major, so the
//!    microkernel reads it with stride `MR`) and B into `NR`-column strips
//!    (k-major with stride `NR`), one cache-sized `KC`-deep panel at a time.
//!    Packed panels are contiguous, so the innermost loop touches exactly two
//!    streams that both live in L1/L2. Either operand may be stored
//!    transposed ([`PackedLeft::new`], [`PackedRight::new`]): the packer
//!    reads it where it lies and lays out the same strips, so a transposed
//!    operand never costs a copy. An operand is packed once for every
//!    product it joins: [`PackedLeft`] and [`PackedRight`] hold an
//!    operand's packs, and [`gemm_packed`] multiplies them, so a block of
//!    output tiles sharing row and column panels (the group-by-join's cell)
//!    packs each operand tile once rather than once per product. [`gemm`]
//!    packs both of its operands the same way, once per call, and splits
//!    the one pack of A into row bands across threads.
//! 2. **Microkernel** — a register tile is loaded from C, accumulated over
//!    the packed panels, and stored back. Each backend picks its own tile
//!    shape ([`Backend::tile`]): 8x16 in sixteen 8-lane zmm accumulators for
//!    AVX-512, the classic 6x8 in twelve 4-lane ymm accumulators for
//!    AVX2+FMA — both with enough independent FMA chains to cover the fused
//!    multiply-add latency — and 6x8 for the portable unrolled-scalar twin
//!    that runs the same operation sequence everywhere else. Tile shape,
//!    like every other blocking parameter, never changes output bits.
//! 3. **Dispatch** — the backend is chosen once per process via
//!    `is_x86_feature_detected!` (AVX-512F preferred, then AVX2+FMA, then the
//!    portable kernel), overridable with the `SAC_KERNEL` environment
//!    variable (`scalar` forces the portable path, `avx2` caps dispatch at
//!    256-bit SIMD, anything else autodetects).
//!
//! # Determinism contract
//!
//! Every output element is the IEEE-754 chain
//!
//! ```text
//! c[i][j] = fold(l in 0..k) { acc = fma(a[i][l], b[l][j], acc) }   (acc0 = c[i][j])
//! ```
//!
//! with one correctly-rounded **fused multiply-add** per step and the k
//! dimension always walked in ascending order — no split-k partial sums.
//! `fma` is exactly specified (a single rounding of the infinitely precise
//! `a*b + c`), so `f64::mul_add`, scalar `vfmadd`, and the 4- and 8-lane
//! `vfmadd231pd` all produce the same bits. Distinct output elements are independent
//! chains, so blocking over rows/columns (`MC`/`NR`), vectorizing across
//! columns, and parallelizing over row bands all preserve the exact bit
//! pattern. Results are therefore **bit-identical** across 1..N threads,
//! across the AVX2 and scalar backends, and against the naive
//! `gemm_acc_naive` oracle retained in [`crate::tile`], which runs the same
//! fused chain. (On x86 hardware without FMA the scalar path falls back to
//! libm's software `fma` — slower, but the same correctly-rounded result.
//! For inputs containing ±inf/NaN the contract still holds between backends
//! and thread counts; only sparse kernels, which skip structural zeros, can
//! then diverge from the dense chain.)

use crate::tile::pool;
use std::ops::Range;
use std::sync::OnceLock;

/// Rows per register tile of the AVX2 and scalar microkernels.
pub const MR: usize = 6;
/// Columns per register tile of the AVX2 and scalar microkernels (two 4-lane
/// AVX2 vectors).
pub const NR: usize = 8;
/// k-depth of one packed panel: `KC x NR` of B (12 KiB) stays L1-resident.
pub const KC: usize = 192;
/// Rows of A per block of the panel loop: an `MC x KC` slab of the pack
/// (144 KiB) stays L2-resident.
pub const MC: usize = 96;
/// Flops a row band of [`gemm`] must carry before it gets a thread of its
/// own: about 0.1-0.2 ms of one core, against the tens of microseconds a
/// scoped spawn and join cost. A 64³ product (2²⁰ flops) runs on the
/// calling thread; 384³ still splits into 8 bands.
const FLOPS_PER_THREAD: usize = 1 << 22;

/// Which microkernel implementation to run. Both produce bit-identical
/// results; the choice is purely a speed decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Runtime-dispatched AVX-512F (`std::arch`) register tiles: one 8-lane
    /// accumulator per tile row.
    Avx512,
    /// Runtime-dispatched AVX2+FMA (`std::arch`) register tiles.
    Avx2,
    /// Portable unrolled-scalar twin of the SIMD kernels.
    Scalar,
}

impl Backend {
    /// True when the CPU (and target) can run the AVX2+FMA kernel.
    pub fn simd_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// True when the CPU (and target) can run the AVX-512 kernel.
    pub fn avx512_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Resolve a `SAC_KERNEL` setting against hardware capability: `scalar`
    /// forces the portable kernel, `avx2` caps dispatch at the 256-bit
    /// kernel (granted only when available), anything else autodetects the
    /// widest supported tier.
    pub fn from_knob(knob: Option<&str>, avx2: bool, avx512: bool) -> Backend {
        match knob {
            Some("scalar") => Backend::Scalar,
            Some("avx2") => {
                if avx2 {
                    Backend::Avx2
                } else {
                    Backend::Scalar
                }
            }
            _ => {
                if avx512 {
                    Backend::Avx512
                } else if avx2 {
                    Backend::Avx2
                } else {
                    Backend::Scalar
                }
            }
        }
    }

    /// The `(mr, nr)` register-tile shape this backend's microkernel
    /// consumes; packing is laid out to match. Any shape yields the same
    /// output bits — wider tiles just cut panel re-reads and cover more FMA
    /// latency.
    pub fn tile(self) -> (usize, usize) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => (8, 16),
            _ => (MR, NR),
        }
    }

    /// The process-wide backend: detected once, honoring `SAC_KERNEL`.
    pub fn active() -> Backend {
        static ACTIVE: OnceLock<Backend> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            let knob = std::env::var("SAC_KERNEL").ok();
            Backend::from_knob(
                knob.as_deref(),
                Backend::simd_available(),
                Backend::avx512_available(),
            )
        })
    }
}

/// The name of the kernel backend `SAC_KERNEL` and the hardware select,
/// resolved *fresh* on every call rather than read from the
/// [`Backend::active`] `OnceLock`, so it reports the knob as it is now.
/// Benchmark reports record it next to their measurements; nothing keys a
/// cache on it (the backend is fixed per process, like the plan cache).
pub fn signature() -> String {
    let knob = std::env::var("SAC_KERNEL").ok();
    let backend = Backend::from_knob(
        knob.as_deref(),
        Backend::simd_available(),
        Backend::avx512_available(),
    );
    format!("{backend:?}")
}

// The fused elementwise entry points live in [`crate::fused`] but are part
// of the kernel surface: same determinism contract, same backend dispatch.
pub use crate::fused::{fused_eltwise, fused_eltwise_into};

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// B packed for one `KC`-deep panel: `nr`-column strips, each strip k-major
/// (`kc` rows of `nr` values, zero-padded past the matrix edge).
fn pack_b_panel(b: &[f64], k0: usize, kc: usize, m: usize, nr: usize, out: &mut [f64]) {
    let strips = m.div_ceil(nr);
    for s in 0..strips {
        let c0 = s * nr;
        let width = nr.min(m - c0);
        let strip = &mut out[s * kc * nr..(s + 1) * kc * nr];
        for l in 0..kc {
            let row = &b[(k0 + l) * m + c0..(k0 + l) * m + c0 + width];
            let dst = &mut strip[l * nr..l * nr + nr];
            dst[..width].copy_from_slice(row);
            for d in dst[width..].iter_mut() {
                *d = 0.0;
            }
        }
    }
}

/// [`pack_b_panel`]'s strips read from `bt`, Bᵀ (`m x k`, row-major), where
/// it lies: each strip column is one contiguous run of a row of Bᵀ.
fn pack_bt_panel(bt: &[f64], k: usize, k0: usize, kc: usize, m: usize, nr: usize, out: &mut [f64]) {
    let strips = m.div_ceil(nr);
    for s in 0..strips {
        let c0 = s * nr;
        let width = nr.min(m - c0);
        let strip = &mut out[s * kc * nr..(s + 1) * kc * nr];
        for j in 0..nr {
            if j < width {
                let col = &bt[(c0 + j) * k + k0..][..kc];
                for (l, &v) in col.iter().enumerate() {
                    strip[l * nr + j] = v;
                }
            } else {
                for l in 0..kc {
                    strip[l * nr + j] = 0.0;
                }
            }
        }
    }
}

/// A packed for one `kc`-deep panel: `mr`-row strips over all `n` rows,
/// each strip k-major (`kc` columns of `mr` values, zero-padded past the
/// last row).
fn pack_a_panel(a: &[f64], n: usize, k: usize, k0: usize, kc: usize, mr: usize, out: &mut [f64]) {
    for t in 0..n.div_ceil(mr) {
        let strip = &mut out[t * kc * mr..(t + 1) * kc * mr];
        for i in 0..mr {
            let row = t * mr + i;
            if row < n {
                let src = &a[row * k + k0..row * k + k0 + kc];
                for (l, &v) in src.iter().enumerate() {
                    strip[l * mr + i] = v;
                }
            } else {
                for l in 0..kc {
                    strip[l * mr + i] = 0.0;
                }
            }
        }
    }
}

/// [`pack_a_panel`]'s strips read from `at`, Aᵀ (`k x n`, row-major), where
/// it lies: each k-step of a strip is one contiguous run of a row of Aᵀ.
fn pack_at_panel(at: &[f64], n: usize, k0: usize, kc: usize, mr: usize, out: &mut [f64]) {
    for t in 0..n.div_ceil(mr) {
        let strip = &mut out[t * kc * mr..(t + 1) * kc * mr];
        let live = mr.min(n - t * mr);
        for l in 0..kc {
            let dst = &mut strip[l * mr..(l + 1) * mr];
            dst[..live].copy_from_slice(&at[(k0 + l) * n + t * mr..][..live]);
            dst[live..].fill(0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Packed operands
// ---------------------------------------------------------------------------

/// One operand's packs: `step` values per contracted index, laid out one
/// `KC`-deep panel after another, in a buffer from the tile free list that
/// goes back to it on drop.
struct Packs {
    buf: Vec<f64>,
    k: usize,
}

impl Packs {
    /// `pack(k0, kc, panel)` fills the panel of contracted indices
    /// `k0..k0 + kc`.
    fn new(step: usize, k: usize, mut pack: impl FnMut(usize, usize, &mut [f64])) -> Packs {
        // Every element is written by a panel pack.
        let mut buf = pool::stale(step * k);
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            pack(k0, kc, &mut buf[step * k0..step * (k0 + kc)]);
        }
        Packs { buf, k }
    }

    /// The `kc`-deep panel starting at contracted index `k0`.
    fn panel(&self, k0: usize, kc: usize) -> &[f64] {
        let step = self.buf.len() / self.k;
        &self.buf[step * k0..step * (k0 + kc)]
    }
}

impl Drop for Packs {
    fn drop(&mut self) {
        pool::recycle(std::mem::take(&mut self.buf));
    }
}

/// An `n x k` left operand packed once, for every product it joins: per
/// `KC`-deep panel, `mr`-row strips over all `n` rows, each k-major and
/// zero-padded past the last row. The buffer comes from the tile free list
/// and goes back to it on drop.
pub struct PackedLeft {
    packs: Packs,
    n: usize,
    backend: Backend,
}

impl PackedLeft {
    /// Pack `op(a)`, `n x k`, for `backend`'s register tile; `a` holds the
    /// `k x n` matrix Aᵀ when its flag is set and is read where it lies.
    ///
    /// # Panics
    /// If the slice length does not match the dimensions.
    pub fn new((a, a_t): (&[f64], bool), (n, k): (usize, usize), backend: Backend) -> PackedLeft {
        assert_eq!(a.len(), n * k, "pack: a buffer mismatch");
        let (tmr, _) = backend.tile();
        let packs = Packs::new(n.div_ceil(tmr) * tmr, k, |k0, kc, panel| {
            if a_t {
                pack_at_panel(a, n, k0, kc, tmr, panel);
            } else {
                pack_a_panel(a, n, k, k0, kc, tmr, panel);
            }
        });
        PackedLeft { packs, n, backend }
    }

    /// `(n, k)`: the rows and the contracted extent of the operand.
    pub fn dims(&self) -> (usize, usize) {
        (self.n, self.packs.k)
    }
}

/// A `k x m` right operand packed once, for every product it joins: per
/// `KC`-deep panel, `nr`-column strips, each k-major and zero-padded past
/// the last column. The buffer comes from the tile free list and goes back
/// to it on drop.
pub struct PackedRight {
    packs: Packs,
    m: usize,
    backend: Backend,
}

impl PackedRight {
    /// Pack `op(b)`, `k x m`, for `backend`'s register tile; `b` holds the
    /// `m x k` matrix Bᵀ when its flag is set and is read where it lies.
    ///
    /// # Panics
    /// If the slice length does not match the dimensions.
    pub fn new((b, b_t): (&[f64], bool), (k, m): (usize, usize), backend: Backend) -> PackedRight {
        assert_eq!(b.len(), k * m, "pack: b buffer mismatch");
        let (_, tnr) = backend.tile();
        let packs = Packs::new(m.div_ceil(tnr) * tnr, k, |k0, kc, panel| {
            if b_t {
                pack_bt_panel(b, k, k0, kc, m, tnr, panel);
            } else {
                pack_b_panel(b, k0, kc, m, tnr, panel);
            }
        });
        PackedRight { packs, m, backend }
    }

    /// `(k, m)`: the contracted extent and the columns of the operand.
    pub fn dims(&self) -> (usize, usize) {
        (self.packs.k, self.m)
    }
}

// ---------------------------------------------------------------------------
// Microkernels
// ---------------------------------------------------------------------------

/// Full `MR x NR` register-tile microkernel, AVX2. `ap` is one packed A
/// strip (`kc x MR`), `bp` one packed B strip (`kc x NR`), `c` the top-left
/// of the output tile with row stride `ldc`.
///
/// # Safety
/// Requires AVX2 (guaranteed by the dispatcher) and `c` valid for an
/// `MR x NR` tile at stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mkernel_avx2(kc: usize, ap: *const f64, bp: *const f64, c: *mut f64, ldc: usize) {
    use std::arch::x86_64::*;
    // C tile resident in twelve 4-lane accumulators.
    let mut acc = [[_mm256_setzero_pd(); 2]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        row[0] = _mm256_loadu_pd(c.add(i * ldc));
        row[1] = _mm256_loadu_pd(c.add(i * ldc + 4));
    }
    for l in 0..kc {
        let b0 = _mm256_loadu_pd(bp.add(l * NR));
        let b1 = _mm256_loadu_pd(bp.add(l * NR + 4));
        for (i, row) in acc.iter_mut().enumerate() {
            // Broadcast a[i][l]; one fused multiply-add per step — exactly
            // the `f64::mul_add` chain of the scalar twin, bit-for-bit.
            let av = _mm256_set1_pd(*ap.add(l * MR + i));
            row[0] = _mm256_fmadd_pd(av, b0, row[0]);
            row[1] = _mm256_fmadd_pd(av, b1, row[1]);
        }
    }
    for (i, row) in acc.iter().enumerate() {
        _mm256_storeu_pd(c.add(i * ldc), row[0]);
        _mm256_storeu_pd(c.add(i * ldc + 4), row[1]);
    }
}

/// Full `8 x 16` register-tile microkernel, AVX-512F: sixteen 8-lane zmm
/// accumulators (two per C row), one B double-load plus eight broadcasts
/// and sixteen fused multiply-adds per k step — the identical per-element
/// chain as every other backend, just eight columns per instruction.
///
/// # Safety
/// Requires AVX-512F (guaranteed by the dispatcher) and `c` valid for an
/// `8 x 16` tile at stride `ldc`; `ap`/`bp` must be packed with
/// `mr = 8, nr = 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mkernel_avx512(kc: usize, ap: *const f64, bp: *const f64, c: *mut f64, ldc: usize) {
    use std::arch::x86_64::*;
    let (mr, nr) = (8, 16);
    let mut acc = [[_mm512_setzero_pd(); 2]; 8];
    for (i, row) in acc.iter_mut().enumerate() {
        row[0] = _mm512_loadu_pd(c.add(i * ldc));
        row[1] = _mm512_loadu_pd(c.add(i * ldc + 8));
    }
    for l in 0..kc {
        let b0 = _mm512_loadu_pd(bp.add(l * nr));
        let b1 = _mm512_loadu_pd(bp.add(l * nr + 8));
        for (i, row) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_pd(*ap.add(l * mr + i));
            row[0] = _mm512_fmadd_pd(av, b0, row[0]);
            row[1] = _mm512_fmadd_pd(av, b1, row[1]);
        }
    }
    for (i, row) in acc.iter().enumerate() {
        _mm512_storeu_pd(c.add(i * ldc), row[0]);
        _mm512_storeu_pd(c.add(i * ldc + 8), row[1]);
    }
}

/// Full `MR x NR` microkernel, portable twin of [`mkernel_avx2`]: the same
/// loads, multiplies, adds, and stores in the same order, expressed as
/// scalar ops over independent per-column chains.
fn mkernel_scalar(kc: usize, ap: &[f64], bp: &[f64], c: &mut [f64], ldc: usize) {
    let mut acc = [[0.0f64; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[i * ldc..i * ldc + NR]);
    }
    for l in 0..kc {
        let bl = &bp[l * NR..l * NR + NR];
        for (i, row) in acc.iter_mut().enumerate() {
            let av = ap[l * MR + i];
            for (r, &b) in row.iter_mut().zip(bl) {
                *r = av.mul_add(b, *r);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        c[i * ldc..i * ldc + NR].copy_from_slice(row);
    }
}

/// Edge microkernel for partial `mr x nr` tiles at the right/bottom fringe
/// (`tmr`/`tnr` are the full-tile pack strides). Reads the zero-padded packs
/// but stores only the `mr x nr` live region; each element runs the
/// identical ascending-k chain.
#[allow(clippy::too_many_arguments)]
fn mkernel_edge(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    mr: usize,
    nr: usize,
    tmr: usize,
    tnr: usize,
) {
    for i in 0..mr {
        for j in 0..nr {
            let mut acc = c[i * ldc + j];
            for l in 0..kc {
                acc = ap[l * tmr + i].mul_add(bp[l * tnr + j], acc);
            }
            c[i * ldc + j] = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked driver
// ---------------------------------------------------------------------------

/// `c += a · b` over one `kc`-deep panel: `pa` holds the packed `mr`-row
/// strips of `rows` rows of A, `bp` every packed `nr`-column strip of the
/// panel of B, and `c` starts at the rows' first output element, row stride
/// `m`. The one place a microkernel is dispatched.
fn panel_product(
    backend: Backend,
    kc: usize,
    (pa, rows): (&[f64], usize),
    (bp, m): (&[f64], usize),
    c: &mut [f64],
) {
    let (tmr, tnr) = backend.tile();
    for s in 0..m.div_ceil(tnr) {
        let nr = tnr.min(m - s * tnr);
        let bp = &bp[s * kc * tnr..(s + 1) * kc * tnr];
        for t in 0..rows.div_ceil(tmr) {
            let mr = tmr.min(rows - t * tmr);
            let ap = &pa[t * kc * tmr..(t + 1) * kc * tmr];
            let c_off = t * tmr * m + s * tnr;
            if mr == tmr && nr == tnr {
                match backend {
                    #[cfg(target_arch = "x86_64")]
                    Backend::Avx512 => unsafe {
                        mkernel_avx512(kc, ap.as_ptr(), bp.as_ptr(), c[c_off..].as_mut_ptr(), m);
                    },
                    #[cfg(target_arch = "x86_64")]
                    Backend::Avx2 => unsafe {
                        mkernel_avx2(kc, ap.as_ptr(), bp.as_ptr(), c[c_off..].as_mut_ptr(), m);
                    },
                    #[cfg(not(target_arch = "x86_64"))]
                    Backend::Avx512 | Backend::Avx2 => {
                        mkernel_scalar(kc, ap, bp, &mut c[c_off..], m)
                    }
                    Backend::Scalar => mkernel_scalar(kc, ap, bp, &mut c[c_off..], m),
                }
            } else {
                mkernel_edge(kc, ap, bp, &mut c[c_off..], m, mr, nr, tmr, tnr);
            }
        }
    }
}

/// `c += a · b` over the rows `rows` of the packed `a`, `c` holding those
/// rows (row stride `m`): the k panels in ascending order — the only loop
/// whose order the determinism contract constrains — each in `MC`-row
/// blocks. `rows` starts on a register-tile strip of the pack.
fn packed_rows(c: &mut [f64], a: &PackedLeft, b: &PackedRight, rows: Range<usize>) {
    let (k, m) = b.dims();
    let (tmr, _) = a.backend.tile();
    debug_assert_eq!(rows.start % tmr, 0, "a band starts on a strip");
    debug_assert_eq!(MC % tmr, 0, "an MC block starts on a strip");
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        let (a_panel, b_panel) = (a.packs.panel(k0, kc), b.packs.panel(k0, kc));
        // The strips of rows `r0..` start at element `r0 * kc` of the panel.
        for r0 in rows.clone().step_by(MC) {
            let mc = MC.min(rows.end - r0);
            let pa = (&a_panel[r0 * kc..], mc);
            let c = &mut c[(r0 - rows.start) * m..];
            panel_product(a.backend, kc, pa, (b_panel, m), c);
        }
    }
}

/// `c += a * b` where `a` is `n x k`, `b` is `k x m`, and `c` is `n x m`,
/// all row-major. Packs each operand once ([`PackedLeft`], [`PackedRight`]),
/// then runs [`gemm_packed`]'s panel loop over row bands on up to `threads`
/// scoped worker threads (1 = sequential), each band a run of whole
/// register-tile strips of the one pack of A carrying at least 2²² flops.
/// Bit-identical for every `threads`/`backend` combination; see the module
/// docs.
///
/// # Panics
/// If the slice lengths do not match the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    n: usize,
    k: usize,
    m: usize,
    threads: usize,
    backend: Backend,
) {
    assert_eq!(c.len(), n * m, "gemm: c buffer mismatch");
    let a = PackedLeft::new((a, false), (n, k), backend);
    let b = PackedRight::new((b, false), (k, m), backend);
    let (tmr, _) = backend.tile();
    let strips = n.div_ceil(tmr);
    let threads = threads.min(strips).min(2 * n * k * m / FLOPS_PER_THREAD);
    if threads <= 1 || c.is_empty() {
        packed_rows(c, &a, &b, 0..n);
        return;
    }
    let band = strips.div_ceil(threads) * tmr;
    let (a, b) = (&a, &b);
    std::thread::scope(|scope| {
        for (t, c) in c.chunks_mut(band * m).enumerate() {
            let r0 = t * band;
            scope.spawn(move || packed_rows(c, a, b, r0..(r0 + band).min(n)));
        }
    });
}

/// `c += a · b` from operands packed once for many products: `c` is
/// `n x m`, row-major, where `a` is `n x k` and `b` is `k x m` as packed,
/// in either orientation. One thread; the bits of [`gemm`] on the operands
/// they were packed from, and so of transposing a transposed one first.
///
/// # Panics
/// If the dimensions disagree, or the packs are for different backends.
pub fn gemm_packed(c: &mut [f64], a: &PackedLeft, b: &PackedRight) {
    let ((n, k), (b_rows, m)) = (a.dims(), b.dims());
    assert_eq!(k, b_rows, "gemm: inner dimension mismatch");
    assert_eq!(c.len(), n * m, "gemm: c buffer mismatch");
    assert_eq!(a.backend, b.backend, "gemm: packed for different backends");
    packed_rows(c, a, b, 0..n);
}

// ---------------------------------------------------------------------------
// Vector primitives (matvec / sparse-dense building blocks)
// ---------------------------------------------------------------------------

/// Packed dot product with a fixed four-accumulator reduction: lane `p`
/// accumulates elements `4t + p`, the lanes combine as
/// `(s0 + s2) + (s1 + s3)`, and the tail is added sequentially — the exact
/// order the AVX2 horizontal reduction uses, so both backends agree
/// bit-for-bit.
pub fn dot(a: &[f64], b: &[f64], backend: Backend) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 | Backend::Avx2 => unsafe { dot_avx2(a, b) },
        _ => dot_scalar(a, b),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n4 = a.len() / 4 * 4;
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = _mm256_setzero_pd();
    let mut t = 0;
    while t < n4 {
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(t)), _mm256_loadu_pd(bp.add(t)), acc);
        t += 4;
    }
    // (s0 + s2, s1 + s3), then the horizontal pair sum.
    let pair = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd::<1>(acc));
    let hi = _mm_unpackhi_pd(pair, pair);
    let mut sum = _mm_cvtsd_f64(_mm_add_sd(pair, hi));
    for i in n4..a.len() {
        sum = a[i].mul_add(b[i], sum);
    }
    sum
}

fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n4 = a.len() / 4 * 4;
    let mut s = [0.0f64; 4];
    let mut t = 0;
    while t < n4 {
        s[0] = a[t].mul_add(b[t], s[0]);
        s[1] = a[t + 1].mul_add(b[t + 1], s[1]);
        s[2] = a[t + 2].mul_add(b[t + 2], s[2]);
        s[3] = a[t + 3].mul_add(b[t + 3], s[3]);
        t += 4;
    }
    let mut sum = (s[0] + s[2]) + (s[1] + s[3]);
    for i in n4..a.len() {
        sum = a[i].mul_add(b[i], sum);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    /// The reference chain: naive ascending-k accumulation, one fused
    /// multiply-add per step.
    fn gemm_naive(c: &mut [f64], a: &[f64], b: &[f64], n: usize, k: usize, m: usize) {
        for i in 0..n {
            for l in 0..k {
                let av = a[i * k + l];
                for j in 0..m {
                    c[i * m + j] = av.mul_add(b[l * m + j], c[i * m + j]);
                }
            }
        }
    }

    fn assert_bits_eq(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "element {i}: {g} != {w}");
        }
    }

    #[test]
    fn packed_gemm_matches_naive_bitwise_across_shapes_and_backends() {
        // Shapes straddling every blocking boundary: unit dims, MR/NR edges,
        // KC remainders.
        for &(n, k, m) in &[
            (1, 1, 1),
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (MC + 3, 2 * KC + 5, 3 * NR + 7),
            (7, 200, 13),
            (64, 1, 64),
        ] {
            let a = rand_vec(n * k, 1);
            let b = rand_vec(k * m, 2);
            let mut want = rand_vec(n * m, 3);
            let mut scalar = want.clone();
            let mut auto = want.clone();
            gemm_naive(&mut want, &a, &b, n, k, m);
            gemm(&mut scalar, &a, &b, n, k, m, 1, Backend::Scalar);
            gemm(&mut auto, &a, &b, n, k, m, 1, Backend::active());
            assert_bits_eq(&scalar, &want);
            assert_bits_eq(&auto, &want);
        }
    }

    /// Row-major `rows x cols` `x` transposed.
    fn transposed(x: &[f64], rows: usize, cols: usize) -> Vec<f64> {
        (0..cols * rows)
            .map(|at| x[(at % rows) * cols + at / rows])
            .collect()
    }

    #[test]
    fn transposed_operands_pack_in_place_to_the_same_bits() {
        for &(n, k, m) in &[
            (1, 1, 1),
            (MR + 1, KC + 1, NR + 1),
            (9, 200, 17),
            (20, 3, 31),
        ] {
            let a = rand_vec(n * k, 12);
            let b = rand_vec(k * m, 13);
            let base = rand_vec(n * m, 14);
            let mut want = base.clone();
            gemm_naive(&mut want, &a, &b, n, k, m);
            let (at, bt) = (transposed(&a, n, k), transposed(&b, k, m));
            for (a_t, b_t) in [(false, false), (true, false), (false, true), (true, true)] {
                let a_op = if a_t { &at } else { &a };
                let b_op = if b_t { &bt } else { &b };
                for backend in [Backend::Scalar, Backend::active()] {
                    let mut got = base.clone();
                    let a_op = PackedLeft::new((a_op, a_t), (n, k), backend);
                    let b_op = PackedRight::new((b_op, b_t), (k, m), backend);
                    gemm_packed(&mut got, &a_op, &b_op);
                    assert_bits_eq(&got, &want);
                }
            }
        }
    }

    #[test]
    fn packed_gemm_thread_invariant() {
        // 2·n·k·m is past 8 × FLOPS_PER_THREAD: 8 and 200 threads run 8
        // bands, and n is no multiple of any band height.
        let (n, k, m) = (301, 67, 853);
        assert!(2 * n * k * m >= 8 * FLOPS_PER_THREAD);
        let a = rand_vec(n * k, 4);
        let b = rand_vec(k * m, 5);
        let base = rand_vec(n * m, 6);
        let mut want = base.clone();
        gemm(&mut want, &a, &b, n, k, m, 1, Backend::active());
        for threads in [2, 3, 8, 200] {
            let mut got = base.clone();
            gemm(&mut got, &a, &b, n, k, m, threads, Backend::active());
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn zero_depth_gemm_is_identity() {
        let mut c = rand_vec(12, 7);
        let want = c.clone();
        gemm(&mut c, &[], &[], 4, 0, 3, 2, Backend::active());
        assert_bits_eq(&c, &want);
    }

    #[test]
    fn dot_backends_agree_bitwise() {
        for n in [0, 1, 3, 4, 7, 64, 129] {
            let a = rand_vec(n, 8);
            let b = rand_vec(n, 9);
            let s = dot(&a, &b, Backend::Scalar);
            let d = dot(&a, &b, Backend::active());
            assert_eq!(s.to_bits(), d.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn knob_parsing() {
        assert_eq!(
            Backend::from_knob(Some("scalar"), true, true),
            Backend::Scalar
        );
        assert_eq!(
            Backend::from_knob(Some("scalar"), false, false),
            Backend::Scalar
        );
        assert_eq!(Backend::from_knob(Some("avx2"), true, true), Backend::Avx2);
        assert_eq!(
            Backend::from_knob(Some("avx2"), false, false),
            Backend::Scalar
        );
        assert_eq!(Backend::from_knob(None, true, true), Backend::Avx512);
        assert_eq!(Backend::from_knob(None, true, false), Backend::Avx2);
        assert_eq!(Backend::from_knob(None, false, false), Backend::Scalar);
    }
}
