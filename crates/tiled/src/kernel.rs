//! Packed, cache-blocked GEMM microkernels — the faer-style layering under
//! every dense tile operation.
//!
//! The public entry points ([`gemm`], [`dot`], [`axpy`]) sit on top of three
//! specialized layers:
//!
//! 1. **Packing** — A is repacked into `MR`-row strips (k-major, so the
//!    microkernel reads it with stride `MR`) and B into `NR`-column strips
//!    (k-major with stride `NR`), one cache-sized `KC`-deep panel at a time.
//!    Packed panels are contiguous, so the innermost loop touches exactly two
//!    streams that both live in L1/L2. Either operand may be stored
//!    transposed ([`gemm_oriented`]): the packer reads it where it lies and
//!    lays out the same strips, so a transposed operand never costs a copy.
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
use std::sync::OnceLock;

/// Rows per register tile of the AVX2 and scalar microkernels.
pub const MR: usize = 6;
/// Columns per register tile of the AVX2 and scalar microkernels (two 4-lane
/// AVX2 vectors).
pub const NR: usize = 8;
/// k-depth of one packed panel: `KC x NR` of B (12 KiB) stays L1-resident.
pub const KC: usize = 192;
/// Row-band height packed per A block: `MC x KC` (144 KiB) stays L2-resident.
pub const MC: usize = 96;

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

/// A packed for one `rows x kc` block starting at row `r0`: `mr`-row strips,
/// each strip k-major (`kc` columns of `mr` values, zero-padded past the
/// last row).
#[allow(clippy::too_many_arguments)]
fn pack_a_block(
    a: &[f64],
    k: usize,
    r0: usize,
    rows: usize,
    k0: usize,
    kc: usize,
    mr: usize,
    out: &mut [f64],
) {
    let strips = rows.div_ceil(mr);
    for t in 0..strips {
        let strip = &mut out[t * kc * mr..(t + 1) * kc * mr];
        for i in 0..mr {
            let row = t * mr + i;
            if row < rows {
                let src = &a[(r0 + row) * k + k0..(r0 + row) * k + k0 + kc];
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

/// [`pack_a_block`]'s strips read from `at`, Aᵀ (`k x n`, row-major), where
/// it lies: each k-step of a strip is one contiguous run of a row of Aᵀ.
#[allow(clippy::too_many_arguments)]
fn pack_at_block(
    at: &[f64],
    n: usize,
    r0: usize,
    rows: usize,
    k0: usize,
    kc: usize,
    mr: usize,
    out: &mut [f64],
) {
    let strips = rows.div_ceil(mr);
    for t in 0..strips {
        let strip = &mut out[t * kc * mr..(t + 1) * kc * mr];
        let live = mr.min(rows - t * mr);
        for l in 0..kc {
            let dst = &mut strip[l * mr..(l + 1) * mr];
            dst[..live].copy_from_slice(&at[(k0 + l) * n + r0 + t * mr..][..live]);
            dst[live..].fill(0.0);
        }
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

/// Shared read-only state of one blocked GEMM: the unpacked A (or Aᵀ,
/// `a_t`), the fully packed B, and the problem dimensions.
struct BlockedGemm<'a> {
    a: &'a [f64],
    a_t: bool,
    packed_b: &'a [f64],
    /// Byte offsets of each `KC` panel within `packed_b` (`panels + 1` long).
    panel_offsets: &'a [usize],
    n: usize,
    k: usize,
    m: usize,
    backend: Backend,
}

impl BlockedGemm<'_> {
    /// `c += a[r0..r0+rows) * b` for one row band; `c` is the band's slice
    /// of the output (row stride `m`).
    fn band(&self, c: &mut [f64], r0: usize, rows: usize) {
        let (k, m) = (self.k, self.m);
        let (tmr, tnr) = self.backend.tile();
        let nr_strips = m.div_ceil(tnr);
        // Each block's pack writes every element the microkernel reads.
        let mut packed_a = pool::stale(MC.min(rows).div_ceil(tmr) * tmr * KC.min(k));
        // k panels ascending — the only loop whose order the determinism
        // contract constrains.
        for (p, k0) in (0..k).step_by(KC).enumerate() {
            let kc = KC.min(k - k0);
            let b_panel = &self.packed_b[self.panel_offsets[p]..self.panel_offsets[p + 1]];
            for m0 in (0..rows).step_by(MC) {
                let mc = MC.min(rows - m0);
                let mr_strips = mc.div_ceil(tmr);
                let pa = &mut packed_a[..mr_strips * tmr * kc];
                if self.a_t {
                    pack_at_block(self.a, self.n, r0 + m0, mc, k0, kc, tmr, pa);
                } else {
                    pack_a_block(self.a, k, r0 + m0, mc, k0, kc, tmr, pa);
                }
                for s in 0..nr_strips {
                    let nr = tnr.min(m - s * tnr);
                    let bp = &b_panel[s * kc * tnr..(s + 1) * kc * tnr];
                    for t in 0..mr_strips {
                        let mr = tmr.min(mc - t * tmr);
                        let ap = &pa[t * kc * tmr..(t + 1) * kc * tmr];
                        let c_off = (m0 + t * tmr) * m + s * tnr;
                        if mr == tmr && nr == tnr {
                            match self.backend {
                                #[cfg(target_arch = "x86_64")]
                                Backend::Avx512 => unsafe {
                                    mkernel_avx512(
                                        kc,
                                        ap.as_ptr(),
                                        bp.as_ptr(),
                                        c[c_off..].as_mut_ptr(),
                                        m,
                                    );
                                },
                                #[cfg(target_arch = "x86_64")]
                                Backend::Avx2 => unsafe {
                                    mkernel_avx2(
                                        kc,
                                        ap.as_ptr(),
                                        bp.as_ptr(),
                                        c[c_off..].as_mut_ptr(),
                                        m,
                                    );
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
        }
        pool::recycle(packed_a);
    }
}

/// `c += a * b` where `a` is `n x k`, `b` is `k x m`, and `c` is `n x m`,
/// all row-major: [`gemm_oriented`] with neither operand transposed.
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
    gemm_oriented(c, (a, false), (b, false), (n, k, m), threads, backend);
}

/// `c += op(a) * op(b)` where `op(a)` is `n x k`, `op(b)` is `k x m`, and
/// `c` is `n x m`, all row-major; `op(x)` is `x` itself, or `xᵀ` when its
/// flag is set — `a` then holds the `k x n` matrix Aᵀ, `b` the `m x k`
/// matrix Bᵀ. A transposed operand is packed from where it lies, so no
/// transposed copy is ever made; the packs hold the same values either way,
/// so the flags never change output bits. Packs B once, then runs the
/// blocked microkernel over row bands on `threads` scoped worker threads
/// (1 = sequential). Bit-identical for every `threads`/`backend`
/// combination; see the module docs.
///
/// # Panics
/// If the slice lengths do not match the dimensions.
pub fn gemm_oriented(
    c: &mut [f64],
    (a, a_t): (&[f64], bool),
    (b, b_t): (&[f64], bool),
    (n, k, m): (usize, usize, usize),
    threads: usize,
    backend: Backend,
) {
    assert_eq!(c.len(), n * m, "gemm: c buffer mismatch");
    assert_eq!(a.len(), n * k, "gemm: a buffer mismatch");
    assert_eq!(b.len(), k * m, "gemm: b buffer mismatch");
    if n == 0 || m == 0 || k == 0 {
        return;
    }
    // Pack all of B up front (one pass, shared read-only by every band).
    let (_, tnr) = backend.tile();
    let nr_strips = m.div_ceil(tnr);
    let panels = k.div_ceil(KC);
    let mut panel_offsets = Vec::with_capacity(panels + 1);
    panel_offsets.push(0);
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        panel_offsets.push(panel_offsets.last().unwrap() + nr_strips * kc * tnr);
    }
    // Every element is written by a panel pack, so a recycled tile buffer
    // will do; it goes back to the free list at the end.
    let mut packed_b = pool::stale(*panel_offsets.last().unwrap());
    for (p, k0) in (0..k).step_by(KC).enumerate() {
        let kc = KC.min(k - k0);
        let panel = &mut packed_b[panel_offsets[p]..panel_offsets[p + 1]];
        if b_t {
            pack_bt_panel(b, k, k0, kc, m, tnr, panel);
        } else {
            pack_b_panel(b, k0, kc, m, tnr, panel);
        }
    }

    let blocked = BlockedGemm {
        a,
        a_t,
        packed_b: &packed_b,
        panel_offsets: &panel_offsets,
        n,
        k,
        m,
        backend,
    };
    let threads = threads.clamp(1, n);
    if threads == 1 {
        blocked.band(c, 0, n);
    } else {
        let band = n.div_ceil(threads);
        let blocked = &blocked;
        std::thread::scope(|scope| {
            for (t, chunk) in c.chunks_mut(band * m).enumerate() {
                scope.spawn(move || {
                    let rows = chunk.len() / m;
                    blocked.band(chunk, t * band, rows);
                });
            }
        });
    }
    pool::recycle(packed_b);
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

/// `y += alpha * x`, element-wise with one fused multiply-add per element —
/// independent chains, so the SIMD and scalar paths are bit-identical by
/// construction.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64], backend: Backend) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 | Backend::Avx2 => unsafe { axpy_avx2(alpha, x, y) },
        _ => axpy_scalar(alpha, x, y),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn axpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
    use std::arch::x86_64::*;
    let n4 = x.len() / 4 * 4;
    let av = _mm256_set1_pd(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut t = 0;
    while t < n4 {
        let fused = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(t)), _mm256_loadu_pd(yp.add(t)));
        _mm256_storeu_pd(yp.add(t), fused);
        t += 4;
    }
    for i in n4..x.len() {
        y[i] = alpha.mul_add(x[i], y[i]);
    }
}

fn axpy_scalar(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv = alpha.mul_add(xv, *yv);
    }
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
                    let (a_op, b_op) = ((&a_op[..], a_t), (&b_op[..], b_t));
                    gemm_oriented(&mut got, a_op, b_op, (n, k, m), 2, backend);
                    assert_bits_eq(&got, &want);
                }
            }
        }
    }

    #[test]
    fn packed_gemm_thread_invariant() {
        let (n, k, m) = (101, 67, 53);
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
    fn axpy_backends_agree_bitwise() {
        for n in [0, 1, 5, 8, 31, 100] {
            let x = rand_vec(n, 10);
            let y0 = rand_vec(n, 11);
            let mut ys = y0.clone();
            let mut yd = y0.clone();
            axpy(1.7, &x, &mut ys, Backend::Scalar);
            axpy(1.7, &x, &mut yd, Backend::active());
            assert_bits_eq(&ys, &yd);
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
