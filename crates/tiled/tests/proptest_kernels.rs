//! Property tests for the tile kernels: algebraic identities that must hold
//! for arbitrary shapes and contents, checked against the naive oracle.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiled::{DenseMatrix, LocalMatrix};

fn rand_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    LocalMatrix::random(rows, cols, -2.0, 2.0, &mut rng).to_dense()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (A·B)·C = A·(B·C) within float tolerance.
    #[test]
    fn gemm_is_associative(n in 1usize..8, k in 1usize..8, m in 1usize..8,
                           p in 1usize..8, seed in 0u64..1000) {
        let a = rand_dense(n, k, seed);
        let b = rand_dense(k, m, seed + 1);
        let c = rand_dense(m, p, seed + 2);
        let left = a.multiply(&b).multiply(&c);
        let right = a.multiply(&b.multiply(&c));
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn transpose_reverses_products(n in 1usize..8, k in 1usize..8, m in 1usize..8,
                                   seed in 0u64..1000) {
        let a = rand_dense(n, k, seed);
        let b = rand_dense(k, m, seed + 3);
        let left = a.multiply(&b).transpose();
        let right = b.transpose().multiply(&a.transpose());
        prop_assert!(left.approx_eq(&right, 1e-10));
    }

    /// GEMM distributes over addition: A·(B+C) = A·B + A·C.
    #[test]
    fn gemm_distributes(n in 1usize..8, k in 1usize..8, m in 1usize..8,
                        seed in 0u64..1000) {
        let a = rand_dense(n, k, seed);
        let b = rand_dense(k, m, seed + 4);
        let c = rand_dense(k, m, seed + 5);
        let mut sum = b.clone();
        sum.add_in_place(&c);
        let left = a.multiply(&sum);
        let mut right = a.multiply(&b);
        right.add_in_place(&a.multiply(&c));
        prop_assert!(left.approx_eq(&right, 1e-10));
    }

    /// The optimized kernel agrees with the naive oracle on every shape.
    #[test]
    fn gemm_matches_naive(n in 1usize..12, k in 1usize..12, m in 1usize..12,
                          seed in 0u64..1000) {
        let a = rand_dense(n, k, seed);
        let b = rand_dense(k, m, seed + 6);
        let fast = a.multiply(&b);
        let naive = LocalMatrix::from_dense(&a).multiply(&LocalMatrix::from_dense(&b));
        prop_assert!(LocalMatrix::from_dense(&fast).approx_eq(&naive, 1e-10));
    }

    /// The row-parallel kernel agrees with the sequential one.
    #[test]
    fn parallel_gemm_matches(threads in 1usize..5, seed in 0u64..200) {
        let a = rand_dense(96, 64, seed);
        let b = rand_dense(64, 48, seed + 7);
        let mut seq = DenseMatrix::zeros(96, 48);
        seq.gemm_acc(&a, &b);
        let mut par = DenseMatrix::zeros(96, 48);
        gemm_with(&mut par, &a, &b, threads, Backend::active());
        prop_assert!(par.approx_eq(&seq, 1e-10));
    }

    /// The byte rule for the tile codec, degenerate 0 x n shapes included:
    /// `encoded_len` and its closed form are exactly what `encode` appends.
    #[test]
    fn tile_encoded_len_is_exact(rows in 0usize..12, cols in 0usize..12,
                                 keep in 1u64..5, seed in 0u64..1000) {
        use sparkline::SpillCodec;
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = DenseMatrix::from_fn(rows, cols, |_, _| {
            if rng.gen_range(0u64..5) < keep { rng.gen_range(-2.0..2.0) } else { 0.0 }
        });
        let mut d = Vec::new();
        dense.encode(&mut d);
        prop_assert_eq!(dense.encoded_len(), d.len());
        prop_assert_eq!(DenseMatrix::encoded_len_of(rows, cols), d.len());
    }

    /// matvec agrees with GEMM against a column vector.
    #[test]
    fn matvec_matches_gemm(n in 1usize..10, m in 1usize..10, seed in 0u64..1000) {
        let a = rand_dense(n, m, seed);
        let x = rand_dense(m, 1, seed + 8);
        let via_gemm = a.multiply(&x);
        let direct = a.matvec(x.data());
        for (d, g) in direct.iter().zip(via_gemm.data()) {
            prop_assert!((d - g).abs() < 1e-12);
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-exactness pinning: the packed, SIMD-dispatched microkernel must equal
// the naive FMA oracle *bitwise* — not within tolerance — on every shape,
// backend, and thread count (the determinism contract of `tiled::kernel`).
// ---------------------------------------------------------------------------

use tiled::kernel::{gemm, gemm_packed, Backend, PackedLeft, PackedRight};

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// `c += a · b` through [`gemm`], on `threads` row bands and `backend`.
fn gemm_with(
    c: &mut DenseMatrix,
    a: &DenseMatrix,
    b: &DenseMatrix,
    threads: usize,
    backend: Backend,
) {
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    gemm(c.data_mut(), a.data(), b.data(), n, k, m, threads, backend);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Packed kernel == naive oracle, bit-for-bit, across shapes straddling
    /// the 6x8 and 8x16 register tiles (remainder rows/columns included) and
    /// across both the forced-scalar and the dispatched backend.
    #[test]
    fn packed_gemm_bit_identical_to_oracle(n in 1usize..=70, k in 1usize..=70,
                                           m in 1usize..=70, seed in 0u64..1000) {
        let a = rand_dense(n, k, seed);
        let b = rand_dense(k, m, seed + 9);
        let mut want = DenseMatrix::zeros(n, m);
        want.gemm_acc_naive(&a, &b);
        for backend in [Backend::Scalar, Backend::active()] {
            let mut got = DenseMatrix::zeros(n, m);
            gemm_with(&mut got, &a, &b, 1, backend);
            prop_assert_eq!(bits(&got), bits(&want), "backend {:?}", backend);
        }
    }

    /// Same pinning with k crossing the KC = 192 panel boundary, so the
    /// ascending-k chain spans multiple packed panels (including a short
    /// remainder panel).
    #[test]
    fn packed_gemm_bit_identical_across_kc_panels(n in 1usize..=24, k in 150usize..=250,
                                                  m in 1usize..=24, seed in 0u64..1000) {
        let a = rand_dense(n, k, seed);
        let b = rand_dense(k, m, seed + 10);
        let mut want = DenseMatrix::zeros(n, m);
        want.gemm_acc_naive(&a, &b);
        let mut got = DenseMatrix::zeros(n, m);
        gemm_with(&mut got, &a, &b, 1, Backend::active());
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// Thread-count invariance over row-band splits that do not divide the
    /// row count: 1..=8 workers must all produce the same bits.
    #[test]
    fn packed_gemm_thread_count_invariant(threads in 2usize..=8, n in 40usize..=70,
                                          seed in 0u64..500) {
        let a = rand_dense(n, 37, seed);
        let b = rand_dense(37, 29, seed + 11);
        let mut want = DenseMatrix::zeros(n, 29);
        gemm_with(&mut want, &a, &b, 1, Backend::active());
        let mut got = DenseMatrix::zeros(n, 29);
        gemm_with(&mut got, &a, &b, threads, Backend::active());
        prop_assert_eq!(bits(&got), bits(&want), "threads {}", threads);
    }

    /// matvec rides the shared dot primitive, whose fixed four-accumulator
    /// reduction makes the SIMD and scalar paths agree bit-for-bit.
    #[test]
    fn matvec_backend_bit_invariant(n in 1usize..=40, m in 1usize..=70, seed in 0u64..1000) {
        let a = rand_dense(n, m, seed);
        let x = rand_dense(m, 1, seed + 13);
        let scalar: Vec<u64> = a.matvec_with(x.data(), Backend::Scalar)
            .iter().map(|v| v.to_bits()).collect();
        let auto: Vec<u64> = a.matvec_with(x.data(), Backend::active())
            .iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(scalar, auto);
    }
}

/// Entries spread over sixteen binades with full mantissas; with `special`,
/// about one in six is `-0.0`, `NaN`, `+∞` or `-∞`.
fn rough_dense(rows: usize, cols: usize, special: bool, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let specials = [-0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    DenseMatrix::from_fn(rows, cols, |_, _| match rng.gen_range(0..24usize) {
        s if special && s < specials.len() => specials[s],
        _ => rng.gen_range(-1.0..1.0) * f64::powi(2.0, rng.gen_range(-8..8)),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A transposed operand packed where it lies: every `(a_t, b_t)` is
    /// bit-equal to transposing the operand first and running the plain
    /// kernel at 1–8 threads, on shapes straddling the register tiles and
    /// the KC panel, over rough and special floats, on the forced-scalar and
    /// the dispatched backend.
    #[test]
    fn oriented_gemm_is_transpose_then_gemm(n in 1usize..=70, k in 1usize..=200,
                                            m in 1usize..=70, threads in 1usize..=8,
                                            special in proptest::bool::ANY,
                                            seed in 0u64..1000) {
        let a = rough_dense(n, k, special, seed);
        let b = rough_dense(k, m, special, seed + 14);
        let base = rough_dense(n, m, special, seed + 15);
        let (at, bt) = (a.transpose(), b.transpose());
        for backend in [Backend::Scalar, Backend::active()] {
            let mut want = base.clone();
            gemm_with(&mut want, &a, &b, threads, backend);
            for (a_t, b_t) in [(false, false), (true, false), (false, true), (true, true)] {
                let a_op = if a_t { &at } else { &a };
                let b_op = if b_t { &bt } else { &b };
                let a_op = PackedLeft::new((a_op.data(), a_t), (n, k), backend);
                let b_op = PackedRight::new((b_op.data(), b_t), (k, m), backend);
                let mut got = base.clone();
                gemm_packed(got.data_mut(), &a_op, &b_op);
                prop_assert_eq!(
                    bits(&got), bits(&want),
                    "({}, {}) on {:?} at {} threads", a_t, b_t, backend, threads
                );
            }
        }
    }

    /// The tile-level entry the contraction calls, packed operands: square
    /// tiles in every orientation, bit-equal to transposing first.
    #[test]
    fn oriented_tile_gemm_is_transpose_then_gemm(n in 1usize..=80, threads in 1usize..=8,
                                                 special in proptest::bool::ANY,
                                                 seed in 0u64..1000) {
        let a = rough_dense(n, n, special, seed);
        let b = rough_dense(n, n, special, seed + 16);
        let (at, bt) = (a.transpose(), b.transpose());
        let mut want = DenseMatrix::zeros(n, n);
        gemm_with(&mut want, &a, &b, threads, Backend::active());
        for (a_t, b_t) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut got = DenseMatrix::zeros(n, n);
            let a_op = if a_t { &at } else { &a };
            let b_op = if b_t { &bt } else { &b };
            got.gemm_acc_packed(&a_op.pack_left(a_t), &b_op.pack_right(b_t));
            prop_assert_eq!(bits(&got), bits(&want), "({}, {})", a_t, b_t);
        }
    }

    /// The transposed mat-vec reads the tile in place with `dot`'s lane
    /// order: bit-equal to transposing first. A NaN result is NaN on both
    /// sides, but which operand's sign and payload an `fma` passes on is the
    /// instruction form's choice (Rust leaves NaN bits unspecified), so NaNs
    /// compare as one value.
    #[test]
    fn matvec_t_is_transpose_then_matvec(n in 1usize..=40, m in 1usize..=70,
                                         special in proptest::bool::ANY,
                                         seed in 0u64..1000) {
        let a = rough_dense(n, m, special, seed);
        let x = rough_dense(n, 1, special, seed + 17);
        let canonical = |y: Vec<f64>| -> Vec<u64> {
            y.iter().map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits()).collect()
        };
        let want = canonical(a.transpose().matvec(x.data()));
        prop_assert_eq!(canonical(a.matvec_t(x.data())), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Operands packed once and multiplied many times, as the group-by-join's
    /// cell does: `C[r][q] += A[r][p] · B[p][q]` over ascending contracted
    /// blocks `p`, with each `A[r][p]` packed once for every `q` and each
    /// `B[p][q]` once for every `r`, is bit-equal to one [`gemm`] call per
    /// product on the untransposed operands, each packed on its own — in
    /// every orientation pair, on shapes crossing the register tiles, the
    /// `MC` row blocks and the `KC` panels, over rough and special floats,
    /// on the forced-scalar and the dispatched backend.
    #[test]
    fn packed_once_multiplied_many_times_is_one_gemm_per_product(
        n in prop_oneof![1usize..=40, 90usize..=120], m in 1usize..=40,
        depths in proptest::collection::vec(1usize..=250, 1..4),
        (rows, cols) in (1usize..=2, 1usize..=3),
        special in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let mut draws = seed * 64;
        let mut rough = |r, c| {
            draws += 1;
            rough_dense(r, c, special, draws)
        };
        let a: Vec<Vec<DenseMatrix>> = (0..rows)
            .map(|_| depths.iter().map(|&k| rough(n, k)).collect())
            .collect();
        let b: Vec<Vec<DenseMatrix>> = depths
            .iter()
            .map(|&k| (0..cols).map(|_| rough(k, m)).collect())
            .collect();
        let base: Vec<DenseMatrix> = (0..rows * cols).map(|_| rough(n, m)).collect();
        for backend in [Backend::Scalar, Backend::active()] {
            for (a_t, b_t) in [(false, false), (true, false), (false, true), (true, true)] {
                let stored = |x: &DenseMatrix, t: bool| if t { x.transpose() } else { x.clone() };
                let (mut want, mut got) = (base.clone(), base.clone());
                for (p, &k) in depths.iter().enumerate() {
                    let a_p: Vec<DenseMatrix> = a.iter().map(|a| stored(&a[p], a_t)).collect();
                    let b_p: Vec<DenseMatrix> = b[p].iter().map(|b| stored(b, b_t)).collect();
                    let lefts: Vec<PackedLeft> = a_p
                        .iter()
                        .map(|a| PackedLeft::new((a.data(), a_t), (n, k), backend))
                        .collect();
                    let rights: Vec<PackedRight> = b_p
                        .iter()
                        .map(|b| PackedRight::new((b.data(), b_t), (k, m), backend))
                        .collect();
                    for r in 0..rows {
                        for q in 0..cols {
                            let (a_op, b_op) = (a[r][p].data(), b[p][q].data());
                            let c = want[r * cols + q].data_mut();
                            gemm(c, a_op, b_op, n, k, m, 1, backend);
                            gemm_packed(got[r * cols + q].data_mut(), &lefts[r], &rights[q]);
                        }
                    }
                }
                for (at, (got, want)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(
                        bits(got), bits(want),
                        "C{} ({}, {}) on {:?}", at, a_t, b_t, backend
                    );
                }
            }
        }
    }
}

/// Degenerate and remainder-tail shapes, pinned bitwise: unit dims, empty
/// inner dimension, single row/column, exact tile multiples, and one-past
/// tile and panel boundaries.
#[test]
fn degenerate_and_remainder_shapes_bit_identical() {
    for &(n, k, m) in &[
        (1usize, 1usize, 1usize),
        (1, 0, 1),
        (5, 0, 9),
        (1, 193, 1),
        (6, 192, 8),
        (8, 192, 16),
        (9, 193, 17),
        (70, 50, 1),
        (1, 50, 70),
        (97, 200, 49),
    ] {
        let a = DenseMatrix::from_fn(n, k, |i, j| ((i * 31 + j * 7) % 13) as f64 * 0.37 - 1.9);
        let b = DenseMatrix::from_fn(k, m, |i, j| ((i * 17 + j * 11) % 19) as f64 * 0.23 - 1.1);
        let mut want = DenseMatrix::zeros(n, m);
        want.gemm_acc_naive(&a, &b);
        for backend in [Backend::Scalar, Backend::active()] {
            for threads in [1, 3] {
                let mut got = DenseMatrix::zeros(n, m);
                gemm_with(&mut got, &a, &b, threads, backend);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "shape ({n},{k},{m}) backend {backend:?} threads {threads}"
                );
            }
        }
    }
}
