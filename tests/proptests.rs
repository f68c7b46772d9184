//! Property-based tests over the whole stack: random shapes, tile sizes, and
//! contents; distributed plans must agree with the naive local oracle, and
//! the storage mappings must be lossless.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac_repro::mllib::BlockMatrix;
use sac_repro::sac::{MatMulStrategy, Session};
use sac_repro::tiled::{sparsify, CscTile, LocalMatrix, TiledMatrix, TiledVector};

/// Index remaps (§5.2, rule 19) over an `n x m` matrix `A`, one per shape
/// the lowering distinguishes.
const REMAPS: [&str; 10] = [
    // §5.2's rotation: separable, a row table and the identity on columns.
    "tiled(n,m)[ (((i+1)%n, j), v) | ((i,j),v) <- A ]",
    // A value that reads indices runs as a fused tile program.
    "tiled(n,m)[ (((i+1)%n, j), 2.0*v + i) | ((i,j),v) <- A ]",
    // Reversal.
    "tiled(n,m)[ ((i, m-1-j), v) | ((i,j),v) <- A ]",
    // Out-of-range elements drop.
    "tiled(n,m)[ ((i+1, j), v) | ((i,j),v) <- A ]",
    // Non-injective: the row-major last element of each cell wins.
    "tiled(n,m)[ ((i/2, j), v) | ((i,j),v) <- A ]",
    "tiled(n,m)[ ((0, j), v) | ((i,j),v) <- A ]",
    "tiled(n,m)[ ((i, 0), v) | ((i,j),v) <- A ]",
    // Crossed: the output row reads the source column.
    "tiled(n,m)[ ((j%n, (i+1)%m), v) | ((i,j),v) <- A ]",
    // Not separable: evaluated over each tile's index planes.
    "tiled(n,m)[ (((i+j)%n, j), v) | ((i,j),v) <- A ]",
    "tiled(n,m)[ ((i, i%m), v) | ((i,j),v) <- A ]",
];

fn rand_mat(r: usize, c: usize, seed: u64) -> LocalMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    LocalMatrix::random(r, c, -3.0, 3.0, &mut rng)
}

fn session(strategy: MatMulStrategy) -> Session {
    Session::builder()
        .workers(2)
        .partitions(3)
        .matmul(strategy)
        .build()
}

/// An integer-valued matrix (optionally ~70% zeros): f64 summation over
/// small integers is exact, so every reduction order yields bit-identical
/// results.
fn int_mat(r: usize, c: usize, seed: u64, sparse: bool) -> LocalMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    LocalMatrix::from_fn(r, c, |_, _| {
        if sparse && rng.gen_range(0..10) < 7 {
            0.0
        } else {
            rng.gen_range(-3i64..4) as f64
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `build ∘ sparsify = id` for arbitrary shapes and tile sizes (§1.1's
    /// inverse-pair requirement).
    #[test]
    fn tiled_roundtrip(rows in 1usize..20, cols in 1usize..20,
                       tile in 1usize..7, seed in 0u64..1000) {
        let ctx = sac_repro::sparkline::Context::builder().workers(2).build();
        let m = rand_mat(rows, cols, seed);
        let t = TiledMatrix::from_local(&ctx, &m, tile, 2);
        prop_assert_eq!(t.to_local(), m.clone());
        let back = sparsify::retile(&t, 2);
        prop_assert_eq!(back.to_local(), m);
    }

    /// Block vectors round-trip for arbitrary lengths and block sizes.
    #[test]
    fn vector_roundtrip(len in 1usize..40, block in 1usize..9, seed in 0u64..1000) {
        let ctx = sac_repro::sparkline::Context::builder().workers(2).build();
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let v = TiledVector::from_local(&ctx, &data, block, 2);
        prop_assert_eq!(v.to_local(), data);
    }

    /// Distributed addition equals the oracle for every shape/tiling.
    #[test]
    fn addition_matches_oracle(rows in 1usize..14, cols in 1usize..14,
                               tile in 1usize..6, seed in 0u64..500) {
        let s = session(MatMulStrategy::GroupByJoin);
        let a = rand_mat(rows, cols, seed);
        let b = rand_mat(rows, cols, seed + 7000);
        let ta = TiledMatrix::from_local(s.spark(), &a, tile, 2);
        let tb = TiledMatrix::from_local(s.spark(), &b, tile, 2);
        let got = sac_repro::sac::linalg::add(&s, &ta, &tb).unwrap().to_local();
        prop_assert!(got.approx_eq(&a.add(&b), 1e-10));
    }

    /// Distributed multiplication equals the oracle for every shape, tiling,
    /// and strategy (the contraction dimension need not divide the tile).
    #[test]
    fn multiplication_matches_oracle(n in 1usize..10, k in 1usize..10, m in 1usize..10,
                                     tile in 1usize..5, seed in 0u64..500,
                                     gbj in proptest::bool::ANY) {
        let strategy = if gbj { MatMulStrategy::GroupByJoin } else { MatMulStrategy::ReduceByKey };
        let s = session(strategy);
        let a = rand_mat(n, k, seed);
        let b = rand_mat(k, m, seed + 9000);
        let ta = TiledMatrix::from_local(s.spark(), &a, tile, 2);
        let tb = TiledMatrix::from_local(s.spark(), &b, tile, 2);
        let got = sac_repro::sac::linalg::multiply(&s, &ta, &tb).unwrap().to_local();
        prop_assert!(got.max_abs_diff(&a.multiply(&b)) < 1e-8);
    }

    /// Every contraction strategy — the three shuffling plans, the broadcast
    /// plan, and the adaptive default — must produce **bit-identical**
    /// results to each other and to the driver-side oracle, even while a
    /// seeded chaos schedule kills executors and a tiny storage budget
    /// forces evictions. Integer-valued inputs make the f64 sums exact in
    /// every reduction order, so exact equality is the right assertion.
    #[test]
    fn all_matmul_strategies_bit_identical(n in 1usize..8, k in 1usize..8, m in 1usize..8,
                                           tile in 1usize..5, seed in 0u64..400,
                                           sparse in proptest::bool::ANY) {
        let a = int_mat(n, k, seed, sparse);
        let b = int_mat(k, m, seed + 13000, sparse);
        let want = a.multiply(&b);
        for strategy in [
            MatMulStrategy::JoinGroupBy,
            MatMulStrategy::ReduceByKey,
            MatMulStrategy::GroupByJoin,
            MatMulStrategy::Broadcast,
            MatMulStrategy::Auto,
        ] {
            let s = Session::builder()
                .workers(2)
                .partitions(3)
                .matmul(strategy)
                .storage_memory(256)
                .max_task_attempts(8)
                .max_stage_attempts(12)
                .chaos(sac_repro::sparkline::ChaosPlan::seeded(seed + 17, 2))
                .build();
            let ta = TiledMatrix::from_local(s.spark(), &a, tile, 2);
            let tb = TiledMatrix::from_local(s.spark(), &b, tile, 2);
            let got = sac_repro::sac::linalg::multiply(&s, &ta, &tb).unwrap().to_local();
            prop_assert_eq!(&got, &want, "strategy {:?} diverged", strategy);
        }
    }

    /// MLlib baseline multiplication equals the oracle too.
    #[test]
    fn mllib_multiplication_matches_oracle(n in 1usize..10, k in 1usize..10, m in 1usize..10,
                                           tile in 1usize..5, seed in 0u64..500) {
        let ctx = sac_repro::sparkline::Context::builder().workers(2).build();
        let a = rand_mat(n, k, seed);
        let b = rand_mat(k, m, seed + 11000);
        let ba = BlockMatrix::from_local(&ctx, &a, tile, 3);
        let bb = BlockMatrix::from_local(&ctx, &b, tile, 3);
        prop_assert!(ba.multiply(&bb).to_local().max_abs_diff(&a.multiply(&b)) < 1e-8);
    }

    /// Transpose as a comprehension equals the oracle.
    #[test]
    fn transpose_matches_oracle(rows in 1usize..14, cols in 1usize..14,
                                tile in 1usize..6, seed in 0u64..500) {
        let s = session(MatMulStrategy::GroupByJoin);
        let a = rand_mat(rows, cols, seed);
        let ta = TiledMatrix::from_local(s.spark(), &a, tile, 2);
        let got = sac_repro::sac::linalg::transpose(&s, &ta).unwrap().to_local();
        prop_assert!(got.approx_eq(&a.transpose(), 1e-12));
    }

    /// Row sums (Fig. 1) equal the oracle for all shapes.
    #[test]
    fn row_sums_match_oracle(rows in 1usize..14, cols in 1usize..14,
                             tile in 1usize..6, seed in 0u64..500) {
        let s = session(MatMulStrategy::GroupByJoin);
        let a = rand_mat(rows, cols, seed);
        let ta = TiledMatrix::from_local(s.spark(), &a, tile, 2);
        let got = sac_repro::sac::linalg::row_sums(&s, &ta).unwrap().to_local();
        let want = a.row_sums();
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-9);
        }
    }

    /// Rule 19 — §5.2's rotation and every other shape of index remap — is
    /// the reference interpreter's result bit for bit, on rough floats with
    /// `-0.0`, NaN and ±∞ mixed in, for every shape, tile size and partition
    /// count: where several elements land on one cell the row-major last
    /// wins, and untouched cells are `+0.0`.
    #[test]
    fn rotation_matches_oracle(rows in 2usize..14, cols in 1usize..10,
                               tile in 1usize..6, partitions in 1usize..6,
                               seed in 0u64..500, query in 0usize..REMAPS.len()) {
        let src = REMAPS[query];
        let a = common::rough_special(rows, cols, &mut StdRng::seed_from_u64(seed));
        let mut s = Session::builder().workers(2).partitions(partitions).build();
        s.register_local_matrix("A", &a, tile);
        let dims = [("n", rows as i64), ("m", cols as i64)];
        dims.iter().for_each(|&(name, v)| s.set_int(name, v));
        prop_assert!(s.explain(src).unwrap().contains("indexRemap"), "{}", src);
        let got = s.matrix(src).unwrap().to_local();
        let want = common::interpreted_matrix(common::interpret(src, &[("A", common::matrix(&a))], &dims), rows, cols);
        prop_assert_eq!(common::bits(got.data()), common::bits(want.data()), "{}", src);
    }

    /// Fig. 1's row and column reductions with an index-reading value, bit
    /// for bit on rough floats with `-0.0`, NaN and ±∞, for every shape, tile
    /// size and partition count. The stated order: each tile's slice of a
    /// row (column) folds in ascending index, then the slices fold in
    /// ascending block order — so the oracle is the interpreter's per-element
    /// values folded that way, and where one tile spans the reduced axis it
    /// is the interpreter's own `+/`.
    #[test]
    fn axis_reduce_matches_interpreter(rows in 1usize..14, cols in 1usize..14,
                                       tile in 1usize..6, partitions in 1usize..6,
                                       seed in 0u64..500, by_row in proptest::bool::ANY) {
        // `+/(m*j)`, with the product bound before the group-by so that the
        // interpreter, which lifts `m` and `j` to lists there, reads it too.
        let (src, values) = if by_row {
            ("tiled_vector(n)[ (i, +/w) | ((i,j),m) <- A, let w = m*j, group by i ]",
             "tiled(n,m)[ ((i,j), m*j) | ((i,j),m) <- A ]")
        } else {
            ("tiled_vector(m)[ (j, +/w) | ((i,j),v) <- A, let w = v*i, group by j ]",
             "tiled(n,m)[ ((i,j), v*i) | ((i,j),v) <- A ]")
        };
        let a = common::rough_special(rows, cols, &mut StdRng::seed_from_u64(seed));
        let mut s = Session::builder().workers(2).partitions(partitions).build();
        s.register_local_matrix("A", &a, tile);
        let dims = [("n", rows as i64), ("m", cols as i64)];
        dims.iter().for_each(|&(name, v)| s.set_int(name, v));
        prop_assert!(s.explain(src).unwrap().contains("axisReduce"));
        let got = s.vector(src).unwrap().to_local();

        let values = common::interpret(values, &[("A", common::matrix(&a))], &dims);
        let values = common::interpreted_matrix(values, rows, cols);
        let lines = if by_row { values } else { values.transpose() };
        let want: Vec<f64> = (0..lines.rows)
            .map(|l| {
                let line: Vec<f64> = (0..lines.cols).map(|k| lines.get(l, k)).collect();
                let slices = line.chunks(tile).map(|s| s.iter().fold(-0.0, |acc, x| acc + x));
                slices.reduce(|acc, x| acc + x).unwrap()
            })
            .collect();
        prop_assert_eq!(common::bits(&got), common::bits(&want), "{}", src);
        if tile >= lines.cols {
            let direct = common::interpreted_vector(common::interpret(src, &[("A", common::matrix(&a))], &dims));
            prop_assert_eq!(common::bits(&got), common::bits(&direct), "{}", src);
        }
    }

    /// Smoothing (stencil plan) equals the oracle for all shapes.
    #[test]
    fn smoothing_matches_oracle(rows in 1usize..10, cols in 1usize..10,
                                tile in 1usize..5, seed in 0u64..300) {
        let s = session(MatMulStrategy::GroupByJoin);
        let a = rand_mat(rows, cols, seed);
        let ta = TiledMatrix::from_local(s.spark(), &a, tile, 2);
        let got = sac_repro::sac::linalg::smooth(&s, &ta).unwrap().to_local();
        prop_assert!(got.approx_eq(&a.smooth(), 1e-9));
    }

    /// CSC compression is lossless and its GEMM agrees with dense.
    #[test]
    fn csc_roundtrip_and_gemm(rows in 1usize..12, cols in 1usize..12,
                              inner in 1usize..12, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = LocalMatrix::sparse_random(rows, inner, 0.3, &mut rng).to_dense();
        let b = rand_mat(inner, cols, seed + 5).to_dense();
        let csc = CscTile::from_dense(&a);
        prop_assert_eq!(csc.to_dense(), a.clone());
        let mut got = sac_repro::tiled::DenseMatrix::zeros(rows, cols);
        csc.spmm_acc(&b, &mut got);
        prop_assert!(got.approx_eq(&a.multiply(&b), 1e-9));
    }

    /// The runtime's reduce_by_key sums agree with a sequential fold for any
    /// key skew and partitioning.
    #[test]
    fn reduce_by_key_matches_sequential(data in proptest::collection::vec((0i64..8, -100i64..100), 0..200),
                                        parts in 1usize..6, red in 1usize..6) {
        let ctx = sac_repro::sparkline::Context::builder().workers(3).build();
        let mut expected = std::collections::HashMap::new();
        for (k, v) in &data {
            *expected.entry(*k).or_insert(0i64) += v;
        }
        let got = ctx.parallelize(data, parts).reduce_by_key(red, |a, b| a + b).collect_map();
        prop_assert_eq!(got, expected);
    }

    /// Group-by comprehension semantics: the reference evaluator's group-by
    /// sums equal a hash-map fold, for arbitrary key/value streams.
    #[test]
    fn evaluator_group_by_matches_fold(data in proptest::collection::vec((0i64..6, -50i64..50), 0..60)) {
        use sac_repro::comp::{eval, parse_expr, Env, Value};
        let list = Value::List(
            data.iter()
                .map(|(k, v)| Value::Tuple(vec![Value::Int(*k), Value::Int(*v)]))
                .collect(),
        );
        let mut env = Env::new();
        env.bind("D", list);
        let ast = parse_expr("[ (k, +/v) | (k,v) <- D, group by k ]").unwrap();
        let got = eval(&ast, &mut env).unwrap();
        let Value::List(rows) = got else { panic!() };
        let mut expected = std::collections::HashMap::new();
        for (k, v) in &data {
            *expected.entry(*k).or_insert(0i64) += v;
        }
        prop_assert_eq!(rows.len(), expected.len());
        for row in rows {
            let Value::Tuple(kv) = row else { panic!() };
            let (Value::Int(k), Value::Int(s)) = (&kv[0], &kv[1]) else { panic!() };
            prop_assert_eq!(expected[k], *s);
        }
    }
}

/// End-to-end 384x384 distributed matmul under a seeded chaos schedule,
/// pinned bit-identical to the driver-side naive oracle. With 128-wide
/// tiles every tile GEMM runs the packed SIMD microkernel's threaded
/// row-band path; integer inputs make the f64 sums exact in every reduction
/// order, so kernel blocking, backend dispatch, and fault recovery must not
/// move a single bit.
#[test]
fn e2e_384_matmul_under_seeded_chaos_bit_identical() {
    let n = 384;
    let a = int_mat(n, n, 77, false);
    let b = int_mat(n, n, 78, true);
    let want = a.multiply(&b);
    let s = Session::builder()
        .workers(2)
        .partitions(3)
        .matmul(MatMulStrategy::Auto)
        .max_task_attempts(8)
        .max_stage_attempts(12)
        .chaos(sac_repro::sparkline::ChaosPlan::seeded(99, 2))
        .build();
    let ta = TiledMatrix::from_local(s.spark(), &a, 128, 2);
    let tb = TiledMatrix::from_local(s.spark(), &b, 128, 2);
    let got = sac_repro::sac::linalg::multiply(&s, &ta, &tb)
        .unwrap()
        .to_local();
    assert_eq!(&got, &want);
}
