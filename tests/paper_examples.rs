//! End-to-end tests: every worked example in the paper, run through the full
//! pipeline (parse → normalize → plan → distributed execution) and compared
//! against the naive local oracle.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sac_repro::sac::{MatMulStrategy, Session};
use sac_repro::tiled::LocalMatrix;

fn session() -> Session {
    Session::builder().workers(4).partitions(4).build()
}

fn rand_mat(r: usize, c: usize, seed: u64) -> LocalMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    LocalMatrix::random(r, c, -2.0, 2.0, &mut rng)
}

/// Fig. 1: `V = [ (i, +/m) | ((i,j),m) <- M, group by i ]`.
#[test]
fn fig1_row_sums() {
    let mut s = session();
    let m = rand_mat(10, 14, 1);
    s.register_local_matrix("M", &m, 4);
    s.set_int("n", 10);
    let v = s
        .vector("tiled_vector(n)[ (i, +/m) | ((i,j),m) <- M, group by i ]")
        .unwrap()
        .to_local();
    for (got, want) in v.iter().zip(m.row_sums()) {
        assert!((got - want).abs() < 1e-9);
    }
}

/// Query (8): matrix addition, both the explicit-join form and the
/// array-indexing form `a + N[i,j]` (§2's rewriting).
#[test]
fn query8_matrix_addition_both_forms() {
    let mut s = session();
    let a = rand_mat(9, 7, 2);
    let b = rand_mat(9, 7, 3);
    s.register_local_matrix("M", &a, 4);
    s.register_local_matrix("N", &b, 4);
    s.set_int("n", 9);
    s.set_int("m", 7);
    let expected = a.add(&b);

    let joined = s
        .matrix(
            "tiled(n,m)[ ((i,j), a+b) | ((i,j),a) <- M, ((ii,jj),b) <- N, \
             ii == i, jj == j ]",
        )
        .unwrap();
    assert!(joined.to_local().approx_eq(&expected, 1e-12));

    let indexed = s
        .matrix("tiled(n,m)[ ((i,j), a + N[i,j]) | ((i,j),a) <- M ]")
        .unwrap();
    assert!(indexed.to_local().approx_eq(&expected, 1e-12));
}

/// Query (9): matrix multiplication under every explicit strategy, including
/// the broadcast contraction the adaptive planner adds.
#[test]
fn query9_matrix_multiplication_all_strategies() {
    let mut s = session();
    let a = rand_mat(12, 8, 4);
    let b = rand_mat(8, 10, 5);
    s.register_local_matrix("M", &a, 4);
    s.register_local_matrix("N", &b, 4);
    s.set_int("n", 12);
    s.set_int("m", 10);
    let src = "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- M, ((kk,j),b) <- N, \
               kk == k, let v = a*b, group by (i,j) ]";
    let expected = a.multiply(&b);
    for strategy in [
        MatMulStrategy::JoinGroupBy,
        MatMulStrategy::ReduceByKey,
        MatMulStrategy::GroupByJoin,
        MatMulStrategy::Broadcast,
    ] {
        s.config_mut().matmul = strategy;
        let got = s.matrix(src).unwrap().to_local();
        assert!(
            got.max_abs_diff(&expected) < 1e-9,
            "strategy {strategy:?} disagrees with the oracle"
        );
    }
}

/// §3's smoothing comprehension, with the boundary handling.
#[test]
fn section3_smoothing() {
    let mut s = session();
    let m = rand_mat(11, 9, 6);
    s.register_local_matrix("M", &m, 4);
    s.set_int("n", 11);
    s.set_int("m", 9);
    let got = s
        .matrix(
            "tiled(n,m)[ ((ii,jj), (+/a)/a.length) | ((i,j),a) <- M, \
             ii <- (i-1) to (i+1), jj <- (j-1) to (j+1), \
             ii >= 0, ii < n, jj >= 0, jj < m, group by (ii,jj) ]",
        )
        .unwrap()
        .to_local();
    assert!(got.approx_eq(&m.smooth(), 1e-9));
}

/// §5.2's row rotation.
#[test]
fn section52_row_rotation() {
    let mut s = session();
    let m = rand_mat(10, 6, 7);
    s.register_local_matrix("X", &m, 4);
    s.set_int("n", 10);
    s.set_int("m", 6);
    let got = s
        .matrix("tiled(n,m)[ (((i+1)%n, j), v) | ((i,j),v) <- X ]")
        .unwrap()
        .to_local();
    for i in 0..10 {
        for j in 0..6 {
            assert_eq!(got.get((i + 1) % 10, j), m.get(i, j));
        }
    }
}

/// `-0.0`, NaN and ±∞ come out of §5.2's rotation and of a §3
/// smoothing-shaped group-by with the reference interpreter's bits: the
/// output grid is completed by writing the tiles no element reaches, never by
/// adding a `+0.0` tile to every tile (which turned `-0.0` into `+0.0`), and
/// `+` folds from its IEEE identity `-0.0`.
#[test]
fn special_floats_survive_remap_and_group_by_bit_for_bit() {
    let m = LocalMatrix::from_fn(4, 4, |i, j| match (i, j) {
        (0, 0) => f64::NAN,
        (3, 3) => f64::INFINITY,
        (3, 0) => f64::NEG_INFINITY,
        _ => -0.0,
    });
    let mut s = session();
    s.register_local_matrix("M", &m, 2);
    let dims = [("n", 4), ("m", 4)];
    dims.iter().for_each(|&(name, v)| s.set_int(name, v));
    for src in [
        "tiled(n,m)[ (((i+1)%n, j), v) | ((i,j),v) <- M ]",
        // No window mixes +∞ with -∞, so every cell has one correct bit
        // pattern whatever the summation order.
        "tiled(n,m)[ ((ii,jj), (+/a)/a.length) | ((i,j),a) <- M, \
         ii <- (i-1) to (i+1), jj <- (j-1) to (j+1), \
         ii >= 0, ii < n, jj >= 0, jj < m, group by (ii,jj) ]",
    ] {
        let got = s.matrix(src).unwrap().to_local();
        let want = common::interpret(src, &[("M", common::matrix(&m))], &dims);
        let want = common::interpreted_matrix(want, 4, 4);
        assert!(want
            .data()
            .iter()
            .any(|x| x.to_bits() == (-0.0f64).to_bits()));
        assert_eq!(common::bits(got.data()), common::bits(want.data()), "{src}");
    }
}

/// `/` of two integers is the interpreter's Euclidean division wherever the
/// head value is compiled: a constant pair folds, an index over an integer
/// plans by a rule that keeps the interpreter's semantics, and a float
/// operand stays float division on the fused path. Entries are quarter
/// steps, so every sum is exact whatever the plan's order and the bits must
/// agree.
#[test]
fn integer_division_matches_the_interpreter() {
    let m = LocalMatrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64 * 0.25 - 1.5);
    let x: Vec<f64> = (0..4).map(|i| i as f64 * 0.75 - 1.0).collect();
    let mut s = session();
    s.register_local_matrix("A", &m, 2);
    s.register_vector(
        "X",
        sac_repro::tiled::TiledVector::from_local(s.spark(), &x, 2, 2),
    );
    s.set_int("n", 4);
    let arrays = [("A", common::matrix(&m)), ("X", common::vector(&x))];
    let matrix_rows = [
        ("tiled(n,n)[ ((i,j), a + i/2) | ((i,j),a) <- A ]", None),
        ("tiled(n,n)[ ((i,j), a * (j/3)) | ((i,j),a) <- A ]", None),
        (
            "tiled(n,n)[ ((i,j), a * (3/2)) | ((i,j),a) <- A ]",
            Some("eltwise"),
        ),
        (
            "tiled(n,n)[ ((i,j), a / 2) | ((i,j),a) <- A ]",
            Some("eltwise"),
        ),
        (
            "tiled(n,n)[ (((i+1)%n, j), v + i/2) | ((i,j),v) <- A ]",
            None,
        ),
    ];
    for (src, plan) in matrix_rows {
        if let Some(plan) = plan {
            assert!(s.explain(src).unwrap().contains(plan), "{src}");
        }
        let got = s.matrix(src).unwrap().to_local();
        let want = common::interpret(src, &arrays, &[("n", 4)]);
        let want = common::interpreted_matrix(want, 4, 4);
        assert_eq!(common::bits(got.data()), common::bits(want.data()), "{src}");
    }
    for src in [
        "tiled_vector(n)[ (i, x + i/2) | (i,x) <- X ]",
        "tiled_vector(n)[ (i, +/w) | ((i,j),m) <- A, let w = m*(j/2), group by i ]",
    ] {
        let got = s.vector(src).unwrap().to_local();
        let want = common::interpreted_vector(common::interpret(src, &arrays, &[("n", 4)]));
        assert_eq!(common::bits(&got), common::bits(&want), "{src}");
    }
}

/// §2's "is the vector sorted" total aggregation, evaluated via the session.
#[test]
fn section2_is_sorted() {
    let s = session();
    let mut s = s;
    let sorted = LocalMatrix::from_fn(1, 8, |_, j| j as f64);
    s.register_local_matrix("V", &sorted, 4);
    // Express over the matrix's (0,j) row: consecutive columns ordered.
    let got = s
        .value("&&/[ v <= w | ((i,j),v) <- V, ((ii,jj),w) <- V, ii == i, jj == j+1 ]")
        .unwrap();
    assert_eq!(got, sac_repro::comp::Value::Bool(true));
}

/// Matrix diagonal (§5.1's second tiling-preserving example, here exercised
/// through the fallback path since the fast rules don't cover it).
#[test]
fn section51_diagonal() {
    let mut s = session();
    let m = rand_mat(8, 8, 8);
    s.register_local_matrix("A", &m, 4);
    s.set_int("n", 8);
    let got = s
        .vector("tiled_vector(n)[ (i, a) | ((i,j),a) <- A, i == j ]")
        .unwrap()
        .to_local();
    for (i, g) in got.iter().enumerate() {
        assert!((g - m.get(i, i)).abs() < 1e-12);
    }
}

/// Transpose through the swapped-key comprehension (tiling preserving).
#[test]
fn transpose_comprehension() {
    let mut s = session();
    let m = rand_mat(7, 11, 9);
    s.register_local_matrix("A", &m, 4);
    s.set_int("n", 7);
    s.set_int("m", 11);
    let got = s
        .matrix("tiled(m,n)[ ((j,i), a) | ((i,j),a) <- A ]")
        .unwrap()
        .to_local();
    assert!(got.approx_eq(&m.transpose(), 1e-12));
}

/// The §5 tiled builder/sparsifier pair: going through the association list
/// must be the identity.
#[test]
fn section5_sparsifier_builder_roundtrip() {
    let s = session();
    let m = rand_mat(9, 13, 10);
    let t = sac_repro::tiled::TiledMatrix::from_local(s.spark(), &m, 4, 4);
    let back = sac_repro::tiled::sparsify::retile(&t, 4);
    assert_eq!(back.to_local(), m);
}

/// Iterative query (9) workload: repeated matrix squaring `A := A * A`,
/// where both generators range over the same input. The planner auto-persists
/// the shared matrix, and the event log must show each block computed exactly
/// once per iteration — and, under an eviction-forcing budget, that
/// lineage recomputation converges to the same result.
#[test]
fn iterative_squaring_computes_each_shared_block_once_per_iteration() {
    use sac_repro::sparkline::Event;
    use std::collections::HashMap;

    let src = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- A, kk == k, \
               let v = a*b, group by (i,j) ]";
    let iterations = 3;

    let run = |storage: Option<usize>| {
        // chaos_off: the exactly-once-per-iteration assertion below is void
        // under injected executor kills (lost blocks legitimately recompute).
        // `None` pins an ample budget rather than inheriting the env knob —
        // a deliberately tiny SPARKLINE_STORAGE_BUDGET would evict here too.
        let mut builder = Session::builder().workers(4).partitions(4).chaos_off();
        builder = builder.storage_memory(storage.unwrap_or(64 << 20));
        let mut s = builder.build();
        s.register_local_matrix("A", &rand_mat(8, 8, 13), 4);
        s.set_int("n", 8);
        s.spark().trace();
        let mut per_iteration = Vec::new();
        let mut result = None;
        for _ in 0..iterations {
            let squared = s.matrix(src).unwrap();
            // Materialize before rebinding: `register_matrix` drops the
            // superseded overlay's blocks.
            let local = squared.to_local();
            per_iteration.push(s.spark().take_events());
            s.register_matrix("A", squared);
            result = Some(local);
        }
        (result.unwrap(), per_iteration)
    };

    // Unlimited budget: every persisted block is computed exactly once per
    // iteration (one miss), and the second generator's reads all hit.
    let (unlimited, rounds) = run(None);
    for (iter, events) in rounds.iter().enumerate() {
        let mut computed: HashMap<(u64, usize), usize> = HashMap::new();
        let mut hits = 0;
        for e in events {
            match e {
                Event::CacheMiss {
                    dataset, partition, ..
                } => *computed.entry((*dataset, *partition)).or_insert(0) += 1,
                Event::CacheHit { .. } => hits += 1,
                Event::CacheRecompute { .. } => {
                    panic!("iteration {iter}: nothing should recompute without a budget")
                }
                _ => {}
            }
        }
        assert!(
            !computed.is_empty(),
            "iteration {iter} must auto-persist the shared input"
        );
        assert!(
            computed.values().all(|&n| n == 1),
            "iteration {iter}: a shared block was computed more than once: {computed:?}"
        );
        assert!(hits > 0, "iteration {iter}: second reference must hit");
    }

    // Thrashing budget: blocks are evicted and recomputed from lineage, but
    // the fixpoint is bit-for-bit the same.
    let (tiny, rounds) = run(Some(600));
    let all: Vec<Event> = rounds.into_iter().flatten().collect();
    assert!(
        all.iter().any(|e| matches!(e, Event::CacheEvict { .. })),
        "a 600-byte budget must evict"
    );
    assert!(
        all.iter()
            .any(|e| matches!(e, Event::CacheRecompute { .. })),
        "evicted blocks must be recomputed from lineage"
    );
    assert_eq!(
        tiny, unlimited,
        "eviction-forced recomputation diverged from the cached run"
    );
}

/// The normalization pipeline must leave plans executable for every paper
/// query (idempotence + plan-ability).
#[test]
fn paper_queries_all_plan() {
    let mut s = session();
    s.register_local_matrix("M", &rand_mat(8, 8, 11), 4);
    s.register_local_matrix("N", &rand_mat(8, 8, 12), 4);
    s.set_int("n", 8);
    s.set_int("m", 8);
    for (src, expected_plan) in [
        (
            // Elementwise regions plan as one fused kernel since the fuse pass.
            "tiled(n,m)[ ((i,j), a+b) | ((i,j),a) <- M, ((ii,jj),b) <- N, ii == i, jj == j ]",
            "eltwise/fused",
        ),
        (
            // Tiny operands under the default broadcast budget: the adaptive
            // planner resolves the contraction to the broadcast strategy.
            "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- M, ((kk,j),b) <- N, kk == k, \
             let v = a*b, group by (i,j) ]",
            "contraction/broadcast",
        ),
        (
            "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- M, group by i ]",
            "axisReduce",
        ),
        (
            "tiled(n,m)[ (((i+1)%n, j), v) | ((i,j),v) <- M ]",
            "indexRemap",
        ),
        (
            "tiled(n,m)[ ((ii,jj), (+/a)/a.length) | ((i,j),a) <- M, \
             ii <- (i-1) to (i+1), jj <- (j-1) to (j+1), \
             ii >= 0, ii < n, jj >= 0, jj < m, group by (ii,jj) ]",
            "groupByAggregate",
        ),
    ] {
        let planned = s.compile(src).unwrap();
        assert_eq!(
            planned.plan.strategy_name(),
            expected_plan,
            "unexpected plan for {src}"
        );
    }
}
