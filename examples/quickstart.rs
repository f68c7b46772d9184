//! Quickstart: compile and run array comprehensions on block matrices.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks through the paper's flagship queries: matrix addition (Query 8),
//! matrix multiplication (Query 9) under both contraction strategies, and
//! the Fig. 1 row-sums comprehension — showing for each the comprehension
//! text, the plan the compiler picked, and a correctness check against a
//! local oracle.

use sac::{MatMulStrategy, Session};
use tiled::{LocalMatrix, TiledMatrix};

fn main() {
    let mut session = Session::builder().workers(4).partitions(8).build();

    // Two 256x256 random matrices, tiled into 64x64 blocks.
    let n = 256usize;
    let tile = 64usize;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
    let a = LocalMatrix::random(n, n, 0.0, 10.0, &mut rng);
    let b = LocalMatrix::random(n, n, 0.0, 10.0, &mut rng);
    session.register_local_matrix("A", &a, tile);
    session.register_local_matrix("B", &b, tile);
    session.set_int("n", n as i64);

    // --- Query (8): matrix addition -------------------------------------
    let add_src = "tiled(n,n)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, \
                   ii == i, jj == j ]";
    println!("comprehension: {add_src}");
    println!("plan:          {}", session.explain(add_src).unwrap());
    let sum = session.matrix(add_src).unwrap();
    assert!(sum.to_local().approx_eq(&a.add(&b), 1e-9));
    println!("result:        OK (matches local oracle)\n");

    // --- Query (9): matrix multiplication, two strategies ----------------
    let mul_src = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, \
                   kk == k, let v = a*b, group by (i,j) ]";
    println!("comprehension: {mul_src}");
    let expected = a.multiply(&b);
    for strategy in [MatMulStrategy::ReduceByKey, MatMulStrategy::GroupByJoin] {
        session.config_mut().matmul = strategy;
        // The shuffle counts come from the run's trace.
        session.spark().trace();
        let product = session.matrix(mul_src).unwrap();
        assert!(product.to_local().max_abs_diff(&expected) < 1e-6);
        let profile = session.spark().take_profile();
        session.spark().stop_trace();
        println!(
            "plan:          {:<32} shuffles={} shuffled={} MiB",
            session.explain(mul_src).unwrap(),
            profile.shuffle_stage_count(),
            profile.total_shuffle_bytes_written() / (1 << 20),
        );
    }
    println!("result:        OK (both strategies match local oracle)\n");

    // --- Fig. 1: row sums V_i = Σ_j M_ij ---------------------------------
    let rows_src = "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]";
    println!("comprehension: {rows_src}");
    println!("plan:          {}", session.explain(rows_src).unwrap());
    let v = session.vector(rows_src).unwrap().to_local();
    let oracle = a.row_sums();
    assert!(v.iter().zip(&oracle).all(|(x, y)| (x - y).abs() < 1e-9));
    println!("result:        OK (matches local oracle)\n");

    // --- Typed API over the same pipeline ---------------------------------
    let da = TiledMatrix::from_local(session.spark(), &a, tile, 8);
    let db = TiledMatrix::from_local(session.spark(), &b, tile, 8);
    let c = sac::linalg::multiply(&session, &da, &db).unwrap();
    assert!(c.to_local().max_abs_diff(&expected) < 1e-6);
    println!("typed linalg::multiply: OK");
}
