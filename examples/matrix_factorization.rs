//! Matrix factorization by gradient descent — the paper's §6 evaluation
//! workload (Fig. 4.C), scaled to a laptop.
//!
//! ```text
//! cargo run --release --example matrix_factorization
//! ```
//!
//! Factorizes a sparse rating matrix `R (n×n, 10% non-zero, values 0..5)`
//! into low-rank factors `P (n×k)` and `Q (n×k)` with the paper's update
//! rules and hyper-parameters (γ = 0.002, λ = 0.02), running every step as
//! array comprehensions compiled to distributed plans.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sac::{linalg, MatMulStrategy, Session};
use tiled::{LocalMatrix, TiledMatrix};

fn main() {
    let n = 256usize;
    let k = 16usize;
    let tile = 64usize;
    // The paper uses γ = 0.002 at its scale (n = 20000); the gradient of the
    // squared error grows with n, so the stable step size scales as ~1/n.
    let gamma = 0.25 / n as f64;
    let lambda = 0.02;
    let iterations = 10;

    // A pinned budget that holds every block, so the residency check after
    // the loop counts exactly.
    let mut session = Session::builder()
        .workers(4)
        .partitions(8)
        .matmul(MatMulStrategy::GroupByJoin)
        .storage_memory(64 << 20)
        .build();

    let mut rng = StdRng::seed_from_u64(7);
    let r = LocalMatrix::sparse_random(n, n, 0.10, &mut rng);
    let p0 = LocalMatrix::random(n, k, 0.0, 1.0, &mut rng);
    let q0 = LocalMatrix::random(n, k, 0.0, 1.0, &mut rng);

    let dr = TiledMatrix::from_local(session.spark(), &r, tile, 8).cache();
    let mut dp = TiledMatrix::from_local(session.spark(), &p0, tile, 8);
    let mut dq = TiledMatrix::from_local(session.spark(), &q0, tile, 8);

    println!("factorizing {n}x{n} rating matrix into rank-{k} factors");
    println!("iter      ||R - P*Qt||^2");
    let initial = linalg::factorization_error(&session, &dr, &dp, &dq).unwrap();
    println!("   0      {initial:>14.2}");

    let mut last = initial;
    for it in 1..=iterations {
        let (p2, q2) = linalg::factorization_step(&session, &dr, &dp, &dq, gamma, lambda).unwrap();
        dp = p2.cache();
        dq = q2.cache();
        let err = linalg::factorization_error(&session, &dr, &dp, &dq).unwrap();
        println!("{it:>4}      {err:>14.2}");
        assert!(
            err <= last * 1.0001,
            "gradient descent diverged at iteration {it}"
        );
        last = err;
    }
    assert!(
        last < initial,
        "error must decrease over {iterations} iterations"
    );
    // Each iteration's cached factors replaced the last ones, and the
    // products inside a step died with the step: only R, P and Q stay.
    let resident: usize = [&dr, &dp, &dq]
        .iter()
        .map(|m| m.tiles().num_partitions())
        .sum();
    assert_eq!(
        session.storage_status().blocks_in_memory,
        resident,
        "only dr's, dp's and dq's blocks may outlive the loop"
    );

    // Every multiplication inside the loop ran through the comprehension
    // compiler; switching the strategy re-plans the same text.
    session.config_mut().matmul = MatMulStrategy::ReduceByKey;
    let (p_rbk, _) = linalg::factorization_step(&session, &dr, &dp, &dq, gamma, lambda).unwrap();
    session.config_mut().matmul = MatMulStrategy::GroupByJoin;
    let (p_gbj, _) = linalg::factorization_step(&session, &dr, &dp, &dq, gamma, lambda).unwrap();
    assert!(
        p_rbk.to_local().max_abs_diff(&p_gbj.to_local()) < 1e-9,
        "both contraction strategies must agree"
    );
    println!("\nreduceByKey and group-by-join strategies agree; done.");
}
