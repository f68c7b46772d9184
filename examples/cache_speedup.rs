//! Measure what the memory-budgeted cache buys an iterative workload.
//!
//! ```text
//! cargo run --release --example cache_speedup
//! ```
//!
//! Runs the paper's Query (9) — tiled matrix multiplication under the §5.4
//! group-by-join plan — and then iterates over the product the way an
//! iterative solver does, materializing it on the driver each round for a
//! convergence check. The group-by-join plan performs its tile GEMMs in the
//! narrow stage after its band shuffles and persists its result, so with a
//! storage budget the blocks are computed once, stored in the block manager,
//! and every later iteration is a cache read; with a zero budget nothing is
//! kept and every iteration re-runs every GEMM. Prints both wall times and
//! asserts the >= 1.5x speedup the caching subsystem is supposed to deliver.

use sac::{MatMulStrategy, Session};
use std::time::Instant;
use tiled::LocalMatrix;

const ITERATIONS: usize = 4;
const SRC: &str = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, \
                   let v = a*b, group by (i,j) ]";

/// Wall time and result norm of the iterations under a storage budget of
/// `budget` bytes.
fn run(budget: usize) -> (f64, f64) {
    let mut s = Session::builder()
        .workers(4)
        .partitions(4)
        .matmul(MatMulStrategy::GroupByJoin)
        .storage_memory(budget)
        .build();
    let n = 360usize;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let a = LocalMatrix::random(n, n, -1.0, 1.0, &mut rng);
    let b = LocalMatrix::random(n, n, -1.0, 1.0, &mut rng);
    s.register_local_matrix("A", &a, 60);
    s.register_local_matrix("B", &b, 60);
    s.set_int("n", n as i64);

    let p = s.matrix(SRC).unwrap();

    let start = Instant::now();
    let mut norm = 0.0;
    for _ in 0..ITERATIONS {
        // Materialize the product on the driver, like a convergence check.
        norm = p.to_local().to_dense().frobenius_norm();
    }
    (start.elapsed().as_secs_f64(), norm)
}

fn main() {
    println!("Query (9), group-by-join, 360x360, 60x60 tiles, {ITERATIONS} materializations\n");

    // Warm up thread pools and the allocator, then take the best of two runs
    // per variant so scheduler noise can't flip the verdict.
    const KEPT: usize = 64 << 20;
    run(0);
    run(KEPT);

    let (cold_a, norm_uncached) = run(0);
    let (cold_b, _) = run(0);
    let cold = cold_a.min(cold_b);
    println!("zero storage budget: {cold:.3}s");

    let (warm_a, norm_cached) = run(KEPT);
    let (warm_b, _) = run(KEPT);
    let warm = warm_a.min(warm_b);
    println!("64 MiB budget:       {warm:.3}s");

    assert_eq!(
        norm_cached, norm_uncached,
        "cached and recomputed runs must agree bit-for-bit"
    );
    let speedup = cold / warm;
    println!("\nspeedup: {speedup:.2}x");
    assert!(
        speedup >= 1.5,
        "keeping the product must be at least 1.5x faster \
         (got {speedup:.2}x: {cold:.3}s recomputed vs {warm:.3}s cached)"
    );
}
