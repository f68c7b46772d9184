//! Profile the same matrix multiplication under both contraction plans.
//!
//! ```text
//! cargo run --release --example profile_matmul
//! ```
//!
//! Runs Query (9) of the paper once with the §4 naive plan (join +
//! groupByKey) and once with the §5.4 group-by-join (SUMMA) plan, and prints
//! the two `explain_analyze` profiles side by side: per-stage task counts,
//! wall times, max/median task skew, and shuffle bytes read/written. The
//! difference in plan shape — two shuffle rounds with an uncombined
//! groupByKey versus one round of two band shuffles — is the paper's central performance
//! claim, here measured rather than asserted.

use sac::{MatMulStrategy, Session};
use tiled::LocalMatrix;

fn main() {
    let mut session = Session::builder().workers(4).partitions(8).build();

    let n = 256usize;
    let tile = 64usize;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let a = LocalMatrix::random(n, n, 0.0, 1.0, &mut rng);
    let b = LocalMatrix::random(n, n, 0.0, 1.0, &mut rng);
    session.register_local_matrix("A", &a, tile);
    session.register_local_matrix("B", &b, tile);
    session.set_int("n", n as i64);

    let mul_src = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, \
                   kk == k, let v = a*b, group by (i,j) ]";
    println!("comprehension: {mul_src}\n");

    for strategy in [MatMulStrategy::JoinGroupBy, MatMulStrategy::GroupByJoin] {
        session.config_mut().matmul = strategy;
        let analysis = session.explain_analyze(mul_src).unwrap();
        println!("=== {strategy:?} ===");
        println!("{analysis}");
        let shuffled: u64 = analysis.profile.total_shuffle_bytes_written();
        println!(
            "total shuffle write: {}\n",
            sparkline::profile::fmt_bytes(shuffled)
        );
    }
    println!(
        "The join+groupBy plan needs two shuffle rounds — the join, then a \
         groupByKey that carries every partial-product tile as a list element \
         with no map-side combining. Group-by-join instead sends each input \
         tile once, to the band of the output grid that reads it (a left \
         tile to the row band of its block row, a right tile to the column \
         band of its block column), and every cell of the grid reads its two \
         bands and reduces all its products in-task: a single round, whose \
         profile above has only the one pair of shuffle.map/shuffle.reduce \
         stages per side."
    );
}
