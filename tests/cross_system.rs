//! Cross-crate integration: SAC plans vs the MLlib baseline vs the
//! coordinate-format (DIABLO-style) plans must all agree; jobs must survive
//! injected task failures; results must be deterministic across executor
//! counts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sac_repro::mllib::BlockMatrix;
use sac_repro::sac::{MatMulStrategy, Session};
use sac_repro::sparkline::{ChaosPlan, Context};
use sac_repro::tiled::{CooMatrix, LocalMatrix, TiledMatrix};

fn rand_mat(r: usize, c: usize, seed: u64) -> LocalMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    LocalMatrix::random(r, c, -1.0, 1.0, &mut rng)
}

#[test]
fn three_systems_agree_on_multiplication() {
    let s = Session::builder().workers(4).partitions(4).build();
    let a = rand_mat(12, 9, 1);
    let b = rand_mat(9, 8, 2);
    let oracle = a.multiply(&b);

    // SAC (comprehension-compiled).
    let ta = TiledMatrix::from_local(s.spark(), &a, 4, 4);
    let tb = TiledMatrix::from_local(s.spark(), &b, 4, 4);
    let sac_result = sac_repro::sac::linalg::multiply(&s, &ta, &tb)
        .unwrap()
        .to_local();

    // MLlib baseline.
    let ba = BlockMatrix::from_local(s.spark(), &a, 4, 4);
    let bb = BlockMatrix::from_local(s.spark(), &b, 4, 4);
    let mllib_result = ba.multiply(&bb).to_local();

    // Coordinate format (§4 plan).
    let ca = CooMatrix::from_local(s.spark(), &a, 4);
    let cb = CooMatrix::from_local(s.spark(), &b, 4);
    let coo_result = ca.multiply(&cb, 4).to_local();

    assert!(sac_result.max_abs_diff(&oracle) < 1e-9);
    assert!(mllib_result.max_abs_diff(&oracle) < 1e-9);
    assert!(coo_result.max_abs_diff(&oracle) < 1e-9);
}

#[test]
fn three_systems_agree_on_addition() {
    let s = Session::builder().workers(4).partitions(4).build();
    let a = rand_mat(10, 10, 3);
    let b = rand_mat(10, 10, 4);
    let oracle = a.add(&b);
    let ta = TiledMatrix::from_local(s.spark(), &a, 4, 4);
    let tb = TiledMatrix::from_local(s.spark(), &b, 4, 4);
    assert!(
        sac_repro::sac::linalg::add(&s, &ta, &tb)
            .unwrap()
            .to_local()
            .max_abs_diff(&oracle)
            < 1e-12
    );
    let ba = BlockMatrix::from_local(s.spark(), &a, 4, 4);
    let bb = BlockMatrix::from_local(s.spark(), &b, 4, 4);
    assert!(ba.add(&bb).to_local().max_abs_diff(&oracle) < 1e-12);
    let ca = CooMatrix::from_local(s.spark(), &a, 4);
    let cb = CooMatrix::from_local(s.spark(), &b, 4);
    assert!(ca.add(&cb, 4).to_local().max_abs_diff(&oracle) < 1e-12);
}

#[test]
fn sac_survives_injected_task_failures() {
    // This test pins its own fault scenario: four injected task failures,
    // on every other task launch. The attempt budget leaves headroom for the
    // worst case — thread timing can concentrate all 4 on a single task,
    // which must still succeed on a later attempt.
    let s = Session::builder()
        .workers(4)
        .partitions(4)
        .max_task_attempts(8)
        .chaos(ChaosPlan::new().with_task_failures(2, 4))
        .build();
    s.spark().trace();
    let a = rand_mat(12, 12, 5);
    let b = rand_mat(12, 12, 6);
    let ta = TiledMatrix::from_local(s.spark(), &a, 4, 4);
    let tb = TiledMatrix::from_local(s.spark(), &b, 4, 4);
    let got = sac_repro::sac::linalg::multiply(&s, &ta, &tb)
        .unwrap()
        .to_local();
    assert!(got.max_abs_diff(&a.multiply(&b)) < 1e-9);
    assert!(
        s.spark().take_profile().total_failed_attempts() >= 4,
        "failures must actually have been injected"
    );
}

#[test]
fn results_deterministic_across_worker_counts() {
    let run = |workers: usize| -> LocalMatrix {
        let s = Session::builder().workers(workers).partitions(4).build();
        let a = rand_mat(10, 10, 7);
        let b = rand_mat(10, 10, 8);
        let ta = TiledMatrix::from_local(s.spark(), &a, 4, 4);
        let tb = TiledMatrix::from_local(s.spark(), &b, 4, 4);
        sac_repro::sac::linalg::multiply(&s, &ta, &tb)
            .unwrap()
            .to_local()
    };
    let one = run(1);
    let eight = run(8);
    assert_eq!(one, eight, "worker count must not change results");
}

#[test]
fn factorization_parity_between_sac_and_mllib() {
    let s = Session::builder()
        .workers(4)
        .partitions(4)
        .matmul(MatMulStrategy::ReduceByKey)
        .build();
    let mut rng = StdRng::seed_from_u64(9);
    let r = LocalMatrix::sparse_random(16, 16, 0.2, &mut rng);
    let p = LocalMatrix::random(16, 8, 0.0, 1.0, &mut rng);
    let q = LocalMatrix::random(16, 8, 0.0, 1.0, &mut rng);
    let (gamma, lambda) = (0.002, 0.02);

    let (sp, sq) = sac_repro::sac::linalg::factorization_step(
        &s,
        &TiledMatrix::from_local(s.spark(), &r, 4, 4),
        &TiledMatrix::from_local(s.spark(), &p, 4, 4),
        &TiledMatrix::from_local(s.spark(), &q, 4, 4),
        gamma,
        lambda,
    )
    .unwrap();

    let e = r.sub(&p.multiply(&q.transpose()));
    let p2 = LocalMatrix::from_fn(16, 8, |i, j| {
        p.get(i, j) + gamma * (2.0 * e.multiply(&q).get(i, j) - lambda * p.get(i, j))
    });
    let q2 = LocalMatrix::from_fn(16, 8, |i, j| {
        q.get(i, j) + gamma * (2.0 * e.transpose().multiply(&p).get(i, j) - lambda * q.get(i, j))
    });
    assert!(sp.to_local().max_abs_diff(&p2) < 1e-9);
    assert!(sq.to_local().max_abs_diff(&q2) < 1e-9);
}

#[test]
fn coo_shuffles_more_bytes_than_tiled_for_multiplication() {
    // §1/§4's storage argument: coordinate format ships (indices + value)
    // per element and per elementary product; tiles ship dense blocks.
    // chaos_off: a resubmitted map stage writes its bytes twice.
    let ctx = Context::builder().workers(4).chaos_off().build();
    let n = 64;
    let a = rand_mat(n, n, 10);
    let b = rand_mat(n, n, 11);

    ctx.trace();
    let ca = CooMatrix::from_local(&ctx, &a, 4);
    let cb = CooMatrix::from_local(&ctx, &b, 4);
    ca.multiply(&cb, 4).entries().count();
    let coo = ctx.take_profile().total_shuffle_bytes_written();

    let s = Session::builder()
        .workers(4)
        .partitions(4)
        .chaos_off()
        .build();
    let ta = TiledMatrix::from_local(s.spark(), &a, 16, 4);
    let tb = TiledMatrix::from_local(s.spark(), &b, 16, 4);
    s.spark().trace();
    sac_repro::sac::linalg::multiply(&s, &ta, &tb)
        .unwrap()
        .tiles()
        .count();
    let tiled = s.spark().take_profile().total_shuffle_bytes_written();

    assert!(coo > 2 * tiled, "coo {coo} bytes vs tiled {tiled} bytes");
}

#[test]
fn mllib_grid_partitioned_matrices_add_without_extra_shuffles() {
    // Co-partitioned adds are narrow in Spark; verify the runtime honors it.
    let ctx = Context::builder().workers(4).build();
    let a = rand_mat(16, 16, 13);
    let b = rand_mat(16, 16, 14);
    let ta = TiledMatrix::from_local(&ctx, &a, 4, 4).partition_by_grid(4);
    let tb = TiledMatrix::from_local(&ctx, &b, 4, 4).partition_by_grid(4);
    ta.tiles().count();
    tb.tiles().count();
    ctx.trace();
    let sum = ta
        .tiles()
        .join_with(tb.tiles(), ta.grid_partitioner(4))
        .map_values(|(mut x, y)| {
            x.add_in_place(&y);
            x
        });
    let result = TiledMatrix::new(16, 16, 4, sum);
    assert!(result.to_local().max_abs_diff(&a.add(&b)) < 1e-12);
    assert_eq!(
        ctx.take_profile().shuffle_stage_count(),
        0,
        "co-partitioned join must be narrow"
    );
}
