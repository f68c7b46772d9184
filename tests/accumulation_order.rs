//! The contractions' accumulation orders, pinned on real floats (first
//! slices of the determinism contract, the ROADMAP's determinism-contract
//! item).
//!
//! **reduceByKey.** Within a map task the products of one output tile fold
//! into its resident combiner in ascending contracted-block order, and the
//! reduce side folds the map tasks' combiners in map-partition order. So a
//! pinned `ReduceByKey` product is a function of (inputs, partition count):
//! the same bits under chaos and task failures, and the same
//! bits however the operands' source partitions are laid out.
//!
//! **groupByJoin.** Every output tile is folded by one reduce task in
//! ascending contracted-block order and no partial sum is ever merged, so
//! every element is the single ascending fused-multiply-add chain the tile
//! kernel runs — the bits of `DenseMatrix::multiply` on the untiled operands,
//! whatever the partition count, source layout, fault schedule or process
//! count. `Auto` inherits that wherever it picks the row.
//!
//! The integer-valued suites cannot see any of this — every order gives them
//! the same sum — so the operands here are arbitrary finite non-integers.

mod common;

use common::rough;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac_repro::sac::{MatMulStrategy, Session, SessionBuilder};
use sac_repro::sparkline::ChaosPlan;
use sac_repro::tiled::{LocalMatrix, TiledMatrix};

const MUL_SRC: &str = "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, \
     let v = a*b, group by (i,j) ]";

/// A session on `matmul` with no broadcast row to fall back on (a zero byte
/// budget), so `Auto` chooses among the shuffling strategies.
fn session(matmul: MatMulStrategy, partitions: usize) -> SessionBuilder {
    Session::builder()
        .workers(4)
        .partitions(partitions)
        .matmul(matmul)
        .broadcast_budget(0)
        .max_task_attempts(8)
        .max_stage_attempts(12)
}

fn pinned(partitions: usize) -> SessionBuilder {
    session(MatMulStrategy::ReduceByKey, partitions)
}

/// Run the product with the operands registered by `register`; also the
/// strategy it ran as.
fn product_as(
    builder: SessionBuilder,
    (rows, cols): (usize, usize),
    register: impl FnOnce(&mut Session),
) -> (String, LocalMatrix) {
    let mut s = builder.build();
    register(&mut s);
    s.set_int("n", rows as i64);
    s.set_int("m", cols as i64);
    let explained = s.explain(MUL_SRC).unwrap();
    (explained, s.matrix(MUL_SRC).unwrap().to_local())
}

/// [`product_as`] for a session pinned to reduceByKey.
fn product(
    builder: SessionBuilder,
    dims: (usize, usize),
    register: impl FnOnce(&mut Session),
) -> LocalMatrix {
    let (explained, got) = product_as(builder, dims, register);
    assert!(explained.contains("reduceByKey"), "{explained}");
    got
}

fn bits(m: &LocalMatrix) -> Vec<u64> {
    common::bits(m.data())
}

/// The bits of the untiled product: one `DenseMatrix::multiply`, every
/// element one ascending fused-multiply-add chain.
fn one_tile_product(a: &LocalMatrix, b: &LocalMatrix) -> Vec<u64> {
    bits(&LocalMatrix::from(a.to_dense().multiply(&b.to_dense())))
}

/// 2–4 blocks of `tile` with the last one cut ragged by `cut`.
fn ragged(tile: usize, blocks: usize, cut: usize) -> usize {
    blocks * tile - cut % tile
}

/// `m`'s tiles in a random order over `parts` ungridded source partitions,
/// so contracted blocks reach a join in no particular order.
fn scatter(
    s: &Session,
    m: &LocalMatrix,
    tile: usize,
    parts: usize,
    rng: &mut StdRng,
) -> TiledMatrix {
    let mut tiles = TiledMatrix::from_local(s.spark(), m, tile, 1)
        .tiles()
        .collect();
    for at in (1..tiles.len()).rev() {
        tiles.swap(at, rng.gen_range(0..at + 1));
    }
    let tiles = s.spark().parallelize(tiles, parts);
    TiledMatrix::new(m.rows as i64, m.cols as i64, tile, tiles)
}

/// Three injected task failures, the first one in the product: registering
/// the operands runs at most `4 · partitions` tasks (a map and a result
/// stage per operand), so launch `4 · partitions + 1` is the product's.
fn task_failures(partitions: usize) -> ChaosPlan {
    ChaosPlan::new().with_task_failures(4 * partitions as u64 + 1, 3)
}

/// Executor kills, fetch failures and delayed tasks, explicit and seeded.
fn chaos_plans(seed: u64, kill_at: u64) -> [(&'static str, ChaosPlan); 2] {
    let explicit = ChaosPlan::new()
        .with_kill_at_task(kill_at, (seed % 4) as usize)
        .with_kill_at_task(kill_at + 17, ((seed + 1) % 4) as usize)
        .with_fetch_failures(2 + seed % 5, 2)
        .with_task_delay(3 + seed % 4, 120);
    [
        ("explicit", explicit),
        ("seeded", ChaosPlan::seeded(seed, 4)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pinned_reduce_by_key_is_a_function_of_inputs_and_partition_count(
        tile in 2usize..5,
        (br, bk, bc) in (2usize..5, 2usize..5, 2usize..5),
        (cut_r, cut_k, cut_c) in (0usize..4, 0usize..4, 0usize..4),
        partitions in 1usize..6,
        (parts_a, parts_b) in (1usize..8, 1usize..8),
        seed in 0u64..100_000,
        kill_at in 3u64..60,
    ) {
        let dim = |blocks, cut| ragged(tile, blocks, cut);
        let (rows, inner, cols) = (dim(br, cut_r), dim(bk, cut_k), dim(bc, cut_c));
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rough(rows, inner, &mut rng);
        let b = rough(inner, cols, &mut rng);
        let ingest = |s: &mut Session| {
            s.register_local_matrix("A", &a, tile);
            s.register_local_matrix("B", &b, tile);
        };

        let want = product(pinned(partitions).chaos_off(), (rows, cols), ingest);

        for (label, plan) in chaos_plans(seed, kill_at) {
            let got = product(
                pinned(partitions).chaos(plan),
                (rows, cols),
                ingest,
            );
            prop_assert_eq!(bits(&got), bits(&want), "{} chaos moved bits", label);
        }

        // Injected task failures: retried attempts replay the same order.
        let failing = pinned(partitions).chaos(task_failures(partitions));
        let got = product(failing, (rows, cols), ingest);
        prop_assert_eq!(bits(&got), bits(&want), "task retries moved bits");

        // The same operands in other source-partition layouts.
        let got = product(pinned(partitions).chaos_off(), (rows, cols), |s| {
            let (ta, tb) = (
                scatter(s, &a, tile, parts_a, &mut rng),
                scatter(s, &b, tile, parts_b, &mut rng),
            );
            s.register_matrix("A", ta);
            s.register_matrix("B", tb);
        });
        prop_assert_eq!(
            bits(&got), bits(&want),
            "source layout {}/{} moved bits", parts_a, parts_b
        );

        // ... and the order is a sound one: within k·2⁻⁵² of the driver's
        // naive product, relative to Σ|a||b| (each side is within γ_k of the
        // exact sum, whatever its association and whether or not it fuses).
        let oracle = a.multiply(&b);
        let magnitude = a.map(f64::abs).multiply(&b.map(f64::abs));
        let bound = inner as f64 * f64::EPSILON;
        for (i, ((g, w), mag)) in want.data().iter().zip(oracle.data()).zip(magnitude.data()).enumerate() {
            prop_assert!(
                (g - w).abs() <= bound * mag,
                "element {}: {} vs oracle {} exceeds {} x {}", i, g, w, bound, mag
            );
        }
    }

    /// Pinned and wherever `Auto` picks it, the group-by-join product is the
    /// bits of the driver's one-tile `DenseMatrix::multiply`: no partition
    /// count, source layout or fault schedule is in the result.
    #[test]
    fn group_by_join_is_a_function_of_the_inputs_alone(
        tile in 2usize..5,
        (br, bk, bc) in (2usize..5, 2usize..5, 2usize..5),
        (cut_r, cut_k, cut_c) in (0usize..4, 0usize..4, 0usize..4),
        partitions in 1usize..10,
        (parts_a, parts_b) in (1usize..8, 1usize..8),
        seed in 0u64..100_000,
        kill_at in 3u64..60,
    ) {
        let dim = |blocks, cut| ragged(tile, blocks, cut);
        let (rows, inner, cols) = (dim(br, cut_r), dim(bk, cut_k), dim(bc, cut_c));
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rough(rows, inner, &mut rng);
        let b = rough(inner, cols, &mut rng);
        let want = one_tile_product(&a, &b);
        let ingest = |s: &mut Session| {
            s.register_local_matrix("A", &a, tile);
            s.register_local_matrix("B", &b, tile);
        };

        for matmul in [MatMulStrategy::GroupByJoin, MatMulStrategy::Auto] {
            let run = |builder: SessionBuilder, register: &dyn Fn(&mut Session)| {
                let (explained, got) = product_as(builder, (rows, cols), register);
                // `Auto` leaves the row only where its cell grid would idle
                // reducers a split over the contracted blocks engages — and
                // promises reduceByKey's order there, not this one.
                let ran = explained.contains("groupByJoin");
                assert!(
                    ran || (matmul == MatMulStrategy::Auto && explained.contains("reduceByKey")),
                    "{matmul:?}: {explained}"
                );
                ran.then_some(got)
            };
            // Every partition count, fault-free.
            for p in 1..10 {
                if let Some(got) = run(session(matmul, p).chaos_off(), &ingest) {
                    prop_assert_eq!(bits(&got), want, "{:?} over {} partitions", matmul, p);
                }
            }
            for (label, plan) in chaos_plans(seed, kill_at) {
                let builder = session(matmul, partitions).chaos(plan);
                if let Some(got) = run(builder, &ingest) {
                    prop_assert_eq!(bits(&got), want, "{:?}: {} chaos moved bits", matmul, label);
                }
            }
            let failing = session(matmul, partitions).chaos(task_failures(partitions));
            if let Some(got) = run(failing, &ingest) {
                prop_assert_eq!(bits(&got), want, "{:?}: task retries moved bits", matmul);
            }
            let scattered = |s: &mut Session| {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca7);
                let (ta, tb) = (
                    scatter(s, &a, tile, parts_a, &mut rng),
                    scatter(s, &b, tile, parts_b, &mut rng),
                );
                s.register_matrix("A", ta);
                s.register_matrix("B", tb);
            };
            if let Some(got) = run(session(matmul, partitions).chaos_off(), &scattered) {
                prop_assert_eq!(
                    bits(&got), want,
                    "{:?}: source layout {}/{} moved bits", matmul, parts_a, parts_b
                );
            }
            // A zero storage budget keeps no block of the result: every read
            // multiplies again, to the same bits.
            let mut s = session(matmul, partitions).storage_memory(0).chaos_off().build();
            ingest(&mut s);
            s.set_int("n", rows as i64);
            s.set_int("m", cols as i64);
            if s.explain(MUL_SRC).unwrap().contains("groupByJoin") {
                let product = s.matrix(MUL_SRC).unwrap();
                prop_assert_eq!(bits(&product.to_local()), want, "{:?}: unkept product", matmul);
                s.spark().trace();
                prop_assert_eq!(bits(&product.to_local()), want, "{:?}: re-multiplied", matmul);
                let recomputes = s.spark().take_profile().cache_totals().recomputes;
                prop_assert!(recomputes > 0, "{:?}: the product was kept", matmul);
            }
        }
    }
}

/// ... nor is the process count: the same bits when every shuffled tile
/// crosses two worker processes as an SPKL frame, from scattered sources.
#[test]
fn group_by_join_over_worker_processes_matches_the_one_tile_product() {
    let (tile, rows, inner, cols) = (3, 10, 11, 8);
    let mut rng = StdRng::seed_from_u64(20210405);
    let a = rough(rows, inner, &mut rng);
    let b = rough(inner, cols, &mut rng);
    let want = one_tile_product(&a, &b);
    for matmul in [MatMulStrategy::GroupByJoin, MatMulStrategy::Auto] {
        for partitions in [1, 4, 7] {
            let builder = session(matmul, partitions).worker_processes(2);
            let (explained, got) = product_as(builder, (rows, cols), |s| {
                let (ta, tb) = (
                    scatter(s, &a, tile, 5, &mut rng),
                    scatter(s, &b, tile, 3, &mut rng),
                );
                s.register_matrix("A", ta);
                s.register_matrix("B", tb);
            });
            assert!(explained.contains("groupByJoin"), "{explained}");
            assert_eq!(bits(&got), want, "{matmul:?} over {partitions} partitions");
        }
    }
}
