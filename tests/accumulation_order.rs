//! The reduceByKey contraction's accumulation order, pinned on real floats
//! (first slice of the determinism contract, ROADMAP item 3).
//!
//! The stated order: within a map task the products of one output tile fold
//! into its resident combiner in ascending contracted-block order, and the
//! reduce side folds the map tasks' combiners in map-partition order. So a
//! pinned `ReduceByKey` product is a function of (inputs, partition count):
//! the same bits under chaos, task failures and speculation, and the same
//! bits however the operands' source partitions are laid out. The
//! integer-valued suites cannot see any of this — every order gives them the
//! same sum — so the operands here are arbitrary finite non-integers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac_repro::sac::{MatMulStrategy, Session, SessionBuilder};
use sac_repro::sparkline::ChaosPlan;
use sac_repro::tiled::{LocalMatrix, TiledMatrix};

const MUL_SRC: &str = "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, \
     let v = a*b, group by (i,j) ]";

/// Entries spread over sixteen binades with full mantissas: any change in
/// who is added to what first moves low bits somewhere.
fn rough(rows: usize, cols: usize, rng: &mut StdRng) -> LocalMatrix {
    LocalMatrix::from_fn(rows, cols, |_, _| {
        rng.gen_range(-1.0..1.0) * f64::powi(2.0, rng.gen_range(-8..8))
    })
}

fn pinned(partitions: usize) -> SessionBuilder {
    Session::builder()
        .workers(4)
        .executors(4)
        .partitions(partitions)
        .matmul(MatMulStrategy::ReduceByKey)
        .max_task_attempts(8)
        .max_stage_attempts(12)
}

/// Run the product with the operands registered by `register`.
fn product(
    builder: SessionBuilder,
    (rows, cols): (usize, usize),
    register: impl FnOnce(&mut Session),
) -> LocalMatrix {
    let mut s = builder.build();
    register(&mut s);
    s.set_int("n", rows as i64);
    s.set_int("m", cols as i64);
    let explained = s.explain(MUL_SRC).unwrap();
    assert!(explained.contains("reduceByKey"), "{explained}");
    s.matrix(MUL_SRC).unwrap().to_local()
}

fn bits(m: &LocalMatrix) -> Vec<u64> {
    m.data().iter().map(|x| x.to_bits()).collect()
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
        // 2–4 blocks a side; `cut_*` leaves the last block ragged.
        let dim = |blocks: usize, cut: usize| blocks * tile - cut % tile;
        let (rows, inner, cols) = (dim(br, cut_r), dim(bk, cut_k), dim(bc, cut_c));
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rough(rows, inner, &mut rng);
        let b = rough(inner, cols, &mut rng);
        let ingest = |s: &mut Session| {
            s.register_local_matrix("A", &a, tile);
            s.register_local_matrix("B", &b, tile);
        };

        let want = product(pinned(partitions).chaos_off(), (rows, cols), ingest);

        // Executor kills, fetch failures, delayed tasks and speculative
        // duplicates, explicit and seeded.
        let explicit = ChaosPlan::new()
            .with_kill_at_task(kill_at, (seed % 4) as usize)
            .with_kill_at_task(kill_at + 17, ((seed + 1) % 4) as usize)
            .with_fetch_failures(2 + seed % 5, 2)
            .with_task_delay(3 + seed % 4, 120);
        for (label, plan) in [("explicit", explicit), ("seeded", ChaosPlan::seeded(seed, 4))] {
            let got = product(
                pinned(partitions).chaos(plan).speculation(1.5),
                (rows, cols),
                ingest,
            );
            prop_assert_eq!(bits(&got), bits(&want), "{} chaos moved bits", label);
        }

        // Injected task failures: retried attempts replay the same order.
        let got = product(pinned(partitions).chaos_off(), (rows, cols), |s| {
            ingest(s);
            s.spark().inject_task_failures(3);
        });
        prop_assert_eq!(bits(&got), bits(&want), "task retries moved bits");

        // The same operands in other source-partition layouts: the tiles in
        // a random order over `parts_a` / `parts_b` ungridded partitions, so
        // contracted blocks reach the join in no particular order.
        let got = product(pinned(partitions).chaos_off(), (rows, cols), |s| {
            let mut scatter = |m: &LocalMatrix, parts: usize| {
                let mut tiles = TiledMatrix::from_local(s.spark(), m, tile, 1).tiles().collect();
                for at in (1..tiles.len()).rev() {
                    tiles.swap(at, rng.gen_range(0..at + 1));
                }
                let tiles = s.spark().parallelize(tiles, parts);
                TiledMatrix::new(m.rows as i64, m.cols as i64, tile, tiles)
            };
            let (ta, tb) = (scatter(&a, parts_a), scatter(&b, parts_b));
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
}
