//! Property tests for the memory-budgeted cache (ISSUE 2, satellite 1):
//! for random plans, storage budgets (including 0 and thrash-tiny), and
//! injected task failures, a `persist()`-ed evaluation must be
//! bit-for-bit identical to the uncached one — for dense tiles and for
//! variable-length sparse triplet lists alike.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac_repro::sac::Session;
use sac_repro::sparkline::wire::encoded_len;
use sac_repro::sparkline::{Context, Dataset, JobProfile, KeyPartitioner};
use sac_repro::tiled::{DenseMatrix, LocalMatrix};

/// A keyed dataset of dense tiles with a shuffle under the persist point, so
/// lineage recovery after eviction crosses a stage boundary. The modulo
/// partitioner pins two tiles per partition (hash partitioning is lumpy and
/// would make block sizes unpredictable); tile contents are a pure function
/// of the record id, making recomputation bit-exact.
fn dense_tiles(
    c: &Context,
    rows: usize,
    cols: usize,
    salt: u64,
) -> Dataset<((usize, usize), DenseMatrix)> {
    c.parallelize((0..12u64).map(|i| ((i % 6) as usize, i)).collect(), 4)
        .partition_by(KeyPartitioner::new(6, "mod6", |k: &usize| *k))
        .map(move |(k, i)| {
            let mut rng = StdRng::seed_from_u64(i ^ salt);
            let tile = LocalMatrix::random(rows, cols, -2.0, 2.0, &mut rng).to_dense();
            ((k, i as usize), tile)
        })
}

/// Same pipeline, but each block is a sparse tile's triplet list:
/// exercises variable-length block sizing.
fn sparse_tiles(
    c: &Context,
    rows: usize,
    cols: usize,
    salt: u64,
) -> Dataset<((usize, usize), common::Triplets)> {
    c.parallelize((0..12u64).map(|i| ((i % 6) as usize, i)).collect(), 4)
        .partition_by(KeyPartitioner::new(6, "mod6", |k: &usize| *k))
        .map(move |(k, i)| {
            (
                (k, i as usize),
                common::sparse_triplets(rows, cols, i ^ salt),
            )
        })
}

/// Tasks a pass over the persisted dataset launches in a row: one per
/// partition of the six it keeps.
const PASS_TASKS: u64 = 6;

/// A traced context failing `failures` task launches in each of `passes`
/// passes over the persisted dataset, the first pass included, on top of
/// any `SPARKLINE_CHAOS` schedule.
fn failing(budget: usize, failures: u32, passes: u32) -> Context {
    let (plan, attempts) = common::failures_per_pass(3, PASS_TASKS, failures, passes);
    let c = Context::builder()
        .workers(3)
        .storage_memory(budget)
        .max_task_attempts(attempts)
        .chaos(plan)
        .build();
    c.trace();
    c
}

/// Task failures injected since the last call.
fn take_injected(c: &Context) -> u32 {
    common::attempts(&c.take_events()).1 as u32
}

fn by_key<T>(mut v: Vec<((usize, usize), T)>) -> Vec<((usize, usize), T)> {
    v.sort_by_key(|(k, _)| *k);
    v
}

/// The budget spectrum the cache must survive: nothing fits, one-ish block
/// fits (maximal thrash), a few blocks fit, everything fits.
fn budgets() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(200usize),
        1_000usize..20_000,
        Just(usize::MAX),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Dense tiles: persisted evaluation equals the uncached oracle
    /// bit-for-bit, across budgets, repeated passes, and injected task
    /// failures.
    #[test]
    fn dense_persist_is_bit_identical(rows in 1usize..6, cols in 1usize..6,
                                      salt in 0u64..1000, budget in budgets(),
                                      failures in 0u32..3) {
        let oracle_ctx = Context::builder().workers(3).build();
        let oracle = by_key(dense_tiles(&oracle_ctx, rows, cols, salt).collect());

        let c = failing(budget, failures, 3);
        let d = dense_tiles(&c, rows, cols, salt).persist();
        for pass in 0..3 {
            prop_assert_eq!(
                &by_key(d.collect()), &oracle,
                "budget {} failures {} pass {} diverged",
                budget, failures, pass
            );
            let injected = take_injected(&c);
            prop_assert!(injected >= failures, "pass {} saw {} failures", pass, injected);
        }
    }

    /// Sparse triplet lists: same property.
    #[test]
    fn sparse_persist_is_bit_identical(rows in 1usize..6, cols in 1usize..6,
                                       salt in 0u64..1000, budget in budgets(),
                                       failures in 0u32..3) {
        let oracle_ctx = Context::builder().workers(3).build();
        let oracle = by_key(sparse_tiles(&oracle_ctx, rows, cols, salt).collect());

        let c = failing(budget, failures, 3);
        let d = sparse_tiles(&c, rows, cols, salt).persist();
        for pass in 0..3 {
            prop_assert_eq!(
                &by_key(d.collect()), &oracle,
                "budget {} failures {} pass {} diverged",
                budget, failures, pass
            );
            let injected = take_injected(&c);
            prop_assert!(injected >= failures, "pass {} saw {} failures", pass, injected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random paper queries through the whole stack: a session with an
    /// arbitrary storage budget (plus injected task failures) must produce
    /// exactly the result `LocalMatrix` arithmetic gives — an oracle that
    /// shares no plan path with the session it checks. Entries are quarters
    /// in [-2, 2], so every sum and product is exact in any order.
    #[test]
    fn session_queries_match_uncached(n in 4usize..9, tile in 1usize..4,
                                      seed in 0u64..500, query in 0usize..4,
                                      budget in budgets(), fail in proptest::bool::ANY) {
        // Queries 0-1 reference `A` twice, so the planner persists it;
        // 2-3 are single-reference and must be unaffected by the machinery.
        let queries = [
            "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- A, kk == k, \
             let v = a*b, group by (i,j) ]",
            "tiled(n,n)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- A, \
             ii == i, jj == j ]",
            "tiled(n,n)[ (((i+1)%n, j), v) | ((i,j),v) <- A ]",
            "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]",
        ];
        let src = queries[query];
        let mut rng = StdRng::seed_from_u64(seed);
        let a = LocalMatrix::from_fn(n, n, |_, _| rng.gen_range(-8i64..9) as f64 / 4.0);

        // A query run launches two to seventeen tasks in a row, so only
        // every other launch failing reaches every run, the cached second
        // one included. The limit outlasts registering `A` and both runs.
        let limit = if fail { 64 } else { 0 };
        let plan = common::env_chaos(3).with_task_failures(2, limit);
        let mut cached = Session::builder().workers(3).partitions(3)
            .storage_memory(budget).max_task_attempts(limit + 3).chaos(plan).build();
        cached.spark().trace();
        cached.register_local_matrix("A", &a, tile);
        cached.set_int("n", n as i64);
        cached.spark().take_events();

        // While the limit lasts, `k` launches in a row hold `k / 2` failures.
        let failed_every_other = |s: &Session| {
            let (ended, injected) = common::attempts(&s.spark().take_events());
            !fail || injected >= ended / 2
        };
        if query == 3 {
            let want = a.row_sums();
            for run in 0..2 {
                prop_assert_eq!(&cached.vector(src).unwrap().to_local(), &want);
                prop_assert!(failed_every_other(&cached), "run {} failures", run);
            }
        } else {
            let want = match query {
                0 => a.multiply(&a),
                1 => a.add(&a),
                _ => LocalMatrix::from_fn(n, n, |i, j| a.get((i + n - 1) % n, j)),
            };
            for run in 0..2 {
                prop_assert_eq!(&cached.matrix(src).unwrap().to_local(), &want);
                prop_assert!(failed_every_other(&cached), "run {} failures", run);
            }
        }
    }
}

/// The acceptance scenario, pinned deterministically: a budget that forces
/// eviction while two task failures are injected into every run — the
/// persisted pipeline must still be bit-identical, and both pressures must
/// actually have happened.
#[test]
fn eviction_with_injected_failures_stays_bit_identical() {
    let oracle_ctx = Context::builder().workers(3).build();
    let oracle = by_key(dense_tiles(&oracle_ctx, 4, 4, 7).collect());
    // Each of the six blocks holds two 4x4 dense tiles; a budget of one and
    // a quarter blocks fits exactly one, so every pass thrashes.
    let block = encoded_len(&vec![((0usize, 0usize), DenseMatrix::zeros(4, 4)); 2]) as usize;
    let c = failing(block + block / 4, 2, 4);
    let d = dense_tiles(&c, 4, 4, 7).persist();
    let (mut failed, mut recomputes) = (0, 0);
    for run in 0..4 {
        assert_eq!(by_key(d.collect()), oracle, "run {run} diverged");
        let events = c.take_events();
        let injected = common::attempts(&events).1;
        assert!(injected >= 2, "run {run} saw {injected} failures");
        let profile = JobProfile::from_events(&events);
        failed += profile.total_failed_attempts();
        recomputes += profile.cache_totals().recomputes;
    }
    let status = c.storage_status();
    assert!(
        status.evictions > 0,
        "budget must force eviction: {status:?}"
    );
    assert!(
        failed >= 2,
        "injected failures must surface as failed attempts"
    );
    assert!(
        recomputes > 0,
        "evicted blocks must be recomputed from lineage"
    );
}

// ---------------------------------------------------------------------------
// Streaming-pipeline pinning (ISSUE 5, satellite 3, cache side): a fused
// narrow chain *downstream* of the persist point must replay bit-identically
// across the whole budget spectrum and injected failures — later passes pull
// the chain lazily from cached `Shared` views instead of recomputing the
// shuffle.
// ---------------------------------------------------------------------------

/// map/filter chain keyed purely off the record key, replayable on plain
/// Vecs. (flat_map duplication is covered by the chaos-side chain test.)
fn chain_dataset(
    mut d: Dataset<((usize, usize), DenseMatrix)>,
    ops: &[u8],
    p: usize,
) -> Dataset<((usize, usize), DenseMatrix)> {
    for &op in ops {
        d = if op % 2 == 0 {
            d.map(move |((a, b), t)| (((a + p) % 6, b), t))
        } else {
            d.filter(move |&((a, b), _)| !(a + b + p).is_multiple_of(4))
        };
    }
    d
}

fn chain_vec(
    mut v: Vec<((usize, usize), DenseMatrix)>,
    ops: &[u8],
    p: usize,
) -> Vec<((usize, usize), DenseMatrix)> {
    for &op in ops {
        v = if op % 2 == 0 {
            v.into_iter()
                .map(|((a, b), t)| (((a + p) % 6, b), t))
                .collect()
        } else {
            v.into_iter()
                .filter(|&((a, b), _)| !(a + b + p).is_multiple_of(4))
                .collect()
        };
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fused_chain_over_persisted_blocks_is_bit_identical(
        rows in 1usize..6, cols in 1usize..6, salt in 0u64..1000,
        budget in budgets(), failures in 0u32..3,
        ops in proptest::collection::vec(0u8..2, 0..5), p in 0usize..6) {
        let oracle_ctx = Context::builder().workers(3).build();
        let oracle = by_key(chain_vec(
            by_key(dense_tiles(&oracle_ctx, rows, cols, salt).collect()),
            &ops, p,
        ));

        let c = failing(budget, failures, 3);
        let d = chain_dataset(dense_tiles(&c, rows, cols, salt).persist(), &ops, p);
        for pass in 0..3 {
            prop_assert_eq!(
                &by_key(d.collect()), &oracle,
                "chain {:?} budget {} failures {} pass {} diverged",
                ops, budget, failures, pass
            );
            let injected = take_injected(&c);
            prop_assert!(injected >= failures, "pass {} saw {} failures", pass, injected);
        }
    }
}
