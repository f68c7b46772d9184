//! Chaos property tests (ISSUE 3, satellite 3): random seeded fault
//! schedules — executor kills × fetch failures × task delays — driven
//! against dense and sparse paper-example queries must leave every result
//! bit-identical to a fault-free oracle run.
//!
//! All chaos sessions get generous attempt budgets: the property under test
//! is *correct recovery*, not the attempt accounting (which
//! `tests/plan_shape.rs` pins deterministically).

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sac_repro::sac::{MatMulStrategy, Session};
use sac_repro::sparkline::{ChaosPlan, Context, Dataset, Event, KeyPartitioner};
use sac_repro::tiled::{DenseMatrix, LocalMatrix};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Paper queries (Fig. 4 kernels): matmul with a self-reference (exercises
/// auto-persist + block loss), co-partitioned add, a row-shift permutation,
/// and a vector row-sum aggregation.
const QUERIES: [&str; 4] = [
    "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- A, kk == k, \
     let v = a*b, group by (i,j) ]",
    "tiled(n,n)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- A, ii == i, jj == j ]",
    "tiled(n,n)[ (((i+1)%n, j), v) | ((i,j),v) <- A ]",
    "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]",
];

/// An explicit random plan with faults early enough to hit small test
/// workloads (seeded plans hold their first kill back for real pipelines).
fn explicit_plan(
    executors: usize,
    kill_at: u64,
    kill_exec: usize,
    fetch_every: u64,
    delay_every: u64,
) -> ChaosPlan {
    ChaosPlan::new()
        .with_kill_at_task(kill_at, kill_exec % executors)
        .with_kill_at_task(kill_at + 23, (kill_exec + 1) % executors)
        .with_fetch_failures(fetch_every, 2)
        .with_task_delay(delay_every, 120)
}

fn chaos_session(n: usize, tile: usize, a: &LocalMatrix, plan: Option<ChaosPlan>) -> Session {
    let mut b = Session::builder()
        .workers(4)
        .partitions(4)
        .max_task_attempts(8);
    b = match plan {
        Some(p) => b.chaos(p),
        None => b.chaos_off(),
    };
    let mut s = b.build();
    // Traced, so a test can count registration's task launches.
    s.spark().trace();
    s.register_local_matrix("A", a, tile);
    s.spark().stop_trace();
    s.set_int("n", n as i64);
    s
}

/// A keyed dataset of sparse tiles' triplet lists with a shuffle under it —
/// the same pipeline the cache proptests use, here run under executor loss.
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

fn by_key<T>(mut v: Vec<((usize, usize), T)>) -> Vec<((usize, usize), T)> {
    v.sort_by_key(|(k, _)| *k);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Dense paper queries through the whole stack: any explicit chaos plan
    /// killing two of four executors (plus fetch failures and delays) must
    /// reproduce the fault-free result bit-for-bit, run after run.
    #[test]
    fn dense_queries_survive_random_chaos(n in 4usize..9, tile in 1usize..4,
                                          seed in 0u64..500, query in 0usize..4,
                                          kill_at in 3u64..80, kill_exec in 0usize..4,
                                          fetch_every in 2u64..8, delay_every in 3u64..9) {
        let src = QUERIES[query];
        let mut rng = StdRng::seed_from_u64(seed);
        let a = LocalMatrix::random(n, n, -2.0, 2.0, &mut rng);

        let oracle = chaos_session(n, tile, &a, None);
        let chaotic = chaos_session(
            n, tile, &a,
            Some(explicit_plan(4, kill_at, kill_exec, fetch_every, delay_every)),
        );

        if query == 3 {
            let want = oracle.vector(src).unwrap().to_local();
            for pass in 0..2 {
                prop_assert_eq!(
                    &chaotic.vector(src).unwrap().to_local(), &want,
                    "kill@{} pass {} diverged", kill_at, pass
                );
            }
        } else {
            let want = oracle.matrix(src).unwrap().to_local();
            for pass in 0..2 {
                prop_assert_eq!(
                    &chaotic.matrix(src).unwrap().to_local(), &want,
                    "kill@{} pass {} diverged", kill_at, pass
                );
            }
        }
    }

    /// Seeded schedules (what `SPARKLINE_CHAOS=<seed>` expands to): the
    /// exact env-knob machinery, against the self-multiplying dense query
    /// iterated enough times for the launch counter to cross the kill
    /// thresholds.
    #[test]
    fn seeded_schedules_survive_iterated_dense_query(chaos_seed in 0u64..10_000,
                                                     mat_seed in 0u64..500) {
        let n = 8;
        let src = QUERIES[0];
        let mut rng = StdRng::seed_from_u64(mat_seed);
        let a = LocalMatrix::random(n, n, -2.0, 2.0, &mut rng);

        let oracle = chaos_session(n, 4, &a, None);
        let chaotic = chaos_session(n, 4, &a, Some(ChaosPlan::seeded(chaos_seed, 4)));

        let want = oracle.matrix(src).unwrap().to_local();
        for pass in 0..3 {
            prop_assert_eq!(
                &chaotic.matrix(src).unwrap().to_local(), &want,
                "chaos seed {} pass {} diverged", chaos_seed, pass
            );
        }
    }

    /// Sparse triplet lists under random kills and fetch failures: the raw
    /// runtime pipeline (shuffle + persist) recovers bit-identically.
    #[test]
    fn sparse_pipeline_survives_random_chaos(rows in 1usize..6, cols in 1usize..6,
                                             salt in 0u64..1000,
                                             kill_at in 2u64..40, kill_exec in 0usize..4,
                                             fetch_every in 2u64..8) {
        let oracle_ctx = Context::builder().workers(4).chaos_off().build();
        let oracle = by_key(sparse_tiles(&oracle_ctx, rows, cols, salt).collect());

        let plan = explicit_plan(4, kill_at, kill_exec, fetch_every, 5);
        let c = Context::builder()
            .workers(4)
            .max_task_attempts(8)
            .chaos(plan)
            .build();
        let d = sparse_tiles(&c, rows, cols, salt).persist();
        for pass in 0..3 {
            prop_assert_eq!(
                &by_key(d.collect()), &oracle,
                "kill@{} pass {} diverged", kill_at, pass
            );
        }
    }

    /// Dense tiles, same property — and the persisted blocks lost with their
    /// executors must transparently recompute from lineage.
    #[test]
    fn dense_pipeline_survives_random_chaos(rows in 1usize..6, cols in 1usize..6,
                                            salt in 0u64..1000,
                                            kill_at in 2u64..40, kill_exec in 0usize..4,
                                            fetch_every in 2u64..8) {
        let oracle_ctx = Context::builder().workers(4).chaos_off().build();
        let oracle = by_key(dense_tiles(&oracle_ctx, rows, cols, salt).collect());

        let plan = explicit_plan(4, kill_at, kill_exec, fetch_every, 5);
        let c = Context::builder()
            .workers(4)
            .max_task_attempts(8)
            .chaos(plan)
            .build();
        let d = dense_tiles(&c, rows, cols, salt).persist();
        for pass in 0..3 {
            prop_assert_eq!(
                &by_key(d.collect()), &oracle,
                "kill@{} pass {} diverged", kill_at, pass
            );
        }
    }
}

/// The acceptance scenario pinned deterministically: a kill that lands
/// *inside* the traced query (placed right after registration's launch
/// count, measured on a fault-free twin) must surface `ExecutorLost` and
/// `StageResubmitted` in the trace, report recovery time in
/// `explain_analyze`, and still produce the oracle result.
#[test]
fn chaos_recovery_is_visible_in_explain_analyze() {
    let n = 8;
    let src = QUERIES[0];
    let mut rng = StdRng::seed_from_u64(99);
    let a = LocalMatrix::random(n, n, -2.0, 2.0, &mut rng);

    let oracle = chaos_session(n, 4, &a, None);
    // Registration's task-launch count is deterministic for a fixed workload;
    // schedule the kill a few launches into the query itself.
    let registration = oracle.spark().take_profile();
    let after_registration: u64 = registration.stages.iter().map(|s| s.tasks as u64).sum();
    let want = oracle.matrix(src).unwrap().to_local();

    let plan = ChaosPlan::new()
        .with_kill_at_task(after_registration + 3, 0)
        .with_kill_at_task(after_registration + 9, 2);
    let chaotic = chaos_session(n, 4, &a, Some(plan));
    let analysis = chaotic.explain_analyze(src).unwrap();
    let got = chaotic.matrix(src).unwrap().to_local();

    assert_eq!(got, want, "recovered result must be bit-identical");
    let rec = &analysis.profile.recovery;
    assert!(rec.executors_lost >= 1, "{}", analysis.profile.render());
    assert!(
        rec.stages_resubmitted >= 1 || rec.lost_map_outputs == 0,
        "losing live map outputs must force a resubmission:\n{}",
        analysis.profile.render()
    );
    let rendered = format!("{analysis}");
    assert!(rendered.contains("recovery:"), "{rendered}");
    // Survivors keep the session usable afterwards.
    assert!(chaotic
        .spark()
        .executor_status()
        .iter()
        .any(|s| s.restarts > 0));
}

// ---------------------------------------------------------------------------
// Streaming-pipeline pinning (ISSUE 5, satellite 3): random narrow-op chains,
// fused by the pull-based runtime into a single operator pipeline, must stay
// bit-identical to eager Vec semantics — replayed driver-side on plain Vecs —
// under seeded chaos and tiny storage budgets, for dense tiles and sparse
// triplet lists alike.
// ---------------------------------------------------------------------------

/// Applies a random narrow-op chain to a dataset. Every opcode picks one of
/// map / filter / flat_map, parameterised by `p`; all routing decisions are
/// pure functions of the record key, so `apply_chain_vec` can replay them
/// exactly. `b * 7 + 1000` is injective and stays above every pre-existing
/// key, so any duplicated key always carries an identical payload and key
/// order alone is a total order up to full-record equality.
fn apply_chain_dataset<T: sac_repro::sparkline::Data>(
    mut d: Dataset<((usize, usize), T)>,
    ops: &[u8],
    p: usize,
) -> Dataset<((usize, usize), T)> {
    for &op in ops {
        d = match op % 3 {
            0 => d.map(move |((a, b), t)| (((a + p) % 6, b), t)),
            1 => d.filter(move |&((a, b), _)| !(a + b + p).is_multiple_of(4)),
            _ => d.flat_map(move |((a, b), t)| {
                if b.is_multiple_of(2) {
                    vec![((a, b * 7 + 1000), t.clone()), ((a, b), t)]
                } else {
                    vec![((a, b), t)]
                }
            }),
        };
    }
    d
}

/// The eager oracle: the exact same chain, replayed with plain `Vec`
/// combinators on the driver — the semantics the seed runtime had before
/// streams.
fn apply_chain_vec<T: Clone>(
    mut v: Vec<((usize, usize), T)>,
    ops: &[u8],
    p: usize,
) -> Vec<((usize, usize), T)> {
    for &op in ops {
        v = match op % 3 {
            0 => v
                .into_iter()
                .map(|((a, b), t)| (((a + p) % 6, b), t))
                .collect(),
            1 => v
                .into_iter()
                .filter(|&((a, b), _)| !(a + b + p).is_multiple_of(4))
                .collect(),
            _ => v
                .into_iter()
                .flat_map(|((a, b), t)| {
                    if b.is_multiple_of(2) {
                        vec![((a, b * 7 + 1000), t.clone()), ((a, b), t)]
                    } else {
                        vec![((a, b), t)]
                    }
                })
                .collect(),
        };
    }
    v
}

/// Driver-side replica of the `dense_tiles` generator (shuffle reordering is
/// irrelevant — both sides are compared through `by_key`).
fn oracle_dense(rows: usize, cols: usize, salt: u64) -> Vec<((usize, usize), DenseMatrix)> {
    (0..12u64)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(i ^ salt);
            let tile = LocalMatrix::random(rows, cols, -2.0, 2.0, &mut rng).to_dense();
            (((i % 6) as usize, i as usize), tile)
        })
        .collect()
}

/// Driver-side replica of the `sparse_tiles` generator.
fn oracle_sparse(rows: usize, cols: usize, salt: u64) -> Vec<((usize, usize), common::Triplets)> {
    (0..12u64)
        .map(|i| {
            let tile = common::sparse_triplets(rows, cols, i ^ salt);
            (((i % 6) as usize, i as usize), tile)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fused narrow-op chains over a persisted shuffle output, run
    /// under explicit chaos + a storage budget spanning
    /// nothing-fits to everything-fits, must equal the Vec oracle on every
    /// pass (pass 2 re-pulls the streams through the cache/recompute path).
    #[test]
    fn fused_narrow_chains_match_vec_semantics_under_chaos(
        rows in 1usize..5, cols in 1usize..5, salt in 0u64..1000,
        ops in proptest::collection::vec(0u8..3, 0..6), p in 0usize..6,
        kill_at in 3u64..40, kill_exec in 0usize..4,
        fetch_every in 2u64..8,
        budget in prop_oneof![Just(0usize), Just(300usize), Just(usize::MAX)],
        sparse in proptest::bool::ANY,
    ) {
        let plan = explicit_plan(4, kill_at, kill_exec, fetch_every, 5);
        let c = Context::builder()
            .workers(4)
            .max_task_attempts(8)
            .storage_memory(budget)
            .chaos(plan)
            .build();
        if sparse {
            let want = by_key(apply_chain_vec(oracle_sparse(rows, cols, salt), &ops, p));
            let d = apply_chain_dataset(sparse_tiles(&c, rows, cols, salt).persist(), &ops, p);
            for pass in 0..2 {
                prop_assert_eq!(
                    &by_key(d.collect()), &want,
                    "sparse chain {:?} p {} budget {} pass {} diverged",
                    ops, p, budget, pass
                );
            }
        } else {
            let want = by_key(apply_chain_vec(oracle_dense(rows, cols, salt), &ops, p));
            let d = apply_chain_dataset(dense_tiles(&c, rows, cols, salt).persist(), &ops, p);
            for pass in 0..2 {
                prop_assert_eq!(
                    &by_key(d.collect()), &want,
                    "dense chain {:?} p {} budget {} pass {} diverged",
                    ops, p, budget, pass
                );
            }
        }
    }
}

/// One full-scale 384x384 self-multiplication (the Fig. 4 matmul query)
/// under an explicit two-kill fault plan, bit-identical both to a
/// fault-free run and to the driver-side naive oracle. The 128-wide tiles
/// push every tile GEMM through the packed SIMD microkernel; integer inputs
/// make all reduction orders exact, so recovery must not move a single bit.
#[test]
fn e2e_384_matmul_survives_chaos_bit_identical() {
    let n = 384;
    let a = LocalMatrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 9) as f64 - 4.0);
    let oracle = chaos_session(n, 128, &a, None);
    let want = oracle.matrix(QUERIES[0]).unwrap().to_local();
    assert_eq!(
        &want,
        &a.multiply(&a),
        "fault-free run diverged from the driver oracle"
    );
    let chaotic = chaos_session(n, 128, &a, Some(explicit_plan(4, 5, 1, 4, 6)));
    assert_eq!(
        &chaotic.matrix(QUERIES[0]).unwrap().to_local(),
        &want,
        "chaotic run diverged from the fault-free run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `Auto`'s plan-time row vs the frozen oracle (a session pinned to
    /// `MatMulStrategy::ReduceByKey`): random paper queries over dense and
    /// zero-heavy integer-valued inputs, under seeded chaos, a 256-byte
    /// storage budget, and two worker processes, must be bit-identical
    /// whichever row `Auto` chose. Integer values make every reduction order
    /// exact, so a different row may not move a bit. The tiny broadcast
    /// budget arm makes `Auto` choose a shuffling row, the default budget a
    /// broadcast one.
    #[test]
    fn adaptive_matches_frozen_oracle_under_chaos(
        n in 4usize..9, tile in 1usize..4, seed in 0usize..500, query in 0usize..4,
        kill_at in 3u64..60, kill_exec in 0usize..4, fetch_every in 2u64..8,
        budget in prop_oneof![Just(64u64), Just(1u64 << 20)],
        sparse in proptest::bool::ANY,
    ) {
        let src = QUERIES[query];
        let a = if sparse {
            // ~25% nnz. Every tile is priced dense, so density alone never
            // moves the plan-time choice, and the run must match the frozen
            // plan.
            LocalMatrix::from_fn(n, n, |i, j| {
                if (i * 5 + j * 3 + seed) % 4 == 0 {
                    ((i + j + seed) % 7) as f64 - 3.0
                } else {
                    0.0
                }
            })
        } else {
            LocalMatrix::from_fn(n, n, |i, j| ((i * 7 + j * 3 + seed) % 9) as f64 - 4.0)
        };
        let session = |matmul: MatMulStrategy, plan: Option<ChaosPlan>| {
            let mut b = Session::builder()
                .workers(4)
                .partitions(4)
                .max_task_attempts(8)
                .storage_memory(256)
                .worker_processes(2)
                .broadcast_budget(budget)
                .matmul(matmul);
            b = match plan {
                Some(p) => b.chaos(p),
                None => b.chaos_off(),
            };
            let mut s = b.build();
            s.register_local_matrix("A", &a, tile);
            s.set_int("n", n as i64);
            s
        };

        let frozen = session(MatMulStrategy::ReduceByKey, None);
        let adaptive_clean = session(MatMulStrategy::Auto, None);
        let adaptive_chaotic = session(
            MatMulStrategy::Auto,
            Some(explicit_plan(4, kill_at, kill_exec, fetch_every, 5)),
        );

        if query == 3 {
            let want = frozen.vector(src).unwrap().to_local();
            prop_assert_eq!(
                &adaptive_clean.vector(src).unwrap().to_local(), &want,
                "adaptive fault-free run diverged from the frozen oracle"
            );
            prop_assert_eq!(
                &adaptive_chaotic.vector(src).unwrap().to_local(), &want,
                "adaptive kill@{} run diverged from the frozen oracle", kill_at
            );
        } else {
            let want = frozen.matrix(src).unwrap().to_local();
            prop_assert_eq!(
                &adaptive_clean.matrix(src).unwrap().to_local(), &want,
                "adaptive fault-free run diverged from the frozen oracle"
            );
            prop_assert_eq!(
                &adaptive_chaotic.matrix(src).unwrap().to_local(), &want,
                "adaptive kill@{} run diverged from the frozen oracle", kill_at
            );
        }
    }
}

// ---------------------------------------------------------------------------
// One attempt at a time: a task is retried after a failure and requeued after
// its executor is lost, but a second attempt of it never starts while another
// is still running, and exactly one attempt's result is accepted. The shuffle
// reduce relies on this when it fetches and merges a partition unlocked.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn a_task_runs_one_attempt_at_a_time_and_is_accepted_once(
        seed in 0u64..10_000, tasks in 64usize..256,
        kill_at in 1u64..48, kill_exec in 0usize..4,
        fail_every in 2u64..9, delay_every in 2u64..7, lose_task in 0usize..64,
    ) {
        let plan = ChaosPlan::seeded(seed, 4)
            .with_kill_at_task(kill_at, kill_exec)
            .with_kill_at_task(kill_at + 17, (kill_exec + 1) % 4)
            .with_task_failures(fail_every, 6)
            .with_task_delay(delay_every, 150);
        // 6 explicit + 2 seeded failures at most: no task runs out of attempts.
        let c = Context::builder().workers(4).max_task_attempts(16).chaos(plan).build();
        let running: Vec<AtomicBool> = (0..tasks).map(|_| AtomicBool::new(false)).collect();
        let overlaps = AtomicUsize::new(0);
        let lose_task_entries = AtomicUsize::new(0);
        c.trace();
        let out = c.run_tasks(tasks, |i| {
            if running[i].swap(true, Ordering::SeqCst) {
                overlaps.fetch_add(1, Ordering::SeqCst);
            }
            // Lose every executor under the first attempt of `lose_task`:
            // its result is discarded and the task requeued.
            if i == lose_task && lose_task_entries.fetch_add(1, Ordering::SeqCst) == 0 {
                for executor in 0..4 {
                    c.kill_executor(executor);
                }
            }
            // Long enough for a kill on another thread to land mid-body;
            // every 16th task straggles, where a scheduler that duplicated
            // slow tasks would start a second attempt.
            let micros = if i % 16 == 0 { 3_000 } else { 50 };
            std::thread::sleep(Duration::from_micros(micros));
            running[i].store(false, Ordering::SeqCst);
            i * 3
        });
        c.stop_trace();
        prop_assert_eq!(out, (0..tasks).map(|i| i * 3).collect::<Vec<_>>());
        prop_assert_eq!(overlaps.load(Ordering::SeqCst), 0, "two attempts of one task overlapped");
        prop_assert!(lose_task_entries.load(Ordering::SeqCst) >= 2, "the lost attempt was not rerun");
        let events = c.take_events();
        let mut accepted: BTreeMap<(u64, usize), usize> = BTreeMap::new();
        let mut failed = 0;
        for event in &events {
            if let Event::TaskEnd { stage_id, task, ok, .. } = event {
                if *ok {
                    *accepted.entry((*stage_id, *task)).or_default() += 1;
                } else {
                    failed += 1;
                }
            }
        }
        prop_assert_eq!(accepted.len(), tasks, "every task has an accepted result");
        prop_assert!(accepted.values().all(|&n| n == 1), "a task was accepted twice");
        prop_assert!(failed > 0, "no injected failure fired");
        prop_assert!(
            events.iter().any(|e| matches!(e, Event::ExecutorLost { .. })),
            "no kill fired"
        );
    }
}
