//! The contraction lowering and its strategy table, pinned from outside the
//! crate: matrix × vector is the `free-right = 1` case of matrix × matrix,
//! so every physical path must agree with every other and with the driver
//! oracle; the cost model's numbers are golden; and malformed tenant queries
//! are refused before any task is launched.

use comp::errors::CompError;
use planner::env::ArrayStats;
use planner::plan::plan;
use planner::{run_text, DistArray, ExecResult, MatMulStrategy, PlanConfig, PlanEnv};
use sparkline::{Cause, Context, Event};
use tiled::{LocalMatrix, TiledMatrix, TiledVector};

fn ctx() -> Context {
    Context::builder().workers(4).chaos_off().build()
}

fn config(matmul: MatMulStrategy) -> PlanConfig {
    PlanConfig {
        partitions: 4,
        matmul,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// (a) mat-vec parity
// ---------------------------------------------------------------------------

/// `A` is 10 x 7 over 4 x 4 tiles, so neither the output nor the contracted
/// dimension is a multiple of the block size in either orientation.
const ROWS: usize = 10;
const COLS: usize = 7;

fn mat_vec_env(c: &Context, x_len: usize) -> (PlanEnv, LocalMatrix, Vec<f64>) {
    let a = LocalMatrix::from_fn(ROWS, COLS, |i, j| ((i * 3 + j * 5) % 11) as f64 - 5.0);
    let x: Vec<f64> = (0..x_len).map(|k| ((k * 7) % 5) as f64 - 2.0).collect();
    let mut env = PlanEnv::new();
    env.set_array("A", DistArray::Matrix(TiledMatrix::from_local(c, &a, 4, 4)));
    env.set_array("V", DistArray::Vector(TiledVector::from_local(c, &x, 4, 2)));
    (env, a, x)
}

#[test]
fn mat_vec_paths_agree_bit_for_bit_and_match_the_oracle() {
    let c = ctx();
    // (generator pattern, group-by index, contracted length, output length,
    // element of A the output index `o` and contracted index `k` read)
    type Pick = fn(&LocalMatrix, usize, usize) -> f64;
    let orientations: [(&str, &str, usize, usize, Pick); 2] = [
        ("((i,k),a) <- A", "i", COLS, ROWS, |a, o, k| a.get(o, k)),
        ("((k,i),a) <- A", "i", ROWS, COLS, |a, o, k| a.get(k, o)),
    ];
    // `a + x + 1.0` is 1 on zero padding, so an unmasked contraction tail
    // would show up in every output element.
    type Combine = fn(f64, f64) -> f64;
    let combines: [(&str, Combine); 2] =
        [("a*x", |a, x| a * x), ("a + x + 1.0", |a, x| a + x + 1.0)];
    for (generator, key, inner, out_len, pick) in orientations {
        for (combine_src, combine) in combines {
            let (mut env, a, x) = mat_vec_env(&c, inner);
            env.set_int("n", out_len as i64);
            let src = format!(
                "tiled_vector(n)[ ({key}, +/v) | {generator}, (kk,x) <- V, kk == k, \
                 let v = {combine_src}, group by {key} ]"
            );
            let want: Vec<f64> = (0..out_len)
                .map(|o| (0..inner).fold(0.0, |acc, k| acc + combine(pick(&a, o, k), x[k])))
                .collect();
            let mut tags = Vec::new();
            for matmul in [
                MatMulStrategy::ReduceByKey,
                MatMulStrategy::Broadcast,
                MatMulStrategy::Auto,
            ] {
                let cfg = config(matmul);
                let planned = plan(&comp::parse_expr(&src).unwrap(), &env, &cfg).unwrap();
                tags.push(planned.plan.strategy_name());
                let got = planner::execute(&planned, &env, &c, &cfg)
                    .unwrap()
                    .into_vector()
                    .unwrap()
                    .to_local();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{matmul:?} on `{src}`: {got:?} vs {want:?}"
                );
            }
            assert_eq!(tags, ["matVec", "matVec/broadcast", "matVec/broadcast"]);
        }
    }
}

/// A non-product combine leaves the result's padding at `+0.0`, as every
/// tile producer does: `a / b` is ±∞ or NaN where both operands are zero
/// padding, and a later product `C·A` multiplies `C`'s padding columns by
/// `A`'s zero padding rows — NaN in every element.
#[test]
fn non_product_contraction_keeps_its_padding_zero() {
    let c = ctx();
    let a = LocalMatrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64 + 1.0);
    let b = LocalMatrix::from_fn(5, 5, |i, j| ((i + 2 * j) % 7) as f64 + 1.0);
    let mut env = PlanEnv::new();
    env.set_array(
        "A",
        DistArray::Matrix(TiledMatrix::from_local(&c, &a, 4, 4)),
    );
    env.set_array(
        "B",
        DistArray::Matrix(TiledMatrix::from_local(&c, &b, 4, 4)),
    );
    env.set_int("n", 5);
    let contraction = |left: &str, right: &str, v: &str| {
        format!(
            "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- {left}, ((kk,j),b) <- {right}, kk == k, \
             let v = {v}, group by (i,j) ]"
        )
    };
    for matmul in [
        MatMulStrategy::ReduceByKey,
        MatMulStrategy::GroupByJoin,
        MatMulStrategy::Broadcast,
        MatMulStrategy::JoinGroupBy,
    ] {
        let cfg = config(matmul);
        let run = |src: &str, env: &PlanEnv| {
            let planned = plan(&comp::parse_expr(src).unwrap(), env, &cfg).unwrap();
            planner::execute(&planned, env, &c, &cfg)
                .unwrap()
                .into_matrix()
                .unwrap()
        };
        let quotient = run(&contraction("A", "B", "a / b"), &env);
        for ((bi, bj), t) in quotient.tiles().collect() {
            for (e, x) in t.data().iter().enumerate() {
                let (i, j) = (bi * 4 + (e / 4) as i64, bj * 4 + (e % 4) as i64);
                if i >= 5 || j >= 5 {
                    assert_eq!(x.to_bits(), 0, "{matmul:?}: padding ({i},{j}) is {x}");
                }
            }
        }
        let want = quotient.to_local().multiply(&a);
        let mut env = env.clone();
        env.set_array("C", DistArray::Matrix(quotient));
        let got = run(&contraction("C", "A", "a*b"), &env).to_local();
        assert!(got.approx_eq(&want, 1e-12), "{matmul:?}: {got:?}");
    }
}

/// The mat-vec twin: `x / a` over zero padding is ±∞ or NaN, and `A·y`
/// multiplies `y`'s padding by `A`'s zero padding columns.
#[test]
fn non_product_mat_vec_keeps_its_padding_zero() {
    let c = ctx();
    let a = LocalMatrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64 + 1.0);
    let x: Vec<f64> = (0..5).map(|k| k as f64 - 1.5).collect();
    let mut env = PlanEnv::new();
    env.set_array(
        "A",
        DistArray::Matrix(TiledMatrix::from_local(&c, &a, 4, 4)),
    );
    env.set_array(
        "V",
        DistArray::Vector(TiledVector::from_local(&c, &x, 4, 2)),
    );
    env.set_int("n", 5);
    let mat_vec = |vector: &str, v: &str| {
        format!(
            "tiled_vector(n)[ (i, +/v) | ((i,k),a) <- A, (kk,x) <- {vector}, kk == k, \
             let v = {v}, group by i ]"
        )
    };
    for matmul in [MatMulStrategy::ReduceByKey, MatMulStrategy::Broadcast] {
        let cfg = config(matmul);
        let run = |src: &str, env: &PlanEnv| {
            let planned = plan(&comp::parse_expr(src).unwrap(), env, &cfg).unwrap();
            planner::execute(&planned, env, &c, &cfg)
                .unwrap()
                .into_vector()
                .unwrap()
        };
        let y = run(&mat_vec("V", "x / a"), &env);
        for (b, block) in y.blocks().collect() {
            for (e, v) in block.iter().enumerate() {
                let i = b * 4 + e as i64;
                if i >= 5 {
                    assert_eq!(v.to_bits(), 0, "{matmul:?}: padding {i} is {v}");
                }
            }
        }
        let want = a.to_dense().matvec(&y.to_local());
        let mut env = env.clone();
        env.set_array("Y", DistArray::Vector(y));
        let got = run(&mat_vec("Y", "a*x"), &env).to_local();
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (g - w).abs() <= 1e-12 * w.abs().max(1.0),
                "{matmul:?}: {got:?}"
            );
        }
    }
}

/// A pinned strategy with no 1-D lowering pins mat-vec to the shuffle path.
#[test]
fn pinned_matrix_only_strategies_pin_mat_vec_to_the_shuffle_path() {
    let c = ctx();
    let (mut env, _, _) = mat_vec_env(&c, COLS);
    env.set_int("n", ROWS as i64);
    let src = "tiled_vector(n)[ (i, +/v) | ((i,k),a) <- A, (kk,x) <- V, kk == k, \
               let v = a*x, group by i ]";
    for matmul in [MatMulStrategy::GroupByJoin, MatMulStrategy::JoinGroupBy] {
        let planned = plan(&comp::parse_expr(src).unwrap(), &env, &config(matmul)).unwrap();
        let decision = planned.plan.decision().unwrap();
        assert_eq!((decision.chosen, decision.auto), ("matVec", false));
    }
}

// ---------------------------------------------------------------------------
// (b) golden `plan_chosen` payloads
// ---------------------------------------------------------------------------

const MUL_SRC: &str = "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, \
     let v = a*b, group by (i,j) ]";
/// `C = Aᵀ·Bᵀ`: both operands re-oriented before costing.
const MUL_TT_SRC: &str = "tiled(n,m)[ ((i,j), +/v) | ((k,i),a) <- A, ((j,kk),b) <- B, kk == k, \
     let v = a*b, group by (i,j) ]";
const MAT_VEC_SRC: &str = "tiled_vector(n)[ (i, +/v) | ((i,k),a) <- A, (kk,x) <- V, kk == k, \
     let v = a*x, group by i ]";
const MAT_VEC_T_SRC: &str = "tiled_vector(n)[ (j, +/v) | ((k,j),a) <- A, (kk,x) <- V, kk == k, \
     let v = a*x, group by j ]";

/// The decision the planner records for `src` when the named arrays carry
/// exactly `stats` (the registered arrays only supply the generator kinds).
fn decision_under(
    src: &str,
    stats: &[(&str, ArrayStats)],
    cfg: &PlanConfig,
) -> (&'static str, u64, Vec<(&'static str, u64)>) {
    let c = ctx();
    let mut env = PlanEnv::new();
    let tiny = LocalMatrix::from_fn(2, 2, |i, j| (i + j) as f64);
    for name in ["A", "B"] {
        env.set_array(
            name,
            DistArray::Matrix(TiledMatrix::from_local(&c, &tiny, 2, 1)),
        );
    }
    env.set_array(
        "V",
        DistArray::Vector(TiledVector::from_local(&c, &[1.0, 2.0], 2, 1)),
    );
    env.set_int("n", 2);
    env.set_int("m", 2);
    for (name, s) in stats {
        env.set_stats(*name, *s);
    }
    let planned = plan(&comp::parse_expr(src).unwrap(), &env, cfg).unwrap();
    let d = planned.plan.decision().expect("a cost-based node");
    assert!(d.auto);
    assert_eq!(d.chosen, planned.plan.strategy_name());
    (d.chosen, d.est_shuffle_bytes, d.candidates.clone())
}

#[test]
fn contraction_decisions_are_the_parent_commits_numbers() {
    // Under the 1 MiB budget: 96 x 64 by 64 x 80 on 16² tiles, 2 088 B a
    // tile record: 24 left tiles (50 112 B), 20 right (41 760 B).
    let small = [
        ("A", ArrayStats::matrix(96, 64, 16)),
        ("B", ArrayStats::matrix(64, 80, 16)),
    ];
    assert_eq!(
        decision_under(MUL_SRC, &small, &config(MatMulStrategy::Auto)),
        (
            "contraction/broadcast",
            // The right side once, 30 output blocks, one round.
            120_784,
            vec![
                ("contraction/broadcast", 120_784),
                // 6 x 5 output blocks over 4 partitions: a 2 x 2 cell grid,
                // each side sent once to its bands, two rounds.
                ("contraction/groupByJoin", 124_640),
                // A tie: list order is the tie-break order. Both sides once,
                // 120 partial (or product) blocks, three rounds.
                ("contraction/reduceByKey", 391_584),
                ("contraction/joinGroupBy", 391_584),
            ]
        )
    );
    // Over it: 4096 x 2048 by 2048 x 3072 on 128² tiles, autotuned
    // partitions (nominal 8), both operands transposed into place.
    let large = [
        ("A", ArrayStats::matrix(2048, 4096, 128)),
        ("B", ArrayStats::matrix(3072, 2048, 128)),
    ];
    assert_eq!(
        decision_under(MUL_TT_SRC, &large, &PlanConfig::default()),
        // 32 x 24 output blocks over 8 partitions: a 2 x 4 cell grid, each
        // side sent once to its bands — under reduceByKey's 16-deep partial
        // sums.
        (
            "contraction/groupByJoin",
            117_509_120,
            vec![
                ("contraction/groupByJoin", 117_509_120),
                ("contraction/reduceByKey", 923_077_632),
                ("contraction/joinGroupBy", 1_728_629_760),
            ]
        )
    );
}

#[test]
fn mat_vec_decisions_are_the_parent_commits_numbers() {
    let small = [
        ("A", ArrayStats::matrix(4096, 2048, 128)),
        ("V", ArrayStats::vector(2048, 128)),
    ];
    assert_eq!(
        decision_under(MAT_VEC_SRC, &small, &config(MatMulStrategy::Auto)),
        (
            "matVec/broadcast",
            49_920,
            vec![("matVec/broadcast", 49_920), ("matVec", 67_328_256)]
        )
    );
    // A vector over the budget, contracted against the matrix's rows, at
    // nominal partitions: 262 144 tiles of 131 112 B, 8 192 vector blocks of
    // 1 040 B, 32 x 8 partial blocks and three rounds.
    let large = [
        ("A", ArrayStats::matrix(1 << 20, 4096, 128)),
        ("V", ArrayStats::vector(1 << 20, 128)),
    ];
    assert_eq!(
        decision_under(MAT_VEC_T_SRC, &large, &PlanConfig::default()),
        ("matVec", 34_379_059_200, vec![("matVec", 34_379_059_200)])
    );
}

// ---------------------------------------------------------------------------
// (c) malformed queries are errors, not panics
// ---------------------------------------------------------------------------

fn stencil_env(c: &Context) -> PlanEnv {
    let a = LocalMatrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
    let mut env = PlanEnv::new();
    env.set_array("A", DistArray::Matrix(TiledMatrix::from_local(c, &a, 4, 4)));
    env.set_int("n", 8);
    env
}

fn run(src: &str, env: &PlanEnv, c: &Context) -> Result<ExecResult, CompError> {
    run_text(src, env, c, &config(MatMulStrategy::Auto))
}

#[test]
fn unbound_name_in_a_group_by_qualifier_is_refused_before_any_task_runs() {
    let c = ctx();
    let env = stencil_env(&c);
    let src = "tiled(n,n)[ ((ii,jj), +/w) | ((i,j),a) <- A, ii <- (i-1) to (i+1), \
               jj <- (j-1) to (j+1), let w = a + qq, group by (ii,jj) ]";
    let planned = plan(
        &comp::parse_expr(src).unwrap(),
        &env,
        &config(MatMulStrategy::Auto),
    )
    .unwrap();
    assert_eq!(planned.plan.strategy_name(), "groupByAggregate");
    c.trace();
    let err = run(src, &env, &c).err().expect("`qq` is unbound");
    assert_eq!(err.to_string(), "eval error: unbound variable `qq`");
    let tasks = c
        .take_events()
        .iter()
        .filter(|e| matches!(e, Event::TaskEnd { .. }))
        .count();
    assert_eq!(tasks, 0, "the node must be refused while it is lowered");
    // Bound the same way, the query runs.
    let mut bound = env.clone();
    bound.set_float("qq", 1.0);
    assert!(run(src, &bound, &c).is_ok());
}

/// A data-dependent failure cannot be seen from the driver: it stays a task
/// failure, a deterministic one, and the error that reaches the caller
/// carries the `CompError` text.
#[test]
fn data_dependent_group_by_failure_is_a_task_failure_carrying_the_error_text() {
    let c = Context::builder().workers(2).chaos_off().build();
    let env = stencil_env(&c);
    let src = "tiled(n,n)[ ((ii,jj), +/w) | ((i,j),a) <- A, ii <- (i-1) to (i+1), \
               jj <- (j-1) to (j+1), let w = 1 / (i - i), group by (ii,jj) ]";
    let lazy = run(src, &env, &c).unwrap().into_matrix().unwrap();
    let err = lazy
        .tiles()
        .try_collect()
        .expect_err("every element divides by zero");
    assert_eq!(err.cause, Cause::Deterministic);
    assert_eq!(err.message, "eval error: integer division by zero");
}

/// Failed attempts and stages started, from the trace of `run`.
fn attempts_and_stages(c: &Context, run: impl FnOnce()) -> (usize, usize) {
    c.trace();
    run();
    let events = c.take_events();
    let failed = events
        .iter()
        .filter(|e| matches!(e, Event::TaskEnd { ok: false, .. }))
        .count();
    let stages = events
        .iter()
        .filter(|e| matches!(e, Event::StageStart { .. }))
        .count();
    (failed, stages)
}

/// The same failure at the default attempt limit costs one attempt of the
/// failing map task, retrying cannot change it, and one stage: the shuffle
/// runs from the driver, so no retried task re-runs a whole map stage.
#[test]
fn data_dependent_group_by_failure_costs_one_tasks_attempts_and_one_stage() {
    let c = Context::builder().workers(1).chaos_off().build();
    assert_eq!(c.max_task_attempts(), 4, "the default attempt limit");
    let env = stencil_env(&c);
    let src = "tiled(n,n)[ ((ii,jj), +/w) | ((i,j),a) <- A, ii <- (i-1) to (i+1), \
               jj <- (j-1) to (j+1), let w = 1 / (i - i), group by (ii,jj) ]";
    let lazy = run(src, &env, &c).unwrap();
    let cost = attempts_and_stages(&c, || {
        let err = lazy.force().err().expect("every element divides by zero");
        assert!(
            err.to_string()
                .ends_with("eval error: integer division by zero"),
            "{err}"
        );
    });
    assert_eq!(cost, (1, 1));
}

/// A non-separable §5.2 index map whose index expression fails
/// (`i / (j - j)`) fails its map task deterministically: one attempt.
#[test]
fn a_failing_non_separable_index_map_costs_one_attempt() {
    let c = Context::builder().workers(1).chaos_off().build();
    let env = stencil_env(&c);
    let src = "tiled(n,n)[ ((i / (j - j), j), v) | ((i,j),v) <- A ]";
    let planned = plan(
        &comp::parse_expr(src).unwrap(),
        &env,
        &config(MatMulStrategy::Auto),
    )
    .unwrap();
    assert_eq!(planned.plan.strategy_name(), "indexRemap");
    let lazy = run(src, &env, &c).unwrap();
    let cost = attempts_and_stages(&c, || {
        let err = lazy.force().err().expect("every index divides by zero");
        assert!(
            err.to_string().ends_with("integer division by zero"),
            "{err}"
        );
    });
    assert_eq!(cost, (1, 1));
}

/// The local fallback reads its inputs through a fallible action: a lazy
/// input whose lineage fails is the statement's `Err`, not a panic.
#[test]
fn a_local_fallback_over_a_failing_input_returns_its_error() {
    let c = Context::builder().workers(1).chaos_off().build();
    let mut env = stencil_env(&c);
    let src = "tiled(n,n)[ ((ii,jj), +/w) | ((i,j),a) <- A, ii <- (i-1) to (i+1), \
               jj <- (j-1) to (j+1), let w = 1 / (i - i), group by (ii,jj) ]";
    let m = run(src, &env, &c).unwrap().into_matrix().unwrap();
    env.set_array("M", DistArray::Matrix(m));
    let src = "[ (x, y) | ((i,j),x) <- M, ((k,l),y) <- A ]";
    let planned = plan(
        &comp::parse_expr(src).unwrap(),
        &env,
        &config(MatMulStrategy::Auto),
    )
    .unwrap();
    assert_eq!(planned.plan.strategy_name(), "localFallback");
    let err = run(src, &env, &c)
        .err()
        .expect("M's lineage divides by zero");
    assert!(
        err.to_string()
            .ends_with("eval error: integer division by zero"),
        "{err}"
    );
}

#[test]
fn non_positive_builder_dimensions_are_plan_errors() {
    let c = ctx();
    let env = stencil_env(&c);
    for src in [
        "tiled(0,0)[ ((i+1,j),v) | ((i,j),v) <- A ]",
        "tiled(0-1,0-1)[ ((ii,jj), +/a) | ((i,j),a) <- A, ii <- (i-1) to (i+1), \
         jj <- (j-1) to (j+1), group by (ii,jj) ]",
        "tiled(n,0)[ ((i,j),v) | ((i,j),v) <- A ]",
        "tiled_vector(0)[ (i,a) | ((i,j),a) <- A ]",
        "tiled_vector(0-3)[ (i, +/a) | ((i,j),a) <- A, group by i ]",
    ] {
        let err = run(src, &env, &c)
            .err()
            .unwrap_or_else(|| panic!("`{src}` ran"));
        assert!(
            err.to_string().starts_with("plan error:") && err.to_string().contains("positive"),
            "`{src}`: {err}"
        );
    }
}
