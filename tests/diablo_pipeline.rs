//! The full pipeline the paper describes in §1.1: imperative loops →
//! (DIABLO) array comprehensions → (SAC) distributed block-array plans.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sac_repro::diablo::{parse_program, translate, Translated};
use sac_repro::planner::ExecResult;
use sac_repro::sac::{linalg, MatMulStrategy, Session};
use sac_repro::tiled::{LocalMatrix, TiledMatrix};

fn session_with(mats: &[(&str, &LocalMatrix)]) -> Session {
    let mut s = Session::builder().workers(4).partitions(4).build();
    for (name, m) in mats {
        s.register_local_matrix(*name, m, 4);
    }
    s
}

fn run_loop_program(s: &Session, src: &str) -> sac_repro::planner::ExecResult {
    let program = parse_program(src).unwrap();
    let translated = translate(&program).unwrap();
    assert_eq!(translated.outputs.len(), 1);
    s.run_expr(&translated.outputs[0].1).unwrap()
}

#[test]
fn triple_loop_matmul_plans_as_contraction() {
    let mut rng = StdRng::seed_from_u64(1);
    let a = LocalMatrix::random(8, 8, -1.0, 1.0, &mut rng);
    let b = LocalMatrix::random(8, 8, -1.0, 1.0, &mut rng);
    let mut s = session_with(&[("A", &a), ("B", &b)]);
    s.set_int("n", 8);
    let src = "for i = 0, n-1 do for j = 0, n-1 do for k = 0, n-1 do \
               C[i, j] += A[i, k] * B[k, j];";
    let program = parse_program(src).unwrap();
    let translated = translate(&program).unwrap();
    let expr = &translated.outputs[0].1;
    // The loop program must compile to the §5.4 contraction plan.
    let plan = s.compile_expr(expr).unwrap();
    assert!(
        plan.plan.strategy_name().starts_with("contraction"),
        "got {}",
        plan.plan.strategy_name()
    );
    let got = s.run_expr(expr).unwrap().into_matrix().unwrap().to_local();
    assert!(got.max_abs_diff(&a.multiply(&b)) < 1e-9);
}

#[test]
fn double_loop_row_sums_plans_as_axis_reduce() {
    let mut rng = StdRng::seed_from_u64(2);
    let m = LocalMatrix::random(9, 7, 0.0, 5.0, &mut rng);
    let mut s = session_with(&[("M", &m)]);
    s.set_int("n", 9);
    s.set_int("m", 7);
    let src = "for i = 0, n-1 do for j = 0, m-1 do V[i] += M[i, j];";
    let translated = translate(&parse_program(src).unwrap()).unwrap();
    let expr = &translated.outputs[0].1;
    let plan = s.compile_expr(expr).unwrap();
    assert_eq!(plan.plan.strategy_name(), "axisReduce", "{expr}");
    let got = s.run_expr(expr).unwrap().into_vector().unwrap().to_local();
    for (g, w) in got.iter().zip(m.row_sums()) {
        assert!((g - w).abs() < 1e-9);
    }
}

#[test]
fn elementwise_loop_plans_as_eltwise() {
    let mut rng = StdRng::seed_from_u64(3);
    let a = LocalMatrix::random(6, 6, -1.0, 1.0, &mut rng);
    let b = LocalMatrix::random(6, 6, -1.0, 1.0, &mut rng);
    let mut s = session_with(&[("A", &a), ("B", &b)]);
    s.set_int("n", 6);
    let src = "for i = 0, n-1 do for j = 0, n-1 do C[i, j] = A[i, j] + 2.0 * B[i, j];";
    let translated = translate(&parse_program(src).unwrap()).unwrap();
    let expr = &translated.outputs[0].1;
    let plan = s.compile_expr(expr).unwrap();
    // Loop-translated elementwise programs go through the same fuse pass as
    // hand-written comprehensions: the whole region plans as one fused kernel.
    assert_eq!(plan.plan.strategy_name(), "eltwise/fused", "{expr}");
    let got = s.run_expr(expr).unwrap().into_matrix().unwrap().to_local();
    let want = a.add(&b.scale(2.0));
    assert!(got.approx_eq(&want, 1e-12));
}

#[test]
fn init_plus_accumulate_runs_like_hand_written_loops() {
    // The literal DIABLO shape: zero-init then accumulate.
    let mut rng = StdRng::seed_from_u64(4);
    let m = LocalMatrix::random(10, 10, 0.0, 1.0, &mut rng);
    let mut s = session_with(&[("M", &m)]);
    s.set_int("n", 10);
    let src = "for i = 0, n-1 do V[i] = 0.0; \
               for i = 0, n-1 do for j = 0, n-1 do V[i] += M[i, j];";
    let got = run_loop_program(&s, src).into_vector().unwrap().to_local();
    for (g, w) in got.iter().zip(m.row_sums()) {
        assert!((g - w).abs() < 1e-9);
    }
}

#[test]
fn column_sums_via_loop_order_independence() {
    // Accumulating into V[j] groups by the column index regardless of loop
    // order — the declarative translation is order-insensitive.
    let mut rng = StdRng::seed_from_u64(5);
    let m = LocalMatrix::random(7, 9, 0.0, 1.0, &mut rng);
    let mut s = session_with(&[("M", &m)]);
    s.set_int("n", 7);
    s.set_int("m", 9);
    let src = "for i = 0, n-1 do for j = 0, m-1 do V[j] += M[i, j];";
    let got = run_loop_program(&s, src).into_vector().unwrap().to_local();
    for (j, &gj) in got.iter().enumerate().take(9) {
        let want: f64 = (0..7).map(|i| m.get(i, j)).sum();
        assert!((gj - want).abs() < 1e-9);
    }
}

#[test]
fn a_multi_statement_program_runs_end_to_end() {
    // Each statement reads the one before; C is read by two later ones.
    let mut rng = StdRng::seed_from_u64(6);
    let a = LocalMatrix::random(9, 9, -1.0, 1.0, &mut rng);
    let b = LocalMatrix::random(9, 9, -1.0, 1.0, &mut rng);
    let mut s = session_with(&[("A", &a), ("B", &b)]);
    s.set_int("n", 9);
    let src = "for i = 0, n-1 do for j = 0, n-1 do for k = 0, n-1 do \
               C[i, j] += A[i, k] * B[k, j]; \
               for i = 0, n-1 do for j = 0, n-1 do D[i, j] = C[i, j] + 2.0 * A[i, j]; \
               for i = 0, n-1 do for j = 0, n-1 do V[i] += D[i, j]; \
               for i = 0, n-1 do for j = 0, n-1 do W[j] += C[i, j];";
    let program = translate(&parse_program(src).unwrap()).unwrap();
    let outputs = s.run_program(&program, s.env()).unwrap();
    let names: Vec<&str> = outputs.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["C", "D", "V", "W"]);

    let c = a.multiply(&b);
    let d = c.add(&a.scale(2.0));
    let column_sums = c.transpose().row_sums();
    let matrix = |at: usize| outputs[at].1.clone().into_matrix().unwrap();
    let vector = |at: usize| outputs[at].1.clone().into_vector().unwrap().to_local();
    assert!(matrix(0).to_local().max_abs_diff(&c) < 1e-9);
    assert!(matrix(1).to_local().max_abs_diff(&d) < 1e-9);
    for (got, want) in [(vector(2), d.row_sums()), (vector(3), column_sums)] {
        assert!(got.iter().zip(&want).all(|(g, w)| (g - w).abs() < 1e-9));
    }
    // Only C, which two later statements read, is persisted.
    let persisted = |at: usize| {
        matches!(&outputs[at].1,
        ExecResult::Matrix(m) if m.tiles().op().cache_id().is_some())
    };
    assert!(persisted(0), "C is read twice");
    assert!(!persisted(1), "D is read once");
}

#[test]
fn a_statement_reading_an_undefined_name_is_an_error() {
    let mut rng = StdRng::seed_from_u64(7);
    let a = LocalMatrix::random(6, 6, -1.0, 1.0, &mut rng);
    let mut s = session_with(&[("A", &a)]);
    s.set_int("n", 6);
    let src = "for i = 0, n-1 do for j = 0, n-1 do C[i, j] = A[i, j] + 1.0; \
               for i = 0, n-1 do for j = 0, n-1 do D[i, j] = C[i, j] * Missing[i, j];";
    let program = translate(&parse_program(src).unwrap()).unwrap();
    let err = s
        .run_program(&program, s.env())
        .err()
        .expect("D reads an unbound name");
    assert!(err.to_string().contains("Missing"), "{err}");
}

/// Two chained factorization steps, as one program per step and as six
/// separately planned queries per step, on a fringe shape: the same plan
/// choices and equal bits on every contraction strategy, and — `Auto` on
/// the shuffling rows — no job but the two that read P' and Q' back.
#[test]
fn the_factorization_program_is_the_statement_at_a_time_step_bit_for_bit() {
    // Neither 10 nor 9 nor 3 is a multiple of the tile size 4.
    let (n, m, rank, tile) = (10, 9, 3, 4);
    let mut rng = StdRng::seed_from_u64(28);
    let r = common::rough(n, m, &mut rng);
    let p = common::rough(n, rank, &mut rng);
    let q = common::rough(m, rank, &mut rng);
    let (gamma, lambda) = (0.002, 0.02);
    let bits = |x: &TiledMatrix| common::bits(x.to_local().data());
    let strategies = [
        (MatMulStrategy::Auto, 1 << 20),
        (MatMulStrategy::Auto, 0),
        (MatMulStrategy::GroupByJoin, 0),
        (MatMulStrategy::ReduceByKey, 0),
    ];
    for (matmul, budget) in strategies {
        let mut s = Session::builder()
            .workers(4)
            .partitions(4)
            .matmul(matmul)
            .broadcast_budget(budget)
            .chaos_off()
            .build();
        for (name, x) in [("R", &r), ("P", &p), ("Q", &q)] {
            s.register_local_matrix(name, x, tile);
        }
        let named = |name: &str| s.matrix_named(name).unwrap();
        let r = named("R");
        let (mut by_program, mut by_statement) =
            ((named("P"), named("Q")), (named("P"), named("Q")));
        for step in 0..2 {
            s.spark().trace();
            let (p2, q2) =
                linalg::factorization_step(&s, &r, &by_program.0, &by_program.1, gamma, lambda)
                    .unwrap();
            let (p_bits, q_bits) = (bits(&p2), bits(&q2));
            let program = s.spark().take_profile();
            let (p1, q1) = &by_statement;
            let (p2_oracle, q2_oracle) =
                common::factorization_step_by_statement(&s, &r, p1, q1, gamma, lambda).unwrap();
            assert_eq!(
                p_bits,
                bits(&p2_oracle),
                "{matmul:?}/{budget}: P' of step {step}"
            );
            assert_eq!(
                q_bits,
                bits(&q2_oracle),
                "{matmul:?}/{budget}: Q' of step {step}"
            );
            let statements = s.spark().take_profile();
            assert_eq!(
                program.plan_choices, statements.plan_choices,
                "{matmul:?}/{budget}"
            );
            if (matmul, budget) == (MatMulStrategy::Auto, 0) {
                assert_eq!(
                    (program.jobs.len(), statements.jobs.len()),
                    (2, 2),
                    "step {step}: only the reads of P' and Q' run jobs; nothing probes"
                );
            }
            (by_program, by_statement) = ((p2, q2), (p2_oracle, q2_oracle));
        }
    }
}

/// The plan-node tag of a cover: a group-by-join product and its one
/// element-wise reader, run in the product's cells.
const COVER: &str = "contraction/groupByJoin+eltwise/fused";

/// Two products, each read by one element-wise statement alone: `C` by `D`
/// and `F` by `G` (`D`, read twice, is persisted anyway).
const TWO_COVERS: &str = "\
    for i = 0, n-1 do for j = 0, n-1 do for k = 0, n-1 do C[i, j] += A[i, k] * B[k, j]; \
    for i = 0, n-1 do for j = 0, n-1 do D[i, j] = C[i, j] - 2.0 * A[i, j]; \
    for i = 0, n-1 do for j = 0, n-1 do for k = 0, n-1 do F[i, j] += D[i, k] * B[k, j]; \
    for i = 0, n-1 do for j = 0, n-1 do G[i, j] = A[i, j] + F[i, j] * D[i, j];";

fn persisted(result: &ExecResult) -> bool {
    matches!(result, ExecResult::Matrix(m) if m.tiles().op().cache_id().is_some())
}

/// Output `name` of `program`'s matrix statements run one query at a time,
/// each output registered in the session for the statements after it.
fn one_query_at_a_time(s: &mut Session, program: &Translated, name: &str) -> LocalMatrix {
    for (output, expr) in &program.outputs {
        let result = s.run_expr(expr).unwrap().into_matrix().unwrap();
        s.register_matrix(output.as_str(), result);
    }
    s.matrix_named(name).unwrap().to_local()
}

/// Stages the trace tagged with the cover's tag.
fn cover_stages(profile: &sac_repro::sparkline::JobProfile) -> usize {
    let tags = profile.stages.iter().filter_map(|st| st.tag.as_deref());
    tags.filter(|&tag| tag == COVER).count()
}

/// A program the cover takes, on rough floats and a fringe shape, against
/// its statements run one query at a time: the same bits under every
/// contraction row. Under the group-by-join each product is left unstored
/// — its reader's result is — and the readers' stages carry the cover's
/// tag; under `reduceByKey` nothing is covered.
#[test]
fn a_covered_program_is_its_statements_run_one_query_at_a_time() {
    let n = 10;
    let mut rng = StdRng::seed_from_u64(46);
    let (a, b) = (common::rough(n, n, &mut rng), common::rough(n, n, &mut rng));
    let program = translate(&parse_program(TWO_COVERS).unwrap()).unwrap();
    for matmul in [
        MatMulStrategy::Auto,
        MatMulStrategy::GroupByJoin,
        MatMulStrategy::ReduceByKey,
    ] {
        let mut s = Session::builder()
            .workers(4)
            .partitions(4)
            .matmul(matmul)
            .broadcast_budget(0)
            .chaos_off()
            .build();
        s.register_local_matrix("A", &a, 4);
        s.register_local_matrix("B", &b, 4);
        s.set_int("n", n as i64);
        s.spark().trace();
        let outputs = s.run_program(&program, s.env()).unwrap();
        let g = outputs[3].1.clone().into_matrix().unwrap().to_local();
        let profile = s.spark().take_profile();

        let oracle = one_query_at_a_time(&mut s, &program, "G");
        assert_eq!(
            common::bits(g.data()),
            common::bits(oracle.data()),
            "{matmul:?}"
        );

        let covered = profile
            .plan_choices
            .iter()
            .all(|c| c.chosen == "contraction/groupByJoin");
        assert_eq!(covered, matmul != MatMulStrategy::ReduceByKey, "{matmul:?}");
        let stored: Vec<bool> = outputs.iter().map(|(_, r)| persisted(r)).collect();
        if covered {
            assert_eq!(stored, [false, true, false, true], "{matmul:?}");
            assert!(cover_stages(&profile) > 0, "{}", profile.render());
        } else {
            assert_eq!(stored, [false, true, false, false], "{matmul:?}");
            assert_eq!(cover_stages(&profile), 0, "{}", profile.render());
        }
    }
}

/// A product whose one reader joins a co-input laid out at another
/// partition count is not covered: it is persisted, as a query of its own
/// persists it, and no stage carries the cover's tag.
#[test]
fn a_co_input_at_another_partition_count_runs_the_statement_plans() {
    let n = 10;
    let mut rng = StdRng::seed_from_u64(47);
    let (a, b) = (common::rough(n, n, &mut rng), common::rough(n, n, &mut rng));
    let mut s = Session::builder()
        .workers(4)
        .partitions(4)
        .matmul(MatMulStrategy::GroupByJoin)
        .chaos_off()
        .build();
    s.register_local_matrix("A", &a, 4);
    s.register_local_matrix("B", &b, 4);
    // A's grid over two partitions, not the plan's four.
    let two = TiledMatrix::from_local(s.spark(), &a, 4, 2).partition_by_grid(2);
    s.register_matrix("A2", two);
    s.set_int("n", n as i64);
    let src = "for i = 0, n-1 do for j = 0, n-1 do for k = 0, n-1 do \
               C[i, j] += A[i, k] * B[k, j]; \
               for i = 0, n-1 do for j = 0, n-1 do D[i, j] = C[i, j] - 2.0 * A2[i, j];";
    let program = translate(&parse_program(src).unwrap()).unwrap();
    s.spark().trace();
    let outputs = s.run_program(&program, s.env()).unwrap();
    let d = outputs[1].1.clone().into_matrix().unwrap().to_local();
    let profile = s.spark().take_profile();
    assert!(
        persisted(&outputs[0].1),
        "C is stored before its reader runs"
    );
    assert!(!persisted(&outputs[1].1), "D is read by no one");
    assert_eq!(cover_stages(&profile), 0, "{}", profile.render());
    let oracle = one_query_at_a_time(&mut s, &program, "D");
    assert_eq!(common::bits(d.data()), common::bits(oracle.data()));
}
