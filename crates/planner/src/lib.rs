//! # planner — comprehension-to-dataflow translation
//!
//! This crate implements the paper's §4–§5: it takes a (parsed, normalized)
//! array comprehension over **tiled** arrays and selects a distributed plan.
//! The translation rules are one table, `plan::PLAN_TABLE`: each row is a
//! tag, the builder it serves, a pattern over the normalized statement, a
//! cost and a lowering (`exec`), and a new plan shape is one row.
//!
//! | Paper rule | Rows |
//! |---|---|
//! | §5.1 rule (17), tiling-preserving | `eltwise/fused` (`n x n` tiles), `vectorEltwise` (`n x 1`) — one fused tile program ([`scalar::compile`]) |
//! | §5.2 rule (19), index remap with tile replication | `indexRemap` |
//! | §5.3 group-by → tile `reduceByKey` (rule 13) | `contraction/reduceByKey`, `matVec`, `axisReduce` (Fig. 1), `groupByAggregate` |
//! | §5.4 group-by-join (SUMMA) | `contraction/groupByJoin` |
//! | §4 join + group-by; MLlib's broadcast join | `contraction/joinGroupBy`; `contraction/broadcast`, `matVec/broadcast` |
//! | rule (14) join detection | [`analysis::VarClasses`] over equality guards |
//! | rule (15) injective group-by elimination | applied in `comp::normalize` before planning |
//! | — (semantics always win) | `localFallback`: the reference interpreter over sparsified arrays, with the reason every other row rejected the statement |
//!
//! The contraction rows share one pattern; among them a node takes the
//! cheapest by estimated shuffle bytes at plan time, and that row is the one
//! that runs.
//!
//! A translated loop program runs as one unit ([`program::run`]): its
//! statements plan in order against one environment, an intermediate read
//! twice is evaluated once, and a group-by-join product read by one
//! element-wise statement alone is covered by it — never stored.

pub mod analysis;
pub mod env;
pub mod exec;
pub mod plan;
pub mod program;
pub mod scalar;

pub use env::{DistArray, PlanEnv};
pub use exec::{execute, ExecResult};
pub use plan::{MatMulStrategy, OutputKind, Plan, PlanConfig, Planned};
pub use scalar::IdxFn;

use comp::ast::Expr;
use comp::errors::CompError;
use sparkline::Context;

/// Plan and execute a comprehension in one call.
pub fn run(
    expr: &Expr,
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
) -> Result<ExecResult, CompError> {
    let planned = plan::plan(expr, env, config)?;
    execute(&planned, env, ctx, config)
}

/// Parse, plan, and execute comprehension source text.
pub fn run_text(
    src: &str,
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
) -> Result<ExecResult, CompError> {
    let expr = comp::parse_expr(src)?;
    run(&expr, env, ctx, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tiled::{LocalMatrix, TiledMatrix};

    fn ctx() -> Context {
        Context::builder().workers(4).build()
    }

    fn setup(
        ctx: &Context,
        names: &[(&str, usize, usize, u64)],
        tile: usize,
    ) -> (PlanEnv, Vec<LocalMatrix>) {
        let mut env = PlanEnv::new();
        let mut locals = Vec::new();
        for (name, r, c, seed) in names {
            let mut rng = StdRng::seed_from_u64(*seed);
            let m = LocalMatrix::random(*r, *c, -1.0, 1.0, &mut rng);
            env.set_array(
                *name,
                DistArray::Matrix(TiledMatrix::from_local(ctx, &m, tile, 4)),
            );
            locals.push(m.clone());
        }
        (env, locals)
    }

    fn config() -> PlanConfig {
        PlanConfig {
            partitions: 4,
            ..Default::default()
        }
    }

    fn planned_strategy(src: &str, env: &PlanEnv) -> String {
        plan::plan(&comp::parse_expr(src).unwrap(), env, &config())
            .unwrap()
            .plan
            .strategy_name()
            .to_string()
    }

    #[test]
    fn matrix_addition_plans_eltwise_and_matches_oracle() {
        let c = ctx();
        let (mut env, ms) = setup(&c, &[("A", 9, 7, 1), ("B", 9, 7, 2)], 4);
        env.set_int("n", 9);
        env.set_int("m", 7);
        let src = "tiled(n,m)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, \
                    ii == i, jj == j ]";
        assert_eq!(planned_strategy(src, &env), "eltwise/fused");
        let got = run_text(src, &env, &c, &config())
            .unwrap()
            .into_matrix()
            .unwrap()
            .to_local();
        assert!(got.approx_eq(&ms[0].add(&ms[1]), 1e-12));
    }

    #[test]
    fn scalar_map_plans_eltwise() {
        let c = ctx();
        let (mut env, ms) = setup(&c, &[("A", 6, 6, 3)], 4);
        env.set_int("n", 6);
        env.set_float("gamma", 2.5);
        let src = "tiled(n,n)[ ((i,j), a * gamma) | ((i,j),a) <- A ]";
        assert_eq!(planned_strategy(src, &env), "eltwise/fused");
        let got = run_text(src, &env, &c, &config())
            .unwrap()
            .into_matrix()
            .unwrap()
            .to_local();
        assert!(got.approx_eq(&ms[0].scale(2.5), 1e-12));
    }

    #[test]
    fn transpose_plans_eltwise_swapped() {
        let c = ctx();
        let (mut env, ms) = setup(&c, &[("A", 5, 8, 4)], 4);
        env.set_int("n", 5);
        env.set_int("m", 8);
        let src = "tiled(m,n)[ ((j,i), a) | ((i,j),a) <- A ]";
        assert_eq!(planned_strategy(src, &env), "eltwise/fused");
        let got = run_text(src, &env, &c, &config())
            .unwrap()
            .into_matrix()
            .unwrap()
            .to_local();
        assert!(got.approx_eq(&ms[0].transpose(), 1e-12));
    }

    #[test]
    fn matmul_both_strategies_match_oracle() {
        let c = ctx();
        let (mut env, ms) = setup(&c, &[("A", 9, 6, 5), ("B", 6, 7, 6)], 4);
        env.set_int("n", 9);
        env.set_int("m", 7);
        let src = "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, \
                    kk == k, let v = a*b, group by (i,j) ]";
        let expected = ms[0].multiply(&ms[1]);
        for strategy in [MatMulStrategy::ReduceByKey, MatMulStrategy::GroupByJoin] {
            let cfg = PlanConfig {
                partitions: 4,
                matmul: strategy,
                ..Default::default()
            };
            let planned = plan::plan(&comp::parse_expr(src).unwrap(), &env, &cfg).unwrap();
            assert!(planned.plan.strategy_name().starts_with("contraction"));
            let got = execute(&planned, &env, &c, &cfg)
                .unwrap()
                .into_matrix()
                .unwrap()
                .to_local();
            assert!(
                got.max_abs_diff(&expected) < 1e-9,
                "strategy {strategy:?} wrong"
            );
        }
    }

    #[test]
    fn matmul_transposed_operand_orientations() {
        // C = Aᵀ·B expressed by contracting A's row index.
        let c = ctx();
        let (mut env, ms) = setup(&c, &[("A", 6, 9, 7), ("B", 6, 7, 8)], 4);
        env.set_int("n", 9);
        env.set_int("m", 7);
        let src = "tiled(n,m)[ ((i,j), +/v) | ((k,i),a) <- A, ((kk,j),b) <- B, \
                    kk == k, let v = a*b, group by (i,j) ]";
        let got = run_text(src, &env, &c, &config())
            .unwrap()
            .into_matrix()
            .unwrap()
            .to_local();
        let expected = ms[0].transpose().multiply(&ms[1]);
        assert!(got.max_abs_diff(&expected) < 1e-9);
    }

    #[test]
    fn row_sums_plans_axis_reduce() {
        let c = ctx();
        let (mut env, ms) = setup(&c, &[("M", 9, 7, 9)], 4);
        env.set_int("n", 9);
        let src = "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- M, group by i ]";
        assert_eq!(planned_strategy(src, &env), "axisReduce");
        let got = run_text(src, &env, &c, &config())
            .unwrap()
            .into_vector()
            .unwrap()
            .to_local();
        let expected = ms[0].row_sums();
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-9, "{got:?} vs {expected:?}");
        }
    }

    #[test]
    fn rotation_plans_index_remap() {
        let c = ctx();
        let (mut env, ms) = setup(&c, &[("X", 9, 6, 10)], 4);
        env.set_int("n", 9);
        env.set_int("m", 6);
        let src = "tiled(n,m)[ (((i+1)%n, j), v) | ((i,j),v) <- X ]";
        assert_eq!(planned_strategy(src, &env), "indexRemap");
        let got = run_text(src, &env, &c, &config())
            .unwrap()
            .into_matrix()
            .unwrap()
            .to_local();
        let expected = LocalMatrix::from_fn(9, 6, |i, j| {
            // Row r of the output comes from row (r-1)%9 of the input.
            ms[0].get(((i as i64 - 1).rem_euclid(9)) as usize, j)
        });
        assert!(got.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn smoothing_plans_group_by_aggregate() {
        let c = ctx();
        let (mut env, ms) = setup(&c, &[("M", 7, 7, 11)], 4);
        env.set_int("n", 7);
        env.set_int("m", 7);
        let src = "tiled(n,m)[ ((ii,jj), (+/a)/a.length) | ((i,j),a) <- M, \
                    ii <- (i-1) to (i+1), jj <- (j-1) to (j+1), \
                    ii >= 0, ii < n, jj >= 0, jj < m, group by (ii,jj) ]";
        assert_eq!(planned_strategy(src, &env), "groupByAggregate");
        let got = run_text(src, &env, &c, &config())
            .unwrap()
            .into_matrix()
            .unwrap()
            .to_local();
        assert!(got.approx_eq(&ms[0].smooth(), 1e-9));
    }

    #[test]
    fn gbj_uses_single_shuffle_round_rbk_uses_two() {
        let c = ctx();
        let (mut env, _) = setup(&c, &[("A", 8, 8, 12), ("B", 8, 8, 13)], 4);
        env.set_int("n", 8);
        let src = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, \
                    kk == k, let v = a*b, group by (i,j) ]";
        let count_shuffles = |strategy| {
            let cfg = PlanConfig {
                partitions: 4,
                matmul: strategy,
                ..Default::default()
            };
            c.trace();
            run_text(src, &env, &c, &cfg)
                .unwrap()
                .into_matrix()
                .unwrap()
                .to_local();
            c.take_profile().shuffle_stage_count()
        };
        let gbj = count_shuffles(MatMulStrategy::GroupByJoin);
        let rbk = count_shuffles(MatMulStrategy::ReduceByKey);
        // GBJ: one band shuffle a side. RBK: join shuffles
        // both sides + reduceByKey shuffles partial products.
        assert!(gbj <= 2, "gbj: {gbj}");
        assert!(rbk >= 3, "rbk: {rbk}");
    }

    #[test]
    fn unknown_shape_falls_back_to_local() {
        let c = ctx();
        let (mut env, ms) = setup(&c, &[("A", 5, 5, 14)], 4);
        env.set_int("n", 5);
        // Diagonal extraction: not covered by a distributed rule.
        let src = "tiled_vector(n)[ (i, a) | ((i,j),a) <- A, i == j ]";
        assert_eq!(planned_strategy(src, &env), "localFallback");
        c.trace();
        let got = run_text(src, &env, &c, &config())
            .unwrap()
            .into_vector()
            .unwrap()
            .to_local();
        for (i, g) in got.iter().enumerate() {
            assert!((g - ms[0].get(i, i)).abs() < 1e-12);
        }
        // The fall back is a traced decision that says why.
        let chosen: Vec<_> = c
            .take_events()
            .into_iter()
            .filter_map(|e| match e {
                sparkline::Event::PlanChosen {
                    chosen,
                    est_shuffle_bytes,
                    candidates,
                    reason,
                    ..
                } => Some((chosen, est_shuffle_bytes, candidates, reason)),
                _ => None,
            })
            .collect();
        let [(tag, est, candidates, Some(reason))] = chosen.as_slice() else {
            panic!("one fallback `plan_chosen` with a reason: {chosen:?}");
        };
        assert_eq!(
            (tag.as_str(), *est, candidates.len()),
            ("localFallback", 0, 0)
        );
        assert!(!reason.is_empty());
    }

    #[test]
    fn eltwise_with_value_guard_zeroes_failing_elements() {
        let c = ctx();
        let (mut env, ms) = setup(&c, &[("A", 6, 6, 16)], 4);
        env.set_int("n", 6);
        let src = "tiled(n,n)[ ((i,j), a + 1.0) | ((i,j),a) <- A, a > 0.0 ]";
        let got = run_text(src, &env, &c, &config())
            .unwrap()
            .into_matrix()
            .unwrap()
            .to_local();
        let expected = LocalMatrix::from_fn(6, 6, |i, j| {
            let a = ms[0].get(i, j);
            if a > 0.0 {
                a + 1.0
            } else {
                0.0
            }
        });
        assert!(got.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn mat_vec_plans_and_matches_oracle() {
        let c = ctx();
        let (mut env, ms) = setup(&c, &[("A", 9, 6, 20)], 4);
        let x: Vec<f64> = (0..6).map(|i| (i as f64) * 0.5 - 1.0).collect();
        env.set_array(
            "V",
            DistArray::Vector(tiled::TiledVector::from_local(&c, &x, 4, 2)),
        );
        env.set_int("n", 9);
        let src = "tiled_vector(n)[ (i, +/v) | ((i,k),a) <- A, (kk,x) <- V, kk == k,                     let v = a*x, group by i ]";
        // A small registered vector fits the broadcast budget, so the
        // cost-based choice is the zero-shuffle mat-vec path.
        let planned = plan::plan(&comp::parse_expr(src).unwrap(), &env, &config()).unwrap();
        assert_eq!(planned.explain(), "matVec/broadcast -> vector 9");
        let got = run_text(src, &env, &c, &config())
            .unwrap()
            .into_vector()
            .unwrap()
            .to_local();
        let want = ms[0].to_dense().matvec(&x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn transposed_mat_vec_contracts_rows() {
        let c = ctx();
        let (mut env, ms) = setup(&c, &[("A", 6, 9, 21)], 4);
        let x: Vec<f64> = (0..6).map(|i| i as f64 + 1.0).collect();
        env.set_array(
            "V",
            DistArray::Vector(tiled::TiledVector::from_local(&c, &x, 4, 2)),
        );
        env.set_int("n", 9);
        // y_j = Σ_i A_ij x_i  (Aᵀ·x)
        let src = "tiled_vector(n)[ (j, +/v) | ((k,j),a) <- A, (kk,x) <- V, kk == k,                     let v = a*x, group by j ]";
        let planned = plan::plan(&comp::parse_expr(src).unwrap(), &env, &config()).unwrap();
        assert_eq!(planned.explain(), "matVec/broadcast -> vector 9");
        let got = run_text(src, &env, &c, &config())
            .unwrap()
            .into_vector()
            .unwrap()
            .to_local();
        let want = ms[0].transpose().to_dense().matvec(&x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn vector_eltwise_plans_and_matches() {
        let c = ctx();
        let mut env = PlanEnv::new();
        let x: Vec<f64> = (0..11).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..11).map(|i| (i * i) as f64).collect();
        env.set_array(
            "X",
            DistArray::Vector(tiled::TiledVector::from_local(&c, &x, 4, 2)),
        );
        env.set_array(
            "Y",
            DistArray::Vector(tiled::TiledVector::from_local(&c, &y, 4, 2)),
        );
        env.set_int("n", 11);
        env.set_float("alpha", 0.5);
        let src = "tiled_vector(n)[ (i, alpha*x + y) | (i,x) <- X, (ii,y) <- Y, ii == i ]";
        assert_eq!(planned_strategy(src, &env), "vectorEltwise");
        let got = run_text(src, &env, &c, &config())
            .unwrap()
            .into_vector()
            .unwrap()
            .to_local();
        for i in 0..11 {
            assert!((got[i] - (0.5 * x[i] + y[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn explain_names_strategy_and_shape() {
        let c = ctx();
        let (mut env, _) = setup(&c, &[("A", 4, 4, 17), ("B", 4, 4, 18)], 2);
        env.set_int("n", 4);
        let _ = c;
        let src = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, \
                    kk == k, let v = a*b, group by (i,j) ]";
        // Auto resolves to broadcast for these tiny inputs; a pinned strategy
        // is named verbatim.
        let planned = plan::plan(&comp::parse_expr(src).unwrap(), &env, &config()).unwrap();
        assert_eq!(planned.explain(), "contraction/broadcast -> matrix 4x4");
        let pinned = PlanConfig {
            matmul: MatMulStrategy::GroupByJoin,
            ..config()
        };
        let planned = plan::plan(&comp::parse_expr(src).unwrap(), &env, &pinned).unwrap();
        assert_eq!(planned.explain(), "contraction/groupByJoin -> matrix 4x4");
    }
}
