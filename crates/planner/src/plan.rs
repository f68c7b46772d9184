//! Plan selection — the paper's translation rules as pattern matches over
//! the decomposed comprehension.
//!
//! Dispatch order for `tiled(n,m)[ e | q ]`:
//!
//! 1. **FusedEltwise** (§5.1, rule 17) — every generator ranges over a
//!    tiled matrix, generators are equated on both indices (rule 14 join
//!    detection), and the head key is those indices (possibly swapped →
//!    transpose). No shuffle beyond co-partitioning; the head value and
//!    guards run as one fused tile program ([`crate::fuse`]).
//! 2. **Contraction** (§5.3 / §5.4) — two tiled generators joined on one
//!    index, group-by over the two free indices, head `⊕/v` with
//!    `v = f(a, b)`: matrix-multiplication-like. Translated to join +
//!    tile-level `reduceByKey` (rule 13) or to the **group-by-join** /
//!    SUMMA plan (§5.4), per configuration.
//! 3. **IndexRemap** (§5.2, rule 19) — one tiled generator, head key is an
//!    arbitrary index map: tiles are replicated to the output tiles their
//!    elements land in (the `I_f(K)` image sets), then regrouped.
//! 4. **GroupByAggregate** (§5.3 general) — one tiled generator plus range
//!    generators/guards and a group-by: the generic
//!    replicate-and-`reduceByKey` translation with one accumulator plane per
//!    aggregate (the product-of-monoids of §3). Covers stencils such as the
//!    paper's smoothing example.
//!
//! `tiled_vector(n)[ e | q ]` dispatches to **AxisReduce** (Fig. 1 row
//! sums) or GroupByAggregate. Anything else falls back to the reference
//! interpreter over sparsified arrays (`LocalFallback`), preserving
//! semantics at the cost of distribution.

use crate::analysis::{
    decompose, extract_aggregates, inline_lets, Aggregate, Decomposed, GenKind, VarClasses,
};
use crate::env::{ArrayStats, DistArray, PlanEnv};
use crate::fuse::fuse_region;
use crate::scalar::{IdxFn, ScalarFn};
use comp::ast::{Expr, Monoid, Pattern, Qualifier};
use comp::errors::CompError;
use comp::normalize::normalize;
use tiled::fused::FusedProgram;

/// How to execute a contraction (matrix multiplication).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatMulStrategy {
    /// §4's unoptimized translation: join on the contracted index, tile
    /// products, then `groupByKey` collecting all partial products into
    /// lists before reducing — the "SAC (join + group-by)" series of
    /// Fig. 4.B.
    JoinGroupBy,
    /// §5.3: join on the contracted index, tile products, `reduceByKey`
    /// (map-side combined).
    ReduceByKey,
    /// §5.4: group-by-join (SUMMA) — replicate tiles to result coordinates,
    /// cogroup once, reduce locally.
    GroupByJoin,
    /// MLlib-style broadcast join: collect the smaller operand on the
    /// driver, [`sparkline::Context::broadcast`] it, and compute partial
    /// output tiles map-side — a single combine round, no join shuffle.
    /// Only sensible when one side fits the broadcast budget.
    Broadcast,
    /// Pick the cheapest of the above from registered array statistics
    /// (estimated shuffle bytes per candidate). This is the default.
    Auto,
}

/// The planner's record of one cost-based physical choice, carried on the
/// plan node so execution can emit it as a `plan.chosen` event.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDecision {
    /// Chosen strategy tag, e.g. `contraction/broadcast`.
    pub chosen: &'static str,
    /// False when the strategy was pinned by configuration.
    pub auto: bool,
    /// Estimated shuffle bytes of the chosen strategy.
    pub est_shuffle_bytes: u64,
    /// Every candidate considered, with its estimated shuffle bytes
    /// (ineligible candidates — e.g. broadcast over budget — are absent).
    pub candidates: Vec<(&'static str, u64)>,
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Shuffle partition count; `0` (the default) derives the count from
    /// the context's worker pool and the estimated output size at execution
    /// time. Any non-zero value pins it.
    pub partitions: usize,
    /// Strategy for contraction plans. [`MatMulStrategy::Auto`] picks from
    /// statistics and lets the stage driver re-decide from measured ones
    /// ([`crate::stage`]); pinning a strategy freezes the plan — a pinned
    /// node never probes and never re-plans.
    pub matmul: MatMulStrategy,
    /// Largest operand (estimated bytes) the broadcast contraction path may
    /// ship to every executor.
    pub broadcast_budget: u64,
    /// Threads for intra-tile kernels (the paper's `.par`); 1 = sequential.
    pub tile_threads: usize,
    /// Automatically persist inputs a plan references more than once (e.g.
    /// both sides of `A*A`) through the block manager, so their lineage is
    /// computed once per execution instead of once per reference.
    pub auto_persist: bool,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            partitions: 0,
            matmul: MatMulStrategy::Auto,
            broadcast_budget: 1 << 20,
            tile_threads: 1,
            auto_persist: true,
        }
    }
}

/// Output shape of a planned comprehension.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputKind {
    Matrix { rows: i64, cols: i64 },
    Vector { len: i64 },
    Local,
}

/// Key shape for the generic group-by plan.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupKey {
    /// 2-D key `(k1, k2)` — matrix output.
    Cell(String, String),
    /// 1-D key — vector output.
    Index(String),
}

/// A selected physical plan.
#[derive(Clone)]
pub enum Plan {
    /// §5.1 element-wise over co-indexed tiled matrices: the whole region
    /// (value, guard masking, scalar constants) collapsed into one postfix
    /// tile program, executed as a single kernel pass per tile by
    /// `tiled::kernel::fused_eltwise`.
    FusedEltwise {
        /// Input matrix names, in slot order.
        inputs: Vec<String>,
        /// Head key is `(col, row)` — transpose the output.
        transposed: bool,
        /// Constant-folded program over slots
        /// `[val_0, ..., val_{k-1}, row, col]`.
        program: FusedProgram,
        /// Post-order operator tags of the source region (from the
        /// normalized comprehension head), for the `region_fused` event.
        region_ops: Vec<String>,
    },
    /// §5.3/§5.4 contraction (matrix multiplication shaped).
    Contraction {
        left: String,
        right: String,
        /// The contracted index of the left input is its **row** (so the
        /// left operand must be transposed tile-wise first).
        left_contract_row: bool,
        /// The contracted index of the right input is its **column**.
        right_contract_col: bool,
        /// Head key is `(right_free, left_free)` — transpose the result.
        swap_output: bool,
        /// Element combine over slots `[a, b]` (must reduce with `+`).
        value: ScalarFn,
        /// Resolved physical strategy (never [`MatMulStrategy::Auto`]).
        strategy: MatMulStrategy,
        /// How the strategy was chosen (candidate cost estimates).
        decision: PlanDecision,
    },
    /// Fig. 1 row/column reduction to a tiled vector.
    AxisReduce {
        input: String,
        /// Group by the row index (true) or the column index (false).
        by_row: bool,
        monoid: Monoid,
        /// Per-element input over slots `[val, row, col]`.
        value: ScalarFn,
    },
    /// §5.2 rule 19: element-wise index remap with tile replication.
    IndexRemap {
        input: String,
        /// Destination row index over slots `[i, j]`.
        fi: IdxFn,
        /// Destination column index over slots `[i, j]`.
        fj: IdxFn,
        /// Value over slots `[val, i, j]`.
        value: ScalarFn,
    },
    /// §5.3 generic single-input group-by with aggregate planes.
    GroupByAggregate {
        input: String,
        /// The matrix generator's bound names `(row, col, val)`.
        gen_vars: (String, String, String),
        /// Qualifiers between the generator and the group-by (ranges,
        /// lets, guards), evaluated per element by the reference evaluator.
        inner_quals: Vec<Qualifier>,
        key: GroupKey,
        /// Optional key expression (`group by p: e`).
        key_expr: Option<Expr>,
        aggregates: Vec<Aggregate>,
        /// Finalizer over `%aggN` slots.
        finalizer: Expr,
    },
    /// Matrix–vector contraction `y_i = Σ_k f(A_ik, x_k)` (and the
    /// transposed orientation): join tiles with vector blocks on the
    /// contracted block index, partial block products, `reduceByKey`.
    MatVec {
        matrix: String,
        vector: String,
        /// The contracted index of the matrix is its **row** (computes
        /// `Aᵀ·x`).
        contract_row: bool,
        /// Element combine over slots `[a, x]` (reduced with `+`).
        value: ScalarFn,
        /// Ship the vector to every task via [`sparkline::Context::broadcast`]
        /// instead of joining — zero shuffle stages.
        broadcast: bool,
        /// How the physical path was chosen.
        decision: PlanDecision,
    },
    /// Element-wise over co-indexed tiled vectors (rule 17, 1-D): the same
    /// fused tile program, each block run as an `n x 1` tile.
    VectorEltwise {
        /// Input vector names, in slot order.
        inputs: Vec<String>,
        /// Constant-folded program over slots `[val_0, ..., val_{k-1}, idx]`.
        program: FusedProgram,
        /// Post-order operator tags of the source region.
        region_ops: Vec<String>,
    },
    /// Reference interpreter over sparsified arrays.
    LocalFallback { expr: Expr },
}

/// A plan plus its output shape.
#[derive(Clone)]
pub struct Planned {
    pub plan: Plan,
    pub output: OutputKind,
}

impl Plan {
    /// Names of the distributed arrays this plan reads, one entry per
    /// reference (a name appearing twice means the plan evaluates that
    /// input's lineage twice — the signal the auto-persist pass looks for).
    pub fn input_names(&self) -> Vec<&str> {
        match self {
            Plan::FusedEltwise { inputs, .. } | Plan::VectorEltwise { inputs, .. } => {
                inputs.iter().map(String::as_str).collect()
            }
            Plan::Contraction { left, right, .. } => vec![left, right],
            Plan::AxisReduce { input, .. }
            | Plan::IndexRemap { input, .. }
            | Plan::GroupByAggregate { input, .. } => vec![input],
            Plan::MatVec { matrix, vector, .. } => vec![matrix, vector],
            Plan::LocalFallback { .. } => vec![],
        }
    }

    /// Human-readable strategy name (used by plan-shape tests and explain).
    pub fn strategy_name(&self) -> &'static str {
        match self {
            Plan::FusedEltwise { .. } => "eltwise/fused",
            Plan::Contraction { strategy, .. } => contraction_tag(*strategy),
            Plan::AxisReduce { .. } => "axisReduce",
            Plan::MatVec {
                broadcast: true, ..
            } => "matVec/broadcast",
            Plan::MatVec { .. } => "matVec",
            Plan::VectorEltwise { .. } => "vectorEltwise",
            Plan::IndexRemap { .. } => "indexRemap",
            Plan::GroupByAggregate { .. } => "groupByAggregate",
            Plan::LocalFallback { .. } => "localFallback",
        }
    }

    /// The cost-based decision record, for plans that make one.
    pub fn decision(&self) -> Option<&PlanDecision> {
        match self {
            Plan::Contraction { decision, .. } | Plan::MatVec { decision, .. } => Some(decision),
            _ => None,
        }
    }
}

/// Strategy tag of a resolved contraction strategy.
///
/// # Panics
/// On [`MatMulStrategy::Auto`], which plan selection always resolves away.
pub(crate) fn contraction_tag(strategy: MatMulStrategy) -> &'static str {
    match strategy {
        MatMulStrategy::JoinGroupBy => "contraction/joinGroupBy",
        MatMulStrategy::ReduceByKey => "contraction/reduceByKey",
        MatMulStrategy::GroupByJoin => "contraction/groupByJoin",
        MatMulStrategy::Broadcast => "contraction/broadcast",
        MatMulStrategy::Auto => unreachable!("Auto must be resolved at plan time"),
    }
}

impl Planned {
    /// One-line plan explanation.
    pub fn explain(&self) -> String {
        let shape = match &self.output {
            OutputKind::Matrix { rows, cols } => format!("matrix {rows}x{cols}"),
            OutputKind::Vector { len } => format!("vector {len}"),
            OutputKind::Local => "local value".to_string(),
        };
        format!("{} -> {}", self.plan.strategy_name(), shape)
    }
}

/// Plan a (possibly unnormalized) comprehension expression. A comprehension
/// no distributed rule covers runs on the driver-side reference interpreter
/// ([`Plan::LocalFallback`]).
pub fn plan(expr: &Expr, env: &PlanEnv, config: &PlanConfig) -> Result<Planned, CompError> {
    let expr = normalize(expr.clone());
    let local = || Plan::LocalFallback { expr: expr.clone() };
    Ok(match &expr {
        Expr::Build {
            builder,
            args,
            body,
        } if builder == "tiled" && args.len() == 2 => Planned {
            output: OutputKind::Matrix {
                rows: eval_int_arg(&args[0], env)?,
                cols: eval_int_arg(&args[1], env)?,
            },
            plan: plan_matrix_body(body, env, config).unwrap_or_else(|_| local()),
        },
        Expr::Build {
            builder,
            args,
            body,
        } if builder == "tiled_vector" && args.len() == 1 => Planned {
            output: OutputKind::Vector {
                len: eval_int_arg(&args[0], env)?,
            },
            plan: plan_vector_body(body, env, config).unwrap_or_else(|_| local()),
        },
        _ => Planned {
            plan: local(),
            output: OutputKind::Local,
        },
    })
}

fn eval_int_arg(e: &Expr, env: &PlanEnv) -> Result<i64, CompError> {
    let mut cenv = comp::Env::new();
    for name in e.free_vars() {
        if let Some(v) = env.scalar(&name) {
            cenv.bind(name.clone(), v.clone());
        }
    }
    comp::eval(e, &mut cenv)?.as_i64()
}

fn body_comprehension(body: &Expr) -> Result<&comp::Comprehension, CompError> {
    match body {
        Expr::Comprehension(c) => Ok(c),
        _ => Err(CompError::plan("builder body must be a comprehension")),
    }
}

/// Head must be `(key, value)`.
fn split_head(head: &Expr) -> Result<(&Expr, &Expr), CompError> {
    match head {
        Expr::Tuple(items) if items.len() == 2 => Ok((&items[0], &items[1])),
        other => Err(CompError::plan(format!(
            "head must be a (key, value) pair: {other}"
        ))),
    }
}

fn gen_kind(env: &PlanEnv) -> impl Fn(&str) -> GenKind + '_ {
    |n: &str| match env.array(n) {
        Some(DistArray::Matrix(_)) => GenKind::Matrix,
        Some(DistArray::Vector(_)) => GenKind::Vector,
        _ => GenKind::Unknown,
    }
}

fn plan_matrix_body(body: &Expr, env: &PlanEnv, config: &PlanConfig) -> Result<Plan, CompError> {
    let c = body_comprehension(body)?;
    let d = decompose(&c.head, &c.qualifiers, &gen_kind(env))?;
    if d.post_group_quals > 0 {
        return Err(CompError::plan(
            "qualifiers after group-by are not supported by distributed plans",
        ));
    }
    if d.group_by.is_none() {
        if let Ok(p) = plan_eltwise(&d, env) {
            return Ok(p);
        }
        return plan_index_remap(&d, env);
    }
    if let Ok(p) = plan_contraction(&d, env, config) {
        return Ok(p);
    }
    plan_group_by_aggregate(&d, env, GroupShape::Matrix)
}

fn plan_vector_body(body: &Expr, env: &PlanEnv, config: &PlanConfig) -> Result<Plan, CompError> {
    let c = body_comprehension(body)?;
    let d = decompose(&c.head, &c.qualifiers, &gen_kind(env))?;
    if d.post_group_quals > 0 {
        return Err(CompError::plan(
            "qualifiers after group-by are not supported by distributed plans",
        ));
    }
    if let Ok(p) = plan_axis_reduce(&d, env) {
        return Ok(p);
    }
    if let Ok(p) = plan_mat_vec(&d, env, config) {
        return Ok(p);
    }
    if let Ok(p) = plan_vector_eltwise(&d, env) {
        return Ok(p);
    }
    plan_group_by_aggregate(&d, env, GroupShape::Vector)
}

/// Compile an elementwise head value and its guards (conjoined) against
/// `slots` and trace them into one fused program, plus the post-order
/// operator tags of the source region for the `region_fused` event.
fn fuse_head(
    value: &Expr,
    guards: Vec<Expr>,
    slots: &[String],
    env: &PlanEnv,
) -> Result<(FusedProgram, Vec<String>), CompError> {
    let consts = |v: &str| env.float_scalar(v);
    let value_fn = ScalarFn::compile(value, slots, &consts)?;
    let mut region_ops: Vec<String> = value
        .op_sequence()
        .into_iter()
        .map(str::to_string)
        .collect();
    let guard_fn = match guards
        .into_iter()
        .reduce(|conj, g| Expr::BinOp(comp::BinOp::And, Box::new(conj), Box::new(g)))
    {
        Some(conj) => {
            region_ops.extend(conj.op_sequence().into_iter().map(str::to_string));
            region_ops.push("select".to_string());
            Some(ScalarFn::compile(&conj, slots, &consts)?)
        }
        None => None,
    };
    Ok((fuse_region(&value_fn, guard_fn.as_ref()), region_ops))
}

/// §5.1 rule 17.
fn plan_eltwise(d: &Decomposed, env: &PlanEnv) -> Result<Plan, CompError> {
    if d.matrix_gens.is_empty()
        || !d.vector_gens.is_empty()
        || !d.range_gens.is_empty()
        || d.group_by.is_some()
    {
        return Err(CompError::plan("not an element-wise comprehension"));
    }
    let classes = VarClasses::from_equalities(&d.var_equalities);
    let row_class = classes.find(&d.matrix_gens[0].row);
    let col_class = classes.find(&d.matrix_gens[0].col);
    if row_class == col_class {
        return Err(CompError::plan("row and column indices equated (diagonal)"));
    }
    for g in &d.matrix_gens {
        if classes.find(&g.row) != row_class || classes.find(&g.col) != col_class {
            return Err(CompError::plan("generators are not joined on both indices"));
        }
    }
    // Equalities between non-index (value) variables are filters, not join
    // keys — keep them as guards.
    let index_vars: Vec<&String> = d
        .matrix_gens
        .iter()
        .flat_map(|g| [&g.row, &g.col])
        .collect();
    let mut extra_guards: Vec<Expr> = Vec::new();
    for (x, y) in &d.var_equalities {
        if !index_vars.contains(&x) || !index_vars.contains(&y) {
            extra_guards.push(Expr::BinOp(
                comp::BinOp::Eq,
                Box::new(Expr::Var(x.clone())),
                Box::new(Expr::Var(y.clone())),
            ));
        }
    }
    let head = inline_lets(&d.head, &d.lets);
    let (key, value_expr) = split_head(&head)?;
    let Expr::Tuple(kij) = key else {
        return Err(CompError::plan("matrix head key must be (i, j)"));
    };
    let [Expr::Var(ka), Expr::Var(kb)] = kij.as_slice() else {
        return Err(CompError::plan("matrix head key must be index variables"));
    };
    let transposed = if classes.find(ka) == row_class && classes.find(kb) == col_class {
        false
    } else if classes.find(ka) == col_class && classes.find(kb) == row_class {
        true
    } else {
        return Err(CompError::plan("head key is not the generator indices"));
    };

    // Slots: all value vars (and their equality aliases resolve to the same
    // slot via class representatives), then row, then col.
    let mut slots: Vec<String> = d.matrix_gens.iter().map(|g| g.val.clone()).collect();
    slots.push(d.matrix_gens[0].row.clone());
    slots.push(d.matrix_gens[0].col.clone());
    // Rewrite index aliases to the canonical generator's names.
    let canon = |e: &Expr| canonicalize_vars(e, d, &classes);
    let guards = d
        .other_guards
        .iter()
        .chain(&extra_guards)
        .map(canon)
        .collect();
    let (program, region_ops) = fuse_head(&canon(value_expr), guards, &slots, env)?;
    Ok(Plan::FusedEltwise {
        inputs: d.matrix_gens.iter().map(|g| g.name.clone()).collect(),
        transposed,
        program,
        region_ops,
    })
}

/// Rewrite each index variable to its class representative (the first
/// generator's index with that class, in generator order) so slot lookup
/// finds it.
fn canonicalize_vars(e: &Expr, d: &Decomposed, classes: &VarClasses) -> Expr {
    let all_idx: Vec<String> = d
        .matrix_gens
        .iter()
        .flat_map(|g| [g.row.clone(), g.col.clone()])
        .collect();
    let mut reps: Vec<(String, String)> = Vec::new();
    for idx in &all_idx {
        let class = classes.find(idx);
        if !reps.iter().any(|(c, _)| *c == class) {
            reps.push((class, idx.clone()));
        }
    }
    let mut out = e.clone();
    for idx in &all_idx {
        let class = classes.find(idx);
        let rep = &reps
            .iter()
            .find(|(c, _)| *c == class)
            .expect("representative registered")
            .1;
        if idx != rep {
            out = crate::analysis::substitute(&out, idx, &Expr::Var(rep.clone()));
        }
    }
    out
}

/// §5.3/§5.4 contraction.
fn plan_contraction(d: &Decomposed, env: &PlanEnv, config: &PlanConfig) -> Result<Plan, CompError> {
    if d.matrix_gens.len() != 2
        || !d.vector_gens.is_empty()
        || !d.range_gens.is_empty()
        || !d.other_guards.is_empty()
    {
        return Err(CompError::plan("not a contraction comprehension"));
    }
    if d.var_equalities.len() != 1 {
        return Err(CompError::plan(
            "contraction requires exactly the contracted-index equality",
        ));
    }
    let Some((Pattern::Tuple(kp), None)) = &d.group_by else {
        return Err(CompError::plan("contraction requires `group by (i,j)`"));
    };
    let [Pattern::Var(kx), Pattern::Var(ky)] = kp.as_slice() else {
        return Err(CompError::plan("contraction key must be two variables"));
    };
    let classes = VarClasses::from_equalities(&d.var_equalities);
    let (a, b) = (&d.matrix_gens[0], &d.matrix_gens[1]);

    // Find the contracted pair: one index of a equated with one index of b.
    let mut contracted: Option<(bool, bool)> = None; // (a_row_contracted, b_col_contracted)
    for (a_idx, a_is_row) in [(&a.row, true), (&a.col, false)] {
        for (b_idx, b_is_row) in [(&b.row, true), (&b.col, false)] {
            if classes.same(a_idx, b_idx) {
                if contracted.is_some() {
                    return Err(CompError::plan("more than one contracted index pair"));
                }
                contracted = Some((a_is_row, !b_is_row));
            }
        }
    }
    let Some((left_contract_row, right_contract_col)) = contracted else {
        return Err(CompError::plan("no contracted index pair"));
    };
    let a_free = if left_contract_row { &a.col } else { &a.row };
    let b_free = if right_contract_col { &b.row } else { &b.col };

    let swap_output = if classes.same(kx, a_free) && classes.same(ky, b_free) {
        false
    } else if classes.same(kx, b_free) && classes.same(ky, a_free) {
        true
    } else {
        return Err(CompError::plan(
            "group-by key is not the pair of free indices",
        ));
    };

    let head = inline_lets(&d.head, &d.lets);
    let (_key, value) = split_head(&head)?;
    let Expr::Reduce(Monoid::Sum, inner) = value else {
        return Err(CompError::plan(
            "contraction head must be a sum reduction `+/v`",
        ));
    };
    let slots = vec![a.val.clone(), b.val.clone()];
    let value = ScalarFn::compile(inner, &slots, &|v| env.float_scalar(v))?;
    let candidates = contraction_candidates(
        env,
        config,
        &a.name,
        &b.name,
        left_contract_row,
        right_contract_col,
    );
    // No statistics, no candidates: default to the fewest shuffle rounds.
    let (strategy, decision) = decide(
        candidates,
        config.matmul,
        MatMulStrategy::GroupByJoin,
        contraction_tag,
    );
    Ok(Plan::Contraction {
        left: a.name.clone(),
        right: b.name.clone(),
        left_contract_row,
        right_contract_col,
        swap_output,
        value,
        strategy,
        decision,
    })
}

// ---------------------------------------------------------------------------
// Cost-based strategy selection.
// ---------------------------------------------------------------------------

/// Fixed per-shuffle-round cost, in byte equivalents. A pure byte model
/// never prefers the fewer-round group-by-join on small grids (its
/// replicated join input weighs at least as much as reduceByKey's combined
/// output there), so each shuffle barrier also pays this latency proxy.
const ROUND_COST: u64 = 16 << 10;

/// Nominal partition count for cost estimation when autotuning defers the
/// real choice to execution time.
pub(crate) fn nominal_partitions(config: &PlanConfig) -> u64 {
    if config.partitions > 0 {
        config.partitions as u64
    } else {
        8
    }
}

/// Estimated costs (shuffle bytes + round latency) of every eligible
/// contraction strategy, in tie-break preference order. Also re-invoked by
/// the adaptive stage driver with measured stats overlaid on `env`.
pub(crate) fn contraction_candidates(
    env: &PlanEnv,
    config: &PlanConfig,
    left: &str,
    right: &str,
    left_contract_row: bool,
    right_contract_col: bool,
) -> Vec<(MatMulStrategy, u64)> {
    let (Some(sa), Some(sb)) = (env.stats(left), env.stats(right)) else {
        return Vec::new();
    };
    // Block-grid shape after orienting the contraction: `bra` free blocks on
    // the left, `bcb` on the right, `k` contracted blocks.
    let (bra, k) = if left_contract_row {
        (sa.block_cols as u64, sa.block_rows as u64)
    } else {
        (sa.block_rows as u64, sa.block_cols as u64)
    };
    let bcb = if right_contract_col {
        sb.block_rows as u64
    } else {
        sb.block_cols as u64
    };
    let out_tiles = bra * bcb;
    let tile = ArrayStats::dense_tile_bytes(sa.tile_size.max(sb.tile_size));
    let (tiles_a, wa) = (sa.num_tiles(), sa.tile_wire_bytes());
    let (tiles_b, wb) = (sb.num_tiles(), sb.tile_wire_bytes());
    let p = nominal_partitions(config);

    let mut out = Vec::new();
    // Broadcast: ship the small side everywhere, partial tiles map-side,
    // one combine round. Eligible only under the byte budget.
    let small = sa.estimated_bytes.min(sb.estimated_bytes);
    if small <= config.broadcast_budget {
        out.push((
            MatMulStrategy::Broadcast,
            small + out_tiles * tile + ROUND_COST,
        ));
    }
    // Group-by-join (§5.4): each side replicated across the other's free
    // blocks, one cogroup round.
    out.push((
        MatMulStrategy::GroupByJoin,
        tiles_a * wa * bcb + tiles_b * wb * bra + 2 * ROUND_COST,
    ));
    // Join + reduceByKey (§5.3): both sides shuffled once for the join,
    // partial products map-side combined down to at most min(p, k) partial
    // tiles per output coordinate.
    out.push((
        MatMulStrategy::ReduceByKey,
        tiles_a * wa + tiles_b * wb + out_tiles * p.min(k) * tile + 3 * ROUND_COST,
    ));
    // Join + groupByKey (§4): every elementary tile product crosses the wire
    // uncombined.
    out.push((
        MatMulStrategy::JoinGroupBy,
        tiles_a * wa + tiles_b * wb + bra * k * bcb * tile + 3 * ROUND_COST,
    ));
    out
}

/// The cheapest candidate; the first wins a tie, so the candidate lists'
/// preference order breaks ties toward fewer rounds.
pub(crate) fn cheapest(candidates: &[(MatMulStrategy, u64)]) -> Option<(MatMulStrategy, u64)> {
    candidates.iter().copied().min_by_key(|&(_, cost)| cost)
}

/// Estimated cost of `strategy` among `candidates`, if it is eligible.
pub(crate) fn cost_of(
    candidates: &[(MatMulStrategy, u64)],
    strategy: MatMulStrategy,
) -> Option<u64> {
    candidates
        .iter()
        .find(|&&(s, _)| s == strategy)
        .map(|&(_, cost)| cost)
}

/// Resolve one cost-based choice: a pinned strategy is honored verbatim,
/// [`MatMulStrategy::Auto`] takes the cheapest candidate (`default` when
/// there are none). `tag` names a strategy for this kind of plan node.
fn decide(
    candidates: Vec<(MatMulStrategy, u64)>,
    pin: MatMulStrategy,
    default: MatMulStrategy,
    tag: fn(MatMulStrategy) -> &'static str,
) -> (MatMulStrategy, PlanDecision) {
    let (strategy, auto) = match pin {
        MatMulStrategy::Auto => (cheapest(&candidates).map_or(default, |(s, _)| s), true),
        pinned => (pinned, false),
    };
    let decision = PlanDecision {
        chosen: tag(strategy),
        auto,
        est_shuffle_bytes: cost_of(&candidates, strategy).unwrap_or(0),
        candidates: candidates.into_iter().map(|(s, c)| (tag(s), c)).collect(),
    };
    (strategy, decision)
}

/// Fig. 1 axis reduction.
fn plan_axis_reduce(d: &Decomposed, env: &PlanEnv) -> Result<Plan, CompError> {
    if d.matrix_gens.len() != 1
        || !d.vector_gens.is_empty()
        || !d.range_gens.is_empty()
        || !d.other_guards.is_empty()
        || !d.var_equalities.is_empty()
    {
        return Err(CompError::plan("not an axis reduction"));
    }
    let Some((Pattern::Var(k), None)) = &d.group_by else {
        return Err(CompError::plan("axis reduction requires `group by i`"));
    };
    let g = &d.matrix_gens[0];
    let by_row = if k == &g.row {
        true
    } else if k == &g.col {
        false
    } else {
        return Err(CompError::plan("group-by key is not a generator index"));
    };
    let head = inline_lets(&d.head, &d.lets);
    let (key, value) = split_head(&head)?;
    if key != &Expr::Var(k.clone()) {
        return Err(CompError::plan("head key must be the group-by index"));
    }
    let Expr::Reduce(monoid, inner) = value else {
        return Err(CompError::plan("head value must be a reduction"));
    };
    let slots = vec![g.val.clone(), g.row.clone(), g.col.clone()];
    let value = ScalarFn::compile(inner, &slots, &|v| env.float_scalar(v))?;
    Ok(Plan::AxisReduce {
        input: g.name.clone(),
        by_row,
        monoid: *monoid,
        value,
    })
}

/// §5.2 rule 19.
fn plan_index_remap(d: &Decomposed, env: &PlanEnv) -> Result<Plan, CompError> {
    if d.matrix_gens.len() != 1
        || !d.vector_gens.is_empty()
        || !d.range_gens.is_empty()
        || d.group_by.is_some()
        || !d.other_guards.is_empty()
    {
        return Err(CompError::plan("not an index remap"));
    }
    let g = &d.matrix_gens[0];
    let head = inline_lets(&d.head, &d.lets);
    let (key, value) = split_head(&head)?;
    let Expr::Tuple(kij) = key else {
        return Err(CompError::plan("matrix head key must be a pair"));
    };
    let [e1, e2] = kij.as_slice() else {
        return Err(CompError::plan("matrix head key must be a pair"));
    };
    let idx_slots = vec![g.row.clone(), g.col.clone()];
    let iconsts = |v: &str| env.int_scalar(v);
    let fi = IdxFn::compile(e1, &idx_slots, &iconsts)?;
    let fj = IdxFn::compile(e2, &idx_slots, &iconsts)?;
    let val_slots = vec![g.val.clone(), g.row.clone(), g.col.clone()];
    let value = ScalarFn::compile(value, &val_slots, &|v| env.float_scalar(v))?;
    Ok(Plan::IndexRemap {
        input: g.name.clone(),
        fi,
        fj,
        value,
    })
}

/// Matrix–vector contraction: one matrix generator, one vector generator,
/// joined on one matrix index, grouped by the other.
fn plan_mat_vec(d: &Decomposed, env: &PlanEnv, config: &PlanConfig) -> Result<Plan, CompError> {
    if d.matrix_gens.len() != 1
        || d.vector_gens.len() != 1
        || !d.range_gens.is_empty()
        || !d.other_guards.is_empty()
        || d.var_equalities.len() != 1
    {
        return Err(CompError::plan("not a matrix-vector contraction"));
    }
    let Some((Pattern::Var(g), None)) = &d.group_by else {
        return Err(CompError::plan("matrix-vector requires `group by i`"));
    };
    let m = &d.matrix_gens[0];
    let v = &d.vector_gens[0];
    let classes = VarClasses::from_equalities(&d.var_equalities);
    let contract_row = if classes.same(&m.col, &v.idx) {
        false
    } else if classes.same(&m.row, &v.idx) {
        true
    } else {
        return Err(CompError::plan(
            "vector index is not joined with the matrix",
        ));
    };
    let free = if contract_row { &m.col } else { &m.row };
    if !classes.same(g, free) {
        return Err(CompError::plan("group-by key is not the free matrix index"));
    }
    let head = inline_lets(&d.head, &d.lets);
    let (key, value) = split_head(&head)?;
    if key != &Expr::Var(g.clone()) {
        return Err(CompError::plan("head key must be the group-by index"));
    }
    let Expr::Reduce(Monoid::Sum, inner) = value else {
        return Err(CompError::plan("matrix-vector head must be `+/v`"));
    };
    let slots = vec![m.val.clone(), v.val.clone()];
    let value = ScalarFn::compile(inner, &slots, &|x| env.float_scalar(x))?;
    // A pinned `matmul` strategy pins the analogous mat-vec path.
    let pin = match config.matmul {
        MatMulStrategy::Auto | MatMulStrategy::Broadcast => config.matmul,
        _ => MatMulStrategy::ReduceByKey,
    };
    let candidates = mat_vec_candidates(env, config, &m.name, &v.name, contract_row);
    let (strategy, decision) = decide(candidates, pin, MatMulStrategy::ReduceByKey, mat_vec_tag);
    Ok(Plan::MatVec {
        matrix: m.name.clone(),
        vector: v.name.clone(),
        contract_row,
        value,
        broadcast: strategy == MatMulStrategy::Broadcast,
        decision,
    })
}

/// Strategy tag of a mat-vec path: [`MatMulStrategy::Broadcast`] ships the
/// vector, every other strategy is the join + reduceByKey path.
pub(crate) fn mat_vec_tag(strategy: MatMulStrategy) -> &'static str {
    if strategy == MatMulStrategy::Broadcast {
        "matVec/broadcast"
    } else {
        "matVec"
    }
}

/// Estimated costs of both mat-vec paths, in tie-break preference order
/// (broadcast first when it fits the budget). Also re-invoked by the
/// adaptive stage driver with measured stats overlaid on `env`.
pub(crate) fn mat_vec_candidates(
    env: &PlanEnv,
    config: &PlanConfig,
    matrix: &str,
    vector: &str,
    contract_row: bool,
) -> Vec<(MatMulStrategy, u64)> {
    let (Some(sm), Some(sv)) = (env.stats(matrix), env.stats(vector)) else {
        return Vec::new();
    };
    let (out_blocks, k) = if contract_row {
        (sm.block_cols as u64, sm.block_rows as u64)
    } else {
        (sm.block_rows as u64, sm.block_cols as u64)
    };
    let block = ArrayStats::vector_block_bytes(sm.tile_size);
    let mut candidates = Vec::new();
    if sv.estimated_bytes <= config.broadcast_budget {
        // Collect + broadcast the vector, merge partials on the driver:
        // zero shuffle rounds.
        candidates.push((
            MatMulStrategy::Broadcast,
            sv.estimated_bytes + out_blocks * block,
        ));
    }
    candidates.push((
        MatMulStrategy::ReduceByKey,
        sm.num_tiles() * sm.tile_wire_bytes()
            + sv.estimated_bytes
            + out_blocks * nominal_partitions(config).min(k) * block
            + 3 * ROUND_COST,
    ));
    candidates
}

/// Element-wise over vectors joined on their index.
fn plan_vector_eltwise(d: &Decomposed, env: &PlanEnv) -> Result<Plan, CompError> {
    if d.vector_gens.is_empty()
        || !d.matrix_gens.is_empty()
        || !d.range_gens.is_empty()
        || d.group_by.is_some()
    {
        return Err(CompError::plan("not a vector element-wise comprehension"));
    }
    let classes = VarClasses::from_equalities(&d.var_equalities);
    let idx_class = classes.find(&d.vector_gens[0].idx);
    for g in &d.vector_gens {
        if classes.find(&g.idx) != idx_class {
            return Err(CompError::plan("vector generators are not joined on index"));
        }
    }
    let head = inline_lets(&d.head, &d.lets);
    let (key, value) = split_head(&head)?;
    let Expr::Var(k) = key else {
        return Err(CompError::plan(
            "vector head key must be the index variable",
        ));
    };
    if classes.find(k) != idx_class {
        return Err(CompError::plan("head key is not the generator index"));
    }
    // Canonicalize index aliases to the first generator's name.
    let canon_idx = d.vector_gens[0].idx.clone();
    let canon = |e: &Expr| {
        let mut out = e.clone();
        for g in &d.vector_gens[1..] {
            out = crate::analysis::substitute(&out, &g.idx, &Expr::Var(canon_idx.clone()));
        }
        out
    };
    let mut slots: Vec<String> = d.vector_gens.iter().map(|g| g.val.clone()).collect();
    slots.push(canon_idx.clone());
    let guards = d.other_guards.iter().map(canon).collect();
    let (program, region_ops) = fuse_head(&canon(value), guards, &slots, env)?;
    Ok(Plan::VectorEltwise {
        inputs: d.vector_gens.iter().map(|g| g.name.clone()).collect(),
        program,
        region_ops,
    })
}

enum GroupShape {
    Matrix,
    Vector,
}

/// §5.3 generic group-by aggregation (stencils, histograms).
fn plan_group_by_aggregate(
    d: &Decomposed,
    _env: &PlanEnv,
    shape: GroupShape,
) -> Result<Plan, CompError> {
    if d.matrix_gens.len() != 1 || !d.vector_gens.is_empty() {
        return Err(CompError::plan(
            "generic group-by plan requires exactly one tiled matrix generator",
        ));
    }
    let g = &d.matrix_gens[0];
    let Some((key_pat, key_expr)) = &d.group_by else {
        return Err(CompError::plan("generic group-by plan requires a group-by"));
    };
    let key = match (shape, key_pat) {
        (GroupShape::Matrix, Pattern::Tuple(kp)) => {
            let [Pattern::Var(k1), Pattern::Var(k2)] = kp.as_slice() else {
                return Err(CompError::plan("matrix group key must be two variables"));
            };
            GroupKey::Cell(k1.clone(), k2.clone())
        }
        (GroupShape::Vector, Pattern::Var(k)) => GroupKey::Index(k.clone()),
        _ => return Err(CompError::plan("group key shape does not match builder")),
    };
    let head = inline_lets(&d.head, &d.lets);
    let (_key_part, value_part) = split_head(&head)?;
    let (finalizer, aggregates) = extract_aggregates(value_part);
    if aggregates.is_empty() {
        return Err(CompError::plan("group-by head has no aggregates"));
    }
    // Reconstruct the inner qualifiers between the generator and group-by:
    // range generators, lets, and guards, in a deterministic order (ranges,
    // lets, then guards — ranges and lets only depend on earlier bindings in
    // well-formed comprehensions).
    let mut inner_quals: Vec<Qualifier> = Vec::new();
    for r in &d.range_gens {
        inner_quals.push(Qualifier::Generator(
            Pattern::Var(r.var.clone()),
            Expr::Range {
                lo: Box::new(r.lo.clone()),
                hi: Box::new(r.hi.clone()),
                inclusive: r.inclusive,
            },
        ));
    }
    for (n, e) in &d.lets {
        inner_quals.push(Qualifier::Let(Pattern::Var(n.clone()), e.clone()));
    }
    for (x, y) in &d.var_equalities {
        inner_quals.push(Qualifier::Guard(Expr::BinOp(
            comp::BinOp::Eq,
            Box::new(Expr::Var(x.clone())),
            Box::new(Expr::Var(y.clone())),
        )));
    }
    for gd in &d.other_guards {
        inner_quals.push(Qualifier::Guard(gd.clone()));
    }
    Ok(Plan::GroupByAggregate {
        input: g.name.clone(),
        gen_vars: (g.row.clone(), g.col.clone(), g.val.clone()),
        inner_quals,
        key,
        key_expr: key_expr.clone(),
        aggregates,
        finalizer,
    })
}
