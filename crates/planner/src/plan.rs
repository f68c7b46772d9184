//! Plan selection — the paper's translation rules as pattern matches over
//! the decomposed comprehension.
//!
//! Dispatch order for `tiled(n,m)[ e | q ]`:
//!
//! 1. **FusedEltwise** (§5.1, rule 17) — every generator ranges over a
//!    tiled matrix, generators are equated on both indices (rule 14 join
//!    detection), and the head key is those indices (possibly swapped →
//!    transpose). No shuffle beyond co-partitioning; the head value and
//!    guards run as one fused tile program ([`crate::scalar::compile`]).
//! 2. **Contraction** (§5.3 / §5.4) — two tiled generators joined on one
//!    index, group-by over the two free indices, head `⊕/v` with
//!    `v = f(a, b)`: matrix-multiplication-like. Translated to one row of
//!    the strategy table (`StrategyRow`): join + tile-level `reduceByKey`
//!    (rule 13), the **group-by-join** / SUMMA plan (§5.4), a broadcast
//!    join, or §4's join + `groupByKey`.
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
//! sums), to the 1-D instances of Contraction (matrix × vector, the
//! `free-right = 1` case) and FusedEltwise (co-indexed vectors, `n x 1`
//! tiles), or to GroupByAggregate. Anything else falls back to the reference
//! interpreter over sparsified arrays (`LocalFallback`), preserving
//! semantics at the cost of distribution.

use crate::analysis::{
    decompose, extract_aggregates, inline_lets, Aggregate, Decomposed, GenKind, VarClasses,
};
use crate::env::{ArrayStats, DistArray, PlanEnv};
use crate::scalar::{self, IdxFn};
use comp::ast::{Expr, Monoid, Pattern, Qualifier};
use comp::errors::CompError;
use comp::normalize::normalize;
use sparkline::GridCells;
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
    /// §5.4: group-by-join (SUMMA) — send each tile once to every reducer of
    /// the output grid that needs it, cogroup once, reduce locally in
    /// ascending contracted order.
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
    /// (`planner::stage`); pinning a strategy freezes the plan — a pinned
    /// node never probes and never re-plans.
    pub matmul: MatMulStrategy,
    /// Largest operand (estimated bytes) the broadcast contraction path may
    /// ship to every executor.
    pub broadcast_budget: u64,
    /// Threads for intra-tile kernels (the paper's `.par`); 1 = sequential.
    pub tile_threads: usize,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            partitions: 0,
            matmul: MatMulStrategy::Auto,
            broadcast_budget: 1 << 20,
            tile_threads: 1,
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
    /// §5.1 element-wise over co-indexed tiled matrices — or tiled vectors,
    /// rule 17's 1-D instance, each block an `n x 1` tile: the whole region
    /// (value, guard masking, scalar constants) collapsed into one postfix
    /// tile program, executed as a single kernel pass per tile by
    /// `tiled::kernel::fused_eltwise`.
    FusedEltwise {
        /// Input array names, in slot order.
        inputs: Vec<String>,
        /// The inputs and the output are tiled vectors.
        vector: bool,
        /// Head key is `(col, row)` — transpose the output.
        transposed: bool,
        /// Constant-folded program over slots
        /// `[val_0, ..., val_{k-1}, row, col]`; a vector's index is `row`.
        program: FusedProgram,
        /// Post-order operator tags of the source region (from the
        /// normalized comprehension head), for the `region_fused` event.
        region_ops: Vec<String>,
    },
    /// §5.3/§5.4 contraction (matrix multiplication shaped). `right` names a
    /// tiled matrix, or — `y_i = Σ_k f(A_ik, x_k)`, the `free-right = 1`
    /// case — a tiled vector, for which `right_contract_col` and
    /// `swap_output` are false.
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
        value: FusedProgram,
        /// Resolved physical strategy (never [`MatMulStrategy::Auto`]).
        strategy: MatMulStrategy,
        /// How the strategy was chosen (candidate cost estimates); its
        /// `chosen` tag names the node.
        decision: PlanDecision,
    },
    /// Fig. 1 row/column reduction to a tiled vector.
    AxisReduce {
        input: String,
        /// Group by the row index (true) or the column index (false).
        by_row: bool,
        monoid: Monoid,
        /// Per-element input over slots `[val, row, col]`.
        value: FusedProgram,
    },
    /// §5.2 rule 19: element-wise index remap with tile replication.
    IndexRemap {
        input: String,
        /// Destination row index over slots `[i, j]`.
        fi: IdxFn,
        /// Destination column index over slots `[i, j]`.
        fj: IdxFn,
        /// Value over slots `[val, i, j]`.
        value: FusedProgram,
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
            Plan::FusedEltwise { inputs, .. } => inputs.iter().map(String::as_str).collect(),
            Plan::Contraction { left, right, .. } => vec![left, right],
            Plan::AxisReduce { input, .. }
            | Plan::IndexRemap { input, .. }
            | Plan::GroupByAggregate { input, .. } => vec![input],
            Plan::LocalFallback { .. } => vec![],
        }
    }

    /// Human-readable strategy name (used by plan-shape tests and explain).
    pub fn strategy_name(&self) -> &'static str {
        match self {
            Plan::FusedEltwise { vector: false, .. } => "eltwise/fused",
            Plan::FusedEltwise { .. } => "vectorEltwise",
            Plan::Contraction { decision, .. } => decision.chosen,
            Plan::AxisReduce { .. } => "axisReduce",
            Plan::IndexRemap { .. } => "indexRemap",
            Plan::GroupByAggregate { .. } => "groupByAggregate",
            Plan::LocalFallback { .. } => "localFallback",
        }
    }

    /// The cost-based decision record, for plans that make one.
    pub fn decision(&self) -> Option<&PlanDecision> {
        match self {
            Plan::Contraction { decision, .. } => Some(decision),
            _ => None,
        }
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
    let mut output = OutputKind::Local;
    let mut plan = None;
    if let Expr::Build {
        builder,
        args,
        body,
    } = &expr
    {
        output = match (builder.as_str(), args.as_slice()) {
            ("tiled", [rows, cols]) => OutputKind::Matrix {
                rows: eval_dim(rows, env)?,
                cols: eval_dim(cols, env)?,
            },
            ("tiled_vector", [len]) => OutputKind::Vector {
                len: eval_dim(len, env)?,
            },
            _ => OutputKind::Local,
        };
        if output != OutputKind::Local {
            let vector = matches!(output, OutputKind::Vector { .. });
            plan = plan_body(body, env, config, vector).ok();
        }
    }
    let plan = plan.unwrap_or(Plan::LocalFallback { expr });
    Ok(Planned { plan, output })
}

/// A builder dimension: an integer expression over the planner scalars that
/// must come out positive — every storage constructor downstream asserts it.
fn eval_dim(e: &Expr, env: &PlanEnv) -> Result<i64, CompError> {
    let mut cenv = comp::Env::new();
    for name in e.free_vars() {
        if let Some(v) = env.scalar(&name) {
            cenv.bind(name.clone(), v.clone());
        }
    }
    match comp::eval(e, &mut cenv)?.as_i64()? {
        dim if dim > 0 => Ok(dim),
        dim => Err(CompError::plan(format!(
            "builder dimension `{e}` must be positive, got {dim}"
        ))),
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

/// Try the translation rules on a builder body, in dispatch order; `vector`
/// is the builder kind (`tiled_vector` rather than `tiled`).
fn plan_body(
    body: &Expr,
    env: &PlanEnv,
    config: &PlanConfig,
    vector: bool,
) -> Result<Plan, CompError> {
    let Expr::Comprehension(c) = body else {
        return Err(CompError::plan("builder body must be a comprehension"));
    };
    let mut d = decompose(&c.head, &c.qualifiers, &gen_kind(env))?;
    d.head = inline_lets(&d.head, &d.lets);
    if d.post_group_quals > 0 {
        return Err(CompError::plan(
            "qualifiers after group-by are not supported by distributed plans",
        ));
    }
    if vector {
        plan_axis_reduce(&d, env)
            .or_else(|_| plan_contraction(&d, env, config, true))
            .or_else(|_| plan_eltwise(&d, env, true))
            .or_else(|_| plan_group_by_aggregate(&d, true))
    } else if d.group_by.is_none() {
        plan_eltwise(&d, env, false).or_else(|_| plan_index_remap(&d, env))
    } else {
        plan_contraction(&d, env, config, false).or_else(|_| plan_group_by_aggregate(&d, false))
    }
}

/// Compile an elementwise head value masked by its guards (conjoined)
/// against `slots` (integer indices from `first_index` on) into one fused
/// program, plus the post-order operator tags of the source region for the
/// `region_fused` event.
fn fuse_head(
    value: &Expr,
    guards: Vec<Expr>,
    slots: &[String],
    first_index: usize,
    env: &PlanEnv,
) -> Result<(FusedProgram, Vec<String>), CompError> {
    let guard = guards
        .into_iter()
        .reduce(|conj, g| Expr::BinOp(comp::BinOp::And, Box::new(conj), Box::new(g)));
    let program = scalar::compile(value, guard.as_ref(), slots, first_index, env)?;
    let mut region_ops = value.op_sequence();
    if let Some(guard) = &guard {
        region_ops.extend(guard.op_sequence());
        region_ops.push("select");
    }
    Ok((
        program,
        region_ops.into_iter().map(str::to_string).collect(),
    ))
}

fn eq_guard(x: &str, y: &str) -> Expr {
    Expr::BinOp(
        comp::BinOp::Eq,
        Box::new(Expr::Var(x.to_string())),
        Box::new(Expr::Var(y.to_string())),
    )
}

/// §5.1 rule 17, over tiled matrices or — `vector` — tiled vectors: every
/// generator is a tiled array of the one kind, all are equated on every
/// index, and the head key is those indices.
fn plan_eltwise(d: &Decomposed, env: &PlanEnv, vector: bool) -> Result<Plan, CompError> {
    // Each generator as (name, value variable, index variables).
    let gens: Vec<(&String, &String, Vec<&String>)> = if vector {
        d.vector_gens
            .iter()
            .map(|g| (&g.name, &g.val, vec![&g.idx]))
            .collect()
    } else {
        d.matrix_gens
            .iter()
            .map(|g| (&g.name, &g.val, vec![&g.row, &g.col]))
            .collect()
    };
    // (`gens` must be every tiled generator: none of the other kind.)
    if gens.is_empty()
        || gens.len() != d.matrix_gens.len() + d.vector_gens.len()
        || !d.range_gens.is_empty()
        || d.group_by.is_some()
    {
        return Err(CompError::plan("not an element-wise comprehension"));
    }
    let classes = VarClasses::from_equalities(&d.var_equalities);
    let classes_of =
        |vars: &[&String]| -> Vec<String> { vars.iter().map(|v| classes.find(v)).collect() };
    // The first generator's index names are the canonical ones.
    let indices = &gens[0].2;
    let index_classes = classes_of(indices);
    if !vector && index_classes[0] == index_classes[1] {
        return Err(CompError::plan("row and column indices equated (diagonal)"));
    }
    if gens.iter().any(|g| classes_of(&g.2) != index_classes) {
        return Err(CompError::plan("generators are not joined on every index"));
    }
    let (key, value_expr) = split_head(&d.head)?;
    let key_classes = match (key, vector) {
        (Expr::Var(k), true) => classes_of(&[k]),
        (Expr::Tuple(kij), false) => match kij.as_slice() {
            [Expr::Var(ka), Expr::Var(kb)] => classes_of(&[ka, kb]),
            _ => return Err(CompError::plan("head key must be index variables")),
        },
        _ => return Err(CompError::plan("head key must be the generator indices")),
    };
    let transposed = key_classes != index_classes;
    if transposed && !key_classes.iter().rev().eq(&index_classes) {
        return Err(CompError::plan("head key is not the generator indices"));
    }

    // Rewrite every generator's index names to the canonical ones so slot
    // lookup finds them. Slots: all value vars, then the indices.
    let canon = |e: &Expr| {
        let aliases = gens[1..].iter().flat_map(|g| g.2.iter().zip(indices));
        aliases
            .filter(|(alias, name)| alias != name)
            .fold(e.clone(), |out, (alias, name)| {
                crate::analysis::substitute(&out, alias, &Expr::Var((*name).clone()))
            })
    };
    let slots = gens.iter().map(|g| g.1).chain(indices.iter().copied());
    let slots: Vec<String> = slots.cloned().collect();
    // Equalities between non-index (value) variables are filters, not join
    // keys — keep them as guards.
    let is_index = |v: &String| gens.iter().any(|g| g.2.contains(&v));
    let value_eqs = d.var_equalities.iter();
    let value_eqs = value_eqs.filter(|(x, y)| !is_index(x) || !is_index(y));
    let guards = d
        .other_guards
        .iter()
        .cloned()
        .chain(value_eqs.map(|(x, y)| eq_guard(x, y)))
        .map(|g| canon(&g))
        .collect();
    let (program, region_ops) = fuse_head(&canon(value_expr), guards, &slots, gens.len(), env)?;
    Ok(Plan::FusedEltwise {
        inputs: gens.iter().map(|g| g.0.clone()).collect(),
        vector,
        transposed,
        program,
        region_ops,
    })
}

/// §5.3/§5.4 contraction: a tiled matrix joined on one index with a second
/// tiled matrix, grouped by the two free indices — or, `vector`, with a
/// tiled vector, grouped by the matrix's free index.
fn plan_contraction(
    d: &Decomposed,
    env: &PlanEnv,
    config: &PlanConfig,
    vector: bool,
) -> Result<Plan, CompError> {
    if !d.range_gens.is_empty() || !d.other_guards.is_empty() || d.var_equalities.len() != 1 {
        return Err(CompError::plan(
            "a contraction has exactly the contracted-index equality",
        ));
    }
    // The right operand: name, value variable, (index variable, is row).
    let (a, (b_name, b_val, b_indices)) = match (&d.matrix_gens[..], &d.vector_gens[..], vector) {
        ([a, b], [], false) => (a, (&b.name, &b.val, vec![(&b.row, true), (&b.col, false)])),
        ([a], [v], true) => (a, (&v.name, &v.val, vec![(&v.idx, true)])),
        _ => return Err(CompError::plan("not a contraction comprehension")),
    };
    let classes = VarClasses::from_equalities(&d.var_equalities);

    // Find the contracted pair: one index of a equated with one index of b.
    let mut contracted: Option<(bool, bool)> = None; // (a_row_contracted, b_col_contracted)
    for (a_idx, a_is_row) in [(&a.row, true), (&a.col, false)] {
        for &(b_idx, b_is_row) in &b_indices {
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

    let (key, value) = split_head(&d.head)?;
    let swap_output = match &d.group_by {
        Some((Pattern::Tuple(kp), None)) if !vector => {
            let [Pattern::Var(kx), Pattern::Var(ky)] = kp.as_slice() else {
                return Err(CompError::plan("contraction key must be two variables"));
            };
            let b_free = b_indices[!right_contract_col as usize].0;
            if classes.same(kx, a_free) && classes.same(ky, b_free) {
                false
            } else if classes.same(kx, b_free) && classes.same(ky, a_free) {
                true
            } else {
                return Err(CompError::plan(
                    "group-by key is not the pair of free indices",
                ));
            }
        }
        Some((Pattern::Var(g), None)) if vector => {
            if !classes.same(g, a_free) || key != &Expr::Var(g.clone()) {
                return Err(CompError::plan(
                    "group-by and head key must be the free matrix index",
                ));
            }
            false
        }
        _ => return Err(CompError::plan("contraction requires a plain group-by")),
    };
    let Expr::Reduce(Monoid::Sum, inner) = value else {
        return Err(CompError::plan(
            "contraction head must be a sum reduction `+/v`",
        ));
    };
    let slots = vec![a.val.clone(), b_val.clone()];
    let value = scalar::compile(inner, None, &slots, slots.len(), env)?;
    let operands = (
        (&*a.name, left_contract_row),
        (&**b_name, right_contract_col),
    );
    let shape = ContractionShape::of(env, operands, vector);
    let (strategy, decision) = decide(shape.as_ref(), vector, config)?;
    Ok(Plan::Contraction {
        left: a.name.clone(),
        right: b_name.clone(),
        left_contract_row,
        right_contract_col,
        swap_output,
        value,
        strategy,
        decision,
    })
}

// ---------------------------------------------------------------------------
// The strategy table: every physical contraction strategy, defined once.
// ---------------------------------------------------------------------------

/// Fixed per-shuffle-round cost, in byte equivalents. A pure byte model
/// never prefers the fewer-round group-by-join on small grids (its
/// replicated join input weighs at least as much as reduceByKey's combined
/// output there), so each shuffle barrier also pays this latency proxy.
const ROUND_COST: u64 = 16 << 10;

/// Nominal partition count for cost estimation when autotuning
/// (`partitions == 0`) defers the real choice to execution time.
const NOMINAL_PARTITIONS: u64 = 8;

/// One oriented contraction `C[i,j] = Σ_k f(A[i,k], B[k,j])` as the cost
/// model sees it, in blocks and bytes. A vector right operand is the
/// `free_right = 1` case whose output blocks are vector blocks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ContractionShape {
    vector: bool,
    /// Block counts of the left-free, contracted and right-free dimensions.
    free_left: u64,
    contracted: u64,
    free_right: u64,
    /// Wire bytes of each side shuffled once: tile count × wire bytes a tile.
    left_bytes: u64,
    right_bytes: u64,
    /// Resident bytes of the operand a broadcast ships: the smaller matrix,
    /// or the vector.
    broadcast_bytes: u64,
    /// Encoded bytes of one output block record.
    out_block: u64,
}

impl ContractionShape {
    /// Orient the contraction of `left` with `right` — each a name and
    /// whether its *non-standard* index is the contracted one
    /// (`left_contract_row`, `right_contract_col`) — from the statistics
    /// `env` holds for them; `None` when either has none. Re-invoked by the
    /// stage driver with measured stats overlaid on `env`.
    pub(crate) fn of(
        env: &PlanEnv,
        ((left, left_contract_row), (right, right_contract_col)): ((&str, bool), (&str, bool)),
        vector: bool,
    ) -> Option<ContractionShape> {
        let (sa, sb) = (env.stats(left)?, env.stats(right)?);
        let (free_left, contracted) = if left_contract_row {
            (sa.block_cols, sa.block_rows)
        } else {
            (sa.block_rows, sa.block_cols)
        };
        let free_right = if right_contract_col {
            sb.block_rows
        } else {
            sb.block_cols
        };
        let (right_bytes, broadcast_bytes, out_block) = if vector {
            let block = ArrayStats::vector_block_bytes(sa.tile_size);
            (sb.estimated_bytes, sb.estimated_bytes, block)
        } else {
            (
                sb.num_tiles() * sb.tile_wire_bytes(),
                sa.estimated_bytes.min(sb.estimated_bytes),
                ArrayStats::dense_tile_bytes(sa.tile_size.max(sb.tile_size)),
            )
        };
        Some(ContractionShape {
            vector,
            free_left: free_left as u64,
            contracted: contracted as u64,
            free_right: free_right as u64,
            left_bytes: sa.num_tiles() * sa.tile_wire_bytes(),
            right_bytes,
            broadcast_bytes,
            out_block,
        })
    }
}

/// One physical contraction strategy: what it is called, which operand kind
/// it lowers, and what it costs. `exec::lower_contraction` holds one
/// dataflow per [`MatMulStrategy`]; everything else a strategy is lives in
/// its row, read by plan-time [`decide`], by the stage driver
/// ([`crate::stage::adapt`]) and by `execute`.
pub(crate) struct StrategyRow {
    pub strategy: MatMulStrategy,
    /// Plan-node and stage tag.
    pub tag: &'static str,
    /// Lowers matrix × vector rather than matrix × matrix.
    pub vector: bool,
    /// Shuffles of the lowering (a join or cogroup shuffles each side), each
    /// costed [`ROUND_COST`]. The zero-round row merges on the driver.
    pub rounds: u64,
    /// Estimated shuffled bytes; `None` when the shape is ineligible.
    bytes: fn(&ContractionShape, &PlanConfig) -> Option<u64>,
}

/// The table, per operand kind in tie-break preference order (fewer rounds
/// first): the first of equally cheap candidates wins.
static STRATEGIES: [StrategyRow; 6] = [
    StrategyRow {
        strategy: MatMulStrategy::Broadcast,
        tag: "contraction/broadcast",
        vector: false,
        rounds: 1,
        bytes: broadcast_bytes,
    },
    StrategyRow {
        strategy: MatMulStrategy::GroupByJoin,
        tag: "contraction/groupByJoin",
        vector: false,
        rounds: 2,
        bytes: group_by_join_bytes,
    },
    StrategyRow {
        strategy: MatMulStrategy::ReduceByKey,
        tag: "contraction/reduceByKey",
        vector: false,
        rounds: 3,
        bytes: reduce_by_key_bytes,
    },
    StrategyRow {
        strategy: MatMulStrategy::JoinGroupBy,
        tag: "contraction/joinGroupBy",
        vector: false,
        rounds: 3,
        bytes: join_group_by_bytes,
    },
    StrategyRow {
        strategy: MatMulStrategy::Broadcast,
        tag: "matVec/broadcast",
        vector: true,
        rounds: 0,
        bytes: broadcast_bytes,
    },
    StrategyRow {
        strategy: MatMulStrategy::ReduceByKey,
        tag: "matVec",
        vector: true,
        rounds: 3,
        bytes: reduce_by_key_bytes,
    },
];

/// The table rows lowering this operand kind.
fn rows(vector: bool) -> impl Iterator<Item = &'static StrategyRow> {
    STRATEGIES.iter().filter(move |r| r.vector == vector)
}

/// Broadcast: ship the small side everywhere, partial output blocks
/// map-side, then one combine round (tiles) or a driver-side merge (vector
/// blocks). Eligible only under the byte budget.
fn broadcast_bytes(s: &ContractionShape, config: &PlanConfig) -> Option<u64> {
    (s.broadcast_bytes <= config.broadcast_budget)
        .then(|| s.broadcast_bytes + s.free_left * s.free_right * s.out_block)
}

/// The partition count a cost is estimated at.
fn cost_partitions(config: &PlanConfig) -> u64 {
    match config.partitions {
        0 => NOMINAL_PARTITIONS,
        pinned => pinned as u64,
    }
}

/// Group-by-join (§5.4): the reducers are the `pr x pc` cells of the output's
/// grid partitioner — the same [`GridCells`] the lowering routes by — and a
/// block goes once to each cell its band crosses: the left side `pc` times,
/// the right side `pr` times, one cogroup round. Ineligible when that grid
/// engages fewer reducers than a split over the contracted index would (a
/// thin Gram product: one output block, a long contraction): there the
/// reduceByKey row's `k`-split is the parallel plan.
fn group_by_join_bytes(s: &ContractionShape, config: &PlanConfig) -> Option<u64> {
    let partitions = cost_partitions(config);
    let cells = GridCells::new(
        s.free_left as usize,
        s.free_right as usize,
        partitions as usize,
    );
    let (pr, pc) = cells.shape();
    (cells.cells() as u64 >= s.contracted.min(partitions))
        .then(|| s.left_bytes * pc as u64 + s.right_bytes * pr as u64)
}

/// Join + reduceByKey (§5.3): both sides shuffled once for the join, partial
/// products map-side combined down to at most min(p, k) partial blocks per
/// output coordinate.
fn reduce_by_key_bytes(s: &ContractionShape, config: &PlanConfig) -> Option<u64> {
    let partials = cost_partitions(config).min(s.contracted);
    Some(s.left_bytes + s.right_bytes + s.free_left * s.free_right * partials * s.out_block)
}

/// Join + groupByKey (§4): every elementary block product crosses the wire
/// uncombined.
fn join_group_by_bytes(s: &ContractionShape, _: &PlanConfig) -> Option<u64> {
    let products = s.free_left * s.contracted * s.free_right;
    Some(s.left_bytes + s.right_bytes + products * s.out_block)
}

/// The row lowering `strategy` for this operand kind, if the table has one.
pub(crate) fn strategy_row(strategy: MatMulStrategy, vector: bool) -> Option<&'static StrategyRow> {
    rows(vector).find(|r| r.strategy == strategy)
}

/// Estimated cost (shuffled bytes + round latency) of every row eligible for
/// `shape`, in table order; none without statistics.
pub(crate) fn candidates(
    shape: Option<&ContractionShape>,
    config: &PlanConfig,
) -> Vec<(&'static StrategyRow, u64)> {
    let Some(shape) = shape else {
        return Vec::new();
    };
    let costed =
        |r: &'static StrategyRow| Some((r, (r.bytes)(shape, config)? + r.rounds * ROUND_COST));
    rows(shape.vector).filter_map(costed).collect()
}

/// The cheapest candidate; the first wins a tie.
pub(crate) fn cheapest(
    candidates: &[(&'static StrategyRow, u64)],
) -> Option<(&'static StrategyRow, u64)> {
    candidates.iter().copied().min_by_key(|&(_, cost)| cost)
}

/// Estimated cost of `row` among `candidates`, if it is eligible.
pub(crate) fn cost_of(
    candidates: &[(&'static StrategyRow, u64)],
    row: &StrategyRow,
) -> Option<u64> {
    let mut candidates = candidates.iter();
    candidates.find(|(r, _)| r.tag == row.tag).map(|&(_, c)| c)
}

/// Resolve one cost-based choice: [`MatMulStrategy::Auto`] takes the
/// cheapest candidate, a pinned strategy is honored verbatim. Without
/// statistics — and for a pinned strategy this operand kind has no row for,
/// so a pinned non-broadcast `matmul` pins mat-vec to the shuffle path — the
/// choice is the kind's first row that needs no byte budget.
fn decide(
    shape: Option<&ContractionShape>,
    vector: bool,
    config: &PlanConfig,
) -> Result<(MatMulStrategy, PlanDecision), CompError> {
    let candidates = candidates(shape, config);
    let (row, auto) = match config.matmul {
        MatMulStrategy::Auto => (cheapest(&candidates).map(|(r, _)| r), true),
        pinned => (strategy_row(pinned, vector), false),
    };
    let row = row
        .or_else(|| rows(vector).find(|r| r.strategy != MatMulStrategy::Broadcast))
        .ok_or_else(|| CompError::plan("no contraction strategy for this operand kind"))?;
    let decision = PlanDecision {
        chosen: row.tag,
        auto,
        est_shuffle_bytes: cost_of(&candidates, row).unwrap_or(0),
        candidates: candidates.into_iter().map(|(r, c)| (r.tag, c)).collect(),
    };
    Ok((row.strategy, decision))
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
    let (key, value) = split_head(&d.head)?;
    if key != &Expr::Var(k.clone()) {
        return Err(CompError::plan("head key must be the group-by index"));
    }
    let Expr::Reduce(monoid, inner) = value else {
        return Err(CompError::plan("head value must be a reduction"));
    };
    let slots = vec![g.val.clone(), g.row.clone(), g.col.clone()];
    let value = scalar::compile(inner, None, &slots, 1, env)?;
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
    let (key, value) = split_head(&d.head)?;
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
    let value = scalar::compile(value, None, &val_slots, 1, env)?;
    Ok(Plan::IndexRemap {
        input: g.name.clone(),
        fi,
        fj,
        value,
    })
}

/// §5.3 generic group-by aggregation (stencils, histograms); `vector` is the
/// builder kind, which the group key's shape must match.
fn plan_group_by_aggregate(d: &Decomposed, vector: bool) -> Result<Plan, CompError> {
    if d.matrix_gens.len() != 1 || !d.vector_gens.is_empty() {
        return Err(CompError::plan(
            "generic group-by plan requires exactly one tiled matrix generator",
        ));
    }
    let g = &d.matrix_gens[0];
    let Some((key_pat, key_expr)) = &d.group_by else {
        return Err(CompError::plan("generic group-by plan requires a group-by"));
    };
    let key = match (vector, key_pat) {
        (false, Pattern::Tuple(kp)) => {
            let [Pattern::Var(k1), Pattern::Var(k2)] = kp.as_slice() else {
                return Err(CompError::plan("matrix group key must be two variables"));
            };
            GroupKey::Cell(k1.clone(), k2.clone())
        }
        (true, Pattern::Var(k)) => GroupKey::Index(k.clone()),
        _ => return Err(CompError::plan("group key shape does not match builder")),
    };
    let (_key_part, value_part) = split_head(&d.head)?;
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
        inner_quals.push(Qualifier::Guard(eq_guard(x, y)));
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
