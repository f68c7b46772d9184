//! Plan selection — the paper's translation rules as one table.
//!
//! Each row of `PLAN_TABLE` is a rule: a tag (the plan tag, the stage tag
//! and the `plan_chosen` tag), the builder it serves, a pattern over the
//! decomposed comprehension, a cost, and its lowering (`exec`). The first row
//! whose pattern matches wins; among the rows that share that pattern — the
//! §5.3/§5.4 contraction strategies — the cheapest eligible one is taken, the
//! first on a tie ([`PlanConfig::matmul`] pins one instead). The catch-all
//! row, `localFallback`, runs the reference interpreter over sparsified
//! arrays and records why every other pattern rejected the statement. The
//! `Node` variants say what each pattern covers. A new plan shape is one
//! row.

use crate::analysis::{
    decompose, extract_aggregates, inline_lets, Aggregate, Decomposed, GenKind, VarClasses,
};
use crate::env::{ArrayStats, DistArray, PlanEnv};
use crate::exec::{self, Dataflow, ExecResult, Lowering};
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
    /// §5.4: group-by-join (SUMMA) — send each tile once, to the row or
    /// column band of the output grid that needs it, and let every cell of
    /// the grid read its two bands in place, reducing locally in ascending
    /// contracted order.
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

/// The planner's record of one decision — a cost-based physical choice, or
/// the fall back to the reference interpreter — carried on the plan so
/// execution can emit it as a `plan_chosen` event.
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
    /// Why every distributed row rejected the statement, for the catch-all
    /// row; `None` for a cost-based choice.
    pub reason: Option<String>,
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Shuffle partition count; `0` (the default) derives the count from
    /// the context's worker pool and the estimated output size at execution
    /// time. Any non-zero value pins it.
    pub partitions: usize,
    /// Strategy for contraction plans. [`MatMulStrategy::Auto`] picks the
    /// cheapest row from the registered statistics at plan time; pinning a
    /// strategy takes that row instead. Either way the chosen row is the
    /// one that runs.
    pub matmul: MatMulStrategy,
    /// Largest operand (estimated bytes) the broadcast contraction path may
    /// ship to every executor.
    pub broadcast_budget: u64,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            partitions: 0,
            matmul: MatMulStrategy::Auto,
            broadcast_budget: 1 << 20,
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

/// The node a row's pattern builds: what its lowering reads.
#[derive(Clone)]
pub(crate) enum Node {
    FusedEltwise(Eltwise),
    Contraction(Contraction),
    AxisReduce(AxisReduce),
    IndexRemap(IndexRemap),
    GroupByAggregate(GroupByAggregate),
    /// Reference interpreter over sparsified arrays.
    LocalFallback(Expr),
}

/// §5.1 element-wise over co-indexed tiled matrices — or tiled vectors,
/// rule 17's 1-D instance, each block an `n x 1` tile: the whole region
/// (value, guard masking, scalar constants) collapsed into one postfix tile
/// program, executed as a single kernel pass per tile by
/// `tiled::kernel::fused_eltwise`.
#[derive(Clone)]
pub(crate) struct Eltwise {
    /// Input array names, in slot order.
    pub inputs: Vec<String>,
    /// Head key is `(col, row)` — transpose the output.
    pub transposed: bool,
    /// Constant-folded program over slots
    /// `[val_0, ..., val_{k-1}, row, col]`; a vector's index is `row`.
    pub program: FusedProgram,
    /// Post-order operator tags of the source region (from the normalized
    /// comprehension head), for the `region_fused` event.
    pub region_ops: Vec<String>,
}

/// §5.3/§5.4 contraction (matrix multiplication shaped). `right` names a
/// tiled matrix, or — `y_i = Σ_k f(A_ik, x_k)`, the `free-right = 1` case —
/// a tiled vector, for which `right_contract_col` and `swap_output` are
/// false.
#[derive(Clone)]
pub(crate) struct Contraction {
    pub left: String,
    pub right: String,
    /// The contracted index of the left input is its **row** (so the left
    /// operand must be transposed tile-wise first).
    pub left_contract_row: bool,
    /// The contracted index of the right input is its **column**.
    pub right_contract_col: bool,
    /// Head key is `(right_free, left_free)` — transpose the result.
    pub swap_output: bool,
    /// Element combine over slots `[a, b]` (must reduce with `+`).
    pub value: FusedProgram,
}

/// Fig. 1 row/column reduction to a tiled vector.
#[derive(Clone)]
pub(crate) struct AxisReduce {
    pub input: String,
    /// Group by the row index (true) or the column index (false).
    pub by_row: bool,
    pub monoid: Monoid,
    /// Per-element input over slots `[val, row, col]`.
    pub value: FusedProgram,
}

/// §5.2 rule 19: element-wise index remap with tile replication.
#[derive(Clone)]
pub(crate) struct IndexRemap {
    pub input: String,
    /// Destination row index over slots `[i, j]`.
    pub fi: IdxFn,
    /// Destination column index over slots `[i, j]`.
    pub fj: IdxFn,
    /// Value over slots `[val, i, j]`.
    pub value: FusedProgram,
}

/// §5.3 generic single-input group-by with aggregate planes.
#[derive(Clone)]
pub(crate) struct GroupByAggregate {
    pub input: String,
    /// The matrix generator's bound names `(row, col, val)`.
    pub gen_vars: (String, String, String),
    /// Qualifiers between the generator and the group-by (ranges, lets,
    /// guards), evaluated per element by the reference evaluator.
    pub inner_quals: Vec<Qualifier>,
    pub key: GroupKey,
    /// Optional key expression (`group by p: e`).
    pub key_expr: Option<Expr>,
    pub aggregates: Vec<Aggregate>,
    /// Finalizer over `%aggN` slots.
    pub finalizer: Expr,
}

/// A selected physical plan: a node and the table row that chose it.
#[derive(Clone)]
pub struct Plan {
    pub(crate) row: &'static PlanRow,
    pub(crate) node: Node,
    /// The decision the plan records (see [`Plan::decision`]).
    pub(crate) decision: Option<PlanDecision>,
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
        match &self.node {
            Node::FusedEltwise(n) => n.inputs.iter().map(String::as_str).collect(),
            Node::Contraction(n) => vec![&n.left, &n.right],
            Node::AxisReduce(AxisReduce { input, .. })
            | Node::IndexRemap(IndexRemap { input, .. })
            | Node::GroupByAggregate(GroupByAggregate { input, .. }) => vec![input],
            Node::LocalFallback(_) => vec![],
        }
    }

    /// The tag of the row that chose the plan (used by plan-shape tests and
    /// explain).
    pub fn strategy_name(&self) -> &'static str {
        self.row.tag
    }

    /// The plan is the matrix group-by-join, whose products run in its
    /// output's cells behind no shuffle.
    pub(crate) fn is_group_by_join(&self) -> bool {
        let pin = self.row.strategy.as_ref().map(|s| s.pin);
        pin == Some(MatMulStrategy::GroupByJoin)
    }

    /// The decision record of a row that decides: a contraction row's
    /// cost-based choice, or the catch-all row's reason.
    pub fn decision(&self) -> Option<&PlanDecision> {
        self.decision.as_ref()
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

/// Plan a (possibly unnormalized) comprehension expression: the first row of
/// `PLAN_TABLE` whose pattern matches, costed against the rows that share
/// its pattern. A comprehension no distributed row covers runs on the
/// driver-side reference interpreter (the `localFallback` row).
pub fn plan(expr: &Expr, env: &PlanEnv, config: &PlanConfig) -> Result<Planned, CompError> {
    let expr = normalize(expr.clone());
    let not_tiled = || Err(CompError::plan("not a tiled or tiled_vector builder"));
    let (output, body) = match &expr {
        Expr::Build {
            builder,
            args,
            body,
        } => match (builder.as_str(), args.as_slice()) {
            ("tiled", [rows, cols]) => {
                let (rows, cols) = (eval_dim(rows, env)?, eval_dim(cols, env)?);
                (OutputKind::Matrix { rows, cols }, decompose_body(body, env))
            }
            ("tiled_vector", [len]) => {
                let len = eval_dim(len, env)?;
                (OutputKind::Vector { len }, decompose_body(body, env))
            }
            _ => (OutputKind::Local, not_tiled()),
        },
        _ => (OutputKind::Local, not_tiled()),
    };
    let builder = match (&body, &output) {
        (Ok(_), OutputKind::Matrix { .. }) => Builder::Matrix,
        (Ok(_), OutputKind::Vector { .. }) => Builder::Vector,
        _ => Builder::Any,
    };
    let rejected = Vec::new();
    let statement = Statement {
        expr,
        builder,
        body,
        env,
        rejected,
    };
    let plan = select(statement, config);
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

/// Which builders a row serves: `tiled`, `tiled_vector`, either, or every
/// statement. A statement is `Matrix` or `Vector` when its body decomposes
/// into a comprehension the distributed patterns read, and `Any` otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builder {
    Matrix,
    Vector,
    Tiled,
    Any,
}

impl Builder {
    fn serves(self, statement: Builder) -> bool {
        let tiled = self == Builder::Tiled && statement != Builder::Any;
        self == statement || self == Builder::Any || tiled
    }
}

/// One normalized statement as the rows' patterns see it.
pub(crate) struct Statement<'a> {
    /// The normalized expression (the catch-all row's node).
    expr: Expr,
    builder: Builder,
    /// The decomposed builder body, or why there is none.
    body: Result<Decomposed, CompError>,
    env: &'a PlanEnv,
    /// `pattern: reason` of every pattern that rejected the statement.
    rejected: Vec<String>,
}

impl Statement<'_> {
    fn body(&self) -> Result<&Decomposed, CompError> {
        self.body.as_ref().map_err(Clone::clone)
    }

    fn vector(&self) -> bool {
        self.builder == Builder::Vector
    }

    /// Why no distributed row covers the statement.
    fn reason(&self) -> String {
        match &self.body {
            Err(why) => why.message.clone(),
            Ok(_) => self.rejected.join("; "),
        }
    }
}

/// Decompose a builder body for the distributed patterns.
fn decompose_body(body: &Expr, env: &PlanEnv) -> Result<Decomposed, CompError> {
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
    Ok(d)
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

// ---------------------------------------------------------------------------
// The plan table.
// ---------------------------------------------------------------------------

/// A pattern over the normalized statement — the node it covers, or why not
/// — and its name in a fallback's reason. The rows that share a pattern (the
/// contraction strategies) share its static.
pub(crate) struct Matcher(&'static str, fn(&Statement) -> Result<Node, CompError>);

static ELTWISE: Matcher = Matcher("eltwise", plan_eltwise);
static CONTRACTION: Matcher = Matcher("contraction", plan_contraction);
static AXIS_REDUCE: Matcher = Matcher("axisReduce", plan_axis_reduce);
static INDEX_REMAP: Matcher = Matcher("indexRemap", plan_index_remap);
static GROUP_BY_AGGREGATE: Matcher = Matcher("groupByAggregate", plan_group_by_aggregate);
static ANY: Matcher = Matcher("localFallback", plan_local);

/// One rule of the planner.
pub(crate) struct PlanRow {
    /// The plan tag, the stage tag and the `plan_chosen` tag.
    pub tag: &'static str,
    builder: Builder,
    pattern: &'static Matcher,
    /// A contraction row's strategy; `None` for a row alone in its pattern.
    pub strategy: Option<Strategy>,
    pub lower: fn(&Plan, &Lowering) -> Result<ExecResult, CompError>,
}

/// One physical contraction strategy: the pin that selects it, its cost and
/// its dataflow.
pub(crate) struct Strategy {
    pub pin: MatMulStrategy,
    /// Shuffles of the dataflow (a join or cogroup shuffles each side), each
    /// costed [`ROUND_COST`]. The zero-round row merges on the driver.
    rounds: u64,
    /// Estimated shuffled bytes; `None` when the shape is ineligible.
    bytes: fn(&ContractionShape, &PlanConfig) -> Option<u64>,
    pub dataflow: Dataflow,
}

impl PlanRow {
    /// `other` shares this row's pattern and builder: the two are candidates
    /// of one cost-based choice.
    fn alike(&self, other: &PlanRow) -> bool {
        std::ptr::eq(self.pattern, other.pattern) && self.builder == other.builder
    }
}

/// The planner: every row, in the order patterns are tried. The rows of one
/// pattern are consecutive, in tie-break order (fewer rounds first).
#[rustfmt::skip]
static PLAN_TABLE: [PlanRow; 12] = {
    use exec::{BROADCAST, BROADCAST_TO_DRIVER, GROUP_BY_JOIN, JOIN_GROUP_BY, REDUCE_BY_KEY};
    use Builder::{Any, Matrix, Tiled, Vector};
    use MatMulStrategy::{Broadcast, GroupByJoin, JoinGroupBy, ReduceByKey};
    [
        PlanRow { tag: "eltwise/fused", builder: Matrix, pattern: &ELTWISE, strategy: None,
            lower: exec::eltwise },
        PlanRow { tag: "vectorEltwise", builder: Vector, pattern: &ELTWISE, strategy: None,
            lower: exec::eltwise },
        PlanRow { tag: "contraction/broadcast", builder: Matrix, pattern: &CONTRACTION,
            strategy: Some(Strategy { pin: Broadcast, rounds: 1,
                bytes: broadcast_bytes, dataflow: BROADCAST }),
            lower: exec::contraction },
        PlanRow { tag: "contraction/groupByJoin", builder: Matrix, pattern: &CONTRACTION,
            strategy: Some(Strategy { pin: GroupByJoin, rounds: 2,
                bytes: group_by_join_bytes, dataflow: GROUP_BY_JOIN }),
            lower: exec::contraction },
        PlanRow { tag: "contraction/reduceByKey", builder: Matrix, pattern: &CONTRACTION,
            strategy: Some(Strategy { pin: ReduceByKey, rounds: 3,
                bytes: reduce_by_key_bytes, dataflow: REDUCE_BY_KEY }),
            lower: exec::contraction },
        PlanRow { tag: "contraction/joinGroupBy", builder: Matrix, pattern: &CONTRACTION,
            strategy: Some(Strategy { pin: JoinGroupBy, rounds: 3,
                bytes: join_group_by_bytes, dataflow: JOIN_GROUP_BY }),
            lower: exec::contraction },
        PlanRow { tag: "matVec/broadcast", builder: Vector, pattern: &CONTRACTION,
            strategy: Some(Strategy { pin: Broadcast, rounds: 0,
                bytes: broadcast_bytes, dataflow: BROADCAST_TO_DRIVER }),
            lower: exec::contraction },
        PlanRow { tag: "matVec", builder: Vector, pattern: &CONTRACTION,
            strategy: Some(Strategy { pin: ReduceByKey, rounds: 3,
                bytes: reduce_by_key_bytes, dataflow: REDUCE_BY_KEY }),
            lower: exec::contraction },
        PlanRow { tag: "axisReduce", builder: Vector, pattern: &AXIS_REDUCE, strategy: None,
            lower: exec::axis_reduce },
        PlanRow { tag: "indexRemap", builder: Matrix, pattern: &INDEX_REMAP, strategy: None,
            lower: exec::index_remap },
        PlanRow { tag: "groupByAggregate", builder: Tiled, pattern: &GROUP_BY_AGGREGATE,
            strategy: None, lower: exec::group_by_aggregate },
        PlanRow { tag: "localFallback", builder: Any, pattern: &ANY, strategy: None,
            lower: exec::local },
    ]
};

/// The first row serving the statement's builder whose pattern matches. A
/// pattern is tried once for all the rows that share it, and the reason it
/// rejects is kept for the catch-all row.
fn select(mut statement: Statement, config: &PlanConfig) -> Plan {
    let mut tried: Option<&Matcher> = None;
    let serving = PLAN_TABLE
        .iter()
        .filter(|r| r.builder.serves(statement.builder));
    for row in serving {
        if tried.is_some_and(|pattern| std::ptr::eq(pattern, row.pattern)) {
            continue;
        }
        tried = Some(row.pattern);
        match (row.pattern.1)(&statement) {
            Ok(node) => return Plan::chosen(row, node, &statement, config),
            Err(why) => {
                let reason = format!("{}: {}", row.pattern.0, why.message);
                statement.rejected.push(reason);
            }
        }
    }
    unreachable!("the catch-all row matches every statement")
}

impl Plan {
    /// The plan of the node `row`'s pattern built. A strategy row's node is
    /// costed against every row of its pattern; the catch-all row records
    /// why the others rejected the statement.
    fn chosen(
        row: &'static PlanRow,
        node: Node,
        statement: &Statement,
        config: &PlanConfig,
    ) -> Plan {
        let (row, decision) = match &node {
            Node::Contraction(_) if row.strategy.is_some() => {
                let (row, decision) = choose(row, statement.env, &node, config);
                (row, Some(decision))
            }
            _ if row.builder == Builder::Any => {
                let decision = PlanDecision {
                    chosen: row.tag,
                    auto: true,
                    est_shuffle_bytes: 0,
                    candidates: Vec::new(),
                    reason: Some(statement.reason()),
                };
                (row, Some(decision))
            }
            _ => (row, None),
        };
        Plan {
            row,
            node,
            decision,
        }
    }
}

/// The catch-all pattern: every statement, as the reference interpreter
/// runs it.
fn plan_local(statement: &Statement) -> Result<Node, CompError> {
    Ok(Node::LocalFallback(statement.expr.clone()))
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
fn plan_eltwise(s: &Statement) -> Result<Node, CompError> {
    let (d, env, vector) = (s.body()?, s.env, s.vector());
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
                crate::analysis::substitute(out, alias, &Expr::Var((*name).clone()))
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
    Ok(Node::FusedEltwise(Eltwise {
        inputs: gens.iter().map(|g| g.0.clone()).collect(),
        transposed,
        program,
        region_ops,
    }))
}

/// §5.3/§5.4 contraction: a tiled matrix joined on one index with a second
/// tiled matrix, grouped by the two free indices — or, `vector`, with a
/// tiled vector, grouped by the matrix's free index.
fn plan_contraction(s: &Statement) -> Result<Node, CompError> {
    let (d, env, vector) = (s.body()?, s.env, s.vector());
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
    Ok(Node::Contraction(Contraction {
        left: a.name.clone(),
        right: b_name.clone(),
        left_contract_row,
        right_contract_col,
        swap_output,
        value,
    }))
}

// ---------------------------------------------------------------------------
// The cost column of the contraction rows, in bytes.
// ---------------------------------------------------------------------------

/// Fixed per-shuffle-round cost, in byte equivalents: each shuffle barrier
/// pays this latency proxy on top of its bytes, so of two rows shipping
/// about the same bytes the one with fewer rounds wins.
const ROUND_COST: u64 = 16 << 10;

/// Nominal partition count for cost estimation when autotuning
/// (`partitions == 0`) defers the real choice to execution time.
const NOMINAL_PARTITIONS: u64 = 8;

/// One oriented contraction `C[i,j] = Σ_k f(A[i,k], B[k,j])` as the cost
/// model sees it, in blocks and bytes. A vector right operand is the
/// `free_right = 1` case whose output blocks are vector blocks.
#[derive(Debug, Clone, Copy)]
struct ContractionShape {
    /// Block counts of the left-free, contracted and right-free dimensions.
    free_left: u64,
    contracted: u64,
    free_right: u64,
    /// Wire bytes of each side shuffled once: tile count × dense tile record.
    left_bytes: u64,
    right_bytes: u64,
    /// Resident bytes of the operand a broadcast ships: the smaller matrix,
    /// or the vector.
    broadcast_bytes: u64,
    /// Encoded bytes of one output block record.
    out_block: u64,
    /// The operands are tile sets whose shuffles cross worker processes
    /// while every task runs on the driver: a table collected for a
    /// broadcast never crosses a socket.
    through_workers: bool,
}

impl ContractionShape {
    /// Orient the contraction of `left` with `right` — each a name and
    /// whether its *non-standard* index is the contracted one
    /// (`left_contract_row`, `right_contract_col`) — from the statistics
    /// `env` holds for them; `None` when either has none.
    fn of(env: &PlanEnv, node: &Node, vector: bool) -> Option<ContractionShape> {
        let Node::Contraction(n) = node else {
            return None;
        };
        let (sa, sb) = (env.stats(&n.left)?, env.stats(&n.right)?);
        let (free_left, contracted) = if n.left_contract_row {
            (sa.block_cols, sa.block_rows)
        } else {
            (sa.block_rows, sa.block_cols)
        };
        let free_right = if n.right_contract_col {
            sb.block_rows
        } else {
            sb.block_cols
        };
        let (right_bytes, broadcast_bytes, out_block) = if vector {
            let block = ArrayStats::vector_block_bytes(sa.tile_size);
            (sb.estimated_bytes, sb.estimated_bytes, block)
        } else {
            (
                sb.num_tiles() * ArrayStats::dense_tile_bytes(sb.tile_size),
                sa.estimated_bytes.min(sb.estimated_bytes),
                ArrayStats::dense_tile_bytes(sa.tile_size.max(sb.tile_size)),
            )
        };
        let through_workers = !vector
            && [&n.left, &n.right]
                .into_iter()
                .filter_map(|name| env.array(name))
                .any(|array| array.context().worker_processes() > 0);
        Some(ContractionShape {
            free_left: free_left as u64,
            contracted: contracted as u64,
            free_right: free_right as u64,
            left_bytes: sa.num_tiles() * ArrayStats::dense_tile_bytes(sa.tile_size),
            right_bytes,
            broadcast_bytes,
            out_block,
            through_workers,
        })
    }
}

/// Broadcast: ship the small side everywhere, partial output blocks
/// map-side, then one combine round (tiles) or a driver-side merge (vector
/// blocks). Eligible only under the byte budget. Through worker processes
/// the table is collected to the driver, where every task runs, so only the
/// combine round ships: at most `min(p, k)` partial blocks per output block.
fn broadcast_bytes(s: &ContractionShape, config: &PlanConfig) -> Option<u64> {
    let output = s.free_left * s.free_right;
    let shipped = if s.through_workers {
        output * cost_partitions(config).min(s.contracted) * s.out_block
    } else {
        s.broadcast_bytes + output * s.out_block
    };
    (s.broadcast_bytes <= config.broadcast_budget).then_some(shipped)
}

/// The partition count a cost is estimated at.
fn cost_partitions(config: &PlanConfig) -> u64 {
    match config.partitions {
        0 => NOMINAL_PARTITIONS,
        pinned => pinned as u64,
    }
}

/// Group-by-join (§5.4): the reducers are the `pr x pc` cells of the output's
/// grid partitioner — the same [`GridCells`] the lowering routes by — and
/// each block ships once, to the row band (left) or column band (right) its
/// cells read in place: both sides once, one round of two shuffles.
/// Ineligible when that grid engages fewer reducers than a split over the
/// contracted index would (a thin Gram product: one output block, a long
/// contraction): there the reduceByKey row's `k`-split is the parallel plan.
fn group_by_join_bytes(s: &ContractionShape, config: &PlanConfig) -> Option<u64> {
    let partitions = cost_partitions(config);
    let cells = GridCells::new(
        s.free_left as usize,
        s.free_right as usize,
        partitions as usize,
    );
    (cells.cells() as u64 >= s.contracted.min(partitions)).then(|| s.left_bytes + s.right_bytes)
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

/// Resolve one cost-based choice among the rows of `row`'s pattern and
/// builder, each eligible one costed (shuffled bytes + round latency) from
/// the statistics `env` holds: [`MatMulStrategy::Auto`] takes the cheapest,
/// the first in table order on a tie; a pinned strategy is honored
/// verbatim. Without statistics — and for a pin no row of the pattern
/// carries, so a pinned non-broadcast `matmul` pins mat-vec to the shuffle
/// path — the choice is the first row that needs no byte budget. The choice
/// is final: the chosen row is the one lowered.
fn choose(
    row: &'static PlanRow,
    env: &PlanEnv,
    node: &Node,
    config: &PlanConfig,
) -> (&'static PlanRow, PlanDecision) {
    let alike = || PLAN_TABLE.iter().filter(|r| r.alike(row));
    let shape = ContractionShape::of(env, node, row.builder == Builder::Vector);
    let costed = |r: &'static PlanRow| {
        let (strategy, shape) = (r.strategy.as_ref()?, shape.as_ref()?);
        let cost = (strategy.bytes)(shape, config)? + strategy.rounds * ROUND_COST;
        Some((r, cost))
    };
    let candidates: Vec<(&'static PlanRow, u64)> = alike().filter_map(costed).collect();
    let row_where = |pinned: &dyn Fn(MatMulStrategy) -> bool| {
        alike().find(|r| r.strategy.as_ref().is_some_and(|s| pinned(s.pin)))
    };
    let auto = config.matmul == MatMulStrategy::Auto;
    let chosen = if auto {
        let cheapest = candidates.iter().min_by_key(|&&(_, cost)| cost);
        cheapest.map(|&(r, _)| r)
    } else {
        row_where(&|pin| pin == config.matmul)
    };
    let unbudgeted = || row_where(&|p| p != MatMulStrategy::Broadcast);
    let chosen = chosen.or_else(unbudgeted).unwrap_or(row);
    let est = candidates.iter().find(|(r, _)| r.tag == chosen.tag);
    let decision = PlanDecision {
        chosen: chosen.tag,
        auto,
        est_shuffle_bytes: est.map_or(0, |&(_, cost)| cost),
        candidates: candidates.into_iter().map(|(r, c)| (r.tag, c)).collect(),
        reason: None,
    };
    (chosen, decision)
}

/// Fig. 1 axis reduction.
fn plan_axis_reduce(s: &Statement) -> Result<Node, CompError> {
    let (d, env) = (s.body()?, s.env);
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
    Ok(Node::AxisReduce(AxisReduce {
        input: g.name.clone(),
        by_row,
        monoid: *monoid,
        value,
    }))
}

/// §5.2 rule 19.
fn plan_index_remap(s: &Statement) -> Result<Node, CompError> {
    let (d, env) = (s.body()?, s.env);
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
    Ok(Node::IndexRemap(IndexRemap {
        input: g.name.clone(),
        fi,
        fj,
        value,
    }))
}

/// §5.3 generic group-by aggregation (stencils, histograms); `vector` is the
/// builder kind, which the group key's shape must match.
fn plan_group_by_aggregate(s: &Statement) -> Result<Node, CompError> {
    let (d, vector) = (s.body()?, s.vector());
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
    Ok(Node::GroupByAggregate(GroupByAggregate {
        input: g.name.clone(),
        gen_vars: (g.row.clone(), g.col.clone(), g.val.clone()),
        inner_quals,
        key,
        key_expr: key_expr.clone(),
        aggregates,
        finalizer,
    }))
}
