//! Plan execution on the `sparkline` runtime.

use crate::env::{DistArray, PlanEnv};
use crate::plan::{GroupKey, MatMulStrategy, OutputKind, Plan, PlanConfig, Planned};
use crate::scalar::ScalarFn;
use crate::stage;
use comp::ast::{Expr, Monoid, Pattern, Qualifier};
use comp::errors::CompError;
use comp::eval::eval_comprehension;
use comp::{Comprehension, Value};
use sparkline::{Context, Data, Dataset, Event, PartitionStream, SpillCodec};
use std::collections::HashMap;
use std::hash::Hash;
use tiled::fused::FusedProgram;
use tiled::kernel::Backend;
use tiled::{DenseMatrix, LocalMatrix, TileCoord, TiledMatrix, TiledVector};

/// The result of executing a plan.
#[derive(Clone)]
pub enum ExecResult {
    Matrix(TiledMatrix),
    Vector(TiledVector),
    Local(Value),
}

impl ExecResult {
    /// Materialize every lazy stage of the result now. Used by
    /// `explain_analyze`-style callers that want all stages to run inside a
    /// trace window (tiled results are otherwise computed on first use).
    pub fn force(&self) -> &ExecResult {
        match self {
            ExecResult::Matrix(m) => {
                m.tiles().count();
            }
            ExecResult::Vector(v) => {
                v.blocks().count();
            }
            ExecResult::Local(_) => {}
        }
        self
    }

    pub fn into_matrix(self) -> Result<TiledMatrix, CompError> {
        match self {
            ExecResult::Matrix(m) => Ok(m),
            _ => Err(CompError::plan("result is not a tiled matrix")),
        }
    }

    pub fn into_vector(self) -> Result<TiledVector, CompError> {
        match self {
            ExecResult::Vector(v) => Ok(v),
            _ => Err(CompError::plan("result is not a tiled vector")),
        }
    }

    pub fn into_local(self) -> Result<Value, CompError> {
        match self {
            ExecResult::Local(v) => Ok(v),
            _ => Err(CompError::plan("result is not a local value")),
        }
    }
}

/// The f64 embedding of a monoid: identity and combine.
#[allow(clippy::type_complexity)]
pub fn monoid_f64(m: Monoid) -> Result<(f64, fn(f64, f64) -> f64), CompError> {
    Ok(match m {
        Monoid::Sum => (0.0, |a, b| a + b),
        Monoid::Product => (1.0, |a, b| a * b),
        Monoid::Max => (f64::NEG_INFINITY, f64::max),
        Monoid::Min => (f64::INFINITY, f64::min),
        // Booleans embed as 0/1.
        Monoid::And => (1.0, f64::min),
        Monoid::Or => (0.0, f64::max),
        Monoid::Concat => {
            return Err(CompError::plan(
                "list concatenation cannot run on scalar accumulator planes",
            ))
        }
    })
}

/// Execute a planned comprehension.
///
/// The whole dispatch runs under a plan-node tag equal to
/// [`Plan::strategy_name`], so every shuffle stage the plan constructs is
/// attributed to its plan node in the event trace (the DAG is built here even
/// though stages materialize later — shuffles capture the tag eagerly).
pub fn execute(
    planned: &Planned,
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
) -> Result<ExecResult, CompError> {
    // Resolve partition autotuning (`partitions == 0`) against this
    // context's worker pool and the plan's estimated output size, then put
    // the planner's cost-based decision on the event bus as `plan.chosen`.
    let mut tuned = config.clone();
    if tuned.partitions == 0 {
        tuned.partitions = autotune_partitions(&planned.output, ctx);
    }
    let config = &tuned;
    if let Plan::FusedEltwise {
        inputs,
        program,
        region_ops,
        ..
    }
    | Plan::VectorEltwise {
        inputs,
        program,
        region_ops,
    } = &planned.plan
    {
        ctx.emit_event(|at_micros| Event::RegionFused {
            ops: program.len() as u64,
            inputs: inputs.len() as u64,
            signature: program.signature(),
            source: region_ops.join(";"),
            at_micros,
        });
    }
    if let Some(decision) = planned.plan.decision() {
        ctx.emit_event(|at_micros| Event::PlanChosen {
            chosen: decision.chosen.to_string(),
            auto: decision.auto,
            partitions: config.partitions as u64,
            est_shuffle_bytes: decision.est_shuffle_bytes,
            candidates: decision
                .candidates
                .iter()
                .map(|&(tag, cost)| (tag.to_string(), cost))
                .collect(),
            at_micros,
        });
    }
    ctx.scoped_tag(planned.plan.strategy_name(), || {
        if config.auto_persist {
            if let Some(overlay) = persist_shared_inputs(&planned.plan, env) {
                return execute_untagged(planned, &overlay, ctx, config);
            }
        }
        execute_untagged(planned, env, ctx, config)
    })
}

/// Target bytes per shuffle partition when autotuning.
const PARTITION_TARGET_BYTES: u64 = 1 << 20;

/// Derive the shuffle partition count from the (dense-estimated) output
/// size: one partition per ~1 MiB, clamped to `[workers, 4 * workers]` so
/// small jobs still engage every worker and large ones don't drown the
/// scheduler in tiny tasks.
fn autotune_partitions(output: &OutputKind, ctx: &Context) -> usize {
    let est_bytes = match output {
        OutputKind::Matrix { rows, cols } => (*rows).max(0) as u64 * (*cols).max(0) as u64 * 8,
        OutputKind::Vector { len } => (*len).max(0) as u64 * 8,
        OutputKind::Local => 0,
    };
    let workers = ctx.workers().max(1);
    ((est_bytes / PARTITION_TARGET_BYTES) as usize).clamp(workers, 4 * workers)
}

/// When a plan references the same input name more than once (e.g. both
/// sides of `A*A`), each reference would evaluate that input's lineage
/// independently. Overlay such names with block-manager-persisted wrappers
/// so the lineage is computed once and later references hit the cache (or
/// transparently recompute if the budget evicted a block). Returns `None`
/// when no input is shared.
fn persist_shared_inputs(plan: &Plan, env: &PlanEnv) -> Option<PlanEnv> {
    let names = plan.input_names();
    let mut shared: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| names.iter().filter(|m| *m == n).count() >= 2)
        .collect();
    shared.sort_unstable();
    shared.dedup();
    let overlays: Vec<(&str, DistArray)> = shared
        .into_iter()
        .filter_map(|name| env.persisted_array(name).map(|p| (name, p)))
        .collect();
    if overlays.is_empty() {
        return None;
    }
    let mut overlay_env = env.clone();
    for (name, persisted) in overlays {
        overlay_env.overlay_array(name, persisted);
    }
    Some(overlay_env)
}

fn execute_untagged(
    planned: &Planned,
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
) -> Result<ExecResult, CompError> {
    match (&planned.plan, &planned.output) {
        (Plan::FusedEltwise { .. }, OutputKind::Matrix { rows, cols }) => {
            exec_fused_eltwise(&planned.plan, env, config, *rows, *cols).map(ExecResult::Matrix)
        }
        (Plan::Contraction { .. }, OutputKind::Matrix { rows, cols }) => {
            exec_contraction(&planned.plan, env, ctx, config, *rows, *cols).map(ExecResult::Matrix)
        }
        (Plan::IndexRemap { .. }, OutputKind::Matrix { rows, cols }) => {
            exec_index_remap(&planned.plan, env, ctx, config, *rows, *cols).map(ExecResult::Matrix)
        }
        (Plan::GroupByAggregate { .. }, OutputKind::Matrix { rows, cols }) => {
            exec_group_aggregate_matrix(&planned.plan, env, ctx, config, *rows, *cols)
                .map(ExecResult::Matrix)
        }
        (Plan::AxisReduce { .. }, OutputKind::Vector { len }) => {
            exec_axis_reduce(&planned.plan, env, config, *len).map(ExecResult::Vector)
        }
        (Plan::MatVec { .. }, OutputKind::Vector { len }) => {
            exec_mat_vec(&planned.plan, env, ctx, config, *len).map(ExecResult::Vector)
        }
        (Plan::VectorEltwise { .. }, OutputKind::Vector { len }) => {
            exec_vector_eltwise(&planned.plan, env, config, *len).map(ExecResult::Vector)
        }
        (Plan::GroupByAggregate { .. }, OutputKind::Vector { len }) => {
            exec_group_aggregate_vector(&planned.plan, env, config, *len).map(ExecResult::Vector)
        }
        (Plan::LocalFallback { expr }, output) => exec_local(expr, env, ctx, config, output),
        (plan, output) => Err(CompError::plan(format!(
            "plan {} cannot produce output {output:?}",
            plan.strategy_name()
        ))),
    }
}

fn matrix_input<'a>(env: &'a PlanEnv, name: &str) -> Result<&'a TiledMatrix, CompError> {
    env.array(name)
        .and_then(DistArray::as_matrix)
        .ok_or_else(|| CompError::plan(format!("`{name}` is not a registered tiled matrix")))
}

/// Validated elementwise inputs: the co-indexed tile join plus its shape.
struct EltwiseInputs {
    joined: Dataset<(TileCoord, Vec<DenseMatrix>)>,
    /// Tile size.
    n: usize,
    /// Logical input shape (pre-transpose).
    in_rows: i64,
    in_cols: i64,
    /// Input count.
    k: usize,
}

/// Resolve, validate, and cogroup-join the inputs of an elementwise plan on
/// tile coordinates, using the grid partitioner of the output shape: inputs
/// registered grid-partitioned (mllib-style) cogroup narrowly, so e.g.
/// matrix addition runs with zero shuffle stages. Tile coordinates are
/// unique per matrix, so each cogroup side holds at most one tile — popping
/// it moves the buffer instead of cloning a join pair. All per-key steps
/// preserve partitioning, keeping later cogroups in the chain narrow too.
fn join_eltwise_inputs(
    inputs: &[String],
    transposed: bool,
    env: &PlanEnv,
    config: &PlanConfig,
    rows: i64,
    cols: i64,
) -> Result<EltwiseInputs, CompError> {
    let mats: Vec<&TiledMatrix> = inputs
        .iter()
        .map(|n| matrix_input(env, n))
        .collect::<Result<_, _>>()?;
    let first = mats[0];
    let n = first.tile_size();
    for m in &mats {
        if !m.same_shape(first) {
            return Err(CompError::plan(
                "element-wise inputs must have identical dimensions and tiling",
            ));
        }
    }
    let (in_rows, in_cols) = (first.rows(), first.cols());
    let expected = if transposed {
        (in_cols, in_rows)
    } else {
        (in_rows, in_cols)
    };
    if expected != (rows, cols) {
        return Err(CompError::plan(format!(
            "builder dimensions ({rows},{cols}) do not match input dimensions {expected:?}"
        )));
    }
    let grid = first.grid_partitioner(config.partitions);
    let mut joined: Dataset<(TileCoord, Vec<DenseMatrix>)> = first.tiles().map_values(|t| vec![t]);
    for m in &mats[1..] {
        joined = joined
            .cogroup_with(m.tiles(), grid.clone())
            // Inner-join semantics: unmatched coordinates drop.
            .filter(|(_, (accs, ts))| !accs.is_empty() && !ts.is_empty())
            .map_values(|(mut accs, mut ts)| {
                let mut acc = accs.pop().expect("filtered non-empty");
                acc.push(ts.pop().expect("filtered non-empty"));
                acc
            });
    }
    Ok(EltwiseInputs {
        joined,
        n,
        in_rows,
        in_cols,
        k: mats.len(),
    })
}

/// Run a fused region over one tile. `shape` is the tile's `(rows, cols)` —
/// `(n, n)` for a matrix tile, `(n, 1)` for a vector block — `origin` the
/// global `(row, col)` of its first element, and `extent` the logical
/// `(rows, cols)` of the whole array: elements past it are padding and come
/// out zero. The global row/col index planes (program slots `k`, `k + 1`
/// after the `k` input buffers) are only materialized when the program
/// reads them.
fn fused_tile(
    program: &FusedProgram,
    inputs: &[&[f64]],
    shape: (usize, usize),
    origin: (i64, i64),
    extent: (i64, i64),
    backend: Backend,
) -> Vec<f64> {
    let (tile_rows, tile_cols) = shape;
    let len = tile_rows * tile_cols;
    let mut bufs = inputs.to_vec();
    let planes;
    if program.n_slots() > inputs.len() {
        let mut row_plane = Vec::with_capacity(len);
        let mut col_plane = Vec::with_capacity(len);
        for ti in 0..tile_rows {
            for tj in 0..tile_cols {
                row_plane.push((origin.0 + ti as i64) as f64);
                col_plane.push((origin.1 + tj as i64) as f64);
            }
        }
        planes = (row_plane, col_plane);
        bufs.push(&planes.0);
        bufs.push(&planes.1);
    }
    let mut data = tiled::kernel::fused_eltwise(program, &bufs, len, backend);
    let valid_rows = (extent.0 - origin.0).clamp(0, tile_rows as i64) as usize;
    let valid_cols = (extent.1 - origin.1).clamp(0, tile_cols as i64) as usize;
    data[valid_rows * tile_cols..].fill(0.0);
    if valid_cols < tile_cols {
        for row in data[..valid_rows * tile_cols].chunks_mut(tile_cols) {
            row[valid_cols..].fill(0.0);
        }
    }
    data
}

/// §5.1: join co-indexed tile sets and run the whole region as one
/// `tiled::kernel::fused_eltwise` pass per tile. The tile map carries the
/// `fused_eltwise` operator label so traces attribute the region to exactly
/// one operator.
fn exec_fused_eltwise(
    plan: &Plan,
    env: &PlanEnv,
    config: &PlanConfig,
    rows: i64,
    cols: i64,
) -> Result<TiledMatrix, CompError> {
    let Plan::FusedEltwise {
        inputs,
        transposed,
        program,
        ..
    } = plan
    else {
        unreachable!()
    };
    let EltwiseInputs {
        joined,
        n,
        in_rows,
        in_cols,
        k,
    } = join_eltwise_inputs(inputs, *transposed, env, config, rows, cols)?;

    let program = program.clone();
    let transposed = *transposed;
    let backend = Backend::active();
    let tiles = joined.map_named("fused_eltwise", move |((bi, bj), ts)| {
        debug_assert_eq!(ts.len(), k, "join dropped an input tile");
        let bufs: Vec<&[f64]> = ts.iter().map(|t| t.data()).collect();
        let origin = (bi * n as i64, bj * n as i64);
        let data = fused_tile(&program, &bufs, (n, n), origin, (in_rows, in_cols), backend);
        let out = DenseMatrix::from_vec(n, n, data);
        if transposed {
            ((bj, bi), out.transpose())
        } else {
            ((bi, bj), out)
        }
    });
    Ok(TiledMatrix::new(rows, cols, n, tiles))
}

/// Multiply two tiles with an arbitrary element combine (the general §5.3
/// kernel); `valid_k` masks the zero-padding of the contracted dimension.
fn general_tile_contract(
    a: &DenseMatrix,
    b: &DenseMatrix,
    value: &ScalarFn,
    valid_k: usize,
    out: &mut DenseMatrix,
) {
    let n = a.rows();
    let mut slots = [0.0f64; 2];
    for i in 0..n {
        for j in 0..n {
            let mut acc = out.get(i, j);
            for k in 0..valid_k {
                slots[0] = a.get(i, k);
                slots[1] = b.get(k, j);
                acc += value.eval(&slots);
            }
            out.set(i, j, acc);
        }
    }
}

/// §5.3 (join + reduceByKey), §5.4 (group-by-join / SUMMA), and the
/// MLlib-style broadcast join.
fn exec_contraction(
    plan: &Plan,
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
    rows: i64,
    cols: i64,
) -> Result<TiledMatrix, CompError> {
    let Plan::Contraction {
        left,
        right,
        left_contract_row,
        right_contract_col,
        swap_output,
        value,
        strategy,
        decision,
    } = plan
    else {
        unreachable!()
    };
    let a0 = matrix_input(env, left)?;
    let b0 = matrix_input(env, right)?;
    if a0.tile_size() != b0.tile_size() {
        return Err(CompError::plan("contraction inputs must share a tile size"));
    }

    // Adaptive stage driver: a shuffling auto-chosen contraction's inputs
    // are this node's first materialization point. Probe them, overlay the
    // measured stats, and let the cost model re-decide strategy and
    // partition count before the remainder is lowered. A zero-shuffle
    // broadcast choice has nothing left to save, and a pinned strategy must
    // be honored — neither probes.
    let (mut strategy, mut partitions) = (*strategy, config.partitions);
    if decision.auto && strategy != MatMulStrategy::Broadcast {
        (strategy, partitions) = stage::adapt_contraction(
            env,
            ctx,
            config,
            (left, a0),
            (right, b0),
            *left_contract_row,
            *right_contract_col,
            strategy,
            decision,
        );
    }

    // Normalize to standard C = A' * B' with contraction on A'.col / B'.row.
    let a = if *left_contract_row {
        a0.transpose()
    } else {
        a0.clone()
    };
    let b = if *right_contract_col {
        b0.transpose()
    } else {
        b0.clone()
    };
    if a.cols() != b.rows() {
        return Err(CompError::plan(format!(
            "contraction inner dimensions differ: {} vs {}",
            a.cols(),
            b.rows()
        )));
    }
    let std_dims = (a.rows(), b.cols());
    let expected = if *swap_output {
        (std_dims.1, std_dims.0)
    } else {
        std_dims
    };
    if expected != (rows, cols) {
        return Err(CompError::plan(format!(
            "builder dimensions ({rows},{cols}) do not match contraction output {expected:?}"
        )));
    }

    let n = a.tile_size();
    let inner = a.cols();
    let fast_gemm = value.is_product_of(0, 1);
    let value = value.clone();
    let threads = config.tile_threads.max(1);
    let multiply = move |av: &DenseMatrix, bv: &DenseMatrix, bk: i64, out: &mut DenseMatrix| {
        if fast_gemm {
            if threads > 1 {
                out.gemm_acc_parallel(av, bv, threads);
            } else {
                out.gemm_acc(av, bv);
            }
        } else {
            let valid_k = ((inner - bk * n as i64).min(n as i64)).max(0) as usize;
            general_tile_contract(av, bv, &value, valid_k, out);
        }
    };

    let std = lower_contraction(strategy, &a, &b, n, partitions, multiply, ctx)?;
    let result = TiledMatrix::new(std_dims.0, std_dims.1, n, std);
    Ok(if *swap_output {
        result.transpose()
    } else {
        result
    })
}

/// Lower one fully-resolved contraction strategy to its dataset DAG.
/// `a`/`b` are already oriented standard (contraction on `a.col`/`b.row`);
/// the caller has resolved `strategy` and `partitions` — at plan time or at
/// the stage frontier, so a runtime strategy switch runs bit-identically to
/// the same strategy chosen up front.
fn lower_contraction(
    strategy: MatMulStrategy,
    a: &TiledMatrix,
    b: &TiledMatrix,
    n: usize,
    partitions: usize,
    multiply: impl Fn(&DenseMatrix, &DenseMatrix, i64, &mut DenseMatrix) + Send + Sync + 'static,
    ctx: &Context,
) -> Result<Dataset<(TileCoord, DenseMatrix)>, CompError> {
    let add_tiles = |acc: &mut DenseMatrix, t: DenseMatrix| acc.add_in_place(&t);
    let std = match strategy {
        MatMulStrategy::JoinGroupBy | MatMulStrategy::ReduceByKey => {
            // Join on the contracted block index, one partial product tile
            // per (i, k, j).
            let lhs = a.tiles().map(|((i, k), t)| (k, (i, t)));
            let rhs = b.tiles().map(|((k, j), t)| (k, (j, t)));
            let prods = lhs
                .join(&rhs, partitions)
                .map(move |(k, ((i, av), (j, bv)))| {
                    let mut out = DenseMatrix::zeros(n, n);
                    multiply(&av, &bv, k, &mut out);
                    ((i, j), out)
                });
            if strategy == MatMulStrategy::ReduceByKey {
                // §5.3: reduceByKey adds partials, map-side combined.
                prods.reduce_by_key_in_place(partitions, add_tiles)
            } else {
                // §4's naive translation: every partial product tile crosses
                // the shuffle inside a per-key list, no map-side combining.
                prods.group_by_key(partitions).map_values(move |tiles| {
                    let mut acc = DenseMatrix::zeros(n, n);
                    tiles.into_iter().for_each(|t| add_tiles(&mut acc, t));
                    acc
                })
            }
        }
        MatMulStrategy::GroupByJoin => {
            // §5.4: replicate rows of A across result columns and columns of
            // B across result rows, cogroup by result coordinate, reduce
            // locally — one shuffle round, no partial-product shuffle.
            let bcols_b = b.block_cols();
            let brows_a = a.block_rows();
            let lefts = a.tiles().flat_map(move |((i, k), t)| {
                (0..bcols_b)
                    .map(|j| ((i, j), (k, t.clone())))
                    .collect::<Vec<_>>()
            });
            let rights = b.tiles().flat_map(move |((k, j), t)| {
                (0..brows_a)
                    .map(|i| ((i, j), (k, t.clone())))
                    .collect::<Vec<_>>()
            });
            lefts
                .cogroup(&rights, partitions)
                .map(move |(coord, (ls, rs))| {
                    let mut out = DenseMatrix::zeros(n, n);
                    // Index the right tiles by contraction coordinate.
                    let mut by_k: HashMap<i64, &DenseMatrix> = HashMap::new();
                    for (k, t) in &rs {
                        by_k.insert(*k, t);
                    }
                    for (k, av) in &ls {
                        if let Some(bv) = by_k.get(k) {
                            multiply(av, bv, *k, &mut out);
                        }
                    }
                    (coord, out)
                })
        }
        MatMulStrategy::Broadcast => {
            // MLlib-style broadcast join: collect the smaller operand's
            // tiles on the driver, keyed by the contracted block index, ship
            // them to every task via [`Context::broadcast`], and compute
            // locally-merged partial output tiles map-side. A single
            // reduceByKey round combines partials whose contraction spans
            // several partitions of the big side — no join shuffle at all.
            let b_small = b.rows() * b.cols() <= a.rows() * a.cols();
            let (small, big) = if b_small { (b, a) } else { (a, b) };
            let mut table: HashMap<i64, Vec<(i64, DenseMatrix)>> = HashMap::new();
            for ((r, c), t) in small.tiles().collect() {
                let (k, free) = if b_small { (r, c) } else { (c, r) };
                table.entry(k).or_default().push((free, t));
            }
            let table = ctx.broadcast(table);
            big.tiles()
                .map_partitions_stream(move |_, tiles| {
                    // Input tiles are only read: consume the stream by
                    // reference so shared source partitions are never
                    // cloned into the task.
                    let mut acc: HashMap<TileCoord, DenseMatrix> = HashMap::new();
                    tiles.for_each_ref(|((r, c), big_tile)| {
                        let (k, free) = if b_small { (*c, *r) } else { (*r, *c) };
                        let Some(entries) = table.get(&k) else { return };
                        for (other, small_tile) in entries {
                            let (coord, av, bv) = if b_small {
                                ((free, *other), big_tile, small_tile)
                            } else {
                                ((*other, free), small_tile, big_tile)
                            };
                            let out = acc.entry(coord).or_insert_with(|| DenseMatrix::zeros(n, n));
                            multiply(av, bv, k, out);
                        }
                    });
                    PartitionStream::from_vec(acc.into_iter().collect())
                })
                .reduce_by_key_in_place(partitions, add_tiles)
        }
        MatMulStrategy::Auto => {
            return Err(CompError::plan(
                "Auto contraction strategy must be resolved at plan time",
            ))
        }
    };
    Ok(std)
}

/// Fig. 1: per-tile axis reduction then block-wise `reduceByKey`.
fn exec_axis_reduce(
    plan: &Plan,
    env: &PlanEnv,
    config: &PlanConfig,
    len: i64,
) -> Result<TiledVector, CompError> {
    let Plan::AxisReduce {
        input,
        by_row,
        monoid,
        value,
    } = plan
    else {
        unreachable!()
    };
    let m = matrix_input(env, input)?;
    let expected = if *by_row { m.rows() } else { m.cols() };
    if expected != len {
        return Err(CompError::plan(format!(
            "builder length {len} does not match reduced axis {expected}"
        )));
    }
    let (zero, combine) = monoid_f64(*monoid)?;
    let n = m.tile_size();
    let (rows, cols) = (m.rows(), m.cols());
    let by_row = *by_row;
    let value = value.clone();
    let partial = m.tiles().map(move |((bi, bj), t)| {
        let mut block = vec![zero; n];
        let mut slots = [0.0f64; 3];
        for ti in 0..n {
            let gi = bi * n as i64 + ti as i64;
            if gi >= rows {
                break;
            }
            for tj in 0..n {
                let gj = bj * n as i64 + tj as i64;
                if gj >= cols {
                    break;
                }
                slots[0] = t.get(ti, tj);
                slots[1] = gi as f64;
                slots[2] = gj as f64;
                let v = value.eval(&slots);
                let slot = if by_row { ti } else { tj };
                block[slot] = combine(block[slot], v);
            }
        }
        let coord = if by_row { bi } else { bj };
        (coord, block)
    });
    let blocks = partial.reduce_by_key(config.partitions, move |mut a, b| {
        for (x, y) in a.iter_mut().zip(b) {
            *x = combine(*x, y);
        }
        a
    });
    // Replace identity remnants in valid positions is unnecessary: every
    // valid index receives at least one element (matrices are dense).
    Ok(TiledVector::new(len, n, blocks))
}

fn vector_input<'a>(env: &'a PlanEnv, name: &str) -> Result<&'a TiledVector, CompError> {
    env.array(name)
        .and_then(DistArray::as_vector)
        .ok_or_else(|| CompError::plan(format!("`{name}` is not a registered tiled vector")))
}

/// One tile × block partial product, shared by the shuffle and broadcast
/// mat-vec paths; `bk` is the contracted block coordinate, used to mask the
/// zero-padded contraction tail under general (non-product) combines.
fn tile_block_product(
    tile: &DenseMatrix,
    block: &[f64],
    bk: i64,
    n: usize,
    inner: i64,
    fast: bool,
    value: &ScalarFn,
) -> Vec<f64> {
    if fast {
        tile.matvec(block)
    } else {
        let valid = ((inner - bk * n as i64).clamp(0, n as i64)) as usize;
        let mut y = vec![0.0; n];
        let mut slots = [0.0f64; 2];
        for (r, out) in y.iter_mut().enumerate() {
            for (c, &bv) in block.iter().enumerate().take(valid) {
                slots[0] = tile.get(r, c);
                slots[1] = bv;
                *out += value.eval(&slots);
            }
        }
        y
    }
}

/// Matrix–vector contraction. The shuffle path joins tiles with vector
/// blocks on the contracted block coordinate and `reduceByKey`s the partial
/// block products; the broadcast path ships the whole vector to every task
/// and merges partials on the driver — zero shuffle stages.
fn exec_mat_vec(
    plan: &Plan,
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
    len: i64,
) -> Result<TiledVector, CompError> {
    let Plan::MatVec {
        matrix,
        vector,
        contract_row,
        value,
        broadcast,
        decision,
    } = plan
    else {
        unreachable!()
    };
    let m = matrix_input(env, matrix)?;
    let v = vector_input(env, vector)?;
    if m.tile_size() != v.block_size() {
        return Err(CompError::plan(
            "matrix tile size and vector block size must match",
        ));
    }
    // Normalize to y = A'·x with the contraction on A'.col.
    let m = if *contract_row {
        m.transpose()
    } else {
        m.clone()
    };
    if m.cols() != v.len() {
        return Err(CompError::plan(format!(
            "matrix-vector inner dimensions differ: {} vs {}",
            m.cols(),
            v.len()
        )));
    }
    if m.rows() != len {
        return Err(CompError::plan(format!(
            "builder length {len} does not match output dimension {}",
            m.rows()
        )));
    }
    let n = m.tile_size();
    let inner = m.cols();
    let fast = value.is_product_of(0, 1);
    let value = value.clone();

    // Adaptive stage driver: when the cost model picked the shuffle path
    // from estimates, probe the materialized vector at this node's frontier
    // and promote to the zero-shuffle broadcast path if the observed size
    // fits the budget and wins on cost.
    let broadcast = *broadcast
        || (decision.auto
            && stage::adapt_mat_vec(
                env,
                ctx,
                config,
                matrix,
                (vector, v),
                *contract_row,
                decision,
            ));

    if broadcast {
        // Zero-shuffle path: collect the vector's blocks, broadcast them,
        // compute per-partition pre-merged partial output blocks map-side,
        // collect those partials, and finish the merge on the driver. Every
        // stage here is an action (collect) or a source — no shuffle.
        let table = ctx.broadcast(v.blocks().collect_map());
        let partials = m
            .tiles()
            .map_partitions_stream(move |_, tiles| {
                let mut acc: HashMap<i64, Vec<f64>> = HashMap::new();
                tiles.for_each_ref(|((i, k), tile)| {
                    let Some(block) = table.get(k) else { return };
                    let y = tile_block_product(tile, block, *k, n, inner, fast, &value);
                    match acc.entry(*i) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            for (x, yv) in e.get_mut().iter_mut().zip(y) {
                                *x += yv;
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(y);
                        }
                    }
                });
                PartitionStream::from_vec(acc.into_iter().collect())
            })
            .collect();
        let block_count = ((len + n as i64 - 1) / n as i64).max(0) as usize;
        let mut merged: Vec<Vec<f64>> = vec![vec![0.0; n]; block_count];
        for (i, y) in partials {
            if let Some(dst) = merged.get_mut(i as usize) {
                for (x, yv) in dst.iter_mut().zip(y) {
                    *x += yv;
                }
            }
        }
        let blocks: Vec<(i64, Vec<f64>)> = merged
            .into_iter()
            .enumerate()
            .map(|(i, y)| (i as i64, y))
            .collect();
        let blocks = ctx.parallelize(blocks, config.partitions);
        return Ok(TiledVector::new(len, n, blocks));
    }

    let lhs = m.tiles().map(|((i, k), t)| (k, (i, t)));
    let partial = lhs
        .join(v.blocks(), config.partitions)
        .map(move |(k, ((i, tile), block))| {
            (
                i,
                tile_block_product(&tile, &block, k, n, inner, fast, &value),
            )
        });
    let blocks = partial.reduce_by_key(config.partitions, |mut a, b| {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    });
    Ok(TiledVector::new(len, n, blocks))
}

/// Element-wise over co-indexed vector blocks (1-D rule 17): the same fused
/// tile pass as [`exec_fused_eltwise`], each block an `n x 1` tile.
fn exec_vector_eltwise(
    plan: &Plan,
    env: &PlanEnv,
    config: &PlanConfig,
    len: i64,
) -> Result<TiledVector, CompError> {
    let Plan::VectorEltwise {
        inputs, program, ..
    } = plan
    else {
        unreachable!()
    };
    let vecs: Vec<&TiledVector> = inputs
        .iter()
        .map(|name| vector_input(env, name))
        .collect::<Result<_, _>>()?;
    let first = vecs[0];
    let n = first.block_size();
    for v in &vecs {
        if v.len() != first.len() || v.block_size() != n {
            return Err(CompError::plan(
                "element-wise vector inputs must have identical length and blocking",
            ));
        }
    }
    if first.len() != len {
        return Err(CompError::plan(format!(
            "builder length {len} does not match input length {}",
            first.len()
        )));
    }
    let mut joined: Dataset<(i64, Vec<Vec<f64>>)> =
        first.blocks().map(|(b, block)| (b, vec![block]));
    for v in &vecs[1..] {
        joined = joined.cogroup(v.blocks(), config.partitions).flat_map(
            |(b, (mut accs, mut blocks))| match (accs.pop(), blocks.pop()) {
                (Some(mut acc), Some(block)) => {
                    acc.push(block);
                    vec![(b, acc)]
                }
                _ => vec![],
            },
        );
    }
    let program = program.clone();
    let backend = Backend::active();
    let blocks = joined.map_named("fused_eltwise", move |(b, parts)| {
        let bufs: Vec<&[f64]> = parts.iter().map(|p| p.as_slice()).collect();
        let origin = (b * n as i64, 0);
        (
            b,
            fused_tile(&program, &bufs, (n, 1), origin, (len, 1), backend),
        )
    });
    Ok(TiledVector::new(len, n, blocks))
}

/// §5.2 rule 19: replicate tiles to the output coordinates their elements
/// map to, regroup, assemble output tiles.
fn exec_index_remap(
    plan: &Plan,
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
    rows: i64,
    cols: i64,
) -> Result<TiledMatrix, CompError> {
    let Plan::IndexRemap {
        input,
        fi,
        fj,
        value,
    } = plan
    else {
        unreachable!()
    };
    let m = matrix_input(env, input)?;
    let n = m.tile_size();
    let (in_rows, in_cols) = (m.rows(), m.cols());
    let ni = n as i64;

    // Map stage: each tile is sent to every output tile one of its elements
    // lands in — the I_f(K) image set of §5.2.
    let (fi2, fj2) = (fi.clone(), fj.clone());
    let replicated = m.tiles().flat_map(move |((bi, bj), t)| {
        let mut dests: Vec<TileCoord> = Vec::new();
        for ti in 0..n {
            let gi = bi * ni + ti as i64;
            if gi >= in_rows {
                break;
            }
            for tj in 0..n {
                let gj = bj * ni + tj as i64;
                if gj >= in_cols {
                    break;
                }
                let (di, dj) = (fi2.eval(&[gi, gj]), fj2.eval(&[gi, gj]));
                if di >= 0 && di < rows && dj >= 0 && dj < cols {
                    let dest = (di.div_euclid(ni), dj.div_euclid(ni));
                    if !dests.contains(&dest) {
                        dests.push(dest);
                    }
                }
            }
        }
        dests
            .into_iter()
            .map(|d| (d, ((bi, bj), t.clone())))
            .collect::<Vec<_>>()
    });

    // Reduce stage: assemble each output tile from the shuffled inputs.
    let (fi3, fj3, value) = (fi.clone(), fj.clone(), value.clone());
    let assembled = replicated
        .group_by_key(config.partitions)
        .map(move |((di, dj), sources)| {
            let mut out = DenseMatrix::zeros(n, n);
            let mut slots = [0.0f64; 3];
            for ((bi, bj), t) in sources {
                for ti in 0..n {
                    let gi = bi * ni + ti as i64;
                    if gi >= in_rows {
                        break;
                    }
                    for tj in 0..n {
                        let gj = bj * ni + tj as i64;
                        if gj >= in_cols {
                            break;
                        }
                        let (oi, oj) = (fi3.eval(&[gi, gj]), fj3.eval(&[gi, gj]));
                        if oi.div_euclid(ni) == di
                            && oj.div_euclid(ni) == dj
                            && oi >= 0
                            && oi < rows
                            && oj >= 0
                            && oj < cols
                        {
                            slots[0] = t.get(ti, tj);
                            slots[1] = gi as f64;
                            slots[2] = gj as f64;
                            out.set(
                                oi.rem_euclid(ni) as usize,
                                oj.rem_euclid(ni) as usize,
                                value.eval(&slots),
                            );
                        }
                    }
                }
            }
            ((di, dj), out)
        });

    // Complete the grid: output tiles no input element maps to are zero.
    let tiles = union_with_zero_skeleton(assembled, ctx, rows, cols, n, config.partitions);
    Ok(TiledMatrix::new(rows, cols, n, tiles))
}

/// Union a tile set with an all-zero full grid so every coordinate exists.
fn union_with_zero_skeleton(
    tiles: Dataset<(TileCoord, DenseMatrix)>,
    ctx: &Context,
    rows: i64,
    cols: i64,
    tile_size: usize,
    partitions: usize,
) -> Dataset<(TileCoord, DenseMatrix)> {
    let brows = (rows + tile_size as i64 - 1) / tile_size as i64;
    let bcols = (cols + tile_size as i64 - 1) / tile_size as i64;
    let coords: Vec<TileCoord> = (0..brows)
        .flat_map(|i| (0..bcols).map(move |j| (i, j)))
        .collect();
    let skeleton = ctx
        .parallelize(coords, partitions)
        .map(move |c| (c, DenseMatrix::zeros(tile_size, tile_size)));
    tiles
        .union(&skeleton)
        .reduce_by_key_in_place(partitions, |acc, t| acc.add_in_place(&t))
}

struct AggSpec {
    zeros: Vec<f64>,
    combines: Vec<fn(f64, f64) -> f64>,
    inputs: Vec<Expr>,
}

fn agg_spec(plan_aggs: &[crate::analysis::Aggregate]) -> Result<AggSpec, CompError> {
    let mut zeros = Vec::new();
    let mut combines = Vec::new();
    let mut inputs = Vec::new();
    for a in plan_aggs {
        let (z, c) = monoid_f64(a.monoid)?;
        zeros.push(z);
        combines.push(c);
        inputs.push(a.input.clone());
    }
    // Hidden hit-count plane.
    zeros.push(0.0);
    combines.push(|a, b| a + b);
    Ok(AggSpec {
        zeros,
        combines,
        inputs,
    })
}

/// Build the per-element mini-comprehension `[ (key, (in_0, ..)) | quals ]`.
fn mini_comprehension(
    inner_quals: &[Qualifier],
    key: &GroupKey,
    key_expr: &Option<Expr>,
    inputs: &[Expr],
) -> Comprehension {
    let key_value = match key_expr {
        Some(e) => e.clone(),
        None => match key {
            GroupKey::Cell(k1, k2) => {
                Expr::Tuple(vec![Expr::Var(k1.clone()), Expr::Var(k2.clone())])
            }
            GroupKey::Index(k) => Expr::Var(k.clone()),
        },
    };
    // When the key is an expression, the key pattern still needs binding for
    // any post-key uses; the fast plans have none, so only the value matters.
    let mut quals = inner_quals.to_vec();
    if key_expr.is_some() {
        let pat = match key {
            GroupKey::Cell(k1, k2) => {
                Pattern::Tuple(vec![Pattern::Var(k1.clone()), Pattern::Var(k2.clone())])
            }
            GroupKey::Index(k) => Pattern::Var(k.clone()),
        };
        quals.push(Qualifier::Let(pat, key_value.clone()));
    }
    Comprehension {
        head: Box::new(Expr::Tuple(vec![key_value, Expr::Tuple(inputs.to_vec())])),
        qualifiers: quals,
    }
}

/// Bind the planner scalars into a `comp` environment.
fn scalar_env(env: &PlanEnv, names: &[String]) -> comp::Env {
    let mut cenv = comp::Env::new();
    for n in names {
        if let Some(v) = env.scalar(n) {
            cenv.bind(n.clone(), v.clone());
        }
    }
    cenv
}

/// §5.3 generic plan. Each input element runs the mini comprehension; every
/// `(key, inputs)` row it yields is folded into the accumulator planes of
/// the destination `locate(key)` names — a coordinate plus the offset inside
/// that destination's planes, the only thing matrix- and vector-shaped keys
/// differ in. Planes are flat `plane_len` buffers, one per aggregate plus a
/// trailing hit count; they are reduced by key, then every hit cell is
/// finalized (untouched cells stay 0: dense builder semantics).
fn exec_group_aggregate<K>(
    plan: &Plan,
    env: &PlanEnv,
    config: &PlanConfig,
    plane_len: usize,
    locate: impl Fn(&Value) -> Option<(K, usize)> + Send + Sync + 'static,
) -> Result<Dataset<(K, Vec<f64>)>, CompError>
where
    K: Data + Hash + Eq + SpillCodec,
{
    let Plan::GroupByAggregate {
        input,
        gen_vars,
        inner_quals,
        key,
        key_expr,
        aggregates,
        finalizer,
    } = plan
    else {
        unreachable!()
    };
    let m = matrix_input(env, input)?;
    let n = m.tile_size();
    let ni = n as i64;
    let AggSpec {
        zeros,
        combines,
        inputs,
    } = agg_spec(aggregates)?;
    let mini = mini_comprehension(inner_quals, key, key_expr, &inputs);

    // Scalars referenced anywhere in the mini comprehension.
    let free: Vec<String> = Expr::Comprehension(mini.clone())
        .free_vars()
        .into_iter()
        .collect();
    let base_env = scalar_env(env, &free);
    let (rv, cv, vv) = gen_vars.clone();
    let (in_rows, in_cols) = (m.rows(), m.cols());
    let fold_combines = combines.clone();

    let partial = m.tiles().flat_map(move |((bi, bj), t)| {
        let mut acc: HashMap<K, Vec<Vec<f64>>> = HashMap::new();
        let mut cenv = base_env.clone();
        for ti in 0..n {
            let gi = bi * ni + ti as i64;
            if gi >= in_rows {
                break;
            }
            for tj in 0..n {
                let gj = bj * ni + tj as i64;
                if gj >= in_cols {
                    break;
                }
                let scope = cenv.mark();
                cenv.bind(rv.clone(), Value::Int(gi));
                cenv.bind(cv.clone(), Value::Int(gj));
                cenv.bind(vv.clone(), Value::Float(t.get(ti, tj)));
                let rows_out = eval_comprehension(&mini, &mut cenv)
                    .expect("group-by aggregate inner evaluation failed");
                cenv.reset(scope);
                for row in rows_out {
                    let Value::Tuple(kv) = row else { continue };
                    let (Some((dest, off)), Value::Tuple(ins)) = (locate(&kv[0]), &kv[1]) else {
                        continue;
                    };
                    let planes = acc
                        .entry(dest)
                        .or_insert_with(|| zeros.iter().map(|&z| vec![z; plane_len]).collect());
                    let (hits, aggs) = planes.split_last_mut().expect("hit-count plane");
                    for ((plane, inv), combine) in aggs.iter_mut().zip(ins).zip(&combines) {
                        plane[off] = combine(plane[off], inv.as_f64().unwrap_or(0.0));
                    }
                    hits[off] += 1.0;
                }
            }
        }
        acc.into_iter().collect::<Vec<_>>()
    });

    let reduced = partial.reduce_by_key(config.partitions, move |mut a, b| {
        for ((pa, pb), combine) in a.iter_mut().zip(b).zip(&fold_combines) {
            for (x, y) in pa.iter_mut().zip(pb) {
                *x = combine(*x, y);
            }
        }
        a
    });

    let agg_slots: Vec<String> = (0..aggregates.len()).map(|i| format!("%agg{i}")).collect();
    let fin = ScalarFn::compile(finalizer, &agg_slots, &|v| env.float_scalar(v))?;
    Ok(reduced.map_values(move |planes| {
        let (hits, aggs) = planes.split_last().expect("hit-count plane");
        let mut slots = vec![0.0; aggs.len()];
        let mut out = vec![0.0; plane_len];
        for e in (0..plane_len).filter(|&e| hits[e] != 0.0) {
            for (slot, plane) in slots.iter_mut().zip(aggs) {
                *slot = plane[e];
            }
            out[e] = fin.eval(&slots);
        }
        out
    }))
}

/// §5.3 generic plan, matrix-shaped keys: destinations are output tiles.
fn exec_group_aggregate_matrix(
    plan: &Plan,
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
    rows: i64,
    cols: i64,
) -> Result<TiledMatrix, CompError> {
    let Plan::GroupByAggregate { input, .. } = plan else {
        unreachable!()
    };
    let n = matrix_input(env, input)?.tile_size();
    let ni = n as i64;
    let tiles = exec_group_aggregate(plan, env, config, n * n, move |key| {
        let Value::Tuple(kij) = key else { return None };
        let (k1, k2) = (kij[0].as_i64().ok()?, kij[1].as_i64().ok()?);
        ((0..rows).contains(&k1) && (0..cols).contains(&k2))
            .then(|| ((k1 / ni, k2 / ni), (k1 % ni * ni + k2 % ni) as usize))
    })?
    .map_values(move |data| DenseMatrix::from_vec(n, n, data));
    let tiles = union_with_zero_skeleton(tiles, ctx, rows, cols, n, config.partitions);
    Ok(TiledMatrix::new(rows, cols, n, tiles))
}

/// §5.3 generic plan, vector-shaped keys: destinations are output blocks.
fn exec_group_aggregate_vector(
    plan: &Plan,
    env: &PlanEnv,
    config: &PlanConfig,
    len: i64,
) -> Result<TiledVector, CompError> {
    let Plan::GroupByAggregate { input, .. } = plan else {
        unreachable!()
    };
    let n = matrix_input(env, input)?.tile_size();
    let ni = n as i64;
    let blocks = exec_group_aggregate(plan, env, config, n, move |key| {
        let k = key.as_i64().ok()?;
        (0..len).contains(&k).then(|| (k / ni, (k % ni) as usize))
    })?;
    Ok(TiledVector::new(len, n, blocks))
}

/// Fallback: sparsify every registered array, run the reference interpreter,
/// rebuild the output storage.
fn exec_local(
    expr: &Expr,
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
    output: &OutputKind,
) -> Result<ExecResult, CompError> {
    let mut cenv = comp::Env::new();
    for name in expr.free_vars() {
        if let Some(v) = env.scalar(&name) {
            cenv.bind(name.clone(), v.clone());
            continue;
        }
        match env.array(&name) {
            Some(DistArray::Matrix(m)) => {
                cenv.bind(name.clone(), triplets_to_value(&m.to_local().to_triplets()));
            }
            Some(DistArray::Vector(v)) => {
                let vals = v.to_local();
                cenv.bind(
                    name.clone(),
                    Value::List(
                        vals.iter()
                            .enumerate()
                            .map(|(i, &x)| Value::pair(Value::Int(i as i64), Value::Float(x)))
                            .collect(),
                    ),
                );
            }
            Some(DistArray::Coo(m)) => {
                cenv.bind(name.clone(), triplets_to_value(&m.entries().collect()));
            }
            None => {}
        }
    }
    let result = comp::eval(expr, &mut cenv)?;
    match output {
        OutputKind::Local => Ok(ExecResult::Local(result)),
        OutputKind::Matrix { rows, cols } => {
            let triplets = value_to_triplets(&result)?;
            let local = LocalMatrix::from_triplets(*rows as usize, *cols as usize, &triplets);
            let tile = default_tile_size(expr, env);
            Ok(ExecResult::Matrix(TiledMatrix::from_local(
                ctx,
                &local,
                tile,
                config.partitions,
            )))
        }
        OutputKind::Vector { len } => {
            let list = result.into_list()?;
            let mut vals = vec![0.0; *len as usize];
            for item in list {
                let Value::Tuple(kv) = item else {
                    return Err(CompError::plan("vector result must be (i, v) pairs"));
                };
                let i = kv[0].as_i64()?;
                if i >= 0 && i < *len {
                    vals[i as usize] = kv[1].as_f64()?;
                }
            }
            let tile = default_tile_size(expr, env);
            Ok(ExecResult::Vector(TiledVector::from_local(
                ctx,
                &vals,
                tile,
                config.partitions,
            )))
        }
    }
}

/// Tile size of a fallback result: that of the first matrix the expression
/// itself reads (free variables in sorted-name order), 64 when it reads none.
fn default_tile_size(expr: &Expr, env: &PlanEnv) -> usize {
    expr.free_vars()
        .iter()
        .find_map(|name| env.array(name)?.as_matrix())
        .map_or(64, TiledMatrix::tile_size)
}

fn triplets_to_value(triplets: &[((i64, i64), f64)]) -> Value {
    Value::List(
        triplets
            .iter()
            .map(|&((i, j), v)| {
                Value::pair(Value::pair(Value::Int(i), Value::Int(j)), Value::Float(v))
            })
            .collect(),
    )
}

#[allow(clippy::type_complexity)]
fn value_to_triplets(v: &Value) -> Result<Vec<((i64, i64), f64)>, CompError> {
    let Value::List(items) = v else {
        return Err(CompError::plan("matrix result must be an association list"));
    };
    items
        .iter()
        .map(|item| {
            let Value::Tuple(kv) = item else {
                return Err(CompError::plan("matrix entries must be ((i,j), v)"));
            };
            let Value::Tuple(ij) = &kv[0] else {
                return Err(CompError::plan("matrix entries must be ((i,j), v)"));
            };
            Ok(((ij[0].as_i64()?, ij[1].as_i64()?), kv[1].as_f64()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sparkline::ChaosPlan;

    /// Recovery stages launched from inside a plan's shuffles inherit the
    /// plan-node tag [`execute`] scopes around the dispatch: when an executor
    /// dies between map and reduce, the `shuffle.resubmit` stage is
    /// attributed to the plan node that lost its outputs, and the recovered
    /// result is bit-identical to the fault-free run.
    #[test]
    fn resubmitted_stages_inherit_the_plan_node_tag() {
        let src = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, \
                    kk == k, let v = a*b, group by (i,j) ]";
        let config = PlanConfig {
            partitions: 4,
            // Pin a shuffling strategy: the chaos kill targets a specific
            // shuffle barrier index, and the adaptive planner would pick the
            // zero-shuffle broadcast path for these tiny inputs.
            matmul: MatMulStrategy::GroupByJoin,
            ..Default::default()
        };
        let run = |chaos: Option<ChaosPlan>| {
            let mut builder = Context::builder()
                .workers(4)
                .executors(4)
                .max_task_attempts(8)
                .max_stage_attempts(12);
            builder = match chaos {
                Some(p) => builder.chaos(p),
                None => builder.chaos_off(),
            };
            let ctx = builder.build();
            let mut rng = StdRng::seed_from_u64(21);
            let a = LocalMatrix::random(8, 8, -1.0, 1.0, &mut rng);
            let b = LocalMatrix::random(8, 8, -1.0, 1.0, &mut rng);
            let mut env = PlanEnv::new();
            env.set_array(
                "A",
                DistArray::Matrix(TiledMatrix::from_local(&ctx, &a, 4, 4)),
            );
            env.set_array(
                "B",
                DistArray::Matrix(TiledMatrix::from_local(&ctx, &b, 4, 4)),
            );
            env.set_int("n", 8);
            // Registration's shuffle count is deterministic: it is the
            // barrier index of the query's own first map→reduce barrier.
            let barriers = ctx.metrics().snapshot().shuffle_count;
            ctx.trace();
            let got = crate::run_text(src, &env, &ctx, &config)
                .unwrap()
                .into_matrix()
                .unwrap()
                .to_local();
            (got, ctx.take_profile(), barriers)
        };

        let (want, clean, barriers) = run(None);
        assert_eq!(clean.recovery.stages_resubmitted, 0);

        let plan = ChaosPlan::new().with_kill_owner_at_barrier(barriers, 1);
        let (got, profile, _) = run(Some(plan));
        assert_eq!(got, want, "recovered plan result must be bit-identical");
        assert!(
            profile.recovery.stages_resubmitted >= 1,
            "the barrier kill must force a resubmission:\n{}",
            profile.render()
        );
        let resubmit = profile
            .stages
            .iter()
            .find(|st| st.label.starts_with("shuffle.resubmit"))
            .expect("a shuffle.resubmit stage must appear in the trace");
        assert!(
            resubmit
                .tag
                .as_deref()
                .is_some_and(|t| t.starts_with("contraction")),
            "recovery stage must carry the plan-node tag, got {:?}",
            resubmit.tag
        );
        // est-vs-actual pairing under faults: the resubmitted attempt's
        // bytes carry the same plan-node tag but must NOT inflate the
        // actual-of-tag figure — it reports first-successful-attempt bytes,
        // so the killed run pairs the estimate with exactly what the clean
        // run measured.
        let tag = "contraction/groupByJoin";
        let clean_bytes = clean.actual_shuffle_bytes_of_tag(tag);
        assert!(clean_bytes > 0, "{}", clean.render());
        assert_eq!(
            profile.actual_shuffle_bytes_of_tag(tag),
            clean_bytes,
            "resubmitted attempts must not be summed into actual bytes:\n{}",
            profile.render()
        );
    }
}
