//! Plan execution on the `sparkline` runtime.

use crate::env::{DistArray, PlanEnv};
use crate::plan::{GroupByAggregate, GroupKey, Node, OutputKind, Plan, PlanConfig, Planned};
use crate::scalar::{self, IdxFn};
use comp::ast::{Expr, Monoid, Pattern, Qualifier};
use comp::errors::CompError;
use comp::eval::eval_comprehension;
use comp::{Comprehension, Value};
use sparkline::shuffle::Aggregator;
use sparkline::{
    fail_deterministic, Context, Data, Dataset, Event, GridCells, JobError, KeyPartitioner,
    PartitionStream, SpillCodec,
};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;
use tiled::fused::{ElemwiseOp, FusedProgram};
use tiled::kernel::{fused_eltwise, fused_eltwise_into, Backend, PackedLeft, PackedRight};
use tiled::{DenseMatrix, LocalMatrix, TileCoord, TiledMatrix, TiledVector};

/// The result of executing a plan.
#[derive(Clone)]
pub enum ExecResult {
    Matrix(TiledMatrix),
    Vector(TiledVector),
    Local(Value),
}

impl ExecResult {
    /// Materialize every lazy stage of the result now, or return the error
    /// of the job that failed. Used by `explain_analyze`-style callers that
    /// want all stages to run inside a trace window (tiled results are
    /// otherwise computed on first use).
    pub fn force(&self) -> Result<&ExecResult, CompError> {
        match self {
            ExecResult::Matrix(m) => m.tiles().try_count(),
            ExecResult::Vector(v) => v.blocks().try_count(),
            ExecResult::Local(_) => Ok(0),
        }
        .map_err(job_failed)?;
        Ok(self)
    }

    /// The result persisted through the block manager; a local value, or a
    /// result that is already the direct output of a persist, unchanged.
    pub(crate) fn persisted(self) -> ExecResult {
        match self {
            ExecResult::Matrix(m) => ExecResult::Matrix(m.persist()),
            ExecResult::Vector(v) => ExecResult::Vector(v.persist()),
            local => local,
        }
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

/// A job a lowering or a result ran that failed, as the planner's error.
pub(crate) fn job_failed(e: JobError) -> CompError {
    CompError::job(e.to_string())
}

/// The f64 embedding of a monoid: identity and combine. `+`'s identity is
/// `-0.0`, IEEE-754's: `-0.0 + x` is `x` for every `x`, so a fold from it has
/// the bits of a fold from the first element (the reference interpreter's).
#[allow(clippy::type_complexity)]
pub fn monoid_f64(m: Monoid) -> Result<(f64, fn(f64, f64) -> f64), CompError> {
    Ok(match m {
        Monoid::Sum => (-0.0, |a, b| a + b),
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

/// Execute a planned comprehension: the lowering of the plan-table row that
/// chose it, under a plan-node tag equal to [`Plan::strategy_name`]. A
/// group-by-join's result is persisted under the storage budget for as long
/// as it lives: its products run behind no shuffle, so a consumer that
/// evaluates it twice (two contractions over one `E`) would otherwise
/// multiply twice; under memory pressure a second consumer re-multiplies
/// instead.
pub fn execute(
    planned: &Planned,
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
) -> Result<ExecResult, CompError> {
    let result = lower(planned, env, ctx, config, planned.plan.strategy_name())?;
    Ok(if planned.plan.is_group_by_join() {
        result.persisted()
    } else {
        result
    })
}

/// The lowering of `planned`, stored by no one, under plan-node tag `tag`:
/// every shuffle and band crossing the plan constructs is attributed to it
/// in the event trace (the DAG is built here even though stages materialize
/// later — those nodes capture the tag eagerly).
pub(crate) fn lower(
    planned: &Planned,
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
    tag: &str,
) -> Result<ExecResult, CompError> {
    // Resolve partition autotuning, then put the planner's cost-based
    // decision on the event bus as `plan.chosen`.
    let tuned = PlanConfig {
        partitions: resolved_partitions(planned, ctx, config),
        ..config.clone()
    };
    let plan = &planned.plan;
    if let Some(decision) = plan.decision() {
        ctx.emit_event(|at_micros| Event::PlanChosen {
            chosen: decision.chosen.to_string(),
            auto: decision.auto,
            partitions: tuned.partitions as u64,
            est_shuffle_bytes: decision.est_shuffle_bytes,
            candidates: decision
                .candidates
                .iter()
                .map(|&(tag, cost)| (tag.to_string(), cost))
                .collect(),
            reason: decision.reason.clone(),
            at_micros,
        });
    }
    ctx.scoped_tag(tag, || {
        let overlay = persist_shared_inputs(plan, env);
        let lowering = Lowering {
            env: overlay.as_ref().unwrap_or(env),
            ctx,
            config: &tuned,
            output: &planned.output,
        };
        (plan.row.lower)(plan, &lowering)
    })
}

/// What a row's lowering reads besides its plan.
pub(crate) struct Lowering<'a> {
    env: &'a PlanEnv,
    ctx: &'a Context,
    /// The planner configuration, its partition count resolved.
    config: &'a PlanConfig,
    output: &'a OutputKind,
}

impl Lowering<'_> {
    /// A plan this row's lowering cannot produce the output of.
    fn mismatch(&self, plan: &Plan) -> CompError {
        CompError::plan(format!(
            "plan {} cannot produce output {:?}",
            plan.strategy_name(),
            self.output
        ))
    }
}

/// Target bytes per shuffle partition when autotuning.
const PARTITION_TARGET_BYTES: u64 = 1 << 20;

/// The partition count `planned` lowers to: the configured one, or — when
/// `config.partitions == 0` — [`autotune_partitions`] over this context's
/// worker pool and the plan's estimated output size.
pub(crate) fn resolved_partitions(planned: &Planned, ctx: &Context, config: &PlanConfig) -> usize {
    match config.partitions {
        0 => autotune_partitions(&planned.output, ctx),
        pinned => pinned,
    }
}

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

/// `dims`, swapped when `swap`.
fn swapped<T>(dims: (T, T), swap: bool) -> (T, T) {
    if swap {
        (dims.1, dims.0)
    } else {
        dims
    }
}

fn matrix_input<'a>(env: &'a PlanEnv, name: &str) -> Result<&'a TiledMatrix, CompError> {
    env.array(name)
        .and_then(DistArray::as_matrix)
        .ok_or_else(|| CompError::plan(format!("`{name}` is not a registered tiled matrix")))
}

fn vector_input<'a>(env: &'a PlanEnv, name: &str) -> Result<&'a TiledVector, CompError> {
    env.array(name)
        .and_then(DistArray::as_vector)
        .ok_or_else(|| CompError::plan(format!("`{name}` is not a registered tiled vector")))
}

/// Visit every valid (non-padding) element of tile `(bi, bj)` of an array of
/// logical extent `(rows, cols)` in row-major order, as its in-tile and its
/// global coordinates: `f(ti, tj, gi, gj)`.
fn for_each_valid(
    n: usize,
    (bi, bj): TileCoord,
    (rows, cols): (i64, i64),
    mut f: impl FnMut(usize, usize, i64, i64),
) {
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
            f(ti, tj, gi, gj);
        }
    }
}

/// How many rows and columns of an `n`-wide tile whose first element is at
/// global `origin` lie inside an array of logical `extent`; the rest is
/// padding.
fn valid_extent(origin: (i64, i64), extent: (i64, i64), n: usize) -> (usize, usize) {
    let valid = |from: i64, to: i64| (to - from).clamp(0, n as i64) as usize;
    (valid(origin.0, extent.0), valid(origin.1, extent.1))
}

/// Cogroup-join co-indexed block sets on their keys with `partitioner`:
/// inputs already partitioned by it (mllib-style grid registration) cogroup
/// narrowly, so e.g. matrix addition runs with zero shuffle stages. Keys are
/// unique per input, so each cogroup side holds at most one block — popping
/// it moves the buffer instead of cloning a join pair. All per-key steps
/// preserve partitioning, keeping later cogroups in the chain narrow too.
fn join_coindexed<K, T>(
    inputs: &[&Dataset<(K, T)>],
    partitioner: KeyPartitioner<K>,
) -> Dataset<(K, Vec<T>)>
where
    K: Data + Hash + Eq + SpillCodec,
    T: Data + SpillCodec,
{
    let mut joined: Dataset<(K, Vec<T>)> = inputs[0].map_values(|t| vec![t]);
    for input in &inputs[1..] {
        joined = joined
            .cogroup_with(input, partitioner.clone())
            // Inner-join semantics: unmatched coordinates drop.
            .filter(|(_, (accs, ts))| !accs.is_empty() && !ts.is_empty())
            .map_values(|(mut accs, mut ts)| {
                let mut acc = accs.pop().expect("filtered non-empty");
                acc.push(ts.pop().expect("filtered non-empty"));
                acc
            });
    }
    joined
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
        planes = (
            DenseMatrix::from_fn(tile_rows, tile_cols, |ti, _| (origin.0 + ti as i64) as f64),
            DenseMatrix::from_fn(tile_rows, tile_cols, |_, tj| (origin.1 + tj as i64) as f64),
        );
        bufs.push(planes.0.data());
        bufs.push(planes.1.data());
    }
    let mut data = fused_eltwise(program, &bufs, len, backend);
    let valid_rows = valid_extent(origin, extent, tile_rows).0;
    let valid_cols = valid_extent(origin, extent, tile_cols).1;
    data[valid_rows * tile_cols..].fill(0.0);
    if valid_cols < tile_cols {
        for row in data[..valid_rows * tile_cols].chunks_mut(tile_cols) {
            row[valid_cols..].fill(0.0);
        }
    }
    data
}

/// §5.1 / rule 17: join the co-indexed block sets and run the whole region
/// as one `tiled::kernel::fused_eltwise` pass per block — an `n x n` matrix
/// tile (joined on the grid partitioner of the output shape) or an `n x 1`
/// vector block. The block map carries the `fused_eltwise` operator label so
/// traces attribute the region to exactly one operator, and the region is
/// announced as one `region_fused` event.
pub(crate) fn eltwise(plan: &Plan, x: &Lowering) -> Result<ExecResult, CompError> {
    let Node::FusedEltwise(node) = &plan.node else {
        return Err(x.mismatch(plan));
    };
    x.ctx.emit_event(|at_micros| Event::RegionFused {
        ops: node.program.len() as u64,
        inputs: node.inputs.len() as u64,
        signature: node.program.signature(),
        source: node.region_ops.join(";"),
        at_micros,
    });
    let (env, config, transposed, inputs) = (x.env, x.config, node.transposed, &node.inputs);
    let (program, backend, k) = (node.program.clone(), Backend::active(), inputs.len());
    match *x.output {
        OutputKind::Matrix { rows, cols } => {
            let mats: Vec<&TiledMatrix> = inputs
                .iter()
                .map(|name| matrix_input(env, name))
                .collect::<Result<_, _>>()?;
            let first = mats[0];
            if mats.iter().any(|m| !m.same_shape(first)) {
                return Err(CompError::plan(
                    "element-wise inputs must have identical dimensions and tiling",
                ));
            }
            let n = first.tile_size();
            let extent = (first.rows(), first.cols());
            let expected = swapped(extent, transposed);
            if expected != (rows, cols) {
                return Err(CompError::plan(format!(
                    "builder dimensions ({rows},{cols}) do not match input dimensions {expected:?}"
                )));
            }
            let sets: Vec<_> = mats.iter().map(|m| m.tiles()).collect();
            let joined = join_coindexed(&sets, first.grid_partitioner(config.partitions));
            let region = Arc::new(move |((bi, bj), ts): (TileCoord, Vec<DenseMatrix>)| {
                debug_assert_eq!(ts.len(), k, "join dropped an input tile");
                let bufs: Vec<&[f64]> = ts.iter().map(|t| t.data()).collect();
                let origin = (bi * n as i64, bj * n as i64);
                let data = fused_tile(&program, &bufs, (n, n), origin, extent, backend);
                ((bi, bj), DenseMatrix::from_vec(n, n, data))
            });
            let tiles = if transposed {
                joined.map_named("fused_eltwise", move |tile| {
                    let ((bi, bj), out) = region(tile);
                    ((bj, bi), out.transpose())
                })
            } else {
                // Keys kept: every tile stays in the partition the join put
                // it in, so the result keeps the join's grid partitioner and
                // a co-indexed consumer joins it without a shuffle.
                joined.map_partitions_preserving("fused_eltwise", move |_, tiles| {
                    let region = region.clone();
                    tiles.map(move |tile| region(tile))
                })
            };
            Ok(ExecResult::Matrix(TiledMatrix::new(rows, cols, n, tiles)))
        }
        OutputKind::Vector { len } => {
            let vecs: Vec<&TiledVector> = inputs
                .iter()
                .map(|name| vector_input(env, name))
                .collect::<Result<_, _>>()?;
            let n = vecs[0].block_size();
            if vecs.iter().any(|v| v.len() != len || v.block_size() != n) {
                return Err(CompError::plan(format!(
                    "element-wise vector inputs must have the builder's length {len} and one blocking"
                )));
            }
            let sets: Vec<_> = vecs.iter().map(|v| v.blocks()).collect();
            let blocks = join_coindexed(&sets, KeyPartitioner::hash(config.partitions)).map_named(
                "fused_eltwise",
                move |(b, parts)| {
                    debug_assert_eq!(parts.len(), k, "join dropped an input block");
                    let bufs: Vec<&[f64]> = parts.iter().map(|p| p.as_slice()).collect();
                    let origin = (b * n as i64, 0);
                    let data = fused_tile(&program, &bufs, (n, 1), origin, (len, 1), backend);
                    (b, data)
                },
            );
            Ok(ExecResult::Vector(TiledVector::new(len, n, blocks)))
        }
        OutputKind::Local => Err(x.mismatch(plan)),
    }
}

/// What the right operand and the output of a contraction are made of:
/// `n x n` tiles keyed `(block row, block col)`, or — the `free-right = 1`
/// case — length-`n` vector blocks keyed `(block, ())`. `()` encodes to zero
/// bytes and hashes to nothing, so a `(k, ())` key shuffles exactly like the
/// bare block index `k`.
pub(crate) trait Block: Data + SpillCodec {
    /// Block-column coordinate.
    type Col: Data + SpillCodec + Hash + Eq + Copy;
    /// The coordinate of block column `index`, and back.
    fn col_at(index: i64) -> Self::Col;
    fn col_index(col: Self::Col) -> i64;
    fn zeros(n: usize) -> Self;
    /// The dataflow of `d` over this kind of block.
    fn dataflow(d: &Dataflow) -> fn(&Contract<Self>) -> Lowered<Self>;
    /// A left operand tile made ready for every product it joins, and a
    /// right operand block made ready likewise: packed for the tile kernel
    /// where the product runs on it, the block itself otherwise.
    type Left<'a>;
    type Right<'a>
    where
        Self: 'a;
    /// Prepare a left operand, and a right one, for the products `general`
    /// combines. Each operand comes with its orientation: `true` means the
    /// payload holds the transpose of the block its role reads, and is read
    /// transposed where it lies — the same values in the same order, so the
    /// same bits as a transposed copy.
    fn left<'a>(a: (&'a DenseMatrix, bool), general: Option<&FusedProgram>) -> Self::Left<'a>;
    fn right<'a>(b: (&'a Self, bool), general: Option<&FusedProgram>) -> Self::Right<'a>;
    /// `self += a ⊗ b` in ascending contracted order, where `⊗` is the plain
    /// product on the tile kernels (`general` is `None`) or the combine
    /// `general` computes, one fused pass per row of terms; `a` and `b` were
    /// prepared for the same `general`. `valid` is `(rows, contracted,
    /// cols)` of the block product that lie inside the logical extents: a
    /// general combine counts no padding of the contracted dimension and
    /// writes no output padding, which stays `+0.0` (`f(0, 0)` need not be
    /// 0).
    fn acc(
        &mut self,
        a: &Self::Left<'_>,
        b: &Self::Right<'_>,
        general: Option<&FusedProgram>,
        valid: (usize, usize, usize),
    );
    fn add_in_place(&mut self, other: &Self);
}

/// A block set keyed `(block row, block col)`.
pub(crate) type Blocks<B> = Dataset<((i64, <B as Block>::Col), B)>;

/// A dataflow's output blocks, or the error of a job it ran to build them.
pub(crate) type Lowered<B> = Result<Blocks<B>, JobError>;

/// A tile operand prepared for many products ([`Block::left`]): packed for
/// the tile kernel under the plain product, the tile itself — with its
/// orientation — under a general combine.
pub(crate) enum Prepared<'a, P> {
    Packed(P),
    Plain(&'a DenseMatrix, bool),
}

impl Block for DenseMatrix {
    type Col = i64;

    fn col_at(index: i64) -> i64 {
        index
    }

    fn col_index(col: i64) -> i64 {
        col
    }

    fn zeros(n: usize) -> Self {
        DenseMatrix::zeros(n, n)
    }

    fn dataflow(d: &Dataflow) -> fn(&Contract<Self>) -> Lowered<Self> {
        d.tiles
    }

    type Left<'a> = Prepared<'a, PackedLeft>;
    type Right<'a> = Prepared<'a, PackedRight>;

    fn left<'a>(
        (a, a_t): (&'a DenseMatrix, bool),
        general: Option<&FusedProgram>,
    ) -> Self::Left<'a> {
        match general {
            None => Prepared::Packed(a.pack_left(a_t)),
            Some(_) => Prepared::Plain(a, a_t),
        }
    }

    fn right<'a>((b, b_t): (&'a Self, bool), general: Option<&FusedProgram>) -> Self::Right<'a> {
        match general {
            None => Prepared::Packed(b.pack_right(b_t)),
            Some(_) => Prepared::Plain(b, b_t),
        }
    }

    /// The plain product multiplies the packs. A general combine runs one
    /// pass per (output row `i`, contracted index `k`) over `a[i][k]`
    /// splatted and row `k` of `b`, adding the terms into row `i` in
    /// ascending `k`. A transposed `b` has its row `k` gathered from column
    /// `k` first.
    fn acc(
        &mut self,
        a: &Prepared<'_, PackedLeft>,
        b: &Prepared<'_, PackedRight>,
        general: Option<&FusedProgram>,
        valid: (usize, usize, usize),
    ) {
        let (a, a_t, b, b_t, value) = match (a, b, general) {
            (Prepared::Packed(a), Prepared::Packed(b), None) => return self.gemm_acc_packed(a, b),
            (&Prepared::Plain(a, a_t), &Prepared::Plain(b, b_t), Some(value)) => {
                (a, a_t, b, b_t, value)
            }
            _ => unreachable!("both operands are prepared for the combine that multiplies them"),
        };
        let (rows, valid_k, cols) = valid;
        let (width, backend) = (self.cols(), Backend::active());
        let a_at = |i, k| if a_t { a.get(k, i) } else { a.get(i, k) };
        let (mut left, mut right, mut terms) = (vec![0.0; cols], vec![0.0; cols], vec![0.0; cols]);
        let out = self.data_mut();
        for i in 0..rows {
            let out_row = &mut out[i * width..][..cols];
            for k in 0..valid_k {
                left.fill(a_at(i, k));
                if b_t {
                    right
                        .iter_mut()
                        .enumerate()
                        .for_each(|(j, x)| *x = b.get(j, k));
                } else {
                    right.copy_from_slice(&b.row(k)[..cols]);
                }
                fused_eltwise_into(value, &[&left, &right], &mut terms, backend);
                for (acc, term) in out_row.iter_mut().zip(&terms) {
                    *acc += term;
                }
            }
        }
    }

    fn add_in_place(&mut self, other: &Self) {
        DenseMatrix::add_in_place(self, other)
    }
}

impl Block for Vec<f64> {
    type Col = ();

    fn col_at(_: i64) {}

    fn col_index((): ()) -> i64 {
        0
    }

    fn zeros(n: usize) -> Self {
        vec![0.0; n]
    }

    fn dataflow(d: &Dataflow) -> fn(&Contract<Self>) -> Lowered<Self> {
        d.blocks
    }

    /// A mat-vec packs nothing: both operands are the blocks themselves.
    type Left<'a> = (&'a DenseMatrix, bool);
    type Right<'a> = &'a Vec<f64>;

    fn left<'a>(a: (&'a DenseMatrix, bool), _: Option<&FusedProgram>) -> Self::Left<'a> {
        a
    }

    fn right<'a>((x, _): (&'a Self, bool), _: Option<&FusedProgram>) -> &'a Self {
        x
    }

    /// A block product is summed on its own and then added, so it is the
    /// same number whether it seeds an accumulator or joins one; a
    /// transposed `a` runs [`DenseMatrix::matvec_t`], `dot`'s lane order
    /// over its columns in place. A general combine runs one pass per row
    /// of `a` (a column, gathered, of a transposed one) against `x`, summed
    /// in ascending contracted index from `+0.0`.
    fn acc(
        &mut self,
        &(a, a_t): &(&DenseMatrix, bool),
        x: &&Self,
        general: Option<&FusedProgram>,
        valid: (usize, usize, usize),
    ) {
        let Some(value) = general else {
            let product = if a_t { a.matvec_t(x) } else { a.matvec(x) };
            return self.add_in_place(&product);
        };
        let (rows, valid_k, _) = valid;
        let (mut terms, mut line, backend) =
            (vec![0.0; valid_k], vec![0.0; valid_k], Backend::active());
        for (r, y) in self.iter_mut().enumerate().take(rows) {
            if a_t {
                line.iter_mut()
                    .enumerate()
                    .for_each(|(k, v)| *v = a.get(k, r));
            } else {
                line.copy_from_slice(&a.row(r)[..valid_k]);
            }
            fused_eltwise_into(value, &[&line, &x[..valid_k]], &mut terms, backend);
            *y += terms.iter().fold(0.0, |sum, term| sum + term);
        }
    }

    fn add_in_place(&mut self, other: &Self) {
        for (x, y) in self.iter_mut().zip(other) {
            *x += y;
        }
    }
}

/// One operand of a contraction as its lowering reads it: blocks keyed in
/// their role — `(free, contracted)` on the left, `(contracted, free)` on
/// the right — with the role's logical `(rows, cols)`. An operand whose
/// stored orientation is the other one is only re-keyed: `transposed` says
/// its payloads hold the transposes of the role's blocks, and the tile
/// kernel reads them that way where they lie ([`Block::acc`]).
struct Operand<B: Block> {
    blocks: Blocks<B>,
    rows: i64,
    cols: i64,
    transposed: bool,
}

impl Operand<DenseMatrix> {
    /// `m` in a role that reads it transposed iff `transposed`.
    fn matrix(m: &TiledMatrix, transposed: bool) -> Operand<DenseMatrix> {
        let blocks = if transposed {
            m.tiles().map(|((i, j), t)| ((j, i), t))
        } else {
            m.tiles().clone()
        };
        let (rows, cols) = swapped((m.rows(), m.cols()), transposed);
        Operand {
            blocks,
            rows,
            cols,
            transposed,
        }
    }
}

/// `value` with its two slots exchanged: `f(a, b)` as a function of `(b, a)`.
fn swap_slots(value: &FusedProgram) -> FusedProgram {
    let ops = value.ops().iter().map(|op| match op {
        ElemwiseOp::Slot(0) => ElemwiseOp::Slot(1),
        ElemwiseOp::Slot(1) => ElemwiseOp::Slot(0),
        other => other.clone(),
    });
    FusedProgram::new(ops.collect()).expect("exchanging slots keeps the stack discipline")
}

/// A contraction node: §5.3 (join + reduceByKey), §5.4 (group-by-join /
/// SUMMA), §4 (join + groupByKey) or the broadcast join, over a matrix or a
/// vector right operand. Resolves and orients the operands, checks their
/// dimensions, and lowers the dataflow of the row the plan chose. Every
/// contraction row's lowering.
///
/// No tile is copied transposed. An operand contracted on its other index
/// is re-keyed and read transposed by the tile kernel, and a `swap_output`
/// node computes `Cᵀ = Bᵀ·Aᵀ` directly: the right operand takes the left
/// role and the left the right, each with its orientation flipped, and the
/// combine's slots exchanged. Every output element is still the ascending
/// chain over the contracted index of the same products — `fma(b, a, c)` is
/// `fma(a, b, c)` — so the bits are those of transposing.
pub(crate) fn contraction(plan: &Plan, x: &Lowering) -> Result<ExecResult, CompError> {
    let (Node::Contraction(node), Some(strategy)) = (&plan.node, &plan.row.strategy) else {
        return Err(x.mismatch(plan));
    };
    let dataflow = &strategy.dataflow;
    let (env, swap_output, value) = (x.env, node.swap_output, &node.value);
    let (left, right) = (node.left.as_str(), node.right.as_str());
    let (left_contract_row, right_contract_col) = (node.left_contract_row, node.right_contract_col);
    let partitions = x.config.partitions;
    let product = [ElemwiseOp::Slot(0), ElemwiseOp::Slot(1), ElemwiseOp::Mul];
    let general = (value.ops() != product).then(|| {
        if swap_output {
            swap_slots(value)
        } else {
            value.clone()
        }
    });

    let a0 = matrix_input(env, left)?;
    let n = a0.tile_size();
    // The dimension checks, once: the lowering's operands in their roles
    // against the builder's dims.
    let check = |a: &Operand<DenseMatrix>, (block, b_rows, b_cols): (usize, i64, i64), builder| {
        if n != block {
            return Err(CompError::plan("contraction inputs must share a tile size"));
        }
        if a.cols != b_rows {
            return Err(CompError::plan(format!(
                "contraction inner dimensions differ: {} vs {b_rows}",
                a.cols
            )));
        }
        if (a.rows, b_cols) != builder {
            return Err(CompError::plan(format!(
                "builder dimensions {builder:?} do not match contraction output {:?}",
                (a.rows, b_cols)
            )));
        }
        Ok(())
    };
    match *x.output {
        OutputKind::Matrix { rows, cols } => {
            let b0 = matrix_input(env, right)?;
            let (a, b) = if swap_output {
                let a = Operand::matrix(b0, !right_contract_col);
                (a, Operand::matrix(a0, !left_contract_row))
            } else {
                let a = Operand::matrix(a0, left_contract_row);
                (a, Operand::matrix(b0, right_contract_col))
            };
            check(&a, (b0.tile_size(), b.rows, b.cols), (rows, cols))?;
            // The smaller operand is broadcast, the query's right one on a
            // tie — whichever role it has here.
            let right_small = b0.rows() * b0.cols() <= a0.rows() * a0.cols();
            let b_small = right_small != swap_output;
            let c = Contract {
                a,
                b,
                n,
                b_small,
                partitions,
                general,
            };
            let tiles = DenseMatrix::dataflow(dataflow)(&c).map_err(job_failed)?;
            Ok(ExecResult::Matrix(TiledMatrix::new(rows, cols, n, tiles)))
        }
        OutputKind::Vector { len } => {
            let v = vector_input(env, right)?;
            let a = Operand::matrix(a0, left_contract_row);
            check(&a, (v.block_size(), v.len(), 1), (len, 1))?;
            let b = Operand {
                blocks: v.blocks().map(|(k, block)| ((k, ()), block)),
                rows: v.len(),
                cols: 1,
                transposed: false,
            };
            let b_small = true;
            let c = Contract {
                a,
                b,
                n,
                b_small,
                partitions,
                general,
            };
            let blocks = <Vec<f64>>::dataflow(dataflow)(&c).map_err(job_failed)?;
            let blocks = blocks.map(|((i, ()), y)| (i, y));
            Ok(ExecResult::Vector(TiledVector::new(len, n, blocks)))
        }
        OutputKind::Local => Err(x.mismatch(plan)),
    }
}

/// A contraction row's dataflow, over tiles (a matrix right operand) and
/// over vector blocks: the same generic function at each block kind. A
/// dataflow that collects an operand to the driver returns that job's
/// failure.
pub(crate) struct Dataflow {
    tiles: fn(&Contract<DenseMatrix>) -> Lowered<DenseMatrix>,
    blocks: fn(&Contract<Vec<f64>>) -> Lowered<Vec<f64>>,
}

macro_rules! dataflows {
    ($($name:ident: $lower:ident),*) => {$(
        pub(crate) const $name: Dataflow = Dataflow { tiles: $lower, blocks: $lower };
    )*};
}

dataflows!(
    BROADCAST: broadcast,
    BROADCAST_TO_DRIVER: broadcast_to_driver,
    GROUP_BY_JOIN: group_by_join,
    REDUCE_BY_KEY: reduce_by_key,
    JOIN_GROUP_BY: join_group_by
);

/// One fully-resolved contraction `C = A·B`, contraction on `a.col` /
/// `b.row`, over `n`-sized blocks, as its dataflow reads it: the row the plan
/// chose, over the configured `partitions`.
///
/// Operand blocks are only routed by a dataflow — bands, join pairs and
/// broadcast tables are pointer copies of shared tiles — and every dataflow
/// but `join_group_by` multiplies into one resident block per output key per
/// task (`Block::acc`), so the only arithmetic and the only large allocations
/// are the tile kernel's.
///
/// A product multiplies prepared operands ([`Block::left`],
/// [`Block::right`]: under the plain product, the tile kernel's packs). The
/// group-by-join prepares each operand block once per cell — `k` outermost,
/// one row and one column of packs per `k` — and multiplies it into every
/// output block of the cell it reaches; the broadcast joins prepare each
/// block once per task; `reduce_by_key` and `join_group_by` meet each
/// product's operands on their own and prepare them once per product
/// ([`Products::multiply`]).
pub(crate) struct Contract<B: Block> {
    a: Operand<DenseMatrix>,
    b: Operand<B>,
    n: usize,
    /// The right operand is the smaller side.
    b_small: bool,
    partitions: usize,
    /// The combine `f(a, b)`; `None` is the plain product.
    general: Option<FusedProgram>,
}

impl<B: Block> Contract<B> {
    /// Block counts of the left-free, contracted and right-free dimensions.
    fn grid(&self) -> (i64, i64, i64) {
        let blocks = |extent: i64| (extent + self.n as i64 - 1) / self.n as i64;
        (
            blocks(self.a.rows),
            blocks(self.a.cols),
            blocks(self.b.cols),
        )
    }

    /// The block product, for the tasks that multiply.
    fn products(&self) -> Products<B> {
        Products {
            n: self.n as i64,
            general: self.general.clone(),
            transposed: (self.a.transposed, self.b.transposed),
            extents: (self.a.rows, self.a.cols, self.b.cols),
            block: PhantomData,
        }
    }
}

/// `A[i,k] ⊗ B[k,j]` of one contraction: its combine, its operands'
/// orientations and its logical extents.
#[derive(Clone)]
struct Products<B> {
    n: i64,
    general: Option<FusedProgram>,
    transposed: (bool, bool),
    extents: (i64, i64, i64),
    block: PhantomData<fn() -> B>,
}

impl<B: Block> Products<B> {
    /// Left operand `A[i,k]`, prepared for every product it joins.
    fn left<'a>(&self, a: &'a DenseMatrix) -> B::Left<'a> {
        B::left((a, self.transposed.0), self.general.as_ref())
    }

    /// Right operand `B[k,j]`, prepared for every product it joins.
    fn right<'a>(&self, b: &'a B) -> B::Right<'a> {
        B::right((b, self.transposed.1), self.general.as_ref())
    }

    /// `out += A[i,k] ⊗ B[k,j]` for output block `(i, j)` from prepared
    /// operands, over the valid extent of the block product.
    fn acc(&self, a: &B::Left<'_>, b: &B::Right<'_>, (i, k, j): (i64, i64, i64), out: &mut B) {
        let (n, extents) = (self.n, self.extents);
        let valid = |block: i64, len: i64| (len - block * n).clamp(0, n) as usize;
        let valid = (
            valid(i, extents.0),
            valid(k, extents.1),
            valid(j, extents.2),
        );
        out.acc(a, b, self.general.as_ref(), valid);
    }

    /// One product on its own: both operands prepared for it alone.
    fn multiply(&self, a: &DenseMatrix, b: &B, at: (i64, i64, i64), out: &mut B) {
        self.acc(&self.left(a), &self.right(b), at, out);
    }
}

/// §4's naive translation: one partial product block per (i, k, j), and
/// every one of them crosses the shuffle inside a per-key list, no map-side
/// combining — shipping the products is this plan's definition, so it is the
/// one place that allocates a block per product.
fn join_group_by<B: Block>(c: &Contract<B>) -> Lowered<B> {
    let lhs = c.a.blocks.map(|((i, k), t)| (k, (i, t)));
    let rhs = c.b.blocks.map(|((k, j), t)| (k, (j, t)));
    let (n, products) = (c.n, c.products());
    let summed = lhs
        .join(&rhs, c.partitions)
        .map(move |(k, ((i, av), (j, bv)))| {
            let mut out = B::zeros(n);
            products.multiply(&av, &bv, (i, k, B::col_index(j)), &mut out);
            ((i, j), out)
        })
        .group_by_key(c.partitions)
        .map_values(move |blocks| {
            let mut acc = B::zeros(n);
            blocks.into_iter().for_each(|t| acc.add_in_place(&t));
            acc
        });
    Ok(summed)
}

/// §5.3 with §5.4's reduce shape: the join hands each map task `((i, j), (k,
/// A_ik, B_kj))` pointer triples, and the reduceByKey's map-side combine
/// multiplies them straight into the one resident block of their output key
/// (`C_ij += A_ik · B_kj` on the tile kernel) — no product block is
/// allocated, added and dropped. Accumulation order: a map task folds an
/// output key's products in ascending contracted-block order (its cogroup
/// records are sorted by `k` first; they hold pointers, so the sort is free),
/// and the reduce side folds the map tasks' combiners in map-partition order.
/// The result is a function of (inputs, partition count) only — not of
/// source-partition layout, retry or chaos.
fn reduce_by_key<B: Block>(c: &Contract<B>) -> Lowered<B> {
    let lhs = c.a.blocks.map(|((i, k), t)| (k, (i, t)));
    let rhs = c.b.blocks.map(|((k, j), t)| (k, (j, t)));
    let triples = lhs
        .cogroup(&rhs, c.partitions)
        .map_partitions_stream(|_, records| {
            let mut records = records.into_vec();
            records.sort_by_key(|&(k, _)| k);
            let mut triples = Vec::new();
            for (k, (ls, rs)) in records {
                for (i, av) in &ls {
                    for (j, bv) in &rs {
                        let at = (*i, k, B::col_index(*j));
                        triples.push(((*i, *j), (at, av.clone(), bv.clone())));
                    }
                }
            }
            PartitionStream::from_vec(triples)
        });
    let (n, products) = (c.n, c.products());
    let fold = move |out: &mut B, (at, av, bv): ((i64, i64, i64), DenseMatrix, B)| {
        products.multiply(&av, &bv, at, out)
    };
    let seed = fold.clone();
    let accumulate = Aggregator {
        create: Arc::new(move |triple| {
            let mut out = B::zeros(n);
            seed(&mut out, triple);
            out
        }),
        merge_value: Arc::new(fold),
        merge_combiners: Arc::new(|acc: &mut B, t: B| acc.add_in_place(&t)),
        map_side_combine: true,
        merge_on_reduce: true,
    };
    Ok(triples.shuffle(
        KeyPartitioner::hash(c.partitions),
        accumulate,
        "reduceByKey",
    ))
}

/// MLlib-style broadcast join: collect the smaller operand's blocks on the
/// driver, keyed by the contracted block index, ship them to every task via
/// [`Context::broadcast`], and compute locally-merged partial output blocks
/// map-side — no join shuffle at all. The big side is only read: its stream
/// is consumed by reference so shared source partitions are never cloned
/// into the task. A task prepares each streamed block once and each table
/// block once, on first use ([`Block::left`], [`Block::right`]), and
/// multiplies in the streamed order — the same products in the same order
/// as preparing both operands per product, so the same bits.
fn broadcast_partials<B: Block>(c: &Contract<B>) -> Lowered<B> {
    let (n, products, ctx) = (c.n, c.products(), c.a.blocks.context());
    Ok(if c.b_small {
        let table = ctx.broadcast(by_contracted(c.b.blocks.try_collect()?, |&(k, _)| k));
        c.a.blocks.map_partitions_stream(move |_, tiles| {
            let mut acc: HashMap<(i64, B::Col), B> = HashMap::new();
            let mut rights: HashMap<(i64, B::Col), B::Right<'_>> = HashMap::new();
            tiles.for_each_ref(|((i, k), av)| {
                let Some(blocks) = table.get(k) else { return };
                let a = products.left(av);
                for ((_, j), bv) in blocks {
                    let b = rights.entry((*k, *j)).or_insert_with(|| products.right(bv));
                    let out = acc.entry((*i, *j)).or_insert_with(|| B::zeros(n));
                    products.acc(&a, b, (*i, *k, B::col_index(*j)), out);
                }
            });
            PartitionStream::from_vec(acc.into_iter().collect())
        })
    } else {
        let table = ctx.broadcast(by_contracted(c.a.blocks.try_collect()?, |&(_, k)| k));
        c.b.blocks.map_partitions_stream(move |_, blocks| {
            let mut acc: HashMap<(i64, B::Col), B> = HashMap::new();
            let mut lefts: HashMap<TileCoord, B::Left<'_>> = HashMap::new();
            blocks.for_each_ref(|((k, j), bv)| {
                let Some(tiles) = table.get(k) else { return };
                let b = products.right(bv);
                for ((i, _), av) in tiles {
                    let a = lefts.entry((*i, *k)).or_insert_with(|| products.left(av));
                    let out = acc.entry((*i, *j)).or_insert_with(|| B::zeros(n));
                    products.acc(a, &b, (*i, *k, B::col_index(*j)), out);
                }
            });
            PartitionStream::from_vec(acc.into_iter().collect())
        })
    })
}

/// The broadcast join's partials combined in a single reduceByKey round,
/// where a contraction spans several partitions of the big side.
fn broadcast<B: Block>(c: &Contract<B>) -> Lowered<B> {
    let partials = broadcast_partials(c)?;
    Ok(partials.reduce_by_key_in_place(c.partitions, |acc: &mut B, t: B| acc.add_in_place(&t)))
}

/// The zero-round broadcast: collect the partials and finish the merge on
/// the driver. Every stage is an action or a source — no shuffle — and every
/// output block exists, hit or not.
fn broadcast_to_driver<B: Block>(c: &Contract<B>) -> Lowered<B> {
    let mut merged: HashMap<(i64, B::Col), B> = HashMap::new();
    for (coord, partial) in broadcast_partials(c)?.try_collect()? {
        let out = merged.entry(coord).or_insert_with(|| B::zeros(c.n));
        out.add_in_place(&partial);
    }
    let (a_rows, _, b_cols) = c.grid();
    let coords = (0..a_rows).flat_map(|i| (0..b_cols).map(move |j| (i, B::col_at(j))));
    let blocks = coords
        .map(|at| (at, merged.remove(&at).unwrap_or_else(|| B::zeros(c.n))))
        .collect();
    Ok(c.a.blocks.context().parallelize(blocks, c.partitions))
}

/// §5.4's group-by-join as SUMMA: `C[i,j] = Σ_k A[i,k] ⊗ B[k,j]` in one
/// shuffle round whose reducers are the cells of the output's own grid
/// partitioner ([`GridCells`] over `free_left x free_right` output blocks).
/// Each operand block travels once: `A[i,k]` keyed by its output block row
/// `i` to the row band holding `i`, `B[k,j]` keyed by its output block
/// column `j` to the column band holding `j` — `pr` row bands and `pc`
/// column bands, one `partitionBy` a side. Cell `c` then reads row band
/// `c % pr` and column band `c / pr` in place ([`Dataset::cross_bands`]), so
/// a band is read by the `pc` (`pr`) cells that cross it but written once.
/// Each cell holds one resident block per output key and walks the
/// contracted index `k` outermost, in ascending order: for each `k` it
/// prepares `A[i,k]` once for every row `i` of the cell and `B[k,j]` once
/// for every column `j` ([`Block::left`] — under the plain product, the
/// tile kernel's packs), then folds `C_ij += A_ik ⊗ B_kj` into every block
/// of the cell from those, skipping absent operand blocks. So an operand
/// tile is packed once per cell, not once per product, and at most one row
/// and one column of prepared operands is live at a time. No partial sum is
/// shuffled or merged, so every output element is one ascending chain over
/// the contracted index — a function of the operands alone, not of
/// partition count, source layout, retry or process count. The cell's
/// blocks are emitted from the cell's partition, so the result carries the
/// grid partitioner of its own shape and joins with co-indexed matrices
/// narrowly.
fn group_by_join<B: Block>(c: &Contract<B>) -> Lowered<B> {
    let (free_left, contracted, free_right) = c.grid();
    let cells = GridCells::new(free_left as usize, free_right as usize, c.partitions);
    let rows = c.a.blocks.map(|((i, k), t)| (i, (k, t)));
    let cols = c.b.blocks.map(|((k, j), t)| (j, (k, t)));
    let rows = rows.partition_by(cells.row_bands_by(|&i| i));
    let cols = cols.partition_by(cells.col_bands_by(|&j| B::col_index(j)));
    let (n, products) = (c.n, c.products());
    let reduced = rows.cross_bands(&cols, cells, "groupByJoin", move |cell, lefts, rights| {
        // Both bands are read where they lie: shared shuffle outputs.
        let ((lefts, l), (rights, r)) = (lefts.into_shared(), rights.into_shared());
        let a_at: HashMap<TileCoord, &DenseMatrix> =
            lefts[l].iter().map(|(i, (k, t))| ((*i, *k), t)).collect();
        let b_at: HashMap<TileCoord, &B> = rights[r]
            .iter()
            .map(|(j, (k, t))| ((*k, B::col_index(*j)), t))
            .collect();
        let (rows, cols) = cells.bands(cell);
        let (rows, cols): (Vec<i64>, Vec<i64>) = (rows.collect(), cols.collect());
        let mut out: Vec<B> = (0..rows.len() * cols.len()).map(|_| B::zeros(n)).collect();
        for k in 0..contracted {
            let a_k: Vec<_> = rows.iter().map(|&i| a_at.get(&(i, k))).collect();
            let b_k: Vec<_> = cols.iter().map(|&j| b_at.get(&(k, j))).collect();
            // Prepare nothing that no product reads (an empty band reads none).
            if a_k.iter().all(Option::is_none) || b_k.iter().all(Option::is_none) {
                continue;
            }
            let a_k: Vec<_> = a_k.iter().map(|a| a.map(|a| products.left(a))).collect();
            let b_k: Vec<_> = b_k.iter().map(|b| b.map(|b| products.right(b))).collect();
            for ((a, &i), row) in a_k.iter().zip(&rows).zip(out.chunks_mut(cols.len())) {
                let Some(a) = a else { continue };
                for ((b, &j), acc) in b_k.iter().zip(&cols).zip(row) {
                    if let Some(b) = b {
                        products.acc(a, b, (i, k, j), acc);
                    }
                }
            }
        }
        let keys = rows
            .iter()
            .flat_map(|&i| cols.iter().map(move |&j| (i, B::col_at(j))));
        PartitionStream::from_vec(keys.zip(out).collect())
    });
    // Every product of the plan runs in those cells, behind no shuffle, so a
    // consumer that evaluates the result twice would multiply twice: who
    // stores it is decided above the dataflow ([`execute`], and
    // `program::run` for a product whose one reader covers it).
    Ok(reduced)
}

/// Group collected blocks by their contracted block index.
fn by_contracted<K, T>(blocks: Vec<(K, T)>, k: impl Fn(&K) -> i64) -> HashMap<i64, Vec<(K, T)>> {
    let mut table: HashMap<i64, Vec<(K, T)>> = HashMap::new();
    for (key, block) in blocks {
        table.entry(k(&key)).or_default().push((key, block));
    }
    table
}

/// A per-element `value` over slots `[element, row, col]`, or `None` when it
/// is the element itself.
fn element_program(value: &FusedProgram) -> Option<FusedProgram> {
    (value.ops() != [ElemwiseOp::Slot(0)]).then(|| value.clone())
}

/// Tile `(bi, bj)` of an array of logical `extent` through
/// [`element_program`]'s program: the tile itself (a pointer) when there is
/// none, one fused pass otherwise.
fn map_elements(
    program: Option<&FusedProgram>,
    ((bi, bj), t): (TileCoord, DenseMatrix),
    extent: (i64, i64),
    backend: Backend,
) -> DenseMatrix {
    let Some(program) = program else { return t };
    let n = t.rows();
    let origin = (bi * n as i64, bj * n as i64);
    DenseMatrix::from_vec(
        n,
        n,
        fused_tile(program, &[t.data()], (n, n), origin, extent, backend),
    )
}

/// Fig. 1: each tile's rows (columns) fold into one partial block, and each
/// output block folds its tiles' partials in ascending block index along the
/// reduced axis — one shuffle round, no map-side combine (a partial is `n`
/// numbers). `value` runs as one fused program per tile, skipped when it is
/// the element itself; a partial is a plain loop in ascending in-tile index
/// from the monoid's identity (`-0.0` for `+`, so the same bits as folding
/// from the first element, as the reference interpreter does). The result is
/// a function of the input and its tile size alone.
pub(crate) fn axis_reduce(plan: &Plan, x: &Lowering) -> Result<ExecResult, CompError> {
    let (Node::AxisReduce(node), &OutputKind::Vector { len }) = (&plan.node, x.output) else {
        return Err(x.mismatch(plan));
    };
    let (by_row, monoid, value) = (node.by_row, node.monoid, &node.value);
    let m = matrix_input(x.env, &node.input)?;
    let expected = if by_row { m.rows() } else { m.cols() };
    if expected != len {
        return Err(CompError::plan(format!(
            "builder length {len} does not match reduced axis {expected}"
        )));
    }
    let (zero, combine) = monoid_f64(monoid)?;
    let n = m.tile_size();
    let extent = (m.rows(), m.cols());
    let (program, backend) = (element_program(value), Backend::active());
    let partials = m.tiles().map(move |((bi, bj), t)| {
        let t = map_elements(program.as_ref(), ((bi, bj), t), extent, backend);
        let (valid_rows, valid_cols) = valid_extent((bi * n as i64, bj * n as i64), extent, n);
        let rows = t
            .data()
            .chunks(n)
            .take(valid_rows)
            .map(|r| &r[..valid_cols]);
        let mut block = vec![0.0; n];
        if by_row {
            for (acc, row) in block.iter_mut().zip(rows) {
                *acc = row.iter().fold(zero, |a, &v| combine(a, v));
            }
        } else {
            block[..valid_cols].fill(zero);
            for row in rows {
                for (acc, &v) in block.iter_mut().zip(row) {
                    *acc = combine(*acc, v);
                }
            }
        }
        let (coord, along) = if by_row { (bi, bj) } else { (bj, bi) };
        (coord, (along, block))
    });
    let blocks = partials
        .group_by_key(x.config.partitions)
        .map_values(move |mut parts| {
            parts.sort_unstable_by_key(|&(along, _)| along);
            let mut parts = parts.into_iter().map(|(_, block)| block);
            let mut acc = parts.next().expect("a group holds at least one partial");
            for block in parts {
                for (x, y) in acc.iter_mut().zip(block) {
                    *x = combine(*x, y);
                }
            }
            acc
        });
    Ok(ExecResult::Vector(TiledVector::new(len, n, blocks)))
}

/// A replica of a source tile for one output tile: the source coordinate,
/// its data (after `value`), and — for a map [`AxisLanding`] cannot
/// describe — the `(source offset, output offset)` of every element it
/// carries into that output tile.
type Replica = (TileCoord, DenseMatrix, Vec<(u32, u32)>);

/// §5.2 rule 19 in one shuffle round. Each source tile, after `value` (one
/// fused program over the tile unless it is the element itself), is
/// replicated — a pointer copy — to the `I_f(K)` output tiles its elements
/// land in, keyed under the output's grid partitioner. Each reduce task
/// copies its replicas into place and completes its band of the grid with
/// zero tiles ([`complete_grid`]), so the grid costs no round of its own. Where
/// an element lands is known before any task copies it:
///
/// * a **separable** map — each output index reads at most one source index,
///   and not the same one: shifts, rotations, reversals, strides,
///   `((0,j),v)`, `((j,i),v)` — is evaluated on the driver, once per source
///   row and column ([`AxisLanding`]); tasks look rows and columns up;
/// * any other map (`((i+j)%n, j)`) is evaluated by the map task, once over
///   the tile's index planes, and each replica carries the offsets of its
///   elements.
///
/// Where several elements land on one cell, the last in row-major source
/// order wins, as in the reference interpreter's builder: the separable
/// tables keep only the last source row (column) of each output row
/// (column), and the per-element path keeps the largest source position per
/// cell. Untouched cells are `+0.0`.
pub(crate) fn index_remap(plan: &Plan, x: &Lowering) -> Result<ExecResult, CompError> {
    let (Node::IndexRemap(node), &OutputKind::Matrix { rows, cols }) = (&plan.node, x.output)
    else {
        return Err(x.mismatch(plan));
    };
    let (fi, fj, value) = (&node.fi, &node.fj, &node.value);
    let m = matrix_input(x.env, &node.input)?;
    let n = m.tile_size();
    let extent = (m.rows(), m.cols());
    let axes = AxisLanding::new(fi, fj, extent, (rows, cols))?.map(Arc::new);
    let (program, backend) = (element_program(value), Backend::active());
    let (fi, fj) = (fi.clone(), fj.clone());
    let routes = axes.clone();
    let replicas = m.tiles().flat_map(move |(coord, t)| {
        let t = map_elements(program.as_ref(), (coord, t), extent, backend);
        let dests = match &routes {
            Some(axes) => axes.dests(coord, n, extent),
            None => land_elements(&fi, &fj, coord, n, extent, (rows, cols)),
        };
        let replicas = dests
            .into_iter()
            .map(|(dest, landed)| (dest, (coord, t.clone(), landed)));
        replicas.collect::<Vec<_>>()
    });

    let ni = n as i64;
    let cells = output_cells((rows, cols), n, x.config.partitions);
    let grouped = replicas.group_by_key_with(cells.partitioner_by(|&c: &TileCoord| c));
    let tiles = complete_grid(&grouped, cells, n, move |dest, replicas: Vec<Replica>| {
        let mut landing = DenseMatrix::zeros(n, n);
        let out = landing.data_mut();
        match &axes {
            Some(axes) => {
                for (src, t, _) in &replicas {
                    axes.copy(*src, t, dest, extent, out);
                }
            }
            None => {
                // Row-major source position of each cell's current writer.
                let mut writer = vec![-1i64; n * n];
                for ((bi, bj), t, landed) in &replicas {
                    for &(s, d) in landed {
                        let (s, d) = (s as usize, d as usize);
                        let (gi, gj) = (bi * ni + (s / n) as i64, bj * ni + (s % n) as i64);
                        let at = gi * extent.1 + gj;
                        if at > writer[d] {
                            (writer[d], out[d]) = (at, t.data()[s]);
                        }
                    }
                }
            }
        }
        landing
    });
    Ok(ExecResult::Matrix(TiledMatrix::new(rows, cols, n, tiles)))
}

/// The output tiles source tile `coord`'s elements land in under a
/// non-separable map `(fi, fj)`, each with the `(source offset, output
/// offset)` of the elements it receives: both maps run once over the tile's
/// valid index planes. An index error (`i / (j - j)`) fails the task
/// deterministically with the interpreter's message.
fn land_elements(
    fi: &IdxFn,
    fj: &IdxFn,
    (bi, bj): TileCoord,
    n: usize,
    extent: (i64, i64),
    (rows, cols): (i64, i64),
) -> Vec<(TileCoord, Vec<(u32, u32)>)> {
    let (r0, c0) = (bi * n as i64, bj * n as i64);
    let (valid_rows, valid_cols) = valid_extent((r0, c0), extent, n);
    let len = valid_rows * valid_cols;
    let gi: Vec<i64> = (0..len).map(|e| r0 + (e / valid_cols) as i64).collect();
    let gj: Vec<i64> = (0..len).map(|e| c0 + (e % valid_cols) as i64).collect();
    let eval = |f: &IdxFn| {
        f.eval_batch(&[&gi, &gj], len)
            .unwrap_or_else(|e| fail_deterministic(e.to_string()))
    };
    let (out_rows, out_cols) = (eval(fi), eval(fj));
    let ni = n as i64;
    let mut by_dest: BTreeMap<TileCoord, Vec<(u32, u32)>> = BTreeMap::new();
    for (e, (&oi, &oj)) in out_rows.iter().zip(&out_cols).enumerate() {
        if (0..rows).contains(&oi) && (0..cols).contains(&oj) {
            let src = (e / valid_cols) * n + e % valid_cols;
            let dst = (oi % ni * ni + oj % ni) as usize;
            by_dest
                .entry((oi / ni, oj / ni))
                .or_default()
                .push((src as u32, dst as u32));
        }
    }
    by_dest.into_iter().collect()
}

/// A separable index map evaluated once per source row and column on the
/// driver: the output index each source row (`of_row[gi]`) and column
/// (`of_col[gj]`) lands on, `-1` where it drops — outside the output, or
/// overwritten by a later source row (column) landing on the same output
/// row (column). Unless `crossed`, a row lands on an output row and a column
/// on an output column; `crossed` maps (`((j,i),v)`) swap the two.
///
/// Under a separable map the elements landing on output cell `(R, C)` are a
/// product of source rows and source columns, so the row-major last of them
/// is the last row of one set in the last column of the other: keeping only
/// those makes the map injective, and replicas can be copied in any order.
/// Tiled matrices are full grids, so every source row and column exists.
struct AxisLanding {
    of_row: Vec<i64>,
    of_col: Vec<i64>,
    crossed: bool,
}

impl AxisLanding {
    /// `None` when an output index reads both source indices or both read
    /// the same one.
    fn new(
        fi: &IdxFn,
        fj: &IdxFn,
        (src_rows, src_cols): (i64, i64),
        (rows, cols): (i64, i64),
    ) -> Result<Option<AxisLanding>, CompError> {
        let (i_reads, j_reads) = ([fi.reads(0), fi.reads(1)], [fj.reads(0), fj.reads(1)]);
        let reads_both = |r: [bool; 2]| r == [true, true];
        let same_one = i_reads == j_reads && i_reads != [false, false];
        if reads_both(i_reads) || reads_both(j_reads) || same_one {
            return Ok(None);
        }
        // A constant index reads whichever source index the other does not.
        let crossed = i_reads[1] || j_reads[0];
        let (by_row, by_col, row_extent, col_extent) = if crossed {
            (fj, fi, cols, rows)
        } else {
            (fi, fj, rows, cols)
        };
        Ok(Some(AxisLanding {
            of_row: last_landing(by_row, 0, src_rows, row_extent)?,
            of_col: last_landing(by_col, 1, src_cols, col_extent)?,
            crossed,
        }))
    }

    /// The output tiles source tile `(bi, bj)` reaches (its `I_f(K)`), with
    /// no per-element offsets.
    fn dests(
        &self,
        (bi, bj): TileCoord,
        n: usize,
        extent: (i64, i64),
    ) -> Vec<(TileCoord, Vec<(u32, u32)>)> {
        let (r0, c0) = (bi * n as i64, bj * n as i64);
        let (valid_rows, valid_cols) = valid_extent((r0, c0), extent, n);
        let blocks = |table: &[i64], from: i64, count: usize| {
            let mut blocks: Vec<i64> = landed(table, from, count)
                .map(|(_, o)| o / n as i64)
                .collect();
            blocks.sort_unstable();
            blocks.dedup();
            blocks
        };
        let row_blocks = blocks(&self.of_row, r0, valid_rows);
        let col_blocks = blocks(&self.of_col, c0, valid_cols);
        let mut dests = Vec::with_capacity(row_blocks.len() * col_blocks.len());
        for &rb in &row_blocks {
            for &cb in &col_blocks {
                dests.push((swapped((rb, cb), self.crossed), Vec::new()));
            }
        }
        dests
    }

    /// Copy the elements of source tile `src` that land in output tile `dest`
    /// into `out`, row by row.
    fn copy(
        &self,
        src: TileCoord,
        t: &DenseMatrix,
        dest: TileCoord,
        extent: (i64, i64),
        out: &mut [f64],
    ) {
        let n = t.rows();
        let ni = n as i64;
        let (r0, c0) = (src.0 * ni, src.1 * ni);
        let (valid_rows, valid_cols) = valid_extent((r0, c0), extent, n);
        let (row_block, col_block) = swapped(dest, self.crossed);
        let (row_stride, col_stride) = swapped((n, 1), self.crossed);
        // `(in-tile index, its share of the output offset)` of every source
        // row (column) landing in `dest`.
        let landing = |table: &[i64], from: i64, count: usize, block: i64, stride: usize| {
            let hits = landed(table, from, count).filter(|&(_, o)| o / ni == block);
            hits.map(|(k, o)| (k, (o % ni) as usize * stride))
                .collect::<Vec<_>>()
        };
        let cols = landing(&self.of_col, c0, valid_cols, col_block, col_stride);
        for (ti, row_at) in landing(&self.of_row, r0, valid_rows, row_block, row_stride) {
            let row = &t.data()[ti * n..];
            for &(tj, col_at) in &cols {
                out[row_at + col_at] = row[tj];
            }
        }
    }
}

/// `(in-tile index, output index)` of each of the `count` source rows
/// (columns) from `from` on that [`AxisLanding`]'s `table` lands.
fn landed(table: &[i64], from: i64, count: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
    let window = table[from as usize..][..count].iter().copied().enumerate();
    window.filter(|&(_, o)| o >= 0)
}

/// `f` over every source index `0..len` of slot `slot`: the output index in
/// `0..extent` it lands on, or `-1` where it falls outside or a later source
/// index lands on the same output index.
fn last_landing(f: &IdxFn, slot: usize, len: i64, extent: i64) -> Result<Vec<i64>, CompError> {
    let points: Vec<i64> = (0..len).collect();
    let mut vars: [&[i64]; 2] = [&[], &[]];
    vars[slot] = &points;
    let mut landed = f.eval_batch(&vars, len as usize)?;
    let mut last = vec![usize::MAX; extent as usize];
    for (s, &o) in landed.iter().enumerate() {
        if (0..extent).contains(&o) {
            last[o as usize] = s;
        }
    }
    for (s, o) in landed.iter_mut().enumerate() {
        if !(0..extent).contains(o) || last[*o as usize] != s {
            *o = -1;
        }
    }
    Ok(landed)
}

/// The reduce cells of a `rows x cols` output of `n`-wide tiles.
fn output_cells((rows, cols): (i64, i64), n: usize, partitions: usize) -> GridCells {
    let blocks = |len: i64| ((len + n as i64 - 1) / n as i64) as usize;
    GridCells::new(blocks(rows), blocks(cols), partitions)
}

/// The output tiles of a shuffle keyed under `cells`' grid partitioner, the
/// grid completed where they land: each reduce task emits its cell's band in
/// row-major order — `build(coord, value)` where a value arrived, a zero tile
/// where none did. Nothing is added to a built tile, so a `-0.0` stays
/// `-0.0`. Narrow, so the completion costs no shuffle round, and the result
/// keeps the grid partitioner (a later element-wise join on it is narrow).
fn complete_grid<V: Data>(
    shuffled: &Dataset<(TileCoord, V)>,
    cells: GridCells,
    n: usize,
    build: impl Fn(TileCoord, V) -> DenseMatrix + Send + Sync + 'static,
) -> Dataset<(TileCoord, DenseMatrix)> {
    shuffled.map_partitions_preserving("completeGrid", move |cell, records| {
        let mut arrived: HashMap<TileCoord, V> = records.into_iter().collect();
        let (rows, cols) = cells.bands(cell);
        let band = rows.flat_map(|i| cols.clone().map(move |j| (i, j)));
        let tiles = band.map(|c| match arrived.remove(&c) {
            Some(v) => (c, build(c, v)),
            None => (c, DenseMatrix::zeros(n, n)),
        });
        PartitionStream::from_vec(tiles.collect())
    })
}

/// A `groupByAggregate` node lowered against the environment:
/// everything the per-element fold reads.
struct GroupFold {
    /// The per-element mini-comprehension `[ (key, (in_0, ..)) | quals ]`.
    mini: Comprehension,
    /// The planner scalars `mini` reads.
    scalars: comp::Env,
    gen_vars: (String, String, String),
    /// Identity and combine per aggregate, plus a trailing hit-count plane.
    zeros: Vec<f64>,
    combines: Vec<fn(f64, f64) -> f64>,
    /// Finalizer over the aggregate planes, slot `i` reading plane `i`.
    finalizer: FusedProgram,
}

impl GroupFold {
    /// Build the fold on the driver, refusing what could only fail inside a
    /// task: a name `mini` reads that neither the generator, its own ranges
    /// and lets, nor a planner scalar binds is the reference interpreter's
    /// `unbound variable` here, before any task is launched.
    fn lower(env: &PlanEnv, node: &GroupByAggregate) -> Result<GroupFold, CompError> {
        let aggregates = &node.aggregates;
        let (mut zeros, mut combines) = (Vec::new(), Vec::new());
        for a in aggregates {
            let (z, c) = monoid_f64(a.monoid)?;
            zeros.push(z);
            combines.push(c);
        }
        // Hidden hit-count plane.
        zeros.push(0.0);
        combines.push(|a, b| a + b);

        let (key_pat, key_value) = match &node.key {
            GroupKey::Cell(k1, k2) => (
                Pattern::Tuple(vec![Pattern::Var(k1.clone()), Pattern::Var(k2.clone())]),
                Expr::Tuple(vec![Expr::Var(k1.clone()), Expr::Var(k2.clone())]),
            ),
            GroupKey::Index(k) => (Pattern::Var(k.clone()), Expr::Var(k.clone())),
        };
        let mut qualifiers = node.inner_quals.clone();
        // When the key is an expression, the key pattern still needs binding
        // for any post-key uses; the fast plans have none, so only the value
        // matters.
        let key_value = match &node.key_expr {
            Some(e) => {
                qualifiers.push(Qualifier::Let(key_pat, e.clone()));
                e.clone()
            }
            None => key_value,
        };
        let inputs = aggregates.iter().map(|a| a.input.clone()).collect();
        let mini = Comprehension {
            head: Box::new(Expr::Tuple(vec![key_value, Expr::Tuple(inputs)])),
            qualifiers,
        };

        let mut scalars = comp::Env::new();
        let (rv, cv, vv) = &node.gen_vars;
        for name in Expr::Comprehension(mini.clone()).free_vars() {
            match env.scalar(&name) {
                Some(v) => scalars.bind(name, v.clone()),
                None if [rv, cv, vv].contains(&&name) => {}
                None => return Err(CompError::eval(format!("unbound variable `{name}`"))),
            }
        }
        let agg_slots: Vec<String> = (0..aggregates.len()).map(|i| format!("%agg{i}")).collect();
        let finalizer = scalar::compile(&node.finalizer, None, &agg_slots, agg_slots.len(), env)?;
        Ok(GroupFold {
            mini,
            scalars,
            gen_vars: node.gen_vars.clone(),
            zeros,
            combines,
            finalizer,
        })
    }

    /// §5.3 generic plan. Each input element runs the mini comprehension;
    /// every `(key, inputs)` row it yields is folded into the accumulator
    /// planes of the destination `locate(key)` names — a coordinate plus the
    /// offset inside that destination's planes, the only thing matrix- and
    /// vector-shaped keys differ in. Planes are flat `plane_len` buffers, one
    /// per aggregate plus a trailing hit count; they are reduced by key, then
    /// finalized in one fused pass per destination over its planes, and
    /// untouched cells are reset to `+0.0` (dense builder semantics). An
    /// element whose evaluation fails (`1 / (i - i)`) fails its task
    /// deterministically with the `CompError` text.
    fn run<K>(
        self,
        m: &TiledMatrix,
        partitioner: KeyPartitioner<K>,
        plane_len: usize,
        locate: impl Fn(&Value) -> Option<(K, usize)> + Send + Sync + 'static,
    ) -> Dataset<(K, Vec<f64>)>
    where
        K: Data + Hash + Eq + SpillCodec,
    {
        let n = m.tile_size();
        let extent = (m.rows(), m.cols());
        let (mini, scalars, (rv, cv, vv)) = (self.mini, self.scalars, self.gen_vars);
        let (zeros, combines, finalizer) = (self.zeros, self.combines, self.finalizer);
        let fold_combines = combines.clone();
        let backend = Backend::active();

        let partial = m.tiles().flat_map(move |(coord, t)| {
            let mut acc: HashMap<K, Vec<Vec<f64>>> = HashMap::new();
            let mut cenv = scalars.clone();
            for_each_valid(n, coord, extent, |ti, tj, gi, gj| {
                let scope = cenv.mark();
                cenv.bind(rv.clone(), Value::Int(gi));
                cenv.bind(cv.clone(), Value::Int(gj));
                cenv.bind(vv.clone(), Value::Float(t.get(ti, tj)));
                let rows_out = eval_comprehension(&mini, &mut cenv)
                    .unwrap_or_else(|e| fail_deterministic(e.to_string()));
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
            });
            acc.into_iter().collect::<Vec<_>>()
        });

        let reduced = partial.reduce_by_key_with(partitioner, move |mut a, b| {
            for ((pa, pb), combine) in a.iter_mut().zip(b).zip(&fold_combines) {
                for (x, y) in pa.iter_mut().zip(pb) {
                    *x = combine(*x, y);
                }
            }
            a
        });

        reduced.map_values(move |planes| {
            let (hits, aggs) = planes.split_last().expect("hit-count plane");
            let slots: Vec<&[f64]> = aggs.iter().map(Vec::as_slice).collect();
            let mut out = fused_eltwise(&finalizer, &slots, plane_len, backend);
            for (cell, _) in out.iter_mut().zip(hits).filter(|(_, &h)| h == 0.0) {
                *cell = 0.0;
            }
            out
        })
    }
}

/// §5.3 generic plan: destinations are output tiles for matrix-shaped keys —
/// reduced under the output's grid partitioner, which completes the grid in
/// the same round — and output blocks for vector-shaped ones.
pub(crate) fn group_by_aggregate(plan: &Plan, x: &Lowering) -> Result<ExecResult, CompError> {
    let Node::GroupByAggregate(node) = &plan.node else {
        return Err(x.mismatch(plan));
    };
    let m = matrix_input(x.env, &node.input)?;
    let fold = GroupFold::lower(x.env, node)?;
    let (n, config) = (m.tile_size(), x.config);
    let ni = n as i64;
    match *x.output {
        OutputKind::Matrix { rows, cols } => {
            let cells = output_cells((rows, cols), n, config.partitions);
            let by_cell = cells.partitioner_by(|&c: &TileCoord| c);
            let planes = fold.run(m, by_cell, n * n, move |key| {
                let Value::Tuple(kij) = key else { return None };
                let (k1, k2) = (kij[0].as_i64().ok()?, kij[1].as_i64().ok()?);
                ((0..rows).contains(&k1) && (0..cols).contains(&k2))
                    .then(|| ((k1 / ni, k2 / ni), (k1 % ni * ni + k2 % ni) as usize))
            });
            let tiles = complete_grid(&planes, cells, n, move |_, data| {
                DenseMatrix::from_vec(n, n, data)
            });
            Ok(ExecResult::Matrix(TiledMatrix::new(rows, cols, n, tiles)))
        }
        OutputKind::Vector { len } => {
            let by_block = KeyPartitioner::hash(config.partitions);
            let blocks = fold.run(m, by_block, n, move |key| {
                let k = key.as_i64().ok()?;
                (0..len).contains(&k).then(|| (k / ni, (k % ni) as usize))
            });
            Ok(ExecResult::Vector(TiledVector::new(len, n, blocks)))
        }
        OutputKind::Local => Err(x.mismatch(plan)),
    }
}

/// Fallback: sparsify every registered array, run the reference interpreter,
/// rebuild the output storage.
pub(crate) fn local(plan: &Plan, x: &Lowering) -> Result<ExecResult, CompError> {
    let Node::LocalFallback(expr) = &plan.node else {
        return Err(x.mismatch(plan));
    };
    let (env, ctx, config, output) = (x.env, x.ctx, x.config, x.output);
    let mut cenv = comp::Env::new();
    for name in expr.free_vars() {
        if let Some(v) = env.scalar(&name) {
            cenv.bind(name.clone(), v.clone());
            continue;
        }
        match env.array(&name) {
            Some(DistArray::Matrix(m)) => {
                let local = m.try_to_local().map_err(job_failed)?;
                cenv.bind(name.clone(), triplets_to_value(&local.to_triplets()));
            }
            Some(DistArray::Vector(v)) => {
                let vals = v.try_to_local().map_err(job_failed)?;
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
    use crate::MatMulStrategy;
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
            // shuffle barrier index, and the cost-based choice would be the
            // zero-shuffle broadcast path for these tiny inputs.
            matmul: MatMulStrategy::GroupByJoin,
            ..Default::default()
        };
        let run = |chaos: Option<ChaosPlan>| {
            let mut builder = Context::builder().workers(4).max_task_attempts(8);
            builder = match chaos {
                Some(p) => builder.chaos(p),
                None => builder.chaos_off(),
            };
            let ctx = builder.build();
            ctx.trace();
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
            let barriers = ctx.take_profile().shuffle_stage_count() as u64;
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
        let tag = &clean.plan_choices[0].chosen;
        assert!(tag.ends_with("groupByJoin"), "{tag}");
        let clean_bytes = clean.actual_shuffle_bytes_of_tag(tag);
        assert!(clean_bytes > 0, "{}", clean.render());
        assert_eq!(
            profile.actual_shuffle_bytes_of_tag(tag),
            clean_bytes,
            "resubmitted attempts must not be summed into actual bytes:\n{}",
            profile.render()
        );
    }

    /// Return `copies` tiles of `len` elements to the free list, each
    /// holding what no output may inherit: NaNs of both signs, `-0.0`, `±∞`.
    fn poison_the_free_list(len: usize, copies: usize) {
        let specials = [f64::NAN, -f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY];
        for _ in 0..copies {
            drop(DenseMatrix::from_fn(1, len, |_, j| {
                specials[j % specials.len()]
            }));
        }
    }

    fn bits(data: &[f64]) -> Vec<u64> {
        data.iter().map(|x| x.to_bits()).collect()
    }

    /// A padded edge tile that reads both index planes: the planes, the
    /// output and its zeroed padding come from the free list, and none of a
    /// recycled buffer's values shows, on any backend.
    #[test]
    fn a_padded_edge_tile_inherits_nothing_from_a_recycled_buffer() {
        use ElemwiseOp::{Add, Mul, Slot};
        let n = 40;
        // (a + i) * j at tile (1, 1) of a 70 x 75 array: 30 x 35 valid.
        let program = FusedProgram::new(vec![Slot(0), Slot(1), Add, Slot(2), Mul]).unwrap();
        let a = DenseMatrix::from_fn(n, n, |i, j| (i * n + j) as f64 * 0.5 - 300.0);
        for backend in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
            let run = || {
                let tile = fused_tile(&program, &[a.data()], (n, n), (40, 40), (70, 75), backend);
                bits(&tile)
            };
            let clean = run();
            assert!(clean[30 * n..].iter().all(|&b| b == 0), "padding rows");
            assert!(clean[..30 * n]
                .chunks(n)
                .all(|row| row[35..].iter().all(|&b| b == 0)));
            poison_the_free_list(n * n, 8);
            assert_eq!(run(), clean, "{backend:?}");
        }
    }

    /// §5.2 landing tiles start from the free list: cells no element reaches
    /// stay `+0.0` however poisoned the recycled buffer was.
    #[test]
    fn index_remap_landing_tiles_inherit_nothing_from_recycled_buffers() {
        let ctx = Context::builder().workers(2).chaos_off().build();
        let mut rng = StdRng::seed_from_u64(52);
        let a = LocalMatrix::random(64, 64, -1.0, 1.0, &mut rng);
        let mut env = PlanEnv::new();
        env.set_array(
            "A",
            DistArray::Matrix(TiledMatrix::from_local(&ctx, &a, 32, 4)),
        );
        env.set_int("n", 64);
        let config = PlanConfig {
            partitions: 4,
            ..Default::default()
        };
        // Separable (a row and a column table) and per-element landings,
        // both leaving three quarters of the grid untouched.
        for src in [
            "tiled(n,n)[ ((i/2, j/2), v) | ((i,j),v) <- A ]",
            "tiled(n,n)[ (((i+j)%(n/2), j/2), v) | ((i,j),v) <- A ]",
        ] {
            let planned = crate::plan::plan(&comp::parse_expr(src).unwrap(), &env, &config);
            assert_eq!(planned.unwrap().plan.strategy_name(), "indexRemap");
            let run = || {
                let out = crate::run_text(src, &env, &ctx, &config).unwrap();
                bits(out.into_matrix().unwrap().to_local().data())
            };
            let clean = run();
            poison_the_free_list(32 * 32, 64);
            assert_eq!(run(), clean, "{src}");
        }
    }
}
