//! A loop body run as one program: the statements of a translated loop
//! program (`diablo::translate`), planned in order against one environment
//! in which a later statement reads an earlier one's output by name.
//!
//! What makes the run one program rather than a series of queries: each
//! intermediate is evaluated once, and stored only where a second
//! evaluation would repeat work. An output two or more later statements
//! read is persisted through the block manager — a second reader would
//! otherwise evaluate its lineage again. An output read once stays lazy:
//! its one reader pipelines it.
//!
//! One pattern spans two statements, the *cover*: a statement planned to
//! `contraction/groupByJoin` that exactly one later statement reads, where
//! that reader is planned to `eltwise/fused` over a matrix and joins every
//! input narrowly — each is laid out on the product's `GridCells` at the
//! reader's partition count. The reader's fused join then runs on the
//! cells' output tiles in the cells' own tasks, so only the reader's result
//! is persisted, under the cover's tag; the product's handle is returned
//! lazy and multiplies again only if a caller reads it. A product whose
//! reader does not cover it is persisted before that reader runs, as a
//! query of its own persists it. Fig. 4.C's step is three covers:
//! `PQ → E`, `EQ → P2` and `ETP → Q2`.
//!
//! Every statement still runs the table row and partition count it gets as
//! a query of its own over the same bindings, and a cover changes only what
//! is stored, never an operation or its order: the program's outputs are
//! the statement-at-a-time outputs bit for bit.

use crate::env::{DistArray, PlanEnv};
use crate::exec::{lower, resolved_partitions, ExecResult};
use crate::plan::{plan, Node, OutputKind, PlanConfig, Planned};
use comp::ast::Expr;
use comp::errors::CompError;
use sparkline::Context;

/// The plan-node tag of a cover's reader, on the stage that runs the
/// product's cells and the reader's fused join together.
const COVER: &str = "contraction/groupByJoin+eltwise/fused";

/// Run `statements` — `(output name, builder expression)` in program order
/// — against `env` and return each statement's output, in order. A
/// statement that reads a name neither `env` nor an earlier statement binds
/// is an error, and so is any statement that fails to plan or execute; no
/// later statement runs then.
pub fn run(
    statements: &[(String, Expr)],
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
) -> Result<Vec<(String, ExecResult)>, CompError> {
    let mut env = env.clone();
    let mut outputs: Vec<(String, ExecResult)> = Vec::with_capacity(statements.len());
    // Group-by-join products stored by no one, each waiting for its one
    // reader: their places in `outputs`.
    let mut waiting: Vec<usize> = Vec::new();
    for (at, (name, expr)) in statements.iter().enumerate() {
        let reads = expr.free_vars();
        let unbound = reads
            .iter()
            .find(|v| env.array(v).is_none() && env.scalar(v).is_none());
        if let Some(v) = unbound {
            return Err(CompError::plan(format!(
                "statement {} (`{name}`) reads `{v}`, which nothing binds",
                at + 1
            )));
        }
        let planned = plan(expr, &env, config)?;
        let (read, unread) = waiting
            .into_iter()
            .partition(|&p| reads.contains(&outputs[p].0));
        waiting = unread;
        let products: Vec<&str> = read.iter().map(|&p| outputs[p].0.as_str()).collect();
        let cover = !read.is_empty() && covers(&planned, &products, &env, ctx, config);
        if !cover {
            for &p in &read {
                let stored = outputs[p].1.clone().persisted();
                bind(&mut env, &outputs[p].0, &stored);
                outputs[p].1 = stored;
            }
        }
        let tag = if cover {
            COVER
        } else {
            planned.plan.strategy_name()
        };
        let mut result = lower(&planned, &env, ctx, config, tag)?;
        let later = readers(name, &statements[at + 1..]);
        let product = planned.plan.is_group_by_join();
        if product && later == 1 {
            waiting.push(outputs.len());
        } else if product || cover || later >= 2 {
            result = result.persisted();
        }
        bind(&mut env, name, &result);
        outputs.push((name.clone(), result));
    }
    Ok(outputs)
}

/// `planned`, the one reader of the waiting `products`, covers them: a
/// matrix `eltwise/fused` plan that reads each product once and whose join
/// at its partition count is narrow on every input, so it runs in the
/// tasks of the products' cells.
fn covers(
    planned: &Planned,
    products: &[&str],
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
) -> bool {
    let (Node::FusedEltwise(node), OutputKind::Matrix { .. }) =
        (&planned.plan.node, &planned.output)
    else {
        return false;
    };
    let inputs = &node.inputs;
    if products
        .iter()
        .any(|p| inputs.iter().filter(|i| i == p).count() != 1)
    {
        return false;
    }
    let mats: Option<Vec<_>> = inputs
        .iter()
        .map(|name| env.array(name).and_then(DistArray::as_matrix))
        .collect();
    let Some(mats) = mats else { return false };
    let join = mats[0].grid_partitioner(resolved_partitions(planned, ctx, config));
    let narrow = Some((join.descriptor().to_string(), join.partitions()));
    mats.iter()
        .all(|m| m.tiles().partitioner_descriptor() == narrow)
}

/// Bind `name` to a statement's output for the statements after it.
fn bind(env: &mut PlanEnv, name: &str, result: &ExecResult) {
    match result {
        ExecResult::Matrix(m) => env.set_array(name, DistArray::Matrix(m.clone())),
        ExecResult::Vector(v) => env.set_array(name, DistArray::Vector(v.clone())),
        ExecResult::Local(value) => env.set_scalar(name, value.clone()),
    }
}

/// How many of `later` read `name` before a statement rebinds it (the
/// rebinding statement itself reads the old binding if it names it).
fn readers(name: &str, later: &[(String, Expr)]) -> usize {
    let mut count = 0;
    for (output, expr) in later {
        count += usize::from(expr.free_vars().contains(name));
        if output == name {
            break;
        }
    }
    count
}
