//! A loop body run as one program: the statements of a translated loop
//! program (`diablo::translate`), planned in order against one environment
//! in which a later statement reads an earlier one's output by name.
//!
//! What makes the run one program rather than a series of queries: each
//! intermediate is evaluated once. An output is persisted through the block
//! manager only if two or more later statements read it — a second reader
//! would otherwise evaluate its lineage again. An output read once stays
//! lazy: its one reader pipelines it.
//!
//! Every statement plans to exactly the node, strategy and partition count
//! it gets as a query of its own over the same bindings, so the program's
//! outputs are the statement-at-a-time outputs bit for bit.

use crate::env::{DistArray, PlanEnv};
use crate::exec::{execute, ExecResult};
use crate::plan::{plan, PlanConfig};
use comp::ast::Expr;
use comp::errors::CompError;
use sparkline::Context;

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
    let mut outputs = Vec::with_capacity(statements.len());
    for (at, (name, expr)) in statements.iter().enumerate() {
        let unbound = expr
            .free_vars()
            .into_iter()
            .find(|v| env.array(v).is_none() && env.scalar(v).is_none());
        if let Some(v) = unbound {
            return Err(CompError::plan(format!(
                "statement {} (`{name}`) reads `{v}`, which nothing binds",
                at + 1
            )));
        }
        let planned = plan(expr, &env, config)?;
        let mut result = execute(&planned, &env, ctx, config)?;
        if readers(name, &statements[at + 1..]) >= 2 {
            result = persisted(result);
        }
        match &result {
            ExecResult::Matrix(m) => env.set_array(name, DistArray::Matrix(m.clone())),
            ExecResult::Vector(v) => env.set_array(name, DistArray::Vector(v.clone())),
            ExecResult::Local(value) => env.set_scalar(name, value.clone()),
        }
        outputs.push((name.clone(), result));
    }
    Ok(outputs)
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

fn persisted(result: ExecResult) -> ExecResult {
    match result {
        ExecResult::Matrix(m) => ExecResult::Matrix(m.persist()),
        ExecResult::Vector(v) => ExecResult::Vector(v.persist()),
        local => local,
    }
}
