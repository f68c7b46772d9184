//! Compiled scalar and index expressions.
//!
//! Tile kernels must not pay dynamic-dispatch or hashing costs per element,
//! so the planner compiles the scalar fragments of a comprehension (head
//! values, guards, index maps) into small slot-addressed expression trees
//! over `f64` / `i64`. An index map is evaluated a tile or an axis at a time
//! ([`IdxFn::eval_batch`]).

use crate::env::PlanEnv;
use comp::ast::{BinOp, Expr, UnOp};
use comp::errors::CompError;
use comp::Value;

/// A scalar (`f64`) expression over a fixed set of variable slots.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarFn {
    Const(f64),
    /// Slot index into the argument array.
    Var(usize),
    Add(Box<ScalarFn>, Box<ScalarFn>),
    Sub(Box<ScalarFn>, Box<ScalarFn>),
    Mul(Box<ScalarFn>, Box<ScalarFn>),
    Div(Box<ScalarFn>, Box<ScalarFn>),
    Neg(Box<ScalarFn>),
    Abs(Box<ScalarFn>),
    Sqrt(Box<ScalarFn>),
    /// `if cond != 0 then a else b` (conditions compile comparisons to 0/1).
    If(Box<ScalarFn>, Box<ScalarFn>, Box<ScalarFn>),
    /// Comparison producing 1.0 / 0.0.
    Cmp(BinOp, Box<ScalarFn>, Box<ScalarFn>),
}

impl ScalarFn {
    /// Compile `expr`, resolving variables against `slots` (slot `i` holds
    /// the variable named `slots[i]`; those from `first_index` on are integer
    /// indices) and inlining the scalars bound in `env`. `/` divides floats
    /// unless both operands are integers: then it is the interpreter's
    /// Euclidean division, folded when both are constant and otherwise a
    /// compile error, so the comprehension plans by a rule that keeps it.
    pub fn compile(
        expr: &Expr,
        slots: &[String],
        first_index: usize,
        env: &PlanEnv,
    ) -> Result<ScalarFn, CompError> {
        Ok(ScalarFn::typed(expr, slots, first_index, env)?.0)
    }

    /// [`ScalarFn::compile`], and whether the interpreter's value is an
    /// integer.
    fn typed(
        expr: &Expr,
        slots: &[String],
        first_index: usize,
        env: &PlanEnv,
    ) -> Result<(ScalarFn, bool), CompError> {
        let c = |e: &Expr| ScalarFn::typed(e, slots, first_index, env);
        Ok(match expr {
            Expr::Int(n) => (ScalarFn::Const(*n as f64), true),
            Expr::Float(x) => (ScalarFn::Const(*x), false),
            Expr::Bool(b) => (ScalarFn::Const(if *b { 1.0 } else { 0.0 }), false),
            Expr::Var(v) => match (slots.iter().position(|s| s == v), env.scalar(v)) {
                (Some(i), _) => (ScalarFn::Var(i), i >= first_index),
                (None, Some(Value::Int(n))) => (ScalarFn::Const(*n as f64), true),
                (None, Some(Value::Float(x))) => (ScalarFn::Const(*x), false),
                _ => {
                    return Err(CompError::plan(format!(
                        "variable `{v}` is not an element variable or registered scalar"
                    )))
                }
            },
            Expr::BinOp(op, a, b) => {
                let ((a, a_int), (b, b_int)) = (c(a)?, c(b)?);
                let int = a_int && b_int;
                let (a, b) = (Box::new(a), Box::new(b));
                match op {
                    BinOp::Add => (ScalarFn::Add(a, b), int),
                    BinOp::Sub => (ScalarFn::Sub(a, b), int),
                    BinOp::Mul => (ScalarFn::Mul(a, b), int),
                    BinOp::Div if int => (ScalarFn::Const(int_div(&a, &b)?), true),
                    BinOp::Div => (ScalarFn::Div(a, b), false),
                    BinOp::And => (ScalarFn::Mul(a, b), false),
                    BinOp::Or => {
                        // a || b  ==  min(a + b, 1) for 0/1 operands.
                        let sum = Box::new(ScalarFn::Add(a, b));
                        let zero = Box::new(ScalarFn::Const(0.0));
                        (ScalarFn::Cmp(BinOp::Gt, sum, zero), false)
                    }
                    cmp if cmp.is_comparison() => (ScalarFn::Cmp(*cmp, a, b), false),
                    other => {
                        return Err(CompError::plan(format!(
                            "operator {other} is not a scalar operation"
                        )))
                    }
                }
            }
            Expr::UnOp(UnOp::Neg, e) => {
                let (e, int) = c(e)?;
                (ScalarFn::Neg(Box::new(e)), int)
            }
            Expr::UnOp(UnOp::Not, e) => {
                let one = Box::new(ScalarFn::Const(1.0));
                (ScalarFn::Sub(one, Box::new(c(e)?.0)), false)
            }
            Expr::If(cond, t, f) => {
                let cond = Box::new(c(cond)?.0);
                let ((t, t_int), (f, f_int)) = (c(t)?, c(f)?);
                (ScalarFn::If(cond, Box::new(t), Box::new(f)), t_int && f_int)
            }
            Expr::Call(f, args) if f == "abs" && args.len() == 1 => {
                let (e, int) = c(&args[0])?;
                (ScalarFn::Abs(Box::new(e)), int)
            }
            Expr::Call(f, args) if f == "sqrt" && args.len() == 1 => {
                (ScalarFn::Sqrt(Box::new(c(&args[0])?.0)), false)
            }
            other => {
                return Err(CompError::plan(format!(
                    "expression is not a compilable scalar: {other}"
                )))
            }
        })
    }

    /// The value, if the expression reads no slot.
    fn constant(&self) -> Option<f64> {
        fn reads_no_slot(f: &ScalarFn) -> bool {
            match f {
                ScalarFn::Const(_) => true,
                ScalarFn::Var(_) => false,
                ScalarFn::Neg(a) | ScalarFn::Abs(a) | ScalarFn::Sqrt(a) => reads_no_slot(a),
                ScalarFn::Add(a, b)
                | ScalarFn::Sub(a, b)
                | ScalarFn::Mul(a, b)
                | ScalarFn::Div(a, b)
                | ScalarFn::Cmp(_, a, b) => reads_no_slot(a) && reads_no_slot(b),
                ScalarFn::If(c, t, f) => reads_no_slot(c) && reads_no_slot(t) && reads_no_slot(f),
            }
        }
        reads_no_slot(self).then(|| self.eval(&[]))
    }

    /// Evaluate over the slot values.
    pub fn eval(&self, vars: &[f64]) -> f64 {
        match self {
            ScalarFn::Const(x) => *x,
            ScalarFn::Var(i) => vars[*i],
            ScalarFn::Add(a, b) => a.eval(vars) + b.eval(vars),
            ScalarFn::Sub(a, b) => a.eval(vars) - b.eval(vars),
            ScalarFn::Mul(a, b) => a.eval(vars) * b.eval(vars),
            ScalarFn::Div(a, b) => a.eval(vars) / b.eval(vars),
            ScalarFn::Neg(a) => -a.eval(vars),
            ScalarFn::Abs(a) => a.eval(vars).abs(),
            ScalarFn::Sqrt(a) => a.eval(vars).sqrt(),
            ScalarFn::If(c, t, f) => {
                if c.eval(vars) != 0.0 {
                    t.eval(vars)
                } else {
                    f.eval(vars)
                }
            }
            ScalarFn::Cmp(op, a, b) => {
                let (x, y) = (a.eval(vars), b.eval(vars));
                let r = match op {
                    BinOp::Eq => x == y,
                    BinOp::Ne => x != y,
                    BinOp::Lt => x < y,
                    BinOp::Le => x <= y,
                    BinOp::Gt => x > y,
                    BinOp::Ge => x >= y,
                    _ => unreachable!("non-comparison in Cmp"),
                };
                if r {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// True if this is exactly `Var(a) * Var(b)` — the GEMM fast-path probe.
    pub fn is_product_of(&self, a: usize, b: usize) -> bool {
        matches!(self, ScalarFn::Mul(x, y)
            if **x == ScalarFn::Var(a) && **y == ScalarFn::Var(b))
    }
}

/// Integer `a / b` with both operands constant: the interpreter's
/// Euclidean division, or its error on a zero divisor. With a variable
/// operand there is no float program for it.
fn int_div(a: &ScalarFn, b: &ScalarFn) -> Result<f64, CompError> {
    let (Some(a), Some(b)) = (a.constant(), b.constant()) else {
        return Err(CompError::plan(
            "integer division of an index is not a float operation",
        ));
    };
    if b == 0.0 {
        return Err(CompError::eval("integer division by zero"));
    }
    Ok((a as i64).div_euclid(b as i64) as f64)
}

/// An integer index expression over index-variable slots (for tile
/// coordinate maps, rule 19's `f(k)`).
#[derive(Debug, Clone, PartialEq)]
pub enum IdxFn {
    Const(i64),
    Var(usize),
    Add(Box<IdxFn>, Box<IdxFn>),
    Sub(Box<IdxFn>, Box<IdxFn>),
    Mul(Box<IdxFn>, Box<IdxFn>),
    /// Euclidean division (the paper's `i/N` tile coordinates).
    Div(Box<IdxFn>, Box<IdxFn>),
    /// Euclidean remainder (`i%N`).
    Mod(Box<IdxFn>, Box<IdxFn>),
    Neg(Box<IdxFn>),
}

impl IdxFn {
    /// Compile an index expression; variables resolve against `slots`,
    /// other names against `consts` (registered integer scalars like `n`).
    pub fn compile(
        expr: &Expr,
        slots: &[String],
        consts: &dyn Fn(&str) -> Option<i64>,
    ) -> Result<IdxFn, CompError> {
        let c = |e: &Expr| IdxFn::compile(e, slots, consts);
        Ok(match expr {
            Expr::Int(n) => IdxFn::Const(*n),
            Expr::Var(v) => match slots.iter().position(|s| s == v) {
                Some(i) => IdxFn::Var(i),
                None => match consts(v) {
                    Some(x) => IdxFn::Const(x),
                    None => {
                        return Err(CompError::plan(format!(
                            "variable `{v}` is not an index variable or registered scalar"
                        )))
                    }
                },
            },
            Expr::BinOp(op, a, b) => {
                let (a, b) = (Box::new(c(a)?), Box::new(c(b)?));
                match op {
                    BinOp::Add => IdxFn::Add(a, b),
                    BinOp::Sub => IdxFn::Sub(a, b),
                    BinOp::Mul => IdxFn::Mul(a, b),
                    BinOp::Div => IdxFn::Div(a, b),
                    BinOp::Mod => IdxFn::Mod(a, b),
                    other => {
                        return Err(CompError::plan(format!(
                            "operator {other} is not an index operation"
                        )))
                    }
                }
            }
            Expr::UnOp(UnOp::Neg, e) => IdxFn::Neg(Box::new(c(e)?)),
            other => {
                return Err(CompError::plan(format!(
                    "expression is not a compilable index map: {other}"
                )))
            }
        })
    }

    /// Evaluate at `len` points at once: `vars[s]` holds slot `s` at every
    /// point (a slot the expression never reads may be empty). The tree is
    /// walked once per call, each node running one loop over the points — a
    /// per-tile or per-axis evaluation, never a per-element tree walk. A
    /// zero divisor is the reference interpreter's error, not a panic.
    pub fn eval_batch(&self, vars: &[&[i64]], len: usize) -> Result<Vec<i64>, CompError> {
        let zip = |a: &IdxFn, b: &IdxFn, f: fn(i64, i64) -> Option<i64>, err: &str| {
            let (mut x, y) = (a.eval_batch(vars, len)?, b.eval_batch(vars, len)?);
            for (x, &y) in x.iter_mut().zip(&y) {
                *x = f(*x, y).ok_or_else(|| CompError::eval(err))?;
            }
            Ok(x)
        };
        match self {
            IdxFn::Const(x) => Ok(vec![*x; len]),
            IdxFn::Var(i) => Ok(vars[*i].to_vec()),
            IdxFn::Add(a, b) => zip(a, b, |x, y| Some(x + y), ""),
            IdxFn::Sub(a, b) => zip(a, b, |x, y| Some(x - y), ""),
            IdxFn::Mul(a, b) => zip(a, b, |x, y| Some(x * y), ""),
            IdxFn::Div(a, b) => zip(
                a,
                b,
                |x, y| (y != 0).then(|| x.div_euclid(y)),
                "integer division by zero",
            ),
            IdxFn::Mod(a, b) => zip(
                a,
                b,
                |x, y| (y != 0).then(|| x.rem_euclid(y)),
                "integer modulo by zero",
            ),
            IdxFn::Neg(a) => Ok(a.eval_batch(vars, len)?.into_iter().map(|x| -x).collect()),
        }
    }

    /// Whether the expression reads slot `slot`.
    pub fn reads(&self, slot: usize) -> bool {
        match self {
            IdxFn::Const(_) => false,
            IdxFn::Var(i) => *i == slot,
            IdxFn::Neg(a) => a.reads(slot),
            IdxFn::Add(a, b)
            | IdxFn::Sub(a, b)
            | IdxFn::Mul(a, b)
            | IdxFn::Div(a, b)
            | IdxFn::Mod(a, b) => a.reads(slot) || b.reads(slot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comp::parser::parse_expr;

    /// Compile over float slots `slots` then index slots `indices`.
    fn try_compile(
        src: &str,
        slots: &[&str],
        indices: &[&str],
        env: &PlanEnv,
    ) -> Result<ScalarFn, CompError> {
        let all: Vec<String> = slots.iter().chain(indices).map(|s| s.to_string()).collect();
        ScalarFn::compile(&parse_expr(src).unwrap(), &all, slots.len(), env)
    }

    fn compile_s(src: &str, slots: &[&str]) -> ScalarFn {
        try_compile(src, slots, &[], &PlanEnv::new()).unwrap()
    }

    #[test]
    fn arithmetic_and_slots() {
        let f = compile_s("a * b + 2.0", &["a", "b"]);
        assert_eq!(f.eval(&[3.0, 4.0]), 14.0);
    }

    #[test]
    fn product_probe() {
        let f = compile_s("a * b", &["a", "b"]);
        assert!(f.is_product_of(0, 1));
        assert!(!f.is_product_of(1, 0));
        assert!(!compile_s("a + b", &["a", "b"]).is_product_of(0, 1));
    }

    #[test]
    fn comparisons_produce_indicator() {
        let f = compile_s("a > 10", &["a"]);
        assert_eq!(f.eval(&[11.0]), 1.0);
        assert_eq!(f.eval(&[9.0]), 0.0);
    }

    #[test]
    fn if_and_builtins() {
        let f = compile_s("if (a > 0) sqrt(a) else abs(a)", &["a"]);
        assert_eq!(f.eval(&[4.0]), 2.0);
        assert_eq!(f.eval(&[-3.0]), 3.0);
    }

    #[test]
    fn consts_inline() {
        let mut env = PlanEnv::new();
        env.set_float("gamma", 0.5);
        let f = try_compile("a * gamma", &["a"], &[], &env).unwrap();
        assert_eq!(f.eval(&[8.0]), 4.0);
    }

    #[test]
    fn non_scalar_operator_is_an_error() {
        // `%` used to compile to a `Cmp` node that panicked when evaluated.
        assert!(try_compile("a % 2", &["a"], &[], &PlanEnv::new()).is_err());
    }

    #[test]
    fn unknown_variable_is_an_error() {
        assert!(try_compile("a + z", &["a"], &[], &PlanEnv::new()).is_err());
    }

    #[test]
    fn integer_division_keeps_the_interpreters_semantics() {
        let mut env = PlanEnv::new();
        env.set_int("n", 7);
        let compile = |src: &str| try_compile(src, &["a"], &["i"], &env);
        // Two constant integers fold with Euclidean division.
        assert_eq!(compile("a * (3/2)").unwrap().eval(&[5.0, 0.0]), 5.0);
        assert_eq!(compile("a + (-n)/2").unwrap().eval(&[0.0, 0.0]), -4.0);
        // A float operand divides as floats.
        assert_eq!(compile("a / 2").unwrap().eval(&[3.0, 0.0]), 1.5);
        assert_eq!(compile("a + i/2.0").unwrap().eval(&[0.0, 3.0]), 1.5);
        // An index divided by an integer has no float program.
        assert!(compile("a + i/2").is_err());
        assert!(compile("a * (n/i)").is_err());
        let err = compile("a * (n/0)").unwrap_err();
        assert!(
            err.to_string().contains("integer division by zero"),
            "{err}"
        );
    }

    fn compile_i(src: &str, slots: &[&str]) -> IdxFn {
        let slots: Vec<String> = slots.iter().map(|s| s.to_string()).collect();
        IdxFn::compile(&parse_expr(src).unwrap(), &slots, &|_| None).unwrap()
    }

    fn eval_i(f: &IdxFn, points: &[i64]) -> Vec<i64> {
        f.eval_batch(&[points], points.len()).unwrap()
    }

    #[test]
    fn index_rotation_map() {
        let f = compile_i("(i + 1) % 4", &["i"]);
        assert_eq!(eval_i(&f, &[0, 1, 2, 3]), [1, 2, 3, 0]);
    }

    #[test]
    fn index_slot_probe() {
        let slots = ["i", "j"];
        assert!(compile_i("i + 0", &slots).reads(0));
        assert!(!compile_i("i + 0", &slots).reads(1));
        assert!(compile_i("(i + j) % 4", &slots).reads(1));
        assert!(!compile_i("-(3 * 2)", &slots).reads(0));
    }

    #[test]
    fn euclidean_semantics() {
        assert_eq!(eval_i(&compile_i("i / 4", &["i"]), &[-1, 7]), [-1, 1]);
        assert_eq!(eval_i(&compile_i("i % 4", &["i"]), &[-1, 7]), [3, 3]);
    }

    #[test]
    fn zero_divisor_is_an_error_not_a_panic() {
        for src in ["i / (i - 2)", "i % (i - 2)"] {
            let f = compile_i(src, &["i"]);
            assert!(f.eval_batch(&[&[1, 3]], 2).is_ok(), "{src}");
            let err = f.eval_batch(&[&[1, 2, 3]], 3).unwrap_err();
            assert!(err.to_string().contains("by zero"), "{src}: {err}");
        }
    }
}
