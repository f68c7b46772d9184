//! Compiled scalar and index expressions.
//!
//! Tile kernels must not pay dynamic-dispatch or hashing costs per element,
//! so the planner compiles the scalar fragments of a comprehension once, on
//! the driver, into the forms tasks run: head values, guards and finalizers
//! straight to one postfix [`FusedProgram`] over `f64` slots ([`compile`]),
//! which `tiled::fused` runs a tile or a row at a time, and index maps to
//! [`IdxFn`] trees over `i64` — Euclidean integer arithmetic, which an `f64`
//! program cannot express — evaluated a tile or an axis at a time
//! ([`IdxFn::eval_batch`]).
//!
//! # Emission rules
//!
//! Program slot `s` is the variable named `slots[s]`. For an elementwise
//! region over `k` inputs, slots `0..k` are the input tiles' values and slots
//! `k`, `k + 1` the global row and column index planes, which the executor
//! materializes per tile only when `program.n_slots() > k` (a vector block is
//! an `n x 1` tile, so its element index is the row plane). `&&` is `*`,
//! `||` is `(a + b) > 0`, `!e` is `1 - e`, `if` is `select`, and comparisons
//! are 0/1 indicators. A guard masks as `select(guard, value, 0.0)`, so
//! failing elements are `+0.0`.
//!
//! # Determinism
//!
//! The program is the per-element op chain of the source expression — plain
//! `+ - * /`, no FMA contraction, no reassociation. An op whose operands are
//! all constants is folded while it is emitted, by the same IEEE-754
//! operation each element would perform ([`FusedProgram::eval_scalar`]), and
//! a constant `if` condition or guard keeps only the taken side, since
//! selection is by value: folding never moves a bit, on any backend or
//! thread count.

use crate::env::PlanEnv;
use comp::ast::{BinOp, Expr, UnOp};
use comp::errors::CompError;
use comp::Value;
use tiled::fused::{CmpOp, ElemwiseOp, FusedProgram};

/// Compile `value` — masked by `guard`, when there is one — into one fused
/// program, resolving variables against `slots` (slot `i` holds the variable
/// named `slots[i]`; those from `first_index` on are integer indices) and
/// inlining the scalars bound in `env`. `/` divides floats unless both
/// operands are integers: then it is the interpreter's Euclidean division,
/// folded when both are constant and otherwise a compile error, so the
/// comprehension plans by a rule that keeps it.
pub fn compile(
    value: &Expr,
    guard: Option<&Expr>,
    slots: &[String],
    first_index: usize,
    env: &PlanEnv,
) -> Result<FusedProgram, CompError> {
    let emit = |e: &Expr| {
        let mut emitter = Emitter {
            slots,
            first_index,
            env,
            ops: Vec::new(),
        };
        let folded = emitter.emit(e)?.constant;
        Ok::<_, CompError>((emitter.ops, folded))
    };
    let (value, _) = emit(value)?;
    let ops = match guard.map(emit).transpose()? {
        None => value,
        // A constant guard masks uniformly: only the taken side is emitted.
        Some((_, Some(g))) if g != 0.0 => value,
        Some((_, Some(_))) => vec![ElemwiseOp::Const(0.0)],
        // Postfix order: condition, then, else.
        Some((mut ops, None)) => {
            ops.extend(value);
            ops.extend([ElemwiseOp::Const(0.0), ElemwiseOp::Select]);
            ops
        }
    };
    FusedProgram::new(ops).map_err(CompError::plan)
}

/// An emitted subexpression: whether the interpreter's value is an integer,
/// and its value when it folded to one `Const` op.
#[derive(Clone, Copy)]
struct Emitted {
    int: bool,
    constant: Option<f64>,
}

/// Post-order emission of one expression's postfix ops.
struct Emitter<'a> {
    slots: &'a [String],
    first_index: usize,
    env: &'a PlanEnv,
    ops: Vec<ElemwiseOp>,
}

impl Emitter<'_> {
    fn emit(&mut self, expr: &Expr) -> Result<Emitted, CompError> {
        Ok(match expr {
            Expr::Int(n) => self.constant(*n as f64, true),
            Expr::Float(x) => self.constant(*x, false),
            Expr::Bool(b) => self.constant(if *b { 1.0 } else { 0.0 }, false),
            Expr::Var(v) => match (self.slots.iter().position(|s| s == v), self.env.scalar(v)) {
                (Some(i), _) => {
                    self.ops.push(ElemwiseOp::Slot(i));
                    Emitted {
                        int: i >= self.first_index,
                        constant: None,
                    }
                }
                (None, Some(Value::Int(n))) => self.constant(*n as f64, true),
                (None, Some(Value::Float(x))) => self.constant(*x, false),
                _ => {
                    return Err(CompError::plan(format!(
                        "variable `{v}` is not an element variable or registered scalar"
                    )))
                }
            },
            Expr::BinOp(op, a, b) => {
                let start = self.ops.len();
                let (a, b) = (self.emit(a)?, self.emit(b)?);
                let int = a.int && b.int;
                match op {
                    BinOp::Add => self.apply(ElemwiseOp::Add, &[a, b], int),
                    BinOp::Sub => self.apply(ElemwiseOp::Sub, &[a, b], int),
                    BinOp::Mul => self.apply(ElemwiseOp::Mul, &[a, b], int),
                    BinOp::Div if int => {
                        let quotient = int_div(a.constant, b.constant)?;
                        self.ops.truncate(start);
                        self.constant(quotient, true)
                    }
                    BinOp::Div => self.apply(ElemwiseOp::Div, &[a, b], false),
                    BinOp::And => self.apply(ElemwiseOp::Mul, &[a, b], false),
                    BinOp::Or => {
                        // a || b  ==  (a + b) > 0 for 0/1 operands.
                        let sum = self.apply(ElemwiseOp::Add, &[a, b], false);
                        let zero = self.constant(0.0, false);
                        self.apply(ElemwiseOp::Cmp(CmpOp::Gt), &[sum, zero], false)
                    }
                    other => {
                        let Some(cmp) = cmp_op(*other) else {
                            return Err(CompError::plan(format!(
                                "operator {other} is not a scalar operation"
                            )));
                        };
                        self.apply(ElemwiseOp::Cmp(cmp), &[a, b], false)
                    }
                }
            }
            Expr::UnOp(UnOp::Neg, e) => {
                let e = self.emit(e)?;
                self.apply(ElemwiseOp::Neg, &[e], e.int)
            }
            Expr::UnOp(UnOp::Not, e) => {
                let one = self.constant(1.0, false);
                let e = self.emit(e)?;
                self.apply(ElemwiseOp::Sub, &[one, e], false)
            }
            Expr::If(cond, t, f) => {
                let start = self.ops.len();
                let cond = self.emit(cond)?.constant;
                let then_at = self.ops.len();
                let t = self.emit(t)?;
                let else_at = self.ops.len();
                let f = self.emit(f)?;
                let int = t.int && f.int;
                let Some(cond) = cond else {
                    self.ops.push(ElemwiseOp::Select);
                    return Ok(Emitted {
                        int,
                        constant: None,
                    });
                };
                // Selection is by value, so keeping only the taken branch
                // yields the same bits per element.
                let (taken, kept) = if cond != 0.0 {
                    (t, then_at..else_at)
                } else {
                    (f, else_at..self.ops.len())
                };
                let kept: Vec<ElemwiseOp> = self.ops.drain(kept).collect();
                self.ops.truncate(start);
                self.ops.extend(kept);
                Emitted {
                    int,
                    constant: taken.constant,
                }
            }
            Expr::Call(f, args) if f == "abs" && args.len() == 1 => {
                let e = self.emit(&args[0])?;
                self.apply(ElemwiseOp::Abs, &[e], e.int)
            }
            Expr::Call(f, args) if f == "sqrt" && args.len() == 1 => {
                let e = self.emit(&args[0])?;
                self.apply(ElemwiseOp::Sqrt, &[e], false)
            }
            other => {
                return Err(CompError::plan(format!(
                    "expression is not a compilable scalar: {other}"
                )))
            }
        })
    }

    fn constant(&mut self, value: f64, int: bool) -> Emitted {
        self.ops.push(ElemwiseOp::Const(value));
        Emitted {
            int,
            constant: Some(value),
        }
    }

    /// Push `op` over its just-emitted `args`; when every one folded, the
    /// operands and `op` fold into one constant instead.
    fn apply(&mut self, op: ElemwiseOp, args: &[Emitted], int: bool) -> Emitted {
        self.ops.push(op);
        if args.iter().any(|a| a.constant.is_none()) {
            return Emitted {
                int,
                constant: None,
            };
        }
        // Each folded operand is exactly one `Const` op.
        let folded = self.ops.split_off(self.ops.len() - args.len() - 1);
        let value = FusedProgram::new(folded)
            .expect("constant operands and their op are a valid program")
            .eval_scalar(&[]);
        self.constant(value, int)
    }
}

/// The indicator op of a comparison operator.
fn cmp_op(op: BinOp) -> Option<CmpOp> {
    Some(match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::Ne => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        _ => return None,
    })
}

/// Integer `a / b` with both operands constant: the interpreter's
/// Euclidean division, or its error on a zero divisor. With a variable
/// operand there is no float program for it.
fn int_div(a: Option<f64>, b: Option<f64>) -> Result<f64, CompError> {
    let (Some(a), Some(b)) = (a, b) else {
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
        guard: Option<&str>,
        (slots, indices): (&[&str], &[&str]),
        env: &PlanEnv,
    ) -> Result<FusedProgram, CompError> {
        let all: Vec<String> = slots.iter().chain(indices).map(|s| s.to_string()).collect();
        let guard = guard.map(|g| parse_expr(g).unwrap());
        compile(
            &parse_expr(src).unwrap(),
            guard.as_ref(),
            &all,
            slots.len(),
            env,
        )
    }

    fn compile_s(src: &str, slots: &[&str]) -> FusedProgram {
        try_compile(src, None, (slots, &[]), &PlanEnv::new()).unwrap()
    }

    #[test]
    fn arithmetic_and_slots() {
        let f = compile_s("a * b + 2.0", &["a", "b"]);
        assert_eq!(f.signature(), "s0;s1;mul;c2.0;add");
        assert_eq!(f.eval_scalar(&[3.0, 4.0]), 14.0);
    }

    #[test]
    fn identity_and_product_are_their_op_sequences() {
        use ElemwiseOp::{Mul, Slot};
        let ab = ["a", "b"];
        assert_eq!(compile_s("a", &ab).ops(), [Slot(0)]);
        assert_eq!(compile_s("a * b", &ab).ops(), [Slot(0), Slot(1), Mul]);
        assert_ne!(compile_s("b * a", &ab).ops(), [Slot(0), Slot(1), Mul]);
    }

    #[test]
    fn comparisons_produce_indicator() {
        let f = compile_s("a > 10", &["a"]);
        assert_eq!(f.eval_scalar(&[11.0]), 1.0);
        assert_eq!(f.eval_scalar(&[9.0]), 0.0);
    }

    #[test]
    fn if_and_builtins() {
        let f = compile_s("if (a > 0) sqrt(a) else abs(a)", &["a"]);
        assert_eq!(f.eval_scalar(&[4.0]), 2.0);
        assert_eq!(f.eval_scalar(&[-3.0]), 3.0);
    }

    #[test]
    fn consts_inline_and_fold() {
        let mut env = PlanEnv::new();
        env.set_float("gamma", 0.5);
        let f = try_compile("a * (gamma * 4.0)", None, (&["a"], &[]), &env).unwrap();
        assert_eq!(f.signature(), "s0;c2.0;mul");
        assert_eq!(f.eval_scalar(&[8.0]), 16.0);
    }

    #[test]
    fn guards_select_and_constant_conditions_keep_the_taken_side() {
        let env = PlanEnv::new();
        let slots: (&[&str], &[&str]) = (&["a", "b"], &[]);
        let sig = |src: &str, guard: Option<&str>| {
            try_compile(src, guard, slots, &env).unwrap().signature()
        };
        let guarded = try_compile("a", Some("b > 0.0"), slots, &env).unwrap();
        assert_eq!(guarded.signature(), "s1;c0.0;gt;s0;c0.0;select");
        assert_eq!(guarded.eval_scalar(&[7.0, 1.0]).to_bits(), 7.0f64.to_bits());
        assert_eq!(
            guarded.eval_scalar(&[7.0, -1.0]).to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(sig("a", Some("2 > 1")), "s0");
        assert_eq!(sig("a", Some("1 > 2 || false")), "c0.0");
        assert_eq!(sig("if (1 > 2) a else b * 2.0", None), "s1;c2.0;mul");
        // The taken branch's constant folds on into its parent.
        assert_eq!(sig("a + (if (true) 2.0 else b) * 3.0", None), "s0;c6.0;add");
    }

    #[test]
    fn index_planes_are_ordinary_slots() {
        // With 2 inputs, slot 2 is the row plane: `n_slots() > 2` is the
        // executor's cue to materialize the index planes.
        let p = try_compile("a + i", None, (&["a", "b"], &["i", "j"]), &PlanEnv::new()).unwrap();
        assert_eq!(p.signature(), "s0;s2;add");
        assert_eq!(p.n_slots(), 3);
    }

    #[test]
    fn non_scalar_operator_is_an_error() {
        // `%` has no float program.
        assert!(try_compile("a % 2", None, (&["a"], &[]), &PlanEnv::new()).is_err());
    }

    #[test]
    fn unknown_variable_is_an_error() {
        assert!(try_compile("a + z", None, (&["a"], &[]), &PlanEnv::new()).is_err());
    }

    #[test]
    fn integer_division_keeps_the_interpreters_semantics() {
        let mut env = PlanEnv::new();
        env.set_int("n", 7);
        let compile = |src: &str| try_compile(src, None, (&["a"], &["i"]), &env);
        // Two constant integers fold with Euclidean division.
        assert_eq!(compile("a * (3/2)").unwrap().eval_scalar(&[5.0, 0.0]), 5.0);
        assert_eq!(
            compile("a + (-n)/2").unwrap().eval_scalar(&[0.0, 0.0]),
            -4.0
        );
        // A float operand divides as floats.
        assert_eq!(compile("a / 2").unwrap().eval_scalar(&[3.0, 0.0]), 1.5);
        assert_eq!(compile("a + i/2.0").unwrap().eval_scalar(&[0.0, 3.0]), 1.5);
        // An index divided by an integer has no float program.
        assert!(compile("a + i/2").is_err());
        assert!(compile("a * (n/i)").is_err());
        let err = compile("a * (n/0)").unwrap_err();
        assert!(
            err.to_string().contains("integer division by zero"),
            "{err}"
        );
    }

    /// The emitted program has the reference interpreter's bits, element by
    /// element, across selection, logic, division and the builtins.
    #[test]
    fn compiled_program_matches_the_interpreter_bitwise() {
        let src = "if (a > x && !(a == 0.0) || x < -1.0) a - x else x / a + abs(a) * 0.25";
        let p = compile_s(src, &["a", "x"]);
        let expr = parse_expr(src).unwrap();
        for i in 0..100 {
            let (a, x) = ((i as f64) * 0.37 - 18.0, (i as f64) * -0.11 + 2.0);
            let mut env = comp::Env::new();
            env.bind("a", Value::Float(a));
            env.bind("x", Value::Float(x));
            let want = comp::eval(&expr, &mut env).unwrap().as_f64().unwrap();
            let got = p.eval_scalar(&[a, x]);
            assert_eq!(got.to_bits(), want.to_bits(), "case {i}");
        }
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
