//! Trace-and-fuse: collapse an elementwise plan region into one tile
//! program.
//!
//! `plan_eltwise` compiles the head value and guard of an elementwise
//! comprehension (over matrices or vectors) into [`ScalarFn`] trees. This
//! pass traces the whole region — value, guard masking, scalar constants —
//! into a single postfix [`FusedProgram`] executed by
//! `tiled::kernel::fused_eltwise` in one pass per tile.
//!
//! # Region rules
//!
//! Every region fuses. `ScalarFn` slot `s` becomes program slot `s`: with
//! `k` inputs, slots `0..k` are the input tiles' values and slots `k`,
//! `k + 1` are the global row and column index planes, which the executor
//! materializes per tile only when `program.n_slots() > k` (a vector block
//! is an `n x 1` tile, so its element index is the row plane). Guards fold
//! into the program as `select(guard, value, 0.0)`, so failing elements are
//! `+0.0`.
//!
//! # Determinism
//!
//! The emitted program is the per-element op chain of [`ScalarFn::eval`] —
//! plain `+ - * /`, no FMA contraction, no reassociation — and constant
//! folding at trace time performs the same IEEE-754 operation each element
//! would have, so fused output is bit-identical to evaluating the source
//! expression element by element, on every backend and thread count.

use crate::scalar::ScalarFn;
use comp::ast::BinOp;
use tiled::fused::{CmpOp, ElemwiseOp, FusedProgram};

/// Trace an elementwise region (value + optional guard) into a fused
/// program over the slots the [`ScalarFn`]s were compiled against.
pub fn fuse_region(value: &ScalarFn, guard: Option<&ScalarFn>) -> FusedProgram {
    let mut ops = Vec::new();
    match guard.map(|g| trace(g, &mut ops)) {
        // Constant guard: the mask is uniform; emit only the taken side.
        Some(Some(gv)) => {
            ops.clear();
            if gv != 0.0 {
                trace(value, &mut ops);
            } else {
                ops.push(ElemwiseOp::Const(0.0));
            }
        }
        // select(guard, value, 0.0): postfix order cond, then, else.
        Some(None) => {
            trace(value, &mut ops);
            ops.push(ElemwiseOp::Const(0.0));
            ops.push(ElemwiseOp::Select);
        }
        None => {
            trace(value, &mut ops);
        }
    }
    FusedProgram::new(ops).expect("a traced expression tree is a valid postfix program")
}

/// Post-order linearization with constant folding. Returns the constant
/// value when the traced subtree folded to a single `Const` op, so parents
/// can fold further. Folding uses the same f64 arithmetic the runtime would
/// — a folded subtree's constant is bit-equal to its per-element result.
fn trace(f: &ScalarFn, ops: &mut Vec<ElemwiseOp>) -> Option<f64> {
    match f {
        ScalarFn::Const(x) => {
            ops.push(ElemwiseOp::Const(*x));
            Some(*x)
        }
        ScalarFn::Var(i) => {
            ops.push(ElemwiseOp::Slot(*i));
            None
        }
        ScalarFn::Add(a, b) => bin(a, b, ElemwiseOp::Add, |x, y| x + y, ops),
        ScalarFn::Sub(a, b) => bin(a, b, ElemwiseOp::Sub, |x, y| x - y, ops),
        ScalarFn::Mul(a, b) => bin(a, b, ElemwiseOp::Mul, |x, y| x * y, ops),
        ScalarFn::Div(a, b) => bin(a, b, ElemwiseOp::Div, |x, y| x / y, ops),
        ScalarFn::Neg(a) => un(a, ElemwiseOp::Neg, |x| -x, ops),
        ScalarFn::Abs(a) => un(a, ElemwiseOp::Abs, f64::abs, ops),
        ScalarFn::Sqrt(a) => un(a, ElemwiseOp::Sqrt, f64::sqrt, ops),
        ScalarFn::If(c, t, e) => {
            let start = ops.len();
            if let Some(cv) = trace(c, ops) {
                // Constant condition: selection is by value, so emitting
                // only the taken branch yields the same bits per element.
                ops.truncate(start);
                return trace(if cv != 0.0 { t } else { e }, ops);
            }
            trace(t, ops);
            trace(e, ops);
            ops.push(ElemwiseOp::Select);
            None
        }
        ScalarFn::Cmp(op, a, b) => {
            let cmp = match op {
                BinOp::Eq => CmpOp::Eq,
                BinOp::Ne => CmpOp::Ne,
                BinOp::Lt => CmpOp::Lt,
                BinOp::Le => CmpOp::Le,
                BinOp::Gt => CmpOp::Gt,
                BinOp::Ge => CmpOp::Ge,
                _ => unreachable!("non-comparison in Cmp"),
            };
            let fold = move |x: f64, y: f64| {
                let r = match cmp {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                };
                if r {
                    1.0
                } else {
                    0.0
                }
            };
            bin(a, b, ElemwiseOp::Cmp(cmp), fold, ops)
        }
    }
}

fn bin(
    a: &ScalarFn,
    b: &ScalarFn,
    op: ElemwiseOp,
    fold: impl Fn(f64, f64) -> f64,
    ops: &mut Vec<ElemwiseOp>,
) -> Option<f64> {
    let ca = trace(a, ops);
    let cb = trace(b, ops);
    if let (Some(x), Some(y)) = (ca, cb) {
        // Constant subtrees linearize to exactly one Const op each.
        ops.pop();
        ops.pop();
        let v = fold(x, y);
        ops.push(ElemwiseOp::Const(v));
        return Some(v);
    }
    ops.push(op);
    None
}

fn un(
    a: &ScalarFn,
    op: ElemwiseOp,
    fold: impl Fn(f64) -> f64,
    ops: &mut Vec<ElemwiseOp>,
) -> Option<f64> {
    if let Some(x) = trace(a, ops) {
        ops.pop();
        let v = fold(x);
        ops.push(ElemwiseOp::Const(v));
        return Some(v);
    }
    ops.push(op);
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(f: ScalarFn) -> Box<ScalarFn> {
        Box::new(f)
    }

    #[test]
    fn traces_value_to_postfix() {
        // a + b * 0.5
        let value = ScalarFn::Add(
            b(ScalarFn::Var(0)),
            b(ScalarFn::Mul(b(ScalarFn::Var(1)), b(ScalarFn::Const(0.5)))),
        );
        let p = fuse_region(&value, None);
        assert_eq!(p.signature(), "s0;s1;c0.5;mul;add");
    }

    #[test]
    fn constant_folding_collapses_scalar_subtrees() {
        // a * (2 * 3)  →  s0; c6; mul
        let value = ScalarFn::Mul(
            b(ScalarFn::Var(0)),
            b(ScalarFn::Mul(
                b(ScalarFn::Const(2.0)),
                b(ScalarFn::Const(3.0)),
            )),
        );
        let p = fuse_region(&value, None);
        assert_eq!(p.signature(), "s0;c6.0;mul");
    }

    #[test]
    fn guard_folds_to_select() {
        let value = ScalarFn::Var(0);
        let guard = ScalarFn::Cmp(BinOp::Gt, b(ScalarFn::Var(1)), b(ScalarFn::Const(0.0)));
        let p = fuse_region(&value, Some(&guard));
        assert_eq!(p.signature(), "s1;c0.0;gt;s0;c0.0;select");
        assert_eq!(p.eval_scalar(&[7.0, 1.0]).to_bits(), 7.0f64.to_bits());
        assert_eq!(p.eval_scalar(&[7.0, -1.0]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn index_planes_are_ordinary_slots() {
        // With 2 inputs, slot 2 is the row plane: `n_slots() > 2` is the
        // executor's cue to materialize the index planes.
        let value = ScalarFn::Add(b(ScalarFn::Var(0)), b(ScalarFn::Var(2)));
        let p = fuse_region(&value, None);
        assert_eq!(p.signature(), "s0;s2;add");
        assert_eq!(p.n_slots(), 3);
    }

    #[test]
    fn fused_matches_scalar_fn_bitwise() {
        // select(a > b, a - b, b / a) + abs(a) * 0.25
        let value = ScalarFn::Add(
            b(ScalarFn::If(
                b(ScalarFn::Cmp(
                    BinOp::Gt,
                    b(ScalarFn::Var(0)),
                    b(ScalarFn::Var(1)),
                )),
                b(ScalarFn::Sub(b(ScalarFn::Var(0)), b(ScalarFn::Var(1)))),
                b(ScalarFn::Div(b(ScalarFn::Var(1)), b(ScalarFn::Var(0)))),
            )),
            b(ScalarFn::Mul(
                b(ScalarFn::Abs(b(ScalarFn::Var(0)))),
                b(ScalarFn::Const(0.25)),
            )),
        );
        let p = fuse_region(&value, None);
        for i in 0..100 {
            let a = (i as f64) * 0.37 - 18.0;
            let x = (i as f64) * -0.11 + 2.0;
            let want = value.eval(&[a, x]);
            let got = p.eval_scalar(&[a, x]);
            assert_eq!(got.to_bits(), want.to_bits(), "case {i}");
        }
    }
}
