//! Fused elementwise tile kernel — one pass per tile over a compiled
//! op program.
//!
//! The burn-style elementwise executor: the planner traces a whole
//! elementwise region (scale, add, sub, hadamard, scalar constants, guard
//! masking, index-plane reads) into one postfix [`FusedProgram`] over tile
//! slots, and [`fused_eltwise`] executes it in a single pass using a fixed
//! register file of chunk buffers — no boxed per-element dispatch, no
//! per-node allocation, and a fused sparsifier ([`fused_eltwise_sparsify`])
//! that produces a pruned [`CscTile`] directly.
//!
//! # Determinism contract
//!
//! Same contract as [`crate::kernel`]: every output element is computed by
//! the identical IEEE-754 operation sequence regardless of backend, chunk
//! width, or thread count. Elementwise programs have no cross-element
//! reductions, so chunking is pure blocking — the per-element chain is the
//! postfix program itself, with plain `+ - * /` (no FMA contraction: the
//! result must match [`FusedProgram::eval_scalar`], and the source
//! expression evaluated element by element, bit-for-bit). The [`Backend`]
//! parameter only picks the chunk width; all widths produce the same bits.

use crate::kernel::Backend;
use crate::sparse_tile::CscTile;

/// Comparison operators producing `1.0` / `0.0` indicators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn apply(self, x: f64, y: f64) -> f64 {
        let r = match self {
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
    }

    fn tag(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }
}

/// One instruction of a fused elementwise program (postfix stack machine).
///
/// Pushes and pops operate on whole chunk buffers at execution time; the
/// per-element semantics are the obvious scalar ones.
#[derive(Debug, Clone, PartialEq)]
pub enum ElemwiseOp {
    /// Push input slot `i` (one tile's data buffer).
    Slot(usize),
    /// Push a constant (scalar constants are folded to these at trace time).
    Const(f64),
    /// Pop `b`, pop `a`, push `a + b`.
    Add,
    /// Pop `b`, pop `a`, push `a - b`.
    Sub,
    /// Pop `b`, pop `a`, push `a * b` (hadamard / scale).
    Mul,
    /// Pop `b`, pop `a`, push `a / b`.
    Div,
    /// Pop `a`, push `-a`.
    Neg,
    /// Pop `a`, push `|a|`.
    Abs,
    /// Pop `a`, push `sqrt(a)`.
    Sqrt,
    /// Pop `else`, pop `then`, pop `cond`; push `cond != 0 ? then : else`.
    /// Guard masking fuses to `Select(guard, value, 0)`.
    Select,
    /// Pop `b`, pop `a`, push the 0/1 indicator of `a <op> b`.
    Cmp(CmpOp),
}

impl ElemwiseOp {
    /// Operands popped by this op.
    fn arity(&self) -> usize {
        match self {
            ElemwiseOp::Slot(_) | ElemwiseOp::Const(_) => 0,
            ElemwiseOp::Neg | ElemwiseOp::Abs | ElemwiseOp::Sqrt => 1,
            ElemwiseOp::Add
            | ElemwiseOp::Sub
            | ElemwiseOp::Mul
            | ElemwiseOp::Div
            | ElemwiseOp::Cmp(_) => 2,
            ElemwiseOp::Select => 3,
        }
    }

    /// Compact tag for signatures and the `region_fused` event.
    fn tag(&self) -> String {
        match self {
            ElemwiseOp::Slot(i) => format!("s{i}"),
            ElemwiseOp::Const(v) => format!("c{v:?}"),
            ElemwiseOp::Add => "add".into(),
            ElemwiseOp::Sub => "sub".into(),
            ElemwiseOp::Mul => "mul".into(),
            ElemwiseOp::Div => "div".into(),
            ElemwiseOp::Neg => "neg".into(),
            ElemwiseOp::Abs => "abs".into(),
            ElemwiseOp::Sqrt => "sqrt".into(),
            ElemwiseOp::Select => "select".into(),
            ElemwiseOp::Cmp(op) => op.tag().into(),
        }
    }
}

/// A validated fused elementwise program: a postfix op sequence that
/// consumes input slots and leaves exactly one result on the stack.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProgram {
    ops: Vec<ElemwiseOp>,
    /// Deepest stack the program reaches — the size of the register file.
    max_stack: usize,
    /// One past the highest slot index read (0 when the program is constant).
    n_slots: usize,
}

impl FusedProgram {
    /// Validate and seal an op sequence. Errors if the stack discipline is
    /// violated (an op pops more than is live, or the program does not end
    /// with exactly one value).
    pub fn new(ops: Vec<ElemwiseOp>) -> Result<FusedProgram, String> {
        let mut depth = 0usize;
        let mut max_stack = 0usize;
        let mut n_slots = 0usize;
        for op in &ops {
            let arity = op.arity();
            if depth < arity {
                return Err(format!("op {} pops {arity} with {depth} live", op.tag()));
            }
            if let ElemwiseOp::Slot(i) = op {
                n_slots = n_slots.max(i + 1);
            }
            depth = depth - arity + 1;
            max_stack = max_stack.max(depth);
        }
        if depth != 1 {
            return Err(format!("program leaves {depth} values on the stack"));
        }
        Ok(FusedProgram {
            ops,
            max_stack,
            n_slots,
        })
    }

    /// The instruction sequence.
    pub fn ops(&self) -> &[ElemwiseOp] {
        &self.ops
    }

    /// Number of instructions (the `ops` field of the `region_fused` event).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// A program is never empty (validation requires one result).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Deepest stack the program reaches.
    pub fn max_stack(&self) -> usize {
        self.max_stack
    }

    /// One past the highest slot index read.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Canonical signature: `;`-joined op tags. Two programs with equal
    /// signatures compute bit-identical functions, so this string is safe to
    /// fold into plan-cache keys and emit on `region_fused` events.
    pub fn signature(&self) -> String {
        let tags: Vec<String> = self.ops.iter().map(ElemwiseOp::tag).collect();
        tags.join(";")
    }

    /// Reference per-element interpreter — the oracle the chunked executor
    /// is tested against, and the `f(0) == 0` probe for sparse execution.
    pub fn eval_scalar(&self, slots: &[f64]) -> f64 {
        let mut stack = [0.0f64; 32];
        let mut heap;
        let st: &mut [f64] = if self.max_stack <= 32 {
            &mut stack
        } else {
            heap = vec![0.0; self.max_stack];
            &mut heap
        };
        let mut sp = 0usize;
        for op in &self.ops {
            match op {
                ElemwiseOp::Slot(i) => {
                    st[sp] = slots[*i];
                    sp += 1;
                }
                ElemwiseOp::Const(v) => {
                    st[sp] = *v;
                    sp += 1;
                }
                ElemwiseOp::Add => {
                    st[sp - 2] += st[sp - 1];
                    sp -= 1;
                }
                ElemwiseOp::Sub => {
                    st[sp - 2] -= st[sp - 1];
                    sp -= 1;
                }
                ElemwiseOp::Mul => {
                    st[sp - 2] *= st[sp - 1];
                    sp -= 1;
                }
                ElemwiseOp::Div => {
                    st[sp - 2] /= st[sp - 1];
                    sp -= 1;
                }
                ElemwiseOp::Neg => st[sp - 1] = -st[sp - 1],
                ElemwiseOp::Abs => st[sp - 1] = st[sp - 1].abs(),
                ElemwiseOp::Sqrt => st[sp - 1] = st[sp - 1].sqrt(),
                ElemwiseOp::Select => {
                    st[sp - 3] = if st[sp - 3] != 0.0 {
                        st[sp - 2]
                    } else {
                        st[sp - 1]
                    };
                    sp -= 2;
                }
                ElemwiseOp::Cmp(c) => {
                    st[sp - 2] = c.apply(st[sp - 2], st[sp - 1]);
                    sp -= 1;
                }
            }
        }
        st[0]
    }

    /// True when the program maps all-zero inputs to bit-exact `+0.0` —
    /// the requirement for running it over CSC non-zeros only (skipped
    /// structural zeros must contribute exactly nothing, including the sign
    /// bit, so a sparse pass stays bit-identical to the dense one).
    pub fn preserves_zero(&self) -> bool {
        let zeros = vec![0.0f64; self.n_slots.max(1)];
        self.eval_scalar(&zeros).to_bits() == 0.0f64.to_bits()
    }
}

/// Chunk width per backend. Purely a blocking choice: wider chunks amortize
/// the per-op loop overhead on wider machines. Output bits are identical for
/// every width (elementwise programs have no cross-element operations).
fn chunk_width(backend: Backend) -> usize {
    match backend {
        Backend::Avx512 => 512,
        Backend::Avx2 => 256,
        Backend::Scalar => 128,
    }
}

/// Execute `prog` over `len` elements of the slot buffers into a fresh
/// output buffer. One pass: the only allocations are the output and a
/// register file of `max_stack` chunk buffers, reused across chunks.
///
/// # Panics
/// If any slot buffer referenced by the program is missing or shorter than
/// `len`.
pub fn fused_eltwise(
    prog: &FusedProgram,
    slots: &[&[f64]],
    len: usize,
    backend: Backend,
) -> Vec<f64> {
    let mut out = vec![0.0f64; len];
    fused_eltwise_into(prog, slots, &mut out, backend);
    out
}

/// [`fused_eltwise`] into a caller-provided output buffer.
pub fn fused_eltwise_into(
    prog: &FusedProgram,
    slots: &[&[f64]],
    out: &mut [f64],
    backend: Backend,
) {
    let len = out.len();
    assert!(
        slots.len() >= prog.n_slots,
        "fused_eltwise: program reads slot {} but only {} buffers given",
        prog.n_slots.saturating_sub(1),
        slots.len()
    );
    for (i, s) in slots.iter().enumerate().take(prog.n_slots) {
        assert!(
            s.len() >= len,
            "fused_eltwise: slot {i} shorter than output"
        );
    }
    let chunk = chunk_width(backend);
    let mut regs: Vec<Vec<f64>> = (0..prog.max_stack).map(|_| vec![0.0f64; chunk]).collect();
    for c0 in (0..len).step_by(chunk) {
        let w = chunk.min(len - c0);
        run_chunk(prog, slots, c0, w, &mut regs);
        out[c0..c0 + w].copy_from_slice(&regs[0][..w]);
    }
}

/// Run the program over one chunk, leaving the result in `regs[0][..w]`.
fn run_chunk(prog: &FusedProgram, slots: &[&[f64]], c0: usize, w: usize, regs: &mut [Vec<f64>]) {
    let mut sp = 0usize;
    for op in &prog.ops {
        match op {
            ElemwiseOp::Slot(i) => {
                regs[sp][..w].copy_from_slice(&slots[*i][c0..c0 + w]);
                sp += 1;
            }
            ElemwiseOp::Const(v) => {
                regs[sp][..w].fill(*v);
                sp += 1;
            }
            ElemwiseOp::Add => {
                binop(regs, sp, w, |a, b| a + b);
                sp -= 1;
            }
            ElemwiseOp::Sub => {
                binop(regs, sp, w, |a, b| a - b);
                sp -= 1;
            }
            ElemwiseOp::Mul => {
                binop(regs, sp, w, |a, b| a * b);
                sp -= 1;
            }
            ElemwiseOp::Div => {
                binop(regs, sp, w, |a, b| a / b);
                sp -= 1;
            }
            ElemwiseOp::Neg => unop(regs, sp, w, |a| -a),
            ElemwiseOp::Abs => unop(regs, sp, w, f64::abs),
            ElemwiseOp::Sqrt => unop(regs, sp, w, f64::sqrt),
            ElemwiseOp::Select => {
                let (head, tail) = regs.split_at_mut(sp - 2);
                let cond = &mut head[sp - 3];
                let (then, els) = tail.split_at(1);
                for k in 0..w {
                    if cond[k] == 0.0 {
                        cond[k] = els[0][k];
                    } else {
                        cond[k] = then[0][k];
                    }
                }
                sp -= 2;
            }
            ElemwiseOp::Cmp(c) => {
                let c = *c;
                binop(regs, sp, w, move |a, b| c.apply(a, b));
                sp -= 1;
            }
        }
    }
    debug_assert_eq!(sp, 1, "validated program must leave one value");
    if sp != 1 {
        // Defensive for release builds; FusedProgram::new makes this
        // unreachable.
        panic!("fused program stack imbalance");
    }
    // Result must end in regs[0]: sp == 1 means it already does.
}

fn binop(regs: &mut [Vec<f64>], sp: usize, w: usize, f: impl Fn(f64, f64) -> f64) {
    let (head, tail) = regs.split_at_mut(sp - 1);
    let dst = &mut head[sp - 2];
    let src = &tail[0];
    for k in 0..w {
        dst[k] = f(dst[k], src[k]);
    }
}

fn unop(regs: &mut [Vec<f64>], sp: usize, w: usize, f: impl Fn(f64) -> f64) {
    let dst = &mut regs[sp - 1];
    for v in dst[..w].iter_mut() {
        *v = f(*v);
    }
}

/// Fused sparsifier: execute `prog` over `rows x cols` row-major slot
/// buffers and emit the pruned [`CscTile`] directly — one pass in
/// column-major order, no intermediate dense result. Bit-identical to
/// `CscTile::from_dense(&dense_result)` because each element runs the same
/// postfix chain and zeros are dropped by the identical `!= 0.0` test.
pub fn fused_eltwise_sparsify(
    prog: &FusedProgram,
    slots: &[&[f64]],
    rows: usize,
    cols: usize,
    backend: Backend,
) -> CscTile {
    assert!(
        slots.len() >= prog.n_slots,
        "fused_eltwise_sparsify: missing slot buffers"
    );
    for s in slots.iter().take(prog.n_slots) {
        assert!(
            s.len() >= rows * cols,
            "fused_eltwise_sparsify: slot shorter than tile"
        );
    }
    let mut col_ptr = Vec::with_capacity(cols + 1);
    let mut row_idx = Vec::new();
    let mut values = Vec::new();
    col_ptr.push(0);
    // Column-at-a-time: gather the column's strided elements from each slot
    // into contiguous buffers, run the program over the column, and append
    // the survivors. `chunk_width` does not matter here — the column is the
    // chunk — so the gather buffers are the whole register file.
    let mut gathered: Vec<Vec<f64>> = (0..prog.n_slots.max(1))
        .map(|_| vec![0.0f64; rows])
        .collect();
    let mut regs: Vec<Vec<f64>> = (0..prog.max_stack).map(|_| vec![0.0f64; rows]).collect();
    for j in 0..cols {
        for (s, g) in gathered.iter_mut().enumerate() {
            let src = slots.get(s).copied().unwrap_or(&[]);
            for (i, gv) in g.iter_mut().enumerate() {
                *gv = src.get(i * cols + j).copied().unwrap_or(0.0);
            }
        }
        let views: Vec<&[f64]> = gathered.iter().map(Vec::as_slice).collect();
        run_chunk(prog, &views, 0, rows, &mut regs);
        for (i, &v) in regs[0][..rows].iter().enumerate() {
            if v != 0.0 {
                row_idx.push(i);
                values.push(v);
            }
        }
        col_ptr.push(values.len());
    }
    let _ = backend;
    CscTile::from_raw(rows, cols, col_ptr, row_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::DenseMatrix;

    fn prog(ops: Vec<ElemwiseOp>) -> FusedProgram {
        FusedProgram::new(ops).expect("valid program")
    }

    /// `a + b * c` with c = 0.5.
    fn axpb() -> FusedProgram {
        prog(vec![
            ElemwiseOp::Slot(0),
            ElemwiseOp::Slot(1),
            ElemwiseOp::Const(0.5),
            ElemwiseOp::Mul,
            ElemwiseOp::Add,
        ])
    }

    #[test]
    fn validation_rejects_imbalanced_programs() {
        assert!(FusedProgram::new(vec![ElemwiseOp::Add]).is_err());
        assert!(FusedProgram::new(vec![ElemwiseOp::Slot(0), ElemwiseOp::Slot(1)]).is_err());
        assert!(FusedProgram::new(vec![]).is_err());
        let p = axpb();
        assert_eq!(p.max_stack(), 3);
        assert_eq!(p.n_slots(), 2);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn scalar_interpreter_computes_the_chain() {
        let p = axpb();
        assert_eq!(p.eval_scalar(&[3.0, 4.0]), 3.0 + 4.0 * 0.5);
        assert_eq!(p.signature(), "s0;s1;c0.5;mul;add");
    }

    #[test]
    fn chunked_executor_matches_scalar_oracle_bitwise() {
        let p = prog(vec![
            ElemwiseOp::Slot(0),
            ElemwiseOp::Const(0.0),
            ElemwiseOp::Cmp(CmpOp::Gt),
            ElemwiseOp::Slot(0),
            ElemwiseOp::Sqrt,
            ElemwiseOp::Slot(1),
            ElemwiseOp::Neg,
            ElemwiseOp::Select,
        ]);
        let n = 1000;
        let a: Vec<f64> = (0..n).map(|i| (i as f64) * 0.31 - 150.0).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) * -0.17 + 3.0).collect();
        for backend in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
            let got = fused_eltwise(&p, &[&a, &b], n, backend);
            for i in 0..n {
                let want = p.eval_scalar(&[a[i], b[i]]);
                assert_eq!(got[i].to_bits(), want.to_bits(), "element {i}");
            }
        }
    }

    #[test]
    fn zero_preservation_probe() {
        // b * 0.5 preserves zero; a + 1 does not.
        let scale = prog(vec![
            ElemwiseOp::Slot(0),
            ElemwiseOp::Const(0.5),
            ElemwiseOp::Mul,
        ]);
        assert!(scale.preserves_zero());
        let shift = prog(vec![
            ElemwiseOp::Slot(0),
            ElemwiseOp::Const(1.0),
            ElemwiseOp::Add,
        ]);
        assert!(!shift.preserves_zero());
        // -0.0 output must fail the probe (sign bit differs from +0.0).
        let neg = prog(vec![ElemwiseOp::Slot(0), ElemwiseOp::Neg]);
        assert!(!neg.preserves_zero());
    }

    #[test]
    fn fused_sparsify_matches_dense_then_compress() {
        let (rows, cols) = (9, 7);
        let a = DenseMatrix::from_fn(rows, cols, |i, j| {
            if (i + j) % 3 == 0 {
                0.0
            } else {
                (i * cols + j) as f64 - 20.0
            }
        });
        let b = DenseMatrix::from_fn(rows, cols, |i, j| ((i * 31 + j) % 5) as f64 - 2.0);
        let p = prog(vec![
            ElemwiseOp::Slot(0),
            ElemwiseOp::Slot(1),
            ElemwiseOp::Const(0.5),
            ElemwiseOp::Mul,
            ElemwiseOp::Add,
        ]);
        let dense = fused_eltwise(&p, &[a.data(), b.data()], rows * cols, Backend::Scalar);
        let want = CscTile::from_dense(&DenseMatrix::from_vec(rows, cols, dense));
        let got = fused_eltwise_sparsify(&p, &[a.data(), b.data()], rows, cols, Backend::active());
        assert_eq!(got, want);
    }

    #[test]
    fn ragged_lengths_and_constant_programs() {
        // len not a chunk multiple, and a program with no slots at all.
        let p = prog(vec![
            ElemwiseOp::Const(2.0),
            ElemwiseOp::Const(3.0),
            ElemwiseOp::Mul,
        ]);
        let out = fused_eltwise(&p, &[], 301, Backend::Scalar);
        assert_eq!(out.len(), 301);
        assert!(out.iter().all(|&v| v == 6.0));
    }
}
