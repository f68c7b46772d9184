//! Fused elementwise tile kernel — one pass per tile over a compiled
//! op program.
//!
//! The burn-style elementwise executor: the planner compiles a whole
//! elementwise region (scale, add, sub, hadamard, scalar constants, guard
//! masking, index-plane reads) into one postfix [`FusedProgram`] over tile
//! slots. [`FusedProgram::new`] lowers the postfix ops once into a
//! three-address form whose operands are input-slot slices, immediate
//! constants or chunk registers, and [`fused_eltwise`] runs it chunk by
//! chunk as one vector loop per instruction — no slot copies, no constant
//! fills, no boxed per-element dispatch, no per-node allocation.
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
//! only picks the instruction set the loops are compiled for (AVX-512F,
//! AVX2 or baseline, clamped to what the CPU has); all tiers produce the
//! same bits.

use crate::kernel::Backend;
use crate::tile::pool;

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
    #[inline(always)]
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
/// The per-element semantics are the obvious scalar ones;
/// [`FusedProgram::new`] compiles the sequence to whole-chunk loops.
#[derive(Debug, Clone, PartialEq)]
pub enum ElemwiseOp {
    /// Push input slot `i` (one tile's data buffer).
    Slot(usize),
    /// Push a constant (scalar constants are folded to these at compile time).
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

/// Where a three-address instruction reads one operand.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Operand {
    /// Input slot `i`, read in place.
    Slot(usize),
    /// An immediate constant.
    Imm(f64),
    /// Chunk register `r`, which holds postfix stack position `r`.
    Reg(usize),
}

/// `reg[dst] = op(args)`, one loop over a chunk. `op` is never a leaf
/// unless the whole program is that leaf, which then copies `args[0]`.
#[derive(Debug, Clone, PartialEq)]
struct Instr {
    op: ElemwiseOp,
    dst: usize,
    args: [Operand; 3],
}

/// Lower validated postfix ops to three-address form. Leaves become
/// operands, never instructions, and each op writes the register of the
/// stack position its result occupies — the position of its first
/// operand. Every other operand sits higher on the stack, so only
/// `args[0]` can be the destination register. Returns the code and the
/// register count.
fn lower(ops: &[ElemwiseOp]) -> (Vec<Instr>, usize) {
    let mut stack: Vec<Operand> = Vec::new();
    let mut code = Vec::new();
    for op in ops {
        match *op {
            ElemwiseOp::Slot(i) => stack.push(Operand::Slot(i)),
            ElemwiseOp::Const(v) => stack.push(Operand::Imm(v)),
            _ => {
                let dst = stack.len() - op.arity();
                let mut args = [Operand::Imm(0.0); 3];
                args[..op.arity()].copy_from_slice(&stack[dst..]);
                stack.truncate(dst);
                stack.push(Operand::Reg(dst));
                code.push(Instr {
                    op: op.clone(),
                    dst,
                    args,
                });
            }
        }
    }
    if code.is_empty() {
        code.push(Instr {
            op: ops[0].clone(),
            dst: 0,
            args: [stack[0], Operand::Imm(0.0), Operand::Imm(0.0)],
        });
    }
    let regs = code.iter().map(|ins| ins.dst + 1).max().unwrap_or(1);
    (code, regs)
}

/// A validated fused elementwise program: a postfix op sequence that
/// consumes input slots and leaves exactly one result on the stack.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProgram {
    ops: Vec<ElemwiseOp>,
    /// Deepest stack the program reaches.
    max_stack: usize,
    /// One past the highest slot index read (0 when the program is constant).
    n_slots: usize,
    /// `ops` in three-address form, what [`fused_eltwise`] runs.
    code: Vec<Instr>,
    /// Chunk registers `code` writes (at most `max_stack`).
    regs: usize,
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
        let (code, regs) = lower(&ops);
        Ok(FusedProgram {
            ops,
            max_stack,
            n_slots,
            code,
            regs,
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
    /// is tested against, the `f(0) == 0` probe for sparse execution, and
    /// the planner's constant folder.
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
}

/// Elements per chunk: one register is 4 KiB, so the output chunk, the
/// scratch registers and the slot chunks an instruction reads stay in L1.
/// Purely a blocking choice — output bits are the same for every width.
const CHUNK: usize = 512;

/// Execute `prog` over `len` elements of the slot buffers into an output
/// buffer from the tile free list ([`crate::tile`]): the program writes
/// every element, so a recycled buffer's old values never show. One pass:
/// the only allocations are the output and the program's scratch
/// registers, reused across chunks.
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
    let mut out = pool::stale(len);
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
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 if Backend::avx512_available() => {
            // SAFETY: the CPU reports AVX-512F.
            unsafe { run_avx512(prog, slots, out) }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 | Backend::Avx2 if Backend::simd_available() => {
            // SAFETY: the CPU reports AVX2.
            unsafe { run_avx2(prog, slots, out) }
        }
        _ => run(prog, slots, out),
    }
}

/// [`run`] compiled for AVX-512F.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512(prog: &FusedProgram, slots: &[&[f64]], out: &mut [f64]) {
    run(prog, slots, out)
}

/// [`run`] compiled for AVX2.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2(prog: &FusedProgram, slots: &[&[f64]], out: &mut [f64]) {
    run(prog, slots, out)
}

/// Run the three-address code chunk by chunk. Register 0 is the output
/// chunk itself; registers `1..` are scratch chunks. Slot lengths are
/// checked by the caller.
#[inline(always)]
fn run(prog: &FusedProgram, slots: &[&[f64]], out: &mut [f64]) {
    let mut scratch = vec![0.0f64; (prog.regs - 1) * CHUNK];
    for (c, out) in out.chunks_mut(CHUNK).enumerate() {
        let (c0, w) = (c * CHUNK, out.len());
        for ins in &prog.code {
            // The destination, and the registers above it — the only ones
            // the instruction's other operands can name.
            let (dst, above): (&mut [f64], &[f64]) = if ins.dst == 0 {
                (&mut *out, &scratch)
            } else {
                let (below, above) = scratch.split_at_mut(ins.dst * CHUNK);
                (&mut below[(ins.dst - 1) * CHUNK..][..w], above)
            };
            let src = |o: Operand| match o {
                Operand::Reg(r) if r == ins.dst => Src::Own,
                Operand::Reg(r) => Src::Slice(&above[(r - ins.dst - 1) * CHUNK..][..w]),
                Operand::Slot(i) => Src::Slice(&slots[i][c0..c0 + w]),
                Operand::Imm(v) => Src::Imm(v),
            };
            let [a, b, c] = ins.args.map(src);
            exec(&ins.op, dst, a, b, c);
        }
    }
}

/// One resolved operand of an instruction over one chunk.
#[derive(Clone, Copy)]
enum Src<'a> {
    /// The destination's own current value (first operand only).
    Own,
    Slice(&'a [f64]),
    Imm(f64),
}

/// Bind `$x` to `$src` as a concrete [`Lane`] type, so `$body` is
/// monomorphized — and vectorized — per operand kind.
macro_rules! lane {
    (first $src:expr, $x:ident => $body:expr) => {
        match $src {
            Src::Own => {
                let $x = Own;
                $body
            }
            other => lane!(other, $x => $body),
        }
    };
    ($src:expr, $x:ident => $body:expr) => {
        match $src {
            Src::Slice(s) => {
                let $x = s;
                $body
            }
            Src::Imm(v) => {
                let $x = v;
                $body
            }
            Src::Own => unreachable!("only an instruction's first operand is its destination"),
        }
    };
}

/// One instruction over one chunk.
#[inline(always)]
fn exec(op: &ElemwiseOp, dst: &mut [f64], a: Src, b: Src, c: Src) {
    match op {
        ElemwiseOp::Slot(_) | ElemwiseOp::Const(_) => un(dst, a, |x| x),
        ElemwiseOp::Add => bin(dst, a, b, |x, y| x + y),
        ElemwiseOp::Sub => bin(dst, a, b, |x, y| x - y),
        ElemwiseOp::Mul => bin(dst, a, b, |x, y| x * y),
        ElemwiseOp::Div => bin(dst, a, b, |x, y| x / y),
        ElemwiseOp::Neg => un(dst, a, |x| -x),
        ElemwiseOp::Abs => un(dst, a, f64::abs),
        ElemwiseOp::Sqrt => un(dst, a, f64::sqrt),
        // One loop per comparison: with the operator a runtime value the
        // loop does not vectorize (3-5x slower on a compare-and-select).
        ElemwiseOp::Cmp(CmpOp::Eq) => bin(dst, a, b, |x, y| CmpOp::Eq.apply(x, y)),
        ElemwiseOp::Cmp(CmpOp::Ne) => bin(dst, a, b, |x, y| CmpOp::Ne.apply(x, y)),
        ElemwiseOp::Cmp(CmpOp::Lt) => bin(dst, a, b, |x, y| CmpOp::Lt.apply(x, y)),
        ElemwiseOp::Cmp(CmpOp::Le) => bin(dst, a, b, |x, y| CmpOp::Le.apply(x, y)),
        ElemwiseOp::Cmp(CmpOp::Gt) => bin(dst, a, b, |x, y| CmpOp::Gt.apply(x, y)),
        ElemwiseOp::Cmp(CmpOp::Ge) => bin(dst, a, b, |x, y| CmpOp::Ge.apply(x, y)),
        ElemwiseOp::Select => lane!(first a, a => lane!(b, b => lane!(c, c => {
            lanes(dst, a, b, c, |x, y, z| if x != 0.0 { y } else { z })
        }))),
    }
}

#[inline(always)]
fn un(dst: &mut [f64], a: Src, f: impl Fn(f64) -> f64) {
    lane!(first a, a => lanes(dst, a, 0.0, 0.0, |x, _, _| f(x)))
}

#[inline(always)]
fn bin(dst: &mut [f64], a: Src, b: Src, f: impl Fn(f64, f64) -> f64) {
    lane!(first a, a => lane!(b, b => lanes(dst, a, b, 0.0, |x, y, _| f(x, y))))
}

/// An operand as the loop reads it: a slice, a broadcast immediate, or
/// the destination's own value.
trait Lane: Copy {
    /// Lane `k`, where the destination currently holds `own`.
    fn at(self, k: usize, own: f64) -> f64;
}

#[derive(Clone, Copy)]
struct Own;

impl Lane for Own {
    #[inline(always)]
    fn at(self, _: usize, own: f64) -> f64 {
        own
    }
}

impl Lane for f64 {
    #[inline(always)]
    fn at(self, _: usize, _: f64) -> f64 {
        self
    }
}

impl Lane for &[f64] {
    #[inline(always)]
    fn at(self, k: usize, _: f64) -> f64 {
        self[k]
    }
}

/// `dst[k] = f(a[k], b[k], c[k])` over one chunk: the loop every
/// instruction compiles to.
#[inline(always)]
fn lanes<A: Lane, B: Lane, C: Lane>(
    dst: &mut [f64],
    a: A,
    b: B,
    c: C,
    f: impl Fn(f64, f64, f64) -> f64,
) {
    for (k, d) in dst.iter_mut().enumerate() {
        *d = f(a.at(k, *d), b.at(k, *d), c.at(k, *d));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn lowering_reads_leaves_in_place_and_writes_the_stack_position() {
        // s0 s1 c0.5 mul add: the multiply reads slot 1 and the immediate
        // straight into register 1, the add accumulates into register 0.
        let p = axpb();
        assert_eq!(
            p.code,
            vec![
                Instr {
                    op: ElemwiseOp::Mul,
                    dst: 1,
                    args: [Operand::Slot(1), Operand::Imm(0.5), Operand::Imm(0.0)],
                },
                Instr {
                    op: ElemwiseOp::Add,
                    dst: 0,
                    args: [Operand::Slot(0), Operand::Reg(1), Operand::Imm(0.0)],
                },
            ]
        );
        assert_eq!(p.regs, 2);
        // A lone leaf is the one case that copies.
        let leaf = prog(vec![ElemwiseOp::Slot(0)]);
        assert_eq!(leaf.code.len(), 1);
        assert_eq!(leaf.regs, 1);
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
