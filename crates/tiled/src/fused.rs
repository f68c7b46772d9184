//! Fused elementwise tile kernel — one pass per tile over a compiled
//! op program.
//!
//! The burn-style elementwise executor: the planner compiles a whole
//! elementwise region (scale, add, sub, hadamard, scalar constants, guard
//! masking, index-plane reads) into one postfix [`FusedProgram`] over tile
//! slots. [`FusedProgram::new`] decodes the postfix ops once into steps,
//! each an op and the stack position it writes; a slot or constant pushed
//! just before a binary op becomes that step's second operand, read in
//! place. [`fused_eltwise`] is a stack machine whose stack lives in vector
//! registers: it walks the output a block of a few registers at a time,
//! runs every step on the block, and stores the block once — no
//! intermediate written back to memory, no boxed per-element dispatch, no
//! per-node allocation. Stack positions beyond the register budget spill
//! to a small array of the same machine.
//!
//! # Determinism contract
//!
//! Same contract as [`crate::kernel`]: every output element is computed by
//! the identical IEEE-754 operation sequence regardless of backend, block
//! width, or thread count. Elementwise programs have no cross-element
//! reductions, so blocking is pure blocking — the per-element chain is the
//! postfix program itself, with plain `+ - * /` (no FMA contraction: the
//! result must match [`FusedProgram::eval_scalar`], and the source
//! expression evaluated element by element, bit-for-bit). The [`Backend`]
//! only picks the instruction set the steps run in (AVX-512F, AVX2 or
//! baseline, clamped to what the CPU has); all tiers produce the same bits.

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
/// [`FusedProgram::new`] decodes the sequence into register-block steps.
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

/// One decoded step: `op` reads the stack positions from `pos` up and
/// leaves its result at `pos` (a leaf pushes to `pos`).
#[derive(Debug, Clone, PartialEq)]
struct Step {
    op: ElemwiseOp,
    pos: usize,
    /// Where a two-operand op other than `select` reads its second operand.
    rhs: Rhs,
}

/// A binary step's second operand: stack position `pos + 1`, or the leaf
/// the postfix program pushed there just before the op, read in place.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rhs {
    Stack,
    Slot(usize),
    Imm(f64),
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
    /// `ops` with the stack position each one writes, what
    /// [`fused_eltwise`] runs.
    steps: Vec<Step>,
}

impl FusedProgram {
    /// Validate and seal an op sequence. Errors if the stack discipline is
    /// violated (an op pops more than is live, or the program does not end
    /// with exactly one value).
    pub fn new(ops: Vec<ElemwiseOp>) -> Result<FusedProgram, String> {
        let mut depth = 0usize;
        let mut max_stack = 0usize;
        let mut n_slots = 0usize;
        let mut steps = Vec::with_capacity(ops.len());
        for op in &ops {
            let arity = op.arity();
            if depth < arity {
                return Err(format!("op {} pops {arity} with {depth} live", op.tag()));
            }
            if let ElemwiseOp::Slot(i) = op {
                n_slots = n_slots.max(i + 1);
            }
            depth -= arity;
            // A leaf pushed just before a binary op is that op's second
            // operand: it joins the op's step instead of taking one.
            let rhs = match (op, steps.last()) {
                (ElemwiseOp::Select, _) => None,
                (_, Some(Step { op: leaf, .. })) if arity == 2 => match *leaf {
                    ElemwiseOp::Slot(i) => Some(Rhs::Slot(i)),
                    ElemwiseOp::Const(c) => Some(Rhs::Imm(c)),
                    _ => None,
                },
                _ => None,
            };
            if rhs.is_some() {
                steps.pop();
            }
            steps.push(Step {
                op: op.clone(),
                pos: depth,
                rhs: rhs.unwrap_or(Rhs::Stack),
            });
            depth += 1;
            max_stack = max_stack.max(depth);
        }
        if depth != 1 {
            return Err(format!("program leaves {depth} values on the stack"));
        }
        Ok(FusedProgram {
            ops,
            max_stack,
            n_slots,
            steps,
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

    /// Reference per-element interpreter — the oracle the block executor
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

/// Stack positions a block keeps in vector registers: positions 0 and 1
/// are locals of [`block`], deeper ones live in the spill array. With
/// leaves read in place, `eltwise_chain`'s twelve operators never reach
/// position 2, and two positions of an AVX-512 block (twelve zmm each) are
/// 24 of its 32 registers; a third would halve the block.
const REGS: usize = 2;

/// Execute `prog` over `len` elements of the slot buffers into an output
/// buffer from the tile free list ([`crate::tile`]): the program writes
/// every element, so a recycled buffer's old values never show. One pass:
/// besides the output, the only allocations are a spill array for a
/// program deeper than the stack positions kept in registers, and a padded
/// last block when `len` is not a multiple of the block.
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
        // SAFETY: `f64` lanes need no CPU feature.
        _ => unsafe { run::<[f64; 8], 4>(prog, slots, out) },
    }
}

/// [`run`] on AVX-512F: a stack position is twelve zmm registers.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512(prog: &FusedProgram, slots: &[&[f64]], out: &mut [f64]) {
    run::<std::arch::x86_64::__m512d, 12>(prog, slots, out)
}

/// [`run`] on AVX2: a stack position is six ymm registers.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2(prog: &FusedProgram, slots: &[&[f64]], out: &mut [f64]) {
    run::<std::arch::x86_64::__m256d, 6>(prog, slots, out)
}

/// Walk `out` in blocks of `K` registers of lanes `V` and run every step on
/// a block before the next, so the block's stack stays in registers and
/// its result is stored once. The last, partial block runs on zero-padded
/// copies of its slot elements and stores only its own lanes: each element
/// still sees the program's ops alone. Slot lengths are checked by the
/// caller.
///
/// # Safety
/// The CPU must support `V`'s instructions.
#[inline(always)]
unsafe fn run<V: Lanes, const K: usize>(prog: &FusedProgram, slots: &[&[f64]], out: &mut [f64]) {
    let n = K * V::WIDTH;
    let mut spill = vec![[V::splat(0.0); K]; prog.max_stack.saturating_sub(REGS)];
    let full = out.len() - out.len() % n;
    let (body, tail) = out.split_at_mut(full);
    for (b, out) in body.chunks_exact_mut(n).enumerate() {
        let result = block::<V, K>(&prog.steps, slots, b * n, &mut spill);
        for (x, out) in result.iter().zip(out.chunks_exact_mut(V::WIDTH)) {
            x.store(out);
        }
    }
    if !tail.is_empty() {
        let padded: Vec<Vec<f64>> = slots[..prog.n_slots]
            .iter()
            .map(|s| {
                let mut lanes = vec![0.0; n];
                lanes[..tail.len()].copy_from_slice(&s[full..full + tail.len()]);
                lanes
            })
            .collect();
        let views: Vec<&[f64]> = padded.iter().map(Vec::as_slice).collect();
        let result = block::<V, K>(&prog.steps, &views, 0, &mut spill);
        let mut lanes = vec![0.0; n];
        for (x, lanes) in result.iter().zip(lanes.chunks_exact_mut(V::WIDTH)) {
            x.store(lanes);
        }
        tail.copy_from_slice(&lanes[..tail.len()]);
    }
}

/// Every step of a program on the `K · V::WIDTH` elements from `base`.
/// Stack positions below [`REGS`] are locals indexed only by constants, so
/// they stay in vector registers across the steps; position `p` above them
/// is `spill[p - REGS]`. Returns position 0, the result.
///
/// # Safety
/// The CPU must support `V`'s instructions.
#[inline(always)]
unsafe fn block<V: Lanes, const K: usize>(
    steps: &[Step],
    slots: &[&[f64]],
    base: usize,
    spill: &mut [[V; K]],
) -> [V; K] {
    let [mut r0, mut r1] = [[V::splat(0.0); K]; REGS];
    // Bind a step's operands, the positions from `$pos` up: the first, which
    // the result overwrites, as `&mut`, the others as `&`. Each arm names
    // its positions by constants, so each is its own straight-line code.
    macro_rules! on {
        ($pos:expr, |$x:ident| $body:expr) => {
            match $pos {
                0 => {
                    let $x = &mut r0;
                    $body
                }
                1 => {
                    let $x = &mut r1;
                    $body
                }
                p => {
                    let $x = &mut spill[p - REGS];
                    $body
                }
            }
        };
        ($pos:expr, |$x:ident, $y:ident| $body:expr) => {
            match $pos {
                0 => {
                    let ($x, $y) = (&mut r0, &r1);
                    $body
                }
                1 => {
                    let ($x, $y) = (&mut r1, &spill[0]);
                    $body
                }
                p => {
                    let (below, above) = spill.split_at_mut(p + 1 - REGS);
                    let ($x, $y) = (&mut below[p - REGS], &above[0]);
                    $body
                }
            }
        };
        ($pos:expr, |$x:ident, $y:ident, $z:ident| $body:expr) => {
            match $pos {
                0 => {
                    let ($x, $y, $z) = (&mut r0, &r1, &spill[0]);
                    $body
                }
                1 => {
                    let ($x, $y, $z) = (&mut r1, &spill[0], &spill[1]);
                    $body
                }
                p => {
                    let (below, above) = spill.split_at_mut(p + 1 - REGS);
                    let ($x, $y, $z) = (&mut below[p - REGS], &above[0], &above[1]);
                    $body
                }
            }
        };
    }
    let n = K * V::WIDTH;
    for step in steps {
        let pos = step.pos;
        // A two-operand op `$f` on the position at `pos` and its `rhs`.
        macro_rules! bin {
            ($f:expr) => {{
                let f = $f;
                match step.rhs {
                    Rhs::Stack => on!(pos, |x, y| zip(x, y, f)),
                    Rhs::Slot(i) => {
                        let src = &slots[i][base..base + n];
                        on!(pos, |x| zip_slice(x, src, f))
                    }
                    Rhs::Imm(c) => {
                        let c = V::splat(c);
                        on!(pos, |x| map(x, |a| f(a, c)))
                    }
                }
            }};
        }
        match step.op {
            ElemwiseOp::Slot(i) => {
                let src = &slots[i][base..base + n];
                on!(pos, |x| zip_slice(x, src, |_, v| v))
            }
            ElemwiseOp::Const(c) => on!(pos, |x| *x = [V::splat(c); K]),
            ElemwiseOp::Add => bin!(|a: V, b| a.add(b)),
            ElemwiseOp::Sub => bin!(|a: V, b| a.sub(b)),
            ElemwiseOp::Mul => bin!(|a: V, b| a.mul(b)),
            ElemwiseOp::Div => bin!(|a: V, b| a.div(b)),
            ElemwiseOp::Neg => on!(pos, |x| map(x, |a| a.neg())),
            ElemwiseOp::Abs => on!(pos, |x| map(x, |a| a.abs())),
            ElemwiseOp::Sqrt => on!(pos, |x| map(x, |a| a.sqrt())),
            // One arm per comparison, so each inlines its own predicate.
            ElemwiseOp::Cmp(CmpOp::Eq) => bin!(|a: V, b| a.cmp(CmpOp::Eq, b)),
            ElemwiseOp::Cmp(CmpOp::Ne) => bin!(|a: V, b| a.cmp(CmpOp::Ne, b)),
            ElemwiseOp::Cmp(CmpOp::Lt) => bin!(|a: V, b| a.cmp(CmpOp::Lt, b)),
            ElemwiseOp::Cmp(CmpOp::Le) => bin!(|a: V, b| a.cmp(CmpOp::Le, b)),
            ElemwiseOp::Cmp(CmpOp::Gt) => bin!(|a: V, b| a.cmp(CmpOp::Gt, b)),
            ElemwiseOp::Cmp(CmpOp::Ge) => bin!(|a: V, b| a.cmp(CmpOp::Ge, b)),
            ElemwiseOp::Select => on!(pos, |x, y, z| for k in 0..K {
                x[k] = x[k].select(y[k], z[k]);
            }),
        }
    }
    r0
}

/// `x[k] = f(x[k])` on every register of a position.
#[inline(always)]
unsafe fn map<V: Lanes, const K: usize>(x: &mut [V; K], f: impl Fn(V) -> V) {
    for x in x.iter_mut() {
        *x = f(*x);
    }
}

/// `x[k] = f(x[k], y[k])` on every register of a position.
#[inline(always)]
unsafe fn zip<V: Lanes, const K: usize>(x: &mut [V; K], y: &[V; K], f: impl Fn(V, V) -> V) {
    for (x, y) in x.iter_mut().zip(y) {
        *x = f(*x, *y);
    }
}

/// `x[k] = f(x[k], register k of src)` on every register of a position.
#[inline(always)]
unsafe fn zip_slice<V: Lanes, const K: usize>(x: &mut [V; K], src: &[f64], f: impl Fn(V, V) -> V) {
    for (x, src) in x.iter_mut().zip(src.chunks_exact(V::WIDTH)) {
        *x = f(*x, V::load(src));
    }
}

/// One vector register of `f64` lanes and the ops a step runs on it, each
/// the IEEE-754 op [`FusedProgram::eval_scalar`] runs on every lane.
///
/// # Safety
/// Every method needs the CPU to support the type's instructions, and
/// `load`/`store` a slice of at least `WIDTH` elements.
trait Lanes: Copy {
    const WIDTH: usize;
    unsafe fn splat(v: f64) -> Self;
    unsafe fn load(src: &[f64]) -> Self;
    unsafe fn store(self, dst: &mut [f64]);
    unsafe fn add(self, y: Self) -> Self;
    unsafe fn sub(self, y: Self) -> Self;
    unsafe fn mul(self, y: Self) -> Self;
    unsafe fn div(self, y: Self) -> Self;
    unsafe fn neg(self) -> Self;
    unsafe fn abs(self) -> Self;
    unsafe fn sqrt(self) -> Self;
    /// The 1.0/0.0 indicator of `self <op> y`.
    unsafe fn cmp(self, op: CmpOp, y: Self) -> Self;
    /// `then` where `self != 0.0` (a NaN condition included), else `other`.
    unsafe fn select(self, then: Self, other: Self) -> Self;
}

/// The portable tier: `L` lanes in plain `f64` ops, which the compiler
/// vectorizes for whatever the baseline target has.
impl<const L: usize> Lanes for [f64; L] {
    const WIDTH: usize = L;
    #[inline(always)]
    unsafe fn splat(v: f64) -> Self {
        [v; L]
    }
    #[inline(always)]
    unsafe fn load(src: &[f64]) -> Self {
        src[..L].try_into().unwrap()
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f64]) {
        dst[..L].copy_from_slice(&self)
    }
    #[inline(always)]
    unsafe fn add(self, y: Self) -> Self {
        lanewise(self, y, |a, b| a + b)
    }
    #[inline(always)]
    unsafe fn sub(self, y: Self) -> Self {
        lanewise(self, y, |a, b| a - b)
    }
    #[inline(always)]
    unsafe fn mul(self, y: Self) -> Self {
        lanewise(self, y, |a, b| a * b)
    }
    #[inline(always)]
    unsafe fn div(self, y: Self) -> Self {
        lanewise(self, y, |a, b| a / b)
    }
    #[inline(always)]
    unsafe fn neg(self) -> Self {
        self.map(|a| -a)
    }
    #[inline(always)]
    unsafe fn abs(self) -> Self {
        self.map(f64::abs)
    }
    #[inline(always)]
    unsafe fn sqrt(self) -> Self {
        self.map(f64::sqrt)
    }
    #[inline(always)]
    unsafe fn cmp(self, op: CmpOp, y: Self) -> Self {
        lanewise(self, y, |a, b| op.apply(a, b))
    }
    #[inline(always)]
    unsafe fn select(mut self, then: Self, other: Self) -> Self {
        for ((c, t), e) in self.iter_mut().zip(then).zip(other) {
            *c = if *c != 0.0 { t } else { e };
        }
        self
    }
}

#[inline(always)]
fn lanewise<const L: usize>(mut x: [f64; L], y: [f64; L], f: impl Fn(f64, f64) -> f64) -> [f64; L] {
    for (a, b) in x.iter_mut().zip(y) {
        *a = f(*a, b);
    }
    x
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{CmpOp, Lanes};
    use std::arch::x86_64::*;

    impl Lanes for __m512d {
        const WIDTH: usize = 8;
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn splat(v: f64) -> __m512d {
            _mm512_set1_pd(v)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn load(src: &[f64]) -> __m512d {
            _mm512_loadu_pd(src.as_ptr())
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn store(self, dst: &mut [f64]) {
            _mm512_storeu_pd(dst.as_mut_ptr(), self)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn add(self, y: __m512d) -> __m512d {
            _mm512_add_pd(self, y)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn sub(self, y: __m512d) -> __m512d {
            _mm512_sub_pd(self, y)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn mul(self, y: __m512d) -> __m512d {
            _mm512_mul_pd(self, y)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn div(self, y: __m512d) -> __m512d {
            _mm512_div_pd(self, y)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn neg(self) -> __m512d {
            // Flip the sign bit (AVX-512F has no floating-point xor).
            let sign = _mm512_set1_epi64(i64::MIN);
            _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(self), sign))
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn abs(self) -> __m512d {
            _mm512_abs_pd(self)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn sqrt(self) -> __m512d {
            _mm512_sqrt_pd(self)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn cmp(self, op: CmpOp, y: __m512d) -> __m512d {
            let mask = match op {
                CmpOp::Eq => _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(self, y),
                CmpOp::Ne => _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(self, y),
                CmpOp::Lt => _mm512_cmp_pd_mask::<_CMP_LT_OQ>(self, y),
                CmpOp::Le => _mm512_cmp_pd_mask::<_CMP_LE_OQ>(self, y),
                CmpOp::Gt => _mm512_cmp_pd_mask::<_CMP_GT_OQ>(self, y),
                CmpOp::Ge => _mm512_cmp_pd_mask::<_CMP_GE_OQ>(self, y),
            };
            _mm512_maskz_mov_pd(mask, _mm512_set1_pd(1.0))
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn select(self, then: __m512d, other: __m512d) -> __m512d {
            let mask = _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(self, _mm512_setzero_pd());
            _mm512_mask_blend_pd(mask, other, then)
        }
    }

    impl Lanes for __m256d {
        const WIDTH: usize = 4;
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn splat(v: f64) -> __m256d {
            _mm256_set1_pd(v)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn load(src: &[f64]) -> __m256d {
            _mm256_loadu_pd(src.as_ptr())
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn store(self, dst: &mut [f64]) {
            _mm256_storeu_pd(dst.as_mut_ptr(), self)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn add(self, y: __m256d) -> __m256d {
            _mm256_add_pd(self, y)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn sub(self, y: __m256d) -> __m256d {
            _mm256_sub_pd(self, y)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn mul(self, y: __m256d) -> __m256d {
            _mm256_mul_pd(self, y)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn div(self, y: __m256d) -> __m256d {
            _mm256_div_pd(self, y)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn neg(self) -> __m256d {
            _mm256_xor_pd(self, _mm256_set1_pd(-0.0))
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn abs(self) -> __m256d {
            _mm256_andnot_pd(_mm256_set1_pd(-0.0), self)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn sqrt(self) -> __m256d {
            _mm256_sqrt_pd(self)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn cmp(self, op: CmpOp, y: __m256d) -> __m256d {
            let mask = match op {
                CmpOp::Eq => _mm256_cmp_pd::<_CMP_EQ_OQ>(self, y),
                CmpOp::Ne => _mm256_cmp_pd::<_CMP_NEQ_UQ>(self, y),
                CmpOp::Lt => _mm256_cmp_pd::<_CMP_LT_OQ>(self, y),
                CmpOp::Le => _mm256_cmp_pd::<_CMP_LE_OQ>(self, y),
                CmpOp::Gt => _mm256_cmp_pd::<_CMP_GT_OQ>(self, y),
                CmpOp::Ge => _mm256_cmp_pd::<_CMP_GE_OQ>(self, y),
            };
            _mm256_and_pd(mask, _mm256_set1_pd(1.0))
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn select(self, then: __m256d, other: __m256d) -> __m256d {
            let mask = _mm256_cmp_pd::<_CMP_NEQ_UQ>(self, _mm256_setzero_pd());
            _mm256_blendv_pd(other, then, mask)
        }
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
    fn decoding_gives_each_step_its_stack_position_and_reads_leaves_in_place() {
        use ElemwiseOp::{Add, Const, Mul, Neg, Select, Slot};
        let step = |op, pos, rhs| Step { op, pos, rhs };
        // s0 s1 c0.5 mul add: slot 1 is pushed to position 1, the multiply
        // reads the immediate in place, the add reads position 1.
        assert_eq!(
            axpb().steps,
            vec![
                step(Slot(0), 0, Rhs::Stack),
                step(Slot(1), 1, Rhs::Stack),
                step(Mul, 1, Rhs::Imm(0.5)),
                step(Add, 0, Rhs::Stack),
            ]
        );
        // A slot pushed just before a binary op is read in place too; a
        // leaf under a unary op, or one `select` takes, is pushed.
        let p = prog(vec![
            Slot(0),
            Slot(1),
            Add,
            Neg,
            Slot(0),
            Const(0.0),
            Select,
        ]);
        assert_eq!(
            p.steps,
            vec![
                step(Slot(0), 0, Rhs::Stack),
                step(Add, 0, Rhs::Slot(1)),
                step(Neg, 0, Rhs::Stack),
                step(Slot(0), 1, Rhs::Stack),
                step(Const(0.0), 2, Rhs::Stack),
                step(Select, 0, Rhs::Stack),
            ]
        );
        // A lone leaf is one push.
        assert_eq!(
            prog(vec![Slot(0)]).steps,
            vec![step(Slot(0), 0, Rhs::Stack)]
        );
    }

    #[test]
    fn scalar_interpreter_computes_the_chain() {
        let p = axpb();
        assert_eq!(p.eval_scalar(&[3.0, 4.0]), 3.0 + 4.0 * 0.5);
        assert_eq!(p.signature(), "s0;s1;c0.5;mul;add");
    }

    #[test]
    fn block_executor_matches_scalar_oracle_bitwise() {
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
        // len not a block multiple, and a program with no slots at all.
        let p = prog(vec![
            ElemwiseOp::Const(2.0),
            ElemwiseOp::Const(3.0),
            ElemwiseOp::Mul,
        ]);
        let out = fused_eltwise(&p, &[], 301, Backend::Scalar);
        assert_eq!(out.len(), 301);
        assert!(out.iter().all(|&v| v == 6.0));
    }

    /// The values IEEE-754 treats specially, plus an overflow and two
    /// ordinary values to meet them.
    const SPECIALS: [f64; 11] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -1.5e-310,
        f64::MIN_POSITIVE,
        f64::MAX,
        1.5,
        -3.0,
    ];

    /// Lengths around every tier's block: none, one lane, either side of
    /// 64, a ragged few hundred, and a 128² tile and a bit.
    const LENGTHS: [usize; 6] = [0, 1, 63, 65, 301, 128 * 128 + 7];

    /// Bit patterns with every NaN as one: a NaN's sign and payload are not
    /// part of the contract.
    fn bits(data: &[f64]) -> Vec<u64> {
        let one = |v: &f64| if v.is_nan() { f64::NAN } else { *v }.to_bits();
        data.iter().map(one).collect()
    }

    /// A full-mantissa value over sixteen binades, or one time in four a
    /// [`SPECIALS`] entry when `special` is set.
    fn rough(len: usize, seed: u64, special: bool) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                if special && rng.gen_range(0..4) == 0 {
                    SPECIALS[rng.gen_range(0..SPECIALS.len())]
                } else {
                    rng.gen_range(-1.0..1.0) * f64::powi(2.0, rng.gen_range(-8..8))
                }
            })
            .collect()
    }

    /// `prog` on every tier and every length against `eval_scalar`.
    fn assert_every_tier_matches_the_oracle(prog: &FusedProgram, special: bool) {
        for len in LENGTHS {
            let bufs: Vec<Vec<f64>> = (0..prog.n_slots())
                .map(|s| rough(len, 7 + s as u64, special))
                .collect();
            let views: Vec<&[f64]> = bufs.iter().map(Vec::as_slice).collect();
            let want: Vec<f64> = (0..len)
                .map(|i| prog.eval_scalar(&bufs.iter().map(|b| b[i]).collect::<Vec<_>>()))
                .collect();
            for backend in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
                let got = fused_eltwise(prog, &views, len, backend);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{backend:?}, len {len}, {}",
                    prog.signature()
                );
            }
        }
    }

    /// Right-leaning programs push every slot before any op runs, so their
    /// stacks reach past the registers into the spill array: one op of each
    /// kind on each spilled position, and `select` across the boundary.
    fn deep_programs() -> Vec<FusedProgram> {
        use ElemwiseOp::{Abs, Add, Cmp, Const, Div, Mul, Neg, Select, Slot, Sqrt, Sub};
        let binary = [Add, Sub, Mul, Div, Cmp(CmpOp::Lt), Cmp(CmpOp::Ne)];
        let mut programs = Vec::new();
        for depth in [REGS + 1, REGS + 2, 7] {
            // s0 s1 s2 ... neg abs sqrt then op op op ... over the column.
            let mut ops: Vec<ElemwiseOp> = (0..depth).map(|i| Slot(i % 3)).collect();
            ops.extend([Neg, Abs, Sqrt, Const(0.5), Mul]);
            ops.extend((1..depth).map(|i| binary[i % binary.len()].clone()));
            programs.push(prog(ops));
        }
        for depth in 1..=REGS + 2 {
            // A select at position `depth - 1`, its operands from there up.
            let mut ops: Vec<ElemwiseOp> = (0..depth).map(|i| Slot(i % 3)).collect();
            ops.extend([Slot(1), Cmp(CmpOp::Gt), Slot(2), Const(-0.0), Select]);
            ops.extend((1..depth).map(|i| binary[(i + 3) % binary.len()].clone()));
            programs.push(prog(ops));
        }
        programs
    }

    #[test]
    fn programs_deeper_than_the_registers_spill_with_equal_bits() {
        for p in deep_programs() {
            assert!(p.max_stack() > REGS, "{} stays in registers", p.signature());
            assert_every_tier_matches_the_oracle(&p, false);
            assert_every_tier_matches_the_oracle(&p, true);
        }
    }

    #[test]
    fn every_length_and_leaf_kind_matches_the_oracle_on_every_tier() {
        use ElemwiseOp::{Add, Cmp, Const, Div, Mul, Select, Slot, Sub};
        let programs = [
            // Fig. 4.A's add: one push, one slot read in place.
            vec![Slot(0), Slot(1), Add],
            // `eltwise_chain`'s twelve operators.
            vec![
                Slot(0),
                Slot(1),
                Add,
                Const(0.5),
                Mul,
                Slot(1),
                Slot(0),
                Sub,
                Const(0.25),
                Mul,
                Sub,
                Slot(0),
                Const(2.0),
                Mul,
                Add,
                Slot(1),
                Const(0.125),
                Mul,
                Sub,
                Slot(0),
                Slot(1),
                Sub,
                Const(3.0),
                Mul,
                Add,
            ],
            // A guard: select(a >= 0, a / b, 0).
            vec![
                Slot(0),
                Const(0.0),
                Cmp(CmpOp::Ge),
                Slot(0),
                Slot(1),
                Div,
                Const(0.0),
                Select,
            ],
            // A lone slot and a constant program.
            vec![Slot(1)],
            vec![Const(1.5), Const(-3.0), Div],
        ];
        for ops in programs {
            let p = prog(ops);
            assert_every_tier_matches_the_oracle(&p, false);
            assert_every_tier_matches_the_oracle(&p, true);
        }
    }
}
