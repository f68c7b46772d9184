//! Property tests for the fused elementwise kernel: random expression trees
//! (depth <= 5, with scalar constants) over dense tiles must match
//! the per-element `eval_scalar` oracle *bitwise* on every backend — the
//! determinism contract of `tiled::fused` — on finite values and again with
//! ±0.0, NaN, ±∞ and subnormals mixed into the slots and the constants
//! (where a NaN result is NaN on every tier; see [`bits`]).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiled::fused::CmpOp;
use tiled::kernel::Backend;
use tiled::{DenseMatrix, ElemwiseOp, FusedProgram, LocalMatrix};

/// The values IEEE-754 treats specially, plus an overflow and two ordinary
/// values to meet them.
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

/// In the style of `tests/common`'s `rough_special()`: a value over sixteen
/// binades with a full mantissa, or one time in four a [`SPECIALS`] entry.
fn special(rng: &mut StdRng) -> f64 {
    if rng.gen_range(0..4) == 0 {
        SPECIALS[rng.gen_range(0..SPECIALS.len())]
    } else {
        rng.gen_range(-1.0..1.0) * f64::powi(2.0, rng.gen_range(-8..8))
    }
}

/// What random trees are made of.
#[derive(Clone, Copy, PartialEq)]
enum Mix {
    /// Half-unit constants, `sqrt` emitted as `abs; sqrt`, no division:
    /// random trees stay NaN-free over finite slots.
    Finite,
    /// Constants drawn by [`special`], division, and `sqrt` of whatever
    /// comes: NaN and ±∞ arise inside the program too.
    Special,
}

/// Build a random postfix expression tree of the given depth over `n_slots`
/// inputs. Leaves are slot loads or scalar constants; interior nodes draw
/// from the full op set.
fn random_tree(
    rng: &mut StdRng,
    depth: usize,
    n_slots: usize,
    mix: Mix,
    ops: &mut Vec<ElemwiseOp>,
) {
    if depth == 0 || rng.gen_range(0..6) == 0 {
        if n_slots > 0 && rng.gen_range(0..4) != 0 {
            ops.push(ElemwiseOp::Slot(rng.gen_range(0..n_slots)));
        } else if mix == Mix::Special {
            ops.push(ElemwiseOp::Const(special(rng)));
        } else {
            // Small half-unit constants: exactly representable, so trace-time
            // folding and per-element evaluation agree trivially.
            ops.push(ElemwiseOp::Const(rng.gen_range(-8i32..=8) as f64 * 0.5));
        }
        return;
    }
    let kinds = if mix == Mix::Special { 9 } else { 8 };
    let sub = |rng: &mut StdRng, ops: &mut Vec<ElemwiseOp>| {
        random_tree(rng, depth - 1, n_slots, mix, ops)
    };
    match rng.gen_range(0..kinds) {
        0 => {
            sub(rng, ops);
            sub(rng, ops);
            ops.push(ElemwiseOp::Add);
        }
        1 => {
            sub(rng, ops);
            sub(rng, ops);
            ops.push(ElemwiseOp::Sub);
        }
        2 => {
            sub(rng, ops);
            sub(rng, ops);
            ops.push(ElemwiseOp::Mul);
        }
        3 => {
            sub(rng, ops);
            ops.push(ElemwiseOp::Neg);
        }
        4 => {
            sub(rng, ops);
            ops.push(ElemwiseOp::Abs);
        }
        5 => {
            sub(rng, ops);
            if mix == Mix::Finite {
                ops.push(ElemwiseOp::Abs);
            }
            ops.push(ElemwiseOp::Sqrt);
        }
        6 => {
            sub(rng, ops);
            sub(rng, ops);
            let cmp = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ][rng.gen_range(0usize..6)];
            ops.push(ElemwiseOp::Cmp(cmp));
        }
        7 => {
            sub(rng, ops);
            sub(rng, ops);
            sub(rng, ops);
            ops.push(ElemwiseOp::Select);
        }
        _ => {
            sub(rng, ops);
            sub(rng, ops);
            ops.push(ElemwiseOp::Div);
        }
    }
}

fn random_program(seed: u64, depth: usize, n_slots: usize, mix: Mix) -> FusedProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    random_tree(&mut rng, depth, n_slots, mix, &mut ops);
    FusedProgram::new(ops).expect("generated postfix tree is always balanced")
}

fn rand_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    LocalMatrix::random(rows, cols, -2.0, 2.0, &mut rng).to_dense()
}

fn special_buf(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| special(&mut rng)).collect()
}

/// Bit patterns, every NaN as one: which of two NaNs a `+` or `*` returns
/// is unspecified in Rust (the compiler may commute the operands), so a
/// NaN's sign and payload are not part of the contract. Every other bit —
/// ±0.0, ±∞, subnormals — is.
fn bits(data: &[f64]) -> Vec<u64> {
    data.iter()
        .map(|v| {
            if v.is_nan() {
                f64::NAN.to_bits()
            } else {
                v.to_bits()
            }
        })
        .collect()
}

const BACKENDS: [Backend; 3] = [Backend::Scalar, Backend::Avx2, Backend::Avx512];

/// The dense executor against `eval_scalar`, element by element, on every
/// backend (a tier the CPU lacks runs clamped to one it has).
fn assert_dense_matches_oracle(p: &FusedProgram, bufs: &[Vec<f64>], len: usize) {
    let views: Vec<&[f64]> = bufs.iter().map(Vec::as_slice).collect();
    let want: Vec<f64> = (0..len)
        .map(|i| {
            let slots: Vec<f64> = bufs.iter().map(|b| b[i]).collect();
            p.eval_scalar(&slots)
        })
        .collect();
    let want = bits(&want);
    for backend in BACKENDS {
        let got = tiled::kernel::fused_eltwise(p, &views, len, backend);
        assert_eq!(
            bits(&got),
            want,
            "backend {backend:?} sig {}",
            p.signature()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chunked executor == per-element oracle, bit-for-bit, on every
    /// backend, for random trees over up to 3 dense slot buffers and
    /// lengths straddling the chunk boundaries.
    #[test]
    fn fused_dense_bit_identical_to_scalar_oracle(
        seed in 0u64..10_000, depth in 1usize..=5, n_slots in 1usize..=3,
        len in 1usize..1200,
    ) {
        let p = random_program(seed, depth, n_slots, Mix::Finite);
        let bufs: Vec<Vec<f64>> = (0..n_slots)
            .map(|s| rand_dense(1, len, seed ^ (s as u64 + 1)).data().to_vec())
            .collect();
        assert_dense_matches_oracle(&p, &bufs, len);
    }

    /// The same with special values in the slots and the constants, and
    /// division and unguarded `sqrt` in the trees.
    #[test]
    fn fused_dense_special_floats_bit_identical_to_scalar_oracle(
        seed in 0u64..10_000, depth in 1usize..=5, n_slots in 1usize..=3,
        len in 1usize..1200,
    ) {
        let p = random_program(seed, depth, n_slots, Mix::Special);
        let bufs: Vec<Vec<f64>> = (0..n_slots)
            .map(|s| special_buf(len, seed ^ (s as u64 + 1)))
            .collect();
        assert_dense_matches_oracle(&p, &bufs, len);
    }

    /// Constant folding at any subtree is bit-safe: folding uses the same
    /// f64 arithmetic as per-element evaluation, so a program made entirely
    /// of constants equals its folded value everywhere.
    #[test]
    fn constant_programs_fill_with_their_folded_value(
        seed in 0u64..10_000, depth in 1usize..=5, len in 1usize..600,
    ) {
        let p = random_program(seed, depth, 0, Mix::Finite);
        let folded = p.eval_scalar(&[]);
        for backend in BACKENDS {
            let got = tiled::kernel::fused_eltwise(&p, &[], len, backend);
            for (i, v) in got.iter().enumerate() {
                prop_assert_eq!(v.to_bits(), folded.to_bits(), "element {}", i);
            }
        }
    }
}

/// Every binary op and `select` over every combination of [`SPECIALS`],
/// with each operand once a slot and once an immediate: `select` on NaN
/// and −0.0 conditions, comparisons against NaN, division by ±0.0.
#[test]
fn every_special_operand_combination_matches_the_oracle_bitwise() {
    use ElemwiseOp::{Const, Select, Slot};
    let n = SPECIALS.len();
    let binary = [
        ElemwiseOp::Add,
        ElemwiseOp::Sub,
        ElemwiseOp::Mul,
        ElemwiseOp::Div,
        ElemwiseOp::Cmp(CmpOp::Eq),
        ElemwiseOp::Cmp(CmpOp::Ne),
        ElemwiseOp::Cmp(CmpOp::Lt),
        ElemwiseOp::Cmp(CmpOp::Le),
        ElemwiseOp::Cmp(CmpOp::Gt),
        ElemwiseOp::Cmp(CmpOp::Ge),
    ];
    // All pairs as two slots, and each value as either immediate.
    let (xs, ys): (Vec<f64>, Vec<f64>) = (0..n * n)
        .map(|i| (SPECIALS[i / n], SPECIALS[i % n]))
        .unzip();
    for op in binary {
        let p = FusedProgram::new(vec![Slot(0), Slot(1), op.clone()]).unwrap();
        assert_dense_matches_oracle(&p, &[xs.clone(), ys.clone()], n * n);
        for c in SPECIALS {
            for ops in [
                vec![Const(c), Slot(0), op.clone()],
                vec![Slot(0), Const(c), op.clone()],
            ] {
                let p = FusedProgram::new(ops).unwrap();
                assert_dense_matches_oracle(&p, &[SPECIALS.to_vec()], n);
            }
        }
    }
    for op in [ElemwiseOp::Neg, ElemwiseOp::Abs, ElemwiseOp::Sqrt] {
        let p = FusedProgram::new(vec![Slot(0), op]).unwrap();
        assert_dense_matches_oracle(&p, &[SPECIALS.to_vec()], n);
    }
    // All triples as three slots, and each value as an immediate condition.
    let triples: Vec<[f64; 3]> = (0..n * n * n)
        .map(|i| [SPECIALS[i / (n * n)], SPECIALS[i / n % n], SPECIALS[i % n]])
        .collect();
    let slot = |k: usize| triples.iter().map(|t| t[k]).collect::<Vec<f64>>();
    let p = FusedProgram::new(vec![Slot(0), Slot(1), Slot(2), Select]).unwrap();
    assert_dense_matches_oracle(&p, &[slot(0), slot(1), slot(2)], n * n * n);
    for c in SPECIALS {
        let p = FusedProgram::new(vec![Const(c), Slot(0), Slot(1), Select]).unwrap();
        assert_dense_matches_oracle(&p, &[xs.clone(), ys.clone()], n * n);
    }
}
