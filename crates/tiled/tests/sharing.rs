//! The tile ownership contract: a payload is shared by `clone()` and every
//! `&mut self` method copies it on write, so no holder of a tile can observe
//! another holder's mutation — and none of it shows on the wire.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkline::wire::encode_frame;
use tiled::kernel::Backend;
use tiled::{CscTile, DenseMatrix, LocalMatrix};

/// Non-integer values, so a reordered or repeated operation shows in the bits.
fn rand_dense(rows: usize, cols: usize, rng: &mut StdRng) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-3.0..3.0))
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// A tile with the same contents in a buffer of its own.
fn deep_copy(m: &DenseMatrix) -> DenseMatrix {
    DenseMatrix::from_vec(m.rows(), m.cols(), m.data().to_vec())
}

#[test]
fn clone_shares_the_payload_and_a_write_unshares_it() {
    let a = DenseMatrix::from_fn(4, 5, |i, j| (i * 5 + j) as f64 + 0.5);
    let mut b = a.clone();
    assert_eq!(a.data().as_ptr(), b.data().as_ptr(), "clone must not copy");
    assert_eq!(a, b);
    b.set(1, 2, -1.0);
    assert_ne!(a.data().as_ptr(), b.data().as_ptr(), "write must unshare");
    assert_eq!(a.get(1, 2), 7.5, "the original must not see the write");
    // A sole owner mutates in place: no copy when nothing is shared.
    let ptr = b.data().as_ptr();
    b.scale_in_place(2.0);
    assert_eq!(b.data().as_ptr(), ptr);
}

#[test]
fn adopting_and_releasing_a_buffer_moves_it() {
    let v = vec![1.5, 2.5, 3.5, 4.5];
    let ptr = v.as_ptr();
    let m = DenseMatrix::from_vec(2, 2, v);
    assert_eq!(m.data().as_ptr(), ptr, "from_vec must adopt, not copy");
    let shared = m.clone();
    // Shared: converting one handle copies, the other still owns the buffer.
    let copied = LocalMatrix::from(shared);
    assert_ne!(copied.data().as_ptr(), ptr);
    // Unique: the allocation itself moves into the local matrix.
    let moved = LocalMatrix::from(m);
    assert_eq!(
        moved.data().as_ptr(),
        ptr,
        "a sole owner gives its buffer up"
    );
    assert_eq!(moved, copied);
}

/// SPKL bytes of a `(coord, tile)` bucket, captured at the commit before
/// tile payloads became shared: the representation change must not move a
/// byte of any frame (`sparkline.shuffle.bytes`, spooled frames, worker PUTs).
#[test]
fn encoded_frame_is_byte_identical_to_the_owned_payload_format() {
    const PARENT_FRAME: &str = "53504b4c01600000007fc0b9cb0100000000000000070000000000\
        0000feffffffffffffff020000000000000003000000000000000600000000000000000000\
        000000e4bfabaaaaaaaaaad2bf505555555555a53f000000000000e43faaaaaaaaaaaaee3f\
        aaaaaaaaaaaaf43f";
    let t = DenseMatrix::from_fn(2, 3, |i, j| (i as f64 - 0.5) * 1.25 + j as f64 / 3.0);
    // Encode through a shared handle: sharing is invisible on the wire.
    let bucket = vec![((7i64, -2i64), t.clone())];
    let hex: String = encode_frame(&bucket)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(hex, PARENT_FRAME);
    assert_eq!(
        sparkline::wire::encoded_len(&bucket),
        (PARENT_FRAME.len() / 2) as u64
    );
}

/// Every `&mut self` entry point of a tile, applied to an `r x c` receiver.
/// The operands are built from `rng`, so the same seed replays the same call.
type Mutation = (&'static str, fn(&mut DenseMatrix, &mut StdRng));

const MUTATIONS: &[Mutation] = &[
    ("data_mut", |m, rng| {
        let at = rng.gen_range(0..m.data().len());
        m.data_mut()[at] = rng.gen_range(-1.0..1.0);
    }),
    ("set", |m, rng| {
        let (i, j) = (rng.gen_range(0..m.rows()), rng.gen_range(0..m.cols()));
        m.set(i, j, rng.gen_range(-1.0..1.0));
    }),
    ("add_at", |m, rng| {
        let (i, j) = (rng.gen_range(0..m.rows()), rng.gen_range(0..m.cols()));
        m.add_at(i, j, rng.gen_range(-1.0..1.0));
    }),
    ("add_in_place", |m, rng| {
        let other = rand_dense(m.rows(), m.cols(), rng);
        m.add_in_place(&other);
    }),
    ("axpy_in_place", |m, rng| {
        let other = rand_dense(m.rows(), m.cols(), rng);
        m.axpy_in_place(rng.gen_range(-2.0..2.0), &other);
    }),
    ("scale_in_place", |m, rng| {
        m.scale_in_place(rng.gen_range(-2.0..2.0))
    }),
    ("gemm_acc", |m, rng| {
        let (a, b) = gemm_operands(m, rng);
        m.gemm_acc(&a, &b);
    }),
    ("gemm_acc_parallel", |m, rng| {
        let (a, b) = gemm_operands(m, rng);
        m.gemm_acc_parallel(&a, &b, 3);
    }),
    ("gemm_acc_with", |m, rng| {
        let (a, b) = gemm_operands(m, rng);
        m.gemm_acc_with(&a, &b, 2, Backend::Scalar);
    }),
    ("gemm_acc_naive", |m, rng| {
        let (a, b) = gemm_operands(m, rng);
        m.gemm_acc_naive(&a, &b);
    }),
    ("paste", |m, rng| {
        let other = rand_dense(rng.gen_range(1..6), rng.gen_range(1..6), rng);
        // Past the edge on purpose: clipping is part of the contract.
        let (r0, c0) = (
            rng.gen_range(0..m.rows() + 2),
            rng.gen_range(0..m.cols() + 2),
        );
        m.paste(r0, c0, &other);
    }),
    ("spmm_acc", |m, rng| {
        let (a, b) = gemm_operands(m, rng);
        let sparse = a.map(|x| if x > 0.0 { x } else { 0.0 });
        CscTile::from_dense(&sparse).spmm_acc(&b, m);
    }),
];

/// `(r x k, k x c)` for an `r x c` receiver.
fn gemm_operands(m: &DenseMatrix, rng: &mut StdRng) -> (DenseMatrix, DenseMatrix) {
    let k = rng.gen_range(1..7);
    (rand_dense(m.rows(), k, rng), rand_dense(k, m.cols(), rng))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mutating a clone leaves the original bit-identical, and produces
    /// exactly what the same call produces on a deep copy.
    #[test]
    fn every_mutation_copies_on_write(rows in 1usize..9, cols in 1usize..9,
                                      seed in 0u64..10_000) {
        for (name, mutate) in MUTATIONS {
            let original = rand_dense(rows, cols, &mut StdRng::seed_from_u64(seed));
            let before = bits(&original);
            let mut shared = original.clone();
            let mut owned = deep_copy(&original);
            mutate(&mut shared, &mut StdRng::seed_from_u64(seed ^ 0xC0FFEE));
            mutate(&mut owned, &mut StdRng::seed_from_u64(seed ^ 0xC0FFEE));
            prop_assert_eq!(bits(&original), before.clone(), "{} wrote through a clone", name);
            prop_assert_eq!(bits(&shared), bits(&owned), "{} differs on a shared payload", name);
        }
    }

    /// `paste` by row slices is the element-by-element definition, clipped.
    #[test]
    fn paste_matches_the_elementwise_definition(rows in 1usize..9, cols in 1usize..9,
                                                orows in 1usize..7, ocols in 1usize..7,
                                                r0 in 0usize..11, c0 in 0usize..11,
                                                seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = rand_dense(rows, cols, &mut rng);
        let other = rand_dense(orows, ocols, &mut rng);
        let mut got = base.clone();
        got.paste(r0, c0, &other);
        let want = DenseMatrix::from_fn(rows, cols, |i, j| {
            if i >= r0 && i - r0 < orows && j >= c0 && j - c0 < ocols {
                other.get(i - r0, j - c0)
            } else {
                base.get(i, j)
            }
        });
        prop_assert_eq!(bits(&got), bits(&want));
    }
}
