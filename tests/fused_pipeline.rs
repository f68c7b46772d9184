//! Fused-pipeline correctness sweep: random elementwise expression trees
//! (depth <= 5, scalar constants, the index variables `i`/`j`, an optional
//! guard, either head orientation) compiled through the whole stack must be
//! bit-identical to evaluating the same source element by element — under
//! seeded chaos, a 256-byte storage budget, and 1..N tile threads.
//!
//! The oracle is an independent computation: the expression text is compiled
//! on its own with `ScalarFn::compile` and `eval`-ed per element over the
//! `LocalMatrix` inputs. It never touches a tile, so padding, the index-plane
//! slots, chunking and the transposed head are all on the system's side of
//! the comparison only.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac_repro::comp::parse_expr;
use sac_repro::planner::{PlanEnv, ScalarFn};
use sac_repro::sac::Session;
use sac_repro::sparkline::ChaosPlan;
use sac_repro::tiled::{LocalMatrix, TiledVector};

/// Render a random fully-parenthesized elementwise expression over the tile
/// variables `a`, `b`, the global indices `i`, `j`, and exactly-representable
/// scalar constants. `sqrt` is wrapped in `abs` so results stay finite and
/// the bits are the plain-arithmetic chain, not NaN payloads.
fn random_expr(rng: &mut StdRng, depth: usize) -> String {
    if depth == 0 || rng.gen_range(0u32..5) == 0 {
        return match rng.gen_range(0u32..6) {
            0 => "a".to_string(),
            1 => "b".to_string(),
            2 => "i".to_string(),
            3 => "j".to_string(),
            _ => format!("{:?}", rng.gen_range(-6i32..=6) as f64 * 0.25),
        };
    }
    match rng.gen_range(0u32..6) {
        0 => format!(
            "({} + {})",
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1)
        ),
        1 => format!(
            "({} - {})",
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1)
        ),
        2 => format!(
            "({} * {})",
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1)
        ),
        3 => format!("abs({})", random_expr(rng, depth - 1)),
        4 => format!("sqrt(abs({}))", random_expr(rng, depth - 1)),
        _ => format!(
            "({} * {:?})",
            random_expr(rng, depth - 1),
            rng.gen_range(-8i32..=8) as f64 * 0.5
        ),
    }
}

/// A random ordering guard between two shallow expressions (never `==`
/// between bare variables, which the planner reads as a join key).
fn random_guard(rng: &mut StdRng) -> String {
    let op = ["<", "<=", ">", ">="][rng.gen_range(0usize..4)];
    format!("{} {op} {}", random_expr(rng, 2), random_expr(rng, 2))
}

/// One elementwise query over `A` and `B`: head value `expr`, optional
/// `guard`, head key `(j,i)` when `transposed`.
struct Query {
    expr: String,
    guard: Option<String>,
    transposed: bool,
}

impl Query {
    fn source(&self) -> String {
        let key = if self.transposed { "(j,i)" } else { "(i,j)" };
        let guard = self
            .guard
            .as_ref()
            .map_or(String::new(), |g| format!(", {g}"));
        format!(
            "tiled(n,n)[ ({key}, {}) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j{guard} ]",
            self.expr
        )
    }

    /// The per-element oracle: bit patterns of the logical `n x n` result.
    fn reference(&self, a: &LocalMatrix, b: &LocalMatrix, n: usize) -> Vec<u64> {
        let slots: Vec<String> = ["a", "b", "i", "j"].map(String::from).to_vec();
        let env = PlanEnv::new();
        let compile =
            |src: &str| ScalarFn::compile(&parse_expr(src).unwrap(), &slots, 2, &env).unwrap();
        let value = compile(&self.expr);
        let guard = self.guard.as_deref().map(compile);
        (0..n * n)
            .map(|idx| {
                let (r, c) = (idx / n, idx % n);
                let (i, j) = if self.transposed { (c, r) } else { (r, c) };
                let vars = [a.get(i, j), b.get(i, j), i as f64, j as f64];
                let keep = guard.as_ref().is_none_or(|g| g.eval(&vars) != 0.0);
                let v = if keep { value.eval(&vars) } else { 0.0 };
                v.to_bits()
            })
            .collect()
    }
}

struct Knobs {
    n: usize,
    tile: usize,
    tile_threads: usize,
    chaos: Option<u64>,
    storage: usize,
}

fn session(a: &LocalMatrix, b: &LocalMatrix, k: &Knobs) -> Session {
    let mut builder = Session::builder()
        .workers(4)
        .partitions(4)
        .tile_threads(k.tile_threads)
        .storage_memory(k.storage)
        .max_task_attempts(8)
        .max_stage_attempts(12);
    builder = match k.chaos {
        Some(seed) => builder.chaos(ChaosPlan::seeded(seed, 4)),
        None => builder.chaos_off(),
    };
    let mut s = builder.build();
    s.register_local_matrix("A", a, k.tile);
    s.register_local_matrix("B", b, k.tile);
    s.set_int("n", k.n as i64);
    s
}

fn run_query(src: &str, a: &LocalMatrix, b: &LocalMatrix, k: &Knobs) -> Vec<u64> {
    let s = session(a, b, k);
    // Every case must really take the fused path, not the local fallback.
    assert_eq!(
        s.explain(src).unwrap(),
        format!("eltwise/fused -> matrix {0}x{0}", k.n)
    );
    let out = s.matrix(src).unwrap().to_local();
    out.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fused == per-element oracle, bitwise, for random trees — under seeded
    /// chaos + a 256-byte storage budget (nothing fits: every persisted
    /// block is evicted and recomputed) + a swept tile-thread count. `n`
    /// ranges over multiples and non-multiples of the tile size, so padded
    /// edge tiles (and their index planes) are in play.
    #[test]
    fn random_elementwise_trees_fused_equals_per_element_oracle_bitwise(
        seed in 0u64..10_000, depth in 1usize..=5,
        n in 4usize..10, tile in 2usize..5,
        tile_threads in 1usize..=4, chaos_seed in 0u64..5_000,
        sparse_inputs in proptest::bool::ANY,
        guarded in proptest::bool::ANY,
        transposed in proptest::bool::ANY,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let query = Query {
            expr: random_expr(&mut rng, depth),
            guard: guarded.then(|| random_guard(&mut rng)),
            transposed,
        };
        let (a, b) = if sparse_inputs {
            // Zero-heavy inputs: exercises the `preserves_zero` boundary and
            // tile padding without a session-level CSC registration path.
            (
                LocalMatrix::sparse_random(n, n, 0.3, &mut rng),
                LocalMatrix::sparse_random(n, n, 0.3, &mut rng),
            )
        } else {
            (
                LocalMatrix::random(n, n, -2.0, 2.0, &mut rng),
                LocalMatrix::random(n, n, -2.0, 2.0, &mut rng),
            )
        };

        let src = query.source();
        let fused = run_query(&src, &a, &b, &Knobs {
            n, tile, tile_threads, chaos: Some(chaos_seed), storage: 256,
        });
        prop_assert_eq!(
            fused, query.reference(&a, &b, n),
            "src {} chaos {} threads {} diverged", src, chaos_seed, tile_threads
        );
    }
}

/// The acceptance scenario, pinned: `A + B * c` over 384^2 inputs with
/// 128-wide tiles runs as one fused region and matches the per-element
/// oracle bit-for-bit (integer-derived inputs: every bit is meaningful).
#[test]
fn e2e_384_fused_add_scale_bit_identical_to_per_element_oracle() {
    let n = 384;
    let a = LocalMatrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 9) as f64 - 4.0);
    let b = LocalMatrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) % 13) as f64 - 6.0);
    let query = Query {
        expr: "(a + (b * 0.5))".to_string(),
        guard: None,
        transposed: false,
    };
    let knobs = Knobs {
        n,
        tile: 128,
        tile_threads: 2,
        chaos: None,
        storage: usize::MAX,
    };
    let fused = run_query(&query.source(), &a, &b, &knobs);
    assert_eq!(fused, query.reference(&a, &b, n));
}

/// An index-reading, guarded, transposed region over a non-multiple-of-tile
/// `n` is one fused region like any other: it reads the row/col planes as
/// program slots 2 and 3 and emits exactly one `region_fused` event.
#[test]
fn index_reading_region_fuses_and_matches_per_element_oracle() {
    let n = 7;
    let mut rng = StdRng::seed_from_u64(41);
    let a = LocalMatrix::random(n, n, -2.0, 2.0, &mut rng);
    let b = LocalMatrix::random(n, n, -2.0, 2.0, &mut rng);
    let query = Query {
        expr: "((a * i) + (b - j))".to_string(),
        guard: Some("i <= (j + 2.0)".to_string()),
        transposed: true,
    };
    let knobs = Knobs {
        n,
        tile: 3,
        tile_threads: 1,
        chaos: None,
        storage: usize::MAX,
    };
    let src = query.source();
    assert_eq!(run_query(&src, &a, &b, &knobs), query.reference(&a, &b, n));

    let profile = session(&a, &b, &knobs)
        .explain_analyze(&src)
        .unwrap()
        .profile;
    assert_eq!(profile.fused_regions.len(), 1, "{}", profile.render());
    let region = &profile.fused_regions[0];
    assert_eq!(region.inputs, 2);
    assert!(
        region.signature.contains("s2") && region.signature.contains("s3"),
        "index planes are slots k and k+1: {}",
        region.signature
    );
}

/// The 1-D twin: `alpha*x + y + i` over tiled vectors (length not a multiple
/// of the block size) plans as `vectorEltwise`, runs as one fused region
/// reading the index plane as slot 2, and matches the per-element oracle.
#[test]
fn vector_region_fuses_and_matches_per_element_oracle() {
    let (len, block, alpha) = (11usize, 4usize, 0.5f64);
    let x: Vec<f64> = (0..len).map(|i| i as f64 * 0.75 - 3.0).collect();
    let y: Vec<f64> = (0..len).map(|i| (i * i) as f64 * 0.125).collect();
    let mut s = Session::builder()
        .workers(4)
        .partitions(4)
        .chaos_off()
        .build();
    s.register_vector("X", TiledVector::from_local(s.spark(), &x, block, 2));
    s.register_vector("Y", TiledVector::from_local(s.spark(), &y, block, 2));
    s.set_int("n", len as i64);
    s.set_float("alpha", alpha);
    let src = "tiled_vector(n)[ (i, alpha*x + y + i) | (i,x) <- X, (ii,y) <- Y, ii == i ]";
    assert_eq!(s.explain(src).unwrap(), "vectorEltwise -> vector 11");

    let slots: Vec<String> = ["x", "y", "i"].map(String::from).to_vec();
    let mut env = PlanEnv::new();
    env.set_float("alpha", alpha);
    let value =
        ScalarFn::compile(&parse_expr("alpha*x + y + i").unwrap(), &slots, 2, &env).unwrap();
    let want: Vec<u64> = (0..len)
        .map(|i| value.eval(&[x[i], y[i], i as f64]).to_bits())
        .collect();
    let got: Vec<u64> = s
        .vector(src)
        .unwrap()
        .to_local()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(got, want);

    let profile = s.explain_analyze(src).unwrap().profile;
    assert_eq!(profile.fused_regions.len(), 1, "{}", profile.render());
    assert!(
        profile.fused_regions[0].signature.contains("s2"),
        "the element index is slot k: {}",
        profile.fused_regions[0].signature
    );
}
