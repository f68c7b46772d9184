//! The paper's linear algebra workloads, written as array comprehensions.
//!
//! Every function here builds the comprehension text the paper gives for the
//! operation and runs it through the full SAC pipeline — nothing calls a
//! hand-written distributed kernel directly. This is the point of the
//! system: the *same* generic translation rules produce the efficient plans
//! (`eltwise` for Query 8, `contraction` for Query 9, `axisReduce` for
//! Fig. 1, `indexRemap` for §5.2's rotation, `groupByAggregate` for §3's
//! smoothing). The factorization step is the paper's §6 loop body written
//! as a `diablo` loop program and run as one unit
//! ([`Session::run_program`]).

use crate::context::Session;
use comp::errors::CompError;
use planner::{DistArray, PlanEnv};
use tiled::{TiledMatrix, TiledVector};

/// Scratch environment with matrices bound under `%0`, `%1`, ... — names a
/// user query cannot collide with.
fn env_of(mats: &[&TiledMatrix]) -> PlanEnv {
    let mut env = PlanEnv::new();
    for (i, m) in mats.iter().enumerate() {
        env.set_array(format!("X{i}"), DistArray::Matrix((*m).clone()));
    }
    env
}

/// Query (8): element-wise addition `C_ij = A_ij + B_ij`.
pub fn add(s: &Session, a: &TiledMatrix, b: &TiledMatrix) -> Result<TiledMatrix, CompError> {
    let mut env = env_of(&[a, b]);
    env.set_int("n", a.rows());
    env.set_int("m", a.cols());
    s.run_in_env(
        "tiled(n,m)[ ((i,j), a+b) | ((i,j),a) <- X0, ((ii,jj),b) <- X1, ii == i, jj == j ]",
        &env,
    )?
    .into_matrix()
}

/// Element-wise subtraction `C_ij = A_ij - B_ij`.
pub fn subtract(s: &Session, a: &TiledMatrix, b: &TiledMatrix) -> Result<TiledMatrix, CompError> {
    let mut env = env_of(&[a, b]);
    env.set_int("n", a.rows());
    env.set_int("m", a.cols());
    s.run_in_env(
        "tiled(n,m)[ ((i,j), a-b) | ((i,j),a) <- X0, ((ii,jj),b) <- X1, ii == i, jj == j ]",
        &env,
    )?
    .into_matrix()
}

/// Scalar multiple `C_ij = c * A_ij`.
pub fn scale(s: &Session, a: &TiledMatrix, c: f64) -> Result<TiledMatrix, CompError> {
    let mut env = env_of(&[a]);
    env.set_int("n", a.rows());
    env.set_int("m", a.cols());
    env.set_float("c", c);
    s.run_in_env("tiled(n,m)[ ((i,j), c*a) | ((i,j),a) <- X0 ]", &env)?
        .into_matrix()
}

/// Transpose via the tiling-preserving swapped-key comprehension.
pub fn transpose(s: &Session, a: &TiledMatrix) -> Result<TiledMatrix, CompError> {
    let mut env = env_of(&[a]);
    env.set_int("n", a.rows());
    env.set_int("m", a.cols());
    s.run_in_env("tiled(m,n)[ ((j,i), a) | ((i,j),a) <- X0 ]", &env)?
        .into_matrix()
}

/// Query (9): matrix multiplication `C = A · B`. The session's configured
/// strategy decides between the §5.3 reduceByKey plan and the §5.4
/// group-by-join (SUMMA) plan.
pub fn multiply(s: &Session, a: &TiledMatrix, b: &TiledMatrix) -> Result<TiledMatrix, CompError> {
    let mut env = env_of(&[a, b]);
    env.set_int("n", a.rows());
    env.set_int("m", b.cols());
    s.run_in_env(
        "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- X0, ((kk,j),b) <- X1, kk == k, \
         let v = a*b, group by (i,j) ]",
        &env,
    )?
    .into_matrix()
}

/// `C = A · Bᵀ`, expressed by contracting both column indices — the planner
/// recognizes the orientation, no explicit transpose materializes.
pub fn multiply_bt(
    s: &Session,
    a: &TiledMatrix,
    b: &TiledMatrix,
) -> Result<TiledMatrix, CompError> {
    let mut env = env_of(&[a, b]);
    env.set_int("n", a.rows());
    env.set_int("m", b.rows());
    s.run_in_env(
        "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- X0, ((j,kk),b) <- X1, kk == k, \
         let v = a*b, group by (i,j) ]",
        &env,
    )?
    .into_matrix()
}

/// `C = Aᵀ · B`, by contracting both row indices.
pub fn multiply_at(
    s: &Session,
    a: &TiledMatrix,
    b: &TiledMatrix,
) -> Result<TiledMatrix, CompError> {
    let mut env = env_of(&[a, b]);
    env.set_int("n", a.cols());
    env.set_int("m", b.cols());
    s.run_in_env(
        "tiled(n,m)[ ((i,j), +/v) | ((k,i),a) <- X0, ((kk,j),b) <- X1, kk == k, \
         let v = a*b, group by (i,j) ]",
        &env,
    )?
    .into_matrix()
}

/// Matrix–vector product `y = A·x` as a comprehension (the 1-D contraction).
pub fn mat_vec(s: &Session, a: &TiledMatrix, x: &TiledVector) -> Result<TiledVector, CompError> {
    let mut env = env_of(&[a]);
    env.set_array("X1", planner::DistArray::Vector(x.clone()));
    env.set_int("n", a.rows());
    s.run_in_env(
        "tiled_vector(n)[ (i, +/v) | ((i,k),a) <- X0, (kk,x) <- X1, kk == k, \
         let v = a*x, group by i ]",
        &env,
    )?
    .into_vector()
}

/// `y = Aᵀ·x` by contracting the matrix row index.
pub fn mat_vec_t(s: &Session, a: &TiledMatrix, x: &TiledVector) -> Result<TiledVector, CompError> {
    let mut env = env_of(&[a]);
    env.set_array("X1", planner::DistArray::Vector(x.clone()));
    env.set_int("n", a.cols());
    s.run_in_env(
        "tiled_vector(n)[ (j, +/v) | ((k,j),a) <- X0, (kk,x) <- X1, kk == k, \
         let v = a*x, group by j ]",
        &env,
    )?
    .into_vector()
}

/// Element-wise vector combination `z_i = alpha·x_i + beta·y_i + c`.
pub fn vector_affine(
    s: &Session,
    x: &TiledVector,
    y: &TiledVector,
    alpha: f64,
    beta: f64,
    c: f64,
) -> Result<TiledVector, CompError> {
    let mut env = PlanEnv::new();
    env.set_array("X0", planner::DistArray::Vector(x.clone()));
    env.set_array("X1", planner::DistArray::Vector(y.clone()));
    env.set_int("n", x.len());
    env.set_float("alpha", alpha);
    env.set_float("beta", beta);
    env.set_float("c", c);
    s.run_in_env(
        "tiled_vector(n)[ (i, alpha*x + beta*y + c) | (i,x) <- X0, (ii,y) <- X1, ii == i ]",
        &env,
    )?
    .into_vector()
}

/// Fig. 1: row sums `V_i = Σ_j M_ij`.
pub fn row_sums(s: &Session, a: &TiledMatrix) -> Result<TiledVector, CompError> {
    let mut env = env_of(&[a]);
    env.set_int("n", a.rows());
    s.run_in_env(
        "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- X0, group by i ]",
        &env,
    )?
    .into_vector()
}

/// §3: 3×3 neighborhood smoothing with boundary handling.
pub fn smooth(s: &Session, a: &TiledMatrix) -> Result<TiledMatrix, CompError> {
    let mut env = env_of(&[a]);
    env.set_int("n", a.rows());
    env.set_int("m", a.cols());
    s.run_in_env(
        "tiled(n,m)[ ((ii,jj), (+/a)/a.length) | ((i,j),a) <- X0, \
         ii <- (i-1) to (i+1), jj <- (j-1) to (j+1), \
         ii >= 0, ii < n, jj >= 0, jj < m, group by (ii,jj) ]",
        &env,
    )?
    .into_matrix()
}

/// §5.2: rotate rows down by one (the last row wraps to the top).
pub fn rotate_rows(s: &Session, a: &TiledMatrix) -> Result<TiledMatrix, CompError> {
    let mut env = env_of(&[a]);
    env.set_int("n", a.rows());
    env.set_int("m", a.cols());
    s.run_in_env("tiled(n,m)[ (((i+1)%n, j), v) | ((i,j),v) <- X0 ]", &env)?
        .into_matrix()
}

/// One gradient-descent step of matrix factorization (§6, Fig. 4.C) as the
/// loop program it is, over `R` (`n x m`), `P` (`n x rank`) and `Q`
/// (`m x rank`):
///
/// ```text
/// E  ← R − P·Qᵀ
/// P' ← P + γ(2·E·Q − λP)
/// Q' ← Q + γ(2·Eᵀ·P − λQ)
/// ```
///
/// Six statements: the products `PQ`, `EQ` and `ETP`, each read by one
/// element-wise statement alone (`E`, `P2`, `Q2`). Run as one program
/// ([`crate::Session::run_program`]) on the group-by-join, each product and
/// its reader are one cover: the reader runs on the product's cells in
/// their own tasks and only its result is stored.
pub const FACTORIZATION_STEP: &str = "\
    for i = 0, n-1 do for j = 0, m-1 do for k = 0, rank-1 do \
      PQ[i, j] += P[i, k] * Q[j, k]; \
    for i = 0, n-1 do for j = 0, m-1 do \
      E[i, j] = R[i, j] - PQ[i, j]; \
    for i = 0, n-1 do for k = 0, rank-1 do for j = 0, m-1 do \
      EQ[i, k] += E[i, j] * Q[j, k]; \
    for i = 0, n-1 do for k = 0, rank-1 do \
      P2[i, k] = P[i, k] + gamma * (2.0 * EQ[i, k] - lambda * P[i, k]); \
    for j = 0, m-1 do for k = 0, rank-1 do for i = 0, n-1 do \
      ETP[j, k] += E[i, j] * P[i, k]; \
    for j = 0, m-1 do for k = 0, rank-1 do \
      Q2[j, k] = Q[j, k] + gamma * (2.0 * ETP[j, k] - lambda * Q[j, k]);";

/// One step of [`FACTORIZATION_STEP`]: `(P', Q')`. The program runs as one
/// unit ([`Session::run_program`]): its three contractions use the
/// configured strategy, the two updates fuse into single element-wise plans,
/// `E`, read by two contractions, is evaluated once, and on the group-by-join
/// no product is stored — `E`, `P'` and `Q'` are.
pub fn factorization_step(
    s: &Session,
    r: &TiledMatrix,
    p: &TiledMatrix,
    q: &TiledMatrix,
    gamma: f64,
    lambda: f64,
) -> Result<(TiledMatrix, TiledMatrix), CompError> {
    let mut env = PlanEnv::new();
    for (name, m) in [("R", r), ("P", p), ("Q", q)] {
        env.set_array(name, DistArray::Matrix(m.clone()));
    }
    env.set_int("n", r.rows());
    env.set_int("m", r.cols());
    env.set_int("rank", p.cols());
    env.set_float("gamma", gamma);
    env.set_float("lambda", lambda);
    let program = diablo::translate(&diablo::parse_program(FACTORIZATION_STEP)?)?;
    let outputs = s.run_program(&program, &env)?;
    let output = |name: &str| {
        let written = outputs.iter().find(|(n, _)| n == name);
        written
            .expect("the program writes P2 and Q2")
            .1
            .clone()
            .into_matrix()
    };
    Ok((output("P2")?, output("Q2")?))
}

/// Squared Frobenius error `‖R − P·Qᵀ‖²` — the factorization loss.
pub fn factorization_error(
    s: &Session,
    r: &TiledMatrix,
    p: &TiledMatrix,
    q: &TiledMatrix,
) -> Result<f64, CompError> {
    let e = subtract(s, r, &multiply_bt(s, p, q)?)?;
    let local = e.to_local();
    Ok(local.data().iter().map(|x| x * x).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tiled::LocalMatrix;

    fn session() -> Session {
        Session::builder().workers(4).partitions(4).build()
    }

    fn rand_mat(r: usize, c: usize, seed: u64) -> LocalMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        LocalMatrix::random(r, c, -1.0, 1.0, &mut rng)
    }

    fn dist(s: &Session, m: &LocalMatrix) -> TiledMatrix {
        TiledMatrix::from_local(s.spark(), m, 4, 4)
    }

    #[test]
    fn add_subtract_scale_transpose() {
        let s = session();
        let (a, b) = (rand_mat(7, 5, 1), rand_mat(7, 5, 2));
        let (da, db) = (dist(&s, &a), dist(&s, &b));
        assert!(add(&s, &da, &db)
            .unwrap()
            .to_local()
            .approx_eq(&a.add(&b), 1e-12));
        assert!(subtract(&s, &da, &db)
            .unwrap()
            .to_local()
            .approx_eq(&a.sub(&b), 1e-12));
        assert!(scale(&s, &da, 3.0)
            .unwrap()
            .to_local()
            .approx_eq(&a.scale(3.0), 1e-12));
        assert!(transpose(&s, &da)
            .unwrap()
            .to_local()
            .approx_eq(&a.transpose(), 1e-12));
    }

    #[test]
    fn multiply_variants_match_oracle() {
        let s = session();
        let a = rand_mat(6, 8, 3);
        let b = rand_mat(8, 5, 4);
        let c = rand_mat(6, 5, 5);
        let (da, db, dc) = (dist(&s, &a), dist(&s, &b), dist(&s, &c));
        assert!(
            multiply(&s, &da, &db)
                .unwrap()
                .to_local()
                .max_abs_diff(&a.multiply(&b))
                < 1e-9
        );
        // A(6x8) · C(6x5)ᵀ is invalid; use C·? — test A·Bᵀ with B: 5x8.
        let bt = rand_mat(5, 8, 6);
        let dbt = dist(&s, &bt);
        assert!(
            multiply_bt(&s, &da, &dbt)
                .unwrap()
                .to_local()
                .max_abs_diff(&a.multiply(&bt.transpose()))
                < 1e-9
        );
        assert!(
            multiply_at(&s, &da, &dc)
                .unwrap()
                .to_local()
                .max_abs_diff(&a.transpose().multiply(&c))
                < 1e-9
        );
        // A 5%-dense left operand.
        let mut rng = StdRng::seed_from_u64(30);
        let sparse = LocalMatrix::sparse_random(24, 24, 0.05, &mut rng);
        let dense = rand_mat(24, 24, 31);
        assert!(
            multiply(&s, &dist(&s, &sparse), &dist(&s, &dense))
                .unwrap()
                .to_local()
                .max_abs_diff(&sparse.multiply(&dense))
                < 1e-9
        );
    }

    #[test]
    fn mat_vec_variants_match_oracle() {
        let s = session();
        let a = rand_mat(9, 6, 20);
        let x: Vec<f64> = (0..6).map(|i| i as f64 * 0.3 - 1.0).collect();
        let da = dist(&s, &a);
        let dx = TiledVector::from_local(s.spark(), &x, 4, 2);
        let got = mat_vec(&s, &da, &dx).unwrap().to_local();
        let want = a.to_dense().matvec(&x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
        let y: Vec<f64> = (0..9).map(|i| i as f64 + 1.0).collect();
        let dy = TiledVector::from_local(s.spark(), &y, 4, 2);
        let got_t = mat_vec_t(&s, &da, &dy).unwrap().to_local();
        let want_t = a.transpose().to_dense().matvec(&y);
        for (g, w) in got_t.iter().zip(&want_t) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn vector_affine_matches() {
        let s = session();
        let x: Vec<f64> = (0..13).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..13).map(|i| (i * i) as f64).collect();
        let dx = TiledVector::from_local(s.spark(), &x, 4, 2);
        let dy = TiledVector::from_local(s.spark(), &y, 4, 2);
        let got = vector_affine(&s, &dx, &dy, 2.0, -0.5, 1.0)
            .unwrap()
            .to_local();
        for i in 0..13 {
            assert!((got[i] - (2.0 * x[i] - 0.5 * y[i] + 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn row_sums_match() {
        let s = session();
        let a = rand_mat(9, 6, 7);
        let v = row_sums(&s, &dist(&s, &a)).unwrap().to_local();
        for (got, want) in v.iter().zip(a.row_sums()) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn smooth_and_rotate_match_oracle() {
        let s = session();
        let a = rand_mat(6, 6, 8);
        let da = dist(&s, &a);
        assert!(smooth(&s, &da)
            .unwrap()
            .to_local()
            .approx_eq(&a.smooth(), 1e-9));
        let rotated = rotate_rows(&s, &da).unwrap().to_local();
        let expected = LocalMatrix::from_fn(6, 6, |i, j| a.get((i + 6 - 1) % 6, j));
        assert!(rotated.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn factorization_step_decreases_error() {
        let s = session();
        let mut rng = StdRng::seed_from_u64(9);
        let r = LocalMatrix::sparse_random(12, 12, 0.3, &mut rng);
        let p0 = LocalMatrix::random(12, 4, 0.0, 1.0, &mut rng);
        let q0 = LocalMatrix::random(12, 4, 0.0, 1.0, &mut rng);
        let (dr, mut dp, mut dq) = (dist(&s, &r), dist(&s, &p0), dist(&s, &q0));
        let e0 = factorization_error(&s, &dr, &dp, &dq).unwrap();
        for _ in 0..3 {
            let (p2, q2) = factorization_step(&s, &dr, &dp, &dq, 0.002, 0.02).unwrap();
            dp = p2;
            dq = q2;
        }
        let e1 = factorization_error(&s, &dr, &dp, &dq).unwrap();
        assert!(e1 < e0, "gradient descent must reduce error: {e0} -> {e1}");
    }

    #[test]
    fn factorization_step_matches_local_reference() {
        let s = session();
        let mut rng = StdRng::seed_from_u64(10);
        let r = rand_mat(8, 8, 11);
        let p = LocalMatrix::random(8, 4, 0.0, 1.0, &mut rng);
        let q = LocalMatrix::random(8, 4, 0.0, 1.0, &mut rng);
        let (gamma, lambda) = (0.002, 0.02);
        let (dp2, dq2) = factorization_step(
            &s,
            &dist(&s, &r),
            &dist(&s, &p),
            &dist(&s, &q),
            gamma,
            lambda,
        )
        .unwrap();
        // Local reference.
        let e = r.sub(&p.multiply(&q.transpose()));
        let p2 = LocalMatrix::from_fn(8, 4, |i, j| {
            p.get(i, j) + gamma * (2.0 * e.multiply(&q).get(i, j) - lambda * p.get(i, j))
        });
        let q2 = LocalMatrix::from_fn(8, 4, |i, j| {
            q.get(i, j)
                + gamma * (2.0 * e.transpose().multiply(&p).get(i, j) - lambda * q.get(i, j))
        });
        assert!(dp2.to_local().max_abs_diff(&p2) < 1e-9);
        assert!(dq2.to_local().max_abs_diff(&q2) < 1e-9);
    }
}
