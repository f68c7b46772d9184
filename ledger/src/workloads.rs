//! The five workloads: the paper's Fig. 4 A/B/C queries plus the two that
//! isolate what the figure mixes (worker-process shuffle, fixed per-query
//! cost). Each builds its inputs from the seed, runs one iteration as a
//! closed-loop client would — issue the script, collect every result — and
//! checks that result with an O(n²) computation that shares no code with the
//! plans it checks. Verification tolerates reduction-order differences
//! (relative 1e-9); bit-equality is not the contract yet.

use crate::trace::Recorder;
use mllib::BlockMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac::Session;
use std::cell::OnceCell;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tiled::fused::{ElemwiseOp, FusedProgram};
use tiled::{DenseMatrix, LocalMatrix, TileCoord, TiledMatrix, TiledVector};

/// Name and the reason the workload is in the set, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "matmul_inproc",
        "Fig. 4.B 2048x2048 dense multiply in-process: tile GEMM and in-memory shuffle do the work, wire and transport none",
    ),
    (
        "matmul_procs",
        "same query at 768x768 through 2 worker processes: SPKL encode, sockets and fetches do the work, the kernel under 3%",
    ),
    (
        "eltwise_chain",
        "Fig. 4.A add then a 12-operator elementwise chain on 4096x4096: no shuffle, no GEMM; fusion, task launch, memory bandwidth",
    ),
    (
        "factorization",
        "Fig. 4.C two chained gradient-descent steps: thin and transposed contractions, subtract, fused updates, adaptive probes",
    ),
    (
        "small_queries",
        "ten distinct queries on 192x192 re-parsed and re-planned 25 times each: fixed per-query cost, data volume nil",
    ),
];

/// Executor threads: the load is sized to the machine, capped so a bigger
/// box does not change the partition-to-worker ratio out of recognition.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

pub const PARTITIONS: usize = 8;
const TOL: f64 = 1e-9;

#[derive(Clone, Copy, PartialEq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// A few tiles per matrix, for the tests: same code path, no load.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// What one iteration cost and whether its output was right.
pub struct Iter {
    pub timed: Duration,
    pub verify: Duration,
    pub ok: bool,
}

/// Static facts about one iteration that the layer probes are shaped by.
pub struct Facts {
    pub tile: usize,
    pub worker_processes: usize,
    /// Tile GEMMs one iteration performs (`flops = 2·tile³·products`).
    pub gemm_products: u64,
    /// Bytes of the distinct registered operands.
    pub operand_bytes: u64,
    /// Each fused elementwise program of the iteration with the number of
    /// tiles it runs over.
    pub fused: Vec<(FusedProgram, u64)>,
}

/// Median cost of turning the iteration's sources into plans.
#[derive(Default)]
pub struct CompileCosts {
    pub comp_us: f64,
    pub plan_us: f64,
}

pub trait Workload {
    fn session(&self) -> &Session;
    fn facts(&self) -> Facts;
    /// One iteration: timed sections run the script and collect the result,
    /// verification sits between them, outside the timers.
    fn iterate(&self, rec: &mut Recorder) -> Iter;
    /// The same iteration written with `BlockMatrix` calls on the same
    /// data; `None` where MLlib has no equivalent.
    fn iterate_mllib(&self) -> Option<Duration>;
    /// Σ over the iteration's sources of the median `comp::compile_text`
    /// time, and of `Session::compile` minus that.
    fn compile_costs(&mut self, rec: &mut Recorder) -> CompileCosts;
}

/// Side and tile of `matmul_procs`, shared with its in-process twin.
const PROCS_SHAPE: (usize, usize) = (768, 128);

pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    let full = scale == Scale::Full;
    Some(match name {
        "matmul_inproc" if full => Box::new(MatMul::new(seed, 2048, 128, 0)),
        "matmul_inproc" => Box::new(MatMul::new(seed, 24, 8, 0)),
        "matmul_procs" if full => Box::new(MatMul::new(seed, PROCS_SHAPE.0, PROCS_SHAPE.1, 2)),
        "matmul_procs" => Box::new(MatMul::new(seed, 24, 8, 2)),
        "eltwise_chain" if full => Box::new(EltwiseChain::new(seed, 4096, 128)),
        "eltwise_chain" => Box::new(EltwiseChain::new(seed, 24, 8)),
        "factorization" if full => Box::new(Factorization::new(seed, 2048, 128, 128)),
        "factorization" => Box::new(Factorization::new(seed, 24, 8, 8)),
        "small_queries" if full => Box::new(SmallQueries::new(seed, 192, 64, 25)),
        "small_queries" => Box::new(SmallQueries::new(seed, 12, 4, 2)),
        _ => return None,
    })
}

/// The worker-process workload's query and data with the shuffle kept in
/// memory: the base of `sparkline.transport.procs_over_inproc`.
pub fn in_process_twin(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    (name == "matmul_procs")
        .then(|| Box::new(MatMul::new(seed, PROCS_SHAPE.0, PROCS_SHAPE.1, 0)) as Box<dyn Workload>)
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

type Tiles = Vec<(TileCoord, DenseMatrix)>;

fn session(worker_processes: usize) -> Session {
    Session::builder()
        .workers(workers())
        .partitions(PARTITIONS)
        .worker_processes(worker_processes)
        .chaos_off()
        .build()
}

/// Independent stream `k` of the run's seed.
fn rng(seed: u64, k: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k))
}

/// Probe vector in [1, 2): no entry is small enough to hide a wrong column.
fn probe_vector(len: usize, seed: u64, k: u64) -> Vec<f64> {
    let mut rng = rng(seed, k);
    (0..len).map(|_| rng.gen_range(1.0..2.0)).collect()
}

fn run_matrix(s: &Session, src: &str) -> Result<TiledMatrix, String> {
    s.run(src)
        .and_then(|r| r.into_matrix())
        .map_err(|e| e.to_string())
}

fn run_vector(s: &Session, src: &str) -> Result<Vec<f64>, String> {
    s.run(src)
        .and_then(|r| r.into_vector())
        .map(|v| v.to_local())
        .map_err(|e| e.to_string())
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `M·x` for a row-major local matrix.
fn matvec(m: &LocalMatrix, x: &[f64]) -> Vec<f64> {
    m.data().chunks(m.cols).map(|row| dot(row, x)).collect()
}

/// `Mᵀ·x` for a row-major local matrix.
fn matvec_t(m: &LocalMatrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; m.cols];
    for (row, xi) in m.data().chunks(m.cols).zip(x) {
        for (yj, v) in y.iter_mut().zip(row) {
            *yj += v * xi;
        }
    }
    y
}

/// `M·x` straight from the collected tiles of a `rows`-row matrix.
fn tiles_matvec(tiles: &Tiles, rows: usize, tile: usize, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; rows];
    for ((bi, bj), t) in tiles {
        let (r0, c0) = (*bi as usize * tile, *bj as usize * tile);
        let width = t.cols().min(x.len().saturating_sub(c0));
        for r in 0..t.rows().min(rows.saturating_sub(r0)) {
            y[r0 + r] += dot(&t.row(r)[..width], &x[c0..c0 + width]);
        }
    }
    y
}

fn assemble(tiles: &Tiles, rows: usize, cols: usize, tile: usize) -> LocalMatrix {
    let mut dense = DenseMatrix::zeros(rows, cols);
    for ((bi, bj), t) in tiles {
        dense.paste(*bi as usize * tile, *bj as usize * tile, t);
    }
    LocalMatrix::from_dense(&dense)
}

fn near(got: f64, want: f64) -> bool {
    (got - want).abs() <= TOL * (1.0 + want.abs())
}

fn close(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| near(*g, *w))
}

/// Every tile of the grid exactly once, and `row_ok(i, j0, row)` for every
/// tile row clipped to the matrix: `row` holds elements `(i, j0..)`. Sliced
/// by row because at 4096² a check streams 400 MB and must not cost more
/// than the query it checks.
fn tiles_match(
    tiles: &Tiles,
    rows: usize,
    cols: usize,
    tile: usize,
    row_ok: impl Fn(usize, usize, &[f64]) -> bool,
) -> bool {
    let (grid_rows, grid_cols) = (rows.div_ceil(tile), cols.div_ceil(tile));
    let mut seen = vec![false; grid_rows * grid_cols];
    tiles.len() == seen.len()
        && tiles.iter().all(|((bi, bj), t)| {
            let (bi, bj) = (*bi as usize, *bj as usize);
            if bi >= grid_rows
                || bj >= grid_cols
                || std::mem::replace(&mut seen[bi * grid_cols + bj], true)
            {
                return false;
            }
            let (i0, j0) = (bi * tile, bj * tile);
            let width = t.cols().min(cols - j0);
            (0..t.rows().min(rows - i0)).all(|r| row_ok(i0 + r, j0, &t.row(r)[..width]))
        })
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median `comp::compile_text` time of `src`, and the median
/// `Session::compile` time beyond it, in µs.
fn compile_cost(s: &Session, src: &str, rec: &mut Recorder) -> (f64, f64) {
    const REPS: usize = 25;
    let mut comp_us = Vec::with_capacity(REPS);
    let mut full_us = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (_, d) = rec.span("comp.compile_text", |_| {
            black_box(comp::compile_text(black_box(src)).is_ok())
        });
        comp_us.push(micros(d));
        let (_, d) = rec.span("session.compile", |_| {
            black_box(s.compile(black_box(src)).is_ok())
        });
        full_us.push(micros(d));
    }
    let comp = crate::stats::median(&comp_us);
    (comp, (crate::stats::median(&full_us) - comp).max(0.0))
}

fn program(ops: Vec<ElemwiseOp>) -> FusedProgram {
    FusedProgram::new(ops).expect("hand-written postfix program is balanced")
}

fn binary_program(op: ElemwiseOp) -> FusedProgram {
    program(vec![ElemwiseOp::Slot(0), ElemwiseOp::Slot(1), op])
}

const ADD_SRC: &str =
    "tiled(n,m)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]";
const SUB_SRC: &str =
    "tiled(n,m)[ ((i,j), a-b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]";
const MUL_SRC: &str = "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, \
     let v = a*b, group by (i,j) ]";
const MUL_BT_SRC: &str = "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- A, ((j,kk),b) <- B, kk == k, \
     let v = a*b, group by (i,j) ]";

// ---------------------------------------------------------------------------
// matmul_inproc / matmul_procs — Fig. 4.B
// ---------------------------------------------------------------------------

pub struct MatMul {
    s: Session,
    a: LocalMatrix,
    b: LocalMatrix,
    n: usize,
    tile: usize,
    worker_processes: usize,
    x: Vec<f64>,
    /// `A·(B·x)`, the Freivalds reference; the same for every iteration.
    want: OnceCell<Vec<f64>>,
}

impl MatMul {
    pub fn new(seed: u64, n: usize, tile: usize, worker_processes: usize) -> MatMul {
        let mut s = session(worker_processes);
        let a = LocalMatrix::random(n, n, 0.0, 10.0, &mut rng(seed, 1));
        let b = LocalMatrix::random(n, n, 0.0, 10.0, &mut rng(seed, 2));
        s.register_local_matrix("A", &a, tile);
        s.register_local_matrix("B", &b, tile);
        s.set_int("n", n as i64);
        s.set_int("m", n as i64);
        s.compile(MUL_SRC).expect("Fig. 4.B query must plan");
        MatMul {
            s,
            a,
            b,
            n,
            tile,
            worker_processes,
            x: probe_vector(n, seed, 3),
            want: OnceCell::new(),
        }
    }

    /// Freivalds: `C·x` against `A·(B·x)`.
    fn check(&self, c: &Tiles) -> bool {
        let blocks = self.n.div_ceil(self.tile);
        let want = self
            .want
            .get_or_init(|| matvec(&self.a, &matvec(&self.b, &self.x)));
        c.len() == blocks * blocks && close(&tiles_matvec(c, self.n, self.tile, &self.x), want)
    }
}

impl Workload for MatMul {
    fn session(&self) -> &Session {
        &self.s
    }

    fn facts(&self) -> Facts {
        let blocks = self.n.div_ceil(self.tile) as u64;
        Facts {
            tile: self.tile,
            worker_processes: self.worker_processes,
            gemm_products: blocks.pow(3),
            operand_bytes: 2 * (self.n * self.n * 8) as u64,
            fused: Vec::new(),
        }
    }

    fn iterate(&self, rec: &mut Recorder) -> Iter {
        let (c, timed) = rec.span("run", |_| {
            run_matrix(&self.s, MUL_SRC).map(|m| m.tiles().collect())
        });
        let (ok, verify) = rec.span("verify", |_| c.is_ok_and(|c| self.check(&c)));
        Iter { timed, verify, ok }
    }

    fn iterate_mllib(&self) -> Option<Duration> {
        let a = BlockMatrix::from_tiled(&self.s.matrix_named("A")?, PARTITIONS);
        let b = BlockMatrix::from_tiled(&self.s.matrix_named("B")?, PARTITIONS);
        let start = Instant::now();
        black_box(a.multiply(&b).blocks().collect());
        Some(start.elapsed())
    }

    fn compile_costs(&mut self, rec: &mut Recorder) -> CompileCosts {
        let (comp_us, plan_us) = compile_cost(&self.s, MUL_SRC, rec);
        CompileCosts { comp_us, plan_us }
    }
}

// ---------------------------------------------------------------------------
// eltwise_chain — Fig. 4.A plus a fused chain
// ---------------------------------------------------------------------------

/// Twelve operators, all linear so MLlib's `BlockMatrix` can say the same
/// thing with twelve library calls.
const CHAIN_SRC: &str =
    "tiled(n,m)[ ((i,j), (a+b)*0.5 - (b-a)*0.25 + a*2.0 - b*0.125 + (a-b)*3.0) | \
     ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]";

fn chain(a: f64, b: f64) -> f64 {
    (a + b) * 0.5 - (b - a) * 0.25 + a * 2.0 - b * 0.125 + (a - b) * 3.0
}

fn chain_program() -> FusedProgram {
    use ElemwiseOp::{Add, Const, Mul, Slot, Sub};
    program(vec![
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
    ])
}

pub struct EltwiseChain {
    s: Session,
    a: LocalMatrix,
    b: LocalMatrix,
    n: usize,
    tile: usize,
}

impl EltwiseChain {
    pub fn new(seed: u64, n: usize, tile: usize) -> EltwiseChain {
        let mut s = session(0);
        let a = LocalMatrix::random(n, n, 0.0, 10.0, &mut rng(seed, 1));
        let b = LocalMatrix::random(n, n, 0.0, 10.0, &mut rng(seed, 2));
        s.register_local_matrix("A", &a, tile);
        s.register_local_matrix("B", &b, tile);
        s.set_int("n", n as i64);
        s.set_int("m", n as i64);
        s.compile(ADD_SRC).expect("Fig. 4.A query must plan");
        EltwiseChain { s, a, b, n, tile }
    }

    fn check(&self, tiles: &Tiles, f: impl Fn(f64, f64) -> f64) -> bool {
        let n = self.n;
        tiles_match(tiles, n, n, self.tile, |i, j0, row| {
            let operands = self.a.data()[i * n + j0..]
                .iter()
                .zip(&self.b.data()[i * n + j0..]);
            row.iter()
                .zip(operands)
                .all(|(got, (a, b))| near(*got, f(*a, *b)))
        })
    }

    /// Run and check one of the two queries; the result (134 MB at full
    /// size) is dropped before the next one runs.
    fn step(&self, rec: &mut Recorder, src: &str, f: impl Fn(f64, f64) -> f64) -> Iter {
        let (out, timed) = rec.span("run", |_| {
            run_matrix(&self.s, src).map(|m| m.tiles().collect())
        });
        let (ok, verify) = rec.span("verify", |_| out.is_ok_and(|t| self.check(&t, f)));
        Iter { timed, verify, ok }
    }
}

impl Workload for EltwiseChain {
    fn session(&self) -> &Session {
        &self.s
    }

    fn facts(&self) -> Facts {
        let tiles = (self.n.div_ceil(self.tile) as u64).pow(2);
        Facts {
            tile: self.tile,
            worker_processes: 0,
            gemm_products: 0,
            operand_bytes: 2 * (self.n * self.n * 8) as u64,
            fused: vec![
                (binary_program(ElemwiseOp::Add), tiles),
                (chain_program(), tiles),
            ],
        }
    }

    fn iterate(&self, rec: &mut Recorder) -> Iter {
        let add = self.step(rec, ADD_SRC, |a, b| a + b);
        let chained = self.step(rec, CHAIN_SRC, chain);
        Iter {
            timed: add.timed + chained.timed,
            verify: add.verify + chained.verify,
            ok: add.ok && chained.ok,
        }
    }

    fn iterate_mllib(&self) -> Option<Duration> {
        let a = BlockMatrix::from_tiled(&self.s.matrix_named("A")?, PARTITIONS);
        let b = BlockMatrix::from_tiled(&self.s.matrix_named("B")?, PARTITIONS);
        let start = Instant::now();
        black_box(a.add(&b).blocks().collect());
        let chained = a
            .add(&b)
            .scale(0.5)
            .subtract(&b.subtract(&a).scale(0.25))
            .add(&a.scale(2.0))
            .subtract(&b.scale(0.125))
            .add(&a.subtract(&b).scale(3.0));
        black_box(chained.blocks().collect());
        Some(start.elapsed())
    }

    fn compile_costs(&mut self, rec: &mut Recorder) -> CompileCosts {
        let (add_comp, add_plan) = compile_cost(&self.s, ADD_SRC, rec);
        let (chain_comp, chain_plan) = compile_cost(&self.s, CHAIN_SRC, rec);
        CompileCosts {
            comp_us: add_comp + chain_comp,
            plan_us: add_plan + chain_plan,
        }
    }
}

// ---------------------------------------------------------------------------
// factorization — Fig. 4.C
// ---------------------------------------------------------------------------

const STEPS: usize = 2;
const GAMMA: f64 = 0.002;
const LAMBDA: f64 = 0.02;

/// The two query shapes `sac::linalg::factorization_step` uses beyond
/// `SUB_SRC`, `MUL_SRC` and `MUL_BT_SRC`, restated over the registered
/// names for the compile probes only (execution goes through the library).
const MUL_AT_SRC: &str = "tiled(n,m)[ ((i,j), +/v) | ((k,i),a) <- A, ((kk,j),b) <- B, kk == k, \
     let v = a*b, group by (i,j) ]";
const UPDATE_SRC: &str = "tiled(n,m)[ ((i,j), p + gamma*(2.0*e - lambda*p)) | ((i,j),p) <- A, \
     ((ii,jj),e) <- B, ii == i, jj == j ]";

fn update_program() -> FusedProgram {
    use ElemwiseOp::{Add, Const, Mul, Slot, Sub};
    program(vec![
        Slot(0),
        Const(GAMMA),
        Const(2.0),
        Slot(1),
        Mul,
        Const(LAMBDA),
        Slot(0),
        Mul,
        Sub,
        Mul,
        Add,
    ])
}

pub struct Factorization {
    s: Session,
    r: LocalMatrix,
    p0: LocalMatrix,
    q0: LocalMatrix,
    n: usize,
    k: usize,
    tile: usize,
    x: Vec<f64>,
}

impl Factorization {
    pub fn new(seed: u64, n: usize, k: usize, tile: usize) -> Factorization {
        let mut s = session(0);
        let r = LocalMatrix::sparse_random(n, n, 0.10, &mut rng(seed, 1));
        let p0 = LocalMatrix::random(n, k, 0.0, 1.0, &mut rng(seed, 2));
        let q0 = LocalMatrix::random(n, k, 0.0, 1.0, &mut rng(seed, 3));
        s.register_local_matrix("R", &r, tile);
        s.register_local_matrix("P", &p0, tile);
        s.register_local_matrix("Q", &q0, tile);
        Factorization {
            s,
            r,
            p0,
            q0,
            n,
            k,
            tile,
            x: probe_vector(k, seed, 4),
        }
    }

    fn named(&self, name: &str) -> TiledMatrix {
        self.s
            .matrix_named(name)
            .expect("registered by Factorization::new")
    }

    /// One step's update identity on mat-vecs only:
    /// `P'·x = P·x + γ(2(R·(Q·x) − P·(Qᵀ·(Q·x))) − λ·P·x)`, and the same for
    /// `Q'` with `Rᵀ` and the roles of P and Q swapped.
    fn check_step(
        &self,
        (p, q): (&LocalMatrix, &LocalMatrix),
        (p2, q2): (&LocalMatrix, &LocalMatrix),
    ) -> bool {
        let x = &self.x;
        let (px, qx) = (matvec(p, x), matvec(q, x));
        let update = |own: &[f64], r_term: Vec<f64>, pq_term: Vec<f64>| -> Vec<f64> {
            own.iter()
                .zip(r_term.iter().zip(&pq_term))
                .map(|(o, (r, pq))| o + GAMMA * (2.0 * (r - pq) - LAMBDA * o))
                .collect()
        };
        let want_p = update(&px, matvec(&self.r, &qx), matvec(p, &matvec_t(q, &qx)));
        let want_q = update(&qx, matvec_t(&self.r, &px), matvec(q, &matvec_t(p, &px)));
        close(&matvec(p2, x), &want_p) && close(&matvec(q2, x), &want_q)
    }
}

impl Workload for Factorization {
    fn session(&self) -> &Session {
        &self.s
    }

    fn facts(&self) -> Facts {
        let (nb, kb) = (
            self.n.div_ceil(self.tile) as u64,
            self.k.div_ceil(self.tile) as u64,
        );
        let steps = STEPS as u64;
        Facts {
            tile: self.tile,
            worker_processes: 0,
            // P·Qᵀ, E·Q and Eᵀ·P each multiply nb·nb·kb tile pairs.
            gemm_products: steps * 3 * nb * nb * kb,
            operand_bytes: ((self.n * self.n + 2 * self.n * self.k) * 8) as u64,
            fused: vec![
                (binary_program(ElemwiseOp::Sub), steps * nb * nb),
                (update_program(), steps * 2 * nb * kb),
            ],
        }
    }

    fn iterate(&self, rec: &mut Recorder) -> Iter {
        let (n, k, tile) = (self.n, self.k, self.tile);
        let r = self.named("R");
        let (mut p, mut q) = (self.named("P"), self.named("Q"));
        let (mut p_local, mut q_local) = (self.p0.clone(), self.q0.clone());
        let mut iter = Iter {
            timed: Duration::ZERO,
            verify: Duration::ZERO,
            ok: true,
        };
        for _ in 0..STEPS {
            // The step's outputs are collected where a driver would test
            // convergence; the next step chains on the lazy handles.
            let (step, timed) = rec.span("run", |_| {
                sac::linalg::factorization_step(&self.s, &r, &p, &q, GAMMA, LAMBDA)
                    .map(|(p2, q2)| {
                        let collected = (p2.tiles().collect(), q2.tiles().collect());
                        (p2, q2, collected)
                    })
                    .map_err(|e| e.to_string())
            });
            iter.timed += timed;
            let Ok((p2, q2, (p_tiles, q_tiles))) = step else {
                iter.ok = false;
                break;
            };
            let (ok, verify) = rec.span("verify", |_| {
                let p2_local = assemble(&p_tiles, n, k, tile);
                let q2_local = assemble(&q_tiles, n, k, tile);
                let ok = self.check_step((&p_local, &q_local), (&p2_local, &q2_local));
                (p_local, q_local) = (p2_local, q2_local);
                ok
            });
            iter.verify += verify;
            iter.ok &= ok;
            (p, q) = (p2, q2);
        }
        iter
    }

    fn iterate_mllib(&self) -> Option<Duration> {
        let block = |name: &str| BlockMatrix::from_tiled(&self.named(name), PARTITIONS);
        let r = block("R");
        let (mut p, mut q) = (block("P"), block("Q"));
        let start = Instant::now();
        for _ in 0..STEPS {
            let e = r.subtract(&p.multiply(&q.transpose()));
            let p2 = p
                .scale(1.0 - GAMMA * LAMBDA)
                .add(&e.multiply(&q).scale(2.0 * GAMMA));
            let q2 = q
                .scale(1.0 - GAMMA * LAMBDA)
                .add(&e.transpose().multiply(&p).scale(2.0 * GAMMA));
            black_box((p2.blocks().collect(), q2.blocks().collect()));
            (p, q) = (p2, q2);
        }
        Some(start.elapsed())
    }

    fn compile_costs(&mut self, rec: &mut Recorder) -> CompileCosts {
        // Every intermediate of a step has the shape of R, P or Q, so the
        // step's six queries are planned against those stand-ins.
        let (r, p, q) = (self.named("R"), self.named("P"), self.named("Q"));
        self.s.set_float("gamma", GAMMA);
        self.s.set_float("lambda", LAMBDA);
        let steps: [(&str, &TiledMatrix, &TiledMatrix); 6] = [
            (MUL_BT_SRC, &p, &q),
            (SUB_SRC, &r, &r),
            (MUL_SRC, &r, &q),
            (UPDATE_SRC, &p, &p),
            (MUL_AT_SRC, &r, &p),
            (UPDATE_SRC, &q, &q),
        ];
        let mut costs = CompileCosts::default();
        for (src, a, b) in steps {
            self.s.register_matrix("A", a.clone());
            self.s.register_matrix("B", b.clone());
            let (rows, cols) = match src {
                MUL_BT_SRC => (a.rows(), b.rows()),
                MUL_AT_SRC => (a.cols(), b.cols()),
                MUL_SRC => (a.rows(), b.cols()),
                _ => (a.rows(), a.cols()),
            };
            self.s.set_int("n", rows);
            self.s.set_int("m", cols);
            let (comp, plan) = compile_cost(&self.s, src, rec);
            costs.comp_us += comp * STEPS as f64;
            costs.plan_us += plan * STEPS as f64;
        }
        costs
    }
}

// ---------------------------------------------------------------------------
// small_queries — fixed per-query cost
// ---------------------------------------------------------------------------

const SCALE_C: f64 = 2.5;

/// The ten queries, in script order. Matrix results first: the index is
/// what tells `iterate` which kind to expect.
const QUERIES: [&str; 10] = [
    ADD_SRC,
    SUB_SRC,
    "tiled(n,m)[ ((i,j), c*a) | ((i,j),a) <- A ]",
    "tiled(m,n)[ ((j,i), a) | ((i,j),a) <- A ]",
    MUL_SRC,
    MUL_BT_SRC,
    // §5.2's tiling-non-preserving path.
    "tiled(n,m)[ (((i+1)%n, j), v) | ((i,j),v) <- A ]",
    "tiled_vector(n)[ (i, +/v) | ((i,k),a) <- A, (kk,x) <- V, kk == k, let v = a*x, group by i ]",
    "tiled_vector(n)[ (j, +/v) | ((k,j),a) <- A, (kk,x) <- V, kk == k, let v = a*x, group by j ]",
    "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]",
];
const MATRIX_QUERIES: usize = 7;

pub struct SmallQueries {
    s: Session,
    a: LocalMatrix,
    b: LocalMatrix,
    v: Vec<f64>,
    n: usize,
    tile: usize,
    reps: usize,
    want: OnceCell<(Vec<LocalMatrix>, Vec<Vec<f64>>)>,
}

impl SmallQueries {
    pub fn new(seed: u64, n: usize, tile: usize, reps: usize) -> SmallQueries {
        let mut s = session(0);
        let a = LocalMatrix::random(n, n, 0.0, 10.0, &mut rng(seed, 1));
        let b = LocalMatrix::random(n, n, 0.0, 10.0, &mut rng(seed, 2));
        let v = probe_vector(n, seed, 3);
        s.register_local_matrix("A", &a, tile);
        s.register_local_matrix("B", &b, tile);
        s.register_vector(
            "V",
            TiledVector::from_local(s.spark(), &v, tile, PARTITIONS),
        );
        s.set_int("n", n as i64);
        s.set_int("m", n as i64);
        s.set_float("c", SCALE_C);
        s.compile(QUERIES[0]).expect("library queries must plan");
        SmallQueries {
            s,
            a,
            b,
            v,
            n,
            tile,
            reps,
            want: OnceCell::new(),
        }
    }

    /// The ten results by `LocalMatrix` arithmetic, once per run.
    fn want(&self) -> &(Vec<LocalMatrix>, Vec<Vec<f64>>) {
        self.want.get_or_init(|| {
            let (a, b, n) = (&self.a, &self.b, self.n);
            let matrices = vec![
                a.add(b),
                a.sub(b),
                a.scale(SCALE_C),
                a.transpose(),
                a.multiply(b),
                a.multiply(&b.transpose()),
                LocalMatrix::from_fn(n, n, |i, j| a.get((i + n - 1) % n, j)),
            ];
            let vectors = vec![matvec(a, &self.v), matvec_t(a, &self.v), a.row_sums()];
            (matrices, vectors)
        })
    }

    fn check_matrix(&self, query: usize, tiles: &Tiles) -> bool {
        let (want, n) = (self.want().0[query].data(), self.n);
        tiles_match(tiles, n, n, self.tile, |i, j0, row| {
            close(row, &want[i * n + j0..][..row.len()])
        })
    }
}

impl Workload for SmallQueries {
    fn session(&self) -> &Session {
        &self.s
    }

    fn facts(&self) -> Facts {
        let blocks = self.n.div_ceil(self.tile) as u64;
        let reps = self.reps as u64;
        let scale = program(vec![
            ElemwiseOp::Const(SCALE_C),
            ElemwiseOp::Slot(0),
            ElemwiseOp::Mul,
        ]);
        Facts {
            tile: self.tile,
            worker_processes: 0,
            gemm_products: reps * 2 * blocks.pow(3),
            operand_bytes: 2 * (self.n * self.n * 8) as u64,
            fused: vec![
                (binary_program(ElemwiseOp::Add), reps * blocks * blocks),
                (binary_program(ElemwiseOp::Sub), reps * blocks * blocks),
                (scale, reps * blocks * blocks),
            ],
        }
    }

    fn iterate(&self, rec: &mut Recorder) -> Iter {
        let mut iter = Iter {
            timed: Duration::ZERO,
            verify: Duration::ZERO,
            ok: true,
        };
        for _ in 0..self.reps {
            for (query, src) in QUERIES.iter().enumerate() {
                let (ok, timed, verify) = if query < MATRIX_QUERIES {
                    let (out, timed) = rec.span("run", |_| {
                        run_matrix(&self.s, src).map(|m| m.tiles().collect())
                    });
                    let (ok, verify) = rec.span("verify", |_| {
                        out.is_ok_and(|t| self.check_matrix(query, &t))
                    });
                    (ok, timed, verify)
                } else {
                    let (out, timed) = rec.span("run", |_| run_vector(&self.s, src));
                    let (ok, verify) = rec.span("verify", |_| {
                        out.is_ok_and(|v| close(&v, &self.want().1[query - MATRIX_QUERIES]))
                    });
                    (ok, timed, verify)
                };
                iter.timed += timed;
                iter.verify += verify;
                iter.ok &= ok;
            }
        }
        iter
    }

    fn iterate_mllib(&self) -> Option<Duration> {
        None
    }

    fn compile_costs(&mut self, rec: &mut Recorder) -> CompileCosts {
        let mut costs = CompileCosts::default();
        for src in QUERIES {
            let (comp, plan) = compile_cost(&self.s, src, rec);
            costs.comp_us += comp * self.reps as f64;
            costs.plan_us += plan * self.reps as f64;
        }
        costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_runs_two_verified_iterations_at_tiny_size() {
        for (name, _) in WORKLOADS {
            let mut w = build(name, 11, Scale::Tiny).expect("named workload builds");
            let mut rec = Recorder::new(true);
            for _ in 0..2 {
                let it = w.iterate(&mut rec);
                assert!(it.ok, "{name}: tiny iteration must verify");
                assert!(it.timed > Duration::ZERO);
            }
            assert!(rec.spans().iter().any(|s| s.name == "run"));
            assert!(rec.spans().iter().any(|s| s.name == "verify"));
            let costs = w.compile_costs(&mut rec);
            assert!(costs.comp_us > 0.0, "{name}: sources must compile");
            let facts = w.facts();
            assert_eq!(facts.worker_processes > 0, name == "matmul_procs");
            assert_eq!(w.iterate_mllib().is_some(), name != "small_queries");
        }
        assert!(build("smooth", 1, Scale::Tiny).is_none());
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (a, b, c) = (
            MatMul::new(5, 16, 8, 0),
            MatMul::new(5, 16, 8, 0),
            MatMul::new(6, 16, 8, 0),
        );
        assert_eq!(a.a, b.a);
        assert_eq!(a.x, b.x);
        assert_ne!(a.a, c.a);
        assert_ne!(a.a, a.b);
    }

    #[test]
    fn one_corrupted_tile_fails_every_verifier() {
        let w = MatMul::new(3, 24, 8, 0);
        let mut c: Tiles = run_matrix(&w.s, MUL_SRC).unwrap().tiles().collect();
        assert!(w.check(&c));
        let bumped = c[4].1.get(2, 3) + 1.0;
        c[4].1.set(2, 3, bumped);
        assert!(!w.check(&c), "Freivalds must see one wrong element");
        c.pop();
        assert!(!w.check(&c), "a missing tile is a wrong result");

        let w = EltwiseChain::new(3, 24, 8);
        let mut t: Tiles = run_matrix(&w.s, CHAIN_SRC).unwrap().tiles().collect();
        assert!(w.check(&t, chain));
        t[0].1.set(0, 0, f64::NAN);
        assert!(!w.check(&t, chain));

        let w = Factorization::new(3, 24, 8, 8);
        let good = LocalMatrix::from_fn(24, 8, |i, j| w.p0.get(i, j) * 1.000_001);
        assert!(!w.check_step((&w.p0, &w.q0), (&good, &w.q0)));

        let w = SmallQueries::new(3, 12, 4, 1);
        let mut t: Tiles = run_matrix(&w.s, QUERIES[4]).unwrap().tiles().collect();
        assert!(w.check_matrix(4, &t));
        t[1].1.set(1, 1, -1.0);
        assert!(!w.check_matrix(4, &t));
        let mut t: Tiles = run_matrix(&w.s, QUERIES[0]).unwrap().tiles().collect();
        t[2] = t[1].clone();
        assert!(!w.check_matrix(0, &t), "one tile twice hides a missing one");
    }

    #[test]
    fn hand_written_programs_say_what_the_sources_say() {
        for (a, b) in [(0.0, 0.0), (1.5, 9.25), (9.999, 0.001)] {
            assert_eq!(chain_program().eval_scalar(&[a, b]), chain(a, b));
            assert_eq!(
                update_program().eval_scalar(&[a, b]),
                a + GAMMA * (2.0 * b - LAMBDA * a)
            );
        }
        assert_eq!(chain_program().len(), 25, "12 operators, 13 operands");
    }
}
