//! Test support shared by the suites: the `rough()` generator and the
//! reference interpreter as an oracle for those that check bits on real
//! floats, task-failure schedules for those that retry over cached blocks,
//! the statement-at-a-time factorization step that a translated program
//! run must reproduce, and sparse tiles' triplet lists for those that need
//! blocks of varying length.
#![allow(dead_code)] // each suite uses its own subset

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sac_repro::comp::{eval, parse_expr, CompError, Env, Value};
use sac_repro::planner::{DistArray, PlanEnv};
use sac_repro::sac::{linalg, Session};
use sac_repro::sparkline::{ChaosPlan, Event, CHAOS_ENV};
use sac_repro::tiled::sparsify::sparsify_local;
use sac_repro::tiled::{LocalMatrix, TiledMatrix};

/// The `SPARKLINE_CHAOS` schedule, or an empty plan when the variable is
/// unset or `off`. An explicit `.chaos(plan)` replaces that schedule, so a
/// test adding faults of its own starts from this one to keep the seeded
/// kills, delays and fetch faults in play.
pub fn env_chaos(workers: usize) -> ChaosPlan {
    let seed = std::env::var(CHAOS_ENV).unwrap_or_default();
    ChaosPlan::from_env(&seed, workers).unwrap_or_default()
}

/// [`env_chaos`] plus `per_pass` injected task failures in each of `passes`
/// passes that launch at least `tasks` tasks in a row: every
/// `tasks / per_pass`-th launch fails, so any `tasks` consecutive launches
/// hold `per_pass` of them. The limit, three times what the passes need,
/// outlasts the extra launches of a first pass's map stage, of the retries
/// and of a seeded schedule. Returns the plan and an attempt budget above
/// that limit plus a seeded schedule's own two failures, so no task can
/// exhaust its attempts.
pub fn failures_per_pass(
    workers: usize,
    tasks: u64,
    per_pass: u32,
    passes: u32,
) -> (ChaosPlan, u32) {
    let limit = 3 * per_pass * passes;
    let every = tasks / u64::from(per_pass.max(1));
    let plan = env_chaos(workers).with_task_failures(every, limit);
    (plan, limit + 3)
}

/// Task attempts among traced `events`: `(ended, injected)` — every attempt
/// that reported its end, and the failures a chaos plan injected.
pub fn attempts(events: &[Event]) -> (usize, usize) {
    let ends = events.iter().filter_map(|e| match e {
        Event::TaskEnd { injected, .. } => Some(*injected),
        _ => None,
    });
    ends.fold((0, 0), |(n, i), injected| {
        (n + 1, i + usize::from(injected))
    })
}

/// Entries spread over sixteen binades with full mantissas: any change in
/// who is added to what first moves low bits somewhere.
pub fn rough(rows: usize, cols: usize, rng: &mut StdRng) -> LocalMatrix {
    LocalMatrix::from_fn(rows, cols, |_, _| {
        rng.gen_range(-1.0..1.0) * f64::powi(2.0, rng.gen_range(-8..8))
    })
}

/// [`rough`] with about one entry in six replaced by `-0.0`, `NaN`, `+∞` or
/// `-∞`.
pub fn rough_special(rows: usize, cols: usize, rng: &mut StdRng) -> LocalMatrix {
    let specials = [-0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let base = rough(rows, cols, rng);
    LocalMatrix::from_fn(rows, cols, |i, j| match rng.gen_range(0..24usize) {
        k if k < specials.len() => specials[k],
        _ => base.get(i, j),
    })
}

pub fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|x| x.to_bits()).collect()
}

/// A matrix as the interpreter binds it: its full association list (every
/// element, zeros included).
pub fn matrix(m: &LocalMatrix) -> Value {
    let cells = (0..m.rows).flat_map(|i| (0..m.cols).map(move |j| (i, j)));
    let list = cells.map(|(i, j)| {
        let key = Value::pair(Value::Int(i as i64), Value::Int(j as i64));
        Value::pair(key, Value::Float(m.get(i, j)))
    });
    Value::List(list.collect())
}

/// A vector as the interpreter binds it: `(i, v)` for every entry.
pub fn vector(v: &[f64]) -> Value {
    let entries = v.iter().enumerate();
    Value::List(
        entries
            .map(|(i, x)| Value::pair(Value::Int(i as i64), Value::Float(*x)))
            .collect(),
    )
}

/// `src` through the reference interpreter, with each array bound to its
/// [`matrix`] or [`vector`] value and each integer as itself.
pub fn interpret(src: &str, arrays: &[(&str, Value)], ints: &[(&str, i64)]) -> Value {
    let mut env = Env::new();
    for (name, array) in arrays {
        env.bind(*name, array.clone());
    }
    for (name, v) in ints {
        env.bind(*name, Value::Int(*v));
    }
    eval(&parse_expr(src).unwrap(), &mut env).unwrap()
}

/// The interpreter's `tiled(rows, cols)` result as a matrix.
pub fn interpreted_matrix(v: Value, rows: usize, cols: usize) -> LocalMatrix {
    let mut out = LocalMatrix::zeros(rows, cols);
    for item in v.into_list().unwrap() {
        let Value::Tuple(kv) = item else {
            panic!("not a cell")
        };
        let Value::Tuple(ij) = &kv[0] else {
            panic!("not a cell key")
        };
        let (i, j) = (ij[0].as_i64().unwrap(), ij[1].as_i64().unwrap());
        out.set(i as usize, j as usize, kv[1].as_f64().unwrap());
    }
    out
}

/// The interpreter's `tiled_vector(len)` result.
pub fn interpreted_vector(v: Value) -> Vec<f64> {
    let items = v.into_list().unwrap().into_iter().map(|item| {
        let Value::Tuple(kv) = item else {
            panic!("not an entry")
        };
        (kv[0].as_i64().unwrap(), kv[1].as_f64().unwrap())
    });
    let mut items: Vec<(i64, f64)> = items.collect();
    items.sort_by_key(|&(i, _)| i);
    items.into_iter().map(|(_, x)| x).collect()
}

/// One factorization step (§6, Fig. 4.C) as six separately planned queries,
/// each materializing its result before the next reads it: the
/// statement-at-a-time oracle for `linalg::factorization_step`, which runs
/// the same statements as one program. Returns `(P', Q')`.
pub fn factorization_step_by_statement(
    s: &Session,
    r: &TiledMatrix,
    p: &TiledMatrix,
    q: &TiledMatrix,
    gamma: f64,
    lambda: f64,
) -> Result<(TiledMatrix, TiledMatrix), CompError> {
    let update = |own: &TiledMatrix, gradient: &TiledMatrix| {
        let mut env = PlanEnv::new();
        env.set_array("X0", DistArray::Matrix(own.clone()));
        env.set_array("X1", DistArray::Matrix(gradient.clone()));
        env.set_int("n", own.rows());
        env.set_int("m", own.cols());
        env.set_float("gamma", gamma);
        env.set_float("lambda", lambda);
        let src = "tiled(n,m)[ ((i,j), p + gamma*(2.0*e - lambda*p)) | ((i,j),p) <- X0, \
                   ((ii,jj),e) <- X1, ii == i, jj == j ]";
        s.run_in_env(src, &env)?.into_matrix()
    };
    let e = linalg::subtract(s, r, &linalg::multiply_bt(s, p, q)?)?;
    let p2 = update(p, &linalg::multiply(s, &e, q)?)?;
    let q2 = update(q, &linalg::multiply_at(s, &e, p)?)?;
    Ok((p2, q2))
}

/// One tile as an association list: `((i, j), value)` entries.
pub type Triplets = Vec<((i64, i64), f64)>;

/// The non-zero triplets of a zero-heavy `sparse_random` tile, as
/// `sparsify_local` lists them: a payload whose encoded length varies from
/// tile to tile with its non-zero count.
pub fn sparse_triplets(rows: usize, cols: usize, seed: u64) -> Triplets {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut list = sparsify_local(&LocalMatrix::sparse_random(rows, cols, 0.4, &mut rng));
    list.retain(|&(_, v)| v != 0.0);
    list
}
