//! Language-level tests: a catalogue of array programs the comprehension
//! calculus should express (the paper's §1–§3 claims), each checked against
//! hand-computed expectations through the reference interpreter, plus parser
//! precedence/error behaviour.

use sac_repro::comp::{eval, parse_expr, Env, Value};

fn int_list(xs: &[i64]) -> Value {
    Value::List(xs.iter().map(|&x| Value::Int(x)).collect())
}

fn indexed(xs: &[f64]) -> Value {
    Value::List(
        xs.iter()
            .enumerate()
            .map(|(i, &x)| Value::Tuple(vec![Value::Int(i as i64), Value::Float(x)]))
            .collect(),
    )
}

fn matrix(rows: &[&[f64]]) -> Value {
    Value::List(
        rows.iter()
            .enumerate()
            .flat_map(|(i, row)| {
                row.iter().enumerate().map(move |(j, &v)| {
                    Value::Tuple(vec![
                        Value::Tuple(vec![Value::Int(i as i64), Value::Int(j as i64)]),
                        Value::Float(v),
                    ])
                })
            })
            .collect(),
    )
}

fn run(src: &str, binds: Vec<(&str, Value)>) -> Value {
    let ast = parse_expr(src).unwrap();
    let mut env = Env::new();
    for (n, v) in binds {
        env.bind(n, v);
    }
    eval(&ast, &mut env).unwrap()
}

#[test]
fn inner_product() {
    let v = indexed(&[1.0, 2.0, 3.0]);
    let w = indexed(&[4.0, 5.0, 6.0]);
    let got = run(
        "+/[ x*y | (i,x) <- V, (j,y) <- W, j == i ]",
        vec![("V", v), ("W", w)],
    );
    assert_eq!(got, Value::Float(32.0));
}

#[test]
fn outer_product() {
    let v = indexed(&[1.0, 2.0]);
    let w = indexed(&[3.0, 4.0]);
    let got = run(
        "matrix(2,2)[ ((i,j), x*y) | (i,x) <- V, (j,y) <- W ]",
        vec![("V", v), ("W", w)],
    );
    assert_eq!(got, matrix(&[&[3.0, 4.0], &[6.0, 8.0]]));
}

#[test]
fn vector_sum_and_norm() {
    let v = indexed(&[3.0, 4.0]);
    assert_eq!(
        run("+/[ x | (i,x) <- V ]", vec![("V", v.clone())]),
        Value::Float(7.0)
    );
    assert_eq!(
        run("sqrt(+/[ x*x | (i,x) <- V ])", vec![("V", v)]),
        Value::Float(5.0)
    );
}

#[test]
fn histogram_by_bucket() {
    let data = int_list(&[1, 5, 2, 8, 3, 9, 4]);
    let got = run(
        "[ (b, count(x)) | x <- D, group by b: x / 3 ]",
        vec![("D", data)],
    );
    // Buckets: 1,2→0; 5,3,4→1; 8→2; 9→3 — in first-seen order.
    assert_eq!(
        got,
        Value::List(vec![
            Value::Tuple(vec![Value::Int(0), Value::Int(2)]),
            Value::Tuple(vec![Value::Int(1), Value::Int(3)]),
            Value::Tuple(vec![Value::Int(2), Value::Int(1)]),
            Value::Tuple(vec![Value::Int(3), Value::Int(1)]),
        ])
    );
}

#[test]
fn matrix_trace() {
    let m = matrix(&[&[1.0, 9.0], &[9.0, 2.0]]);
    let got = run("+/[ v | ((i,j),v) <- M, i == j ]", vec![("M", m)]);
    assert_eq!(got, Value::Float(3.0));
}

#[test]
fn column_sums_via_group_by() {
    let m = matrix(&[&[1.0, 2.0], &[3.0, 4.0]]);
    let got = run("[ (j, +/v) | ((i,j),v) <- M, group by j ]", vec![("M", m)]);
    assert_eq!(
        got,
        Value::List(vec![
            Value::Tuple(vec![Value::Int(0), Value::Float(4.0)]),
            Value::Tuple(vec![Value::Int(1), Value::Float(6.0)]),
        ])
    );
}

#[test]
fn argmax_via_max_monoid() {
    let v = indexed(&[1.0, 7.0, 3.0]);
    let got = run("max/[ x | (i,x) <- V ]", vec![("V", v)]);
    assert_eq!(got, Value::Float(7.0));
}

#[test]
fn conditional_head_expression() {
    let v = indexed(&[-2.0, 3.0, -1.0]);
    // ReLU via an if-expression in the head.
    let got = run(
        "[ (i, if (x > 0.0) x else 0.0) | (i,x) <- V ]",
        vec![("V", v)],
    );
    assert_eq!(got, indexed(&[0.0, 3.0, 0.0]));
}

#[test]
fn nested_aggregation_average_of_row_sums() {
    let m = matrix(&[&[1.0, 2.0], &[3.0, 4.0]]);
    let got = run(
        "avg([ s | (i, s) <- [ (i, +/v) | ((i,j),v) <- M, group by i ] ])",
        vec![("M", m)],
    );
    assert_eq!(got, Value::Float(5.0));
}

#[test]
fn cartesian_filtering_pairs() {
    let got = run("[ (x, y) | x <- 0 until 3, y <- 0 until 3, x < y ]", vec![]);
    let Value::List(pairs) = got else { panic!() };
    assert_eq!(pairs.len(), 3);
}

#[test]
fn min_monoid_and_product() {
    assert_eq!(run("min/[ x | x <- 3 until 7 ]", vec![]), Value::Int(3));
    assert_eq!(run("*/[ x | x <- 1 to 4 ]", vec![]), Value::Int(24));
}

#[test]
fn empty_reductions_yield_identities() {
    assert_eq!(run("+/[ x | x <- 0 until 0 ]", vec![]), Value::Int(0));
    assert_eq!(
        run("&&/[ x > 0 | x <- 0 until 0 ]", vec![]),
        Value::Bool(true)
    );
    assert_eq!(
        run("||/[ x > 0 | x <- 0 until 0 ]", vec![]),
        Value::Bool(false)
    );
}

#[test]
fn precedence_is_conventional() {
    assert_eq!(run("1 + 2 * 3", vec![]), Value::Int(7));
    assert_eq!(run("(1 + 2) * 3", vec![]), Value::Int(9));
    assert_eq!(run("-2 * 3", vec![]), Value::Int(-6));
    assert_eq!(run("10 - 2 - 3", vec![]), Value::Int(5)); // left assoc
    assert_eq!(run("7 % 3 + 1", vec![]), Value::Int(2));
    assert_eq!(
        run("true || false && false", vec![]),
        Value::Bool(true) // && binds tighter
    );
}

#[test]
fn integer_division_is_euclidean() {
    // The tile-coordinate arithmetic of §5 requires floor semantics for
    // negative shifts.
    assert_eq!(run("(0 - 1) / 4", vec![]), Value::Int(-1));
    assert_eq!(run("(0 - 1) % 4", vec![]), Value::Int(3));
}

#[test]
fn parse_errors_are_reported_with_position() {
    let err = parse_expr("[ x | x <- ]").unwrap_err();
    assert!(err.offset.is_some());
    assert!(parse_expr("(a, b").is_err());
    assert!(parse_expr("[ x | group ]").is_err());
    assert!(parse_expr("").is_err());
}

#[test]
fn eval_errors_are_informative() {
    let ast = parse_expr("[ x | x <- 5 ]").unwrap();
    let err = eval(&ast, &mut Env::new()).unwrap_err();
    assert!(err.message.contains("list"), "{err}");

    let ast = parse_expr("[ x | x <- 0 until 3, x ]").unwrap();
    let err = eval(&ast, &mut Env::new()).unwrap_err();
    assert!(err.message.contains("boolean"), "{err}");

    let ast = parse_expr("1 / 0").unwrap();
    assert!(eval(&ast, &mut Env::new()).is_err());
}

#[test]
fn pattern_mismatch_is_an_error() {
    let v = int_list(&[1, 2]);
    let ast = parse_expr("[ a | (a, b) <- V ]").unwrap();
    let mut env = Env::new();
    env.bind("V", v);
    assert!(eval(&ast, &mut env).is_err());
}

#[test]
fn wildcards_skip_binding() {
    let m = matrix(&[&[1.0, 2.0], &[3.0, 4.0]]);
    let got = run("+/[ v | ((_, _), v) <- M ]", vec![("M", m)]);
    assert_eq!(got, Value::Float(10.0));
}

#[test]
fn group_by_after_join_counts_matches() {
    // Join two relations then count per key — the SQL shape of §1.1.
    let r = Value::List(
        [(1i64, 10i64), (1, 20), (2, 30)]
            .iter()
            .map(|(k, v)| Value::Tuple(vec![Value::Int(*k), Value::Int(*v)]))
            .collect(),
    );
    let s = Value::List(
        [(1i64, 100i64), (2, 200), (2, 300)]
            .iter()
            .map(|(k, v)| Value::Tuple(vec![Value::Int(*k), Value::Int(*v)]))
            .collect(),
    );
    let got = run(
        "[ (k, count(v), +/w) | (k, v) <- R, (kk, w) <- S, kk == k, group by k ]",
        vec![("R", r), ("S", s)],
    );
    assert_eq!(
        got,
        Value::List(vec![
            // k=1: pairs (10,100),(20,100); k=2: (30,200),(30,300)
            Value::Tuple(vec![Value::Int(1), Value::Int(2), Value::Int(200)]),
            Value::Tuple(vec![Value::Int(2), Value::Int(2), Value::Int(500)]),
        ])
    );
}

#[test]
fn string_keys_group() {
    let d = Value::List(
        [("a", 1i64), ("b", 2), ("a", 3)]
            .iter()
            .map(|(k, v)| Value::Tuple(vec![Value::Str(k.to_string()), Value::Int(*v)]))
            .collect(),
    );
    let got = run("[ (k, +/v) | (k, v) <- D, group by k ]", vec![("D", d)]);
    assert_eq!(
        got,
        Value::List(vec![
            Value::Tuple(vec![Value::Str("a".into()), Value::Int(4)]),
            Value::Tuple(vec![Value::Str("b".into()), Value::Int(2)]),
        ])
    );
}

/// The parser's nesting cap against the passes after it: for each way to
/// nest, the deepest query `parse_expr` accepts is typechecked and compiled
/// (normalized and planned) on a thread with a 2 MiB stack — what a spawned
/// thread such as a query-service connection gets — in whatever build
/// profile runs the suite. One level deeper is a parse error.
#[test]
fn the_deepest_accepted_query_typechecks_and_plans_on_a_2_mib_stack() {
    /// A head value nested `d` levels deep.
    type Nest = fn(usize) -> String;
    let nestings: [(&str, Nest); 8] = [
        ("parentheses", |d| {
            format!("{}a{}", "(".repeat(d), ")".repeat(d))
        }),
        ("unary minus", |d| format!("{}a", "- ".repeat(d))),
        ("reductions", |d| {
            format!("{}[ a | b <- A ]", "+/".repeat(d))
        }),
        ("if", |d| {
            format!("{}a{}", "if (a > 0.0) ".repeat(d), " else a".repeat(d))
        }),
        ("operator chain", |d| vec!["a"; d].join(" * ")),
        ("chains in parentheses", |d| {
            (0..d).fold("a".to_string(), |e, _| format!("({e} + a * a)"))
        }),
        ("calls", |d| {
            format!("{}a{}", "abs(".repeat(d), ")".repeat(d))
        }),
        ("comprehensions", |d| {
            (0..d).fold("a".to_string(), |e, _| format!("+/[ {e} | b <- A ]"))
        }),
    ];
    let query = |value: &str| format!("tiled(n,n)[ ((i,j), {value}) | ((i,j),a) <- A ]");
    for (nesting, nest) in nestings {
        let accepted = |d: usize| parse_expr(&query(&nest(d))).is_ok();
        let deepest = (1..).take_while(|&d| accepted(d)).last().unwrap();
        assert!(deepest >= 16, "{nesting}: only {deepest} levels parse");
        let src = query(&nest(deepest));
        let compiled = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut s = sac_repro::sac::Session::builder().workers(1).build();
                let m = sac_repro::tiled::LocalMatrix::from_fn(4, 4, |i, j| (i + j) as f64);
                s.register_local_matrix("A", &m, 2);
                s.set_int("n", 4);
                let _ = s.typecheck(&src);
                s.compile(&src).map(|planned| planned.explain())
            })
            .unwrap()
            .join();
        assert!(compiled.is_ok(), "{nesting}: {deepest} levels overflowed");
    }
}
