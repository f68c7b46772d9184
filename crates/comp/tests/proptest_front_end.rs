//! Property tests over the language front-end:
//!
//! * pretty-printing any generated expression re-parses to the same AST;
//! * desugaring (rules 4–7) preserves semantics for generated group-by-free
//!   comprehensions;
//! * normalization preserves semantics for generated comprehensions with
//!   guards/lets over a fixed matrix environment;
//! * `Expr::children` and `Expr::map_children` visit the same
//!   sub-expressions in the same order, for every variant.

use comp::ast::{BinOp, Comprehension, Expr, Monoid, Pattern, Qualifier, UnOp};
use comp::desugar::{desugar, eval_core};
use comp::eval::{eval_comprehension, Env};
use comp::normalize::normalize;
use comp::parser::parse_expr;
use comp::Value;
use proptest::prelude::*;

/// Generate arithmetic/boolean expressions over variables `x` and `y`.
fn arb_scalar_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::Int),
        Just(Expr::Var("x".into())),
        Just(Expr::Var("y".into())),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), arb_arith_op())
                .prop_map(|(a, b, op)| { Expr::BinOp(op, Box::new(a), Box::new(b)) }),
            inner.clone().prop_map(|e| match e {
                // Mirror the parser's literal folding so the roundtrip is
                // exact.
                Expr::Int(n) => Expr::Int(-n),
                other => Expr::UnOp(comp::ast::UnOp::Neg, Box::new(other)),
            }),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Tuple(vec![a, b])),
        ]
    })
}

/// Generate trees of every `Expr` variant and every qualifier kind (not
/// necessarily well-typed).
fn arb_any_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Expr::Int),
        (-20i32..20).prop_map(|n| Expr::Float(f64::from(n) / 4.0)),
        proptest::bool::ANY.prop_map(Expr::Bool),
        (0i64..3).prop_map(|n| Expr::Str(format!("s{n}"))),
        (0i64..3).prop_map(|n| Expr::Var(format!("v{n}"))),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        let list = proptest::collection::vec(inner.clone(), 0..3);
        let b = |e: Expr| Box::new(e);
        let qualifier = prop_oneof![
            inner
                .clone()
                .prop_map(|e| Qualifier::Generator(Pattern::Var("p".into()), e)),
            inner
                .clone()
                .prop_map(|e| Qualifier::Let(Pattern::Wildcard, e)),
            inner.clone().prop_map(Qualifier::Guard),
            proptest::option::of(inner.clone())
                .prop_map(|k| Qualifier::GroupBy(Pattern::Var("k".into()), k)),
        ];
        prop_oneof![
            list.clone().prop_map(Expr::Tuple),
            (inner.clone(), proptest::collection::vec(qualifier, 0..3)).prop_map(
                move |(head, qualifiers)| Expr::Comprehension(Comprehension {
                    head: b(head),
                    qualifiers,
                })
            ),
            inner
                .clone()
                .prop_map(move |e| Expr::Reduce(Monoid::Sum, b(e))),
            (inner.clone(), inner.clone(), arb_arith_op()).prop_map(move |(x, y, op)| Expr::BinOp(
                op,
                b(x),
                b(y)
            )),
            inner.clone().prop_map(move |e| Expr::UnOp(UnOp::Not, b(e))),
            (inner.clone(), list.clone()).prop_map(move |(e, idx)| Expr::Index(b(e), idx)),
            list.clone().prop_map(|args| Expr::Call("f".into(), args)),
            inner
                .clone()
                .prop_map(move |e| Expr::Field(b(e), "length".into())),
            (inner.clone(), inner.clone(), proptest::bool::ANY).prop_map(
                move |(lo, hi, inclusive)| {
                    Expr::Range {
                        lo: b(lo),
                        hi: b(hi),
                        inclusive,
                    }
                }
            ),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(move |(c, t, e)| Expr::If(
                b(c),
                b(t),
                b(e)
            )),
            (list, inner).prop_map(move |(args, body)| Expr::Build {
                builder: "matrix".into(),
                args,
                body: b(body),
            }),
        ]
    })
}

fn arb_arith_op() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Eq),
    ]
}

/// Generate small group-by-free comprehensions over ranges.
fn arb_comprehension() -> impl Strategy<Value = Comprehension> {
    (
        1i64..6,
        1i64..6,
        arb_scalar_expr(),
        proptest::option::of(-10i64..10),
    )
        .prop_map(|(n, m, head, guard)| {
            let mut qualifiers = vec![
                Qualifier::Generator(
                    Pattern::Var("x".into()),
                    Expr::Range {
                        lo: Box::new(Expr::Int(0)),
                        hi: Box::new(Expr::Int(n)),
                        inclusive: false,
                    },
                ),
                Qualifier::Generator(
                    Pattern::Var("y".into()),
                    Expr::Range {
                        lo: Box::new(Expr::Int(0)),
                        hi: Box::new(Expr::Int(m)),
                        inclusive: false,
                    },
                ),
                Qualifier::Let(
                    Pattern::Var("z".into()),
                    Expr::BinOp(
                        BinOp::Add,
                        Box::new(Expr::Var("x".into())),
                        Box::new(Expr::Var("y".into())),
                    ),
                ),
            ];
            if let Some(g) = guard {
                qualifiers.push(Qualifier::Guard(Expr::BinOp(
                    BinOp::Ge,
                    Box::new(Expr::Var("z".into())),
                    Box::new(Expr::Int(g)),
                )));
            }
            Comprehension {
                head: Box::new(head),
                qualifiers,
            }
        })
}

/// Comparisons can yield booleans inside arithmetic; evaluation may fail on
/// ill-typed combinations — both sides must then fail identically.
fn eval_both(
    c: &Comprehension,
) -> (
    Result<Vec<Value>, comp::CompError>,
    Result<Vec<Value>, comp::CompError>,
) {
    let direct = eval_comprehension(c, &mut Env::new());
    let core = desugar(c).expect("group-by-free");
    let via_core = eval_core(&core, &mut Env::new());
    (direct, via_core)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pretty_print_reparses(e in arb_scalar_expr()) {
        let printed = format!("{e}");
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` failed to re-parse: {err}"));
        prop_assert_eq!(e, reparsed, "printed form was `{}`", printed);
    }

    #[test]
    fn desugaring_agrees_with_direct_semantics(c in arb_comprehension()) {
        let (direct, via_core) = eval_both(&c);
        match (direct, via_core) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "divergence: direct={a:?} core={b:?}"),
        }
    }

    #[test]
    fn normalization_preserves_semantics(c in arb_comprehension()) {
        let original = Expr::Comprehension(c);
        let normalized = normalize(original.clone());
        let a = comp::eval(&original, &mut Env::new());
        let b = comp::eval(&normalized, &mut Env::new());
        match (a, b) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "divergence: original={a:?} normalized={b:?}"),
        }
    }

    #[test]
    fn children_and_map_children_visit_the_same_subexpressions(e in arb_any_expr()) {
        let borrowed: Vec<Expr> = e.children().cloned().collect();
        let mut mapped = Vec::new();
        let rebuilt = e.clone().map_children(&mut |x| {
            mapped.push(x.clone());
            x
        });
        prop_assert_eq!(borrowed, mapped);
        prop_assert_eq!(rebuilt, e);
    }

    #[test]
    fn reductions_match_iterator_folds(xs in proptest::collection::vec(-50i64..50, 0..40)) {
        let list = Value::List(xs.iter().map(|&x| Value::Int(x)).collect());
        let mut env = Env::new();
        env.bind("L", list);
        let sum = comp::eval(&parse_expr("+/L").unwrap(), &mut env).unwrap();
        prop_assert_eq!(sum, Value::Int(xs.iter().sum()));
        if !xs.is_empty() {
            let mx = comp::eval(&parse_expr("max/L").unwrap(), &mut env).unwrap();
            prop_assert_eq!(mx, Value::Int(*xs.iter().max().unwrap()));
            let mn = comp::eval(&parse_expr("min/L").unwrap(), &mut env).unwrap();
            prop_assert_eq!(mn, Value::Int(*xs.iter().min().unwrap()));
        }
    }
}
