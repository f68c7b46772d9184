//! Comprehension analysis: decompose a normalized comprehension into the
//! structural facts the translation rules dispatch on — which generators
//! range over tiled arrays, which index variables are equated by join guards
//! (rule 14), whether the head key preserves tiling (§5.1), and what the
//! group-by aggregates are (§5.3).

use comp::ast::{Expr, Monoid, Pattern, Qualifier};
use comp::errors::CompError;
use std::collections::HashMap;

/// A generator over a tiled matrix: `((row, col), val) <- Name`.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixGen {
    pub name: String,
    pub row: String,
    pub col: String,
    pub val: String,
}

/// A generator over a tiled vector: `(idx, val) <- Name`.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorGen {
    pub name: String,
    pub idx: String,
    pub val: String,
}

/// A generator over an integer range: `v <- lo until/to hi`.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeGen {
    pub var: String,
    pub lo: Expr,
    pub hi: Expr,
    pub inclusive: bool,
}

/// The decomposed body of a comprehension.
#[derive(Debug, Clone)]
pub struct Decomposed {
    pub matrix_gens: Vec<MatrixGen>,
    pub vector_gens: Vec<VectorGen>,
    pub range_gens: Vec<RangeGen>,
    /// `let` bindings, in order.
    pub lets: Vec<(String, Expr)>,
    /// Equality guards between two variables (join/fusion equalities).
    pub var_equalities: Vec<(String, String)>,
    /// All other guards.
    pub other_guards: Vec<Expr>,
    /// The (single) group-by, if present: key pattern and optional key expr.
    pub group_by: Option<(Pattern, Option<Expr>)>,
    /// Qualifiers after the group-by (unsupported by fast plans if nonempty).
    pub post_group_quals: usize,
    /// The comprehension head.
    pub head: Expr,
}

/// What kind of registered array a generator ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenKind {
    Matrix,
    Vector,
    Unknown,
}

/// Decompose `head | qualifiers`, resolving generator sources via `kind`.
/// Fails (→ fallback path) on shapes outside the translation rules: multiple
/// group-bys, generators over unregistered collections, or patterns that do
/// not match the array arity.
pub fn decompose(
    head: &Expr,
    qualifiers: &[Qualifier],
    kind: &dyn Fn(&str) -> GenKind,
) -> Result<Decomposed, CompError> {
    let mut d = Decomposed {
        matrix_gens: Vec::new(),
        vector_gens: Vec::new(),
        range_gens: Vec::new(),
        lets: Vec::new(),
        var_equalities: Vec::new(),
        other_guards: Vec::new(),
        group_by: None,
        post_group_quals: 0,
        head: head.clone(),
    };
    let mut seen_group_by = false;
    for q in qualifiers {
        if seen_group_by {
            d.post_group_quals += 1;
            continue;
        }
        match q {
            Qualifier::Generator(p, Expr::Var(name)) if kind(name) == GenKind::Matrix => {
                let Pattern::Tuple(parts) = p else {
                    return Err(CompError::plan(format!(
                        "matrix generator pattern must be ((i,j),v): {p}"
                    )));
                };
                let [key, val] = parts.as_slice() else {
                    return Err(CompError::plan(format!(
                        "matrix generator pattern must be ((i,j),v): {p}"
                    )));
                };
                let (Pattern::Tuple(ij), Pattern::Var(v)) = (key, val) else {
                    return Err(CompError::plan(format!(
                        "matrix generator pattern must be ((i,j),v): {p}"
                    )));
                };
                let [Pattern::Var(i), Pattern::Var(j)] = ij.as_slice() else {
                    return Err(CompError::plan(format!(
                        "matrix generator indices must be variables: {p}"
                    )));
                };
                d.matrix_gens.push(MatrixGen {
                    name: name.clone(),
                    row: i.clone(),
                    col: j.clone(),
                    val: v.clone(),
                });
            }
            Qualifier::Generator(p, Expr::Var(name)) if kind(name) == GenKind::Vector => {
                let Pattern::Tuple(parts) = p else {
                    return Err(CompError::plan(format!(
                        "vector generator pattern must be (i, v): {p}"
                    )));
                };
                let [Pattern::Var(i), Pattern::Var(v)] = parts.as_slice() else {
                    return Err(CompError::plan(format!(
                        "vector generator pattern must be (i, v): {p}"
                    )));
                };
                d.vector_gens.push(VectorGen {
                    name: name.clone(),
                    idx: i.clone(),
                    val: v.clone(),
                });
            }
            Qualifier::Generator(Pattern::Var(v), Expr::Range { lo, hi, inclusive }) => {
                d.range_gens.push(RangeGen {
                    var: v.clone(),
                    lo: (**lo).clone(),
                    hi: (**hi).clone(),
                    inclusive: *inclusive,
                });
            }
            Qualifier::Generator(_, e) => {
                return Err(CompError::plan(format!(
                    "generator source is not a registered tiled array or range: {e}"
                )))
            }
            Qualifier::Let(Pattern::Var(v), e) => d.lets.push((v.clone(), e.clone())),
            Qualifier::Let(p, _) => {
                return Err(CompError::plan(format!(
                    "tuple let patterns are not supported by distributed plans: {p}"
                )))
            }
            Qualifier::Guard(Expr::BinOp(comp::BinOp::Eq, a, b)) => {
                if let (Expr::Var(x), Expr::Var(y)) = (a.as_ref(), b.as_ref()) {
                    d.var_equalities.push((x.clone(), y.clone()));
                } else {
                    d.other_guards
                        .push(Expr::BinOp(comp::BinOp::Eq, a.clone(), b.clone()));
                }
            }
            Qualifier::Guard(e) => d.other_guards.push(e.clone()),
            Qualifier::GroupBy(p, k) => {
                if d.group_by.is_some() {
                    return Err(CompError::plan(
                        "multiple group-bys are not supported by distributed plans",
                    ));
                }
                d.group_by = Some((p.clone(), k.clone()));
                seen_group_by = true;
            }
        }
    }
    Ok(d)
}

/// Union-find over variable names for join equalities.
#[derive(Debug, Default)]
pub struct VarClasses {
    parent: HashMap<String, String>,
}

impl VarClasses {
    pub fn from_equalities(eqs: &[(String, String)]) -> Self {
        let mut vc = VarClasses::default();
        for (a, b) in eqs {
            vc.union(a, b);
        }
        vc
    }

    pub fn find(&self, v: &str) -> String {
        match self.parent.get(v) {
            Some(p) if p != v => self.find(p),
            _ => v.to_string(),
        }
    }

    pub fn union(&mut self, a: &str, b: &str) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }

    pub fn same(&self, a: &str, b: &str) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Inline `let` bindings into an expression (in binding order, so later lets
/// may reference earlier ones).
pub fn inline_lets(e: &Expr, lets: &[(String, Expr)]) -> Expr {
    let mut out = e.clone();
    // Substitute from the last let backwards: each substitution may expose
    // references to earlier lets.
    for (name, def) in lets.iter().rev() {
        out = substitute(out, name, def);
    }
    out
}

/// Substitute free occurrences of `name` in `e` by `def` (no binder-aware
/// hygiene needed: normalized comprehension fragments contain no nested
/// binders for these names). A nested comprehension is left as it is.
pub fn substitute(e: Expr, name: &str, def: &Expr) -> Expr {
    match e {
        Expr::Var(v) if v == name => def.clone(),
        Expr::Comprehension(_) => e,
        _ => e.map_children(&mut |x| substitute(x, name, def)),
    }
}

/// An aggregate occurrence in a group-by head: `⊕/expr`, `count(v)`, or
/// `v.length` (the last two normalize to Sum over the constant 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    pub monoid: Monoid,
    /// The per-row expression being aggregated (over element variables).
    pub input: Expr,
}

/// Decompose a group-by head value into aggregates plus a finalizer
/// expression over aggregate slots `%aggN` — the `f(⊕₁/w₁.map(g₁), ...)`
/// abstraction of §3/(12).
pub fn extract_aggregates(e: &Expr) -> (Expr, Vec<Aggregate>) {
    let mut aggs: Vec<Aggregate> = Vec::new();
    let finalizer = go(e, &mut aggs);
    return (finalizer, aggs);

    fn slot(aggs: &mut Vec<Aggregate>, agg: Aggregate) -> Expr {
        let idx = match aggs.iter().position(|a| *a == agg) {
            Some(i) => i,
            None => {
                aggs.push(agg);
                aggs.len() - 1
            }
        };
        Expr::Var(format!("%agg{idx}"))
    }

    fn go(e: &Expr, aggs: &mut Vec<Aggregate>) -> Expr {
        match e {
            Expr::Reduce(m, inner) => slot(
                aggs,
                Aggregate {
                    monoid: *m,
                    input: (**inner).clone(),
                },
            ),
            Expr::Call(f, args) if f == "count" && args.len() == 1 => slot(
                aggs,
                Aggregate {
                    monoid: Monoid::Sum,
                    input: Expr::Int(1),
                },
            ),
            Expr::Field(_, f) if f == "length" => slot(
                aggs,
                Aggregate {
                    monoid: Monoid::Sum,
                    input: Expr::Int(1),
                },
            ),
            Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::Str(_) | Expr::Var(_) => {
                e.clone()
            }
            Expr::Tuple(es) => Expr::Tuple(es.iter().map(|x| go(x, aggs)).collect()),
            Expr::BinOp(op, a, b) => Expr::BinOp(*op, Box::new(go(a, aggs)), Box::new(go(b, aggs))),
            Expr::UnOp(op, a) => Expr::UnOp(*op, Box::new(go(a, aggs))),
            Expr::Call(f, args) => {
                Expr::Call(f.clone(), args.iter().map(|x| go(x, aggs)).collect())
            }
            Expr::If(c, t, f) => Expr::If(
                Box::new(go(c, aggs)),
                Box::new(go(t, aggs)),
                Box::new(go(f, aggs)),
            ),
            other => other.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comp::parser::parse_expr;

    fn decomp(src: &str, matrices: &[&str]) -> Decomposed {
        let e = parse_expr(src).unwrap();
        let (head, quals) = match e {
            Expr::Comprehension(c) => (*c.head, c.qualifiers),
            Expr::Build { body, .. } => match *body {
                Expr::Comprehension(c) => (*c.head, c.qualifiers),
                _ => panic!(),
            },
            _ => panic!(),
        };
        let names: Vec<String> = matrices.iter().map(|s| s.to_string()).collect();
        decompose(&head, &quals, &|n| {
            if names.iter().any(|x| x == n) {
                GenKind::Matrix
            } else {
                GenKind::Unknown
            }
        })
        .unwrap()
    }

    #[test]
    fn decomposes_matmul() {
        let d = decomp(
            "[ ((i,j), +/v) | ((i,k),a) <- M, ((kk,j),b) <- N, kk == k, \
             let v = a*b, group by (i,j) ]",
            &["M", "N"],
        );
        assert_eq!(d.matrix_gens.len(), 2);
        assert_eq!(d.matrix_gens[0].name, "M");
        assert_eq!(d.var_equalities, vec![("kk".into(), "k".into())]);
        assert_eq!(d.lets.len(), 1);
        assert!(d.group_by.is_some());
        assert_eq!(d.post_group_quals, 0);
    }

    #[test]
    fn decomposes_smoothing_ranges() {
        let d = decomp(
            "[ ((ii,jj), (+/a)/a.length) | ((i,j),a) <- M, ii <- (i-1) to (i+1), \
             jj <- (j-1) to (j+1), ii >= 0, jj >= 0, group by (ii,jj) ]",
            &["M"],
        );
        assert_eq!(d.matrix_gens.len(), 1);
        assert_eq!(d.range_gens.len(), 2);
        assert_eq!(d.other_guards.len(), 2);
    }

    #[test]
    fn rejects_unknown_generator() {
        let e = parse_expr("[ x | x <- Xs ]").unwrap();
        let Expr::Comprehension(c) = e else { panic!() };
        assert!(decompose(&c.head, &c.qualifiers, &|_| GenKind::Unknown).is_err());
    }

    #[test]
    fn var_classes_union_find() {
        let vc = VarClasses::from_equalities(&[("a".into(), "b".into()), ("b".into(), "c".into())]);
        assert!(vc.same("a", "c"));
        assert!(!vc.same("a", "d"));
    }

    #[test]
    fn inline_lets_in_order() {
        let lets = vec![
            ("u".to_string(), parse_expr("a + 1").unwrap()),
            ("v".to_string(), parse_expr("u * 2").unwrap()),
        ];
        let out = inline_lets(&parse_expr("v + u").unwrap(), &lets);
        assert_eq!(out, parse_expr("((a + 1) * 2) + (a + 1)").unwrap());
        // A nested comprehension binds its own names: it is left untouched.
        let out = inline_lets(&parse_expr("u + +/[ u | u <- L ]").unwrap(), &lets);
        assert_eq!(out, parse_expr("(a + 1) + +/[ u | u <- L ]").unwrap());
    }

    #[test]
    fn extract_aggregates_smoothing_head() {
        // (+/a)/a.length → %agg0 / %agg1 with Sum(a) and Sum(1).
        let (fin, aggs) = extract_aggregates(&parse_expr("(+/a)/a.length").unwrap());
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].monoid, Monoid::Sum);
        assert_eq!(aggs[0].input, parse_expr("a").unwrap());
        assert_eq!(aggs[1].input, Expr::Int(1));
        assert_eq!(
            fin,
            Expr::BinOp(
                comp::BinOp::Div,
                Box::new(Expr::Var("%agg0".into())),
                Box::new(Expr::Var("%agg1".into()))
            )
        );
    }

    #[test]
    fn extract_aggregates_dedups_identical() {
        let (_, aggs) = extract_aggregates(&parse_expr("(+/v) + (+/v)").unwrap());
        assert_eq!(aggs.len(), 1);
    }
}
