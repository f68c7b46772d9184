//! Abstract syntax of the comprehension language (paper Fig. 2).

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// Short operator tag, used in fused-region op sequences.
    pub fn tag(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Mod => "mod",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
}

/// The reduction monoids `⊕` of `⊕/e` (§2). Each has an identity element
/// `1⊕` and an associative, commutative combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Monoid {
    /// `+/` — sum, identity 0.
    Sum,
    /// `*/` — product, identity 1.
    Product,
    /// `&&/` — conjunction, identity true.
    And,
    /// `||/` — disjunction, identity false.
    Or,
    /// `max/` — maximum, identity -inf.
    Max,
    /// `min/` — minimum, identity +inf.
    Min,
    /// `++/` — list concatenation, identity [] (the implicit monoid of bare
    /// lifted variables, §3).
    Concat,
}

impl Monoid {
    /// Surface syntax of the monoid.
    pub fn symbol(self) -> &'static str {
        match self {
            Monoid::Sum => "+",
            Monoid::Product => "*",
            Monoid::And => "&&",
            Monoid::Or => "||",
            Monoid::Max => "max",
            Monoid::Min => "min",
            Monoid::Concat => "++",
        }
    }
}

/// Patterns bind components of generated elements (Fig. 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// A pattern variable.
    Var(String),
    /// A tuple of sub-patterns.
    Tuple(Vec<Pattern>),
    /// `_` — matches anything, binds nothing.
    Wildcard,
}

impl Pattern {
    /// All variables bound by this pattern, left to right.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Pattern::Var(v) => out.push(v.clone()),
            Pattern::Tuple(ps) => ps.iter().for_each(|p| p.collect_vars(out)),
            Pattern::Wildcard => {}
        }
    }

    /// The pattern read back as an expression (used to evaluate group-by
    /// keys, whose pattern variables are already bound).
    pub fn to_expr(&self) -> Expr {
        match self {
            Pattern::Var(v) => Expr::Var(v.clone()),
            Pattern::Tuple(ps) => Expr::Tuple(ps.iter().map(Pattern::to_expr).collect()),
            Pattern::Wildcard => {
                panic!("wildcard pattern cannot be read back as an expression")
            }
        }
    }
}

/// Comprehension qualifiers (Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub enum Qualifier {
    /// `p <- e` — traverse collection `e`, binding `p` to each element.
    Generator(Pattern, Expr),
    /// `let p = e`.
    Let(Pattern, Expr),
    /// A boolean filter.
    Guard(Expr),
    /// `group by p` (key pattern of already-bound variables) or
    /// `group by p : e` (bind `p` to `e`, then group — the sugar of §3).
    GroupBy(Pattern, Option<Expr>),
}

impl Qualifier {
    /// The qualifier's expression; `group by p` has none.
    pub fn expr(&self) -> Option<&Expr> {
        match self {
            Qualifier::Generator(_, e)
            | Qualifier::Let(_, e)
            | Qualifier::Guard(e)
            | Qualifier::GroupBy(_, Some(e)) => Some(e),
            Qualifier::GroupBy(_, None) => None,
        }
    }
}

/// `[ head | qualifiers ]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Comprehension {
    pub head: Box<Expr>,
    pub qualifiers: Vec<Qualifier>,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(String),
    Var(String),
    Tuple(Vec<Expr>),
    Comprehension(Comprehension),
    /// `⊕/e` — reduce a collection with a monoid.
    Reduce(Monoid, Box<Expr>),
    BinOp(BinOp, Box<Expr>, Box<Expr>),
    UnOp(UnOp, Box<Expr>),
    /// `v[e1, ..., en]` — abstract array indexing; removed by normalization.
    Index(Box<Expr>, Vec<Expr>),
    /// `f(e1, ..., en)` — builtin function call.
    Call(String, Vec<Expr>),
    /// `e.field` — currently `length` on lists.
    Field(Box<Expr>, String),
    /// `e1 until e2` (exclusive) / `e1 to e2` (inclusive) index ranges.
    Range {
        lo: Box<Expr>,
        hi: Box<Expr>,
        inclusive: bool,
    },
    /// `if (c) e1 else e2`.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `builder(args)[ e | q ]` — apply an array builder to a comprehension
    /// (e.g. `matrix(n,m)[...]`, `tiled(n,m)[...]`, `vector(n)[...]`,
    /// `rdd[...]`, `set[...]`, `array(n)[...]`).
    Build {
        builder: String,
        args: Vec<Expr>,
        body: Box<Expr>,
    },
}

impl Expr {
    /// Free variables of the expression.
    pub fn free_vars(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        self.collect_free(&mut Vec::new(), &mut out);
        out
    }

    fn collect_free(&self, bound: &mut Vec<String>, out: &mut std::collections::BTreeSet<String>) {
        match self {
            Expr::Var(v) => {
                if !bound.contains(v) {
                    out.insert(v.clone());
                }
            }
            Expr::Comprehension(c) => {
                let depth = bound.len();
                for q in &c.qualifiers {
                    if let Some(e) = q.expr() {
                        e.collect_free(bound, out);
                    }
                    if let Qualifier::Generator(p, _)
                    | Qualifier::Let(p, _)
                    | Qualifier::GroupBy(p, _) = q
                    {
                        bound.extend(p.vars());
                    }
                }
                c.head.collect_free(bound, out);
                bound.truncate(depth);
            }
            _ => self.children().for_each(|e| e.collect_free(bound, out)),
        }
    }

    /// The direct sub-expressions, in the order [`Expr::map_children`]
    /// visits them: a comprehension's head, then each qualifier's
    /// expression; a builder's args before its body; an index's base
    /// before its indices.
    pub fn children(&self) -> impl Iterator<Item = &Expr> {
        let none = [None, None, None];
        let (lead, list, tail, quals): ([Option<&Expr>; 3], &[Expr], _, &[Qualifier]) = match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::Str(_) | Expr::Var(_) => {
                (none, &[], None, &[])
            }
            Expr::Tuple(es) | Expr::Call(_, es) => (none, es, None, &[]),
            Expr::Comprehension(c) => ([Some(&*c.head), None, None], &[], None, &c.qualifiers),
            Expr::Reduce(_, e) | Expr::UnOp(_, e) | Expr::Field(e, _) => {
                ([Some(&**e), None, None], &[], None, &[])
            }
            Expr::BinOp(_, a, b) | Expr::Range { lo: a, hi: b, .. } => {
                ([Some(&**a), Some(&**b), None], &[], None, &[])
            }
            Expr::If(c, t, e) => ([Some(&**c), Some(&**t), Some(&**e)], &[], None, &[]),
            Expr::Index(b, idx) => ([Some(&**b), None, None], idx, None, &[]),
            Expr::Build { args, body, .. } => (none, args, Some(&**body), &[]),
        };
        let quals = quals.iter().filter_map(Qualifier::expr);
        lead.into_iter()
            .flatten()
            .chain(list)
            .chain(tail)
            .chain(quals)
    }

    /// Rebuild the expression with `f` applied to each direct
    /// sub-expression, in the order of [`Expr::children`]. Rewrites call it
    /// for the variants they do not handle themselves.
    pub fn map_children(self, f: &mut dyn FnMut(Expr) -> Expr) -> Expr {
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::Str(_) | Expr::Var(_) => self,
            Expr::Tuple(es) => Expr::Tuple(es.into_iter().map(&mut *f).collect()),
            Expr::Comprehension(c) => Expr::Comprehension(Comprehension {
                head: Box::new(f(*c.head)),
                qualifiers: c
                    .qualifiers
                    .into_iter()
                    .map(|q| match q {
                        Qualifier::Generator(p, e) => Qualifier::Generator(p, f(e)),
                        Qualifier::Let(p, e) => Qualifier::Let(p, f(e)),
                        Qualifier::Guard(e) => Qualifier::Guard(f(e)),
                        Qualifier::GroupBy(p, k) => Qualifier::GroupBy(p, k.map(&mut *f)),
                    })
                    .collect(),
            }),
            Expr::Reduce(m, e) => Expr::Reduce(m, Box::new(f(*e))),
            Expr::BinOp(op, a, b) => Expr::BinOp(op, Box::new(f(*a)), Box::new(f(*b))),
            Expr::UnOp(op, a) => Expr::UnOp(op, Box::new(f(*a))),
            Expr::Index(b, idx) => {
                Expr::Index(Box::new(f(*b)), idx.into_iter().map(&mut *f).collect())
            }
            Expr::Call(name, args) => Expr::Call(name, args.into_iter().map(&mut *f).collect()),
            Expr::Field(b, field) => Expr::Field(Box::new(f(*b)), field),
            Expr::Range { lo, hi, inclusive } => Expr::Range {
                lo: Box::new(f(*lo)),
                hi: Box::new(f(*hi)),
                inclusive,
            },
            Expr::If(c, t, e2) => Expr::If(Box::new(f(*c)), Box::new(f(*t)), Box::new(f(*e2))),
            Expr::Build {
                builder,
                args,
                body,
            } => Expr::Build {
                builder,
                args: args.into_iter().map(&mut *f).collect(),
                body: Box::new(f(*body)),
            },
        }
    }
}

impl Expr {
    /// Post-order sequence of scalar operator tags for an elementwise head
    /// expression — the trace the planner's fuse pass follows when it
    /// collapses a normalized comprehension region into one fused program.
    /// Literals tag as `const`, variables as `load`; structure-level forms
    /// (comprehensions, builders, generators) tag as `expr` and break
    /// fusion upstream.
    pub fn op_sequence(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        self.collect_ops(&mut out);
        out
    }

    fn collect_ops(&self, out: &mut Vec<&'static str>) {
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::Str(_) => out.push("const"),
            Expr::Var(_) => out.push("load"),
            Expr::BinOp(op, a, b) => {
                a.collect_ops(out);
                b.collect_ops(out);
                out.push(op.tag());
            }
            Expr::UnOp(UnOp::Neg, e) => {
                e.collect_ops(out);
                out.push("neg");
            }
            Expr::UnOp(UnOp::Not, e) => {
                e.collect_ops(out);
                out.push("not");
            }
            Expr::If(c, t, e) => {
                c.collect_ops(out);
                t.collect_ops(out);
                e.collect_ops(out);
                out.push("select");
            }
            Expr::Call(f, args) => {
                args.iter().for_each(|a| a.collect_ops(out));
                match f.as_str() {
                    "abs" => out.push("abs"),
                    "sqrt" => out.push("sqrt"),
                    _ => out.push("call"),
                }
            }
            _ => out.push("expr"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_vars_in_order() {
        let p = Pattern::Tuple(vec![
            Pattern::Tuple(vec![Pattern::Var("i".into()), Pattern::Var("j".into())]),
            Pattern::Var("m".into()),
            Pattern::Wildcard,
        ]);
        assert_eq!(p.vars(), vec!["i", "j", "m"]);
    }

    #[test]
    fn pattern_to_expr_roundtrip() {
        let p = Pattern::Tuple(vec![Pattern::Var("i".into()), Pattern::Var("j".into())]);
        assert_eq!(
            p.to_expr(),
            Expr::Tuple(vec![Expr::Var("i".into()), Expr::Var("j".into())])
        );
    }

    #[test]
    fn free_vars_respects_comprehension_binding() {
        // [ (i, m + x) | ((i,j),m) <- M ] — free: M, x
        let comp = Expr::Comprehension(Comprehension {
            head: Box::new(Expr::Tuple(vec![
                Expr::Var("i".into()),
                Expr::BinOp(
                    BinOp::Add,
                    Box::new(Expr::Var("m".into())),
                    Box::new(Expr::Var("x".into())),
                ),
            ])),
            qualifiers: vec![Qualifier::Generator(
                Pattern::Tuple(vec![
                    Pattern::Tuple(vec![Pattern::Var("i".into()), Pattern::Var("j".into())]),
                    Pattern::Var("m".into()),
                ]),
                Expr::Var("M".into()),
            )],
        });
        let fv = comp.free_vars();
        assert!(fv.contains("M"));
        assert!(fv.contains("x"));
        assert!(!fv.contains("i"));
        assert!(!fv.contains("m"));
    }

    #[test]
    fn monoid_symbols() {
        assert_eq!(Monoid::Sum.symbol(), "+");
        assert_eq!(Monoid::And.symbol(), "&&");
    }

    #[test]
    fn op_sequence_is_postorder() {
        // a + b * 0.5  →  load; load; const; mul; add
        let e = Expr::BinOp(
            BinOp::Add,
            Box::new(Expr::Var("a".into())),
            Box::new(Expr::BinOp(
                BinOp::Mul,
                Box::new(Expr::Var("b".into())),
                Box::new(Expr::Float(0.5)),
            )),
        );
        assert_eq!(e.op_sequence(), vec!["load", "load", "const", "mul", "add"]);
        // if (a > 0) abs(a) else -b  →  load; const; gt; load; abs; load; neg; select
        let guarded = Expr::If(
            Box::new(Expr::BinOp(
                BinOp::Gt,
                Box::new(Expr::Var("a".into())),
                Box::new(Expr::Int(0)),
            )),
            Box::new(Expr::Call("abs".into(), vec![Expr::Var("a".into())])),
            Box::new(Expr::UnOp(UnOp::Neg, Box::new(Expr::Var("b".into())))),
        );
        assert_eq!(
            guarded.op_sequence(),
            vec!["load", "const", "gt", "load", "abs", "load", "neg", "select"]
        );
    }
}
