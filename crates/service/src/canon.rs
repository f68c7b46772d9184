//! Query canonicalization for the plan cache.
//!
//! Two textually different queries share one cache entry only when they are
//! the *same program*. The cache key is the pretty-printed [`canonicalize`]d
//! expression, built in two passes, neither of which changes what the query
//! computes:
//!
//! 1. [`comp::normalize::normalize`] — the planner's own source-to-source
//!    rules (comprehension flattening, index removal, group-by elimination),
//!    so the cached plan is compiled from exactly the key expression.
//! 2. Alpha-renaming — every bound variable is renamed to `%c0`, `%c1`, ...
//!    in binding order, so user-chosen names vanish from the key.
//!
//! Generator order is kept. A generator sequence is a nested loop, so
//! swapping two generators — even independent ones — builds the same
//! elements in another order: a different list, hence a different key.

use comp::ast::{Comprehension, Expr, Pattern, Qualifier};
use std::collections::HashMap;

/// Canonical form of a query: normalize, then alpha-rename bound variables.
/// Alpha-equivalent queries map to equal expressions, hence equal
/// pretty-printed cache keys; the result computes what `expr` computes.
pub fn canonicalize(expr: Expr) -> Expr {
    Renamer::default().rename(comp::normalize::normalize(expr))
}

/// The canonical cache-key text of a query.
pub fn canonical_key(expr: Expr) -> String {
    format!("{}", canonicalize(expr))
}

/// FNV-1a over the key text — the `key` field of `plan_cache_hit` events.
pub fn key_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Pass 2: alpha-renaming.

#[derive(Default)]
struct Renamer {
    /// Scope stack of `user name -> canonical name` maps.
    scopes: Vec<HashMap<String, String>>,
    counter: usize,
}

impl Renamer {
    fn fresh(&mut self) -> String {
        let name = format!("%c{}", self.counter);
        self.counter += 1;
        name
    }

    fn lookup(&self, name: &str) -> Option<&String> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn bind_pattern(&mut self, p: &Pattern) -> Pattern {
        match p {
            Pattern::Var(v) => {
                let fresh = self.fresh();
                self.scopes
                    .last_mut()
                    .expect("binding outside any scope")
                    .insert(v.clone(), fresh.clone());
                Pattern::Var(fresh)
            }
            Pattern::Tuple(ps) => Pattern::Tuple(ps.iter().map(|p| self.bind_pattern(p)).collect()),
            Pattern::Wildcard => Pattern::Wildcard,
        }
    }

    /// Rewrite a pattern whose variables *reference* existing bindings (the
    /// `group by p` form, where `p` re-binds already-bound names to the key).
    fn reference_pattern(&self, p: &Pattern) -> Pattern {
        match p {
            Pattern::Var(v) => Pattern::Var(self.lookup(v).cloned().unwrap_or_else(|| v.clone())),
            Pattern::Tuple(ps) => {
                Pattern::Tuple(ps.iter().map(|p| self.reference_pattern(p)).collect())
            }
            Pattern::Wildcard => Pattern::Wildcard,
        }
    }

    fn rename(&mut self, e: Expr) -> Expr {
        match e {
            Expr::Var(v) => Expr::Var(self.lookup(&v).cloned().unwrap_or(v)),
            Expr::Comprehension(c) => {
                self.scopes.push(HashMap::new());
                let qualifiers = c
                    .qualifiers
                    .into_iter()
                    .map(|q| match q {
                        Qualifier::Generator(p, e) => {
                            let e = self.rename(e);
                            Qualifier::Generator(self.bind_pattern(&p), e)
                        }
                        Qualifier::Let(p, e) => {
                            let e = self.rename(e);
                            Qualifier::Let(self.bind_pattern(&p), e)
                        }
                        Qualifier::Guard(e) => Qualifier::Guard(self.rename(e)),
                        Qualifier::GroupBy(p, Some(k)) => {
                            let k = self.rename(k);
                            Qualifier::GroupBy(self.bind_pattern(&p), Some(k))
                        }
                        Qualifier::GroupBy(p, None) => {
                            Qualifier::GroupBy(self.reference_pattern(&p), None)
                        }
                    })
                    .collect();
                let head = Box::new(self.rename(*c.head));
                self.scopes.pop();
                Expr::Comprehension(Comprehension { head, qualifiers })
            }
            _ => e.map_children(&mut |x| self.rename(x)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comp::ast::BinOp;
    use proptest::prelude::*;

    fn key(src: &str) -> String {
        canonical_key(comp::parse_expr(src).unwrap())
    }

    #[test]
    fn alpha_renamed_queries_share_a_key() {
        let a =
            key("tiled(n,n)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]");
        let b =
            key("tiled(n,n)[ ((r,c), x+y) | ((r,c),x) <- A, ((rr,cc),y) <- B, rr == r, cc == c ]");
        assert_eq!(a, b, "alpha-renaming must not change the key");
    }

    #[test]
    fn generator_order_is_part_of_the_program() {
        // A generator sequence is a nested loop: swapping two independent
        // generators builds the same elements in another order.
        let a = key("[ (a,b) | ((i,j),a) <- A, ((k,l),b) <- B ]");
        let swapped = key("[ (a,b) | ((k,l),b) <- B, ((i,j),a) <- A ]");
        assert_ne!(a, swapped, "generator order must stay in the key");
        // Alpha-renaming in the same order still shares the key.
        let renamed = key("[ (x,y) | ((p,q),x) <- A, ((r,s),y) <- B ]");
        assert_eq!(a, renamed);
    }

    #[test]
    fn dependent_generators_keep_their_order() {
        // The second generator ranges over a variable the first binds; the
        // pair is not commutative and must not be reordered.
        let a = key("[ y | x <- A, y <- x ]");
        let b = key("[ y | x <- B, y <- x ]");
        assert_ne!(a, b);
        // Canonical text still renames the bound variables.
        assert!(a.contains("%c0"), "{a}");
    }

    #[test]
    fn different_sources_get_different_keys() {
        assert_ne!(key("[ a | (i,a) <- A ]"), key("[ a | (i,a) <- B ]"));
        assert_ne!(key("[ a+1 | (i,a) <- A ]"), key("[ a+2 | (i,a) <- A ]"));
    }

    #[test]
    fn group_by_and_matmul_queries_canonicalize() {
        let a = key(
            "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, \
             let v = a*b, group by (i,j) ]",
        );
        let b = key(
            "tiled(n,n)[ ((r,c), +/w) | ((r,m),x) <- A, ((mm,c),y) <- B, mm == m, \
             let w = x*y, group by (r,c) ]",
        );
        assert_eq!(a, b);
        assert!(!a.contains("kk"), "user names must not leak into keys: {a}");
    }

    #[test]
    fn key_hash_is_stable_and_discriminating() {
        let k = key("[ a | (i,a) <- A ]");
        assert_eq!(key_hash(&k), key_hash(&k));
        assert_ne!(key_hash("x"), key_hash("y"));
    }

    fn var(name: &str) -> Expr {
        Expr::Var(name.into())
    }

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::BinOp(op, Box::new(a), Box::new(b))
    }

    fn until(n: i64) -> Expr {
        Expr::Range {
            lo: Box::new(Expr::Int(0)),
            hi: Box::new(Expr::Int(n)),
            inclusive: false,
        }
    }

    /// Arithmetic heads over the generator variables `x` and `y`.
    fn arb_head() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (-9i64..10).prop_map(Expr::Int),
            Just(var("x")),
            Just(var("y"))
        ];
        leaf.prop_recursive(3, 16, 2, |inner| {
            prop_oneof![
                (
                    inner.clone(),
                    inner.clone(),
                    prop_oneof![Just(BinOp::Add), Just(BinOp::Sub), Just(BinOp::Mul)]
                )
                    .prop_map(|(a, b, op)| bin(op, a, b)),
                (inner.clone(), inner).prop_map(|(a, b)| Expr::Tuple(vec![a, b])),
            ]
        })
    }

    /// `[ head | x <- 0 until n, y <- 0 until m, let z = x + y, z >= g ]`,
    /// the guard optional. `n` and `m` are drawn independently, so the two
    /// sources' texts sort either way.
    fn arb_comprehension() -> impl Strategy<Value = Expr> {
        (1i64..6, 1i64..6, arb_head(), proptest::option::of(0i64..8)).prop_map(
            |(n, m, head, guard)| {
                let mut qualifiers = vec![
                    Qualifier::Generator(Pattern::Var("x".into()), until(n)),
                    Qualifier::Generator(Pattern::Var("y".into()), until(m)),
                    Qualifier::Let(
                        Pattern::Var("z".into()),
                        bin(BinOp::Add, var("x"), var("y")),
                    ),
                ];
                if let Some(g) = guard {
                    qualifiers.push(Qualifier::Guard(bin(BinOp::Ge, var("z"), Expr::Int(g))));
                }
                Expr::Comprehension(Comprehension {
                    head: Box::new(head),
                    qualifiers,
                })
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn canonicalization_keeps_the_program(e in arb_comprehension()) {
            let canonical = canonicalize(e.clone());
            let a = comp::eval(&e, &mut comp::Env::new());
            let b = comp::eval(&canonical, &mut comp::Env::new());
            match (a, b) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "canonical form `{}`", canonical),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "divergence: original={a:?} canonical={b:?}"),
            }
        }
    }
}
