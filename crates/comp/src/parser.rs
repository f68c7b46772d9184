//! Recursive-descent parser for the comprehension language (Fig. 2).
//!
//! Noteworthy disambiguation points, all resolved with bounded backtracking:
//!
//! * `base[...]` is array **indexing** unless the bracket content contains a
//!   top-level `|`, in which case it is a comprehension and `base` must be a
//!   builder application (`tiled(n,m)[ e | q ]`, `rdd[ e | q ]`, ...).
//! * `group by` accepts a pattern of bound variables (`group by (i,j)`), a
//!   named key (`group by k: e`), or a bare key expression (`group by i/N`).
//!   A bare expression `e` is desugared to `let %kN = e, group by %kN` and
//!   syntactic occurrences of `e` after the group-by (and in the head) are
//!   replaced by `%kN`, following §3's reading.
//! * `⊕/e` reductions are recognized at operand position for the monoids
//!   `+ * && || ++ max min`.
//!
//! Input comes from the query service's sockets, so nesting is capped
//! (`MAX_DEPTH`): a query nested deeper is a parse error, not a stack
//! overflow here or in the passes after parsing.

use crate::ast::*;
use crate::errors::CompError;
use crate::lexer::{tokenize, Spanned, Token};

/// Deepest nesting accepted — of brackets, parentheses, `if`, prefix
/// operators, patterns, and of the trees operator and postfix chains build.
/// Normalize, typecheck and plan all recurse over the tree, and the deepest
/// accepted query survives them on a 2 MiB thread stack.
const MAX_DEPTH: usize = 64;

/// Parse a complete expression; the entire input must be consumed.
pub fn parse_expr(src: &str) -> Result<Expr, CompError> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        fresh: 0,
        depth: 0,
    };
    let e = p.expr()?;
    if p.pos != p.tokens.len() {
        return Err(CompError::parse(
            format!("unexpected trailing input: {:?}", p.peek()),
            p.offset(),
        ));
    }
    Ok(e)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    fresh: usize,
    /// Nesting levels open at the cursor.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1).map(|s| &s.token)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(0, |s| s.offset)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token, what: &str) -> Result<(), CompError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(CompError::parse(
                format!("expected {what}, found {:?}", self.peek()),
                self.offset(),
            ))
        }
    }

    fn fresh_var(&mut self) -> String {
        self.fresh += 1;
        format!("%k{}", self.fresh)
    }

    fn too_deep(&self) -> CompError {
        CompError::parse(
            format!("expression nested deeper than {MAX_DEPTH} levels"),
            self.offset(),
        )
    }

    /// Parse one nesting level deeper with `f`, or refuse past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CompError>,
    ) -> Result<T, CompError> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// `e`, a node an operator or postfix chain built without recursing, if
    /// its tree is no taller than [`MAX_DEPTH`].
    fn bounded(&self, e: Expr) -> Result<Expr, CompError> {
        if height(&e) > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(e)
    }

    // expr := if | or-chain
    fn expr(&mut self) -> Result<Expr, CompError> {
        self.nested(|p| {
            if p.eat(&Token::If) {
                p.expect(&Token::LParen, "`(` after if")?;
                let cond = p.expr()?;
                p.expect(&Token::RParen, "`)` after condition")?;
                let then = p.expr()?;
                p.expect(&Token::Else, "`else`")?;
                let els = p.expr()?;
                return Ok(Expr::If(Box::new(cond), Box::new(then), Box::new(els)));
            }
            p.or_expr()
        })
    }

    /// `operand (op operand)*`, left-associative; `op` names the binary
    /// operator at the cursor, if one is there.
    fn chain(
        &mut self,
        operand: fn(&mut Self) -> Result<Expr, CompError>,
        op: fn(&Self) -> Option<BinOp>,
    ) -> Result<Expr, CompError> {
        let mut lhs = operand(self)?;
        while let Some(op) = op(self) {
            self.pos += 1;
            let rhs = operand(self)?;
            lhs = self.bounded(Expr::BinOp(op, Box::new(lhs), Box::new(rhs)))?;
        }
        Ok(lhs)
    }

    /// The token at the cursor if the one after it is not `/` (which makes
    /// it a reduction's monoid).
    fn binary(&self) -> Option<&Token> {
        self.peek().filter(|_| self.peek2() != Some(&Token::Slash))
    }

    fn or_expr(&mut self) -> Result<Expr, CompError> {
        self.chain(Self::and_expr, |p| {
            (p.binary() == Some(&Token::OrOr)).then_some(BinOp::Or)
        })
    }

    fn and_expr(&mut self) -> Result<Expr, CompError> {
        self.chain(Self::cmp_expr, |p| {
            (p.binary() == Some(&Token::AndAnd)).then_some(BinOp::And)
        })
    }

    fn cmp_expr(&mut self) -> Result<Expr, CompError> {
        let lhs = self.range_expr()?;
        let op = match self.peek() {
            Some(Token::EqEq) => Some(BinOp::Eq),
            Some(Token::NotEq) => Some(BinOp::Ne),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Ge) => Some(BinOp::Ge),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Gt) => Some(BinOp::Gt),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.range_expr()?;
            Ok(Expr::BinOp(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn range_expr(&mut self) -> Result<Expr, CompError> {
        let lhs = self.add_expr()?;
        let inclusive = match self.peek() {
            Some(Token::Until) => Some(false),
            Some(Token::To) => Some(true),
            _ => None,
        };
        if let Some(inclusive) = inclusive {
            self.pos += 1;
            let rhs = self.add_expr()?;
            Ok(Expr::Range {
                lo: Box::new(lhs),
                hi: Box::new(rhs),
                inclusive,
            })
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> Result<Expr, CompError> {
        self.chain(Self::mul_expr, |p| match p.peek() {
            Some(Token::Plus) if p.binary().is_some() => Some(BinOp::Add),
            Some(Token::Minus) => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn mul_expr(&mut self) -> Result<Expr, CompError> {
        self.chain(Self::unary_expr, |p| match p.peek() {
            Some(Token::Star) if p.binary().is_some() => Some(BinOp::Mul),
            Some(Token::Slash) => Some(BinOp::Div),
            Some(Token::Percent) => Some(BinOp::Mod),
            _ => None,
        })
    }

    fn unary_expr(&mut self) -> Result<Expr, CompError> {
        // `⊕/e` reductions at operand position.
        let monoid = match (self.peek(), self.peek2()) {
            (Some(Token::Plus), Some(Token::Slash)) => Some(Monoid::Sum),
            (Some(Token::Star), Some(Token::Slash)) => Some(Monoid::Product),
            (Some(Token::AndAnd), Some(Token::Slash)) => Some(Monoid::And),
            (Some(Token::OrOr), Some(Token::Slash)) => Some(Monoid::Or),
            (Some(Token::PlusPlus), Some(Token::Slash)) => Some(Monoid::Concat),
            (Some(Token::Ident(name)), Some(Token::Slash)) if name == "max" => Some(Monoid::Max),
            (Some(Token::Ident(name)), Some(Token::Slash)) if name == "min" => Some(Monoid::Min),
            _ => None,
        };
        if let Some(m) = monoid {
            self.pos += 2;
            let operand = self.nested(Self::unary_expr)?;
            return Ok(Expr::Reduce(m, Box::new(operand)));
        }
        match self.peek() {
            Some(Token::Minus) => {
                self.pos += 1;
                let e = self.nested(Self::unary_expr)?;
                // Fold negated literals so `-1` is the literal -1.
                Ok(match e {
                    Expr::Int(n) => Expr::Int(-n),
                    Expr::Float(x) => Expr::Float(-x),
                    other => Expr::UnOp(UnOp::Neg, Box::new(other)),
                })
            }
            Some(Token::Not) => {
                self.pos += 1;
                let e = self.nested(Self::unary_expr)?;
                Ok(Expr::UnOp(UnOp::Not, Box::new(e)))
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, CompError> {
        let mut base = self.primary()?;
        loop {
            match self.peek() {
                Some(Token::LParen) => {
                    let name = match &base {
                        Expr::Var(v) => v.clone(),
                        _ => {
                            return Err(CompError::parse(
                                "only named functions can be called",
                                self.offset(),
                            ))
                        }
                    };
                    self.pos += 1;
                    let args = self.expr_list(&Token::RParen)?;
                    base = Expr::Call(name, args);
                }
                Some(Token::LBracket) => {
                    self.pos += 1;
                    // `base[ e | q ]` is a comprehension, `base[e, ...]` an
                    // index; the first expression is parsed once either way.
                    if self.eat(&Token::RBracket) {
                        base = self.bounded(Expr::Index(Box::new(base), Vec::new()))?;
                        continue;
                    }
                    match self.comprehension_or_head()? {
                        Ok(comp) => {
                            let (builder, args) = match base {
                                Expr::Var(v) => (v, Vec::new()),
                                Expr::Call(f, args) => (f, args),
                                _ => {
                                    return Err(CompError::parse(
                                        "comprehension brackets must follow a builder name",
                                        self.offset(),
                                    ))
                                }
                            };
                            base = Expr::Build {
                                builder,
                                args,
                                body: Box::new(Expr::Comprehension(comp)),
                            };
                        }
                        Err(first) => {
                            let mut idx = vec![first];
                            while !self.eat(&Token::RBracket) {
                                self.expect(&Token::Comma, "`,` in argument list")?;
                                idx.push(self.expr()?);
                            }
                            base = self.bounded(Expr::Index(Box::new(base), idx))?;
                        }
                    }
                }
                Some(Token::Dot) => {
                    self.pos += 1;
                    match self.next() {
                        Some(Token::Ident(f)) => {
                            base = self.bounded(Expr::Field(Box::new(base), f))?
                        }
                        other => {
                            return Err(CompError::parse(
                                format!("expected field name after `.`, found {other:?}"),
                                self.offset(),
                            ))
                        }
                    }
                }
                _ => break,
            }
        }
        Ok(base)
    }

    fn expr_list(&mut self, close: &Token) -> Result<Vec<Expr>, CompError> {
        let mut out = Vec::new();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(self.expr()?);
            if self.eat(close) {
                return Ok(out);
            }
            self.expect(&Token::Comma, "`,` in argument list")?;
        }
    }

    fn primary(&mut self) -> Result<Expr, CompError> {
        match self.next() {
            Some(Token::Int(n)) => Ok(Expr::Int(n)),
            Some(Token::Float(x)) => Ok(Expr::Float(x)),
            Some(Token::Str(s)) => Ok(Expr::Str(s)),
            Some(Token::True) => Ok(Expr::Bool(true)),
            Some(Token::False) => Ok(Expr::Bool(false)),
            Some(Token::Ident(v)) => Ok(Expr::Var(v)),
            Some(Token::LParen) => {
                let mut items = vec![self.expr()?];
                while self.eat(&Token::Comma) {
                    items.push(self.expr()?);
                }
                self.expect(&Token::RParen, "`)`")?;
                if items.len() == 1 {
                    Ok(items.pop().expect("one item"))
                } else {
                    Ok(Expr::Tuple(items))
                }
            }
            Some(Token::LBracket) => match self.comprehension_or_head()? {
                Ok(comp) => Ok(Expr::Comprehension(comp)),
                Err(_) => Err(CompError::parse(
                    "expected `|` in comprehension",
                    self.offset(),
                )),
            },
            other => Err(CompError::parse(
                format!("unexpected token {other:?}"),
                self.offset(),
            )),
        }
    }

    /// After consuming `[`, parse `e | q1, ..., qn ]` — or, when no `|`
    /// follows the head `e`, return `Err(e)` with the cursor after it.
    fn comprehension_or_head(&mut self) -> Result<Result<Comprehension, Expr>, CompError> {
        let head = self.expr()?;
        if !self.eat(&Token::Bar) {
            return Ok(Err(head));
        }
        let mut qualifiers = Vec::new();
        if !self.eat(&Token::RBracket) {
            loop {
                qualifiers.push(self.qualifier()?);
                if self.eat(&Token::RBracket) {
                    break;
                }
                self.expect(&Token::Comma, "`,` between qualifiers")?;
            }
        }
        let mut comp = Comprehension {
            head: Box::new(head),
            qualifiers,
        };
        self.rewrite_expression_group_keys(&mut comp);
        Ok(Ok(comp))
    }

    fn qualifier(&mut self) -> Result<Qualifier, CompError> {
        if self.eat(&Token::Let) {
            let pat = self.pattern()?;
            self.expect(&Token::Assign, "`=` in let qualifier")?;
            let e = self.expr()?;
            return Ok(Qualifier::Let(pat, e));
        }
        if self.peek() == Some(&Token::Group) {
            self.pos += 1;
            self.expect(&Token::By, "`by` after `group`")?;
            return self.group_by_rest();
        }
        // Generator `p <- e` vs guard `e`: try the pattern with backtracking.
        let saved = self.pos;
        if let Ok(pat) = self.pattern() {
            if self.eat(&Token::Arrow) {
                let e = self.expr()?;
                return Ok(Qualifier::Generator(pat, e));
            }
        }
        self.pos = saved;
        let e = self.expr()?;
        Ok(Qualifier::Guard(e))
    }

    /// `group by p`, `group by p : e`, or `group by e` (bare expression key).
    fn group_by_rest(&mut self) -> Result<Qualifier, CompError> {
        let saved = self.pos;
        if let Ok(pat) = self.pattern() {
            match self.peek() {
                Some(Token::Colon) => {
                    self.pos += 1;
                    let key = self.expr()?;
                    return Ok(Qualifier::GroupBy(pat, Some(key)));
                }
                // A bare pattern key must be followed by the end of the
                // qualifier; otherwise it was a prefix of an expression.
                Some(Token::Comma) | Some(Token::RBracket) | None => {
                    return Ok(Qualifier::GroupBy(pat, None));
                }
                _ => {}
            }
        }
        self.pos = saved;
        let key = self.expr()?;
        let fresh = self.fresh_var();
        Ok(Qualifier::GroupBy(Pattern::Var(fresh), Some(key)))
    }

    fn pattern(&mut self) -> Result<Pattern, CompError> {
        match self.peek().cloned() {
            Some(Token::Underscore) => {
                self.pos += 1;
                Ok(Pattern::Wildcard)
            }
            Some(Token::Ident(v)) => {
                self.pos += 1;
                Ok(Pattern::Var(v))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                self.nested(|p| {
                    let mut parts = vec![p.pattern()?];
                    while p.eat(&Token::Comma) {
                        parts.push(p.pattern()?);
                    }
                    p.expect(&Token::RParen, "`)` in pattern")?;
                    if parts.len() == 1 {
                        Ok(parts.pop().expect("one part"))
                    } else {
                        Ok(Pattern::Tuple(parts))
                    }
                })
            }
            other => Err(CompError::parse(
                format!("expected pattern, found {other:?}"),
                self.offset(),
            )),
        }
    }

    /// For `group by %kN : e` qualifiers synthesized from bare expression
    /// keys, replace syntactic occurrences of `e` in the head and in
    /// qualifiers after the group-by with the key variable, so the key is
    /// usable downstream (§3's reading of expression keys).
    fn rewrite_expression_group_keys(&self, comp: &mut Comprehension) {
        for i in 0..comp.qualifiers.len() {
            let (pat, key) = match &comp.qualifiers[i] {
                Qualifier::GroupBy(Pattern::Var(v), Some(k)) if v.starts_with("%k") => {
                    (v.clone(), k.clone())
                }
                _ => continue,
            };
            let var = Expr::Var(pat);
            let replace = |e: &mut Expr| {
                *e = replace_expr(std::mem::replace(e, Expr::Bool(false)), &key, &var)
            };
            for q in comp.qualifiers.iter_mut().skip(i + 1) {
                match q {
                    Qualifier::Generator(_, e) | Qualifier::Let(_, e) | Qualifier::Guard(e) => {
                        replace(e)
                    }
                    Qualifier::GroupBy(_, Some(e)) => replace(e),
                    Qualifier::GroupBy(_, None) => {}
                }
            }
            replace(&mut comp.head);
        }
    }
}

/// Height of the tree `e`, a leaf being 1 (a qualifier counts as a level
/// under its comprehension).
fn height(e: &Expr) -> usize {
    fn tallest<'a>(es: impl Iterator<Item = &'a Expr>) -> usize {
        es.map(height).max().unwrap_or(0)
    }
    1 + match e {
        Expr::Comprehension(c) => {
            let quals = c.qualifiers.iter().filter_map(Qualifier::expr);
            height(&c.head).max(1 + tallest(quals))
        }
        _ => tallest(e.children()),
    }
}

/// `e` with syntactic occurrences of `target` replaced by `replacement`.
fn replace_expr(e: Expr, target: &Expr, replacement: &Expr) -> Expr {
    if e == *target {
        return replacement.clone();
    }
    match e {
        // Conservative: do not substitute under binders.
        Expr::Comprehension(_) => e,
        _ => e.map_children(&mut |x| replace_expr(x, target, replacement)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig1_row_sums() {
        // V = [ (i, +/m) | ((i,j),m) <- M, group by i ]
        let e = parse_expr("[ (i, +/m) | ((i,j),m) <- M, group by i ]").unwrap();
        let Expr::Comprehension(c) = e else {
            panic!("expected comprehension")
        };
        assert_eq!(c.qualifiers.len(), 2);
        assert!(matches!(
            &c.qualifiers[1],
            Qualifier::GroupBy(Pattern::Var(v), None) if v == "i"
        ));
        let Expr::Tuple(items) = *c.head else {
            panic!("tuple head")
        };
        assert!(matches!(&items[1], Expr::Reduce(Monoid::Sum, _)));
    }

    #[test]
    fn parses_matrix_multiplication_query9() {
        let src = "matrix(n,m)[ ((i,j), +/v) | ((i,k),a) <- M, ((kk,j),b) <- N, \
                    kk == k, let v = a*b, group by (i,j) ]";
        let e = parse_expr(src).unwrap();
        let Expr::Build {
            builder,
            args,
            body,
        } = e
        else {
            panic!("expected builder application")
        };
        assert_eq!(builder, "matrix");
        assert_eq!(args.len(), 2);
        let Expr::Comprehension(c) = *body else {
            panic!()
        };
        assert_eq!(c.qualifiers.len(), 5);
        assert!(matches!(&c.qualifiers[2], Qualifier::Guard(_)));
        assert!(matches!(&c.qualifiers[3], Qualifier::Let(_, _)));
    }

    #[test]
    fn indexing_vs_builder_brackets() {
        let idx = parse_expr("N[i, j]").unwrap();
        assert!(matches!(idx, Expr::Index(_, ref v) if v.len() == 2));
        let build = parse_expr("rdd[ x | x <- L ]").unwrap();
        assert!(matches!(build, Expr::Build { ref builder, .. } if builder == "rdd"));
    }

    #[test]
    fn group_by_with_named_key() {
        let e = parse_expr("[ (k, +/c) | (x,y) <- A, group by k: (x % 2, y) ]").unwrap();
        let Expr::Comprehension(c) = e else { panic!() };
        assert!(matches!(
            &c.qualifiers[1],
            Qualifier::GroupBy(Pattern::Var(k), Some(_)) if k == "k"
        ));
    }

    #[test]
    fn group_by_with_expression_key_substitutes() {
        // The tiled-builder comprehension from §5.
        let e = parse_expr("rdd[ (i/N, w) | (i,v) <- L, let w = (i%N, v), group by i/N ]").unwrap();
        let Expr::Build { body, .. } = e else {
            panic!()
        };
        let Expr::Comprehension(c) = *body else {
            panic!()
        };
        let Qualifier::GroupBy(Pattern::Var(k), Some(_)) = &c.qualifiers[2] else {
            panic!("expected expression group key")
        };
        assert!(k.starts_with("%k"));
        // Head occurrence of i/N replaced by the key variable.
        let Expr::Tuple(items) = &*c.head else {
            panic!()
        };
        assert_eq!(items[0], Expr::Var(k.clone()));
        // A nested comprehension is left untouched.
        let inner = "+/[ i/N | (i,u) <- L ]";
        let src = format!("[ (i/N, {inner}) | (i,v) <- L, group by i/N ]");
        let Expr::Comprehension(c) = parse_expr(&src).unwrap() else {
            panic!()
        };
        let Expr::Tuple(items) = &*c.head else {
            panic!()
        };
        assert!(matches!(&items[0], Expr::Var(k) if k.starts_with("%k")));
        assert_eq!(items[1], parse_expr(inner).unwrap());
    }

    #[test]
    fn ranges_and_guards() {
        let src = "[ ((ii,jj), a) | ((i,j),a) <- M, ii <- (i-1) to (i+1), \
                    jj <- (j-1) to (j+1), ii >= 0, ii < n, jj >= 0, jj < m, group by (ii,jj) ]";
        let e = parse_expr(src).unwrap();
        let Expr::Comprehension(c) = e else { panic!() };
        assert_eq!(c.qualifiers.len(), 8);
        assert!(matches!(
            &c.qualifiers[1],
            Qualifier::Generator(
                Pattern::Var(_),
                Expr::Range {
                    inclusive: true,
                    ..
                }
            )
        ));
    }

    #[test]
    fn reduction_parsing() {
        assert!(matches!(
            parse_expr("+/m").unwrap(),
            Expr::Reduce(Monoid::Sum, _)
        ));
        assert!(matches!(
            parse_expr("&&/[ v <= w | (i,v) <- V, (j,w) <- V, j == i+1 ]").unwrap(),
            Expr::Reduce(Monoid::And, _)
        ));
        assert!(matches!(
            parse_expr("max/xs").unwrap(),
            Expr::Reduce(Monoid::Max, _)
        ));
        // Reduction then division (smoothing head): (+/a)/a.length
        let e = parse_expr("(+/a)/a.length").unwrap();
        assert!(matches!(e, Expr::BinOp(BinOp::Div, _, _)));
    }

    #[test]
    fn division_still_works() {
        let e = parse_expr("a / b").unwrap();
        assert!(matches!(e, Expr::BinOp(BinOp::Div, _, _)));
    }

    #[test]
    fn wildcard_patterns() {
        let e = parse_expr("[ v | (_, v) <- A ]").unwrap();
        let Expr::Comprehension(c) = e else { panic!() };
        assert!(matches!(
            &c.qualifiers[0],
            Qualifier::Generator(Pattern::Tuple(ps), _) if ps[0] == Pattern::Wildcard
        ));
    }

    #[test]
    fn if_expression() {
        let e = parse_expr("if (a > 0) a else 0 - a").unwrap();
        assert!(matches!(e, Expr::If(_, _, _)));
    }

    #[test]
    fn nested_comprehension() {
        let e = parse_expr("[ x | xs <- [ [ y | y <- A ] | z <- B ], x <- xs ]");
        assert!(e.is_ok());
    }

    #[test]
    fn trailing_input_is_rejected() {
        assert!(parse_expr("a b").is_err());
    }

    #[test]
    fn call_and_field() {
        let e = parse_expr("count(e) + xs.length").unwrap();
        assert!(matches!(e, Expr::BinOp(BinOp::Add, _, _)));
    }

    #[test]
    fn sql_example_from_intro() {
        let src = "[ (dname, count(e)) | e <- Employees, d <- Departments, \
                    e == d, group by dname: d ]";
        assert!(parse_expr(src).is_ok());
    }
}
