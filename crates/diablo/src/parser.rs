//! Parser for the loop language, reusing the comprehension lexer and
//! expression grammar.
//!
//! Loop nesting is capped (`MAX_DEPTH`): a program nested deeper is a parse
//! error, not a stack overflow here or in the passes after parsing.

use crate::ast::{AssignOp, Program, Stmt};
use comp::errors::CompError;
use comp::lexer::{tokenize, Spanned, Token};

/// Deepest loop nest accepted, the comprehension parser's own cap.
const MAX_DEPTH: usize = 64;

/// Parse a loop program.
pub fn parse_program(src: &str) -> Result<Program, CompError> {
    let tokens = tokenize(src)?;
    let mut p = LoopParser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut stmts = Vec::new();
    while p.pos < p.tokens.len() {
        stmts.push(p.stmt()?);
    }
    Ok(Program { stmts })
}

struct LoopParser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Loop bodies open at the cursor.
    depth: usize,
}

impl LoopParser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(0, |s| s.offset)
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

    /// Collect the tokens of one expression (up to a delimiter at depth 0)
    /// and parse them with the comprehension expression parser.
    fn expr_until(&mut self, stops: &[Token]) -> Result<comp::Expr, CompError> {
        let start = self.pos;
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            if depth == 0 && stops.contains(t) {
                break;
            }
            match t {
                Token::LParen | Token::LBracket | Token::LBrace => depth += 1,
                Token::RParen | Token::RBracket | Token::RBrace => depth = depth.saturating_sub(1),
                _ => {}
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(CompError::parse("expected an expression", self.offset()));
        }
        // Re-render the token slice into source for the expression parser.
        // Tokens are whitespace-insensitive, so rendering is lossless.
        let text: String = self.tokens[start..self.pos]
            .iter()
            .map(|s| render(&s.token))
            .collect::<Vec<_>>()
            .join(" ");
        comp::parse_expr(&text)
    }

    fn stmt(&mut self) -> Result<Stmt, CompError> {
        match self.peek() {
            Some(Token::Ident(w)) if w == "for" => {
                self.pos += 1;
                let Some(Token::Ident(var)) = self.peek().cloned() else {
                    return Err(CompError::parse(
                        "expected loop variable after `for`",
                        self.offset(),
                    ));
                };
                self.pos += 1;
                self.expect(&Token::Assign, "`=` in for header")?;
                let lo = self.expr_until(&[Token::Comma])?;
                self.expect(&Token::Comma, "`,` between loop bounds")?;
                let hi = self.expr_until(&[Token::Ident("do".into())])?;
                self.expect(&Token::Ident("do".into()), "`do`")?;
                let body = self.body()?;
                Ok(Stmt::For { var, lo, hi, body })
            }
            Some(Token::Ident(_)) => {
                let Some(Token::Ident(array)) = self.peek().cloned() else {
                    unreachable!()
                };
                self.pos += 1;
                self.expect(&Token::LBracket, "`[` in array assignment")?;
                let mut indices = vec![self.expr_until(&[Token::Comma, Token::RBracket])?];
                while self.eat(&Token::Comma) {
                    indices.push(self.expr_until(&[Token::Comma, Token::RBracket])?);
                }
                self.expect(&Token::RBracket, "`]`")?;
                let op = if self.eat(&Token::Plus) {
                    self.expect(&Token::Assign, "`=` of `+=`")?;
                    AssignOp::AddAssign
                } else if self.eat(&Token::Star) {
                    self.expect(&Token::Assign, "`=` of `*=`")?;
                    AssignOp::MulAssign
                } else {
                    self.expect(&Token::Assign, "`=` or `+=`")?;
                    AssignOp::Set
                };
                let rhs = self.expr_until(&[Token::Semi])?;
                self.expect(&Token::Semi, "`;` after assignment")?;
                Ok(Stmt::Assign {
                    array,
                    indices,
                    op,
                    rhs,
                })
            }
            other => Err(CompError::parse(
                format!("expected a statement, found {other:?}"),
                self.offset(),
            )),
        }
    }

    /// A loop body — a `{ ... }` block or one statement — one nesting level
    /// deeper, or an error past [`MAX_DEPTH`].
    fn body(&mut self) -> Result<Vec<Stmt>, CompError> {
        if self.depth == MAX_DEPTH {
            return Err(CompError::parse(
                format!("loops nested deeper than {MAX_DEPTH} levels"),
                self.offset(),
            ));
        }
        self.depth += 1;
        let body = if self.eat(&Token::LBrace) {
            let mut body = Vec::new();
            while !self.eat(&Token::RBrace) {
                body.push(self.stmt()?);
            }
            body
        } else {
            vec![self.stmt()?]
        };
        self.depth -= 1;
        Ok(body)
    }
}

/// Render one token back to source text.
fn render(t: &Token) -> String {
    match t {
        Token::Int(n) => n.to_string(),
        Token::Float(x) => format!("{x:?}"),
        Token::Str(s) => format!("\"{s}\""),
        Token::Ident(w) => w.clone(),
        Token::Let => "let".into(),
        Token::Group => "group".into(),
        Token::By => "by".into(),
        Token::Until => "until".into(),
        Token::To => "to".into(),
        Token::If => "if".into(),
        Token::Else => "else".into(),
        Token::True => "true".into(),
        Token::False => "false".into(),
        Token::LBracket => "[".into(),
        Token::RBracket => "]".into(),
        Token::LParen => "(".into(),
        Token::RParen => ")".into(),
        Token::Comma => ",".into(),
        Token::Bar => "|".into(),
        Token::Arrow => "<-".into(),
        Token::Assign => "=".into(),
        Token::Colon => ":".into(),
        Token::Dot => ".".into(),
        Token::Plus => "+".into(),
        Token::Minus => "-".into(),
        Token::Star => "*".into(),
        Token::Slash => "/".into(),
        Token::Percent => "%".into(),
        Token::EqEq => "==".into(),
        Token::NotEq => "!=".into(),
        Token::Lt => "<".into(),
        Token::Le => "<=".into(),
        Token::Gt => ">".into(),
        Token::Ge => ">=".into(),
        Token::AndAnd => "&&".into(),
        Token::OrOr => "||".into(),
        Token::PlusPlus => "++".into(),
        Token::Not => "!".into(),
        Token::Underscore => "_".into(),
        Token::Semi => ";".into(),
        Token::LBrace => "{".into(),
        Token::RBrace => "}".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comp::ast::Expr;

    #[test]
    fn parses_matmul_nest() {
        let src = "for i = 0, n-1 do for j = 0, n-1 do for k = 0, n-1 do \
                   C[i, j] += A[i, k] * B[k, j];";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.stmts.len(), 1);
        let (loops, assign) = prog.stmts[0].as_perfect_nest().unwrap();
        assert_eq!(
            loops.iter().map(|(v, _, _)| v.as_str()).collect::<Vec<_>>(),
            vec!["i", "j", "k"]
        );
        let Stmt::Assign {
            array,
            indices,
            op,
            rhs,
        } = assign
        else {
            panic!()
        };
        assert_eq!(array, "C");
        assert_eq!(indices.len(), 2);
        assert_eq!(*op, AssignOp::AddAssign);
        assert!(matches!(rhs, Expr::BinOp(comp::BinOp::Mul, _, _)));
    }

    #[test]
    fn parses_braced_blocks_and_sequences() {
        let src = "for i = 0, 9 do { V[i] = 0.0; W[i] = 1.0; } V[0] = 5.0;";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.stmts.len(), 2);
        let Stmt::For { body, .. } = &prog.stmts[0] else {
            panic!()
        };
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn loop_bounds_are_expressions() {
        let src = "for i = 0, 2*n - 1 do V[i] = 0.0;";
        let prog = parse_program(src).unwrap();
        let Stmt::For { hi, .. } = &prog.stmts[0] else {
            panic!()
        };
        assert!(matches!(hi, Expr::BinOp(comp::BinOp::Sub, _, _)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_program("for = 0").is_err());
        assert!(parse_program("V[0] 5;").is_err());
        assert!(parse_program("V[0] = ;").is_err());
    }

    #[test]
    fn star_assign() {
        let prog = parse_program("P[i] *= x;").unwrap();
        let Stmt::Assign { op, .. } = &prog.stmts[0] else {
            panic!()
        };
        assert_eq!(*op, AssignOp::MulAssign);
    }
}
