//! Tokenizer for the comprehension language.

use crate::errors::CompError;

/// Lexical tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    Int(i64),
    Float(f64),
    Str(String),
    Ident(String),
    // Keywords
    Let,
    Group,
    By,
    Until,
    To,
    If,
    Else,
    True,
    False,
    // Punctuation and operators
    LBracket,
    RBracket,
    LParen,
    RParen,
    Comma,
    Bar,
    Arrow, // <-
    Assign,
    Colon,
    Dot,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    PlusPlus,
    Not,
    Underscore,
    Semi,
    LBrace,
    RBrace,
}

/// A token with its byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    pub token: Token,
    pub offset: usize,
}

/// Tokenize `src` into a vector of spanned tokens.
pub fn tokenize(src: &str) -> Result<Vec<Spanned>, CompError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '0'..='9' => {
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let mut is_float = false;
                if j < bytes.len()
                    && bytes[j] == b'.'
                    && j + 1 < bytes.len()
                    && bytes[j + 1].is_ascii_digit()
                {
                    is_float = true;
                    j += 1;
                    while j < bytes.len() && bytes[j].is_ascii_digit() {
                        j += 1;
                    }
                }
                if j < bytes.len() && (bytes[j] == b'e' || bytes[j] == b'E') {
                    let mut k = j + 1;
                    if k < bytes.len() && (bytes[k] == b'+' || bytes[k] == b'-') {
                        k += 1;
                    }
                    if k < bytes.len() && bytes[k].is_ascii_digit() {
                        is_float = true;
                        j = k;
                        while j < bytes.len() && bytes[j].is_ascii_digit() {
                            j += 1;
                        }
                    }
                }
                let text = &src[i..j];
                let token = if is_float {
                    Token::Float(text.parse().map_err(|_| {
                        CompError::lex(format!("invalid float literal `{text}`"), start)
                    })?)
                } else {
                    Token::Int(text.parse().map_err(|_| {
                        CompError::lex(format!("invalid integer literal `{text}`"), start)
                    })?)
                };
                out.push(Spanned {
                    token,
                    offset: start,
                });
                i = j;
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                let word = &src[i..j];
                let token = match word {
                    "let" => Token::Let,
                    "group" => Token::Group,
                    "by" => Token::By,
                    "until" => Token::Until,
                    "to" => Token::To,
                    "if" => Token::If,
                    "else" => Token::Else,
                    "true" => Token::True,
                    "false" => Token::False,
                    "_" => Token::Underscore,
                    _ => Token::Ident(word.to_string()),
                };
                out.push(Spanned {
                    token,
                    offset: start,
                });
                i = j;
            }
            '"' => {
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(CompError::lex("unterminated string literal", start));
                }
                out.push(Spanned {
                    token: Token::Str(src[i + 1..j].to_string()),
                    offset: start,
                });
                i = j + 1;
            }
            _ => {
                // Bytes, not `str`: the next byte may start a multi-byte char.
                let (token, len) = match bytes.get(i..i + 2).unwrap_or_default() {
                    b"<-" => (Token::Arrow, 2),
                    b"==" => (Token::EqEq, 2),
                    b"!=" => (Token::NotEq, 2),
                    b"<=" => (Token::Le, 2),
                    b">=" => (Token::Ge, 2),
                    b"&&" => (Token::AndAnd, 2),
                    b"||" => (Token::OrOr, 2),
                    b"++" => (Token::PlusPlus, 2),
                    _ => match c {
                        '[' => (Token::LBracket, 1),
                        ']' => (Token::RBracket, 1),
                        '(' => (Token::LParen, 1),
                        ')' => (Token::RParen, 1),
                        ',' => (Token::Comma, 1),
                        '|' => (Token::Bar, 1),
                        '=' => (Token::Assign, 1),
                        ':' => (Token::Colon, 1),
                        '.' => (Token::Dot, 1),
                        '+' => (Token::Plus, 1),
                        '-' => (Token::Minus, 1),
                        '*' => (Token::Star, 1),
                        '/' => (Token::Slash, 1),
                        '%' => (Token::Percent, 1),
                        '<' => (Token::Lt, 1),
                        '>' => (Token::Gt, 1),
                        '!' => (Token::Not, 1),
                        ';' => (Token::Semi, 1),
                        '{' => (Token::LBrace, 1),
                        '}' => (Token::RBrace, 1),
                        _ => {
                            let other = src[i..].chars().next().unwrap_or(c);
                            return Err(CompError::lex(
                                format!("unexpected character `{other}`"),
                                start,
                            ));
                        }
                    },
                };
                out.push(Spanned {
                    token,
                    offset: start,
                });
                i += len;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn comprehension_tokens() {
        assert_eq!(
            toks("[ (i, m) | ((i,j),m) <- M ]"),
            vec![
                Token::LBracket,
                Token::LParen,
                Token::Ident("i".into()),
                Token::Comma,
                Token::Ident("m".into()),
                Token::RParen,
                Token::Bar,
                Token::LParen,
                Token::LParen,
                Token::Ident("i".into()),
                Token::Comma,
                Token::Ident("j".into()),
                Token::RParen,
                Token::Comma,
                Token::Ident("m".into()),
                Token::RParen,
                Token::Arrow,
                Token::Ident("M".into()),
                Token::RBracket,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("1 2.5 1e3 7"),
            vec![
                Token::Int(1),
                Token::Float(2.5),
                Token::Float(1000.0),
                Token::Int(7)
            ]
        );
    }

    #[test]
    fn keywords_vs_idents() {
        assert_eq!(
            toks("group by iguana until"),
            vec![
                Token::Group,
                Token::By,
                Token::Ident("iguana".into()),
                Token::Until
            ]
        );
    }

    #[test]
    fn reduction_tokens() {
        assert_eq!(
            toks("+/m && &&/x"),
            vec![
                Token::Plus,
                Token::Slash,
                Token::Ident("m".into()),
                Token::AndAnd,
                Token::AndAnd,
                Token::Slash,
                Token::Ident("x".into()),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(toks("1 // comment\n 2"), vec![Token::Int(1), Token::Int(2)]);
    }

    #[test]
    fn underscore_and_prefixed_idents() {
        assert_eq!(
            toks("_ _a a_b"),
            vec![
                Token::Underscore,
                Token::Ident("_a".into()),
                Token::Ident("a_b".into())
            ]
        );
    }

    #[test]
    fn rejects_unknown_character() {
        assert!(tokenize("a @ b").is_err());
    }

    #[test]
    fn statement_tokens() {
        assert_eq!(
            toks("{ a; }"),
            vec![
                Token::LBrace,
                Token::Ident("a".into()),
                Token::Semi,
                Token::RBrace
            ]
        );
    }

    #[test]
    fn string_literal() {
        assert_eq!(toks("\"abc\""), vec![Token::Str("abc".into())]);
        assert!(tokenize("\"open").is_err());
    }

    #[test]
    fn offsets_are_byte_positions() {
        let spanned = tokenize("ab <- cd").unwrap();
        assert_eq!(spanned[1].offset, 3);
        assert_eq!(spanned[2].offset, 6);
    }
}
