//! `parse_expr` reads query text from the service's sockets, so whatever
//! the bytes it must answer `Ok` or `Err` — never panic, never overflow the
//! stack, never backtrack exponentially.

use comp::parse_expr;
use proptest::prelude::*;

/// The paper's example queries (§1–§6).
const QUERIES: [&str; 9] = [
    "tiled(n,m)[ ((i,j), a+b) | ((i,j),a) <- M, ((ii,jj),b) <- N, ii == i, jj == j ]",
    "tiled(n,m)[ ((i,j), +/v) | ((i,k),a) <- M, ((kk,j),b) <- N, kk == k, \
     let v = a*b, group by (i,j) ]",
    "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- M, group by i ]",
    "tiled(n,m)[ ((ii,jj), (+/a)/a.length) | ((i,j),a) <- M, ii <- (i-1) to (i+1), \
     jj <- (j-1) to (j+1), ii >= 0, ii < n, jj >= 0, jj < m, group by (ii,jj) ]",
    "tiled(n,m)[ (((i+1)%n, j), v) | ((i,j),v) <- X ]",
    "tiled(n,m)[ ((i,j), p + gamma*(2.0*e - lambda*p)) | ((i,j),p) <- P, \
     ((ii,jj),e) <- E, ii == i, jj == j ]",
    "[ (dname, count(e)) | e <- Employees, d <- Departments, e == d, group by dname: d ]",
    "&&/[ v <= w | (i,v) <- V, (j,w) <- V, j == i+1 ]",
    "rdd[ (i/N, w) | (i,v) <- L, let w = (i%N, v), group by i/N ]",
];

#[test]
fn the_example_queries_parse() {
    for q in QUERIES {
        assert!(parse_expr(q).is_ok(), "{q}");
    }
}

#[test]
fn every_truncation_and_byte_flip_of_an_example_is_ok_or_err() {
    for q in QUERIES {
        let bytes = q.as_bytes();
        for len in 0..bytes.len() {
            let _ = parse_expr(&String::from_utf8_lossy(&bytes[..len]));
        }
        let mut flipped = bytes.to_vec();
        for idx in 0..bytes.len() {
            for bit in 0..8 {
                flipped[idx] ^= 1 << bit;
                let _ = parse_expr(&String::from_utf8_lossy(&flipped));
                flipped[idx] ^= 1 << bit;
            }
        }
    }
}

#[test]
fn a_hundred_thousand_levels_of_nesting_are_an_error() {
    let d = 100_000;
    let nestings = [
        format!("{}a{}", "(".repeat(d), ")".repeat(d)),
        format!("{}a{}", "[".repeat(d), "]".repeat(d)),
        format!("{}a{}", "x[".repeat(d), "]".repeat(d)),
        format!("{}a", "- ".repeat(d)),
        format!("{}a", "+/".repeat(d)),
        format!("{}a{}", "if (a) ".repeat(d), " else a".repeat(d)),
        format!("{}a{}", "[ ".repeat(d), " | x <- A ]".repeat(d)),
        format!("[ a | {}x{} <- A ]", "(".repeat(d), ")".repeat(d)),
        vec!["a"; d].join(" + "),
        format!("a{}", ".length".repeat(d)),
        format!("a{}", "[0]".repeat(d)),
    ];
    for src in nestings {
        let err = parse_expr(&src).expect_err(&src[..40]);
        assert!(err.to_string().contains("nested deeper"), "{err}");
    }
}

proptest! {
    #[test]
    fn random_bytes_are_ok_or_err(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = parse_expr(&String::from_utf8_lossy(&bytes));
    }

    /// Random strings over the language's own tokens reach far deeper into
    /// the grammar than raw bytes do.
    #[test]
    fn random_token_soup_is_ok_or_err(picks in proptest::collection::vec(0usize..32, 0..200)) {
        let tokens: Vec<&str> = TOKENS.split_whitespace().collect();
        let src: Vec<&str> = picks.iter().map(|&k| tokens[k % tokens.len()]).collect();
        let _ = parse_expr(&src.join(" "));
    }
}

/// The language's tokens, space-separated.
const TOKENS: &str = "( ) [ ] | , <- = == < + - * / % && || +/ if else let group by : to \
                      a i x 1 2.5 .length tiled(n,n)";
