//! `parse_program` reads loop source a caller hands it, so whatever the bytes
//! it must answer `Ok` or `Err` — never panic, never overflow the stack.

use diablo::{parse_program, translate};
use proptest::prelude::*;

/// The loop programs of `tests/diablo_pipeline.rs` and
/// `examples/loops_to_plans.rs`.
const PROGRAMS: [&str; 5] = [
    "for i = 0, n-1 do for j = 0, n-1 do for k = 0, n-1 do \
     C[i, j] += A[i, k] * B[k, j];",
    "for i = 0, n-1 do for j = 0, m-1 do V[i] += M[i, j];",
    "for i = 0, n-1 do for j = 0, n-1 do C[i, j] = A[i, j] + 2.0 * B[i, j];",
    "for i = 0, n-1 do V[i] = 0.0; \
     for i = 0, n-1 do for j = 0, n-1 do V[i] += M[i, j];",
    "for i = 0, n-1 do for j = 0, m-1 do V[j] += M[i, j];",
];

#[test]
fn the_example_programs_parse_and_translate() {
    for src in PROGRAMS {
        let program = parse_program(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        assert!(translate(&program).is_ok(), "{src}");
    }
}

#[test]
fn every_truncation_and_byte_flip_of_an_example_is_ok_or_err() {
    for src in PROGRAMS {
        let bytes = src.as_bytes();
        for len in 0..bytes.len() {
            let _ = parse_program(&String::from_utf8_lossy(&bytes[..len]));
        }
        let mut flipped = bytes.to_vec();
        for idx in 0..bytes.len() {
            for bit in 0..8 {
                flipped[idx] ^= 1 << bit;
                let _ = parse_program(&String::from_utf8_lossy(&flipped));
                flipped[idx] ^= 1 << bit;
            }
        }
    }
}

/// `d` nested `for` loops around one assignment, with or without braces.
fn nest(d: usize, braced: bool) -> String {
    if braced {
        format!(
            "{}V[i] = 1.0;{}",
            "for i = 0, 1 do { ".repeat(d),
            " }".repeat(d)
        )
    } else {
        format!("{}V[i] = 1.0;", "for i = 0, 1 do ".repeat(d))
    }
}

/// Run `f` on a thread with a 2 MiB stack, the default for spawned threads.
fn on_small_stack<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic, no stack overflow")
}

#[test]
fn a_hundred_thousand_nested_loops_are_an_error() {
    for braced in [false, true] {
        let src = nest(100_000, braced);
        let err = on_small_stack(move || parse_program(&src).map(|_| ()))
            .expect_err("a 100 000-deep nest must be refused");
        assert!(err.to_string().contains("nested deeper"), "{err}");
    }
}

#[test]
fn the_deepest_accepted_nest_parses_and_translates_on_a_2_mib_stack() {
    for braced in [false, true] {
        let deepest = (1..)
            .take_while(|&d| parse_program(&nest(d, braced)).is_ok())
            .last()
            .expect("one loop parses");
        assert!(deepest >= 16, "only {deepest} levels parse");
        let src = nest(deepest, braced);
        let outputs = on_small_stack(move || {
            let program = parse_program(&src)?;
            translate(&program).map(|t| t.outputs.len())
        });
        assert_eq!(outputs.expect("translates"), 1);
    }
}

proptest! {
    #[test]
    fn random_bytes_are_ok_or_err(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = parse_program(&String::from_utf8_lossy(&bytes));
    }

    /// Random strings over the loop language's own tokens reach far deeper
    /// into the grammar than raw bytes do.
    #[test]
    fn random_token_soup_is_ok_or_err(picks in proptest::collection::vec(0usize..32, 0..200)) {
        let tokens: Vec<&str> = TOKENS.split_whitespace().collect();
        let src: Vec<&str> = picks.iter().map(|&k| tokens[k % tokens.len()]).collect();
        let _ = parse_program(&src.join(" "));
    }
}

/// The loop language's tokens, space-separated.
const TOKENS: &str = "for do = , { } [ ] ( ) ; += *= + - * / i j V A 0 1 n-1 2.0";
