//! `parse_events` reads files from outside the program (`figures --trace`
//! output, logs handed to tools), so whatever the bytes it must answer
//! `Ok` or `Err` — never panic, never overflow the stack, never go
//! quadratic.

use proptest::prelude::*;
use sparkline::events::{parse_events, to_json};
use sparkline::Event;
use std::time::{Duration, Instant};

/// `to_json` of the unit tests' sample log: one event of every kind.
const VALID_LOG: &str = include_str!("fixtures/event_log.json");

/// Feed arbitrary bytes to the parser the way a tool reading a file would.
fn parse_bytes(bytes: &[u8]) {
    let _ = parse_events(&String::from_utf8_lossy(bytes));
}

#[test]
fn every_truncation_and_bit_flip_of_a_valid_log_is_ok_or_err() {
    let events = parse_events(VALID_LOG).expect("the fixture parses");
    assert_eq!(to_json(&events), VALID_LOG, "and re-serializes to itself");
    let bytes = VALID_LOG.as_bytes();
    for len in 0..bytes.len() {
        assert!(
            parse_events(&VALID_LOG[..len]).is_err(),
            "a log cut at byte {len} parsed"
        );
    }
    let mut flipped = bytes.to_vec();
    for idx in 0..bytes.len() {
        for bit in 0..8 {
            flipped[idx] ^= 1 << bit;
            parse_bytes(&flipped);
            flipped[idx] ^= 1 << bit;
        }
    }
}

/// Escaping audit: every string-carrying field must survive adversarial
/// content — quotes, backslashes, control characters, multi-byte UTF-8,
/// and text that *looks* like JSON or like an escape sequence. (The
/// writer escapes `"`/`\\`/`\n`/`\t`/`\r` symbolically and every other
/// control byte as `\\uXXXX`; the parser is the inverse.)
#[test]
fn adversarial_strings_round_trip() {
    let nasty = [
        "quote\" backslash\\ newline\n tab\t cr\r",
        "\u{0}\u{1}\u{1f} low control bytes",
        "del \u{7f} snowman ☃ clef 𝄞 replacement \u{fffd}",
        "looks-like-escape \\u0041 \\n \\\" \\\\",
        "{\"type\":\"job_start\",\"label\":\"fake\"}",
        "[1,2,3],{},null,true",
        "",
    ];
    for s in nasty {
        let events = vec![
            Event::JobStart {
                job_id: 0,
                label: s.into(),
                at_micros: 0,
            },
            Event::PlanChosen {
                chosen: s.into(),
                auto: false,
                partitions: 1,
                est_shuffle_bytes: 0,
                candidates: vec![(s.into(), u64::MAX)],
                reason: Some(s.into()),
                at_micros: 1,
            },
            Event::StageStart {
                stage_id: 0,
                job_id: None,
                label: s.into(),
                tag: Some(s.into()),
                lineage: Some(s.into()),
                tasks: 1,
                at_micros: 2,
            },
        ];
        let back = parse_events(&to_json(&events))
            .unwrap_or_else(|e| panic!("string {s:?} broke the round trip: {e}"));
        assert_eq!(events, back, "string {s:?} did not round-trip");
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"k\":", "[{\"k\":"] {
        let err = parse_events(&open.repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
    }
    // The log itself is 3 deep; 64 levels still get past the parser and are
    // turned down by the event reader (an array is not an event).
    let nested = format!("{}{}", "[".repeat(64), "]".repeat(64));
    let err = parse_events(&nested).unwrap_err();
    assert!(err.contains("field `type`"), "{err}");
}

#[test]
fn malformed_logs_hostile_numbers_and_escapes_are_errors() {
    let digits = "9".repeat(100_000);
    for bad in [
        "{\"type\":\"job_end\"}".to_string(),
        "[{\"type\":\"mystery\"}]".into(),
        "[".into(),
        "[] trailing".into(),
        format!("[{{\"type\":\"job_end\",\"job_id\":{digits},\"wall_micros\":1}}]"),
        "[{\"type\":\"job_end\",\"job_id\":-1,\"wall_micros\":1}]".into(),
        "[{\"type\":\"job_end\",\"job_id\":1.5,\"wall_micros\":1}]".into(),
        "[\"\\u\"]".into(),
        "[\"\\u12\"]".into(),
        "[\"\\uzzzz\"]".into(),
        "[\"\\u00é\"]".into(),
        "[\"\\".into(),
        "[\"\\x\"]".into(),
        // A straggler-duplicate event from an older runtime: a kind this
        // one no longer has (its tag's `c` spelled as the escape `\u0063`).
        "[{\"type\":\"task_spe\\u0063ulated\",\"stage_id\":2,\"task\":3,\"executor\":0}]".into(),
    ] {
        assert!(parse_events(&bad).is_err(), "{bad:.60} parsed");
    }
    // A lone surrogate is not a `char`; it decodes to U+FFFD instead.
    let log = "[{\"type\":\"job_start\",\"job_id\":0,\"label\":\"\\ud800\",\"at_micros\":0}]";
    assert!(format!("{:?}", parse_events(log).unwrap()).contains('\u{fffd}'));
    // A `plan_chosen` written before it had a `reason` reads as `null`.
    let log = "[{\"type\":\"plan_chosen\",\"chosen\":\"matVec\",\"auto\":true,\"partitions\":4,\
               \"est_shuffle_bytes\":9,\"candidates\":[{\"strategy\":\"matVec\",\"est_bytes\":9}],\
               \"at_micros\":3}]";
    assert_eq!(
        parse_events(log).unwrap(),
        [Event::PlanChosen {
            chosen: "matVec".into(),
            auto: true,
            partitions: 4,
            est_shuffle_bytes: 9,
            candidates: vec![("matVec".into(), 9)],
            reason: None,
            at_micros: 3,
        }]
    );
}

/// Numbers that fit `u64` but not the field's own type used to be cut down
/// with `as`; they are rejected by name now.
#[test]
fn out_of_range_narrow_fields_are_rejected() {
    let too_wide = u64::from(u32::MAX) + 1;
    let log = format!(
        "[{{\"type\":\"task_end\",\"stage_id\":1,\"task\":2,\"attempt\":{too_wide},\
         \"wall_micros\":5,\"ok\":true,\"injected\":false}}]"
    );
    assert_eq!(
        parse_events(&log).unwrap_err(),
        "field `attempt`: out of range"
    );
    assert!(parse_events(&log.replace(&too_wide.to_string(), "4294967295")).is_ok());
}

#[test]
fn a_megabyte_of_valid_log_parses_in_linear_time() {
    let events = parse_events(VALID_LOG).unwrap();
    // A copy inside a longer log is 2 bytes shorter than the log alone: the
    // `[`/`]` framing is written once, and a `,\n` joins the copies.
    let copies = (1 << 20) / (VALID_LOG.len() - 2) + 1;
    let big: Vec<_> = std::iter::repeat_n(events, copies).flatten().collect();
    let json = to_json(&big);
    assert!(json.len() >= 1 << 20);
    let start = Instant::now();
    let back = parse_events(&json).expect("valid log");
    let took = start.elapsed();
    assert_eq!(back, big);
    assert!(took < Duration::from_secs(1), "1 MB took {took:?}");
}

proptest! {
    #[test]
    fn prop_random_bytes_never_panic(
        data in proptest::collection::vec(0u8..=255, 0..512),
        // Salt in inputs that get past the opening bracket and into a string
        // or an event object.
        prefix in 0usize..4,
    ) {
        let mut input = ["", "[", "[\"", "[{\"type\":\"job_end\","][prefix].as_bytes().to_vec();
        input.extend_from_slice(&data);
        parse_bytes(&input);
    }

    /// Splicing a random slice of the valid log over another keeps most of
    /// the structure intact, reaching deeper into the reader than noise does.
    #[test]
    fn prop_spliced_logs_never_panic(from in 0usize..4096, to in 0usize..4096, len in 0usize..64) {
        let bytes = VALID_LOG.as_bytes();
        let (from, to) = (from % bytes.len(), to % bytes.len());
        let mut spliced = bytes.to_vec();
        let len = len.min(bytes.len() - from).min(bytes.len() - to);
        spliced.copy_within(from..from + len, to);
        parse_bytes(&spliced);
    }
}
