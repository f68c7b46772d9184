//! End-to-end check of `figures -- b quick --trace`: the harness must write
//! a JSON event log that parses back into structured events.

use sparkline::events::{parse_events, to_json};
use sparkline::{Context, Event};

#[test]
fn figures_trace_writes_valid_json() {
    let exe = env!("CARGO_BIN_EXE_figures");
    let dir = std::env::temp_dir().join(format!("figures-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = std::process::Command::new(exe)
        .args(["b", "quick", "--trace"])
        .current_dir(&dir)
        .output()
        .expect("run figures");
    assert!(
        out.status.success(),
        "figures failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = dir.join("target/figures_trace_b.json");
    let json = std::fs::read_to_string(&path).expect("trace file written");
    let events = parse_events(&json).expect("trace file is valid event-log JSON");
    assert!(!events.is_empty(), "trace should contain events");
    // A traced multiplication run must include stage boundaries and shuffle
    // traffic from the contraction plans.
    assert!(events.iter().any(|e| matches!(e, Event::StageStart { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::ShuffleWrite { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::ShuffleRead { .. })));
    std::fs::remove_dir_all(&dir).ok();
}

/// An argument `figures` does not know (`d`, a typo of `--trace`) must not
/// fall through to every panel at full size.
#[test]
fn figures_rejects_an_unknown_argument_with_usage() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("d")
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no panel may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`d`") && stderr.contains("usage:"),
        "{stderr}"
    );
}

#[test]
fn figures_ablations_quick_prints_the_three_tables() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["ablations", "quick"])
        .output()
        .expect("run figures");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for row in ["reduce_by_key", "group_by_key", "coo_join_rbk", "tiled_gbj"] {
        assert!(stdout.contains(row), "missing `{row}`:\n{stdout}");
    }
    assert_eq!(stdout.matches("=== Ablation").count(), 3, "{stdout}");
}

/// Cache events from a real persisted run survive the hand-rolled JSON
/// writer/parser round trip, exactly.
#[test]
fn cache_events_round_trip_through_event_log_json() {
    let c = Context::builder()
        .workers(2)
        .storage_memory(1 << 20)
        .build();
    c.trace();
    let d = c
        .parallelize((0..40i64).map(|i| (i % 4, i)).collect(), 4)
        .reduce_by_key(4, |a, b| a + b)
        .persist();
    d.collect();
    d.collect();
    let events = c.take_events();
    assert!(events.iter().any(|e| matches!(e, Event::CacheMiss { .. })));
    assert!(events.iter().any(|e| matches!(e, Event::CacheHit { .. })));
    let parsed = parse_events(&to_json(&events)).expect("cache events serialize as valid JSON");
    assert_eq!(parsed, events, "round trip must be lossless");
}
