//! End-to-end check of `figures -- b quick --trace`: the harness must write
//! a JSON event log, one event object per line.

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
    // `[`, then one `  {"type":"<tag>",...}` object per line (comma-separated),
    // then `]`.
    let lines: Vec<&str> = json.lines().collect();
    assert_eq!(lines.first(), Some(&"["), "log opens with `[`");
    assert_eq!(lines.last(), Some(&"]"), "log closes with `]`");
    let objects = &lines[1..lines.len() - 1];
    assert!(!objects.is_empty(), "trace should contain events");
    let mut tags = Vec::new();
    for (i, line) in objects.iter().enumerate() {
        let object = if i + 1 < objects.len() {
            line.strip_suffix(',')
        } else {
            Some(*line)
        };
        let tag = object
            .and_then(|o| o.strip_prefix("  {\"type\":\""))
            .filter(|o| o.ends_with('}'))
            .and_then(|o| o.split_once("\","))
            .map(|(tag, _)| tag);
        tags.push(tag.unwrap_or_else(|| panic!("line {} is not one event object: {line}", i + 2)));
    }
    // A traced multiplication run must include stage boundaries and shuffle
    // traffic from the contraction plans.
    for tag in ["stage_start", "shuffle_write", "shuffle_read"] {
        assert!(tags.contains(&tag), "no `{tag}` event");
    }
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

/// A persisted dataset collected twice emits both cache-miss and cache-hit
/// events.
#[test]
fn persisted_run_emits_cache_miss_and_hit_events() {
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
}
