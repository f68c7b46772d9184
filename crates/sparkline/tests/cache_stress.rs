//! Cache-stress and fault-injection harness for the block manager.
//!
//! Deterministic end-to-end proofs that memory-budgeted caching never
//! changes results: under thrashing budgets (every pass evicts and
//! recomputes from lineage), with injected task failures retried mid-read,
//! and with both at once. The oracle is always the same pipeline evaluated
//! without `persist()`.

use sparkline::wire::encoded_len;
use sparkline::{ChaosPlan, Context, Dataset, Event, JobProfile, CHAOS_ENV, STORAGE_BUDGET_ENV};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The reference pipeline: a shuffle (so lineage recovery crosses a stage
/// boundary) followed by a narrow map whose cost we can count.
fn pipeline(c: &Context, calls: &Arc<AtomicUsize>) -> Dataset<(i64, i64)> {
    let calls = calls.clone();
    c.parallelize((0..240i64).map(|i| (i % 12, i)).collect(), 6)
        .reduce_by_key(6, |a, b| a + b)
        .map(move |(k, v)| {
            calls.fetch_add(1, Ordering::SeqCst);
            (k, v * 2 + k)
        })
}

/// Storage budget holding exactly `n` of the pipeline's blocks: each of the
/// six partitions persists two `(i64, i64)` records, accounted at their
/// framed length.
fn blocks(n: usize) -> usize {
    n * encoded_len(&vec![(0i64, 0i64); 2]) as usize
}

fn sorted(mut v: Vec<(i64, i64)>) -> Vec<(i64, i64)> {
    v.sort_unstable();
    v
}

/// Injected failures per pass: every third launch fails, so the six
/// partitions every pass reads in a row take two.
const PASS_FAILURES: usize = 2;

/// A traced four-worker context over `budget` bytes whose every third task
/// launch fails through `passes` passes, on top of any `SPARKLINE_CHAOS`
/// schedule (an explicit plan replaces it, so this one extends it). The
/// limit, three times what the passes need, outlasts the first pass's map
/// stage and the retries' own launches; the attempt budget stays above it
/// and a seeded schedule's own two failures, so no task can exhaust it.
fn failing(budget: usize, passes: u32) -> Context {
    let seed = std::env::var(CHAOS_ENV).unwrap_or_default();
    let limit = 3 * PASS_FAILURES as u32 * passes;
    let plan = ChaosPlan::from_env(&seed, 4)
        .unwrap_or_default()
        .with_task_failures(3, limit);
    let c = Context::builder()
        .workers(4)
        .max_task_attempts(limit + 3)
        .storage_memory(budget)
        .chaos(plan)
        .build();
    c.trace();
    c
}

/// Task failures injected since the last call, and their profile.
fn take_injected(c: &Context) -> (usize, JobProfile) {
    let events = c.take_events();
    let injected = events
        .iter()
        .filter(|e| matches!(e, Event::TaskEnd { injected: true, .. }))
        .count();
    (injected, JobProfile::from_events(&events))
}

#[test]
fn persist_matches_uncached_under_thrashing_budget() {
    // From nothing resident (every read recomputes) through one and three
    // blocks resident to everything: results identical.
    let calls = Arc::new(AtomicUsize::new(0));
    let c = Context::builder().workers(4).build();
    let oracle = sorted(pipeline(&c, &calls).collect());

    for budget in [0usize, blocks(1), blocks(3), usize::MAX] {
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Context::builder().workers(4).storage_memory(budget).build();
        let d = pipeline(&c, &calls).persist();
        for pass in 0..3 {
            assert_eq!(
                sorted(d.collect()),
                oracle,
                "budget {budget}, pass {pass} diverged"
            );
        }
    }
}

#[test]
fn task_retries_do_not_corrupt_cache() {
    let calls = Arc::new(AtomicUsize::new(0));
    let c = Context::builder().workers(4).build();
    let oracle = sorted(pipeline(&c, &calls).collect());

    let calls = Arc::new(AtomicUsize::new(0));
    let c = failing(blocks(3), 4);
    let d = pipeline(&c, &calls).persist();
    for round in 0..4 {
        assert_eq!(sorted(d.collect()), oracle, "round {round} diverged");
        let (injected, _) = take_injected(&c);
        assert!(injected >= PASS_FAILURES, "round {round} saw {injected}");
    }
}

#[test]
fn eviction_plus_failures_still_converges() {
    // The acceptance scenario: a thrashing budget AND >= 2 injected
    // failures per run, across several runs — zero divergence allowed.
    let calls = Arc::new(AtomicUsize::new(0));
    let c = Context::builder().workers(4).build();
    let oracle = sorted(pipeline(&c, &calls).collect());

    let calls = Arc::new(AtomicUsize::new(0));
    let c = failing(blocks(2), 5);
    let d = pipeline(&c, &calls).persist();
    let (mut recomputes, mut failed) = (0, 0);
    for run in 0..5 {
        assert_eq!(sorted(d.collect()), oracle, "run {run} diverged");
        let (injected, profile) = take_injected(&c);
        assert!(injected >= PASS_FAILURES, "run {run} saw {injected}");
        recomputes += profile.cache_totals().recomputes;
        failed += profile.total_failed_attempts();
    }
    let status = c.storage_status();
    assert!(status.evictions > 0, "budget must evict: {status:?}");
    assert!(recomputes > 0, "evicted blocks must recompute from lineage");
    assert!(failed >= 2, "injected failures must surface as retries");
}

#[test]
fn unpersist_mid_iteration_is_safe() {
    let calls = Arc::new(AtomicUsize::new(0));
    let c = Context::builder().workers(4).build();
    let oracle = sorted(pipeline(&c, &calls).collect());

    let calls = Arc::new(AtomicUsize::new(0));
    let c = Context::builder()
        .workers(4)
        .storage_memory(1 << 20)
        .build();
    let d = pipeline(&c, &calls).persist();
    for round in 0..4 {
        assert_eq!(sorted(d.collect()), oracle, "round {round}");
        if round % 2 == 0 {
            assert_eq!(d.unpersist(), 6);
        }
    }
    // Rounds 0, 1 and 3 compute (the preceding round unpersisted or was the
    // first); round 2 is served from cache: 3 computing passes of 12 records.
    assert_eq!(calls.load(Ordering::SeqCst), 3 * 12);
}

#[test]
fn env_var_budget_knob_is_honored() {
    // The CI tiny-budget job drives the suite through this knob; prove the
    // plumbing works without mutating the process environment (which would
    // race other tests): an explicit builder budget must win over the env
    // var, and the env var name must be the documented one.
    assert_eq!(STORAGE_BUDGET_ENV, "SPARKLINE_STORAGE_BUDGET");
    let c = Context::builder().workers(2).storage_memory(777).build();
    assert_eq!(c.storage_status().budget, Some(777));
}

#[test]
fn cache_events_describe_the_stress_run() {
    let c = Context::builder()
        .workers(2)
        .storage_memory(blocks(1))
        .build();
    c.trace();
    let calls = Arc::new(AtomicUsize::new(0));
    let d = pipeline(&c, &calls).persist();
    d.collect();
    d.collect();
    let events = c.take_events();
    let misses = events
        .iter()
        .filter(|e| matches!(e, Event::CacheMiss { .. }))
        .count();
    let recomputes = events
        .iter()
        .filter(|e| matches!(e, Event::CacheRecompute { .. }))
        .count();
    let evicts = events
        .iter()
        .filter(|e| matches!(e, Event::CacheEvict { .. }))
        .count();
    assert_eq!(misses, 6, "one first-computation per partition");
    assert!(recomputes > 0, "thrashing must recompute");
    assert!(evicts > 0, "thrashing must evict");
    // Every cache event names the same persisted dataset.
    let ids: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::CacheHit { dataset, .. }
            | Event::CacheMiss { dataset, .. }
            | Event::CacheEvict { dataset, .. }
            | Event::CacheRecompute { dataset, .. } => Some(*dataset),
            _ => None,
        })
        .collect();
    assert!(!ids.is_empty());
    assert!(ids.windows(2).all(|w| w[0] == w[1]));
}
