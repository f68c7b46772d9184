//! Runtime (sparkline) integration: multi-stage DAGs, caching in iterative
//! jobs, traced shuffle detail, and partitioner behaviour at scale.

mod common;

use sac_repro::sparkline::{Context, KeyPartitioner};

fn ctx() -> Context {
    Context::builder().workers(4).build()
}

#[test]
fn multi_stage_pipeline_word_count_style() {
    let c = ctx();
    let words: Vec<String> = "the quick brown fox jumps over the lazy dog the fox"
        .split_whitespace()
        .map(str::to_string)
        .collect();
    let counts = c
        .parallelize(words, 3)
        .map(|w| (w, 1usize))
        .reduce_by_key(4, |a, b| a + b)
        .filter(|(_, n)| *n > 1)
        .collect_map();
    assert_eq!(counts.len(), 2);
    assert_eq!(counts["the"], 3);
    assert_eq!(counts["fox"], 2);
}

#[test]
fn chained_shuffles_compose() {
    let c = ctx();
    // Two shuffle rounds: sum per key, then histogram the sums.
    let data: Vec<(i64, i64)> = (0..1000).map(|i| (i % 50, 1)).collect();
    let out = c
        .parallelize(data, 8)
        .reduce_by_key(4, |a, b| a + b) // every key sums to 20
        .map(|(_, sum)| (sum, 1i64))
        .reduce_by_key(2, |a, b| a + b)
        .collect();
    assert_eq!(out, vec![(20, 50)]);
}

#[test]
fn caching_prevents_shuffle_rerun_in_iterations() {
    let c = ctx();
    let base = c
        .parallelize((0..100i64).map(|i| (i % 10, i)).collect(), 4)
        .reduce_by_key(4, |a, b| a + b)
        .persist();
    base.count(); // materialize
    c.trace();
    for _ in 0..5 {
        // Iterative narrow work over the cached shuffle output.
        base.map_values(|v| v * 2).count();
    }
    let profile = c.take_profile();
    assert_eq!(profile.jobs.len(), 5);
    for job in &profile.jobs {
        assert_eq!(
            profile.shuffle_stages_of_job(job.job_id),
            0,
            "iteration job {} must reuse the cache",
            job.job_id
        );
    }
}

#[test]
fn uncached_shuffle_is_still_reused_via_materialization() {
    // Spark keeps shuffle files; our ShuffleOp memoizes its output, so even
    // without persist() the shuffle runs once per op instance.
    let c = ctx();
    let d = c
        .parallelize((0..100i64).map(|i| (i % 10, i)).collect(), 4)
        .reduce_by_key(4, |a, b| a + b);
    c.trace();
    d.count();
    d.count();
    let profile = c.take_profile();
    assert_eq!(profile.jobs.len(), 2);
    let first = profile.jobs[0].job_id;
    let second = profile.jobs[1].job_id;
    assert_eq!(
        profile.shuffle_stages_of_job(first),
        1,
        "first count runs the shuffle"
    );
    assert_eq!(
        profile.shuffle_stages_of_job(second),
        0,
        "same op instance reuses its shuffle"
    );
}

#[test]
fn shuffle_details_expose_operator_names_and_volumes() {
    // chaos_off: a resubmitted map stage would write its records twice.
    let c = Context::builder().workers(4).chaos_off().build();
    let d = c.parallelize((0..100i64).map(|i| (i % 5, i)).collect(), 4);
    c.trace();
    d.reduce_by_key(2, |a, b| a + b).count();
    d.group_by_key(2).count();
    let profile = c.take_profile();
    let map_stage = |op: &str| {
        let mut stages = profile.stages.iter();
        stages
            .find(|s| s.is_shuffle_write() && s.operator.as_deref() == Some(op))
            .unwrap()
    };
    let (rbk, gbk) = (map_stage("reduceByKey"), map_stage("groupByKey"));
    assert_eq!(rbk.operator_stats("source").unwrap().rows, 100);
    assert!(
        rbk.shuffle_records_written <= 20,
        "combiner must shrink the stream"
    );
    assert_eq!(
        gbk.shuffle_records_written, 100,
        "groupByKey writes every record"
    );
    assert_eq!(rbk.tasks, 4);
    let reducers = profile.stages.iter().find(|s| s.shuffle_bytes_read > 0);
    assert_eq!(reducers.unwrap().tasks, 2);
}

#[test]
fn join_handles_skewed_keys() {
    let c = ctx();
    // One hot key with 100 matches on each side (10k output pairs).
    let left: Vec<(i64, i64)> = (0..100).map(|i| (0, i)).chain([(1, -1)]).collect();
    let right: Vec<(i64, i64)> = (0..100).map(|i| (0, 1000 + i)).chain([(2, -2)]).collect();
    let joined = c.parallelize(left, 4).join(&c.parallelize(right, 4), 4);
    assert_eq!(joined.count(), 100 * 100);
}

#[test]
fn partition_counts_do_not_change_results() {
    let data: Vec<(i64, i64)> = (0..500).map(|i| (i % 13, i)).collect();
    let mut outputs = Vec::new();
    for (parts, red) in [(1, 1), (3, 5), (8, 2), (16, 16)] {
        let c = ctx();
        let mut out = c
            .parallelize(data.clone(), parts)
            .reduce_by_key(red, |a, b| a + b)
            .collect();
        out.sort();
        outputs.push(out);
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn grid_partitioner_distributes_a_large_grid() {
    let p = KeyPartitioner::grid(40, 40, 16);
    let mut histogram = vec![0usize; 16];
    for i in 0..40i64 {
        for j in 0..40i64 {
            histogram[p.partition(&(i, j))] += 1;
        }
    }
    let nonempty = histogram.iter().filter(|&&n| n > 0).count();
    assert!(
        nonempty >= 12,
        "grid should use most partitions: {histogram:?}"
    );
    let max = histogram.iter().max().unwrap();
    assert!(
        *max <= 400,
        "no partition should hold more than 4x fair share"
    );
}

#[test]
fn fold_and_union_across_shuffles() {
    let c = ctx();
    let a = c
        .parallelize((0..50i64).map(|i| (i % 5, 1i64)).collect(), 3)
        .reduce_by_key(2, |x, y| x + y);
    let b = c
        .parallelize((0..50i64).map(|i| (i % 5, 10i64)).collect(), 3)
        .reduce_by_key(2, |x, y| x + y);
    let merged = a.union(&b).reduce_by_key(2, |x, y| x + y);
    let map = merged.collect_map();
    assert_eq!(map.len(), 5);
    assert!(map.values().all(|&v| v == 110));
}

#[test]
fn deeply_chained_narrow_ops_stay_single_stage() {
    let c = ctx();
    let mut d = c.parallelize((0..100i64).collect(), 4);
    for _ in 0..20 {
        d = d.map(|x| x + 1).filter(|x| *x > -1);
    }
    c.trace();
    assert_eq!(d.count(), 100);
    let profile = c.take_profile();
    // One result stage; pipelining means no intermediate stages or shuffles.
    assert_eq!(profile.jobs.len(), 1);
    let job = &profile.jobs[0];
    assert_eq!(job.label, "count");
    assert_eq!(profile.stages_of_job(job.job_id).len(), 1);
    assert_eq!(profile.shuffle_stages_of_job(job.job_id), 0);
}

#[test]
fn failure_injection_mid_iteration_recovers() {
    // The persisting job and each round after it launch at least four
    // tasks in a row (one per partition), and every fourth launch fails.
    let (plan, attempts) = common::failures_per_pass(4, 4, 1, 4);
    let c = Context::builder()
        .workers(4)
        .max_task_attempts(attempts)
        .chaos(plan)
        .build();
    let base = c
        .parallelize((0..200i64).map(|i| (i % 8, i)).collect(), 4)
        .reduce_by_key(4, |a, b| a + b)
        .persist();
    let expected = base.collect_map();
    c.trace();
    for round in 0..3 {
        let got = base.map_values(|v| v).collect_map();
        assert_eq!(got, expected, "round {round} corrupted results");
        let injected = common::attempts(&c.take_events()).1;
        assert!(injected >= 1, "round {round} saw no task failure");
    }
}

#[test]
fn source_partitions_are_shared_views_not_per_task_copies() {
    use sac_repro::sparkline::PartitionStream;
    use std::sync::Arc;
    // A multi-stage job over a sizable source: map tasks drain the source
    // stream straight into shuffle buckets.
    let c = Context::builder().workers(4).chaos_off().build();
    let d = c.parallelize((0..100_000i64).collect(), 4);
    assert_eq!(
        d.map(|x| (x % 7, x)).reduce_by_key(4, |a, b| a + b).count(),
        7
    );
    // Arc probe: every compute of a source partition (every task attempt
    // or retry) reads the SAME backing allocation —
    // the partition is never deep-cloned into a task.
    let s1 = d.op().compute(0, d.context());
    let s2 = d.op().compute(0, d.context());
    let (b1, _) = s1.as_shared().expect("source must stream a shared view");
    let (b2, _) = s2.as_shared().expect("source must stream a shared view");
    assert!(
        Arc::ptr_eq(b1, b2),
        "two reads of one source partition must share one allocation"
    );
    assert_eq!(s2.len_hint(), Some(25_000));
    // Draining a shared view clones elements on demand, never the block:
    // the original allocation is still the one the op holds.
    let drained: PartitionStream<i64> = d.op().compute(0, d.context());
    assert_eq!(drained.into_vec().len(), 25_000);
    let s3 = d.op().compute(0, d.context());
    assert!(Arc::ptr_eq(s3.as_shared().unwrap().0, b1));
}

#[test]
fn tiles_keep_their_payload_pointer_through_the_cluster_layer() {
    use sac_repro::tiled::DenseMatrix;
    use std::collections::HashSet;
    // The cluster layer routes tiles, it never touches their payload: a tile
    // read out of a source partition — by value, through `Shared` streams —
    // and carried through map, persist(), a broadcast table, join replication
    // and collect() is the same buffer at the end. Only a frame encoded at a
    // process boundary produces bytes (`tests/distributed.rs`).
    let c = Context::builder().workers(4).chaos_off().build();
    let tiles: Vec<(i64, DenseMatrix)> = (0..6)
        .map(|k| {
            (
                k,
                DenseMatrix::from_fn(8, 8, |i, j| (k * 64 + i as i64 * 8 + j as i64) as f64),
            )
        })
        .collect();
    let payload = |t: &DenseMatrix| t.data().as_ptr() as usize;
    let source_ptrs: HashSet<usize> = tiles.iter().map(|(_, t)| payload(t)).collect();
    assert_eq!(source_ptrs.len(), 6);
    let source = c.parallelize(tiles, 3);

    // map + persist: the stored block holds the source's buffers, and so does
    // every later read of it.
    let cached = source.map(|(k, t)| (k % 3, (k, t))).persist();
    for pass in 0..2 {
        for (_, (_, t)) in cached.collect() {
            assert!(
                source_ptrs.contains(&payload(&t)),
                "cache pass {pass} copied a tile"
            );
        }
    }

    // broadcast: the table the tasks see holds the collected pointers.
    let table = c.broadcast(source.collect_map());
    assert!(table.values().all(|t| source_ptrs.contains(&payload(t))));

    // join replicas: each left tile meets two right tiles (and vice versa)
    // across a shuffle; every replica on both sides is a source buffer.
    let joined = cached.join(&cached, 4).collect();
    assert_eq!(joined.len(), 12, "3 keys x 2 x 2 pairs");
    for (_, ((_, l), (_, r))) in &joined {
        assert!(
            source_ptrs.contains(&payload(l)),
            "join copied a left replica"
        );
        assert!(
            source_ptrs.contains(&payload(r)),
            "join copied a right replica"
        );
    }
    // ... and a consumer that does write gets its own copy; the source is
    // untouched.
    let mut scaled = joined[0].1 .0 .1.clone();
    scaled.scale_in_place(2.0);
    assert!(!source_ptrs.contains(&payload(&scaled)));
    let again = source.collect();
    assert!(again.iter().all(|(k, t)| t.get(0, 0) == (k * 64) as f64));
}
