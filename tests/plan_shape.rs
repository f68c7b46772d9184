//! Plan-shape assertions via the structured event log.
//!
//! These tests pin down *how many shuffle rounds* each planner strategy runs
//! by tracing one execution and counting `shuffle.map` stages per job in the
//! resulting [`JobProfile`] — instead of diffing global metric counters,
//! which breaks under concurrent jobs and parallel test binaries.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sac_repro::sac::{MatMulStrategy, Session};
use sac_repro::sparkline::JobProfile;
use sac_repro::tiled::LocalMatrix;

/// Query (8) of the paper: element-wise matrix addition.
const ADD_SRC: &str =
    "tiled(n,n)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]";

/// Query (9) of the paper: matrix multiplication with group-by.
const MUL_SRC: &str = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, \
     let v = a*b, group by (i,j) ]";

fn session(n: usize, tile: usize) -> Session {
    let mut s = Session::builder().workers(4).partitions(4).build();
    let a = LocalMatrix::from_fn(n, n, |i, j| (i * n + j) as f64);
    let b = LocalMatrix::from_fn(n, n, |i, j| i as f64 - j as f64);
    s.register_local_matrix("A", &a, tile);
    s.register_local_matrix("B", &b, tile);
    s.set_int("n", n as i64);
    s
}

/// Shuffle map stages summed over every job the traced run started.
fn shuffle_stages(profile: &JobProfile) -> usize {
    profile
        .jobs
        .iter()
        .map(|j| profile.shuffle_stages_of_job(j.job_id))
        .sum()
}

#[test]
fn eltwise_add_needs_no_shuffle() {
    // `register_local_matrix` grid-partitions and materializes both inputs,
    // so the eltwise cogroup is narrow: zero shuffle stages at query time.
    let s = session(8, 4);
    let analysis = s.explain_analyze(ADD_SRC).unwrap();
    assert!(analysis.plan.contains("eltwise"), "{}", analysis.plan);
    assert!(!analysis.profile.jobs.is_empty(), "trace saw no jobs");
    assert_eq!(
        shuffle_stages(&analysis.profile),
        0,
        "co-partitioned add must not shuffle:\n{}",
        analysis.profile.render()
    );
    assert_eq!(analysis.profile.shuffle_stage_count(), 0);
}

#[test]
fn an_eltwise_result_joins_a_co_indexed_contraction_output_without_a_shuffle() {
    // Both intermediates keep the grid partitioner of their shape: the
    // fused-eltwise result the one its join partitioned by, the
    // group-by-join product its reduce cells'. So an element-wise consumer
    // of the two cogroups them narrowly.
    let mut s = session(8, 4);
    s.config_mut().matmul = MatMulStrategy::GroupByJoin;
    let sum = s.matrix(ADD_SRC).unwrap();
    let product = s.matrix(MUL_SRC).unwrap();
    sum.tiles().count();
    product.tiles().count();
    s.register_matrix("S", sum);
    s.register_matrix("C", product);
    for src in [
        "tiled(n,n)[ ((i,j), x-c) | ((i,j),x) <- S, ((ii,jj),c) <- C, ii == i, jj == j ]",
        "tiled(n,n)[ ((i,j), c-x) | ((i,j),c) <- C, ((ii,jj),x) <- S, ii == i, jj == j ]",
    ] {
        let analysis = s.explain_analyze(src).unwrap();
        assert!(analysis.plan.contains("eltwise"), "{}", analysis.plan);
        assert_eq!(
            shuffle_stages(&analysis.profile),
            0,
            "co-indexed intermediates must not shuffle:\n{}",
            analysis.profile.render()
        );
    }
}

#[test]
fn group_by_join_multiply_runs_one_cogroup_round() {
    // §5.4 group-by-join: a single cogroup round — one shuffle.map stage per
    // side (left + right), and nothing else.
    let mut s = session(8, 4);
    s.config_mut().matmul = MatMulStrategy::GroupByJoin;
    let analysis = s.explain_analyze(MUL_SRC).unwrap();
    assert!(analysis.plan.contains("groupByJoin"), "{}", analysis.plan);
    let shuffles = shuffle_stages(&analysis.profile);
    assert!(
        shuffles <= 2,
        "group-by-join must finish in one cogroup round, got {shuffles}:\n{}",
        analysis.profile.render()
    );
    assert!(analysis
        .profile
        .stages
        .iter()
        .any(|st| st.tag.as_deref() == Some("contraction/groupByJoin")));
}

#[test]
fn group_by_join_sends_a_tile_once_per_reducer_and_costs_what_it_estimates() {
    use sac_repro::planner::env::ArrayStats;
    use sac_repro::sparkline::GridCells;

    // 256 x 256 over 64 x 64 tiles and 4 reducers, each operand five times
    // the broadcast budget: `Auto` itself must pick the row.
    let (n, tile) = (256, 64);
    let mut s = session(n, tile);
    s.config_mut().broadcast_budget = 100_000;
    let analysis = s.explain_analyze(MUL_SRC).unwrap();
    let choice = &analysis.profile.plan_choices[0];
    assert_eq!(
        (choice.chosen.as_str(), choice.auto),
        ("contraction/groupByJoin", true),
        "{}",
        analysis.profile.render()
    );
    assert!(choice.replans.is_empty(), "honest statistics confirm it");

    // Exactly the two band shuffles' map stages: no partial-sum round.
    let shuffles: Vec<_> = analysis
        .profile
        .stages
        .iter()
        .filter(|st| st.is_shuffle_write())
        .collect();
    assert_eq!(shuffles.len(), 2, "{}", analysis.profile.render());

    // 16 tiles a side over the output's 2 x 2 cell grid: each left tile
    // once, to the row band of its block row, each right tile once, to the
    // column band of its block column — though 2 cells read each band.
    let (pr, pc) = GridCells::new(4, 4, 4).shape();
    assert_eq!((pr, pc), (2, 2));
    let records: u64 = shuffles.iter().map(|st| st.shuffle_records_written).sum();
    assert_eq!(records, 16 + 16);

    // The row's estimate is that count in registered tile records, plus the
    // table's latency proxy of 16 KiB a round ...
    let tile_record = ArrayStats::dense_tile_bytes(tile);
    assert_eq!(
        choice.est_shuffle_bytes,
        records * tile_record + 2 * (16 << 10)
    );
    // ... and the shuffle carried it: a record `(i, (k, tile))` names its
    // output band coordinate and its contracted block where a registered
    // tile record names its two coordinates, so it weighs just as much; each
    // bucket is framed — under 1 % in all.
    let actual = analysis.profile.actual_shuffle_bytes_of_tag(&choice.chosen);
    let payload = records * tile_record;
    assert!(
        actual >= payload && actual <= payload + payload / 100,
        "shuffled {actual} B for {payload} B of records:\n{}",
        analysis.profile.render()
    );
}

#[test]
fn thin_gram_product_stays_on_reduce_by_key() {
    // `PᵀP` for a tall thin `P` (16 x 1 blocks): one output block over a
    // 16-deep contraction. The group-by-join's cell grid is a single reducer;
    // the §5.3 plan splits the contracted blocks over all four.
    let mut s = Session::builder()
        .workers(4)
        .partitions(4)
        .broadcast_budget(100_000)
        .build();
    let p = LocalMatrix::from_fn(1024, 64, |i, j| ((i * 7 + j) % 11) as f64 - 5.0);
    s.register_local_matrix("P", &p, 64);
    s.set_int("k", 64);
    let gram = "tiled(k,k)[ ((i,j), +/v) | ((l,i),a) <- P, ((ll,j),b) <- P, ll == l, \
                let v = a*b, group by (i,j) ]";
    let analysis = s.explain_analyze(gram).unwrap();
    let choice = &analysis.profile.plan_choices[0];
    assert_eq!(
        (choice.chosen.as_str(), choice.auto),
        ("contraction/reduceByKey", true)
    );
    assert!(
        !choice
            .candidates
            .iter()
            .any(|(tag, _)| tag == "contraction/groupByJoin"),
        "an ineligible row is not a candidate: {:?}",
        choice.candidates
    );
    assert!(analysis
        .profile
        .stages
        .iter()
        .any(|st| st.operator.as_deref() == Some("reduceByKey")));
    // The same shape with the contraction as short as the grid is wide is
    // the row's again: 16 x 16 output blocks, one contracted block.
    s.set_int("n", 1024);
    let outer = "tiled(n,n)[ ((i,j), +/v) | ((i,l),a) <- P, ((j,ll),b) <- P, ll == l, \
                 let v = a*b, group by (i,j) ]";
    assert!(s.explain(outer).unwrap().contains("groupByJoin"));
}

#[test]
fn reduce_by_key_multiply_runs_three_shuffle_rounds() {
    // §5.3 reduceByKey plan: the join's cogroup (two map stages) plus the
    // partial-product reduceByKey — one more shuffle round than group-by-join.
    let mut s = session(8, 4);
    s.config_mut().matmul = MatMulStrategy::ReduceByKey;
    let analysis = s.explain_analyze(MUL_SRC).unwrap();
    assert!(analysis.plan.contains("reduceByKey"), "{}", analysis.plan);
    assert_eq!(
        shuffle_stages(&analysis.profile),
        3,
        "cogroup.left + cogroup.right + reduceByKey:\n{}",
        analysis.profile.render()
    );
    assert!(analysis
        .profile
        .stages
        .iter()
        .any(|st| st.operator.as_deref() == Some("reduceByKey")));
}

#[test]
fn join_group_by_multiply_shuffles_more_rounds_than_group_by_join() {
    // The paper's central claim, measured: the naive §4 join + groupByKey
    // plan runs strictly more shuffle rounds than the §5.4 group-by-join
    // plan, and its extra round is an uncombined groupByKey.
    let mut s = session(8, 4);

    s.config_mut().matmul = MatMulStrategy::JoinGroupBy;
    let naive = s.explain_analyze(MUL_SRC).unwrap();

    s.config_mut().matmul = MatMulStrategy::GroupByJoin;
    let gbj = s.explain_analyze(MUL_SRC).unwrap();

    let naive_rounds = shuffle_stages(&naive.profile);
    let gbj_rounds = shuffle_stages(&gbj.profile);
    assert!(
        naive_rounds > gbj_rounds,
        "join+groupBy ({naive_rounds} rounds) must shuffle more than \
         group-by-join ({gbj_rounds} rounds)"
    );
    assert!(naive
        .profile
        .stages
        .iter()
        .any(|st| st.operator.as_deref() == Some("groupByKey")));
    assert!(!gbj
        .profile
        .stages
        .iter()
        .any(|st| st.operator.as_deref() == Some("groupByKey")));
}

/// Mat-vec product, query (1)-style: `y_i = Σ_k A_ik x_k`.
const MAT_VEC_SRC: &str = "tiled_vector(n)[ (i, +/v) | ((i,k),a) <- A, (kk,x) <- V, kk == k, \
     let v = a*x, group by i ]";

#[test]
fn auto_mat_vec_broadcasts_with_zero_shuffle_stages() {
    // With no pinned strategy, a vector under the broadcast budget is shipped
    // to every partition as a broadcast table: the whole mat-vec runs as
    // narrow stages plus actions — zero shuffle stages, confirmed from the
    // event trace, not inferred from the plan string.
    let mut s = session(8, 4);
    let x: Vec<f64> = (0..8).map(|i| i as f64 - 3.0).collect();
    let v = sac_repro::tiled::TiledVector::from_local(s.spark(), &x, 4, 4);
    s.register_vector("V", v);
    let analysis = s.explain_analyze(MAT_VEC_SRC).unwrap();
    assert!(
        analysis.plan.contains("matVec/broadcast"),
        "{}",
        analysis.plan
    );
    assert!(!analysis.profile.jobs.is_empty(), "trace saw no jobs");
    assert_eq!(
        shuffle_stages(&analysis.profile),
        0,
        "broadcast mat-vec must not shuffle:\n{}",
        analysis.profile.render()
    );
    assert_eq!(analysis.profile.shuffle_stage_count(), 0);
    // The decision itself is on the event bus and folded into the profile.
    let choice = &analysis.profile.plan_choices[0];
    assert_eq!(choice.chosen, "matVec/broadcast");
    assert!(choice.auto, "default config must resolve adaptively");
    assert!(
        choice.candidates.iter().any(|(tag, _)| tag == "matVec"),
        "the shuffling alternative must have been costed: {:?}",
        choice.candidates
    );
}

/// Every tile ships dense, so every tile is priced dense: a zero-heavy
/// matrix registered from local data, the same tiles registered as a tiled
/// matrix, and a full matrix of its shape get one decision — chosen row,
/// estimate and every candidate's cost — for a multiply and a mat-vec.
#[test]
fn sparse_data_is_priced_like_dense() {
    let (n, tile) = (96, 16);
    let mut rng = StdRng::seed_from_u64(41);
    let sparse = LocalMatrix::sparse_random(n, n, 0.05, &mut rng);
    let full = LocalMatrix::from_fn(n, n, |i, j| (i * n + j) as f64 + 1.0);
    let x: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
    let build = || Session::builder().workers(4).partitions(4).build();
    let (mut local, mut tiled, mut dense) = (build(), build(), build());
    local.register_local_matrix("A", &sparse, tile);
    tiled.register_matrix("A", local.matrix_named("A").unwrap());
    dense.register_local_matrix("A", &full, tile);
    for s in [&mut local, &mut tiled, &mut dense] {
        s.register_local_matrix("B", &full, tile);
        let v = sac_repro::tiled::TiledVector::from_local(s.spark(), &x, tile, 4);
        s.register_vector("V", v);
        s.set_int("n", n as i64);
    }
    for src in [MUL_SRC, MAT_VEC_SRC] {
        let decision = |s: &Session| {
            let planned = s.compile(src).unwrap();
            planned.plan.decision().cloned().expect("a cost-based node")
        };
        let want = decision(&dense);
        assert_eq!(decision(&local), want, "{src}");
        assert_eq!(decision(&tiled), want, "{src}");
    }
}

#[test]
fn remap_axis_reduce_and_group_by_aggregate_each_run_one_shuffle_round() {
    // §5.2's remap groups its tile replicas and §5.3's generic group-by
    // reduces its planes under the output's grid partitioner, and each
    // reduce task completes its own band of the grid, so the output tiles no
    // element reaches cost no round of their own. Fig. 1's axis reduce is one
    // grouping of per-tile partials.
    let s = session(8, 4);
    for (src, tag) in [
        (
            "tiled(n,n)[ (((i+1)%n, j), v) | ((i,j),v) <- A ]",
            "indexRemap",
        ),
        // Reaches output tiles from a quarter of the source grid only: the
        // other three are completed, not shuffled.
        (
            "tiled(n,n)[ ((i/2, j/2), v) | ((i,j),v) <- A ]",
            "indexRemap",
        ),
        (
            "tiled_vector(n)[ (i, +/a) | ((i,j),a) <- A, group by i ]",
            "axisReduce",
        ),
        (
            "tiled(n,n)[ ((ii,jj), (+/a)/a.length) | ((i,j),a) <- A, \
             ii <- (i-1) to (i+1), jj <- (j-1) to (j+1), \
             ii >= 0, ii < n, jj >= 0, jj < n, group by (ii,jj) ]",
            "groupByAggregate",
        ),
    ] {
        let analysis = s.explain_analyze(src).unwrap();
        assert!(analysis.plan.contains(tag), "{}", analysis.plan);
        assert_eq!(
            shuffle_stages(&analysis.profile),
            1,
            "{tag} must finish in one shuffle round:\n{}",
            analysis.profile.render()
        );
    }
}

#[test]
fn size_sweep_selects_multiple_contraction_strategies() {
    // Sweep operand size across the broadcast budget: small operands resolve
    // to the broadcast contraction, large ones to a shuffling strategy — and
    // each explain_analyze pairs the estimated bytes with the measured ones.
    let mut chosen = Vec::new();
    for n in [8usize, 32] {
        let mut s = Session::builder()
            .workers(4)
            .partitions(4)
            .broadcast_budget(2048)
            .build();
        let a = LocalMatrix::from_fn(n, n, |i, j| (i * n + j) as f64);
        let b = LocalMatrix::from_fn(n, n, |i, j| i as f64 - j as f64);
        s.register_local_matrix("A", &a, 4);
        s.register_local_matrix("B", &b, 4);
        s.set_int("n", n as i64);
        let analysis = s.explain_analyze(MUL_SRC).unwrap();
        let rendered = format!("{analysis}");
        assert!(
            rendered.contains("plan.chosen") && rendered.contains("actual"),
            "explain_analyze must pair estimate with actual:\n{rendered}"
        );
        let choice = analysis.profile.plan_choices[0].clone();
        assert!(choice.auto);
        assert!(
            choice.candidates.len() >= 3,
            "all viable strategies must be costed: {:?}",
            choice.candidates
        );
        if choice.chosen != "contraction/broadcast" {
            // A shuffling strategy: the estimate and the measured bytes of
            // the chosen plan node must both be non-zero.
            assert!(choice.est_shuffle_bytes > 0);
            assert!(
                analysis.profile.actual_shuffle_bytes_of_tag(&choice.chosen) > 0,
                "{}",
                analysis.profile.render()
            );
        }
        chosen.push(choice.chosen);
    }
    chosen.sort();
    chosen.dedup();
    assert!(
        chosen.len() >= 2,
        "the sweep must exercise at least two strategies, got {chosen:?}"
    );
}

/// Query (9) with both sides ranging over `A`: the planner auto-persists the
/// shared input, and the traced profile must fold the resulting cache events
/// per stage and per dataset.
const SELF_MUL_SRC: &str = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- A, \
     kk == k, let v = a*b, group by (i,j) ]";

#[test]
fn shared_input_cache_stats_aggregate_per_stage_and_dataset() {
    // chaos_off + ample pinned budget: this test pins exact fault-free cache
    // counts (second run misses == 0), which an injected executor kill or a
    // deliberately tiny env storage budget would legitimately break.
    let mut s = Session::builder()
        .workers(4)
        .partitions(4)
        .storage_memory(64 << 20)
        .chaos_off()
        .build();
    let a = LocalMatrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
    s.register_local_matrix("A", &a, 4);
    s.set_int("n", 8);
    s.config_mut().matmul = MatMulStrategy::GroupByJoin;

    // First run: the shared input is stored block by block (misses), then the
    // second generator's reads are served from memory (hits).
    let first = s.explain_analyze(SELF_MUL_SRC).unwrap();
    let overlay = s.env().persisted_array("A").unwrap();
    let shared = overlay
        .as_matrix()
        .unwrap()
        .tiles()
        .op()
        .cache_id()
        .unwrap();
    let input = first.profile.cache_of_dataset(shared);
    assert!(input.misses > 0, "first run must store the shared input");
    assert!(input.hits > 0, "second reference must hit the cache");
    assert_eq!(
        first.profile.cache_totals().evictions,
        0,
        "unlimited budget must not evict"
    );
    // The other persisted dataset is the group-by-join's own result.
    assert_eq!(
        first.profile.cache_by_dataset.len(),
        2,
        "the shared input is persisted once:\n{}",
        first.profile.render()
    );
    // The reads happen inside executor tasks, so at least one stage profile
    // carries them (driver-side reads would have no stage attribution).
    assert!(
        first.profile.stages.iter().any(|st| !st.cache.is_empty()),
        "cache activity must be attributed to stages:\n{}",
        first.profile.render()
    );

    // Second run of the same query: the overlay is retained by the session
    // env, so every read of it is a hit and nothing is recomputed.
    let second = s.explain_analyze(SELF_MUL_SRC).unwrap();
    let input = second.profile.cache_of_dataset(shared);
    assert_eq!(input.misses, 0, "overlay must be reused across runs");
    assert!(input.hits > 0);
    assert_eq!(second.profile.cache_totals().recomputes, 0);
}

#[test]
fn kill_between_map_and_reduce_resubmits_exactly_the_lost_partitions() {
    use sac_repro::sparkline::{ChaosPlan, Context};

    // Kill the executor owning map output 1 at the first shuffle barrier —
    // i.e. after every map task finished, before any reduce task fetched.
    let run = |plan: Option<ChaosPlan>| {
        let mut b = Context::builder().workers(4);
        b = match plan {
            Some(p) => b.chaos(p),
            None => b.chaos_off(),
        };
        let ctx = b.build();
        ctx.trace();
        let sums = ctx
            .parallelize((0..40i64).map(|i| (i % 8, i)).collect(), 4)
            // Slow the (pipelined) map tasks so all four workers claim one
            // partition each and the kill loses some outputs, not all.
            .map(|kv| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                kv
            })
            .reduce_by_key(4, |a, b| a + b)
            .collect();
        (sums, ctx.take_profile(), ctx)
    };

    let (oracle, clean_profile, _) = run(None);
    assert_eq!(
        clean_profile.recovery.stages_resubmitted, 0,
        "fault-free run must not resubmit"
    );

    let plan = ChaosPlan::new().with_kill_owner_at_barrier(0, 1);
    let (sums, profile, ctx) = run(Some(plan));
    assert_eq!(sums, oracle, "recovered run must be bit-identical");

    // Exactly one executor died and exactly one resubmission repaired it.
    assert_eq!(profile.recovery.executors_lost, 1, "{}", profile.render());
    assert_eq!(
        profile.recovery.stages_resubmitted,
        1,
        "one kill between map and reduce -> one resubmission:\n{}",
        profile.render()
    );
    // The resubmission recomputes exactly the partitions the dead executor
    // owned — no more (event-count, not just final values).
    assert_eq!(
        profile.recovery.resubmitted_tasks,
        profile.recovery.lost_map_outputs,
        "{}",
        profile.render()
    );
    assert!(profile.recovery.lost_map_outputs >= 1);
    assert!(
        profile.recovery.lost_map_outputs < 4,
        "one executor of four cannot own every map output"
    );
    let resubmit_stages: Vec<_> = profile
        .stages
        .iter()
        .filter(|st| st.label.starts_with("shuffle.resubmit"))
        .collect();
    assert_eq!(resubmit_stages.len(), 1);
    assert_eq!(
        resubmit_stages[0].tasks as u64,
        profile.recovery.lost_map_outputs
    );
    // Fresh shuffle-stage accounting is not inflated by the resubmission.
    assert_eq!(profile.shuffle_stage_count(), 1, "{}", profile.render());
    assert_eq!(
        ctx.executor_status()
            .iter()
            .map(|s| s.restarts)
            .sum::<u64>(),
        1
    );
}

#[test]
fn narrow_chain_runs_as_one_fused_operator_pipeline() {
    use sac_repro::sparkline::Context;
    // chaos_off: retried or requeued attempts would emit extra
    // operator_output events and skew the exact per-operator counts.
    let c = Context::builder().workers(4).chaos_off().build();
    let d = c
        .parallelize((0..1000i64).collect(), 4)
        .map(|x| x * 2)
        .filter(|x| x % 4 == 0)
        .map(|x| x + 1);
    c.trace();
    let out = d.collect();
    let profile = c.take_profile();
    assert_eq!(out.len(), 500);

    // The whole map -> filter -> map chain pipelines inside ONE stage: no
    // intermediate stage (and certainly no shuffle) between the narrow ops.
    assert_eq!(profile.jobs.len(), 1);
    assert_eq!(
        profile.stages.len(),
        1,
        "narrow chain must fuse into a single stage:\n{}",
        profile.render()
    );
    let stage = &profile.stages[0];
    assert_eq!(stage.tasks, 4);

    // ... and that single fused stage still reports per-operator output
    // cardinalities. Same-named operators aggregate: the two `map`s report
    // 1000 + 500 rows.
    let rows = |op: &str| {
        stage
            .operator_stats(op)
            .unwrap_or_else(|| panic!("no stats for {op}:\n{}", profile.render()))
            .rows
    };
    assert_eq!(rows("source"), 1000);
    assert_eq!(rows("map"), 1500);
    assert_eq!(rows("filter"), 500);
    // bytes_out is the shallow per-row estimate: rows * size_of::<i64>().
    assert_eq!(stage.operator_stats("source").unwrap().bytes, 8000);
    // The rendered profile surfaces the pipeline for explain_analyze.
    assert!(
        stage.render().contains("operators ["),
        "render must show per-operator cardinalities: {}",
        stage.render()
    );
}

/// Fusible region: `a + b*0.5` — two loads, a folded scalar constant, a
/// multiply and an add, all elementwise over co-partitioned tiles.
const FUSED_SRC: &str =
    "tiled(n,n)[ ((i,j), a + b*0.5) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]";

#[test]
fn fused_region_executes_as_one_operator_and_no_shuffle() {
    // The whole `a + b*0.5` region lowers to ONE Plan::FusedEltwise node and
    // runs as ONE tile-level operator: exactly one `fused_eltwise` operator
    // entry across every traced stage, no per-op intermediates, no shuffle.
    let s = session(8, 4);
    let analysis = s.explain_analyze(FUSED_SRC).unwrap();
    assert!(analysis.plan.contains("eltwise/fused"), "{}", analysis.plan);
    assert!(!analysis.profile.jobs.is_empty(), "trace saw no jobs");
    assert_eq!(
        shuffle_stages(&analysis.profile),
        0,
        "co-partitioned fused eltwise must not shuffle:\n{}",
        analysis.profile.render()
    );

    // Exactly one operator entry for the region, over all stages: the fused
    // kernel. No unfused per-op `map` chain survives between the join and
    // the output tiles.
    let fused_entries: Vec<_> = analysis
        .profile
        .stages
        .iter()
        .flat_map(|st| st.operators.iter())
        .filter(|o| o.operator == "fused_eltwise")
        .collect();
    assert_eq!(
        fused_entries.len(),
        1,
        "the region must surface as exactly one operator:\n{}",
        analysis.profile.render()
    );
    // 8x8 over 4x4 tiles -> a 2x2 grid of output tiles.
    assert_eq!(fused_entries[0].rows, 4, "{}", analysis.profile.render());

    // The planner announced the fusion on the event bus: one region, both
    // inputs, with the traced postfix signature carrying the folded constant.
    assert_eq!(
        analysis.profile.fused_regions.len(),
        1,
        "{}",
        analysis.profile.render()
    );
    let region = &analysis.profile.fused_regions[0];
    assert_eq!(region.inputs, 2);
    assert!(region.ops >= 4, "loads + const + mul + add: {region:?}");
    assert!(
        region.signature.contains("mul") && region.signature.contains("add"),
        "{region:?}"
    );
}

#[test]
fn failed_attempts_emit_no_partial_operator_counts() {
    use sac_repro::sparkline::{ChaosPlan, Context};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    // A map attempt panics partway through its partition (after yielding 3
    // of 25 rows) while a kill-at-task plan loses executors underneath.
    // Failed attempts must contribute ZERO operator_output rows — the
    // on-drop emission is suppressed while unwinding — so every traced
    // per-operator total stays a multiple of whole 25-row partitions.
    // (A kill never truncates a drain: the task runs to completion and the
    // epoch gate discards its *result*, so re-runs re-count whole
    // partitions — the documented double-emission, still a multiple of 25.)
    let fails = Arc::new(AtomicUsize::new(0));
    let f = fails.clone();
    let plan = ChaosPlan::new()
        .with_kill_at_task(2, 1)
        .with_kill_at_task(5, 3);
    let c = Context::builder()
        .workers(4)
        .max_task_attempts(8)
        .chaos(plan)
        .build();
    c.trace();
    let mut out = c
        .parallelize((0..100i64).collect(), 4)
        .map(move |x| {
            if x == 3 && f.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected mid-partition failure");
            }
            x * 2
        })
        .collect();
    let profile = c.take_profile();

    out.sort();
    assert_eq!(out, (0..100i64).map(|x| x * 2).collect::<Vec<_>>());
    assert!(
        fails.load(Ordering::SeqCst) >= 2,
        "the poisoned partition must have run at least twice"
    );
    let rows: u64 = profile
        .stages
        .iter()
        .filter_map(|st| st.operator_stats("map"))
        .map(|o| o.rows)
        .sum();
    assert!(rows >= 100, "{}", profile.render());
    assert_eq!(
        rows % 25,
        0,
        "a failed attempt leaked a partial row count:\n{}",
        profile.render()
    );
}

#[test]
fn plan_cache_hits_are_pinned_by_event_count() {
    use sac_repro::service::QueryService;
    use sac_repro::sparkline::{Context, Event, JobProfile};

    // chaos_off: an injected fault would resubmit stages but never changes
    // service-level admission/cache events — still, keep the run hermetic.
    let ctx = Context::builder()
        .workers(2)
        .storage_memory(64 << 20)
        .chaos_off()
        .build();
    let svc = QueryService::builder().context(ctx).slots(2).build();
    let a = LocalMatrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
    svc.register_shared_matrix("A", &a, 4).unwrap();
    svc.register_shared_int("n", 8).unwrap();

    svc.context().trace();
    // One compile, then two cache hits: an alpha-renamed variant from another
    // tenant and a verbatim re-run from the first.
    let q = "tiled(n,n)[ ((i,j), a+a) | ((i,j),a) <- A ]";
    let renamed = "tiled(n,n)[ ((r,c), x+x) | ((r,c),x) <- A ]";
    assert!(!svc.run("alice", q).unwrap().cache_hit);
    assert!(svc.run("bob", renamed).unwrap().cache_hit);
    assert!(svc.run("alice", q).unwrap().cache_hit);
    let events = svc.context().take_events();
    svc.context().stop_trace();

    // Pinned by event count, not by counters: exactly 3 admissions, exactly
    // 2 plan-cache hits, zero cancellations.
    let admitted: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, Event::JobAdmitted { .. }))
        .collect();
    let hits: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::PlanCacheHit { tenant, key, .. } => Some((tenant.clone(), *key)),
            _ => None,
        })
        .collect();
    assert_eq!(admitted.len(), 3, "3 runs -> 3 admissions");
    assert_eq!(hits.len(), 2, "2 of the 3 runs must hit the cache");
    assert_eq!(
        hits[0].1, hits[1].1,
        "alpha-renamed query must hit the same cache key"
    );
    assert_eq!((hits[0].0.as_str(), hits[1].0.as_str()), ("bob", "alice"));
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, Event::JobCancelled { .. })),
        "nothing was cancelled"
    );

    // The profile folds the same events into ServiceStats.
    let profile = JobProfile::from_events(&events);
    assert_eq!(profile.service.jobs_admitted, 3);
    assert_eq!(profile.service.plan_cache_hits, 2);
    assert_eq!(profile.service.jobs_cancelled, 0);
    assert!(
        profile.render().contains("3 jobs admitted"),
        "{}",
        profile.render()
    );
}

#[test]
fn a_mis_estimated_join_runs_its_plan_time_row_unprobed() {
    // Registration-time statistics lie 8x about both contraction operands
    // of an honest 96 x 96 multiply, so at plan time broadcast looks
    // over-budget and `Auto` chooses group-by-join. The plan-time choice is
    // final: the run reads nothing back from the data, executes exactly the
    // chosen row, and matches a session pinned to that row bit for bit.
    let n = 96;
    // Fully dense, small-integer values: every strategy's partial sums are
    // exact in f64.
    let a = LocalMatrix::from_fn(n, n, |i, j| ((i * n + j) % 7 + 1) as f64);
    let b = LocalMatrix::from_fn(n, n, |i, j| ((i + 2 * j) % 5 + 1) as f64);
    let lied = |matmul: MatMulStrategy| {
        let mut s = Session::builder()
            .workers(4)
            .partitions(4)
            .broadcast_budget(100_000)
            .matmul(matmul)
            .build();
        s.register_local_matrix("A", &a, 32);
        s.register_local_matrix("B", &b, 32);
        s.set_int("n", n as i64);
        // The lie: 8x the honest resident bytes. 9 dense 32x32 tiles are
        // 74 016 bytes — claimed 592 128, past the budget.
        for name in ["A", "B"] {
            let mut stats = *s.env().stats(name).unwrap();
            stats.estimated_bytes *= 8;
            s.env_mut().set_stats(name, stats);
        }
        s
    };

    let auto = lied(MatMulStrategy::Auto);
    let analysis = auto.explain_analyze(MUL_SRC).unwrap();
    let profile = &analysis.profile;
    let choice = &profile.plan_choices[0];
    assert_eq!(
        (choice.chosen.as_str(), choice.auto),
        ("contraction/groupByJoin", true),
        "the lie decides the plan-time row:\n{}",
        analysis.plan
    );
    // One job, the `count` that forces the result: no `collect` reads an
    // operand back, neither to measure it nor to broadcast it.
    let labels: Vec<&str> = profile.jobs.iter().map(|j| j.label.as_str()).collect();
    assert_eq!(labels, ["count"], "{}", profile.render());
    // Every shuffle the run wrote is the chosen row's: its two band
    // shuffles, each operand's 9 tiles once (18 records of 8 232 B with
    // their frames).
    let shuffles: Vec<_> = profile
        .stages
        .iter()
        .filter(|st| st.is_shuffle_write())
        .collect();
    assert_eq!(shuffles.len(), 2, "{}", profile.render());
    for st in &shuffles {
        assert_eq!(
            st.tag.as_deref(),
            Some("contraction/groupByJoin"),
            "{}",
            profile.render()
        );
    }
    let records: u64 = shuffles.iter().map(|st| st.shuffle_records_written).sum();
    assert_eq!(
        (records, profile.total_shuffle_bytes_written()),
        (18, 148_512)
    );
    // The cells, which hold every product, run in the stage of the `count`
    // that first reads them; it carries the row's tag too.
    let cells: Vec<_> = profile
        .stages
        .iter()
        .filter(|st| st.operators.iter().any(|op| op.operator == "groupByJoin"))
        .collect();
    assert_eq!(cells.len(), 1, "{}", profile.render());
    assert_eq!(
        (cells[0].label.as_str(), cells[0].tag.as_deref()),
        ("action(count)", Some("contraction/groupByJoin")),
        "{}",
        profile.render()
    );

    // The oracle: a session pinned to the row `Auto` chose, under the same lie.
    let pinned = lied(MatMulStrategy::GroupByJoin);
    let bits = |m: LocalMatrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(auto.matrix(MUL_SRC).unwrap().to_local()),
        bits(pinned.matrix(MUL_SRC).unwrap().to_local()),
        "Auto's plan-time row changed the result bits"
    );
}

#[test]
fn local_fallback_result_is_tiled_like_the_matrix_the_query_reads() {
    // Regression: the fallback used to take its tile size from whichever
    // registered array a `HashMap` iteration happened to yield first —
    // including arrays the query never mentions — so with `A` (tile 2) and
    // `Z` (tile 4) registered, the block size of this result varied from
    // session to session. It must be `A`'s, every time.
    let a = LocalMatrix::from_fn(6, 6, |i, j| (i * 6 + j) as f64 + 0.5);
    let z = LocalMatrix::from_fn(8, 8, |i, j| i as f64 - j as f64);
    let src = "tiled_vector(n)[ (i, v) | ((i,j),v) <- A, i == j ]";
    for round in 0..16 {
        let mut s = Session::builder().workers(2).partitions(2).build();
        s.register_local_matrix("A", &a, 2);
        s.register_local_matrix("Z", &z, 4);
        s.set_int("n", 6);
        assert_eq!(s.explain(src).unwrap(), "localFallback -> vector 6");
        let diagonal = s.vector(src).unwrap();
        assert_eq!(diagonal.block_size(), 2, "round {round}");
        let want: Vec<f64> = (0..6).map(|i| a.get(i, i)).collect();
        assert_eq!(diagonal.to_local(), want);
    }
}

#[test]
fn a_factorization_step_runs_each_product_in_its_readers_stage_and_stores_no_product() {
    // One Fig. 4.C step as its translated program, every contraction on the
    // group-by-join: `PQ`, `EQ` and `ETP` are each read by one element-wise
    // statement alone, which covers it.
    use sac_repro::diablo::{parse_program, translate};
    use sac_repro::sac::linalg::FACTORIZATION_STEP;
    let (n, rank, tile) = (12, 4, 4);
    let mut s = Session::builder()
        .workers(4)
        .partitions(4)
        .matmul(MatMulStrategy::GroupByJoin)
        .storage_memory(64 << 20)
        .chaos_off()
        .build();
    let r = LocalMatrix::from_fn(n, n, |i, j| ((i * 7 + j) % 5) as f64);
    let p = LocalMatrix::from_fn(n, rank, |i, k| ((i + k) % 3) as f64 * 0.5);
    let q = LocalMatrix::from_fn(n, rank, |j, k| ((j * k) % 4) as f64 * 0.25);
    for (name, m) in [("R", &r), ("P", &p), ("Q", &q)] {
        s.register_local_matrix(name, m, tile);
    }
    s.set_int("n", n as i64);
    s.set_int("m", n as i64);
    s.set_int("rank", rank as i64);
    s.set_float("gamma", 0.002);
    s.set_float("lambda", 0.02);
    let program = translate(&parse_program(FACTORIZATION_STEP).unwrap()).unwrap();

    s.spark().trace();
    let outputs = s.run_program(&program, s.env()).unwrap();
    let output = |name: &str| {
        let (_, result) = outputs.iter().find(|(n, _)| n == name).unwrap();
        result.clone().into_matrix().unwrap()
    };
    output("P2").tiles().count();
    output("Q2").tiles().count();
    let profile = s.spark().take_profile();

    // The reads of P' and Q' run `EQ`'s and `ETP`'s cells and the update
    // that reads each, one stage apiece, under the cover's tag; `PQ`'s
    // cells run where `E` is first read, in `EQ`'s row-band shuffle.
    let covered: Vec<_> = profile
        .stages
        .iter()
        .filter(|st| st.tag.as_deref() == Some("contraction/groupByJoin+eltwise/fused"))
        .collect();
    assert_eq!(covered.len(), 2, "{}", profile.render());
    for st in covered {
        let runs = |op: &str| st.operators.iter().any(|o| o.operator == op);
        assert!(
            runs("groupByJoin") && runs("fused_eltwise"),
            "{}",
            profile.render()
        );
    }
    // No product is stored: the block manager holds `E`'s, `P2`'s and
    // `Q2`'s blocks, and nothing else.
    for product in ["PQ", "EQ", "ETP"] {
        assert_eq!(output(product).tiles().op().cache_id(), None, "{product}");
    }
    let stored: usize = ["E", "P2", "Q2"]
        .iter()
        .map(|name| {
            let m = output(name);
            assert!(m.tiles().op().cache_id().is_some(), "{name}");
            m.tiles().num_partitions()
        })
        .sum();
    assert_eq!(s.spark().storage_status().blocks_in_memory, stored);
}
