//! Kill executors mid-query and watch the runtime recover.
//!
//! ```text
//! cargo run --release --example chaos_recovery
//! ```
//!
//! Runs the paper's Query (9) — tiled matrix multiplication — twice: once
//! fault-free, once under a chaos schedule that kills two of the four
//! logical executors while the query's shuffle is in flight. The scheduler
//! marks the dead executors' map outputs and cached blocks lost, resubmits
//! only the missing map tasks, and recomputes lost blocks from lineage; the
//! result must be bit-identical. Prints the recovered run's
//! `explain_analyze` profile (including the recovery line) and the final
//! executor pool health.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sac::Session;
use sparkline::ChaosPlan;
use tiled::LocalMatrix;

const SRC: &str = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, \
                   let v = a*b, group by (i,j) ]";

fn session(n: usize, a: &LocalMatrix, b: &LocalMatrix, plan: Option<ChaosPlan>) -> Session {
    let mut builder = Session::builder()
        .workers(4)
        .partitions(4)
        .max_task_attempts(8)
        .max_stage_attempts(12);
    builder = match plan {
        Some(p) => builder.chaos(p),
        None => builder.chaos_off(),
    };
    let mut s = builder.build();
    // Traced, so the oracle can count registration's tasks and shuffles.
    s.spark().trace();
    s.register_local_matrix("A", a, 16);
    s.register_local_matrix("B", b, 16);
    s.spark().stop_trace();
    s.set_int("n", n as i64);
    s
}

fn main() {
    let n = 96usize;
    let mut rng = StdRng::seed_from_u64(7);
    let a = LocalMatrix::random(n, n, -1.0, 1.0, &mut rng);
    let b = LocalMatrix::random(n, n, -1.0, 1.0, &mut rng);

    // Fault-free oracle run. Registration's task-launch and shuffle counts
    // are deterministic for a fixed workload, so they locate the query: task
    // `launches + k` is the query's k-th task, and barrier `shuffles` is the
    // query's first map→reduce barrier.
    let oracle = session(n, &a, &b, None);
    let registration = oracle.spark().take_profile();
    let launches: u64 = registration.stages.iter().map(|s| s.tasks as u64).sum();
    let shuffles = registration.shuffle_stage_count() as u64;
    let want = oracle.matrix(SRC).unwrap().to_local();

    // Chaos run: kill one executor a few tasks into the query, then — at the
    // first shuffle's map→reduce barrier — kill whichever executor owns map
    // output 1, guaranteeing the reduce side sees lost outputs and the
    // scheduler must resubmit exactly the missing map partitions.
    let plan = ChaosPlan::new()
        .with_kill_at_task(launches + 3, 0)
        .with_kill_owner_at_barrier(shuffles, 1);
    println!("chaos schedule: {plan:?}\n");

    let chaotic = session(n, &a, &b, Some(plan));
    let analysis = chaotic.explain_analyze(SRC).unwrap();
    let got = chaotic.matrix(SRC).unwrap().to_local();

    println!("{analysis}");
    println!("executor pool after the run:");
    for s in chaotic.spark().executor_status() {
        println!(
            "  executor {}: {} restart(s){}",
            s.executor,
            s.restarts,
            if s.blacklisted { ", blacklisted" } else { "" }
        );
    }

    let rec = &analysis.profile.recovery;
    assert!(
        rec.executors_lost >= 1,
        "the schedule must have killed at least one executor"
    );
    assert!(
        rec.stages_resubmitted >= 1,
        "the barrier kill must have forced a stage resubmission"
    );
    assert_eq!(
        got.max_abs_diff(&want),
        0.0,
        "recovered result must be bit-identical to the fault-free run"
    );
    println!(
        "\nrecovered bit-identically: {} executor(s) lost, {} map output(s) recomputed",
        rec.executors_lost, rec.resubmitted_tasks
    );
}
