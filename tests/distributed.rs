//! Multi-process data plane (ISSUE 8): worker processes host shuffle bytes
//! behind the wire protocol, `kill -9` genuinely loses them, and both
//! recovery paths — external-shuffle-service refetch and partial stage
//! resubmission — restore results bit-identical to a fault-free oracle.
//!
//! These tests spawn real `sparkline-worker` processes (built alongside the
//! workspace) and kill them with signal 9 mid-query.

use sac_repro::sac::{MatMulStrategy, Session};
use sac_repro::sparkline::{ChaosPlan, Context, Event, WireFault};
use sac_repro::tiled::LocalMatrix;
use std::collections::HashMap;

/// The paper's Fig. 4 matmul comprehension — one contraction shuffle whose
/// map outputs live in worker processes in multi-process mode.
const MATMUL: &str = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, \
     let v = a*b, group by (i,j) ]";

/// Integer-valued inputs: f64 summation over small integers is exact, so
/// any reduction/recovery order must yield bit-identical results.
fn int_mat(n: usize, seed: u64) -> LocalMatrix {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    LocalMatrix::from_fn(n, n, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 7) as f64 - 3.0
    })
}

fn session(
    n: usize,
    configure: impl FnOnce(sac_repro::sac::SessionBuilder) -> sac_repro::sac::SessionBuilder,
) -> Session {
    let builder = Session::builder()
        .workers(4)
        .partitions(4)
        .max_task_attempts(8)
        .max_stage_attempts(12)
        .matmul(MatMulStrategy::ReduceByKey);
    let mut s = configure(builder).build();
    s.register_local_matrix("A", &int_mat(n, 1), 2);
    s.register_local_matrix("B", &int_mat(n, 2), 2);
    s.set_int("n", n as i64);
    s
}

fn oracle(n: usize) -> LocalMatrix {
    let s = session(n, |b| b.chaos_off());
    s.matrix(MATMUL).unwrap().to_local()
}

#[test]
fn multi_process_shuffle_matches_local_oracle() {
    let local = Context::builder().workers(4).chaos_off().build();
    let remote = Context::builder()
        .workers(4)
        .worker_processes(2)
        .chaos_off()
        .build();
    assert_eq!(remote.worker_processes(), 2);
    assert!(remote.external_shuffle_enabled());
    let data: Vec<(i64, i64)> = (0..500).map(|i| (i % 37, i)).collect();
    let run = |ctx: &Context| {
        let mut out = ctx
            .parallelize(data.clone(), 8)
            .reduce_by_key(4, |a, b| a + b)
            .collect();
        out.sort_unstable();
        out
    };
    assert_eq!(run(&remote), run(&local));
}

/// Acceptance: chaos kill -9's a live worker mid-matmul; with the external
/// shuffle service on, reduce tasks refetch the lost map outputs from the
/// spool and the job completes bit-identical with ZERO stage resubmissions.
#[test]
fn kill9_mid_matmul_recovers_via_external_refetch_no_resubmission() {
    let n = 8;
    let want = oracle(n);
    // Kill the owner of map partition 0 of the contraction's reduceByKey
    // shuffle at its map→reduce barrier: deterministically after its map
    // outputs were PUT to the worker processes, before any reduce task
    // fetched them. Barriers 0-3 are the two ingest partitionBys and the
    // cogroup's left/right shuffles; barrier 4 is the contraction. In
    // multi-process mode the executor kill promotes to kill -9 on the
    // hosting worker process.
    let plan = ChaosPlan::new().with_kill_owner_at_barrier(4, 0);
    let s = session(n, |b| {
        b.worker_processes(2).external_shuffle(true).chaos(plan)
    });
    s.spark().trace();
    let got = s.matrix(MATMUL).unwrap().to_local();
    let profile = s.spark().take_profile();
    assert_eq!(got, want, "recovered result must be bit-identical");
    assert!(
        profile.recovery.workers_lost >= 1,
        "the kill -9 must be visible in the trace: {:?}",
        profile.recovery
    );
    assert_eq!(
        profile.recovery.stages_resubmitted, 0,
        "external shuffle service must recover without resubmission: {:?}",
        profile.recovery
    );
}

/// Acceptance: the same kill -9 with the external shuffle service DISABLED
/// must recover through partial stage resubmission instead — only the dead
/// worker's map partitions are recomputed — and still be bit-identical.
#[test]
fn kill9_mid_matmul_recovers_via_partial_stage_resubmission() {
    let n = 8;
    let want = oracle(n);
    let plan = ChaosPlan::new().with_kill_owner_at_barrier(4, 0);
    let s = session(n, |b| {
        b.worker_processes(2).external_shuffle(false).chaos(plan)
    });
    assert!(!s.spark().external_shuffle_enabled());
    s.spark().trace();
    let got = s.matrix(MATMUL).unwrap().to_local();
    let profile = s.spark().take_profile();
    assert_eq!(got, want, "recovered result must be bit-identical");
    assert!(
        profile.recovery.workers_lost >= 1,
        "the kill -9 must be visible in the trace: {:?}",
        profile.recovery
    );
    assert!(
        profile.recovery.stages_resubmitted >= 1,
        "without the external service, recovery must resubmit the lost \
         map partitions: {:?}",
        profile.recovery
    );
    assert!(
        profile.recovery.resubmitted_tasks < 16,
        "resubmission must be partial (only the lost partitions), got {:?}",
        profile.recovery
    );
}

/// Wire-level chaos: garbled frames fail the CRC check and dropped streams
/// error out; bounded retry with backoff absorbs both, emits `fetch_retry`
/// events, and the result is still exact.
#[test]
fn wire_faults_are_retried_with_backoff_and_do_not_corrupt_results() {
    let local = Context::builder().workers(4).chaos_off().build();
    let plan = ChaosPlan::new()
        .with_wire_fault(3, 2, WireFault::Garble)
        .with_wire_fault(5, 2, WireFault::Drop)
        .with_wire_fault(4, 3, WireFault::Delay(50));
    let chaotic = Context::builder()
        .workers(4)
        .worker_processes(2)
        .chaos(plan)
        .build();
    chaotic.trace();
    let data: Vec<(i64, i64)> = (0..400).map(|i| (i % 23, i * i)).collect();
    let run = |ctx: &Context| {
        let mut out = ctx
            .parallelize(data.clone(), 6)
            .reduce_by_key(4, |a, b| a + b)
            .collect();
        out.sort_unstable();
        out
    };
    let got = run(&chaotic);
    let retries = chaotic
        .take_events()
        .iter()
        .filter(|e| matches!(e, Event::FetchRetry { .. }))
        .count();
    assert_eq!(got, run(&local));
    assert!(
        retries >= 2,
        "garbled/dropped fetches must surface as fetch_retry events, saw {retries}"
    );
}

/// Tentpole observability claim: traced shuffle byte accounting is the TRUE
/// serialized wire length — identical whether the bytes crossed a process
/// boundary (multi-process) or were only measured (local traced run), and
/// reads account exactly the frames that were written.
#[test]
fn traced_shuffle_bytes_are_true_wire_bytes_in_both_modes() {
    let data: Vec<(i64, i64)> = (0..300).map(|i| (i % 17, i)).collect();
    let totals = |worker_processes: usize| {
        let mut b = Context::builder().workers(4).chaos_off();
        if worker_processes > 0 {
            b = b.worker_processes(worker_processes);
        }
        let ctx = b.build();
        ctx.trace();
        ctx.parallelize(data.clone(), 5)
            .reduce_by_key(3, |a, b| a + b)
            .collect();
        let mut written = HashMap::new();
        let mut read = 0u64;
        for e in ctx.take_events() {
            match e {
                Event::ShuffleWrite {
                    shuffle_id,
                    task,
                    bytes,
                    ..
                } => {
                    // Resubmissions overwrite; count each map output once.
                    written.insert((shuffle_id, task), bytes);
                }
                Event::ShuffleRead { bytes, .. } => read += bytes,
                _ => {}
            }
        }
        (written.values().sum::<u64>(), read)
    };
    let (local_written, local_read) = totals(0);
    let (remote_written, remote_read) = totals(2);
    assert!(local_written > 0);
    assert_eq!(
        local_written, remote_written,
        "local traced runs must account the same serialized frame bytes \
         that multi-process runs actually transfer"
    );
    assert_eq!(
        remote_written, remote_read,
        "every written frame is fetched exactly once"
    );
    assert_eq!(local_read, remote_read);
}

/// Killing a worker process between jobs must not poison the context: the
/// supervisor respawns the slot and later shuffles use the fresh process.
#[test]
fn explicit_kill_worker_respawns_and_later_jobs_succeed() {
    let ctx = Context::builder()
        .workers(4)
        .worker_processes(2)
        .chaos_off()
        .build();
    let data: Vec<(i64, i64)> = (0..100).map(|i| (i % 11, i)).collect();
    let run = |ctx: &Context| {
        let mut out = ctx
            .parallelize(data.clone(), 4)
            .reduce_by_key(3, |a, b| a + b)
            .collect();
        out.sort_unstable();
        out
    };
    let first = run(&ctx);
    assert!(ctx.kill_worker(0));
    assert!(ctx.kill_worker(1));
    assert!(!ctx.kill_worker(2), "unknown worker id");
    assert_eq!(run(&ctx), first, "respawned workers serve later shuffles");
}

/// The external spool is an optimisation of recovery, not a precondition: a
/// map task that cannot write it (full or unwritable temp dir) must keep its
/// output worker-owned and carry on, not burn task attempts on the I/O error.
#[test]
fn unwritable_spool_degrades_to_worker_owned_outputs() {
    let local = Context::builder().workers(4).chaos_off().build();
    let remote = Context::builder()
        .workers(4)
        .worker_processes(2)
        .chaos_off()
        .build();
    // A regular file where the first shuffle's spool directory would go.
    let spool = remote.external_shuffle_path(0).expect("spool is on");
    std::fs::create_dir_all(spool.parent().unwrap()).unwrap();
    std::fs::write(&spool, b"not a directory").unwrap();
    let data: Vec<(i64, i64)> = (0..500).map(|i| (i % 37, i)).collect();
    let run = |ctx: &Context| {
        let mut out = ctx
            .parallelize(data.clone(), 8)
            .reduce_by_key(4, |a, b| a + b)
            .collect();
        out.sort_unstable();
        out
    };
    remote.trace();
    assert_eq!(run(&remote), run(&local));
    assert_eq!(remote.take_profile().total_failed_attempts(), 0);
}

/// Building a multi-process context never touches the temp dir: with
/// `TMPDIR` beneath a regular file, where no directory can ever be created,
/// the context still builds and its shuffles still run. The test re-runs
/// itself in a child process with that `TMPDIR`, since the variable is
/// process-wide.
#[test]
fn a_temp_dir_that_cannot_exist_does_not_stop_a_multi_process_context() {
    const NAME: &str = "a_temp_dir_that_cannot_exist_does_not_stop_a_multi_process_context";
    let tmp = std::env::temp_dir();
    if tmp.parent().is_some_and(|p| p.is_file()) {
        let local = Context::builder().workers(4).chaos_off().build();
        let remote = Context::builder()
            .workers(4)
            .worker_processes(2)
            .chaos_off()
            .build();
        let data: Vec<(i64, i64)> = (0..500).map(|i| (i % 37, i)).collect();
        let run = |ctx: &Context| {
            let mut out = ctx
                .parallelize(data.clone(), 8)
                .reduce_by_key(4, |a, b| a + b)
                .collect();
            out.sort_unstable();
            out
        };
        assert_eq!(run(&remote), run(&local));
        return;
    }
    let file = tmp.join(format!("sparkline-not-a-dir-{}", std::process::id()));
    std::fs::write(&file, b"a regular file").unwrap();
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args([NAME, "--exact", "--nocapture", "--test-threads=1"])
        .env("TMPDIR", file.join("tmp"))
        .output()
        .unwrap();
    std::fs::remove_file(&file).unwrap();
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(
        child.status.success() && stdout.contains("1 passed"),
        "child failed: {stdout}{}",
        String::from_utf8_lossy(&child.stderr)
    );
}

/// `WorkerGroup::drop` on the heartbeat thread: the heartbeat holds a strong
/// ref for the length of a sweep, so when the owner drops meanwhile the last
/// ref dies over there. It must neither join itself (that panicked with
/// "Resource deadlock avoided") nor skip reaping the children.
#[test]
fn worker_group_dropped_on_its_heartbeat_thread_still_reaps_the_children() {
    use sac_repro::sparkline::transport::{WorkerConfig, WorkerGroup};
    use std::process::{Command, Stdio};
    use std::sync::{mpsc, Mutex};
    use std::time::{Duration, Instant};
    // A zero connect timeout is an error in std, so every ping fails, and a
    // zero deadline declares the worker dead on the first sweep: the
    // heartbeat respawns it and runs the callback, strong ref held.
    let config = WorkerConfig {
        connect_timeout: Duration::ZERO,
        liveness_deadline: Duration::ZERO,
        heartbeat_interval: Duration::from_millis(1),
        ..WorkerConfig::default()
    };
    let group = WorkerGroup::spawn(1, config).unwrap();
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    group.set_on_worker_lost(move |_| {
        entered_tx.send(()).ok();
        release_rx.lock().unwrap().recv().ok();
    });
    entered_rx.recv().unwrap();
    let pid = group.pid(0).to_string();
    // The heartbeat is parked in the callback: ours is the last ref but one,
    // so `WorkerGroup::drop` runs over there once it is released.
    drop(group);
    release_tx.send(()).unwrap();
    // `kill -0` succeeds on a live or zombie pid, fails on a reaped one.
    let gone = || {
        let probe = Command::new("kill")
            .args(["-0", &pid])
            .stderr(Stdio::null())
            .status();
        !probe.unwrap().success()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !gone() {
        assert!(Instant::now() < deadline, "worker {pid} was never reaped");
        std::thread::sleep(Duration::from_millis(5));
    }
}
