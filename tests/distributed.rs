//! Multi-process data plane (ISSUE 8): worker processes host shuffle bytes
//! behind the wire protocol, `kill -9` genuinely loses them, and both
//! recovery paths — external-shuffle-service refetch and, where the spool
//! cannot be written, partial stage resubmission — restore results
//! bit-identical to a fault-free oracle.
//!
//! These tests spawn real `sparkline-worker` processes (built alongside the
//! workspace) and kill them with signal 9 mid-query.

use sac_repro::sac::{MatMulStrategy, Session};
use sac_repro::sparkline::{ChaosPlan, Context, Event, WireFault};
use sac_repro::tiled::LocalMatrix;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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

/// A session for `MATMUL`, its inputs not yet registered.
fn unregistered(
    configure: impl FnOnce(sac_repro::sac::SessionBuilder) -> sac_repro::sac::SessionBuilder,
) -> Session {
    let builder = Session::builder()
        .workers(4)
        .partitions(4)
        .max_task_attempts(8)
        .matmul(MatMulStrategy::ReduceByKey);
    configure(builder).build()
}

/// Register `MATMUL`'s `n x n` inputs, running their ingest shuffles.
fn register(s: &mut Session, n: usize) {
    s.register_local_matrix("A", &int_mat(n, 1), 2);
    s.register_local_matrix("B", &int_mat(n, 2), 2);
    s.set_int("n", n as i64);
}

fn session(
    n: usize,
    configure: impl FnOnce(sac_repro::sac::SessionBuilder) -> sac_repro::sac::SessionBuilder,
) -> Session {
    let mut s = unregistered(configure);
    register(&mut s, n);
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
    assert!(remote.external_shuffle_path(0).is_some());
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
    let s = session(n, |b| b.worker_processes(2).chaos(plan));
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

/// Acceptance: the same kill -9 where no frame could be spooled — a regular
/// file sits where the spool's base directory goes, so every map output
/// stays worker-owned — must recover through partial stage resubmission
/// instead: only the dead worker's map partitions are recomputed, and the
/// result is still bit-identical.
#[test]
fn kill9_mid_matmul_recovers_via_partial_stage_resubmission() {
    let n = 8;
    let want = oracle(n);
    let plan = ChaosPlan::new().with_kill_owner_at_barrier(4, 0);
    let mut s = unregistered(|b| b.worker_processes(2).chaos(plan));
    let spool = s.spark().external_shuffle_path(0).expect("spool is on");
    let base = spool.parent().unwrap().to_path_buf();
    std::fs::write(&base, b"not a directory").unwrap();
    register(&mut s, n);
    s.spark().trace();
    let got = s.matrix(MATMUL).unwrap().to_local();
    let profile = s.spark().take_profile();
    drop(s);
    std::fs::remove_file(&base).unwrap();
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
/// events, and the result is still exact. Injected task failures ride along:
/// each is one traced failed attempt, retried to the same result.
#[test]
fn wire_faults_are_retried_with_backoff_and_do_not_corrupt_results() {
    let local = Context::builder().workers(4).chaos_off().build();
    let task_failures = 2;
    let plan = ChaosPlan::new()
        .with_wire_fault(3, 2, WireFault::Garble)
        .with_wire_fault(5, 2, WireFault::Drop)
        .with_wire_fault(4, 3, WireFault::Delay(50))
        .with_task_failures(3, task_failures);
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
    let events = chaotic.take_events();
    let retries = events
        .iter()
        .filter(|e| matches!(e, Event::FetchRetry { .. }))
        .count();
    let failed: Vec<bool> = events
        .iter()
        .filter_map(|e| match e {
            Event::TaskEnd {
                ok: false,
                injected,
                ..
            } => Some(*injected),
            _ => None,
        })
        .collect();
    assert_eq!(got, run(&local));
    assert!(
        retries >= 2,
        "garbled/dropped fetches must surface as fetch_retry events, saw {retries}"
    );
    assert_eq!(
        failed,
        vec![true; task_failures as usize],
        "exactly the plan's task failures, each marked injected"
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

/// Every key once in each of 4 map partitions, so `reduce_by_key`'s merge
/// closure runs only on the reduce side, after the whole map stage.
fn every_key_in_every_map_partition() -> Vec<(i64, i64)> {
    (0..4)
        .flat_map(|p| (0..40).map(move |k| (k, k * 10 + p)))
        .collect()
}

/// `every_key_in_every_map_partition` summed per key in 4 reduce
/// partitions, sorted; `on_merge` runs before each reduce-side merge.
fn sum_by_key(ctx: &Context, on_merge: impl Fn() + Send + Sync + 'static) -> Vec<(i64, i64)> {
    let mut out = ctx
        .parallelize(every_key_in_every_map_partition(), 4)
        .reduce_by_key(4, move |a, b| {
            on_merge();
            a + b
        })
        .collect();
    out.sort_unstable();
    out
}

fn local_sum_by_key() -> Vec<(i64, i64)> {
    sum_by_key(&Context::builder().workers(2).chaos_off().build(), || {})
}

/// A map task spools its frames as one file, `m{p}`: once the map stage is
/// done, the shuffle's spool directory holds exactly one file per map
/// partition.
#[test]
fn the_spool_holds_one_file_per_map_partition() {
    let ctx = Context::builder()
        .workers(2)
        .worker_processes(2)
        .chaos_off()
        .build();
    let dir = ctx.external_shuffle_path(0).expect("spool is on");
    let listed = Arc::new(Mutex::new(None));
    let seen = listed.clone();
    let got = sum_by_key(&ctx, move || {
        seen.lock().unwrap().get_or_insert_with(|| {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        });
    });
    assert_eq!(got, local_sum_by_key());
    assert_eq!(
        listed.lock().unwrap().as_deref(),
        Some(&["m0", "m1", "m2", "m3"].map(String::from)[..])
    );
}

/// Every worker that holds a map output is killed at the barrier: each of
/// the 16 frames fails its fetch and every retry, and is then decoded from
/// its map task's spool file — with zero resubmissions.
#[test]
fn with_every_worker_killed_at_the_barrier_every_frame_comes_from_the_spool() {
    let plan = (0..4).fold(ChaosPlan::new(), |plan, p| {
        plan.with_kill_owner_at_barrier(0, p)
    });
    let ctx = Context::builder()
        .workers(2)
        .worker_processes(2)
        .chaos(plan)
        .build();
    ctx.trace();
    let got = sum_by_key(&ctx, || {});
    let events = ctx.take_events();
    let profile = sac_repro::sparkline::JobProfile::from_events(&events);
    assert_eq!(got, local_sum_by_key());
    assert!(profile.recovery.workers_lost >= 1, "{:?}", profile.recovery);
    assert_eq!(
        profile.recovery.stages_resubmitted, 0,
        "{:?}",
        profile.recovery
    );
    let mut retries: HashMap<(usize, usize), usize> = HashMap::new();
    for e in &events {
        if let Event::FetchRetry {
            reduce_task,
            map_partition,
            ..
        } = e
        {
            *retries.entry((*reduce_task, *map_partition)).or_default() += 1;
        }
    }
    assert_eq!(retries.len(), 16, "every (reduce, map) frame: {retries:?}");
    assert!(retries.values().all(|n| *n == 3), "{retries:?}");
}

/// A spool file damaged after its map task wrote it — its last byte cut off
/// or flipped — fails the fetch of the frame it breaks, and only that map
/// partition is recomputed: bit-identical output, never a panic or another
/// frame's bucket.
#[test]
fn a_truncated_or_bit_flipped_spool_file_is_a_fetch_failure_and_a_partial_resubmission() {
    type Damage = fn(&mut Vec<u8>);
    let damages: [(&str, Damage); 2] = [
        ("truncated", |file| {
            file.pop();
        }),
        ("bit-flipped", |file| *file.last_mut().unwrap() ^= 0x01),
    ];
    for (what, damage) in damages {
        // One executor, so every output is on worker 0 and the reduce tasks
        // run one after another; its kill at the barrier sends every fetch
        // to the spool. The first merge (reduce partition 0, whose frames
        // are all read) damages map partition 1's file, whose last frame
        // is reduce partition 3's.
        let ctx = Context::builder()
            .workers(1)
            .worker_processes(2)
            .chaos(ChaosPlan::new().with_kill_owner_at_barrier(0, 0))
            .build();
        let file = ctx.external_shuffle_path(0).unwrap().join("m1");
        let damaged = Arc::new(std::sync::Once::new());
        ctx.trace();
        let got = sum_by_key(&ctx, move || {
            damaged.call_once(|| {
                let mut bytes = std::fs::read(&file).unwrap();
                damage(&mut bytes);
                std::fs::write(&file, bytes).unwrap();
            });
        });
        let recovery = ctx.take_profile().recovery;
        assert_eq!(got, local_sum_by_key(), "{what}");
        assert!(recovery.fetch_failures >= 1, "{what}: {recovery:?}");
        assert_eq!(
            (recovery.stages_resubmitted, recovery.resubmitted_tasks),
            (1, 1),
            "{what}: only map partition 1 is recomputed: {recovery:?}"
        );
    }
}

/// The fetch-latency series grows only while the context traces: an
/// untraced multi-process run records nothing, a traced one one sample per
/// fetch.
#[test]
fn fetch_latencies_are_recorded_only_while_tracing() {
    let ctx = Context::builder()
        .workers(2)
        .worker_processes(2)
        .chaos_off()
        .build();
    let want = local_sum_by_key();
    assert_eq!(sum_by_key(&ctx, || {}), want);
    assert_eq!(ctx.worker_fetch_stats(), Some((Vec::new(), 0)));
    ctx.trace();
    assert_eq!(sum_by_key(&ctx, || {}), want);
    let (latencies, retries) = ctx.worker_fetch_stats().unwrap();
    assert_eq!((latencies.len(), retries), (4 * 4, 0));
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
