//! Per-layer numbers, all taken from outside the program: micro-probes that
//! time calls into each crate's public functions on inputs shaped like the
//! workload's, and folds over what `Context::trace`/`take_profile` and
//! `worker_fetch_stats` already expose.

use crate::metrics::Values;
use crate::stats::{median, percentile, sorted};
use crate::trace::Recorder;
use crate::workloads::{self, Facts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkline::wire::{decode_frame, encode_frame};
use sparkline::{Context, Event, JobProfile, WorkerClient};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;
use tiled::kernel::{self, Backend};
use tiled::{DenseMatrix, TileCoord};

const REPS: usize = 30;

type TileRecord = (TileCoord, DenseMatrix);

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median wall of `REPS` runs of `f`, in seconds.
fn median_secs(rec: &mut Recorder, name: &'static str, mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..REPS).map(|_| secs(rec.span(name, |_| f()).1)).collect();
    median(&walls).max(1e-9)
}

fn random_tile(tile: usize, rng: &mut StdRng) -> DenseMatrix {
    DenseMatrix::from_fn(tile, tile, |_, _| rng.gen_range(0.0..10.0))
}

/// The binary `WorkerGroup::find_binary` will pick: the override, else the
/// nearest `sparkline-worker` in the directories above the running
/// executable, up to one named `target`.
pub fn worker_binary() -> Option<PathBuf> {
    if let Some(path) = std::env::var_os(sparkline::transport::WORKER_BIN_ENV) {
        let path = PathBuf::from(path);
        return path.is_file().then_some(path);
    }
    let exe = std::env::current_exe().ok()?;
    for dir in exe.ancestors().skip(1) {
        let candidate = dir.join("sparkline-worker");
        if candidate.is_file() {
            return Some(candidate);
        }
        if dir.ends_with("target") {
            break;
        }
    }
    None
}

/// What one traced iteration showed.
pub struct Traced {
    pub timed: Duration,
    pub profile: JobProfile,
    /// Wall-clock during which at least one shuffle stage was open.
    pub shuffle_open: Duration,
    /// Latencies of the shuffle fetches this iteration made (worker-process
    /// runs only) and the retries among them.
    pub fetch_us: Vec<u64>,
    pub fetch_retries: u64,
}

/// Length of the union of the intervals of every `shuffle.*` stage. Stages
/// nest (a task that reads a shuffle runs the stages that write it), so
/// their walls cannot be added up.
pub fn shuffle_open(events: &[Event]) -> Duration {
    let mut started = HashMap::new();
    let mut intervals = Vec::new();
    for event in events {
        match event {
            Event::StageStart {
                stage_id,
                label,
                at_micros,
                ..
            } if label.starts_with("shuffle.") => {
                started.insert(*stage_id, *at_micros);
            }
            Event::StageEnd {
                stage_id,
                wall_micros,
            } => {
                if let Some(start) = started.remove(stage_id) {
                    intervals.push((start, start + wall_micros));
                }
            }
            _ => {}
        }
    }
    intervals.sort_unstable();
    let (mut total, mut covered_to) = (0, 0);
    for (start, end) in intervals {
        total += end.saturating_sub(start.max(covered_to));
        covered_to = covered_to.max(end);
    }
    Duration::from_micros(total)
}

/// Fold the traced iterations: every figure is the median over iterations
/// of that iteration's total.
pub fn fold_traces(traced: &[Traced], facts: &Facts, out: &mut Values) {
    let per_iter = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());

    // Jobs are the outermost unit and do not overlap: what is left of the
    // iteration is parsing, planning, lowering and result assembly.
    out.set(
        "sac.outside_stage_ms",
        per_iter(&|t| {
            let in_jobs: u64 = t.profile.jobs.iter().map(|j| j.wall_micros).sum();
            secs(t.timed) * 1e3 - in_jobs as f64 / 1e3
        }),
    );
    out.set(
        "sparkline.context.jobs",
        per_iter(&|t| t.profile.jobs.len() as f64),
    );
    out.set(
        "sparkline.context.stages",
        per_iter(&|t| t.profile.stages.len() as f64),
    );
    out.set(
        "sparkline.context.tasks",
        per_iter(&|t| t.profile.stages.iter().map(|s| s.tasks).sum::<usize>() as f64),
    );
    out.set(
        "sparkline.context.failed_attempts",
        per_iter(&|t| f64::from(t.profile.total_failed_attempts())),
    );

    let bytes = per_iter(&|t| t.profile.total_shuffle_bytes_written() as f64);
    out.set(
        "sparkline.shuffle.rounds",
        per_iter(&|t| t.profile.shuffle_stage_count() as f64),
    );
    out.set("sparkline.shuffle.bytes", bytes);
    out.set(
        "sparkline.shuffle.records",
        per_iter(&|t| {
            let records = t.profile.stages.iter().map(|s| s.shuffle_records_written);
            records.sum::<u64>() as f64
        }),
    );
    out.set(
        "sparkline.shuffle.amplification",
        bytes / facts.operand_bytes.max(1) as f64,
    );
    out.set(
        "sparkline.shuffle.stage_ms",
        per_iter(&|t| secs(t.shuffle_open) * 1e3),
    );

    out.set(
        "planner.replans",
        per_iter(&|t| {
            let replans = t.profile.plan_choices.iter().map(|c| c.replans.len());
            replans.sum::<usize>() as f64
        }),
    );
    // The estimate against the bytes the chosen plan really wrote, as the
    // larger over the smaller; 0 when the iteration shuffled nothing.
    out.set(
        "planner.est_over_wire",
        per_iter(&|t| {
            let choices = &t.profile.plan_choices;
            let est: u64 = choices.iter().map(|c| c.est_shuffle_bytes).sum();
            let wire: u64 = choices
                .iter()
                .map(|c| t.profile.actual_shuffle_bytes_of_tag(&c.chosen))
                .sum();
            match est.min(wire) {
                0 => 0.0,
                low => est.max(wire) as f64 / low as f64,
            }
        }),
    );

    let cache = |t: &Traced| t.profile.cache_totals();
    out.set(
        "sparkline.storage.cache_hits",
        per_iter(&|t| cache(t).hits as f64),
    );
    out.set(
        "sparkline.storage.cache_misses",
        per_iter(&|t| cache(t).misses as f64),
    );
    out.set(
        "sparkline.storage.recomputes",
        per_iter(&|t| cache(t).recomputes as f64),
    );
    out.set(
        "tiled.fused.regions",
        per_iter(&|t| t.profile.fused_regions.len() as f64),
    );

    let fetches = per_iter(&|t| t.fetch_us.len() as f64);
    let mut fetch_us: Vec<f64> = traced
        .iter()
        .flat_map(|t| &t.fetch_us)
        .map(|&us| us as f64)
        .collect();
    fetch_us = sorted(&fetch_us);
    out.set("sparkline.transport.fetches", fetches);
    out.set(
        "sparkline.transport.fetch_us_p50",
        percentile(&fetch_us, 0.50),
    );
    out.set(
        "sparkline.transport.fetch_us_p99",
        percentile(&fetch_us, 0.99),
    );
    out.set(
        "sparkline.transport.fetch_retries",
        per_iter(&|t| t.fetch_retries as f64),
    );
}

/// Scheduler and in-memory shuffle probes, on a fresh in-process context so
/// they read the same whatever plane the workload runs on.
fn probe_runtime(facts: &Facts, rec: &mut Recorder, out: &mut Values) {
    let ctx = Context::builder()
        .workers(workloads::workers())
        .worker_processes(0)
        .chaos_off()
        .build();
    const TASKS: usize = 1024;
    let stage = median_secs(rec, "probe.run_tasks", || {
        black_box(ctx.run_tasks(TASKS, |i| i));
    });
    out.set(
        "sparkline.context.task_overhead_us",
        stage * 1e6 / TASKS as f64,
    );
    let job = median_secs(rec, "probe.job", || {
        black_box(ctx.parallelize((0..8u64).collect(), 8).count());
    });
    out.set("sparkline.context.job_overhead_us", job * 1e6);

    // 128 tile records over 32 keys: map-side combine, bucket, merge.
    let mut rng = StdRng::seed_from_u64(1);
    let records: Vec<TileRecord> = (0..128)
        .map(|i| ((i % 8, (i / 8) % 4), random_tile(facts.tile, &mut rng)))
        .collect();
    let bytes = (records.len() * facts.tile * facts.tile * 8) as f64;
    let data = ctx.parallelize(records, workloads::PARTITIONS);
    let shuffle = median_secs(rec, "probe.reduce_by_key", || {
        let reduced =
            data.reduce_by_key_in_place(workloads::PARTITIONS, |acc, t| acc.add_in_place(&t));
        black_box(reduced.count());
    });
    out.set("sparkline.shuffle.inproc_mbps", bytes / shuffle / 1e6);
}

/// SPKL framing of one `(key, tile)` record. Returns encode and decode
/// seconds per byte.
fn probe_wire(facts: &Facts, rec: &mut Recorder, out: &mut Values) -> (f64, f64) {
    let record: TileRecord = (
        (1, 2),
        random_tile(facts.tile, &mut StdRng::seed_from_u64(2)),
    );
    let frame = encode_frame(&record);
    let bytes = frame.len() as f64;
    let encode = median_secs(rec, "probe.encode_frame", || {
        black_box(encode_frame(black_box(&record)));
    });
    let decode = median_secs(rec, "probe.decode_frame", || {
        black_box(decode_frame::<TileRecord>(black_box(&frame)).is_ok());
    });
    out.set("sparkline.wire.encode_mbps", bytes / encode / 1e6);
    out.set("sparkline.wire.decode_mbps", bytes / decode / 1e6);
    (encode / bytes, decode / bytes)
}

/// PUT/GET/PING of a tile-sized frame against one worker process spawned
/// for the probe. Returns the PUT and GET medians in seconds.
fn probe_transport(
    facts: &Facts,
    rec: &mut Recorder,
    out: &mut Values,
) -> Result<(f64, f64), String> {
    let bin = worker_binary().ok_or("sparkline-worker not found")?;
    let mut child = Command::new(&bin)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let probed = (|| {
        let mut line = String::new();
        BufReader::new(child.stdout.take().ok_or("worker stdout not piped")?)
            .read_line(&mut line)
            .map_err(|e| format!("worker handshake: {e}"))?;
        let port: u16 = line
            .trim()
            .strip_prefix("PORT\t")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("bad worker handshake {line:?}"))?;
        let client = WorkerClient::new(
            SocketAddr::from(([127, 0, 0, 1], port)),
            Duration::from_millis(500),
            Duration::from_secs(2),
        );
        let record: TileRecord = (
            (1, 2),
            random_tile(facts.tile, &mut StdRng::seed_from_u64(3)),
        );
        let frame = encode_frame(&record);
        let mut failed = 0;
        let mut map = 0u64;
        let put = median_secs(rec, "probe.put", || {
            map += 1;
            failed += usize::from(client.put(0, map, 0, frame.clone()).is_err());
        });
        let mut map = 0u64;
        let get = median_secs(rec, "probe.get", || {
            map += 1;
            failed += usize::from(!matches!(client.get(0, map, 0), Ok(Some(_))));
        });
        let ping = median_secs(rec, "probe.ping", || {
            failed += usize::from(client.ping().is_err());
        });
        if failed > 0 {
            return Err(format!("{failed} transport probe requests failed"));
        }
        out.set("sparkline.transport.put_us_p50", put * 1e6);
        out.set("sparkline.transport.get_us_p50", get * 1e6);
        out.set("sparkline.transport.ping_us_p50", ping * 1e6);
        Ok((put, get))
    })();
    // The worker serves until killed; reap it whatever the probe said.
    child.kill().ok();
    child.wait().ok();
    probed
}

/// Tile GEMM at 1 and `workers` threads. Returns seconds per tile product
/// on one thread.
fn probe_kernel(facts: &Facts, rec: &mut Recorder, out: &mut Values) -> f64 {
    let t = facts.tile;
    let mut rng = StdRng::seed_from_u64(4);
    let (a, b) = (random_tile(t, &mut rng), random_tile(t, &mut rng));
    let mut c = vec![0.0; t * t];
    let flops = 2.0 * (t * t * t) as f64;
    let mut gemm = |name, threads| {
        median_secs(rec, name, || {
            kernel::gemm(
                &mut c,
                a.data(),
                b.data(),
                t,
                t,
                t,
                threads,
                Backend::active(),
            );
            black_box(&mut c);
        })
    };
    let one = gemm("probe.gemm_1t", 1);
    let many = gemm("probe.gemm_nt", workloads::workers());
    out.set("tiled.kernel.gemm_gflops_1t", flops / one / 1e9);
    out.set("tiled.kernel.gemm_gflops_nt", flops / many / 1e9);
    one
}

/// Each fused program of the iteration on one tile. Returns the seconds
/// the iteration's tiles take on one thread.
fn probe_fused(facts: &Facts, rec: &mut Recorder, out: &mut Values) -> f64 {
    let len = facts.tile * facts.tile;
    let mut rng = StdRng::seed_from_u64(5);
    let (mut total_secs, mut total_bytes) = (0.0, 0.0);
    for (prog, tiles) in &facts.fused {
        let inputs: Vec<Vec<f64>> = (0..prog.n_slots())
            .map(|_| (0..len).map(|_| rng.gen_range(0.0..10.0)).collect())
            .collect();
        let slots: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let mut result = vec![0.0; len];
        let per_tile = median_secs(rec, "probe.fused_eltwise", || {
            kernel::fused_eltwise_into(prog, &slots, &mut result, Backend::active());
            black_box(&mut result);
        });
        total_secs += per_tile * *tiles as f64;
        total_bytes += ((prog.n_slots() + 1) * len * 8) as f64 * *tiles as f64;
    }
    if total_secs > 0.0 {
        out.set("tiled.fused.gbps", total_bytes / total_secs / 1e9);
    }
    total_secs
}

/// Run every probe and derive each layer's lower bound on one iteration
/// from it: with one client and nothing contending, a layer cannot take
/// less than its own work spread perfectly over the workers.
pub fn probe_layers(
    facts: &Facts,
    iter_ms_p50: f64,
    rec: &mut Recorder,
    out: &mut Values,
) -> Result<(), String> {
    let workers = workloads::workers() as f64;
    let shuffle_bytes = out.get("sparkline.shuffle.bytes").unwrap_or(0.0);
    let fetches = out.get("sparkline.transport.fetches").unwrap_or(0.0);

    probe_runtime(facts, rec, out);
    let (encode_s_per_byte, decode_s_per_byte) = probe_wire(facts, rec, out);
    if facts.worker_processes > 0 {
        // Only a worker-process run frames its shuffle and crosses sockets:
        // every bucket is PUT once and fetched once.
        let wire_s = shuffle_bytes * (encode_s_per_byte + decode_s_per_byte);
        out.set("sparkline.wire.lb_ms", wire_s / workers * 1e3);
        let (put, get) = probe_transport(facts, rec, out)?;
        out.set(
            "sparkline.transport.lb_ms",
            fetches * (put + get) / workers * 1e3,
        );
    }

    let per_product = probe_kernel(facts, rec, out);
    let kernel_lb_ms = facts.gemm_products as f64 * per_product / workers * 1e3;
    out.set(
        "tiled.kernel.flops",
        2.0 * (facts.tile as f64).powi(3) * facts.gemm_products as f64,
    );
    out.set("tiled.kernel.lb_ms", kernel_lb_ms);
    out.set("tiled.kernel.efficiency", kernel_lb_ms / iter_ms_p50);

    let fused_lb_ms = probe_fused(facts, rec, out) / workers * 1e3;
    out.set("tiled.fused.lb_ms", fused_lb_ms);
    out.set("tiled.fused.efficiency", fused_lb_ms / iter_ms_p50);
    Ok(())
}
