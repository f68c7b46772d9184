//! `ledger` — one harness for the paper's Fig. 4 workloads.
//!
//! ```text
//! ledger --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <file>]
//! ledger --all             --seed <u64> --seconds <n> --trace <0|1> [--out <file>]
//! ledger compare <a.jsonl> <b.jsonl>
//! ```
//!
//! A run is a closed loop with one client: set up, warm up, then issue
//! iterations back to back for `--seconds`, checking every result outside
//! the timers. `--trace 0` reports the end-to-end metrics, its times
//! corrected for the neighbours' load by a reference sample (`calib.rs`);
//! `--trace 1` (or `--layers`) is a separate pass that reports the per-layer
//! metrics from micro-probes and traced iterations. Every metric is printed as
//! `name unit value`, the last line of standard output is the run's JSON
//! record, and `--out` appends that record (with a header) to a file that
//! `ledger compare` reads. See README.md beside this package's manifest.

mod calib;
mod compare;
mod json;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{Values, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::{Scale, Workload, WORKLOADS};

/// Warm-up iterations inside every set-up.
const WARMUPS: usize = 3;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Iterations run with `Context::trace()` on in the layers pass.
const TRACED_ITERS: usize = 3;
/// Most iterations of each comparator (MLlib, in-process twin) in the layers pass.
const COMPARATOR_ITERS: usize = 10;
/// A run never reports fewer timed iterations than this, however slow; peak
/// memory is read when exactly this many are done, so that a faster machine
/// (more iterations in the same seconds) does not read as a bigger program.
const MIN_ITERS: usize = 8;

/// Knobs that would silently change what is measured.
const FORBIDDEN_ENV: [&str; 5] = [
    "SPARKLINE_CHAOS",
    "SPARKLINE_STORAGE_BUDGET",
    "SPARKLINE_WORKER_PROCS",
    "SAC_KERNEL",
    "SAC_ADAPTIVE",
];

const BUILD_HINT: &str = "cargo build --release --manifest-path ledger/Cargo.toml";

struct Options {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: ledger (--workload <name> | --all) [--seed <u64>] [--seconds <n>] \
         [--trace <0|1> | --layers] [--out <file>]\n       ledger compare <a.jsonl> <b.jsonl>\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        all: false,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--all" => o.all = true,
            "--layers" => o.trace = true,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    match (&o.workload, o.all) {
        (Some(name), false) if WORKLOADS.iter().any(|(n, _)| n == name) => Ok(o),
        (Some(name), false) => Err(format!("unknown workload {name}\n{}", usage())),
        (None, true) => Ok(o),
        _ => Err(format!(
            "give exactly one of --workload and --all\n{}",
            usage()
        )),
    }
}

/// Refuse to measure under a configuration the numbers would not name.
fn hygiene() -> Result<(), String> {
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set; the ledger measures the default configuration only — unset it"
        ));
    }
    if layers::worker_binary().is_none() {
        return Err(format!(
            "sparkline-worker is neither beside the ledger executable nor at \
             ${}; build both with `{BUILD_HINT}`",
            sparkline::transport::WORKER_BIN_ENV
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return match args.as_slice() {
            [_, a, b] => match compare::compare(Path::new(a), Path::new(b)) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => fail(&e),
            },
            _ => fail(&usage()),
        };
    }
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    if let Err(e) = hygiene() {
        return fail(&e);
    }
    let outcome = match &options.workload {
        Some(name) => run_workload(name, &options),
        None => run_all(&options),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("ledger: {message}");
    ExitCode::from(2)
}

/// Each workload in a process of its own, so peak memory and warmed state
/// of one cannot leak into the next.
fn run_all(o: &Options) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for (name, _) in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }]);
        if let Some(out) = &o.out {
            cmd.arg("--out").arg(out);
        }
        let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name} exited with {status}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

/// Iterations attempted and failed (an `Err` or a wrong result), warm-ups
/// included.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    verify_ms: Vec<f64>,
}

impl Tally {
    /// Verification time so far, seconds.
    fn verified_s(&self) -> f64 {
        self.verify_ms.iter().sum::<f64>() / 1e3
    }

    fn record(&mut self, it: &workloads::Iter) {
        self.attempted += 1;
        self.failed += u64::from(!it.ok);
        self.verify_ms.push(ms(it.verify));
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One iteration under an `iter` span; returns its timed wall in ms.
fn iterate(w: &dyn Workload, rec: &mut Recorder, tally: &mut Tally) -> f64 {
    rec.iter += 1;
    let (it, _) = rec.span("iter", |rec| w.iterate(rec));
    tally.record(&it);
    ms(it.timed)
}

/// Build the workload and warm it up `setups` times (dropping each before
/// the next); returns the last one and the median set-up time in seconds,
/// verification of the warm-ups taken out.
fn set_up(
    name: &str,
    seed: u64,
    scale: Scale,
    setups: usize,
    rec: &mut Recorder,
    tally: &mut Tally,
    mut before_setup: impl FnMut(),
) -> (Box<dyn Workload>, f64) {
    let mut built = None;
    let mut walls = Vec::with_capacity(setups);
    for _ in 0..setups {
        drop(built.take());
        before_setup();
        let verified_before = tally.verified_s();
        let (w, wall) = rec.span("setup", |rec| {
            let w = workloads::build(name, seed, scale).expect("workload name was checked");
            for _ in 0..WARMUPS {
                iterate(&*w, rec, tally);
            }
            w
        });
        walls.push(wall.as_secs_f64() - (tally.verified_s() - verified_before));
        built = Some(w);
    }
    (built.expect("at least one set-up"), stats::median(&walls))
}

/// Closed loop for `seconds`: the next iteration is issued when the
/// previous result has been collected and checked. `after_iter` is told how
/// many iterations are done. Returns timed walls, ms.
fn measure(
    w: &dyn Workload,
    seconds: f64,
    rec: &mut Recorder,
    tally: &mut Tally,
    mut after_iter: impl FnMut(usize),
) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut walls = Vec::new();
    while walls.len() < MIN_ITERS || Instant::now() < deadline {
        walls.push(iterate(w, rec, tally));
        after_iter(walls.len());
    }
    walls
}

/// `VmHWM` of this process plus every `sparkline-worker` child, in MB.
fn peak_rss_mb() -> f64 {
    fn field(status: &str, key: &str) -> Option<u64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        line[key.len()..].split_whitespace().next()?.parse().ok()
    }
    let me = std::process::id() as u64;
    let mut kb = 0;
    for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        let Ok(status) = std::fs::read_to_string(entry.path().join("status")) else {
            continue;
        };
        // The kernel cuts a process name at 15 characters.
        let worker = field(&status, "PPid:") == Some(me)
            && status
                .lines()
                .next()
                .is_some_and(|l| l.ends_with("sparkline-worke"));
        if pid == me || worker {
            kb += field(&status, "VmHWM:").unwrap_or(0);
        }
    }
    kb as f64 / 1024.0
}

/// User plus system CPU time of this process so far, in seconds (fields 14
/// and 15 of `/proc/self/stat`, in the kernel's 100 Hz ticks).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The process name (field 2) may hold spaces; count from its `)`.
    let after_name = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

fn end_to_end(name: &str, o: &Options, rec: &mut Recorder, tally: &mut Tally) -> Values {
    let mut calibration = calib::Calibration::new(workloads::workers());
    let (w, setup_s) = set_up(name, o.seed, Scale::Full, SETUPS, rec, tally, || {
        calibration.sample()
    });
    // Read while the session (and its worker processes) is still alive.
    let mut rss = 0.0;
    let walls = measure(&*w, o.seconds, rec, tally, |done| {
        calibration.sample_if_due();
        if done == MIN_ITERS {
            rss = peak_rss_mb();
        }
    });
    let walls = stats::sorted(&walls);
    let (p50, p25) = (
        stats::percentile(&walls, 0.50),
        stats::percentile(&walls, 0.25),
    );
    // Times are corrected for the neighbours' load (see calib.rs); the
    // uncorrected ones go out beside them as `info raw_*`.
    let factor = calibration.factor();
    let mut v = Values::default();
    v.set("iter_ms_p50", p50 * factor);
    v.set("iter_ms_p25", p25 * factor);
    v.set("peak_rss_mb", rss);
    v.set("setup_s", setup_s * factor);
    v.set("raw_iter_ms_p50", p50);
    v.set("raw_iter_ms_p25", p25);
    v.set("raw_iter_ms_p75", stats::percentile(&walls, 0.75));
    v.set(
        "raw_iters_per_s",
        walls.len() as f64 / (walls.iter().sum::<f64>() / 1e3),
    );
    v.set("raw_setup_s", setup_s);
    v.set("reference_ms", calibration.reference_ms());
    v.set("iterations", walls.len() as f64);
    v
}

fn per_layer(
    name: &str,
    o: &Options,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<Values, String> {
    let (mut w, _) = set_up(name, o.seed, Scale::Full, 1, rec, tally, || ());
    let facts = w.facts();
    let mut v = Values::default();

    // Untraced reference for this pass; the reported end-to-end numbers
    // always come from a `--trace 0` run. Tracing makes an in-process run
    // serialize its shuffle, so the share of the workers kept busy is taken
    // here: process CPU time over workers × wall, with verification (one
    // CPU-bound thread) taken out of both.
    let (cpu, verified) = (cpu_seconds(), tally.verified_s());
    let walls = measure(&*w, o.seconds * 0.3, rec, tally, |_| ());
    let verified = tally.verified_s() - verified;
    v.set(
        "sparkline.context.busy_frac",
        (cpu_seconds() - cpu - verified).max(0.0)
            / (workloads::workers() as f64 * walls.iter().sum::<f64>() / 1e3),
    );
    let untraced = stats::median(&walls);
    v.set("ledger.iter_ms_p50", untraced);

    let ctx = w.session().spark().clone();
    let fetched = || ctx.worker_fetch_stats().unwrap_or_default();
    let mut traced = Vec::with_capacity(TRACED_ITERS);
    ctx.trace();
    for _ in 0..TRACED_ITERS {
        let (seen, retried) = fetched();
        let timed = Duration::from_secs_f64(iterate(&*w, rec, tally) / 1e3);
        let (mut fetch_us, retries) = fetched();
        let events = ctx.take_events();
        traced.push(layers::Traced {
            timed,
            profile: sparkline::JobProfile::from_events(&events),
            shuffle_open: layers::shuffle_open(&events),
            fetch_us: fetch_us.split_off(seen.len()),
            fetch_retries: retries - retried,
        });
    }
    ctx.stop_trace();
    let traced_ms: Vec<f64> = traced.iter().map(|t| ms(t.timed)).collect();
    layers::fold_traces(&traced, &facts, &mut v);
    v.set(
        "ledger.trace_overhead_frac",
        stats::median(&traced_ms) / untraced - 1.0,
    );

    let costs = w.compile_costs(rec);
    v.set("comp.compile_us", costs.comp_us);
    v.set("planner.plan_us", costs.plan_us);
    layers::probe_layers(&facts, untraced, rec, &mut v)?;

    // MLlib's multiply takes seconds where SAC's takes tenths: one
    // iteration at least, more only while they fit the pass.
    let comparator_until = Instant::now() + Duration::from_secs_f64(o.seconds * 0.2);
    let mllib: Vec<f64> = (0..COMPARATOR_ITERS)
        .take_while(|i| *i == 0 || Instant::now() < comparator_until)
        .map_while(|_| rec.span("mllib", |_| w.iterate_mllib()).0)
        .map(ms)
        .collect();
    if !mllib.is_empty() {
        v.set("mllib.iter_ms_p50", stats::median(&mllib));
        v.set("mllib.ratio", untraced / stats::median(&mllib));
    }
    if facts.worker_processes > 0 {
        // The same query and data with the shuffle kept in memory.
        drop(w);
        let twin = workloads::in_process_twin(name, o.seed).expect("worker-process workload");
        let walls: Vec<f64> = (0..WARMUPS + COMPARATOR_ITERS)
            .map(|_| iterate(&*twin, rec, tally))
            .collect();
        v.set(
            "sparkline.transport.procs_over_inproc",
            untraced / stats::median(&walls[WARMUPS..]),
        );
    }
    v.set("ledger.verify_ms", stats::median(&tally.verify_ms));
    Ok(v)
}

fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn run_workload(name: &str, o: &Options) -> Result<(), String> {
    let header = [
        ("workload", Json::from(name)),
        ("seed", Json::from(o.seed)),
        ("seconds", Json::from(o.seconds)),
        ("trace", Json::Bool(o.trace)),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("workers", Json::from(workloads::workers() as u64)),
        ("partitions", Json::from(workloads::PARTITIONS as u64)),
        ("kernel", Json::from(tiled::kernel::signature().as_str())),
        ("git", Json::from(git_head().as_str())),
    ];
    for (key, value) in &header {
        println!("# {key} {value}");
    }

    let mut rec = Recorder::new(o.trace);
    let mut tally = Tally::default();
    let values = if o.trace {
        per_layer(name, o, &mut rec, &mut tally)?
    } else {
        end_to_end(name, o, &mut rec, &mut tally)
    };

    // A metric that does not apply to this workload reads 0.
    let table: Vec<(&str, &str)> = if o.trace {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut reported = Vec::new();
    for (metric, unit) in table {
        let value = values.get(metric).unwrap_or(0.0);
        println!("{metric} {unit} {value}");
        reported.push((
            metric,
            Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
        ));
    }
    // Shown and recorded, not gated.
    let mut info = vec![(
        "failed_frac",
        "fraction",
        tally.failed as f64 / tally.attempted as f64,
    )];
    for (metric, unit) in metrics::INFO {
        info.extend(values.get(metric).map(|value| (metric, unit, value)));
    }
    for (metric, unit, value) in &info {
        println!("info {metric} {unit} {value}");
    }
    let result = [
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        ("metrics", Json::obj(reported)),
    ];

    if let Some(out) = &o.out {
        let info = info
            .iter()
            .map(|(metric, _, value)| (*metric, Json::from(*value)));
        let info = [("info", Json::obj(info))];
        let record = Json::obj(header.iter().chain(&result).chain(&info).cloned());
        append_line(out, &record.to_string())?;
        if o.trace {
            let path = out.with_file_name(format!("ledger_trace_{name}.json"));
            std::fs::write(&path, format!("{}\n", rec.to_json()))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    println!("{}", Json::obj(result));
    Ok(())
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    use std::io::Write;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("append to {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_equal_benchmark_json() {
        let declared = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            let items = declared.get(key).expect("key present").arr();
            items
                .iter()
                .map(|m| m.get("name").and_then(Json::str).unwrap().to_string())
                .collect()
        };
        let ours: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names("workloads"), ours);
        let ours: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names("end_to_end"), ours);
        let ours: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names("per_layer"), ours);
        for name in names("workloads")
            .iter()
            .chain(&names("end_to_end"))
            .chain(&names("per_layer"))
        {
            assert!(is_name(name), "{name}");
        }

        for (m, d) in END_TO_END
            .iter()
            .zip(declared.get("end_to_end").unwrap().arr())
        {
            assert_eq!(d.get("unit").and_then(Json::str), Some(m.unit));
            assert_eq!(d.get("better").and_then(Json::str), Some(m.better));
            assert_eq!(d.get("bound").and_then(Json::num), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        for ((_, unit, better), d) in PER_LAYER
            .iter()
            .zip(declared.get("per_layer").unwrap().arr())
        {
            assert_eq!(d.get("unit").and_then(Json::str), Some(*unit));
            assert_eq!(d.get("better").and_then(Json::str), Some(*better));
        }
        for ((_, why), d) in WORKLOADS
            .iter()
            .zip(declared.get("workloads").unwrap().arr())
        {
            assert_eq!(d.get("why").and_then(Json::str), Some(*why));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let paths = declared.get("paths").unwrap().arr();
        assert_eq!(paths, [Json::from("ledger")]);
    }

    #[test]
    fn both_passes_emit_exactly_the_declared_metrics_at_tiny_size() {
        for (name, _) in WORKLOADS {
            let mut rec = Recorder::new(true);
            let mut tally = Tally::default();
            let (mut w, setup_s) = set_up(name, 7, Scale::Tiny, 2, &mut rec, &mut tally, || ());
            assert!(setup_s > 0.0);
            let walls = measure(&*w, 0.01, &mut rec, &mut tally, |_| ());
            assert!(walls.len() >= MIN_ITERS && walls.iter().all(|w| *w > 0.0));
            assert_eq!(tally.attempted as usize, 2 * WARMUPS + walls.len());
            assert_eq!(tally.failed, 0, "{name}");
            assert!(peak_rss_mb() > 1.0);

            // The layers pass, minus its clock-driven loops.
            let ctx = w.session().spark().clone();
            ctx.trace();
            let timed = Duration::from_secs_f64(iterate(&*w, &mut rec, &mut tally) / 1e3);
            let traced = [layers::Traced {
                timed,
                profile: ctx.take_profile(),
                shuffle_open: Duration::ZERO,
                fetch_us: ctx.worker_fetch_stats().unwrap_or_default().0,
                fetch_retries: 0,
            }];
            ctx.stop_trace();
            let facts = w.facts();
            let mut v = Values::default();
            layers::fold_traces(&traced, &facts, &mut v);
            layers::probe_layers(&facts, 1.0, &mut rec, &mut v).expect("probes run");
            w.compile_costs(&mut rec);
            assert!(v.get("sparkline.context.jobs").unwrap() >= 1.0);
            assert!(v.get("tiled.kernel.gemm_gflops_1t").unwrap() > 0.0);
            if name == "eltwise_chain" {
                assert_eq!(v.get("sparkline.shuffle.rounds"), Some(0.0));
                assert_eq!(v.get("tiled.kernel.flops"), Some(0.0));
                assert!(v.get("tiled.fused.regions").unwrap() >= 1.0);
            }
            assert_eq!(
                v.get("sparkline.transport.put_us_p50").is_some(),
                name == "matmul_procs"
            );
            if name == "matmul_procs" {
                assert!(v.get("sparkline.transport.fetches").unwrap() > 0.0);
                assert!(workloads::in_process_twin(name, 7).is_some());
            }
            for emitted in v.names() {
                assert!(
                    PER_LAYER.iter().any(|(n, _, _)| *n == emitted),
                    "{emitted} is not declared"
                );
            }
            assert!(rec.spans().iter().any(|s| s.name == "setup"));
            assert!(rec.spans().iter().any(|s| s.name.starts_with("probe.")));
        }
    }

    #[test]
    fn a_wrong_result_is_counted_as_failed() {
        let mut tally = Tally::default();
        let mut it = workloads::Iter {
            timed: Duration::from_millis(3),
            verify: Duration::from_millis(1),
            ok: true,
        };
        tally.record(&it);
        it.ok = false;
        tally.record(&it);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.verify_ms, [1.0, 1.0]);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args(
            "--workload matmul_procs --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("matmul_procs"));
        assert_eq!((o.seed, o.seconds, o.trace), (9, 3.0, true));
        assert!(parse(&args("--all --layers")).unwrap().trace);
        for bad in [
            "",
            "--workload smooth",
            "--workload matmul_procs --all",
            "--all --trace 2",
            "--all --seconds 0",
            "--all --seed x",
            "--all --bogus",
            "--all --out",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }
}
