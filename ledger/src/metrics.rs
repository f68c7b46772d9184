//! The metric tables: what `BENCHMARK.json` declares, in the same order. A
//! test keeps the two equal.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// the change counts as a regression.
    pub bound: f64,
}

/// What a user of the system sees, the same four for every workload. The
/// three times are corrected for the neighbours' load (`calib.rs`); the
/// bounds are still wide because what is left after the correction is a
/// spread of 4–11 % between runs (README, "Steadiness").
///
/// The share of iterations that failed is not among them because a metric
/// here may never read 0; it travels as `failed`/`attempted` in every record
/// and `ledger compare` refuses any rise.
pub const END_TO_END: [EndToEnd; 4] = [
    // Median wall of one timed iteration, result collected inside the timer.
    // A run holds 20–85 iterations, so the median is also the highest
    // percentile that always has ten samples beyond it.
    EndToEnd {
        name: "iter_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    // Lower quartile of the same samples. Interference only ever adds time,
    // so this is the steadier estimate of the program's own speed.
    EndToEnd {
        name: "iter_ms_p25",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    // VmHWM of the driver plus every sparkline-worker child after set-up and
    // the first eight timed iterations.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    // Session build (+ worker spawn), seeded data generation, ingest, first
    // compile and three warm-up iterations; median of three set-ups.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// Printed as `info` lines and kept in the `--out` record, without a bound:
/// the uncorrected times, the tail and the mean-based rate (which follow the
/// neighbours more than the program), and the reference itself.
pub const INFO: [(&str, &str); 7] = [
    ("raw_iter_ms_p50", "ms"),
    ("raw_iter_ms_p25", "ms"),
    ("raw_iter_ms_p75", "ms"),
    ("raw_iters_per_s", "1/s"),
    ("raw_setup_s", "s"),
    ("reference_ms", "ms"),
    ("iterations", "count"),
];

/// `(name, unit, better)` of every per-layer metric, grouped by layer. A
/// metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 47] = [
    ("comp.compile_us", "us", "lower"),
    ("planner.plan_us", "us", "lower"),
    ("planner.replans", "count", "lower"),
    ("planner.est_over_wire", "ratio", "lower"),
    ("sac.outside_stage_ms", "ms", "lower"),
    ("sparkline.context.jobs", "count", "lower"),
    ("sparkline.context.stages", "count", "lower"),
    ("sparkline.context.tasks", "count", "lower"),
    ("sparkline.context.failed_attempts", "count", "lower"),
    ("sparkline.context.busy_frac", "fraction", "higher"),
    ("sparkline.context.task_overhead_us", "us", "lower"),
    ("sparkline.context.job_overhead_us", "us", "lower"),
    ("sparkline.shuffle.rounds", "count", "lower"),
    ("sparkline.shuffle.bytes", "B", "lower"),
    ("sparkline.shuffle.records", "count", "lower"),
    ("sparkline.shuffle.amplification", "ratio", "lower"),
    ("sparkline.shuffle.stage_ms", "ms", "lower"),
    ("sparkline.shuffle.inproc_mbps", "MB/s", "higher"),
    ("sparkline.wire.encode_mbps", "MB/s", "higher"),
    ("sparkline.wire.decode_mbps", "MB/s", "higher"),
    ("sparkline.wire.lb_ms", "ms", "lower"),
    ("sparkline.transport.fetches", "count", "lower"),
    ("sparkline.transport.fetch_us_p50", "us", "lower"),
    ("sparkline.transport.fetch_us_p99", "us", "lower"),
    ("sparkline.transport.fetch_retries", "count", "lower"),
    ("sparkline.transport.put_us_p50", "us", "lower"),
    ("sparkline.transport.get_us_p50", "us", "lower"),
    ("sparkline.transport.ping_us_p50", "us", "lower"),
    ("sparkline.transport.lb_ms", "ms", "lower"),
    ("sparkline.transport.procs_over_inproc", "ratio", "lower"),
    ("sparkline.storage.cache_hits", "count", "higher"),
    ("sparkline.storage.cache_misses", "count", "lower"),
    ("sparkline.storage.recomputes", "count", "lower"),
    ("tiled.kernel.flops", "flop", "lower"),
    ("tiled.kernel.gemm_gflops_1t", "Gflop/s", "higher"),
    ("tiled.kernel.gemm_gflops_nt", "Gflop/s", "higher"),
    ("tiled.kernel.lb_ms", "ms", "lower"),
    ("tiled.kernel.efficiency", "fraction", "higher"),
    ("tiled.fused.regions", "count", "lower"),
    ("tiled.fused.gbps", "GB/s", "higher"),
    ("tiled.fused.lb_ms", "ms", "lower"),
    ("tiled.fused.efficiency", "fraction", "higher"),
    ("mllib.iter_ms_p50", "ms", "lower"),
    ("mllib.ratio", "ratio", "lower"),
    ("ledger.iter_ms_p50", "ms", "lower"),
    ("ledger.trace_overhead_frac", "fraction", "lower"),
    ("ledger.verify_ms", "ms", "lower"),
];

/// Measured values by metric name, filled by whichever pass ran.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} measured twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|(n, _)| *n)
    }
}
