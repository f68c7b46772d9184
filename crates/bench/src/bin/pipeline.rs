//! Streaming-pipeline smoke benchmark: measure the win from pull-based
//! operator fusion over the seed's Vec-materializing execution.
//!
//! Two runs of the same 3-deep map/filter/map chain over a 10^7-row source:
//!
//! - **fused**: `map.filter.map` — narrow ops compose into one lazy iterator
//!   per task; the source partition is pulled through a zero-copy `Shared`
//!   view and never materializes an intermediate Vec.
//! - **materialized**: the same chain with every stage collecting its input
//!   stream into a fresh `Vec` ([`via_vec`]) — the seed semantics.
//!
//! Plus one tiled matmul through the full session stack, as a guard that
//! kernels did not regress under streaming.
//!
//! ```text
//! cargo run --release -p bench --bin pipeline            # writes BENCH_pipeline.json
//! cargo run --release -p bench --bin pipeline -- out.json
//! ```
//!
//! Exit is nonzero (failing CI) unless fused peak allocation is >= 1.3x
//! lower than materialized and fused wall time is no worse (10% tolerance).

use sac::Session;
use sparkline::{Context, Data, Dataset, PartitionStream};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Global allocator wrapper tracking live bytes and the high-water mark.
struct PeakAlloc {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl PeakAlloc {
    fn on_alloc(&self, size: usize) {
        let live = self.current.fetch_add(size, Ordering::Relaxed) + size;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn on_dealloc(&self, size: usize) {
        self.current.fetch_sub(size, Ordering::Relaxed);
    }

    /// Drop the high-water mark back to the live level, so the next
    /// measurement window reports only its own growth.
    fn reset_peak(&self) {
        self.peak
            .store(self.current.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            self.on_dealloc(layout.size());
            self.on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc {
    current: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

const ROWS: i64 = 10_000_000;
const ITERS: usize = 3;

struct Row {
    name: String,
    wall_ms: f64,
    peak_bytes: usize,
}

/// Run `f` ITERS times; report the best wall time and the largest peak any
/// iteration hit above the pre-run live level.
fn measure(name: &str, expect: usize, f: impl Fn() -> usize) -> Row {
    let mut wall_ms = f64::INFINITY;
    let mut peak_bytes = 0usize;
    for _ in 0..ITERS {
        ALLOC.reset_peak();
        let start = Instant::now();
        let n = f();
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        peak_bytes = peak_bytes.max(ALLOC.peak());
        assert_eq!(n, expect, "{name}: wrong row count");
    }
    println!(
        "{name:>20}: {wall_ms:>9.2} ms  peak {:>9.2} MiB",
        peak_bytes as f64 / (1 << 20) as f64
    );
    Row {
        name: name.to_string(),
        wall_ms,
        peak_bytes,
    }
}

/// The seed's Vec-materializing narrow op — the baseline the fused chain is
/// measured against: collect the partition's stream, apply `f`, re-wrap.
fn via_vec<T: Data, U: Data>(
    d: &Dataset<T>,
    f: impl Fn(Vec<T>) -> Vec<U> + Send + Sync + 'static,
) -> Dataset<U> {
    d.map_partitions_stream(move |_, s| PartitionStream::from_vec(f(s.into_vec())))
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let c = Context::builder().workers(workers).chaos_off().build();
    let d = c.parallelize((0..ROWS).collect(), workers);
    // x*3 is divisible by 5 exactly when x is, so the chain keeps 4/5 of rows.
    let expect = (ROWS - ROWS / 5) as usize;

    let fused = measure("fused_chain", expect, || {
        d.map(|x| x * 3)
            .filter(|x| x % 5 != 0)
            .map(|x| x + 1)
            .count()
    });
    let materialized = measure("materialized_chain", expect, || {
        let tripled = via_vec(&d, |v| v.into_iter().map(|x| x * 3).collect());
        let kept = via_vec(&tripled, |v| v.into_iter().filter(|x| x % 5 != 0).collect());
        via_vec(&kept, |v| v.into_iter().map(|x| x + 1).collect()).count()
    });

    // One tiled matmul through the whole stack: streaming must not cost the
    // kernels anything. (No fused/materialized pair here — just a record.)
    let n = 256usize;
    let mut s = Session::builder().workers(workers).build();
    s.register_local_matrix("A", &bench::dense_local(n, 300), bench::TILE);
    s.register_local_matrix("B", &bench::dense_local(n, 400), bench::TILE);
    s.set_int("n", n as i64);
    let src = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, \
     let v = a*b, group by (i,j) ]";
    ALLOC.reset_peak();
    let start = Instant::now();
    s.run(src).expect("matmul must run").force();
    let matmul = Row {
        name: format!("tiled_matmul_{n}"),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        peak_bytes: ALLOC.peak(),
    };
    println!(
        "{:>20}: {:>9.2} ms  peak {:>9.2} MiB",
        matmul.name,
        matmul.wall_ms,
        matmul.peak_bytes as f64 / (1 << 20) as f64
    );

    let peak_ratio = materialized.peak_bytes as f64 / fused.peak_bytes.max(1) as f64;
    let wall_ratio = fused.wall_ms / materialized.wall_ms.max(1e-9);
    println!("fused vs materialized: {peak_ratio:.2}x less peak, {wall_ratio:.2}x wall");

    let rows = [fused, materialized, matmul];
    let mut json = String::from("{\"bench\":\"pipeline\",\"results\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"name\":\"{}\",\"wall_ms\":{:.3},\"peak_bytes\":{}}}",
            r.name, r.wall_ms, r.peak_bytes
        ));
    }
    json.push_str(&format!(
        "],\"fused_vs_materialized\":{{\"peak_ratio\":{peak_ratio:.3},\"wall_ratio\":{wall_ratio:.3}}}}}\n"
    ));
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");

    // CI gate: fusion must actually pay — >= 1.3x lower peak allocation and
    // wall clock no worse than materialized (10% noise tolerance).
    if peak_ratio < 1.3 {
        eprintln!("FAIL: fused peak only {peak_ratio:.2}x lower than materialized (need >= 1.3x)");
        std::process::exit(1);
    }
    if wall_ratio > 1.10 {
        eprintln!("FAIL: fused chain slower than materialized ({wall_ratio:.2}x wall)");
        std::process::exit(1);
    }
}
