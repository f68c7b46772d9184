//! Adaptive re-planning benchmark + CI gate: a skewed 384x384 join panel
//! whose registration statistics are wrong by 8x.
//!
//! The registered `ArrayStats` claim both operands are 8x their honest
//! resident bytes (and hide the density), pushing them past the broadcast
//! budget: at plan time `Auto` settles on a shuffling contraction (the
//! group-by-join), and a session pinned to one (a pinned strategy is a
//! frozen plan; the §5.3 reduceByKey plan is the pinned baseline) rides it to
//! the end. The adaptive stage driver probes the materialized inputs of the
//! `Auto` session, observes the truth (a density-skewed panel — one dense
//! block-row stripe, zeros elsewhere), and promotes the node to the broadcast
//! contraction at runtime.
//!
//! ```text
//! cargo run --release -p bench --bin replan            # writes BENCH_replan.json
//! cargo run --release -p bench --bin replan -- out.json
//! ```
//!
//! Gates (exit code 1 on violation, after writing the JSON):
//! * the adaptive run re-plans to a strategy different from — and cheaper
//!   in measured shuffle bytes than — the forced-frozen choice;
//! * adaptive wall-clock is at least [`MIN_SPEEDUP`]x better than frozen.
//!
//! Emitted JSON:
//!
//! ```json
//! {"bench":"replan","results":[
//!   {"name":"join_384_frozen","strategy":"contraction/reduceByKey",
//!    "replanned_to":"","wall_ms":9.1,"shuffle_bytes":9830400}, ...],
//!  "gates":{"cheaper_strategy":true,"speedup":2.4,"min_speedup":1.3}}
//! ```

use bench::TILE;
use sac::{MatMulStrategy, Session};
use std::time::Instant;

const MIN_SPEEDUP: f64 = 1.3;
const N: usize = 384;
const REPS: usize = 3;

const MUL_SRC: &str = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, \
     let v = a*b, group by (i,j) ]";

struct Row {
    name: String,
    strategy: String,
    replanned_to: String,
    wall_ms: f64,
    shuffle_bytes: u64,
}

/// Session over the skewed panel with 8x-lying registration statistics.
/// `Auto` lets the stage driver re-decide; pinning `matmul` freezes the plan.
fn panel_session(matmul: MatMulStrategy) -> Session {
    let mut s = Session::builder()
        .workers(std::thread::available_parallelism().map_or(4, |n| n.get()))
        // Eight reducers: the group-by-join's 2 x 4 cell grid sends the
        // left operand four times and the right one twice, the frozen
        // reduceByKey path ships every join input plus out_tiles x k partial
        // products, and the probed broadcast path one operand and one
        // combine round — the cheapest once the honest bytes are known.
        .partitions(8)
        // Between the honest bytes (~296 KB CSC-discounted) and the 8x lie
        // (~9.4 MB): the frozen plan can never broadcast, the probed one can.
        .broadcast_budget(2_000_000)
        .matmul(matmul)
        .build();
    // Density skew: one dense 64-row stripe, zeros everywhere else. The
    // honest tiles are ~1/6 dense; registration keeps full-dense bytes.
    let skewed = |seed: u64| {
        tiled::LocalMatrix::from_fn(N, N, move |i, j| {
            if i < TILE {
                ((i * 31 + j * 7 + seed as usize) % 13) as f64 - 6.0
            } else {
                0.0
            }
        })
    };
    s.register_local_matrix("A", &skewed(3), TILE);
    s.register_local_matrix("B", &skewed(11), TILE);
    s.set_int("n", N as i64);
    for name in ["A", "B"] {
        let mut lied = *s.env().stats(name).expect("registered");
        lied.nnz = None;
        lied.estimated_bytes *= 8;
        s.env_mut().set_stats(name, lied);
    }
    s
}

/// One traced run for the plan decisions, then `REPS` timed runs (best
/// wall) for the measured cost.
fn run(name: &str, matmul: MatMulStrategy) -> Row {
    let s = panel_session(matmul);
    let analysis = s.explain_analyze(MUL_SRC).expect("panel query must run");
    let choice = &analysis.profile.plan_choices[0];
    let strategy = choice.chosen.to_string();
    let replanned_to = choice
        .replans
        .last()
        .map(|r| r.to.clone())
        .unwrap_or_default();

    let mut wall_ms = f64::INFINITY;
    let before = s.spark().metrics().snapshot();
    for _ in 0..REPS {
        let start = Instant::now();
        s.run(MUL_SRC).expect("panel query must run").force();
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let shuffle_bytes = s.spark().metrics().snapshot().since(&before).shuffle_bytes / REPS as u64;
    println!(
        "{name:>16}: {strategy:<26} -> {:<24} {wall_ms:>9.2} ms {shuffle_bytes:>12} shuffled bytes",
        if replanned_to.is_empty() {
            "(frozen)"
        } else {
            &replanned_to
        }
    );
    Row {
        name: name.to_string(),
        strategy,
        replanned_to,
        wall_ms,
        shuffle_bytes,
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_replan.json".to_string());

    let frozen = run("join_384_frozen", MatMulStrategy::ReduceByKey);
    let adaptive = run("join_384_adaptive", MatMulStrategy::Auto);

    let cheaper_strategy = !adaptive.replanned_to.is_empty()
        && adaptive.replanned_to != frozen.strategy
        && adaptive.shuffle_bytes < frozen.shuffle_bytes;
    let speedup = frozen.wall_ms / adaptive.wall_ms;

    let mut json = String::from("{\"bench\":\"replan\",\"results\":[");
    for (i, r) in [&frozen, &adaptive].into_iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"name\":\"{}\",\"strategy\":\"{}\",\"replanned_to\":\"{}\",\
             \"wall_ms\":{:.3},\"shuffle_bytes\":{}}}",
            r.name, r.strategy, r.replanned_to, r.wall_ms, r.shuffle_bytes
        ));
    }
    json.push_str(&format!(
        "],\"gates\":{{\"cheaper_strategy\":{cheaper_strategy},\
         \"speedup\":{speedup:.3},\"min_speedup\":{MIN_SPEEDUP}}}}}\n"
    ));
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");

    if !cheaper_strategy {
        eprintln!(
            "GATE FAILED: adaptive must re-plan to a cheaper strategy \
             (frozen {} @ {} bytes, adaptive {} -> {} @ {} bytes)",
            frozen.strategy,
            frozen.shuffle_bytes,
            adaptive.strategy,
            adaptive.replanned_to,
            adaptive.shuffle_bytes
        );
        std::process::exit(1);
    }
    if speedup < MIN_SPEEDUP {
        eprintln!("GATE FAILED: speedup {speedup:.3} < {MIN_SPEEDUP} over forced-frozen");
        std::process::exit(1);
    }
    println!("gates passed: cheaper strategy, {speedup:.2}x over forced-frozen");
}
