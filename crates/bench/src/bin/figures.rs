//! Regenerate the paper's Figure 4 (panels A, B, C) as printed tables.
//!
//! ```text
//! cargo run --release -p bench --bin figures            # panels a, b, c
//! cargo run --release -p bench --bin figures -- a       # one panel
//! cargo run --release -p bench --bin figures -- b quick # smaller sizes
//! cargo run --release -p bench --bin figures -- b --trace # + JSON event log
//! cargo run --release -p bench --bin figures -- ablations # design-choice tables
//! ```
//!
//! Every measurement runs once traced (the warm-up, which also gives the
//! shuffled bytes) and then untraced for the timings. With `--trace`, the
//! traced runs of each panel's SAC series are written as a JSON event log to
//! `target/figures_trace_<panel>.json` (schema in EXPERIMENTS.md).
//!
//! For every panel the harness prints the same series the paper plots —
//! total time per operation for each system — plus the shuffle-byte
//! accounting that explains the orderings. Absolute numbers differ from the
//! paper (laptop vs 4-node cluster, scaled matrices); the *shape* (who wins,
//! by what factor) is the reproduction target recorded in EXPERIMENTS.md.

use bench::{
    bench_session, block_of, dense_local, mllib_factorization_step, sac_factorization_step,
    sparse_local, tiled_of, TILE,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sac::{MatMulStrategy, Session};
use sparkline::{Event, JobProfile};
use std::time::Instant;
use tiled::{CooMatrix, LocalMatrix, TiledMatrix};

const REPEATS: usize = 3;

/// Dump a panel's collected event log as a JSON event-log file.
fn write_trace(panel: &str, events: &[Event]) {
    std::fs::create_dir_all("target").ok();
    let path = format!("target/figures_trace_{panel}.json");
    std::fs::write(&path, sparkline::events::to_json(events)).expect("write trace file");
    println!("trace: {} events -> {path}", events.len());
}

/// Run `f` once traced — the warm-up, and the shuffled MiB, since a run's
/// bytes do not vary — then REPEATS times untraced, returning (mean seconds,
/// shuffled MiB per run). The traced run's events go to `sink`, if any.
fn measure(session: &Session, sink: Option<&mut Vec<Event>>, mut f: impl FnMut()) -> (f64, f64) {
    let ctx = session.spark();
    ctx.trace();
    f();
    ctx.stop_trace();
    let events = ctx.take_events();
    let bytes = JobProfile::from_events(&events).total_shuffle_bytes_written();
    if let Some(sink) = sink {
        sink.extend(events);
    }
    let start = Instant::now();
    for _ in 0..REPEATS {
        f();
    }
    let secs = start.elapsed().as_secs_f64() / REPEATS as f64;
    (secs, bytes as f64 / (1u64 << 20) as f64)
}

fn panel_a(sizes: &[usize], trace: bool) {
    let mut events: Vec<Event> = Vec::new();
    println!("\n=== Figure 4.A — Matrix Addition: total time vs elements ===");
    println!(
        "{:>8} {:>12} | {:>12} {:>12} | {:>10} {:>12}",
        "n", "elements", "MLlib (s)", "SAC (s)", "SAC/MLlib", "plan"
    );
    for &n in sizes {
        let session = bench_session(MatMulStrategy::GroupByJoin);
        let a = dense_local(n, 100 + n as u64);
        let b = dense_local(n, 200 + n as u64);

        let (ba, bb) = (
            block_of(&session, &a).cache(),
            block_of(&session, &b).cache(),
        );
        ba.blocks().count();
        bb.blocks().count();
        let (mllib_s, _) = measure(&session, None, || {
            ba.add(&bb).blocks().count();
        });

        let (ta, tb) = (
            tiled_of(&session, &a).cache(),
            tiled_of(&session, &b).cache(),
        );
        ta.tiles().count();
        tb.tiles().count();
        let (sac_s, _) = measure(&session, trace.then_some(&mut events), || {
            sac::linalg::add(&session, &ta, &tb)
                .expect("plan")
                .tiles()
                .count();
        });
        println!(
            "{:>8} {:>12} | {:>12.4} {:>12.4} | {:>10.2} {:>12}",
            n,
            n * n,
            mllib_s,
            sac_s,
            sac_s / mllib_s,
            "eltwise"
        );
    }
    println!("paper shape: SAC a bit faster than MLlib (ratio < 1).");
    if trace {
        write_trace("a", &events);
    }
}

fn panel_b(sizes: &[usize], trace: bool) {
    let mut events: Vec<Event> = Vec::new();
    println!("\n=== Figure 4.B — Matrix Multiplication: total time vs elements ===");
    println!(
        "{:>6} {:>10} | {:>11} {:>14} {:>11} | {:>9} {:>9}",
        "n", "elements", "MLlib (s)", "SAC j+gb (s)", "SAC GBJ(s)", "jgb MiB", "gbj MiB"
    );
    for &n in sizes {
        let a = dense_local(n, 300 + n as u64);
        let b = dense_local(n, 400 + n as u64);

        let session = bench_session(MatMulStrategy::GroupByJoin);
        let (ba, bb) = (
            block_of(&session, &a).cache(),
            block_of(&session, &b).cache(),
        );
        ba.blocks().count();
        bb.blocks().count();
        let (mllib_s, _) = measure(&session, None, || {
            ba.multiply(&bb).blocks().count();
        });

        let mut run_sac = |strategy: MatMulStrategy| -> (f64, f64) {
            let session = bench_session(strategy);
            let (ta, tb) = (
                tiled_of(&session, &a).cache(),
                tiled_of(&session, &b).cache(),
            );
            ta.tiles().count();
            tb.tiles().count();
            measure(&session, trace.then_some(&mut events), || {
                sac::linalg::multiply(&session, &ta, &tb)
                    .expect("plan")
                    .tiles()
                    .count();
            })
        };
        let (jgb_s, jgb_mib) = run_sac(MatMulStrategy::JoinGroupBy);
        let (gbj_s, gbj_mib) = run_sac(MatMulStrategy::GroupByJoin);
        println!(
            "{:>6} {:>10} | {:>11.4} {:>14.4} {:>11.4} | {:>9.1} {:>9.1}",
            n,
            n * n,
            mllib_s,
            jgb_s,
            gbj_s,
            jgb_mib,
            gbj_mib
        );
    }
    println!("paper shape: SAC join+group-by slowest, SAC GBJ fastest, MLlib between.");
    if trace {
        write_trace("b", &events);
    }
}

fn panel_c(sizes: &[usize], trace: bool) {
    let mut events: Vec<Event> = Vec::new();
    println!("\n=== Figure 4.C — Matrix Factorization (1 GD iteration) ===");
    println!(
        "{:>6} {:>10} | {:>12} {:>14} | {:>10}",
        "n", "elements", "MLlib (s)", "SAC GBJ (s)", "MLlib/SAC"
    );
    let k = TILE;
    for &n in sizes {
        let r = sparse_local(n, 500 + n as u64);
        let mut rng = StdRng::seed_from_u64(600 + n as u64);
        let p = LocalMatrix::random(n, k, 0.0, 1.0, &mut rng);
        let q = LocalMatrix::random(n, k, 0.0, 1.0, &mut rng);

        let session = bench_session(MatMulStrategy::GroupByJoin);
        let (br, bp, bq) = (
            block_of(&session, &r).cache(),
            block_of(&session, &p).cache(),
            block_of(&session, &q).cache(),
        );
        br.blocks().count();
        bp.blocks().count();
        bq.blocks().count();
        let (mllib_s, _) = measure(&session, None, || {
            let (p2, q2) = mllib_factorization_step(&br, &bp, &bq, 0.002, 0.02);
            p2.blocks().count();
            q2.blocks().count();
        });

        let (tr, tp, tq) = (
            tiled_of(&session, &r).cache(),
            tiled_of(&session, &p).cache(),
            tiled_of(&session, &q).cache(),
        );
        tr.tiles().count();
        tp.tiles().count();
        tq.tiles().count();
        let (sac_s, _) = measure(&session, trace.then_some(&mut events), || {
            let (p2, q2) = sac_factorization_step(&session, &tr, &tp, &tq, 0.002, 0.02);
            p2.tiles().count();
            q2.tiles().count();
        });
        println!(
            "{:>6} {:>10} | {:>12.4} {:>14.4} | {:>10.2}",
            n,
            n * n,
            mllib_s,
            sac_s,
            mllib_s / sac_s
        );
    }
    println!("paper shape: SAC GBJ up to ~3x faster than MLlib (ratio > 1).");
    if trace {
        write_trace("c", &events);
    }
}

/// Ablations for the design choices the paper argues qualitatively:
/// `reduceByKey` vs `groupByKey` (§4's reason for generating reduceByKey),
/// coordinate-format (DIABLO, §4) vs block-array multiplication (§5's
/// motivation), and the group-by-join's sensitivity to the tile side.
fn panel_ablations(quick: bool) {
    let (pairs, coo_n, tile_n, tiles): (i64, usize, usize, &[usize]) = if quick {
        (20_000, 64, 128, &[32, 64])
    } else {
        (200_000, 128, 256, &[16, 32, 64, 128])
    };
    let table = |title: String, key: &str| {
        println!("\n=== Ablation — {title} ===");
        println!("{key:>24} | {:>10} {:>12}", "time (s)", "shuffle MiB");
    };
    let row = |name: &str, (secs, mib): (f64, f64)| {
        println!("{name:>24} | {secs:>10.4} {mib:>12.2}");
    };
    let session = bench_session(MatMulStrategy::GroupByJoin);
    let ctx = session.spark();
    let resident = |m: TiledMatrix| {
        let m = m.cache();
        m.tiles().count();
        m
    };
    let multiply = |a: &TiledMatrix, b: &TiledMatrix| {
        measure(&session, None, || {
            let product = sac::linalg::multiply(&session, a, b).expect("plan");
            product.tiles().count();
        })
    };

    table(
        format!("reduceByKey vs groupByKey, {pairs} pairs on 512 keys"),
        "aggregation",
    );
    let d = ctx
        .parallelize((0..pairs).map(|i| (i % 512, i)).collect(), 8)
        .persist();
    d.count();
    let rbk = measure(&session, None, || {
        d.reduce_by_key(8, |x, y| x + y).count();
    });
    row("reduce_by_key", rbk);
    let gbk = measure(&session, None, || {
        let sums = d.group_by_key(8).map_values(|v| v.iter().sum::<i64>());
        sums.count();
    });
    row("group_by_key", gbk);

    table(
        format!("coordinate vs tiled multiply, n = {coo_n}"),
        "storage",
    );
    let (a, b) = (dense_local(coo_n, 1), dense_local(coo_n, 2));
    let (ta, tb) = (
        resident(tiled_of(&session, &a)),
        resident(tiled_of(&session, &b)),
    );
    row("tiled_gbj", multiply(&ta, &tb));
    let (ca, cb) = (
        CooMatrix::from_local(ctx, &a, 8),
        CooMatrix::from_local(ctx, &b, 8),
    );
    let coo = measure(&session, None, || {
        ca.multiply(&cb, 8).entries().count();
    });
    row("coo_join_rbk", coo);

    table(format!("group-by-join vs tile side, n = {tile_n}"), "tile");
    let (a, b) = (dense_local(tile_n, 3), dense_local(tile_n, 4));
    for &tile in tiles {
        let ta = resident(TiledMatrix::from_local(ctx, &a, tile, 8));
        let tb = resident(TiledMatrix::from_local(ctx, &b, tile, 8));
        row(&tile.to_string(), multiply(&ta, &tb));
    }
}

const USAGE: &str = "usage: figures [a|b|c|ablations] [quick] [--trace]  \
                     (no panel: a, b and c; --trace: panels a, b, c only)";

fn main() {
    let (mut quick, mut trace, mut panel) = (false, false, None);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "quick" => quick = true,
            "--trace" => trace = true,
            "a" | "b" | "c" | "ablations" if panel.is_none() => panel = Some(arg),
            _ => {
                eprintln!("figures: unexpected argument `{arg}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if trace && panel.as_deref() == Some("ablations") {
        eprintln!("figures: the ablation tables have no trace\n{USAGE}");
        std::process::exit(2);
    }

    let (a_sizes, b_sizes, c_sizes): (Vec<usize>, Vec<usize>, Vec<usize>) = if quick {
        (vec![128, 256], vec![128, 192], vec![128])
    } else {
        (
            vec![256, 512, 768, 1024, 1280],
            vec![128, 256, 384, 512, 640],
            vec![128, 256, 384, 512],
        )
    };

    match panel.as_deref() {
        Some("a") => panel_a(&a_sizes, trace),
        Some("b") => panel_b(&b_sizes, trace),
        Some("c") => panel_c(&c_sizes, trace),
        Some(_) => panel_ablations(quick),
        None => {
            panel_a(&a_sizes, trace);
            panel_b(&b_sizes, trace);
            panel_c(&c_sizes, trace);
        }
    }
}
