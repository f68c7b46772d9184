//! The adaptive stage driver: re-plan at stage frontiers from measured
//! statistics (ROADMAP item 5, Spark-AQE shape).
//!
//! Every contraction-shaped plan node has a natural materialization point:
//! the inputs it is about to shuffle (or broadcast-collect). A
//! [`StageFrontier`] executes the node up to that point — one shuffle-free
//! per-partition summary job per input — and captures what actually
//! materialized: exact non-zero counts, observed resident bytes, and the
//! per-partition tile distribution. The driver overlays those measurements
//! onto the planning environment's [`ArrayStats`] and re-invokes the same
//! candidate cost model that made the registration-time choice
//! ([`crate::plan::contraction_candidates`] /
//! [`crate::plan::mat_vec_candidates`]) on the not-yet-lowered remainder of
//! the plan. Three re-decisions can fall out:
//!
//! * a contraction-strategy switch (e.g. estimated reduceByKey whose
//!   operand is observed small enough to promote to broadcast),
//! * re-partitioning the remainder when a frontier reveals >= 2x partition
//!   skew,
//! * runtime-detected broadcast for mat-vec chains.
//!
//! Every re-decision emits a [`Event::PlanReplanned`] folded into
//! `JobProfile::plan_choices` and rendered by `explain_analyze`.
//!
//! # Determinism contract
//!
//! The probe is a pure read: its totals are independent of partition order,
//! executor scheduling, and fault recovery, so chaotic and fault-free runs
//! of the same query observe identical statistics and make identical
//! re-decisions. When registered statistics were honest (dense data, exact
//! tile grid), the observed stats reproduce the registration-time estimate
//! bit-for-bit, the re-run cost model returns the identical ranking, and
//! nothing changes. Re-decisions only fire when measurements *contradict*
//! registration, and a switched node lowers through the same
//! `lower_contraction` as a node planned on that strategy, so it is
//! bit-identical to pinning the strategy up front.
//!
//! Only auto-resolved nodes are driven: a pinned
//! [`PlanConfig::matmul`](crate::plan::PlanConfig) is a frozen plan — it
//! never probes and never re-plans.

use crate::env::{ArrayStats, PlanEnv};
use crate::plan::{
    cheapest, contraction_candidates, contraction_tag, cost_of, mat_vec_candidates, mat_vec_tag,
    MatMulStrategy, PlanConfig, PlanDecision,
};
use sparkline::{Context, Event, PartitionStream};
use tiled::{TiledMatrix, TiledVector};

/// Observed per-partition skew ratio (`max / mean` tiles) at or above which
/// the remainder of the plan is re-partitioned.
const SKEW_THRESHOLD: f64 = 2.0;

/// One frontier unit: a plan-node input executed up to its materialization
/// point, with the measured statistics of what came out.
pub(crate) struct StageFrontier {
    /// Measured statistics, shaped exactly like the registration-time
    /// [`ArrayStats`] so they can overlay the planning environment.
    pub stats: ArrayStats,
    /// Tiles (or vector blocks) per partition of the materialized input.
    pub partition_tiles: Vec<u64>,
}

impl StageFrontier {
    /// Materialize a tiled matrix input up to this node's frontier and
    /// summarize it. The summary is one `map_partitions_stream` + `collect`
    /// job — no shuffle stage, so probing never changes a plan's
    /// shuffle-round shape.
    pub fn matrix(m: &TiledMatrix) -> StageFrontier {
        let per_part: Vec<(u64, (u64, u64))> = m
            .tiles()
            .map_partitions_stream(|pid, tiles| {
                let (mut count, mut nnz) = (0u64, 0u64);
                tiles.for_each_ref(|(_, t)| {
                    count += 1;
                    nnz += t.data().iter().filter(|v| **v != 0.0).count() as u64;
                });
                PartitionStream::from_vec(vec![(pid as u64, (count, nnz))])
            })
            .collect();
        let (partition_tiles, tiles, nnz) = fold_partitions(per_part);
        // Observed resident bytes: the cheaper of the dense and the CSC
        // encodings of what actually materialized. For honest dense
        // registrations this reproduces `ArrayStats::matrix` exactly.
        let dense = tiles * ArrayStats::dense_tile_bytes(m.tile_size());
        // (CSC length is linear in nnz: `tiles - 1` empty tiles plus one
        // holding every entry sum to the same bytes as the real spread.)
        let csc = tiles.saturating_sub(1) * ArrayStats::csc_tile_bytes(m.tile_size(), 0)
            + ArrayStats::csc_tile_bytes(m.tile_size(), nnz);
        let mut stats = ArrayStats::matrix(m.rows(), m.cols(), m.tile_size()).with_nnz(nnz);
        stats.estimated_bytes = dense.min(csc);
        StageFrontier {
            stats,
            partition_tiles,
        }
    }

    /// Materialize a tiled vector input up to the frontier and summarize it.
    pub fn vector(v: &TiledVector) -> StageFrontier {
        let per_part: Vec<(u64, (u64, u64))> = v
            .blocks()
            .map_partitions_stream(|pid, blocks| {
                let (mut bytes, mut nnz) = (0u64, 0u64);
                blocks.for_each_ref(|(_, b)| {
                    bytes += ArrayStats::vector_block_bytes(b.len());
                    nnz += b.iter().filter(|x| **x != 0.0).count() as u64;
                });
                PartitionStream::from_vec(vec![(pid as u64, (bytes, nnz))])
            })
            .collect();
        let (partition_tiles, bytes, nnz) = fold_partitions(per_part);
        let mut stats = ArrayStats::vector(v.len(), v.block_size()).with_nnz(nnz);
        stats.estimated_bytes = bytes;
        StageFrontier {
            stats,
            partition_tiles,
        }
    }

    /// `max / mean` of the per-partition distribution; 1.0 when uniform or
    /// too small to matter.
    fn skew(&self) -> f64 {
        let parts = self.partition_tiles.len();
        let total: u64 = self.partition_tiles.iter().sum();
        if parts < 2 || total == 0 {
            return 1.0;
        }
        let max = *self.partition_tiles.iter().max().expect("non-empty") as f64;
        max / (total as f64 / parts as f64)
    }

    fn total_units(&self) -> u64 {
        self.partition_tiles.iter().sum()
    }
}

/// Index per-partition summaries by partition id and total the measurement
/// pair.
fn fold_partitions(per_part: Vec<(u64, (u64, u64))>) -> (Vec<u64>, u64, u64) {
    let parts = per_part.iter().map(|&(p, _)| p + 1).max().unwrap_or(0) as usize;
    let mut partition_units = vec![0u64; parts];
    let (mut first, mut second) = (0u64, 0u64);
    for (pid, (a, b)) in per_part {
        partition_units[pid as usize] += a;
        first += a;
        second += b;
    }
    (partition_units, first, second)
}

/// Re-partition target when a frontier reveals skew: double the partition
/// count (capped at one tile per partition) if any input's observed
/// distribution is >= [`SKEW_THRESHOLD`] and there are enough tiles for the
/// extra partitions to matter.
fn skewed_partitions(frontiers: &[&StageFrontier], partitions: usize) -> Option<usize> {
    for f in frontiers {
        let total = f.total_units();
        if total as usize >= 2 * partitions && f.skew() >= SKEW_THRESHOLD {
            return Some((partitions * 2).min(total as usize));
        }
    }
    None
}

/// Drive one contraction node through its stage frontier: probe both
/// inputs, re-partition on observed skew, and re-rank the strategies under
/// the measured stats. Returns the strategy and partition count the
/// remainder runs with (the plan-time ones when the measurements confirmed
/// them).
#[allow(clippy::too_many_arguments)]
pub(crate) fn adapt_contraction(
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
    (left, a): (&str, &TiledMatrix),
    (right, b): (&str, &TiledMatrix),
    left_contract_row: bool,
    right_contract_col: bool,
    current: MatMulStrategy,
    decision: &PlanDecision,
) -> (MatMulStrategy, usize) {
    let fa = StageFrontier::matrix(a);
    let fb = StageFrontier::matrix(b);
    let partitions = skewed_partitions(&[&fa, &fb], config.partitions).unwrap_or(config.partitions);
    let mut overlay = env.clone();
    overlay.set_stats(left, fa.stats);
    overlay.set_stats(right, fb.stats);
    let tuned = PlanConfig {
        partitions,
        ..config.clone()
    };
    let observed = contraction_candidates(
        &overlay,
        &tuned,
        left,
        right,
        left_contract_row,
        right_contract_col,
    );
    let strategy = rerank(
        ctx,
        decision,
        current,
        &observed,
        contraction_tag,
        partitions,
        partitions != config.partitions,
    );
    (strategy, partitions)
}

/// Drive one shuffling mat-vec node through its stage frontier: probe the
/// vector side and re-rank both paths under its measured stats. Returns
/// whether the node was promoted to the zero-shuffle broadcast path.
pub(crate) fn adapt_mat_vec(
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
    matrix: &str,
    (vector, v): (&str, &TiledVector),
    contract_row: bool,
    decision: &PlanDecision,
) -> bool {
    let mut overlay = env.clone();
    overlay.set_stats(vector, StageFrontier::vector(v).stats);
    let observed = mat_vec_candidates(&overlay, config, matrix, vector, contract_row);
    let strategy = rerank(
        ctx,
        decision,
        MatMulStrategy::ReduceByKey,
        &observed,
        mat_vec_tag,
        config.partitions,
        false,
    );
    strategy == MatMulStrategy::Broadcast
}

/// The one re-decision rule: given the candidates re-costed under observed
/// stats, switch away from `current` iff the cheapest is strictly cheaper —
/// the plan-time selection rule, so confirming measurements reproduce the
/// plan-time choice exactly. Emits one `plan_replanned` event iff the
/// strategy switched or the caller re-partitioned.
fn rerank(
    ctx: &Context,
    decision: &PlanDecision,
    current: MatMulStrategy,
    observed: &[(MatMulStrategy, u64)],
    tag: fn(MatMulStrategy) -> &'static str,
    partitions: usize,
    repartitioned: bool,
) -> MatMulStrategy {
    let current_cost = cost_of(observed, current);
    let (strategy, observed_bytes) = match (cheapest(observed), current_cost) {
        (Some((best, cost)), Some(cur)) if best != current && cost < cur => (best, cost),
        _ => (current, current_cost.unwrap_or(0)),
    };
    if strategy != current || repartitioned {
        let (from, to) = (tag(current), tag(strategy));
        let est_shuffle_bytes = decision.est_shuffle_bytes;
        ctx.emit_event(|at_micros| Event::PlanReplanned {
            tag: from.to_string(),
            from: from.to_string(),
            to: to.to_string(),
            est_shuffle_bytes,
            observed_bytes,
            partitions: partitions as u64,
            at_micros,
        });
    }
    strategy
}
