//! The adaptive stage driver: re-plan at stage frontiers from measured
//! statistics (Spark-AQE shape; the ROADMAP's cost-model item prices its
//! decisions).
//!
//! Every contraction-shaped plan node has a natural materialization point:
//! the inputs it is about to shuffle (or broadcast-collect). A
//! [`StageFrontier`] executes the node up to that point — one shuffle-free
//! per-partition summary job per input — and captures what actually
//! materialized: the per-partition tile distribution of a matrix (priced
//! dense, as every tile ships) or the block bytes of a vector. [`adapt`]
//! overlays those measurements onto the planning environment's
//! [`ArrayStats`] and re-costs the rows of the node's pattern in the plan
//! table — the rows that made the registration-time choice
//! ([`crate::plan::candidates`]) — for the not-yet-lowered remainder of the
//! plan. Two re-decisions can fall out:
//!
//! * a strategy switch (e.g. an estimated reduceByKey whose operand is
//!   observed small enough to promote to broadcast — for a matrix × vector
//!   node, to the zero-shuffle broadcast path),
//! * re-partitioning the remainder when a frontier reveals >= 2x partition
//!   skew.
//!
//! Every re-decision emits a [`Event::PlanReplanned`] folded into
//! `JobProfile::plan_choices` and rendered by `explain_analyze`.
//!
//! # Determinism contract
//!
//! The probe is a pure read: its totals are independent of partition order,
//! executor scheduling, and fault recovery, so chaotic and fault-free runs
//! of the same query observe identical statistics and make identical
//! re-decisions. When registered statistics were honest (the exact tile
//! grid; contents never matter, since every tile is priced dense), the
//! observed stats reproduce the registration-time estimate bit-for-bit,
//! the re-run cost model returns the identical ranking, and nothing
//! changes. Re-decisions only fire when measurements *contradict*
//! registration, and a switched node lowers through the dataflow of the row
//! it switched to, as a node planned on that row does, so it is
//! bit-identical to pinning the strategy up front.
//!
//! A run probes each array at most once ([`Frontiers`]): a program's later
//! node over an array an earlier node measured re-costs from those stats.
//!
//! Only auto-resolved nodes are driven: a pinned
//! [`PlanConfig::matmul`](crate::plan::PlanConfig) is a frozen plan — it
//! never probes and never re-plans.

use crate::env::{ArrayStats, DistArray, PlanEnv};
use crate::plan::{
    candidates, cheapest, cost_of, MatMulStrategy, Node, PlanConfig, PlanDecision, PlanRow,
};
use sparkline::{Context, Data, Dataset, Event, JobError, PartitionStream};
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use tiled::{TiledMatrix, TiledVector};

/// Observed per-partition skew ratio (`max / mean` tiles) at or above which
/// the remainder of the plan is re-partitioned.
const SKEW_THRESHOLD: f64 = 2.0;

/// One frontier unit: a plan-node input executed up to its materialization
/// point, with the measured statistics of what came out.
#[derive(Clone)]
pub(crate) struct StageFrontier {
    /// Measured statistics, shaped exactly like the registration-time
    /// [`ArrayStats`] so they can overlay the planning environment.
    pub stats: ArrayStats,
    /// Tiles per partition of the materialized input (empty for a vector,
    /// which is never re-partitioned).
    pub partition_tiles: Vec<u64>,
}

/// Materialize a block set up to the frontier and total the `size` of its
/// blocks per partition. One `map_partitions_stream` + `collect` job — no
/// shuffle stage, so probing never changes a plan's shuffle-round shape.
fn probe<K: Data, T: Data>(
    blocks: &Dataset<(K, T)>,
    size: impl Fn(&T) -> u64 + Send + Sync + 'static,
) -> Result<Vec<u64>, JobError> {
    let per_partition = blocks.map_partitions_stream(move |_, blocks| {
        let mut total = 0u64;
        blocks.for_each_ref(|(_, b)| total += size(b));
        PartitionStream::from_vec(vec![total])
    });
    per_partition.try_collect()
}

impl StageFrontier {
    /// Materialize a tiled matrix input up to this node's frontier and
    /// summarize it.
    pub fn matrix(m: &TiledMatrix) -> Result<StageFrontier, JobError> {
        let partition_tiles = probe(m.tiles(), |_| 1)?;
        let tiles: u64 = partition_tiles.iter().sum();
        // Observed resident bytes: every tile that materialized, priced
        // dense as it ships. For an honest registration this reproduces
        // `ArrayStats::matrix` exactly.
        let mut stats = ArrayStats::matrix(m.rows(), m.cols(), m.tile_size());
        stats.estimated_bytes = tiles * ArrayStats::dense_tile_bytes(m.tile_size());
        Ok(StageFrontier {
            stats,
            partition_tiles,
        })
    }

    /// Materialize a tiled vector input up to the frontier and summarize it.
    pub fn vector(v: &TiledVector) -> Result<StageFrontier, JobError> {
        let block_bytes = |b: &Vec<f64>| ArrayStats::vector_block_bytes(b.len());
        let mut stats = ArrayStats::vector(v.len(), v.block_size());
        stats.estimated_bytes = probe(v.blocks(), block_bytes)?.iter().sum();
        Ok(StageFrontier {
            stats,
            partition_tiles: Vec::new(),
        })
    }
}

/// The frontiers one run has measured, by array: a probe is a pure read, so
/// a node whose input an earlier node of the same run already probed reuses
/// that measurement instead of running the job again. A program run
/// (`program::run`) shares one across its statements, so each array is
/// probed at most once per program; a lone query gets a fresh one. An
/// array is its lineage — the dataset node its blocks come from — and each
/// entry holds the array, so no other array can take that identity while
/// the run lasts.
#[derive(Default)]
pub(crate) struct Frontiers {
    taken: Mutex<HashMap<usize, (DistArray, StageFrontier)>>,
}

impl Frontiers {
    /// [`StageFrontier::matrix`], once per array.
    pub fn matrix(&self, m: &TiledMatrix) -> Result<StageFrontier, JobError> {
        self.once(DistArray::Matrix(m.clone()), || StageFrontier::matrix(m))
    }

    /// [`StageFrontier::vector`], once per array.
    pub fn vector(&self, v: &TiledVector) -> Result<StageFrontier, JobError> {
        self.once(DistArray::Vector(v.clone()), || StageFrontier::vector(v))
    }

    /// A failed probe records nothing.
    fn once(
        &self,
        array: DistArray,
        probe: impl FnOnce() -> Result<StageFrontier, JobError>,
    ) -> Result<StageFrontier, JobError> {
        // Every update is one insert, so a poisoned map is still whole.
        let taken = || self.taken.lock().unwrap_or_else(PoisonError::into_inner);
        let identity = array.lineage_identity();
        if let Some((_, frontier)) = taken().get(&identity) {
            return Ok(frontier.clone());
        }
        // The probe job runs outside the lock.
        let frontier = probe()?;
        taken().insert(identity, (array, frontier.clone()));
        Ok(frontier)
    }
}

/// Re-partition target when a frontier reveals skew: double the partition
/// count (capped at one tile per partition) if any input's observed
/// distribution is `max / mean` >= [`SKEW_THRESHOLD`] and there are enough
/// tiles for the extra partitions to matter.
fn skewed_partitions(frontiers: &[(&str, StageFrontier)], partitions: usize) -> Option<usize> {
    frontiers.iter().find_map(|(_, f)| {
        let total: u64 = f.partition_tiles.iter().sum();
        let mean = total as f64 / f.partition_tiles.len() as f64;
        let skew = *f.partition_tiles.iter().max()? as f64 / mean;
        (total as usize >= 2 * partitions && skew >= SKEW_THRESHOLD)
            .then(|| (partitions * 2).min(total as usize))
    })
}

/// Drive one contraction node through its stage frontier — if it is driven
/// at all: a pinned strategy must be honored and a broadcast choice has
/// nothing left to save, so neither probes. `probe` materializes the inputs
/// by name (both matrices of a matrix × matrix node, the vector of a matrix
/// × vector node); their measured stats overlay `env`, the contraction `node`
/// is re-oriented under the overlay, and the rows of `current`'s pattern are
/// re-costed with the plan-time rule: switch away from `current` iff the
/// cheapest is strictly cheaper, so confirming measurements reproduce the
/// plan-time choice exactly. Observed partition skew re-partitions the remainder.
/// Returns the row and partition count the remainder runs with, and emits
/// one `plan_replanned` event iff either changed; or the error of a probe
/// job that failed.
pub(crate) fn adapt<'a>(
    env: &PlanEnv,
    ctx: &Context,
    config: &PlanConfig,
    probe: impl FnOnce() -> Result<Vec<(&'a str, StageFrontier)>, JobError>,
    node: &Node,
    current: &'static PlanRow,
    decision: &PlanDecision,
) -> Result<(&'static PlanRow, usize), JobError> {
    let broadcast = current.strategy.as_ref().map(|s| s.pin) == Some(MatMulStrategy::Broadcast);
    if !decision.auto || broadcast {
        return Ok((current, config.partitions));
    }
    let frontiers = probe()?;
    let partitions = skewed_partitions(&frontiers, config.partitions).unwrap_or(config.partitions);
    let mut overlay = env.clone();
    for (name, frontier) in frontiers {
        overlay.set_stats(name, frontier.stats);
    }
    let tuned = PlanConfig {
        partitions,
        ..config.clone()
    };
    let observed = candidates(current, &overlay, node, &tuned);
    let current_cost = cost_of(&observed, current);
    let (row, observed_bytes) = match (cheapest(&observed), current_cost) {
        (Some((best, cost)), Some(cur)) if best.tag != current.tag && cost < cur => (best, cost),
        _ => (current, current_cost.unwrap_or(0)),
    };
    if row.tag != current.tag || partitions != config.partitions {
        let est_shuffle_bytes = decision.est_shuffle_bytes;
        ctx.emit_event(|at_micros| Event::PlanReplanned {
            tag: current.tag.to_string(),
            from: current.tag.to_string(),
            to: row.tag.to_string(),
            est_shuffle_bytes,
            observed_bytes,
            partitions: partitions as u64,
            at_micros,
        });
    }
    Ok((row, partitions))
}
