//! Query profiles: fold a structured event log into per-job / per-stage
//! statistics.
//!
//! A [`JobProfile`] is built from the events collected between
//! [`crate::Context::trace`] and [`crate::Context::take_profile`]. It answers
//! the questions the paper's evaluation cares about — how many shuffle
//! stages did a plan run, how many bytes moved, where did the time go, how
//! skewed were the tasks — without diffing global counters (which breaks
//! under concurrent jobs and parallel tests).

use crate::events::Event;

/// Block-manager cache activity, aggregated per stage, per dataset, or for
/// the whole profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Partitions served from cache.
    pub hits: u64,
    /// First-time computations of a persisted partition.
    pub misses: u64,
    /// Blocks evicted to honor the storage budget.
    pub evictions: u64,
    /// Recomputations of a partition that had been cached before (the
    /// lineage-recovery path after an eviction or unpersist).
    pub recomputes: u64,
}

impl CacheStats {
    /// Any cache activity at all?
    pub fn is_empty(&self) -> bool {
        *self == CacheStats::default()
    }

    fn add(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.recomputes += other.recomputes;
    }

    fn render(&self) -> String {
        let mut parts = vec![
            format!("{} hits", self.hits),
            format!("{} misses", self.misses),
        ];
        if self.recomputes > 0 {
            parts.push(format!("{} recomputed", self.recomputes));
        }
        if self.evictions > 0 {
            parts.push(format!("{} evicted", self.evictions));
        }
        parts.join(", ")
    }
}

/// Fault-recovery activity folded from the executor-loss event family
/// (`ExecutorLost` / `FetchFailed` / `StageResubmitted`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Worker processes declared dead (kill -9, heartbeat deadline, or a
    /// failed map-output PUT); each sweeps the executors it hosted.
    pub workers_lost: u64,
    /// Executor kills observed (chaos or explicit).
    pub executors_lost: u64,
    /// Shuffle map outputs swept with lost executors.
    pub lost_map_outputs: u64,
    /// Cached blocks swept with lost executors.
    pub lost_blocks: u64,
    /// Shuffle fetch retries against worker processes (each backed off and
    /// tried again before escalating to a fetch failure).
    pub fetch_retries: u64,
    /// Reduce tasks that surfaced missing map outputs.
    pub fetch_failures: u64,
    /// Map-stage resubmissions covering missing partitions.
    pub stages_resubmitted: u64,
    /// Map partitions recomputed by those resubmissions.
    pub resubmitted_tasks: u64,
    /// Wall-clock spent in resubmitted map stages — the recovery overhead a
    /// fault-free run would not pay.
    pub recovery_wall_micros: u64,
}

impl RecoveryStats {
    /// Any recovery activity at all?
    pub fn is_empty(&self) -> bool {
        *self == RecoveryStats::default()
    }

    fn render(&self) -> String {
        let mut parts = vec![format!(
            "{} executors lost ({} map outputs, {} blocks)",
            self.executors_lost, self.lost_map_outputs, self.lost_blocks
        )];
        if self.workers_lost > 0 {
            parts.push(format!("{} worker processes lost", self.workers_lost));
        }
        if self.fetch_retries > 0 {
            parts.push(format!("{} fetch retries", self.fetch_retries));
        }
        if self.fetch_failures > 0 {
            parts.push(format!("{} fetch failures", self.fetch_failures));
        }
        parts.push(format!(
            "{} stages resubmitted ({} tasks)",
            self.stages_resubmitted, self.resubmitted_tasks
        ));
        parts.push(format!(
            "{} recovering",
            fmt_micros(self.recovery_wall_micros)
        ));
        parts.join(", ")
    }
}

/// Multi-tenant query-service activity folded from the admission-control
/// event family (`JobAdmitted` / `JobCancelled` / `PlanCacheHit`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs the fair scheduler admitted into an execution slot.
    pub jobs_admitted: u64,
    /// Jobs cancelled cooperatively at a task boundary.
    pub jobs_cancelled: u64,
    /// Queries answered from the normalized-comprehension plan cache.
    pub plan_cache_hits: u64,
    /// Total wall-clock jobs spent queued before admission.
    pub queue_micros: u64,
}

impl ServiceStats {
    /// Any service activity at all?
    pub fn is_empty(&self) -> bool {
        *self == ServiceStats::default()
    }

    fn render(&self) -> String {
        let mut parts = vec![format!(
            "{} jobs admitted ({} queued)",
            self.jobs_admitted,
            fmt_micros(self.queue_micros)
        )];
        if self.jobs_cancelled > 0 {
            parts.push(format!("{} cancelled", self.jobs_cancelled));
        }
        if self.plan_cache_hits > 0 {
            parts.push(format!("{} plan-cache hits", self.plan_cache_hits));
        }
        parts.join(", ")
    }
}

/// Statistics for one scheduler stage.
#[derive(Debug, Clone, Default)]
pub struct StageProfile {
    pub stage_id: u64,
    /// Job (action) this stage ran under, if tracing saw the job start.
    pub job_id: Option<u64>,
    /// Scheduler-level stage kind, e.g. `shuffle.map(reduceByKey)` or
    /// `action(collect)`.
    pub label: String,
    /// Plan node that produced this stage, e.g. `contraction/groupByJoin`.
    pub tag: Option<String>,
    /// Operator lineage of the stage's input, innermost source last.
    pub lineage: Option<String>,
    /// Task count the stage was submitted with.
    pub tasks: usize,
    /// Driver wall-clock for the whole stage.
    pub wall_micros: u64,
    /// Wall-clock of each *successful* task attempt, in completion order
    /// (the per-stage task-time histogram).
    pub task_micros: Vec<u64>,
    /// Failed task attempts (retries) observed in this stage.
    pub failed_attempts: u32,
    /// How many of those failures were injected by fault-tolerance testing.
    pub injected_failures: u32,
    /// Shuffle output of this stage's tasks (map side), summed over tasks.
    pub shuffle_bytes_written: u64,
    pub shuffle_records_written: u64,
    /// Shuffle input of this stage's tasks (reduce side), summed over tasks.
    pub shuffle_bytes_read: u64,
    pub shuffle_records_read: u64,
    /// Largest single-task shuffle write/read, for partition-size skew.
    pub max_task_shuffle_bytes_written: u64,
    pub max_task_shuffle_bytes_read: u64,
    /// Shuffle operator, when this stage is a shuffle map or reduce stage.
    pub operator: Option<String>,
    /// Per-operator output cardinalities observed inside this stage's tasks
    /// (`operator_output` events), in first-seen order. A fused narrow chain
    /// reports one entry per operator even though the stage ran a single
    /// pipelined iterator per task.
    pub operators: Vec<OperatorStats>,
    /// Block-manager cache activity attributed to this stage's tasks.
    pub cache: CacheStats,
}

/// Output cardinality of one operator within one stage, summed over tasks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OperatorStats {
    pub operator: String,
    /// Rows that flowed out of the operator's stream, over all task attempts.
    pub rows: u64,
    /// Shallow byte estimate (`rows × size_of::<T>()`).
    pub bytes: u64,
}

impl StageProfile {
    /// Slowest successful task.
    pub fn max_task_micros(&self) -> u64 {
        self.task_micros.iter().copied().max().unwrap_or(0)
    }

    /// Median successful task time.
    pub fn median_task_micros(&self) -> u64 {
        if self.task_micros.is_empty() {
            return 0;
        }
        let mut sorted = self.task_micros.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }

    /// Task-time skew `max / median` (1.0 for perfectly balanced stages).
    pub fn task_skew(&self) -> f64 {
        let med = self.median_task_micros();
        if med == 0 {
            1.0
        } else {
            self.max_task_micros() as f64 / med as f64
        }
    }

    /// Did this stage write shuffle output (i.e. is it a shuffle map stage)?
    pub fn is_shuffle_write(&self) -> bool {
        self.label.starts_with("shuffle.map")
    }

    /// One human-readable profile line, e.g.
    /// `contraction/groupByJoin stage 3 shuffle.map(groupByJoin): 8 tasks in 1.2ms, 1.2 MB shuffle write`.
    pub fn render(&self) -> String {
        let mut line = String::new();
        if let Some(tag) = &self.tag {
            line.push_str(tag);
            line.push(' ');
        }
        line.push_str(&format!(
            "stage {} {}: {} tasks in {}",
            self.stage_id,
            self.label,
            self.tasks,
            fmt_micros(self.wall_micros)
        ));
        line.push_str(&format!(
            ", max/med task {}/{}",
            fmt_micros(self.max_task_micros()),
            fmt_micros(self.median_task_micros())
        ));
        if self.shuffle_bytes_written > 0 || self.is_shuffle_write() {
            line.push_str(&format!(
                ", {} shuffle write ({} records)",
                fmt_bytes(self.shuffle_bytes_written),
                self.shuffle_records_written
            ));
        }
        if self.shuffle_bytes_read > 0 {
            line.push_str(&format!(
                ", {} shuffle read ({} records)",
                fmt_bytes(self.shuffle_bytes_read),
                self.shuffle_records_read
            ));
        }
        if self.failed_attempts > 0 {
            line.push_str(&format!(
                ", {} retried attempts ({} injected)",
                self.failed_attempts, self.injected_failures
            ));
        }
        if !self.operators.is_empty() {
            let ops: Vec<String> = self
                .operators
                .iter()
                .map(|o| format!("{} {} rows/{}", o.operator, o.rows, fmt_bytes(o.bytes)))
                .collect();
            line.push_str(&format!(", operators [{}]", ops.join(", ")));
        }
        if !self.cache.is_empty() {
            line.push_str(&format!(", cache [{}]", self.cache.render()));
        }
        line
    }

    /// Output stats of one operator inside this stage, if observed.
    pub fn operator_stats(&self, operator: &str) -> Option<&OperatorStats> {
        self.operators.iter().find(|o| o.operator == operator)
    }
}

/// One cost-based physical choice the planner made (`plan.chosen` event),
/// paired at query time with the actual shuffle volume of the stages that
/// carry the chosen tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanChoice {
    /// Chosen strategy tag, e.g. `contraction/broadcast` — equal to the
    /// `tag` of the stages the plan ran.
    pub chosen: String,
    /// False when the strategy was pinned by configuration.
    pub auto: bool,
    /// Shuffle partition count the plan resolved to.
    pub partitions: u64,
    /// The cost model's estimated shuffle bytes for the chosen strategy.
    pub est_shuffle_bytes: u64,
    /// Every eligible candidate with its estimated shuffle bytes.
    pub candidates: Vec<(String, u64)>,
    /// Stage-frontier re-decisions the adaptive driver made against this
    /// choice (`plan_replanned` events), in emission order. Empty for frozen
    /// plans and for plans whose measured statistics confirmed the estimate.
    pub replans: Vec<PlanReplan>,
}

/// One adaptive re-decision (`plan_replanned` event): measured statistics at
/// a stage frontier revised the strategy, the partition count, or both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReplan {
    /// Plan-node tag the re-decision applies to.
    pub tag: String,
    /// Strategy tag chosen at plan time.
    pub from: String,
    /// Strategy tag the node actually ran with.
    pub to: String,
    /// Plan-time estimated shuffle bytes of `from`.
    pub est_shuffle_bytes: u64,
    /// Re-costed shuffle bytes of `to` under the measured statistics.
    pub observed_bytes: u64,
    /// Partition count the remainder ran with.
    pub partitions: u64,
}

/// One fused elementwise region (`region_fused` event): the planner
/// collapsed a multi-operator elementwise expression into a single compiled
/// tile program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedRegion {
    /// Compiled instruction count (after constant folding).
    pub ops: u64,
    /// Tile inputs joined into the region.
    pub inputs: u64,
    /// Compiled program signature.
    pub signature: String,
    /// `;`-joined post-order source operator tags.
    pub source: String,
}

/// Summary of one job (one action: `collect`, `count`, ...).
#[derive(Debug, Clone, Default)]
pub struct JobSummary {
    pub job_id: u64,
    /// Action name.
    pub label: String,
    pub wall_micros: u64,
    /// Stages submitted while this job was the innermost running job.
    pub stage_ids: Vec<u64>,
}

/// A queryable profile folded from an event log.
#[derive(Debug, Clone, Default)]
pub struct JobProfile {
    /// Stages in submission order.
    pub stages: Vec<StageProfile>,
    /// Jobs in start order.
    pub jobs: Vec<JobSummary>,
    /// Cache activity per persisted dataset id, in first-seen order. Unlike
    /// the per-stage `cache` fields this also counts events that carried no
    /// stage attribution (e.g. emitted from the driver thread).
    pub cache_by_dataset: Vec<(u64, CacheStats)>,
    /// Executor-loss / recovery activity across the whole profile.
    pub recovery: RecoveryStats,
    /// Cost-based plan decisions (`plan.chosen` events), in emission order.
    pub plan_choices: Vec<PlanChoice>,
    /// Fused elementwise regions (`region_fused` events), in emission order.
    pub fused_regions: Vec<FusedRegion>,
    /// Multi-tenant admission / cancellation / plan-cache activity.
    pub service: ServiceStats,
}

impl JobProfile {
    /// Fold a raw event log into per-stage / per-job statistics. Tolerates
    /// partial logs (e.g. tracing enabled mid-job): events for unknown
    /// stages create placeholder entries.
    pub fn from_events(events: &[Event]) -> JobProfile {
        let mut profile = JobProfile::default();
        for event in events {
            match event {
                Event::JobStart { job_id, label, .. } => profile.jobs.push(JobSummary {
                    job_id: *job_id,
                    label: label.clone(),
                    ..JobSummary::default()
                }),
                Event::JobEnd {
                    job_id,
                    wall_micros,
                } => {
                    if let Some(job) = profile.jobs.iter_mut().find(|j| j.job_id == *job_id) {
                        job.wall_micros = *wall_micros;
                    }
                }
                Event::StageStart {
                    stage_id,
                    job_id,
                    label,
                    tag,
                    lineage,
                    tasks,
                    ..
                } => {
                    let stage = profile.stage_mut(*stage_id);
                    stage.job_id = *job_id;
                    stage.label = label.clone();
                    stage.tag = tag.clone();
                    stage.lineage = lineage.clone();
                    stage.tasks = *tasks;
                    if let Some(job_id) = job_id {
                        if let Some(job) = profile.jobs.iter_mut().find(|j| j.job_id == *job_id) {
                            job.stage_ids.push(*stage_id);
                        }
                    }
                }
                Event::TaskEnd {
                    stage_id,
                    wall_micros,
                    ok,
                    injected,
                    ..
                } => {
                    let stage = profile.stage_mut(*stage_id);
                    if *ok {
                        stage.task_micros.push(*wall_micros);
                    } else {
                        stage.failed_attempts += 1;
                        if *injected {
                            stage.injected_failures += 1;
                        }
                    }
                }
                Event::StageEnd {
                    stage_id,
                    wall_micros,
                } => profile.stage_mut(*stage_id).wall_micros = *wall_micros,
                Event::ShuffleWrite {
                    stage_id,
                    operator,
                    bytes,
                    records,
                    ..
                } => {
                    let stage = profile.stage_mut(*stage_id);
                    stage.shuffle_bytes_written += bytes;
                    stage.shuffle_records_written += records;
                    stage.max_task_shuffle_bytes_written =
                        stage.max_task_shuffle_bytes_written.max(*bytes);
                    stage.operator = Some(operator.clone());
                }
                Event::ShuffleRead {
                    stage_id,
                    operator,
                    bytes,
                    records,
                    ..
                } => {
                    let stage = profile.stage_mut(*stage_id);
                    stage.shuffle_bytes_read += bytes;
                    stage.shuffle_records_read += records;
                    stage.max_task_shuffle_bytes_read =
                        stage.max_task_shuffle_bytes_read.max(*bytes);
                    stage.operator = Some(operator.clone());
                }
                Event::OperatorOutput {
                    stage_id,
                    operator,
                    rows,
                    bytes,
                    ..
                } => {
                    // Driver-side drains (no stage) have nowhere to attach.
                    if let Some(stage_id) = stage_id {
                        let stage = profile.stage_mut(*stage_id);
                        let stats =
                            match stage.operators.iter_mut().find(|o| o.operator == *operator) {
                                Some(stats) => stats,
                                None => {
                                    stage.operators.push(OperatorStats {
                                        operator: operator.clone(),
                                        ..OperatorStats::default()
                                    });
                                    stage.operators.last_mut().unwrap()
                                }
                            };
                        stats.rows += rows;
                        stats.bytes += bytes;
                    }
                }
                Event::CacheHit {
                    dataset, stage_id, ..
                } => profile.record_cache(*dataset, *stage_id, |c| c.hits += 1),
                Event::CacheMiss {
                    dataset, stage_id, ..
                } => profile.record_cache(*dataset, *stage_id, |c| c.misses += 1),
                Event::CacheEvict {
                    dataset, stage_id, ..
                } => profile.record_cache(*dataset, *stage_id, |c| c.evictions += 1),
                Event::CacheRecompute {
                    dataset, stage_id, ..
                } => profile.record_cache(*dataset, *stage_id, |c| c.recomputes += 1),
                Event::ExecutorLost {
                    lost_map_outputs,
                    lost_blocks,
                    ..
                } => {
                    profile.recovery.executors_lost += 1;
                    profile.recovery.lost_map_outputs += lost_map_outputs;
                    profile.recovery.lost_blocks += lost_blocks;
                }
                Event::WorkerLost { .. } => profile.recovery.workers_lost += 1,
                Event::FetchRetry { .. } => profile.recovery.fetch_retries += 1,
                Event::FetchFailed { .. } => profile.recovery.fetch_failures += 1,
                Event::StageResubmitted { missing_tasks, .. } => {
                    profile.recovery.stages_resubmitted += 1;
                    profile.recovery.resubmitted_tasks += missing_tasks;
                }
                Event::PlanChosen {
                    chosen,
                    auto,
                    partitions,
                    est_shuffle_bytes,
                    candidates,
                    ..
                } => profile.plan_choices.push(PlanChoice {
                    chosen: chosen.clone(),
                    auto: *auto,
                    partitions: *partitions,
                    est_shuffle_bytes: *est_shuffle_bytes,
                    candidates: candidates.clone(),
                    replans: Vec::new(),
                }),
                Event::PlanReplanned {
                    tag,
                    from,
                    to,
                    est_shuffle_bytes,
                    observed_bytes,
                    partitions,
                    ..
                } => {
                    let replan = PlanReplan {
                        tag: tag.clone(),
                        from: from.clone(),
                        to: to.clone(),
                        est_shuffle_bytes: *est_shuffle_bytes,
                        observed_bytes: *observed_bytes,
                        partitions: *partitions,
                    };
                    // Fold onto the choice the re-decision revised: the last
                    // choice whose chosen tag matches, else the last choice
                    // (a replan is always preceded by its `plan_chosen`).
                    let idx = profile
                        .plan_choices
                        .iter()
                        .rposition(|c| c.chosen == *tag)
                        .or_else(|| profile.plan_choices.len().checked_sub(1));
                    if let Some(i) = idx {
                        profile.plan_choices[i].replans.push(replan);
                    }
                }
                Event::JobAdmitted { queue_micros, .. } => {
                    profile.service.jobs_admitted += 1;
                    profile.service.queue_micros += queue_micros;
                }
                Event::JobCancelled { .. } => profile.service.jobs_cancelled += 1,
                Event::PlanCacheHit { .. } => profile.service.plan_cache_hits += 1,
                Event::RegionFused {
                    ops,
                    inputs,
                    signature,
                    source,
                    ..
                } => profile.fused_regions.push(FusedRegion {
                    ops: *ops,
                    inputs: *inputs,
                    signature: signature.clone(),
                    source: source.clone(),
                }),
            }
        }
        // Recovery wall-clock: time spent in resubmitted map stages (labels
        // `shuffle.resubmit(op)`), which only exist because of a fault.
        profile.recovery.recovery_wall_micros = profile
            .stages
            .iter()
            .filter(|s| s.label.starts_with("shuffle.resubmit"))
            .map(|s| s.wall_micros)
            .sum();
        profile
    }

    /// Apply one cache-event increment to the owning dataset's stats and, when
    /// the event was attributed to a stage, to that stage's stats too.
    fn record_cache(&mut self, dataset: u64, stage_id: Option<u64>, f: impl Fn(&mut CacheStats)) {
        let per_dataset = match self
            .cache_by_dataset
            .iter_mut()
            .find(|(d, _)| *d == dataset)
        {
            Some((_, stats)) => stats,
            None => {
                self.cache_by_dataset.push((dataset, CacheStats::default()));
                &mut self.cache_by_dataset.last_mut().unwrap().1
            }
        };
        f(per_dataset);
        if let Some(stage_id) = stage_id {
            f(&mut self.stage_mut(stage_id).cache);
        }
    }

    fn stage_mut(&mut self, stage_id: u64) -> &mut StageProfile {
        if let Some(i) = self.stages.iter().position(|s| s.stage_id == stage_id) {
            return &mut self.stages[i];
        }
        self.stages.push(StageProfile {
            stage_id,
            label: "?".into(),
            ..StageProfile::default()
        });
        self.stages.last_mut().unwrap()
    }

    /// Stage by id, if present.
    pub fn stage(&self, stage_id: u64) -> Option<&StageProfile> {
        self.stages.iter().find(|s| s.stage_id == stage_id)
    }

    /// Stages that ran under the given job.
    pub fn stages_of_job(&self, job_id: u64) -> Vec<&StageProfile> {
        self.stages
            .iter()
            .filter(|s| s.job_id == Some(job_id))
            .collect()
    }

    /// Number of shuffle *map* stages in the whole profile — the "how many
    /// shuffles did this plan run" figure the paper argues about.
    pub fn shuffle_stage_count(&self) -> usize {
        self.stages.iter().filter(|s| s.is_shuffle_write()).count()
    }

    /// Number of shuffle map stages attributed to one job.
    pub fn shuffle_stages_of_job(&self, job_id: u64) -> usize {
        self.stages
            .iter()
            .filter(|s| s.job_id == Some(job_id) && s.is_shuffle_write())
            .count()
    }

    /// Total shuffle bytes written across all stages.
    pub fn total_shuffle_bytes_written(&self) -> u64 {
        self.stages.iter().map(|s| s.shuffle_bytes_written).sum()
    }

    /// Total shuffle bytes read across all stages.
    pub fn total_shuffle_bytes_read(&self) -> u64 {
        self.stages.iter().map(|s| s.shuffle_bytes_read).sum()
    }

    /// Total failed task attempts (retries) across all stages.
    pub fn total_failed_attempts(&self) -> u32 {
        self.stages.iter().map(|s| s.failed_attempts).sum()
    }

    /// Cache activity summed over every persisted dataset.
    pub fn cache_totals(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for (_, stats) in &self.cache_by_dataset {
            total.add(stats);
        }
        total
    }

    /// Cache activity for one persisted dataset id.
    pub fn cache_of_dataset(&self, dataset: u64) -> CacheStats {
        self.cache_by_dataset
            .iter()
            .find(|(d, _)| *d == dataset)
            .map(|(_, stats)| *stats)
            .unwrap_or_default()
    }

    /// Actual shuffle bytes written by the stages a plan choice produced:
    /// the sum over stages whose `tag` equals the chosen strategy tag. The
    /// est-vs-actual comparison `explain_analyze` prints.
    ///
    /// Resubmitted map stages (labels `shuffle.resubmit(op)`) inherit the
    /// plan tag but re-write bytes the first attempt already wrote, so they
    /// are excluded — a faulted run reports first-successful-attempt bytes,
    /// the figure the estimate is comparable to.
    pub fn actual_shuffle_bytes_of_tag(&self, tag: &str) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.tag.as_deref() == Some(tag) && !s.label.starts_with("shuffle.resubmit"))
            .map(|s| s.shuffle_bytes_written)
            .sum()
    }

    /// Shuffle write volume per operator name, in first-seen order.
    pub fn shuffle_bytes_by_operator(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        for stage in &self.stages {
            let (Some(op), true) = (&stage.operator, stage.shuffle_bytes_written > 0) else {
                continue;
            };
            match out.iter_mut().find(|(name, _)| name == op) {
                Some((_, bytes)) => *bytes += stage.shuffle_bytes_written,
                None => out.push((op.clone(), stage.shuffle_bytes_written)),
            }
        }
        out
    }

    /// Multi-line human-readable rendering of the whole profile.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for job in &self.jobs {
            out.push_str(&format!(
                "job {} ({}): {} stages, {}\n",
                job.job_id,
                job.label,
                job.stage_ids.len(),
                fmt_micros(job.wall_micros)
            ));
            for stage_id in &job.stage_ids {
                if let Some(stage) = self.stage(*stage_id) {
                    out.push_str("  ");
                    out.push_str(&stage.render());
                    out.push('\n');
                }
            }
        }
        let orphans: Vec<&StageProfile> = self
            .stages
            .iter()
            .filter(|s| s.job_id.is_none() || !self.jobs.iter().any(|j| Some(j.job_id) == s.job_id))
            .collect();
        if !orphans.is_empty() {
            out.push_str("stages outside any traced job:\n");
            for stage in orphans {
                out.push_str("  ");
                out.push_str(&stage.render());
                out.push('\n');
            }
        }
        for choice in &self.plan_choices {
            let mode = if choice.auto { "auto" } else { "pinned" };
            out.push_str(&format!(
                "plan.chosen {} ({mode}, {} partitions): est {} shuffle, actual {}\n",
                choice.chosen,
                choice.partitions,
                fmt_bytes(choice.est_shuffle_bytes),
                fmt_bytes(self.actual_shuffle_bytes_of_tag(&choice.chosen)),
            ));
            for (tag, est) in &choice.candidates {
                out.push_str(&format!("  candidate {tag}: est {}\n", fmt_bytes(*est)));
            }
            for replan in &choice.replans {
                out.push_str(&format!(
                    "  plan.replanned {} -> {} ({} partitions): est {}, observed {}\n",
                    replan.from,
                    replan.to,
                    replan.partitions,
                    fmt_bytes(replan.est_shuffle_bytes),
                    fmt_bytes(replan.observed_bytes),
                ));
            }
        }
        for (dataset, stats) in &self.cache_by_dataset {
            out.push_str(&format!("cache dataset {}: {}\n", dataset, stats.render()));
        }
        if !self.recovery.is_empty() {
            out.push_str(&format!("recovery: {}\n", self.recovery.render()));
        }
        if !self.service.is_empty() {
            out.push_str(&format!("service: {}\n", self.service.render()));
        }
        if out.is_empty() {
            out.push_str("(empty profile — was tracing enabled?)\n");
        }
        out
    }
}

/// `1234` -> `1.2 KB`, etc.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// Microseconds -> human-readable duration.
pub fn fmt_micros(micros: u64) -> String {
    if micros >= 1_000_000 {
        format!("{:.2}s", micros as f64 / 1e6)
    } else if micros >= 1_000 {
        format!("{:.1}ms", micros as f64 / 1e3)
    } else {
        format!("{micros}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Event;

    fn log() -> Vec<Event> {
        vec![
            Event::JobStart {
                job_id: 3,
                label: "collect".into(),
                at_micros: 0,
            },
            Event::StageStart {
                stage_id: 10,
                job_id: Some(3),
                label: "shuffle.map(reduceByKey)".into(),
                tag: Some("contraction/reduceByKey".into()),
                lineage: Some("reduceByKey <~ source".into()),
                tasks: 2,
                at_micros: 1,
            },
            Event::TaskEnd {
                stage_id: 10,
                task: 0,
                attempt: 0,
                wall_micros: 100,
                ok: true,
                injected: false,
            },
            Event::TaskEnd {
                stage_id: 10,
                task: 1,
                attempt: 0,
                wall_micros: 10,
                ok: false,
                injected: true,
            },
            Event::TaskEnd {
                stage_id: 10,
                task: 1,
                attempt: 1,
                wall_micros: 20,
                ok: true,
                injected: false,
            },
            Event::ShuffleWrite {
                stage_id: 10,
                shuffle_id: 0,
                operator: "reduceByKey".into(),
                task: 0,
                bytes: 3000,
                records: 5,
            },
            Event::ShuffleWrite {
                stage_id: 10,
                shuffle_id: 0,
                operator: "reduceByKey".into(),
                task: 1,
                bytes: 1000,
                records: 3,
            },
            Event::StageEnd {
                stage_id: 10,
                wall_micros: 150,
            },
            Event::StageStart {
                stage_id: 11,
                job_id: Some(3),
                label: "shuffle.reduce(reduceByKey)".into(),
                tag: Some("contraction/reduceByKey".into()),
                lineage: None,
                tasks: 1,
                at_micros: 160,
            },
            Event::ShuffleRead {
                stage_id: 11,
                shuffle_id: 0,
                operator: "reduceByKey".into(),
                task: 0,
                bytes: 4000,
                records: 8,
            },
            Event::TaskEnd {
                stage_id: 11,
                task: 0,
                attempt: 0,
                wall_micros: 40,
                ok: true,
                injected: false,
            },
            Event::StageEnd {
                stage_id: 11,
                wall_micros: 50,
            },
            Event::JobEnd {
                job_id: 3,
                wall_micros: 230,
            },
        ]
    }

    #[test]
    fn folds_stages_jobs_and_shuffle_io() {
        let p = JobProfile::from_events(&log());
        assert_eq!(p.jobs.len(), 1);
        assert_eq!(p.jobs[0].label, "collect");
        assert_eq!(p.jobs[0].stage_ids, vec![10, 11]);
        assert_eq!(p.stages.len(), 2);
        assert_eq!(p.shuffle_stage_count(), 1);
        assert_eq!(p.shuffle_stages_of_job(3), 1);
        assert_eq!(p.total_shuffle_bytes_written(), 4000);
        assert_eq!(p.total_shuffle_bytes_read(), 4000);
        let map = p.stage(10).unwrap();
        assert_eq!(map.tasks, 2);
        assert_eq!(map.task_micros, vec![100, 20]);
        assert_eq!(map.failed_attempts, 1);
        assert_eq!(map.injected_failures, 1);
        assert_eq!(map.max_task_micros(), 100);
        assert_eq!(map.median_task_micros(), 100);
        assert_eq!(map.max_task_shuffle_bytes_written, 3000);
        assert!(map.is_shuffle_write());
        let red = p.stage(11).unwrap();
        assert!(!red.is_shuffle_write());
        assert_eq!(red.shuffle_bytes_read, 4000);
        assert_eq!(
            p.shuffle_bytes_by_operator(),
            vec![("reduceByKey".to_string(), 4000)]
        );
    }

    #[test]
    fn render_mentions_tag_stage_and_volume() {
        let p = JobProfile::from_events(&log());
        let text = p.render();
        assert!(text.contains("job 3 (collect)"), "{text}");
        assert!(text.contains("contraction/reduceByKey stage 10"), "{text}");
        assert!(text.contains("shuffle write"), "{text}");
        assert!(text.contains("retried attempts (1 injected)"), "{text}");
    }

    #[test]
    fn skew_is_max_over_median() {
        let stage = StageProfile {
            task_micros: vec![10, 10, 40],
            ..StageProfile::default()
        };
        assert_eq!(stage.median_task_micros(), 10);
        assert_eq!(stage.max_task_micros(), 40);
        assert!((stage.task_skew() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn tolerates_partial_logs() {
        let p = JobProfile::from_events(&[Event::TaskEnd {
            stage_id: 99,
            task: 0,
            attempt: 0,
            wall_micros: 5,
            ok: true,
            injected: false,
        }]);
        assert_eq!(p.stages.len(), 1);
        assert_eq!(p.stages[0].label, "?");
        assert!(p.render().contains("stages outside any traced job"));
    }

    #[test]
    fn folds_cache_events_per_stage_and_per_dataset() {
        let events = vec![
            Event::StageStart {
                stage_id: 7,
                job_id: None,
                label: "action(collect)".into(),
                tag: None,
                lineage: None,
                tasks: 2,
                at_micros: 0,
            },
            Event::CacheMiss {
                dataset: 1,
                partition: 0,
                stage_id: Some(7),
            },
            Event::CacheHit {
                dataset: 1,
                partition: 0,
                bytes: 64,
                stage_id: Some(7),
            },
            Event::CacheHit {
                dataset: 1,
                partition: 1,
                bytes: 64,
                stage_id: Some(7),
            },
            Event::CacheEvict {
                dataset: 1,
                partition: 0,
                bytes: 64,
                stage_id: Some(7),
            },
            Event::CacheRecompute {
                dataset: 1,
                partition: 0,
                stage_id: Some(7),
            },
            // Dataset 2's activity carries no stage attribution: it must
            // count in the per-dataset view and totals but not in stage 7.
            Event::CacheMiss {
                dataset: 2,
                partition: 0,
                stage_id: None,
            },
        ];
        let p = JobProfile::from_events(&events);
        let stage = p.stage(7).unwrap();
        assert_eq!(
            stage.cache,
            CacheStats {
                hits: 2,
                misses: 1,
                evictions: 1,
                recomputes: 1,
            }
        );
        assert_eq!(
            p.cache_of_dataset(1),
            CacheStats {
                hits: 2,
                misses: 1,
                evictions: 1,
                recomputes: 1,
            }
        );
        assert_eq!(p.cache_of_dataset(2).misses, 1);
        assert_eq!(p.cache_totals().misses, 2);
        assert_eq!(p.cache_of_dataset(99), CacheStats::default());
        let text = p.render();
        assert!(
            text.contains("cache [2 hits, 1 misses, 1 recomputed, 1 evicted]"),
            "{text}"
        );
        assert!(text.contains("cache dataset 1:"), "{text}");
        assert!(text.contains("cache dataset 2:"), "{text}");
    }

    #[test]
    fn folds_recovery_events_and_resubmit_wall_clock() {
        let events = vec![
            Event::WorkerLost {
                worker: 0,
                executors: 1,
                at_micros: 39,
            },
            Event::ExecutorLost {
                executor: 1,
                lost_map_outputs: 3,
                lost_blocks: 2,
                at_micros: 40,
            },
            Event::FetchRetry {
                shuffle_id: 5,
                reduce_task: 0,
                map_partition: 2,
                attempt: 0,
            },
            Event::FetchRetry {
                shuffle_id: 5,
                reduce_task: 0,
                map_partition: 2,
                attempt: 1,
            },
            Event::FetchFailed {
                shuffle_id: 5,
                stage_id: 21,
                reduce_task: 0,
                lost_map_outputs: 3,
            },
            Event::StageResubmitted {
                shuffle_id: 5,
                attempt: 1,
                missing_tasks: 3,
            },
            Event::StageStart {
                stage_id: 22,
                job_id: None,
                label: "shuffle.resubmit(reduceByKey)".into(),
                tag: None,
                lineage: None,
                tasks: 3,
                at_micros: 50,
            },
            Event::StageEnd {
                stage_id: 22,
                wall_micros: 75,
            },
        ];
        let p = JobProfile::from_events(&events);
        assert_eq!(
            p.recovery,
            RecoveryStats {
                workers_lost: 1,
                executors_lost: 1,
                lost_map_outputs: 3,
                lost_blocks: 2,
                fetch_retries: 2,
                fetch_failures: 1,
                stages_resubmitted: 1,
                resubmitted_tasks: 3,
                recovery_wall_micros: 75,
            }
        );
        // Resubmitted map stages must not count as fresh shuffle stages.
        assert_eq!(p.shuffle_stage_count(), 0);
        let text = p.render();
        assert!(text.contains("recovery: 1 executors lost"), "{text}");
        assert!(text.contains("1 worker processes lost"), "{text}");
        assert!(text.contains("2 fetch retries"), "{text}");
        assert!(text.contains("1 stages resubmitted (3 tasks)"), "{text}");
    }

    #[test]
    fn folds_plan_choices_and_pairs_estimate_with_actual_bytes() {
        let mut events = log();
        events.push(Event::PlanChosen {
            chosen: "contraction/reduceByKey".into(),
            auto: true,
            partitions: 4,
            est_shuffle_bytes: 5000,
            candidates: vec![
                ("contraction/reduceByKey".into(), 5000),
                ("contraction/groupByJoin".into(), 9000),
            ],
            at_micros: 240,
        });
        let p = JobProfile::from_events(&events);
        assert_eq!(p.plan_choices.len(), 1);
        let choice = &p.plan_choices[0];
        assert!(choice.auto);
        assert_eq!(choice.est_shuffle_bytes, 5000);
        // Stage 10 (tagged contraction/reduceByKey) wrote 4000 bytes.
        assert_eq!(p.actual_shuffle_bytes_of_tag(&choice.chosen), 4000);
        assert_eq!(p.actual_shuffle_bytes_of_tag("contraction/broadcast"), 0);
        let text = p.render();
        assert!(
            text.contains("plan.chosen contraction/reduceByKey (auto, 4 partitions)"),
            "{text}"
        );
        assert!(text.contains("est 4.9 KB shuffle, actual 3.9 KB"), "{text}");
        assert!(text.contains("candidate contraction/groupByJoin"), "{text}");
    }

    /// A resubmitted map stage inherits the plan tag but re-writes bytes the
    /// first attempt already wrote; actual-vs-estimate must count only the
    /// first successful attempt, not sum attempts.
    #[test]
    fn resubmitted_stage_bytes_do_not_inflate_actual_of_tag() {
        let mut events = log();
        events.extend([
            Event::StageStart {
                stage_id: 12,
                job_id: Some(3),
                label: "shuffle.resubmit(reduceByKey)".into(),
                tag: Some("contraction/reduceByKey".into()),
                lineage: None,
                tasks: 1,
                at_micros: 200,
            },
            Event::ShuffleWrite {
                stage_id: 12,
                shuffle_id: 0,
                operator: "reduceByKey".into(),
                task: 1,
                bytes: 1000,
                records: 3,
            },
            Event::StageEnd {
                stage_id: 12,
                wall_micros: 30,
            },
        ]);
        let p = JobProfile::from_events(&events);
        // The resubmission is still visible in totals and recovery stats...
        assert_eq!(p.total_shuffle_bytes_written(), 5000);
        assert_eq!(p.recovery.recovery_wall_micros, 30);
        // ...but the est-vs-actual pairing reports first-attempt bytes only.
        assert_eq!(
            p.actual_shuffle_bytes_of_tag("contraction/reduceByKey"),
            4000
        );
    }

    #[test]
    fn folds_replans_onto_their_plan_choice_and_renders_them() {
        let mut events = log();
        events.push(Event::PlanChosen {
            chosen: "contraction/reduceByKey".into(),
            auto: true,
            partitions: 4,
            est_shuffle_bytes: 5000,
            candidates: vec![("contraction/reduceByKey".into(), 5000)],
            at_micros: 240,
        });
        events.push(Event::PlanReplanned {
            tag: "contraction/reduceByKey".into(),
            from: "contraction/reduceByKey".into(),
            to: "contraction/broadcast".into(),
            est_shuffle_bytes: 5000,
            observed_bytes: 700,
            partitions: 8,
            at_micros: 245,
        });
        let p = JobProfile::from_events(&events);
        assert_eq!(p.plan_choices.len(), 1);
        assert_eq!(
            p.plan_choices[0].replans,
            vec![PlanReplan {
                tag: "contraction/reduceByKey".into(),
                from: "contraction/reduceByKey".into(),
                to: "contraction/broadcast".into(),
                est_shuffle_bytes: 5000,
                observed_bytes: 700,
                partitions: 8,
            }]
        );
        let text = p.render();
        assert!(
            text.contains(
                "plan.replanned contraction/reduceByKey -> contraction/broadcast \
                 (8 partitions): est 4.9 KB, observed 700 B"
            ),
            "{text}"
        );
    }

    #[test]
    fn folds_service_events() {
        let events = vec![
            Event::JobAdmitted {
                tenant: "alice".into(),
                job: 1,
                queue_micros: 120,
                at_micros: 0,
            },
            Event::JobAdmitted {
                tenant: "bob".into(),
                job: 2,
                queue_micros: 80,
                at_micros: 5,
            },
            Event::JobCancelled {
                tenant: "bob".into(),
                job: 2,
                stage_id: Some(4),
                at_micros: 9,
            },
            Event::PlanCacheHit {
                tenant: "alice".into(),
                key: 0xbeef,
                at_micros: 12,
            },
        ];
        let p = JobProfile::from_events(&events);
        assert_eq!(
            p.service,
            ServiceStats {
                jobs_admitted: 2,
                jobs_cancelled: 1,
                plan_cache_hits: 1,
                queue_micros: 200,
            }
        );
        let text = p.render();
        assert!(
            text.contains("service: 2 jobs admitted (200us queued)"),
            "{text}"
        );
        assert!(text.contains("1 cancelled"), "{text}");
        assert!(text.contains("1 plan-cache hits"), "{text}");
    }

    #[test]
    fn empty_recovery_stats_render_nothing() {
        let p = JobProfile::from_events(&log());
        assert!(p.recovery.is_empty());
        assert!(!p.render().contains("recovery:"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(1536), "1.5 KB");
        assert_eq!(fmt_bytes(1024 * 1024 * 3 / 2), "1.5 MB");
        assert_eq!(fmt_micros(900), "900us");
        assert_eq!(fmt_micros(1500), "1.5ms");
        assert_eq!(fmt_micros(2_500_000), "2.50s");
    }
}
