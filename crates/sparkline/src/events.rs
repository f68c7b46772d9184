//! Structured runtime events — sparkline's analog of Spark's listener bus
//! and event log.
//!
//! The scheduler ([`crate::Context`]) and the shuffle machinery emit one
//! [`Event`] per interesting occurrence: job and stage boundaries with
//! wall-clock timing, every task attempt (including retries and injected
//! failures), and per-task shuffle bytes/records written and read. Events
//! are gathered by the context's [`EventCollector`] and can be folded into a
//! queryable [`crate::profile::JobProfile`] or serialized as a JSON event
//! log (see `EXPERIMENTS.md` for the schema). The log is an export only:
//! every consumer in the workspace reads the in-process `Event`s, and nothing
//! parses the JSON back.
//!
//! Collection is off by default and costs one relaxed atomic load per
//! emission site when disabled, so the instrumented hot paths stay cheap.

use crate::json::{self, JsonObject};
use crate::sync::Mutex;
use std::fmt::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Expands the schema table below — the one declaration of every event —
/// into `enum Event`, its JSON writer and, for tests, the `"type"` tags and
/// field names of every kind. A JSON key is its field's name, keys are
/// emitted in field order, and how a value is written follows from the
/// field's type alone ([`Field`]).
macro_rules! event_schema {
    ($(
        $(#[$variant_meta:meta])*
        $variant:ident $tag:literal {
            $( $(#[$field_meta:meta])* $field:ident: $ty:ty ),* $(,)?
        }
    )*) => {
        /// One structured runtime event. Timestamps are microseconds since the
        /// collector's epoch (context creation).
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Event {
            $( $(#[$variant_meta])* $variant { $( $(#[$field_meta])* $field: $ty ),* } ),*
        }

        impl Event {
            /// The `"type"` tag of every event kind, in schema order.
            #[cfg(test)]
            const KINDS: &'static [&'static str] = &[$($tag),*];

            /// `(type tag, JSON keys after "type")` of every event kind, in
            /// schema order.
            #[cfg(test)]
            const FIELDS: &'static [(&'static str, &'static [&'static str])] =
                &[$(($tag, &[$(stringify!($field)),*])),*];

            /// One-line JSON object for this event.
            pub fn to_json(&self) -> String {
                let mut o = JsonObject::new();
                match self {
                    $( Event::$variant { $($field),* } => {
                        o.string("type", $tag);
                        $( $field.write(o.key(stringify!($field))); )*
                    } )*
                }
                o.finish()
            }
        }
    };
}

event_schema! {
    /// An action (job) started on the driver.
    JobStart "job_start" {
        job_id: u64,
        /// Action name, e.g. `collect` or `count`.
        label: String,
        at_micros: u64,
    }
    /// The matching action finished (successfully or not).
    JobEnd "job_end" { job_id: u64, wall_micros: u64 }
    /// A stage of `tasks` tasks was submitted to the executor pool.
    StageStart "stage_start" {
        stage_id: u64,
        /// Innermost job running when the stage was submitted, if any.
        job_id: Option<u64>,
        /// Scheduler-level stage kind, e.g. `shuffle.map(reduceByKey)` or
        /// `action(collect)`.
        label: String,
        /// Plan node that produced this stage (set by the planner), e.g.
        /// `contraction/groupByJoin`.
        tag: Option<String>,
        /// Operator lineage of the stage's input, innermost source last.
        lineage: Option<String>,
        tasks: usize,
        at_micros: u64,
    }
    /// One task attempt finished. Failed attempts (`ok == false`) are
    /// emitted too, so retry storms are visible; `injected` marks failures
    /// planted by a [`crate::ChaosEvent::FailTask`].
    TaskEnd "task_end" {
        stage_id: u64,
        task: usize,
        attempt: u32,
        wall_micros: u64,
        ok: bool,
        injected: bool,
    }
    /// All tasks of the stage completed.
    StageEnd "stage_end" { stage_id: u64, wall_micros: u64 }
    /// One map task's shuffle output (its partition of the shuffle write).
    ShuffleWrite "shuffle_write" {
        stage_id: u64,
        shuffle_id: u64,
        operator: String,
        task: usize,
        bytes: u64,
        records: u64,
    }
    /// One reduce task's shuffle input (its partition of the shuffle read).
    ShuffleRead "shuffle_read" {
        stage_id: u64,
        shuffle_id: u64,
        operator: String,
        task: usize,
        bytes: u64,
        records: u64,
    }
    /// One operator's output cardinality for one task attempt: how many rows
    /// flowed out of the operator's stream and a shallow byte estimate
    /// (`rows × size_of::<T>()`). Emitted once per operator per task attempt
    /// when tracing is on; retried attempts emit again, so consumers
    /// aggregating exact counts should run with chaos off.
    OperatorOutput "operator_output" {
        /// Innermost stage whose task drained the stream, if any (driver-side
        /// drains carry no stage).
        stage_id: Option<u64>,
        task: usize,
        operator: String,
        rows: u64,
        bytes: u64,
    }
    /// A persisted partition was served from the block manager.
    CacheHit "cache_hit" {
        /// Persisted dataset id ([`crate::storage::BlockManager`] key).
        dataset: u64,
        partition: usize,
        /// Estimated in-memory size of the block.
        bytes: u64,
        /// Innermost stage whose task performed the read, if any (cache
        /// reads on the driver carry no stage).
        stage_id: Option<u64>,
    }
    /// A persisted partition was requested before it was ever stored.
    CacheMiss "cache_miss" {
        dataset: u64,
        partition: usize,
        stage_id: Option<u64>,
    }
    /// A block was dropped to fit the storage budget; the next read
    /// recomputes it from lineage.
    CacheEvict "cache_evict" {
        dataset: u64,
        partition: usize,
        bytes: u64,
        stage_id: Option<u64>,
    }
    /// A previously evicted partition was recomputed from lineage.
    CacheRecompute "cache_recompute" {
        dataset: u64,
        partition: usize,
        stage_id: Option<u64>,
    }
    /// A logical executor died (chaos kill or
    /// [`crate::Context::kill_executor`]): the shuffle map outputs and
    /// cached blocks it owned are lost and will be recomputed on demand.
    ExecutorLost "executor_lost" {
        executor: usize,
        /// Live shuffle map outputs swept with the executor.
        lost_map_outputs: u64,
        /// Cached blocks swept with the executor.
        lost_blocks: u64,
        at_micros: u64,
    }
    /// A worker *process* died (chaos `kill -9`, a crash, or a blown
    /// heartbeat deadline) and was respawned with an empty block store. The
    /// logical executors it hosted are swept like an
    /// [`Event::ExecutorLost`] each.
    WorkerLost "worker_lost" {
        worker: usize,
        /// How many logical executors were hosted on (and swept with) it.
        executors: u64,
        at_micros: u64,
    }
    /// One remote shuffle-fetch attempt failed (dead worker, dropped stream,
    /// CRC-rejected frame) and is being retried with backoff. `attempt` is
    /// 0-based; exhausting the retry budget escalates to
    /// [`Event::FetchFailed`].
    FetchRetry "fetch_retry" {
        shuffle_id: u64,
        reduce_task: usize,
        map_partition: usize,
        attempt: u32,
    }
    /// A reduce task found map outputs missing (executor loss or an injected
    /// fetch failure) and handed the stage back for resubmission instead of
    /// panicking.
    FetchFailed "fetch_failed" {
        shuffle_id: u64,
        /// The reduce stage whose task observed the failure.
        stage_id: u64,
        reduce_task: usize,
        /// How many map outputs that task found missing.
        lost_map_outputs: u64,
    }
    /// The scheduler resubmitted a shuffle's map stage covering only its
    /// missing partitions. `attempt` counts resubmissions of this shuffle
    /// (the initial stage is attempt 0).
    StageResubmitted "stage_resubmitted" {
        shuffle_id: u64,
        attempt: u32,
        /// Map partitions recomputed by this resubmission.
        missing_tasks: u64,
    }
    /// The planner resolved a cost-based physical choice, or fell back to
    /// the reference interpreter (`plan.chosen`).
    /// Stage tags of the plan's shuffles equal `chosen`, which is how
    /// profiles pair the estimate with the actual shuffle bytes.
    PlanChosen "plan_chosen" {
        /// Chosen strategy tag, e.g. `contraction/broadcast`.
        chosen: String,
        /// False when the strategy was pinned by configuration.
        auto: bool,
        /// Resolved shuffle partition count the plan runs with.
        partitions: u64,
        /// Estimated shuffle bytes of the chosen strategy.
        est_shuffle_bytes: u64,
        /// `(strategy tag, estimated shuffle bytes)` for every candidate the
        /// cost model considered eligible.
        candidates: Vec<(String, u64)>,
        /// Why every distributed row rejected the statement, when `chosen`
        /// is the interpreter fallback (`localFallback`); `null` for a
        /// cost-based choice.
        reason: Option<String>,
        at_micros: u64,
    }
    /// The query service's fair scheduler granted a tenant job one of its
    /// admission slots. `queue_micros` is the wall time the job waited in the
    /// admission queue.
    JobAdmitted "job_admitted" {
        /// Tenant name as registered with the service.
        tenant: String,
        /// Service-level job id (a separate id space from runtime `job_id`s:
        /// one admitted service job typically runs several runtime jobs).
        job: u64,
        queue_micros: u64,
        at_micros: u64,
    }
    /// A cooperative cancellation was observed at a task boundary: the
    /// in-flight tasks of the current stage finish, no further tasks of the
    /// job are launched, and its action fails with a `Cancelled` job error.
    /// Emitted once per cancelled job.
    JobCancelled "job_cancelled" {
        tenant: String,
        /// Service-level job id (see [`Event::JobAdmitted`]).
        job: u64,
        /// Stage whose worker observed the cancellation, if any.
        stage_id: Option<u64>,
        at_micros: u64,
    }
    /// A query's physical plan was served from the service's plan cache
    /// instead of being re-planned. `key` is the cache key hash (canonical
    /// comprehension text plus binding fingerprints and planner knobs).
    PlanCacheHit "plan_cache_hit" {
        tenant: String,
        key: u64,
        at_micros: u64,
    }
    /// The planner collapsed an elementwise region into one fused tile
    /// program (`region_fused`): `ops` compiled instructions over `inputs`
    /// tile inputs, executed as a single kernel pass per tile.
    RegionFused "region_fused" {
        /// Compiled instruction count of the fused program (after constant
        /// folding).
        ops: u64,
        /// Number of tile inputs joined into the region.
        inputs: u64,
        /// Compiled program signature (also folded into service plan-cache
        /// keys).
        signature: String,
        /// Post-order source operator tags of the region, `;`-joined.
        source: String,
        at_micros: u64,
    }
}

/// Lock-cheap event sink owned by a [`crate::Context`].
///
/// Disabled collectors only pay an atomic load per [`EventCollector::emit`];
/// enabled ones append to a mutex-guarded buffer (events are emitted from
/// executor threads).
pub struct EventCollector {
    enabled: AtomicBool,
    epoch: Instant,
    events: Mutex<Vec<Event>>,
}

impl Default for EventCollector {
    fn default() -> Self {
        EventCollector {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }
}

impl EventCollector {
    /// Is collection currently on? Emission sites check this before building
    /// event payloads so the disabled path does no allocation.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn collection on or off. Already-buffered events are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Microseconds since the collector was created.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Append one event if collection is enabled.
    pub fn emit(&self, event: Event) {
        if self.is_enabled() {
            self.events.lock().push(event);
        }
    }

    /// Remove and return everything collected so far.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock())
    }
}

/// Serialize an event log as a JSON array, one event per line.
pub fn to_json(events: &[Event]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&e.to_json());
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// How the schema table's writer emits a value of one event-field type.
trait Field {
    /// Append the value as JSON.
    fn write(&self, out: &mut String);
}

/// Integers travel as JSON numbers.
macro_rules! int_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write(&self, out: &mut String) {
                write!(out, "{self}").expect("writing to a String cannot fail");
            }
        }
    )*};
}
int_field!(u64, usize, u32);

impl Field for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        json::escape(self, out);
    }
}

/// `None` is written as `null`.
impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
}

/// `plan_chosen.candidates`: an array of `{"strategy": ..., "est_bytes":
/// ...}` objects.
impl Field for Vec<(String, u64)> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, (strategy, est_bytes)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut o = JsonObject::new();
            o.string("strategy", strategy).raw("est_bytes", est_bytes);
            out.push_str(&o.finish());
        }
        out.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::JobStart {
                job_id: 0,
                label: "collect".into(),
                at_micros: 10,
            },
            Event::StageStart {
                stage_id: 1,
                job_id: Some(0),
                label: "shuffle.map(reduceByKey)".into(),
                tag: Some("contraction/reduceByKey".into()),
                lineage: Some("reduceByKey <~ map \"quoted\"".into()),
                tasks: 4,
                at_micros: 12,
            },
            Event::TaskEnd {
                stage_id: 1,
                task: 2,
                attempt: 1,
                wall_micros: 55,
                ok: false,
                injected: true,
            },
            Event::ShuffleWrite {
                stage_id: 1,
                shuffle_id: 7,
                operator: "reduceByKey".into(),
                task: 2,
                bytes: 4096,
                records: 16,
            },
            Event::ShuffleRead {
                stage_id: 2,
                shuffle_id: 7,
                operator: "reduceByKey".into(),
                task: 0,
                bytes: 1024,
                records: 4,
            },
            Event::OperatorOutput {
                stage_id: Some(1),
                task: 2,
                operator: "filter \"odd\"".into(),
                rows: 9,
                bytes: 72,
            },
            Event::CacheMiss {
                dataset: 5,
                partition: 0,
                stage_id: Some(2),
            },
            Event::CacheEvict {
                dataset: 5,
                partition: 1,
                bytes: 64,
                stage_id: Some(2),
            },
            Event::CacheRecompute {
                dataset: 5,
                partition: 1,
                stage_id: None,
            },
            Event::CacheHit {
                dataset: 5,
                partition: 0,
                bytes: 128,
                stage_id: None,
            },
            Event::ExecutorLost {
                executor: 1,
                lost_map_outputs: 3,
                lost_blocks: 2,
                at_micros: 70,
            },
            Event::WorkerLost {
                worker: 1,
                executors: 2,
                at_micros: 71,
            },
            Event::FetchRetry {
                shuffle_id: 7,
                reduce_task: 1,
                map_partition: 3,
                attempt: 0,
            },
            Event::FetchFailed {
                shuffle_id: 7,
                stage_id: 2,
                reduce_task: 1,
                lost_map_outputs: 3,
            },
            Event::StageResubmitted {
                shuffle_id: 7,
                attempt: 1,
                missing_tasks: 3,
            },
            Event::PlanChosen {
                chosen: "contraction/broadcast".into(),
                auto: true,
                partitions: 16,
                est_shuffle_bytes: 4096,
                candidates: vec![
                    ("contraction/broadcast".into(), 4096),
                    ("contraction/groupByJoin".into(), 65536),
                ],
                reason: None,
                at_micros: 80,
            },
            Event::PlanChosen {
                chosen: "localFallback".into(),
                auto: true,
                partitions: 16,
                est_shuffle_bytes: 0,
                candidates: vec![],
                reason: Some(
                    "axisReduce: not an axis reduction; groupByAggregate: \"no\" group-by".into(),
                ),
                at_micros: 80,
            },
            Event::JobAdmitted {
                tenant: "alice".into(),
                job: 3,
                queue_micros: 250,
                at_micros: 82,
            },
            Event::JobCancelled {
                tenant: "mallory".into(),
                job: 4,
                stage_id: Some(2),
                at_micros: 85,
            },
            Event::PlanCacheHit {
                tenant: "alice".into(),
                key: 0xfeed_beef,
                at_micros: 88,
            },
            Event::RegionFused {
                ops: 5,
                inputs: 2,
                signature: "s0;s1;c0.5;mul;add".into(),
                source: "load;load;const;mul;add".into(),
                at_micros: 89,
            },
            Event::StageEnd {
                stage_id: 1,
                wall_micros: 90,
            },
            Event::JobEnd {
                job_id: 0,
                wall_micros: 120,
            },
        ]
    }

    /// The bytes of the log are a contract (`figures --trace` writes them
    /// for outside tools): the fixture was captured from the hand-written
    /// per-variant writer that the schema table replaced.
    #[test]
    fn json_bytes_are_pinned() {
        let json = to_json(&sample_events());
        assert_eq!(json, include_str!("../tests/fixtures/event_log.json"));
    }

    /// A new row in the schema table cannot skip the byte pin above, and
    /// each sample writes exactly the keys its row of the field table names.
    #[test]
    fn sample_events_cover_every_kind() {
        let sampled: Vec<String> = sample_events().iter().map(Event::to_json).collect();
        for (kind, keys) in Event::FIELDS {
            let json = sampled
                .iter()
                .find(|json| json.starts_with(&format!("{{\"type\":\"{kind}\",")))
                .unwrap_or_else(|| panic!("no sample `{kind}` event"));
            for key in *keys {
                assert!(
                    json.contains(&format!(",\"{key}\":")),
                    "{json} lacks `{key}`"
                );
            }
        }
    }

    /// The schema table is the source of truth; the hand-written table in
    /// `EXPERIMENTS.md` must have one row per kind, naming every field.
    #[test]
    fn experiments_md_documents_every_kind_and_field() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let section = doc
            .split("\n## ")
            .find(|s| s.starts_with("Trace event-log format"));
        let rows: Vec<&str> = section
            .expect("EXPERIMENTS.md has the event-log section")
            .lines()
            .filter(|line| line.starts_with("| `") && !line.starts_with("| `type`"))
            .collect();
        assert_eq!(rows.len(), Event::KINDS.len(), "one row per event kind");
        for (kind, keys) in Event::FIELDS {
            let row = rows
                .iter()
                .find(|r| r.starts_with(&format!("| `{kind}` |")));
            let fields = row
                .and_then(|r| r.split('|').nth(2))
                .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{kind}` row"));
            for key in *keys {
                assert!(
                    fields.contains(&format!("`{key}`")) || fields.contains(&format!("`{key}?`")),
                    "EXPERIMENTS.md `{kind}` row does not list `{key}`"
                );
            }
        }
    }

    #[test]
    fn disabled_collector_drops_events() {
        let c = EventCollector::default();
        c.emit(Event::JobEnd {
            job_id: 0,
            wall_micros: 1,
        });
        assert!(c.drain().is_empty());
        c.set_enabled(true);
        c.emit(Event::JobEnd {
            job_id: 1,
            wall_micros: 2,
        });
        assert_eq!(c.drain().len(), 1);
        assert!(c.drain().is_empty(), "drain must consume");
    }
}
