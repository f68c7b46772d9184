//! Execution context: configuration, the executor pool, task retry, failure
//! injection, and the structured-event trace.

use crate::chaos::{ChaosController, ChaosPlan, WireFault, CHAOS_ENV};
use crate::events::{Event, EventCollector};
use crate::pool::ThreadPool;
use crate::profile::JobProfile;
use crate::service::CancelToken;
use crate::shuffle::MapOutputTracker;
use crate::storage::{BlockManager, StorageStatus};
use crate::sync::Mutex;
use crate::transport::{WorkerConfig, WorkerGroup};
use crate::Data;
use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::LocalKey;
use std::time::Instant;

/// Message of a task attempt failed by a
/// [`ChaosEvent::FailTask`](crate::ChaosEvent::FailTask).
const INJECTED_FAILURE_MSG: &str = "sparkline: injected task failure";

/// Message of a stage started from inside a task. Every stage a job needs
/// starts from the driver: an action runs the shuffles it reads
/// ([`crate::ops::Op::materialize`]) before its own stage.
const NESTED_STAGE_MSG: &str = "sparkline: a task cannot start a stage";

/// Environment variable overriding the default storage budget (bytes); lets
/// CI run the whole suite under a deliberately tiny budget so eviction paths
/// are exercised on every push. An explicit
/// [`ContextBuilder::storage_memory`] wins over the variable.
pub const STORAGE_BUDGET_ENV: &str = "SPARKLINE_STORAGE_BUDGET";

/// Environment variable setting the number of shuffle data-plane worker
/// processes; lets CI run the whole chaos suite in multi-process mode
/// without editing every test. An explicit
/// [`ContextBuilder::worker_processes`] wins over the variable. `0` (or
/// unset) keeps the in-process shuffle path.
pub const WORKER_PROCS_ENV: &str = "SPARKLINE_WORKER_PROCS";

/// Uniquifies external-shuffle directories created by contexts inside one
/// driver process ([`Context::external_shuffle_path`] base dirs).
static EXTERNAL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Stage whose task is running on this executor thread; `None` on a
    /// driver thread. Stages never nest — `run_stage` refuses to start one
    /// from inside a task — and every worker loop sets its thread-locals on
    /// entry and clears them on exit, so a pooled thread carries nothing
    /// of one stage into the next.
    static CURRENT_STAGE: RefCell<Option<u64>> = const { RefCell::new(None) };
    /// Logical executor this worker thread belongs to. Shuffle map outputs
    /// and cached blocks produced on the thread are owned by this executor's
    /// fault domain and are lost when it is killed.
    static CURRENT_EXECUTOR: RefCell<Option<usize>> = const { RefCell::new(None) };
    /// Tenant whose job is running on this thread (service-assigned id).
    /// Set on the driver by [`Context::scoped_tenant`] and re-installed on
    /// every stage worker thread, so blocks cached anywhere inside the job
    /// are charged to the tenant's storage quota.
    static CURRENT_TENANT: RefCell<Option<u32>> = const { RefCell::new(None) };
    /// Cancellation token of the job driven from this thread, if any:
    /// installed by [`Context::scoped_cancel`] on the driver and captured
    /// by every stage the job starts, whose workers check it before every
    /// task claim.
    static CURRENT_CANCEL: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
    /// Job (action) this driver thread runs, charged for the stages it
    /// starts; set by `Context::job_scope` when tracing.
    static CURRENT_JOB: RefCell<Option<u64>> = const { RefCell::new(None) };
    /// Plan-node tag of this driver thread ([`Context::scoped_tag`]),
    /// captured by each shuffle node when it is *constructed*, which is when
    /// the planner is running (materialization happens later).
    static CURRENT_TAG: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Stage whose task runs on this thread, if any — how cache events are
/// attributed to stages without threading ids through every operator.
pub(crate) fn current_stage() -> Option<u64> {
    CURRENT_STAGE.with(|c| *c.borrow())
}

/// Logical executor owning this thread, if it is a stage worker. Driver
/// threads return `None`: state they produce belongs to no fault domain and
/// survives every kill.
pub(crate) fn current_executor() -> Option<usize> {
    CURRENT_EXECUTOR.with(|c| *c.borrow())
}

/// Tenant owning the job on this thread, if any — how cached blocks are
/// attributed to tenant quotas without threading ids through operators.
pub(crate) fn current_tenant() -> Option<u32> {
    CURRENT_TENANT.with(|c| *c.borrow())
}

/// This thread's plan-node tag, captured by shuffle and band-crossing nodes
/// at construction.
pub(crate) fn current_tag() -> Option<String> {
    CURRENT_TAG.with(|c| c.borrow().clone())
}

/// Holds a value in a thread-local and puts the previous one back when
/// dropped, on return and on unwind alike, so a scope never leaks into later
/// work on the thread.
struct Scoped<T: Default + 'static>(&'static LocalKey<RefCell<T>>, T);

impl<T: Default> Scoped<T> {
    fn set(key: &'static LocalKey<RefCell<T>>, value: T) -> Self {
        Scoped(key, key.with(|c| c.replace(value)))
    }
}

impl<T: Default> Drop for Scoped<T> {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.1);
        self.0.with(|c| *c.borrow_mut() = prev);
    }
}

/// How a task attempt that did not succeed ended, and so how its job ends
/// (Spark's task-end reasons). Only `Failed` is retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// A panic or an injected [`ChaosPlan`] failure: retried up to the attempt limit.
    Failed,
    /// [`fail_deterministic`]: the same input fails again, so never retried.
    Deterministic,
    /// The job's [`CancelToken`] was cancelled; no further task launched.
    Cancelled,
}

/// Why a job failed: the first task of its stages that could not finish,
/// or the shuffle that could not recover its map outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    pub cause: Cause,
    /// The failing task's stage, or a never-recovered shuffle's last map stage.
    pub stage: u64,
    /// The failing task's index in its stage, if one task failed the job.
    pub task: Option<usize>,
    /// Attempts made: the task's, or the shuffle's map-stage attempts.
    pub attempts: u32,
    pub message: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stage {}", self.stage)?;
        if let Some(task) = self.task {
            write!(f, " task {task} failed after {} attempt(s)", self.attempts)?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for JobError {}

/// The value of an action whose signature returns none, or a panic with the
/// job's error text: the one edge where a [`JobError`] becomes an unwind.
pub fn expect_job<T>(result: Result<T, JobError>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}

/// Unwind payload of [`fail_deterministic`].
struct Deterministic(String);

/// Fail the running task with an error retrying cannot change (an
/// evaluation error of its data): the job ends with a
/// [`Cause::Deterministic`] [`JobError`] carrying `message` after this one
/// attempt. Unwinds to the task boundary without running the panic hook.
/// Outside a task it is an ordinary panic with `message`.
pub fn fail_deterministic(message: impl Into<String>) -> ! {
    let message = message.into();
    if current_stage().is_none() {
        panic!("{message}");
    }
    resume_unwind(Box::new(Deterministic(message)))
}

/// How a task body's unwind ends its attempt.
fn unwound(payload: Box<dyn Any + Send>) -> (Cause, String) {
    if let Some(Deterministic(message)) = payload.downcast_ref() {
        return (Cause::Deterministic, message.clone());
    }
    let text = payload.downcast_ref::<String>().map(String::as_str);
    let text = text.or_else(|| payload.downcast_ref::<&str>().copied());
    (Cause::Failed, text.unwrap_or("task panicked").to_string())
}

/// Where a context's chaos schedule comes from.
enum ChaosChoice {
    /// Nothing set explicitly: honor [`CHAOS_ENV`] at build time.
    Inherit,
    /// Chaos disabled even if [`CHAOS_ENV`] is set — for tests that pin
    /// exact fault-free counts.
    Off,
    /// An explicit schedule; beats the environment.
    Plan(ChaosPlan),
}

/// Builder for [`Context`]. The stage-attempt limit is not among its
/// knobs: every context attempts a shuffle map stage at most 12 times.
pub struct ContextBuilder {
    workers: usize,
    max_task_attempts: u32,
    storage_memory: Option<usize>,
    chaos: ChaosChoice,
    worker_processes: Option<usize>,
}

impl Default for ContextBuilder {
    fn default() -> Self {
        ContextBuilder {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            max_task_attempts: 4,
            storage_memory: None,
            chaos: ChaosChoice::Inherit,
            worker_processes: None,
        }
    }
}

impl ContextBuilder {
    /// Number of worker threads used to run tasks. Each is one logical
    /// executor (fault domain): it owns the shuffle map outputs and cached
    /// blocks produced on it, and killing it loses that state.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Maximum attempts per task before the job fails (Spark's
    /// `spark.task.maxFailures`). Clamped to at least 1: every task gets one
    /// attempt.
    pub fn max_task_attempts(mut self, n: u32) -> Self {
        self.max_task_attempts = n.max(1);
        self
    }

    /// Memory budget (bytes) for persisted dataset partitions (Spark's
    /// storage memory). Defaults to the `SPARKLINE_STORAGE_BUDGET`
    /// environment variable if set, else unlimited.
    pub fn storage_memory(mut self, bytes: usize) -> Self {
        self.storage_memory = Some(bytes);
        self
    }

    /// Number of shuffle data-plane worker processes. `0` (the default)
    /// keeps shuffle map outputs in-process; with `n > 0` every map output
    /// is serialized to a wire frame and PUT to worker process
    /// `executor % n` over a framed loopback socket, so `kill -9` on a
    /// worker genuinely loses bytes and recovery has to run through the
    /// epoch/fetch-failure machinery. Map tasks also park every frame in a
    /// driver-visible spool directory (an external shuffle service,
    /// [`Context::external_shuffle_path`]): reduce tasks that exhaust fetch
    /// retries against a dead worker fall back to the spool, and the stage
    /// completes with **zero** resubmissions. Beats [`WORKER_PROCS_ENV`].
    pub fn worker_processes(mut self, n: usize) -> Self {
        self.worker_processes = Some(n);
        self
    }

    /// Run this context under an explicit chaos schedule. Beats [`CHAOS_ENV`].
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = ChaosChoice::Plan(plan);
        self
    }

    /// Disable chaos for this context even when [`CHAOS_ENV`] is set. For
    /// tests that pin exact fault-free counts (task totals, cache misses)
    /// that any injected fault would legitimately change.
    pub fn chaos_off(mut self) -> Self {
        self.chaos = ChaosChoice::Off;
        self
    }

    pub fn build(self) -> Context {
        let budget = self
            .storage_memory
            .or_else(|| {
                std::env::var(STORAGE_BUDGET_ENV)
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
            })
            .unwrap_or(usize::MAX);
        let chaos = match self.chaos {
            ChaosChoice::Off => None,
            ChaosChoice::Plan(plan) => Some(plan),
            // Below the attempt budget: the environment alone never fails a
            // job, however few attempts this context grants.
            ChaosChoice::Inherit => std::env::var(CHAOS_ENV)
                .ok()
                .and_then(|s| ChaosPlan::from_env(&s, self.workers))
                .map(|plan| plan.cap_task_failures(self.max_task_attempts - 1)),
        }
        .filter(|plan| !plan.is_empty())
        .map(ChaosController::new);
        let worker_processes = self
            .worker_processes
            .or_else(|| {
                std::env::var(WORKER_PROCS_ENV)
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
            })
            .unwrap_or(0);
        let worker_group = (worker_processes > 0).then(|| {
            WorkerGroup::spawn(worker_processes, WorkerConfig::default())
                .expect("sparkline: failed to spawn shuffle worker processes")
        });
        // The spool directory is created lazily, by the first map output
        // parked in it; a spool that cannot be written degrades to stage
        // resubmission, never to a failed build.
        let external_dir = worker_group.is_some().then(|| {
            std::env::temp_dir().join(format!(
                "sparkline-shuffle-{}-{}",
                std::process::id(),
                EXTERNAL_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        });
        let ctx = Context {
            inner: Arc::new(CtxInner {
                workers: self.workers,
                max_task_attempts: self.max_task_attempts,
                epochs: (0..self.workers).map(|_| AtomicU64::new(0)).collect(),
                chaos,
                worker_group,
                external_dir,
                map_outputs: MapOutputTracker::default(),
                events: EventCollector::default(),
                storage: BlockManager::new(budget),
                shuffle_ids: AtomicU64::new(0),
                stage_ids: AtomicU64::new(0),
                job_ids: AtomicU64::new(0),
                dataset_ids: AtomicU64::new(0),
                threads: ThreadPool::default(),
            }),
        };
        // Supervision wiring: when the heartbeat declares a worker dead
        // (deadline blown) and respawns it, the context must sweep the
        // executors whose shuffle state lived in that process. Weak, so the
        // worker group's heartbeat thread never keeps a dropped context
        // alive.
        if let Some(group) = ctx.inner.worker_group.clone() {
            let weak = Arc::downgrade(&ctx.inner);
            group.set_on_worker_lost(move |worker| {
                if let Some(inner) = weak.upgrade() {
                    Context { inner }.on_worker_lost(worker);
                }
            });
        }
        ctx
    }
}

/// Point-in-time health of one executor, from [`Context::executor_status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorStatus {
    pub executor: usize,
    /// Times this executor has been killed and restarted.
    pub restarts: u64,
}

pub(crate) struct CtxInner {
    pub(crate) workers: usize,
    pub(crate) max_task_attempts: u32,
    /// The epoch of each logical executor, a restartable fault domain.
    /// Killing executor `e` bumps `epochs[e]` (a task result is accepted
    /// only if its executor's epoch is unchanged since launch) and sweeps
    /// the state it owned; the slot then keeps running as its own
    /// replacement, the way a supervisor restarts a crashed worker process.
    epochs: Vec<AtomicU64>,
    /// Deterministic fault injector; `None` when chaos is off.
    chaos: Option<ChaosController>,
    /// Shuffle data-plane worker processes; `None` in local mode. Executor
    /// `e`'s map outputs live in worker `e % n`.
    worker_group: Option<Arc<WorkerGroup>>,
    /// Base directory of the external shuffle service spool; `None` in local
    /// mode. Removed on context drop.
    external_dir: Option<PathBuf>,
    /// Which executor owns each shuffle map output, and at which epoch.
    pub(crate) map_outputs: MapOutputTracker,
    pub(crate) events: EventCollector,
    /// Memory-budgeted store for persisted dataset partitions.
    storage: BlockManager,
    shuffle_ids: AtomicU64,
    stage_ids: AtomicU64,
    job_ids: AtomicU64,
    /// Ids handed to persisted datasets; key blocks in [`BlockManager`].
    dataset_ids: AtomicU64,
    /// The threads stages run their worker loops on; joined on drop.
    threads: ThreadPool,
}

impl Drop for CtxInner {
    fn drop(&mut self) {
        // The external shuffle spool outlives individual shuffles (that is
        // its whole point) but not the driver.
        if let Some(dir) = &self.external_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Everything a stage reports about itself when tracing is on. Built lazily:
/// untraced runs never pay for the strings.
pub(crate) struct StageMeta {
    pub(crate) label: String,
    pub(crate) tag: Option<String>,
    pub(crate) lineage: Option<String>,
}

impl StageMeta {
    pub(crate) fn action(label: &str, lineage: String, tag: Option<String>) -> StageMeta {
        StageMeta {
            label: format!("action({label})"),
            tag,
            lineage: Some(lineage),
        }
    }
}

/// Handle to the runtime: creates datasets, runs stages, owns the block
/// manager and the event trace — the one record of what ran.
///
/// Cheap to clone; all clones share one executor pool, block manager and
/// event collector.
#[derive(Clone)]
pub struct Context {
    pub(crate) inner: Arc<CtxInner>,
}

impl Default for Context {
    fn default() -> Self {
        ContextBuilder::default().build()
    }
}

impl Context {
    /// A context with the default configuration.
    pub fn new() -> Context {
        Context::default()
    }

    /// Start building a customized context.
    pub fn builder() -> ContextBuilder {
        ContextBuilder::default()
    }

    /// Number of worker threads, which is also the number of logical
    /// executors (fault domains).
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Health of every executor: how often each was restarted.
    pub fn executor_status(&self) -> Vec<ExecutorStatus> {
        self.inner
            .epochs
            .iter()
            .enumerate()
            .map(|(executor, epoch)| ExecutorStatus {
                executor,
                restarts: epoch.load(Ordering::SeqCst),
            })
            .collect()
    }

    /// Kill one logical executor, as a chaos schedule (or a test) would:
    /// its shuffle map outputs and cached blocks are lost, results of tasks
    /// currently running on it are discarded when they complete, and the
    /// executor immediately restarts empty. Returns false for an unknown
    /// executor id.
    ///
    /// In multi-process mode an executor's shuffle state lives inside a
    /// worker process's fault domain, so killing the executor promotes to
    /// `kill -9` on the hosting process — which also takes down every other
    /// executor resident in it, exactly as losing a real machine would.
    pub fn kill_executor(&self, executor: usize) -> bool {
        if let Some(group) = &self.inner.worker_group {
            if executor >= self.inner.epochs.len() {
                return false;
            }
            return self.kill_worker(executor % group.len());
        }
        self.kill_executor_inner(executor)
    }

    /// `kill -9` one shuffle worker process: the map-output frames it hosted
    /// are gone for real, every executor mapped onto it is swept
    /// (epoch-bumped, blocks and tracker entries dropped), and a fresh empty
    /// process is respawned in the slot. Returns false for an unknown worker
    /// or in local mode.
    pub fn kill_worker(&self, worker: usize) -> bool {
        let Some(group) = self.inner.worker_group.clone() else {
            return false;
        };
        if worker >= group.len() {
            return false;
        }
        // A failed respawn leaves the slot down, its frames gone all the same:
        // sweep regardless. Requests to the slot fail at once until the
        // heartbeat (or the next kill) gets a process back into it.
        let _ = group.kill9(worker);
        self.on_worker_lost(worker);
        true
    }

    /// Sweep the driver-side state of a worker process that just died (or
    /// was declared dead by the heartbeat): bump the epoch of every executor
    /// hosted there and emit one `WorkerLost` event. Runs on whichever
    /// thread noticed the death — a map task whose PUT failed, the heartbeat
    /// thread, or [`Context::kill_worker`] itself.
    pub(crate) fn on_worker_lost(&self, worker: usize) {
        let Some(group) = &self.inner.worker_group else {
            return;
        };
        let hosts = group.len();
        let mut swept = 0u64;
        for executor in 0..self.inner.epochs.len() {
            if executor % hosts == worker {
                self.kill_executor_inner(executor);
                swept += 1;
            }
        }
        if self.inner.events.is_enabled() {
            self.inner.events.emit(Event::WorkerLost {
                worker,
                executors: swept,
                at_micros: self.inner.events.now_micros(),
            });
        }
    }

    /// Kill one logical executor without promoting to a process kill; the
    /// shared implementation behind [`Context::kill_executor`] (local mode)
    /// and the per-executor sweep of [`Context::on_worker_lost`]
    /// (multi-process mode, where the process is already dead).
    fn kill_executor_inner(&self, executor: usize) -> bool {
        let Some(epoch) = self.inner.epochs.get(executor) else {
            return false;
        };
        // Epoch first: anything the dead executor still manages to finish is
        // now stale and will be discarded at the result gate.
        let dead_epoch = epoch.fetch_add(1, Ordering::SeqCst);
        let lost_blocks = self.inner.storage.remove_executor(executor);
        let lost_map_outputs = self.inner.map_outputs.remove_executor(executor, dead_epoch);
        if self.inner.events.is_enabled() {
            self.inner.events.emit(Event::ExecutorLost {
                executor,
                lost_map_outputs: lost_map_outputs as u64,
                lost_blocks: lost_blocks as u64,
                at_micros: self.inner.events.now_micros(),
            });
        }
        true
    }

    /// Current epoch of one executor; results computed under an older epoch
    /// are stale.
    pub(crate) fn executor_epoch(&self, executor: usize) -> u64 {
        self.inner.epochs[executor].load(Ordering::SeqCst)
    }

    /// Configured task-attempt limit ([`ContextBuilder::max_task_attempts`]).
    pub fn max_task_attempts(&self) -> u32 {
        self.inner.max_task_attempts
    }

    /// Number of shuffle data-plane worker processes; `0` in local mode
    /// ([`ContextBuilder::worker_processes`] or [`WORKER_PROCS_ENV`]).
    pub fn worker_processes(&self) -> usize {
        self.inner.worker_group.as_ref().map_or(0, |g| g.len())
    }

    /// The shuffle worker-process group, if this context runs multi-process.
    pub(crate) fn worker_group(&self) -> Option<Arc<WorkerGroup>> {
        self.inner.worker_group.clone()
    }

    /// Successful shuffle-fetch latencies (µs, unsorted) and total fetch
    /// retries on the worker data plane so far — the raw series behind the
    /// ledger's `sparkline.transport.fetch_us_p50/p99`. A latency is
    /// recorded only while the context traces ([`Context::trace`]), so an
    /// untraced context's series never grows. `None` in local mode.
    pub fn worker_fetch_stats(&self) -> Option<(Vec<u64>, u64)> {
        self.inner.worker_group.as_ref().map(|g| g.fetch_stats())
    }

    /// Spool directory for one shuffle's external frames, `None` in local
    /// mode. The directory itself is created lazily by the first map task
    /// that writes into it; where it cannot be, map outputs stay
    /// worker-owned and a lost one is recovered by stage resubmission.
    pub fn external_shuffle_path(&self, shuffle_id: u64) -> Option<PathBuf> {
        self.inner
            .external_dir
            .as_ref()
            .map(|d| d.join(format!("s{shuffle_id}")))
    }

    /// Effective storage budget in bytes ([`ContextBuilder::storage_memory`]
    /// or the [`STORAGE_BUDGET_ENV`] override); `None` means unlimited.
    pub fn storage_memory(&self) -> Option<usize> {
        self.storage_status().budget.map(|b| b as usize)
    }

    /// Run `f` with `tenant` as the current tenant on this thread: blocks
    /// cached inside (on this thread or any stage worker it drives) are
    /// charged to the tenant's storage quota, and per-tenant usage shows up
    /// in [`Context::storage_status`]. Nests and restores on unwind.
    pub fn scoped_tenant<R>(&self, tenant: u32, f: impl FnOnce() -> R) -> R {
        let _tenant = Scoped::set(&CURRENT_TENANT, Some(tenant));
        f()
    }

    /// Run `f` under `token`: every stage started inside — on this thread,
    /// the only kind that starts stages — checks the token before claiming
    /// each task, and when it is cancelled the running stage stops
    /// launching tasks and its action returns a [`Cause::Cancelled`]
    /// [`JobError`]. Nests and restores on unwind.
    pub fn scoped_cancel<R>(&self, token: CancelToken, f: impl FnOnce() -> R) -> R {
        let _cancel = Scoped::set(&CURRENT_CANCEL, Some(token));
        f()
    }

    /// Chaos hook at every task launch: applies any kills scheduled for this
    /// point in the schedule, then any delay, and returns true when this
    /// attempt is to fail as injected. Runs on the launching worker thread,
    /// before the task body.
    fn chaos_task_start(&self) -> bool {
        let Some(chaos) = &self.inner.chaos else {
            return false;
        };
        let faults = chaos.on_task_start();
        for executor in faults.kill {
            self.kill_executor(executor);
        }
        if !faults.delay.is_zero() {
            std::thread::sleep(faults.delay);
        }
        faults.fail
    }

    /// Chaos hook at a shuffle's map→reduce barrier: kill the owners of the
    /// scheduled map partitions of *this* shuffle, deterministically losing
    /// specific map outputs regardless of thread scheduling.
    pub(crate) fn chaos_barrier(&self, shuffle_id: u64) {
        let Some(chaos) = &self.inner.chaos else {
            return;
        };
        for map_partition in chaos.on_barrier() {
            if let Some(owner) = self.inner.map_outputs.owner(shuffle_id, map_partition) {
                self.kill_executor(owner);
            }
        }
    }

    /// Chaos hook at a reduce task's fetch of the map outputs: true if this
    /// fetch should fail.
    pub(crate) fn chaos_fetch_should_fail(&self) -> bool {
        self.inner
            .chaos
            .as_ref()
            .is_some_and(ChaosController::on_fetch)
    }

    /// Chaos hook on every wire fetch in multi-process mode: the stream
    /// fault (drop / delay / garble) to apply to this fetch, if any.
    pub(crate) fn chaos_wire_fault(&self) -> Option<WireFault> {
        self.inner
            .chaos
            .as_ref()
            .and_then(ChaosController::on_wire_fetch)
    }

    /// The chaos schedule this context runs under, if any.
    pub fn chaos_plan(&self) -> Option<&ChaosPlan> {
        self.inner.chaos.as_ref().map(ChaosController::plan)
    }

    /// Start collecting structured runtime events, discarding anything
    /// buffered from an earlier trace window.
    pub fn trace(&self) {
        self.inner.events.drain();
        self.inner.events.set_enabled(true);
    }

    /// Stop collecting events. Buffered events stay available to
    /// [`Context::take_events`] / [`Context::take_profile`].
    pub fn stop_trace(&self) {
        self.inner.events.set_enabled(false);
    }

    /// Is event collection currently enabled?
    pub fn is_tracing(&self) -> bool {
        self.inner.events.is_enabled()
    }

    /// Drain the raw event log collected since [`Context::trace`] (or the
    /// last take). Tracing stays in whatever state it was.
    pub fn take_events(&self) -> Vec<Event> {
        self.inner.events.drain()
    }

    /// Drain the event log and fold it into a queryable [`JobProfile`].
    pub fn take_profile(&self) -> JobProfile {
        JobProfile::from_events(&self.take_events())
    }

    /// Run `f` with `tag` as this thread's plan-node tag: DAG nodes
    /// (shuffles) constructed inside `f` are attributed to `tag` in traces.
    /// Used by the planner to stamp each stage with the plan node that
    /// produced it. Nests and restores on unwind.
    pub fn scoped_tag<R>(&self, tag: impl Into<String>, f: impl FnOnce() -> R) -> R {
        let _tag = Scoped::set(&CURRENT_TAG, Some(tag.into()));
        f()
    }

    /// Run `f` as a job (one action). Emits `JobStart`/`JobEnd` and charges
    /// the stages this thread starts inside to this job. A no-op wrapper
    /// when tracing is off.
    pub(crate) fn job_scope<R>(&self, label: &str, f: impl FnOnce() -> R) -> R {
        if !self.inner.events.is_enabled() {
            return f();
        }
        let job_id = self.inner.job_ids.fetch_add(1, Ordering::Relaxed);
        self.inner.events.emit(Event::JobStart {
            job_id,
            label: label.to_string(),
            at_micros: self.inner.events.now_micros(),
        });
        let _end = EndJob {
            ctx: self,
            job_id,
            started: Instant::now(),
        };
        let _job = Scoped::set(&CURRENT_JOB, Some(job_id));
        f()
    }

    /// The context's event sink (for emission sites elsewhere in the crate).
    pub(crate) fn events(&self) -> &EventCollector {
        &self.inner.events
    }

    /// Emit a custom event into the trace; a no-op when tracing is off. The
    /// closure receives the collector's monotonic timestamp (micros since
    /// context creation) and is only called when tracing is on, so callers
    /// pay nothing to build payloads otherwise. Used by higher layers (the
    /// planner's `plan.chosen` record) to put their own events on the bus.
    pub fn emit_event(&self, make: impl FnOnce(u64) -> Event) {
        if self.inner.events.is_enabled() {
            let at = self.inner.events.now_micros();
            self.inner.events.emit(make(at));
        }
    }

    /// Create a dataset from a local collection, splitting it into
    /// `partitions` roughly equal chunks.
    pub fn parallelize<T: Data>(&self, data: Vec<T>, partitions: usize) -> crate::Dataset<T> {
        crate::Dataset::from_vec(self.clone(), data, partitions.max(1))
    }

    /// A broadcast value: a read-only value shared by all tasks. It lives
    /// as long as the datasets whose closures captured it, not as long as
    /// the context.
    pub fn broadcast<T: Send + Sync + 'static>(&self, value: T) -> Arc<T> {
        Arc::new(value)
    }

    /// The block manager holding persisted dataset partitions.
    pub fn storage(&self) -> &BlockManager {
        &self.inner.storage
    }

    /// Current storage accounting (budget, resident bytes, evictions...).
    pub fn storage_status(&self) -> StorageStatus {
        self.inner.storage.status()
    }

    pub(crate) fn next_dataset_id(&self) -> u64 {
        self.inner.dataset_ids.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn next_shuffle_id(&self) -> u64 {
        self.inner.shuffle_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Run one stage of `n` tasks on the executor pool, retrying failed tasks
    /// up to the configured attempt limit, and return the per-task results in
    /// task order.
    ///
    /// Panics with the [`JobError`] text if the stage fails: a task exhausts
    /// its attempts, fails deterministically, or the job is cancelled
    /// ([`Context::scoped_cancel`]). A task that calls it fails
    /// deterministically: only a driver thread starts stages.
    pub fn run_tasks<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Send + Sync,
    {
        let meta = || StageMeta {
            label: "stage".to_string(),
            tag: None,
            lineage: None,
        };
        expect_job(self.run_stage(n, meta, f)).0
    }

    /// [`Context::run_tasks`] with stage metadata for the event trace,
    /// returning the failure as a value. Returns the results and the stage
    /// id (so callers can attribute further per-task facts, e.g. shuffle
    /// write sizes, to the stage).
    pub(crate) fn run_stage<R, F, M>(
        &self,
        n: usize,
        meta: M,
        f: F,
    ) -> Result<(Vec<R>, u64), JobError>
    where
        R: Send,
        F: Fn(usize) -> R + Send + Sync,
        M: FnOnce() -> StageMeta,
    {
        if current_stage().is_some() {
            fail_deterministic(NESTED_STAGE_MSG);
        }
        let stage_id = self.inner.stage_ids.fetch_add(1, Ordering::Relaxed);
        if n == 0 {
            return Ok((Vec::new(), stage_id));
        }
        let tracing = self.inner.events.is_enabled();
        if tracing {
            let meta = meta();
            self.inner.events.emit(Event::StageStart {
                stage_id,
                job_id: CURRENT_JOB.with(|c| *c.borrow()),
                label: meta.label,
                tag: meta.tag,
                lineage: meta.lineage,
                tasks: n,
                at_micros: self.inner.events.now_micros(),
            });
        }
        let stage_started = Instant::now();
        let shared = StageShared {
            ctx: self,
            f: &f,
            n,
            stage_id,
            tracing,
            results: (0..n).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            requeued: Mutex::new(Vec::new()),
            failure: Mutex::new(None),
            tenant: current_tenant(),
            cancel: CURRENT_CANCEL.with(|c| c.borrow().clone()),
        };
        // Worker loop `t` is executor `t` for the stage's lifetime (a kill
        // restarts the executor in place, it does not remove capacity). Each
        // loop runs on a pooled thread.
        let workers = self.inner.workers.min(n);
        let stage = &shared;
        self.inner
            .threads
            .run((0..workers).map(|executor| move || stage.worker(executor)));
        if tracing {
            self.inner.events.emit(Event::StageEnd {
                stage_id,
                wall_micros: stage_started.elapsed().as_micros() as u64,
            });
        }
        if let Some(failure) = shared.failure.into_inner() {
            return Err(failure);
        }
        let out = shared
            .results
            .into_iter()
            .map(|m| m.into_inner().expect("task result missing"))
            .collect();
        Ok((out, stage_id))
    }
}

/// Per-stage scheduler state shared by the stage's worker threads.
struct StageShared<'a, R, F> {
    ctx: &'a Context,
    f: &'a F,
    n: usize,
    stage_id: u64,
    tracing: bool,
    results: Vec<Mutex<Option<R>>>,
    /// Next fresh task index.
    next: AtomicUsize,
    /// Tasks whose results were discarded because their executor died
    /// mid-flight; they go back to the front of the queue.
    requeued: Mutex<Vec<usize>>,
    /// How the stage failed, once a task has failed it for good.
    failure: Mutex<Option<JobError>>,
    /// Tenant captured from the submitting (driver) thread and re-installed
    /// on every worker, so blocks cached by the stage's tasks are charged
    /// to it.
    tenant: Option<u32>,
    /// Cancellation token of the submitting job, checked before every task
    /// claim.
    cancel: Option<CancelToken>,
}

impl<R: Send, F: Fn(usize) -> R + Send + Sync> StageShared<'_, R, F> {
    fn worker(&self, executor: usize) {
        // Set for the loop, restored (to nothing, on a pooled thread) when it
        // returns or unwinds: the thread carries nothing of this stage into
        // the next loop it runs.
        let _stage = Scoped::set(&CURRENT_STAGE, Some(self.stage_id));
        let _executor = Scoped::set(&CURRENT_EXECUTOR, Some(executor));
        let _tenant = Scoped::set(&CURRENT_TENANT, self.tenant);
        loop {
            // Fail fast: once any task has permanently failed the stage's
            // outcome is fixed, so launching still-queued tasks is pure
            // wasted work (and noise in the trace).
            if self.failure.lock().is_some() {
                return;
            }
            // Cooperative cancellation boundary: in-flight tasks finish,
            // nothing further launches, the stage fails as cancelled.
            if self.observe_cancellation() {
                return;
            }
            let task = self.requeued.lock().pop().or_else(|| {
                let i = self.next.fetch_add(1, Ordering::SeqCst);
                (i < self.n).then_some(i)
            });
            // Nothing left to claim: whoever still runs a task will also
            // drain any requeue it causes, so an idle worker can leave.
            let Some(i) = task else {
                return;
            };
            self.run_task(i, executor);
        }
    }

    /// Run one task to acceptance, retrying a failed attempt up to the
    /// attempt limit and a deterministic one never. Attempts are sequential:
    /// a task index is claimed by one worker at a time, so exactly one
    /// attempt's result is ever accepted.
    fn run_task(&self, i: usize, executor: usize) {
        let inner = &self.ctx.inner;
        let mut attempt = 0;
        loop {
            if self.failure.lock().is_some() {
                return;
            }
            // Chaos fires at launch boundaries on the launching thread, so a
            // schedule replays identically for a given task order. It is the
            // attempt's one fault hook: an injected failure never runs the
            // body.
            let injected = self.ctx.chaos_task_start();
            let epoch = self.ctx.executor_epoch(executor);
            let task_started = Instant::now();
            let out = if injected {
                Err((Cause::Failed, INJECTED_FAILURE_MSG.to_string()))
            } else {
                catch_unwind(AssertUnwindSafe(|| (self.f)(i))).map_err(unwound)
            };
            let task_micros = task_started.elapsed().as_micros() as u64;
            if out.is_ok() && self.ctx.executor_epoch(executor) != epoch {
                // The executor died (and restarted) while this task ran: its
                // result is part of the lost state. Put the partition back in
                // the queue; this is loss, not a task failure, so no failure
                // count and no TaskEnd.
                self.requeued.lock().push(i);
                return;
            }
            if self.tracing {
                inner.events.emit(Event::TaskEnd {
                    stage_id: self.stage_id,
                    task: i,
                    attempt,
                    wall_micros: task_micros,
                    ok: out.is_ok(),
                    injected,
                });
            }
            let (cause, message) = match out {
                Ok(v) => {
                    *self.results[i].lock() = Some(v);
                    return;
                }
                Err(failure) => failure,
            };
            attempt += 1;
            if cause == Cause::Deterministic || attempt >= inner.max_task_attempts {
                *self.failure.lock() = Some(JobError {
                    cause,
                    stage: self.stage_id,
                    task: Some(i),
                    attempts: attempt,
                    message,
                });
                return;
            }
        }
    }

    /// If this stage runs under a cancelled token, pin the stage's outcome
    /// to a cancellation (first observer wins; a real task failure that
    /// landed first keeps priority) and emit one `JobCancelled` event per
    /// token. Returns true when the worker should stop claiming tasks.
    fn observe_cancellation(&self) -> bool {
        let Some(token) = &self.cancel else {
            return false;
        };
        if !token.is_cancelled() {
            return false;
        }
        self.failure.lock().get_or_insert_with(|| JobError {
            cause: Cause::Cancelled,
            stage: self.stage_id,
            task: None,
            attempts: 0,
            message: format!(
                "job {} of tenant '{}' cancelled",
                token.job(),
                token.tenant()
            ),
        });
        if token.first_report() {
            self.ctx.emit_event(|at| Event::JobCancelled {
                tenant: token.tenant().to_string(),
                job: token.job(),
                stage_id: Some(self.stage_id),
                at_micros: at,
            });
        }
        true
    }
}

struct EndJob<'a> {
    ctx: &'a Context,
    job_id: u64,
    started: Instant,
}

impl Drop for EndJob<'_> {
    fn drop(&mut self) {
        self.ctx.inner.events.emit(Event::JobEnd {
            job_id: self.job_id,
            wall_micros: self.started.elapsed().as_micros() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn run_tasks_returns_in_task_order() {
        let ctx = Context::builder().workers(4).build();
        let out = ctx.run_tasks(16, |i| i * i);
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_tasks_zero_tasks() {
        let ctx = Context::new();
        let out: Vec<u32> = ctx.run_tasks(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    /// A context whose every `every`-th task launch fails, `limit` times.
    fn failing(workers: usize, every: u64, limit: u32) -> ContextBuilder {
        Context::builder()
            .workers(workers)
            .chaos(ChaosPlan::new().with_task_failures(every, limit))
    }

    /// [`Context::run_tasks`] returning the job's failure as a value.
    fn try_run<R: Send>(
        ctx: &Context,
        n: usize,
        f: impl Fn(usize) -> R + Send + Sync,
    ) -> Result<Vec<R>, JobError> {
        let meta = || StageMeta::action("test", String::new(), None);
        ctx.run_stage(n, meta, f).map(|(out, _)| out)
    }

    /// Failed attempts in the trace, as `TaskEnd { ok: false }` events.
    fn failed_attempts(events: &[Event]) -> usize {
        let failed = |e: &&Event| matches!(e, Event::TaskEnd { ok: false, .. });
        events.iter().filter(failed).count()
    }

    #[test]
    fn injected_failures_are_retried() {
        let ctx = failing(2, 1, 3).build();
        ctx.trace();
        let out = ctx.run_tasks(8, |i| i + 1);
        assert_eq!(out, (1..=8).collect::<Vec<_>>());
        assert!(ctx.take_profile().total_failed_attempts() >= 3);
    }

    #[test]
    fn injected_failures_are_exact_under_concurrency() {
        // However many workers race for launches, a plan's limit is exact:
        // with 5 allowed and plenty of tasks, exactly 5 attempts fail. The
        // attempt budget stays above the limit, so no task can exhaust it.
        let ctx = failing(8, 2, 5).max_task_attempts(16).build();
        ctx.trace();
        let _ = ctx.run_tasks(64, |i| i);
        assert_eq!(ctx.take_profile().total_failed_attempts(), 5);
        // The limit is spent: later stages see no failures.
        let _ = ctx.run_tasks(64, |i| i);
        assert_eq!(ctx.take_profile().total_failed_attempts(), 0);
    }

    #[test]
    fn exhausting_attempts_fails_the_job() {
        // As many injected failures as the one task has attempts.
        let ctx = failing(1, 1, 2).max_task_attempts(2).build();
        let err = try_run(&ctx, 1, |i| i).expect_err("exhausted attempts must fail the job");
        assert_eq!(
            (err.cause, err.task, err.attempts),
            (Cause::Failed, Some(0), 2)
        );
        assert_eq!(err.message, INJECTED_FAILURE_MSG);
        // The failed stage leaves the executor threads usable.
        assert_eq!(ctx.run_tasks(4, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn a_panicking_task_is_retried_up_to_the_attempt_limit() {
        let ctx = Context::builder()
            .workers(1)
            .max_task_attempts(3)
            .chaos_off()
            .build();
        ctx.trace();
        let err = try_run(&ctx, 2, |i| -> usize { panic!("task {i} fails") })
            .expect_err("every attempt panics");
        assert_eq!(
            (err.cause, err.task, err.attempts),
            (Cause::Failed, Some(0), 3)
        );
        assert_eq!(err.message, "task 0 fails");
        assert_eq!(failed_attempts(&ctx.take_events()), 3);
    }

    #[test]
    fn a_deterministic_failure_costs_one_attempt() {
        let ctx = Context::builder().workers(1).chaos_off().build();
        ctx.trace();
        let err = try_run(&ctx, 2, |i| -> usize {
            fail_deterministic(format!("task {i}"))
        })
        .expect_err("the task fails");
        assert_eq!(
            (err.cause, err.task, err.attempts),
            (Cause::Deterministic, Some(0), 1)
        );
        assert_eq!(
            err.to_string(),
            format!(
                "stage {} task 0 failed after 1 attempt(s): task 0",
                err.stage
            )
        );
        assert_eq!(failed_attempts(&ctx.take_events()), 1);
        // At the API edge the same failure is a panic with the job's text.
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            ctx.run_tasks(1, |_| -> usize { fail_deterministic("bad input") })
        }))
        .expect_err("run_tasks panics");
        let text = panicked
            .downcast_ref::<String>()
            .expect("a formatted panic");
        assert!(
            text.ends_with("failed after 1 attempt(s): bad input"),
            "{text}"
        );
    }

    #[test]
    fn stages_reuse_parked_executor_threads() {
        let ctx = Context::builder().workers(2).chaos_off().build();
        let ids = Mutex::new(HashSet::new());
        let record = || {
            ids.lock().insert(std::thread::current().id());
        };
        for _ in 0..64 {
            ctx.run_tasks(2, |_| record());
        }
        assert!(ids.lock().len() <= 2, "{} threads", ids.lock().len());
    }

    #[test]
    fn dropping_the_context_joins_its_executor_threads() {
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static ON_EXIT: OnExit = const { OnExit };
        }
        let ctx = Context::builder().workers(2).chaos_off().build();
        let ids = Mutex::new(HashSet::new());
        ctx.run_tasks(4, |_| {
            ON_EXIT.with(|_| ());
            ids.lock().insert(std::thread::current().id());
        });
        assert_eq!(EXITED.load(Ordering::SeqCst), 0, "threads outlive a stage");
        drop(ctx);
        assert_eq!(EXITED.load(Ordering::SeqCst), ids.lock().len());
    }

    #[test]
    fn storage_budget_knob_is_visible_in_status() {
        let ctx = Context::builder().storage_memory(4096).build();
        assert_eq!(ctx.storage_status().budget, Some(4096));
        assert_eq!(ctx.storage_status().memory_used, 0);
    }

    #[test]
    fn current_stage_is_the_tasks_own_stage() {
        let ctx = Context::builder().workers(2).build();
        assert_eq!(current_stage(), None, "driver thread runs outside stages");
        let first = ctx.inner.stage_ids.load(Ordering::Relaxed);
        let stages = ctx.run_tasks(4, |_| {
            assert!(current_executor().is_some(), "tasks run on an executor");
            current_stage().expect("task must see its stage")
        });
        assert_eq!(stages, vec![first; 4]);
        assert_eq!(current_stage(), None);
        // The same pooled threads see the next stage, not a stale one.
        let next = ctx.run_tasks(4, |_| current_stage());
        assert_eq!(next, vec![Some(first + 1); 4]);
    }

    #[test]
    fn a_task_cannot_start_a_stage() {
        let ctx = Context::builder().workers(2).chaos_off().build();
        let err = try_run(&ctx, 2, |_| ctx.run_tasks(1, |i| i))
            .expect_err("a stage started inside a task must fail the job");
        // Retrying cannot help, so it costs one attempt.
        assert_eq!((err.cause, err.attempts), (Cause::Deterministic, 1));
        assert_eq!(err.message, NESTED_STAGE_MSG);
        // The refused stage leaves the context usable.
        assert_eq!(ctx.run_tasks(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn broadcast_is_shared() {
        let ctx = Context::new();
        let b = ctx.broadcast(vec![1, 2, 3]);
        let sums = ctx.run_tasks(4, |_| b.iter().sum::<i32>());
        assert_eq!(sums, vec![6; 4]);
    }

    #[test]
    fn broadcast_value_dies_with_the_dataset_that_captured_it() {
        // A broadcast contraction's operand table must go with its plan, not
        // with the context: a query service's context lives for days.
        let ctx = Context::builder().chaos_off().build();
        let table = ctx.broadcast(vec![7i64; 1024]);
        let weak = Arc::downgrade(&table);
        let d = ctx
            .parallelize(vec![0usize, 1, 2], 2)
            .map(move |i| table[i]);
        assert_eq!(d.collect(), vec![7, 7, 7]);
        assert!(weak.upgrade().is_some(), "the dataset's closure holds it");
        drop(d);
        assert!(weak.upgrade().is_none(), "nothing else may keep it alive");
    }

    #[test]
    fn untraced_contexts_collect_nothing() {
        let ctx = Context::new();
        ctx.run_tasks(4, |i| i);
        assert!(ctx.take_events().is_empty());
    }

    #[test]
    fn traced_stage_emits_start_tasks_end() {
        use crate::events::Event;
        let ctx = Context::builder().workers(2).build();
        ctx.trace();
        ctx.run_tasks(3, |i| i);
        let events = ctx.take_events();
        let starts = events
            .iter()
            .filter(|e| matches!(e, Event::StageStart { .. }))
            .count();
        let tasks = events
            .iter()
            .filter(|e| matches!(e, Event::TaskEnd { ok: true, .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e, Event::StageEnd { .. }))
            .count();
        assert_eq!((starts, tasks, ends), (1, 3, 1));
    }

    #[test]
    fn traced_retries_mark_injected_failures() {
        let ctx = failing(1, 1, 2).build();
        ctx.trace();
        ctx.run_tasks(4, |i| i);
        let profile = ctx.take_profile();
        assert_eq!(profile.total_failed_attempts(), 2);
        assert_eq!(
            profile
                .stages
                .iter()
                .map(|s| s.injected_failures)
                .sum::<u32>(),
            2
        );
    }

    #[test]
    fn scoped_tag_nests_and_restores() {
        let ctx = Context::new();
        assert_eq!(current_tag(), None);
        ctx.scoped_tag("outer", || {
            assert_eq!(current_tag().as_deref(), Some("outer"));
            ctx.scoped_tag("inner", || {
                assert_eq!(current_tag().as_deref(), Some("inner"));
            });
            assert_eq!(current_tag().as_deref(), Some("outer"));
        });
        assert_eq!(current_tag(), None);
    }

    /// Two driver threads share a context, their job and tag scopes
    /// overlapping: each shuffle's stages name the job and the plan tag of
    /// the thread that built and ran it, never the other thread's.
    #[test]
    fn concurrent_jobs_attribute_stages_to_their_own_thread() {
        let ctx = Context::builder().workers(2).chaos_off().build();
        ctx.trace();
        let (tagged, in_job, ran) = (
            std::sync::Barrier::new(2),
            std::sync::Barrier::new(2),
            std::sync::Barrier::new(2),
        );
        std::thread::scope(|scope| {
            for name in ["a", "b"] {
                let (ctx, tagged, in_job, ran) = (&ctx, &tagged, &in_job, &ran);
                scope.spawn(move || {
                    ctx.scoped_tag(name, || {
                        tagged.wait();
                        let pairs = ctx.parallelize((0..8u64).map(|x| (x % 2, x)).collect(), 2);
                        let summed = pairs.reduce_by_key(2, |a, b| a + b);
                        ctx.job_scope(name, || {
                            in_job.wait();
                            summed.op().materialize(ctx).expect("the shuffle runs");
                            // Both jobs stay open until both shuffles ran.
                            ran.wait();
                        });
                    });
                });
            }
        });
        let events = ctx.take_events();
        let job_of: HashMap<u64, &str> = events
            .iter()
            .filter_map(|e| match e {
                Event::JobStart { job_id, label, .. } => Some((*job_id, label.as_str())),
                _ => None,
            })
            .collect();
        let mut stages = 0;
        for e in &events {
            if let Event::StageStart { job_id, tag, .. } = e {
                let job = job_id.and_then(|id| job_of.get(&id).copied());
                assert_eq!(job, tag.as_deref(), "a stage's job and its tag disagree");
                stages += 1;
            }
        }
        assert_eq!(stages, 4, "a map and a reduce stage per thread");
    }

    #[test]
    fn job_scope_brackets_stages() {
        let ctx = Context::builder().workers(2).build();
        ctx.trace();
        ctx.job_scope("collect", || ctx.run_tasks(2, |i| i));
        let profile = ctx.take_profile();
        assert_eq!(profile.jobs.len(), 1);
        assert_eq!(profile.jobs[0].label, "collect");
        assert_eq!(profile.jobs[0].stage_ids.len(), 1);
    }

    #[test]
    fn zero_attempt_limits_clamp_to_one_and_still_run_a_stage() {
        let ctx = Context::builder()
            .workers(2)
            .max_task_attempts(0)
            .chaos_off()
            .build();
        assert_eq!(ctx.max_task_attempts(), 1);
        assert_eq!(ctx.run_tasks(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn executor_pool_defaults_to_one_per_worker() {
        let ctx = Context::builder().workers(3).chaos_off().build();
        assert_eq!(ctx.executor_status().len(), 3);
        assert!(ctx.executor_status().iter().all(|s| s.restarts == 0));
    }

    #[test]
    fn kill_executor_counts_restarts_and_keeps_every_executor_scheduled() {
        let ctx = Context::builder().workers(2).chaos_off().build();
        assert!(!ctx.kill_executor(99), "unknown executor id");
        for _ in 0..5 {
            assert!(ctx.kill_executor(0));
        }
        assert!(ctx.kill_executor(1));
        let restarts: Vec<u64> = ctx.executor_status().iter().map(|s| s.restarts).collect();
        assert_eq!(restarts, vec![5, 1]);
        // However often it died, executor 0 restarted empty and still runs
        // tasks: worker loop `t` is executor `t`. The two tasks wait for
        // each other, so each runs on its own loop.
        let both = std::sync::Barrier::new(2);
        let mut ran_on = ctx.run_tasks(2, |_| {
            both.wait();
            current_executor().expect("worker thread")
        });
        ran_on.sort();
        assert_eq!(ran_on, vec![0, 1]);
    }

    #[test]
    fn kill_mid_stage_discards_and_reruns_the_victim_task() {
        let ctx = Context::builder().workers(2).chaos_off().build();
        ctx.trace();
        let killed = AtomicBool::new(false);
        let runs = AtomicUsize::new(0);
        let out = ctx.run_tasks(8, |i| {
            runs.fetch_add(1, Ordering::SeqCst);
            if i == 3 && !killed.swap(true, Ordering::SeqCst) {
                // Kill our own executor mid-task: the completed result must
                // be discarded and the task rerun on the restarted slot.
                ctx.kill_executor(current_executor().expect("worker thread"));
            }
            i * 10
        });
        assert_eq!(out, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(runs.load(Ordering::SeqCst), 9, "task 3 runs twice");
        let events = ctx.take_events();
        let lost = events
            .iter()
            .filter(|e| matches!(e, Event::ExecutorLost { .. }))
            .count();
        let ok_ends = events
            .iter()
            .filter(|e| matches!(e, Event::TaskEnd { ok: true, .. }))
            .count();
        assert_eq!(lost, 1);
        // The discarded attempt emits no TaskEnd; kills are loss, not failure.
        assert_eq!(ok_ends, 8);
        assert_eq!(JobProfile::from_events(&events).total_failed_attempts(), 0);
    }

    #[test]
    fn permanent_failure_stops_launching_queued_tasks() {
        let ctx = failing(1, 1, 1).max_task_attempts(1).build();
        let launched = AtomicUsize::new(0);
        let result = try_run(&ctx, 64, |i| {
            launched.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert!(result.is_err(), "exhausted attempts must fail the job");
        // Fail-fast: the single worker stops at the failed task instead of
        // burning through the remaining 63.
        assert!(
            launched.load(Ordering::SeqCst) < 8,
            "ran {} tasks after a permanent failure",
            launched.load(Ordering::SeqCst)
        );
        assert_eq!(ctx.run_tasks(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn builder_knobs_read_back_from_a_running_context() {
        let ctx = Context::builder()
            .workers(3)
            .worker_processes(0)
            .max_task_attempts(7)
            .storage_memory(1 << 20)
            .chaos_off()
            .build();
        assert_eq!(ctx.workers(), 3);
        assert_eq!(ctx.max_task_attempts(), 7);
        assert_eq!(ctx.storage_memory(), Some(1 << 20));
        // Local mode: no worker processes, no external spool.
        assert_eq!(ctx.worker_processes(), 0);
        assert_eq!(ctx.external_shuffle_path(0), None);
    }

    #[test]
    fn kill_worker_is_a_no_op_in_local_mode() {
        let ctx = Context::builder()
            .workers(2)
            .worker_processes(0)
            .chaos_off()
            .build();
        assert!(!ctx.kill_worker(0));
        assert_eq!(ctx.run_tasks(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn scoped_tenant_nests_and_restores_on_unwind() {
        let ctx = Context::new();
        assert_eq!(current_tenant(), None);
        ctx.scoped_tenant(1, || {
            assert_eq!(current_tenant(), Some(1));
            ctx.scoped_tenant(2, || assert_eq!(current_tenant(), Some(2)));
            assert_eq!(current_tenant(), Some(1));
            let _ = catch_unwind(AssertUnwindSafe(|| ctx.scoped_tenant(3, || panic!("boom"))));
            assert_eq!(current_tenant(), Some(1), "restored on unwind");
        });
        assert_eq!(current_tenant(), None);
    }

    #[test]
    fn workers_inherit_the_tenant_from_the_driver() {
        let ctx = Context::builder().workers(2).chaos_off().build();
        ctx.scoped_tenant(7, || {
            let seen = ctx.run_tasks(4, |_| current_tenant());
            assert_eq!(seen, vec![Some(7); 4]);
        });
        // The same pooled threads do not carry it into a later stage.
        let seen = ctx.run_tasks(4, |_| current_tenant());
        assert_eq!(seen, vec![None; 4]);
    }

    #[test]
    fn cancellation_stops_at_the_next_task_boundary() {
        let ctx = Context::builder().workers(2).chaos_off().build();
        ctx.trace();
        let token = CancelToken::new("alice", 42);
        let launched = Arc::new(AtomicUsize::new(0));
        let (t2, l2) = (token.clone(), launched.clone());
        let result = ctx.scoped_cancel(token.clone(), || {
            try_run(&ctx, 64, move |i| {
                l2.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    t2.cancel();
                }
                std::thread::sleep(Duration::from_millis(1));
                i
            })
        });
        let err = result.expect_err("a cancelled job fails");
        assert_eq!((err.cause, err.task), (Cause::Cancelled, None));
        assert_eq!(err.message, "job 42 of tenant 'alice' cancelled");
        // In-flight tasks finish, nothing further launches: with 2 workers
        // at most one extra task can slip in per worker after the cancel.
        assert!(
            launched.load(Ordering::SeqCst) <= 4,
            "launched {} tasks after cancellation",
            launched.load(Ordering::SeqCst)
        );
        let cancels = ctx
            .take_events()
            .iter()
            .filter(
                |e| matches!(e, Event::JobCancelled { tenant, job: 42, .. } if tenant == "alice"),
            )
            .count();
        assert_eq!(cancels, 1, "exactly one JobCancelled per token");
        // The pool is free again: later jobs run normally.
        assert_eq!(ctx.run_tasks(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn cancellation_in_a_shuffle_map_stage_fails_the_action_without_retries() {
        let ctx = Context::builder().workers(2).chaos_off().build();
        let token = CancelToken::new("bob", 5);
        ctx.trace();
        let t2 = token.clone();
        let pairs = ctx.parallelize((0..64u64).collect(), 8).map(move |x| {
            // Cancelled from inside the map stage the action runs first.
            t2.cancel();
            (x % 4, x)
        });
        let result = ctx.scoped_cancel(token.clone(), || {
            pairs.reduce_by_key(2, |a, b| a + b).try_collect()
        });
        let err = result.expect_err("cancellation must reach the driver");
        assert_eq!(err.cause, Cause::Cancelled);
        let events = ctx.take_events();
        let cancels = events
            .iter()
            .filter(|e| matches!(e, Event::JobCancelled { job: 5, .. }))
            .count();
        assert_eq!(cancels, 1, "exactly one JobCancelled per token");
        assert_eq!(
            JobProfile::from_events(&events).total_failed_attempts(),
            0,
            "cancellation is not a task failure and must not be retried"
        );
        // Only the map stage ran: the reduce and action stages never start.
        let stages = events
            .iter()
            .filter(|e| matches!(e, Event::StageStart { .. }))
            .count();
        assert_eq!(stages, 1);
    }

    #[test]
    fn chaos_plan_is_visible_on_the_context() {
        let plan = ChaosPlan::new().with_kill_at_task(10, 0);
        let ctx = Context::builder().workers(2).chaos(plan).build();
        assert!(ctx.chaos_plan().is_some());
        let ctx = Context::builder().chaos_off().build();
        assert!(ctx.chaos_plan().is_none());
    }
}
