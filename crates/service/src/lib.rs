//! # service — a multi-tenant query service over one shared runtime
//!
//! The paper's programming model compiles comprehensions per query; this
//! crate is the serving layer above it: one [`QueryService`] hosts many
//! concurrent tenant sessions over a *single* [`sparkline::Context`]
//! (one executor pool, one block manager), providing
//!
//! * **admission control** — a [`sparkline::FairScheduler`] caps concurrent
//!   jobs and orders waiters by weighted virtual time, so a noisy neighbor
//!   queues behind well-behaved tenants instead of monopolizing the pool;
//! * **per-tenant memory quotas** — persisted blocks computed inside a
//!   tenant's jobs are attributed to the tenant by the block manager and
//!   evicted against the tenant's own budget first
//!   ([`QueryService::set_tenant_quota`]);
//! * **cooperative cancellation** — every job carries a
//!   [`sparkline::CancelToken`] checked at task boundaries; cancelling frees
//!   the admission slot and (once the tenant is idle) the tenant's cached
//!   blocks;
//! * **a plan cache** — queries are canonicalized ([`canon::canonicalize`]:
//!   normalization, commutative-generator reordering, alpha-renaming) and
//!   keyed together with the versions of the bindings they read, so
//!   alpha-equivalent queries over unchanged data reuse one compiled plan
//!   across sessions;
//! * **shared read-only datasets** — arrays registered with
//!   [`QueryService::register_shared_matrix`] are persisted once and handed
//!   to every session as zero-copy `Arc` views of the same cached blocks.
//!
//! [`net`] adds a line-oriented TCP protocol (`RUN` / `CANCEL` / `STATUS`)
//! so external closed-loop clients can drive the service.

pub mod canon;
pub mod net;

use planner::{DistArray, ExecResult, PlanConfig};
use sac::Session;
use sparkline::json::JsonObject;
use sparkline::{panic_is_cancelled, CancelToken, Context, Event, FairScheduler};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use tiled::LocalMatrix;

/// Errors surfaced to service clients.
#[derive(Debug)]
pub enum ServiceError {
    /// Parse, type, plan, or execution error from the compiler pipeline.
    Comp(comp::CompError),
    /// A tenant tried to (re)bind a name owned by the shared catalog, or a
    /// shared registration collided with an existing tenant-private name.
    SharedNameConflict(String),
    /// `cancel` named a tenant the service has never seen.
    UnknownTenant(String),
    /// `cancel` named a job that is not currently running.
    UnknownJob { tenant: String, job: u64 },
    /// The job was cancelled before it produced a result.
    Cancelled { tenant: String, job: u64 },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Comp(e) => write!(f, "{e}"),
            ServiceError::SharedNameConflict(name) => {
                write!(f, "name '{name}' conflicts with the shared catalog")
            }
            ServiceError::UnknownTenant(t) => write!(f, "unknown tenant '{t}'"),
            ServiceError::UnknownJob { tenant, job } => {
                write!(f, "tenant '{tenant}' has no running job {job}")
            }
            ServiceError::Cancelled { tenant, job } => {
                write!(f, "job {job} of tenant '{tenant}' was cancelled")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<comp::CompError> for ServiceError {
    fn from(e: comp::CompError) -> Self {
        ServiceError::Comp(e)
    }
}

/// The answer to one query.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// Service-level job id (the handle `cancel` takes).
    pub job: u64,
    /// `"matrix"`, `"vector"`, or `"value"`.
    pub kind: String,
    /// Result dimensions (`rows = len, cols = 1` for vectors; `0 × 0` for
    /// driver-side values).
    pub rows: i64,
    pub cols: i64,
    /// Order-insensitive-free FNV-1a over the result's element bit patterns:
    /// equal fingerprints ⇔ bit-identical results, the property the load
    /// generator checks between solo and contended runs.
    pub fingerprint: u64,
    /// Rendered driver-side value, when `kind == "value"`.
    pub value: Option<String>,
    /// Wall-clock of planning-free execution (admission to result).
    pub wall_micros: u64,
    /// Wall-clock spent queued before admission.
    pub queue_micros: u64,
    /// Did the plan come from the cache?
    pub cache_hit: bool,
}

impl QueryReply {
    /// One-line JSON encoding for the wire protocol.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.raw("job", self.job)
            .string("kind", &self.kind)
            .raw("rows", self.rows)
            .raw("cols", self.cols)
            .raw("fingerprint", self.fingerprint)
            .raw("wall_micros", self.wall_micros)
            .raw("queue_micros", self.queue_micros)
            .raw("cache_hit", self.cache_hit);
        if let Some(v) = &self.value {
            o.string("value", v);
        }
        o.finish()
    }
}

/// Builder for [`QueryService`].
pub struct ServiceBuilder {
    context: Option<Context>,
    runtime: sparkline::ContextBuilder,
    slots: Option<usize>,
    config: PlanConfig,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            context: None,
            runtime: Context::builder(),
            slots: None,
            config: PlanConfig::default(),
        }
    }
}

impl ServiceBuilder {
    /// Serve over an *existing* runtime context; the runtime-level knobs on
    /// this builder are then ignored.
    pub fn context(mut self, ctx: Context) -> Self {
        self.context = Some(ctx);
        self
    }

    /// Executor threads of the shared runtime.
    pub fn workers(mut self, n: usize) -> Self {
        self.runtime = self.runtime.workers(n);
        self
    }

    /// Storage-memory budget (bytes) of the shared block manager.
    pub fn storage_memory(mut self, bytes: usize) -> Self {
        self.runtime = self.runtime.storage_memory(bytes);
        self
    }

    /// Concurrently admitted jobs (default: the worker count).
    pub fn slots(mut self, n: usize) -> Self {
        self.slots = Some(n.max(1));
        self
    }

    /// Shuffle partition count for tenant sessions (0 = autotune).
    pub fn partitions(mut self, n: usize) -> Self {
        self.config.partitions = n;
        self
    }

    /// Threads per tile kernel for tenant sessions.
    pub fn tile_threads(mut self, n: usize) -> Self {
        self.config.tile_threads = n.max(1);
        self
    }

    /// Broadcast budget for tenant sessions.
    pub fn broadcast_budget(mut self, bytes: u64) -> Self {
        self.config.broadcast_budget = bytes;
        self
    }

    /// Run the shared runtime under an explicit chaos schedule.
    pub fn chaos(mut self, plan: sparkline::ChaosPlan) -> Self {
        self.runtime = self.runtime.chaos(plan);
        self
    }

    /// Disable fault injection even when `SPARKLINE_CHAOS` is set.
    pub fn chaos_off(mut self) -> Self {
        self.runtime = self.runtime.chaos_off();
        self
    }

    pub fn build(self) -> QueryService {
        let ctx = self.context.unwrap_or_else(|| self.runtime.build());
        let slots = self.slots.unwrap_or_else(|| ctx.workers());
        let mut shared = Session::builder().context(ctx.clone()).build();
        *shared.config_mut() = self.config;
        QueryService {
            inner: Arc::new(Inner {
                ctx,
                scheduler: FairScheduler::new(slots),
                state: Mutex::new(ServiceState {
                    shared,
                    shared_versions: HashMap::new(),
                    shared_scalars: HashSet::new(),
                    tenants: HashMap::new(),
                    plan_cache: HashMap::new(),
                }),
                next_job: AtomicU64::new(1),
                next_tenant: AtomicU32::new(1),
                next_version: AtomicU64::new(1),
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
            }),
        }
    }
}

struct Tenant {
    id: u32,
    session: Session,
    /// Version of each tenant-private array binding (bumped on rebind, so
    /// stale plan-cache keys stop matching).
    versions: HashMap<String, u64>,
    /// Cancellation tokens of this tenant's in-flight jobs, by job id.
    running: HashMap<u64, CancelToken>,
}

struct ServiceState {
    /// The shared catalog: a session whose bindings every tenant inherits.
    shared: Session,
    /// Version of each shared array binding.
    shared_versions: HashMap<String, u64>,
    /// Names of shared scalars (their values live in the shared session).
    shared_scalars: HashSet<String>,
    tenants: HashMap<String, Tenant>,
    /// Compiled plans keyed on canonical query text + binding fingerprints.
    plan_cache: HashMap<String, Arc<planner::Planned>>,
}

struct Inner {
    ctx: Context,
    scheduler: Arc<FairScheduler>,
    state: Mutex<ServiceState>,
    next_job: AtomicU64,
    next_tenant: AtomicU32,
    next_version: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

/// The service handle. Cloning shares the service; clones are how server
/// threads and submitted jobs reach the shared state.
#[derive(Clone)]
pub struct QueryService {
    inner: Arc<Inner>,
}

/// A job started with [`QueryService::submit`]: cancellable while running,
/// joinable for the result.
pub struct JobHandle {
    job: u64,
    tenant: String,
    token: CancelToken,
    thread: std::thread::JoinHandle<Result<QueryReply, ServiceError>>,
}

impl JobHandle {
    /// Service-level job id (what `CANCEL` takes over the wire).
    pub fn job(&self) -> u64 {
        self.job
    }

    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Request cooperative cancellation; the job observes it at its next
    /// task boundary.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Wait for the job's result.
    pub fn wait(self) -> Result<QueryReply, ServiceError> {
        match self.thread.join() {
            Ok(result) => result,
            Err(cause) => resume_unwind(cause),
        }
    }
}

/// Point-in-time service counters for `STATUS` replies and the bench driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStatus {
    pub tenant: String,
    pub id: u32,
    pub running_jobs: Vec<u64>,
    pub memory_used: u64,
    pub quota: Option<u64>,
}

#[derive(Debug, Clone)]
pub struct ServiceStatus {
    pub slots: usize,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    pub plan_cache_entries: usize,
    pub memory_used: u64,
    pub budget: Option<u64>,
    pub tenants: Vec<TenantStatus>,
}

impl ServiceStatus {
    pub fn to_json(&self) -> String {
        let or_null = |limit: Option<u64>| limit.map_or("null".to_string(), |n| n.to_string());
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .map(|t| {
                let jobs: Vec<String> = t.running_jobs.iter().map(u64::to_string).collect();
                let mut o = JsonObject::new();
                o.string("tenant", &t.tenant)
                    .raw("id", t.id)
                    .raw("running", format_args!("[{}]", jobs.join(",")))
                    .raw("memory_used", t.memory_used)
                    .raw("quota", or_null(t.quota));
                o.finish()
            })
            .collect();
        let mut plan_cache = JsonObject::new();
        plan_cache
            .raw("hits", self.plan_cache_hits)
            .raw("misses", self.plan_cache_misses)
            .raw("entries", self.plan_cache_entries);
        let mut storage = JsonObject::new();
        storage
            .raw("memory_used", self.memory_used)
            .raw("budget", or_null(self.budget));
        let mut o = JsonObject::new();
        o.raw("slots", self.slots)
            .raw("plan_cache", plan_cache.finish())
            .raw("storage", storage.finish())
            .raw("tenants", format_args!("[{}]", tenants.join(",")));
        o.finish()
    }
}

impl Default for QueryService {
    fn default() -> Self {
        QueryService::builder().build()
    }
}

impl QueryService {
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// The shared runtime context all sessions execute on.
    pub fn context(&self) -> &Context {
        &self.inner.ctx
    }

    fn lock(&self) -> MutexGuard<'_, ServiceState> {
        self.inner.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn next_version(&self) -> u64 {
        self.inner.next_version.fetch_add(1, Ordering::SeqCst)
    }

    /// Get-or-create the tenant entry, inheriting the shared catalog.
    fn tenant_entry<'a>(&self, st: &'a mut ServiceState, name: &str) -> &'a mut Tenant {
        if !st.tenants.contains_key(name) {
            let id = self.inner.next_tenant.fetch_add(1, Ordering::SeqCst);
            let mut session = Session::builder().context(self.inner.ctx.clone()).build();
            *session.config_mut() = st.shared.config().clone();
            for shared_name in st.shared_versions.keys() {
                if let Some(a) = st.shared.env().array(shared_name).cloned() {
                    let stats = st.shared.env().stats(shared_name).copied();
                    session.env_mut().set_array(shared_name.clone(), a);
                    if let Some(s) = stats {
                        session.env_mut().set_stats(shared_name.clone(), s);
                    }
                }
            }
            for scalar in &st.shared_scalars {
                if let Some(v) = st.shared.env().scalar(scalar).cloned() {
                    session.env_mut().set_scalar(scalar.clone(), v);
                }
            }
            st.tenants.insert(
                name.to_string(),
                Tenant {
                    id,
                    session,
                    versions: HashMap::new(),
                    running: HashMap::new(),
                },
            );
        }
        st.tenants.get_mut(name).unwrap()
    }

    /// Relative admission share of a tenant (default 1; higher = more pool
    /// time under contention).
    pub fn set_tenant_weight(&self, tenant: &str, weight: u32) {
        let mut st = self.lock();
        let id = self.tenant_entry(&mut st, tenant).id;
        drop(st);
        self.inner.scheduler.set_weight(id, weight);
    }

    /// Per-tenant cap on bytes of cached blocks attributed to the tenant.
    pub fn set_tenant_quota(&self, tenant: &str, bytes: usize) {
        let mut st = self.lock();
        let id = self.tenant_entry(&mut st, tenant).id;
        drop(st);
        self.inner.ctx.storage().set_tenant_quota(id, bytes);
    }

    /// Runtime tenant id (block-manager attribution key) of a tenant.
    pub fn tenant_id(&self, tenant: &str) -> u32 {
        let mut st = self.lock();
        self.tenant_entry(&mut st, tenant).id
    }

    /// Register a shared read-only matrix: ingested once, persisted through
    /// the shared block manager, and bound (as an `Arc` view of the same
    /// cached blocks) into every current and future tenant session.
    pub fn register_shared_matrix(
        &self,
        name: impl Into<String>,
        m: &LocalMatrix,
        tile_size: usize,
    ) -> Result<(), ServiceError> {
        let name = name.into();
        let mut st = self.lock();
        if st.tenants.values().any(|t| t.versions.contains_key(&name)) {
            return Err(ServiceError::SharedNameConflict(name));
        }
        st.shared.register_local_matrix(name.clone(), m, tile_size);
        st.shared.persist(&name);
        st.shared_versions.insert(name.clone(), self.next_version());
        let array = st.shared.env().array(&name).cloned();
        let stats = st.shared.env().stats(&name).copied();
        for t in st.tenants.values_mut() {
            if let Some(a) = array.clone() {
                t.session.env_mut().set_array(name.clone(), a);
            }
            if let Some(s) = stats {
                t.session.env_mut().set_stats(name.clone(), s);
            }
        }
        drop(st);
        // Materialize the persisted blocks now, on the (tenant-less) caller
        // thread: shared blocks must stay tenant-neutral so one tenant's
        // quota eviction or cancellation cleanup never drops them.
        if let Some(DistArray::Matrix(m)) = array {
            m.tiles().count();
        }
        Ok(())
    }

    /// Register a shared scalar, visible to every tenant.
    pub fn register_shared_int(&self, name: impl Into<String>, v: i64) {
        let name = name.into();
        let mut st = self.lock();
        st.shared.set_int(name.clone(), v);
        st.shared_scalars.insert(name.clone());
        for t in st.tenants.values_mut() {
            t.session.set_int(name.clone(), v);
        }
    }

    /// Register a tenant-private matrix. Rebinding bumps the binding's
    /// version, invalidating every cached plan that read the old binding.
    pub fn register_matrix_for(
        &self,
        tenant: &str,
        name: impl Into<String>,
        m: &LocalMatrix,
        tile_size: usize,
    ) -> Result<(), ServiceError> {
        let name = name.into();
        let mut st = self.lock();
        if st.shared_versions.contains_key(&name) || st.shared_scalars.contains(&name) {
            return Err(ServiceError::SharedNameConflict(name));
        }
        let version = self.next_version();
        let t = self.tenant_entry(&mut st, tenant);
        t.session.register_local_matrix(name.clone(), m, tile_size);
        t.versions.insert(name, version);
        Ok(())
    }

    /// Bind a tenant-private integer scalar.
    pub fn set_int_for(
        &self,
        tenant: &str,
        name: impl Into<String>,
        v: i64,
    ) -> Result<(), ServiceError> {
        let name = name.into();
        let mut st = self.lock();
        if st.shared_versions.contains_key(&name) || st.shared_scalars.contains(&name) {
            return Err(ServiceError::SharedNameConflict(name));
        }
        self.tenant_entry(&mut st, tenant).session.set_int(name, v);
        Ok(())
    }

    /// Bind a tenant-private float scalar.
    pub fn set_float_for(
        &self,
        tenant: &str,
        name: impl Into<String>,
        v: f64,
    ) -> Result<(), ServiceError> {
        let name = name.into();
        let mut st = self.lock();
        if st.shared_versions.contains_key(&name) || st.shared_scalars.contains(&name) {
            return Err(ServiceError::SharedNameConflict(name));
        }
        self.tenant_entry(&mut st, tenant)
            .session
            .set_float(name, v);
        Ok(())
    }

    /// Mutate a tenant's planner configuration (e.g. pin a matmul
    /// strategy, change tile threads). The plan-cache key covers the full
    /// config signature, so a change here can never resurrect a plan
    /// compiled under the previous configuration.
    pub fn configure_tenant(&self, tenant: &str, f: impl FnOnce(&mut planner::plan::PlanConfig)) {
        let mut st = self.lock();
        f(self.tenant_entry(&mut st, tenant).session.config_mut());
    }

    /// Request cooperative cancellation of a running job.
    pub fn cancel(&self, tenant: &str, job: u64) -> Result<(), ServiceError> {
        let st = self.lock();
        let t = st
            .tenants
            .get(tenant)
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))?;
        let token = t.running.get(&job).ok_or(ServiceError::UnknownJob {
            tenant: tenant.to_string(),
            job,
        })?;
        token.cancel();
        Ok(())
    }

    /// Plan-cache counters: `(hits, misses, entries)`.
    pub fn plan_cache_stats(&self) -> (u64, u64, usize) {
        (
            self.inner.cache_hits.load(Ordering::SeqCst),
            self.inner.cache_misses.load(Ordering::SeqCst),
            self.lock().plan_cache.len(),
        )
    }

    /// Point-in-time counters across tenants, cache, and storage.
    pub fn status(&self) -> ServiceStatus {
        let storage = self.inner.ctx.storage_status();
        let st = self.lock();
        let mut tenants: Vec<TenantStatus> = st
            .tenants
            .iter()
            .map(|(name, t)| {
                let per_tenant = storage.tenants.iter().find(|s| s.tenant == t.id);
                let mut running: Vec<u64> = t.running.keys().copied().collect();
                running.sort_unstable();
                TenantStatus {
                    tenant: name.clone(),
                    id: t.id,
                    running_jobs: running,
                    memory_used: per_tenant.map_or(0, |s| s.memory_used),
                    quota: per_tenant.and_then(|s| s.quota),
                }
            })
            .collect();
        tenants.sort_by_key(|t| t.id);
        ServiceStatus {
            slots: self.inner.scheduler.slots(),
            plan_cache_hits: self.inner.cache_hits.load(Ordering::SeqCst),
            plan_cache_misses: self.inner.cache_misses.load(Ordering::SeqCst),
            plan_cache_entries: st.plan_cache.len(),
            memory_used: storage.memory_used,
            budget: storage.budget,
            tenants,
        }
    }

    /// Run a query for a tenant, blocking until the result (or failure).
    pub fn run(&self, tenant: &str, query: &str) -> Result<QueryReply, ServiceError> {
        let (job, token) = self.register_job(tenant);
        self.run_registered(tenant, job, token, query)
    }

    /// Start a query on a background thread; the returned handle can cancel
    /// it and join its result.
    pub fn submit(&self, tenant: &str, query: &str) -> JobHandle {
        let (job, token) = self.register_job(tenant);
        let service = self.clone();
        let tenant_owned = tenant.to_string();
        let query = query.to_string();
        let thread_token = token.clone();
        let thread = std::thread::spawn(move || {
            service.run_registered(&tenant_owned, job, thread_token, &query)
        });
        JobHandle {
            job,
            tenant: tenant.to_string(),
            token,
            thread,
        }
    }

    /// Allocate a job id + cancellation token and register it as running.
    fn register_job(&self, tenant: &str) -> (u64, CancelToken) {
        let job = self.inner.next_job.fetch_add(1, Ordering::SeqCst);
        let token = CancelToken::new(tenant, job);
        let mut st = self.lock();
        self.tenant_entry(&mut st, tenant)
            .running
            .insert(job, token.clone());
        (job, token)
    }

    fn run_registered(
        &self,
        tenant: &str,
        job: u64,
        token: CancelToken,
        query: &str,
    ) -> Result<QueryReply, ServiceError> {
        let outcome = self.execute_job(tenant, job, &token, query);
        // Deregister in every outcome; a cancelled tenant going idle also
        // releases its attributed cached blocks.
        let mut st = self.lock();
        let (tid, idle) = match st.tenants.get_mut(tenant) {
            Some(t) => {
                t.running.remove(&job);
                (t.id, t.running.is_empty())
            }
            None => (0, false),
        };
        drop(st);
        match outcome {
            Outcome::Reply(reply) => Ok(reply),
            Outcome::Error(e) => Err(e),
            Outcome::Cancelled => {
                if idle {
                    self.inner.ctx.storage().remove_tenant(tid);
                }
                Err(ServiceError::Cancelled {
                    tenant: tenant.to_string(),
                    job,
                })
            }
            Outcome::Panic(cause) => resume_unwind(cause),
        }
    }

    fn execute_job(&self, tenant: &str, job: u64, token: &CancelToken, query: &str) -> Outcome {
        let expr = match comp::parse_expr(query) {
            Ok(e) => e,
            Err(e) => return Outcome::Error(e.into()),
        };
        let canon = canon::canonicalize(expr);
        let (tid, key, env, config) = {
            let mut st = self.lock();
            let tenant_entry = self.tenant_entry(&mut st, tenant);
            let tid = tenant_entry.id;
            let env = tenant_entry.session.env().clone();
            let config = tenant_entry.session.config().clone();
            let versions = tenant_entry.versions.clone();
            // Cache key: canonical text + a fingerprint per free variable.
            // Shared arrays key on their global version (cross-tenant hits);
            // tenant arrays on tenant id + version (rebind invalidates);
            // scalars on their value (plans bake dimensions in).
            let mut key = format!("{canon}");
            for v in canon.free_vars() {
                if let Some(ver) = st.shared_versions.get(&v) {
                    key.push_str(&format!("|s:{v}={ver}"));
                } else if let Some(ver) = versions.get(&v) {
                    key.push_str(&format!("|p:{tid}:{v}={ver}"));
                } else if let Some(val) = env.scalar(&v) {
                    key.push_str(&format!("|k:{v}={val:?}"));
                } else {
                    key.push_str(&format!("|u:{v}"));
                }
            }
            // The config signature covers every planner knob plus the kernel
            // backend (`SAC_KERNEL`): two alpha-equivalent compiles under
            // different configurations must produce distinct keys, or one
            // tenant's cached plan leaks the other configuration's choices.
            // Runtime re-decisions are made per-execution from measured
            // stats and are never written back into this cache.
            key.push_str(&format!(
                "|c:{}:{:?}:{}:{}:{}",
                config.partitions,
                config.matmul,
                config.broadcast_budget,
                config.tile_threads,
                tiled::kernel::signature(),
            ));
            (tid, key, env, config)
        };
        let cached = self.lock().plan_cache.get(&key).cloned();
        let (planned, cache_hit) = match cached {
            Some(planned) => {
                self.inner.cache_hits.fetch_add(1, Ordering::SeqCst);
                let key_hash = canon::key_hash(&key);
                let tenant_owned = tenant.to_string();
                self.inner.ctx.emit_event(|at| Event::PlanCacheHit {
                    tenant: tenant_owned,
                    key: key_hash,
                    at_micros: at,
                });
                (planned, true)
            }
            None => {
                self.inner.cache_misses.fetch_add(1, Ordering::SeqCst);
                let planned = match planner::plan::plan(&canon, &env, &config) {
                    Ok(p) => Arc::new(p),
                    Err(e) => return Outcome::Error(e.into()),
                };
                self.lock().plan_cache.insert(key, planned.clone());
                (planned, false)
            }
        };
        let slot = self.inner.scheduler.admit(tid);
        let queue_micros = slot.queue_micros();
        let tenant_owned = tenant.to_string();
        self.inner.ctx.emit_event(|at| Event::JobAdmitted {
            tenant: tenant_owned,
            job,
            queue_micros,
            at_micros: at,
        });
        let started = Instant::now();
        let ctx = &self.inner.ctx;
        let run_token = token.clone();
        let run = catch_unwind(AssertUnwindSafe(|| {
            ctx.scoped_tenant(tid, || {
                ctx.scoped_cancel(run_token, || {
                    let result = planner::execute(&planned, &env, ctx, &config)?;
                    result.force();
                    Ok::<ExecResult, comp::CompError>(result)
                })
            })
        }));
        let wall_micros = started.elapsed().as_micros() as u64;
        drop(slot);
        match run {
            Ok(Ok(result)) => Outcome::Reply(reply_from(
                job,
                &result,
                wall_micros,
                queue_micros,
                cache_hit,
            )),
            Ok(Err(e)) => Outcome::Error(e.into()),
            Err(cause) if panic_is_cancelled(&cause) => Outcome::Cancelled,
            Err(cause) => Outcome::Panic(cause),
        }
    }
}

enum Outcome {
    Reply(QueryReply),
    Error(ServiceError),
    Cancelled,
    Panic(Box<dyn std::any::Any + Send>),
}

/// FNV-1a over a stream of u64 words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn reply_from(
    job: u64,
    result: &ExecResult,
    wall_micros: u64,
    queue_micros: u64,
    cache_hit: bool,
) -> QueryReply {
    let (kind, rows, cols, fingerprint, value) = match result {
        ExecResult::Matrix(m) => {
            let local = m.to_local();
            let fp = fnv1a(
                [local.rows as u64, local.cols as u64]
                    .into_iter()
                    .chain(local.data().iter().map(|x| x.to_bits())),
            );
            ("matrix", m.rows(), m.cols(), fp, None)
        }
        ExecResult::Vector(v) => {
            let local = v.to_local();
            let fp = fnv1a(
                [local.len() as u64, 1]
                    .into_iter()
                    .chain(local.iter().map(|x| x.to_bits())),
            );
            ("vector", v.len(), 1, fp, None)
        }
        ExecResult::Local(v) => {
            let rendered = format!("{v:?}");
            let fp = fnv1a(rendered.bytes().map(u64::from));
            ("value", 0, 0, fp, Some(rendered))
        }
    };
    QueryReply {
        job,
        kind: kind.to_string(),
        rows,
        cols,
        fingerprint,
        value,
        wall_micros,
        queue_micros,
        cache_hit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_service() -> QueryService {
        QueryService::builder()
            .workers(4)
            .storage_memory(64 << 20)
            .slots(2)
            .chaos_off()
            .build()
    }

    fn random_matrix(n: usize, seed: u64) -> LocalMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        LocalMatrix::random(n, n, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn shared_matrix_serves_multiple_tenants_identically() {
        let svc = small_service();
        let a = random_matrix(8, 1);
        svc.register_shared_matrix("A", &a, 4).unwrap();
        svc.register_shared_int("n", 8);
        let q = "tiled(n,n)[ ((i,j), a*2.0) | ((i,j),a) <- A ]";
        let r1 = svc.run("alice", q).unwrap();
        let r2 = svc.run("bob", q).unwrap();
        assert_eq!(r1.kind, "matrix");
        assert_eq!((r1.rows, r1.cols), (8, 8));
        assert_eq!(
            r1.fingerprint, r2.fingerprint,
            "tenants over shared data must agree bit-for-bit"
        );
    }

    #[test]
    fn alpha_equivalent_queries_hit_the_plan_cache_across_tenants() {
        let svc = small_service();
        svc.register_shared_matrix("A", &random_matrix(8, 2), 4)
            .unwrap();
        svc.register_shared_int("n", 8);
        let r1 = svc
            .run("alice", "tiled(n,n)[ ((i,j), a+a) | ((i,j),a) <- A ]")
            .unwrap();
        assert!(!r1.cache_hit, "first execution must compile");
        // Alpha-renamed: same canonical key, same plan, even from another
        // tenant (the binding is shared).
        let r2 = svc
            .run("bob", "tiled(n,n)[ ((r,c), x+x) | ((r,c),x) <- A ]")
            .unwrap();
        assert!(r2.cache_hit, "alpha-renamed query must hit the cache");
        assert_eq!(r1.fingerprint, r2.fingerprint);
        let (hits, misses, entries) = svc.plan_cache_stats();
        assert_eq!((hits, misses, entries), (1, 1, 1));
    }

    #[test]
    fn config_changes_never_share_compiled_plans() {
        let svc = small_service();
        svc.register_shared_matrix("A", &random_matrix(8, 3), 4)
            .unwrap();
        svc.register_shared_matrix("B", &random_matrix(8, 4), 4)
            .unwrap();
        svc.register_shared_int("n", 8);
        let q_alice = "tiled(n,n)[ ((i,j), a + b*0.5) | ((i,j),a) <- A, ((r,c),b) <- B, \
                       r == i, c == j ]";
        // Alpha-equivalent rename, submitted by another tenant.
        let q_bob = "tiled(n,n)[ ((p,q), x + y*0.5) | ((p,q),x) <- A, ((s,t),y) <- B, \
                     s == p, t == q ]";
        let first = svc.run("alice", q_alice).unwrap();
        assert!(!first.cache_hit);
        // Bob compiles the same canonical query with a different tile-thread
        // count: the config signatures differ, so alice's cached plan must
        // NOT be shared — this is the before/after-config-change audit case.
        svc.configure_tenant("bob", |c| c.tile_threads += 1);
        let flipped = svc.run("bob", q_bob).unwrap();
        assert!(
            !flipped.cache_hit,
            "a flipped config must never reuse another config's compiled plan"
        );
        assert_eq!(
            first.fingerprint, flipped.fingerprint,
            "tile threads must not move a bit"
        );
        let (_, misses, entries) = svc.plan_cache_stats();
        assert_eq!((misses, entries), (2, 2), "two distinct cache entries");
        // Same config, same canonical query → now it may share.
        svc.configure_tenant("bob", |c| c.tile_threads -= 1);
        let restored = svc.run("bob", q_bob).unwrap();
        assert!(restored.cache_hit, "restored config hits alice's entry");
    }

    #[test]
    fn reordered_generators_hit_and_mutated_bindings_invalidate() {
        let svc = small_service();
        svc.register_shared_int("n", 6);
        svc.register_matrix_for("alice", "X", &random_matrix(6, 3), 3)
            .unwrap();
        svc.register_matrix_for("alice", "Y", &random_matrix(6, 4), 3)
            .unwrap();
        let q1 = "+/[ x*y | ((i,j),x) <- X, ((k,l),y) <- Y ]";
        let q2 = "+/[ b*a | ((k,l),a) <- Y, ((i,j),b) <- X ]";
        let r1 = svc.run("alice", q1).unwrap();
        let r2 = svc.run("alice", q2).unwrap();
        assert!(!r1.cache_hit);
        assert!(
            r2.cache_hit,
            "reordered commutative generators must reuse the plan"
        );
        assert_eq!(r1.value, r2.value);
        // Rebinding X bumps its version: the cached plan no longer matches.
        svc.register_matrix_for("alice", "X", &random_matrix(6, 5), 3)
            .unwrap();
        let r3 = svc.run("alice", q1).unwrap();
        assert!(!r3.cache_hit, "rebinding must invalidate the cache entry");
        assert_ne!(r3.value, r1.value);
        // Tenant-private bindings do not leak across tenants.
        svc.register_matrix_for("bob", "X", &random_matrix(6, 3), 3)
            .unwrap();
        svc.register_matrix_for("bob", "Y", &random_matrix(6, 4), 3)
            .unwrap();
        let rb = svc.run("bob", q1).unwrap();
        assert!(
            !rb.cache_hit,
            "a private binding's plan must not be shared across tenants"
        );
    }

    #[test]
    fn scalar_changes_invalidate_cached_plans() {
        let svc = small_service();
        svc.register_matrix_for("alice", "A", &random_matrix(8, 6), 4)
            .unwrap();
        svc.set_float_for("alice", "c", 2.0).unwrap();
        let q = "+/[ a*c | ((i,j),a) <- A ]";
        let r1 = svc.run("alice", q).unwrap();
        assert!(!r1.cache_hit);
        assert!(svc.run("alice", q).unwrap().cache_hit);
        // Same text, different scalar value: the plan bakes `c` in.
        svc.set_float_for("alice", "c", 3.0).unwrap();
        let r = svc.run("alice", q).unwrap();
        assert!(!r.cache_hit, "scalar rebind must miss the cache");
        assert_ne!(r.value, r1.value);
    }

    #[test]
    fn tenants_cannot_shadow_the_shared_catalog() {
        let svc = small_service();
        svc.register_shared_matrix("A", &random_matrix(6, 7), 3)
            .unwrap();
        svc.register_shared_int("n", 6);
        let m = random_matrix(6, 8);
        assert!(matches!(
            svc.register_matrix_for("alice", "A", &m, 3),
            Err(ServiceError::SharedNameConflict(_))
        ));
        assert!(matches!(
            svc.set_int_for("alice", "n", 9),
            Err(ServiceError::SharedNameConflict(_))
        ));
        // And the reverse: a shared registration cannot clobber an existing
        // tenant-private binding.
        svc.register_matrix_for("alice", "B", &m, 3).unwrap();
        assert!(matches!(
            svc.register_shared_matrix("B", &m, 3),
            Err(ServiceError::SharedNameConflict(_))
        ));
    }

    #[test]
    fn cancellation_frees_the_slot_and_the_tenants_memory() {
        let svc = QueryService::builder()
            .workers(2)
            .storage_memory(64 << 20)
            .slots(1)
            .chaos_off()
            .build();
        svc.register_shared_int("n", 24);
        svc.register_matrix_for("mallory", "M", &random_matrix(24, 9), 4)
            .unwrap();
        // A self-join forces auto-persist: mallory's job caches M's tiles
        // under mallory's tenant id.
        let heavy = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- M, ((kk,j),b) <- M, kk == k, \
                     let v = a*b, group by (i,j) ]";
        // Warm up so blocks exist, then cancel a fresh run mid-flight.
        svc.run("mallory", heavy).unwrap();
        let mallory_id = svc.tenant_id("mallory");
        let handle = svc.submit("mallory", heavy);
        handle.cancel();
        match handle.wait() {
            Err(ServiceError::Cancelled { tenant, .. }) => assert_eq!(tenant, "mallory"),
            other => panic!(
                "expected cancellation, got {other:?}",
                other = other.map(|r| r.kind)
            ),
        }
        // The tenant went idle: its attributed blocks were released...
        let status = svc.context().storage_status();
        assert!(
            !status
                .tenants
                .iter()
                .any(|t| t.tenant == mallory_id && t.memory_used > 0),
            "cancelled idle tenant must hold no storage: {:?}",
            status.tenants
        );
        // ...and the slot was freed: another tenant's job runs to completion.
        svc.register_shared_matrix("A", &random_matrix(8, 10), 4)
            .unwrap();
        let r = svc
            .run("alice", "tiled(8,8)[ ((i,j), a+1.0) | ((i,j),a) <- A ]")
            .unwrap();
        assert_eq!(r.kind, "matrix");
    }

    #[test]
    fn cancel_by_job_id_and_unknown_targets() {
        let svc = small_service();
        assert!(matches!(
            svc.cancel("ghost", 1),
            Err(ServiceError::UnknownTenant(_))
        ));
        svc.register_shared_int("n", 6);
        svc.register_shared_matrix("A", &random_matrix(6, 11), 3)
            .unwrap();
        svc.run("alice", "+/[ a | ((i,j),a) <- A ]").unwrap();
        assert!(matches!(
            svc.cancel("alice", 999),
            Err(ServiceError::UnknownJob { .. })
        ));
    }

    #[test]
    fn status_reports_tenants_cache_and_storage() {
        let svc = small_service();
        svc.register_shared_matrix("A", &random_matrix(8, 12), 4)
            .unwrap();
        svc.register_shared_int("n", 8);
        svc.set_tenant_quota("alice", 1 << 20);
        let q = "tiled(n,n)[ ((i,j), a) | ((i,j),a) <- A ]";
        svc.run("alice", q).unwrap();
        svc.run("alice", q).unwrap();
        let status = svc.status();
        assert_eq!(status.slots, 2);
        assert_eq!(status.plan_cache_hits, 1);
        assert_eq!(status.plan_cache_misses, 1);
        assert_eq!(status.plan_cache_entries, 1);
        let alice = status.tenants.iter().find(|t| t.tenant == "alice").unwrap();
        assert_eq!(alice.quota, Some(1 << 20));
        assert!(alice.running_jobs.is_empty());
        // The `STATUS` reply's bytes, as the hand-spliced writer emitted them.
        assert_eq!(
            status.to_json(),
            "{\"slots\":2,\"plan_cache\":{\"hits\":1,\"misses\":1,\"entries\":1},\
             \"storage\":{\"memory_used\":756,\"budget\":67108864},\"tenants\":[{\"tenant\":\
             \"alice\",\"id\":1,\"running\":[],\"memory_used\":0,\"quota\":1048576}]}"
        );
    }

    #[test]
    fn service_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryService>();
        assert_send_sync::<QueryReply>();
        assert_send_sync::<ServiceError>();
    }
}
