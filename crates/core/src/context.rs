//! The SAC session: registered arrays + scalars + the compilation pipeline.

use comp::errors::CompError;
use comp::types::{infer, Type, TypeEnv};
use diablo::Translated;
use planner::{DistArray, ExecResult, MatMulStrategy, PlanConfig, PlanEnv, Planned};
use sparkline::{ChaosPlan, Context, ContextBuilder};
use tiled::{LocalMatrix, TiledMatrix, TiledVector};

/// Builder for [`Session`]: planner options, plus a
/// [`sparkline::ContextBuilder`] that the runtime setters forward to.
pub struct SessionBuilder {
    context: Option<Context>,
    runtime: ContextBuilder,
    config: PlanConfig,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            context: None,
            runtime: Context::builder(),
            config: PlanConfig::default(),
        }
    }
}

impl SessionBuilder {
    /// Attach the session to an *existing* runtime context instead of
    /// building a fresh one — how a multi-tenant query service hosts many
    /// sessions over one shared executor pool. When set, the runtime-level
    /// knobs on this builder (`workers`, `storage_memory`, `max_task_attempts`,
    /// `worker_processes`, chaos) are ignored: they belong to
    /// whoever built the shared context. Planner-level knobs (`partitions`,
    /// `matmul`, `broadcast_budget`) still apply per session.
    pub fn context(mut self, ctx: Context) -> Self {
        self.context = Some(ctx);
        self
    }

    /// Shuffle partition count.
    pub fn partitions(mut self, n: usize) -> Self {
        self.config.partitions = n.max(1);
        self
    }

    /// Contraction strategy (§5.3 reduceByKey vs §5.4 group-by-join). The
    /// default, [`MatMulStrategy::Auto`], picks the cheapest strategy per
    /// query from registered statistics at plan time, and that is the
    /// strategy that runs; pinning one takes it instead.
    pub fn matmul(mut self, s: MatMulStrategy) -> Self {
        self.config.matmul = s;
        self
    }

    /// Largest estimated operand size (bytes) the planner will ship
    /// as a broadcast table instead of shuffling.
    pub fn broadcast_budget(mut self, bytes: u64) -> Self {
        self.config.broadcast_budget = bytes;
        self
    }

    /// Executor threads of the underlying runtime.
    pub fn workers(mut self, n: usize) -> Self {
        self.runtime = self.runtime.workers(n);
        self
    }

    /// Storage-memory budget (bytes) of the runtime's block manager, the
    /// pool `persist()`-ed blocks live in. Unset = the `SPARKLINE_STORAGE_BUDGET`
    /// environment variable if present, otherwise unlimited.
    pub fn storage_memory(mut self, bytes: usize) -> Self {
        self.runtime = self.runtime.storage_memory(bytes);
        self
    }

    /// Attempts per task before the job fails.
    pub fn max_task_attempts(mut self, n: u32) -> Self {
        self.runtime = self.runtime.max_task_attempts(n);
        self
    }

    /// Shuffle data-plane worker processes of the runtime (0 = in-process).
    /// See [`sparkline::ContextBuilder::worker_processes`].
    pub fn worker_processes(mut self, n: usize) -> Self {
        self.runtime = self.runtime.worker_processes(n);
        self
    }

    /// Run the session under an explicit chaos schedule (beats the
    /// `SPARKLINE_CHAOS` environment variable).
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.runtime = self.runtime.chaos(plan);
        self
    }

    /// Disable fault injection even when `SPARKLINE_CHAOS` is set — for
    /// tests pinning exact fault-free counts.
    pub fn chaos_off(mut self) -> Self {
        self.runtime = self.runtime.chaos_off();
        self
    }

    pub fn build(self) -> Session {
        Session {
            ctx: self.context.unwrap_or_else(|| self.runtime.build()),
            env: PlanEnv::new(),
            config: self.config,
        }
    }
}

/// A SAC session: owns the runtime context, the registered arrays and
/// scalars, and the planner configuration.
pub struct Session {
    ctx: Context,
    env: PlanEnv,
    config: PlanConfig,
}

/// Result of [`Session::explain_analyze`]: the compile-time plan explanation
/// plus the measured runtime profile of one execution.
pub struct ExplainAnalysis {
    /// The planner's one-line explanation ([`Planned::explain`]).
    pub plan: String,
    /// Per-job, per-stage measured statistics from the event trace.
    pub profile: sparkline::JobProfile,
}

impl std::fmt::Display for ExplainAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "plan: {}", self.plan)?;
        write!(f, "{}", self.profile.render())
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::builder().build()
    }
}

impl Session {
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    pub fn new() -> Session {
        Session::default()
    }

    /// The underlying runtime context (for metrics, parallelize, ...).
    pub fn spark(&self) -> &Context {
        &self.ctx
    }

    /// The session's binding environment (arrays, scalars, persist overlays).
    pub fn env(&self) -> &PlanEnv {
        &self.env
    }

    /// Mutable binding environment — how a query service installs shared
    /// read-only datasets into a tenant session.
    pub fn env_mut(&mut self) -> &mut PlanEnv {
        &mut self.env
    }

    /// Planner configuration (mutable: switch matmul strategy, partitions).
    pub fn config_mut(&mut self) -> &mut PlanConfig {
        &mut self.config
    }

    pub fn config(&self) -> &PlanConfig {
        &self.config
    }

    /// Register a tiled matrix under a name.
    pub fn register_matrix(&mut self, name: impl Into<String>, m: TiledMatrix) {
        self.env.set_array(name, DistArray::Matrix(m));
    }

    /// Tile and register a local matrix.
    ///
    /// The tiles are grid-partitioned (MLlib's `GridPartitioner` layout) and
    /// materialized eagerly, so identically-shaped matrices registered this
    /// way are co-partitioned: element-wise plans over them cogroup narrowly,
    /// without any shuffle at query time.
    pub fn register_local_matrix(
        &mut self,
        name: impl Into<String>,
        m: &LocalMatrix,
        tile_size: usize,
    ) {
        let partitions = self.ingest_partitions();
        let tiled = TiledMatrix::from_local(&self.ctx, m, tile_size, partitions)
            .partition_by_grid(partitions);
        // Run the ingest shuffle now, outside any traced query window.
        tiled.tiles().count();
        self.register_matrix(name, tiled);
    }

    /// Partition count used when materializing registered arrays:
    /// the configured count, or one partition per worker when the config
    /// leaves it on automatic (0).
    fn ingest_partitions(&self) -> usize {
        if self.config.partitions == 0 {
            self.ctx.workers().max(1)
        } else {
            self.config.partitions
        }
    }

    /// Register a tiled vector.
    pub fn register_vector(&mut self, name: impl Into<String>, v: TiledVector) {
        self.env.set_array(name, DistArray::Vector(v));
    }

    /// Bind an integer scalar (matrix dimensions etc.).
    pub fn set_int(&mut self, name: impl Into<String>, v: i64) {
        self.env.set_scalar(name, comp::Value::Int(v));
    }

    /// Bind a float scalar (learning rate etc.).
    pub fn set_float(&mut self, name: impl Into<String>, v: f64) {
        self.env.set_scalar(name, comp::Value::Float(v));
    }

    /// Fetch a registered matrix.
    pub fn matrix_named(&self, name: &str) -> Option<TiledMatrix> {
        self.env.array(name)?.as_matrix().cloned()
    }

    /// Explicitly persist the registered array `name` through the runtime's
    /// block manager (Spark's `cache()`): every later plan referencing the
    /// name reads cached blocks, recomputing from lineage only after an
    /// eviction. Returns false when the name is unbound.
    pub fn persist(&mut self, name: &str) -> bool {
        self.env.persist_array(name)
    }

    /// Drop `name`'s persisted blocks (explicit and auto-persist); returns
    /// the number of blocks removed from the block manager.
    pub fn unpersist(&mut self, name: &str) -> usize {
        self.env.unpersist_array(name)
    }

    /// Block-manager occupancy and activity counters (budget, bytes in
    /// memory, blocks in memory, evictions).
    pub fn storage_status(&self) -> sparkline::StorageStatus {
        self.ctx.storage_status()
    }

    /// Type-check a comprehension against the registered bindings,
    /// returning its abstract type (the paper's use of the host
    /// typechecker to pick sparsifiers, §2).
    pub fn typecheck(&self, src: &str) -> Result<Type, CompError> {
        let expr = comp::parse_expr(src)?;
        let mut tenv = TypeEnv::new();
        for name in expr.free_vars() {
            if let Some(a) = self.env.array(&name) {
                let t = match a {
                    DistArray::Matrix(_) => Type::matrix(),
                    DistArray::Vector(_) => Type::vector(),
                };
                tenv.insert(name.clone(), t);
            } else if let Some(v) = self.env.scalar(&name) {
                let t = match v {
                    comp::Value::Int(_) => Type::Int,
                    comp::Value::Float(_) => Type::Float,
                    comp::Value::Bool(_) => Type::Bool,
                    comp::Value::Str(_) => Type::Str,
                    _ => Type::Unknown,
                };
                tenv.insert(name.clone(), t);
            }
        }
        // `tiled(...)` builders see abstract matrices; the checker treats
        // registered arrays as their association-list types.
        infer(&expr, &tenv)
    }

    /// Compile a comprehension to a plan without executing it.
    pub fn compile(&self, src: &str) -> Result<Planned, CompError> {
        let expr = comp::parse_expr(src)?;
        planner::plan::plan(&expr, &self.env, &self.config)
    }

    /// Explain the plan a comprehension would run as.
    pub fn explain(&self, src: &str) -> Result<String, CompError> {
        Ok(self.compile(src)?.explain())
    }

    /// Compile, execute, and profile a comprehension: the plan explanation
    /// annotated with measured per-stage statistics (task counts, wall time,
    /// max/median task time, shuffle bytes read and written) from the event
    /// trace of this exact run. A job of the run that fails is the error.
    ///
    /// Tracing is enabled only for the duration of the call; any trace the
    /// caller had running is restarted empty afterwards.
    pub fn explain_analyze(&self, src: &str) -> Result<ExplainAnalysis, CompError> {
        let planned = self.compile(src)?;
        let was_tracing = self.ctx.is_tracing();
        self.ctx.trace();
        // Tiled results are lazy; run their stages inside the window.
        let result = planner::exec::execute(&planned, &self.env, &self.ctx, &self.config)
            .and_then(|r| r.force().map(|_| ()));
        let profile = self.ctx.take_profile();
        if !was_tracing {
            self.ctx.stop_trace();
        }
        result?;
        Ok(ExplainAnalysis {
            plan: planned.explain(),
            profile,
        })
    }

    /// Execute an already-compiled plan against the session's bindings, so
    /// one [`Planned`] from [`Session::compile`] can run many times.
    pub fn run_planned(&self, planned: &Planned) -> Result<ExecResult, CompError> {
        planner::exec::execute(planned, &self.env, &self.ctx, &self.config)
    }

    /// Compile and execute a comprehension.
    pub fn run(&self, src: &str) -> Result<ExecResult, CompError> {
        let expr = comp::parse_expr(src)?;
        planner::run(&expr, &self.env, &self.ctx, &self.config)
    }

    /// Compile and execute an already-parsed expression (for front-ends
    /// such as the DIABLO loop translator that build ASTs directly).
    pub fn run_expr(&self, expr: &comp::Expr) -> Result<ExecResult, CompError> {
        planner::run(expr, &self.env, &self.ctx, &self.config)
    }

    /// Plan an already-parsed expression without executing it.
    pub fn compile_expr(&self, expr: &comp::Expr) -> Result<Planned, CompError> {
        planner::plan::plan(expr, &self.env, &self.config)
    }

    /// Compile and execute against an explicit environment instead of the
    /// session's registered bindings (used by the typed `linalg` wrappers so
    /// their scratch names never clobber user registrations).
    pub fn run_in_env(&self, src: &str, env: &PlanEnv) -> Result<ExecResult, CompError> {
        let expr = comp::parse_expr(src)?;
        planner::run(&expr, env, &self.ctx, &self.config)
    }

    /// Run a translated loop program (`diablo::translate`) as one unit
    /// against an explicit environment: the statements plan in program
    /// order, a later one reading an earlier one's output by name; an output
    /// two later statements read is persisted, so it is evaluated once, and
    /// a group-by-join product read by one element-wise statement alone
    /// runs with it as one cover that stores only the reader's result.
    /// Returns every statement's output in program order — the
    /// statement-at-a-time results, bit for bit. See [`planner::program`].
    pub fn run_program(
        &self,
        program: &Translated,
        env: &PlanEnv,
    ) -> Result<Vec<(String, ExecResult)>, CompError> {
        planner::program::run(&program.outputs, env, &self.ctx, &self.config)
    }

    /// Run a comprehension that produces a tiled matrix.
    pub fn matrix(&self, src: &str) -> Result<TiledMatrix, CompError> {
        self.run(src)?.into_matrix()
    }

    /// Run a comprehension that produces a tiled vector.
    pub fn vector(&self, src: &str) -> Result<TiledVector, CompError> {
        self.run(src)?.into_vector()
    }

    /// Run a comprehension that produces a driver-side value (total
    /// aggregations, SQL-style queries).
    pub fn value(&self, src: &str) -> Result<comp::Value, CompError> {
        self.run(src)?.into_local()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn session_with(names: &[(&str, usize, usize, u64)]) -> (Session, Vec<LocalMatrix>) {
        register(Session::builder().workers(4).partitions(4).build(), names)
    }

    /// For tests pinning exact cache/block counts, which any injected
    /// executor kill or deliberately tiny env storage budget would
    /// legitimately change: chaos off, ample pinned budget (builder beats
    /// the SPARKLINE_CHAOS / SPARKLINE_STORAGE_BUDGET env knobs).
    fn chaos_off_session_with(names: &[(&str, usize, usize, u64)]) -> (Session, Vec<LocalMatrix>) {
        register(
            Session::builder()
                .workers(4)
                .partitions(4)
                .storage_memory(64 << 20)
                .chaos_off()
                .build(),
            names,
        )
    }

    fn register(
        mut s: Session,
        names: &[(&str, usize, usize, u64)],
    ) -> (Session, Vec<LocalMatrix>) {
        let mut locals = Vec::new();
        for (name, r, c, seed) in names {
            let mut rng = StdRng::seed_from_u64(*seed);
            let m = LocalMatrix::random(*r, *c, -1.0, 1.0, &mut rng);
            s.register_local_matrix(*name, &m, 4);
            locals.push(m);
        }
        (s, locals)
    }

    #[test]
    fn run_matrix_addition() {
        let (mut s, ms) = session_with(&[("A", 6, 6, 1), ("B", 6, 6, 2)]);
        s.set_int("n", 6);
        let got = s
            .matrix(
                "tiled(n,n)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, \
                 ii == i, jj == j ]",
            )
            .unwrap()
            .to_local();
        assert!(got.approx_eq(&ms[0].add(&ms[1]), 1e-12));
    }

    /// A data-dependent evaluation error is the `Err` of `explain_analyze`,
    /// after one attempt of the failing task at the default limit of 4, for
    /// a generic group-by and a non-separable index map alike.
    #[test]
    fn explain_analyze_returns_a_failed_jobs_error_after_one_attempt() {
        let (mut s, _) = chaos_off_session_with(&[("A", 8, 8, 10)]);
        s.set_int("n", 8);
        for src in [
            "tiled(n,n)[ ((ii,jj), +/w) | ((i,j),a) <- A, ii <- (i-1) to (i+1), \
             jj <- (j-1) to (j+1), let w = 1 / (i - i), group by (ii,jj) ]",
            "tiled(n,n)[ ((i / (j - j), j), v) | ((i,j),v) <- A ]",
        ] {
            let err = s.explain_analyze(src).err().expect("every element fails");
            assert_eq!(err.phase, comp::errors::Phase::Job);
            assert!(
                err.message.contains("failed after 1 attempt(s)")
                    && err.message.ends_with("integer division by zero"),
                "{err}"
            );
        }
    }

    #[test]
    fn explain_reports_plan() {
        let (mut s, _) = session_with(&[("A", 6, 6, 3), ("B", 6, 6, 4)]);
        s.set_int("n", 6);
        let e = s
            .explain(
                "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, \
                 let v = a*b, group by (i,j) ]",
            )
            .unwrap();
        assert!(e.contains("contraction"), "{e}");
    }

    #[test]
    fn typecheck_accepts_and_rejects() {
        let (mut s, _) = session_with(&[("A", 4, 4, 5)]);
        s.set_int("n", 4);
        assert_eq!(
            s.typecheck("tiled(n,n)[ ((i,j), a) | ((i,j),a) <- A ]")
                .unwrap(),
            Type::matrix()
        );
        assert!(s.typecheck("[ x | x <- n ]").is_err());
        assert!(s.typecheck("[ x | x <- Unknown ]").is_err());
    }

    #[test]
    fn value_runs_total_aggregation() {
        let (mut s, ms) = session_with(&[("A", 4, 4, 6)]);
        s.set_int("n", 4);
        let total = s.value("+/[ a | ((i,j),a) <- A ]").unwrap();
        let expected: f64 = ms[0].data().iter().sum();
        match total {
            comp::Value::Float(x) => assert!((x - expected).abs() < 1e-9),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn matmul_strategy_is_configurable() {
        let (mut s, ms) = session_with(&[("A", 8, 8, 7), ("B", 8, 8, 8)]);
        s.set_int("n", 8);
        let src = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, \
                    let v = a*b, group by (i,j) ]";
        let expected = ms[0].multiply(&ms[1]);
        s.config_mut().matmul = MatMulStrategy::ReduceByKey;
        assert!(s.explain(src).unwrap().contains("reduceByKey"));
        assert!(s.matrix(src).unwrap().to_local().max_abs_diff(&expected) < 1e-9);
        s.config_mut().matmul = MatMulStrategy::GroupByJoin;
        assert!(s.explain(src).unwrap().contains("groupByJoin"));
        assert!(s.matrix(src).unwrap().to_local().max_abs_diff(&expected) < 1e-9);
    }

    #[test]
    fn shared_matmul_input_is_persisted_once() {
        let (mut s, ms) = chaos_off_session_with(&[("A", 8, 8, 10)]);
        s.set_int("n", 8);
        let src = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- A, kk == k, \
                    let v = a*b, group by (i,j) ]";
        let expected = ms[0].multiply(&ms[0]);
        assert!(s.matrix(src).unwrap().to_local().max_abs_diff(&expected) < 1e-9);
        // A is referenced twice -> its tiles were auto-persisted.
        assert!(s.storage_status().blocks_in_memory > 0);
        assert!(s.unpersist("A") > 0);
        assert_eq!(s.storage_status().blocks_in_memory, 0);
        // Same result uncached: a zero storage budget stores nothing.
        let (mut uncached, _) = register(
            Session::builder().storage_memory(0).chaos_off().build(),
            &[("A", 8, 8, 10)],
        );
        uncached.set_int("n", 8);
        let got = uncached.matrix(src).unwrap().to_local();
        assert!(got.max_abs_diff(&expected) < 1e-9);
        assert_eq!(uncached.storage_status().blocks_in_memory, 0);
    }

    #[test]
    fn explicit_persist_and_unpersist() {
        let (mut s, ms) = chaos_off_session_with(&[("A", 6, 6, 11)]);
        s.set_int("n", 6);
        assert!(s.persist("A"));
        assert!(!s.persist("missing"));
        let src = "tiled(n,n)[ ((i,j), a*2.0) | ((i,j),a) <- A ]";
        let expected = ms[0].scale(2.0);
        assert!(s
            .matrix(src)
            .unwrap()
            .to_local()
            .approx_eq(&expected, 1e-12));
        assert!(s.storage_status().blocks_in_memory > 0);
        assert!(s.unpersist("A") > 0);
        assert_eq!(s.unpersist("missing"), 0);
        assert!(s
            .matrix(src)
            .unwrap()
            .to_local()
            .approx_eq(&expected, 1e-12));
    }

    #[test]
    fn storage_budget_flows_to_runtime() {
        let s = Session::builder().workers(2).storage_memory(4096).build();
        assert_eq!(s.storage_status().budget, Some(4096));
    }

    /// Send/Sync audit: the query service drives one session per tenant
    /// from server threads over a shared runtime, so `Session`, `Context`,
    /// and compiled plans must all cross (and be shared across) threads.
    #[test]
    fn sessions_and_plans_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<Context>();
        assert_send_sync::<PlanEnv>();
        assert_send_sync::<PlanConfig>();
        assert_send_sync::<Planned>();
        assert_send_sync::<ExecResult>();
    }

    #[test]
    fn sessions_share_an_attached_runtime_context() {
        let ctx = Context::builder()
            .workers(2)
            .storage_memory(1 << 20)
            .chaos_off()
            .build();
        let mk = |seed: u64| {
            let mut s = Session::builder()
                .context(ctx.clone())
                .partitions(2)
                .build();
            let mut rng = StdRng::seed_from_u64(seed);
            let m = LocalMatrix::random(4, 4, -1.0, 1.0, &mut rng);
            s.register_local_matrix("A", &m, 2);
            s.set_int("n", 4);
            (s, m)
        };
        let (s1, m1) = mk(21);
        let (s2, m2) = mk(22);
        // Both sessions run on the same executor pool but keep private
        // bindings: each sees its own "A".
        let src = "tiled(n,n)[ ((i,j), a*2.0) | ((i,j),a) <- A ]";
        std::thread::scope(|scope| {
            let h1 = scope.spawn(|| s1.matrix(src).unwrap().to_local());
            let h2 = scope.spawn(|| s2.matrix(src).unwrap().to_local());
            assert!(h1.join().unwrap().approx_eq(&m1.scale(2.0), 1e-12));
            assert!(h2.join().unwrap().approx_eq(&m2.scale(2.0), 1e-12));
        });
        assert_eq!(s1.storage_status().budget, Some(1 << 20));
        assert_eq!(s1.spark().workers(), s2.spark().workers());
    }

    #[test]
    fn run_planned_reuses_a_compiled_plan() {
        let (mut s, ms) = chaos_off_session_with(&[("A", 6, 6, 31)]);
        s.set_int("n", 6);
        let planned = s
            .compile("tiled(n,n)[ ((i,j), a+a) | ((i,j),a) <- A ]")
            .unwrap();
        let expected = ms[0].scale(2.0);
        for _ in 0..2 {
            let got = s.run_planned(&planned).unwrap().into_matrix().unwrap();
            assert!(got.to_local().approx_eq(&expected, 1e-12));
        }
    }

    #[test]
    fn matrix_named_roundtrip() {
        let (s, ms) = session_with(&[("A", 5, 5, 9)]);
        assert!(s
            .matrix_named("A")
            .unwrap()
            .to_local()
            .approx_eq(&ms[0], 1e-12));
        assert!(s.matrix_named("missing").is_none());
    }
}
