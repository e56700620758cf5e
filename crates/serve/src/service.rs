//! The persistent SpMM service.

use crate::cache::{CacheStats, PlanCache};
use crate::error::ServeError;
use crate::timeline::{dominant_class, SessionEvent, SessionPhase};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use twoface_core::{
    predict_latency, resolve_auto, run_algorithm_on, Algorithm, AsyncLayout, ExecutionReport,
    PreparedMatrix, Problem, RunError, RunOptions, TwoFaceConfig,
};
use twoface_matrix::{CooMatrix, DenseMatrix, Fingerprint};
use twoface_net::{
    Cluster, CostModel, FaultPlan, Histogram, MetricsRegistry, Observability, PhaseClass,
};
use twoface_partition::{ClassifierKind, ModelCoefficients, OneDimLayout, PartitionPlan};

/// Static configuration of an [`SpmmService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Rank count of the persistent cluster.
    pub p: usize,
    /// The machine model. The cluster is built once with the effective cost
    /// (thread split folded in per [`TwoFaceConfig::effective_cost`]).
    pub cost: CostModel,
    /// Table-2 runtime knobs applied to every run.
    pub exec: TwoFaceConfig,
    /// Stripe classifier for plan construction.
    pub classifier: ClassifierKind,
    /// Model-coefficient override for plan construction (`None` derives
    /// them from the effective cost, a perfectly calibrated regression).
    pub coefficients: Option<ModelCoefficients>,
    /// Maximum fused dense-column count per batched execution. Requests are
    /// fused while their combined `K` stays within this bound; a single
    /// request wider than the bound still runs (solo).
    pub max_k_per_batch: usize,
    /// Byte budget of the plan cache.
    pub cache_budget_bytes: usize,
    /// Transient-failure retries per algorithm attempt: a request may
    /// execute up to `1 + retry_budget` times before the scheduler gives up
    /// (or falls back). Each retry reseeds the fault plan — identical seeds
    /// would deterministically replay the identical failure.
    pub retry_budget: u32,
    /// Whether plan-based algorithms fall back to the dense allgather
    /// baseline (which uses no one-sided transfers) after exhausting their
    /// retry budget on `TransferTimeout`s.
    pub fallback: bool,
    /// Fault plan installed for every execution (`None` = perfect network).
    pub fault_plan: Option<FaultPlan>,
    /// Per-operation observability for the underlying runs.
    pub observability: Observability,
    /// Real worker threads for kernels and preprocessing (`None` resolves
    /// `TWOFACE_THREADS`, then host parallelism).
    pub workers: Option<usize>,
}

impl ServeConfig {
    /// A service over `p` ranks of `cost` with the defaults: Two-Face
    /// config and greedy classifier, 512-column batches, a 256 MiB plan
    /// cache, 2 retries, and fallback enabled.
    pub fn new(p: usize, cost: CostModel) -> ServeConfig {
        ServeConfig {
            p,
            cost,
            exec: TwoFaceConfig::default(),
            classifier: ClassifierKind::Greedy,
            coefficients: None,
            max_k_per_batch: 512,
            cache_budget_bytes: 256 << 20,
            retry_budget: 2,
            fallback: true,
            fault_plan: None,
            observability: Observability::off(),
            workers: None,
        }
    }
}

/// Opaque handle to a matrix registered with
/// [`SpmmService::register_matrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixHandle(u64);

impl MatrixHandle {
    /// The raw handle id.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// Id the service gives each panel it executes, in execution order;
/// responses carry it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

impl RequestId {
    /// The raw request id.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// One SpMM request: `C = A × B` for a registered `A`.
#[derive(Debug, Clone)]
pub struct SpmmRequest {
    /// Which registered matrix to multiply.
    pub matrix: MatrixHandle,
    /// The dense operand (`A.cols()` rows; its column count is the
    /// request's `K`).
    pub b: Arc<DenseMatrix>,
    /// The algorithm to schedule (plan caching applies to the Two-Face
    /// family; others run uncached but still batch).
    pub algorithm: Algorithm,
}

impl SpmmRequest {
    /// A Two-Face request.
    pub fn new(matrix: MatrixHandle, b: Arc<DenseMatrix>) -> SpmmRequest {
        SpmmRequest { matrix, b, algorithm: Algorithm::TwoFace }
    }
}

/// The outcome of one request.
#[derive(Debug, Clone)]
pub struct SpmmResponse {
    /// The panel this answers.
    pub request: RequestId,
    /// The output `C`, or why execution failed.
    pub output: Result<DenseMatrix, ServeError>,
    /// The algorithm that actually produced the output (differs from the
    /// requested one after a fallback).
    pub algorithm: Algorithm,
    /// Simulated seconds of the execution that served this request (shared
    /// by every request fused into the same batch).
    pub sim_seconds: f64,
    /// Host wall nanoseconds spent building preprocessing artifacts for
    /// this request's batch; zero on a plan-cache hit.
    pub prep_wall_nanos: u64,
    /// Plan-cache outcome: `Some(true)` hit, `Some(false)` miss, `None`
    /// for algorithms that use no plan.
    pub cache_hit: Option<bool>,
    /// How many requests shared the fused execution (1 = solo).
    pub batch_size: usize,
    /// Execution attempts made (1 on the happy path; more after retries
    /// and fallback).
    pub attempts: u32,
    /// Whether the scheduler fell back to the dense allgather baseline.
    pub fell_back: bool,
    /// The Figure-10 class the execution spent its critical path on: the
    /// dominant class of the critical rank's breakdown on success,
    /// [`PhaseClass::Recovery`] on failure.
    pub class: PhaseClass,
}

/// What a batch's responses report about its execution, whatever the
/// outcome.
#[derive(Default)]
struct Provenance {
    cache_hit: Option<bool>,
    prep_wall_nanos: u64,
    attempts: u32,
    fell_back: bool,
}

struct Registered {
    a: Arc<CooMatrix>,
    stripe_width: usize,
    fingerprint: u64,
}

/// A long-lived SpMM serving session.
///
/// Owns a persistent [`Cluster`] and a fingerprint-keyed [`PlanCache`] of
/// preprocessing artifacts, and executes batches: [`SpmmService::execute_batch`]
/// fuses panels of one `(matrix, algorithm, K)` key into one execution of up
/// to [`ServeConfig::max_k_per_batch`] columns, preprocessing is served from
/// the cache when the fingerprint matches, and failures are retried under
/// reseeded fault plans before optionally falling back to the dense
/// allgather baseline. The service holds no pending requests between
/// calls: deciding which requests share a batch is the caller's job (the
/// multi-tenant front-end's).
///
/// # Bit-identity contract
///
/// A batched execution produces each request's `C` bit-identically to a solo
/// run of the same request through the same service. Both paths use the same
/// cached [`PartitionPlan`] (classification fixes the floating-point
/// accumulation order), and fusing `B` panels only appends columns: SpMM
/// accumulates every output element along its row's nonzeros independently
/// of neighboring columns, so splitting the fused output recovers exactly
/// the solo bits.
pub struct SpmmService {
    config: ServeConfig,
    cluster: Cluster,
    matrices: Vec<Registered>,
    cache: PlanCache,
    metrics: MetricsRegistry,
    timeline: Vec<SessionEvent>,
    next_request: u64,
    next_seq: u64,
    sim_now: f64,
}

impl SpmmService {
    /// Creates a service: builds the persistent cluster and an empty plan
    /// cache.
    ///
    /// # Panics
    ///
    /// Panics if `config.p == 0`.
    pub fn new(config: ServeConfig) -> SpmmService {
        let cluster = Cluster::new(config.p, config.exec.effective_cost(&config.cost));
        let cache = PlanCache::new(config.cache_budget_bytes);
        SpmmService {
            cluster,
            cache,
            config,
            matrices: Vec::new(),
            metrics: MetricsRegistry::new(),
            timeline: Vec::new(),
            next_request: 0,
            next_seq: 0,
            sim_now: 0.0,
        }
    }

    /// Registers a sparse matrix for serving: validates the layout, takes a
    /// content fingerprint, and returns a handle for requests.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shape`] when `a` cannot be laid out over the service's
    /// `p` ranks with `stripe_width`.
    pub fn register_matrix(
        &mut self,
        a: Arc<CooMatrix>,
        stripe_width: usize,
    ) -> Result<MatrixHandle, ServeError> {
        let p = self.config.p;
        if stripe_width == 0 || p > a.rows().max(1) || p > a.cols().max(1) {
            return Err(ServeError::Shape {
                context: format!(
                    "cannot lay out a {}x{} matrix over {p} nodes with stripe width {stripe_width}",
                    a.rows(),
                    a.cols()
                ),
            });
        }
        let start = Instant::now();
        let fingerprint = a.fingerprint();
        let handle = MatrixHandle(self.matrices.len() as u64);
        let detail = format!(
            "matrix {} ({}x{}, {} nnz, stripe width {stripe_width})",
            handle.0,
            a.rows(),
            a.cols(),
            a.nnz()
        );
        self.matrices.push(Registered { a, stripe_width, fingerprint });
        self.metrics.inc("serve.matrices_registered", 1);
        self.record(
            SessionPhase::Register,
            PhaseClass::Other,
            Vec::new(),
            0.0,
            start.elapsed().as_nanos() as u64,
            detail,
        );
        Ok(handle)
    }

    /// Executes one request solo: a one-panel [`SpmmService::execute_batch`].
    ///
    /// # Errors
    ///
    /// Everything [`SpmmService::execute_batch`] rejects; execution failures
    /// are reported inside the returned response.
    pub fn run_one(&mut self, request: SpmmRequest) -> Result<SpmmResponse, ServeError> {
        let panels = std::slice::from_ref(&request.b);
        let mut responses = self.execute_batch(request.matrix, request.algorithm, panels)?;
        Ok(responses.pop().expect("one response per panel"))
    }

    /// Executes one fused batch: `C_i = A × B_i` for every panel `B_i`, with
    /// one response per panel, in panel order.
    ///
    /// The panels must share one width `K`, have `A.cols()` rows, and fit
    /// [`ServeConfig::max_k_per_batch`] together (a single panel wider than
    /// the budget still runs, solo). The service numbers the panels when it
    /// accepts the batch, fuses them column-wise into one dense operand, runs
    /// it once on the warm cluster (plan cache, retries, fallback), and
    /// splits the output back bit-identically to solo runs.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownMatrix`] for a foreign handle and
    /// [`ServeError::Shape`] for an empty batch, a `B` whose row count
    /// differs from `A`'s column count or that has no columns, mixed widths,
    /// or panels whose fused width exceeds the budget. Nothing executes on
    /// error; execution failures are reported inside the responses.
    pub fn execute_batch(
        &mut self,
        matrix: MatrixHandle,
        algorithm: Algorithm,
        panels: &[Arc<DenseMatrix>],
    ) -> Result<Vec<SpmmResponse>, ServeError> {
        let k = self.check_batch(matrix, panels)?;
        let first = self.next_request;
        self.next_request += panels.len() as u64;
        let ids: Vec<u64> = (first..self.next_request).collect();
        let mut run = Provenance::default();
        let outcome = self.execute_fused(matrix.0 as usize, algorithm, k, panels, &ids, &mut run);
        let count = panels.len() as u64;
        let (algorithm, sim_seconds, prep_wall_nanos, class) = match &outcome {
            Ok((report, ran)) => {
                self.metrics.inc("serve.requests_completed", count);
                let sim_ns = (report.seconds * 1e9).round() as u64;
                for _ in 0..count {
                    self.metrics.observe("serve.request_sim_ns", sim_ns);
                }
                let class = dominant_class(&report.critical_breakdown);
                (*ran, report.seconds, run.prep_wall_nanos, class)
            }
            Err(_) => {
                self.metrics.inc("serve.requests_failed", count);
                (algorithm, 0.0, 0, PhaseClass::Recovery)
            }
        };
        let responses = ids.iter().enumerate().map(|(at, &request)| SpmmResponse {
            request: RequestId(request),
            output: match &outcome {
                Ok((report, _)) => {
                    let c = report.output.as_ref().expect("service runs compute values");
                    Ok(split_columns(c, at * k, k))
                }
                Err(source) => {
                    Err(ServeError::Run { request, attempts: run.attempts, source: source.clone() })
                }
            },
            algorithm,
            sim_seconds,
            prep_wall_nanos,
            cache_hit: run.cache_hit,
            batch_size: panels.len(),
            attempts: run.attempts,
            fell_back: run.fell_back,
            class,
        });
        Ok(responses.collect())
    }

    /// Validates a batch before anything is numbered or run; returns the
    /// shared panel width `K`.
    fn check_batch(
        &self,
        matrix: MatrixHandle,
        panels: &[Arc<DenseMatrix>],
    ) -> Result<usize, ServeError> {
        let registered = self
            .matrices
            .get(matrix.0 as usize)
            .ok_or(ServeError::UnknownMatrix { handle: matrix.0 })?;
        let shape = |context: String| Err(ServeError::Shape { context });
        let Some(k) = panels.first().map(|b| b.cols()) else {
            return shape(format!("a batch on matrix {} needs at least one panel", matrix.0));
        };
        for b in panels {
            if b.rows() != registered.a.cols() || b.cols() == 0 {
                return shape(format!(
                    "matrix {} is {}x{} but B is {}x{}",
                    matrix.0,
                    registered.a.rows(),
                    registered.a.cols(),
                    b.rows(),
                    b.cols()
                ));
            }
            if b.cols() != k {
                return shape(format!("panels of width {k} and {} cannot fuse", b.cols()));
            }
        }
        let budget = self.config.max_k_per_batch;
        if panels.len() > 1 && k.saturating_mul(panels.len()) > budget {
            return shape(format!(
                "{} panels of width {k} exceed the {budget}-column batch budget",
                panels.len()
            ));
        }
        Ok(k)
    }

    /// The plan-cache key a request for `(matrix, algorithm, k)` would use
    /// on this service — exposed for diagnostics and tests. Two services
    /// agree on a key exactly when the matrix contents, layout parameters,
    /// execution options, and cost model all agree; worker counts are
    /// deliberately excluded (preprocessing is deterministic across
    /// workers, so the artifact is too).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownMatrix`] for a foreign handle.
    pub fn plan_cache_key(
        &self,
        matrix: MatrixHandle,
        algorithm: Algorithm,
        k: usize,
    ) -> Result<u64, ServeError> {
        let registered = self
            .matrices
            .get(matrix.0 as usize)
            .ok_or(ServeError::UnknownMatrix { handle: matrix.0 })?;
        Ok(self.cache_key(registered, algorithm, k))
    }

    /// The calibrated cost model's predicted execution time, in simulated
    /// seconds, for a solo `(matrix, algorithm, k)` request on this service
    /// — the quantity a deadline-aware scheduler compares against an SLO.
    /// `Algorithm::Auto` predicts its resolved winner. Deterministic: two
    /// services with equal configuration and matrices agree exactly.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownMatrix`] for a foreign handle.
    pub fn predicted_seconds(
        &self,
        matrix: MatrixHandle,
        algorithm: Algorithm,
        k: usize,
    ) -> Result<f64, ServeError> {
        let registered = self
            .matrices
            .get(matrix.0 as usize)
            .ok_or(ServeError::UnknownMatrix { handle: matrix.0 })?;
        let layout = OneDimLayout::new(
            registered.a.rows(),
            registered.a.cols(),
            self.config.p,
            registered.stripe_width,
        );
        let effective = self.config.exec.effective_cost(&self.config.cost);
        Ok(predict_latency(&registered.a, &layout, k, &self.config.exec, &effective, algorithm))
    }

    /// Whether the preprocessing artifact a `(matrix, algorithm, k)` request
    /// would use is resident in the plan cache right now. Always `false`
    /// for algorithms that use no plan.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownMatrix`] for a foreign handle.
    pub fn plan_resident(
        &self,
        matrix: MatrixHandle,
        algorithm: Algorithm,
        k: usize,
    ) -> Result<bool, ServeError> {
        let registered = self
            .matrices
            .get(matrix.0 as usize)
            .ok_or(ServeError::UnknownMatrix { handle: matrix.0 })?;
        if !self.resolve_algorithm(registered, algorithm, k).uses_plan() {
            return Ok(false);
        }
        Ok(self.cache.contains(self.cache_key(registered, algorithm, k)))
    }

    /// Shape and population of a registered matrix as
    /// `(rows, cols, nnz)` — what an admission layer needs to validate
    /// operands without holding the matrix itself. `None` for a foreign
    /// handle.
    pub fn matrix_shape(&self, matrix: MatrixHandle) -> Option<(usize, usize, usize)> {
        let registered = self.matrices.get(matrix.0 as usize)?;
        Some((registered.a.rows(), registered.a.cols(), registered.a.nnz()))
    }

    /// Every handle registered so far, in registration order.
    pub fn matrix_handles(&self) -> Vec<MatrixHandle> {
        (0..self.matrices.len() as u64).map(MatrixHandle).collect()
    }

    /// Resolves [`Algorithm::Auto`] against this matrix and the service's
    /// effective machine model — exactly the resolution the runner would
    /// perform, so the cache key and the plan flavor always describe the
    /// algorithm that actually executes. Concrete algorithms pass through.
    fn resolve_algorithm(
        &self,
        registered: &Registered,
        algorithm: Algorithm,
        k: usize,
    ) -> Algorithm {
        match algorithm {
            Algorithm::Auto => {
                let layout = OneDimLayout::new(
                    registered.a.rows(),
                    registered.a.cols(),
                    self.config.p,
                    registered.stripe_width,
                );
                let effective = self.config.exec.effective_cost(&self.config.cost);
                resolve_auto(&registered.a, &layout, k, &self.config.exec, &effective).algorithm
            }
            other => other,
        }
    }

    /// The content fingerprint of `(A, ExecOpts, cluster shape)` backing
    /// [`SpmmService::plan_cache_key`].
    fn cache_key(&self, registered: &Registered, algorithm: Algorithm, k: usize) -> u64 {
        let resolved = self.resolve_algorithm(registered, algorithm, k);
        let mut f = Fingerprint::new();
        f.mix_bytes(b"serve-key")
            .mix_u64(registered.fingerprint)
            .mix_usize(registered.stripe_width)
            .mix_usize(self.config.p)
            .mix_usize(k);
        // The resolved plan flavor — `Auto` requests key on whatever they
        // resolve to, so an Auto request and an explicit request for the
        // same winner share one artifact.
        f.mix_bytes(resolved.name().as_bytes());
        let e = &self.config.exec;
        f.mix_usize(e.async_comm_threads)
            .mix_usize(e.async_comp_threads)
            .mix_usize(e.sync_comp_threads)
            .mix_usize(e.row_panel_height)
            .mix_u64(match e.coalesce_distance_override {
                None => u64::MAX,
                Some(d) => d as u64,
            })
            .mix_u64(match e.async_layout {
                AsyncLayout::ColumnMajor => 0,
                AsyncLayout::RowMajor => 1,
            });
        match self.config.classifier {
            ClassifierKind::Greedy => {
                f.mix_u64(0);
            }
            ClassifierKind::FanoutAware { penalty } => {
                f.mix_u64(1).mix_f64(penalty);
            }
        }
        match self.config.coefficients {
            None => {
                f.mix_u64(0);
            }
            Some(c) => {
                f.mix_u64(1)
                    .mix_f64(c.beta_sync)
                    .mix_f64(c.alpha_sync)
                    .mix_f64(c.beta_async)
                    .mix_f64(c.alpha_async)
                    .mix_f64(c.gamma_async)
                    .mix_f64(c.kappa_async);
            }
        }
        let cost = serde_json::to_string(&self.config.cost).expect("cost model serializes");
        f.mix_bytes(cost.as_bytes());
        f.finish()
    }

    /// Fetches or builds the preprocessing artifact for a batch whose
    /// panels are as wide as `panel`. Returns
    /// `(artifact, cache_hit, build_wall_nanos)`.
    fn prepared_for(
        &mut self,
        matrix: usize,
        algorithm: Algorithm,
        panel: &Arc<DenseMatrix>,
        ids: &[u64],
    ) -> Result<(Arc<PreparedMatrix>, bool, u64), RunError> {
        let k = panel.cols();
        let registered = &self.matrices[matrix];
        let key = self.cache_key(registered, algorithm, k);
        if let Some(prepared) = self.cache.get(key) {
            self.metrics.inc("serve.cache.hits", 1);
            let sim = self.sim_now;
            self.record(
                SessionPhase::CacheHit,
                PhaseClass::Other,
                ids.to_vec(),
                sim,
                0,
                format!("key {key:016x}: preprocessing skipped"),
            );
            return Ok((prepared, true, 0));
        }
        self.metrics.inc("serve.cache.misses", 1);
        let registered = &self.matrices[matrix];
        let start = Instant::now();
        // The plan is keyed to the *per-request* K so solo and batched runs
        // share it; fusion only widens the dense operand at run time.
        let problem = Problem::new(
            Arc::clone(&registered.a),
            Arc::clone(panel),
            self.config.p,
            registered.stripe_width,
        )?;
        let mut options = self.base_options();
        if algorithm == Algorithm::AsyncFine {
            // Async Fine's "plan" is the uniform all-async classification.
            options.plan = Some(Arc::new(PartitionPlan::build_uniform(
                &registered.a,
                OneDimLayout::new(
                    registered.a.rows(),
                    registered.a.cols(),
                    self.config.p,
                    registered.stripe_width,
                ),
                k,
                twoface_partition::StripeClass::Async,
            )));
        }
        let prepared =
            PreparedMatrix::build(&problem, &self.config.cost, &options).map(Arc::new)?;
        let wall = start.elapsed().as_nanos() as u64;
        let evictions_before = self.cache.stats().evictions;
        self.cache.insert(key, Arc::clone(&prepared));
        let evicted = self.cache.stats().evictions - evictions_before;
        if evicted > 0 {
            self.metrics.inc("serve.cache.evictions", evicted);
        }
        self.metrics.observe("serve.prep_wall_ns", wall);
        let sim = self.sim_now;
        self.record(
            SessionPhase::Prepare,
            PhaseClass::Other,
            ids.to_vec(),
            sim,
            wall,
            format!(
                "key {key:016x}: built {} bytes of artifacts{}",
                prepared.approx_bytes(),
                if evicted > 0 { " (evicted LRU entries)" } else { "" }
            ),
        );
        Ok((prepared, false, wall))
    }

    fn base_options(&self) -> RunOptions {
        RunOptions {
            compute_values: true,
            validate: false,
            config: self.config.exec,
            coefficients: self.config.coefficients,
            classifier: self.config.classifier,
            plan: None,
            prepared: None,
            fault_plan: self.config.fault_plan.clone(),
            workers: self.config.workers,
            observability: self.config.observability.clone(),
            memory_budget: None,
        }
    }

    /// Runs one validated batch: plan cache, fuse, run with retries and
    /// fallback. Returns the report and the algorithm that produced it, or
    /// the last run error; `run` collects what the responses report
    /// whatever the outcome.
    fn execute_fused(
        &mut self,
        matrix: usize,
        requested: Algorithm,
        k: usize,
        panels: &[Arc<DenseMatrix>],
        ids: &[u64],
        run: &mut Provenance,
    ) -> Result<(ExecutionReport, Algorithm), RunError> {
        // Auto resolves once, up front: the resolved algorithm decides the
        // plan flavor and the cache key. The runner re-resolves to the same
        // choice (resolution is deterministic), keeping Auto provenance in
        // the report.
        let resolved = self.resolve_algorithm(&self.matrices[matrix], requested, k);
        let uses_plan = resolved.uses_plan();
        let mut options = self.base_options();
        if uses_plan {
            let (prepared, hit, wall) = self.prepared_for(matrix, resolved, &panels[0], ids)?;
            options.prepared = Some(prepared);
            run.cache_hit = Some(hit);
            run.prep_wall_nanos = wall;
        }

        let registered = &self.matrices[matrix];
        let problem = Problem::new(
            Arc::clone(&registered.a),
            fuse_panels(panels),
            self.config.p,
            registered.stripe_width,
        )?;

        let mut algorithm = requested;
        let report = loop {
            run.attempts += 1;
            let attempts = run.attempts;
            if attempts > 1 {
                // A deterministic plan would replay the identical faults;
                // each retry (and the fallback) derives a fresh seed.
                options.fault_plan =
                    self.config.fault_plan.as_ref().map(|p| p.reseeded(attempts as u64 - 1));
            }
            let attempt =
                run_algorithm_on(&self.cluster, algorithm, &problem, &self.config.cost, &options);
            match attempt {
                Ok(report) => break report,
                Err(e @ (RunError::TransferTimeout { .. } | RunError::RankStalled { .. })) => {
                    // The fallback algorithm earns its own fresh budget.
                    let allowed =
                        (1 + self.config.retry_budget) * if run.fell_back { 2 } else { 1 };
                    if attempts < allowed {
                        self.metrics.inc("serve.retries", 1);
                        let sim = self.sim_now;
                        self.record(
                            SessionPhase::Retry,
                            PhaseClass::Recovery,
                            ids.to_vec(),
                            sim,
                            0,
                            format!("attempt {attempts} failed ({e}); reseeding"),
                        );
                        continue;
                    }
                    let can_fall_back = self.config.fallback
                        && !run.fell_back
                        && uses_plan
                        && matches!(e, RunError::TransferTimeout { .. });
                    if can_fall_back {
                        run.fell_back = true;
                        algorithm = Algorithm::Allgather;
                        options.prepared = None;
                        self.metrics.inc("serve.fallbacks", 1);
                        let sim = self.sim_now;
                        self.record(
                            SessionPhase::Fallback,
                            PhaseClass::Recovery,
                            ids.to_vec(),
                            sim,
                            0,
                            format!(
                                "{} exhausted its retry budget ({e}); falling back to allgather",
                                requested.name()
                            ),
                        );
                        continue;
                    }
                    return Err(e);
                }
                // Non-transient failures (shape, memory) retry nowhere.
                Err(e) => return Err(e),
            }
        };

        let sim_start = self.sim_now;
        self.sim_now += report.seconds;
        self.record(
            SessionPhase::Execute,
            dominant_class(&report.critical_breakdown),
            ids.to_vec(),
            sim_start,
            0,
            format!(
                "{} x{} (fused K = {}){}",
                algorithm.name(),
                panels.len(),
                problem.k(),
                if run.fell_back { ", degraded" } else { "" }
            ),
        );
        if let Some(last) = self.timeline.last_mut() {
            last.sim_end_seconds = sim_start + report.seconds;
        }
        self.metrics.inc("serve.batches", 1);
        self.metrics.observe("serve.batch_requests", panels.len() as u64);
        self.metrics.observe("serve.batch_fused_k", problem.k() as u64);
        Ok((report, algorithm))
    }

    fn record(
        &mut self,
        phase: SessionPhase,
        class: PhaseClass,
        requests: Vec<u64>,
        sim_seconds: f64,
        wall_nanos: u64,
        detail: String,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.timeline.push(SessionEvent {
            seq,
            phase,
            class,
            requests,
            sim_start_seconds: sim_seconds,
            sim_end_seconds: sim_seconds,
            wall_nanos,
            detail,
        });
    }

    /// The session timeline so far.
    pub fn timeline(&self) -> &[SessionEvent] {
        &self.timeline
    }

    /// Counters and histograms of the session (cache hits/misses/evictions,
    /// batches, retries, fallbacks, request latencies).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Quantile sketch of per-request simulated service latency in
    /// nanoseconds — one sample per completed request, read back with
    /// [`Histogram::quantile`]. `None` before any request completes.
    pub fn latency_sketch(&self) -> Option<&Histogram> {
        self.metrics.histogram("serve.request_sim_ns")
    }

    /// The timeline's summary row: deterministic latency percentiles for
    /// the session so far. Everything derives from simulated time — never
    /// host wall time — so two replays of the same batch sequence digest
    /// identically.
    pub fn session_digest(&self) -> SessionDigest {
        let latency = self.latency_sketch();
        let q = |at: f64| latency.and_then(|h| h.quantile(at)).unwrap_or(0.0);
        SessionDigest {
            requests: latency.map_or(0, Histogram::count),
            latency_ns_p50: q(0.50),
            latency_ns_p95: q(0.95),
            latency_ns_p99: q(0.99),
        }
    }

    /// Plan-cache counters and occupancy.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cumulative simulated seconds executed by this session.
    pub fn sim_seconds(&self) -> f64 {
        self.sim_now
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The persistent cluster (e.g. to inspect its configuration).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Drops cached plans and resets the cluster, returning the session to
    /// a cold state (counters and the timeline are preserved; they describe
    /// history).
    pub fn reset_session(&mut self) {
        self.cache.clear();
        self.cluster.reset();
        let sim = self.sim_now;
        self.record(
            SessionPhase::Reset,
            PhaseClass::Other,
            Vec::new(),
            sim,
            0,
            "explicit session reset: plan cache dropped".into(),
        );
    }
}

/// The session's latency percentile digest (see
/// [`SpmmService::session_digest`]). Serializable for inclusion in bench
/// results and timeline exports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionDigest {
    /// Completed requests (the latency sample count).
    pub requests: u64,
    /// Median per-request simulated latency, in nanoseconds.
    pub latency_ns_p50: f64,
    /// 95th-percentile per-request simulated latency, in nanoseconds.
    pub latency_ns_p95: f64,
    /// 99th-percentile per-request simulated latency, in nanoseconds.
    pub latency_ns_p99: f64,
}

/// Fuses a batch's `B` panels into one row-major operand with `Σ K_i`
/// columns, panels left to right in batch order.
fn fuse_panels(panels: &[Arc<DenseMatrix>]) -> Arc<DenseMatrix> {
    if let [only] = panels {
        return Arc::clone(only);
    }
    let rows = panels[0].rows();
    let total_k: usize = panels.iter().map(|b| b.cols()).sum();
    let mut flat = Vec::with_capacity(rows * total_k);
    for row in 0..rows {
        for b in panels {
            flat.extend_from_slice(b.row(row));
        }
    }
    Arc::new(DenseMatrix::from_vec(rows, total_k, flat).expect("fused panels tile exactly"))
}

/// Extracts columns `[offset, offset + k)` of `c` as an owned matrix.
fn split_columns(c: &DenseMatrix, offset: usize, k: usize) -> DenseMatrix {
    let rows = c.rows();
    let mut flat = Vec::with_capacity(rows * k);
    for row in 0..rows {
        flat.extend_from_slice(&c.row(row)[offset..offset + k]);
    }
    DenseMatrix::from_vec(rows, k, flat).expect("column slice tiles exactly")
}
