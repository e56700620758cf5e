//! `serve_mixed`: a warm multi-tenant serving session. Three tenants keep
//! six requests each outstanding against an inline `Frontend` over one
//! `SpmmService`, driven by `poll` so batch formation and every close
//! reason run. Preprocessing is paid in set-up (the plan cache is warm), so
//! execution and batching dominate; the `coll` tenant's `Auto` requests
//! add the net layer's collectives beside Two-Face's one-sided gets.
//!
//! The loop is closed: a tenant submits its next request only after one of
//! its outstanding ones completes, like a GNN training or inference loop
//! that waits for each product. Front-end decisions depend only on
//! submission order and the simulated clock.

use crate::check::{b_value, mix, request_b, row_offsets, rows_match, sample_rows};
use crate::ledger::Ledger;
use crate::metrics::Results;
use crate::stats::{highest_tail, median, percentile};
use crate::{peak_rss_mb, secs, Ctx};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;
use twoface_core::{resolve_auto, Algorithm, TwoFaceConfig};
use twoface_frontend::{
    CloseReason, Frontend, FrontendConfig, FrontendRequest, FrontendResponse, TenantId, TenantQuota,
};
use twoface_matrix::gen::{rmat, webcrawl, RmatConfig, WebcrawlConfig};
use twoface_matrix::CooMatrix;
use twoface_net::CostModel;
use twoface_partition::OneDimLayout;
use twoface_serve::{MatrixHandle, ServeConfig, SpmmRequest, SpmmService};

const P: usize = 16;
const MAX_K_PER_BATCH: usize = 128;
const STRIPE_WIDTH: usize = 512;
/// Requests each tenant keeps outstanding.
const OUTSTANDING: usize = 6;
/// The first round — the initial fill, six requests per tenant — is checked
/// bitwise against solo runs.
const FIRST_ROUND: u64 = (3 * OUTSTANDING) as u64;
/// Rows of each response checked against the serial reference.
const SAMPLED_ROWS: usize = 8;
/// The inference SLO, as a multiple of the cost model's solo prediction.
const SLO_FACTOR: f64 = 28.0;
const SETUP_REPS: usize = 3;
/// Request indices of the plan-cache warm-up, far from the served ones.
const WARM_BASE: u64 = 1 << 40;

/// One tenant's traffic: which matrix, `K` and algorithm request `idx`
/// uses, and whether it carries the SLO.
struct Tenant {
    name: &'static str,
    k: usize,
    algorithm: Algorithm,
    slo: bool,
}

const TENANTS: [Tenant; 3] = [
    Tenant { name: "train", k: 32, algorithm: Algorithm::TwoFace, slo: false },
    Tenant { name: "infer", k: 8, algorithm: Algorithm::TwoFace, slo: true },
    Tenant { name: "coll", k: 16, algorithm: Algorithm::Auto, slo: false },
];

/// Matrix of tenant `t`'s request `idx`: training on the web crawl,
/// collective-friendly `Auto` on R-MAT, inference alternating.
fn matrix_of(t: usize, idx: u64) -> usize {
    match t {
        0 => 0,
        1 => (idx % 2) as usize,
        _ => 1,
    }
}

fn service_config() -> ServeConfig {
    let mut config = ServeConfig::new(P, CostModel::delta());
    config.max_k_per_batch = MAX_K_PER_BATCH;
    config
}

fn frontend_config() -> FrontendConfig {
    FrontendConfig {
        max_queue_depth: 64,
        max_group_age_polls: Some(4),
        ..FrontendConfig::default()
    }
}

fn matrices(seed: u64) -> [Arc<CooMatrix>; 2] {
    [
        Arc::new(webcrawl(
            &WebcrawlConfig { n: 1 << 16, per_row: 16, ..WebcrawlConfig::default() },
            seed,
        )),
        Arc::new(rmat(
            &RmatConfig { scale: 16, edge_factor: 16, ..RmatConfig::default() },
            mix(seed),
        )),
    ]
}

fn register(
    service: &mut SpmmService,
    mats: &[Arc<CooMatrix>; 2],
) -> Result<[MatrixHandle; 2], String> {
    let mut handles = Vec::new();
    for a in mats {
        handles
            .push(service.register_matrix(Arc::clone(a), STRIPE_WIDTH).map_err(|e| e.to_string())?);
    }
    Ok([handles[0], handles[1]])
}

/// A warm session ready to serve.
struct Session {
    frontend: Frontend,
    tenants: [TenantId; 3],
    handles: [MatrixHandle; 2],
    mats: [Arc<CooMatrix>; 2],
    slo: f64,
}

/// Set-up: generate both matrices, register them, warm the plan cache with
/// one request of every served shape, and open the front-end.
fn setup(seed: u64, ledger: &mut Ledger, rep: u64) -> Result<Session, String> {
    let root = ledger.open("setup", None, rep);
    let mats = ledger.time("matrix.gen", Some(root), rep, || matrices(seed));
    let mut service = SpmmService::new(service_config());
    let handles = register(&mut service, &mats)?;
    ledger.time("serve.warm", Some(root), rep, || -> Result<(), String> {
        let shapes = [
            (0, 32, Algorithm::TwoFace),
            (0, 8, Algorithm::TwoFace),
            (1, 8, Algorithm::TwoFace),
            (1, 16, Algorithm::Auto),
        ];
        for (i, (m, k, algorithm)) in shapes.into_iter().enumerate() {
            let b = Arc::new(request_b(seed, WARM_BASE + i as u64, mats[m].cols(), k));
            let request = SpmmRequest { algorithm, ..SpmmRequest::new(handles[m], b) };
            service
                .run_one(request)
                .and_then(|r| r.output.map(|_| ()))
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(())
    })?;
    let slo = SLO_FACTOR
        * service
            .predicted_seconds(handles[1], Algorithm::TwoFace, 8)
            .map_err(|e| e.to_string())?;
    let mut frontend = Frontend::new(service, frontend_config());
    let mut tenants = Vec::new();
    for (t, spec) in TENANTS.iter().enumerate() {
        let quota = if t == 1 { TenantQuota::default() } else { TenantQuota::unlimited() };
        tenants.push(frontend.register_tenant(spec.name, quota).map_err(|e| e.to_string())?);
    }
    ledger.close(root);
    Ok(Session { frontend, tenants: [tenants[0], tenants[1], tenants[2]], handles, mats, slo })
}

struct Pending {
    idx: u64,
    tenant: usize,
    submitted: Instant,
}

/// What the loop keeps from one response for the post-window checks.
struct Sample {
    idx: u64,
    matrix: usize,
    k: usize,
    rows: Vec<usize>,
    got: Vec<Vec<f64>>,
}

/// The closed loop's state across windows.
struct ClosedLoop {
    session: Session,
    seed: u64,
    next_idx: u64,
    in_flight: [usize; 3],
    pending: HashMap<u64, Pending>,
    samples: Vec<Sample>,
    first_round: Vec<(u64, usize, Vec<u64>)>,
    iterations: u64,
}

/// Per-window measurements.
#[derive(Default)]
struct Window {
    latencies: Vec<f64>,
    seconds: f64,
    polls: u64,
    plain_iter_s: Vec<f64>,
    traced_iter_s: Vec<f64>,
    /// Wall seconds of each poll that executed at least one batch.
    useful_poll_s: Vec<f64>,
    responses: Vec<Served>,
}

/// The scheduling facts of one response (its output is checked and
/// dropped as it arrives).
struct Served {
    close_reason: CloseReason,
    exec_sim_seconds: f64,
    queue_wait_sim_seconds: f64,
    deadline_met: Option<bool>,
    cache_hit: Option<bool>,
}

impl Served {
    fn of(resp: &FrontendResponse) -> Served {
        Served {
            close_reason: resp.close_reason,
            exec_sim_seconds: resp.exec_sim_seconds,
            queue_wait_sim_seconds: resp.completion_sim_seconds
                - resp.exec_sim_seconds
                - resp.arrival_sim_seconds,
            deadline_met: resp.deadline_met(),
            cache_hit: resp.cache_hit,
        }
    }
}

impl ClosedLoop {
    /// Refills every tenant's outstanding requests, then polls once.
    fn iterate(&mut self, r: &mut Results, ledger: &mut Ledger, w: &mut Window) {
        let it = self.iterations;
        self.iterations += 1;
        let iter = ledger.open("iter", None, it);
        for (t, spec) in TENANTS.iter().enumerate() {
            while self.in_flight[t] < OUTSTANDING {
                let idx = self.next_idx;
                self.next_idx += 1;
                let m = matrix_of(t, idx);
                let cols = self.session.mats[m].cols();
                let b = ledger.time("core.runner.b_gen", Some(iter), it, || {
                    request_b(self.seed, idx, cols, spec.k)
                });
                let mut request = FrontendRequest::new(self.session.handles[m], Arc::new(b))
                    .with_algorithm(spec.algorithm);
                if spec.slo {
                    request = request.with_slo(self.session.slo);
                }
                let submitted = Instant::now();
                let sub = ledger.open("frontend.submit", Some(iter), it);
                let admitted = self.session.frontend.submit(self.session.tenants[t], request);
                ledger.close(sub);
                match admitted {
                    Ok(job) => {
                        self.pending.insert(job.id(), Pending { idx, tenant: t, submitted });
                        self.in_flight[t] += 1;
                    }
                    Err(e) => {
                        // A refusal counts as a failed request; the tenant
                        // retries on the next iteration.
                        eprintln!("request {idx} refused: {e}");
                        r.tally.record(false);
                        break;
                    }
                }
            }
        }
        let poll = ledger.open("frontend.poll", Some(iter), it);
        let polled = Instant::now();
        let responses = self.session.frontend.poll();
        let now = Instant::now();
        ledger.close(poll);
        ledger.close(iter);
        w.polls += 1;
        if !responses.is_empty() {
            w.useful_poll_s.push(now.duration_since(polled).as_secs_f64());
        }
        for resp in responses {
            if let Some(latency) = self.complete(r, &resp, now) {
                w.latencies.push(latency);
            }
            w.responses.push(Served::of(&resp));
        }
    }

    /// Books one response: frees its slot, records the first check.
    fn complete(&mut self, r: &mut Results, resp: &FrontendResponse, now: Instant) -> Option<f64> {
        let p = self.pending.remove(&resp.job.id())?;
        self.in_flight[p.tenant] -= 1;
        match &resp.output {
            Ok(c) => {
                r.tally.record(true);
                let m = matrix_of(p.tenant, p.idx);
                let rows = sample_rows(self.seed, p.idx, c.rows(), SAMPLED_ROWS);
                let got = rows.iter().map(|&row| c.row(row).to_vec()).collect();
                self.samples.push(Sample { idx: p.idx, matrix: m, k: c.cols(), rows, got });
                if p.idx < FIRST_ROUND {
                    self.first_round.push((p.idx, p.tenant, digest(c.as_slice())));
                }
            }
            Err(e) => {
                eprintln!("request {} failed: {e}", p.idx);
                r.tally.record(false);
            }
        }
        Some(now.duration_since(p.submitted).as_secs_f64())
    }

    /// The measured window. The traced run records spans on a seeded coin
    /// flip per loop iteration, so the two kinds' medians give the tracing
    /// overhead. (Alternating by parity would not do: the closed loop's
    /// batch pattern repeats with period two.)
    fn window(&mut self, r: &mut Results, ledger: &mut Ledger, ctx: &Ctx) -> Window {
        let mut w = Window::default();
        let started = Instant::now();
        while started.elapsed() < ctx.window {
            let traced = ctx.traced && mix(self.seed ^ mix(self.iterations)) & 1 == 1;
            ledger.set_enabled(traced);
            let t = Instant::now();
            self.iterate(r, ledger, &mut w);
            if traced { &mut w.traced_iter_s } else { &mut w.plain_iter_s }.push(secs(t));
        }
        ledger.set_enabled(false);
        w.seconds = secs(started);
        w
    }
}

/// The bits of an output as 64-bit digests of 2^16-element chunks, so the
/// first round's outputs need not stay resident (and inflate the peak RSS)
/// until the solo runs after the window.
fn digest(values: &[f64]) -> Vec<u64> {
    let mut h = 0u64;
    let mut out = Vec::with_capacity(values.len().div_ceil(1 << 16));
    for chunk in values.chunks(1 << 16) {
        for v in chunk {
            h = mix(h ^ v.to_bits());
        }
        out.push(h);
    }
    out
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Results, String> {
    let mut r = Results::default();
    let mut ledger = Ledger::new();
    ledger.set_enabled(ctx.traced);

    let mut setup_s = Vec::new();
    let mut session = None;
    for rep in 0..SETUP_REPS as u64 {
        drop(session.take());
        let t = Instant::now();
        session = Some(setup(ctx.seed, &mut ledger, rep)?);
        setup_s.push(secs(t));
    }
    let session = session.expect("at least one set-up");
    let mut d = ClosedLoop {
        session,
        seed: ctx.seed,
        next_idx: 0,
        in_flight: [0; 3],
        pending: HashMap::new(),
        samples: Vec::new(),
        first_round: Vec::new(),
        iterations: 0,
    };

    let w = d.window(&mut r, &mut ledger, ctx);
    // The session's front-end was opened after the warm-up, so its counters
    // cover exactly the window.
    let counter = |name: &str| d.session.frontend.metrics().counter(name) as f64;
    let closes = ["k_budget_full", "deadline_pressure", "aged", "flush"]
        .map(|l| counter(&format!("frontend.close.{l}")));
    let (executions, rejected) = (counter("frontend.executions"), counter("frontend.rejected"));
    let rss = peak_rss_mb()?;

    // Finish the outstanding requests (checked, not timed).
    let now = Instant::now();
    for resp in d.session.frontend.drain() {
        d.complete(&mut r, &resp, now);
    }
    if !d.pending.is_empty() {
        return Err(format!("{} admitted requests were never answered", d.pending.len()));
    }

    // Checks, after the window: every response's sampled rows against the
    // serial reference, and the first round bitwise against solo runs.
    let offsets = [row_offsets(&d.session.mats[0]), row_offsets(&d.session.mats[1])];
    let mut wrong = BTreeSet::new();
    for s in &d.samples {
        let seed = ctx.seed;
        let ok = rows_match(
            &d.session.mats[s.matrix],
            &offsets[s.matrix],
            &s.rows,
            &s.got,
            s.k,
            |i, j| b_value(seed, s.idx, i, j),
        );
        if !ok {
            eprintln!("request {} differs from the serial reference on sampled rows", s.idx);
            wrong.insert(s.idx);
        }
    }
    let mut solo = SpmmService::new(service_config());
    let solo_handles = register(&mut solo, &d.session.mats)?;
    for (idx, t, got) in &d.first_round {
        let m = matrix_of(*t, *idx);
        let b = Arc::new(request_b(ctx.seed, *idx, d.session.mats[m].cols(), TENANTS[*t].k));
        let request = SpmmRequest {
            algorithm: TENANTS[*t].algorithm,
            ..SpmmRequest::new(solo_handles[m], b)
        };
        let want = solo
            .run_one(request)
            .and_then(|resp| resp.output)
            .map_err(|e| format!("solo run: {e}"))?;
        if *got != digest(want.as_slice()) {
            eprintln!("request {idx} differs from its solo run");
            wrong.insert(*idx);
        }
    }
    for _ in &wrong {
        r.tally.fail_recorded();
    }

    // What `Auto` resolves to for the coll tenant, timed per call.
    let mut resolve_s = Vec::new();
    let mut winner = None;
    for _ in 0..if ctx.traced { 5 } else { 1 } {
        let a = &d.session.mats[1];
        let layout = OneDimLayout::new(a.rows(), a.cols(), P, STRIPE_WIDTH);
        let t = Instant::now();
        let choice =
            resolve_auto(a, &layout, TENANTS[2].k, &TwoFaceConfig::default(), &CostModel::delta());
        resolve_s.push(secs(t));
        winner = Some(choice.algorithm);
    }
    r.note(format!(
        "serve_mixed: web crawl n = 2^16 ({} nnz) and R-MAT scale 16 ({} nnz), p = {P}, max K per batch {MAX_K_PER_BATCH}; tenants train K=32, infer K=8 with SLO {:.6} sim s, coll K=16 Auto -> {}",
        d.session.mats[0].nnz(),
        d.session.mats[1].nnz(),
        d.session.slo,
        winner.map_or("none".to_string(), |a| a.name())
    ));
    let n = w.latencies.len();
    if ctx.traced {
        let responses = &w.responses;
        let with_deadline: Vec<bool> = responses.iter().filter_map(|x| x.deadline_met).collect();
        let lookups: Vec<bool> = responses.iter().filter_map(|x| x.cache_hit).collect();
        let share = |v: &[bool]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().filter(|&&b| b).count() as f64 / v.len() as f64
            }
        };
        let useful_poll_s = &w.useful_poll_s;
        let traced_iters = w.traced_iter_s.len();
        r.set("bench.traced_ops", traced_iters as f64, traced_iters);
        r.set(
            "bench.trace_overhead_ratio",
            median(&w.traced_iter_s) / median(&w.plain_iter_s),
            traced_iters,
        );
        let coverage = ledger.coverage("iter");
        r.set(
            "bench.span_coverage_ratio",
            median(&coverage.iter().map(|c| c.0).collect::<Vec<_>>()),
            coverage.len(),
        );
        r.set(
            "bench.unattributed_s",
            median(&coverage.iter().map(|c| c.1).collect::<Vec<_>>()),
            coverage.len(),
        );
        r.set("matrix.gen_s", median(&ledger.durations("matrix.gen")), SETUP_REPS);
        let per_call = |name: &str| {
            let d = ledger.durations(name);
            (median(&d), d.len())
        };
        let (b_gen_s, b_gens) = per_call("core.runner.b_gen");
        r.set("core.runner.b_gen_s", b_gen_s, b_gens);
        r.set(
            "net.sim_s",
            median(&responses.iter().map(|x| x.exec_sim_seconds).collect::<Vec<_>>()),
            responses.len(),
        );
        r.set("core.auto.resolve_s", median(&resolve_s), resolve_s.len());
        let (submit_s, submits) = per_call("frontend.submit");
        r.set("frontend.submit_s", submit_s, submits);
        // Polls that executed a batch; the rest only look at the queue.
        r.set(
            "frontend.poll_s",
            if useful_poll_s.is_empty() { 0.0 } else { median(useful_poll_s) },
            useful_poll_s.len(),
        );
        r.set("frontend.polls", w.polls as f64, 1);
        r.set(
            "frontend.useful_poll_ratio",
            useful_poll_s.len() as f64 / w.polls as f64,
            w.polls as usize,
        );
        for (i, name) in [
            "frontend.close.k_budget",
            "frontend.close.deadline",
            "frontend.close.aged",
            "frontend.close.flush",
        ]
        .into_iter()
        .enumerate()
        {
            r.set(name, closes[i], 1);
        }
        r.set("frontend.deadline_met_ratio", share(&with_deadline), with_deadline.len());
        let waits: Vec<f64> = responses.iter().map(|x| x.queue_wait_sim_seconds).collect();
        r.set("frontend.queue_wait_sim_s", median(&waits), waits.len());
        r.set("frontend.rejected", rejected, 1);
        r.set(
            "serve.batch_size_mean",
            responses.len() as f64 / executions.max(1.0),
            executions as usize,
        );
        r.set("serve.executions", executions, 1);
        r.set("serve.cache_lookups", lookups.len() as f64, 1);
        r.set("serve.cache_hit_ratio", share(&lookups), lookups.len());
        let path = ctx.out_dir.join(format!("serve_mixed-{}.spans.jsonl", ctx.seed));
        ledger.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        r.note(format!(
            "ledger: {} ({} loop iterations; b_gen, submit and poll under each)",
            path.display(),
            coverage.len()
        ));
        let reasons: Vec<String> = [
            CloseReason::KBudgetFull,
            CloseReason::DeadlinePressure,
            CloseReason::Aged,
            CloseReason::Flush,
        ]
        .iter()
        .map(|c| {
            format!("{} {}", c.label(), responses.iter().filter(|x| x.close_reason == *c).count())
        })
        .collect();
        r.note(format!("window: responses by close reason: {}", reasons.join(", ")));
    } else {
        if n == 0 {
            return Err("no request completed inside the window".into());
        }
        r.set("setup_s", median(&setup_s), setup_s.len());
        r.set("latency_p50_s", median(&w.latencies), n);
        r.set("throughput_per_s", n as f64 / w.seconds, n);
        r.set("peak_rss_mb", rss, 1);
        r.note(format!("serve_rps {:.6} 1/s (n={n})", n as f64 / w.seconds));
        r.note(format!("serve_p50_s {:.6} s (n={n})", median(&w.latencies)));
        match percentile(&w.latencies, 0.90) {
            Some(v) => r.note(format!("serve_p90_s {v:.6} s (n={n})")),
            None => r.note(format!(
                "serve_p90_s not reported: {n} samples leave fewer than 10 beyond p90"
            )),
        }
        if let Some((q, v)) = highest_tail(&w.latencies) {
            r.note(format!("serve highest supported tail: p{} {v:.6} s (n={n})", q * 100.0));
        }
    }
    Ok(r)
}
