//! Out-of-core (streamed) Two-Face execution for paper-scale matrices.
//!
//! The paper's evaluation matrices hold 143M–3.6B nonzeros; the resident
//! pipeline materializes the full COO operand (24 B per nonzero) *and* every
//! rank's Figure-6 structures at once, which caps the synthetic suite far
//! below paper scale on one host. This module executes the same simulation
//! without ever holding the full matrix:
//!
//! 1. **Spill** — drain a chunked [`TripletSource`] and route each raw draw
//!    to a per-rank shard file (row blocks partition the stream), holding
//!    only one chunk plus write buffers.
//! 2. **Normalize + profile** — per rank, load the raw shard, apply
//!    [`normalize_triplets`] (the one normalization path in the workspace,
//!    so per-shard normalization concatenates to exactly the resident
//!    matrix), profile its stripes, and spill the normalized shard back.
//! 3. **Plan** — classify from the per-rank profiles
//!    ([`PartitionPlan::build_from_profiles`]) with the same coefficients
//!    and sync-buffer budget the resident
//!    [`prepare_plan`](crate::prepare_plan) derives.
//! 4. **Build + store** — per rank, build the compact
//!    [`RankMatrices`](crate::RankMatrices) from the normalized shard
//!    ([`RankMatrices::build_from_rows`]) and serialize them to a per-rank
//!    store file: async stripes first (ascending), sync entries last — the
//!    order execution consumes them, so reads are purely sequential.
//! 5. **Execute** — run the resident path's Two-Face executor over a
//!    store-reading stripe source: per-stripe materialize→compute→drop on
//!    the async lane and row-aligned chunking on the sync lane, so peak
//!    memory is the dense operands plus a few panels of sparse entries per
//!    rank. A store read that fails mid-run is a typed [`RunError::Io`].
//!
//! The correctness contract is *bit-identity*: at any scale where the
//! resident path also fits, the streamed run's output `C`, simulated
//! seconds, per-lane breakdowns, and communication volumes equal the
//! resident [`run_algorithm`](crate::run_algorithm)'s exactly (the
//! differential suite in `tests/streamed_pipeline.rs` enforces this).

use crate::algo::twoface::{
    execute_twoface, planned_memory_extra, AsyncView, SpmmKernel, StripeSource,
};
use crate::config::TwoFaceConfig;
use crate::error::{RankError, RunError};
use crate::format::RankMatrices;
use crate::pool::resolve_workers;
use crate::runner::{
    base_bytes, collect_run, generated_b_block, node_memory_peak, resolve_observability,
    sync_buffer_budget, tile_c, ExecOpts, ExecutionReport, ResolvedObservability, NNZ_BYTES,
};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use twoface_matrix::gen::TripletSource;
use twoface_matrix::{normalize_triplets, SmallTriplet, Triplet, SCALAR_BYTES};
use twoface_net::{
    Cluster, CostModel, Lane, MetricsRegistry, Observability, OpEvent, OpKind, PhaseClass,
};
use twoface_partition::{
    ClassifierKind, ModelCoefficients, NodeProfile, OneDimLayout, PartitionPlan, PlanOptions,
    StripeClass,
};

/// Raw spill chunk cap in entries when no budget narrows it further.
pub const DEFAULT_STREAM_CHUNK_NNZ: usize = twoface_matrix::gen::DEFAULT_CHUNK_NNZ;

/// Sync-lane compute chunk in entries (16 B each): the "few panels" of
/// row-major nonzeros materialized at a time per rank during the final
/// compute phase.
const SYNC_CHUNK_ENTRIES: usize = 1 << 18;

/// Bytes of one serialized compact entry (`u32` row, `u32` col, `f64` val).
const SMALL_ENTRY_BYTES: usize = 16;

/// Options controlling one [`run_twoface_streamed`] call. Mirrors the
/// subset of [`RunOptions`](crate::RunOptions) the streamed pipeline
/// supports; plan construction uses exactly the resident defaulting rules,
/// which is what makes the two paths produce identical plans.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Whether to perform the floating-point work (structural operations
    /// and cost accounting always run).
    pub compute_values: bool,
    /// Table-2 runtime knobs.
    pub config: TwoFaceConfig,
    /// Plan coefficients; `None` derives them from the effective cost model,
    /// as the resident runner does.
    pub coefficients: Option<ModelCoefficients>,
    /// Stripe classifier for plan construction.
    pub classifier: ClassifierKind,
    /// Real execution workers (`None` resolves `TWOFACE_THREADS`, then the
    /// host parallelism).
    pub workers: Option<usize>,
    /// Host memory budget in bytes for the whole streamed run (dense
    /// operands, per-rank transients, spill buffers). `None` disables the
    /// gate; `Some` fails up front with [`RunError::HostBudgetExceeded`]
    /// when even the out-of-core working set cannot fit, and narrows the
    /// spill chunk size to stay inside the budget.
    pub memory_budget: Option<usize>,
    /// Directory for the spill and store files; defaults to
    /// [`std::env::temp_dir`]. The run creates (and removes on completion)
    /// a uniquely named subdirectory.
    pub spill_dir: Option<PathBuf>,
    /// Raw generation chunk cap in entries.
    pub chunk_nnz: usize,
    /// Per-operation event recording, exactly as
    /// [`RunOptions::observability`](crate::RunOptions::observability) — and
    /// additionally the streamed pipeline's own telemetry: one
    /// [`OpKind::HostPass`] span per pass, [`OpKind::Spill`] events for every
    /// shard and store file written or read (with byte counts), and
    /// [`OpKind::Gauge`] samples of the host-memory high-water estimate and
    /// remaining budget headroom. Pipeline events ride on rank 0's stream
    /// (the driver lives on the simulating host) as instants at simulated
    /// time zero, so they never perturb the simulated clocks: the run stays
    /// bit-identical with telemetry on or off. The `TWOFACE_TRACE` /
    /// `TWOFACE_PROFILE` environment knobs promote and export this exactly
    /// as they do for the resident runner.
    pub observability: Observability,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            compute_values: true,
            config: TwoFaceConfig::default(),
            coefficients: None,
            classifier: ClassifierKind::Greedy,
            workers: None,
            memory_budget: None,
            spill_dir: None,
            chunk_nnz: DEFAULT_STREAM_CHUNK_NNZ,
            observability: Observability::off(),
        }
    }
}

/// The result of one streamed run: the standard report plus the streaming
/// pipeline's own accounting.
#[derive(Debug)]
pub struct StreamedRun {
    /// The execution report; bit-identical (output, simulated seconds,
    /// breakdowns, volumes) to the resident path at overlap scales.
    pub report: ExecutionReport,
    /// Nonzeros after duplicate summing (the resident matrix's `nnz()`).
    pub realized_nnz: usize,
    /// Total bytes written to spill and store files.
    pub spilled_bytes: usize,
    /// Largest per-rank shard materialized during normalization, in bytes —
    /// the dominant transient of the preprocessing passes.
    pub peak_shard_bytes: usize,
    /// The estimated host working set the budget gate checked, in bytes.
    pub estimated_host_bytes: usize,
}

/// Monotonically increasing suffix so concurrent runs in one process never
/// collide on a spill directory.
static SPILL_DIRS: AtomicU64 = AtomicU64::new(0);

/// Owns the run's spill directory; removal is best-effort on drop so early
/// error returns clean up too.
struct SpillDir(PathBuf);

impl SpillDir {
    fn create(base: Option<&PathBuf>) -> Result<SpillDir, RunError> {
        let n = SPILL_DIRS.fetch_add(1, Ordering::Relaxed);
        let dir = base
            .cloned()
            .unwrap_or_else(std::env::temp_dir)
            .join(format!("twoface-stream-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| RunError::Io {
            context: format!("creating spill directory {}: {e}", dir.display()),
        })?;
        Ok(SpillDir(dir))
    }

    fn path(&self, name: String) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn io_err(context: &str, e: std::io::Error) -> RunError {
    RunError::Io { context: format!("{context}: {e}") }
}

/// Driver-side telemetry for the streamed passes, which run before (and
/// around) the simulated cluster. Everything here is host bookkeeping:
/// events are instants at simulated time zero (real pass durations ride in
/// [`OpEvent::wall_nanos`] when wall stamping is on), so the simulated
/// clocks — and therefore every gated result field — are untouched whether
/// telemetry is on or off.
///
/// Event encoding, since [`OpEvent`] carries no label string:
/// * [`OpKind::HostPass`]: one per pass, `peers = [pass_number]` (1-based,
///   matching the module docs), `elements` = the pass's dominant count.
/// * [`OpKind::Spill`]: one per shard/store file, `peers = [rank]`,
///   `elements` = bytes on disk; `initiator` distinguishes writes (`true`)
///   from reads (`false`).
/// * [`OpKind::Gauge`]: host high-water estimate (`initiator = true`) and
///   budget headroom (`initiator = false`), `elements` = bytes.
struct PipelineTelemetry {
    enabled: bool,
    wall: bool,
    events: Vec<OpEvent>,
    metrics: MetricsRegistry,
}

impl PipelineTelemetry {
    fn new(observability: &Observability) -> PipelineTelemetry {
        PipelineTelemetry {
            enabled: observability.enabled(),
            wall: observability.wall_time,
            events: Vec::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    fn push(
        &mut self,
        kind: OpKind,
        elements: u64,
        peers: Vec<usize>,
        initiator: bool,
        wall_nanos: Option<u64>,
    ) {
        self.events.push(OpEvent {
            seq: self.events.len() as u64,
            kind,
            lane: Lane::Sync,
            class: PhaseClass::Other,
            start_seconds: 0.0,
            end_seconds: 0.0,
            elements,
            peers,
            initiator,
            fault: None,
            wall_nanos,
        });
    }

    /// Closes pass `number` (1-based): a [`OpKind::HostPass`] span with the
    /// real duration since `started` when wall stamping is on.
    fn pass(&mut self, number: usize, elements: u64, started: Instant) {
        if !self.enabled {
            return;
        }
        let wall = self.wall.then(|| started.elapsed().as_nanos() as u64);
        self.push(OpKind::HostPass, elements, vec![number], true, wall);
        self.metrics.inc("stream.passes", 1);
    }

    /// Records `bytes` written to rank `rank`'s shard or store file.
    fn spill_write(&mut self, rank: usize, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.push(OpKind::Spill, bytes, vec![rank], true, None);
        self.metrics.inc("stream.spill_bytes_written", bytes);
        self.metrics.inc("stream.shards_written", 1);
    }

    /// Records `bytes` read back from rank `rank`'s shard or store file.
    fn spill_read(&mut self, rank: usize, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.push(OpKind::Spill, bytes, vec![rank], false, None);
        self.metrics.inc("stream.spill_bytes_read", bytes);
        self.metrics.inc("stream.shards_read", 1);
    }

    /// Samples the host-memory high-water estimate and, under a declared
    /// budget, the remaining headroom.
    fn gauge(&mut self, estimated_host_bytes: u64, budget: Option<u64>) {
        if !self.enabled {
            return;
        }
        self.push(OpKind::Gauge, estimated_host_bytes, Vec::new(), true, None);
        self.metrics.inc("stream.host_bytes_high_water", estimated_host_bytes);
        if let Some(budget) = budget {
            let headroom = budget.saturating_sub(estimated_host_bytes);
            self.push(OpKind::Gauge, headroom, Vec::new(), false, None);
            self.metrics.observe("stream.budget_headroom_bytes", headroom);
        }
    }

    /// Appends the driver events to rank 0's stream (renumbered to continue
    /// its sequence) and returns the pipeline metrics for merging.
    fn attach(self, rank0_events: &mut Vec<OpEvent>) -> MetricsRegistry {
        let base = rank0_events.last().map_or(0, |e| e.seq + 1);
        let renumbered = self.events.into_iter().zip(base..).map(|(e, seq)| OpEvent { seq, ..e });
        rank0_events.extend(renumbered);
        self.metrics
    }
}

/// Size on disk of a just-written spill file; falls back to `accounted`
/// when the platform cannot stat it.
fn disk_bytes(path: &Path, accounted: usize) -> u64 {
    std::fs::metadata(path).map_or(accounted as u64, |m| m.len())
}

fn write_wide(out: &mut impl std::io::Write, t: &Triplet) -> std::io::Result<()> {
    out.write_all(&(t.row as u64).to_le_bytes())?;
    out.write_all(&(t.col as u64).to_le_bytes())?;
    out.write_all(&t.val.to_le_bytes())
}

fn read_wide(input: &mut impl Read) -> std::io::Result<Triplet> {
    let mut buf = [0u8; 24];
    input.read_exact(&mut buf)?;
    let row = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes")) as usize;
    let col = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")) as usize;
    let val = f64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
    Ok(Triplet::new(row, col, val))
}

/// Reads the `count` wide triplets of the `what` shard file at `path`.
fn read_shard(path: &Path, count: usize, what: &str) -> Result<Vec<Triplet>, RunError> {
    let file = File::open(path).map_err(|e| io_err(&format!("opening {what}"), e))?;
    let mut reader = BufReader::new(file);
    let mut shard = Vec::with_capacity(count);
    for _ in 0..count {
        shard.push(read_wide(&mut reader).map_err(|e| io_err(&format!("reading {what}"), e))?);
    }
    Ok(shard)
}

fn write_small(out: &mut impl std::io::Write, t: &SmallTriplet) -> std::io::Result<()> {
    out.write_all(&t.row.to_le_bytes())?;
    out.write_all(&t.col.to_le_bytes())?;
    out.write_all(&t.val.to_le_bytes())
}

fn read_small(input: &mut impl Read) -> std::io::Result<SmallTriplet> {
    let mut buf = [0u8; SMALL_ENTRY_BYTES];
    input.read_exact(&mut buf)?;
    let row = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    let col = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let val = f64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    Ok(SmallTriplet { row, col, val })
}

/// Per-stripe store metadata kept in memory while entries live on disk.
struct StripeMeta {
    stripe: usize,
    nnz: usize,
    unique: usize,
}

/// One rank's serialized compact structures plus the metadata the executor
/// and the cost charges need without touching the file.
struct RankStore {
    path: PathBuf,
    /// Bytes written to `path`; any other length on disk is a damaged store.
    bytes: usize,
    stripes: Vec<StripeMeta>,
    sync_nnz: usize,
    nonempty_panels: usize,
}

impl RankStore {
    /// Checks that rank `rank`'s store file still holds exactly the bytes
    /// written to it, so a short or missing store is a typed error at the
    /// driver before execution instead of a panic inside a rank thread.
    fn verify(&self, rank: usize) -> Result<(), RunError> {
        let on_disk = std::fs::metadata(&self.path).map(|m| m.len()).map_err(|e| {
            io_err(
                &format!(
                    "rank {rank} store {} is unreadable ({} bytes written)",
                    self.path.display(),
                    self.bytes
                ),
                e,
            )
        })?;
        if on_disk != self.bytes as u64 {
            return Err(RunError::Io {
                context: format!(
                    "rank {rank} store {} holds {on_disk} bytes but {} were written",
                    self.path.display(),
                    self.bytes
                ),
            });
        }
        Ok(())
    }
}

/// Serializes one rank's built structures in execution order: per async
/// stripe (ascending) its row-major entries then its unique columns, then
/// the sync/local entries (row-major). Returns the store handle, which
/// records the bytes written.
fn write_store(path: PathBuf, matrices: &RankMatrices) -> Result<RankStore, RunError> {
    let file = File::create(&path)
        .map_err(|e| io_err(&format!("creating store {}", path.display()), e))?;
    let mut out = BufWriter::new(file);
    let mut stripes = Vec::with_capacity(matrices.asynchronous.num_stripes());
    let mut bytes = 0usize;
    let ctx = "writing rank store";
    for stripe in matrices.asynchronous.stripes() {
        for t in stripe.entries_row_major() {
            write_small(&mut out, t).map_err(|e| io_err(ctx, e))?;
        }
        for c in &stripe.unique_cols {
            out.write_all(&c.to_le_bytes()).map_err(|e| io_err(ctx, e))?;
        }
        bytes += stripe.nnz() * SMALL_ENTRY_BYTES + stripe.unique_cols.len() * 4;
        stripes.push(StripeMeta {
            stripe: stripe.stripe,
            nnz: stripe.nnz(),
            unique: stripe.unique_cols.len(),
        });
    }
    for t in matrices.sync_local.entries() {
        write_small(&mut out, t).map_err(|e| io_err(ctx, e))?;
    }
    bytes += matrices.sync_local.nnz() * SMALL_ENTRY_BYTES;
    out.flush().map_err(|e| io_err(ctx, e))?;
    Ok(RankStore {
        path,
        bytes,
        stripes,
        sync_nnz: matrices.sync_local.nnz(),
        nonempty_panels: matrices.sync_local.num_nonempty_panels(),
    })
}

/// Executes Two-Face out of core on a chunked triplet source.
///
/// The dense operand is the deterministically generated `B` of
/// [`Problem::with_generated_b`](crate::Problem::with_generated_b), staged
/// per rank without materializing the full matrix — which is also what
/// makes the differential contract checkable: at overlap scales, build the
/// resident problem from the same source with the same seed and the outputs
/// are bit-identical.
///
/// # Errors
///
/// * [`RunError::Shape`] for infeasible layouts or out-of-bounds draws;
/// * [`RunError::HostBudgetExceeded`] when even the out-of-core working set
///   exceeds [`StreamOptions::memory_budget`];
/// * [`RunError::OutOfMemory`] under the same *simulated* per-node gate as
///   the resident path;
/// * [`RunError::Io`] when spill or store files cannot be written or read
///   back (naming the rank and the store path).
pub fn run_twoface_streamed(
    source: &mut dyn TripletSource,
    k: usize,
    p: usize,
    stripe_width: usize,
    cost: &CostModel,
    options: &StreamOptions,
) -> Result<StreamedRun, RunError> {
    let rows = source.rows();
    let cols = source.cols();
    if p == 0 || stripe_width == 0 || p > rows.max(1) || p > cols.max(1) {
        return Err(RunError::Shape {
            context: format!(
                "cannot lay out a {rows}x{cols} matrix over {p} nodes with stripe width \
                 {stripe_width}"
            ),
        });
    }
    let layout = OneDimLayout::new(rows, cols, p, stripe_width);
    let effective = options.config.effective_cost(cost);
    let coefficients = options.coefficients.unwrap_or_else(|| ModelCoefficients::from(&effective));
    let workers = resolve_workers(options.workers);
    let spill = SpillDir::create(options.spill_dir.as_ref())?;
    let mut spilled_bytes = 0usize;
    let resolved: ResolvedObservability = resolve_observability(&options.observability);
    let mut telemetry = PipelineTelemetry::new(&resolved.observability);
    let mut pass_started = Instant::now();

    // --- Pass 1: route raw draws to per-rank shard files. ---
    // One chunk plus the write buffers is all that's resident.
    let chunk_nnz = match options.memory_budget {
        Some(budget) => options.chunk_nnz.min((budget / 8 / NNZ_BYTES).max(1 << 14)),
        None => options.chunk_nnz,
    };
    let raw_paths: Vec<PathBuf> = (0..p).map(|r| spill.path(format!("raw.{r}"))).collect();
    {
        let mut writers: Vec<BufWriter<File>> = raw_paths
            .iter()
            .map(|path| {
                File::create(path)
                    .map(BufWriter::new)
                    .map_err(|e| io_err(&format!("creating shard {}", path.display()), e))
            })
            .collect::<Result<_, _>>()?;
        let mut chunk: Vec<Triplet> = Vec::new();
        loop {
            chunk.clear();
            if source.next_chunk(chunk_nnz, &mut chunk) == 0 {
                break;
            }
            for t in &chunk {
                if t.row >= rows || t.col >= cols {
                    return Err(RunError::Shape {
                        context: format!(
                            "source drew ({}, {}) outside {rows}x{cols}",
                            t.row, t.col
                        ),
                    });
                }
                write_wide(&mut writers[layout.owner_of_row(t.row)], t)
                    .map_err(|e| io_err("spilling raw shard", e))?;
                spilled_bytes += NNZ_BYTES;
            }
        }
        for w in &mut writers {
            w.flush().map_err(|e| io_err("flushing raw shard", e))?;
        }
    }
    if telemetry.enabled {
        for (rank, path) in raw_paths.iter().enumerate() {
            telemetry.spill_write(rank, disk_bytes(path, 0));
        }
    }
    telemetry.pass(1, (spilled_bytes / NNZ_BYTES) as u64, pass_started);

    debug_rss("pass1 route");
    // --- Pass 2: normalize + profile per rank, one shard at a time. ---
    // Shards partition the draw stream by row and `normalize_triplets` sorts
    // by (row, col) with in-order duplicate summing, so the concatenation of
    // normalized shards is exactly the resident matrix.
    let mut profiles: Vec<NodeProfile> = Vec::with_capacity(p);
    let mut nnz_by_rank: Vec<usize> = Vec::with_capacity(p);
    let mut peak_shard_bytes = 0usize;
    let norm_paths: Vec<PathBuf> = (0..p).map(|r| spill.path(format!("norm.{r}"))).collect();
    pass_started = Instant::now();
    for rank in 0..p {
        let raw_len = std::fs::metadata(&raw_paths[rank])
            .map_err(|e| io_err("sizing raw shard", e))?
            .len() as usize;
        telemetry.spill_read(rank, raw_len as u64);
        let mut shard = read_shard(&raw_paths[rank], raw_len / NNZ_BYTES, "raw shard")?;
        peak_shard_bytes = peak_shard_bytes.max(shard.len() * NNZ_BYTES);
        normalize_triplets(&mut shard);
        profiles.push(NodeProfile::build_from_rows(&shard, &layout, rank));
        nnz_by_rank.push(shard.len());
        let mut out = BufWriter::new(
            File::create(&norm_paths[rank]).map_err(|e| io_err("creating normalized shard", e))?,
        );
        for t in &shard {
            write_wide(&mut out, t).map_err(|e| io_err("spilling normalized shard", e))?;
        }
        out.flush().map_err(|e| io_err("flushing normalized shard", e))?;
        spilled_bytes += shard.len() * NNZ_BYTES;
        if telemetry.enabled {
            let written = disk_bytes(&norm_paths[rank], shard.len() * NNZ_BYTES);
            telemetry.spill_write(rank, written);
        }
        let _ = std::fs::remove_file(&raw_paths[rank]);
    }
    debug_rss("pass2 normalize+profile");
    let realized_nnz: usize = nnz_by_rank.iter().sum();
    telemetry.pass(2, realized_nnz as u64, pass_started);

    // --- Pass 3: classify from profiles, with the resident budget rule. ---
    pass_started = Instant::now();
    let base_all = base_bytes(&layout, k, |rank| nnz_by_rank[rank]);
    let sync_budget = sync_buffer_budget(&base_all, &layout, k, &effective);
    let plan = Arc::new(PartitionPlan::build_from_profiles(
        profiles,
        layout.clone(),
        &coefficients,
        k,
        PlanOptions {
            sync_buffer_budget: Some(sync_budget),
            classifier: options.classifier,
            workers,
        },
    ));

    // Simulated per-node gate, identical to the resident staging gate.
    let required_sim = node_memory_peak(p, effective.memory_per_node, |rank| {
        base_all[rank] + planned_memory_extra(&plan, k, rank)
    })?;

    // Host working-set estimate: the worst of the build pass (one shard plus
    // its structures) and the execute pass (dense operands plus every rank's
    // bounded transients).
    let build_peak = (0..p)
        .map(|rank| nnz_by_rank[rank] * (NNZ_BYTES + 2 * SMALL_ENTRY_BYTES + 4))
        .max()
        .unwrap_or(0);
    let dense_bytes = (rows + cols) * k * SCALAR_BYTES;
    let exec_transients: usize = (0..p)
        .map(|rank| {
            let mut max_seg = 0usize;
            let mut max_fetch = 0usize;
            for &(stripe, class) in &plan.classification(rank).classes {
                if class == StripeClass::Async {
                    if let Some(s) = plan.profile(rank).stripe(stripe) {
                        max_seg = max_seg.max(s.nnz * SMALL_ENTRY_BYTES + s.rows_needed() * 4);
                        max_fetch = max_fetch.max(s.rows_needed() * k * SCALAR_BYTES);
                    }
                }
            }
            max_seg + 2 * max_fetch + SYNC_CHUNK_ENTRIES * SMALL_ENTRY_BYTES
        })
        .sum();
    let estimated_host_bytes =
        build_peak.max(dense_bytes + exec_transients) + chunk_nnz * NNZ_BYTES;
    if let Some(budget) = options.memory_budget {
        if estimated_host_bytes > budget {
            return Err(RunError::HostBudgetExceeded { required: estimated_host_bytes, budget });
        }
    }
    telemetry.gauge(estimated_host_bytes as u64, options.memory_budget.map(|b| b as u64));
    telemetry.pass(3, layout.num_stripes() as u64, pass_started);

    debug_rss("pass3 classify");
    // --- Pass 4: build compact structures per rank, serialize, drop. ---
    pass_started = Instant::now();
    let mut stores: Vec<RankStore> = Vec::with_capacity(p);
    let mut store_bytes = 0u64;
    for rank in 0..p {
        telemetry.spill_read(rank, (nnz_by_rank[rank] * NNZ_BYTES) as u64);
        let shard = read_shard(&norm_paths[rank], nnz_by_rank[rank], "normalized shard")?;
        let matrices =
            RankMatrices::build_from_rows(&shard, &plan, rank, options.config.row_panel_height);
        drop(shard);
        debug_rss(&format!("pass4 built rank {rank} ({} nnz)", nnz_by_rank[rank]));
        let store = write_store(spill.path(format!("store.{rank}")), &matrices)?;
        spilled_bytes += store.bytes;
        if telemetry.enabled {
            let written = disk_bytes(&store.path, store.bytes);
            store_bytes += written;
            telemetry.spill_write(rank, written);
        }
        stores.push(store);
        let _ = std::fs::remove_file(&norm_paths[rank]);
    }
    telemetry.pass(4, store_bytes, pass_started);

    debug_rss("pass4 build+store");
    // --- Pass 5: execute with per-stripe materialize → compute → drop. ---
    pass_started = Instant::now();
    for (rank, store) in stores.iter().enumerate() {
        store.verify(rank)?;
    }
    let b_blocks: Vec<Arc<Vec<f64>>> =
        (0..p).map(|rank| Arc::new(generated_b_block(layout.col_range(rank), k))).collect();
    let exec = ExecOpts {
        k,
        compute: options.compute_values,
        panel_height: options.config.row_panel_height,
        workers,
    };
    // The executors read the stores back inside the rank threads; charge
    // those reads up front at the driver (structural runs skip the sync
    // entries, so only the async portion is charged without compute).
    if telemetry.enabled {
        for (rank, store) in stores.iter().enumerate() {
            let async_bytes: usize =
                store.stripes.iter().map(|m| m.nnz * SMALL_ENTRY_BYTES + m.unique * 4).sum();
            let sync_bytes = if exec.compute { store.sync_nnz * SMALL_ENTRY_BYTES } else { 0 };
            telemetry.spill_read(rank, (async_bytes + sync_bytes) as u64);
        }
    }
    let cluster = Cluster::new(p, effective);
    cluster.set_observability(resolved.observability.clone());
    let config = &options.config;
    let mut outputs = cluster.run(|ctx| {
        let rank = ctx.rank();
        let mut source = StoreSource { rank, store: &stores[rank], reader: None };
        let mut kernel = SpmmKernel::new(layout.row_range(rank).len(), config, &exec);
        execute_twoface(ctx, &plan, &b_blocks[rank], config, &exec, &mut source, &mut kernel)?;
        Ok(kernel.c_local)
    });
    telemetry.pass(5, realized_nnz as u64, pass_started);

    debug_rss("pass5 execute");
    let metrics = telemetry.attach(&mut outputs[0].events);
    let name = "TwoFace (streamed)".to_string();
    let (mut report, blocks) = collect_run(outputs, &resolved, name, k, required_sim)?;
    report.metrics.merge(&metrics);
    if exec.compute {
        report.output = Some(tile_c(blocks, rows, k));
    }
    drop(spill);
    Ok(StreamedRun { report, realized_nnz, spilled_bytes, peak_shard_bytes, estimated_host_bytes })
}

/// Replaces `out` with the next `n` entries of a store.
fn read_entries(input: &mut impl Read, n: usize, out: &mut Vec<SmallTriplet>) -> io::Result<()> {
    out.clear();
    for _ in 0..n {
        out.push(read_small(input)?);
    }
    Ok(())
}

/// Replaces `out` with the next `n` column ids of a store.
fn read_cols(input: &mut impl Read, n: usize, out: &mut Vec<u32>) -> io::Result<()> {
    out.clear();
    let mut buf = [0u8; 4];
    for _ in 0..n {
        input.read_exact(&mut buf)?;
        out.push(u32::from_le_bytes(buf));
    }
    Ok(())
}

/// Replaces `chunk` with the next sync entries of a store: about
/// [`SYNC_CHUNK_ENTRIES`], extended so no row is split across chunks.
/// `remaining` counts the entries still unread; `pending` carries the first
/// entry of the next row between calls.
fn read_sync_chunk(
    input: &mut impl Read,
    remaining: &mut usize,
    pending: &mut Option<SmallTriplet>,
    chunk: &mut Vec<SmallTriplet>,
) -> io::Result<()> {
    chunk.clear();
    chunk.extend(pending.take());
    while chunk.len() < SYNC_CHUNK_ENTRIES && *remaining > 0 {
        chunk.push(read_small(input)?);
        *remaining -= 1;
    }
    while *remaining > 0 {
        let t = read_small(input)?;
        *remaining -= 1;
        if chunk.last().is_some_and(|last| last.row == t.row) {
            chunk.push(t);
        } else {
            *pending = Some(t);
            break;
        }
    }
    Ok(())
}

/// The streamed [`StripeSource`]: one async stripe materialized at a time
/// from the rank's store, then the sync entries in row-aligned chunks, so
/// peak memory is the dense operands plus a few panels of sparse entries.
/// Charges come from the store's metadata, so the clocks match the
/// resident run exactly.
struct StoreSource<'a> {
    rank: usize,
    store: &'a RankStore,
    reader: Option<BufReader<File>>,
}

impl StoreSource<'_> {
    /// Runs `read` on the store, opened on first use — after the sync-lane
    /// multicasts, so a failed read never leaves a peer waiting at a
    /// collective. A failure, the store damaged while the ranks run, is a
    /// [`RankError::Io`] naming the rank and the store path.
    fn read<T>(
        &mut self,
        read: impl FnOnce(&mut BufReader<File>) -> io::Result<T>,
    ) -> Result<T, RankError> {
        let result = match &mut self.reader {
            Some(reader) => read(reader),
            None => File::open(&self.store.path)
                .and_then(|file| read(self.reader.insert(BufReader::new(file)))),
        };
        let path = self.store.path.display();
        result.map_err(|e| RankError::Io(format!("rank {} store {path}: {e}", self.rank)))
    }
}

impl StripeSource for StoreSource<'_> {
    fn for_each_async<F>(&mut self, mut visit: F) -> Result<(), RankError>
    where
        F: FnMut(AsyncView<'_>) -> Result<(), RankError>,
    {
        // Buffers live for the async phase only: the sync chunk comes after.
        let (mut entries, mut unique_cols) = (Vec::new(), Vec::new());
        for meta in &self.store.stripes {
            self.read(|r| {
                read_entries(r, meta.nnz, &mut entries)?;
                read_cols(r, meta.unique, &mut unique_cols)
            })?;
            visit(AsyncView { stripe: meta.stripe, entries: &entries, unique_cols: &unique_cols })?;
        }
        Ok(())
    }

    fn sync_work(&self) -> (usize, usize) {
        (self.store.sync_nnz, self.store.nonempty_panels)
    }

    fn for_each_sync_chunk<F>(&mut self, mut visit: F) -> Result<(), RankError>
    where
        F: FnMut(&[SmallTriplet]),
    {
        let (mut remaining, mut pending, mut chunk) = (self.store.sync_nnz, None, Vec::new());
        while remaining > 0 || pending.is_some() {
            self.read(|r| read_sync_chunk(r, &mut remaining, &mut pending, &mut chunk))?;
            visit(&chunk);
        }
        Ok(())
    }
}

/// A memory field of `/proc/self/status` (`VmRSS:`, `VmHWM:`) in bytes;
/// `None` where the kernel does not expose it.
fn status_bytes(key: &str) -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    Some(line.split_whitespace().nth(1)?.parse::<usize>().ok()? * 1024)
}

/// Prints the current and peak RSS after a pipeline phase when
/// `TWOFACE_STREAM_DEBUG` is set — the attribution tool for out-of-core
/// memory work (VmHWM alone can't say *which* pass set the high-water mark).
fn debug_rss(label: &str) {
    if std::env::var_os("TWOFACE_STREAM_DEBUG").is_none() {
        return;
    }
    let mib = |key: &str| status_bytes(key).map_or(-1.0, |b| b as f64 / (1 << 20) as f64);
    eprintln!("[stream-rss] {label}: rss {:.0} MiB, peak {:.0} MiB", mib("VmRSS:"), mib("VmHWM:"));
}

/// The process's peak resident set size (`VmHWM`) in bytes, read from
/// `/proc/self/status`. Returns `None` on platforms or kernels that don't
/// expose it. Note the counter is a process-lifetime high-water mark: to
/// attribute a peak to one phase, measure the cheap phase first.
pub fn peak_rss_bytes() -> Option<usize> {
    status_bytes("VmHWM:")
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoface_matrix::gen::ErdosChunks;

    #[test]
    fn wide_and_small_roundtrip() {
        let mut buf = Vec::new();
        let wide = Triplet::new(123_456_789_012, 7, -1.5);
        write_wide(&mut buf, &wide).unwrap();
        let small = SmallTriplet::new(42, 99, 0.25);
        write_small(&mut buf, &small).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_wide(&mut cursor).unwrap(), wide);
        assert_eq!(read_small(&mut cursor).unwrap(), small);
    }

    #[test]
    fn truncated_or_missing_store_is_a_typed_error() {
        use twoface_partition::{OneDimLayout, PartitionPlan, StripeClass};
        let a = twoface_matrix::gen::erdos_renyi(32, 32, 200, 3);
        let plan = PartitionPlan::build_uniform(
            &a,
            OneDimLayout::new(32, 32, 2, 4),
            8,
            StripeClass::Async,
        );
        let spill = SpillDir::create(None).unwrap();
        let store =
            write_store(spill.path("store.1".into()), &RankMatrices::build(&a, &plan, 1, 4))
                .unwrap();
        assert!(store.bytes > 0);
        store.verify(1).expect("an intact store verifies");

        let short = store.bytes as u64 - 5;
        std::fs::OpenOptions::new().write(true).open(&store.path).unwrap().set_len(short).unwrap();
        let err = store.verify(1).unwrap_err();
        let text = err.to_string();
        assert!(matches!(err, RunError::Io { .. }), "{text}");
        assert!(text.contains("rank 1"), "{text}");
        assert!(text.contains(&format!("holds {short} bytes")), "{text}");
        assert!(text.contains(&format!("{} were written", store.bytes)), "{text}");

        std::fs::remove_file(&store.path).unwrap();
        let err = store.verify(1).unwrap_err();
        let text = err.to_string();
        assert!(matches!(err, RunError::Io { .. }), "{text}");
        assert!(text.contains("rank 1"), "{text}");
        assert!(text.contains(&format!("{} bytes written", store.bytes)), "{text}");
    }

    #[test]
    fn store_damaged_mid_run_is_a_typed_error() {
        // A store cut short after the up-front length check: the rank's
        // reader fails with `RunError::Io` naming the rank and the store
        // path, in the async phase or the sync phase, never a panic.
        use twoface_partition::{OneDimLayout, PartitionPlan, StripeClass};
        let a = twoface_matrix::gen::erdos_renyi(32, 32, 200, 3);
        let spill = SpillDir::create(None).unwrap();
        for class in [StripeClass::Async, StripeClass::Sync] {
            let plan = PartitionPlan::build_uniform(&a, OneDimLayout::new(32, 32, 2, 4), 8, class);
            let matrices = RankMatrices::build(&a, &plan, 1, 4);
            let store = write_store(spill.path(format!("store.{class:?}")), &matrices).unwrap();
            let short = match class {
                StripeClass::Async => {
                    assert!(!store.stripes.is_empty(), "the async case has stripes to read");
                    10
                }
                _ => {
                    assert!(store.stripes.is_empty() && store.sync_nnz > 0);
                    store.bytes as u64 - 5
                }
            };
            let file = std::fs::OpenOptions::new().write(true).open(&store.path).unwrap();
            file.set_len(short).unwrap();
            let mut source = StoreSource { rank: 1, store: &store, reader: None };
            let result =
                source.for_each_async(|_| Ok(())).and_then(|()| source.for_each_sync_chunk(|_| {}));
            let err = result.unwrap_err().into_run_error(1, Vec::new());
            let text = err.to_string();
            assert!(matches!(err, RunError::Io { .. }), "{text}");
            assert!(text.contains("rank 1"), "{text}");
            assert!(text.contains(&store.path.display().to_string()), "{text}");
        }
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(bytes) = peak_rss_bytes() {
            assert!(bytes > 0);
        }
    }

    #[test]
    fn infeasible_budget_is_rejected_up_front() {
        let mut source = ErdosChunks::new(512, 512, 4000, 9);
        let err = run_twoface_streamed(
            &mut source,
            8,
            4,
            32,
            &CostModel::delta(),
            &StreamOptions { memory_budget: Some(1), ..Default::default() },
        )
        .unwrap_err();
        assert!(matches!(err, RunError::HostBudgetExceeded { .. }), "got {err:?}");
    }

    #[test]
    fn degenerate_layout_is_a_shape_error() {
        let mut source = ErdosChunks::new(4, 4, 10, 1);
        let err = run_twoface_streamed(
            &mut source,
            8,
            16,
            2,
            &CostModel::delta(),
            &StreamOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Shape { .. }));
    }
}
