//! `streamed_rmat`: one out-of-core Two-Face run per operation, from the
//! chunked R-MAT source through the five spill passes under a 128 MiB host
//! budget. Spill I/O, the host passes and memory matter here; the
//! classification, rank-structure build and rank body are the same layers
//! `oneshot_rmat` runs on its resident path.

use crate::check::bitwise_equal;
use crate::ledger::Ledger;
use crate::metrics::{Results, MIB};
use crate::stats::median;
use crate::{peak_rss_mb, secs, Ctx, KernelWall};
use std::sync::Arc;
use std::time::Instant;
use twoface_core::{
    run_algorithm, run_twoface_streamed, Algorithm, Problem, RunOptions, StreamOptions, StreamedRun,
};
use twoface_matrix::gen::{assemble, RmatChunks, RmatConfig, TripletSource};
use twoface_net::{CostModel, OpKind};

const SCALE: u32 = 18;
/// Scale of the warm-up run that set-up makes.
const WARM_SCALE: u32 = 14;
const EDGE_FACTOR: usize = 16;
const P: usize = 16;
const K: usize = 8;
const STRIPE_WIDTH: usize = 512;
const BUDGET_BYTES: usize = 128 << 20;
const SETUP_REPS: usize = 3;

fn config(scale: u32) -> RmatConfig {
    RmatConfig { scale, edge_factor: EDGE_FACTOR, ..RmatConfig::default() }
}

fn streamed(ctx: &Ctx, scale: u32, traced: bool) -> Result<StreamedRun, String> {
    let options = StreamOptions {
        memory_budget: Some(BUDGET_BYTES),
        spill_dir: Some(ctx.out_dir.join("spill")),
        observability: Ctx::observability(traced),
        ..StreamOptions::default()
    };
    let mut source = RmatChunks::new(&config(scale), ctx.seed);
    run_twoface_streamed(&mut source, K, P, STRIPE_WIDTH, &CostModel::delta(), &options)
        .map_err(|e| e.to_string())
}

/// Host-pass wall seconds (passes 1–5) from the pipeline's own telemetry.
fn pass_seconds(run: &StreamedRun) -> Result<[f64; 5], String> {
    let mut passes = [None; 5];
    for e in run.report.rank_events.iter().flatten().filter(|e| e.kind == OpKind::HostPass) {
        let n = e
            .peers
            .first()
            .copied()
            .filter(|n| (1..=5).contains(n))
            .ok_or("host pass without a number")?;
        passes[n - 1] = e.wall_nanos.map(|ns| ns as f64 / 1e9);
    }
    let mut out = [0.0; 5];
    for (i, p) in passes.iter().enumerate() {
        out[i] = p.ok_or_else(|| format!("host pass {} reported no wall time", i + 1))?;
    }
    Ok(out)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Results, String> {
    let mut r = Results::default();
    let mut ledger = Ledger::new();
    ledger.set_enabled(ctx.traced);

    // Set-up: a small streamed run faults in the pipeline (spill directory,
    // rank threads, allocator, page cache) before timing starts.
    let mut setup_s = Vec::new();
    for rep in 0..SETUP_REPS as u64 {
        let t = Instant::now();
        ledger.time("setup", None, rep, || streamed(ctx, WARM_SCALE, false))?;
        setup_s.push(secs(t));
    }

    let mut first: Option<(Vec<f64>, u64)> = None;
    let (mut plain, mut traced_s) = (Vec::new(), Vec::new());
    let (mut passes, mut kernel) = (Vec::new(), Vec::new());
    let mut last_traced: Option<StreamedRun> = None;
    // Peak RSS is read after set-up and the first op: later ops repeat the
    // same work and add only allocator retention, which varies run to run.
    let mut rss = None;
    let window = Instant::now();
    let mut ops = 0usize;
    while ctx.keep_going(window, ops, if ctx.traced { 4 } else { 3 }) {
        let traced = ctx.traced && ops % 2 == 1;
        ledger.set_enabled(traced);
        let op = ops as u64;
        ops += 1;
        let started = Instant::now();
        let root = ledger.open("op", None, op);
        let call = ledger.open("core.stream.run", Some(root), op);
        let result = streamed(ctx, SCALE, traced);
        ledger.close(call);
        ledger.close(root);
        let seconds = secs(started);
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                eprintln!("op {ops} failed: {e}");
                r.tally.record(false);
                continue;
            }
        };
        let c = run.report.output.as_ref().expect("streamed runs compute values").as_slice();
        let sim_bits = run.report.seconds.to_bits();
        let same = match &first {
            None => {
                first = Some((c.to_vec(), sim_bits));
                true
            }
            Some((f, bits)) => bitwise_equal(c, f) && sim_bits == *bits,
        };
        r.tally.record(same);
        if rss.is_none() {
            rss = Some(peak_rss_mb()?);
        }
        if traced {
            let p = pass_seconds(&run)?;
            let names = [
                "core.stream.pass1",
                "core.stream.pass2",
                "core.stream.pass3",
                "core.stream.pass4",
                "core.stream.pass5",
            ];
            let children: Vec<(&'static str, f64)> = names.iter().copied().zip(p).collect();
            // The passes tile the streamed call; they sit under its span.
            ledger.derived_children(call, &children);
            passes.push(p);
            kernel.push(KernelWall::from_events(&run.report.rank_events));
            traced_s.push(seconds);
            last_traced = Some(run);
        } else {
            plain.push(seconds);
        }
    }
    let window_s = secs(window);
    let rss = rss.ok_or("no operation completed")?;

    // Reference, once, after the window: the resident path on the same
    // source must give the same C and simulated seconds, bit for bit.
    let a = assemble(&mut RmatChunks::new(&config(SCALE), ctx.seed));
    let nnz = a.nnz();
    let problem =
        Problem::with_generated_b(Arc::new(a), K, P, STRIPE_WIDTH).map_err(|e| e.to_string())?;
    let resident =
        run_algorithm(Algorithm::TwoFace, &problem, &CostModel::delta(), &RunOptions::default())
            .map_err(|e| format!("resident reference run: {e}"))?;
    drop(problem);
    if let Some((f, bits)) = &first {
        let want = resident.output.as_ref().expect("resident runs compute values").as_slice();
        if !bitwise_equal(f, want) || *bits != resident.seconds.to_bits() {
            eprintln!("streamed C or simulated seconds differ from the resident run");
            r.tally.fail_all();
        }
    }

    r.note(format!(
        "streamed_rmat: R-MAT scale {SCALE} edge factor {EDGE_FACTOR} ({nnz} nnz) streamed, p = {P}, K = {K}, stripe width {STRIPE_WIDTH}, host budget {} MiB",
        BUDGET_BYTES >> 20
    ));
    if ctx.traced {
        let last = last_traced.ok_or("the traced run completed no traced operation")?;
        // Generation alone, timed by draining the source once: the share
        // of pass 1 the generator accounts for.
        let gen_s = {
            let t = Instant::now();
            let mut source = RmatChunks::new(&config(SCALE), ctx.seed);
            let mut chunk = Vec::new();
            while source.next_chunk(1 << 16, &mut chunk) > 0 {
                chunk.clear();
            }
            secs(t)
        };
        let n = traced_s.len();
        let pass = |i: usize| median(&passes.iter().map(|p: &[f64; 5]| p[i]).collect::<Vec<_>>());
        let kernel_s = median(&kernel.iter().map(|k| k.critical_s).collect::<Vec<_>>());
        r.set("bench.traced_ops", n as f64, n);
        r.set("bench.trace_overhead_ratio", median(&traced_s) / median(&plain), n);
        let coverage = ledger.coverage("core.stream.run");
        r.set(
            "bench.span_coverage_ratio",
            median(&coverage.iter().map(|c| c.0).collect::<Vec<_>>()),
            n,
        );
        r.set("bench.unattributed_s", median(&coverage.iter().map(|c| c.1).collect::<Vec<_>>()), n);
        r.set("matrix.gen_s", gen_s, 1);
        r.set("partition.classify_s", pass(2), n);
        r.set("core.runner.exec_s", pass(4), n);
        r.set("core.kernels.wall_s", kernel_s, n);
        r.set("core.runner.exec_nonkernel_s", pass(4) - kernel_s, n);
        r.set(
            "core.kernels.gflops",
            median(&kernel.iter().map(KernelWall::gflops).collect::<Vec<_>>()),
            n,
        );
        r.set("core.kernels.flop_per_byte_computed", crate::flop_per_byte(nnz, 1 << SCALE, K), 1);
        r.set("net.sim_s", last.report.seconds, 1);
        r.set("net.elements_received", last.report.elements_received as f64, 1);
        r.set("net.messages", last.report.messages as f64, 1);
        for (i, name) in [
            "core.stream.pass1_s",
            "core.stream.pass2_s",
            "core.stream.pass3_s",
            "core.stream.pass4_s",
            "core.stream.pass5_s",
        ]
        .into_iter()
        .enumerate()
        {
            r.set(name, pass(i), n);
        }
        r.set("core.stream.spilled_mb", last.spilled_bytes as f64 / MIB, 1);
        r.set("core.stream.peak_shard_mb", last.peak_shard_bytes as f64 / MIB, 1);
        r.set("core.stream.est_host_mb", last.estimated_host_bytes as f64 / MIB, 1);
        let path = ctx.out_dir.join(format!("streamed_rmat-{}.spans.jsonl", ctx.seed));
        ledger.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        r.note(format!(
            "ledger: {} ({n} traced ops; host passes 1-5 under each streamed call)",
            path.display()
        ));
    } else {
        r.set("setup_s", median(&setup_s), setup_s.len());
        r.set("latency_p50_s", median(&plain), plain.len());
        r.set("throughput_per_s", plain.len() as f64 / window_s, plain.len());
        r.set("peak_rss_mb", rss, 1);
        r.note(format!("streamed_p50_s {:.6} s (n={})", median(&plain), plain.len()));
    }
    Ok(r)
}
