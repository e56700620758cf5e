//! `oneshot_rmat`: one cold Two-Face SpMM per operation, from a matrix
//! file on disk to a verified `C` — what every paper-figure point pays.
//! Preprocessing and I/O are most of the operation, so the matrix,
//! partition and prepared layers do most of their work here.

use crate::check::{bitwise_equal, within_tolerance};
use crate::ledger::Ledger;
use crate::metrics::{Results, MIB};
use crate::stats::{highest_tail, median};
use crate::{flop_per_byte, peak_rss_mb, secs, Ctx, KernelWall};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use twoface_core::pool::Pool;
use twoface_core::{
    prepare_plan, reference_spmm_pooled, run_algorithm, Algorithm, ExecutionReport, PreparedMatrix,
    Problem, RunOptions,
};
use twoface_matrix::gen::{rmat, RmatConfig};
use twoface_matrix::io::{read_binary, write_binary};
use twoface_net::CostModel;
use twoface_partition::ModelCoefficients;

const SCALE: u32 = 18;
const EDGE_FACTOR: usize = 16;
const P: usize = 16;
const K: usize = 32;
const STRIPE_WIDTH: usize = 512;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

fn matrix_config() -> RmatConfig {
    RmatConfig { scale: SCALE, edge_factor: EDGE_FACTOR, ..RmatConfig::default() }
}

/// Set-up: generate `A` and write it as a binary file.
fn setup(path: &Path, seed: u64, ledger: &mut Ledger, rep: u64) -> Result<(), String> {
    let root = ledger.open("setup", None, rep);
    let a = ledger.time("matrix.gen", Some(root), rep, || rmat(&matrix_config(), seed));
    ledger.time("matrix.write", Some(root), rep, || {
        let file = File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        let mut out = BufWriter::new(file);
        write_binary(&mut out, &a).map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.flush().map_err(|e| format!("flushing {}: {e}", path.display()))
    })?;
    ledger.close(root);
    Ok(())
}

/// What one operation leaves behind for checks and the ledger.
struct OpOutput {
    seconds: f64,
    report: ExecutionReport,
    stripes: (usize, usize),
    prepared_bytes: usize,
}

/// One cold SpMM: read → B → classify → build → execute.
fn op(path: &Path, ledger: &mut Ledger, op: u64, traced: bool) -> Result<OpOutput, String> {
    let cost = CostModel::delta();
    let started = Instant::now();
    let root = ledger.open("op", None, op);
    let a = ledger.time("matrix.read", Some(root), op, || {
        File::open(path)
            .map_err(|e| e.to_string())
            .and_then(|f| read_binary(f).map_err(|e| e.to_string()))
    })?;
    let problem = ledger
        .time("core.runner.b_gen", Some(root), op, || {
            Problem::with_generated_b(Arc::new(a), K, P, STRIPE_WIDTH)
        })
        .map_err(|e| e.to_string())?;
    let plan = ledger.time("partition.classify", Some(root), op, || {
        prepare_plan(&problem, &ModelCoefficients::from(&cost), &cost)
    });
    let (_, sync, asynchronous) = plan.class_totals();
    let observability = Ctx::observability(traced);
    let options = RunOptions {
        plan: Some(Arc::new(plan)),
        observability: observability.clone(),
        ..RunOptions::default()
    };
    let prepared = ledger
        .time("core.prepared.build", Some(root), op, || {
            PreparedMatrix::build(&problem, &cost, &options)
        })
        .map_err(|e| e.to_string())?;
    let prepared_bytes = prepared.approx_bytes();
    let options =
        RunOptions { prepared: Some(Arc::new(prepared)), observability, ..RunOptions::default() };
    let report = ledger
        .time("core.runner.exec", Some(root), op, || {
            run_algorithm(Algorithm::TwoFace, &problem, &cost, &options)
        })
        .map_err(|e| e.to_string())?;
    ledger.close(root);
    Ok(OpOutput { seconds: secs(started), report, stripes: (sync, asynchronous), prepared_bytes })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Results, String> {
    let mut r = Results::default();
    let mut ledger = Ledger::new();
    ledger.set_enabled(ctx.traced);
    let path = ctx.out_dir.join(format!("oneshot_rmat-{}.bin", ctx.seed));

    let mut setup_s = Vec::new();
    for rep in 0..SETUP_REPS as u64 {
        let t = Instant::now();
        setup(&path, ctx.seed, &mut ledger, rep)?;
        setup_s.push(secs(t));
    }
    let file_mib = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64 / MIB;

    // The measured window. The traced run alternates untraced and traced
    // operations, so their medians give the tracing overhead.
    let mut first: Option<Vec<f64>> = None;
    let (mut plain, mut traced_s) = (Vec::new(), Vec::new());
    let mut kernel = Vec::new();
    let mut last_traced: Option<OpOutput> = None;
    // Peak RSS is read after set-up and the first op: later ops repeat the
    // same work and add only allocator retention, which varies run to run.
    let mut rss = None;
    let window = Instant::now();
    let mut ops = 0usize;
    while ctx.keep_going(window, ops, if ctx.traced { 4 } else { 3 }) {
        let traced = ctx.traced && ops % 2 == 1;
        ledger.set_enabled(traced);
        let out = op(&path, &mut ledger, ops as u64, traced);
        ops += 1;
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("op {ops} failed: {e}");
                r.tally.record(false);
                continue;
            }
        };
        let c = out.report.output.as_ref().expect("runs compute values").as_slice();
        let same = match &first {
            None => {
                first = Some(c.to_vec());
                true
            }
            Some(f) => bitwise_equal(c, f),
        };
        r.tally.record(same);
        if rss.is_none() {
            rss = Some(peak_rss_mb()?);
        }
        if traced {
            traced_s.push(out.seconds);
            kernel.push(KernelWall::from_events(&out.report.rank_events));
            last_traced = Some(out);
        } else {
            plain.push(out.seconds);
        }
    }
    let window_s = secs(window);
    let rss = rss.ok_or("no operation completed")?;

    // Reference, once, after the window: C must match the pooled oracle.
    let a =
        read_binary(File::open(&path).map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let nnz = a.nnz();
    let problem =
        Problem::with_generated_b(Arc::new(a), K, P, STRIPE_WIDTH).map_err(|e| e.to_string())?;
    let want = reference_spmm_pooled(&problem.a, &problem.b, &Pool::from_env());
    if let Some(f) = &first {
        if !within_tolerance(f, want.as_slice()) {
            eprintln!("C differs from the reference beyond the validate tolerance");
            r.tally.fail_all();
        }
    }

    r.note(format!("oneshot_rmat: R-MAT scale {SCALE} edge factor {EDGE_FACTOR} ({nnz} nnz), p = {P}, K = {K}, stripe width {STRIPE_WIDTH}, Two-Face"));
    if ctx.traced {
        let serial_s = {
            let t = Instant::now();
            std::hint::black_box(reference_spmm_pooled(&problem.a, &problem.b, &Pool::SERIAL));
            secs(t)
        };
        let last = last_traced.ok_or("the traced run completed no traced operation")?;
        let n = traced_s.len();
        let med = |name: &str| median(&ledger.durations(name));
        let exec_s = med("core.runner.exec");
        let kernel_s = median(&kernel.iter().map(|k| k.critical_s).collect::<Vec<_>>());
        let read_s = med("matrix.read");
        r.set("bench.traced_ops", n as f64, n);
        r.set("bench.trace_overhead_ratio", median(&traced_s) / median(&plain), n);
        let coverage = ledger.coverage("op");
        r.set(
            "bench.span_coverage_ratio",
            median(&coverage.iter().map(|c| c.0).collect::<Vec<_>>()),
            n,
        );
        r.set("bench.unattributed_s", median(&coverage.iter().map(|c| c.1).collect::<Vec<_>>()), n);
        r.set("matrix.gen_s", med("matrix.gen"), SETUP_REPS);
        r.set("matrix.read_s", read_s, n);
        r.set("matrix.read_mb_per_s", file_mib / read_s, n);
        r.set("partition.classify_s", med("partition.classify"), n);
        r.set("partition.sync_stripes", last.stripes.0 as f64, 1);
        r.set("partition.async_stripes", last.stripes.1 as f64, 1);
        r.set("core.runner.b_gen_s", med("core.runner.b_gen"), n);
        r.set("core.prepared.build_s", med("core.prepared.build"), n);
        r.set("core.prepared.mb", last.prepared_bytes as f64 / MIB, 1);
        r.set("core.runner.exec_s", exec_s, n);
        r.set("core.kernels.wall_s", kernel_s, n);
        r.set("core.runner.exec_nonkernel_s", exec_s - kernel_s, n);
        r.set(
            "core.kernels.gflops",
            median(&kernel.iter().map(KernelWall::gflops).collect::<Vec<_>>()),
            n,
        );
        r.set("core.kernels.flop_per_byte_computed", flop_per_byte(nnz, problem.a.rows(), K), 1);
        r.set("core.kernels.serial_reference_s", serial_s, 1);
        r.set("net.sim_s", last.report.seconds, 1);
        r.set("net.elements_received", last.report.elements_received as f64, 1);
        r.set("net.messages", last.report.messages as f64, 1);
        let path = ctx.out_dir.join(format!("oneshot_rmat-{}.spans.jsonl", ctx.seed));
        ledger.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        r.note(format!(
            "ledger: {} ({} traced ops; spans read, b_gen, classify, build, exec under each op)",
            path.display(),
            n
        ));
    } else {
        r.set("setup_s", median(&setup_s), setup_s.len());
        r.set("latency_p50_s", median(&plain), plain.len());
        r.set("throughput_per_s", plain.len() as f64 / window_s, plain.len());
        r.set("peak_rss_mb", rss, 1);
        r.note(format!("oneshot_p50_s {:.6} s (n={})", median(&plain), plain.len()));
        match highest_tail(&plain) {
            Some((q, v)) => {
                r.note(format!("oneshot_p{}_s {v:.6} s (n={})", q * 100.0, plain.len()))
            }
            None => r.note(format!(
                "oneshot tail: not reported, {} samples support no percentile with 10 beyond it",
                plain.len()
            )),
        }
    }
    let _ = std::fs::remove_file(&path);
    Ok(r)
}
