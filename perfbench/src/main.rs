//! Host wall-clock benchmark of the Two-Face workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oneshot_rmat|serve_mixed|streamed_rmat> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with every
//! tracing option off; with `--trace 1` it records the span ledger, turns
//! on the program's own wall-time telemetry, and reports the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is the JSON result. See `perfbench/README.md`.

mod check;
mod ledger;
mod metrics;
mod oneshot;
mod serve;
mod stats;
mod streamed;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use twoface_net::{Observability, OpEvent, OpKind, TraceLevel};

/// Environment knobs that would change what is measured: the worker count
/// and the program's own trace and profile exporters. The benchmark
/// measures the defaults, so it removes them before anything reads them.
const SCRUBBED_ENV: [&str; 3] = ["TWOFACE_THREADS", "TWOFACE_TRACE", "TWOFACE_PROFILE"];

/// One run's parameters.
pub struct Ctx {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Scratch directory for generated files, spill files and the ledger.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// The program's observability for an operation: kernel spans stamped
    /// with wall time when traced, everything off otherwise.
    pub fn observability(traced: bool) -> Observability {
        if traced {
            Observability { level: TraceLevel::Full, sample_every: 1, wall_time: true }
        } else {
            Observability::off()
        }
    }

    /// Whether another operation should start: the window is open, or
    /// fewer than `min_ops` have run.
    pub fn keep_going(&self, started: Instant, ops: usize, min_ops: usize) -> bool {
        ops < min_ops || started.elapsed() < self.window
    }
}

/// Kernel-span totals of one traced run: the slowest rank's summed kernel
/// wall time (ranks run their kernels side by side, so this is the part of
/// the run's wall time kernels occupy) and multiply-accumulates over all
/// ranks.
pub struct KernelWall {
    /// Largest per-rank sum of kernel-span wall seconds.
    pub critical_s: f64,
    /// Multiply-accumulates behind those spans, summed over ranks.
    pub macs: u64,
}

impl KernelWall {
    /// Totals the wall-stamped kernel spans of `rank_events`.
    pub fn from_events(rank_events: &[Vec<OpEvent>]) -> KernelWall {
        let mut critical_ns = 0u64;
        let mut macs = 0u64;
        for events in rank_events {
            let kernels = events.iter().filter(|e| e.kind == OpKind::Kernel);
            let mut rank_ns = 0u64;
            for e in kernels {
                if let Some(ns) = e.wall_nanos {
                    rank_ns += ns;
                    macs += e.elements;
                }
            }
            critical_ns = critical_ns.max(rank_ns);
        }
        KernelWall { critical_s: critical_ns as f64 / 1e9, macs }
    }

    /// Achieved rate while kernels run: `2 · MACs` over the critical
    /// rank's kernel time.
    pub fn gflops(&self) -> f64 {
        if self.critical_s > 0.0 {
            2.0 * self.macs as f64 / self.critical_s / 1e9
        } else {
            0.0
        }
    }
}

/// Computed (not measured) arithmetic intensity of an SpMM over `nnz`
/// nonzeros, `rows` output rows and `k` columns: `2·nnz·K` flops over the
/// bytes a single pass must touch — each nonzero's value and 32-bit column
/// index, one `B` row of `K` doubles per nonzero, and each `C` row once.
pub fn flop_per_byte(nnz: usize, rows: usize, k: usize) -> f64 {
    let flops = 2.0 * (nnz * k) as f64;
    let bytes = (nnz * 12 + nnz * k * 8 + rows * k * 8) as f64;
    flops / bytes
}

/// The process's peak resident set in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    twoface_core::peak_rss_bytes()
        .map(|b| b as f64 / metrics::MIB)
        .ok_or_else(|| "peak RSS (VmHWM) is not available on this platform".to_string())
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <oneshot_rmat|serve_mixed|streamed_rmat> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = twoface_core::pool::resolve_workers(None);
    println!(
        "host: nproc={nproc} workers={workers} seed={} workload={} seconds={} trace={}",
        args.seed, args.workload, args.seconds, args.trace as u8
    );
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds),
        traced: args.trace,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("error: creating {}: {e}", ctx.out_dir.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "oneshot_rmat" => oneshot::run(&ctx),
        "serve_mixed" => serve::run(&ctx),
        "streamed_rmat" => streamed::run(&ctx),
        other => Err(format!("unknown workload {other}")),
    };
    let mut results = match result {
        Ok(results) => results,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if ctx.traced {
        results.set("bench.nproc", nproc as f64, 1);
        results.set("bench.workers", workers as f64, 1);
    }
    for line in &results.notes {
        println!("{line}");
    }
    println!(
        "error_rate {:.6} ratio (failed {} of {} attempted)",
        results.tally.error_rate(),
        results.tally.failed,
        results.tally.attempted
    );
    let (lines, json) = results.render(ctx.traced);
    for line in lines {
        println!("{line}");
    }
    println!("{json}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a =
            args(&["--workload", "serve_mixed", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 7, 10.0, true)
        );
        assert!(args(&["--workload", "x", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(
            args(&["--workload", "x", "--seed", "1", "--seconds", "1", "--trace", "2"]).is_err()
        );
        assert!(args(&["--seed", "1", "--seconds", "1"]).is_err());
    }

    #[test]
    fn intensity_is_below_one_flop_per_byte() {
        let fpb = flop_per_byte(1_000_000, 65_536, 32);
        assert!(fpb > 0.2 && fpb < 0.25, "{fpb}");
    }
}
