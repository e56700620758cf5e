//! Distributed SDDMM — sampled dense-dense matrix multiplication (§9).
//!
//! The paper's conclusion notes that "the Two-Face algorithm should also be
//! applicable to sparse kernels such as SDDMM, which exhibits very similar
//! patterns to SpMM". This module demonstrates it: for
//! `C_ij = A_ij · (X · Yᵀ)_ij` over the nonzeros of `A`, the `X` rows are
//! local under 1D partitioning (they follow `A`'s row blocks, like `C` in
//! SpMM) while the `Y` rows are indexed by nonzero *columns* — exactly the
//! access pattern of SpMM's `B`. The same partition plan, dense-stripe
//! multicasts, and coalesced one-sided gets therefore apply unchanged; only
//! the local kernel differs (a dot product per nonzero instead of an axpy).
//! Both run through one executor (`algo::twoface::execute_twoface`), so
//! SDDMM pays exactly SpMM's charges under either async layout.

use crate::algo::twoface::{execute_twoface, LaneKernel, ResidentSource, TwoFaceData};
use crate::kernels::{RowCursor, RowSource};
use crate::pool::Pool;
use crate::runner::{collect_run, resolve_observability, resolve_plan, ExecOpts, Problem};
use crate::{RunError, RunOptions};
use twoface_matrix::{CooMatrix, DenseMatrix, Entry, Scalar, SmallTriplet, Triplet};
use twoface_net::{Cluster, CostModel, Lane, MetricsRegistry};
use twoface_partition::StripeClass;

/// Which communication schedule an SDDMM run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SddmmAlgorithm {
    /// Two-Face: multicasts for synchronous stripes, fine-grained gets for
    /// asynchronous ones.
    TwoFace,
    /// Everything fine-grained.
    AsyncFine,
    /// Full replication of `Y` before computing.
    Allgather,
}

impl std::fmt::Display for SddmmAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SddmmAlgorithm::TwoFace => "Two-Face SDDMM",
            SddmmAlgorithm::AsyncFine => "Async Fine SDDMM",
            SddmmAlgorithm::Allgather => "Allgather SDDMM",
        })
    }
}

/// Result of a distributed SDDMM execution.
#[derive(Debug, Clone)]
pub struct SddmmReport {
    /// Display name of the schedule.
    pub algorithm: String,
    /// Simulated execution time (latest rank finish).
    pub seconds: f64,
    /// Total dense elements of `Y` received across ranks.
    pub elements_received: u64,
    /// Total communication operations issued across ranks.
    pub messages: u64,
    /// Counters and histograms merged across ranks (empty unless
    /// [`RunOptions::observability`] enabled recording).
    pub metrics: MetricsRegistry,
    /// The output sparse matrix (on `A`'s pattern), when values were
    /// computed.
    pub output: Option<CooMatrix>,
}

/// Serial reference SDDMM: `C_ij = A_ij · dot(X[i, :], Y[j, :])`.
///
/// # Panics
///
/// Panics if `x.rows() != a.rows()`, `y.rows() != a.cols()`, or
/// `x.cols() != y.cols()`.
pub fn reference_sddmm(a: &CooMatrix, x: &DenseMatrix, y: &DenseMatrix) -> CooMatrix {
    assert_eq!(x.rows(), a.rows(), "X must have one row per A row");
    assert_eq!(y.rows(), a.cols(), "Y must have one row per A column");
    assert_eq!(x.cols(), y.cols(), "X and Y must share K");
    let triplets: Vec<Triplet> =
        a.iter().map(|(r, c, v)| Triplet::new(r, c, v * dot(x.row(r), y.row(c)))).collect();
    CooMatrix::from_sorted_triplets(a.rows(), a.cols(), triplets)
        .expect("pattern unchanged, still sorted and in bounds")
}

fn dot(a: &[Scalar], b: &[Scalar]) -> Scalar {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Runs a distributed SDDMM.
///
/// `problem.b` plays the role of `Y` (distributed like SpMM's `B`); `x` is
/// the row-aligned dense factor (each rank holds its row block). Plans are
/// resolved as for SpMM, and the ranks run SpMM's Two-Face executor with a
/// dot-product kernel, so every transfer and charge is SpMM's.
///
/// # Errors
///
/// Returns [`RunError::Shape`] for mismatched factors, the typed transfer
/// errors of an installed `options.fault_plan`, and
/// [`RunError::ValidationFailed`] when `options.validate` is set.
pub fn run_sddmm(
    algorithm: SddmmAlgorithm,
    problem: &Problem,
    x: &DenseMatrix,
    cost: &CostModel,
    options: &RunOptions,
) -> Result<SddmmReport, RunError> {
    let k = problem.k();
    if x.rows() != problem.a.rows() || x.cols() != k {
        return Err(RunError::Shape {
            context: format!(
                "X is {}x{} but A has {} rows and Y has {} columns",
                x.rows(),
                x.cols(),
                problem.a.rows(),
                k
            ),
        });
    }
    let effective = options.config.effective_cost(cost);
    let exec = ExecOpts::from_run(options, k);
    let uniform = match algorithm {
        SddmmAlgorithm::TwoFace => None,
        SddmmAlgorithm::AsyncFine => Some(StripeClass::Async),
        SddmmAlgorithm::Allgather => Some(StripeClass::Sync),
    };
    let plan = resolve_plan(problem, options, uniform, &effective, exec.workers);
    let config = &options.config;
    let data = TwoFaceData::build(problem, plan, config, &Pool::new(exec.workers));
    let resolved = resolve_observability(&options.observability);
    let cluster = Cluster::new(problem.layout.nodes(), effective);
    cluster.set_fault_plan(options.fault_plan.clone());
    cluster.set_observability(resolved.observability.clone());
    let outputs = cluster.run(|ctx| {
        let rank = ctx.rank();
        let matrices = &data.rank_matrices[rank];
        let mut kernel = SddmmKernel {
            x,
            row_base: problem.layout.row_range(rank).start,
            out: Vec::with_capacity(matrices.nnz()),
        };
        let b_block = &data.b_blocks[rank];
        let mut source = ResidentSource(matrices);
        execute_twoface(ctx, &data.plan, b_block, config, &exec, &mut source, &mut kernel)?;
        Ok(kernel.out)
    });
    let (report, rank_triplets) = collect_run(outputs, &resolved, algorithm.to_string(), k, 0)?;
    let output = exec.compute.then(|| {
        let triplets: Vec<Triplet> = rank_triplets.into_iter().flatten().collect();
        CooMatrix::from_triplets(problem.a.rows(), problem.a.cols(), triplets)
            .expect("pattern coordinates stay in bounds")
    });
    if options.validate {
        let got = output.as_ref().expect("validate implies compute");
        let want = reference_sddmm(&problem.a, x, &problem.b);
        let max_diff = got
            .iter()
            .zip(want.iter())
            .map(|((_, _, g), (_, _, w))| (g - w).abs())
            .fold(0.0, f64::max);
        if got.nnz() != want.nnz() || max_diff > 1e-9 {
            return Err(RunError::ValidationFailed { max_abs_diff: max_diff });
        }
    }
    Ok(SddmmReport {
        algorithm: report.algorithm,
        seconds: report.seconds,
        elements_received: report.elements_received,
        messages: report.messages,
        metrics: report.metrics,
        output,
    })
}

/// SDDMM's per-entry work: one dot product of the entry's `X` row with its
/// `Y` row, scaled by the entry's value, emitted as a global triplet.
struct SddmmKernel<'a> {
    x: &'a DenseMatrix,
    /// Global row of the rank's first local row.
    row_base: usize,
    out: Vec<Triplet>,
}

impl LaneKernel for SddmmKernel<'_> {
    fn compute(
        &mut self,
        _: &Pool,
        _: Lane,
        entries: &[SmallTriplet],
        rows: &impl RowSource,
    ) -> usize {
        let mut cursor = RowCursor::default();
        for t in entries {
            let row = self.row_base + t.row();
            let value = t.val * dot(self.x.row(row), rows.row_with(&mut cursor, t.col()));
            self.out.push(Triplet::new(row, t.col(), value));
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use twoface_matrix::gen::{webcrawl, WebcrawlConfig};

    fn fixture() -> (Problem, DenseMatrix) {
        let a =
            webcrawl(&WebcrawlConfig { n: 512, hosts: 16, per_row: 6, ..Default::default() }, 31);
        let problem = Problem::with_generated_b(Arc::new(a), 8, 4, 32).expect("fixture is valid");
        let x = DenseMatrix::from_fn(512, 8, |i, j| ((i * 3 + j) % 7) as f64 / 7.0);
        (problem, x)
    }

    #[test]
    fn reference_scales_values_by_dot_products() {
        let a = CooMatrix::from_triplets(2, 2, vec![(0, 1, 2.0)]).unwrap();
        let x = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![0.0, 0.0]]).unwrap();
        let y = DenseMatrix::from_rows(vec![vec![5.0, 5.0], vec![3.0, 4.0]]).unwrap();
        let c = reference_sddmm(&a, &x, &y);
        // dot(X[0], Y[1]) = 1*3 + 2*4 = 11; value = 2 * 11 = 22.
        assert_eq!(c.triplets()[0].val, 22.0);
    }

    #[test]
    fn all_schedules_validate() {
        let (problem, x) = fixture();
        let cost = CostModel::delta_scaled();
        let options = RunOptions { validate: true, ..Default::default() };
        for algo in [SddmmAlgorithm::TwoFace, SddmmAlgorithm::AsyncFine, SddmmAlgorithm::Allgather]
        {
            let report = run_sddmm(algo, &problem, &x, &cost, &options)
                .unwrap_or_else(|e| panic!("{algo} failed: {e}"));
            assert!(report.seconds > 0.0);
            assert_eq!(report.output.unwrap().nnz(), problem.a.nnz());
        }
    }

    #[test]
    fn output_pattern_matches_input_pattern() {
        let (problem, x) = fixture();
        let cost = CostModel::delta_scaled();
        let report =
            run_sddmm(SddmmAlgorithm::TwoFace, &problem, &x, &cost, &RunOptions::default())
                .unwrap();
        let out = report.output.unwrap();
        for ((r1, c1, _), (r2, c2, _)) in out.iter().zip(problem.a.iter()) {
            assert_eq!((r1, c1), (r2, c2));
        }
    }

    #[test]
    fn mismatched_x_is_rejected() {
        let (problem, _) = fixture();
        let bad_x = DenseMatrix::zeros(100, 8);
        let err = run_sddmm(
            SddmmAlgorithm::TwoFace,
            &problem,
            &bad_x,
            &CostModel::delta_scaled(),
            &RunOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Shape { .. }));
    }

    #[test]
    fn sddmm_moves_same_data_as_spmm() {
        // The communication schedule and every charge are SpMM's: same plan,
        // same executor, so the same volume moves in the same simulated
        // time — under either async layout.
        use crate::config::{AsyncLayout, TwoFaceConfig};
        use crate::Algorithm;
        let (problem, x) = fixture();
        let cost = CostModel::delta_scaled();
        for layout in [AsyncLayout::ColumnMajor, AsyncLayout::RowMajor] {
            let options = RunOptions {
                compute_values: false,
                config: TwoFaceConfig { async_layout: layout, ..Default::default() },
                ..Default::default()
            };
            for (sddmm_algo, spmm_algo) in [
                (SddmmAlgorithm::TwoFace, Algorithm::TwoFace),
                (SddmmAlgorithm::AsyncFine, Algorithm::AsyncFine),
            ] {
                let sddmm = run_sddmm(sddmm_algo, &problem, &x, &cost, &options).unwrap();
                let spmm = crate::run_algorithm(spmm_algo, &problem, &cost, &options).unwrap();
                let case = format!("{sddmm_algo} under {layout:?}");
                assert_eq!(sddmm.seconds.to_bits(), spmm.seconds.to_bits(), "{case}");
                assert_eq!(sddmm.elements_received, spmm.elements_received, "{case}");
                assert_eq!(sddmm.messages, spmm.messages, "{case}");
            }
        }
    }
}
