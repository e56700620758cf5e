//! Output checks. Each reference is computed once, after the measured
//! window, so neither `setup_s` nor any operation pays for it.

use twoface_matrix::{CooMatrix, DenseMatrix};

/// The relative tolerance the runner's own `validate` option applies
/// against the serial oracle.
pub const VALIDATE_TOL: f64 = 1e-9;

/// Whether two outputs are equal bit for bit.
pub fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether `got` matches `want` within [`VALIDATE_TOL`], relative to the
/// larger magnitude with an absolute floor, as `DenseMatrix::approx_eq`.
pub fn within_tolerance(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(a, b)| {
            let scale = a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= VALIDATE_TOL * scale
        })
}

/// SplitMix64 finalizer: the benchmark's only source of derived randomness.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Element `(i, j)` of the dense operand of request `request` under
/// `seed`: a value in `[-1, 1)` computable without the matrix.
pub fn b_value(seed: u64, request: u64, i: usize, j: usize) -> f64 {
    let h = mix(mix(seed ^ mix(request)) ^ ((i as u64) << 16 | j as u64));
    (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// The dense operand of request `request`: `rows × k`.
pub fn request_b(seed: u64, request: u64, rows: usize, k: usize) -> DenseMatrix {
    DenseMatrix::from_fn(rows, k, |i, j| b_value(seed, request, i, j))
}

/// `count` distinct rows of `0..rows` drawn from `(seed, request)`.
pub fn sample_rows(seed: u64, request: u64, rows: usize, count: usize) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::with_capacity(count);
    let mut h = mix(seed ^ mix(request ^ 0x5EED));
    while picked.len() < count.min(rows) {
        h = mix(h);
        let r = (h % rows as u64) as usize;
        if !picked.contains(&r) {
            picked.push(r);
        }
    }
    picked
}

/// Row offsets into `a`'s row-major triplets.
pub fn row_offsets(a: &CooMatrix) -> Vec<usize> {
    let mut offsets = vec![0usize; a.rows() + 1];
    for t in a.triplets() {
        offsets[t.row + 1] += 1;
    }
    for r in 0..a.rows() {
        offsets[r + 1] += offsets[r];
    }
    offsets
}

/// Row `row` of `A × B` by the serial triplet loop of `reference_spmm`,
/// with `B` given element-wise.
pub fn reference_row(
    a: &CooMatrix,
    offsets: &[usize],
    row: usize,
    k: usize,
    b: impl Fn(usize, usize) -> f64,
) -> Vec<f64> {
    let mut out = vec![0.0; k];
    for t in &a.triplets()[offsets[row]..offsets[row + 1]] {
        for (j, c) in out.iter_mut().enumerate() {
            *c += t.val * b(t.col, j);
        }
    }
    out
}

/// Checks the sampled rows of one response against the serial reference.
pub fn rows_match(
    a: &CooMatrix,
    offsets: &[usize],
    rows: &[usize],
    got: &[Vec<f64>],
    k: usize,
    b: impl Fn(usize, usize) -> f64,
) -> bool {
    rows.len() == got.len()
        && rows
            .iter()
            .zip(got)
            .all(|(&r, g)| within_tolerance(g, &reference_row(a, offsets, r, k, &b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;
    use twoface_core::reference_spmm;
    use twoface_matrix::gen::erdos_renyi;

    fn flip(values: &mut [f64], index: usize, bit: u32) {
        values[index] = f64::from_bits(values[index].to_bits() ^ (1u64 << bit));
    }

    #[test]
    fn one_flipped_bit_counts_against_error_rate() {
        let a = erdos_renyi(200, 150, 2_000, 5);
        let b = request_b(7, 3, a.cols(), 8);
        let want = reference_spmm(&a, &b);
        let mut tally = Tally::default();
        // A first op that is right, then one whose mantissa LSB flipped:
        // the tolerance check passes it, the cross-op bitwise check not.
        let first = want.as_slice().to_vec();
        tally.record(within_tolerance(&first, want.as_slice()));
        let mut second = first.clone();
        flip(&mut second, 17, 0);
        assert!(within_tolerance(&second, want.as_slice()));
        tally.record(bitwise_equal(&second, &first));
        // A flipped exponent bit fails the tolerance check as well.
        let mut third = first.clone();
        flip(&mut third, 42, 60);
        tally.record(within_tolerance(&third, want.as_slice()));
        assert_eq!(tally, Tally { attempted: 3, failed: 2 });
        assert!((tally.error_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_rows_match_the_full_reference() {
        let a = erdos_renyi(300, 300, 4_000, 9);
        let (seed, request, k) = (11, 4, 16);
        let b = request_b(seed, request, a.cols(), k);
        let want = reference_spmm(&a, &b);
        let offsets = row_offsets(&a);
        let rows = sample_rows(seed, request, a.rows(), 12);
        assert_eq!(rows.len(), 12);
        let mut got: Vec<Vec<f64>> = rows.iter().map(|&r| want.row(r).to_vec()).collect();
        let bf = |i, j| b_value(seed, request, i, j);
        assert!(rows_match(&a, &offsets, &rows, &got, k, bf));
        flip(&mut got[5], 3, 62);
        assert!(!rows_match(&a, &offsets, &rows, &got, k, bf));
    }

    #[test]
    fn inputs_depend_only_on_seed_and_request() {
        assert_eq!(request_b(1, 2, 5, 3).as_slice(), request_b(1, 2, 5, 3).as_slice());
        assert_ne!(request_b(1, 2, 5, 3).as_slice(), request_b(1, 3, 5, 3).as_slice());
        assert_eq!(sample_rows(1, 2, 100, 8), sample_rows(1, 2, 100, 8));
    }
}
