//! Order statistics and the pass/fail tally behind `error_rate`.

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAILS: [f64; 4] = [0.999, 0.99, 0.95, 0.90];

/// The median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every metric is reported from at least one
/// sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The nearest-rank `q` percentile of `sorted` and the number of samples
/// strictly beyond its rank.
fn nearest_rank(sorted: &[f64], q: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The `q` percentile of `samples`, or `None` when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it — a tail read off a handful
/// of points is noise, not a percentile.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (value, beyond) = nearest_rank(&sorted, q);
    (beyond >= MIN_SAMPLES_BEYOND).then_some(value)
}

/// The highest tail percentile `samples` supports, as `(q, value)`.
pub fn highest_tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAILS.iter().find_map(|&q| percentile(samples, q).map(|v| (q, v)))
}

/// Counts checked operations and the ones that failed or were wrong.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or an output that failed a check.
    pub failed: u64,
}

impl Tally {
    /// Records one operation: `ok` is false for an error or a wrong output.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Marks an already-recorded operation as wrong (a check that runs
    /// after the measured window).
    pub fn fail_recorded(&mut self) {
        assert!(self.failed < self.attempted, "more failures than operations");
        self.failed += 1;
    }

    /// Marks every recorded operation as wrong: a reference check after the
    /// window failed for an output all operations reproduced bitwise.
    pub fn fail_all(&mut self) {
        self.failed = self.attempted;
    }

    /// Failed or wrong operations over operations attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 99 samples leaves 9 beyond rank 90: not reported.
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.90), None);
        // p90 of 100 samples leaves exactly 10 beyond rank 90: reported.
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.90), Some(90.0));
        // The same 100 samples cannot support p95 (5 beyond).
        assert_eq!(percentile(&enough, 0.95), None);
        assert_eq!(highest_tail(&enough), Some((0.90, 90.0)));
        // 200 samples support p95 (10 beyond) but not p99.
        let more: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(highest_tail(&more), Some((0.95, 190.0)));
        // A one-shot run's dozen samples supports no tail at all.
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(highest_tail(&few), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!(t, Tally { attempted: 4, failed: 1 });
        assert_eq!(t.error_rate(), 0.25);
        t.fail_recorded();
        assert_eq!(t.error_rate(), 0.5);
        t.fail_all();
        assert_eq!(t.error_rate(), 1.0);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }
}
